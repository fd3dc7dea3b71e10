"""The benchmark's traced pass wraps package names by string. A name it hooks
that no longer exists is only counted there (``trace.absent_hooks``), and a
hook whose counter reads the wrong arguments fails only in the benchmark, so
these tests make both fail here too. They read ``perfbench/`` and change
nothing in it; the rest of ``perfbench``'s own tests assert wall-time bounds
and are not part of this suite."""

import importlib
import os

import pytest

from useqmine import MiningParams

from conftest import DB_TEXT, DELTA1_TEXT, DELTA2_TEXT, WEIGHTS_TEXT

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(os.path.abspath(PERFBENCH))
    import layers

    return layers


def package(name):
    # The package's ``fuws`` attribute is the function, so go through importlib.
    return importlib.import_module(f"useqmine.{name}")


def span_name(owner, attr: str) -> str:
    """The name ``spans.Tracer.hook`` gives the span of a hooked attribute."""
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


def test_every_benchmark_hook_finds_its_target(layers):
    fuws = package("fuws")
    plain = fuws.mine_trie
    with layers.traced() as tracer:
        assert tracer.absent == []
        assert fuws.mine_trie is not plain
    assert fuws.mine_trie is plain


def test_every_benchmark_hook_records_a_span(layers, tmp_path):
    """Every call goes through a module attribute, as the benchmark's passes
    do, so each hook sees it and its counters read the real arguments."""
    dataio, fuws, incremental = package("dataio"), package("fuws"), package("incremental")
    for name, text in [("db", DB_TEXT), ("d1", DELTA1_TEXT), ("d2", DELTA2_TEXT),
                       ("w", WEIGHTS_TEXT)]:
        (tmp_path / f"{name}.txt").write_text(text)
    params = MiningParams(min_sup=0.2, wgt_fct=1.0, mu=0.7, lwes_factor=2.0)
    checkpoint = str(tmp_path / "state.ck")
    with layers.traced() as tracer:
        db = dataio.parse_uncertain_db(str(tmp_path / "db.txt"))
        weights = dataio.parse_weights(str(tmp_path / "w.txt"))
        trie, stats = fuws.mine_trie(db, weights, params.min_sup, params.wgt_fct)
        dataio.write_patterns(str(tmp_path / "out.tsv"), trie.collect(stats.min_wes))
        incremental.save_state(incremental.init_mining(db, weights, params), checkpoint)
        for step in (incremental.uwsinc_step, incremental.uwsincplus_step):
            state = incremental.load_state(checkpoint, weights)
            for delta in ("d1.txt", "d2.txt"):
                step(state, dataio.parse_uncertain_db(str(tmp_path / delta)))
        hooked = {span_name(owner, attr) for owner, attr, _ in tracer._installed}
    assert tracer.absent == []
    assert hooked - {span.name for span in tracer.spans} == set()
