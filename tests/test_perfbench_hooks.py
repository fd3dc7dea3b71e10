"""The benchmark's traced pass wraps package names by string. A name it hooks
that no longer exists is only counted there (``trace.absent_hooks``), so this
test makes such a rename fail here too. It reads ``perfbench/`` and changes
nothing in it; the rest of ``perfbench``'s own tests assert wall-time bounds
and are not part of this suite."""

import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def test_every_benchmark_hook_finds_its_target(monkeypatch):
    monkeypatch.syspath_prepend(os.path.abspath(PERFBENCH))
    import layers

    fuws = importlib.import_module("useqmine.fuws")  # the package's ``fuws`` is the function
    plain = fuws.mine_trie
    with layers.traced() as tracer:
        assert tracer.absent == []
        assert fuws.mine_trie is not plain
    assert fuws.mine_trie is plain
