"""Tests of the benchmark itself, on smoke-size inputs.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import datagen  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from useqmine import ScoredPattern, USeqTrie  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, capsys):
    result = run.run(workload, 808, 0, bool(trace), smoke=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["trace.absent_hooks"]["value"] == 0
        assert 0.0 < result["metrics"]["trace.coverage"]["value"] <= 1.0
    assert "error_rate 0" in capsys.readouterr().out


def _perturb_first(monkeypatch):
    collect = USeqTrie.collect

    def perturbed(self, min_wes):
        out = collect(self, min_wes)
        if out:
            out[0] = ScoredPattern(out[0].pattern, out[0].wes + 1e-3)
        return out

    monkeypatch.setattr(USeqTrie, "collect", perturbed)


def test_perturbed_wes_counts_as_failed_operation(monkeypatch, capsys):
    _perturb_first(monkeypatch)
    result = run.run("mine-zipf", 808, 0, False, smoke=True)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert "error_rate 1" in capsys.readouterr().out


def test_perturbed_incremental_output_is_caught(monkeypatch):
    _perturb_first(monkeypatch)
    result = run.run("inc-stream", 808, 0, False, smoke=True)
    assert not result["correct"] and result["failed"] >= 1


def test_inputs_follow_the_seed(tmp_path):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        datagen.write_inputs("inc-stream", seed, str(tmp_path / name), smoke=True)

    def read(name):
        return {f: (tmp_path / name / f).read_bytes() for f in sorted(os.listdir(tmp_path / name))}

    assert read("a") == read("b")
    assert read("a")["init.txt"] != read("c")["init.txt"]
    assert len(read("a")) == 3 + datagen.SMOKE_SHAPES["inc-stream"].increments


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_absent_hook_is_reported_not_raised():
    tracer = Tracer()
    tracer.hook("useqmine.fuws", "no_such_function")
    tracer.hook("useqmine.trie", "no_such_method", cls="USeqTrie")
    assert tracer.absent == ["fuws.no_such_function", "trie.USeqTrie.no_such_method"]


def test_spans_nest_and_uninstall_restores():
    import useqmine.trie as trie_mod

    original = trie_mod.USeqTrie.collect
    tracer = Tracer()
    tracer.hook("useqmine.trie", "collect", cls="USeqTrie")
    tracer.hook("useqmine.trie", "patterns", cls="USeqTrie")
    try:
        USeqTrie().collect(0.0)
    finally:
        tracer.uninstall()
    assert USeqTrie.collect is original
    outer, inner = tracer.spans
    assert (outer.name, inner.name, inner.parent) == ("trie.USeqTrie.collect",
                                                       "trie.USeqTrie.patterns", outer)
    assert outer.children == [inner] and inner.duration <= outer.duration
    assert tracer.covered() == pytest.approx(outer.duration)


def test_host_clock_leaves_out_its_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostClock() as clock:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert clock.samples >= 4
    assert 0.1 < clock.raw_s < 0.2 and clock.scaled_s > 0.0


def test_catalog_is_the_default_seed_weight_table(tmp_path):
    # Regenerate with datagen.write_catalog(datagen.CATALOG, <scratch dir>).
    datagen.write_catalog(str(tmp_path / "weights.txt"), str(tmp_path))
    with open(datagen.CATALOG, "rb") as fh:
        assert (tmp_path / "weights.txt").read_bytes() == fh.read()
