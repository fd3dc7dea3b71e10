"""The benchmark's correctness gates, run on the package in this suite.

``perfbench/expected.json`` pins exact counts and output digests at the
default seed, and ``perfbench/gates.py`` re-scores samples with the oracle.
Without these tests a change that moves a pinned count (a looser bound, say)
fails only when the benchmark runs. They read ``perfbench/`` and change
nothing in it; its timed passes run here without the host-speed sampler.
"""

import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(os.path.abspath(PERFBENCH))
    import datagen
    import gates
    import workloads

    return datagen, gates, workloads


def test_mine_long_meets_its_recorded_counts_and_digests(perfbench, tmp_path):
    datagen, gates, workloads = perfbench
    inputs, out = str(tmp_path / "inputs"), str(tmp_path / "out")
    datagen.write_inputs("mine-long", gates.DEFAULT_SEED, inputs)
    os.makedirs(out)
    p = workloads.mine_pass("mine-long", inputs, out, sample=False)
    assert gates.gate_pass("mine-long", p, gates.DEFAULT_SEED, smoke=False) == {"mine": []}


def test_inc_stream_smoke_pass_meets_its_gates(perfbench, tmp_path):
    datagen, gates, workloads = perfbench
    inputs, out = str(tmp_path / "inputs"), str(tmp_path / "out")
    datagen.write_inputs("inc-stream", gates.DEFAULT_SEED, inputs, smoke=True)
    os.makedirs(out)
    shape = datagen.shape_of("inc-stream", True)
    p = workloads.inc_pass(inputs, out, shape, sample=False)
    problems = gates.gate_pass("inc-stream", p, gates.DEFAULT_SEED, smoke=True)
    assert len(problems) == 1 + 2 * shape.increments
    assert {op: bad for op, bad in problems.items() if bad} == {}
