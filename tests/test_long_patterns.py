"""Patterns longer than Python's recursion limit.

Every item of a stored pattern is one trie level, so a recursive walk over
the trie, or over the growth path, needs one frame per pattern item. Three
sequences of 1,200 events of ``a:1.0`` make every ``(a)(a)...(a)`` up to 1,200
items long frequent.
"""

import sys

import pytest

from useqmine import (
    Event,
    MiningParams,
    ProbItem,
    UncertainDatabase,
    USeqTrie,
    USequence,
    WeightTable,
    init_mining,
    load_state,
    read_patterns_tsv,
    save_state,
    uwsinc_step,
    uwsincplus_step,
    write_uncertain_db,
    write_weights,
)
from useqmine.cli import main

N = 1200
A = Event((ProbItem("a", 1.0),))
WT = WeightTable({"a": 1.0})


@pytest.fixture(scope="module")
def long_db():
    assert N > sys.getrecursionlimit()
    return UncertainDatabase((USequence((A,) * N),) * 3)


def test_mining_steps_and_checkpoint(long_db, tmp_path):
    # init_mining is mine_trie at min_sup * mu plus the state around it.
    state = init_mining(long_db, WT, MiningParams(min_sup=1.0, wgt_fct=1.0))
    found = state.seq_trie.collect(state.thresholds().min_wes)
    assert sorted(sp.pattern.length for sp in found) == list(range(1, N + 1))
    assert state.seq_trie.node_count == N

    text = state.seq_trie.snapshot()
    assert USeqTrie.from_snapshot(text).snapshot() == text

    ck = str(tmp_path / "state.ck")
    save_state(state, ck)
    # One more long sequence keeps every pattern frequent: each has wes 4.0
    # against minWES 4.0 after the step.
    delta = UncertainDatabase((USequence((A,) * N),))
    assert len(uwsinc_step(state, delta)) == N
    resumed = load_state(ck, WT)
    assert resumed.seq_trie.snapshot() == text
    assert len(uwsincplus_step(resumed, delta)) == N
    assert resumed.seq_trie.snapshot() == state.seq_trie.snapshot()


def test_cli_mine(long_db, tmp_path, capsys):
    db, weights, out = (str(tmp_path / name) for name in ("db.txt", "w.txt", "out.tsv"))
    write_uncertain_db(db, long_db)
    write_weights(weights, WT)
    assert main(["mine", "--db", db, "--weights", weights, "--min-sup", "1.0",
                 "--wgt-fct", "1.0", "--out", out]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert len(read_patterns_tsv(out)) == N
