"""Patterns longer than Python's recursion limit.

Every item of a stored pattern is one trie level, so a recursive walk over
the trie, or over the growth path, needs one frame per pattern item. Three
sequences of 1,200 events of ``a:1.0`` make every ``(a)(a)...(a)`` up to 1,200
items long frequent.
"""

import sys

import pytest

from useqmine import (
    MiningParams,
    Pattern,
    UncertainDatabase,
    USeqTrie,
    USequence,
    WeightTable,
    init_mining,
    load_state,
    read_patterns_tsv,
    save_state,
    sup_calc,
    uwsinc_step,
    uwsincplus_step,
    write_uncertain_db,
    write_weights,
)
from useqmine.cli import main

N = 1200
A = [("a", 1.0)]
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


def test_sup_calc_scans_chains_of_both_edge_kinds(long_db):
    # An S-chain over one long sequence, and an I-chain of N items in one
    # event: one trie level, and one row on the scan's stack, per item.
    s_chain = Pattern((("a",),) * N)
    items = [f"i{k:04d}" for k in range(N)]
    i_chain = Pattern((tuple(items),))
    one_event = USequence([[(it, 1.0) for it in items]])
    db = UncertainDatabase((long_db.sequences[0], one_event))
    trie = USeqTrie()
    for pat in (s_chain, i_chain):
        trie.insert(pat)
    sup_calc(trie, db, WeightTable({"a": 1.0, **dict.fromkeys(items, 0.5)}))
    assert (trie.get_wes(s_chain), trie.get_wes(i_chain)) == (1.0, 0.5)


def test_cli_mine(long_db, tmp_path, capsys):
    db, weights, out = (str(tmp_path / name) for name in ("db.txt", "w.txt", "out.tsv"))
    write_uncertain_db(db, long_db)
    write_weights(weights, WT)
    assert main(["mine", "--db", db, "--weights", weights, "--min-sup", "1.0",
                 "--wgt-fct", "1.0", "--out", out]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert len(read_patterns_tsv(out)) == N
