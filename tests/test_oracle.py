import random

import pytest

from useqmine import (
    OracleSizeError,
    UncertainDatabase,
    USequence,
    WeightTable,
    max_pr_dynamic,
    oracle_exp_sup,
    oracle_max_pr_s,
    oracle_mine,
    oracle_wes,
)

from conftest import P, patterns_by_key, random_db, random_weights


class TestMaxPr:
    def test_worked_example(self, sample_db):
        # max(0.9 x 0.3, 0.7 x 0.3) across the two embeddings
        assert oracle_max_pr_s(P("(a)(b)"), sample_db.sequences[0]) == pytest.approx(0.27)

    def test_absent_item(self, sample_db):
        assert oracle_max_pr_s(P("(q)"), sample_db.sequences[0]) == 0.0

    def test_single_item_takes_peak(self, sample_db):
        assert oracle_max_pr_s(P("(a)"), sample_db.sequences[0]) == pytest.approx(0.9)

    def test_dynamic_agrees_with_enumeration(self):
        rng = random.Random(17)
        items = "abcde"
        for _ in range(60):
            db = random_db(rng, max_seqs=4, max_events=6)
            for seq in db.sequences:
                for _ in range(8):
                    events = []
                    for _ in range(rng.randint(1, 3)):
                        k = rng.randint(1, 2)
                        events.append(tuple(sorted(rng.sample(items, k))))
                    pat = P("".join("(" + " ".join(ev) + ")" for ev in events))
                    a = oracle_max_pr_s(pat, seq)
                    b = max_pr_dynamic(pat, seq)
                    assert a == pytest.approx(b, abs=1e-12)


class TestExpSup:
    def test_spot_values(self, sample_db):
        assert oracle_exp_sup(P("(a)(b)"), sample_db) == pytest.approx(0.57)
        assert oracle_exp_sup(P("(a c)"), sample_db) == pytest.approx(1.20)

    def test_per_sequence_breakdown(self, sample_db):
        vals = [oracle_max_pr_s(P("(a c)"), s) for s in sample_db.sequences]
        assert vals == pytest.approx([0.54, 0.24, 0.0, 0.12, 0.30, 0.0])

    def test_empty_db(self):
        assert oracle_exp_sup(P("(a)"), UncertainDatabase(())) == 0.0


class TestWes:
    def test_worked_example(self, sample_db, sample_weights):
        assert oracle_wes(P("(a)(a c)"), sample_db, sample_weights) == pytest.approx(0.11, abs=0.005)

    def test_unweighted_reduction(self, sample_db):
        ones = WeightTable({it: 1.0 for it in sample_db.alphabet()})
        pat = P("(a)(b)")
        assert oracle_wes(pat, sample_db, ones) == pytest.approx(oracle_exp_sup(pat, sample_db))

    def test_zero_support(self, sample_db, sample_weights):
        assert oracle_wes(P("(g)(g)"), sample_db, sample_weights) == 0.0


class TestOracleMine:
    def test_golden_set(self, sample_db, sample_weights):
        got = patterns_by_key(oracle_mine(sample_db, sample_weights, 0.737))
        want = {P("(a)"), P("(b)"), P("(c)"), P("(a)(a)"), P("(a c)")}
        assert set(got) == want

    def test_zero_threshold_lists_supported_patterns(self):
        rng = random.Random(2)
        db = random_db(rng, max_seqs=4, max_events=3)
        wt = random_weights(rng)
        got = oracle_mine(db, wt, 0.0)
        assert got
        for sp in got:
            assert oracle_exp_sup(sp.pattern, db) > 0.0

    def test_order_invariance(self):
        rng = random.Random(8)
        db = random_db(rng, max_seqs=6, max_events=4)
        wt = random_weights(rng)
        rev = UncertainDatabase(tuple(reversed(db.sequences)))
        a = patterns_by_key(oracle_mine(db, wt, 0.4))
        b = patterns_by_key(oracle_mine(rev, wt, 0.4))
        assert set(a) == set(b)
        for pat in a:
            assert a[pat] == pytest.approx(b[pat], abs=1e-9)

    def test_size_guards(self):
        ev = [("a", 0.5)]
        big = UncertainDatabase((USequence((ev,)),) * 21)
        with pytest.raises(OracleSizeError):
            oracle_mine(big, WeightTable({"a": 1.0}), 1.0)
        long = UncertainDatabase((USequence((ev,)), USequence((ev,) * 9)))
        with pytest.raises(OracleSizeError, match="sequence 2 has 9 events"):
            oracle_mine(long, WeightTable({"a": 1.0}), 1.0)
        wide_ev = [(chr(97 + i), 0.5) for i in range(9)]
        wide = UncertainDatabase((USequence((wide_ev,)),))
        with pytest.raises(OracleSizeError):
            oracle_mine(wide, WeightTable({chr(97 + i): 1.0 for i in range(9)}), 1.0)
