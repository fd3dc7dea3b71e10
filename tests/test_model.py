import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from useqmine import (
    Event,
    MiningError,
    MiningParams,
    MissingWeightError,
    Pattern,
    ProbItem,
    ScoredPattern,
    Thresholds,
    UncertainDatabase,
    USequence,
    WeightTable,
    extend,
    s_weight,
    single,
)

from conftest import P


class TestSWeight:
    def test_worked_example(self, sample_weights):
        # (0.8 + 0.8 + 0.9) / 3
        assert s_weight(P("(a)(a c)"), sample_weights) == pytest.approx(0.8333333, abs=1e-6)

    def test_single_item(self):
        assert s_weight(P("(b)"), WeightTable({"b": 1.0})) == 1.0

    def test_two_event_mix(self):
        wt = WeightTable({"a": 0.8, "b": 1.0, "c": 0.9})
        assert s_weight(P("(a b)(c)"), wt) == pytest.approx(0.9)

    def test_missing_weight_names_item(self):
        with pytest.raises(MissingWeightError, match="'q'"):
            s_weight(P("(q)"), WeightTable({"a": 1.0}))

    def test_matches_running_accumulator(self):
        # The incremental (weight sum, item count) pair used during trie scans
        # must agree with recomputation at every growth step.
        rng = random.Random(7)
        wt = WeightTable({it: round(rng.uniform(0.1, 1.0), 3) for it in "abcde"})
        for _ in range(50):
            pat = single(rng.choice("abcde"))
            wsum, cnt = wt.weight(pat.last_item), 1
            for _ in range(rng.randint(1, 6)):
                item = rng.choice("abcde")
                kind = rng.choice(["S", "I"])
                if kind == "I" and item <= pat.last_item:
                    continue
                pat = extend(pat, item, kind)
                wsum += wt.weight(item)
                cnt += 1
                assert abs(wsum / cnt - s_weight(pat, wt)) <= 1e-12


class TestExtend:
    def test_i_extension(self):
        assert extend(P("(a)(b)"), "c", "I") == P("(a)(b c)")

    def test_s_extension(self):
        assert extend(P("(a)(b)"), "c", "S") == P("(a)(b)(c)")

    def test_i_extension_order_violation(self):
        with pytest.raises(ValueError):
            extend(P("(a)"), "a", "I")

    def test_does_not_mutate_input(self):
        base = P("(a)(b)")
        extend(base, "c", "I")
        extend(base, "c", "S")
        assert base == P("(a)(b)")

    def test_bookkeeping_matches_recount(self):
        rng = random.Random(11)
        for _ in range(100):
            pat = single(rng.choice("abcde"))
            for _ in range(rng.randint(0, 8)):
                item = rng.choice("abcde")
                kind = rng.choice(["S", "I"])
                if kind == "I" and item <= pat.last_item:
                    kind = "S"
                before_size = pat.size
                pat = extend(pat, item, kind)
                assert pat.length == sum(len(ev) for ev in pat.events)
                assert pat.size == len(pat.events)
                assert pat.size == before_size + (1 if kind == "S" else 0)


class TestValidation:
    def test_prob_range(self):
        with pytest.raises(MiningError):
            ProbItem("a", 0.0)
        with pytest.raises(MiningError):
            ProbItem("a", 1.5)
        assert ProbItem("a", 1.0).prob == 1.0

    def test_event_ordering(self):
        with pytest.raises(MiningError):
            Event((ProbItem("b", 0.5), ProbItem("a", 0.5)))
        with pytest.raises(MiningError):
            Event((ProbItem("a", 0.5), ProbItem("a", 0.6)))

    def test_empty_event_and_sequence(self):
        with pytest.raises(MiningError):
            Event(())
        with pytest.raises(MiningError):
            USequence(events=())

    def test_weight_range(self):
        with pytest.raises(MiningError):
            WeightTable({"a": 0.0})
        with pytest.raises(MiningError):
            WeightTable({"a": 1.2})

    def test_pattern_itemset_order(self):
        with pytest.raises(MiningError):
            Pattern((("b", "a"),))
        with pytest.raises(MiningError):
            Pattern(((),))

    def test_scored_pattern_nonnegative(self):
        with pytest.raises(MiningError):
            ScoredPattern(P("(a)"), -0.1)

    def test_params_ranges(self):
        with pytest.raises(MiningError):
            MiningParams(min_sup=0.0, wgt_fct=1.0)
        with pytest.raises(MiningError):
            MiningParams(min_sup=1.1, wgt_fct=1.0)
        with pytest.raises(MiningError):
            MiningParams(min_sup=0.2, wgt_fct=0.0)
        with pytest.raises(MiningError):
            MiningParams(min_sup=0.2, wgt_fct=1.0, mu=0.0)
        assert MiningParams(min_sup=0.2, wgt_fct=1.0).mu == 1.0
        assert MiningParams(min_sup=0.2, wgt_fct=1.0).lwes_factor == 2.0


PARAM_UPPER = {"min_sup": 1.0, "wgt_fct": math.inf, "mu": 1.0, "lwes_factor": math.inf}


@given(field=st.sampled_from(sorted(PARAM_UPPER)), value=st.floats())
@example(field="wgt_fct", value=math.nan)
@example(field="wgt_fct", value=math.inf)
@example(field="lwes_factor", value=math.nan)
def test_params_field_constructs_in_range_or_raises(field, value):
    fields = {"min_sup": 0.2, "wgt_fct": 1.0, "mu": 0.7, "lwes_factor": 2.0, field: value}
    in_range = math.isfinite(value) and 0.0 < value <= PARAM_UPPER[field]
    try:
        params = MiningParams(**fields)
    except MiningError:
        assert not in_range
    else:
        assert in_range and getattr(params, field) == value


class TestThresholds:
    def test_compute(self):
        th = Thresholds.compute(min_sup=0.2, db_size=6, wam=0.88, wgt_fct=1.0, mu=0.7)
        assert th.min_wes == pytest.approx(1.056)
        assert th.min_wes_prime == pytest.approx(0.7392)
        assert 0.0 <= th.min_wes_prime <= th.min_wes


def test_database_helpers(sample_db):
    assert sample_db.size == 6
    assert sample_db.alphabet() == ["a", "b", "c", "d", "g"]
    freq = sample_db.item_frequencies()
    assert freq == {"a": 14, "b": 8, "c": 5, "d": 3, "g": 1}
    both = UncertainDatabase.concat([sample_db, sample_db])
    assert both.size == 12
    assert both.sequences == sample_db.sequences * 2
