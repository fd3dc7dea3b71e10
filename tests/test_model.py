import math
import random

import pytest
from hypothesis import example, given, settings
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
    parse_pattern,
    parse_uncertain_db,
    s_weight,
    single,
    write_uncertain_db,
)
from useqmine.model import check_item_token

from conftest import PROBS, P, databases


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

    def test_long_chain_checks_no_whole_pattern(self, monkeypatch):
        # The input of each step is valid already, so no step re-checks every
        # itemset: a chain of n extensions costs no O(n²) checks.
        items = [f"i{k:04d}" for k in range(1200)]
        pat = single(items[0])
        events = [[items[0]]]
        calls = []
        plain = Pattern.__post_init__
        monkeypatch.setattr(Pattern, "__post_init__", lambda self: (calls.append(1), plain(self)))
        for k, item in enumerate(items[1:], start=1):
            kind = "S" if k % 3 == 0 else "I"
            pat = extend(pat, item, kind)
            if kind == "S":
                events.append([item])
            else:
                events[-1].append(item)
        assert calls == []
        want = Pattern(tuple(map(tuple, events)))
        assert len(calls) == 1  # the counter sees a checked construction
        assert pat == want and hash(pat) == hash(want)
        assert pat.length == 1200 and pat.size == 400

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
        for prob in (0.0, 1.5):
            with pytest.raises(MiningError, match=r"probability of 'a' out of \(0, 1\]"):
                USequence([[("a", prob)]])
        assert USequence([[("a", 1.0)]]).index == {"a": ((0,), (1.0,))}

    def test_event_ordering(self):
        # Items may come in any order within an event, as the file reader
        # takes them; the sequence stores them ascending.
        seq = USequence([[("b", 0.5), ("a", 0.4)], [("c", 0.3)]])
        assert seq == USequence([[("a", 0.4), ("b", 0.5)], [("c", 0.3)]])
        assert list(seq.index) == ["a", "b", "c"]
        assert seq.events[0] == Event((ProbItem("a", 0.4), ProbItem("b", 0.5)))
        with pytest.raises(MiningError, match="duplicate item 'a' in event"):
            USequence([[("a", 0.5), ("b", 0.2), ("a", 0.6)]])

    def test_empty_event_and_sequence(self):
        with pytest.raises(MiningError, match="empty event"):
            USequence([[("a", 0.5)], []])
        with pytest.raises(MiningError, match="sequence has no events"):
            USequence(events=())

    def test_weight_range(self):
        with pytest.raises(MiningError):
            WeightTable({"a": 0.0})
        with pytest.raises(MiningError):
            WeightTable({"a": 1.2})

    @pytest.mark.parametrize("token", ["\ud800", "a\udfffb"])
    def test_token_not_encodable_as_utf8_refused(self, token):
        # No UTF-8 file can hold a lone surrogate, so no writer could save it.
        with pytest.raises(MiningError, match="UTF-8"):
            check_item_token(token)
        with pytest.raises(MiningError):
            USequence([[(token, 0.5)]])
        with pytest.raises(MiningError):
            parse_pattern(f"({token})")
        with pytest.raises(MiningError):
            WeightTable({token: 1.0})

    @pytest.mark.parametrize("token", ["a b", "a:b", "(a)", "-1", ""])
    def test_weight_table_keys_are_item_tokens(self, token):
        # ``write_weights`` would write a line ``parse_weights`` refuses.
        with pytest.raises(MiningError):
            WeightTable({token: 1.0})

    def test_pattern_itemset_order(self):
        with pytest.raises(MiningError):
            Pattern((("b", "a"),))
        with pytest.raises(MiningError):
            Pattern(((),))

    def test_scored_pattern_nonnegative(self):
        with pytest.raises(MiningError):
            ScoredPattern(P("(a)"), -0.1)

    @pytest.mark.parametrize("wes", [math.nan, math.inf])
    def test_scored_pattern_finite(self, wes):
        with pytest.raises(MiningError, match="finite and not negative"):
            ScoredPattern(P("(a)"), wes)
        assert ScoredPattern(P("(a)"), 0.0).wes == 0.0

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


@given(token=st.text(min_size=1))
@example(token="a\x1cb")  # an ASCII separator, space to isspace and split alike
@example(token="a\u00a0")
@example(token="a\u2028")
@example(token="\u200b")  # zero-width space: not whitespace to either
def test_item_token_whitespace_check_agrees_with_isspace(token):
    has_space = any(c.isspace() for c in token)
    assert (token.split() != [token]) == has_space
    # ':' and the parentheses are rejected on their own, whitespace or not.
    if not set(":()") & set(token) and token not in ("-1", "-2"):
        try:
            check_item_token(token)
        except MiningError:
            assert has_space
        else:
            assert not has_space


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


def naive_index(events):
    """Item -> (positions, probabilities), built one occurrence at a time in
    event order, so items run in order of first occurrence."""
    index = {}
    for k, ev in enumerate(events):
        for pi in ev.items:
            ks, ps = index.get(pi.item, ((), ()))
            index[pi.item] = (ks + (k,), ps + (pi.prob,))
    return index


@settings(max_examples=100, deadline=None)
@given(db=databases())
def test_stored_index_encodes_the_events_view(tmp_path_factory, db):
    for seq in db.sequences:
        events = seq.events
        assert USequence(ev.items for ev in events) == seq
        want = naive_index(events)
        # Key order too: the WAM sums add items in order of first occurrence.
        assert list(seq.index.items()) == list(want.items())
        assert seq.n_events == len(events)
    occurrences = [pi.item for seq in db.sequences for ev in seq.events for pi in ev.items]
    assert list(db.item_frequencies().items()) == [
        (item, occurrences.count(item)) for item in dict.fromkeys(occurrences)
    ]
    path = tmp_path_factory.getbasetemp() / "index-rt.txt"
    write_uncertain_db(str(path), db)
    assert parse_uncertain_db(str(path)) == db


BAD_TOKENS = ["", "-1", "-2", "a:b", "a b", "(a)"]
BAD_PROBS = [0.0, -0.5, 1.5, math.nan, math.inf]


@st.composite
def pair_events(draw):
    """Events of ``(item, prob)`` pairs, items in drawn order, and at most
    one defect: a token or probability no file may hold, an empty event or
    a repeated item."""
    pair = st.tuples(st.sampled_from("abcd"), PROBS)
    event = st.lists(pair, min_size=1, max_size=3, unique_by=lambda t: t[0])
    events = draw(st.lists(event, max_size=4))
    defect = draw(st.sampled_from([None, "token", "prob", "empty", "repeat"]))
    if events and defect is not None:
        ev = events[draw(st.integers(0, len(events) - 1))]
        j = draw(st.integers(0, len(ev) - 1))
        item, prob = ev[j]
        if defect == "token":
            ev[j] = (draw(st.sampled_from(BAD_TOKENS)), prob)
        elif defect == "prob":
            ev[j] = (item, draw(st.sampled_from(BAD_PROBS)))
        elif defect == "empty":
            events.insert(draw(st.integers(0, len(events))), [])
        else:
            ev.insert(draw(st.integers(0, len(ev))), (item, draw(PROBS)))
    return events


def refused_or_built(build):
    try:
        return build()
    except MiningError:
        return None


@settings(max_examples=300, deadline=None)
@given(events=pair_events())
@example(events=[[("b", 0.5), ("a", 1.0)], [("a", 0.25)]])
@example(events=[[("a", 0.5), ("b", 0.5), ("a", 0.5)]])
@example(events=[[("a", math.nan)]])
def test_constructor_and_reader_agree(tmp_path_factory, events):
    # The line the writer would give these events: both refuse it, or both
    # build the same sequence.
    line = " ".join(
        [tok for ev in events for tok in [f"{it}:{p!r}" for it, p in ev] + ["-1"]] + ["-2"]
    )
    path = tmp_path_factory.getbasetemp() / "agree.txt"
    path.write_text(line + "\n", encoding="utf-8")
    built = refused_or_built(lambda: USequence(events))
    read = refused_or_built(lambda: parse_uncertain_db(str(path)).sequences[0])
    assert built == read


def test_constructed_sequence_shares_its_positions(tmp_path):
    # Items at the same events hold one positions tuple, and the sequence
    # equals the one the reader builds from its line.
    seq = USequence([[("b", 0.5), ("a", 0.25)], [("c", 1.0)], [("a", 0.5), ("b", 0.75)]])
    assert seq.index["a"][0] == (0, 2)
    assert seq.index["a"][0] is seq.index["b"][0]
    path = tmp_path / "one.txt"
    path.write_text("a:0.25 b:0.5 -1 c:1.0 -1 a:0.5 b:0.75 -1 -2\n")
    assert parse_uncertain_db(str(path)).sequences == (seq,)


class TestMalformedFromCode:
    """Input built in code, not read from a file, is refused with a ``MiningError`` too."""

    @pytest.mark.parametrize(
        "events",
        [
            [[(1, 0.5)]],  # an item that is not a str
            [[("a", 0.5, 1)]],  # not a pair
            [["ab"]],  # a str is not a pair of item and number
            [[("a", "0.5")]],  # a probability that is not a number
            [[("a", True)]],  # nor is a bool, which the writer would write as 'True'
            [5],  # an event that is not iterable
            5,
        ],
    )
    def test_sequence_refused(self, events):
        with pytest.raises(MiningError):
            USequence(events)

    def test_events_view_is_not_pairs(self, sample_db):
        seq = sample_db.sequences[0]
        with pytest.raises(MiningError):
            USequence(seq.events)
        assert USequence(ev.items for ev in seq.events) == seq

    @pytest.mark.parametrize(
        "entries", [{1: 0.5}, {"a": "0.5"}, {"a": None}, {"a": True}, [("a", 0.5)]]
    )
    def test_weight_table_refused(self, entries):
        with pytest.raises(MiningError):
            WeightTable(entries)

    def test_numbers_stored_as_floats(self):
        assert USequence([[("a", 1)]]).index == {"a": ((0,), (1.0,))}
        assert type(WeightTable({"a": 1}).entries["a"]) is float


LEAVES = (
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats() | st.text(max_size=3)
    | st.sampled_from(["a", "b", 0.5, 1.0])
)
NESTED = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=12,
)


@st.composite
def code_objects(draw):
    """Events of ``(item, prob)`` pairs with at most one part, from the whole
    sequence down to one number, replaced by an arbitrary nested object."""
    pair = st.tuples(st.sampled_from("abcd"), PROBS)
    event = st.lists(pair, min_size=1, max_size=3, unique_by=lambda t: t[0])
    events = draw(st.lists(event, min_size=1, max_size=3))
    part = draw(st.sampled_from([None, "sequence", "event", "entry", "item", "prob"]))
    if part == "sequence":
        return draw(NESTED)
    if part is not None:
        k = draw(st.integers(0, len(events) - 1))
        j = draw(st.integers(0, len(events[k]) - 1))
        item, prob = events[k][j]
        if part == "event":
            events[k] = draw(NESTED)
        elif part == "entry":
            events[k][j] = draw(NESTED)
        else:
            events[k][j] = (draw(NESTED), prob) if part == "item" else (item, draw(NESTED))
    return events


@settings(max_examples=300, deadline=None)
@given(obj=code_objects())
@example(obj=[[("b", 0.5), ("a", 1)], [("a", 0.25)]])
@example(obj=[[("a", 0.5)], [("a", 0.5, 1)]])
@example(obj={"ab": [("a", 0.5)]})
def test_any_nested_object_builds_a_sequence_or_is_refused(tmp_path_factory, obj):
    # Whatever the object, the constructor builds a sequence the writer and
    # reader carry unchanged, or raises MiningError. Sorting unchecked
    # entries could raise TypeError, so every refusal comes before the sort.
    try:
        seq = USequence(obj)
    except MiningError:
        return
    path = tmp_path_factory.getbasetemp() / "nested.txt"
    write_uncertain_db(str(path), UncertainDatabase((seq,)))
    assert parse_uncertain_db(str(path)).sequences == (seq,)
