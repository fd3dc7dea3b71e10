import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from useqmine import (
    MiningError,
    MissingWeightError,
    Pattern,
    UncertainDatabase,
    USeqTrie,
    WeightTable,
    extend,
    meets,
    oracle_wes,
    sup_calc,
)
from useqmine.trie import _edges

from conftest import P, db_from_text, patterns_by_key, random_db, random_weights

FIG2_PATTERNS = [P("(a)"), P("(a b)"), P("(b)"), P("(c)"), P("(c)(d)"), P("(d)")]


def fig2_trie():
    trie = USeqTrie()
    for pat in FIG2_PATTERNS:
        trie.insert(pat, 1.0)
    return trie


class TestInsertRemove:
    def test_insert_reuses_prefix_nodes(self):
        trie = fig2_trie()
        assert trie.node_count == 6
        trie.insert(P("(a b)(c)"), 1.0)  # reuses (a) and (a b), adds one S-child
        assert trie.node_count == 7
        assert P("(a b)(c)") in trie

    def test_insert_existing_overwrites_wes(self):
        trie = fig2_trie()
        before = trie.node_count
        trie.insert(P("(a b)"), 9.5)
        assert trie.node_count == before
        assert trie.get_wes(P("(a b)")) == 9.5

    @pytest.mark.parametrize("wes", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("pat", ["(e)(f)", "(a b)", "(c)(d e)"])
    def test_insert_refuses_a_wes_no_snapshot_holds(self, wes, pat):
        # The checkpoint reader refuses such a wes, so the trie must not store
        # it, nor make the nodes of a new path first.
        trie = fig2_trie()
        before = trie.snapshot()
        with pytest.raises(MiningError, match="wes must be finite and not negative"):
            trie.insert(P(pat), wes)
        assert trie.snapshot() == before
        assert USeqTrie.from_snapshot(trie.snapshot()).snapshot() == before

    def test_three_insertions_grow_trie(self):
        trie = fig2_trie()
        trie.insert(P("(a b)(c)"), 1.0)
        trie.insert(P("(b)(c)"), 1.0)
        trie.insert(P("(c d)"), 1.0)
        assert trie.node_count == 9
        assert trie.pattern_count == 9
        # (c)(d) and (c d) are distinct: S-edge vs I-edge under (c).
        assert P("(c)(d)") in trie and P("(c d)") in trie

    def test_remove_keeps_shared_prefix(self):
        trie = fig2_trie()
        trie.insert(P("(a b)(c)"), 1.0)
        trie.insert(P("(b)(c)"), 1.0)
        trie.insert(P("(c d)"), 1.0)
        trie.remove(P("(a b)(c)"))
        assert trie.node_count == 8
        assert P("(a b)") in trie
        assert P("(a b)(c)") not in trie

    def test_remove_prefix_of_another_keeps_node(self):
        trie = USeqTrie()
        trie.insert(P("(a)"), 1.0)
        trie.insert(P("(a)(b)"), 2.0)
        trie.remove(P("(a)"))
        assert P("(a)") not in trie
        assert P("(a)(b)") in trie
        assert trie.node_count == 2  # (a) stays as structure only
        trie.remove(P("(a)(b)"))
        assert trie.node_count == 0

    def test_remove_missing_raises(self):
        trie = fig2_trie()
        with pytest.raises(KeyError):
            trie.remove(P("(g)"))

    def test_round_trip_random_sets(self):
        rng = random.Random(3)
        items = "abcde"
        for _ in range(30):
            pats = set()
            for _ in range(rng.randint(1, 12)):
                events = []
                for _ in range(rng.randint(1, 3)):
                    k = rng.randint(1, 3)
                    events.append(tuple(sorted(rng.sample(items, k))))
                pats.add(P("".join("(" + " ".join(ev) + ")" for ev in events)))
            trie = USeqTrie()
            for i, pat in enumerate(sorted(pats, key=str)):
                trie.insert(pat, float(i))
            assert {pat for pat, _ in trie.patterns()} == pats
            assert trie.pattern_count == len(pats)


class TestSupCalc:
    # One-sequence walkthrough: values quoted per node.
    SEQ = "a:0.8 -1 b:0.6 -1 a:0.9 b:0.7 -1 c:0.3 -1 d:0.9 -1 -2\n"
    WT = WeightTable({"a": 0.8, "b": 1.0, "c": 0.9, "d": 0.9})

    def walkthrough_db(self, tmp_path):
        return db_from_text(tmp_path, self.SEQ, "walk.txt")

    def test_walkthrough_values(self, tmp_path):
        db = self.walkthrough_db(tmp_path)
        trie = USeqTrie()
        for pat in [P("(a)"), P("(a b)"), P("(b)"), P("(b)(c)")]:
            trie.insert(pat, 0.0)
        sup_calc(trie, db, self.WT)
        assert trie.get_wes(P("(a)")) == pytest.approx(0.72)
        assert trie.get_wes(P("(a b)")) == pytest.approx(0.567)
        assert trie.get_wes(P("(b)")) == pytest.approx(0.7)
        assert trie.get_wes(P("(b)(c)")) == pytest.approx(0.1995)

    def test_absent_pattern_contributes_zero(self, tmp_path):
        db = self.walkthrough_db(tmp_path)
        trie = USeqTrie()
        trie.insert(P("(c)(a)"), 0.0)  # no a after the c event
        sup_calc(trie, db, self.WT)
        assert trie.get_wes(P("(c)(a)")) == 0.0

    def test_collect_and_prune(self, tmp_path):
        db = self.walkthrough_db(tmp_path)
        trie = USeqTrie()
        for pat in [P("(a)"), P("(a b)"), P("(b)"), P("(b)(c)")]:
            trie.insert(pat, 0.0)
        sup_calc(trie, db, self.WT)
        got = patterns_by_key(trie.collect(0.6))
        assert set(got) == {P("(a)"), P("(b)")}
        removed = trie.prune_below(0.6)
        assert removed == 2
        assert {pat for pat, _ in trie.patterns()} == {P("(a)"), P("(b)")}

    def test_collect_no_filter_and_empty(self):
        trie = USeqTrie()
        assert trie.collect(0.0) == []
        trie.insert(P("(a)"), 0.5)
        assert len(trie.collect(0.0)) == 1

    def test_prune_extremes(self, tmp_path):
        trie = fig2_trie()
        assert trie.prune_below(0.0) == 0
        assert trie.prune_below(float("inf")) == 6
        assert trie.node_count == 0

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(41)
        for _ in range(25):
            db = random_db(rng, max_seqs=8, max_events=5)
            wt = random_weights(rng)
            trie = USeqTrie()
            pats = set()
            items = sorted(wt.entries)
            for _ in range(rng.randint(3, 10)):
                first = rng.choice(items)
                text = f"({first})"
                if rng.random() < 0.5:
                    bigger = [i for i in items if i > first]
                    if bigger:
                        text = f"({first} {rng.choice(bigger)})"
                if rng.random() < 0.5:
                    text += f"({rng.choice(items)})"
                pats.add(P(text))
            for pat in pats:
                trie.insert(pat, 0.0)
            sup_calc(trie, db, wt)
            for pat in pats:
                assert trie.get_wes(pat) == pytest.approx(
                    oracle_wes(pat, db, wt), abs=1e-9
                )

    def test_additive_over_partitions(self, sample_db, sample_weights, delta1):
        whole = UncertainDatabase.concat([sample_db, delta1])
        pats = [P("(a)"), P("(a c)"), P("(a)(a)"), P("(c)(a)"), P("(b)")]
        one = USeqTrie()
        two = USeqTrie()
        for pat in pats:
            one.insert(pat, 0.0)
            two.insert(pat, 0.0)
        sup_calc(one, whole, sample_weights)
        sup_calc(two, sample_db, sample_weights)
        sup_calc(two, delta1, sample_weights)
        for pat in pats:
            assert one.get_wes(pat) == pytest.approx(two.get_wes(pat), abs=1e-9)

    def test_item_without_weight_refused_before_any_wes_changes(self, tmp_path):
        # (a) is met first, but the plan looks up z's weight before the scan.
        db = db_from_text(tmp_path, "a:0.5 -1 z:0.5 -1 -2\n")
        trie = USeqTrie()
        for pat in [P("(a)"), P("(z)")]:
            trie.insert(pat, 0.0)
        before = trie.snapshot()
        with pytest.raises(MissingWeightError, match="'z'"):
            sup_calc(trie, db, WeightTable({"a": 0.5}))
        assert trie.get_wes(P("(a)")) == 0.0
        assert trie.snapshot() == before

    def test_i_edge_at_the_root_never_embeds(self, tmp_path):
        # The empty prefix has no event for an I-edge to join. Only a direct
        # add_child call can store one, here next to the S-edge of (a).
        db = self.walkthrough_db(tmp_path)
        trie = USeqTrie()
        trie.insert(P("(a)"))
        trie.add_child(trie.root, "I", "a")
        sup_calc(trie, db, self.WT)
        assert [node.wes for node in trie.root.children.values()] == [pytest.approx(0.72), 0.0]


class TestSnapshot:
    def test_round_trip(self):
        trie = fig2_trie()
        trie.insert(P("(a b)(c)"), 2.5)
        trie.remove(P("(a b)"))  # leaves a structural node in the middle
        text = trie.snapshot()
        back = USeqTrie.from_snapshot(text)
        assert patterns_by_key(back.collect(0.0)) == patterns_by_key(trie.collect(0.0))
        assert back.node_count == trie.node_count
        assert back.snapshot() == text

    def test_snapshot_line_shape(self):
        trie = USeqTrie()
        trie.insert(P("(a b)"), 0.5)
        lines = trie.snapshot().splitlines()
        assert lines[0].split() == ["1", "S", "a", "-"]
        assert lines[1].split() == ["2", "I", "b", "0.5"]

    def test_bad_snapshots_rejected(self):
        with pytest.raises(Exception):
            USeqTrie.from_snapshot("1 X a 0.5\n")
        with pytest.raises(Exception):
            USeqTrie.from_snapshot("3 S a 0.5\n")
        with pytest.raises(Exception):
            USeqTrie.from_snapshot("1 S a\n")
        with pytest.raises(Exception):
            USeqTrie.from_snapshot("1 I a 0.5\n")

    @pytest.mark.parametrize("wes", ["x", "nan", "inf", "-3.0"])
    def test_bad_wes_rejected_with_its_line(self, wes):
        with pytest.raises(MiningError, match="snapshot line 2"):
            USeqTrie.from_snapshot(f"1 S a 0.5\n1 S b {wes}\n")

    @pytest.mark.parametrize(
        "text, needle",
        [
            ("1 S b 0.75\n2 I a 0.375\n", "snapshot line 2: I-edge item 'a' must sort after 'b'"),
            ("1 S a -\n2 I a 0.5\n", "snapshot line 2: I-edge item 'a' must sort after 'a'"),
            ("1 S a 0.5\n2 S b 0.25\n1 S a 0.5\n", "snapshot line 3: repeated edge S 'a'"),
            ("1 S a 0.5\n2 S -1 0.25\n", "snapshot line 2: invalid item token '-1'"),
            ("1 S a:b 0.5\n", "snapshot line 1: item token 'a:b' must not contain ':'"),
            # ``remove`` and ``prune_below`` drop a childless '-' node; no save writes one.
            ("1 S a -\n1 S b 0.5\n", "snapshot line 1: '-' node has no child"),
            ("1 S a 0.5\n2 S b -\n", "snapshot line 2: '-' node has no child"),
            ("1 S a -\n2 S b -\n1 S c 0.5\n", "snapshot line 2: '-' node has no child"),
        ],
    )
    def test_bad_edges_rejected_with_their_line(self, text, needle):
        with pytest.raises(MiningError, match=needle):
            USeqTrie.from_snapshot(text)

    def test_zero_wes_accepted(self):
        assert USeqTrie.from_snapshot("1 S a 0.0\n").get_wes(P("(a)")) == 0.0


ITEMSETS = st.lists(st.sampled_from("abc"), min_size=1, max_size=2, unique=True).map(
    lambda xs: tuple(sorted(xs))
)
PATTERNS = st.lists(ITEMSETS, min_size=1, max_size=4).map(lambda evs: Pattern(tuple(evs)))
# Quarter steps make equal values, and threshold ties, common.
WES = st.integers(0, 12).map(lambda k: k / 4)


@st.composite
def tries(draw):
    trie = USeqTrie()
    stored = draw(st.lists(st.tuples(PATTERNS, WES), max_size=25))
    for pat, wes in stored:
        trie.insert(pat, wes)
    # Removing patterns leaves unmarked prefix nodes between marked ones.
    for pat, _ in stored:
        if pat in trie and draw(st.booleans()):
            trie.remove(pat)
    return trie


def nodes_of(trie):
    out, stack = [], [trie.root]
    while stack:
        for child in stack.pop().children.values():
            out.append(child)
            stack.append(child)
    return out


@settings(max_examples=200, deadline=None)
@given(trie=tries())
def test_snapshot_round_trip_keeps_patterns_and_nodes(trie):
    text = trie.snapshot()
    back = USeqTrie.from_snapshot(text)
    assert back.snapshot() == text
    assert list(back.patterns()) == list(trie.patterns())
    assert back.node_count == trie.node_count == len(nodes_of(trie))
    assert back.pattern_count == trie.pattern_count == len(list(trie.patterns()))


@settings(max_examples=200, deadline=None)
@given(
    trie=tries(),
    min_wes=st.builds(lambda w, d: w + d, WES, st.sampled_from([-2e-9, 0.0, 5e-10, 2e-9])),
)
def test_prune_below_keeps_exactly_the_patterns_that_meet(trie, min_wes):
    before = dict(trie.patterns())
    removed = trie.prune_below(min_wes)
    after = dict(trie.patterns())
    assert after == {pat: wes for pat, wes in before.items() if meets(wes, min_wes)}
    assert removed == len(before) - len(after)
    assert trie.pattern_count == len(after)
    nodes = nodes_of(trie)
    assert all(node.children or node.wes is not None for node in nodes)
    assert trie.node_count == len(nodes)


def prefix(pat, k):
    """The pattern of the first ``k`` edges of ``pat``."""
    events = []
    for kind, item in _edges(pat)[:k]:
        if kind == "S":
            events.append((item,))
        else:
            events[-1] += (item,)
    return Pattern(tuple(events))


@settings(max_examples=150, deadline=None)
@given(pats=st.lists(PATTERNS, max_size=12))
def test_add_child_stores_what_insert_stores(pats):
    # Adding each pattern's edges one child at a time from the root stores
    # the pattern and all of its prefixes, as inserting each of them does.
    added, inserted = USeqTrie(), USeqTrie()
    for pat in pats:
        node = added.root
        for k, (kind, item) in enumerate(_edges(pat), start=1):
            node = added.add_child(node, kind, item)
            inserted.insert(prefix(pat, k))
    assert added.snapshot() == inserted.snapshot()
    assert added.pattern_count == inserted.pattern_count


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_trie_agrees_with_a_dict_model(data):
    # Every operation is applied to a trie and to ``{pattern: wes}``; after
    # each, the trie's reads match the dict, a node whose wes is None is
    # exactly a prefix-only node (it has a child), and a snapshot round trips.
    trie, model = USeqTrie(), {}
    for _ in range(data.draw(st.integers(1, 12))):
        ops = ["insert", "prune_below"] + ["add_child", "remove"] * bool(model)
        op = data.draw(st.sampled_from(ops))
        if op == "insert":
            pat, wes = data.draw(PATTERNS), data.draw(WES)
            trie.insert(pat, wes)
            model[pat] = wes
        elif op == "add_child":
            pat = data.draw(st.sampled_from(sorted(model, key=str)))
            kind, item = data.draw(st.tuples(st.sampled_from("SI"), st.sampled_from("abc")))
            if kind == "I" and item <= pat.events[-1][-1]:
                kind = "S"
            trie.add_child(trie._walk(pat)[-1], kind, item)
            model.setdefault(extend(pat, item, kind), 0.0)
        elif op == "remove":
            pat = data.draw(st.sampled_from(sorted(model, key=str)))
            trie.remove(pat)
            del model[pat]
        else:
            min_wes = data.draw(WES)
            kept = {pat: wes for pat, wes in model.items() if meets(wes, min_wes)}
            assert trie.prune_below(min_wes) == len(model) - len(kept)
            model = kept
        assert dict(trie.patterns()) == model
        assert trie.pattern_count == len(model)
        for pat in [*model, data.draw(PATTERNS)]:
            assert (pat in trie) == (pat in model)
            if pat in model:
                assert trie.get_wes(pat) == model[pat]
            else:
                with pytest.raises(KeyError):
                    trie.get_wes(pat)
        nodes = nodes_of(trie)
        assert all(node.wes is not None or node.children for node in nodes)
        assert sum(node.wes is not None for node in nodes) == len(model)
        assert USeqTrie.from_snapshot(trie.snapshot()).snapshot() == trie.snapshot()
