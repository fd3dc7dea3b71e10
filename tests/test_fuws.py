import math
import random
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import useqmine.fuws as fuws
from useqmine import (
    EPS,
    BoundRecord,
    MiningError,
    Thresholds,
    UncertainDatabase,
    USequence,
    USeqTrie,
    WamAccumulator,
    WeightTable,
    extend,
    max_pr_dynamic,
    meets,
    mine_trie,
    oracle_exp_sup,
    oracle_max_pr_s,
    oracle_mine,
    preprocess,
    project,
    root_projection,
    s_weight,
    single,
    sup_calc,
)

from conftest import (
    DB_ITEMS,
    P,
    databases,
    db_from_text,
    patterns_by_key,
    random_db,
    random_weights,
    slots,
)


class TestPreprocess:
    def test_wam_of_worked_example(self, sample_db, sample_weights):
        wam = preprocess(sample_db, sample_weights)[1].wam
        assert wam == pytest.approx(27.2 / 31)
        assert wam == pytest.approx(0.88, abs=0.005)

    def test_suffix_max_rewrite(self, tmp_path, sample_weights):
        db = db_from_text(tmp_path, "a:0.3 -1 a:0.9 -1 -2\n")
        pdb, _ = preprocess(db, sample_weights)
        assert pdb[0].index == {"a": ((0, 1), (0.9, 0.9))}

    def test_nonincreasing_per_item(self, tmp_path, sample_weights):
        rng = random.Random(5)
        db = random_db(rng)
        wt = random_weights(rng)
        pdb, _ = preprocess(db, wt)
        for seq in pdb:
            for _, ps in seq.index.values():
                assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_identity_when_items_unique(self, tmp_path, sample_weights):
        db = db_from_text(tmp_path, "a:0.3 -1 b:0.9 -1 c:0.2 -1 -2\n")
        pdb, _ = preprocess(db, sample_weights)
        assert pdb[0].index == {
            "a": ((0,), (0.3,)),
            "b": ((1,), (0.9,)),
            "c": ((2,), (0.2,)),
        }

    def test_shape_preserved(self, sample_db, sample_weights):
        pdb, _ = preprocess(sample_db, sample_weights)
        kept = set()
        for seq, pseq in zip(sample_db.sequences, pdb):
            # The stored index's position tuples are shared, not copied.
            positions = {it: ks for it, (ks, _) in seq.index.items()}
            assert pseq.index.keys() == positions.keys()
            assert all(pseq.index[it][0] is ks for it, ks in positions.items())
            # So is a stored pair whose probabilities already fall.
            for it, (ks, ps) in seq.index.items():
                falls = all(a >= b for a, b in zip(ps, ps[1:]))
                assert (pseq.index[it] is seq.index[it]) == falls
                kept.add((len(ks) > 1, falls))
        assert kept == {(False, True), (True, True), (True, False)}

    def test_wam_is_the_accumulator_mean(self, tmp_path):
        # Summing weights per occurrence (0.3 + 0.7 + 0.3) rounds differently
        # from summing freq * weight per item (2 * 0.3 + 0.7); WAM is the latter.
        db = db_from_text(tmp_path, "b:0.5 -1 a:0.5 b:0.5 -1 -2\n")
        wt = WeightTable({"a": 0.7, "b": 0.3})
        acc = WamAccumulator()
        acc.add(db, wt)
        assert acc.wam != (0.3 + 0.7 + 0.3) / 3
        assert preprocess(db, wt)[1].wam == acc.wam


def reference_index_sequence(seq, weight, shared):
    """``fuws._index_sequence`` as it was before it sorted (last, item, pair)
    triples: a key-function sort, a second walk for the frontier, and a
    table keyed by each first-seen frontier."""
    items = sorted(seq.index.items(), key=lambda kv: (kv[1][0][-1], kv[0]), reverse=True)
    index = {
        item: occ
        if len(occ[0]) == 1 or (sm := tuple(accumulate(reversed(occ[1]), max))[::-1]) == occ[1]
        else (occ[0], sm)
        for item, occ in items
    }
    frontier = []
    for item, (ks, _) in items:
        w = weight[item]
        if not frontier or w > frontier[-1][0]:
            frontier.append((w, ks[-1], item))
    frontier = tuple(frontier[::-1])
    stored = shared.get(frontier)
    if stored is None:
        stored = shared[frontier] = tuple([shared.setdefault(entry, entry) for entry in frontier])
    return fuws.PSequence(index, stored)


@settings(max_examples=200, deadline=None)
@given(
    db=databases() | databases(last_min_size=2),
    weights=st.lists(st.sampled_from([0.3, 0.5, 0.8, 1.0]), min_size=5, max_size=5),
)
def test_index_matches_the_reference(db, weights):
    # Each sequence gets the reference's key order, pairs and frontier, and
    # keeps its stored pair exactly where the reference does. Equal frontier
    # entries and frontiers are one object within a call, and a second call
    # shares none of them.
    wt = WeightTable(dict(zip(DB_ITEMS, weights)))
    shared = {}
    want = [reference_index_sequence(seq, wt.entries, shared) for seq in db.sequences]
    pdb, _ = preprocess(db, wt)
    for seq, ref, got in zip(db.sequences, want, pdb):
        assert list(got.index.items()) == list(ref.index.items())
        assert [pair is seq.index[it] for it, pair in got.index.items()] == [
            pair is seq.index[it] for it, pair in ref.index.items()
        ]
        assert got.frontier == ref.frontier
    stored = {}
    for got in pdb:
        for obj in (got.frontier, *got.frontier):
            assert stored.setdefault(obj, obj) is obj
    firsts = {id(obj) for obj in stored.values()}
    for got in preprocess(db, wt)[0]:
        assert not {id(got.frontier), *map(id, got.frontier)} & firsts


def max_weight(cands, weights):
    return max((weights.weight(c.item) for c in cands), default=0.0)


class TestDetermine:
    def test_root_candidates(self, sample_db, sample_weights):
        pdb, _ = preprocess(sample_db, sample_weights)
        cands = slots(pdb, root_projection(pdb))
        by_item = {(c.kind, c.item): c for c in cands}
        assert set(by_item) == {("S", it) for it in "abcdg"}
        # Per-sequence suffix maxima summed; sequence 6 peaks at 0.1 for a.
        assert by_item[("S", "a")].prob_sum == pytest.approx(2.8)
        assert by_item[("S", "b")].prob_sum == pytest.approx(1.4)
        assert by_item[("S", "c")].prob_sum == pytest.approx(2.0)
        assert by_item[("S", "d")].prob_sum == pytest.approx(0.8)
        assert by_item[("S", "g")].prob_sum == pytest.approx(0.5)
        assert max_weight(cands, sample_weights) == 1.0

    def test_projection_after_ac(self, sample_db, sample_weights):
        # Suffixes after the first (a c) event: three non-empty projections,
        # and the best b probabilities are 0.3, 0.3, 0.1. Sequence 5's (a c)
        # ends at its final event's last item, a dead end that stays an entry.
        pdb, _ = preprocess(sample_db, sample_weights)
        proj = project(pdb, root_projection(pdb), "a", "S")
        proj = project(pdb, proj, "c", "I")
        assert len(proj.entries) == 4 and proj.entries[-1] == (4, 3)
        cands = slots(pdb, proj)
        by_item = {(c.kind, c.item): c for c in cands}
        assert by_item[("S", "b")].prob_sum == pytest.approx(0.7)
        assert by_item[("S", "a")].prob_sum == pytest.approx(1.5)

    def test_empty_projection(self, sample_db, sample_weights):
        pdb, _ = preprocess(sample_db, sample_weights)
        proj = root_projection(pdb)
        for item, kind in [("c", "S"), ("a", "S"), ("b", "S"), ("d", "S")]:
            proj = project(pdb, proj, item, kind)
        # Only dead ends are left: each entry sits on its final event's last item.
        assert proj.entries
        for si, ei in proj.entries:
            events = sample_db.sequences[si].events
            assert ei == len(events) - 1 and events[-1].items[-1].item == proj.open_item
        cands = slots(pdb, proj)
        assert cands == [] and max_weight(cands, sample_weights) == 0.0


class TestBounds:
    def test_growth_tree_bound_values(self, sample_db, sample_weights):
        trace = []
        mine_trie(sample_db, sample_weights, 0.2 * 0.7, 1.0, trace=trace)
        caps = {(r.pattern, r.kind): r.exp_sup_cap for r in trace}
        assert caps[(P("(a)"), "S")] == pytest.approx(2.8)
        assert caps[(P("(b)"), "S")] == pytest.approx(1.4)
        assert caps[(P("(c)"), "S")] == pytest.approx(2.0)
        assert caps[(P("(a)(a)"), "S")] == pytest.approx(2.25)
        assert caps[(P("(a)(b)"), "S")] == pytest.approx(1.08)
        assert caps[(P("(a)(c)"), "S")] == pytest.approx(0.90)
        assert caps[(P("(a c)"), "I")] == pytest.approx(1.8)
        assert caps[(P("(a c)(a)"), "S")] == pytest.approx(0.81)
        assert caps[(P("(a c)(b)"), "S")] == pytest.approx(0.378)
        # Weight envelope of (a c): pattern peak is 0.9 but the projected
        # suffixes still reach b (weight 1.0).
        wcaps = {(r.pattern, r.kind): r.wgt_cap for r in trace}
        assert wcaps[(P("(a c)"), "I")] == pytest.approx(1.0)

    def test_maxpr_values(self, sample_db, sample_weights):
        trace = []
        mine_trie(sample_db, sample_weights, 0.2 * 0.7, 1.0, trace=trace)
        maxprs = {r.pattern: r.maxpr for r in trace}
        assert maxprs[P("(c)(a)")] == pytest.approx(0.42)
        assert maxprs[P("(a c)")] == pytest.approx(0.54)
        assert maxprs[P("(a)(c)")] == pytest.approx(0.54)
        assert P("(q)") not in maxprs  # no record for an item the database lacks

    def test_below_threshold_branch_has_no_children(self, sample_db, sample_weights):
        trace = []
        mine_trie(sample_db, sample_weights, 0.2 * 0.7, 1.0, trace=trace)
        generated = {r.pattern for r in trace if r.generated}
        pruned = {r.pattern for r in trace if not r.generated}

        def ancestors(pat):
            out = []
            events = [list(ev) for ev in pat.events]
            while sum(len(e) for e in events) > 1:
                if len(events[-1]) > 1:
                    events[-1].pop()
                else:
                    events.pop()
                out.append(P("".join("(" + " ".join(e) + ")" for e in events)))
            return out

        for pat in generated | pruned:
            for anc in ancestors(pat):
                assert anc in generated  # growth only descends through kept nodes

    def test_top_bound_direction_and_equality(self, sample_db, sample_weights):
        trace = []
        mine_trie(sample_db, sample_weights, 0.2, 1.0, trace=trace)
        roots = {rec.pattern: rec for rec in trace if rec.pattern.length == 1}
        # Looser bound at the root for item a: peak 0.9 over 6 sequences.
        assert roots[P("(a)")].exp_sup_top == pytest.approx(5.4)
        pdb, _ = preprocess(sample_db, sample_weights)
        for c in slots(pdb, root_projection(pdb)):
            rec = roots[single(c.item)]
            assert rec.exp_sup_cap <= rec.exp_sup_top + 1e-12
            if c.seq_count == 1:
                assert rec.exp_sup_top == pytest.approx(rec.exp_sup_cap)

    @pytest.mark.parametrize(
        "min_sup, wgt_fct", [(math.nan, 1.0), (-0.3, 1.0), (0.3, math.nan), (0.3, -1.0)]
    )
    def test_non_finite_or_negative_numbers_rejected(self, sample_db, sample_weights,
                                                     min_sup, wgt_fct):
        with pytest.raises(MiningError):
            mine_trie(sample_db, sample_weights, min_sup, wgt_fct)

    def test_effective_fraction_may_pass_one(self, sample_db, sample_weights):
        # An increment's local mine runs at lwes_factor * min_sup * mu, which can exceed 1.
        trie, stats = mine_trie(sample_db, sample_weights, 1.5, 1.0)
        assert stats.min_wes > 0.0 and trie.pattern_count == stats.survivors

    def test_lemma_chain_on_random_instances(self):
        rng = random.Random(99)
        for _ in range(40):
            db = random_db(rng, max_seqs=8, max_events=5)
            wt = random_weights(rng)
            trace = []
            trie, stats = mine_trie(db, wt, rng.choice([0.2, 0.3, 0.4]), 1.0, trace=trace)
            for rec in trace:
                # Tight bound never under actual support, never over the loose bound.
                assert rec.exp_sup_cap >= oracle_exp_sup(rec.pattern, db) - 1e-9
                assert rec.exp_sup_cap <= rec.exp_sup_top + 1e-12
            generated = [r for r in trace if r.generated]
            by_pattern = {r.pattern: r for r in generated}
            for rec in generated:
                for other in generated:
                    if _grows_from(other.pattern, rec.pattern):
                        assert rec.wgt_cap >= s_weight(other.pattern, wt) - 1e-12
            # Lemma 5 shape: the candidate set contains every true pattern.
            truth = {sp.pattern for sp in oracle_mine(db, wt, stats.min_wes)}
            assert truth <= set(by_pattern)


def _grows_from(desc, anc):
    events = [list(ev) for ev in desc.events]
    target = [list(ev) for ev in anc.events]
    while events != target:
        if len(events[-1]) > 1:
            events[-1].pop()
        elif len(events) > 1:
            events.pop()
        else:
            return False
    return True


def gen_slack(db, acc):
    """The ``fuws`` module docstring's generation slack for ``db``."""
    return 1.0 + 4 * (db.size + acc.freq_sum + 2) * 2.0**-53


def unpruned_trace(db, wt, min_sup, bound):
    """Reference growth: every level bounds every item of the full index, and
    wgt_cap is the largest weight over all of the level's candidates.
    Returns the records and the threshold."""
    pdb, acc = preprocess(db, wt)
    min_wes = Thresholds.compute(min_sup, db.size, acc.wam, 1.0, 1.0).min_wes
    slack = gen_slack(db, acc)
    records = []

    def grow(proj, prefix, maxpr, mxw):
        cands = slots(pdb, proj)
        wgt_cap = max([mxw] + [wt.weight(c.item) for c in cands])
        for cand in cands:
            cap = maxpr * cand.prob_sum
            top = maxpr * cand.prob_max * cand.seq_count
            est = (cap if bound == "cap" else top) * wgt_cap
            generated = est * slack >= min_wes - EPS
            pat = extend(prefix, cand.item, cand.kind) if prefix else single(cand.item)
            records.append(BoundRecord(pat, cand.kind, maxpr * cand.prob_max, cap, top, wgt_cap,
                                       est, generated))
            child = project(pdb, proj, cand.item, cand.kind) if generated else None
            if child and child.entries:
                grow(child, pat, maxpr * cand.prob_max, max(mxw, wt.weight(cand.item)))

    grow(root_projection(pdb), None, 1.0, 0.0)
    return records, min_wes


@settings(max_examples=150, deadline=None)
@given(
    db=databases(),
    weights=st.lists(st.sampled_from([0.3, 0.5, 0.8, 1.0]), min_size=5, max_size=5),
    min_sup=st.sampled_from([0.1, 0.2, 0.3, 0.5]),
    bound=st.sampled_from(["cap", "top"]),
)
def test_trace_leaves_the_mine_unchanged(db, weights, min_sup, bound):
    # With a trace list growth builds a pattern for every bounded slot, and
    # without one only for the generated ones; the mine must not tell.
    wt = WeightTable(dict(zip(DB_ITEMS, weights)))
    trace = []
    traced_trie, traced = mine_trie(db, wt, min_sup, 1.0, bound=bound, trace=trace)
    trie, plain = mine_trie(db, wt, min_sup, 1.0, bound=bound)
    assert traced_trie.snapshot() == trie.snapshot()
    assert (traced.candidates, traced.false_positives, traced.min_wes) == (
        plain.candidates, plain.false_positives, plain.min_wes
    )
    assert traced.candidates == sum(r.generated for r in trace)
    assert traced.bounded == plain.bounded == len(trace)


@settings(max_examples=150, deadline=None)
@given(
    db=databases() | databases(last_min_size=2),
    weights=st.lists(st.sampled_from([0.3, 0.5, 0.8, 1.0]), min_size=5, max_size=5),
    min_sup=st.sampled_from([0.1, 0.2, 0.3, 0.5]),
)
def test_traced_maxpr_bounds_every_sequences_best_embedding(db, weights, min_sup):
    # maxpr multiplies each step's peak remaining probability, so no
    # embedding of the pattern in any sequence has a larger product.
    wt = WeightTable(dict(zip(DB_ITEMS, weights)))
    trace = []
    mine_trie(db, wt, min_sup, 1.0, trace=trace)
    assert trace
    for rec in trace:
        for seq in db.sequences:
            assert rec.maxpr >= max_pr_dynamic(rec.pattern, seq) - 1e-12


@settings(max_examples=150, deadline=None)
@given(
    db=databases() | databases(last_min_size=2),
    weights=st.lists(st.sampled_from([0.3, 0.5, 0.8, 1.0]), min_size=5, max_size=5),
    min_sup=st.sampled_from([0.1, 0.2, 0.3, 0.5]),
    bound=st.sampled_from(["cap", "top"]),
)
def test_mine_matches_unpruned_reference_growth(db, weights, min_sup, bound):
    # Bounding only the items a node inherits, with wgt_cap read off the
    # frontiers, changes no candidate, threshold, verified wes or bound.
    wt = WeightTable(dict(zip(DB_ITEMS, weights)))
    trace = []
    trie, stats = mine_trie(db, wt, min_sup, 1.0, bound=bound, trace=trace)
    records, min_wes = unpruned_trace(db, wt, min_sup, bound)
    generated = [r.pattern for r in records if r.generated]
    ref = USeqTrie()
    for pat in generated:
        ref.insert(pat)
    sup_calc(ref, db, wt)
    false_positives = ref.prune_below(min_wes)
    assert trie.snapshot() == ref.snapshot()
    assert (stats.candidates, stats.false_positives, stats.min_wes) == (
        len(generated), false_positives, min_wes
    )
    assert {r.pattern for r in trace if r.generated} == set(generated)
    by_pattern = {r.pattern: r for r in records}
    assert all(by_pattern[r.pattern] == r for r in trace)  # wgt_cap and maxpr included


@settings(max_examples=150, deadline=None)
@given(
    db=databases() | databases(last_min_size=2),
    weights=st.lists(st.sampled_from([0.3, 0.5, 0.8, 1.0]), min_size=5, max_size=5),
    min_sup=st.sampled_from([0.1, 0.2, 0.3, 0.5]),
    bound=st.sampled_from(["cap", "top"]),
)
def test_ruled_out_candidates_are_below_the_floor(db, weights, min_sup, bound):
    # Growth rules out a generated candidate whose cap support bound times
    # its mean item weight, with the generation slack, is below the floor.
    # It is never scanned, so its brute-force wes must miss the floor too.
    wt = WeightTable(dict(zip(DB_ITEMS, weights)))
    trace = []
    _, stats = mine_trie(db, wt, min_sup, 1.0, bound=bound, trace=trace)
    slack = gen_slack(db, stats.wam_acc)
    ruled_out = []
    for rec in trace:
        own = rec.exp_sup_cap * s_weight(rec.pattern, wt) * slack
        if rec.generated and not meets(own, stats.min_wes):
            ruled_out.append(rec.pattern)
    for pat in ruled_out:
        wes = sum(max_pr_dynamic(pat, seq) * s_weight(pat, wt) for seq in db.sequences)
        assert not meets(wes, stats.min_wes)
    assert len(ruled_out) == stats.ruled_out


def min_sup_at(floor, size, wam):
    """A ``min_sup`` whose floor ``min_wes - EPS`` over ``size`` sequences is
    exactly ``floor``."""
    min_sup = (floor + EPS) / (size * wam)
    for _ in range(100):
        got = Thresholds.compute(min_sup, size, wam, 1.0, 1.0).min_wes - EPS
        if got == floor:
            return min_sup
        min_sup = math.nextafter(min_sup, -math.inf if got > floor else math.inf)
    raise AssertionError(f"no min_sup puts the floor on {floor!r}")


# (0.2 + 0.29) * 0.9 rounds one ulp below 0.2 * 0.9 + 0.29 * 0.9, the
# verified wes of (a); the tests below put the floor exactly on the latter.
TIE_WES = 0.2 * 0.9 + 0.29 * 0.9


def test_root_candidate_at_the_floor_is_reported(tmp_path):
    # b (weight 1.0) lifts wgt_cap, so (a) is generated, and only the
    # rounding margin keeps its own bound from ruling it out.
    db = db_from_text(tmp_path, "a:0.2 b:0.01 -1 -2\na:0.29 -1 -2\n")
    wt = WeightTable({"a": 0.9, "b": 1.0})
    wes = TIE_WES
    min_sup = min_sup_at(wes, 2, (2 * 0.9 + 1.0) / 3)
    trace = []
    trie, stats = mine_trie(db, wt, min_sup, 1.0, trace=trace)
    rec = next(r for r in trace if r.pattern == P("(a)"))
    assert rec.generated
    assert rec.exp_sup_cap * 0.9 < stats.min_wes - EPS == wes
    assert stats.ruled_out == 0
    assert patterns_by_key(trie.collect(stats.min_wes)) == {P("(a)"): wes}


def test_every_bound_generates_a_root_candidate_at_the_floor(tmp_path):
    # With (a) the heaviest item, its generate test reads the same
    # one-ulp-low product; the generation slack must keep it.
    db = db_from_text(tmp_path, "a:0.2 -1 -2\na:0.29 -1 -2\n")
    wt = WeightTable({"a": 0.9})
    min_sup = min_sup_at(TIE_WES, 2, 0.9)
    for bound in ("cap", "top", "exact"):
        trie, stats = mine_trie(db, wt, min_sup, 1.0, bound=bound)
        assert stats.min_wes - EPS == TIE_WES
        assert dict(trie.patterns()) == {P("(a)"): TIE_WES}, bound


def test_scan_gets_only_live_subtrees(sample_db, sample_weights, monkeypatch):
    scanned = []

    def scan(trie, db, weights):
        scanned.append(trie.snapshot().splitlines())
        sup_calc(trie, db, weights)

    monkeypatch.setattr(fuws, "sup_calc", scan)
    trie, stats = mine_trie(sample_db, sample_weights, 0.14, 1.0, bound="top")
    assert stats.ruled_out > 0
    assert stats.false_positives >= stats.ruled_out
    (lines,) = scanned
    depths = [int(line.split()[0]) for line in lines] + [0]
    leaves = [line for i, line in enumerate(lines) if depths[i + 1] <= depths[i]]
    assert leaves and all(line.split()[3] == "0.0" for line in leaves)
    assert len(lines) < stats.candidates
    # A '-' node without a child is refused by the reader.
    assert USeqTrie.from_snapshot(trie.snapshot()).snapshot() == trie.snapshot()


@pytest.mark.parametrize("bound", ["cap", "top"])
def test_root_pruning_keeps_every_generated_bound(bound):
    rng = random.Random(4040)
    dropped = 0
    for _ in range(200):
        db = random_db(rng, max_seqs=10)
        wt = random_weights(rng)
        min_sup = rng.choice([0.1, 0.2, 0.3, 0.4])
        trace = []
        mine_trie(db, wt, min_sup, 1.0, bound=bound, trace=trace)
        want = {r.pattern: r for r in unpruned_trace(db, wt, min_sup, bound)[0]}
        got = {r.pattern: r for r in trace}
        assert len(got) == len(trace)
        # Every record left is bit-identical, and so is every generated one.
        assert all(want.get(pat) == rec for pat, rec in got.items())
        generated = {p for p, r in got.items() if r.generated}
        assert generated == {p for p, r in want.items() if r.generated}
        # The root level is bounded on the full index.
        assert {p: r for p, r in want.items() if p.length == 1} == {
            p: r for p, r in got.items() if p.length == 1
        }
        # A record is missing only where a node's parent did not generate its
        # item: the reference holds a record, not generated, of the same item
        # extending a proper prefix of the node.
        by_steps = {_steps(p): r for p, r in want.items()}
        for pat in want.keys() - got.keys():
            assert not want[pat].generated
            *node, (_, item) = _steps(pat)
            assert any(
                not rec.generated
                for k in range(len(node))
                for kind in "SI"
                if (rec := by_steps.get((*node[:k], (kind, item)))) is not None
            )
            dropped += 1
    assert dropped > 0


def _steps(pat):
    """A pattern as its chain of (kind, item) extensions from the root."""
    return tuple(("I" if k else "S", it) for ev in pat.events for k, it in enumerate(ev))


@pytest.mark.parametrize("bound", ["cap", "top"])
def test_nodes_bound_only_what_their_parent_generated(bound):
    # Below the root a node's records extend it only by its parent's
    # generated S-items, plus its parent's generated I-items when the node
    # is an I-extension; the root's children read the root's S-items.
    rng = random.Random(4041)
    checked = 0
    for _ in range(100):
        db = random_db(rng, max_seqs=10)
        wt = random_weights(rng)
        trace = []
        mine_trie(db, wt, rng.choice([0.1, 0.2, 0.3]), 1.0, bound=bound, trace=trace)
        generated = {}
        for rec in trace:
            if rec.generated:
                *node, step = _steps(rec.pattern)
                generated.setdefault(tuple(node), set()).add(step)
        for rec in trace:
            *node, (_, item) = _steps(rec.pattern)
            if not node:
                continue  # the root level is bounded on the full index
            *parent, (node_kind, _) = node
            inherited = generated[tuple(parent)]
            assert ("S", item) in inherited or node_kind == "I" and ("I", item) in inherited
            checked += 1
    assert checked


class TestFuws:
    def test_golden_result_set(self, sample_db, sample_weights):
        trie, stats = mine_trie(sample_db, sample_weights, 0.2 * 0.7, 1.0)
        got = patterns_by_key(trie.collect(stats.min_wes))
        want = {
            P("(a)"): 2.24,
            P("(b)"): 1.4,
            P("(c)"): 1.8,
            P("(a)(a)"): 1.03,
            P("(a c)"): 1.02,
        }
        assert set(got) == set(want)
        for pat, wes in want.items():
            assert got[pat] == pytest.approx(wes, abs=0.01)

    def test_huge_threshold_gives_nothing(self, sample_db, sample_weights):
        trie, stats = mine_trie(sample_db, sample_weights, 1.0, 1.0)
        assert trie.collect(stats.min_wes) == []

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(1234)
        for _ in range(60):
            db = random_db(rng)
            wt = random_weights(rng)
            min_sup = rng.choice([0.1, 0.2, 0.3, 0.4, 0.5])
            trie, stats = mine_trie(db, wt, min_sup, 1.0)
            got = patterns_by_key(trie.collect(stats.min_wes))
            want = patterns_by_key(oracle_mine(db, wt, stats.min_wes))
            assert set(got) == set(want)
            for pat, wes in want.items():
                assert got[pat] == pytest.approx(wes, abs=1e-9)

    def test_untraced_growth_builds_no_pattern(self, sample_db, sample_weights, monkeypatch):
        # Growth adds each candidate under its parent's trie node, so without
        # a trace list it neither builds a Pattern nor walks from the root.
        trie, stats = mine_trie(sample_db, sample_weights, 0.2 * 0.7, 1.0)
        want = patterns_by_key(trie.collect(stats.min_wes))

        def refuse(*args, **kwargs):
            raise AssertionError("called by untraced growth")

        monkeypatch.setattr(fuws, "extend", refuse)
        monkeypatch.setattr(fuws, "single", refuse)
        monkeypatch.setattr(USeqTrie, "insert", refuse)
        trie, stats = mine_trie(sample_db, sample_weights, 0.2 * 0.7, 1.0)
        assert stats.candidates > len(want) > 0
        assert patterns_by_key(trie.collect(stats.min_wes)) == want

    def test_growth_projects_through_the_module_attribute(
        self, sample_db, sample_weights, monkeypatch
    ):
        # ``useqmine.fuws`` names the module, so a patch by its dotted name
        # reaches the ``project`` growth calls: once per candidate below the root.
        calls = []

        def counted(*args):
            calls.append(args)
            return project(*args)

        monkeypatch.setattr("useqmine.fuws.project", counted)
        trie, stats = mine_trie(sample_db, sample_weights, 0.14, 1.0)
        assert len(calls) == stats.candidates > 0
        assert trie.collect(stats.min_wes)

    def test_no_pattern_below_threshold_survives(self, sample_db, sample_weights):
        trie, stats = mine_trie(sample_db, sample_weights, 0.14, 1.0)
        for sp in trie.collect(stats.min_wes):
            assert sp.wes >= stats.min_wes - 1e-9

    def test_top_bound_generates_superset(self):
        rng = random.Random(77)
        for _ in range(20):
            db = random_db(rng, max_seqs=10)
            wt = random_weights(rng)
            min_sup = rng.choice([0.2, 0.3])
            cap_trace, top_trace = [], []
            cap_trie, cap_stats = mine_trie(db, wt, min_sup, 1.0, bound="cap", trace=cap_trace)
            top_trie, top_stats = mine_trie(db, wt, min_sup, 1.0, bound="top", trace=top_trace)
            assert cap_stats.candidates <= top_stats.candidates
            cap_gen = {r.pattern for r in cap_trace if r.generated}
            top_gen = {r.pattern for r in top_trace if r.generated}
            assert cap_gen <= top_gen
            # Both verify against the same truth.
            assert patterns_by_key(cap_trie.collect(cap_stats.min_wes)) == pytest.approx(
                patterns_by_key(top_trie.collect(top_stats.min_wes))
            )


@settings(max_examples=120, deadline=None)
@given(
    db=databases(),
    other=databases(),
    weights=st.lists(st.sampled_from([0.3, 0.5, 0.8, 1.0]), min_size=5, max_size=5),
    min_sup=st.sampled_from([0.1, 0.2, 0.3, 0.5]),
    data=st.data(),
)
def test_known_patterns_are_left_unverified(db, other, weights, min_sup, data):
    # One tracked trie holds some of the mine's own patterns, the other a
    # mine of another database; inserting a pattern leaves its prefixes
    # unstored. Only the exact mine takes tracked tries.
    wt = WeightTable(dict(zip(DB_ITEMS, weights)))
    full_trie, full = mine_trie(db, wt, min_sup, 1.0, bound="exact")
    want = dict(full_trie.patterns())
    mine_own = USeqTrie()
    if want:
        for pat in data.draw(st.lists(st.sampled_from(list(want)), unique=True)):
            mine_own.insert(pat, want[pat])
    mine_other, _ = mine_trie(other, wt, min_sup, 1.0)
    known = {pat for t in (mine_own, mine_other) for pat, _ in t.patterns()}

    trie, stats = mine_trie(db, wt, min_sup, 1.0, bound="exact", tracked=(mine_own, mine_other))
    got = dict(trie.patterns())
    assert not set(got) & known
    # Every other pattern keeps a bit-identical wes.
    assert got == {pat: wes for pat, wes in want.items() if pat not in known}
    assert (stats.candidates, stats.ruled_out) == (full.candidates, full.ruled_out)
    assert stats.survivors == len(got)
    assert stats.known + stats.false_positives + stats.survivors == stats.candidates
    assert full.known == 0


@settings(max_examples=150, deadline=None)
@given(
    db=databases() | databases(last_min_size=2),
    weights=st.lists(st.sampled_from([0.3, 0.5, 0.8, 1.0]), min_size=5, max_size=5),
    min_sup=st.sampled_from([0.1, 0.2, 0.3, 0.5]),
)
@example(  # (a)(a) is below the floor, but its test must pass: a failing one
    # drops a below (a) and (b), and (a c)(a), (b c)(a) and (a b c)(a) are
    # frequent. Capped by its own anchor, after which nothing is left, instead
    # of by its parent's, where c is still left, the test fails.
    db=UncertainDatabase((USequence([[("a", 1.0), ("b", 1.0), ("c", 1.0)], [("a", 0.25)]]),)),
    weights=[0.3, 0.3, 0.8, 1.0, 1.0],
    min_sup=0.2,
)
def test_exact_rows_store_what_the_scan_verifies(db, weights, min_sup):
    # Exact rows give each candidate the wes the verify scan gives, so the
    # exact mine stores what cap and top store, from fewer candidates, with
    # no scan and nothing ruled out; tracing changes none of it.
    wt = WeightTable(dict(zip(DB_ITEMS, weights)))
    trace, cap_trace = [], []
    exact_trie, exact = mine_trie(db, wt, min_sup, 1.0, bound="exact", trace=trace)
    cap_trie, _ = mine_trie(db, wt, min_sup, 1.0, trace=cap_trace)
    top_trie, _ = mine_trie(db, wt, min_sup, 1.0, bound="top")
    got = dict(exact_trie.patterns())
    assert got == dict(cap_trie.patterns()) == dict(top_trie.patterns())
    assert exact_trie.snapshot() == cap_trie.snapshot()
    generated = {r.pattern for r in trace if r.generated}
    assert generated <= {r.pattern for r in cap_trace if r.generated}
    assert (exact.candidates, exact.ruled_out, exact.known) == (len(generated), 0, 0)
    assert exact.known + exact.false_positives + exact.survivors == exact.candidates
    assert exact.survivors == len(got)
    plain_trie, plain = mine_trie(db, wt, min_sup, 1.0, bound="exact")
    assert plain_trie.snapshot() == exact_trie.snapshot()
    assert (plain.candidates, plain.bounded) == (exact.candidates, len(trace))
    # Rows are built exactly where the pretest, traced as ``exp_sup_cap``,
    # passes, and a candidate is generated exactly where the weight-capped
    # bound that decided, ``exp_sup_w``, does; exact frames have no wgt_cap.
    slack = gen_slack(db, preprocess(db, wt)[1])
    floor = exact.min_wes - EPS
    assert [r.exp_sup is not None for r in trace] == [r.exp_sup_cap * slack >= floor for r in trace]
    assert [r.generated for r in trace] == [r.exp_sup_w * slack >= floor for r in trace]
    assert all(r.wgt_cap is None for r in trace)


@settings(max_examples=150, deadline=None)
@given(db=databases(items="abc") | databases(last_min_size=2, items="abc"))
def test_exact_row_maxima_match_every_reference(db):
    # Mined alone, a sequence's exact expected support for a pattern is its
    # row maximum: the best embedding probability, which sup_calc (at mean
    # weight 1.0), max_pr_dynamic and the enumerating oracle all give.
    ones = WeightTable(dict.fromkeys("abc", 1.0))
    for seq in db.sequences:
        if all(len(ks) == 1 for ks, _ in seq.index.values()):
            continue  # only sequences that repeat an item
        trace = []
        mine_trie(UncertainDatabase((seq,)), ones, 0.05, 1.0, bound="exact", trace=trace)
        for rec in trace:
            if rec.exp_sup is None:
                continue
            ref = USeqTrie()
            ref.insert(rec.pattern)
            sup_calc(ref, UncertainDatabase((seq,)), ones)
            assert rec.exp_sup == ref.get_wes(rec.pattern)
            assert rec.exp_sup == pytest.approx(max_pr_dynamic(rec.pattern, seq), rel=1e-12)
            assert rec.exp_sup == pytest.approx(oracle_max_pr_s(rec.pattern, seq), rel=1e-12)
