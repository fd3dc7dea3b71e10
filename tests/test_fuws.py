import math
import random

import pytest

from useqmine import (
    BoundRecord,
    MiningError,
    Thresholds,
    WamAccumulator,
    WeightTable,
    determine,
    extend,
    fuws,
    meets,
    mine_trie,
    oracle_exp_sup,
    oracle_mine,
    pattern_max_pr,
    preprocess,
    project,
    root_projection,
    s_weight,
    single,
)
from useqmine.model import item_index

from conftest import P, db_from_text, patterns_by_key, random_db, random_weights


class TestPreprocess:
    def test_wam_of_worked_example(self, sample_db, sample_weights):
        wam = preprocess(sample_db, sample_weights)[1].wam
        assert wam == pytest.approx(27.2 / 31)
        assert wam == pytest.approx(0.88, abs=0.005)

    def test_suffix_max_rewrite(self, tmp_path, sample_weights):
        db = db_from_text(tmp_path, "a:0.3 -1 a:0.9 -1 -2\n")
        pdb, _ = preprocess(db, sample_weights)
        assert pdb.sequences[0].index == {"a": ((0, 1), (0.9, 0.9))}

    def test_nonincreasing_per_item(self, tmp_path, sample_weights):
        rng = random.Random(5)
        db = random_db(rng)
        wt = random_weights(rng)
        pdb, _ = preprocess(db, wt)
        for seq in pdb.sequences:
            for _, ps in seq.index.values():
                assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_identity_when_items_unique(self, tmp_path, sample_weights):
        db = db_from_text(tmp_path, "a:0.3 -1 b:0.9 -1 c:0.2 -1 -2\n")
        pdb, _ = preprocess(db, sample_weights)
        assert pdb.sequences[0].index == {
            "a": ((0,), (0.3,)),
            "b": ((1,), (0.9,)),
            "c": ((2,), (0.2,)),
        }

    def test_shape_preserved(self, sample_db, sample_weights):
        pdb, _ = preprocess(sample_db, sample_weights)
        for seq, pseq in zip(sample_db.sequences, pdb.sequences):
            positions = {it: tuple(k for k, _ in occ) for it, occ in item_index(seq).items()}
            assert {it: ks for it, (ks, _) in pseq.index.items()} == positions
            assert pseq.last_event == len(seq.events) - 1
            assert pseq.last_item == seq.events[-1].items[-1].item

    def test_wam_is_the_accumulator_mean(self, tmp_path):
        # Summing weights per occurrence (0.3 + 0.7 + 0.3) rounds differently
        # from summing freq * weight per item (2 * 0.3 + 0.7); WAM is the latter.
        db = db_from_text(tmp_path, "b:0.5 -1 a:0.5 b:0.5 -1 -2\n")
        wt = WeightTable({"a": 0.7, "b": 0.3})
        acc = WamAccumulator()
        acc.add(db, wt)
        assert acc.wam != (0.3 + 0.7 + 0.3) / 3
        assert preprocess(db, wt)[1].wam == acc.wam


def max_weight(cands, weights):
    return max((weights.weight(c.item) for c in cands), default=0.0)


class TestDetermine:
    def test_root_candidates(self, sample_db, sample_weights):
        pdb, _ = preprocess(sample_db, sample_weights)
        cands = determine(pdb, root_projection(pdb))
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
        # and the best b probabilities are 0.3, 0.3, 0.1.
        pdb, _ = preprocess(sample_db, sample_weights)
        proj = project(pdb, root_projection(pdb), "a", "S")
        proj = project(pdb, proj, "c", "I")
        assert len(proj.entries) == 3
        cands = determine(pdb, proj)
        by_item = {(c.kind, c.item): c for c in cands}
        assert by_item[("S", "b")].prob_sum == pytest.approx(0.7)
        assert by_item[("S", "a")].prob_sum == pytest.approx(1.5)

    def test_empty_projection(self, sample_db, sample_weights):
        pdb, _ = preprocess(sample_db, sample_weights)
        proj = root_projection(pdb)
        for item, kind in [("c", "S"), ("a", "S"), ("b", "S"), ("d", "S")]:
            proj = project(pdb, proj, item, kind)
        assert proj.entries == ()
        cands = determine(pdb, proj)
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
        pdb, _ = preprocess(sample_db, sample_weights)
        assert pattern_max_pr(pdb, P("(c)(a)")) == pytest.approx(0.42)
        assert pattern_max_pr(pdb, P("(a c)")) == pytest.approx(0.54)
        assert pattern_max_pr(pdb, P("(a)(c)")) == pytest.approx(0.54)
        assert pattern_max_pr(pdb, P("(q)")) == 0.0

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
        for c in determine(pdb, root_projection(pdb)):
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


def unpruned_trace(db, wt, min_sup, bound):
    """Reference growth: every level bounds every item of the full index, and
    wgt_cap is the largest weight over all of the level's candidates."""
    pdb, acc = preprocess(db, wt)
    min_wes = Thresholds.compute(min_sup, db.size, acc.wam, 1.0, 1.0).min_wes
    records = []

    def grow(proj, prefix, maxpr, mxw):
        cands = determine(pdb, proj)
        wgt_cap = max([mxw] + [wt.weight(c.item) for c in cands])
        for cand in cands:
            cap = maxpr * cand.prob_sum
            top = maxpr * cand.prob_max * cand.seq_count
            generated = meets((cap if bound == "cap" else top) * wgt_cap, min_wes)
            pat = extend(prefix, cand.item, cand.kind) if prefix else single(cand.item)
            records.append(BoundRecord(pat, cand.kind, cap, top, wgt_cap, generated))
            child = project(pdb, proj, cand.item, cand.kind) if generated else None
            if child and child.entries:
                grow(child, pat, maxpr * cand.prob_max, max(mxw, wt.weight(cand.item)))

    grow(root_projection(pdb), None, 1.0, 0.0)
    return records


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
        want = {r.pattern: r for r in unpruned_trace(db, wt, min_sup, bound)}
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
        pruned = {p.events[0][0] for p, r in want.items() if p.length == 1 and not r.generated}
        for pat in want.keys() - got.keys():
            assert not want[pat].generated
            assert any(it in pruned for ev in pat.events for it in ev)
            dropped += 1
    assert dropped > 0


class TestFuws:
    def test_golden_result_set(self, sample_db, sample_weights):
        got = patterns_by_key(fuws(sample_db, sample_weights, 0.2 * 0.7, 1.0))
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
        assert fuws(sample_db, sample_weights, 1.0, 1.0) == []

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
