"""Property tests for the per-sequence item index behind ``determine``, ``project``
and ``sup_calc``."""

import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from useqmine import (
    MiningError,
    MissingWeightError,
    Pattern,
    ProjectedDB,
    UncertainDatabase,
    USequence,
    USeqTrie,
    WeightTable,
    max_pr_dynamic,
    mine_trie,
    oracle_max_pr_s,
    preprocess,
    project,
    root_projection,
    s_weight,
    sup_calc,
)
from useqmine.fuws import prune_index
from useqmine.model import EPS

from conftest import DB_ITEMS, databases, itemsets, random_db, random_weights, slots

fuws = importlib.import_module("useqmine.fuws")  # the package's ``fuws`` is the function

TRIE_ITEMS = "cdefg"  # overlaps DB_ITEMS only in c, d, e
WEIGHTS = WeightTable({"a": 0.8, "b": 1.0, "c": 0.9, "d": 0.6, "e": 0.7, "f": 0.9, "g": 0.5})


def project_linear(db, proj, item, kind):
    """Reference: forward scan of the raw events for the first qualifying occurrence."""
    out = []
    for si, ei in proj.entries:
        events = [[pi.item for pi in ev.items] for ev in db.sequences[si].events]
        pos = None
        if kind == "I" and ei >= 0 and item in events[ei] and item > proj.open_item:
            pos = ei
        if pos is None:
            pos = next((k for k in range(ei + 1, len(events)) if item in events[k]), None)
        if pos is None or (pos == len(events) - 1 and events[pos][-1] == item):
            continue  # absent, or nothing left to extend into
        out.append((si, pos))
    return ProjectedDB(tuple(out), item)


def suffix_max_events(seq):
    """Each event as (item, prob) pairs, prob raised to the item's max over the rest."""
    best = {}
    rows = []
    for ev in reversed(seq.events):
        for pi in ev.items:
            best[pi.item] = max(best.get(pi.item, 0.0), pi.prob)
        rows.append([(pi.item, best[pi.item]) for pi in ev.items])
    return rows[::-1]


def determine_walk(db, proj):
    """Reference: walk each entry's events in the suffix-max rewrite.

    Returns the candidates as (kind, item, prob_sum, prob_max, seq_count) in
    (kind, item) order, and the set of items seen in the remaining suffixes.
    """
    acc = {}
    seen = set()
    open_item = proj.open_item
    for si, ei in proj.entries:
        events = suffix_max_events(db.sequences[si])
        s_best, i_best = {}, {}
        if ei >= 0:
            for it, p in events[ei]:
                if it > open_item:  # the open event's remainder
                    seen.add(it)
                    i_best[it] = max(i_best.get(it, 0.0), p)
        for ev in events[ei + 1 :]:
            for it, p in ev:
                seen.add(it)
                s_best[it] = max(s_best.get(it, 0.0), p)
                if open_item is not None and it > open_item:
                    i_best[it] = max(i_best.get(it, 0.0), p)
        for kind, bests in (("S", s_best), ("I", i_best)):
            for it, p in bests.items():
                slot = acc.get((kind, it))
                if slot is None:
                    acc[(kind, it)] = [p, p, 1]
                else:
                    slot[0] += p
                    slot[1] = max(slot[1], p)
                    slot[2] += 1
    return [(kind, it, *slot) for (kind, it), slot in sorted(acc.items())], seen


EXTENSIONS = st.tuples(st.sampled_from(DB_ITEMS + "z"), st.sampled_from("SI"))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), db=databases())
def test_project_matches_linear_scan_on_random_entries(data, db):
    pdb, _ = preprocess(db, WEIGHTS)
    entries = []
    for si, seq in enumerate(db.sequences):
        if data.draw(st.booleans()):
            entries.append((si, data.draw(st.integers(-1, len(seq.events) - 1))))
    proj = ProjectedDB(tuple(entries), data.draw(st.sampled_from(DB_ITEMS)))
    item, kind = data.draw(EXTENSIONS)
    assert project(pdb, proj, item, kind) == project_linear(db, proj, item, kind)


@settings(max_examples=150, deadline=None)
@given(db=databases(), chain=st.lists(EXTENSIONS, min_size=1, max_size=5))
def test_project_matches_linear_scan_along_growth_chains(db, chain):
    pdb, _ = preprocess(db, WEIGHTS)
    proj = root_projection(pdb)
    for item, kind in chain:
        want = project_linear(db, proj, item, kind)
        proj = project(pdb, proj, item, kind)
        assert proj == want


@settings(max_examples=150, deadline=None)
@given(data=st.data(), db=databases())
def test_determine_matches_event_walk_along_growth_chains(data, db):
    pdb, _ = preprocess(db, WEIGHTS)
    proj = root_projection(pdb)
    for _ in range(5):
        cands = slots(pdb, proj)
        want, seen = determine_walk(db, proj)
        assert [(c.kind, c.item, c.prob_sum, c.prob_max, c.seq_count) for c in cands] == want
        assert {c.item for c in cands} == seen
        if not cands:
            break
        pick = data.draw(st.sampled_from(cands))
        proj = project(pdb, proj, pick.item, pick.kind)


@settings(max_examples=200, deadline=None)
@given(
    db=databases(last_min_size=2),
    weights=st.lists(st.sampled_from([0.3, 0.5, 0.8, 1.0]), min_size=5, max_size=5),
)
def test_frontier_gives_the_heaviest_item_left_after_any_anchor(db, weights):
    # An anchor (event, open_item) leaves the open event's items after
    # open_item and every later event; the root anchor leaves everything.
    wt = WeightTable(dict(zip(DB_ITEMS, weights)))
    pdb, _ = preprocess(db, wt)
    for seq, pseq in zip(db.sequences, pdb):
        events = [[pi.item for pi in ev.items] for ev in seq.events]
        assert pseq.frontier[0][0] == max(wt.weight(it) for ev in events for it in ev)
        for ei, ev in enumerate(events):
            for open_item in ev:
                left = [it for it in ev if it > open_item] + [it for e in events[ei + 1 :] for it in e]
                want = max((wt.weight(it) for it in left), default=None)
                got = next(
                    (w for w, last, it in pseq.frontier
                     if last > ei or (last == ei and it > open_item)),
                    None,
                )
                assert got == want


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    db=databases(last_min_size=2),
    keep=st.sets(st.sampled_from(DB_ITEMS)),
    alive=st.none() | st.sets(st.sampled_from(DB_ITEMS)),
)
def test_determine_on_pruned_index_matches_event_walk(data, db, keep, alive):
    # Final events of two or more items put I-candidates whose last
    # occurrence is the anchor event itself, where ``determine`` must not
    # stop; with ``alive`` it slots only those items.
    pdb, _ = preprocess(db, WEIGHTS)
    prune_index(pdb, keep)
    for seq in pdb:
        order = [(ks[-1], it) for it, (ks, _) in seq.index.items()]
        assert order == sorted(order, reverse=True)
        assert set(seq.index) <= keep
    proj = root_projection(pdb)
    for _ in range(5):
        cands = slots(pdb, proj, alive)
        want, _ = determine_walk(db, proj)
        got = [(c.kind, c.item, c.prob_sum, c.prob_max, c.seq_count) for c in cands]
        assert got == [w for w in want if w[1] in keep and (alive is None or w[1] in alive)]
        if not cands:
            break
        pick = data.draw(st.sampled_from(cands))
        proj = project(pdb, proj, pick.item, pick.kind)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    db=databases(last_min_size=2),
    keep=st.none() | st.sets(st.sampled_from(DB_ITEMS)),
)
def test_candidates_project_over_their_own_entries(data, db, keep):
    # Growth projects a candidate over its own entries; along any chain, on
    # the whole index or a pruned one, that gives the same child projection
    # as projecting the candidate's whole parent projection.
    pdb, _ = preprocess(db, WEIGHTS)
    if keep is not None:
        prune_index(pdb, keep)
    proj = root_projection(pdb)
    for _ in range(5):
        cands = slots(pdb, proj)
        for c in cands:
            rest = iter(proj.entries)
            assert all(entry in rest for entry in c.entries)  # in order, a subsequence
            assert c.seq_count == len(c.entries)
            own = ProjectedDB(c.entries, proj.open_item)
            assert project(pdb, own, c.item, c.kind) == project(pdb, proj, c.item, c.kind)
        if not cands:
            break
        pick = data.draw(st.sampled_from(cands))
        proj = project(pdb, proj, pick.item, pick.kind)


def test_growth_hands_project_only_the_generated_candidates_entries(monkeypatch):
    rng = random.Random(7)
    db = random_db(rng, max_seqs=30, min_seqs=30, max_events=8)
    weights = random_weights(rng)
    handed = []
    plain = fuws.project

    def counting(pdb, proj, item, kind):
        handed.append(len(proj.entries))
        return plain(pdb, proj, item, kind)

    monkeypatch.setattr(fuws, "project", counting)
    trace = []
    _, stats = mine_trie(db, weights, 0.1, 1.0, trace=trace)
    monkeypatch.undo()
    generated = [r for r in trace if r.generated]
    assert len(handed) == stats.candidates == len(generated) > 10

    # Each generated candidate's seq_count, read off the whole projection of
    # its prefix on the index growth reads below the root.
    pdb, _ = preprocess(db, weights)
    prune_index(pdb, {r.pattern.last_item for r in generated if r.pattern.length == 1})
    want = whole = 0
    for r in generated:
        *prefix, step = [
            (it, "I" if k else "S") for ev in r.pattern.events for k, it in enumerate(ev)
        ]
        proj = root_projection(pdb)
        for item, kind in prefix:
            proj = project(pdb, proj, item, kind)
        cand = next(c for c in slots(pdb, proj) if (c.item, c.kind) == step)
        want += cand.seq_count
        whole += len(proj.entries)
    assert sum(handed) == want < whole


patterns = st.lists(itemsets(TRIE_ITEMS), min_size=1, max_size=3).map(
    lambda evs: Pattern(tuple(evs))
)


@settings(max_examples=150, deadline=None)
@given(db=databases(), pats=st.lists(patterns, min_size=1, max_size=8, unique=True))
def test_sup_calc_matches_dynamic_oracle(db, pats):
    trie = USeqTrie()
    for pat in pats:
        trie.insert(pat)
    sup_calc(trie, db, WEIGHTS)
    for pat in pats:
        for seq in db:
            assert oracle_max_pr_s(pat, seq) == max_pr_dynamic(pat, seq)
        want = sum(max_pr_dynamic(pat, seq) for seq in db) * s_weight(pat, WEIGHTS)
        assert trie.get_wes(pat) == pytest.approx(want, rel=0, abs=1e-9)


def dense_wes(pat, db, weights, wes):
    """Reference: ``wes`` plus the pattern's weighted expected support over
    ``db``, by the dense recurrence ``sup_calc`` kept before its sparse rows.

    Per sequence, each prefix of the pattern has one value per event position:
    the best probability of embedding the prefix with its last item matched
    there. An S-item reads the previous prefix's best value at strictly
    earlier positions, an I-item its value at the same position, and the
    same float operations run in the same order.
    """
    edges = [("I" if k else "S", it) for ev in pat.events for k, it in enumerate(ev)]
    cw = 0.0
    for _, item in edges:
        cw += weights.weight(item)
    for seq in db:
        probs = seq.event_maps()
        ar = before_max = [1.0] * len(probs)
        for kind, item in edges:
            src = before_max if kind == "S" else ar
            ar = [
                pm[item] * b if item in pm and b > 0.0 else 0.0 for pm, b in zip(probs, src)
            ]
            before_max, run = [], 0.0
            for v in ar:
                before_max.append(run)
                if v > run:
                    run = v
        best = max(ar)
        if best > 0.0:
            wes += best * (cw / len(edges))
    return wes


DENSE_ITEMS = "abc"  # few items, so most sequences repeat some across events
wide_patterns = st.lists(itemsets("abcfg"), min_size=1, max_size=4).map(
    lambda evs: Pattern(tuple(evs))
)


@settings(max_examples=200, deadline=None)
@given(
    db=databases(items=DENSE_ITEMS) | databases(max_events=3),
    stored=st.dictionaries(wide_patterns, st.sampled_from([0.0, 0.375, 2.5]), min_size=1, max_size=10),
)
def test_sup_calc_rows_match_dense_recurrence_bit_for_bit(db, stored):
    # Prefixes of stored patterns that are not stored themselves keep a None
    # wes; starting values other than 0.0 are an increment's fold. No drawn
    # sequence holds f or g, so some root children match none; items occur
    # in several events (the dense databases) or often once (the short ones),
    # and I-edges sit below depth 1.
    trie = USeqTrie()
    for pat, wes in stored.items():
        trie.insert(pat, wes)
    sup_calc(trie, db, WEIGHTS)
    for pat, wes in stored.items():
        assert trie.get_wes(pat) == dense_wes(pat, db, WEIGHTS, wes)


class DenseCheckedTrace(list):
    """A trace list that checks each record's exact expected support against
    the dense recurrence (unit weights make the mean item weight exactly 1.0)
    as growth appends it, so a wrong row step fails before growth, which it
    can make endless, runs on."""

    ONES = WeightTable(dict.fromkeys(DENSE_ITEMS, 1.0))

    def __init__(self, db):
        super().__init__()
        self.db = db

    def append(self, rec):
        if rec.exp_sup is not None:
            assert rec.exp_sup == dense_wes(rec.pattern, self.db, self.ONES, 0.0), rec
        super().append(rec)


@settings(max_examples=150, deadline=None)
@given(
    db=databases(items=DENSE_ITEMS) | databases(last_min_size=2, items=DENSE_ITEMS),
    min_sup=st.sampled_from([0.05, 0.1, 0.3]),
)
def test_exact_mine_stores_the_dense_recurrence_bit_for_bit(db, min_sup):
    # The exact mine builds its rows with the step sup_calc uses, so the
    # dense recurrence is the independent reference for both.
    trace = DenseCheckedTrace(db)
    trie, _ = mine_trie(db, WEIGHTS, min_sup, 1.0, bound="exact", trace=trace)
    for pat, wes in trie.patterns():
        assert wes == dense_wes(pat, db, WEIGHTS, 0.0)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    db=databases(last_min_size=2),
    alive=st.none() | st.sets(st.sampled_from(DB_ITEMS)),
)
def test_unit_row_maxima_give_determines_slots(data, db, alive):
    # With every entry's best value 1.0 the exact frames' slot pass is
    # ``determine``'s own, slot for slot.
    pdb, _ = preprocess(db, WEIGHTS)
    proj = root_projection(pdb)
    for _ in range(5):
        want = fuws.determine(pdb, proj, alive)
        assert fuws.determine(pdb, proj, alive, [1.0] * len(proj.entries)) == want
        cands = slots(pdb, proj, alive)
        if not cands:
            break
        pick = data.draw(st.sampled_from(cands))
        proj = project(pdb, proj, pick.item, pick.kind)


@settings(max_examples=150, deadline=None)
@given(
    db=databases(items=DENSE_ITEMS) | databases(last_min_size=2, items=DENSE_ITEMS),
    min_sup=st.sampled_from([0.05, 0.1, 0.3]),
)
def test_row_weighted_bound_drops_no_candidate(db, min_sup):
    # The exact mine bounds slots below the root by their entries' row
    # maxima, not by maxpr; it must still generate every slot cap generates
    # whose expected support passes the exact test, and nothing else.
    cap_trace, exact_trace = [], []
    _, stats = mine_trie(db, WEIGHTS, min_sup, 1.0, trace=cap_trace)
    mine_trie(db, WEIGHTS, min_sup, 1.0, bound="exact", trace=exact_trace)
    slack = 1.0 + 4 * (db.size + stats.wam_acc.freq_sum + 2) * 2.0**-53
    ones = DenseCheckedTrace.ONES
    want = {
        r.pattern for r in cap_trace
        if r.generated and dense_wes(r.pattern, db, ones, 0.0) * r.wgt_cap * slack
        >= stats.min_wes - EPS
    }
    assert {r.pattern for r in exact_trace if r.generated} == want


def tracked_tries(*stored):
    tries = []
    for patterns_wes in stored:
        trie = USeqTrie()
        for pat, wes in patterns_wes.items():
            trie.insert(pat, wes)
        tries.append(trie)
    return tries


@settings(max_examples=200, deadline=None)
@given(
    db=databases(items=DENSE_ITEMS) | databases(max_events=3),
    seq=st.dictionaries(wide_patterns, st.sampled_from([0.0, 0.375, 2.5]), max_size=8),
    pfs=st.dictionaries(wide_patterns, st.sampled_from([0.0, 0.375, 2.5]), max_size=8),
    min_sup=st.sampled_from([0.05, 0.3, 0.8]),
)
def test_exact_mine_folds_tracked_tries_as_sup_calc_does(db, seq, pfs, min_sup):
    # The tracked tries hold patterns no sequence holds (f and g), prefixes
    # that are not stored, I-edges below depth 1 and, mostly at min_sup 0.8,
    # items the root does not generate; each stored wes must come out as
    # ``sup_calc`` leaves it, bit for bit, and the tries keep their shape.
    tries = tracked_tries(seq, {pat: wes for pat, wes in pfs.items() if pat not in seq})
    want = [USeqTrie.from_snapshot(trie.snapshot()) for trie in tries]
    for trie in want:
        sup_calc(trie, db, WEIGHTS)
    # An unweighted tracked item is refused before any wes changes.
    unweighted = USeqTrie.from_snapshot(tries[0].snapshot())
    unweighted.insert(Pattern((("a",), ("z",))), 1.0)
    before = [t.snapshot() for t in (unweighted, tries[1])]
    with pytest.raises(MissingWeightError, match="'z'"):
        mine_trie(db, WEIGHTS, min_sup, 1.0, bound="exact", tracked=(unweighted, tries[1]))
    assert [t.snapshot() for t in (unweighted, tries[1])] == before

    mine_trie(db, WEIGHTS, min_sup, 1.0, bound="exact", tracked=tries)
    assert [trie.snapshot() for trie in tries] == [trie.snapshot() for trie in want]


@pytest.mark.parametrize("bound", ["cap", "top"])
def test_tracked_tries_need_the_exact_bound(bound):
    db = UncertainDatabase((USequence([[("a", 0.5)], [("b", 0.25)]]),))
    (trie,) = tracked_tries({Pattern((("a",), ("b",))): 1.0})
    with pytest.raises(MiningError, match="tracked tries need bound 'exact'"):
        mine_trie(db, WEIGHTS, 0.1, 1.0, bound=bound, tracked=(trie,))
    assert trie.get_wes(Pattern((("a",), ("b",)))) == 1.0
