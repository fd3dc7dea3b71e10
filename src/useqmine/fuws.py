"""Static miner for weighted frequent sequences in an uncertain database.

Pipeline: rewrite each item probability as the max over that item's remaining
occurrences in its sequence, grow candidate patterns depth-first while an
upper bound on weighted expected support clears the threshold, then verify
every candidate with one scan of the original database and drop the rest.

A preprocessed sequence is only its item index, read off
``model.item_index``: each item maps to the ascending positions of the events
holding it and its suffix-max probability at each, and the items run by
their last position, latest first. Growth is a pseudo-projection over that
index (as in PrefixSpan): a projection entry is a (sequence, event) anchor,
``determine`` reads each item's best remaining probability with one bisect
and stops at the first item whose last occurrence lies before the anchor,
and ``project`` re-anchors with one bisect and skips a sequence lacking the
item with one dict miss.

The bound for extending a prefix with item b is::

    est_sup = maxpr(prefix) * sum over projected sequences of b's best
              remaining probability
    est_wgt = max item weight reachable in the projected suffixes or already
              in the pattern
    est     = est_sup * est_wgt

est_sup never undershoots the true expected support of the extension or of
any deeper pattern on that branch, and est_wgt never undershoots a deeper
pattern's mean item weight, so pruning on ``est`` loses nothing. The classic
looser bound ``top`` puts ``maxpr * peak prob * projected support`` in place
of ``est_sup``; ``mine_trie(bound="top")`` keeps it for benchmark comparison.
Both bounds are computed in one place, ``_Growth.level``.

After the root level, every item whose single-item pattern was not generated
leaves the index (``prune_index``), as PrefixSpan drops infrequent items
before it projects. This is exact: below the root ``maxpr <= 1``, each
entry's best probability for b is at most its sequence's maximum, the entries
are a subset of the sequences in the same order, and ``est_wgt`` is at most
the root's. Float ``+``, ``*`` and ``max`` are monotone, so under either
bound no extension by b gets a larger ``est`` than the pattern (b) got at the
root, and a dropped item is never generated below it. Dropped items still
count towards ``est_wgt``: each sequence records those that can be the
heaviest one left in a suffix, as (weight, last position, item), heaviest
first, and growth looks for one left in the projected suffixes only while
the live candidates' largest weight is below the heaviest dropped one.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections import defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import accumulate

from .model import (
    ExtKind,
    ItemId,
    MiningError,
    Pattern,
    ScoredPattern,
    Thresholds,
    UncertainDatabase,
    USequence,
    WamAccumulator,
    WeightTable,
    check_positive,
    extend,
    item_index,
    meets,
    single,
)
from .trie import USeqTrie, sup_calc

Bound = str  # "cap" (tight, default) or "top" (classic, for benchmarks)


@dataclass(slots=True)
class PSequence:
    # Item -> (ascending positions of the events holding it, the item's
    # suffix-max probability at each position), ordered by the item's last
    # position, latest first.
    index: dict[ItemId, tuple[tuple[int, ...], tuple[float, ...]]]
    # The final event's position and largest item: an anchor on that item
    # there has nothing left to extend into.
    last_event: int
    last_item: ItemId
    # Items ``prune_index`` dropped from ``index`` that can be the heaviest
    # one left in a suffix, as (weight, last position, item), heaviest first.
    pruned: tuple[tuple[float, int, ItemId], ...] = ()


@dataclass
class PreprocessedDB:
    """Input database as per-sequence item indexes of suffix-max probabilities."""

    sequences: tuple[PSequence, ...]
    pruned_max: float = 0.0  # the largest weight of a pruned item, 0.0 if none


# A projection entry (seq, event) anchors sequence ``seq`` at event ``event``,
# which holds the projection's ``open_item`` as its last matched item. Items
# ascend inside an event, so the open event's remainder is its items after
# ``open_item``. Root entries use event -1 so the scan starts at the first event.
Entry = tuple[int, int]


@dataclass(frozen=True)
class ProjectedDB:
    entries: tuple[Entry, ...]
    # Last (max) item of the open final itemset; ascending itemsets make it
    # the only ordering constraint an i-extension has to respect.
    open_item: ItemId | None


@dataclass(frozen=True)
class ExtensionCandidate:
    item: ItemId
    kind: ExtKind
    prob_sum: float  # sum over projected sequences of the item's best prob
    prob_max: float  # max of those per-sequence bests
    seq_count: int  # projected sequences where the item occurs at valid spots


@dataclass
class BoundRecord:
    """One evaluated extension, kept when a trace list is supplied.

    The root level records every item. Below the root, records exist only
    for extensions by items that were not pruned after the root level.
    """

    pattern: Pattern
    kind: ExtKind
    exp_sup_cap: float
    exp_sup_top: float
    wgt_cap: float
    generated: bool


@dataclass
class MineStats:
    db_size: int = 0
    # The database's WAM sums; ``init_mining`` seeds its state from them.
    wam_acc: WamAccumulator = field(default_factory=WamAccumulator)
    min_wes: float = 0.0
    candidates: int = 0
    false_positives: int = 0
    survivors: int = 0
    grow_ms: float = 0.0
    verify_ms: float = 0.0

    @property
    def wam(self) -> float:
        return self.wam_acc.wam


def preprocess(
    db: UncertainDatabase, weights: WeightTable
) -> tuple[PreprocessedDB, WamAccumulator]:
    """Suffix-max probability rewrite plus the database's WAM sums.

    The accumulator's frequency-weighted mean of item weights feeds the
    support threshold.
    """
    acc = WamAccumulator()
    acc.add(db, weights)
    return PreprocessedDB(tuple(_index_sequence(seq) for seq in db.sequences)), acc


def _index_sequence(seq: USequence) -> PSequence:
    index = {}
    for item, occ in sorted(item_index(seq).items(), key=lambda kv: -kv[1][-1][0]):
        ks, probs = zip(*occ)
        index[item] = (ks, tuple(accumulate(reversed(probs), max))[::-1])
    return PSequence(index, len(seq.events) - 1, seq.events[-1].items[-1].item)


def prune_index(pdb: PreprocessedDB, keep: set[ItemId], weights: WeightTable) -> None:
    """Drop every item outside ``keep`` from each sequence's index, in place.

    The kept items stay in order. Each sequence records its dropped items in
    ``pruned`` and the database the largest dropped weight, so growth can
    still bound the weight left in a projected suffix. Rebuilding each dict
    in place, rather than building a second index, keeps peak memory flat.
    """
    for seq in pdb.sequences:
        kept = []
        dropped = []
        for item, occ in seq.index.items():
            if item in keep:
                kept.append((item, occ))
            else:
                dropped.append((weights.weight(item), occ[0][-1], item))
        if not dropped:
            continue
        seq.index.clear()
        seq.index.update(kept)
        # Heaviest first and, among equal weights, the latest (last, item)
        # first. An item is left in a suffix exactly when its (last, item)
        # is after the anchor's (event, open_item), so one no heavier and no
        # later than an item recorded before it is never the heaviest one
        # left, and is not recorded.
        dropped.sort(reverse=True)
        pruned = [dropped[0]]
        for entry in dropped:
            if entry[1:] > pruned[-1][1:]:
                pruned.append(entry)
        seq.pruned = tuple(pruned)
        if pruned[0][0] > pdb.pruned_max:
            pdb.pruned_max = pruned[0][0]


def root_projection(pdb: PreprocessedDB) -> ProjectedDB:
    return ProjectedDB(tuple((i, -1) for i in range(len(pdb.sequences))), None)


def determine(pdb: PreprocessedDB, proj: ProjectedDB) -> list[ExtensionCandidate]:
    """Extension candidates of a projection, in (kind, item) order.

    Each entry's index is read once, with one bisect per item, and only up
    to the first item whose last occurrence lies before the anchor. An
    S-candidate takes the item's suffix max at its first event after the
    anchor. An I-candidate, only for items after ``open_item``, takes the
    suffix max at the anchor event when the item is there, and the S value
    otherwise. Every item of the index occurring in the remaining suffixes is
    a candidate.
    """
    s_acc: defaultdict[ItemId, list] = defaultdict(lambda: [0.0, 0.0, 0])  # sum, max, count
    i_acc: defaultdict[ItemId, list] = defaultdict(lambda: [0.0, 0.0, 0])
    open_item = proj.open_item
    sequences = pdb.sequences
    for si, ei in proj.entries:
        for it, (ks, ps) in sequences[si].index.items():
            last = ks[-1]
            if last < ei:
                break  # so is every later item's
            if last > ei:
                j = bisect_right(ks, ei)
                p = ps[j]
                slot = s_acc[it]
                slot[0] += p
                slot[2] += 1
                if p > slot[1]:
                    slot[1] = p
                if j and ks[j - 1] == ei:
                    p = ps[j - 1]
            else:
                p = ps[-1]  # the item last occurs in the anchor event
            if open_item is not None and it > open_item:
                slot = i_acc[it]
                slot[0] += p
                slot[2] += 1
                if p > slot[1]:
                    slot[1] = p
    return [
        ExtensionCandidate(item, kind, *slot)
        for kind, acc in (("I", i_acc), ("S", s_acc))
        for item, slot in sorted(acc.items())
    ]


def project(pdb: PreprocessedDB, proj: ProjectedDB, item: ItemId, kind: ExtKind) -> ProjectedDB:
    """Re-anchor each entry at the first qualifying occurrence of ``item``.

    After the suffix-max rewrite the first occurrence carries the largest
    remaining probability, and its suffix contains every later anchor, so
    nothing reachable is lost. Entries with an empty remaining suffix drop.

    The occurrence is found by bisecting the item's event positions: an
    I-extension first takes the item inside the open event when it sorts
    after ``open_item``, otherwise the first event after the anchor.
    Sequences that lack the item cost one dict miss.
    """
    out: list[Entry] = []
    sequences = pdb.sequences
    open_item = proj.open_item
    for si, ei in proj.entries:
        seq = sequences[si]
        occ = seq.index.get(item)
        if occ is None:
            continue
        ks = occ[0]
        j = bisect_right(ks, ei)
        if kind == "I" and j and ks[j - 1] == ei and item > open_item:
            k = ei
        elif j < len(ks):
            k = ks[j]
        else:
            continue
        if k == seq.last_event and item == seq.last_item:
            continue  # nothing left to extend into
        out.append((si, k))
    # The extension item ends the open itemset under either edge kind.
    return ProjectedDB(tuple(out), item)


def mine_trie(
    db: UncertainDatabase,
    weights: WeightTable,
    min_sup: float,
    wgt_fct: float,
    bound: Bound = "cap",
    trace: list[BoundRecord] | None = None,
) -> tuple[USeqTrie, MineStats]:
    """Full pipeline. Returns the verified trie and run statistics.

    ``min_sup`` is the effective support fraction: callers wanting a
    semi-frequent buffer pass min_sup * mu. It has no upper bound, because an
    increment's local mine runs at lwes_factor * min_sup * mu.
    """
    check_positive("min_sup", min_sup)
    check_positive("wgt_fct", wgt_fct)
    if bound not in ("cap", "top"):
        raise MiningError(f"unknown bound {bound!r}")
    stats = MineStats(db_size=db.size)
    t0 = time.perf_counter()
    pdb, stats.wam_acc = preprocess(db, weights)
    min_wes = Thresholds.compute(min_sup, db.size, stats.wam, wgt_fct, 1.0).min_wes
    stats.min_wes = min_wes
    trie = USeqTrie()
    if pdb.sequences:
        growth = _Growth(pdb, weights, min_wes, bound, trie, stats, trace)
        root = root_projection(pdb)
        # The root level is bounded on the full index. No item it did not
        # generate can be generated below it (see the module docstring).
        first = list(growth.level(root, None, 1.0, 0.0))
        prune_index(pdb, {cand.item for cand, *_ in first}, weights)
        growth.grow(root, first)
    stats.grow_ms = (time.perf_counter() - t0) * 1000.0
    t1 = time.perf_counter()
    # Candidates are stored at wes 0.0, so the scan leaves each at its exact wes.
    sup_calc(trie, db, weights)
    stats.false_positives = trie.prune_below(min_wes)
    stats.survivors = stats.candidates - stats.false_positives
    stats.verify_ms = (time.perf_counter() - t1) * 1000.0
    return trie, stats


# A generated extension: its candidate, its pattern, and the pattern's maxpr
# and largest item weight, which its own extensions start from.
Generated = tuple[ExtensionCandidate, Pattern, float, float]


@dataclass
class _Growth:
    """What every level of one depth-first growth shares."""

    pdb: PreprocessedDB
    weights: WeightTable
    min_wes: float
    bound: Bound
    trie: USeqTrie
    stats: MineStats
    trace: list[BoundRecord] | None

    def level(
        self, proj: ProjectedDB, prefix: Pattern | None, maxpr: float, mxw: float
    ) -> Iterator[Generated]:
        """Bound every extension of ``proj``; insert and yield the generated ones.

        Lazy, so a generated pattern's subtree can grow before its next
        sibling is bounded.
        """
        pdb = self.pdb
        weight = self.weights.weight
        cands = determine(pdb, proj)
        mxw_db = max((weight(c.item) for c in cands), default=0.0)
        wgt_cap = mxw_db if mxw_db > mxw else mxw
        if wgt_cap < pdb.pruned_max:
            wgt_cap = _pruned_weight(pdb, proj, wgt_cap)
        for cand in cands:
            cap = maxpr * cand.prob_sum
            top = maxpr * cand.prob_max * cand.seq_count
            est = (cap if self.bound == "cap" else top) * wgt_cap
            generated = meets(est, self.min_wes)
            if self.trace is None and not generated:
                continue
            pat = extend(prefix, cand.item, cand.kind) if prefix is not None else single(cand.item)
            if self.trace is not None:
                self.trace.append(BoundRecord(pat, cand.kind, cap, top, wgt_cap, generated))
            if not generated:
                continue
            self.trie.insert(pat)
            self.stats.candidates += 1
            w = weight(cand.item)
            yield cand, pat, maxpr * cand.prob_max, mxw if mxw > w else w

    def grow(self, proj: ProjectedDB, level: Iterable[Generated]) -> None:
        """Grow each generated extension of ``proj`` depth-first.

        The path from the root is an explicit stack, so a long pattern
        cannot hit Python's recursion limit here.
        """
        stack = [(proj, iter(level))]
        while stack:
            proj, pending = stack[-1]
            for cand, pat, maxpr, mxw in pending:
                child = project(self.pdb, proj, cand.item, cand.kind)
                if child.entries:
                    stack.append((child, self.level(child, pat, maxpr, mxw)))
                    break
            else:
                stack.pop()


def _pruned_weight(pdb: PreprocessedDB, proj: ProjectedDB, floor: float) -> float:
    """The largest weight above ``floor`` of a pruned item left in the projected
    suffixes, or ``floor`` when there is none.

    A pruned item is left when its last occurrence is after the anchor event,
    or in it and after ``open_item``.
    """
    open_item = proj.open_item
    sequences = pdb.sequences
    for si, ei in proj.entries:
        for w, last, item in sequences[si].pruned:
            if w <= floor:
                break
            if last > ei or (last == ei and item > open_item):
                floor = w
                break
    return floor


def fuws(
    db: UncertainDatabase, weights: WeightTable, min_sup: float, wgt_fct: float
) -> list[ScoredPattern]:
    """Mine the weighted frequent set at the given effective support fraction."""
    trie, stats = mine_trie(db, weights, min_sup, wgt_fct)
    return trie.collect(stats.min_wes)


def pattern_max_pr(pdb: PreprocessedDB, pattern: Pattern) -> float:
    """The growth walk's optimistic probability for a pattern (its maxpr).

    Folds the pattern's extension chain over the projection machinery; each
    step multiplies by the extension item's best probability across the
    projected suffixes. Returns 0.0 when the chain dies out.
    """
    proj = root_projection(pdb)
    maxpr = 1.0
    steps: list[tuple[ItemId, ExtKind]] = []
    for ev in pattern.events:
        steps.append((ev[0], "S"))
        steps.extend((it, "I") for it in ev[1:])
    for item, kind in steps:
        hit = next((c for c in determine(pdb, proj) if c.item == item and c.kind == kind), None)
        if hit is None:
            return 0.0
        maxpr *= hit.prob_max
        proj = project(pdb, proj, item, kind)
    return maxpr
