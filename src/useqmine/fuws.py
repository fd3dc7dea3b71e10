"""Static miner for weighted frequent sequences in an uncertain database.

Pipeline: rewrite each item probability as the max over that item's remaining
occurrences in its sequence, grow candidate patterns depth-first while an
upper bound on weighted expected support clears the threshold, then verify
every candidate with one scan of the original database and drop the rest.

Both hot steps read sequences by item (``model.item_index``): each
preprocessed sequence keeps, per item, the ascending positions of the events
holding it, so ``project`` re-anchors an entry with one bisect and skips a
sequence lacking the item with one dict miss; ``sup_calc`` visits only the
trie children whose item the sequence holds.

The bound for extending a prefix with item b is::

    est_sup = maxpr(prefix) * sum over projected sequences of b's best
              remaining probability
    est_wgt = max item weight reachable in the projected suffixes or already
              in the pattern
    est     = est_sup * est_wgt

est_sup never undershoots the true expected support of the extension or of
any deeper pattern on that branch, and est_wgt never undershoots a deeper
pattern's mean item weight, so pruning on ``est`` loses nothing. A looser
classic bound (``exp_support_top``) is kept for benchmark comparison.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field

from .model import (
    ExtKind,
    ItemId,
    MiningError,
    Pattern,
    ScoredPattern,
    UncertainDatabase,
    WeightTable,
    extend,
    item_index,
    meets,
    single,
)
from .trie import USeqTrie, sup_calc

Bound = str  # "cap" (tight, default) or "top" (classic, for benchmarks)


@dataclass(frozen=True)
class PEvent:
    items: tuple[ItemId, ...]
    probs: tuple[float, ...]


@dataclass(frozen=True)
class PSequence:
    events: tuple[PEvent, ...]
    # Item -> ascending positions of the events that hold it, read off
    # ``item_index``; ``project`` bisects these.
    positions: dict[ItemId, tuple[int, ...]] = field(compare=False, repr=False)


@dataclass(frozen=True)
class PreprocessedDB:
    """Input database with per-item suffix-max probabilities, events sorted."""

    sequences: tuple[PSequence, ...]


# A projection entry (seq, ev, it) points just past the last matched item:
# position ``it`` inside event ``ev`` of sequence ``seq``. Root entries use
# ev == -1 so the scan starts at the first event.
Entry = tuple[int, int, int]


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
    weight: float


@dataclass
class BoundRecord:
    """One evaluated extension, kept when a trace list is supplied."""

    pattern: Pattern
    kind: ExtKind
    exp_sup_cap: float
    exp_sup_top: float
    wgt_cap: float
    generated: bool


@dataclass
class MineStats:
    db_size: int = 0
    wam: float = 0.0
    min_wes: float = 0.0
    candidates: int = 0
    false_positives: int = 0
    survivors: int = 0
    grow_ms: float = 0.0
    verify_ms: float = 0.0


def preprocess(db: UncertainDatabase, weights: WeightTable) -> tuple[PreprocessedDB, float]:
    """Suffix-max probability rewrite plus the weighted mean of item weights.

    The mean is frequency-weighted over item occurrences in the database and
    feeds the support threshold.
    """
    sequences: list[PSequence] = []
    wsum = 0.0
    fsum = 0
    for seq in db.sequences:
        best: dict[ItemId, float] = {}
        rewritten: list[PEvent] = []
        for ev in reversed(seq.events):
            items = tuple(pi.item for pi in ev.items)
            probs = []
            for pi in ev.items:
                b = best.get(pi.item, 0.0)
                if pi.prob > b:
                    b = pi.prob
                best[pi.item] = b
                probs.append(b)
            rewritten.append(PEvent(items, tuple(probs)))
        rewritten.reverse()
        positions = {it: tuple([k for k, _ in occ]) for it, occ in item_index(seq).items()}
        sequences.append(PSequence(tuple(rewritten), positions))
        for ev in seq.events:
            for pi in ev.items:
                wsum += weights.weight(pi.item)
                fsum += 1
    if fsum == 0:
        return PreprocessedDB(()), 0.0
    return PreprocessedDB(tuple(sequences)), wsum / fsum


def root_projection(pdb: PreprocessedDB) -> ProjectedDB:
    return ProjectedDB(tuple((i, -1, 0) for i in range(len(pdb.sequences))), None)


def determine(
    pdb: PreprocessedDB, proj: ProjectedDB, weights: WeightTable
) -> tuple[list[ExtensionCandidate], float]:
    """Extension candidates of a projection, plus the max item weight seen.

    S-candidates take each sequence's best probability over events strictly
    after the open one. I-candidates consider the open event's remainder and
    all later events, restricted to items sorting after the last open item.
    The returned max weight covers every item occurring in the suffixes.
    """
    acc: dict[tuple[ExtKind, ItemId], list] = {}  # [sum, max, count]
    seen: set[ItemId] = set()
    open_item = proj.open_item
    for si, ei, ii in proj.entries:
        events = pdb.sequences[si].events
        s_best: dict[ItemId, float] = {}
        i_best: dict[ItemId, float] = {}
        if ei >= 0:
            ev = events[ei]
            for idx in range(ii, len(ev.items)):
                it = ev.items[idx]
                seen.add(it)
                p = ev.probs[idx]
                if open_item is not None and it > open_item and p > i_best.get(it, 0.0):
                    i_best[it] = p
        for k in range(ei + 1, len(events)):
            ev = events[k]
            for it, p in zip(ev.items, ev.probs):
                seen.add(it)
                if p > s_best.get(it, 0.0):
                    s_best[it] = p
                if open_item is not None and it > open_item and p > i_best.get(it, 0.0):
                    i_best[it] = p
        for kind, bests in (("S", s_best), ("I", i_best)):
            for it, p in bests.items():
                slot = acc.get((kind, it))
                if slot is None:
                    acc[(kind, it)] = [p, p, 1]
                else:
                    slot[0] += p
                    if p > slot[1]:
                        slot[1] = p
                    slot[2] += 1
    mxw_db = max((weights.weight(it) for it in seen), default=0.0)
    cands = [
        ExtensionCandidate(item, kind, s[0], s[1], s[2], weights.weight(item))
        for (kind, item), s in sorted(acc.items())
    ]
    return cands, mxw_db


def project(pdb: PreprocessedDB, proj: ProjectedDB, item: ItemId, kind: ExtKind) -> ProjectedDB:
    """Re-anchor each entry at the first qualifying occurrence of ``item``.

    After the suffix-max rewrite the first occurrence carries the largest
    remaining probability, and its suffix contains every later anchor, so
    nothing reachable is lost. Entries with an empty remaining suffix drop.

    The occurrence is found by bisecting the item's event positions in the
    sequence's index: an I-extension first takes the item inside the open
    event (at or after the anchor), otherwise the first event after it.
    Sequences that lack the item cost one dict miss.
    """
    out: list[Entry] = []
    sequences = pdb.sequences
    for si, ei, ii in proj.entries:
        seq = sequences[si]
        ks = seq.positions.get(item)
        if ks is None:
            continue
        events = seq.events
        j = bisect_right(ks, ei)
        k = -1
        if kind == "I" and j and ks[j - 1] == ei:
            idx = events[ei].items.index(item)
            if idx >= ii:
                k = ei
        if k < 0:
            if j == len(ks):
                continue
            k = ks[j]
            idx = events[k].items.index(item)
        if idx + 1 >= len(events[k].items) and k == len(events) - 1:
            continue  # nothing left to extend into
        out.append((si, k, idx + 1))
    # The extension item ends the open itemset under either edge kind.
    return ProjectedDB(tuple(out), item)


def exp_support_top(
    prefix_maxpr: float, item: ItemId, pdb: PreprocessedDB, proj: ProjectedDB, kind: ExtKind = "S"
) -> float:
    """Classic looser support bound: prefix maxpr x item's peak prob x support."""
    cands, _ = determine(pdb, proj, _UNIT_WEIGHTS)
    for cand in cands:
        if cand.item == item and cand.kind == kind:
            return prefix_maxpr * cand.prob_max * cand.seq_count
    return 0.0


class _UnitWeights:
    entries: dict = {}

    @staticmethod
    def weight(item: ItemId) -> float:
        return 1.0


_UNIT_WEIGHTS = _UnitWeights()


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
    semi-frequent buffer pass min_sup * mu.
    """
    if bound not in ("cap", "top"):
        raise MiningError(f"unknown bound {bound!r}")
    stats = MineStats(db_size=db.size)
    t0 = time.perf_counter()
    pdb, wam = preprocess(db, weights)
    stats.wam = wam
    min_wes = min_sup * db.size * wam * wgt_fct
    stats.min_wes = min_wes
    trie = USeqTrie()
    if pdb.sequences:
        _grow(pdb, root_projection(pdb), None, 1.0, 0.0, min_wes, trie, stats, bound, trace, weights)
    stats.grow_ms = (time.perf_counter() - t0) * 1000.0
    t1 = time.perf_counter()
    trie.reset_wes()
    sup_calc(trie, db, weights)
    stats.false_positives = trie.prune_below(min_wes)
    stats.survivors = stats.candidates - stats.false_positives
    stats.verify_ms = (time.perf_counter() - t1) * 1000.0
    return trie, stats


def _grow(
    pdb: PreprocessedDB,
    proj: ProjectedDB,
    prefix: Pattern | None,
    maxpr: float,
    mxw: float,
    min_wes: float,
    trie: USeqTrie,
    stats: MineStats,
    bound: Bound,
    trace: list[BoundRecord] | None,
    weights: WeightTable,
) -> None:
    cands, mxw_db = determine(pdb, proj, weights)
    for cand in cands:
        cap = maxpr * cand.prob_sum
        top = maxpr * cand.prob_max * cand.seq_count
        wgt_cap = mxw_db if mxw_db > mxw else mxw
        est = (cap if bound == "cap" else top) * wgt_cap
        generated = meets(est, min_wes)
        if trace is None and not generated:
            continue
        pat = extend(prefix, cand.item, cand.kind) if prefix is not None else single(cand.item)
        if trace is not None:
            trace.append(BoundRecord(pat, cand.kind, cap, top, wgt_cap, generated))
        if not generated:
            continue
        trie.insert(pat, est)
        stats.candidates += 1
        child = project(pdb, proj, cand.item, cand.kind)
        if child.entries:
            _grow(
                pdb,
                child,
                pat,
                maxpr * cand.prob_max,
                mxw if mxw > cand.weight else cand.weight,
                min_wes,
                trie,
                stats,
                bound,
                trace,
                weights,
            )


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
        cands, _ = determine(pdb, proj, _UNIT_WEIGHTS)
        hit = next((c for c in cands if c.item == item and c.kind == kind), None)
        if hit is None:
            return 0.0
        maxpr *= hit.prob_max
        proj = project(pdb, proj, item, kind)
    return maxpr
