"""Static miner for weighted frequent sequences in an uncertain database.

Pipeline: rewrite each item probability as the max over that item's remaining
occurrences in its sequence, grow candidate patterns depth-first while an
upper bound on weighted expected support clears the threshold, then verify,
with one scan of the original database, every candidate its own bound cannot
rule out, and drop the rest.

A preprocessed sequence is only its stored item index with the probabilities
rewritten: each item maps to the ascending positions of the events holding it
(the stored tuple, shared) and its suffix-max probability at each, and the
items run by (last position, item), latest first. Growth is a pseudo-projection
over that index (as in PrefixSpan): a projection entry is a (sequence, event)
anchor, and ``determine`` reads each item's best remaining probability with
one bisect and stops at the first item not left after the anchor (event,
open item). It returns one raw slot per extension, ``[prob_sum, prob_max,
entries]``, and builds no object for it: growth bounds each slot where it
lies, and only a generated extension gets a trie node, added under its
parent's. Growth projects it over its slot's entries alone, so ``project``
touches only sequences that still hold the item and re-anchors each with one
bisect. Without a trace list, growth builds no ``Pattern`` at all.

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
Both bounds are computed in one place, the loop of ``_grow``.

A candidate's own bound is est_sup, under either bound, times its own mean
item weight m (the float the scan's plan computes), much tighter than ``est``.
A generated candidate whose own bound times ``slack`` is below the floor
``min_wes - EPS`` is ruled out: growth still counts and grows it (a descendant
can be heavier), but stores it as a prefix-only node, which no scan verifies.

The margin: the bound is (sum of p) * m and the verified wes the sum of
best * m, equal in real arithmetic at the root. With u = 2**-53, n sequences
and L items, the float bound (L - 1 products in maxpr, n - 1 sums, two more
products) is at least (1 - u)**(n + L) times the real one, and the verified
sum (L roundings per term, n - 1 sums, in any order) at most
(1 + u)**(n + L - 1) times the real wes. ``slack = 1 + 4(n + L + 2)u``, exact
in binary, covers their ratio, about 1 + 2(n + L)u, and its own product's
rounding, so a ruled-out candidate misses the floor when verified too.

``bound="exact"`` carries exact embedding rows through growth, as
``sup_calc`` builds them per sequence: the ascending events where the
pattern can end and the best embedding probability ending at each. A slot
its cap bound generates gets its rows (``_extend_rows``), and es, the sum of
their maxima, is the extension's expected support; its wes comes out bit for
bit as the scan's, so an exact mine verifies nothing and rules nothing out.
Each row's first event, the earliest where the pattern ends and never before
``project``'s anchor, anchors the extension's projection entry, so an exact
frame is never projected. The extension is generated when ``es * wgt_cap *
slack`` meets the floor. A descendant D of length L has, per sequence, a
best value no larger than the row's maximum, in floats too, as each of its
values is a row value times probabilities of at most 1, and a real mean item
weight of at most ``wgt_cap``. Its float wes (L - 1 sums of weights, one
division, one product per term and n - 1 sums) is at most (1 + u)**(n + L)
times ``wgt_cap`` times the real sum of row maxima, and the float test value
(n - 1 sums, two products) at least (1 - u)**(n + 1) times its real value.
An embedding maps each item of D to its own occurrence, so L is at most M,
the most items one sequence holds, and ``slack = 1 + 4(n + M + 2)u`` covers
the ratio, about 1 + (2n + L + 1)u: the test never drops an extension whose
subtree holds a pattern the scan would store.

Below the root, a node bounds only the items its parent generated: the
parent's generated S-items, plus its generated I-items when the node is an
I-extension, as PrefixSpan drops infrequent items from every projected
database; ``prune_index`` is the root's case. This is exact. Below a node P,
maxpr, each entry's best remaining probability for an item b, the entries (a
subset, in the same order) and ``est_wgt`` can only shrink, and float ``+``,
``*`` and ``max`` are monotone, so no descendant bounds b higher than P's
S-slot for b did, or, along an I-only chain, P's I-slot. Items without a slot
still count towards ``est_wgt``, the heaviest item left in the projected
suffixes: each sequence keeps a frontier of the items that can be that one,
as (weight, last position, item), heaviest first, and growth reads it only
while the node's slots weigh less than its parent's ``est_wgt``.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

from .model import (
    EPS,
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
    single,
)
from .trie import USeqTrie, sup_calc

Bound = str  # "cap" (tight, default), "top" (classic, for benchmarks) or "exact"


@dataclass(slots=True)
class PSequence:
    # Item -> (ascending positions of the events holding it, the item's
    # suffix-max probability at each position), ordered by (the item's last
    # position, the item), latest first.
    index: dict[ItemId, tuple[tuple[int, ...], tuple[float, ...]]]
    # The final event's position and largest item: an anchor on that item
    # there has nothing left to extend into.
    last_event: int
    last_item: ItemId
    # The items, pruned or not, that can be the heaviest one left in a
    # suffix, as (weight, last position, item), heaviest first.
    frontier: tuple[tuple[float, int, ItemId], ...]


# The input database as per-sequence item indexes of suffix-max probabilities.
PreprocessedDB = tuple[PSequence, ...]


# A projection entry (seq, event) anchors sequence ``seq`` at event ``event``,
# which holds the projection's ``open_item`` as its last matched item. Items
# ascend inside an event, so the open event's remainder is its items after
# ``open_item``. Root entries use event -1 so the scan starts at the first event.
Entry = tuple[int, int]


class ProjectedDB(NamedTuple):
    entries: Sequence[Entry]
    # Last (max) item of the open final itemset; ascending itemsets make it
    # the only ordering constraint an i-extension has to respect.
    open_item: ItemId | None


@dataclass
class BoundRecord:
    """One evaluated extension, kept when a trace list is supplied.

    The root level records every item. Below it, a node records only the
    extensions by items its parent generated: the parent's generated
    S-items, plus its generated I-items when the node is an I-extension.
    ``maxpr`` is the extension's maxpr: its prefix's maxpr (1.0 at the root)
    times the item's peak remaining probability over the projection, the
    factor its children's bounds start from. ``exp_sup`` is the
    extension's exact expected support where ``exact`` built its rows (for
    each extension its cap bound generates), and None otherwise.
    """

    pattern: Pattern
    kind: ExtKind
    maxpr: float
    exp_sup_cap: float
    exp_sup_top: float
    wgt_cap: float
    generated: bool
    exp_sup: float | None = None


@dataclass
class MineStats:
    db_size: int = 0
    # The database's WAM sums; ``init_mining`` seeds its state from them.
    wam_acc: WamAccumulator = field(default_factory=WamAccumulator)
    min_wes: float = 0.0
    bounded: int = 0  # (kind, item) slots bounded: all at the root, inherited ones below
    candidates: int = 0
    false_positives: int = 0
    ruled_out: int = 0  # false positives settled by their own bound, with no scan; 0 under exact
    known: int = 0  # candidates a ``known`` trie stores, left unverified
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
    shared: dict = {}  # equal frontiers and their entries, stored once
    return tuple(_index_sequence(s, weights.entries, shared) for s in db.sequences), acc


def _index_sequence(seq: USequence, weight: dict[ItemId, float], shared: dict) -> PSequence:
    items = sorted(seq.index.items(), key=lambda kv: (kv[1][0][-1], kv[0]), reverse=True)
    index = {  # an item occurring once keeps its stored pair
        item: occ if len(occ[0]) == 1 else (occ[0], tuple(accumulate(reversed(occ[1]), max))[::-1])
        for item, occ in items
    }
    # An item is left in a suffix when its (last, item) is after the anchor's
    # (event, open_item), so only one heavier than every item after it can
    # be the heaviest one left. The frontier keeps those.
    frontier = []
    for item, (ks, _) in items:
        w = weight[item]
        if not frontier or w > frontier[-1][0]:
            frontier.append((w, ks[-1], item))
    frontier = tuple(frontier[::-1])
    stored = shared.get(frontier)
    if stored is None:
        stored = shared[frontier] = tuple([shared.setdefault(entry, entry) for entry in frontier])
    return PSequence(index, seq.n_events - 1, items[0][0], stored)


def prune_index(pdb: PreprocessedDB, keep: set[ItemId]) -> None:
    """Drop every item outside ``keep`` from each sequence's index, in place
    and in order; the frontiers keep every item. Rebuilding each dict in
    place, rather than building a second index, keeps peak memory flat."""
    for seq in pdb:
        kept = [(item, occ) for item, occ in seq.index.items() if item in keep]
        if len(kept) < len(seq.index):
            seq.index.clear()
            seq.index.update(kept)


def root_projection(pdb: PreprocessedDB) -> ProjectedDB:
    return ProjectedDB(tuple((i, -1) for i in range(len(pdb))), None)


def determine(
    pdb: PreprocessedDB, proj: ProjectedDB, alive: set[ItemId] | None = None
) -> dict[ExtKind, dict[ItemId, list]]:
    """The extension slots of a projection: for "I" and for "S", in that
    order, each item -> ``[prob_sum, prob_max, entries]``.

    Each entry's index is read once, with one bisect per item, and only up
    to the first item not left after the anchor, one whose (last position,
    item) is not after the anchor's (event, ``open_item``). An S-slot takes
    the item's suffix max at its first event after the anchor. An I-slot,
    only for items after ``open_item``, takes the suffix max at the anchor
    event when the item is there, and the S value otherwise. Every item of
    the index left in the remaining suffixes gets a slot, or, given
    ``alive``, every such item in ``alive``. ``prob_sum`` sums those values
    over the projection and ``prob_max`` is their largest.

    ``entries`` are the entries a slot was read from, in projection order.
    Those are exactly the entries ``project`` can keep for that extension:
    an S-slot's hold the item after the anchor event, and an I-slot's hold
    it in the anchor event (after ``open_item``, as it is larger) or later.
    Growth therefore projects an extension over its slot's entries, and gets
    the same child projection as over all of them.
    """
    s_acc: defaultdict[ItemId, list] = defaultdict(lambda: [0.0, 0.0, []])
    i_acc: defaultdict[ItemId, list] = defaultdict(lambda: [0.0, 0.0, []])
    open_item = proj.open_item
    for entry in proj.entries:
        si, ei = entry
        for it, (ks, ps) in pdb[si].index.items():
            last = ks[-1]
            if last <= ei and (last < ei or it <= open_item):
                break  # not left after the anchor, and neither is any later item
            if alive is not None and it not in alive:
                continue
            if last > ei:
                j = bisect_right(ks, ei)
                p = ps[j]
                slot = s_acc[it]
                slot[0] += p
                slot[2].append(entry)
                if p > slot[1]:
                    slot[1] = p
                if j and ks[j - 1] == ei:
                    p = ps[j - 1]
            else:
                p = ps[-1]  # the item last occurs in the anchor event
            if open_item is not None and it > open_item:
                slot = i_acc[it]
                slot[0] += p
                slot[2].append(entry)
                if p > slot[1]:
                    slot[1] = p
    return {"I": i_acc, "S": s_acc}


def project(pdb: PreprocessedDB, proj: ProjectedDB, item: ItemId, kind: ExtKind) -> ProjectedDB:
    """Re-anchor each entry at the first qualifying occurrence of ``item``.

    After the suffix-max rewrite the first occurrence carries the largest
    remaining probability, and its suffix contains every later anchor, so
    nothing reachable is lost. Entries with an empty remaining suffix drop.

    The occurrence is found by bisecting the item's event positions: an
    I-extension first takes the item inside the open event when it sorts
    after ``open_item``, otherwise the first event after the anchor.
    Growth passes only a candidate's own entries (see ``determine``), so
    every sequence it reads holds the item; any other lacking it costs one
    dict miss.
    """
    out: list[Entry] = []
    open_item = proj.open_item
    for si, ei in proj.entries:
        seq = pdb[si]
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
    known: Sequence[USeqTrie] = (),
) -> tuple[USeqTrie, MineStats]:
    """Full pipeline. Returns the verified trie and run statistics.

    Ruled-out candidates never reach the scan; ``false_positives`` counts them.
    Under ``bound="exact"`` growth gives every candidate its wes, so no scan
    runs and no candidate is ruled out; it stores what ``"cap"`` stores.
    A candidate that any ``known`` trie stores, and no bound ruled out, is
    left unstored too, as a prefix-only node: the result stores none of
    them, ``known`` counts them and ``survivors`` leaves them out. Every
    other pattern gets the wes it gets without ``known``.

    ``min_sup`` is the effective support fraction: callers wanting a
    semi-frequent buffer pass min_sup * mu. It has no upper bound, because an
    increment's local mine runs at lwes_factor * min_sup * mu.
    """
    check_positive("min_sup", min_sup)
    check_positive("wgt_fct", wgt_fct)
    if bound not in ("cap", "top", "exact"):
        raise MiningError(f"unknown bound {bound!r}")
    stats = MineStats(db_size=db.size)
    t0 = time.perf_counter()
    pdb, stats.wam_acc = preprocess(db, weights)
    min_wes = Thresholds.compute(min_sup, db.size, stats.wam, wgt_fct, 1.0).min_wes
    stats.min_wes = min_wes
    trie = USeqTrie()
    _grow(pdb, db.sequences, weights, min_wes, bound, trie, stats, trace)
    stats.grow_ms = (time.perf_counter() - t0) * 1000.0
    t1 = time.perf_counter()
    if known:
        stats.known = _unstore_known(trie, known)
    if bound != "exact":
        # Candidates are stored at wes 0.0, so the scan leaves each at its exact wes.
        trie.prune_below(-math.inf)  # the unverified prefixes left childless
        sup_calc(trie, db, weights)
    stats.false_positives = stats.ruled_out + trie.prune_below(min_wes)
    stats.survivors = stats.candidates - stats.false_positives - stats.known
    stats.verify_ms = (time.perf_counter() - t1) * 1000.0
    return trie, stats


def _unstore_known(trie: USeqTrie, known: Sequence[USeqTrie]) -> int:
    """Make each pattern ``trie`` stores that a ``known`` trie stores too a
    prefix-only node, walking the tries side by side; returns how many."""
    count = 0
    stack = [(trie.root, [t.root for t in known])]
    while stack:
        node, others = stack.pop()
        for key, child in node.children.items():
            matched = [o for o in (other.children.get(key) for other in others) if o is not None]
            if not matched:
                continue
            if child.wes is not None and any(o.wes is not None for o in matched):
                child.wes = None
                count += 1
            if child.children:
                stack.append((child, matched))
    return count


def _grow(
    pdb: PreprocessedDB,
    seqs: Sequence[USequence],
    weights: WeightTable,
    min_wes: float,
    bound: Bound,
    trie: USeqTrie,
    stats: MineStats,
    trace: list[BoundRecord] | None,
) -> None:
    """Grow every candidate into ``trie``, depth-first from the root.

    A frame on the stack is one generated extension waiting to be grown: its
    entries and their ``open_item``, its trie node (which holds its item and
    kind), its maxpr, largest item weight, item weight sum and length, its
    pattern (only with a trace list), the items it inherits (see the module
    docstring), its parent's ``wgt_cap`` and, under ``exact``, its rows. The
    root frame's node is the trie's root. Under ``cap`` and ``top`` a frame
    holds its slot's entries, and popping it projects them, so projection
    happens only when a subtree is grown; an ``exact`` frame holds entries
    its rows already anchored (``_extend_rows``). Every frame then bounds
    each slot ``determine`` finds among the inherited items, I-items then
    S-items, each in item order. Each generated one is stored as a child of
    the frame's node and becomes a frame: under ``exact`` with its wes,
    otherwise as a prefix only when its own bound rules it out. The frames
    go on the stack in reverse, so the first is grown first. The stack is
    explicit, so a long pattern cannot hit Python's recursion limit.
    ``preprocess`` has looked up every item's weight, so the weight table is
    read directly.
    """
    weight = weights.entries
    root = trie.root
    exact = bound == "exact"
    cap_bound = bound != "top"
    floor = min_wes - EPS  # what ``meets`` compares with
    if exact:  # the module docstring's generation slack
        most = max((sum(len(ks) for ks, _ in s.index.values()) for s in seqs), default=0)
        exact_slack = 1.0 + 4 * (len(pdb) + most + 2) * 2.0**-53
    # The root frame's limit 0.0 skips the frontiers: every item has a slot there.
    stack = [(root_projection(pdb).entries, None, root, 1.0, 0.0, 0.0, 0, None, None, 0.0, None)]
    while stack:
        entries, open_item, node, maxpr, mxw, wsum, length, prefix, alive, limit, rows = stack.pop()
        proj = ProjectedDB(entries, open_item)
        if node is not root and not exact:
            proj = project(pdb, proj, node.item, node.kind)
        if not proj.entries:
            continue
        slots = determine(pdb, proj, alive)
        # The heaviest item left in the projected suffixes, with or without a
        # slot: the slots' items give a floor, each entry's frontier the rest,
        # and no node's exceeds its parent's (``limit``).
        wgt_cap = max([mxw] + [weight[item] for acc in slots.values() for item in acc])
        if wgt_cap < limit:
            for si, ei in proj.entries:
                for w, last, it in pdb[si].frontier:
                    if w <= wgt_cap:
                        break
                    if last > ei or (last == ei and it > proj.open_item):
                        wgt_cap = w
                        break
                if wgt_cap == limit:
                    break
        length += 1  # the children's pattern length
        slack = 1.0 + 4 * (len(pdb) + length + 2) * 2.0**-53  # the module docstring's margin
        # What the children inherit, filled as they are generated: the
        # S-items generated here, and for an I-child also the I-items. The
        # root level is bounded on the full index; its children read an index
        # pruned to the items they inherit.
        alive_s: set[ItemId] = set()
        alive_i: set[ItemId] = set()
        frames = []
        for kind, acc in slots.items():
            stats.bounded += len(acc)
            inherit = None if node is root else alive_i if kind == "I" else alive_s
            for item in sorted(acc):
                prob_sum, prob_max, entries = acc[item]
                sup = maxpr * prob_sum
                est = (sup if cap_bound else maxpr * prob_max * len(entries)) * wgt_cap
                generated = est >= floor
                es = None
                if generated:
                    w = weight[item]
                    cw = wsum + w
                    if exact:
                        es, wes, anchors, child_rows = _extend_rows(
                            pdb, seqs, node.item, rows, kind, item, entries, cw / length
                        )
                        generated = es * wgt_cap * exact_slack >= floor
                pat = None
                if trace is not None:
                    pat = extend(prefix, item, kind) if prefix is not None else single(item)
                    top = maxpr * prob_max * len(entries)
                    trace.append(BoundRecord(pat, kind, maxpr * prob_max, sup, top, wgt_cap,
                                             generated, es))
                if generated:
                    child = trie.add_child(node, kind, item)
                    if exact:
                        child.wes = wes
                        entries, child_open = anchors, item
                    else:
                        child_rows, child_open = None, proj.open_item
                        if sup * (cw / length) * slack < floor:
                            child.wes = None  # ruled out: a prefix only
                            stats.ruled_out += 1
                    alive_i.add(item)
                    if kind == "S":
                        alive_s.add(item)
                    frames.append((entries, child_open, child, maxpr * prob_max,
                                   mxw if mxw > w else w, cw, length, pat, inherit, wgt_cap,
                                   child_rows))
        stats.candidates += len(frames)
        if node is root:
            prune_index(pdb, alive_s)
        stack.extend(reversed(frames))


def _extend_rows(
    pdb: PreprocessedDB,
    seqs: Sequence[USequence],
    parent: ItemId | None,
    rows: dict[int, tuple] | None,
    kind: ExtKind,
    item: ItemId,
    entries: Sequence[Entry],
    mean: float,
) -> tuple[float, float, list[Entry], dict[int, tuple] | None]:
    """The exact rows of a pattern extended by ``(kind, item)`` over its
    slot's ``entries``: returns the extension's expected support, its wes
    (its mean item weight ``mean``), its projection entries and its rows.

    A row is ``(positions, values)`` for one sequence: the ascending events
    where the pattern can end and the best embedding probability ending at
    each. ``rows`` maps each sequence of the pattern's projection to its
    row. It is None for a root child, whose rows are the raw stored index of
    its item, ``parent``. A child of the root itself (``parent`` None) takes
    its raw index as its rows, whose maximum is the rewritten index's first
    value, so nothing is built. Below the root the step is ``sup_calc``'s: an
    S-step scores each occurrence of ``item`` by the running max of the
    row's values at earlier events, an I-step by the row's value at the same
    event. The sums add one best value per sequence in sequence order, as
    ``sup_calc`` does, so the wes is the one its scan gives, bit for bit. A
    new row's first event anchors the extension's projection entry, which
    drops, as ``project`` drops it, when it is the final event's last item.
    """
    es = wes = 0.0
    anchors: list[Entry] = []
    child_rows: dict[int, tuple] | None = None if parent is None else {}
    s_step = kind == "S"
    for si, _ in entries:
        pseq = pdb[si]
        if parent is None:
            ks, ps = pseq.index[item]
            best, first = ps[0], ks[0]
        else:
            seq = seqs[si]
            end = (seq.n_events, 0.0)  # past every position
            rest = zip(*(seq.index[parent] if rows is None else rows[si]))
            pos, val = next(rest)
            positions: list[int] = []
            values: list[float] = []
            best = run = 0.0
            ks, ps = seq.index[item]
            for k, p in zip(ks, ps):
                while pos < k:
                    if val > run:
                        run = val
                    pos, val = next(rest, end)
                b = run if s_step else val if pos == k else 0.0
                if b > 0.0:
                    v = p * b
                    if v > best:
                        best = v
                    positions.append(k)
                    values.append(v)
            if best <= 0.0:
                continue
            first = positions[0]
        es += best
        wes += best * mean
        if first != pseq.last_event or item != pseq.last_item:
            anchors.append((si, first))
            if child_rows is not None:
                child_rows[si] = (positions, values)
    return es, wes, anchors, child_rows


def fuws(
    db: UncertainDatabase, weights: WeightTable, min_sup: float, wgt_fct: float
) -> list[ScoredPattern]:
    """Mine the weighted frequent set at the given effective support fraction."""
    trie, stats = mine_trie(db, weights, min_sup, wgt_fct)
    return trie.collect(stats.min_wes)

