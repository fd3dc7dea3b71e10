"""Static miner for weighted frequent sequences in an uncertain database.

Pipeline: rewrite each item probability as the max over that item's remaining
occurrences in its sequence, grow candidate patterns depth-first while an
upper bound on weighted expected support clears the threshold, then verify,
with one scan of the original database, every candidate its own bound cannot
rule out, and drop the rest.

A preprocessed sequence is only its stored item index with the probabilities
rewritten: each item maps to the ascending positions of the events holding it
(the stored tuple, shared) and its suffix-max probability at each, and the
items run by (last position, item), latest first. An item whose probabilities
already fall, one occurring once among them, keeps its stored pair object;
nothing may mutate it or rely on its identity. Growth is a pseudo-projection
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

A slot is generated when ``est * gen_slack`` meets the floor ``min_wes -
EPS``. A candidate's own bound is est_sup, under either bound, times its own
mean item weight m (the float the scan's plan computes), much tighter than
``est``. A generated candidate whose own bound times ``gen_slack`` is below
the floor is ruled out: growth still counts and grows it (a descendant can
be heavier), but stores it as a prefix-only node, which no scan verifies.

The margin: with u = 2**-53 and n sequences, a pattern of L items has a
float wes (per term L - 1 products of probabilities, L - 1 sums of weights,
a division and a product; n - 1 sums) at most (1 + u)**(n + 2L) times its
real wes, itself at most the real bound, and a float bound (at most L - 1
products in maxpr, n - 1 sums, two more products) is at least
(1 - u)**(n + L) times the real one. ``gen_slack``, ``1 + 4(n + F + 2)u``
and exact in binary, covers their ratio, about 1 + (2n + 3L)u, and its own
product's rounding, F being the database's item occurrences
(``wam_acc.freq_sum``): an embedding maps each item to its own occurrence,
so no pattern is longer. So a generate test never drops a branch holding a
pattern the scan would store, even where the bound ties the floor, and a
ruled-out candidate misses the floor when verified too.

``bound="exact"`` carries through growth each pattern's rows (see the
``trie`` module docstring) and their maxima b_s, one per sequence s, and
bounds with a weight cap c_s per sequence in place of ``wgt_cap``. Popping a
frame with a trie node reads each c_s off s's frontier (below), and growing
it holds them: the larger of the pattern's
heaviest item and the heaviest item left in s after the frame's anchor (the
row's first event, the pattern's last item); at the root, s's heaviest item.
An embedding of a descendant contains one of the pattern, which ends at or
after that anchor, and every item the descendant adds comes after that end,
so its mean item weight is at most c_s. A frame bounds a slot by ``sum of
b_s * c_s * p_s`` over its entries, p_s being ``determine``'s slot value
(``determine`` is handed each entry's b_s * c_s; under ``cap`` and ``top`` it
is handed none, and each entry weighs 1.0): the extension's row values are
the pattern's, each at most b_s, times the item's probabilities, each at most
p_s, and a descendant's are smaller still. A slot this pretest passes
gets its rows, and es, the sum of their maxima, is the extension's expected
support; its wes comes out bit for bit as the scan's, so an exact mine
verifies nothing and rules nothing out. Each row's first event, the earliest
where the pattern ends and never before ``project``'s anchor, anchors the
extension's projection entry, so an exact frame is never projected.

The extension is generated when ``sum of best_s * c_s * gen_slack`` meets
the floor, best_s being its row maxima and c_s the parent's caps, not its
own. A failed test drops the item from what the parent's children inherit,
so it must bound the extension by that item of every descendant of the
parent, whose own items lie between the parent's end and the item: before
the extension's anchor, where the extension's caps no longer look. Its row
maxima bound those descendants' (the inheritance argument below), and the
parent's caps their mean item weights. The margin keeps its shape: a term
of either exact bound takes at most L products (those of the row maximum,
then the cap's and the probability's) and the terms n - 1 sums, no more
than the ``maxpr`` bound's L + 1 products and n - 1 sums, so ``gen_slack``
covers it. Float ``*`` and ``+`` round monotonically and ``_extend_rows``
sums in sequence order.

Given ``tracked`` tries, exact growth is their fold too: a frame carries its
path's nodes in them, a tracked edge always gets its rows (over all of the
frame's entries if no slot holds its item), and each tracked node storing
the extension adds ``best * mean`` once per sequence, in sequence order, as
``sup_calc`` does. Below a tracked edge the local test rejects, the bound
that rejected it bounds every descendant, so nothing there is generated: a
frame with no trie node walks the tracked children alone, with no
``determine`` and no bound.

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
as (weight, last position, item), heaviest first. ``cap`` and ``top`` read
it only while the node's slots weigh less than its parent's ``est_wgt``;
``exact`` reads it once per entry of a popped frame, for c_s.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from typing import NamedTuple

from .model import (
    EPS,
    ExtKind,
    ItemId,
    MiningError,
    MissingWeightError,
    Pattern,
    Thresholds,
    UncertainDatabase,
    USequence,
    WamAccumulator,
    WeightTable,
    check_positive,
    extend,
    single,
)
from .trie import TrieNode, USeqTrie, extend_row, sup_calc, unweighted_item

Bound = str  # "cap" (tight, default), "top" (classic, for benchmarks) or "exact"


@dataclass(slots=True)
class PSequence:
    # Item -> (ascending positions of the events holding it, the item's
    # suffix-max probability at each position), ordered by (the item's last
    # position, the item), latest first.
    index: dict[ItemId, tuple[tuple[int, ...], tuple[float, ...]]]
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
    factor its children's bounds start from. ``exp_sup_w`` is the
    weight-capped bound that decided ``generated``: under ``cap`` and
    ``top`` their support bound times the frame's ``wgt_cap``. ``exact``
    caps each sequence on its own (module docstring), so its records carry
    ``wgt_cap`` None and its pretest, the slot's sum of row maximum times
    cap times probability, as ``exp_sup_cap``: an exact record's
    ``exp_sup_cap`` already includes the weight caps. ``exp_sup_w`` is that
    pretest, or where it passed and rows were built, their maxima times the
    parent's caps. ``exp_sup`` is the extension's exact expected support
    where ``exact`` built its rows (for each extension its pretest passes,
    and each tracked one), and None otherwise.
    """

    pattern: Pattern
    kind: ExtKind
    maxpr: float
    exp_sup_cap: float
    exp_sup_top: float
    wgt_cap: float | None
    exp_sup_w: float
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
    known: int = 0  # candidates a tracked trie stores, left unstored
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
    """``seq``'s index run by (last position, item), latest first: sorted as
    (last, item, pair) triples, which never tie, and read once for the index
    and the frontier. An item occurring once, or whose probabilities already
    fall, keeps its stored pair. An item is left in a suffix when its (last,
    item) is after the anchor's (event, open_item), so only one heavier than
    every item after it can be the heaviest one left: the frontier keeps
    those. ``shared`` holds each equal frontier entry and frontier once, as
    the first object seen, so no copy outlives the call."""
    index = {}
    frontier = []
    for last, item, occ in sorted([(occ[0][-1], item, occ) for item, occ in seq.index.items()],
                                  reverse=True):
        if len(occ[0]) > 1 and (sm := tuple(accumulate(reversed(occ[1]), max))[::-1]) != occ[1]:
            occ = (occ[0], sm)
        index[item] = occ
        w = weight[item]
        if not frontier or w > frontier[-1][0]:
            frontier.append((w, last, item))
    frontier = tuple([shared.setdefault(entry, entry) for entry in reversed(frontier)])
    return PSequence(index, shared.setdefault(frontier, frontier))


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
    pdb: PreprocessedDB, proj: ProjectedDB, alive: set[ItemId] | None = None,
    bests: Sequence[float] | None = None,
) -> dict[ExtKind, dict[ItemId, list]]:
    """The extension slots of a projection: for "I" and for "S", in that
    order, each item -> ``[prob_sum, prob_max, entries]``.

    Each entry's index is read once, with one bisect per item, and only up
    to the first item not left after the anchor, one whose (last position,
    item) is not after the anchor's (event, ``open_item``); given ``alive``,
    only its items are read, and any other costs one set test. An S-slot
    takes the item's suffix max at its first event after the anchor. An
    I-slot, only for items after ``open_item``, takes the suffix max at the
    anchor event when the item is there, and the S value otherwise. Every
    item of the index left in the remaining suffixes gets a slot, or, given
    ``alive``, every such item in ``alive``. ``prob_sum`` sums those values
    over the projection and ``prob_max`` is their largest. A slot is made at
    its item's first entry, from that entry's values, and an I-slot only
    below an open item; an item not after ``open_item`` reads nothing more
    once its S-slot is updated.

    ``entries`` are the entries a slot was read from, in projection order.
    Those are exactly the entries ``project`` can keep for that extension:
    an S-slot's hold the item after the anchor event, and an I-slot's hold
    it in the anchor event (after ``open_item``, as it is larger) or later.
    Growth therefore projects an extension over its slot's entries, and gets
    the same child projection as over all of them.

    Given ``bests``, an exact frame's best value per entry, ``prob_sum``
    sums each value times its entry's best instead (the module docstring's
    row-weighted bound). Without ``bests`` (the ``cap`` and ``top`` bounds)
    each entry weighs 1.0, and as ``1.0 * p == p`` the sums are the plain
    ones, bit for bit.
    """
    s_acc: dict[ItemId, list] = {}
    i_acc: dict[ItemId, list] = {}
    open_item = proj.open_item
    filtered = alive is not None
    has_open = open_item is not None
    for entry, b in zip(proj.entries, repeat(1.0) if bests is None else bests):
        si, ei = entry
        index = pdb[si].index
        for it in index:
            if filtered and it not in alive:
                continue
            occ = index[it]
            ks = occ[0]
            last = ks[-1]
            if last <= ei and (last < ei or it <= open_item):
                break  # not left after the anchor, and neither is any later item
            ps = occ[1]
            if last > ei:
                j = bisect_right(ks, ei)
                p = ps[j]
                slot = s_acc.get(it)
                if slot is None:  # 0.0 + x == x: the first sum is the product itself
                    s_acc[it] = [b * p, p, [entry]]
                else:
                    slot[0] += b * p
                    slot[2].append(entry)
                    if p > slot[1]:
                        slot[1] = p
                if not has_open or it <= open_item:
                    continue  # no I-slot
                if j and ks[j - 1] == ei:
                    p = ps[j - 1]
            else:
                p = ps[-1]  # the item last occurs in the anchor event, after open_item
            slot = i_acc.get(it)
            if slot is None:
                i_acc[it] = [b * p, p, [entry]]
            else:
                slot[0] += b * p
                slot[2].append(entry)
                if p > slot[1]:
                    slot[1] = p
    return {"I": i_acc, "S": s_acc}


def project(pdb: PreprocessedDB, proj: ProjectedDB, item: ItemId, kind: ExtKind) -> ProjectedDB:
    """Re-anchor each entry at the first qualifying occurrence of ``item``.

    After the suffix-max rewrite the first occurrence carries the largest
    remaining probability, and its suffix contains every later anchor, so
    nothing reachable is lost. An entry with nothing left after its anchor,
    one at its final event's last item, stays: anchors sit only on items
    ``prune_index`` keeps, so that item heads the index, and ``determine``
    stops there without a slot. An entry lacking the item drops.

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
        occ = pdb[si].index.get(item)
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
    tracked: Sequence[USeqTrie] = (),
) -> tuple[USeqTrie, MineStats]:
    """Full pipeline. Returns the verified trie and run statistics.

    Ruled-out candidates never reach the scan; ``false_positives`` counts them.
    Under ``bound="exact"`` growth gives every candidate its wes, so no scan
    runs and no candidate is ruled out; it stores what ``"cap"`` stores.
    Exact growth also adds ``db``'s wes to every pattern a ``tracked`` trie
    stores, as ``sup_calc`` would (module docstring), and leaves those
    candidates unstored, as prefix-only nodes that ``known`` counts and
    ``survivors`` leaves out. Tracked tries under another bound raise
    ``MiningError``, and an unweighted tracked item ``MissingWeightError``,
    before anything changes.

    ``min_sup`` is the effective support fraction: callers wanting a
    semi-frequent buffer pass min_sup * mu. It has no upper bound, because an
    increment's local mine runs at lwes_factor * min_sup * mu.
    """
    check_positive("min_sup", min_sup)
    check_positive("wgt_fct", wgt_fct)
    if bound not in ("cap", "top", "exact"):
        raise MiningError(f"unknown bound {bound!r}")
    if tracked and bound != "exact":
        raise MiningError(f"tracked tries need bound 'exact', not {bound!r}")
    if (item := unweighted_item(tracked, weights)) is not None:
        raise MissingWeightError(item)
    stats = MineStats(db_size=db.size)
    t0 = time.perf_counter()
    pdb, stats.wam_acc = preprocess(db, weights)
    min_wes = Thresholds.compute(min_sup, db.size, stats.wam, wgt_fct, 1.0).min_wes
    stats.min_wes = min_wes
    trie = USeqTrie()
    _grow(pdb, db.sequences, weights, min_wes, bound, trie, stats, trace, tracked)
    stats.grow_ms = (time.perf_counter() - t0) * 1000.0
    t1 = time.perf_counter()
    if bound != "exact":
        # Candidates are stored at wes 0.0, so the scan leaves each at its exact wes.
        trie.prune_below(-math.inf)  # the unverified prefixes left childless
        sup_calc(trie, db, weights)
    stats.false_positives = stats.ruled_out + trie.prune_below(min_wes)
    stats.survivors = stats.candidates - stats.false_positives - stats.known
    stats.verify_ms = (time.perf_counter() - t1) * 1000.0
    return trie, stats


def _grow(
    pdb: PreprocessedDB,
    seqs: Sequence[USequence],
    weights: WeightTable,
    min_wes: float,
    bound: Bound,
    trie: USeqTrie,
    stats: MineStats,
    trace: list[BoundRecord] | None,
    tracked: Sequence[USeqTrie],
) -> None:
    """Grow every candidate into ``trie``, depth-first from the root.

    A frame on the stack is one generated extension waiting to be grown: its
    entries and their ``open_item``, its trie node (which holds its item and
    kind), its maxpr, largest item weight, item weight sum and length, its
    pattern (only with a trace list), the items it inherits (see the module
    docstring), its parent's ``wgt_cap``, under ``exact`` its rows and their
    maxima, and its path's ``tracked`` nodes; a frame with no trie node walks
    only tracked children. The root frame's node is the trie's root. Under
    ``cap`` and ``top`` a frame holds its slot's entries, and popping it
    projects them, so projection happens only when a subtree is grown; an
    ``exact`` frame holds entries its rows already anchored, and popping one
    with a trie node reads each entry's weight cap off the frontier. Every
    frame then bounds each slot ``determine`` finds among the inherited
    items, I-items then S-items, each in item order. Each generated one is
    stored as a child of the frame's node and becomes a frame: under
    ``exact`` with its wes, otherwise as a prefix only when its own bound
    rules it out. The frames go on the stack in reverse, so the first is
    grown first. The stack is
    explicit, so a long pattern cannot hit Python's recursion limit. The
    weight table is read directly: ``preprocess`` has looked up every item.
    """
    weight = weights.entries
    root = trie.root
    exact = bound == "exact"
    cap_bound = bound != "top"
    floor = min_wes - EPS  # what ``meets`` compares with
    gen_slack = 1.0 + 4 * (len(pdb) + stats.wam_acc.freq_sum + 2) * 2.0**-53  # module docstring
    # The root frame's limit 0.0 skips the frontiers: every item has a slot
    # there. Its row maxima, the empty prefix's, are 1.0.
    stack = [(root_projection(pdb).entries, None, root, 1.0, 0.0, 0.0, 0, None, None, 0.0, None,
              [1.0] * len(pdb) if exact else None, [t.root for t in tracked])]
    while stack:
        (entries, open_item, node, maxpr, mxw, wsum, length, prefix, alive, limit, rows, bests,
         marks) = stack.pop()
        caps = None
        if exact and node is not None:  # each entry's weight cap; bests become b_s * c_s
            caps = {}
            for i, (si, ei) in enumerate(entries):
                caps[si] = cap = _heaviest_left(pdb[si].frontier, ei, open_item, mxw)
                bests[i] *= cap
        proj = ProjectedDB(entries, open_item)
        if node is not root and not exact:
            proj = project(pdb, proj, node.item, node.kind)
        if not proj.entries:
            continue
        slots = {} if node is None else determine(pdb, proj, alive, bests)
        # The heaviest item left in the projected suffixes, with or without a
        # slot: the slots' items give a floor, each entry's frontier the rest,
        # and no node's exceeds its parent's (``limit``). Exact frames carry
        # a cap per sequence instead.
        wgt_cap = None if exact else max(
            [mxw] + [weight[item] for acc in slots.values() for item in acc])
        if not exact and wgt_cap < limit:
            for si, ei in proj.entries:
                wgt_cap = _heaviest_left(pdb[si].frontier, ei, proj.open_item, wgt_cap)
                if wgt_cap == limit:
                    break
        # The tracked edges out of this path, each with its tracked nodes.
        edges: dict[tuple[ExtKind, ItemId], list[TrieNode]] = {}
        for mark in marks:
            for key, child in mark.children.items():
                edges.setdefault(key, []).append(child)
        length += 1  # the children's pattern length
        # What the children inherit, filled as they are generated: the
        # S-items generated here, and for an I-child also the I-items. The
        # root level is bounded on the full index; its children read an index
        # pruned to the items they inherit.
        alive_s: set[ItemId] = set()
        alive_i: set[ItemId] = set()
        frames = []
        rejected = []  # tracked edges generating nothing, with their rows
        for kind, acc in slots.items():
            stats.bounded += len(acc)
            inherit = None if node is root else alive_i if kind == "I" else alive_s
            for item in sorted(acc):
                prob_sum, prob_max, entries = acc[item]
                if exact:  # the slot sum is the whole pretest (module docstring)
                    sup = est = prob_sum
                else:
                    sup = maxpr * prob_sum
                    est = (sup if cap_bound else maxpr * prob_max * len(entries)) * wgt_cap
                generated = est * gen_slack >= floor
                nodes = edges.pop((kind, item), None) if edges else None
                es = None
                if generated or nodes:
                    w = weight[item]
                    cw = wsum + w
                    if exact:
                        row_est, es, wes, anchors, child_rows, child_bests = _extend_rows(
                            seqs, open_item, rows, caps, kind, item, entries, cw / length, nodes)
                        if generated:
                            est = row_est
                            generated = est * gen_slack >= floor
                        if nodes and not generated:
                            rejected.append((nodes, item, cw, anchors, child_rows))
                pat = None
                if trace is not None:
                    pat = extend(prefix, item, kind) if prefix is not None else single(item)
                    top = maxpr * prob_max * len(entries)
                    trace.append(BoundRecord(pat, kind, maxpr * prob_max, sup, top, wgt_cap,
                                             est, generated, es))
                if generated:
                    child = trie.add_child(node, kind, item)
                    if exact:
                        child.wes = wes
                        if nodes and any(n.wes is not None for n in nodes):
                            child.wes = None  # tracked: its wes went to the tracked node
                            stats.known += 1
                        entries, child_open = anchors, item
                    else:
                        child_rows, child_bests, child_open = None, None, proj.open_item
                        if sup * (cw / length) * gen_slack < floor:
                            child.wes = None  # ruled out: a prefix only
                            stats.ruled_out += 1
                    alive_i.add(item)
                    if kind == "S":
                        alive_s.add(item)
                    frames.append((entries, child_open, child, maxpr * prob_max,
                                   mxw if mxw > w else w, cw, length, pat, inherit, wgt_cap,
                                   child_rows, child_bests,
                                   [n for n in nodes if n.children] if nodes else ()))
        if node is root:  # an edge out of the root with no slot has no occurrence
            prune_index(pdb, alive_s)
            edges.clear()
        for (kind, item), nodes in edges.items():  # the tracked edges no slot holds
            cw = wsum + weight[item]
            anchors, child_rows = _extend_rows(
                seqs, open_item, rows, caps, kind, item, proj.entries, cw / length, nodes)[3:5]
            rejected.append((nodes, item, cw, anchors, child_rows))
        for nodes, item, cw, anchors, child_rows in rejected:  # walk only tracked children
            marks = [n for n in nodes if n.children]
            if marks and anchors:
                stack.append((anchors, item, None, 0.0, 0.0, cw, length, None, None, 0.0,
                              child_rows, None, marks))
        stats.candidates += len(frames)
        stack.extend(reversed(frames))


def _heaviest_left(frontier: Sequence[tuple[float, int, ItemId]], ei: int,
                   open_item: ItemId | None, floor: float) -> float:
    """The heaviest weight above ``floor`` among the items of a sequence's
    ``frontier`` left after the anchor ``(ei, open_item)``, else ``floor``."""
    for w, last, it in frontier:
        if w <= floor:
            break
        if last > ei or (last == ei and it > open_item):
            return w
    return floor


def _extend_rows(
    seqs: Sequence[USequence],
    parent: ItemId | None,
    rows: dict[int, list] | None,
    caps: dict[int, float] | None,
    kind: ExtKind,
    item: ItemId,
    entries: Sequence[Entry],
    mean: float,
    nodes: list[TrieNode] | None,
) -> tuple[float, float, float, list[Entry], dict[int, list] | None, list[float]]:
    """The exact rows of a pattern extended by ``(kind, item)`` over
    ``entries``: returns the extension's weight-capped bound (the sum of each
    row's maximum times the pattern's cap for its sequence, ``caps``; 0.0
    where ``caps`` is None, in a frame walking only tracked children), its
    expected support, its wes (its mean item weight ``mean``), its
    projection entries, its rows and their maxima. Each stored node of the
    tracked ``nodes`` gets each wes term too.

    ``rows`` maps each sequence of the pattern's projection to its row (see
    the ``trie`` module docstring). It is None for a root child, whose rows
    are the raw stored index of its item, ``parent``. A child of the root
    itself (``parent`` None) takes its raw stored index as its rows, so
    nothing is built, and their maximum is its largest probability. Below
    the root each row is ``trie.extend_row`` of the parent's, skipped, as
    ``sup_calc`` skips it, where the item cannot follow the row's first
    event. Every sum adds one term per sequence in sequence order, as
    ``sup_calc`` does, so each wes is the one its scan gives, bit for bit. A
    new row's first event anchors the extension's projection entry; as in
    ``project``, an entry with nothing left after it stays, and ``determine``
    finds no slot there.
    """
    bound = es = wes = 0.0
    anchors: list[Entry] = []
    bests: list[float] = []
    child_rows: dict[int, list] | None = None if parent is None else {}
    stored = [n for n in nodes if n.wes is not None] if nodes else ()
    s_step = kind == "S"
    for si, ei in entries:
        index = seqs[si].index
        if parent is None:
            ks, ps = index[item]
            best, first = max(ps), ks[0]
        else:
            occ = index.get(item)
            if occ is None or occ[0][-1] < ei + s_step:  # an S-step needs a later event
                continue
            row = zip(*index[parent]) if rows is None else rows[si]
            best, row = extend_row(row, occ, s_step)
            if best <= 0.0:
                continue
            first = row[0][0]
            child_rows[si] = row
        if caps is not None:
            bound += best * caps[si]
        es += best
        term = best * mean
        wes += term
        for n in stored:
            n.wes += term
        anchors.append((si, first))
        bests.append(best)
    return bound, es, wes, anchors, child_rows, bests

