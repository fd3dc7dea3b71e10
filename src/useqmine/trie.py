"""Prefix trie over sequential patterns with typed (S/I) edges.

A stored pattern's node is one whose wes (weighted expected support
accumulator) is set; on every other node wes is ``None``. One pass of
``sup_calc`` over a database (or an increment) adds every sequence's
contribution to every stored pattern in a single scan, through a plan of the
trie compiled once per call with each node's mean item weight.

Per sequence, a pattern's state is its row: ascending ``(event position,
value)`` pairs, one per event where the pattern can end, the value being the
best probability of an embedding whose last item is in that event.
``extend_row`` is the one step from a pattern's row to the row of its
extension by an item (the prefix-best-product recurrence): an S-step scores
each occurrence of the item by the running maximum of the row's values at
strictly earlier events, an I-step by the row's value at the same event. The
extension's best value in the sequence, its share of expected support, is
the largest value of its row. ``sup_calc`` and the exact local mine
(``fuws._extend_rows``) both build rows with it.

A node that is only a prefix of stored patterns keeps a ``None`` wes and at
least one child: pruning can leave sets that are not prefix-closed (a
super-pattern may stay frequent while its prefix drops out). So the root has
children exactly when a pattern is stored.

The walks over stored patterns (``patterns``, ``snapshot``, the two counts
and ``prune_below``) all read one preorder, I-edges before S-edges. No walk
recurses: the preorder and ``sup_calc`` keep their pending nodes on explicit
stacks, so a pattern may be longer than Python's recursion limit.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator

from .model import (
    EPS,
    ExtKind,
    ItemId,
    MiningError,
    Pattern,
    ScoredPattern,
    UncertainDatabase,
    WeightTable,
    check_item_token,
    check_nonnegative,
    extend,
    meets,
    single,
)


def _snapshot_error(lineno: int, message: str) -> MiningError:
    return MiningError(f"snapshot line {lineno}: {message}")


class TrieNode:
    __slots__ = ("kind", "item", "wes", "children")

    def __init__(self, kind: ExtKind | None = None, item: ItemId | None = None):
        self.kind = kind
        self.item = item
        self.wes: float | None = None  # set only where a stored pattern ends
        self.children: dict[tuple[str, str], TrieNode] = {}


def _edges(pattern: Pattern) -> list[tuple[ExtKind, ItemId]]:
    edges: list[tuple[ExtKind, ItemId]] = []
    for ev in pattern.events:
        edges.append(("S", ev[0]))
        edges.extend(("I", it) for it in ev[1:])
    return edges


class USeqTrie:
    def __init__(self):
        self.root = TrieNode()

    def insert(self, pattern: Pattern, wes: float = 0.0) -> None:
        """Store a pattern; overwrites the accumulator if already present. A
        wes a snapshot could not hold (negative, nan or inf) raises
        ``MiningError`` before any node is made."""
        check_nonnegative("wes", wes)
        *path, last = _edges(pattern)
        node = self.root
        for key in path:
            node = node.children.setdefault(key, TrieNode(*key))
        self.add_child(node, *last).wes = wes

    def add_child(self, node: TrieNode, kind: ExtKind, item: ItemId) -> TrieNode:
        """Store the pattern of ``node`` extended by ``(kind, item)``, with
        no walk from the root, and return its node (its wes is kept if the
        pattern was stored)."""
        child = node.children.setdefault((kind, item), TrieNode(kind, item))
        if child.wes is None:
            child.wes = 0.0
        return child

    def _walk(self, pattern: Pattern) -> list[TrieNode] | None:
        node = self.root
        path = [node]
        for key in _edges(pattern):
            node = node.children.get(key)
            if node is None:
                return None
            path.append(node)
        return path

    def __contains__(self, pattern: Pattern) -> bool:
        path = self._walk(pattern)
        return path is not None and path[-1].wes is not None

    def get_wes(self, pattern: Pattern) -> float:
        path = self._walk(pattern)
        if path is None or path[-1].wes is None:
            raise KeyError(f"pattern not stored: {pattern.events}")
        return path[-1].wes

    def remove(self, pattern: Pattern) -> None:
        """Clear a pattern's wes and reclaim nodes that no longer serve any pattern."""
        path = self._walk(pattern)
        if path is None or path[-1].wes is None:
            raise KeyError(f"pattern not stored: {pattern.events}")
        path[-1].wes = None
        # Bottom-up: drop childless nodes whose wes is None.
        for i in range(len(path) - 1, 0, -1):
            node = path[i]
            if node.children or node.wes is not None:
                break
            del path[i - 1].children[(node.kind, node.item)]

    def _preorder(self) -> Iterator[tuple[int, TrieNode, TrieNode]]:
        """Yield ``(depth, parent, node)`` for every node below the root in
        preorder; the root's children are at depth 1. Children go by edge
        key, so ``("I", x)`` comes before ``("S", y)``, then by item.

        Pending nodes wait on an explicit stack, so a long pattern cannot hit
        Python's recursion limit.
        """
        stack = [(0, self.root, self.root)]
        while stack:
            depth, parent, node = stack.pop()
            if node.children:
                children = sorted(node.children.items(), reverse=True)
                stack.extend((depth + 1, node, child) for _, child in children)
            if depth:
                yield depth, parent, node

    def patterns(self, keep=None) -> Iterator[tuple[Pattern, float]]:
        """Yield (Pattern, wes) in depth-first order, I-edges before S-edges,
        for every stored pattern or, given ``keep``, each whose wes it accepts.
        Only those get a Pattern, built from their path of nodes."""
        path: list[TrieNode] = []
        for depth, _, node in self._preorder():
            del path[depth - 1 :]
            path.append(node)
            if node.wes is not None and (keep is None or keep(node.wes)):
                pat = single(path[0].item)
                for step in path[1:]:
                    pat = extend(pat, step.item, step.kind)
                yield pat, node.wes

    def collect(self, min_wes: float) -> list[ScoredPattern]:
        return [ScoredPattern(pat, wes)
                for pat, wes in self.patterns(lambda wes: meets(wes, min_wes))]

    def prune_below(self, min_wes: float) -> int:
        """Drop every stored pattern with wes < min_wes - EPS; returns count.

        Reversed preorder reaches every node after all of its descendants, so
        a prefix left childless with a ``None`` wes goes in the same pass.
        """
        removed = 0
        for _, parent, node in reversed(list(self._preorder())):
            if node.wes is not None and node.wes < min_wes - EPS:
                node.wes = None
                removed += 1
            if not node.children and node.wes is None:
                del parent.children[(node.kind, node.item)]
        return removed

    @property
    def node_count(self) -> int:
        return sum(1 for _ in self._preorder())

    @property
    def pattern_count(self) -> int:
        return sum(1 for _, _, node in self._preorder() if node.wes is not None)

    # -- snapshot serialization ------------------------------------------------
    # One node per preorder line: "<depth> <kind> <item> <wes>". A node
    # whose wes is None writes "-" in the wes column.

    def snapshot(self) -> str:
        lines = [
            f"{depth} {node.kind} {node.item} {'-' if node.wes is None else repr(node.wes)}"
            for depth, _, node in self._preorder()
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def from_snapshot(text: str | Iterable[tuple[int, str]], error=_snapshot_error) -> USeqTrie:
        """Read ``snapshot`` text back, or its numbered lines; a line no snapshot
        could hold raises ``error(lineno, message)``, which names ``snapshot
        line <lineno>`` by default. A ``-`` node must have a child, which in
        preorder is the next line."""
        trie = USeqTrie()
        stack = [trie.root]
        last = 0  # number of the line that made ``stack[-1]``
        numbered = enumerate(text.splitlines(), start=1) if isinstance(text, str) else text
        for lineno, line in numbered:
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 4:
                raise error(lineno, f"expected 4 fields, got {len(parts)}")
            depth_s, kind, item, wes_s = parts
            try:
                depth = int(depth_s)
            except ValueError:
                raise error(lineno, f"bad depth {depth_s!r}") from None
            if kind not in ("S", "I"):
                raise error(lineno, f"bad edge kind {kind!r}")
            if depth < 1 or depth > len(stack):
                raise error(lineno, f"depth {depth} breaks preorder")
            if depth != len(stack) and stack[-1].wes is None:
                raise error(last, "'-' node has no child")
            if depth == 1 and kind == "I":
                raise error(lineno, "root edges must be S")
            del stack[depth:]
            parent = stack[-1]
            try:
                check_item_token(item)
            except MiningError as exc:
                raise error(lineno, str(exc)) from None
            if kind == "I" and item <= parent.item:
                raise error(lineno, f"I-edge item {item!r} must sort after {parent.item!r}")
            if (kind, item) in parent.children:
                raise error(lineno, f"repeated edge {kind} {item!r}")
            node = TrieNode(kind, item)
            if wes_s != "-":
                try:
                    node.wes = float(wes_s)
                    check_nonnegative("wes", node.wes)
                except ValueError:
                    raise error(lineno, f"bad wes {wes_s!r}") from None
                except MiningError as exc:
                    raise error(lineno, str(exc)) from None
            parent.children[(kind, item)] = node
            stack.append(node)
            last = lineno
        if len(stack) > 1 and stack[-1].wes is None:
            raise error(last, "'-' node has no child")
        return trie


def unweighted_item(tries: Iterable[USeqTrie], weights: WeightTable) -> ItemId | None:
    """The least item on an edge of ``tries`` that ``weights`` lacks, if any."""
    held = {node.item for trie in tries for _, _, node in trie._preorder()}
    return min(held - weights.entries.keys(), default=None)


_END = (sys.maxsize, 0.0)  # past every event position


def extend_row(
    row: Iterable[tuple[int, float]],
    occ: tuple[tuple[int, ...], tuple[float, ...]],
    s_step: bool,
) -> tuple[float, list[tuple[int, float]]]:
    """One row step (see the module docstring): the best value and the row of
    a pattern extended by an item, from the pattern's non-empty ``row`` in
    one sequence and the item's stored ``(positions, probabilities)`` there.

    One pass merges the two by position, carrying the running maximum of the
    row's values before the current occurrence.
    """
    ks, ps = occ
    child: list[tuple[int, float]] = []
    best = run = 0.0
    rest = iter(row)
    pos, val = next(rest)
    j = 0
    for k in ks:
        while pos < k:
            if val > run:
                run = val
            pos, val = next(rest, _END)
        b = run if s_step else val if pos == k else 0.0
        if b > 0.0:
            v = ps[j] * b
            if v > best:
                best = v
            child.append((k, v))
        j += 1
    return best, child


def sup_calc(trie: USeqTrie, db_part: UncertainDatabase, weights: WeightTable) -> None:
    """Add each sequence's contribution to every stored pattern's wes.

    Per sequence, each node carries its pattern's row, and a child's row is
    ``extend_row`` of its parent's by the child's edge. A node adds its best
    value times its pattern's mean item weight.

    The call first compiles the trie into a plan, one ``(item, is S-edge,
    child, mean item weight, child's plan)`` entry per child, so an item
    without a weight raises ``MissingWeightError`` before any wes changes.
    Root edges are S-edges from the empty prefix, so a sequence enters the
    root by its own items and a root child's row is its item's occurrences.
    Below the root, a child is skipped with its subtree when the sequence
    lacks its item or the item's last occurrence cannot follow the row's
    first position. Plans and rows wait on explicit stacks, so a long pattern
    cannot hit Python's recursion limit. Each node gets one addition per
    sequence, in sequence order, so visit order cannot change any sum.
    """
    root: list = []
    stack = [(trie.root, 0.0, 0, root)]
    while stack:
        node, wgt_sum, itm_cnt, plan = stack.pop()
        for (kind, item), child in node.children.items():
            cw = wgt_sum + weights.weight(item)
            sub: list = []  # filled when the child is popped; stays empty at a leaf
            plan.append((item, kind == "S", child, cw / (itm_cnt + 1), sub))
            if child.children:
                stack.append((child, cw, itm_cnt + 1, sub))
    entry = {item: rest for item, s_step, *rest in root if s_step}
    for seq in db_part.sequences:
        index = seq.index
        rows = []
        for item, (ks, ps) in index.items():
            hit = entry.get(item)
            if hit is not None:
                child, mean, sub = hit
                if child.wes is not None:
                    child.wes += max(ps) * mean
                if sub:
                    rows.append((sub, list(zip(ks, ps))))
        while rows:
            plan, row = rows.pop()
            first = row[0][0]
            for item, s_step, child, mean, sub in plan:
                occ = index.get(item)
                if occ is None or occ[0][-1] < first + s_step:  # an S-step needs a later event
                    continue
                best, child_row = extend_row(row, occ, s_step)
                if best > 0.0:
                    if child.wes is not None:
                        child.wes += best * mean
                    if sub:
                        rows.append((sub, child_row))
