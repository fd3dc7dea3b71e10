"""Prefix trie over sequential patterns with typed (S/I) edges.

Each stored pattern ends at a marked node carrying a weighted-expected-support
accumulator. One pass of ``sup_calc`` over a database (or an increment) adds
every sequence's contribution to every stored pattern in a single scan.

Nodes that are only prefixes of stored patterns are kept unmarked: pruning can
leave sets that are not prefix-closed (a super-pattern may stay frequent while
its prefix drops out), so end markers are load-bearing, not decorative.
"""

from __future__ import annotations

from .model import (
    EPS,
    ExtKind,
    ItemId,
    MiningError,
    Pattern,
    ScoredPattern,
    UncertainDatabase,
    WeightTable,
    item_index,
    meets,
)


class TrieNode:
    __slots__ = ("kind", "item", "wes", "is_pattern", "children")

    def __init__(self, kind: ExtKind | None = None, item: ItemId | None = None):
        self.kind = kind
        self.item = item
        self.wes = 0.0
        self.is_pattern = False
        self.children: dict[tuple[str, str], TrieNode] = {}

    def sorted_children(self) -> list["TrieNode"]:
        # ("I", x) sorts before ("S", y), then by item: deterministic walks.
        return [self.children[k] for k in sorted(self.children)]


def _edges(pattern: Pattern) -> list[tuple[ExtKind, ItemId]]:
    edges: list[tuple[ExtKind, ItemId]] = []
    for ev in pattern.events:
        edges.append(("S", ev[0]))
        edges.extend(("I", it) for it in ev[1:])
    return edges


def _pattern_of(path: list[TrieNode]) -> Pattern:
    events: list[tuple[ItemId, ...]] = []
    for node in path:
        if node.kind == "S":
            events.append((node.item,))
        else:
            events[-1] = events[-1] + (node.item,)
    return Pattern(tuple(events))


class USeqTrie:
    def __init__(self):
        self.root = TrieNode()
        self.pattern_count = 0

    def insert(self, pattern: Pattern, wes: float = 0.0) -> None:
        """Store a pattern; overwrites the accumulator if already present."""
        node = self.root
        for kind, item in _edges(pattern):
            key = (kind, item)
            child = node.children.get(key)
            if child is None:
                child = TrieNode(kind, item)
                node.children[key] = child
            node = child
        if not node.is_pattern:
            node.is_pattern = True
            self.pattern_count += 1
        node.wes = wes

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
        return path is not None and path[-1].is_pattern

    def get_wes(self, pattern: Pattern) -> float:
        path = self._walk(pattern)
        if path is None or not path[-1].is_pattern:
            raise KeyError(f"pattern not stored: {pattern.events}")
        return path[-1].wes

    def remove(self, pattern: Pattern) -> None:
        """Unmark a pattern and reclaim nodes that no longer serve any pattern."""
        path = self._walk(pattern)
        if path is None or not path[-1].is_pattern:
            raise KeyError(f"pattern not stored: {pattern.events}")
        path[-1].is_pattern = False
        path[-1].wes = 0.0
        self.pattern_count -= 1
        # Bottom-up: drop childless unmarked nodes.
        for i in range(len(path) - 1, 0, -1):
            node = path[i]
            if node.children or node.is_pattern:
                break
            del path[i - 1].children[(node.kind, node.item)]

    def patterns(self):
        """Yield (Pattern, wes) in depth-first order, I-edges before S-edges."""
        path: list[TrieNode] = []

        def rec(node: TrieNode):
            for child in node.sorted_children():
                path.append(child)
                if child.is_pattern:
                    yield _pattern_of(path), child.wes
                yield from rec(child)
                path.pop()

        yield from rec(self.root)

    def collect(self, min_wes: float) -> list[ScoredPattern]:
        return [
            ScoredPattern(pat, wes) for pat, wes in self.patterns() if meets(wes, min_wes)
        ]

    def prune_below(self, min_wes: float) -> int:
        """Drop every stored pattern with wes < min_wes - EPS; returns count."""
        removed = 0

        def rec(node: TrieNode) -> None:
            nonlocal removed
            for key in list(node.children):
                child = node.children[key]
                rec(child)
                if child.is_pattern and child.wes < min_wes - EPS:
                    child.is_pattern = False
                    child.wes = 0.0
                    removed += 1
                if not child.children and not child.is_pattern:
                    del node.children[key]

        rec(self.root)
        self.pattern_count -= removed
        return removed

    def reset_wes(self) -> None:
        def rec(node: TrieNode):
            node.wes = 0.0
            for child in node.children.values():
                rec(child)

        rec(self.root)

    @property
    def node_count(self) -> int:
        def rec(node: TrieNode) -> int:
            return sum(1 + rec(c) for c in node.children.values())

        return rec(self.root)

    # -- snapshot serialization ------------------------------------------------
    # One node per preorder line: "<depth> <kind> <item> <wes>". Unmarked
    # prefix nodes write "-" in the wes column.

    def snapshot(self) -> str:
        lines: list[str] = []

        def rec(node: TrieNode, depth: int):
            for child in node.sorted_children():
                wes = repr(child.wes) if child.is_pattern else "-"
                lines.append(f"{depth} {child.kind} {child.item} {wes}")
                rec(child, depth + 1)

        rec(self.root, 1)
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def from_snapshot(text: str) -> "USeqTrie":
        trie = USeqTrie()
        stack = [trie.root]
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 4:
                raise MiningError(f"snapshot line {lineno}: expected 4 fields, got {len(parts)}")
            depth_s, kind, item, wes_s = parts
            try:
                depth = int(depth_s)
            except ValueError:
                raise MiningError(f"snapshot line {lineno}: bad depth {depth_s!r}") from None
            if kind not in ("S", "I"):
                raise MiningError(f"snapshot line {lineno}: bad edge kind {kind!r}")
            if depth < 1 or depth > len(stack):
                raise MiningError(f"snapshot line {lineno}: depth {depth} breaks preorder")
            if depth == 1 and kind == "I":
                raise MiningError(f"snapshot line {lineno}: root edges must be S")
            del stack[depth:]
            node = TrieNode(kind, item)
            if wes_s != "-":
                node.is_pattern = True
                node.wes = float(wes_s)
                trie.pattern_count += 1
            stack[-1].children[(kind, item)] = node
            stack.append(node)
        return trie


def sup_calc(trie: USeqTrie, db_part: UncertainDatabase, weights: WeightTable) -> None:
    """Add each sequence's contribution to every stored pattern's wes.

    Per sequence, each node carries an array indexed by event position: the
    value at position m is the best probability of embedding the node's
    pattern with its last item matched in event m. An S-edge child takes the
    parent's best value over strictly earlier events times the item's
    probability in event m; an I-edge child multiplies the parent's value at
    the same event (nonzero only where the whole open itemset fits). The
    node's contribution for the sequence is the array maximum times the
    running mean item weight carried down the walk.

    The sequence is read through ``item_index``: a child whose item the
    sequence lacks is skipped with one dict miss, together with its whole
    subtree, and a matched child touches only the positions where its item
    occurs. Visit order cannot change any node's sum, so children are visited
    unsorted.
    """
    for seq in db_part.sequences:
        # Virtual empty prefix: embeddable before any event.
        ones = [1.0] * len(seq.events)
        _scan(trie.root, ones, ones, 0.0, 0, item_index(seq), weights)


def _scan(
    node: TrieNode,
    ar: list[float],
    before_max: list[float],
    wgt_sum: float,
    itm_cnt: int,
    index: dict[ItemId, list[tuple[int, float]]],
    weights: WeightTable,
) -> None:
    for (kind, item), child in node.children.items():
        occ = index.get(item)
        if occ is None:
            continue
        src = before_max if kind == "S" else ar
        grow = bool(child.children)
        cur: list[float] | None = None
        best = 0.0
        for k, p in occ:
            b = src[k]
            if b > 0.0:
                v = p * b
                if v > best:
                    best = v
                if grow:
                    if cur is None:
                        cur = [0.0] * len(src)
                    cur[k] = v
        if best > 0.0:
            cw = wgt_sum + weights.weight(item)
            cc = itm_cnt + 1
            if child.is_pattern:
                child.wes += best * (cw / cc)
            if cur is not None:
                cbm = [0.0] * len(cur)
                run = 0.0
                for k in range(len(cur)):
                    cbm[k] = run
                    if cur[k] > run:
                        run = cur[k]
                _scan(child, cur, cbm, cw, cc, index, weights)
