"""Domain types for weighted sequential pattern mining over uncertain sequences.

Items are opaque text tokens with lexicographic order. Every type here is
immutable after construction except the running ``WamAccumulator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Literal

# Absolute tolerance used by every threshold classification in the package.
# Accumulation order must never flip a frequent/infrequent decision.
EPS = 1e-9

ItemId = str
ExtKind = Literal["S", "I"]

S_EXT: ExtKind = "S"
I_EXT: ExtKind = "I"

# Tokens with structural meaning in the sequence file format.
RESERVED_TOKENS = frozenset({"-1", "-2"})


class MiningError(Exception):
    """Base class for data errors raised by this package."""


class MissingWeightError(MiningError):
    def __init__(self, item: ItemId):
        super().__init__(f"no weight defined for item {item!r}")
        self.item = item


def meets(value: float, threshold: float) -> bool:
    """Threshold check with absolute tolerance: value >= threshold - EPS."""
    return value >= threshold - EPS


def check_positive(name: str, value: float, upper: float | None = None) -> None:
    """The one check on a mining number: finite, above 0 and, when ``upper``
    is given, at most ``upper``. nan fails every comparison, so it is rejected."""
    if not 0.0 < value < math.inf or (upper is not None and value > upper):
        limit = "inf)" if upper is None else f"{upper}]"
        raise MiningError(f"{name} must be finite and in (0, {limit}: {value}")


def check_item_token(token: str) -> str:
    """Validate an item identifier; returns it unchanged."""
    if not token or token in RESERVED_TOKENS:
        raise MiningError(f"invalid item token {token!r}")
    if ":" in token or any(c.isspace() for c in token):
        raise MiningError(f"item token {token!r} must not contain ':' or whitespace")
    return token


@dataclass(frozen=True)
class ProbItem:
    """An item occurrence with its existential probability."""

    item: ItemId
    prob: float

    def __post_init__(self):
        check_item_token(self.item)
        if not 0.0 < self.prob <= 1.0:
            raise MiningError(f"probability of {self.item!r} out of (0, 1]: {self.prob}")


@dataclass(frozen=True)
class Event:
    """One itemset of a sequence; items strictly ascending, no duplicates."""

    items: tuple[ProbItem, ...]

    def __post_init__(self):
        if not self.items:
            raise MiningError("empty event")
        names = [pi.item for pi in self.items]
        if any(a >= b for a, b in zip(names, names[1:])):
            raise MiningError(f"event items not strictly ascending: {names}")

    def prob_map(self) -> dict[ItemId, float]:
        return {pi.item: pi.prob for pi in self.items}


@dataclass(frozen=True)
class USequence:
    """An uncertain sequence: ordered events."""

    events: tuple[Event, ...]

    def __post_init__(self):
        if not self.events:
            raise MiningError("sequence has no events")

    @property
    def length(self) -> int:
        return sum(len(e.items) for e in self.events)


def item_index(seq: USequence) -> dict[ItemId, list[tuple[int, float]]]:
    """The sequence encoded by item: each item -> its ``(event position, prob)``
    occurrences in ascending event order.

    This is the one encoding the miner's projection index and the support scan
    read sequences through; an item the sequence lacks is simply not a key.
    """
    index: dict[ItemId, list[tuple[int, float]]] = {}
    for k, ev in enumerate(seq.events):
        for pi in ev.items:
            occ = index.get(pi.item)
            if occ is None:
                index[pi.item] = [(k, pi.prob)]
            else:
                occ.append((k, pi.prob))
    return index


@dataclass(frozen=True)
class UncertainDatabase:
    sequences: tuple[USequence, ...]

    @property
    def size(self) -> int:
        return len(self.sequences)

    def __iter__(self) -> Iterator[USequence]:
        return iter(self.sequences)

    def alphabet(self) -> list[ItemId]:
        return sorted({pi.item for s in self.sequences for e in s.events for pi in e.items})

    def item_frequencies(self) -> dict[ItemId, int]:
        """Occurrence count per item over the whole database."""
        freq: dict[ItemId, int] = {}
        for seq in self.sequences:
            for ev in seq.events:
                for pi in ev.items:
                    freq[pi.item] = freq.get(pi.item, 0) + 1
        return freq

    @staticmethod
    def concat(parts: list["UncertainDatabase"]) -> "UncertainDatabase":
        """Append databases in order."""
        return UncertainDatabase(tuple(seq for part in parts for seq in part.sequences))


@dataclass(frozen=True)
class WeightTable:
    """Significance weight per item, each in (0, 1]."""

    entries: dict[ItemId, float]

    def __post_init__(self):
        for item, w in self.entries.items():
            if not 0.0 < w <= 1.0:
                raise MiningError(f"weight of {item!r} out of (0, 1]: {w}")

    def weight(self, item: ItemId) -> float:
        try:
            return self.entries[item]
        except KeyError:
            raise MissingWeightError(item) from None

    def max_weight(self) -> float:
        if not self.entries:
            raise MiningError("empty weight table")
        return max(self.entries.values())

    def __contains__(self, item: ItemId) -> bool:
        return item in self.entries


@dataclass(frozen=True)
class Pattern:
    """A sequential pattern: ordered itemsets, each strictly ascending."""

    events: tuple[tuple[ItemId, ...], ...]

    def __post_init__(self):
        if not self.events:
            raise MiningError("empty pattern")
        for ev in self.events:
            if not ev:
                raise MiningError("pattern has an empty itemset")
            if any(a >= b for a, b in zip(ev, ev[1:])):
                raise MiningError(f"pattern itemset not strictly ascending: {ev}")

    @property
    def length(self) -> int:
        return sum(len(ev) for ev in self.events)

    @property
    def size(self) -> int:
        return len(self.events)

    @property
    def last_item(self) -> ItemId:
        return self.events[-1][-1]


def extend(pattern: Pattern, item: ItemId, kind: ExtKind) -> Pattern:
    """Grow a pattern with one item: S opens a new event, I joins the last one.

    I-extension requires the item to sort strictly after every item already in
    the final itemset, mirroring the ascending order inside events.
    """
    if kind == S_EXT:
        return Pattern(pattern.events + ((item,),))
    if kind == I_EXT:
        last = pattern.events[-1]
        if item <= last[-1]:
            raise ValueError(
                f"i-extension item {item!r} must sort after {last[-1]!r} in itemset {last}"
            )
        return Pattern(pattern.events[:-1] + (last + (item,),))
    raise ValueError(f"unknown extension kind {kind!r}")


def single(item: ItemId) -> Pattern:
    return Pattern(((item,),))


def s_weight(pattern: Pattern, weights: WeightTable) -> float:
    """Mean item weight over all item occurrences of the pattern."""
    total = 0.0
    for ev in pattern.events:
        for item in ev:
            total += weights.weight(item)
    return total / pattern.length


@dataclass(frozen=True)
class ScoredPattern:
    pattern: Pattern
    wes: float

    def __post_init__(self):
        if self.wes < 0.0:
            raise MiningError(f"negative weighted expected support: {self.wes}")


@dataclass(frozen=True)
class MiningParams:
    """User-facing mining parameters.

    mu is the buffer ratio lowering the frequent threshold for the
    semi-frequent buffer; mu = 1.0 keeps no buffer. lwes_factor scales the
    local threshold used on increments.
    """

    min_sup: float
    wgt_fct: float
    mu: float = 1.0
    lwes_factor: float = 2.0

    def __post_init__(self):
        check_positive("min_sup", self.min_sup, 1.0)
        check_positive("wgt_fct", self.wgt_fct)
        check_positive("mu", self.mu, 1.0)
        check_positive("lwes_factor", self.lwes_factor)


@dataclass
class WamAccumulator:
    """Running numerator/denominator of the frequency-weighted mean weight.

    WAM = sum(freq_i * weight_i) / sum(freq_i) over the items of every
    database added so far; the one definition of the formula.
    """

    weighted_freq_sum: float = 0.0
    freq_sum: int = 0

    @property
    def wam(self) -> float:
        return self.weighted_freq_sum / self.freq_sum if self.freq_sum else 0.0

    def add(self, db: UncertainDatabase, weights: WeightTable) -> None:
        for item, freq in db.item_frequencies().items():
            self.weighted_freq_sum += freq * weights.weight(item)
            self.freq_sum += freq


@dataclass(frozen=True)
class Thresholds:
    db_size: int
    wam: float
    min_wes: float
    min_wes_prime: float

    @staticmethod
    def compute(min_sup: float, db_size: int, wam: float, wgt_fct: float, mu: float) -> "Thresholds":
        """The one definition of minWES; minWES' scales it by the buffer ratio mu."""
        min_wes = min_sup * db_size * wam * wgt_fct
        return Thresholds(db_size=db_size, wam=wam, min_wes=min_wes, min_wes_prime=min_wes * mu)
