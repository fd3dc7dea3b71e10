"""Domain types for weighted sequential pattern mining over uncertain sequences.

Items are opaque text tokens with lexicographic order. Every type here is
immutable after construction except the running ``WamAccumulator``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from typing import Literal, NamedTuple

# Absolute tolerance used by every threshold classification in the package.
# Accumulation order must never flip a frequent/infrequent decision.
EPS = 1e-9

ItemId = str
ExtKind = Literal["S", "I"]

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
    """The one check on a mining number: an ``int`` or ``float`` but not a
    ``bool``, finite, above 0 and, when ``upper`` is given, at most ``upper``.
    nan fails every comparison, so it is rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MiningError(f"{name} is not a number: {value!r}")
    if not 0.0 < value < math.inf or (upper is not None and value > upper):
        limit = "inf)" if upper is None else f"{upper}]"
        raise MiningError(f"{name} must be finite and in (0, {limit}: {value}")


def check_nonnegative(name: str, value: float) -> None:
    """The check on a stored count or sum: finite and at least 0. nan fails
    the comparison, so it is rejected."""
    if not 0.0 <= value < math.inf:
        raise MiningError(f"{name} must be finite and not negative: {value}")


def check_item_token(token: str) -> str:
    """Validate an item identifier; returns it unchanged."""
    if not isinstance(token, str) or not token or token in RESERVED_TOKENS:
        raise MiningError(f"invalid item token {token!r}")
    # ``split`` cuts at exactly the characters ``isspace`` accepts, in C.
    # Parentheses delimit a pattern's itemsets when it is written out.
    if ":" in token or "(" in token or ")" in token or token.split() != [token]:
        raise MiningError(f"item token {token!r} must not contain ':', '(', ')' or whitespace")
    # Written first in a file, it would read back as a byte-order mark, dropped.
    if token[0] == "\ufeff":
        raise MiningError(f"item token {token!r} must not start with U+FEFF")
    # A lone surrogate cannot be written to a UTF-8 file.
    if not token.isascii():
        try:
            token.encode("utf-8")
        except UnicodeEncodeError:
            raise MiningError(f"item token {token!r} is not encodable as UTF-8") from None
    return token


class ProbItem(NamedTuple):
    """An item occurrence with its existential probability, as the ``events`` view gives it."""

    item: ItemId
    prob: float


class Event(NamedTuple):
    """One event of the ``events`` view: its items ascending."""

    items: tuple[ProbItem, ...]


def _checked_unit(what: str, item: ItemId, value: object) -> float:
    """A probability or weight given in code, as a float in (0, 1]; a ``bool`` is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MiningError(f"{what} of {item!r} is not a number: {value!r}")
    if not 0.0 < value <= 1.0:
        raise MiningError(f"{what} of {item!r} out of (0, 1]: {value}")
    return float(value)


def _checked_event(pairs: Iterable[tuple[ItemId, float]]) -> list[tuple[ItemId, float]]:
    """One event's ``(item, prob)`` pairs, checked as the file reader checks them."""
    try:  # the checks raise only MiningError: these come from iterating and unpacking
        out = [(check_item_token(it), _checked_unit("probability", it, p)) for it, p in pairs]
    except (TypeError, ValueError):
        raise MiningError(f"event {pairs!r} is not (item, prob) pairs") from None
    if not out:
        raise MiningError("empty event")
    return out


Occurrences = tuple[tuple[int, ...], tuple[float, ...]]


@dataclass(frozen=True, slots=True, init=False)
class USequence:
    """An uncertain sequence, stored as its item index.

    ``index`` maps each item to its ``Occurrences``: the ascending positions
    of the events holding it and its probability at each. Items run in order
    of first occurrence (events in order, items ascending inside one), and
    ``n_events`` counts the events. This is the one encoding of a sequence:
    the miner's projection index, the support scan and the WAM sums read it
    as stored, and ``events`` is a view built from it on each call. Equal
    position tuples are shared: sequences read from one file, or built by
    one constructor call, hold one object per distinct tuple. Nothing may
    mutate them or rely on their identity.
    """

    index: dict[ItemId, Occurrences]
    n_events: int

    def __init__(self, events: Iterable[Iterable[tuple[ItemId, float]]]):
        """The sequence of each event's ``(item, prob)`` pairs, items in any
        order; refuses whatever ``parse_uncertain_db`` refuses for the same line
        and anything else that is not such pairs."""
        if not isinstance(events, Iterable):
            raise MiningError(f"sequence {events!r} is not a list of events")
        self._fill(map(_checked_event, events), {})

    @classmethod
    def of(cls, events: Iterable[list[tuple[ItemId, float]]], positions: dict) -> USequence:
        """The sequence of each event's checked ``(item, prob)`` pairs, items
        in any order; ``positions`` is its reader's table of position tuples,
        one per file."""
        seq = object.__new__(cls)
        seq._fill(events, positions)
        return seq

    def _fill(self, events: Iterable[list[tuple[ItemId, float]]], positions: dict) -> None:
        # A first occurrence is stored as its final pair; an item seen again
        # grows a list pair in ``more``, frozen into the index at the end.
        # ``positions`` holds event k's one ``(k,)`` under k, a cheaper key
        # than the tuple, and every longer position tuple under itself.
        index: dict[ItemId, Occurrences] = {}
        more: dict[ItemId, tuple[list[int], list[float]]] = {}
        for k, pairs in enumerate(events):
            pairs.sort()  # the one place that orders an event's items
            first = positions.get(k) or positions.setdefault(k, (k,))
            for item, p in pairs:
                occ = index.get(item)
                if occ is None:
                    index[item] = (first, (p,))
                    continue
                ks, ps = more.get(item) or more.setdefault(item, (list(occ[0]), list(occ[1])))
                if ks[-1] == k:
                    raise MiningError(f"duplicate item {item!r} in event")
                ks.append(k)
                ps.append(p)
        if not index:  # no event is empty, so an empty index means no event
            raise MiningError("sequence has no events")
        for item, (ks, ps) in more.items():  # an existing key keeps its place
            ks = tuple(ks)
            index[item] = (positions.setdefault(ks, ks), tuple(ps))
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "n_events", k + 1)

    def event_maps(self) -> list[dict[ItemId, float]]:
        """Each event as item -> probability, items in index order."""
        maps: list[dict[ItemId, float]] = [{} for _ in range(self.n_events)]
        for item, (ks, ps) in self.index.items():
            for k, p in zip(ks, ps):
                maps[k][item] = p
        return maps

    @property
    def events(self) -> tuple[Event, ...]:
        return tuple(Event(tuple(map(ProbItem._make, sorted(m.items())))) for m in self.event_maps())


@dataclass(frozen=True)
class UncertainDatabase:
    sequences: tuple[USequence, ...]

    @property
    def size(self) -> int:
        return len(self.sequences)

    def __iter__(self) -> Iterator[USequence]:
        return iter(self.sequences)

    def alphabet(self) -> list[ItemId]:
        return sorted({item for seq in self.sequences for item in seq.index})

    def item_frequencies(self) -> dict[ItemId, int]:
        """Occurrence count per item over the whole database, in order of
        first occurrence. A database never changes, so the count is made
        once and kept: a uWSInc+ step's local mine and its fold both read
        the increment's, and each call returns its own copy."""
        freq = self.__dict__.get("_freq")
        if freq is None:
            freq = {}
            for seq in self.sequences:
                for item, (ks, _) in seq.index.items():
                    freq[item] = freq.get(item, 0) + len(ks)
            object.__setattr__(self, "_freq", freq)
        return dict(freq)

    @staticmethod
    def concat(parts: list["UncertainDatabase"]) -> "UncertainDatabase":
        """Append databases in order."""
        return UncertainDatabase(tuple(seq for part in parts for seq in part.sequences))


@dataclass(frozen=True)
class WeightTable:
    """Significance weight per item, each in (0, 1]."""

    entries: dict[ItemId, float]

    def __post_init__(self):
        if not isinstance(self.entries, Mapping):
            raise MiningError(f"weights {self.entries!r} are not a mapping of item to weight")
        entries = {
            check_item_token(it): _checked_unit("weight", it, w) for it, w in self.entries.items()
        }
        object.__setattr__(self, "entries", entries)

    @classmethod
    def checked(cls, entries: dict[ItemId, float]) -> WeightTable:
        """A table of entries its reader checked as it read each line."""
        table = object.__new__(cls)
        object.__setattr__(table, "entries", entries)
        return table

    def weight(self, item: ItemId) -> float:
        try:
            return self.entries[item]
        except KeyError:
            raise MissingWeightError(item) from None


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
    the final itemset, mirroring the ascending order inside events. That is
    the only check: ``pattern`` is valid already, so the result is built
    without re-checking every itemset, and a chain of n extensions costs O(n)
    checks rather than O(n²).
    """
    if kind == "S":
        events = pattern.events + ((item,),)
    elif kind == "I":
        last = pattern.events[-1]
        if item <= last[-1]:
            raise ValueError(
                f"i-extension item {item!r} must sort after {last[-1]!r} in itemset {last}"
            )
        events = pattern.events[:-1] + (last + (item,),)
    else:
        raise ValueError(f"unknown extension kind {kind!r}")
    out = object.__new__(Pattern)
    object.__setattr__(out, "events", events)  # frozen: as the generated __init__ does
    return out


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
        check_nonnegative("weighted expected support", self.wes)


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
        """Add ``db``'s sums; an item without a weight raises
        ``MissingWeightError`` (the first one in order of first occurrence)
        before any sum changes."""
        freqs = [(freq, weights.weight(item)) for item, freq in db.item_frequencies().items()]
        for freq, w in freqs:
            self.weighted_freq_sum += freq * w
            self.freq_sum += freq


@dataclass(frozen=True)
class Thresholds:
    wam: float
    min_wes: float
    min_wes_prime: float

    @staticmethod
    def compute(min_sup: float, db_size: int, wam: float, wgt_fct: float, mu: float) -> "Thresholds":
        """The one definition of minWES; minWES' scales it by the buffer ratio mu."""
        min_wes = min_sup * db_size * wam * wgt_fct
        return Thresholds(wam=wam, min_wes=min_wes, min_wes_prime=min_wes * mu)
