"""File formats, dataset generation, and splitting.

Uncertain sequence file: one sequence per line, whitespace-separated tokens.
``item:prob`` is an item occurrence, ``-1`` closes an event, ``-2`` closes the
sequence and must be the last token; precise SPMF sequence files follow the
same grammar with bare items. Items inside an event are re-sorted ascending on
load, by ``USequence``. Weight file: ``item weight`` per line. The readers
build sequences straight into their item index, checking each distinct item
once per file and each probability and event as they go, and storing each
distinct position tuple once per file; every error names its line.

Generation turns a precise SPMF dataset into an uncertain weighted one by
drawing a Gaussian probability per item occurrence and a Gaussian weight per
distinct item, clamped into [0.01, 1.0]. Draws come from an explicitly pinned
generator (xoshiro256** seeded through splitmix64, Box-Muller transform, one
pair of uniforms consumed per Gaussian, cosine branch kept) so equal seeds
give byte-identical outputs anywhere.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass

from .model import (
    ItemId,
    MiningError,
    Pattern,
    ScoredPattern,
    UncertainDatabase,
    USequence,
    WeightTable,
    check_item_token,
    check_positive,
)


class ParseError(MiningError):
    def __init__(self, path: str, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


def _lines(path: str) -> Iterator[tuple[int, str]]:
    """Each line of a UTF-8 text file with its 1-based number.

    The one reader of the package's input files. A byte-order mark opening
    the file is dropped, by hand: the ``utf-8-sig`` codec would also drop,
    silently, a file holding only a mark's first bytes. A byte that is not
    UTF-8 raises ``ParseError`` naming its line; other lines read as in text
    mode.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno == 1:
                line = line.removeprefix("\ufeff")
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00  # surrogateescape's mapping
                    raise ParseError(
                        path, lineno, f"byte 0x{byte:02x} at column {exc.start + 1} is not UTF-8"
                    ) from None
            yield lineno, line


# -- pinned pseudo-random generator -----------------------------------------

_MASK64 = (1 << 64) - 1


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 state expansion from a 64-bit seed."""

    def __init__(self, seed: int):
        sm = seed & _MASK64
        state = []
        for _ in range(4):
            sm = (sm + 0x9E3779B97F4A7C15) & _MASK64
            z = sm
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            state.append(z ^ (z >> 31))
        self._s = state

    def next_u64(self) -> int:
        s = self._s
        result = (((s[1] * 5) & _MASK64) << 7 | ((s[1] * 5) & _MASK64) >> 57) & _MASK64
        result = (result * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = ((s[3] << 45) | (s[3] >> 19)) & _MASK64
        return result

    def uniform(self) -> float:
        """53-bit uniform in (0, 1]."""
        return ((self.next_u64() >> 11) + 1) * (2.0**-53)

    def gauss(self, mean: float, std: float) -> float:
        u1 = self.uniform()
        u2 = self.uniform()
        return mean + std * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def _clamp01(x: float) -> float:
    return min(1.0, max(0.01, x))


def _check_seed(seed: int) -> None:
    """A seed of the pinned generator: an ``int``, not a ``bool``, in [0, 2**64)."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise MiningError(f"seed must be an int that fits in 64 bits: {seed!r}")


@dataclass(frozen=True)
class GenConfig:
    seed: int
    prob_mean: float = 0.5
    prob_std: float = 0.25
    weight_mean: float = 0.5
    weight_std: float = 0.125

    def __post_init__(self):
        _check_seed(self.seed)
        for name in ("prob_mean", "weight_mean"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise MiningError(f"{name} out of (0, 1): {v}")
        check_positive("prob_std", self.prob_std)
        check_positive("weight_std", self.weight_std)


@dataclass(frozen=True)
class SplitSpec:
    """Contiguous split: an initial fraction, then increments, each a fraction
    of the initial size (``draw_fractions`` draws them at random)."""

    initial_fraction: float
    increment_fractions: tuple[float, ...] = ()

    def __post_init__(self):
        check_positive("initial_fraction", self.initial_fraction, 1.0)
        try:
            fractions = tuple(self.increment_fractions)
        except TypeError:
            raise MiningError(f"increment fractions {self.increment_fractions!r} "
                              "are not a sequence of numbers") from None
        for f in fractions:
            check_positive("increment fraction", f)
        object.__setattr__(self, "increment_fractions", fractions)


def draw_fractions(ratio_range: tuple[float, float], count: int, seed: int) -> tuple[float, ...]:
    """``count`` increment fractions drawn uniformly from ``ratio_range`` by
    the pinned generator seeded with ``seed``. A bool is refused as a count
    or a range end, as it is as a seed."""
    try:
        lo, hi = ratio_range
        ok = bool not in (type(lo), type(hi)) and 0.0 < lo <= hi < math.inf
    except (TypeError, ValueError):  # not a pair, or not numbers
        ok = False
    if not ok:
        raise MiningError(f"bad ratio range: {ratio_range!r}")
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise MiningError(f"count must be a positive int: {count!r}")
    _check_seed(seed)
    rng = Xoshiro256StarStar(seed)
    return tuple(lo + (hi - lo) * rng.uniform() for _ in range(count))


# -- sequence files -----------------------------------------------------------


def _events(tokens: list[str]) -> list[list[str]]:
    """Split a sequence line's tokens into its events' tokens.

    The one ``-1`` / ``-2`` grammar, shared by uncertain and precise SPMF
    sequence files: ``-1`` closes a non-empty event and ``-2`` closes the
    sequence as the last token. Raises ``MiningError``; readers add the line.
    """
    if tokens[-1] != "-2":
        raise MiningError("sequence must end with -2")
    events: list[list[str]] = []
    current: list[str] = []
    for tok in tokens[:-1]:
        if tok == "-1":
            if not current:
                raise MiningError("empty event")
            events.append(current)
            current = []
        elif tok == "-2":
            raise MiningError("-2 before end of line")
        else:
            current.append(tok)
    if current:
        raise MiningError("event not closed with -1 before -2")
    if not events:
        raise MiningError("sequence has no events")
    return events


def parse_uncertain_db(path: str) -> UncertainDatabase:
    """Read an uncertain sequence file. A line's grammar error comes first;
    then, event by event, each token's shape, number, item (once per distinct
    token, which its occurrences then share) and probability range are
    checked in turn, then the event's repeated items.

    One walk of a line's tokens feeds ``_fill``, behind a check that the line
    ends ``-1 -2``; the walk refuses an empty event, and an earlier ``-2`` as
    a malformed token. On any refusal ``_events``, the one grammar, reads the
    line again, so a grammar error wins."""
    seen: dict[str, ItemId] = {}
    positions: dict = {}  # the file's position tuples, one object each

    def events(tokens: list[str]) -> Iterator[list[tuple[ItemId, float]]]:
        pairs: list[tuple[ItemId, float]] = []
        for tok in tokens[:-1]:
            if tok == "-1":
                if not pairs:
                    raise MiningError("empty event")
                yield pairs
                pairs = []
                continue
            item, sep, prob_s = tok.partition(":")
            if not sep or not item or not prob_s:
                raise MiningError(f"malformed token {tok!r}, expected item:prob")
            try:
                prob = float(prob_s)
            except ValueError:
                raise MiningError(f"bad probability in {tok!r}") from None
            item = seen.get(item) or seen.setdefault(item, check_item_token(item))
            if not 0.0 < prob <= 1.0:
                raise MiningError(f"probability of {item!r} out of (0, 1]: {prob}")
            pairs.append((item, prob))

    sequences: list[USequence] = []
    for lineno, line in _lines(path):
        tokens = line.split()
        if not tokens:
            continue
        try:
            if tokens[-2:] != ["-1", "-2"]:
                _events(tokens)  # raises this line's grammar error
            sequences.append(USequence.of(events(tokens), positions))
        except MiningError as exc:
            try:
                _events(tokens)
            except MiningError as grammar:
                exc = grammar
            raise ParseError(path, lineno, str(exc)) from None
    return UncertainDatabase(tuple(sequences))


def write_uncertain_db(path: str, db: UncertainDatabase) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for seq in db.sequences:
            parts: list[str] = []
            for probs in seq.event_maps():
                parts.extend(f"{item}:{prob!r}" for item, prob in sorted(probs.items()))
                parts.append("-1")
            parts.append("-2")
            fh.write(" ".join(parts) + "\n")


def parse_weights(path: str) -> WeightTable:
    entries: dict[ItemId, float] = {}
    for lineno, line in _lines(path):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ParseError(path, lineno, f"expected 'item weight', got {line.strip()!r}")
        item, w_s = parts
        try:
            check_item_token(item)
        except MiningError as exc:
            raise ParseError(path, lineno, str(exc)) from None
        try:
            w = float(w_s)
        except ValueError:
            raise ParseError(path, lineno, f"bad weight {w_s!r}") from None
        if not 0.0 < w <= 1.0:
            raise ParseError(path, lineno, f"weight out of (0, 1]: {w}")
        if item in entries:
            raise ParseError(path, lineno, f"duplicate weight for {item!r}")
        entries[item] = w
    return WeightTable.checked(entries)


def write_weights(path: str, weights: WeightTable) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for item in sorted(weights.entries):
            fh.write(f"{item} {weights.entries[item]!r}\n")


# -- dataset generation -------------------------------------------------------


def gen_uncertain(path: str, cfg: GenConfig, fmt: str = "spmf-seq") -> tuple[UncertainDatabase, WeightTable]:
    """Read a precise SPMF file, assigning probabilities per occurrence and
    weights per distinct item.

    ``spmf-seq`` lines follow the sequence grammar with bare items;
    ``spmf-itemset`` lines are one transaction each, every item its own
    event. Items repeated within an event (within a transaction) are dropped.
    Each distinct item token is checked once, so an item holding ``:`` or a
    separator token in a transaction is an error naming its line.

    Draws happen in file order: all probabilities first (sequence by
    sequence, event by event, items in their input order), then one weight
    per distinct item in first-appearance order.
    """
    if fmt not in ("spmf-seq", "spmf-itemset"):
        raise MiningError(f"unknown input format {fmt!r}")
    rng = Xoshiro256StarStar(cfg.seed)
    seen: dict[ItemId, float] = {}  # keys in first-appearance order
    positions: dict = {}  # the file's position tuples, one object each
    sequences: list[USequence] = []
    for lineno, line in _lines(path):
        tokens = line.split()
        if not tokens:
            continue
        try:
            raw = _events(tokens) if fmt == "spmf-seq" else [[tok] for tok in dict.fromkeys(tokens)]
            events = [
                {it: _clamp01(rng.gauss(cfg.prob_mean, cfg.prob_std)) for it in dict.fromkeys(items)}
                for items in raw
            ]
            seq = USequence.of([list(probs.items()) for probs in events], positions)
            for item in seq.index:  # new tokens in index order: ascending inside an event
                if item not in seen:
                    check_item_token(item)
            for probs in events:
                seen.update(probs)
            sequences.append(seq)
        except MiningError as exc:
            raise ParseError(path, lineno, str(exc)) from None
    # Every token in ``seen`` is checked and every weight clamped into [0.01, 1.0].
    entries = {
        item: _clamp01(rng.gauss(cfg.weight_mean, cfg.weight_std)) for item in seen
    }
    return UncertainDatabase(tuple(sequences)), WeightTable.checked(entries)


# -- splitting ----------------------------------------------------------------


def split_db(db: UncertainDatabase, spec: SplitSpec) -> tuple[UncertainDatabase, list[UncertainDatabase]]:
    """Order-preserving contiguous split into an initial part plus increments."""
    total = db.size
    initial_size = max(1, min(total, round(spec.initial_fraction * total)))
    sizes = [max(1, round(f * initial_size)) for f in spec.increment_fractions]
    ends = list(itertools.accumulate(sizes, initial=initial_size))
    if ends[-1] > total:
        raise MiningError(f"split needs {ends[-1]} sequences, file has {total}")
    parts = [UncertainDatabase(db.sequences[a:b]) for a, b in zip([0, *ends], ends)]
    return parts[0], parts[1:]


# -- pattern output -----------------------------------------------------------


def format_pattern(pattern: Pattern) -> str:
    return "".join("(" + " ".join(ev) + ")" for ev in pattern.events)


def parse_pattern(text: str) -> Pattern:
    text = text.strip()
    if not text.startswith("(") or not text.endswith(")"):
        raise MiningError(f"bad pattern text {text!r}")
    chunks = text[1:-1].split(")(")
    return Pattern(tuple(tuple(map(check_item_token, chunk.split())) for chunk in chunks))


def pattern_lines(patterns: list[ScoredPattern], fmt: str = "tsv") -> list[str]:
    """Each pattern as one output line in ``fmt``: the one pattern writer, for
    a file and for standard output alike."""
    if fmt == "tsv":
        return [f"{format_pattern(sp.pattern)}\t{sp.wes:.6f}\n" for sp in patterns]
    if fmt == "json-lines":
        return [
            json.dumps({"events": [list(ev) for ev in sp.pattern.events], "wes": sp.wes}) + "\n"
            for sp in patterns
        ]
    raise MiningError(f"unknown pattern format {fmt!r}")


def write_patterns(path: str, patterns: list[ScoredPattern], fmt: str = "tsv") -> None:
    lines = pattern_lines(patterns, fmt)  # before open: an unknown fmt leaves the file alone
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def read_patterns_tsv(path: str) -> list[ScoredPattern]:
    out: list[ScoredPattern] = []
    for lineno, line in _lines(path):
        if not line.strip():
            continue
        try:
            text, wes_s = line.rstrip("\n").split("\t")
            out.append(ScoredPattern(parse_pattern(text), float(wes_s)))
        except (ValueError, MiningError) as exc:
            raise ParseError(path, lineno, f"bad pattern line: {exc}") from None
    return out
