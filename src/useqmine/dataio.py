"""File formats, dataset generation, and splitting.

Uncertain sequence file: one sequence per line, whitespace-separated tokens.
``item:prob`` is an item occurrence, ``-1`` closes an event, ``-2`` closes the
sequence and must be the last token. Items inside an event are re-sorted
ascending on load. Weight file: ``item weight`` per line.

Generation turns a precise SPMF dataset into an uncertain weighted one by
drawing a Gaussian probability per item occurrence and a Gaussian weight per
distinct item, clamped into [0.01, 1.0]. Draws come from an explicitly pinned
generator (xoshiro256** seeded through splitmix64, Box-Muller transform, one
pair of uniforms consumed per Gaussian, cosine branch kept) so equal seeds
give byte-identical outputs anywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .model import (
    Event,
    ItemId,
    MiningError,
    Pattern,
    ProbItem,
    RESERVED_TOKENS,
    ScoredPattern,
    UncertainDatabase,
    USequence,
    WeightTable,
    check_item_token,
)


class ParseError(MiningError):
    def __init__(self, path: str, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


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


@dataclass(frozen=True)
class GenConfig:
    seed: int
    prob_mean: float = 0.5
    prob_std: float = 0.25
    weight_mean: float = 0.5
    weight_std: float = 0.125

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise MiningError(f"seed must fit in 64 bits: {self.seed}")
        for name in ("prob_mean", "weight_mean"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise MiningError(f"{name} out of (0, 1): {v}")
        for name in ("prob_std", "weight_std"):
            v = getattr(self, name)
            if v <= 0.0:
                raise MiningError(f"{name} must be positive: {v}")


@dataclass(frozen=True)
class SplitSpec:
    """Contiguous split: an initial fraction, then increments.

    Increments are either explicit fractions of the initial size, or ``count``
    sizes drawn uniformly from ``ratio_range`` with the given seed.
    """

    initial_fraction: float
    increment_fractions: tuple[float, ...] | None = None
    ratio_range: tuple[float, float] | None = None
    count: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if not 0.0 < self.initial_fraction <= 1.0:
            raise MiningError(f"initial_fraction out of (0, 1]: {self.initial_fraction}")
        ranged = self.ratio_range is not None
        listed = self.increment_fractions is not None
        if ranged and listed:
            raise MiningError("give increment_fractions or ratio_range, not both")
        if listed and any(f <= 0.0 for f in self.increment_fractions):
            raise MiningError("increment fractions must be positive")
        if ranged:
            lo, hi = self.ratio_range
            if not 0.0 < lo <= hi:
                raise MiningError(f"bad ratio range: {self.ratio_range}")
            if self.count is None or self.count < 1:
                raise MiningError("ratio_range needs a positive count")
            if self.seed is None:
                raise MiningError("ratio_range needs a seed")


# -- uncertain sequence format ----------------------------------------------


def _parse_sequence_tokens(tokens: list[str], path: str, lineno: int) -> tuple[Event, ...]:
    if tokens[-1] != "-2":
        raise ParseError(path, lineno, "sequence must end with -2")
    events: list[Event] = []
    current: dict[ItemId, float] = {}
    for tok in tokens[:-1]:
        if tok == "-2":
            raise ParseError(path, lineno, "-2 before end of line")
        if tok == "-1":
            if not current:
                raise ParseError(path, lineno, "empty event")
            items = tuple(ProbItem(it, current[it]) for it in sorted(current))
            events.append(Event(items))
            current = {}
            continue
        item, sep, prob_s = tok.partition(":")
        if not sep or not item or not prob_s:
            raise ParseError(path, lineno, f"malformed token {tok!r}, expected item:prob")
        if item in RESERVED_TOKENS:
            raise ParseError(path, lineno, f"reserved item token {item!r}")
        try:
            prob = float(prob_s)
        except ValueError:
            raise ParseError(path, lineno, f"bad probability in {tok!r}") from None
        if not 0.0 < prob <= 1.0:
            raise ParseError(path, lineno, f"probability out of (0, 1] in {tok!r}")
        if item in current:
            raise ParseError(path, lineno, f"duplicate item {item!r} in event")
        current[item] = prob
    if current:
        raise ParseError(path, lineno, "event not closed with -1 before -2")
    if not events:
        raise ParseError(path, lineno, "sequence has no events")
    return tuple(events)


def parse_uncertain_db(path: str) -> UncertainDatabase:
    sequences: list[USequence] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            events = _parse_sequence_tokens(tokens, path, lineno)
            sequences.append(USequence(events))
    return UncertainDatabase(tuple(sequences))


def write_uncertain_db(path: str, db: UncertainDatabase) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for seq in db.sequences:
            parts: list[str] = []
            for ev in seq.events:
                parts.extend(f"{pi.item}:{pi.prob!r}" for pi in ev.items)
                parts.append("-1")
            parts.append("-2")
            fh.write(" ".join(parts) + "\n")


def parse_weights(path: str) -> WeightTable:
    entries: dict[ItemId, float] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
    return WeightTable(entries)


def write_weights(path: str, weights: WeightTable) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for item in sorted(weights.entries):
            fh.write(f"{item} {weights.entries[item]!r}\n")


# -- dataset generation -------------------------------------------------------


def _read_spmf_structure(path: str, fmt: str) -> list[list[list[ItemId]]]:
    """Item structure of a precise SPMF file: sequences of events of items."""
    if fmt not in ("spmf-seq", "spmf-itemset"):
        raise MiningError(f"unknown input format {fmt!r}")
    out: list[list[list[ItemId]]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if fmt == "spmf-itemset":
                # One transaction per line; every item becomes its own event.
                seen: list[ItemId] = []
                for tok in tokens:
                    if tok in RESERVED_TOKENS:
                        raise ParseError(path, lineno, f"separator {tok} in itemset input")
                    if tok not in seen:
                        seen.append(tok)
                if not seen:
                    raise ParseError(path, lineno, "empty transaction")
                out.append([[it] for it in seen])
                continue
            if tokens[-1] != "-2":
                raise ParseError(path, lineno, "sequence must end with -2")
            events: list[list[ItemId]] = []
            current: list[ItemId] = []
            for tok in tokens[:-1]:
                if tok == "-2":
                    raise ParseError(path, lineno, "-2 before end of line")
                if tok == "-1":
                    if not current:
                        raise ParseError(path, lineno, "empty event")
                    events.append(current)
                    current = []
                    continue
                if ":" in tok:
                    raise ParseError(path, lineno, f"unexpected ':' in precise input {tok!r}")
                if tok not in current:  # drop in-event repeats from noisy inputs
                    current.append(tok)
            if current:
                raise ParseError(path, lineno, "event not closed with -1 before -2")
            if not events:
                raise ParseError(path, lineno, "sequence has no events")
            out.append(events)
    return out


def gen_uncertain(path: str, cfg: GenConfig, fmt: str = "spmf-seq") -> tuple[UncertainDatabase, WeightTable]:
    """Assign probabilities per occurrence and weights per distinct item.

    Draws happen in file order: all probabilities first (sequence by
    sequence, event by event, items in their input order), then one weight
    per distinct item in first-appearance order.
    """
    structure = _read_spmf_structure(path, fmt)
    rng = Xoshiro256StarStar(cfg.seed)
    first_seen: list[ItemId] = []
    seen: set[ItemId] = set()
    sequences: list[USequence] = []
    for events in structure:
        evs: list[Event] = []
        for items in events:
            probs = {}
            for item in items:
                probs[item] = _clamp01(rng.gauss(cfg.prob_mean, cfg.prob_std))
                if item not in seen:
                    seen.add(item)
                    first_seen.append(item)
            evs.append(Event(tuple(ProbItem(it, probs[it]) for it in sorted(probs))))
        sequences.append(USequence(tuple(evs)))
    entries = {
        item: _clamp01(rng.gauss(cfg.weight_mean, cfg.weight_std)) for item in first_seen
    }
    return UncertainDatabase(tuple(sequences)), WeightTable(entries)


# -- splitting ----------------------------------------------------------------


def split_db(db: UncertainDatabase, spec: SplitSpec) -> tuple[UncertainDatabase, list[UncertainDatabase]]:
    """Order-preserving contiguous split into an initial part plus increments."""
    total = db.size
    initial_size = round(spec.initial_fraction * total)
    initial_size = max(1, min(total, initial_size))
    if spec.increment_fractions is not None:
        sizes = [max(1, round(f * initial_size)) for f in spec.increment_fractions]
    elif spec.ratio_range is not None:
        lo, hi = spec.ratio_range
        rng = Xoshiro256StarStar(spec.seed)
        sizes = [
            max(1, round((lo + (hi - lo) * rng.uniform()) * initial_size))
            for _ in range(spec.count)
        ]
    else:
        sizes = []
    if initial_size + sum(sizes) > total:
        raise MiningError(
            f"split needs {initial_size + sum(sizes)} sequences, file has {total}"
        )

    initial = UncertainDatabase(db.sequences[:initial_size])
    increments = []
    at = initial_size
    for size in sizes:
        increments.append(UncertainDatabase(db.sequences[at : at + size]))
        at += size
    return initial, increments


# -- pattern output -----------------------------------------------------------


def format_pattern(pattern: Pattern) -> str:
    return "".join("(" + " ".join(ev) + ")" for ev in pattern.events)


def parse_pattern(text: str) -> Pattern:
    text = text.strip()
    if not text.startswith("(") or not text.endswith(")"):
        raise MiningError(f"bad pattern text {text!r}")
    events = []
    for chunk in text[1:-1].split(")("):
        items = tuple(chunk.split())
        if not items:
            raise MiningError(f"empty itemset in pattern text {text!r}")
        events.append(items)
    return Pattern(tuple(events))


def write_patterns(path: str, patterns: list[ScoredPattern], fmt: str = "tsv") -> None:
    if fmt not in ("tsv", "json-lines"):
        raise MiningError(f"unknown pattern format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for sp in patterns:
            if fmt == "tsv":
                fh.write(f"{format_pattern(sp.pattern)}\t{sp.wes:.6f}\n")
            else:
                fh.write(
                    json.dumps({"events": [list(ev) for ev in sp.pattern.events], "wes": sp.wes})
                    + "\n"
                )


def read_patterns_tsv(path: str) -> list[ScoredPattern]:
    out: list[ScoredPattern] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                text, wes_s = line.rstrip("\n").split("\t")
                out.append(ScoredPattern(parse_pattern(text), float(wes_s)))
            except (ValueError, MiningError) as exc:
                raise ParseError(path, lineno, f"bad pattern line: {exc}") from None
    return out
