"""Brute-force reference implementations used to validate the mining engine.

Everything here is intentionally naive: exhaustive embedding enumeration and
level-wise pattern enumeration, guarded to desk-scale inputs.
"""

from __future__ import annotations

from .model import (
    ItemId,
    MiningError,
    Pattern,
    ScoredPattern,
    UncertainDatabase,
    USequence,
    WeightTable,
    extend,
    meets,
    s_weight,
    single,
)

MAX_SEQUENCES = 20
MAX_EVENTS = 8
MAX_ALPHABET = 8
MAX_EMBEDDINGS = 10**6


class OracleSizeError(MiningError):
    """Input exceeds the oracle's size guard."""


def oracle_max_pr_s(pattern: Pattern, seq: USequence) -> float:
    """Max over all embeddings of the product of matched probabilities.

    An embedding assigns each pattern itemset to one event, itemsets to
    strictly later events in order, with every item of the itemset present in
    its event. Returns 0.0 when no embedding exists. ``oracle_mine`` builds
    each sequence's ``event_maps()`` once and calls ``_max_pr_enum`` on them.
    """
    return _max_pr_enum(pattern, seq.event_maps())


def _max_pr_enum(pattern: Pattern, event_maps: list[dict[ItemId, float]]) -> float:
    n = len(event_maps)
    counter = 0

    def itemset_prob(itemset: tuple[ItemId, ...], k: int) -> float | None:
        prod = 1.0
        for item in itemset:
            p = event_maps[k].get(item)
            if p is None:
                return None
            prod *= p
        return prod

    def rec(start: int, idx: int, prod: float) -> float:
        nonlocal counter
        if idx == len(pattern.events):
            return prod
        best = 0.0
        for k in range(start, n):
            p = itemset_prob(pattern.events[idx], k)
            if p is not None:
                counter += 1
                if counter > MAX_EMBEDDINGS:
                    raise OracleSizeError(
                        f"embedding enumeration exceeded {MAX_EMBEDDINGS} "
                        f"in a sequence of {n} events"
                    )
                v = rec(k + 1, idx + 1, prod * p)
                if v > best:
                    best = v
        return best

    return rec(0, 0, 1.0)


def max_pr_dynamic(pattern: Pattern, seq: USequence) -> float:
    """Prefix-best-product table for the same quantity as oracle_max_pr_s.

    Independent of both the enumeration above and the trie scan; the three
    must agree. It reads only the pattern's items from ``seq.index``.
    """
    n = seq.n_events
    prev = [1.0] * (n + 1)  # prev[k]: best for first j itemsets ending before event k
    for itemset in pattern.events:
        prods = dict.fromkeys(range(n), 1.0)  # event -> product of the itemset so far
        for item in itemset:
            ks, ps = seq.index.get(item, ((), ()))
            prods = {k: prods[k] * p for k, p in zip(ks, ps) if k in prods}
        cur = [0.0] * (n + 1)
        best_so_far = 0.0
        for k in range(n):
            prod = prods.get(k, 0.0)
            here = prod * prev[k] if prod > 0.0 else 0.0
            if here > best_so_far:
                best_so_far = here
            cur[k + 1] = best_so_far
        prev = cur
    return prev[n]


def oracle_exp_sup(pattern: Pattern, db: UncertainDatabase) -> float:
    return sum(oracle_max_pr_s(pattern, seq) for seq in db.sequences)


def oracle_wes(pattern: Pattern, db: UncertainDatabase, weights: WeightTable) -> float:
    return oracle_exp_sup(pattern, db) * s_weight(pattern, weights)


def _check_guard(db: UncertainDatabase) -> None:
    if db.size > MAX_SEQUENCES:
        raise OracleSizeError(f"{db.size} sequences exceeds oracle guard of {MAX_SEQUENCES}")
    for pos, seq in enumerate(db.sequences, start=1):
        if seq.n_events > MAX_EVENTS:
            raise OracleSizeError(
                f"sequence {pos} has {seq.n_events} events, guard is {MAX_EVENTS}"
            )
    alpha = db.alphabet()
    if len(alpha) > MAX_ALPHABET:
        raise OracleSizeError(f"alphabet of {len(alpha)} exceeds oracle guard of {MAX_ALPHABET}")


def oracle_mine(db: UncertainDatabase, weights: WeightTable, min_wes: float) -> list[ScoredPattern]:
    """Exhaustive miner: every pattern with weighted expected support >= min_wes.

    Expansion stops once expected support times the global max weight falls
    under the threshold; expected support is anti-monotone, so no qualifying
    super-pattern is lost. Weighted expected support itself is not
    anti-monotone and only the final filter uses it.
    """
    _check_guard(db)
    alphabet = db.alphabet()
    max_w = max(weights.entries.values(), default=0.0)
    db_maps = [seq.event_maps() for seq in db.sequences]  # built once, not per visit
    out: list[ScoredPattern] = []

    def visit(pattern: Pattern) -> None:
        es = sum(_max_pr_enum(pattern, maps) for maps in db_maps)
        if es <= 0.0 or not meets(es * max_w, min_wes):
            return
        wes = es * s_weight(pattern, weights)
        if meets(wes, min_wes):
            out.append(ScoredPattern(pattern, wes))
        last = pattern.last_item
        for item in alphabet:
            if item > last:
                visit(extend(pattern, item, "I"))
        for item in alphabet:
            visit(extend(pattern, item, "S"))

    for item in alphabet:
        visit(single(item))
    return out
