"""Incremental maintenance of the weighted frequent set as a database grows.

Two strategies share one state object and one fold (``_fold``): it rejects
an item without a weight, on a trie edge or in the increment, before any
state changes; then the WAM sums grow, every tracked pattern, in both tries,
gets the increment's contributions in one scan per trie, and the database
size grows with it.

* ``uwsinc_step``: rescan nothing; fold the increment, then drop from
  ``seq_trie`` what fell under the buffered threshold minWES'. Dropped
  patterns are gone for good. It keeps no promising buffer, and empties one
  loaded from a uwsinc+ checkpoint.
* ``uwsincplus_step``: additionally mine the increment itself for locally
  frequent patterns. One rule then places every tracked pattern and every
  locally frequent newcomer: ``seq_trie`` if it meets minWES', else the
  "promising" ``pfs_trie`` if it meets the local threshold, else neither. So
  patterns that surge later can still be picked up.

Patterns that enter through the local route carry only their support since
entry; their earlier occurrences are never rescanned, so reported values
never overshoot the truth.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
from dataclasses import dataclass

from . import dataio
from .fuws import mine_trie
from .model import (
    ItemId,
    MiningError,
    MiningParams,
    MissingWeightError,
    ScoredPattern,
    Thresholds,
    UncertainDatabase,
    WamAccumulator,
    WeightTable,
    check_nonnegative,
    meets,
)
from .trie import USeqTrie, sup_calc


@dataclass
class IncrementalState:
    seq_trie: USeqTrie  # frequent + semi-frequent, tracked exactly
    pfs_trie: USeqTrie  # promising buffer; uwsinc_step empties it
    db_size: int
    wam_acc: WamAccumulator
    params: MiningParams
    weights: WeightTable

    def thresholds(self) -> Thresholds:
        return Thresholds.compute(
            self.params.min_sup, self.db_size, self.wam_acc.wam, self.params.wgt_fct, self.params.mu
        )


def init_mining(
    db: UncertainDatabase, weights: WeightTable, params: MiningParams
) -> IncrementalState:
    """Mine the initial database at the buffered threshold and seed the state."""
    if db.size == 0:
        raise MiningError("initial database is empty")
    seq_trie, stats = mine_trie(db, weights, params.min_sup * params.mu, params.wgt_fct)
    return IncrementalState(
        seq_trie=seq_trie,
        pfs_trie=USeqTrie(),
        db_size=db.size,
        wam_acc=stats.wam_acc,
        params=params,
        weights=weights,
    )


def _unweighted(tries: tuple[USeqTrie, ...], weights: WeightTable) -> ItemId | None:
    """The least item on an edge of ``tries`` that ``weights`` lacks, if any."""
    held: set[ItemId] = set()
    stack = [trie.root for trie in tries]
    while stack:
        for (_, item), child in stack.pop().children.items():
            held.add(item)
            stack.append(child)
    return min(held - weights.entries.keys(), default=None)


def _fold(state: IncrementalState, delta: UncertainDatabase) -> Thresholds:
    """Add ``delta`` to the database counts and to every tracked pattern;
    returns the thresholds over the grown database. An unweighted item, on a
    trie edge or in ``delta``, raises ``MissingWeightError`` first."""
    if (item := _unweighted((state.seq_trie, state.pfs_trie), state.weights)) is not None:
        raise MissingWeightError(item)
    state.wam_acc.add(delta, state.weights)
    for trie in (state.seq_trie, state.pfs_trie):
        if trie.root.children:
            sup_calc(trie, delta, state.weights)
    state.db_size += delta.size
    return state.thresholds()


def uwsinc_step(state: IncrementalState, delta: UncertainDatabase) -> list[ScoredPattern]:
    """Fold one increment into the tracked set; returns the frequent patterns."""
    th = _fold(state, delta)
    state.pfs_trie = USeqTrie()  # after the fold, which may still reject delta
    state.seq_trie.prune_below(th.min_wes_prime)
    return state.seq_trie.collect(th.min_wes)


def uwsincplus_step(state: IncrementalState, delta: UncertainDatabase) -> list[ScoredPattern]:
    """Fold one increment, keeping the promising buffer; returns the frequent set.

    The local mine runs first and rejects an unweighted item before any state
    changes. It runs under ``bound="exact"``, so growth gives each candidate
    its wes in ``delta`` and no scan runs. A tracked pattern keeps its longer
    history, read from the fold, so the local mine stores only the
    newcomers; each enters with its support in ``delta`` alone. The mine and
    the fold share one count of ``delta``'s item frequencies.
    """
    p = state.params
    seq, pfs = state.seq_trie, state.pfs_trie
    lfs_trie, local = mine_trie(delta, state.weights, p.lwes_factor * p.min_sup * p.mu, p.wgt_fct,
                                bound="exact", known=(seq, pfs))
    th = _fold(state, delta)
    placed = [(pat, wes, trie) for trie in (seq, pfs) for pat, wes in trie.patterns()]
    placed += [(pat, wes, None) for pat, wes in lfs_trie.patterns()]
    for pat, wes, trie in placed:
        home = seq if meets(wes, th.min_wes_prime) else pfs if meets(wes, local.min_wes) else None
        if home is not trie:
            if trie is not None:
                trie.remove(pat)
            if home is not None:
                home.insert(pat, wes)
    return seq.collect(th.min_wes)


# -- checkpointing ---------------------------------------------------------
# Text form: a header line "version weights_sha256 db_size wam_num wam_den
# min_sup wgt_fct mu lwes_factor", then the two trie snapshots introduced by
# "[seq-trie]" and "[pfs-trie]" section lines. The digest is taken over the
# weight table the state was mined with (``_weights_digest``); a state resumed
# under other weights would mix two sets of wes values.

CHECKPOINT_VERSION = "useqmine-checkpoint/2"
CHECKPOINT_SEQ = "[seq-trie]"
CHECKPOINT_PFS = "[pfs-trie]"


def _weights_digest(weights: WeightTable) -> str:
    """SHA-256 of the table's ``item weight!r`` lines, sorted by item."""
    text = "".join(f"{item} {w!r}\n" for item, w in sorted(weights.entries.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def save_state(state: IncrementalState, path: str) -> None:
    """Write a checkpoint; the previous file at ``path`` survives a failed save.

    The text goes to ``path + ".tmp"`` in the same directory, is synced, and
    is then renamed over ``path`` in one step.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            p = state.params
            fh.write(
                f"{CHECKPOINT_VERSION} {_weights_digest(state.weights)} "
                f"{state.db_size} {state.wam_acc.weighted_freq_sum!r} {state.wam_acc.freq_sum} "
                f"{p.min_sup!r} {p.wgt_fct!r} {p.mu!r} {p.lwes_factor!r}\n"
            )
            fh.write(CHECKPOINT_SEQ + "\n")
            fh.write(state.seq_trie.snapshot())
            fh.write(CHECKPOINT_PFS + "\n")
            fh.write(state.pfs_trie.snapshot())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_state(path: str, weights: WeightTable) -> IncrementalState:
    """Read a checkpoint written by ``save_state`` with the same weight table.

    Raises ``MiningError`` for another format version, for a state mined
    with other weights, for WAM sums no saved state can hold, for a pattern
    held in both tries, for a trie item without a weight, and for a
    malformed file; a byte that is not UTF-8, a malformed header or a
    malformed trie line raises ``ParseError`` naming the path and the line.
    """
    lines = [line.rstrip("\n") for _, line in dataio._lines(path)]
    if not lines:
        raise MiningError(f"empty checkpoint {path}")
    head = lines[0].split()
    if not head or head[0] != CHECKPOINT_VERSION:
        found = repr(head[0]) if head else "nothing"
        raise MiningError(
            f"checkpoint {path} is not format {CHECKPOINT_VERSION} (found {found})"
        )
    if len(head) != 9:
        raise dataio.ParseError(path, 1, f"checkpoint header needs 9 fields, got {len(head)}")
    if head[1] != _weights_digest(weights):
        raise MiningError(
            f"checkpoint {path} was written with a different weight table; refusing to resume"
        )
    try:
        db_size = int(head[2])
        wam_num = float(head[3])
        wam_den = int(head[4])
        params = MiningParams(
            min_sup=float(head[5]),
            wgt_fct=float(head[6]),
            mu=float(head[7]),
            lwes_factor=float(head[8]),
        )
    except ValueError as exc:
        raise dataio.ParseError(path, 1, f"bad checkpoint header: {exc}") from None
    for name, value in (("db_size", db_size), ("wam_num", wam_num), ("wam_den", wam_den)):
        check_nonnegative(f"checkpoint {name}", value)
    # A saved state holds a sequence, an item per sequence and weights in (0, 1].
    if not (1 <= db_size <= wam_den and 0.0 < wam_num <= wam_den):
        raise MiningError(f"checkpoint {path} holds WAM sums {wam_num!r} / {wam_den} over "
                          f"{db_size} sequences, which no saved state can hold")
    if lines[1:2] != [CHECKPOINT_SEQ] or lines.count(CHECKPOINT_PFS) != 1:
        raise MiningError(
            f"checkpoint {path} needs {CHECKPOINT_SEQ} as line 2 and one {CHECKPOINT_PFS} line"
        )
    pfs_at = lines.index(CHECKPOINT_PFS)
    error = functools.partial(dataio.ParseError, path)  # numbered as lines of the file
    seq_trie = USeqTrie.from_snapshot(enumerate(lines[2:pfs_at], start=3), error)
    pfs_trie = USeqTrie.from_snapshot(enumerate(lines[pfs_at + 1 :], start=pfs_at + 2), error)
    for pat, _ in pfs_trie.patterns():
        if pat in seq_trie:
            raise MiningError(f"checkpoint holds {dataio.format_pattern(pat)} in both tries")
    if (item := _unweighted((seq_trie, pfs_trie), weights)) is not None:
        raise MiningError(f"checkpoint {path} holds item {item!r}, which has no weight")
    return IncrementalState(
        seq_trie=seq_trie,
        pfs_trie=pfs_trie,
        db_size=db_size,
        wam_acc=WamAccumulator(weighted_freq_sum=wam_num, freq_sum=wam_den),
        params=params,
        weights=weights,
    )
