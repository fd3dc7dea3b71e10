"""Incremental maintenance of the weighted frequent set as a database grows.

Two strategies share one state object:

* ``uwsinc_step``: rescan nothing; add each increment's contributions to the
  tracked patterns, refresh the thresholds, and drop what fell under the
  buffered threshold. Dropped patterns are gone for good.
* ``uwsincplus_step``: additionally mine the increment itself for locally
  frequent patterns and keep a second buffer of "promising" patterns that sit
  between the local threshold and the buffered global one, so patterns that
  surge later can still be picked up.

Patterns that enter through the local route carry only their support since
entry; their earlier occurrences are never rescanned, so reported values
never overshoot the truth.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from dataclasses import dataclass

from .fuws import mine_trie
from .model import (
    MiningError,
    MiningParams,
    ScoredPattern,
    Thresholds,
    UncertainDatabase,
    WamAccumulator,
    WeightTable,
    meets,
)
from .trie import USeqTrie, sup_calc


@dataclass
class IncrementalState:
    seq_trie: USeqTrie  # frequent + semi-frequent, tracked exactly
    pfs_trie: USeqTrie  # promising buffer (uwsincplus only)
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


def _check_weights(delta: UncertainDatabase, weights: WeightTable) -> None:
    """Raise ``MissingWeightError`` for the first item of ``delta`` without a weight.

    Steps call this before touching any state, so a rejected increment leaves
    the state as it was.
    """
    for item in delta.alphabet():
        weights.weight(item)


def uwsinc_step(state: IncrementalState, delta: UncertainDatabase) -> list[ScoredPattern]:
    """Fold one increment into the tracked set; returns the frequent patterns."""
    _check_weights(delta, state.weights)
    sup_calc(state.seq_trie, delta, state.weights)
    state.db_size += delta.size
    state.wam_acc.add(delta, state.weights)
    th = state.thresholds()
    state.seq_trie.prune_below(th.min_wes_prime)
    return state.seq_trie.collect(th.min_wes)


def _local_min_sup(params: MiningParams) -> float:
    """The support fraction an increment is mined at on its own."""
    return params.lwes_factor * params.min_sup * params.mu


def uwsincplus_step(state: IncrementalState, delta: UncertainDatabase) -> list[ScoredPattern]:
    """Fold one increment, keeping the promising buffer; returns the frequent set."""
    _check_weights(delta, state.weights)
    lfs_trie, local = mine_trie(
        delta, state.weights, _local_min_sup(state.params), state.params.wgt_fct
    )
    lwes = local.min_wes
    sup_calc(state.seq_trie, delta, state.weights)
    sup_calc(state.pfs_trie, delta, state.weights)
    state.db_size += delta.size
    state.wam_acc.add(delta, state.weights)
    th = state.thresholds()

    # Demote or drop tracked patterns that fell under the buffered threshold.
    for pat, wes in list(state.seq_trie.patterns()):
        if not meets(wes, th.min_wes_prime):
            state.seq_trie.remove(pat)
            if meets(wes, lwes):
                state.pfs_trie.insert(pat, wes)
    # Promote or expire promising patterns.
    for pat, wes in list(state.pfs_trie.patterns()):
        if meets(wes, th.min_wes_prime):
            state.pfs_trie.remove(pat)
            state.seq_trie.insert(pat, wes)
        elif not meets(wes, lwes):
            state.pfs_trie.remove(pat)
    # Route locally frequent newcomers; existing patterns already got the
    # increment via the scans above and keep their longer history.
    for pat, wes in lfs_trie.patterns():
        if pat in state.seq_trie or pat in state.pfs_trie:
            continue
        if meets(wes, th.min_wes_prime):
            state.seq_trie.insert(pat, wes)
        elif meets(wes, lwes):
            state.pfs_trie.insert(pat, wes)

    return state.seq_trie.collect(th.min_wes)


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
    with other weights, and for a malformed file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise MiningError(f"checkpoint {path} is not UTF-8 text: {exc.reason}") from None
    if not lines:
        raise MiningError(f"empty checkpoint {path}")
    head = lines[0].split()
    if not head or head[0] != CHECKPOINT_VERSION:
        found = repr(head[0]) if head else "nothing"
        raise MiningError(
            f"checkpoint {path} is not format {CHECKPOINT_VERSION} (found {found})"
        )
    if len(head) != 9:
        raise MiningError(f"checkpoint header needs 9 fields, got {len(head)}")
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
        raise MiningError(f"bad checkpoint header: {exc}") from None
    try:
        seq_at = lines.index(CHECKPOINT_SEQ)
        pfs_at = lines.index(CHECKPOINT_PFS)
    except ValueError:
        raise MiningError("checkpoint missing trie sections") from None
    seq_trie = USeqTrie.from_snapshot("\n".join(lines[seq_at + 1 : pfs_at]))
    pfs_trie = USeqTrie.from_snapshot("\n".join(lines[pfs_at + 1 :]))
    return IncrementalState(
        seq_trie=seq_trie,
        pfs_trie=pfs_trie,
        db_size=db_size,
        wam_acc=WamAccumulator(weighted_freq_sum=wam_num, freq_sum=wam_den),
        params=params,
        weights=weights,
    )
