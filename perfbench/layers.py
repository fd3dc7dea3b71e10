"""Per-layer metrics of a traced pass: which hooks to install and how spans
and counters turn into the named metrics.

Layers are the package's modules: ``dataio``, ``fuws``, ``trie`` and
``incremental``. A layer a workload does not exercise reports 0. Names and
units of the metrics are listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import statistics

from spans import CALL, Span, Tracer
from workloads import ALGOS, Pass

F, I, D, T = "useqmine.fuws", "useqmine.incremental", "useqmine.dataio", "useqmine.trie"

SUP_CALC = ("fuws.sup_calc", "incremental.sup_calc")
MINE = ("fuws.mine_trie", "incremental.mine_trie")
# Children of a mine_trie span that are not growth: the rest of it is grow time.
NOT_GROW = ("fuws.preprocess", "fuws.sup_calc", "trie.USeqTrie.prune_below")


def _entries(proj) -> int:
    return len(getattr(proj, "entries", ()))


def _sup_work(trie, db, *args, **kwargs) -> dict[str, float]:
    nodes = trie.node_count
    return {"nodes": nodes, "node_seqs": nodes * db.size}


def _mine_counts(span: Span, result, *args, **kwargs) -> None:
    stats = result[1]
    span.attrs.update(
        candidates=stats.candidates, false_positives=stats.false_positives,
        survivors=stats.survivors,
    )


def _project_out(span: Span, result, *args, **kwargs) -> None:
    span.attrs["entries_out"] = _entries(result)


def install(tracer: Tracer) -> None:
    for attr in ("parse_uncertain_db", "parse_weights", "write_patterns"):
        tracer.hook(D, attr)
    tracer.hook(F, "preprocess")
    tracer.hook(F, "determine", before=lambda pdb, proj, *a, **k: {"entries": _entries(proj)})
    tracer.hook(F, "project", before=lambda pdb, proj, *a, **k: {"entries_in": _entries(proj)},
                after=_project_out)
    tracer.hook(F, "sup_calc", before=_sup_work)
    tracer.hook(F, "mine_trie", kind=CALL, after=_mine_counts)
    tracer.hook(I, "mine_trie", after=_mine_counts)
    tracer.hook(I, "sup_calc", before=_sup_work)
    for attr in ("save_state", "load_state"):
        tracer.hook(I, attr)
    for attr in ("init_mining", "uwsinc_step", "uwsincplus_step"):
        tracer.hook(I, attr, kind=CALL)
    for attr in ("prune_below", "collect", "insert", "remove"):
        tracer.hook(T, attr, cls="USeqTrie")


@contextlib.contextmanager
def traced():
    """A tracer whose hooks are installed for the duration of the block."""
    tracer = Tracer()
    install(tracer)
    try:
        yield tracer
    finally:
        tracer.uninstall()


class PatternFlow:
    """Diffs the tracked and promising pattern sets around each uwsincplus step."""

    def __init__(self) -> None:
        self.counts = dict.fromkeys(("promoted", "demoted", "expired", "admitted_local"), 0)

    @staticmethod
    def _sets(state) -> tuple[set, set]:
        return ({p for p, _ in state.seq_trie.patterns()},
                {p for p, _ in state.pfs_trie.patterns()})

    def before(self, algo: str, state):
        return self._sets(state) if algo == "uwsincplus" else None

    def after(self, algo: str, state, token) -> None:
        if token is None:
            return
        seq0, pfs0 = token
        seq1, pfs1 = self._sets(state)
        self.counts["promoted"] += len(pfs0 & seq1)
        self.counts["demoted"] += len(seq0 & pfs1)
        self.counts["expired"] += len((seq0 | pfs0) - (seq1 | pfs1))
        self.counts["admitted_local"] += len((seq1 | pfs1) - (seq0 | pfs0))


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method); 0 when there are no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _under(span: Span, parent: str) -> bool:
    return span.parent is not None and span.parent.name == parent


def metrics(tracer: Tracer, flow: PatternFlow, traced: Pass) -> dict[str, float]:
    """Every per-layer metric but ``trace.overhead_pct``, which needs passes of its own."""
    t = tracer
    mines = [s for s in t.spans if s.name in MINE]
    grow = sum(s.duration - sum(c.duration for c in s.children if c.name in NOT_GROW) for s in mines)
    candidates = sum(s.attrs.get("candidates", 0) for s in mines)
    survivors = sum(s.attrs.get("survivors", 0) for s in mines)
    plus_steps = t.named("incremental.uwsincplus_step")
    local = [s for s in t.named("incremental.mine_trie") if _under(s, "incremental.uwsincplus_step")]
    step_sup = [s for s in t.named("incremental.sup_calc") if _under(s, "incremental.uwsincplus_step")]
    sup_nodes = [s.attrs.get("nodes", 0) for s in t.spans if s.name in SUP_CALC]
    finals = traced.gate.get("finals", {})
    plus_state, checkpoint_bytes = finals.get("uwsincplus", (None, 0))
    out = {
        "dataio.parse_s": t.total("dataio.parse_uncertain_db", "dataio.parse_weights"),
        "dataio.write_s": t.total("dataio.write_patterns"),
        "fuws.preprocess_s": t.total("fuws.preprocess"),
        "fuws.determine_s": t.total("fuws.determine"),
        "fuws.determine_calls": len(t.named("fuws.determine")),
        "fuws.determine_entries": t.count("entries", "fuws.determine"),
        "fuws.project_s": t.total("fuws.project"),
        "fuws.project_calls": len(t.named("fuws.project")),
        "fuws.project_entries_in": t.count("entries_in", "fuws.project"),
        "fuws.project_entries_out": t.count("entries_out", "fuws.project"),
        "fuws.grow_s": grow,
        "fuws.candidates": candidates,
        "fuws.false_positives": sum(s.attrs.get("false_positives", 0) for s in mines),
        "fuws.candidate_precision": survivors / candidates if candidates else 0.0,
        "trie.sup_calc_s": t.total(*SUP_CALC),
        "trie.sup_calc_node_seqs": t.count("node_seqs", *SUP_CALC),
        "trie.prune_below_s": t.total("trie.USeqTrie.prune_below"),
        "trie.collect_s": t.total("trie.USeqTrie.collect"),
        "trie.nodes": max(sup_nodes, default=0),
        "incremental.local_mine_s": sum(s.duration for s in local),
        "incremental.step_sup_calc_s": sum(s.duration for s in step_sup),
        "incremental.restructure_s": sum(s.duration for s in plus_steps)
        - sum(s.duration for s in local + step_sup),
        **{f"incremental.{k}": v for k, v in flow.counts.items()},
        "incremental.seq_trie_patterns": plus_state.seq_trie.pattern_count if plus_state else 0,
        "incremental.pfs_trie_patterns": plus_state.pfs_trie.pattern_count if plus_state else 0,
        "incremental.save_state_s": t.total("incremental.save_state"),
        "incremental.load_state_s": t.total("incremental.load_state"),
        "incremental.checkpoint_bytes": checkpoint_bytes,
        "trace.coverage": t.covered() / traced.wall_s,
        "trace.absent_hooks": len(t.absent),
    }
    for algo in ALGOS:
        out[f"{algo}.step_ms_p50"] = percentile(traced.step_ms[algo], 50)
        out[f"{algo}.step_ms_p90"] = percentile(traced.step_ms[algo], 90)
    return out
