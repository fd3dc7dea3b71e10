"""Timed passes of the three workloads.

Every call goes through a module attribute looked up at call time (for
example ``fuws.mine_trie``), so the wrappers of a traced pass see it. A pass
returns its timings plus what the gates need; it checks nothing itself.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

from datagen import Shape, delta_name
from hostspeed import HostClock

MINE_MIN_SUP = {"mine-zipf": 0.02, "mine-long": 0.4}
WGT_FCT = 1.0
INC_PARAMS = dict(min_sup=0.02, wgt_fct=WGT_FCT, mu=0.7, lwes_factor=2.0)
ALGOS = ("uwsinc", "uwsincplus")


def package(name: str) -> Any:
    # ``useqmine.fuws`` on the package is the function, so go through importlib.
    return importlib.import_module(f"useqmine.{name}")


@dataclass
class Pass:
    wall_s: float = 0.0  # parse of the first input to the last write
    first_set_s: float = 0.0  # parse, mine or init, and collect of the first frequent set
    # Sequences per host-speed scaled second (``hostspeed``): over the whole pass
    # on ``mine-*``; on ``inc-stream``, the geometric mean over the algorithms of
    # increment sequences per second of their stream (load_state to save_state).
    seq_per_s: float = 0.0
    raw_seq_per_s: float = 0.0  # the same in plain wall time
    step_ms: dict[str, list[float]] = field(default_factory=lambda: {a: [] for a in ALGOS})
    gate: dict[str, Any] = field(default_factory=dict)


def mine_pass(workload: str, inputs: str, out: str, sample: bool = True) -> Pass:
    """``sample`` runs the host-speed sampler across the pass."""
    dataio, fuws = package("dataio"), package("fuws")
    tsv = os.path.join(out, "patterns.tsv")
    p = Pass()
    t0 = time.perf_counter()
    with HostClock(sample) as clock:
        db = dataio.parse_uncertain_db(os.path.join(inputs, "db.txt"))
        weights = dataio.parse_weights(os.path.join(inputs, "weights.txt"))
        trie, stats = fuws.mine_trie(db, weights, MINE_MIN_SUP[workload], WGT_FCT)
        result = trie.collect(stats.min_wes)
        p.first_set_s = time.perf_counter() - t0
        dataio.write_patterns(tsv, result)
    p.wall_s = time.perf_counter() - t0
    p.seq_per_s, p.raw_seq_per_s = db.size / clock.scaled_s, db.size / clock.raw_s
    p.gate = dict(db=db, weights=weights, stats=stats, result=result, tsv=tsv)
    return p


def inc_pass(inputs: str, out: str, shape: Shape, observer=None, sample: bool = True) -> Pass:
    """``observer.before(algo, state)`` / ``observer.after(algo, state, token)``
    run around each step, outside its timing (traced passes only). ``sample``
    runs the host-speed sampler across each algorithm's increment stream."""
    dataio, incremental, model = package("dataio"), package("incremental"), package("model")
    params = model.MiningParams(**INC_PARAMS)
    p = Pass()
    checkpoint = os.path.join(out, "state.ck")
    steps: dict[str, list] = {a: [] for a in ALGOS}  # (min_wes, result, tsv) per step
    finals: dict[str, Any] = {}
    deltas = []

    t0 = time.perf_counter()
    init = dataio.parse_uncertain_db(os.path.join(inputs, "init.txt"))
    weights = dataio.parse_weights(os.path.join(inputs, "weights.txt"))
    state = incremental.init_mining(init, weights, params)
    th = state.thresholds()
    first = state.seq_trie.collect(th.min_wes)
    p.first_set_s = time.perf_counter() - t0
    first_tsv = os.path.join(out, "step_000.tsv")
    dataio.write_patterns(first_tsv, first)
    init_patterns = state.seq_trie.pattern_count
    incremental.save_state(state, checkpoint)
    clocks = []
    for algo in ALGOS:
        with HostClock(sample) as clock:
            step = getattr(incremental, f"{algo}_step")
            state = incremental.load_state(checkpoint, weights)
            for k in range(1, shape.increments + 1):
                delta = dataio.parse_uncertain_db(os.path.join(inputs, delta_name(k)))
                if algo == ALGOS[0]:
                    deltas.append(delta)
                token = observer.before(algo, state) if observer else None
                ts = time.perf_counter()
                result = step(state, delta)
                p.step_ms[algo].append((time.perf_counter() - ts) * 1e3)
                if observer:
                    observer.after(algo, state, token)
                tsv = os.path.join(out, f"{algo}_{k:03d}.tsv")
                dataio.write_patterns(tsv, result)
                steps[algo].append((state.thresholds().min_wes, result, tsv))
            final_checkpoint = os.path.join(out, f"{algo}.ck")
            incremental.save_state(state, final_checkpoint)
        finals[algo] = (state, os.path.getsize(final_checkpoint))
        clocks.append(clock)
    p.wall_s = time.perf_counter() - t0
    streamed = sum(d.size for d in deltas)
    p.seq_per_s = statistics.geometric_mean(streamed / c.scaled_s for c in clocks)
    p.raw_seq_per_s = statistics.geometric_mean(streamed / c.raw_s for c in clocks)
    p.gate = dict(
        init=init, deltas=deltas, weights=weights, first=(th.min_wes, first, first_tsv),
        init_patterns=init_patterns, steps=steps, finals=finals,
    )
    return p
