"""useqmine benchmark: one workload per invocation, result as JSON on the last line.

    python3 perfbench/run.py --workload mine-zipf --seed 808 --seconds 15 --trace 0

Set-up generates the workload's input files from ``--seed`` in a child
process, several times: half before the passes and half after them, so that
the reported median spans the run. Then whole passes of the workload (parse,
mine or init and steps, write) repeat for about ``--seconds``, with at least
one pass. With ``--trace 1`` the run makes one set-up and one pass with layer
wrappers installed, reports the per-layer metrics instead, and measures the
tracer's cost on alternating plain and traced smoke-size passes. Correctness
gates run after the timed region. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import datagen
import layers
import workloads
from hostspeed import HostClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPS = 4
OVERHEAD_PAIRS = 9


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, in ``BENCHMARK.json`` order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def setup(workload: str, seed: int, inputs: str, smoke: bool, reps: int) -> list[float]:
    """Generate the inputs ``reps`` times from scratch; seconds per set-up.

    The child times its generation on a ``HostClock`` and prints the raw and
    scaled seconds; process start and exit count at wall time.
    """
    cmd = [sys.executable, os.path.join(HERE, "datagen.py"),
           "--workload", workload, "--seed", str(seed), "--out", inputs]
    if smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(reps):
        shutil.rmtree(inputs, ignore_errors=True)
        t0 = time.perf_counter()
        child = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        timed = json.loads(child.stdout.splitlines()[-1])
        times.append(wall - timed["raw_s"] + timed["scaled_s"])
    return times


def _more(passes: list, seconds: float) -> bool:
    """Whole passes until one more would end further past ``seconds`` than short of it."""
    elapsed = sum(p.wall_s for p in passes)
    return not passes or elapsed + elapsed / len(passes) / 2 < seconds


def one_pass(workload: str, inputs: str, out: str, shape, observer=None, sample=True):
    os.makedirs(out, exist_ok=True)
    if workload == "inc-stream":
        return workloads.inc_pass(inputs, out, shape, observer, sample)
    return workloads.mine_pass(workload, inputs, out, sample)


def overhead_pct(workload: str, seed: int, work: str) -> float:
    """Tracer cost: median traced / plain time over alternating smoke-size passes.

    Each whole pass is timed on a ``HostClock``, so the host's changes of
    speed scale out of both sides of a pair.
    """
    shape = datagen.shape_of(workload, True)
    inputs, out = os.path.join(work, "overhead"), os.path.join(work, "overhead-out")
    datagen.write_inputs(workload, seed, inputs, smoke=True)

    def scaled_s(traced: bool) -> float:
        with layers.traced() if traced else contextlib.nullcontext(), HostClock() as clock:
            one_pass(workload, inputs, out, shape, layers.PatternFlow() if traced else None,
                     sample=False)
        return clock.scaled_s

    scaled_s(False)  # warm-up
    ratios = [scaled_s(True) / scaled_s(False) for _ in range(OVERHEAD_PAIRS)]
    return (statistics.median(ratios) - 1.0) * 100.0


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; returns the result object printed on the last line."""
    import gates  # imports the package, so only once ``src`` is on the path

    shape = datagen.shape_of(workload, smoke)
    planned = 1 + len(workloads.ALGOS) * shape.increments
    work = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}{'-smoke' if smoke else ''}")
    inputs, out = os.path.join(work, "inputs"), os.path.join(work, "out")
    passes, setup_times, layer_values, absent = [], [], {}, []
    attempted = failed = 0
    peak_rss_mb = 0.0
    try:
        setup_times += setup(workload, seed, inputs, smoke, 1 if trace else SETUP_REPS // 2)
        while not passes or not trace and _more(passes, seconds):
            attempted += planned
            try:
                with layers.traced() if trace else contextlib.nullcontext() as tracer:
                    flow = layers.PatternFlow() if trace else None
                    p = one_pass(workload, inputs, out, shape, flow, sample=not trace)
            except Exception as exc:  # an aborted pass fails every operation it planned
                failed += planned
                print(f"perfbench: pass aborted: {type(exc).__name__}: {exc}", file=sys.stderr)
                break
            if not passes:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if trace:
                layer_values = layers.metrics(tracer, flow, p)
                absent = tracer.absent
            for op, problems in gates.gate_pass(workload, p, seed, smoke).items():
                if problems:
                    failed += 1
                    for line in problems[:3]:
                        print(f"perfbench: gate {op}: {line}", file=sys.stderr)
            p.gate = {}  # release the pass's databases before the next one
            passes.append(p)
        if trace and passes:
            # The full pass's spans form reference cycles; free them, or every
            # collection during the overhead passes walks them.
            tracer = flow = None
            gc.collect()
            layer_values["trace.overhead_pct"] = overhead_pct(workload, seed, work)
        elif passes:
            setup_times += setup(workload, seed, inputs, smoke, SETUP_REPS - len(setup_times))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # keep it if another run is using it
            os.rmdir(os.path.dirname(work))

    summary = [f"perfbench {workload} seed={seed} trace={int(trace)}: {len(passes)} pass(es), "
               f"{attempted} operations, {failed} failed, error_rate {failed / attempted:.6g}",
               f"  setup_s: median of {len(setup_times)} set-ups {setup_times}"]
    values = {}
    if trace:
        values = layer_values
        if absent:
            summary.append(f"  absent hooks: {', '.join(absent)}")
        if passes:
            summary.append(f"  trace.overhead_pct: median of {OVERHEAD_PAIRS} smoke-size pairs")
    elif passes:
        values = {
            "setup_s": statistics.median(setup_times),
            "seq_per_s": statistics.median(p.seq_per_s for p in passes),
            "peak_rss_mb": peak_rss_mb,
        }
        raw = statistics.median(p.raw_seq_per_s for p in passes)
        first_set_s = statistics.median(p.first_set_s for p in passes)
        summary.append(f"  seq_per_s: median of {len(passes)} pass(es), host-speed scaled; "
                       f"unscaled {raw:.6g}; peak_rss_mb: first pass; first_set_s (parse to "
                       f"first frequent set): {first_set_s:.6g} median of {len(passes)}")
    if shape.increments and passes:
        for algo, ms in passes[-1].step_ms.items():
            summary.append(f"  {algo}.step_ms: p50 {layers.percentile(ms, 50):.3f} "
                           f"p90 {layers.percentile(ms, 90):.3f} of {len(ms)} steps (last pass)")
    print("\n".join(summary))
    named = units("per_layer" if trace else "end_to_end")
    return {
        "correct": failed == 0 and bool(values),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in named.items()} if values else {},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(datagen.SHAPES))
    ap.add_argument("--seed", type=int, default=808)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "useqmine", "__init__.py")):
        print(f"perfbench: no useqmine sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
