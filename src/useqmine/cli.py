"""Command-line front end.

Subcommands: mine (static), inc (incremental with uwsinc / uwsinc+ / baseline),
gen (uncertain dataset from a precise SPMF file), oracle (brute-force miner),
bench (bound comparison). Exit codes: 0 ok, 1 data error, 2 usage error,
3 oracle size guard.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time

from . import dataio, incremental
from .fuws import mine_trie
from .model import (
    MiningError,
    MiningParams,
    ScoredPattern,
    Thresholds,
    UncertainDatabase,
    WamAccumulator,
)
from .oracle import OracleSizeError, oracle_mine

class UsageError(Exception):
    pass


def _from_flags(cls, **fields):
    """Build ``cls`` (``MiningParams``, ``GenConfig``) from flag values; a value
    it rejects is a usage error."""
    try:
        return cls(**fields)
    except MiningError as exc:
        raise UsageError(str(exc)) from None


def _db_stats(db: UncertainDatabase) -> tuple[int, int, float]:
    total_items = sum(db.item_frequencies().values())
    avg = total_items / db.size if db.size else 0.0
    return db.size, len(db.alphabet()), avg


def _write_csv(path: str, rows: list[dict]) -> None:
    """Write ``rows`` under a header of the first row's keys, which every row shares."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _emit_patterns(patterns: list[ScoredPattern], out: str | None, fmt: str) -> None:
    if out:
        dataio.write_patterns(out, patterns, fmt)
    else:
        sys.stdout.writelines(dataio.pattern_lines(patterns, fmt))


def cmd_mine(args: argparse.Namespace) -> int:
    p = _from_flags(MiningParams, min_sup=args.min_sup, wgt_fct=args.wgt_fct, mu=args.mu)
    t0 = time.perf_counter()
    db = dataio.parse_uncertain_db(args.db)
    weights = dataio.parse_weights(args.weights)
    trie, stats = mine_trie(db, weights, p.min_sup * p.mu, p.wgt_fct)
    patterns = trie.collect(stats.min_wes)
    total_ms = (time.perf_counter() - t0) * 1000.0
    _emit_patterns(patterns, args.out, args.format)
    if args.report:
        size, distinct, avg = _db_stats(db)
        row = {
            "command": "mine",
            "db": args.db,
            "weights": args.weights,
            "min_sup": p.min_sup,
            "wgt_fct": p.wgt_fct,
            "mu": p.mu,
            "db_size": size,
            "distinct_items": distinct,
            "avg_length": f"{avg:.3f}",
            "candidates": stats.candidates,
            "false_positives": stats.false_positives,
            "ruled_out": stats.ruled_out,
            "frequent": len(patterns),
            "grow_ms": f"{stats.grow_ms:.3f}",
            "verify_ms": f"{stats.verify_ms:.3f}",
            "total_ms": f"{total_ms:.3f}",
        }
        _write_csv(args.report, [row])
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    p = _from_flags(MiningParams, min_sup=args.min_sup, wgt_fct=args.wgt_fct, mu=args.mu)
    db = dataio.parse_uncertain_db(args.db)
    weights = dataio.parse_weights(args.weights)
    acc = WamAccumulator()
    acc.add(db, weights)
    th = Thresholds.compute(p.min_sup * p.mu, db.size, acc.wam, p.wgt_fct, 1.0)
    patterns = oracle_mine(db, weights, th.min_wes)
    _emit_patterns(patterns, args.out, args.format)
    return 0


def _read_baseline_sets(baseline_dir: str, step: int) -> set | None:
    path = os.path.join(baseline_dir, f"step_{step}.tsv")
    if not os.path.exists(path):
        return None
    return {sp.pattern for sp in dataio.read_patterns_tsv(path)}


def cmd_inc(args: argparse.Namespace) -> int:
    params = _from_flags(
        MiningParams,
        min_sup=args.min_sup, wgt_fct=args.wgt_fct, mu=args.mu, lwes_factor=args.lwes_factor,
    )
    if args.algo == "baseline":
        if args.checkpoint:
            raise UsageError("--algo baseline keeps no state; --checkpoint does not apply")
        if not args.init:
            raise UsageError("--algo baseline needs --init")
    resume = args.checkpoint and os.path.exists(args.checkpoint)
    if resume and args.init:
        raise UsageError(
            f"--checkpoint {args.checkpoint} exists and would be resumed; drop --init"
        )
    if not args.init and not resume:
        raise UsageError("--init is required unless --checkpoint points at an existing state")

    weights = dataio.parse_weights(args.weights)
    deltas = [dataio.parse_uncertain_db(p) for p in args.delta]
    os.makedirs(args.out_dir, exist_ok=True)
    rows: list[dict] = []

    def record(step: int, delta_path: str, delta_size: int, db_size: int, wam: float,
               min_wes: float, fs: list[ScoredPattern], ms: float) -> None:
        dataio.write_patterns(os.path.join(args.out_dir, f"step_{step}.tsv"), fs, "tsv")
        completeness = ""
        if args.baseline_dir:
            base = _read_baseline_sets(args.baseline_dir, step)
            if base:
                mine_set = {sp.pattern for sp in fs}
                completeness = f"{len(mine_set & base) / len(base):.6f}"
            elif base is not None:
                completeness = "1.000000"
        rows.append(
            {
                "step": step,
                "algo": args.algo,
                "delta": delta_path,
                "delta_size": delta_size,
                "db_size": db_size,
                "wam": f"{wam:.6f}",
                "min_wes": f"{min_wes:.6f}",
                "fs_count": len(fs),
                "step_ms": f"{ms:.3f}",
                "completeness": completeness,
            }
        )

    if args.algo == "baseline":
        parts: list[UncertainDatabase] = []
        inputs = zip([args.init, *args.delta], [dataio.parse_uncertain_db(args.init), *deltas])
        for k, (path, part) in enumerate(inputs):
            parts.append(part)
            t0 = time.perf_counter()
            whole = UncertainDatabase.concat(parts)
            trie, stats = mine_trie(whole, weights, params.min_sup, params.wgt_fct)
            fs = trie.collect(stats.min_wes)
            record(k, path, part.size, whole.size, stats.wam, stats.min_wes, fs,
                   (time.perf_counter() - t0) * 1e3)
    else:
        if resume:
            state = incremental.load_state(args.checkpoint, weights)
            if state.params != params:
                raise UsageError(
                    "checkpoint parameters differ from the flags; refusing to resume"
                )
        else:
            init_db = dataio.parse_uncertain_db(args.init)
            t0 = time.perf_counter()
            state = incremental.init_mining(init_db, weights, params)
            th = state.thresholds()
            fs0 = state.seq_trie.collect(th.min_wes)
            record(0, args.init, init_db.size, state.db_size, th.wam, th.min_wes, fs0,
                   (time.perf_counter() - t0) * 1e3)
        step_fn = (
            incremental.uwsinc_step if args.algo == "uwsinc" else incremental.uwsincplus_step
        )
        for k, (path, delta) in enumerate(zip(args.delta, deltas), start=1):
            t0 = time.perf_counter()
            fs = step_fn(state, delta)
            th = state.thresholds()
            record(k, path, delta.size, state.db_size, th.wam, th.min_wes, fs,
                   (time.perf_counter() - t0) * 1e3)
        if args.checkpoint:
            incremental.save_state(state, args.checkpoint)

    _write_csv(os.path.join(args.out_dir, "report.csv"), rows)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    cfg = _from_flags(
        dataio.GenConfig,
        seed=args.seed,
        prob_mean=args.prob_mean,
        prob_std=args.prob_std,
        weight_mean=args.weight_mean,
        weight_std=args.weight_std,
    )
    db, weights = dataio.gen_uncertain(args.infile, cfg, args.format)
    dataio.write_uncertain_db(args.out_db, db)
    dataio.write_weights(args.out_weights, weights)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        thresholds = [float(s) for s in args.min_sup_list.split(",") if s]
    except ValueError as exc:
        raise UsageError(f"bad --min-sup-list: {exc}") from None
    if not thresholds:
        raise UsageError("--min-sup-list is empty")
    runs = [_from_flags(MiningParams, min_sup=t, wgt_fct=args.wgt_fct) for t in thresholds]
    if args.repeat < 1:
        raise UsageError(f"--repeat must be >= 1: {args.repeat}")
    bounds = ["cap", "top"] if args.bound == "both" else [args.bound]
    db = dataio.parse_uncertain_db(args.db)
    weights = dataio.parse_weights(args.weights)
    rows = []
    for p in runs:
        for bound in bounds:
            best_ms = None
            for _ in range(args.repeat):
                t0 = time.perf_counter()
                _, stats = mine_trie(db, weights, p.min_sup, p.wgt_fct, bound=bound)
                ms = (time.perf_counter() - t0) * 1000.0
                best_ms = ms if best_ms is None or ms < best_ms else best_ms
            false_pct = (
                100.0 * stats.false_positives / stats.candidates if stats.candidates else 0.0
            )
            rows.append(
                {
                    "bound": bound,
                    "min_sup": p.min_sup,
                    "candidates": stats.candidates,
                    "frequent": stats.survivors,
                    "false_pct": f"{false_pct:.3f}",
                    "ms": f"{best_ms:.3f}",
                }
            )
    _write_csv(args.out, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="useqmine",
        description="Weighted sequential pattern mining over uncertain sequence databases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The flags mine and oracle share; oracle takes exactly these.
    static = argparse.ArgumentParser(add_help=False)
    static.add_argument("--db", required=True)
    static.add_argument("--weights", required=True)
    static.add_argument("--min-sup", type=float, required=True)
    static.add_argument("--wgt-fct", type=float, required=True)
    static.add_argument("--mu", type=float, default=1.0)
    static.add_argument("--out")
    static.add_argument("--format", choices=["tsv", "json-lines"], default="tsv")

    p_mine = sub.add_parser("mine", parents=[static], help="mine a static database")
    p_mine.add_argument("--report")
    p_mine.set_defaults(fn=cmd_mine)

    p_inc = sub.add_parser("inc", help="incremental mining over an initial db plus deltas")
    p_inc.add_argument("--init")
    p_inc.add_argument("--delta", nargs="+", required=True)
    p_inc.add_argument("--weights", required=True)
    p_inc.add_argument("--algo", choices=["uwsinc", "uwsinc+", "baseline"], required=True)
    p_inc.add_argument("--min-sup", type=float, required=True)
    p_inc.add_argument("--mu", type=float, required=True)
    p_inc.add_argument("--wgt-fct", type=float, required=True)
    p_inc.add_argument("--lwes-factor", type=float, default=2.0)
    p_inc.add_argument("--out-dir", default=".")
    p_inc.add_argument("--checkpoint")
    p_inc.add_argument("--baseline-dir", help="out-dir of a prior baseline run; fills completeness")
    p_inc.set_defaults(fn=cmd_inc)

    p_gen = sub.add_parser("gen", help="make an uncertain weighted dataset from a precise one")
    p_gen.add_argument("--in", dest="infile", required=True)
    p_gen.add_argument("--format", choices=["spmf-seq", "spmf-itemset"], default="spmf-seq")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--prob-mean", type=float, default=0.5)
    p_gen.add_argument("--prob-std", type=float, default=0.25)
    p_gen.add_argument("--weight-mean", type=float, default=0.5)
    p_gen.add_argument("--weight-std", type=float, default=0.125)
    p_gen.add_argument("--out-db", required=True)
    p_gen.add_argument("--out-weights", required=True)
    p_gen.set_defaults(fn=cmd_gen)

    p_oracle = sub.add_parser(
        "oracle", parents=[static], help="brute-force miner (small inputs only)"
    )
    p_oracle.set_defaults(fn=cmd_oracle)

    p_bench = sub.add_parser("bench", help="compare pruning bounds across thresholds")
    p_bench.add_argument("--db", required=True)
    p_bench.add_argument("--weights", required=True)
    p_bench.add_argument("--min-sup-list", required=True)
    p_bench.add_argument("--wgt-fct", type=float, default=1.0)
    p_bench.add_argument("--bound", choices=["cap", "top", "both"], default="both")
    p_bench.add_argument("--repeat", type=int, default=1)
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(fn=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MiningError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
