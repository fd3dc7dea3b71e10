"""Correctness gates, run after the timed region.

* Exact counts and SHA-256 digests of the written outputs, recorded in
  ``expected.json`` for the default seed at full size.
* At any seed: a seeded sample of reported patterns is scored again with the
  brute-force embedding table (``oracle.max_pr_dynamic`` times ``s_weight``)
  and must match the reported wes within 1e-9 and clear minWES. For
  ``uwsincplus`` only soundness is required: reported wes never exceeds the
  true wes, and the true wes clears minWES.
* The written TSV must read back as the in-memory result.

Each gate returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

from useqmine import dataio, model, oracle

DEFAULT_SEED = 808
RESCORE_SAMPLE = 8  # patterns re-scored per checked result; smoke runs check all
TOLERANCE = 1e-9
TSV_DIGITS = 5e-7  # the TSV prints wes with 6 decimals

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_recorded(workload: str, counts: dict[str, int], files: dict[str, str]) -> list[str]:
    """Exact counts and output digests against the default-seed record."""
    with open(EXPECTED) as fh:
        want = json.load(fh)[workload]
    problems = [
        f"{key}: got {counts.get(key)}, recorded {value}"
        for key, value in want["counts"].items()
        if counts.get(key) != value
    ]
    for key, digest in want["sha256"].items():
        got = sha256(files[key])
        if got != digest:
            problems.append(f"{key}: sha256 {got[:12]} differs from recorded {digest[:12]}")
    return problems


def check_tsv(path: str, result: list) -> list[str]:
    back = dataio.read_patterns_tsv(path)
    if [sp.pattern for sp in back] != [sp.pattern for sp in result]:
        return [f"{os.path.basename(path)}: patterns differ from the in-memory result"]
    bad = sum(abs(a.wes - b.wes) > TSV_DIGITS for a, b in zip(back, result))
    return [f"{os.path.basename(path)}: {bad} wes values differ"] if bad else []


class Rescorer:
    """Independent wes of a pattern over a fixed list of sequences."""

    def __init__(self, sequences, weights):
        self.sequences = list(sequences)
        self.weights = weights
        self.where: dict[str, set[int]] = {}
        for pos, seq in enumerate(self.sequences):
            for ev in seq.events:
                for pi in ev.items:
                    self.where.setdefault(pi.item, set()).add(pos)

    def wes(self, pattern) -> float:
        # Sequences lacking any item of the pattern contribute 0 to the sum.
        items = {it for ev in pattern.events for it in ev}
        hits = set.intersection(*(self.where.get(it, set()) for it in items))
        exp_sup = sum(oracle.max_pr_dynamic(pattern, self.sequences[i]) for i in sorted(hits))
        return exp_sup * model.s_weight(pattern, self.weights)

    def check(self, result: list, min_wes: float, *, seed: int, sample: int | None,
              exact: bool, label: str) -> list[str]:
        picked = result if sample is None or len(result) <= sample else (
            random.Random(seed).sample(result, sample)
        )
        problems = []
        for sp in picked:
            true = self.wes(sp.pattern)
            text = dataio.format_pattern(sp.pattern)
            if exact and abs(true - sp.wes) > TOLERANCE:
                problems.append(f"{label} {text}: reported {sp.wes!r}, rescored {true!r}")
            elif not exact and sp.wes > true + model.EPS:
                problems.append(f"{label} {text}: reported {sp.wes!r} exceeds true {true!r}")
            if not model.meets(true, min_wes):
                problems.append(f"{label} {text}: true wes {true!r} under minWES {min_wes!r}")
        return problems


def gate_pass(workload: str, p, seed: int, smoke: bool) -> dict[str, list[str]]:
    """Problems per operation of one pass; an operation with any is failed."""
    sample = None if smoke else RESCORE_SAMPLE
    recorded = seed == DEFAULT_SEED and not smoke
    gate = _gate_inc if workload == "inc-stream" else _gate_mine
    return gate(workload, p.gate, seed, sample, recorded)


def _gate_mine(workload: str, g: dict, seed: int, sample: int | None,
               recorded: bool) -> dict[str, list[str]]:
    stats, result = g["stats"], g["result"]
    problems = check_tsv(g["tsv"], result)
    problems += Rescorer(g["db"].sequences, g["weights"]).check(
        result, stats.min_wes, seed=seed, sample=sample, exact=True, label="mine")
    if recorded:
        counts = dict(candidates=stats.candidates, false_positives=stats.false_positives,
                      frequent=len(result))
        problems += check_recorded(workload, counts, {"patterns": g["tsv"]})
    return {"mine": problems}


def _gate_inc(workload: str, g: dict, seed: int, sample: int | None,
              recorded: bool) -> dict[str, list[str]]:
    ops: dict[str, list[str]] = {}
    min_wes, first, first_tsv = g["first"]
    ops["init"] = check_tsv(first_tsv, first) + Rescorer(
        g["init"].sequences, g["weights"]).check(
        first, min_wes, seed=seed, sample=sample, exact=True, label="init")
    steps = g["steps"]
    for k, ((m0, r0, t0), (m1, r1, t1)) in enumerate(zip(steps["uwsinc"], steps["uwsincplus"]), 1):
        inc_set, plus_set = {sp.pattern for sp in r0}, {sp.pattern for sp in r1}
        for algo, m, r, t in (("uwsinc", m0, r0, t0), ("uwsincplus", m1, r1, t1)):
            bad = check_tsv(t, r)
            low = sum(1 for sp in r if sp.wes < m - model.EPS)
            if low:
                bad.append(f"{algo} step {k}: {low} patterns under minWES")
            if algo == "uwsincplus" and not inc_set <= plus_set:
                bad.append(f"step {k}: uwsinc set not contained in uwsincplus set")
            ops[f"{algo}#{k}"] = bad
    # Final step: exact for uwsinc (tracked since init), sound for uwsincplus.
    whole = list(g["init"].sequences) + [s for d in g["deltas"] for s in d.sequences]
    rescorer = Rescorer(whole, g["weights"])
    last = len(steps["uwsinc"])
    for algo, exact in (("uwsinc", True), ("uwsincplus", False)):
        m, r, _ = steps[algo][-1]
        ops[f"{algo}#{last}"] += rescorer.check(r, m, seed=seed, sample=sample, exact=exact,
                                                label=f"{algo} final")
    if recorded:
        plus_state = g["finals"]["uwsincplus"][0]
        counts = dict(
            init_patterns=g["init_patterns"], step0_frequent=len(first),
            uwsinc_frequent=len(steps["uwsinc"][-1][1]),
            uwsincplus_frequent=len(steps["uwsincplus"][-1][1]),
            seq_trie_patterns=plus_state.seq_trie.pattern_count,
            pfs_trie_patterns=plus_state.pfs_trie.pattern_count,
        )
        files = {"step0": first_tsv, "uwsinc_final": steps["uwsinc"][-1][2],
                 "uwsincplus_final": steps["uwsincplus"][-1][2]}
        ops[f"uwsincplus#{last}"] += check_recorded(workload, counts, files)
    return ops
