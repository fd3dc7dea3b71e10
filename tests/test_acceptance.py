"""Acceptance suite: one test per shipping criterion.

Each test prints a single ``ACCEPTANCE <n> ...: PASS/FAIL`` line (visible with
``pytest -s``) and then asserts. Expensive shared computations (the 500
random instances, the 200 random streams) run once per module.
"""

import csv
import math
import random
import time

import pytest

from useqmine import (
    MiningParams,
    Pattern,
    UncertainDatabase,
    USeqTrie,
    WeightTable,
    fuws,
    init_mining,
    mine_trie,
    oracle_exp_sup,
    oracle_mine,
    oracle_wes,
    parse_uncertain_db,
    parse_weights,
    preprocess,
    s_weight,
    split_db,
    sup_calc,
    uwsinc_step,
    uwsincplus_step,
    write_uncertain_db,
)
from useqmine.cli import main
from useqmine.dataio import SplitSpec
from useqmine.model import USequence, extend, single
from useqmine.oracle import _max_pr_enum

from conftest import (
    DB_TEXT,
    DELTA1_TEXT,
    DELTA2_TEXT,
    WEIGHTS_TEXT,
    P,
    random_db,
    random_weights,
)


def report(number: int, name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}{tail}"
    print(line)
    assert ok, line


def close_sets(got: dict, want: dict, tol: float) -> tuple[bool, str]:
    if set(got) != set(want):
        extra = {str(p.events) for p in set(got) - set(want)}
        missing = {str(p.events) for p in set(want) - set(got)}
        return False, f"extra={extra} missing={missing}"
    for pat, wes in want.items():
        if abs(got[pat] - wes) > tol:
            return False, f"{pat.events}: {got[pat]} vs {wes}"
    return True, ""


def strip_chain(pattern: Pattern):
    """Ancestors along the growth derivation (drop last item repeatedly)."""
    events = [list(ev) for ev in pattern.events]
    while sum(len(e) for e in events) > 1:
        if len(events[-1]) > 1:
            events[-1].pop()
        else:
            events.pop()
        yield Pattern(tuple(tuple(e) for e in events))


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    files = {}
    for name, text in [
        ("db", DB_TEXT),
        ("d1", DELTA1_TEXT),
        ("d2", DELTA2_TEXT),
        ("w", WEIGHTS_TEXT),
    ]:
        p = root / f"{name}.txt"
        p.write_text(text)
        files[name] = str(p)
    return {
        "files": files,
        "db": parse_uncertain_db(files["db"]),
        "d1": parse_uncertain_db(files["d1"]),
        "d2": parse_uncertain_db(files["d2"]),
        "weights": parse_weights(files["w"]),
    }


def test_criterion_1_golden_static(golden):
    t0 = time.perf_counter()
    trie, stats = mine_trie(golden["db"], golden["weights"], 0.2 * 0.7, 1.0)
    survivors = trie.collect(stats.min_wes)
    elapsed = time.perf_counter() - t0

    min_wes_full = 0.2 * 6 * stats.wam * 1.0
    ok = abs(min_wes_full - 1.06) <= 0.01 and abs(stats.min_wes - 0.74) <= 0.01
    detail = f"minWES={min_wes_full:.4f} minWES'={stats.min_wes:.4f}"
    fs, sfs = {}, {}
    for sp in survivors:
        (fs if sp.wes >= min_wes_full - 1e-9 else sfs)[sp.pattern] = sp.wes
    ok_fs, d1 = close_sets(fs, {P("(a)"): 2.24, P("(b)"): 1.4, P("(c)"): 1.8}, 0.01)
    ok_sfs, d2 = close_sets(sfs, {P("(a)(a)"): 1.03, P("(a c)"): 1.02}, 0.01)
    ok = ok and ok_fs and ok_sfs and elapsed < 1.0
    report(1, "golden static", ok, f"{detail} {d1}{d2} {elapsed * 1000:.0f}ms")


def test_criterion_2_golden_incremental(golden):
    db, wt = golden["db"], golden["weights"]
    params = MiningParams(min_sup=0.2, wgt_fct=1.0, mu=0.7, lwes_factor=2.0)
    t0 = time.perf_counter()

    def classes(state):
        th = state.thresholds()
        fs, sfs = {}, {}
        for pat, wes in state.seq_trie.patterns():
            (fs if wes >= th.min_wes - 1e-9 else sfs)[pat] = wes
        return fs, sfs, dict(state.pfs_trie.patterns())

    problems = []

    def expect(tag, got, want):
        ok, detail = close_sets(got, want, 0.01)
        if not ok:
            problems.append(f"{tag}: {detail}")

    inc = init_mining(db, wt, params)
    uwsinc_step(inc, golden["d1"])
    f, s, _ = classes(inc)
    expect("inc/step1/FS", f, {P("(a)"): 4.56, P("(a)(a)"): 1.90, P("(a c)"): 1.99, P("(c)"): 4.50})
    expect("inc/step1/SFS", s, {P("(b)"): 1.4})
    uwsinc_step(inc, golden["d2"])
    f, s, _ = classes(inc)
    expect("inc/step2/FS", f, {P("(a)"): 6.16, P("(a)(a)"): 2.26, P("(c)"): 5.76})
    expect("inc/step2/SFS", s, {P("(a c)"): 2.05, P("(b)"): 2.20})

    plus = init_mining(db, wt, params)
    uwsincplus_step(plus, golden["d1"])
    f, s, p = classes(plus)
    expect(
        "plus/step1/FS",
        f,
        {P("(a)"): 4.56, P("(a)(a)"): 1.9, P("(a c)"): 1.99, P("(c)"): 4.50,
         P("(c)(a)"): 1.83, P("(f)"): 1.98},
    )
    expect(
        "plus/step1/SFS",
        s,
        {P("(c)(d)"): 1.23, P("(b)"): 1.4, P("(c)(f)"): 1.25, P("(d)"): 1.53},
    )
    expect("plus/step1/PFS", p, {P("(a)(f)"): 0.99, P("(f)(c)"): 0.96})
    uwsincplus_step(plus, golden["d2"])
    f, s, p = classes(plus)
    expect(
        "plus/step2/FS",
        f,
        {P("(a)"): 6.16, P("(a)(a)"): 2.26, P("(c)"): 5.76, P("(c)(a)"): 2.82,
         P("(d)"): 2.88, P("(f)"): 2.61},
    )
    expect("plus/step2/SFS", s, {P("(a c)"): 2.05, P("(b)"): 2.2, P("(c)(d)"): 2.12})
    expect(
        "plus/step2/PFS",
        p,
        {P("(a)(d)"): 1.15, P("(c)(f)"): 1.41, P("(a)(f)"): 1.22, P("(e)"): 0.77,
         P("(f)(c)"): 1.03, P("(c)(a)(d)"): 0.77},
    )
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s")
    report(2, "golden incremental", not problems, "; ".join(problems) or f"{elapsed * 1000:.0f}ms")


def test_criterion_3_spot_quantities(golden):
    db, wt = golden["db"], golden["weights"]
    wam = preprocess(db, wt)[1].wam
    trace = []
    mine_trie(db, wt, 0.2 * 0.7, 1.0, trace=trace)
    caps = {(r.pattern, r.kind): r.exp_sup_cap for r in trace}
    maxprs = {r.pattern: r.maxpr for r in trace}
    checks = [
        ("expSup (a)(b)", oracle_exp_sup(P("(a)(b)"), db), 0.57),
        ("expSup (a c)", oracle_exp_sup(P("(a c)"), db), 1.20),
        ("maxPr (c)(a)", maxprs[P("(c)(a)")], 0.42),
        ("cap (a c)(b)", caps[(P("(a c)(b)"), "S")], 0.378),
        ("cap (a c)", caps[(P("(a c)"), "I")], 1.8),
        ("WES (a)(a c)", oracle_wes(P("(a)(a c)"), db, wt), 0.11),
        ("WAM", wam, 0.88),
        ("minWES @0.75", 0.2 * 6 * wam * 0.75, 0.792),
    ]
    bad = [f"{name}={got:.5f} want {want}" for name, got, want in checks if abs(got - want) > 0.005]
    report(3, "spot quantities", not bad, "; ".join(bad) or f"{len(checks)} quantities")


@pytest.fixture(scope="module")
def random_instance_results():
    rng = random.Random(20260809)
    out = {
        "count": 0,
        "mismatches": [],
        "cap_below_actual": [],
        "cap_above_top": [],
        "wgt_cap_violations": [],
        "extensions": 0,
    }
    for trial in range(500):
        db = random_db(rng)
        wt = random_weights(rng)
        min_sup = rng.choice([0.1, 0.2, 0.3, 0.4, 0.5])
        trace = []
        trie, stats = mine_trie(db, wt, min_sup, 1.0, trace=trace)
        got = {sp.pattern: sp.wes for sp in trie.collect(stats.min_wes)}
        want = {sp.pattern: sp.wes for sp in oracle_mine(db, wt, stats.min_wes)}
        if set(got) != set(want):
            out["mismatches"].append(f"trial {trial}: sets differ")
        else:
            for pat, wes in want.items():
                if abs(got[pat] - wes) > 1e-9:
                    out["mismatches"].append(f"trial {trial}: {pat.events} wes off")
                    break
        db_maps = [seq.event_maps() for seq in db.sequences]  # built once per trial
        for rec in trace:
            out["extensions"] += 1
            exp_sup = sum(_max_pr_enum(rec.pattern, maps) for maps in db_maps)
            if rec.exp_sup_cap < exp_sup - 1e-9:
                out["cap_below_actual"].append(f"trial {trial}: {rec.pattern.events}")
            if rec.exp_sup_cap > rec.exp_sup_top + 1e-12:
                out["cap_above_top"].append(f"trial {trial}: {rec.pattern.events}")
        generated = {r.pattern: r for r in trace if r.generated}
        for pat in generated:
            sw = s_weight(pat, wt)
            for anc in strip_chain(pat):
                rec = generated.get(anc)
                if rec is not None and rec.wgt_cap < sw - 1e-12:
                    out["wgt_cap_violations"].append(f"trial {trial}: {pat.events}")
        out["count"] += 1
    return out


def test_criterion_4_oracle_equivalence(random_instance_results):
    r = random_instance_results
    ok = r["count"] >= 500 and not r["mismatches"]
    report(
        4,
        "oracle equivalence",
        ok,
        f"{r['count']} instances, {len(r['mismatches'])} mismatches"
        + ("; " + "; ".join(r["mismatches"][:3]) if r["mismatches"] else ""),
    )


def test_criterion_5_bound_properties(random_instance_results):
    r = random_instance_results
    bad = r["cap_below_actual"] + r["cap_above_top"] + r["wgt_cap_violations"]
    ok = r["extensions"] > 0 and not bad
    report(
        5,
        "bound properties",
        ok,
        f"{r['extensions']} extensions checked, {len(bad)} violations"
        + ("; " + "; ".join(bad[:3]) if bad else ""),
    )


@pytest.fixture(scope="module")
def stream_results():
    rng = random.Random(424242)
    violations = []
    completeness = {(algo, mu): [] for algo in ("inc", "plus") for mu in (0.7, 1.0)}
    streams = 200
    for trial in range(streams):
        init_db = random_db(rng, max_seqs=10, min_seqs=5, max_events=5)
        deltas = [random_db(rng, max_seqs=4, min_seqs=1, max_events=5) for _ in range(3)]
        wt = random_weights(rng)
        min_sup = rng.choice([0.2, 0.3, 0.4])

        baselines = []
        parts = [init_db]
        for delta in deltas:
            parts.append(delta)
            baselines.append(
                {sp.pattern for sp in fuws(UncertainDatabase.concat(parts), wt, min_sup, 1.0)}
            )

        for mu in (0.7, 1.0):
            params = MiningParams(min_sup=min_sup, wgt_fct=1.0, mu=mu)
            inc = init_mining(init_db, wt, params)
            plus = init_mining(init_db, wt, params)
            shadow = USeqTrie()
            if mu == 0.7:
                for pat, wes in inc.seq_trie.patterns():
                    shadow.insert(pat, wes)
            parts = [init_db]
            for k, delta in enumerate(deltas):
                fs_inc = uwsinc_step(inc, delta)
                fs_plus = uwsincplus_step(plus, delta)
                if mu == 0.7:
                    sup_calc(shadow, delta, wt)
                parts.append(delta)
                inc_set = {sp.pattern for sp in fs_inc}
                plus_set = {sp.pattern for sp in fs_plus}
                if not inc_set <= plus_set:
                    violations.append(f"trial {trial} mu={mu} step {k}: containment broken")
                base = baselines[k]
                for algo, s in (("inc", inc_set), ("plus", plus_set)):
                    completeness[(algo, mu)].append(len(s & base) / len(base) if base else 1.0)
                if mu != 0.7:
                    continue
                whole = UncertainDatabase.concat(parts)
                for th, fs in ((inc.thresholds(), fs_inc), (plus.thresholds(), fs_plus)):
                    for sp in fs:
                        if sp.wes < th.min_wes - 1e-9:
                            violations.append(f"trial {trial} step {k}: reported under minWES")
                for sp in fs_inc:  # tracked since init by construction
                    if abs(sp.wes - oracle_wes(sp.pattern, whole, wt)) > 1e-9:
                        violations.append(f"trial {trial} step {k}: inc wes != oracle")
                for sp in fs_plus:  # local entries may undercount, never overshoot
                    if sp.wes > oracle_wes(sp.pattern, whole, wt) + 1e-9:
                        violations.append(f"trial {trial} step {k}: plus wes overshoots")
            if mu == 0.7:
                whole = UncertainDatabase.concat(parts)
                for pat, wes in shadow.patterns():
                    if abs(wes - oracle_wes(pat, whole, wt)) > 1e-9:
                        violations.append(f"trial {trial}: maintained != oracle for {pat.events}")
    means = {key: sum(vals) / len(vals) for key, vals in completeness.items()}
    return {"violations": violations, "means": means, "streams": streams}


def test_criterion_6_incremental_soundness(stream_results):
    r = stream_results
    ok = r["streams"] >= 200 and not r["violations"]
    report(
        6,
        "incremental soundness",
        ok,
        f"{r['streams']} streams, {len(r['violations'])} violations"
        + ("; " + "; ".join(r["violations"][:3]) if r["violations"] else ""),
    )


def test_criterion_7_completeness_trend(stream_results):
    m = stream_results["means"]
    problems = []
    for mu in (0.7, 1.0):
        if m[("plus", mu)] < m[("inc", mu)] - 1e-12:
            problems.append(f"plus<{m[('plus', mu)]:.4f}> < inc<{m[('inc', mu)]:.4f}> at mu={mu}")
    for algo in ("inc", "plus"):
        if m[(algo, 0.7)] < m[(algo, 1.0)] - 1e-12:
            problems.append(f"{algo}: mu0.7 {m[(algo, 0.7)]:.4f} < mu1.0 {m[(algo, 1.0)]:.4f}")
    detail = ", ".join(f"{a}/mu{mu}={m[(a, mu)]:.4f}" for a in ("inc", "plus") for mu in (0.7, 1.0))
    report(7, "completeness trend", not problems, "; ".join(problems) or detail)


def test_criterion_8_candidate_reduction(tmp_path):
    rng = random.Random(808)
    alphabet = [str(i) for i in range(1, 121)]
    zipf = [1.0 / r for r in range(1, 121)]
    src = tmp_path / "precise.txt"
    with open(src, "w") as fh:
        for _ in range(6000):
            parts = []
            for _ in range(rng.randint(4, 9)):
                ev = []
                for it in rng.choices(alphabet, weights=zipf, k=1 if rng.random() < 0.7 else 2):
                    if it not in ev:
                        ev.append(it)
                parts.extend(ev)
                parts.append("-1")
            parts.append("-2")
            fh.write(" ".join(parts) + "\n")
    db_path = str(tmp_path / "u.db")
    w_path = str(tmp_path / "u.w")
    assert main(["gen", "--in", str(src), "--seed", "20260809",
                 "--out-db", db_path, "--out-weights", w_path]) == 0
    full = parse_uncertain_db(db_path)
    sub, _ = split_db(full, SplitSpec(initial_fraction=5000 / full.size))
    assert sub.size == 5000
    sub_path = str(tmp_path / "sub.db")
    write_uncertain_db(sub_path, sub)

    bench_csv = str(tmp_path / "bench.csv")
    thresholds = "0.05,0.08,0.12,0.18,0.25"
    # Best of 3 per bound and threshold: one timing is too noisy to rank
    # two mines this close (both verify about the same few candidates).
    assert main(["bench", "--db", sub_path, "--weights", w_path,
                 "--min-sup-list", thresholds, "--bound", "both", "--repeat", "3",
                 "--out", bench_csv]) == 0
    with open(bench_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_sup = {}
    for row in rows:
        by_sup.setdefault(row["min_sup"], {})[row["bound"]] = row

    problems = []
    faster = 0
    for sup, pair in by_sup.items():
        cap, top = pair["cap"], pair["top"]
        if int(cap["candidates"]) > int(top["candidates"]):
            problems.append(f"min_sup {sup}: cap candidates exceed top")
        if cap["frequent"] != top["frequent"]:
            problems.append(f"min_sup {sup}: survivor counts differ")
        if float(cap["ms"]) <= float(top["ms"]):
            faster += 1
    if faster < math.ceil(0.8 * len(by_sup)):
        problems.append(f"cap faster only {faster}/{len(by_sup)}")

    # Survivor sets byte-for-byte, spot-checked at two thresholds.
    wt = parse_weights(w_path)
    for min_sup in (0.12, 0.25):
        cap_trie, cap_stats = mine_trie(sub, wt, min_sup, 1.0, bound="cap")
        top_trie, top_stats = mine_trie(sub, wt, min_sup, 1.0, bound="top")
        cap_set = {(sp.pattern, round(sp.wes, 9)) for sp in cap_trie.collect(cap_stats.min_wes)}
        top_set = {(sp.pattern, round(sp.wes, 9)) for sp in top_trie.collect(top_stats.min_wes)}
        if cap_set != top_set:
            problems.append(f"min_sup {min_sup}: survivor sets differ")

    counts = {s: (p["cap"]["candidates"], p["top"]["candidates"]) for s, p in by_sup.items()}
    report(8, "candidate reduction", not problems, "; ".join(problems) or f"cap/top {counts}")


def test_criterion_9_supcalc_scaling():
    rng = random.Random(909)
    alpha = "abcde"
    seqs = []
    for _ in range(150):
        evs = [[(it, round(rng.uniform(0.3, 0.9), 3)) for it in alpha] for _ in range(8)]
        seqs.append(USequence(evs))
    db = UncertainDatabase(tuple(seqs))
    wt = WeightTable({it: 0.8 for it in alpha})

    # Dense events keep every node live in every sequence, so wall-clock
    # tracks node count rather than pruning luck.
    level = [single(it) for it in alpha]
    pool = list(level)
    for _ in range(4):
        nxt = []
        for pat in level:
            nxt.extend(extend(pat, it, "I") for it in alpha if it > pat.last_item)
            nxt.extend(extend(pat, it, "S") for it in alpha)
        pool.extend(nxt)
        level = nxt

    sizes, times = [], []
    it = iter(pool)
    trie = USeqTrie()
    nodes = trie.node_count
    for target in (400, 800, 1600, 3200):
        # The pool is level-wise, so each pattern extends one already stored
        # and its insert adds exactly one node.
        while nodes < target:
            trie.insert(next(it), 0.0)
            nodes += 1
        assert trie.node_count == nodes
        best = None
        for _ in range(3):
            t0 = time.perf_counter()
            sup_calc(trie, db, wt)
            dt = time.perf_counter() - t0
            best = dt if best is None or dt < best else best
        sizes.append(nodes)
        times.append(best)

    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    ok = 0.8 <= slope <= 1.3
    report(9, "support-scan scaling", ok,
           f"slope={slope:.3f} sizes={sizes} times={[f'{t:.3f}' for t in times]}")
