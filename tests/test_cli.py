import csv
import os
import subprocess
import sys

import pytest

from useqmine import read_patterns_tsv
from useqmine.cli import main

from conftest import DB_TEXT, DELTA1_TEXT, DELTA2_TEXT, WEIGHTS_TEXT, P


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("db", DB_TEXT),
        ("d1", DELTA1_TEXT),
        ("d2", DELTA2_TEXT),
        ("w", WEIGHTS_TEXT),
    ]:
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = str(tmp_path)
    return paths


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestMine:
    def test_golden_run_with_report(self, files, tmp_path):
        out = str(tmp_path / "out.tsv")
        report = str(tmp_path / "report.csv")
        code = main(
            [
                "mine",
                "--db", files["db"],
                "--weights", files["w"],
                "--min-sup", "0.2",
                "--wgt-fct", "1.0",
                "--mu", "0.7",
                "--out", out,
                "--report", report,
            ]
        )
        assert code == 0
        rows = read_patterns_tsv(out)
        assert len(rows) == 5
        assert {sp.pattern for sp in rows} == {
            P("(a)"), P("(b)"), P("(c)"), P("(a)(a)"), P("(a c)")
        }
        (row,) = read_csv(report)
        assert list(row) == [
            "command", "db", "weights", "min_sup", "wgt_fct", "mu", "db_size",
            "distinct_items", "avg_length", "candidates", "false_positives", "ruled_out",
            "frequent", "grow_ms", "verify_ms", "total_ms",
        ]
        assert row["db_size"] == "6"
        assert row["distinct_items"] == "5"
        assert int(row["candidates"]) >= int(row["frequent"])
        assert int(row["false_positives"]) == int(row["candidates"]) - int(row["frequent"])
        assert 0 <= int(row["ruled_out"]) <= int(row["false_positives"])

    def test_mu_default_gives_frequent_only(self, files, tmp_path):
        out = str(tmp_path / "out.tsv")
        code = main(
            ["mine", "--db", files["db"], "--weights", files["w"],
             "--min-sup", "0.2", "--wgt-fct", "1.0", "--out", out]
        )
        assert code == 0
        assert {sp.pattern for sp in read_patterns_tsv(out)} == {P("(a)"), P("(b)"), P("(c)")}

    def test_validation_exit_2(self, files):
        assert main(["mine", "--db", files["db"], "--weights", files["w"],
                     "--min-sup", "1.1", "--wgt-fct", "1.0"]) == 2
        assert main(["mine", "--db", files["db"]]) == 2  # missing required flags

    def test_data_error_exit_1(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("a:2.0 -1 -2\n")
        assert main(["mine", "--db", str(bad), "--weights", files["w"],
                     "--min-sup", "0.2", "--wgt-fct", "1.0"]) == 1
        # Written out, item "x)(y" would read back as the pattern (x)(y).
        bad.write_text("a:0.5 -1 -2\nx)(y:0.5 -1 -2\n")
        capsys.readouterr()
        assert main(["mine", "--db", str(bad), "--weights", files["w"],
                     "--min-sup", "0.2", "--wgt-fct", "1.0"]) == 1
        assert f"{bad}:2: " in capsys.readouterr().err
        assert main(["mine", "--db", str(tmp_path / "missing.txt"), "--weights", files["w"],
                     "--min-sup", "0.2", "--wgt-fct", "1.0"]) == 1

    @pytest.mark.parametrize("command", ["mine", "oracle"])
    @pytest.mark.parametrize("fmt", ["tsv", "json-lines"])
    def test_stdout_matches_out_file(self, files, tmp_path, capsys, command, fmt):
        argv = [command, "--db", files["db"], "--weights", files["w"], "--min-sup", "0.2",
                "--wgt-fct", "1.0", "--mu", "0.7", "--format", fmt]
        out = tmp_path / "out.txt"
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert printed.splitlines() == out.read_text().splitlines()
        assert len(printed.splitlines()) == 5
        assert printed.startswith("{" if fmt == "json-lines" else "(")

    @pytest.mark.parametrize("db", ["db.txt", "missing.txt"])
    def test_module_run_matches_main(self, files, capsys, db):
        # ``python -m useqmine.cli`` is the same program as ``main``.
        argv = ["mine", "--db", os.path.join(files["dir"], db), "--weights", files["w"],
                "--min-sup", "0.2", "--wgt-fct", "1.0", "--mu", "0.7"]
        code = main(argv)
        printed = capsys.readouterr().out
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "useqmine.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert (proc.stdout, proc.returncode) == (printed, code)
        assert code == (0 if db == "db.txt" else 1)

    def test_deterministic_output(self, files, tmp_path):
        outs = []
        for name in ("a.tsv", "b.tsv"):
            out = str(tmp_path / name)
            main(["mine", "--db", files["db"], "--weights", files["w"],
                  "--min-sup", "0.2", "--wgt-fct", "1.0", "--mu", "0.7", "--out", out])
            outs.append(open(out).read())
        assert outs[0] == outs[1]


class TestInc:
    def run_inc(self, files, tmp_path, algo, outname, extra=None):
        out_dir = str(tmp_path / outname)
        argv = [
            "inc",
            "--init", files["db"],
            "--delta", files["d1"], files["d2"],
            "--weights", files["w"],
            "--algo", algo,
            "--min-sup", "0.2",
            "--mu", "0.7",
            "--wgt-fct", "1.0",
            "--out-dir", out_dir,
        ] + (extra or [])
        assert main(argv) == 0
        return out_dir

    def test_uwsinc_plus_matches_goldens(self, files, tmp_path):
        out_dir = self.run_inc(files, tmp_path, "uwsinc+", "plus")
        step1 = {sp.pattern: sp.wes for sp in read_patterns_tsv(os.path.join(out_dir, "step_1.tsv"))}
        assert set(step1) == {
            P("(a)"), P("(a)(a)"), P("(a c)"), P("(c)"), P("(c)(a)"), P("(f)")
        }
        step2 = {sp.pattern for sp in read_patterns_tsv(os.path.join(out_dir, "step_2.tsv"))}
        assert step2 == {P("(a)"), P("(a)(a)"), P("(c)"), P("(c)(a)"), P("(d)"), P("(f)")}
        rows = read_csv(os.path.join(out_dir, "report.csv"))
        assert list(rows[0]) == [
            "step", "algo", "delta", "delta_size", "db_size", "wam", "min_wes",
            "fs_count", "step_ms", "completeness",
        ]
        assert [r["step"] for r in rows] == ["0", "1", "2"]
        assert rows[1]["fs_count"] == "6"

    def test_uwsinc_matches_goldens(self, files, tmp_path):
        out_dir = self.run_inc(files, tmp_path, "uwsinc", "inc")
        step2 = {sp.pattern for sp in read_patterns_tsv(os.path.join(out_dir, "step_2.tsv"))}
        assert step2 == {P("(a)"), P("(a)(a)"), P("(c)")}

    def test_baseline_definition(self, files, tmp_path):
        from useqmine import UncertainDatabase, fuws, parse_uncertain_db, parse_weights

        out_dir = self.run_inc(files, tmp_path, "baseline", "base")
        db = parse_uncertain_db(files["db"])
        d1 = parse_uncertain_db(files["d1"])
        wt = parse_weights(files["w"])
        want = {sp.pattern for sp in fuws(UncertainDatabase.concat([db, d1]), wt, 0.2, 1.0)}
        got = {sp.pattern for sp in read_patterns_tsv(os.path.join(out_dir, "step_1.tsv"))}
        assert got == want

    def test_completeness_column_against_baseline(self, files, tmp_path):
        base_dir = self.run_inc(files, tmp_path, "baseline", "base")
        out_dir = self.run_inc(files, tmp_path, "uwsinc", "inc", ["--baseline-dir", base_dir])
        rows = read_csv(os.path.join(out_dir, "report.csv"))
        base1 = {sp.pattern for sp in read_patterns_tsv(os.path.join(base_dir, "step_1.tsv"))}
        mine1 = {sp.pattern for sp in read_patterns_tsv(os.path.join(out_dir, "step_1.tsv"))}
        want = len(mine1 & base1) / len(base1)
        assert float(rows[1]["completeness"]) == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("row", ["(a:b)\t1.0", "(-1)(x y)\t0.5"])
    def test_baseline_with_bad_item_token_refused(self, files, tmp_path, capsys, row):
        # A baseline row no mined pattern can match is refused, not counted as missed.
        base_dir = self.run_inc(files, tmp_path, "baseline", "base")
        with open(os.path.join(base_dir, "step_1.tsv"), "a") as fh:
            fh.write(row + "\n")
        capsys.readouterr()
        argv = ["inc", "--init", files["db"], "--delta", files["d1"], "--weights", files["w"],
                "--algo", "uwsinc", "--min-sup", "0.2", "--mu", "0.7", "--wgt-fct", "1.0",
                "--out-dir", str(tmp_path / "inc"), "--baseline-dir", base_dir]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "item token" in err
        lines = open(os.path.join(base_dir, "step_1.tsv")).read().count("\n")
        assert f"step_1.tsv:{lines}:" in err

    def test_checkpoint_resume(self, files, tmp_path):
        ck = str(tmp_path / "state.ck")
        out1 = str(tmp_path / "run1")
        assert main(["inc", "--init", files["db"], "--delta", files["d1"],
                     "--weights", files["w"], "--algo", "uwsinc+", "--min-sup", "0.2",
                     "--mu", "0.7", "--wgt-fct", "1.0", "--out-dir", out1,
                     "--checkpoint", ck]) == 0
        out2 = str(tmp_path / "run2")
        assert main(["inc", "--delta", files["d2"], "--weights", files["w"],
                     "--algo", "uwsinc+", "--min-sup", "0.2", "--mu", "0.7",
                     "--wgt-fct", "1.0", "--out-dir", out2, "--checkpoint", ck]) == 0
        resumed = {sp.pattern: sp.wes
                   for sp in read_patterns_tsv(os.path.join(out2, "step_1.tsv"))}
        straight = str(tmp_path / "run3")
        assert main(["inc", "--init", files["db"], "--delta", files["d1"], files["d2"],
                     "--weights", files["w"], "--algo", "uwsinc+", "--min-sup", "0.2",
                     "--mu", "0.7", "--wgt-fct", "1.0", "--out-dir", straight]) == 0
        whole = {sp.pattern: sp.wes
                 for sp in read_patterns_tsv(os.path.join(straight, "step_2.tsv"))}
        assert resumed == pytest.approx(whole)

    def test_uwsinc_on_plus_checkpoint_empties_promising(self, files, tmp_path):
        ck = str(tmp_path / "state.ck")
        flags = ["--weights", files["w"], "--min-sup", "0.2", "--mu", "0.7",
                 "--wgt-fct", "1.0", "--checkpoint", ck]
        assert main(["inc", "--init", files["db"], "--delta", files["d1"],
                     "--algo", "uwsinc+", "--out-dir", str(tmp_path / "run1")] + flags) == 0
        assert open(ck).read().split("[pfs-trie]\n")[1] != ""
        out = str(tmp_path / "run2")
        assert main(["inc", "--delta", files["d2"], "--algo", "uwsinc",
                     "--out-dir", out] + flags) == 0
        assert open(ck).read().endswith("[pfs-trie]\n")
        assert open(os.path.join(out, "step_1.tsv")).read() == (
            "(a)\t6.160000\n(a)(a)\t2.264000\n(c)\t5.760000\n"
            "(c)(a)\t2.822000\n(d)\t2.880000\n(f)\t2.610000\n"
        )

    def test_checkpoint_with_other_weights_refused(self, files, tmp_path, capsys):
        ck = str(tmp_path / "state.ck")
        flags = ["--algo", "uwsinc+", "--min-sup", "0.2", "--mu", "0.7", "--wgt-fct", "1.0"]
        assert main(["inc", "--init", files["db"], "--delta", files["d1"], "--weights",
                     files["w"], *flags, "--out-dir", str(tmp_path / "run1"),
                     "--checkpoint", ck]) == 0
        other = tmp_path / "other_weights.txt"
        other.write_text(WEIGHTS_TEXT.replace("a 0.8", "a 0.5"))
        capsys.readouterr()
        assert main(["inc", "--delta", files["d2"], "--weights", str(other), *flags,
                     "--out-dir", str(tmp_path / "run2"), "--checkpoint", ck]) == 1
        err = capsys.readouterr().err
        assert "different weight table" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad", ["1 S a x", "1 S a nan", "1 S a -3.0"])
    def test_checkpoint_with_bad_wes_refused(self, files, tmp_path, capsys, bad):
        ck = tmp_path / "state.ck"
        flags = ["--algo", "uwsinc+", "--min-sup", "0.2", "--mu", "0.7", "--wgt-fct", "1.0",
                 "--weights", files["w"], "--checkpoint", str(ck)]
        assert main(["inc", "--init", files["db"], "--delta", files["d1"], *flags,
                     "--out-dir", str(tmp_path / "run1")]) == 0
        head, _ = ck.read_text().split("\n", 1)
        ck.write_text(f"{head}\n[seq-trie]\n{bad}\n[pfs-trie]\n")
        capsys.readouterr()
        assert main(["inc", "--delta", files["d2"], *flags,
                     "--out-dir", str(tmp_path / "run2")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ck}:3: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "snapshot",
        ["1 S b 0.75\n2 I a 0.375", "1 S a 0.75\n1 S a 0.5", "1 S b -\n2 S -1 0.5",
         "1 S a 0.75\n2 S b -\n1 S c 0.5"],
    )
    def test_checkpoint_with_bad_edge_refused(self, files, tmp_path, capsys, snapshot):
        ck = tmp_path / "state.ck"
        flags = ["--algo", "uwsinc", "--min-sup", "0.2", "--mu", "0.7", "--wgt-fct", "1.0",
                 "--weights", files["w"], "--checkpoint", str(ck)]
        assert main(["inc", "--init", files["db"], "--delta", files["d1"], *flags,
                     "--out-dir", str(tmp_path / "run1")]) == 0
        head, _ = ck.read_text().split("\n", 1)
        ck.write_text(f"{head}\n[seq-trie]\n{snapshot}\n[pfs-trie]\n")
        before = ck.read_text()
        capsys.readouterr()
        assert main(["inc", "--delta", files["d2"], *flags,
                     "--out-dir", str(tmp_path / "run2")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ck}:4: ")
        assert "Traceback" not in err
        assert ck.read_text() == before

    def test_checkpoint_with_pattern_in_both_tries_refused(self, files, tmp_path, capsys):
        ck = tmp_path / "state.ck"
        flags = ["--algo", "uwsinc+", "--min-sup", "0.2", "--mu", "0.7", "--wgt-fct", "1.0",
                 "--weights", files["w"], "--checkpoint", str(ck)]
        assert main(["inc", "--init", files["db"], "--delta", files["d1"], *flags,
                     "--out-dir", str(tmp_path / "run1")]) == 0
        head, _ = ck.read_text().split("\n", 1)
        ck.write_text(f"{head}\n[seq-trie]\n1 S a 0.5\n[pfs-trie]\n1 S a 0.5\n")
        before = ck.read_bytes()
        capsys.readouterr()
        assert main(["inc", "--delta", files["d2"], *flags,
                     "--out-dir", str(tmp_path / "run2")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint holds (a) in both tries")
        assert "Traceback" not in err
        assert ck.read_bytes() == before

    def test_init_with_existing_checkpoint_refused(self, files, tmp_path, capsys):
        ck = str(tmp_path / "state.ck")
        flags = ["--weights", files["w"], "--algo", "uwsinc+", "--min-sup", "0.2",
                 "--mu", "0.7", "--wgt-fct", "1.0", "--checkpoint", ck]
        assert main(["inc", "--init", files["db"], "--delta", files["d1"], *flags,
                     "--out-dir", str(tmp_path / "run1")]) == 0
        before = open(ck).read()
        capsys.readouterr()
        out2 = tmp_path / "run2"
        assert main(["inc", "--init", files["db"], "--delta", files["d2"], *flags,
                     "--out-dir", str(out2)]) == 2
        assert "drop --init" in capsys.readouterr().err
        assert open(ck).read() == before
        assert not out2.exists()

    def test_baseline_with_checkpoint_refused(self, files, tmp_path, capsys):
        ck = tmp_path / "state.ck"
        out = tmp_path / "base"
        assert main(["inc", "--init", files["db"], "--delta", files["d1"],
                     "--weights", files["w"], "--algo", "baseline", "--min-sup", "0.2",
                     "--mu", "0.7", "--wgt-fct", "1.0", "--out-dir", str(out),
                     "--checkpoint", str(ck)]) == 2
        assert "--checkpoint does not apply" in capsys.readouterr().err
        assert not ck.exists() and not out.exists()

    def test_missing_init_without_checkpoint(self, files, tmp_path):
        assert main(["inc", "--delta", files["d1"], "--weights", files["w"],
                     "--algo", "uwsinc", "--min-sup", "0.2", "--mu", "0.7",
                     "--wgt-fct", "1.0", "--out-dir", str(tmp_path / "x")]) == 2


class TestGen:
    def test_same_seed_same_bytes(self, files, tmp_path):
        src = tmp_path / "precise.txt"
        src.write_text("1 -1 2 3 -1 -2\n4 -1 1 -1 -2\n" * 20)
        outs = []
        for tag in ("x", "y"):
            db_out = str(tmp_path / f"{tag}.db")
            w_out = str(tmp_path / f"{tag}.w")
            assert main(["gen", "--in", str(src), "--seed", "7",
                         "--out-db", db_out, "--out-weights", w_out]) == 0
            outs.append((open(db_out).read(), open(w_out).read()))
        assert outs[0] == outs[1]

    def test_zero_std_rejected(self, files, tmp_path):
        src = tmp_path / "precise.txt"
        src.write_text("1 -1 -2\n")
        assert main(["gen", "--in", str(src), "--seed", "7", "--prob-std", "0",
                     "--out-db", str(tmp_path / "o.db"),
                     "--out-weights", str(tmp_path / "o.w")]) == 2


class TestOracleCmd:
    def test_matches_mine_output(self, files, tmp_path):
        mine_out = str(tmp_path / "m.tsv")
        oracle_out = str(tmp_path / "o.tsv")
        base = ["--db", files["db"], "--weights", files["w"],
                "--min-sup", "0.2", "--wgt-fct", "1.0", "--mu", "0.7"]
        assert main(["mine"] + base + ["--out", mine_out]) == 0
        assert main(["oracle"] + base + ["--out", oracle_out]) == 0
        a = {sp.pattern: sp.wes for sp in read_patterns_tsv(mine_out)}
        b = {sp.pattern: sp.wes for sp in read_patterns_tsv(oracle_out)}
        assert a == pytest.approx(b)

    def test_guard_exit_3(self, files, tmp_path):
        big = tmp_path / "big.txt"
        big.write_text("a:0.5 -1 -2\n" * 25)
        assert main(["oracle", "--db", str(big), "--weights", files["w"],
                     "--min-sup", "0.2", "--wgt-fct", "1.0"]) == 3

    def test_empty_result_exit_0(self, files, tmp_path):
        out = str(tmp_path / "o.tsv")
        assert main(["oracle", "--db", files["db"], "--weights", files["w"],
                     "--min-sup", "1.0", "--wgt-fct", "1.0", "--out", out]) == 0
        assert open(out).read() == ""


class TestBench:
    def test_csv_columns_and_bound_ordering(self, files, tmp_path):
        out = str(tmp_path / "bench.csv")
        assert main(["bench", "--db", files["db"], "--weights", files["w"],
                     "--min-sup-list", "0.1,0.2,0.3", "--bound", "both",
                     "--out", out]) == 0
        rows = read_csv(out)
        assert list(rows[0]) == ["bound", "min_sup", "candidates", "frequent", "false_pct", "ms"]
        by_sup = {}
        for row in rows:
            by_sup.setdefault(row["min_sup"], {})[row["bound"]] = row
        for sup, pair in by_sup.items():
            assert int(pair["cap"]["candidates"]) <= int(pair["top"]["candidates"])
            assert pair["cap"]["frequent"] == pair["top"]["frequent"]

    def test_monotone_candidates_across_thresholds(self, files, tmp_path):
        out = str(tmp_path / "bench.csv")
        assert main(["bench", "--db", files["db"], "--weights", files["w"],
                     "--min-sup-list", "0.3,0.2,0.1", "--bound", "cap",
                     "--out", out]) == 0
        rows = [r for r in read_csv(out) if r["bound"] == "cap"]
        counts = {float(r["min_sup"]): int(r["candidates"]) for r in rows}
        assert counts[0.1] >= counts[0.2] >= counts[0.3]

    def test_bad_threshold_list(self, files, tmp_path):
        assert main(["bench", "--db", files["db"], "--weights", files["w"],
                     "--min-sup-list", "0.2,oops", "--out",
                     str(tmp_path / "b.csv")]) == 2


class TestNumberFlags:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("mine", "--wgt-fct", "nan"),
            ("mine", "--wgt-fct", "inf"),
            ("oracle", "--wgt-fct", "nan"),
            ("oracle", "--wgt-fct", "inf"),
            ("inc", "--lwes-factor", "nan"),
            ("bench", "--wgt-fct", "-1"),
            ("bench", "--wgt-fct", "nan"),
            ("gen", "--prob-std", "nan"),
        ],
    )
    def test_rejected_with_exit_2_before_any_output(self, files, tmp_path, capsys,
                                                     command, flag, value):
        out = tmp_path / "out"
        precise = tmp_path / "precise.txt"
        precise.write_text("1 -1 2 -1 -2\n")
        base = {
            "mine": {"--db": files["db"], "--weights": files["w"], "--min-sup": "0.2",
                     "--wgt-fct": "1.0", "--out": str(out)},
            "inc": {"--init": files["db"], "--delta": files["d1"], "--weights": files["w"],
                    "--algo": "uwsinc+", "--min-sup": "0.2", "--mu": "0.7",
                    "--wgt-fct": "1.0", "--out-dir": str(out)},
            "bench": {"--db": files["db"], "--weights": files["w"], "--min-sup-list": "0.2,0.3",
                      "--out": str(out)},
            "gen": {"--in": str(precise), "--seed": "7", "--out-db": str(out),
                    "--out-weights": str(tmp_path / "w.out")},
        }
        base["oracle"] = base["mine"]
        argv = [command] + [tok for f, v in {**base[command], flag: value}.items() for tok in (f, v)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestNotUtf8:
    """A 0xff byte in any input file is a data error (exit 1) naming its line, not a traceback."""

    BAD = {
        "db": b"a:0.5 -1 -2\na:0.5 \xff -1 -2\n",
        "weights": b"a 0.8\n\xff 0.5\n",
        "spmf": b"1 -1 -2\n1 \xff -1 -2\n",
        "patterns": b"(a)\t1.000000\n(\xff)\t1.000000\n",
        "checkpoint": b"useqmine-checkpoint/2 \xff\n",
    }

    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_exit_1(self, files, tmp_path, capsys, kind):
        # --baseline-dir reads the pattern file of step 0 by its fixed name.
        bad = tmp_path / ("step_0.tsv" if kind == "patterns" else "bad.txt")
        bad.write_bytes(self.BAD[kind])
        out = str(tmp_path / "out")
        mine = ["mine", "--db", files["db"], "--weights", files["w"],
                "--min-sup", "0.2", "--wgt-fct", "1.0", "--out", out]
        inc = ["inc", "--delta", files["d1"], "--weights", files["w"], "--algo", "uwsinc",
               "--min-sup", "0.2", "--mu", "0.7", "--wgt-fct", "1.0", "--out-dir", out]
        argv = {
            "db": mine[:2] + [str(bad)] + mine[3:],
            "weights": mine[:4] + [str(bad)] + mine[5:],
            "spmf": ["gen", "--in", str(bad), "--seed", "7", "--out-db", out,
                     "--out-weights", str(tmp_path / "w.out")],
            "patterns": inc + ["--init", files["db"], "--baseline-dir", str(tmp_path)],
            "checkpoint": inc + ["--checkpoint", str(bad)],
        }[kind]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not UTF-8" in err
        assert f"{bad}:{1 if kind == 'checkpoint' else 2}:" in err
