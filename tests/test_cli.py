import csv
import os

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
        assert row["db_size"] == "6"
        assert row["distinct_items"] == "5"
        assert int(row["candidates"]) >= int(row["frequent"])
        assert int(row["false_positives"]) == int(row["candidates"]) - int(row["frequent"])

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

    def test_data_error_exit_1(self, files, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("a:2.0 -1 -2\n")
        assert main(["mine", "--db", str(bad), "--weights", files["w"],
                     "--min-sup", "0.2", "--wgt-fct", "1.0"]) == 1
        assert main(["mine", "--db", str(tmp_path / "missing.txt"), "--weights", files["w"],
                     "--min-sup", "0.2", "--wgt-fct", "1.0"]) == 1

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
    """A 0xff byte on line 2 of any input file is a data error (exit 1), not a traceback."""

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
        if kind != "checkpoint":
            assert f"{bad}:2:" in err
