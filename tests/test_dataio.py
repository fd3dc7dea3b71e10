import dataclasses
import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from useqmine import (
    GenConfig,
    MiningError,
    ParseError,
    Pattern,
    ScoredPattern,
    SplitSpec,
    WeightTable,
    draw_fractions,
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
from useqmine import dataio, model
from useqmine.dataio import Xoshiro256StarStar
from useqmine.model import check_item_token

from conftest import (
    DB_TEXT,
    WEIGHTS_TEXT,
    P,
    check_reads_or_refuses,
    databases,
    db_from_text,
    random_db,
    spliced_bytes,
)


def count_token_checks(monkeypatch):
    """Record every ``check_item_token`` call the readers and the model make."""
    calls = []

    def counting(token):
        calls.append(token)
        return check_item_token(token)

    monkeypatch.setattr(dataio, "check_item_token", counting)
    monkeypatch.setattr(model, "check_item_token", counting)
    return calls


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
            ("-1:0.5 -1 -2", "invalid item token '-1'"),
            ("x)(y:0.5 -1 -2", "item token 'x)(y' must not contain"),
            # Written first in a file, this token would read back as a
            # byte-order mark and "a".
            ("\ufeffa:0.5 -1 -2", "item token '\\ufeffa' must not start with U+FEFF"),
            # A line with several errors: the grammar's comes first, then
            # event by event. "-2" alone and "a:0.5 -1 -1 -2" are above.
            ("a:x -1 b:0.5 -2", "not closed"),
            ("a0.5 -1 -1 -2", "empty event"),
            ("a:0.5 a:0.6 -1 b:0.5 -1 -2 -2", "-2 before end"),
            ("a:x -1 b:0.5 b:0.6 -1 -2", "bad probability in 'a:x'"),
            ("-1 -2", "empty event"),
            ("-2 -2", "-2 before end"),
            ("a:0.5 -1 -1 b:x -1 -2", "empty event"),
            ("a:0.5 -1 b:0.5 -1 -1 -2", "empty event"),
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

    @pytest.mark.parametrize(
        "line,message",
        [
            # Each message, and which error of a line wins, as recorded before
            # the reader built sequences straight into their item index.
            ("a:0.5 a:0.6 b:x -1 -2", "bad probability in 'b:x'"),
            ("b:0.5 b:0.6 a:0.5 a:0.2 -1 -2", "duplicate item 'a' in event"),
            ("a:0.5 a:0.6 x)(y:0.5 -1 -2",
             "item token 'x)(y' must not contain ':', '(', ')' or whitespace"),
            ("a:0.5 a:0.6 -1 b:x -1 -2", "duplicate item 'a' in event"),
            ("a:1.5 b:x -1 -2", "probability of 'a' out of (0, 1]: 1.5"),
            ("x)(y:1.5 -1 -2", "item token 'x)(y' must not contain ':', '(', ')' or whitespace"),
            ("a:0.5 -1 b:x -1 -1 -2", "empty event"),
            ("a:2 a:0.5 -1 -2", "probability of 'a' out of (0, 1]: 2.0"),
            ("a:nan -1 -2", "probability of 'a' out of (0, 1]: nan"),
            ("c:0.5 a:0.5 c:0.2 a0.1 -1 -2", "malformed token 'a0.1', expected item:prob"),
        ],
    )
    def test_error_message_and_precedence(self, tmp_path, line, message):
        path = tmp_path / "bad.txt"
        path.write_text("a:0.9 -1 -2\n" + line + "\n")
        with pytest.raises(ParseError) as err:
            parse_uncertain_db(str(path))
        assert str(err.value) == f"{path}:2: {message}"

    def test_each_distinct_item_checked_once(self, tmp_path, monkeypatch):
        calls = count_token_checks(monkeypatch)
        db = db_from_text(tmp_path, DB_TEXT)
        assert sorted(calls) == db.alphabet()
        # Every occurrence of an item holds the one string object checked.
        first = {}
        for seq in db.sequences:
            for item in seq.index:
                assert first.setdefault(item, item) is item

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

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_text("\ufeff" + DB_TEXT, encoding="utf-8")
        assert parse_uncertain_db(str(path)) == db_from_text(tmp_path, DB_TEXT)
        # Only a whole mark: its first bytes alone are not UTF-8.
        path.write_bytes(b"\xef\xbb")
        with pytest.raises(ParseError, match="bom.txt:1: byte 0xef at column 1 is not UTF-8"):
            parse_uncertain_db(str(path))

    def test_equal_positions_stored_once_per_file(self, tmp_path):
        text = "a:0.5 -1 b:0.2 -1 a:0.3 -1 -2\nc:0.1 -1 d:0.4 -1 c:0.9 -1 -2\n"
        first, second = (db_from_text(tmp_path, text).sequences for _ in range(2))
        assert first[0].index["a"][0] == (0, 2)
        assert first[0].index["a"][0] is first[1].index["c"][0]
        assert first[0].index["b"][0] is first[1].index["d"][0]
        # Each parse has its own table: nothing outlives it.
        assert first[0].index["a"][0] is not second[0].index["a"][0]


class TestParseWeights:
    def test_table(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("a 0.8\nb 1.0\n")
        wt = parse_weights(str(path))
        assert wt.entries == {"a": 0.8, "b": 1.0}

    @pytest.mark.parametrize(
        "line", ["a 0", "a 1.5", "a x", "a", "a 0.5 extra", "x)(y 0.5"]
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

    @pytest.mark.parametrize(
        "line,message",
        [
            ("b 2", "weight out of (0, 1]: 2.0"),
            ("b nan", "weight out of (0, 1]: nan"),
            ("x)(y z", "item token 'x)(y' must not contain ':', '(', ')' or whitespace"),
            ("-1 0.5", "invalid item token '-1'"),
            ("\ufeffb 0.5", "item token '\\ufeffb' must not start with U+FEFF"),
            ("b x", "bad weight 'x'"),
            ("a 0.7", "duplicate weight for 'a'"),
        ],
    )
    def test_error_message_and_precedence(self, tmp_path, line, message):
        path = tmp_path / "w.txt"
        path.write_text("a 0.5\n" + line + "\nc\n")
        with pytest.raises(ParseError) as err:
            parse_weights(str(path))
        assert str(err.value) == f"{path}:2: {message}"

    def test_each_line_checked_once(self, tmp_path, monkeypatch):
        calls = count_token_checks(monkeypatch)
        path = tmp_path / "w.txt"
        path.write_text(WEIGHTS_TEXT)
        table = parse_weights(str(path))
        assert calls == list(table.entries)

    def test_empty_file_empty_table(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("")
        assert parse_weights(str(path)).entries == {}

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("\ufeff" + WEIGHTS_TEXT, encoding="utf-8")
        plain = tmp_path / "plain.txt"
        plain.write_text(WEIGHTS_TEXT)
        assert list(parse_weights(str(path)).entries.items()) == list(
            parse_weights(str(plain)).entries.items()
        )

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

    def test_equal_positions_stored_once_per_file(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text(SPMF_SEQ)
        first, second = gen_uncertain(str(src), GenConfig(seed=1))[0].sequences
        assert first.index["2"][0] is first.index["3"][0] is second.index["1"][0]

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

    @pytest.mark.parametrize("seed", [4.0, True, "1", 2**64])
    def test_seed_must_be_a_64_bit_int(self, seed):
        with pytest.raises(MiningError, match="seed must be an int"):
            GenConfig(seed=seed)

    def test_written_file_is_pinned(self, tmp_path):
        # Digest recorded when sequences were still stored as events.
        src, out = tmp_path / "in.txt", tmp_path / "out.txt"
        src.write_text("1 -1 2 3 -1 -2\n4 -1 1 3 -1 2 -1 -2\n3 1 -1 1 -1 5 -1 -2\n" * 4)
        db, _ = gen_uncertain(str(src), GenConfig(seed=5))
        write_uncertain_db(str(out), db)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "b4e4d72570b1ec9ed254e901938c1c1d232e95a9ebb643e831ec28b1cb455991"
        )

    def test_bad_input_reports_line(self, tmp_path):
        src = tmp_path / "in.txt"
        for fmt, text, needle in [
            ("spmf-seq", "1 -1 -2\n2 -1\n", "must end with -2"),
            # An event's items are checked in ascending order, a transaction's in input order.
            ("spmf-seq", "1 -1 -2\n1 b:c a:d -1 -2\n", "'a:d' must not contain ':'"),
            ("spmf-itemset", "1\nb:c a:d\n", "'b:c' must not contain ':'"),
            ("spmf-seq", "1 -1 -2\n1 a:b -1 -2\n", "'a:b' must not contain ':'"),
            ("spmf-itemset", "1 2\n1 2 a:b\n", "'a:b' must not contain ':'"),
            ("spmf-itemset", "1 2\n1 -1 2\n", "invalid item token '-1'"),
        ]:
            src.write_text(text)
            with pytest.raises(ParseError, match=f"in.txt:2: .*{needle}"):
                gen_uncertain(str(src), GenConfig(seed=1), fmt)


# Valid tokens, and tokens that each break one rule of a sequence line.
UNCERTAIN_TOKENS = (["a:0.5", "b:0.25", "c:1"],
                    ["a:1.5", "a:0", "a:nan", "a:x", "a:", ":0.5", "-1:0.5", "a:b:0.5", "a",
                     "-1", "-2"])
PRECISE_TOKENS = (["1", "2", "a"], ["a:b", ":", "-1", "-2"])


def lines_of(tokens):
    """Files of up to three lines: sequences built from events, or loose tokens.
    Valid tokens are drawn more often than each invalid one, so whole files
    parse too."""
    valid, invalid = tokens
    token = st.one_of(st.sampled_from(valid), st.sampled_from(valid + invalid))
    event = st.lists(token, min_size=1, max_size=3).map(lambda toks: " ".join([*toks, "-1"]))
    sequence = st.lists(event, min_size=1, max_size=3).map(lambda evs: " ".join([*evs, "-2"]))
    line = st.one_of(sequence, st.lists(token, max_size=6).map(" ".join))
    return st.lists(line, min_size=1, max_size=3)


def check_parses_or_names_line(read, path, lines):
    """``read`` either reads every line or raises ``ParseError`` naming the
    first line that fails on its own; any other exception fails the test."""
    first_bad = None
    for lineno, line in enumerate(lines, start=1):
        path.write_text(line + "\n")
        try:
            read(str(path))
        except ParseError:
            first_bad = lineno
            break
    path.write_text("\n".join(lines) + "\n")
    if first_bad is None:
        assert read(str(path)).size == sum(1 for line in lines if line.strip())
        return
    with pytest.raises(ParseError) as err:
        read(str(path))
    assert err.value.lineno == first_bad
    assert str(err.value).startswith(f"{path}:{first_bad}: ")


@settings(max_examples=150, deadline=None)
@given(lines=lines_of(UNCERTAIN_TOKENS))
def test_uncertain_reader_parses_or_names_the_line(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "uncertain.txt"
    check_parses_or_names_line(parse_uncertain_db, path, lines)


def two_pass_line(tokens):
    """One line as the reader read it before its one-pass walk: ``_events``
    splits the whole line first, then each event's tokens are checked and
    its items indexed. Returns the index's items in order and the event
    count, or the message of the error that wins."""
    index = {}
    try:
        for k, raw in enumerate(dataio._events(tokens)):
            pairs = []
            for tok in raw:
                item, sep, prob_s = tok.partition(":")
                if not sep or not item or not prob_s:
                    return f"malformed token {tok!r}, expected item:prob"
                try:
                    prob = float(prob_s)
                except ValueError:
                    return f"bad probability in {tok!r}"
                model.check_item_token(item)
                if not 0.0 < prob <= 1.0:
                    return f"probability of {item!r} out of (0, 1]: {prob}"
                pairs.append((item, prob))
            for item, p in sorted(pairs):
                ks, ps = index.setdefault(item, ([], []))
                if ks and ks[-1] == k:
                    return f"duplicate item {item!r} in event"
                ks.append(k)
                ps.append(p)
    except MiningError as exc:
        return str(exc)
    return [(it, (tuple(ks), tuple(ps))) for it, (ks, ps) in index.items()], k + 1


@settings(max_examples=300, deadline=None)
@given(lines=lines_of(UNCERTAIN_TOKENS))
def test_one_pass_reader_matches_the_two_pass_reader(tmp_path_factory, lines):
    # Each line on its own: the same message, or the same index in the same order.
    path = tmp_path_factory.getbasetemp() / "one-pass.txt"
    for line in lines:
        if not line.split():
            continue
        path.write_text(line + "\n")
        try:
            seq = parse_uncertain_db(str(path)).sequences[0]
            got = list(seq.index.items()), seq.n_events
        except ParseError as exc:
            got = str(exc).removeprefix(f"{path}:1: ")
        assert got == two_pass_line(line.split())


@settings(max_examples=150, deadline=None)
@given(lines=lines_of(PRECISE_TOKENS), fmt=st.sampled_from(["spmf-seq", "spmf-itemset"]))
def test_precise_reader_parses_or_names_the_line(tmp_path_factory, lines, fmt):
    path = tmp_path_factory.getbasetemp() / "precise.txt"
    check_parses_or_names_line(
        lambda p: gen_uncertain(p, GenConfig(seed=1), fmt)[0], path, lines
    )


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
        drawn = draw_fractions((0.2, 0.6), 2, 4)
        assert drawn == draw_fractions((0.2, 0.6), 2, 4)
        # The pinned generator's uniforms, scaled into the range.
        rng4 = Xoshiro256StarStar(4)
        assert drawn == tuple(0.2 + (0.6 - 0.2) * rng4.uniform() for _ in range(2))
        initial, increments = split_db(db, SplitSpec(0.5, increment_fractions=drawn))
        assert (initial.size, [inc.size for inc in increments]) == (6, [2, 3])

    def test_overflow_rejected(self, sample_db):
        with pytest.raises(MiningError):
            split_db(sample_db, SplitSpec(initial_fraction=1.0, increment_fractions=(0.5,)))

    def test_bad_specs(self):
        with pytest.raises(MiningError):
            SplitSpec(initial_fraction=0.0)
        bad = [((0.2, 0.6), 0), ((0.2, 0.6), 2.0), ((0.0, 0.6), 2), ((0.6, 0.2), 2)]
        for ratio_range, count in bad:
            with pytest.raises(MiningError):
                draw_fractions(ratio_range, count, 1)
        # One mode: increments are given as fractions, drawn ones included.
        assert [f.name for f in dataclasses.fields(SplitSpec)] == [
            "initial_fraction", "increment_fractions"
        ]

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: SplitSpec(0.5, 0.5), id="fractions-not-a-sequence"),
            pytest.param(lambda: SplitSpec(0.5, ("x",)), id="fraction-not-a-number"),
            pytest.param(lambda: SplitSpec(0.5, (True,)), id="fraction-a-bool"),
            pytest.param(lambda: SplitSpec("0.5"), id="initial-fraction-a-str"),
            pytest.param(lambda: draw_fractions((0.2, 0.6), 2, 4.0), id="seed-a-float"),
            pytest.param(lambda: draw_fractions((0.2, 0.6), 2, True), id="seed-a-bool"),
            pytest.param(lambda: draw_fractions((0.2, 0.6), 2, -1), id="seed-negative"),
            pytest.param(lambda: draw_fractions((0.2, 0.6), 2, 2**64), id="seed-past-64-bits"),
            pytest.param(lambda: draw_fractions(0.5, 2, 1), id="range-not-a-pair"),
            pytest.param(lambda: draw_fractions(("a", "b"), 2, 1), id="range-not-numbers"),
            pytest.param(lambda: draw_fractions((0.2, 0.6), True, 1), id="count-a-bool"),
            pytest.param(lambda: draw_fractions((True, True), 2, 1), id="range-of-bools"),
        ],
    )
    def test_wrong_types_refused(self, build):
        with pytest.raises(MiningError):
            build()

    def test_fractions_stored_as_a_tuple(self):
        spec = SplitSpec(0.5, [0.2, 0.3])
        assert spec.increment_fractions == (0.2, 0.3)
        assert draw_fractions((0.2, 0.6), 1, 2**64 - 1)  # the largest seed is accepted

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_fractions_rejected(self, value):
        # nan and inf used to pass, and split_db then failed inside round().
        with pytest.raises(MiningError):
            SplitSpec(initial_fraction=0.5, increment_fractions=(0.5, value))
        with pytest.raises(MiningError):
            draw_fractions((0.1, value), 2, 1)


def accepted(token):
    try:
        check_item_token(token)
    except MiningError:
        return False
    return True


# Item tokens the parsers accept, drawn from text that often holds the
# characters a written pattern gives meaning to.
TOKENS = st.text(st.sampled_from("ab()-1: ") | st.characters(), min_size=1, max_size=4).filter(
    accepted
)
ITEMSETS = st.lists(TOKENS, min_size=1, max_size=3, unique=True).map(lambda xs: tuple(sorted(xs)))


@settings(max_examples=100, deadline=None)
@given(db=st.lists(TOKENS, min_size=1, max_size=5, unique=True).flatmap(
    lambda items: databases(items=items)))
def test_database_write_parse_round_trip(tmp_path_factory, db):
    # Probabilities are written with repr, so they read back exactly.
    path = tmp_path_factory.getbasetemp() / "rt-db.txt"
    write_uncertain_db(str(path), db)
    assert parse_uncertain_db(str(path)) == db


@settings(max_examples=100, deadline=None)
@given(entries=st.dictionaries(TOKENS, st.floats(0.0, 1.0, exclude_min=True), max_size=6))
def test_weights_write_parse_round_trip(tmp_path_factory, entries):
    path = tmp_path_factory.getbasetemp() / "rt-w.txt"
    write_weights(str(path), WeightTable(entries))
    assert parse_weights(str(path)) == WeightTable(entries)


@settings(max_examples=200, deadline=None)
@given(data=spliced_bytes(WEIGHTS_TEXT.encode()))
def test_weights_reader_reads_or_refuses_any_bytes(tmp_path_factory, data):
    check_reads_or_refuses(parse_weights, tmp_path_factory.getbasetemp() / "w.bin", data)


@settings(max_examples=200, deadline=None)
@given(data=spliced_bytes(b"(a)\t1.25\n(a b)(c)\t0.5\n"))
def test_patterns_reader_reads_or_refuses_any_bytes(tmp_path_factory, data):
    check_reads_or_refuses(read_patterns_tsv, tmp_path_factory.getbasetemp() / "p.bin", data)


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

    @settings(max_examples=150, deadline=None)
    @given(pat=st.lists(ITEMSETS, min_size=1, max_size=4).map(lambda evs: Pattern(tuple(evs))))
    def test_pattern_text_round_trip(self, pat):
        assert parse_pattern(format_pattern(pat)) == pat

    @pytest.mark.parametrize("text", ["()", "(a)()", "(b a)", "a", "(a:b)", "(-1)(x y)"])
    def test_bad_pattern_text(self, text):
        with pytest.raises(MiningError):
            parse_pattern(text)

    def test_read_patterns_tsv(self, tmp_path):
        path = tmp_path / "p.tsv"
        rows = [ScoredPattern(P("(a)"), 1.25), ScoredPattern(P("(a b)(c)"), 0.5)]
        write_patterns(str(path), rows, "tsv")
        back = read_patterns_tsv(str(path))
        assert [sp.pattern for sp in back] == [sp.pattern for sp in rows]
        assert back[0].wes == pytest.approx(1.25)

    @pytest.mark.parametrize("line", ["(a:b)\t1.0", "(-1)(x y)\t0.5"])
    def test_read_patterns_tsv_rejects_bad_item_tokens(self, tmp_path, line):
        # No database or weight file can hold such an item.
        path = tmp_path / "p.tsv"
        path.write_text(f"(a)\t1.0\n{line}\n")
        with pytest.raises(ParseError, match=f"{path}:2: .*item token"):
            read_patterns_tsv(str(path))

    @pytest.mark.parametrize("wes", ["nan", "inf", "-inf", "-0.5"])
    def test_read_patterns_tsv_rejects_bad_wes(self, tmp_path, wes):
        path = tmp_path / "p.tsv"
        path.write_text(f"(a)\t1.0\n(b)\t{wes}\n")
        with pytest.raises(ParseError, match=f"{path}:2: .*finite and not negative"):
            read_patterns_tsv(str(path))
