import random

import pytest

from useqmine import (
    MiningError,
    MiningParams,
    MissingWeightError,
    UncertainDatabase,
    WamAccumulator,
    fuws,
    init_mining,
    load_state,
    meets,
    oracle_wes,
    save_state,
    USeqTrie,
    WeightTable,
    uwsinc_step,
    uwsincplus_step,
)
from useqmine import incremental

from conftest import P, db_from_text, patterns_by_key, random_db, random_weights

PARAMS = MiningParams(min_sup=0.2, wgt_fct=1.0, mu=0.7, lwes_factor=2.0)


def classes(state):
    th = state.thresholds()
    fs, sfs = {}, {}
    for pat, wes in state.seq_trie.patterns():
        (fs if meets(wes, th.min_wes) else sfs)[pat] = wes
    pfs = dict(state.pfs_trie.patterns())
    return fs, sfs, pfs


def assert_sets(got: dict, want: dict, tol=0.01):
    assert set(got) == set(want)
    for pat, wes in want.items():
        assert got[pat] == pytest.approx(wes, abs=tol)


def check_state_invariants(state, lwes=None):
    th = state.thresholds()
    seq = dict(state.seq_trie.patterns())
    pfs = dict(state.pfs_trie.patterns())
    assert not (set(seq) & set(pfs))
    for wes in seq.values():
        assert meets(wes, th.min_wes_prime)
    for wes in pfs.values():
        assert wes < th.min_wes_prime + 1e-9
        if lwes is not None:
            assert meets(wes, lwes)


class TestInitMining:
    def test_golden_init(self, sample_db, sample_weights):
        state = init_mining(sample_db, sample_weights, PARAMS)
        th = state.thresholds()
        assert th.min_wes == pytest.approx(1.06, abs=0.01)
        assert th.min_wes_prime == pytest.approx(0.74, abs=0.01)
        got = dict(state.seq_trie.patterns())
        assert_sets(
            got,
            {
                P("(a)"): 2.24,
                P("(b)"): 1.4,
                P("(c)"): 1.8,
                P("(a)(a)"): 1.03,
                P("(a c)"): 1.02,
            },
        )
        assert state.pfs_trie.pattern_count == 0
        assert state.db_size == 6

    def test_no_buffer_keeps_frequent_only(self, sample_db, sample_weights):
        state = init_mining(sample_db, sample_weights, MiningParams(min_sup=0.2, wgt_fct=1.0))
        got = dict(state.seq_trie.patterns())
        assert set(got) == {P("(a)"), P("(b)"), P("(c)")}

    def test_empty_db_rejected(self, sample_weights):
        with pytest.raises(MiningError):
            init_mining(UncertainDatabase(()), sample_weights, PARAMS)


class TestUwsinc:
    def test_golden_steps(self, sample_db, sample_weights, delta1, delta2):
        state = init_mining(sample_db, sample_weights, PARAMS)
        fs = uwsinc_step(state, delta1)
        assert_sets(
            patterns_by_key(fs),
            {P("(a)"): 4.56, P("(a)(a)"): 1.90, P("(a c)"): 1.99, P("(c)"): 4.50},
        )
        f, s, _ = classes(state)
        assert_sets(s, {P("(b)"): 1.4})
        fs = uwsinc_step(state, delta2)
        assert_sets(
            patterns_by_key(fs),
            {P("(a)"): 6.16, P("(a)(a)"): 2.26, P("(c)"): 5.76},
        )
        f, s, _ = classes(state)
        assert_sets(s, {P("(a c)"): 2.05, P("(b)"): 2.20})

    def test_removed_patterns_stay_lost(self, sample_db, sample_weights, delta1, delta2):
        state = init_mining(sample_db, sample_weights, PARAMS)
        uwsinc_step(state, delta1)
        uwsinc_step(state, delta2)
        # (c)(a) is truly frequent on the full stream but was never tracked.
        assert P("(c)(a)") not in state.seq_trie


@pytest.fixture
def local_mines(monkeypatch):
    """The ``MineStats`` of every mine ``incremental`` runs, in order; a step's
    local mine is the last one, and its ``min_wes`` is the step's local threshold."""
    seen = []
    real = incremental.mine_trie

    def spy(*args, **kwargs):
        trie, stats = real(*args, **kwargs)
        seen.append(stats)
        return trie, stats

    monkeypatch.setattr(incremental, "mine_trie", spy)
    return seen


class TestUwsincPlus:
    def test_golden_steps(self, sample_db, sample_weights, delta1, delta2, local_mines):
        state = init_mining(sample_db, sample_weights, PARAMS)
        uwsincplus_step(state, delta1)
        assert local_mines[-1].db_size == delta1.size
        assert local_mines[-1].min_wes == pytest.approx(0.96, abs=0.01)
        f, s, p = classes(state)
        assert_sets(
            f,
            {
                P("(a)"): 4.56,
                P("(a)(a)"): 1.9,
                P("(a c)"): 1.99,
                P("(c)"): 4.50,
                P("(c)(a)"): 1.83,
                P("(f)"): 1.98,
            },
        )
        assert_sets(
            s,
            {P("(c)(d)"): 1.23, P("(b)"): 1.4, P("(c)(f)"): 1.25, P("(d)"): 1.53},
        )
        assert_sets(p, {P("(a)(f)"): 0.99, P("(f)(c)"): 0.96})

        uwsincplus_step(state, delta2)
        f, s, p = classes(state)
        assert_sets(
            f,
            {
                P("(a)"): 6.16,
                P("(a)(a)"): 2.26,
                P("(c)"): 5.76,
                P("(c)(a)"): 2.82,
                P("(d)"): 2.88,
                P("(f)"): 2.61,
            },
        )
        assert_sets(s, {P("(a c)"): 2.05, P("(b)"): 2.2, P("(c)(d)"): 2.12})
        assert_sets(
            p,
            {
                P("(a)(d)"): 1.15,
                P("(c)(f)"): 1.41,
                P("(a)(f)"): 1.22,
                P("(e)"): 0.77,
                P("(f)(c)"): 1.03,
                P("(c)(a)(d)"): 0.77,
            },
        )

    def test_invariants_after_each_step(self, sample_db, sample_weights, delta1, delta2,
                                        local_mines):
        state = init_mining(sample_db, sample_weights, PARAMS)
        for delta in (delta1, delta2):
            uwsincplus_step(state, delta)
            check_state_invariants(state, local_mines[-1].min_wes)

    def test_existing_patterns_keep_history(self, sample_db, sample_weights, delta1):
        # (a c) is both tracked and locally frequent; the tracked value (full
        # history) must win over the local one.
        state = init_mining(sample_db, sample_weights, PARAMS)
        uwsincplus_step(state, delta1)
        whole = UncertainDatabase.concat([sample_db, delta1])
        assert state.seq_trie.get_wes(P("(a c)")) == pytest.approx(
            oracle_wes(P("(a c)"), whole, sample_weights), abs=1e-9
        )

    def test_new_alphabet_enters_via_local_route(self, sample_db, sample_weights, tmp_path):
        from conftest import db_from_text

        delta = db_from_text(tmp_path, "x:0.9 -1 y:0.9 -1 -2\nx:0.8 -1 y:0.7 -1 -2\n", "nd.txt")
        weights = dict(sample_weights.entries)
        weights.update({"x": 0.9, "y": 0.9})
        from useqmine import WeightTable

        wt = WeightTable(weights)
        state = init_mining(sample_db, wt, PARAMS)
        uwsincplus_step(state, delta)
        tracked = dict(state.seq_trie.patterns()) | dict(state.pfs_trie.patterns())
        assert P("(x)") in tracked and P("(y)") in tracked


class TestEmptyDelta:
    def test_zero_increment_identity(self, sample_db, sample_weights):
        state = init_mining(sample_db, sample_weights, PARAMS)
        before = dict(state.seq_trie.patterns())
        fs = uwsinc_step(state, UncertainDatabase(()))
        assert dict(state.seq_trie.patterns()) == before
        assert {sp.pattern for sp in fs} == {P("(a)"), P("(b)"), P("(c)")}

    def test_plus_zero_increment_identity(self, sample_db, sample_weights):
        state = init_mining(sample_db, sample_weights, PARAMS)
        before = dict(state.seq_trie.patterns())
        uwsincplus_step(state, UncertainDatabase(()))
        assert dict(state.seq_trie.patterns()) == before
        assert state.pfs_trie.pattern_count == 0


class TestWam:
    def test_initial_value(self, sample_db, sample_weights):
        acc = WamAccumulator()
        acc.add(sample_db, sample_weights)
        assert acc.wam == pytest.approx(0.88, abs=0.005)

    def test_empty_delta_keeps_value(self, sample_db, sample_weights):
        acc = WamAccumulator()
        acc.add(sample_db, sample_weights)
        before = acc.wam
        acc.add(UncertainDatabase(()), sample_weights)
        assert acc.wam == before

    def test_matches_scratch_recomputation(self, sample_db, sample_weights, delta1):
        acc = WamAccumulator()
        acc.add(sample_db, sample_weights)
        acc.add(delta1, sample_weights)
        got = acc.wam
        whole = UncertainDatabase.concat([sample_db, delta1])
        freq = whole.item_frequencies()
        scratch = sum(n * sample_weights.weight(it) for it, n in freq.items()) / sum(freq.values())
        assert got == pytest.approx(scratch, abs=1e-9)

    def test_init_counts_the_database_once(self, sample_db, sample_weights, monkeypatch):
        calls = []
        counted = UncertainDatabase.item_frequencies

        def counting(db):
            calls.append(db)
            return counted(db)

        monkeypatch.setattr(UncertainDatabase, "item_frequencies", counting)
        state = init_mining(sample_db, sample_weights, PARAMS)
        assert calls == [sample_db]
        acc = WamAccumulator()
        acc.add(sample_db, sample_weights)
        assert state.wam_acc == acc


class TestProperties:
    def test_since_init_patterns_match_oracle(self, sample_db, sample_weights, delta1, delta2):
        state = init_mining(sample_db, sample_weights, PARAMS)
        initial = set(dict(state.seq_trie.patterns()))
        parts = [sample_db]
        for delta in (delta1, delta2):
            parts.append(delta)
            uwsincplus_step(state, delta)
            whole = UncertainDatabase.concat(parts)
            tracked = dict(state.seq_trie.patterns()) | dict(state.pfs_trie.patterns())
            for pat, wes in tracked.items():
                truth = oracle_wes(pat, whole, sample_weights)
                assert wes <= truth + 1e-9
                if pat in initial:
                    assert wes == pytest.approx(truth, abs=1e-9)

    def test_uwsinc_fs_subset_of_plus(self):
        rng = random.Random(512)
        for _ in range(15):
            init_db = random_db(rng, max_seqs=10, min_seqs=5)
            wt = random_weights(rng)
            deltas = [random_db(rng, max_seqs=4, min_seqs=1) for _ in range(3)]
            params = MiningParams(min_sup=rng.choice([0.2, 0.3]), wgt_fct=1.0, mu=0.7)
            a = init_mining(init_db, wt, params)
            b = init_mining(init_db, wt, params)
            for delta in deltas:
                fs_a = {sp.pattern for sp in uwsinc_step(a, delta)}
                fs_b = {sp.pattern for sp in uwsincplus_step(b, delta)}
                assert fs_a <= fs_b


def state_fingerprint(state):
    return (
        state.db_size,
        state.wam_acc.weighted_freq_sum,
        state.wam_acc.freq_sum,
        state.seq_trie.snapshot(),
        state.pfs_trie.snapshot(),
    )


@pytest.mark.parametrize("step", [uwsinc_step, uwsincplus_step])
def test_delta_with_unweighted_item_leaves_state_unchanged(step, tmp_path):
    init = db_from_text(tmp_path, "a:0.9 -1 b:0.8 -1 -2\n" * 4, "init.txt")
    delta = db_from_text(tmp_path, "a:0.9 -1 z:0.5 -1 -2\n", "delta.txt")
    state = init_mining(init, WeightTable({"a": 0.5, "b": 0.8}), PARAMS)
    assert P("(a)") in state.seq_trie
    before = state_fingerprint(state)
    with pytest.raises(MissingWeightError, match="'z'"):
        step(state, delta)
    assert state_fingerprint(state) == before


class TestCheckpoint:
    def test_round_trip(self, sample_db, sample_weights, delta1, delta2, tmp_path):
        state = init_mining(sample_db, sample_weights, PARAMS)
        uwsincplus_step(state, delta1)
        path = str(tmp_path / "ck.txt")
        save_state(state, path)
        loaded = load_state(path, sample_weights)
        assert loaded.db_size == state.db_size
        assert loaded.params == state.params
        assert dict(loaded.seq_trie.patterns()) == dict(state.seq_trie.patterns())
        assert dict(loaded.pfs_trie.patterns()) == dict(state.pfs_trie.patterns())
        # Continue both and compare outcomes.
        fs_a = patterns_by_key(uwsincplus_step(state, delta2))
        fs_b = patterns_by_key(uwsincplus_step(loaded, delta2))
        assert fs_a == pytest.approx(fs_b)

    def test_failed_save_keeps_previous_checkpoint(
        self, sample_db, sample_weights, delta1, tmp_path, monkeypatch
    ):
        state = init_mining(sample_db, sample_weights, PARAMS)
        ck_dir = tmp_path / "ck"
        ck_dir.mkdir()
        path = str(ck_dir / "ck.txt")
        save_state(state, path)
        saved = state_fingerprint(load_state(path, sample_weights))
        uwsincplus_step(state, delta1)
        snapshot = USeqTrie.snapshot
        calls = []

        def failing_snapshot(trie):
            calls.append(trie)
            if len(calls) == 2:  # after the header and the first trie went out
                raise OSError("disk full")
            return snapshot(trie)

        monkeypatch.setattr(USeqTrie, "snapshot", failing_snapshot)
        with pytest.raises(OSError, match="disk full"):
            save_state(state, path)
        monkeypatch.undo()
        assert state_fingerprint(load_state(path, sample_weights)) == saved
        assert [p.name for p in ck_dir.iterdir()] == ["ck.txt"]

    def test_save_load_save_is_byte_identical(self, sample_db, sample_weights, delta1, tmp_path):
        state = init_mining(sample_db, sample_weights, PARAMS)
        uwsincplus_step(state, delta1)
        first, second = tmp_path / "a.ck", tmp_path / "b.ck"
        save_state(state, str(first))
        save_state(load_state(str(first), sample_weights), str(second))
        assert second.read_bytes() == first.read_bytes()

    def test_changed_weights_refused(self, sample_db, sample_weights, tmp_path):
        path = str(tmp_path / "ck.txt")
        save_state(init_mining(sample_db, sample_weights, PARAMS), path)
        changed = dict(sample_weights.entries, a=sample_weights.weight("a") / 2)
        for other in (WeightTable(changed), WeightTable({**sample_weights.entries, "z": 0.5})):
            with pytest.raises(MiningError, match="different weight table"):
                load_state(path, other)
        load_state(path, WeightTable(dict(reversed(sample_weights.entries.items()))))

    def test_other_format_version_refused(self, sample_db, sample_weights, tmp_path):
        path = tmp_path / "ck.txt"
        save_state(init_mining(sample_db, sample_weights, PARAMS), str(path))
        head, rest = path.read_text().split("\n", 1)
        fields = head.split()
        for bad in (
            " ".join(["useqmine-checkpoint/1", *fields[1:]]),
            " ".join(fields[2:]),  # the unversioned header
        ):
            path.write_text(bad + "\n" + rest)
            with pytest.raises(MiningError, match="not format useqmine-checkpoint/2"):
                load_state(str(path), sample_weights)

    def test_bad_files_rejected(self, sample_weights, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("")
        with pytest.raises(MiningError):
            load_state(str(path), sample_weights)
        path.write_text("1 2 3\n")
        with pytest.raises(MiningError):
            load_state(str(path), sample_weights)


def test_baseline_equivalence(sample_db, sample_weights, delta1):
    # A from-scratch rerun on the concatenation is the completeness yardstick.
    whole = UncertainDatabase.concat([sample_db, delta1])
    base = patterns_by_key(fuws(whole, sample_weights, 0.2, 1.0))
    state = init_mining(sample_db, sample_weights, PARAMS)
    fs = patterns_by_key(uwsincplus_step(state, delta1))
    assert set(fs) <= set(base)
    for pat in fs:
        assert fs[pat] <= base[pat] + 1e-9
