import os
import random
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from useqmine import (
    MiningError,
    MiningParams,
    MissingWeightError,
    ParseError,
    UncertainDatabase,
    USequence,
    WamAccumulator,
    fuws,
    init_mining,
    load_state,
    meets,
    oracle_wes,
    parse_weights,
    save_state,
    USeqTrie,
    WeightTable,
    uwsinc_step,
    uwsincplus_step,
)
from useqmine import incremental
from useqmine.fuws import mine_trie
from useqmine.model import s_weight
from useqmine.oracle import _max_pr_enum
from useqmine.trie import sup_calc

from conftest import (
    DB_ITEMS,
    DB_TEXT,
    DELTA1_TEXT,
    WEIGHTS_TEXT,
    P,
    check_reads_or_refuses,
    databases,
    db_from_text,
    patterns_by_key,
    random_db,
    random_weights,
    spliced_bytes,
)

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


def test_uwsinc_resumed_from_plus_state_drops_promising(
    sample_db, sample_weights, delta1, delta2, tmp_path
):
    """``uwsinc_step`` on a uwsinc+ checkpoint empties the promising buffer;
    its result and ``seq_trie`` are those of a state that never held one."""
    state = init_mining(sample_db, sample_weights, PARAMS)
    uwsincplus_step(state, delta1)
    path = str(tmp_path / "ck.txt")
    save_state(state, path)
    resumed = load_state(path, sample_weights)
    # Both entered through delta1's local mine: each holds f, which sample_db lacks.
    assert set(dict(resumed.pfs_trie.patterns())) == {P("(a)(f)"), P("(f)(c)")}
    bare = load_state(path, sample_weights)
    bare.pfs_trie = USeqTrie()
    got = uwsinc_step(resumed, delta2)
    assert resumed.pfs_trie.pattern_count == 0
    assert got == uwsinc_step(bare, delta2)
    assert state_fingerprint(resumed) == state_fingerprint(bare)


def three_loop_plus_step(state, delta):
    """``uwsincplus_step`` as three loops (demote, promote or expire, admit),
    the form the single placement rule replaced; the reference it must match."""
    p = state.params
    lfs_trie, local = mine_trie(delta, state.weights, p.lwes_factor * p.min_sup * p.mu, p.wgt_fct)
    lwes = local.min_wes
    sup_calc(state.seq_trie, delta, state.weights)
    sup_calc(state.pfs_trie, delta, state.weights)
    state.db_size += delta.size
    state.wam_acc.add(delta, state.weights)
    th = state.thresholds()
    for pat, wes in list(state.seq_trie.patterns()):
        if not meets(wes, th.min_wes_prime):
            state.seq_trie.remove(pat)
            if meets(wes, lwes):
                state.pfs_trie.insert(pat, wes)
    for pat, wes in list(state.pfs_trie.patterns()):
        if meets(wes, th.min_wes_prime):
            state.pfs_trie.remove(pat)
            state.seq_trie.insert(pat, wes)
        elif not meets(wes, lwes):
            state.pfs_trie.remove(pat)
    for pat, wes in lfs_trie.patterns():
        if pat in state.seq_trie or pat in state.pfs_trie:
            continue
        if meets(wes, th.min_wes_prime):
            state.seq_trie.insert(pat, wes)
        elif meets(wes, lwes):
            state.pfs_trie.insert(pat, wes)
    return state.seq_trie.collect(th.min_wes)


def test_placement_rule_matches_three_loops():
    rng = random.Random(2404)
    moves = dict.fromkeys(("promoted", "demoted", "expired", "admitted"), 0)
    for _ in range(40):
        wt = random_weights(rng)
        params = MiningParams(min_sup=rng.choice([0.2, 0.3, 0.4]), wgt_fct=1.0,
                              mu=rng.choice([0.5, 0.7, 1.0]),
                              lwes_factor=rng.choice([0.5, 1.0, 2.0]))
        init_db = random_db(rng, max_seqs=10, min_seqs=4)
        got, want = init_mining(init_db, wt, params), init_mining(init_db, wt, params)
        for _ in range(4):
            delta = random_db(rng, max_seqs=5, min_seqs=0)
            seq0, pfs0 = set(dict(want.seq_trie.patterns())), set(dict(want.pfs_trie.patterns()))
            assert uwsincplus_step(got, delta) == three_loop_plus_step(want, delta)
            assert state_fingerprint(got) == state_fingerprint(want)
            seq1, pfs1 = set(dict(want.seq_trie.patterns())), set(dict(want.pfs_trie.patterns()))
            moves["promoted"] += len(pfs0 & seq1)
            moves["demoted"] += len(seq0 & pfs1)
            moves["expired"] += len((seq0 | pfs0) - (seq1 | pfs1))
            moves["admitted"] += len((seq1 | pfs1) - (seq0 | pfs0))
    # The streams exercise every kind of move the rule makes.
    assert all(moves.values()), moves


def full_local_mine_step(state, delta):
    """``uwsincplus_step`` with a local mine that verifies every candidate,
    the tracked ones too, a fold by one ``sup_calc`` scan per trie and a
    placement that skips what is tracked; the reference the local mine that
    folds ``delta`` into the tracked tries must match."""
    p = state.params
    lfs_trie, local = mine_trie(delta, state.weights, p.lwes_factor * p.min_sup * p.mu, p.wgt_fct)
    seq, pfs = state.seq_trie, state.pfs_trie
    state.wam_acc.add(delta, state.weights)
    for trie in (seq, pfs):
        sup_calc(trie, delta, state.weights)
    state.db_size += delta.size
    th = state.thresholds()
    placed = [(pat, wes, trie) for trie in (seq, pfs) for pat, wes in trie.patterns()]
    placed += [(pat, wes, None) for pat, wes in lfs_trie.patterns()
               if pat not in seq and pat not in pfs]
    for pat, wes, trie in placed:
        home = seq if meets(wes, th.min_wes_prime) else pfs if meets(wes, local.min_wes) else None
        if home is not trie:
            if trie is not None:
                trie.remove(pat)
            if home is not None:
                home.insert(pat, wes)
    return seq.collect(th.min_wes)


@settings(max_examples=80, deadline=None)
@given(
    init=databases(),
    deltas=st.lists(databases(), min_size=1, max_size=3),
    weights=st.lists(st.sampled_from([0.3, 0.5, 0.8, 1.0]), min_size=5, max_size=5),
    min_sup=st.sampled_from([0.1, 0.2, 0.4]),
    mu=st.sampled_from([0.5, 0.8, 1.0]),
    lwes_factor=st.sampled_from([0.5, 1.0, 2.0]),
)
def test_step_matches_a_full_local_mine(init, deltas, weights, min_sup, mu, lwes_factor):
    wt = WeightTable(dict(zip(DB_ITEMS, weights)))
    params = MiningParams(min_sup, 1.0, mu, lwes_factor)
    got, want = init_mining(init, wt, params), init_mining(init, wt, params)
    with tempfile.TemporaryDirectory() as tmp:
        got_ck, want_ck = os.path.join(tmp, "got.ck"), os.path.join(tmp, "want.ck")
        for delta in deltas:
            assert uwsincplus_step(got, delta) == full_local_mine_step(want, delta)
            save_state(got, got_ck)
            save_state(want, want_ck)
            with open(got_ck, "rb") as a, open(want_ck, "rb") as b:
                assert a.read() == b.read()


def test_local_mine_leaves_tracked_patterns_unverified(
    sample_db, sample_weights, delta1, local_mines
):
    state = init_mining(sample_db, sample_weights, PARAMS)
    tracked = set(dict(state.seq_trie.patterns()))
    uwsincplus_step(state, delta1)
    local = local_mines[-1]
    p = state.params
    full_trie, full = mine_trie(delta1, sample_weights, p.lwes_factor * p.min_sup * p.mu, p.wgt_fct,
                                bound="exact")
    found_tracked = set(dict(full_trie.patterns())) & tracked
    # (a) and (c), tracked since init, are locally frequent in delta1.
    assert {P("(a)"), P("(c)")} <= found_tracked
    assert local.known >= len(found_tracked)
    assert local.candidates == full.candidates
    assert local.survivors == full.survivors - len(found_tracked)


@pytest.mark.parametrize("step", [uwsinc_step, uwsincplus_step])
def test_delta_with_unweighted_item_leaves_state_unchanged(
    step, sample_db, sample_weights, delta1, tmp_path
):
    state = init_mining(sample_db, sample_weights, PARAMS)
    uwsincplus_step(state, delta1)
    assert P("(a)") in state.seq_trie
    assert state.pfs_trie.pattern_count
    # Unweighted z occurs before unweighted y; the error names the first to occur.
    delta = db_from_text(tmp_path, "a:0.9 -1 z:0.5 -1 -2\ny:0.4 -1 a:0.8 -1 -2\n", "delta.txt")
    before = state_fingerprint(state)
    with pytest.raises(MissingWeightError, match="'z'"):
        step(state, delta)
    assert state_fingerprint(state) == before


@pytest.mark.parametrize("held_in", ["seq_trie", "pfs_trie"])
@pytest.mark.parametrize("step", [uwsinc_step, uwsincplus_step])
def test_unweighted_trie_item_refused_before_the_fold(
    step, held_in, sample_db, sample_weights, delta1, delta2
):
    # Only a direct insert can put an unweighted item on a live trie. The
    # fold must refuse it before the WAM sums grow or seq_trie is scanned.
    state = init_mining(sample_db, sample_weights, PARAMS)
    uwsincplus_step(state, delta1)
    getattr(state, held_in).insert(P("(a)(zz)"), 0.0)
    before = state_fingerprint(state)
    with pytest.raises(MissingWeightError, match="'zz'"):
        step(state, delta2)
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

    @pytest.mark.parametrize("held_in", ["seq_trie", "pfs_trie"])
    def test_unweighted_trie_item_refused(self, held_in, sample_db, sample_weights, tmp_path):
        # Without the check, (zz) would never be scanned and stay frequent at
        # 3.0 for good.
        state = init_mining(sample_db, sample_weights, PARAMS)
        getattr(state, held_in).insert(P("(zz)"), 3.0)
        path = str(tmp_path / "ck.txt")
        save_state(state, path)
        with pytest.raises(MiningError, match="'zz', which has no weight"):
            load_state(path, sample_weights)

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

    def test_byte_order_mark_dropped(self, sample_db, sample_weights, delta1, tmp_path):
        state = init_mining(sample_db, sample_weights, PARAMS)
        uwsincplus_step(state, delta1)
        path = tmp_path / "ck.txt"
        save_state(state, str(path))
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert state_fingerprint(load_state(str(path), sample_weights)) == state_fingerprint(state)

    def test_bad_files_rejected(self, sample_weights, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("")
        with pytest.raises(MiningError):
            load_state(str(path), sample_weights)
        path.write_text("1 2 3\n")
        with pytest.raises(MiningError):
            load_state(str(path), sample_weights)


class TestCheckpointNumbers:
    """A number in a checkpoint that no save could have written is a ``MiningError``."""

    @pytest.fixture
    def checkpoint(self, sample_db, sample_weights, delta1, tmp_path):
        state = init_mining(sample_db, sample_weights, PARAMS)
        uwsincplus_step(state, delta1)
        path = tmp_path / "ck.txt"
        save_state(state, str(path))
        return path

    @pytest.mark.parametrize(
        "field, value",
        [(2, "-1"), (3, "nan"), (3, "inf"), (3, "-0.5"), (4, "-1")],
    )
    def test_bad_header_number(self, checkpoint, sample_weights, field, value):
        head, rest = checkpoint.read_text().split("\n", 1)
        fields = head.split()
        fields[field] = value
        checkpoint.write_text(" ".join(fields) + "\n" + rest)
        name = {2: "db_size", 3: "wam_num", 4: "wam_den"}[field]
        with pytest.raises(MiningError, match=f"checkpoint {name} must be finite and not"):
            load_state(str(checkpoint), sample_weights)

    @pytest.mark.parametrize("cut, reason", [
        (lambda f: f[:5], "checkpoint header needs 9 fields, got 5"),
        (lambda f: f[:5] + ["x"] + f[6:], "bad checkpoint header: could not convert"),
    ])
    def test_malformed_header_names_the_file(self, checkpoint, sample_weights, cut, reason):
        head, rest = checkpoint.read_text().split("\n", 1)
        checkpoint.write_text(" ".join(cut(head.split())) + "\n" + rest)
        with pytest.raises(ParseError, match=re.escape(f"{checkpoint}:1: {reason}")):
            load_state(str(checkpoint), sample_weights)

    @pytest.mark.parametrize(
        "sums, loads",
        [
            (("0", "0.0", "0"), False),  # read as WAM 0 and minWES 0, every pattern frequent
            (("0", "27.2", "31"), False),
            (("6", "27.2", "5"), False),  # fewer occurrences than sequences
            (("6", "0.0", "31"), False),
            (("6", "31.5", "31"), False),  # a weight above 1
            (("6", "6.0", "6"), True),  # one item of weight 1 per sequence
        ],
        ids=["empty", "no-sequence", "fewer-items-than-sequences", "zero-weight-sum",
             "weight-above-1", "every-weight-1"],
    )
    def test_wam_sums_no_state_can_hold(self, sample_db, sample_weights, tmp_path, sums, loads):
        # A saved state has db_size >= 1, wam_den >= db_size and
        # 0 < wam_num <= wam_den: init_mining refuses an empty database,
        # every sequence holds an item and every weight is in (0, 1].
        path = tmp_path / "ck.txt"
        save_state(init_mining(sample_db, sample_weights, PARAMS), str(path))
        head, rest = path.read_text().split("\n", 1)
        fields = head.split()
        assert fields[2:5] == ["6", "27.200000000000003", "31"]
        fields[2:5] = sums
        path.write_text(" ".join(fields) + "\n" + rest)
        if loads:
            assert load_state(str(path), sample_weights).wam_acc.wam == 1.0
        else:
            with pytest.raises(MiningError, match="which no saved state can hold"):
                load_state(str(path), sample_weights)

    @pytest.mark.parametrize("section", [incremental.CHECKPOINT_SEQ, incremental.CHECKPOINT_PFS])
    @pytest.mark.parametrize("wes", ["x", "nan", "inf", "-3.0"])
    def test_bad_snapshot_wes(self, checkpoint, sample_weights, section, wes):
        lines = checkpoint.read_text().splitlines()
        start = lines.index(section)
        at = next(i for i in range(start + 1, len(lines)) if not lines[i].endswith(" -"))
        assert not lines[at].startswith("[")
        lines[at] = lines[at].rsplit(" ", 1)[0] + " " + wes
        checkpoint.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=re.escape(f"{checkpoint}:{at + 1}: ")):
            load_state(str(checkpoint), sample_weights)

    @pytest.mark.parametrize("section", [incremental.CHECKPOINT_SEQ, incremental.CHECKPOINT_PFS])
    def test_bad_trie_line_names_the_file_and_its_line(self, checkpoint, sample_weights, section):
        # The section's last stored pattern, so its file line differs from
        # its line within the section.
        lines = checkpoint.read_text().splitlines()
        end = len(lines) if section == incremental.CHECKPOINT_PFS else lines.index(
            incremental.CHECKPOINT_PFS)
        at = max(i for i in range(lines.index(section) + 1, end) if not lines[i].endswith(" -"))
        assert at - lines.index(section) > 1
        lines[at] = lines[at].rsplit(" ", 1)[0] + " x"
        checkpoint.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as info:
            load_state(str(checkpoint), sample_weights)
        assert (info.value.path, info.value.lineno) == (str(checkpoint), at + 1)
        assert str(info.value) == f"{checkpoint}:{at + 1}: bad wes 'x'"

    @pytest.mark.parametrize(
        "snapshot, needle",
        [
            ("1 S b 0.75\n2 I a 0.375\n", "snapshot line 2: I-edge"),
            ("1 S a 0.75\n1 S a 0.5\n", "snapshot line 2: repeated edge"),
            ("1 S -1 0.75\n", "snapshot line 1: invalid item token"),
            ("1 S a -\n1 S b 0.5\n", "snapshot line 1: '-' node has no child"),
        ],
    )
    def test_bad_snapshot_edges(self, checkpoint, sample_weights, snapshot, needle):
        head = checkpoint.read_text().split("\n", 1)[0]
        checkpoint.write_text(f"{head}\n{incremental.CHECKPOINT_SEQ}\n{snapshot}"
                              f"{incremental.CHECKPOINT_PFS}\n")
        # The snapshot starts on the file's line 3: the error names the file's line.
        n, reason = needle.removeprefix("snapshot line ").split(": ", 1)
        with pytest.raises(ParseError, match=re.escape(f"{checkpoint}:{int(n) + 2}: {reason}")):
            load_state(str(checkpoint), sample_weights)

    @pytest.mark.parametrize("body", [
        "1 S zz 5.0\n[seq-trie]\n[pfs-trie]\n",  # a stray line before the sections
        "[seq-trie]\n[pfs-trie]\n[pfs-trie]\n",
        "[pfs-trie]\n[seq-trie]\n",
        "[seq-trie]\n",
    ])
    def test_sections_out_of_place_refused(self, checkpoint, sample_weights, body):
        head = checkpoint.read_text().split("\n", 1)[0]
        checkpoint.write_text(f"{head}\n{body}")
        with pytest.raises(MiningError, match=r"needs \[seq-trie\] as line 2"):
            load_state(str(checkpoint), sample_weights)

    def test_pattern_in_both_tries(self, checkpoint, sample_weights):
        head = checkpoint.read_text().split("\n", 1)[0]
        checkpoint.write_text(f"{head}\n{incremental.CHECKPOINT_SEQ}\n1 S a -\n2 S b 0.5\n"
                              f"{incremental.CHECKPOINT_PFS}\n1 S c 0.25\n1 S a -\n2 S b 0.5\n")
        with pytest.raises(MiningError, match=r"checkpoint holds \(a\)\(b\) in both tries"):
            load_state(str(checkpoint), sample_weights)


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """A checkpoint of the worked example after one uWSInc+ step, its weights
    and a scratch path."""
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "w.txt").write_text(WEIGHTS_TEXT)
    weights = parse_weights(str(tmp / "w.txt"))
    state = init_mining(db_from_text(tmp, DB_TEXT), weights, PARAMS)
    uwsincplus_step(state, db_from_text(tmp, DELTA1_TEXT, "d1.txt"))
    save_state(state, str(tmp / "ck.txt"))
    return (tmp / "ck.txt").read_bytes(), weights, tmp / "fuzzed.ck"


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_checkpoint_reader_reads_or_refuses_any_bytes(saved_checkpoint, data):
    valid, weights, path = saved_checkpoint
    check_reads_or_refuses(lambda p: load_state(p, weights), path, data.draw(spliced_bytes(valid)))


def test_baseline_equivalence(sample_db, sample_weights, delta1):
    # A from-scratch rerun on the concatenation is the completeness yardstick.
    whole = UncertainDatabase.concat([sample_db, delta1])
    base = patterns_by_key(fuws(whole, sample_weights, 0.2, 1.0))
    state = init_mining(sample_db, sample_weights, PARAMS)
    fs = patterns_by_key(uwsincplus_step(state, delta1))
    assert set(fs) <= set(base)
    for pat in fs:
        assert fs[pat] <= base[pat] + 1e-9


class IncrementalMachine(RuleBasedStateMachine):
    """Interleaves both step kinds, refused deltas, checkpoint round trips and
    checkpoints refused under other weights on one ``IncrementalState``,
    checking after every rule what must hold whatever ran before."""

    @initialize(
        init=databases(),
        weights=st.lists(st.sampled_from([0.3, 0.5, 0.8, 1.0]), min_size=5, max_size=5),
        min_sup=st.sampled_from([0.1, 0.2, 0.4]),
        mu=st.sampled_from([0.5, 0.8, 1.0]),
        lwes_factor=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def start(self, init, weights, min_sup, mu, lwes_factor):
        self.weights = WeightTable(dict(zip(DB_ITEMS, weights)))
        self.state = init_mining(init, self.weights, MiningParams(min_sup, 1.0, mu, lwes_factor))
        self.db = init
        self.plus_ran = False  # a uWSInc+ step admits patterns with partial support
        self.reported = self.state.seq_trie.collect(self.state.thresholds().min_wes)

    @rule(delta=databases())
    def uwsinc(self, delta):
        self.reported = uwsinc_step(self.state, delta)
        self.db = UncertainDatabase.concat([self.db, delta])
        assert not self.state.pfs_trie.root.children  # uWSInc keeps no promising buffer

    @rule(delta=databases())
    def uwsincplus(self, delta):
        self.reported = uwsincplus_step(self.state, delta)
        self.db = UncertainDatabase.concat([self.db, delta])
        self.plus_ran = True

    @rule(delta=databases(), at=st.integers(0, 5), step=st.sampled_from([uwsinc_step,
                                                                          uwsincplus_step]))
    def unweighted_delta(self, delta, at, step):
        seqs = list(delta.sequences)
        seqs.insert(min(at, len(seqs)), USequence([[("z", 0.5)]]))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ck")
            save_state(self.state, path)
            with pytest.raises(MissingWeightError, match="'z'"):
                step(self.state, UncertainDatabase(tuple(seqs)))
            with open(path, "rb") as fh:
                before = fh.read()
            save_state(self.state, path)
            with open(path, "rb") as fh:
                assert fh.read() == before

    @rule()
    def checkpoint_round_trip(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ck")
            save_state(self.state, path)
            with open(path, "rb") as fh:
                saved = fh.read()
            loaded = load_state(path, self.weights)
            save_state(loaded, path)
            with open(path, "rb") as fh:
                assert fh.read() == saved
        assert (loaded.db_size, loaded.params) == (self.state.db_size, self.state.params)
        self.state = loaded

    @rule(item=st.sampled_from(DB_ITEMS), factor=st.sampled_from([0.5, 0.9]))
    def other_weights_refused(self, item, factor):
        other = WeightTable({**self.weights.entries, item: self.weights.weight(item) * factor})
        before = state_fingerprint(self.state)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ck")
            save_state(self.state, path)
            with open(path, "rb") as fh:
                saved = fh.read()
            with pytest.raises(MiningError, match="different weight table"):
                load_state(path, other)
            with open(path, "rb") as fh:
                assert fh.read() == saved
        assert state_fingerprint(self.state) == before

    @invariant()
    def database_counts(self):
        fresh = WamAccumulator()
        fresh.add(self.db, self.weights)
        assert self.state.db_size == self.db.size
        assert self.state.wam_acc.freq_sum == fresh.freq_sum
        assert self.state.wam_acc.wam == pytest.approx(fresh.wam, rel=1e-12)

    @invariant()
    def tracked_patterns(self):
        seq = dict(self.state.seq_trie.patterns())
        pfs = dict(self.state.pfs_trie.patterns())
        assert not set(seq) & set(pfs)
        # ``oracle_wes`` by its own steps, with each sequence's event maps built once per check.
        maps = [s.event_maps() for s in self.db.sequences]
        for trie, held in ((self.state.seq_trie, seq), (self.state.pfs_trie, pfs)):
            assert USeqTrie.from_snapshot(trie.snapshot()).snapshot() == trie.snapshot()
            for pat, wes in held.items():
                truth = sum(_max_pr_enum(pat, m) for m in maps) * s_weight(pat, self.weights)
                assert wes <= truth + 1e-9
                if not self.plus_ran and held is seq:
                    assert wes == pytest.approx(truth, abs=1e-9)

    @invariant()
    def reported_patterns(self):
        min_wes = self.state.thresholds().min_wes
        assert all(meets(sp.wes, min_wes) for sp in self.reported)


TestIncrementalMachine = IncrementalMachine.TestCase
TestIncrementalMachine.settings = settings(max_examples=50, stateful_step_count=6, deadline=None)
