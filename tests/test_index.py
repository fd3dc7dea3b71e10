"""Property tests for the per-sequence item index behind ``project`` and ``sup_calc``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from useqmine import (
    Event,
    Pattern,
    ProbItem,
    ProjectedDB,
    UncertainDatabase,
    USeqTrie,
    USequence,
    WeightTable,
    max_pr_dynamic,
    preprocess,
    project,
    root_projection,
    s_weight,
    sup_calc,
)

DB_ITEMS = "abcde"
TRIE_ITEMS = "cdefg"  # overlaps DB_ITEMS only in c, d, e
WEIGHTS = WeightTable({"a": 0.8, "b": 1.0, "c": 0.9, "d": 0.6, "e": 0.7, "f": 0.9, "g": 0.5})
PROBS = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


def itemsets(items):
    return st.lists(st.sampled_from(items), min_size=1, max_size=3, unique=True).map(
        lambda xs: tuple(sorted(xs))
    )


@st.composite
def databases(draw, max_events=6):
    # A small alphabet and up to six events make repeated items across events common.
    seqs = []
    for sid in range(1, draw(st.integers(1, 5)) + 1):
        events = tuple(
            Event(tuple(ProbItem(it, draw(PROBS)) for it in draw(itemsets(DB_ITEMS))))
            for _ in range(draw(st.integers(1, max_events)))
        )
        seqs.append(USequence(id=sid, events=events))
    return UncertainDatabase(tuple(seqs))


def project_linear(pdb, proj, item, kind):
    """Reference: forward scan of the events for the first qualifying occurrence."""

    def pos_of(ev):
        return ev.items.index(item) if item in ev.items else None

    out = []
    for si, ei, ii in proj.entries:
        events = pdb.sequences[si].events
        pos = None
        if kind == "I" and ei >= 0:
            idx = pos_of(events[ei])
            if idx is not None and idx >= ii:
                pos = (ei, idx)
        if pos is None:
            for k in range(ei + 1, len(events)):
                idx = pos_of(events[k])
                if idx is not None:
                    pos = (k, idx)
                    break
        if pos is None:
            continue
        k, idx = pos
        if idx + 1 >= len(events[k].items) and k == len(events) - 1:
            continue
        out.append((si, k, idx + 1))
    return ProjectedDB(tuple(out), item)


EXTENSIONS = st.tuples(st.sampled_from(DB_ITEMS + "z"), st.sampled_from("SI"))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), db=databases())
def test_project_matches_linear_scan_on_random_entries(data, db):
    pdb, _ = preprocess(db, WEIGHTS)
    entries = []
    for si, seq in enumerate(pdb.sequences):
        if not data.draw(st.booleans()):
            continue
        ei = data.draw(st.integers(-1, len(seq.events) - 1))
        ii = 0 if ei < 0 else data.draw(st.integers(0, len(seq.events[ei].items)))
        entries.append((si, ei, ii))
    proj = ProjectedDB(tuple(entries), data.draw(st.sampled_from(DB_ITEMS)))
    item, kind = data.draw(EXTENSIONS)
    assert project(pdb, proj, item, kind) == project_linear(pdb, proj, item, kind)


@settings(max_examples=150, deadline=None)
@given(db=databases(), chain=st.lists(EXTENSIONS, min_size=1, max_size=5))
def test_project_matches_linear_scan_along_growth_chains(db, chain):
    pdb, _ = preprocess(db, WEIGHTS)
    proj = root_projection(pdb)
    for item, kind in chain:
        want = project_linear(pdb, proj, item, kind)
        proj = project(pdb, proj, item, kind)
        assert proj == want


patterns = st.lists(itemsets(TRIE_ITEMS), min_size=1, max_size=3).map(
    lambda evs: Pattern(tuple(evs))
)


@settings(max_examples=150, deadline=None)
@given(db=databases(), pats=st.lists(patterns, min_size=1, max_size=8, unique=True))
def test_sup_calc_matches_dynamic_oracle(db, pats):
    trie = USeqTrie()
    for pat in pats:
        trie.insert(pat)
    sup_calc(trie, db, WEIGHTS)
    for pat in pats:
        want = sum(max_pr_dynamic(pat, seq) for seq in db) * s_weight(pat, WEIGHTS)
        assert trie.get_wes(pat) == pytest.approx(want, rel=0, abs=1e-9)
