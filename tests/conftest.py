import random
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

from useqmine import (
    MiningError,
    UncertainDatabase,
    USequence,
    WeightTable,
    determine,
    parse_pattern,
    parse_uncertain_db,
    parse_weights,
)

# The six-sequence worked example used throughout the docs and golden tests.
DB_TEXT = """\
a:0.9 c:0.6 -1 a:0.7 -1 b:0.3 -1 d:0.7 -1 -2
a:0.6 c:0.4 -1 a:0.5 -1 a:0.4 b:0.3 -1 -2
a:0.3 -1 a:0.2 b:0.2 -1 a:0.4 b:0.3 g:0.5 -1 -2
a:0.1 c:0.1 -1 a:0.3 b:0.1 c:0.4 -1 -2
d:0.1 -1 a:0.4 -1 d:0.1 -1 a:0.5 c:0.6 -1 -2
b:0.3 -1 b:0.4 -1 a:0.1 -1 a:0.1 b:0.2 -1 -2
"""

DELTA1_TEXT = """\
c:0.6 a:0.7 -1 a:0.8 -1 f:0.9 a:0.6 -1 -2
c:0.6 a:0.4 -1 c:0.8 -1 a:0.6 -1 f:0.5 -1 g:0.4 c:0.7 -1 -2
f:0.8 -1 a:0.3 -1 c:0.9 -1 d:0.9 -1 f:0.5 a:0.7 d:0.4 -1 -2
c:0.7 -1 a:0.1 -1 a:0.8 c:0.6 d:0.8 -1 -2
"""

DELTA2_TEXT = """\
f:0.1 -1 f:0.3 c:0.7 -1 a:0.9 -1 d:0.9 -1 f:0.2 g:0.1 -1 -2
a:0.2 c:0.1 -1 b:0.8 -1 f:0.4 e:0.4 -1 g:0.1 -1 e:0.5 g:0.2 -1 -2
c:0.6 -1 a:0.9 -1 d:0.6 -1 e:0.6 -1 a:0.5 e:0.4 c:0.1 -1 -2
"""

WEIGHTS_TEXT = """\
a 0.8
b 1.0
c 0.9
d 0.9
e 0.7
f 0.9
g 0.8
"""


def P(text):
    return parse_pattern(text)


class Slot(NamedTuple):
    """One extension slot of ``determine``'s result, with its kind and item."""

    kind: str
    item: str
    prob_sum: float
    prob_max: float
    entries: list

    @property
    def seq_count(self):
        return len(self.entries)


def slots(pdb, proj, alive=None):
    """``determine``'s slots flattened into one list in (kind, item) order,
    which is the order growth bounds them in."""
    return [
        Slot(kind, item, *acc[item])
        for kind, acc in determine(pdb, proj, alive).items()
        for item in sorted(acc)
    ]


# Drawn databases for ``hypothesis`` properties.
DB_ITEMS = "abcde"
PROBS = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


def itemsets(items, min_size=1):
    return st.lists(st.sampled_from(items), min_size=min_size, max_size=3, unique=True).map(
        lambda xs: tuple(sorted(xs))
    )


@st.composite
def databases(draw, max_events=6, last_min_size=1, items=DB_ITEMS):
    # A small alphabet and up to six events make repeated items across events common.
    seqs = []
    for _ in range(draw(st.integers(1, 5))):
        sizes = [1] * (draw(st.integers(1, max_events)) - 1) + [last_min_size]
        events = [[(it, draw(PROBS)) for it in draw(itemsets(items, size))] for size in sizes]
        seqs.append(USequence(events))
    return UncertainDatabase(tuple(seqs))


def spliced_bytes(valid: bytes):
    """Arbitrary bytes, or ``valid`` with one slice replaced by arbitrary
    bytes, so that most draws get past a file's first line."""
    splice = st.tuples(
        st.integers(0, len(valid)), st.integers(0, len(valid)), st.binary(max_size=16)
    ).map(lambda t: valid[: min(t[:2])] + t[2] + valid[max(t[:2]) :])
    return st.one_of(st.binary(max_size=64), splice)


def check_reads_or_refuses(read, path, data):
    """``read`` of a file holding ``data`` returns or raises ``MiningError``;
    any other exception fails the test."""
    path.write_bytes(data)
    try:
        read(str(path))
    except MiningError:
        pass


def db_from_text(tmp_path, text, name="db.txt"):
    path = tmp_path / name
    path.write_text(text)
    return parse_uncertain_db(str(path))


@pytest.fixture
def sample_db(tmp_path):
    return db_from_text(tmp_path, DB_TEXT)


@pytest.fixture
def sample_weights(tmp_path):
    path = tmp_path / "weights.txt"
    path.write_text(WEIGHTS_TEXT)
    return parse_weights(str(path))


@pytest.fixture
def delta1(tmp_path):
    return db_from_text(tmp_path, DELTA1_TEXT, "d1.txt")


@pytest.fixture
def delta2(tmp_path):
    return db_from_text(tmp_path, DELTA2_TEXT, "d2.txt")


def random_db(rng: random.Random, max_seqs=12, max_events=6, alphabet=5, min_seqs=3):
    """Small random uncertain database; probabilities bounded away from 1."""
    items = "abcdefgh"[:alphabet]
    n = rng.randint(min_seqs, max_seqs)
    seqs = []
    for _ in range(n):
        evs = []
        for _ in range(rng.randint(1, max_events)):
            k = rng.randint(1, min(3, alphabet))
            chosen = sorted(rng.sample(items, k))
            evs.append([(it, round(rng.uniform(0.05, 0.95), 3)) for it in chosen])
        seqs.append(USequence(evs))
    return UncertainDatabase(tuple(seqs))


def random_weights(rng: random.Random, alphabet=5):
    return WeightTable({it: round(rng.uniform(0.4, 1.0), 3) for it in "abcdefgh"[:alphabet]})


def patterns_by_key(scored):
    return {sp.pattern: sp.wes for sp in scored}
