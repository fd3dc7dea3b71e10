"""Seeded input generator for the benchmark workloads.

All inputs come from one generator: ``random.Random(seed)`` draws precise
sequences over 120 items ``"1".."120"`` with Zipf weights ``1/r``; each event
holds one item with probability 0.7, otherwise two draws with the duplicate
dropped. ``useqmine.dataio.gen_uncertain`` then assigns probabilities with its
own fixed seed and default Gaussians. The same workload and seed always give
byte-identical files.

Item weights are a fixed catalogue, ``catalog_weights.txt``: the table
``gen_uncertain`` draws for the default-seed ``mine-zipf`` data, so that
workload is exactly the ROADMAP baseline. ``gen_uncertain`` draws weights in
first-appearance order after every probability, so per-seed tables would give
item "1" any weight from 0.18 to 0.73 and swing the candidate count by a third
from seed to seed; a fixed catalogue keeps seeds comparable.

Run as a script it writes one workload's inputs into a directory, which is
how the benchmark times its set-up, and prints the generation's raw and
host-speed scaled seconds (``hostspeed``) as JSON::

    python3 perfbench/datagen.py --workload mine-zipf --seed 808 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
from dataclasses import dataclass

from hostspeed import HostClock

GEN_SEED = 20260809
CATALOG_SEED = 808
CATALOG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "catalog_weights.txt")
ALPHABET = [str(i) for i in range(1, 121)]
ZIPF = [1.0 / r for r in range(1, 121)]


@dataclass(frozen=True)
class Shape:
    sequences: int
    min_events: int
    max_events: int
    init: int = 0  # > 0: split into an initial part plus equal increments
    increments: int = 0


SHAPES = {
    "mine-zipf": Shape(20000, 4, 9),
    "mine-long": Shape(2000, 20, 30),
    "inc-stream": Shape(20000, 4, 9, init=10000, increments=100),
}

# Small sizes for the benchmark's own tests; same generator, same pipeline.
SMOKE_SHAPES = {
    "mine-zipf": Shape(300, 4, 9),
    "mine-long": Shape(40, 20, 30),
    "inc-stream": Shape(300, 4, 9, init=150, increments=5),
}


def shape_of(workload: str, smoke: bool) -> Shape:
    return (SMOKE_SHAPES if smoke else SHAPES)[workload]


def precise_lines(seed: int, shape: Shape) -> list[str]:
    """SPMF sequence lines (``a -1 b c -1 -2``) for one workload."""
    rng = random.Random(seed)
    lines = []
    for _ in range(shape.sequences):
        parts: list[str] = []
        for _ in range(rng.randint(shape.min_events, shape.max_events)):
            event: list[str] = []
            for item in rng.choices(ALPHABET, weights=ZIPF, k=1 if rng.random() < 0.7 else 2):
                if item not in event:
                    event.append(item)
            parts.extend(event)
            parts.append("-1")
        parts.append("-2")
        lines.append(" ".join(parts))
    return lines


def delta_name(k: int) -> str:
    return f"delta_{k:03d}.txt"


def _uncertain(seed: int, shape: Shape, out: str):
    from useqmine import dataio

    precise = os.path.join(out, "precise.txt")
    with open(precise, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(precise_lines(seed, shape)) + "\n")
    return dataio.gen_uncertain(precise, dataio.GenConfig(seed=GEN_SEED))


def write_catalog(path: str, scratch: str) -> None:
    """Regenerate the weight catalogue; ``scratch`` receives the precise file."""
    from useqmine import dataio

    os.makedirs(scratch, exist_ok=True)
    _, weights = _uncertain(CATALOG_SEED, SHAPES["mine-zipf"], scratch)
    dataio.write_weights(path, weights)


def write_inputs(workload: str, seed: int, out: str, smoke: bool = False) -> None:
    """Write ``db.txt`` (or ``init.txt`` plus deltas) and ``weights.txt``."""
    from useqmine import dataio

    shape = shape_of(workload, smoke)
    os.makedirs(out, exist_ok=True)
    db, _ = _uncertain(seed, shape, out)
    shutil.copyfile(CATALOG, os.path.join(out, "weights.txt"))
    if not shape.increments:
        dataio.write_uncertain_db(os.path.join(out, "db.txt"), db)
        return
    step = (shape.sequences - shape.init) // shape.increments
    spec = dataio.SplitSpec(
        initial_fraction=shape.init / shape.sequences,
        increment_fractions=(step / shape.init,) * shape.increments,
    )
    init, deltas = dataio.split_db(db, spec)
    dataio.write_uncertain_db(os.path.join(out, "init.txt"), init)
    for k, delta in enumerate(deltas, start=1):
        dataio.write_uncertain_db(os.path.join(out, delta_name(k)), delta)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SHAPES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    with HostClock() as clock:
        write_inputs(args.workload, args.seed, args.out, args.smoke)
    print(json.dumps({"raw_s": clock.raw_s, "scaled_s": clock.scaled_s}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
    sys.exit(main())
