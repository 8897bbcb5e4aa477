"""The benchmark's workloads: seeded emconf command lines.

The seed draws the transformation parameters from fixed ranges; the program
receives only the generated flags.  Each workload has a full size (the one
the benchmark measures) and a tiny size (the one the smoke test runs).

Full-size jobs take a tenth to a few tenths of a second each: on a shared
host the processor's speed changes from second to second, and the timing
correction in run.py holds only while the speed stays the same over a job
and the reference runs around it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Five points on t and ten on x and y (z = 0): 500 rows, five of them on the
# Coulomb charge (x = y = z = 0), which the program must skip.
SCT_GRID = {"full": "t=0:9:5,x=0:9:10,y=0:9:10", "tiny": "x=0:9:10"}
# Image-frame grid of 64 rows that keeps clear of the spatial origin.
LORENTZ_GRID = {"full": "t=0:1:4,x=0.5:2:4,y=0.5:2:4", "tiny": "x=0.5:2:10"}
VERIFY_TRIALS = {"full": 25, "tiny": 5}
# verify runs at the program's default seed whatever the benchmark's seed.
# On about 4% of seeds (1069293762 among them) its sct_chain_composition
# check crashes with a GradeLeakageError inside the program, a defect still
# open, and a benchmark run must not fail an operation.  Once that is fixed,
# pass the benchmark's seed through again.
VERIFY_SEED = 42

PLANE_E0 = (1.0, 0.0, 0.0)
PLANE_KHAT = (0.0, 0.0, 1.0)


def _num(v: float) -> str:
    return f"{v:.17g}"


def _flag(name: str, values) -> str:
    # One token, so that a leading minus sign is not read as an option.
    return f"--{name}=" + ",".join(_num(v) for v in values)


@dataclass(frozen=True)
class Job:
    """One emconf invocation plus what the correctness gate needs to know."""

    workload: str
    argv: tuple[str, ...]
    params: dict


def sweep_sct(seed: int, size: str) -> Job:
    rng = random.Random(seed)
    a = tuple(rng.uniform(-0.1, 0.1) for _ in range(4))
    grid = SCT_GRID[size]
    argv = (
        "transform", "--xform", "sct", _flag("a", a),
        "--field", "coulomb", "--grid", grid, "--format", "csv",
    )
    return Job("sweep_sct", argv, {"a": a, "grid": grid})


def sweep_lorentz_back(seed: int, size: str) -> Job:
    # Components in [0.25, 0.3] keep the generator's max-abs below 1, so the
    # series exponentials never square back up, and give every seed the same
    # series length (it follows the generator's size; on [0.1, 0.3] it ranged
    # over four lengths), so the work per row does not depend on the seed.
    rng = random.Random(seed)
    boost = tuple(rng.uniform(0.25, 0.3) for _ in range(3))
    rotation = tuple(rng.uniform(0.25, 0.3) for _ in range(3))
    grid = LORENTZ_GRID[size]
    argv = (
        "transform", "--xform", "lorentz",
        _flag("boost", boost), _flag("rotation", rotation),
        "--field", "planewave", _flag("E0", PLANE_E0), _flag("khat", PLANE_KHAT),
        "--frame", "transformed", "--grid", grid, "--format", "json",
    )
    return Job(
        "sweep_lorentz_back", argv,
        {"boost": boost, "rotation": rotation, "grid": grid,
         "E0": PLANE_E0, "khat": PLANE_KHAT},
    )


def verify_ref(seed: int, size: str) -> Job:
    trials = VERIFY_TRIALS[size]
    argv = ("verify", "--seed", str(VERIFY_SEED), "--trials", str(trials))
    return Job("verify_ref", argv, {"seed": VERIFY_SEED, "trials": trials})


WORKLOADS = {
    "sweep_sct": sweep_sct,
    "sweep_lorentz_back": sweep_lorentz_back,
    "verify_ref": verify_ref,
}
