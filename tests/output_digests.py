"""Digests of a fixed list of `emconf` command-line jobs, to compare two trees.

    python tests/output_digests.py ROOT

runs every job as `python -m emconf.cli ARGS` with PYTHONPATH=ROOT/src, one
after another, and prints one line per job: the exit code, the sha256 of
stdout, the sha256 of stderr and the arguments.  Two trees print the same
lines exactly when every job gives the same bytes and exit code, so a diff
of two runs lists the jobs that differ.  The jobs cover `verify` at three
seeds, at 1, 25 and 500 trials (one trial gives single-row batches) and at
25 trials with a zero tolerance; `transform` for every field and family
(the four Lorentz classes and an overflowing boost included) on grids with
skipped rows in both frames and both formats; `invariants` at an ordinary
event and on the light cone; a field of 1e308 that the inversion and the
special conformal map overflow, swept in both frames, and its inversion
reported by `invariants`; and the usage errors of malformed vector and
grid flags (grid counts too large to hold among them), an infinite `verify` tolerance, a job file that does not exist
and a flag of another kind in `transform` and in `invariants`.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

FIELDS = (
    ("--field", "uniform", "--E0=1,0.2,0", "--B0=0,0.5,0.1"),
    ("--field", "planewave", "--E0=1,0,0", "--khat=0,0,1", "--phase=0.3"),
    ("--field", "coulomb", "--q=1.5"),
)
_LORENTZ = ("--xform", "lorentz", "--boost=0.3,0.1,0", "--rotation=0,0.2,0.1")
MAPS = (
    ("--xform", "dilation", "--lambda=1.7"),
    ("--xform", "translation", "--b=0.5,-1,0.25,0"),
    ("--xform", "inversion", "--eps=1"),
    ("--xform", "inversion", "--eps=-1"),
    ("--xform", "sct", "--a=0.1,0,0.2,0"),
    ("--xform", "sct", "--a=-1,0,0,0"),
    *(
        _LORENTZ + ("--lorentz-class", c)
        for c in (
            "proper_orthochronous", "improper_orthochronous",
            "improper_antichronous", "proper_antichronous",
        )
    ),
    ("--xform", "lorentz", "--boost=300,0,0"),
)
# The first grid holds the charge, the light cone and, for a = (-1, 0, 0, 0),
# the cone of the special conformal map; the second the cone t^2 = x^2 + z^2.
GRIDS = (
    ("--grid", "t=0:1:3,x=0:1:3,y=0:0.5:2,z=0:0:1", "--format", "csv"),
    ("--grid", "t=-1:1:5,x=-1:1:5,z=0.5:0.5:1", "--format", "json"),
)
POINTS = ("--point=0.5,0.3,-0.2,0.7", "--point=1,1,0,0")
_INVERT_UNIFORM = ("transform", "--field", "uniform", "--E0=1,0,0", "--xform", "inversion")
# A field that the inversion and the special conformal map take past the
# float64 range, so that the transform summary counts non_finite rows.
_HUGE = ("--field", "uniform", "--E0=1e308,1e308,0")
_INVERSION = ("--xform", "inversion", "--eps=1")
OVERFLOWS = (
    *(("transform", *_HUGE, *xform, "--grid", "t=0:3:4,x=-1:1:3,y=0:1:2", "--frame", frame)
      for xform in (_INVERSION, ("--xform", "sct", "--a=-1,0,0,0"))
      for frame in ("original", "transformed")),
    ("invariants", *_HUGE, *_INVERSION, "--point=2,1,0,0"),
)
# Jobs that exit 2 before any row is computed.
ERRORS = (
    ("transform", "--field", "uniform", "--E0=1,2", "--xform", "inversion"),
    ("transform", "--field", "uniform", "--xform", "translation", "--b=1,2,3"),
    *(_INVERT_UNIFORM + ("--grid", grid) for grid in (
        "t=nan:2:2", "t=1:0:2", "t=0:1:0", f"t=0:1:{2**62}", f"t=0:1:{2**63}",
    )),
    ("verify", "--tol", "inf"),
    ("transform", "--job", "/nonexistent.json"),
    ("transform", "--field", "uniform", "--xform", "sct", "--a=0.1,0,0,0", "--lambda=2"),
    ("invariants", "--field", "coulomb", "--khat=0,0,1", "--xform", "inversion",
     "--point=1,2,0,0"),
)


def jobs() -> list[tuple[str, ...]]:
    out = []
    for seed in ("42", "106", "1069293762"):
        for trials in ("1", "25", "500"):
            out.append(("verify", "--seed", seed, "--trials", trials))
        out.append(("verify", "--seed", seed, "--trials", "25", "--tol", "0"))
    for field in FIELDS:
        for xform in MAPS:
            for frame in ("original", "transformed"):
                for grid in GRIDS:
                    out.append(("transform", *field, *xform, *grid, "--frame", frame))
            for point in POINTS:
                out.append(("invariants", *field, *xform, point))
    return out + list(OVERFLOWS) + list(ERRORS)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/output_digests.py ROOT", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(Path(argv[1]).resolve() / "src")}
    for job in jobs():
        proc = subprocess.run(
            [sys.executable, "-m", "emconf.cli", *job], capture_output=True, env=env
        )
        print(proc.returncode, _sha(proc.stdout), _sha(proc.stderr), " ".join(job), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
