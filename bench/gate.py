"""Correctness gate: checks each job's output against a reference route.

The reference shares no code path with the route under test.  The sweeps
run through the paravector algebra Cl(3) (`conformal3`), so their rows are
recomputed here from the tensor oracle (`oracle.jacobian_sct` plus
`oracle.transform_faraday`) and, for the Lorentz family, which the oracle
does not cover yet, from the matrix induced by the spacetime-algebra route
(`conformal13.induced_matrix`).  Field values at the source point come from
the closed-form field written out below, not from `emconf.fields`.

One operation is one output row of a sweep or one check of `verify`.  A row
fails when a value deviates by more than its allowance, is not finite, sits
at the wrong grid point, or is skipped when the reference computes it (or the
reverse).  The allowance is REL_TOL plus the rounding error that no float64
evaluation of the row escapes: ROUNDINGS units of roundoff times the
condition number of the conformal factor at the row.  Near the cone where
the special conformal factor vanishes that condition number reaches 1e5 and
more; rows whose deviation exceeds REL_TOL alone are counted apart as
ill-conditioned.  The gate runs outside the timed and traced regions.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from emconf import oracle
from emconf.conformal13 import Lorentz, induced_matrix

REL_TOL = 1e-10
ROUNDINGS = 16
UNIT_ROUNDOFF = 2.0**-53
# Where the reference refuses a row: the Coulomb charge, and the cone on
# which the special conformal factor vanishes.
CHARGE_TOL = 1e-12
CONE_TOL = 1e-9

AXES = ("t", "x", "y", "z")
FIELD_KEYS = (
    "Ex", "Ey", "Ez", "Bx", "By", "Bz",
    "Exp", "Eyp", "Ezp", "Bxp", "Byp", "Bzp",
)
CSV_HEADER = "t,x,y,z," + ",".join(FIELD_KEYS) + ",scale,skipped"

VERIFY_CHECK_IDS = (
    "blade_products", "jacobian_sandwich_identity", "conformality",
    "conformal_factor_match", "fd_jacobians", "theta_signs",
    "three_way_agreement", "sct_chain_composition", "field_expansions",
    "invariant_scaling", "invariants_levi_civita",
    "inversion_jacobian_determinant", "lorentz_classes",
    "lorentz_route_agreement", "null_field_preservation",
    "bridge_correspondence",
)


@dataclass
class GateResult:
    attempted: int
    failed: int = 0
    worst_dev: float = 0.0
    skipped: int = 0
    ill_conditioned: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < 5:
            self.notes.append(what)


def grid_points(grid: str) -> list[tuple[float, ...]]:
    """Events of a --grid flag in the program's row order (t slowest)."""
    spec = {}
    for item in grid.split(","):
        name, _, rng = item.partition("=")
        lo, hi, count = rng.split(":")
        spec[name] = (float(lo), float(hi), int(count))
    axes = []
    for name in AXES:
        lo, hi, count = spec.get(name, (0.0, 0.0, 1))
        axes.append(np.linspace(lo, hi, count) if count > 1 else np.array([lo]))
    return [tuple(float(c) for c in p) for p in product(*axes)]


def _rel_dev(got, want, floor: float = 0.0) -> float:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if not np.all(np.isfinite(got)):
        return math.inf
    ref = max(float(np.max(np.abs(want))), floor)
    return float(np.max(np.abs(got - want))) / ref


def _check_row(res: GateResult, i: int, row, point, want) -> None:
    """row: (coords, values or None, scale or None, skipped) as parsed;
    want: (E, B, Ep, Bp, scale, floor, kappa) or None when the reference
    refuses; floor bounds the reference magnitude from below, kappa is the
    row's condition number."""
    coords, values, scale, skipped = row
    if coords != point:
        res.fail(f"row {i}: at {coords}, expected grid point {point}")
        return
    if want is None:
        if not skipped:
            res.fail(f"row {i}: computed, but the reference refuses {point}")
        else:
            res.skipped += 1
        return
    if skipped or values is None or scale is None:
        res.fail(f"row {i}: skipped, but the reference computes {point}")
        return
    E, B, Ep, Bp, want_scale, floor, kappa = want
    dev = max(
        _rel_dev(values[:6], np.concatenate([E, B]), floor),
        _rel_dev(values[6:], np.concatenate([Ep, Bp]), floor),
        _rel_dev([scale], [want_scale]),
    )
    res.worst_dev = max(res.worst_dev, dev)
    allowance = REL_TOL + ROUNDINGS * UNIT_ROUNDOFF * kappa
    if not dev <= allowance:
        res.fail(f"row {i}: relative deviation {dev:.3e} > {allowance:.3e} at {point}")
    elif dev > REL_TOL:
        res.ill_conditioned += 1


def _parse_csv(text: str):
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return None
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 18 or cells[17] not in ("0", "1"):
            return None
        try:
            coords = tuple(float(c) for c in cells[:4])
            skipped = cells[17] == "1"
            if skipped:
                rows.append((coords, None, None, True))
            else:
                values = [float(c) for c in cells[4:16]]
                rows.append((coords, values, float(cells[16]), False))
        except ValueError:
            return None
    return rows


def _parse_json(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return None
    if not isinstance(doc, list):
        return None
    rows = []
    for obj in doc:
        try:
            coords = tuple(float(obj[a]) for a in AXES)
            if obj["skipped"]:
                rows.append((coords, None, None, True))
            else:
                values = [float(obj[k]) for k in FIELD_KEYS]
                rows.append((coords, values, float(obj["scale"]), False))
        except (KeyError, TypeError, ValueError):
            return None
    return rows


def _check_rows(rows, points, reference) -> GateResult:
    res = GateResult(attempted=len(points))
    if rows is None or len(rows) != len(points):
        res.fail("output does not parse into one row per grid point", len(points))
        return res
    for i, (row, point) in enumerate(zip(rows, points)):
        _check_row(res, i, row, point, reference(point))
    return res


def sct_reference(a):
    """Coulomb field (q = 1) at x and its image under the SCT with vector a.

    kappa is the condition number of sigma = 1 + 2 a.x + a^2 x^2: the sum of
    the terms' magnitudes over the magnitude of their sum.
    """
    a = np.asarray(a, dtype=np.float64)

    def ref(point):
        x = np.asarray(point, dtype=np.float64)
        r = x[1:]
        rn = math.sqrt(float(r @ r))
        sigma = oracle.sct_scale(x, a)
        if rn <= CHARGE_TOL or abs(sigma) <= CONE_TOL:
            return None
        E = r / rn**3
        B = np.zeros(3)
        M = oracle.jacobian_sct(x, a)
        Ep, Bp = oracle.unpack_faraday(
            oracle.transform_faraday(M, oracle.pack_faraday(E, B), abs(sigma), 1)
        )
        terms = 1.0 + 2.0 * float(np.abs(a) @ np.abs(x)) + float(a @ a) * float(x @ x)
        return E, B, Ep, Bp, sigma, 0.0, terms / abs(sigma)

    return ref


def lorentz_back_reference(boost, rotation, E0, khat):
    """Plane wave at the preimage of each image-frame event, carried through
    the Lorentz matrix as L F L^T."""
    L = induced_matrix(Lorentz(boost=tuple(boost), rotation=tuple(rotation)))
    e0 = np.asarray(E0, dtype=np.float64)
    k = np.asarray(khat, dtype=np.float64)
    floor = float(np.max(np.abs(e0)))

    def ref(point):
        src = np.linalg.solve(L, np.asarray(point, dtype=np.float64))
        E = e0 * math.cos(float(k @ src[1:]) - src[0])
        B = np.cross(k, E)
        Ep, Bp = oracle.unpack_faraday(
            oracle.transform_faraday(L, oracle.pack_faraday(E, B), 1.0, 1)
        )
        # A plane wave passes through zero; deviations are measured against
        # its amplitude there, not against the vanishing local value.
        return E, B, Ep, Bp, 1.0, floor, 1.0

    return ref


def check_verify(text: str, seed: int, trials: int) -> GateResult:
    res = GateResult(attempted=len(VERIFY_CHECK_IDS))
    # A check that crashes reports its deviation as a bare inf, which JSON
    # lacks; read it as Infinity so that the other checks still count.
    text = re.sub(r"(?<=: )(-?)inf\b", r"\1Infinity", text)
    try:
        doc = json.loads(text)
        checks = {c["check_id"]: c for c in doc["checks"]}
        header_ok = doc["seed"] == seed and doc["trials"] == trials
    except (json.JSONDecodeError, KeyError, TypeError):
        res.fail("verify report does not parse", res.attempted)
        return res
    if not header_ok:
        res.fail("verify report names another seed or trial count", res.attempted)
        return res
    for cid in VERIFY_CHECK_IDS:
        c = checks.get(cid)
        if c is None or c.get("pass") is not True:
            res.fail(f"check {cid}: missing or not passed")
    return res


def check_output(job, text: str) -> GateResult:
    """Gate one job's standard output."""
    p = job.params
    if job.workload == "sweep_sct":
        return _check_rows(_parse_csv(text), grid_points(p["grid"]), sct_reference(p["a"]))
    if job.workload == "sweep_lorentz_back":
        ref = lorentz_back_reference(p["boost"], p["rotation"], p["E0"], p["khat"])
        return _check_rows(_parse_json(text), grid_points(p["grid"]), ref)
    if job.workload == "verify_ref":
        return check_verify(text, p["seed"], p["trials"])
    raise ValueError(f"no gate for workload {job.workload!r}")
