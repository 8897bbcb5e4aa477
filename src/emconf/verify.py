"""Seeded self-verification suite cross-checking every transformation route.

Each check draws from its own child of one seed sequence, so enabling or
reordering other checks never shifts its sample stream and the whole report
is reproducible byte for byte.  A check draws its samples one trial at a
time, rejection loops included, then stacks them and runs each route once
on the whole stack: inversion trials as two batches, one per sign eps, and
special conformal trials as one batch with each trial's vector a on the
batch axis.  Deviations between routes are measured relative to
max(1, reference magnitude): transformed quantities reach 1e5 and beyond on
valid sample points, where an absolute comparison would only measure
float64 granularity, not correctness.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import oracle
from .bridge import product_correspondence_check, sandwich_correspondence_check
from .cl13 import Faraday13, FourVector, Multivector13, vector_sandwich
from .cl3 import Faraday3, Paravector3
from .conformal13 import (
    GRADE_TOL,
    CoordinateFrame,
    Inversion,
    Lorentz,
    LorentzClass,
    QuantityKind,
    Sct,
    Translation,
    induced_matrix,
    transform,
)
from .conformal3 import induced_matrix3, transform3
from .fields import PlaneWave, invariants

BASE_TOL = 1e-10
GUARD = 0.01
# Central differences with the standard step rule carry truncation error of
# order h^2 times the map's third derivative, which grows as the inverse
# fourth power of the guarded denominators.  Three denominators matter: x^2,
# the rescaling factor, and their ratio (the squared interval of the image
# point).  Guarding all three at 1.0 with unit-range transformation vectors
# keeps the truncation an order of magnitude under the 1e-6 bound.
FD_GUARD = 1.0
REFERENCE_TRIALS = 500
DEFAULT_SEED = 42

ORIG = CoordinateFrame.ORIGINAL
TRANS = CoordinateFrame.TRANSFORMED
POSITION = QuantityKind.POSITION
POTENTIAL = QuantityKind.POTENTIAL
CURRENT = QuantityKind.CURRENT
FARADAY = QuantityKind.FARADAY


@dataclass(frozen=True)
class CheckResult:
    """One check's outcome.  error names the exception of a check that
    crashed; seconds is its wall time, which reports never compare."""

    check_id: str
    trials: int
    max_dev: float
    tolerance: float
    passed: bool
    error: str | None = None
    seconds: float = field(default=0.0, compare=False, repr=False)


@dataclass(frozen=True)
class VerifyReport:
    seed: int
    trials: int
    tolerance: float
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


# -- samplers -------------------------------------------------------------------


def sample_event(rng, guard: float = GUARD) -> np.ndarray:
    """Uniform [-2, 2] components, resampled until |x^2| clears the guard."""
    while True:
        x = rng.uniform(-2.0, 2.0, 4)
        if abs(oracle.msq(x)) > guard:
            return x


def sample_pair(rng, guard: float = GUARD, a_scale: float = 1.0):
    """Event plus transformation vector with both cone guards satisfied."""
    while True:
        x = rng.uniform(-2.0, 2.0, 4)
        a = rng.uniform(-2.0 * a_scale, 2.0 * a_scale, 4)
        if abs(oracle.msq(x)) > guard and abs(oracle.sct_scale(x, a)) > guard:
            return x, a


def sample_fd_pair(rng, guard: float = FD_GUARD):
    """Sampler for difference-quotient checks: all three cones kept distant."""
    while True:
        x = rng.uniform(-2.0, 2.0, 4)
        a = rng.uniform(-1.0, 1.0, 4)
        x2 = oracle.msq(x)
        s = oracle.sct_scale(x, a)
        if abs(x2) > guard and abs(s) > guard and abs(s / x2) > guard:
            return x, a


def _sample_interval_sign(rng, sign: int, guard: float = GUARD) -> np.ndarray:
    while True:
        x = rng.uniform(-2.0, 2.0, 4)
        if sign * oracle.msq(x) > guard:
            return x


def _sample_events(rng, trials: int) -> np.ndarray:
    return np.array([sample_event(rng) for _ in range(trials)])


def _pair_and_field(rng):
    x, a = sample_pair(rng)
    return x, a, rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0, 3)


def _pair_field_and_potential(rng):
    return (*_pair_and_field(rng), rng.uniform(-2.0, 2.0, 4))


def _draw(rng, trials: int, sample) -> tuple[np.ndarray, ...]:
    """Each trial's sample drawn in turn, then each of its parts stacked
    over the trials."""
    rows = [sample(rng) for _ in range(trials)]
    return tuple(np.array(part) for part in zip(*rows))


def _by_eps(trials: int):
    """The inversion sign of each trial parity, eps = +1 on even trials and
    -1 on odd ones, with the indices of its trials."""
    for eps, first in ((1, 0), (-1, 1)):
        rows = np.arange(first, trials, 2)
        if rows.size:
            yield eps, rows


def _fv(v) -> FourVector:
    return FourVector.from_array(v)


def _pv(v) -> Paravector3:
    return Paravector3.from_event(v[..., 0], v[..., 1:])


def _pv_array(p: Paravector3) -> np.ndarray:
    return np.concatenate([p.s.real[..., None], p.v.real], axis=-1)


def _worst(*devs) -> float:
    """The largest deviation over every row of every argument, or NaN if
    any is NaN; the built-in max drops a NaN that is not its first
    argument, so a route returning NaN would pass its check."""
    return float(np.max(np.concatenate([np.ravel(d) for d in devs])))


def _scaled(dev, ref):
    return dev / np.fmax(1.0, ref)


def _vec_dev(got: np.ndarray, want: np.ndarray):
    """Per row: max |got - want| relative to max(1, max |want|)."""
    return _scaled(np.abs(got - want).max(axis=-1), np.abs(want).max(axis=-1))


def _field_dev(gotE, gotB, wantE, wantB):
    """Per row: the larger of the E and B deviations, relative to
    max(1, largest |want| component)."""
    dev = np.maximum(np.abs(gotE - wantE).max(axis=-1), np.abs(gotB - wantB).max(axis=-1))
    ref = np.maximum(np.abs(wantE).max(axis=-1), np.abs(wantB).max(axis=-1))
    return _scaled(dev, ref)


def _result(check_id: str, trials: int, devs, tol: float) -> CheckResult:
    dev = _worst(*devs)
    return CheckResult(check_id, trials, dev, tol, dev <= tol)


# -- checks ---------------------------------------------------------------------

_METRIC = np.array([1.0, -1.0, -1.0, -1.0])
# The generators e_0..e_3 as one batch.
_GENERATORS = FourVector.from_array(np.eye(4)).to_mv()


def check_blade_products(rng, trials: int, tol: float) -> CheckResult:
    """Every blade pair lands on one blade with an integer sign; vectors
    anticommute onto the metric."""
    blades = np.eye(16)
    i, j = np.divmod(np.arange(256), 16)
    p = (Multivector13(blades[i]) * Multivector13(blades[j])).c
    on = p[np.arange(256), i ^ j]
    off = p.copy()
    off[np.arange(256), i ^ j] = 0.0
    devs = [np.abs(np.abs(on) - 1.0), np.abs(off)]
    a, b = np.divmod(np.arange(16), 4)
    ea, eb = Multivector13(_GENERATORS.c[a]), Multivector13(_GENERATORS.c[b])
    expected = np.zeros((16, 16))
    expected[:, 0] = np.where(a == b, 2.0 * _METRIC[a], 0.0)
    devs.append(np.abs((ea * eb + eb * ea).c - expected))
    x = sample_event(rng)
    xm = _fv(x).to_mv()
    expected = np.zeros((4, 16))
    expected[:, 0] = 2.0 * _METRIC * x
    devs.append(np.abs((_GENERATORS * xm + xm * _GENERATORS).c - expected))
    return _result("blade_products", 256, devs, tol * 0.0)


def check_jacobian_sandwich_identity(rng, trials: int, tol: float) -> CheckResult:
    """x^4 times an inversion Jacobian column equals the basis-vector sandwich."""
    X = _sample_events(rng, trials)
    devs = []
    for eps, rows in _by_eps(trials):
        x = X[rows]
        M = np.asarray(oracle.jacobian_inversion(x, eps), dtype=np.float64)
        x2 = oracle.msq(x)
        # Rows (trial, alpha): the sandwich of e_alpha by the trial's event.
        xm = Multivector13(_fv(x).to_mv().c[:, None, :])
        sandwich = vector_sandwich(xm, _GENERATORS, xm)
        rhs = -eps * FourVector.from_mv(sandwich, GRADE_TOL).as_array()
        lhs = (x2**2)[:, None, None] * np.swapaxes(M, -1, -2)
        devs.append(_vec_dev(lhs, rhs))
    return _result("jacobian_sandwich_identity", trials, devs, tol)


def check_conformality(rng, trials: int, tol: float) -> CheckResult:
    """Lambda^2 M^T eta M reproduces the metric for both conformal maps."""
    X, A = _draw(rng, trials, sample_pair)
    devs = [
        oracle.conformality_residual(oracle.jacobian_inversion(X[rows], eps))
        for eps, rows in _by_eps(trials)
    ]
    devs.append(oracle.conformality_residual(oracle.jacobian_sct(X, A)))
    return _result("conformality", trials, devs, tol)


def check_conformal_factor_match(rng, trials: int, tol: float) -> CheckResult:
    """Determinant-based scale factor equals |x^2| and |Sigma|."""
    X, A = _draw(rng, trials, sample_pair)
    devs = []
    for eps, rows in _by_eps(trials):
        lam_inv = oracle.conformal_factor(oracle.jacobian_inversion(X[rows], eps))
        x2 = np.abs(oracle.msq(X[rows]))
        devs.append(_scaled(np.abs(lam_inv - x2), x2))
    lam_sct = oracle.conformal_factor(oracle.jacobian_sct(X, A))
    sig = np.abs(oracle.sct_scale(X, A))
    devs.append(_scaled(np.abs(lam_sct - sig), sig))
    return _result("conformal_factor_match", trials, devs, tol)


def check_fd_jacobians(rng, trials: int, tol: float) -> CheckResult:
    """Analytic Jacobians against central differences, away from the cones."""
    X, A = _draw(rng, trials, sample_fd_pair)
    devs = []
    for eps, rows in _by_eps(trials):
        x = X[rows]
        M = np.asarray(oracle.jacobian_inversion(x, eps), dtype=np.float64)
        fd = oracle.fd_jacobian(lambda p: oracle.invert_event(p, eps), x)
        devs.append(np.abs(M - fd))
    Ms = np.asarray(oracle.jacobian_sct(X, A), dtype=np.float64)
    fds = oracle.fd_jacobian(lambda p: oracle.sct_event(p, A), X)
    devs.append(np.abs(Ms - fds))
    return _result("fd_jacobians", trials, devs, tol)


def check_theta_signs(rng, trials: int, tol: float) -> CheckResult:
    """Time-orientation signs: -eps for inversion everywhere, +1 for the SCT."""
    half = max(1, trials // 2)
    X = np.array([
        _sample_interval_sign(rng, sign) for sign in (1, -1) for _ in range(half)
    ])
    bad = 0
    for eps in (1, -1):
        theta = oracle.time_orientation(oracle.jacobian_inversion(X, eps))
        bad += int(np.count_nonzero(theta != -eps))
    X, A = _draw(rng, trials, sample_pair)
    bad += int(np.count_nonzero(oracle.time_orientation(oracle.jacobian_sct(X, A)) != 1))
    return CheckResult("theta_signs", trials, float(bad), tol * 0.0, bad == 0)


def check_three_way_agreement(rng, trials: int, tol: float) -> CheckResult:
    """Spacetime algebra, paravector algebra, and tensor law must coincide
    for every quantity, both conformal maps, and both coordinate frames."""
    X, A, E, B, A4 = _draw(rng, trials, _pair_field_and_potential)
    F = oracle.pack_faraday(E, B)
    # Each map with its trials, Jacobian, scale and time orientation.
    x2 = np.abs(oracle.msq(X))
    maps = [
        (Inversion(eps), rows, oracle.jacobian_inversion(X[rows], eps), x2[rows], -eps)
        for eps, rows in _by_eps(trials)
    ]
    every = np.arange(trials)
    sig = np.abs(oracle.sct_scale(X, A))
    maps.append((Sct(_fv(A)), every, oracle.jacobian_sct(X, A), sig, 1))
    devs = []
    for params, rows, M, lam, theta in maps:
        Ew, Bw = oracle.unpack_faraday(oracle.transform_faraday(M, F[rows], lam, theta))
        At = oracle.transform_potential(M, A4[rows], lam, theta)
        Jt = oracle.transform_current(M, A4[rows], lam, theta)
        F13 = Faraday13(E[rows], B[rows])
        F3 = Faraday3(E[rows], B[rows])
        A13 = _fv(A4[rows])
        A3 = _pv(A4[rows])
        xf = _fv(X[rows])
        image = transform(params, POSITION, xf)
        for frame, x13 in ((ORIG, xf), (TRANS, image)):
            x3 = _pv(x13.as_array())
            got = transform(params, FARADAY, F13, x13, frame)
            got3 = transform3(params, FARADAY, F3, x3, frame)
            devs.append(_field_dev(got.E, got.B, Ew, Bw))
            devs.append(_field_dev(got3.E, got3.B, Ew, Bw))
            for kind, want in ((POTENTIAL, At), (CURRENT, Jt)):
                got = transform(params, kind, A13, x13, frame)
                got3 = transform3(params, kind, A3, x3, frame)
                devs.append(_vec_dev(got.as_array(), want))
                devs.append(_vec_dev(_pv_array(got3), want))
    return _result("three_way_agreement", trials, devs, tol)


def check_sct_chain_composition(rng, trials: int, tol: float) -> CheckResult:
    """Invert, translate by eps*a, invert again: equals the direct map."""
    accepted = []
    attempts = 0
    while len(accepted) < trials and attempts < trials * 50:
        attempts += 1
        x, a = sample_pair(rng)
        eps = 1 if len(accepted) % 2 == 0 else -1
        x1 = transform(Inversion(eps), POSITION, _fv(x))
        y = transform(Translation(FourVector(*(eps * a))), POSITION, x1)
        if abs(y.minkowski_sq()) <= GUARD:
            continue
        E = rng.uniform(-2.0, 2.0, 3)
        B = rng.uniform(-2.0, 2.0, 3)
        A4 = rng.uniform(-2.0, 2.0, 4)
        accepted.append((x, a, y.as_array(), E, B, A4))
    devs = [0.0]
    if accepted:
        X, A, Y, E, B, A4 = (np.array(part) for part in zip(*accepted))
        for eps, rows in _by_eps(len(accepted)):
            inv = Inversion(eps)
            sct = Sct(_fv(A[rows]))
            xf = _fv(X[rows])
            y = _fv(Y[rows])
            direct_x = transform(sct, POSITION, xf)
            chained_x = transform(inv, POSITION, y)
            devs.append(_vec_dev(chained_x.as_array(), direct_x.as_array()))

            A13 = _fv(A4[rows])
            direct_A = transform(sct, POTENTIAL, A13, xf)
            chained_A = transform(inv, POTENTIAL, transform(inv, POTENTIAL, A13, xf), y)
            devs.append(_vec_dev(chained_A.as_array(), direct_A.as_array()))

            F13 = Faraday13(E[rows], B[rows])
            direct_F = transform(sct, FARADAY, F13, xf)
            chained_F = transform(inv, FARADAY, transform(inv, FARADAY, F13, xf), y)
            devs.append(_field_dev(chained_F.E, chained_F.B, direct_F.E, direct_F.B))
    dev = _worst(*devs)
    ok = len(accepted) >= trials and dev <= tol
    return CheckResult("sct_chain_composition", len(accepted), dev, tol, ok)


def check_field_expansions(rng, trials: int, tol: float) -> CheckResult:
    """Closed-form component expansions against tensor and paravector routes."""
    X, A, E, B, A4 = _draw(rng, trials, _pair_field_and_potential)
    devs = []
    mutual = []
    for eps, rows in _by_eps(trials):
        x, e, b = X[rows], E[rows], B[rows]
        (Ed, Bd), (Ec, Bc) = oracle.inversion_field_forms(e, b, x, eps)
        mutual.append(_field_dev(Ec, Bc, Ed, Bd))
        Et, Bt = oracle.unpack_faraday(
            oracle.inversion_faraday_tensor(oracle.pack_faraday(e, b), x, eps)
        )
        devs.append(_field_dev(Ed, Bd, Et, Bt))
        got3 = transform3(Inversion(eps), FARADAY, Faraday3(e, b), _pv(x))
        devs.append(_field_dev(got3.E, got3.B, Ed, Bd))

    Ess, Bss = oracle.sct_field_components(E, B, X, A)
    Et, Bt = oracle.unpack_faraday(oracle.sct_faraday_tensor(oracle.pack_faraday(E, B), X, A))
    devs.append(_field_dev(Ess, Bss, Et, Bt))
    sct = Sct(_fv(A))
    got3 = transform3(sct, FARADAY, Faraday3(E, B), _pv(X))
    devs.append(_field_dev(got3.E, got3.B, Ess, Bss))

    x_new = oracle.sct_event(X, A)
    En, Bn = oracle.sct_field_components_newcoords(E, B, x_new, A)
    devs.append(_field_dev(En, Bn, Ess, Bss))

    Ap = oracle.inversion_potential_components(A4, X)
    got = transform(Inversion(1), POTENTIAL, _fv(A4), _fv(X))
    devs.append(_vec_dev(got.as_array(), Ap))
    As = oracle.sct_potential_components(A4, X, A)
    got = transform(sct, POTENTIAL, _fv(A4), _fv(X))
    devs.append(_vec_dev(got.as_array(), As))

    dev, mutual_dev = _worst(*devs), _worst(*mutual)
    mutual_tol = tol * 1e-2 if tol > 0.0 else 0.0
    passed = dev <= tol and mutual_dev <= mutual_tol
    return CheckResult(
        "field_expansions", trials, _worst(dev, mutual_dev), tol, passed
    )


def check_invariant_scaling(rng, trials: int, tol: float) -> CheckResult:
    """I1, I2 pick up the fourth power of the scale, with the inversion
    flipping the pseudoscalar sign."""
    X, A, E, B = _draw(rng, trials, _pair_and_field)
    F3 = Faraday3(E, B)
    i1, i2 = invariants(F3)
    devs = []
    om4 = oracle.msq(X) ** 4
    for eps, rows in _by_eps(trials):
        Fp = transform3(Inversion(eps), FARADAY, Faraday3(F=F3.F[rows]), _pv(X[rows]))
        j1, j2 = invariants(Fp)
        w1, w2 = om4[rows] * i1[rows], om4[rows] * i2[rows]
        ref = np.maximum(np.abs(w1), np.abs(w2))
        devs += [_scaled(np.abs(j1 - w1), ref), _scaled(np.abs(j2 + w2), ref)]

    Fs = transform3(Sct(_fv(A)), FARADAY, F3, _pv(X))
    k1, k2 = invariants(Fs)
    sig4 = oracle.sct_scale(X, A) ** 4
    w1, w2 = sig4 * i1, sig4 * i2
    ref = np.maximum(np.abs(w1), np.abs(w2))
    devs += [_scaled(np.abs(k1 - w1), ref), _scaled(np.abs(k2 - w2), ref)]
    return _result("invariant_scaling", trials, devs, tol)


def check_invariants_levi_civita(rng, trials: int, tol: float) -> CheckResult:
    """Full tensorial invariant path with the transformed permutation symbol.

    Runs on the inversion, whose negative Jacobian determinant is what makes
    the pseudoscalar invariant flip sign; a wrong orientation convention
    anywhere in the chain shows up here immediately.
    """
    def sample(rng):
        return sample_event(rng), rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0, 3)

    X, E, B = _draw(rng, trials, sample)
    F = oracle.pack_faraday(E, B)
    i1, i2 = oracle.invariants_from_tensor(F)
    om = oracle.msq(X)
    devs = []
    for eps, rows in _by_eps(trials):
        M = oracle.jacobian_inversion(X[rows], eps)
        i1p, i2p = oracle.invariants_transformed(F[rows], M, np.abs(om[rows]), -eps)
        om4 = om[rows] ** 4
        ref = np.maximum(np.abs(om4 * i1[rows]), np.abs(om4 * i2[rows]))
        devs.append(_scaled(np.abs(i1p - om4 * i1[rows]), ref))
        devs.append(_scaled(np.abs(i2p + om4 * i2[rows]), ref))
    return _result("invariants_levi_civita", trials, devs, tol)


def check_inversion_jacobian_determinant(rng, trials: int, tol: float) -> CheckResult:
    """det[d(original)/d(image)] equals minus the fourth power of x^2."""
    X = _sample_events(rng, trials)
    devs = []
    for eps, rows in _by_eps(trials):
        om4 = oracle.msq(X[rows]) ** 4
        d = oracle.inversion_inverse_jacobian_det(X[rows], eps)
        devs.append(_scaled(np.abs(d - (-om4)), np.abs(om4)))
    return _result("inversion_jacobian_determinant", trials, devs, tol)


_CLASS_SIGNS = {
    LorentzClass.PROPER_ORTHOCHRONOUS: (1.0, 1),
    LorentzClass.IMPROPER_ORTHOCHRONOUS: (-1.0, 1),
    LorentzClass.IMPROPER_ANTICHRONOUS: (-1.0, -1),
    LorentzClass.PROPER_ANTICHRONOUS: (1.0, -1),
}


def _lorentz_params(rng, per_class: int) -> list[Lorentz]:
    """For each class in turn, per_class sampled boost and rotation pairs,
    drawn one pair at a time and stacked into one batch of that class."""
    batches = []
    for cls in _CLASS_SIGNS:
        pairs = np.array(
            [(rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3)) for _ in range(per_class)]
        )
        batches.append(Lorentz(boost=pairs[:, 0], rotation=pairs[:, 1], lorentz_class=cls))
    return batches


def check_lorentz_classes(rng, trials: int, tol: float) -> CheckResult:
    """Induced matrices are eta-orthogonal with the class's determinant and
    time-orientation signs."""
    per_class = max(1, trials // 4)
    eta = oracle.ETA
    devs = []
    for p in _lorentz_params(rng, per_class):
        L = induced_matrix(p)
        det_sign, t_sign = _CLASS_SIGNS[p.lorentz_class]
        devs += [
            np.abs(np.swapaxes(L, -1, -2) @ eta @ L - eta),
            np.abs(np.linalg.det(L) - det_sign),
            np.where(oracle.time_orientation(L) != t_sign, 1.0, 0.0),
        ]
    return _result("lorentz_classes", per_class * 4, devs, tol)


def check_lorentz_route_agreement(rng, trials: int, tol: float) -> CheckResult:
    """Both algebras induce the same Lorentz matrix for every class."""
    per_class = max(1, trials // 4)
    devs = [
        np.abs(induced_matrix(p) - induced_matrix3(p)) for p in _lorentz_params(rng, per_class)
    ]
    return _result("lorentz_route_agreement", per_class * 4, devs, tol)


def check_null_field_preservation(rng, trials: int, tol: float) -> CheckResult:
    """Plane-wave samples keep both invariants at zero through either map.

    The transformation vector stays in [-0.5, 0.5] so the exact zero is
    compared against a quantity of order one.
    """
    def sample(rng):
        x, a = sample_pair(rng, a_scale=0.25)
        k = rng.normal(size=3)
        k /= np.linalg.norm(k)
        e = np.cross(k, rng.normal(size=3))
        while np.linalg.norm(e) < 1e-6:
            e = np.cross(k, rng.normal(size=3))
        e *= rng.uniform(0.5, 1.5) / np.linalg.norm(e)
        phase = float(rng.uniform(0, 2 * math.pi))
        wave = PlaneWave(E0=tuple(e), khat=tuple(k), phase=phase)
        return x, a, wave.faraday(_fv(x)).F

    X, A, F = _draw(rng, trials, sample)
    F = Faraday3(F=F)
    devs = []
    for Ft in (
        transform3(Inversion(1), FARADAY, F, _pv(X)),
        transform3(Sct(_fv(A)), FARADAY, F, _pv(X)),
    ):
        i1, i2 = invariants(Ft)
        devs += [np.abs(i1), np.abs(i2)]
    return _result("null_field_preservation", trials, devs, tol)


def check_bridge_correspondence(rng, trials: int, tol: float) -> CheckResult:
    """Even products and Faraday sandwiches map onto the paravector algebra."""
    def sample(rng):
        return tuple(rng.uniform(-2.0, 2.0, n) for n in (4, 4, 3, 3))

    X, Y, E, B = _draw(rng, trials, sample)
    x, y = _fv(X), _fv(Y)
    devs = [
        product_correspondence_check(x, y),
        sandwich_correspondence_check(x, Faraday13(E, B), y),
    ]
    return _result("bridge_correspondence", trials, devs, tol)


# Registry rows: check id, callable, nominal trials at the reference budget,
# nominal tolerance at the reference 1e-10 setting.
REGISTRY = (
    ("blade_products", check_blade_products, 256, 0.0),
    ("jacobian_sandwich_identity", check_jacobian_sandwich_identity, 100, BASE_TOL),
    ("conformality", check_conformality, 200, 1e-8),
    ("conformal_factor_match", check_conformal_factor_match, 200, 1e-8),
    ("fd_jacobians", check_fd_jacobians, 100, 1e-6),
    ("theta_signs", check_theta_signs, 100, 0.0),
    ("three_way_agreement", check_three_way_agreement, 500, BASE_TOL),
    ("sct_chain_composition", check_sct_chain_composition, 300, BASE_TOL),
    ("field_expansions", check_field_expansions, 500, BASE_TOL),
    ("invariant_scaling", check_invariant_scaling, 500, BASE_TOL),
    ("invariants_levi_civita", check_invariants_levi_civita, 100, 1e-8),
    ("inversion_jacobian_determinant", check_inversion_jacobian_determinant, 100, 1e-8),
    ("lorentz_classes", check_lorentz_classes, 400, BASE_TOL),
    ("lorentz_route_agreement", check_lorentz_route_agreement, 100, BASE_TOL),
    ("null_field_preservation", check_null_field_preservation, 200, BASE_TOL),
    ("bridge_correspondence", check_bridge_correspondence, 200, 1e-12),
)


def run_suite(
    trials: int = REFERENCE_TRIALS,
    seed: int = DEFAULT_SEED,
    tol: float = BASE_TOL,
    checks: tuple[str, ...] | None = None,
) -> VerifyReport:
    """Run the property suite.

    trials rescales every check's sample count proportionally; tol rescales
    every tolerance by tol / 1e-10, so a zero tolerance reports raw
    deviations as failures instead of hiding them.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if tol < 0.0:
        raise ValueError("tolerance must be non-negative")
    children = np.random.SeedSequence(seed).spawn(len(REGISTRY))
    scale = tol / BASE_TOL
    results = []
    for (check_id, fn, nominal, nominal_tol), child in zip(REGISTRY, children):
        if checks is not None and check_id not in checks:
            continue
        n = max(1, round(nominal * trials / REFERENCE_TRIALS))
        rng = np.random.default_rng(child)
        start = time.perf_counter()
        try:
            result = fn(rng, n, nominal_tol * scale)
        except Exception as exc:
            result = CheckResult(
                check_id, n, float("inf"), nominal_tol * scale, False,
                error=f"{type(exc).__name__}: {exc}",
            )
        results.append(replace(result, seconds=time.perf_counter() - start))
    return VerifyReport(seed, trials, tol, tuple(results))
