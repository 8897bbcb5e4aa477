"""Seeded self-verification suite cross-checking every transformation route.

Each check draws from its own child of one seed sequence, so enabling or
reordering other checks never shifts its sample stream and the whole report
is reproducible byte for byte.  Deviations between routes are measured
relative to max(1, reference magnitude): transformed quantities reach 1e5
and beyond on valid sample points, where an absolute comparison would only
measure float64 granularity, not correctness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    check_id: str
    trials: int
    max_dev: float
    tolerance: float
    passed: bool


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


def _fv(v) -> FourVector:
    return FourVector(float(v[0]), float(v[1]), float(v[2]), float(v[3]))


def _pv(v) -> Paravector3:
    return Paravector3.from_event(float(v[0]), v[1:])


def _pv_array(p: Paravector3) -> np.ndarray:
    return np.array([p.s.real, p.v[0].real, p.v[1].real, p.v[2].real])


def _worst(*devs: float) -> float:
    """The largest deviation, or NaN if any is NaN.

    The built-in max drops a NaN that is not its first argument, so a route
    returning NaN would pass its check.
    """
    for d in devs:
        if d != d:
            return float(d)
    return float(max(devs))


def _scaled(dev: float, ref: float) -> float:
    return dev / max(1.0, ref)


def _vec_dev(got: np.ndarray, want: np.ndarray) -> float:
    return _scaled(float(np.max(np.abs(got - want))), float(np.max(np.abs(want))))


def _field_dev(gotE, gotB, wantE, wantB) -> float:
    dev = _worst(
        float(np.max(np.abs(gotE - wantE))), float(np.max(np.abs(gotB - wantB)))
    )
    ref = max(float(np.max(np.abs(wantE))), float(np.max(np.abs(wantB))))
    return _scaled(dev, ref)


# -- checks ---------------------------------------------------------------------


def check_blade_products(rng, trials: int, tol: float) -> CheckResult:
    """Every blade pair lands on one blade with an integer sign; vectors
    anticommute onto the metric."""
    dev = 0.0
    for i in range(16):
        for j in range(16):
            ei = Multivector13.blade(i)
            ej = Multivector13.blade(j)
            p = (ei * ej).c
            k = i ^ j
            if abs(abs(p[k]) - 1.0) != 0.0:
                dev = _worst(dev, abs(abs(p[k]) - 1.0))
            other = np.delete(p, k)
            dev = _worst(dev, float(np.max(np.abs(other))))
    metric = (1.0, -1.0, -1.0, -1.0)
    for a in range(4):
        for b in range(4):
            ea = Multivector13.basis_vector(a)
            eb = Multivector13.basis_vector(b)
            anti = (ea * eb + eb * ea).c
            expected = np.zeros(16)
            expected[0] = 2.0 * (metric[a] if a == b else 0.0)
            dev = _worst(dev, float(np.max(np.abs(anti - expected))))
    x = sample_event(rng)
    xm = _fv(x).to_mv()
    for a in range(4):
        ea = Multivector13.basis_vector(a)
        got = (ea * xm + xm * ea).c
        expected = np.zeros(16)
        expected[0] = 2.0 * metric[a] * x[a]
        dev = _worst(dev, float(np.max(np.abs(got - expected))))
    return CheckResult("blade_products", 256, dev, tol * 0.0, dev <= tol * 0.0)


def check_jacobian_sandwich_identity(rng, trials: int, tol: float) -> CheckResult:
    """x^4 times an inversion Jacobian column equals the basis-vector sandwich."""
    dev = 0.0
    for i in range(trials):
        x = sample_event(rng)
        eps = 1 if i % 2 == 0 else -1
        M = np.asarray(oracle.jacobian_inversion(x, eps), dtype=np.float64)
        x2 = oracle.msq(x)
        xm = _fv(x).to_mv()
        for alpha in range(4):
            lhs = x2**2 * M[:, alpha]
            rhs = -eps * FourVector.from_mv(
                vector_sandwich(xm, Multivector13.basis_vector(alpha), xm), GRADE_TOL
            ).as_array()
            dev = _worst(dev, _vec_dev(lhs, rhs))
    return CheckResult("jacobian_sandwich_identity", trials, dev, tol, dev <= tol)


def check_conformality(rng, trials: int, tol: float) -> CheckResult:
    """Lambda^2 M^T eta M reproduces the metric for both conformal maps."""
    dev = 0.0
    for i in range(trials):
        x, a = sample_pair(rng)
        eps = 1 if i % 2 == 0 else -1
        dev = _worst(
            dev,
            oracle.conformality_residual(oracle.jacobian_inversion(x, eps)),
            oracle.conformality_residual(oracle.jacobian_sct(x, a)),
        )
    return CheckResult("conformality", trials, dev, tol, dev <= tol)


def check_conformal_factor_match(rng, trials: int, tol: float) -> CheckResult:
    """Determinant-based scale factor equals |x^2| and |Sigma|."""
    dev = 0.0
    for i in range(trials):
        x, a = sample_pair(rng)
        eps = 1 if i % 2 == 0 else -1
        lam_inv = oracle.conformal_factor(oracle.jacobian_inversion(x, eps))
        x2 = abs(oracle.msq(x))
        dev = _worst(dev, _scaled(abs(lam_inv - x2), x2))
        lam_sct = oracle.conformal_factor(oracle.jacobian_sct(x, a))
        sig = abs(oracle.sct_scale(x, a))
        dev = _worst(dev, _scaled(abs(lam_sct - sig), sig))
    return CheckResult("conformal_factor_match", trials, dev, tol, dev <= tol)


def check_fd_jacobians(rng, trials: int, tol: float) -> CheckResult:
    """Analytic Jacobians against central differences, away from the cones."""
    dev = 0.0
    for i in range(trials):
        x, a = sample_fd_pair(rng)
        eps = 1 if i % 2 == 0 else -1
        M = np.asarray(oracle.jacobian_inversion(x, eps), dtype=np.float64)
        fd = oracle.fd_jacobian(lambda p: oracle.invert_event(p, eps), x)
        dev = _worst(dev, float(np.max(np.abs(M - fd))))
        Ms = np.asarray(oracle.jacobian_sct(x, a), dtype=np.float64)
        fds = oracle.fd_jacobian(lambda p: oracle.sct_event(p, a), x)
        dev = _worst(dev, float(np.max(np.abs(Ms - fds))))
    return CheckResult("fd_jacobians", trials, dev, tol, dev <= tol)


def check_theta_signs(rng, trials: int, tol: float) -> CheckResult:
    """Time-orientation signs: -eps for inversion everywhere, +1 for the SCT."""
    half = max(1, trials // 2)
    bad = 0
    for sign in (1, -1):
        for i in range(half):
            x = _sample_interval_sign(rng, sign)
            for eps in (1, -1):
                if oracle.time_orientation(oracle.jacobian_inversion(x, eps)) != -eps:
                    bad += 1
    for _ in range(trials):
        x, a = sample_pair(rng)
        if oracle.time_orientation(oracle.jacobian_sct(x, a)) != 1:
            bad += 1
    return CheckResult("theta_signs", trials, float(bad), tol * 0.0, bad == 0)


def check_three_way_agreement(rng, trials: int, tol: float) -> CheckResult:
    """Spacetime algebra, paravector algebra, and tensor law must coincide
    for every quantity, both conformal maps, and both coordinate frames."""
    dev = 0.0
    for i in range(trials):
        x, a = sample_pair(rng)
        eps = 1 if i % 2 == 0 else -1
        E = rng.uniform(-2.0, 2.0, 3)
        B = rng.uniform(-2.0, 2.0, 3)
        A4 = rng.uniform(-2.0, 2.0, 4)
        xf = _fv(x)
        af = _fv(a)
        xp = _pv(x)
        F13 = Faraday13(E, B)
        F3 = Faraday3(E, B)
        A13 = _fv(A4)
        A3 = _pv(A4)
        x2 = oracle.msq(x)
        sig = oracle.sct_scale(x, a)

        Mi = oracle.jacobian_inversion(x, eps)
        Ms = oracle.jacobian_sct(x, a)
        Ft_i = oracle.transform_faraday(Mi, oracle.pack_faraday(E, B), abs(x2), -eps)
        At_i = oracle.transform_potential(Mi, A4, abs(x2), -eps)
        Jt_i = oracle.transform_current(Mi, A4, abs(x2), -eps)
        Ft_s = oracle.transform_faraday(Ms, oracle.pack_faraday(E, B), abs(sig), 1)
        At_s = oracle.transform_potential(Ms, A4, abs(sig), 1)
        Jt_s = oracle.transform_current(Ms, A4, abs(sig), 1)

        for params, Ft, At, Jt in (
            (Inversion(eps), Ft_i, At_i, Jt_i),
            (Sct(af), Ft_s, At_s, Jt_s),
        ):
            Ew, Bw = oracle.unpack_faraday(Ft)
            image = transform(params, POSITION, xf)
            for frame, x13, x3 in (
                (ORIG, xf, xp),
                (TRANS, image, _pv(image.as_array())),
            ):
                got = transform(params, FARADAY, F13, x13, frame)
                got3 = transform3(params, FARADAY, F3, x3, frame)
                dev = _worst(
                    dev,
                    _field_dev(got.E, got.B, Ew, Bw),
                    _field_dev(got3.E, got3.B, Ew, Bw),
                )
                for kind, want in ((POTENTIAL, At), (CURRENT, Jt)):
                    got = transform(params, kind, A13, x13, frame)
                    got3 = transform3(params, kind, A3, x3, frame)
                    dev = _worst(
                        dev,
                        _vec_dev(got.as_array(), want),
                        _vec_dev(_pv_array(got3), want),
                    )
    return CheckResult("three_way_agreement", trials, dev, tol, dev <= tol)


def check_sct_chain_composition(rng, trials: int, tol: float) -> CheckResult:
    """Invert, translate by eps*a, invert again: equals the direct map."""
    dev = 0.0
    accepted = 0
    attempts = 0
    while accepted < trials and attempts < trials * 50:
        attempts += 1
        x, a = sample_pair(rng)
        eps = 1 if accepted % 2 == 0 else -1
        xf = _fv(x)
        af = _fv(a)
        inv = Inversion(eps)
        x1 = transform(inv, POSITION, xf)
        y = transform(Translation(FourVector(*(eps * a))), POSITION, x1)
        if abs(y.minkowski_sq()) <= GUARD:
            continue
        accepted += 1
        E = rng.uniform(-2.0, 2.0, 3)
        B = rng.uniform(-2.0, 2.0, 3)
        A4 = rng.uniform(-2.0, 2.0, 4)

        sct = Sct(af)
        direct_x = transform(sct, POSITION, xf)
        chained_x = transform(inv, POSITION, y)
        dev = _worst(dev, _vec_dev(chained_x.as_array(), direct_x.as_array()))

        A13 = _fv(A4)
        direct_A = transform(sct, POTENTIAL, A13, xf)
        chained_A = transform(inv, POTENTIAL, transform(inv, POTENTIAL, A13, xf), y)
        dev = _worst(dev, _vec_dev(chained_A.as_array(), direct_A.as_array()))

        F13 = Faraday13(E, B)
        direct_F = transform(sct, FARADAY, F13, xf)
        chained_F = transform(inv, FARADAY, transform(inv, FARADAY, F13, xf), y)
        dev = _worst(
            dev, _field_dev(chained_F.E, chained_F.B, direct_F.E, direct_F.B)
        )
    ok = accepted >= trials and dev <= tol
    return CheckResult("sct_chain_composition", accepted, dev, tol, ok)


def check_field_expansions(rng, trials: int, tol: float) -> CheckResult:
    """Closed-form component expansions against tensor and paravector routes."""
    dev = 0.0
    mutual_dev = 0.0
    for i in range(trials):
        x, a = sample_pair(rng)
        eps = 1 if i % 2 == 0 else -1
        E = rng.uniform(-2.0, 2.0, 3)
        B = rng.uniform(-2.0, 2.0, 3)
        A4 = rng.uniform(-2.0, 2.0, 4)

        (Ed, Bd), (Ec, Bc) = oracle.inversion_field_forms(E, B, x, eps)
        mutual_dev = _worst(mutual_dev, _field_dev(Ec, Bc, Ed, Bd))
        Et, Bt = oracle.unpack_faraday(
            oracle.inversion_faraday_tensor(oracle.pack_faraday(E, B), x, eps)
        )
        dev = _worst(dev, _field_dev(Ed, Bd, Et, Bt))
        got3 = transform3(Inversion(eps), FARADAY, Faraday3(E, B), _pv(x))
        dev = _worst(dev, _field_dev(got3.E, got3.B, Ed, Bd))

        Ess, Bss = oracle.sct_field_components(E, B, x, a)
        Et, Bt = oracle.unpack_faraday(
            oracle.sct_faraday_tensor(oracle.pack_faraday(E, B), x, a)
        )
        dev = _worst(dev, _field_dev(Ess, Bss, Et, Bt))
        sct = Sct(_fv(a))
        got3 = transform3(sct, FARADAY, Faraday3(E, B), _pv(x))
        dev = _worst(dev, _field_dev(got3.E, got3.B, Ess, Bss))

        x_new = oracle.sct_event(x, a)
        En, Bn = oracle.sct_field_components_newcoords(E, B, x_new, a)
        dev = _worst(dev, _field_dev(En, Bn, Ess, Bss))

        Ap = oracle.inversion_potential_components(A4, x)
        got = transform(Inversion(1), POTENTIAL, _fv(A4), _fv(x))
        dev = _worst(dev, _vec_dev(got.as_array(), Ap))
        As = oracle.sct_potential_components(A4, x, a)
        got = transform(sct, POTENTIAL, _fv(A4), _fv(x))
        dev = _worst(dev, _vec_dev(got.as_array(), As))
    mutual_tol = tol * 1e-2 if tol > 0.0 else 0.0
    passed = dev <= tol and mutual_dev <= mutual_tol
    return CheckResult(
        "field_expansions", trials, _worst(dev, mutual_dev), tol, passed
    )


def check_invariant_scaling(rng, trials: int, tol: float) -> CheckResult:
    """I1, I2 pick up the fourth power of the scale, with the inversion
    flipping the pseudoscalar sign."""
    dev = 0.0
    for i in range(trials):
        x, a = sample_pair(rng)
        eps = 1 if i % 2 == 0 else -1
        E = rng.uniform(-2.0, 2.0, 3)
        B = rng.uniform(-2.0, 2.0, 3)
        F3 = Faraday3(E, B)
        i1, i2 = invariants(F3)
        om = oracle.msq(x)
        sig = oracle.sct_scale(x, a)

        Fp = transform3(Inversion(eps), FARADAY, F3, _pv(x))
        j1, j2 = invariants(Fp)
        ref = max(abs(om**4 * i1), abs(om**4 * i2))
        dev = _worst(dev, _scaled(abs(j1 - om**4 * i1), ref))
        dev = _worst(dev, _scaled(abs(j2 + om**4 * i2), ref))

        Fs = transform3(Sct(_fv(a)), FARADAY, F3, _pv(x))
        k1, k2 = invariants(Fs)
        ref = max(abs(sig**4 * i1), abs(sig**4 * i2))
        dev = _worst(dev, _scaled(abs(k1 - sig**4 * i1), ref))
        dev = _worst(dev, _scaled(abs(k2 - sig**4 * i2), ref))
    return CheckResult("invariant_scaling", trials, dev, tol, dev <= tol)


def check_invariants_levi_civita(rng, trials: int, tol: float) -> CheckResult:
    """Full tensorial invariant path with the transformed permutation symbol.

    Runs on the inversion, whose negative Jacobian determinant is what makes
    the pseudoscalar invariant flip sign; a wrong orientation convention
    anywhere in the chain shows up here immediately.
    """
    dev = 0.0
    for i in range(trials):
        x = sample_event(rng)
        eps = 1 if i % 2 == 0 else -1
        E = rng.uniform(-2.0, 2.0, 3)
        B = rng.uniform(-2.0, 2.0, 3)
        F = oracle.pack_faraday(E, B)
        i1, i2 = oracle.invariants_from_tensor(F)
        om = oracle.msq(x)

        M = oracle.jacobian_inversion(x, eps)
        i1p, i2p = oracle.invariants_transformed(F, M, abs(om), -eps)
        ref = max(abs(om**4 * i1), abs(om**4 * i2))
        dev = _worst(dev, _scaled(abs(i1p - om**4 * i1), ref))
        dev = _worst(dev, _scaled(abs(i2p + om**4 * i2), ref))
    return CheckResult("invariants_levi_civita", trials, dev, tol, dev <= tol)


def check_inversion_jacobian_determinant(rng, trials: int, tol: float) -> CheckResult:
    """det[d(original)/d(image)] equals minus the fourth power of x^2."""
    dev = 0.0
    for i in range(trials):
        x = sample_event(rng)
        eps = 1 if i % 2 == 0 else -1
        om = oracle.msq(x)
        d = oracle.inversion_inverse_jacobian_det(x, eps)
        dev = _worst(dev, _scaled(abs(d - (-(om**4))), abs(om**4)))
    return CheckResult("inversion_jacobian_determinant", trials, dev, tol, dev <= tol)


_CLASS_SIGNS = {
    LorentzClass.PROPER_ORTHOCHRONOUS: (1.0, 1),
    LorentzClass.IMPROPER_ORTHOCHRONOUS: (-1.0, 1),
    LorentzClass.IMPROPER_ANTICHRONOUS: (-1.0, -1),
    LorentzClass.PROPER_ANTICHRONOUS: (1.0, -1),
}


def check_lorentz_classes(rng, trials: int, tol: float) -> CheckResult:
    """Induced matrices are eta-orthogonal with the class's determinant and
    time-orientation signs."""
    per_class = max(1, trials // 4)
    dev = 0.0
    eta = oracle.ETA
    for cls, (det_sign, t_sign) in _CLASS_SIGNS.items():
        for _ in range(per_class):
            boost = tuple(rng.uniform(-1.0, 1.0, 3))
            rotation = tuple(rng.uniform(-1.0, 1.0, 3))
            params = Lorentz(boost=boost, rotation=rotation, lorentz_class=cls)
            L = induced_matrix(params)
            dev = _worst(dev, float(np.max(np.abs(L.T @ eta @ L - eta))))
            dev = _worst(dev, abs(float(np.linalg.det(L)) - det_sign))
            if oracle.time_orientation(L) != t_sign:
                dev = _worst(dev, 1.0)
    return CheckResult("lorentz_classes", per_class * 4, dev, tol, dev <= tol)


def check_lorentz_route_agreement(rng, trials: int, tol: float) -> CheckResult:
    """Both algebras induce the same Lorentz matrix for every class."""
    per_class = max(1, trials // 4)
    dev = 0.0
    for cls in _CLASS_SIGNS:
        for _ in range(per_class):
            boost = tuple(rng.uniform(-1.0, 1.0, 3))
            rotation = tuple(rng.uniform(-1.0, 1.0, 3))
            params = Lorentz(boost=boost, rotation=rotation, lorentz_class=cls)
            L13 = induced_matrix(params)
            L3 = induced_matrix3(params)
            dev = _worst(dev, float(np.max(np.abs(L13 - L3))))
    return CheckResult("lorentz_route_agreement", per_class * 4, dev, tol, dev <= tol)


def check_null_field_preservation(rng, trials: int, tol: float) -> CheckResult:
    """Plane-wave samples keep both invariants at zero through either map.

    The transformation vector stays in [-0.5, 0.5] so the exact zero is
    compared against a quantity of order one.
    """
    dev = 0.0
    for _ in range(trials):
        x, a = sample_pair(rng, a_scale=0.25)
        k = rng.normal(size=3)
        k /= np.linalg.norm(k)
        e = np.cross(k, rng.normal(size=3))
        while np.linalg.norm(e) < 1e-6:
            e = np.cross(k, rng.normal(size=3))
        e *= rng.uniform(0.5, 1.5) / np.linalg.norm(e)
        wave = PlaneWave(E0=tuple(e), khat=tuple(k), phase=float(rng.uniform(0, 2 * math.pi)))
        F = wave.faraday(_fv(x))
        for Ft in (
            transform3(Inversion(1), FARADAY, F, _pv(x)),
            transform3(Sct(_fv(a)), FARADAY, F, _pv(x)),
        ):
            i1, i2 = invariants(Ft)
            dev = _worst(dev, abs(i1), abs(i2))
    return CheckResult("null_field_preservation", trials, dev, tol, dev <= tol)


def check_bridge_correspondence(rng, trials: int, tol: float) -> CheckResult:
    """Even products and Faraday sandwiches map onto the paravector algebra."""
    dev = 0.0
    for _ in range(trials):
        x = _fv(rng.uniform(-2.0, 2.0, 4))
        y = _fv(rng.uniform(-2.0, 2.0, 4))
        F = Faraday13(rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0, 3))
        dev = _worst(dev, product_correspondence_check(x, y))
        dev = _worst(dev, sandwich_correspondence_check(x, F, y))
    return CheckResult("bridge_correspondence", trials, dev, tol, dev <= tol)


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
        try:
            results.append(fn(rng, n, nominal_tol * scale))
        except Exception:
            results.append(
                CheckResult(check_id, n, float("inf"), nominal_tol * scale, False)
            )
    return VerifyReport(seed, trials, tol, tuple(results))
