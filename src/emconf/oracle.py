"""Tensorial reference implementation on plain numpy arrays.

Everything here works with bare ndarrays: events and four-vectors as shape
(4,) contravariant components, the field strength as an antisymmetric 4x4
matrix, fields as real 3-vectors.  No Clifford machinery is imported; this
module is the independent cross-check for the algebraic formulas elsewhere.

Internals run in numpy's longdouble so that reference values are accurate to
well below the float64 noise of the implementations under test; public
functions hand back float64 (Jacobians stay in extended precision because
they feed further oracle arithmetic).
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .errors import (
    DegenerateTimeDerivativeError,
    LightConeError,
    SctConeError,
)

ETA = np.diag([1.0, -1.0, -1.0, -1.0])

LIGHTCONE_TOL = 1e-9

_DIAG = np.array([1.0, -1.0, -1.0, -1.0])


def _ld(v) -> np.ndarray:
    return np.asarray(v, dtype=np.longdouble)


def _perm_sign(p) -> int:
    sign = 1
    q = list(p)
    for i in range(4):
        for j in range(i + 1, 4):
            if q[i] > q[j]:
                q[i], q[j] = q[j], q[i]
                sign = -sign
    return sign


def _build_levi_civita() -> np.ndarray:
    eps = np.zeros((4, 4, 4, 4))
    for p in permutations(range(4)):
        eps[p] = _perm_sign(p)
    return eps


# Contravariant symbol, eps[0,1,2,3] = +1.
LEVI_CIVITA = _build_levi_civita()


def lower(x: np.ndarray) -> np.ndarray:
    return _DIAG * x


def _mdot(x, y):
    return (x * _DIAG * y).sum()


def mdot(x: np.ndarray, y: np.ndarray) -> float:
    return float(_mdot(x, y))


def msq(x: np.ndarray) -> float:
    return float(_mdot(x, x))


def pack_faraday(E, B) -> np.ndarray:
    """Contravariant field-strength matrix from field 3-vectors."""
    E = np.asarray(E, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    return np.array(
        [
            [0.0, -E[0], -E[1], -E[2]],
            [E[0], 0.0, -B[2], B[1]],
            [E[1], B[2], 0.0, -B[0]],
            [E[2], -B[1], B[0], 0.0],
        ]
    )


def unpack_faraday(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    E = np.array([F[1, 0], F[2, 0], F[3, 0]], dtype=np.float64)
    B = np.array([F[3, 2], F[1, 3], F[2, 1]], dtype=np.float64)
    return E, B


# -- point maps ---------------------------------------------------------------


def invert_event(x: np.ndarray, eps: int, tol: float = LIGHTCONE_TOL) -> np.ndarray:
    x = _ld(x)
    x2 = _mdot(x, x)
    if not abs(x2) > tol:
        raise LightConeError(f"event too close to the light cone: x^2 = {x2:.3e}")
    return np.asarray(eps * x / x2, dtype=np.float64)


def sct_scale(x: np.ndarray, a: np.ndarray) -> float:
    x, a = _ld(x), _ld(a)
    return float(1.0 + 2.0 * _mdot(a, x) + _mdot(a, a) * _mdot(x, x))


def sct_event(x: np.ndarray, a: np.ndarray, tol: float = LIGHTCONE_TOL) -> np.ndarray:
    x, a = _ld(x), _ld(a)
    s = 1.0 + 2.0 * _mdot(a, x) + _mdot(a, a) * _mdot(x, x)
    if not abs(s) > tol:
        raise SctConeError(f"event too close to the excluded cone: scale = {s:.3e}")
    return np.asarray((x + _mdot(x, x) * a) / s, dtype=np.float64)


# -- Jacobians ----------------------------------------------------------------


def jacobian_inversion(
    x: np.ndarray, eps: int, tol: float = LIGHTCONE_TOL
) -> np.ndarray:
    """d(image)/dx as M[mu, alpha], row index contravariant."""
    x = _ld(x)
    x2 = _mdot(x, x)
    if not abs(x2) > tol:
        raise LightConeError(f"Jacobian undefined on the light cone: x^2 = {x2:.3e}")
    return eps * (x2 * np.eye(4) - 2.0 * np.outer(x, lower(x))) / x2**2


def jacobian_sct(x: np.ndarray, a: np.ndarray, tol: float = LIGHTCONE_TOL) -> np.ndarray:
    x, a = _ld(x), _ld(a)
    s = 1.0 + 2.0 * _mdot(a, x) + _mdot(a, a) * _mdot(x, x)
    if not abs(s) > tol:
        raise SctConeError(f"Jacobian undefined on the excluded cone: scale = {s:.3e}")
    numerator = np.eye(4) + 2.0 * np.outer(a, lower(x))
    ds = 2.0 * lower(a) + 2.0 * _mdot(a, a) * lower(x)
    return numerator / s - np.outer(x + _mdot(x, x) * a, ds) / s**2


def fd_jacobian(point_map, x: np.ndarray, step: float | None = None) -> np.ndarray:
    """Central-difference Jacobian of an event map."""
    x = np.asarray(x, dtype=np.float64)
    if step is None:
        step = 1e-5 * (1.0 + float(np.max(np.abs(x))))
    out = np.zeros((4, 4))
    for alpha in range(4):
        dx = np.zeros(4)
        dx[alpha] = step
        out[:, alpha] = (point_map(x + dx) - point_map(x - dx)) / (2.0 * step)
    return out


def conformal_factor(M: np.ndarray) -> float:
    """Scale factor |det M|^(-1/4) of an eta-conformal matrix.

    Goes through the LU determinant on purpose: the analytic scale factors
    elsewhere are checked against this definition, so it must not reuse them.
    """
    det = np.linalg.det(np.asarray(M, dtype=np.float64))
    return float(abs(det) ** -0.25)


def conformality_residual(M: np.ndarray, lam: float | None = None) -> float:
    """Max-abs deviation of Lambda^2 M^T eta M from eta."""
    if lam is None:
        lam = conformal_factor(M)
    M = _ld(M)
    return float(np.max(np.abs(_ld(lam) ** 2 * M.T @ _ld(ETA) @ M - _ld(ETA))))


def time_orientation(M: np.ndarray) -> int:
    """Sign of dt'/dt; raises if the entry vanishes."""
    entry = float(M[0, 0])
    if entry == 0.0:
        raise DegenerateTimeDerivativeError("dt'/dt vanishes at this event")
    return 1 if entry > 0.0 else -1


def conformal_inverse(M: np.ndarray, lam: float | None = None) -> np.ndarray:
    """Inverse of an eta-conformal matrix via Lambda^2 eta M^T eta."""
    if lam is None:
        lam = conformal_factor(M)
    M = _ld(M)
    return _ld(lam) ** 2 * (_ld(ETA) @ M.T @ _ld(ETA))


# -- generic transformation laws ----------------------------------------------


def transform_potential(
    M: np.ndarray, A: np.ndarray, lam: float | None = None, theta: int | None = None
) -> np.ndarray:
    if theta is None:
        theta = time_orientation(M)
    if lam is None:
        lam = conformal_factor(M)
    return np.asarray(theta * _ld(lam) ** 2 * (_ld(M) @ _ld(A)), dtype=np.float64)


def transform_current(
    M: np.ndarray, J: np.ndarray, lam: float | None = None, theta: int | None = None
) -> np.ndarray:
    if theta is None:
        theta = time_orientation(M)
    if lam is None:
        lam = conformal_factor(M)
    return np.asarray(theta * _ld(lam) ** 4 * (_ld(M) @ _ld(J)), dtype=np.float64)


def transform_faraday(
    M: np.ndarray, F: np.ndarray, lam: float | None = None, theta: int | None = None
) -> np.ndarray:
    if theta is None:
        theta = time_orientation(M)
    if lam is None:
        lam = conformal_factor(M)
    M = _ld(M)
    return np.asarray(theta * _ld(lam) ** 4 * (M @ _ld(F) @ M.T), dtype=np.float64)


def transform_potential_covariant(
    M: np.ndarray, A_cov: np.ndarray, lam: float | None = None, theta: int | None = None
) -> np.ndarray:
    """Covariant law: contraction against the inverse Jacobian, no scale factor."""
    if theta is None:
        theta = time_orientation(M)
    Minv = conformal_inverse(M, lam)
    return np.asarray(theta * Minv.T @ _ld(A_cov), dtype=np.float64)


# -- closed-form component expansions -----------------------------------------


def inversion_faraday_tensor(F: np.ndarray, x: np.ndarray, eps: int) -> np.ndarray:
    """Polynomial form of the inverted field-strength matrix."""
    F, x = _ld(F), _ld(x)
    x2 = _mdot(x, x)
    w = F @ lower(x)
    out = -eps * (x2**2 * F + 2.0 * x2 * (np.outer(x, w) - np.outer(w, x)))
    return np.asarray(out, dtype=np.float64)


def sct_faraday_tensor(F: np.ndarray, x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Four-term polynomial form of the special-conformal field strength."""
    F, x, a = _ld(F), _ld(x), _ld(a)
    sig = 1.0 + 2.0 * _mdot(a, x) + _mdot(a, a) * _mdot(x, x)
    xd = lower(x)
    ad = lower(a)
    g = xd + 2.0 * _mdot(a, x) * xd - _mdot(x, x) * ad
    h = _mdot(a, a) * xd + ad
    Fg = F @ g
    Fh = F @ h
    s = ad @ F @ xd
    out = (
        sig**2 * F
        - 2.0 * sig * (np.outer(a, Fg) - np.outer(Fg, a))
        + 2.0 * sig * (np.outer(x, Fh) - np.outer(Fh, x))
        + 4.0 * sig * (np.outer(a, x) - np.outer(x, a)) * s
    )
    return np.asarray(out, dtype=np.float64)


def inversion_field_forms(
    E, B, x: np.ndarray, eps: int
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Both closed forms of the inverted fields: dot-product and double-cross.

    The two differ only through the identity r x (r x E) = (r.E) r - r^2 E,
    so their mutual deviation is a sharp consistency probe.
    """
    E, B, x = _ld(E), _ld(B), _ld(x)
    t = x[0]
    r = x[1:]
    r2 = r @ r
    w = t * t - r2
    s = t * t + r2
    Ep = eps * w * (s * E - 2.0 * (r @ E) * r + 2.0 * t * np.cross(r, B))
    Bp = eps * w * (-s * B + 2.0 * (r @ B) * r + 2.0 * t * np.cross(r, E))
    Ec = eps * w * (w * E - 2.0 * np.cross(r, np.cross(r, E)) + 2.0 * t * np.cross(r, B))
    Bc = eps * w * (-w * B + 2.0 * np.cross(r, np.cross(r, B)) + 2.0 * t * np.cross(r, E))
    f64 = lambda v: np.asarray(v, dtype=np.float64)
    return (f64(Ep), f64(Bp)), (f64(Ec), f64(Bc))


def inversion_field_components(
    E, B, x: np.ndarray, eps: int, crosscheck_tol: float = 1e-12
) -> tuple[np.ndarray, np.ndarray]:
    """Inverted (E, B) in original coordinates, dot-product form.

    The equivalent double-cross-product form is evaluated alongside; the two
    must agree within crosscheck_tol relative to max(1, result scale).
    """
    (Ep, Bp), (Ec, Bc) = inversion_field_forms(E, B, x, eps)
    dev = max(float(np.max(np.abs(Ep - Ec))), float(np.max(np.abs(Bp - Bc))))
    scale = max(1.0, float(np.max(np.abs(Ep))), float(np.max(np.abs(Bp))))
    if dev > crosscheck_tol * scale:
        raise ArithmeticError(f"inversion component forms disagree by {dev:.3e}")
    return Ep, Bp


def _sct_field_sum(E, B, u, p, q, sig):
    """Three-part assembly shared by the two coordinate presentations."""
    cE = p @ E + q @ B
    cB = p @ B - q @ E
    common = u * u + p @ p - q @ q
    Epp = sig * (
        common * E
        - 2.0 * (cE * p + cB * q)
        + 2.0 * u * (np.cross(q, E) - np.cross(p, B))
    )
    Bpp = sig * (
        common * B
        - 2.0 * (cB * p - cE * q)
        + 2.0 * u * (np.cross(q, B) + np.cross(p, E))
    )
    return np.asarray(Epp, dtype=np.float64), np.asarray(Bpp, dtype=np.float64)


def sct_field_components(
    E, B, x: np.ndarray, a: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Transformed (E, B) under the special conformal map, original coordinates."""
    E, B, x, a = _ld(E), _ld(B), _ld(x), _ld(a)
    sig = 1.0 + 2.0 * _mdot(a, x) + _mdot(a, a) * _mdot(x, x)
    t, r = x[0], x[1:]
    a0, av = a[0], a[1:]
    u = 1.0 + a0 * t - av @ r
    p = t * av - a0 * r
    q = np.cross(av, r)
    return _sct_field_sum(E, B, u, p, q, sig)


def sct_field_components_newcoords(
    E, B, x_new: np.ndarray, a: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Same expansion written in transformed coordinates.

    Takes the image event and the field sampled at the preimage.  Every
    explicit coordinate becomes the new one, the overall scale becomes its
    cube, and the coordinate-dependent part of the scalar u flips sign.
    """
    E, B, xn, a = _ld(E), _ld(B), _ld(x_new), _ld(a)
    denom = 1.0 - 2.0 * _mdot(a, xn) + _mdot(a, a) * _mdot(xn, xn)
    sig = 1.0 / denom
    t, r = xn[0], xn[1:]
    a0, av = a[0], a[1:]
    u = 1.0 - a0 * t + av @ r
    p = t * av - a0 * r
    q = np.cross(av, r)
    return _sct_field_sum(E, B, u, p, q, sig**3)


def inversion_potential_components(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Inverted potential as a polynomial in the original coordinates."""
    A, x = _ld(A), _ld(x)
    out = -_mdot(x, x) * A + 2.0 * _mdot(x, A) * x
    return np.asarray(out, dtype=np.float64)


def sct_potential_components(
    A: np.ndarray, x: np.ndarray, a: np.ndarray
) -> np.ndarray:
    """Transformed potential as a polynomial in the original coordinates."""
    A, x, a = _ld(A), _ld(x), _ld(a)
    sig = 1.0 + 2.0 * _mdot(a, x) + _mdot(a, a) * _mdot(x, x)
    out = (
        sig * A
        - 2.0 * (_mdot(a, A) + _mdot(a, a) * _mdot(x, A)) * x
        + 2.0
        * (_mdot(x, A) - _mdot(x, x) * _mdot(a, A) + 2.0 * _mdot(a, x) * _mdot(x, A))
        * a
    )
    return np.asarray(out, dtype=np.float64)


# -- invariants ---------------------------------------------------------------


def invariants_from_tensor(F: np.ndarray) -> tuple[float, float]:
    """Quadratic and pseudoscalar invariants from the field-strength matrix."""
    F = _ld(F)
    F_cov = _ld(ETA) @ F @ _ld(ETA)
    i1 = -0.5 * float(np.einsum("mn,mn->", F, F_cov))
    i2 = -0.25 * float(np.einsum("mnrs,mn,rs->", _ld(LEVI_CIVITA), F_cov, F_cov))
    return i1, i2


def invariants_transformed(
    F: np.ndarray,
    M: np.ndarray,
    lam: float | None = None,
    theta: int | None = None,
    det: float | None = None,
) -> tuple[float, float]:
    """Transformed invariants through the explicit tensorial path.

    The pseudoscalar invariant uses the transformed permutation symbol,
    contracted index by index rather than simplified away, so this exercises
    the full chain including the inverse-Jacobian determinant.  An analytic
    determinant may be supplied; the default is the LU value.
    """
    Fp = _ld(transform_faraday(M, F, lam, theta))
    Fp_cov = _ld(ETA) @ Fp @ _ld(ETA)
    i1p = -0.5 * float(np.einsum("mn,mn->", Fp, Fp_cov))
    if det is None:
        det = float(np.linalg.det(np.asarray(M, dtype=np.float64)))
    M = _ld(M)
    eps_p = (1.0 / _ld(det)) * np.einsum(
        "ma,nb,rg,sd,abgd->mnrs", M, M, M, M, _ld(LEVI_CIVITA)
    )
    i2p = -0.25 * float(np.einsum("mnrs,mn,rs->", eps_p, Fp_cov, Fp_cov))
    return i1p, i2p


def inversion_inverse_jacobian_det(x: np.ndarray, eps: int) -> float:
    """det[d(original)/d(image)] for the inversion at x."""
    M = np.asarray(jacobian_inversion(x, eps), dtype=np.float64)
    return 1.0 / float(np.linalg.det(M))
