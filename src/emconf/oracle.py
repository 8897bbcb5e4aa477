"""Tensorial reference implementation on plain numpy arrays.

Everything here works with bare ndarrays: events and four-vectors as shape
(4,) contravariant components, the field strength as an antisymmetric 4x4
matrix, fields as real 3-vectors.  No Clifford machinery is imported; this
module is the independent cross-check for the algebraic formulas elsewhere.

Every function also takes a leading batch axis, events of shape (..., 4),
fields (..., 3) and matrices (..., 4, 4), and acts row by row; a guard
raises on the first refused row.  The inversion sign eps is +1 or -1, or
an array of one such sign per row.  Sums over an index are written out in
index order rather than left to np.cross, np.outer or @, so a row's result
is the same in a batch as on its own, and one event still returns a float
where it returns a number.

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
from .maps import LIGHTCONE_TOL

ETA = np.diag([1.0, -1.0, -1.0, -1.0])

_DIAG = np.array([1.0, -1.0, -1.0, -1.0])
_EYE = np.eye(4)
_ETA_LD = ETA.astype(np.longdouble)


def _ld(v) -> np.ndarray:
    return np.asarray(v, dtype=np.longdouble)


def _f64(v):
    """float64 result: a Python float for one event, an array otherwise."""
    v = np.asarray(v, dtype=np.float64)
    return float(v) if v.ndim == 0 else v


def _col(v) -> np.ndarray:
    """One number per row, broadcast against a vector per row."""
    return np.asarray(v)[..., None]


def _mat(v) -> np.ndarray:
    """One number per row, broadcast against a matrix per row."""
    return np.asarray(v)[..., None, None]


# Explicit sums in index order over the batch: the same operations, in the
# same order, as numpy's non-BLAS longdouble matmul on one event, and the
# same for every row of a batch.


def _dot(u, w):
    """u . w over the last axis (Euclidean)."""
    out = u[..., 0] * w[..., 0]
    for i in range(1, u.shape[-1]):
        out = out + u[..., i] * w[..., i]
    return out


def _mv(M, v):
    """Matrix times vector, M[..., i, j] v[..., j]."""
    out = M[..., :, 0] * v[..., None, 0]
    for j in range(1, 4):
        out = out + M[..., :, j] * v[..., None, j]
    return out


def _mm(A, B):
    """Matrix product, A[..., i, k] B[..., k, j]."""
    out = A[..., :, 0, None] * B[..., None, 0, :]
    for k in range(1, 4):
        out = out + A[..., :, k, None] * B[..., None, k, :]
    return out


def _t(M):
    return np.swapaxes(M, -1, -2)


def _outer(u, w):
    return u[..., :, None] * w[..., None, :]


def _cross(u, w):
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    w0, w1, w2 = w[..., 0], w[..., 1], w[..., 2]
    return np.stack([u1 * w2 - u2 * w1, u2 * w0 - u0 * w2, u0 * w1 - u1 * w0], axis=-1)


def _guard(value, error, what: str) -> None:
    """Raise error naming the first row whose |value| is not above
    LIGHTCONE_TOL."""
    refused = ~(np.abs(value) > LIGHTCONE_TOL)
    if refused.any():
        first = np.broadcast_to(value, refused.shape)[refused].flat[0]
        raise error(f"{what} = {first:.3e}")


def _perm_sign(p) -> int:
    sign = 1
    q = list(p)
    for i in range(4):
        for j in range(i + 1, 4):
            if q[i] > q[j]:
                q[i], q[j] = q[j], q[i]
                sign = -sign
    return sign


# The 24 index tuples where the permutation symbol is nonzero, and its signs.
_PERMS = tuple(permutations(range(4)))
_PERM_SIGNS = np.array([_perm_sign(p) for p in _PERMS], dtype=np.float64)


def _build_levi_civita() -> np.ndarray:
    eps = np.zeros((4, 4, 4, 4))
    for p, sign in zip(_PERMS, _PERM_SIGNS):
        eps[p] = sign
    return eps


# Contravariant symbol, eps[0,1,2,3] = +1.
LEVI_CIVITA = _build_levi_civita()


def lower(x: np.ndarray) -> np.ndarray:
    return _DIAG * x


def _mdot(x, y):
    return (x * _DIAG * y).sum(axis=-1)


def mdot(x: np.ndarray, y: np.ndarray):
    return _f64(_mdot(x, y))


def msq(x: np.ndarray):
    return _f64(_mdot(x, x))


def pack_faraday(E, B) -> np.ndarray:
    """Contravariant field-strength matrix from field 3-vectors."""
    E = np.asarray(E, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    E, B = np.broadcast_arrays(E, B)
    F = np.zeros(E.shape[:-1] + (4, 4))
    F[..., 0, 1:] = -E
    F[..., 1:, 0] = E
    F[..., 1, 2], F[..., 1, 3] = -B[..., 2], B[..., 1]
    F[..., 2, 1], F[..., 2, 3] = B[..., 2], -B[..., 0]
    F[..., 3, 1], F[..., 3, 2] = -B[..., 1], B[..., 0]
    return F


def unpack_faraday(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    E = np.asarray(F[..., [1, 2, 3], 0], dtype=np.float64)
    B = np.asarray(F[..., [3, 1, 2], [2, 3, 1]], dtype=np.float64)
    return E, B


# -- point maps ---------------------------------------------------------------


def invert_event(x: np.ndarray, eps) -> np.ndarray:
    x = _ld(x)
    x2 = _mdot(x, x)
    _guard(x2, LightConeError, "event too close to the light cone: x^2")
    return np.asarray(_col(eps) * x / _col(x2), dtype=np.float64)


def _sct_sigma(x, a):
    return 1.0 + 2.0 * _mdot(a, x) + _mdot(a, a) * _mdot(x, x)


def sct_scale(x: np.ndarray, a: np.ndarray):
    return _f64(_sct_sigma(_ld(x), _ld(a)))


def sct_event(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    x, a = _ld(x), _ld(a)
    s = _sct_sigma(x, a)
    _guard(s, SctConeError, "event too close to the excluded cone: scale")
    return np.asarray((x + _col(_mdot(x, x)) * a) / _col(s), dtype=np.float64)


# -- Jacobians ----------------------------------------------------------------


def jacobian_inversion(x: np.ndarray, eps) -> np.ndarray:
    """d(image)/dx as M[..., mu, alpha], row index contravariant."""
    x = _ld(x)
    x2 = _mdot(x, x)
    _guard(x2, LightConeError, "Jacobian undefined on the light cone: x^2")
    x2 = _mat(x2)
    return _mat(eps) * (x2 * _EYE - 2.0 * _outer(x, lower(x))) / x2**2


def jacobian_sct(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    x, a = _ld(x), _ld(a)
    s = _sct_sigma(x, a)
    _guard(s, SctConeError, "Jacobian undefined on the excluded cone: scale")
    s = _mat(s)
    numerator = _EYE + 2.0 * _outer(a, lower(x))
    ds = 2.0 * lower(a) + 2.0 * _col(_mdot(a, a)) * lower(x)
    return numerator / s - _outer(x + _col(_mdot(x, x)) * a, ds) / s**2


def fd_jacobian(point_map, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of an event map, per row of x.

    point_map is called once, on the stencil points x +- h e_alpha stacked
    on a leading axis: events of shape (8,) + x.shape, each mapped on its
    own.  The step h is 1e-5 (1 + max |x|) per row.
    """
    x = np.asarray(x, dtype=np.float64)
    step = 1e-5 * (1.0 + np.abs(x).max(axis=-1))
    dx = np.zeros((4,) + x.shape)
    for alpha in range(4):
        dx[alpha, ..., alpha] = step
    images = point_map(np.concatenate([x + dx, x - dx]))
    # Differences indexed [alpha, ..., i]; column alpha moves to the end.
    return np.moveaxis(images[:4] - images[4:], 0, -1) / _mat(2.0 * step)


def conformal_factor(M: np.ndarray):
    """Scale factor |det M|^(-1/4) of an eta-conformal matrix.

    Goes through the LU determinant on purpose: the analytic scale factors
    elsewhere are checked against this definition, so it must not reuse them.
    """
    det = np.linalg.det(np.asarray(M, dtype=np.float64))
    return _f64(np.power(np.abs(det), -0.25))


def conformality_residual(M: np.ndarray, lam=None):
    """Max-abs deviation of Lambda^2 M^T eta M from eta."""
    if lam is None:
        lam = conformal_factor(M)
    M = _ld(M)
    dev = _mm(_mm(_mat(_ld(lam) ** 2) * _t(M), _ETA_LD), M) - _ETA_LD
    return _f64(np.abs(dev).max(axis=(-2, -1)))


def time_orientation(M: np.ndarray):
    """Sign of dt'/dt, an int per matrix; raises if the entry vanishes."""
    entry = np.asarray(M[..., 0, 0], dtype=np.float64)
    if (entry == 0.0).any():
        raise DegenerateTimeDerivativeError("dt'/dt vanishes at this event")
    sign = np.where(entry > 0.0, 1, -1)
    return int(sign) if sign.ndim == 0 else sign


def conformal_inverse(M: np.ndarray, lam=None) -> np.ndarray:
    """Inverse of an eta-conformal matrix via Lambda^2 eta M^T eta."""
    if lam is None:
        lam = conformal_factor(M)
    M = _ld(M)
    return _mat(_ld(lam) ** 2) * _mm(_mm(_ETA_LD, _t(M)), _ETA_LD)


# -- generic transformation laws ----------------------------------------------


def _weights(M, lam, theta, power: int):
    """theta lam^power per matrix, with the defaults read off M."""
    if theta is None:
        theta = time_orientation(M)
    if lam is None:
        lam = conformal_factor(M)
    return theta * _ld(lam) ** power


def transform_potential(M: np.ndarray, A: np.ndarray, lam=None, theta=None) -> np.ndarray:
    w = _weights(M, lam, theta, 2)
    return np.asarray(_col(w) * _mv(_ld(M), _ld(A)), dtype=np.float64)


def transform_current(M: np.ndarray, J: np.ndarray, lam=None, theta=None) -> np.ndarray:
    w = _weights(M, lam, theta, 4)
    return np.asarray(_col(w) * _mv(_ld(M), _ld(J)), dtype=np.float64)


def transform_faraday(M: np.ndarray, F: np.ndarray, lam=None, theta=None) -> np.ndarray:
    w = _weights(M, lam, theta, 4)
    M = _ld(M)
    return np.asarray(_mat(w) * _mm(_mm(M, _ld(F)), _t(M)), dtype=np.float64)


def transform_potential_covariant(
    M: np.ndarray, A_cov: np.ndarray, lam=None, theta=None
) -> np.ndarray:
    """Covariant law: contraction against the inverse Jacobian, no scale factor."""
    if theta is None:
        theta = time_orientation(M)
    Minv = conformal_inverse(M, lam)
    return np.asarray(_mv(_mat(theta) * _t(Minv), _ld(A_cov)), dtype=np.float64)


# -- closed-form component expansions -----------------------------------------


def inversion_faraday_tensor(F: np.ndarray, x: np.ndarray, eps) -> np.ndarray:
    """Polynomial form of the inverted field-strength matrix."""
    F, x = _ld(F), _ld(x)
    x2 = _mdot(x, x)
    w = _mv(F, lower(x))
    out = -_mat(eps) * (
        _mat(x2**2) * F + _mat(2.0 * x2) * (_outer(x, w) - _outer(w, x))
    )
    return np.asarray(out, dtype=np.float64)


def sct_faraday_tensor(F: np.ndarray, x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Four-term polynomial form of the special-conformal field strength."""
    F, x, a = _ld(F), _ld(x), _ld(a)
    sig = _sct_sigma(x, a)
    xd = lower(x)
    ad = lower(a)
    g = xd + _col(2.0 * _mdot(a, x)) * xd - _col(_mdot(x, x)) * ad
    h = _col(_mdot(a, a)) * xd + ad
    Fg = _mv(F, g)
    Fh = _mv(F, h)
    s = _dot(_mv(_t(F), ad), xd)
    out = (
        _mat(sig**2) * F
        - _mat(2.0 * sig) * (_outer(a, Fg) - _outer(Fg, a))
        + _mat(2.0 * sig) * (_outer(x, Fh) - _outer(Fh, x))
        + _mat(4.0 * sig) * (_outer(a, x) - _outer(x, a)) * _mat(s)
    )
    return np.asarray(out, dtype=np.float64)


def inversion_field_forms(
    E, B, x: np.ndarray, eps
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Both closed forms of the inverted fields: dot-product and double-cross.

    The two differ only through the identity r x (r x E) = (r.E) r - r^2 E,
    so their mutual deviation is a sharp consistency probe.
    """
    E, B, x = _ld(E), _ld(B), _ld(x)
    t = x[..., 0]
    r = x[..., 1:]
    r2 = _dot(r, r)
    w = _col(np.asarray(eps) * (t * t - r2))
    s = _col(t * t + r2)
    t2 = _col(2.0 * t)
    Ep = w * (s * E - _col(2.0 * _dot(r, E)) * r + t2 * _cross(r, B))
    Bp = w * (-s * B + _col(2.0 * _dot(r, B)) * r + t2 * _cross(r, E))
    wc = _col(t * t - r2)
    Ec = w * (wc * E - 2.0 * _cross(r, _cross(r, E)) + t2 * _cross(r, B))
    Bc = w * (-wc * B + 2.0 * _cross(r, _cross(r, B)) + t2 * _cross(r, E))
    f64 = lambda v: np.asarray(v, dtype=np.float64)
    return (f64(Ep), f64(Bp)), (f64(Ec), f64(Bc))


def _sct_field_sum(E, B, u, p, q, sig):
    """Three-part assembly shared by the two coordinate presentations."""
    cE = _col(_dot(p, E) + _dot(q, B))
    cB = _col(_dot(p, B) - _dot(q, E))
    common = _col(u * u + _dot(p, p) - _dot(q, q))
    sig, u2 = _col(sig), _col(2.0 * u)
    Epp = sig * (
        common * E
        - 2.0 * (cE * p + cB * q)
        + u2 * (_cross(q, E) - _cross(p, B))
    )
    Bpp = sig * (
        common * B
        - 2.0 * (cB * p - cE * q)
        + u2 * (_cross(q, B) + _cross(p, E))
    )
    return np.asarray(Epp, dtype=np.float64), np.asarray(Bpp, dtype=np.float64)


def sct_field_components(
    E, B, x: np.ndarray, a: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Transformed (E, B) under the special conformal map, original coordinates."""
    E, B, x, a = _ld(E), _ld(B), _ld(x), _ld(a)
    sig = _sct_sigma(x, a)
    t, r = x[..., 0], x[..., 1:]
    a0, av = a[..., 0], a[..., 1:]
    u = 1.0 + a0 * t - _dot(av, r)
    p = _col(t) * av - _col(a0) * r
    q = _cross(av, r)
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
    sig = 1.0 / _sct_sigma(xn, -a)
    t, r = xn[..., 0], xn[..., 1:]
    a0, av = a[..., 0], a[..., 1:]
    u = 1.0 - a0 * t + _dot(av, r)
    p = _col(t) * av - _col(a0) * r
    q = _cross(av, r)
    return _sct_field_sum(E, B, u, p, q, sig**3)


def inversion_potential_components(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Inverted potential as a polynomial in the original coordinates."""
    A, x = _ld(A), _ld(x)
    out = _col(-_mdot(x, x)) * A + _col(2.0 * _mdot(x, A)) * x
    return np.asarray(out, dtype=np.float64)


def sct_potential_components(
    A: np.ndarray, x: np.ndarray, a: np.ndarray
) -> np.ndarray:
    """Transformed potential as a polynomial in the original coordinates."""
    A, x, a = _ld(A), _ld(x), _ld(a)
    sig = _sct_sigma(x, a)
    aA, aa, xA, xx = _mdot(a, A), _mdot(a, a), _mdot(x, A), _mdot(x, x)
    out = (
        _col(sig) * A
        - _col(2.0 * (aA + aa * xA)) * x
        + _col(2.0 * (xA - xx * aA + 2.0 * _mdot(a, x) * xA)) * a
    )
    return np.asarray(out, dtype=np.float64)


# -- invariants ---------------------------------------------------------------


def _lower_both(F):
    return _mm(_mm(_ETA_LD, F), _ETA_LD)


def _quadratic(F, F_cov):
    """F^{mn} F_{mn} per matrix."""
    return (F * F_cov).sum(axis=(-2, -1))


def _pseudoscalar(eps, F_cov):
    """eps^{mnrs} F_{mn} F_{rs} per matrix, for a symbol of shape (..., 4, 4, 4, 4)."""
    terms = eps * F_cov[..., :, :, None, None] * F_cov[..., None, None, :, :]
    return terms.sum(axis=(-4, -3, -2, -1))


def invariants_from_tensor(F: np.ndarray):
    """Quadratic and pseudoscalar invariants from the field-strength matrix."""
    F = _ld(F)
    F_cov = _lower_both(F)
    i1 = -0.5 * _f64(_quadratic(F, F_cov))
    i2 = -0.25 * _f64(_pseudoscalar(_ld(LEVI_CIVITA), F_cov))
    return i1, i2


def invariants_transformed(
    F: np.ndarray,
    M: np.ndarray,
    lam=None,
    theta=None,
    det=None,
):
    """Transformed invariants through the explicit tensorial path.

    The pseudoscalar invariant uses the transformed permutation symbol
    (1/det) M^m_a M^n_b M^r_g M^s_d eps^{abgd}, contracted index by index
    over the symbol's 24 nonzero entries rather than simplified away, so
    this exercises the full chain including the inverse-Jacobian
    determinant.  An analytic determinant may be supplied; the default is
    the LU value.
    """
    Fp = _ld(transform_faraday(M, F, lam, theta))
    Fp_cov = _lower_both(Fp)
    i1p = -0.5 * _f64(_quadratic(Fp, Fp_cov))
    if det is None:
        det = np.linalg.det(np.asarray(M, dtype=np.float64))
    M = _ld(M)
    eps_p = 0.0
    for (a, b, g, d), sign in zip(_PERMS, _PERM_SIGNS):
        eps_p = eps_p + sign * (
            M[..., :, a, None, None, None]
            * M[..., None, :, b, None, None]
            * M[..., None, None, :, g, None]
            * M[..., None, None, None, :, d]
        )
    eps_p = np.asarray(1.0 / _ld(det))[..., None, None, None, None] * eps_p
    i2p = -0.25 * _f64(_pseudoscalar(eps_p, Fp_cov))
    return i1p, i2p


def inversion_inverse_jacobian_det(x: np.ndarray, eps):
    """det[d(original)/d(image)] for the inversion at x."""
    M = np.asarray(jacobian_inversion(x, eps), dtype=np.float64)
    return _f64(1.0 / np.linalg.det(M))
