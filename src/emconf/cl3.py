"""Complexified Pauli algebra Cl(3): complex scalar plus complex 3-vector.

Elements are written s + v with s a complex scalar and v a complex 3-vector;
the product of two vectors splits as u v = u.v + i u x v with bilinear
(unconjugated) dot and cross.  Bar negates the vector part, star conjugates
every complex component.  Real paravectors t + r encode spacetime events.

Every element carries a leading batch shape: s has shape (...) and v shape
(..., 3), so one call acts on a whole batch of rows and a single element is
the batch of shape ().  The arithmetic is written component by component as
numpy ufunc calls in a fixed order, with no BLAS (`np.dot`, `@`) and no
complex product of two numpy scalars, which rounds differently from the
ufunc loop; so a row's bits do not depend on the batch it sits in.  To keep
that rule, `s` is always stored as an ndarray, of shape () for one element.

Each residue guard computes a per-row residue and refuses the rows where
`not residue <= bound`, so a NaN residue is refused rather than dropped.
The `*_rows` forms return the refusal mask with the value, and the caller
decides what a refused row means.
"""

from __future__ import annotations

import numpy as np

from .errors import NonRealEventError
from .maps import GRADE_TOL, RESIDUE_TOL


class Paravector3:
    """Element of Cl(3), or a batch of them: complex scalar parts s of shape
    (...) and complex vector parts v of shape (..., 3)."""

    __slots__ = ("s", "v")
    # An ndarray on the left of * defers to __rmul__ instead of building an
    # object array.
    __array_ufunc__ = None

    def __init__(self, s=0.0, v=None):
        s = np.array(s, dtype=np.complex128)
        if v is None:
            v = np.zeros(s.shape + (3,), dtype=np.complex128)
        else:
            v = np.array(v, dtype=np.complex128)
            if v.shape[-1:] != (3,):
                raise ValueError("vector part must have 3 components")
            if v.shape[:-1] != s.shape:
                shape = np.broadcast_shapes(s.shape, v.shape[:-1])
                s = np.broadcast_to(s, shape).copy()
                v = np.broadcast_to(v, shape + (3,)).copy()
        self.s = s
        self.v = v

    @classmethod
    def _wrap(cls, s, v: np.ndarray) -> "Paravector3":
        out = object.__new__(cls)
        out.s = np.asarray(s)  # a ufunc on 0-d arrays returns a numpy scalar
        out.v = v
        return out

    @classmethod
    def from_event(cls, events) -> "Paravector3":
        """Real events t + r from components (t, x, y, z) on the last axis,
        shape (..., 4); event() gives them back."""
        e = np.asarray(events, dtype=np.float64)
        if e.shape[-1:] != (4,):
            raise ValueError(f"an event needs 4 components, got shape {e.shape}")
        return cls._wrap(e[..., 0].astype(np.complex128), e[..., 1:].astype(np.complex128))

    def event(self) -> np.ndarray:
        """The real components (t, x, y, z) on the last axis, shape (..., 4)."""
        return np.concatenate([self.s.real[..., None], self.v.real], axis=-1)

    @classmethod
    def vector(cls, v) -> "Paravector3":
        v = np.array(v, dtype=np.complex128)
        return cls._wrap(np.zeros(v.shape[:-1], dtype=np.complex128), v)

    def bar(self) -> "Paravector3":
        """Clifford conjugate: negate the vector part."""
        return Paravector3._wrap(self.s, -self.v)

    def star(self) -> "Paravector3":
        """Complex conjugate every component."""
        return Paravector3._wrap(self.s.conjugate(), self.v.conjugate())

    def __add__(self, other: "Paravector3") -> "Paravector3":
        return Paravector3._wrap(self.s + other.s, self.v + other.v)

    def __sub__(self, other: "Paravector3") -> "Paravector3":
        return Paravector3._wrap(self.s - other.s, self.v - other.v)

    def __neg__(self) -> "Paravector3":
        return Paravector3._wrap(-self.s, -self.v)

    def __mul__(self, other):
        """Product with a paravector, or with one number per row."""
        if isinstance(other, Paravector3):
            return cl3_product(self, other)
        w = np.asarray(other)
        return Paravector3._wrap(self.s * w, self.v * w[..., None])

    __rmul__ = __mul__

    def max_abs(self):
        return np.maximum(np.abs(self.s), np.abs(self.v).max(axis=-1))

    def _event_parts(self):
        """t and r of real events, raising NonRealEventError if any event
        carries imaginary parts above GRADE_TOL."""
        # Events built from real coordinates have exact zeros here; only the
        # others, NaN included, need the relative guard.
        if self.s.imag.any() or self.v.imag.any():
            if _refused(self.imag_residue(), self, GRADE_TOL).any():
                raise NonRealEventError("event paravector must be real")
        return self.s.real, self.v.real

    def imag_residue(self):
        return np.maximum(np.abs(self.s.imag), np.abs(self.v.imag).max(axis=-1))

    def __repr__(self) -> str:
        return f"Paravector3({self.s!r}, {self.v!r})"


def cl3_product(a: Paravector3, b: Paravector3) -> Paravector3:
    """Row-by-row product: scalar a.s b.s + a.v.b.v, vector
    a.s b.v + b.s a.v + i a.v x b.v, each component spelled out."""
    av, bv = a.v, b.v
    a0, a1, a2 = av[..., 0], av[..., 1], av[..., 2]
    b0, b1, b2 = bv[..., 0], bv[..., 1], bv[..., 2]
    sa, sb = a.s, b.s
    s = sa * sb + (a0 * b0 + a1 * b1 + a2 * b2)
    v = np.empty(np.broadcast_shapes(av.shape, bv.shape), dtype=np.complex128)
    v[..., 0] = sa * b0 + sb * a0 + 1j * (a1 * b2 - a2 * b1)
    v[..., 1] = sa * b1 + sb * a1 + 1j * (a2 * b0 - a0 * b2)
    v[..., 2] = sa * b2 + sb * a2 + 1j * (a0 * b1 - a1 * b0)
    return Paravector3._wrap(s, v)


def dot3(u, w):
    """Bilinear (unconjugated) dot product over the last axis, summed in
    component order."""
    return u[..., 0] * w[..., 0] + u[..., 1] * w[..., 1] + u[..., 2] * w[..., 2]


def cross3(u, w):
    """Cross product over the last axis, with np.cross's multiplies and
    subtraction per component: u1 w2 - u2 w1, u2 w0 - u0 w2, u0 w1 - u1 w0."""
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    w0, w1, w2 = w[..., 0], w[..., 1], w[..., 2]
    return np.stack([u1 * w2 - u2 * w1, u2 * w0 - u0 * w2, u0 * w1 - u1 * w0], axis=-1)


def _refused(residue, p: Paravector3, tol: float):
    """Rows whose residue is NaN or above tol relative to the row's size."""
    return ~(residue <= tol * np.fmax(1.0, p.max_abs()))


def minkowski_square(x: Paravector3):
    """x bar(x) for real event paravectors, equal to t^2 - r^2 per row.

    Raises NonRealEventError if any event carries imaginary parts above
    GRADE_TOL.
    """
    t, r = x._event_parts()
    return t * t - dot3(r, r)


def real_rows(p: Paravector3) -> tuple[Paravector3, np.ndarray]:
    """Real part of p, and the rows whose imaginary residue is above
    RESIDUE_TOL relative to their size, as in grade projection."""
    refused = _refused(p.imag_residue(), p, RESIDUE_TOL)
    real = Paravector3._wrap(
        p.s.real.astype(np.complex128), p.v.real.astype(np.complex128)
    )
    return real, refused


def vector_rows(p: Paravector3) -> tuple[np.ndarray, np.ndarray]:
    """Vector part of p, and the rows whose scalar residue is above
    RESIDUE_TOL."""
    return p.v.copy(), _refused(np.abs(p.s), p, RESIDUE_TOL)


def exp_complex_vector(w) -> Paravector3:
    """Exponential of complex 3-vectors w of shape (..., 3), in closed form.

    With z^2 = w.w, exp(w) = cosh z + w sinh(z)/z; both factors are even in
    z, so the branch of the square root does not matter, and a null w
    (w.w = 0) gives exactly 1 + w.  The rows run as arrays of at least one
    row, so a row's bits do not depend on its batch.
    """
    w = np.asarray(w, dtype=np.complex128)
    flat = w.reshape(-1, 3)
    z = np.sqrt(dot3(flat, flat))
    sinhc = np.divide(np.sinh(z), z, out=np.ones_like(z), where=z != 0)
    shape = w.shape[:-1]
    return Paravector3._wrap(
        np.cosh(z).reshape(shape), (flat * sinhc[:, None]).reshape(w.shape)
    )


class Faraday3:
    """Field vector F = E + i B as a complex 3-vector, or a batch of them:
    F has shape (..., 3)."""

    __slots__ = ("F",)

    def __init__(self, E=None, B=None):
        E = np.zeros(3) if E is None else np.asarray(E, dtype=np.float64)
        B = np.zeros(3) if B is None else np.asarray(B, dtype=np.float64)
        if E.shape[-1:] != (3,) or B.shape[-1:] != (3,):
            raise ValueError("E and B must be 3-vectors")
        # 1j * inf is nan + inf j, so E is written back where B is not
        # finite; a finite field keeps the bits of E + 1j B.
        with np.errstate(invalid="ignore"):
            self.F = E + 1j * B
        np.copyto(self.F.real, E, where=~np.isfinite(B))

    @classmethod
    def _wrap(cls, F: np.ndarray) -> "Faraday3":
        out = object.__new__(cls)
        out.F = F
        return out

    @property
    def E(self) -> np.ndarray:
        return self.F.real.copy()

    @property
    def B(self) -> np.ndarray:
        return self.F.imag.copy()

    def to_paravector(self) -> Paravector3:
        return Paravector3.vector(self.F)

    def __repr__(self) -> str:
        return f"Faraday3(E={self.E!r}, B={self.B!r})"
