"""Complexified Pauli algebra Cl(3): complex scalar plus complex 3-vector.

Elements are written s + v with s a complex scalar and v a complex 3-vector;
the product of two vectors splits as u v = u.v + i u x v with bilinear
(unconjugated) dot and cross.  Bar negates the vector part, star conjugates
every complex component.  Real paravectors t + r encode spacetime events.
Each residue guard reads `not residue <= bound`, so a NaN residue is refused
rather than dropped.
"""

from __future__ import annotations

import numpy as np

from .errors import ImaginaryResidueError, NonRealEventError

_ZERO3 = np.zeros(3, dtype=np.complex128)


class Paravector3:
    """Element of Cl(3): complex scalar part s, complex vector part v."""

    __slots__ = ("s", "v")

    def __init__(self, s=0.0, v=None):
        self.s = complex(s)
        if v is None:
            self.v = _ZERO3.copy()
        else:
            arr = np.asarray(v, dtype=np.complex128)
            if arr.shape != (3,):
                raise ValueError("vector part must have 3 components")
            self.v = arr.copy()

    @classmethod
    def _wrap(cls, s: complex, v: np.ndarray) -> "Paravector3":
        out = object.__new__(cls)
        out.s = s
        out.v = v
        return out

    @classmethod
    def from_event(cls, t: float, r) -> "Paravector3":
        return cls(complex(t), np.asarray(r, dtype=np.complex128))

    @classmethod
    def vector(cls, v) -> "Paravector3":
        return cls(0.0, v)

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
        if isinstance(other, Paravector3):
            return cl3_product(self, other)
        w = complex(other)
        return Paravector3._wrap(self.s * w, self.v * w)

    def __rmul__(self, other) -> "Paravector3":
        w = complex(other)
        return Paravector3._wrap(self.s * w, self.v * w)

    def max_abs(self) -> float:
        return float(np.abs(self.v).max(initial=abs(self.s)))

    def imag_residue(self) -> float:
        return float(np.abs(self.v.imag).max(initial=abs(self.s.imag)))

    def scalar_residue(self) -> float:
        return float(abs(self.s))

    def approx_eq(self, other: "Paravector3", tol: float = 1e-12) -> bool:
        dev = max(
            abs(self.s - other.s), float(np.max(np.abs(self.v - other.v)))
        )
        return dev <= tol

    def __repr__(self) -> str:
        return f"Paravector3({self.s!r}, {self.v!r})"


def cl3_product(a: Paravector3, b: Paravector3) -> Paravector3:
    s = a.s * b.s + np.dot(a.v, b.v)
    v = a.s * b.v + b.s * a.v + 1j * np.cross(a.v, b.v)
    return Paravector3._wrap(s, v)


def minkowski_square(x: Paravector3, tol: float = 1e-12) -> float:
    """x bar(x) for a real event paravector, equal to t^2 - r^2.

    Raises NonRealEventError if the input carries imaginary parts above tol.
    """
    if not x.imag_residue() <= tol * max(1.0, x.max_abs()):
        raise NonRealEventError("event paravector must be real")
    t = float(x.s.real)
    r = x.v.real
    return t * t - float(r @ r)


def real_paravector(p: Paravector3, tol: float) -> Paravector3:
    """Strip a residual imaginary part, relative guard as in grade projection."""
    if not p.imag_residue() <= tol * max(1.0, p.max_abs()):
        raise ImaginaryResidueError(
            f"imaginary residue {p.imag_residue():.3e} above tolerance"
        )
    return Paravector3._wrap(complex(p.s.real), p.v.real.astype(np.complex128))


def pure_vector(p: Paravector3, tol: float) -> np.ndarray:
    """Vector part of p, guarding against a scalar residue."""
    if not p.scalar_residue() <= tol * max(1.0, p.max_abs()):
        raise ImaginaryResidueError(
            f"scalar residue {p.scalar_residue():.3e} above tolerance"
        )
    return p.v.copy()


def exp_complex_vector(w, tol: float) -> Paravector3:
    """Exponential of a complex 3-vector by series with scaling and squaring."""
    arg = Paravector3.vector(w)
    halvings = 0
    norm = arg.max_abs()
    while norm > 1.0:
        arg = 0.5 * arg
        norm *= 0.5
        halvings += 1
    acc = Paravector3(1.0)
    term = Paravector3(1.0)
    k = 1
    while True:
        term = (1.0 / k) * cl3_product(term, arg)
        acc = acc + term
        if term.max_abs() < tol:
            break
        k += 1
        if k > 200:
            raise ArithmeticError("vector exponential series failed to converge")
    for _ in range(halvings):
        acc = cl3_product(acc, acc)
    return acc


class Faraday3:
    """Field vector F = E + i B as a complex 3-vector."""

    __slots__ = ("F",)

    def __init__(self, E=None, B=None, F=None):
        if F is not None:
            arr = np.asarray(F, dtype=np.complex128)
            if arr.shape != (3,):
                raise ValueError("F must have 3 components")
            self.F = arr.copy()
        else:
            E = np.zeros(3) if E is None else np.asarray(E, dtype=np.float64)
            B = np.zeros(3) if B is None else np.asarray(B, dtype=np.float64)
            if E.shape != (3,) or B.shape != (3,):
                raise ValueError("E and B must be 3-vectors")
            self.F = E + 1j * B

    @property
    def E(self) -> np.ndarray:
        return self.F.real.copy()

    @property
    def B(self) -> np.ndarray:
        return self.F.imag.copy()

    def to_paravector(self) -> Paravector3:
        return Paravector3.vector(self.F)

    def approx_eq(self, other: "Faraday3", tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.F - other.F)) <= tol)

    def __repr__(self) -> str:
        return f"Faraday3(E={self.E!r}, B={self.B!r})"
