"""Real Clifford algebra Cl(1,3) on 16-component multivectors.

Basis blades are indexed by 4-bit masks: bit k set means the generator e_k
is present, with e_0 timelike (e_0^2 = +1, e_i^2 = -1 for i = 1, 2, 3).
A mask's blade is the product of its generators in ascending index order,
so mask 0b0011 is e_0 e_1 and mask 0b1111 is e_0 e_1 e_2 e_3.

Products are table driven: blade(i) blade(j) = SIGN_TABLE[i, j] blade(i ^ j),
the sign coming from a transposition count plus the metric squares of the
repeated generators.  So a product's coefficient k sums the terms
SIGN_TABLE[i, i ^ k] a[i] b[i ^ k], one per blade i of the left factor.

Every element carries a leading batch shape, as in cl3: a multivector's
coefficients have shape (..., 16), a FourVector's components shape (..., 4)
and a Faraday13's, E then B, shape (..., 6); one element is the batch of
shape ().  Each guard checks every row and raises on the first refused one.

A multivector also carries a blade set m, an int whose bit i says blade i
may be nonzero in some row; every other coefficient is zero in every row.
Only construction narrows it: a four-vector holds grade 1, a field grade 2,
a scalar grade 0 and a rotor from exp_bivector grades 0, 2 and 4.  Grade
projection intersects it, + and - take the union, negation, reversion and
scaling keep it, and a product gets the blades its plan reaches.  An element
whose set is narrower than all 16 blades holds a read-only coefficient
array, so no caller can write a blade the set leaves out.

For a pair of blade sets (ma, mb) a plan lists, for each blade k that the
product can reach, the terms (i, i ^ k) with i in ma and i ^ k in mb, in
ascending i, padded to one length with a zero-sign term on blades outside
both sets.  The product is then a fixed sequence of ufunc calls: one gather
per factor, one multiply, a sum over the terms in order and a scatter into
the 16 blades, so a row's bits do not depend on the batch it sits in.
Plans are built on first use and kept for the process.  With both sets full
the plan is the whole table in its order.

A skipped term is an exact zero in every row, and adding a zero leaves a
nonzero sum's bits alone, so every coefficient that is not exactly zero has
the bits of the sum over all 16 terms.  Only two things can differ from that
sum: the sign of an exact zero, and, in a row whose factors already hold an
inf or NaN, a coefficient the full sum left NaN (a skipped zero times an
inf).  Blade sets come from construction, never from the data, so a row's
bits still do not depend on its batch.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import GradeLeakageError, NonBivectorError
from .maps import EXP_TOL, GRADE_TOL

DIM = 16
METRIC_SIGNS = (1, -1, -1, -1)

GRADE_OF = np.array([bin(i).count("1") for i in range(DIM)])
# Which blades each grade 0..4 keeps, built once: every sandwich projects.
_IN_GRADE = tuple(GRADE_OF == g for g in range(5))
# Reversion negates grades 2 and 3.
_REVERSE_SIGN = np.where((GRADE_OF == 2) | (GRADE_OF == 3), -1.0, 1.0)

BLADE_NAMES = tuple(
    "1" if m == 0 else "e" + "".join(str(k) for k in range(4) if m & (1 << k))
    for m in range(DIM)
)


def _reorder_sign(a: int, b: int) -> int:
    """Sign from merging the ascending generator lists of masks a and b."""
    a >>= 1
    swaps = 0
    while a:
        swaps += bin(a & b).count("1")
        a >>= 1
    return -1 if swaps & 1 else 1


def _build_sign_table() -> np.ndarray:
    sign = np.zeros((DIM, DIM), dtype=np.int64)
    for a in range(DIM):
        for b in range(DIM):
            s = _reorder_sign(a, b)
            common = a & b
            for k in range(4):
                if common & (1 << k):
                    s *= METRIC_SIGNS[k]
            sign[a, b] = s
    return sign


SIGN_TABLE = _build_sign_table()
_PSEUDOSCALAR = DIM - 1
# Right multiplication by the pseudoscalar takes blade k ^ 15 to blade k.
_DUAL = np.arange(DIM) ^ _PSEUDOSCALAR
_DUAL_SIGN = SIGN_TABLE[_DUAL, _PSEUDOSCALAR].astype(np.float64)

# Blade sets: bit i stands for blade i.
FULL = (1 << DIM) - 1
_GRADE_SET = tuple(sum(1 << i for i in range(DIM) if GRADE_OF[i] == g) for g in range(5))
_ROTOR_SET = _GRADE_SET[0] | _GRADE_SET[2] | _GRADE_SET[4]


@functools.cache
def _plan(ma: int, mb: int):
    """The terms of a product whose factors hold the blade sets ma and mb.

    Column n lists the terms reaching blade blades[n]: left blade I[t, n],
    right blade J[t, n] = I[t, n] ^ blades[n] and sign S[t, n], in ascending
    I.  Shorter columns are padded with a zero-sign term on the first blade
    outside each set.  A column is shorter than another only if neither set
    is full, since column k holds |ma & (mb ^ k)| terms, so both such blades
    exist and the padding multiplies two exact zeros.  The last entry is
    the blade set of the product.
    """
    columns = {}
    for i in range(DIM):
        if ma >> i & 1:
            for j in range(DIM):
                if mb >> j & 1:
                    columns.setdefault(i ^ j, []).append((i, j, SIGN_TABLE[i, j]))
    blades = sorted(columns)
    depth = max(map(len, columns.values()), default=0)
    pad = (*(next((i for i in range(DIM) if not m >> i & 1), 0) for m in (ma, mb)), 0)
    terms = [[col[t] if t < len(col) else pad for col in map(columns.get, blades)]
             for t in range(depth)]
    shape = (depth, len(blades), 3)
    I, J, S = np.array(terms, dtype=np.intp).reshape(shape).transpose(2, 0, 1).copy()
    if (I == I[:, :1]).all():
        # Every column takes the same left blades (both sets full, or one
        # left blade): gather them once and let the multiply broadcast them.
        I = I[:, :1]
    return I, J, S.astype(np.float64), np.array(blades, dtype=np.intp), sum(1 << k for k in blades)


def _product(a: np.ndarray, ma: int, b: np.ndarray, mb: int):
    """Coefficients of the product of coefficient arrays a and b, which hold
    the blade sets ma and mb, and the product's blade set."""
    I, J, S, blades, m = _plan(ma, mb)
    terms = np.add.reduce(a[..., I] * (b[..., J] * S), axis=-2)
    if m == FULL:
        return terms, m
    out = np.zeros(terms.shape[:-1] + (DIM,))
    out[..., blades] = terms
    return out, m


def _first(values, refused):
    """The value of the first refused row, for an error message."""
    return np.asarray(values)[refused].flat[0]


class Multivector13:
    """General element of Cl(1,3), or a batch of them: real blade
    coefficients c of shape (..., 16) and the blade set m they may occupy.

    Supports +, -, scaling by a number (or one number per row) and the
    geometric product via *.  Multivector13(coeffs) holds all 16 blades and
    is mutable through the .c array; the arithmetic never aliases it.
    """

    __slots__ = ("c", "m")
    # An ndarray on the left of * defers to __rmul__ instead of building an
    # object array.
    __array_ufunc__ = None

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=np.float64)
        if c.shape[-1:] != (DIM,):
            raise ValueError(f"need {DIM} blade coefficients, got shape {c.shape}")
        self.c = c.copy()
        self.m = FULL

    @classmethod
    def _wrap(cls, arr: np.ndarray, m: int = FULL) -> "Multivector13":
        """arr, zero outside the blade set m, as an element; a narrower set
        makes arr read-only."""
        out = object.__new__(cls)
        if m != FULL:
            arr.setflags(write=False)
        out.c = arr
        out.m = m
        return out

    @classmethod
    def scalar(cls, value: float) -> "Multivector13":
        c = np.zeros(DIM)
        c[0] = value
        return cls._wrap(c, _GRADE_SET[0])

    @classmethod
    def blade(cls, mask: int, coeff: float = 1.0) -> "Multivector13":
        c = np.zeros(DIM)
        c[mask] = coeff
        return cls._wrap(c, 1 << mask)

    def __add__(self, other: "Multivector13") -> "Multivector13":
        return Multivector13._wrap(self.c + other.c, self.m | other.m)

    def __sub__(self, other: "Multivector13") -> "Multivector13":
        return Multivector13._wrap(self.c - other.c, self.m | other.m)

    def __neg__(self) -> "Multivector13":
        return Multivector13._wrap(-self.c, self.m)

    def __mul__(self, other):
        """Geometric product with a multivector, or scaling by a number or
        by one number per row."""
        if isinstance(other, Multivector13):
            return geometric_product(self, other)
        w = np.asarray(other, dtype=np.float64)
        return Multivector13._wrap(self.c * w[..., None], self.m)

    def __rmul__(self, other) -> "Multivector13":
        return self * other

    def reverse(self) -> "Multivector13":
        """Each blade's generators in the opposite order."""
        return Multivector13._wrap(self.c * _REVERSE_SIGN, self.m)

    def grade(self, g: int) -> "Multivector13":
        return Multivector13._wrap(np.where(_IN_GRADE[g], self.c, 0.0), self.m & _GRADE_SET[g])

    def grade_residue(self, g: int):
        """Largest |coefficient| outside grade g, per row."""
        return np.abs(np.where(_IN_GRADE[g], 0.0, self.c)).max(axis=-1)

    def max_abs(self):
        return np.abs(self.c).max(axis=-1)

    def scalar_part(self):
        return self.c[..., 0]

    def __repr__(self) -> str:
        if self.c.ndim != 1:
            return f"Multivector13(batch of shape {self.c.shape[:-1]})"
        terms = [
            f"{self.c[m]:+g}*{BLADE_NAMES[m]}" for m in range(DIM) if self.c[m] != 0.0
        ]
        return "Multivector13(" + (" ".join(terms) if terms else "0") + ")"


def geometric_product(a: Multivector13, b: Multivector13) -> Multivector13:
    """Full geometric product in Cl(1,3), row by row over the broadcast
    batch shape of a and b."""
    return Multivector13._wrap(*_product(a.c, a.m, b.c, b.m))


def grade_project(m: Multivector13, g: int) -> Multivector13:
    """Project every row onto grade g, guarding against leakage into other
    grades.

    The residue is measured relative to max(1, largest |coefficient|), so the
    guard behaves as an absolute threshold for order-one data and does not
    false-trip on large inputs.  Raises GradeLeakageError if any row's
    residue is above GRADE_TOL, or NaN.
    """
    residue = m.grade_residue(g)
    scale = np.fmax(1.0, m.max_abs())
    refused = ~(residue <= GRADE_TOL * scale)
    if refused.any():
        raise GradeLeakageError(
            f"grade-{g} projection residue {_first(residue, refused):.3e} exceeds "
            f"{GRADE_TOL:.1e} * {_first(scale, refused):.3e}"
        )
    return m.grade(g)


def vector_sandwich(u: Multivector13, m: Multivector13, v: Multivector13) -> Multivector13:
    """Triple product u m v, association (u m) v."""
    return geometric_product(geometric_product(u, m), v)


def exp_bivector(b: Multivector13) -> Multivector13:
    """Exponential of pure bivectors F, one per row, in closed form.

    F^2 = alpha + beta I with I = e_0 e_1 e_2 e_3 and I^2 = -1, so with
    z = sqrt(alpha + i beta) read as a complex number in which i stands for
    I, exp(F) = cosh z + F sinh(z)/z, a null F (F^2 = 0) giving exactly 1 + F.
    Both factors are even in z, so the branch of the square root does not
    matter.  Raises NonBivectorError unless every row is pure grade 2 within
    EXP_TOL.  An F that holds grade 2 only gives a rotor on grades 0, 2 and 4.
    """
    if not (b.grade_residue(2) <= EXP_TOL * np.fmax(1.0, b.max_abs())).all():
        raise NonBivectorError("exponential argument must be a pure bivector")
    # At least one row, so every step is a ufunc loop, as in a batch.
    F = b.c.reshape(-1, DIM)
    sq = _product(F, b.m, F, b.m)[0]
    z = np.sqrt(sq[:, 0] + 1j * sq[:, _PSEUDOSCALAR])
    sinhc = np.divide(np.sinh(z), z, out=np.ones_like(z), where=z != 0)
    cosh = np.cosh(z)
    out = F * sinhc.real[:, None] + F[:, _DUAL] * _DUAL_SIGN * sinhc.imag[:, None]
    out[:, 0] += cosh.real
    out[:, _PSEUDOSCALAR] += cosh.imag
    m = _ROTOR_SET if b.m & ~_GRADE_SET[2] == 0 else FULL
    return Multivector13._wrap(out.reshape(b.c.shape), m)




class _Components:
    """A quantity held as one component array c of shape (..., n), each
    component placed on one blade of Cl(1,3) with a sign by its type's
    table: _BLADES, _SIGNS and the grade _GRADE of those blades.  A multiply
    by a sign of +-1 is exact and gives each zero the sign a negation would."""

    __slots__ = ("c",)

    @classmethod
    def from_array(cls, arr):
        """Wrap components on the last axis, shape (..., n), without a copy."""
        arr = np.asarray(arr, dtype=np.float64)
        n = len(cls._BLADES)
        if arr.shape[-1:] != (n,):
            raise ValueError(f"need {n} components, got shape {arr.shape}")
        out = object.__new__(cls)
        out.c = arr
        return out

    def as_array(self) -> np.ndarray:
        """Components on the last axis, shape (..., n)."""
        return self.c

    def __array__(self, dtype=None, copy=None):
        """The components, so numpy reads the quantity as its (..., n) array;
        numpy 1 passes no copy, and astype copies only where asked or needed."""
        return self.c.astype(self.c.dtype if dtype is None else dtype, copy=bool(copy))

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return bool(np.array_equal(self.c, other.c))

    def to_mv(self) -> Multivector13:
        c = np.zeros(self.c.shape[:-1] + (DIM,))
        c[..., self._BLADES] = self.c * self._SIGNS
        return Multivector13._wrap(c, _GRADE_SET[self._GRADE])

    @classmethod
    def _from_blades(cls, c: np.ndarray):
        """The quantity on the blades of coefficients c."""
        return cls.from_array(c[..., cls._BLADES] * cls._SIGNS)

    @classmethod
    def from_mv(cls, m: Multivector13):
        """Extract rows of pure grade _GRADE; raises GradeLeakageError
        otherwise."""
        return cls._from_blades(grade_project(m, cls._GRADE).c)


class FourVector(_Components):
    """Spacetime event or four-vector with contravariant components
    c = (t, x, y, z) on the last axis, shape (..., 4) for a batch of rows,
    on the blades e_0..e_3.

    FourVector(t, x, y, z) takes each component as a number or an array;
    t, x, y and z read views of c.
    """

    __slots__ = ()
    _BLADES = np.array([1, 2, 4, 8])
    _SIGNS = np.ones(4)
    _GRADE = 1

    def __init__(self, t, x, y, z):
        parts = (np.asarray(v, dtype=np.float64) for v in (t, x, y, z))
        self.c = np.stack(np.broadcast_arrays(*parts), axis=-1)

    t = property(lambda self: self.c[..., 0])
    x = property(lambda self: self.c[..., 1])
    y = property(lambda self: self.c[..., 2])
    z = property(lambda self: self.c[..., 3])

    def __repr__(self) -> str:
        if self.c.ndim != 1:
            return f"FourVector(batch of shape {self.c.shape[:-1]})"
        t, x, y, z = (float(v) for v in self.c)
        return f"FourVector(t={t!r}, x={x!r}, y={y!r}, z={z!r})"

    def minkowski_sq(self):
        return self.mdot(self)

    def mdot(self, other: "FourVector"):
        """Minkowski product per row, summed in component order."""
        return self.t * other.t - self.x * other.x - self.y * other.y - self.z * other.z


class Faraday13(_Components):
    """Electromagnetic bivector, or a batch of them: components c = (E, B),
    E then B on the last axis, shape (..., 6); E and B read views of c, of
    shape (..., 3).

    Faraday13(E, B) takes two 3-vectors, or batches that broadcast against
    each other.  Blade storage follows the ascending-mask convention, so the
    electric channels sit on e_0 e_i with coefficient -E_i (the physical
    blade is e_i e_0) and the magnetic channels sit on e_2 e_3 = -B_x,
    e_1 e_3 = +B_y, e_1 e_2 = -B_z.
    """

    __slots__ = ()
    _BLADES = np.array([3, 5, 9, 12, 10, 6])
    _SIGNS = np.array([-1.0, -1.0, -1.0, -1.0, 1.0, -1.0])
    _GRADE = 2

    def __init__(self, E, B):
        E = np.asarray(E, dtype=np.float64)
        B = np.asarray(B, dtype=np.float64)
        if E.shape[-1:] != (3,) or B.shape[-1:] != (3,):
            raise ValueError("E and B must be 3-vectors")
        self.c = np.concatenate(np.broadcast_arrays(E, B), axis=-1)

    E = property(lambda self: self.c[..., :3])
    B = property(lambda self: self.c[..., 3:])

    def __repr__(self) -> str:
        return f"Faraday13(E={self.E!r}, B={self.B!r})"
