"""Real Clifford algebra Cl(1,3) on 16-component multivectors.

Basis blades are indexed by 4-bit masks: bit k set means the generator e_k
is present, with e_0 timelike (e_0^2 = +1, e_i^2 = -1 for i = 1, 2, 3).
A mask's blade is the product of its generators in ascending index order,
so mask 0b0011 is e_0 e_1 and mask 0b1111 is e_0 e_1 e_2 e_3.

Products are table driven: blade(i) blade(j) = SIGN_TABLE[i, j] blade(i ^ j),
the sign coming from a transposition count plus the metric squares of the
repeated generators.  The same data reshaped as a dense structure tensor
feeds einsum for whole-multivector products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GradeLeakageError, NonBivectorError, SingularVersorError

DIM = 16
METRIC_SIGNS = (1, -1, -1, -1)

GRADE_OF = np.array([bin(i).count("1") for i in range(DIM)])
# Which blades each grade 0..4 keeps, built once: every sandwich projects.
_IN_GRADE = tuple(GRADE_OF == g for g in range(5))

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


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    sign = np.zeros((DIM, DIM), dtype=np.int64)
    for a in range(DIM):
        for b in range(DIM):
            s = _reorder_sign(a, b)
            common = a & b
            for k in range(4):
                if common & (1 << k):
                    s *= METRIC_SIGNS[k]
            sign[a, b] = s
    tensor = np.zeros((DIM, DIM, DIM))
    for a in range(DIM):
        for b in range(DIM):
            tensor[a, b, a ^ b] = sign[a, b]
    return sign, tensor


SIGN_TABLE, _STRUCTURE = _build_tables()


class Multivector13:
    """General element of Cl(1,3), a real vector of 16 blade coefficients.

    Supports +, -, scalar scaling and the geometric product via *.  Instances
    are mutable only through the .c array; the arithmetic never aliases it.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            self.c = np.zeros(DIM)
        else:
            c = np.asarray(coeffs, dtype=np.float64)
            if c.shape != (DIM,):
                raise ValueError(f"need {DIM} blade coefficients, got shape {c.shape}")
            self.c = c.copy()

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Multivector13":
        out = object.__new__(cls)
        out.c = arr
        return out

    @classmethod
    def scalar(cls, value: float) -> "Multivector13":
        c = np.zeros(DIM)
        c[0] = value
        return cls._wrap(c)

    @classmethod
    def blade(cls, mask: int, coeff: float = 1.0) -> "Multivector13":
        c = np.zeros(DIM)
        c[mask] = coeff
        return cls._wrap(c)

    @classmethod
    def basis_vector(cls, k: int) -> "Multivector13":
        """The generator e_k, k in 0..3."""
        return cls.blade(1 << k)

    def __add__(self, other: "Multivector13") -> "Multivector13":
        return Multivector13._wrap(self.c + other.c)

    def __sub__(self, other: "Multivector13") -> "Multivector13":
        return Multivector13._wrap(self.c - other.c)

    def __neg__(self) -> "Multivector13":
        return Multivector13._wrap(-self.c)

    def __mul__(self, other):
        if isinstance(other, Multivector13):
            return geometric_product(self, other)
        return Multivector13._wrap(self.c * float(other))

    def __rmul__(self, other) -> "Multivector13":
        return Multivector13._wrap(self.c * float(other))

    def grade(self, g: int) -> "Multivector13":
        return Multivector13._wrap(np.where(_IN_GRADE[g], self.c, 0.0))

    def grade_residue(self, g: int) -> float:
        """Largest |coefficient| outside grade g."""
        return float(np.abs(np.where(_IN_GRADE[g], 0.0, self.c)).max())

    def max_abs(self) -> float:
        return float(np.abs(self.c).max())

    def scalar_part(self) -> float:
        return float(self.c[0])

    def approx_eq(self, other: "Multivector13", tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.c - other.c)) <= tol)

    def __repr__(self) -> str:
        terms = [
            f"{self.c[m]:+g}*{BLADE_NAMES[m]}" for m in range(DIM) if self.c[m] != 0.0
        ]
        return "Multivector13(" + (" ".join(terms) if terms else "0") + ")"


def geometric_product(a: Multivector13, b: Multivector13) -> Multivector13:
    """Full geometric product in Cl(1,3)."""
    return Multivector13._wrap(np.einsum("i,j,ijk->k", a.c, b.c, _STRUCTURE))


def grade_project(
    m: Multivector13, g: int, tol: float
) -> Multivector13:
    """Project onto grade g, guarding against leakage into other grades.

    The residue is measured relative to max(1, largest |coefficient|), so the
    guard behaves as an absolute threshold for order-one data and does not
    false-trip on large inputs.  Raises GradeLeakageError above tolerance,
    and on a NaN residue.
    """
    residue = m.grade_residue(g)
    scale = max(1.0, m.max_abs())
    if not residue <= tol * scale:
        raise GradeLeakageError(
            f"grade-{g} projection residue {residue:.3e} exceeds "
            f"{tol:.1e} * {scale:.3e}"
        )
    return m.grade(g)


def vector_sandwich(u: Multivector13, m: Multivector13, v: Multivector13) -> Multivector13:
    """Triple product u m v, association (u m) v."""
    return geometric_product(geometric_product(u, m), v)


def exp_bivector(b: Multivector13, tol: float) -> Multivector13:
    """Exponential of a pure bivector by Taylor series.

    Arguments above unit infinity-norm are halved until small (scaling and
    squaring), the series is summed until the next term drops below tol, and
    the result is squared back up.  Raises NonBivectorError unless the input
    is pure grade 2.
    """
    if not b.grade_residue(2) <= tol * max(1.0, b.max_abs()):
        raise NonBivectorError("exponential argument must be a pure bivector")
    halvings = 0
    arg = b.c.copy()
    norm = float(np.max(np.abs(arg)))
    while norm > 1.0:
        arg *= 0.5
        norm *= 0.5
        halvings += 1
    acc = np.zeros(DIM)
    acc[0] = 1.0
    term = np.zeros(DIM)
    term[0] = 1.0
    k = 1
    while True:
        term = np.einsum("i,j,ijk->k", term, arg, _STRUCTURE) / k
        acc = acc + term
        if float(np.max(np.abs(term))) < tol:
            break
        k += 1
        if k > 200:
            raise ArithmeticError("bivector exponential series failed to converge")
    for _ in range(halvings):
        acc = np.einsum("i,j,ijk->k", acc, acc, _STRUCTURE)
    return Multivector13._wrap(acc)


def left_matrix(m: Multivector13) -> np.ndarray:
    """16x16 matrix of left multiplication by m on coefficient vectors."""
    return np.einsum("i,ijk->kj", m.c, _STRUCTURE)


def versor_inverse(m: Multivector13, tol: float) -> Multivector13:
    """Two-sided inverse of m, from the 16x16 left-multiplication system.

    Raises SingularVersorError when the system is singular or the candidate
    fails the residual check m * candidate = 1 within tol.
    """
    lhs = left_matrix(m)
    rhs = np.zeros(DIM)
    rhs[0] = 1.0
    try:
        sol = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularVersorError("multivector is not invertible") from exc
    residual = float(np.max(np.abs(lhs @ sol - rhs)))
    if not residual <= tol * max(1.0, float(np.max(np.abs(sol)))):
        raise SingularVersorError("inverse residual above tolerance")
    return Multivector13._wrap(sol)


@dataclass(frozen=True)
class FourVector:
    """Spacetime event or four-vector with contravariant components (t, x, y, z)."""

    t: float
    x: float
    y: float
    z: float

    @classmethod
    def from_array(cls, arr) -> "FourVector":
        t, x, y, z = (float(v) for v in arr)
        return cls(t, x, y, z)

    def as_array(self) -> np.ndarray:
        return np.array([self.t, self.x, self.y, self.z])

    def lowered(self) -> np.ndarray:
        """Covariant components under the (+,-,-,-) metric."""
        return np.array([self.t, -self.x, -self.y, -self.z])

    def minkowski_sq(self) -> float:
        return self.t * self.t - self.x * self.x - self.y * self.y - self.z * self.z

    def mdot(self, other: "FourVector") -> float:
        return float(self.as_array() @ other.lowered())

    def to_mv(self) -> Multivector13:
        c = np.zeros(DIM)
        c[1] = self.t
        c[2] = self.x
        c[4] = self.y
        c[8] = self.z
        return Multivector13._wrap(c)

    @classmethod
    def from_mv(cls, m: Multivector13, tol: float) -> "FourVector":
        """Extract a pure grade-1 multivector; raises GradeLeakageError otherwise."""
        v = grade_project(m, 1, tol)
        return cls(float(v.c[1]), float(v.c[2]), float(v.c[4]), float(v.c[8]))


@dataclass(frozen=True)
class Faraday13:
    """Electromagnetic bivector with field 3-vectors E and B.

    Blade storage follows the ascending-mask convention, so the electric
    channels sit on e_0 e_i with coefficient -E_i (the physical blade is
    e_i e_0) and the magnetic channels sit on e_1 e_2 = -B_z, e_1 e_3 = +B_y,
    e_2 e_3 = -B_x.
    """

    E: np.ndarray
    B: np.ndarray

    def __init__(self, E, B):
        object.__setattr__(self, "E", np.array(E, dtype=np.float64))
        object.__setattr__(self, "B", np.array(B, dtype=np.float64))
        if self.E.shape != (3,) or self.B.shape != (3,):
            raise ValueError("E and B must be 3-vectors")

    def to_mv(self) -> Multivector13:
        c = np.zeros(DIM)
        c[3] = -self.E[0]
        c[5] = -self.E[1]
        c[9] = -self.E[2]
        c[6] = -self.B[2]
        c[10] = self.B[1]
        c[12] = -self.B[0]
        return Multivector13._wrap(c)

    @classmethod
    def from_mv(cls, m: Multivector13, tol: float) -> "Faraday13":
        """Extract a pure grade-2 multivector; raises GradeLeakageError otherwise."""
        b = grade_project(m, 2, tol)
        E = np.array([-b.c[3], -b.c[5], -b.c[9]])
        B = np.array([-b.c[12], b.c[10], -b.c[6]])
        return cls(E, B)

    def approx_eq(self, other: "Faraday13", tol: float = 1e-12) -> bool:
        """Every component within tol; a NaN deviation is not."""
        return bool(
            np.all(np.abs(self.E - other.E) <= tol)
            and np.all(np.abs(self.B - other.B) <= tol)
        )
