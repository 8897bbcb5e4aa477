"""Conformal transformations of electromagnetic quantities in Cl(1,3).

Implements the five transformation families (dilation, translation, Lorentz,
inversion, special conformal) as sandwich formulas on multivectors.  The
inversion and special-conformal ops exist in two presentations selected by
CoordinateFrame: ORIGINAL takes the source event, TRANSFORMED takes the image
event and carries compensating powers of the scale factor.

Parameter dataclasses for all five families live here as well and are shared
with the Cl(3) layer and the CLI; sharing parameters does not share any of
the transformation arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .cl13 import (
    Faraday13,
    FourVector,
    Multivector13,
    exp_bivector,
    geometric_product,
    vector_sandwich,
)
from .errors import LightConeError, NonPositiveScaleError, SctConeError

LIGHTCONE_TOL = 1e-9
GRADE_TOL = 1e-12
RESIDUE_TOL = 1e-10
EXP_TOL = 1e-14


class CoordinateFrame(Enum):
    """Which coordinates the nonlinear sandwich formulas are written in."""

    ORIGINAL = "original"
    TRANSFORMED = "transformed"


class LorentzClass(Enum):
    PROPER_ORTHOCHRONOUS = "proper_orthochronous"
    IMPROPER_ORTHOCHRONOUS = "improper_orthochronous"
    IMPROPER_ANTICHRONOUS = "improper_antichronous"
    PROPER_ANTICHRONOUS = "proper_antichronous"


class QuantityKind(Enum):
    POSITION = "position"
    POTENTIAL = "potential"
    CURRENT = "current"
    FARADAY = "faraday"


@dataclass(frozen=True)
class Dilation:
    factor: float

    def __post_init__(self):
        if not self.factor > 0.0:
            raise NonPositiveScaleError("dilation factor must be positive")


@dataclass(frozen=True)
class Translation:
    offset: FourVector


@dataclass(frozen=True)
class Lorentz:
    """Boost rapidities and rotation angles feeding the exponential generator."""

    boost: tuple[float, float, float] = (0.0, 0.0, 0.0)
    rotation: tuple[float, float, float] = (0.0, 0.0, 0.0)
    lorentz_class: LorentzClass = LorentzClass.PROPER_ORTHOCHRONOUS


@dataclass(frozen=True)
class Inversion:
    eps: int = 1

    def __post_init__(self):
        if self.eps not in (-1, 1):
            raise ValueError("inversion sign must be +1 or -1")


@dataclass(frozen=True)
class Sct:
    a: FourVector


ConformalParams = Union[Dilation, Translation, Lorentz, Inversion, Sct]


def sct_factor(x: FourVector, a: FourVector) -> float:
    """Scale factor of the special conformal map at x."""
    return 1.0 + 2.0 * a.mdot(x) + a.minkowski_sq() * x.minkowski_sq()


def _interval_guarded(x: FourVector, tol: float) -> float:
    x2 = x.minkowski_sq()
    if not abs(x2) > tol:
        raise LightConeError(f"event too close to the light cone: x^2 = {x2:.3e}")
    return x2


def _sct_factor_guarded(x: FourVector, a: FourVector, tol: float) -> float:
    s = sct_factor(x, a)
    if not abs(s) > tol:
        raise SctConeError(f"event too close to the excluded cone: scale = {s:.3e}")
    return s


def _sct_factor_from_image(x_new: FourVector, a: FourVector, tol: float) -> float:
    # In image coordinates the scale satisfies 1/s = 1 - 2 a.x'' + a^2 x''^2.
    denom = (
        1.0
        - 2.0 * a.mdot(x_new)
        + a.minkowski_sq() * x_new.minkowski_sq()
    )
    if not abs(denom) > tol:
        raise SctConeError(
            f"image event too close to the excluded cone: 1/scale = {denom:.3e}"
        )
    return 1.0 / denom


# -- inversion ----------------------------------------------------------------


def invert_position(
    x: FourVector, eps: int = 1, tol: float = LIGHTCONE_TOL
) -> FourVector:
    Inversion(eps)  # raises unless eps is +1 or -1
    x2 = _interval_guarded(x, tol)
    arr = eps * x.as_array() / x2
    return FourVector.from_array(arr)


def invert_potential(
    A: FourVector,
    x: FourVector,
    eps: int = 1,
    frame: CoordinateFrame = CoordinateFrame.ORIGINAL,
    tol: float = LIGHTCONE_TOL,
    grade_tol: float = GRADE_TOL,
) -> FourVector:
    """Inverted potential; the inversion sign cancels in the even sandwich."""
    Inversion(eps)  # raises unless eps is +1 or -1
    _interval_guarded(x, tol)
    xm = x.to_mv()
    raw = vector_sandwich(xm, A.to_mv(), xm)
    if frame is CoordinateFrame.ORIGINAL:
        return FourVector.from_mv(raw, grade_tol)
    om = 1.0 / x.minkowski_sq()
    return FourVector.from_mv(om**2 * raw, grade_tol)


def invert_current(
    J: FourVector,
    x: FourVector,
    eps: int = 1,
    frame: CoordinateFrame = CoordinateFrame.ORIGINAL,
    tol: float = LIGHTCONE_TOL,
    grade_tol: float = GRADE_TOL,
) -> FourVector:
    Inversion(eps)  # raises unless eps is +1 or -1
    _interval_guarded(x, tol)
    xm = x.to_mv()
    raw = vector_sandwich(xm, J.to_mv(), xm)
    if frame is CoordinateFrame.ORIGINAL:
        om = x.minkowski_sq()
        return FourVector.from_mv(om**2 * raw, grade_tol)
    om = 1.0 / x.minkowski_sq()
    return FourVector.from_mv(om**4 * raw, grade_tol)


def invert_faraday(
    F: Faraday13,
    x: FourVector,
    eps: int = 1,
    frame: CoordinateFrame = CoordinateFrame.ORIGINAL,
    tol: float = LIGHTCONE_TOL,
    grade_tol: float = GRADE_TOL,
) -> Faraday13:
    Inversion(eps)  # raises unless eps is +1 or -1
    _interval_guarded(x, tol)
    xm = x.to_mv()
    raw = vector_sandwich(xm, F.to_mv(), xm)
    if frame is CoordinateFrame.ORIGINAL:
        om = x.minkowski_sq()
        return Faraday13.from_mv(-eps * om * raw, grade_tol)
    om = 1.0 / x.minkowski_sq()
    return Faraday13.from_mv(-eps * om**3 * raw, grade_tol)


# -- special conformal ----------------------------------------------------------

def _sct_versors(x: FourVector, a: FourVector) -> tuple[Multivector13, Multivector13]:
    one = Multivector13.scalar(1.0)
    ax = geometric_product(a.to_mv(), x.to_mv())
    xa = geometric_product(x.to_mv(), a.to_mv())
    return one + ax, one + xa


def _sct_versors_image(
    x_new: FourVector, a: FourVector
) -> tuple[Multivector13, Multivector13]:
    one = Multivector13.scalar(1.0)
    xa = geometric_product(x_new.to_mv(), a.to_mv())
    ax = geometric_product(a.to_mv(), x_new.to_mv())
    return one - xa, one - ax


def sct_position(
    x: FourVector, a: FourVector, tol: float = LIGHTCONE_TOL
) -> FourVector:
    s = _sct_factor_guarded(x, a, tol)
    arr = (x.as_array() + x.minkowski_sq() * a.as_array()) / s
    return FourVector.from_array(arr)


def sct_potential(
    A: FourVector,
    x: FourVector,
    a: FourVector,
    frame: CoordinateFrame = CoordinateFrame.ORIGINAL,
    tol: float = LIGHTCONE_TOL,
    grade_tol: float = GRADE_TOL,
) -> FourVector:
    if frame is CoordinateFrame.ORIGINAL:
        left, right = _sct_versors(x, a)
        raw = vector_sandwich(left, A.to_mv(), right)
        return FourVector.from_mv(raw, grade_tol)
    s = _sct_factor_from_image(x, a, tol)
    left, right = _sct_versors_image(x, a)
    raw = vector_sandwich(left, A.to_mv(), right)
    return FourVector.from_mv(s**2 * raw, grade_tol)


def sct_current(
    J: FourVector,
    x: FourVector,
    a: FourVector,
    frame: CoordinateFrame = CoordinateFrame.ORIGINAL,
    tol: float = LIGHTCONE_TOL,
    grade_tol: float = GRADE_TOL,
) -> FourVector:
    if frame is CoordinateFrame.ORIGINAL:
        s = _sct_factor_guarded(x, a, tol)
        left, right = _sct_versors(x, a)
        raw = vector_sandwich(left, J.to_mv(), right)
        return FourVector.from_mv(s**2 * raw, grade_tol)
    s = _sct_factor_from_image(x, a, tol)
    left, right = _sct_versors_image(x, a)
    raw = vector_sandwich(left, J.to_mv(), right)
    return FourVector.from_mv(s**4 * raw, grade_tol)


def sct_faraday(
    F: Faraday13,
    x: FourVector,
    a: FourVector,
    frame: CoordinateFrame = CoordinateFrame.ORIGINAL,
    tol: float = LIGHTCONE_TOL,
    grade_tol: float = GRADE_TOL,
) -> Faraday13:
    if frame is CoordinateFrame.ORIGINAL:
        s = _sct_factor_guarded(x, a, tol)
        left, right = _sct_versors(x, a)
        raw = vector_sandwich(left, F.to_mv(), right)
        return Faraday13.from_mv(s * raw, grade_tol)
    s = _sct_factor_from_image(x, a, tol)
    left, right = _sct_versors_image(x, a)
    raw = vector_sandwich(left, F.to_mv(), right)
    return Faraday13.from_mv(s**3 * raw, grade_tol)


# -- linear families ------------------------------------------------------------


def dilate(kind: QuantityKind, value, factor: float):
    """Dilation weights: position 1/f, potential f, current f^3, field f^2."""
    if not factor > 0.0:
        raise NonPositiveScaleError("dilation factor must be positive")
    if kind is QuantityKind.POSITION:
        return FourVector.from_array(value.as_array() / factor)
    if kind is QuantityKind.POTENTIAL:
        return FourVector.from_array(factor * value.as_array())
    if kind is QuantityKind.CURRENT:
        return FourVector.from_array(factor**3 * value.as_array())
    return Faraday13(factor**2 * value.E, factor**2 * value.B)


def translate(kind: QuantityKind, value, offset: FourVector):
    """Only the event moves; potential, current and field values are carried."""
    if kind is QuantityKind.POSITION:
        return FourVector.from_array(value.as_array() + offset.as_array())
    return value


def lorentz_generator(boost, rotation) -> Multivector13:
    """Bivector generator from boost and rotation 3-vectors.

    The generator occupies the same six blades as the Faraday bivector with
    boost in the electric channels and rotation in the magnetic ones.
    """
    return Faraday13(np.asarray(boost, float), np.asarray(rotation, float)).to_mv()


_SIGN_FLIP = {
    LorentzClass.PROPER_ORTHOCHRONOUS: False,
    LorentzClass.IMPROPER_ORTHOCHRONOUS: False,
    LorentzClass.IMPROPER_ANTICHRONOUS: True,
    LorentzClass.PROPER_ANTICHRONOUS: True,
}

_PARITY_WRAP = {
    LorentzClass.PROPER_ORTHOCHRONOUS: False,
    LorentzClass.IMPROPER_ORTHOCHRONOUS: True,
    LorentzClass.IMPROPER_ANTICHRONOUS: True,
    LorentzClass.PROPER_ANTICHRONOUS: False,
}


def _lorentz_rotors(
    params: Lorentz, exp_tol: float
) -> tuple[Multivector13, Multivector13]:
    gen = lorentz_generator(params.boost, params.rotation)
    return exp_bivector(gen, exp_tol), exp_bivector(-1.0 * gen, exp_tol)


def _lorentz_sandwich(
    kind: QuantityKind,
    value,
    L: Multivector13,
    Li: Multivector13,
    cls: LorentzClass,
    grade_tol: float = GRADE_TOL,
):
    """The class-adjusted sandwich of lorentz_apply by the rotor pair L, Li."""
    q = value.to_mv()
    out = vector_sandwich(L, q, Li)
    if _PARITY_WRAP[cls]:
        e0 = Multivector13.basis_vector(0)
        out = vector_sandwich(e0, out, e0)
    if _SIGN_FLIP[cls] and kind in (
        QuantityKind.POSITION,
        QuantityKind.FARADAY,
    ):
        out = -out
    if kind is QuantityKind.FARADAY:
        return Faraday13.from_mv(out, grade_tol)
    return FourVector.from_mv(out, grade_tol)


def lorentz_apply(
    kind: QuantityKind,
    value,
    params: Lorentz,
    exp_tol: float = EXP_TOL,
    grade_tol: float = GRADE_TOL,
):
    """Sandwich by the exponential rotor, adjusted per Lorentz class.

    The improper classes wrap the sandwich in the timelike reflection; the
    antichronous classes flip the overall sign of position and field but not
    of potential or current.
    """
    L, Li = _lorentz_rotors(params, exp_tol)
    return _lorentz_sandwich(kind, value, L, Li, params.lorentz_class, grade_tol)


def induced_matrix(params: Lorentz, exp_tol: float = EXP_TOL) -> np.ndarray:
    """4x4 coordinate matrix of the position action, columns by basis image."""
    L, Li = _lorentz_rotors(params, exp_tol)
    cols = []
    for k in range(4):
        basis = FourVector.from_array(np.eye(4)[k])
        out = _lorentz_sandwich(
            QuantityKind.POSITION, basis, L, Li, params.lorentz_class
        )
        cols.append(out.as_array())
    return np.array(cols).T
