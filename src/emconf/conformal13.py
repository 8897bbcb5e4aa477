"""Conformal transformations of electromagnetic quantities in Cl(1,3).

One entry, transform(params, kind, value, x, frame), applies any of the five
families (dilation, translation, Lorentz, inversion, special conformal) to a
position, potential, current or field.  The two nonlinear maps are one rule:
a sandwich of the quantity, weighted by a power of the conformal scale that
the kind and the CoordinateFrame fix.  ORIGINAL takes the source event,
TRANSFORMED takes the image event and carries two more powers of the scale.

Parameter dataclasses for all five families live here as well and are shared
with the Cl(3) layer and the CLI; sharing parameters does not share any of
the transformation arithmetic.

Values, events and the maps' parameters (a, eps, a Lorentz map's boost,
rotation and class) may be batches (see cl13): one call maps every row, and
a guard raises the typed error of the first refused row.
"""

from __future__ import annotations

import math
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
from .errors import (
    GradeLeakageError,
    LightConeError,
    NonPositiveScaleError,
    SctConeError,
)

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


# (improper, antichronous) of each class, as its name spells them: whether it
# reverses spatial orientation (determinant -1) and whether it reverses time.
# One read-only table, whose 0-d views a one-class map reads without building
# an array.
_FLAG_TABLE = np.array(
    [(c.value.startswith("improper"), c.value.endswith("antichronous")) for c in LorentzClass]
)
_FLAG_TABLE.flags.writeable = False
_CLASS_FLAGS = {c: (row[0, ...], row[1, ...]) for c, row in zip(LorentzClass, _FLAG_TABLE)}


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
    """Boost rapidities and rotation angles feeding the exponential generator,
    and the class of the map.  For a batch, boost and rotation have shape
    (n, 3) or (3,), and lorentz_class is one LorentzClass or an array of
    shape (n,) holding one per row; the batch shape is their broadcast."""

    boost: tuple[float, float, float] = (0.0, 0.0, 0.0)
    rotation: tuple[float, float, float] = (0.0, 0.0, 0.0)
    lorentz_class: LorentzClass | np.ndarray = LorentzClass.PROPER_ORTHOCHRONOUS

    def class_flags(self) -> tuple[np.ndarray, np.ndarray]:
        """(improper, antichronous) as bool arrays of the shape of
        lorentz_class: read-only 0-d arrays for one class, one entry per row
        for an array of classes."""
        cls = self.lorentz_class
        if isinstance(cls, LorentzClass):
            return _CLASS_FLAGS[cls]
        cls = np.asarray(cls)
        flags = np.array([_CLASS_FLAGS[c] for c in cls.flat], dtype=bool).reshape(-1, 2).T
        return tuple(f.reshape(cls.shape) for f in flags)


@dataclass(frozen=True)
class Inversion:
    """x -> eps x / x^2, with eps +1 or -1, or an array of one such sign per
    row of a batch."""

    eps: int | np.ndarray = 1

    def __post_init__(self):
        eps = np.asarray(self.eps)
        if not ((eps == 1) | (eps == -1)).all():
            raise ValueError("inversion sign must be +1 or -1")


@dataclass(frozen=True)
class Sct:
    a: FourVector


ConformalParams = Union[Dilation, Translation, Lorentz, Inversion, Sct]


def sct_factor(x: FourVector, a: FourVector):
    """Scale factor of the special conformal map at x."""
    return 1.0 + 2.0 * a.mdot(x) + a.minkowski_sq() * x.minkowski_sq()


def _cone_guard(value, error, what: str):
    """value, unless a row is too close to zero (or NaN): then raise error
    naming the first such row."""
    refused = ~(np.abs(value) > LIGHTCONE_TOL)
    if refused.any():
        first = np.broadcast_to(value, refused.shape)[refused].flat[0]
        raise error(f"{what} = {first:.3e}")
    return value


def _scale(params: ConformalParams, x: FourVector, frame: CoordinateFrame):
    """Conformal scale of the inversion or special conformal map at x.

    x^2 or sigma at the source event in the ORIGINAL frame, their reciprocal
    read off the image event in the TRANSFORMED frame; guarded on the cones.
    """
    if isinstance(params, Inversion):
        x2 = _cone_guard(
            x.minkowski_sq(), LightConeError, "event too close to the light cone: x^2"
        )
        return x2 if frame is CoordinateFrame.ORIGINAL else 1.0 / x2
    if not isinstance(params, Sct):
        raise TypeError(f"unknown transformation parameters: {params!r}")
    a = params.a
    if frame is CoordinateFrame.ORIGINAL:
        return _cone_guard(
            sct_factor(x, a), SctConeError, "event too close to the excluded cone: scale"
        )
    # In image coordinates 1/s is the scale of the map by -a, which undoes a.
    return 1.0 / _cone_guard(
        sct_factor(x, FourVector.from_array(-a.as_array())),
        SctConeError, "image event too close to the excluded cone: 1/scale",
    )


def _sct_versors(
    x: FourVector, a: FourVector, frame: CoordinateFrame
) -> tuple[Multivector13, Multivector13]:
    """1 + a x and 1 + x a at the source event, 1 - x a and 1 - a x at the image."""
    one = Multivector13.scalar(1.0)
    am, xm = a.to_mv(), x.to_mv()
    ax = geometric_product(am, xm)
    xa = geometric_product(xm, am)
    if frame is CoordinateFrame.ORIGINAL:
        return one + ax, one + xa
    return one - xa, one - ax


def _project(
    kind: QuantityKind,
    out: Multivector13,
    operands: tuple[Multivector13, ...],
    weight,
    unguarded=False,
):
    """The kind's grade of the sandwich out, times weight (one per row).

    Roundoff in a sandwich grows with the sizes of its operands, not with the
    size of its result, which cancellation can make much smaller; so the
    off-grade residue is measured against the product of the operands'
    largest coefficients, floored at 1 as in grade_project.  Rows where
    unguarded is true skip that guard.
    """
    g = 2 if kind is QuantityKind.FARADAY else 1
    residue = out.grade_residue(g)
    # The bound is at least GRADE_TOL, so only a larger residue needs the sizes.
    if not (residue <= GRADE_TOL).all():
        size = np.broadcast_to(math.prod(m.max_abs() for m in operands), residue.shape)
        refused = ~(residue <= GRADE_TOL * np.fmax(1.0, size)) & ~np.asarray(unguarded)
        if refused.any():
            raise GradeLeakageError(
                f"grade-{g} sandwich residue {np.asarray(residue)[refused].flat[0]:.3e} "
                f"exceeds {GRADE_TOL:.1e} * {size[refused].flat[0]:.3e}"
            )
    c = (weight * out).c
    return Faraday13._from_blades(c) if g == 2 else FourVector._from_blades(c)


def _position(params: ConformalParams, x: FourVector) -> FourVector:
    if isinstance(params, Dilation):
        return FourVector.from_array(x.as_array() / params.factor)
    if isinstance(params, Translation):
        return FourVector.from_array(x.as_array() + params.offset.as_array())
    s = np.asarray(_scale(params, x, CoordinateFrame.ORIGINAL))[..., None]
    if isinstance(params, Inversion):
        eps = np.asarray(params.eps)[..., None]
        return FourVector.from_array(eps * x.as_array() / s)
    a = params.a.as_array()
    x2 = np.asarray(x.minkowski_sq())[..., None]
    return FourVector.from_array((x.as_array() + x2 * a) / s)


# Power of the conformal scale weighting each kind's sandwich in the ORIGINAL
# frame; the TRANSFORMED frame adds 2, and a dilation weights by its factor
# to one power more.
_SCALE_POWER = {
    QuantityKind.POTENTIAL: 0,
    QuantityKind.CURRENT: 2,
    QuantityKind.FARADAY: 1,
}


def transform(
    params: ConformalParams,
    kind: QuantityKind,
    value,
    x: FourVector | None = None,
    frame: CoordinateFrame = CoordinateFrame.ORIGINAL,
):
    """The map params applied to value, a quantity of the given kind.

    value is a FourVector, or a Faraday13 for the field.  A position maps on
    its own and ignores x and frame.  Potential, current and field sit at the
    event x, which the inversion and the special conformal map read: the
    source event in the ORIGINAL frame, the image event in the TRANSFORMED
    frame.  There the result is the sandwich of value by x (inversion) or by
    the versors 1 + a x, 1 + x a (special conformal), weighted by the kind's
    power of the scale; the inversion field also carries the sign -eps.
    value, x, the special conformal vector, the inversion sign eps and a
    Lorentz map (see Lorentz) may be batches, eps one sign per row; the
    result has their broadcast batch shape.
    """
    if isinstance(params, Lorentz):
        L, Li = _lorentz_rotors(params)
        return _lorentz_sandwich(kind, value, L, Li, params.class_flags())
    if kind is QuantityKind.POSITION:
        return _position(params, value)
    if isinstance(params, Dilation):
        w = params.factor ** (_SCALE_POWER[kind] + 1)
        if kind is QuantityKind.FARADAY:
            return Faraday13(w * value.E, w * value.B)
        return FourVector.from_array(w * value.as_array())
    if isinstance(params, Translation):
        return value
    scale = _scale(params, x, frame)
    sign = 1
    if isinstance(params, Inversion):
        left = right = x.to_mv()
        if kind is QuantityKind.FARADAY:
            sign = -np.asarray(params.eps)
    else:
        left, right = _sct_versors(x, params.a, frame)
    p = _SCALE_POWER[kind] + (0 if frame is CoordinateFrame.ORIGINAL else 2)
    q = value.to_mv()
    out = vector_sandwich(left, q, right)
    # np.power, not **: on the numpy scalar of a single event ** takes
    # another pow than the ufunc loop of a batch.
    return _project(kind, out, (left, q, right), sign * np.power(scale, p))


# -- Lorentz --------------------------------------------------------------------


def _lorentz_generator(boost, rotation) -> Multivector13:
    """Bivector generator from boost and rotation 3-vectors.

    The generator occupies the same six blades as the Faraday bivector with
    boost in the electric channels and rotation in the magnetic ones.
    """
    return Faraday13(np.asarray(boost, float), np.asarray(rotation, float)).to_mv()


def _lorentz_rotors(params: Lorentz) -> tuple[Multivector13, Multivector13]:
    """The rotor exp(G) of the generator G and its inverse exp(-G), which is
    its reverse."""
    L = exp_bivector(_lorentz_generator(params.boost, params.rotation), EXP_TOL)
    return L, L.reverse()


def _lorentz_sandwich(kind: QuantityKind, value, L: Multivector13, Li: Multivector13, flags):
    """Sandwich by the rotor pair L, Li, adjusted per Lorentz class.

    flags are (improper, antichronous) bool arrays, as Lorentz.class_flags
    gives them, that broadcast against the batch.  The improper rows take
    the sandwich wrapped in the timelike reflection, which is computed only
    if some row is improper; the antichronous rows flip the overall sign of
    position and field but not of potential or current.  The rotor grows as
    e^|b|, so past |b| of about 355 the image leaves the float64 range: such
    a row skips the residue guard and is returned as the arithmetic gave
    it, for the caller to check.
    """
    improper, antichronous = flags
    q = value.to_mv()
    out = vector_sandwich(L, q, Li)
    if improper.any():
        e0 = Multivector13.basis_vector(0)
        reflected = vector_sandwich(e0, out, e0)
        out = Multivector13._wrap(
            np.where(improper[..., None], reflected.c, out.c), reflected.m | out.m
        )
    flip = antichronous & (kind in (QuantityKind.POSITION, QuantityKind.FARADAY))
    weight = np.where(flip, -1.0, 1.0)
    overflowed = ~np.isfinite(out.max_abs())
    return _project(kind, out, (L, q, Li), weight, overflowed)


def induced_matrix(params: Lorentz) -> np.ndarray:
    """4x4 coordinate matrix of the position action, columns by basis image:
    the four basis events are mapped as one batch, on an axis that follows
    the map's batch axes (rotors and class flags alike).  For n maps, by
    boost and rotation of shape (n, 3) or by n classes, the result has shape
    (n, 4, 4)."""
    L, Li = (
        Multivector13._wrap(m.c[..., None, :], m.m) for m in _lorentz_rotors(params)
    )
    basis = FourVector.from_array(np.eye(4))
    flags = tuple(f[..., None] for f in params.class_flags())
    out = _lorentz_sandwich(QuantityKind.POSITION, basis, L, Li, flags)
    return np.swapaxes(out.as_array(), -1, -2)
