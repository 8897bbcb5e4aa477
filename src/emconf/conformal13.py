"""Conformal transformations of electromagnetic quantities in Cl(1,3).

One entry, transform(params, kind, value, x, frame), applies any of the five
families (dilation, translation, Lorentz, inversion, special conformal) to a
position, potential, current or field.  The Lorentz map of every class and
the two nonlinear maps are one rule: a sandwich of the quantity between a
left and a right versor (parity images of all three on an improper Lorentz
row), which the nonlinear maps weight by a power of the conformal scale
that the kind and the CoordinateFrame fix.  ORIGINAL takes the source
event, TRANSFORMED takes the image event and carries two more powers of the
scale.

transform_kinds(params, values, x, frame) maps several (kind, value) pairs
at the same events: the scale, its cone guards and the versors depend on
the map and the events alone, so they are computed once, and each kind
takes its own sandwich and weight.  transform is its one-kind case, by the
same kernel, so each image has the same bits either way.

Values, events and the maps' parameters may be batches (see cl13 and
maps.rows): one call maps every row, and a guard raises the typed error of
the first refused row.  A row whose value is not finite raises nothing and
is returned as computed, for the caller to check.
"""

from __future__ import annotations

import math

import numpy as np

from .cl13 import (
    DIM,
    GRADE_OF,
    Faraday13,
    FourVector,
    Multivector13,
    exp_bivector,
    geometric_product,
    vector_sandwich,
)
from .errors import GradeLeakageError, LightConeError, SctConeError
from .maps import (
    GRADE_TOL,
    LIGHTCONE_TOL,
    ConformalParams,
    CoordinateFrame,
    Dilation,
    Inversion,
    Lorentz,
    QuantityKind,
    Sct,
    Translation,
)


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
    if frame is CoordinateFrame.ORIGINAL:
        return _cone_guard(
            sct_factor(x, FourVector.from_array(params.a)),
            SctConeError, "event too close to the excluded cone: scale",
        )
    # In image coordinates 1/s is the scale of the map by -a, which undoes a.
    return 1.0 / _cone_guard(
        sct_factor(x, FourVector.from_array(-params.a)),
        SctConeError, "image event too close to the excluded cone: 1/scale",
    )


def _project(kind: QuantityKind, out: Multivector13, operands: tuple[Multivector13, ...], weight):
    """The kind's grade of the sandwich out, times weight (one per row).

    Roundoff in a sandwich grows with the sizes of its operands, not with the
    size of its result, which cancellation can make much smaller; so the
    off-grade residue is measured against the product of the operands'
    largest coefficients, floored at 1 as in grade_project.  A row whose
    result is not finite passes the guard and is returned as the arithmetic
    gave it, for the caller to check.
    """
    cls = Faraday13 if kind is QuantityKind.FARADAY else FourVector
    g = cls._GRADE
    residue = out.grade_residue(g)
    c = (weight * out).c
    # The bound is at least GRADE_TOL, so only a larger residue needs the sizes.
    if not (residue <= GRADE_TOL).all():
        size = np.broadcast_to(math.prod(m.max_abs() for m in operands), residue.shape)
        refused = ~(residue <= GRADE_TOL * np.fmax(1.0, size)) & np.isfinite(c).all(axis=-1)
        if refused.any():
            raise GradeLeakageError(
                f"grade-{g} sandwich residue {np.asarray(residue)[refused].flat[0]:.3e} "
                f"exceeds {GRADE_TOL:.1e} * {size[refused].flat[0]:.3e}"
            )
    return cls._from_blades(c)


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
    frame.  There, and for a Lorentz map, the result is one sandwich of
    value between the map's two versors (see _versors): x and x for the
    inversion, 1 + a x and 1 + x a for the special conformal map at the
    source event, the rotor and its reverse for the Lorentz map, with the
    parity images of both and of value on its improper rows.  The inversion and
    the special conformal map weight it by the kind's power of the scale,
    and the inversion field carries the sign -eps; the antichronous Lorentz
    rows flip the sign of position and field.
    value, x and the map may be batches; the result has the broadcast shape
    of their rows (see maps.rows), also where the map does not read x or
    the kind does not read eps.
    """
    return _transform(params, ((kind, value),), x, frame)[0]


def transform_kinds(
    params: ConformalParams,
    values,
    x: FourVector | None = None,
    frame: CoordinateFrame = CoordinateFrame.ORIGINAL,
) -> tuple:
    """transform of each (kind, value) pair of values, one map at the events
    x of one frame: a tuple of the images, in the order of values, each with
    the bits and the shape of its own transform call.  The scale, its cone
    guards and the versors are computed once for every kind; a guard raises
    the error that the calls in turn would raise first.  A position is its
    own event, so a POSITION pair comes alone, as in transform; among other
    pairs it is a ValueError.
    """
    return _transform(params, tuple(values), x, frame)


def _versors(params: ConformalParams, x: FourVector, frame: CoordinateFrame):
    """The left and right versors of the sandwich: the rotor exp(G) and its
    reverse exp(-G) for a Lorentz map, where the generator G occupies the
    Faraday bivector's blades, the boost in the electric channels and the
    rotation in the magnetic ones, parity images on the improper rows (see
    _parity); x twice for the inversion; 1 + a x and its reverse 1 + x a at
    the source event, 1 - x a and 1 - a x at the image event, for the
    special conformal map."""
    if isinstance(params, Lorentz):
        L = _parity(params, exp_bivector(Faraday13(params.boost, params.rotation).to_mv()))
        return L, L.reverse()
    xm = x.to_mv()
    if isinstance(params, Inversion):
        return xm, xm
    ax = geometric_product(FourVector.from_array(params.a).to_mv(), xm)
    if frame is CoordinateFrame.ORIGINAL:
        return _ONE + ax, _ONE + ax.reverse()
    return _ONE - ax.reverse(), _ONE - ax


_ONE = Multivector13.scalar(1.0)
# Parity m -> e0 m e0 negates the blades with an odd number of e1, e2, e3.
_PARITY_SIGN = np.where(GRADE_OF[np.arange(DIM) & 0b1110] % 2, -1.0, 1.0)


def _parity(params: Lorentz, m: Multivector13) -> Multivector13:
    """m, with its parity image on the improper rows of params, computed
    only if some row is improper.  Parity is an automorphism that commutes
    with reversion, so the reflected image e0 (L q L~) e0 is the one
    sandwich of e0 q e0 by e0 L e0 and its reverse."""
    if not params.improper.any():
        return m
    c = np.where(params.improper[..., None], m.c * _PARITY_SIGN, m.c)
    return Multivector13._wrap(c, m.m)


def _transform(params, values, x, frame) -> tuple:
    """The image of each (kind, value) pair of values at the events x of
    frame; a position pair comes alone and is its own event in the ORIGINAL
    frame.  Each image has the broadcast shape of the map's, the value's
    and the events' rows.  The scale and the versors are computed once,
    each kind's sandwich, weight and grade guard in the order of values."""
    position = any(kind is QuantityKind.POSITION for kind, _ in values)
    if position:
        if len(values) > 1:
            raise ValueError("a position is its own event: map it alone")
        x, frame = values[0][1], CoordinateFrame.ORIGINAL
    xs = () if x is None else (x.c.shape[:-1],)
    scale = versors = None
    if isinstance(params, (Inversion, Sct)):
        scale = _scale(params, x, frame)
    if isinstance(params, Lorentz) or (scale is not None and not position):
        versors = _versors(params, x, frame)
    outs = []
    for kind, value in values:
        out = _image(params, kind, value, scale, versors, frame)
        rows = np.broadcast_shapes(params.rows, value.c.shape[:-1], *xs)
        if out.c.shape[:-1] != rows:
            out = type(out).from_array(np.broadcast_to(out.c, rows + out.c.shape[-1:]))
        outs.append(out)
    return tuple(outs)


def _image(params, kind, value, scale, versors, frame):
    """The image of one value of the kind, from the map's scale and versors
    at its events (None where the map or the kind reads none)."""
    position = kind is QuantityKind.POSITION
    if isinstance(params, Dilation):
        if position:
            return FourVector.from_array(value.as_array() / params.factor[..., None])
        # np.power, as for the scale below.
        w = np.power(params.factor, _SCALE_POWER[kind] + 1)[..., None]
        return type(value).from_array(w * value.as_array())
    if isinstance(params, Translation):
        return FourVector.from_array(value.as_array() + params.offset) if position else value
    if isinstance(params, Lorentz):
        flip = params.antichronous & (kind in (QuantityKind.POSITION, QuantityKind.FARADAY))
        q, weight = _parity(params, value.to_mv()), np.where(flip, -1.0, 1.0)
    elif position:
        s = np.asarray(scale)[..., None]
        if isinstance(params, Inversion):
            return FourVector.from_array(params.eps[..., None] * value.as_array() / s)
        x2 = np.asarray(value.minkowski_sq())[..., None]
        return FourVector.from_array((value.as_array() + x2 * params.a) / s)
    else:
        sign = -params.eps if isinstance(params, Inversion) and kind is QuantityKind.FARADAY else 1
        p = _SCALE_POWER[kind] + (0 if frame is CoordinateFrame.ORIGINAL else 2)
        # np.power, not **: on the numpy scalar of a single event ** takes
        # another pow than the ufunc loop of a batch.
        q, weight = value.to_mv(), sign * np.power(scale, p)
    left, right = versors
    return _project(kind, vector_sandwich(left, q, right), (left, q, right), weight)


def induced_matrix(params: Lorentz) -> np.ndarray:
    """4x4 coordinate matrix of the position action, columns by basis image:
    the four basis events are mapped as one batch, on an axis ahead of the
    map's rows.  For n maps, by boost and rotation of shape (n, 3) or by n
    classes, the result has shape (n, 4, 4)."""
    basis = FourVector.from_array(np.eye(4).reshape((4,) + (1,) * len(params.rows) + (4,)))
    out = _transform(params, ((QuantityKind.POSITION, basis),), None, CoordinateFrame.ORIGINAL)
    return np.moveaxis(out[0].as_array(), 0, -1)
