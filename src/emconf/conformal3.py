"""Conformal transformations in the paravector formulation Cl(3).

Same physics as the Cl(1,3) layer, independently implemented on complex
scalars and 3-vectors.  Events are real paravectors t + r; the field travels
as F = E + iB.  One entry, transform_rows(params, kind, value, x, frame),
applies every family to every kind.  The Lorentz map, the inversion and the
special conformal map are one sandwich by J = c x~ + d, the lower row of the
map's Vahlen matrix [[a, b], [c, d]] at the event (Vahlen, Math. Ann. 55,
1902; Ahlfors, Complex Variables 5, 1986): bar(J)* q~ bar(J) for a position,
potential or current q, and bar(J)* F~ J* for the field F, where q~ = bar(q)
and F~ = F* on the rows where the map acts on bar(x), q and F elsewhere.
The inversion and the special conformal map weight it by a power of the
conformal scale.  preimage_rows maps image events back to their sources,
which sweeps in the TRANSFORMED frame need: the inverse of a Vahlen matrix
is a map of the same family, and a preimage is the image under it.

Every function here takes a batch of events and values (see cl3: a leading
batch shape, shape () for one element) and runs one array kernel over it.
Inside the kernel a guard does not raise: it records a Refusal code for its
rows in a per-row ledger and lets the row go on with a placeholder, so the
other rows are computed in the same call.  One shape rule, _batch_shape,
holds for every entry: its ledger, its scale and its result have the
broadcast shape of its events, its values and the map's rows (see
maps), also where the map does not read the events.  The Cl(1,3) transform
follows the same rule.  Each entry evaluates the conformal scale once, at
that shape.  transform_rows and preimage_rows hand the ledger back, and
transform_rows the scale it weighted by; transform3, the raising form of
transform_rows, raises the typed error of the first refused row, which for
one element is the error of that element.  The kernel uses ufuncs only, in
a fixed order, so a row's bits are the same in a batch of one and in a
batch of many.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from .cl3 import (
    Faraday3,
    Paravector3,
    cl3_product,
    dot3,
    exp_complex_vector,
    minkowski_square,
    real_rows,
    vector_rows,
)
from .errors import ImaginaryResidueError, LightConeError, SctConeError
from .maps import (
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

_ORIG = CoordinateFrame.ORIGINAL


class Refusal(IntEnum):
    """Why a row was refused, or OK; the first guard to refuse a row names it.

    CHARGE comes from a field's singular point and NON_FINITE from a sweep's
    check of its outputs (see fields.sweep) or from a Lorentz image past the
    float64 range; the other codes come from this module's guards.
    """

    OK = 0
    CHARGE = 1
    LIGHT_CONE = 2
    SCT_CONE = 3
    RESIDUE = 4
    NON_FINITE = 5


# The typed error each refusal of this module names.  The field raises its
# own OriginSingularityError, and NON_FINITE names no error: a non-finite
# value is returned as the arithmetic gave it, for the caller to check, and
# the raising entries raise only for the rows refused with an error.
_ERRORS = {
    Refusal.LIGHT_CONE: (LightConeError, "event too close to the light cone"),
    Refusal.SCT_CONE: (
        SctConeError, "event too close to the excluded cone of the special conformal map"
    ),
    Refusal.RESIDUE: (
        ImaginaryResidueError, "sandwich left an imaginary or scalar residue above tolerance"
    ),
}


def no_refusals(shape) -> np.ndarray:
    """A refusal ledger for a batch of the given shape, every row OK."""
    return np.zeros(shape, dtype=np.int8)


# Plain ints: numpy compares an array with an IntEnum member several times slower.
_OK, _NON_FINITE = int(Refusal.OK), int(Refusal.NON_FINITE)


def refuse(reason: np.ndarray, rows, code) -> None:
    """Record code (one value, or one per row) in the ledger for the given
    rows, except where an earlier guard already refused the row."""
    if rows.any():
        np.copyto(reason, code, where=rows & (reason == _OK))


def raise_refusal(reason: np.ndarray) -> None:
    """Raise the typed error of the first row of the ledger refused with
    one, if any."""
    if not reason.any():
        return
    named = (reason != _OK) & (reason != _NON_FINITE)
    if named.any():
        code = Refusal(int(reason[named].flat[0]))
        error, text = _ERRORS[code]
        raise error(text)


_ONE, _ZERO = Paravector3(1.0), Paravector3(0.0)


def sct_factor3(x: Paravector3, a: Paravector3):
    """sigma = 1 + 2 a.x + a^2 x^2, the scale of the special conformal map by
    the events a at the real events x; it equals J bar(J) for J = bar(a) x + 1.
    Like minkowski_square, it raises NonRealEventError for a non-real x."""
    t, r = x._event_parts()
    a0, av = a.s.real, a.v.real
    return (
        1.0
        + 2.0 * (a0 * t - dot3(av, r))
        + (a0 * a0 - dot3(av, av)) * (t * t - dot3(r, r))
    )


def _cone_guard(value, code: Refusal, reason: np.ndarray):
    """value with the rows too close to zero (or NaN) refused and set to 1."""
    refused = ~(np.abs(value) > LIGHTCONE_TOL)
    if not refused.any():
        return value
    refuse(reason, refused, code)
    return np.where(refused, 1.0, value)


def _scale_rows(params: ConformalParams, x: Paravector3, frame, value):
    """The conformal scale at each event of x and a new ledger of its
    refusals: Omega for the inversion, sigma for the special conformal map,
    the factor of a dilation and 1 for the isometries.  The inversion and the
    special conformal map read x as the source event in the ORIGINAL frame
    and as the image event in the TRANSFORMED frame, and refuse an x on
    their cones."""
    reason = no_refusals(_batch_shape(params, x, value))
    w = 1.0
    if isinstance(params, Dilation):
        w = params.factor
    elif isinstance(params, Inversion):
        # An event's imaginary part is the image of a four-vector's off-grade
        # (trivector) part, which minkowski_square holds to the grade tolerance.
        w = _cone_guard(minkowski_square(x), Refusal.LIGHT_CONE, reason)
    elif isinstance(params, Sct):
        # At the image event, sigma of the map by -a, which undoes the map by a.
        a = Paravector3.from_event(params.a)
        w = _cone_guard(sct_factor3(x, a if frame is _ORIG else -a), Refusal.SCT_CONE, reason)
    if frame is not _ORIG and isinstance(params, (Inversion, Sct)):
        w = 1.0 / w
    # Ones, not broadcast_to: the product is exact, and one event keeps the
    # numpy scalar that fields.predicted_invariant_factors raises with **.
    return w * np.ones(reason.shape), reason


def _real_guard(p: Paravector3, reason) -> Paravector3:
    real, refused = real_rows(p)
    refuse(reason, refused, Refusal.RESIDUE)
    return real


def _field_guard(p: Paravector3, reason) -> Faraday3:
    F, refused = vector_rows(p)
    refuse(reason, refused, Refusal.RESIDUE)
    return Faraday3._wrap(F)


def _position3(params: ConformalParams, x: Paravector3, k, reason) -> Paravector3:
    """The map of the events x, k bar(J)* x for the special conformal map,
    with k 1/x^2 or 1/sigma (eps k is eps / x^2 to the bit)."""
    if isinstance(params, Dilation):
        return (1.0 / params.factor) * x
    if isinstance(params, Translation):
        return x + Paravector3.from_event(params.offset)
    if isinstance(params, Inversion):
        return (params.eps * k) * x
    left = _conj(params, _versor(params, x, _ORIG)[0], True, True)
    return _real_guard(k * cl3_product(left, x), reason)


# Power of the conformal scale weighting each kind's sandwich in the ORIGINAL
# frame; the TRANSFORMED frame adds 2, and a dilation weights by its factor
# to one power more.
_SCALE_POWER = {
    QuantityKind.POTENTIAL: 0,
    QuantityKind.CURRENT: 2,
    QuantityKind.FARADAY: 1,
}


def _batch_shape(params: ConformalParams, *values) -> tuple:
    """The shape rule: the broadcast shape of the values (None skipped) and
    the map's rows."""
    shapes = [
        v.F.shape[:-1] if isinstance(v, Faraday3) else v.s.shape for v in values if v is not None
    ]
    return np.broadcast_shapes(params.rows, *shapes)


def _where(mask, a: Paravector3, b: Paravector3) -> Paravector3:
    """a on the rows where mask holds, b on the others."""
    return Paravector3._wrap(np.where(mask, a.s, b.s), np.where(mask[..., None], a.v, b.v))


def _versor(params: ConformalParams, x: Paravector3, frame):
    """J = c x~ + d at each event, from the lower row [c, d] of the map's
    Vahlen matrix, and the parity rows, where the map acts on x~ = bar(x).

    The Lorentz map takes bar(L)* on its proper rows and L on its improper
    ones, for the rotor L = exp(boost + i rotation), in either frame; the
    inversion takes bar(x), every row a parity row; the special conformal
    map takes bar(a) x + 1 at the source event and 1 - bar(y) a at the image
    event y.  J bar(J) is the conformal scale at the source, and J at the
    image is J at the source times eps (the inversion) or 1, over the scale.
    """
    if isinstance(params, Lorentz):
        L = exp_complex_vector(params.boost + 1j * params.rotation)
        J, improper = L.bar().star(), params.improper
        return (_where(improper, L, J) if improper.any() else J), improper
    if isinstance(params, Inversion):
        return x.bar(), np.True_
    a = Paravector3.from_event(params.a)
    if frame is _ORIG:
        return cl3_product(a.bar(), x) + _ONE, np.False_
    return _ONE - cl3_product(x.bar(), a), np.False_


def _conj(params: ConformalParams, J: Paravector3, bar: bool, star: bool) -> Paravector3:
    """bar(J), J* or bar(J)*, keeping every zero's sign, which is printed: *
    is skipped on the inversion's J, a real event; a conjugate of the special
    conformal map's J = 1 + P is 1 + conj(P), whose zeros the sum leaves +0,
    so adding 0 undoes the sign a conjugation gives a zero."""
    if bar:
        J = J.bar()
    if star and not isinstance(params, Inversion):
        J = J.star()
    return J + _ZERO if isinstance(params, Sct) else J


def _value_rows(params, kind, value, x, frame, scale, reason):
    lorentz = isinstance(params, Lorentz)
    if kind is QuantityKind.POSITION and not lorentz:
        return _position3(params, value, 1.0 / scale, reason)
    field = kind is QuantityKind.FARADAY
    if isinstance(params, Dilation):
        w = np.power(params.factor, _SCALE_POWER[kind] + 1)
        return Faraday3._wrap(w[..., None] * value.F) if field else w * value
    if isinstance(params, Translation):
        return value
    J, parity = _versor(params, x, frame)
    q = value.to_paravector() if field else value
    if parity.any():
        q = _where(parity, q.star() if field else q.bar(), q)
    left, right = _conj(params, J, True, True), _conj(params, J, not field, field)
    raw = cl3_product(cl3_product(left, q), right)
    if lorentz:
        # The antichronous rows flip position and field, never potential or current.
        position = kind is QuantityKind.POSITION
        flip = (parity != params.antichronous) if field else params.antichronous & position
        if flip.any():
            raw = _where(flip, -raw, raw)
        # The rotor grows as e^|b|: past |b| of about 355 the image leaves the
        # float64 range.  A component's modulus may overflow where its parts do not.
        finite = np.isfinite(raw.s) & np.isfinite(raw.v).all(axis=-1)
        refuse(reason, ~finite, Refusal.NON_FINITE)
    else:
        p = _SCALE_POWER[kind] + (0 if frame is _ORIG else 2)
        # No multiply at p = 0, which by 1 + 0j can flip a zero's sign.
        if p:
            sign = params.eps if field and isinstance(params, Inversion) else 1
            # np.power, not **: on the numpy scalar of a single event ** takes
            # another pow than the ufunc loop.
            raw = (sign * np.power(scale, p)) * raw
    return _field_guard(raw, reason) if field else _real_guard(raw, reason)


def transform_rows(
    params: ConformalParams,
    kind: QuantityKind,
    value,
    x: Paravector3 | None = None,
    frame: CoordinateFrame = _ORIG,
) -> tuple[Paravector3 | Faraday3, np.ndarray, np.ndarray]:
    """The map params applied to value, a quantity of the given kind, the
    conformal scale that weighted it, and each row's Refusal code; rows that
    are not OK hold placeholder values.

    value is a real paravector, or a Faraday3 for the field.  A position maps
    on its own and ignores x and frame.  Potential, current and field sit at
    the event x, which the inversion and the special conformal map read: the
    source event in the ORIGINAL frame, the image event in the TRANSFORMED
    frame.  There, and for a Lorentz map, the result is the sandwich by the
    map's J (see _versor): bar(J)* q~ bar(J) for a potential or current and
    bar(J)* F~ J* for the field, the operand conjugated on the rows where
    the map acts on bar(x).  The inversion and the special conformal map
    weight it by the kind's power of the conformal scale, and the inversion
    field also carries the sign +eps.  A map that does not read x, and the
    inversion potential, which does not read eps, leave rows of the ledger
    out of their values: a read-only view adds them.
    """
    if kind is QuantityKind.POSITION:
        x, frame = value, _ORIG
    scale, reason = _scale_rows(params, x, frame, value)
    out = _value_rows(params, kind, value, x, frame, scale, reason)
    rows = reason.shape
    if isinstance(out, Faraday3) and out.F.shape[:-1] != rows:
        out = Faraday3._wrap(np.broadcast_to(out.F, rows + (3,)))
    elif isinstance(out, Paravector3) and out.s.shape != rows:
        out = Paravector3._wrap(np.broadcast_to(out.s, rows), np.broadcast_to(out.v, rows + (3,)))
    return out, scale, reason


def transform3(
    params: ConformalParams,
    kind: QuantityKind,
    value,
    x: Paravector3 | None = None,
    frame: CoordinateFrame = _ORIG,
):
    """The value of transform_rows, raising the typed error of the first
    refused row."""
    out, _, reason = transform_rows(params, kind, value, x, frame)
    raise_refusal(reason)
    return out


def induced_matrix3(params: Lorentz) -> np.ndarray:
    """Coordinate matrix of the position action, columns by basis image:
    the four basis events are mapped as one batch, on an axis ahead of the
    map's rows.  For n maps, by boost and rotation of shape (n, 3) or by n
    classes, the result has shape (n, 4, 4)."""
    basis = Paravector3.from_event(np.eye(4).reshape((4,) + (1,) * len(params.rows) + (4,)))
    return np.moveaxis(transform3(params, QuantityKind.POSITION, basis).event(), 0, -1)


# -- preimages -------------------------------------------------------------------


def _inverse(params: ConformalParams) -> ConformalParams:
    """The map of the same family that undoes params, for every family but
    the dilation (see preimage_rows): the translation by -offset, the special
    conformal map by -a, the inversion itself, or the Lorentz map of the
    same class.  A class acts as M Lambda(b, r) with M one of 1, P, -P, -1
    for the parity P, M M = 1 and P Lambda(b, r) P = Lambda(-b, r), so
    M Lambda(-b, -r) undoes a proper class and M Lambda(b, -r) an improper
    one; each row of a batch takes the boost its own class calls for."""
    if isinstance(params, Translation):
        return Translation(-params.offset)
    if isinstance(params, Sct):
        return Sct(-params.a)
    if isinstance(params, Lorentz):
        boost = np.where(params.improper[..., None], params.boost, -params.boost)
        return Lorentz(boost, -params.rotation, params.lorentz_class)
    return params


def preimage_rows(params: ConformalParams, x_new: Paravector3) -> tuple[Paravector3, np.ndarray]:
    """Preimage of each image event under the map, and each row's Refusal
    code (rows not OK hold placeholders): its image under the map that
    undoes params (see _inverse), or, for a dilation, factor times it, which
    rounds once where the map by 1/factor rounds twice."""
    if isinstance(params, Dilation):
        return params.factor * x_new, no_refusals(_batch_shape(params, x_new))
    out, _, reason = transform_rows(_inverse(params), QuantityKind.POSITION, x_new)
    return out, reason
