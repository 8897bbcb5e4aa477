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
conformal scale.  J and the scale depend on the map and the events, not on
the kind, so transform_kinds_rows maps several (kind, value) pairs at the
same events with one J, one left conjugate bar(J)* and one scale, and
transform_rows is its one-kind case, by the same kernel.  preimage_rows
maps image events back to their sources, which sweeps in the TRANSFORMED
frame need: the inverse of a Vahlen matrix is a map of the same family,
and a preimage is the image under it.

Every function here takes a batch of events and values (see cl3: a leading
batch shape, shape () for one element) and runs one array kernel over it.
Inside the kernel a guard does not raise: it records a Refusal code for its
rows in a per-row ledger and lets the row go on with a placeholder, so the
other rows are computed in the same call.  One shape rule, _batch_shape,
holds for every entry: its ledger, its scale and its result have the
broadcast shape of its events, its values and the map's rows (see
maps), also where the map does not read the events.  The Cl(1,3) transform
follows the same rule.  Each entry evaluates the conformal scale once, and
each kind's scale array is that scale at the kind's shape.  transform_rows
and preimage_rows hand the ledger back, and transform_rows the scale it
weighted by; transform3, the raising form of transform_rows, raises the
typed error of the first refused row, which for one element is the error
of that element.  The kernel uses ufuncs only, in
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

    CHARGE comes from a field's singular point (see fields.sweep), and
    NON_FINITE from any image or preimage that is not finite, of every
    family and kind, before the residue guard reads it; the other codes
    come from this module's guards.
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


def _cone_guard(value, code: Refusal):
    """value with the rows too close to zero (or NaN) set to 1, and those
    rows with code, or None if there are none."""
    refused = ~(np.abs(value) > LIGHTCONE_TOL)
    if not refused.any():
        return value, None
    return np.where(refused, 1.0, value), (refused, code)


def _scale_rows(params: ConformalParams, x: Paravector3, frame):
    """The conformal scale at each event of x, and the rows its cone guard
    refuses with their Refusal code (None if it refuses none): Omega for
    the inversion, sigma for the special conformal map, the factor of a
    dilation and 1 for the isometries.  The inversion and the special
    conformal map read x as the source event in the ORIGINAL frame and as
    the image event in the TRANSFORMED frame, and refuse an x on their
    cones."""
    w, cone = 1.0, None
    if isinstance(params, Dilation):
        w = params.factor
    elif isinstance(params, Inversion):
        # An event's imaginary part is the image of a four-vector's off-grade
        # (trivector) part, which minkowski_square holds to the grade tolerance.
        w, cone = _cone_guard(minkowski_square(x), Refusal.LIGHT_CONE)
    elif isinstance(params, Sct):
        # At the image event, sigma of the map by -a, which undoes the map by a.
        a = Paravector3.from_event(params.a)
        w, cone = _cone_guard(sct_factor3(x, a if frame is _ORIG else -a), Refusal.SCT_CONE)
    if frame is not _ORIG and isinstance(params, (Inversion, Sct)):
        w = 1.0 / w
    return w, cone


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


def _finite_rows(q) -> np.ndarray:
    """The rows of a paravector or a field with every component finite."""
    if isinstance(q, Faraday3):
        return np.isfinite(q.F).all(axis=-1)
    return np.isfinite(q.s) & np.isfinite(q.v).all(axis=-1)


def _value_rows(params, kind, value, x, frame, scale, reason, versor):
    """The image of value under every family and kind, with its rows refused
    in reason: NON_FINITE where the image is not finite, then RESIDUE where
    a product left a residue above tolerance.  versor keeps, for the kinds
    of one call, the map's J at x with its parity rows and left conjugate,
    and J's right conjugates by kind, each made when a kind first needs it."""
    field, position = kind is QuantityKind.FARADAY, kind is QuantityKind.POSITION
    guard = None
    if isinstance(params, Dilation):
        w = 1.0 / params.factor if position else np.power(params.factor, _SCALE_POWER[kind] + 1)
        out = Faraday3._wrap(w[..., None] * value.F) if field else w * value
    elif isinstance(params, Translation):
        out = value + Paravector3.from_event(params.offset) if position else value
    elif isinstance(params, Inversion) and position:
        # eps (1 / x^2) is eps / x^2 to the bit.
        out = (params.eps * (1.0 / scale)) * value
    else:
        if "J" not in versor:
            J, parity = _versor(params, x, frame)
            versor["J"] = J, parity, _conj(params, J, True, True)
        J, parity, left = versor["J"]
        q = value.to_paravector() if field else value
        if parity.any():
            q = _where(parity, q.star() if field else q.bar(), q)
        if position and isinstance(params, Sct):
            # One product, bar(J)* x / sigma.
            out = (1.0 / scale) * cl3_product(left, q)
        else:
            if field not in versor:
                versor[field] = _conj(params, J, not field, field)
            out = cl3_product(cl3_product(left, q), versor[field])
        if isinstance(params, Lorentz):
            # The antichronous rows flip position and field, never potential or current.
            flip = (parity != params.antichronous) if field else params.antichronous & position
            if flip.any():
                out = _where(flip, -out, out)
        elif not position:
            p = _SCALE_POWER[kind] + (0 if frame is _ORIG else 2)
            # No multiply at p = 0, which by 1 + 0j can flip a zero's sign.
            if p:
                sign = params.eps if field and isinstance(params, Inversion) else 1
                # np.power, not **: on the numpy scalar of a single event **
                # takes another pow than the ufunc loop.
                out = (sign * np.power(scale, p)) * out
        guard = vector_rows if field else real_rows
    # Past the float64 range (a Lorentz rotor grows as e^|b|, a weight as a
    # power of the scale) or from a value that is not finite.  np.isfinite
    # reads a complex component's parts, whose modulus may overflow where they do not.
    refuse(reason, ~_finite_rows(out), Refusal.NON_FINITE)
    if guard is None:
        return out
    out, refused = guard(out)
    refuse(reason, refused, Refusal.RESIDUE)
    return Faraday3._wrap(out) if field else out


def _transform_rows(params, values, x, frame) -> list:
    """transform_rows of each (kind, value) pair of values at the events x
    of frame; a position pair comes alone and is its own event in the
    ORIGINAL frame.  The scale, its cone guards, J and its left conjugate
    are computed once, J when a kind first needs it; each kind's ledger,
    scale array, sandwich, weight and guards in the order of values."""
    position = any(kind is QuantityKind.POSITION for kind, _ in values)
    if position:
        if len(values) > 1:
            raise ValueError("a position is its own event: map it alone")
        x, frame = values[0][1], _ORIG
    w, cone = _scale_rows(params, x, frame)
    results, versor = [], {}
    for kind, value in values:
        reason = no_refusals(_batch_shape(params, x, value))
        if cone is not None:
            refuse(reason, *cone)
        # Ones, not broadcast_to: the product is exact, and one event keeps the
        # numpy scalar that fields.predicted_invariant_factors raises with **.
        scale = w * np.ones(reason.shape)
        out = _value_rows(params, kind, value, x, frame, scale, reason, versor)
        rows = reason.shape
        if isinstance(out, Faraday3) and out.F.shape[:-1] != rows:
            out = Faraday3._wrap(np.broadcast_to(out.F, rows + (3,)))
        elif isinstance(out, Paravector3) and out.s.shape != rows:
            out = Paravector3._wrap(np.broadcast_to(out.s, rows), np.broadcast_to(out.v, rows + (3,)))
        results.append((out, scale, reason))
    return results


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
    return _transform_rows(params, ((kind, value),), x, frame)[0]


def transform_kinds_rows(
    params: ConformalParams,
    values,
    x: Paravector3 | None = None,
    frame: CoordinateFrame = _ORIG,
) -> list:
    """transform_rows of each (kind, value) pair of values, one map at the
    events x of one frame: a list of (value, scale, ledger) triples, in the
    order of values, each with the bits and the shapes of its own
    transform_rows call.  The scale, its cone guards, J and J's left
    conjugate are computed once for every kind; each kind has its own
    ledger.  A position is its own event, so a POSITION pair comes alone,
    as in transform_rows; among other pairs it is a ValueError."""
    return _transform_rows(params, tuple(values), x, frame)


def transform3(
    params: ConformalParams,
    kind: QuantityKind,
    value,
    x: Paravector3 | None = None,
    frame: CoordinateFrame = _ORIG,
):
    """The value of transform_rows, raising the typed error of the first
    refused row."""
    out, _, reason = _transform_rows(params, ((kind, value),), x, frame)[0]
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
    rounds once where the map by 1/factor rounds twice.  A preimage that is
    not finite is refused as NON_FINITE."""
    if isinstance(params, Dilation):
        out, reason = params.factor * x_new, no_refusals(_batch_shape(params, x_new))
        refuse(reason, ~_finite_rows(out), Refusal.NON_FINITE)
    else:
        out, _, reason = transform_rows(_inverse(params), QuantityKind.POSITION, x_new)
    return out, reason
