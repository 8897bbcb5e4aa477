"""Conformal transformations in the paravector formulation Cl(3).

Same physics as the Cl(1,3) layer, independently implemented on complex
scalars and 3-vectors.  Events are real paravectors t + r; the field travels
as F = E + iB.  One entry, transform_rows(params, kind, value, x, frame),
applies every family to every kind: the nonlinear maps as a sandwich
weighted by a power of the conformal scale.  Conjugation placement differs
between the potential-type and field sandwiches and between the two
coordinate presentations; each sandwich spells its own placement rather
than deriving one from another.  preimage_rows maps image events back to
their sources, which sweeps in the TRANSFORMED frame need.

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


_ONE = Paravector3(1.0)


def sct_factor3(x: Paravector3, a: Paravector3):
    t, r = x.s.real, x.v.real
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


def _scale_rows(params: ConformalParams, x: Paravector3, frame, *values):
    """The conformal scale at each event of x and a new ledger of its
    refusals: Omega for the inversion, sigma for the special conformal map,
    the factor of a dilation and 1 for the isometries.  The inversion and the
    special conformal map read x as the source event in the ORIGINAL frame
    and as the image event in the TRANSFORMED frame, and refuse an x on
    their cones."""
    reason = no_refusals(_batch_shape(params, x, *values))
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


def _sct_position3(x: Paravector3, a: Paravector3, k, reason) -> Paravector3:
    raw = cl3_product(_ONE + cl3_product(a, x.bar()), x)
    return _real_guard(k * raw, reason)


def _position3(params: ConformalParams, x: Paravector3, k, reason) -> Paravector3:
    """The map of the events x; k is 1/x^2 or 1/sigma (eps k is eps / x^2 to the bit)."""
    if isinstance(params, Dilation):
        return (1.0 / params.factor) * x
    if isinstance(params, Translation):
        return x + Paravector3.from_event(params.offset)
    if isinstance(params, Inversion):
        return (params.eps * k) * x
    return _sct_position3(x, Paravector3.from_event(params.a), k, reason)


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


def _value_rows(params, kind, value, x, frame, scale, reason):
    if isinstance(params, Lorentz):
        return _lorentz_sandwich(kind, value, params, reason)
    if kind is QuantityKind.POSITION:
        return _position3(params, value, 1.0 / scale, reason)
    field = kind is QuantityKind.FARADAY
    if isinstance(params, Dilation):
        w = np.power(params.factor, _SCALE_POWER[kind] + 1)
        return Faraday3._wrap(w[..., None] * value.F) if field else w * value
    if isinstance(params, Translation):
        return value
    sign = 1
    if isinstance(params, Inversion):
        if field:
            raw = cl3_product(cl3_product(x, value.to_paravector().star()), x.bar())
            sign = params.eps
        else:
            raw = cl3_product(cl3_product(x, value.bar()), x)
    else:
        a = Paravector3.from_event(params.a)
        if frame is _ORIG:
            left = _ONE + cl3_product(a, x.bar())
            if field:
                right = _ONE + cl3_product(x, a.bar())
            else:
                right = _ONE + cl3_product(x.bar(), a)
        else:
            left = _ONE - cl3_product(x, a.bar())
            if field:
                right = _ONE - cl3_product(a, x.bar())
            else:
                right = _ONE - cl3_product(a.bar(), x)
        q = value.to_paravector() if field else value
        raw = cl3_product(cl3_product(left, q), right)
    p = _SCALE_POWER[kind] + (0 if frame is _ORIG else 2)
    # No multiply at p = 0, which by 1 + 0j can flip a zero's sign.
    if p:
        # np.power, not **: on the numpy scalar of a single event ** takes
        # another pow than the ufunc loop.
        raw = (sign * np.power(scale, p)) * raw
    if field:
        return _field_guard(raw, reason)
    return _real_guard(raw, reason)


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
    frame.  There the result is a sandwich of value, weighted by the kind's
    power of the conformal scale; the inversion field also carries the sign
    +eps.  The conjugations in each sandwich are spelled out per map, kind
    and frame.  A map that does not read x, and the inversion potential,
    which does not read eps, leave rows of the ledger out of their values: a
    read-only view adds them.
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


# -- Lorentz ----------------------------------------------------------------------


def _where(mask, a: Paravector3, b: Paravector3) -> Paravector3:
    """a on the rows where mask holds, b on the others."""
    return Paravector3._wrap(np.where(mask, a.s, b.s), np.where(mask[..., None], a.v, b.v))


def _lorentz_sandwich(kind: QuantityKind, value, params: Lorentz, reason):
    """Class-resolved sandwich by the rotor L = exp(boost + i rotation).

    Orthochronous-proper sandwiches are L W L* for paravector kinds and
    L F bar(L) for the field.  The improper rows conjugate the operand
    (bar(W), or F*) and take the rotor bar(L)*, which swaps the decorations
    of the outer factors; both are picked per row, and only if some row is
    improper.
    The antichronous rows flip the sign of position (paravector side) and
    field, never of potential or current.  The rotor grows as e^|b|, so
    past |b| of about 355 the image leaves the float64 range: such a row is
    NON_FINITE, not a residue.
    """
    L = exp_complex_vector(params.boost + 1j * params.rotation)
    improper, antichronous = params.improper, params.antichronous
    field = kind is QuantityKind.FARADAY
    q = value.to_paravector() if field else value
    if improper.any():
        L = _where(improper, L.bar().star(), L)
        q = _where(improper, q.star() if field else q.bar(), q)
    raw = cl3_product(cl3_product(L, q), L.bar() if field else L.star())
    flip = (improper != antichronous) if field else antichronous & (kind is QuantityKind.POSITION)
    if flip.any():
        raw = _where(flip, -raw, raw)
    refuse(reason, ~np.isfinite(raw.max_abs()), Refusal.NON_FINITE)
    return _field_guard(raw, reason) if field else _real_guard(raw, reason)


def induced_matrix3(params: Lorentz) -> np.ndarray:
    """Coordinate matrix of the position action, columns by basis image:
    the four basis events are mapped as one batch, on an axis ahead of the
    map's rows.  For n maps, by boost and rotation of shape (n, 3) or by n
    classes, the result has shape (n, 4, 4)."""
    basis = Paravector3.from_event(np.eye(4).reshape((4,) + (1,) * len(params.rows) + (4,)))
    reason = no_refusals(_batch_shape(params, basis))
    out = _lorentz_sandwich(QuantityKind.POSITION, basis, params, reason)
    raise_refusal(reason)
    return np.moveaxis(out.event(), 0, -1)


def _inverse_lorentz(params: Lorentz) -> Lorentz:
    """The map of the same class that undoes params: a class acts as
    M Lambda(b, r) with M one of 1, P, -P, -1 for the parity P, M M = 1 and
    P Lambda(b, r) P = Lambda(-b, r), so M Lambda(-b, -r) undoes a proper
    class and M Lambda(b, -r) an improper one; each row of a batch takes
    the boost its own class calls for."""
    boost = np.where(params.improper[..., None], params.boost, -params.boost)
    return Lorentz(boost, -params.rotation, params.lorentz_class)


# -- preimages and sweeps --------------------------------------------------------


def _apply_matrix(mat: np.ndarray, x: Paravector3) -> Paravector3:
    """mat times the coordinates of each event, as explicit four-term sums;
    a batch of matrices of shape (..., 4, 4) maps each event by its own."""
    c = x.event()[..., None, :]
    terms = [mat[..., j] * c[..., j] for j in range(4)]
    return Paravector3.from_event(terms[0] + terms[1] + terms[2] + terms[3])


def _inverse_rows(params: ConformalParams, x_new: Paravector3, scale, reason) -> Paravector3:
    """Preimages of x_new, given the TRANSFORMED-frame scale there."""
    if isinstance(params, Dilation):
        return params.factor * x_new
    if isinstance(params, Translation):
        return x_new - Paravector3.from_event(params.offset)
    if isinstance(params, Lorentz):
        return _apply_matrix(induced_matrix3(_inverse_lorentz(params)), x_new)
    if isinstance(params, Inversion):
        return _position3(params, x_new, scale, reason)
    # The special conformal map with -a undoes the one with a.
    return _sct_position3(x_new, -Paravector3.from_event(params.a), scale, reason)


def preimage_rows(params: ConformalParams, x_new: Paravector3) -> tuple[Paravector3, np.ndarray]:
    """Preimage of each image event under the parametrized map, and each
    row's Refusal code; rows that are not OK hold placeholder values."""
    scale, reason = _scale_rows(params, x_new, CoordinateFrame.TRANSFORMED)
    return _inverse_rows(params, x_new, scale, reason), reason
