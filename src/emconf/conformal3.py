"""Conformal transformations in the paravector formulation Cl(3).

Same physics as the Cl(1,3) layer, independently implemented on complex
scalars and 3-vectors.  Events are real paravectors t + r; the field travels
as F = E + iB.  One entry, transform3(params, kind, value, x, frame), applies
every family to every kind: the nonlinear maps as a sandwich weighted by a
power of scale_of.  Conjugation placement differs between the potential-type
and field sandwiches and between the two coordinate presentations; each
sandwich spells its own placement rather than deriving one from another.
inverse_position3 and PreparedTransform3 serve sweeps over image events.
"""

from __future__ import annotations

import numpy as np

from .cl3 import (
    Faraday3,
    Paravector3,
    cl3_product,
    exp_complex_vector,
    minkowski_square,
    pure_vector,
    real_paravector,
)
from .conformal13 import (
    EXP_TOL,
    LIGHTCONE_TOL,
    RESIDUE_TOL,
    ConformalParams,
    CoordinateFrame,
    Dilation,
    Inversion,
    Lorentz,
    LorentzClass,
    QuantityKind,
    Sct,
    Translation,
)
from .errors import LightConeError, SctConeError

_ORIG = CoordinateFrame.ORIGINAL


def _event_parts(x: Paravector3) -> tuple[float, np.ndarray]:
    return float(x.s.real), x.v.real.copy()


def _to_paravector(v) -> Paravector3:
    return Paravector3.from_event(v.t, (v.x, v.y, v.z))


def sct_factor3(x: Paravector3, a: Paravector3) -> float:
    t, r = _event_parts(x)
    a0, av = _event_parts(a)
    return (
        1.0
        + 2.0 * (a0 * t - float(av @ r))
        + (a0 * a0 - float(av @ av)) * (t * t - float(r @ r))
    )


def _sct_scale(x: Paravector3, a: Paravector3, frame: CoordinateFrame) -> float:
    """sigma at the source event, or at the image event the reciprocal of the
    scale of the map by -a, which undoes the map by a; guarded on the cone."""
    if frame is _ORIG:
        s = sct_factor3(x, a)
        if not abs(s) > LIGHTCONE_TOL:
            raise SctConeError(f"event too close to the excluded cone: scale = {s:.3e}")
        return s
    denom = sct_factor3(x, -a)
    if not abs(denom) > LIGHTCONE_TOL:
        raise SctConeError(
            f"image event too close to the excluded cone: 1/scale = {denom:.3e}"
        )
    return 1.0 / denom


def scale_of(
    params: ConformalParams,
    x: Paravector3,
    frame: CoordinateFrame = _ORIG,
) -> float:
    """Conformal scale entering the field formulas at this event.

    Omega for inversion, sigma for the special conformal map, the dilation
    factor for dilations, and 1 for the isometries.  The inversion and the
    special conformal map read x as the source event in the ORIGINAL frame
    and as the image event in the TRANSFORMED frame, and refuse an x on
    their cones.
    """
    if isinstance(params, Dilation):
        return params.factor
    if isinstance(params, (Translation, Lorentz)):
        return 1.0
    if isinstance(params, Inversion):
        w = minkowski_square(x)
        if not abs(w) > LIGHTCONE_TOL:
            raise LightConeError(f"event too close to the light cone: x^2 = {w:.3e}")
        return w if frame is _ORIG else 1.0 / w
    if isinstance(params, Sct):
        return _sct_scale(x, _to_paravector(params.a), frame)
    raise TypeError(f"unknown transformation parameters: {params!r}")


def _sct_position3(x: Paravector3, a: Paravector3) -> Paravector3:
    s = _sct_scale(x, a, _ORIG)
    raw = cl3_product(Paravector3(1.0) + cl3_product(a, x.bar()), x)
    return real_paravector((1.0 / s) * raw, RESIDUE_TOL)


def _position3(params: ConformalParams, x: Paravector3) -> Paravector3:
    if isinstance(params, Dilation):
        return (1.0 / params.factor) * x
    if isinstance(params, Translation):
        return x + _to_paravector(params.offset)
    if isinstance(params, Inversion):
        return (params.eps / scale_of(params, x)) * x
    if isinstance(params, Sct):
        return _sct_position3(x, _to_paravector(params.a))
    raise TypeError(f"unknown transformation parameters: {params!r}")


# Power of the conformal scale weighting each kind's sandwich in the ORIGINAL
# frame; the TRANSFORMED frame adds 2, and a dilation weights by its factor
# to one power more.
_SCALE_POWER = {
    QuantityKind.POTENTIAL: 0,
    QuantityKind.CURRENT: 2,
    QuantityKind.FARADAY: 1,
}


def transform3(
    params: ConformalParams,
    kind: QuantityKind,
    value,
    x: Paravector3 | None = None,
    frame: CoordinateFrame = _ORIG,
):
    """The map params applied to value, a quantity of the given kind.

    value is a real paravector, or a Faraday3 for the field.  A position maps
    on its own and ignores x and frame.  Potential, current and field sit at
    the event x, which the inversion and the special conformal map read: the
    source event in the ORIGINAL frame, the image event in the TRANSFORMED
    frame.  There the result is a sandwich of value, weighted by the kind's
    power of scale_of; the inversion field also carries the sign +eps.  The
    conjugations in each sandwich are spelled out per map, kind and frame.
    """
    if isinstance(params, Lorentz):
        L = _lorentz_rotor(params, EXP_TOL)
        return _lorentz_sandwich(kind, value, L, params.lorentz_class)
    if kind is QuantityKind.POSITION:
        return _position3(params, value)
    field = kind is QuantityKind.FARADAY
    if isinstance(params, Dilation):
        w = params.factor ** (_SCALE_POWER[kind] + 1)
        return Faraday3(F=w * value.F) if field else w * value
    if isinstance(params, Translation):
        return value
    scale = scale_of(params, x, frame)
    sign = 1
    if isinstance(params, Inversion):
        if field:
            raw = cl3_product(cl3_product(x, value.to_paravector().star()), x.bar())
            sign = params.eps
        else:
            raw = cl3_product(cl3_product(x, value.bar()), x)
    else:
        one = Paravector3(1.0)
        a = _to_paravector(params.a)
        if frame is _ORIG:
            left = one + cl3_product(a, x.bar())
            if field:
                right = one + cl3_product(x, a.bar())
            else:
                right = one + cl3_product(x.bar(), a)
        else:
            left = one - cl3_product(x, a.bar())
            if field:
                right = one - cl3_product(a, x.bar())
            else:
                right = one - cl3_product(a.bar(), x)
        q = value.to_paravector() if field else value
        raw = cl3_product(cl3_product(left, q), right)
    p = _SCALE_POWER[kind] + (0 if frame is _ORIG else 2)
    if p:
        # A zero power skips the multiply: a complex multiply by 1 + 0j can
        # flip the sign of a zero component.
        raw = (sign * scale**p) * raw
    if field:
        return Faraday3(F=pure_vector(raw, RESIDUE_TOL))
    return real_paravector(raw, RESIDUE_TOL)


# -- Lorentz ----------------------------------------------------------------------


def _lorentz_rotor(params: Lorentz, exp_tol: float) -> Paravector3:
    gen = np.asarray(params.boost, dtype=np.float64) + 1j * np.asarray(
        params.rotation, dtype=np.float64
    )
    return exp_complex_vector(gen, exp_tol)


def _lorentz_sandwich(
    kind: QuantityKind,
    value,
    L: Paravector3,
    cls: LorentzClass,
):
    """Class-resolved sandwich by the rotor L.

    Orthochronous-proper sandwiches are L W L* for paravector kinds and
    L F bar(L) for the field; the improper classes conjugate the operand and
    swap the rotor decorations; the antichronous classes flip the sign of
    position (paravector side) and field, never of potential or current.
    """
    plain = cls in (
        LorentzClass.PROPER_ORTHOCHRONOUS,
        LorentzClass.PROPER_ANTICHRONOUS,
    )
    if kind is QuantityKind.FARADAY:
        fv = value.to_paravector()
        if plain:
            raw = cl3_product(cl3_product(L, fv), L.bar())
            if cls is LorentzClass.PROPER_ANTICHRONOUS:
                raw = -raw
        else:
            raw = cl3_product(
                cl3_product(L.bar().star(), fv.star()), L.star()
            )
            if cls is LorentzClass.IMPROPER_ORTHOCHRONOUS:
                raw = -raw
        return Faraday3(F=pure_vector(raw, RESIDUE_TOL))
    if plain:
        raw = cl3_product(cl3_product(L, value), L.star())
    else:
        raw = cl3_product(cl3_product(L.bar().star(), value.bar()), L.bar())
    if kind is QuantityKind.POSITION and cls in (
        LorentzClass.IMPROPER_ANTICHRONOUS,
        LorentzClass.PROPER_ANTICHRONOUS,
    ):
        raw = -raw
    return real_paravector(raw, RESIDUE_TOL)


def _induced_from_rotor(L: Paravector3, cls: LorentzClass) -> np.ndarray:
    cols = []
    for k in range(4):
        e = np.eye(4)[k]
        ev = Paravector3.from_event(e[0], e[1:])
        out = _lorentz_sandwich(QuantityKind.POSITION, ev, L, cls)
        cols.append([out.s.real, *out.v.real])
    return np.array(cols).T


def induced_matrix3(params: Lorentz, exp_tol: float = EXP_TOL) -> np.ndarray:
    """Coordinate matrix of the position action, built from basis events."""
    L = _lorentz_rotor(params, exp_tol)
    return _induced_from_rotor(L, params.lorentz_class)


# -- parameter-driven dispatch ---------------------------------------------------


def _apply_matrix(mat: np.ndarray, x: Paravector3) -> Paravector3:
    coords = mat @ np.array([x.s.real, *x.v.real])
    return Paravector3.from_event(coords[0], coords[1:])


def inverse_position3(params: ConformalParams, x_new: Paravector3) -> Paravector3:
    """Preimage of an event under the parametrized map.

    For Lorentz parameters every call expands the rotor and inverts the
    induced matrix; a sweep over many events under one map should build a
    PreparedTransform3 once and call its inverse_position instead.
    """
    if isinstance(params, Dilation):
        return params.factor * x_new
    if isinstance(params, Translation):
        return x_new - _to_paravector(params.offset)
    if isinstance(params, Lorentz):
        return _apply_matrix(np.linalg.inv(induced_matrix3(params)), x_new)
    if isinstance(params, Inversion):
        return _position3(params, x_new)
    if isinstance(params, Sct):
        # The special conformal map with -a undoes the one with a.
        return _sct_position3(x_new, -_to_paravector(params.a))
    raise TypeError(f"unknown transformation parameters: {params!r}")


class PreparedTransform3:
    """One map's parameter-only state, built once and applied to many events.

    For Lorentz parameters that state is the rotor and the inverse of the
    induced coordinate matrix, so a sweep expands the rotor once, not once
    per event for the field and four more times per event for the preimage.
    The other families hold nothing worth keeping and go through
    inverse_position3 and transform3 unchanged.  Results are
    bit-for-bit those of the per-call functions.
    """

    __slots__ = ("params", "_rotor", "_inverse")

    def __init__(self, params: ConformalParams):
        self.params = params
        self._rotor = None
        if isinstance(params, Lorentz):
            self._rotor = _lorentz_rotor(params, EXP_TOL)
            self._inverse = np.linalg.inv(
                _induced_from_rotor(self._rotor, params.lorentz_class)
            )

    def inverse_position(self, x_new: Paravector3) -> Paravector3:
        """Preimage of an image event, as inverse_position3."""
        if self._rotor is None:
            return inverse_position3(self.params, x_new)
        return _apply_matrix(self._inverse, x_new)

    def faraday(
        self, F: Faraday3, x: Paravector3, frame: CoordinateFrame = _ORIG
    ) -> Faraday3:
        """Field transform, as transform3."""
        if self._rotor is None:
            return transform3(self.params, QuantityKind.FARADAY, F, x, frame)
        return _lorentz_sandwich(
            QuantityKind.FARADAY, F, self._rotor, self.params.lorentz_class
        )

