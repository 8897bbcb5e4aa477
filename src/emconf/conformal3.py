"""Conformal transformations in the paravector formulation Cl(3).

Same physics as the Cl(1,3) layer, independently implemented on complex
scalars and 3-vectors.  Events are real paravectors t + r; the field travels
as F = E + iB.  Conjugation placement differs between the potential-type and
field sandwiches and between the two coordinate presentations; each formula
below spells its own placement rather than deriving one from another.
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


def _interval_guarded(x: Paravector3, tol: float) -> float:
    w = minkowski_square(x)
    if not abs(w) > tol:
        raise LightConeError(f"event too close to the light cone: x^2 = {w:.3e}")
    return w


def sct_factor3(x: Paravector3, a: Paravector3) -> float:
    t, r = _event_parts(x)
    a0, av = _event_parts(a)
    return (
        1.0
        + 2.0 * (a0 * t - float(av @ r))
        + (a0 * a0 - float(av @ av)) * (t * t - float(r @ r))
    )


def _sct_factor_guarded(x: Paravector3, a: Paravector3, tol: float) -> float:
    s = sct_factor3(x, a)
    if not abs(s) > tol:
        raise SctConeError(f"event too close to the excluded cone: scale = {s:.3e}")
    return s


def _sct_factor_from_image(x_new: Paravector3, a: Paravector3, tol: float) -> float:
    t, r = _event_parts(x_new)
    a0, av = _event_parts(a)
    denom = (
        1.0
        - 2.0 * (a0 * t - float(av @ r))
        + (a0 * a0 - float(av @ av)) * (t * t - float(r @ r))
    )
    if not abs(denom) > tol:
        raise SctConeError(
            f"image event too close to the excluded cone: 1/scale = {denom:.3e}"
        )
    return 1.0 / denom


# -- inversion ----------------------------------------------------------------


def invert3_position(
    x: Paravector3, eps: int = 1, tol: float = LIGHTCONE_TOL
) -> Paravector3:
    Inversion(eps)  # raises unless eps is +1 or -1
    w = _interval_guarded(x, tol)
    return (eps / w) * x


def invert3_potential(
    A: Paravector3,
    x: Paravector3,
    eps: int = 1,
    frame: CoordinateFrame = _ORIG,
    tol: float = LIGHTCONE_TOL,
    res_tol: float = RESIDUE_TOL,
) -> Paravector3:
    Inversion(eps)  # raises unless eps is +1 or -1
    w = _interval_guarded(x, tol)
    raw = cl3_product(cl3_product(x, A.bar()), x)
    if frame is _ORIG:
        return real_paravector(raw, res_tol)
    om = 1.0 / w
    return real_paravector(om**2 * raw, res_tol)


def invert3_current(
    J: Paravector3,
    x: Paravector3,
    eps: int = 1,
    frame: CoordinateFrame = _ORIG,
    tol: float = LIGHTCONE_TOL,
    res_tol: float = RESIDUE_TOL,
) -> Paravector3:
    Inversion(eps)  # raises unless eps is +1 or -1
    w = _interval_guarded(x, tol)
    raw = cl3_product(cl3_product(x, J.bar()), x)
    om = w if frame is _ORIG else 1.0 / w
    power = 2 if frame is _ORIG else 4
    return real_paravector(om**power * raw, res_tol)


def invert3_faraday(
    F: Faraday3,
    x: Paravector3,
    eps: int = 1,
    frame: CoordinateFrame = _ORIG,
    tol: float = LIGHTCONE_TOL,
    res_tol: float = RESIDUE_TOL,
) -> Faraday3:
    Inversion(eps)  # raises unless eps is +1 or -1
    w = _interval_guarded(x, tol)
    raw = cl3_product(cl3_product(x, F.to_paravector().star()), x.bar())
    om = w if frame is _ORIG else 1.0 / w
    power = 1 if frame is _ORIG else 3
    return Faraday3(F=pure_vector(eps * om**power * raw, res_tol))


# -- special conformal ----------------------------------------------------------


def sct3_position(
    x: Paravector3, a: Paravector3, tol: float = LIGHTCONE_TOL
) -> Paravector3:
    s = _sct_factor_guarded(x, a, tol)
    one = Paravector3(1.0)
    raw = cl3_product(one + cl3_product(a, x.bar()), x)
    return real_paravector((1.0 / s) * raw, RESIDUE_TOL)


def sct3_potential(
    A: Paravector3,
    x: Paravector3,
    a: Paravector3,
    frame: CoordinateFrame = _ORIG,
    tol: float = LIGHTCONE_TOL,
    res_tol: float = RESIDUE_TOL,
) -> Paravector3:
    one = Paravector3(1.0)
    if frame is _ORIG:
        left = one + cl3_product(a, x.bar())
        right = one + cl3_product(x.bar(), a)
        raw = cl3_product(cl3_product(left, A), right)
        return real_paravector(raw, res_tol)
    s = _sct_factor_from_image(x, a, tol)
    left = one - cl3_product(x, a.bar())
    right = one - cl3_product(a.bar(), x)
    raw = cl3_product(cl3_product(left, A), right)
    return real_paravector(s**2 * raw, res_tol)


def sct3_current(
    J: Paravector3,
    x: Paravector3,
    a: Paravector3,
    frame: CoordinateFrame = _ORIG,
    tol: float = LIGHTCONE_TOL,
    res_tol: float = RESIDUE_TOL,
) -> Paravector3:
    one = Paravector3(1.0)
    if frame is _ORIG:
        s = _sct_factor_guarded(x, a, tol)
        left = one + cl3_product(a, x.bar())
        right = one + cl3_product(x.bar(), a)
        raw = cl3_product(cl3_product(left, J), right)
        return real_paravector(s**2 * raw, res_tol)
    s = _sct_factor_from_image(x, a, tol)
    left = one - cl3_product(x, a.bar())
    right = one - cl3_product(a.bar(), x)
    raw = cl3_product(cl3_product(left, J), right)
    return real_paravector(s**4 * raw, res_tol)


def sct3_faraday(
    F: Faraday3,
    x: Paravector3,
    a: Paravector3,
    frame: CoordinateFrame = _ORIG,
    tol: float = LIGHTCONE_TOL,
    res_tol: float = RESIDUE_TOL,
) -> Faraday3:
    one = Paravector3(1.0)
    fv = F.to_paravector()
    if frame is _ORIG:
        s = _sct_factor_guarded(x, a, tol)
        left = one + cl3_product(a, x.bar())
        right = one + cl3_product(x, a.bar())
        raw = cl3_product(cl3_product(left, fv), right)
        return Faraday3(F=pure_vector(s * raw, res_tol))
    s = _sct_factor_from_image(x, a, tol)
    left = one - cl3_product(x, a.bar())
    right = one - cl3_product(a, x.bar())
    raw = cl3_product(cl3_product(left, fv), right)
    return Faraday3(F=pure_vector(s**3 * raw, res_tol))


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
    res_tol: float = RESIDUE_TOL,
):
    """The class-resolved sandwich of lorentz3 by the rotor L."""
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
        return Faraday3(F=pure_vector(raw, res_tol))
    if plain:
        raw = cl3_product(cl3_product(L, value), L.star())
    else:
        raw = cl3_product(cl3_product(L.bar().star(), value.bar()), L.bar())
    if kind is QuantityKind.POSITION and cls in (
        LorentzClass.IMPROPER_ANTICHRONOUS,
        LorentzClass.PROPER_ANTICHRONOUS,
    ):
        raw = -raw
    return real_paravector(raw, res_tol)


def lorentz3(
    kind: QuantityKind,
    value,
    params: Lorentz,
    exp_tol: float = EXP_TOL,
    res_tol: float = RESIDUE_TOL,
):
    """Class-resolved Lorentz action on paravectors and fields.

    Orthochronous-proper sandwiches are L W L* for paravector kinds and
    L F bar(L) for the field; the improper classes conjugate the operand and
    swap the rotor decorations; the antichronous classes flip the sign of
    position (paravector side) and field, never of potential or current.
    """
    L = _lorentz_rotor(params, exp_tol)
    return _lorentz_sandwich(kind, value, L, params.lorentz_class, res_tol)


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


def _to_paravector(v) -> Paravector3:
    return Paravector3.from_event(v.t, (v.x, v.y, v.z))


def _apply_matrix(mat: np.ndarray, x: Paravector3) -> Paravector3:
    coords = mat @ np.array([x.s.real, *x.v.real])
    return Paravector3.from_event(coords[0], coords[1:])


def inverse_position3(
    params: ConformalParams, x_new: Paravector3, tol: float = LIGHTCONE_TOL
) -> Paravector3:
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
        return invert3_position(x_new, params.eps, tol)
    if isinstance(params, Sct):
        # The special conformal map with -a undoes the one with a.
        return sct3_position(x_new, -_to_paravector(params.a), tol)
    raise TypeError(f"unknown transformation parameters: {params!r}")


def transform_faraday3(
    params: ConformalParams,
    F: Faraday3,
    x: Paravector3,
    frame: CoordinateFrame = _ORIG,
    tol: float = LIGHTCONE_TOL,
    res_tol: float = RESIDUE_TOL,
) -> Faraday3:
    """Field transform; x is the source event in the ORIGINAL frame and the
    image event in the TRANSFORMED frame (linear families ignore it)."""
    if isinstance(params, Dilation):
        return Faraday3(F=params.factor**2 * F.F)
    if isinstance(params, Translation):
        return Faraday3(F=F.F.copy())
    if isinstance(params, Lorentz):
        return lorentz3(QuantityKind.FARADAY, F, params, res_tol=res_tol)
    if isinstance(params, Inversion):
        return invert3_faraday(F, x, params.eps, frame, tol, res_tol)
    if isinstance(params, Sct):
        return sct3_faraday(F, x, _to_paravector(params.a), frame, tol, res_tol)
    raise TypeError(f"unknown transformation parameters: {params!r}")


class PreparedTransform3:
    """One map's parameter-only state, built once and applied to many events.

    For Lorentz parameters that state is the rotor and the inverse of the
    induced coordinate matrix, so a sweep expands the rotor once, not once
    per event for the field and four more times per event for the preimage.
    The other families hold nothing worth keeping and go through
    inverse_position3 and transform_faraday3 unchanged.  Results are
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
        """Field transform, as transform_faraday3."""
        if self._rotor is None:
            return transform_faraday3(self.params, F, x, frame)
        return _lorentz_sandwich(
            QuantityKind.FARADAY, F, self._rotor, self.params.lorentz_class
        )


def scale_of(
    params: ConformalParams,
    x: Paravector3,
    frame: CoordinateFrame = _ORIG,
    tol: float = LIGHTCONE_TOL,
) -> float:
    """Conformal scale entering the field formulas at this event.

    Omega for inversion, sigma for the special conformal map, the dilation
    factor for dilations, and 1 for the isometries.
    """
    if isinstance(params, Dilation):
        return params.factor
    if isinstance(params, (Translation, Lorentz)):
        return 1.0
    if isinstance(params, Inversion):
        if frame is _ORIG:
            return _interval_guarded(x, tol)
        return 1.0 / _interval_guarded(x, tol)
    if isinstance(params, Sct):
        a = _to_paravector(params.a)
        if frame is _ORIG:
            return _sct_factor_guarded(x, a, tol)
        return _sct_factor_from_image(x, a, tol)
    raise TypeError(f"unknown transformation parameters: {params!r}")
