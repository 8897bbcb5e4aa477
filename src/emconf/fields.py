"""Analytic field configurations, their conformal invariants, and sweeps.

Each field evaluates a batch of events at once (faraday_rows, events of
shape (..., 4)); its faraday method is the batch of one.  sweep evaluates a
field over a batch of grid events and transforms it by a map in one
array kernel, with one Refusal code per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .cl3 import Faraday3, Paravector3, cross3, dot3
from .conformal3 import Refusal, no_refusals, preimage_rows, raise_refusal, refuse, transform_rows
from .errors import OriginSingularityError
from .maps import (
    PLANE_WAVE_TOL,
    SINGULARITY_TOL,
    ConformalParams,
    CoordinateFrame,
    Dilation,
    Inversion,
    Lorentz,
    QuantityKind,
    Sct,
    Translation,
)


@dataclass(frozen=True)
class UniformField:
    """Constant E and B everywhere."""

    E0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    B0: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def faraday_rows(self, events: np.ndarray) -> tuple[Faraday3, np.ndarray]:
        """The field at events of shape (..., 4), and no charge rows."""
        shape = events.shape[:-1]
        F = Faraday3(np.asarray(self.E0, float), np.asarray(self.B0, float)).F
        return Faraday3._wrap(np.broadcast_to(F, shape + (3,)).copy()), np.zeros(shape, bool)

    def faraday(self, x) -> Faraday3:
        return self.faraday_rows(np.asarray(x, dtype=np.float64))[0]


@dataclass(frozen=True)
class PlaneWave:
    """Linearly polarized unit-speed wave; E and B stay orthogonal and equal.

    The amplitude must be orthogonal to the unit propagation direction, which
    keeps both field invariants exactly zero at every event; both hold to
    PLANE_WAVE_TOL, the dot product relative to max(1, |E0|) per row.  E0 and khat of
    shape (n, 3) and phase of shape (n,) hold one wave per row: row i of the
    events sees wave i.
    """

    E0: tuple[float, float, float] | np.ndarray
    khat: tuple[float, float, float] | np.ndarray
    phase: float | np.ndarray = 0.0

    def __post_init__(self):
        k = np.asarray(self.khat, float)
        e = np.asarray(self.E0, float)
        if not (np.abs(dot3(k, k) - 1.0) <= PLANE_WAVE_TOL).all():
            raise ValueError("propagation direction must be a unit vector")
        floor = np.maximum(1.0, np.sqrt(dot3(e, e)))
        if not (np.abs(dot3(k, e)) <= PLANE_WAVE_TOL * floor).all():
            raise ValueError("amplitude must be orthogonal to the propagation direction")

    def faraday_rows(self, events: np.ndarray) -> tuple[Faraday3, np.ndarray]:
        """The field at events of shape (..., 4), and no charge rows."""
        k = np.asarray(self.khat, float)
        e = np.asarray(self.E0, float)
        osc = np.cos(dot3(k, events[..., 1:]) - events[..., 0] + self.phase)
        E = e * osc[..., None]
        return Faraday3(E, cross3(k, E)), np.zeros(E.shape[:-1], bool)

    def faraday(self, x) -> Faraday3:
        return self.faraday_rows(np.asarray(x, dtype=np.float64))[0]


@dataclass(frozen=True)
class Coulomb:
    """Static point charge at the spatial origin."""

    q: float = 1.0

    def faraday_rows(self, events: np.ndarray) -> tuple[Faraday3, np.ndarray]:
        """The field at events of shape (..., 4), and the rows within
        SINGULARITY_TOL of the charge, which hold a placeholder."""
        r = events[..., 1:]
        rn = np.sqrt(dot3(r, r))
        charge = rn <= SINGULARITY_TOL
        rn = np.where(charge, 1.0, rn)[..., None]
        return Faraday3(self.q * r / rn**3, np.zeros(3)), charge

    def faraday(self, x) -> Faraday3:
        F, charge = self.faraday_rows(np.asarray(x, dtype=np.float64))
        if np.any(charge):
            raise OriginSingularityError("Coulomb field evaluated at the charge")
        return F


FieldSpec = Union[UniformField, PlaneWave, Coulomb]


def invariants(F: Faraday3) -> tuple[float, float]:
    """(E^2 - B^2, 2 E.B), read off the complex square of the field vector."""
    sq = dot3(F.F, F.F)
    return sq.real, sq.imag


def predicted_invariant_factors(
    params: ConformalParams, scale: float
) -> tuple[float, float]:
    """Multipliers carrying (I1, I2) through a transformation.

    scale is the conformal scale at the event (ignored by the isometries).
    Inversions flip the sign of the pseudoscalar invariant, as do the
    improper Lorentz classes; one class gets a float, an array of classes
    an array with one factor per row.
    """
    if isinstance(params, Dilation):
        f = np.power(params.factor, 4)
        return f, f
    if isinstance(params, Translation):
        return 1.0, 1.0
    if isinstance(params, Lorentz):
        f2 = np.where(params.improper, -1.0, 1.0)
        return 1.0, f2 if f2.ndim else float(f2)
    if isinstance(params, Inversion):
        return scale**4, -(scale**4)
    if isinstance(params, Sct):
        return scale**4, scale**4
    raise TypeError(f"unknown transformation parameters: {params!r}")


@dataclass(frozen=True)
class InvariantScalingReport:
    i1: float
    i2: float
    i1_transformed: float
    i2_transformed: float
    factor_i1: float
    factor_i2: float
    rel_dev_i1: float
    rel_dev_i2: float
    scale: float
    condition: float


def invariant_scaling_report(
    spec: FieldSpec, params: ConformalParams, x
) -> InvariantScalingReport:
    """Compare transformed invariants against their predicted scaling at the
    event x, components (t, x, y, z).

    The deviations are relative to floor = max(1, |f1| max(|I1|, |I2|)).  The
    transformed invariants cancel terms of relative size condition =
    (|E'|^2 + |B'|^2) / floor, so roundoff alone moves them by about
    condition times the unit roundoff.  For a batch of maps every number
    that depends on the map holds one entry per row of the batch.
    """
    F = spec.faraday(x)
    i1, i2 = invariants(F)
    Fp, scale, reason = transform_rows(params, QuantityKind.FARADAY, F, Paravector3.from_event(x))
    raise_refusal(reason)
    i1p, i2p = invariants(Fp)
    f1, f2 = predicted_invariant_factors(params, scale)
    floor = np.maximum(1.0, np.abs(f1) * np.maximum(np.abs(i1), np.abs(i2)))
    rel1 = np.abs(i1p - f1 * i1) / floor
    rel2 = np.abs(i2p - f2 * i2) / floor
    kappa = (dot3(Fp.E, Fp.E) + dot3(Fp.B, Fp.B)) / floor
    return InvariantScalingReport(i1, i2, i1p, i2p, f1, f2, rel1, rel2, scale, kappa)


def sweep(
    spec: FieldSpec,
    params: ConformalParams,
    events: np.ndarray,
    frame: CoordinateFrame = CoordinateFrame.ORIGINAL,
) -> tuple[Faraday3, Faraday3, np.ndarray, np.ndarray]:
    """The field spec at grid events of shape (..., 4) and its transform.

    In the ORIGINAL frame the field is evaluated at each grid event; in the
    TRANSFORMED frame at the preimage of each grid event.  Returns the input
    field, the transformed field and the conformal scale at each grid event,
    and each row's Refusal code: the first of a refusal of the preimage, the
    field's charge and a refusal of the field map.  The map refuses an image
    that is not finite as NON_FINITE, and a field or a scale that is not
    finite gives such an image under every map.  Rows that are not OK hold
    placeholder values.  Every result has the broadcast of the map's rows
    and the events' rows.
    """
    events = np.broadcast_to(events, np.broadcast_shapes(params.rows, events.shape[:-1]) + (4,))
    grid = Paravector3.from_event(events)
    if frame is CoordinateFrame.TRANSFORMED:
        src, reason = preimage_rows(params, grid)
        events = src.event()
    else:
        reason = no_refusals(grid.s.shape)
    F_in, charge = spec.faraday_rows(events)
    refuse(reason, charge, Refusal.CHARGE)
    F_out, scale, why = transform_rows(params, QuantityKind.FARADAY, F_in, grid, frame)
    refuse(reason, why != 0, why)  # 0 is Refusal.OK, as a plain int
    return F_in, F_out, scale, reason
