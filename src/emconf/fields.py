"""Analytic field configurations and their conformal invariants."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .cl3 import Faraday3, Paravector3
from .cl13 import FourVector
from .conformal13 import (
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
from .conformal3 import scale_of, transform3
from .errors import OriginSingularityError

SINGULARITY_TOL = 1e-12


@dataclass(frozen=True)
class UniformField:
    """Constant E and B everywhere."""

    E0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    B0: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def faraday(self, x: FourVector) -> Faraday3:
        return Faraday3(np.asarray(self.E0, float), np.asarray(self.B0, float))


@dataclass(frozen=True)
class PlaneWave:
    """Linearly polarized unit-speed wave; E and B stay orthogonal and equal.

    The amplitude must be orthogonal to the unit propagation direction, which
    keeps both field invariants exactly zero at every event.
    """

    E0: tuple[float, float, float]
    khat: tuple[float, float, float]
    phase: float = 0.0

    def __post_init__(self):
        k = np.asarray(self.khat, float)
        e = np.asarray(self.E0, float)
        if abs(float(k @ k) - 1.0) > 1e-12:
            raise ValueError("propagation direction must be a unit vector")
        if abs(float(k @ e)) > 1e-12:
            raise ValueError("amplitude must be orthogonal to the propagation direction")

    def faraday(self, x: FourVector) -> Faraday3:
        k = np.asarray(self.khat, float)
        e = np.asarray(self.E0, float)
        r = np.array([x.x, x.y, x.z])
        osc = np.cos(float(k @ r) - x.t + self.phase)
        E = e * osc
        return Faraday3(E, np.cross(k, E))


@dataclass(frozen=True)
class Coulomb:
    """Static point charge at the spatial origin."""

    q: float = 1.0

    def faraday(self, x: FourVector, tol: float = SINGULARITY_TOL) -> Faraday3:
        r = np.array([x.x, x.y, x.z])
        rn = float(np.sqrt(r @ r))
        if rn <= tol:
            raise OriginSingularityError("Coulomb field evaluated at the charge")
        return Faraday3(self.q * r / rn**3, np.zeros(3))


FieldSpec = Union[UniformField, PlaneWave, Coulomb]


def invariants(F: Faraday3) -> tuple[float, float]:
    """(E^2 - B^2, 2 E.B), read off the complex square of the field vector."""
    sq = complex(np.dot(F.F, F.F))
    return sq.real, sq.imag


def predicted_invariant_factors(
    params: ConformalParams, scale: float
) -> tuple[float, float]:
    """Multipliers carrying (I1, I2) through a transformation.

    scale is the conformal scale at the event (ignored by the isometries).
    Inversions flip the sign of the pseudoscalar invariant, as do the
    improper Lorentz classes.
    """
    if isinstance(params, Dilation):
        return params.factor**4, params.factor**4
    if isinstance(params, Translation):
        return 1.0, 1.0
    if isinstance(params, Lorentz):
        improper = params.lorentz_class in (
            LorentzClass.IMPROPER_ORTHOCHRONOUS,
            LorentzClass.IMPROPER_ANTICHRONOUS,
        )
        return 1.0, -1.0 if improper else 1.0
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


def invariant_scaling_report(
    spec: FieldSpec, params: ConformalParams, x: FourVector
) -> InvariantScalingReport:
    """Compare transformed invariants against their predicted scaling at x."""
    F = spec.faraday(x)
    i1, i2 = invariants(F)
    ev = Paravector3.from_event(x.t, (x.x, x.y, x.z))
    scale = scale_of(params, ev, CoordinateFrame.ORIGINAL)
    Fp = transform3(params, QuantityKind.FARADAY, F, ev, CoordinateFrame.ORIGINAL)
    i1p, i2p = invariants(Fp)
    f1, f2 = predicted_invariant_factors(params, scale)
    floor = max(1.0, abs(f1) * max(abs(i1), abs(i2)))
    rel1 = abs(i1p - f1 * i1) / floor
    rel2 = abs(i2p - f2 * i2) / floor
    return InvariantScalingReport(i1, i2, i1p, i2p, f1, f2, rel1, rel2, scale)
