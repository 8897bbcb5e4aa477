"""Parameters of the five conformal families, shared by every route.

The map classes, coordinate frames, quantity kinds and tolerances live here,
apart from any algebra, so both Clifford routes and the command line share
parameters without sharing arithmetic.  Translation.offset and Sct.a are
float arrays of components (t, x, y, z) on the last axis, shape (..., 4) for
a batch of maps, made from any array-like, a FourVector included, and
checked for that shape here; each route wraps them in its own type when it
reads them.  The two maps compare by the values of their arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import NonPositiveScaleError

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


class _ComponentParams:
    """A map by one float array of components (t, x, y, z) on the last axis,
    shape (..., 4), made from any array-like and compared by value."""

    def __post_init__(self):
        (field,) = fields(self)
        arr = np.asarray(getattr(self, field.name), dtype=np.float64)
        if arr.shape[-1:] != (4,):
            raise ValueError(f"{field.name} needs 4 components, got shape {arr.shape}")
        object.__setattr__(self, field.name, arr)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        (field,) = fields(self)
        return bool(np.array_equal(getattr(self, field.name), getattr(other, field.name)))


@dataclass(frozen=True, eq=False)
class Translation(_ComponentParams):
    """x -> x + offset."""

    offset: np.ndarray


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


@dataclass(frozen=True, eq=False)
class Sct(_ComponentParams):
    """The special conformal map by the vector a."""

    a: np.ndarray


ConformalParams = Dilation | Translation | Lorentz | Inversion | Sct
