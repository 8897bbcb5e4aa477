"""Parameters of the five conformal families, shared by every route.

The map classes, coordinate frames, quantity kinds and tolerances live here,
apart from any algebra, so both Clifford routes and the command line share
parameters without sharing arithmetic.  Each map checks its parameters once,
at construction: every numeric parameter becomes a float array, made from
any array-like, a FourVector included, whose trailing axes hold its
components (see _TRAILING) and whose leading axes are rows of a batch of
maps.  rows is the broadcast of every parameter's rows, a Lorentz map's
classes included; each route reads the arrays as they are and wraps them in
its own types.  Maps compare by the values of their parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import NonPositiveScaleError

# Every guard of every route reads its threshold here and takes none as an
# argument: a cone's distance from zero, a sandwich's grade and imaginary
# residues, an exponential's argument off grade 2, a field's charge radius,
# and a plane wave's direction off unit length and, relative to max(1,
# |E0|), its amplitude off orthogonal to it.
LIGHTCONE_TOL = 1e-9
GRADE_TOL = 1e-12
RESIDUE_TOL = 1e-10
EXP_TOL = 1e-14
SINGULARITY_TOL = 1e-12
PLANE_WAVE_TOL = 1e-12


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


# The trailing shape of each numeric parameter of a map; any leading axes
# are rows of a batch of maps.
_TRAILING = {"factor": (), "offset": (4,), "boost": (3,), "rotation": (3,), "eps": (), "a": (4,)}


class _Map:
    """A map by float arrays, one per parameter named in _TRAILING; rows is
    the broadcast of their leading shapes and of any extra rows a subclass
    passes in."""

    def __post_init__(self, *extra_rows):
        rows = list(extra_rows)
        for name in (f.name for f in fields(self) if f.name in _TRAILING):
            tail = _TRAILING[name]
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            lead = arr.shape[: arr.ndim - len(tail)]
            if lead + tail != arr.shape:
                raise ValueError(f"{name} needs {tail[0]} components, got shape {arr.shape}")
            object.__setattr__(self, name, arr)
            rows.append(lead)
        object.__setattr__(self, "rows", np.broadcast_shapes(*rows))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )


@dataclass(frozen=True, eq=False)
class Dilation(_Map):
    """x -> x / factor, with factor positive, or one factor per row."""

    factor: float | np.ndarray = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not (self.factor > 0.0).all():
            raise NonPositiveScaleError("dilation factor must be positive")


@dataclass(frozen=True, eq=False)
class Translation(_Map):
    """x -> x + offset."""

    offset: np.ndarray


@dataclass(frozen=True, eq=False)
class Lorentz(_Map):
    """Boost rapidities and rotation angles feeding the exponential generator,
    and the class of the map.  For a batch, boost and rotation have shape
    (n, 3) or (3,), and lorentz_class is one LorentzClass or an array of
    shape (n,) holding one per row.  improper and antichronous are the
    class's flags as bool arrays of the shape of lorentz_class: read-only
    0-d arrays for one class, one entry per row for an array of classes."""

    boost: tuple[float, float, float] | np.ndarray = (0.0, 0.0, 0.0)
    rotation: tuple[float, float, float] | np.ndarray = (0.0, 0.0, 0.0)
    lorentz_class: LorentzClass | np.ndarray = LorentzClass.PROPER_ORTHOCHRONOUS

    def __post_init__(self):
        cls = self.lorentz_class
        if isinstance(cls, LorentzClass):
            improper, antichronous = _CLASS_FLAGS[cls]
        else:
            cls = np.asarray(cls)
            try:
                flags = np.array([_CLASS_FLAGS[c] for c in cls.ravel().tolist()], dtype=bool)
            except KeyError as exc:
                bad = exc.args[0]
                raise ValueError(f"lorentz_class holds {bad!r}, not a LorentzClass") from None
            improper, antichronous = np.moveaxis(flags.reshape(cls.shape + (2,)), -1, 0)
            object.__setattr__(self, "lorentz_class", cls)
        object.__setattr__(self, "improper", improper)
        object.__setattr__(self, "antichronous", antichronous)
        super().__post_init__(improper.shape)


@dataclass(frozen=True, eq=False)
class Inversion(_Map):
    """x -> eps x / x^2, with eps +1 or -1, or an array of one such sign per
    row of a batch."""

    eps: int | np.ndarray = 1

    def __post_init__(self):
        super().__post_init__()
        if not ((self.eps == 1) | (self.eps == -1)).all():
            raise ValueError("inversion sign must be +1 or -1")


@dataclass(frozen=True, eq=False)
class Sct(_Map):
    """The special conformal map by the vector a."""

    a: np.ndarray


ConformalParams = Dilation | Translation | Lorentz | Inversion | Sct
