"""A Lorentz sweep through the CLI equals the scalar entries bit for bit."""

import itertools

import numpy as np
import pytest

from emconf.cl13 import FourVector
from emconf.cl3 import Paravector3
from emconf.cli import CSV_HEADER, main
from emconf.conformal3 import preimage_rows, transform3
from emconf.fields import PlaneWave
from emconf.maps import CoordinateFrame, Lorentz, LorentzClass, QuantityKind

BOOST = (0.9, -0.4, 0.7)
ROTATION = (0.3, 1.2, -0.5)  # a generator component of modulus above 1
E0, KHAT = (0.8, 0.5, -0.6), (0.6, 0.0, 0.8)
GRID = "t=0:1:3,x=0.5:2:3,y=-1:1:2,z=0.25:0.25:1"


def _lorentz_flags(cls: LorentzClass) -> list:
    return [
        "--xform", "lorentz", "--lorentz-class", cls.value,
        "--boost=" + ",".join(map(str, BOOST)),
        "--rotation=" + ",".join(map(str, ROTATION)),
    ]


def _reference_csv(params: Lorentz, frame: CoordinateFrame) -> str:
    """The sweep rebuilt per event through the scalar entries, each with a
    fresh rotor and inverse."""
    field = PlaneWave(E0=E0, khat=KHAT)
    axes = {}
    for item in GRID.split(","):
        name, spec = item.split("=")
        lo, hi, count = spec.split(":")
        axes[name] = np.linspace(float(lo), float(hi), int(count))
    lines = [CSV_HEADER]
    for coords in itertools.product(*(axes[a] for a in "txyz")):
        x = Paravector3.from_event(coords)
        if frame is CoordinateFrame.TRANSFORMED:
            src_pv, _ = preimage_rows(params, x)
            src = FourVector.from_array(src_pv.event())
        else:
            src = FourVector(*coords)
        F_in = field.faraday(src)
        F_out = transform3(params, QuantityKind.FARADAY, F_in)
        values = (*coords, *F_in.E, *F_in.B, *F_out.E, *F_out.B, 1.0)
        lines.append(",".join(f"{float(v):.17g}" for v in values) + ",0")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("frame", list(CoordinateFrame))
@pytest.mark.parametrize("cls", list(LorentzClass))
def test_lorentz_sweep_is_bit_identical(cls, frame, capsys):
    """17 significant digits round-trip float64, so equal text is equal bits."""
    argv = [
        "transform", *_lorentz_flags(cls),
        "--field", "planewave", "--E0=" + ",".join(map(str, E0)),
        "--khat=" + ",".join(map(str, KHAT)),
        "--frame", frame.value, "--grid", GRID,
    ]
    assert main(argv) == 0
    got = capsys.readouterr().out.split("\n")
    want = _reference_csv(
        Lorentz(boost=BOOST, rotation=ROTATION, lorentz_class=cls), frame
    ).split("\n")
    assert len(got) == len(want) == 20
    for row_got, row_want in zip(got, want):
        assert row_got == row_want
