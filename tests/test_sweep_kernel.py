"""The batched Cl(3) kernel against its own batch of one and the scalar API.

A row of the sweep kernel must not depend on the batch it is computed in:
a batch of N rows equals N batches of one and any split of the batch, bit
for bit, and the CLI's output does not depend on its chunk size.  Each row's
Refusal code names the error the scalar entry points raise for that event.
Events are drawn near the light cone, near the special conformal cone, on
the Coulomb charge and with NaN coordinates, where the guards decide.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emconf import cli
from emconf.cl13 import FourVector
from emconf.cl3 import Paravector3
from emconf.conformal3 import (
    Refusal,
    preimage_rows,
    raise_refusal,
    transform_rows,
)
from emconf.errors import (
    ImaginaryResidueError,
    LightConeError,
    OriginSingularityError,
    SctConeError,
)
from emconf.fields import Coulomb, PlaneWave, UniformField, sweep
from emconf.maps import (
    CoordinateFrame,
    Dilation,
    Inversion,
    Lorentz,
    LorentzClass,
    QuantityKind,
    Sct,
    Translation,
)

TRANS = CoordinateFrame.TRANSFORMED
NAN = float("nan")

# The Refusal code each typed error of the scalar entries stands for.
CODE_OF = {
    OriginSingularityError: Refusal.CHARGE,
    LightConeError: Refusal.LIGHT_CONE,
    SctConeError: Refusal.SCT_CONE,
    ImaginaryResidueError: Refusal.RESIDUE,
}


def _floats(bound):
    return st.floats(-bound, bound, allow_nan=False)


def _vec3(bound):
    return st.tuples(_floats(bound), _floats(bound), _floats(bound))


def _four(bound):
    return st.builds(FourVector, _floats(bound), _floats(bound), _floats(bound), _floats(bound))


FAMILIES = {
    "inversion": st.builds(Inversion, st.sampled_from([1, -1])),
    "sct": st.builds(Sct, _four(0.6)),
    "dilation": st.builds(Dilation, st.floats(0.25, 4.0)),
    "translation": st.builds(Translation, _four(2.0)),
    "lorentz": st.builds(Lorentz, _vec3(0.6), _vec3(1.5), st.sampled_from(list(LorentzClass))),
}
FIELDS = {
    "uniform": st.builds(UniformField, _vec3(2.0), _vec3(2.0)),
    # a field sandwich of this overflows into inf - inf, a NaN residue
    "huge": st.just(UniformField(E0=(1e308, 1e308, 0.0))),
    "planewave": st.sampled_from([
        PlaneWave(E0=(1.0, 0.0, 0.0), khat=(0.0, 0.0, 1.0)),
        PlaneWave(E0=(0.8, 0.5, -0.6), khat=(0.6, 0.0, 0.8), phase=0.3),
    ]),
    "coulomb": st.builds(Coulomb, _floats(2.0)),
}
# Relative offsets from a cone: on it, inside every guard, and just past it.
NUDGES = st.sampled_from([0.0, 1e-13, -1e-12, 5e-10, -2e-9, 1e-6])


def _minkowski(u, w):
    return u[0] * w[0] - u[1] * w[1] - u[2] * w[2] - u[3] * w[3]


@st.composite
def events(draw, a):
    """One event: generic, near the light cone, near a special conformal
    cone of a or -a (when a is given), on the charge, or with a NaN."""
    x = np.array([draw(_floats(2.5)) for _ in range(4)])
    kind = draw(st.sampled_from(["generic", "light", "sct", "charge", "nan"]))
    if kind == "light":
        x[0] = draw(st.sampled_from([1.0, -1.0])) * np.sqrt(x[1:] @ x[1:])
        x *= 1.0 + draw(NUDGES)
    elif kind == "sct" and a is not None:
        # sigma(s x) = 1 + 2 s a.x + s^2 a^2 x^2 vanishes at a root s
        b = draw(st.sampled_from([1.0, -1.0])) * a
        qa, qb = _minkowski(b, b) * _minkowski(x, x), 2.0 * _minkowski(b, x)
        disc = qb * qb - 4.0 * qa
        if abs(qa) > 1e-12 and disc >= 0.0:
            s = (-qb + draw(st.sampled_from([1.0, -1.0])) * np.sqrt(disc)) / (2.0 * qa)
            if abs(s) < 20.0:
                x *= s * (1.0 + draw(NUDGES))
    elif kind == "charge":
        x[1:] = 0.0
    elif kind == "nan":
        x[draw(st.integers(0, 3))] = NAN
    return x


def _scalar_row(field, params, x, frame):
    """The row through the entry points at this one event, each ledger
    raised by raise_refusal: its code, and its values when they are
    computed."""
    grid = Paravector3.from_event(x)
    try:
        if frame is TRANS:
            src_pv, reason = preimage_rows(params, grid)
            raise_refusal(reason)
            src = FourVector(src_pv.s.real, *src_pv.v.real)
        else:
            src = FourVector(*x)
        F_in = field.faraday(src)
        F_out, scale, reason = transform_rows(params, QuantityKind.FARADAY, F_in, grid, frame)
        raise_refusal(reason)
    except tuple(CODE_OF) as exc:
        return CODE_OF[type(exc)], None
    values = (F_in.F, F_out.F, np.asarray(scale))
    if not all(np.isfinite(v).all() for v in values):
        return Refusal.NON_FINITE, None
    return Refusal.OK, values


def _row_bits(result, i):
    F_in, F_out, scale, _ = result
    return F_in.F[i].tobytes() + F_out.F[i].tobytes() + scale[i].tobytes()


def _split_bits(result, ok):
    """Bits of every computed row, and the codes of all rows."""
    return [_row_bits(result, i) for i in np.flatnonzero(ok)], result[3].tolist()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_kernel_rows_match_batches_of_one_and_the_scalar_entries(data):
    params = data.draw(FAMILIES[data.draw(st.sampled_from(sorted(FAMILIES)))], label="params")
    field = data.draw(FIELDS[data.draw(st.sampled_from(sorted(FIELDS)))], label="field")
    frame = data.draw(st.sampled_from(list(CoordinateFrame)), label="frame")
    a = params.a if isinstance(params, Sct) else None
    rows = np.array(data.draw(st.lists(events(a), min_size=1, max_size=10), label="events"))
    with np.errstate(all="ignore"):
        batch = sweep(field, params, rows, frame)
        ok = batch[3] == Refusal.OK
        if len(rows) > 1:
            cut = data.draw(st.integers(1, len(rows) - 1), label="cut")
            parts = [sweep(field, params, rows[:cut], frame), sweep(field, params, rows[cut:], frame)]
            bits, codes = zip(*(_split_bits(p, p[3] == Refusal.OK) for p in parts))
            assert (bits[0] + bits[1], codes[0] + codes[1]) == _split_bits(batch, ok)
        for i, x in enumerate(rows):
            one = sweep(field, params, rows[i:i + 1], frame)
            assert one[3][0] == batch[3][i]
            code, values = _scalar_row(field, params, x, frame)
            assert code == batch[3][i], (x, code, batch[3][i])
            if code is Refusal.OK:
                assert _row_bits(one, 0) == _row_bits(batch, i)
                assert b"".join(v.tobytes() for v in values) == _row_bits(batch, i)


_JOBS = {
    "sct-coulomb": ("--field", "coulomb", "--xform", "sct", "--a=0.25,0.5,0,0"),
    "inversion-planewave": (
        "--field", "planewave", "--E0", "1,0,0", "--khat", "0,0,1", "--xform", "inversion",
    ),
    "lorentz-uniform": (
        "--field", "uniform", "--E0", "1,2,3", "--xform", "lorentz",
        "--boost=0.3,-0.2,0.4", "--rotation=0.5,0.1,-0.7",
    ),
}


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("frame", ["original", "transformed"])
@pytest.mark.parametrize("job", _JOBS)
def test_output_does_not_depend_on_the_chunk_size(monkeypatch, capsys, job, frame, fmt):
    argv = (*_JOBS[job], "--grid", "t=0:2:3,x=0:2:3,y=-1:1:3",
            "--frame", frame, "--format", fmt)
    whole = _run(capsys, "transform", *argv)
    for rows in (1, 4, 10):
        monkeypatch.setattr(cli, "CHUNK_ROWS", rows)
        assert _run(capsys, "transform", *argv) == whole
