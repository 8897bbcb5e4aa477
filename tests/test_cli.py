"""End-to-end tests for the command-line interface.

Logic-level tests call main() in process; the byte-identity tests spawn real
interpreter subprocesses so they exercise the same path a shell user does.
"""

import itertools
import json
import subprocess
import sys

import numpy as np
import pytest

from emconf import cli, verify
from emconf.cl3 import Faraday3
from emconf.cli import CSV_HEADER, main
from emconf.cl13 import FourVector
from emconf.fields import Coulomb, UniformField, sweep
from emconf.maps import CoordinateFrame, Dilation, Inversion, Sct


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_proc(*argv, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "emconf.cli", *argv],
        capture_output=True,
        text=True,
        env=full_env,
    )


def parse_csv(out):
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return rows


# -- transform ----------------------------------------------------------------


def test_transform_uniform_inversion_single_point(capsys):
    """Unit uniform field at (1,0,0,0): the inversion fixes it with scale 1."""
    code, out, _ = run_cli(
        capsys,
        "transform", "--field", "uniform", "--E0", "1,0,0",
        "--xform", "inversion", "--eps", "1", "--grid", "t=1:1:1",
    )
    assert code == 0
    assert out.split("\n")[0] == CSV_HEADER
    row = parse_csv(out)[0]
    assert float(row["Exp"]) == pytest.approx(1.0, abs=1e-15)
    assert float(row["Eyp"]) == 0.0 and float(row["Bzp"]) == 0.0
    assert float(row["scale"]) == pytest.approx(1.0, abs=1e-15)
    assert row["skipped"] == "0"


def test_transform_sct_zero_vector_is_identity(capsys):
    code, out, _ = run_cli(
        capsys,
        "transform", "--field", "uniform", "--E0", "0.3,0.7,-0.2", "--B0", "1,0,2",
        "--xform", "sct", "--a", "0,0,0,0", "--grid", "t=0:2:3,x=1:1:1",
    )
    assert code == 0
    for row in parse_csv(out):
        for col in ("Ex", "Ey", "Ez", "Bx", "By", "Bz"):
            assert float(row[col + "p"]) == pytest.approx(float(row[col]), abs=1e-15)
        assert float(row["scale"]) == 1.0


def test_transform_lightcone_row_skipped(capsys):
    code, out, _ = run_cli(
        capsys,
        "transform", "--field", "uniform", "--E0", "1,0,0",
        "--xform", "inversion", "--grid", "t=1:1:1,x=0:1:2",
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[0]["skipped"] == "0"
    # (1,1,0,0) sits on the light cone: coordinates kept, fields blanked
    assert rows[1]["skipped"] == "1"
    assert rows[1]["Ex"] == "" and rows[1]["scale"] == ""
    assert rows[1]["t"] == "1" and rows[1]["x"] == "1"


def test_transform_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "transform", "--field", "uniform", "--E0", "1,0,0",
        "--xform", "inversion", "--grid", "t=1:1:1,x=0:1:2",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["skipped"] for r in rows] == [False, True]
    assert rows[1]["Ex"] is None and rows[1]["scale"] is None
    assert set(rows[0]) == set(CSV_HEADER.split(","))


def test_transform_frame_consistency(capsys):
    """A transformed-frame sweep at the image point matches the original-frame
    transform of the same source event."""
    code, orig_out, _ = run_cli(
        capsys,
        "transform", "--field", "coulomb", "--q", "1",
        "--xform", "inversion", "--grid", "x=2:2:1",
    )
    assert code == 0
    # image of (0,2,0,0) under eps=+1 inversion is (0,-0.5,0,0)
    code, trans_out, _ = run_cli(
        capsys,
        "transform", "--field", "coulomb", "--q", "1",
        "--xform", "inversion", "--grid", "x=-0.5:-0.5:1", "--frame", "transformed",
    )
    assert code == 0
    row_o = parse_csv(orig_out)[0]
    row_t = parse_csv(trans_out)[0]
    for col in ("Exp", "Eyp", "Ezp", "Bxp", "Byp", "Bzp"):
        assert float(row_t[col]) == pytest.approx(float(row_o[col]), rel=1e-12)


def test_transform_all_skipped_exits_one(capsys):
    code, out, err = run_cli(
        capsys,
        "transform", "--field", "uniform", "--E0", "1,0,0",
        "--xform", "inversion", "--grid", "t=1:1:1,x=1:1:1",
    )
    assert code == 1
    assert "skipped" in err
    assert parse_csv(out)[0]["skipped"] == "1"


_OVERFLOWS = {
    # 1e10^2 * 1e308 overflows; the row once carried Exp=inf with exit 0
    "dilation": ("--E0", "1e308,0,0", "--xform", "dilation", "--lambda", "1e10",
                 "--grid", "t=1:1:1,x=1:1:1"),
    # the field sandwich overflows into inf - inf = NaN, which its residue
    # guard refuses
    "inversion": ("--E0", "1e308,1e308,0", "--xform", "inversion",
                  "--grid", "t=2:2:1,x=1:1:1"),
}


@pytest.mark.parametrize("case", _OVERFLOWS)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_transform_overflow_row_is_skipped(capsys, fmt, case):
    code, out, err = run_cli(
        capsys, "transform", "--field", "uniform", *_OVERFLOWS[case], "--format", fmt,
    )
    assert code == 1 and "skipped" in err
    assert "inf" not in out.lower()
    if fmt == "csv":
        row = parse_csv(out)[0]
        assert row["skipped"] == "1" and row["Ex"] == "" and row["Exp"] == ""
    else:
        row = json.loads(out)[0]
        assert row["skipped"] is True and row["Ex"] is None and row["Exp"] is None


def test_transform_summary_goes_to_stderr_only(tmp_path):
    """One stderr line counts the rows and the reasons rows were skipped;
    stdout is the same with stderr captured, discarded, or the rows sent to
    a file."""
    argv = (
        "transform", "--field", "coulomb", "--xform", "inversion",
        "--grid", "t=0:2:3,x=0:2:3,y=-1:1:3",
    )
    captured = run_proc(*argv)
    assert captured.returncode == 0
    assert captured.stderr == "27 rows, 7 skipped (charge 3, light_cone 4)\n"
    lines = captured.stdout.split("\n")
    assert lines[0] == CSV_HEADER and len(lines) == 29 and lines[-1] == ""
    discarded = subprocess.run(
        [sys.executable, "-m", "emconf.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    assert discarded.stdout == captured.stdout
    out = tmp_path / "rows.csv"
    to_file = run_proc(*argv, "--out", str(out))
    assert to_file.stdout == "" and to_file.stderr == captured.stderr
    assert out.read_text() == captured.stdout


def test_transform_job_file_with_flag_override(tmp_path, capsys):
    job = {
        "field": {"kind": "uniform", "E0": [1, 0, 0]},
        "xform": {"kind": "inversion", "eps": 1},
        "grid": {"t": {"min": 1, "max": 1, "count": 1}},
        "format": "json",
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, out, _ = run_cli(capsys, "transform", "--job", str(path))
    assert code == 0
    assert json.loads(out)[0]["Exp"] == 1.0
    # a flag overrides the job's format
    code, out, _ = run_cli(capsys, "transform", "--job", str(path), "--format", "csv")
    assert code == 0
    assert out.startswith(CSV_HEADER)


def test_transform_output_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys,
        "transform", "--field", "uniform", "--E0", "1,0,0",
        "--xform", "dilation", "--lambda", "2.0", "--grid", "t=1:1:1",
        "--out", str(path),
    )
    assert code == 0 and out == ""
    row = parse_csv(path.read_text())[0]
    assert float(row["Exp"]) == pytest.approx(4.0)  # field weight is factor^2
    assert float(row["scale"]) == 2.0


def test_transform_malformed_inputs_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(capsys, "transform", "--job", str(bad))[0] == 2
    # missing transformation
    code, _, err = run_cli(capsys, "transform", "--field", "uniform")
    assert code == 2 and "transformation" in err
    # bad grid axis counts
    job = tmp_path / "grid.json"
    job.write_text(json.dumps({
        "field": {"kind": "uniform"},
        "xform": {"kind": "inversion"},
        "grid": {"t": {"min": 0, "max": 1, "count": 0}},
    }))
    assert run_cli(capsys, "transform", "--job", str(job))[0] == 2
    # argparse rejects malformed vectors on its own
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--field", "uniform", "--E0", "1,2"])
    assert exc.value.code == 2


def test_transform_accepts_a_large_orthogonal_plane_wave(capsys):
    """(3, -6, 2) 1e6 / 7 is orthogonal to (2, 3, 6) / 7 up to rounding
    that is large against 1e-12 but small against |E0|."""
    code, out, _ = run_cli(
        capsys,
        "transform", "--field", "planewave",
        "--khat=0.2857142857142857,0.42857142857142855,0.8571428571428571",
        "--E0=428571.42857142858,-857142.85714285716,285714.28571428574",
        "--xform", "dilation", "--lambda=2",
    )
    assert code == 0
    assert float(parse_csv(out)[0]["Exp"]) == 4 * 428571.42857142858


def test_transform_refuses_a_grid_too_large_to_index(tmp_path, capsys):
    """10^20 rows overflow numpy's index type: the job is refused before
    any output is opened, with no traceback and no file left behind."""
    path = tmp_path / "rows.csv"
    axis = "0:1:100000"
    code, out, err = run_cli(
        capsys,
        "transform", "--field", "uniform", "--xform", "dilation",
        "--grid", f"t={axis},x={axis},y={axis},z={axis}", "--out", str(path),
    )
    assert (code, out) == (2, "")
    assert "100000000000000000000 rows" in err and "Traceback" not in err
    assert not path.exists()


def test_transform_non_finite_inputs_exit_two(tmp_path, capsys):
    # a NaN field amplitude once reached the JSON output as a bare nan
    with pytest.raises(SystemExit) as exc:
        main([
            "transform", "--xform", "inversion", "--field", "uniform",
            "--E0", "nan,0,0", "--grid", "t=2:2:1", "--format", "json",
        ])
    assert exc.value.code == 2
    assert "--E0" in capsys.readouterr().err
    # a NaN grid bound once passed the min > max check
    with pytest.raises(SystemExit) as exc:
        main([
            "transform", "--xform", "inversion", "--field", "uniform",
            "--E0", "1,0,0", "--grid", "t=nan:2:2",
        ])
    assert exc.value.code == 2
    assert "axis t" in capsys.readouterr().err
    # scalar flags are checked where the job is built
    code, out, err = run_cli(
        capsys,
        "transform", "--xform", "dilation", "--lambda", "inf",
        "--field", "coulomb", "--grid", "t=2:2:1",
    )
    assert code == 2 and out == "" and "factor" in err
    # the job file: JSON readers accept NaN and Infinity literals
    for field, grid, name in (
        ('{"kind": "uniform", "E0": [NaN, 0, 0]}', '{}', "E0"),
        ('{"kind": "planewave", "E0": [1, 0, 0], "khat": [0, 0, 1], '
         '"phase": Infinity}', '{}', "phase"),
        ('{"kind": "uniform"}', '{"t": {"min": 0, "max": Infinity, "count": 2}}',
         "grid axis t"),
        ('{"kind": "uniform"}', '{"t": {"min": 0, "max": 1, "count": Infinity}}',
         "grid axis t"),
    ):
        job = tmp_path / "job.json"
        job.write_text(
            f'{{"field": {field}, "xform": {{"kind": "inversion"}}, "grid": {grid}}}'
        )
        code, out, err = run_cli(capsys, "transform", "--job", str(job))
        assert code == 2 and out == "" and name in err


@pytest.mark.parametrize("flag, value, job, rule", [
    ("--E0", "1,2", {"field": {"kind": "uniform", "E0": [1, 2]}},
     "must be a list of 3 numbers"),
    ("--b", "1,2,3", {"xform": {"kind": "translation", "offset": [1, 2, 3]}},
     "must be a list of 4 numbers"),
    ("--grid", "t=nan:2:2", {"grid": {"t": {"min": float("nan"), "max": 2, "count": 2}}},
     "grid axis t: min must be a finite number"),
    ("--grid", "t=1:0:2", {"grid": {"t": {"min": 1, "max": 0, "count": 2}}},
     "grid axis t: min exceeds max"),
    ("--grid", "t=0:1:0", {"grid": {"t": {"min": 0, "max": 1, "count": 0}}},
     "grid axis t: count must be at least 1"),
])
def test_malformed_flags_are_usage_errors_worded_as_the_job_file(
    tmp_path, capsys, flag, value, job, rule
):
    """A malformed flag is an argparse usage error that names the flag and
    the rule the job file's check gives for the same value."""
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--field", "uniform", "--xform", "translation", f"{flag}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err and rule in err
    path = tmp_path / "job.json"
    path.write_text(json.dumps({
        "field": {"kind": "uniform"}, "xform": {"kind": "translation", "offset": [0, 0, 0, 0]},
        **job,
    }))
    code, out, err = run_cli(capsys, "transform", "--job", str(path))
    assert code == 2 and out == "" and rule in err


_NOT_INTEGERS = {
    # each was once truncated by int() and the job ran with exit 0
    "count-fraction": ('{"kind": "inversion"}', '{"t": {"min": 0, "max": 1, "count": 2.7}}',
                       "grid axis t: count"),
    "count-bool": ('{"kind": "inversion"}', '{"t": {"min": 0, "max": 1, "count": true}}',
                   "grid axis t: count"),
    "eps-fraction": ('{"kind": "inversion", "eps": -1.9}', '{}', "eps"),
    "eps-bool": ('{"kind": "inversion", "eps": true}', '{}', "eps"),
}


@pytest.mark.parametrize("case", _NOT_INTEGERS)
def test_job_file_integers_are_not_truncated(tmp_path, capsys, case):
    xform, grid, name = _NOT_INTEGERS[case]
    job = tmp_path / "job.json"
    job.write_text(
        f'{{"field": {{"kind": "uniform", "E0": [1, 0, 0]}}, "xform": {xform}, '
        f'"grid": {grid}}}'
    )
    code, out, err = run_cli(capsys, "transform", "--job", str(job))
    assert code == 2 and out == ""
    assert err == f"error: {name} must be an integer\n"


_NOT_NUMBERS = {
    # each was once read as 0 or 1 and the job ran with exit 0
    "vector-bool": ('{"kind": "uniform", "E0": [true, 0, 0]}', '{"kind": "inversion"}', '{}',
                    "E0 must be a list of 3 numbers"),
    "scalar-bool": ('{"kind": "uniform", "E0": [1, 0, 0]}', '{"kind": "dilation", "factor": true}',
                    '{}', "factor must be a number"),
    "grid-bool": ('{"kind": "uniform", "E0": [1, 0, 0]}', '{"kind": "inversion"}',
                  '{"t": {"min": true, "max": true, "count": 1}}',
                  "grid axis t: min must be a number"),
}


@pytest.mark.parametrize("case", _NOT_NUMBERS)
def test_job_file_numbers_refuse_booleans(tmp_path, capsys, case):
    field, xform, grid, message = _NOT_NUMBERS[case]
    job = tmp_path / "job.json"
    job.write_text(f'{{"field": {field}, "xform": {xform}, "grid": {grid}}}')
    code, out, err = run_cli(capsys, "transform", "--job", str(job))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("field, xform, message", [
    ('{"kind": "uniform", "E0": [BIG, 0, 0]}', '{"kind": "inversion"}',
     "E0 must be a list of 3 numbers"),
    ('{"kind": "uniform", "E0": [1, 0, 0]}', '{"kind": "dilation", "factor": BIG}',
     "factor must be a number"),
])
def test_job_file_numbers_past_float_range_exit_two(tmp_path, capsys, field, xform, message):
    """An integer too large for a float once escaped as an OverflowError."""
    job = tmp_path / "job.json"
    text = f'{{"field": {field}, "xform": {xform}}}'
    job.write_text(text.replace("BIG", "1" + "0" * 400))
    code, out, err = run_cli(capsys, "transform", "--job", str(job))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_job_file_integral_numbers_are_accepted(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(
        '{"field": {"kind": "uniform", "E0": [1, 0, 0]}, '
        '"xform": {"kind": "inversion", "eps": -1.0}, '
        '"grid": {"t": {"min": 1, "max": 2, "count": 2.0}}}'
    )
    code, out, _ = run_cli(capsys, "transform", "--job", str(job))
    assert code == 0 and len(parse_csv(out)) == 2


_OUT_COMMANDS = {
    "transform": ("transform", "--field", "uniform", "--E0", "1,0,0", "--xform", "inversion"),
    "invariants": ("invariants", "--field", "uniform", "--E0", "1,0,0",
                   "--xform", "inversion", "--point", "1,0,0,0"),
    "verify": ("verify", "--trials", "4"),
}


@pytest.mark.parametrize("command", _OUT_COMMANDS)
def test_unwritable_output_path_exits_two(tmp_path, capsys, command):
    """An output file in a missing directory once ended in a traceback."""
    path = tmp_path / "missing" / "rows.csv"
    code, out, err = run_cli(capsys, *_OUT_COMMANDS[command], "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write output file: ") and err.count("\n") == 1
    assert str(path) in err and not path.parent.exists()


@pytest.mark.parametrize("value", ["true", "5.0"])
def test_job_file_out_must_be_a_string(tmp_path, capsys, value):
    """out: true once opened file descriptor 1, wrote the rows to stdout and
    closed it; out: 5.0 ended in a TypeError."""
    job = tmp_path / "job.json"
    job.write_text(
        '{"field": {"kind": "uniform", "E0": [1, 0, 0]}, '
        f'"xform": {{"kind": "inversion"}}, "out": {value}}}'
    )
    code, out, err = run_cli(capsys, "transform", "--job", str(job))
    assert code == 2 and out == ""
    assert err == "error: job out entry must be a string\n"


def test_lorentz_boost_through_cli(capsys):
    import math

    code, out, _ = run_cli(
        capsys,
        "transform", "--field", "uniform", "--E0", "0,1,0",
        "--xform", "lorentz", "--boost", "0.25,0,0", "--grid", "t=0:0:1",
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["Eyp"]) == pytest.approx(math.cosh(0.5), rel=1e-14)
    assert float(row["Bzp"]) == pytest.approx(math.sinh(0.5), rel=1e-14)


def test_overflow_warnings_stay_off_stderr():
    """Overflowed rows are counted in the summary and an overflowed report is
    named in its error, so stderr holds those lines and no numpy warnings."""
    boost = ("--xform", "lorentz", "--boost=1000,0,0", "--field", "uniform", "--E0", "1,0,0")
    for frame in ("original", "transformed"):
        proc = run_proc("transform", *boost, "--grid", "x=0.5:2:3", "--frame", frame)
        assert proc.returncode == 1
        assert proc.stderr == (
            "3 rows, 3 skipped (non_finite 3)\nerror: every grid point was skipped\n"
        )
    proc = run_proc("invariants", *boost, "--point", "1,0,0,0")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (
        "error: non-finite values in the report: "
        "i1_transformed, i2_transformed, rel_dev_i1, rel_dev_i2\n"
    )


def _reference_lines(fmt, events, F_in, F_out, scale, reason):
    """The rows of a sweep with %.17g applied to each of a row's 17 numbers."""
    keys = [json.dumps(k) for k in CSV_HEADER.split(",")]
    numbers = np.concatenate(
        [events, F_in.F.real, F_in.F.imag, F_out.F.real, F_out.F.imag, scale[:, None]],
        axis=1,
    )
    lines = []
    for row, why in zip(numbers, reason):
        cells = ["%.17g" % v for v in row]
        if why:
            cells[4:] = ["" if fmt == "csv" else "null"] * 13
        if fmt == "csv":
            lines.append(",".join(cells + ["1" if why else "0"]))
        else:
            cells.append("true" if why else "false")
            lines.append("{" + ", ".join(f"{k}: {c}" for k, c in zip(keys, cells)) + "}")
    return lines


_IDENTITY_JOBS = {
    # light-cone and charge rows are skipped; the x axis ends at -0
    "inversion-coulomb": (
        ("--xform", "inversion", "--field", "coulomb"),
        Inversion(), Coulomb(),
        {"t": (0.0, 2.0, 3), "x": (-2.0, -0.0, 3), "y": (-1.0, 1.0, 3)},
    ),
    # coordinates at the ends of the float64 range, and a lone -0
    "dilation-uniform": (
        ("--xform", "dilation", "--lambda", "1.7", "--field", "uniform",
         "--E0", "1,0.5,0", "--B0", "0,0,2"),
        Dilation(1.7), UniformField(E0=(1, 0.5, 0), B0=(0, 0, 2)),
        {"t": (1e-300, 3e-300, 3), "x": (-1e300, 1e300, 3), "z": (-0.0, -0.0, 1)},
    ),
}


@pytest.mark.parametrize("chunk_rows", [7, cli.CHUNK_ROWS])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("frame", ["original", "transformed"])
@pytest.mark.parametrize("job", _IDENTITY_JOBS)
def test_transform_rows_match_a_reference_formatter(
    monkeypatch, capsys, job, frame, fmt, chunk_rows
):
    """Every row, computed or skipped, equals %.17g of its 17 numbers; with
    7-row chunks, chunks start in the middle of an axis."""
    flags, params, field, axes = _IDENTITY_JOBS[job]
    grid = ",".join(f"{a}={lo!r}:{hi!r}:{n}" for a, (lo, hi, n) in axes.items())
    monkeypatch.setattr(cli, "CHUNK_ROWS", chunk_rows)
    code, out, _ = run_cli(
        capsys, "transform", *flags, "--grid", grid, "--frame", frame, "--format", fmt
    )
    assert code == 0
    values = [
        np.linspace(lo, hi, n) if n > 1 else [lo]
        for lo, hi, n in (axes.get(a, (0.0, 0.0, 1)) for a in "txyz")
    ]
    events = np.array(list(itertools.product(*values)), dtype=float)
    assert (np.signbit(events) & (events == 0)).any()
    F_in, F_out, scale, reason = sweep(field, params, events, CoordinateFrame(frame))
    assert reason.any() == (job == "inversion-coulomb")
    lines = _reference_lines(fmt, events, F_in, F_out, scale, reason)
    if fmt == "csv":
        assert out == "\n".join([CSV_HEADER, *lines]) + "\n"
    else:
        assert out == "[\n" + ",\n".join(lines) + "\n]\n"


_MAGNITUDE_JOBS = {
    # |x| >= 10 with and without a fraction, 1e-7 and 1e-12 past the fixed
    # range, 2.5e16 at its top, and -0
    "dilation-uniform": (
        ("--xform", "dilation", "--lambda", "1e-3", "--field", "uniform",
         "--E0=1e5,-12.5,3e-7", "--B0=-0,1e-12,2.5e16"),
        Dilation(1e-3), UniformField(E0=(1e5, -12.5, 3e-7), B0=(-0.0, 1e-12, 2.5e16)),
        {"t": (0.0, 3.0, 4), "x": (-1e-5, 1e-5, 3)},
    ),
    # a strong charge: fields from 1e-1 to 1e6, skipped rows on the charge
    "sct-coulomb": (
        ("--xform", "sct", "--a=0.25,0.5,0,0", "--field", "coulomb", "--q", "1e4"),
        Sct(a=FourVector(0.25, 0.5, 0.0, 0.0)), Coulomb(q=1e4),
        {"t": (0.0, 2.0, 3), "x": (-0.5, 0.5, 5), "y": (-2.0, 2.0, 5)},
    ),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("job", _MAGNITUDE_JOBS)
def test_transform_rows_at_every_magnitude_match_a_reference_formatter(
    monkeypatch, capsys, job, fmt
):
    """Rows whose numbers run from 1e-12 to 1e16, through every layout of
    the array formatter and its fallback, equal %.17g of each number; chunks
    of 5 rows start in the middle of an axis."""
    flags, params, field, axes = _MAGNITUDE_JOBS[job]
    grid = ",".join(f"{a}={lo!r}:{hi!r}:{n}" for a, (lo, hi, n) in axes.items())
    monkeypatch.setattr(cli, "CHUNK_ROWS", 5)
    code, out, _ = run_cli(capsys, "transform", *flags, "--grid", grid, "--format", fmt)
    assert code == 0
    values = [
        np.linspace(lo, hi, n) for lo, hi, n in (axes.get(a, (0.0, 0.0, 1)) for a in "txyz")
    ]
    events = np.array(list(itertools.product(*values)), dtype=float)
    F_in, F_out, scale, reason = sweep(field, params, events, CoordinateFrame.ORIGINAL)
    assert reason.any() == (job == "sct-coulomb")
    assert (np.abs(F_out.F[reason == 0]) >= 10).any()
    lines = _reference_lines(fmt, events, F_in, F_out, scale, reason)
    if fmt == "csv":
        assert out == "\n".join([CSV_HEADER, *lines]) + "\n"
    else:
        assert out == "[\n" + ",\n".join(lines) + "\n]\n"


# -- invariants -----------------------------------------------------------------


def test_invariants_report(capsys):
    code, out, _ = run_cli(
        capsys,
        "invariants", "--field", "uniform", "--E0", "1,0,0", "--B0", "0.5,0,0",
        "--xform", "inversion", "--point", "2,0,0,0",
    )
    assert code == 0
    report = json.loads(out)
    assert report["i1"] == pytest.approx(0.75)
    assert report["i2"] == pytest.approx(1.0)
    assert report["scale"] == pytest.approx(4.0)
    assert report["factor_i1"] == pytest.approx(256.0)
    assert report["factor_i2"] == pytest.approx(-256.0)
    assert report["rel_dev_i1"] < 1e-10
    assert report["rel_dev_i2"] < 1e-10


def test_invariants_lightcone_exits_one(capsys):
    code, _, err = run_cli(
        capsys,
        "invariants", "--field", "uniform", "--E0", "1,0,0",
        "--xform", "inversion", "--point", "1,1,0,0",
    )
    assert code == 1
    assert "light cone" in err


def test_invariants_overflow_exits_one(capsys):
    # the field sandwich overflows into a NaN residue; the report once printed
    # bare nan values, which are not JSON, and exited 0
    code, out, err = run_cli(
        capsys,
        "invariants", "--field", "uniform", "--E0", "1e308,1e308,0",
        "--xform", "inversion", "--point", "2,1,0,0",
    )
    assert code == 1 and out == ""
    assert "residue" in err


def test_invariants_non_finite_report_exits_one(capsys):
    # the dilated field overflows to inf without tripping a guard; the report
    # once printed "rel_dev_i1": nan, which is not JSON, and exited 0
    code, out, err = run_cli(
        capsys,
        "invariants", "--field", "uniform", "--E0", "1e308,0,0",
        "--xform", "dilation", "--lambda", "1e10", "--point", "1,1,0,0",
    )
    assert code == 1 and out == ""
    assert err.startswith("error: non-finite") and "rel_dev_i1" in err


def test_invariants_refuses_a_report_roundoff_dominates(capsys):
    # E'^2 - B'^2 cancels terms of about 1.5e16 down to 0.75, so kappa is
    # about 3e16; the report once printed "rel_dev_i1": 4.75 and exited 0
    code, out, err = run_cli(
        capsys,
        "invariants", "--field", "uniform", "--E0", "1,0,0", "--B0", "0,0.5,0",
        "--xform", "lorentz", "--boost", "10,0,0", "--point", "1,0,0,0",
    )
    assert code == 1 and out == ""
    assert err.startswith("error: roundoff dominates") and "kappa = " in err


def test_overflowing_boost_is_skipped_not_printed(capsys):
    """A rotor past the float64 range leaves NON_FINITE rows, never a NaN."""
    boost = ("--xform", "lorentz", "--boost=1000,0,0", "--field", "uniform", "--E0", "1,0,0")
    for frame in ("original", "transformed"):
        code, out, err = run_cli(
            capsys, "transform", *boost, "--grid", "x=0.5:2:3", "--frame", frame
        )
        assert code == 1
        assert [row["skipped"] for row in parse_csv(out)] == ["1"] * 3
        assert "nan" not in out and "inf" not in out
        assert "3 rows, 3 skipped (non_finite 3)" in err
    code, out, err = run_cli(capsys, "invariants", *boost, "--point", "1,0,0,0")
    assert code == 1 and out == ""
    assert err.startswith("error: non-finite")


# -- verify ---------------------------------------------------------------------


def test_verify_small_run(capsys):
    code, out, err = run_cli(capsys, "verify", "--seed", "9", "--trials", "5")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["seed"] == 9
    assert {c["check_id"] for c in report["checks"]} >= {
        "blade_products",
        "three_way_agreement",
        "invariant_scaling",
    }
    assert all(
        set(c) == {"check_id", "trials", "max_abs_dev", "tolerance", "pass"}
        for c in report["checks"]
    )
    assert "16/16" in err


def test_verify_zero_tolerance_exits_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "5", "--tol", "0")
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert any(c["max_abs_dev"] > 0 for c in report["checks"] if not c["pass"])


def test_verify_rejects_bad_arguments(capsys):
    assert run_cli(capsys, "verify", "--trials", "0")[0] == 2
    assert run_cli(capsys, "verify", "--seed", "-1", "--trials", "1")[0] == 2
    for tol in ("-1", "inf", "nan"):
        assert run_cli(capsys, "verify", "--tol", tol)[0] == 2


def _reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


def test_verify_nan_and_crashed_checks_fail_as_valid_json(monkeypatch, capsys):
    """A NaN deviation fails its check; neither it nor a crash prints a bare
    NaN or Infinity into the report."""

    def nan_route(params, kind, value, x=None, frame=None):
        return Faraday3(F=np.full(3, np.nan))

    def crash(rng, trials, tol):
        raise RuntimeError("check crashed")

    monkeypatch.setattr(verify, "transform3", nan_route)
    monkeypatch.setattr(verify, "REGISTRY", (
        ("invariant_scaling", verify.check_invariant_scaling, 500, verify.BASE_TOL),
        ("crash", crash, 100, verify.BASE_TOL),
    ))
    code, out, err = run_cli(capsys, "verify", "--trials", "5")
    report = json.loads(out, parse_constant=_reject_constant)
    assert code == 1 and "0/2" in err
    assert report["pass"] is False
    assert [(c["pass"], c["max_abs_dev"]) for c in report["checks"]] == [
        (False, None), (False, None)
    ]


def test_verify_names_a_crashed_check(monkeypatch, capsys):
    """Only the crashed check carries an error key; stderr names it."""

    def crash(rng, trials, tol):
        raise TypeError("operands could not be broadcast together")

    monkeypatch.setattr(verify, "REGISTRY", (
        ("conformality", verify.check_conformality, 200, 1e-8),
        ("crash", crash, 100, verify.BASE_TOL),
    ))
    code, out, err = run_cli(capsys, "verify", "--trials", "5")
    report = json.loads(out, parse_constant=_reject_constant)
    assert code == 1
    assert "error" not in report["checks"][0]
    assert report["checks"][1]["error"] == "TypeError: operands could not be broadcast together"
    assert "check crash crashed: TypeError: operands could not be broadcast together" in err
    assert err.rstrip().endswith("verification FAILED: 1/2 checks")


def test_verify_timings_go_to_stderr_only(capsys):
    code, plain, plain_err = run_cli(capsys, "verify", "--seed", "3", "--trials", "5")
    timed_code, timed, timed_err = run_cli(
        capsys, "verify", "--seed", "3", "--trials", "5", "--timings"
    )
    assert code == timed_code == 0
    assert timed == plain
    timing_lines = [ln for ln in timed_err.splitlines() if ln.startswith("time ")]
    assert [ln.split()[1] for ln in timing_lines] == [c[0] for c in verify.REGISTRY]
    assert all(ln.endswith(" ms") and float(ln.split()[2]) > 0.0 for ln in timing_lines)
    assert not any(ln.startswith("time ") for ln in plain_err.splitlines())


def test_verify_byte_identical_across_processes():
    first = run_proc("verify", "--seed", "11", "--trials", "10")
    second = run_proc("verify", "--seed", "11", "--trials", "10")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout


def test_verify_seed_from_environment():
    proc = run_proc("verify", "--trials", "5", env={"EMCONF_SEED": "123"})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["seed"] == 123
    # a malformed or negative environment seed is a usage error
    for bad in ("abc", "-1"):
        proc = run_proc("verify", "--trials", "5", env={"EMCONF_SEED": bad})
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr


def test_main_reuses_one_parser(monkeypatch, capsys):
    """Repeated in-process calls print the same bytes, a call argparse
    rejects in between changes nothing, and EMCONF_SEED is read per call."""
    argv = ("transform", "--field", "coulomb", "--xform", "sct", "--a=0.1,0,0.2,0",
            "--grid", "t=0:2:3,x=0:1:3", "--format", "json")
    first = run_cli(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--field", "coulomb", "--grid", "t=0:1"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, *argv) == first and first[0] == 0
    assert cli._parser() is cli._parser()
    reports = []
    for seed in ("5", "6"):
        monkeypatch.setenv("EMCONF_SEED", seed)
        code, out, _ = run_cli(capsys, "verify", "--trials", "2")
        assert code == 0
        reports.append(json.loads(out)["seed"])
    assert reports == [5, 6]


def test_transform_byte_identical_across_processes():
    argv = (
        "transform", "--field", "planewave", "--E0", "1,0,0", "--khat", "0,0,1",
        "--xform", "sct", "--a", "0.1,0,0.2,0", "--grid", "t=0:2:7,z=-1:1:3",
    )
    first = run_proc(*argv)
    second = run_proc(*argv)
    assert first.returncode == 0
    assert first.stdout == second.stdout
