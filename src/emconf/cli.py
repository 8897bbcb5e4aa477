"""Command-line front end for conformal field transformations.

Three subcommands: `transform` sweeps an analytic field over a spacetime
grid and writes input and transformed components per event, `invariants`
reports the Lorentz invariants and their predicted scaling at one event,
and `verify` runs the seeded self-check suite.

Numbers are emitted at 17 significant digits and rows in grid order, so
identical jobs produce byte-identical files.  CSV and JSON are written by
hand: the stdlib serializers do not honor a fixed digit count.

`transform` runs one array kernel (fields.sweep) per chunk of CHUNK_ROWS grid
events and writes each chunk's rows straight from the arrays before it
computes the next, so memory stays flat in the grid size.  The kernel keeps
each row's bits independent of the chunk it falls in, so the output does not
depend on CHUNK_ROWS.  A one-line summary of the rows and the reasons rows
were skipped goes to stderr; stdout holds the rows only.

A chunk's rows are fixed-width byte records, padded with NUL bytes that are
deleted afterwards, into which numtext.write_g17 writes the 13 field and
scale numbers of every row at once, each exactly '%.17g' % v of its float64
value (numtext's docstring gives the rounding analysis).

Flags overlay a job file's `field` and `xform` sections key by key.  Each
key is named once, in _KEYS, with its flag and its check; a kind takes the
fields of its class, with the class's defaults.  Any key that is not taken
is refused with exit code 2.

The argument parser is built on the first main() call and reused by later
calls in the same process, so in-process callers do not rebuild it per job.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from .conformal3 import Refusal
from .errors import (
    ConformalDomainError,
    ImaginaryResidueError,
    OriginSingularityError,
)
from .fields import (
    Coulomb,
    FieldSpec,
    InvariantScalingReport,
    PlaneWave,
    UniformField,
    invariant_scaling_report,
    sweep,
)
from .maps import (
    ConformalParams,
    CoordinateFrame,
    Dilation,
    Inversion,
    Lorentz,
    LorentzClass,
    RESIDUE_TOL,
    Sct,
    Translation,
)
from .numtext import CELL_BYTES, write_g17
from .verify import BASE_TOL, DEFAULT_SEED, REFERENCE_TRIALS, run_suite

_AXES = ("t", "x", "y", "z")
_FIELD_KEYS = (
    "Ex", "Ey", "Ez", "Bx", "By", "Bz",
    "Exp", "Eyp", "Ezp", "Bxp", "Byp", "Bzp",
)
CSV_HEADER = "t,x,y,z," + ",".join(_FIELD_KEYS) + ",scale,skipped"
_FORMATS = ("csv", "json")
# Grid rows per kernel call of transform: each chunk is computed, formatted
# and written before the next, so memory does not grow with the grid.
CHUNK_ROWS = 4096
# Refusals at one event: a cone of the map, the field's singular point, or a
# sandwich residue above tolerance.  A field that overflows is refused below,
# by the report's non-finite values.
_REFUSALS = (ConformalDomainError, OriginSingularityError, ImaginaryResidueError)


class JobError(Exception):
    """Malformed job file or inconsistent flag set."""


# 17 significant digits round-trip float64.
_NUM = "%.17g"


def _num(v: float) -> str:
    return _NUM % float(v)


# -- flag and job parsing ---------------------------------------------------------


def _usage(check):
    """An argparse type from a job-file check: its JobError becomes a usage
    error, which argparse prefixes with the flag."""
    def parse(text: str):
        try:
            return check(text)
        except JobError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _vec(n: int):
    """The argparse type of a flag of n comma-separated numbers."""
    return _usage(lambda text: _require_numbers(text.split(","), n, "the value"))


def _grid_flag(text: str) -> dict:
    """Parse t=0:2:5,x=-1:1:3 into the values of each named axis."""
    grid = {}
    for item in text.split(","):
        name, sep, spec = item.partition("=")
        if not sep or name not in _AXES:
            raise JobError(f"bad grid axis: {item!r}")
        if name in grid:
            raise JobError(f"duplicate grid axis: {name}")
        parts = spec.split(":")
        if len(parts) != 3:
            raise JobError(f"axis {name}: expected min:max:count")
        grid[name] = _axis(name, dict(zip(("min", "max", "count"), parts)))
    return grid


def _load_job(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            job = json.load(fh)
    except OSError as exc:
        raise JobError(f"cannot read job file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise JobError(f"job file is not valid JSON: {exc}") from None
    if not isinstance(job, dict):
        raise JobError("job file must hold a JSON object")
    return job


def _require_numbers(seq, n: int, what: str) -> tuple[float, ...]:
    """A list of n finite numbers: a bool is refused, not read as 0 or 1."""
    if (
        not isinstance(seq, (list, tuple))
        or len(seq) != n
        or any(isinstance(v, bool) for v in seq)
    ):
        raise JobError(f"{what} must be a list of {n} numbers")
    try:
        values = tuple(float(v) for v in seq)
    except (TypeError, ValueError, OverflowError):
        raise JobError(f"{what} must be a list of {n} numbers") from None
    if not all(map(math.isfinite, values)):
        raise JobError(f"{what} must be a list of {n} finite numbers")
    return values


def _require_int(value, what: str) -> int:
    """An integer from a job file: a bool or a fractional number is refused,
    not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise JobError(f"{what} must be an integer")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise JobError(f"{what} must be an integer") from None


def _require_number(value, what: str) -> float:
    """A finite number: a bool is refused, not read as 0 or 1."""
    if isinstance(value, bool):
        raise JobError(f"{what} must be a number")
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise JobError(f"{what} must be a number") from None
    if not math.isfinite(x):
        raise JobError(f"{what} must be a finite number")
    return x


def _vector(n: int):
    """The job file's check of a list of n numbers, which names the key."""
    return lambda value, key: _require_numbers(value, n, key)


def _lorentz_class(value, key: str) -> LorentzClass:
    try:
        return LorentzClass(value)
    except ValueError:
        raise JobError(f"unknown lorentz class: {value!r}") from None


# Each job section (its key is also its kind flag): its name in messages, the
# word that a class's own refusal is reported under, and each kind's class.
_SECTIONS = {
    "field": ("field", "field", {
        "uniform": UniformField, "planewave": PlaneWave, "coulomb": Coulomb,
    }),
    "xform": ("transformation", "parameters", {
        "dilation": Dilation, "translation": Translation, "lorentz": Lorentz,
        "inversion": Inversion, "sct": Sct,
    }),
}
# Each section's keys in flag order: the flag, the key, which is the flag's
# argparse dest and the job file's name, the job file's check of the key's
# value, and the flag's argparse options.  A key's default is its class's.
_KEYS = {
    "field": (
        ("--E0", "E0", _vector(3), {"type": _vec(3), "metavar": "Ex,Ey,Ez"}),
        ("--B0", "B0", _vector(3), {"type": _vec(3), "metavar": "Bx,By,Bz"}),
        ("--khat", "khat", _vector(3), {"type": _vec(3), "metavar": "kx,ky,kz"}),
        ("--phase", "phase", _require_number, {"type": float}),
        ("--q", "q", _require_number, {"type": float}),
    ),
    "xform": (
        ("--eps", "eps", _require_int, {"type": int, "choices": [-1, 1]}),
        ("--a", "a", _vector(4), {"type": _vec(4), "metavar": "t,x,y,z"}),
        ("--lambda", "factor", _require_number, {"type": float, "metavar": "FACTOR"}),
        ("--b", "offset", _vector(4), {"type": _vec(4), "metavar": "t,x,y,z"}),
        ("--boost", "boost", _vector(3), {"type": _vec(3), "metavar": "bx,by,bz"}),
        ("--rotation", "rotation", _vector(3), {"type": _vec(3), "metavar": "rx,ry,rz"}),
        ("--lorentz-class", "class", _lorentz_class,
         {"choices": [c.value for c in LorentzClass]}),
    ),
}
_CHECKS = {key: check for rows in _KEYS.values() for _, key, check, _ in rows}
# Each kind's keys, read off its class's fields: the class's parameter and
# whether the key is required (the field has no default).  The key `class`
# stands for the parameter `lorentz_class`.
_KIND_KEYS = {
    kind: {
        "class" if f.name == "lorentz_class" else f.name: (
            f.name, f.default is dataclasses.MISSING
        )
        for f in dataclasses.fields(cls)
    }
    for _, _, classes in _SECTIONS.values()
    for kind, cls in classes.items()
}
# The top-level job keys each command reads; any other key is refused.
_JOB_KEYS = {
    "transform": {"field", "xform", "grid", "frame", "format", "out"},
    "invariants": {"field", "xform", "point", "out"},
}


def _build(section: str, spec: dict):
    """The field or map of a job section: each key is checked, and the class,
    which holds every default, is called."""
    name, noun, classes = _SECTIONS[section]
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in classes:
        raise JobError(f"unknown {name} kind: {kind!r}")
    keys = _KIND_KEYS[kind]
    stray = [key for key in spec if key != "kind" and key not in keys]
    if stray:
        raise JobError(f"{kind} takes no {' or '.join(stray)}")
    missing = [key for key, (_, required) in keys.items() if required and key not in spec]
    if missing:
        raise JobError(f"{kind} needs {' and '.join(missing)}")
    values = {param: _CHECKS[key](spec[key], key) for key, (param, _) in keys.items()
              if key in spec}
    try:
        return classes[kind](**values)
    except (TypeError, ValueError) as exc:
        raise JobError(f"bad {kind} {noun}: {exc}") from None


def _job_field_params(args) -> tuple[dict, FieldSpec, ConformalParams]:
    """The job file (empty without --job), and the field and the map that it
    and the flags give.  A section's flags overlay the job file's section,
    but a kind flag that names another kind starts the section afresh."""
    job = _load_job(args.job) if args.job else {}
    stray = [key for key in job if key not in _JOB_KEYS[args.command]]
    if stray:
        raise JobError(f"unknown job key: {stray[0]!r}")
    built = []
    for section, (name, _, _) in _SECTIONS.items():
        spec, kind = job.get(section), getattr(args, section)
        if spec is not None and not isinstance(spec, dict):
            raise JobError(f"job {name} entry must be an object")
        if kind is not None and (spec is None or spec.get("kind") != kind):
            spec = {"kind": kind}
        if spec is None:
            raise JobError(f"no {name} given (use flags or a job file)")
        flags = {key: value for _, key, _, _ in _KEYS[section]
                 if (value := getattr(args, key)) is not None}
        built.append(_build(section, {**spec, **flags}))
    return job, *built


def _axis(name: str, axis: dict) -> np.ndarray:
    """The values of grid axis name from its min, max and count; a count
    too large to hold is refused."""
    if not {"min", "max", "count"} <= axis.keys():
        raise JobError(f"grid axis {name} needs numeric min, max, count")
    stray = [key for key in axis if key not in ("min", "max", "count")]
    if stray:
        raise JobError(f"grid axis {name}: unknown key {stray[0]!r}")
    lo = _require_number(axis["min"], f"grid axis {name}: min")
    hi = _require_number(axis["max"], f"grid axis {name}: max")
    count = _require_int(axis["count"], f"grid axis {name}: count")
    if count < 1:
        raise JobError(f"grid axis {name}: count must be at least 1")
    if lo > hi:
        raise JobError(f"grid axis {name}: min exceeds max")
    # numpy counts an array's bytes in np.intp, 8 to a float64 value.
    if count <= np.iinfo(np.intp).max // 8:
        try:
            return np.linspace(lo, hi, count) if count > 1 else np.array([lo])
        except MemoryError:
            pass
    raise JobError(f"grid axis {name}: count {count} is too large to hold")


def _resolve_grid(job_grid, flag_grid) -> dict:
    """Each axis's values: from the --grid flag, else from the job file, else
    the one value 0.  A grid of more rows than numpy can index is refused."""
    grid = {}
    if job_grid is not None:
        if not isinstance(job_grid, dict):
            raise JobError("job grid must be an object keyed by axis")
        for name, axis in job_grid.items():
            if name not in _AXES:
                raise JobError(f"unknown grid axis: {name!r}")
            if not isinstance(axis, dict):
                raise JobError(f"grid axis {name} must be a min/max/count object")
            grid[name] = axis
    flag_grid = flag_grid or {}
    axes = {
        name: flag_grid[name] if name in flag_grid
        else _axis(name, grid.get(name, {"min": 0.0, "max": 0.0, "count": 1}))
        for name in _AXES
    }
    rows = math.prod(len(v) for v in axes.values())
    if rows > np.iinfo(np.intp).max:
        raise JobError(f"grid of {rows} rows is too large to index")
    return axes


# -- transform --------------------------------------------------------------------


def _grid_chunks(axes: dict):
    """Grid events in itertools.product order (t slowest), CHUNK_ROWS rows at
    a time: an (n, 4) array of the events and, for each axis, the index of
    each event's coordinate on that axis."""
    values = [axes[a] for a in _AXES]
    shape = tuple(len(v) for v in values)
    total = math.prod(shape)
    for start in range(0, total, CHUNK_ROWS):
        index = np.unravel_index(np.arange(start, min(start + CHUNK_ROWS, total)), shape)
        yield np.stack([v[i] for v, i in zip(values, index)], axis=-1), index


def _up4(n: int) -> int:
    return -(-n // 4) * 4


class _RowWriter:
    """The text of a job's rows, built in one byte buffer per chunk.

    A row is a fixed-width record: the coordinate cells, each as wide as the
    longest %.17g text on its axis, then 13 number cells of
    numtext.CELL_BYTES bytes, each behind its separator, all padded with NUL
    bytes, which are deleted from the finished chunk.  A chunk starts as
    copies of the computed-row template, which holds the separators, the
    `skipped` cell and the row end; numtext.write_g17 fills the number cells,
    and skipped rows take the tail of the skipped-row template instead.
    """

    def __init__(self, fmt: str, axes: dict):
        keys = [json.dumps(k).encode() for k in CSV_HEADER.split(",")]
        if fmt == "csv":
            seps = [b""] + [b","] * 17
            start, end, null, flags = b"", b"\n", b"", (b"0", b"1")
        else:
            seps = [b"{" + keys[0] + b": "] + [b", " + k + b": " for k in keys[1:]]
            # Rows are joined by ",\n": each row starts with it but the first.
            start, end, null, flags = b",\n", b"}", b"null", (b"false", b"true")
        self.drop = len(start)
        # Each axis value is formatted once per job.
        head, self.coords = bytearray(start), []
        for axis, sep in zip(_AXES, seps):
            table = np.array([_NUM % v for v in axes[axis].tolist()], dtype="S")
            head += sep
            self.coords.append((len(head), table.view(np.uint8).reshape(len(table), -1)))
            head += bytes(table.itemsize)
        # Rows, cells and their separators span multiples of 4 bytes, so the
        # cells are aligned for numtext's word writes.
        self.start = _up4(len(head))
        self.sep_bytes = _up4(max(len(s) for s in seps[4:17]))
        self.stride = self.sep_bytes + CELL_BYTES

        def template(value: bytes, flag: bytes) -> bytearray:
            row = head.ljust(self.start, b"\0")
            for sep in seps[4:17]:
                row += sep.ljust(self.sep_bytes, b"\0") + value.ljust(CELL_BYTES, b"\0")
            row += seps[17] + flag + end
            return row.ljust(_up4(len(row)), b"\0")

        self.full = template(b"", flags[0])
        self.skipped = np.frombuffer(template(null, flags[1]), np.uint8)[self.start:]

    def text(self, index, numbers: np.ndarray, reason: np.ndarray, first: bool) -> str:
        """The rows of one chunk, from each axis's coordinate index, the
        (n, 13) field and scale numbers, which skipped rows overwrite with
        zeros, and each row's Refusal code."""
        n = len(reason)
        raw = self.full * n
        rows = np.frombuffer(raw, np.uint8).reshape(n, -1)
        for (offset, table), i in zip(self.coords, index):
            rows[:, offset:offset + table.shape[1]] = table[i]
        skipped = reason != 0
        # A skipped row's placeholders are not printed; zeros format fastest.
        numbers[skipped] = 0
        cells = rows[:, self.start:self.start + 13 * self.stride].reshape(n, 13, self.stride)
        write_g17(numbers, cells[:, :, self.sep_bytes:])
        rows[skipped, self.start:] = self.skipped
        if first:
            rows[0, :self.drop] = 0
        return raw.translate(None, b"\0").decode("ascii")


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _num(value)
    return json.dumps(value)


def _json_object(items) -> str:
    body = ", ".join(f"{json.dumps(k)}: {_json_scalar(v)}" for k, v in items)
    return "{" + body + "}"


def _out(args, job: dict) -> str | None:
    """The output path: --out, else the job file's out, else None (stdout)."""
    out = args.out or job.get("out")
    if not isinstance(out, (str, type(None))):
        raise JobError("job out entry must be a string")
    return out


@contextlib.contextmanager
def _output(out: str | None):
    """stdout, or the file at out opened for writing; a file that cannot be
    opened is a JobError."""
    if out is None:
        yield sys.stdout
        return
    try:
        fh = open(out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise JobError(f"cannot write output file: {exc}") from None
    with fh:
        yield fh


def _emit(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text)


def _summary(tally: np.ndarray) -> str:
    """One line from the rows counted per Refusal code, for example
    `500 rows, 5 skipped (charge 5)`."""
    rows = int(tally.sum())
    skipped = rows - int(tally[Refusal.OK])
    line = f"{rows} rows, {skipped} skipped"
    if skipped:
        counts = [f"{code.name.lower()} {tally[code]}" for code in Refusal if code and tally[code]]
        line += f" ({', '.join(counts)})"
    return line


def cmd_transform(args) -> int:
    job, field, params = _job_field_params(args)
    axes = _resolve_grid(job.get("grid"), args.grid)
    frame_name = args.frame or job.get("frame", "original")
    try:
        frame = CoordinateFrame(frame_name)
    except ValueError:
        raise JobError(f"unknown frame: {frame_name!r}") from None
    fmt = args.format or job.get("format", "csv")
    if fmt not in _FORMATS:
        raise JobError(f"unknown format: {fmt!r}")
    out = _out(args, job)

    tally = np.zeros(len(Refusal), dtype=np.int64)
    # A row that overflows is refused as NON_FINITE and counted in the
    # summary, so numpy's warnings about it would only repeat that on stderr.
    with _output(out) as fh, np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fh.write(CSV_HEADER + "\n" if fmt == "csv" else "[\n")
        writer = _RowWriter(fmt, axes)
        for i, (events, index) in enumerate(_grid_chunks(axes)):
            F_in, F_out, scale, reason = sweep(field, params, events, frame)
            tally += np.bincount(reason, minlength=len(Refusal))
            numbers = np.concatenate(
                [F_in.F.real, F_in.F.imag, F_out.F.real, F_out.F.imag, scale[:, None]], axis=1
            )
            fh.write(writer.text(index, numbers, reason, first=i == 0))
        if fmt == "json":
            fh.write("\n]\n")
    print(_summary(tally), file=sys.stderr)
    if not tally[Refusal.OK]:
        print("error: every grid point was skipped", file=sys.stderr)
        return 1
    return 0


# -- invariants -------------------------------------------------------------------

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
# The report's numbers, in field order; the condition number decides below
# whether the report is printed and is not printed itself.
_REPORT_KEYS = tuple(
    f.name for f in dataclasses.fields(InvariantScalingReport) if f.name != "condition"
)


def cmd_invariants(args) -> int:
    job, field, params = _job_field_params(args)
    point = args.point if args.point is not None else job.get("point")
    if point is None:
        raise JobError("no point given (use --point or a job file)")
    coords = _require_numbers(point, 4, "point")
    out = _out(args, job)
    try:
        # An overflow is refused below by name, without numpy's warnings.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            report = invariant_scaling_report(field, params, coords)
    except _REFUSALS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    values = {k: float(getattr(report, k)) for k in _REPORT_KEYS}
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if bad:
        print(f"error: non-finite values in the report: {', '.join(bad)}", file=sys.stderr)
        return 1
    # A report whose deviations roundoff alone can reach is refused.
    if not report.condition * _UNIT_ROUNDOFF <= RESIDUE_TOL:
        print(f"error: roundoff dominates the report: condition number kappa = "
              f"{report.condition:.3e}, so kappa * u exceeds {RESIDUE_TOL:g}", file=sys.stderr)
        return 1
    lines = [f"  {json.dumps(k)}: {_num(v)}" for k, v in values.items()]
    _emit("{\n" + ",\n".join(lines) + "\n}\n", out)
    return 0


# -- verify -----------------------------------------------------------------------


def _default_seed() -> int:
    raw = os.environ.get("EMCONF_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise JobError(f"EMCONF_SEED must be an integer, got {raw!r}") from None


def _check_to_json(c) -> str:
    items = [
        ("check_id", c.check_id),
        ("trials", c.trials),
        # A crashed or NaN check has no finite deviation to report.
        ("max_abs_dev", c.max_dev if math.isfinite(c.max_dev) else None),
        ("tolerance", c.tolerance),
        ("pass", c.passed),
    ]
    # Only a crashed check names its exception, so a passing report keeps
    # its bytes.
    if c.error is not None:
        items.append(("error", c.error))
    return "  " + _json_object(items)


def _report_to_json(report) -> str:
    check_lines = [_check_to_json(c) for c in report.checks]
    head = (
        f'  "seed": {report.seed},\n'
        f'  "trials": {report.trials},\n'
        f'  "tolerance": {_num(report.tolerance)},\n'
        f'  "pass": {_json_scalar(report.passed)},\n'
        f'  "checks": [\n'
    )
    return "{\n" + head + ",\n".join("  " + ln for ln in check_lines) + "\n  ]\n}\n"


def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    try:
        report = run_suite(seed=seed, trials=args.trials, tol=args.tol)
    except ValueError as exc:
        raise JobError(str(exc)) from None
    _emit(_report_to_json(report), args.out)
    if args.timings:
        for c in report.checks:
            print(f"time {c.check_id:<32} {1e3 * c.seconds:9.3f} ms", file=sys.stderr)
    for c in report.checks:
        if c.error is not None:
            print(f"check {c.check_id} crashed: {c.error}", file=sys.stderr)
    npass = sum(1 for c in report.checks if c.passed)
    status = "passed" if report.passed else "FAILED"
    print(f"verification {status}: {npass}/{len(report.checks)} checks", file=sys.stderr)
    return 0 if report.passed else 1


# -- entry point ------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first main() call and reused by every later
    call in the process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="emconf",
        description="Conformal transformations of electromagnetic fields, "
        "with a seeded self-verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tp = sub.add_parser(
        "transform", help="sweep a field over a spacetime grid and transform it"
    )
    ip = sub.add_parser(
        "invariants", help="invariant scaling report at one event"
    )
    for p in (tp, ip):
        p.add_argument("--job", metavar="JOB.json", help="job file; flags override it")
        for section, (name, _, classes) in _SECTIONS.items():
            g = p.add_argument_group(name)
            g.add_argument(f"--{section}", choices=list(classes))
            for flag, key, _, options in _KEYS[section]:
                g.add_argument(flag, dest=key, **options)
    tp.add_argument("--grid", type=_usage(_grid_flag), metavar="t=0:2:5,x=...")
    tp.add_argument("--frame", choices=[f.value for f in CoordinateFrame])
    tp.add_argument("--out", metavar="PATH")
    tp.add_argument("--format", choices=_FORMATS)

    ip.add_argument("--point", type=_vec(4), metavar="t,x,y,z")
    ip.add_argument("--out", metavar="PATH")

    vp = sub.add_parser("verify", help="run the seeded self-check suite")
    vp.add_argument("--seed", type=int, help="default: EMCONF_SEED or 42")
    vp.add_argument("--trials", type=int, default=REFERENCE_TRIALS)
    vp.add_argument("--tol", type=float, default=BASE_TOL)
    vp.add_argument("--out", metavar="PATH")
    vp.add_argument(
        "--timings", action="store_true", help="print each check's wall time on stderr"
    )

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = {
        "transform": cmd_transform,
        "invariants": cmd_invariants,
        "verify": cmd_verify,
    }[args.command]
    try:
        return handler(args)
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
