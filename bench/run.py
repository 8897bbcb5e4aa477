#!/usr/bin/env python3
"""emconf benchmark: seeded sweep and verify jobs, timed, traced and gated.

    python3 bench/run.py --workload sweep_sct --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from `src/` of that
checkout and from nowhere else.  Every job runs in this process through
`emconf.cli.main`, on one thread, after a warm-up job of tiny size.  Jobs
repeat until `--seconds` have passed.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json:

- job_s: median wall time of one job, corrected for the host's speed;
- rows_per_s: rows written per second at that time, where a row is one grid
  event of a sweep or one check of the verify report;
- setup_s: median wall time of a fresh interpreter importing `emconf.cli`,
  corrected for the host's speed;
- peak_rss_mb: peak resident set of one fresh child running the whole job.

On a shared host the processor runs for seconds to minutes at a time up to
twice as slow as at its full speed: over ten seeds the quartile spread of
the median job's plain wall time was 0.2 to 0.36 of its median, and the
median import time moved by 27% between two sets of runs.  So every timed
job and set-up child runs between two runs of a reference computation that
shares no code with emconf, and its wall time is divided by the mean of the
two, the reference unit.  The median of these ratios times REF_UNIT_S, the
reference's wall time at full speed on the host the benchmark was tuned on,
gives seconds at that speed.  The reference is made of the kinds of work
emconf's time is made of: a pure-Python integer loop, 4x4 numpy products
and numpy operations on complex 3-vectors.  Of the candidates tried on all
three workloads over ten minutes, it tracked the host's speed best: the
quartile spread of the median job time over 30-second windows fell from 0.5
of its median to 0.014.  Jobs last a few tenths of a second so that the
speed holds over a job and its two references.

Set-up children are spread over the timed loop, between jobs.  Set-up time
and memory come from child processes reaped through `os.wait4`, so this
process's own memory is not counted.  `--trace 1` alternates plain and
traced jobs and prints the per-layer metrics (see tracing.py); end-to-end
figures never come from a traced job.

Either way every job's output is checked by gate.py after the timed loop,
and the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it records the
seed, machine and versions.  A record of the run, with the wall time and
reference unit of every job and set-up child, and in traced runs the spans
of the first traced job, are written to bench/out/.
"""

from __future__ import annotations

import os

# One thread: numpy's BLAS must not start a pool, here or in the children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import platform
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 15
MIN_JOBS = 3
# Size of the reference computation, and its wall time at full speed on the
# 2-vCPU Xeon host the benchmark was tuned on (5th percentile of 2,300 runs).
REF_LOOP = 60_000
REF_PRODUCTS = 1_500
REF_VECTOR_OPS = 2_500
REF_UNIT_S = 0.017
# Counts also reported per output row, so that grids of any size compare.
PER_ROW = ("cl3.product_calls", "cl3.exp_calls", "conformal3.calls", "fields.calls")

UNITS = {
    "job_s": "s", "rows_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
    "cli.out_bytes": "bytes", "trace.overhead_ratio": "ratio",
    "ops_failed_ratio": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_per_row"):
        return "count/row"
    if name.endswith("_s"):
        return "s"
    return "count"


def load_cli():
    """Import emconf.cli from this checkout's src/, refusing any other copy."""
    if not (SRC / "emconf" / "cli.py").is_file():
        raise SystemExit(f"error: no emconf sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import emconf.cli

    if Path(emconf.cli.__file__).resolve().parent != SRC / "emconf":
        raise SystemExit(f"error: imported emconf from {emconf.cli.__file__}, not {SRC}")
    return emconf.cli


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    # Children import from a bytecode cache, as an installed package would,
    # so that set-up time counts import work and not compilation.  The cache
    # lives under bench/out, away from the sources.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
    return env


def run_child(args) -> tuple[float, int, object]:
    """Wall time, exit code and rusage of one fresh interpreter, reaped by
    os.wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=child_env(),
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def setup_once() -> float:
    wall, code, _ = run_child(["-c", "import emconf.cli"])
    if code != 0:
        raise SystemExit(f"error: importing emconf.cli exited with {code}")
    return wall


def peak_rss_mb(argv) -> float:
    """Peak RSS of the job in a fresh child; its exit code is the gate's
    business, judged on the in-process jobs."""
    code = "import sys; from emconf.cli import main; raise SystemExit(main(sys.argv[1:]))"
    _, _, usage = run_child(["-c", code, *argv])
    return usage.ru_maxrss / 1024.0  # Linux reports kilobytes


def run_job(cli, argv) -> tuple[float, str]:
    """Run one job in this process: its wall time and standard output.

    A job that fails writes an incomplete output, which the gate counts.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
        except Exception:
            code = -1
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    if code != 0:
        print(f"job exited with {code}: {err.getvalue()[-2000:]}", file=sys.stderr)
    return elapsed, out.getvalue()


def reference_seconds() -> float:
    """Wall time of the reference computation (see the module docstring)."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i % 7
    v, eye = np.arange(4.0), np.eye(4)
    for _ in range(REF_PRODUCTS):
        v = v @ eye + 1e-9
    z = np.zeros(3, dtype=np.complex128)
    for _ in range(REF_VECTOR_OPS):
        z = z * (1 + 1e-9j) + np.array([1.0, 2.0, 3.0])
        float(np.max(np.abs(z)))
    return time.perf_counter() - start


def between_references(fn):
    """Call fn between two runs of the reference computation: its result
    and the reference unit, the mean wall time of the two runs."""
    before = reference_seconds()
    result = fn()
    return result, 0.5 * (before + reference_seconds())


def corrected_seconds(samples) -> float:
    """Median of (wall time, reference unit) samples, corrected for the
    host's speed: wall time in reference units, times REF_UNIT_S."""
    return REF_UNIT_S * statistics.median(t / u for t, u in samples)


def gate_outputs(job, outputs: Counter) -> dict:
    """Gate each distinct output once and weigh it by the jobs that wrote it."""
    import gate

    attempted = failed = 0
    results = []
    for text, jobs in outputs.items():
        res = gate.check_output(job, text)
        for note in res.notes:
            print(f"gate: {note}", file=sys.stderr)
        attempted += jobs * res.attempted
        failed += jobs * res.failed
        results.append(res)
    text = next(iter(outputs))
    return {
        "attempted": attempted, "failed": failed, "results": results,
        "rows": results[0].attempted, "out_bytes": len(text.encode("utf-8")),
    }


def measure(cli, job, warmup, seconds: float) -> dict:
    setup_once()  # fills the bytecode cache
    metrics = {"peak_rss_mb": peak_rss_mb(job.argv)}
    run_job(cli, warmup.argv)
    # (wall time, reference unit) of every job and set-up child
    outputs, jobs, setups = Counter(), [], []
    start = time.perf_counter()
    while len(jobs) < MIN_JOBS or time.perf_counter() - start < seconds:
        if len(setups) < SETUP_REPEATS * (time.perf_counter() - start) / seconds:
            setups.append(between_references(setup_once))
        (elapsed, text), unit = between_references(lambda: run_job(cli, job.argv))
        jobs.append((elapsed, unit))
        outputs[text] += 1
    while len(setups) < SETUP_REPEATS:
        setups.append(between_references(setup_once))
    gated = gate_outputs(job, outputs)
    metrics["job_s"] = corrected_seconds(jobs)
    metrics["rows_per_s"] = gated["rows"] / metrics["job_s"]
    metrics["setup_s"] = corrected_seconds(setups)
    return {"metrics": metrics, "gated": gated, "job_times": {"jobs": jobs, "setups": setups}}


def measure_traced(cli, job, warmup, seconds: float, spans_path: Path) -> dict:
    from tracing import Tracer

    run_job(cli, warmup.argv)
    outputs, plain, traced, summaries = Counter(), [], [], []
    tracer = Tracer()

    def traced_job():
        tracer.install()
        try:
            return run_job(cli, job.argv)
        finally:
            tracer.uninstall()

    start = time.perf_counter()
    while len(traced) < MIN_JOBS or time.perf_counter() - start < seconds:
        (elapsed, text), unit = between_references(lambda: run_job(cli, job.argv))
        plain.append((elapsed, unit))
        outputs[text] += 1
        (elapsed, text), unit = between_references(traced_job)
        traced.append((elapsed, unit))
        outputs[text] += 1
        spans = tracer.take()
        if not summaries:
            tracer.write_spans(spans, spans_path)
        summaries.append(tracer.summarize(spans))
    gated = gate_outputs(job, outputs)

    metrics = {}
    counts_repeat = True
    for key in summaries[0]:
        values = [s[key] for s in summaries]
        if isinstance(values[0], int):
            counts_repeat &= len(set(values)) == 1
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    if not counts_repeat:
        print("error: call counts differ between traced jobs", file=sys.stderr)
    for key in PER_ROW:
        metrics[f"{key}_per_row"] = metrics[key] / gated["rows"]
    metrics["cli.out_bytes"] = gated["out_bytes"]
    metrics["trace.overhead_ratio"] = corrected_seconds(traced) / corrected_seconds(plain)
    metrics["ops_failed_ratio"] = gated["failed"] / gated["attempted"]
    return {
        "metrics": metrics, "gated": gated, "counts_repeat": counts_repeat,
        "job_times": {"plain": plain, "traced": traced},
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def context(args) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "nproc": os.cpu_count(),
        "cpu": cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "platform": platform.platform(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs a 10-row grid or 5 verify trials (smoke test)")
    args = p.parse_args(argv)

    cli = load_cli()
    job = WORKLOADS[args.workload](args.seed, args.size)
    # The tiny job runs the same code paths, so it fills the same caches.
    warmup = WORKLOADS[args.workload](args.seed, "tiny")
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}"
    if args.trace:
        run = measure_traced(cli, job, warmup, args.seconds, OUT_DIR / f"{stem}.spans.csv.gz")
    else:
        run = measure(cli, job, warmup, args.seconds)
    gated = run["gated"]
    result = {
        "correct": gated["failed"] == 0 and run.get("counts_repeat", True),
        "attempted": gated["attempted"],
        "failed": gated["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in run["metrics"].items()},
    }
    ctx = context(args)
    record = {
        "context": ctx, "argv": list(job.argv), "job_times": run["job_times"],
        "gate": [
            {"worst_rel_dev": r.worst_dev, "ill_conditioned_rows": r.ill_conditioned,
             "skipped_rows": r.skipped, "failed": r.failed, "notes": r.notes}
            for r in gated["results"]
        ],
        "result": result,
    }
    with open(OUT_DIR / f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"context": ctx}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
