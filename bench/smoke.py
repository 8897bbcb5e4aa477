#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size.

    python3 bench/smoke.py

Runs every workload at its tiny size (a 10-row grid, or `verify --trials 5`)
through bench/run.py, once untraced and twice traced, and checks that:

- every metric named in BENCHMARK.json is printed, with its unit, and no
  other;
- the call counts of the two traced runs are identical, and the counts the
  workloads are meant to leave at zero are zero;
- the correctness gate passes the program's output and flags a deliberately
  corrupted row (or check) as exactly one failed operation.

This catches a broken harness, not a slow program.  Exits 1 on a failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 7
# Counts each workload must leave at zero.
ZERO_COUNTS = {
    "sweep_sct": ("cl3.exp_calls", "cl13.product_calls", "cl13.exp_calls",
                  "cl13.calls", "oracle.calls", "conformal13.calls", "bridge.calls"),
    "sweep_lorentz_back": ("cl13.product_calls", "cl13.exp_calls", "cl13.calls",
                           "oracle.calls", "conformal13.calls", "bridge.calls"),
    "verify_ref": (),
}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0.2", "--trace", str(trace),
           "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def expected_units(spec: dict, section: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[section]}


def is_count(unit: str) -> bool:
    return unit.startswith("count") or unit == "bytes"


def check_metrics(workload: str, spec: dict) -> None:
    plain = run(workload, 0)
    check(set(plain) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result line has exactly the four keys")
    check(plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1,
          f"{workload}: untraced run is correct")
    got = {k: v["unit"] for k, v in plain["metrics"].items()}
    check(got == expected_units(spec, "end_to_end"),
          f"{workload}: end-to-end metrics and units match BENCHMARK.json")

    first, second = run(workload, 1), run(workload, 1)
    check(first["correct"] and second["correct"], f"{workload}: traced runs are correct")
    want = expected_units(spec, "per_layer")
    got = {k: v["unit"] for k, v in first["metrics"].items()}
    check(got == want, f"{workload}: per-layer metrics and units match BENCHMARK.json")
    counts = [k for k, u in want.items() if is_count(u)]
    same = all(first["metrics"][k]["value"] == second["metrics"][k]["value"] for k in counts)
    check(same, f"{workload}: {len(counts)} counts repeat between traced runs")
    nonzero = [k for k in ZERO_COUNTS[workload] if first["metrics"][k]["value"] != 0]
    check(not nonzero, f"{workload}: zero where predicted {nonzero or ''}")


def check_gate() -> None:
    sys.path.insert(0, str(BENCH_DIR))
    import run as bench
    from workloads import WORKLOADS

    cli = bench.load_cli()
    import gate
    for name, corrupt in (
        ("sweep_sct", _corrupt_csv),
        ("sweep_lorentz_back", _corrupt_json),
        ("verify_ref", lambda t: t.replace('"pass": true}', '"pass": false}', 1)),
    ):
        job = WORKLOADS[name](SEED, "tiny")
        _, text = bench.run_job(cli, job.argv)
        clean = gate.check_output(job, text)
        check(clean.failed == 0, f"{name}: gate passes the program's output")
        bad = gate.check_output(job, corrupt(text))
        check(bad.failed == 1, f"{name}: gate flags the corrupted row ({bad.failed} failed)")


def _corrupt_csv(text: str) -> str:
    """Nudge the Exp value of the third data row by one part in 1e8."""
    lines = text.split("\n")
    cells = lines[3].split(",")
    cells[10] = repr(float(cells[10]) * (1 + 1e-8))
    lines[3] = ",".join(cells)
    return "\n".join(lines)


def _corrupt_json(text: str) -> str:
    """Nudge the Exp value of the third row by one part in 1e8."""
    rows = json.loads(text)
    rows[2]["Exp"] *= 1 + 1e-8
    return json.dumps(rows)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in ZERO_COUNTS:
        check_metrics(workload, spec)
    check_gate()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
