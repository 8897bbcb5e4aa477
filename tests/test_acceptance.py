"""Acceptance gate: one test per release criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line with the measured deviation, so a
verbose run reads as a checklist.  The numerical criteria drive the same
check functions the `emconf verify` CLI runs; the CLI criterion spawns real
subprocesses.
"""

import json
import subprocess
import sys
import time

import numpy as np

from emconf import oracle
from emconf.verify import (
    check_blade_products,
    check_conformal_factor_match,
    check_conformality,
    check_field_expansions,
    check_invariant_scaling,
    check_invariants_levi_civita,
    check_inversion_jacobian_determinant,
    check_jacobian_sandwich_identity,
    check_lorentz_classes,
    check_null_field_preservation,
    check_sct_chain_composition,
    check_theta_signs,
    check_three_way_agreement,
)


def _verdict(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number:2d}: {label} ({detail})")
    assert ok, f"criterion {number}: {label} ({detail})"


def _rng(criterion: int):
    return np.random.default_rng(1000 + criterion)


def test_criterion_01_blade_products_exact():
    start = time.perf_counter()
    result = check_blade_products(_rng(1), 256, 0.0)
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < 1.0
    _verdict(
        1,
        "256 blade products integer-exact",
        ok,
        f"max_dev={result.max_dev:.3e}, {elapsed:.3f}s",
    )


def test_criterion_02_jacobian_contraction_identity():
    result = check_jacobian_sandwich_identity(_rng(2), 100, 1e-10)
    _verdict(
        2,
        "Jacobian contraction equals the vector sandwich at 100 points",
        result.passed,
        f"max_dev={result.max_dev:.3e} tol=1e-10",
    )


def test_criterion_03_conformality():
    res_metric = check_conformality(_rng(3), 200, 1e-8)
    res_factor = check_conformal_factor_match(_rng(3), 200, 1e-8)
    ok = res_metric.passed and res_factor.passed
    _verdict(
        3,
        "conformal metric identity and analytic factor at 200 points",
        ok,
        f"metric_dev={res_metric.max_dev:.3e} factor_dev={res_factor.max_dev:.3e} tol=1e-8",
    )


def test_criterion_04_three_way_agreement():
    start = time.perf_counter()
    result = check_three_way_agreement(_rng(4), 500, 1e-10)
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < 10.0
    _verdict(
        4,
        "Cl(1,3) / Cl(3)-bridge / tensor routes agree over 500 trials",
        ok,
        f"max_dev={result.max_dev:.3e} tol=1e-10, {elapsed:.2f}s",
    )


def test_criterion_05_chain_composition():
    result = check_sct_chain_composition(_rng(5), 300, 1e-10)
    ok = result.passed and result.trials >= 300
    _verdict(
        5,
        "inversion-translation-inversion chain equals the direct map",
        ok,
        f"accepted={result.trials} max_dev={result.max_dev:.3e} tol=1e-10",
    )


def test_criterion_06_component_expansions():
    result = check_field_expansions(_rng(6), 500, 1e-10)
    _verdict(
        6,
        "component expansions match tensor and Cl(3) routes, both frames",
        result.passed,
        f"max_dev={result.max_dev:.3e} tol=1e-10 (mutual forms at 1e-12)",
    )


def test_criterion_07_invariant_scaling():
    res_scale = check_invariant_scaling(_rng(7), 500, 1e-10)
    res_lc = check_invariants_levi_civita(_rng(7), 100, 1e-8)
    res_det = check_inversion_jacobian_determinant(_rng(7), 100, 1e-8)
    ok = res_scale.passed and res_lc.passed and res_det.passed
    _verdict(
        7,
        "invariants scale by the fourth power, pseudoscalar flips on inversion",
        ok,
        f"scaling_dev={res_scale.max_dev:.3e} levi_civita_dev={res_lc.max_dev:.3e} "
        f"det_dev={res_det.max_dev:.3e}",
    )


def test_criterion_08_lorentz_classes():
    result = check_lorentz_classes(_rng(8), 400, 1e-10)
    _verdict(
        8,
        "induced matrices orthogonal with class det and time signs, 100 per class",
        result.passed,
        f"max_dev={result.max_dev:.3e} tol=1e-10",
    )


def test_criterion_09_null_field_preservation():
    result = check_null_field_preservation(_rng(9), 200, 1e-10)
    _verdict(
        9,
        "plane waves stay null through inversion and the special conformal map",
        result.passed,
        f"max_dev={result.max_dev:.3e} tol=1e-10",
    )


def test_criterion_10_time_orientation_signs():
    result = check_theta_signs(_rng(10), 100, 0.0)
    _verdict(
        10,
        "time-orientation sign is -eps for inversion and +1 for the SCT",
        result.passed,
        f"mismatches={int(result.max_dev)}",
    )


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "emconf.cli", *argv],
        capture_output=True,
        text=True,
    )


def test_criterion_11_cli_determinism():
    first = _run_cli("verify", "--seed", "42", "--trials", "500", "--tol", "1e-10")
    second = _run_cli("verify", "--seed", "42", "--trials", "500", "--tol", "1e-10")
    verify_ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and json.loads(first.stdout)["pass"] is True
    )

    # spot-check transform rows against the component expansions
    proc = _run_cli(
        "transform", "--field", "uniform", "--E0", "1,0.5,0", "--B0", "0,0.25,-1",
        "--xform", "inversion", "--eps", "1", "--grid", "t=2:2:1,x=0.3:0.6:2",
    )
    rows_ok = proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    header = lines[0].split(",")
    worst = 0.0
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        x = np.array([float(row[k]) for k in ("t", "x", "y", "z")])
        E = np.array([float(row[k]) for k in ("Ex", "Ey", "Ez")])
        B = np.array([float(row[k]) for k in ("Bx", "By", "Bz")])
        (Ep, Bp), (Ec, Bc) = oracle.inversion_field_forms(E, B, x, 1)
        # the dot-product and double-cross forms agree to roundoff
        forms_dev = max(np.abs(Ep - Ec).max(), np.abs(Bp - Bc).max())
        rows_ok = rows_ok and forms_dev <= 1e-12 * max(1.0, np.abs(Ep).max(), np.abs(Bp).max())
        got_E = np.array([float(row[k]) for k in ("Exp", "Eyp", "Ezp")])
        got_B = np.array([float(row[k]) for k in ("Bxp", "Byp", "Bzp")])
        worst = max(worst, float(np.max(np.abs(got_E - Ep))), float(np.max(np.abs(got_B - Bp))))
    rows_ok = rows_ok and worst < 1e-12

    proc = _run_cli(
        "transform", "--field", "uniform", "--E0", "0.7,-0.2,0.1", "--B0", "0,0.3,-0.4",
        "--xform", "sct", "--a", "0.5,0,0,0", "--grid", "t=1:1:1",
    )
    row = dict(zip(proc.stdout.split("\n")[0].split(","), proc.stdout.split("\n")[1].split(",")))
    # pure-time special conformal map at t=1: every component scales by 5.0625
    sct_ok = all(
        abs(float(row[k + "p"]) - 5.0625 * float(row[k])) < 1e-12
        for k in ("Ex", "Ey", "Ez", "Bx", "By", "Bz")
    )

    ok = verify_ok and rows_ok and sct_ok
    _verdict(
        11,
        "CLI verify is byte-identical and transform matches the expansions",
        ok,
        f"verify_exit={first.returncode} spot_dev={worst:.3e} "
        f"identical={first.stdout == second.stdout}",
    )
