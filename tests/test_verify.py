"""Tests for the seeded self-verification driver."""

import re

import numpy as np
import pytest

from emconf import verify
from emconf.cl3 import Faraday3
from emconf.verify import REGISTRY, run_suite


def test_registry_ids_unique():
    ids = [entry[0] for entry in REGISTRY]
    assert len(ids) == len(set(ids))


def test_small_run_passes():
    report = run_suite(seed=7, trials=50, tol=1e-10)
    assert report.passed
    assert report.seed == 7 and report.trials == 50
    assert len(report.checks) == len(REGISTRY)


def test_reports_are_deterministic():
    a = run_suite(seed=42, trials=40, tol=1e-10)
    b = run_suite(seed=42, trials=40, tol=1e-10)
    assert a == b
    c = run_suite(seed=43, trials=40, tol=1e-10)
    assert a != c


def test_trial_counts_scale():
    full = {c.check_id: c.trials for c in run_suite(seed=1, trials=500, tol=1e-10).checks}
    half = {c.check_id: c.trials for c in run_suite(seed=1, trials=250, tol=1e-10).checks}
    for check_id, n in half.items():
        assert 1 <= n <= full[check_id]
    # the stated per-check counts hold exactly at the reference trial count
    assert full["three_way_agreement"] == 500
    assert full["jacobian_sandwich_identity"] == 100
    assert full["conformality"] == 200


def test_single_trial_is_still_green():
    assert run_suite(seed=3, trials=1, tol=1e-10).passed


def test_zero_tolerance_fails_with_deviations():
    report = run_suite(seed=42, trials=10, tol=0.0)
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert failing
    assert all(c.max_dev > 0.0 for c in failing)


def test_argument_validation():
    with pytest.raises(ValueError):
        run_suite(seed=1, trials=0, tol=1e-10)
    with pytest.raises(ValueError):
        run_suite(seed=1, trials=10, tol=-1.0)
    with pytest.raises(ValueError, match="seed"):
        run_suite(seed=-1, trials=1, tol=1e-10)


@pytest.mark.parametrize(
    "checks, message",
    [
        (("three_way",), "unknown check ids: 'three_way'"),
        (("conformality", "theta", "nope"), "unknown check ids: 'theta', 'nope'"),
        ((), "checks must name at least one check"),
        ("theta_signs", "checks must be a collection of check ids, not the string 'theta_signs'"),
    ],
)
def test_check_selection_names_only_known_checks(checks, message):
    """An unknown id or an empty selection once gave an empty report that
    passed, and a string selected the checks whose ids it contains."""
    with pytest.raises(ValueError, match=re.escape(message)):
        run_suite(trials=1, checks=checks)


@pytest.mark.parametrize("tol", [float("inf"), float("nan")])
def test_tolerance_must_be_finite(tol):
    """An infinite tolerance once passed 15 of 16 checks and a NaN one 1."""
    with pytest.raises(ValueError, match="tol must be a finite nonnegative number"):
        run_suite(seed=1, trials=1, tol=tol)



def test_sct_chain_composition_passes_where_the_grade_guard_false_tripped():
    """Seed 106 once crashed this check: the grade guard compared roundoff of
    the sandwich operands' size with the smaller output."""
    report = run_suite(seed=106, checks=("sct_chain_composition",))
    assert report.passed
    assert report.checks[0].max_dev <= 1e-10


def test_nan_route_fails_its_check(monkeypatch):
    """The built-in max would drop the NaN deviation and pass the check."""
    def nan_route(params, kind, value, x=None, frame=None):
        return Faraday3(F=np.full(3, np.nan))

    monkeypatch.setattr(verify, "transform3", nan_route)
    for check in ("invariant_scaling", "null_field_preservation", "field_expansions"):
        result = run_suite(trials=10, checks=(check,)).checks[0]
        assert not result.passed
        assert np.isnan(result.max_dev)


# Each check's trial count at 25 trials, as the per-trial suite reported it.
TRIALS_AT_25 = {
    "blade_products": 256,
    "jacobian_sandwich_identity": 5,
    "conformality": 10,
    "conformal_factor_match": 10,
    "fd_jacobians": 5,
    "theta_signs": 5,
    "three_way_agreement": 25,
    "sct_chain_composition": 15,
    "field_expansions": 25,
    "invariant_scaling": 25,
    "invariants_levi_civita": 5,
    "inversion_jacobian_determinant": 5,
    "lorentz_classes": 20,
    "lorentz_route_agreement": 4,
    "null_field_preservation": 10,
    "bridge_correspondence": 10,
}


@pytest.mark.parametrize("seed", [42, 106, 1069293762])
def test_every_check_passes_across_seeds(seed):
    report = run_suite(seed=seed, trials=25)
    assert [c.check_id for c in report.checks if not c.passed] == []
    assert {c.check_id: c.trials for c in report.checks} == TRIALS_AT_25
    assert all(c.error is None for c in report.checks)


def test_crashed_check_names_its_exception(monkeypatch):
    def crash(rng, trials, tol):
        raise TypeError("operands could not be broadcast together")

    monkeypatch.setattr(verify, "REGISTRY", (
        ("blade_products", verify.check_blade_products, 256, 0.0),
        ("crash", crash, 100, verify.BASE_TOL),
    ))
    ok, crashed = run_suite(trials=5).checks
    assert ok.passed and ok.error is None
    assert not crashed.passed and crashed.max_dev == float("inf")
    assert crashed.error == "TypeError: operands could not be broadcast together"


def test_timings_do_not_enter_report_equality():
    a = run_suite(seed=5, trials=5, checks=("conformality",))
    b = run_suite(seed=5, trials=5, checks=("conformality",))
    assert a == b
    assert all(c.seconds > 0.0 for c in a.checks + b.checks)
