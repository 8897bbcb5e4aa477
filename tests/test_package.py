"""Package-level checks: the public name list and the runnable demos."""

import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import emconf

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Public names removed, because nothing in the package, the demos or the CLI
# called them or because one entry per route replaced them; they must not
# come back through the generated name list.
REMOVED = (
    "vector_triple", "dilate3", "translate3", "parity3",
    "transform_position3", "eval_field",
    "invert_position", "invert_potential", "invert_current", "invert_faraday",
    "sct_position", "sct_potential", "sct_current", "sct_faraday",
    "dilate", "translate", "lorentz_apply", "lorentz_generator",
    "invert3_position", "invert3_potential", "invert3_current", "invert3_faraday",
    "sct3_position", "sct3_potential", "sct3_current", "sct3_faraday",
    "lorentz3", "transform_faraday3", "PreparedTransform3",
    "versor_inverse", "left_matrix", "SingularVersorError",
    "real_paravector", "pure_vector", "to_paravector", "to_paravector_bar",
    "to_faraday3", "field_rows", "scale_of", "inverse_position3",
)


def test_all_lists_each_public_symbol_once():
    names = emconf.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert not name.startswith("_")
        assert not isinstance(getattr(emconf, name), ModuleType)
    assert {"FourVector", "Paravector3", "transform", "transform3",
            "LightConeError", "invariant_scaling_report"} <= set(names)
    assert not set(REMOVED) & set(names)
    assert not any(hasattr(emconf, name) for name in REMOVED)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
