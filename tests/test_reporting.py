"""The verdict builder ``judge`` and the report comparison of
``tools/compare_reports.py``."""
import importlib.util
from pathlib import Path

import numpy as np

from nca.reporting import CheckResult, judge, over_bound

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_judge_bound_is_tol_times_magnitude():
    bound = 1e-9 * 3.0
    assert judge("x", 2e-9, 3.0, 1e-9) == CheckResult("x", True, 2e-9, None, bound)
    assert judge("x", 4e-9, 3.0, 1e-9, {"at": 1}) == CheckResult("x", False, 4e-9, {"at": 1}, bound)
    assert judge("x", bound, 3.0, 1e-9).passed  # the bound itself passes
    assert judge("x", 0.0, 1.0, 0.0).passed
    assert judge("x", 1e-300, 1.0, 0.0).bound == 0.0
    assert CheckResult("x", True).to_dict() == {"check": "x", "passed": True, "residual": 0.0}
    assert judge("x", 1.0, 2.0, 0.5).to_dict()["bound"] == 1.0


def test_judge_nan_residual_fails():
    res = judge("x", float("nan"), 1.0, 1e-9)
    assert not res.passed and np.isnan(res.residual)
    assert not judge("x", [0.0, float("nan")], 1.0, 1e-9).passed


def test_judge_arrays_hold_each_entry_to_its_own_bound():
    # entry 1 exceeds its bound but is not the largest entry: the check fails
    # and reports the largest entry with the bound at it
    res = judge("x", [5.0, 2.0, 5.0], [10.0, 1.0, 20.0], 1.0)
    assert (res.passed, res.residual, res.bound) == (False, 5.0, 10.0)
    assert judge("x", [5.0, 2.0], [10.0, 2.0], 1.0).passed
    # magnitude broadcasts over the residual's shape
    res = judge("x", np.array([[1.0, 3.0], [2.0, 0.0]]), [1.0, 4.0], 1.0)
    assert (res.passed, res.residual, res.bound) == (False, 3.0, 4.0)


def test_over_bound_marks_the_entries_judge_fails():
    # the witness masks of the per-entry checks: a NaN entry is over any bound
    residual, magnitude = [5.0, 2.0, float("nan"), 0.5], [10.0, 1.0, 1.0, 1.0]
    assert over_bound(residual, magnitude, 1.0).tolist() == [False, True, True, False]
    for i in range(len(residual)):
        assert judge("x", residual[i], magnitude[i], 1.0).passed == (
            not over_bound(residual[i], magnitude[i], 1.0))


def _compare_reports():
    spec = importlib.util.spec_from_file_location("compare_reports", TOOLS / "compare_reports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_walk_reports_a_flip_under_a_dict_that_gained_a_key():
    tool = _compare_reports()
    walk = tool.walk
    parent = {"checks": [{"check": "x", "passed": True, "residual": 1.0}], "n": 1}
    change = {"checks": [{"check": "x", "passed": False, "residual": 2.0, "bound": 0.5}],
              "n": 1}
    moved, structural = {}, []
    walk(parent, change, "all", "all spec", moved, structural)
    assert structural == [
        "all spec all.checks[x]: keys ['check', 'passed', 'residual'] != "
        "['bound', 'check', 'passed', 'residual']",
        "all spec all.checks[x].passed: True != False",
    ]
    assert moved == {"all.checks[x].residual": (1.0, "all spec")}
    # the flip stays a structural difference and is counted once; a
    # changed string or a check that passes on both sides is no flip
    walk({"checks": [{"check": "y", "passed": False, "kind": "a"}]},
         {"checks": [{"check": "y", "passed": True, "kind": "b"}]}, "all", "all spec",
         moved, structural)
    walk({"checks": [{"check": "z", "passed": True}]}, {"checks": [{"check": "z", "passed": True}]},
         "all", "all spec", moved, structural)
    assert len(structural) == 4 and tool.passed_flips(structural) == 2
