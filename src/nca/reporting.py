"""Check results and the deterministic machine-readable report format."""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .algebra import DEFAULT_EQ_TOL, DEFAULT_POS_TOL, DEFAULT_RANK_TOL
from .errors import InputError


@dataclass
class CheckResult:
    """One verified property: name, outcome, worst residual, an optional
    witness describing a concrete failure, and the bound the residual was
    compared with (None for a check that compares no residual)."""

    check: str
    passed: bool
    residual: float = 0.0
    witness: Optional[dict] = None
    bound: Optional[float] = None

    def to_dict(self) -> dict:
        out = {"check": self.check, "passed": self.passed, "residual": float(self.residual)}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.bound is not None:
            out["bound"] = float(self.bound)
        return out


def over_bound(residual, magnitude, tol: float):
    """Where ``residual`` exceeds its bound ``tol * magnitude``, entry by
    entry; a NaN residual exceeds any bound.  :func:`judge` passes exactly
    when no entry does, so a caller's witness mask follows the same rule."""
    return ~(np.asarray(residual, dtype=float) <= tol * np.asarray(magnitude))


def judge(check: str, residual, magnitude, tol: float, witness=None) -> CheckResult:
    """The verdict ``residual <= tol * magnitude``; a NaN residual fails.

    Arrays (``magnitude`` broadcast to the residual's shape) are judged per
    entry: the check passes when every entry is within its own bound, and
    reports the largest entry, the first on ties, with the bound at it."""
    residual, magnitude = np.broadcast_arrays(np.asarray(residual, dtype=float), magnitude)
    at = np.unravel_index(np.argmax(residual), residual.shape)
    return CheckResult(check, not over_bound(residual, magnitude, tol).any(),
                       float(residual[at]), witness, float(tol * magnitude[at]))


def judge_spectrum(check: str, low, top, tol: float, witness=None) -> CheckResult:
    """The positivity verdict of a spectrum with least eigenvalue ``low``
    and largest ``top``: its negative part max(0, -low) against
    ``tol * max(1, top)``."""
    return judge(check, max(0.0, -low), max(1.0, top), tol, witness)


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across all checks, overridable per run."""

    positivity: float = DEFAULT_POS_TOL
    rank: float = DEFAULT_RANK_TOL
    equality: float = DEFAULT_EQ_TOL

    def to_dict(self) -> dict:
        return asdict(self)


# -- deterministic JSON -------------------------------------------------------
#
# Floats are rendered with 17 significant digits and dictionary keys are
# sorted, so identical inputs and seed produce byte-identical output.


def _render(obj, pieces):
    if isinstance(obj, np.bool_):
        obj = bool(obj)
    elif isinstance(obj, np.integer):
        obj = int(obj)
    elif isinstance(obj, np.floating):
        obj = float(obj)
    elif isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if obj is None:
        pieces.append("null")
    elif obj is True:
        pieces.append("true")
    elif obj is False:
        pieces.append("false")
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise InputError("non-finite number in report; use a sentinel string")
        pieces.append(format(obj, ".17g"))
    elif isinstance(obj, dict):
        pieces.append("{")
        for idx, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise InputError("report keys must be strings")
            if idx:
                pieces.append(",")
            pieces.append(json.dumps(key))
            pieces.append(":")
            _render(obj[key], pieces)
        pieces.append("}")
    elif isinstance(obj, (list, tuple)):
        pieces.append("[")
        for idx, item in enumerate(obj):
            if idx:
                pieces.append(",")
            _render(item, pieces)
        pieces.append("]")
    else:
        raise InputError(f"cannot serialize {type(obj).__name__} in a report")
    return pieces


def dumps_canonical(obj) -> str:
    """Serialize a report to canonical JSON (sorted keys, 17-digit floats)."""
    return "".join(_render(obj, []))
