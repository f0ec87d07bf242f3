"""Declarative problem specs in, machine-readable reports out.

A spec file is JSON:

    {
      "algebra": {"blocks": [2, 1], "trace_weights": [1.0, 2.0]},
      "generator": {"kind": "lindblad", "vs": [<element>, ...]},
      "states": [{"density": <element>}, ...],
      "projection": {"keep_blocks": [0]} | {"projection": <element>},
      "weight_element": <element>,
      "times": [0.0, 0.1, 1.0],
      "seed": 0,
      "tolerances": {"positivity": 1e-9, "rank": 1e-10, "equality": 1e-9}
    }

Elements are per-block 2-D arrays of [re, im] pairs.  Generator kinds:
``lindblad`` (vs), ``matrix`` (superop, orthonormal-basis matrix), ``network``
(c), ``group`` (autos as superoperator matrices, weights), and
``spectral_triple`` (D, a Hermitian full matrix).  ``matrix``, ``network``
and ``spectral_triple`` take an optional ``scale``; ``lindblad`` and ``group``
reject one.  Validation collects every violation, not just the first.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .algebra import Algebra, Element, SuperOperator, decode_complex_matrix, decode_element
from .cdc import (
    CdCForm,
    commutator_cdc,
    gamma_from_generator,
    group_action_cdc,
    network_cdc,
    spectral_triple_cdc,
)
from .errors import InputError
from .reporting import Tolerances

GENERATOR_KINDS = ("lindblad", "matrix", "network", "group", "spectral_triple")
_SCALE_DEFAULTS = {"matrix": 1.0, "network": 0.5, "spectral_triple": 1.0}


@dataclass
class ProblemSpec:
    """A fully validated problem description."""

    algebra: Algebra
    generator: Optional[dict] = None
    states: list = field(default_factory=list)
    projection: Optional[dict] = None
    weight_element: Optional[Element] = None
    times: list = field(default_factory=lambda: [0.0, 0.1, 1.0, 10.0])
    pairs: Optional[list] = None
    seed: int = 0
    tolerances: Tolerances = field(default_factory=Tolerances)

    def build_gamma(self) -> CdCForm:
        if self.generator is None:
            raise InputError("this command needs a 'generator' field in the spec")
        gen = self.generator
        kind = gen["kind"]
        if kind == "lindblad":
            return commutator_cdc(gen["vs"])
        if kind == "group":
            return group_action_cdc(gen["autos"], gen["weights"])
        scale = gen.get("scale", _SCALE_DEFAULTS[kind])
        if kind == "matrix":
            return gamma_from_generator(gen["superop"], scale=scale)
        if kind == "network":
            return network_cdc(self.algebra, gen["c"], scale=scale,
                               allow_negative=gen.get("allow_negative", False))
        return spectral_triple_cdc(gen["D"], self.algebra, scale=scale)


def _decode_states(algebra: Algebra, raw, problems: list) -> list:
    from .states import State

    states = []
    for idx, entry in enumerate(raw):
        try:
            if not isinstance(entry, dict) or "density" not in entry:
                raise InputError("each state needs a 'density' element")
            states.append(State(decode_element(algebra, entry["density"])))
        except InputError as exc:
            problems.append(f"states[{idx}]: {exc}")
    return states


def _is_finite_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_tolerance(x) -> bool:
    return _is_finite_number(x) and x >= 0


def _decode_generator(algebra: Algebra, raw, problems: list) -> Optional[dict]:
    if not isinstance(raw, dict) or "kind" not in raw:
        problems.append("generator: needs a 'kind' field")
        return None
    kind = raw.get("kind")
    if kind not in GENERATOR_KINDS:
        problems.append(
            f"generator: unknown kind {kind!r}; expected one of {', '.join(GENERATOR_KINDS)}"
        )
        return None
    out = {"kind": kind}
    if "scale" in raw:
        if kind not in _SCALE_DEFAULTS:
            problems.append(f"generator.scale: the {kind} kind takes no scale")
        elif not _is_finite_number(raw["scale"]):
            problems.append(f"generator.scale: must be a finite number, got {raw['scale']!r}")
        else:
            out["scale"] = float(raw["scale"])
    try:
        if kind == "lindblad":
            vs = raw.get("vs")
            if not isinstance(vs, list) or not vs:
                raise InputError("generator.vs: need a nonempty element list")
            out["vs"] = [decode_element(algebra, v) for v in vs]
        elif kind == "matrix":
            mat = decode_complex_matrix(raw.get("superop"), "generator.superop")
            out["superop"] = SuperOperator(algebra, mat)
        elif kind == "network":
            if not algebra.is_commutative:
                raise InputError(
                    "generator.network: requires a commutative algebra "
                    "(all blocks of size 1)"
                )
            try:
                c = np.asarray(raw.get("c"), dtype=float)
            except (TypeError, ValueError):
                c = None
            if c is None or c.shape != (algebra.dim, algebra.dim) or not np.isfinite(c).all():
                raise InputError(
                    f"generator.c: expected a {algebra.dim}x{algebra.dim} matrix of finite numbers"
                )
            out["c"] = c
            out["allow_negative"] = bool(raw.get("allow_negative", False))
        elif kind == "group":
            autos = raw.get("autos")
            weights = raw.get("weights")
            if not isinstance(autos, list) or not isinstance(weights, list):
                raise InputError("generator.group: needs 'autos' and 'weights' lists")
            if len(autos) != len(weights):
                raise InputError(
                    f"generator.group: {len(autos)} autos but {len(weights)} weights"
                )
            out["autos"] = [
                SuperOperator(algebra, decode_complex_matrix(a, f"generator.autos[{i}]"))
                for i, a in enumerate(autos)
            ]
            if not all(_is_finite_number(w) for w in weights):
                raise InputError("generator.weights: must be finite numbers")
            out["weights"] = [float(w) for w in weights]
        else:
            out["D"] = decode_complex_matrix(raw.get("D"), "generator.D")
    except InputError as exc:
        problems.append(str(exc))
        return None
    return out


def _network_file_to_spec(raw: dict) -> dict:
    """The bare network file format {"nodes": n, "c": [[...]]} expands to a
    full spec over the node algebra with counting measure; every other key
    but ``allow_negative`` is a field of that spec."""
    n = raw["nodes"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError(f"nodes: must be a positive integer, got {n!r}")
    if "generator" in raw:
        raise InputError("generator: a bare network file takes its generator from 'c'")
    out = {key: value for key, value in raw.items()
           if key not in ("nodes", "c", "allow_negative")}
    out["algebra"] = {"blocks": [1] * n, "trace_weights": [1.0] * n}
    out["generator"] = {"kind": "network", "c": raw["c"],
                        "allow_negative": raw.get("allow_negative", False)}
    return out


def parse_spec(source) -> ProblemSpec:
    """Parse and validate a spec from a JSON string or a path-like; collects
    all violations before failing."""
    text = source
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, str) and not source.lstrip().startswith("{"):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read spec file {source!r}: {exc.strerror}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"spec is not valid JSON (line {exc.lineno}, column {exc.colno})")
    if not isinstance(raw, dict):
        raise InputError("spec must be a JSON object")

    if "algebra" not in raw and "nodes" in raw and "c" in raw:
        raw = _network_file_to_spec(raw)

    problems = []
    known = {
        "algebra", "generator", "states", "projection", "weight_element",
        "times", "pairs", "seed", "tolerances",
    }
    for key in sorted(set(raw) - known):
        problems.append(f"unknown field {key!r}")

    alg_raw = raw.get("algebra")
    algebra = None
    if not isinstance(alg_raw, dict):
        problems.append("algebra: required object with 'blocks' and 'trace_weights'")
    else:
        try:
            algebra = Algebra(
                tuple(alg_raw.get("blocks", ())),
                tuple(alg_raw.get("trace_weights", ())),
            )
        except InputError as exc:
            problems.extend(f"algebra: {d}" for d in (exc.details or [str(exc)]))
    if algebra is None:
        raise InputError("invalid spec", problems)

    generator = None
    if "generator" in raw:
        generator = _decode_generator(algebra, raw["generator"], problems)

    states = _decode_states(algebra, raw.get("states", []), problems)

    projection = None
    if "projection" in raw:
        proj_raw = raw["projection"]
        if isinstance(proj_raw, dict) and "keep_blocks" in proj_raw:
            keep = proj_raw["keep_blocks"]
            if not isinstance(keep, list) or not all(
                isinstance(b, int) and not isinstance(b, bool) and 0 <= b < len(algebra.blocks)
                for b in keep
            ):
                problems.append("projection.keep_blocks: need valid block indices")
            else:
                projection = {"keep_blocks": keep}
        elif isinstance(proj_raw, dict) and "projection" in proj_raw:
            try:
                projection = {"element": decode_element(algebra, proj_raw["projection"])}
            except InputError as exc:
                problems.append(f"projection: {exc}")
        else:
            problems.append("projection: needs 'keep_blocks' or 'projection'")

    weight = None
    if "weight_element" in raw:
        try:
            weight = decode_element(algebra, raw["weight_element"])
        except InputError as exc:
            problems.append(f"weight_element: {exc}")

    times = raw.get("times", [0.0, 0.1, 1.0, 10.0])
    if not isinstance(times, list) or not times or any(
        not _is_finite_number(t) or t < 0 for t in times
    ):
        problems.append("times: need a nonempty list of finite nonnegative numbers")
        times = []

    pairs = raw.get("pairs")
    if pairs is not None:
        if not isinstance(pairs, list) or any(
            not (isinstance(p, list) and len(p) == 2) for p in pairs
        ):
            problems.append("pairs: need a list of [i, j] pairs")
            pairs = None
        elif any(not isinstance(i, int) or isinstance(i, bool) for p in pairs for i in p):
            problems.append("pairs: state indices must be integers")
            pairs = None

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        problems.append("seed: must be an integer")
        seed = 0
    elif seed < 0:
        problems.append("seed: must be a nonnegative integer")

    tol_raw = raw.get("tolerances", {})
    tolerances = Tolerances()
    if isinstance(tol_raw, dict):
        names = ("positivity", "rank", "equality")
        problems.extend(f"tolerances: unknown field {key!r}"
                        for key in sorted(set(tol_raw) - set(names)))
        bad = [k for k in names if k in tol_raw and not _is_tolerance(tol_raw[k])]
        if bad:
            problems.extend(f"tolerances.{k}: must be a finite nonnegative number, "
                            f"got {tol_raw[k]!r}" for k in bad)
        else:
            tolerances = Tolerances(
                positivity=float(tol_raw.get("positivity", 1e-9)),
                rank=float(tol_raw.get("rank", 1e-10)),
                equality=float(tol_raw.get("equality", 1e-9)),
            )
    else:
        problems.append("tolerances: must be an object")

    if problems:
        raise InputError("invalid spec", problems)
    return ProblemSpec(
        algebra=algebra,
        generator=generator,
        states=states,
        projection=projection,
        weight_element=weight,
        times=list(float(t) for t in times),
        pairs=pairs,
        seed=seed,
        tolerances=tolerances,
    )
