"""Declarative problem specs in, machine-readable reports out.

A spec file is one JSON object.  ``_FIELDS`` holds one rule per field;
``<element>`` (``<elem>``) is a list of per-block 2-D arrays of [re, im]
pairs and ``<matrix>`` one such array:

    algebra.blocks                   nonempty list of integers >= 1 (required)
    algebra.trace_weights            one finite number > 0 per block (required)
    generator.kind                   lindblad | matrix | network | group | spectral_triple
    generator.lindblad.vs            nonempty list of <element>
    generator.matrix.superop         d x d <matrix> in the orthonormal basis; annihilates 1
    generator.matrix.scale           finite number (default 1)
    generator.network.c              symmetric d x d matrix of finite numbers with zero
                                     diagonal, d >= 2, blocks all 1; nonnegative
                                     unless allow_negative
    generator.network.allow_negative true | false (default false)
    generator.network.scale          finite number (default 0.5)
    generator.group.autos            nonempty list of d x d <matrix>, unital *-automorphisms
    generator.group.weights          one finite number >= 0 per auto
    generator.spectral_triple.D      Hermitian <matrix> of the full size
    generator.spectral_triple.scale  finite number (default 1)
    states                           list of {"density": <element>}
    projection                       {"keep_blocks": [block index, ...]} | {"projection": <elem>};
                                     a proper central projection
    weight_element                   <element>: central, positive, unit trace
    times                            nonempty list of finite numbers >= 0 (default [0, 0.1, 1, 10])
    pairs                            nonempty list of [i, j] indices into states (default all)
    seed                             integer >= 0 (default 0)
    tolerances.positivity|rank|equality  finite numbers >= 0 (default 1e-9, 1e-10, 1e-9)

A bare network file ``{"nodes": n, "c": ..., "allow_negative": ...}`` stands
for the spec over n >= 2 points with unit weights and that network generator;
its other keys are fields of that spec.  Unknown keys are rejected at every
level, and ``c`` must be exactly symmetric.  The CLI flags ``--seed``,
``--tol-*``, ``--t`` and ``--pairs`` set the fields they name before the one
validation pass, so they obey the same rules.  The pass applies the
library's own rule of each object, builds the generator's form, and
collects every violation, not just the first; so every command accepts
and rejects the same specs.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .algebra import (
    Algebra,
    Element,
    SuperOperator,
    decode_complex_matrix,
    decode_element,
    decode_real_array,
    is_integer,
)
from .cdc import (
    commutator_cdc,
    gamma_from_generator,
    group_action_cdc,
    network_cdc,
    spectral_triple_cdc,
)
from .errors import InputError
from .quotient import central_projection, projection_blocks
from .reporting import Tolerances
from .resistance import ResistanceNetwork
from .states import State
from .stddev import weight_scalars


@dataclass
class ProblemSpec:
    """A fully validated problem description.  ``generator`` holds its
    decoded fields, a network's ``c`` as its :class:`ResistanceNetwork`, and
    their form as ``gamma``; ``projection`` is a central projection."""

    algebra: Algebra
    generator: Optional[dict] = None
    states: list = field(default_factory=list)
    projection: Optional[Element] = None
    weight_element: Optional[Element] = None
    times: list = field(default_factory=lambda: [0.0, 0.1, 1.0, 10.0])
    pairs: Optional[list] = None
    seed: int = 0
    tolerances: Tolerances = field(default_factory=Tolerances)


# a key in this set is required in every object whose schema has it
_REQUIRED = frozenset({"algebra", "blocks", "trace_weights", "nodes", "c", "vs", "superop",
                       "autos", "weights", "D", "density"})


class _Pass:
    """One validation pass: the spec's algebra once its rule has built it,
    its decoded states (none until a ``states`` field is read, None when
    that field failed its rule), the network's ``allow_negative`` flag, and
    every violation found."""

    def __init__(self):
        self.alg = None
        self.states = []
        self.allow_negative = False
        self.problems = []

    def walk(self, raw, schema: dict, path: str) -> dict:
        """Check the object ``raw`` against ``schema`` (key -> rule) and
        return the decoded value of each field that passed.  A rule maps
        (value, pass) to the decoded value or raises :class:`InputError`."""
        if not isinstance(raw, dict):
            self.problems.append(f"{path}: must be an object")
            return {}
        prefix = f"{path}." if path else ""
        self.problems.extend(f"{prefix}{key}: unknown field"
                             for key in sorted(raw.keys() - schema.keys()))
        out = {}
        for key, rule in schema.items():
            if key in raw:
                try:
                    out[key] = rule(raw[key], self)
                except InputError as exc:
                    self.problems.extend(f"{prefix}{key}: {d}" for d in exc.details or [exc])
            elif key in _REQUIRED:
                self.problems.append(f"{prefix}{key}: required")
        return out


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _rule(test, need, decode):
    """The rule that decodes a value when ``test`` holds for it."""
    def check(value, p):
        if not test(value):
            raise InputError(f"{need}, got {value!r}")
        return decode(value)
    return check


def _list_of(rule, what):
    """The rule for a nonempty list whose entries each pass ``rule``."""
    def check(value, p):
        if not isinstance(value, list) or not value:
            raise InputError(f"need a nonempty list of {what}")
        out = []
        for i, entry in enumerate(value):
            try:
                out.append(rule(entry, p))
            except InputError as exc:
                raise InputError(f"entry {i}: {exc}") from None
        return out
    return check


def _with_algebra(decode):
    """The rule that decodes a value against the spec's algebra; it passes
    over the value when the algebra failed its own rule."""
    return lambda value, p: None if p.alg is None else decode(value, p.alg)


_list = _rule(lambda value: isinstance(value, list), "must be a list", list)
_boolean = _rule(lambda value: isinstance(value, bool), "must be true or false", bool)
_number = _rule(_is_number, "must be a finite number", float)
_nonnegative = _rule(lambda value: _is_number(value) and value >= 0,
                     "must be a finite nonnegative number", float)
_pair = _rule(lambda value: isinstance(value, list) and len(value) == 2
              and all(is_integer(i) and i >= 0 for i in value),
              "must be a pair [i, j] of state indices", list)
_element = _with_algebra(lambda value, alg: decode_element(alg, value))
_density = _with_algebra(lambda value, alg: State(decode_element(alg, value)))
_superop = _with_algebra(lambda value, alg: SuperOperator(alg, decode_complex_matrix(value)))


def _seed(value, p):
    if not is_integer(value):
        raise InputError("must be an integer")
    if value < 0:
        raise InputError("must be a nonnegative integer")
    return value


def _algebra(value, p):
    got = p.walk(value, {"blocks": _list, "trace_weights": _list}, "algebra")
    if len(got) == 2:
        p.alg = Algebra(tuple(got["blocks"]), tuple(got["trace_weights"]))
    return p.alg


def _nodes(value, p):
    if not (is_integer(value) and value >= 2):
        raise InputError(f"must be an integer >= 2, got {value!r}")
    p.alg = Algebra((1,) * value, (1.0,) * value)
    return p.alg


def _allow_negative(value, p):
    p.allow_negative = _boolean(value, p)
    return p.allow_negative


def _network(value, p):
    """The network of the conductances ``value`` over the spec's algebra,
    with the ``allow_negative`` flag read before them."""
    alg = p.alg
    if alg is None:
        return None
    if not alg.is_commutative:
        raise InputError("a network needs a commutative algebra (all blocks of size 1)")
    c = decode_real_array(value, "matrix")
    if c.shape != (alg.dim, alg.dim):
        raise InputError(f"expected a {alg.dim}x{alg.dim} matrix, got shape {c.shape}")
    if not np.array_equal(c, c.T):
        raise InputError("must be symmetric")
    return ResistanceNetwork(c, allow_negative=p.allow_negative)


# kind -> (the rule of each field, the builder of the form over the algebra
# from the decoded fields); an absent scale takes the builder's own default.
# The allow_negative rule comes before the c rule, which reads it
_GENERATORS = {
    "lindblad": ({"vs": _list_of(_element, "elements")},
                 lambda alg, vs: commutator_cdc(vs)),
    "matrix": ({"superop": _superop, "scale": _number},
               lambda alg, superop, **scale: gamma_from_generator(superop, **scale)),
    "network": ({"allow_negative": _allow_negative, "c": _network, "scale": _number},
                lambda alg, c, **opts: network_cdc(alg, c.c, **opts)),
    "group": ({"autos": _list_of(_superop, "matrices"),
               "weights": _list_of(_number, "finite numbers")},
              lambda alg, autos, weights: group_action_cdc(autos, weights)),
    "spectral_triple": ({"D": lambda value, p: decode_complex_matrix(value), "scale": _number},
                        lambda alg, D, **scale: spectral_triple_cdc(D, alg, **scale)),
}


def _generator(value, p):
    kind = value.get("kind") if isinstance(value, dict) else None
    if not (isinstance(kind, str) and kind in _GENERATORS):
        raise InputError(f"needs a 'kind' among {', '.join(_GENERATORS)}, got {kind!r}")
    fields, build = _GENERATORS[kind]
    p.problems.extend(f"generator.{key}: the {kind} kind takes no {key}"
                      for key in sorted(value.keys() - fields.keys() - {"kind"}))
    before = len(p.problems)
    got = p.walk({k: v for k, v in value.items() if k in fields}, fields, "generator")
    # the form is built once its fields and the algebra have passed their rules
    if p.alg is not None and len(p.problems) == before:
        got["gamma"] = build(p.alg, **got)
    return dict(got, kind=kind)


def _states(value, p):
    p.states = None
    p.states = [p.walk(entry, {"density": _density}, f"states[{i}]").get("density")
                for i, entry in enumerate(_list(value, p))]
    return p.states


def _pairs(value, p):
    """Pairs of indices into the states read before them; unchecked against
    a ``states`` field that failed its own rule."""
    pairs = _list_of(_pair, "[i, j] state index pairs")(value, p)
    bad = [pair for pair in pairs if p.states is not None and max(pair) >= len(p.states)]
    if bad:
        raise InputError(f"state pair {bad[0]} out of range for {len(p.states)} states")
    return pairs


_PROJECTION = {
    "keep_blocks": _with_algebra(lambda value, alg: central_projection(alg, _list(value, None))),
    "projection": _element,
}


def _projection(value, p):
    """The element that one of the two keys gives; it must pass the rule of
    :func:`split`, a proper central projection."""
    got = p.walk(value, _PROJECTION, "projection")
    if isinstance(value, dict) and len(value.keys() & _PROJECTION.keys()) != 1:
        raise InputError("needs exactly one of 'keep_blocks' and 'projection'")
    proj = next(iter(got.values()), None)
    if proj is not None:
        projection_blocks(proj)
    return proj


def _weight(value, alg):
    """An element that passes the rule of :func:`extend`: central, positive
    and of unit trace."""
    weight = decode_element(alg, value)
    weight_scalars(alg, weight)
    return weight


def _tolerances(value, p):
    schema = dict.fromkeys(("positivity", "rank", "equality"), _nonnegative)
    return Tolerances(**p.walk(value, schema, "tolerances"))


# the states rule comes before the pairs rule, which reads the decoded states
_SHARED = {
    "states": _states,
    "projection": _projection,
    "weight_element": _with_algebra(_weight),
    "times": _list_of(_nonnegative, "finite nonnegative numbers"),
    "pairs": _pairs,
    "seed": _seed,
    "tolerances": _tolerances,
}
# the rule that builds the algebra comes first, so the later rules can read it
_FIELDS = {"algebra": _algebra, "generator": _generator, **_SHARED}
_NETWORK_FILE = {"nodes": _nodes, "allow_negative": _allow_negative, "c": _network, **_SHARED}


def read_spec(source) -> dict:
    """The JSON object of a spec given as JSON text or as a path."""
    text = source
    if not str(source).lstrip().startswith("{"):
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
    return raw


def parse_spec(source) -> ProblemSpec:
    """Validate a spec, given as an already decoded JSON object or as
    :func:`read_spec` takes it, in one pass over the field table; collects
    all violations before failing."""
    raw = source if isinstance(source, dict) else read_spec(source)
    p = _Pass()
    bare = "nodes" in raw and "algebra" not in raw
    fields = p.walk(raw, _NETWORK_FILE if bare else _FIELDS, "")
    if p.problems:
        raise InputError("invalid spec", p.problems)
    if bare:
        gen = {key: fields.pop(key) for key in ("c", "allow_negative") if key in fields}
        fields["algebra"] = fields.pop("nodes")
        gamma = _GENERATORS["network"][1](fields["algebra"], **gen)
        fields["generator"] = dict(gen, kind="network", gamma=gamma)
    return ProblemSpec(**fields)
