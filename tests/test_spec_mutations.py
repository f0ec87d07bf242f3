"""Mutated specs: whatever is done to a valid spec, ``main`` exits 0, 1 or 2
and never raises, and an exit 2 prints only an input error."""
import contextlib
import copy
import io
import json
from functools import reduce
from operator import getitem

from hypothesis import given, settings
from hypothesis import strategies as st

from nca.cli import COMMANDS, main
from test_cli import K3_NETWORK, K3_SPEC, LINDBLAD_SPEC

BASES = (K3_SPEC, LINDBLAD_SPEC, dict(K3_NETWORK, times=[0.0, 1.0]))
# wrong types, NaN and infinities, bools, out-of-range numbers, ragged and
# empty nests
VALUES = (None, True, False, "x", "1", float("nan"), float("inf"), -1, 0, 1.5, 7,
          [], {}, [[0, 1], [1]], [[1.0, 0.0]], {"kind": "network"})


def _paths(obj, path=()):
    """The path to every value nested in ``obj``, ``obj`` itself included."""
    yield path
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _paths(value, path + (key,))


def _mutate(spec, path, action, value):
    spec = copy.deepcopy(spec)
    if action == "extra" or not path:
        # an extra key in an object, an extra entry in a list
        target = reduce(getitem, path, spec)
        if isinstance(target, dict):
            target["extra"] = value
        elif isinstance(target, list):
            target.append(value)
        return spec
    parent = reduce(getitem, path[:-1], spec)
    if action == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return spec


@st.composite
def mutated_specs(draw):
    spec = draw(st.sampled_from(BASES))
    path = draw(st.sampled_from(list(_paths(spec))))
    action = draw(st.sampled_from(("replace", "delete", "extra")))
    return _mutate(spec, path, action, draw(st.sampled_from(VALUES)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutated_specs(), st.sampled_from(COMMANDS))
def test_mutated_specs_never_raise(spec, command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, json.dumps(spec)])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("input error:")
