"""Spec parsing, report emission, exit codes, and determinism."""
import importlib
import json
import re
import sys
from collections import Counter
from fnmatch import fnmatchcase
from pathlib import Path

import numpy as np
import pytest

import nca
from conftest import bench_network_spec
from nca.algebra import decode_element, encode_element
from nca.cli import COMMANDS, emit_report, main, run_command
from nca.errors import InputError
from nca.fileio import parse_spec
from nca.reporting import Tolerances, dumps_canonical


K3_SPEC = {
    "algebra": {"blocks": [1, 1, 1], "trace_weights": [1.0, 1.0, 1.0]},
    "generator": {"kind": "network", "c": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]},
    "states": [
        {"density": [[[[1.0, 0.0]]], [[[0.0, 0.0]]], [[[0.0, 0.0]]]]},
        {"density": [[[[0.0, 0.0]]], [[[1.0, 0.0]]], [[[0.0, 0.0]]]]},
    ],
    "projection": {"keep_blocks": [0, 1]},
    "seed": 0,
}

LINDBLAD_SPEC = {
    "algebra": {"blocks": [2], "trace_weights": [1.0]},
    "generator": {"kind": "lindblad", "vs": [[[[[0, 0], [1, 0]], [[0, 0], [0, 0]]]]]},
}


def test_parse_valid_spec():
    spec = parse_spec(json.dumps(K3_SPEC))
    assert spec.algebra.dim == 3
    assert spec.generator["kind"] == "network"
    assert len(spec.states) == 2
    gamma = spec.generator["gamma"]
    assert gamma.scale == 0.5  # network default


def test_parse_collects_all_violations():
    bad = {
        "algebra": {"blocks": [2, 0], "trace_weights": [1.0]},
        "generator": {"kind": "unknown"},
        "seed": "zero",
        "mystery": 1,
    }
    with pytest.raises(InputError) as err:
        parse_spec(json.dumps(bad))
    # the fields that do not read the algebra are checked though it failed
    assert err.value.details == [
        "mystery: unknown field",
        "algebra: blocks has length 2 but trace_weights has length 1",
        "algebra: block 1 must be an integer >= 1, got 0",
        "generator: needs a 'kind' among lindblad, matrix, network, group, "
        "spectral_triple, got 'unknown'",
        "seed: must be an integer",
    ]


def test_parse_rejects_malformed_json():
    with pytest.raises(InputError) as err:
        parse_spec("{not json")
    assert "line" in str(err.value)


def test_element_roundtrip_through_spec():
    spec = parse_spec(json.dumps(LINDBLAD_SPEC))
    v = spec.generator["vs"][0]
    assert v.data[0][0, 1] == 1.0
    encoded = encode_element(v)
    assert decode_element(spec.algebra, encoded).distance(v) == 0


def test_run_check_cdc_lindblad():
    spec = parse_spec(json.dumps(LINDBLAD_SPEC))
    report = run_command("check-cdc", spec)
    assert report["summary"]["failed"] == 0
    assert report["data"]["is_cdc"] is True
    assert report["data"]["tau_real"] is False


def test_run_resistance():
    spec = parse_spec(json.dumps(K3_SPEC))
    report = run_command("resistance", spec)
    assert report["summary"]["failed"] == 0
    rho = np.asarray(report["data"]["resistance"])
    off = rho[~np.eye(3, dtype=bool)]
    assert np.abs(off - 2.0 / 3.0).max() < 1e-10
    energy = np.asarray(report["data"]["energy"])
    assert np.abs(energy ** 2 - rho).max() < 1e-10
    assert np.all(np.diag(energy) == 0)
    assert np.array_equal(energy, energy.T)


def test_run_all_and_exit_codes(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(K3_SPEC))
    assert main(["all", str(path)]) == 0
    capsys.readouterr()

    assert main(["resistance", "not-a-file.json"]) == 2
    err = capsys.readouterr().err
    assert "input error" in err


def test_disconnected_metric_sentinel(tmp_path, capsys):
    spec_dict = {
        "algebra": {"blocks": [1, 1, 1, 1], "trace_weights": [1.0] * 4},
        "generator": {
            "kind": "network",
            "c": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        },
        "states": [
            {"density": [[[[1, 0]]], [[[0, 0]]], [[[0, 0]]], [[[0, 0]]]]},
            {"density": [[[[0, 0]]], [[[0, 0]]], [[[1, 0]]], [[[0, 0]]]]},
        ],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_dict))
    code = main(["metric", str(path), "--json"])
    out = capsys.readouterr().out
    assert code == 1  # property violation, distinct from input error
    report = json.loads(out)
    # two states were supplied, so the matrix is 2x2 with the sentinel
    assert report["data"]["distances"][0][1] == "disconnected"


def test_json_determinism():
    spec = parse_spec(json.dumps(K3_SPEC))
    first = emit_report(run_command("all", spec), "json")
    second = emit_report(run_command("all", spec), "json")
    assert first == second
    # canonical floats carry 17 significant digits
    assert "0.66666666666666" in first


def test_reports_have_pass_counts():
    spec = parse_spec(json.dumps(K3_SPEC))
    report = run_command("quotient", spec)
    total = report["summary"]["passed"] + report["summary"]["failed"]
    assert total == len(report["checks"])
    text = emit_report(report, "human")
    assert f"{report['summary']['passed']} passed" in text


def test_canonical_json_rejects_nonfinite():
    with pytest.raises(InputError):
        dumps_canonical({"x": float("inf")})


def test_empty_report_document():
    assert dumps_canonical({}) == "{}"
    assert dumps_canonical({"checks": []}) == '{"checks":[]}'


def test_flag_overrides(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(K3_SPEC))
    code = main(["heat", str(path), "--json", "--t", "0,0.5", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["seed"] == 3
    assert any("t0.5" in c["check"] for c in report["checks"])

    assert main(["heat", str(path), "--t", "0,-1"]) == 2
    capsys.readouterr()


def test_bare_network_file_format(tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"nodes": 3, "c": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}))
    code = main(["resistance", str(path), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["data"]["resistance"][0][1] == pytest.approx(2.0 / 3.0)


def test_bare_network_file_keeps_every_field(capsys):
    # a bare file runs exactly as the full spec it stands for, weight_element
    # (and with it the stddev suite) included
    weight = [[[[0.2, 0.0]]], [[[0.3, 0.0]]], [[[0.5, 0.0]]]]
    full = dict(K3_SPEC, weight_element=weight)
    bare = {key: value for key, value in full.items() if key not in ("algebra", "generator")}
    bare.update(nodes=3, c=K3_SPEC["generator"]["c"])
    assert main(["all", json.dumps(full), "--json"]) == 0
    want = capsys.readouterr().out
    assert main(["all", json.dumps(bare), "--json"]) == 0
    got = capsys.readouterr().out
    assert got == want
    assert any(c["check"].startswith("stddev:") for c in json.loads(got)["checks"])


@pytest.mark.parametrize("change, field", [
    ({"mystery": 1}, "mystery"),
    ({"nodes": 2.7}, "nodes"),
    ({"nodes": True}, "nodes"),
    ({"nodes": 0}, "nodes"),
    ({"nodes": "2"}, "nodes"),
    ({"generator": {"kind": "network", "c": [[0, 1], [1, 0]]}}, "generator"),
    ({"tolerances": {"positivty": -1}}, "positivty"),
    ({"seed": True}, "seed"),
])
def test_ignored_fields_exit_2(change, field, capsys):
    spec = dict({"nodes": 2, "c": [[0, 1], [1, 0]]}, **change)
    assert main(["all", json.dumps(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and field in captured.err


@pytest.mark.parametrize("keep", [[True, 0], [False]])
def test_boolean_block_index_exit_2(keep, capsys):
    # JSON true is no block index, though Python counts bool as int
    spec = {"nodes": 3, "c": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
            "projection": {"keep_blocks": keep}}
    assert main(["quotient", json.dumps(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and "keep_blocks" in captured.err


@pytest.mark.parametrize("change, field", [
    ({"tolerances": {"positivity": 1e-9, "rank_tol": 1e-3}}, "rank_tol"),
    ({"seed": False}, "seed"),
])
def test_full_spec_rejects_ignored_fields(change, field, capsys):
    assert main(["check-cdc", json.dumps(dict(K3_SPEC, **change))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and field in captured.err


def test_pairs_flag(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(K3_SPEC))
    assert main(["metric", str(path), "--json", "--pairs", "0:1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["data"]["distances"][0][1] == pytest.approx(np.sqrt(2.0 / 3.0))
    assert main(["metric", str(path), "--pairs", "0-1"]) == 2
    capsys.readouterr()


def test_matrix_generator_kind():
    lap = [[0.0, 0.0], [0.0, 2.0]]
    spec_dict = {
        "algebra": {"blocks": [1, 1], "trace_weights": [1.0, 1.0]},
        "generator": {
            "kind": "matrix",
            "superop": [[[1, 0], [-1, 0]], [[-1, 0], [1, 0]]],
        },
    }
    spec = parse_spec(json.dumps(spec_dict))
    report = run_command("check-cdc", spec)
    assert report["data"]["is_cdc"] is True
    assert report["data"]["ccn"] is True


GROUP_SPEC = {
    "algebra": {"blocks": [1, 1], "trace_weights": [1.0, 1.0]},
    "generator": {
        "kind": "group",
        "autos": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]],
        "weights": [1.0],
    },
}


def test_group_generator_kind():
    spec = parse_spec(json.dumps(GROUP_SPEC))
    report = run_command("check-cdc", spec)
    assert report["data"]["is_cdc"] is True


def test_spectral_triple_generator_kind():
    spec_dict = {
        "algebra": {"blocks": [1, 1], "trace_weights": [0.5, 0.5]},
        "generator": {
            "kind": "spectral_triple",
            "D": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
        },
    }
    spec = parse_spec(json.dumps(spec_dict))
    report = run_command("laplacian", spec)
    assert report["summary"]["failed"] == 0
    assert report["data"]["connected"] is True


@pytest.mark.parametrize("generator", [
    LINDBLAD_SPEC["generator"],
    {"kind": "group", "autos": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]], "weights": [1.0]},
])
def test_scale_rejected_where_ignored(generator):
    bad = dict(LINDBLAD_SPEC, seed="zero", generator=dict(generator, scale=2))
    if generator["kind"] == "group":
        bad["algebra"] = {"blocks": [1, 1], "trace_weights": [1.0, 1.0]}
    with pytest.raises(InputError) as err:
        parse_spec(json.dumps(bad))
    # listed with the other violations
    assert sorted(err.value.details) == [
        f"generator.scale: the {generator['kind']} kind takes no scale",
        "seed: must be an integer",
    ]


@pytest.mark.parametrize("field, command, change", [
    ("generator.scale", "check-cdc", {"generator": dict(K3_SPEC["generator"], scale="x")}),
    ("generator.scale", "check-cdc",
     {"generator": dict(K3_SPEC["generator"], scale=float("nan"))}),
    ("pairs", "metric", {"pairs": [["a", 1]]}),
    ("generator.c", "check-cdc", {"generator": dict(K3_SPEC["generator"], c="x")}),
    ("generator.c", "check-cdc",
     {"generator": dict(K3_SPEC["generator"], c=[[0, 1, "x"], [1, 0, 1], [1, 1, 0]])}),
    ("tolerances.positivity", "check-cdc", {"tolerances": {"positivity": float("nan")}}),
    ("tolerances.rank", "laplacian", {"tolerances": {"rank": -1e-10}}),
    ("tolerances.equality", "laplacian", {"tolerances": {"equality": "1e-9"}}),
    ("times", "heat", {"times": [0.0, float("inf")]}),
    ("times", "heat", {"times": [float("nan")]}),
    ("generator.c", "check-cdc",
     {"generator": dict(K3_SPEC["generator"], c=[[0, True, 1], [True, 0, 1], [1, 1, 0]])}),
])
def test_malformed_numbers_exit_2(field, command, change, capsys):
    assert main([command, json.dumps(dict(K3_SPEC, **change))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and field in captured.err


@pytest.mark.parametrize("spec", [
    {"nodes": 2, "c": "x"},
    {"algebra": {"blocks": [1, 1], "trace_weights": [1.0, 1.0]},
     "generator": {"kind": "group", "autos": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]],
                   "weights": ["x"]}},
])
def test_non_numeric_generator_entries_exit_2(spec, capsys):
    assert main(["check-cdc", json.dumps(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error:")


@pytest.mark.parametrize("flags", [
    ["--tol-pos", "nan"], ["--tol-eq", "inf"], ["--tol-rank", "-1"], ["--t", "nan"],
    ["--t", "0,inf"],
])
def test_non_finite_overrides_exit_2(flags, capsys):
    spec = json.dumps({"nodes": 2, "c": [[0, 1], [1, 0]]})
    assert main(["heat", spec] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error:")


K3_NETWORK = {"nodes": 3, "c": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}


@pytest.mark.parametrize("argv", [
    ["heat", json.dumps(dict(K3_NETWORK, times=[]))],
    ["all", json.dumps(K3_NETWORK), "--t", ""],
])
def test_empty_time_grid_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error:")
    assert "nonempty list" in captured.err


@pytest.mark.parametrize("command", ["all", "check-cdc"])
@pytest.mark.parametrize("argv", [
    [json.dumps(dict(K3_NETWORK, seed=-1))],
    [json.dumps(K3_NETWORK), "--seed", "-3"],
])
def test_negative_seed_exit_2(command, argv, capsys):
    assert main([command] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "seed: must be a nonnegative integer" in captured.err


def test_negative_seed_listed_with_other_violations():
    with pytest.raises(InputError) as err:
        parse_spec(json.dumps(dict(K3_SPEC, seed=-1, times=[])))
    assert sorted(err.value.details) == [
        "seed: must be a nonnegative integer",
        "times: need a nonempty list of finite nonnegative numbers",
    ]


def _input_error(argv, capsys, field):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and field in captured.err
    return captured.err


NAN = float("nan")
M2_SPEC = {"algebra": {"blocks": [2], "trace_weights": [1.0]}}
C2_SPEC = {"algebra": {"blocks": [1, 1], "trace_weights": [1.0, 1.0]}}


@pytest.mark.parametrize("field, spec", [
    ("states[0].density", dict(K3_SPEC, states=[
        {"density": [[[[NAN, 0.0]]], [[[0.0, 0.0]]], [[[0.0, 0.0]]]]}] + K3_SPEC["states"][1:])),
    ("weight_element", dict(K3_SPEC, weight_element=[[[[1.0, 0.0]]], [[[NAN, 0.0]]],
                                                     [[[1.0, 0.0]]]])),
    ("generator.vs", dict(M2_SPEC, generator={
        "kind": "lindblad", "vs": [[[[[0, 0], [NAN, 0]], [[0, 0], [0, 0]]]]]})),
    ("generator.superop", dict(M2_SPEC, generator={
        "kind": "matrix", "superop": [[[0, 0]] * 4] * 3 + [[[0, 0]] * 3 + [[NAN, 0]]]})),
    ("generator.autos", dict(C2_SPEC, generator={
        "kind": "group", "autos": [[[[0, 0], [NAN, 0]], [[1, 0], [0, 0]]]], "weights": [1.0]})),
    ("generator.D", dict(C2_SPEC, generator={
        "kind": "spectral_triple", "D": [[[0, 0], [1, 0]], [[1, 0], [NAN, 0]]]})),
])
def test_non_finite_matrix_entries_exit_2(field, spec, capsys):
    _input_error(["all", json.dumps(spec)], capsys, field)


NEGATIVE_C = [[0, 1, -0.2], [1, 0, 1], [-0.2, 1, 0]]


@pytest.mark.parametrize("spec, field", [
    ({"nodes": 3, "c": NEGATIVE_C, "allow_negative": "no"}, "allow_negative"),
    (dict(K3_SPEC, generator={"kind": "network", "c": NEGATIVE_C, "allow_negative": "no"}),
     "generator.allow_negative"),
    ({"nodes": 3, "c": NEGATIVE_C}, "allow_negative"),
    (dict(K3_SPEC, generator={"kind": "network", "c": NEGATIVE_C}), "allow_negative"),
])
def test_allow_negative_must_be_a_boolean(spec, field, capsys):
    _input_error(["check-cdc", json.dumps(spec)], capsys, field)


@pytest.mark.parametrize("spec, problem", [
    ({"nodes": 1, "c": [[0]]}, "nodes: must be an integer >= 2, got 1"),
    ({"algebra": {"blocks": [1], "trace_weights": [1.0]},
      "generator": {"kind": "network", "c": [[0]]}},
     "generator.c: a network needs at least 2 nodes, got 1"),
])
def test_one_node_network_exits_2_on_every_command(spec, problem, capsys):
    # the spec's own rule rejects it, so no command starts a run
    for command in COMMANDS:
        assert main([command, json.dumps(spec)]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: invalid spec: {problem}\n", command


def test_indefinite_network_fails_network_markov_and_keeps_every_check(capsys):
    # an indefinite allow_negative form has no clipping witness: network-markov
    # fails with the reason, and nca all keeps every other suite's checks
    spec = json.dumps({"nodes": 3, "c": [[0, -2, 1], [-2, 0, 1], [1, 1, 0]],
                       "allow_negative": True})
    reason = {"reason": "the energy form itself is not nonnegative"}
    assert main(["resistance", spec, "--json"]) == 1
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check == {"check": "network-markov", "passed": False, "residual": 0.0,
                     "witness": reason}
    assert main(["all", spec, "--json"]) == 1
    checks = {c["check"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["resistance:network-markov"]["witness"] == reason
    assert checks["laplacian:laplacian-positive"]["residual"] == pytest.approx(3.0)
    assert {name.split(":")[0] for name in checks} == {
        "check-cdc", "dirac", "heat", "laplacian", "resistance"}


def test_failing_complete_positivity_reports_its_residual():
    spec = parse_spec(json.dumps({"nodes": 3, "c": NEGATIVE_C, "allow_negative": True}))
    check = next(c for c in run_command("check-cdc", spec)["checks"]
                 if c["check"] == "cdc-completely-positive")
    assert check["passed"] is False
    assert check["residual"] > 0


def test_asymmetric_form_reports_its_symmetry_gap_as_the_cp_residual():
    # N(1) = 0 but N != N#: the form is not symmetric, so it is not positive
    spec = parse_spec(json.dumps({
        "algebra": {"blocks": [1, 1], "trace_weights": [1.0, 1.0]},
        "generator": {"kind": "matrix",
                      "superop": [[[1, 0], [-1, 0]], [[0, -1], [0, 1]]]},
    }))
    checks = {c["check"]: c for c in run_command("check-cdc", spec)["checks"]}
    assert checks["cdc-symmetric"]["passed"] is False
    assert checks["cdc-symmetric"]["residual"] == 2.0
    assert checks["cdc-completely-positive"]["passed"] is False
    assert checks["cdc-completely-positive"]["residual"] == 2.0


PATH3_C = [[0, 1, 0], [3, 0, 1], [0, 1, 0]]


@pytest.mark.parametrize("spec, field", [
    ({"nodes": 3, "c": PATH3_C}, "c: must be symmetric"),
    (dict(K3_SPEC, generator={"kind": "network", "c": PATH3_C}), "generator.c: must be symmetric"),
])
def test_asymmetric_conductances_exit_2(spec, field, capsys):
    _input_error(["all", json.dumps(spec)], capsys, field)
    # the symmetrization is a star, and passes every check
    assert main(["all", json.dumps({"nodes": 3, "c": [[0, 2, 0], [2, 0, 1], [0, 1, 0]]})]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("algebra", [
    {"blocks": [1, 1.5, 1], "trace_weights": [1.0, 1.0, 1.0]},
    {"blocks": [True, 1, 1], "trace_weights": [1.0, 1.0, 1.0]},
    {"blocks": ["1", 1, 1], "trace_weights": [1.0, 1.0, 1.0]},
    {"blocks": [1, 1, 1], "trace_weights": [1.0, "2", 1.0]},
    {"blocks": [1, 1, 1], "trace_weights": [1.0, 1.0, float("inf")]},
])
def test_uncoerced_algebra_exit_2(algebra, capsys):
    _input_error(["check-cdc", json.dumps(dict(K3_SPEC, algebra=algebra))], capsys, "algebra: ")


@pytest.mark.parametrize("change, field", [
    ({"algebra": dict(K3_SPEC["algebra"], dims=3)}, "algebra.dims"),
    ({"generator": dict(K3_SPEC["generator"], vs=[])}, "generator.vs"),
    ({"projection": {"keep_blocks": [0], "projection": K3_SPEC["states"][0]["density"]}},
     "projection"),
    ({"projection": {"keep_blocks": [0], "keep": 1}}, "projection.keep"),
    ({"states": [dict(K3_SPEC["states"][0], label="a")]}, "states[0].label"),
    ({"pairs": []}, "pairs"),
])
def test_unknown_keys_rejected_at_every_level(change, field, capsys):
    _input_error(["all", json.dumps(dict(K3_SPEC, **change))], capsys, field)


@pytest.mark.parametrize("flags, field", [
    (["--seed", "-3"], "seed: must be a nonnegative integer"),
    (["--tol-rank", "nan"], "tolerances.rank"),
    (["--t", "0,-1"], "times"),
    (["--pairs", "0:1,1:-1"], "pairs"),
])
def test_flags_obey_the_field_rules(flags, field, capsys):
    # a bad flag value is one more violation of the spec field it sets
    err = _input_error(["metric", json.dumps(dict(K3_SPEC, mystery=1))] + flags, capsys, field)
    assert "mystery" in err


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("spec, flags", [
    (dict(K3_SPEC, pairs=[[0, 1], [1, 2]]), []),
    (K3_SPEC, ["--pairs", "0:1,0:2"]),
    ({"nodes": 3, "c": K3_SPEC["generator"]["c"], "pairs": [[0, 9]]}, []),
])
def test_out_of_range_pairs_exit_2_in_every_command(command, spec, flags, capsys):
    # the pairs rule reads the decoded states, so no command runs on a pair
    # that names a missing state, whether it reads the pairs or not
    _input_error([command, json.dumps(spec)] + flags, capsys, "pairs: state pair")


def test_pairs_over_failed_states_report_only_the_states(capsys):
    spec = dict(K3_SPEC, states="x", pairs=[[0, 9]])
    err = _input_error(["check-cdc", json.dumps(spec)], capsys, "states: ")
    assert "pairs" not in err


NET5_SPEC = {
    "algebra": {"blocks": [1] * 5, "trace_weights": [1.0] * 5},
    "generator": {"kind": "network", "c": [
        [0, 1.5, 0, 0.5, 0], [1.5, 0, 2, 0, 0.3], [0, 2, 0, 1, 0],
        [0.5, 0, 1, 0, 0.8], [0, 0.3, 0, 0.8, 0],
    ]},
    "states": [
        {"density": [[[[1, 0]]], [[[0, 0]]], [[[0, 0]]], [[[0, 0]]], [[[0, 0]]]]},
        {"density": [[[[0, 0]]], [[[0, 0]]], [[[0.5, 0]]], [[[0, 0]]], [[[0.5, 0]]]]},
        {"density": [[[[0, 0]]], [[[0.2, 0]]], [[[0, 0]]], [[[0.8, 0]]], [[[0, 0]]]]},
    ],
    "projection": {"keep_blocks": [0, 2, 3]},
    "seed": 4,
}


@pytest.mark.parametrize("spec_dict", [K3_SPEC, LINDBLAD_SPEC, NET5_SPEC])
def test_all_is_the_union_of_single_commands(spec_dict):
    # the suites of one `all` run share their built objects; none may see
    # what another suite did with them
    text = json.dumps(spec_dict)
    checks, data = [], {}
    for command in COMMANDS[:-1]:
        try:
            report = run_command(command, parse_spec(text))
        except InputError:
            continue
        checks.extend(dict(c, check=f"{command}:{c['check']}") for c in report["checks"])
        if report["data"]:
            data[command] = report["data"]
    checks.sort(key=lambda c: c["check"])
    passed = sum(c["passed"] for c in checks)
    union = dict(report, command="all", checks=checks, data=data,
                 summary={"passed": passed, "failed": len(checks) - passed})
    got = run_command("all", parse_spec(text))
    assert dumps_canonical(got) == dumps_canonical(union)


def test_all_builds_the_form_once(monkeypatch):
    # the validation pass builds the spec's form, every suite reads it, and
    # the star check reads the conductances; network_cdc is counted in every
    # module that holds it
    calls = {"network_cdc": 0, "heat_map": 0, "heat_semigroup": 0}
    cli = importlib.import_module("nca.cli")

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    network_cdc = counted(nca.cdc, "network_cdc")
    holders = [module for name, module in sys.modules.items()
               if name.split(".")[0] == "nca"
               and getattr(module, "network_cdc", None) is nca.cdc.network_cdc]
    assert {"nca.cdc", "nca.fileio"} <= {module.__name__ for module in holders}
    for module in holders:
        monkeypatch.setattr(module, "network_cdc", network_cdc)
    for name in ("heat_map", "heat_semigroup"):
        monkeypatch.setattr(cli, name, counted(cli, name))
    spec = parse_spec(json.dumps(K3_SPEC))
    report = run_command("all", spec)
    assert report["summary"]["failed"] == 0
    assert calls["network_cdc"] == 1
    # one tested map per time; the semigroup law's s + t map is built
    # without its complete-positivity test
    assert calls["heat_map"] == len(spec.times)
    assert calls["heat_semigroup"] == 1


def test_dirac_builds_one_bimodule_per_spec(monkeypatch, capsys):
    # the star check reads the unit-weight, scale-1/2 network form of the
    # spec's conductances, so neither tolerances, the form's scale nor trace
    # weights build a second one-form space or move the star entry
    cli, dirac = importlib.import_module("nca.cli"), importlib.import_module("nca.dirac")
    build_bimodule = dirac.build_bimodule
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return build_bimodule(*args, **kwargs)

    monkeypatch.setattr(cli, "build_bimodule", counted)
    monkeypatch.setattr(dirac, "build_bimodule", counted)
    spec = bench_network_spec(16)
    scaled = dict(spec, generator=dict(spec["generator"], scale=1))
    # the dirac suite reads no state, and the point masses are not states
    # under these weights
    weighted = {key: value for key, value in spec.items() if key != "states"}
    weighted["algebra"] = {"blocks": [1] * 16,
                           "trace_weights": np.linspace(0.5, 2.0, 16).tolist()}
    entries = []
    for raw, flags in ((spec, []), (spec, ["--tol-pos", "2e-9", "--tol-rank", "1e-11"]),
                       (scaled, []), (weighted, [])):
        calls.clear()
        main(["dirac", json.dumps(raw), "--json", *flags])
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert len(calls) == 1
        entries.append(next(c for c in checks if c["check"] == "dirac-star-characterization"))
    assert all(dumps_canonical(entry) == dumps_canonical(entries[0]) for entry in entries)


def test_resistance_suite_solves_all_pairs_once(monkeypatch):
    resistance = importlib.import_module("nca.resistance")
    calls = []
    all_pairs = resistance.all_pairs_resistance

    def counted(net):
        calls.append(net.size)
        return all_pairs(net)

    monkeypatch.setattr(resistance, "all_pairs_resistance", counted)
    report = run_command("resistance", parse_spec(json.dumps(NET5_SPEC)))
    assert calls == [5]
    rho = np.asarray(report["data"]["resistance"])
    assert np.array_equal(rho, all_pairs(nca.ResistanceNetwork(NET5_SPEC["generator"]["c"])))


def test_all_decomposes_each_laplacian_once(monkeypatch):
    # the seed-7 N=8 network keeping blocks [0, 2, 5]: the (8, 8) form
    # Laplacian of the spec and the network's own Laplacian, the (3, 3)
    # quotient, whose one eigh the Markov battery, the Dirichlet check and
    # connectedness share, and the (5, 5) corner that split eliminates
    spec = bench_network_spec(8)
    spec["projection"] = {"keep_blocks": [0, 2, 5]}
    calls = Counter()
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            if np.ndim(a) == 2:
                calls[_name, len(a)] += 1
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    report = run_command("all", parse_spec(spec))
    assert report["summary"]["failed"] == 0
    assert calls == {("eigh", 8): 2, ("eigh", 3): 1, ("eigvalsh", 5): 1}


@pytest.mark.parametrize("n", [6, 24])
def test_scaled_network_reports_every_check_and_no_fail(n):
    # conductances x 1e3 leave a Dirichlet form on a commutative algebra,
    # which is completely Markov: every suite of nca all runs and passes.
    # With each cell's scalar part left in, quotient:ambient-markov-n1
    # failed and hid the six quotient checks behind it (32 checks)
    spec = bench_network_spec(n)
    spec["generator"]["c"] = (np.asarray(spec["generator"]["c"]) * 1e3).tolist()
    report = run_command("all", parse_spec(json.dumps(spec)))
    assert len(report["checks"]) == 38
    assert [c["check"] for c in report["checks"] if not c["passed"]] == []


@pytest.mark.parametrize("lam", [1e-12, 1e-10, 1e-9, 1.0, 1e6])
def test_star_characterization_holds_in_every_unit(lam):
    # each parallelogram gap is relative to its own pair's terms, with no
    # floor of 1, so the seed-7 N6 network keeps its verdict when its
    # conductances are scaled; divided by max(1, terms), every gap of a
    # form far below 1 passed the law on this non-star for lam <= 1e-9
    spec = bench_network_spec(6)
    spec["generator"]["c"] = (lam * np.asarray(spec["generator"]["c"])).tolist()
    report = run_command("all", parse_spec(json.dumps(spec)))
    (star,) = [c for c in report["checks"] if c["check"] == "dirac:dirac-star-characterization"]
    assert star["passed"]
    assert not report["data"]["dirac"]["star_graph"]["parallelogram_holds"]


def _readme_tolerances() -> dict:
    """Each check pattern of the README verdict table, with the spec
    tolerance that its row names."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("### Verdicts and bounds", 1)[1].split("\n\n")[2]
    names = {"tol_pos": "positivity", "tol_eq": "equality", "tol_rank": "rank"}
    found = {}
    for row in table.splitlines()[2:]:
        checks, tol = row.split(" | ")[0], row.rstrip(" |").rsplit("| ", 1)[1]
        for pattern in re.findall(r"`([^`]+)`", checks):
            found[pattern] = names[tol.strip("`")]
    return found


@pytest.mark.parametrize("spec_dict", [
    dict(K3_SPEC, weight_element=[[[[0.2, 0.0]]], [[[0.3, 0.0]]], [[[0.5, 0.0]]]]),
    LINDBLAD_SPEC, GROUP_SPEC, NET5_SPEC, bench_network_spec(6),
    {"nodes": 3, "c": NEGATIVE_C, "allow_negative": True},
])
def test_bounds_scale_with_the_tolerance_the_readme_names(spec_dict):
    # every bound is the spec's tolerance times a magnitude that no
    # tolerance moves: scaling one tolerance by 10 or 1/10 keeps every
    # bounded check and scales exactly the bounds of the rows that name it
    table = _readme_tolerances()

    def bounds(tolerances):
        raw = dict(spec_dict, tolerances=tolerances)
        report = run_command("all", parse_spec(json.dumps(raw)))
        return {c["check"]: c["bound"] for c in report["checks"] if "bound" in c}

    defaults = Tolerances().to_dict()
    base = bounds(defaults)
    # every bounded check has exactly one row
    named = {}
    for entry in base:
        (named[entry],) = [tol for pattern, tol in table.items()
                           if fnmatchcase(entry.split(":")[-1], pattern)]
    for scaled in defaults:
        for factor in (10.0, 0.1):
            got = bounds(dict(defaults, **{scaled: factor * defaults[scaled]}))
            assert got.keys() == base.keys(), (scaled, factor)
            for entry in got:
                want = base[entry] * (factor if named[entry] == scaled else 1.0)
                assert abs(got[entry] - want) <= 1e-12 * want, (entry, scaled, factor)


# checks whose verdict compares no residual with a bound
UNBOUNDED = ("quotient-is-cdc", "laplacian-form-reconstruction", "precondition", "is-cdc",
             "network-markov", "dirac-star-characterization")


@pytest.mark.parametrize("spec_dict", [
    K3_SPEC, LINDBLAD_SPEC, GROUP_SPEC, {"nodes": 3, "c": NEGATIVE_C, "allow_negative": True},
])
def test_every_compared_residual_reports_its_bound(spec_dict):
    report = run_command("all", parse_spec(json.dumps(spec_dict)))
    lines = emit_report(report).splitlines()
    for entry in report["checks"]:
        name = entry["check"].split(":")[-1]
        (line,) = [x for x in lines if f" {entry['check']} " in x]
        if name.endswith("-connected") or name in UNBOUNDED:
            assert "bound" not in entry and "bound" not in line
            continue
        assert line.endswith(f"residual {entry['residual']:.3e}  bound {entry['bound']:.3e}")
        assert not entry["passed"] or entry["residual"] <= entry["bound"]
        # these two hold each entry to its own bound and report the largest entry
        if not name.startswith(("resolvent-n", "fiber-infimum")):
            assert entry["passed"] == (entry["residual"] <= entry["bound"]), name


DIAGONAL_C = [[1, 1, 1], [1, 0, 1], [1, 1, 0]]


@pytest.mark.parametrize("spec, problem", [
    ({"nodes": 3, "c": DIAGONAL_C}, "c: conductance matrix must have zero diagonal"),
    (dict(K3_SPEC, generator={"kind": "network", "c": DIAGONAL_C}),
     "generator.c: conductance matrix must have zero diagonal"),
    ({"nodes": 3, "c": NEGATIVE_C},
     "c: negative conductances require the explicit allow_negative flag"),
    (dict(C2_SPEC, generator={"kind": "matrix", "superop": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}),
     "generator: generator must annihilate the identity (residual 1.000e+00)"),
    (dict(C2_SPEC, generator={"kind": "spectral_triple",
                              "D": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}),
     "generator: operator must be Hermitian"),
    (dict(K3_SPEC, weight_element=[[[[0.5, 0]]], [[[0.5, 0]]], [[[0.7, 0]]]]),
     "weight_element: weight element must have unit trace, got 1.7+0j"),
    (dict(K3_SPEC, projection={"keep_blocks": [0, 1, 2]}),
     "projection: projection must be proper (p != 1)"),
    (dict(K3_SPEC, projection={"projection": [[[[0.5, 0]]], [[[0, 0]]], [[[0, 0]]]]}),
     "projection: p must be a self-adjoint idempotent"),
])
def test_every_command_rejects_the_same_specs(spec, problem, capsys):
    # the validation pass applies each object's own rule, so no command runs
    # on a spec that another command would reject
    for command in COMMANDS:
        assert main([command, json.dumps(spec)]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: invalid spec: {problem}\n", command


# a matrix generator with N(1) = 1e-8, a spectral triple 1e-8 off Hermitian
# and a swap 1e-8 off unital, each with the problem it is rejected for
NEAR_VALID_GENERATORS = [
    ({"kind": "matrix", "superop": [[[1, 0], [-1, 0]], [[-1, 0], [1.00000001, 0]]]},
     "generator: generator must annihilate the identity (residual 1.000e-08)"),
    ({"kind": "spectral_triple", "D": [[[0, 0], [1, 0]], [[1.00000001, 0], [0, 0]]]},
     "generator: operator must be Hermitian"),
    ({"kind": "group", "autos": [[[[0, 0], [1, 0]], [[1, 0], [1e-8, 0]]]], "weights": [1.0]},
     "generator: not unital; generator: not multiplicative (residual 1.000e-08)"),
]


@pytest.mark.parametrize("generator, problem", NEAR_VALID_GENERATORS)
def test_builders_read_the_spec_equality_tolerance(generator, problem, capsys):
    # the tolerances are read before the generator, so its builder's rule
    # applies the spec's equality tolerance, in the field and in the flag
    spec = dict(C2_SPEC, generator=generator)
    for command in COMMANDS:
        assert main([command, json.dumps(spec)]) == 2, command
        assert capsys.readouterr().err == f"input error: invalid spec: {problem}\n", command
    loose = dict(spec, tolerances={"equality": 1e-6})
    assert parse_spec(loose).generator["gamma"].algebra.dim == 2
    for argv in (["check-cdc", json.dumps(loose)],
                 ["check-cdc", json.dumps(spec), "--tol-eq", "1e-6"]):
        assert main(argv) in (0, 1)
        assert capsys.readouterr().err == ""


def test_network_rule_listed_with_other_violations():
    with pytest.raises(InputError) as err:
        parse_spec({"nodes": 3, "c": DIAGONAL_C, "seed": -1})
    assert err.value.details == ["c: conductance matrix must have zero diagonal",
                                 "seed: must be a nonnegative integer"]


DISCONNECTED_NETWORK = {"nodes": 3, "c": [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
                        "projection": {"keep_blocks": [0]}}


def test_quotient_across_a_disconnected_corner_fails(capsys):
    assert main(["quotient", json.dumps(DISCONNECTED_NETWORK), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [(c["check"], c["passed"]) for c in report["checks"]] == [
        ("metrically-connected", False)]
    assert "not metrically connected" in report["checks"][0]["witness"]["reason"]
    assert report["data"] == {"distance": "disconnected"}


def test_resistance_on_a_disconnected_network_fails(capsys):
    assert main(["resistance", json.dumps(DISCONNECTED_NETWORK), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checks"] == [{"check": "network-connected", "passed": False, "residual": 0.0,
                                 "witness": {"reason": "network graph is disconnected"}}]
    assert report["data"] == {"resistance": "disconnected"}


def test_unparsable_time_grid_exit_2(capsys):
    err = _input_error(["heat", json.dumps(K3_NETWORK), "--t", "0,x"], capsys, "--t")
    assert err == "input error: --t: cannot parse '0,x' as a comma-separated list\n"
