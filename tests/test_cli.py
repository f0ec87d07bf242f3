"""Spec parsing, report emission, exit codes, and determinism."""
import importlib
import json
from collections import Counter

import numpy as np
import pytest

import nca
from conftest import bench_network_spec
from nca.algebra import decode_element, encode_element
from nca.cli import COMMANDS, emit_report, main, run_command
from nca.errors import InputError
from nca.fileio import ProblemSpec, parse_spec
from nca.reporting import dumps_canonical


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
    gamma = spec.build_gamma()
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
    calls = {"build_gamma": 0, "heat_map": 0, "heat_semigroup": 0}
    build_gamma = ProblemSpec.build_gamma
    cli = importlib.import_module("nca.cli")

    def counted_build(spec):
        calls["build_gamma"] += 1
        return build_gamma(spec)

    def counted(name):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ProblemSpec, "build_gamma", counted_build)
    for name in ("heat_map", "heat_semigroup"):
        monkeypatch.setattr(cli, name, counted(name))
    spec = parse_spec(json.dumps(K3_SPEC))
    report = run_command("all", spec)
    assert report["summary"]["failed"] == 0
    assert calls["build_gamma"] == 1
    # one tested map per time; the semigroup law's s + t map is built
    # without its complete-positivity test
    assert calls["heat_map"] == len(spec.times)
    assert calls["heat_semigroup"] == 1


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
