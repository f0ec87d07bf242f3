"""Compare the canonical reports of two nca source trees.

    python3 tools/compare_reports.py PARENT_SRC CHANGE_SRC

Each argument is a ``src`` directory holding the ``nca`` package.  For each
side, one subprocess imports ``nca`` from that directory and runs
``nca <command> <spec> --json`` for all nine commands on the network-suite
and matrix-suite specs of ``bench/workloads.py`` at seeds 1 and 2, the
network-suite ``network-N6`` specs at seeds 7 and 8, the
``network_case(default_rng(7), n)`` specs for n = 24 and 48, whose one-form
spaces are the largest compared, the ``lindblad_case(default_rng(7), n)``
specs for n = 6 and 7, whose moved frames ``build_bimodule`` forms in
several chunks, and the n = 8 network with trace weights
``linspace(0.5, 2, 8)`` and each point state's density scaled by 1/w (the
one network whose orthonormal basis is not the canonical one), the n = 8
network with ``generator.scale: 1`` and ``tolerances.rank: 1e-11`` (a
network form other than the star check's scale-1/2 one, cut at another
rank), the n = 6 network with its conductances times 1e-10 (a form far
below magnitude 1, whose verdicts must not depend on the units), plus ``K3_SPEC``, ``LINDBLAD_SPEC`` and ``GROUP_SPEC`` (the one spec that reaches
``group_action_cdc``) from ``tests/test_cli.py`` and the ``NEGATIVE_C``
triangle of that file as an ``allow_negative`` network, whose reports take the FAIL paths
(``heat-cp-t0.1``, ``network-markov``), ``K4_NEGATIVE`` (K4 with one
conductance -0.4, scaled by 1e-12, whose ``cdc-completely-positive`` a
bound floored at 1 passed), that file's ``DISCONNECTED_NETWORK``
(the ``metrically-connected`` and ``network-connected`` FAILs), and the nine
invalid specs of :func:`invalid_specs`, which pin the exit code and stderr of
each rule of the validation pass.  The Markov batteries of the two
``network-N6`` specs, like those of the seed-1 ``lindblad-M3`` and
``lindblad-M5`` specs, reject and redraw the knots of a seeded function
(seed 8 twice in one draw).  A further subprocess per side reports the
library's ``is_cdc`` (flags, residuals, witness) and ``reality_checks`` on
the seed-1 large-forms forms (networks, an order-2 amplification, a
commutator form), on the one-node network form and a sparse 12-node
network form with one negative conductance, which fails complete
positivity, and on a raw and a symmetrized random gram on each of
[3, 2, 1], [1] * 12, [2, 2, 2], [6] and [1] * 48: no spec can fail the
star-representation identity, and these reach its failing residual and its
witness, on one large block and on many small ones.  The grams on [6] and
[1] * 48 span several chunks of each gap (9 star-representation, 2
symmetry and 3 tau-balanced chunks on [6]; 4, 4 and 7 on [1] * 48), and
some of their symmetry, star-representation and tau-balanced witnesses each
lie past the first chunk.  The real parts of the [1] * 12 and [2, 2, 2]
pairs take the float64 path to its symmetry and star-representation
witnesses and its CP eigenvalues.  That makes 434 reports.  The script
prints the structural differences (exit code, stderr, stdout shape, keys,
list lengths, strings and booleans), how many of them flip a check's
``passed`` flag, and, for each float field that moved, its largest change
relative to max(1, |x|).  It exits 1 when any structural
difference is found, 0 otherwise.
"""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import run as bench_run  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2)
WORKLOADS = ("network-suite", "matrix-suite")
# (workload, seed, case name) of further single specs
EXTRA_CASES = (("network-suite", 7, "network-N6"), ("network-suite", 8, "network-N6"))
# node counts of further seed-7 network_case specs
LARGE_NETWORKS = (24, 48)
# sizes of further seed-7 lindblad_case specs
LARGE_LINDBLADS = (6, 7)
# node count of the seed-7 network_case given non-unit trace weights, and
# of the one given scale 1 and rank cutoff 1e-11
VARIANT_NETWORK = 8
# node count and conductance factor of the seed-7 network_case far below 1
SMALL_NETWORK = (6, 1e-10)
# K4 with one negative conductance, scaled by 1e-12
K4_NEGATIVE = {"nodes": 4, "allow_negative": True, "c": (1e-12 * np.array(
    [[0, 1, 1, 0.5], [1, 0, -0.4, 1], [1, -0.4, 0, 1], [0.5, 1, 1, 0]])).tolist()}

# runs every (command, spec) pair in one interpreter and prints a JSON list
# of [command, exit code, stdout, stderr]
RUNNER = """
import contextlib, io, json, sys, traceback
sys.path.insert(0, sys.argv[1])
from nca.cli import COMMANDS, main
specs = json.load(sys.stdin)
out = []
for command in COMMANDS:
    for spec in specs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main([command, spec, "--json"])
            except Exception:
                traceback.print_exc()
                code = 1
        out.append([command, code, stdout.getvalue(), stderr.getvalue()])
json.dump(out, sys.stdout)
"""


# prints a JSON list of [name, report] for the library forms, from the nca
# of argv[1] and the bench/ of argv[2]
LIBRARY_RUNNER = """
import json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[2])
import run as bench_run, workloads
from nca.algebra import Algebra
from nca.cdc import CdCForm, amplify_cdc, commutator_cdc, is_cdc, network_cdc
from nca.energy import reality_checks

def forms():
    for case in bench_run.make_cases("large-forms", np.random.default_rng(1), workloads):
        if case["kind"] == "commutator":
            alg = Algebra(tuple(case["sizes"]), (1.0,) * len(case["sizes"]))
            yield case["name"], commutator_cdc([alg.element(v) for v in case["vs"]])
        else:
            n = case["c"].shape[0]
            gamma = network_cdc(Algebra((1,) * n, (1.0,) * n), case["c"])
            yield case["name"], amplify_cdc(gamma, case.get("order", 1))
    # the one-node network, and a sparse network with one negative conductance
    yield "network-N1", network_cdc(Algebra((1,), (1.0,)), [[0.0]])
    rng = np.random.default_rng(12)
    c = np.triu(rng.uniform(0.5, 2.0, (12, 12)) * (rng.uniform(size=(12, 12)) < 0.4), 1)
    c[0, 11] = -0.3
    yield "negative-network-N12", network_cdc(Algebra((1,) * 12, (1.0,) * 12), c + c.T,
                                              allow_negative=True)
    # the grams on [6] and [1] * 48 span several chunks of each gap
    for label, blocks, weights, seed in (
            ("3-2-1", (3, 2, 1), (1.0, 0.5, 2.0), 1),
            ("1x12", (1,) * 12, tuple(np.linspace(0.5, 2.0, 12)), 1),
            ("2-2-2", (2, 2, 2), (1.0, 0.5, 2.0), 1),
            ("6", (6,), (1.0,), 36),
            ("1x48", (1,) * 48, tuple(np.linspace(0.5, 2.0, 48)), 48)):
        alg = Algebra(blocks, weights)
        d = alg.dim
        g = np.random.default_rng(seed).standard_normal((d, d, d, 2)) @ [1, 1j]
        yield f"raw-{label}", CdCForm(alg, g)
        sym = (g + g.transpose(1, 0, 2)[:, :, alg.adj_table].conj()) / 2
        yield f"symmetrized-{label}", CdCForm(alg, sym)
        if label in ("1x12", "2-2-2"):  # their real parts take the float64 path
            yield f"real-raw-{label}", CdCForm(alg, g.real)
            yield f"real-symmetrized-{label}", CdCForm(alg, sym.real)

out = []
for name, gamma in forms():
    r = is_cdc(gamma)
    report = {"flags": [r.symmetric, r.unit_annihilating, r.star_representation,
                        r.completely_positive],
              "residuals": r.residuals, "witness": r.witness,
              "reality": reality_checks(gamma)}
    out.append([name, json.dumps(report, sort_keys=True)])
json.dump(out, sys.stdout)
"""


def _test_cli_literals() -> dict:
    """The literal constants assigned at the top level of tests/test_cli.py."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            try:
                found[getattr(node.targets[0], "id", None)] = ast.literal_eval(node.value)
            except ValueError:
                continue
    return found


def cli_specs() -> dict:
    """The literal ``K3_SPEC``, ``LINDBLAD_SPEC`` and ``GROUP_SPEC`` of
    tests/test_cli.py, its ``NEGATIVE_C`` as the conductances of an
    ``allow_negative`` network file, ``K4_NEGATIVE``, its
    ``DISCONNECTED_NETWORK``, and :func:`invalid_specs`."""
    lit = _test_cli_literals()
    found = {name: json.dumps(lit[name])
             for name in ("K3_SPEC", "LINDBLAD_SPEC", "GROUP_SPEC", "DISCONNECTED_NETWORK")}
    found["NEGATIVE_C"] = json.dumps({"nodes": 3, "c": lit["NEGATIVE_C"], "allow_negative": True})
    found["K4_NEGATIVE"] = json.dumps(K4_NEGATIVE)
    found.update(invalid_specs(lit))
    return found


def invalid_specs(lit: dict) -> dict:
    """One spec per object rule of the validation pass, which every command
    rejects: a nonzero diagonal in ``c`` (a bare file and a full spec), a
    negative ``c`` without ``allow_negative``, a matrix generator with
    N(1) != 0, a non-Hermitian ``D``, a weight element of trace 1.7,
    ``keep_blocks`` covering every block, and a non-idempotent ``projection``;
    plus the bare file whose diagonal and seed both break their rules."""
    k3, c2, diagonal = lit["K3_SPEC"], lit["C2_SPEC"], lit["DIAGONAL_C"]
    zero, half = [[[0, 0]]], [[[0.5, 0]]]
    specs = {
        "diagonal-c": {"nodes": 3, "c": diagonal},
        "diagonal-generator-c": dict(k3, generator={"kind": "network", "c": diagonal}),
        "negative-c": {"nodes": 3, "c": lit["NEGATIVE_C"]},
        "unit-not-annihilated": dict(c2, generator={
            "kind": "matrix", "superop": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}),
        "non-hermitian-D": dict(c2, generator={
            "kind": "spectral_triple", "D": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}),
        "weight-trace-1.7": dict(k3, weight_element=[half, half, [[[0.7, 0]]]]),
        "keep-every-block": dict(k3, projection={"keep_blocks": [0, 1, 2]}),
        "non-idempotent-projection": dict(k3, projection={"projection": [half, zero, zero]}),
        "diagonal-c-and-seed": {"nodes": 3, "c": diagonal, "seed": -1},
    }
    return {name: json.dumps(spec) for name, spec in specs.items()}


def weighted_network_spec(n: int) -> str:
    """The seed-7 ``network_case`` on n nodes with trace weights
    ``linspace(0.5, 2, n)``; each point state's density is scaled by 1/w,
    so that it stays a state."""
    spec = json.loads(workloads.network_case(np.random.default_rng(7), n)["spec"])
    weights = np.linspace(0.5, 2.0, n)
    spec["algebra"]["trace_weights"] = weights.tolist()
    for state in spec["states"]:
        state["density"] = [[[[x / w for x in entry] for entry in row] for row in block]
                            for block, w in zip(state["density"], weights)]
    return json.dumps(spec)


def scaled_network_spec(n: int) -> str:
    """The seed-7 ``network_case`` on n nodes with ``generator.scale: 1``
    and ``tolerances.rank: 1e-11``."""
    spec = json.loads(workloads.network_case(np.random.default_rng(7), n)["spec"])
    spec["generator"]["scale"] = 1
    spec["tolerances"] = {"rank": 1e-11}
    return json.dumps(spec)


def small_network_spec(n: int, factor: float) -> str:
    """The seed-7 ``network_case`` on n nodes with its conductances times
    ``factor``."""
    spec = json.loads(workloads.network_case(np.random.default_rng(7), n)["spec"])
    spec["generator"]["c"] = (factor * np.asarray(spec["generator"]["c"])).tolist()
    return json.dumps(spec)


def specs() -> dict:
    named = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            for case in bench_run.make_cases(workload, np.random.default_rng(seed), workloads):
                named[f"{case['name']}-seed{seed}"] = case["spec"]
    for workload, seed, name in EXTRA_CASES:
        cases = bench_run.make_cases(workload, np.random.default_rng(seed), workloads)
        named[f"{name}-seed{seed}"] = next(c["spec"] for c in cases if c["name"] == name)
    for n in LARGE_NETWORKS:
        named[f"network-N{n}-seed7"] = workloads.network_case(np.random.default_rng(7), n)["spec"]
    for n in LARGE_LINDBLADS:
        named[f"lindblad-M{n}-seed7"] = workloads.lindblad_case(np.random.default_rng(7), n)["spec"]
    named[f"weighted-network-N{VARIANT_NETWORK}-seed7"] = weighted_network_spec(VARIANT_NETWORK)
    named[f"scaled-network-N{VARIANT_NETWORK}-seed7"] = scaled_network_spec(VARIANT_NETWORK)
    n, factor = SMALL_NETWORK
    named[f"network-N{n}-times-{factor:g}-seed7"] = small_network_spec(n, factor)
    named.update(cli_specs())
    return named


def run_side(src: str, named: dict) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", RUNNER, str(Path(src).resolve())],
                          input=json.dumps(list(named.values())), capture_output=True,
                          text=True, env=env, check=True)
    rows = json.loads(proc.stdout)
    names = list(named) * (len(rows) // len(named))
    reports = {(command, name): (code, out, err)
               for name, (command, code, out, err) in zip(names, rows)}
    proc = subprocess.run([sys.executable, "-c", LIBRARY_RUNNER, str(Path(src).resolve()),
                           str(ROOT / "bench")], capture_output=True, text=True, env=env,
                          check=True)
    for name, out in json.loads(proc.stdout):
        reports[("library", name)] = (0, out, "")
    return reports


def walk(a, b, path: str, where: str, moved: dict, structural: list):
    """Record the structural differences and the float moves between two
    parsed reports of the run ``where``.  Dicts whose keys differ are
    recorded and then compared on the keys they share.  A float field is
    named by its ``path`` with list positions dropped, except that an entry
    of a ``checks`` list is named by its check; ``moved`` keeps each field's
    largest change and the run it came from."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            structural.append(f"{where} {path}: keys {sorted(a)} != {sorted(b)}")
        for key in a:
            if key in b:
                walk(a[key], b[key], f"{path}.{key}", where, moved, structural)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            structural.append(f"{where} {path}: length {len(a)} != {len(b)}")
            return
        for x, y in zip(a, b):
            named = isinstance(x, dict) and path.endswith("checks") and "check" in x
            walk(x, y, f"{path}[{x['check'] if named else ''}]", where, moved, structural)
    elif _is_number(a) and _is_number(b) and float in (type(a), type(b)):
        change = abs(a - b) / max(1.0, abs(a))
        if change > moved.get(path, (0.0, ""))[0]:
            moved[path] = (change, where)
    elif type(a) is not type(b) or a != b:
        structural.append(f"{where} {path}: {a!r} != {b!r}")


def passed_flips(structural: list) -> int:
    """How many of the structural differences flip a ``passed`` flag."""
    return sum(line.endswith((".passed: True != False", ".passed: False != True"))
               for line in structural)


def _is_number(x) -> bool:
    """Canonical JSON writes an integral float as an int, so ints and floats
    compare as numbers; booleans do not."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/compare_reports.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    named = specs()
    parent, change = (run_side(src, named) for src in args)
    structural, moved = [], {}
    identical = 0
    for key, (code_a, out_a, err_a) in parent.items():
        code_b, out_b, err_b = change[key]
        label = f"{key[0]} {key[1]}"
        identical += out_a == out_b
        if code_a != code_b:
            structural.append(f"{label}: exit code {code_a} != {code_b}")
        if err_a != err_b:
            structural.append(f"{label}: stderr differs")
        if out_a.count("\n") != out_b.count("\n"):
            structural.append(f"{label}: stdout has {out_a.count(chr(10))} != "
                              f"{out_b.count(chr(10))} lines")
        if out_a.strip() and out_b.strip():
            walk(json.loads(out_a), json.loads(out_b), key[0], label, moved, structural)
    print(f"{len(parent)} reports, {identical} byte-identical")
    print(f"structural differences: {len(structural)}")
    print(f"passed flags flipped: {passed_flips(structural)}")
    for line in structural:
        print("  " + line)
    print(f"float fields that moved: {len(moved)} (largest change / max(1, |x|))")
    for path, (change, where) in sorted(moved.items()):
        print(f"  {path}: {change:.2e} ({where})")
    return 1 if structural else 0


if __name__ == "__main__":
    sys.exit(main())
