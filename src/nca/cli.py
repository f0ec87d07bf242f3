"""Command-line driver: declarative problem specs in, deterministic
verification reports out.

Exit codes: 0 when every check passes, 1 when a mathematical property is
violated (witnesses in the report), 2 for input or schema errors.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import cached_property
from itertools import combinations

import numpy as np

from . import __version__
from .algebra import encode_complex_matrix, encode_element, random_self_adjoint_rows
from .cdc import ccn_check, is_cdc, lindblad_generator
from .dirac import DiracOperator, build_bimodule, dirac_seminorms, star_graph_check
from .energy import (
    EnergyForm,
    _seminorms,
    cdc_from_dirichlet_form,
    connectedness,
    energy_form,
    energy_form_of_laplacian,
    gamma_delta,
    heat_map,
    heat_semigroup,
    laplacian,
    leibniz_check,
    markov_check,
    reality_checks,
    resolvent_check,
)
from .errors import DisconnectedError, InputError, PropertyViolationError
from .fileio import ProblemSpec, parse_spec, read_spec
from .quotient import quotient_checks, split
from .reporting import CheckResult, dumps_canonical, judge, judge_spectrum
from .resistance import markov_violation_witness, metric_checks
from .states import dual_metric, energy_metric
from .stddev import extend, independent_copies_cdc, stddev_laplacian, stddev_seminorms

DISCONNECTED = "disconnected"


class _Problem:
    """The objects of one spec that more than one suite reads.  The form
    comes built with the spec; each of the others is built by the first
    suite that asks for it, and a build that raises is not cached, so it
    raises again in every suite that reads it."""

    def __init__(self, spec: ProblemSpec):
        self.spec = spec

    @property
    def gamma(self):
        if self.spec.generator is None:
            raise InputError("this command needs a 'generator' field in the spec")
        return self.spec.generator["gamma"]

    @cached_property
    def cdc_report(self):
        return is_cdc(self.gamma, tol=self.spec.tolerances.positivity)

    @cached_property
    def energy(self):
        return energy_form(self.gamma, force=True)

    @cached_property
    def laplacian(self):
        return laplacian(self.energy, rank_tol=self.spec.tolerances.rank)


def _cdc_checks(problem: _Problem):
    spec, gamma, report = problem.spec, problem.gamma, problem.cdc_report
    tol = spec.tolerances.positivity
    reality = reality_checks(gamma, tol=spec.tolerances.equality)
    data = {
        "is_cdc": report.is_cdc,
        "tau_real": reality["tau_real"],
        "tau_balanced": reality["tau_balanced"],
        "scale": float(gamma.scale),
    }
    unit_tol = spec.tolerances.equality
    if spec.generator and spec.generator["kind"] == "matrix":
        data["ccn"] = ccn_check(spec.generator["superop"], seed=spec.seed, tol=tol,
                                unit_tol=unit_tol)
    elif spec.generator and spec.generator["kind"] == "lindblad":
        gen = lindblad_generator(spec.algebra, spec.generator["vs"])
        data["ccn"] = ccn_check(gen, seed=spec.seed, tol=tol, unit_tol=unit_tol)
    return report.checks, data


def _laplacian_checks(problem: _Problem):
    spec, e, lap = problem.spec, problem.energy, problem.laplacian
    tol = spec.tolerances.equality
    one = lap.algebra.identity()
    unit_res = lap.apply(one).norm()
    eigs = lap.eigenvalues
    checks = [
        judge("laplacian-annihilates-unit", unit_res, 1 + one.norm(), tol),
        judge_spectrum("laplacian-positive", eigs[0], eigs[-1], spec.tolerances.positivity),
    ]
    data = {
        "kernel_dim": int(lap.kernel_dim),
        "connected": connectedness(lap),
        "eigenvalues": eigs.tolist(),
    }
    if e.is_real(tol):
        try:
            cdc_from_dirichlet_form(e, lap, checks=False, tol=tol)
            checks.append(CheckResult("laplacian-form-reconstruction", True))
        except PropertyViolationError as exc:
            checks.append(CheckResult("laplacian-form-reconstruction", False,
                                      witness={"failures": [c.check for c in exc.checks]}))
    return checks, data


def _heat_checks(problem: _Problem):
    spec, e, lap = problem.spec, problem.energy, problem.laplacian
    tol = spec.tolerances.positivity
    symmetrized = not e.is_real(spec.tolerances.equality)
    generator = lap.natural() if symmetrized else lap
    checks = []
    maps = {}
    for t in spec.times:
        maps[t], flags = heat_map(generator, t, tol=tol)
        checks.extend(flags["checks"])
    if len(spec.times) >= 2:
        s, t = spec.times[-2], spec.times[-1]
        phi_st = heat_semigroup(generator, s + t)
        gap = float(np.abs(maps[s].compose(maps[t]).matrix - phi_st.matrix).max())
        checks.append(judge("heat-semigroup-law", gap, 1.0, spec.tolerances.equality))
    checks.extend(resolvent_check(generator, spec.times, seed=spec.seed, tol=tol))
    return checks, {"generator_symmetrized": symmetrized}


def _metric_checks(problem: _Problem):
    spec = problem.spec
    if len(spec.states) < 2:
        raise InputError("the metric command needs at least two states in 'states'")
    e, lap = problem.energy, problem.laplacian
    tol = spec.tolerances.equality
    n = len(spec.states)
    pairs = spec.pairs or combinations(range(n), 2)
    dist = [[0.0 if i == j else None for j in range(n)] for i in range(n)]
    worst = 0.0
    connected_all = True
    for i, j in pairs:
        try:
            d = energy_metric(lap, spec.states[i], spec.states[j], tol=tol)
            d_dual = dual_metric(e, spec.states[i], spec.states[j], tol=tol)
            worst = max(worst, abs(d - d_dual))
            dist[i][j] = dist[j][i] = float(d)
        except DisconnectedError:
            connected_all = False
            dist[i][j] = dist[j][i] = DISCONNECTED
    checks = [
        CheckResult("metric-connected", connected_all),
        judge("metric-dual-agreement", worst, 1.0, tol),
    ]
    return checks, {"distances": dist}


def _resistance_checks(problem: _Problem):
    spec = problem.spec
    if spec.generator is None or spec.generator["kind"] != "network":
        raise InputError("the resistance command needs a network generator")
    net = spec.generator["c"]
    if net.c.min() < 0:
        try:
            witness = markov_violation_witness(net, tol=spec.tolerances.positivity)
        except InputError as exc:  # an indefinite form has no clipping witness
            return [CheckResult("network-markov", False, witness={"reason": str(exc)})], {}
        return [CheckResult(
            "network-markov", witness is None,
            residual=0.0 if witness is None else witness.violation,
            witness=None if witness is None else {
                "edge": list(witness.edge),
                "r": witness.r,
                "f": encode_element(witness.f),
            },
        )], {}
    if not net.is_connected():
        check = CheckResult("network-connected", False,
                            witness={"reason": "network graph is disconnected"})
        return [check], {"resistance": DISCONNECTED}
    report = metric_checks(net, seed=spec.seed, tol=spec.tolerances.equality)
    data = {
        "resistance": report.resistance.tolist(),
        "energy": report.energy.tolist(),
        # absence of a witness is never a proof, only a grid statement
        "mixture_counterexample": report.mixture_counterexample or "not found at this resolution",
    }
    return report.checks, data


def _quotient_checks(problem: _Problem):
    spec = problem.spec
    if spec.projection is None:
        raise InputError("the quotient command needs a 'projection' field")
    qd = split(problem.laplacian, spec.projection, rank_tol=spec.tolerances.rank)
    checks = quotient_checks(qd, seed=spec.seed, tol=spec.tolerances.equality)
    return checks, {"schur_complement": encode_complex_matrix(qd.quotient_laplacian.matrix)}


def _dirac_checks(problem: _Problem):
    spec, gamma = problem.spec, problem.gamma
    bs = build_bimodule(gamma, pos_tol=spec.tolerances.positivity,
                        rank_tol=spec.tolerances.rank, report=problem.cdc_report)
    op = DiracOperator(bs)
    tol = spec.tolerances.equality
    samples = random_self_adjoint_rows(bs.algebra, np.random.default_rng(spec.seed), 10)
    value, from_form = dirac_seminorms(op, samples)
    worst = float(np.abs(value - from_form).max())
    checks = [
        judge(name, bs.residuals[key], 1.0, tol)
        for name, key in (("dirac-factorizes-laplacian", "laplacian_factorization"),
                          ("dirac-null-space-invariant", "null_space_invariance"),
                          ("dirac-left-action-star", "star_representation"))
    ]
    checks.append(judge("dirac-norm-formula", worst, 1.0, tol))
    data = {
        "dim_omega": int(bs.rank),
        "delta_factorization_residual": bs.residuals["laplacian_factorization"],
        "norm_formula_residual": worst,
    }
    net = spec.generator.get("c")  # the network of a network generator
    if net is not None and net.c.min() >= 0 and net.is_connected():
        star = star_graph_check(net, seed=spec.seed, tol=tol)
        data["star_graph"] = {
            "is_star": star["is_star"],
            "parallelogram_holds": star["parallelogram_holds"],
        }
        checks.append(CheckResult(
            "dirac-star-characterization",
            star["is_star"] == star["parallelogram_holds"],
            star["max_relative_residual"],
        ))
    return checks, data


def _stddev_checks(problem: _Problem):
    spec = problem.spec
    if spec.weight_element is None:
        raise InputError("the stddev command needs a 'weight_element' field")
    ea = extend(spec.algebra, spec.weight_element)
    tol = spec.tolerances.equality
    lap = stddev_laplacian(ea, tol=tol)
    gamma_ic = independent_copies_cdc(spec.algebra, spec.weight_element)
    closed = ea.closed_form
    lap_ic = laplacian(EnergyForm(spec.algebra, gamma_ic.tau_values))
    routes = {
        "schur_vs_closed": float(np.abs(lap.matrix - closed.matrix).max()),
        "schur_vs_copies": float(np.abs(lap.matrix - lap_ic.matrix).max()),
        "closed_vs_copies": float(np.abs(closed.matrix - lap_ic.matrix).max()),
    }
    gamma_quot = gamma_delta(lap)
    route_gap = max(
        float(np.abs(gamma_ic.gram - gamma_quot.gram).max()), *routes.values()
    )
    del gamma_ic, gamma_quot  # free the two (d, d, d) grams before the batteries
    e = energy_form_of_laplacian(lap)
    samples = random_self_adjoint_rows(spec.algebra, np.random.default_rng(spec.seed), 10)
    sem_gap = float(np.abs(stddev_seminorms(ea, samples) - _seminorms(e, samples)).max())
    checks = [
        judge("stddev-route-agreement", route_gap, 1.0, tol),
        judge("stddev-seminorm-identity", sem_gap, 1.0, tol),
        CheckResult("stddev-extension-connected", connectedness(ea.laplacian)),
    ]
    checks.extend(markov_check(lap, seed=spec.seed, tol=tol))
    checks.extend(leibniz_check(e, seed=spec.seed, tol=tol))
    return checks, {"extension_residuals": dict(ea.residuals), "route_residuals": routes}


_RUNNERS = {
    "check-cdc": _cdc_checks,
    "laplacian": _laplacian_checks,
    "heat": _heat_checks,
    "metric": _metric_checks,
    "resistance": _resistance_checks,
    "quotient": _quotient_checks,
    "dirac": _dirac_checks,
    "stddev": _stddev_checks,
}
COMMANDS = (*_RUNNERS, "all")


def _applicable(spec: ProblemSpec):
    cmds = []
    if spec.generator is not None:
        cmds.extend(["check-cdc", "laplacian", "heat", "dirac"])
        if len(spec.states) >= 2:
            cmds.append("metric")
        if spec.generator["kind"] == "network":
            cmds.append("resistance")
        if spec.projection is not None:
            cmds.append("quotient")
    if spec.weight_element is not None:
        cmds.append("stddev")
    if not cmds:
        raise InputError("spec contains no runnable suite (need at least a generator)")
    return cmds


def run_command(command: str, spec: ProblemSpec) -> dict:
    """Execute one verification suite (or every applicable one) and return
    the report as plain data."""
    if command not in COMMANDS:
        raise InputError(f"unknown command {command!r}")
    names = _applicable(spec) if command == "all" else [command]
    problem = _Problem(spec)
    checks = []
    data = {}
    for name in names:
        prefix = f"{name}:" if command == "all" else ""
        try:
            got, extra = _RUNNERS[name](problem)
        except DisconnectedError as exc:
            got = [CheckResult("metrically-connected", False, witness={"reason": str(exc)})]
            extra = {"distance": DISCONNECTED}
        except PropertyViolationError as exc:
            got = exc.checks or [
                CheckResult("precondition", False, witness={"reason": str(exc)})
            ]
            extra = {}
        checks.extend(replace(c, check=prefix + c.check) for c in got)
        if extra:
            data[name] = extra
    checks.sort(key=lambda c: c.check)
    if command != "all" and data:
        data = data[names[0]]
    passed = sum(1 for c in checks if c.passed)
    return {
        "command": command,
        "seed": spec.seed,
        "tolerances": spec.tolerances.to_dict(),
        "checks": [c.to_dict() for c in checks],
        "data": data,
        "summary": {"passed": passed, "failed": len(checks) - passed},
    }


def emit_report(report: dict, fmt: str = "human") -> str:
    """Render a report; json mode is canonical and byte-reproducible."""
    if fmt == "json":
        return dumps_canonical(report)
    lines = [
        f"command: {report['command']}   seed: {report['seed']}",
    ]
    for entry in report["checks"]:
        mark = "PASS" if entry["passed"] else "FAIL"
        line = f"{mark:4}  {entry['check']:44} residual {entry['residual']:.3e}"
        lines.append(line + (f"  bound {entry['bound']:.3e}" if "bound" in entry else ""))
        if not entry["passed"] and "witness" in entry:
            lines.append(f"      witness: {entry['witness']}")
    if report.get("data"):
        lines.append("data: " + dumps_canonical(report["data"]))
    s = report["summary"]
    lines.append(f"{s['passed']} passed, {s['failed']} failed")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nca",
        description="Verification suites for noncommutative resistance networks.",
    )
    parser.add_argument("--version", action="version", version=f"nca {__version__}")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("spec", help="path to a JSON problem spec (or inline JSON)")
    parser.add_argument("--json", action="store_true", help="emit the canonical JSON report")
    parser.add_argument("--seed", type=int, default=None, help="override the spec seed")
    parser.add_argument("--tol-pos", type=float, default=None, help="positivity tolerance")
    parser.add_argument("--tol-rank", type=float, default=None, help="rank cutoff tolerance")
    parser.add_argument("--tol-eq", type=float, default=None, help="equality tolerance")
    parser.add_argument("--t", default=None, help="comma-separated time grid, e.g. 0,0.1,1")
    parser.add_argument("--pairs", default=None,
                        help="state pairs for the metric command, e.g. 0:1,1:2")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the flags set spec fields, so the one validation pass checks them too
        raw = read_spec(args.spec)
        if args.seed is not None:
            raw["seed"] = args.seed
        tols = {"positivity": args.tol_pos, "rank": args.tol_rank, "equality": args.tol_eq}
        tols = {k: v for k, v in tols.items() if v is not None}
        if tols and isinstance(raw.setdefault("tolerances", {}), dict):
            raw["tolerances"].update(tols)
        if args.t is not None:
            try:
                raw["times"] = [float(x) for x in args.t.split(",") if x]
            except ValueError:
                raise InputError(f"--t: cannot parse {args.t!r} as a comma-separated list")
        if args.pairs is not None:
            try:
                raw["pairs"] = [
                    [int(a), int(b)]
                    for a, b in (p.split(":") for p in args.pairs.split(",") if p)
                ]
            except ValueError:
                raise InputError(f"--pairs: cannot parse {args.pairs!r}; expected i:j,k:l")
        report = run_command(args.command, parse_spec(raw))
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    print(emit_report(report, "json" if args.json else "human"))
    return 0 if report["summary"]["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
