"""Benchmark harness for nca.

    python3 bench/run.py --workload network-suite --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the harness imports ``nca`` from
``src/`` of that checkout and exits with code 2 when it is not there.  One
run is one workload in this process: set up (import, seeded inputs, spec
parsing, a warm-up operation), then whole rounds over the workload's
operations until ``--seconds`` have passed (at least one round).
Every operation's output is checked against an independent computation in
``workloads.py``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of one traced pass with
``--trace 1``.  ``--out FILE`` also writes a results file with the machine,
library versions, raw samples and, when tracing, the span table.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("network-suite", "matrix-suite", "large-forms")
BASE_REPEATS = 3  # executions of the smallest operation per round

SUITE_METRICS = ("check-cdc", "laplacian", "heat", "metric", "resistance",
                 "quotient", "dirac", "stddev")
SELF_TIME_METRICS = (
    "fileio.parse_spec", "reporting.dumps_canonical",
    "cdc.is_cdc", "cdc.build", "cdc.amplify_cdc", "cdc.ccn_check",
    "energy.markov_check", "energy.leibniz_check", "energy.heat_map",
    "energy.resolvent_check", "energy.laplacian", "energy.reality_checks",
    "energy.cdc_from_dirichlet_form",
    "algebra.functional_calculus", "algebra.amplify_superop",
    "states.energy_metric", "states.dual_metric",
    "resistance.metric_checks", "resistance.all_pairs_resistance",
    "quotient.split", "quotient.quotient_checks",
    "dirac.dirac_seminorm", "dirac.star_graph_check", "dirac.build_bimodule",
    "stddev.extend", "stddev.stddev_laplacian", "stddev.independent_copies_cdc",
)
CALL_METRICS = (
    "cdc.is_cdc", "cdc.build", "energy.markov_check", "algebra.functional_calculus",
    "algebra.element_norm", "states.energy_metric", "dirac.dirac_seminorm",
    "dirac.build_bimodule",
)
PEAK_METRICS = ("cdc.is_cdc", "dirac.build_bimodule")


# -- the workloads --------------------------------------------------------------


def make_cases(workload, rng, w, smallest=False):
    """The seeded operations of one workload, in the order a round runs them;
    with ``smallest``, only the lowest rung of each input family."""
    if workload == "network-suite":
        return [w.network_case(rng, n) for n in w.NETWORK_SIZES[: 1 if smallest else None]]
    if workload == "matrix-suite":
        triples = ((2, 1),) if smallest else ((3, 2, 1), (2, 2))
        return (
            [w.lindblad_case(rng, n) for n in w.LINDBLAD_SIZES[: 1 if smallest else None]]
            + [w.spectral_triple_case(rng, sizes) for sizes in triples]
            + [w.lindblad_blocks_case(rng)]
        )
    if smallest:
        return [w.network_form_case(rng, 6), w.amplified_form_case(rng, n=3),
                w.commutator_form_case(rng, n=3)]
    return [
        w.network_form_case(rng, 20),
        w.network_form_case(rng, 24),
        w.amplified_form_case(rng),
        w.commutator_form_case(rng),
    ]


def run_cli(case):
    """`nca all <spec> --json` in this process; returns (exit code, report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sys.modules["nca.cli"].main(["all", case["spec"], "--json"])
    return code, buf.getvalue()


def run_forms(case):
    """Build the form, then is_cdc, reality_checks, energy_form, laplacian
    and connectedness.  is_cdc has just run, so energy_form is not asked to
    run it again."""
    cdc = sys.modules["nca.cdc"]
    energy = sys.modules["nca.energy"]
    algebra = sys.modules["nca.algebra"]
    if case["kind"] in ("network", "amplified"):
        n = case["c"].shape[0]
        alg = algebra.Algebra((1,) * n, (1.0,) * n)
        gamma = cdc.network_cdc(alg, case["c"])
        if case["kind"] == "amplified":
            gamma = cdc.amplify_cdc(gamma, case["order"])
    else:
        alg = algebra.Algebra(tuple(case["sizes"]), (1.0,) * len(case["sizes"]))
        gamma = cdc.commutator_cdc([alg.element(v) for v in case["vs"]])
    report = cdc.is_cdc(gamma)
    energy.reality_checks(gamma)
    lap = energy.laplacian(energy.energy_form(gamma, force=True))
    return {"is_cdc": report.is_cdc, "connected": energy.connectedness(lap),
            "laplacian": lap.matrix}


def check(workload, w, case, output) -> list:
    if workload == "large-forms":
        return w.check_form_result(case, output)
    code, text = output
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return [f"exit code {code}, no JSON report"]
    if workload == "network-suite":
        return w.check_network_report(case, code, report)
    return w.check_matrix_report(case, code, report)


# -- measurement ----------------------------------------------------------------


class Run:
    """One workload in this process: set-up, timed rounds and their checks."""

    def __init__(self, workload, seed, smallest=False):
        self.workload = workload
        self.seed = seed
        self.smallest = smallest
        self.attempted = 0
        self.failed = 0
        self.problems = []  # wrong outputs of operations that did not fail
        self.errors = []  # operations that raised

    def setup(self):
        """Import nca, then prepare the inputs once."""
        start = time.perf_counter()
        import numpy as np

        sys.path.insert(0, SRC)
        import nca
        import nca.cli

        if os.path.dirname(os.path.abspath(nca.__file__)) != os.path.join(SRC, "nca"):
            raise SystemExit(f"nca was imported from {nca.__file__}, not from {SRC}")
        import workloads as w

        self.np, self.w = np, w
        self.import_s = time.perf_counter() - start
        self.operate = run_forms if self.workload == "large-forms" else run_cli
        self.setup_samples = []
        self.prepare()

    def prepare(self):
        """Generate the seeded inputs, parse every spec, and warm up on the
        smallest operation; the same inputs every time."""
        start = time.perf_counter()
        cases = make_cases(self.workload, self.np.random.default_rng(self.seed), self.w,
                           self.smallest)
        for case in cases:
            if "spec" in case:
                sys.modules["nca.fileio"].parse_spec(case["spec"])
        sizes = [case["size"] for case in cases]
        self.top = sizes.index(max(sizes))
        self.base = sizes.index(min(sizes))
        self.operate(cases[self.base])
        self.cases = cases
        self.setup_samples.append(time.perf_counter() - start)

    def execute(self, idx):
        """Run one operation; returns its seconds, or None when it raised."""
        case = self.cases[idx]
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = self.operate(case)
        except Exception as exc:  # counted as a failed operation, run continues
            self.failed += 1
            self.errors.append(f"{case['name']}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        self.problems.extend(
            f"{case['name']}: {p}" for p in check(self.workload, self.w, case, output)
        )
        return elapsed

    def round(self, extra_base=True):
        """One pass over every operation, then the extra executions of the
        smallest one.  Returns (pass seconds, per-operation seconds, extra
        base seconds)."""
        times = []
        for idx in range(len(self.cases)):
            times.append(self.execute(idx))
        extra = [self.execute(self.base) for _ in range(BASE_REPEATS - 1)] if extra_base else []
        if any(t is None for t in times):
            return None, times, extra
        return sum(times), times, extra


def mean_of_timed(values):
    """The mean over the executions that did not raise.

    The host's speed drifts by up to 1.5x over tens of seconds, so a median
    picks whichever phase most of a run fell into; the mean weighs every
    second of the run alike and spreads about half as much from run to run.
    """
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else float("nan")


def end_to_end(run, seconds):
    """Rounds until ``seconds`` have passed.  The inputs are prepared again
    after each round, so the set-up repeats, like the rounds, are spread
    over the whole run."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run.round())
        run.prepare()
    walls = [r[0] for r in rounds]
    tops = [r[1][run.top] for r in rounds]
    bases = [r[1][run.base] for r in rounds] + [t for r in rounds for t in r[2]]
    metrics = {
        "setup_s": (run.import_s + statistics.fmean(run.setup_samples), "s"),
        "wall_s": (mean_of_timed(walls), "s"),
        "top_op_s": (mean_of_timed(tops), "s"),
        "base_op_s": (mean_of_timed(bases), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    samples = {"rounds": len(rounds), "wall_s": walls, "top_op_s": tops,
               "base_op_s": bases, "setup_repeats_s": run.setup_samples,
               "import_s": run.import_s}
    return metrics, samples


def per_layer(run):
    """One untraced pass, then one traced pass; the per-layer metrics come
    from the traced one."""
    from tracing import Tracer

    untraced, _, _ = run.round(extra_base=False)
    tracer = Tracer()
    with tracer:
        traced, _, _ = run.round(extra_base=False)
    table = tracer.summarize()

    def row(name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    metrics = {}
    for suite in SUITE_METRICS:
        metrics[f"cli.suite.{suite}_s"] = (row("cli.suite." + suite)["total_s"], "s")
    for name in SELF_TIME_METRICS:
        metrics[f"{name}_s"] = (row(name)["self_s"], "s")
    for name in CALL_METRICS:
        metrics[f"{name}_calls"] = (row(name)["calls"], "count")
    for name in PEAK_METRICS:
        metrics[f"{name}_peak_mib"] = (tracer.peaks_mib.get(name, 0.0), "MiB")
    overhead = traced - untraced if traced is not None and untraced is not None else float("nan")
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, {"untraced_wall_s": untraced, "traced_wall_s": traced, "spans": table}


def environment(np, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write a results file here")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nca", "__init__.py")):
        print(f"no nca sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True

    run = Run(args.workload, args.seed)
    run.setup()
    if args.trace:
        metrics, extra = per_layer(run)
    else:
        metrics, extra = end_to_end(run, args.seconds)
    env = environment(run.np, args.seed)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for problem in (run.errors + run.problems)[:20]:
        print("problem:", problem, file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "environment": env, **result,
                       "samples": extra}, fh, indent=1, sort_keys=True)
    print("environment:", json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
