"""Compare the benchmark of two nca checkouts in alternating pairs of runs.

    python3 tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W --pairs N --seconds S

Each root is a checkout that holds ``src/`` and ``bench/``, for example a
``git worktree`` or ``git archive`` of the parent commit.  Pair i runs
``bench/run.py --workload W --seed SEED+i --seconds S --trace 0`` in both
roots on the same seed.  The side that runs first alternates from pair to
pair, so a slow drift of the machine's speed falls on both sides alike.

For every end-to-end metric of ``BENCHMARK.json`` the script prints both
medians, their ratio, both sides' interquartile ranges, the number of pairs
the change won (ties count for neither side) and its verdicts:

- ``GAIN`` when the change won at least nine tenths of the complete pairs
  and its median is better than the parent's by more than the parent's IQR;
- ``UNRESOLVED`` when the parent's IQR, relative to its median, exceeds the
  metric's bound and not every run of the change beats every run of the
  parent, so the runs spread too widely to call the metric unchanged;
- ``WORSE`` when the change's median is worse than the parent's by more than
  the metric's bound, relative to the parent's median.

It then lists every run that reported ``correct: false``, ``failed > 0`` or
no result.  It reads ``bench/`` and ``BENCHMARK.json`` and writes nothing.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def run_once(root: Path, workload: str, seed: int, seconds: float):
    """The result object of one untraced ``bench/run.py`` run in ``root``, or
    None when the run printed no result."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    for root in (args.parent, args.change):
        if not (root / "bench" / "run.py").is_file() or not (root / "src" / "nca").is_dir():
            parser.error(f"{root} holds no bench/run.py and src/nca")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    sides = {"parent": args.parent, "change": args.change}
    results = {"parent": [], "change": []}
    problems = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.seconds)
            results[side].append(result)
            if result is None:
                problems.append(f"{side} seed {seed}: no result")
            elif not result["correct"] or result["failed"] > 0:
                problems.append(f"{side} seed {seed}: correct {result['correct']}, "
                                f"failed {result['failed']} of {result['attempted']}")

    complete = [k for k in range(args.pairs)
                if results["parent"][k] is not None and results["change"][k] is not None]
    print(f"{args.workload}: {len(complete)} complete pairs of {args.pairs}, "
          f"--seconds {args.seconds:g}, seeds {args.seed}-{args.seed + args.pairs - 1}")
    print(f"{'metric':14} {'parent':>10} {'change':>10} {'ratio':>7} {'parent IQR':>11} "
          f"{'change IQR':>11} {'won':>6}  verdicts")
    for metric in metrics if complete else []:
        name, bound = metric["name"], metric["bound"]
        # sign turns every metric into one where lower is better
        sign = 1.0 if metric["better"] == "lower" else -1.0
        parent = np.array([results["parent"][k]["metrics"][name]["value"] for k in complete])
        change = np.array([results["change"][k]["metrics"][name]["value"] for k in complete])
        p_med, c_med = float(np.median(parent)), float(np.median(change))
        p_iqr, c_iqr = (float(np.subtract(*np.percentile(x, [75, 25]))) for x in (parent, change))
        won = int(np.sum(sign * change < sign * parent))
        ratio = c_med / p_med if p_med else float("nan")
        verdicts = []
        if won >= 0.9 * len(complete) and sign * (p_med - c_med) > p_iqr:
            verdicts.append("GAIN")
        if (p_iqr > bound * abs(p_med)
                and not (sign * change).max() < (sign * parent).min()):
            verdicts.append("UNRESOLVED")
        if sign * (ratio - 1.0) > bound:
            verdicts.append("WORSE")
        print(f"{name:14} {p_med:10.4g} {c_med:10.4g} {ratio:7.3f} {p_iqr:11.3g} {c_iqr:11.3g} "
              f"{won:>3}/{len(complete):<2}  {' '.join(verdicts)}")
    print("problem runs:", "none" if not problems else "")
    for problem in problems:
        print("  " + problem)
    return 0


if __name__ == "__main__":
    sys.exit(main())
