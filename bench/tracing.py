"""Per-layer spans recorded from outside the program.

The tracer replaces public functions of the ``nca`` modules with timing
wrappers, in every ``nca`` namespace that holds them: ``nca.cli`` and the
other modules import names directly, so patching only the defining module
would miss most calls.  Modules are reached through ``sys.modules`` because
in the package namespace some names (``nca.dirac``) are functions, not
modules.  Spans stay in memory; ``summarize`` turns them into self times
and call counts when the traced pass is over.  tracemalloc runs only inside
the calls whose peak is reported, and only while tracing.
"""
from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

# (defining module, attribute, layer metric stem)
SPANS = (
    ("nca.fileio", "parse_spec", "fileio.parse_spec"),
    ("nca.reporting", "dumps_canonical", "reporting.dumps_canonical"),
    ("nca.cdc", "is_cdc", "cdc.is_cdc"),
    ("nca.cdc", "network_cdc", "cdc.build"),
    ("nca.cdc", "commutator_cdc", "cdc.build"),
    ("nca.cdc", "spectral_triple_cdc", "cdc.build"),
    ("nca.cdc", "group_action_cdc", "cdc.build"),
    ("nca.cdc", "gamma_from_generator", "cdc.build"),
    ("nca.cdc", "amplify_cdc", "cdc.amplify_cdc"),
    ("nca.cdc", "ccn_check", "cdc.ccn_check"),
    ("nca.energy", "markov_check", "energy.markov_check"),
    ("nca.energy", "leibniz_check", "energy.leibniz_check"),
    ("nca.energy", "heat_map", "energy.heat_map"),
    ("nca.energy", "resolvent_check", "energy.resolvent_check"),
    ("nca.energy", "laplacian", "energy.laplacian"),
    ("nca.energy", "reality_checks", "energy.reality_checks"),
    ("nca.energy", "cdc_from_dirichlet_form", "energy.cdc_from_dirichlet_form"),
    ("nca.algebra", "functional_calculus", "algebra.functional_calculus"),
    ("nca.algebra", "amplify_superop", "algebra.amplify_superop"),
    ("nca.states", "energy_metric", "states.energy_metric"),
    ("nca.states", "dual_metric", "states.dual_metric"),
    ("nca.resistance", "metric_checks", "resistance.metric_checks"),
    ("nca.resistance", "all_pairs_resistance", "resistance.all_pairs_resistance"),
    ("nca.quotient", "split", "quotient.split"),
    ("nca.quotient", "quotient_checks", "quotient.quotient_checks"),
    ("nca.dirac", "dirac_seminorm", "dirac.dirac_seminorm"),
    ("nca.dirac", "star_graph_check", "dirac.star_graph_check"),
    ("nca.dirac", "build_bimodule", "dirac.build_bimodule"),
    ("nca.stddev", "extend", "stddev.extend"),
    ("nca.stddev", "stddev_laplacian", "stddev.stddev_laplacian"),
    ("nca.stddev", "independent_copies_cdc", "stddev.independent_copies_cdc"),
)
PEAK_SPANS = ("cdc.is_cdc", "dirac.build_bimodule")
# the CLI suites, reported as inclusive time of each runner in cli._RUNNERS
SUITES = ("check-cdc", "laplacian", "heat", "metric", "resistance", "quotient",
          "dirac", "stddev")


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = Counter()
        self.peaks_mib = defaultdict(float)
        self._stack = []
        self._peak_frames = []  # [traced bytes at entry, highest peak of children]
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _span(self, name, fn, peak):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            if peak:
                self._peak_enter()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if peak:
                    self._peak_exit(name)
                self._stack.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end

        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _peak_enter(self):
        if self._peak_frames:
            outer = self._peak_frames[-1]
            outer[1] = max(outer[1], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        else:
            tracemalloc.start()
        self._peak_frames.append([tracemalloc.get_traced_memory()[0], 0])

    def _peak_exit(self, name):
        base, child_peak = self._peak_frames.pop()
        peak = max(tracemalloc.get_traced_memory()[1], child_peak)
        self.peaks_mib[name] = max(self.peaks_mib[name], (peak - base) / 2**20)
        if self._peak_frames:
            outer = self._peak_frames[-1]
            outer[1] = max(outer[1], peak)
            tracemalloc.reset_peak()
        else:
            tracemalloc.stop()

    # -- installation --------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for modname, module in list(sys.modules.items()):
            if modname != "nca" and not modname.startswith("nca."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def __enter__(self):
        for modname, attr, name in SPANS:
            original = getattr(sys.modules[modname], attr)
            self._replace_everywhere(original, self._span(name, original, name in PEAK_SPANS))
        element = sys.modules["nca.algebra"].Element
        self._undo.append((element, "norm", element.norm))
        element.norm = self._counter("algebra.element_norm", element.norm)
        runners = sys.modules["nca.cli"]._RUNNERS
        self._saved_runners = dict(runners)
        for suite in SUITES:
            runners[suite] = self._span("cli.suite." + suite, runners[suite], False)
        return self

    def __exit__(self, *exc):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()
        sys.modules["nca.cli"]._RUNNERS.update(self._saved_runners)
        return False

    # -- summary -------------------------------------------------------------

    def summarize(self) -> dict:
        """Per span name: calls, total (inclusive) seconds and self seconds,
        which are the span minus the wrapped spans directly inside it."""
        inner = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, _) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner[idx]
        for name, count in self.counts.items():
            table[name]["calls"] += count
        return dict(table)
