"""Every target of the benchmark's per-layer tracer, and every library name
that the harness calls directly, still resolves, so that renaming or
deleting one fails here and not only in a benchmark run."""
import importlib
import importlib.util
import os
import sys

import nca
import nca.cli

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")


# the names that bench/run.py calls in run_forms, run_cli and Run.setup
HARNESS_CALLS = (
    ("nca.algebra", "Algebra"),
    ("nca.cdc", "network_cdc"),
    ("nca.cdc", "amplify_cdc"),
    ("nca.cdc", "commutator_cdc"),
    ("nca.cdc", "is_cdc"),
    ("nca.energy", "reality_checks"),
    ("nca.energy", "energy_form"),
    ("nca.energy", "laplacian"),
    ("nca.energy", "connectedness"),
    ("nca.cli", "main"),
    ("nca.fileio", "parse_spec"),
)


def _tracing():
    spec = importlib.util.spec_from_file_location("nca_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = _tracing()
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracing.SPANS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []
    assert callable(getattr(nca.algebra.Element, "norm", None))
    assert [s for s in tracing.SUITES if s not in nca.cli._RUNNERS] == []


def test_tracer_installs_and_restores():
    tracing = _tracing()
    before = {(mod, attr): getattr(sys.modules[mod], attr) for mod, attr, _ in tracing.SPANS}
    runners = dict(nca.cli._RUNNERS)
    with tracing.Tracer() as tracer:
        nca.algebra.build_algebra([2], [1.0]).identity().norm()
    assert tracer.counts["algebra.element_norm"] == 1
    assert all(getattr(sys.modules[mod], attr) is fn for (mod, attr), fn in before.items())
    assert nca.cli._RUNNERS == runners


def test_every_name_the_harness_calls_resolves():
    missing = [f"{mod}.{attr}" for mod, attr in HARNESS_CALLS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []
    assert callable(getattr(nca.algebra.Algebra, "element", None))
