"""Shared fixtures: the catalog of worked examples exercised across the
suites, and seeded generator families."""
import importlib.util
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

import nca
from nca.algebra import random_element
from nca.cdc import CdCForm, lindblad_generator
from nca.fileio import parse_spec
from nca.resistance import random_network
from generators import permutation_superop

K3_C = np.array([[0.0, 1, 1], [1, 0, 1], [1, 1, 0]])
TWO_C = np.array([[0.0, 1], [1, 0]])


@dataclass
class ExampleCdC:
    """One worked carre-du-champ, with its generator when a natural one
    exists."""

    name: str
    algebra: nca.Algebra
    gamma: CdCForm
    generator: Optional[nca.SuperOperator]
    tau_real: bool
    connected: bool


def _network_example(name, c, weights=None) -> ExampleCdC:
    size = c.shape[0]
    alg = nca.build_algebra([1] * size, weights or [1.0] * size)
    gamma = nca.network_cdc(alg, c, scale=0.5)
    lap_mat = np.diag(c.sum(axis=1)) - c
    gen = nca.SuperOperator(alg, lap_mat) if weights is None else None
    connected = nca.ResistanceNetwork(c).is_connected()
    return ExampleCdC(name, alg, gamma, gen, tau_real=True, connected=connected)


def build_catalog():
    examples = []
    examples.append(_network_example("k3-network", K3_C))
    examples.append(_network_example("2pt-network", TWO_C))

    m2 = nca.build_algebra([2], [1.0])
    e12, e21 = m2.basis_element(1), m2.basis_element(2)
    # the single-v form annihilates the commutant of v, so it is not
    # metrically connected; the pair is
    for name, vs, real, connected in [
        ("m2-lindblad-pair", [e12, e21], True, True),
        ("m2-lindblad-single", [e12], False, False),
    ]:
        gen = lindblad_generator(m2, vs)
        gamma = nca.commutator_cdc(vs)
        examples.append(ExampleCdC(name, m2, gamma, gen, real, connected=connected))

    c2 = nca.build_algebra([1, 1], [1.0, 1.0])
    swap = permutation_superop(c2, [1, 0])
    gamma = nca.group_action_cdc([swap], [1.0])
    lap = nca.laplacian(nca.energy_form(gamma))
    examples.append(ExampleCdC("c2-swap", c2, gamma, lap.superop, True, connected=True))

    spec_alg = nca.build_algebra([1, 1], [0.5, 0.5])
    d_op = np.array([[0.0, 1.0], [1.0, 0.0]])
    gamma = nca.spectral_triple_cdc(d_op, spec_alg)
    lap = nca.laplacian(nca.energy_form(gamma))
    examples.append(ExampleCdC("2pt-spectral", spec_alg, gamma, lap.superop, True, connected=True))

    m2c = nca.build_algebra([2, 1], [1.0, 2.0])
    v1 = m2c.element([np.array([[0.0, 1], [0, 0]]), np.zeros((1, 1))])
    vs = [v1, v1.adjoint()]
    gen = lindblad_generator(m2c, vs)
    gamma = nca.commutator_cdc(vs)
    examples.append(ExampleCdC("m2c-lindblad", m2c, gamma, gen, True, connected=False))

    return examples


def _bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("nca_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def bench_network_c(n, seed=7):
    """The conductances of the benchmark's ``network_case(default_rng(seed), n)``
    from ``bench/workloads.py``."""
    return _bench_workloads().network_case(np.random.default_rng(seed), n)["c"]


def bench_network_spec(n, seed=7):
    """The spec of the benchmark's ``network_case(default_rng(seed), n)``
    from ``bench/workloads.py``, as a dict."""
    return json.loads(_bench_workloads().network_case(np.random.default_rng(seed), n)["spec"])


def bench_lindblad_spec(n, seed=7):
    """The parsed spec of the benchmark's ``lindblad_case(default_rng(seed), n)``
    from ``bench/workloads.py``."""
    return parse_spec(_bench_workloads().lindblad_case(np.random.default_rng(seed), n)["spec"])


def bench_lindblad_gamma(n, seed=7):
    """The form of the benchmark's ``lindblad_case(default_rng(seed), n)``
    from ``bench/workloads.py``, built from its spec as the CLI builds it."""
    return bench_lindblad_spec(n, seed).generator["gamma"]


@pytest.fixture(scope="session")
def catalog():
    return build_catalog()


@pytest.fixture(scope="session")
def m2():
    return nca.build_algebra([2], [1.0])


@pytest.fixture(scope="session")
def k3_net():
    return nca.ResistanceNetwork(K3_C)


def seeded_generators(count=20):
    """A mix of network, Lindblad-sum, group-action, and generic generators
    with N(1) = 0, some failing conditional complete negativity."""
    out = []
    rng = np.random.default_rng(2024)
    # nonnegative networks
    for size in (3, 4, 5, 3, 4, 5, 3):
        net = random_network(size, rng)
        alg = net.algebra
        out.append(("network", net.laplacian.superop))
    # networks with one negative conductance
    for size in (3, 4, 5):
        net = random_network(size, rng)
        c = net.c.copy()
        c[0, 1] = c[1, 0] = -0.05
        lap = np.diag(c.sum(axis=1)) - c
        out.append(("negative-network", nca.SuperOperator(net.algebra, lap)))
    # Lindblad sums
    m2 = nca.build_algebra([2], [1.0])
    m2c = nca.build_algebra([2, 1], [1.0, 1.0])
    for alg in (m2, m2, m2c, m2c, m2):
        vs = [random_element(alg, rng) for _ in range(2)]
        out.append(("lindblad", lindblad_generator(alg, vs)))
    # group actions (cyclic shifts)
    for size in (3, 4, 5):
        alg = nca.build_algebra([1] * size, [1.0] * size)
        shift = permutation_superop(alg, [(x + 1) % size for x in range(size)])
        gamma = nca.group_action_cdc([shift], [float(rng.uniform(0.5, 1.5))])
        out.append(("group", nca.laplacian(nca.energy_form(gamma)).superop))
    # generic maps with N(1) = 0, no other structure
    for _ in range(2):
        alg = m2
        mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        one = alg.to_coords(alg.identity())
        mat = mat - np.outer(mat @ one, one.conj()) / (one.conj() @ one)
        out.append(("generic", nca.SuperOperator(alg, mat)))
    assert len(out) == count
    return out
