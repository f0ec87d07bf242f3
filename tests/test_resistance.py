"""Resistance networks: Laplacians, potentials, resistance distance, the
maximum principle, and the Markov-violation witness."""
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

import nca
from nca.energy import Laplacian
from nca.errors import DisconnectedError, InputError
from nca.resistance import is_star, network_energy_form, random_network, random_star_network

from conftest import K3_C, bench_network_c
from generators import mixture


def test_network_validation():
    with pytest.raises(InputError):
        nca.ResistanceNetwork(np.array([[0.0, -1], [-1, 0]]))
    with pytest.raises(InputError):
        nca.ResistanceNetwork(np.array([[1.0, 1], [1, 0]]))
    # an asymmetric matrix is rejected, not symmetrized
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InputError, match="symmetric"):
            nca.ResistanceNetwork(np.array([[0.0, 2], [0, 0]]))
    assert not caught
    # a NaN or infinite conductance is rejected before the symmetry test
    pair = nca.build_algebra([1, 1], [1.0, 1.0])
    for bad in (np.nan, np.inf, -np.inf):
        for c in (np.array([[0.0, bad], [bad, 0]]), np.array([[0.0, bad], [1, 0]])):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(InputError, match="finite"):
                    nca.ResistanceNetwork(c)
            assert not caught
            with pytest.raises(InputError, match="finite"):
                nca.network_cdc(pair, c)


def test_laplacian_values(k3_net):
    lap = k3_net.laplacian
    assert np.abs(lap.matrix - np.array([[2.0, -1, -1], [-1, 2, -1], [-1, -1, 2]])).max() == 0
    assert lap.apply(k3_net.algebra.identity()).norm() == 0

    single = nca.ResistanceNetwork(np.array([[0.0, 2.5], [2.5, 0]]))
    assert np.abs(single.laplacian.matrix - 2.5 * np.array([[1.0, -1], [-1, 1]])).max() == 0


def test_laplacian_agrees_with_form_route(k3_net):
    via_form = nca.laplacian(network_energy_form(k3_net))
    assert np.abs(via_form.matrix - k3_net.laplacian.matrix).max() < 1e-14


def test_potential_k3(k3_net):
    h = k3_net.values(nca.potential(k3_net, 0, 1)).real
    assert np.abs(h - np.array([1 / 3, -1 / 3, 0.0])).max() < 1e-12
    anti = k3_net.values(nca.potential(k3_net, 1, 0)).real
    assert np.abs(anti + h).max() < 1e-12


def test_potential_two_node():
    c = 2.0
    net = nca.ResistanceNetwork(c * np.array([[0.0, 1], [1, 0]]))
    h = net.values(nca.potential(net, 0, 1)).real
    assert np.abs(h - np.array([1 / (2 * c), -1 / (2 * c)])).max() < 1e-12


def test_potential_harmonicity_and_bounds():
    rng = np.random.default_rng(109)
    net = random_network(6, rng)
    lap = net.laplacian.matrix
    for p, q in [(0, 3), (2, 5)]:
        h = net.values(nca.potential(net, p, q)).real
        image = lap @ h
        expected = np.zeros(6)
        expected[p], expected[q] = 1.0, -1.0
        assert np.abs(image - expected).max() < 1e-10
        # extremes sit at the source and sink (ties allowed for leaves
        # hanging off them)
        assert h[p] >= h.max() - 1e-12 and h[q] <= h.min() + 1e-12


def test_potential_errors(k3_net):
    # a node is an integer in range: floats and bools are rejected, numpy
    # integers name nodes
    for p, q in [(1, 1), (0, 1.0), (0.5, 2), (True, 2), (0, np.float64(2))]:
        with pytest.raises(InputError):
            nca.potential(k3_net, p, q)
    assert np.array_equal(nca.potential(k3_net, np.int64(0), np.int32(1)).coords,
                          nca.potential(k3_net, 0, 1).coords)
    disconnected = np.zeros((4, 4))
    disconnected[0, 1] = disconnected[1, 0] = 1.0
    disconnected[2, 3] = disconnected[3, 2] = 1.0
    net = nca.ResistanceNetwork(disconnected)
    with pytest.raises(DisconnectedError):
        nca.potential(net, 0, 2)


def test_resistance_values(k3_net):
    for p in range(3):
        for q in range(3):
            expected = 0.0 if p == q else 2.0 / 3.0
            assert nca.resistance_distance(k3_net, p, q) == pytest.approx(expected, abs=1e-12)
    two = nca.ResistanceNetwork(np.array([[0.0, 4.0], [4.0, 0]]))
    assert nca.resistance_distance(two, 0, 1) == pytest.approx(0.25, abs=1e-12)


def test_resistance_rejects_equal_nodes_out_of_range():
    two = nca.ResistanceNetwork(np.array([[0.0, 4.0], [4.0, 0]]))
    for p in (2, 5, -1, -2, 0.5, 1.0, True):
        with pytest.raises(InputError):
            nca.resistance_distance(two, p, p)
    with pytest.raises(InputError):
        nca.resistance_distance(two, 0, 1.0)
    assert nca.resistance_distance(two, 1, 1) == 0.0
    assert nca.resistance_distance(two, np.int64(1), np.int64(1)) == 0.0


def test_resistance_matches_pseudoinverse_oracle():
    rng = np.random.default_rng(113)
    for _ in range(5):
        net = random_network(int(rng.integers(3, 8)), rng)
        pinv = np.linalg.pinv(net.laplacian.matrix)
        for p in range(net.size):
            for q in range(net.size):
                oracle = pinv[p, p] + pinv[q, q] - 2 * pinv[p, q]
                assert nca.resistance_distance(net, p, q) == pytest.approx(oracle, abs=1e-10)


def test_series_path_equality_edge_case():
    path = np.zeros((3, 3))
    path[0, 1] = path[1, 0] = 1.0
    path[1, 2] = path[2, 1] = 1.0
    net = nca.ResistanceNetwork(path)
    assert nca.resistance_distance(net, 0, 2) == pytest.approx(2.0, abs=1e-12)
    triangle, square, _ = nca.metric_checks(net, seed=0).checks
    assert triangle.passed and square.passed


def test_metric_checks_k3(k3_net):
    report = nca.metric_checks(k3_net, seed=0)
    assert [c.check for c in report.checks if c.passed] == [
        "resistance-triangle", "resistance-square-relation", "resistance-acute-angles"]
    assert report.mixture_counterexample is not None
    assert report.mixture_counterexample["violation"] > 1e-6


def test_mixture_witness_is_tie_stable(k3_net, monkeypatch):
    # K3's mixtures violate the squared triangle inequality by the same
    # amount on several triples, up to rounding; the Laplacian's eigenvectors
    # taken in real arithmetic round differently from the complex ones
    want = nca.metric_checks(k3_net, seed=0).mixture_counterexample
    monkeypatch.setattr(Laplacian, "eigensystem",
                        property(lambda lap: np.linalg.eigh(lap.matrix.real)))
    got = nca.metric_checks(k3_net, seed=0).mixture_counterexample
    assert {k: got[k] for k in ("nodes", "weights")} == {k: want[k] for k in ("nodes", "weights")}
    assert got["violation"] == pytest.approx(want["violation"], rel=1e-12)


def test_all_pairs_resistance_matches_each_pair():
    net = random_network(9, np.random.default_rng(90))
    rho = nca.all_pairs_resistance(net)
    for p, q in itertools.combinations(range(9), 2):
        single = nca.resistance_distance(net, p, q)
        assert abs(rho[p, q] - single) <= 1e-12 * single
        assert rho[q, p] == rho[p, q]
    assert np.all(np.diag(rho) == 0)
    split = np.zeros((4, 4))
    split[0, 1] = split[1, 0] = split[2, 3] = split[3, 2] = 1.0
    with pytest.raises(DisconnectedError):
        nca.all_pairs_resistance(nca.ResistanceNetwork(split))


def _metric_checks_pairwise(net, seed, margin, step=0.1):
    """The metric checks state pair by state pair through energy_metric."""
    n = net.size
    lap = net.laplacian
    rho = nca.all_pairs_resistance(net)
    points = [nca.point_state(net.algebra, x) for x in range(n)]
    energy = np.array([[nca.energy_metric(lap, points[p], points[q]) for q in range(n)]
                       for p in range(n)])
    square = max(abs(energy[p, q] ** 2 - rho[p, q]) for p in range(n) for q in range(p + 1, n))
    emb = nca.StateEmbedding(lap, points[0])
    coords = [emb.coords(s) for s in points]
    angle = max(
        [0.0] + [-np.vdot(coords[x] - coords[y], coords[z] - coords[y]).real
                 for x in range(n) for y in range(n) for z in range(n)
                 if len({x, y, z}) == 3]
    )
    rng = np.random.default_rng(seed)
    triples = list(itertools.combinations(range(n), 3))
    chosen = rng.choice(len(triples), size=4, replace=False)
    weights = nca.resistance._mixture_grid(step)
    for nodes in [triples[int(k)] for k in chosen]:
        grid = [mixture([points[x] for x in nodes], w) for w in weights]
        dist2 = np.array([[nca.energy_metric(lap, a, b) ** 2 if a is not b else 0.0
                           for b in grid] for a in grid])
        viol = dist2[:, None, :] - dist2[:, :, None] - dist2[None, :, :]
        if viol.max() > margin:
            i, j, k = np.unravel_index(viol.argmax(), viol.shape)
            witness = {"nodes": list(nodes),
                       "weights": [list(weights[i]), list(weights[j]), list(weights[k])],
                       "violation": float(viol.max())}
            return energy, square, angle, witness
    return energy, square, angle, None


def test_metric_checks_match_pairwise_energy_metric():
    net = random_network(6, np.random.default_rng(6))
    first = nca.metric_checks(net, seed=6).mixture_counterexample["violation"]
    # the default margin stops at the first triple, the first triple's own
    # violation moves the search on, and a large margin finds nothing
    for margin in (1e-6, first, 10.0):
        report = nca.metric_checks(net, seed=6, mixture_margin=margin)
        energy, square, angle, witness = _metric_checks_pairwise(net, 6, margin)
        assert np.abs(report.energy - energy).max() < 1e-12
        _, square_check, angle_check = report.checks
        assert abs(square_check.residual - square) < 1e-12
        assert abs(angle_check.residual - angle) < 1e-12
        got = report.mixture_counterexample
        if witness is None:
            assert got is None
        else:
            assert {k: got[k] for k in ("nodes", "weights")} == {
                k: witness[k] for k in ("nodes", "weights")}
            assert abs(got["violation"] - witness["violation"]) < 1e-12


@pytest.mark.parametrize("n, bound_mib", [(16, 1.0), (24, 1.5)])
def test_metric_checks_memory_stays_bounded(n, bound_mib):
    # the seed-7 network_case of the benchmark; one (66, 66, 66) float table
    # of the mixed-state grid is 2.2 MiB, and broadcasting it puts the peak
    # at 4.6 MiB for N=16 and 5.0 MiB for N=24
    net = nca.ResistanceNetwork(bench_network_c(n))
    tracemalloc.start()
    try:
        nca.metric_checks(net, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2 ** 20


def test_kernel_matches_graph_connectivity():
    rng = np.random.default_rng(127)
    for _ in range(5):
        net = random_network(5, rng, ensure_connected=False)
        lap = net.laplacian
        comps = _component_count(net)
        assert lap.kernel_dim == comps
        assert nca.connectedness(lap) == (comps == 1)


def _component_count(net):
    seen = set()
    count = 0
    for start in range(net.size):
        if start in seen:
            continue
        count += 1
        stack = [start]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(int(y) for y in np.nonzero(net.c[x] != 0)[0])
    return count


def test_maximum_principle(k3_net):
    constant = k3_net.function([2.0, 2.0, 2.0])
    report = nca.maximum_principle_check(k3_net, constant, [0, 1])
    assert report["passed"]

    h = nca.potential(k3_net, 0, 1)
    report = nca.maximum_principle_check(k3_net, h, [2])
    assert report["passed"]
    assert report["max_node"] == 0 and report["min_node"] == 1

    bumpy = k3_net.function([1.0, 0.0, 0.0])
    report = nca.maximum_principle_check(k3_net, bumpy, [0])
    assert not report["passed"] and report["precondition_failures"]


@pytest.mark.parametrize("region, outside", [([7], [7]), ([-2], [-2]), ([0, 3], [3]),
                                             ([1.5], [1.5]), ([0, 2.0], [2.0]), ([True], [True])])
def test_maximum_principle_reports_region_nodes_out_of_range(k3_net, region, outside):
    constant = k3_net.function([2.0, 2.0, 2.0])
    report = nca.maximum_principle_check(k3_net, constant, region)
    assert not report["passed"] and report["components_checked"] == 0
    assert report["precondition_failures"] == [
        f"region nodes {outside} are not nodes of the network"]


def test_markov_violation_witness():
    c = np.array([[0.0, -0.1, 1.0], [-0.1, 0.0, 1.0], [1.0, 1.0, 0.0]])
    net = nca.ResistanceNetwork(c, allow_negative=True)
    w = nca.markov_violation_witness(net)
    assert w.edge == (0, 1)
    assert w.r == pytest.approx(0.1 / 0.9)
    assert w.violation == pytest.approx(0.1 ** 2 / 0.9)
    # quadratic sanity: E(f,f) = E(dx,dx) + 2 r c_xy + r^2 E(dy,dy)
    e = network_energy_form(net)
    f = w.f
    expected = 2 * w.r * c[0, 1] + w.r ** 2 * c[1].sum()
    dx = net.function([1.0, 0, 0])
    assert e.value(f, f).real - e.value(dx, dx).real == pytest.approx(expected, abs=1e-12)

    assert nca.markov_violation_witness(nca.ResistanceNetwork(K3_C)) is None

    very_negative = np.array([[0.0, -5.0], [-5.0, 0.0]])
    with pytest.raises(InputError):
        nca.markov_violation_witness(nca.ResistanceNetwork(very_negative, allow_negative=True))


def test_star_detection():
    rng = np.random.default_rng(131)
    assert is_star(random_star_network(5, rng))
    assert not is_star(nca.ResistanceNetwork(K3_C))
    assert is_star(nca.ResistanceNetwork(np.array([[0.0, 1], [1, 0]])))
