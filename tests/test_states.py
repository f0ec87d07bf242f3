"""State-space metric: closed form, dual cross-check, and the Hilbert
embedding."""
import numpy as np
import pytest

import nca
from nca.algebra import random_positive_rows
from nca.energy import EnergyForm, energy_form_of_laplacian
from nca.errors import DisconnectedError, InputError

from conftest import K3_C, TWO_C
from generators import mixture


@pytest.fixture(scope="module")
def k3():
    alg = nca.build_algebra([1] * 3, [1.0] * 3)
    e = nca.energy_form(nca.network_cdc(alg, K3_C, scale=0.5))
    return alg, e, nca.laplacian(e)


def test_state_validation(m2):
    with pytest.raises(InputError):
        nca.State(m2.identity())  # trace 2
    rho = 0.5 * m2.identity()
    with pytest.raises(InputError):
        nca.State(m2.element([np.diag([1.5, -0.5])]))
    # a point is an integer: 1.0, 0.9 and True are not coerced
    points = nca.build_algebra([1] * 3, [1.0] * 3)
    for bad in (1.0, 0.9, True, 3, -1):
        with pytest.raises(InputError):
            nca.point_state(points, bad)
    assert nca.point_state(points, np.int64(1)).density.distance(points.basis_element(1)) == 0


def test_zero_distance_for_equal_states(k3):
    alg, e, lap = k3
    mu = nca.point_state(alg, 0)
    assert nca.energy_metric(lap, mu, mu) == pytest.approx(0.0)
    assert nca.dual_metric(e, mu, mu) == pytest.approx(0.0, abs=1e-9)


def test_k3_point_distance(k3):
    alg, e, lap = k3
    mu, nu = nca.point_state(alg, 0), nca.point_state(alg, 1)
    expected = np.sqrt(2.0 / 3.0)
    assert nca.energy_metric(lap, mu, nu) == pytest.approx(expected, abs=1e-10)
    assert nca.dual_metric(e, mu, nu) == pytest.approx(expected, abs=1e-9)


def test_two_point_distance_scaling():
    for c in (0.5, 1.0, 4.0):
        alg = nca.build_algebra([1, 1], [1.0, 1.0])
        e = nca.energy_form(nca.network_cdc(alg, c * TWO_C, scale=0.5))
        lap = nca.laplacian(e)
        mu, nu = nca.point_state(alg, 0), nca.point_state(alg, 1)
        assert nca.energy_metric(lap, mu, nu) == pytest.approx(1.0 / np.sqrt(c), abs=1e-10)


def test_dual_equals_closed_form_noncommutative(m2):
    gamma = nca.commutator_cdc([m2.basis_element(1), m2.basis_element(2)])
    e = nca.energy_form(gamma)
    lap = nca.laplacian(e)
    rng = np.random.default_rng(101)
    for _ in range(6):
        mu = nca.State(_random_density(m2, rng))
        nu = nca.State(_random_density(m2, rng))
        assert nca.energy_metric(lap, mu, nu) == pytest.approx(
            nca.dual_metric(e, mu, nu), abs=1e-9
        )


def _random_density(alg, rng):
    rho = alg.from_canonical_coords(random_positive_rows(alg, rng, 1)[0]) + 0.05 * alg.identity()
    return (1.0 / rho.trace().real) * rho


def test_metric_axioms_on_seeded_states(k3):
    alg, _, lap = k3
    rng = np.random.default_rng(103)
    states = [nca.State(_random_density(alg, rng)) for _ in range(5)]
    dist = np.array([[nca.energy_metric(lap, a, b) for b in states] for a in states])
    assert np.abs(dist - dist.T).max() < 1e-12
    for i in range(5):
        for j in range(5):
            for k in range(5):
                assert dist[i, k] <= dist[i, j] + dist[j, k] + 1e-9


def test_scaling_of_the_form(k3):
    alg, _, lap = k3
    t = 3.7
    scaled = nca.laplacian(
        EnergyForm(alg, t * energy_form_of_laplacian(lap).gram)
    )
    mu, nu = nca.point_state(alg, 0), nca.point_state(alg, 2)
    assert nca.energy_metric(scaled, mu, nu) == pytest.approx(
        nca.energy_metric(lap, mu, nu) / np.sqrt(t), abs=1e-10
    )


def test_embedding_isometry(k3):
    alg, _, lap = k3
    rng = np.random.default_rng(107)
    base = nca.point_state(alg, 0)
    emb = nca.StateEmbedding(lap, base)
    assert np.linalg.norm(emb.coords(base)) == pytest.approx(0.0)
    states = [nca.State(_random_density(alg, rng)) for _ in range(4)]
    for a in states:
        for b in states:
            direct = nca.energy_metric(lap, a, b)
            via_embedding = np.linalg.norm(emb.coords(a) - emb.coords(b))
            assert via_embedding == pytest.approx(direct, abs=1e-9)


def test_embedding_affine_midpoint(k3):
    alg, _, lap = k3
    base = nca.point_state(alg, 2)
    mu, nu = nca.point_state(alg, 0), nca.point_state(alg, 1)
    mid = mixture([mu, nu], [0.5, 0.5])
    emb = nca.StateEmbedding(lap, base)
    expected = 0.5 * (emb.coords(mu) + emb.coords(nu))
    assert np.abs(emb.coords(mid) - expected).max() < 1e-12


def test_disconnected_distance_raises():
    c = np.zeros((4, 4))
    c[0, 1] = c[1, 0] = 1.0
    c[2, 3] = c[3, 2] = 1.0
    alg = nca.build_algebra([1] * 4, [1.0] * 4)
    lap = nca.laplacian(nca.energy_form(nca.network_cdc(alg, c, scale=0.5)))
    mu, nu = nca.point_state(alg, 0), nca.point_state(alg, 2)
    with pytest.raises(DisconnectedError):
        nca.energy_metric(lap, mu, nu)
    with pytest.raises(DisconnectedError):
        nca.StateEmbedding(lap, nca.point_state(alg, 1)).coords(mu)
    # within one component the difference is in the range, so the distance
    # is still defined
    inside = nca.energy_metric(lap, mu, nca.point_state(alg, 1))
    assert inside == pytest.approx(1.0, abs=1e-10)
