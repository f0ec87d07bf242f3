"""Standard-deviation recovery: the scalar extension, its Schur quotient,
the closed form, and the independent-copies construction."""
import numpy as np
import pytest

import nca
from block_element import superop_from_function
from nca.algebra import random_element, random_self_adjoint_rows
from nca.energy import energy_form_of_laplacian
from nca.errors import InputError


def _lift(ea, a, alpha):
    """a (+) alpha in the extended algebra."""
    return ea.extended.from_canonical_coords(np.append(a.coords, alpha))


@pytest.fixture(scope="module")
def c2_uniform():
    alg = nca.build_algebra([1, 1], [0.5, 0.5])
    p = alg.element([[[1.0]], [[1.0]]])
    return alg, p, nca.extend(alg, p)


@pytest.fixture(scope="module")
def m2_normalized():
    alg = nca.build_algebra([2], [0.5])  # tau = tr/2
    p = alg.identity()
    return alg, p, nca.extend(alg, p)


def test_extend_validation(m2):
    # weight 1.0 on M2 means tau(1) = 2, so the identity is not admissible
    with pytest.raises(InputError):
        nca.extend(m2, m2.identity())
    with pytest.raises(InputError):
        nca.extend(m2, m2.basis_element(1) + m2.basis_element(2))  # not positive
    with pytest.raises(InputError):
        nca.extend(m2, 2.0 * m2.basis_element(0))  # not central


def test_extension_structure(c2_uniform):
    alg, p, ea = c2_uniform
    assert ea.extended.blocks == (1, 1, 1)
    assert ea.extended.trace_weights == (0.5, 0.5, 1.0)
    assert ea.residuals["pairing_identity"] < 1e-10
    assert ea.residuals["unit_annihilation"] < 1e-12
    one_ext = ea.extended.identity()
    assert ea.laplacian.apply(one_ext).norm() < 1e-12
    assert ea.laplacian.kernel_dim == 1  # connected extension


def test_extension_is_star_join(c2_uniform):
    # uniform two-point base: the extension is the three-point network in
    # which both points attach only to the new one
    _, _, ea = c2_uniform
    m = ea.laplacian.matrix
    # basis order (d1, d2, unit); weights (1/2, 1/2, 1)
    root = np.sqrt(0.5)
    expected = np.array(
        [[1.0, 0.0, -root], [0.0, 1.0, -root], [-root, -root, 1.0]]
    )
    assert np.abs(m - expected).max() < 1e-12


def test_extension_pairing_against_mu(c2_uniform):
    alg, p, ea = c2_uniform
    rng = np.random.default_rng(151)
    for _ in range(8):
        a = random_element(alg, rng)
        lifted = _lift(ea, a, 0.0)
        lhs = nca.tau_inner(lifted, ea.laplacian.apply(lifted))
        rhs = ea.mu(a.adjoint() * a)
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))


def test_extension_cdc_closed_form(c2_uniform):
    # 2 Gamma((a, alpha), (b, beta)) = (p (a-alpha)*(b-beta), mu((a-alpha)*(b-beta)))
    alg, p, ea = c2_uniform
    gamma = nca.gamma_delta(ea.laplacian)
    rng = np.random.default_rng(157)
    one = alg.identity()
    for _ in range(6):
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        alpha = complex(rng.standard_normal() + 1j * rng.standard_normal())
        beta = complex(rng.standard_normal() + 1j * rng.standard_normal())
        da = a - alpha * one
        db = b - beta * one
        got = gamma.value(_lift(ea, a, alpha), _lift(ea, b, beta))
        first = 0.5 * (p * da.adjoint() * db)
        second = 0.5 * ea.mu(da.adjoint() * db)
        expected = _lift(ea, first, second)
        assert got.distance(expected) < 1e-9 * (1 + expected.norm())


def test_stddev_laplacian_values(c2_uniform):
    alg, _, ea = c2_uniform
    lap = nca.stddev_laplacian(ea)
    assert lap.apply(alg.identity()).norm() < 1e-12
    a = alg.element([[[1.0]], [[0.0]]])
    got = [m[0, 0].real for m in lap.apply(a).data]
    assert got == pytest.approx([0.5, -0.5])


def test_stddev_seminorm_values(c2_uniform, m2_normalized):
    alg, _, ea = c2_uniform
    assert nca.stddev_seminorm(ea, alg.identity()) == 0.0
    a = alg.element([[[1.0]], [[0.0]]])
    assert nca.stddev_seminorm(ea, a) == pytest.approx(0.5)

    m2, _, ea2 = m2_normalized
    assert nca.stddev_seminorm(ea2, m2.basis_element(0)) == pytest.approx(0.5)


def test_three_routes_agree(c2_uniform, m2_normalized):
    for alg, p, ea in (c2_uniform, m2_normalized):
        lap_schur = nca.stddev_laplacian(ea)
        gamma_ic = nca.independent_copies_cdc(alg, p)
        lap_ic = nca.laplacian(nca.energy_form(gamma_ic))
        closed = superop_from_function(
            alg, lambda a: p * (a - complex(ea.mu(a)) * alg.identity())
        )
        assert np.abs(lap_schur.matrix - closed.matrix).max() < 1e-12
        assert np.abs(lap_schur.matrix - lap_ic.matrix).max() < 1e-12
        gamma_quot = nca.gamma_delta(lap_schur)
        assert np.abs(gamma_quot.gram - gamma_ic.gram).max() < 1e-12


@pytest.mark.parametrize("blocks, weights", [
    ([1, 1], [0.5, 0.5]), ([2], [0.5]), ([3, 2, 1], [1.0, 0.5, 2.0]), ([2, 2], [1.0, 3.0]),
    ([5], [1.0]), ([1] * 6, [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
])
def test_closed_form_matches_elementwise_rule(blocks, weights):
    # the closed form from left multiplication and one rank-one map, against
    # the rule a -> p (a - mu(a)) applied to each basis element
    alg = nca.build_algebra(blocks, weights)
    lams = np.random.default_rng(len(blocks)).uniform(0.5, 2.0, len(blocks))
    lams /= np.dot(lams * np.array(weights), blocks)  # tau(p) = 1
    p = alg.element([lam * np.eye(n) for lam, n in zip(lams, blocks)])
    ea = nca.extend(alg, p)
    rule = superop_from_function(alg, lambda a: p * (a - complex(ea.mu(a)) * alg.identity()))
    assert np.abs(ea.closed_form.matrix - rule.matrix).max() <= 1e-15


def test_variance_of_trace(m2_normalized):
    alg, p, ea = m2_normalized
    gamma = nca.independent_copies_cdc(alg, p)
    rng = np.random.default_rng(163)
    for _ in range(8):
        a = alg.from_canonical_coords(random_self_adjoint_rows(alg, rng, 1)[0])
        variance = ea.mu(a * a).real - ea.mu(a).real ** 2
        assert gamma.tau_values is not None
        e_val = nca.energy_form(gamma).value(a, a).real
        assert e_val == pytest.approx(variance, abs=1e-10)
        assert nca.stddev_seminorm(ea, a) == pytest.approx(np.sqrt(max(variance, 0.0)), abs=1e-10)


def test_stddev_form_markov_and_leibniz(c2_uniform, m2_normalized):
    for _, p, ea in (c2_uniform, m2_normalized):
        lap = nca.stddev_laplacian(ea)
        e = energy_form_of_laplacian(lap)
        for res in nca.markov_check(lap, seed=11, count=10):
            assert res.passed, (res.check, res.witness)
        for res in nca.leibniz_check(e, seed=11, count=10):
            assert res.passed, (res.check, res.witness)


def test_nonuniform_weight(c2_uniform):
    alg = nca.build_algebra([1, 1], [0.5, 0.5])
    p = alg.element([[[1.5]], [[0.5]]])  # tau(p) = 1, strictly positive
    ea = nca.extend(alg, p)
    lap = nca.stddev_laplacian(ea)
    gamma_ic = nca.independent_copies_cdc(alg, p)
    assert np.abs(nca.gamma_delta(lap).gram - gamma_ic.gram).max() < 1e-12
    a = alg.element([[[1.0]], [[0.0]]])
    mu_a = ea.mu(a).real
    assert mu_a == pytest.approx(0.75)
    expected = np.sqrt(ea.mu((a - mu_a * alg.identity()) * (a - mu_a * alg.identity())).real)
    assert nca.stddev_seminorm(ea, a) == pytest.approx(expected)
