"""Carre-du-champ builders, axiomatic checks, conditional complete
negativity, amplification, the commutative classification, and the dtype
of the gram: real forms keep float64 grams, and every check on them agrees
with the same check on a complex copy."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nca
from nca.algebra import (
    from_cells,
    left_multiplication,
    random_element,
    right_multiplication,
    to_cells,
)
from nca.cdc import CdCForm, lindblad_generator
from nca.energy import EnergyForm, Laplacian
from nca.errors import InputError
from nca.resistance import random_network
from generators import conjugation_superop, double_commutator_generator, permutation_superop

from block_element import superop_from_function
from conftest import K3_C, bench_network_c, seeded_generators


# -- gamma_from_generator ------------------------------------------------


def test_generator_zero_gives_zero_form(m2):
    gamma = nca.gamma_from_generator(nca.SuperOperator(m2, np.zeros((m2.dim, m2.dim))))
    assert gamma.magnitude() == 0


def test_generator_requires_unit_annihilation(m2):
    with pytest.raises(InputError):
        nca.gamma_from_generator(nca.SuperOperator(m2, np.eye(m2.dim)))


def test_network_generator_reproduces_network_form():
    alg = nca.build_algebra([1, 1, 1], [1.0] * 3)
    lap = nca.SuperOperator(alg, np.diag(K3_C.sum(axis=1)) - K3_C)
    via_generator = nca.gamma_from_generator(lap, scale=0.5)
    direct = nca.network_cdc(alg, K3_C, scale=0.5)
    assert np.abs(via_generator.gram - direct.gram).max() < 1e-12


def test_double_commutator_value(m2):
    e11 = m2.basis_element(0)
    n = double_commutator_generator(m2, [m2.basis_element(1)])
    gamma = nca.gamma_from_generator(n, scale=1.0)
    assert gamma.value(e11, e11).distance(m2.identity()) < 1e-12


def test_lindblad_generator_matches_commutator_form(m2):
    rng = np.random.default_rng(31)
    vs = [random_element(m2, rng) for _ in range(2)]
    via_generator = nca.gamma_from_generator(lindblad_generator(m2, vs), scale=1.0)
    direct = nca.commutator_cdc(vs)
    assert np.abs(via_generator.gram - direct.gram).max() < 1e-10 * (1 + direct.magnitude())


def test_generator_invariant_under_inner_derivations(m2):
    rng = np.random.default_rng(37)
    n = lindblad_generator(m2, [random_element(m2, rng)])
    w = random_element(m2, rng)
    derivation = left_multiplication(m2, w) - right_multiplication(m2, w)
    shifted = nca.gamma_from_generator(n + derivation)
    base = nca.gamma_from_generator(n)
    assert np.abs(shifted.gram - base.gram).max() < 1e-10 * (1 + base.magnitude())


def test_symmetry_iff_sharp_difference_is_derivation(m2):
    rng = np.random.default_rng(41)
    # a Lindblad sum: N - N# = [[v*, v], .] is an inner derivation -> symmetric
    n_good = lindblad_generator(m2, [random_element(m2, rng)])
    assert nca.is_cdc(nca.gamma_from_generator(n_good)).symmetric

    # a generic unit-annihilating map: the difference fails the Leibniz rule
    mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    one = m2.to_coords(m2.identity())
    mat -= np.outer(mat @ one, one.conj()) / (one.conj() @ one)
    n_bad = nca.SuperOperator(m2, mat)
    report = nca.is_cdc(nca.gamma_from_generator(n_bad))
    diff = n_bad - n_bad.sharp()
    leibniz_gap = 0.0
    for i in range(m2.dim):
        for j in range(m2.dim):
            a, b = m2.basis_element(i), m2.basis_element(j)
            lhs = diff.apply(a * b)
            rhs = diff.apply(a) * b + a * diff.apply(b)
            leibniz_gap = max(leibniz_gap, lhs.distance(rhs))
    assert not report.symmetric and leibniz_gap > 1e-6
    assert report.witness is not None and report.witness["kind"] == "symmetry"


# -- commutator and group-action forms ------------------------------------


def test_commutator_central_vanishes(m2):
    gamma = nca.commutator_cdc([m2.identity()])
    assert gamma.magnitude() == 0


def test_commutator_basic_value(m2):
    e11, e12, _, e22 = (m2.basis_element(i) for i in range(4))
    gamma = nca.commutator_cdc([e12])
    assert gamma.value(e11, e11).distance(e22) == 0
    assert gamma.unit_residual() == 0


def test_group_action_swap_value():
    c2 = nca.build_algebra([1, 1], [1.0, 1.0])
    swap = permutation_superop(c2, [1, 0])
    gamma = nca.group_action_cdc([swap], [1.0])
    f = c2.element([[[1.0]], [[0.0]]])
    vals = gamma.value(f, f)
    assert vals.data[0][0, 0] == pytest.approx(1.0)
    assert vals.data[1][0, 0] == pytest.approx(1.0)
    assert gamma.unit_residual() == 0


def test_group_action_trivial_action_gives_zero():
    c2 = nca.build_algebra([1, 1], [1.0, 1.0])
    ident = permutation_superop(c2, [0, 1])
    assert nca.group_action_cdc([ident], [3.0]).magnitude() == 0


def test_group_action_rejects_non_automorphism(m2):
    rng = np.random.default_rng(43)
    mat = rng.standard_normal((4, 4))
    with pytest.raises(InputError):
        nca.group_action_cdc([nca.SuperOperator(m2, mat)], [1.0])


def test_group_action_conjugation_on_m2(m2):
    theta = 0.3
    u = m2.element([np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])])
    alpha = conjugation_superop(m2, u)
    gamma = nca.group_action_cdc([alpha], [2.0])
    assert nca.is_cdc(gamma).is_cdc


# -- spectral triple ------------------------------------------------------


def test_spectral_triple_commuting_operator_gives_zero():
    alg = nca.build_algebra([1, 1], [0.5, 0.5])
    gamma = nca.spectral_triple_cdc(np.diag([1.0, 2.0]), alg)
    assert gamma.magnitude() == 0


def test_spectral_triple_two_point_metric_space():
    # two points at distance 1: Gamma(f, f)(x) = |f(x) - f(y)|^2
    alg = nca.build_algebra([1, 1], [0.5, 0.5])
    d_op = np.array([[0.0, 1.0], [1.0, 0.0]])
    gamma = nca.spectral_triple_cdc(d_op, alg)
    f = alg.element([[[1.0]], [[0.0]]])
    vals = gamma.value(f, f)
    assert vals.data[0][0, 0] == pytest.approx(1.0)
    assert vals.data[1][0, 0] == pytest.approx(1.0)
    assert gamma.unit_residual() == 0


def test_spectral_triple_rejects_non_hermitian():
    alg = nca.build_algebra([1, 1], [0.5, 0.5])
    with pytest.raises(InputError):
        nca.spectral_triple_cdc(np.array([[0.0, 1.0], [0.0, 0.0]]), alg)


# -- network forms and the classification ---------------------------------


def test_network_zero_is_zero():
    alg = nca.build_algebra([1] * 3, [1.0] * 3)
    assert nca.network_cdc(alg, np.zeros((3, 3))).magnitude() == 0


def test_network_k3_values():
    alg = nca.build_algebra([1] * 3, [1.0] * 3)
    gamma = nca.network_cdc(alg, K3_C, scale=1.0)
    d1 = alg.basis_element(0)
    vals = [gamma.value(d1, d1).data[i][0, 0].real for i in range(3)]
    assert vals == pytest.approx([2.0, 1.0, 1.0])
    assert gamma.unit_residual() == 0


def test_network_requires_commutative(m2):
    with pytest.raises(InputError):
        nca.network_cdc(m2, np.zeros((4, 4)))


def test_conductance_roundtrip_seeded():
    rng = np.random.default_rng(47)
    for size in (3, 4, 5):
        alg = nca.build_algebra([1] * size, [1.0] * size)
        c = rng.uniform(0.0, 2.0, (size, size))
        np.fill_diagonal(c, 0.0)  # no symmetry required for the bijection
        gamma = nca.network_cdc(alg, c, scale=0.5)
        assert np.abs(nca.conductances_from_cdc(gamma) - c).max() < 1e-10
        assert nca.is_cdc(gamma).is_cdc


def test_negative_conductance_fails_positivity():
    alg = nca.build_algebra([1] * 3, [1.0] * 3)
    c = K3_C.copy()
    c[0, 1] = c[1, 0] = -0.5
    gamma = nca.network_cdc(alg, c, scale=0.5, allow_negative=True)
    report = nca.is_cdc(gamma)
    assert report.symmetric and report.star_representation
    assert not report.completely_positive
    # the edge route names the edge and its conductance
    assert report.witness == {"kind": "negative-conductance", "edge": [0, 1],
                              "conductance": -0.5}
    assert report.residuals["negative_conductance"] == 0.25


K4_NEGATIVE_C = np.array([[0, 1, 1, 0.5], [1, 0, -0.4, 1], [1, -0.4, 0, 1], [0.5, 1, 1, 0]])


@pytest.mark.parametrize("lam", [1e-12, 1e-9, 1.0, 1e6])
def test_k4_negative_conductance_fails_in_every_unit(lam):
    # the CP verdict is judged against the form's own magnitude, with no
    # floor of 1, so a scaled network keeps its verdict: at lam = 1e-12 and
    # 1e-9 the floored bound passed this form
    alg = nca.build_algebra([1] * 4, [1.0] * 4)
    c = lam * K4_NEGATIVE_C
    report = nca.is_cdc(nca.network_cdc(alg, c, allow_negative=True))
    sym, unit, star, cp = report.checks
    assert sym.passed and unit.passed and star.passed
    assert cp.check == "cdc-completely-positive" and not cp.passed
    assert cp.residual == report.residuals["negative_conductance"] == 0.2 * lam
    assert cp.witness == report.witness == {
        "kind": "negative-conductance", "edge": [1, 2], "conductance": c[1, 2]}


def test_form_off_its_network_fails_by_the_network_gap():
    # 1e-15 off the network form at two symmetric entries passes symmetry,
    # unit and star against the floored bound 1e-9 (1 + magnitude), but the
    # inertia argument holds for exact network forms only, so the network
    # gap fails against the magnitude 1.25e-12 of the form
    alg = nca.build_algebra([1] * 4, [1.0] * 4)
    g = nca.network_cdc(alg, 1e-12 * np.abs(K4_NEGATIVE_C)).gram.copy()
    g[0, 1, 2] += 1e-15
    g[1, 0, 2] += 1e-15
    report = nca.is_cdc(CdCForm(alg, g, scale=0.5))
    assert report.symmetric and report.unit_annihilating and report.star_representation
    assert not report.completely_positive
    assert report.residuals["negative_conductance"] == 0.0
    assert report.witness == {"kind": "network-gap", "triple": [0, 1, 2],
                              "residual": report.residuals["network_gap"]}


def _signed_forms(n, rng):
    """The network form of signed symmetric conductances on n points, and
    the form of a real generator on [1] * n, whose conductances -N[y, p]
    are asymmetric; each conductance is 0 or of magnitude 0.1 to 2."""
    alg = nca.build_algebra([1] * n, [1.0] * n)
    c, m = rng.uniform(0.1, 2.0, (2, n, n)) * rng.choice([-1.0, 0.0, 1.0], (2, n, n))
    c = np.triu(c, 1)
    yield nca.network_cdc(alg, c + c.T, allow_negative=True)
    np.fill_diagonal(m, 0.0)
    yield nca.gamma_from_generator(nca.SuperOperator(alg, m - np.diag(m.sum(axis=1))))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.integers(0, 2 ** 31 - 1))
def test_cp_block_inertia_is_the_conductance_signs(n, seed):
    # Sylvester's law of inertia on Q_y = sum_x k_xy (d_x - d_y)(d_x - d_y)^T:
    # the dense CP block of node y has as many negative eigenvalues as
    # column y of the scaled conductances k has negative entries
    for gamma in _signed_forms(n, np.random.default_rng(seed)):
        g = gamma.gram
        k = np.array(np.einsum("ppy->py", g))
        np.fill_diagonal(k, 0.0)
        for y in range(n):
            eigs = np.linalg.eigvalsh(g[:, :, y])
            assert (eigs < -1e-9 * np.abs(eigs).max()).sum() == (k[:, y] < 0).sum()
        report = nca.is_cdc(gamma)
        assert report.symmetric and report.unit_annihilating and report.star_representation
        assert report.completely_positive == (k.min() >= 0)


def test_commutative_forms_are_real():
    rng = np.random.default_rng(53)
    alg = nca.build_algebra([1] * 4, [1.0] * 4)
    c = rng.uniform(0.0, 1.0, (4, 4))
    np.fill_diagonal(c, 0.0)
    gamma = nca.network_cdc(alg, c, scale=0.5)
    # Gamma(f*, g*) = Gamma(g, f) entrywise over the basis
    adj = alg.adj_table
    dense = alg.embed(gamma.gram)
    assert np.abs(dense[np.ix_(adj, adj)] - dense.transpose(1, 0, 2, 3)).max() < 1e-10
    assert nca.reality_checks(gamma)["tau_real"]


# -- conditional complete negativity ---------------------------------------


def test_ccn_examples(m2):
    alg = nca.build_algebra([1] * 3, [1.0] * 3)
    lap = nca.SuperOperator(alg, np.diag(K3_C.sum(axis=1)) - K3_C)
    assert nca.ccn_check(lap)

    rng = np.random.default_rng(59)
    n_v = lindblad_generator(m2, [random_element(m2, rng)])
    assert nca.ccn_check(n_v)

    c = K3_C.copy()
    c[0, 1] = c[1, 0] = -0.5
    bad = nca.SuperOperator(alg, np.diag(c.sum(axis=1)) - c)
    assert not nca.ccn_check(bad)


def test_ccn_agrees_with_complete_positivity():
    for kind, gen in seeded_generators():
        gamma = nca.gamma_from_generator(gen)
        report = nca.is_cdc(gamma)
        assert nca.ccn_check(gen) == report.completely_positive, kind


# -- amplification ----------------------------------------------------------


def test_amplify_identity_order_one(m2):
    gamma = nca.commutator_cdc([m2.basis_element(1)])
    assert nca.amplify_cdc(gamma, 1) is gamma


def test_amplify_rejects_a_boolean_order(m2):
    # True == 1, yet no order is coerced from a bool
    gamma = nca.commutator_cdc([m2.basis_element(1)])
    with pytest.raises(InputError):
        nca.amplify_cdc(gamma, True)


def test_amplified_form_is_cdc(m2):
    gamma = nca.commutator_cdc([m2.basis_element(1)])
    big = nca.amplify_cdc(gamma, 2)
    assert big.algebra.blocks == (4,)
    report = nca.is_cdc(big)
    assert report.is_cdc
    assert big.unit_residual() < 1e-12


def test_amplified_values_match_entrywise_rule(m2):
    # (Gamma_n(A, B))_{jk} = sum_p Gamma(a_pj, b_pk) on seeded matrices
    cases = [(m2, 2, 61)] + [
        (nca.build_algebra(blocks, weights), order, 62)
        for blocks, weights in (([3, 2, 1], [1.0, 0.5, 2.0]), ([2, 2], [1.0, 3.0]))
        for order in (2, 3)
    ]
    for alg, order, seed in cases:
        rng = np.random.default_rng(seed)
        gamma = nca.commutator_cdc([random_element(alg, rng)])
        big = nca.amplify_cdc(gamma, order)
        grid_a = [[random_element(alg, rng) for _ in range(order)] for _ in range(order)]
        grid_b = [[random_element(alg, rng) for _ in range(order)] for _ in range(order)]
        a = from_cells(alg, order, grid_a)
        b = from_cells(alg, order, grid_b)
        cells = to_cells(alg, order, big.value(a, b))
        for j in range(order):
            for k in range(order):
                expected = alg.zero()
                for p in range(order):
                    expected = expected + gamma.value(grid_a[p][j], grid_b[p][k])
                assert cells[j][k].distance(expected) < 1e-9 * (1 + expected.norm())


def test_catalog_examples_are_cdc(catalog):
    for ex in catalog:
        report = nca.is_cdc(ex.gamma)
        assert report.is_cdc, (ex.name, report.residuals)
        assert nca.reality_checks(ex.gamma)["tau_real"] == ex.tau_real, ex.name


# -- structure-constant builders against their elementwise definitions ------


def _generator_rules(vs):
    def lindblad(a):
        out = a.algebra.zero()
        for v in vs:
            vv = v.adjoint() * v
            out = out + (-1.0) * (v.adjoint() * a * v) + 0.5 * (vv * a + a * vv)
        return out

    def double_commutator(a):
        out = a.algebra.zero()
        for v in vs:
            inner = v * a - a * v
            out = out + (v.adjoint() * inner - inner * v.adjoint())
        return out

    return lindblad, double_commutator


@pytest.mark.parametrize("blocks, weights", [([3, 2, 1], [1.0, 0.5, 2.0]),
                                             ([1, 1, 1, 1], [1.0, 0.5, 2.0, 3.0])])
def test_generators_match_elementwise_rules(blocks, weights):
    alg = nca.build_algebra(blocks, weights)
    rng = np.random.default_rng(23)
    vs = [random_element(alg, rng) for _ in range(2)]
    lindblad, double_commutator = _generator_rules(vs)
    pairs = [
        (lindblad_generator(alg, vs), lindblad),
        (double_commutator_generator(alg, vs), double_commutator),
    ]
    # a unitary: the unitary factor of each block of a random element
    u = alg.element([np.linalg.qr(m)[0] for m in random_element(alg, rng).data])
    pairs.append((conjugation_superop(alg, u), lambda a: u * a * u.adjoint()))
    if alg.is_commutative:
        perm = [2, 0, 3, 1]
        pairs.append((
            permutation_superop(alg, perm),
            lambda f: alg.element([f.data[perm[x]] for x in range(alg.dim)]),
        ))
    for built, rule in pairs:
        reference = superop_from_function(alg, rule)
        assert np.abs(built.matrix - reference.matrix).max() < 1e-13


def _network_gram_loop(size, c, scale):
    gram = np.zeros((size, size, size, size), dtype=complex)
    eye = np.eye(size)
    for p in range(size):
        for q in range(size):
            dp, dq = eye[p], eye[q]
            vals = np.zeros(size)
            for y in range(size):
                vals[y] = np.sum((dp - dp[y]) * (dq - dq[y]) * c[:, y])
            gram[p, q] = scale * np.diag(vals)
    return gram


@pytest.mark.parametrize("size", [3, 6, 9])
def test_network_form_matches_loop_bitwise(size):
    rng = np.random.default_rng(size)
    c = np.triu(rng.uniform(0.2, 2.0, (size, size)) * (rng.random((size, size)) < 0.7), 1)
    c = c + c.T
    c[0, 1] = c[1, 0] = -0.3
    alg = nca.build_algebra([1] * size, [1.0] * size)
    for scale in (0.5, 1.0):
        gamma = nca.network_cdc(alg, c, scale=scale, allow_negative=True)
        assert np.array_equal(alg.embed(gamma.gram), _network_gram_loop(size, c, scale))


# -- the dtype of the gram -------------------------------------------------------


def test_gram_dtype_follows_the_data(m2):
    alg = nca.build_algebra([1] * 3, [1.0] * 3)
    net = nca.network_cdc(alg, K3_C)
    assert net.gram.dtype == np.float64
    assert nca.amplify_cdc(net, 2).gram.dtype == np.float64
    ints = np.arange(27).reshape(3, 3, 3)
    form = CdCForm(alg, ints)
    assert form.gram.dtype == np.float64 and not form.gram.flags.writeable
    assert np.array_equal(form.gram, ints)
    two_point = nca.build_algebra([1, 1], [0.5, 0.5])
    lap = nca.SuperOperator(alg, np.diag(K3_C.sum(axis=1)) - K3_C)
    assert nca.gamma_from_generator(lap, scale=0.5).gram.dtype == np.float64
    for gamma in (nca.commutator_cdc([m2.basis_element(1)]),
                  nca.spectral_triple_cdc(np.array([[0.0, 1.0], [1.0, 0.0]]), two_point)):
        assert gamma.gram.dtype == np.complex128


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_gram_must_be_finite(m2, bad):
    # against an infinite magnitude every bound of is_cdc is inf, so a K3
    # gram with G[0, 0, 0] = inf passed unit annihilation and the star
    # identity; the form is refused before any check runs
    net = nca.network_cdc(nca.build_algebra([1] * 3, [1.0] * 3), K3_C)
    cplx = nca.commutator_cdc([m2.basis_element(1)])
    for gamma, value in ((net, bad), (cplx, bad), (cplx, complex(0.0, bad))):
        g = gamma.gram.copy()
        g[0, 0, 0] = value
        with pytest.raises(InputError, match="finite"):
            nca.is_cdc(CdCForm(gamma.algebra, g, scale=gamma.scale))


def _real_grams():
    """Real grams, each checked on the float64 path and on a complex copy:
    random raw and symmetrized grams, which fail the star identity, a
    network with a negative conductance, which fails positivity on the edge
    route, and the form of a real generator on [2, 1], which fails it on the
    eigen route."""
    rng = np.random.default_rng(17)
    for blocks, weights in (([1] * 12, list(np.linspace(0.5, 2.0, 12))),
                            ([2, 2, 2], [1.0, 0.5, 2.0]), ([3, 2, 1], [1.0, 0.5, 2.0])):
        alg = nca.build_algebra(blocks, weights)
        g = rng.standard_normal((alg.dim,) * 3)
        yield alg, g
        yield alg, (g + g.transpose(1, 0, 2)[:, :, alg.adj_table]) / 2
    alg = nca.build_algebra([1] * 4, [1.0, 2.0, 0.5, 1.5])
    c = np.ones((4, 4)) - np.eye(4)
    c[0, 1] = c[1, 0] = -0.4
    yield alg, nca.network_cdc(alg, c, allow_negative=True).gram
    alg = nca.build_algebra([2, 1], [1.0, 0.5])
    mat = rng.standard_normal((alg.dim, alg.dim))
    one = alg.identity_coords.real
    mat -= np.outer(mat @ one, one) / (one @ one)
    adj = alg.adj_table
    n = nca.SuperOperator(alg, (mat + mat[np.ix_(adj, adj)]) / 2)
    yield alg, nca.gamma_from_generator(n).gram


def _real_cdc_forms():
    """Real carre-du-champs, for the one-form space on both paths."""
    weighted = nca.build_algebra([1] * 5, [1.0, 2.0, 0.5, 1.5, 1.0])
    k3 = nca.network_cdc(nca.build_algebra([1] * 3, [1.0] * 3), K3_C)
    return [nca.network_cdc(weighted, random_network(5, np.random.default_rng(3)).c),
            nca.network_cdc(nca.build_algebra([1] * 16, [1.0] * 16), bench_network_c(16)),
            nca.amplify_cdc(k3, 2)]


def _close(a, b, scale):
    return (np.isnan(a) and np.isnan(b)) or abs(a - b) <= 1e-13 * scale


@pytest.mark.parametrize("case", range(8))
def test_real_gram_checks_match_complex_copy(case):
    alg, g = list(_real_grams())[case]
    real, cplx = CdCForm(alg, g), CdCForm(alg, g.astype(complex))
    assert real.gram.dtype == np.float64 and cplx.gram.dtype == np.complex128
    scale = 1.0 + real.magnitude()
    got, want = nca.is_cdc(real), nca.is_cdc(cplx)
    assert ([got.symmetric, got.unit_annihilating, got.star_representation,
             got.completely_positive]
            == [want.symmetric, want.unit_annihilating, want.star_representation,
                want.completely_positive])
    assert got.residuals.keys() == want.residuals.keys()
    assert all(_close(got.residuals[key], want.residuals[key], scale) for key in got.residuals)
    assert got.witness.keys() == want.witness.keys()
    for key, value in got.witness.items():
        if key == "vector":
            x, y = (np.array(w[key]) @ [1, 1j] for w in (got.witness, want.witness))
            assert min(np.abs(x - y).max(), np.abs(x + y).max()) <= 1e-12
        elif key in ("residual", "eigenvalue"):
            assert _close(value, want.witness[key], scale)
        else:
            assert value == want.witness[key]
    got, want = nca.reality_checks(real), nca.reality_checks(cplx)
    assert got.keys() == want.keys()
    for key, value in got.items():
        assert _close(value, want[key], scale) if key.endswith("residual") else value == want[key]


def test_real_gram_witness_kinds_are_all_reached():
    kinds = {nca.is_cdc(CdCForm(alg, g)).witness["kind"] for alg, g in _real_grams()}
    assert kinds == {"symmetry", "star-representation", "negative-conductance",
                     "negative-direction"}


@pytest.mark.parametrize("form", range(3))
def test_real_bimodule_matches_complex_copy(form):
    real = _real_cdc_forms()[form]
    cplx = CdCForm(real.algebra, real.gram.astype(complex), scale=real.scale)
    assert real.gram.dtype == np.float64
    got, want = nca.build_bimodule(real), nca.build_bimodule(cplx)
    assert got.rank == want.rank
    scale = 1.0 + real.magnitude()
    for key, value in got.residuals.items():
        assert abs(value - want.residuals[key]) <= 1e-12 * scale


def _energy_layer(e):
    """The flags and residuals of the energy layer on one form."""
    lap = nca.laplacian(e)
    _, heat = nca.heat_map(lap, 1.0)
    results = (nca.resolvent_check(lap, (0.1, 1.0)) + nca.markov_check(lap)
               + nca.leibniz_check(e))
    flags = [lap.kernel_dim, nca.connectedness(lap), *(c.passed for c in heat["checks"])]
    flags += [r.passed for r in results]
    residuals = [heat["checks"][0].residual, heat["choi_min_eigenvalue"],
                 heat["choi_skew_residual"], *lap.eigenvalues]
    return flags, residuals + [r.residual for r in results]


@pytest.mark.parametrize("form", range(3))
def test_real_energy_layer_matches_complex_copy(form):
    real = _real_cdc_forms()[form]
    e = EnergyForm(real.algebra, real.tau_values)
    cplx = EnergyForm(real.algebra, e.gram.astype(complex))
    assert cplx.gram.dtype == np.complex128
    got, want = _energy_layer(e), _energy_layer(cplx)
    assert got[0] == want[0]
    assert np.allclose(got[1], want[1], rtol=0, atol=1e-12 * (1.0 + e.magnitude()))
    lap = nca.laplacian(e)
    arrays = [e.gram, lap.matrix, lap.eigensystem[1], nca.heat_map(lap, 1.0)[0].matrix,
              lap.natural().matrix, nca.gamma_delta(lap).gram]
    assert [a.dtype for a in arrays] == [np.float64] * 6


def test_lindblad_energy_layer_stays_complex(m2):
    gamma = nca.commutator_cdc([m2.basis_element(1), m2.basis_element(2)])
    lap = nca.laplacian(nca.energy_form(gamma))
    assert gamma.tau_values.dtype == lap.matrix.dtype == np.complex128


def test_laplacian_rejects_a_non_hermitian_matrix(m2):
    m = np.zeros((4, 4))
    m[0, 1] = 1.0
    with pytest.raises(InputError, match=r"must be Hermitian \(residual 1\.000e\+00\)"):
        Laplacian(nca.SuperOperator(m2, m))


def test_real_network_is_cdc_memory_stays_bounded():
    # the seed-7 N=48 network peaks at 3.43 MiB with a float64 gram and at
    # 6.86 MiB with a complex one
    gamma = nca.network_cdc(nca.build_algebra([1] * 48, [1.0] * 48), bench_network_c(48))
    tracemalloc.start()
    try:
        report = nca.is_cdc(gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.is_cdc
    assert peak < 5 * 2 ** 20
