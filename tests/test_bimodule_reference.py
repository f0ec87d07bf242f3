"""``build_bimodule`` against the product-basis reference in
``dense_bimodule``, on random Lindblad forms over algebras with repeated
block sizes and non-unit trace weights, on random networks and on the
catalog.  The two routes pick different orthonormal frames, so they are
compared through frame-independent quantities only.  The per-block
commutator stacks are also checked against the dense commutator routes of
the same space, and the edge frame of a network against the eigen route
that noncommutative forms take."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nca
from conftest import bench_network_c
from dense_bimodule import (ReferenceSpace, act_left, commutator_blocks, commutator_norm,
                            dense_build_bimodule, derivative_coords, eigen_route_bimodule,
                            left_action_stack, pair_forms, pair_projection,
                            squared_commutator_norms)
from nca.algebra import random_element, random_self_adjoint_rows
from nca.dirac import _squared_norms
from nca.resistance import random_network

RTOL = 1e-12

blocks = st.lists(st.tuples(st.sampled_from([1, 2, 2, 3]),
                            st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0])),
                  min_size=1, max_size=4).filter(lambda p: sum(n * n for n, _ in p) <= 18)


def _close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= RTOL * max(1.0, np.abs(want).max(initial=0.0))


def _compare(gamma, seed):
    alg = gamma.algebra
    bs = nca.build_bimodule(gamma)
    ref = dense_build_bimodule(gamma)
    assert bs.rank == ref["rank"]
    for value in bs.residuals.values():
        assert value <= 1e-10 * max(1.0, gamma.magnitude())

    _close(bs.dmatrix.conj().T @ bs.dmatrix, ref["dmatrix"].conj().T @ ref["dmatrix"])
    # the gram of the pairs (d e_a) e_c: the reference's coordinates hold for
    # kernel vectors, and P maps each pair into the kernel
    ref_pairs = ref["to_forms"] @ pair_projection(alg)
    _close(pair_forms(bs).conj().T @ pair_forms(bs), ref_pairs.conj().T @ ref_pairs)

    ref_bs = ReferenceSpace(gamma=gamma, rank=ref["rank"],
                            dmatrix=ref["dmatrix"], left_action=ref["left_action"])
    rng = np.random.default_rng(seed)
    for _ in range(3):
        a, b, c = (random_element(alg, rng) for _ in range(3))
        inner = [np.vdot(derivative_coords(space, c),
                         act_left(space, a) @ derivative_coords(space, b))
                 for space in (bs, ref_bs)]
        _close(inner[0], inner[1])
        _close(commutator_norm(bs, a), commutator_norm(ref_bs, a))


@settings(max_examples=40, deadline=None)
@given(blocks, st.integers(1, 3), st.integers(0, 2 ** 31 - 1))
def test_lindblad_forms_match_reference(pairs, count, seed):
    alg = nca.build_algebra([n for n, _ in pairs], [w for _, w in pairs])
    rng = np.random.default_rng(seed)
    _compare(nca.commutator_cdc([random_element(alg, rng) for _ in range(count)]), seed)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
def test_networks_match_reference(size, seed):
    rng = np.random.default_rng(seed)
    net = random_network(size, rng)
    alg = nca.build_algebra([1] * size, list(rng.choice([0.5, 1.0, 2.0], size)))
    _compare(nca.network_cdc(alg, net.c, scale=0.5), seed)


def test_catalog_matches_reference(catalog):
    for ex in catalog:
        _compare(ex.gamma, 3)


@settings(max_examples=10, deadline=None)
@given(blocks)
def test_zero_form_has_rank_zero(pairs):
    alg = nca.build_algebra([n for n, _ in pairs], [w for _, w in pairs])
    bs = nca.build_bimodule(nca.commutator_cdc([alg.identity()]))
    assert bs.rank == 0 and pair_forms(bs).shape == (0, alg.dim ** 2)
    assert left_action_stack(bs).shape == (alg.dim, 0, 0)
    assert dense_build_bimodule(nca.commutator_cdc([alg.identity()]))["rank"] == 0



def _form(kind, blocks, weights, rng):
    """A network form on len(weights) nodes, or a commutator or
    spectral-triple form on ``blocks`` with the leading weights."""
    if kind == "network":
        net = random_network(len(weights), rng)
        return nca.network_cdc(nca.build_algebra([1] * len(weights), weights), net.c, scale=0.5)
    alg = nca.build_algebra(blocks, weights[:len(blocks)])
    if kind == "spectral-triple":
        n = alg.total_size
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return nca.spectral_triple_cdc(x + x.conj().T, alg)
    return nca.commutator_cdc([random_element(alg, rng) for _ in range(rng.integers(1, 4))])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(["commutator", "spectral-triple", "network"]),
       st.sampled_from([[2, 2, 1], [3], [1, 1, 1, 1], [3, 2, 1], [2, 1]]),
       st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=6),
       st.integers(0, 2 ** 31 - 1))
def test_factored_route_matches_dense_route(kind, blocks, log_weights, seed):
    # trace weights across six decades; the complete-positivity blocks of
    # these forms have null spaces, so the null-space residual is exercised
    rng = np.random.default_rng(seed)
    gamma = _form(kind, blocks, [10.0 ** x for x in log_weights], rng)
    alg = gamma.algebra
    bs = nca.build_bimodule(gamma)
    ref = dense_build_bimodule(gamma)
    assert bs.rank == ref["rank"]
    ref_pairs = ref["to_forms"] @ pair_projection(alg)
    _close(pair_forms(bs).conj().T @ pair_forms(bs), ref_pairs.conj().T @ ref_pairs)
    # the residuals are rounding of the weighted pair gram on both routes,
    # so they agree to a fraction of its largest entry
    scale = max(1.0, gamma.magnitude() * max(alg.trace_weights))
    for key, want in ref["residuals"].items():
        assert abs(bs.residuals[key] - want) <= 1e-12 * max(scale, want), key

    ref_bs = ReferenceSpace(gamma=gamma, rank=ref["rank"],
                            dmatrix=ref["dmatrix"], left_action=ref["left_action"])
    elements = [random_element(alg, rng) for _ in range(4)]
    values, _ = nca.dirac_seminorms(nca.DiracOperator(bs),
                                    [alg.canonical_coords(a) for a in elements])
    for a, value in zip(elements, values):
        want = commutator_norm(ref_bs, a)
        assert abs(value - want) <= 1e-12 * max(1.0, want)
    for a, b, c in zip(elements, elements[1:], elements[2:]):
        inner = [np.vdot(derivative_coords(space, c),
                         act_left(space, a) @ derivative_coords(space, b))
                 for space in (bs, ref_bs)]
        _close(inner[0], inner[1])


# (blocks, trace weights) of the Lindblad algebras
PER_BLOCK_ALGEBRAS = {"3-2-1": ([3, 2, 1], [1.0, 0.5, 2.0]), "2-2": ([2, 2], [1.0, 1.0]),
                      "M3": ([3], [1.0]), "M4": ([4], [1.0]), "M5": ([5], [1.0])}


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.integers(2, 12), st.sampled_from(sorted(PER_BLOCK_ALGEBRAS))),
       st.integers(0, 2 ** 31 - 1))
# a 4-cycle whose pairs (0, 1) and (2, 3) have equal parallelogram gaps,
# which the two routes round apart
@example(case=4, seed=239)
def test_per_block_commutators_match_dense_routes(case, seed):
    # the seminorms from the (r_b, n_b) blocks against the two-block dense
    # commutator and the (d, rank, d) stack; on a network the star-graph
    # squared norms from the conductances against the point-mass Gram
    # table, and the star-graph verdict and witness on either route
    rng = np.random.default_rng(seed)
    if isinstance(case, int):
        net = random_network(case, rng)
        gamma = nca.network_cdc(net.algebra, net.c, scale=0.5)
    else:
        alg = nca.build_algebra(*PER_BLOCK_ALGEBRAS[case])
        gamma = nca.commutator_cdc([random_element(alg, rng) for _ in range(2)])
    alg = gamma.algebra
    op = nca.DiracOperator(nca.build_bimodule(gamma))
    elements = [random_element(alg, rng) for _ in range(3)]
    elements.append(alg.from_canonical_coords(random_self_adjoint_rows(alg, rng, 1)[0]))
    values, _ = nca.dirac_seminorms(op, [alg.canonical_coords(a) for a in elements])
    blocks = commutator_blocks(op.bimodule)
    for a, value in zip(elements, values):
        stacked = max(np.linalg.norm(np.tensordot(alg.canonical_coords(b), blocks, axes=1), 2)
                      for b in (a, a.adjoint()))
        for want in (commutator_norm(op.bimodule, a), stacked):
            assert abs(value - want) <= 1e-12 * want

    if isinstance(case, int):
        coeffs = rng.standard_normal((4, case))
        got = _squared_norms(net.c, coeffs, 0.5)
        want = squared_commutator_norms(op.bimodule, coeffs)[-len(coeffs):]
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * want.max()
        star = nca.star_graph_check(net, seed=seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nca.dirac, "_squared_norms", lambda c, coeffs, scale:
                          squared_commutator_norms(op.bimodule, coeffs)[-len(coeffs):])
            dense = nca.star_graph_check(net, seed=seed)
        for key in ("is_star", "parallelogram_holds", "witness"):
            assert star[key] == dense[key], key
        residual = dense["max_relative_residual"]
        assert abs(star["max_relative_residual"] - residual) <= 1e-12 * max(1.0, residual)


def test_edge_frame_matcheseigen_route_bimodule(catalog):
    # the catalog networks and the seed-7 N8 network with trace weights
    # linspace(0.5, 2, 8): equal rank, the count of edges with c > 0, equal
    # Delta = dmatrix* dmatrix and equal seminorms
    weighted = nca.build_algebra([1] * 8, list(np.linspace(0.5, 2.0, 8)))
    forms = [ex.gamma for ex in catalog if ex.algebra.is_commutative]
    forms.append(nca.network_cdc(weighted, bench_network_c(8), scale=0.5))
    rng = np.random.default_rng(5)
    for gamma in forms:
        alg = gamma.algebra
        edge, eigen = nca.build_bimodule(gamma), eigen_route_bimodule(gamma)
        assert edge.rank == eigen.rank == int((nca.conductances_from_cdc(gamma) > 0).sum())
        _close(edge.dmatrix.T @ edge.dmatrix, eigen.dmatrix.conj().T @ eigen.dmatrix)
        for value in edge.residuals.values():
            assert value <= 1e-12 * max(1.0, gamma.magnitude())
        rows = np.concatenate([random_self_adjoint_rows(alg, rng, 4),
                               [alg.canonical_coords(random_element(alg, rng)) for _ in range(4)]])
        got, want = (nca.dirac_seminorms(nca.DiracOperator(bs), rows) for bs in (edge, eigen))
        _close(got[0], want[0])
        assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("lam", [1e-9, 1e-10, 1e-11])
def test_edge_frame_has_no_rank_cut(lam):
    # the eigen route cuts the eigenvalues of the seed-7 N6 network at
    # rank_tol * max(1, top), which drops real edges once the form is small:
    # rank 20 at lam = 1e-9, 6 at 1e-10 and 0 at 1e-11.  The edge frame keeps
    # every edge with c > 0, and its Delta stays exact to rounding
    c = lam * bench_network_c(6)
    gamma = nca.network_cdc(nca.build_algebra([1] * 6, [1.0] * 6), c, scale=0.5)
    bs = nca.build_bimodule(gamma)
    assert bs.rank == int((c > 0).sum()) == 20
    assert eigen_route_bimodule(gamma).rank == {1e-9: 20, 1e-10: 6, 1e-11: 0}[lam]
    assert bs.residuals["laplacian_factorization"] <= 1e-15 * gamma.magnitude()
