"""Algebra-core: bases, trace, norms, positivity, functional calculus,
conditional expectation (``Algebra.pinch``), and superoperator plumbing."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nca
from block_element import superop_from_function
from nca.algebra import (
    PiecewiseLinear,
    amplify_matrix,
    amplify_superop,
    decode_element,
    encode_element,
    from_cells,
    is_positive,
    left_multiplication,
    matrix_direct_sum,
    random_element,
    random_self_adjoint_rows,
    right_multiplication,
    to_cells,
)
from nca.energy import _seminorms
from nca.errors import InputError
from generators import clamp_above, double_commutator_generator


def test_build_algebra_examples():
    m2 = nca.build_algebra([2], [1.0])
    assert m2.dim == 4
    three_points = nca.build_algebra([1, 1, 1], [1.0, 1.0, 1.0])
    assert three_points.dim == 3 and three_points.is_commutative
    mixed = nca.build_algebra([2, 1], [1.0, 2.0])
    assert mixed.identity().trace() == pytest.approx(4.0)  # sum w_i n_i


def test_build_algebra_rejects_bad_input():
    with pytest.raises(InputError) as err:
        nca.build_algebra([2, 0], [1.0])
    # every violation is collected, not just the first
    assert len(err.value.details) == 2
    with pytest.raises(InputError):
        nca.build_algebra([], [])
    with pytest.raises(InputError):
        nca.build_algebra([1], [0.0])


@pytest.mark.parametrize("blocks, weights, bad", [
    ([1, 1.5], [1.0, 1.0], "block 1"),
    ([True, 1], [1.0, 1.0], "block 0"),
    (["1", 1], [1.0, 1.0], "block 0"),
    ([1, 1], ["2", 1.0], "trace weight 0"),
    ([1, 1], [1.0, float("inf")], "trace weight 1"),
])
def test_build_algebra_does_not_coerce(blocks, weights, bad):
    with pytest.raises(InputError) as err:
        nca.build_algebra(blocks, weights)
    assert len(err.value.details) == 1 and err.value.details[0].startswith(bad)


def test_build_algebra_takes_numpy_scalars():
    alg = nca.build_algebra([np.int64(2), np.int32(1)], [np.float64(1.0), np.float32(0.5)])
    assert alg.blocks == (2, 1) and alg.trace_weights == (1.0, 0.5)
    assert all(type(n) is int for n in alg.blocks)
    assert all(type(w) is float for w in alg.trace_weights)


def _basis_triple(alg, index):
    """(block, row, column) of the canonical unit ``index``."""
    block = int(np.searchsorted(alg._basis_offsets, index, side="right") - 1)
    row, col = divmod(index - int(alg._basis_offsets[block]), alg.blocks[block])
    return block, row, col


def test_matrix_unit_enumeration_block_major_row_major():
    alg = nca.build_algebra([2, 1], [1.0, 2.0])
    assert [_basis_triple(alg, i) for i in range(alg.dim)] == [
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0)]


def test_orthonormal_basis_gram_is_identity():
    alg = nca.build_algebra([2, 1, 3], [0.5, 2.0, 1.25])
    d = alg.dim
    basis = [alg.from_coords(np.eye(d)[i]) for i in range(d)]
    gram = np.array([[nca.tau_inner(a, b) for b in basis] for a in basis])
    assert np.abs(gram - np.eye(d)).max() < 1e-12


def test_ring_ops_matrix_units(m2):
    e11, e12, e21, e22 = (m2.basis_element(i) for i in range(4))
    assert (e12 * e21).distance(e11) == 0
    assert e12.adjoint().distance(e21) == 0
    rng = np.random.default_rng(7)
    a = random_element(m2, rng)
    assert (m2.identity() * a).distance(a) == 0
    assert ((a.adjoint()).adjoint()).distance(a) == 0


def test_mismatched_algebras_rejected(m2):
    other = nca.build_algebra([2], [2.0])
    with pytest.raises(InputError):
        m2.identity() * other.identity()


def test_is_positive():
    m2 = nca.build_algebra([2], [1.0])
    assert is_positive(m2.identity())
    spread = m2.element([np.array([[1.0, 2.0], [2.0, 1.0]])])
    assert not is_positive(spread)  # eigenvalues 3 and -1
    assert not is_positive(-1.0 * m2.basis_element(0))


def test_operator_norm():
    m2 = nca.build_algebra([2], [1.0])
    assert m2.identity().norm() == pytest.approx(1.0)
    assert m2.basis_element(1).norm() == pytest.approx(1.0)
    c2 = nca.build_algebra([1, 1], [1.0, 1.0])
    assert c2.element([[[3.0]], [[-4.0]]]).norm() == pytest.approx(4.0)


def test_functional_calculus():
    c2 = nca.build_algebra([1, 1], [1.0, 1.0])
    a = c2.element([[[2.0]], [[0.0]]])
    clamped, lip = nca.functional_calculus(a, clamp_above(1.0))
    assert clamped.data[0][0, 0] == pytest.approx(1.0)
    assert clamped.data[1][0, 0] == pytest.approx(0.0)
    assert lip == pytest.approx(1.0)

    m2 = nca.build_algebra([2], [1.0])
    flip = m2.element([np.array([[0.0, 1.0], [1.0, 0.0]])])
    result, _ = nca.functional_calculus(flip, PiecewiseLinear.absolute())
    assert result.distance(m2.identity()) < 1e-12

    ident, lip = nca.functional_calculus(flip, PiecewiseLinear((0.0, 1.0), (0.0, 1.0)))
    assert ident.distance(flip) < 1e-12 and lip == 1.0

    with pytest.raises(InputError):
        nca.functional_calculus(m2.basis_element(1), PiecewiseLinear.relu())


def test_spectral_map_multiplicative():
    m2 = nca.build_algebra([2, 1], [1.0, 1.0])
    rng = np.random.default_rng(3)
    a = m2.from_canonical_coords(random_self_adjoint_rows(m2, rng, 1)[0])
    powers = nca.algebra.SpectralStack(m2, a.coords[None]).apply(
        lambda w: w[:, None] ** np.array([2, 3, 5])[:, None])[0]
    sq, cube, fifth = (m2.from_canonical_coords(c) for c in powers)
    assert (sq * cube).distance(fifth) < 1e-9 * (1 + fifth.norm())


def test_piecewise_linear_lipschitz_windows():
    relu = PiecewiseLinear.relu()
    assert relu.lipschitz_on(-2.0, 3.0) == 1.0
    assert relu.lipschitz_on(-3.0, -1.0) == 0.0
    clamp = clamp_above(1.5)
    assert clamp.lipschitz_on(2.0, 3.0) == 0.0
    assert clamp.lipschitz_on(0.0, 1.0) == 1.0


def test_tau_inner_values(m2):
    e11, _, _, e22 = (m2.basis_element(i) for i in range(4))
    assert nca.tau_inner(e11, e11) == pytest.approx(1.0)
    assert nca.tau_inner(e11, e22) == pytest.approx(0.0)
    weighted = nca.build_algebra([1], [2.0])
    one = weighted.identity()
    assert nca.tau_inner(one, one) == pytest.approx(2.0)


def test_superop_sharp():
    m2 = nca.build_algebra([2], [1.0])
    ident = nca.SuperOperator(m2, np.eye(m2.dim))
    assert np.abs(ident.sharp().matrix - ident.matrix).max() < 1e-14

    e12, e21 = m2.basis_element(1), m2.basis_element(2)
    nv = double_commutator_generator(m2, [e12])
    nvstar = double_commutator_generator(m2, [e21])
    assert np.abs(nv.sharp().matrix - nvstar.matrix).max() < 1e-12

    rng = np.random.default_rng(5)
    h = random_element(m2, rng)
    left = left_multiplication(m2, h)
    right_star = right_multiplication(m2, h.adjoint())
    assert np.abs(left.sharp().matrix - right_star.matrix).max() < 1e-12

    # against the elementwise definition c -> (N(c*))*
    alg = nca.build_algebra([3, 2, 1], [1.0, 0.5, 2.0])
    n = nca.SuperOperator(alg, rng.standard_normal((alg.dim, alg.dim))
                          + 1j * rng.standard_normal((alg.dim, alg.dim)))
    rule = superop_from_function(alg, lambda c: n.apply(c.adjoint()).adjoint())
    assert np.abs(n.sharp().matrix - rule.matrix).max() < 1e-14
    assert np.array_equal(n.sharp().sharp().matrix, n.matrix)


def test_superop_matrix_elementwise_consistency(m2):
    rng = np.random.default_rng(11)
    h = random_element(m2, rng)
    op = left_multiplication(m2, h)
    for i in range(m2.dim):
        e = m2.from_coords(np.eye(m2.dim)[i])
        assert np.abs(op.matrix[:, i] - m2.to_coords(h * e)).max() < 1e-12


@pytest.mark.parametrize("blocks, weights", [([3, 2, 1], [1.0, 0.5, 2.0]), ([2, 2], [1.0, 3.0])])
def test_multiplication_operators_match_elementwise_rule(blocks, weights):
    alg = nca.build_algebra(blocks, weights)
    h = random_element(alg, np.random.default_rng(13))
    assert not h.is_self_adjoint()
    left = superop_from_function(alg, lambda a: h * a)
    right = superop_from_function(alg, lambda a: a * h)
    assert np.abs(left_multiplication(alg, h).matrix - left.matrix).max() < 1e-14
    assert np.abs(right_multiplication(alg, h).matrix - right.matrix).max() < 1e-14


@pytest.mark.parametrize("blocks, weights", [([3, 2, 1], [1.0, 0.5, 2.0]), ([2, 2], [1.0, 3.0])])
def test_mul_nonzero_matches_unit_products(blocks, weights):
    # e_i e_j = e_k for each triple (i, j, k) of mul_nonzero, and every
    # other product of two units is zero
    alg = nca.build_algebra(blocks, weights)
    units = [alg.basis_element(i) for i in range(alg.dim)]
    coords = np.array([[alg.canonical_coords(a * b) for b in units] for a in units])
    want = np.zeros_like(coords)
    i, j, k = alg.mul_nonzero
    want[i, j, k] = 1
    assert np.array_equal(coords, want)


def test_conditional_expectation():
    diag = nca.build_algebra([1, 1], [1.0, 1.0])
    full = np.array([[1.0, 2.0], [3.0, 4.0]])
    projected = diag.pinch(full)
    assert projected.data[0][0, 0] == 1.0 and projected.data[1][0, 0] == 4.0

    mixed = nca.build_algebra([2, 1], [1.0, 1.0])
    assert mixed.pinch(np.eye(3)).distance(mixed.identity()) == 0
    rng = np.random.default_rng(13)
    a = random_element(mixed, rng)
    assert mixed.pinch(a.full()).distance(a) < 1e-13
    with pytest.raises(InputError):
        mixed.pinch(np.eye(4))


def test_conditional_expectation_bimodule_property():
    mixed = nca.build_algebra([2, 1], [1.0, 1.0])
    rng = np.random.default_rng(17)
    x = random_element(mixed, rng)
    y = random_element(mixed, rng)
    full = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lhs = mixed.pinch(x.full() @ full @ y.full())
    rhs = x * mixed.pinch(full) * y
    assert lhs.distance(rhs) < 1e-10 * (1 + rhs.norm())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_tracial_property_seeded(seed):
    alg = nca.build_algebra([2, 1], [1.0, 0.5])
    rng = np.random.default_rng(seed)
    a, b = random_element(alg, rng), random_element(alg, rng)
    assert abs((a * b).trace() - (b * a).trace()) < 1e-12 * (1 + a.norm() * b.norm())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_cstar_identity_seeded(seed):
    alg = nca.build_algebra([2, 2], [1.0, 3.0])
    rng = np.random.default_rng(seed)
    a, b = random_element(alg, rng), random_element(alg, rng)
    assert (a * b).norm() <= a.norm() * b.norm() * (1 + 1e-10)
    assert abs((a.adjoint() * a).norm() - a.norm() ** 2) <= 1e-10 * (1 + a.norm() ** 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_inner_product_definite_seeded(seed):
    alg = nca.build_algebra([2, 1], [1.0, 2.0])
    rng = np.random.default_rng(seed)
    a = random_element(alg, rng)
    val = nca.tau_inner(a, a)
    assert val.imag == pytest.approx(0.0, abs=1e-12)
    if a.norm() > 1e-9:
        assert val.real > 0


def test_from_full_and_block_access():
    alg = nca.build_algebra([2, 1], [1.0, 2.0])
    rng = np.random.default_rng(19)
    a = random_element(alg, rng)
    assert alg.pinch(a.full()).distance(a) == 0
    assert a.data[1].shape == (1, 1)


@pytest.mark.parametrize("index", [True, 1.0, -1, 4], ids=["bool", "float", "negative", "dim"])
def test_basis_element_rejects_what_is_no_unit_index(m2, index):
    # M2 has the units 0..3: no index is coerced, wrapped or left to numpy
    with pytest.raises(InputError):
        m2.basis_element(index)


def test_element_predicates():
    m2 = nca.build_algebra([2], [1.0])
    rng = np.random.default_rng(20)
    h = m2.from_canonical_coords(random_self_adjoint_rows(m2, rng, 1)[0])
    assert h.is_self_adjoint()
    assert not m2.basis_element(1).is_self_adjoint()
    assert sorted(np.round(m2.element([np.diag([3.0, -1.0])]).eigenvalues().real, 9)) == [-1.0, 3.0]


def test_element_encoding_roundtrip():
    alg = nca.build_algebra([2, 1], [1.0, 2.0])
    rng = np.random.default_rng(23)
    a = random_element(alg, rng)
    encoded = encode_element(a)
    decoded = decode_element(alg, encoded)
    assert decoded.distance(a) < 1e-15
    with pytest.raises(InputError):
        decode_element(alg, encoded[:1])


def test_amplification_cells_roundtrip():
    alg = nca.build_algebra([2, 1], [1.0, 2.0])
    rng = np.random.default_rng(29)
    grid = [[random_element(alg, rng) for _ in range(2)] for _ in range(2)]
    big = from_cells(alg, 2, grid)
    back = to_cells(alg, 2, big)
    for j in range(2):
        for k in range(2):
            assert back[j][k].distance(grid[j][k]) == 0
    v = from_cells(alg, 1, [[grid[0][0]]])
    w = big
    both = matrix_direct_sum(alg, 1, v, 2, w)
    assert both.algebra.blocks == alg.amplify(3).blocks


@pytest.mark.parametrize("blocks, weights", [([3, 2, 1], [1.0, 0.5, 2.0]), ([2, 2], [1.0, 3.0])])
@pytest.mark.parametrize("order", [2, 3])
def test_amplification_index_serves_seminorm_and_superop(blocks, weights, order):
    alg = nca.build_algebra(blocks, weights)
    rng = np.random.default_rng(31)
    v = random_element(alg, rng)
    e = nca.energy_form(nca.commutator_cdc([v, v.adjoint()]))
    amp = alg.amplify(order)
    for _ in range(3):
        a = random_element(amp, rng)
        by_cells = sum(e.value(cell, cell).real for row in to_cells(alg, order, a) for cell in row)
        expected = np.sqrt(max(by_cells, 0.0))
        got = _seminorms(amplify_matrix(e.gram, alg, order), a.coords)
        assert abs(got - expected) <= 1e-12 * max(1.0, expected)

    # reference: I_order (x) N entry by entry over the amplified basis
    op = nca.SuperOperator(alg, rng.standard_normal((alg.dim, alg.dim))
                           + 1j * rng.standard_normal((alg.dim, alg.dim)))
    cells, inners = [], []
    for idx in range(amp.dim):
        b, row, col = _basis_triple(amp, idx)
        nb = alg.blocks[b]
        j, r = divmod(row, nb)
        k, s = divmod(col, nb)
        cells.append((j, k))
        inners.append(int(alg._basis_offsets[b]) + r * nb + s)
    reference = np.zeros((amp.dim, amp.dim), dtype=complex)
    for i_out in range(amp.dim):
        for i_in in range(amp.dim):
            if cells[i_out] == cells[i_in]:
                reference[i_out, i_in] = op.matrix[inners[i_out], inners[i_in]]
    amplified = amplify_superop(op, order)
    assert amplified.algebra.blocks == amp.blocks
    assert np.abs(amplified.matrix - reference).max() <= 1e-14


@pytest.mark.parametrize("blocks", [[1, 3, 2, 1], [2], [1] * 7, [3, 2], [4, 1, 1]])
def test_random_element_matches_per_block_draws(blocks):
    # one bulk draw gathered into canonical coordinates gives bit for bit
    # the numbers of one draw per real and imaginary part of each block,
    # and leaves the generator in the same state
    alg = nca.build_algebra(blocks, [1.0] * len(blocks))
    for seed in (0, 1, 42):
        for scale in (1.0, 0.5, 3e-4):
            rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                got = random_element(alg, rng, scale)
                want = nca.Element(alg, [
                    scale * (loop_rng.standard_normal((n, n)) + 1j * loop_rng.standard_normal((n, n)))
                    for n in blocks
                ])
                assert np.array_equal(got.coords, want.coords)
            assert rng.standard_normal() == loop_rng.standard_normal()


@pytest.mark.parametrize("blocks", [[1] * 7, [3, 2, 1], [2], [4, 4, 2, 2]])
def test_random_rows_match_per_element_draws(blocks):
    # the rows samplers read the stream of one element drawn after the
    # other, each block's real then imaginary part, bit for bit, and leave
    # the generator in the same state
    alg = nca.build_algebra(blocks, [1.0] * len(blocks))
    samplers = {nca.algebra.random_rows: lambda x: x,
                nca.algebra.random_self_adjoint_rows: lambda x: 0.5 * (x + x.adjoint()),
                nca.algebra.random_positive_rows: lambda x: x.adjoint() * x}
    for seed in (0, 7, 43):
        for scale in (1.0, 0.5):
            for sampler, of_element in samplers.items():
                rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = sampler(alg, rng, 5, scale)
                want = []
                for _ in range(5):
                    x = nca.Element(alg, [scale * (loop_rng.standard_normal((n, n))
                                                   + 1j * loop_rng.standard_normal((n, n)))
                                          for n in blocks])
                    want.append(of_element(x).coords)
                assert got.shape == (5, alg.dim)
                assert np.array_equal(got, np.array(want))
                assert rng.standard_normal() == loop_rng.standard_normal()
