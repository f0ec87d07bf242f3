"""Hodge-Dirac operators: the concrete one-form space, the derivation
factorization of the Laplacian, the commutator-norm formula, and the
star-graph characterization."""
import importlib
import tracemalloc

import numpy as np
import pytest

import nca
from nca.algebra import left_multiplication, random_element, random_rows, random_self_adjoint_rows
from nca.cdc import CdCForm, CdCReport, _cp_blocks
from nca.dirac import _moved_frames, _squared_norms
from nca.errors import DisconnectedError, InputError, PropertyViolationError
from nca.resistance import random_network, random_star_network

from conftest import K3_C, TWO_C, bench_lindblad_gamma, bench_network_c
from dense_bimodule import (act_left, commutator_norm, derivative_coords, dirac_matrix, pair_forms,
                            pair_projection, represent, squared_commutator_norms)


@pytest.fixture(scope="module")
def two_point_bimodule():
    alg = nca.build_algebra([1, 1], [1.0, 1.0])
    gamma = nca.network_cdc(alg, TWO_C, scale=0.5)
    return alg, gamma, nca.build_bimodule(gamma)


def test_zero_form_gives_empty_space(m2):
    gamma = nca.commutator_cdc([m2.identity()])
    bs = nca.build_bimodule(gamma)
    assert bs.rank == 0
    assert np.abs(dirac_matrix(bs)).max() == 0


def test_two_point_rank(two_point_bimodule):
    _, _, bs = two_point_bimodule
    assert bs.rank == 2  # one direction per ordered pair
    for value in bs.residuals.values():
        assert value < 1e-9


def test_derivative_inner_products_reproduce_form(m2):
    gamma = nca.commutator_cdc([m2.basis_element(1), m2.basis_element(2)])
    bs = nca.build_bimodule(gamma)
    d = m2.dim
    for i in range(d):
        for j in range(d):
            a, b = m2.basis_element(i), m2.basis_element(j)
            lhs = np.vdot(derivative_coords(bs, a), derivative_coords(bs, b))
            rhs = gamma.tau_values[i, j]
            assert abs(lhs - rhs) < 1e-10


def test_derivation_factorizes_laplacian(catalog):
    for ex in catalog:
        bs = nca.build_bimodule(ex.gamma)
        lap = nca.laplacian(nca.energy_form(ex.gamma))
        gap = np.abs(bs.dmatrix.conj().T @ bs.dmatrix - lap.matrix).max()
        assert gap < 1e-9, ex.name


def test_leibniz_rule_in_coordinates(catalog):
    # derivative of a product: d(ab) = (da) b + a (db), with the right action
    # realized through derivative coordinates of the product basis
    rng = np.random.default_rng(167)
    for ex in catalog:
        bs = nca.build_bimodule(ex.gamma)
        alg = ex.algebra
        for _ in range(4):
            a = random_element(alg, rng)
            b = random_element(alg, rng)
            lhs = derivative_coords(bs, a * b)
            # a (db): left action on the derivative
            first = act_left(bs, a) @ derivative_coords(bs, b)
            # (da) b: right multiplication is pushed through the universal
            # picture via d(ab) - a(db)
            rhs = first + _right_derivative(bs, a, b)
            assert np.abs(lhs - rhs).max() < 1e-9 * (1 + np.abs(lhs).max()), ex.name


def _right_derivative(bs, a, b):
    """(da) b in quotient coordinates, assembled from the universal model:
    (da) b has product-basis coordinates (a x 1 - 1 x a) placed against b."""
    alg = bs.algebra
    d = alg.dim
    mul = alg.mul_table
    coords_a = alg.canonical_coords(a)
    coords_b = alg.canonical_coords(b)
    diag_units = alg.diagonal_units
    vec = np.zeros(d * d, dtype=complex)
    # (e_i x e_u - e_u x e_i) b = sum over products with b's coordinates
    for i in range(d):
        if coords_a[i] == 0:
            continue
        for j in range(d):
            if coords_b[j] == 0:
                continue
            for u in diag_units:
                k = mul[u, j]
                if k >= 0:
                    vec[i * d + k] += coords_a[i] * coords_b[j]
                k2 = mul[i, j]
                if k2 >= 0:
                    vec[u * d + k2] -= coords_a[i] * coords_b[j]
    return pair_forms(bs) @ vec


def test_dirac_matrix_shape_and_selfadjointness(two_point_bimodule):
    _, _, bs = two_point_bimodule
    m = dirac_matrix(bs)
    assert m.shape == (bs.algebra.dim + bs.rank,) * 2
    assert np.abs(m - m.conj().T).max() == 0
    grading = np.diag([1.0] * bs.algebra.dim + [-1.0] * bs.rank)
    assert np.abs(grading @ m + m @ grading).max() == 0


def test_dirac_square_spectrum_matches_laplacian():
    alg = nca.build_algebra([1] * 3, [1.0] * 3)
    gamma = nca.network_cdc(alg, K3_C, scale=0.5)
    bs = nca.build_bimodule(gamma)
    lap = nca.laplacian(nca.energy_form(gamma))
    square = dirac_matrix(bs) @ dirac_matrix(bs)
    restricted = square[: alg.dim, : alg.dim]
    assert np.abs(restricted - lap.matrix).max() < 1e-10


def test_seminorm_vanishes_on_unit(two_point_bimodule):
    _, _, bs = two_point_bimodule
    op = nca.DiracOperator(bs)
    assert nca.dirac_seminorm(op, bs.algebra.identity()).value < 1e-12


def test_seminorm_one_sided_case(m2):
    gamma = nca.commutator_cdc([m2.basis_element(1)])
    op = nca.DiracOperator(nca.build_bimodule(gamma))
    v = m2.basis_element(1)
    result = nca.dirac_seminorm(op, v)
    # the derivative of v vanishes but the derivative of v* does not, so the
    # seminorm is carried entirely by the adjoint side of the max
    assert gamma.value(v, v).norm() < 1e-12
    assert gamma.value(v.adjoint(), v.adjoint()).norm() > 0.5
    assert result.value == pytest.approx(1.0, abs=1e-10)
    assert result.residual < 1e-8


def test_seminorm_sup_formula_two_point():
    alg = nca.build_algebra([1, 1], [1.0, 1.0])
    gamma = nca.network_cdc(alg, TWO_C, scale=1.0)
    op = nca.DiracOperator(nca.build_bimodule(gamma))
    f = alg.element([[[1.0]], [[0.0]]])
    assert nca.dirac_seminorm(op, f).value == pytest.approx(1.0, abs=1e-10)


def test_seminorm_star_invariance_and_formula(catalog):
    rng = np.random.default_rng(173)
    for ex in catalog:
        op = nca.DiracOperator(nca.build_bimodule(ex.gamma))
        for _ in range(5):
            a = random_element(ex.algebra, rng)
            res = nca.dirac_seminorm(op, a)
            res_star = nca.dirac_seminorm(op, a.adjoint())
            assert abs(res.value - res_star.value) < 1e-9 * (1 + res.value), ex.name
            assert res.residual < 1e-8 * (1 + res.value), ex.name


def test_seminorm_leibniz(catalog):
    rng = np.random.default_rng(179)
    for ex in catalog[:4]:
        op = nca.DiracOperator(nca.build_bimodule(ex.gamma))
        for _ in range(4):
            a = random_element(ex.algebra, rng)
            b = random_element(ex.algebra, rng)
            lhs = nca.dirac_seminorm(op, a * b).value
            bound = (
                nca.dirac_seminorm(op, a).value * b.norm()
                + a.norm() * nca.dirac_seminorm(op, b).value
            )
            assert lhs <= bound + 1e-9 * (1 + bound), ex.name


def test_commutator_norm_matches_full_commutator():
    # the norm taken from the two off-diagonal blocks equals the norm of the
    # whole (d + r) x (d + r) commutator
    rng = np.random.default_rng(199)
    net = random_network(6, rng)
    m3 = nca.build_algebra([3], [1.0])
    v = random_element(m3, rng)
    mixed = nca.build_algebra([3, 2, 1], [1.0, 0.5, 2.0])
    w = random_element(mixed, rng)
    forms = [
        nca.network_cdc(net.algebra, net.c, scale=0.5),
        nca.commutator_cdc([v, v.adjoint(), m3.from_canonical_coords(random_self_adjoint_rows(m3, rng, 1)[0])]),
        nca.commutator_cdc([w, w.adjoint()]),
    ]
    for gamma in forms:
        op = nca.DiracOperator(nca.build_bimodule(gamma))
        for k in range(10):
            sample = random_self_adjoint_rows if k % 2 else random_rows
            a = gamma.algebra.from_canonical_coords(sample(gamma.algebra, rng, 1)[0])
            pi = represent(op.bimodule, a)
            dm = dirac_matrix(op.bimodule)
            full = np.linalg.norm(dm @ pi - pi @ dm, 2)
            assert abs(commutator_norm(op.bimodule, a) - full) <= 1e-12 * full, gamma.algebra.blocks


def test_network_commutator_norm_closed_forms():
    # independent oracle: on a network at scale 1 the squared commutator
    # norm of delta sums has an explicit max formula in the conductances
    rng = np.random.default_rng(193)
    for _ in range(3):
        net = random_network(4, rng)
        c = net.c
        hat = c.sum(axis=1)
        gamma = nca.network_cdc(net.algebra, c, scale=1.0)
        op = nca.DiracOperator(nca.build_bimodule(gamma))
        eye = np.eye(net.size)
        for p in range(net.size):
            for q in range(p + 1, net.size):
                m_pq = max(
                    c[x, p] + c[x, q]
                    for x in range(net.size)
                    if x not in (p, q)
                )
                f = net.function(eye[p])
                g = net.function(eye[q])
                plus = nca.dirac_seminorm(op, f + g).value ** 2
                minus = nca.dirac_seminorm(op, f - g).value ** 2
                expected_plus = max(max(hat[p], hat[q]) - c[p, q], m_pq)
                expected_minus = max(max(hat[p], hat[q]) + 3 * c[p, q], m_pq)
                assert plus == pytest.approx(expected_plus, abs=1e-8)
                assert minus == pytest.approx(expected_minus, abs=1e-8)
                assert nca.dirac_seminorm(op, f).value ** 2 == pytest.approx(hat[p], abs=1e-8)


def test_network_commutator_norm_sup_formula():
    # the seminorm of a random real function is the sup over nodes of the
    # square root of the local quadratic dispersion
    rng = np.random.default_rng(197)
    net = random_network(5, rng)
    gamma = nca.network_cdc(net.algebra, net.c, scale=1.0)
    op = nca.DiracOperator(nca.build_bimodule(gamma))
    for _ in range(5):
        vals = rng.standard_normal(net.size)
        f = net.function(vals)
        expected = max(
            np.sqrt(sum(abs(vals[x] - vals[y]) ** 2 * net.c[x, y] for x in range(net.size)))
            for y in range(net.size)
        )
        assert nca.dirac_seminorm(op, f).value == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("blocks, weights", [([3], [1.0]), ([3, 2, 1], [1.0, 0.5, 2.0])])
def test_left_action_matches_product_route(blocks, weights):
    # act_left(e_i) @ pair_forms == pair_forms @ M_i @ P, with M_i the
    # d^2 x d^2 matrix of e_a (x) e_c -> e_i e_a (x) e_c and P that of
    # e_a (x) e_c -> e_a (x) e_c - 1 (x) e_a e_c
    alg = nca.build_algebra(blocks, weights)
    rng = np.random.default_rng(29)
    bs = nca.build_bimodule(nca.commutator_cdc([random_element(alg, rng) for _ in range(2)]))
    d = alg.dim
    cols = np.arange(d)
    proj = pair_projection(alg)
    pairs = pair_forms(bs)
    for i in range(d):
        lprod = np.zeros((d * d, d * d))
        for a in range(d):
            k = alg.mul_table[i, a]
            if k >= 0:
                lprod[k * d + cols, a * d + cols] = 1.0
        expected = pairs @ lprod @ proj
        assert np.abs(act_left(bs, alg.basis_element(i)) @ pairs - expected).max() < 1e-14


def _leaking_form(blocks):
    """Gamma(a, b) = X(a)* X(b) with X(a) = a - tr(a)/n: positive and
    unit-annihilating, but X is no derivation, so left multiplication moves
    null pairs out of the null space."""
    alg = nca.build_algebra(blocks, [1.0] * len(blocks))
    n = alg.total_size
    emb = alg.embedded_basis
    x = emb - (np.trace(emb, axis1=1, axis2=2) / n)[:, None, None] * np.eye(n)
    rows, cols = alg.unit_positions
    return CdCForm(alg, (x.conj().transpose(0, 2, 1)[:, None] @ x[None])[:, :, rows, cols])


@pytest.mark.parametrize("blocks", [[2], [3], [2, 1]])
def test_null_space_invariance_detects_a_leaking_form(monkeypatch, blocks):
    # let the leaking form past is_cdc
    dense_bimodule = importlib.import_module("dense_bimodule")
    gamma = _leaking_form(blocks)
    assert not nca.is_cdc(gamma).star_representation
    passing = CdCReport(True, True, True, True)
    for module in (importlib.import_module("nca.dirac"), dense_bimodule):
        monkeypatch.setattr(module, "is_cdc", lambda g, tol: passing)
    assert nca.build_bimodule(gamma).residuals["null_space_invariance"] > 0.1
    ref = dense_bimodule.dense_build_bimodule(gamma)
    assert ref["residuals"]["null_space_invariance"] > 0.1


def test_bimodule_requires_cdc():
    alg = nca.build_algebra([1] * 3, [1.0] * 3)
    c = K3_C.copy()
    c[0, 1] = c[1, 0] = -0.4
    gamma = nca.network_cdc(alg, c, scale=0.5, allow_negative=True)
    with pytest.raises(PropertyViolationError):
        nca.build_bimodule(gamma)


def test_star_graph_flags():
    rng = np.random.default_rng(181)
    star = random_star_network(4, rng)
    out = nca.star_graph_check(star)
    assert out["is_star"] and out["parallelogram_holds"]

    k3 = nca.ResistanceNetwork(K3_C)
    out = nca.star_graph_check(k3)
    assert not out["is_star"] and not out["parallelogram_holds"]

    two = nca.ResistanceNetwork(np.array([[0.0, 1.0], [1.0, 0.0]]))
    out = nca.star_graph_check(two)
    assert out["is_star"] and out["parallelogram_holds"]


@pytest.mark.parametrize("size", [6, 8, 12, 16])
def test_star_graph_batched_norms_match_commutator_norm(size):
    # each squared norm read off the conductances, and each read off the
    # point-mass Gram table, agrees with the commutator route, for point
    # masses, delta_p +- delta_q and random f
    rng = np.random.default_rng(200 + size)
    net = random_network(size, rng)
    gamma = nca.network_cdc(net.algebra, net.c, scale=0.5)
    op = nca.DiracOperator(nca.build_bimodule(gamma))
    values = rng.standard_normal((3, size))
    eye = np.eye(size)
    p, q = np.triu_indices(size, 1)
    functions = np.concatenate([eye, eye[p] + eye[q], eye[p] - eye[q], values])
    l2 = _squared_norms(net.c, functions, 0.5)
    gram = squared_commutator_norms(op.bimodule, values)
    assert len(l2) == len(gram) == len(functions)
    for got, got_gram, vals in zip(l2, gram, functions):
        want = commutator_norm(op.bimodule, net.function(vals)) ** 2
        assert abs(got - want) <= 1e-12 * want
        assert abs(got_gram - want) <= 1e-12 * want

    # the claim that lets one block stand for both: for real f the blocks
    # d L_f - A_f d and d* A_f - L_f d* have equal 2-norms
    dm = op.bimodule.dmatrix
    for vals in values:
        f = net.function(vals)
        left = left_multiplication(net.algebra, f).matrix
        act = act_left(op.bimodule, f)
        first = np.linalg.norm(dm @ left - act @ dm, 2)
        second = np.linalg.norm(dm.conj().T @ act - left @ dm.conj().T, 2)
        assert abs(first - second) <= 1e-12 * first


def test_star_graph_rejects_disconnected_network():
    c = np.zeros((4, 4))
    c[0, 1] = c[1, 0] = c[2, 3] = c[3, 2] = 1.0
    with pytest.raises(DisconnectedError):
        nca.star_graph_check(nca.ResistanceNetwork(c))


def test_star_graph_rejects_negative_conductance():
    # the network form is built without allow_negative, so it refuses the
    # conductances of an allow_negative network
    c = K3_C.copy()
    c[0, 1] = c[1, 0] = -0.4
    with pytest.raises(InputError, match="allow_negative"):
        nca.star_graph_check(nca.ResistanceNetwork(c, allow_negative=True))


def test_star_graph_scale_independent():
    rng = np.random.default_rng(191)
    star = random_star_network(5, rng)
    k4 = random_network(4, rng)
    for net in (star, k4):
        half = nca.star_graph_check(net, scale=0.5)
        unit = nca.star_graph_check(net, scale=1.0)
        assert half["parallelogram_holds"] == unit["parallelogram_holds"]
        assert half["is_star"] == unit["is_star"]


def test_spectral_triple_round_trip_changes_dirac():
    # starting from the two-point metric-space operator, the rebuilt
    # Hodge-Dirac operator generates a genuinely different seminorm scale:
    # the commutator form squares the couplings
    rho = 2.0  # distance between the two points
    alg = nca.build_algebra([1, 1], [0.5, 0.5])
    coupling = 1.0 / rho
    d_initial = np.array([[0.0, coupling], [coupling, 0.0]])
    gamma = nca.spectral_triple_cdc(d_initial, alg)
    f = alg.element([[[1.0]], [[0.0]]])
    # the original operator gives |f(x)-f(y)| / rho = 1/2
    original = np.linalg.norm(d_initial @ np.diag([1.0, 0.0]) - np.diag([1.0, 0.0]) @ d_initial, 2)
    assert original == pytest.approx(0.5)
    rebuilt = nca.DiracOperator(nca.build_bimodule(gamma))
    new_norm = nca.dirac_seminorm(rebuilt, f).value
    # rebuilt seminorm sees c^2 = 1/4 under the square root
    assert new_norm == pytest.approx(0.5, abs=1e-10)
    # with rho = 1/c != 1 the two operators differ in spectrum size
    assert dirac_matrix(rebuilt.bimodule).shape != d_initial.shape


def test_seminorm_of_near_scalars_has_no_form_rounding():
    # Gamma(1, 1) is rounding, and its square root used to put ~1e-8 into
    # the form side; the identity component is removed before both sides
    rng = np.random.default_rng(61)
    net = random_network(6, rng)
    m3 = nca.build_algebra([3], [1.0])
    v = random_element(m3, rng)
    mixed = nca.build_algebra([3, 2, 1], [1.0, 0.5, 2.0])
    w = random_element(mixed, rng)
    forms = [
        nca.network_cdc(net.algebra, net.c, scale=0.5),
        nca.commutator_cdc([v, v.adjoint()]),
        nca.commutator_cdc([w, w.adjoint()]),
    ]
    for gamma in forms:
        op = nca.DiracOperator(nca.build_bimodule(gamma))
        one = gamma.algebra.identity()
        at_one = nca.dirac_seminorm(op, one)
        assert at_one.value == at_one.from_form == at_one.residual == 0.0
        near = nca.dirac_seminorm(op, one + 1e-6 * random_element(gamma.algebra, rng))
        assert near.value > 1e-7
        assert near.residual <= 1e-12 * near.value, gamma.algebra.blocks


def test_build_bimodule_holds_no_action_stack():
    # the seed-7 N=24 network of the benchmark's network_case: one
    # (d, rank, rank) complex stack of the left action would be 54.6 MiB, the
    # (d, r_b, r_b) stacks of it per block 2.33 MiB together, one (rank, d, d)
    # array of the pairs 3.39 MiB and one (N^2, N^2) Gram table of the
    # point-mass commutator blocks 5.06 MiB
    c = bench_network_c(24)
    gamma = nca.network_cdc(nca.build_algebra([1] * 24, [1.0] * 24), c, scale=0.5)
    tracemalloc.start()
    try:
        bs = nca.build_bimodule(gamma)
        build_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    net = nca.ResistanceNetwork(c)
    tracemalloc.start()
    try:
        nca.star_graph_check(net)
        star_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    d = gamma.algebra.dim
    assert bs.rank == 386
    assert all(len(entry) == 3 for entry in bs.action)
    for start, units, comm in bs.action:
        assert isinstance(start, int) and units.shape == (1, 1)
        assert comm.shape == (d, comm.shape[1], 1)
    assert build_peak < sum(d * comm.shape[1] ** 2 * 16 for *_, comm in bs.action)
    assert build_peak < d * bs.rank ** 2 * 16 / 2
    assert build_peak < bs.rank * d * d * 16
    assert star_peak < d ** 4 * 16


def _chunk_forms(catalog):
    """``(name, form, report)``: the catalog forms, the seed-1 M5 form of the
    benchmark's lindblad_case, a form on [3, 2, 1] with unequal weights, the
    seed-7 N=12 network and the leaking form on [2, 1] with a passing
    ``is_cdc`` report, whose null-space residual is not rounding."""
    mixed = nca.build_algebra([3, 2, 1], [1.0, 0.5, 2.0])
    rng = np.random.default_rng(31)
    net = nca.build_algebra([1] * 12, [1.0] * 12)
    return [(ex.name, ex.gamma, None) for ex in catalog] + [
        ("lindblad-M5-seed1", bench_lindblad_gamma(5, seed=1), None),
        ("3-2-1", nca.commutator_cdc([random_element(mixed, rng) for _ in range(2)]), None),
        ("network-N12", nca.network_cdc(net, bench_network_c(12), scale=0.5), None),
        ("leaking-2-1", _leaking_form([2, 1]), CdCReport(True, True, True, True)),
    ]


def test_moved_frame_boxes_are_exact(monkeypatch, catalog):
    # every unit is its own product of a batch, so chunks of one unit, of
    # part of a row, of rows and of blocks give the entries of one chunk per
    # block size, and cover each unit once
    for name, gamma, _ in _chunk_forms(catalog):
        alg = gamma.algebra
        for (n_b, cols), cp in zip(alg.size_groups, _cp_blocks(alg, gamma.gram)):
            vals, vecs = np.linalg.eigh(cp)
            for q in range(len(cols)):
                keep = vals[q] > 1e-9 * vals[q, -1]
                unit_entries = int(keep.sum()) * len(vals[q])
                frames = {}
                for per in (None, 1, 2, 5, 11):
                    budget = (alg.dim if per is None else per) * unit_entries
                    monkeypatch.setattr(nca.dirac, "_FRAME_CHUNK", budget)
                    boxes = list(_moved_frames(alg, n_b, cols[q], vecs[q], keep))
                    units = np.concatenate([box for box, _ in boxes])
                    assert np.array_equal(np.sort(units), np.arange(alg.dim)), (name, per)
                    frames[per] = np.concatenate([frame for _, frame in boxes])[np.argsort(units)]
                    assert np.array_equal(frames[per], frames[None]), (name, per)


def test_frame_chunks_are_exact(monkeypatch, catalog):
    # a chunk of one entry holds one unit of the moved frame
    forms = _chunk_forms(catalog)
    whole = [nca.build_bimodule(gamma, report=report) for _, gamma, report in forms]
    monkeypatch.setattr(nca.dirac, "_FRAME_CHUNK", 1)
    for (name, gamma, report), expected in zip(forms, whole):
        bs = nca.build_bimodule(gamma, report=report)
        assert np.array_equal(bs.dmatrix, expected.dmatrix), name
        assert len(bs.action) == len(expected.action), name
        for (start, units, comm), (start0, units0, comm0) in zip(bs.action, expected.action):
            assert start == start0 and np.array_equal(units, units0), name
            assert np.array_equal(comm, comm0), name
        assert bs.residuals == expected.residuals, name
    assert whole[-1].residuals["null_space_invariance"] > 0.1


def test_build_bimodule_peak_is_cp_block_sized():
    # the seed-7 M6 form of the benchmark's lindblad_case: its moved frame
    # (d, r, d n_b) = (36, 18, 216) is 2.14 MiB complex, and the build held
    # four to five of them (10.3 MiB); the complete-positivity block
    # (d n_b)^2 is 0.71 MiB, and _cp_blocks with eigh peak at 1.43 MiB
    gamma = bench_lindblad_gamma(6)
    report = nca.is_cdc(gamma)
    tracemalloc.start()
    try:
        bs = nca.build_bimodule(gamma, report=report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    d_nb = gamma.algebra.dim * 6
    assert [comm.shape[1] for *_, comm in bs.action] == [18]
    assert peak < 4 * d_nb ** 2 * 16
