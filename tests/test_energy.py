"""Energy forms, Laplace operators, heat semigroups, resolvents, Markov and
Leibniz properties, trace symmetries, and the Dirichlet-form reconstruction."""
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import nca
from nca.algebra import (
    PiecewiseLinear,
    amplify_superop,
    from_cells,
    is_positive,
    matrix_direct_sum,
    random_element,
    random_positive_rows,
    random_self_adjoint_rows,
)
from nca.energy import (
    EnergyForm,
    _choi_blocks,
    _choi_flags,
    _markov_probes,
    _probe_resolvents,
    _seeded_knots,
    _seminorms,
)
from nca.errors import InputError, PropertyViolationError
from nca.resistance import random_network
from generators import clamp_above, double_commutator_generator

from conftest import K3_C, TWO_C, bench_lindblad_spec


@pytest.fixture(scope="module")
def k3_setup():
    alg = nca.build_algebra([1] * 3, [1.0] * 3)
    gamma = nca.network_cdc(alg, K3_C, scale=0.5)
    e = nca.energy_form(gamma)
    return alg, gamma, e, nca.laplacian(e)


@pytest.fixture(scope="module")
def lindblad_pair_setup(m2):
    vs = [m2.basis_element(1), m2.basis_element(2)]
    gamma = nca.commutator_cdc(vs)
    e = nca.energy_form(gamma)
    return m2, gamma, e, nca.laplacian(e)


# -- energy form -------------------------------------------------------------


def test_energy_values_network(k3_setup):
    alg, _, e, _ = k3_setup
    d0, d1 = alg.basis_element(0), alg.basis_element(1)
    assert e.value(d0, d1) == pytest.approx(-1.0)  # -c_xy
    assert e.value(d0, d0) == pytest.approx(2.0)
    assert abs(e.value(alg.identity(), d1)) < 1e-12


def test_energy_value_lindblad(m2):
    gamma = nca.commutator_cdc([m2.basis_element(1)])
    e = nca.energy_form(gamma)
    e11 = m2.basis_element(0)
    assert e.value(e11, e11) == pytest.approx(1.0)


def test_energy_form_refuses_non_cdc():
    alg = nca.build_algebra([1] * 3, [1.0] * 3)
    c = K3_C.copy()
    c[0, 1] = c[1, 0] = -0.5
    gamma = nca.network_cdc(alg, c, scale=0.5, allow_negative=True)
    with pytest.raises(PropertyViolationError):
        nca.energy_form(gamma)
    forced = nca.energy_form(gamma, force=True)
    assert forced.value(alg.basis_element(0), alg.basis_element(1)) == pytest.approx(0.5)


# -- laplacian ---------------------------------------------------------------


def test_network_laplacian_matrix(k3_setup):
    _, _, _, lap = k3_setup
    expected = np.diag(K3_C.sum(axis=1)) - K3_C
    assert np.abs(lap.matrix - expected).max() < 1e-12
    assert lap.kernel_dim == 1


def test_laplacian_reproduces_energy_on_basis(lindblad_pair_setup):
    alg, _, e, lap = lindblad_pair_setup
    for i in range(alg.dim):
        for j in range(alg.dim):
            a, b = alg.basis_element(i), alg.basis_element(j)
            assert abs(nca.tau_inner(a, lap.apply(b)) - e.value(a, b)) < 1e-10


def test_laplacian_is_double_commutator_sum(lindblad_pair_setup):
    alg, _, _, lap = lindblad_pair_setup
    vs = [alg.basis_element(1), alg.basis_element(2)]
    direct = double_commutator_generator(alg, vs)
    assert np.abs(lap.matrix - direct.matrix).max() < 1e-12


def test_laplacian_self_adjoint_and_positive(catalog):
    for ex in catalog:
        lap = nca.laplacian(nca.energy_form(ex.gamma))
        assert np.abs(lap.matrix - lap.matrix.conj().T).max() < 1e-10, ex.name
        eigs = np.linalg.eigh(lap.matrix)[0]
        # the stored matrix is exactly Hermitian, so its one eigh is this one
        assert np.array_equal(lap.eigenvalues, eigs), ex.name
        assert eigs[0] > -1e-9 * max(1.0, eigs[-1]), ex.name
        one = lap.algebra.identity()
        assert lap.apply(one).norm() < 1e-10, ex.name


def test_gamma_delta_network_matches_symmetrized(k3_setup):
    alg, gamma, _, lap = k3_setup
    gd = nca.gamma_delta(lap)
    assert np.abs(gd.gram - gamma.gram).max() < 1e-12
    assert gd.scale == 0.5


def test_gamma_delta_zero():
    alg = nca.build_algebra([2], [1.0])
    lap = nca.laplacian(EnergyForm(alg, np.zeros((4, 4))))
    assert nca.gamma_delta(lap).magnitude() == 0


def test_gamma_delta_pointwise_positive(m2):
    rng = np.random.default_rng(67)
    gamma = nca.commutator_cdc([random_element(m2, rng)])
    lap = nca.laplacian(nca.energy_form(gamma))
    gd = nca.gamma_delta(lap)
    for _ in range(10):
        a = random_element(m2, rng)
        assert is_positive(gd.value(a, a), tol=1e-9)
    assert nca.is_cdc(gd).is_cdc


def test_amplified_laplacian_is_tensor_with_identity(k3_setup, lindblad_pair_setup):
    for setup in (k3_setup, lindblad_pair_setup):
        _, gamma, _, lap = setup
        big_gamma = nca.amplify_cdc(gamma, 2)
        big_lap = nca.laplacian(nca.energy_form(big_gamma))
        tensor = amplify_superop(lap.superop, 2)
        assert np.abs(big_lap.matrix - tensor.matrix).max() < 1e-10


# -- matricial seminorms -----------------------------------------------------


def test_seminorm_basics(k3_setup):
    alg, _, e, _ = k3_setup
    assert e.seminorm(alg.identity()) == 0.0
    two = nca.build_algebra([1, 1], [1.0, 1.0])
    e2 = nca.energy_form(nca.network_cdc(two, TWO_C, scale=0.5))
    f = two.element([[[1.0]], [[0.0]]])
    assert e2.seminorm(f) == pytest.approx(1.0)


def test_l2_matricial_direct_sums(lindblad_pair_setup):
    alg, _, e, _ = lindblad_pair_setup
    rng = np.random.default_rng(71)
    for m, n in [(1, 1), (1, 2), (2, 2)]:
        v = random_element(alg.amplify(m) if m > 1 else alg, rng)
        w = random_element(alg.amplify(n) if n > 1 else alg, rng)
        v_amp = v if m > 1 else from_cells(alg, 1, [[v]])
        w_amp = w if n > 1 else from_cells(alg, 1, [[w]])
        both = matrix_direct_sum(alg, m, v_amp, n, w_amp)
        lhs = _seminorms(e, both.coords, m + n) ** 2
        rhs = _seminorms(e, v.coords, m) ** 2 + _seminorms(e, w.coords, n) ** 2
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def _scalar_matrix(alg, order, mat):
    cells = [
        [complex(mat[j, k]) * alg.identity() for k in range(order)]
        for j in range(order)
    ]
    return from_cells(alg, order, cells)


def test_normed_bimodule_bound(lindblad_pair_setup):
    alg, _, e, _ = lindblad_pair_setup
    rng = np.random.default_rng(73)
    order = 2
    for _ in range(10):
        alpha = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
        beta = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
        v = random_element(alg.amplify(order), rng)
        prod = _scalar_matrix(alg, order, alpha) * v * _scalar_matrix(alg, order, beta)
        lhs, norm_v = _seminorms(e, np.array([prod.coords, v.coords]), order)
        bound = np.linalg.norm(alpha, 2) * norm_v * np.linalg.norm(beta, 2)
        assert lhs <= bound + 1e-9 * (1 + bound)


# -- markov / leibniz ---------------------------------------------------------


def test_markov_affine_equality(k3_setup):
    _, _, e, _ = k3_setup
    alg = e.algebra
    rng = np.random.default_rng(79)
    a = alg.from_canonical_coords(random_self_adjoint_rows(alg, rng, 1)[0])
    shifted, lip = nca.functional_calculus(a, PiecewiseLinear((0.0, 1.0), (3.0, 4.0)))
    assert lip == 1.0
    assert abs(e.seminorm(shifted) - e.seminorm(a)) < 1e-10


def test_markov_two_point_clamp():
    two = nca.build_algebra([1, 1], [1.0, 1.0])
    e = nca.energy_form(nca.network_cdc(two, TWO_C, scale=0.5))
    f = two.element([[[2.0]], [[0.0]]])
    clamped, lip = nca.functional_calculus(f, clamp_above(1.0))
    assert e.seminorm(clamped) == pytest.approx(1.0)
    assert lip * e.seminorm(f) == pytest.approx(2.0)


def test_markov_and_leibniz_pass_on_catalog(catalog):
    for ex in catalog:
        e = nca.energy_form(ex.gamma)
        for res in nca.markov_check(nca.laplacian(e), seed=5, count=8):
            assert res.passed, (ex.name, res.check, res.witness)
        for res in nca.leibniz_check(e, seed=5, count=8):
            assert res.passed, (ex.name, res.check, res.witness)


def test_commutator_form_is_completely_markov():
    # a commutator form sum_j [v_j, a]* [v_j, b] is completely Markov, so
    # both orders pass; with each cell's scalar part left in, the rounding
    # of G 1 failed them at 6.1e-8 and 1.2e-7 against 1e-9
    alg = nca.build_algebra([3, 2, 1], [1.0, 0.5, 2.0])
    v = random_element(alg, np.random.default_rng(83))
    lap = nca.laplacian(nca.energy_form(nca.commutator_cdc([v, v.adjoint()])))
    for res in nca.markov_check(lap, seed=3):
        assert res.passed and res.residual <= 1e-12, (res.check, res.residual)


def test_markov_detects_negative_conductance():
    alg = nca.build_algebra([1] * 3, [1.0] * 3)
    c = np.array([[0.0, -0.1, 1.0], [-0.1, 0.0, 1.0], [1.0, 1.0, 0.0]])
    gamma = nca.network_cdc(alg, c, scale=0.5, allow_negative=True)
    e = nca.energy_form(gamma, force=True)
    net = nca.ResistanceNetwork(c, allow_negative=True)
    witness = nca.markov_violation_witness(net)
    clipped, lip = nca.functional_calculus(witness.f, witness.fn)
    lhs = e.seminorm(clipped)
    rhs = lip * e.seminorm(witness.f)
    assert lhs > rhs + 1e-6
    assert lhs ** 2 - rhs ** 2 == pytest.approx(witness.violation, rel=1e-9)


def seeded_three_knot(rng):
    """The seeded function of the default Markov battery, drawn on its own:
    three uniform xs on [-2, 2], sorted and redrawn while two lie within
    1e-3, then three ys."""
    xs = np.sort(rng.uniform(-2.0, 2.0, size=3))
    while np.diff(xs).min() < 1e-3:
        xs = np.sort(rng.uniform(-2.0, 2.0, size=3))
    ys = rng.uniform(-2.0, 2.0, size=3)
    return PiecewiseLinear(tuple(xs), tuple(ys))


def default_battery(rng=None):
    """The default Markov battery for one sample: the positive part, the
    absolute value, and, given ``rng``, one seeded three-knot function."""
    battery = [("relu", PiecewiseLinear.relu()), ("abs", PiecewiseLinear.absolute())]
    if rng is not None:
        battery.append(("seeded-3pt", seeded_three_knot(rng)))
    return battery


@pytest.mark.parametrize("seed, count, rejected", [
    (43, 20, [2]), (86, 20, [0]), (6822, 20, [1, 5]), (10269, 3, [0]), (5, 20, []),
])
def test_seeded_knots_match_per_function_draws(seed, count, rejected):
    # one (count, 6) draw, with each rejected triple cut and topped up,
    # reads the stream of one function drawn after the other, and leaves the
    # generator in the same state; 10269 rejects its first triple twice
    raw = np.sort(np.random.default_rng(seed).uniform(-2.0, 2.0, (count, 6))[:, :3], axis=1)
    assert list(np.flatnonzero(np.diff(raw, axis=1).min(axis=1) < 1e-3)) == rejected
    rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    xs, ys = _seeded_knots(rng, count)
    want = [seeded_three_knot(loop_rng) for _ in range(count)]
    assert np.array_equal(xs, [fn.xs for fn in want])
    assert np.array_equal(ys, [fn.ys for fn in want])
    assert rng.random() == loop_rng.random()


def _battery_forms():
    """A 6-node network, a Lindblad triple v, v*, h on M3, and a Lindblad
    pair on [3,2,1] with weights [1, 0.5, 2]."""
    rng = np.random.default_rng(83)
    net = random_network(6, rng)
    yield "network-6", nca.energy_form(nca.network_cdc(net.algebra, net.c, scale=0.5))
    m3 = nca.build_algebra([3], [1.0])
    v = random_element(m3, rng)
    yield "m3-triple", nca.energy_form(
        nca.commutator_cdc([v, v.adjoint(), 0.5 * (v + v.adjoint())])
    )
    mixed = nca.build_algebra([3, 2, 1], [1.0, 0.5, 2.0])
    v = random_element(mixed, rng)
    yield "321-pair", nca.energy_form(nca.commutator_cdc([v, v.adjoint()]))


def _elementwise(e, a, fn):
    """lhs and bound of the Markov inequality for one element and function."""
    fa, lip = nca.functional_calculus(a, fn)
    return e.seminorm(fa), lip * e.seminorm(a)


@pytest.mark.parametrize("name, e", list(_battery_forms()))
def test_batched_markov_matches_elementwise_definition(name, e):
    alg = e.algebra
    rng = np.random.default_rng(89)
    elements = [alg.from_canonical_coords(x) for x in random_self_adjoint_rows(alg, rng, 5)]
    battery = [
        ("relu", PiecewiseLinear.relu()),
        ("abs", PiecewiseLinear.absolute()),
        ("clamp", clamp_above(0.4)),
        ("kink", PiecewiseLinear((-1.0, 0.2, 1.5), (0.5, -0.1, 2.0))),
        ("identity", PiecewiseLinear((0.0, 1.0), (0.0, 1.0))),
    ]
    seed = 4
    # the battery runs on the given elements, then on the probes drawn from
    # the order-1 generator
    lap = nca.laplacian(e)
    probes = _markov_probes(lap, _probe_resolvents(lap), 1, np.random.default_rng(seed + 1))
    samples = elements + [alg.from_canonical_coords(x) for x in probes]
    pairs = [_elementwise(e, a, fn) for a in samples for _, fn in battery]
    reference = max(lhs - bound for lhs, bound in pairs)
    (res,) = nca.markov_check(lap, orders=(1,), seed=seed, elements=elements, battery=battery)
    assert res.check == "markov-n1" and res.passed, name
    assert abs(res.residual - max(reference, 0.0)) <= 1e-10, name

    # with every pair reported, the first ten witnesses are the first ten
    # (element, function) pairs in sample-major order
    (res,) = nca.markov_check(lap, orders=(1,), seed=seed, elements=elements, battery=battery,
                              tol=-np.inf)
    got = res.witness["violations"]
    assert [(v["element_index"], v["function"]) for v in got] == [
        (idx, fname) for idx in range(2) for fname, _ in battery
    ], name
    for v, (lhs, bound) in zip(got, pairs):
        assert abs(v["lhs"] - lhs) <= 1e-10 and abs(v["bound"] - bound) <= 1e-10, name

    # the default battery draws one seeded function per sample, after the probes
    draws = np.random.default_rng(seed + 1)
    _markov_probes(lap, _probe_resolvents(lap), 1, draws)
    expected = [
        (idx, fname, *_elementwise(e, a, fn))
        for idx, a in enumerate(samples)
        for fname, fn in default_battery(draws)
    ][:10]
    (res,) = nca.markov_check(lap, orders=(1,), seed=seed, elements=elements, tol=-np.inf)
    got = res.witness["violations"]
    assert [(v["element_index"], v["function"]) for v in got] == [x[:2] for x in expected]
    for v, (_, _, lhs, bound) in zip(got, expected):
        assert abs(v["lhs"] - lhs) <= 1e-10 and abs(v["bound"] - bound) <= 1e-10, name


def test_markov_witnesses_on_negative_conductance():
    alg = nca.build_algebra([1] * 3, [1.0] * 3)
    c = np.array([[0.0, -0.1, 1.0], [-0.1, 0.0, 1.0], [1.0, 1.0, 0.0]])
    e = nca.energy_form(nca.network_cdc(alg, c, scale=0.5, allow_negative=True), force=True)
    n1, n2 = nca.markov_check(nca.laplacian(e), seed=3)
    assert not n1.passed and not n2.passed

    def listed(res):
        return [(v["element_index"], v["function"]) for v in res.witness["violations"]]

    assert listed(n1) == [(20, "relu"), (20, "abs"), (21, "relu"), (21, "abs"),
                          (24, "relu"), (24, "abs"), (35, "relu"), (35, "abs"),
                          (36, "relu"), (36, "abs")]
    assert listed(n2) == [(20, "relu"), (20, "abs"), (21, "relu"), (21, "abs"),
                          (22, "relu"), (22, "abs"), (23, "relu"), (23, "abs"),
                          (27, "relu"), (27, "abs")]


def test_markov_rejects_non_self_adjoint_element(k3_setup):
    alg, _, _, lap = k3_setup
    skew = alg.element([[[1.0]], [[1j]], [[0.0]]])
    with pytest.raises(InputError):
        nca.markov_check(lap, orders=(1,), elements=[alg.identity(), skew])
    m2 = nca.build_algebra([2], [1.0])
    e2 = nca.energy_form(nca.commutator_cdc([m2.basis_element(1), m2.basis_element(2)]))
    with pytest.raises(InputError):
        nca.markov_check(nca.laplacian(e2), orders=(1,), elements=[m2.basis_element(1)])


# -- trace symmetries ---------------------------------------------------------


def test_reality_flags_detailed_balance(m2):
    one = nca.commutator_cdc([m2.basis_element(1)])
    both = nca.commutator_cdc([m2.basis_element(1), m2.basis_element(2)])
    assert not nca.reality_checks(one)["tau_real"]
    assert nca.reality_checks(both)["tau_real"]


def test_balanced_counterexample_m3():
    m3 = nca.build_algebra([3], [1.0])
    v = m3.element([np.diag([1.0, 1j, 0.0])])
    gamma = nca.commutator_cdc([v])
    flags = nca.reality_checks(gamma)
    assert flags["tau_real"] and not flags["tau_balanced"]
    assert flags["balanced_residual"] > 1e-6

    # the shift witness makes the pointwise balanced identity fail
    b = m3.element([np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]])])
    a = b.adjoint()
    lhs = (v * a.adjoint() - a.adjoint() * v) * (b * v.adjoint() - v.adjoint() * b)
    rhs = (a.adjoint() * v.adjoint() - v.adjoint() * a.adjoint()) * (v * b - b * v)
    assert (lhs - rhs).norm() > 1e-6

    # balanced iff the form equals the one regenerated from its Laplacian
    lap = nca.laplacian(nca.energy_form(gamma))
    regenerated = nca.gamma_delta(lap)
    assert np.abs(regenerated.gram - gamma.gram).max() > 1e-6


def test_symmetric_networks_are_balanced():
    rng = np.random.default_rng(83)
    alg = nca.build_algebra([1] * 4, [1.0] * 4)
    c = rng.uniform(0.0, 2.0, (4, 4))
    c = np.triu(c, 1)
    c = c + c.T
    gamma = nca.network_cdc(alg, c, scale=0.5)
    flags = nca.reality_checks(gamma)
    assert flags["tau_balanced"]
    lap = nca.laplacian(nca.energy_form(gamma))
    assert np.abs(nca.gamma_delta(lap).gram - gamma.gram).max() < 1e-9


def test_tau_real_iff_laplacian_preserves_involution(catalog):
    for ex in catalog:
        lap = nca.laplacian(nca.energy_form(ex.gamma))
        alg = ex.algebra
        gap = 0.0
        for i in range(alg.dim):
            a = alg.basis_element(i)
            gap = max(gap, lap.apply(a.adjoint()).distance(lap.apply(a).adjoint()))
        assert (gap < 1e-9) == ex.tau_real, ex.name


def test_trace_pairing_of_regenerated_form(catalog):
    # tau(Gamma_L(a, b)) = (E(a, b) + E(b*, a*)) / 2, with equality to E
    # exactly in the tau-real case
    for ex in catalog:
        e = nca.energy_form(ex.gamma)
        lap = nca.laplacian(e)
        regen = nca.gamma_delta(lap)
        adj = ex.algebra.adj_table
        symmetrized = 0.5 * (e.gram + e.gram[np.ix_(adj, adj)].T)
        assert np.abs(regen.tau_values - symmetrized).max() < 1e-9, ex.name
        if ex.tau_real:
            assert np.abs(regen.tau_values - e.gram).max() < 1e-9, ex.name


# -- heat semigroup -----------------------------------------------------------


def test_heat_identity_at_zero(k3_setup):
    _, _, _, lap = k3_setup
    phi, flags = nca.heat_map(lap, 0.0)
    assert np.abs(phi.matrix - np.eye(3)).max() < 1e-12
    assert flags["checks"][0].passed and flags["checks"][1].passed


def _choi_by_units(phi):
    """Reference Choi matrix: one pinch, apply and embed per matrix unit."""
    alg = phi.algebra
    n = alg.total_size
    choi = np.zeros((n * n, n * n), dtype=complex)
    for a in range(n):
        for b in range(n):
            unit = np.zeros((n, n))
            unit[a, b] = 1.0
            choi[a * n : (a + 1) * n, b * n : (b + 1) * n] = phi.apply(alg.pinch(unit)).full()
    return choi


def _choi_matrix(phi):
    """Dense reference Choi matrix, shape (n^2, n^2): pinch(E_ab) is zero
    unless a and b lie in one block; there it is the matrix unit i, so its
    image is column i of ``phi.matrix``, carried from the orthonormal to the
    canonical basis by sqrt(w_i) / sqrt(w_j)."""
    alg = phi.algebra
    n = alg.total_size
    rows, cols = alg.unit_positions
    choi = np.zeros((n, n, n, n), dtype=complex)
    choi[rows[:, None], rows[None, :], cols[:, None], cols[None, :]] = phi.canonical_matrix.T
    return choi.reshape(n * n, n * n)


def _dense_choi_flags(phi, tol=1e-9):
    """The eigenvalues and the complete-positivity flags from one
    ``eigvalsh`` of the dense Choi matrix."""
    choi = _choi_matrix(phi)
    skew = float(np.abs(choi - choi.conj().T).max())
    eigs = np.linalg.eigvalsh((choi + choi.conj().T) / 2)
    scale = max(1.0, float(np.abs(choi).max()))
    return eigs, {
        "cp": skew <= tol * scale and eigs[0] >= -tol * max(1.0, float(eigs[-1])),
        "choi_min_eigenvalue": float(eigs[0]),
        "choi_skew_residual": skew,
    }


def test_heat_choi_gathers_from_superop_matrix():
    rng = np.random.default_rng(97)
    mixed = nca.build_algebra([3, 2, 1], [1.0, 0.5, 2.0])
    v = random_element(mixed, rng)
    d_op = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    net = random_network(6, rng)
    # the Lindblad pair keeps each block to itself; the spectral triple
    # couples blocks of different weights
    for gamma in (
        nca.commutator_cdc([v, v.adjoint()]),
        nca.spectral_triple_cdc(d_op + d_op.conj().T, mixed),
        nca.network_cdc(net.algebra, net.c, scale=0.5),
    ):
        lap = nca.laplacian(nca.energy_form(gamma))
        for t in (0.0, 0.3, 2.0):
            phi, _ = nca.heat_map(lap, t)
            assert np.abs(_choi_matrix(phi) - _choi_by_units(phi)).max() <= 1e-14


def _maps_on(alg, rng):
    """Heat maps of random forms, CP or not (the second form is not
    tau-real); the blockwise transpose, not CP once a block has size >= 2;
    a random Hermiticity-preserving map, almost surely not CP; and a random
    map, whose Choi matrix is almost surely not Hermitian."""
    v = random_element(alg, rng)
    n = alg.total_size
    d_op = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    maps = []
    for gamma in (nca.commutator_cdc([v, v.adjoint()]), nca.commutator_cdc([v]),
                  nca.spectral_triple_cdc(d_op + d_op.conj().T, alg)):
        lap = nca.laplacian(nca.energy_form(gamma, force=True))
        maps.extend(nca.heat_semigroup(lap, t) for t in (0.0, 0.4, 3.0))
    transpose = np.zeros((alg.dim, alg.dim))
    transpose[alg.adj_table, np.arange(alg.dim)] = 1.0
    mat = rng.standard_normal((alg.dim, alg.dim)) + 1j * rng.standard_normal((alg.dim, alg.dim))
    raw = nca.SuperOperator(alg, mat)
    return maps + [nca.SuperOperator(alg, transpose), 0.5 * (raw + raw.sharp()), raw]


@settings(max_examples=25, deadline=None)
@given(blocks=st.sampled_from([[2, 2, 1], [1, 3, 1, 3], [1, 1, 1], [2, 1, 2], [3], [2, 2]]),
       weights=st.lists(st.floats(0.25, 4.0), min_size=4, max_size=4),
       seed=st.integers(0, 2**16))
def test_heat_choi_blocks_match_dense_choi(blocks, weights, seed):
    # the per-block-pair stacks hold the dense Choi matrix's spectrum, its
    # skew residual and its verdict, CP or not
    alg = nca.build_algebra(blocks, weights[:len(blocks)])
    rng = np.random.default_rng(seed)
    verdicts = set()
    for phi in _maps_on(alg, rng):
        want_eigs, want = _dense_choi_flags(phi)
        cp, got = _choi_flags(phi, 1e-9, "cp")
        stacks = _choi_blocks(phi)
        assert sum(c.shape[0] * c.shape[1] for c in stacks) == alg.total_size ** 2
        eigs = np.sort(np.concatenate(
            [np.linalg.eigvalsh((c + c.conj().swapaxes(1, 2)) / 2).reshape(-1) for c in stacks]))
        bound = 1e-12 * max(1.0, float(np.abs(want_eigs).max()))
        assert np.abs(eigs - want_eigs).max() <= bound
        assert abs(got["choi_min_eigenvalue"] - want["choi_min_eigenvalue"]) <= bound
        assert got["choi_skew_residual"] == want["choi_skew_residual"]
        assert cp.passed == want["cp"]
        verdicts.add(cp.passed)
    assert verdicts == {True, False}


def test_heat_two_point_closed_form():
    two = nca.build_algebra([1, 1], [1.0, 1.0])
    lap = nca.laplacian(nca.energy_form(nca.network_cdc(two, TWO_C, scale=0.5)))
    f = two.element([[[1.0]], [[0.0]]])
    for t in (0.0, 0.1, 1.0, 10.0):
        phi, flags = nca.heat_map(lap, t)
        got = np.array([m[0, 0] for m in phi.apply(f).data]).real
        expected = np.array([(1 + np.exp(-2 * t)) / 2, (1 - np.exp(-2 * t)) / 2])
        assert np.abs(got - expected).max() < 1e-10
        assert flags["checks"][0].passed and flags["checks"][1].passed


def test_heat_matches_independent_exponential(lindblad_pair_setup):
    _, _, _, lap = lindblad_pair_setup
    for t in (0.1, 0.7):
        phi, _ = nca.heat_map(lap, t)
        oracle = scipy.linalg.expm(-t * lap.matrix)
        assert np.abs(phi.matrix - oracle).max() < 1e-10


def test_heat_semigroup_law_and_generator(catalog):
    for ex in catalog:
        lap = nca.laplacian(nca.energy_form(ex.gamma)).natural()
        phi_s, _ = nca.heat_map(lap, 0.4)
        phi_t, _ = nca.heat_map(lap, 0.9)
        phi_st, _ = nca.heat_map(lap, 1.3)
        assert np.abs(phi_s.compose(phi_t).matrix - phi_st.matrix).max() < 1e-9, ex.name
        h = 1e-5
        phi_h, _ = nca.heat_map(lap, h)
        derivative = (phi_h.matrix - np.eye(lap.algebra.dim)) / h
        scale = max(1.0, np.abs(lap.matrix).max())
        assert np.abs(derivative + lap.matrix).max() < 1e-4 * scale, ex.name


def test_heat_rejects_negative_time(k3_setup):
    with pytest.raises(InputError):
        nca.heat_map(k3_setup[3], -0.1)
    with pytest.raises(InputError):
        nca.heat_semigroup(k3_setup[3], -0.1)


def test_heat_map_is_the_semigroup_with_flags(catalog):
    for ex in catalog:
        lap = nca.laplacian(nca.energy_form(ex.gamma))
        for t in (0.0, 0.3, 2.0):
            phi, _ = nca.heat_map(lap, t)
            assert np.array_equal(phi.matrix, nca.heat_semigroup(lap, t).matrix), ex.name


def test_heat_on_raw_involution_breaking_generator(m2):
    # the unmodified Laplacian of a non-tau-real form does not give a
    # positive semigroup; its symmetrized part does
    gamma = nca.commutator_cdc([m2.basis_element(1)])
    lap = nca.laplacian(nca.energy_form(gamma))
    _, flags_raw = nca.heat_map(lap, 1.0)
    assert not flags_raw["checks"][1].passed
    _, flags_nat = nca.heat_map(lap.natural(), 1.0)
    assert flags_nat["checks"][1].passed and flags_nat["checks"][0].passed


# -- resolvents ----------------------------------------------------------------


def test_resolvent_identity_at_zero(k3_setup):
    _, _, _, lap = k3_setup
    for res in nca.resolvent_check(lap, [0.0], orders=(1,), seed=1):
        assert res.passed


def test_resolvent_rejects_empty_or_negative_times(k3_setup):
    _, _, _, lap = k3_setup
    for ts in ([], (), np.array([]), [0.1, -1.0]):
        with pytest.raises(InputError):
            nca.resolvent_check(lap, ts)


def test_resolvent_k3_entrywise():
    alg = nca.build_algebra([1] * 3, [1.0] * 3)
    lap = nca.laplacian(nca.energy_form(nca.network_cdc(alg, K3_C, scale=0.5)))
    d1 = alg.basis_element(0)
    for t in (0.1, 1.0, 10.0):
        resolvent = np.linalg.inv(np.eye(3) + t * (np.diag(K3_C.sum(axis=1)) - K3_C))
        got = np.array([m[0, 0] for m in nca.SuperOperator(alg, resolvent).apply(d1).data])
        assert got.real.min() > 0
        # the library route through the superoperator agrees
        inv = np.linalg.inv(np.eye(3) + t * lap.matrix)
        assert np.abs(inv - resolvent).max() < 1e-12


def test_resolvent_checks_on_catalog(catalog):
    for ex in catalog:
        lap = nca.laplacian(nca.energy_form(ex.gamma)).natural()
        for res in nca.resolvent_check(lap, [0.0, 0.1, 1.0, 10.0], seed=3, count=4):
            assert res.passed, (ex.name, res.check, res.witness)


def _rank_one_laplacian():
    # L = v v^T with v = (1, -2, 1)/sqrt(6): a Laplacian whose resolvent is
    # not positive, R_t f = f - s <v, f> v with s = t / (1 + t)
    alg = nca.build_algebra([1] * 3, [1.0] * 3)
    v = np.array([1.0, -2.0, 1.0]) / np.sqrt(6.0)
    return alg, nca.laplacian(EnergyForm(alg, np.outer(v, v)))


def test_resolvent_witness_on_rank_one_laplacian():
    _, lap = _rank_one_laplacian()
    first = nca.resolvent_check(lap, (0.1, 1, 10))[0]
    assert not first.passed
    assert first.witness == {"order": 1, "t": 10.0, "kind": "positivity", "element_index": 0}


def test_resolvent_flags_violation_below_an_earlier_maximum(monkeypatch):
    # a large sample whose negative part eps stays under its bound
    # tol (1 + |a|), then a small sample whose smaller negative part exceeds
    # its own bound
    alg, lap = _rank_one_laplacian()
    t, c, eps, small = 10.0, 500.0, 5e-7, 1e-6
    s = t / (1.0 + t)
    samples = np.array([[2 * c + 6 * eps / s, c, 0.0],  # R_t f(2) = -eps
                        [small, 0.0, 0.0]], dtype=complex)  # R_t f(2) = -small s / 6
    monkeypatch.setattr(nca.energy, "random_positive_rows",
                        lambda algebra, rng, count: samples[:count])
    (res,) = nca.resolvent_check(lap, (t,), orders=(1,), count=2)
    assert not res.passed
    assert res.witness == {"order": 1, "t": 10.0, "kind": "positivity", "element_index": 1}
    assert res.residual == pytest.approx(eps, rel=1e-6)


# -- connectedness and reconstruction -----------------------------------------


def test_connectedness(catalog):
    for ex in catalog:
        lap = nca.laplacian(nca.energy_form(ex.gamma))
        assert nca.connectedness(lap) == ex.connected, ex.name
    two_edges = np.zeros((4, 4))
    two_edges[0, 1] = two_edges[1, 0] = 1.0
    two_edges[2, 3] = two_edges[3, 2] = 1.0
    alg = nca.build_algebra([1] * 4, [1.0] * 4)
    lap = nca.laplacian(nca.energy_form(nca.network_cdc(alg, two_edges, scale=0.5)))
    assert not nca.connectedness(lap)


def test_reconstruction_matches_gamma_delta(catalog):
    for ex in catalog:
        if not ex.tau_real:
            continue
        e = nca.energy_form(ex.gamma)
        rebuilt = nca.cdc_from_dirichlet_form(e, nca.laplacian(e), seed=7)
        direct = nca.gamma_delta(nca.laplacian(e))
        assert np.abs(rebuilt.gram - direct.gram).max() == 0, ex.name
        assert np.abs(rebuilt.tau_values - e.gram).max() < 1e-9, ex.name


def test_reconstruction_variance_form():
    # the variance form on two points is the standard-deviation energy form
    alg = nca.build_algebra([1, 1], [0.5, 0.5])
    d = alg.dim
    gram = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            a, b = alg.basis_element(i), alg.basis_element(j)
            mu_a = 0.5 * np.trace(a.adjoint().full())
            mu_b = 0.5 * np.trace(b.full())
            mu_ab = 0.5 * np.trace((a.adjoint() * b).full())
            gram[i, j] = mu_ab - mu_a * mu_b
    e = EnergyForm(alg, gram)
    gamma = nca.cdc_from_dirichlet_form(e, nca.laplacian(e), seed=9)
    p = alg.identity()
    expected = nca.independent_copies_cdc(alg, p)
    assert np.abs(gamma.gram - expected.gram).max() < 1e-10


def test_reconstruction_rejects_negative_conductance():
    alg = nca.build_algebra([1] * 3, [1.0] * 3)
    c = np.array([[0.0, -0.1, 1.0], [-0.1, 0.0, 1.0], [1.0, 1.0, 0.0]])
    gamma = nca.network_cdc(alg, c, scale=0.5, allow_negative=True)
    e = nca.energy_form(gamma, force=True)
    with pytest.raises(PropertyViolationError) as err:
        nca.cdc_from_dirichlet_form(e, nca.laplacian(e), seed=11)
    assert any(c.check.startswith("markov") for c in err.value.checks)


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_markov_check_peaks_below_is_cdc():
    # the stddev suite's battery on the seed-1 M5 spec of the benchmark's
    # lindblad_case: with all samples' products, the whole quadratic forms
    # and the three amplified probe resolvents held at once, its order-2 pass
    # peaked at 1.76 MiB, above the 1.37 MiB of is_cdc on the spec's form;
    # chunks of samples and one resolvent at a time bring it to 1.15 MiB
    spec = bench_lindblad_spec(5, seed=1)
    lap = nca.stddev_laplacian(nca.extend(spec.algebra, spec.weight_element))
    gamma = spec.generator["gamma"]
    markov = _traced_peak(lambda: nca.markov_check(lap, seed=spec.seed))
    assert markov < _traced_peak(lambda: nca.is_cdc(gamma))


def test_resolvent_check_holds_one_amplified_resolvent():
    # the heat suite's resolvent check on the seed-1 M5 spec of the
    # benchmark's lindblad_case: amplifying and applying the resolvents of
    # all four times as one stack peaked at 1.33 MiB, one time at a time
    # at 0.45 MiB
    spec = bench_lindblad_spec(5, seed=1)
    lap = nca.laplacian(nca.energy_form(spec.generator["gamma"]))
    peak = _traced_peak(lambda: nca.resolvent_check(lap, spec.times, seed=spec.seed))
    assert peak <= 0.6 * 2 ** 20
