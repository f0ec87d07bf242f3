"""Schur-complement quotients of energy forms by central projections."""
import json

import numpy as np
import pytest

import nca
from nca.algebra import encode_element, random_element
from nca.cli import main, run_command
from nca.energy import energy_form_of_laplacian
from nca.errors import DisconnectedError, InputError
from nca.fileio import parse_spec
from nca.quotient import central_projection
from nca.resistance import random_network

from conftest import K3_C, _bench_workloads


def _restrict(qd, a):
    """pa, viewed in the quotient algebra."""
    return qd.algebra_b.from_canonical_coords(a.coords[qd.idx_b])


@pytest.fixture(scope="module")
def k3_split():
    alg = nca.build_algebra([1] * 3, [1.0] * 3)
    lap = nca.laplacian(nca.energy_form(nca.network_cdc(alg, K3_C, scale=0.5)))
    p = central_projection(alg, [0, 1])
    return alg, lap, nca.split(lap, p)


@pytest.mark.parametrize("count", [0, -2])
def test_quotient_checks_reject_a_count_below_one(k3_split, count):
    with pytest.raises(InputError, match=f"got {count}"):
        nca.quotient_checks(k3_split[2], count=count)


def test_split_blocks(k3_split):
    _, _, qd = k3_split
    assert np.abs(qd.r_block - np.array([[2.0, -1], [-1, 2]])).max() == 0
    assert np.abs(qd.j_block - np.array([[-1.0, -1]])).max() == 0
    assert np.abs(qd.s_block - np.array([[2.0]])).max() == 0
    assert qd.algebra_b.blocks == (1, 1)
    assert qd.algebra_c.blocks == (1,)


def test_split_guards(k3_split):
    alg, lap, _ = k3_split
    with pytest.raises(InputError):
        nca.split(lap, alg.identity())  # not proper
    with pytest.raises(InputError):
        nca.split(lap, 0.5 * alg.identity())  # not idempotent
    # block indices are integers: 0.9, 1.5, 1.0 and True are not coerced
    for bad in ([], [0.9], [1.5], [1.0], [True], [0, 3], [-1]):
        with pytest.raises(InputError):
            central_projection(alg, bad)


def test_split_noncentral_rejected(m2):
    gamma = nca.commutator_cdc([m2.basis_element(1), m2.basis_element(2)])
    lap = nca.laplacian(nca.energy_form(gamma))
    e11 = m2.basis_element(0)  # a projection, but not central in M2
    with pytest.raises(InputError):
        nca.split(lap, e11)


def test_split_singular_coupled_corner_surfaces():
    # eliminating a whole disconnected summand together with part of the
    # kept component leaves a singular, genuinely coupled corner
    c = np.zeros((5, 5))
    c[0, 1] = c[1, 0] = 1.0
    c[0, 2] = c[2, 0] = 1.0
    c[1, 2] = c[2, 1] = 1.0
    c[3, 4] = c[4, 3] = 1.0
    alg = nca.build_algebra([1] * 5, [1.0] * 5)
    lap = nca.laplacian(nca.energy_form(nca.network_cdc(alg, c, scale=0.5)))
    with pytest.raises(DisconnectedError):
        nca.split(lap, central_projection(alg, [0]))


def test_schur_value_k3(k3_split):
    _, _, qd = k3_split
    expected = np.array([[1.5, -1.5], [-1.5, 1.5]])
    assert np.abs(qd.quotient_laplacian.matrix - expected).max() < 1e-14
    one_b = qd.algebra_b.identity()
    assert qd.quotient_laplacian.apply(one_b).norm() < 1e-12
    assert nca.connectedness(qd.quotient_laplacian)
    # effective conductance 3/2 is consistent with the resistance 2/3
    assert nca.resistance_distance(nca.ResistanceNetwork(K3_C), 0, 1) == pytest.approx(2 / 3)


def test_quotient_of_direct_sum_is_untouched_block():
    c = np.zeros((5, 5))
    c[0, 1] = c[1, 0] = 2.0
    c[0, 2] = c[2, 0] = 1.0
    c[1, 2] = c[2, 1] = 1.0
    c[3, 4] = c[4, 3] = 5.0
    alg = nca.build_algebra([1] * 5, [1.0] * 5)
    lap = nca.laplacian(nca.energy_form(nca.network_cdc(alg, c, scale=0.5)))
    p = central_projection(alg, [3, 4])
    qd = nca.split(lap, p)
    # J = 0: the summand passes through unchanged, and S stays invertible
    # because the complement is connected on its own
    assert np.abs(qd.j_block).max() == 0
    assert np.abs(qd.quotient_laplacian.matrix - 5.0 * np.array([[1.0, -1], [-1, 1]])).max() < 1e-12


def test_quotient_keeps_the_rank_cut():
    # a path 0-1-2-3 whose last edge is 1e-6: with node 2 eliminated, the
    # quotient's weak direction is kept at the default cut and cut at 1e-3,
    # as the ambient's is
    c = np.zeros((4, 4))
    for x, y, value in ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1e-6)):
        c[x, y] = c[y, x] = value
    alg = nca.build_algebra([1] * 4, [1.0] * 4)
    energy = nca.energy_form(nca.network_cdc(alg, c, scale=0.5))
    for rank_tol, connected in ((nca.algebra.DEFAULT_RANK_TOL, True), (1e-3, False)):
        lap = nca.laplacian(energy, rank_tol=rank_tol)
        quot = nca.split(lap, central_projection(alg, [0, 1, 3])).quotient_laplacian
        assert quot.rank_tol == lap.rank_tol
        assert nca.connectedness(lap) == nca.connectedness(quot) == connected


def test_fiber_minimizer_values(k3_split):
    _, _, qd = k3_split
    one_b = qd.algebra_b.identity()
    lift = nca.fiber_minimizer(qd, one_b)
    assert lift.distance(qd.ambient.algebra.identity()) < 1e-12
    b = qd.algebra_b.element([[[1.0]], [[0.0]]])
    lift = nca.fiber_minimizer(qd, b)
    vals = [m[0, 0].real for m in lift.data]
    assert vals == pytest.approx([1.0, 0.0, 0.5])


def test_completed_square_identity(k3_split):
    alg, lap, qd = k3_split
    e = energy_form_of_laplacian(lap)
    e_b = energy_form_of_laplacian(qd.quotient_laplacian)
    rng = np.random.default_rng(137)
    for _ in range(10):
        b = random_element(qd.algebra_b, rng)
        c = random_element(qd.algebra_c, rng)
        coords = np.empty(alg.dim, dtype=complex)
        coords[qd.idx_b], coords[qd.idx_c] = b.coords, c.coords
        a = alg.from_canonical_coords(coords)  # b (+) c
        b_coords = qd.algebra_b.to_coords(b)
        c_coords = qd.algebra_c.to_coords(c)
        shift = np.linalg.solve(qd.s_block, qd.j_block @ b_coords) + c_coords
        expected = e_b.value(b, b).real + (shift.conj() @ qd.s_block @ shift).real
        assert e.value(a, a).real == pytest.approx(expected, abs=1e-9)


def test_quotient_seminorm_monotone(k3_split):
    alg, lap, qd = k3_split
    e = energy_form_of_laplacian(lap)
    e_b = energy_form_of_laplacian(qd.quotient_laplacian)
    rng = np.random.default_rng(139)
    for _ in range(15):
        a = random_element(alg, rng)
        quotient_norm = e_b.seminorm(_restrict(qd, a))
        assert quotient_norm <= e.seminorm(a) + 1e-10


def test_quotient_checks_k3(k3_split):
    _, _, qd = k3_split
    results = nca.quotient_checks(qd, seed=3, count=10)
    for res in results:
        assert res.passed, (res.check, res.witness)


def test_seed_30_network_n12_ambient_form_is_markov():
    # a Dirichlet form on a commutative algebra is completely Markov: the
    # network-N12 spec of the benchmark's network-suite at seed 30 failed
    # ambient-markov-n2 at 6.0e-9 while each cell kept its scalar part
    w = _bench_workloads()
    rng = np.random.default_rng(30)
    (spec,) = [c["spec"] for c in [w.network_case(rng, n) for n in w.NETWORK_SIZES]
               if c["name"] == "network-N12"]
    checks = run_command("quotient", parse_spec(spec))["checks"]
    assert [c["check"] for c in checks if not c["passed"]] == []
    assert {"ambient-markov-n1", "ambient-markov-n2"} <= {c["check"] for c in checks}


def test_fiber_infimum_fails_on_a_sample_that_sets_no_record(k3_split, monkeypatch):
    # sample 0 has the worst gap, 1e-4, within its bound 1e-9 (1 + 1e6);
    # sample 1 has a smaller gap, 1e-6, that exceeds its own bound of about
    # 1e-9, so it fails the check though it raises no running worst gap
    _, _, qd = k3_split
    forms = nca.quotient._quadratic_forms
    calls = []

    def shifted(e, coords):
        # the calls are: the direct values, the Schur values and the
        # perturbed lifts' values
        out = forms(e, coords).copy()
        calls.append(len(calls))
        if calls[-1] in (0, 2):
            out[0] += 1e6  # the perturbation's extra energy is unchanged
        elif calls[-1] == 1:
            out[:2] += [1e6 + 1e-4, 1e-6]
        return out

    monkeypatch.setattr(nca.quotient, "_quadratic_forms", shifted)
    (res,) = [r for r in nca.quotient_checks(qd, seed=3, count=10) if r.check == "fiber-infimum"]
    assert not res.passed
    assert res.witness["sample"] == 1
    assert abs(res.residual - 1e-4) <= 1e-9
    assert 1e-3 < res.bound < 1.01e-3


def test_quotient_checks_reject_unreal_ambient(m2):
    gamma = nca.commutator_cdc([m2.basis_element(1)])  # not tau-real
    alg2 = nca.build_algebra([2, 1], [1.0, 1.0])
    v = alg2.element([np.array([[0.0, 1], [0, 0]]), np.zeros((1, 1))])
    lap = nca.laplacian(nca.energy_form(nca.commutator_cdc([v])))
    qd_ok = None
    # the M2+C algebra has a central projection; the single-v ambient form
    # is not real there, so the precondition report must flag it
    p = central_projection(alg2, [0])
    try:
        qd_ok = nca.split(lap, p)
    except DisconnectedError:
        pytest.skip("corner singular for this example")
    results = nca.quotient_checks(qd_ok, seed=3, count=5)
    assert any(r.check == "ambient-real" and not r.passed for r in results)


def test_iterated_quotient_still_cdc():
    rng = np.random.default_rng(149)
    net = random_network(5, rng)
    alg = net.algebra
    lap = net.laplacian
    qd1 = nca.split(lap, central_projection(alg, [0, 1, 2, 3]))
    lap1 = qd1.quotient_laplacian
    # quotient of a network Laplacian is again a network Laplacian with
    # nonnegative effective conductances (star-mesh reduction)
    off = lap1.matrix - np.diag(np.diag(lap1.matrix))
    assert off.real.max() <= 1e-10
    assert np.abs(lap1.matrix.imag).max() < 1e-12
    assert np.abs(lap1.matrix @ np.ones(4)).max() < 1e-10

    qd2 = nca.split(lap1, central_projection(qd1.algebra_b, [0, 1]))
    lap2 = qd2.quotient_laplacian
    e2 = energy_form_of_laplacian(lap2)
    rebuilt = nca.cdc_from_dirichlet_form(e2, lap2, seed=5)
    assert nca.is_cdc(rebuilt).is_cdc
    for res in nca.quotient_checks(qd2, seed=5, count=8):
        assert res.passed, (res.check, res.witness)


def test_noncommutative_quotient_of_scalar_extension(m2):
    # commutator forms annihilate the center, so no form on a block-sum
    # algebra built from them can be connected; the scalar extension is the
    # genuinely connected mixed-block example, and its quotient onto the
    # matrix block is the variance form
    ea = nca.extend(m2, 0.5 * m2.identity())
    assert nca.connectedness(ea.laplacian)
    qd = nca.split(ea.laplacian, central_projection(ea.extended, [0]))
    for res in nca.quotient_checks(qd, seed=7, count=8):
        assert res.passed, (res.check, res.witness)
    expected = nca.laplacian(nca.energy_form(nca.independent_copies_cdc(m2, 0.5 * m2.identity())))
    assert np.abs(qd.quotient_laplacian.matrix - expected.matrix).max() < 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_decoupled_singular_corner_lifts(tmp_path, capsys, seed):
    # a Lindblad pair inside [2,1] preserves each block, so the projection
    # is decoupled (J = 0) while the eliminated corner S is singular
    rng = np.random.default_rng(seed)
    alg = nca.build_algebra([2, 1], [1.0, 1.0])
    v = random_element(alg, rng)
    spec = {
        "algebra": {"blocks": [2, 1], "trace_weights": [1.0, 1.0]},
        "generator": {"kind": "lindblad",
                      "vs": [encode_element(v), encode_element(v.adjoint())]},
        "projection": {"keep_blocks": [0]},
        "seed": seed,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["quotient", str(path), "--json"]) in (0, 1, 2)
    capsys.readouterr()

    gamma = parse_spec(json.dumps(spec)).generator["gamma"]
    lap = nca.laplacian(nca.energy_form(gamma, force=True))
    qd = nca.split(lap, central_projection(alg, [0]))
    assert np.abs(qd.j_block).max() == 0
    assert np.linalg.eigvalsh(qd.s_block)[0] < 1e-12
    b = random_element(qd.algebra_b, rng)
    lift = nca.fiber_minimizer(qd, b)
    assert all(np.isfinite(m).all() for m in lift.data)
    assert _restrict(qd, lift).distance(b) == 0
