"""Acceptance criteria: every structural theorem in scope, executed at its
stated tolerance.  Each test prints one PASS/FAIL line (run with ``pytest -s``
to see them live)."""
import numpy as np

import nca
from nca.algebra import from_cells, matrix_direct_sum, random_element
from nca.energy import _seminorms, energy_form_of_laplacian
from nca.quotient import central_projection
from nca.resistance import is_star, network_energy_form, random_network, random_star_network

from block_element import superop_from_function
from conftest import K3_C, TWO_C, build_catalog, seeded_generators

CATALOG = build_catalog()


def _verdict(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status}")
    assert not failures, failures[:5]


def test_01_conductance_classification_round_trip():
    failures = []
    rng = np.random.default_rng(1001)
    for trial in range(20):
        size = int(rng.integers(3, 7))
        alg = nca.build_algebra([1] * size, [1.0] * size)
        c = rng.uniform(0.0, 2.0, (size, size)) * (rng.random((size, size)) < 0.8)
        np.fill_diagonal(c, 0.0)
        gamma = nca.network_cdc(alg, c, scale=0.5)
        recovered = nca.conductances_from_cdc(gamma)
        if np.abs(recovered - c).max() > 1e-10:
            failures.append(("roundtrip", trial, np.abs(recovered - c).max()))
        if not nca.is_cdc(gamma).is_cdc:
            failures.append(("is-cdc", trial))
    _verdict(1, "conductance bijection round trip", failures)


def test_02_ccn_equivalence():
    failures = []
    for idx, (kind, gen) in enumerate(seeded_generators(20)):
        direct = nca.ccn_check(gen, seed=idx)
        via_form = nca.is_cdc(nca.gamma_from_generator(gen)).completely_positive
        if direct != via_form:
            failures.append((kind, idx, direct, via_form))
    _verdict(2, "conditional complete negativity equivalence", failures)


def test_03_k3_resistance_and_triangle():
    failures = []
    net = nca.ResistanceNetwork(K3_C)
    lap = net.laplacian
    for p in range(3):
        for q in range(p + 1, 3):
            if abs(nca.resistance_distance(net, p, q) - 2.0 / 3.0) > 1e-10:
                failures.append(("resistance", p, q))
            de = nca.energy_metric(
                lap, nca.point_state(net.algebra, p), nca.point_state(net.algebra, q)
            )
            if abs(de - np.sqrt(2.0 / 3.0)) > 1e-10:
                failures.append(("energy-metric", p, q))
    rng = np.random.default_rng(1003)
    for trial in range(50):
        size = int(rng.integers(3, 9))
        sample = random_network(size, rng)
        rho = nca.all_pairs_resistance(sample)
        worst = max(
            rho[i, k] - rho[i, j] - rho[j, k]
            for i in range(size)
            for j in range(size)
            for k in range(size)
        )
        if worst > 1e-10 * (1 + rho.max()):
            failures.append(("triangle", trial, worst))
    _verdict(3, "resistance values and triangle inequality", failures)


def test_04_squared_metric_fails_on_mixtures():
    report = nca.metric_checks(nca.ResistanceNetwork(K3_C), seed=0, step=0.1)
    failures = []
    if report.mixture_counterexample is None:
        failures.append("no mixture witness found on the 0.1 grid")
    elif report.mixture_counterexample["violation"] <= 1e-6:
        failures.append(("violation too small", report.mixture_counterexample))
    _verdict(4, "squared energy metric fails beyond pure states", failures)


def test_05_markov_leibniz_suite():
    failures = []
    for ex in CATALOG:
        e = nca.energy_form(ex.gamma)
        for res in nca.markov_check(nca.laplacian(e), orders=(1, 2), seed=42, count=20,
                                    tol=1e-9):
            if not res.passed:
                failures.append((ex.name, res.check, res.witness))
        for res in nca.leibniz_check(e, orders=(1, 2), seed=42, count=20, tol=1e-9):
            if not res.passed:
                failures.append((ex.name, res.check, res.witness))
    # the deliberate negative conductance produces an explicit witness
    c = np.array([[0.0, -0.1, 1.0], [-0.1, 0.0, 1.0], [1.0, 1.0, 0.0]])
    net = nca.ResistanceNetwork(c, allow_negative=True)
    witness = nca.markov_violation_witness(net)
    if witness is None or witness.violation <= 0:
        failures.append("negative conductance witness missing")
    else:
        e = network_energy_form(net)
        clipped, lip = nca.functional_calculus(witness.f, witness.fn)
        if e.seminorm(clipped) <= lip * e.seminorm(witness.f):
            failures.append("witness does not violate the Markov bound")
    _verdict(5, "Markov and Leibniz across the catalog", failures)


def test_06_l2_matricial_property():
    failures = []
    ex = CATALOG[2]  # the M2 pair example
    e = nca.energy_form(ex.gamma)
    alg = ex.algebra
    rng = np.random.default_rng(1006)
    for m, n in [(1, 1), (1, 2), (2, 2)]:
        for _ in range(5):
            v = random_element(alg.amplify(m), rng)
            w = random_element(alg.amplify(n), rng)
            both = matrix_direct_sum(alg, m, v, n, w)
            lhs = _seminorms(e, both.coords, m + n) ** 2
            rhs = _seminorms(e, v.coords, m) ** 2 + _seminorms(e, w.coords, n) ** 2
            if abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs)):
                failures.append(("l2", m, n, abs(lhs - rhs)))
    for order in (2, 3):
        for _ in range(5):
            alpha = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
            beta = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
            v = random_element(alg.amplify(order), rng)
            scalars = lambda mat: from_cells(
                alg, order,
                [[complex(mat[j, k]) * alg.identity() for k in range(order)] for j in range(order)],
            )
            lhs, norm_v = _seminorms(
                e, np.array([(scalars(alpha) * v * scalars(beta)).coords, v.coords]), order)
            bound = np.linalg.norm(alpha, 2) * norm_v * np.linalg.norm(beta, 2)
            if lhs > bound + 1e-9 * (1 + bound):
                failures.append(("bimodule", order, lhs - bound))
    _verdict(6, "matricial seminorm identities", failures)


def test_07_derivation_factorization_and_norm_formula():
    failures = []
    rng = np.random.default_rng(1007)
    for ex in CATALOG[:4]:  # K3, 2-point, M2 pair, M2 single
        bs = nca.build_bimodule(ex.gamma)
        lap = nca.laplacian(nca.energy_form(ex.gamma))
        gap = np.abs(bs.dmatrix.conj().T @ bs.dmatrix - lap.matrix).max()
        if gap > 1e-9:
            failures.append((ex.name, "factorization", gap))
        op = nca.DiracOperator(bs)
        for trial in range(20):
            a = random_element(ex.algebra, rng)
            res = nca.dirac_seminorm(op, a)
            if res.residual > 1e-8 * (1 + res.value):
                failures.append((ex.name, "norm-formula", trial, res.residual))
    _verdict(7, "Dirac factorization and commutator norm formula", failures)


def test_08_detailed_balance():
    failures = []
    m2 = nca.build_algebra([2], [1.0])
    e12, e21 = m2.basis_element(1), m2.basis_element(2)

    single = nca.reality_checks(nca.commutator_cdc([e12]))
    if single["tau_real"]:
        failures.append("single generator should not be tau-real")
    pair = nca.reality_checks(nca.commutator_cdc([e12, e21]))
    if not pair["tau_real"]:
        failures.append("balanced pair should be tau-real")

    def balance_defect(vs):
        total = vs[0].algebra.zero()
        for v in vs:
            total = total + (v.adjoint() * v - v * v.adjoint())
        return total.norm()

    if abs(balance_defect([e12, e21])) > 1e-12:
        failures.append("pair commutator sum should vanish")
    if balance_defect([e12]) <= 1e-12:
        failures.append("single commutator sum should not vanish")
    _verdict(8, "detailed balance criterion", failures)


def test_09_balanced_counterexample():
    failures = []
    m3 = nca.build_algebra([3], [1.0])
    v = m3.element([np.diag([1.0, 1j, 0.0])])
    gamma = nca.commutator_cdc([v])
    flags = nca.reality_checks(gamma)
    if not flags["tau_real"]:
        failures.append("diag(1, i, 0) form should be tau-real")
    if flags["tau_balanced"]:
        failures.append("diag(1, i, 0) form should not be tau-balanced")

    b = m3.element([np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]])])
    a = b.adjoint()
    lhs = (v * a.adjoint() - a.adjoint() * v) * (b * v.adjoint() - v.adjoint() * b)
    rhs = (a.adjoint() * v.adjoint() - v.adjoint() * a.adjoint()) * (v * b - b * v)
    if (lhs - rhs).norm() <= 1e-6:
        failures.append("shift witness residual too small")

    regen = nca.gamma_delta(nca.laplacian(nca.energy_form(gamma)))
    if np.abs(regen.gram - gamma.gram).max() <= 1e-6:
        failures.append("counterexample form should differ from its regeneration")

    rng = np.random.default_rng(1009)
    for trial in range(5):
        size = int(rng.integers(3, 6))
        alg = nca.build_algebra([1] * size, [1.0] * size)
        c = rng.uniform(0.0, 2.0, (size, size))
        c = np.triu(c, 1)
        c = c + c.T
        net_gamma = nca.network_cdc(alg, c, scale=0.5)
        regen = nca.gamma_delta(nca.laplacian(nca.energy_form(net_gamma)))
        if np.abs(regen.gram - net_gamma.gram).max() > 1e-9:
            failures.append(("symmetric network should be balanced", trial))
    _verdict(9, "tau-balanced counterexample and characterization", failures)


def test_10_quotient_suite():
    failures = []
    alg = nca.build_algebra([1] * 3, [1.0] * 3)
    lap = nca.laplacian(nca.energy_form(nca.network_cdc(alg, K3_C, scale=0.5)))
    qd = nca.split(lap, central_projection(alg, [0, 1]))
    expected = np.array([[1.5, -1.5], [-1.5, 1.5]])
    if np.abs(qd.quotient_laplacian.matrix - expected).max() > 1e-12:
        failures.append("K3 Schur complement value")
    for res in nca.quotient_checks(qd, seed=0, count=20, tol=1e-9):
        if not res.passed:
            failures.append(("k3", res.check, res.witness))

    rng = np.random.default_rng(1010)
    net5 = random_network(5, rng)
    lap5 = net5.laplacian
    qd1 = nca.split(lap5, central_projection(net5.algebra, [0, 1, 2, 3]))
    qd2 = nca.split(
        qd1.quotient_laplacian, central_projection(qd1.algebra_b, [0, 1])
    )
    for res in nca.quotient_checks(qd2, seed=0, count=20, tol=1e-9):
        if not res.passed:
            failures.append(("iterated", res.check, res.witness))
    _verdict(10, "Schur quotient suite", failures)


def test_11_heat_and_resolvent_suite():
    failures = []
    grid = [0.0, 0.1, 1.0, 10.0]
    for ex in CATALOG:
        lap = nca.laplacian(nca.energy_form(ex.gamma)).natural()
        for t in grid:
            _, flags = nca.heat_map(lap, t, tol=1e-9)
            if not flags["checks"][0].passed:
                failures.append((ex.name, t, "unital"))
            if not flags["checks"][1].passed or flags["choi_min_eigenvalue"] < -1e-9:
                failures.append((ex.name, t, "cp", flags["choi_min_eigenvalue"]))
        for res in nca.resolvent_check(lap, grid, orders=(1, 2), seed=0, count=5):
            if not res.passed:
                failures.append((ex.name, res.check, res.witness))

    two = nca.build_algebra([1, 1], [1.0, 1.0])
    lap2 = nca.laplacian(nca.energy_form(nca.network_cdc(two, TWO_C, scale=0.5)))
    f = two.element([[[1.0]], [[0.0]]])
    for t in grid:
        phi, _ = nca.heat_map(lap2, t)
        got = np.array([m[0, 0] for m in phi.apply(f).data]).real
        expected = np.array([(1 + np.exp(-2 * t)) / 2, (1 - np.exp(-2 * t)) / 2])
        if np.abs(got - expected).max() > 1e-10:
            failures.append(("closed-form", t))
    _verdict(11, "heat semigroup and resolvent suite", failures)


def test_12_standard_deviation_recovery():
    failures = []
    setups = []
    c2 = nca.build_algebra([1, 1], [0.5, 0.5])
    setups.append((c2, c2.element([[[1.0]], [[1.0]]])))
    m2n = nca.build_algebra([2], [0.5])
    setups.append((m2n, m2n.identity()))
    for alg, p in setups:
        ea = nca.extend(alg, p)
        lap_schur = nca.stddev_laplacian(ea)
        closed = superop_from_function(
            alg, lambda x: p * (x - complex(ea.mu(x)) * alg.identity())
        )
        lap_ic = nca.laplacian(nca.energy_form(nca.independent_copies_cdc(alg, p)))
        routes = [lap_schur.matrix, closed.matrix, lap_ic.matrix]
        for i in range(3):
            for j in range(i + 1, 3):
                if np.abs(routes[i] - routes[j]).max() > 1e-9:
                    failures.append(("route", alg.blocks, i, j))
        e = energy_form_of_laplacian(lap_schur)
        for res in nca.markov_check(lap_schur, seed=12, count=20, tol=1e-9):
            if not res.passed:
                failures.append((alg.blocks, res.check))
        for res in nca.leibniz_check(e, seed=12, count=20, tol=1e-9):
            if not res.passed:
                failures.append((alg.blocks, res.check))

    ea = nca.extend(c2, c2.element([[[1.0]], [[1.0]]]))
    if abs(nca.stddev_seminorm(ea, c2.element([[[1.0]], [[0.0]]])) - 0.5) > 1e-12:
        failures.append("uniform two-point value")
    ea2 = nca.extend(m2n, m2n.identity())
    if abs(nca.stddev_seminorm(ea2, m2n.basis_element(0)) - 0.5) > 1e-12:
        failures.append("normalized matrix value")
    _verdict(12, "standard deviation recovery", failures)


def test_13_star_graph_characterization():
    failures = []
    rng = np.random.default_rng(1013)
    count_star = count_other = 0
    while count_star < 10:
        net = random_star_network(int(rng.integers(3, 7)), rng)
        out = nca.star_graph_check(net, seed=count_star)
        if not out["is_star"]:
            failures.append("star sampler produced a non-star")
        if out["is_star"] != out["parallelogram_holds"]:
            failures.append(("star flag mismatch", count_star, out))
        count_star += 1
    while count_other < 10:
        net = random_network(int(rng.integers(3, 7)), rng)
        if is_star(net):
            continue
        out = nca.star_graph_check(net, seed=100 + count_other)
        if out["is_star"] != out["parallelogram_holds"]:
            failures.append(("non-star flag mismatch", count_other, out))
        count_other += 1
    _verdict(13, "star graph characterization", failures)


def test_14_dirichlet_form_reconstruction():
    failures = []
    for ex in CATALOG:
        if not ex.tau_real:
            continue
        e = nca.energy_form(ex.gamma)
        try:
            rebuilt = nca.cdc_from_dirichlet_form(e, nca.laplacian(e), seed=14, tol=1e-9)
        except nca.PropertyViolationError as exc:
            failures.append((ex.name, "rejected", [c.check for c in exc.checks]))
            continue
        if np.abs(rebuilt.tau_values - e.gram).max() > 1e-9:
            failures.append((ex.name, "pairing"))
        if not nca.is_cdc(rebuilt).is_cdc:
            failures.append((ex.name, "not a cdc"))

    c = np.array([[0.0, -0.1, 1.0], [-0.1, 0.0, 1.0], [1.0, 1.0, 0.0]])
    alg = nca.build_algebra([1] * 3, [1.0] * 3)
    bad = nca.energy_form(
        nca.network_cdc(alg, c, scale=0.5, allow_negative=True), force=True
    )
    try:
        nca.cdc_from_dirichlet_form(bad, nca.laplacian(bad), seed=14)
        failures.append("negative conductance form was not rejected")
    except nca.PropertyViolationError as exc:
        if not any(chk.check.startswith("markov") for chk in exc.checks):
            failures.append(("rejection lacks a Markov witness", [c.check for c in exc.checks]))
    _verdict(14, "Dirichlet form reconstruction", failures)
