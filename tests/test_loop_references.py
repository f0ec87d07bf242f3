"""Index-formula and batched checks against the element-by-element loops
they replace, kept here as references: the conditional complete negativity
matrices and seeded tuples of ``ccn_check``, the automorphism test of
``group_action_cdc``, the pairing identity of ``stddev.extend``,
``leibniz_check``, the parallelogram test of ``star_graph_check``, the hub
search of ``is_star``, and the per-time solves of ``resolvent_check`` and
the Markov probes and the kernel split of ``energy_metric`` that functions
of the Laplacian's eigendecomposition replace, the one-element-at-a-time
seminorms of the ``dirac`` suite, the batteries drawn one sample at a
time: Markov, Leibniz, the fiber infimum of ``quotient_checks`` and the
seminorm identity of the ``stddev`` suite, and the broadcasts of
``metric_checks`` that one row at a time replaces: the state distances and
the mixed-state search, and the node triples unranked one at a time that
one listing replaces.  The target units of ``amplify_cdc`` found by their
places in the embedding, which ``cell_units`` replaces, the amplified
grams and resolvents that applying the d x d ones to every cell replaces,
``SpectralStack.apply``
with all rows at once and with one product per function, batched
``eigvalsh`` on 1x1 blocks in ``hermitian_eigenvalues``, the one-shot
quadratic forms, the stacks of Markov probe resolvents and of
``resolvent_check``'s resolvents, and the
top singular values through ``np.linalg.norm(., 2)`` in ``block_norms``
and ``dirac_seminorms`` are kept as references too."""
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nca
from conftest import K3_C, build_catalog, seeded_generators
from dense_bimodule import commutator_norm
from nca.algebra import (
    _ROW_CHUNK,
    PiecewiseLinear,
    SpectralStack,
    amplify_matrix,
    amplify_superop,
    block_norms,
    block_products,
    block_stacks,
    cell_units,
    hermitian_eigenvalues,
    left_multiplication,
    piecewise_linear_lipschitz,
    piecewise_linear_values,
    random_element,
    random_positive_rows,
    random_rows,
    random_self_adjoint_rows,
    right_multiplication,
)
from nca.cdc import _check_automorphism, lindblad_generator
from nca.cli import run_command
from nca.dirac import _commutator_groups
from nca.energy import (
    EnergyForm,
    Laplacian,
    _extreme_positives,
    _markov_probes,
    _on_cells,
    _probe_resolvents,
    _quadratic_forms,
    _seminorms,
    energy_form_of_laplacian,
)
from nca.errors import DisconnectedError, InputError
from nca.fileio import parse_spec
from nca.quotient import central_projection
from nca.reporting import CheckResult, judge
from nca.resistance import (
    _mixture_grid,
    _mixture_search,
    _node_triples,
    is_star,
    random_network,
    random_star_network,
)
from generators import conjugation_superop, permutation_superop
from test_energy import _rank_one_laplacian, seeded_three_knot


def _draw(rows, alg, rng):
    """One element from a rows sampler: the stream of one draw at a time."""
    return alg.from_canonical_coords(rows(alg, rng, 1)[0])


# -- conditional complete negativity ---------------------------------------


def _ccn_loop(n, seed=0, tol=1e-9, extra_tuples=4):
    alg = n.algebra
    one = alg.identity()
    d, size = alg.dim, alg.total_size
    adj, mul, emb = alg.adj_table, alg.mul_table, alg.embedded_basis
    ne = np.stack([n.apply(alg.basis_element(i)).full() for i in range(d)])
    m = d + 1
    w = np.zeros((m * size, m * size), dtype=complex)
    for j in range(d):
        for k in range(d):
            idx = mul[adj[j], k]
            if idx >= 0:
                w[j * size:(j + 1) * size, k * size:(k + 1) * size] = ne[idx]
        w[j * size:(j + 1) * size, d * size:] = ne[adj[j]]
        w[d * size:, j * size:(j + 1) * size] = ne[j]
    lift = np.zeros((m * size, d * size), dtype=complex)
    lift[:d * size, :] = np.eye(d * size)
    for j in range(d):
        lift[d * size:, j * size:(j + 1) * size] = -emb[j]
    t = lift.conj().T @ w @ lift
    scale = 1.0 + float(np.abs(t).max())
    if float(np.abs(t - t.conj().T).max()) > tol * scale:
        return False
    eigs = np.linalg.eigvalsh((t + t.conj().T) / 2)
    if eigs[-1] > tol * max(1.0, float(np.abs(eigs).max())):
        return False
    rng = np.random.default_rng(seed)
    for _ in range(extra_tuples):
        a_list = [random_element(alg, rng) for _ in range(3)]
        b_list = [random_element(alg, rng) for _ in range(3)]
        total = alg.zero()
        for a, b in zip(a_list, b_list):
            total = total + a * b
        a_list.append(one)
        b_list.append(-1.0 * total)
        acc = alg.zero()
        for aj, bj in zip(a_list, b_list):
            for ak, bk in zip(a_list, b_list):
                acc = acc + bj.adjoint() * n.apply(aj.adjoint() * ak) * bk
        if (acc - acc.adjoint()).norm() > tol * (1.0 + acc.norm()):
            return False
        herm = 0.5 * (acc + acc.adjoint())
        if float(herm.eigenvalues().real.max()) > tol * (1.0 + herm.norm()):
            return False
    return True


def _ccn_inputs():
    gens = [gen for _, gen in seeded_generators()]
    gens += [ex.generator for ex in build_catalog() if ex.generator is not None]
    alg = nca.build_algebra([3, 2, 1], [1.0, 0.5, 2.0])
    rng = np.random.default_rng(71)
    lind = lindblad_generator(alg, [random_element(alg, rng) for _ in range(2)])
    gens += [lind, -1.0 * lind]  # the negated generator is not CCN
    c = K3_C.copy()
    c[0, 1] = c[1, 0] = -0.5
    gens.append(nca.SuperOperator(nca.build_algebra([1] * 3, [1.0] * 3),
                                  np.diag(c.sum(axis=1)) - c))
    return gens


def test_ccn_check_matches_loop():
    verdicts = []
    for gen in _ccn_inputs():
        got = nca.ccn_check(gen, seed=3)
        assert got == _ccn_loop(gen, seed=3)
        verdicts.append(got)
    assert any(verdicts) and not all(verdicts)


# -- automorphisms -----------------------------------------------------------


def _automorphism_loop(alpha, tol=1e-9):
    alg = alpha.algebra
    problems = []
    one = alg.identity()
    if alpha.apply(one).distance(one) > tol:
        problems.append("not unital")
    if np.linalg.matrix_rank(alpha.matrix, tol=tol * alg.dim) < alg.dim:
        problems.append("not invertible")
    d = alg.dim
    images = [alpha.apply(alg.basis_element(i)) for i in range(d)]
    worst_mult = 0.0
    for i in range(d):
        for j in range(d):
            k = alg.mul_table[i, j]
            target = images[k] if k >= 0 else alg.zero()
            worst_mult = max(worst_mult, (images[i] * images[j]).distance(target))
    if worst_mult > tol:
        problems.append(f"not multiplicative (residual {worst_mult:.3e})")
    worst_star = max(images[alg.adj_table[i]].distance(images[i].adjoint()) for i in range(d))
    if worst_star > tol:
        problems.append(f"does not preserve the involution (residual {worst_star:.3e})")
    return problems


def _automorphism_inputs():
    c2 = nca.build_algebra([1, 1], [1.0, 1.0])
    m2 = nca.build_algebra([2], [1.0])
    theta = 0.3
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    maps = [permutation_superop(c2, [1, 0]), permutation_superop(c2, [0, 1]),
            conjugation_superop(m2, m2.element([rot])),
            nca.SuperOperator(m2, np.random.default_rng(43).standard_normal((4, 4)))]
    for size in (3, 4, 5):
        alg = nca.build_algebra([1] * size, [1.0, 2.0, 0.5, 1.0, 1.5][:size])
        maps.append(permutation_superop(alg, [(x + 1) % size for x in range(size)]))
    alg = nca.build_algebra([3, 2, 1], [1.0, 0.5, 2.0])
    rng = np.random.default_rng(73)
    u = random_element(alg, rng)  # invertible, not unitary
    u_inv = alg.element([np.linalg.inv(m) for m in u.data])
    similarity = left_multiplication(alg, u).compose(right_multiplication(alg, u_inv))
    unitary = alg.element([np.linalg.qr(m)[0] for m in u.data])
    inner = conjugation_superop(alg, unitary)
    noise = 1e-6 * rng.standard_normal((alg.dim, alg.dim))
    maps += [similarity, inner, nca.SuperOperator(alg, inner.matrix + noise)]
    return maps


def test_automorphism_check_matches_loop():
    outcomes = []
    for alpha in _automorphism_inputs():
        want = _automorphism_loop(alpha)
        try:
            _check_automorphism(alpha)
            got = []
        except InputError as exc:
            got = exc.details
        assert got == want
        outcomes.append(tuple(p.split(" (")[0] for p in got))
    assert () in outcomes
    assert ("does not preserve the involution",) in outcomes  # the similarity
    assert any("not multiplicative" in o for o in outcomes)


# -- the pairing identity of the extension ------------------------------------


def _pairing_loop(algebra, p, m):
    d = algebra.dim
    extended = nca.build_algebra(algebra.blocks + (1,), algebra.trace_weights + (1.0,))
    basis = [extended.from_coords(np.eye(d + 1)[i]) for i in range(d + 1)]
    worst = 0.0
    for i, u in enumerate(basis):
        da = algebra.element(u.data[:-1]) - complex(u.data[-1][0, 0]) * algebra.identity()
        for j, v in enumerate(basis):
            db = algebra.element(v.data[:-1]) - complex(v.data[-1][0, 0]) * algebra.identity()
            worst = max(worst, abs(m[i, j] - complex((p * (da.adjoint() * db)).trace())))
    return worst


@pytest.mark.parametrize("blocks, weights", [([3, 2, 1], [1.0, 0.5, 2.0]), ([2, 2], [1.0, 3.0]),
                                             ([1] * 4, [0.5, 1.0, 2.0, 1.0])])
def test_extension_pairing_identity_matches_loop(blocks, weights):
    alg = nca.build_algebra(blocks, weights)
    lams = np.random.default_rng(79).uniform(0.5, 2.0, len(blocks))
    lams /= sum(l * w * n for l, w, n in zip(lams, weights, blocks))
    p = alg.element([l * np.eye(n) for l, n in zip(lams, blocks)])
    ea = nca.extend(alg, p)
    loop = _pairing_loop(alg, p, ea.laplacian.matrix)
    assert ea.residuals["pairing_identity"] <= 1e-12 and loop <= 1e-12
    assert ea.residuals["min_eigenvalue"] == ea.laplacian.eigenvalues[0]


# -- Leibniz -------------------------------------------------------------------


def _leibniz_loop(e, orders=(1, 2), seed=0, count=20, tol=1e-9, pairs=None):
    results = []
    for order in orders:
        rng = np.random.default_rng(seed + 17 * order)
        alg = e.algebra if order == 1 else e.algebra.amplify(order)
        if order == 1 and pairs is not None:
            samples = list(pairs)
        else:
            samples = [(_draw(random_self_adjoint_rows, alg, rng),
                        _draw(random_self_adjoint_rows, alg, rng)) for _ in range(count)]
        gram = amplify_matrix(e.gram, e.algebra, order)
        worst, witness = 0.0, None
        for idx, (a, b) in enumerate(samples):
            rows = np.array([(a * b).coords, a.coords, b.coords])
            values = ((rows.conj() @ gram) * rows).sum(axis=1).real
            lhs, norm_a, norm_b = np.sqrt(np.maximum(values, 0.0))
            bound = norm_a * b.norm() + a.norm() * norm_b
            if lhs - bound > worst:
                worst = lhs - bound
                if worst > tol:
                    witness = {"order": order, "pair_index": idx, "lhs": lhs, "bound": bound}
        results.append((f"leibniz-n{order}", worst <= tol, max(worst, 0.0), witness))
    return results


def _leibniz_forms():
    alg = nca.build_algebra([1] * 3, [1.0] * 3)
    c = np.array([[0.0, -0.1, 1.0], [-0.1, 0.0, 1.0], [1.0, 1.0, 0.0]])
    negative = nca.energy_form(nca.network_cdc(alg, c, scale=0.5, allow_negative=True), force=True)
    alg = nca.build_algebra([3, 2, 1], [1.0, 0.5, 2.0])
    v = random_element(alg, np.random.default_rng(83))
    lindblad = nca.energy_form(nca.commutator_cdc([v, v.adjoint()]))
    # E(a, b) = conj(tau(k a)) tau(k b) for k = e_00 - e_22 in the first
    # block annihilates the unit (tau(k) = 0) but is no carre-du-champ
    # energy: x = e_01 + e_10 has tau(k x) = 0 and tau(k x x) = 1, so the
    # pair (x, x) breaks the Leibniz inequality
    t = np.zeros(alg.dim)
    t[[0, 8]] = [1.0, -1.0]
    return [negative, lindblad, EnergyForm(alg, np.outer(t, t))]


def _agree(got, want):
    assert len(got) == len(want)
    for res, (name, passed, residual, witness) in zip(got, want):
        assert (res.check, res.passed) == (name, passed)
        assert abs(res.residual - residual) <= 1e-12 * max(1.0, residual)
        assert (res.witness is None) == (witness is None)
        if witness is not None:
            assert res.witness["pair_index"] == witness["pair_index"]
            assert res.witness["order"] == witness["order"]
            for key in ("lhs", "bound"):
                assert abs(res.witness[key] - witness[key]) <= 1e-12 * max(1.0, witness[key])


@pytest.mark.parametrize("form", [0, 1, 2])
@pytest.mark.parametrize("tol", [1e-9, -1.0])
def test_batched_leibniz_matches_loop(form, tol):
    e = _leibniz_forms()[form]
    got = nca.leibniz_check(e, orders=(1, 2, 3), seed=5, count=12, tol=tol)
    _agree(got, _leibniz_loop(e, orders=(1, 2, 3), seed=5, count=12, tol=tol))
    rng = np.random.default_rng(89)
    pairs = [(random_element(e.algebra, rng), random_element(e.algebra, rng))
             for _ in range(6)]
    if form == 2:
        # two equal violating pairs: the witness is the first of them
        x = e.algebra.basis_element(1) + e.algebra.basis_element(3)
        pairs[2] = pairs[4] = (x, x)
    got = nca.leibniz_check(e, orders=(1,), pairs=pairs, tol=tol)
    _agree(got, _leibniz_loop(e, orders=(1,), pairs=pairs, tol=tol))
    assert (got[0].witness is not None) == (form == 2)
    if form == 2:
        assert got[0].witness["pair_index"] == 2


# -- star graph ----------------------------------------------------------------


def _star_graph_loop(net, op, seed=0, tol=1e-9, random_pairs=8):
    def l2(f):
        return commutator_norm(op.bimodule, f) ** 2

    worst = 0.0
    witness = None
    eye = np.eye(net.size)
    deltas = [net.function(eye[p]) for p in range(net.size)]
    delta_l2 = [l2(f) for f in deltas]
    pairs = [
        (f"delta-{p}-{q}", deltas[p], deltas[q], delta_l2[p], delta_l2[q])
        for p in range(net.size)
        for q in range(p + 1, net.size)
    ]
    rng = np.random.default_rng(seed)
    for k in range(random_pairs):
        f = net.function(rng.standard_normal(net.size))
        g = net.function(rng.standard_normal(net.size))
        pairs.append((f"random-{k}", f, g, l2(f), l2(g)))
    for name, f, g, l2_f, l2_g in pairs:
        terms = [l2(f + g), l2(f - g), l2_f, l2_g]
        gap = abs(terms[0] + terms[1] - 2 * terms[2] - 2 * terms[3])
        rel_gap = gap / max(1.0, *terms)
        if rel_gap > worst:
            worst = rel_gap
            witness = name
    holds = worst <= max(tol, 1e-8)
    return {
        "is_star": is_star(net),
        "parallelogram_holds": holds,
        "max_relative_residual": worst,
        "witness": None if holds else witness,
    }


@pytest.mark.parametrize("size, star", [(2, False), (4, False), (6, False), (8, False),
                                        (12, False), (16, False), (24, False), (4, True),
                                        (7, True), (16, True), (24, True)])
def test_star_graph_check_matches_loop(size, star):
    # the loop takes commutator norms on the one-form space; the check reads
    # the slabs of the network form
    rng = np.random.default_rng(300 + size)
    net = (random_star_network if star else random_network)(size, rng)
    op = nca.DiracOperator(nca.build_bimodule(nca.network_cdc(net.algebra, net.c, scale=0.5)))
    wants = [_star_graph_loop(net, op, seed=size + k, random_pairs=k) for k in (0, 3, 8)]
    for k, want in zip((0, 3, 8), wants):
        got = nca.star_graph_check(net, seed=size + k, random_pairs=k)
        for key in ("is_star", "parallelogram_holds", "witness"):
            assert got[key] == want[key], key
        residual = want["max_relative_residual"]
        assert abs(got["max_relative_residual"] - residual) <= 1e-12 * max(1.0, residual)
        assert got["is_star"] == star or size == 2
        assert got["parallelogram_holds"] == got["is_star"]


def test_star_graph_random_witness_matches_loop():
    # a triangle whose worst pair is a random one, not a pair of point masses
    net = random_network(3, np.random.default_rng(12))
    op = nca.DiracOperator(nca.build_bimodule(nca.network_cdc(net.algebra, net.c, scale=0.5)))
    want = _star_graph_loop(net, op, seed=12)
    got = nca.star_graph_check(net, seed=12)
    assert want["witness"] == got["witness"] == "random-7"
    residual = want["max_relative_residual"]
    assert abs(got["max_relative_residual"] - residual) <= 1e-12 * residual


def _is_star_loop(net):
    """True when some hub t carries every edge: no edge joins two other nodes."""
    for t in range(net.size):
        others = [x for x in range(net.size) if x != t]
        if all(net.c[x, y] == 0 for i, x in enumerate(others) for y in others[i + 1:]):
            return True
    return False


def _network(size, edges):
    c = np.zeros((size, size))
    for x, y, value in edges:
        c[x, y] = c[y, x] = value
    return nca.ResistanceNetwork(c, allow_negative=True)


def test_is_star_matches_loop():
    rng = np.random.default_rng(43)
    nets = [random_network(int(rng.integers(2, 9)), rng, density=density,
                               ensure_connected=False)
            for density in (0.1, 0.2, 0.3, 0.5, 0.9) for _ in range(12)]
    nets += [random_star_network(size, rng) for size in (2, 3, 6)]
    for net in nets:
        assert is_star(net) == _is_star_loop(net)
    # edgeless, one edge, a path, a star plus an isolated node, a star with
    # a negative spoke and a triangle with a negative edge
    cases = [(_network(4, []), True), (_network(4, [(1, 3, 0.5)]), True),
             (_network(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]), False),
             (_network(5, [(2, 0, 1.0), (2, 1, 0.5), (2, 3, 2.0)]), True),
             (_network(4, [(0, 1, -0.4), (0, 2, 1.0), (0, 3, 1.0)]), True),
             (_network(3, [(0, 1, -0.4), (0, 2, 1.0), (1, 2, 1.0)]), False)]
    for net, star in cases:
        assert is_star(net) == _is_star_loop(net) == star


# -- block norms and spectral stacks ------------------------------------------


_STACK_BLOCKS = [[1] * 5, [2], [3], [5], [10], [3, 2, 1], [2, 2, 1, 1], [10, 5, 3, 2, 1]]


def _block_norms_norm(algebra, coords):
    """``block_norms`` with the top singular value from ``np.linalg.norm``."""
    return np.max([(np.abs(m[..., 0, 0]) if m.shape[-1] == 1
                    else np.linalg.norm(m, 2, axis=(-2, -1))).max(axis=-1)
                   for m in block_stacks(algebra, coords)], axis=0)


def _spectral_apply_stacked(stack, fn):
    """``SpectralStack.apply`` with all rows in one stacked product, and 1x1
    blocks through their eigenvector 1."""
    out = None
    for cols, w, v in stack.groups:
        count, k, n = w.shape
        if v is None:
            v = np.ones((count, k, 1, 1), dtype=complex)
        values = np.asarray(fn(w.reshape(count, k * n)), dtype=complex)
        width = values.shape[1]
        rows = (v[:, :, None] * values.reshape(count, width, k, 1, n).swapaxes(1, 2)
                ).reshape(count, k, width * n, n)
        mats = (rows @ v.conj().swapaxes(-1, -2)).reshape(count, k, width, n * n)
        if out is None:
            out = np.empty((count, width, stack.algebra.dim), dtype=complex)
        out[:, :, cols.reshape(-1)] = mats.swapaxes(1, 2).reshape(count, width, k * n * n)
    return out


def _spectral_apply_per_function(stack, fn):
    """``SpectralStack.apply`` with one (n, n) product per function."""
    out = None
    for cols, w, v in stack.groups:
        count, k, n = w.shape
        if v is None:
            v = np.ones((count, k, 1, 1), dtype=complex)
        values = np.asarray(fn(w.reshape(count, k * n)), dtype=complex)
        width = values.shape[1]
        scaled = v[:, None] * values.reshape(count, width, k, 1, n)
        mats = scaled @ v.conj().swapaxes(-1, -2)[:, None]
        if out is None:
            out = np.empty((count, width, stack.algebra.dim), dtype=complex)
        out[:, :, cols.reshape(-1)] = mats.reshape(count, width, k * n * n)
    return out


def _hermitian_eigenvalues_eigvalsh(algebra, coords):
    """``hermitian_eigenvalues`` with a batched ``eigvalsh`` on 1x1 blocks too."""
    lead = np.shape(coords)[:-1]
    return np.concatenate(
        [np.linalg.eigvalsh((m + m.conj().swapaxes(-1, -2)) / 2).reshape(lead + (-1,))
         for m in block_stacks(algebra, coords)], axis=-1)


def _quadratic_forms_whole(e, coords, order):
    """``_quadratic_forms`` over all rows in one piece."""
    alg, units = e.algebra, cell_units(e.algebra, order)
    stack = coords.reshape((-1,) + coords.shape[-2:]) if coords.ndim > 2 else coords[None]
    cells = stack[..., units].reshape(
        len(stack), math.prod(stack.shape[1:-1]) * len(units), alg.dim)
    diag, w = alg.diagonal_units, alg.coord_weights
    cells[..., diag] -= (cells[..., diag] @ (w / w.sum()))[..., None]
    t = (cells.conj() @ e.gram.astype(complex)) * cells
    return t.reshape(stack.shape[:-1] + (units.size,)).sum(axis=-1).real.reshape(coords.shape[:-1])


@pytest.mark.parametrize("blocks", _STACK_BLOCKS)
def test_block_norms_match_norm_route(blocks):
    alg = nca.build_algebra(blocks, [1.0] * len(blocks))
    rng = np.random.default_rng(len(blocks) + sum(blocks))
    for shape in ((1,), (9,), (3, 4)):
        coords = random_rows(alg, rng, math.prod(shape)).reshape(shape + (alg.dim,))
        assert np.array_equal(block_norms(alg, coords), _block_norms_norm(alg, coords))


@pytest.mark.parametrize("blocks", _STACK_BLOCKS)
def test_spectral_stack_matches_per_function_products(blocks):
    # chunks of rows, several of them at width 16 on a 10x10 block, and 1x1
    # blocks with no product, against all rows at once and one function at a time
    alg = nca.build_algebra(blocks, list(np.linspace(0.5, 2.0, len(blocks))))
    rng = np.random.default_rng(sum(blocks))
    for count in (1, 7):
        stack = SpectralStack(alg, random_self_adjoint_rows(alg, rng, count))
        for width in (1, 3, 16):
            def fn(w):
                return np.stack([np.sin((f + 1) * w) + 1j * f * w for f in range(width)], axis=1)
            got = stack.apply(fn)
            assert np.array_equal(got, _spectral_apply_stacked(stack, fn))
            assert np.array_equal(got, _spectral_apply_per_function(stack, fn))


@pytest.mark.parametrize("blocks", [[1] * 5, [3, 2, 1], [2, 2, 1, 1]])
def test_one_by_one_eigenvalues_match_eigvalsh(blocks):
    alg = nca.build_algebra(blocks, list(np.linspace(0.5, 2.0, len(blocks))))
    rng = np.random.default_rng(len(blocks))
    for shape in ((1,), (9,), (3, 4)):
        # not self-adjoint: the eigenvalues are those of the Hermitian parts
        coords = random_rows(alg, rng, math.prod(shape)).reshape(shape + (alg.dim,))
        assert np.array_equal(hermitian_eigenvalues(alg, coords),
                              _hermitian_eigenvalues_eigvalsh(alg, coords))
    # SpectralStack skips eigh on 1x1 blocks, whose eigenvector eigh gives as 1
    rows = random_self_adjoint_rows(alg, rng, 6)
    for (_, w, v), m in zip(SpectralStack(alg, rows).groups, block_stacks(alg, rows)):
        assert (v is None) == (m.shape[-1] == 1)
        if v is None:
            w_eigh, v_eigh = np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2)
            assert np.array_equal(w, w_eigh) and np.all(v_eigh == 1)


def test_quadratic_forms_match_one_shot():
    # stacks long enough for several chunks, and single matrices, vectors and
    # empty rows, over real and complex grams, at orders 1 and 2
    rng = np.random.default_rng(5)
    for blocks, order in (([1] * 3, 1), ([4, 3], 1), ([10], 1), ([2, 1], 2), ([4, 3], 2)):
        alg = nca.build_algebra(blocks, list(np.linspace(0.5, 2.0, len(blocks))))
        d, dim = alg.dim, alg.amplify(order).dim
        cgram = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for e in (EnergyForm(alg, cgram), EnergyForm(alg, cgram.real)):
            for shape in ((dim,), (0, dim), (1, dim), (68, dim), (3 * _ROW_CHUNK // dim, dim),
                          (68, 4, dim), (2, 3, 5, dim), (0, 4, dim)):
                coords = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                got = _quadratic_forms(e, coords, order)
                assert got.shape == shape[:-1]
                assert np.array_equal(got, _quadratic_forms_whole(e, coords, order))


# -- Dirac seminorms -------------------------------------------------------------


def _seminorm_loop(op, a):
    """``(value, from_form)`` of one element: the two off-diagonal blocks of
    the commutator by the reference ``commutator_norm``, and two Gamma
    evaluations."""
    gamma = op.bimodule.gamma
    g_a = gamma.value(a, a).norm()
    g_astar = gamma.value(a.adjoint(), a.adjoint()).norm()
    return commutator_norm(op.bimodule, a), float(np.sqrt(max(g_a, g_astar, 0.0)))


def _dirac_forms():
    rng = np.random.default_rng(61)
    net = random_network(7, rng)
    m3 = nca.build_algebra([3], [1.0])
    v = random_element(m3, rng)
    mixed = nca.build_algebra([3, 2, 1], [1.0, 0.5, 2.0])
    w = random_element(mixed, rng)
    d_op = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    return [
        nca.network_cdc(net.algebra, net.c, scale=0.5),
        nca.commutator_cdc([v, v.adjoint(), _draw(random_self_adjoint_rows, m3, rng)]),
        nca.commutator_cdc([w, w.adjoint()]),
        # not tau-real: |Gamma(a, a)| and |Gamma(a*, a*)| differ
        nca.commutator_cdc([w]),
        nca.spectral_triple_cdc(d_op + d_op.conj().T, mixed),
    ]


@pytest.mark.parametrize("form", range(len(_dirac_forms())))
def test_dirac_seminorms_match_loop(form):
    gamma = _dirac_forms()[form]
    op = nca.DiracOperator(nca.build_bimodule(gamma))
    rng = np.random.default_rng(71 + form)
    alg = gamma.algebra
    elements = [_draw(random_rows if k % 2 else random_self_adjoint_rows, alg, rng)
                for k in range(8)] + [alg.identity(), alg.zero()]
    value, from_form = nca.dirac_seminorms(op, [alg.canonical_coords(a) for a in elements])
    for k, a in enumerate(elements):
        # the form side is a square root, so it is compared squared: rounding
        # in Gamma(1, 1) = 0 reads ~1e-8 after the root
        want_value, want_form = _seminorm_loop(op, a)
        scale = max(1.0, want_value)
        one = nca.dirac_seminorm(op, a)
        for got in ((value[k], from_form[k]), (one.value, one.from_form)):
            assert abs(got[0] - want_value) <= 1e-12 * scale
            assert abs(got[1] ** 2 - want_form ** 2) <= 1e-12 * scale ** 2
        assert one.residual == abs(one.value - one.from_form)


def _dirac_seminorms_norm(op, coords):
    """``dirac_seminorms`` with the top singular value from ``np.linalg.norm``."""
    bs = op.bimodule
    alg = bs.algebra
    x = np.array(coords, dtype=complex).reshape(-1, alg.dim)
    diag = alg.diagonal_units
    taus = (np.concatenate([x[:, diag], np.ones((1, len(diag)))]) * alg.coord_weights).sum(axis=1)
    x[:, diag] -= (taus[:-1] / taus[-1])[:, None]
    both = np.concatenate([x, x[:, alg.adj_table].conj()])
    norms = np.zeros(len(both))
    for stacks in _commutator_groups(bs):
        blocks = np.tensordot(both, stacks, axes=([1], [1]))
        norms = np.maximum(norms, np.linalg.norm(blocks, 2, axis=(2, 3)).max(axis=1))
    gammas = np.einsum("mi,mj,ijk->mk", both.conj(), both, bs.gamma.gram, optimize=True)
    from_form = np.sqrt(block_norms(alg, gammas).reshape(2, -1).max(axis=0))
    return norms.reshape(2, -1).max(axis=0), from_form


@pytest.mark.parametrize("form", range(len(_dirac_forms())))
def test_dirac_seminorms_match_norm_route(form):
    gamma = _dirac_forms()[form]
    op = nca.DiracOperator(nca.build_bimodule(gamma))
    coords = random_rows(gamma.algebra, np.random.default_rng(form), 12)
    for got, want in zip(nca.dirac_seminorms(op, coords), _dirac_seminorms_norm(op, coords)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("spec", [
    {"nodes": 5, "c": [[0, 1, 0, 0, 2], [1, 0, 1, 0, 0], [0, 1, 0, 3, 0],
                       [0, 0, 3, 0, 1], [2, 0, 0, 1, 0]], "seed": 4},
    {"algebra": {"blocks": [2, 1], "trace_weights": [1.0, 2.0]},
     "generator": {"kind": "lindblad", "vs": [[[[[0, 0], [1, 0]], [[0, 1], [0, 0]]],
                                               [[[0.5, 0]]]]]},
     "seed": 9},
])
def test_dirac_suite_norm_formula_matches_loop(spec):
    # the suite draws its ten self-adjoint samples in the loop's rng order
    parsed = parse_spec(spec)
    op = nca.DiracOperator(nca.build_bimodule(parsed.generator["gamma"]))
    rng = np.random.default_rng(parsed.seed)
    want = 0.0
    for _ in range(10):
        value, from_form = _seminorm_loop(op, _draw(random_self_adjoint_rows, parsed.algebra, rng))
        want = max(want, abs(value - from_form))
    got = run_command("dirac", parsed)["data"]["norm_formula_residual"]
    assert abs(got - want) <= 1e-12


# -- functions of the Laplacian ------------------------------------------------


def _resolvent_solve(lap, ts, orders=(1, 2), seed=0, count=5, tol=1e-9):
    """``resolvent_check`` with one solve per time on the amplified matrix."""
    results = []
    for order in orders:
        if order == 1:
            alg, mat = lap.algebra, lap.matrix
        else:
            amp_op = amplify_superop(lap.superop, order)
            alg, mat = amp_op.algebra, amp_op.matrix
        rng = np.random.default_rng(seed + 101 * order)
        samples = [_draw(random_positive_rows, alg, rng) for _ in range(count)]
        rows = np.array([alg.to_coords(a) for a in samples] + [alg.identity_coords])
        eye = np.eye(alg.dim)
        images = [rows @ np.linalg.solve(eye + t * mat, eye).T for t in ts]
        root = np.sqrt(alg.basis_weights)
        images = np.array(images).reshape(len(ts), count + 1, alg.dim) / root
        unit = block_norms(alg, images[:, count] - alg.identity_coords / root)
        ra = images[:, :count]
        herm = (ra + ra[..., alg.adj_table].conj()) / 2
        low = hermitian_eigenvalues(alg, herm).min(axis=-1)
        neg = np.maximum(np.maximum(0.0, -low), block_norms(alg, ra - herm))
        size = block_norms(alg, rows[:count] / root)
        growth = block_norms(alg, ra) - size
        entries = np.concatenate([unit[:, None], np.maximum(neg, growth)], axis=1)
        bounds = np.concatenate([np.full((len(ts), 1), tol),
                                 np.broadcast_to(tol * (1.0 + size), (len(ts), count))], axis=1)
        over = entries > bounds
        witness = None
        if over.any():
            ti, col = np.unravel_index(np.where(over, entries, -np.inf).argmax(), over.shape)
            witness = {"order": order, "t": float(ts[ti]), "kind": "unit"}
            if col > 0:
                idx = col - 1
                witness["kind"] = ("positivity" if neg[ti, idx] >= growth[ti, idx]
                                   else "contraction")
                witness["element_index"] = int(idx)
        results.append((f"resolvent-n{order}", witness is None,
                        max(float(entries.max(initial=0.0)), 0.0), witness))
    return results


def _markov_probes_solve(lap, resolvents, order, rng, ts=(0.05, 0.5, 5.0)):
    """``_markov_probes`` with one solve per time ``ts`` on the amplified
    Laplacian matrix in place of ``resolvents``; a singular time is skipped."""
    alg = lap.algebra.amplify(order)
    m = amplify_matrix(lap.matrix, lap.algebra, order)
    root = np.sqrt(alg.basis_weights)
    extremes = _extreme_positives(alg, rng)
    eye = np.eye(alg.dim)
    probes = []
    for t in ts:
        try:
            images = np.linalg.solve(eye + t * m, (extremes * root).T).T / root
        except np.linalg.LinAlgError:
            continue
        probes.extend(0.5 * (images + images[:, alg.adj_table].conj()))
    firsts = extremes[:4]
    for i, a in enumerate(firsts):
        for b in firsts[i + 1:]:
            for r in (0.05, 0.25):
                probes.append(a - r * b)
                probes.append(b - r * a)
    return np.array(probes).reshape(-1, alg.dim)


def _energy_metric_split(lap, mu, nu, tol=1e-9):
    """``energy_metric`` with its own rank cut and kernel split."""
    alg = mu.algebra
    g = alg.to_coords(mu.density - nu.density)
    w, v = lap.eigensystem
    cut = lap.rank_tol * max(1.0, float(w[-1]))
    comps = v.conj().T @ g
    if np.linalg.norm(comps[w <= cut]) > tol * max(1.0, np.linalg.norm(g)):
        raise DisconnectedError("state difference is not in the range of the Laplacian")
    keep = w > cut
    return float(np.sqrt(np.sum(np.abs(comps[keep]) ** 2 / w[keep]).real))


def _laplacian_forms():
    """The catalog forms, a K3 with conductance -0.1 and a Lindblad pair on
    [3, 2, 1] with weights [1, 0.5, 2], as (name, energy form)."""
    forms = [(ex.name, nca.energy_form(ex.gamma)) for ex in build_catalog()]
    negative, lindblad = _leibniz_forms()[:2]
    return forms + [("negative-k3", negative), ("lindblad-3-2-1", lindblad)]


def _resolvent_stacked(lap, ts, orders=(1, 2), seed=0, count=5, tol=1e-9):
    """``resolvent_check`` with the resolvents of every time applied to the
    cells as one stack."""
    results = []
    for order in orders:
        alg = lap.algebra.amplify(order)
        rng = np.random.default_rng(seed + 101 * order)
        root = np.sqrt(alg.basis_weights)
        rows = np.concatenate([root * random_positive_rows(alg, rng, count),
                               alg.identity_coords[None]])
        images = _on_cell_stack(lap.resolvents(ts), rows, lap.algebra, order) / root
        unit = block_norms(alg, images[:, count] - alg.identity_coords / root)
        ra = images[:, :count]
        herm = (ra + ra[..., alg.adj_table].conj()) / 2
        low = hermitian_eigenvalues(alg, herm).min(axis=-1)
        neg = np.maximum(np.maximum(0.0, -low), block_norms(alg, ra - herm))
        size = block_norms(alg, rows[:count] / root)
        growth = block_norms(alg, ra) - size
        entries = np.concatenate([unit[:, None], np.maximum(neg, growth)], axis=1)
        scales = np.concatenate([[1.0], 1.0 + size])
        results.append((entries, scales))
    return results


@pytest.mark.parametrize("form", range(len(_laplacian_forms()) + 1))
def test_resolvent_check_matches_solve(form):
    forms = _laplacian_forms()
    # the rank-one Laplacian's resolvent is not positive, so its check has a witness
    lap = _rank_one_laplacian()[1] if form == len(forms) else nca.laplacian(forms[form][1])
    for seed, ts in ((0, (0.0, 0.1, 1.0, 10.0)), (3, (0.05, 5.0, 50.0))):
        got = nca.resolvent_check(lap, ts, seed=seed)
        want = _resolvent_solve(lap, ts, seed=seed)
        for res, (name, passed, residual, witness) in zip(got, want, strict=True):
            assert (res.check, res.passed, res.witness) == (name, passed, witness)
            assert abs(res.residual - residual) <= 1e-12 * max(1.0, residual)
        # one resolvent applied to the cells at a time, bit for bit the stack
        for res, (entries, scales) in zip(got, _resolvent_stacked(lap, ts, seed=seed)):
            ref = judge(res.check, entries, scales, 1e-9)
            assert (res.passed, res.residual, res.bound) == (ref.passed, ref.residual, ref.bound)
    if form == len(forms):
        assert not got[0].passed


def test_amplified_resolvent_is_the_resolvent_of_the_amplified_laplacian():
    for _, e in _laplacian_forms():
        lap = nca.laplacian(e)
        amp = amplify_superop(lap.superop, 2).matrix
        eye = np.eye(len(amp))
        for t in (0.1, 1.0, 10.0):
            got = amplify_matrix(lap.function(lambda w: 1 / (1 + t * w)), lap.algebra, 2)
            want = np.linalg.solve(eye + t * amp, eye)
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def _singular_form():
    # an orthonormal gram with eigenvalue exactly -2: 1 + tL is singular at t = 0.5
    alg = nca.build_algebra([1] * 3, [1.0] * 3)
    return EnergyForm(alg, np.diag([0.0, 1.0, -2.0]))


def _on_cell_stack(resolvents, rows, algebra, order):
    """``_on_cells`` of every matrix of the stack ``resolvents`` at once."""
    units = cell_units(algebra, order)
    cells = rows[:, units].reshape(-1, algebra.dim) @ resolvents.swapaxes(-1, -2)
    out = np.empty((len(resolvents),) + rows.shape, dtype=complex)
    out[..., units] = cells.reshape((len(resolvents), len(rows)) + units.shape)
    return out


def _markov_probes_stacked(lap, order, rng, ts=(0.05, 0.5, 5.0)):
    """``_markov_probes`` with the resolvents of every time built and
    applied to the cells as one stack."""
    alg = lap.algebra.amplify(order)
    root = np.sqrt(alg.basis_weights)
    extremes = _extreme_positives(alg, rng)
    ts = np.array([t for t in ts if not np.any(1 + t * lap.eigensystem[0] == 0)])
    resolvents = lap.function(lambda w: 1 / (1 + ts[:, None] * w))
    images = (_on_cell_stack(resolvents, extremes * root, lap.algebra, order)
              / root).reshape(-1, alg.dim)
    firsts = extremes[:4]
    i, j = np.triu_indices(len(firsts), 1)
    a, b, r = firsts[i, None], firsts[j, None], np.array([0.05, 0.25])[:, None]
    diffs = np.stack([a - r * b, b - r * a], axis=2).reshape(-1, alg.dim)
    return np.concatenate([0.5 * (images + images[:, alg.adj_table].conj()), diffs])


@pytest.mark.parametrize("form", range(len(_laplacian_forms()) + 1))
def test_markov_probes_match_solve(form):
    forms = _laplacian_forms()
    lap = nca.laplacian(_singular_form() if form == len(forms) else forms[form][1])
    resolvents = _probe_resolvents(lap, (0.5, 1.0))
    for order in (1, 2):
        alg = lap.algebra.amplify(order)
        got = _markov_probes(lap, resolvents, order, np.random.default_rng(7))
        want = _markov_probes_solve(lap, None, order, np.random.default_rng(7), ts=(0.5, 1.0))
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        # one resolvent applied to the cells at a time, bit for bit the stack
        assert np.array_equal(got, _markov_probes_stacked(lap, order, np.random.default_rng(7),
                                                          ts=(0.5, 1.0)))
    if form == len(forms):
        # the singular time gives no resolvent images: only the 4 * 3 * 2
        # differences of extreme positives and the images at t = 1 remain
        assert len(got) == len(_extreme_positives(alg, np.random.default_rng(7))) + 24


def test_markov_check_builds_the_probe_resolvents_once(monkeypatch):
    lap = nca.laplacian(_laplacian_forms()[-1][1])
    calls = []
    function = Laplacian.function
    monkeypatch.setattr(Laplacian, "function",
                        lambda self, f: calls.append(1) or function(self, f))
    nca.markov_check(lap, orders=(1, 2, 3))
    assert len(calls) == 1


def _markov_agree(got, want):
    for res, ref in zip(got, want, strict=True):
        assert (res.check, res.passed) == (ref.check, ref.passed)
        assert abs(res.residual - ref.residual) <= 1e-12 * max(1.0, ref.residual)
        assert (res.witness is None) == (ref.witness is None)
        if ref.witness is not None:
            pairs = [(v["element_index"], v["function"]) for v in res.witness["violations"]]
            assert pairs == [(v["element_index"], v["function"])
                             for v in ref.witness["violations"]]


@pytest.mark.parametrize("form", range(len(_laplacian_forms())))
def test_markov_check_matches_solve_probes(monkeypatch, form):
    name, e = _laplacian_forms()[form]
    lap = nca.laplacian(e)
    got = nca.markov_check(lap, seed=3)
    monkeypatch.setattr(nca.energy, "_markov_probes", _markov_probes_solve)
    want = nca.markov_check(lap, seed=3)
    _markov_agree(got, want)
    if name == "negative-k3":
        assert not got[0].passed and not got[1].passed


def _random_state(alg, rng):
    a = _draw(random_positive_rows, alg, rng)
    return nca.State(a * (1.0 / a.trace().real))


@pytest.mark.parametrize("form", range(len(_laplacian_forms())))
def test_energy_metric_matches_kernel_split(form):
    e = _laplacian_forms()[form][1]
    lap = nca.laplacian(e)
    rng = np.random.default_rng(form)
    states = [_random_state(e.algebra, rng) for _ in range(4)]
    for mu in states:
        for nu in states:
            try:
                want = _energy_metric_split(lap, mu, nu)
            except DisconnectedError:
                with pytest.raises(DisconnectedError):
                    nca.energy_metric(lap, mu, nu)
                continue
            got = nca.energy_metric(lap, mu, nu)
            assert abs(got - want) <= 1e-12 * max(1.0, want)


def test_energy_metric_disconnected_matches_kernel_split():
    c = np.zeros((4, 4))
    c[0, 1] = c[1, 0] = c[2, 3] = c[3, 2] = 1.0
    alg = nca.build_algebra([1] * 4, [1.0] * 4)
    lap = nca.laplacian(nca.energy_form(nca.network_cdc(alg, c, scale=0.5)))
    points = [nca.point_state(alg, x) for x in range(4)]
    assert nca.energy_metric(lap, points[0], points[1]) == _energy_metric_split(
        lap, points[0], points[1])
    for route in (nca.energy_metric, _energy_metric_split):
        with pytest.raises(DisconnectedError):
            route(lap, points[0], points[2])


# -- batteries drawn one sample at a time ---------------------------------------


def _extreme_positives_loop(alg, rng, rank_ones=2):
    """``_extreme_positives`` built one element at a time."""
    out = [alg.basis_element(i) for i in alg.diagonal_units]
    for _ in range(rank_ones):
        b = int(rng.integers(len(alg.blocks)))
        nb = alg.blocks[b]
        v = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
        data = [np.zeros((n, n)) for n in alg.blocks]
        data[b] = np.outer(v, v.conj()) / np.vdot(v, v)
        out.append(alg.element(data))
    if len(out) > 8:
        keep = rng.choice(len(out), size=8, replace=False)
        out = [out[int(k)] for k in sorted(keep)]
    return np.array([a.coords for a in out])


def _markov_probes_loop(lap, order, alg, rng, ts=(0.05, 0.5, 5.0)):
    """``_markov_probes`` with one resolvent per time and one difference of
    extreme positives at a time."""
    root = np.sqrt(alg.basis_weights)
    extremes = _extreme_positives_loop(alg, rng)
    probes = []
    for t in ts:
        if np.any(1 + t * lap.eigensystem[0] == 0):
            continue
        resolvent = lap.function(lambda w: 1 / (1 + t * w))
        images = _on_cells(resolvent[None], extremes * root, lap.algebra, order)[0] / root
        probes.extend(0.5 * (images + images[:, alg.adj_table].conj()))
    firsts = extremes[:4]
    for i, a in enumerate(firsts):
        for b in firsts[i + 1:]:
            for r in (0.05, 0.25):
                probes.append(a - r * b)
                probes.append(b - r * a)
    return np.array(probes).reshape(-1, alg.dim)


def _markov_loop(lap, orders=(1, 2), seed=0, count=20, tol=1e-9):
    """``markov_check`` with the default battery drawn one element and one
    seeded function at a time, and each function applied on its own."""
    e = energy_form_of_laplacian(lap)
    relu, absolute = PiecewiseLinear.relu(), PiecewiseLinear.absolute()
    results = []
    for order in orders:
        rng = np.random.default_rng(seed + order)
        alg = e.algebra.amplify(order)
        samples = [random_self_adjoint_rows(alg, rng, 1)[0] for _ in range(count)]
        coords = np.concatenate([np.reshape(samples, (-1, alg.dim)),
                                 _markov_probes_loop(lap, order, alg, rng)])
        spectra = SpectralStack(alg, coords)
        seeded = [seeded_three_knot(rng) for _ in coords]
        fns = [("relu", np.array([relu.xs]), np.array([relu.ys])),
               ("abs", np.array([absolute.xs]), np.array([absolute.ys])),
               ("seeded-3pt", np.array([fn.xs for fn in seeded]),
                np.array([fn.ys for fn in seeded]))]
        lips = np.stack([piecewise_linear_lipschitz(xs, ys, spectra.lo, spectra.hi)
                         for _, xs, ys in fns], axis=1)
        images = spectra.apply(
            lambda w: np.stack([piecewise_linear_values(xs, ys, w) for _, xs, ys in fns], axis=1))
        lhs = _seminorms(e, images, order)
        bound = lips * _seminorms(e, coords, order)[:, None]
        violation = lhs - bound
        worst = float(violation.max(initial=0.0))
        violations = []
        for idx in range(len(coords)):
            for f, (name, _, _) in enumerate(fns):
                if violation[idx, f] > tol and len(violations) < 10:
                    violations.append({"element_index": idx, "function": name,
                                       "lhs": float(lhs[idx, f]),
                                       "bound": float(bound[idx, f])})
        results.append(CheckResult(
            f"markov-n{order}", worst <= tol, residual=worst,
            witness={"order": order, "violations": violations} if violations else None,
            bound=tol))
    return results


def _leibniz_draws(e, orders=(1, 2), seed=0, count=20, tol=1e-9):
    """``leibniz_check`` with its pairs drawn one element at a time, a then b."""
    results = []
    for order in orders:
        rng = np.random.default_rng(seed + 17 * order)
        alg = e.algebra.amplify(order)
        pairs = [(_draw(random_self_adjoint_rows, alg, rng), _draw(random_self_adjoint_rows, alg, rng))
                 for _ in range(count)]
        a = np.array([x.coords for x, _ in pairs]).reshape(-1, alg.dim)
        b = np.array([y.coords for _, y in pairs]).reshape(-1, alg.dim)
        lhs = _seminorms(e, block_products(alg, a, b), order)
        bound = (_seminorms(e, a, order) * block_norms(alg, b)
                 + block_norms(alg, a) * _seminorms(e, b, order))
        violation = lhs - bound
        worst = float(violation.max(initial=0.0))
        witness = None
        if worst > max(tol, 0.0):
            idx = int(violation.argmax())
            witness = {"order": order, "pair_index": idx,
                       "lhs": float(lhs[idx]), "bound": float(bound[idx])}
        results.append(CheckResult(f"leibniz-n{order}", worst <= tol, worst, witness, tol))
    return results


def _knot_rejections(monkeypatch):
    """Record, for every seeded-function draw, whether its first reading
    holds a rejected knot triple."""
    rejected = []
    knots = nca.energy._seeded_knots

    def recording(rng, count):
        probe = np.random.default_rng()
        probe.bit_generator.state = rng.bit_generator.state
        raw = np.sort(probe.uniform(-2.0, 2.0, (count, 6))[:, :3], axis=1)
        rejected.append(bool((np.diff(raw, axis=1).min(axis=1) < 1e-3).any()))
        return knots(rng, count)

    monkeypatch.setattr(nca.energy, "_seeded_knots", recording)
    return rejected


def test_markov_and_leibniz_batteries_match_draw_loops(monkeypatch):
    # one draw per battery is exactly the per-element stream: the same
    # CheckResults, floats and witnesses bit for bit, knot rejections included
    rejected = _knot_rejections(monkeypatch)
    for name, e in _laplacian_forms():
        lap = nca.laplacian(e)
        for seed in (0, 3, 11, 29, 42):
            got = nca.markov_check(lap, orders=(1, 2, 3), seed=seed)
            assert got == _markov_loop(lap, orders=(1, 2, 3), seed=seed), name
            assert name != "negative-k3" or not got[0].passed
            assert nca.markov_check(lap, seed=seed, count=5, tol=-1.0) == _markov_loop(
                lap, seed=seed, count=5, tol=-1.0), name
            for tol in (1e-9, -1.0):
                got = nca.leibniz_check(e, orders=(1, 2, 3), seed=seed, tol=tol)
                assert got == _leibniz_draws(e, orders=(1, 2, 3), seed=seed, tol=tol), name
    assert any(rejected)


def _fiber_infimum_loop(qd, seed=0, count=20, tol=1e-9):
    """The fiber-infimum check of ``quotient_checks``, one sample at a time:
    it fails when any sample's gap exceeds tol (1 + |direct|), and reports
    the worst gap with the bound of the first sample that reached it.  The
    witness is the last sample that raised the worst gap and exceeded its
    bound, else the first sample that exceeded its bound."""
    ambient_e = energy_form_of_laplacian(qd.ambient)
    e_b = energy_form_of_laplacian(qd.quotient_laplacian)
    rng = np.random.default_rng(seed)
    worst, worst_bound, witness, first_over = 0.0, None, None, None
    for idx in range(count):
        b = random_element(qd.algebra_b, rng)
        lift = nca.fiber_minimizer(qd, b)
        direct = ambient_e.value(lift, lift).real
        via_schur = e_b.value(b, b).real
        gap = abs(direct - via_schur)
        eps = random_element(qd.algebra_c, rng, scale=0.5)
        coords = np.array(lift.coords)
        coords[qd.idx_c] += eps.coords
        perturbed = qd.ambient.algebra.from_canonical_coords(coords)
        extra = ambient_e.value(perturbed, perturbed).real - direct
        eps_coords = qd.algebra_c.to_coords(eps)
        expected_extra = float((eps_coords.conj() @ qd.s_block @ eps_coords).real)
        gap = max(gap, abs(extra - expected_extra))
        bound = tol * (1.0 + abs(direct))
        sample = {"sample": idx, "direct": direct, "schur": via_schur}
        if gap > bound and first_over is None:
            first_over = sample
        if gap > worst or worst_bound is None:
            worst, worst_bound = max(gap, worst), bound
            if gap > bound:
                witness = sample
    witness = witness or first_over
    return CheckResult("fiber-infimum", witness is None, worst, witness, worst_bound)


def _quotient_splits():
    """Splits whose ambient form passes the preconditions of
    ``quotient_checks``: two networks and two spectral triples."""
    rng = np.random.default_rng(97)
    out = []
    for size, keep in ((3, [0, 1]), (6, [0, 2, 4])):
        net = random_network(size, rng)
        lap = nca.laplacian(nca.energy_form(nca.network_cdc(net.algebra, net.c, scale=0.5)))
        out.append(nca.split(lap, central_projection(net.algebra, keep)))
    for blocks, keep in (([3, 2, 1], [0]), ([2, 2], [1])):
        weights = [1.0] * len(blocks)
        alg = nca.build_algebra(blocks, weights)
        x = rng.standard_normal((sum(blocks),) * 2) + 1j * rng.standard_normal((sum(blocks),) * 2)
        gamma = nca.spectral_triple_cdc((x + x.conj().T) / 4, alg)
        lap = nca.laplacian(nca.energy_form(gamma))
        out.append(nca.split(lap, central_projection(alg, keep)))
    return out


def _fiber_agree(got, want):
    (res,) = [r for r in got if r.check == "fiber-infimum"]
    assert res.passed == want.passed
    assert abs(res.residual - want.residual) <= 1e-12 * max(1.0, want.residual)
    if want.residual > 1e-10:  # below that, rounding picks the worst sample
        assert abs(res.bound - want.bound) <= 1e-12 * want.bound
    assert (res.witness is None) == (want.witness is None)
    if want.witness is not None:
        assert res.witness["sample"] == want.witness["sample"]
        for key in ("direct", "schur"):
            want_value = want.witness[key]
            assert abs(res.witness[key] - want_value) <= 1e-12 * max(1.0, abs(want_value))


@pytest.mark.parametrize("split", range(4))
def test_fiber_infimum_matches_loop(monkeypatch, split):
    qd = _quotient_splits()[split]
    for seed in (0, 5, 13):
        _fiber_agree(nca.quotient_checks(qd, seed=seed), _fiber_infimum_loop(qd, seed=seed))

    # lifts moved off the minimizer by an amount that depends on the sample:
    # several samples raise the running worst gap and only some exceed their
    # bound, and the witness is the last of those
    lifts = nca.quotient._fiber_lifts

    def moved(qd, b):
        out = lifts(qd, b)
        out[:, qd.idx_c] += 1e-6 * np.abs(b[:, :1]) ** 3
        return out

    monkeypatch.setattr(nca.quotient, "_fiber_lifts", moved)
    witnesses = []
    for seed in (0, 5, 13):
        for tol in (1e-9, 1e-7, 1e-5):
            want = _fiber_infimum_loop(qd, seed=seed, tol=tol)
            _fiber_agree(nca.quotient_checks(qd, seed=seed, tol=tol), want)
            witnesses.append(want.witness)
    assert any(w is None for w in witnesses)
    assert any(w is not None and w["sample"] > 0 for w in witnesses)


def _stddev_gap_loop(spec):
    """The seminorm identity of the ``stddev`` suite, one sample at a time,
    with the standard deviation from element arithmetic."""
    ea = nca.extend(spec.algebra, spec.weight_element)
    e = energy_form_of_laplacian(nca.stddev_laplacian(ea))
    rng = np.random.default_rng(spec.seed)
    gap = 0.0
    for _ in range(10):
        a = _draw(random_self_adjoint_rows, spec.algebra, rng)
        centered = a - complex(ea.mu(a)) * spec.algebra.identity()
        deviation = float(np.sqrt(max(ea.mu(centered.adjoint() * centered).real, 0.0)))
        assert abs(nca.stddev_seminorm(ea, a) - deviation) <= 1e-12 * max(1.0, deviation)
        gap = max(gap, abs(deviation - e.seminorm(a)))
    return gap


@pytest.mark.parametrize("blocks, weights", [([1] * 4, [1.0] * 4), ([3, 2, 1], [1.0, 0.5, 2.0]),
                                             ([2, 2], [1.0, 3.0])])
def test_stddev_seminorm_identity_matches_loop(blocks, weights):
    rng = np.random.default_rng(101)
    for seed in (0, 4, 9):
        lams = rng.uniform(0.5, 2.0, len(blocks))
        lams /= sum(l * w * n for l, w, n in zip(lams, weights, blocks))
        weight = [[[[l, 0.0] if r == c else [0.0, 0.0] for c in range(n)] for r in range(n)]
                  for l, n in zip(lams, blocks)]
        spec = parse_spec({"algebra": {"blocks": blocks, "trace_weights": weights},
                           "weight_element": weight, "seed": seed})
        want = _stddev_gap_loop(spec)
        (got,) = [c for c in run_command("stddev", spec)["checks"]
                  if c["check"] == "stddev-seminorm-identity"]
        assert got["passed"] == (want <= 1e-9)
        assert abs(got["residual"] - want) <= 1e-12 * max(1.0, want)


def test_batteries_make_no_per_sample_calls(monkeypatch):
    # every battery draws its samples as rows and evaluates them together:
    # no per-element sampler or lift is called, and each Markov order draws
    # its seeded functions in one call
    calls, knot_calls = [], []
    for module in (nca.algebra, nca.energy, nca.quotient, nca.cli, nca.stddev, nca.cdc):
        for name in ("random_element", "random_self_adjoint", "random_positive",
                     "fiber_minimizer"):
            if hasattr(module, name):
                def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
                    calls.append(_name)
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    knots = nca.energy._seeded_knots

    def counted_knots(rng, count):
        knot_calls.append(count)
        return knots(rng, count)

    monkeypatch.setattr(nca.energy, "_seeded_knots", counted_knots)
    qd = _quotient_splits()[2]
    e = energy_form_of_laplacian(qd.ambient)
    nca.markov_check(qd.ambient, orders=(1, 2, 3))
    assert len(knot_calls) == 3
    nca.leibniz_check(e, orders=(1, 2))
    nca.resolvent_check(qd.ambient, (0.5, 5.0))
    nca.quotient_checks(qd)
    spec = parse_spec({"algebra": {"blocks": [2, 1], "trace_weights": [1.0, 1.0]},
                       "weight_element": [[[[0.25, 0], [0, 0]], [[0, 0], [0.25, 0]]],
                                          [[[0.5, 0]]]],
                       "generator": {"kind": "lindblad",
                                     "vs": [[[[[0, 0], [1, 0]], [[0, 1], [0, 0]]], [[[0.5, 0]]]]]},
                       "seed": 3})
    for command in ("stddev", "dirac", "check-cdc"):
        run_command(command, spec)
    assert calls == []


# -- metric checks ---------------------------------------------------------------


def _distances_broadcast(coords):
    return np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)


def _mixture_search_broadcast(dist2):
    # viol[i, j, k] = d2(i, k) - (d2(i, j) + d2(j, k)), one (m, m, m) table;
    # the witness is its first entry within 1e-12 * max(1, |max|) of the max
    viol = dist2[:, None, :] - (dist2[:, :, None] + dist2[None, :, :])
    best = float(viol.max())
    near = viol >= best - 1e-12 * max(1.0, abs(best))
    i, j, k = np.unravel_index(near.argmax(), viol.shape)
    return best, (int(i), int(j), int(k))


def _unrank_triple(n, k):
    """The k-th triple of ``combinations(range(n), 3)``, without listing them."""
    triple, x = [], 0
    for left in (2, 1, 0):
        # the triples whose next node is x number comb(n - x - 1, left)
        while k >= math.comb(n - x - 1, left):
            k -= math.comb(n - x - 1, left)
            x += 1
        triple.append(x)
        x += 1
    return tuple(triple)


def _node_triples_unranked(n, rng):
    """Every triple when there are at most four, else the same four draws as
    ``_node_triples``, each unranked on its own."""
    count = math.comb(n, 3)
    ranks = range(count) if count <= 4 else rng.choice(count, size=4, replace=False)
    return [_unrank_triple(n, int(k)) for k in ranks]


def _broadcast_metric_checks(net, **kwargs):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nca.resistance, "_distances", _distances_broadcast)
        patch.setattr(nca.resistance, "_mixture_search", _mixture_search_broadcast)
        patch.setattr(nca.resistance, "_node_triples", _node_triples_unranked)
        return nca.metric_checks(net, **kwargs)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 16), st.integers(0, 2 ** 31 - 1), st.sampled_from([1e-6, 10.0]))
def test_metric_checks_match_broadcast_route(n, seed, margin):
    # every field bit for bit, the counterexample's nodes, weights and
    # violation among them; a margin of 10 searches all four triples
    net = random_network(n, np.random.default_rng(seed))
    got = nca.metric_checks(net, seed=seed, mixture_margin=margin)
    want = _broadcast_metric_checks(net, seed=seed, mixture_margin=margin)
    for field in dataclasses.fields(got):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b, field.name
    assert np.array_equal(got.energy, got.energy.T) and not np.diag(got.energy).any()


@pytest.mark.parametrize("seed", range(20))
def test_mixture_search_ties_match_broadcast(seed):
    # small integer distances tie across rows and within them, so the first
    # row reaching the maximum and the first (j, k) in it must be taken
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 12))
    dist2 = np.triu(rng.integers(0, 3, (m, m)), 1).astype(float)
    dist2 += dist2.T
    assert _mixture_search(dist2) == _mixture_search_broadcast(dist2)


def test_mixture_witness_is_the_first_of_its_mirrored_pair():
    # (i, j, k) and (k, j, i) tie exactly; the witness is the one with i < k
    searched = []

    def spy(dist2):
        searched.append((dist2, _mixture_search(dist2)))
        return searched[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nca.resistance, "_mixture_search", spy)
        report = nca.metric_checks(nca.ResistanceNetwork(K3_C), seed=0)
    dist2, (best, (i, j, k)) = searched[-1]
    assert i < k
    assert dist2[i, k] - (dist2[i, j] + dist2[j, k]) == dist2[k, i] - (dist2[k, j] + dist2[j, i])
    assert (best, (i, j, k)) == _mixture_search_broadcast(dist2)
    weights = _mixture_grid(0.1)
    assert report.mixture_counterexample["weights"] == [list(weights[x]) for x in (i, j, k)]
    assert report.mixture_counterexample["violation"] == best


def test_node_triples_unrank_the_listed_triples():
    for n in range(3, 21):
        listed = list(itertools.combinations(range(n), 3))
        assert [_unrank_triple(n, k) for k in range(math.comb(n, 3))] == listed
    for n in range(3, 49):
        for seed in range(4):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert _node_triples(n, rng) == _node_triples_unranked(n, ref)
            # n <= 4 takes every triple and draws nothing
            assert rng.random() == ref.random()
    assert _node_triples(4, np.random.default_rng(0)) == list(itertools.combinations(range(4), 3))
    assert _node_triples(2, np.random.default_rng(0)) == []


def _amplify_cdc_by_positions(gamma, order):
    """The gram of ``amplify_cdc`` with each target unit found by its place in
    the embedding: units in the same cell row pair up, and base unit u at
    (r, s) lands in cell (col_1, col_2) on the amplified unit at
    (pos[col_1, r], pos[col_2, s])."""
    base = gamma.algebra
    amp = base.amplify(order)
    # each amplified unit's cell j * order + k and the base unit it holds:
    # the unit at (j n + r, k n + s) of an amplified block holds unit (r, s)
    cells, inners = [], []
    for b, nb in enumerate(base.blocks):
        row, col = np.divmod(np.arange((order * nb) ** 2), order * nb)
        (j, r), (k, s) = np.divmod(row, nb), np.divmod(col, nb)
        cells.append(j * order + k)
        inners.append(base._basis_offsets[b] + r * nb + s)
    cells, inners = np.concatenate(cells), np.concatenate(inners)
    row, col = np.divmod(cells, order)
    # pos[k, x]: the amplified row of base row x in matrix cell column k
    x_block = np.repeat(np.arange(len(base.blocks)), base.blocks)
    x_sizes = np.asarray(base.blocks)[x_block]
    x_inner = np.arange(base.total_size) - base._space_offsets[x_block]
    pos = amp._space_offsets[x_block] + np.arange(order)[:, None] * x_sizes + x_inner
    i_1, i_2 = np.nonzero(row[:, None] == row[None, :])
    rows, cols = base.unit_positions
    target = amp._unit_at[pos[col[i_1]][:, rows], pos[col[i_2]][:, cols]]
    gram = np.zeros((amp.dim,) * 3, dtype=gamma.gram.dtype)
    gram[i_1[:, None], i_2[:, None], target] = gamma.gram[inners[i_1], inners[i_2]]
    return gram


@pytest.mark.parametrize("order", [2, 3])
def test_amplify_cdc_matches_embedding_positions(order):
    # bit for bit, on real and complex grams over equal and unequal blocks
    alg = nca.build_algebra([3, 2, 1], [1.0, 0.5, 2.0])
    weighted = nca.commutator_cdc([random_element(alg, np.random.default_rng(71))])
    for gamma in [ex.gamma for ex in build_catalog()] + [weighted]:
        got = nca.amplify_cdc(gamma, order).gram
        want = _amplify_cdc_by_positions(gamma, order)
        assert got.dtype == want.dtype and np.array_equal(got, want)
