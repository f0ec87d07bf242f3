"""The packed carre-du-champ against the dense reference in ``dense_cdc``:
the axiom checks on random forms, the complete-positivity witness, the
builders (the product-defined ones also against their per-factor einsum
route), ``reality_checks`` against its whole-array formulas, and the memory
held by ``is_cdc`` and ``reality_checks``.  ``_star_gaps``, which
splits the star gap into the rows of its first two terms and the rows that
only its last two reach, or on a commutative algebra reads it in closed
form, and the scatters of ``gamma_from_generator`` are checked bit for bit
against padded gathers over every entry, and the scatter of ``network_cdc``
against its broadcast formula."""
import tracemalloc
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nca
from nca.algebra import random_element, row_chunks
from nca.cdc import CdCForm, _star_gaps, lindblad_generator
from nca.errors import InputError
from nca.resistance import random_network
from generators import conjugation_superop

from dense_cdc import (
    broadcast_network_gram,
    dense_is_cdc,
    dense_reality_checks,
    einsum_commutator_gram,
    einsum_group_action_gram,
    einsum_spectral_triple_gram,
)

ALGEBRAS = [
    ([3, 2, 1], [1.0, 0.5, 2.0]),
    ([1] * 7, [1.0, 0.5, 2.0, 1.0, 3.0, 0.7, 1.3]),
    ([2, 2], [1.0, 3.0]),
    ([4], [1.0]),
    ([5], [1.0]),
]


def _random_form(alg, kind, rng):
    """``raw``: arbitrary coefficients; ``symmetrized``: symmetric but
    otherwise arbitrary, so the star identity almost surely fails;
    ``generator``: the form of a random map N with N(1) = 0 and N = N#,
    which is symmetric and a star representation but almost surely not
    completely positive; ``network``, on a commutative algebra: the float64
    gram of a sparse network with one negative conductance."""
    if kind == "generator":
        return nca.gamma_from_generator(_random_generator(alg, rng))
    if kind == "network":
        c = np.triu(rng.uniform(0.5, 2.0, (alg.dim,) * 2)
                    * (rng.uniform(size=(alg.dim,) * 2) < 0.4), 1)
        if alg.dim > 1:
            c[0, -1] = -0.3
        return nca.network_cdc(alg, c + c.T, allow_negative=True)
    d = alg.dim
    g = rng.standard_normal((d, d, d)) + 1j * rng.standard_normal((d, d, d))
    if kind == "symmetrized":
        g = (g + g.transpose(1, 0, 2)[:, :, alg.adj_table].conj()) / 2
    return CdCForm(alg, g)


def _form_kinds(alg):
    """The kinds of ``_random_form`` that ``alg`` takes."""
    return ("raw", "symmetrized", "generator") + (("network",) if alg.is_commutative else ())


def _random_generator(alg, rng):
    """A random map N with N(1) = 0 and N = N#."""
    d = alg.dim
    mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    one = alg.identity_coords
    mat -= np.outer(mat @ one, one.conj()) / (one.conj() @ one)
    n = nca.SuperOperator(alg, mat)
    return 0.5 * (n + n.sharp())


def _assert_matches_reference(gamma):
    """The flags of ``is_cdc`` equal the dense reference's, and so do its
    residuals and witness on the eigen route.  On the edge route (a
    commutative form that passes symmetry, unit and star) a negative
    conductance fails its bound exactly when the dense gram has an
    eigenvalue below -tol * top, and the witness names the most negative
    conductance where the dense one gives a direction."""
    alg = gamma.algebra
    report = nca.is_cdc(gamma)
    ref = dense_is_cdc(alg, alg.embed(gamma.gram))
    for flag in ("symmetric", "unit_annihilating", "star_representation",
                 "completely_positive"):
        assert getattr(report, flag) == ref[flag], flag
    res, ref_res = report.residuals, ref["residuals"]
    assert res["symmetry"] == ref_res["symmetry"]
    assert res["star_representation"] == ref_res["star_representation"]
    bound = 1e-12 * max(1.0, ref["top_eigenvalue"]) if report.symmetric else 1e-12
    assert abs(res["unit"] - ref_res["unit"]) <= bound
    edge_route = "negative_conductance" in res
    assert edge_route == (alg.is_commutative and report.symmetric
                          and report.unit_annihilating and report.star_representation)
    if edge_route:
        assert "gram_min_eigenvalue" not in res
        assert ((res["negative_conductance"] > 1e-9 * gamma.magnitude())
                == (ref_res["gram_min_eigenvalue"] < -1e-9 * ref["top_eigenvalue"]))
        assert res["network_gap"] <= 1e-12 * (1.0 + gamma.magnitude())
    elif report.symmetric:
        assert abs(res["gram_min_eigenvalue"] - ref_res["gram_min_eigenvalue"]) <= bound
    else:
        assert np.isnan(res["gram_min_eigenvalue"]) and np.isnan(ref_res["gram_min_eigenvalue"])
    witness, ref_witness = report.witness, ref["witness"]
    assert (witness is None) == (ref_witness is None)
    if witness is not None and witness["kind"] == "negative-conductance":
        assert edge_route and ref_witness["kind"] == "negative-direction"
        _assert_negative_conductance(gamma, witness)
    elif witness is not None:
        assert witness["kind"] == ref_witness["kind"]
        for key in ("pair", "triple", "residual"):
            assert witness.get(key) == ref_witness.get(key), key
        if witness["kind"] == "negative-direction":
            _assert_negative_direction(witness, ref["big"], bound)
    return report


def _assert_negative_conductance(gamma, witness):
    """The witness edge [x, y] holds the most negative conductance
    Gamma(d_x, d_x)(y) / scale, and names it."""
    g = gamma.gram
    x, y = witness["edge"]
    diagonal = np.array(np.einsum("ppy->py", g).real)
    np.fill_diagonal(diagonal, np.inf)
    assert x != y and g[x, x, y].real == diagonal.min() < 0
    assert witness["conductance"] == g[x, x, y].real / gamma.scale


def _assert_negative_direction(witness, big, bound):
    """The witness is a unit vector over the d n coordinates (i, x) whose
    Rayleigh quotient on the dense basis gram is its eigenvalue."""
    vec = np.array([complex(re, im) for re, im in witness["vector"]])
    assert vec.shape == (big.shape[0],)
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
    rayleigh = complex(vec.conj() @ ((big + big.conj().T) / 2) @ vec)
    assert abs(rayleigh - witness["eigenvalue"]) <= bound


def _gap_chunk(budget):
    """The gap chunk budget set to ``budget``, or left as it is for None."""
    return mock.patch.object(nca.algebra, "_GAP_CHUNK", budget) if budget else nullcontext()


# a gap chunk budget of 1 forms every gap of is_cdc one row i at a time
@pytest.mark.parametrize("blocks, weights", ALGEBRAS)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1),
       kind=st.sampled_from(["raw", "symmetrized", "generator"]),
       budget=st.sampled_from([None, 1]))
def test_packed_is_cdc_matches_dense_reference(blocks, weights, seed, kind, budget):
    alg = nca.build_algebra(blocks, weights)
    with _gap_chunk(budget):
        _assert_matches_reference(_random_form(alg, kind, np.random.default_rng(seed)))


def test_reference_agreement_on_valid_and_witnessed_forms(catalog):
    for ex in catalog:
        assert _assert_matches_reference(ex.gamma).is_cdc, ex.name
    alg = nca.build_algebra([1] * 4, [1.0] * 4)
    c = np.array([[0, 1, 1, 0.5], [1, 0, -0.4, 1], [1, -0.4, 0, 1], [0.5, 1, 1, 0]])
    report = _assert_matches_reference(nca.network_cdc(alg, c, allow_negative=True))
    assert report.witness == {"kind": "negative-conductance", "edge": [1, 2],
                              "conductance": -0.4}
    assert report.residuals["negative_conductance"] == 0.2


def test_cp_witness_is_embedded_from_its_block():
    # on [3, 2, 1] the failing direction of a generator form lives on the
    # rows of one block: every other row of its (i, x) layout is zero
    alg = nca.build_algebra([3, 2, 1], [1.0, 0.5, 2.0])
    gamma = _random_form(alg, "generator", np.random.default_rng(3))
    report = _assert_matches_reference(gamma)
    assert report.witness["kind"] == "negative-direction"
    vec = np.array([complex(re, im) for re, im in report.witness["vector"]])
    rows = np.flatnonzero(np.abs(vec.reshape(alg.dim, alg.total_size)).max(axis=0) > 0)
    owners = {int(np.searchsorted(alg._space_offsets, x, side="right") - 1) for x in rows}
    assert len(owners) == 1


def test_form_rejects_dense_shape(m2):
    dense = np.zeros((m2.dim, m2.dim, m2.total_size, m2.total_size))
    with pytest.raises(InputError, match=r"\(d, d, d\)"):
        CdCForm(m2, dense)


# -- the scatters from the nonzero products against the gathers they replace --


def _mul_sources(alg):
    """``left[a, m]``: the l with e_a e_l = e_m, and ``right[b, m]``: the l
    with e_l e_b = e_m, or -1 where there is none.  The coefficient of e_m
    in e_a x is that of e_left[a, m] in x, and in x e_b that of e_right[b, m]."""
    i, j, k = alg.mul_nonzero
    left, right = np.full((2, alg.dim, alg.dim), -1)
    left[i, k] = j
    right[j, k] = i
    return left, right


def _chunked_star_gaps(alg, g):
    """``_star_gaps`` over every p, one chunk of rows of ``is_cdc`` at a time."""
    d = alg.dim
    chunks = row_chunks(d, 2 * max(alg.blocks) * d * d, nca.algebra._GAP_CHUNK)
    return np.concatenate([_star_gaps(alg, g, rows) for rows in chunks])


def _gather_star_gaps(alg, g):
    """``_star_gaps`` as four gathers over all d^4 entries, one i at a time;
    the index -1 of a structure-constant table reads a zero slot padded
    onto G."""
    d = alg.dim
    adj, mul = alg.adj_table, alg.mul_table
    left, right = _mul_sources(alg)
    left = left[adj]  # [j, m]: the l with e_j* e_l = e_m
    gz = np.pad(g, [(0, 1)] * 3)
    out = np.empty((d, d, d))
    for i in range(d):
        gap = gz[mul[i], :d, :d] - gz[:d, mul[adj[i]], :d]
        gap -= gz[i, :d][:, left].transpose(1, 0, 2)
        gap += gz[:d, adj[i]][:, right]
        out[i] = np.abs(gap).max(axis=2)
    return out


def _gather_generator_gram(n, scale):
    """The gram of ``gamma_from_generator`` as three gathers over all d^3
    entries, with the same padded zero slot."""
    alg = n.algebra
    adj, d = alg.adj_table, alg.dim
    left, right = _mul_sources(alg)
    ne = np.pad(n.canonical_matrix.T, [(0, 1)] * 2)  # ne[i] = N(e_i)
    t_left = ne[adj][:, right]  # N(e_i*) e_j
    t_mid = ne[alg.mul_table[adj], :d]  # N(e_i* e_j)
    t_right = ne[:d][:, left[adj]].transpose(1, 0, 2)  # e_i* N(e_j)
    return scale * (t_left - t_mid + t_right)


# the default chunk budget holds all of p on [1] * 20 and [3, 3, 2], and
# leaves several chunks of p on [5] (the last one ragged), [2] * 8, the shape
# of an amplified form, and [6]; a budget of 1 holds one p per chunk
@pytest.mark.parametrize("blocks, weights, budget", [
    ([5], [1.0], None),
    ([1] * 20, list(np.linspace(0.5, 2.0, 20)), None),
    ([3, 3, 2], [1.0, 0.5, 2.0], None),
] + [(blocks, weights, 1) for blocks, weights in ALGEBRAS] + [
    ([2] * 8, list(np.linspace(0.5, 2.0, 8)), None),
    ([6], [1.0], None),
])
def test_scatters_match_gathers(monkeypatch, blocks, weights, budget):
    if budget is not None:
        monkeypatch.setattr(nca.algebra, "_GAP_CHUNK", budget)
    alg = nca.build_algebra(blocks, weights)
    rng = np.random.default_rng(alg.dim)
    n = _random_generator(alg, rng)
    for scale in (1.0, 0.5):
        assert np.array_equal(nca.gamma_from_generator(n, scale).gram,
                              _gather_generator_gram(n, scale))
    for kind in _form_kinds(alg):
        g = _random_form(alg, kind, rng).gram
        assert np.array_equal(_chunked_star_gaps(alg, g), _gather_star_gaps(alg, g)), kind


@pytest.mark.parametrize("budget", [None, 1])
@settings(max_examples=20, deadline=None)
@given(blocks=st.one_of(st.lists(st.integers(1, 4), min_size=1, max_size=4),
                        st.integers(1, 12).map(lambda n: [1] * n)),
       seed=st.integers(0, 2 ** 31 - 1))
def test_star_gaps_match_gathers(blocks, seed, budget):
    rng = np.random.default_rng(seed)
    alg = nca.build_algebra(blocks, list(rng.uniform(0.5, 2.0, len(blocks))))
    with _gap_chunk(budget):
        for kind in _form_kinds(alg):
            g = _random_form(alg, kind, rng).gram
            assert np.array_equal(_chunked_star_gaps(alg, g), _gather_star_gaps(alg, g)), kind


def _conductance_kinds(n, rng):
    """Conductances on n nodes by kind, each with a zero diagonal: symmetric,
    asymmetric, sparse, with negative entries, and with -0.0 entries (the
    diagonal's among them)."""
    full = rng.uniform(0.1, 2.0, (n, n))
    np.fill_diagonal(full, 0.0)
    symmetric = np.triu(full) + np.triu(full).T
    sparse = np.triu(symmetric * (rng.uniform(size=(n, n)) < 0.3))
    sparse += sparse.T
    return {"symmetric": symmetric, "asymmetric": full, "sparse": sparse,
            "negative": np.where(sparse > 0, -symmetric, symmetric),
            "signed-zeros": np.where(full > 1.0, symmetric, -0.0)}


def test_network_scatter_matches_broadcast():
    for n in range(1, 25):
        alg = nca.build_algebra([1] * n, [1.0] * n)
        for kind, c in _conductance_kinds(n, np.random.default_rng(n)).items():
            for scale in (0.5, 1, -2):
                got = nca.network_cdc(alg, c, scale=scale, allow_negative=True).gram
                want = broadcast_network_gram(c, scale)
                assert np.array_equal(got, want), (n, kind, scale)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (n, kind, scale)


# the default chunk budget holds every i at once on these algebras; 600 and
# 3000 entries leave 2 to 25 chunks of i, some of them ragged (a complex
# gram's chunks are half as tall as a real one's), and a budget of 1 holds
# one i per chunk
@pytest.mark.parametrize("budget", [None, 600, 3000, 1])
@pytest.mark.parametrize("blocks, weights", ALGEBRAS)
def test_reality_checks_match_whole_arrays(monkeypatch, blocks, weights, budget):
    # raw grams reach both witnesses, and the real part of one takes the
    # float64 path to them; a symmetrized gram fails both, and the
    # commutator form of v and v* passes both
    if budget is not None:
        monkeypatch.setattr(nca.algebra, "_GAP_CHUNK", budget)
    alg = nca.build_algebra(blocks, weights)
    rng = np.random.default_rng(alg.dim)
    raw = [_random_form(alg, "raw", rng) for _ in range(2)]
    v = random_element(alg, rng)
    forms = raw + [CdCForm(alg, raw[0].gram.real), _random_form(alg, "symmetrized", rng),
                   nca.commutator_cdc([v, v.adjoint()])]
    for gamma in forms:
        assert nca.reality_checks(gamma) == dense_reality_checks(gamma)
    for gamma in forms[:3]:
        assert {"real_witness", "balanced_witness"} <= set(nca.reality_checks(gamma))
    assert nca.reality_checks(forms[-1])["tau_balanced"]


# -- the builders against their dense definitions ---------------------------


def test_builders_match_dense_definitions():
    alg = nca.build_algebra([3, 2, 1], [1.0, 0.5, 2.0])
    rng = np.random.default_rng(71)
    emb = alg.embedded_basis
    vs = [random_element(alg, rng) for _ in range(2)]

    dense = 0
    for v in vs:
        comm = v.full() @ emb - emb @ v.full()
        dense = dense + np.einsum("izx,jzy->ijxy", comm.conj(), comm)
    packed = nca.commutator_cdc(vs).gram
    assert np.abs(alg.embed(packed) - dense).max() <= 1e-13 * np.abs(dense).max()

    gen = lindblad_generator(alg, vs)
    ne = alg.embed(gen.canonical_matrix.T)
    adj, prod = alg.adj_table, alg.mul_table[alg.adj_table]
    dense = (np.einsum("ixz,jzy->ijxy", ne[adj], emb)
             - np.where((prod >= 0)[:, :, None, None], ne[prod.clip(min=0)], 0.0)
             + np.einsum("ixz,jzy->ijxy", emb[adj], ne))
    packed = nca.gamma_from_generator(gen, scale=0.5).gram
    assert np.array_equal(alg.embed(packed), 0.5 * dense)

    herm = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    d_op = herm + herm.conj().T
    comm = d_op @ emb - emb @ d_op
    dense = np.einsum("izx,jzy->ijxy", comm.conj(), comm)
    packed = nca.spectral_triple_cdc(d_op, alg, scale=2.0).gram
    expected = 2.0 * dense[(...,) + alg.unit_positions]  # the diagonal blocks
    assert np.abs(packed - expected).max() <= 1e-13 * np.abs(expected).max()

    u = alg.element([np.linalg.qr(m)[0] for m in random_element(alg, rng).data])
    alpha = conjugation_superop(alg, u)
    diff = alg.embed(alpha.canonical_matrix.T - np.eye(alg.dim))
    dense = 1.5 * np.einsum("izx,jzy->ijxy", diff.conj(), diff)
    packed = nca.group_action_cdc([alpha], [1.5]).gram
    assert np.abs(alg.embed(packed) - dense).max() <= 1e-13 * np.abs(dense).max()


def _assert_close(gram, ref):
    assert np.abs(gram - ref).max() <= 1e-13 * max(1.0, np.abs(gram).max())


def _unitary(alg, rng):
    return alg.element([np.linalg.qr(m)[0] for m in random_element(alg, rng).data])


@pytest.mark.parametrize("blocks, weights", [
    ([3, 2, 1], [1.0, 0.5, 2.0]), ([2, 2], [1.0, 3.0]), ([4], [1.0]), ([6], [1.0])])
def test_product_builders_match_einsum_route(blocks, weights):
    # one batched product over all factors against one einsum per factor;
    # the sums run in another order, so they agree up to rounding
    alg = nca.build_algebra(blocks, weights)
    rng = np.random.default_rng(sum(blocks))
    vs = [random_element(alg, rng) for _ in range(3)]
    singles = [nca.commutator_cdc([v]).gram for v in vs]
    for v, gram in zip(vs, singles):
        _assert_close(gram, einsum_commutator_gram(alg, [v]))
    gram = nca.commutator_cdc(vs).gram
    _assert_close(gram, einsum_commutator_gram(alg, vs))
    _assert_close(gram, sum(singles))

    autos = [conjugation_superop(alg, _unitary(alg, rng)) for _ in range(2)]
    gram = nca.group_action_cdc(autos, [0.5, 2.0]).gram
    _assert_close(gram, einsum_group_action_gram(alg, autos, [0.5, 2.0]))
    _assert_close(gram, sum(nca.group_action_cdc([a], [c]).gram
                            for a, c in zip(autos, [0.5, 2.0])))

    n = alg.total_size
    herm = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    d_op = herm + herm.conj().T
    _assert_close(nca.spectral_triple_cdc(d_op, alg, scale=2.0).gram,
                  einsum_spectral_triple_gram(alg, d_op, scale=2.0))


def test_independent_copies_match_dense_definition():
    alg = nca.build_algebra([2, 1], [1.0, 2.0])
    p = alg.element([0.2 * np.eye(2), [[0.3]]])
    emb, adj, n = alg.embedded_basis, alg.adj_table, alg.total_size
    mu = np.array([complex((p * alg.basis_element(i)).trace()) for i in range(alg.dim)])
    ident = np.eye(n)
    dense = np.zeros((alg.dim, alg.dim, n, n), dtype=complex)
    for i in range(alg.dim):
        for j in range(alg.dim):
            a_star_b = emb[adj[i]] @ emb[j]
            mu_ab = complex((p * alg.pinch(a_star_b)).trace())
            term = mu_ab * ident - mu[adj[i]] * emb[j] - mu[j] * emb[adj[i]] + a_star_b
            dense[i, j] = 0.5 * term @ p.full()
    packed = nca.independent_copies_cdc(alg, p).gram
    assert np.abs(alg.embed(packed) - dense).max() <= 1e-14


# -- memory -----------------------------------------------------------------


def _network_form(size, seed):
    net = random_network(size, np.random.default_rng(seed))
    return nca.network_cdc(net.algebra, net.c)


def _commutator_form(size, seed):
    alg = nca.build_algebra([size], [1.0])
    v = random_element(alg, np.random.default_rng(seed))
    return nca.commutator_cdc([v, v.adjoint(), v + v.adjoint()])


def test_is_cdc_memory_stays_bounded():
    # each bound is the peak of the star gap alone when its whole (p, q, r, m)
    # gap was formed in chunks, which a first is_cdc, its caches unfilled,
    # must stay under
    for gamma, bound_mib in [(_network_form(24, 24), 1.79), (_network_form(48, 48), 4.22),
                             (_commutator_form(6, 6), 1.78)]:
        tracemalloc.start()
        try:
            report = nca.is_cdc(gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2 ** 20, gamma.algebra.blocks
        assert report.is_cdc


def _traced_peak(call) -> int:
    """The tracemalloc peak of ``call()``, in bytes, on its second run: the
    caches of the algebra and of the form are filled by the first."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# past the gram, each gap of is_cdc and reality_checks holds one chunk at a
# time, and is_cdc then one CP stack, which sets its peak on M7; a network
# takes no CP stack, and its network gap goes by chunks too, so N48 peaks
# at 0.86 MiB (0.90 with the (48, 48, 48) CP stack).  With whole float
# (d, d, d) star and tau-balanced gaps the two peaked at 2.57 and 1.46 MiB
# on N48, 1.55 and 1.59 on M6, and 1.91 and 2.09 on M7, whose complex gram
# is 1.80 MiB; with whole-gram gaps at 3.43 and 4.24, 2.97 and 3.22, and
# 7.30 and 8.10
@pytest.mark.parametrize("build, size, cdc_mib, reality_mib", [
    (_network_form, 48, 1.0, 0.9), (_commutator_form, 6, 1.4, 1.4),
    (_commutator_form, 7, 2.00, 1.4)])
def test_form_checks_hold_one_gram_sized_temporary(build, size, cdc_mib, reality_mib):
    gamma = build(size, size)
    assert _traced_peak(lambda: nca.is_cdc(gamma)) <= cdc_mib * 2 ** 20
    assert _traced_peak(lambda: nca.reality_checks(gamma)) <= reality_mib * 2 ** 20
