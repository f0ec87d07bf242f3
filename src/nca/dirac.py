"""The concrete one-form space of a carre-du-champ, its derivation and left
action, the Hodge-Dirac operator, the commutator seminorm with its max
formula, and the star-graph characterization of when that seminorm is an
energy seminorm.

The one-forms are the kernel of multiplication in A (x) A with the inner
product <a (x) b, c (x) e> = tau(b* Gamma(a, c) e), its null space divided
out; Gamma(1, .) = 0, so each pair e_a (x) e_c stands for (d e_a) e_c =
P(e_a (x) e_c) = e_a (x) e_c - 1 (x) e_a e_c.  The pairs e_k (x) e_l with l in
column c of block b span a copy V_bc of C^(d n_b) over (k, row of l), the
copies are orthogonal, and the gram on each is w_b m_b, with
m_b = F diag(lam) F* the complete-positivity block of ``is_cdc``.  So the rows
B[(b, m, c), (k, l)] = sqrt(w_b lam_m) conj(F[(k, row of l), m]) over the
eigenvalues above the rank cut are an orthonormal frame: B B* = diag(w lam),
and B (1 (x) y) = 0 up to the unit residual of ``is_cdc``.

Left multiplication keeps the right-hand unit.  So the block
B_i = d L_i - A_i d of [D, pi(e_i)] sends e~_l = e_l / sqrt(w_b), for the unit
l = (s, c) of block b, to (d e_i) e~_l = B P(e_i (x) e_l) / sqrt(w_b), which
lies in V_bc with the coordinates S_b[i][:, s], the same for every column c:
S_b[i][m, s] = sqrt(lam_m) conj(F[(i, s), m]) - [i = unit (t, s)] nu[m, t],
where nu is the first term summed over the diagonal units i, the correction
of P.  The derivation d e~_j = sum_u (d e_j) e_u / sqrt(w_j) over the
diagonal units u has the entry S_b[j][m, c] sqrt(w_b / w_j) at row (b, m, c).
On every V_bc, e_i acts by the block
a_i = D^(1/2) F+* [(L_i (x) 1) F+ - iota_i mu(F+)] D^(-1/2) over the kept
eigenvectors F+ with eigenvalues D; mu(F)[s] = sum_r F[(unit (s, r), r)] is
the product map and iota_i places it at the rows (i, .).  With the
eigenvectors below the cut in place of the right-hand F+ the product must
vanish: the null space acts into the null space.  The left action is formed
block by block only for that residual and for a_i* = a_(i*), and is not
kept: every Dirac quantity is read off the stacks S_b.  The product over
all eigenvectors, the moved frame, is formed a few units i at a time.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    _FRAME_CHUNK,
    DEFAULT_EQ_TOL,
    DEFAULT_POS_TOL,
    DEFAULT_RANK_TOL,
    Element,
    block_norms,
    row_chunks,
)
from .cdc import CdCForm, CdCReport, _cp_blocks, _unit_run, is_cdc, network_cdc
from .errors import DisconnectedError
from .resistance import ResistanceNetwork, is_star


@dataclass(frozen=True)
class BimoduleSpace:
    """An orthonormal model of the one-form space of a carre-du-champ.

    ``dmatrix`` maps orthonormal algebra coordinates to one-form
    coordinates.  ``action`` holds ``(start, units, commutator)`` per
    algebra block b with a kept eigenvalue: ``units`` (n_b, n_b) are the
    canonical indices of its matrix units, and its frame rows are
    start + m n_b + c, over the r_b kept eigenvalues m and the columns c.
    On them B_i = d L_i - A_i d sends e~_(units[s, c]) to
    ``commutator[i][:, s]`` (the stack S_b of the module docstring, shape
    (d, r_b, n_b)).  The left action itself is not held.
    """

    gamma: CdCForm
    rank: int
    dmatrix: np.ndarray
    action: tuple
    residuals: dict = field(default_factory=dict)

    @property
    def algebra(self):
        return self.gamma.algebra


def build_bimodule(gamma: CdCForm, pos_tol=DEFAULT_POS_TOL, rank_tol=DEFAULT_RANK_TOL,
                   report: CdCReport | None = None) -> BimoduleSpace:
    """Realize the one-form space of a carre-du-champ concretely, as the
    module docstring describes.  ``report`` is the ``is_cdc`` report of
    ``gamma`` at ``pos_tol`` when the caller already holds it.

    The moved frame W of each block, (d, r_b, d n_b), is never held whole:
    ``_moved_frames`` yields it in chunks of units of at most
    ``_FRAME_CHUNK`` entries (one unit when a unit alone is larger), which
    give the same entries as one chunk.  The kept columns fill the
    (d, r_b, r_b) stack of the left action and the null columns only raise
    ``null_space_invariance``."""
    (is_cdc(gamma, tol=pos_tol) if report is None else report).require(
        "one-form construction requires a carre-du-champ")
    alg = gamma.algebra
    d = alg.dim
    eigs = [np.linalg.eigh(m) for m in _cp_blocks(alg, gamma.gram)]
    # the rank cut on the eigenvalues, then on the squared row norms w lam
    top = max(1.0, max(float(vals[:, -1].max()) for vals, _ in eigs))
    wlams = [alg.basis_weights[cols[:, :1]] * vals
             for (_, cols), (vals, _) in zip(alg.size_groups, eigs)]
    above = [vals > rank_tol * top for vals, _ in eigs]
    wtop = max([1.0] + [float(wl[a].max(initial=0.0)) for wl, a in zip(wlams, above)])
    keeps = [a & (wl > rank_tol * wtop) for wl, a in zip(wlams, above)]

    rank = sum(int(keep.sum()) * n_b for (n_b, _), keep in zip(alg.size_groups, keeps))
    root_w = np.sqrt(alg.basis_weights)
    dmatrix = np.empty((rank, d), dtype=complex)
    action, start = [], 0
    null_res = star_res = 0.0
    for (n_b, cols), (vals, vecs), keep in zip(alg.size_groups, eigs, keeps):
        # one block of the frame and of the action per algebra block q with a
        # kept eigenvalue; the null space must act into the null space
        for q in np.flatnonzero(keep.any(axis=1)):
            root_lam, units = np.sqrt(vals[q, keep[q]]), cols[q].reshape(n_b, n_b)
            r, root_wb = len(root_lam), root_w[units[0, 0]]
            # the first term of S_b[i][m, s], then P's correction nu[m, t] at
            # the units i = (t, s)
            comm = (root_lam[:, None] * vecs[q][:, keep[q]].T.conj()).reshape(r, d, n_b)
            comm = comm.transpose(1, 0, 2)
            comm[units, :, np.arange(n_b)] -= comm[alg.diagonal_units].sum(axis=0).T[:, None]
            rows = comm.transpose(1, 2, 0).reshape(r * n_b, d)
            dmatrix[start:start + r * n_b] = rows * (root_wb / root_w)
            # the left action a_i of the block is checked and not kept.  Its
            # units go by chunks of at most _FRAME_CHUNK entries of the moved
            # frame: the kept columns fill the stack, the null columns only
            # raise a running maximum.  A C-ordered gap keeps the subtraction
            # from buffering
            stack = np.empty((d, r, r), dtype=vecs.dtype)
            null = ~keep[q]
            for chunk, frame in _moved_frames(alg, n_b, cols[q], vecs[q], keep[q]):
                frame *= root_lam[:, None]
                stack[chunk] = frame[:, :, keep[q]] / root_lam
                null_res = max(null_res, root_wb * np.abs(frame[:, :, null]).max(initial=0.0))
            gap = np.conjugate(stack.transpose(0, 2, 1), order="C")
            gap -= stack[alg.adj_table]
            star_res = max(star_res, float(np.abs(gap).max()))
            action.append((start, units, comm))
            start += r * n_b

    # the derivation factors the Laplacian: dmatrix* dmatrix = Delta
    delta = gamma.tau_values / np.outer(root_w, root_w)
    return BimoduleSpace(
        gamma=gamma, rank=rank, dmatrix=dmatrix, action=tuple(action),
        residuals={
            "gram_negative_part": max(0.0, -min(float(v[:, 0].min()) for v, _ in eigs)),
            "null_space_invariance": float(null_res),
            "star_representation": star_res,
            "laplacian_factorization": float(np.abs(dmatrix.conj().T @ dmatrix - delta).max()),
        },
    )



def _moved_frames(alg, n_b, cols, vecs, keep):
    """W[i] = F+* [(L_i (x) 1) F - iota_i mu(F)], shape (m, d n_b) for each
    unit i, for the eigenvectors F = ``vecs`` of the complete-positivity
    block of the block of size n_b with units ``cols``, and the m columns
    F+ = F[:, keep].  Yields ``(units, W[units])`` over the ``row_chunks`` of
    each block size's units, at most ``_FRAME_CHUNK`` entries of W at a time.
    Every unit is its own product in a batch, so the chunks do not change
    the entries."""
    d = alg.dim
    f = vecs.reshape(d, n_b, -1)
    fp = f[:, :, keep].conj()
    m, width = fp.shape[2], f.shape[2]
    mu = f[cols.reshape(n_b, n_b), np.arange(n_b)].sum(axis=1)
    # the unit i at (s, t) of a block of size n sends row (unit (t, u), r)
    # to row (unit (s, u), r): W[i] = F+[(s, .)]* F[(t, .)] - F+[i]* mu,
    # with the rows (s, .) and (t, .) read over (u, r)
    for n, units in alg.size_groups:
        k = len(units)
        run, units = _unit_run(units), units.reshape(-1)
        left = fp[run].reshape(k, n, n * n_b, m).transpose(0, 1, 3, 2)
        right = f[run].reshape(k, n, n * n_b, width)
        for at in row_chunks(len(units), m * width, _FRAME_CHUNK):
            b, s, t = np.unravel_index(np.arange(at.start, at.stop), (k, n, n))
            frame = left[b, s] @ right[b, t]
            frame -= fp[units[at]].swapaxes(-1, -2) @ mu
            yield units[at], frame


@dataclass(frozen=True)
class DiracOperator:
    """The self-adjoint block operator pairing the derivation with its
    adjoint on L2(algebra) (+) L2(one-forms).  Its matrix is never formed:
    the seminorms read its commutators off ``bimodule.action``."""

    bimodule: BimoduleSpace

    @property
    def algebra(self):
        return self.bimodule.algebra


@dataclass(frozen=True)
class DiracSeminorm:
    value: float
    from_form: float
    residual: float


def dirac_seminorm(op: DiracOperator, a: Element) -> DiracSeminorm:
    """|[D, pi(a)]| computed two ways: as the largest singular value of the
    commutator, and as max(|Gamma(a, a)|, |Gamma(a*, a*)|)^(1/2) straight from
    the form.  The discrepancy is reported alongside the value.  This is the
    one-row case of :func:`dirac_seminorms`."""
    value, from_form = (float(x[0]) for x in
                        dirac_seminorms(op, [op.algebra.canonical_coords(a)]))
    return DiracSeminorm(value=value, from_form=from_form, residual=abs(value - from_form))


def _commutator_groups(bs: BimoduleSpace) -> list:
    """The commutator stacks of ``bs.action`` stacked by shape: one
    (k, d, r_b, n_b) array per distinct (r_b, n_b)."""
    groups = {}
    for *_, comm in bs.action:
        groups.setdefault(comm.shape, []).append(comm)
    return [np.stack(group) for group in groups.values()]


def dirac_seminorms(op: DiracOperator, coords) -> tuple:
    """The arrays ``(value, from_form)`` of :func:`dirac_seminorm` over the
    rows of canonical coordinates ``coords`` (m, d).  The second block of
    the commutator, d* A_a - L_a d*, is -B(a*)* up to the
    ``star_representation`` residual, so |[D, pi(a)]| = max(|B(a)|, |B(a*)|).
    B(a) is the direct sum over blocks b and columns c of the (r_b, n_b)
    matrices sum_i a_i S_b[i], so its norm is the largest of theirs: the
    rows of a and a* contracted with the commutator stacks, one batched SVD
    per stack shape.  Gamma(a, a) and Gamma(a*, a*) are one contraction with
    the gram and one ``block_norms``.

    Each row first loses its identity component tau(a)/tau(1) 1: neither side
    changes, but the rounding of Gamma(1, 1) stays out of ``from_form``."""
    bs = op.bimodule
    alg = bs.algebra
    x = np.array(coords, dtype=complex).reshape(-1, alg.dim)
    diag = alg.diagonal_units
    # tau(1) is reduced as one more row, so that a = 1 loses exactly itself
    taus = (np.concatenate([x[:, diag], np.ones((1, len(diag)))]) * alg.coord_weights).sum(axis=1)
    x[:, diag] -= (taus[:-1] / taus[-1])[:, None]
    both = np.concatenate([x, x[:, alg.adj_table].conj()])
    norms = np.zeros(len(both))
    for stacks in _commutator_groups(bs):
        blocks = np.tensordot(both, stacks, axes=([1], [1]))
        norms = np.maximum(norms, np.linalg.svd(blocks, compute_uv=False)[..., 0].max(axis=1))
    gammas = np.einsum("mi,mj,ijk->mk", both.conj(), both, bs.gamma.gram, optimize=True)
    from_form = np.sqrt(block_norms(alg, gammas).reshape(2, -1).max(axis=0))
    return norms.reshape(2, -1).max(axis=0), from_form


def _star_squared_norms(gram: np.ndarray, coeffs) -> np.ndarray:
    """|[D, pi(f)]|^2 of a network for the N point masses, then
    delta_p + delta_q and delta_p - delta_q for p < q, then each row of
    ``coeffs`` (real node values, shape (m, N)), read off the real
    (N, N, N) ``gram`` of its network form.

    By the norm formula that ``dirac-norm-formula`` checks,
    |[D, pi(f)]|^2 = max_c Gamma(f, f)(c), and node values are real, so
    Gamma(f, f)(c) is the quadratic form f^T Q_c f over the per-node table
    Q_c[i, j] = Gamma(e_i, e_j)(c), the slab ``gram[:, :, c]``."""
    n = len(gram)
    p, q = np.triu_indices(n, 1)
    point = gram[np.arange(n), np.arange(n)]
    cross = gram[p, q] + gram[q, p]
    forms = np.concatenate([
        point, point[p] + point[q] + cross, point[p] + point[q] - cross,
        np.einsum("mp,pqc,mq->mc", coeffs, gram, coeffs, optimize=True),
    ])
    return forms.max(axis=1, initial=0.0)


def star_graph_check(net: ResistanceNetwork, scale=0.5, seed=0, tol=DEFAULT_EQ_TOL,
                     random_pairs=8) -> dict:
    """The commutator seminorm of the network Dirac operator satisfies the
    parallelogram law exactly when the network is a star; flags from the
    seminorm side and from sparsity inspection are both reported.

    The law is tested on every pair of point masses and on ``random_pairs``
    random pairs.  The squared seminorms are quadratic forms in the node
    values over the slabs of the network form at ``scale``, as
    ``_star_squared_norms`` describes; no one-form space is built."""
    if not net.is_connected():
        raise DisconnectedError("star characterization requires a connected network")
    gram = network_cdc(net.algebra, net.c, scale=scale).gram
    # f then g for each random pair; the terms of a pair are the squared
    # norms of f + g, f - g, f and g
    n = net.size
    draws = np.random.default_rng(seed).standard_normal((random_pairs, 2, n))
    f, g = draws[:, 0], draws[:, 1]
    coeffs = np.stack([f + g, f - g, f, g], axis=1).reshape(-1, n)
    l2 = _star_squared_norms(gram, coeffs)
    p, q = np.triu_indices(n, 1)
    point, plus, minus, rand = np.split(l2, np.cumsum([n, len(p), len(p)]))
    terms = np.concatenate([np.stack([plus, minus, point[p], point[q]], axis=1),
                            rand.reshape(random_pairs, 4)])
    t0, t1, t2, t3 = terms.T
    rel_gaps = np.abs(t0 + t1 - 2 * t2 - 2 * t3) / np.maximum(1.0, terms.max(axis=1))
    worst = float(rel_gaps.max())
    holds = worst <= max(tol, 1e-8)
    names = [f"delta-{a}-{b}" for a, b in zip(p, q)] + [f"random-{k}" for k in range(random_pairs)]
    # the witness is the first pair within rounding of the worst, so pairs
    # whose gaps tie name the same pair on routes that round differently
    near = rel_gaps >= worst - 1e-12 * max(1.0, worst)
    return {
        "is_star": is_star(net),
        "parallelogram_holds": holds,
        "max_relative_residual": worst,
        "witness": None if holds else names[int(np.argmax(near))],
    }
