"""The concrete one-form space of a carre-du-champ, its derivation and left
action, the Hodge-Dirac operator, the commutator seminorm with its max
formula, and the star-graph characterization of when that seminorm is an
energy seminorm.

The one-forms are the kernel of multiplication in A (x) A with the inner
product <a (x) b, c (x) e> = tau(b* Gamma(a, c) e), its null space divided
out.  Gamma(1, .) = 0 makes every 1 (x) y null, so each pair e_a (x) e_c has
the class of (d e_a) e_c = P(e_a (x) e_c) = e_a (x) e_c - 1 (x) e_a e_c, which
lies in the kernel.  The pair gram is B* B: with each complete-positivity
block of ``is_cdc`` factored as m_b = F_b F_b* (eigenvalues above the rank
cut), B[(b, m, c), (k, l)] = sqrt(w_b) conj(F_b[(k, row of l), m]) for the
units l of block b in column c.  So the one-form space is the range of B P,
and one thin SVD B P = U S V* gives its rank, the coordinates S V* of every
pair and, lifted by P, an orthonormal frame inside the kernel.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import (
    DEFAULT_EQ_TOL,
    DEFAULT_POS_TOL,
    DEFAULT_RANK_TOL,
    Element,
    block_norms,
    left_multiplication,
)
from .cdc import CdCForm, _cp_blocks, is_cdc, network_cdc
from .errors import DisconnectedError, PropertyViolationError
from .reporting import CheckResult
from .resistance import ResistanceNetwork, is_star


@dataclass(frozen=True)
class BimoduleSpace:
    """An orthonormal model of the one-form space of a carre-du-champ.

    ``pair_forms`` has shape (rank, d^2): column a*d + c holds the one-form
    coordinates of (d e_a) e_c.  ``dmatrix`` maps orthonormal algebra
    coordinates to one-form coordinates; ``left_action`` stacks one
    ``(rank, rank)`` matrix per canonical basis element.
    """

    gamma: CdCForm
    rank: int
    pair_forms: np.ndarray
    dmatrix: np.ndarray
    left_action: np.ndarray
    residuals: dict = field(default_factory=dict)

    @property
    def algebra(self):
        return self.gamma.algebra

    def derivative_coords(self, a: Element) -> np.ndarray:
        return self.dmatrix @ self.algebra.to_coords(a)

    def act_left(self, a: Element) -> np.ndarray:
        return np.tensordot(self.algebra.canonical_coords(a), self.left_action, axes=1)

    @cached_property
    def commutator_blocks(self) -> np.ndarray:
        """The (d, rank, d) stack of B_i = d L_i - A_i d over the units e_i,
        L_i sending e_j to e_k for each e_i e_j = e_k.  The block
        B(a) = d L_a - A_a d of [D, pi(a)] is a's coordinates times it."""
        d, dm = self.algebra.dim, self.dmatrix
        mul_i, mul_j, mul_k = self.algebra.mul_nonzero
        blocks = np.zeros((d, self.rank, d), dtype=complex)
        blocks[mul_i, :, mul_j] = dm[:, mul_k].T
        blocks -= self.left_action @ dm
        return blocks


def build_bimodule(gamma: CdCForm, pos_tol=DEFAULT_POS_TOL,
                   rank_tol=DEFAULT_RANK_TOL) -> BimoduleSpace:
    """Realize the one-form space of a carre-du-champ concretely, as the
    module docstring describes."""
    report = is_cdc(gamma, tol=pos_tol)
    if not report.is_cdc:
        raise PropertyViolationError(
            "one-form construction requires a carre-du-champ",
            [CheckResult("is-cdc", False, witness=report.witness)],
        )
    alg = gamma.algebra
    d = alg.dim
    units = alg.diagonal_units

    # B from the factored blocks; the eigenvectors below the cut, spread the
    # same way, span the null space of B
    eigs = [np.linalg.eigh(m) for m in _cp_blocks(alg, gamma.gram)]
    top = max(1.0, max(float(vals[:, -1].max()) for vals, _ in eigs))
    rows, nulls = [], []
    for (n_b, cols), (vals, vecs) in zip(alg.size_groups, eigs):
        blk, m = np.nonzero(vals > rank_tol * top)
        root_w = np.sqrt(alg.basis_weights[cols[blk, 0]] * vals[blk, m])
        rows.append(_spread(d, n_b, cols[blk], vecs[blk, :, m].conj() * root_w[:, None]))
        blk, m = np.nonzero(vals <= rank_tol * top)
        nulls.append(_spread(d, n_b, cols[blk], vecs[blk, :, m]))
    b = np.concatenate(rows).reshape(-1, d, d)

    # B P gathers the columns B (1 (x) e_k) over mul_table, zero at -1
    ones = np.pad(b[:, units].sum(axis=1), [(0, 0), (0, 1)])
    _, svals, vh = np.linalg.svd((b - ones[:, alg.mul_table]).reshape(-1, d * d),
                                 full_matrices=False)
    rank = int(np.sum(svals ** 2 > rank_tol * max(1.0, svals.max(initial=0.0) ** 2)))
    pair_forms = svals[:rank, None] * vh[:rank]
    # d e~_i is the sum of (d e_i) e_u over the diagonal units u, over sqrt(w_i)
    root_w = np.sqrt(alg.basis_weights)
    dmatrix = pair_forms.reshape(rank, d, d)[:, :, units].sum(axis=2) / root_w

    # P x = x - 1 (x) m(x), with m(x) summed over the products sorted by
    # target, lifts the frame V / S and the null space of B P (that of B and
    # the SVD's directions below the cut) into the kernel
    mul_i, mul_j, mul_k = alg.mul_nonzero
    by_k = np.argsort(mul_k, kind="stable")
    basis = np.concatenate([vh[:rank].conj() / svals[:rank, None], *nulls, vh[rank:].conj()]).T
    lifted = basis.reshape(d, d, -1).copy()
    lifted[units] -= np.add.reduceat(basis[(mul_i * d + mul_j)[by_k]],
                                     np.searchsorted(mul_k[by_k], np.arange(d)))
    lifted = lifted.reshape(d * d, -1)

    # e_i sends e_a (x) e_c to e_k (x) e_c for every product e_i e_a = e_k, so
    # it gathers rows a*d + c of the lifted vectors into rows k*d + c; the
    # null space must act into the null space
    cols = np.arange(d)
    actions = np.empty((d, rank, rank), dtype=complex)
    null_res = 0.0
    for i in range(d):
        mine = mul_i == i
        dst = (mul_k[mine, None] * d + cols).reshape(-1)
        src = (mul_j[mine, None] * d + cols).reshape(-1)
        acted = pair_forms[:, dst] @ lifted[src]
        actions[i] = acted[:, :rank]
        null_res = max(null_res, float(np.abs(acted[:, rank:]).max(initial=0.0)))
    # one (rank, rank) slice at a time: the whole stack's difference would
    # hold three more copies of it
    star_res = max(np.abs(actions[i].conj().T - actions[j]).max(initial=0.0)
                   for i, j in enumerate(alg.adj_table))

    # the derivation factors the Laplacian: dmatrix* dmatrix = Delta
    delta = gamma.tau_values / np.outer(root_w, root_w)
    return BimoduleSpace(
        gamma=gamma, rank=rank, pair_forms=pair_forms, dmatrix=dmatrix, left_action=actions,
        residuals={
            "gram_negative_part": max(0.0, -min(float(v[:, 0].min()) for v, _ in eigs)),
            "null_space_invariance": null_res,
            "star_representation": float(star_res),
            "laplacian_factorization": float(np.abs(dmatrix.conj().T @ dmatrix - delta).max()),
        },
    )


def _spread(d, n_b, cols, f) -> np.ndarray:
    """Pair vectors, rows of shape (q n_b, d^2), from vectors ``f`` of shape
    (q, d n_b) over (k, r), one per block of size n_b with units ``cols[q]``:
    for each column c of the block, f[q, (k, r)] at pair (k, unit (r, c))."""
    q, r = len(cols), np.arange(n_b)
    at = cols[:, r[None, :] * n_b + r[:, None]]  # [q, c, r]: the unit at (r, c)
    out = np.zeros((q, n_b, d, d), dtype=complex)
    out[np.arange(q)[:, None, None, None], r[None, :, None, None],
        np.arange(d)[None, None, :, None], at[:, :, None, :]] = f.reshape(q, 1, d, n_b)
    return out.reshape(-1, d * d)


@dataclass(frozen=True)
class DiracOperator:
    """The self-adjoint block operator pairing the derivation with its
    adjoint on L2(algebra) (+) L2(one-forms)."""

    bimodule: BimoduleSpace

    @property
    def algebra(self):
        return self.bimodule.algebra

    @cached_property
    def matrix(self) -> np.ndarray:
        d = self.algebra.dim
        r = self.bimodule.rank
        out = np.zeros((d + r, d + r), dtype=complex)
        out[d:, :d] = self.bimodule.dmatrix
        out[:d, d:] = self.bimodule.dmatrix.conj().T
        return out

    def represent(self, a: Element) -> np.ndarray:
        """pi(a) = left multiplication (+) left action on one-forms."""
        d = self.algebra.dim
        r = self.bimodule.rank
        out = np.zeros((d + r, d + r), dtype=complex)
        out[:d, :d] = left_multiplication(self.algebra, a).matrix
        out[d:, d:] = self.bimodule.act_left(a)
        return out

    def commutator_norm(self, a: Element) -> float:
        """|[D, pi(a)]|.  D is off-diagonal and pi(a) is diagonal, so the
        commutator has just two nonzero blocks, d L_a - A_a d and
        d* A_a - L_a d*, and its norm is the larger of their norms."""
        dm = self.bimodule.dmatrix
        dm_star = dm.conj().T
        left = left_multiplication(self.algebra, a).matrix
        act = self.bimodule.act_left(a)
        return float(max(np.linalg.norm(dm @ left - act @ dm, 2),
                         np.linalg.norm(dm_star @ act - left @ dm_star, 2)))


def dirac(bs: BimoduleSpace) -> DiracOperator:
    return DiracOperator(bs)


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


def dirac_seminorms(op: DiracOperator, coords) -> tuple:
    """The arrays ``(value, from_form)`` of :func:`dirac_seminorm` over the
    rows of canonical coordinates ``coords`` (m, d).  The second block of
    the commutator, d* A_a - L_a d*, is -B(a*)* up to the
    ``star_representation`` residual, so |[D, pi(a)]| = max(|B(a)|, |B(a*)|):
    ``commutator_blocks`` contracted with the rows of a and a*, and one
    batched SVD.  Gamma(a, a) and Gamma(a*, a*) are one contraction with the
    gram and one ``block_norms``."""
    bs = op.bimodule
    alg = bs.algebra
    x = np.asarray(coords, dtype=complex).reshape(-1, alg.dim)
    both = np.concatenate([x, x[:, alg.adj_table].conj()])
    norms = np.linalg.norm(np.tensordot(both, bs.commutator_blocks, axes=1), 2, axis=(1, 2))
    gammas = np.einsum("mi,mj,ijk->mk", both.conj(), both, bs.gamma.gram, optimize=True)
    from_form = np.sqrt(block_norms(alg, gammas).reshape(2, -1).max(axis=0))
    return norms.reshape(2, -1).max(axis=0), from_form


def _squared_commutator_norms(bs: BimoduleSpace, coeffs) -> np.ndarray:
    """|[D, pi(f)]|^2 on a network's one-form space for the N point masses,
    then delta_p + delta_q and delta_p - delta_q for p < q, then each row of
    ``coeffs`` (real node values, shape (m, N)).

    The block B(f) = d L_f - A_f d of the commutator is linear in f, so the
    Gram of f is the sum of f_p f_q M[p, q] over the Gram table
    M[p, q] = B_p* B_q of the point masses (``commutator_blocks``): a gather
    for delta_p +- delta_q, one contraction for ``coeffs``.  Each squared
    norm is the top eigenvalue of its Gram, all from one batched
    ``eigvalsh``.  The other block of [D, pi(f)], d* A_f - L_f d*, is
    -B(f*)*, and node values are real, so f* = f and both blocks have the
    same norm."""
    n, rank = bs.algebra.dim, bs.rank
    flat = bs.commutator_blocks.transpose(1, 0, 2).reshape(rank, n * n)
    gram = (flat.conj().T @ flat).reshape(n, n, n, n).transpose(0, 2, 1, 3)

    p, q = np.triu_indices(n, 1)
    point = gram[np.arange(n), np.arange(n)]
    cross = gram[p, q] + gram[q, p]
    grams = np.concatenate([
        point, point[p] + point[q] + cross, point[p] + point[q] - cross,
        np.einsum("mp,mq,pqij->mij", coeffs, coeffs, gram, optimize=True),
    ])
    return np.clip(np.linalg.eigvalsh(grams)[:, -1], 0.0, None)


def star_graph_check(net: ResistanceNetwork, scale=0.5, seed=0, tol=DEFAULT_EQ_TOL,
                     random_pairs=8, op: DiracOperator | None = None) -> dict:
    """The commutator seminorm of the network Dirac operator satisfies the
    parallelogram law exactly when the network is a star; flags from the
    seminorm side and from sparsity inspection are both reported.

    The law is tested on every pair of point masses and on ``random_pairs``
    random pairs.  The squared seminorms come from the Gram table of the
    point-mass commutator blocks (N^2 d^2 complex numbers, d = N) and one
    batched ``eigvalsh``, as ``_squared_commutator_norms`` describes.
    ``op`` is the Dirac operator of the network form at ``scale`` when the
    caller has already built it; by default it is built here."""
    if not net.is_connected():
        raise DisconnectedError("star characterization requires a connected network")
    if op is None:
        op = dirac(build_bimodule(network_cdc(net.algebra, net.c, scale=scale)))
    # f then g for each random pair; the terms of a pair are the squared
    # norms of f + g, f - g, f and g
    n = net.size
    draws = np.random.default_rng(seed).standard_normal((random_pairs, 2, n))
    f, g = draws[:, 0], draws[:, 1]
    coeffs = np.stack([f + g, f - g, f, g], axis=1).reshape(-1, n)
    l2 = _squared_commutator_norms(op.bimodule, coeffs)
    p, q = np.triu_indices(n, 1)
    point, plus, minus, rand = np.split(l2, np.cumsum([n, len(p), len(p)]))
    terms = np.concatenate([np.stack([plus, minus, point[p], point[q]], axis=1),
                            rand.reshape(random_pairs, 4)])
    t0, t1, t2, t3 = terms.T
    rel_gaps = np.abs(t0 + t1 - 2 * t2 - 2 * t3) / np.maximum(1.0, terms.max(axis=1))
    worst = float(rel_gaps.max())
    holds = worst <= max(tol, 1e-8)
    names = [f"delta-{a}-{b}" for a, b in zip(p, q)] + [f"random-{k}" for k in range(random_pairs)]
    return {
        "is_star": is_star(net),
        "parallelogram_holds": holds,
        "max_relative_residual": worst,
        "witness": None if holds else names[int(np.argmax(rel_gaps))],
    }
