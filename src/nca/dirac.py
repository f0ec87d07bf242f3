"""The concrete one-form space of a carre-du-champ, its derivation and left
action, the Hodge-Dirac operator, the commutator seminorm with its max
formula, and the star-graph characterization of when that seminorm is an
energy seminorm."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import (
    DEFAULT_EQ_TOL,
    DEFAULT_POS_TOL,
    DEFAULT_RANK_TOL,
    Element,
    left_multiplication,
)
from .cdc import CdCForm, is_cdc, network_cdc
from .errors import DisconnectedError, PropertyViolationError
from .reporting import CheckResult
from .resistance import ResistanceNetwork, is_star


@dataclass(frozen=True)
class BimoduleSpace:
    """An orthonormal model of the one-form space of a carre-du-champ.

    Built on the kernel of the multiplication map inside the algebraic tensor
    square: the form <a (x) b, c (x) d> = b* Gamma(a, c) d induces a Gram
    matrix there, whose null space is divided out.  ``dmatrix`` maps
    orthonormal algebra coordinates to orthonormal one-form coordinates;
    ``left_action`` stacks one ``(rank, rank)`` matrix per canonical basis
    element.
    """

    gamma: CdCForm
    kernel_basis: np.ndarray
    gram: np.ndarray
    rank: int
    scale_roots: np.ndarray
    frame: np.ndarray
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


def build_bimodule(gamma: CdCForm, pos_tol=DEFAULT_POS_TOL,
                   rank_tol=DEFAULT_RANK_TOL) -> BimoduleSpace:
    """Realize the one-form space of a carre-du-champ concretely."""
    report = is_cdc(gamma, tol=pos_tol)
    if not report.is_cdc:
        raise PropertyViolationError(
            "one-form construction requires a carre-du-champ",
            [CheckResult("is-cdc", False, witness=report.witness)],
        )
    alg = gamma.algebra
    d = alg.dim
    adj = alg.adj_table
    mul_i, mul_j, mul_k = alg.mul_nonzero
    w = alg.coord_weights

    # kernel of the multiplication map a (x) b -> ab over the product basis
    mmap = np.zeros((d, d * d))
    mmap[mul_k, mul_i * d + mul_j] = 1.0
    _, svals, vh = np.linalg.svd(mmap, full_matrices=True)
    rank_m = int(np.sum(svals > rank_tol * max(1.0, svals.max())))
    kernel = vh[rank_m:].conj().T  # (d^2, d^2 - d) orthonormal columns

    # Gram of the induced inner product on the product basis, restricted:
    # t[i, j, k, l] = tau(e_j* Gamma(e_i, e_k) e_l), which is nonzero only
    # when e_j and e_l share a column x, and then w_x G[i, k, unit(row j, row l)]
    rows, cols = alg.unit_positions
    pair_j, pair_l = np.nonzero(cols[:, None] == cols[None, :])
    t = np.zeros((d, d, d, d), dtype=complex)
    t[:, pair_j, :, pair_l] = (
        w[cols[pair_j]] * gamma.gram[:, :, alg._unit_at[rows[pair_j], rows[pair_l]]]
    ).transpose(2, 0, 1)
    t_mat = t.reshape(d * d, d * d)
    gram = kernel.conj().T @ t_mat @ kernel
    gram = (gram + gram.conj().T) / 2
    eigvals, eigvecs = np.linalg.eigh(gram)
    top = max(1.0, float(eigvals[-1])) if eigvals.size else 1.0
    psd_res = float(max(0.0, -eigvals[0])) if eigvals.size else 0.0
    keep = eigvals > rank_tol * top
    rank = int(keep.sum())
    frame = eigvecs[:, keep]
    null_vecs = eigvecs[:, ~keep]
    roots = np.sqrt(eigvals[keep])
    # a kernel vector v has one-form coordinates roots * (frame* v)
    to_forms = roots[:, None] * (kernel @ frame).conj().T  # (rank, d^2)

    # derivation columns: e~_i (x) 1 - 1 (x) e~_i, for the orthonormal basis
    units = np.arange(d)[:, None]
    diag_units = alg.diagonal_units[None, :]
    inv_root_w = 1.0 / np.sqrt(alg.basis_weights)[:, None]
    dcols = np.zeros((d, d, d))
    dcols[units, diag_units, units] = inv_root_w
    dcols[diag_units, units, units] -= inv_root_w
    dmatrix = to_forms @ dcols.reshape(d * d, d)

    # left action of each canonical unit e_i, descended to the quotient: it
    # sends e_a (x) e_c to e_k (x) e_c for every product e_i e_a = e_k, so it
    # gathers rows a*d + c of the lifted frame into rows k*d + c
    lifted = kernel @ (frame / roots[None, :])
    leaking = kernel @ null_vecs
    cols = np.arange(d)
    actions = np.empty((d, rank, rank), dtype=complex)
    null_res = 0.0
    for i in range(d):
        mine = mul_i == i
        dst = (mul_k[mine, None] * d + cols).reshape(-1)
        src = (mul_j[mine, None] * d + cols).reshape(-1)
        actions[i] = to_forms[:, dst] @ lifted[src]
        if null_vecs.size:
            leak = to_forms[:, dst] @ leaking[src]
            null_res = max(null_res, float(np.abs(leak).max(initial=0.0)))
    star_res = float(
        np.abs(actions.conj().transpose(0, 2, 1) - actions[adj]).max(initial=0.0)
    )

    # the derivation factors the Laplacian: dmatrix* dmatrix = Delta
    root_w = np.sqrt(alg.basis_weights)
    delta = gamma.tau_values / np.outer(root_w, root_w)
    fact_res = float(np.abs(dmatrix.conj().T @ dmatrix - delta).max())

    return BimoduleSpace(
        gamma=gamma,
        kernel_basis=kernel,
        gram=gram,
        rank=rank,
        scale_roots=roots,
        frame=frame,
        dmatrix=dmatrix,
        left_action=actions,
        residuals={
            "gram_negative_part": psd_res,
            "null_space_invariance": null_res,
            "star_representation": star_res,
            "laplacian_factorization": fact_res,
        },
    )


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
    the form.  The discrepancy is reported alongside the value."""
    value = op.commutator_norm(a)
    gamma = op.bimodule.gamma
    g_a = gamma.value(a, a).norm()
    g_astar = gamma.value(a.adjoint(), a.adjoint()).norm()
    from_form = float(np.sqrt(max(g_a, g_astar, 0.0)))
    return DiracSeminorm(value=value, from_form=from_form,
                         residual=abs(value - from_form))


def star_graph_check(net: ResistanceNetwork, scale=0.5, seed=0, tol=DEFAULT_EQ_TOL,
                     random_pairs=8, op: DiracOperator | None = None) -> dict:
    """The commutator seminorm of the network Dirac operator satisfies the
    parallelogram law exactly when the network is a star; flags from the
    seminorm side and from sparsity inspection are both reported.

    The law is tested on every pair of point masses and on ``random_pairs``
    random pairs.  Each point mass is evaluated once, so an N-node network
    costs 2 C(N, 2) + N + 4 ``random_pairs`` commutator-norm evaluations.
    ``op`` is the Dirac operator of the network form at ``scale`` when the
    caller has already built it; by default it is built here."""
    if not net.is_connected():
        raise DisconnectedError("star characterization requires a connected network")
    if op is None:
        op = dirac(build_bimodule(network_cdc(net.algebra, net.c, scale=scale)))

    def l2(f: Element) -> float:
        return op.commutator_norm(f) ** 2

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
