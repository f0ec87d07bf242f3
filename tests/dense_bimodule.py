"""The product-basis one-form construction, kept as an independent reference
for the factored one in ``nca.dirac``.

It follows the definition literally: the kernel of the multiplication map
a (x) b -> ab is read from an SVD of the d x d^2 multiplication matrix, the
inner product <a (x) b, c (x) d> = tau(b* Gamma(a, c) d) is assembled as a
(d, d, d, d) tensor over the product basis, restricted to the kernel and
diagonalized, and its null space is divided out.  The left action loops
over the canonical units.

It also keeps the dense readers of a one-form space that the library does
not hold: the ``(rank, rank)`` left action of an element and the
``(d, rank, rank)`` stack of it, the representation pi(a) on
L2(algebra) (+) L2(one-forms), the matrix of the Dirac operator and the
commutator norm from the two off-diagonal blocks of [D, pi(a)].  Each reads
a space through ``algebra``, ``rank``, ``dmatrix`` and :func:`act_left`
only, so it serves both ``nca.dirac.BimoduleSpace`` and :class:`ReferenceSpace`.
An ``nca.dirac.BimoduleSpace`` keeps only its per-block commutator stacks, so
:func:`library_action` rebuilds the per-block left action of the library's
route for it.  The readers of ``nca.dirac.BimoduleSpace`` alone rebuild the pair
coordinates (d e_a) e_c from its commutator stacks, and the
``(d, rank, d)`` stack of the commutator blocks B_i = d L_i - A_i d from
the derivation and the left action, with the point-mass Gram table built
on it.
"""
import weakref
from dataclasses import dataclass

import numpy as np

from nca import PropertyViolationError, is_cdc
from nca.algebra import DEFAULT_POS_TOL, DEFAULT_RANK_TOL, left_multiplication
from nca.cdc import _cp_blocks
from nca.dirac import _moved_frames
from nca.reporting import CheckResult


def dense_build_bimodule(gamma, pos_tol=DEFAULT_POS_TOL, rank_tol=DEFAULT_RANK_TOL) -> dict:
    """The one-form space of ``gamma`` on the kernel of multiplication: the
    kernel basis, gram, rank, frame, derivation matrix, left action and the
    four residuals."""
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

    return {
        "kernel_basis": kernel,
        "gram": gram,
        "rank": rank,
        "scale_roots": roots,
        "frame": frame,
        "to_forms": to_forms,
        "dmatrix": dmatrix,
        "left_action": actions,
        "residuals": {
            "gram_negative_part": psd_res,
            "null_space_invariance": null_res,
            "star_representation": star_res,
            "laplacian_factorization": fact_res,
        },
    }


def pair_projection(alg) -> np.ndarray:
    """The d^2 x d^2 matrix of P(e_a (x) e_c) = e_a (x) e_c - 1 (x) e_a e_c,
    which maps each pair onto the kernel of multiplication."""
    d = alg.dim
    proj = np.eye(d * d)
    for a in range(d):
        for c in range(d):
            k = alg.mul_table[a, c]
            if k >= 0:
                proj[alg.diagonal_units * d + k, a * d + c] -= 1.0
    return proj


_ACTIONS = {}  # id of a live nca.dirac.BimoduleSpace -> its library_action


def library_action(space) -> list:
    """The (d, r_b, r_b) left action a_i of each block of an
    ``nca.dirac.BimoduleSpace``, in ``space.action`` order, rebuilt by the library's
    route, which does not keep it: the eigenvectors of the block's
    complete-positivity block from ``_cp_blocks`` and ``eigh``, moved by
    ``_moved_frames`` in one box per block size.  The eigenvalues ascend and the rank cut is monotone in
    them, so the kept ones are the top r_b, with r_b the frame rows of the
    block's commutator stack.  Each space's stacks are built once and
    dropped with the space."""
    if id(space) not in _ACTIONS:
        weakref.finalize(space, _ACTIONS.pop, id(space))
        _ACTIONS[id(space)] = _rebuild_action(space)
    return _ACTIONS[id(space)]


def _rebuild_action(space) -> list:
    alg = space.algebra
    eigs = [np.linalg.eigh(m) for m in _cp_blocks(alg, space.gamma.gram)]
    found = {}
    for (n_b, cols), (vals, vecs) in zip(alg.size_groups, eigs):
        for q, units in enumerate(cols):
            found[units[0]] = n_b, units, vals[q], vecs[q]
    out = []
    for _, units, comm in space.action:
        n_b, cols, vals, vecs = found[units[0, 0]]
        keep = np.arange(len(vals)) >= len(vals) - comm.shape[1]
        root_lam = np.sqrt(vals[keep])
        stack = np.empty((alg.dim, len(root_lam), len(root_lam)), dtype=vecs.dtype)
        for box, frame in _moved_frames(alg, n_b, cols, vecs, keep):
            stack[box] = (root_lam[:, None] * frame)[:, :, keep] / root_lam
        out.append(stack)
    return out


def derivative_coords(space, a) -> np.ndarray:
    """The one-form coordinates of the derivative of a."""
    return space.dmatrix @ space.algebra.to_coords(a)


def act_left(space, a) -> np.ndarray:
    """The (rank, rank) matrix of left multiplication by a: on the frame
    rows of each block of ``nca.dirac.BimoduleSpace.action`` the contraction of
    a's coordinates with the block's :func:`library_action`, once for every
    column."""
    x = space.algebra.canonical_coords(a)
    if isinstance(space, ReferenceSpace):
        return np.tensordot(x, space.left_action, axes=1)
    out = np.zeros((space.rank, space.rank), dtype=complex)
    for (start, units, _), stack in zip(space.action, library_action(space)):
        stop = start + stack.shape[1] * len(units)
        out[start:stop, start:stop] = np.kron(np.tensordot(x, stack, axes=1), np.eye(len(units)))
    return out


def left_action_stack(space) -> np.ndarray:
    """The ``(d, rank, rank)`` matrices of left multiplication by each
    canonical unit."""
    alg = space.algebra
    return np.stack([act_left(space, alg.basis_element(i)) for i in range(alg.dim)])


def pair_forms(space) -> np.ndarray:
    """The (rank, d^2) one-form coordinates of the pairs (d e_a) e_l of an
    ``nca.dirac.BimoduleSpace``: column a d + l, for l = units[s, c] of a block,
    holds sqrt(w_b) S_b[a][:, s] on the frame rows of column c, and every
    other entry is zero."""
    alg = space.algebra
    d = alg.dim
    out = np.zeros((space.rank, d, d), dtype=complex)
    for start, units, comm in space.action:
        n_b, r = len(units), comm.shape[1]
        rows = out[start:start + r * n_b].reshape(r, n_b, d, d)
        root_w = np.sqrt(alg.basis_weights[units[0, 0]])
        for s in range(n_b):
            for c in range(n_b):
                rows[:, c, :, units[s, c]] = root_w * comm[:, :, s].T
    return out.reshape(space.rank, d * d)


def commutator_blocks(space) -> np.ndarray:
    """The (d, rank, d) stack of B_i = d L_i - A_i d over the units e_i of an
    ``nca.dirac.BimoduleSpace``, L_i sending e_j to e_k for each e_i e_j = e_k and
    A_i d taken block by block from :func:`library_action`.  The block
    B(a) = d L_a - A_a d of [D, pi(a)] is a's coordinates times it."""
    d, dm = space.algebra.dim, space.dmatrix
    mul_i, mul_j, mul_k = space.algebra.mul_nonzero
    blocks = np.zeros((d, space.rank, d), dtype=complex)
    blocks[mul_i, :, mul_j] = dm[:, mul_k].T
    for (start, units, _), stack in zip(space.action, library_action(space)):
        r_b = stack.shape[1]
        rows = slice(start, start + r_b * len(units))
        blocks[:, rows] -= (stack @ dm[rows].reshape(r_b, len(units) * d)).reshape(d, -1, d)
    return blocks


def squared_commutator_norms(space, coeffs) -> np.ndarray:
    """|[D, pi(f)]|^2 on a network's one-form space for the N point masses,
    then delta_p + delta_q and delta_p - delta_q for p < q, then each row of
    ``coeffs`` (real node values, shape (m, N)).  The Gram of f is the sum
    of f_p f_q M[p, q] over the Gram table M[p, q] = B_p* B_q of the point
    masses from :func:`commutator_blocks`, and each squared norm is the top
    eigenvalue of its Gram."""
    n, rank = space.algebra.dim, space.rank
    flat = commutator_blocks(space).transpose(1, 0, 2).reshape(rank, n * n)
    gram = (flat.conj().T @ flat).reshape(n, n, n, n).transpose(0, 2, 1, 3)
    p, q = np.triu_indices(n, 1)
    point = gram[np.arange(n), np.arange(n)]
    cross = gram[p, q] + gram[q, p]
    grams = np.concatenate([
        point, point[p] + point[q] + cross, point[p] + point[q] - cross,
        np.einsum("mp,mq,pqij->mij", coeffs, coeffs, gram, optimize=True),
    ])
    return np.clip(np.linalg.eigvalsh(grams)[:, -1], 0.0, None)


def dirac_matrix(space) -> np.ndarray:
    """The (d + rank)-square matrix of the Dirac operator: the derivation
    below the diagonal and its adjoint above."""
    d, r = space.algebra.dim, space.rank
    out = np.zeros((d + r, d + r), dtype=complex)
    out[d:, :d] = space.dmatrix
    out[:d, d:] = space.dmatrix.conj().T
    return out


def represent(space, a) -> np.ndarray:
    """pi(a) = left multiplication (+) left action on one-forms."""
    d = space.algebra.dim
    r = space.rank
    out = np.zeros((d + r, d + r), dtype=complex)
    out[:d, :d] = left_multiplication(space.algebra, a).matrix
    out[d:, d:] = act_left(space, a)
    return out


def commutator_norm(space, a) -> float:
    """|[D, pi(a)]|.  D is off-diagonal and pi(a) is diagonal, so the
    commutator has just two nonzero blocks, d L_a - A_a d and
    d* A_a - L_a d*, and its norm is the larger of their norms."""
    dm = space.dmatrix
    dm_star = dm.conj().T
    left = left_multiplication(space.algebra, a).matrix
    act = act_left(space, a)
    return float(max(np.linalg.norm(dm @ left - act @ dm, 2),
                     np.linalg.norm(dm_star @ act - left @ dm_star, 2)))


@dataclass(frozen=True)
class ReferenceSpace:
    """A one-form space given by its dense left-action stack, such as the
    one :func:`dense_build_bimodule` returns."""

    gamma: object
    rank: int
    dmatrix: np.ndarray
    left_action: np.ndarray

    @property
    def algebra(self):
        return self.gamma.algebra
