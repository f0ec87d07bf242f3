"""The dense carre-du-champ check, kept as an independent reference for the
packed one in ``nca.cdc``, and the per-factor einsum route of the
product-defined builders, a reference for their one batched product, the
network form as one broadcast over the identity, a reference for its
scatter, and the trace symmetries by whole (d, d, d) arrays, a reference
for their chunks.

Here a form is the (d, d, n, n) array whose slice [i, j] is the
block-diagonal embedding of Gamma(e_i, e_j) (``alg.embed(gamma.gram)``).
The star-representation identity is tested with four dense d^3 n^2 tensors
and complete positivity with one (d n) x (d n) Hermitian eigenproblem.
"""
import numpy as np


def dense_is_cdc(alg, g, tol=1e-9) -> dict:
    """Flags, residuals and witness of the four carre-du-champ axioms for
    the dense gram ``g`` over ``alg``."""
    d, n = alg.dim, alg.total_size
    scale = 1.0 + float(np.abs(g).max())
    witness = None

    sym_gap = np.abs(g - g.transpose(1, 0, 3, 2).conj())
    sym_res = float(sym_gap.max())
    symmetric = sym_res <= tol * scale
    if not symmetric:
        i, j = np.unravel_index(sym_gap.reshape(d, d, -1).max(axis=2).argmax(), (d, d))
        witness = {"kind": "symmetry", "pair": [int(i), int(j)], "residual": sym_res}

    one = alg.canonical_coords(alg.identity()).conj()
    unit_res = float(np.abs(np.einsum("i,ijxy->jxy", one, g)).max())
    unit_ok = unit_res <= tol * scale

    adj = alg.adj_table
    mul = alg.mul_table
    emb = alg.embedded_basis
    # Gamma(e_i e_j, e_k) - Gamma(e_j, e_i* e_k) = e_j* Gamma(e_i, e_k) - Gamma(e_j, e_i*) e_k
    t1 = np.where((mul >= 0)[:, :, None, None, None], g[mul.clip(min=0)], 0.0)
    m2 = mul[adj]
    # g[:, m2] has axes (j, i, k, x, y)
    t2 = np.where((m2 >= 0)[:, None, :, None, None],
                  g[:, m2.clip(min=0)].transpose(1, 0, 2, 3, 4), 0.0)
    t3 = np.einsum("jxz,ikzy->ijkxy", emb[adj], g)
    t4 = np.einsum("ijxz,kzy->ijkxy", g[:, adj].transpose(1, 0, 2, 3), emb)
    star_gap = np.abs(t1 - t2 - t3 + t4)
    star_res = float(star_gap.max())
    star_ok = star_res <= tol * scale
    if not star_ok and witness is None:
        i, j, k = np.unravel_index(star_gap.reshape(d, d, d, -1).max(axis=3).argmax(), (d, d, d))
        witness = {"kind": "star-representation", "triple": [int(i), int(j), int(k)],
                   "residual": star_res}

    big = g.transpose(0, 2, 1, 3).reshape(d * n, d * n)
    herm_res = float(np.abs(big - big.conj().T).max())
    top = float("nan")
    if herm_res > tol * scale:
        cp_ok = False
        min_eig = float("nan")
        if witness is None:
            witness = {"kind": "gram-not-hermitian", "residual": herm_res}
    else:
        eigvals, eigvecs = np.linalg.eigh((big + big.conj().T) / 2)
        min_eig, top = float(eigvals[0]), float(eigvals[-1])
        cp_ok = min_eig >= -tol * max(1.0, top)
        if not cp_ok and witness is None:
            witness = {"kind": "negative-direction", "eigenvalue": min_eig,
                       "vector": [[float(z.real), float(z.imag)] for z in eigvecs[:, 0]]}

    return {
        "symmetric": symmetric,
        "unit_annihilating": unit_ok,
        "star_representation": star_ok,
        "completely_positive": cp_ok,
        "residuals": {"symmetry": sym_res, "unit": unit_res,
                      "star_representation": star_res, "gram_min_eigenvalue": min_eig},
        "top_eigenvalue": top,
        "big": big,
        "witness": witness,
    }


def dense_reality_checks(gamma, tol=1e-9) -> dict:
    """``nca.reality_checks`` by its whole-array formulas: the tau-balanced
    gap is formed over all (i, j, k) at once, from tau(G) = G w_m."""
    alg = gamma.algebra
    adj = alg.adj_table
    tg = gamma.tau_values
    scale = 1.0 + float(np.abs(tg).max())
    real_gap = np.abs(tg[np.ix_(adj, adj)] - tg.T)
    real_res = float(real_gap.max())
    tau_g = gamma.gram * alg.basis_weights
    t1 = tau_g[np.ix_(adj, adj)].transpose(2, 1, 0)  # [i,j,k] = tau(G[k*,j*] e_i*)
    t2 = tau_g.transpose(0, 2, 1)  # [i,j,k] = tau(e_j* G[i, k])
    i, j, k = alg.mul_nonzero
    bal_gap = -t1
    bal_gap[i, j] += tg[k]
    bal_gap = np.abs(bal_gap - t2)
    bal_res = float(bal_gap.max())
    out = {"tau_real": real_res <= tol * scale, "tau_balanced": bal_res <= tol * scale,
           "real_residual": real_res, "balanced_residual": bal_res}
    if not out["tau_real"]:
        out["real_witness"] = [int(x) for x in np.unravel_index(real_gap.argmax(), real_gap.shape)]
    if not out["tau_balanced"]:
        out["balanced_witness"] = [int(x) for x in
                                   np.unravel_index(bal_gap.argmax(), bal_gap.shape)]
    return out


def _einsum_unit_entries(alg, x):
    """``out[i, j, k]``: the entry of x_i* x_j at the position of the unit
    e_k, for a stack ``x`` of n x n matrices, by one einsum."""
    rows, cols = alg.unit_positions
    return np.einsum("izk,jzk->ijk", x.conj()[:, :, rows], x[:, :, cols])


def einsum_commutator_gram(alg, vs):
    """The gram of sum_j [v_j, a]* [v_j, b], one einsum per element."""
    emb = alg.embedded_basis
    return sum(_einsum_unit_entries(alg, v.full() @ emb - emb @ v.full()) for v in vs)


def einsum_group_action_gram(alg, autos, weights):
    """The gram of sum_x c_x (alpha_x(a) - a)* (alpha_x(b) - b), one einsum
    per automorphism."""
    eye = np.eye(alg.dim)
    return sum(c * _einsum_unit_entries(alg, alg.embed(alpha.canonical_matrix.T - eye))
               for alpha, c in zip(autos, weights))


def einsum_spectral_triple_gram(alg, d_op, scale=1.0):
    """The gram of scale * E([D, a]* [D, b]) by one einsum."""
    emb = alg.embedded_basis
    return scale * _einsum_unit_entries(alg, d_op @ emb - emb @ d_op)


def broadcast_network_gram(c, scale):
    """The network gram scale * sum_x (d_p(x) - d_p(y)) (d_q(x) - d_q(y)) c_xy
    at [p, q, y], as four broadcast products of the identity: c_py [p = q]
    - c_py [q = y] - c_qy [p = y] + deg_y [p = y = q]."""
    eye = np.eye(len(c))
    deg = np.ascontiguousarray(c.T).sum(axis=1)
    vals = (eye[:, :, None] * c[:, None, :]
            - eye[None, :, :] * c[:, None, :]
            - eye[:, None, :] * c[None, :, :]
            + eye[:, None, :] * eye[None, :, :] * deg)
    return scale * vals
