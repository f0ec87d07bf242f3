"""Carre-du-champ forms: the four builders, axiomatic verification, complete
positivity, conditional complete negativity, amplification, and the
commutative classification by conductance matrices.

A form is stored through its values on the canonical basis: ``gram[i, j]`` is
the algebra element ``Gamma(e_i, e_j)`` in its block-diagonal embedding.
Sesquilinearity (conjugate-linear in the first slot) recovers all other
values, so every axiom is checked on basis tuples only.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .algebra import (
    DEFAULT_EQ_TOL,
    DEFAULT_POS_TOL,
    Algebra,
    Element,
    SuperOperator,
    amplification_index,
    left_multiplication,
    random_element,
    right_multiplication,
)
from .errors import InputError


@dataclass(frozen=True)
class CdCForm:
    """An algebra-valued sesquilinear form over the canonical basis.

    ``gram`` has shape (d, d, n, n); ``scale`` records the conventional
    prefactor (1 for generator and commutator forms, 1/2 for Laplacian and
    network forms) so cross-module comparisons never mix conventions
    silently.
    """

    algebra: Algebra
    gram: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        d, n = self.algebra.dim, self.algebra.total_size
        g = np.array(self.gram, dtype=complex)
        if g.shape != (d, d, n, n):
            raise InputError(f"gram tensor must have shape {(d, d, n, n)}, got {g.shape}")
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)

    def value(self, a: Element, b: Element) -> Element:
        """Gamma(a, b), conjugate-linear in ``a``."""
        x = self.algebra.canonical_coords(a).conj()
        y = self.algebra.canonical_coords(b)
        full = np.einsum("i,j,ijxy->xy", x, y, self.gram)
        return self.algebra.pinch(full)

    @cached_property
    def tau_values(self) -> np.ndarray:
        """Matrix of tau(Gamma(e_i, e_j)) over the canonical basis."""
        w = self.algebra.coord_weights
        return np.einsum("x,ijxx->ij", w, self.gram)

    def unit_residual(self) -> float:
        one = self.algebra.canonical_coords(self.algebra.identity()).conj()
        vals = np.einsum("i,ijxy->jxy", one, self.gram)
        return float(np.abs(vals).max())

    def magnitude(self) -> float:
        return float(np.abs(self.gram).max())


@dataclass
class CdCReport:
    """Outcome of the carre-du-champ axioms, with witnesses for failures."""

    symmetric: bool
    unit_annihilating: bool
    star_representation: bool
    completely_positive: bool
    residuals: dict = field(default_factory=dict)
    witness: Optional[dict] = None

    @property
    def is_cdc(self) -> bool:
        return (
            self.symmetric
            and self.unit_annihilating
            and self.star_representation
            and self.completely_positive
        )


# -- builders ----------------------------------------------------------------


def gamma_from_generator(n: SuperOperator, scale=1.0, tol=DEFAULT_EQ_TOL) -> CdCForm:
    """The form N(a*)b - N(a*b) + a*N(b), times ``scale``.

    Requires N(1) = 0; two generators differing by a derivation produce the
    same form.
    """
    alg = n.algebra
    one_res = n.apply(alg.identity()).norm()
    op_scale = 1.0 + float(np.abs(n.matrix).max())
    if one_res > tol * op_scale:
        raise InputError(
            f"generator must annihilate the identity (residual {one_res:.3e})"
        )
    adj = alg.adj_table
    mul = alg.mul_table
    emb = alg.embedded_basis
    ne = alg.embed(n.canonical_matrix.T)  # ne[i] = N(e_i)
    t_left = np.einsum("ixz,jzy->ijxy", ne[adj], emb)  # N(e_i*) e_j
    t_right = np.einsum("ixz,jzy->ijxy", emb[adj], ne)  # e_i* N(e_j)
    prod = mul[adj]  # index of e_i* e_j
    t_mid = np.where((prod >= 0)[:, :, None, None], ne[prod.clip(min=0)], 0.0)
    return CdCForm(alg, scale * (t_left - t_mid + t_right), scale=scale)


def commutator_cdc(vs: Sequence[Element]) -> CdCForm:
    """Gamma(a, b) = sum_j [v_j, a]* [v_j, b]."""
    if not vs:
        raise InputError("need at least one element")
    alg = vs[0].algebra
    emb = alg.embedded_basis
    d, n = alg.dim, alg.total_size
    gram = np.zeros((d, d, n, n), dtype=complex)
    for v in vs:
        alg._own(v)
        vf = v.full()
        comm = vf[None, :, :] @ emb - emb @ vf[None, :, :]
        gram += np.einsum("izx,jzy->ijxy", comm.conj(), comm)
    return CdCForm(alg, gram, scale=1.0)


def _check_automorphism(alpha: SuperOperator, tol=DEFAULT_POS_TOL):
    alg = alpha.algebra
    problems = []
    one = alg.identity()
    if alpha.apply(one).distance(one) > tol:
        problems.append("not unital")
    if np.linalg.matrix_rank(alpha.matrix, tol=tol * alg.dim) < alg.dim:
        problems.append("not invertible")
    d = alg.dim
    images = [alpha.apply(alg.basis_element(i)) for i in range(d)]
    adj = alg.adj_table
    mul = alg.mul_table
    worst_mult = 0.0
    for i in range(d):
        for j in range(d):
            k = mul[i, j]
            target = images[k] if k >= 0 else alg.zero()
            worst_mult = max(worst_mult, (images[i] * images[j]).distance(target))
    if worst_mult > tol:
        problems.append(f"not multiplicative (residual {worst_mult:.3e})")
    worst_star = max(
        images[adj[i]].distance(images[i].adjoint()) for i in range(d)
    )
    if worst_star > tol:
        problems.append(f"does not preserve the involution (residual {worst_star:.3e})")
    if problems:
        raise InputError("map is not a unital *-automorphism", problems)


def group_action_cdc(autos: Sequence[SuperOperator], weights: Sequence[float],
                     tol=DEFAULT_POS_TOL) -> CdCForm:
    """Gamma(a, b) = sum_x c_x (alpha_x(a) - a)* (alpha_x(b) - b).

    The identity automorphism contributes nothing, so it needs no weight.
    """
    if not autos:
        raise InputError("need at least one automorphism")
    if len(autos) != len(weights):
        raise InputError("automorphisms and weights must have equal length")
    if any(w < 0 for w in weights):
        raise InputError("weights must be nonnegative")
    alg = autos[0].algebra
    d, n = alg.dim, alg.total_size
    gram = np.zeros((d, d, n, n), dtype=complex)
    for alpha, c in zip(autos, weights):
        _check_automorphism(alpha, tol)
        diff = alg.embed(alpha.canonical_matrix.T - np.eye(d))  # alpha(e_i) - e_i
        gram += c * np.einsum("izx,jzy->ijxy", diff.conj(), diff)
    return CdCForm(alg, gram, scale=1.0)


def spectral_triple_cdc(dirac_matrix, algebra: Algebra, scale=1.0,
                        tol=DEFAULT_POS_TOL) -> CdCForm:
    """Gamma(a, b) = E([D, a]* [D, b]) with E the trace conditional
    expectation onto the block-diagonally embedded algebra."""
    d_mat = np.asarray(dirac_matrix, dtype=complex)
    n = algebra.total_size
    if d_mat.shape != (n, n):
        raise InputError(f"operator must be {n}x{n}, got {d_mat.shape}")
    if np.abs(d_mat - d_mat.conj().T).max() > tol * (1.0 + np.abs(d_mat).max()):
        raise InputError("operator must be Hermitian")
    emb = algebra.embedded_basis
    comm = d_mat[None, :, :] @ emb - emb @ d_mat[None, :, :]
    gram = np.einsum("izx,jzy->ijxy", comm.conj(), comm)
    gram = gram * algebra._block_mask[None, None, :, :]
    return CdCForm(algebra, scale * gram, scale=scale)


def network_cdc(algebra: Algebra, c, scale=0.5, allow_negative=False) -> CdCForm:
    """The commutative form Gamma(f, g)(y) = scale * sum_{x != y}
    (conj f(x) - conj f(y)) (g(x) - g(y)) c_xy."""
    if not algebra.is_commutative:
        raise InputError("network forms require a commutative algebra")
    size = algebra.dim
    c = np.asarray(c, dtype=float)
    if c.shape != (size, size):
        raise InputError(f"conductance matrix must be {size}x{size}, got {c.shape}")
    if np.abs(np.diag(c)).max(initial=0.0) > 0:
        raise InputError("conductance matrix must have zero diagonal")
    if not allow_negative and c.min(initial=0.0) < 0:
        raise InputError(
            "negative conductances require the explicit allow_negative flag"
        )
    # vals[p, q, y] = sum_x (d_p(x) - d_p(y)) (d_q(x) - d_q(y)) c_xy; each
    # entry has at most one nonzero term, so the sum is exact
    eye = np.eye(size)
    deg = np.ascontiguousarray(c.T).sum(axis=1)
    vals = (eye[:, :, None] * c[:, None, :]
            - eye[None, :, :] * c[:, None, :]
            - eye[:, None, :] * c[None, :, :]
            + eye[:, None, :] * eye[None, :, :] * deg)
    gram = np.zeros((size, size, size, size), dtype=complex)
    diag = np.arange(size)
    gram[:, :, diag, diag] = scale * vals
    return CdCForm(algebra, gram, scale=scale)


def conductances_from_cdc(gamma: CdCForm, tol=DEFAULT_POS_TOL, require_cdc=True) -> np.ndarray:
    """Recover the conductance matrix c_py = Gamma(d_p, d_p)(y) / scale from a
    carre-du-champ on a commutative algebra."""
    alg = gamma.algebra
    if not alg.is_commutative:
        raise InputError("conductance extraction requires a commutative algebra")
    if require_cdc:
        report = is_cdc(gamma, tol=tol)
        if not report.is_cdc:
            raise InputError("form is not a carre-du-champ", [report.residuals])
    c = np.einsum("ppyy->py", gamma.gram).real / gamma.scale
    np.fill_diagonal(c, 0.0)
    return c


# -- verification -------------------------------------------------------------


def is_cdc(gamma: CdCForm, tol=DEFAULT_POS_TOL) -> CdCReport:
    """Check symmetry, unit annihilation, the star-representation condition,
    and complete positivity.  All four are multilinear in their arguments, so
    basis tuples suffice."""
    alg = gamma.algebra
    g = gamma.gram
    d, n = alg.dim, alg.total_size
    scale = 1.0 + gamma.magnitude()
    witness = None

    sym_res = float(np.abs(g - g.transpose(1, 0, 3, 2).conj()).max())
    symmetric = sym_res <= tol * scale
    if not symmetric and witness is None:
        i, j = np.unravel_index(
            np.abs(g - g.transpose(1, 0, 3, 2).conj()).reshape(d, d, -1).max(axis=2).argmax(),
            (d, d),
        )
        witness = {"kind": "symmetry", "pair": [int(i), int(j)], "residual": sym_res}

    unit_res = gamma.unit_residual()
    unit_ok = unit_res <= tol * scale

    adj = alg.adj_table
    mul = alg.mul_table
    emb = alg.embedded_basis
    # Gamma(e_i e_j, e_k) - Gamma(e_j, e_i* e_k) = e_j* Gamma(e_i, e_k) - Gamma(e_j, e_i*) e_k
    mask1 = (mul >= 0)[:, :, None, None, None]
    t1 = np.where(mask1, g[mul.clip(min=0)], 0.0)
    m2 = mul[adj]
    t2 = np.where((m2 >= 0)[:, None, :, None, None], g[:, m2.clip(min=0)].transpose(1, 0, 2, 3, 4), 0.0)
    # t2 built as g[j, m2[i, k]]: g[:, m2] has axes (j, i, k, x, y)
    t3 = np.einsum("jxz,ikzy->ijkxy", emb[adj], g)
    t4 = np.einsum("ijxz,kzy->ijkxy", g[:, adj].transpose(1, 0, 2, 3), emb)
    star_gap = t1 - t2 - t3 + t4
    star_res = float(np.abs(star_gap).max())
    star_ok = star_res <= tol * scale
    if not star_ok and witness is None:
        i, j, k = np.unravel_index(
            np.abs(star_gap).reshape(d, d, d, -1).max(axis=3).argmax(), (d, d, d)
        )
        witness = {
            "kind": "star-representation",
            "triple": [int(i), int(j), int(k)],
            "residual": star_res,
        }

    # complete positivity of the basis gram as a d*n square matrix; by
    # sesquilinearity this is equivalent to positivity on arbitrary tuples.
    big = g.transpose(0, 2, 1, 3).reshape(d * n, d * n)
    herm_res = float(np.abs(big - big.conj().T).max())
    if herm_res > tol * scale:
        cp_ok = False
        min_eig = float("nan")
        if witness is None:
            witness = {"kind": "gram-not-hermitian", "residual": herm_res}
    else:
        eigvals, eigvecs = np.linalg.eigh((big + big.conj().T) / 2)
        min_eig = float(eigvals[0])
        cp_ok = min_eig >= -tol * max(1.0, float(eigvals[-1]))
        if not cp_ok and witness is None:
            vec = eigvecs[:, 0]
            witness = {
                "kind": "negative-direction",
                "eigenvalue": min_eig,
                "vector": [[float(z.real), float(z.imag)] for z in vec],
            }

    return CdCReport(
        symmetric=symmetric,
        unit_annihilating=unit_ok,
        star_representation=star_ok,
        completely_positive=cp_ok,
        residuals={
            "symmetry": sym_res,
            "unit": unit_res,
            "star_representation": star_res,
            "gram_min_eigenvalue": min_eig,
        },
        witness=witness,
    )


def ccn_check(n: SuperOperator, seed=0, tol=DEFAULT_POS_TOL, extra_tuples=4) -> bool:
    """Conditional complete negativity, checked directly on tuples
    (a_j, b_j) with sum a_j b_j = 0.

    The spanning family is the full canonical basis completed by the trick
    a_last = 1, b_last = -sum a_j b_j; eliminating the dependent entry turns
    the requirement into negativity of one explicit Hermitian matrix, which
    is decisive.  A few seeded random tuples exercise the definition away
    from the basis as well.
    """
    alg = n.algebra
    one = alg.identity()
    op_scale = 1.0 + float(np.abs(n.matrix).max())
    if n.apply(one).norm() > tol * op_scale:
        raise InputError("generator must annihilate the identity")
    d, size = alg.dim, alg.total_size
    adj = alg.adj_table
    mul = alg.mul_table
    emb = alg.embedded_basis
    ne = np.stack([n.apply(alg.basis_element(i)).full() for i in range(d)])

    # W[(J, x), (K, y)] = [N(A_J* A_K)]_{x, y} for A = (e_1, ..., e_d, 1)
    m = d + 1
    w = np.zeros((m * size, m * size), dtype=complex)
    for j in range(d):
        for k in range(d):
            idx = mul[adj[j], k]
            if idx >= 0:
                w[j * size : (j + 1) * size, k * size : (k + 1) * size] = ne[idx]
        w[j * size : (j + 1) * size, d * size :] = ne[adj[j]]
        w[d * size :, j * size : (j + 1) * size] = ne[j]
    # bottom-right block is N(1) = 0

    lift = np.zeros((m * size, d * size), dtype=complex)
    lift[: d * size, :] = np.eye(d * size)
    for j in range(d):
        lift[d * size :, j * size : (j + 1) * size] = -emb[j]
    t = lift.conj().T @ w @ lift
    # a nonpositive element is in particular self-adjoint, so a skew part is
    # already a violation
    scale = 1.0 + float(np.abs(t).max())
    if float(np.abs(t - t.conj().T).max()) > tol * scale:
        return False
    eigs = np.linalg.eigvalsh((t + t.conj().T) / 2)
    bound = tol * max(1.0, float(np.abs(eigs).max()))
    if eigs[-1] > bound:
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
        top = float(herm.eigenvalues().real.max())
        if top > tol * (1.0 + herm.norm()):
            return False
    return True


def amplify_cdc(gamma: CdCForm, order: int) -> CdCForm:
    """The form on order x order matrices over the algebra determined by
    (Gamma_n(A, B))_{jk} = sum_p Gamma(a_pj, b_pk)."""
    if order < 1:
        raise InputError("amplification order must be >= 1")
    if order == 1:
        return gamma
    base = gamma.algebra
    amp = base.amplify(order)
    cells, inners = amplification_index(base, order)
    row, col = np.divmod(cells, order)
    # pos[k, x]: the amplified row of base row x in matrix cell column k
    x_block = np.repeat(np.arange(len(base.blocks)), base.blocks)
    x_sizes = np.asarray(base.blocks)[x_block]
    x_inner = np.arange(base.total_size) - base._space_offsets[x_block]
    pos = amp._space_offsets[x_block] + np.arange(order)[:, None] * x_sizes + x_inner
    # units in the same cell row pair up; each copies the diagonal blocks of
    # its base value into cell (col_1, col_2) of every block
    i_1, i_2 = np.nonzero(row[:, None] == row[None, :])
    xs, ys = np.nonzero(base._block_mask)
    gram = np.zeros((amp.dim, amp.dim, amp.total_size, amp.total_size), dtype=complex)
    gram[i_1[:, None], i_2[:, None], pos[col[i_1]][:, xs], pos[col[i_2]][:, ys]] = (
        gamma.gram[inners[i_1], inners[i_2]][:, xs, ys])
    return CdCForm(amp, gram, scale=gamma.scale)


# -- standard generators -------------------------------------------------


def lindblad_generator(algebra: Algebra, vs: Sequence[Element]) -> SuperOperator:
    """N(a) = sum_j ( -v_j* a v_j + (v_j* v_j a + a v_j* v_j)/2 ), assembled
    as sum_j ( -L_{v_j*} R_{v_j} + (L_{v_j* v_j} + R_{v_j* v_j})/2 ).

    Conditionally completely negative, annihilates the identity, and is
    fixed by the sharp involution; its form is sum_j [v_j, a]*[v_j, b].
    """
    out = np.zeros((algebra.dim, algebra.dim), dtype=complex)
    for v in vs:
        algebra._own(v)
        vv = v.adjoint() * v
        out += (-(left_multiplication(algebra, v.adjoint()).matrix
                  @ right_multiplication(algebra, v).matrix)
                + 0.5 * (left_multiplication(algebra, vv).matrix
                         + right_multiplication(algebra, vv).matrix))
    return SuperOperator(algebra, out)


def double_commutator_generator(algebra: Algebra, vs: Sequence[Element]) -> SuperOperator:
    """N(a) = sum_j [v_j*, [v_j, a]]; the Laplace operator of the commutator
    form sum_j Gamma_{v_j}.  Assembled as
    sum_j ( L_{v_j* v_j} - L_{v_j*} R_{v_j} - L_{v_j} R_{v_j*} + R_{v_j v_j*} )."""
    out = np.zeros((algebra.dim, algebra.dim), dtype=complex)
    for v in vs:
        algebra._own(v)
        v_star = v.adjoint()
        left_v = left_multiplication(algebra, v).matrix
        left_v_star = left_multiplication(algebra, v_star).matrix
        out += (left_multiplication(algebra, v_star * v).matrix
                - left_v_star @ right_multiplication(algebra, v).matrix
                - left_v @ right_multiplication(algebra, v_star).matrix
                + right_multiplication(algebra, v * v_star).matrix)
    return SuperOperator(algebra, out)


def conjugation_superop(algebra: Algebra, u: Element, tol=DEFAULT_POS_TOL) -> SuperOperator:
    """The inner automorphism a -> u a u* for a unitary u: L_u R_{u*}."""
    algebra._own(u)
    if (u * u.adjoint()).distance(algebra.identity()) > tol:
        raise InputError("conjugation requires a unitary element")
    return left_multiplication(algebra, u).compose(right_multiplication(algebra, u.adjoint()))


def permutation_superop(algebra: Algebra, perm: Sequence[int]) -> SuperOperator:
    """The automorphism of a commutative algebra induced by a permutation of
    its points: f -> f o perm.  Orthonormal coordinates carry sqrt(w_x), so
    the matrix holds sqrt(w_x / w_perm(x)) at (x, perm(x))."""
    if not algebra.is_commutative:
        raise InputError("point permutations require a commutative algebra")
    size = algebra.dim
    perm = list(perm)
    if sorted(perm) != list(range(size)):
        raise InputError(f"not a permutation of {size} points")
    w = algebra.basis_weights
    m = np.zeros((size, size))
    m[np.arange(size), perm] = np.sqrt(w / w[perm])
    return SuperOperator(algebra, m)
