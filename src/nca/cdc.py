"""Carre-du-champ forms: the five builders, axiomatic verification, complete
positivity, conditional complete negativity, amplification, and the
commutative classification by conductance matrices.

A form is stored through its values on the canonical basis, in the
algebra's own coordinates: ``gram[i, j, k]`` is the coefficient of the
matrix unit e_k in ``Gamma(e_i, e_j)``, so ``gram`` has shape (d, d, d)
with d = sum of n_b^2.  Sesquilinearity (conjugate-linear in the first slot)
recovers all other values, so every axiom is checked on basis tuples only.
A gram keeps its data's dtype (``frozen_array``): a real gram (a network,
its amplifications, the form of a real generator) stays float64, so every
check below runs in real arithmetic, with real symmetric solvers on the CP blocks.

Every check and reader is an index formula over the structure constants.
A product of two units is another unit or zero, and ``mul_nonzero`` lists
the nonzero ones as triples (i, j, k) with e_i e_j = e_k.  So, with
G = ``gram`` and adj = ``adj_table``:

* symmetry, Gamma(e_i, e_j)* = Gamma(e_j, e_i), is G - conj(G[j, i, adj]);
* the star-representation identity
  Gamma(e_i e_j, e_k) - Gamma(e_j, e_i* e_k) = e_j* Gamma(e_i, e_k) - Gamma(e_j, e_i*) e_k
  is checked by the largest coefficient of its gap on each row (i, j, k).
  The first two terms reach only the rows of the triples, which are
  evaluated whole; on every other row the last two lie on one row and one
  column of the embedding, so the maximum comes from per-line maxima of |G|
  and the one unit where they meet.  No d^4 gap is held, and on a
  commutative algebra each row maximum is a closed form in G;
* complete positivity is positivity of the basis gram
  [(i, x), (j, y)] -> Gamma(e_i, e_j)_{xy}.  It is a direct sum over the
  blocks b, block b being the (d n_b) x (d n_b) matrix of G[i, j, unit (r, s)
  of b], so one batched ``eigvalsh`` per block size decides it.  A failing
  direction is embedded back into the d n coordinates (i, x).  A form on a
  commutative algebra that passes the other three checks is the network
  form of its conductances c_py = G[p, p, y] / scale, and its block at
  node y is scale sum_x c_xy (d_x - d_y)(d_x - d_y)^T; by Sylvester's law
  of inertia it is positive exactly when every conductance is, so that
  form is judged by the signs of c and its network gap, against its own
  magnitude, with a negative conductance as the witness.  The inertia
  argument holds for an exact network form only, so the residual is the
  larger of scale max(0, -min c) and the network gap |G - network(c)|,
  formed by chunks of rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .algebra import (
    DEFAULT_EQ_TOL,
    DEFAULT_POS_TOL,
    Algebra,
    Element,
    SuperOperator,
    block_norms,
    block_products,
    cell_units,
    chunked_max,
    decode_real_array,
    frozen_array,
    hermitian_eigenvalues,
    left_multiplication,
    random_rows,
    right_multiplication,
)
from .errors import InputError, PropertyViolationError
from .reporting import CheckResult, judge, judge_spectrum


@dataclass(frozen=True)
class CdCForm:
    """An algebra-valued sesquilinear form over the canonical basis.

    ``gram`` has shape (d, d, d): ``gram[i, j, k]`` is the coefficient of
    the unit e_k in Gamma(e_i, e_j); it is read-only, finite, float64 for
    real or integer data and complex128 for complex data (:func:`frozen_array`).
    ``scale`` records the conventional prefactor (1 for generator and
    commutator forms, 1/2 for Laplacian and network forms) so cross-module
    comparisons never mix conventions silently.
    """

    algebra: Algebra
    gram: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        d = self.algebra.dim
        object.__setattr__(self, "gram", frozen_array(
            self.gram, (d, d, d), f"gram tensor must have shape (d, d, d) = {(d, d, d)}"))
        if not np.isfinite(self.gram).all():
            raise InputError("gram tensor must hold finite numbers")

    def value(self, a: Element, b: Element) -> Element:
        """Gamma(a, b), conjugate-linear in ``a``."""
        x = self.algebra.canonical_coords(a).conj()
        y = self.algebra.canonical_coords(b)
        return self.algebra.from_canonical_coords(np.einsum("i,j,ijk->k", x, y, self.gram))

    @cached_property
    def tau_values(self) -> np.ndarray:
        """Matrix of tau(Gamma(e_i, e_j)) over the canonical basis."""
        alg = self.algebra
        return np.einsum("x,ijx->ij", alg.coord_weights, self.gram[:, :, alg.diagonal_units])

    def unit_residual(self) -> float:
        one = self.algebra.canonical_coords(self.algebra.identity()).conj()
        return float(np.abs(np.einsum("i,ijk->jk", one, self.gram)).max())

    def magnitude(self) -> float:
        g = self.gram
        return chunked_max(lambda rows: np.abs(g[rows]), len(g), g[0].size)[0]


@dataclass
class CdCReport:
    """Outcome of the carre-du-champ axioms, with witnesses for failures."""

    symmetric: bool
    unit_annihilating: bool
    star_representation: bool
    completely_positive: bool
    residuals: dict = field(default_factory=dict)
    witness: Optional[dict] = None
    checks: list = field(default_factory=list)  # the four verdicts, cdc-symmetric first

    @property
    def is_cdc(self) -> bool:
        return (
            self.symmetric
            and self.unit_annihilating
            and self.star_representation
            and self.completely_positive
        )

    def require(self, message: str) -> None:
        """Raise ``message`` and the witness unless the form is a carre-du-champ."""
        if not self.is_cdc:
            raise PropertyViolationError(
                message, [CheckResult("is-cdc", False, witness=self.witness)])


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
    # each term is nonzero only where a product e_i e_j = e_k is, so it is
    # written there: N(e_p*) e_j at [p, j, k] from N(e_p*)_i, N(e_i* e_j) at
    # [adj i, j] from N(e_k), e_i* N(e_q) at [adj i, q, k] from N(e_q)_j
    adj = alg.adj_table
    i, j, k = alg.mul_nonzero
    ne = n.canonical_matrix.T  # ne[i] = N(e_i)
    gram = np.zeros((alg.dim,) * 3, dtype=ne.dtype)
    gram[:, j, k] = ne[adj][:, i]
    gram[adj[i], j] -= ne[k]
    gram[adj[i], :, k] += ne[:, j].T
    return CdCForm(alg, scale * gram, scale=scale)


def _unit_entries_of_products(alg: Algebra, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``out[i, j, k]``: the entry at the unit e_k of sum_f left[f, i]* right[f, j]
    for (m, d, n, n) stacks of m factors, their trace conditional expectation
    onto the algebra.  It is one product [k, i, (f, z)] @ [k, (f, z), j] batched
    over k, whose operands gather the stacks' columns at the units' rows and columns."""
    rows, cols = alg.unit_positions
    m, d, n, _ = right.shape
    a = left.transpose(3, 1, 0, 2).reshape(n, -1).conj()[rows].reshape(d, d, m * n)
    b = right.transpose(3, 0, 2, 1).reshape(n, -1)[cols].reshape(d, m * n, d)
    return (a @ b).transpose(1, 2, 0)


def commutator_cdc(vs: Sequence[Element]) -> CdCForm:
    """Gamma(a, b) = sum_j [v_j, a]* [v_j, b]."""
    if not vs:
        raise InputError("need at least one element")
    alg = vs[0].algebra
    for v in vs:
        alg._own(v)
    emb = alg.embedded_basis
    vf = np.stack([v.full() for v in vs])[:, None]
    comm = vf @ emb - emb @ vf
    return CdCForm(alg, _unit_entries_of_products(alg, comm, comm), scale=1.0)


def _check_automorphism(alpha: SuperOperator, tol=DEFAULT_POS_TOL) -> np.ndarray:
    alg = alpha.algebra
    problems = []
    one = alg.identity()
    if alpha.apply(one).distance(one) > tol:
        problems.append("not unital")
    if np.linalg.matrix_rank(alpha.matrix, tol=tol * alg.dim) < alg.dim:
        problems.append("not invertible")
    # images[i] = alpha(e_i) in canonical coordinates; alpha(e_i) alpha(e_j)
    # must be the image of e_i e_j, which is zero off ``mul_nonzero``, and
    # alpha(e_i)* that of e_i*
    images = alpha.canonical_matrix.T
    gap = block_products(alg, images[:, None], images[None, :])
    i, j, k = alg.mul_nonzero
    gap[i, j] -= images[k]
    worst_mult = float(block_norms(alg, gap).max())
    if worst_mult > tol:
        problems.append(f"not multiplicative (residual {worst_mult:.3e})")
    adjoints = images[:, alg.adj_table].conj()
    worst_star = float(block_norms(alg, images[alg.adj_table] - adjoints).max())
    if worst_star > tol:
        problems.append(f"does not preserve the involution (residual {worst_star:.3e})")
    if problems:
        raise InputError("map is not a unital *-automorphism", problems)
    return images


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
    # diff[x, i] = alpha_x(e_i) - e_i
    diff = alg.embed(np.stack([_check_automorphism(a, tol) for a in autos]) - np.eye(alg.dim))
    left = np.asarray(weights, dtype=float)[:, None, None, None] * diff
    return CdCForm(alg, _unit_entries_of_products(alg, left, diff), scale=1.0)


def spectral_triple_cdc(dirac_matrix, algebra: Algebra, scale=1.0,
                        tol=DEFAULT_POS_TOL) -> CdCForm:
    """Gamma(a, b) = E([D, a]* [D, b]) with E the trace conditional
    expectation onto the block-diagonally embedded algebra: the entries of
    [D, a]* [D, b] at the unit positions."""
    d_mat = np.asarray(dirac_matrix, dtype=complex)
    n = algebra.total_size
    if d_mat.shape != (n, n):
        raise InputError(f"operator must be {n}x{n}, got {d_mat.shape}")
    if np.abs(d_mat - d_mat.conj().T).max() > tol * (1.0 + np.abs(d_mat).max()):
        raise InputError("operator must be Hermitian")
    emb = algebra.embedded_basis
    comm = (d_mat @ emb - emb @ d_mat)[None]
    return CdCForm(algebra, scale * _unit_entries_of_products(algebra, comm, comm), scale=scale)


def conductance_matrix(c, allow_negative=False) -> np.ndarray:
    """``c`` as a square float array of finite numbers with zero diagonal,
    nonnegative unless ``allow_negative`` is set: the rule that
    :func:`network_cdc` and ``ResistanceNetwork`` share."""
    c = decode_real_array(c, "conductance matrix")
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise InputError(f"conductance matrix must be square, got shape {c.shape}")
    if np.abs(np.diag(c)).max(initial=0.0) > 0:
        raise InputError("conductance matrix must have zero diagonal")
    if not allow_negative and c.min(initial=0.0) < 0:
        raise InputError("negative conductances require the explicit allow_negative flag")
    return c


def network_cdc(algebra: Algebra, c, scale=0.5, allow_negative=False) -> CdCForm:
    """The commutative form Gamma(f, g)(y) = scale * sum_{x != y}
    (conj f(x) - conj f(y)) (g(x) - g(y)) c_xy, scattered onto its at most
    3 N^2 nonzero entries."""
    if not algebra.is_commutative:
        raise InputError("network forms require a commutative algebra")
    size = algebra.dim
    c = conductance_matrix(c, allow_negative)
    if c.shape != (size, size):
        raise InputError(f"conductance matrix must be {size}x{size}, got {c.shape}")
    vals = np.zeros((size,) * 3)
    for at, value in _network_entries(c, slice(0, size)):
        vals[at] = value
    return CdCForm(algebra, scale * vals, scale=scale)


def _network_entries(c: np.ndarray, rows: slice) -> list:
    """``(index, value)`` of the nonzero entries of the rows p of ``rows`` of
    the network gram of ``c`` at scale 1, held [p - rows.start, q, y].

    The unit at point y is e_y, so gram[p, q, y] = sum_x (d_p(x) - d_p(y))
    (d_q(x) - d_q(y)) c_xy, which for p != y is c_py at [p, p, y], -c_py at
    [p, y, y] and [y, p, y], deg_y = sum_x c_xy at [y, y, y] and zero
    elsewhere.  Each is one term of the sum and exact zeros, which turn a
    -0.0 into +0.0: hence c + 0.0 and 0.0 - c.  The places meet only at
    [y, y, y], where c_yy = 0 and deg_y comes last."""
    every = np.arange(len(c))
    p = every[rows]
    own = np.arange(len(p))[:, None]
    return [((own, p[:, None], every), c[p] + 0.0),
            ((own, every, every), 0.0 - c[p]),
            ((own, every, p[:, None]), 0.0 - c[:, p].T),
            ((own[:, 0], p, p), np.ascontiguousarray(c.T).sum(axis=1)[p] + 0.0)]


def _edge_weights(g: np.ndarray, scale=1.0) -> np.ndarray:
    """The conductances c_py = Gamma(d_p, d_p)(y) / ``scale`` of a form on a
    commutative algebra, read off the diagonal slab G[p, p, y] with a zero
    diagonal.  At ``scale`` 1 they are the scaled conductances scale * c_py
    that the complete-positivity blocks carry."""
    every = np.arange(len(g))
    c = g[every, every].real / scale
    np.fill_diagonal(c, 0.0)
    return c


def conductances_from_cdc(gamma: CdCForm, tol=DEFAULT_POS_TOL) -> np.ndarray:
    """Recover the conductance matrix c_py = Gamma(d_p, d_p)(y) / scale from a
    carre-du-champ on a commutative algebra."""
    alg = gamma.algebra
    if not alg.is_commutative:
        raise InputError("conductance extraction requires a commutative algebra")
    report = is_cdc(gamma, tol=tol)
    if not report.is_cdc:
        raise InputError("form is not a carre-du-champ", [report.residuals])
    return _edge_weights(gamma.gram, gamma.scale)


# -- verification -------------------------------------------------------------


def is_cdc(gamma: CdCForm, tol=DEFAULT_POS_TOL) -> CdCReport:
    """Check symmetry, unit annihilation, the star-representation condition,
    and complete positivity.  All four are multilinear in their arguments, so
    basis tuples suffice; the module docstring gives the gathers and the two
    routes of complete positivity."""
    alg = gamma.algebra
    g = gamma.gram
    d = alg.dim
    magnitude = gamma.magnitude()
    scale = 1.0 + magnitude
    witness = None

    # each gap by chunks of rows i whose two slabs fit the chunk budget
    sym_max, sym_at = chunked_max(
        lambda rows: np.abs(g[rows] - g.swapaxes(0, 1)[rows][:, :, alg.adj_table].conj()),
        d, 2 * d * d)
    sym = judge("cdc-symmetric", sym_max, scale, tol)
    if not sym.passed:
        witness = {"kind": "symmetry", "pair": list(sym_at()[:2]), "residual": sym.residual}

    unit = judge("cdc-unit-annihilation", gamma.unit_residual(), scale, tol)

    star_max, star_at = chunked_max(lambda rows: _star_gaps(alg, g, rows),
                                    d, 2 * max(alg.blocks) * d * d)
    star = judge("cdc-star-representation", star_max, scale, tol)
    if not star.passed and witness is None:
        witness = {"kind": "star-representation", "triple": list(star_at()),
                   "residual": star.residual}

    residuals = {"symmetry": sym.residual, "unit": unit.residual,
                 "star_representation": star.residual}
    # the skew part of the basis gram is the symmetry gap, so only a
    # symmetric form is tested for positivity; an asymmetric one fails it
    # by its symmetry residual
    cp = replace(sym, check="cdc-completely-positive")
    if alg.is_commutative and sym.passed and unit.passed and star.passed:
        cp, witness = _edge_cp(gamma, magnitude, tol, residuals)
    elif sym.passed:
        grams = list(_cp_blocks(alg, g))
        eigs = [np.linalg.eigvalsh(m) for m in grams]
        lows = [float(e[:, 0].min()) for e in eigs]
        min_eig = residuals["gram_min_eigenvalue"] = min(lows)
        cp = judge_spectrum("cdc-completely-positive", min_eig,
                            max(float(e[:, -1].max()) for e in eigs), tol)
        if not cp.passed and witness is None:
            group = int(np.argmin(lows))
            block = int(eigs[group][:, 0].argmin())
            n_b, cols = alg.size_groups[group]
            first_row = alg.unit_positions[0][cols[block, 0]]
            vec = np.zeros((d, alg.total_size), dtype=complex)
            vec[:, first_row:first_row + n_b] = (
                np.linalg.eigh(grams[group][block])[1][:, 0].reshape(d, n_b))
            witness = {
                "kind": "negative-direction",
                "eigenvalue": min_eig,
                "vector": [[float(z.real), float(z.imag)] for z in vec.reshape(-1)],
            }
    else:
        residuals["gram_min_eigenvalue"] = float("nan")
    if not cp.passed:
        cp.witness = witness

    return CdCReport(
        symmetric=sym.passed,
        unit_annihilating=unit.passed,
        star_representation=star.passed,
        completely_positive=cp.passed,
        residuals=residuals,
        witness=witness,
        checks=[sym, unit, star, cp],
    )


def _edge_cp(gamma: CdCForm, magnitude: float, tol, residuals: dict):
    """The complete-positivity verdict and witness of a network form, as the
    module docstring gives them, from its scaled conductances k = scale c;
    the two residuals are added to ``residuals``."""
    g = gamma.gram
    k = _edge_weights(g)
    def gap_rows(rows):  # |G - network(k)| on the rows, in place for a real gram
        gap = np.array(g[rows])
        for at, value in _network_entries(k, rows):
            gap[at] -= value
        return np.abs(gap, out=gap.real)
    gap, gap_at = chunked_max(gap_rows, len(g), 2 * g[0].size)
    negative = max(0.0, -float(k.min()))
    residuals.update(negative_conductance=negative, network_gap=gap)
    cp = judge("cdc-completely-positive", max(negative, gap), magnitude, tol)
    if cp.passed:
        return cp, None
    if negative >= gap:
        x, y = np.unravel_index(int(k.argmin()), k.shape)
        return cp, {"kind": "negative-conductance", "edge": [int(x), int(y)],
                    "conductance": float(k[x, y] / gamma.scale)}
    return cp, {"kind": "network-gap", "triple": list(gap_at()), "residual": gap}


def _cp_blocks(alg: Algebra, g: np.ndarray):
    """The complete-positivity gram, one Hermitian stack per block size in turn:
    [b, (i, r), (j, s)] = G[i, j, unit (r, s) of block b], symmetrized: the
    conjugate transpose is read off the gram once, and G added to it commutes."""
    d = alg.dim
    for n_b, cols in alg.size_groups:
        m = g[:, :, _unit_run(cols)].reshape(d, d, -1, n_b, n_b).transpose(2, 0, 3, 1, 4)
        h = np.conjugate(m.transpose(0, 3, 4, 1, 2), order="C")  # [b, i, r, j, s]
        h += m
        h /= 2
        yield h.reshape(len(cols), d * n_b, d * n_b)


def _unit_run(units: np.ndarray):
    """The ascending ``units`` as a slice, which reads a view, when they are consecutive."""
    lo, hi = int(units.flat[0]), int(units.flat[-1]) + 1
    return slice(lo, hi) if hi - lo == units.size else units


def _star_gaps(alg: Algebra, g: np.ndarray, rows: slice) -> np.ndarray:
    """``out[p - rows.start, q, r]`` for the p of ``rows``: the largest
    coefficient magnitude of the gap Gamma(e_p e_q, e_r) - Gamma(e_q, e_p* e_r)
    - e_q* Gamma(e_p, e_r) + Gamma(e_q, e_p*) e_r.

    Write R, S for the row and the column of a unit in the embedding.  The
    third term lies on the units of row S q, the fourth on those of column
    S r, and the two meet at most at the unit at (S q, S r).  A row that
    neither of the first two terms reaches is zero elsewhere, and an entry
    that holds one term alone is 0 - x or 0 + x, of magnitude exactly |x|.
    So its maximum is the largest of three: the maximum of |G[p, r]| over
    the units of row R q and that of |G[q, adj p]| over the units of column
    R r, each without the unit that lands where the terms meet, and the
    magnitude of the sum there.

    The first term fills the rows (i, j, :) and the second the rows
    (adj i, :, j) of the triples e_i e_j = e_k of ``mul_nonzero``.  These are
    evaluated whole, in the order of the formula, and written last: the
    second term's slabs without the first term, then the first term's,
    which overwrite the rows that both reach.

    A commutative algebra takes :func:`_commutative_star_gaps`, which reads
    the same table off the two slabs in closed form."""
    if alg.is_commutative:
        return _commutative_star_gaps(g, rows)
    d = alg.dim
    adj = alg.adj_table
    i, j, k = alg.mul_nonzero
    starts = alg._triple_starts
    (qr, rx, qy), (zero3, zero4), (adj_i, r2, k2), pair_starts, by_pair = _star_tables(alg)
    units = alg.unit_positions[0]
    lo, hi = rows.start, rows.stop
    c = hi - lo
    out = np.empty((c, d, d))
    # every row as if only the third and fourth terms reached it, [p, q, r]
    g3 = g[rows].reshape(c, d * d)  # [p, (r, l)]: G[p, r, l]
    g4 = g.swapaxes(0, 1)[adj[rows]].reshape(c, d * d)  # [p, (q, l)]: G[q, adj p, l]
    ab3, ab4 = np.abs(g3), np.abs(g4)
    ab3[:, zero3] = 0  # the units that land where the terms meet
    ab4[:, zero4] = 0
    np.maximum(_line_maxima(alg, ab3.reshape(c, d, d), -1).take(units, axis=2)
               .transpose(0, 2, 1),  # [p, r, q] read as [p, q, r]
               _line_maxima(alg, ab4.reshape(c, d, d), -2).take(units, axis=2), out=out)
    flat = out.reshape(c, d * d)
    flat[:, qr] = np.maximum(flat.take(qr, axis=1),
                             np.abs(g4.take(qy, axis=1) - g3.take(rx, axis=1)))

    slabs = slice(starts[lo], starts[hi])
    s, ps, qs, aps, ju, ku, jv, kv, jw, kw = by_pair[:, pair_starts[lo]:pair_starts[hi]]
    s = s - starts[lo]
    p, q, r = i[slabs], j[slabs], r2[slabs]
    # the second term's rows (p, :, r) for e_p* e_r = e_k2, [q, slab, m],
    # negated, which leaves every magnitude as it is: the second term,
    # then the third over all q and the fourth over column S r
    gap = g[:, k2[slabs]]
    gap[adj_i, :, k] += g[p, r][:, j].T
    gap[:, s, kw] -= g[:, aps, jw]
    out[p - lo, :, r] = np.abs(gap).max(axis=2).T
    # the first term's rows (p, q, :) for e_p e_q = e_k1, [slab, r, m]:
    # the first term, the second at e_p* e_r != 0, the third over row
    # S q and the fourth over all r
    gap = g[k[slabs]]
    gap[s, ju] -= g[qs, ku]
    gap[s, :, kv] -= g[ps, :, jv]
    gap[:, j, k] += g[q, adj_i[slabs]][:, i]
    out[p - lo, q] = np.abs(gap).max(axis=2)
    return out


def _commutative_star_gaps(g: np.ndarray, rows: slice) -> np.ndarray:
    """``_star_gaps`` when every block is 1 x 1, so e_p e_q = [p = q] e_p and
    e_p* = e_p.  The gap's coefficient at e_m is then [p = q] G[p, r, m]
    - [p = r] G[q, p, m] - [q = m] G[p, r, m] + [r = m] G[q, p, m], and the
    largest magnitude of row (p, q, r) is

    * max(|G[p, r, q]|, |G[q, p, r]|) for p, q and r distinct;
    * |G[q, p, q] - G[p, q, q]| for q = r != p;
    * max(|G[p, r, r] + G[p, p, r]|, |G[p, r, m]| over m not p or r) for p = q != r;
    * max(|G[q, p, q] + G[p, p, q]|, |G[q, p, m]| over m not p or q) for p = r != q;
    * 0 for p = q = r.

    Each sum is the one the general route forms, up to sign, so on a finite
    gram the table is bit for bit the same.  Only the chunk's two slabs
    G[p] and G[:, p] are read, and |G| of each is held [m, p, line], so that
    its maxima over m are elementwise."""
    lo, hi = rows.start, rows.stop
    d = len(g)
    every = np.arange(d)
    own, p = np.arange(hi - lo), np.arange(lo, hi)
    a = g[rows]  # [p, r, m]: G[p, r, m]
    b = g[:, rows].swapaxes(0, 1)  # [p, q, m]: G[q, p, m]
    # G[p, x, x], G[x, p, x] and G[p, p, x] at [p, x]
    a_rr, b_qq, a_pp = a[:, every, every], b[:, every, every], a[own, p]
    abs_a = np.abs(a.transpose(2, 0, 1), order="C")  # [m, p, r]
    abs_b = np.abs(b.transpose(2, 0, 1), order="C")  # [m, p, q]
    out = np.maximum(abs_a.transpose(1, 0, 2), abs_b.transpose(1, 2, 0),
                     out=np.empty((hi - lo, d, d)))
    out[:, every, every] = np.abs(b_qq - a_rr)
    for slab in (abs_a, abs_b):  # drop the m = p and the m = r (or q) of each row
        slab[p, own] = 0
        slab[every, :, every] = 0
    out[own, p] = np.maximum(np.abs(a_rr + a_pp), abs_a.max(axis=0))
    out[own, :, p] = np.maximum(np.abs(b_qq + a_pp), abs_b.max(axis=0))
    out[own, p, p] = 0
    return out


@lru_cache(maxsize=64)
def _star_tables(alg: Algebra):
    """The index arrays of ``_star_gaps``, which depend on the blocks alone.

    ``(qr, rx, qy)``: for each pair of units e_q, e_r of one block, the flat
    places (q, r), (r, x) and (q, y) of a (d, d) array, where e_x is the unit
    at (R q, S r) and e_y the unit at (S q, R r).  ``(zero3, zero4)``: the
    places (r, l) with e_l in column S r and (q, l) with e_l in row S q.

    Each p owns one slab of rows per triple x = (p, q, k1) of ``mul_nonzero``
    for the first term and (adj p, r, k2) for the second, from x =
    ``_triple_starts[p]`` on; ``(adj i, r, k2)`` holds them by x.  The last
    array repeats each slab once per unit of its block, from ``pair_starts[p]``
    on, as the units that the gathers read: x, p, q, adj p, j[u], k[u], j[v],
    k[v], adj j[w] and adj k[w], for the triples u of adj p and v of adj q (the
    first term's slab) and w of adj r (the second's)."""
    d = alg.dim
    adj = alg.adj_table
    i, j, k = alg.mul_nonzero
    rows, cols = alg.unit_positions
    at = alg._unit_at
    q, r = np.nonzero(at[rows[:, None], cols[None, :]] >= 0)
    meet = q * d + r, r * d + at[rows[q], cols[r]], q * d + at[cols[q], rows[r]]
    second = _triples_of(alg, adj)[1]
    x, u = _triples_of(alg, adj[i])
    v = _triples_of(alg, adj[j])[1]
    w = _triples_of(alg, adj[j[second]])[1]
    return (meet, (j * d + k, adj[i] * d + k), (adj[i], j[second], k[second]),
            np.searchsorted(x, alg._triple_starts),
            np.stack([x, i[x], j[x], adj[i[x]], j[u], k[u], j[v], k[v], adj[j[w]], adj[k[w]]]))


def _triples_of(alg: Algebra, units: np.ndarray):
    """``(s, t)``: every triple t of ``mul_nonzero`` whose first unit is
    ``units[s]``, in the order of ``units``."""
    starts = alg._triple_starts
    counts = starts[units + 1] - starts[units]
    s = np.repeat(np.arange(len(units)), counts)
    return s, np.arange(len(s)) + np.repeat(starts[units] + counts - np.cumsum(counts), counts)


def _line_maxima(alg: Algebra, a: np.ndarray, axis: int) -> np.ndarray:
    """``out[..., x]``: the largest a[..., l] over the units l in row x
    (``axis`` -1) or column x (``axis`` -2) of the embedding, as a running
    maximum over one slice per unit of the line.  ``a`` is overwritten."""
    out = np.empty(a.shape[:-1] + (alg.total_size,))
    for n, units, lines in alg._block_runs:
        run = a[..., units].reshape(a.shape[:-1] + (-1, n, n)).swapaxes(axis, -1)
        top = run[..., 0]
        for unit in range(1, n):
            np.maximum(top, run[..., unit], out=top)
        out[..., lines] = top.reshape(out.shape[:-1] + (-1,))
    return out


_CCN_TUPLES = 4  # seeded tuples that ccn_check tries beyond the basis


def ccn_check(n: SuperOperator, seed=0, tol=DEFAULT_POS_TOL, unit_tol=DEFAULT_EQ_TOL) -> bool:
    """Conditional complete negativity, checked directly on tuples
    (a_j, b_j) with sum a_j b_j = 0, for a map with N(1) = 0 to ``unit_tol``,
    the rule of :func:`gamma_from_generator`.

    The spanning family is the full canonical basis completed by the trick
    a_last = 1, b_last = -sum a_j b_j; eliminating the dependent entry turns
    the requirement into negativity of one explicit Hermitian matrix, which
    is decisive.  A few seeded random tuples exercise the definition away
    from the basis as well.
    """
    alg = n.algebra
    one = alg.identity()
    op_scale = 1.0 + float(np.abs(n.matrix).max())
    if n.apply(one).norm() > unit_tol * op_scale:
        raise InputError("generator must annihilate the identity")
    d, size = alg.dim, alg.total_size
    ne = np.zeros((d + 1, size, size), dtype=complex)
    ne[:d] = alg.embed(n.canonical_matrix.T)  # N(e_i); index -1 reads zero

    # W[(J, x), (K, y)] = [N(A_J* A_K)]_{x, y} for A = (e_1, ..., e_d, 1):
    # A_J* A_K is the unit mul_table[adj J, K] (N(e_J*) and N(e_K) on the
    # last row and column), or zero where the product is -1
    w11 = ne[alg.mul_table[alg.adj_table]].transpose(0, 2, 1, 3).reshape(d * size, d * size)
    w12 = ne[alg.adj_table].reshape(d * size, size)
    w21 = ne[:d].transpose(1, 0, 2).reshape(size, d * size)

    # tuples with sum a_j b_j = 0: b_last = -sum_j e_j b_j = -E b, so the
    # matrix is [1, -E*] W [1; -E], and W's last diagonal block N(1 1) is 0
    e = alg.embedded_basis.transpose(1, 0, 2).reshape(size, d * size)
    t = w11 - w12 @ e - e.conj().T @ w21
    # a nonpositive element is in particular self-adjoint, so a skew part is
    # already a violation
    scale = 1.0 + float(np.abs(t).max())
    if float(np.abs(t - t.conj().T).max()) > tol * scale:
        return False
    eigs = np.linalg.eigvalsh((t + t.conj().T) / 2)
    bound = tol * max(1.0, float(np.abs(eigs).max()))
    if eigs[-1] > bound:
        return False

    # seeded tuples a_1..a_3, b_1..b_3, completed by a_4 = 1, b_4 = -sum a_j b_j:
    # sum_jk b_j* N(a_j* a_k) b_k of all tuples at once
    draw = random_rows(alg, np.random.default_rng(seed), 6 * _CCN_TUPLES)
    a, b = draw.reshape(_CCN_TUPLES, 2, 3, d).swapaxes(0, 1)
    a = np.concatenate([a, np.broadcast_to(one.coords, (_CCN_TUPLES, 1, d))], axis=1)
    b = np.concatenate([b, -1.0 * block_products(alg, a[:, :3], b).sum(axis=1)[:, None]], axis=1)
    adj = alg.adj_table
    images = block_products(alg, a[:, :, None, adj].conj(), a[:, None]) @ n.canonical_matrix.T
    acc = block_products(alg, block_products(alg, b[:, :, None, adj].conj(), images),
                         b[:, None]).reshape(_CCN_TUPLES, -1, d).sum(axis=1)
    herm = 0.5 * (acc + acc[:, adj].conj())
    skew = block_norms(alg, acc - acc[:, adj].conj()) > tol * (1.0 + block_norms(alg, acc))
    top = hermitian_eigenvalues(alg, herm).max(axis=-1)
    return not (skew | (top > tol * (1.0 + block_norms(alg, herm)))).any()


def amplify_cdc(gamma: CdCForm, order: int) -> CdCForm:
    """The form (Gamma_n(A, B))_{jk} = sum_p Gamma(a_pj, b_pk) on order x order
    matrices: each pair of units in cells (p, j) and (p, k) copies its base
    values into cell (j, k), all three read from :func:`cell_units`."""
    base = gamma.algebra
    amp = base.amplify(order)  # validates the order, 1 included
    if order == 1:
        return gamma
    unit = cell_units(base, order).reshape(order, order, base.dim)  # [cell row, column, u]
    gram = np.zeros((amp.dim,) * 3, dtype=gamma.gram.dtype)
    gram[unit[:, :, None, :, None, None], unit[:, None, :, None, :, None],
         unit[None, :, :, None, None, :]] = gamma.gram
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
