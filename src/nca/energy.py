"""Energy (Dirichlet) forms, Laplace operators, heat semigroups, resolvents,
Markov/Leibniz verification, trace symmetries, and the reconstruction of a
carre-du-champ from a real completely Markov form.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import (
    DEFAULT_EQ_TOL,
    DEFAULT_POS_TOL,
    DEFAULT_RANK_TOL,
    Algebra,
    Element,
    PiecewiseLinear,
    SpectralStack,
    SuperOperator,
    amplify_matrix,
    block_norms,
    block_products,
    chunked_max,
    frozen_array,
    hermitian_eigenvalues,
    piecewise_linear_lipschitz,
    piecewise_linear_values,
    random_positive_rows,
    random_self_adjoint_rows,
    row_chunks,
)
from .cdc import CdCForm, gamma_from_generator, is_cdc
from .errors import InputError, PropertyViolationError
from .reporting import judge, over_bound

@dataclass(frozen=True)
class EnergyForm:
    """The scalar form E(a, b) = tau(Gamma(a, b)), stored as a
    :func:`frozen_array` over the canonical basis; conjugate-linear in the first slot."""

    algebra: Algebra
    gram: np.ndarray

    def __post_init__(self):
        d = self.algebra.dim
        object.__setattr__(self, "gram", frozen_array(
            self.gram, (d, d), f"energy gram must be {d}x{d}"))

    @cached_property
    def gram_orthonormal(self) -> np.ndarray:
        """The same form over the orthonormal basis; this is exactly the
        matrix of the Laplace operator."""
        root = np.sqrt(self.algebra.basis_weights)
        return self.gram / np.outer(root, root)

    def value(self, a: Element, b: Element) -> complex:
        x = self.algebra.canonical_coords(a)
        y = self.algebra.canonical_coords(b)
        return complex(x.conj() @ self.gram @ y)

    def seminorm(self, a: Element) -> float:
        return float(np.sqrt(max(self.value(a, a).real, 0.0)))

    def real_residual(self) -> float:
        """Zero iff E(a*, b*) = E(b, a), i.e. the form is real."""
        adj = self.algebra.adj_table
        return float(np.abs(self.gram[np.ix_(adj, adj)] - self.gram.T).max())

    def is_real(self, tol=DEFAULT_EQ_TOL) -> bool:
        return self.real_residual() <= tol * (1.0 + float(np.abs(self.gram).max()))

    def magnitude(self) -> float:
        return float(np.abs(self.gram).max())


def energy_form(gamma: CdCForm, force=False, tol=DEFAULT_POS_TOL) -> EnergyForm:
    """E(a, b) = tau(Gamma(a, b)).  Refuses non-carre-du-champ input unless
    ``force`` is set (used only for deliberate counterexamples)."""
    if not force:
        is_cdc(gamma, tol=tol).require(
            "form fails the carre-du-champ axioms; pass force=True to override")
    return EnergyForm(gamma.algebra, gamma.tau_values)


@dataclass(frozen=True)
class Laplacian:
    """The positive operator with <a, L b> = E(a, b); its orthonormal-basis
    matrix must be Hermitian to within 1e-8 (1 + largest entry).  It is
    decomposed once, by the ``eigh`` of ``eigensystem``: ``eigenvalues`` and
    every function of L are read from it, real for a real matrix."""

    superop: SuperOperator
    rank_tol: float = DEFAULT_RANK_TOL
    _resolvents: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.matrix
        herm_gap = float(np.abs(m - m.conj().T).max())
        if herm_gap > 1e-8 * (1.0 + float(np.abs(m).max())):
            raise InputError(f"Laplacian matrix must be Hermitian (residual {herm_gap:.3e})")

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eigensystem[0]

    @property
    def kernel_dim(self) -> int:
        return self.algebra.dim - len(self.range_eigensystem[0])

    @property
    def algebra(self) -> Algebra:
        return self.superop.algebra

    @property
    def matrix(self) -> np.ndarray:
        return self.superop.matrix

    @cached_property
    def eigensystem(self):
        m = self.matrix
        return np.linalg.eigh((m + m.conj().T) / 2)

    @cached_property
    def range_eigensystem(self):
        """The eigenpairs above the rank cut rank_tol * max(1, top): the range of L."""
        w, v = self.eigensystem
        keep = w > self.rank_tol * max(1.0, float(w[-1]))
        return w[keep], v[:, keep]

    def function(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """The orthonormal-basis matrix V diag(f(w)) V* of f(L), or a stack of
        them when f(w) has leading axes."""
        w, v = self.eigensystem
        return (v * f(w)[..., None, :]) @ v.conj().T

    def resolvents(self, ts) -> np.ndarray:
        """The stack of (1 + tL)^(-1) over the times ``ts``, built once per tuple of times."""
        key = tuple(map(float, ts))
        if key not in self._resolvents:
            self._resolvents[key] = self.function(lambda w: 1 / (1 + np.array(key)[:, None] * w))
        return self._resolvents[key]

    def apply(self, a: Element) -> Element:
        return self.superop.apply(a)

    def natural(self) -> "Laplacian":
        """(L + L#)/2: preserves the involution, generates the heat
        semigroup, and has the same carre-du-champ."""
        return Laplacian(0.5 * (self.superop + self.superop.sharp()), self.rank_tol)


def laplacian(e: EnergyForm, rank_tol=DEFAULT_RANK_TOL) -> Laplacian:
    m = e.gram_orthonormal
    return Laplacian(SuperOperator(e.algebra, (m + m.conj().T) / 2), rank_tol)


def energy_form_of_laplacian(lap: Laplacian) -> EnergyForm:
    """The form E(a, b) = <a, L b>, expressed over the canonical basis."""
    root = np.sqrt(lap.algebra.basis_weights)
    return EnergyForm(lap.algebra, lap.matrix * np.outer(root, root))


def gamma_delta(lap: Laplacian, tol=DEFAULT_EQ_TOL) -> CdCForm:
    """The carre-du-champ of a Laplace operator, with the conventional factor
    of one half."""
    return gamma_from_generator(lap.superop, scale=0.5, tol=tol)


def connectedness(lap: Laplacian) -> bool:
    """True iff the near-null eigenspace is exactly the scalars."""
    if lap.kernel_dim != 1:
        return False
    one = lap.algebra.identity_coords
    res = np.linalg.norm(lap.matrix @ one)
    bound = max(lap.rank_tol, 1e-9) * max(1.0, float(np.abs(lap.matrix).max()))
    return bool(res <= bound * np.linalg.norm(one))


# -- seminorms at matrix amplification ---------------------------------------


def _quadratic_forms(gram: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """The real part of x* G x for every row x of coordinates, by ``row_chunks``;
    a chunk never splits a (rows, d) matrix, so each stays one GEMM."""
    stack = coords.reshape((-1,) + coords.shape[-2:]) if coords.ndim > 2 else coords[None]
    gram = gram.astype(np.result_type(gram, stack), copy=False)  # cast once, not per chunk
    out = np.empty(stack.shape[:-1])
    for rows in row_chunks(len(stack), stack[:1].size):
        t = stack[rows].conj() @ gram
        t *= stack[rows]
        out[rows] = t.sum(axis=-1).real
    return out.reshape(coords.shape[:-1])


def _seminorms(gram: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """sqrt(max(x* G x, 0)) for every row x of canonical coordinates."""
    return np.sqrt(np.maximum(_quadratic_forms(gram, coords), 0.0))


def _seeded_knots(rng: np.random.Generator, count: int):
    """Knot rows ``(xs, ys)``, each (count, 3), of seeded functions from one
    (count, 6) uniform draw on [-2, 2]: sorted xs, redrawn while two lie
    within 1e-3, then ys.  A rejected triple is cut from the draw and the
    generator tops it up, so this is the stream of one function at a time."""
    draw = rng.uniform(-2.0, 2.0, (count, 6))
    first = 0  # the rows before it are accepted
    while True:
        xs = np.sort(draw[:, :3], axis=1)
        bad = np.flatnonzero(np.diff(xs[first:], axis=1).min(axis=1) < 1e-3)
        if len(bad) == 0:
            return xs, draw[:, 3:]
        first += int(bad[0])
        flat = draw.reshape(-1)
        draw = np.concatenate([flat[:6 * first], flat[6 * first + 3:],
                               rng.uniform(-2.0, 2.0, 3)]).reshape(count, 6)


def _battery_tables(battery, rng: np.random.Generator, radius: np.ndarray) -> list:
    """``(names, xs, ys)`` knot tables (1 or samples, functions, K) in battery
    order: one shared table per function of a given battery, or the default
    battery as one table: relu, the reconstruction argument's clamp min(t, r)
    at each sample's spectral radius r, abs, and a seeded function each."""
    if battery is not None:
        return [([name], np.array([[fn.xs]]), np.array([[fn.ys]])) for name, fn in battery]
    seeded_xs, seeded_ys = _seeded_knots(rng, len(radius))
    level = radius[:, None]
    relu, absolute = PiecewiseLinear.relu(), PiecewiseLinear.absolute()
    xs = np.stack(np.broadcast_arrays(relu.xs, level + [-1.0, 0.0, 1.0], absolute.xs,
                                      seeded_xs), axis=1)
    ys = np.stack(np.broadcast_arrays(relu.ys, level + [-1.0, 0.0, 0.0], absolute.ys,
                                      seeded_ys), axis=1)
    return [(["relu", "clamp", "abs", "seeded-3pt"], xs, ys)]


def _extreme_positives(alg: Algebra, rng: np.random.Generator, rank_ones=2) -> np.ndarray:
    """Canonical coordinates of the diagonal matrix units and a few seeded
    rank-one projections: the extreme rays where violations concentrate."""
    diag, offs = alg.diagonal_units, alg._basis_offsets
    out = np.zeros((len(diag) + rank_ones, alg.dim), dtype=complex)
    out[np.arange(len(diag)), diag] = 1.0
    for row in out[len(diag):]:
        b = int(rng.integers(len(alg.blocks)))
        nb = alg.blocks[b]
        v = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
        row[offs[b]:offs[b + 1]] = (np.outer(v, v.conj()) / np.vdot(v, v)).reshape(-1)
    if len(out) > 8:
        out = out[np.sort(rng.choice(len(out), size=8, replace=False))]
    return out


def _markov_probes(lap: Laplacian, order: int, alg: Algebra,
                   rng: np.random.Generator, ts=(0.05, 0.5, 5.0)) -> np.ndarray:
    """Elements where Markov violations concentrate, as rows of canonical
    coordinates.

    Resolvent images of extreme positive elements: when the form is not
    completely Markov some of these acquire a negative part, and clipping it
    strictly increases the energy.  Small differences p - r q of extreme
    positives cover the same failure directly (the positive part restores p
    while the energy of the difference can dip below that of p).

    The resolvents (1 + tL)^(-1) are the stack ``lap.resolvents``, built once
    for every order, and act on every cell; each is amplified on its own.  A
    t with 1 + tw = 0 for an eigenvalue w is skipped.
    """
    root = np.sqrt(alg.basis_weights)
    extremes = _extreme_positives(alg, rng)
    ts = [t for t in ts if not np.any(1 + t * lap.eigensystem[0] == 0)]
    images = np.empty((len(ts), len(extremes), alg.dim), dtype=complex)
    for image, resolvent in zip(images, lap.resolvents(ts)):
        image[:] = (extremes * root) @ amplify_matrix(resolvent, lap.algebra, order).T / root
    images = images.reshape(-1, alg.dim)
    firsts = extremes[:4]
    i, j = np.triu_indices(len(firsts), 1)
    a, b, r = firsts[i, None], firsts[j, None], np.array([0.05, 0.25])[:, None]
    diffs = np.stack([a - r * b, b - r * a], axis=2).reshape(-1, alg.dim)
    return np.concatenate([0.5 * (images + images[:, alg.adj_table].conj()), diffs])


def markov_check(
    lap: Laplacian,
    orders: Sequence[int] = (1, 2),
    seed: int = 0,
    count: int = 20,
    tol: float = DEFAULT_EQ_TOL,
    elements: Optional[Sequence[Element]] = None,
    battery=None,
) -> list:
    """Verify L(F(a)) <= Lip(F)|hull sigma(a) * L(a), for the form of the
    Laplacian ``lap``, on a battery of piecewise-linear functions over seeded
    self-adjoint elements plus probes read from the resolvents of ``lap``, at
    the requested matrix amplifications.  Returns one result per order.

    At each order the samples are numbered in the order they are drawn: the
    given ``elements`` (order 1 only) or ``count`` seeded self-adjoint
    elements, then the probes.  The functions keep the battery's order
    (``relu``, ``clamp``, ``abs``, ``seeded-3pt`` for the default one).  A
    witness lists the first 10 violations as ``(element_index, function)``
    in sample-major order: every function of one sample before the next
    sample.

    Each battery is one draw: the samples are one
    :func:`random_self_adjoint_rows` call and the seeded functions one
    :func:`_seeded_knots` call, each the stream of one draw per element.
    All samples of an order are decomposed together (one batched ``eigh``
    per block size), the default battery is one (samples, 4, 3) knot table
    applied to the shared eigenvectors, and the seminorms are quadratic
    forms with the amplified gram, both a chunk of samples at a time.
    """
    e = energy_form_of_laplacian(lap)
    results = []
    for order in orders:
        rng = np.random.default_rng(seed + order)
        alg = e.algebra if order == 1 else e.algebra.amplify(order)
        if order == 1 and elements is not None:
            samples = np.reshape([alg.canonical_coords(a) for a in elements], (-1, alg.dim))
        else:
            samples = random_self_adjoint_rows(alg, rng, count)
        coords = np.concatenate([samples, _markov_probes(lap, order, alg, rng)])
        spectra = SpectralStack(alg, coords)
        tables = _battery_tables(battery, rng, np.maximum(-spectra.lo, spectra.hi))
        names = [name for table_names, _, _ in tables for name in table_names]
        lo, hi = spectra.lo[:, None], spectra.hi[:, None]
        lips = np.concatenate(
            [piecewise_linear_lipschitz(xs, ys, lo, hi) for _, xs, ys in tables], axis=1)
        images = spectra.apply(lambda w: np.concatenate(
            [piecewise_linear_values(xs, ys, w[:, None]) for _, xs, ys in tables], axis=1))
        gram = amplify_matrix(e.gram, e.algebra, order)
        lhs = _seminorms(gram, images)
        bound = lips * _seminorms(gram, coords)[:, None]
        violation = lhs - bound
        worst = float(violation.max(initial=0.0))
        violations = [{"element_index": int(idx), "function": names[f],
                       "lhs": float(lhs[idx, f]), "bound": float(bound[idx, f])}
                      for idx, f in zip(*np.nonzero(violation > tol))][:10]
        results.append(judge(f"markov-n{order}", worst, 1.0, tol,
                             {"order": order, "violations": violations} if violations else None))
    return results


def leibniz_check(
    e: EnergyForm,
    orders: Sequence[int] = (1, 2),
    seed: int = 0,
    count: int = 20,
    tol: float = DEFAULT_EQ_TOL,
    pairs: Optional[Sequence] = None,
) -> list:
    """Verify L(ab) <= L(a) |b| + |a| L(b) on seeded pairs.

    At each order the pairs are the given ``pairs`` (order 1 only) or
    ``count`` seeded pairs of self-adjoint elements, drawn a then b as the
    rows of one :func:`random_self_adjoint_rows` draw, which is the stream
    of one draw per element.  All pairs of an order are evaluated together:
    the products run one batched matmul per block size, and each side is
    one quadratic form with the amplified gram.  The witness is the first pair with the largest
    violation, when that is positive and exceeds ``tol``."""
    results = []
    for order in orders:
        rng = np.random.default_rng(seed + 17 * order)
        alg = e.algebra if order == 1 else e.algebra.amplify(order)
        if order == 1 and pairs is not None:
            rows = np.reshape([alg.canonical_coords(x) for a, b in pairs for x in (a, b)],
                              (-1, alg.dim))
        else:
            rows = random_self_adjoint_rows(alg, rng, 2 * count)
        a, b = rows[0::2], rows[1::2]
        gram = amplify_matrix(e.gram, e.algebra, order)
        lhs = _seminorms(gram, block_products(alg, a, b))
        bound = (_seminorms(gram, a) * block_norms(alg, b)
                 + block_norms(alg, a) * _seminorms(gram, b))
        violation = lhs - bound
        worst = float(violation.max(initial=0.0))
        witness = None
        if worst > max(tol, 0.0):
            idx = int(violation.argmax())
            witness = {"order": order, "pair_index": idx,
                       "lhs": float(lhs[idx]), "bound": float(bound[idx])}
        results.append(judge(f"leibniz-n{order}", worst, 1.0, tol, witness))
    return results


# -- trace symmetries ---------------------------------------------------------


def reality_checks(gamma: CdCForm, tol=DEFAULT_EQ_TOL) -> dict:
    """Trace symmetries of a form: tau-real on basis pairs, tau-balanced on
    basis triples.  Balanced implies real."""
    alg = gamma.algebra
    adj = alg.adj_table
    tg = gamma.tau_values
    scale = 1.0 + float(np.abs(tg).max())

    real_gap = np.abs(tg[np.ix_(adj, adj)] - tg.T)
    real_res = float(real_gap.max())

    # tau(Gamma(e_i e_j, e_k)) = tau(Gamma(e_k*, e_j*) e_i*) + tau(e_j* Gamma(e_i, e_k))
    # tau(G[p, q] e_m*) = tau(e_m* G[p, q]) = w_m G[p, q, m].  The gap [i, j, k]
    # goes by chunks of i as in is_cdc; G (-w) is -(G w) up to signed zeros
    g, w, d = gamma.gram, alg.basis_weights, alg.dim
    i, j, k = alg.mul_nonzero  # the left side is zero off the products e_i e_j = e_k
    starts = alg._triple_starts

    def balanced_gap(rows):  # held [i, k, j], read [i, j, k]
        gap = np.multiply(g[:, :, rows].transpose(2, 0, 1)[:, adj[:, None], adj],
                          -w[rows, None, None], order="C")  # -tau(G[k*, j*] e_i*)
        at = slice(starts[rows.start], starts[rows.stop])
        gap[i[at] - rows.start, :, j[at]] += tg[k[at]]
        gap -= g[rows] * w  # tau(e_j* G[i, k])
        return np.abs(gap).swapaxes(1, 2)
    # a row holds two slabs of the gram's dtype, counted in float64 entries so
    # that a complex gram's chunks stay inside the heap that is_cdc leaves
    bal_res, bal_at = chunked_max(balanced_gap, d, 2 * g[0].nbytes // 8)

    out = {
        "tau_real": real_res <= tol * scale,
        "tau_balanced": bal_res <= tol * scale,
        "real_residual": real_res,
        "balanced_residual": bal_res,
    }
    if not out["tau_real"]:
        out["real_witness"] = [int(x) for x in np.unravel_index(real_gap.argmax(), (d, d))]
    if not out["tau_balanced"]:
        out["balanced_witness"] = list(bal_at())
    return out


# -- semigroups and resolvents ------------------------------------------------


def heat_semigroup(lap: Laplacian, t: float) -> SuperOperator:
    """The semigroup element exp(-t L) by Hermitian eigendecomposition."""
    if t < 0:
        raise InputError("time must be nonnegative")
    return SuperOperator(lap.algebra, lap.function(lambda w: np.exp(-t * w)))


def heat_map(lap: Laplacian, t: float, tol=DEFAULT_POS_TOL):
    """:func:`heat_semigroup` at time ``t``, with the Choi residuals
    ``choi_min_eigenvalue`` and ``choi_skew_residual`` and, under ``checks``,
    the verdicts ``heat-unital-t<t>`` and ``heat-cp-t<t>``.

    Complete positivity is decided through the Choi matrix of the map
    composed with the trace conditional expectation of the full matrix
    algebra; the composition is completely positive exactly when the map is.
    That matrix is read from its blocks (:func:`_choi_blocks`), with one
    batched ``eigvalsh`` per pair of block sizes; on a network every block
    is 1x1, so this reads the signs of the entries.  The map is completely
    positive when the skew part is within ``tol`` times max(1, largest
    entry) and the least eigenvalue is at least ``-tol`` times max(1, top).
    """
    phi = heat_semigroup(lap, t)
    one = lap.algebra.identity()
    unital = judge(f"heat-unital-t{t:g}", phi.apply(one).distance(one), 1.0 + one.norm(), tol)
    cp, flags = _choi_flags(phi, tol, f"heat-cp-t{t:g}")
    return phi, {**flags, "checks": [unital, cp]}


def _choi_flags(phi: SuperOperator, tol: float, check: str):
    """The complete-positivity verdict ``check`` of :func:`heat_map` for any
    map, and its residuals.  The verdict reports the skew part when that
    fails, else the negative part of the least eigenvalue."""
    blocks = _choi_blocks(phi)
    # a completely positive map is Hermiticity-preserving, so a skew part of
    # the Choi matrix already refutes it; never hide it by symmetrizing
    skew = max(float(np.abs(c - c.conj().swapaxes(1, 2)).max()) for c in blocks)
    eigs = [np.linalg.eigvalsh((c + c.conj().swapaxes(1, 2)) / 2) for c in blocks]
    min_eig = min(float(e[:, 0].min()) for e in eigs)
    top = max(float(e[:, -1].max()) for e in eigs)
    cp = judge(check, skew, max(1.0, max(float(np.abs(c).max()) for c in blocks)), tol)
    if cp.passed:
        cp = judge(check, max(0.0, -min_eig), max(1.0, top), tol)
    return cp, {"choi_min_eigenvalue": min_eig, "choi_skew_residual": skew}


def _choi_blocks(phi: SuperOperator) -> list:
    """The Choi matrix sum_ab E_ab (x) phi(pinch(E_ab)) of the map composed
    with the conditional expectation of the full matrix algebra, as one
    stack per pair of block sizes (n, m) from ``size_groups``:
    [(b, b'), (p, s), (q, u)] = M[j, i], M = ``phi.canonical_matrix``, for
    the unit i at (p, q) of a block b of size n and the unit j at (s, u) of
    a block b' of size m.  pinch(E_ab) is the unit i when (a, b) is its
    entry, else zero, so the entry M[j, i] of the Choi matrix sits at row
    (r_i, r_j) and column (c_i, c_j): a direct sum over the pairs of blocks,
    d^2 entries in all, not n^4."""
    m = phi.canonical_matrix
    groups = phi.algebra.size_groups
    return [m[cols_m[None, :, :, None], cols_n[:, None, None, :]]
            .reshape(len(cols_n), len(cols_m), size_m, size_m, size_n, size_n)
            .transpose(0, 1, 4, 2, 5, 3)
            .reshape(-1, size_n * size_m, size_n * size_m)
            for size_n, cols_n in groups for size_m, cols_m in groups]


def resolvent_check(
    lap: Laplacian,
    ts: Sequence[float],
    orders: Sequence[int] = (1, 2),
    seed: int = 0,
    count: int = 5,
    tol: float = DEFAULT_POS_TOL,
) -> list:
    """For R_t = (I + t L)^(-1): positivity on positive elements, contraction
    in the C*-norm on positives, and R_t(1) = 1, at the requested matrix
    amplifications.

    Each time t gives one unit entry |R_t(1) - 1|, bounded by ``tol``, and
    one entry per seeded positive sample a: the larger of the negative part
    of R_t(a) and its norm growth |R_t(a)| - |a|, bounded by
    ``tol * (1 + |a|)``.  An order fails iff some entry exceeds its bound.
    The witness is the exceeding entry with the largest value, the first in
    t-major order (the unit entry before the samples) on ties; the residual
    is the largest entry.  R_t comes from the eigendecomposition of L; at
    order n it is R_t on every cell, since (I + t I (x) L)^(-1) = I (x) R_t."""
    if len(ts) == 0 or any(t < 0 for t in ts):
        raise InputError("resolvent times must be a nonempty list of nonnegative numbers")
    resolvents = lap.resolvents(ts)
    results = []
    for order in orders:
        alg = lap.algebra if order == 1 else lap.algebra.amplify(order)
        rng = np.random.default_rng(seed + 101 * order)
        # orthonormal coordinates of the positive samples, then the identity
        root = np.sqrt(alg.basis_weights)
        rows = np.concatenate([root * random_positive_rows(alg, rng, count),
                               alg.identity_coords[None]])
        images = np.empty((len(ts), len(rows), alg.dim), dtype=complex)
        for image, resolvent in zip(images, resolvents):  # one time t at a time
            image[:] = rows @ amplify_matrix(resolvent, lap.algebra, order).T / root
        unit = block_norms(alg, images[:, count] - alg.identity_coords / root)
        ra = images[:, :count]
        herm = (ra + ra[..., alg.adj_table].conj()) / 2
        low = hermitian_eigenvalues(alg, herm).min(axis=-1)
        neg = np.maximum(np.maximum(0.0, -low), block_norms(alg, ra - herm))
        size = block_norms(alg, rows[:count] / root)
        growth = block_norms(alg, ra) - size
        entries = np.concatenate([unit[:, None], np.maximum(neg, growth)], axis=1)
        scales = np.concatenate([[1.0], 1.0 + size])
        over = over_bound(entries, scales, tol)
        witness = None
        if over.any():
            ti, col = np.unravel_index(np.where(over, entries, -np.inf).argmax(), over.shape)
            witness = {"order": order, "t": float(ts[ti]), "kind": "unit"}
            if col > 0:
                idx = col - 1
                witness["kind"] = ("positivity" if neg[ti, idx] >= growth[ti, idx]
                                   else "contraction")
                witness["element_index"] = int(idx)
        results.append(judge(f"resolvent-n{order}", entries, scales, tol, witness))
    return results


# -- reconstruction -----------------------------------------------------------


def _require_dirichlet(e: EnergyForm, lap: Laplacian, tol: float, markov: Callable[[], list]):
    """Raise unless the form is real, Hermitian and completely positive (by
    the spectrum of its Laplacian ``lap``), and then passes the Markov
    results ``markov()``; these are asked for only once the others hold."""
    scale = 1.0 + e.magnitude()
    m = e.gram_orthonormal
    checks = [judge("reality", e.real_residual(), scale, tol),
              judge("hermitian", np.abs(m - m.conj().T).max(), scale, tol)]
    if checks[1].passed:
        eigs = lap.eigenvalues
        checks.append(judge("complete-positivity", -eigs[0], max(1.0, float(eigs[-1])), tol,
                            {"min_eigenvalue": float(eigs[0])}))
    failures = [c for c in checks if not c.passed]
    if not failures:
        failures = [r for r in markov() if not r.passed]
    if failures:
        raise PropertyViolationError(
            "form is not a real completely Markov Dirichlet form", failures
        )


def cdc_from_dirichlet_form(
    e: EnergyForm,
    lap: Laplacian,
    checks: bool = True,
    seed: int = 0,
    tol: float = DEFAULT_EQ_TOL,
) -> CdCForm:
    """Rebuild a carre-du-champ from a real, completely positive, completely
    Markov form ``e`` with Laplacian ``lap``: apply the half-scaled generator
    construction to the Laplace operator, then confirm the trace pairing
    reproduces the form."""
    if checks:
        _require_dirichlet(e, lap, tol, lambda: markov_check(lap, seed=seed, tol=tol))
    gamma = gamma_delta(lap)
    pairing = judge("trace-pairing", np.abs(gamma.tau_values - e.gram).max(),
                    1.0 + e.magnitude(), max(tol, 1e-9))
    if not pairing.passed:
        raise PropertyViolationError(
            "reconstructed form does not reproduce the energy form", [pairing])
    is_cdc(gamma).require("reconstructed form fails the carre-du-champ axioms")
    return gamma
