"""Finite-dimensional C*-algebras as direct sums of full complex matrix blocks.

An algebra is given by block sizes ``[n_1, ..., n_k]`` and strictly positive
trace weights ``[w_1, ..., w_k]``.  Elements are block-diagonal matrices,
held as one complex vector of canonical coordinates; the faithful trace is
``tau(a) = sum_i w_i * tr(a_i)``.  Per-block work (products, norms,
spectra) runs as one batched call per block size over ``block_stacks``.

Two bases are used throughout:

* the canonical basis of matrix units ``e^(i)_{jk}``, enumerated block-major
  then row-major;
* the L2-orthonormal basis ``e^(i)_{jk} / sqrt(w_i)``, orthonormal for the
  inner product ``<a, b> = tau(a* b)``.

Linear maps on the algebra (:class:`SuperOperator`) are stored as matrices in
the orthonormal basis and are assembled from the structure constants
(``mul_table`` / ``mul_nonzero``, ``adj_table`` and the trace weights) by
index formulas.  The involution is conjugate-linear, so it is never a matrix
itself; in coordinates it is the ``adj_table`` permutation followed by
complex conjugation.  The tests keep the elementwise rule, which applies a
map to each basis element, as an independent reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby
from typing import Callable

import numpy as np

from .errors import InputError

DEFAULT_POS_TOL = 1e-9
DEFAULT_RANK_TOL = 1e-10
DEFAULT_EQ_TOL = 1e-9
_ROW_CHUNK = 2 ** 12  # entries of one chunk of rows: SpectralStack.apply, _quadratic_forms
_GAP_CHUNK = 2 ** 16  # entries of one chunk of a gap: magnitude, is_cdc, reality_checks
_FRAME_CHUNK = 2 ** 13  # entries of one chunk of the moved frame of build_bimodule


def is_integer(x) -> bool:
    """Whether ``x`` is an integer and not a bool: no index, block size, node
    or seed is coerced from 0.9, 1.0 or True."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def row_chunks(count: int, row_entries: int, budget=None) -> list:
    """Slices of ``count`` rows of ``row_entries`` entries each, at most
    ``budget`` (``_ROW_CHUNK``) entries at a time, or one row when it is larger."""
    step = max(1, (budget or _ROW_CHUNK) // max(1, row_entries))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def chunked_max(form: Callable, count: int, row_entries: int) -> tuple:
    """The largest entry of a gap over ``count`` leading rows that ``form(rows)``
    builds for a slice of them, ``_GAP_CHUNK`` entries (or one row) at a time,
    and a function that forms the chunk holding it again and returns the
    index of its first maximal entry in C order."""
    chunks = row_chunks(count, row_entries, _GAP_CHUNK)
    maxima = np.array([form(rows).max() for rows in chunks])

    def first():
        rows = chunks[int(maxima.argmax())]
        gap = form(rows)
        at = np.unravel_index(gap.argmax(), gap.shape)
        return (rows.start + int(at[0]),) + tuple(int(x) for x in at[1:])
    return float(maxima.max()), first


@dataclass(frozen=True)
class Algebra:
    """A direct sum of full matrix blocks with a faithful weighted trace."""

    blocks: tuple
    trace_weights: tuple

    def __post_init__(self):
        problems = []
        blocks = tuple(self.blocks)
        weights = tuple(self.trace_weights)
        if not blocks:
            problems.append("blocks must be a nonempty list")
        if len(blocks) != len(weights):
            problems.append(
                f"blocks has length {len(blocks)} but trace_weights has length {len(weights)}"
            )
        # nothing is coerced: 1.5, true and "1" are no block size, "2" no weight
        problems.extend(
            f"block {i} must be an integer >= 1, got {n!r}" for i, n in enumerate(blocks)
            if not (is_integer(n) and n >= 1)
        )
        problems.extend(
            f"trace weight {i} must be a finite number > 0, got {w!r}"
            for i, w in enumerate(weights)
            if not (isinstance(w, (int, float, np.integer, np.floating))
                    and not isinstance(w, bool) and 0 < w < np.inf)
        )
        if problems:
            raise InputError("invalid algebra", problems)
        object.__setattr__(self, "blocks", tuple(int(n) for n in blocks))
        object.__setattr__(self, "trace_weights", tuple(float(w) for w in weights))

    # -- derived structure -------------------------------------------------

    @cached_property
    def dim(self):
        """Complex dimension d = sum of n_i^2."""
        return int(sum(n * n for n in self.blocks))

    @cached_property
    def total_size(self):
        """Size of the block-diagonal embedding, n = sum of n_i."""
        return int(sum(self.blocks))

    @cached_property
    def _basis_offsets(self):
        offs = np.zeros(len(self.blocks) + 1, dtype=int)
        np.cumsum([n * n for n in self.blocks], out=offs[1:])
        return offs

    @cached_property
    def _space_offsets(self):
        offs = np.zeros(len(self.blocks) + 1, dtype=int)
        np.cumsum(self.blocks, out=offs[1:])
        return offs

    @cached_property
    def is_commutative(self):
        return all(n == 1 for n in self.blocks)

    @cached_property
    def basis_weights(self):
        """Trace weight of the block owning each canonical basis index."""
        return np.repeat(np.asarray(self.trace_weights), [n * n for n in self.blocks])

    @cached_property
    def coord_weights(self):
        """Trace weight of the block owning each embedded-matrix row."""
        return np.repeat(np.asarray(self.trace_weights), self.blocks)

    @cached_property
    def unit_positions(self):
        """``(rows, cols)``: the entry of the block-diagonal embedding that
        each canonical unit occupies."""
        sizes = np.asarray(self.blocks)
        owner = np.repeat(np.arange(len(sizes)), sizes * sizes)
        r, s = np.divmod(np.arange(self.dim) - self._basis_offsets[owner], sizes[owner])
        return self._space_offsets[owner] + r, self._space_offsets[owner] + s

    @cached_property
    def _unit_at(self):
        """Canonical index of the unit at each entry of the embedding, -1
        off the blocks."""
        at = np.full((self.total_size, self.total_size), -1, dtype=int)
        at[self.unit_positions] = np.arange(self.dim)
        return at

    @cached_property
    def mul_table(self):
        """mul_table[i, j] = canonical index of e_i e_j, or -1 when zero:
        units at (r, s) and (s, c) multiply to the unit at (r, c)."""
        rows, cols = self.unit_positions
        meet = cols[:, None] == rows[None, :]
        return np.where(meet, self._unit_at[rows[:, None], cols[None, :]], -1)

    @cached_property
    def mul_nonzero(self):
        """Index arrays ``(i, j, k)`` listing every nonzero product
        e_i e_j = e_k of ``mul_table``."""
        i, j = np.nonzero(self.mul_table >= 0)
        return i, j, self.mul_table[i, j]

    @cached_property
    def _triple_starts(self):
        """The triples of ``mul_nonzero`` whose first unit is e_a are those
        from ``_triple_starts[a]`` to ``_triple_starts[a + 1]``."""
        return np.searchsorted(self.mul_nonzero[0], np.arange(self.dim + 1))

    @cached_property
    def adj_table(self):
        """adj_table[i] = canonical index of (e_i)*, the unit at the
        transposed entry."""
        rows, cols = self.unit_positions
        return self._unit_at[cols, rows]

    @cached_property
    def diagonal_units(self):
        """Canonical indices of the diagonal units e^(i)_{rr}, block-major."""
        rows, cols = self.unit_positions
        return np.flatnonzero(rows == cols)

    def embed(self, coords) -> np.ndarray:
        """Block-diagonal embeddings, shape (..., n, n), of the elements with
        canonical coordinates ``coords`` of shape (..., d)."""
        coords = np.asarray(coords)
        n = self.total_size
        out = np.zeros(coords.shape[:-1] + (n, n), dtype=complex)
        out[(...,) + self.unit_positions] = coords
        return out

    @cached_property
    def embedded_basis(self):
        """Array of shape (d, n, n): each canonical unit as a full matrix."""
        out = self.embed(np.eye(self.dim))
        out.setflags(write=False)
        return out

    @cached_property
    def size_groups(self):
        """Blocks grouped by size: one ``(n, cols)`` per distinct size n, with
        ``cols`` of shape (k, n*n) holding the canonical indices of the k
        blocks of that size, row-major within each block."""
        groups = []
        for n in sorted(set(self.blocks)):
            owned = [b for b, nb in enumerate(self.blocks) if nb == n]
            groups.append((n, self._basis_offsets[owned][:, None] + np.arange(n * n)))
        return tuple(groups)

    @cached_property
    def _block_runs(self):
        """``(n, units, lines)`` for each run of adjacent blocks of one size
        n: the slices of their canonical units and of their rows (and
        columns) in the embedding."""
        runs, b = [], 0
        for n, run in groupby(self.blocks):
            e = b + len(list(run))
            runs.append((n, slice(self._basis_offsets[b], self._basis_offsets[e]),
                         slice(self._space_offsets[b], self._space_offsets[e])))
            b = e
        return tuple(runs)

    @cached_property
    def _draw_index(self):
        """``(re, im)``: the places of each coordinate's real and imaginary part
        in one draw that lists each block's real, then imaginary parts."""
        sizes = [n * n for n in self.blocks]
        re = np.arange(self.dim) + np.repeat(self._basis_offsets[:-1], sizes)
        return re, re + np.repeat(sizes, sizes)

    @cached_property
    def identity_coords(self):
        """Orthonormal coordinates of the identity element."""
        return self.to_coords(self.identity())

    # -- element construction ----------------------------------------------

    def element(self, data) -> "Element":
        return Element(self, data)

    def zero(self) -> "Element":
        return _element(self, np.zeros(self.dim, dtype=complex))

    def identity(self) -> "Element":
        coords = np.zeros(self.dim, dtype=complex)
        coords[self.diagonal_units] = 1.0
        return _element(self, coords)

    def basis_element(self, index) -> "Element":
        if not (is_integer(index) and 0 <= index < self.dim):
            raise InputError(f"basis index must be an integer in [0, {self.dim}), got {index!r}")
        coords = np.zeros(self.dim, dtype=complex)
        coords[index] = 1.0
        return _element(self, coords)

    def pinch(self, matrix) -> "Element":
        """Orthogonal projection of a full matrix onto the embedded algebra
        (keep the diagonal blocks, drop everything else): the trace-compatible
        conditional expectation from M_n, the orthogonal projection for the
        (normalized) trace inner product."""
        matrix = np.asarray(matrix, dtype=complex)
        n = self.total_size
        if matrix.shape != (n, n):
            raise InputError(f"expected a {n}x{n} matrix, got {matrix.shape}")
        return _element(self, matrix[self.unit_positions])

    # -- coordinates ---------------------------------------------------------

    def to_coords(self, a: "Element") -> np.ndarray:
        """Coordinates in the orthonormal basis e_i / sqrt(w)."""
        self._own(a)
        return np.sqrt(self.basis_weights) * a.coords

    def from_coords(self, coords) -> "Element":
        return _element(self, self._checked(coords) / np.sqrt(self.basis_weights))

    def canonical_coords(self, a: "Element") -> np.ndarray:
        """Coefficients over the matrix units themselves (no weight scaling)."""
        self._own(a)
        return a.coords

    def from_canonical_coords(self, coords) -> "Element":
        return _element(self, np.array(self._checked(coords)))

    def _checked(self, coords) -> np.ndarray:
        coords = np.asarray(coords, dtype=complex)
        if coords.shape != (self.dim,):
            raise InputError(f"expected {self.dim} coordinates, got {coords.shape}")
        return coords

    def tau(self, a: "Element") -> complex:
        self._own(a)
        return complex(self.coord_weights @ a.coords[self.diagonal_units])

    def amplify(self, n: int) -> "Algebra":
        """The algebra of n x n matrices over this one (blocks scale by n,
        weights are unchanged: the matrix factor carries its unnormalized
        trace); at n = 1, this algebra itself."""
        if not (is_integer(n) and n >= 1):
            raise InputError(f"amplification order must be an integer >= 1, got {n!r}")
        return self if n == 1 else Algebra(tuple(n * nb for nb in self.blocks),
                                           self.trace_weights)

    def _own(self, a: "Element"):
        if a.algebra is not self and (
            a.algebra.blocks != self.blocks
            or a.algebra.trace_weights != self.trace_weights
        ):
            raise InputError("element does not belong to this algebra")


def build_algebra(blocks, trace_weights) -> Algebra:
    """Construct an :class:`Algebra`, validating sizes and weights."""
    return Algebra(tuple(blocks), tuple(trace_weights))


class Element:
    """A block-diagonal element of a finite-dimensional C*-algebra, held as
    its canonical coordinates: ``coords`` is one read-only complex vector of
    length d over the matrix units.

    ``Element(algebra, blocks)`` builds one from its per-block matrices, and
    ``data`` gives them back as read-only views of ``coords``.  Immutable
    after construction; all arithmetic returns new elements.
    """

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: Algebra, data):
        if len(data) != len(algebra.blocks):
            raise InputError(
                f"expected {len(algebra.blocks)} blocks, got {len(data)}"
            )
        parts = []
        for k, n in enumerate(algebra.blocks):
            m = np.asarray(data[k], dtype=complex)
            if m.shape != (n, n):
                raise InputError(f"block {k} must have shape ({n}, {n}), got {m.shape}")
            parts.append(m.reshape(-1))
        coords = np.concatenate(parts)
        coords.setflags(write=False)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    @property
    def data(self) -> tuple:
        """The per-block matrices, as read-only views of ``coords``."""
        offs = self.algebra._basis_offsets
        return tuple(self.coords[offs[b]:offs[b + 1]].reshape(n, n)
                     for b, n in enumerate(self.algebra.blocks))

    def _match(self, other: "Element"):
        self.algebra._own(other)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        self._match(other)
        return _element(self.algebra, self.coords + other.coords)

    def __sub__(self, other):
        self._match(other)
        return _element(self.algebra, self.coords - other.coords)

    def __neg__(self):
        return _element(self.algebra, -self.coords)

    def __mul__(self, other):
        if isinstance(other, Element):
            self._match(other)
            return _element(self.algebra, block_products(self.algebra, self.coords, other.coords))
        return _element(self.algebra, complex(other) * self.coords)

    def __rmul__(self, scalar):
        return _element(self.algebra, complex(scalar) * self.coords)

    def adjoint(self) -> "Element":
        return _element(self.algebra, self.coords[self.algebra.adj_table].conj())

    def trace(self) -> complex:
        return self.algebra.tau(self)

    def norm(self) -> float:
        """C*-norm: the largest singular value over the blocks."""
        return float(block_norms(self.algebra, self.coords))

    def full(self) -> np.ndarray:
        """The block-diagonal embedding into M_n, n = sum of block sizes."""
        return self.algebra.embed(self.coords)

    def is_self_adjoint(self, tol=DEFAULT_POS_TOL) -> bool:
        return bool(self_adjoint_rows(self.algebra, self.coords[None], tol)[0])

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues over all blocks, grouped by block size as in
        ``size_groups`` (Hermitian solver when self-adjoint)."""
        if self.is_self_adjoint():
            return hermitian_eigenvalues(self.algebra, self.coords)
        return np.concatenate([np.linalg.eigvals(m).reshape(-1)
                               for m in block_stacks(self.algebra, self.coords)])

    def distance(self, other: "Element") -> float:
        return (self - other).norm()

    def __repr__(self):
        return f"Element(blocks={self.algebra.blocks})"


def _element(algebra: Algebra, coords: np.ndarray) -> Element:
    """The element over canonical coordinates ``coords`` of shape (d,), an
    array that no one else holds."""
    out = object.__new__(Element)
    coords.setflags(write=False)
    object.__setattr__(out, "algebra", algebra)
    object.__setattr__(out, "coords", coords)
    return out


# -- scalar-valued operations ---------------------------------------------


def tau_inner(a: Element, b: Element) -> complex:
    """The L2 inner product tau(a* b), conjugate-linear in ``a``."""
    a._match(b)
    return complex(np.vdot(a.coords, a.algebra.basis_weights * b.coords))


def is_positive(a: Element, tol=DEFAULT_POS_TOL) -> bool:
    """Self-adjoint within tolerance and spectrum >= -tol*(1+|a|)."""
    slack = tol * (1.0 + a.norm())
    return a.is_self_adjoint(tol) and bool(
        hermitian_eigenvalues(a.algebra, a.coords).min() >= -slack)


def central_scalars(a: Element, tol: float):
    """``(lams, off)`` for an element read as central (a blockwise scalar):
    ``lams[b]`` is the mean diagonal entry of block b, and ``off[b]`` flags
    a block that differs from lams[b] times its identity by more than
    tol * (1 + |lams[b]|) in some entry."""
    alg = a.algebra
    lams = (np.add.reduceat(a.coords[alg.diagonal_units], alg._space_offsets[:-1])
            / np.asarray(alg.blocks))
    scalar = np.zeros(alg.dim, dtype=complex)
    scalar[alg.diagonal_units] = np.repeat(lams, alg.blocks)
    gap = np.maximum.reduceat(np.abs(a.coords - scalar), alg._basis_offsets[:-1])
    return lams, gap > tol * (1.0 + np.abs(lams))


@dataclass(frozen=True)
class PiecewiseLinear:
    """A real piecewise-linear function given by knots; linear extrapolation
    beyond the end knots keeps the outermost slopes."""

    xs: tuple
    ys: tuple

    def __post_init__(self):
        xs = tuple(float(x) for x in self.xs)
        ys = tuple(float(y) for y in self.ys)
        if len(xs) < 2 or len(xs) != len(ys):
            raise InputError("need matching knot lists of length >= 2")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise InputError("knots must be strictly increasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = piecewise_linear_values(np.asarray(self.xs), np.asarray(self.ys), t.reshape(-1))
        return out.reshape(t.shape)

    def lipschitz_on(self, lo: float, hi: float) -> float:
        """Largest slope magnitude over segments meeting [lo, hi] (with a tiny
        relative pad so boundary knots are never missed)."""
        if hi < lo:
            lo, hi = hi, lo
        return float(piecewise_linear_lipschitz(np.asarray(self.xs), np.asarray(self.ys), lo, hi))

    # common battery members

    @classmethod
    def relu(cls):
        """max(t, 0)"""
        return cls((-1.0, 0.0, 1.0), (0.0, 0.0, 1.0))

    @classmethod
    def absolute(cls):
        """|t|"""
        return cls((-1.0, 0.0, 1.0), (1.0, 0.0, 1.0))


def _knot_slopes(xs, ys):
    return (ys[..., 1:] - ys[..., :-1]) / (xs[..., 1:] - xs[..., :-1])


def piecewise_linear_values(xs, ys, t):
    """Values of piecewise-linear functions given by knot rows ``xs``, ``ys``
    of shape (..., K) at points ``t`` of shape (..., M); the batch axes
    broadcast.  Each point is taken from the last knot at or left of it (the
    first knot for points left of all knots) along that knot's segment, so
    beyond the end knots the outermost slopes continue."""
    batch = np.broadcast_shapes(xs.shape[:-1], ys.shape[:-1], t.shape[:-1])
    xs = np.broadcast_to(xs, batch + xs.shape[-1:])
    ys = np.broadcast_to(ys, batch + ys.shape[-1:])
    t = np.broadcast_to(t, batch + t.shape[-1:])
    anchor = np.maximum((xs[..., None, :] <= t[..., None]).sum(axis=-1) - 1, 0)
    segment = np.minimum(anchor, xs.shape[-1] - 2)
    slope = np.take_along_axis(_knot_slopes(xs, ys), segment, axis=-1)
    return (np.take_along_axis(ys, anchor, axis=-1)
            + slope * (t - np.take_along_axis(xs, anchor, axis=-1)))


def piecewise_linear_lipschitz(xs, ys, lo, hi):
    """Largest slope magnitude of each knot row over the segments meeting
    [lo, hi], padded by 1e-9 (1 + |lo| + |hi|); ``lo`` <= ``hi`` broadcast
    against the batch axes of ``xs``."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    pad = 1e-9 * (1.0 + np.abs(lo) + np.abs(hi))
    lo, hi = (lo - pad)[..., None], (hi + pad)[..., None]
    inf = np.full(xs.shape[:-1] + (1,), np.inf)
    seg_lo = np.concatenate([-inf, xs[..., 1:-1]], axis=-1)
    seg_hi = np.concatenate([xs[..., 1:-1], inf], axis=-1)
    meets = np.maximum(seg_lo, lo) < np.minimum(seg_hi, hi)
    return np.where(meets, np.abs(_knot_slopes(xs, ys)), 0.0).max(axis=-1)


def block_stacks(algebra: Algebra, coords) -> list:
    """Canonical coordinates of shape (..., d) as one (..., k, n, n) stack of
    the k blocks of each size n, in ``size_groups`` order."""
    coords = np.asarray(coords)
    lead = coords.shape[:-1]
    return [coords[..., cols].reshape(lead + (len(cols), n, n))
            for n, cols in algebra.size_groups]


def block_norms(algebra: Algebra, coords) -> np.ndarray:
    """C*-norm of each element given by canonical coordinates of shape
    (..., d), as :meth:`Element.norm`: the largest singular value over its
    blocks, with one batched call per block size (``abs`` for 1x1 blocks)."""
    return np.max([(np.abs(m[..., 0, 0]) if m.shape[-1] == 1
                    else np.linalg.svd(m, compute_uv=False)[..., 0]).max(axis=-1)
                   for m in block_stacks(algebra, coords)], axis=0)


def block_products(algebra: Algebra, x, y) -> np.ndarray:
    """Canonical coordinates of the products of the elements with canonical
    coordinates ``x`` and ``y`` (leading axes broadcast): one batched matmul
    per block size."""
    x, y = np.asarray(x), np.asarray(y)
    lead = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
    out = np.empty(lead + (algebra.dim,), dtype=complex)
    for (_, cols), a, b in zip(algebra.size_groups, block_stacks(algebra, x),
                               block_stacks(algebra, y)):
        out[..., cols.reshape(-1)] = (a @ b).reshape(lead + (-1,))
    return out


def self_adjoint_rows(algebra: Algebra, coords, tol: float) -> np.ndarray:
    """For each row of canonical coordinates (rows, d), whether
    |a - a*| <= tol * (1 + |a|).  Exactly Hermitian rows need no norms."""
    skew = coords - coords[:, algebra.adj_table].conj()
    ok = ~skew.any(axis=1)
    rough = ~ok
    if rough.any():
        ok[rough] = (block_norms(algebra, skew[rough])
                     <= tol * (1.0 + block_norms(algebra, coords[rough])))
    return ok


def hermitian_eigenvalues(algebra: Algebra, coords) -> np.ndarray:
    """Eigenvalues of the Hermitian parts (a + a*)/2 of the elements with
    canonical coordinates (..., d): shape (..., n), each block ascending,
    the blocks grouped by size as in ``size_groups``; 1x1 blocks by their real parts."""
    lead = np.shape(coords)[:-1]
    return np.concatenate(
        [(m[..., 0].real if m.shape[-1] == 1
          else np.linalg.eigvalsh((m + m.conj().swapaxes(-1, -2)) / 2)).reshape(lead + (-1,))
         for m in block_stacks(algebra, coords)], axis=-1)


class SpectralStack:
    """Hermitian eigendecompositions of many self-adjoint elements at once.

    ``coords`` holds one element per row in canonical coordinates.  Blocks
    of equal size are stacked, so each block size costs one batched
    ``eigh`` (1x1 blocks need none: their eigenvectors are ``None``).  Every
    row must be self-adjoint within ``tol * (1 + |a|)``, as for :func:`functional_calculus`.
    """

    def __init__(self, algebra: Algebra, coords, tol=DEFAULT_POS_TOL):
        coords = np.asarray(coords, dtype=complex)
        if not self_adjoint_rows(algebra, coords, tol).all():
            raise InputError("spectral calculus requires a self-adjoint element")
        self.algebra = algebra
        self.groups = []
        for (_, cols), m in zip(algebra.size_groups, block_stacks(algebra, coords)):
            w, v = ((m[..., 0].real, None) if m.shape[-1] == 1
                    else np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2))
            self.groups.append((cols, w, v))
        self.lo = np.min([w.min(axis=(1, 2)) for _, w, _ in self.groups], axis=0)
        self.hi = np.max([w.max(axis=(1, 2)) for _, w, _ in self.groups], axis=0)

    def apply(self, fn) -> np.ndarray:
        """Canonical coordinates of F(a) = V diag(F(w)) V* for every row and
        every function.  ``fn`` maps eigenvalues of shape (rows, m) to
        values of shape (rows, functions, m); the result has shape
        (rows, functions, d).  1x1 blocks take F(w) itself.  Larger ones go
        about ``_ROW_CHUNK`` entries of rows at a time, straight into the
        result; each row's block is one product of every function's rows."""
        out = None
        for cols, w, v in self.groups:
            count, k, n = w.shape
            values = np.asarray(fn(w.reshape(count, k * n)))
            width = values.shape[1]
            if out is None:
                out = np.empty((count, width, self.algebra.dim), dtype=complex)
            if v is None:
                out[:, :, cols.reshape(-1)] = values
                continue
            for at in row_chunks(count, k * width * n * n):
                parts = values[at].reshape(-1, width, k, 1, n).swapaxes(1, 2)
                rows = (v[at, :, None] * parts).reshape(-1, k, width * n, n)
                mats = (rows @ v[at].conj().swapaxes(-1, -2)).reshape(-1, k, width, n * n)
                out[at, :, cols.reshape(-1)] = mats.swapaxes(1, 2).reshape(-1, width, k * n * n)
        return out


def functional_calculus(a: Element, fn: PiecewiseLinear, tol=DEFAULT_POS_TOL):
    """Apply a piecewise-linear real function to a self-adjoint element.

    Returns ``(fn(a), lip)`` where ``lip`` is the Lipschitz constant of ``fn``
    restricted to the convex hull of the spectrum of ``a``.
    """
    spectra = SpectralStack(a.algebra, a.coords[None], tol)
    coords = spectra.apply(lambda w: fn(w)[:, None])[0, 0]
    lip = fn.lipschitz_on(float(spectra.lo[0]), float(spectra.hi[0]))
    return _element(a.algebra, coords), lip


# -- superoperators ---------------------------------------------------------


def frozen_array(data, shape: tuple, requirement: str) -> np.ndarray:
    """A read-only copy of ``data`` of dtype ``result_type(data, float)``; raises
    ``requirement``, with the shape found, unless the copy has ``shape``."""
    out = np.array(data, dtype=np.result_type(np.asarray(data), float))
    if out.shape != shape:
        raise InputError(f"{requirement}, got {out.shape}")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SuperOperator:
    """A C-linear map on the algebra, stored as a :func:`frozen_array`
    matrix in the orthonormal L2 basis."""

    algebra: Algebra
    matrix: np.ndarray

    def __post_init__(self):
        d = self.algebra.dim
        object.__setattr__(self, "matrix", frozen_array(
            self.matrix, (d, d), f"superoperator matrix must be {d}x{d}"))

    def apply(self, a: Element) -> Element:
        self.algebra._own(a)
        return self.algebra.from_coords(self.matrix @ self.algebra.to_coords(a))

    @property
    def canonical_matrix(self) -> np.ndarray:
        """The same map over the canonical basis: column i holds the
        canonical coordinates of N(e_i)."""
        root = np.sqrt(self.algebra.basis_weights)
        return self.matrix * root[None, :] / root[:, None]

    def compose(self, other: "SuperOperator") -> "SuperOperator":
        return SuperOperator(self.algebra, self.matrix @ other.matrix)

    def __add__(self, other: "SuperOperator") -> "SuperOperator":
        return SuperOperator(self.algebra, self.matrix + other.matrix)

    def __sub__(self, other: "SuperOperator") -> "SuperOperator":
        return SuperOperator(self.algebra, self.matrix - other.matrix)

    def __rmul__(self, scalar) -> "SuperOperator":
        return SuperOperator(self.algebra, scalar * self.matrix)

    def sharp(self) -> "SuperOperator":
        """The map c -> (N(c*))*.  The involution permutes units within one
        block, so the orthonormal weights cancel and N# = conj(N[adj][:, adj])."""
        adj = self.algebra.adj_table
        return SuperOperator(self.algebra, self.matrix[np.ix_(adj, adj)].conj())


def left_multiplication(algebra: Algebra, h: Element) -> SuperOperator:
    """The map a -> h a.  A product e_i e_j = e_k of matrix units stays in
    one block, so the orthonormal weights cancel and the matrix holds the
    canonical coordinate h_i at (k, j)."""
    i, j, k = algebra.mul_nonzero
    m = np.zeros((algebra.dim, algebra.dim), dtype=complex)
    m[k, j] = algebra.canonical_coords(h)[i]
    return SuperOperator(algebra, m)


def right_multiplication(algebra: Algebra, h: Element) -> SuperOperator:
    """The map a -> a h: e_i e_j = e_k puts h_j at (k, i)."""
    i, j, k = algebra.mul_nonzero
    m = np.zeros((algebra.dim, algebra.dim), dtype=complex)
    m[k, i] = algebra.canonical_coords(h)[j]
    return SuperOperator(algebra, m)


@lru_cache(maxsize=64)
def cell_units(algebra: Algebra, order: int) -> np.ndarray:
    """Row ``j * order + k`` of this (order^2, d) table holds, for each unit
    (r, s) of a block of size n, the canonical index of the unit of
    ``algebra.amplify(order)`` at (j n + r, k n + s) of the amplified block."""
    sizes = np.asarray(algebra.blocks)
    owner = np.repeat(np.arange(len(sizes)), sizes * sizes)
    n, offset = sizes[owner], algebra._basis_offsets[owner]
    r, s = np.divmod(np.arange(algebra.dim) - offset, n)
    j, k = np.divmod(np.arange(order * order)[:, None], order)
    units = order * order * offset + (j * n + r) * (order * n) + k * n + s
    units.setflags(write=False)
    return units


def amplify_matrix(matrix, algebra: Algebra, order: int) -> np.ndarray:
    """A d x d matrix (or a stack of them) over the basis of ``algebra`` acting
    on every cell of order x order matrices: M on the units of each cell's row
    of :func:`cell_units`, zero across cells.  Both the orthonormal and the
    canonical basis amplify this way (the weights are unchanged)."""
    units = cell_units(algebra, order)
    out = np.zeros(matrix.shape[:-2] + (units.size,) * 2, dtype=matrix.dtype)
    out[..., units[:, :, None], units[:, None, :]] = matrix[..., None, :, :]
    return out


def amplify_superop(n: SuperOperator, order: int) -> SuperOperator:
    """The map I_order (x) N on the amplified algebra."""
    return SuperOperator(n.algebra.amplify(order), amplify_matrix(n.matrix, n.algebra, order))


# -- matrices over an algebra -------------------------------------------


def from_cells(algebra: Algebra, order: int, grid) -> Element:
    """Assemble an element of ``algebra.amplify(order)`` from an order x order
    grid of elements of ``algebra``: each cell's coordinates scatter onto its
    row of :func:`cell_units`."""
    flat = [grid[j][k] for j in range(order) for k in range(order)]
    for cell in flat:
        algebra._own(cell)
    units = cell_units(algebra, order)
    coords = np.empty(units.size, dtype=complex)
    coords[units] = [cell.coords for cell in flat]
    return _element(algebra.amplify(order), coords)


def to_cells(algebra: Algebra, order: int, a: Element):
    """Split an element of ``algebra.amplify(order)`` into its grid of
    ``algebra`` entries, gathered through :func:`cell_units`."""
    algebra.amplify(order)._own(a)
    flat = a.coords[cell_units(algebra, order)]
    return [[_element(algebra, flat[j * order + k]) for k in range(order)] for j in range(order)]


def matrix_direct_sum(algebra: Algebra, m: int, v: Element, n: int, w: Element) -> Element:
    """V (+) W in M_{m+n} over the algebra, from V in M_m and W in M_n."""
    zero = algebra.zero()
    grid = ([row + [zero] * n for row in to_cells(algebra, m, v)]
            + [[zero] * m + row for row in to_cells(algebra, n, w)])
    return from_cells(algebra, m + n, grid)


# -- seeded sampling ---------------------------------------------------------


def random_rows(algebra: Algebra, rng: np.random.Generator, count: int,
                scale=1.0) -> np.ndarray:
    """Canonical coordinates (count, d) of Gaussian elements from one draw in
    row-major order, each row real then imaginary parts block by block: the
    stream of ``count`` :func:`random_element` calls, or of one per block."""
    draw = rng.standard_normal((count, 2 * algebra.dim))
    re, im = algebra._draw_index
    return scale * (draw[:, re] + 1j * draw[:, im])


def random_self_adjoint_rows(algebra: Algebra, rng: np.random.Generator, count: int,
                             scale=1.0) -> np.ndarray:
    """(x + x*)/2 for each row x of :func:`random_rows`."""
    x = random_rows(algebra, rng, count, scale)
    return 0.5 * (x + x[:, algebra.adj_table].conj())


def random_element(algebra: Algebra, rng: np.random.Generator, scale=1.0) -> Element:
    """Gaussian entries: the one-row case of :func:`random_rows`."""
    return _element(algebra, random_rows(algebra, rng, 1, scale)[0])


def random_positive_rows(algebra: Algebra, rng: np.random.Generator, count: int,
                         scale=1.0) -> np.ndarray:
    """x* x for each row x of :func:`random_rows`."""
    x = random_rows(algebra, rng, count, scale)
    return block_products(algebra, x[:, algebra.adj_table].conj(), x)


# -- file encoding ---------------------------------------------------------


def encode_complex_matrix(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def decode_real_array(data, what: str) -> np.ndarray:
    """A regular nest of finite numbers as a float array; strings, nulls,
    booleans, NaN, infinities and ragged nests are rejected, not coerced."""
    try:
        arr = np.asarray(data)
    except ValueError:  # ragged
        arr = None
    ok = arr is not None and arr.dtype.kind in "iuf" and np.isfinite(arr).all()
    leaves = data  # asarray takes a boolean among numbers for 0 or 1
    while ok and isinstance(leaves, list) and leaves and isinstance(leaves[0], list):
        leaves = [x for row in leaves for x in row]
    if not ok or bool in map(type, leaves if isinstance(leaves, list) else [leaves]):
        raise InputError(f"{what}: expected a regular array of finite numbers")
    return arr.astype(float)


def decode_complex_matrix(data, what="matrix") -> np.ndarray:
    """A 2-D array of [re, im] pairs as a complex matrix."""
    arr = decode_real_array(data, what)
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise InputError(f"{what}: expected a 2-D array of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def encode_element(a: Element) -> list:
    """Per-block 2-D arrays of [re, im] pairs."""
    return [encode_complex_matrix(m) for m in a.data]


def decode_element(algebra: Algebra, data) -> Element:
    if not isinstance(data, (list, tuple)) or len(data) != len(algebra.blocks):
        raise InputError(
            f"element must list {len(algebra.blocks)} blocks, got "
            f"{len(data) if isinstance(data, (list, tuple)) else type(data).__name__}"
        )
    mats = [decode_complex_matrix(block, f"element block {k}") for k, block in enumerate(data)]
    return Element(algebra, mats)
