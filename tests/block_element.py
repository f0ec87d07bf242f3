"""Tuple-of-blocks element arithmetic, kept as an independent reference for
``nca.Element``, which holds canonical coordinates.

Here an element is one complex matrix per block, and every operation is a
Python loop over the blocks: the product multiplies block by block, the
norm takes the largest per-block spectral norm, the spectrum concatenates
per-block eigenvalues in block order.

``superop_from_function`` is the elementwise reference for the
superoperators that ``nca`` builds from the structure constants.
"""
import numpy as np

import nca


def superop_from_function(algebra, fn):
    """The superoperator whose matrix in the orthonormal basis applies the
    elementwise rule ``fn`` (an ``nca.Element`` to an ``nca.Element``) to
    each orthonormal basis element."""
    cols = [algebra.to_coords(fn(algebra.from_coords(e))) for e in np.eye(algebra.dim)]
    return nca.SuperOperator(algebra, np.transpose(cols))


class BlockElement:
    def __init__(self, alg, blocks):
        self.alg = alg
        self.blocks = tuple(np.array(m, dtype=complex) for m in blocks)

    @classmethod
    def of(cls, a):
        """The reference copy of an ``nca.Element``."""
        return cls(a.algebra, [np.array(m) for m in a.data])

    @property
    def coords(self):
        return np.concatenate([m.reshape(-1) for m in self.blocks])

    def __add__(self, other):
        return BlockElement(self.alg, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        return BlockElement(self.alg, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self):
        return BlockElement(self.alg, [-a for a in self.blocks])

    def __mul__(self, other):
        if isinstance(other, BlockElement):
            return BlockElement(self.alg, [a @ b for a, b in zip(self.blocks, other.blocks)])
        return BlockElement(self.alg, [complex(other) * a for a in self.blocks])

    __rmul__ = __mul__

    def adjoint(self):
        return BlockElement(self.alg, [a.conj().T for a in self.blocks])

    def trace(self):
        return complex(sum(w * np.trace(m) for w, m in zip(self.alg.trace_weights, self.blocks)))

    def norm(self):
        return max(np.linalg.norm(m, 2) for m in self.blocks)

    def full(self):
        n = self.alg.total_size
        out = np.zeros((n, n), dtype=complex)
        off = 0
        for m in self.blocks:
            out[off:off + len(m), off:off + len(m)] = m
            off += len(m)
        return out

    def is_self_adjoint(self, tol=1e-9):
        return (self - self.adjoint()).norm() <= tol * (1.0 + self.norm())

    def eigenvalues(self):
        if self.is_self_adjoint():
            return np.concatenate([np.linalg.eigvalsh((m + m.conj().T) / 2) for m in self.blocks])
        return np.concatenate([np.linalg.eigvals(m) for m in self.blocks])


def tau_inner(a, b):
    return complex(sum(w * np.vdot(x, y)
                       for w, x, y in zip(a.alg.trace_weights, a.blocks, b.blocks)))


def is_positive(a, tol=1e-9):
    slack = tol * (1.0 + a.norm())
    if (a - a.adjoint()).norm() > slack:
        return False
    return all(np.linalg.eigvalsh((m + m.conj().T) / 2).min() >= -slack for m in a.blocks)


def functional_calculus(a, fn):
    """``(fn(a), lip)`` block by block, with ``lip`` the Lipschitz constant of
    ``fn`` on the hull of the spectrum."""
    blocks, eigs = [], []
    for m in a.blocks:
        w, v = np.linalg.eigh((m + m.conj().T) / 2)
        eigs.append(w)
        blocks.append((v * np.asarray(fn(w), dtype=complex)) @ v.conj().T)
    eigs = np.concatenate(eigs)
    return BlockElement(a.alg, blocks), fn.lipschitz_on(float(eigs.min()), float(eigs.max()))


def to_coords(a):
    return np.concatenate([np.sqrt(w) * m.reshape(-1)
                           for w, m in zip(a.alg.trace_weights, a.blocks)])


def from_coords(alg, coords):
    blocks, off = [], 0
    for n, w in zip(alg.blocks, alg.trace_weights):
        blocks.append(coords[off:off + n * n].reshape(n, n) / np.sqrt(w))
        off += n * n
    return BlockElement(alg, blocks)


def pinch(alg, matrix):
    blocks, off = [], 0
    for n in alg.blocks:
        blocks.append(matrix[off:off + n, off:off + n])
        off += n
    return BlockElement(alg, blocks)


def from_cells(alg, order, grid):
    blocks = []
    for b, nb in enumerate(alg.blocks):
        m = np.zeros((order * nb, order * nb), dtype=complex)
        for j in range(order):
            for k in range(order):
                m[j * nb:(j + 1) * nb, k * nb:(k + 1) * nb] = grid[j][k].blocks[b]
        blocks.append(m)
    return BlockElement(alg.amplify(order), blocks)


def to_cells(alg, order, a):
    return [[BlockElement(alg, [m[j * nb:(j + 1) * nb, k * nb:(k + 1) * nb]
                                for m, nb in zip(a.blocks, alg.blocks)])
             for k in range(order)] for j in range(order)]
