"""Standard deviation as a quotient energy seminorm: extend the algebra by a
scalar summand, build the block Laplacian weighted by a central density,
eliminate the scalar by a Schur complement, and recover the variance form.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import (
    DEFAULT_EQ_TOL,
    DEFAULT_POS_TOL,
    Algebra,
    Element,
    SuperOperator,
    block_products,
    central_scalars,
    left_multiplication,
    right_multiplication,
)
from .cdc import CdCForm
from .energy import Laplacian
from .errors import InputError
from .quotient import central_projection, split


def weight_scalars(algebra: Algebra, p: Element, tol=DEFAULT_POS_TOL):
    """p must be central (blockwise scalar), strictly positive, with unit trace
    to 1e-10, inside the 2e-10 or more to which the pairing identity of
    :func:`extend` holds |1 - tau(p)|; returns the per-block scalars."""
    algebra._own(p)
    problems = []
    lams, off = central_scalars(p, tol)
    for b, lam in enumerate(lams):
        if off[b]:
            problems.append(
                f"block {b}: weight element is not central; non-central "
                "weights define non-tracial states, which are not supported"
            )
        if abs(lam.imag) > tol or lam.real <= tol:
            problems.append(f"block {b}: weight scalar {lam:.6g} is not strictly positive")
    total = p.trace()
    if abs(total - 1.0) > 1e-10:
        problems.append(f"weight element must have unit trace, got {total:.12g}")
    if problems:
        raise InputError("invalid weight element", problems)
    return lams.real


@dataclass(frozen=True)
class ExtendedAlgebra:
    """The algebra extended by one scalar summand, carrying the block
    Laplacian whose Schur complement yields the variance form."""

    base: Algebra
    weight: Element
    extended: Algebra
    laplacian: Laplacian
    residuals: dict = field(default_factory=dict)

    def mu(self, a: Element) -> complex:
        """The faithful tracial state tau(p a)."""
        return (self.weight * a).trace()

    @cached_property
    def closed_form(self) -> SuperOperator:
        """The variance Laplacian's closed form a -> p (a - mu(a)), the
        reference for the Schur route: left multiplication by p minus the
        rank-one map a -> mu(a) p.  mu(e_i) = tau(p e_i) is w_i times the
        coordinate of p at the unit e_i*, so in the orthonormal basis that map
        is outer(sqrt(w) p, mu / sqrt(w))."""
        alg, p = self.base, self.weight.coords
        root = np.sqrt(alg.basis_weights)
        mu = alg.basis_weights * p[alg.adj_table]
        return SuperOperator(alg, left_multiplication(alg, self.weight).matrix
                             - np.outer(root * p, mu / root))


def extend(algebra: Algebra, p: Element, tol=DEFAULT_POS_TOL) -> ExtendedAlgebra:
    """Build B = A (+) C with trace extended by 1 on the scalar unit, and the
    block operator [[M, J*], [J, 1]] with M(a) = p a and J(a) = -mu(a)."""
    lams = weight_scalars(algebra, p, tol)
    extended = Algebra(algebra.blocks + (1,), algebra.trace_weights + (1.0,))
    d = algebra.dim

    mult = np.repeat(lams, [n * n for n in algebra.blocks])
    mu_row = np.zeros(d)
    mu_row[algebra.diagonal_units] = np.repeat(lams * np.sqrt(algebra.trace_weights),
                                               algebra.blocks)

    m = np.zeros((d + 1, d + 1))
    m[:d, :d] = np.diag(mult)
    m[d, :d] = -mu_row
    m[:d, d] = -mu_row
    m[d, d] = 1.0
    lap = Laplacian(SuperOperator(extended, m))

    # construction checks: the pairing identity m[i, j] = mu(x_i* x_j) on the
    # orthonormal basis a_i (+) alpha_i of the extension, with x_i the
    # canonical coordinates of a_i - alpha_i 1, so that mu(x* y) is
    # sum_k g_k conj(x_k) y_k for g = trace weight times density scalar;
    # positivity; and annihilation of the extended unit
    unit_res = lap.apply(extended.identity()).norm()
    x = np.zeros((d + 1, d), dtype=complex)
    x[:d] = np.diag(1.0 / np.sqrt(algebra.basis_weights))
    x[d] = -algebra.identity().coords
    pair_res = float(np.abs(m - (x.conj() * (algebra.basis_weights * mult)) @ x.T).max())
    residuals = {
        "unit_annihilation": float(unit_res),
        "pairing_identity": pair_res,
        "min_eigenvalue": float(lap.eigenvalues[0]),
    }
    if pair_res > 1e-10 * (1.0 + float(np.abs(m).max())):
        raise InputError(f"pairing identity failed to verify (residual {pair_res:.3e})")
    return ExtendedAlgebra(
        base=algebra, weight=p, extended=extended, laplacian=lap, residuals=residuals
    )


def stddev_laplacian(ea: ExtendedAlgebra, tol=DEFAULT_EQ_TOL) -> Laplacian:
    """Eliminate the scalar summand by the Schur complement and confirm the
    closed form a -> p (a - mu(a))."""
    proj = central_projection(ea.extended, range(len(ea.base.blocks)))
    lap = split(ea.laplacian, proj).quotient_laplacian

    gap = float(np.abs(lap.matrix - ea.closed_form.matrix).max())
    if gap > max(tol, 1e-10) * (1.0 + float(np.abs(lap.matrix).max())):
        raise InputError(f"Schur route disagrees with the closed form (residual {gap:.3e})")
    return lap


def stddev_seminorm(ea: ExtendedAlgebra, a: Element) -> float:
    """The standard deviation of a for the state mu: |a - mu(a)| in the
    mu-norm."""
    ea.base._own(a)
    return float(stddev_seminorms(ea, a.coords[None])[0])


def stddev_seminorms(ea: ExtendedAlgebra, coords: np.ndarray) -> np.ndarray:
    """:func:`stddev_seminorm` of each row of canonical coordinates (rows, d)."""
    alg, p, diag = ea.base, ea.weight.coords, ea.base.diagonal_units
    mean = block_products(alg, p, coords)[:, diag] @ alg.coord_weights
    centered = coords - mean[:, None] * alg.identity().coords
    square = block_products(alg, centered[:, alg.adj_table].conj(), centered)
    variance = (block_products(alg, p, square)[:, diag] @ alg.coord_weights).real
    return np.sqrt(np.maximum(variance, 0.0))


def independent_copies_cdc(algebra: Algebra, p: Element, tol=DEFAULT_POS_TOL) -> CdCForm:
    """The variance carre-du-champ built from two independent copies:
    Gamma(a, b) = (1/2) (mu(a*b) - mu(a*) b - a* mu(b) + a*b) p."""
    lams = weight_scalars(algebra, p, tol)
    d = algebra.dim
    adj = algebra.adj_table

    # mu of each unit and the canonical coordinates of each unit; the slot
    # at index -1 is zero
    mu = np.zeros(d + 1)
    mu[algebra.diagonal_units] = np.repeat(lams * np.asarray(algebra.trace_weights),
                                           algebra.blocks)
    units = np.eye(d + 1, d)

    # entry (i, j) is Gamma(e_i, e_j): there a* b = e_i* e_j is the unit
    # prod[i, j], or zero where prod[i, j] = -1
    prod = algebra.mul_table[adj]
    term = (
        mu[prod][:, :, None] * algebra.canonical_coords(algebra.identity())
        - mu[adj][:, None, None] * units[:d]
        - mu[:d][None, :, None] * units[adj][:, None]
        + units[prod]
    )
    # x -> x p over canonical coordinates: the weights cancel within a block
    right_p = right_multiplication(algebra, p).matrix
    return CdCForm(algebra, 0.5 * (term @ right_p.T), scale=0.5)
