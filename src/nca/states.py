"""States, the energy metric on the state space, its dual cross-check, and
the affine Hilbert-space embedding."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import DEFAULT_EQ_TOL, Algebra, Element, is_integer, is_positive
from .energy import EnergyForm, Laplacian, connectedness
from .errors import DisconnectedError, InputError


@dataclass(frozen=True)
class State:
    """A state given by its density: mu(a) = tau(rho a) with rho >= 0 and
    tau(rho) = 1."""

    density: Element

    def __post_init__(self):
        rho = self.density
        problems = []
        if not is_positive(rho, tol=1e-10):
            problems.append("density must be positive")
        total = rho.trace()
        if abs(total - 1.0) > 1e-10 * (1.0 + abs(total)):
            problems.append(f"density must have unit trace, got {total:.12g}")
        if problems:
            raise InputError("invalid state", problems)

    @property
    def algebra(self) -> Algebra:
        return self.density.algebra


def point_state(algebra: Algebra, x: int) -> State:
    """The evaluation at a point of a commutative algebra (the delta density
    rescaled so its trace is one)."""
    if not algebra.is_commutative:
        raise InputError("point states require a commutative algebra")
    if not (is_integer(x) and 0 <= x < algebra.dim):
        raise InputError(f"point must be an integer in [0, {algebra.dim}), got {x!r}")
    return State(algebra.basis_element(x) * (1.0 / algebra.trace_weights[x]))


def _difference_coords(mu: State, nu: State) -> np.ndarray:
    alg = mu.algebra
    alg._own(nu.density)
    return alg.to_coords(mu.density - nu.density)


def energy_metric(lap: Laplacian, mu: State, nu: State, tol=DEFAULT_EQ_TOL) -> float:
    """sqrt(<mu - nu, pinv(L)(mu - nu)>) with the state difference realized
    as the density difference in the L2 space; infinite (DisconnectedError)
    when mass sits in the kernel beyond the scalars."""
    g = _difference_coords(mu, nu)
    # eigh sorts ascending: the kernel components come first, then the range
    comps = lap.eigensystem[1].conj().T @ g
    stuck, comps = comps[:lap.kernel_dim], comps[lap.kernel_dim:]
    if np.linalg.norm(stuck) > tol * max(1.0, np.linalg.norm(g)):
        raise DisconnectedError(
            "state difference is not in the range of the Laplacian; the "
            "distance is infinite"
        )
    return float(np.sqrt(np.sum(np.abs(comps) ** 2 / lap.range_eigensystem[0]).real))


def dual_metric(e: EnergyForm, mu: State, nu: State, tol=DEFAULT_EQ_TOL) -> float:
    """The same distance through the Riesz representation: solve for the
    potential h with E(h, .) = (mu - nu)(.) and return its energy seminorm."""
    alg = e.algebra
    g = _difference_coords(mu, nu)
    gram = e.gram_orthonormal
    h, *_ = np.linalg.lstsq(gram.conj().T, g, rcond=None)
    residual = np.linalg.norm(gram.conj().T @ h - g)
    if residual > tol * max(1.0, np.linalg.norm(g)):
        raise DisconnectedError(
            "no potential represents the state difference; the distance is infinite"
        )
    return e.seminorm(alg.from_coords(h))


@dataclass(frozen=True)
class StateEmbedding:
    """The affine isometry of the state space into the Hilbert space carried
    by the energy form, anchored at a base state.  It reads the Laplacian's
    eigenpairs above its rank cut, as :func:`energy_metric` does."""

    lap: Laplacian
    base: State

    def __post_init__(self):
        if not connectedness(self.lap):
            raise DisconnectedError("embedding requires a metrically connected Laplacian")

    def coords(self, mu: State) -> np.ndarray:
        """Coordinates of the potential of mu - base in an orthonormal frame
        of the energy Hilbert space; Euclidean distances equal the energy
        metric."""
        return self.embed(_difference_coords(mu, self.base))

    def embed(self, diffs: np.ndarray) -> np.ndarray:
        """:meth:`coords` of the density differences mu - base given by
        their orthonormal coordinates ``diffs``, one per row."""
        w, v = self.lap.range_eigensystem
        return (diffs @ v.conj()) / np.sqrt(w)
