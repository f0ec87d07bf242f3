"""Resistance networks: the commutative specialization with conductance
matrices, harmonic potentials, resistance distance, the maximum principle,
and the square relation between resistance and the energy metric."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .algebra import (
    DEFAULT_EQ_TOL,
    DEFAULT_POS_TOL,
    Algebra,
    Element,
    PiecewiseLinear,
    SuperOperator,
    is_integer,
)
from .cdc import conductance_matrix, network_cdc
from .energy import EnergyForm, Laplacian, energy_form
from .errors import DisconnectedError, InputError
from .reporting import judge, judge_spectrum
from .states import StateEmbedding, point_state


@dataclass(frozen=True)
class ResistanceNetwork:
    """A finite set of at least two nodes with symmetric conductances that
    pass :func:`conductance_matrix`; negative entries require the explicit
    ``allow_negative`` flag (used only for counterexamples)."""

    c: np.ndarray
    allow_negative: bool = False

    def __post_init__(self):
        c = conductance_matrix(self.c, self.allow_negative)
        if c.shape[0] < 2:
            raise InputError(f"a network needs at least 2 nodes, got {c.shape[0]}")
        if not np.array_equal(c, c.T):
            raise InputError("conductance matrix must be symmetric")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @property
    def size(self) -> int:
        return self.c.shape[0]

    def _is_node(self, p) -> bool:
        """Whether ``p`` is an integer, and not a bool, that names a node."""
        return is_integer(p) and 0 <= p < self.size

    @cached_property
    def algebra(self) -> Algebra:
        """Functions on the nodes with counting measure."""
        return Algebra((1,) * self.size, (1.0,) * self.size)

    @cached_property
    def laplacian(self) -> Laplacian:
        """(L f)(x) = sum_y (f(x) - f(y)) c_xy on the node algebra, the Laplacian
        of the half-scaled network form; every check of the network reads it."""
        return Laplacian(SuperOperator(self.algebra, np.diag(self.c.sum(axis=1)) - self.c))

    def is_connected(self) -> bool:
        """Graph connectivity over the nonzero conductances."""
        return len(_components(self, range(self.size))) == 1

    def function(self, values) -> Element:
        values = np.asarray(values, dtype=complex)
        if values.shape != (self.size,):
            raise InputError(f"expected {self.size} node values")
        return self.algebra.from_canonical_coords(values)

    def values(self, f: Element) -> np.ndarray:
        self.algebra._own(f)
        return np.array(f.coords)


def network_energy_form(net: ResistanceNetwork) -> EnergyForm:
    gamma = network_cdc(net.algebra, net.c, scale=0.5, allow_negative=net.allow_negative)
    return energy_form(gamma, force=net.allow_negative)


def _solve_potential(net: ResistanceNetwork, rhs: np.ndarray) -> np.ndarray:
    if not net.is_connected():
        raise DisconnectedError("network is not connected")
    sol, *_ = np.linalg.lstsq(net.laplacian.matrix, rhs, rcond=None)
    return sol - sol.mean(axis=0)  # the trace-zero representative of each column


def potential(net: ResistanceNetwork, p: int, q: int) -> Element:
    """The trace-zero solution of L h = delta_p - delta_q; harmonic away from
    p and q, maximal at p, minimal at q."""
    if not (net._is_node(p) and net._is_node(q)):
        raise InputError("node indices must be integers in range")
    if p == q:
        raise InputError("potential requires two distinct nodes")
    rhs = np.zeros(net.size)
    rhs[p], rhs[q] = 1.0, -1.0
    return net.function(_solve_potential(net, rhs))


def resistance_distance(net: ResistanceNetwork, p: int, q: int) -> float:
    if p == q and net._is_node(p):
        return 0.0  # potential rejects every other pair of equal nodes
    h = net.values(potential(net, p, q)).real
    return float(h[p] - h[q])


def all_pairs_resistance(net: ResistanceNetwork) -> np.ndarray:
    """The resistance distance h[p] - h[q] of every pair p < q, with h the
    trace-zero potential of delta_p - delta_q; one least-squares solve over
    all the pairs' right-hand sides."""
    p, q = np.triu_indices(net.size, 1)
    pair = np.arange(len(p))
    rhs = np.zeros((net.size, len(p)))
    rhs[p, pair], rhs[q, pair] = 1.0, -1.0
    h = _solve_potential(net, rhs)
    out = np.zeros((net.size, net.size))
    out[p, q] = out[q, p] = h[p, pair] - h[q, pair]
    return out


@dataclass
class NetworkMetricReport:
    """``checks`` holds the verdicts ``resistance-triangle``,
    ``resistance-square-relation`` and ``resistance-acute-angles``,
    ``resistance`` the resistance distance and ``energy`` the energy metric
    between every pair of point states."""

    checks: list
    mixture_counterexample: Optional[dict]
    resistance: np.ndarray
    energy: np.ndarray


def _mixture_grid(step: float):
    """All probability vectors over three points with entries on a grid."""
    ticks = int(round(1.0 / step))
    out = []
    for i in range(ticks + 1):
        for j in range(ticks + 1 - i):
            out.append((i / ticks, j / ticks, (ticks - i - j) / ticks))
    return out


def _distances(coords: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``coords``, one row at a time;
    exactly symmetric with an exactly zero diagonal."""
    return np.stack([np.linalg.norm(row - coords, axis=-1) for row in coords])


def _node_triples(n: int, rng: np.random.Generator) -> list:
    """Every triple of nodes when there are at most four, else four distinct
    ones drawn at random in the order of ``combinations(range(n), 3)``."""
    triples = list(combinations(range(n), 3))
    if len(triples) <= 4:
        return triples
    return [triples[k] for k in rng.choice(len(triples), size=4, replace=False)]


def _mixture_search(dist2: np.ndarray):
    """The largest d2(i, k) - (d2(i, j) + d2(j, k)) over the grid and the
    first (i, j, k) in C order within 1e-12 * max(1, |largest|) of it, so that
    ties name one witness on every route; one (m, m) slab per row i."""
    def slab(i):
        return dist2[i][None, :] - (dist2[i][:, None] + dist2)

    row_best = np.array([slab(i).max() for i in range(len(dist2))])
    best = float(row_best.max())
    near = best - 1e-12 * max(1.0, abs(best))
    i = int(np.argmax(row_best >= near))
    j, k = np.unravel_index(np.argmax(slab(i) >= near), dist2.shape)
    return best, (i, int(j), int(k))


def metric_checks(net: ResistanceNetwork, seed=0, step=0.1, tol=DEFAULT_EQ_TOL,
                  mixture_margin=1e-6) -> NetworkMetricReport:
    """Triangle inequality for the resistance distance, the square relation
    against the energy metric, acute angles between pure states, and a seeded
    grid search for mixed states breaking the triangle inequality of the
    squared energy metric.

    Every energy distance is read from one :class:`StateEmbedding` of the
    point states, all at once.  The embedding is affine, so a mixture's
    coordinates are its weights times the coordinates of its points."""
    n = net.size
    rho_r = all_pairs_resistance(net)

    # tri[p, r, q] = rho(p, q) - rho(p, r) - rho(r, q)
    tri = rho_r[:, None, :] - rho_r[:, :, None] - rho_r[None, :, :]
    scale = 1.0 + rho_r.max()
    checks = [judge("resistance-triangle", max(0.0, float(tri.max())), scale, tol)]

    # the node algebra has unit weights, so the point states' densities are
    # its units, and their differences from point 0 are the rows of I - e_0
    emb = StateEmbedding(net.laplacian, point_state(net.algebra, 0))
    coords = emb.embed(np.eye(n) - np.eye(n)[0])
    energy = _distances(coords)
    pairs = np.triu_indices(n, 1)
    checks.append(judge("resistance-square-relation",
                        np.abs(energy * energy - rho_r)[pairs].max(initial=0.0), scale, tol))

    # ip[x, y, z] = <coords[x] - coords[y], coords[z] - coords[y]>; the
    # triples that are not distinct give exactly 0 or a squared norm, so
    # they never raise the worst case above its floor of 0
    diff = coords[None, :, :] - coords[:, None, :]
    ip = np.einsum("yxk,yzk->xyz", diff.conj(), diff).real
    checks.append(judge("resistance-acute-angles", max(0.0, float(-ip.min())), scale, tol))

    # seeded grid of mixtures over node triples, searching for a triple of
    # states violating the triangle inequality of the squared energy metric
    weights = _mixture_grid(step)
    counterexample = None
    for nodes in _node_triples(n, np.random.default_rng(seed)):
        dist2 = _distances(np.asarray(weights) @ coords[list(nodes)]) ** 2
        best, witness = _mixture_search(dist2)
        if best > mixture_margin:
            counterexample = {
                "nodes": [int(v) for v in nodes],
                "weights": [list(weights[i]) for i in witness],
                "violation": best,
            }
            break

    return NetworkMetricReport(checks, counterexample, rho_r, energy)


def _closure(net: ResistanceNetwork, nodes) -> set:
    out = set(nodes)
    for y in nodes:
        out.update(int(z) for z in np.nonzero(net.c[y] > 0)[0])
    return out


def _components(net: ResistanceNetwork, nodes) -> list:
    nodes = list(nodes)
    remaining = set(nodes)
    comps = []
    while remaining:
        start = remaining.pop()
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in np.nonzero(net.c[x] != 0)[0]:
                y = int(y)
                if y in remaining:
                    remaining.discard(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(sorted(comp))
    return comps


def maximum_principle_check(net: ResistanceNetwork, f: Element, region: Sequence[int],
                            tol=DEFAULT_EQ_TOL) -> dict:
    """For f real and harmonic on the region: if the maximum over the closed
    region is attained inside a connected piece, f is constant there.
    Reports precondition failures instead of crashing."""
    vals = net.values(f)
    report = {"passed": True, "precondition_failures": [], "components_checked": 0}
    failures = report["precondition_failures"]
    if np.abs(vals.imag).max(initial=0.0) > tol * (1.0 + np.abs(vals).max()):
        failures.append("function is not real-valued")
    outside = [str(y) for y in region if not net._is_node(y)]
    if outside:
        failures.append(f"region nodes [{', '.join(outside)}] are not nodes of the network")
    else:
        lap = net.laplacian.matrix
        lap_vals = lap @ vals.real
        scale = 1.0 + np.abs(lap @ np.abs(vals.real)).max()
        not_harmonic = [int(y) for y in region if abs(lap_vals[y]) > tol * scale]
        if not_harmonic:
            failures.append(f"function is not harmonic at nodes {not_harmonic}")
    report["max_node"] = int(np.argmax(vals.real))
    report["min_node"] = int(np.argmin(vals.real))
    if failures:
        report["passed"] = False
        return report
    v = vals.real
    for comp in _components(net, region):
        closure = sorted(_closure(net, comp))
        m = max(v[x] for x in closure)
        attained = [y for y in comp if v[y] >= m - tol * (1.0 + abs(m))]
        if attained:
            spread = max(v[y] for y in comp) - min(v[y] for y in comp)
            if spread > tol * (1.0 + abs(m)):
                report["passed"] = False
                report["witness"] = {"component": comp, "spread": float(spread)}
        report["components_checked"] += 1
    return report


@dataclass
class MarkovViolationWitness:
    """A concrete Markov-property failure for a network with a negative
    conductance: f = delta_x - r delta_y clipped by the positive part."""

    f: Element
    fn: PiecewiseLinear
    r: float
    edge: tuple
    violation: float


def markov_violation_witness(net: ResistanceNetwork, tol=DEFAULT_POS_TOL):
    """Requires the energy form to be nonnegative.  Returns None when all
    conductances are nonnegative; otherwise builds the explicit witness whose
    clipped energy exceeds the original."""
    eigs = net.laplacian.eigenvalues
    if not judge_spectrum("energy-positive", eigs[0], eigs[-1], tol).passed:
        raise InputError("the energy form itself is not nonnegative")
    if net.c.min() >= 0:
        return None
    x, y = np.unravel_index(np.argmin(net.c), net.c.shape)
    cxy = float(net.c[x, y])
    cy = float(net.c[y].sum())
    # E(f, f) = E(dx, dx) + 2 r c_xy + r^2 E(dy, dy); minimize over r > 0
    r = -cxy / cy if cy > 0 else 1.0
    violation = -(2 * r * cxy + r * r * cy)
    vals = np.zeros(net.size)
    vals[x], vals[y] = 1.0, -r
    return MarkovViolationWitness(
        f=net.function(vals),
        fn=PiecewiseLinear.relu(),
        r=float(r),
        edge=(int(x), int(y)),
        violation=float(violation),
    )


# -- seeded generators for test batteries ------------------------------------


def random_network(size: int, rng: np.random.Generator, density=0.7,
                   ensure_connected=True) -> ResistanceNetwork:
    """A seeded symmetric nonnegative conductance matrix; resamples until
    connected when requested."""
    while True:
        c = rng.uniform(0.2, 2.0, size=(size, size))
        c *= rng.random(size=(size, size)) < density
        c = np.triu(c, 1)
        c = c + c.T
        net = ResistanceNetwork(c)
        if not ensure_connected or net.is_connected():
            return net


def random_star_network(size: int, rng: np.random.Generator) -> ResistanceNetwork:
    center = int(rng.integers(size))
    c = np.zeros((size, size))
    for x in range(size):
        if x != center:
            c[center, x] = c[x, center] = rng.uniform(0.2, 2.0)
    return ResistanceNetwork(c)


def is_star(net: ResistanceNetwork) -> bool:
    """True when some hub carries every edge: its degree is the edge count."""
    edges = net.c != 0
    return bool(edges.sum(axis=1).max() == edges.sum() // 2)
