"""Quotients of energy forms by central projections via Schur complements,
with the direct fiber-infimum cross-check."""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .algebra import (
    DEFAULT_EQ_TOL,
    DEFAULT_POS_TOL,
    DEFAULT_RANK_TOL,
    Algebra,
    Element,
    SuperOperator,
    central_scalars,
    is_integer,
    random_rows,
)
from .energy import (
    Laplacian,
    _quadratic_forms,
    _require_dirichlet,
    cdc_from_dirichlet_form,
    connectedness,
    energy_form_of_laplacian,
    leibniz_check,
    markov_check,
)
from .errors import DisconnectedError, InputError, PropertyViolationError
from .reporting import CheckResult, judge, judge_spectrum, over_bound


def central_projection(algebra: Algebra, keep_blocks) -> Element:
    """The central projection selecting a subset of the blocks."""
    keep = list(keep_blocks)
    if not keep or not all(is_integer(b) and 0 <= b < len(algebra.blocks) for b in keep):
        raise InputError("keep_blocks must be a nonempty set of valid block indices")
    return algebra.element([np.eye(n) * (b in keep) for b, n in enumerate(algebra.blocks)])


def projection_blocks(p: Element, tol=DEFAULT_POS_TOL) -> list:
    """Validate that p is a proper central projection and return the kept
    block flags.  Central elements are blockwise scalars."""
    if (p * p).distance(p) > tol * (1.0 + p.norm()) or not p.is_self_adjoint(tol):
        raise InputError("p must be a self-adjoint idempotent")
    lams, off = central_scalars(p, tol)
    keep, drop = np.abs(lams - 1.0) <= tol, np.abs(lams) <= tol
    problems = [f"block {b}: not central (not a scalar there)" if off[b]
                else f"block {b}: scalar {lams[b]:.6g} is neither 0 nor 1"
                for b in np.flatnonzero(off | ~(keep | drop))]
    if problems:
        raise InputError("not a central projection", problems)
    if keep.all():
        raise InputError("projection must be proper (p != 1)")
    if not keep.any():
        raise InputError("projection must be nonzero")
    return keep.tolist()


@dataclass(frozen=True)
class QuotientData:
    """The block decomposition of a Laplace operator along a central
    projection p, with B = pA kept and C = (1-p)A eliminated."""

    projection: Element
    ambient: Laplacian
    algebra_b: Algebra
    algebra_c: Algebra
    idx_b: np.ndarray
    idx_c: np.ndarray
    r_block: np.ndarray
    j_block: np.ndarray
    s_block: np.ndarray

    @cached_property
    def quotient_laplacian(self) -> Laplacian:
        """The Schur complement R - J* S^(-1) J as a Laplace operator on B."""
        if np.abs(self.j_block).max(initial=0.0) == 0.0:
            schur = self.r_block.copy()
        else:
            s_inv_j = np.linalg.solve(self.s_block, self.j_block)
            schur = self.r_block - self.j_block.conj().T @ s_inv_j
        schur = (schur + schur.conj().T) / 2
        return Laplacian(SuperOperator(self.algebra_b, schur), self.ambient.rank_tol)


def split(lap: Laplacian, p: Element, rank_tol=DEFAULT_RANK_TOL,
          tol=DEFAULT_POS_TOL) -> QuotientData:
    """Decompose the Laplacian matrix along L2(B) (+) L2(C)."""
    alg = lap.algebra
    alg._own(p)
    keep = projection_blocks(p, tol)
    kept = np.repeat(keep, [n * n for n in alg.blocks])
    idx_b, idx_c = np.flatnonzero(kept), np.flatnonzero(~kept)
    m = lap.matrix
    r_block = m[np.ix_(idx_b, idx_b)]
    j_block = m[np.ix_(idx_c, idx_b)]
    s_block = m[np.ix_(idx_c, idx_c)]
    s_eigs = np.linalg.eigvalsh((s_block + s_block.conj().T) / 2)
    coupled = np.abs(j_block).max(initial=0.0) > tol * max(1.0, float(np.abs(m).max()))
    if coupled and s_eigs[0] <= rank_tol * max(1.0, float(np.abs(m).max())):
        # a decoupled (J = 0) summand passes through unchanged, but a
        # singular corner with genuine coupling means the ambient operator
        # is not metrically connected across the projection
        raise DisconnectedError(
            "the eliminated corner is singular; the ambient operator is not "
            "metrically connected across the projection"
        )
    algebra_b = Algebra(
        tuple(n for n, k in zip(alg.blocks, keep) if k),
        tuple(w for w, k in zip(alg.trace_weights, keep) if k),
    )
    algebra_c = Algebra(
        tuple(n for n, k in zip(alg.blocks, keep) if not k),
        tuple(w for w, k in zip(alg.trace_weights, keep) if not k),
    )
    return QuotientData(
        projection=p,
        ambient=lap,
        algebra_b=algebra_b,
        algebra_c=algebra_c,
        idx_b=idx_b,
        idx_c=idx_c,
        r_block=r_block,
        j_block=j_block,
        s_block=s_block,
    )


def fiber_minimizer(qd: QuotientData, b: Element) -> Element:
    """The lift b (+) (-S^(-1) J b), the energy minimizer over the fiber above b."""
    qd.algebra_b._own(b)
    return qd.ambient.algebra.from_canonical_coords(_fiber_lifts(qd, b.coords[None])[0])


def _fiber_lifts(qd: QuotientData, b: np.ndarray) -> np.ndarray:
    """Canonical coordinates of the lifts above the rows ``b`` of canonical
    coordinates of B, from one solve, or b (+) 0 without one when every J b
    is 0: ``split`` accepts a decoupled corner (J = 0) even when S is singular."""
    jb = (b * np.sqrt(qd.algebra_b.basis_weights)) @ qd.j_block.T
    c = -np.linalg.solve(qd.s_block, jb.T).T if jb.any() else jb
    lifts = np.empty((len(b), qd.ambient.algebra.dim), dtype=complex)
    lifts[:, qd.idx_b] = b
    lifts[:, qd.idx_c] = c / np.sqrt(qd.algebra_c.basis_weights)
    return lifts


def quotient_checks(qd: QuotientData, seed=0, count=20, tol=DEFAULT_EQ_TOL) -> list:
    """Verify the quotient form: seminorm equals the fiber infimum, the
    quotient is again a carre-du-champ energy form, and it stays Markov and
    Leibniz.  Ambient preconditions (real, completely positive, completely
    Markov) are reported first.  The fiber-infimum samples b and their
    perturbations eps are one draw over B (+) C, the stream of drawing b
    then eps per sample, and are evaluated together: one solve for all
    lifts and one quadratic form per side."""
    if count < 1:
        raise InputError(f"quotient checks need a sample count of at least 1, got {count}")
    ambient_e = energy_form_of_laplacian(qd.ambient)
    results = []

    eigs = qd.ambient.eigenvalues
    pre = [judge("ambient-real", ambient_e.real_residual(), 1 + ambient_e.magnitude(), tol),
           judge_spectrum("ambient-positive", eigs[0], eigs[-1], tol)]
    pre.extend(
        replace(r, check="ambient-" + r.check)
        for r in markov_check(qd.ambient, seed=seed, count=max(5, count // 2), tol=tol)
    )
    results.extend(pre)
    if not all(r.passed for r in pre):
        return results

    quot = qd.quotient_laplacian
    e_b = energy_form_of_laplacian(quot)

    pair = Algebra(qd.algebra_b.blocks + qd.algebra_c.blocks,
                   qd.algebra_b.trace_weights + qd.algebra_c.trace_weights)
    draw = random_rows(pair, np.random.default_rng(seed), count)
    b, eps = draw[:, :qd.algebra_b.dim], 0.5 * draw[:, qd.algebra_b.dim:]
    lifts = _fiber_lifts(qd, b)
    direct = _quadratic_forms(ambient_e, lifts)
    via_schur = _quadratic_forms(e_b, b)
    # any other lift strictly exceeds the minimum by the eliminated-corner energy
    perturbed = lifts.copy()
    perturbed[:, qd.idx_c] += eps
    extra = _quadratic_forms(ambient_e, perturbed) - direct
    # S need not annihilate C's unit, so its form keeps each scalar part
    eps = eps * np.sqrt(qd.algebra_c.basis_weights)
    expected_extra = ((eps.conj() @ qd.s_block) * eps).sum(axis=1).real
    gap = np.maximum(np.abs(direct - via_schur), np.abs(extra - expected_extra))
    scales = 1.0 + np.abs(direct)
    # each sample is held to its own bound; the witness is the last sample
    # that raised the running worst gap and exceeded its bound, else the
    # first sample that exceeded its bound
    over = over_bound(gap, scales, tol)
    witness = None
    if over.any():
        record = gap > np.maximum.accumulate(np.concatenate([[0.0], gap]))[:-1]
        flagged = np.flatnonzero(record & over)
        idx = int(flagged[-1]) if len(flagged) else int(over.argmax())
        witness = {"sample": idx, "direct": float(direct[idx]), "schur": float(via_schur[idx])}
    results.append(judge("fiber-infimum", gap, scales, tol, witness))

    # one battery serves both quotient-is-cdc and quotient-markov-n1/n2
    markov = markov_check(quot, orders=(1, 2), seed=seed, count=count, tol=tol)
    try:
        _require_dirichlet(e_b, quot, tol, lambda: markov)
        cdc_from_dirichlet_form(e_b, quot, checks=False, seed=seed, tol=tol)
        results.append(CheckResult("quotient-is-cdc", True))
    except PropertyViolationError as exc:
        results.append(
            CheckResult("quotient-is-cdc", False,
                        witness={"failures": [c.check for c in exc.checks]})
        )

    results.append(CheckResult("quotient-connected", connectedness(quot)))
    results.extend(
        replace(r, check="quotient-" + r.check)
        for r in markov + leibniz_check(e_b, orders=(1,), seed=seed, count=count, tol=tol)
    )
    return results
