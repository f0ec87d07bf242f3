"""Test inputs that the library itself never builds: the double-commutator
generator, the inner and point-permutation automorphisms fed to
``group_action_cdc``, and the clamp min(t, r) as a piecewise-linear
function.
"""
from typing import Sequence

import numpy as np

from nca.algebra import (
    DEFAULT_POS_TOL,
    Algebra,
    Element,
    PiecewiseLinear,
    SuperOperator,
    left_multiplication,
    right_multiplication,
)
from nca.errors import InputError


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


def clamp_above(r) -> PiecewiseLinear:
    """min(t, r)"""
    r = float(r)
    return PiecewiseLinear((r - 1.0, r, r + 1.0), (r - 1.0, r, r))
