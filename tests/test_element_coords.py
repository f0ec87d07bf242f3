"""``Element`` on canonical coordinates against the tuple-of-blocks
reference in ``block_element``, on random algebras with repeated block
sizes and non-unit trace weights."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import nca
from nca.algebra import (
    PiecewiseLinear,
    from_cells,
    is_positive,
    random_element,
    random_positive_rows,
    random_self_adjoint_rows,
    to_cells,
)
from generators import clamp_above
import block_element as ref

RTOL = 1e-13

algebras = st.lists(st.tuples(st.integers(1, 3), st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0])),
                    min_size=1, max_size=5)


def _close(got, want, scale=1.0):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= RTOL * max(1.0, scale)


def _same(a, b):
    """An ``nca.Element`` equals a reference element to RTOL."""
    _close(a.coords, b.coords, np.abs(b.coords).max(initial=0.0))


def _setup(pairs, seed):
    alg = nca.build_algebra([n for n, _ in pairs], [w for _, w in pairs])
    rng = np.random.default_rng(seed)
    return alg, rng


@settings(max_examples=60, deadline=None)
@given(algebras, st.integers(0, 2 ** 31 - 1))
def test_ring_operations_match_block_reference(pairs, seed):
    alg, rng = _setup(pairs, seed)
    a, b = random_element(alg, rng), random_element(alg, rng)
    ra, rb = ref.BlockElement.of(a), ref.BlockElement.of(b)
    _same(a + b, ra + rb)
    _same(a - b, ra - rb)
    _same(-a, -ra)
    _same(2.5j * a, 2.5j * ra)
    _same(a * 0.75, ra * 0.75)
    _same(a * b, ra * rb)
    _same(a.adjoint(), ra.adjoint())
    _close(a.norm(), ra.norm(), ra.norm())
    _close(a.trace(), ra.trace(), abs(ra.trace()))
    inner = ref.tau_inner(ra, rb)
    _close(nca.tau_inner(a, b), inner, abs(inner))
    _close(a.full(), ra.full(), ra.norm())
    full = rng.standard_normal((alg.total_size,) * 2) + 1j * rng.standard_normal((alg.total_size,) * 2)
    _same(alg.pinch(full), ref.pinch(alg, full))
    _close(alg.to_coords(a), ref.to_coords(ra), ra.norm())
    coords = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    _same(alg.from_coords(coords), ref.from_coords(alg, coords))
    # the block views reshape the coordinates
    for m, want in zip(a.data, ra.blocks):
        assert np.array_equal(m, want) and not m.flags.writeable


@settings(max_examples=60, deadline=None)
@given(algebras, st.integers(0, 2 ** 31 - 1))
def test_spectral_operations_match_block_reference(pairs, seed):
    alg, rng = _setup(pairs, seed)
    a = random_element(alg, rng)
    h = alg.from_canonical_coords(random_self_adjoint_rows(alg, rng, 1)[0])
    p = alg.from_canonical_coords(random_positive_rows(alg, rng, 1)[0])
    for x in (a, h, p, h - 3.0 * alg.identity()):
        rx = ref.BlockElement.of(x)
        assert x.is_self_adjoint() == rx.is_self_adjoint()
        assert is_positive(x) == ref.is_positive(rx)
        got, want = x.eigenvalues(), rx.eigenvalues()
        if rx.is_self_adjoint():
            got, want = np.sort(got), np.sort(want)
        else:
            got, want = np.sort_complex(got), np.sort_complex(want)
        _close(got, want, rx.norm())
    assert not a.is_self_adjoint() and h.is_self_adjoint() and is_positive(p)
    rh = ref.BlockElement.of(h)
    three = PiecewiseLinear((-1.0, 0.2, 0.7), (0.5, -0.3, 1.1))
    for fn in (PiecewiseLinear.relu(), PiecewiseLinear.absolute(),
               clamp_above(0.3), three):
        got, lip = nca.functional_calculus(h, fn)
        want, want_lip = ref.functional_calculus(rh, fn)
        _same(got, want)
        assert lip == want_lip


@settings(max_examples=40, deadline=None)
@given(algebras, st.integers(1, 3), st.integers(0, 2 ** 31 - 1))
def test_cells_match_block_reference(pairs, order, seed):
    alg, rng = _setup(pairs, seed)
    grid = [[random_element(alg, rng) for _ in range(order)] for _ in range(order)]
    big = from_cells(alg, order, grid)
    ref_grid = [[ref.BlockElement.of(x) for x in row] for row in grid]
    _same(big, ref.from_cells(alg, order, ref_grid))
    back = to_cells(alg, order, big)
    want = ref.to_cells(alg, order, ref.BlockElement.of(big))
    for j in range(order):
        for k in range(order):
            _same(back[j][k], want[j][k])


def test_element_is_read_only_and_copies_its_input():
    alg = nca.build_algebra([2, 1, 2], [1.0, 0.5, 2.0])
    blocks = [np.eye(2), np.ones((1, 1)), np.zeros((2, 2))]
    a = alg.element(blocks)
    blocks[0][0, 0] = 7.0
    assert a.coords[0] == 1.0
    assert not a.coords.flags.writeable
    coords = np.arange(alg.dim, dtype=complex)
    b = alg.from_canonical_coords(coords)
    coords[0] = 5.0
    assert b.coords[0] == 0.0
    assert np.array_equal(alg.canonical_coords(b), np.arange(alg.dim))
