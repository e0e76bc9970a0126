"""Discrete Wiener-space model: basis layout, sampling, shifts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosde.errors import InvalidDimensionError, SpaceMismatchError
from chaosde.wiener import (
    DRAW_BLOCK,
    DRAW_BLOCK_COORDS,
    GaussianDraw,
    HilbertVec,
    draw_blocks,
    iso_gaussian,
    make_hilbert,
    sample_omega,
    shift_omega,
)


def test_space_layout():
    space = make_hilbert(2, -8.0, 1.0, 36)
    assert space.delta == pytest.approx(0.25)
    assert space.basis_dim == 72
    # the (m, n) view: row ell holds coords[ell*n:(ell+1)*n], in place
    coords = np.arange(72.0)
    cells = space.components(coords)
    assert cells.shape == (2, 36)
    assert np.shares_memory(cells, coords)
    for ell in range(2):
        assert np.array_equal(cells[ell], coords[ell * 36:(ell + 1) * 36])
    assert cells[1, 0] == 36.0 and cells[1, 35] == 71.0
    assert space.components(np.zeros((3, 72))).shape == (3, 2, 36)
    with pytest.raises(ValueError):
        space.components(np.zeros(71))
    edges = space.cell_edges()
    assert edges[0] == -8.0 and edges[-1] == 1.0
    assert np.allclose(np.diff(edges), 0.25)
    mids = space.cell_midpoints()
    assert np.allclose(mids, 0.5 * (edges[:-1] + edges[1:]))


def test_space_validation():
    with pytest.raises(InvalidDimensionError):
        make_hilbert(1, 1.0, 0.0, 8)
    with pytest.raises(InvalidDimensionError):
        make_hilbert(1, 0.0, 1.0, 1)
    with pytest.raises(InvalidDimensionError):
        make_hilbert(0, 0.0, 1.0, 8)


def test_vector_shape_checked():
    space = make_hilbert(1, 0.0, 1.0, 8)
    with pytest.raises(InvalidDimensionError):
        HilbertVec(space, np.zeros(7))
    other = make_hilbert(1, 0.0, 1.0, 16)
    with pytest.raises(SpaceMismatchError):
        iso_gaussian(HilbertVec(space, np.ones(8)), sample_omega(other, 0))


@pytest.mark.parametrize("n", [37, 64, 200])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_component_view_matches_per_component_oracle(m, n):
    # the (B, m, n) coordinates of a block of draws, bit for bit the
    # per-component loops over index ell * n + cell
    space = make_hilbert(m, -2.0, 1.0, n)
    for seeds, xi in draw_blocks(space, range(5)):
        for k, seed in enumerate(seeds):
            w = sample_omega(space, seed)
            for ell in range(m):
                assert np.array_equal(xi[k, ell], [w.xi[ell * n + i] for i in range(n)])


def test_sample_omega_reproducible_and_seed_sensitive():
    space = make_hilbert(2, -4.0, 1.0, 32)
    w1 = sample_omega(space, 7)
    w2 = sample_omega(space, 7)
    w3 = sample_omega(space, 8)
    assert np.array_equal(w1.xi, w2.xi)
    assert not np.array_equal(w1.xi, w3.xi)


def test_sample_omega_equals_a_fresh_philox_per_seed():
    # the reused generator gives each seed the coordinates of a fresh
    # Generator(Philox(key=seed)), also after calls on other seeds
    space = make_hilbert(2, -4.0, 1.0, 33)
    seeds = [0, 1, 2**63, 2**64 - 1]
    fresh = {s: np.random.Generator(np.random.Philox(key=np.uint64(s)))
             .standard_normal(space.basis_dim) for s in seeds}
    for a in seeds:
        for b in seeds:
            for s in (a, b, a):
                w = sample_omega(space, s)
                assert w.seed == s and np.array_equal(w.xi, fresh[s])


def test_draw_blocks_split_seeds_into_sample_omega_blocks():
    # consecutive blocks of at most DRAW_BLOCK seeds, from any iterable; a
    # draw's coordinates are those of its own sample_omega call
    space = make_hilbert(3, -4.0, 1.0, 10)
    seeds = [9, 2, 2**64 - 1] + list(range(100, 100 + 2 * DRAW_BLOCK))
    blocks = list(draw_blocks(space, iter(seeds)))
    assert [len(block) for block, _ in blocks] == [DRAW_BLOCK, DRAW_BLOCK, 3]
    assert [seed for block, _ in blocks for seed in block] == seeds
    for block, xi in blocks:
        assert xi.shape == (len(block), 3, 10)
        for seed, rows in zip(block, xi):
            assert np.array_equal(rows, space.components(sample_omega(space, seed).xi))
    assert list(draw_blocks(space, [])) == []
    # over a fine grid a block holds at most DRAW_BLOCK_COORDS coordinates,
    # and one draw at least
    fine = make_hilbert(2, -4.0, 1.0, DRAW_BLOCK_COORDS // 40)
    assert [len(d) for d, _ in draw_blocks(fine, range(45))] == [20, 20, 5]
    huge = make_hilbert(1, -4.0, 1.0, DRAW_BLOCK_COORDS + 1)
    assert [len(d) for d, _ in draw_blocks(huge, range(2))] == [1, 1]


def test_sample_omega_marginals():
    # pooled coordinates across seeds are standard normal
    space = make_hilbert(1, 0.0, 1.0, 64)
    xs = np.concatenate([sample_omega(space, s).xi for s in range(200)])
    M = xs.size
    assert abs(np.mean(xs)) <= 3.0 / np.sqrt(M)
    assert abs(np.var(xs) - 1.0) <= 3.0 * np.sqrt(2.0 / M)


def test_iso_gaussian_zero_draw():
    space = make_hilbert(1, 0.0, 1.0, 8)
    g = HilbertVec(space, np.arange(8.0))
    assert iso_gaussian(g, GaussianDraw(space, np.zeros(8), seed=-1)) == 0.0


def test_shift_omega_exact_translation():
    space = make_hilbert(1, -1.0, 1.0, 16)
    w = sample_omega(space, 3)
    rng = np.random.default_rng(0)
    g = HilbertVec(space, rng.standard_normal(16))
    h = HilbertVec(space, rng.standard_normal(16))
    for eps in (0.0, 0.5, -1.25):
        lhs = iso_gaussian(g, shift_omega(w, eps, h))
        rhs = iso_gaussian(g, w) + eps * (g.coords @ h.coords)
        assert lhs == pytest.approx(rhs, abs=1e-12)


@given(st.integers(0, 2**32 - 1), st.floats(-2.0, 2.0))
@settings(max_examples=30, deadline=None)
def test_iso_gaussian_linearity(seed, scale):
    space = make_hilbert(1, 0.0, 1.0, 8)
    w = sample_omega(space, seed)
    rng = np.random.default_rng(seed)
    g = HilbertVec(space, rng.standard_normal(8))
    scaled = HilbertVec(space, scale * g.coords)
    assert iso_gaussian(scaled, w) == pytest.approx(scale * iso_gaussian(g, w), abs=1e-9)


def test_draw_shape_checked():
    space = make_hilbert(1, 0.0, 1.0, 8)
    with pytest.raises(InvalidDimensionError):
        GaussianDraw(space, np.zeros(5), seed=0)
