"""Finite model of the Wiener space: orthonormal basis over a time grid,
Gaussian sampling, isonormal evaluation and Cameron-Martin shifts.

The underlying Hilbert space is L^2([lo, hi], R^m), discretized with the
normalized-indicator basis: one basis vector per (component, cell) pair,
each equal to the cell indicator divided by sqrt(delta).  In this model the
coordinates of a Gaussian draw are i.i.d. standard normals, inner products
are plain dot products, and shifting a draw along a direction h is an exact
coordinate translation.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError, SpaceMismatchError


@dataclass(frozen=True)
class HilbertDisc:
    """Discretization of L^2([lo, hi], R^m) with n cells per component.

    Basis index layout is component-major: index = ell * n + cell.  Only
    `components` reads that layout; everything else goes through it.
    """

    m: int
    lo: float
    hi: float
    n: int

    @property
    def delta(self) -> float:
        return (self.hi - self.lo) / self.n

    @property
    def basis_dim(self) -> int:
        return self.n * self.m

    def cell_edges(self) -> np.ndarray:
        """Edges of the n cells, shared by every component."""
        return self.lo + np.arange(self.n + 1) * self.delta

    def cell_midpoints(self) -> np.ndarray:
        return self.lo + (np.arange(self.n) + 0.5) * self.delta

    def components(self, coords: np.ndarray) -> np.ndarray:
        """The (..., m, n) view of basis coordinates (..., m * n): row ell
        holds component ell's cells."""
        return coords.reshape(coords.shape[:-1] + (self.m, self.n))


@dataclass(frozen=True)
class HilbertVec:
    """Coordinate vector of an element of the discretized Hilbert space."""

    space: HilbertDisc
    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.shape != (self.space.basis_dim,):
            raise InvalidDimensionError(
                f"expected {self.space.basis_dim} coordinates, got {coords.shape}"
            )
        object.__setattr__(self, "coords", coords)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))


@dataclass(frozen=True)
class GaussianDraw:
    """One realization: standard-normal coordinates against the basis."""

    space: HilbertDisc
    xi: np.ndarray
    seed: int

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        if xi.shape != (self.space.basis_dim,):
            raise InvalidDimensionError(
                f"expected {self.space.basis_dim} coordinates, got {xi.shape}"
            )
        object.__setattr__(self, "xi", xi)


def make_hilbert(m: int, lo: float, hi: float, n: int) -> HilbertDisc:
    """Build the discretized Hilbert space; validates dimensions."""
    if not (lo < hi):
        raise InvalidDimensionError(f"need lo < hi, got [{lo}, {hi}]")
    if n < 2:
        raise InvalidDimensionError(f"need at least 2 cells, got {n}")
    if m < 1:
        raise InvalidDimensionError(f"need at least 1 component, got {m}")
    return HilbertDisc(m=int(m), lo=float(lo), hi=float(hi), n=int(n))


def _check_same_space(a, b):
    if a.space != b.space:
        raise SpaceMismatchError("operands live over different discretizations")


@functools.cache
def _generator():
    """The one Generator of `sample_omega`, on a Philox rekeyed per call,
    and the state that rekeys it, whose key array each call sets: built at
    the first draw, since numpy.random is not imported before."""
    key, zeros = np.zeros(2, dtype=np.uint64), np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(np.random.Philox(key=np.uint64(0))), state, key


def sample_omega(space: HilbertDisc, seed: int, out=None):
    """Draw i.i.d. N(0,1) coordinates from a counter-based (Philox) stream.

    The stream is keyed by the seed alone, so draws are reproducible and
    order-independent across parallel workers.  One call per seed: each
    call resets the key and counter of one reused Philox through its
    `state`, which gives the coordinates of a fresh
    `Generator(Philox(key=seed))` bit for bit without building one.
    Returns the GaussianDraw, or, given out (a contiguous float array of
    space.basis_dim entries), fills out with the coordinates and returns
    it.
    """
    rng, state, key = _generator()
    key[0] = seed
    rng.bit_generator.state = state
    if out is not None:
        return rng.standard_normal(out=out)
    return GaussianDraw(space=space, xi=rng.standard_normal(space.basis_dim), seed=int(seed))


#: draws per block of `draw_blocks`, whatever the number of seeds
DRAW_BLOCK = 256
#: coordinates per block (8 MB): over a fine grid a block holds fewer draws
DRAW_BLOCK_COORDS = 1 << 20


def draw_blocks(space: HilbertDisc, seeds):
    """(seeds, xi) for consecutive blocks of at most DRAW_BLOCK seeds: the
    block's seeds, a list, and their (B, m, n) component coordinates, each
    row filled in place by the seed's `sample_omega` call.  A draw does not
    depend on the block it lands in."""
    size = max(1, min(DRAW_BLOCK, DRAW_BLOCK_COORDS // space.basis_dim))
    seeds = iter(seeds)
    while block := list(itertools.islice(seeds, size)):
        xi = np.empty((len(block), space.basis_dim))
        for seed, row in zip(block, xi):
            sample_omega(space, seed, out=row)
        yield block, space.components(xi)


def iso_gaussian(g: HilbertVec, w: GaussianDraw) -> float:
    """Isonormal evaluation X_g(w) = <g, xi>; linear in g, N(0, |g|^2) in law."""
    _check_same_space(g, w)
    return float(g.coords @ w.xi)


def shift_omega(w: GaussianDraw, eps: float, h: HilbertVec) -> GaussianDraw:
    """Translate the draw by eps * h in coordinates.

    This realizes omega + eps * j(h) exactly in the discrete model:
    iso_gaussian(g, shifted) == iso_gaussian(g, w) + eps * <g, h>
    to machine precision.
    """
    _check_same_space(h, w)
    return GaussianDraw(space=w.space, xi=w.xi + eps * h.coords, seed=w.seed)
