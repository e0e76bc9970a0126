"""Pathwise Riemann-Stieltjes (Young) integration on dyadic grids.

Integrals are limits of left-point sums sum g(u_i) (Phi(u_{i+1}) - Phi(u_i))
along refining partitions; they converge when the Holder exponents of the
integrand and the integrator sum above 1.  Paths enter as sampled arrays on
a common grid whose interior the integrator refines dyadically: a scalar
integrand g, or r of them side by side, and a Hilbert-valued integrator
Phi, one coordinate per column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError

MAX_LEVELS = 14
DEFAULT_TOL = 1e-6


@dataclass(frozen=True)
class YoungResult:
    """Converged (or best-effort) integral value with refinement diagnostics."""

    value: object
    refinement_levels: int
    last_delta: float
    converged: bool


def _level_strides(npts: int):
    """Subsampling strides for dyadic refinement, coarsest first.

    The finest grid has npts points; level k keeps every stride-th point.
    Requires npts - 1 to be a power of two times an integer base; plain
    power-of-two grids give the full dyadic tower.
    """
    n = npts - 1
    strides = [1]
    while n % 2 == 0 and len(strides) < MAX_LEVELS:
        n //= 2
        strides.append(strides[-1] * 2)
    return strides[::-1]


def _left_sum(g: np.ndarray, Phi: np.ndarray, stride: int):
    """The left-point sum at one stride: the increments of Phi formed once,
    then one GEMV per integrand column, each summed in the order of its
    own one-column sum."""
    inc = Phi[stride::stride] - Phi[:-stride:stride]
    if g.ndim == 1:
        return g[:-stride:stride] @ inc
    return np.stack([col[:-stride:stride] @ inc for col in g.T])


def rs_integral_hvalued(times, g, Phi, tol: float = DEFAULT_TOL) -> YoungResult:
    """Hilbert-valued Young integral: sum g(u)(Phi(v) - Phi(u)) in coordinates.

    Phi has shape (len(times), dim).  For g of shape (len(times),) the
    value is a dim-vector; for g of shape (len(times), r), r integrands
    against the same Phi, it has shape (r, dim), and row c is the value
    for g[:, c] alone, bit for bit.
    Left-point sums on dyadic refinements until two successive levels agree
    to tol (relative to max(1, |value|)) or the refinement tower is
    exhausted.  tol = 0 returns the finest sum alone: one level, last_delta
    inf and converged False.
    """
    times = np.asarray(times, dtype=float)
    g = np.asarray(g, dtype=float)
    Phi = np.asarray(Phi, dtype=float)
    if Phi.ndim != 2:
        raise InvalidDimensionError("Phi must be a (time, coordinate) array")
    if g.ndim not in (1, 2):
        raise InvalidDimensionError("g must be a (time,) or (time, integrand) array")
    if g.shape[0] != times.shape[0] or Phi.shape[0] != times.shape[0]:
        raise InvalidDimensionError("paths must be sampled on the common grid")
    if times.ndim != 1 or times.shape[0] < 2 or not np.all(np.diff(times) > 0):
        raise InvalidDimensionError("the grid needs at least 2 strictly increasing points")
    if tol == 0.0:
        # no level can meet a zero tolerance: the finest sum, on its own
        return YoungResult(_left_sum(g, Phi, 1), 1, np.inf, False)
    prev = None
    delta = np.inf
    levels = 0
    value = None
    for stride in _level_strides(times.shape[0]):
        value = _left_sum(g, Phi, stride)
        levels += 1
        if prev is not None:
            delta = float(np.max(np.abs(value - prev)))
            scale = max(1.0, float(np.max(np.abs(value))))
            if delta < tol * scale:
                return YoungResult(value, levels, delta, True)
        prev = value
    converged = bool(delta <= tol * max(1.0, float(np.max(np.abs(value)))))
    return YoungResult(value, levels, float(delta), converged)
