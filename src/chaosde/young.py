"""Pathwise Riemann-Stieltjes (Young) integration as a left-point sum.

The integral of g against Phi is the limit of the left-point sums
sum g(u_i) (Phi(u_{i+1}) - Phi(u_i)) along refining partitions; it exists
when the Holder exponents of the integrand and the integrator sum above 1.
Paths enter as sampled arrays on one grid, and the sum is taken on that
grid: along a discrete flow stepped on it, the sum is the exact integral.
The integrand is r paths side by side and the integrator Hilbert-valued,
one coordinate per column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError


@dataclass(frozen=True)
class YoungResult:
    """The integral value and the number of partitions summed (one)."""

    value: np.ndarray
    refinement_levels: int


def rs_integral_hvalued(g, Phi) -> YoungResult:
    """Hilbert-valued Young integrals: sum g(u)(Phi(v) - Phi(u)) in coordinates.

    g has shape (T, r), r integrands, and Phi shape (T, dim), both sampled
    on one grid.  The value has shape (r, dim): the increments of Phi are
    formed once, and row c is one GEMV of g[:-1, c] with them, the bits of
    the sum for g[:, c] alone.
    """
    g = np.asarray(g, dtype=float)
    Phi = np.asarray(Phi, dtype=float)
    if g.ndim != 2 or Phi.ndim != 2:
        raise InvalidDimensionError("g and Phi must be (time, integrand) and (time, coordinate)")
    if g.shape[0] != Phi.shape[0]:
        raise InvalidDimensionError("paths must be sampled on the common grid")
    inc = Phi[1:] - Phi[:-1]
    return YoungResult(np.stack([col[:-1] @ inc for col in g.T]), 1)
