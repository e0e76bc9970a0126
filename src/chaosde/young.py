"""Pathwise Riemann-Stieltjes (Young) integration as a left-point sum.

The integral of g against Phi is the limit of the left-point sums
sum g(u_i) (Phi(u_{i+1}) - Phi(u_i)) along refining partitions; it exists
when the Holder exponents of the integrand and the integrator sum above 1.
Paths enter as sampled arrays on one grid, and the sum is taken on that
grid: along a discrete flow stepped on it, the sum is the exact integral.
The integrand is a stack of s groups of r paths and the integrator a stack
of s Hilbert-valued paths, one coordinate per column: group j integrates
against integrator j, all in one call.
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
    """Stacked Hilbert-valued Young integrals: sum g(u)(Phi(v) - Phi(u)) in
    coordinates.

    g has shape (T, s, r), s groups of r integrands, and Phi shape
    (T, s, dim), s integrators, all sampled on one grid.  The value has
    shape (s, r, dim): the increments of Phi are formed once over the whole
    stack, and row (j, c) is one GEMV of g[:-1, j, c] with increments j,
    the bits of the sum for g[:, j, c] and Phi[:, j] alone, whatever the
    strides of the inputs.
    """
    g = np.asarray(g, dtype=float)
    Phi = np.asarray(Phi, dtype=float)
    if g.ndim != 3 or Phi.ndim != 3:
        raise InvalidDimensionError("g and Phi must be (time, stack, integrand) and "
                                    "(time, stack, coordinate)")
    if g.shape[:2] != Phi.shape[:2]:
        raise InvalidDimensionError("paths must be sampled on the common grid, "
                                    "one integrator per integrand group")
    inc = Phi[1:] - Phi[:-1]
    # one GEMV per row: a GEMM over a group would reduce in another order
    value = np.empty((g.shape[1], g.shape[2], Phi.shape[2]))
    for j in range(g.shape[1]):
        for c in range(g.shape[2]):
            np.matmul(g[:-1, j, c], inc[:, j], out=value[j, c])
    return YoungResult(value, 1)
