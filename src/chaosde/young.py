"""Pathwise Riemann-Stieltjes (Young) integration as a left-point sum.

The integral of g against Phi is the limit of the left-point sums
sum g(u_i) (Phi(u_{i+1}) - Phi(u_i)) along refining partitions; it exists
when the Holder exponents of the integrand and the integrator sum above 1.
Paths enter as sampled arrays on one grid, and the sum is taken on that
grid: along a discrete flow stepped on it, the sum is the exact integral.
The integrand is a stack of s groups of r paths and the integrator s
Hilbert-valued paths in prefix-factor form, Phi_i = scale_i sum_{k<i}
weights_k basis_k (the `hermite.PrefixFactors` layout): group j integrates
against integrator j, all in one call, and the sum is taken by parts over
the factors, so that Phi itself is never formed.
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
    """Stacked Hilbert-valued Young integrals: sum_i g_i (Phi_{i+1} - Phi_i)
    in coordinates.

    g has shape (..., T, s, r), s groups of r integrands, and Phi is a
    triple (scale, weights, basis) of shapes (T,), (..., T-1, s) and (T-1,
    dim): the s integrators Phi_i^j = scale_i sum_{k<i} weights[..., k, j]
    basis_k, Phi_0 = 0, on the grid of g.  The value has shape (..., s, r,
    dim), each leading index bit for bit its own slice's value.

    Summation by parts gives sum_{i=1}^{T-1} V_i sum_{k<i} weights_k basis_k
    with V_i = scale_i (g_{i-1} - g_i) and V_{T-1} = scale_{T-1} g_{T-2}, so
    the value is sum_k C_k basis_k with C_k = weights_k sum_{i>k} V_i: one
    reverse cumulative sum and one (s r, T-1) x (T-1, dim) GEMM per slice.
    """
    g = np.asarray(g, dtype=float)
    scale, weights, basis = (np.asarray(a, dtype=float) for a in Phi)
    if g.ndim < 3 or basis.ndim != 2:
        raise InvalidDimensionError("g and the basis of Phi must be (..., time, stack, integrand) "
                                    "and (time, coordinate)")
    *lead, T, s, r = g.shape
    if scale.shape != (T,) or weights.shape != (*lead, T - 1, s) or basis.shape[0] != T - 1:
        raise InvalidDimensionError("paths must be sampled on the common grid, "
                                    "one integrator per integrand group")
    V = g[..., :-1, :, :].copy()
    V[..., :-1, :, :] -= g[..., 1:-1, :, :]
    V *= scale[1:, None, None]
    C = np.cumsum(V[..., ::-1, :, :], axis=-3)[..., ::-1, :, :] * weights[..., None]
    value = C.reshape(*lead, T - 1, s * r).swapaxes(-1, -2) @ basis
    return YoungResult(value.reshape(*lead, s, r, basis.shape[1]), 1)
