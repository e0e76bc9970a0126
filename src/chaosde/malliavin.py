"""Malliavin derivative of the SDE solution, the Malliavin matrix,
Taylor-shifted drivers and difference quotients of the discrete flow.

The solution derivative at the output time t = t_N is assembled from Theta
at that time, W_i = Theta_t(t_i), by the Hilbert-valued left-point
representation DX_t^k = sum_l int_0^t Theta_t^{k,l}(s) d DF^l(s), summed
on the step grid itself, where it is the exact gradient of the discrete
Euler flow: one Young sum per noise component, all m of them in one call.
DF enters in the driver's factors, DF_i = rho_i sum_{j<i} a_j g_j, and the
Young sum is taken by parts, DX = sum_j C_j g_j with C one reverse
cumulative sum over the steps (the adjoint of the forward sum; Giles &
Glasserman, "Smoking adjoints", Risk 2006): no DF vector in R^n is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError, SpaceMismatchError
from .wiener import GaussianDraw, HilbertDisc, HilbertVec, make_hilbert
from .chaos import SymTensor, taylor_shift
from .hermite import DrivingPath, GridDriver, KernelField, PrefixFactors
from .sde import SdeCoefficients, SolutionBundle, solve_euler
from .young import rs_integral_hvalued


@dataclass(frozen=True)
class MalliavinMatrix:
    """Gram matrices of the solution derivatives of B draws, gamma (B, d, d),
    with det and min_eig (B,), NaN where |DX|^2 is not finite, and ok (B,),
    the draws whose |DX|^2 and det are finite."""

    gamma: np.ndarray
    det: np.ndarray
    min_eig: np.ndarray
    ok: np.ndarray


# a DX that overflows, or of a failed path, is left out of malliavin_matrix's ok
@np.errstate(over="ignore", invalid="ignore")
def solution_derivative(coeffs: SdeCoefficients, batch: SolutionBundle,
                        df: PrefixFactors, space: HilbertDisc) -> np.ndarray:
    """DX at the output time t_N of a block of B paths, shape (B, d,
    basis_dim), from the batch's (B, steps+1, d, m) Theta (solve_theta_all)
    and df, its DF in prefix-factor form (GridDriver.deriv_vectors of the
    block's coordinates): rho of shape (steps+1,), node weights a of shape
    (B, steps, m) and factors g of shape (steps, n), DF_i^l = rho_i
    sum_{j<i} a[b, j, l] g_j in the coordinates of component l.  One Young
    sum per noise component, over the d integrands Theta^{k,l}, and one
    stacked call for all m of them and every path.  InvalidDimensionError
    when the batch holds no such Theta; a path that failed in Euler or in
    Theta gets a non-finite DX, and nothing is raised.
    """
    N = batch.steps
    rho, a, g = df
    if (rho.shape != (N + 1,) or a.ndim != 3 or a.shape[1:] != (N, coeffs.m) or g.ndim != 2
            or len(g) != N):
        raise InvalidDimensionError("df must have shapes (steps+1,), (B, steps, m) and (steps, n)")
    if g.shape[1:] != (space.n,) or space.m != coeffs.m:
        raise SpaceMismatchError("space does not match the DF field layout")
    shape = (len(a), N + 1, coeffs.d, coeffs.m)
    if batch.theta is None or batch.theta.shape != shape:
        raise InvalidDimensionError(f"the batch needs the {shape} Theta of its paths: "
                                    "run solve_theta_all on it")
    res = rs_integral_hvalued(batch.theta.swapaxes(-1, -2), df)
    dx = np.zeros((len(a), coeffs.d, space.basis_dim))
    space.components(dx)[...] += res.value.swapaxes(-3, -2)
    return dx


# a DX that overflows, or the det of its Gram matrix, leaves the draw out of ok
@np.errstate(over="ignore", invalid="ignore")
def malliavin_matrix(dx: np.ndarray) -> MalliavinMatrix:
    """gamma_{kk'} = <DX^k, DX^k'> of each draw of a (B, d, basis_dim) DX,
    with det and smallest eigenvalue, taken where |DX|^2 (np.vdot's BLAS
    dot per draw), which bounds every |gamma_kk'|, is finite.  numpy takes
    dx @ dx^T by BLAS syrk, which fills both triangles from one, so gamma
    is symmetric bit for bit as it comes."""
    flat = dx.reshape(len(dx), 1, -1)
    finite = np.isfinite((flat @ flat.swapaxes(-1, -2))[:, 0, 0])
    gamma = dx @ dx.swapaxes(-1, -2)
    eigs = np.full(dx.shape[:2], np.nan)
    eigs[finite] = np.linalg.eigvalsh(gamma[finite])
    det = np.prod(eigs, axis=-1)
    return MalliavinMatrix(gamma=gamma, det=det, min_eig=eigs[:, 0], ok=finite & np.isfinite(det))


def shifted_driver(field: KernelField, w: GaussianDraw, h: HilbertVec, eps: float) -> DrivingPath:
    """Driver path at the shifted draw, via the finite Taylor polynomial.

    Equals simulate_path(field, shift_omega(w, eps, h)) identically, since
    every chaos value is a degree-q polynomial of the coordinates.
    """
    spec = field.spec
    space = spec.space
    if w.space != space or h.space != space:
        raise SpaceMismatchError("mismatched spaces")
    sub = make_hilbert(1, space.lo, space.hi, space.n)
    xi, hc = space.components(w.xi), space.components(h.coords)
    T = len(spec.out_times)
    values = np.empty((T, spec.m))
    for ell in range(spec.m):
        w_sub = GaussianDraw(sub, xi[ell], w.seed)
        h_sub = HilbertVec(sub, hc[ell])
        for ti in range(T):
            f = SymTensor(sub, spec.q, field.blocks[ti])
            values[ti, ell] = taylor_shift(f, w_sub, h_sub, eps)
    return DrivingPath(spec=spec, times=spec.out_times, values=values, seed=w.seed)


# a quotient of a pair that overflows is reported as BlowupError by path(k)
@np.errstate(over="ignore", invalid="ignore")
def directional_quotient(coeffs: SdeCoefficients, x0, gd: GridDriver, w: GaussianDraw,
                         h: HilbertVec, eps: float) -> np.ndarray:
    """(X_T(omega + eps h) - X_T(omega)) / eps of the discrete flow, the pair as one block."""
    xi = gd.spec.space.components(np.array([w.xi, w.xi + eps * h.coords]))
    pair = solve_euler(coeffs, x0, (gd.times, gd.values(gd.projections(xi))))
    return (pair.path(1).X[-1] - pair.path(0).X[-1]) / eps
