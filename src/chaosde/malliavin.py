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

from .errors import BlowupError, InvalidDimensionError, SpaceMismatchError
from .wiener import GaussianDraw, HilbertDisc, HilbertVec, make_hilbert
from .chaos import SymTensor, taylor_shift
from .hermite import DrivingPath, GridDriver, KernelField, PrefixFactors
from .sde import SdeCoefficients, SolutionBundle, solve_euler
from .young import rs_integral_hvalued


@dataclass(frozen=True)
class MalliavinField:
    """DX at one output time: row k holds DX^k in full-basis coordinates."""

    t: float
    dx: np.ndarray


@dataclass(frozen=True)
class MalliavinMatrix:
    """Gram matrix of the solution derivatives with its spectrum summary."""

    t: float
    gamma: np.ndarray
    det: float
    min_eig: float


# a DX that overflows is reported as BlowupError by its finiteness check
@np.errstate(over="ignore", invalid="ignore")
def solution_derivative(coeffs: SdeCoefficients, bundle: SolutionBundle,
                        df: PrefixFactors, space: HilbertDisc) -> MalliavinField:
    """Assemble DX at the output time t_N from DF on the step grid and the
    Theta at that time held by the one-path bundle (`path(k)` after
    `solve_theta_all`).

    df is DF of one draw in prefix-factor form (GridDriver.deriv_vectors
    of its (m, n) coordinates): rho of shape (steps+1,), node weights a of
    shape (steps, m) and factors g of shape (steps, n), DF_i^l = rho_i
    sum_{j<i} a[j, l] g_j in the coordinates of component l.  One Young
    sum per noise component: component l is one Hilbert-valued Young
    integral of the d integrands Theta^{k,l}, k = 1..d, the left-point sum
    on the step grid, and one stacked call takes all m of them.  Raises
    InvalidDimensionError when the bundle holds no (steps+1, d, m) Theta
    (a path taken before solve_theta_all), and BlowupError (step = steps)
    when DX or its Gram matrix is not finite.
    """
    N = bundle.steps
    rho, a, g = df
    if rho.shape != (N + 1,) or a.shape != (N, coeffs.m) or g.ndim != 2 or g.shape[0] != N:
        raise InvalidDimensionError("df must have shapes (steps+1,), (steps, m) and (steps, n)")
    if space.n != g.shape[1] or space.m != coeffs.m:
        raise SpaceMismatchError("space does not match the DF field layout")
    if bundle.theta is None or bundle.theta.shape != (N + 1, coeffs.d, coeffs.m):
        raise InvalidDimensionError(f"the bundle needs the ({N + 1}, {coeffs.d}, {coeffs.m}) "
                                    "Theta of one path: take path(k) after solve_theta_all")
    res = rs_integral_hvalued(bundle.theta.swapaxes(1, 2), df)
    dx = np.zeros((coeffs.d, space.basis_dim))
    space.components(dx)[...] += res.value.swapaxes(0, 1)
    # trace Gamma = |DX|^2 bounds every |Gamma_kk'|, so one finite trace
    # means a finite DX and a finite Malliavin matrix
    if not np.isfinite(np.vdot(dx, dx)):
        raise BlowupError(f"non-finite Malliavin derivative at step {N}", step=N)
    return MalliavinField(t=float(bundle.times[N]), dx=dx)


@np.errstate(over="ignore")
def malliavin_matrix(mfield: MalliavinField) -> MalliavinMatrix:
    """Gram matrix gamma_{kk'} = <DX^k, DX^k'> with det and smallest eigenvalue;
    BlowupError when the det, a product of finite eigenvalues, overflows."""
    gamma = mfield.dx @ mfield.dx.T
    gamma = 0.5 * (gamma + gamma.T)
    eigs = np.linalg.eigvalsh(gamma)
    det = float(np.prod(eigs))
    if not np.isfinite(det):
        raise BlowupError(f"non-finite Malliavin determinant at t={mfield.t}")
    return MalliavinMatrix(t=mfield.t, gamma=gamma, det=det, min_eig=float(eigs[0]))


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
    pair = solve_euler(coeffs, x0, (gd.times, gd.values(xi)))
    return (pair.path(1).X[-1] - pair.path(0).X[-1]) / eps
