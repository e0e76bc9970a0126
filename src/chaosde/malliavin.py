"""Malliavin derivatives of the driver and of the SDE solution, the
Malliavin matrix, Taylor-shifted drivers, and the hypothesis diagnostics
used by the density studies.

The solution derivative is assembled from the variational triangle by the
Hilbert-valued left-point representation DX_t^k = sum_l int_0^t
Theta_t^{k,l}(s) d DF^l(s), evaluated at full grid resolution so that it
is the exact gradient of the discrete Euler flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowupError, InvalidDimensionError, OutOfRangeError, SpaceMismatchError
from .wiener import GaussianDraw, HilbertDisc, HilbertVec, make_hilbert, shift_omega
from .chaos import SymTensor, taylor_shift
from .hermite import DrivingPath, GridDriver, HermiteSpec, KernelField, build_kernels
from .sde import SdeCoefficients, SolutionBundle, solve_euler, solve_theta_all
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


def driver_derivative(field: KernelField, w: GaussianDraw, ti: int, ell: int) -> HilbertVec:
    """DF_t^ell as a Hilbert vector: entry r = q * I_{q-1}(f_t^ell(., r)).

    Supported on the component-ell block; zero on cells at or beyond t.
    """
    spec = field.spec
    space = spec.space
    if w.space != space:
        raise SpaceMismatchError("draw built over a different discretization")
    if not 0 <= ell < space.m:
        raise OutOfRangeError(f"component {ell} out of range")
    coords = np.zeros(space.basis_dim)
    space.components(coords)[ell] = field.evaluate(ti, space.components(w.xi)[ell:ell + 1])[1][0]
    return HilbertVec(space, coords)


def solution_derivative(coeffs: SdeCoefficients, bundle: SolutionBundle,
                        dfields: np.ndarray, space: HilbertDisc,
                        t_index: int = None) -> MalliavinField:
    """Assemble DX at one grid time from Theta and the DF grid.

    dfields has shape (steps+1, m, n): the component-block coordinates of
    DF^l at every grid time (GridDriver.deriv_vectors output).  Each
    (k, l) pair is a Hilbert-valued Young integral evaluated with tol=0,
    i.e. the finest-level left-point sum.  Theta is filled first when the
    bundle does not hold it yet.  Raises BlowupError (step = t_index) when
    DX or its Gram matrix is not finite.
    """
    if bundle.theta is None:
        solve_theta_all(coeffs, bundle)
    N = bundle.steps
    if t_index is None:
        t_index = N
    if not 0 < t_index <= N:
        raise InvalidDimensionError(f"t_index {t_index} outside grid")
    if dfields.shape[0] != N + 1 or dfields.shape[1] != coeffs.m:
        raise InvalidDimensionError("dfields must have shape (steps+1, m, n)")
    n = dfields.shape[2]
    if space.n != n or space.m != coeffs.m:
        raise SpaceMismatchError("space does not match the DF field layout")
    sub = slice(0, t_index + 1)
    times = bundle.times[sub]
    dx = np.zeros((coeffs.d, space.basis_dim))
    for k in range(coeffs.d):
        for ell in range(coeffs.m):
            g_path = bundle.theta[sub, t_index, k, ell]
            res = rs_integral_hvalued(times, g_path, dfields[sub, ell, :], tol=0.0)
            space.components(dx)[k, ell] += np.asarray(res.value)
    # trace Gamma = |DX|^2 bounds every |Gamma_kk'|, so one finite trace
    # means a finite DX and a finite Malliavin matrix
    if not np.isfinite(np.vdot(dx, dx)):
        raise BlowupError(f"non-finite Malliavin derivative at step {t_index}", step=t_index)
    return MalliavinField(t=float(bundle.times[t_index]), dx=dx)


def malliavin_matrix(mfield: MalliavinField) -> MalliavinMatrix:
    """Gram matrix gamma_{kk'} = <DX^k, DX^k'> with det and smallest eigenvalue."""
    gamma = mfield.dx @ mfield.dx.T
    gamma = 0.5 * (gamma + gamma.T)
    eigs = np.linalg.eigvalsh(gamma)
    return MalliavinMatrix(
        t=mfield.t, gamma=gamma, det=float(np.prod(eigs)), min_eig=float(eigs[0])
    )


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


def holder_slope(field: KernelField) -> float:
    """Log-log slope of ||f_t - f_s|| against |t - s| over time pairs."""
    T = len(field.spec.out_times)
    if T < 3:
        raise InvalidDimensionError("need at least 3 output times for a slope fit")
    xs, ys = [], []
    for i in range(T):
        for j in range(i + 1, T):
            gap = field.spec.out_times[j] - field.spec.out_times[i]
            diff2 = field.inner(i, i) + field.inner(j, j) - 2.0 * field.inner(i, j)
            diff = math.sqrt(max(diff2, 0.0))
            if diff > 0:
                xs.append(np.log(gap))
                ys.append(np.log(diff))
    return float(np.polyfit(xs, ys, 1)[0])


def hypothesis_checks(spec: HermiteSpec, coeffs: SdeCoefficients,
                      states: np.ndarray, field: KernelField = None,
                      h5_integrand=None, dfields: np.ndarray = None,
                      times: np.ndarray = None) -> dict:
    """Diagnostic report for the standing hypotheses.

    Keys:
      holder_slope      regularity exponent fit of kernel increments,
                        to compare with H (driver Holder scale)
      sigma_min_sv      min singular value of sigma over visited states
      h5_premise        ||sum_i Y(s_i) (DF_{i+1} - DF_i)|| for the supplied
                        test integrand, or None; reported without verdict
    """
    report = {}
    if field is None:
        dyadic = tuple(spec.space.hi * k / 16.0 for k in range(1, 17))
        probe_spec = HermiteSpec(q=spec.q, H=spec.H, m=spec.m, space=spec.space,
                                 s_nodes=spec.s_nodes, out_times=dyadic)
        field = build_kernels(probe_spec)
    report["holder_slope"] = holder_slope(field)

    states = np.atleast_2d(np.asarray(states, dtype=float))
    svs = [np.linalg.svd(coeffs.eval_sigma(x), compute_uv=False)[-1] for x in states]
    report["sigma_min_sv"] = float(np.min(svs)) if svs else float("nan")
    report["sigma_flag"] = bool(report["sigma_min_sv"] < 1e-8)

    if h5_integrand is not None and dfields is not None and times is not None:
        y = [float(h5_integrand(t)) for t in times]
        acc = rs_integral_hvalued(times, y, dfields[:, 0, :], tol=0.0).value
        report["h5_premise"] = float(np.linalg.norm(acc))
    else:
        report["h5_premise"] = None
    return report


def directional_quotient(coeffs: SdeCoefficients, x0, gd: GridDriver, w: GaussianDraw,
                         h: HilbertVec, eps: float) -> np.ndarray:
    """(X_T(omega + eps h) - X_T(omega)) / eps for the discrete flow, one batch."""
    pair = solve_euler(coeffs, x0, (gd.times, gd.values([w, shift_omega(w, eps, h)])))
    return (pair.path(1).X[-1] - pair.path(0).X[-1]) / eps
