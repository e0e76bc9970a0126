"""Explicit Euler solver for Young SDEs driven by Holder paths, the linear
variational equation for the kernel Theta of the Frechet derivative, and
named coefficient presets used by the checks and the CLI.

The state recursion is X_{i+1} = X_i + b(X_i) dt + sigma(X_i) dF_i with
left-point increments.  Theta rows follow the convention that makes the
left-point sum sum_i Theta_t(s_i) dpsi_i the exact derivative of the
discrete flow: Theta_t(s_i) propagates sigma(X_{s_i}) by the one-step
Jacobians of steps i+1 .. t-1 (the step at s_i itself enters through the
increment, not through Theta).  The whole triangle is filled column by
column, evaluating sigma and each one-step Jacobian once per step:
O(steps) coefficient calls, O(steps^2) memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BlowupError, ConfigError, InvalidDimensionError
from .hermite import DrivingPath


@dataclass(frozen=True)
class SdeCoefficients:
    """Drift, diffusion and their user-supplied spatial derivatives.

    b: R^d -> R^d, sigma: R^d -> R^{d x m}, db[k,p] = d b_k / d x_p,
    dsigma[k,l,p] = d sigma_{k,l} / d x_p.
    """

    d: int
    m: int
    b: object
    sigma: object
    db: object
    dsigma: object
    name: str = ""

    def eval_b(self, x):
        out = np.asarray(self.b(x), dtype=float)
        if out.shape != (self.d,):
            raise InvalidDimensionError(f"b must return shape ({self.d},)")
        return out

    def eval_sigma(self, x):
        out = np.asarray(self.sigma(x), dtype=float)
        if out.shape != (self.d, self.m):
            raise InvalidDimensionError(f"sigma must return shape ({self.d},{self.m})")
        return out

    def eval_db(self, x):
        out = np.asarray(self.db(x), dtype=float)
        if out.shape != (self.d, self.d):
            raise InvalidDimensionError(f"db must return shape ({self.d},{self.d})")
        return out

    def eval_dsigma(self, x):
        out = np.asarray(self.dsigma(x), dtype=float)
        if out.shape != (self.d, self.m, self.d):
            raise InvalidDimensionError(
                f"dsigma must return shape ({self.d},{self.m},{self.d})"
            )
        return out


def validate_derivatives(coeffs: SdeCoefficients, probes: int = 10, seed: int = 0,
                         tol: float = 1e-4) -> float:
    """Finite-difference check of db and dsigma at random probe points.

    Returns the worst relative discrepancy; raises ConfigError above tol.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    worst = 0.0
    for _ in range(probes):
        x = rng.standard_normal(coeffs.d)
        h = 1e-6 * (1.0 + np.abs(x))
        db_num = np.empty((coeffs.d, coeffs.d))
        ds_num = np.empty((coeffs.d, coeffs.m, coeffs.d))
        for p in range(coeffs.d):
            e = np.zeros(coeffs.d)
            e[p] = h[p]
            db_num[:, p] = (coeffs.eval_b(x + e) - coeffs.eval_b(x - e)) / (2 * h[p])
            ds_num[:, :, p] = (coeffs.eval_sigma(x + e) - coeffs.eval_sigma(x - e)) / (2 * h[p])
        scale = 1.0 + float(np.max(np.abs(db_num))) + float(np.max(np.abs(ds_num)))
        gap = max(
            float(np.max(np.abs(db_num - coeffs.eval_db(x)))),
            float(np.max(np.abs(ds_num - coeffs.eval_dsigma(x)))),
        )
        worst = max(worst, gap / scale)
    if worst > tol:
        raise ConfigError(f"derivative callables disagree with finite differences ({worst:.2e})")
    return worst


@dataclass
class SolutionBundle:
    """Euler solution on a grid, with the optional Theta triangle.

    theta[i, j] is the d x m matrix Theta_{t_j}(t_i) for j >= i, zero
    above the diagonal in the other direction (s > t).
    """

    times: np.ndarray
    X: np.ndarray
    driver_values: np.ndarray
    x0: np.ndarray
    theta: np.ndarray = field(default=None)  # type: ignore[assignment]
    driver: DrivingPath = None

    @property
    def steps(self) -> int:
        return self.times.shape[0] - 1


def _driver_arrays(driver, times):
    if isinstance(driver, DrivingPath):
        dtimes = np.concatenate([[0.0], np.asarray(driver.times, dtype=float)])
        dvals = np.vstack([np.zeros((1, driver.spec.m)), driver.values])
    else:
        dtimes, dvals = driver
        dtimes = np.asarray(dtimes, dtype=float)
        dvals = np.atleast_2d(np.asarray(dvals, dtype=float))
        if dvals.shape[0] != dtimes.shape[0]:
            dvals = dvals.T
    if times is None:
        times = dtimes
    times = np.asarray(times, dtype=float)
    if not np.all(np.isin(np.round(times, 12), np.round(dtimes, 12))):
        raise InvalidDimensionError("driver must be sampled at the solver grid or finer")
    idx = np.searchsorted(np.round(dtimes, 12), np.round(times, 12))
    return times, dvals[idx]


def solve_euler(coeffs: SdeCoefficients, x0, driver, times=None) -> SolutionBundle:
    """Left-point Euler solve of dX = b dt + sigma dF along the given driver.

    driver is a DrivingPath or a (times, values) pair sampled on the solver
    grid or a refinement of it.
    """
    times, F = _driver_arrays(driver, times)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (coeffs.d,):
        raise InvalidDimensionError(f"x0 must have shape ({coeffs.d},)")
    if F.shape[1] != coeffs.m:
        raise InvalidDimensionError("driver component count does not match m")
    N = times.shape[0] - 1
    X = np.empty((N + 1, coeffs.d))
    X[0] = x0
    for i in range(N):
        dt = times[i + 1] - times[i]
        dF = F[i + 1] - F[i]
        X[i + 1] = X[i] + coeffs.eval_b(X[i]) * dt + coeffs.eval_sigma(X[i]) @ dF
        if not np.all(np.isfinite(X[i + 1])):
            raise BlowupError(f"non-finite state at step {i + 1}", step=i + 1)
    dp = driver if isinstance(driver, DrivingPath) else None
    return SolutionBundle(times=times, X=X, driver_values=F, x0=x0, driver=dp)


def _step_jacobian(coeffs: SdeCoefficients, x, dt, dF):
    """I + db(x) dt + dsigma(x).dF, the one-step state Jacobian."""
    J = np.eye(coeffs.d) + coeffs.eval_db(x) * dt
    J += np.einsum("klp,l->kp", coeffs.eval_dsigma(x), dF)
    return J


def solve_theta(coeffs: SdeCoefficients, bundle: SolutionBundle, s_index: int) -> np.ndarray:
    """One row of the variational triangle: Theta_{t_j}(t_s) for all j.

    Theta(s, s) = sigma(X_s); for j > s the initial matrix is propagated by
    the Jacobians of steps s+1 .. j-1, so the first increment after s is
    skipped.  With this convention the left-point representation of the
    Frechet derivative is the exact derivative of the discrete flow.
    Entries with j < s are zero.
    """
    N = bundle.steps
    if not 0 <= s_index <= N:
        raise InvalidDimensionError(f"s_index {s_index} outside grid")
    row = np.zeros((N + 1, coeffs.d, coeffs.m))
    sig = coeffs.eval_sigma(bundle.X[s_index])
    row[s_index] = sig
    cur = sig
    for j in range(s_index + 1, N + 1):
        row[j] = cur
        if j < N:
            dt = bundle.times[j + 1] - bundle.times[j]
            dF = bundle.driver_values[j + 1] - bundle.driver_values[j]
            cur = _step_jacobian(coeffs, bundle.X[j], dt, dF) @ cur
        if not np.all(np.isfinite(row[j])):
            raise BlowupError(f"non-finite variational state at step {j}", step=j)
    return row


def solve_theta_all(coeffs: SdeCoefficients, bundle: SolutionBundle) -> SolutionBundle:
    """Fill the full (s, t) triangle column by column.

    Column j+1 holds sigma(X_{j+1}) on the diagonal, sigma(X_j) in row j
    and J_j Theta[:j, j] in the rows above: the entries solve_theta builds
    row by row.  sigma(X_j) and the step Jacobians J_j are evaluated once
    per step, so the work is O(steps) coefficient calls and batched
    products; the triangle itself takes O(steps^2) memory.  A non-finite
    entry raises BlowupError at the first column that holds one.
    """
    N = bundle.steps
    d, m = coeffs.d, coeffs.m
    sig = np.array([coeffs.eval_sigma(x) for x in bundle.X])
    dt = np.diff(bundle.times)
    dF = np.diff(bundle.driver_values, axis=0)
    jac = np.eye(d) + np.array([coeffs.eval_db(x) for x in bundle.X[:N]]) * dt[:, None, None]
    jac += np.einsum("jklp,jl->jkp", np.array([coeffs.eval_dsigma(x) for x in bundle.X[:N]]), dF)
    theta = np.zeros((N + 1, N + 1, d, m))
    for j in range(N + 1):
        if j > 0:
            theta[:j - 1, j] = jac[j - 1] @ theta[:j - 1, j - 1]
            theta[j - 1, j] = sig[j - 1]
        theta[j, j] = sig[j]
        if not np.all(np.isfinite(theta[:j + 1, j])):
            raise BlowupError(f"non-finite variational state at step {j}", step=j)
    bundle.theta = theta
    return bundle


def frechet_directional(coeffs: SdeCoefficients, bundle: SolutionBundle, psi) -> np.ndarray:
    """Directional Frechet derivative path: sum_l int_0^t Theta_t(s) dpsi_s^l.

    psi is an R^m path on the solver grid; returns an R^d path.  Left-point
    sums at full grid resolution, matching the Theta convention.
    """
    if bundle.theta is None:
        solve_theta_all(coeffs, bundle)
    psi = np.atleast_2d(np.asarray(psi, dtype=float))
    if psi.shape[0] != bundle.times.shape[0]:
        psi = psi.T
    if psi.shape != (bundle.times.shape[0], coeffs.m):
        raise InvalidDimensionError("psi must be an R^m path on the solver grid")
    N = bundle.steps
    dpsi = np.diff(psi, axis=0)
    # out[j] = sum_{i<j} Theta_{t_j}(t_i) dpsi_i: the diagonal i = j is left out
    below = np.triu(np.ones((N, N + 1)), k=1)[:, :, None, None]
    return np.einsum("ijkl,il->jk", bundle.theta[:N] * below, dpsi)


def _elliptic_sigma(x):
    return np.array(
        [
            [1.0 + 0.1 * np.sin(x[1]), 0.1 * np.cos(x[0])],
            [0.1 * np.cos(x[1]), 1.0 + 0.1 * np.sin(x[0])],
        ]
    )


def _elliptic_dsigma(x):
    out = np.zeros((2, 2, 2))
    out[0, 0, 1] = 0.1 * np.cos(x[1])
    out[0, 1, 0] = -0.1 * np.sin(x[0])
    out[1, 0, 1] = -0.1 * np.sin(x[1])
    out[1, 1, 0] = 0.1 * np.cos(x[0])
    return out


def _elliptic_b(x):
    return 0.1 * np.array([np.tanh(x[1]), np.tanh(x[0])])


def _elliptic_db(x):
    out = np.zeros((2, 2))
    out[0, 1] = 0.1 / np.cosh(x[1]) ** 2
    out[1, 0] = 0.1 / np.cosh(x[0]) ** 2
    return out


_RANK1_U = np.array([1.0, 0.7])
_RANK1_V = np.array([1.0, 0.5])


def preset(name: str):
    """Named coefficient sets; returns (coeffs, default x0)."""
    if name == "additive":
        return (
            SdeCoefficients(
                d=1, m=1,
                b=lambda x: np.array([0.25]),
                sigma=lambda x: np.array([[1.5]]),
                db=lambda x: np.zeros((1, 1)),
                dsigma=lambda x: np.zeros((1, 1, 1)),
                name="additive",
            ),
            np.array([0.5]),
        )
    if name == "linear-scalar":
        lam = 0.5
        return (
            SdeCoefficients(
                d=1, m=1,
                b=lambda x: np.zeros(1),
                sigma=lambda x: np.array([[lam * x[0]]]),
                db=lambda x: np.zeros((1, 1)),
                dsigma=lambda x: np.array([[[lam]]]),
                name="linear-scalar",
            ),
            np.array([1.0]),
        )
    if name == "elliptic-2d":
        return (
            SdeCoefficients(
                d=2, m=2,
                b=_elliptic_b, sigma=_elliptic_sigma,
                db=_elliptic_db, dsigma=_elliptic_dsigma,
                name="elliptic-2d",
            ),
            np.array([0.1, -0.2]),
        )
    if name == "rank1-2d":
        sig = np.outer(_RANK1_U, _RANK1_V)
        return (
            SdeCoefficients(
                d=2, m=2,
                b=lambda x: np.zeros(2),
                sigma=lambda x, s=sig: s.copy(),
                db=lambda x: np.zeros((2, 2)),
                dsigma=lambda x: np.zeros((2, 2, 2)),
                name="rank1-2d",
            ),
            np.array([0.0, 0.0]),
        )
    raise ConfigError(f"unknown preset {name!r}")
