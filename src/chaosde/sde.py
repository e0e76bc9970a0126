"""Explicit Euler solver for Young SDEs driven by Holder paths, the linear
variational equation for the kernel Theta of the Frechet derivative, and
named coefficient presets used by the checks and the CLI.

The state recursion is X_{i+1} = X_i + b(X_i) dt + sigma(X_i) dF_i with
left-point increments.  Coefficients take states with any leading axes:
b, sigma, db and dsigma map x of shape (..., d) to (..., d), (..., d, m),
(..., d, d) and (..., d, m, d), one value per state, so Euler makes one b
and one sigma call per step for a whole batch of paths, and the Jacobian
stack one db and one dsigma call for all steps of a path.

Theta rows follow the convention that makes the left-point sum
sum_i Theta_t(s_i) dpsi_i the exact derivative of the discrete flow:
Theta_t(s_i) propagates sigma(X_{s_i}) by the one-step Jacobians of steps
i+1 .. t-1 (the step at s_i itself enters through the increment, not
through Theta).  The one-step Jacobians are evaluated once for all steps
(_step_jacobians), and the whole triangle is filled from them column by
column in O(steps^2) memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BlowupError, ConfigError, InvalidDimensionError, check_budget, check_out


@dataclass(frozen=True)
class SdeCoefficients:
    """Drift, diffusion and their user-supplied spatial derivatives.

    b: R^d -> R^d, sigma: R^d -> R^{d x m}, db[k,p] = d b_k / d x_p,
    dsigma[k,l,p] = d sigma_{k,l} / d x_p, each evaluated pointwise over
    the leading axes of its argument: x of shape (..., d) gives values of
    shape (..., d), (..., d, m), (..., d, d) and (..., d, m, d).
    """

    d: int
    m: int
    b: object
    sigma: object
    db: object
    dsigma: object
    name: str = ""

    def eval_b(self, x):
        return _evaluated("b", self.b, x, (self.d,))

    def eval_sigma(self, x):
        return _evaluated("sigma", self.sigma, x, (self.d, self.m))

    def eval_db(self, x):
        return _evaluated("db", self.db, x, (self.d, self.d))

    def eval_dsigma(self, x):
        return _evaluated("dsigma", self.dsigma, x, (self.d, self.m, self.d))


def _evaluated(name, fn, x, tail):
    """fn(x) as floats, checked to have the shape (x's leading axes) + tail."""
    out = np.asarray(fn(x), dtype=float)
    want = np.shape(x)[:-1] + tail
    if out.shape != want:
        raise InvalidDimensionError(f"{name} must return shape {want} at states of shape "
                                    f"{np.shape(x)}, got {out.shape}")
    return out


#: validate_derivatives' probe count (Philox key 0) and relative tolerance
DERIV_PROBES, DERIV_TOL = 10, 1e-4


def validate_derivatives(coeffs: SdeCoefficients) -> float:
    """Central-difference check of db and dsigma at DERIV_PROBES random
    points: one b, sigma, db and dsigma call for all probes and steps.

    Returns the worst relative discrepancy; raises ConfigError above
    DERIV_TOL or at NaN.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(0)))
    x = rng.standard_normal((DERIV_PROBES, coeffs.d))
    h = 1e-6 * (1.0 + np.abs(x))
    # states[0 or 1, i, p] = x_i + or - h_ip e_p
    step = h[:, :, None] * np.eye(coeffs.d)
    states = np.stack([x[:, None] + step, x[:, None] - step])
    b, sig = coeffs.eval_b(states), coeffs.eval_sigma(states)
    # the quotient along e_p goes to the last axis: [i, k, p] and [i, k, l, p]
    db_num = np.moveaxis((b[0] - b[1]) / (2 * h)[:, :, None], 1, -1)
    ds_num = np.moveaxis((sig[0] - sig[1]) / (2 * h)[:, :, None, None], 1, -1)
    scale = 1.0 + np.max(np.abs(db_num), axis=(1, 2)) + np.max(np.abs(ds_num), axis=(1, 2, 3))
    gap = np.maximum(np.max(np.abs(db_num - coeffs.eval_db(x)), axis=(1, 2)),
                     np.max(np.abs(ds_num - coeffs.eval_dsigma(x)), axis=(1, 2, 3)))
    worst = float(np.max(gap / scale))
    if not worst <= DERIV_TOL:
        raise ConfigError(f"derivative callables disagree with finite differences ({worst:.2e})")
    return worst


@dataclass
class SolutionBundle:
    """Euler solution on a grid, with the optional Theta triangle.

    For one path X has shape (steps+1, d), driver_values (steps+1, m) and
    sigma (steps, d, m): sigma[i] is sigma(X_i) for i < steps, as evaluated
    by the Euler steps.  theta[i, j] is the d x m matrix Theta_{t_j}(t_i)
    for j >= i, zero in the other direction (s > t); it is the view
    transpose(2, 0, 1, 3) of a buffer laid out as [j, k, i, l], so column j,
    theta[:, j], is one contiguous (d, (steps+1) m) matrix.

    A batch of B paths puts a leading B axis on X, driver_values and sigma,
    and failed[k] is the step of path k's first non-finite state (0 for a
    finite path); entries of a failed path after that state are NaN.
    path(k) is path k as a one-path bundle.
    """

    times: np.ndarray
    X: np.ndarray
    driver_values: np.ndarray
    theta: np.ndarray = field(default=None)  # type: ignore[assignment]
    sigma: np.ndarray = field(default=None)  # type: ignore[assignment]
    failed: np.ndarray = field(default=None)  # type: ignore[assignment]

    @property
    def steps(self) -> int:
        return self.times.shape[0] - 1

    def path(self, k: int) -> "SolutionBundle":
        """Path k of a batch; BlowupError at its step if it went non-finite."""
        step = int(self.failed[k])
        if step:
            raise BlowupError(f"non-finite state at step {step}", step=step)
        return SolutionBundle(times=self.times, X=self.X[k],
                              driver_values=self.driver_values[k], sigma=self.sigma[k])


def _driver_arrays(driver, times):
    dtimes, dvals = driver
    dtimes = np.asarray(dtimes, dtype=float)
    dvals = np.asarray(dvals, dtype=float)
    if dvals.ndim not in (2, 3) or dvals.shape[-2] != dtimes.shape[0]:
        raise InvalidDimensionError("driver values need shape ([B,] len(driver times), m)")
    if times is None:
        times = dtimes
    times = np.asarray(times, dtype=float)
    # the solver times must be driver times, to 12 decimals
    rd, rt = np.round(dtimes, 12), np.round(times, 12)
    idx = np.searchsorted(rd, rt)
    if not (np.all(idx < rd.shape[0]) and np.array_equal(rd[idx], rt)):
        raise InvalidDimensionError("driver must be sampled at the solver grid or finer")
    return times, dvals[..., idx, :]


# overflow is expected on a path that blows up: the finiteness scan of each
# step records it, and numpy's warning would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def solve_euler(coeffs: SdeCoefficients, x0, driver, times=None) -> SolutionBundle:
    """Left-point Euler solve of dX = b dt + sigma dF along the given driver.

    driver is a (times, values) pair sampled on the solver grid or a
    refinement of it: values of shape (len(times), m) for one path, or
    (B, len(times), m) for a batch of B paths from the common x0.  Each
    step makes one b and one sigma call for the whole batch; a path's rows
    equal its own one-path solve bit for bit.  A path that goes non-finite
    is recorded in `failed` and frozen there (no further arithmetic on it)
    while the others go on.  One path is a batch of one, returned as its
    `path(0)`: BlowupError at its first non-finite state.
    """
    times, F = _driver_arrays(driver, times)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (coeffs.d,):
        raise InvalidDimensionError(f"x0 must have shape ({coeffs.d},)")
    if F.shape[-1] != coeffs.m:
        raise InvalidDimensionError("driver component count does not match m")
    paths = F if F.ndim == 3 else F[None]
    B, N = paths.shape[0], times.shape[0] - 1
    X = np.empty((B, N + 1, coeffs.d))
    X[:, 0] = x0
    sig = np.empty((B, N, coeffs.d, coeffs.m))
    failed = np.zeros(B, dtype=int)
    live = slice(None)  # the paths still finite: all of them, or their indices
    for i in range(N):
        x = X[live, i]
        dt = times[i + 1] - times[i]
        dF = paths[live, i + 1] - paths[live, i]
        s = coeffs.eval_sigma(x)
        nxt = x + coeffs.eval_b(x) * dt + (s @ dF[..., None])[..., 0]
        sig[live, i] = s
        X[live, i + 1] = nxt
        if not np.isfinite(nxt).all():
            rows = np.arange(B)[live]
            bad = ~np.isfinite(nxt).all(axis=-1)
            failed[rows[bad]] = i + 1
            live = rows[~bad]
            if live.size == 0:
                break
    for k in np.flatnonzero(failed):
        X[k, failed[k] + 1:] = np.nan
        sig[k, failed[k]:] = np.nan
    batch = SolutionBundle(times=times, X=X, driver_values=paths, sigma=sig, failed=failed)
    return batch if F.ndim == 3 else batch.path(0)


def _step_jacobians(coeffs: SdeCoefficients, bundle: SolutionBundle) -> np.ndarray:
    """Every one-step Jacobian J_j = I + db(X_j) dt_j + dsigma(X_j).dF_j,
    j < steps, stacked to shape (steps, d, d): one db and one dsigma call
    over the states X_0 .. X_{steps-1}."""
    N = bundle.steps
    dt = np.diff(bundle.times)
    dF = np.diff(bundle.driver_values, axis=0)
    X = bundle.X[:N]
    jac = np.eye(coeffs.d) + coeffs.eval_db(X) * dt[:, None, None]
    jac += np.einsum("jklp,jl->jkp", coeffs.eval_dsigma(X), dF)
    return jac


def solve_theta_all(coeffs: SdeCoefficients, bundle: SolutionBundle, out=None) -> SolutionBundle:
    """Fill the full (s, t) triangle column by column.

    Column j+1 holds sigma(X_{j+1}) on the diagonal, sigma(X_j) in row j
    and J_j Theta[:j, j] in the rows above: the entries the row oracle
    `solve_theta` (tests/oracles.py) builds row by row.  sigma(X_j) comes
    from the Euler steps (only sigma(X_N) is evaluated here) and the step
    Jacobians J_j are evaluated once for all steps.  The buffer is laid out
    as columns[j, k, i, l] = theta[i, j, k, l], so column j is one
    contiguous (d, (steps+1) m) matrix and J_j times the rows above the
    diagonal is one GEMM per column, written in place; the sigma entries
    go in by two assignments before the recursion.  The
    triangle takes O(steps^2) memory.

    out, if given, is that buffer: a C-contiguous float64 array of shape
    (steps+1, d, steps+1, m) (InvalidDimensionError otherwise) that is zero
    below the diagonal (columns[j, :, i] for i > j), as np.zeros gives it.
    Every entry on and above the diagonal is written on every call, also
    when BlowupError is raised, and none below it, so one zeroed buffer
    serves any number of paths and gives the triangle of a fresh one bit
    for bit.  bundle.theta is then a view of out, valid until out is
    filled again.  Without out the buffer is allocated.

    A non-finite entry reaches every later column, so column N is finite
    exactly when the triangle is; only when it is not is every column
    scanned, to raise BlowupError at the first one that holds a non-finite
    entry.  The invalid operations (inf - inf) in the columns after it are
    not reported as warnings.
    """
    N = bundle.steps
    d, m = coeffs.d, coeffs.m
    if out is None:
        check_budget((N + 1, N + 1, d, m))
        out = np.zeros((N + 1, d, N + 1, m))
    else:
        check_out(out, (N + 1, d, N + 1, m))
    sig = np.concatenate([bundle.sigma, coeffs.eval_sigma(bundle.X[N:])])
    jac = _step_jacobians(coeffs, bundle)
    columns = out  # columns[j, k, i, l] = theta[i, j, k, l]
    diag = np.arange(N + 1)
    columns[diag, :, diag] = sig  # Theta_{t_j}(t_j) = sigma(X_j)
    columns[diag[1:], :, diag[:-1]] = sig[:-1]  # Theta_{t_{j+1}}(t_j) = sigma(X_j)
    flat = columns.reshape(N + 1, d, (N + 1) * m)
    with np.errstate(invalid="ignore"):
        for j in range(2, N + 1):
            above = (j - 1) * m
            np.matmul(jac[j - 1], flat[j - 1, :, :above], out=flat[j, :, :above])
    if not np.isfinite(flat[N]).all():
        step = int(np.argmin(np.isfinite(flat).all(axis=(1, 2))))
        raise BlowupError(f"non-finite variational state at step {step}", step=step)
    bundle.theta = columns.transpose(2, 0, 1, 3)
    return bundle


def _constant(value):
    """Coefficient equal to the array value at every state."""
    value = np.asarray(value, dtype=float)
    return lambda x: np.broadcast_to(value, np.shape(x)[:-1] + value.shape).copy()


def _elliptic_sigma(x):
    x0, x1 = x[..., 0], x[..., 1]
    out = np.empty(np.shape(x)[:-1] + (2, 2), dtype=np.result_type(x, float))
    out[..., 0, 0] = 1.0 + 0.1 * np.sin(x1)
    out[..., 0, 1] = 0.1 * np.cos(x0)
    out[..., 1, 0] = 0.1 * np.cos(x1)
    out[..., 1, 1] = 1.0 + 0.1 * np.sin(x0)
    return out


def _elliptic_dsigma(x):
    out = np.zeros(np.shape(x)[:-1] + (2, 2, 2), dtype=np.result_type(x, float))
    out[..., 0, 0, 1] = 0.1 * np.cos(x[..., 1])
    out[..., 0, 1, 0] = -0.1 * np.sin(x[..., 0])
    out[..., 1, 0, 1] = -0.1 * np.sin(x[..., 1])
    out[..., 1, 1, 0] = 0.1 * np.cos(x[..., 0])
    return out


def _elliptic_b(x):
    return 0.1 * np.stack([np.tanh(x[..., 1]), np.tanh(x[..., 0])], axis=-1)


def _elliptic_db(x):
    # float_power squares through pow, as a scalar ** 2 does; an array ** 2
    # multiplies, which differs from pow in the last bit at some states.
    # cosh overflows at huge states, where 0.1 / inf = 0 is the derivative
    out = np.zeros(np.shape(x)[:-1] + (2, 2), dtype=np.result_type(x, float))
    with np.errstate(over="ignore"):
        out[..., 0, 1] = 0.1 / np.float_power(np.cosh(x[..., 1]), 2.0)
        out[..., 1, 0] = 0.1 / np.float_power(np.cosh(x[..., 0]), 2.0)
    return out


_RANK1_U = np.array([1.0, 0.7])
_RANK1_V = np.array([1.0, 0.5])


def preset(name: str):
    """Named coefficient sets; returns (coeffs, default x0)."""
    if name == "additive":
        return (
            SdeCoefficients(
                d=1, m=1,
                b=_constant([0.25]),
                sigma=_constant([[1.5]]),
                db=_constant(np.zeros((1, 1))),
                dsigma=_constant(np.zeros((1, 1, 1))),
                name="additive",
            ),
            np.array([0.5]),
        )
    if name == "linear-scalar":
        lam = 0.5
        return (
            SdeCoefficients(
                d=1, m=1,
                b=_constant(np.zeros(1)),
                sigma=lambda x: (lam * x)[..., None],
                db=_constant(np.zeros((1, 1))),
                dsigma=_constant([[[lam]]]),
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
        return (
            SdeCoefficients(
                d=2, m=2,
                b=_constant(np.zeros(2)),
                sigma=_constant(np.outer(_RANK1_U, _RANK1_V)),
                db=_constant(np.zeros((2, 2))),
                dsigma=_constant(np.zeros((2, 2, 2))),
                name="rank1-2d",
            ),
            np.array([0.0, 0.0]),
        )
    raise ConfigError(f"unknown preset {name!r}")
