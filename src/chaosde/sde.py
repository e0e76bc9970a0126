"""Explicit Euler solver for Young SDEs driven by Holder paths, the linear
variational equation for the kernel Theta of the Frechet derivative, and
named coefficient presets used by the checks and the CLI.

The state recursion is X_{i+1} = X_i + b(X_i) dt + sigma(X_i) dF_i with
left-point increments.  Coefficients take states with any leading axes:
b, sigma, db and dsigma map x of shape (..., d) to (..., d), (..., d, m),
(..., d, d) and (..., d, m, d), one value per state.  Euler takes b and
sigma once per step for a whole batch of paths (`SdeCoefficients.
eval_terms`), and Theta the one-step Jacobians once for all steps of
every path of a batch (`eval_jacobians`).  By default both come from the
four callables, the Jacobian stack summing dsigma.dF over the noise index
l in order, with no einsum; a coefficient set may supply fused forms of
both, which keep those bits and skip the callables' per-call overhead and
the zeros of dsigma (`elliptic-2d` does).  Both solves take and return a
batch of paths (`SolutionBundle`), and `path(k)` is one of them.

Theta rows follow the convention that makes the left-point sum
sum_i Theta_t(s_i) dpsi_i the exact derivative of the discrete flow:
Theta_t(s_i) propagates sigma(X_{s_i}) by the one-step Jacobians of steps
i+1 .. t-1 (the step at s_i itself enters through the increment, not
through Theta).  The one-step Jacobians are evaluated once for all steps
of a block of paths (_step_jacobians), and Theta at the output time,
W_i = Theta_{t_N}(t_i), is advanced from them one column of the (s, t)
triangle at a time: O(steps) memory per path, and one stacked product per
step for the whole block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowupError, ConfigError, InvalidDimensionError


@dataclass(frozen=True)
class SdeCoefficients:
    """Drift, diffusion and their user-supplied spatial derivatives.

    b: R^d -> R^d, sigma: R^d -> R^{d x m}, db[k,p] = d b_k / d x_p,
    dsigma[k,l,p] = d sigma_{k,l} / d x_p, each evaluated pointwise over
    the leading axes of its argument: x of shape (..., d) gives values of
    shape (..., d), (..., d, m), (..., d, d) and (..., d, m, d).

    terms and jacobians are optional fused forms of what the solvers take
    from the four callables, and must give their bits (validate_derivatives
    compares them at its probes): terms(x) is (b(x), sigma(x)) at the (B,
    d) states x of one Euler step, and jacobians(X, sigma, dt, dF) the
    one-step Jacobians I + db(X_j) dt_j + dsigma(X_j).dF_j at the (..., N,
    d) states X, given sigma(X) of shape (..., N, d, m) as the Euler steps
    formed it, the steps dt of shape (N,) and the driver increments dF of
    shape (..., N, m).  Left None, each is formed from the four callables.
    """

    d: int
    m: int
    b: object
    sigma: object
    db: object
    dsigma: object
    name: str = ""
    terms: object = None
    jacobians: object = None

    def eval_b(self, x):
        return _evaluated("b", self.b, x, (self.d,))

    def eval_sigma(self, x):
        return _evaluated("sigma", self.sigma, x, (self.d, self.m))

    def eval_db(self, x):
        return _evaluated("db", self.db, x, (self.d, self.d))

    def eval_dsigma(self, x):
        return _evaluated("dsigma", self.dsigma, x, (self.d, self.m, self.d))

    def eval_terms(self, x):
        """(b(x), sigma(x)) at the (B, d) states x of one Euler step."""
        if self.terms is None:
            return self.eval_b(x), self.eval_sigma(x)
        return self.terms(x)

    def eval_jacobians(self, X, sigma, dt, dF):
        """The one-step Jacobians at the (..., N, d) states X, shape (..., N,
        d, d), given sigma(X) (..., N, d, m), the steps dt (N,) and the
        driver increments dF (..., N, m)."""
        if self.jacobians is None:
            return _generic_jacobians(self, X, dt, dF)
        return self.jacobians(X, sigma, dt, dF)


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
    points: one b, sigma, db and dsigma call for all probes and steps.  The
    supplied terms and jacobians, if any, must give the callables' bits at
    the same points (jacobians at random steps and driver increments).

    Returns the worst relative discrepancy; raises ConfigError above
    DERIV_TOL or at NaN, and at a supplied form that differs.
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
    if coeffs.terms is not None:
        got_b, got_sigma = coeffs.terms(x)
        if not (np.array_equal(got_b, coeffs.eval_b(x))
                and np.array_equal(got_sigma, coeffs.eval_sigma(x))):
            raise ConfigError("the supplied Euler terms disagree with the b and sigma callables")
    if coeffs.jacobians is not None:
        dt, dF = rng.uniform(0.0, 1.0, DERIV_PROBES), rng.standard_normal((DERIV_PROBES, coeffs.m))
        if not np.array_equal(coeffs.jacobians(x, coeffs.eval_sigma(x), dt, dF),
                              _generic_jacobians(coeffs, x, dt, dF)):
            raise ConfigError("the supplied step Jacobians disagree with the db and dsigma "
                              "callables")
    return worst


class SolutionBundle:
    """Euler solution of a batch of B paths on a grid, with the optional
    Theta at the output time.

    X has shape (B, steps+1, d), driver_values (B, steps+1, m) and sigma
    (B, steps, d, m): sigma[k, i] is sigma(X_i) of path k, i < steps, as
    evaluated by the Euler steps.  theta[k, i] is the d x m matrix
    Theta_{t_N}(t_i) of path k, i = 0..steps (solve_theta_all).  failed[k]
    is the step of path k's first non-finite state (0 for a finite path);
    entries of a failed path after that state are NaN.  theta_failed[k] is
    the first column of path k's (s, t) triangle that holds a non-finite
    entry (0 for a finite one, and for a path that failed in Euler, whose
    theta is NaN).  path(k) is path k alone, without the B axis.
    """

    __slots__ = ("times", "X", "driver_values", "theta", "sigma", "failed", "theta_failed")

    def __init__(self, times: np.ndarray, X: np.ndarray, driver_values: np.ndarray,
                 theta: np.ndarray = None, sigma: np.ndarray = None, failed: np.ndarray = None,
                 theta_failed: np.ndarray = None):
        self.times, self.X, self.driver_values = times, X, driver_values
        self.theta, self.sigma, self.failed, self.theta_failed = theta, sigma, failed, theta_failed

    @property
    def steps(self) -> int:
        return self.times.shape[0] - 1

    def rows(self, index) -> "SolutionBundle":
        """The paths at index (a slice, or an array of indices) as a batch of
        their own, with their theta when the batch holds one; a slice takes
        views of this batch's arrays."""
        def part(a):
            return None if a is None else a[index]
        return SolutionBundle(times=self.times, X=self.X[index],
                              driver_values=self.driver_values[index], theta=part(self.theta),
                              sigma=part(self.sigma), failed=part(self.failed),
                              theta_failed=part(self.theta_failed))

    def path(self, k: int) -> "SolutionBundle":
        """Path k, with its theta when the batch holds one; BlowupError at
        its step if it went non-finite in Euler, else if its Theta did."""
        step = int(self.failed[k])
        if step:
            raise BlowupError(f"non-finite state at step {step}", step=step)
        if self.theta is not None:
            step = int(self.theta_failed[k])
            if step:
                raise BlowupError(f"non-finite variational state at step {step}", step=step)
        return SolutionBundle(times=self.times, X=self.X[k], driver_values=self.driver_values[k],
                              sigma=self.sigma[k],
                              theta=None if self.theta is None else self.theta[k])


# overflow is expected on a path that blows up: the finiteness scan of each
# step records it, and numpy's warning would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def solve_euler(coeffs: SdeCoefficients, x0, driver) -> SolutionBundle:
    """Left-point Euler solve of dX = b dt + sigma dF along the given driver.

    driver is a (times, values) pair: the solver grid and the driver values
    of a batch of B paths on it, shape (B, len(times), m), all started at
    x0.  Each step takes b and sigma once for the whole batch
    (`SdeCoefficients.eval_terms`), and each path's rows do not depend on
    the others in the batch.  A path that
    goes non-finite is recorded in `failed` and frozen there (no further
    arithmetic on it) while the others go on.
    """
    times, F = (np.asarray(a, dtype=float) for a in driver)
    if F.ndim != 3 or F.shape[1] != times.shape[0]:
        raise InvalidDimensionError("driver values need shape (B, len(times), m)")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (coeffs.d,):
        raise InvalidDimensionError(f"x0 must have shape ({coeffs.d},)")
    if F.shape[-1] != coeffs.m:
        raise InvalidDimensionError("driver component count does not match m")
    B, N = F.shape[0], times.shape[0] - 1
    X = np.empty((B, N + 1, coeffs.d))
    X[:, 0] = x0
    sig = np.empty((B, N, coeffs.d, coeffs.m))
    failed = np.zeros(B, dtype=int)
    # the steps as floats: numpy takes a Python float operand faster than
    # a numpy scalar
    dts, dF = np.diff(times).tolist(), np.diff(F, axis=1)[..., None]
    live = slice(None)  # the paths still finite: all of them, or their indices
    for i in range(N):
        x = X[live, i]
        b, s = coeffs.eval_terms(x)
        # x + b dt + sigma dF, formed on the (d, B) transposes: a (B, d)
        # operand that is not contiguous costs numpy one inner loop per path.
        # The noise term stays one stacked (d, m) @ (m, 1) product per path:
        # a multiply-add in numpy would round differently from BLAS's FMA
        nxt = b.T * dts[i]
        nxt += x.T
        nxt += (s @ dF[live, i])[..., 0].T
        sig[live, i] = s
        X[live, i + 1] = nxt.T
        # one sum stands for the entrywise check; it may also overflow
        if not math.isfinite(nxt.sum()):
            bad = ~np.isfinite(nxt).all(axis=0)
            if bad.any():
                rows = np.arange(B)[live]
                failed[rows[bad]] = i + 1
                live = rows[~bad]
                if live.size == 0:
                    break
    for k in np.flatnonzero(failed):
        X[k, failed[k] + 1:] = np.nan
        sig[k, failed[k]:] = np.nan
    return SolutionBundle(times=times, X=X, driver_values=F, sigma=sig, failed=failed)


def _step_jacobians(coeffs: SdeCoefficients, bundle: SolutionBundle) -> np.ndarray:
    """Every one-step Jacobian J_j = I + db(X_j) dt_j + dsigma(X_j).dF_j,
    j < steps, stacked to shape (steps, d, d) for one path and (B, steps,
    d, d) for a batch, at the states X_0 .. X_{steps-1} of every path and
    their sigma from the Euler steps (`SdeCoefficients.eval_jacobians`)."""
    N = bundle.steps
    return coeffs.eval_jacobians(bundle.X[..., :N, :], bundle.sigma, np.diff(bundle.times),
                                 np.diff(bundle.driver_values, axis=-2))


def _generic_jacobians(coeffs: SdeCoefficients, X, dt, dF) -> np.ndarray:
    """The one-step Jacobians from the callables: one db and one dsigma
    call over the (..., N, d) states X.  The dsigma term, sum_l dsigma[...,
    l, :] dF_l, is summed over l in index order and formed first, so that
    its (..., N, d, m, d) values are freed before db's are made; then db
    dt, plus I, plus that term."""
    dF = dF[..., None, None, :]
    dsigma = coeffs.eval_dsigma(X)
    noise = dsigma[..., 0, :] * dF[..., 0]
    for l in range(1, coeffs.m):
        noise += dsigma[..., l, :] * dF[..., l]
    del dsigma
    jac = coeffs.eval_db(X) * dt[:, None, None]
    jac += np.eye(coeffs.d)
    jac += noise
    return jac


def _last_columns(jac, sigma, sigma_N, scan=False):
    """Column N of the (s, t) triangle of every path of a block, laid out
    as [b, k, i, l] = Theta_{t_N}(t_i)^{k,l}, from the step Jacobians jac
    (B, N, d, d), the Euler steps' sigma (B, N, d, m) and sigma_N (B, d,
    m), sigma(X_N).

    Column j holds sigma(X_j) in row j, sigma(X_{j-1}) in row j-1 and
    J_{j-1} times column j-1 in the rows above.  Two (B, d, (N+1) m)
    buffers start with sigma(X_i) in every row i, and step j writes
    J_{j-1} times the rows above the diagonal of one into the other, as
    one stacked matmul for the block: the rows below it are never written,
    so they still hold sigma.  Each path's product has the shape of its
    own one-path GEMM.  The two buffers are separate arrays, so the one
    that does not hold column N is freed on return.

    With scan, also returns the first column j of each path that holds a
    non-finite entry (0 if none).
    """
    B, N, d, m = sigma.shape
    src = np.empty((B, d, N + 1, m))
    src[..., :N, :] = sigma.transpose(0, 2, 1, 3)
    src[..., N, :] = sigma_N
    src = src.reshape(B, d, (N + 1) * m)
    dst = src.copy()
    first = np.zeros(B, dtype=int)
    for j in range(1, N + 1):
        if j >= 2:
            above = (j - 1) * m
            np.matmul(jac[:, j - 1], src[..., :above], out=dst[..., :above])
            src, dst = dst, src
        if scan:
            bad = (first == 0) & ~np.isfinite(src[..., :(j + 1) * m]).all(axis=(1, 2))
            first[bad] = j
    return src.reshape(B, d, N + 1, m), first


# overflow is expected on a path whose Theta blows up: the finiteness check
# of the last column records it, and numpy's warning would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def solve_theta_all(coeffs: SdeCoefficients, batch: SolutionBundle) -> SolutionBundle:
    """Theta at the output time: batch.theta[k, i, k', l] =
    Theta_{t_N}(t_i)^{k',l} of path k for i = 0..N, shape (B, N+1, d, m),
    returned in the batch.

    The column recursion of the (s, t) triangle runs for the whole block
    at once and keeps only its current column (_last_columns), so a path
    takes O(steps) memory; each path's W equals column N of its own
    triangle (tests/oracles.theta_triangle) bit for bit.  sigma(X_j) comes
    from the Euler steps (only sigma(X_N) is evaluated here), and the step
    Jacobians are formed once for the block (`_step_jacobians`).  Paths that
    failed in Euler are left out; their theta is NaN.

    A non-finite entry reaches every later column, so column N is finite
    exactly when the triangle is.  Only for a path where it is not is the
    recursion run again, column by column, to find the first column that
    holds a non-finite entry: the step recorded in theta_failed, which
    path(k) raises as BlowupError.
    """
    B, N, d, m = batch.sigma.shape
    rows = np.flatnonzero(batch.failed == 0)
    live = batch if rows.size == B else batch.rows(rows)
    sigma_N = coeffs.eval_sigma(live.X[:, N])
    jac = _step_jacobians(coeffs, live)
    cols, steps = _last_columns(jac, live.sigma, sigma_N)
    bad = ~np.isfinite(cols).all(axis=(1, 2, 3))
    if bad.any():
        steps[bad] = _last_columns(jac[bad], live.sigma[bad], sigma_N[bad], scan=True)[1]
    theta = cols.transpose(0, 2, 1, 3)
    if rows.size < B:
        theta = np.full((B, N + 1, d, m), np.nan)
        theta[rows] = cols.transpose(0, 2, 1, 3)
    batch.theta, batch.theta_failed = theta, np.zeros(B, dtype=int)
    batch.theta_failed[rows] = steps
    return batch


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
    out = np.empty(np.shape(x), dtype=np.result_type(x, float))
    out[..., 0] = 0.1 * np.tanh(x[..., 1])
    out[..., 1] = 0.1 * np.tanh(x[..., 0])
    return out


def _elliptic_db(x):
    # float_power squares through pow, as a scalar ** 2 does; an array ** 2
    # multiplies, which differs from pow in the last bit at some states.
    # cosh overflows at huge states, where 0.1 / inf = 0 is the derivative
    out = np.zeros(np.shape(x)[:-1] + (2, 2), dtype=np.result_type(x, float))
    with np.errstate(over="ignore"):
        out[..., 0, 1] = 0.1 / np.float_power(np.cosh(x[..., 1]), 2.0)
        out[..., 1, 0] = 0.1 / np.float_power(np.cosh(x[..., 0]), 2.0)
    return out


def _elliptic_terms(x):
    """(b(x), sigma(x)) of elliptic-2d at the (B, 2) states x, with the
    callables' arithmetic entry by entry.  The trig is taken on the
    component rows x_1, x_0 of x, copied contiguous, into the rows of one
    (6, B) buffer: b, the diagonal of sigma, then its entries 10 and 01.
    b is returned as a view of its rows; sigma is written from the other
    four into a C-ordered (B, 2, 2) array, as matmul takes BLAS's bits
    only from C-ordered matrices."""
    rows = x.T[::-1].copy()
    out = np.empty((6, rows.shape[1]))
    np.tanh(rows, out=out[:2])
    np.sin(rows, out=out[2:4])
    np.cos(rows, out=out[4:])
    out *= 0.1
    out[2:4] += 1.0
    sigma = np.empty((rows.shape[1], 2, 2))
    entries = sigma.reshape(-1, 4).T  # the entries 00, 01, 10, 11 as rows
    entries[::3] = out[2:4]
    entries[2:0:-1] = out[4:]
    return out[:2].T, sigma


def _elliptic_jacobians(X, sigma, dt, dF):
    """The one-step Jacobians of elliptic-2d, entry by entry in the generic
    order (db dt, then + I, then the dsigma.dF sum over l) with its zero
    terms left out, which keeps every bit: each dropped term is a signed
    zero added to a finite entry.  The terms 0.1 cos(x_0) and 0.1 cos(x_1)
    of dsigma are sigma's entries 01 and 10; the rest is taken on the
    contiguous component rows of X, shape (2, ..., N)."""
    rows = np.moveaxis(X, -1, 0).copy()
    inc = np.moveaxis(dF, -1, 0)
    # cosh overflows at huge states, where 0.1 / inf = 0 is the derivative
    with np.errstate(over="ignore"):
        slope = 0.1 / np.float_power(np.cosh(rows), 2.0)
    slope *= dt
    sin = np.sin(rows)
    sin *= -0.1
    jac = np.empty(X.shape[:-1] + (2, 2))
    np.multiply(sin[0], inc[1], out=jac[..., 0, 0])
    np.multiply(sigma[..., 1, 0], inc[0], out=jac[..., 0, 1])
    np.multiply(sigma[..., 0, 1], inc[1], out=jac[..., 1, 0])
    np.multiply(sin[1], inc[0], out=jac[..., 1, 1])
    jac[..., 0, 0] += 1.0
    jac[..., 1, 1] += 1.0
    jac[..., 0, 1] += slope[1]
    jac[..., 1, 0] += slope[0]
    return jac


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
                terms=_elliptic_terms, jacobians=_elliptic_jacobians,
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
