"""Hermite-process drivers: kernel construction on the discrete Wiener
space, path simulation, an independent central-limit oracle, and the
self-similarity statistic for the law of localized Malliavin derivatives.

A Hermite process of order q and Hurst index H in (1/2, 1) is Z_t =
I_q(L_t) with the homogeneous kernel

    L_t(x_1..x_q) = c(H,q) * int_0^t prod_j (s - x_j)_+^{H0 - 3/2} ds,

H0 = 1 + (H-1)/q.  Discretely each kernel becomes an order-q coefficient
block over the cells of one noise component; m components use m disjoint
blocks of the same shape, which makes distinct components exactly
orthogonal at the kernel level.  Evaluators take the (m, n) component view
of a draw (`HilbertDisc.components`), or the (B, m, n) one of a block of
draws (`wiener.draw_blocks`), and return every component of every draw at
once.

Discretization note: the kernel is unbounded on the diagonal for q >= 2
(pointwise exponent H0 - 3/2 < -1/2), so sampling it at cell midpoints
does not converge.  Coefficients are instead cell averages computed from
the closed-form antiderivative in each x_j, which is bounded, and the
time integral is done by midpoint quadrature (exactly, for q = 1).  The
small remaining diagonal-band mass is restored by scaling each kernel to
its exact norm t^{2H}/q!, so that E[Z_t^2] = t^{2H} holds by the
isometry.

Storage note: the midpoint rule makes every block a short sum of rank-one
powers rho * sum_k beta_k g_k^{(x)q}, so kernels are kept as the factors
(g, beta, rho).  Values and derivatives follow exactly from I_q(g^{(x)q}) =
H_q(<g, xi>; |g|^2), the Hermite polynomial of variance |g|^2, in
O(s_nodes * n) per time; the dense block is built only when a caller asks
for it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    InvalidDimensionError,
    OutOfRangeError,
    SpaceMismatchError,
    UnsupportedOrderError,
    check_budget,
)
from .wiener import GaussianDraw, HilbertDisc, HolderConfig, draw_blocks, make_hilbert
from .chaos import MAX_ORDER, hermite_poly


def hurst_aux(H: float, q: int) -> tuple:
    """Auxiliary Hurst index H0 = 1 + (H-1)/q and the kernel constant.

    c(H,q) = sqrt(H(2H-1) / (q! * B(H0-1/2, 2-2H0)^q)), with the Beta
    function evaluated through log-gamma for stability.  This is the one
    place H0 and c are computed.
    """
    if not 0.5 < H < 1.0:
        raise OutOfRangeError(f"H must lie in (1/2, 1), got {H}")
    if q < 1:
        raise OutOfRangeError(f"order must be >= 1, got {q}")
    H0 = 1.0 + (H - 1.0) / q
    a, b = H0 - 0.5, 2.0 - 2.0 * H0
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    c = math.sqrt(H * (2.0 * H - 1.0) / math.factorial(q) * math.exp(-q * log_beta))
    return H0, c


@dataclass(frozen=True)
class HermiteSpec:
    """Parameters of a discretized m-component Hermite driver."""

    q: int
    H: float
    m: int
    space: HilbertDisc
    s_nodes: int = 64
    out_times: tuple = (0.25, 0.5, 1.0)

    def __post_init__(self):
        if not 1 <= self.q <= MAX_ORDER:
            raise UnsupportedOrderError(f"order {self.q} outside 1..{MAX_ORDER}")
        hurst_aux(self.H, self.q)  # validates H
        if self.space.m != self.m:
            raise SpaceMismatchError("component count of spec and space disagree")
        if self.space.lo >= 0.0:
            raise InvalidDimensionError("noise support must extend below 0 (lo < 0)")
        times = tuple(float(t) for t in self.out_times)
        if list(times) != sorted(times) or len(set(times)) != len(times):
            raise InvalidDimensionError("out_times must be strictly increasing")
        if not all(0.0 < t <= self.space.hi for t in times):
            raise OutOfRangeError("out_times must lie in (0, hi]")
        if self.s_nodes < 1:
            raise InvalidDimensionError("s_nodes must be positive")
        # the kernel factors: one row of n+1 cell edges per quadrature node at
        # q >= 2, and at q = 1 the two ends 0 and t of the exact time integral
        check_budget((self.s_nodes if self.q >= 2 else 2, self.space.n + 1))
        object.__setattr__(self, "out_times", times)


def kernel_eval(spec: HermiteSpec, t: float, xs) -> float:
    """Pointwise kernel value L_t(x_1..x_q).

    q = 1 uses the closed antiderivative; q >= 2 uses midpoint quadrature
    with s_nodes nodes on (max_j x_j v 0, t].  Zero when any x_j >= t.
    """
    if not 0.0 < t <= spec.space.hi:
        raise OutOfRangeError(f"t must lie in (0, hi], got {t}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.shape != (spec.q,):
        raise InvalidDimensionError(f"expected {spec.q} arguments, got {xs.shape}")
    if np.any(xs >= t):
        return 0.0
    H0, c = hurst_aux(spec.H, spec.q)
    if spec.q == 1:
        x = float(xs[0])
        p = H0 - 0.5
        return c / p * (max(t - x, 0.0) ** p - max(-x, 0.0) ** p)
    lo_s = max(float(np.max(xs)), 0.0)
    s = lo_s + (t - lo_s) * (np.arange(spec.s_nodes) + 0.5) / spec.s_nodes
    w = (t - lo_s) / spec.s_nodes
    vals = np.prod(np.clip(s[:, None] - xs[None, :], 0.0, None) ** (H0 - 1.5), axis=1)
    return float(c * w * vals.sum())


def _cell_avg_matrix(space: HilbertDisc, s: np.ndarray, a: float) -> np.ndarray:
    """g[k, i] = integral over cell i of (s_k - x)_+^a dx (closed form)."""
    edges = space.cell_edges()
    lpow = np.clip(s[:, None] - edges[None, :-1], 0.0, None) ** (a + 1.0)
    rpow = np.clip(s[:, None] - edges[None, 1:], 0.0, None) ** (a + 1.0)
    return (lpow - rpow) / (a + 1.0)


def _kernel_factors(spec: HermiteSpec, t: float) -> tuple:
    """Uncalibrated factors (g, beta) of L_t over one component.

    The block is sum_k beta_k g_k^{(x)q}.  For q >= 2, g_k are the cell
    averages at the midpoint node s_k of the time quadrature on (0, t];
    for q = 1 the time integral is exact: one factor, the difference of the
    second antiderivative between 0 and t, with beta = 1.
    """
    space, q, s_nodes = spec.space, spec.q, spec.s_nodes
    H0, c = hurst_aux(spec.H, q)
    a = H0 - 1.5
    scale = c * space.delta ** (-q / 2.0)
    if q == 1:
        prim = _cell_avg_matrix(space, np.array([t, 0.0]), a + 1.0) / (a + 1.0)
        g, beta = scale * (prim[:1] - prim[1:]), np.ones(1)
    else:
        g = _cell_avg_matrix(space, t * (np.arange(s_nodes) + 0.5) / s_nodes, a)
        beta = np.full(s_nodes, scale * t / s_nodes)
    # adaptedness: cells at or beyond t carry no coefficient
    return g * (space.cell_midpoints() < t), beta


def _wick_weights(g: np.ndarray, xi: np.ndarray, q: int) -> tuple:
    """Per-factor value and derivative weights of sum_k beta_k g_k^{(x)q},
    shape (..., m, k) each, for the (..., m, n) component coordinates xi.

    With gx = <g_k, xi^ell> and gg = |g_k|^2, the value weight is
    I_q(g_k^{(x)q}) = H_q(gx; gg) and the derivative weight is
    q H_{q-1}(gx; gg), so that D I_q(g_k^{(x)q}) = weight * g_k.
    """
    # one stacked matrix-vector product per component of each draw: a single
    # GEMM would reduce in another order and change the bits
    gx = (g @ xi[..., None])[..., 0]
    gg = np.einsum("ki,ki->k", g, g)
    return hermite_poly(q, gx, gg), q * hermite_poly(q - 1, gx, gg)


def _calibration(g: np.ndarray, beta: np.ndarray, q: int, times, H: float) -> np.ndarray:
    """rho_j scaling the prefix sum_{k<=j} beta_k g_k^{(x)q} to norm sqrt(t_j^{2H}/q!)."""
    check_budget((beta.shape[0],) * 2)
    bb = beta[:, None] * beta[None, :] * (g @ g.T) ** q
    # prefix norms ||block_j||^2 over the growing leading square:
    # increment when adding node j is bb[j,j] + 2 sum_{k<j} bb[k,j]
    inc = np.diagonal(bb).copy()
    if inc.shape[0] > 1:
        inc[1:] += 2.0 * np.cumsum(bb, axis=0).diagonal(1)
    norms2 = np.cumsum(inc)
    targets = times ** (2.0 * H) / math.factorial(q)
    return np.sqrt(targets / norms2)


@dataclass(frozen=True)
class KernelField:
    """Kernels at every output time, stored as factors.

    The block at out_times[ti] is rho[ti] * sum_k beta[ti, k] g[ti, k]^{(x)q}
    over the cells of one component; component ell realizes it on its own
    row of the component view, so kernels of distinct components have
    disjoint support by construction.  Values and derivatives come from the
    factors; the dense (T,) + (n,)*q array is built on first use of `blocks`.
    """

    spec: HermiteSpec
    g: np.ndarray
    beta: np.ndarray
    rho: np.ndarray
    calibrated: bool

    def evaluate(self, ti: int, xi: np.ndarray) -> tuple:
        """(I_q(f_ti), D I_q(f_ti)) of every component, shapes (..., m) and
        (..., m, n), at the (..., m, n) component coordinates xi."""
        g, beta = self.g[ti], self.beta[ti]
        val_w, der_w = _wick_weights(g, xi, self.spec.q)
        value = (val_w[..., None, :] @ beta)[..., 0]
        deriv = ((beta * der_w)[..., None, :] @ g)[..., 0, :]
        return self.rho[ti] * value, self.rho[ti] * deriv

    def inner(self, i: int, j: int) -> float:
        """<f_i, f_j>, the Euclidean inner product of two blocks."""
        gram = (self.g[i] @ self.g[j].T) ** self.spec.q
        return float(self.rho[i] * self.rho[j] * (self.beta[i] @ gram @ self.beta[j]))

    def norm_at(self, ti: int) -> float:
        return math.sqrt(self.inner(ti, ti))

    def check_dense_budget(self):
        """Raise MemoryBudgetError when the dense view, one (n,)*q block per
        output time, would exceed the budget."""
        check_budget((len(self.spec.out_times),) + (self.spec.space.n,) * self.spec.q)

    def _block(self, ti: int) -> np.ndarray:
        """The dense (n,)*q block at out_times[ti], one einsum over the factors."""
        cells = "abc"[:self.spec.q]
        subscripts = "k," + ",".join("k" + i for i in cells) + "->" + cells
        weights = self.rho[ti] * self.beta[ti]
        return np.einsum(subscripts, weights, *(self.g[ti],) * self.spec.q, optimize=True)

    @cached_property
    def blocks(self) -> np.ndarray:
        """Dense blocks, shape (len(out_times),) + (n,)*q, exactly symmetric:
        each canonical entry is copied to every permutation of its index."""
        self.check_dense_budget()
        out = np.empty((len(self.spec.out_times),) + (self.spec.space.n,) * self.spec.q)
        for ti in range(out.shape[0]):
            index, values = _canonical_entries(self, ti)
            for perm in itertools.permutations(index):
                out[(ti,) + perm] = values
        return out


def build_kernels(spec: HermiteSpec, calibrate: bool = True) -> KernelField:
    """Cell-average kernel factors at every output time.

    With calibrate=True each block is scaled to its exact continuum norm
    sqrt(t^{2H}/q!), which enforces E[Z_t^2] = t^{2H} through the
    isometry and removes the diagonal-band discretization bias.
    """
    gs, betas, rhos = [], [], []
    for t in spec.out_times:
        g, beta = _kernel_factors(spec, t)
        rho = 1.0
        if calibrate:
            if not np.any(g):
                raise InvalidDimensionError(f"degenerate kernel at t={t}")
            rho = _calibration(g, beta, spec.q, t, spec.H)[-1]
        gs.append(g)
        betas.append(beta)
        rhos.append(rho)
    return KernelField(spec=spec, g=np.array(gs), beta=np.array(betas), rho=np.array(rhos),
                       calibrated=calibrate)


@dataclass(frozen=True)
class DrivingPath:
    """Simulated driver values: one R^m vector per output time."""

    spec: HermiteSpec
    times: tuple
    values: np.ndarray
    seed: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.times), self.spec.m):
            raise InvalidDimensionError(
                f"expected values of shape {(len(self.times), self.spec.m)}, got {values.shape}"
            )
        object.__setattr__(self, "values", values)


def _path_values(field: KernelField, xi: np.ndarray) -> np.ndarray:
    """Z_t^ell at every output time, shape (..., T, m), at coordinates (..., m, n)."""
    return np.stack([field.evaluate(ti, xi)[0] for ti in range(len(field.spec.out_times))], -2)


def simulate_path(field: KernelField, w: GaussianDraw) -> DrivingPath:
    """Evaluate Z_t^ell = I_q(kernel) on one draw, all times and components."""
    spec = field.spec
    if w.space != spec.space:
        raise SpaceMismatchError("draw built over a different discretization")
    return DrivingPath(spec=spec, times=spec.out_times, seed=w.seed,
                       values=_path_values(field, spec.space.components(w.xi)))


def simulate_paths(field: KernelField, seeds) -> np.ndarray:
    """Ensemble of simulate_path values, shape (len(seeds), T, m), one
    evaluation per block of draws; each draw's reductions are its own, so
    row k equals simulate_path of seeds[k] bit for bit.
    """
    spec = field.spec
    blocks = [_path_values(field, xi) for _, xi in draw_blocks(spec.space, seeds)]
    return np.concatenate([np.empty((0, len(spec.out_times), spec.m))] + blocks)


def covariance_theoretical(s: float, t: float, H: float) -> float:
    """Hermite-process covariance (per component): the polarization formula."""
    if s < 0.0 or t < 0.0:
        raise OutOfRangeError("times must be nonnegative")
    return 0.5 * (t ** (2.0 * H) + s ** (2.0 * H) - abs(t - s) ** (2.0 * H))


def _fgn_covariance(H0: float, N: int) -> np.ndarray:
    k = np.arange(N)
    r = 0.5 * (
        np.abs(k + 1.0) ** (2.0 * H0)
        - 2.0 * np.abs(k) ** (2.0 * H0)
        + np.abs(k - 1.0) ** (2.0 * H0)
    )
    idx = np.abs(k[:, None] - k[None, :])
    return r[idx]


def nclt_factor(spec: HermiteSpec, steps_per_unit: int):
    """Cholesky factor of the underlying Gaussian sequence and the norm A_N.

    The oracle path is Z_t = A_N^{-1} sum_{i <= floor(N t)} H_q(X_i) with
    X long-range-dependent of Hurst H0; A_N makes Var(Z at the last output
    time) match its self-similar value exactly.
    """
    t_max = spec.out_times[-1]
    N_tot = int(math.ceil(steps_per_unit * t_max))
    cov = _fgn_covariance(hurst_aux(spec.H, spec.q)[0], N_tot)
    chol = np.linalg.cholesky(cov + 1e-12 * np.eye(N_tot))
    # exact variance of the last partial sum of H_q(X): q! sum r(i-j)^q
    var_last = math.factorial(spec.q) * float(np.sum(cov**spec.q))
    A = math.sqrt(var_last) / t_max**spec.H
    return chol, A


def nclt_paths(spec: HermiteSpec, seeds, steps_per_unit: int = 256) -> np.ndarray:
    """Independent marginal-law oracle via normalized Hermite partial sums,
    shape (len(seeds), T, m).

    Shares no coupling with simulate_path: only marginal statistics are
    comparable, not pathwise values.
    """
    seeds = list(seeds)
    chol, A = nclt_factor(spec, steps_per_unit)
    N_tot = chol.shape[0]
    K = [min(int(math.floor(steps_per_unit * t)), N_tot) for t in spec.out_times]
    out = np.empty((len(seeds), len(spec.out_times), spec.m))
    for k, seed in enumerate(seeds):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        for ell in range(spec.m):
            X = chol @ rng.standard_normal(N_tot)
            hsum = np.concatenate([[0.0], np.cumsum(hermite_poly(spec.q, X))])
            out[k, :, ell] = hsum[K] / A
    return out


def self_similarity_stat(spec: HermiteSpec, t: float, eps: float, seeds,
                         rhs_seeds) -> tuple:
    """Samples of each side of the localized-derivative law identity.

    lhs[k] = sum over cells r in (t-eps, t] of |D_r(Z_t - Z_{t-eps})|^2 on
    the draw of seeds[k]; rhs[k] = eps^{2H} times the same functional of Z_1
    on the image grid under x -> (x - (t-eps))/eps, restricted to (0, 1],
    on the draw of rhs_seeds[k].  The image grid and aligned quadrature
    nodes make the two sides exactly equal in law for the discretized
    kernels, which is the faithful finite analogue of the continuum
    statement.  Both draws enter through their first component.

    Kernels enter uncalibrated here: the identity is a statement about the
    homogeneous kernels themselves and per-side calibration constants
    would shift the two laws against each other.
    """
    if not 0.0 < eps < t:
        raise OutOfRangeError(f"need 0 < eps < t, got eps={eps}, t={t}")
    # lhs s-node count chosen so window nodes are the exact images of the
    # rhs nodes under the affine rescaling
    s_lhs = max(int(round(spec.s_nodes * t / eps)), spec.s_nodes)
    lhs_field = build_kernels(replace(spec, s_nodes=s_lhs, out_times=(t,)), calibrate=False)
    space_rhs = make_hilbert(1, (spec.space.lo - (t - eps)) / eps, 1.0, spec.space.n)
    rhs_field = build_kernels(HermiteSpec(q=spec.q, H=spec.H, m=1, space=space_rhs,
                                          s_nodes=spec.s_nodes, out_times=(1.0,)),
                              calibrate=False)

    def energies(field, seeds, lo, hi):
        # only cells fully inside the window: a straddling cell carries
        # kernel mass from outside (t-eps, t], which the rescaled side
        # cannot represent
        space, tol = field.spec.space, 1e-12
        edges = space.cell_edges()
        window = (edges[:-1] >= lo - tol) & (edges[1:] <= hi + tol)
        ders = (field.evaluate(0, xi[:, :1])[1][:, 0, window]
                for _, xi in draw_blocks(space, seeds))
        return np.concatenate([np.empty(0)] + [np.sum(d * d, axis=-1) for d in ders])

    lhs = energies(lhs_field, seeds, t - eps, t)
    rhs = eps ** (2.0 * spec.H) * energies(rhs_field, rhs_seeds, 0.0, 1.0)
    return lhs, rhs


def holder_norms(times, values, config: HolderConfig, theta: float = None) -> tuple:
    """Discrete estimators of the three pathwise norms on a uniform grid.

    Returns (c_theta, w1_alpha, w2_oneminusalpha):
      c_theta            sup |f| + sup_{s<t} |f(t)-f(s)| / (t-s)^theta
      w1_alpha           sup_t (|f(t)| + int_0^t |f(t)-f(s)|/(t-s)^{1+alpha} ds)
      w2_oneminusalpha   sup_{s<t} (|f(t)-f(s)|/(t-s)^{1-alpha}
                                     + int_s^t |f(u)-f(s)|/(u-s)^{2-alpha} du)
    Integrals use the trapezoid rule with the singular endpoint dropped.
    values has one row per time, shape (len(times), k), or is 1-D (k = 1).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    if values.ndim != 2 or values.shape[0] != times.shape[0]:
        raise InvalidDimensionError(f"values need one row per time, got {values.shape}")
    npts = times.shape[0]
    if npts < 8:
        raise InvalidDimensionError("need at least 8 grid points")
    dt_all = np.diff(times)
    if not np.allclose(dt_all, dt_all[0], rtol=1e-8):
        raise InvalidDimensionError("grid must be uniform")
    if theta is None:
        theta = 1.0 - config.alpha
    alpha = config.alpha
    mag = np.linalg.norm(values, axis=1)
    gaps = times[:, None] - times[None, :]
    diffs = np.linalg.norm(values[:, None, :] - values[None, :, :], axis=2)
    upper = gaps > 0
    quot = np.zeros_like(gaps)
    quot[upper] = diffs[upper] / gaps[upper] ** theta
    c_theta = float(mag.max() + quot.max())

    dt = float(dt_all[0])
    w1 = 0.0
    for i in range(npts):
        if i == 0:
            w1 = max(w1, float(mag[0]))
            continue
        integrand = diffs[i, :i] / gaps[i, :i] ** (1.0 + alpha)
        integral = dt * (np.sum(integrand) - 0.5 * integrand[0])
        w1 = max(w1, float(mag[i] + integral))

    quot2 = np.zeros_like(gaps)
    quot2[upper] = diffs[upper] / gaps[upper] ** (1.0 - alpha)
    w2 = 0.0
    for j in range(npts - 1):
        integrand = diffs[j + 1 :, j] / gaps[j + 1 :, j] ** (2.0 - alpha)
        # prefix trapezoid in the upper argument, singular node dropped
        cum = dt * (np.cumsum(integrand) - 0.5 * integrand - 0.5 * integrand[0])
        total = quot2[j + 1 :, j] + cum
        w2 = max(w2, float(total.max()))
    return c_theta, w1, w2


class GridDriver:
    """Driver evaluated on a fine solver grid via cumulative quadrature.

    Every quantity needed on an SDE grid is a prefix sum over
    time-quadrature nodes: the block at t_i is sum_{k<i} beta_k g_k^{(x)q}
    with g_k the cell-average factor at the midpoint of (t_k, t_{k+1}).
    Values and Malliavin derivative vectors are therefore O(n) per grid
    time, and each derivative vector is the exact gradient of the value,
    which the difference-quotient checks rely on.

    times must start at 0; values at time 0 are 0.
    """

    def __init__(self, spec: HermiteSpec, times):
        times = np.asarray(times, dtype=float)
        if times[0] != 0.0 or not np.all(np.diff(times) > 0):
            raise InvalidDimensionError("grid must start at 0 and increase strictly")
        if times[-1] > spec.space.hi:
            raise OutOfRangeError("grid extends beyond the noise support")
        self.spec = spec
        self.times = times
        space, q = spec.space, spec.q
        H0, c = hurst_aux(spec.H, q)
        mids = 0.5 * (times[:-1] + times[1:])
        dts = np.diff(times)
        check_budget((mids.shape[0], space.n + 1))  # the cell-average factors
        self._g = _cell_avg_matrix(space, mids, H0 - 1.5)
        self._beta = c * space.delta ** (-q / 2.0) * dts
        self._rho = np.ones(times.shape[0])
        self._rho[1:] = _calibration(self._g, self._beta, q, times[1:], spec.H)

    def _components(self, draws) -> np.ndarray:
        """The (m, n) component coordinates of one draw, or the (B, m, n)
        ones of a list of B draws, each over the driver's space."""
        one = isinstance(draws, GaussianDraw)
        if any(w.space != self.spec.space for w in ([draws] if one else draws)):
            raise SpaceMismatchError("draw built over a different discretization")
        return self.spec.space.components(draws.xi if one else np.array([w.xi for w in draws]))

    def values(self, draws) -> np.ndarray:
        """Driver values on the grid, shape (len(times), m) for one draw and
        (B, len(times), m) for a list of B draws; row 0 is 0."""
        val_w, _ = _wick_weights(self._g, self._components(draws), self.spec.q)
        out = np.zeros(val_w.shape[:-2] + (self.times.shape[0], self.spec.m))
        out[..., 1:, :] = np.swapaxes(np.cumsum(self._beta * val_w, axis=-1), -1, -2)
        return out * self._rho[:, None]

    def deriv_vectors(self, w: GaussianDraw) -> np.ndarray:
        """Full DF vectors, shape (len(times), m, n) in component-block coords.

        Each cell's increment beta der_w (x) g is written into its row of the
        output and prefix-summed there one contiguous row at a time: the
        sequential sum of a cumsum over the rows, with no temporaries."""
        _, der_w = _wick_weights(self._g, self._components(w), self.spec.q)
        out = np.zeros((self.times.shape[0], self.spec.m, self.spec.space.n))
        np.multiply((self._beta * der_w).T[:, :, None], self._g[:, None, :], out=out[1:])
        for i in range(2, out.shape[0]):
            np.add(out[i - 1], out[i], out=out[i])
        out *= self._rho[:, None, None]
        return out


def _canonical_entries(field: KernelField, ti: int) -> tuple:
    """(index, values) of the block at out_times[ti] over its canonical
    multi-indices i_1 <= .. <= i_q in lexicographic order: index has shape
    (q, N), values shape (N,).

    The block comes from the einsum of `_block`, one output time at a time;
    `field.blocks` is built from these entries.  A GEMM over the
    canonical entries alone would do half the work at q = 3, but BLAS sums
    in an order that depends on the matrix shape, which moves last bits.
    """
    n, q = field.spec.space.n, field.spec.q
    check_budget((n,) * q)
    grid = np.indices((n,) * q, dtype=np.min_scalar_type(n - 1), sparse=True)
    canonical = np.ones((n,) * q, dtype=bool)
    for lo, hi in zip(grid, grid[1:]):
        canonical &= lo <= hi
    index = [np.broadcast_to(i, canonical.shape)[canonical] for i in grid]
    return np.array(index), field._block(ti)[canonical]


#: 10^k for k = 0..22, every one exact in binary64
_POW10 = np.array([float(10**k) for k in range(23)])
#: Dekker's splitting constant 2^27 + 1
_SPLIT = 134217729.0
#: row i: the ASCII code of digit i of 0000 .. 9999
_QUADS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1) + ord("0")
#: character positions, as a column that broadcasts over the values
_ROWS = np.arange(18)[:, None]
_ZERO_POINT = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
_ZERO, _DOT, _MINUS, _PLUS, _EXP = np.frombuffer(b"0.-+e", dtype=np.uint8)
#: bytes of one formatted value: sign, "0.000" prefix, 17 digits with a
#: point, "e-XX"; '%.17g' is at most 24 bytes long
_VALUE_WIDTH = 28


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple:
    """(p, e) with p = fl(a * b) and p + e = a * b exactly (Dekker, 1971)."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _digits17(d: np.ndarray) -> np.ndarray:
    """The 17 decimal digits of each d in [10^16, 10^17) as ASCII codes,
    one row per digit: shape (17, N)."""
    out = np.empty((17, d.shape[0]), dtype=np.uint8)
    head, low = np.divmod(d, 10**8)
    lead, mid = np.divmod(head, 10**8)
    out[0] = lead + _ZERO
    for j, quad in enumerate(np.divmod(mid, 10**4) + np.divmod(low, 10**4)):
        for i in range(4):
            out[1 + 4 * j + i] = _QUADS[i][quad]
    return out


def _format_17g(values: np.ndarray) -> np.ndarray:
    """'%.17g' % v of every value, as the rows of an (N, _VALUE_WIDTH) uint8
    array of ASCII codes, NUL-padded.

    With E the decimal exponent, |v| * 10^(16 - E) is formed exactly as a
    double pair by Dekker's product while 10^(16 - E) is a double (E >= -6),
    and rounded half-even to 17 digits; %g then writes them fixed for
    -4 <= E < 17 and as d.ddde+-XX otherwise, trailing zeros stripped.
    Other values (zero, subnormal, non-finite, E outside [-6, 16]) are
    formatted by Python one by one.  The text is assembled one character
    position at a time over all values, as a (_VALUE_WIDTH, N) array.
    """
    values = np.asarray(values, dtype=float).ravel()
    x = np.abs(values)
    # floor((e2 - 1) log10 2) is E or E - 1 for x in [2^(e2-1), 2^e2)
    E = np.floor((np.frexp(x)[1] - 1) * math.log10(2.0)).astype(np.int64)
    fast = np.isfinite(x) & (x > 0) & (E >= -7) & (E <= 16)
    x, E = np.where(fast, x, 1.0), np.clip(E, -6, 16)

    def scaled():
        """hi + lo = x 10^(16 - E) and where it falls below 10^16, above 10^17."""
        hi, lo = _two_product(x, _POW10[np.clip(16 - E, 0, 22)])
        return hi, lo, (hi < 1e16) | ((hi == 1e16) & (lo < 0)), (hi > 1e17) | (
            (hi == 1e17) & (lo >= 0))

    hi, lo, below, above = scaled()
    E += above
    E -= below
    hi, lo, below, above = scaled()
    fast &= (E >= -6) & (E <= 16) & ~below & ~above
    hi, lo = np.where(fast, hi, 1e16), np.where(fast, lo, 0.0)
    # hi is an even integer, so rounding lo half-even rounds hi + lo
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # a carry needs a double within 5e-18 (relative) below a power of ten;
    # none is in range, but the digits stay right without that fact
    carry = d == 10**17
    d[carry] = 10**16
    E += carry
    digits = _digits17(d)

    fixed = (E >= -4) & (E < 17)
    whole = np.where(fixed & (E >= 0), E, -1)  # the last digit before the point
    # %g strips trailing zeros, but not those of the integer part
    strip = digits == _ZERO
    for i in range(15, -1, -1):
        strip[i] &= strip[i + 1]
    strip &= _ROWS[:17] > whole
    digits *= ~strip
    kept = 17 - np.count_nonzero(strip, axis=0)
    # the point follows digit `point`; below 1, fixed notation writes it in
    # the "0.000" prefix and none among the digits
    point = np.where(fixed, np.where(E >= 0, E, 16), 0)
    out = np.zeros((_VALUE_WIDTH, values.shape[0]), dtype=np.uint8)
    out[0] = _MINUS * (values < 0)
    out[1:6] = _ZERO_POINT * (_ROWS[:5] < np.where(fixed & (E < 0), 1 - E, 0))
    area = out[6:24]
    area[:17] = digits * (_ROWS[:17] <= point)
    area[1:] += digits * (_ROWS[1:18] > point + 1)
    area += _DOT * ((_ROWS[:18] == point + 1) & (kept > point + 1))
    sci = ~fixed
    tens, units = np.divmod(np.abs(E).astype(np.uint8), np.uint8(10))
    out[24] = _EXP * sci
    out[25] = np.where(E < 0, _MINUS, _PLUS) * sci
    out[26] = (_ZERO + tens) * sci
    out[27] = (_ZERO + units) * sci
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array(["%.17g" % v for v in values[slow].tolist()], dtype=f"S{_VALUE_WIDTH}")
        out[:, slow] = text.view(np.uint8).reshape(-1, _VALUE_WIDTH).T
    return out.T


def _labels(count: int) -> np.ndarray:
    """str(i) for i < count, NUL-padded: row k holds character k of each."""
    width = len(str(count - 1))
    return np.array([str(i) for i in range(count)], dtype=f"S{width}").view(
        np.uint8).reshape(count, width).T.copy()


#: data lines formatted at once: each chunk's arrays stay a few MB
EXPORT_CHUNK = 1 << 15


def export_kernels(field: KernelField, fh):
    """Portable text dump to the open text stream fh: one line
    `ti i_1 .. i_q value` per nonzero canonical (nondecreasing) multi-index,
    in lexicographic order, values in %.17g (NaN kept, -0.0 skipped).

    Works from the factors (`_canonical_entries`), never the dense view.
    Each field of a line has a NUL-padded slot of fixed width in one uint8
    row; dropping the NULs of a chunk of rows leaves its text.
    """
    spec = field.spec
    n, q = spec.space.n, spec.q
    fh.write(f"# chaosde kernel field q={spec.q} H={spec.H:.17g} m={spec.m}\n")
    fh.write(f"# space lo={spec.space.lo:.17g} hi={spec.space.hi:.17g} n={n}\n")
    fh.write(f"# s_nodes={spec.s_nodes} calibrated={int(field.calibrated)}\n")
    fh.write("# times " + " ".join(f"{t:.17g}" for t in spec.out_times) + "\n")
    labels = _labels(n)
    # slots: ti, i_1 .. i_q and the value, each followed by a space or "\n"
    times = _labels(len(spec.out_times))
    widths = [times.shape[0]] + [labels.shape[0]] * q + [_VALUE_WIDTH]
    ends = np.cumsum([w + 1 for w in widths])
    template = np.zeros(ends[-1], dtype=np.uint8)
    template[ends - 1] = ord(" ")
    template[-1] = ord("\n")
    for ti in range(len(spec.out_times)):
        template[:widths[0]] = times[:, ti]
        index, values = _canonical_entries(field, ti)
        nonzero = values != 0
        index, values = [i[nonzero] for i in index], values[nonzero]
        for lo in range(0, values.shape[0], EXPORT_CHUNK):
            rows = slice(lo, lo + EXPORT_CHUNK)
            line = np.empty((values[rows].shape[0], ends[-1]), dtype=np.uint8)
            line[:] = template
            for j in range(q):
                for k in range(labels.shape[0]):
                    line[:, ends[j] + k] = labels[k][index[j][rows]]
            line[:, ends[-2]:-1] = _format_17g(values[rows])
            fh.write(line[line != 0].tobytes().decode("ascii"))


def import_kernels(path: str) -> tuple:
    """Read an export_kernels dump: (spec, dense blocks, calibrated), filled
    by symmetry as `KernelField.blocks` is."""
    with open(path) as fh:
        lines = [line[1:].split() for line in fh if line.startswith("#")]
    header = dict(tok.split("=", 1) for parts in lines for tok in parts if "=" in tok)
    times = next(tuple(float(x) for x in parts[1:]) for parts in lines if parts[0] == "times")
    space = make_hilbert(int(header["m"]), float(header["lo"]), float(header["hi"]), int(header["n"]))
    spec = HermiteSpec(
        q=int(header["q"]), H=float(header["H"]), m=int(header["m"]), space=space,
        s_nodes=int(header["s_nodes"]), out_times=times,
    )
    rows = np.loadtxt(path, ndmin=2)
    index = rows[:, :-1].astype(np.intp).T
    blocks = np.zeros((len(spec.out_times),) + (space.n,) * spec.q)
    for perm in itertools.permutations(index[1:]):
        blocks[(index[0],) + perm] = rows[:, -1]
    return spec, blocks, bool(int(header["calibrated"]))
