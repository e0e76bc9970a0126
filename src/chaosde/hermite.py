"""Hermite-process drivers: kernel construction on the discrete Wiener
space, path simulation, the solver-grid driver, the kernels.txt dump, and
the self-similarity statistic for the law of localized Malliavin
derivatives.

A Hermite process of order q and Hurst index H in (1/2, 1) is Z_t =
I_q(L_t) with the homogeneous kernel

    L_t(x_1..x_q) = c(H,q) * int_0^t prod_j (s - x_j)_+^{H0 - 3/2} ds,

H0 = 1 + (H-1)/q.  Discretely each kernel becomes an order-q coefficient
block over the cells of one noise component; m components use m disjoint
blocks of the same shape, which makes distinct components exactly
orthogonal at the kernel level.  Each evaluator has one job:
`KernelField.values` and `GridDriver.values` form values,
`GridDriver.deriv_vectors` and `_factor_derivative` derivatives.  Each
returns every component of every draw.  `KernelField.values` and
`_factor_derivative` take component coordinates of shape (..., m, n),
such as the (B, m, n) block of `wiener.draw_blocks`; the two of
`GridDriver` take the draws' projections on its nodes
(`GridDriver.projections`), formed once per block of draws.

Discretization note: the kernel is unbounded on the diagonal for q >= 2
(pointwise exponent H0 - 3/2 < -1/2), so sampling it at cell midpoints
does not converge.  Coefficients are instead cell averages computed from
the closed-form antiderivative in each x_j, which is bounded, and the
time integral is done by midpoint quadrature (exactly, for q = 1), over
any interval (a, b] by one builder, `_kernel_factors`: the kernel at t
is the increment over (0, t], each self-similarity side the increment
over its window.  The small remaining diagonal-band mass is restored by
scaling each kernel to its exact norm t^{2H}/q!, so that E[Z_t^2] =
t^{2H} holds by the isometry.

Storage note: the midpoint rule makes every block a short sum of rank-one
powers rho * sum_k beta_k g_k^{(x)q}, so kernels are kept as the factors
(g, beta, rho).  Values and derivatives follow exactly from I_q(g^{(x)q}) =
H_q(<g, xi>; |g|^2), the Hermite polynomial of variance |g|^2, in
O(s_nodes * n) per time; the dense block is built only when a caller asks
for it.
"""

from __future__ import annotations

import bisect
import itertools
import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    FrozenRecord,
    InvalidDimensionError,
    OutOfRangeError,
    SpaceMismatchError,
    UnsupportedOrderError,
    check_budget,
)
from .wiener import GaussianDraw, HilbertDisc, draw_blocks, make_hilbert
from .chaos import MAX_ORDER, hermite_poly
from .textio import EXPORT_CHUNK, VALUE_WORDS, _format_17g, label_words, write_words


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


class HermiteSpec(FrozenRecord):
    """Parameters of a discretized m-component Hermite driver, equal to (and
    hashed as) any other with the same fields."""

    __slots__ = ("q", "H", "m", "space", "s_nodes", "out_times")

    def __init__(self, q: int, H: float, m: int, space: HilbertDisc, s_nodes: int = 64,
                 out_times: tuple = (0.25, 0.5, 1.0)):
        if not 1 <= q <= MAX_ORDER:
            raise UnsupportedOrderError(f"order {q} outside 1..{MAX_ORDER}")
        hurst_aux(H, q)  # validates H
        if space.m != m:
            raise SpaceMismatchError("component count of spec and space disagree")
        if space.lo >= 0.0:
            raise InvalidDimensionError("noise support must extend below 0 (lo < 0)")
        times = tuple(float(t) for t in out_times)
        if list(times) != sorted(times) or len(set(times)) != len(times):
            raise InvalidDimensionError("out_times must be strictly increasing")
        if not all(0.0 < t <= space.hi for t in times):
            raise OutOfRangeError("out_times must lie in (0, hi]")
        if s_nodes < 1:
            raise InvalidDimensionError("s_nodes must be positive")
        # the kernel factors: one row of n+1 cell edges per quadrature node at
        # q >= 2, and at q = 1 the two ends 0 and t of the exact time integral
        check_budget((s_nodes if q >= 2 else 2, space.n + 1))
        super().__init__(q, H, m, space, s_nodes, times)

    def __eq__(self, other):
        if type(other) is not HermiteSpec:
            return NotImplemented
        return self._field_values() == other._field_values()

    def __hash__(self):
        return hash(self._field_values())


def _cell_avg_matrix(space: HilbertDisc, s: np.ndarray, a: float) -> np.ndarray:
    """g[k, i] = integral over cell i of (s_k - x)_+^a dx (closed form)."""
    # one power per edge, each interior edge ending one cell and starting the next
    powers = np.clip(s[:, None] - space.cell_edges(), 0.0, None) ** (a + 1.0)
    return (powers[:, :-1] - powers[:, 1:]) / (a + 1.0)


def _node_factors(spec: HermiteSpec, s: np.ndarray, integrated: bool = False) -> tuple:
    """(g, scale) at the time nodes s, for `_kernel_factors` and `GridDriver`:
    g[k, i] the average over cell i of (s_k - x)_+^{H0-3/2} (integrated: of
    its antiderivative in s), scale = c(H,q) delta^{-q/2}."""
    H0, c = hurst_aux(spec.H, spec.q)
    a = H0 - 1.5 + (1.0 if integrated else 0.0)
    # powers of numpy scalars: an overflow, or 0 ** -x, is inf where a float raises
    with np.errstate(all="ignore"):
        g = _cell_avg_matrix(spec.space, s, a) / (a if integrated else 1.0)
        return g, c * np.float64(spec.space.delta) ** (-spec.q / 2.0)


def _kernel_factors(spec: HermiteSpec, a: float, b: float) -> tuple:
    """Uncalibrated factors (g, beta) of the increment L_b - L_a over one
    component, 0 <= a < b.

    The block is sum_k beta_k g_k^{(x)q}.  For q >= 2, g_k are the cell
    averages at the s_nodes midpoint nodes s_k of the time quadrature on
    (a, b]; for q = 1 the time integral is exact: one factor, the
    difference of the second antiderivative between a and b, with beta = 1.
    """
    s_nodes = spec.s_nodes
    with np.errstate(all="ignore"):
        if spec.q == 1:
            prim, scale = _node_factors(spec, np.array([b, a]), integrated=True)
            g, beta = scale * (prim[:1] - prim[1:]), np.ones(1)
        else:
            g, scale = _node_factors(spec, a + (b - a) * (np.arange(s_nodes) + 0.5) / s_nodes)
            beta = np.full(s_nodes, scale * (b - a) / s_nodes)
        # adaptedness: cells at or beyond b carry no coefficient
        g = g * (spec.space.cell_midpoints() < b)
    _check_finite([b], g, beta)
    return g, beta


def _check_finite(times, *arrays):
    """Raise InvalidDimensionError naming the first of times whose row is
    not finite in one of the arrays, each with one row per time: kernel
    factors or norms overflow on a grid of huge or tiny extent."""
    finite = np.logical_and.reduce(
        [np.isfinite(array).reshape(len(times), -1).all(axis=1) for array in arrays])
    if not finite.all():
        t = float(times[np.argmin(finite)])
        raise InvalidDimensionError(f"kernel at t={t} is not finite: its factors or norm overflow")


def _projections(spec: HermiteSpec, g: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """gx = <g_k, xi^ell>, shape (..., m, k), for the (..., m, n) component
    coordinates xi of spec's space (InvalidDimensionError for any other
    trailing shape, MemoryBudgetError when gx would exceed the budget).

    With gg = |g_k|^2, the value weight of g_k^{(x)q} is I_q(g_k^{(x)q}) =
    H_q(gx; gg) and its derivative weight `_deriv_weights`, each caller
    taking only the weight it needs.
    """
    if np.shape(xi)[-2:] != (spec.m, spec.space.n):
        raise InvalidDimensionError(f"coordinates need shape (..., {spec.m}, {spec.space.n}), "
                                    f"got {np.shape(xi)}")
    check_budget(np.shape(xi)[:-1] + g.shape[:1])
    # one stacked matrix-vector product per component of each draw: a single
    # GEMM would reduce in another order and change the bits
    return (g @ xi[..., None])[..., 0]


def _deriv_weights(q: int, gx: np.ndarray, gg: np.ndarray) -> np.ndarray:
    """q H_{q-1}(gx; gg), so that D I_q(g_k^{(x)q}) = weight * g_k."""
    weights = hermite_poly(q - 1, gx, gg)
    weights *= q
    return weights


def _factor_derivative(spec: HermiteSpec, g: np.ndarray, beta: np.ndarray,
                       xi: np.ndarray) -> np.ndarray:
    """D I_q(sum_k beta_k g_k^{(x)q}) of every component, shape (..., m, n),
    at the (..., m, n) component coordinates xi."""
    gx, gg = _projections(spec, g, xi), np.einsum("ki,ki->k", g, g)
    return ((beta * _deriv_weights(spec.q, gx, gg))[..., None, :] @ g)[..., 0, :]


def _calibration(g: np.ndarray, beta: np.ndarray, q: int, times, H: float) -> np.ndarray:
    """rho_j scaling the prefix sum_{k<=j} beta_k g_k^{(x)q} to norm sqrt(t_j^{2H}/q!)."""
    check_budget((beta.shape[0],) * 2)
    node_times = np.broadcast_to(times, beta.shape)
    with np.errstate(all="ignore"):
        bb = beta[:, None] * beta[None, :] * (g @ g.T) ** q
        # prefix norms ||block_j||^2 over the growing leading square:
        # increment when adding node j is bb[j,j] + 2 sum_{k<j} bb[k,j]
        inc = np.diagonal(bb).copy()
        if inc.shape[0] > 1:
            inc[1:] += 2.0 * np.cumsum(bb, axis=0).diagonal(1)
        norms2 = np.cumsum(inc)
        # a float t as a numpy scalar, whose overflow is inf
        targets = np.float64(times) ** (2.0 * H) / math.factorial(q)
        rho = np.sqrt(targets / norms2)
    if not norms2.all():  # beta underflows to 0 on a horizon near the smallest double
        t = float(node_times[np.argmin(norms2)])
        raise InvalidDimensionError(f"degenerate kernel at t={t}: its norm is 0")
    _check_finite(node_times, norms2, rho)
    return rho


class KernelField(FrozenRecord):
    """Kernels at every output time, stored as factors.

    The block at out_times[ti] is rho[ti] * sum_k beta[ti, k] g[ti, k]^{(x)q}
    over the cells of one component; component ell realizes it on its own
    row of the component view, so kernels of distinct components have
    disjoint support by construction.  Values come from the factors; the
    dense (T,) + (n,)*q array is built on first use of `blocks`.
    """

    # the __dict__ holds the cached properties
    __slots__ = ("spec", "g", "beta", "rho", "calibrated", "__dict__")

    def __init__(self, spec: HermiteSpec, g: np.ndarray, beta: np.ndarray, rho: np.ndarray,
                 calibrated: bool):
        super().__init__(spec, g, beta, rho, calibrated)

    def values(self, xi: np.ndarray) -> np.ndarray:
        """I_q(f_ti) of every component, shape (..., T, m), at the (..., m, n)
        component coordinates xi, from the value weight alone, one output
        time at a time: one time's (..., m, k) projections, held to the
        budget, are the largest array."""
        out = []
        for g, beta, rho in zip(self.g, self.beta, self.rho):
            gx, gg = _projections(self.spec, g, xi), np.einsum("ki,ki->k", g, g)
            out.append(rho * (hermite_poly(self.spec.q, gx, gg)[..., None, :] @ beta)[..., 0])
        return np.stack(out, -2)

    def inner(self, i: int, j: int) -> float:
        """<f_i, f_j>, the Euclidean inner product of two blocks."""
        gram = (self.g[i] @ self.g[j].T) ** self.spec.q
        return float(self.rho[i] * self.rho[j] * (self.beta[i] @ gram @ self.beta[j]))

    def check_dense_budget(self):
        """Raise MemoryBudgetError when the dense view, one (n,)*q block per
        output time, would exceed the budget."""
        check_budget((len(self.spec.out_times),) + (self.spec.space.n,) * self.spec.q)

    @cached_property
    def _canonical(self) -> tuple:
        """(tails, starts), shared read-only by every output time: the
        canonical tails i_2 <= .. <= i_q of one block in lexicographic
        order, shape (q-1, R) (one empty tail at q = 1), and for each i_1
        the first tail whose i_2 is i_1 (0 at q = 1): row i_1 of the block
        keeps the tails from starts[i_1] on."""
        n, q = self.spec.space.n, self.spec.q
        tails = (np.array(np.triu_indices(n)) if q == 3 else np.arange(n)[None, :] if q == 2
                 else np.zeros((0, 1), dtype=np.intp))
        # every row against every tail bounds a block's GEMM product; the
        # tail products are held one (s_nodes, TAIL_TILE) tile at a time
        check_budget((n, tails.shape[1]))
        check_budget((self.spec.s_nodes, min(TAIL_TILE, tails.shape[1])))
        starts = np.searchsorted(tails[0], np.arange(n)) if q > 1 else np.zeros(n, dtype=np.intp)
        for array in (tails, starts):
            array.flags.writeable = False
        return tails, starts

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


def build_kernels(spec: HermiteSpec) -> KernelField:
    """Cell-average kernel factors at every output time, each block scaled
    to its exact continuum norm sqrt(t^{2H}/q!), which enforces E[Z_t^2] =
    t^{2H} through the isometry and removes the diagonal-band
    discretization bias.
    """
    gs, betas, rhos = [], [], []
    for t in spec.out_times:
        g, beta = _kernel_factors(spec, 0.0, t)
        if not np.any(g):
            raise InvalidDimensionError(f"degenerate kernel at t={t}")
        gs.append(g)
        betas.append(beta)
        rhos.append(_calibration(g, beta, spec.q, t, spec.H)[-1])
    return KernelField(spec=spec, g=np.array(gs), beta=np.array(betas), rho=np.array(rhos),
                       calibrated=True)


class DrivingPath(FrozenRecord):
    """Simulated driver values: one R^m vector per output time."""

    __slots__ = ("spec", "times", "values", "seed")

    def __init__(self, spec: HermiteSpec, times: tuple, values: np.ndarray, seed: int):
        values = np.asarray(values, dtype=float)
        if values.shape != (len(times), spec.m):
            raise InvalidDimensionError(
                f"expected values of shape {(len(times), spec.m)}, got {values.shape}"
            )
        super().__init__(spec, times, values, seed)


def simulate_path(field: KernelField, w: GaussianDraw) -> DrivingPath:
    """Evaluate Z_t^ell = I_q(kernel) on one draw, all times and components."""
    spec = field.spec
    if w.space != spec.space:
        raise SpaceMismatchError("draw built over a different discretization")
    return DrivingPath(spec=spec, times=spec.out_times, seed=w.seed,
                       values=field.values(spec.space.components(w.xi)))


def simulate_paths(field: KernelField, seeds) -> np.ndarray:
    """Ensemble of simulate_path values, shape (len(seeds), T, m), one
    evaluation per block of draws; each draw's reductions are its own, so
    row k equals simulate_path of seeds[k] bit for bit.
    """
    spec = field.spec
    blocks = [field.values(xi) for _, xi in draw_blocks(spec.space, seeds)]
    return np.concatenate([np.empty((0, len(spec.out_times), spec.m))] + blocks)


def covariance_theoretical(s: float, t: float, H: float) -> float:
    """Hermite-process covariance (per component): the polarization formula."""
    if s < 0.0 or t < 0.0:
        raise OutOfRangeError("times must be nonnegative")
    return 0.5 * (t ** (2.0 * H) + s ** (2.0 * H) - abs(t - s) ** (2.0 * H))


def self_similarity_stat(spec: HermiteSpec, t: float, eps: float, seeds,
                         rhs_seeds) -> tuple:
    """Samples of each side of the localized-derivative law identity.

    lhs[k] = sum over cells r in (t-eps, t] of |D_r(Z_t - Z_{t-eps})|^2 on
    the draw of seeds[k]; rhs[k] = eps^{2H} times the same functional of Z_1
    on the image grid under x -> (x - (t-eps))/eps, restricted to (0, 1],
    on the draw of rhs_seeds[k].  Each side is the derivative of its window
    increment's factors on s_nodes nodes.  The grid must end at t, as `chaosde
    selfsim` builds it (OutOfRangeError otherwise): then the left-hand cells
    and nodes are the images of the right-hand ones for every t/eps, so the
    two sides are exactly equal in law for the discretized kernels, the
    faithful finite analogue of the continuum statement.  On a grid ending
    elsewhere the right-hand grid is not the image of the left-hand one.
    Both draws enter through their first component.

    Kernels enter uncalibrated here: the identity is a statement about the
    homogeneous kernels themselves and per-side calibration constants
    would shift the two laws against each other.
    """
    if not 0.0 < eps < t == spec.space.hi:
        raise OutOfRangeError(f"need 0 < eps < t == hi, got eps={eps}, t={t}, "
                              f"hi={spec.space.hi}")
    space_rhs = make_hilbert(1, (spec.space.lo - (t - eps)) / eps, 1.0, spec.space.n)
    spec_rhs = HermiteSpec(q=spec.q, H=spec.H, m=1, space=space_rhs, s_nodes=spec.s_nodes,
                           out_times=(1.0,))
    samples = []
    for side, lo, hi, side_seeds in ((spec, t - eps, t, seeds), (spec_rhs, 0.0, 1.0, rhs_seeds)):
        g, beta = _kernel_factors(side, lo, hi)
        # only cells fully inside the window: a straddling cell carries
        # kernel mass from outside (lo, hi], which the rescaled side
        # cannot represent; the rounding slack scales with the cells
        edges, tol = side.space.cell_edges(), 1e-9 * side.space.delta
        window = (edges[:-1] >= lo - tol) & (edges[1:] <= hi + tol)
        if not window.any():  # both sides would be all zeros, equal in law on no data
            raise OutOfRangeError(f"no whole cell of the grid (width {side.space.delta:.6g}) "
                                  f"lies in the window ({lo:.6g}, {hi:.6g}]")
        ders = (_factor_derivative(side, g, beta, xi)[:, 0, window]
                for _, xi in draw_blocks(side.space, side_seeds))
        samples.append(np.concatenate([np.empty(0)] + [np.sum(d * d, axis=-1) for d in ders]))
    return samples[0], eps ** (2.0 * spec.H) * samples[1]


class PrefixFactors(NamedTuple):
    """A path Phi on a grid of T times in prefix-factor form: Phi_0 = 0 and
    Phi_i = scale[i] sum_{k<i} weights[..., k, j] basis[k] for each of its
    s columns j, with scale of shape (T,), weights (..., T-1, s) and basis
    (T-1, dim).  `young.rs_integral_hvalued` integrates against one such
    path, weights of shape (T-1, s), without forming it."""

    scale: np.ndarray
    weights: np.ndarray
    basis: np.ndarray


class GridDriver:
    """Driver evaluated on a fine solver grid via cumulative quadrature.

    Every quantity needed on an SDE grid is a prefix sum over
    time-quadrature nodes: the block at t_i is rho_i sum_{k<i} beta_k
    g_k^{(x)q} with g_k the cell-average factor at the midpoint of (t_k,
    t_{k+1}) and rho_i its calibration.  Values are O(n) per grid time.
    The Malliavin derivative DF_i = rho_i sum_{k<i} a_k g_k, the exact
    gradient of the value, which the difference-quotient checks rely on,
    stays in these factors (`deriv_vectors`): only the node weights a_k
    depend on the draw, through its projections p_k = <g_k, xi> on the
    nodes (`projections`), which both evaluators take.

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
        check_budget((times.shape[0] - 1, spec.space.n + 1))  # the cell-average factors
        with np.errstate(all="ignore"):
            self._g, scale = _node_factors(spec, 0.5 * (times[:-1] + times[1:]))
            self._beta = scale * np.diff(times)
        _check_finite(times[1:], self._g, self._beta)
        self._gg = np.einsum("ki,ki->k", self._g, self._g)
        self._rho = np.ones(times.shape[0])
        self._rho[1:] = _calibration(self._g, self._beta, spec.q, times[1:], spec.H)
        # deriv_vectors hands both out with every draw's weights
        self._g.flags.writeable = self._rho.flags.writeable = False

    def projections(self, xi: np.ndarray) -> np.ndarray:
        """p = <g_k, xi^ell> on the driver's nodes, shape (..., m, steps), at
        the (..., m, n) component coordinates xi: all that `values` and
        `deriv_vectors` read of a draw, formed once per block of draws and
        sliced for its sub-blocks."""
        return _projections(self.spec, self._g, xi)

    def _check_projections(self, p):
        want = (self.spec.m, self.times.shape[0] - 1)
        if np.shape(p)[-2:] != want:
            raise InvalidDimensionError(f"projections need shape (..., {want[0]}, {want[1]}), "
                                        f"got {np.shape(p)}")

    def values(self, p: np.ndarray) -> np.ndarray:
        """Driver values on the grid, shape (..., len(times), m), at the
        projections p = projections(xi) of shape (..., m, steps); row 0 is
        0."""
        self._check_projections(p)
        steps = hermite_poly(self.spec.q, p, self._gg)
        steps *= self._beta
        # summed along the contiguous node axis, then laid out by grid row
        np.cumsum(steps, axis=-1, out=steps)
        out = np.empty(steps.shape[:-2] + (self.times.shape[0], self.spec.m))
        out[..., 0, :] = 0.0
        out[..., 1:, :] = np.swapaxes(steps, -1, -2)
        out *= self._rho[:, None]
        return out

    def deriv_vectors(self, p: np.ndarray) -> PrefixFactors:
        """DF at every grid time as `PrefixFactors` (rho, a, g), at the
        projections p = projections(xi) of shape (..., m, steps): DF_i^ell =
        rho_i sum_{k<i} a[..., k, ell] g_k in the coordinates of component
        ell, with the node weights a_k = beta_k q H_{q-1}(p_k^ell; |g_k|^2)
        of shape (..., steps, m).  rho and g are the driver's own read-only
        arrays."""
        self._check_projections(p)
        der_w = _deriv_weights(self.spec.q, p, self._gg)
        return PrefixFactors(self._rho, np.swapaxes(self._beta * der_w, -1, -2), self._g)


#: rows of i_1 per GEMM of `_canonical_blocks`.  The height sets the
#: GEMM's M, and with it the order in which BLAS may sum an entry: on
#: OpenBLAS 0.3.31 (Haswell kernels) blocks of 4, 8, 16, 32, 48 and 64 rows
#: keep every bit of the whole-time product on the drivers-q3 grid, and
#: blocks of 12, 20, 24 and 40 rows do not
ENTRY_ROWS = 16
#: canonical tails per GEMM of `_canonical_blocks` at q >= 2, the width of
#: its reused tile of tail products.  The width sets the GEMM's N: on
#: OpenBLAS 0.3.31 fixed tiles of 256, 512, 1000, 1024, 2048 and 4096 tails
#: keep every bit of the whole-block product at all three drivers-q3 times,
#: while tiles of 7 tails, or cut where i_2 changes (widths that vary), move
#: last digits.  Narrower tiles formed the drivers-q3 entries faster (512:
#: 25 ms, 1024: 29 ms, 2048: 34 ms a dump), their tile staying in cache
#: while BLAS packs it; at 1024 a q = 3 grid of n <= 44 is one tile
TAIL_TILE = 1024


def _canonical_blocks(field: KernelField, ti: int):
    """The entries of the block at out_times[ti] over row blocks of i_1:
    yields (a, entries) for the rows a <= i_1 < a + ENTRY_ROWS (the last
    block may be shorter), with entries[r, c] the entry at i_1 = a + r and
    the canonical tail starts[a] + c.  The canonical ones, i_1 <= i_2, are
    the columns from starts[a + r] - starts[a] on in row r; row by row and
    column by column that is the lexicographic order.

    Each block is (rho beta g)[:, a:b]^T @ P[:, starts[a]:], with P[k, r]
    the product of g[k, i_j] over the r-th tail, one GEMM per TAIL_TILE
    tails (P = g at q = 2); at q = 1 the one block is the n rows of
    (rho beta) @ g.  One reused (s_nodes, TAIL_TILE) tile of P and one
    block, ENTRY_ROWS rows by the time's tails, are held: never the whole
    P, nor an array over the whole time's entries.
    """
    tails, starts = field._canonical
    g, weights, q = field.g[ti], field.rho[ti] * field.beta[ti], field.spec.q
    n, count = g.shape[1], tails.shape[1]
    if q == 1:
        yield 0, (weights @ g)[:, None]
        return
    weighted = weights[:, None] * g
    products = (lambda lo, hi: g[:, lo:hi]) if q == 2 else _tail_products(g, starts)
    for a in range(0, n, ENTRY_ROWS):
        b = min(a + ENTRY_ROWS, n)
        # nothing of a block stays bound here while the next is formed
        yield a, _row_block(weighted[:, a:b].T, products, starts[a], count)


def _tail_products(g: np.ndarray, starts: np.ndarray):
    """products(lo, hi), the (s_nodes, hi - lo) products g[:, i_2] *
    g[:, i_3] over the order-3 tails lo <= r < hi, hi - lo <= TAIL_TILE:
    a view of one reused tile, tail by tail in memory, filled one i_2 run
    at a time, each run clipped at the tile's edges."""
    n, count = g.shape[1], starts[-1] + 1
    rows, starts = g.T.copy(), starts.tolist()
    tile = np.empty((min(TAIL_TILE, count), g.shape[0]))

    def products(lo: int, hi: int) -> np.ndarray:
        i2 = bisect.bisect_right(starts, lo) - 1
        while i2 < n and starts[i2] < hi:
            left, right = max(starts[i2], lo), min(starts[i2] + n - i2, hi)
            shift = i2 - starts[i2]  # run i_2 holds the tails (i_2, r + shift)
            np.multiply(rows[i2], rows[left + shift:right + shift], out=tile[left - lo:right - lo])
            i2 += 1
        return tile[:hi - lo].T

    return products


def _row_block(lhs: np.ndarray, products, first: int, count: int) -> np.ndarray:
    """lhs @ P[:, first:], P the (s_nodes, count) products over the
    canonical tails, one GEMM per TAIL_TILE tails from first on, each
    written into its columns of the result; products(lo, hi) gives
    P[:, lo:hi]."""
    out = np.empty((lhs.shape[0], count - first))
    for lo in range(first, count, TAIL_TILE):
        hi = min(lo + TAIL_TILE, count)
        np.matmul(lhs, products(lo, hi), out=out[:, lo - first:hi - first])
    return out


def _canonical_entries(field: KernelField, ti: int) -> tuple:
    """(index, values) of the block at out_times[ti] over its canonical
    multi-indices i_1 <= .. <= i_q in lexicographic order: index has shape
    (q, N), values shape (N,); the entries of `_canonical_blocks`, each
    row i_1 from its first canonical tail starts[i_1] on, so
    `field.blocks`, built from these, and the dump agree bit for bit."""
    tails, starts = field._canonical
    index, values = [], []
    for a, entries in _canonical_blocks(field, ti):
        for i1, row in enumerate(entries, a):
            index.append(np.vstack([np.full(tails.shape[1] - starts[i1], i1),
                                    tails[:, starts[i1]:]]))
            values.append(row[starts[i1] - starts[a]:])
    return np.concatenate(index, axis=1), np.concatenate(values)


def export_kernels(field: KernelField, fh):
    """Portable text dump to fh, an open binary stream: one line
    `ti i_1 .. i_q value` per nonzero canonical (nondecreasing)
    multi-index, in lexicographic order, values in %.17g (NaN kept, -0.0
    skipped).

    Works from the factors (`_canonical_blocks`), never the dense view, and
    writes each row block of i_1 before the next is formed, a chunk of
    lines at a time (`_write_rows`).  The labels are packed into words with
    their separators inside, `ti i_1 ` and, at q >= 2, `i_2 i_3 ` (`i_2 `
    at q = 2), from tables built per call: row i_1 is the range of tails
    from starts[i_1] on, so its head word is filled once and its tail words
    are a slice of the table.  Besides the tables and a block, the working
    set is one chunk of lines and their values.
    """
    spec = field.spec
    n, q = spec.space.n, spec.q
    fh.write((f"# chaosde kernel field q={spec.q} H={spec.H:.17g} m={spec.m}\n"
              f"# space lo={spec.space.lo:.17g} hi={spec.space.hi:.17g} n={n}\n"
              f"# s_nodes={spec.s_nodes} calibrated={int(field.calibrated)}\n"
              "# times " + " ".join(f"{t:.17g}" for t in spec.out_times) + "\n").encode())
    tails, starts = field._canonical
    cells = np.arange(n)
    # the words after `ti i_1 ` by tail: `i_2 i_3 ` or `i_2 ` (none at q = 1)
    tail_words = label_words(*tails) if q > 1 else np.zeros((1, 0), dtype=np.uint64)
    values = np.empty(EXPORT_CHUNK)
    for ti in range(len(spec.out_times)):
        head_words = label_words(ti, cells)  # `ti i_1 ` by i_1
        labels = head_words.shape[1] + tail_words.shape[1]
        chunk = np.empty((EXPORT_CHUNK, labels + VALUE_WORDS), dtype=head_words.dtype)
        for a, entries in _canonical_blocks(field, ti):
            _write_rows(fh, chunk, values, head_words[a:], tail_words[starts[a]:], entries,
                        starts[a:a + entries.shape[0]] - starts[a])
            del entries  # the next block is formed with this one freed


def _write_rows(fh, chunk, values, heads, tails, entries, firsts):
    """The dump lines of one row block of `_canonical_blocks`: row r keeps
    the columns from firsts[r] on, and of those its nonzero entries (NaN
    kept, -0.0 skipped).  Each row's lines are laid into the rows of chunk,
    heads[r] in every line and the slice of tails by column (gathered only
    in a row with zeros), and their entries into values; each full chunk is
    written as it fills, and the rest at the end."""
    width, labels, size = heads.shape[1], heads.shape[1] + tails.shape[1], chunk.shape[0]
    fill = 0
    for r, first in enumerate(firsts):
        nonzero = entries[r, first:] != 0
        kept = None if nonzero.all() else first + np.flatnonzero(nonzero)
        lines = nonzero.shape[0] if kept is None else kept.shape[0]
        done = 0
        # a row longer than the room left in the chunk goes on in the next
        while done < lines:
            take = min(lines - done, size - fill)
            part = (slice(first + done, first + done + take) if kept is None
                    else kept[done:done + take])
            rows = chunk[fill:fill + take]
            rows[:, :width] = heads[r]
            rows[:, width:labels] = tails[part]
            values[fill:fill + take] = entries[r, part]
            done += take
            fill += take
            if fill == size:
                _write_chunk(fh, chunk, values, labels)
                fill = 0
    _write_chunk(fh, chunk[:fill], values[:fill], labels)


def _write_chunk(fh, rows, values, labels):
    """Write the lines of rows, each of values formatted into the words
    after its labels."""
    _format_17g(values, out=rows[:, labels:])
    write_words(fh, rows, " ", [VALUE_WORDS])
