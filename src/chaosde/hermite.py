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
    check_out,
)
from .wiener import GaussianDraw, HilbertDisc, draw_blocks, make_hilbert
from .chaos import MAX_ORDER, hermite_poly
from .textio import EXPORT_CHUNK, VALUE_WORDS, _format_17g, label_words, write_ascii, write_words


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
    # powers of numpy scalars: an overflow is inf, where a float raises
    with np.errstate(over="ignore", invalid="ignore"):
        scale = c * np.float64(space.delta) ** (-q / 2.0)
        if q == 1:
            prim = _cell_avg_matrix(space, np.array([t, 0.0]), a + 1.0) / (a + 1.0)
            g, beta = scale * (prim[:1] - prim[1:]), np.ones(1)
        else:
            g = _cell_avg_matrix(space, t * (np.arange(s_nodes) + 0.5) / s_nodes, a)
            beta = np.full(s_nodes, scale * t / s_nodes)
        # adaptedness: cells at or beyond t carry no coefficient
        g = g * (space.cell_midpoints() < t)
    _check_finite([t], g, beta)
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
        # every row against every tail bounds a block's GEMM product; one
        # output time's tail products are (s_nodes, R)
        check_budget((n, tails.shape[1]))
        check_budget((self.spec.s_nodes, tails.shape[1]))
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
        # cannot represent; the rounding slack scales with the cells
        space = field.spec.space
        tol = 1e-9 * space.delta
        edges = space.cell_edges()
        window = (edges[:-1] >= lo - tol) & (edges[1:] <= hi + tol)
        if not window.any():  # both sides would be all zeros, equal in law on no data
            raise OutOfRangeError(f"no whole cell of the grid (width {space.delta:.6g}) lies "
                                  f"in the window ({lo:.6g}, {hi:.6g}]")
        ders = (field.evaluate(0, xi[:, :1])[1][:, 0, window]
                for _, xi in draw_blocks(space, seeds))
        return np.concatenate([np.empty(0)] + [np.sum(d * d, axis=-1) for d in ders])

    lhs = energies(lhs_field, seeds, t - eps, t)
    rhs = eps ** (2.0 * spec.H) * energies(rhs_field, rhs_seeds, 0.0, 1.0)
    return lhs, rhs


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
        with np.errstate(over="ignore", invalid="ignore"):
            self._g = _cell_avg_matrix(space, mids, H0 - 1.5)
            self._beta = c * np.float64(space.delta) ** (-q / 2.0) * dts
        _check_finite(times[1:], self._g, self._beta)
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

    def deriv_vectors(self, w: GaussianDraw, out=None) -> np.ndarray:
        """Full DF vectors, shape (len(times), m, n) in component-block coords.

        Each cell's increment beta der_w (x) g is written into its row of the
        output and prefix-summed there one contiguous row at a time: the
        sequential sum of a cumsum over the rows, with no temporaries.

        out, if given, is the output: a C-contiguous float64 array of shape
        (len(times), m, n) (InvalidDimensionError otherwise), whatever it
        holds.  Row 0 is reset to 0 and every other row overwritten, so a
        reused buffer gives the vectors of a fresh one bit for bit; the
        result is out itself, valid until out is filled again.  Without
        out the array is allocated."""
        shape = (self.times.shape[0], self.spec.m, self.spec.space.n)
        if out is None:
            out = np.zeros(shape)
        else:
            check_out(out, shape)
            out[0] = 0.0
        _, der_w = _wick_weights(self._g, self._components(w), self.spec.q)
        np.multiply((self._beta * der_w).T[:, :, None], self._g[:, None, :], out=out[1:])
        for i in range(2, out.shape[0]):
            np.add(out[i - 1], out[i], out=out[i])
        out *= self._rho[:, None, None]
        return out


#: rows of i_1 per GEMM of `_canonical_blocks`.  The height sets the
#: GEMM's M, and with it the order in which BLAS may sum an entry: on
#: OpenBLAS 0.3.31 (Haswell kernels) blocks of 4, 8, 16, 32, 48 and 64 rows
#: keep every bit of the whole-time product on the drivers-q3 grid, and
#: blocks of 12, 20, 24 and 40 rows do not
ENTRY_ROWS = 16


def _canonical_blocks(field: KernelField, ti: int):
    """The entries of the block at out_times[ti] over row blocks of i_1:
    yields (a, entries, keep) for the rows a <= i_1 < a + ENTRY_ROWS (the
    last block may be shorter), with entries[r, c] the entry at i_1 = a + r
    and the canonical tail starts[a] + c, and keep the mask of the
    canonical ones, i_1 <= i_2.  Row by row and column by column that is
    the lexicographic order.

    Each block is one GEMM, (rho beta g)[:, a:b]^T @ P[:, starts[a]:], with
    P[k, r] the product of g[k, i_j] over the r-th tail, built once per
    time one i_2 at a time (P = g at q = 2); at q = 1 the one block is the
    n rows of (rho beta) @ g.  Only P and one block are held, never an
    array over the whole time's entries.
    """
    tails, starts = field._canonical
    g, weights, q = field.g[ti], field.rho[ti] * field.beta[ti], field.spec.q
    n = g.shape[1]
    if q == 1:
        yield 0, (weights @ g)[:, None], np.ones((n, 1), dtype=bool)
        return
    if q == 2:
        tail_products = g
    else:
        tail_products = np.empty((g.shape[0], tails.shape[1]))
        for i2 in range(n):
            np.multiply(g[:, i2:i2 + 1], g[:, i2:],
                        out=tail_products[:, starts[i2]:starts[i2] + n - i2])
    weighted = weights[:, None] * g
    for a in range(0, n, ENTRY_ROWS):
        b = min(a + ENTRY_ROWS, n)
        # nothing of a block stays bound here while the next is formed
        yield (a, weighted[:, a:b].T @ tail_products[:, starts[a]:],
               np.arange(tails.shape[1] - starts[a]) >= (starts[a:b] - starts[a])[:, None])


def _canonical_entries(field: KernelField, ti: int) -> tuple:
    """(index, values) of the block at out_times[ti] over its canonical
    multi-indices i_1 <= .. <= i_q in lexicographic order: index has shape
    (q, N), values shape (N,); the kept entries of `_canonical_blocks`, so
    `field.blocks`, built from these, and the dump agree bit for bit."""
    tails, starts = field._canonical
    index, values = [], []
    for a, entries, keep in _canonical_blocks(field, ti):
        rows, columns = np.nonzero(keep)
        index.append(np.vstack([rows + a, tails[:, columns + starts[a]]]))
        values.append(entries[keep])
    return np.concatenate(index, axis=1), np.concatenate(values)


def export_kernels(field: KernelField, fh):
    """Portable text dump to fh, an open text or binary stream: one line
    `ti i_1 .. i_q value` per nonzero canonical (nondecreasing)
    multi-index, in lexicographic order, values in %.17g (NaN kept, -0.0
    skipped).

    Works from the factors (`_canonical_blocks`), never the dense view, and
    writes each row block of i_1 before the next is formed, a chunk of
    lines at a time: the labels packed into words with their separators
    inside, `ti i_1 ` and, at q >= 2, `i_2 i_3 ` (`i_2 ` at q = 2), gathered
    from tables built per call, and the value formatted, straight into one
    row buffer (`textio.write_words`).
    """
    spec = field.spec
    n, q = spec.space.n, spec.q
    write_ascii(fh, (f"# chaosde kernel field q={spec.q} H={spec.H:.17g} m={spec.m}\n"
                     f"# space lo={spec.space.lo:.17g} hi={spec.space.hi:.17g} n={n}\n"
                     f"# s_nodes={spec.s_nodes} calibrated={int(field.calibrated)}\n"
                     "# times " + " ".join(f"{t:.17g}" for t in spec.out_times) + "\n").encode())
    tails, starts = field._canonical
    cells = np.arange(n)
    # the words after `ti i_1 ` by tail: `i_2 i_3 ` or `i_2 ` (none at q = 1)
    tail_words = label_words(*tails) if q > 1 else np.zeros((1, 0), dtype=np.uint64)
    for ti in range(len(spec.out_times)):
        head_words = label_words(ti, cells)  # `ti i_1 ` by i_1
        labels = head_words.shape[1] + tail_words.shape[1]
        chunk = np.empty((EXPORT_CHUNK, labels + VALUE_WORDS), dtype=head_words.dtype)
        for a, entries, keep in _canonical_blocks(field, ti):
            _write_entries(fh, chunk, head_words[a:], tail_words[starts[a]:], entries, keep)
            del entries, keep  # the next block is formed with this one's arrays gone


def _write_entries(fh, chunk, heads, tails, entries, keep):
    """The dump lines of one row block of `_canonical_blocks`, its entries
    and keep mask, a chunk of lines at a time: for each nonzero kept entry
    (NaN kept, -0.0 skipped) the word rows of heads by row and of tails by
    column, then the value, laid into the rows of chunk."""
    keep &= entries != 0
    kept = np.flatnonzero(keep)
    labels = heads.shape[1] + tails.shape[1]
    for lo in range(0, kept.shape[0], chunk.shape[0]):
        flat = kept[lo:lo + chunk.shape[0]]
        rows = chunk[:flat.shape[0]]
        row, column = np.divmod(flat, entries.shape[1])
        heads.take(row, axis=0, out=rows[:, :heads.shape[1]], mode="clip")
        tails.take(column, axis=0, out=rows[:, heads.shape[1]:labels], mode="clip")
        _format_17g(entries.take(flat), out=rows[:, labels:])
        write_words(fh, rows, " ", [VALUE_WORDS])
