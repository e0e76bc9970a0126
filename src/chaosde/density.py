"""Monte Carlo study of the law of X_t: ensembles of (state, Malliavin
determinant) pairs, kernel density estimates, positivity statistics for
the absolute-continuity criterion, and a two-sample distribution test.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DegenerateLawError, FrozenRecord, check_budget
from .wiener import draw_blocks, make_hilbert
from .hermite import GridDriver, HermiteSpec
from .sde import preset, solve_euler, solve_theta_all
from .malliavin import malliavin_matrix, solution_derivative
from .textio import integer_field, value_fields, write_rows


class Scenario(FrozenRecord):
    """Everything needed to reproduce one ensemble member from a seed."""

    # the __dict__ holds build's driver
    __slots__ = ("preset", "q", "H", "t", "steps", "n", "L", "x0", "__dict__")

    def __init__(self, preset: str, q: int, H: float, t: float = 1.0, steps: int = 128,
                 n: int = 256, L: float = 8.0, x0: tuple = None):
        check_budget((steps, steps))  # the driver's calibration Gram
        super().__init__(preset, q, H, t, steps, n, L, x0)

    def build(self):
        """(coeffs, x0, spec, driver): the preset looked up on each call, the
        spec and GridDriver built on the first call and kept."""
        coeffs, x0_default = preset(self.preset)
        x0 = np.asarray(self.x0, dtype=float) if self.x0 is not None else x0_default
        if "_driver" not in self.__dict__:
            space = make_hilbert(coeffs.m, -self.L, self.t, self.n)
            # the driver's time-quadrature nodes are the step midpoints
            spec = HermiteSpec(q=self.q, H=self.H, m=coeffs.m, space=space,
                               s_nodes=self.steps, out_times=(self.t,))
            times = np.linspace(0.0, self.t, self.steps + 1)
            self.__dict__["_driver"] = spec, GridDriver(spec, times)
        return (coeffs, x0) + self.__dict__["_driver"]


class SampleEnsemble:
    """M reproducible (X_t, det Gamma) samples with exclusion accounting."""

    __slots__ = ("t", "seeds", "x_samples", "det_samples", "min_eigs", "excluded_seeds")

    def __init__(self, t: float, seeds: list, x_samples: np.ndarray, det_samples: np.ndarray,
                 min_eigs: np.ndarray, excluded_seeds: list = None):
        self.t, self.seeds, self.x_samples = t, seeds, x_samples
        self.det_samples, self.min_eigs = det_samples, min_eigs
        self.excluded_seeds = [] if excluded_seeds is None else excluded_seeds

    @property
    def excluded(self) -> int:
        return len(self.excluded_seeds)


#: draws per sub-block of an Euler block in `_parallel_chunk`: Theta, DF,
#: DX and the Malliavin matrix run on sub-blocks of at most this many
#: draws, whose (B, steps, d, m, d) and (B, d, m n) temporaries set the
#: peak memory of a chunk, while Euler, whose step loop costs the same at
#: any block size, runs once per block of `wiener.DRAW_BLOCK` draws
SUB_BLOCK = 64


def euler_batches(coeffs, x0, spec, driver, seeds):
    """(seeds, p, batch) for each block (seeds, xi) of `wiener.draw_blocks`:
    the block's projections p = driver.projections(xi) on the driver's
    nodes, formed once for the block, and the batched Euler solve along the
    driver values at p, about DRAW_BLOCK * steps * (d * m + d + 3 m)
    doubles (the states, sigma, the projections, the driver values and
    their increments); batch.path(k) is the path of seeds[k]."""
    for block, xi in draw_blocks(spec.space, seeds):
        p = driver.projections(xi)
        yield block, p, solve_euler(coeffs, x0, (driver.times, driver.values(p)))


def run_ensemble(scenario: Scenario, M: int, base_seed: int = 0, workers: int = 1) -> SampleEnsemble:
    """M independent samples with per-seed determinism.

    Blowups are excluded from the arrays and their seeds reported; nothing
    is imputed.  x_samples has shape (kept, d) even when nothing is kept.
    """
    if M < 2:
        raise ConfigError("ensemble needs at least 2 draws")
    seeds = [base_seed + k for k in range(M)]
    if workers > 1:
        results = _run_parallel(scenario, seeds, workers)
    else:
        results = _parallel_chunk((scenario, seeds))
    kept = [r for r in results if r[1] is not None]
    excluded = [r[0] for r in results if r[1] is None]
    d = preset(scenario.preset)[0].d
    return SampleEnsemble(
        t=scenario.t,
        seeds=[r[0] for r in kept],
        x_samples=np.array([r[1] for r in kept]).reshape(len(kept), d),
        det_samples=np.array([r[2] for r in kept]),
        min_eigs=np.array([r[3] for r in kept]),
        excluded_seeds=excluded,
    )


def _parallel_chunk(args):
    """(seed, X_t, det Gamma, min eig) per seed, or (seed, None, None, None)
    for a blowup: one Euler call per block of seeds, then one call each of
    Theta, DF, DX and the Malliavin matrix at t per sub-block of at most
    SUB_BLOCK of its draws, DF at the sub-block's slice of the block's
    projections.  A draw is kept where `ok` holds and its Theta is finite,
    sigma(X_N) too, the row DX does not read."""
    scenario, seeds = args
    coeffs, x0, spec, driver = scenario.build()
    out = []
    for block, p, batch in euler_batches(coeffs, x0, spec, driver, seeds):
        x_t = batch.X[:, -1].copy()  # the rows keep no view of the block's paths
        for lo in range(0, len(block), SUB_BLOCK):
            part = slice(lo, lo + SUB_BLOCK)
            sub = solve_theta_all(coeffs, batch.rows(part))
            mm = malliavin_matrix(solution_derivative(coeffs, sub, driver.deriv_vectors(p[part]),
                                                      spec.space))
            ok = mm.ok & (sub.theta_failed == 0)
            out += [(seed, x_t[lo + k], mm.det[k], mm.min_eig[k]) if ok[k]
                    else (seed, None, None, None) for k, seed in enumerate(block[part])]
    return out


def _run_parallel(scenario, seeds, workers):
    from concurrent.futures import ProcessPoolExecutor

    chunks = [seeds[i::workers] for i in range(workers)]
    results = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_parallel_chunk, [(scenario, c) for c in chunks if c]):
            results.extend(part)
    results.sort(key=lambda r: r[0])
    return results


class DensityEstimate(FrozenRecord):
    __slots__ = ("grid", "values", "bandwidth")

    def __init__(self, grid: np.ndarray, values: np.ndarray, bandwidth: float):
        super().__init__(grid, values, bandwidth)

    def mass(self) -> float:
        return float(np.trapezoid(self.values, self.grid))


#: number of KDE grid points, and grid rows per chunk of kde: it holds
#: (KDE_ROWS, samples) matrices
KDE_GRID_POINTS, KDE_ROWS = 512, 64


# np.percentile and np.median import numpy's masked arrays, about 15 ms on
# a command's first call; these two take the same statistics from a sorted
# sample with numpy's arithmetic, bit for bit.


def _percentile(ordered: np.ndarray, q: float) -> float:
    """np.percentile(x, 100 q) from x sorted: numpy's linear method takes
    the order statistics a, b around (N - 1) q and returns a + (b - a) t
    below t = 1/2 and b - (b - a)(1 - t) from it.  NaN sorts last and makes
    the percentile NaN."""
    if np.isnan(ordered[-1]):
        return float(ordered[-1])
    h = (ordered.shape[0] - 1) * q
    i = math.floor(h)
    t = h - i
    a, b = float(ordered[i]), float(ordered[i + 1])
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _median(ordered: np.ndarray) -> float:
    """np.median(x) from x sorted: the middle value, or the mean (a + b) / 2
    of the two middle values; NaN if x holds one."""
    if np.isnan(ordered[-1]):
        return float(ordered[-1])
    h = ordered.shape[0] // 2
    if ordered.shape[0] % 2:
        return float(ordered[h])
    return (float(ordered[h - 1]) + float(ordered[h])) / 2


def kde(samples) -> DensityEstimate:
    """Gaussian-kernel density estimate with Silverman-rule bandwidth.

    Raises DegenerateLawError for (numerically) constant samples.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.shape[0] < 100:
        raise ConfigError("kde needs at least 100 samples")
    # the mean of huge samples overflows; the spread check below rejects
    # the non-finite std that follows
    with np.errstate(over="ignore", invalid="ignore"):
        std = float(np.std(x, ddof=1))
    ordered = np.sort(x)
    iqr = _percentile(ordered, 0.75) - _percentile(ordered, 0.25)
    spread = min(std, iqr / 1.34) if iqr > 0 else std
    if spread <= 0 or not np.isfinite(spread):
        raise DegenerateLawError("samples are numerically constant")
    bandwidth = 0.9 * spread * x.shape[0] ** (-0.2)
    lo = x.min() - 5.0 * bandwidth
    hi = x.max() + 5.0 * bandwidth
    grid = np.linspace(lo, hi, KDE_GRID_POINTS)
    sums = np.empty(KDE_GRID_POINTS)
    # each grid row is summed over every sample, in any chunk of rows
    for r in range(0, KDE_GRID_POINTS, KDE_ROWS):
        z = (grid[r:r + KDE_ROWS, None] - x[None, :]) / bandwidth
        sums[r:r + KDE_ROWS] = np.exp(-0.5 * z * z).sum(axis=1)
    values = sums / (x.shape[0] * bandwidth * math.sqrt(2 * math.pi))
    est = DensityEstimate(grid=grid, values=values, bandwidth=float(bandwidth))
    if abs(est.mass() - 1.0) > 0.02:
        raise DegenerateLawError(f"KDE mass {est.mass():.4f} outside the 2% band")
    return est


def positivity_report(ensemble: SampleEnsemble, eps_det: float = None) -> dict:
    """Fraction of samples whose Malliavin determinant clears the threshold.

    The default threshold of a sample is 1e-12 * max((d * min_eig)^d, 1), d
    the state dimension and min_eig its smallest eigenvalue of Gamma (0 where
    negative); `threshold` reports the smallest.  With every sample excluded
    the four statistics are None (null in JSON, which has no NaN).
    """
    dets = ensemble.det_samples
    d = ensemble.x_samples.shape[1]
    if eps_det is None:
        # the d-th power of d * min_eig, floored at 1 so that a small Gamma
        # keeps the absolute threshold 1e-12
        scale = np.maximum(ensemble.min_eigs * d, 0.0) ** d
        thresholds = 1e-12 * np.maximum(scale, 1.0)
    else:
        thresholds = np.full_like(dets, float(eps_det))
    ok = dets > thresholds
    return {
        "fraction": float(np.mean(ok)) if dets.size else None,
        "min_det": float(np.min(dets)) if dets.size else None,
        "median_det": _median(np.sort(dets)) if dets.size else None,
        "excluded": ensemble.excluded,
        "threshold": float(np.min(thresholds)) if dets.size else None,
    }


KS_COEFF = {0.05: 1.3581, 0.01: 1.6276}


def ks_two_sample(a, b) -> dict:
    """Two-sample Kolmogorov-Smirnov statistic with asymptotic thresholds.

    critical(alpha) = c(alpha) * sqrt((n + m) / (n m)), c(5%) = 1.3581,
    c(1%) = 1.6276.
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ConfigError("both samples must be nonempty")
    allv = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, allv, side="right") / a.size
    cdf_b = np.searchsorted(b, allv, side="right") / b.size
    stat = float(np.max(np.abs(cdf_a - cdf_b)))
    factor = math.sqrt((a.size + b.size) / (a.size * b.size))
    return {
        "statistic": stat,
        "critical_5pct": KS_COEFF[0.05] * factor,
        "critical_1pct": KS_COEFF[0.01] * factor,
    }


def dump_csv(ensemble: SampleEnsemble, fh):
    """Ensemble dump to fh, an open binary stream: seed, t, x_1..x_d,
    det_gamma, min_eig, excluded_flag; the kept seeds first, then the
    excluded ones, whose value fields are empty."""
    d = ensemble.x_samples.shape[1]
    fh.write((",".join(["seed", "t"] + [f"x_{k + 1}" for k in range(d)]
                       + ["det_gamma", "min_eig", "excluded_flag"]) + "\n").encode())
    (t,) = value_fields([[ensemble.t]])
    kept = value_fields(np.column_stack([ensemble.x_samples, ensemble.det_samples,
                                         ensemble.min_eigs]))
    empty = [np.zeros((len(ensemble.excluded_seeds), 1), dtype=t.dtype)] * (d + 2)
    for seeds, fields, flag in ((ensemble.seeds, kept, "0"), (ensemble.excluded_seeds, empty, "1")):
        N = len(seeds)
        write_rows(fh, [integer_field(seeds), np.broadcast_to(t, (N, t.shape[1]))] + fields
                   + [np.full((N, 1), ord(flag), dtype=t.dtype)], ",")
