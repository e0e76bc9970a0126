"""Monte Carlo study of the law of X_t: ensembles of (state, Malliavin
determinant) pairs, kernel density estimates, positivity statistics for
the absolute-continuity criterion, and a two-sample distribution test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowupError, ConfigError, DegenerateLawError, check_budget
from .wiener import draw_blocks, make_hilbert
from .hermite import GridDriver, HermiteSpec
from .sde import preset, solve_euler, solve_theta_all
from .malliavin import malliavin_matrix, solution_derivative
from .textio import integer_field, value_fields, write_ascii, write_rows


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one ensemble member from a seed."""

    preset: str
    q: int
    H: float
    t: float = 1.0
    steps: int = 128
    n: int = 256
    L: float = 8.0
    x0: tuple = None

    def __post_init__(self):
        check_budget((self.steps, self.steps))  # the driver's calibration Gram

    def build(self):
        coeffs, x0_default = preset(self.preset)
        x0 = np.asarray(self.x0, dtype=float) if self.x0 is not None else x0_default
        space = make_hilbert(coeffs.m, -self.L, self.t, self.n)
        # the driver's time-quadrature nodes are the step midpoints
        spec = HermiteSpec(q=self.q, H=self.H, m=coeffs.m, space=space,
                           s_nodes=self.steps, out_times=(self.t,))
        times = np.linspace(0.0, self.t, self.steps + 1)
        driver = GridDriver(spec, times)
        return coeffs, x0, spec, driver


@dataclass
class SampleEnsemble:
    """M reproducible (X_t, det Gamma) samples with exclusion accounting."""

    t: float
    seeds: list
    x_samples: np.ndarray
    det_samples: np.ndarray
    min_eigs: np.ndarray
    excluded_seeds: list = field(default_factory=list)

    @property
    def draws(self) -> int:
        return len(self.seeds)

    @property
    def excluded(self) -> int:
        return len(self.excluded_seeds)


def euler_batches(coeffs, x0, spec, driver, seeds):
    """(draws, batch) for each block of `wiener.draw_blocks`: the batched
    Euler solve along the draws' driver values, about DRAW_BLOCK * steps *
    (d * m + d + m) doubles; batch.path(k) is the path of draws[k]."""
    for draws, _ in draw_blocks(spec.space, seeds):
        yield draws, solve_euler(coeffs, x0, (driver.times, driver.values(draws)))


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
    for a blowup: Euler over batches of seeds, the Malliavin matrix per seed.

    Every sample of the chunk fills the same zeroed Theta buffer and DF
    buffer (the `out` of `solve_theta_all` and `deriv_vectors`), so the
    chunk allocates them once instead of once per sample."""
    scenario, seeds = args
    coeffs, x0, spec, driver = scenario.build()
    N, d, m = scenario.steps, coeffs.d, coeffs.m
    check_budget((N + 1, N + 1, d, m))  # the Theta triangle, as solve_theta_all checks it
    theta = np.zeros((N + 1, d, N + 1, m))
    dfields = np.zeros((N + 1, m, spec.space.n))
    out = []
    for draws, batch in euler_batches(coeffs, x0, spec, driver, seeds):
        for k, w in enumerate(draws):
            try:
                path = batch.path(k)
                driver.deriv_vectors(w, out=dfields)
                solve_theta_all(coeffs, path, out=theta)
                mf = solution_derivative(coeffs, path, dfields, spec.space)
                mm = malliavin_matrix(mf)
                out.append((w.seed, path.X[-1], mm.det, mm.min_eig))
            except BlowupError:
                out.append((w.seed, None, None, None))
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


@dataclass(frozen=True)
class DensityEstimate:
    grid: np.ndarray
    values: np.ndarray
    bandwidth: float

    def mass(self) -> float:
        return float(np.trapezoid(self.values, self.grid))


#: number of KDE grid points; kde holds a (KDE_GRID_POINTS, samples) matrix
KDE_GRID_POINTS = 512


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
    z = (grid[:, None] - x[None, :]) / bandwidth
    values = np.exp(-0.5 * z * z).sum(axis=1) / (x.shape[0] * bandwidth * math.sqrt(2 * math.pi))
    est = DensityEstimate(grid=grid, values=values, bandwidth=float(bandwidth))
    if abs(est.mass() - 1.0) > 0.02:
        raise DegenerateLawError(f"KDE mass {est.mass():.4f} outside the 2% band")
    return est


def positivity_report(ensemble: SampleEnsemble, eps_det: float = None) -> dict:
    """Fraction of samples whose Malliavin determinant clears the threshold.

    Default threshold is scale-aware: 1e-12 * (trace Gamma / d)^d per
    sample, using d inferred from the state dimension.  With every sample
    excluded the four statistics are None (null in JSON, which has no NaN).
    """
    dets = ensemble.det_samples
    d = ensemble.x_samples.shape[1] if ensemble.x_samples.ndim > 1 else 1
    if eps_det is None:
        # trace of Gamma is not stored; min_eig * d underestimates it, so
        # use the determinant-compatible scale |det|^(1/d) ~ eigenvalue scale
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
    """Ensemble dump to fh, an open text or binary stream: seed, t, x_1..x_d,
    det_gamma, min_eig, excluded_flag; the kept seeds first, then the
    excluded ones, whose value fields are empty."""
    d = ensemble.x_samples.shape[1]
    write_ascii(fh, (",".join(["seed", "t"] + [f"x_{k + 1}" for k in range(d)]
                              + ["det_gamma", "min_eig", "excluded_flag"]) + "\n").encode())
    (t,) = value_fields([[ensemble.t]])
    kept = value_fields(np.column_stack([ensemble.x_samples, ensemble.det_samples,
                                         ensemble.min_eigs]))
    empty = [np.zeros((len(ensemble.excluded_seeds), 1), dtype=t.dtype)] * (d + 2)
    for seeds, fields, flag in ((ensemble.seeds, kept, "0"), (ensemble.excluded_seeds, empty, "1")):
        N = len(seeds)
        write_rows(fh, [integer_field(seeds), np.broadcast_to(t, (N, t.shape[1]))] + fields
                   + [np.full((N, 1), ord(flag), dtype=t.dtype)], ",")
