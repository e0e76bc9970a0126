"""Monte Carlo study of the law of X_t: ensembles of (state, Malliavin
determinant) pairs, kernel density estimates, positivity statistics for
the absolute-continuity criterion, and a two-sample distribution test.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowupError, ConfigError, DegenerateLawError, check_budget
from .wiener import make_hilbert, sample_omega
from .hermite import GridDriver, HermiteSpec
from .sde import preset, solve_euler
from .malliavin import malliavin_matrix, solution_derivative


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
    with_malliavin: bool = True

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


def _run_one(coeffs, x0, spec, driver, seed, with_malliavin):
    w = sample_omega(spec.space, seed)
    bundle = solve_euler(coeffs, x0, (driver.times, driver.values(w)))
    if not with_malliavin:
        return bundle.X[-1], float("nan"), float("nan")
    mf = solution_derivative(coeffs, bundle, driver.deriv_vectors(w), spec.space)
    mm = malliavin_matrix(mf)
    return bundle.X[-1], mm.det, mm.min_eig


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
    scenario, chunk = args
    coeffs, x0, spec, driver = scenario.build()
    out = []
    for seed in chunk:
        try:
            out.append((seed,) + _run_one(coeffs, x0, spec, driver, seed,
                                          scenario.with_malliavin))
        except BlowupError:
            out.append((seed, None, None, None))
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

    def at(self, x: float) -> float:
        return float(np.interp(x, self.grid, self.values))

    def mass(self) -> float:
        return float(np.trapezoid(self.values, self.grid))


#: default number of KDE grid points; kde holds a (grid_points, samples) matrix
KDE_GRID_POINTS = 512


def kde(samples, bandwidth: float = None, grid_points: int = KDE_GRID_POINTS) -> DensityEstimate:
    """Gaussian-kernel density estimate with Silverman-rule bandwidth.

    Raises DegenerateLawError for (numerically) constant samples.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.shape[0] < 100:
        raise ConfigError("kde needs at least 100 samples")
    std = float(np.std(x, ddof=1))
    iqr = float(np.subtract(*np.percentile(x, [75, 25])))
    spread = min(std, iqr / 1.34) if iqr > 0 else std
    if spread <= 0 or not np.isfinite(spread):
        raise DegenerateLawError("samples are numerically constant")
    if bandwidth is None:
        bandwidth = 0.9 * spread * x.shape[0] ** (-0.2)
    lo = x.min() - 5.0 * bandwidth
    hi = x.max() + 5.0 * bandwidth
    grid = np.linspace(lo, hi, grid_points)
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
        "median_det": float(np.median(dets)) if dets.size else None,
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
    """Ensemble dump to the open text stream fh: seed, t, x_1..x_d,
    det_gamma, min_eig, excluded_flag."""
    d = ensemble.x_samples.shape[1]
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["seed", "t"] + [f"x_{k + 1}" for k in range(d)]
                    + ["det_gamma", "min_eig", "excluded_flag"])
    for i, seed in enumerate(ensemble.seeds):
        row = [seed, f"{ensemble.t:.17g}"]
        row += [f"{v:.17g}" for v in ensemble.x_samples[i]]
        row += [f"{ensemble.det_samples[i]:.17g}", f"{ensemble.min_eigs[i]:.17g}", 0]
        writer.writerow(row)
    for seed in ensemble.excluded_seeds:
        writer.writerow([seed, f"{ensemble.t:.17g}"] + [""] * d + ["", "", 1])
