"""Pathwise Riemann-Stieltjes (Young) integration on dyadic grids.

Integrals are limits of left-point sums sum g(u_i) (phi(u_{i+1}) - phi(u_i))
along refining partitions; they converge when the Holder exponents of the
integrand and the integrator sum above 1.  Paths enter as sampled arrays on
a common grid whose interior the integrator refines dyadically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError

MAX_LEVELS = 14
DEFAULT_TOL = 1e-6


@dataclass(frozen=True)
class Partition:
    """Strictly increasing grid on an interval."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.shape[0] < 2:
            raise InvalidDimensionError("partition needs at least 2 points")
        if not np.all(np.diff(pts) > 0):
            raise InvalidDimensionError("partition points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def mesh(self) -> float:
        return float(np.max(np.diff(self.points)))


@dataclass(frozen=True)
class YoungResult:
    """Converged (or best-effort) integral value with refinement diagnostics."""

    value: object
    refinement_levels: int
    last_delta: float
    converged: bool
    young_warning: bool = False


def _level_strides(npts: int):
    """Subsampling strides for dyadic refinement, coarsest first.

    The finest grid has npts points; level k keeps every stride-th point.
    Requires npts - 1 to be a power of two times an integer base; plain
    power-of-two grids give the full dyadic tower.
    """
    n = npts - 1
    strides = [1]
    while n % 2 == 0 and len(strides) < MAX_LEVELS:
        n //= 2
        strides.append(strides[-1] * 2)
    return strides[::-1]


def _left_sum(g: np.ndarray, phi: np.ndarray, stride: int):
    gs = g[:-stride:stride]
    inc = phi[stride::stride] - phi[:-stride:stride]
    if phi.ndim == 1:
        return float(gs @ inc)
    return gs @ inc


def _estimate_holder(times: np.ndarray, path: np.ndarray) -> float:
    """Crude global Holder exponent from dyadic increment scaling."""
    vals = np.atleast_2d(path.T).T
    exps = []
    for lag in (1, 2, 4):
        if lag >= len(times):
            break
        diffs = np.linalg.norm(vals[lag:] - vals[:-lag], axis=-1)
        m = float(np.max(diffs))
        if m > 0:
            exps.append((np.log(m), np.log(lag * float(np.max(np.diff(times))))))
    if len(exps) < 2:
        return 1.0
    ys, xs = zip(*exps)
    slope = np.polyfit(xs, ys, 1)[0]
    return float(min(max(slope, 0.0), 1.0))


def _rs_core(times, g, phi, tol, check_exponents):
    times = np.asarray(times, dtype=float)
    g = np.asarray(g, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if g.shape[0] != times.shape[0] or phi.shape[0] != times.shape[0]:
        raise InvalidDimensionError("paths must be sampled on the common grid")
    Partition(times)  # validates monotonicity
    warning = False
    if check_exponents and times.shape[0] >= 9:
        if _estimate_holder(times, g) + _estimate_holder(times, phi) <= 1.0:
            warning = True
    if tol == 0.0:
        # no level can meet a zero tolerance: the finest sum, on its own
        return YoungResult(_left_sum(g, phi, 1), 1, np.inf, False, warning)
    strides = _level_strides(times.shape[0])
    prev = None
    delta = np.inf
    levels = 0
    value = None
    for stride in strides:
        value = _left_sum(g, phi, stride)
        levels += 1
        if prev is not None:
            delta = float(np.max(np.abs(np.asarray(value) - np.asarray(prev))))
            scale = max(1.0, float(np.max(np.abs(np.asarray(value)))))
            if delta < tol * scale:
                return YoungResult(value, levels, delta, True, warning)
        prev = value
    converged = bool(delta <= tol * max(1.0, float(np.max(np.abs(np.asarray(value))))))
    return YoungResult(value, levels, float(delta), converged, warning)


def rs_integral(times, g, phi, tol: float = DEFAULT_TOL) -> YoungResult:
    """Scalar Young integral of g against phi on [times[0], times[-1]].

    Left-point sums on dyadic refinements until two successive levels agree
    to tol (relative to max(1, |value|)) or the refinement tower is
    exhausted.  tol = 0 returns the finest sum alone: one level, last_delta
    inf and converged False.
    """
    return _rs_core(times, g, phi, tol, check_exponents=True)


def rs_integral_hvalued(times, g, Phi, tol: float = DEFAULT_TOL) -> YoungResult:
    """Hilbert-valued Young integral: sum g(u)(Phi(v) - Phi(u)) in coordinates.

    Phi has shape (len(times), dim); the result value is a dim-vector.
    """
    Phi = np.asarray(Phi, dtype=float)
    if Phi.ndim != 2:
        raise InvalidDimensionError("Phi must be a (time, coordinate) array")
    return _rs_core(times, g, Phi, tol, check_exponents=False)


def sewing_defects(times, g, Phi, holder_H: float, holder_beta: float):
    """One-step sewing diagnostics for the Hilbert-valued integral.

    For dyadic pairs (s, t) returns gaps |t - s| and defects
    ||int_s^t g dPhi - g(s)(Phi(t) - Phi(s))||, together with the log-log
    regression slope, to be compared against the bound C |t-s|^{2(H-beta)}.
    """
    times = np.asarray(times, dtype=float)
    g = np.asarray(g, dtype=float)
    Phi = np.asarray(Phi, dtype=float)
    npts = times.shape[0]
    gaps, defects = [], []
    span = npts - 1
    width = span
    while width >= 2:
        for start in range(0, span - width + 1, width):
            end = start + width
            sl = slice(start, end + 1)
            fine = _left_sum(g[sl], Phi[sl], 1)
            coarse = g[start] * (Phi[end] - Phi[start])
            defect = float(np.linalg.norm(np.asarray(fine) - np.asarray(coarse)))
            if defect > 0:
                gaps.append(times[end] - times[start])
                defects.append(defect)
        width //= 2
    gaps = np.asarray(gaps)
    defects = np.asarray(defects)
    if len(gaps) >= 2 and np.ptp(np.log(gaps)) > 0:
        slope = float(np.polyfit(np.log(gaps), np.log(defects), 1)[0])
    else:
        slope = float("nan")
    return gaps, defects, slope
