"""Euler solver, variational (Theta) equation, Frechet derivative and the
coefficient presets."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaosde.errors import BlowupError, ConfigError, InvalidDimensionError, MemoryBudgetError
from chaosde.sde import (
    SdeCoefficients,
    frechet_directional,
    preset,
    solve_euler,
    solve_theta,
    solve_theta_all,
    validate_derivatives,
)


def smooth_driver(steps, func=lambda t: t):
    times = np.linspace(0.0, 1.0, steps + 1)
    return times, func(times)[:, None]


def frechet_triangle(coeffs, bundle, psi):
    """Oracle for frechet_directional: the strict-triangle einsum
    out[j] = sum_{i<j} Theta_{t_j}(t_i) dpsi_i over the full Theta."""
    if bundle.theta is None:
        solve_theta_all(coeffs, bundle)
    N = bundle.steps
    dpsi = np.diff(psi, axis=0)
    below = np.triu(np.ones((N, N + 1)), k=1)[:, :, None, None]
    return np.einsum("ijkl,il->jk", bundle.theta[:N] * below, dpsi)


def test_presets_have_consistent_derivatives():
    for name in ("additive", "linear-scalar", "elliptic-2d", "rank1-2d"):
        coeffs, x0 = preset(name)
        assert x0.shape == (coeffs.d,)
        assert validate_derivatives(coeffs) <= 1e-4
    with pytest.raises(ConfigError):
        preset("no-such-preset")


def test_validate_derivatives_catches_mismatch():
    bad = SdeCoefficients(
        d=1, m=1,
        b=lambda x: np.array([x[0] ** 2]),
        sigma=lambda x: np.array([[1.0]]),
        db=lambda x: np.array([[1.0]]),  # wrong: should be 2x
        dsigma=lambda x: np.zeros((1, 1, 1)),
    )
    with pytest.raises(ConfigError):
        validate_derivatives(bad)


def test_additive_exact():
    # X_t = x0 + b t + sigma F_t holds exactly for the discrete scheme
    coeffs, x0 = preset("additive")
    times, F = smooth_driver(64, lambda t: np.sin(2 * t))
    bundle = solve_euler(coeffs, x0, (times, F))
    expected = x0[0] + 0.25 * times + 1.5 * F[:, 0]
    assert np.max(np.abs(bundle.X[:, 0] - expected)) <= 1e-13


def test_linear_scalar_rate():
    # dX = lam X dF with F = t: X_t = exp(lam t); Euler converges at rate 1
    coeffs, x0 = preset("linear-scalar")
    errs = []
    for steps in (256, 512, 1024):
        times, F = smooth_driver(steps)
        bundle = solve_euler(coeffs, x0, (times, F))
        errs.append(abs(bundle.X[-1, 0] - math.exp(0.5)))
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(r >= 0.3 for r in rates)
    assert errs[-1] <= 1e-3


def test_solver_shape_validation():
    coeffs, x0 = preset("additive")
    times, F = smooth_driver(8)
    with pytest.raises(InvalidDimensionError):
        solve_euler(coeffs, np.zeros(2), (times, F))
    with pytest.raises(InvalidDimensionError):
        solve_euler(coeffs, x0, (times, np.zeros((9, 2))))
    # transposed driver values and a transposed psi are rejected, not guessed
    with pytest.raises(InvalidDimensionError):
        solve_euler(coeffs, x0, (times, F.T))
    bundle = solve_euler(coeffs, x0, (times, F))
    with pytest.raises(InvalidDimensionError):
        frechet_directional(coeffs, bundle, F.T)


def test_driver_subgrid():
    # driver sampled on a refinement of the solver grid is accepted
    coeffs, x0 = preset("additive")
    fine_t, fine_F = smooth_driver(64, lambda t: t * t)
    coarse_t = fine_t[::4]
    bundle = solve_euler(coeffs, x0, (fine_t, fine_F), times=coarse_t)
    assert bundle.steps == 16
    direct = solve_euler(coeffs, x0, (coarse_t, fine_F[::4]))
    assert np.allclose(bundle.X, direct.X)
    with pytest.raises(InvalidDimensionError):
        solve_euler(coeffs, x0, (fine_t, fine_F), times=np.array([0.0, 0.33, 1.0]))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_blowup_detected():
    cubed = SdeCoefficients(
        d=1, m=1,
        b=lambda x: np.array([x[0] ** 3]),
        sigma=lambda x: np.zeros((1, 1)),
        db=lambda x: np.array([[3 * x[0] ** 2]]),
        dsigma=lambda x: np.zeros((1, 1, 1)),
    )
    times, F = smooth_driver(16)
    with pytest.raises(BlowupError) as exc:
        solve_euler(cubed, np.array([1e200]), (times, F))
    assert exc.value.step >= 1


def test_theta_constant_sigma():
    # zero drift, constant sigma: Theta_t(s) = sigma for all s <= t
    coeffs, x0 = preset("additive")
    times, F = smooth_driver(32, np.cos)
    bundle = solve_euler(coeffs, x0, (times, F))
    row = solve_theta(coeffs, bundle, 5)
    assert np.all(row[:5] == 0.0)
    assert np.allclose(row[5:], 1.5)


@given(st.sampled_from(["additive", "linear-scalar", "elliptic-2d", "rank1-2d"]),
       st.integers(1, 64), st.integers(0, 2**32 - 1), st.floats(0.01, 1.0))
@example("elliptic-2d", 1, 0, 0.1)
@example("linear-scalar", 2, 0, 0.1)
@settings(max_examples=40, deadline=None)
def test_theta_triangle_matches_rows(name, steps, seed, scale):
    # the column recursion against the row-by-row oracle solve_theta
    coeffs, x0 = preset(name)
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 1.0, steps + 1)
    F = np.cumsum(rng.standard_normal((steps + 1, coeffs.m)), axis=0) * scale
    F[0] = 0.0
    bundle = solve_theta_all(coeffs, solve_euler(coeffs, x0, (times, F)))
    assert bundle.theta.shape == (steps + 1, steps + 1, coeffs.d, coeffs.m)
    for s_idx in range(steps + 1):
        want = solve_theta(coeffs, bundle, s_idx)
        gap = np.max(np.abs(bundle.theta[s_idx] - want))
        assert gap <= 1e-13 * np.max(np.abs(want))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_theta_triangle_budget():
    # at d = m = 2, 5800 steps make a (5801, 5801, 2, 2) triangle, over the
    # budget, while the (5800, 5800) driver Gram is within it: rejected
    # before the triangle is allocated
    coeffs, x0 = preset("elliptic-2d")
    times = np.linspace(0.0, 1.0, 5801)
    bundle = solve_euler(coeffs, x0, (times, np.zeros((5801, 2))))
    with pytest.raises(MemoryBudgetError):
        solve_theta_all(coeffs, bundle)
    assert bundle.theta is None


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_theta_blowup_reports_first_column():
    # bounded sigma keeps Euler finite; dsigma = 1e300 makes each one-step
    # Jacobian ~6e298, so a product of two of them overflows Theta
    huge = SdeCoefficients(
        d=1, m=1,
        b=lambda x: np.zeros(1),
        sigma=lambda x: np.array([[1.0 + 0.5 * np.sin(x[0])]]),
        db=lambda x: np.zeros((1, 1)),
        dsigma=lambda x: np.full((1, 1, 1), 1e300),
    )
    times, F = smooth_driver(16)
    bundle = solve_euler(huge, np.array([0.3]), (times, F))
    # oracle: the earliest step at which some row overflows
    first = []
    for s_idx in range(bundle.steps + 1):
        try:
            solve_theta(huge, bundle, s_idx)
        except BlowupError as err:
            first.append(err.step)
    with pytest.raises(BlowupError) as exc:
        solve_theta_all(huge, bundle)
    assert exc.value.step == min(first) == 3
    # the tangent recursion overflows at the same step along psi = t
    with pytest.raises(BlowupError) as exc:
        frechet_directional(huge, bundle, times[:, None])
    assert exc.value.step == 3


def test_theta_closed_form_linear():
    # dX = lam X dF, F = t: Theta_t(s) = lam X_s exp(lam (t - s)); the
    # discrete Theta matches to well under 1% at 2^10 steps
    coeffs, x0 = preset("linear-scalar")
    lam = 0.5
    steps = 2**10
    times, F = smooth_driver(steps)
    bundle = solve_euler(coeffs, x0, (times, F))
    solve_theta_all(coeffs, bundle)
    worst = 0.0
    for s_idx in (0, steps // 4, steps // 2):
        for t_idx in (steps // 2, steps):
            if t_idx < s_idx:
                continue
            s, t = times[s_idx], times[t_idx]
            exact = lam * math.exp(lam * s) * math.exp(lam * (t - s))
            got = bundle.theta[s_idx, t_idx, 0, 0]
            worst = max(worst, abs(got - exact) / exact)
    assert worst <= 0.01


@given(st.sampled_from(["additive", "linear-scalar", "elliptic-2d", "rank1-2d"]),
       st.integers(1, 64), st.integers(0, 2**32 - 1), st.floats(0.01, 1.0))
@example("elliptic-2d", 1, 0, 0.1)
@example("linear-scalar", 2, 0, 0.1)
@settings(max_examples=40, deadline=None)
def test_frechet_recursion_matches_triangle(name, steps, seed, scale):
    # the forward tangent recursion against the strict-triangle einsum
    coeffs, x0 = preset(name)
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 1.0, steps + 1)
    F = np.cumsum(rng.standard_normal((steps + 1, coeffs.m)), axis=0) * scale
    F[0] = 0.0
    psi = rng.standard_normal((steps + 1, coeffs.m))
    bundle = solve_euler(coeffs, x0, (times, F))
    got = frechet_directional(coeffs, bundle, psi)
    want = frechet_triangle(coeffs, bundle, psi)
    assert got.shape == want.shape == (steps + 1, coeffs.d)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_frechet_additive_exact():
    # additive: derivative along psi is sigma (psi_t - psi_0) exactly
    coeffs, x0 = preset("additive")
    times, F = smooth_driver(32, np.sin)
    bundle = solve_euler(coeffs, x0, (times, F))
    psi = (times * times)[:, None]
    out = frechet_directional(coeffs, bundle, psi)
    assert np.max(np.abs(out[:, 0] - 1.5 * (psi[:, 0] - psi[0, 0]))) <= 1e-13


def test_frechet_is_exact_gradient_of_discrete_flow():
    # the left-point Theta sum equals the limit of difference quotients of
    # the discrete flow; for small eps the gap is O(eps)
    coeffs, x0 = preset("elliptic-2d")
    rng = np.random.default_rng(0)
    steps = 64
    times = np.linspace(0.0, 1.0, steps + 1)
    F = np.cumsum(rng.standard_normal((steps + 1, 2)), axis=0) * 0.05
    F[0] = 0.0
    bundle = solve_euler(coeffs, x0, (times, F))
    psi = np.cumsum(rng.standard_normal((steps + 1, 2)), axis=0) * 0.05
    target = frechet_directional(coeffs, bundle, psi)[-1]
    gaps = []
    for eps in (1e-2, 1e-3, 1e-4):
        pert = solve_euler(coeffs, x0, (times, F + eps * (psi - psi[0])))
        quot = (pert.X[-1] - bundle.X[-1]) / eps
        gaps.append(float(np.max(np.abs(quot - target))))
    assert gaps[0] > gaps[1] > gaps[2]
    order = np.polyfit(np.log([1e-2, 1e-3, 1e-4]), np.log(gaps), 1)[0]
    assert order >= 0.9


def test_frechet_linearity():
    coeffs, x0 = preset("elliptic-2d")
    rng = np.random.default_rng(1)
    times = np.linspace(0.0, 1.0, 33)
    F = np.cumsum(rng.standard_normal((33, 2)), axis=0) * 0.05
    F[0] = 0.0
    bundle = solve_euler(coeffs, x0, (times, F))
    p1 = rng.standard_normal((33, 2))
    p2 = rng.standard_normal((33, 2))
    lhs = frechet_directional(coeffs, bundle, 2.0 * p1 - 0.5 * p2)
    rhs = 2.0 * frechet_directional(coeffs, bundle, p1) - 0.5 * frechet_directional(coeffs, bundle, p2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10
