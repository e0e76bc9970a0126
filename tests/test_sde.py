"""Euler solver, variational (Theta) equation against its row and tangent
oracles, and the coefficient presets."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaosde import sde
from chaosde.errors import BlowupError, ConfigError, InvalidDimensionError, MemoryBudgetError
from chaosde.sde import (
    SdeCoefficients,
    _step_jacobians,
    preset,
    solve_euler,
    solve_theta_all,
    validate_derivatives,
)
from oracles import _step_jacobian, frechet_directional, solve_theta, theta_columns


PRESETS = ["additive", "linear-scalar", "elliptic-2d", "rank1-2d"]


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
    assert validate_derivatives(mixed_3x2()[0]) <= 1e-4
    with pytest.raises(ConfigError):
        preset("no-such-preset")


def test_validate_derivatives_catches_mismatch():
    bad = SdeCoefficients(
        d=1, m=1,
        b=lambda x: x ** 2,
        sigma=lambda x: np.ones(np.shape(x) + (1,)),
        db=lambda x: np.ones(np.shape(x) + (1,)),  # wrong: should be 2x
        dsigma=lambda x: np.zeros(np.shape(x) + (1, 1)),
    )
    with pytest.raises(ConfigError):
        validate_derivatives(bad)


def validate_derivatives_loop(coeffs, probes=10, seed=0):
    """The per-probe, per-coordinate central differences that
    validate_derivatives batches: its oracle.  Returns the worst relative
    discrepancy."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    worst = 0.0
    for _ in range(probes):
        x = rng.standard_normal(coeffs.d)
        h = 1e-6 * (1.0 + np.abs(x))
        db_num = np.empty((coeffs.d, coeffs.d))
        ds_num = np.empty((coeffs.d, coeffs.m, coeffs.d))
        for p in range(coeffs.d):
            e = np.zeros(coeffs.d)
            e[p] = h[p]
            db_num[:, p] = (coeffs.eval_b(x + e) - coeffs.eval_b(x - e)) / (2 * h[p])
            ds_num[:, :, p] = (coeffs.eval_sigma(x + e) - coeffs.eval_sigma(x - e)) / (2 * h[p])
        scale = 1.0 + float(np.max(np.abs(db_num))) + float(np.max(np.abs(ds_num)))
        gap = max(
            float(np.max(np.abs(db_num - coeffs.eval_db(x)))),
            float(np.max(np.abs(ds_num - coeffs.eval_dsigma(x)))),
        )
        worst = max(worst, gap / scale)
    return worst


def _waves(x):
    """sigma[k, l] = sin((k + 1) x_0 + (l + 1) x_1), d = 2 and m = 3."""
    k, l = np.arange(1.0, 3.0)[:, None], np.arange(1.0, 4.0)
    return np.sin(k * x[..., 0, None, None] + l * x[..., 1, None, None])


def _waves_slopes(x):
    """The two partials of _waves, stacked last."""
    k, l = np.arange(1.0, 3.0)[:, None], np.arange(1.0, 4.0)
    cos = np.cos(k * x[..., 0, None, None] + l * x[..., 1, None, None])
    return np.stack([k * cos, l * cos], axis=-1)


WAVES = dict(
    d=2, m=3,
    b=lambda x: np.stack([np.sin(x[..., 0] * x[..., 1]), x[..., 0] ** 3], axis=-1),
    db=lambda x: np.stack([
        np.stack([x[..., 1] * np.cos(x[..., 0] * x[..., 1]),
                  x[..., 0] * np.cos(x[..., 0] * x[..., 1])], axis=-1),
        np.stack([3.0 * x[..., 0] ** 2, 0.0 * x[..., 0]], axis=-1)], axis=-2),
    sigma=_waves,
)


def test_validate_derivatives_matches_probe_loop(monkeypatch):
    # one batched difference over all probes and coordinates gives the
    # probe loop's worst discrepancy bit for bit: for the presets, and for
    # a d = 2, m = 3 set whose dsigma is right and then wrong
    right = SdeCoefficients(dsigma=_waves_slopes, **WAVES)
    wrong = SdeCoefficients(dsigma=lambda x: 1.5 * _waves_slopes(x), **WAVES)
    for coeffs in [preset(name)[0] for name in PRESETS] + [right]:
        worst = validate_derivatives(coeffs)
        assert worst == validate_derivatives_loop(coeffs) and worst <= sde.DERIV_TOL
    want = validate_derivatives_loop(wrong)
    assert want > sde.DERIV_TOL
    with pytest.raises(ConfigError, match=f"{want:.2e}"):
        validate_derivatives(wrong)
    monkeypatch.setattr(sde, "DERIV_TOL", np.inf)
    assert validate_derivatives(wrong) == want


def test_validate_derivatives_rejects_nan():
    # a coefficient that is not a number at the probes fails the check
    undefined = SdeCoefficients(
        d=1, m=1,
        b=lambda x: np.sqrt(x - 1e3),
        sigma=lambda x: np.ones(np.shape(x) + (1,)),
        db=lambda x: (0.5 / np.sqrt(x - 1e3))[..., None],
        dsigma=lambda x: np.zeros(np.shape(x) + (1, 1)),
    )
    with np.errstate(invalid="ignore"), pytest.raises(ConfigError):
        validate_derivatives(undefined)


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


def test_driver_grid_membership():
    # a solver time is a driver time to 12 decimals: the rows it selects are
    # those of its driver times, and a time off the grid by more than 1e-12,
    # before its start or after its end is rejected
    coeffs, x0 = preset("elliptic-2d")
    fine_t = np.linspace(0.0, 1.0, 65)
    fine_F = random_paths(coeffs, 3, 64, 4, 0.3)
    for rows in (np.arange(0, 65, 4), np.array([0, 3, 10, 11, 64]), np.arange(65)):
        times = fine_t[rows] + 1e-14 * (rows % 2)
        batch = solve_euler(coeffs, x0, (fine_t, fine_F), times=times)
        assert np.array_equal(batch.driver_values, fine_F[:, rows])
        one = solve_euler(coeffs, x0, (fine_t, fine_F[1]), times=times)
        assert np.array_equal(one.driver_values, fine_F[1, rows])
    for bad in (fine_t[7] + 2e-12, fine_t[7] - 2e-12, -1e-9, 1.0 + 1e-9):
        times = np.sort(np.append(fine_t[::8], bad))
        with pytest.raises(InvalidDimensionError):
            solve_euler(coeffs, x0, (fine_t, fine_F), times=times)


def test_blowup_detected():
    cubed = SdeCoefficients(
        d=1, m=1,
        b=lambda x: x ** 3,
        sigma=lambda x: np.zeros(np.shape(x) + (1,)),
        db=lambda x: (3 * x ** 2)[..., None],
        dsigma=lambda x: np.zeros(np.shape(x) + (1, 1)),
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


@given(st.sampled_from(PRESETS),
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
        b=lambda x: np.zeros(np.shape(x)),
        sigma=lambda x: (1.0 + 0.5 * np.sin(x))[..., None],
        db=lambda x: np.zeros(np.shape(x) + (1,)),
        dsigma=lambda x: np.full(np.shape(x) + (1, 1), 1e300),
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


def mixed_3x2():
    """A d = 3, m = 2 coefficient set with full, state-dependent matrices."""
    rng = np.random.default_rng(0)
    base = np.array([[1.0, 0.2], [0.1, 0.9], [0.3, 0.5]])
    amp = 0.3 * rng.standard_normal((3, 2, 3))
    mix = 0.2 * rng.standard_normal((3, 3))
    coeffs = SdeCoefficients(
        d=3, m=2,
        b=lambda x: np.einsum("kp,...p->...k", mix, np.tanh(x)),
        sigma=lambda x: base + np.einsum("klp,...p->...kl", amp, np.sin(x)),
        db=lambda x: mix * (1.0 - np.tanh(x) ** 2)[..., None, :],
        dsigma=lambda x: amp * np.cos(x)[..., None, None, :],
    )
    return coeffs, np.array([0.1, -0.2, 0.3])


@pytest.mark.parametrize("steps", [1, 2, 3, 16, 257])
@pytest.mark.parametrize("name", PRESETS + ["mixed-3x2"])
def test_theta_triangle_matches_column_loop(name, steps):
    # one GEMM per column gives the triangle of the per-entry column loop
    # bit for bit
    coeffs, x0 = mixed_3x2() if name == "mixed-3x2" else preset(name)
    times = np.linspace(0.0, 1.0, steps + 1)
    for seed, scale in ((0, 0.05), (1, 0.3), (2, 1.0)):
        F = random_paths(coeffs, 1, steps, seed, scale)[0]
        bundle = solve_euler(coeffs, x0, (times, F))
        want = theta_columns(coeffs, bundle)
        assert np.array_equal(solve_theta_all(coeffs, bundle).theta, want)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_theta_blowup_in_two_dimensions_matches_column_loop():
    # bounded sigma keeps Euler finite; dsigma = +-1e300 makes each one-step
    # Jacobian ~6e298 with a sign change in its second row, so Theta(t_0)
    # overflows to (+inf, +inf) in column 3 and the Jacobian turns that into
    # inf - inf = nan in the columns after it: the step is the column loop's
    dsigma = 1e300 * np.array([[1.0, 1.0], [1.0, -1.0]])[:, None, :]
    huge = SdeCoefficients(
        d=2, m=1,
        b=lambda x: np.zeros(np.shape(x)),
        sigma=lambda x: (1.0 + 0.5 * np.sin(x.sum(axis=-1)))[..., None, None] * np.ones((2, 1)),
        db=lambda x: np.zeros(np.shape(x) + (2,)),
        dsigma=lambda x: np.broadcast_to(dsigma, np.shape(x)[:-1] + dsigma.shape).copy(),
    )
    times, F = smooth_driver(16)
    bundle = solve_euler(huge, np.array([0.3, -0.1]), (times, F))
    assert np.isfinite(bundle.X).all()
    with pytest.raises(BlowupError) as want:
        theta_columns(huge, bundle)
    with pytest.raises(BlowupError) as exc:
        solve_theta_all(huge, bundle)
    assert exc.value.step == want.value.step == 3
    assert bundle.theta is None


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("name", ["elliptic-2d", "mixed-3x2"])
def test_theta_out_buffer_matches_fresh_triangle(name):
    # one zeroed buffer over consecutive paths gives each path's fresh
    # triangle bit for bit, also right after a path whose Theta overflowed
    # (a driver of scale 1e200 keeps Euler finite and makes each one-step
    # Jacobian ~1e199) and left the buffer full of inf and nan
    coeffs, x0 = mixed_3x2() if name == "mixed-3x2" else preset(name)
    steps = 16
    times = np.linspace(0.0, 1.0, steps + 1)
    buffer = np.zeros((steps + 1, coeffs.d, steps + 1, coeffs.m))
    blown = 0
    for seed, scale in ((0, 0.3), (1, 1e200), (2, 0.3), (3, 1.0), (4, 1e200), (5, 0.05)):
        F = random_paths(coeffs, 1, steps, seed, scale)[0]
        fresh = solve_euler(coeffs, x0, (times, F))
        reused = solve_euler(coeffs, x0, (times, F))
        assert np.isfinite(fresh.X).all()
        try:
            solve_theta_all(coeffs, fresh)
        except BlowupError as want:
            with pytest.raises(BlowupError) as exc:
                solve_theta_all(coeffs, reused, out=buffer)
            assert exc.value.step == want.step
            assert reused.theta is None
            blown += 1
            continue
        assert solve_theta_all(coeffs, reused, out=buffer) is reused
        assert np.shares_memory(reused.theta, buffer)
        assert np.array_equal(reused.theta, fresh.theta)
    assert blown == 2


def test_theta_out_buffer_checked():
    coeffs, x0 = preset("elliptic-2d")
    times, F = smooth_driver(8)
    bundle = solve_euler(coeffs, x0, (times, np.hstack([F, F])))
    shape = (9, 2, 9, 2)
    for bad in (np.zeros((9, 9, 2, 2)), np.zeros((8, 2, 9, 2)), np.zeros(shape, dtype=np.float32),
                np.zeros(shape[::-1]).T, [[0.0]]):
        with pytest.raises(InvalidDimensionError):
            solve_theta_all(coeffs, bundle, out=bad)
        assert bundle.theta is None
    assert np.array_equal(solve_theta_all(coeffs, bundle, out=np.zeros(shape)).theta,
                          solve_theta_all(coeffs, bundle).theta)


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


@given(st.sampled_from(PRESETS),
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


def random_paths(coeffs, M, steps, seed, scale):
    """M Brownian-like driver paths of shape (M, steps+1, m), zero at t = 0."""
    rng = np.random.default_rng(seed)
    F = np.cumsum(rng.standard_normal((M, steps + 1, coeffs.m)), axis=1) * scale
    F[:, 0] = 0.0
    return F


@pytest.mark.parametrize("name", PRESETS)
def test_presets_are_pointwise_over_leading_axes(name):
    # a (K, d) or (K1, K2, d) batch of states gives the stacked per-point
    # values bit for bit, at small, large and awkward states
    coeffs, _ = preset(name)
    rng = np.random.default_rng(7)
    X = np.concatenate([0.1 * rng.standard_normal((500, coeffs.d)),
                        3.0 * rng.standard_normal((500, coeffs.d)),
                        rng.uniform(-30.0, 30.0, (500, coeffs.d)),
                        rng.uniform(-350.0, 350.0, (500, coeffs.d))])
    for ev in (coeffs.eval_b, coeffs.eval_sigma, coeffs.eval_db, coeffs.eval_dsigma):
        want = np.array([ev(x) for x in X])
        assert np.array_equal(ev(X), want)
        assert np.array_equal(ev(X.reshape(40, 50, coeffs.d)), want.reshape((40, 50) + want.shape[1:]))
        assert ev(X[:0]).shape == (0,) + want.shape[1:]


def test_coefficient_shapes_are_checked():
    # a coefficient that ignores the leading axes of its states, or returns
    # the wrong trailing shape, is rejected
    pointwise = SdeCoefficients(
        d=2, m=2,
        b=lambda x: np.array([x[0], x[1]]),
        sigma=lambda x: np.eye(2),
        db=lambda x: np.zeros((2, 2)),
        dsigma=lambda x: np.zeros((2, 2, 2)),
    )
    x = np.zeros(2)
    X = np.zeros((5, 2))
    for ev in (pointwise.eval_sigma, pointwise.eval_db, pointwise.eval_dsigma):
        ev(x)
        with pytest.raises(InvalidDimensionError):
            ev(X)
    with pytest.raises(InvalidDimensionError):
        pointwise.eval_b(X)  # (2, 5) for five states
    transposed = SdeCoefficients(
        d=2, m=1,
        b=lambda x: np.zeros(np.shape(x)),
        sigma=lambda x: np.zeros(np.shape(x)[:-1] + (1, 2)),
        db=lambda x: np.zeros(np.shape(x)[:-1] + (2, 3)),
        dsigma=lambda x: np.zeros(np.shape(x)[:-1] + (2, 2, 1)),
    )
    for ev in (transposed.eval_sigma, transposed.eval_db, transposed.eval_dsigma):
        for states in (x, X):
            with pytest.raises(InvalidDimensionError):
                ev(states)
    with pytest.raises(InvalidDimensionError):
        solve_euler(transposed, x, smooth_driver(4))


@given(st.sampled_from(PRESETS), st.integers(1, 32), st.integers(8, 20),
       st.integers(0, 2**32 - 1), st.floats(0.01, 1.0))
@example("elliptic-2d", 1, 8, 0, 0.1)
@example("elliptic-2d", 128, 20, 5, 1.0)
@settings(max_examples=30, deadline=None)
def test_batched_euler_matches_single_paths(name, steps, M, seed, scale):
    # each row of a batched solve equals its one-path solve bit for bit, in
    # batches of 1, of 7 and of all M paths
    coeffs, x0 = preset(name)
    times = np.linspace(0.0, 1.0, steps + 1)
    F = random_paths(coeffs, M, steps, seed, scale)
    single = [solve_euler(coeffs, x0, (times, F[k])) for k in range(M)]
    for size in (1, 7, M):
        for start in range(0, M, size):
            batch = solve_euler(coeffs, x0, (times, F[start:start + size]))
            assert batch.X.shape == (F[start:start + size].shape[0], steps + 1, coeffs.d)
            assert not batch.failed.any()
            for k in range(batch.X.shape[0]):
                one, path = single[start + k], batch.path(k)
                assert np.array_equal(path.X, one.X)
                assert np.array_equal(path.sigma, one.sigma)
                assert np.array_equal(path.driver_values, one.driver_values)


def test_batched_euler_freezes_a_failed_path():
    # a drift that is infinite above a level makes the one path of the
    # batch that crosses it fail; it reports the step of its one-path
    # BlowupError, the other rows are unchanged, and no coefficient sees
    # the failed path again
    level = 1.2
    calls = []

    def drift(x):
        calls.append(np.shape(x))
        return np.where(x > level, np.inf, 0.0)

    capped = SdeCoefficients(
        d=1, m=1, b=drift,
        sigma=lambda x: np.ones(np.shape(x) + (1,)),
        db=lambda x: np.zeros(np.shape(x) + (1,)),
        dsigma=lambda x: np.zeros(np.shape(x) + (1, 1)),
    )
    steps, M = 32, 9
    times = np.linspace(0.0, 1.0, steps + 1)
    F = random_paths(capped, M, steps, 3, 0.02)  # far below the level
    F[4, :, 0] = np.linspace(0.0, 2.0, steps + 1)  # crosses it
    with pytest.raises(BlowupError) as exc:
        solve_euler(capped, np.zeros(1), (times, F[4]))
    step = exc.value.step
    assert 1 <= step < steps
    calls.clear()
    batch = solve_euler(capped, np.zeros(1), (times, F))
    assert batch.failed.tolist() == [step if k == 4 else 0 for k in range(M)]
    assert calls == [(M, 1)] * step + [(M - 1, 1)] * (steps - step)
    assert np.isinf(batch.X[4, step]).all() and np.isnan(batch.X[4, step + 1:]).all()
    assert np.isnan(batch.sigma[4, step:]).all()
    with pytest.raises(BlowupError) as exc:
        batch.path(4)
    assert exc.value.step == step
    for k in range(M):
        if k != 4:
            one = solve_euler(capped, np.zeros(1), (times, F[k]))
            assert np.array_equal(batch.path(k).X, one.X)
            assert np.array_equal(batch.path(k).sigma, one.sigma)


@pytest.mark.parametrize("name", PRESETS)
def test_step_jacobian_stack_matches_single_steps(name):
    # one db and one dsigma call over all steps give the per-step Jacobians
    # bit for bit
    coeffs, x0 = preset(name)
    steps = 96
    times = np.linspace(0.0, 1.0, steps + 1)
    bundle = solve_euler(coeffs, x0, (times, random_paths(coeffs, 1, steps, 11, 0.3)[0]))
    want = np.array([
        _step_jacobian(coeffs, bundle.X[j], times[j + 1] - times[j],
                       bundle.driver_values[j + 1] - bundle.driver_values[j])
        for j in range(steps)
    ])
    assert np.array_equal(_step_jacobians(coeffs, bundle), want)
