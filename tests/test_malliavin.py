"""Malliavin derivatives of driver and solution, the Malliavin matrix,
shifted drivers and the hypothesis diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaosde.errors import OutOfRangeError, SpaceMismatchError
from chaosde.wiener import HilbertDisc, HilbertVec, make_hilbert, sample_omega, shift_omega
from chaosde.hermite import GridDriver, HermiteSpec, build_kernels, simulate_path
from chaosde.sde import preset, solve_euler, solve_theta_all
from chaosde.malliavin import (
    directional_quotient,
    driver_derivative,
    holder_slope,
    hypothesis_checks,
    malliavin_matrix,
    shifted_driver,
    solution_derivative,
)
from oracles import complex_step_dx, component_shift_failures


def make_spec(q=1, m=1, n=96, L=4.0, out_times=(0.5, 1.0)):
    space = make_hilbert(m, -L, max(out_times), n)
    return HermiteSpec(q=q, H=0.7, m=m, space=space, out_times=out_times)


def solve_case(preset_name, q, steps=48, n=96, seed=0):
    coeffs, x0 = preset(preset_name)
    spec = make_spec(q=q, m=coeffs.m, n=n, out_times=(1.0,))
    times = np.linspace(0.0, 1.0, steps + 1)
    gd = GridDriver(spec, times)
    w = sample_omega(spec.space, seed)
    bundle = solve_euler(coeffs, x0, (gd.times, gd.values(w)))
    solve_theta_all(coeffs, bundle)
    mf = solution_derivative(coeffs, bundle, gd.deriv_vectors(w), spec.space)
    return coeffs, x0, spec, gd, w, bundle, mf


def test_driver_derivative_q1_is_kernel():
    spec = make_spec(q=1)
    field = build_kernels(spec)
    w = sample_omega(spec.space, 0)
    for ti in range(2):
        d = driver_derivative(field, w, ti, 0)
        assert np.allclose(d.coords, field.blocks[ti])


def test_driver_derivative_q2_finite_difference():
    spec = make_spec(q=2, n=48)
    field = build_kernels(spec)
    w = sample_omega(spec.space, 1)
    d = driver_derivative(field, w, 1, 0)
    rng = np.random.default_rng(2)
    h = HilbertVec(spec.space, rng.standard_normal(spec.space.basis_dim))
    eps = 1e-6
    up = simulate_path(field, shift_omega(w, eps, h)).values[1, 0]
    dn = simulate_path(field, shift_omega(w, -eps, h)).values[1, 0]
    fd = (up - dn) / (2 * eps)
    assert fd == pytest.approx(float(d.coords @ h.coords), abs=1e-6)


def test_component_shift_independence():
    # three components: a shift off each one leaves it and moves the rest
    for q in (1, 2, 3):
        spec = make_spec(q=q, m=3, n=32)
        assert component_shift_failures(spec, np.linspace(0.0, 1.0, 17), range(3)) == []


def test_component_shift_check_fails_on_an_interleaved_layout(monkeypatch):
    # with basis index cell * m + ell, the raw-index shift reaches both
    # components, so the check must report component ell as moved
    def interleaved(space, coords):
        return np.swapaxes(coords.reshape(coords.shape[:-1] + (space.n, space.m)), -1, -2)

    monkeypatch.setattr(HilbertDisc, "components", interleaved)
    spec = make_spec(q=2, m=2, n=32)
    failures = component_shift_failures(spec, np.linspace(0.0, 1.0, 17), range(2))
    assert {claim for _, _, claim in failures} >= {
        "Z^ell kept", "values row ell kept", "deriv_vectors row ell kept"}


def test_driver_derivative_validation():
    spec = make_spec(q=1)
    field = build_kernels(spec)
    w = sample_omega(spec.space, 0)
    with pytest.raises(OutOfRangeError):
        driver_derivative(field, w, 0, 3)
    other = make_hilbert(1, -4.0, 1.0, 32)
    with pytest.raises(SpaceMismatchError):
        driver_derivative(field, sample_omega(other, 0), 0, 0)


def test_solution_derivative_additive():
    # additive scalar case: DX_t = sigma DF_t exactly, so the norm of DX
    # equals |sigma| t^H under the calibrated driver
    coeffs, x0, spec, gd, w, bundle, mf = solve_case("additive", 1)
    assert np.allclose(spec.space.components(mf.dx)[0, 0], 1.5 * gd.deriv_vectors(w)[-1, 0], atol=1e-12)
    assert np.linalg.norm(mf.dx[0]) == pytest.approx(1.5 * 1.0**0.7, rel=1e-10)


def test_malliavin_matrix_properties():
    coeffs, x0, spec, gd, w, bundle, mf = solve_case("elliptic-2d", 1)
    mm = malliavin_matrix(mf)
    assert mm.gamma.shape == (2, 2)
    assert np.allclose(mm.gamma, mm.gamma.T)
    assert mm.min_eig > 0
    assert mm.det == pytest.approx(np.linalg.det(mm.gamma), rel=1e-8)


def test_rank1_matrix_degenerate():
    coeffs, x0, spec, gd, w, bundle, mf = solve_case("rank1-2d", 1)
    mm = malliavin_matrix(mf)
    assert abs(mm.det) <= 1e-10
    # the two derivative rows are proportional (outer-product sigma)
    u = mf.dx[0]
    v = mf.dx[1]
    cos = abs(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
    assert cos == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_shifted_driver_matches_shifted_simulation(q):
    spec = make_spec(q=q, n=48)
    field = build_kernels(spec)
    rng = np.random.default_rng(q)
    for seed in range(5):
        w = sample_omega(spec.space, seed)
        h = HilbertVec(spec.space, rng.standard_normal(spec.space.basis_dim))
        eps = float(rng.uniform(-1, 1))
        lhs = shifted_driver(field, w, h, eps).values
        rhs = simulate_path(field, shift_omega(w, eps, h)).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_holder_slope_near_hurst():
    spec = make_spec(q=1, n=128, out_times=tuple(k / 8 for k in range(1, 9)))
    field = build_kernels(spec)
    slope = holder_slope(field)
    assert abs(slope - 0.7) <= 0.15


def test_directional_quotient_converges():
    coeffs, x0, spec, gd, w, bundle, mf = solve_case("elliptic-2d", 2)
    rng = np.random.default_rng(7)
    h = HilbertVec(spec.space, rng.standard_normal(spec.space.basis_dim))
    target = mf.dx @ h.coords
    errs = []
    for eps in (1e-1, 1e-2, 1e-3):
        quot = directional_quotient(coeffs, x0, gd, w, h, eps)
        errs.append(float(np.max(np.abs(quot - target))))
    assert errs[0] > errs[1] > errs[2]
    order = np.polyfit(np.log([1e-1, 1e-2, 1e-3]), np.log(errs), 1)[0]
    assert order >= 0.9


@given(st.sampled_from(["additive", "linear-scalar", "elliptic-2d", "rank1-2d"]),
       st.integers(1, 3), st.integers(1, 64), st.integers(0, 2**64 - 1))
@example("elliptic-2d", 3, 128, 0)
@example("linear-scalar", 2, 1, 2**64 - 1)
@settings(max_examples=25, deadline=None)
def test_dx_is_the_complex_step_derivative(name, q, steps, seed):
    # DX h equals the complex-step derivative of the discrete Euler flow,
    # which shares no recursion with the Theta triangle and the Young sums,
    # to 1e-13 of the size of the summands of DX h (their sum may cancel)
    coeffs, x0, spec, gd, w, bundle, mf = solve_case(name, q, steps=steps, n=40, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        h = rng.standard_normal(spec.space.basis_dim)
        want = complex_step_dx(coeffs, x0, gd, w, h)
        assert np.max(np.abs(mf.dx @ h - want)) <= 1e-13 * np.max(np.abs(mf.dx) @ np.abs(h))


def test_hypothesis_checks_report():
    coeffs, x0, spec2, gd, w, bundle, mf = solve_case("elliptic-2d", 1, n=64)
    report = hypothesis_checks(
        spec2, coeffs, bundle.X,
        h5_integrand=lambda t: 0.0,
        dfields=gd.deriv_vectors(w), times=gd.times,
    )
    assert abs(report["holder_slope"] - 0.7) <= 0.15
    assert report["sigma_min_sv"] >= 0.8
    assert not report["sigma_flag"]
    assert report["h5_premise"] == 0.0


def test_hypothesis_flags_degenerate_sigma():
    coeffs, x0 = preset("rank1-2d")
    spec = make_spec(q=1, m=2, n=32)
    report = hypothesis_checks(spec, coeffs, np.zeros((1, 2)))
    assert report["sigma_flag"]
