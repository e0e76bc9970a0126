"""Malliavin derivatives of driver and solution, the Malliavin matrix,
shifted drivers and difference quotients."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaosde.errors import BlowupError, InvalidDimensionError
from chaosde.wiener import HilbertDisc, HilbertVec, make_hilbert, sample_omega, shift_omega
from chaosde.hermite import (GridDriver, HermiteSpec, PrefixFactors, _factor_derivative,
                             build_kernels, simulate_path)
from chaosde.sde import preset, solve_euler, solve_theta_all
from chaosde.density import euler_batches
from chaosde.malliavin import (
    MalliavinField,
    directional_quotient,
    malliavin_matrix,
    shifted_driver,
    solution_derivative,
)
from oracles import (complex_step_dx, component_shift_failures, dense_deriv_vectors,
                     dense_solution_derivative, dx_from_triangle, euler_path, first_steps,
                     jumpy_preset, theta_path, theta_triangle)


def make_spec(q=1, m=1, n=96, L=4.0, out_times=(0.5, 1.0)):
    space = make_hilbert(m, -L, max(out_times), n)
    return HermiteSpec(q=q, H=0.7, m=m, space=space, out_times=out_times)


def solve_case(preset_name, q, steps=48, n=96, seed=0):
    coeffs, x0 = preset(preset_name)
    spec = make_spec(q=q, m=coeffs.m, n=n, out_times=(1.0,))
    times = np.linspace(0.0, 1.0, steps + 1)
    gd = GridDriver(spec, times)
    w = sample_omega(spec.space, seed)
    xi = spec.space.components(w.xi[None])  # a block of one draw
    bundle = solve_theta_all(coeffs, solve_euler(coeffs, x0, (gd.times, gd.values(xi)))).path(0)
    mf = solution_derivative(coeffs, bundle, gd.deriv_vectors(xi[0]), spec.space)
    return coeffs, x0, spec, gd, w, bundle, mf


def kernel_derivative(field, ti, w):
    """D Z at out_times[ti] of every component of the draw w, from the factors."""
    xi = field.spec.space.components(w.xi)
    return field.rho[ti] * _factor_derivative(field.spec, field.g[ti], field.beta[ti], xi)


def test_driver_derivative_q1_is_kernel():
    spec = make_spec(q=1)
    field = build_kernels(spec)
    w = sample_omega(spec.space, 0)
    for ti in range(2):
        assert np.allclose(kernel_derivative(field, ti, w)[0], field.blocks[ti])


def test_driver_derivative_q2_finite_difference():
    spec = make_spec(q=2, n=48)
    field = build_kernels(spec)
    w = sample_omega(spec.space, 1)
    d = kernel_derivative(field, 1, w)[0]  # m = 1: d spans the basis
    rng = np.random.default_rng(2)
    h = HilbertVec(spec.space, rng.standard_normal(spec.space.basis_dim))
    eps = 1e-6
    up = simulate_path(field, shift_omega(w, eps, h)).values[1, 0]
    dn = simulate_path(field, shift_omega(w, -eps, h)).values[1, 0]
    fd = (up - dn) / (2 * eps)
    assert fd == pytest.approx(float(d @ h.coords), abs=1e-6)


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


def test_solution_derivative_additive():
    # additive scalar case: DX_t = sigma DF_t exactly, so the norm of DX
    # equals |sigma| t^H under the calibrated driver
    coeffs, x0, spec, gd, w, bundle, mf = solve_case("additive", 1)
    dfields = dense_deriv_vectors(gd, spec.space.components(w.xi))
    assert np.allclose(spec.space.components(mf.dx)[0, 0], 1.5 * dfields[-1, 0], atol=1e-12)
    assert np.linalg.norm(mf.dx[0]) == pytest.approx(1.5 * 1.0**0.7, rel=1e-10)


def test_solution_derivative_needs_the_theta_of_one_path():
    coeffs, x0, spec, gd, w, bundle, mf = solve_case("elliptic-2d", 1, steps=8)
    dfields = gd.deriv_vectors(spec.space.components(w.xi))
    no_theta = solve_euler(coeffs, x0, (gd.times, gd.values(spec.space.components(w.xi[None]))))
    for path in (no_theta.path(0), dataclasses.replace(bundle, theta=bundle.theta[:5])):
        with pytest.raises(InvalidDimensionError, match="solve_theta_all"):
            solution_derivative(coeffs, path, dfields, spec.space)


def test_one_step_dx_overflow_is_a_silent_blowup():
    # on a one-step grid the sum by parts is a single product per
    # coordinate, C_0 = a_0 rho_1 Theta_0 of the one DF factor; its
    # overflow is a BlowupError, not a warning
    coeffs, x0 = preset("additive")
    bundle = theta_path(coeffs, euler_path(coeffs, x0, (np.array([0.0, 1.0]), np.zeros((2, 1)))))
    space = make_hilbert(1, -4.0, 1.0, 8)
    df = PrefixFactors(np.ones(2), np.full((1, 1), 1.5e308), np.ones((1, 8)))
    with pytest.raises(BlowupError) as exc:
        solution_derivative(coeffs, bundle, df, space)
    assert exc.value.step == 1


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


@given(st.sampled_from(["additive", "linear-scalar", "elliptic-2d", "rank1-2d"]),
       st.integers(1, 3), st.integers(1, 70), st.integers(0, 2**64 - 1))
@example("elliptic-2d", 1, 128, 5)
@example("rank1-2d", 3, 37, 0)
@settings(max_examples=20, deadline=None)
def test_dx_matches_the_triangle_assembly(name, q, steps, seed):
    # DX from Theta at the final time and DF in factors, summed by parts,
    # equals the plain-numpy assembly of one left-point sum per (k, l) pair
    # of the dense DF over the triangle oracle to 1e-13: at the final time,
    # and at an earlier grid time j as the DX of the path truncated there
    coeffs, x0, spec, gd, w, bundle, mf = solve_case(name, q, steps=steps, n=40, seed=seed)
    xi = spec.space.components(w.xi)
    dfields = dense_deriv_vectors(gd, xi)
    triangle = theta_triangle(coeffs, bundle)

    def assert_close(dx, t_index):
        want = dx_from_triangle(coeffs, triangle, dfields, spec.space, t_index)
        assert np.max(np.abs(dx - want)) <= 1e-13 * np.max(np.abs(want))

    assert mf.t == bundle.times[-1]
    assert_close(mf.dx, steps)
    j = 1 + seed % steps
    part = solution_derivative(coeffs, theta_path(coeffs, bundle, j),
                               first_steps(gd.deriv_vectors(xi), j), spec.space)
    assert part.t == bundle.times[j]
    assert_close(part.dx, j)


#: (coefficients, x0) of the adjoint comparison: the four presets; the
#: jumpy coefficients, whose Theta overflows on some draws; and the linear
#: preset started at 2e154, where |DX|^2 overflows on some draws
ADJOINT_CASES = {name: preset(name) for name in ("additive", "linear-scalar", "elliptic-2d",
                                                 "rank1-2d")}
ADJOINT_CASES["jumpy"] = jumpy_preset("jumpy")
ADJOINT_CASES["linear-2e154"] = (preset("linear-scalar")[0], np.array([2e154]))


def dx_and_gram(path, dx_of):
    """(DX, Gamma) of the one-path bundle path() with DX = dx_of(path()),
    or None when the path is excluded: a BlowupError of its Euler or Theta
    state, its DX or its Gamma."""
    try:
        bundle = path()
        dx = dx_of(bundle)
        return dx, malliavin_matrix(MalliavinField(t=float(bundle.times[-1]), dx=dx)).gamma
    except BlowupError:
        return None


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(ADJOINT_CASES))
def test_adjoint_dx_matches_the_dense_oracle(name, q):
    # DX and Gamma by summation by parts over the DF factors equal, to 1e-13,
    # those of the dense DF array and its left-point Young sum, over 24
    # draws run as the ensemble runs them (one Euler and Theta solve per
    # block); each seed is excluded by both or by neither, and DX h is the
    # complex-step derivative of the Euler flow
    coeffs, x0 = ADJOINT_CASES[name]
    spec = make_spec(q=q, m=coeffs.m, n=40, out_times=(1.0,))
    gd = GridDriver(spec, np.linspace(0.0, 1.0, 33))
    kept, excluded = 0, []
    for draws, xi, batch in euler_batches(coeffs, x0, spec, gd, range(24)):
        solve_theta_all(coeffs, batch)
        for k, w in enumerate(draws):
            path = functools.partial(batch.path, k)
            got = dx_and_gram(path, lambda bundle: solution_derivative(
                coeffs, bundle, gd.deriv_vectors(xi[k]), spec.space).dx)
            want = dx_and_gram(path, lambda bundle: dense_solution_derivative(
                coeffs, bundle, dense_deriv_vectors(gd, xi[k]), spec.space))
            assert (got is None) == (want is None)
            if got is None:
                excluded.append(w.seed)
                continue
            kept += 1
            for a, b in zip(got, want):
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
            if name != "jumpy":  # whose dsigma is not the derivative of its sigma
                h = np.random.default_rng(w.seed).standard_normal(spec.space.basis_dim)
                exact = complex_step_dx(coeffs, x0, gd, w, h)
                scale = np.max(np.abs(got[0]) @ np.abs(h))
                assert np.max(np.abs(got[0] @ h - exact)) <= 1e-13 * scale
    # every case keeps draws, and the last two exclude some
    assert kept and (name not in ("jumpy", "linear-2e154") or excluded)
