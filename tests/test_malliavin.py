"""Malliavin derivatives of driver and solution, the Malliavin matrix,
shifted drivers and difference quotients; DX and the Malliavin matrix of
a block of draws against the same draws taken alone."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaosde.errors import BlowupError, InvalidDimensionError
from chaosde.wiener import HilbertDisc, HilbertVec, make_hilbert, sample_omega, shift_omega
from chaosde.hermite import (GridDriver, HermiteSpec, PrefixFactors, _factor_derivative,
                             build_kernels, simulate_path)
from chaosde.sde import SdeCoefficients, SolutionBundle, preset, solve_euler, solve_theta_all
from chaosde.density import euler_batches
from chaosde.malliavin import (
    directional_quotient,
    malliavin_matrix,
    shifted_driver,
    solution_derivative,
)
from oracles import (complex_step_dx, component_shift_failures, dense_deriv_vectors, dense_prefix,
                     dense_solution_derivative, dx_from_triangle, euler_path, first_steps,
                     gram_oracle, jumpy_preset, theta_block, theta_triangle)


def make_spec(q=1, m=1, n=96, L=4.0, out_times=(0.5, 1.0)):
    space = make_hilbert(m, -L, max(out_times), n)
    return HermiteSpec(q=q, H=0.7, m=m, space=space, out_times=out_times)


def solve_case(preset_name, q, steps=48, n=96, seed=0):
    """The draw of seed as a block of one: its one-path bundle with Theta,
    and its DX, shape (d, basis_dim)."""
    coeffs, x0 = preset(preset_name)
    spec = make_spec(q=q, m=coeffs.m, n=n, out_times=(1.0,))
    times = np.linspace(0.0, 1.0, steps + 1)
    gd = GridDriver(spec, times)
    w = sample_omega(spec.space, seed)
    xi = spec.space.components(w.xi[None])  # a block of one draw
    p = gd.projections(xi)
    batch = solve_theta_all(coeffs, solve_euler(coeffs, x0, (gd.times, gd.values(p))))
    dx = solution_derivative(coeffs, batch, gd.deriv_vectors(p), spec.space)[0]
    return coeffs, x0, spec, gd, w, batch.path(0), dx


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
    coeffs, x0, spec, gd, w, bundle, dx = solve_case("additive", 1)
    dfields = dense_deriv_vectors(gd, spec.space.components(w.xi))
    assert np.allclose(spec.space.components(dx)[0, 0], 1.5 * dfields[-1, 0], atol=1e-12)
    assert np.linalg.norm(dx[0]) == pytest.approx(1.5 * 1.0**0.7, rel=1e-10)


def test_solution_derivative_needs_the_theta_of_one_path():
    # the Theta of every path of the batch: not a batch without Theta, one
    # with a Theta of another grid, nor one path without the block axis
    coeffs, x0, spec, gd, w, bundle, dx = solve_case("elliptic-2d", 1, steps=8)
    xi = spec.space.components(w.xi[None])
    p = gd.projections(xi)
    df = gd.deriv_vectors(p)
    no_theta = solve_euler(coeffs, x0, (gd.times, gd.values(p)))
    cut = solve_theta_all(coeffs, solve_euler(coeffs, x0, (gd.times, gd.values(p))))
    cut.theta = cut.theta[:, :5]
    for batch in (no_theta, cut, bundle):
        with pytest.raises(InvalidDimensionError, match="solve_theta_all"):
            solution_derivative(coeffs, batch, df, spec.space)


def test_one_step_dx_overflow_is_a_silent_blowup():
    # on a one-step grid the sum by parts is a single product per
    # coordinate, C_0 = a_0 rho_1 Theta_0 of the one DF factor; its
    # overflow leaves the draw out of ok, with no eigenvalue and no warning
    coeffs, x0 = preset("additive")
    batch = theta_block(coeffs, euler_path(coeffs, x0, (np.array([0.0, 1.0]), np.zeros((2, 1)))))
    space = make_hilbert(1, -4.0, 1.0, 8)
    df = PrefixFactors(np.ones(2), np.full((1, 1, 1), 1.5e308), np.ones((1, 8)))
    dx = solution_derivative(coeffs, batch, df, space)
    assert np.isinf(dx).all()
    mm = malliavin_matrix(dx)
    assert not mm.ok[0] and np.isnan(mm.min_eig[0])


def test_malliavin_matrix_properties():
    coeffs, x0, spec, gd, w, bundle, dx = solve_case("elliptic-2d", 1)
    mm = malliavin_matrix(dx[None])
    assert mm.gamma.shape == (1, 2, 2)
    assert mm.det.shape == mm.min_eig.shape == mm.ok.shape == (1,)
    gamma = mm.gamma[0]
    assert np.allclose(gamma, gamma.T)
    assert mm.ok[0] and mm.min_eig[0] > 0
    assert mm.det[0] == pytest.approx(np.linalg.det(gamma), rel=1e-8)


@pytest.mark.parametrize("name", ["additive", "linear-scalar", "elliptic-2d", "rank1-2d"])
def test_gram_is_symmetric_bit_for_bit(name):
    # gamma = DX DX^T comes out of numpy's syrk symmetric bit for bit, for
    # the DX of every preset and for random stacks, so it needs no
    # symmetrization
    coeffs, x0 = preset(name)
    spec = make_spec(q=2, m=coeffs.m, n=48, out_times=(1.0,))
    gd = GridDriver(spec, np.linspace(0.0, 1.0, 25))
    for _, p, batch in euler_batches(coeffs, x0, spec, gd, range(40)):
        solve_theta_all(coeffs, batch)
        gamma = malliavin_matrix(solution_derivative(coeffs, batch, gd.deriv_vectors(p),
                                                     spec.space)).gamma
        assert np.array_equal(gamma, gamma.swapaxes(-1, -2))
    rng = np.random.default_rng(3)
    for shape in ((64, 2, 512), (100, 3, 1000), (7, 2, 5)):
        gamma = malliavin_matrix(rng.standard_normal(shape)).gamma
        assert np.array_equal(gamma, gamma.swapaxes(-1, -2))


def test_gram_near_the_largest_double_stays_ok():
    # a DX whose first row has |DX^1|^2 near 9e307, above half the largest
    # double, and a second row near 0.01: |DX|^2, gamma and det are
    # finite, so the draw is kept with finite eigenvalues, as the per-draw
    # oracle keeps it; gamma + gamma^T, the symmetrization the Gram matrix
    # no longer takes, would overflow there
    rng = np.random.default_rng(5)
    B, n = 16, 100
    dx = np.empty((B, 2, n))
    dx[:, 0] = np.sqrt(9e307 / n) * (1.0 + 1e-3 * rng.standard_normal((B, n)))
    dx[:, 1] = 0.01 * rng.standard_normal((B, n))
    mm = malliavin_matrix(dx)
    assert (mm.gamma[:, 0, 0] > 0.5 * np.finfo(float).max).all()
    with np.errstate(over="ignore"):
        assert np.isinf(mm.gamma + mm.gamma.swapaxes(-1, -2)).any(axis=(1, 2)).all()
    assert mm.ok.all() and np.isfinite(mm.min_eig).all() and np.isfinite(mm.det).all()
    for k in range(B):
        gamma, det, min_eig = gram_oracle(dx[k])
        assert np.array_equal(mm.gamma[k], gamma)
        assert (mm.det[k], mm.min_eig[k]) == (det, min_eig)


def test_rank1_matrix_degenerate():
    coeffs, x0, spec, gd, w, bundle, dx = solve_case("rank1-2d", 1)
    mm = malliavin_matrix(dx[None])
    assert mm.ok[0] and abs(mm.det[0]) <= 1e-10
    # the two derivative rows are proportional (outer-product sigma)
    u = dx[0]
    v = dx[1]
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
    coeffs, x0, spec, gd, w, bundle, dx = solve_case("elliptic-2d", 2)
    rng = np.random.default_rng(7)
    h = HilbertVec(spec.space, rng.standard_normal(spec.space.basis_dim))
    target = dx @ h.coords
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
    coeffs, x0, spec, gd, w, bundle, dx = solve_case(name, q, steps=steps, n=40, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        h = rng.standard_normal(spec.space.basis_dim)
        want = complex_step_dx(coeffs, x0, gd, w, h)
        assert np.max(np.abs(dx @ h - want)) <= 1e-13 * np.max(np.abs(dx) @ np.abs(h))


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
    coeffs, x0, spec, gd, w, bundle, dx = solve_case(name, q, steps=steps, n=40, seed=seed)
    xi = spec.space.components(w.xi)
    dfields = dense_deriv_vectors(gd, xi)
    triangle = theta_triangle(coeffs, bundle)

    def assert_close(got, t_index):
        want = dx_from_triangle(coeffs, triangle, dfields, spec.space, t_index)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    assert_close(dx, steps)
    j = 1 + seed % steps
    part = solution_derivative(coeffs, theta_block(coeffs, bundle, j),
                               first_steps(gd.deriv_vectors(gd.projections(xi[None])), j),
                               spec.space)
    assert_close(part[0], j)


#: (coefficients, x0) of the adjoint comparison: the four presets; the
#: jumpy coefficients, whose Theta overflows on some draws; and the linear
#: preset started at 2e154, where |DX|^2 overflows on some draws
ADJOINT_CASES = {name: preset(name) for name in ("additive", "linear-scalar", "elliptic-2d",
                                                 "rank1-2d")}
ADJOINT_CASES["jumpy"] = jumpy_preset("jumpy")
ADJOINT_CASES["linear-2e154"] = (preset("linear-scalar")[0], np.array([2e154]))


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(ADJOINT_CASES))
def test_adjoint_dx_matches_the_dense_oracle(name, q):
    # DX and Gamma by summation by parts over the DF factors, one call each
    # per block, equal to 1e-13 those of the dense DF array and its
    # left-point Young sum taken one draw at a time, over 24 draws; each
    # seed is excluded by both or by neither (the oracle excludes a draw
    # whose path(k) or dense DX raises BlowupError, or whose det
    # overflows), and DX h is the complex-step derivative of the Euler flow
    coeffs, x0 = ADJOINT_CASES[name]
    spec = make_spec(q=q, m=coeffs.m, n=40, out_times=(1.0,))
    gd = GridDriver(spec, np.linspace(0.0, 1.0, 33))
    kept, excluded = 0, []
    for seeds, p, batch in euler_batches(coeffs, x0, spec, gd, range(24)):
        solve_theta_all(coeffs, batch)
        dx = solution_derivative(coeffs, batch, gd.deriv_vectors(p), spec.space)
        mm = malliavin_matrix(dx)
        for k, seed in enumerate(seeds):
            try:
                want_dx = dense_solution_derivative(coeffs, batch.path(k),
                                                    dense_prefix(gd.deriv_vectors(p[k])),
                                                    spec.space)
                want = gram_oracle(want_dx)
            except BlowupError:
                want = None
            assert mm.ok[k] == (want is not None)
            if want is None:
                excluded.append(seed)
                continue
            kept += 1
            for a, b in zip((dx[k], mm.gamma[k]), (want_dx, want[0])):
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
            if name != "jumpy":  # whose dsigma is not the derivative of its sigma
                h = np.random.default_rng(seed).standard_normal(spec.space.basis_dim)
                exact = complex_step_dx(coeffs, x0, gd, sample_omega(spec.space, seed), h)
                scale = np.max(np.abs(dx[k]) @ np.abs(h))
                assert np.max(np.abs(dx[k] @ h - exact)) <= 1e-13 * scale
    # every case keeps draws, and the last two exclude some
    assert kept and (name not in ("jumpy", "linear-2e154") or excluded)


#: the tensor E[k, l, p] = delta_kl delta_kp of a diagonal sigma's derivative
DIAGONAL = np.einsum("kl,kp->klp", np.eye(2), np.eye(2))


def diagonal_coeffs(s, ds):
    """d = m = 2, no drift and sigma = diag(s(x_1), s(x_2)): each state
    component driven by its own noise component, with dsigma from ds."""
    return SdeCoefficients(d=2, m=2, b=lambda x: np.zeros(np.shape(x)),
                           sigma=lambda x: s(x)[..., :, None] * np.eye(2),
                           db=lambda x: np.zeros(np.shape(x) + (2,)),
                           dsigma=lambda x: ds(x)[..., :, None, None] * DIAGONAL)


LINEAR_2D = diagonal_coeffs(lambda x: 0.5 * x, lambda x: np.full(np.shape(x), 0.5))
#: dsigma = 1e300 above 0.5: the Theta of a path that crosses 0.5 overflows
JUMPY_2D = diagonal_coeffs(lambda x: 1.0 + 0.5 * np.sin(x),
                           lambda x: np.where(x > 0.5, 1e300, 0.5 * np.cos(x)))
#: (coefficients, x0) of the mixed block, with the blowup each case brings:
#: none; Euler (the first step overflows); Theta; DX (|DX|^2 overflows at
#: about 2e154 per component) and the det (|DX|^2 near 1e180, det near 1e360)
MIXED_CASES = (preset("elliptic-2d"), (LINEAR_2D, np.full(2, 1.797e308)),
               (JUMPY_2D, np.zeros(2)), (LINEAR_2D, np.full(2, 2e154)),
               (LINEAR_2D, np.full(2, 1e90)))


def mixed_block(gd, seeds):
    """One block of the draws of seeds under each of MIXED_CASES, solved
    case by case and then interleaved: (batch with Theta, projections)."""
    parts = []
    for coeffs, x0 in MIXED_CASES:
        for _, p, batch in euler_batches(coeffs, x0, gd.spec, gd, seeds):
            parts.append((solve_theta_all(coeffs, batch), p))
    order = np.random.default_rng(0).permutation(len(seeds) * len(MIXED_CASES))
    fields = {name: np.concatenate([getattr(b, name) for b, _ in parts])[order]
              for name in ("X", "driver_values", "sigma", "theta", "failed", "theta_failed")}
    return (SolutionBundle(times=gd.times, **fields),
            np.concatenate([p for _, p in parts])[order])


@pytest.mark.parametrize("q", [1, 2])
def test_block_equals_its_draws_taken_alone(q):
    # DX, gamma, det, min_eig and ok of a block that holds Euler, Theta, DX
    # and det blowups equal those of each draw as a block of one, bit for
    # bit, NaN for NaN; ok excludes exactly the draws the per-draw oracle
    # does (path(k) raises, or np.vdot(DX, DX) or the det is not finite),
    # and a kept draw's gamma, det and min_eig are the oracle's bits
    coeffs = LINEAR_2D
    spec = make_spec(q=q, m=2, n=24, out_times=(1.0,))
    gd = GridDriver(spec, np.linspace(0.0, 1.0, 17))
    batch, p = mixed_block(gd, range(8))
    dx = solution_derivative(coeffs, batch, gd.deriv_vectors(p), spec.space)
    mm = malliavin_matrix(dx)
    kinds = set()
    for k in range(p.shape[0]):
        one = SolutionBundle(times=batch.times, X=batch.X[k:k + 1],
                             driver_values=batch.driver_values[k:k + 1],
                             theta=batch.theta[k:k + 1])
        dx1 = solution_derivative(coeffs, one, gd.deriv_vectors(p[k:k + 1]), spec.space)
        mm1 = malliavin_matrix(dx1)
        assert np.array_equal(dx[k], dx1[0], equal_nan=True)
        for name in ("gamma", "det", "min_eig", "ok"):
            assert np.array_equal(getattr(mm, name)[k], getattr(mm1, name)[0], equal_nan=True)
        try:
            batch.path(k)
            want = gram_oracle(dx[k])
        except BlowupError:
            want = None
        assert mm.ok[k] == (want is not None)
        if want is not None:
            assert np.array_equal(mm.gamma[k], want[0])
            assert (mm.det[k], mm.min_eig[k]) == want[1:]
        kinds.add("euler" if batch.failed[k] else "theta" if batch.theta_failed[k]
                  else "dx" if np.isnan(mm.min_eig[k]) else "det" if not mm.ok[k] else "kept")
    assert kinds == {"euler", "theta", "dx", "det", "kept"}


def test_exclusions_at_the_overflow_edge_are_the_oracle_ones():
    # three rows of DX on disjoint cells, each |DX^k|^2 near a third of the
    # largest double, and a zero fourth row: Gamma is diagonal and finite,
    # its det is 0, and |DX|^2 straddles the overflow edge, so that the
    # per-draw oracle's np.vdot(DX, DX), in its own summation order, alone
    # decides which draws are kept; ok keeps exactly those
    rng = np.random.default_rng(1)
    B, n = 2000, 64
    edge = np.sqrt(np.finfo(float).max / (3 * n))
    dx = np.zeros((B, 4, 3 * n))
    for k in range(3):
        dx[:, k, k * n:(k + 1) * n] = edge * (1.0 + 1e-13 * rng.standard_normal((B, n)))
    want = np.array([gram_oracle(row) is not None for row in dx])
    assert np.array_equal(want, [np.isfinite(np.vdot(row, row)) for row in dx])
    assert 0 < want.sum() < B
    assert np.array_equal(malliavin_matrix(dx).ok, want)
