"""Hermite driver kernels: constants, pointwise values, blocks, simulation,
covariance, the central-limit oracle, self-similarity and Holder norms."""

import math

import numpy as np
import pytest

from chaosde.errors import (
    InvalidDimensionError,
    OutOfRangeError,
    UnsupportedOrderError,
)
from chaosde.wiener import HolderConfig, make_hilbert, sample_omega, zero_draw
from chaosde.hermite import (
    GridDriver,
    HermiteSpec,
    build_kernels,
    covariance_theoretical,
    export_kernels,
    holder_norms,
    hurst_aux,
    import_kernels,
    kernel_eval,
    nclt_paths,
    self_similarity_stat,
    simulate_path,
    simulate_paths,
)

# frozen constants from independent adaptive quadrature of the Beta
# integrals B(a, b) = int_0^1 s^{a-1} (1-s)^{b-1} ds
C_07_1 = 0.21836182618075642
C_07_2 = 0.06802476430913895
# c(H=0.7, q=1) / (H0 - 1/2) * t^{H0 - 1/2} at t = 1
KERNEL_Q1_AT0 = 1.091809130903782
# c(H=0.7, q=2) * int_0^1 (s + 0.5)^{-1.3} ds
KERNEL_Q2_AT_HALF = 0.07838197004488931


def small_spec(q=1, H=0.7, n=64, L=4.0, m=1, **kw):
    space = make_hilbert(m, -L, 1.0, n)
    return HermiteSpec(q=q, H=H, m=m, space=space, **kw)


def test_hurst_aux_frozen_constants():
    H0, c = hurst_aux(0.7, 1)
    assert H0 == pytest.approx(0.7)
    assert c == pytest.approx(C_07_1, rel=1e-8)
    H0, c = hurst_aux(0.7, 2)
    assert H0 == pytest.approx(0.85)
    assert c == pytest.approx(C_07_2, rel=1e-8)


def test_hurst_aux_validation():
    with pytest.raises(OutOfRangeError):
        hurst_aux(0.5, 1)
    with pytest.raises(OutOfRangeError):
        hurst_aux(0.7, 0)


def test_spec_validation():
    with pytest.raises(UnsupportedOrderError):
        small_spec(q=4)
    with pytest.raises(InvalidDimensionError):
        HermiteSpec(q=1, H=0.7, m=1, space=make_hilbert(1, 0.0, 1.0, 8))
    with pytest.raises(InvalidDimensionError):
        small_spec(out_times=(0.5, 0.25))
    with pytest.raises(OutOfRangeError):
        small_spec(out_times=(0.5, 2.0))


def test_kernel_eval_frozen_oracles():
    spec1 = small_spec(q=1)
    assert kernel_eval(spec1, 1.0, [0.0]) == pytest.approx(KERNEL_Q1_AT0, rel=1e-8)
    spec2 = small_spec(q=2, s_nodes=512)
    val = kernel_eval(spec2, 1.0, [-0.5, -0.5])
    assert val == pytest.approx(KERNEL_Q2_AT_HALF, rel=1e-4)


def test_kernel_eval_support():
    spec = small_spec(q=2)
    assert kernel_eval(spec, 0.5, [0.6, -1.0]) == 0.0
    assert kernel_eval(spec, 0.5, [0.5, -1.0]) == 0.0
    with pytest.raises(OutOfRangeError):
        kernel_eval(spec, 0.0, [0.0, 0.0])


@pytest.mark.parametrize("q", [1, 2, 3])
def test_blocks_calibrated_norm_and_adapted(q):
    n = 48 if q == 3 else 64
    spec = small_spec(q=q, n=n, out_times=(0.5, 1.0))
    field = build_kernels(spec)
    for ti, t in enumerate(spec.out_times):
        target = math.sqrt(t ** (2 * spec.H) / math.factorial(q))
        assert field.norm_at(ti) == pytest.approx(target, rel=1e-12)
        block = field.blocks[ti]
        # adaptedness: cells with midpoint at or past t carry nothing
        dead = spec.space.cell_midpoints() >= t
        assert np.all(block[dead] == 0.0)
        # symmetry
        if q == 2:
            assert np.allclose(block, block.T)


def test_block_q1_matches_pointwise_kernel():
    # for q = 1 the cell average converges to the pointwise value at the
    # midpoint times sqrt(delta); compare on an interior cell
    spec = small_spec(q=1, n=512, out_times=(1.0,))
    field = build_kernels(spec, calibrate=False)
    i = 300  # interior cell, away from 0 and t
    mid = spec.space.cell_midpoints()[i]
    expected = kernel_eval(spec, 1.0, [mid]) * math.sqrt(spec.space.delta)
    assert field.blocks[0][i] == pytest.approx(expected, rel=1e-3)


def test_simulate_path_zero_draw():
    spec1 = small_spec(q=1)
    field1 = build_kernels(spec1)
    assert np.all(simulate_path(field1, zero_draw(spec1.space)).values == 0.0)
    # order 2 at the zero draw reduces to minus the trace correction
    spec2 = small_spec(q=2)
    field2 = build_kernels(spec2)
    vals = simulate_path(field2, zero_draw(spec2.space)).values
    for ti in range(len(spec2.out_times)):
        assert vals[ti, 0] == pytest.approx(-np.trace(field2.blocks[ti]))


def test_simulate_paths_matches_loop():
    spec = small_spec(q=2, m=2)
    field = build_kernels(spec)
    seeds = list(range(5))
    batch = simulate_paths(field, seeds)
    for k, seed in enumerate(seeds):
        one = simulate_path(field, sample_omega(spec.space, seed)).values
        assert np.allclose(batch[k], one, atol=1e-12)


def test_simulate_paths_row_independent_of_batch():
    # sample k is the same on its own as inside a larger batch, bit for bit
    spec = small_spec(q=3, n=32, m=2)
    field = build_kernels(spec)
    batch = simulate_paths(field, range(10, 30))
    for k in (0, 7, 19):
        assert np.array_equal(simulate_paths(field, [10 + k])[0], batch[k])


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_factored_matches_dense_chaos(q, m):
    # the factored value and derivative equal the dense chaos calculus
    # applied to the blocks they describe
    from chaosde import chaos
    from chaosde.malliavin import driver_derivative
    from chaosde.wiener import GaussianDraw

    n = 24 if q == 3 else 48
    spec = small_spec(q=q, n=n, m=m, out_times=(0.25, 0.5, 1.0))
    field = build_kernels(spec)
    sub = make_hilbert(1, spec.space.lo, spec.space.hi, n)
    for seed in range(4):
        w = sample_omega(spec.space, seed)
        got = simulate_path(field, w).values
        want = np.empty_like(got)
        for ell in range(m):
            sl = spec.space.component_slice(ell)
            w_sub = GaussianDraw(sub, w.xi[sl], seed)
            for ti in range(len(spec.out_times)):
                f = chaos.SymTensor(sub, q, field.blocks[ti])
                want[ti, ell] = chaos.multiple_integral(f, w_sub).value
                d_want = chaos.malliavin_derivative(f, w_sub, 1)
                d_got = driver_derivative(field, w, ti, ell).coords[sl]
                assert np.max(np.abs(d_got - d_want)) <= 1e-13 * np.max(np.abs(d_want))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("q", [1, 2, 3])
def test_wick_weights_match_closed_forms(q):
    # hand-expanded per-order weight table, the oracle for the Hermite recurrence
    from chaosde.hermite import _wick_weights

    rng = np.random.default_rng(q)
    g = rng.standard_normal((40, 32))
    xi = rng.standard_normal(32)
    gx, gg = g @ xi, np.einsum("ki,ki->k", g, g)
    want = {1: (gx, np.ones_like(gx)),
            2: (gx * gx - gg, 2.0 * gx),
            3: (gx**3 - 3.0 * gg * gx, 3.0 * (gx * gx - gg))}[q]
    for got, ref in zip(_wick_weights(g, xi, q), want):
        if q < 3:
            assert np.array_equal(got, ref)
        else:
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_covariance_theoretical_values():
    assert covariance_theoretical(0.0, 1.0, 0.7) == 0.0
    assert covariance_theoretical(1.0, 1.0, 0.7) == pytest.approx(1.0)
    # frozen: 0.5 (1 + 2^1.4 - 1) = 2^0.4
    assert covariance_theoretical(1.0, 2.0, 0.7) == pytest.approx(
        1.3195079107728942, rel=1e-12
    )
    with pytest.raises(OutOfRangeError):
        covariance_theoretical(-1.0, 1.0, 0.7)


@pytest.mark.parametrize("q", [1, 2])
def test_kernel_inner_products_match_covariance(q):
    # isometry: E[Z_s Z_t] = q! <f_s, f_t>; with calibrated blocks this
    # must match the closed-form covariance closely
    n = 256 if q == 1 else 264
    L = 8.0 if q == 1 else 32.0
    spec = HermiteSpec(q=q, H=0.7, m=1, space=make_hilbert(1, -L, 1.0, n),
                       out_times=(0.25, 0.5, 1.0))
    field = build_kernels(spec)
    for i, s in enumerate(spec.out_times):
        for j, t in enumerate(spec.out_times):
            if i > j:
                continue
            ip = math.factorial(q) * float(np.sum(field.blocks[i] * field.blocks[j]))
            tgt = covariance_theoretical(s, t, 0.7)
            assert ip == pytest.approx(tgt, rel=0.05)


def test_variance_monte_carlo_q1():
    spec = small_spec(q=1, n=128, L=8.0, out_times=(1.0,))
    field = build_kernels(spec)
    vals = simulate_paths(field, range(4000))[:, 0, 0]
    M = vals.shape[0]
    sig = np.std(vals * vals, ddof=1) / math.sqrt(M)
    assert abs(np.mean(vals * vals) - 1.0) <= 3.0 * sig


def test_nclt_oracle_variance():
    # independent construction; marginal variance at t must be t^{2H}
    for q in (1, 2):
        spec = small_spec(q=q, n=16, out_times=(0.5, 1.0))
        vals = nclt_paths(spec, range(3000), steps_per_unit=64)
        for ti, t in enumerate(spec.out_times):
            v = vals[:, ti, 0]
            sig = np.std(v * v, ddof=1) / math.sqrt(v.shape[0])
            assert abs(np.mean(v * v) - t ** (2 * spec.H)) <= 4.0 * sig


def test_nclt_paths_accepts_iterator():
    spec = small_spec(q=2, n=16, out_times=(0.5, 1.0))
    from_range = nclt_paths(spec, range(5), steps_per_unit=32)
    from_gen = nclt_paths(spec, (s for s in range(5)), steps_per_unit=32)
    assert np.array_equal(from_gen, from_range)


def test_export_import_roundtrip(tmp_path):
    spec = small_spec(q=2, n=24, out_times=(0.5, 1.0))
    field = build_kernels(spec)
    path = str(tmp_path / "kernels.txt")
    with open(path, "w", newline="\n") as fh:
        export_kernels(field, fh)
    back_spec, back_blocks, back_calibrated = import_kernels(path)
    assert back_spec.q == spec.q and back_spec.H == spec.H
    assert back_calibrated == field.calibrated
    assert np.allclose(back_blocks, field.blocks, rtol=1e-14, atol=1e-300)


def test_self_similarity_q1_deterministic():
    # for q = 1 the localized derivative energy does not depend on the draw,
    # so the two sides must agree as numbers
    spec = small_spec(q=1, n=128, L=8.0, out_times=(1.0,))
    lhs, rhs = self_similarity_stat(spec, 1.0, 0.25, sample_omega(spec.space, 0))
    assert lhs == pytest.approx(rhs, rel=1e-3)


def test_self_similarity_validation():
    spec = small_spec(q=2, n=32)
    with pytest.raises(OutOfRangeError):
        self_similarity_stat(spec, 0.5, 0.5, sample_omega(spec.space, 0))


def test_self_similarity_q2_law_small():
    spec = small_spec(q=2, n=128, L=8.0, out_times=(1.0,))
    cache = {}
    lhs, rhs = [], []
    for k in range(300):
        w = sample_omega(spec.space, k)
        a, b = self_similarity_stat(spec, 1.0, 0.25, w, rhs_seed=10_000 + k,
                                    _cache=cache)
        lhs.append(a)
        rhs.append(b)
    # medians of the two laws agree to ~10% at this sample size
    assert np.median(lhs) == pytest.approx(np.median(rhs), rel=0.25)


def test_holder_norms_constant_and_linear():
    cfg = HolderConfig(0.7)
    times = np.linspace(0.0, 1.0, 65)
    c_theta, w1, w2 = holder_norms(times, np.full((65, 1), 3.0), cfg)
    assert c_theta == pytest.approx(3.0)
    assert w1 == pytest.approx(3.0)
    assert w2 == pytest.approx(0.0, abs=1e-12)
    # linear path f(t) = 2t with theta = 1: sup quotient is the slope
    c_theta, _, _ = holder_norms(times, 2.0 * times[:, None], cfg, theta=1.0)
    assert c_theta == pytest.approx(4.0)


def test_holder_norms_requires_uniform_grid():
    cfg = HolderConfig(0.7)
    times = np.concatenate([np.linspace(0, 0.5, 8), [1.0]])
    with pytest.raises(InvalidDimensionError):
        holder_norms(times, np.zeros((9, 1)), cfg)


def test_grid_driver_calibrated_variance_q1():
    # for q = 1 the value at t is linear in xi, so its variance is the
    # squared norm of the derivative vector; calibration makes it t^{2H}
    spec = small_spec(q=1, n=128, L=8.0, out_times=(1.0,))
    times = np.linspace(0.0, 1.0, 33)
    gd = GridDriver(spec, times)
    vecs = gd.deriv_vectors(zero_draw(spec.space))
    for i in range(1, 33):
        t = times[i]
        nrm2 = float(np.sum(vecs[i, 0] ** 2))
        assert nrm2 == pytest.approx(t ** (2 * spec.H), rel=1e-10)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_grid_driver_directional_derivative_exact(q):
    # dir_deriv must be the exact gradient of values in the draw coordinates
    spec = small_spec(q=q, n=64, L=4.0, out_times=(1.0,))
    times = np.linspace(0.0, 1.0, 17)
    gd = GridDriver(spec, times)
    w = sample_omega(spec.space, 1)
    rng = np.random.default_rng(2)
    h = rng.standard_normal(spec.space.basis_dim)
    target = gd.dir_deriv(w, h)
    eps = 1e-6
    from chaosde.wiener import HilbertVec, shift_omega

    hv = HilbertVec(spec.space, h)
    up = gd.values(shift_omega(w, eps, hv))
    dn = gd.values(shift_omega(w, -eps, hv))
    fd = (up - dn) / (2 * eps)
    assert np.max(np.abs(fd - target)) <= 1e-6


def test_grid_driver_deriv_vectors_consistent():
    spec = small_spec(q=2, n=64, L=4.0, out_times=(1.0,))
    times = np.linspace(0.0, 1.0, 9)
    gd = GridDriver(spec, times)
    w = sample_omega(spec.space, 3)
    rng = np.random.default_rng(4)
    h = rng.standard_normal(spec.space.basis_dim)
    vecs = gd.deriv_vectors(w)
    direct = gd.dir_deriv(w, h)
    sl = spec.space.component_slice(0)
    assert np.allclose(vecs[:, 0, :] @ h[sl], direct[:, 0], atol=1e-12)


def test_grid_driver_validation():
    spec = small_spec(q=1)
    with pytest.raises(InvalidDimensionError):
        GridDriver(spec, np.linspace(0.5, 1.0, 9))
    with pytest.raises(OutOfRangeError):
        GridDriver(spec, np.linspace(0.0, 2.0, 9))
