"""Acceptance suite: one test per numbered criterion, each printing one
PASS/FAIL line per claim with the decisive statistic.

Criterion 1 (order 2) runs on a wider noise support than the smaller desk
grids used elsewhere: the kernel tail of the order-2 driver decays slowly
(like L^{2 H0 - 2} = L^{-0.3} for H = 0.7), so the support is extended to
L = 32 with a commensurate grid to bring the truncation bias inside the
Monte Carlo band.  All tolerances are asserted exactly as stated.
"""

import math

import numpy as np
import pytest

from chaosde import chaos
from chaosde.wiener import (
    HilbertVec,
    make_hilbert,
    sample_omega,
    shift_omega,
)
from chaosde.hermite import (
    GridDriver,
    HermiteSpec,
    build_kernels,
    covariance_theoretical,
    self_similarity_stat,
    simulate_paths,
)
from chaosde.sde import preset, solve_euler, solve_theta_all
from chaosde.malliavin import directional_quotient, solution_derivative
from chaosde.density import (
    Scenario,
    ks_two_sample,
    positivity_report,
    run_ensemble,
)
from oracles import complex_step_dx, component_shift_failures


def report(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------- criterion 1

COV_TIMES = (0.25, 0.5, 1.0)


def _covariance_case(q, n, L, M):
    space = make_hilbert(1, -L, 1.0, n)
    spec = HermiteSpec(q=q, H=0.7, m=1, space=space, out_times=COV_TIMES)
    field = build_kernels(spec)
    vals = simulate_paths(field, range(M))[:, :, 0]
    worst_z, rel_11 = 0.0, None
    for i, s in enumerate(COV_TIMES):
        for j, t in enumerate(COV_TIMES):
            if i > j:
                continue
            prod = vals[:, i] * vals[:, j]
            target = covariance_theoretical(s, t, 0.7)
            sig = np.std(prod, ddof=1) / math.sqrt(M)
            z = abs(np.mean(prod) - target) / sig
            worst_z = max(worst_z, z)
            if s == t == 1.0:
                rel_11 = abs(np.mean(prod) - target) / target
    return worst_z, rel_11


def test_criterion_01_covariance_identity():
    M = 20_000
    z1, rel1 = _covariance_case(q=1, n=256, L=8.0, M=M)
    z2, rel2 = _covariance_case(q=2, n=1056, L=32.0, M=M)
    ok = z1 <= 3.0 and z2 <= 3.0 and rel1 <= 0.05 and rel2 <= 0.05
    report(1, "covariance identity", ok,
           f"worst z: q1={z1:.2f}, q2={z2:.2f} (<=3); "
           f"rel at s=t=1: q1={rel1:.3f}, q2={rel2:.3f} (<=0.05)")


# ---------------------------------------------------------------- criterion 2


def test_criterion_02_taylor_identity():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        q = int(rng.integers(1, 4))
        n = int(rng.integers(4, 33))
        space = make_hilbert(1, 0.0, 1.0, n)
        dim = space.basis_dim
        f = chaos.symmetrize(space, rng.standard_normal((dim,) * q), q)
        w = sample_omega(space, int(rng.integers(1 << 30)))
        h = HilbertVec(space, rng.standard_normal(dim))
        eps = float(rng.uniform(-2, 2))
        lhs = chaos.taylor_shift(f, w, h, eps)
        rhs = chaos.multiple_integral(f, shift_omega(w, eps, h))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    ok = worst <= 1e-10
    report(2, "Cameron-Martin Taylor identity", ok, f"worst rel gap {worst:.2e} <= 1e-10")


# ---------------------------------------------------------------- criterion 3


def test_criterion_03_chaos_monte_carlo():
    M, dim = 100_000, 16
    space = make_hilbert(1, 0.0, 1.0, dim)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(3)))
    f = chaos.symmetrize(space, rng.standard_normal((dim, dim)))
    g = chaos.symmetrize(space, rng.standard_normal((dim, dim)))
    g1 = rng.standard_normal(dim)
    u = rng.standard_normal(dim)
    xis = rng.standard_normal((M, dim))
    i2f = np.einsum("mi,ij,mj->m", xis, f.coeffs, xis) - np.trace(f.coeffs)
    i2g = np.einsum("mi,ij,mj->m", xis, g.coeffs, xis) - np.trace(g.coeffs)
    i1 = xis @ g1

    zs = {}
    prod = i2f * i2g
    target = 2.0 * chaos.tensor_inner(f, g)
    zs["isometry"] = abs(np.mean(prod) - target) / (np.std(prod, ddof=1) / math.sqrt(M))
    prod = i1 * i2f
    zs["orthogonality"] = abs(np.mean(prod)) / (np.std(prod, ddof=1) / math.sqrt(M))
    # duality E[F delta(u)] = E[<DF, u>] with F = I_2(f), u constant
    delta_u = xis @ u
    dfu = 2.0 * xis @ (f.coeffs @ u)
    diff = i2f * delta_u - dfu
    zs["duality"] = abs(np.mean(diff)) / (np.std(diff, ddof=1) / math.sqrt(M))
    ok = all(z <= 3.0 for z in zs.values())
    # hypercontractivity: ||F||_4 <= 3 ||F||_2 on the second chaos
    lhs = float(np.mean(i2f**4)) ** 0.25
    rhs = 3.0 * math.sqrt(float(np.mean(i2f**2)))
    hyper_ok = lhs <= rhs
    ok = ok and hyper_ok
    report(3, "chaos-calculus Monte Carlo suite", ok,
           "z: " + ", ".join(f"{k}={v:.2f}" for k, v in zs.items())
           + f" (<=3); hyper L4/bound={lhs / rhs:.2f} (<=1)")


# ---------------------------------------------------------------- criterion 4


def _diagonal_free(space, q, rng):
    dim = space.basis_dim
    raw = rng.standard_normal((dim,) * q) if q else rng.standard_normal()
    raw = np.asarray(raw)
    if q >= 2:
        idx = np.indices(raw.shape)
        distinct = np.ones(raw.shape, dtype=bool)
        for a in range(q):
            for b in range(a + 1, q):
                distinct &= idx[a] != idx[b]
        raw = np.where(distinct, raw, 0.0)
    return chaos.symmetrize(space, raw, q)


def test_criterion_04_product_formula():
    space = make_hilbert(1, 0.0, 1.0, 8)
    rng = np.random.default_rng(4)
    worst = 0.0
    for p, q in ((1, 1), (1, 2), (2, 2), (1, 3)):
        f = _diagonal_free(space, p, rng)
        g = _diagonal_free(space, q, rng)
        for seed in range(50):
            w = sample_omega(space, seed)
            worst = max(worst, abs(chaos.product_formula_check(f, g, w)))
    ok = worst <= 1e-10
    report(4, "product formula", ok, f"worst residual {worst:.2e} <= 1e-10")


# ---------------------------------------------------------------- criterion 5


def test_criterion_05_decomposition():
    rng = np.random.default_rng(5)
    worst_rt, worst_ev, worst_c = 0.0, 0.0, 0.0
    for _ in range(100):
        q = int(rng.integers(1, 4))
        n = int(rng.integers(4, 13))
        space = make_hilbert(1, 0.0, 1.0, n)
        dim = space.basis_dim
        f = chaos.symmetrize(space, rng.standard_normal((dim,) * q), q)
        v = rng.standard_normal(dim)
        e0 = HilbertVec(space, v / np.linalg.norm(v))
        parts = chaos.decompose_along(f, e0)
        back = chaos.recompose(parts, e0)
        worst_rt = max(worst_rt, np.max(np.abs(back.coeffs - f.coeffs)) / f.norm())
        w = sample_omega(space, int(rng.integers(1 << 30)))
        lhs = chaos.multiple_integral(f, w)
        rhs = chaos.decompose_eval(parts, e0, w)
        worst_ev = max(worst_ev, abs(lhs - rhs) / max(1.0, abs(lhs)))
        for _, part in parts:
            nrm = part.norm() if part.q else abs(float(part.coeffs))
            worst_c = max(worst_c, nrm / f.norm())
    ok = worst_rt <= 1e-12 and worst_ev <= 1e-10 and worst_c <= 2.0
    report(5, "decomposition lemma", ok,
           f"roundtrip {worst_rt:.2e} <= 1e-12, eval {worst_ev:.2e} <= 1e-10, "
           f"C {worst_c:.2f} <= 2")


# ---------------------------------------------------------------- criterion 6


def test_criterion_06_sde_oracles():
    # additive exact
    space = make_hilbert(1, -8.0, 1.0, 256)
    spec = HermiteSpec(q=1, H=0.7, m=1, space=space, out_times=(1.0,))
    coeffs, x0 = preset("additive")
    times = np.linspace(0.0, 1.0, 257)
    gd = GridDriver(spec, times)
    w = sample_omega(space, 0)
    F = gd.values(w)
    bundle = solve_euler(coeffs, x0, (times, F))
    exact = x0[0] + 0.25 * times + 1.5 * F[:, 0]
    add_err = float(np.max(np.abs(bundle.X[:, 0] - exact)))

    # linear scalar against the exponential of the fixed H=0.7 driver path
    coeffs_l, x0_l = preset("linear-scalar")
    fine = np.linspace(0.0, 1.0, 2**11 + 1)
    gd_f = GridDriver(spec, fine)
    F_f = gd_f.values(w)
    target = x0_l[0] * math.exp(0.5 * F_f[-1, 0])
    errs = []
    for k in (8, 9, 10, 11):
        stride = 2 ** (11 - k)
        b = solve_euler(coeffs_l, x0_l, (fine, F_f), times=fine[::stride])
        errs.append(abs(b.X[-1, 0] - target))
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    rate_ok = all(e2 < e1 for e1, e2 in zip(errs, errs[1:])) and min(rates) >= 0.3

    # Theta closed form for the smooth driver F = t at 2^10 steps
    steps = 2**10
    t_sm = np.linspace(0.0, 1.0, steps + 1)
    b_sm = solve_euler(coeffs_l, x0_l, (t_sm, t_sm[:, None]))
    solve_theta_all(coeffs_l, b_sm)
    worst_theta = 0.0
    for s_idx in (0, steps // 4, steps // 2):
        for t_idx in (steps // 2, steps):
            if t_idx < s_idx:
                continue
            exact_th = 0.5 * math.exp(0.5 * t_sm[t_idx])
            got = b_sm.theta[s_idx, t_idx, 0, 0]
            worst_theta = max(worst_theta, abs(got - exact_th) / exact_th)

    ok = add_err <= 1e-12 and rate_ok and worst_theta <= 0.01
    report(6, "SDE oracles", ok,
           f"additive {add_err:.1e} <= 1e-12; rates {[f'{r:.2f}' for r in rates]}"
           f" (>=0.3); Theta rel {worst_theta:.4f} <= 0.01")


# ---------------------------------------------------------------- criterion 7

EPS_LADDER = (1e-1, 1e-2, 1e-3, 1e-4)


def test_criterion_07_malliavin_representation():
    coeffs, x0 = preset("elliptic-2d")
    worst_order, worst_cs = np.inf, 0.0
    for q in (1, 2):
        space = make_hilbert(2, -8.0, 1.0, 256)
        spec = HermiteSpec(q=q, H=0.7, m=2, space=space, out_times=(1.0,))
        times = np.linspace(0.0, 1.0, 129)
        gd = GridDriver(spec, times)
        w = sample_omega(space, q)
        bundle = solve_euler(coeffs, x0, (gd.times, gd.values(w)))
        solve_theta_all(coeffs, bundle)
        mf = solution_derivative(coeffs, bundle, gd.deriv_vectors(w), space)
        rng = np.random.default_rng(70 + q)
        for _ in range(10):
            h = HilbertVec(space, rng.standard_normal(space.basis_dim))
            target = mf.dx @ h.coords
            errs = []
            for eps in EPS_LADDER:
                quot = directional_quotient(coeffs, x0, gd, w, h, eps)
                errs.append(float(np.max(np.abs(quot - target))))
            order = float(np.polyfit(np.log(EPS_LADDER), np.log(errs), 1)[0])
            worst_order = min(worst_order, order)
            # relative to the size of the summands of DX h, which may cancel
            exact = complex_step_dx(coeffs, x0, gd, w, h.coords)
            scale = np.max(np.abs(mf.dx) @ np.abs(h.coords))
            worst_cs = max(worst_cs, float(np.max(np.abs(target - exact)) / scale))
    report(7, "Malliavin representation", worst_order >= 0.9,
           f"min observed order {worst_order:.3f} >= 0.9")
    report(7, "DX is the exact Euler-flow gradient", worst_cs <= 1e-13,
           f"complex-step relative gap {worst_cs:.2e} <= 1e-13")


# ---------------------------------------------------------------- criterion 8


def test_criterion_08_malliavin_independence():
    # a Cameron-Martin shift on the other component's basis indices leaves
    # each component's value and derivative bit for bit and moves the other
    space = make_hilbert(2, -4.0, 1.0, 64)
    orders, seeds = (1, 2, 3), range(20)
    failures = []
    for q in orders:
        spec = HermiteSpec(q=q, H=0.7, m=2, space=space, out_times=COV_TIMES)
        failures += component_shift_failures(spec, np.linspace(0.0, 1.0, 33), seeds)
    claims = 4 * space.m * len(seeds) * len(orders)  # four per draw and component
    report(8, "Malliavin independence", not failures,
           f"{len(failures)} of {claims} component-shift claims fail (q = 1-3, 20 seeds)")


# ---------------------------------------------------------------- criterion 9


def test_criterion_09_bouleau_hirsch_positivity():
    ell = run_ensemble(Scenario(preset="elliptic-2d", q=1, H=0.7), M=500, base_seed=0)
    rep_ell = positivity_report(ell)
    deg = run_ensemble(Scenario(preset="rank1-2d", q=1, H=0.7), M=500, base_seed=0)
    rep_deg = positivity_report(deg, eps_det=1e-8)
    ok = rep_ell["fraction"] == 1.0 and rep_ell["excluded"] == 0 and rep_deg["fraction"] == 0.0
    report(9, "Bouleau-Hirsch positivity", ok,
           f"elliptic fraction {rep_ell['fraction']:.3f} == 1 "
           f"(min det {rep_ell['min_det']:.2e}, excluded {rep_ell['excluded']}); "
           f"rank-1 fraction {rep_deg['fraction']:.3f} == 0")


# --------------------------------------------------------------- criterion 10


def test_criterion_10_self_similarity_law():
    t, eps, M = 1.0, 0.25, 2000
    space = make_hilbert(1, -8.0, 1.0, 128)
    spec = HermiteSpec(q=2, H=0.7, m=1, space=space, out_times=(1.0,))
    lhs, rhs = self_similarity_stat(spec, t, eps, range(M), range(M, 2 * M))
    ks = ks_two_sample(lhs, rhs)
    spec1 = HermiteSpec(q=1, H=0.7, m=1, space=space, out_times=(1.0,))
    (l1,), (r1,) = self_similarity_stat(spec1, t, eps, [0], [1_000_003])
    det_gap = abs(l1 - r1) / abs(r1)
    ok = ks["statistic"] <= ks["critical_1pct"] and det_gap <= 1e-3
    report(10, "self-similarity law", ok,
           f"KS {ks['statistic']:.4f} <= {ks['critical_1pct']:.4f} (1% critical); "
           f"q=1 deterministic gap {det_gap:.2e} <= 1e-3")
