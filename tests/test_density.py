"""Density lab: reproducible ensembles, KDE, positivity reporting and the
two-sample KS test."""

import math

import numpy as np
import pytest

from chaosde.errors import BlowupError, ConfigError, DegenerateLawError, MemoryBudgetError
from chaosde.wiener import sample_omega
from chaosde.sde import solve_euler, solve_theta_all
from chaosde.malliavin import solution_derivative
from chaosde.density import (
    SampleEnsemble,
    Scenario,
    dump_csv,
    kde,
    ks_two_sample,
    positivity_report,
    run_ensemble,
)

SMALL = dict(q=1, H=0.7, steps=32, n=64, L=4.0)


def test_scenario_steps_budget():
    # the driver's (steps, steps) calibration Gram is checked when the
    # scenario is made, before the solver grid exists
    with pytest.raises(MemoryBudgetError):
        Scenario(preset="additive", q=1, H=0.7, steps=40_000)
    with pytest.raises(MemoryBudgetError):
        Scenario(preset="additive", q=1, H=0.7, steps=10**12)


def test_scenario_driver_nodes_are_the_steps():
    # the solver-grid driver has one quadrature node per step, and its spec
    # says so: with one step, 2.2e6 cells fit the budget although 64 nodes
    # of n+1 cell edges would not
    _, _, spec, driver = Scenario(preset="additive", q=2, H=0.7, steps=1, n=2_200_000).build()
    assert spec.s_nodes == 1
    assert driver.times.shape == (2,)


def test_ensemble_deterministic():
    sc = Scenario(preset="additive", **SMALL)
    a = run_ensemble(sc, M=8, base_seed=11)
    b = run_ensemble(sc, M=8, base_seed=11)
    assert np.array_equal(a.x_samples, b.x_samples)
    assert np.array_equal(a.det_samples, b.det_samples)
    assert a.seeds == list(range(11, 19))


def test_ensemble_seed_offsets_are_subsets():
    # per-seed determinism: sample for seed k is independent of the batch
    sc = Scenario(preset="additive", **SMALL)
    big = run_ensemble(sc, M=6, base_seed=0)
    small = run_ensemble(sc, M=3, base_seed=3)
    assert np.allclose(big.x_samples[3:], small.x_samples)


def test_ensemble_needs_two_draws():
    sc = Scenario(preset="additive", **SMALL)
    with pytest.raises(ConfigError):
        run_ensemble(sc, M=1)


def test_parallel_matches_serial():
    sc = Scenario(preset="additive", with_malliavin=False, **SMALL)
    serial = run_ensemble(sc, M=6, base_seed=0, workers=1)
    par = run_ensemble(sc, M=6, base_seed=0, workers=2)
    assert np.array_equal(serial.x_samples, par.x_samples)


def test_additive_law_variance():
    # X_1 = x0 + b + sigma Z_1 with Var(Z_1) = 1: sample variance must
    # match sigma^2 within 3 sigma of its sampling error
    sc = Scenario(preset="additive", with_malliavin=False, **SMALL)
    ens = run_ensemble(sc, M=2000, base_seed=0)
    x = ens.x_samples[:, 0]
    var = np.var(x, ddof=1)
    target = 1.5**2
    se = target * math.sqrt(2.0 / (len(x) - 1))
    assert abs(var - target) <= 3 * se
    assert np.mean(x) == pytest.approx(0.5 + 0.25, abs=3 * 1.5 / math.sqrt(len(x)))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_malliavin_derivative_is_a_blowup():
    # x0 at the top of the double range: seed 9 keeps a finite Euler state
    # and a finite Theta, but its DX overflows; no sample keeps an inf det
    sc = Scenario(preset="linear-scalar", x0=(1.797e308,), q=1, H=0.7,
                  steps=16, n=32, L=4.0)
    coeffs, x0, spec, driver = sc.build()
    w = sample_omega(spec.space, 9)
    bundle = solve_theta_all(coeffs, solve_euler(coeffs, x0, (driver.times, driver.values(w))))
    with pytest.raises(BlowupError) as exc:
        solution_derivative(coeffs, bundle, driver.deriv_vectors(w), spec.space, t_index=12)
    assert exc.value.step == 12
    ens = run_ensemble(sc, M=10, base_seed=0)
    assert ens.excluded_seeds == list(range(10))
    assert ens.x_samples.shape == (0, 1)
    assert ens.det_samples.shape == ens.min_eigs.shape == (0,)


def test_kde_standard_normal():
    rng = np.random.default_rng(0)
    est = kde(rng.standard_normal(40_000))
    # smoothing bias at the mode is O(bandwidth^2) and dominates the noise
    assert est.at(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=0.02)
    assert est.mass() == pytest.approx(1.0, abs=0.02)


def test_kde_rejects_constant_and_short_samples():
    with pytest.raises(DegenerateLawError):
        kde(np.full(500, 2.0))
    with pytest.raises(ConfigError):
        kde(np.zeros(10))


def test_kde_matches_exact_gaussian_law():
    # additive preset at t=1: X_1 is Gaussian with mean x0 + b and sd sigma
    sc = Scenario(preset="additive", with_malliavin=False, **SMALL)
    ens = run_ensemble(sc, M=4000, base_seed=100)
    est = kde(ens.x_samples[:, 0])
    mu, sd = 0.75, 1.5
    exact = np.exp(-0.5 * ((est.grid - mu) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
    assert np.max(np.abs(est.values - exact)) <= 0.02


def test_positivity_elliptic_vs_rank1():
    ell = run_ensemble(Scenario(preset="elliptic-2d", **SMALL), M=40, base_seed=0)
    rep = positivity_report(ell)
    assert rep["fraction"] == 1.0
    assert rep["excluded"] == 0
    deg = run_ensemble(Scenario(preset="rank1-2d", **SMALL), M=40, base_seed=0)
    rep = positivity_report(deg, eps_det=1e-8)
    assert rep["fraction"] == 0.0


def test_positivity_zero_sigma_example():
    # hand-built ensemble with all-zero determinants reports fraction 0
    ens = SampleEnsemble(
        t=1.0, seeds=list(range(5)),
        x_samples=np.zeros((5, 1)),
        det_samples=np.zeros(5),
        min_eigs=np.zeros(5),
    )
    rep = positivity_report(ens, eps_det=1e-12)
    assert rep["fraction"] == 0.0


def test_ks_identical_samples():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(500)
    res = ks_two_sample(a, a)
    assert res["statistic"] == 0.0
    assert res["critical_1pct"] > res["critical_5pct"] > 0


def test_ks_null_and_alternative():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(2000)
    b = rng.standard_normal(2000)
    res = ks_two_sample(a, b)
    assert res["statistic"] <= res["critical_1pct"]
    shifted = b + 0.5
    res2 = ks_two_sample(a, shifted)
    assert res2["statistic"] > res2["critical_1pct"]


def test_ks_critical_values():
    # critical = c(alpha) sqrt((n+m)/(nm)) with the standard coefficients
    a = np.zeros(100)
    b = np.ones(400)
    res = ks_two_sample(a, b)
    factor = math.sqrt(500 / (100 * 400))
    assert res["critical_5pct"] == pytest.approx(1.3581 * factor)
    assert res["critical_1pct"] == pytest.approx(1.6276 * factor)
    assert res["statistic"] == 1.0


def test_dump_csv_layout(tmp_path):
    sc = Scenario(preset="elliptic-2d", **SMALL)
    ens = run_ensemble(sc, M=4, base_seed=0)
    path = tmp_path / "ensemble.csv"
    with open(path, "w", newline="\n") as fh:
        dump_csv(ens, fh)
    lines = path.read_text().splitlines()
    assert lines[0] == "seed,t,x_1,x_2,det_gamma,min_eig,excluded_flag"
    assert len(lines) == 5
    row = lines[1].split(",")
    assert int(row[0]) == 0 and row[-1] == "0"
    # 17-significant-digit round trip
    assert float(row[2]) == ens.x_samples[0, 0]
