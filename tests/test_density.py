"""Density lab: reproducible ensembles, KDE, positivity reporting and the
two-sample KS test."""

import collections
import io
import math

import numpy as np
import pytest

from chaosde.errors import BlowupError, ConfigError, DegenerateLawError, MemoryBudgetError
from chaosde.wiener import sample_omega
from chaosde import density, wiener
from chaosde.hermite import GridDriver
from chaosde.sde import SdeCoefficients, solve_euler, solve_theta_all
from chaosde.malliavin import malliavin_matrix, solution_derivative
from chaosde.density import (
    SampleEnsemble,
    Scenario,
    dump_csv,
    kde,
    ks_two_sample,
    positivity_report,
    run_ensemble,
)
from oracles import (ensemble_csv_writer, euler_path, first_steps, gram_oracle, jumpy_preset,
                     kde_one_shot, theta_block, theta_path)

SMALL = dict(q=1, H=0.7, steps=32, n=64, L=4.0)


def terminal_states(scenario, M, base_seed):
    """X_t of seeds base_seed.. base_seed + M - 1: the Euler solve of an
    ensemble sample without its Malliavin matrix."""
    coeffs, x0, spec, driver = scenario.build()
    xi = spec.space.components(np.array([sample_omega(spec.space, s).xi
                                         for s in range(base_seed, base_seed + M)]))
    return solve_euler(coeffs, x0, (driver.times, driver.values(driver.projections(xi)))).X[:, -1]


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
    sc = Scenario(preset="additive", **SMALL)
    serial = run_ensemble(sc, M=6, base_seed=0, workers=1)
    par = run_ensemble(sc, M=6, base_seed=0, workers=2)
    assert np.array_equal(serial.x_samples, par.x_samples)
    assert np.array_equal(serial.det_samples, par.det_samples)


def test_additive_law_variance():
    # X_1 = x0 + b + sigma Z_1 with Var(Z_1) = 1: sample variance must
    # match sigma^2 within 3 sigma of its sampling error
    x = terminal_states(Scenario(preset="additive", **SMALL), M=2000, base_seed=0)[:, 0]
    var = np.var(x, ddof=1)
    target = 1.5**2
    se = target * math.sqrt(2.0 / (len(x) - 1))
    assert abs(var - target) <= 3 * se
    assert np.mean(x) == pytest.approx(0.5 + 0.25, abs=3 * 1.5 / math.sqrt(len(x)))


def test_overflowing_malliavin_derivative_is_a_blowup():
    # x0 at the top of the double range: seed 9 keeps a finite Euler state
    # and a finite Theta, but its DX at step 12 (the path truncated there)
    # overflows, silently, and leaves it out of ok; no sample keeps an inf
    # det
    sc = Scenario(preset="linear-scalar", x0=(1.797e308,), q=1, H=0.7,
                  steps=16, n=32, L=4.0)
    coeffs, x0, spec, driver = sc.build()
    xi = spec.space.components(sample_omega(spec.space, 9).xi)
    bundle = euler_path(coeffs, x0, (driver.times, driver.values(driver.projections(xi))))
    assert np.isfinite(theta_path(coeffs, bundle).theta).all()
    dx = solution_derivative(coeffs, theta_block(coeffs, bundle, 12),
                             first_steps(driver.deriv_vectors(driver.projections(xi[None])), 12),
                             spec.space)
    assert not np.isfinite(np.vdot(dx, dx))
    mm = malliavin_matrix(dx)
    assert not mm.ok[0] and np.isnan(mm.det[0])
    ens = run_ensemble(sc, M=10, base_seed=0)
    assert ens.excluded_seeds == list(range(10))
    assert ens.x_samples.shape == (0, 1)
    assert ens.det_samples.shape == ens.min_eigs.shape == (0,)


def capped_preset(level):
    """The `density.preset` lookup with one more name, "capped": unit
    additive noise and a drift that is infinite above level, so that a
    path fails at the step after its state first exceeds level."""
    lookup = density.preset

    def patched(name):
        if name != "capped":
            return lookup(name)
        return SdeCoefficients(
            d=1, m=1,
            b=lambda x: np.where(x > level, np.inf, 0.0),
            sigma=lambda x: np.ones(np.shape(x) + (1,)),
            db=lambda x: np.zeros(np.shape(x) + (1,)),
            dsigma=lambda x: np.zeros(np.shape(x) + (1, 1)),
            name="capped",
        ), np.zeros(1)

    return patched


def test_ensemble_excludes_exactly_the_failed_euler_path(monkeypatch):
    # the level lies between the two highest path maxima of the seeds, so
    # one path of the batched Euler solves fails; the ensemble excludes
    # that seed alone and keeps the other rows bit for bit.  The maxima are
    # over the states a step starts from: a path that crosses the level
    # only at its last state takes no step after it, and does not fail
    M = wiener.DRAW_BLOCK + 6
    sc = Scenario(preset="capped", **SMALL)
    monkeypatch.setattr(density, "preset", capped_preset(np.inf))
    free = run_ensemble(sc, M=M, base_seed=0)
    coeffs, x0, spec, driver = sc.build()
    xi = spec.space.components(np.array([sample_omega(spec.space, s).xi for s in range(M)]))
    peaks = np.max(driver.values(driver.projections(xi))[:, :-1], axis=(1, 2))
    top, second = np.sort(peaks)[[-1, -2]]
    monkeypatch.setattr(density, "preset", capped_preset(0.5 * (top + second)))
    capped = run_ensemble(sc, M=M, base_seed=0)
    worst = int(np.argmax(peaks))
    assert capped.excluded_seeds == [worst]
    assert capped.seeds == [s for s in range(M) if s != worst]
    keep = np.array(capped.seeds)
    assert np.array_equal(capped.x_samples, free.x_samples[keep])
    assert np.array_equal(capped.det_samples, free.det_samples[keep])
    assert np.array_equal(capped.min_eigs, free.min_eigs[keep])


def test_chunk_buffers_give_the_fresh_samples(monkeypatch):
    # every sample of a chunk takes its Theta, DX and Gamma from the
    # batched calls of its block; each sample equals the one computed alone
    # with fresh arrays, as a block of one with the per-draw Malliavin
    # matrix, also right after a sample whose Theta overflowed; the chunk
    # excludes exactly the seeds whose path(0), DX or det the per-draw
    # oracle rejects, and no overflow is reported as a warning
    monkeypatch.setattr(density, "preset", jumpy_preset)
    sc = Scenario(preset="jumpy", **SMALL)
    seeds = list(range(wiener.DRAW_BLOCK + 6))
    got = density._parallel_chunk((sc, seeds))
    coeffs, x0, spec, driver = sc.build()
    blown = []
    for seed, x, det, min_eig in got:
        xi = spec.space.components(sample_omega(spec.space, seed).xi[None])
        bundle = euler_path(coeffs, x0, (driver.times, driver.values(driver.projections(xi[0]))))
        try:
            batch = theta_block(coeffs, bundle)
            batch.path(0)
            dx = solution_derivative(coeffs, batch, driver.deriv_vectors(driver.projections(xi)),
                                     spec.space)
            want = gram_oracle(dx[0])
        except BlowupError:
            want = None
        if want is None:
            assert x is None and det is None and min_eig is None
            blown.append(seed)
            continue
        assert np.array_equal(x, bundle.X[-1])
        assert det == want[1] and min_eig == want[2]
    assert [s for s, *_ in got] == seeds
    assert 0 < len(blown) < len(seeds) // 2
    assert any(s + 1 in seeds and s + 1 not in blown for s in blown)  # kept right after a blowup


def test_chunk_calls_each_stage_once_per_block(monkeypatch):
    # Euler takes the block of DRAW_BLOCK draws, and Theta, DF, DX and the
    # Malliavin matrix each sub-block of at most SUB_BLOCK of its draws
    calls = collections.Counter()

    def counted(name, fn):
        def run(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return run

    for name in ("solve_euler", "solve_theta_all", "solution_derivative", "malliavin_matrix"):
        monkeypatch.setattr(density, name, counted(name, getattr(density, name)))
    monkeypatch.setattr(GridDriver, "deriv_vectors",
                        counted("deriv_vectors", GridDriver.deriv_vectors))
    rows = density._parallel_chunk((Scenario(preset="elliptic-2d", **SMALL),
                                    list(range(2 * wiener.DRAW_BLOCK + 3))))
    assert len(rows) == 2 * wiener.DRAW_BLOCK + 3
    subs = 2 * -(-wiener.DRAW_BLOCK // density.SUB_BLOCK) + 1
    assert subs > 3
    assert calls == dict(solve_euler=3, **dict.fromkeys(
        ["solve_theta_all", "deriv_vectors", "solution_derivative", "malliavin_matrix"], subs))


def test_theta_non_finite_at_the_output_time_alone_is_excluded(monkeypatch):
    # sigma is infinite above a level that one path crosses only at its
    # last state X_N: its Euler steps and its DX, which does not read
    # sigma(X_N), stay finite, but its Theta does not (path(k) names step
    # N), so the seed is excluded, as are the paths that cross earlier and
    # fail in Euler, and no other
    lookup = density.preset

    def patched(name, level=None):
        if name != "edge":
            return lookup(name)
        return SdeCoefficients(
            d=1, m=1, b=lambda x: np.zeros(np.shape(x)),
            sigma=lambda x: np.where(x > level, np.inf, 1.0)[..., None],
            db=lambda x: np.zeros(np.shape(x) + (1,)),
            dsigma=lambda x: np.zeros(np.shape(x) + (1, 1)), name="edge"), np.zeros(1)

    M = 40
    sc = Scenario(preset="edge", **SMALL)
    monkeypatch.setattr(density, "preset", lambda name: patched(name, np.inf))
    coeffs, x0, spec, driver = sc.build()
    xi = spec.space.components(np.array([sample_omega(spec.space, s).xi for s in range(M)]))
    X = driver.values(driver.projections(xi))[..., 0]  # the unit-noise paths, x0 = 0
    earlier, last = np.max(X[:, :-1], axis=1), X[:, -1]
    edge = int(np.argmax(last - earlier))
    level = 0.5 * (earlier[edge] + last[edge])
    assert earlier[edge] < level < last[edge]
    monkeypatch.setattr(density, "preset", lambda name: patched(name, level))
    coeffs = sc.build()[0]
    p = driver.projections(xi)
    batch = solve_theta_all(coeffs, solve_euler(coeffs, x0, (driver.times, driver.values(p))))
    assert batch.failed[edge] == 0 and batch.theta_failed[edge] == sc.steps
    with pytest.raises(BlowupError, match=f"variational state at step {sc.steps}"):
        batch.path(edge)
    dx = solution_derivative(coeffs, batch, driver.deriv_vectors(p), spec.space)
    assert malliavin_matrix(dx).ok[edge]
    ens = run_ensemble(sc, M=M, base_seed=0)
    assert ens.excluded_seeds == [s for s in range(M) if np.max(X[s]) > level]
    assert edge in ens.excluded_seeds and len(ens.excluded_seeds) < M


def test_ensemble_rows_do_not_depend_on_the_block_size(monkeypatch):
    # blocks of 1, 7 and 64 draws give the same ensemble.csv bytes and the
    # same excluded seeds, with Theta blowups inside blocks of 7 and 64
    monkeypatch.setattr(density, "preset", jumpy_preset)
    sc = Scenario(preset="jumpy", **SMALL)
    dumps, excluded = [], []
    for size in (1, 7, 64):
        monkeypatch.setattr(wiener, "DRAW_BLOCK", size)
        ens = run_ensemble(sc, M=130, base_seed=0)
        fh = io.BytesIO()
        dump_csv(ens, fh)
        dumps.append(fh.getvalue())
        excluded.append(ens.excluded_seeds)
    assert dumps[0] == dumps[1] == dumps[2]
    assert excluded[0] == excluded[1] == excluded[2]
    inside = [s for s in excluded[0] if s % 7 not in (0, 6) and s % 64 not in (0, 63)]
    assert inside and len(excluded[0]) < 65


def test_ensemble_rows_do_not_depend_on_the_sub_block_size(monkeypatch):
    # under one Euler block of 130 draws, Theta, DF, DX and Gamma in
    # sub-blocks of 1, 7 and 64 draws give the same ensemble.csv bytes and
    # the same excluded seeds, with Theta blowups inside sub-blocks of 7
    # and 64
    monkeypatch.setattr(density, "preset", jumpy_preset)
    monkeypatch.setattr(wiener, "DRAW_BLOCK", 130)
    sc = Scenario(preset="jumpy", **SMALL)
    dumps, excluded = [], []
    for size in (1, 7, 64):
        monkeypatch.setattr(density, "SUB_BLOCK", size)
        ens = run_ensemble(sc, M=130, base_seed=0)
        fh = io.BytesIO()
        dump_csv(ens, fh)
        dumps.append(fh.getvalue())
        excluded.append(ens.excluded_seeds)
    assert dumps[0] == dumps[1] == dumps[2]
    assert excluded[0] == excluded[1] == excluded[2]
    inside = [s for s in excluded[0] if s % 7 not in (0, 6) and s % 64 not in (0, 63)]
    assert inside and len(excluded[0]) < 65


def test_kde_rows_in_chunks_match_the_one_shot_sum():
    # the KDE summed in chunks of KDE_ROWS grid rows equals the one-shot
    # (grid, samples) matrix bit for bit, over a sample count that is no
    # multiple of the chunk
    x = np.random.default_rng(4).standard_normal(1001) * 0.3 + 2.0
    assert x.shape[0] % density.KDE_ROWS
    est, want = kde(x), kde_one_shot(x)
    assert est.bandwidth == want.bandwidth
    assert np.array_equal(est.grid, want.grid) and np.array_equal(est.values, want.values)


def test_kde_standard_normal():
    rng = np.random.default_rng(0)
    est = kde(rng.standard_normal(40_000))
    # smoothing bias at the mode is O(bandwidth^2) and dominates the noise
    assert np.interp(0.0, est.grid, est.values) == pytest.approx(1.0 / math.sqrt(2 * math.pi),
                                                                abs=0.02)
    assert est.mass() == pytest.approx(1.0, abs=0.02)


def test_kde_rejects_constant_and_short_samples():
    with pytest.raises(DegenerateLawError):
        kde(np.full(500, 2.0))
    with pytest.raises(ConfigError):
        kde(np.zeros(10))


def test_kde_matches_exact_gaussian_law():
    # additive preset at t=1: X_1 is Gaussian with mean x0 + b and sd sigma
    est = kde(terminal_states(Scenario(preset="additive", **SMALL), M=4000, base_seed=100)[:, 0])
    mu, sd = 0.75, 1.5
    exact = np.exp(-0.5 * ((est.grid - mu) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
    assert np.max(np.abs(est.values - exact)) <= 0.02


def _order_statistic_samples():
    """Samples of sizes 100-1000: continuous, with ties, constant, and
    spread over many binades with both signs."""
    rng = np.random.default_rng(2024)
    for size in rng.integers(100, 1001, size=60):
        yield rng.standard_normal(size)
        yield rng.integers(-3, 4, size=size).astype(float)  # ties
        yield np.full(size, rng.standard_normal())  # constant
        yield rng.standard_normal(size) * np.exp(rng.uniform(-40, 40, size))
    yield np.array([1.0] * 99 + [np.nan])


def test_percentile_and_median_match_numpy():
    # np.percentile and np.median are the oracles, bit for bit
    for x in _order_statistic_samples():
        ordered = np.sort(x)
        for q in (0.25, 0.5, 0.75):
            want = np.percentile(x, 100 * q)
            assert np.array_equal(density._percentile(ordered, q), want, equal_nan=True)
        assert np.array_equal(density._median(ordered), np.median(x), equal_nan=True)


def test_kde_and_positivity_statistics_match_numpy():
    # the IQR behind the bandwidth and the median determinant, through the
    # public functions, against the numpy statistics they replace
    rng = np.random.default_rng(5)
    for size in (100, 101, 512, 999):
        x = rng.standard_normal(size)
        iqr = float(np.subtract(*np.percentile(x, [75, 25])))
        std = float(np.std(x, ddof=1))
        assert kde(x).bandwidth == 0.9 * min(std, iqr / 1.34) * size ** (-0.2)
        dets = rng.exponential(size=size)
        ens = SampleEnsemble(t=1.0, seeds=list(range(size)), x_samples=x[:, None],
                             det_samples=dets, min_eigs=dets)
        assert positivity_report(ens)["median_det"] == float(np.median(dets))


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


def test_positivity_default_threshold():
    # 1e-12 * max((d * min_eig)^d, 1) per sample at d = 3: 3.375e-12,
    # 2.16e-10 and 2.7e-11, and 1e-12 where min_eig is negative or small;
    # the report names the smallest
    ens = SampleEnsemble(t=1.0, seeds=[0, 1, 2], x_samples=np.zeros((3, 3)),
                         det_samples=np.array([3.4e-12, 2e-10, 3e-11]),
                         min_eigs=np.array([0.5, 2.0, 1.0]))
    rep = positivity_report(ens)
    assert rep["threshold"] == 1e-12 * 3.375
    assert rep["fraction"] == 2 / 3
    for min_eig in (-1.0, 0.1):
        rep = positivity_report(SampleEnsemble(
            t=1.0, seeds=[0, 1], x_samples=np.zeros((2, 3)), det_samples=np.array([2e-12, 5e-13]),
            min_eigs=np.array([min_eig, 2.0])))
        assert rep["threshold"] == 1e-12
        assert rep["fraction"] == 0.5


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
    with open(path, "wb") as fh:
        dump_csv(ens, fh)
    lines = path.read_text().splitlines()
    assert lines[0] == "seed,t,x_1,x_2,det_gamma,min_eig,excluded_flag"
    assert len(lines) == 5
    row = lines[1].split(",")
    assert int(row[0]) == 0 and row[-1] == "0"
    # 17-significant-digit round trip
    assert float(row[2]) == ens.x_samples[0, 0]


@pytest.mark.parametrize("d", [1, 2])
def test_dump_csv_matches_csv_writer(d):
    # NaN, infinities, -0.0, subnormals and ordinary values in every column,
    # seeds up to 2^64 - 1, and excluded seeds after the kept ones
    rng = np.random.default_rng(d)
    specials = [np.nan, -np.inf, np.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1.5, 0.1]
    values = np.concatenate([np.resize(specials, (len(specials), d + 2)),
                             rng.standard_normal((30, d + 2)) * 10.0 ** rng.integers(-9, 20, (30, 1))])
    kept = [0, 7, 123_456_789] + list(range(2**64 - values.shape[0] + 3, 2**64))
    for t, excluded in ((1.0, []), (0.3, [5, 2**63, 2**64 - 1]), (1e-7, [1])):
        for rows in (slice(None), slice(0)):
            ens = SampleEnsemble(t=t, seeds=kept[rows], x_samples=values[rows, :d],
                                 det_samples=values[rows, d], min_eigs=values[rows, d + 1],
                                 excluded_seeds=excluded)
            got, want = io.BytesIO(), io.StringIO()
            dump_csv(ens, got)
            ensemble_csv_writer(ens, want)
            assert got.getvalue().decode() == want.getvalue()
