"""Command-line interface: config handling, exit codes, output artifacts."""

import io
import json
import os
import tracemalloc

import numpy as np
import pytest

from chaosde import chaos, errors
from chaosde.cli import (CHECK_BLOCK, _build_field, _check_records, _check_values, _scenario,
                         load_config, main)
from chaosde.density import kde, run_ensemble
from chaosde.errors import BlowupError
from chaosde.hermite import simulate_paths
from chaosde.wiener import GaussianDraw, make_hilbert
from oracles import ensemble_csv_writer, kde_csv_loop, solution_csv_loop

FAST_PROCESS = {"q": 1, "H": 0.7, "n": 64, "L": 4.0}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(tmp_path, command, payload, extra=()):
    cfg = write_config(tmp_path, payload)
    out = str(tmp_path / "out")
    code = main([command, "--config", cfg, "--out", out] + list(extra))
    return code, tmp_path / "out"


def test_simulate_writes_artifacts(tmp_path):
    payload = {"process": FAST_PROCESS, "run": {"M": 5, "out_times": [0.5, 1.0]}}
    code, out = run_cli(tmp_path, "simulate", payload)
    assert code == 0
    driver = (out / "driver.csv").read_text()
    lines = driver.splitlines()
    assert lines[0].startswith("# chaosde ") and "config=" in lines[0]
    assert lines[1] == "seed,t,F_1"
    assert len(lines) == 2 + 5 * 2
    kernels = (out / "kernels.txt").read_text()
    assert kernels.splitlines()[0].startswith("# chaosde ")


def test_simulate_driver_csv_matches_value_loop(tmp_path):
    # driver.csv written by rows of words, against one '%.17g' per value
    payload = {"process": dict(FAST_PROCESS, m=2), "run": {"M": 1000, "seed": 40,
                                                           "out_times": [0.25, 0.5, 1.0]}}
    code, out = run_cli(tmp_path, "simulate", payload)
    assert code == 0
    cfg = load_config(write_config(tmp_path, payload))
    spec, field = _build_field(cfg)
    values = simulate_paths(field, range(40, 1040))
    want = ["seed,t,F_1,F_2"] + [
        f"{40 + k},{t:.17g}," + ",".join(f"{v:.17g}" for v in values[k, ti])
        for k in range(1000) for ti, t in enumerate(spec.out_times)]
    assert (out / "driver.csv").read_text().splitlines()[1:] == want


def test_simulate_deterministic(tmp_path):
    payload = {"process": FAST_PROCESS, "run": {"M": 3, "out_times": [1.0]}}
    _, out1 = run_cli(tmp_path, "simulate", payload)
    first = (out1 / "driver.csv").read_bytes()
    _, out2 = run_cli(tmp_path, "simulate", payload)
    assert (out2 / "driver.csv").read_bytes() == first


def test_seed_override_changes_output(tmp_path):
    payload = {"process": FAST_PROCESS, "run": {"M": 3, "out_times": [1.0]}}
    _, out = run_cli(tmp_path, "simulate", payload)
    base = (out / "driver.csv").read_text()
    code, out = run_cli(tmp_path, "simulate", payload, extra=["--seed", "99"])
    assert code == 0
    assert (out / "driver.csv").read_text() != base


def test_check_passes(tmp_path, capsys):
    payload = {"process": FAST_PROCESS, "run": {"M": 4000, "out_times": [0.5, 1.0]}}
    code, out = run_cli(tmp_path, "check", payload)
    assert code == 0
    stdout = capsys.readouterr().out
    for name in ("isometry_order2", "orthogonality_12", "duality",
                 "hypercontractivity_p4", "taylor_shift_identity",
                 "product_formula", "kernel_covariance"):
        assert f"PASS {name}" in stdout
    report = json.loads("\n".join(
        (out / "check_report.json").read_text().splitlines()[1:]))
    assert all(r["pass"] for r in report)


def test_check_holds_only_its_draw_array(tmp_path):
    # check keeps its Monte Carlo draws as one (M, 16) array, and its
    # batched chaos values work through it a block of draws at a time
    M = 20_000
    cfg = load_config(write_config(tmp_path, {"run": {"M": M}}))
    tracemalloc.start()
    try:
        _check_records(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * M * 16 * 8


def test_check_values_match_per_draw_oracle():
    # the check's batched chaos values against one multiple_integral or
    # malliavin_derivative call per draw, across block boundaries
    space = make_hilbert(1, 0.0, 1.0, 16)
    rng = np.random.default_rng(4)
    M = 2 * CHECK_BLOCK + 37
    xis = rng.standard_normal((M, 16))
    f = chaos.symmetrize(space, rng.standard_normal((16, 16)))
    g1 = chaos.SymTensor(space, 1, rng.standard_normal(16))
    u = chaos.SymTensor(space, 1, rng.standard_normal(16))
    draws = [GaussianDraw(space, xi, k) for k, xi in enumerate(xis)]
    want = np.array([
        [chaos.multiple_integral(g1, w) for w in draws],
        [chaos.multiple_integral(f, w) for w in draws],
        [chaos.multiple_integral(u, w) for w in draws],
        [chaos.malliavin_derivative(f, w, 1) @ u.coeffs for w in draws],
    ])
    got = _check_values(f, g1, u, xis)
    assert got.shape == want.shape == (4, M)
    assert np.all(np.abs(got - want) <= 1e-13 * np.max(np.abs(want), axis=1, keepdims=True))


def test_invalid_hurst_exits_2(tmp_path, capsys):
    payload = {"process": dict(FAST_PROCESS, H=0.4)}
    code, _ = run_cli(tmp_path, "check", payload)
    assert code == 2
    assert "Hurst index must lie in (1/2, 1)" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    payload = {"process": dict(FAST_PROCESS, hurst=0.7)}
    code, _ = run_cli(tmp_path, "check", payload)
    assert code == 2
    assert "process.hurst" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_out_of_range_seed_exits_2(tmp_path, capsys, seed):
    payload = {"process": FAST_PROCESS, "run": {"M": 2}}
    code, _ = run_cli(tmp_path, "solve", payload, extra=["--seed", seed])
    assert code == 2
    assert "run.seed" in capsys.readouterr().err


@pytest.mark.parametrize("run, key", [({"M": 2, "seed": 1.5}, "run.seed"),
                                      ({"M": "many"}, "run.M")])
def test_non_integer_run_values_exit_2(tmp_path, capsys, run, key):
    code, _ = run_cli(tmp_path, "solve", {"process": FAST_PROCESS, "run": run})
    assert code == 2
    assert key in capsys.readouterr().err


def bad(**sections):
    return dict({"process": FAST_PROCESS, "run": {"M": 2}}, **sections)


Q2 = dict(FAST_PROCESS, q=2)


@pytest.mark.parametrize("command, payload, extra, key", [
    ("simulate", bad(run={"out_times": []}), [], "run.out_times"),
    ("simulate", bad(run={"out_times": "abc"}), [], "run.out_times"),
    ("simulate", bad(process=dict(FAST_PROCESS, n="many")), [], "process.n"),
    ("simulate", bad(process=dict(FAST_PROCESS, q="two")), [], "process.q"),
    ("simulate", bad(process=dict(FAST_PROCESS, H="0.7")), [], "process.H"),
    ("simulate", bad(process=dict(FAST_PROCESS, L="8")), [], "process.L"),
    ("simulate", bad(process=dict(FAST_PROCESS, q=2, s_nodes=0)), [], "process.s_nodes"),
    ("simulate", bad(process=dict(FAST_PROCESS, m=0)), [], "process.m"),
    ("simulate", bad(run={"M": 0}), [], "run.M"),
    ("simulate", bad(run={"M": -3}), [], "run.M"),
    ("solve", bad(sde={"steps": -4}), [], "sde.steps"),
    ("solve", bad(sde={"x0": ["a"]}), [], "sde.x0"),
    ("solve", bad(sde={"x0": [1.0, 2.0]}), [], "sde.x0"),
    ("solve", bad(sde={"T": 0.0}), [], "sde.T"),
    ("malliavin", bad(run={"eps": [0.1, 0.0]}), [], "run.eps"),
    ("check", bad(process=3), [], "process"),
    ("check", bad(run={"M": 1}), [], "run.M"),
    ("density", bad(), ["--workers", "-2"], "--workers"),
    # sizes over the dense budget, rejected before the array exists
    ("selfsim", bad(process=Q2, run={"M": 2, "epsilon_window": 1e-7}), [], "run.epsilon_window"),
    ("simulate", bad(process=dict(Q2, s_nodes=10**9)), [], "process.s_nodes"),
    ("check", bad(process=dict(Q2, s_nodes=10**9)), [], "process.s_nodes"),
    ("simulate", bad(process=dict(Q2, n=16, s_nodes=20_000)), [], "process.s_nodes"),
    ("solve", bad(sde={"steps": 40_000}), [], "sde.steps"),
    ("density", bad(sde={"steps": 40_000}), [], "sde.steps"),
    ("malliavin", bad(sde={"steps": 10**12}), [], "sde.steps"),
    # the solver-grid driver's (steps, n+1) factors; at q = 2 its spec has
    # one quadrature node per step, so no (s_nodes, n+1) check fires first
    ("solve", bad(process=dict(FAST_PROCESS, n=3_000_000)), [], "process.n"),
    ("malliavin", bad(process=dict(FAST_PROCESS, n=3_000_000)), [], "process.n"),
    ("density", bad(process=dict(FAST_PROCESS, n=3_000_000)), [], "process.n"),
    ("solve", bad(process=dict(Q2, n=3_000_000)), [], "process.n"),
    ("malliavin", bad(process=dict(Q2, n=3_000_000)), [], "process.n"),
    ("density", bad(process=dict(Q2, n=3_000_000)), [], "process.n"),
    # the q = 1 kernel factors, two rows of n+1 cell edges
    ("simulate", bad(process=dict(FAST_PROCESS, n=200_000_000)), [], "process.n"),
    ("check", bad(process=dict(FAST_PROCESS, n=200_000_000)), [], "process.n"),
    # one draw of m*n coordinates
    ("simulate", bad(process={"m": 2_000_000}), [], "process.m"),
    # every M-sized array, checked before the first draw
    ("simulate", bad(run={"M": 10**9}), [], "run.M"),
    ("density", bad(run={"M": 10**9}), [], "run.M"),
    ("check", bad(run={"M": 10**9}), [], "run.M"),
    ("selfsim", bad(run={"M": 10**9}), [], "run.M"),
    # more workers than CPUs, rejected before any pool forks
    ("density", bad(), ["--workers", str((os.cpu_count() or 1) + 1)], "--workers"),
])
def test_invalid_config_exits_2(tmp_path, capsys, command, payload, extra, key):
    code, out = run_cli(tmp_path, command, payload, extra=extra)
    assert code == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_exits_2(tmp_path):
    code = main(["check", "--config", str(tmp_path / "nope.json")])
    assert code == 2


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["check", "--config", str(path)])
    assert code == 2


def test_solve_and_malliavin(tmp_path, capsys):
    payload = {
        "process": FAST_PROCESS,
        "sde": {"preset": "linear-scalar", "steps": 32},
        "run": {"M": 2, "eps": [1e-1, 1e-2, 1e-3]},
    }
    code, out = run_cli(tmp_path, "solve", payload)
    assert code == 0
    assert (out / "solution.csv").exists()
    code, out = run_cli(tmp_path, "malliavin", payload)
    assert code == 0
    text = (out / "malliavin_report.txt").read_text()
    assert "det_gamma" in text and "observed_order" in text


def body(path) -> str:
    """An output file's text below its header line."""
    return path.read_text().split("\n", 1)[1]


def solution_oracle(tmp_path, payload) -> tuple:
    """The solution.csv body of the per-value loop, and the BlowupError that
    stopped it (None if every draw stayed finite)."""
    cfg = load_config(write_config(tmp_path, payload, "oracle.json"))
    _, (coeffs, x0, spec, driver) = _scenario(cfg)
    M, seed = cfg["run"]["M"], cfg["run"]["seed"]
    fh = io.StringIO()
    try:
        solution_csv_loop(fh, coeffs, x0, spec, driver, range(seed, seed + M))
    except BlowupError as exc:
        return fh.getvalue(), exc
    return fh.getvalue(), None


@pytest.mark.parametrize("q, steps, M, seed", [
    (1, 128, 1000, 0),  # more draws than one block, every 8th step
    (2, 40, 70, 3),  # every 2nd step
    (1, 20, 2, 2**64 - 4),  # every step, 20-digit seeds
])
def test_solve_csv_matches_value_loop(tmp_path, q, steps, M, seed):
    payload = {"process": dict(FAST_PROCESS, q=q, n=32),
               "sde": {"preset": "elliptic-2d", "steps": steps}, "run": {"M": M, "seed": seed}}
    code, out = run_cli(tmp_path, "solve", payload)
    assert code == 0
    want, failure = solution_oracle(tmp_path, payload)
    assert failure is None
    assert body(out / "solution.csv") == want
    assert len(want.splitlines()) == 1 + M * (steps // max(1, steps // 16) + 1)


def test_solve_writes_the_draws_before_a_blowup(tmp_path, capsys):
    # seeds 59-76 stay finite and seed 77 overflows (draw 18 of the first
    # block): their rows are written, then the command stops at seed 77
    payload = {"process": dict(FAST_PROCESS, n=32),
               "sde": {"preset": "linear-scalar", "x0": [9e307], "steps": 16},
               "run": {"M": 100, "seed": 59}}
    code, out = run_cli(tmp_path, "solve", payload)
    assert code == 3
    want, failure = solution_oracle(tmp_path, payload)
    err = capsys.readouterr().err
    assert err == f"numeric failure: {failure}\n"
    assert "Warning" not in err
    assert body(out / "solution.csv") == want
    seeds = {int(line.split(",")[0]) for line in want.splitlines()[1:]}
    assert seeds == set(range(59, 77))


def test_density_csvs_match_value_loops(tmp_path):
    payload = {"process": dict(FAST_PROCESS, q=2, n=32),
               "sde": {"preset": "elliptic-2d", "steps": 24}, "run": {"M": 130, "seed": 7}}
    code, out = run_cli(tmp_path, "density", payload)
    assert code == 0
    cfg = load_config(write_config(tmp_path, payload, "oracle.json"))
    ensemble = run_ensemble(_scenario(cfg)[0], 130, base_seed=7)
    want = io.StringIO()
    ensemble_csv_writer(ensemble, want)
    assert body(out / "ensemble.csv") == want.getvalue()
    want = io.StringIO()
    kde_csv_loop(kde(ensemble.x_samples[:, 0]), want)
    assert body(out / "kde.csv") == want.getvalue()


def test_malliavin_on_a_vanishing_horizon_exits_3(tmp_path, capsys):
    # every beta underflows, so the driver's kernel norm is 0: a named
    # numeric failure, with no 0/0 warning on the way
    payload = {"process": dict(FAST_PROCESS, n=32),
               "sde": {"preset": "elliptic-2d", "steps": 16, "T": 1e-300}, "run": {"M": 2}}
    code, out = run_cli(tmp_path, "malliavin", payload)
    assert code == 3
    err = capsys.readouterr().err
    assert "degenerate kernel" in err
    assert "Warning" not in err
    assert not out.exists()


def test_density_command(tmp_path):
    payload = {
        "process": FAST_PROCESS,
        "sde": {"preset": "elliptic-2d", "steps": 24},
        "run": {"M": 110},
    }
    code, out = run_cli(tmp_path, "density", payload)
    assert code == 0
    report = json.loads("\n".join(
        (out / "positivity.json").read_text().splitlines()[1:]))
    assert report["fraction"] == 1.0
    assert not report["degenerate"]
    assert (out / "ensemble.csv").exists()
    assert (out / "kde.csv").exists()


def test_density_with_every_seed_excluded(tmp_path):
    # every path overflows: the degenerate report, not a traceback
    payload = {
        "process": {"q": 1, "n": 32, "L": 4.0},
        "sde": {"preset": "linear-scalar", "x0": [1.797e308], "steps": 16},
        "run": {"M": 2},
    }
    code, out = run_cli(tmp_path, "density", payload)
    assert code == 0
    report = json.loads("\n".join(
        (out / "positivity.json").read_text().splitlines()[1:]))
    assert report["excluded"] == 2
    assert report["degenerate"]

    def reject(token):
        raise ValueError(f"{token} is not valid JSON")

    strict = json.loads("\n".join((out / "positivity.json").read_text().splitlines()[1:]),
                        parse_constant=reject)
    assert [strict[k] for k in ("fraction", "min_det", "median_det", "threshold")] == [None] * 4
    lines = (out / "ensemble.csv").read_text().splitlines()[1:]
    assert lines == ["seed,t,x_1,det_gamma,min_eig,excluded_flag", "0,1,,,,1", "1,1,,,,1"]
    assert not (out / "kde.csv").exists()


def test_simulate_over_dense_budget_exits_2(tmp_path, capsys):
    # the order-3 dump's size guard counts n^3 entries per output time: at
    # 600 cells one time is over budget, at 512 cells one time fits but the
    # default three do not; a size error in the configuration, rejected
    # before any output is written
    for n in (600, 512):
        payload = {"process": {"q": 3, "n": n, "L": 4.0}, "run": {"M": 2}}
        code, out = run_cli(tmp_path, "simulate", payload)
        assert code == 2
        assert f"process.n={n}" in capsys.readouterr().err
        assert not out.exists()


def test_simulate_over_tail_product_budget_exits_2(tmp_path, capsys, monkeypatch):
    # the order-3 dump holds one output time's (s_nodes, n (n+1) / 2) tail
    # products: under a budget of 100000 entries, n = 40 at one output time
    # passes the dense guard (64000 entries) and s_nodes = 128 puts the tail
    # products over it (104960), rejected before any output is written
    monkeypatch.setattr(errors, "MEMORY_BUDGET_ENTRIES", 100_000)
    payload = {"process": {"q": 3, "n": 40, "L": 1.0, "s_nodes": 128},
               "run": {"M": 2, "out_times": [1.0]}}
    code, out = run_cli(tmp_path, "simulate", payload)
    assert code == 2
    assert "process.s_nodes=128" in capsys.readouterr().err
    assert not out.exists()
    payload["process"]["s_nodes"] = 120  # 98400 entries
    code, out = run_cli(tmp_path, "simulate", payload)
    assert code == 0


def _strict_json(text: str):
    """json.loads with NaN and the infinities rejected, as JSON has none."""
    def reject(token):
        raise ValueError(f"{token} is not valid JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command, payload, name", [
    ("check", {"process": FAST_PROCESS, "run": {"M": 200, "out_times": [0.5, 1.0]}},
     "check_report.json"),
    ("check", {"process": {"q": 3, "n": 12, "L": 1.0, "s_nodes": 8}, "run": {"M": 200}},
     "check_report.json"),
    ("density", {"process": FAST_PROCESS, "sde": {"steps": 16}, "run": {"M": 100}},
     "positivity.json"),
    ("density", {"process": {"q": 1, "n": 32, "L": 4.0},
                 "sde": {"preset": "linear-scalar", "x0": [1.797e308], "steps": 16},
                 "run": {"M": 2}}, "positivity.json"),
    ("selfsim", {"process": dict(FAST_PROCESS, n=36), "run": {"M": 20}}, "selfsim_report.json"),
    ("selfsim", {"process": dict(Q2, n=36), "run": {"M": 20}}, "selfsim_report.json"),
])
def test_json_outputs_parse_strictly(tmp_path, capsys, command, payload, name):
    # every JSON file, and the JSON that density and selfsim print, holds
    # no NaN or Infinity, whether the command passes or not
    code, out = run_cli(tmp_path, command, payload)
    assert code in (0, 1)
    header, *body = (out / name).read_text().splitlines()
    assert header.startswith("# chaosde ")
    _strict_json("\n".join(body))
    if command != "check":
        _strict_json(capsys.readouterr().out)


def test_selfsim_command(tmp_path):
    payload = {
        "process": FAST_PROCESS,
        "run": {"M": 60, "t": 1.0, "epsilon_window": 0.25},
    }
    code, out = run_cli(tmp_path, "selfsim", payload)
    assert code == 0
    report = json.loads("\n".join(
        (out / "selfsim_report.json").read_text().splitlines()[1:]))
    # q = 1 is deterministic: the relative gap decides, not the KS distance
    assert report["deterministic_gap"] <= 1e-3


@pytest.mark.parametrize("q", [1, 2])
def test_selfsim_needs_a_whole_cell_in_the_window(tmp_path, capsys, q):
    # at n = 32 (L = 8) a cell is 0.28 wide, wider than the 0.25 window: no
    # data on either side, which would pass at q = 2 and divide 0 by 0 at
    # q = 1; at n = 36 a cell is 0.25 wide and fits
    payload = {"process": {"q": q, "n": 32}, "run": {"M": 20}}
    code, out = run_cli(tmp_path, "selfsim", payload)
    assert code == 2
    err = capsys.readouterr().err
    assert "process.n=32" in err and "run.epsilon_window=0.25" in err
    assert not out.exists()
    code, out = run_cli(tmp_path, "selfsim", {"process": {"q": q, "n": 36}, "run": {"M": 20}})
    assert code == 0
    assert (out / "selfsim_report.json").exists()


def test_selfsim_window_is_scale_free(tmp_path, capsys):
    # cells of width 2.5e-301 on the user's grid, wider than the 1e-301
    # window: the window test's rounding slack scales with the cells, so no
    # cell fits and the message names the user's grid and window, not the
    # rescaled right-hand ones
    payload = {"process": {"L": 1e-300, "n": 8},
               "run": {"M": 20, "t": 1e-300, "epsilon_window": 1e-301}}
    code, out = run_cli(tmp_path, "selfsim", payload)
    assert code == 2
    err = capsys.readouterr().err
    assert "process.n=8" in err and "run.epsilon_window=1e-301" in err
    assert "(width 2.5e-301)" in err and "window (9e-301, 1e-300]" in err
    assert not out.exists()


@pytest.mark.parametrize("command, payload, t", [
    # t^{2H} overflows in the calibration target
    ("check", {"run": {"out_times": [1e300]}}, "1e+300"),
    ("simulate", {"run": {"out_times": [1e300]}}, "1e+300"),
    # the q = 1 antiderivative over cells of width 6e298 overflows to NaN
    ("simulate", {"process": {"L": 1e300, "n": 16}}, "0.25"),
    # the solver-grid driver's targets, at its first grid time
    ("solve", {"sde": {"T": 1e300}}, "7.8125e+297"),
    # delta^{-3/2} of cells 1.25e-301 wide overflows at q = 3
    ("simulate", {"process": {"L": 1e-300, "q": 3, "n": 16}, "run": {"out_times": [1e-300]}},
     "1e-300"),
])
def test_overflowing_kernel_exits_3(tmp_path, capsys, command, payload, t):
    # a named numeric failure before any output, with no traceback, no
    # NaN written and no warning on the way
    code, out = run_cli(tmp_path, command, payload)
    assert code == 3
    err = capsys.readouterr().err
    assert err == f"numeric failure: kernel at t={t} is not finite: its factors or norm overflow\n"
    assert not out.exists()


def test_files_do_not_depend_on_workers_or_out(tmp_path, monkeypatch):
    # header lines included: the config hash covers the process, sde and run
    # settings, not the worker count or the output directory
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = write_config(tmp_path, {"process": dict(FAST_PROCESS, n=32),
                                  "sde": {"preset": "elliptic-2d", "steps": 16},
                                  "run": {"M": 100}})
    outs = [tmp_path / "serial", tmp_path / "parallel"]
    for out, workers in zip(outs, ("1", "2")):
        assert main(["density", "--config", cfg, "--out", str(out), "--workers", workers]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == ["ensemble.csv", "kde.csv", "positivity.json"]
    assert sorted(p.name for p in outs[1].iterdir()) == names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_density_on_a_huge_state_warns_nothing(tmp_path):
    # cosh overflows in the drift derivative (0.1 / inf = 0 is right there)
    # and the KDE's mean overflows (the non-finite spread makes the law
    # degenerate); this test runs with warnings as errors
    payload = {"process": {"n": 32, "L": 4.0},
               "sde": {"preset": "elliptic-2d", "x0": [1e308, -1e308], "steps": 16},
               "run": {"M": 100}}
    code, out = run_cli(tmp_path, "density", payload)
    assert code == 0
    report = _strict_json("\n".join((out / "positivity.json").read_text().splitlines()[1:]))
    assert report["degenerate"]
