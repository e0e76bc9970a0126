"""Command-line interface: config handling, exit codes, output artifacts."""

import contextlib
import io
import json
import os
import pathlib
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chaosde import chaos, cli, density, errors, hermite, wiener
from chaosde.cli import (CHECK_BLOCK, COMMANDS, CONFIG_KEYS, _build_field, _check_records,
                         _check_values, _scenario, load_config, main)
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
    # (this window of 1e-7 holds no whole cell of the grid: it names the window)
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


@pytest.mark.parametrize("root", ["[]", "3", '"config"', "null"])
def test_config_root_not_an_object_exits_2(tmp_path, capsys, root):
    path = tmp_path / "config.json"
    path.write_text(root)
    code = main(["check", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "config error: config root must be an object\n"
    assert not (tmp_path / "out").exists()


def test_density_names_run_M_below_2(tmp_path, capsys):
    # one draw passes the table's check (M >= 1) but not the ensemble's,
    # which reports it as every other invalid value is reported
    code, out = run_cli(tmp_path, "density", {"process": FAST_PROCESS, "run": {"M": 1}})
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: run.M=1 invalid: the ensemble needs at least 2 draws\n")
    assert not out.exists()


FAST_CONFIG = json.dumps({"process": FAST_PROCESS}).encode()


@pytest.mark.parametrize("config, out, key", [
    (None, "out", "--config"),
    (b'{"sde": {"preset": "\xe9"}}', "out", "--config"),
    (b"[" * 100_000 + b"]" * 100_000, "out", "--config"),
    (b'{"run": {"M": ' + b"1" * 5000 + b"}}", "out", "--config"),
    (FAST_CONFIG, "", "output.directory"),
    (FAST_CONFIG, "file", "output.directory"),
    (FAST_CONFIG, "file/out", "output.directory"),
], ids=["config-a-directory", "config-latin-1", "config-nested-past-recursion-limit",
        "config-integer-past-digit-limit", "out-empty", "out-a-file", "out-under-a-file"])
def test_unreadable_config_or_unwritable_output_exits_2(tmp_path, capsys, config, out, key):
    # an I/O error on either side is a configuration error naming its
    # source, not a traceback, and nothing is written
    path = tmp_path / "config.json"
    if config is None:
        path.mkdir()
    else:
        path.write_bytes(config)
    (tmp_path / "file").write_text("")
    before = sorted(tmp_path.rglob("*"))
    code = main(["check", "--config", str(path), "--out", out and str(tmp_path / out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}=")
    assert sorted(tmp_path.rglob("*")) == before


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


def test_solve_with_supplied_terms_of_other_callables_exits_2(tmp_path, capsys, monkeypatch):
    # a coefficient set whose sigma was replaced but whose fused Euler terms
    # were kept passes the finite differences; the comparison of the fused
    # forms with the callables rejects it as a configuration error
    import dataclasses

    from chaosde import sde

    def mismatched(name):
        coeffs, x0 = sde.preset(name)
        return dataclasses.replace(coeffs, sigma=lambda x: 2.0 * sde._elliptic_sigma(x),
                                   dsigma=lambda x: 2.0 * sde._elliptic_dsigma(x)), x0

    monkeypatch.setattr(density, "preset", mismatched)
    payload = {"process": dict(FAST_PROCESS, n=32),
               "sde": {"preset": "elliptic-2d", "steps": 16}, "run": {"M": 2}}
    code, out = run_cli(tmp_path, "solve", payload)
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: the supplied Euler terms disagree with the b and sigma callables\n")
    assert not (out / "solution.csv").exists()


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


def test_simulate_holds_one_tile_of_tail_products(tmp_path, capsys, monkeypatch):
    # the dump holds its tail products one (s_nodes, TAIL_TILE) tile at a
    # time: under a budget of 100000 entries, q = 3 at n = 40 and s_nodes =
    # 128 runs with 256-tail tiles (32768 entries) where the whole time's
    # (s_nodes, 820) products would hold 104960, and writes the same
    # kernels.txt as with the default tile and budget
    payload = {"process": {"q": 3, "n": 40, "L": 1.0, "s_nodes": 128},
               "run": {"M": 2, "out_times": [1.0]}}
    (tmp_path / "whole").mkdir()
    code, whole = run_cli(tmp_path / "whole", "simulate", payload)
    assert code == 0
    monkeypatch.setattr(errors, "MEMORY_BUDGET_ENTRIES", 100_000)
    monkeypatch.setattr(hermite, "TAIL_TILE", 256)
    code, out = run_cli(tmp_path, "simulate", payload)
    assert code == 0, capsys.readouterr().err
    assert (out / "kernels.txt").read_bytes() == (whole / "kernels.txt").read_bytes()


def test_simulate_over_projection_budget_exits_2(tmp_path, capsys, monkeypatch):
    # simulate projects each block of draws on every quadrature node, a
    # (B, m, s_nodes) array per output time: under a budget of 100000
    # entries, 64 draws of m = 8 components at s_nodes = 300 form 153600
    # entries while every array the configuration sizes up front fits, and
    # the command exits 2 naming s_nodes before any output is written
    monkeypatch.setattr(errors, "MEMORY_BUDGET_ENTRIES", 100_000)
    payload = {"process": {"q": 2, "m": 8, "n": 4, "L": 1.0, "s_nodes": 300},
               "run": {"M": 64, "out_times": [1.0]}}
    code, out = run_cli(tmp_path, "simulate", payload)
    assert code == 2
    assert "process.s_nodes=300" in capsys.readouterr().err
    assert not out.exists()
    payload["process"]["s_nodes"] = 190  # 97280 entries
    code, out = run_cli(tmp_path, "simulate", payload)
    assert code == 0
    assert (out / "driver.csv").exists() and (out / "kernels.txt").exists()


def test_selfsim_over_projection_budget_exits_2(tmp_path, capsys, monkeypatch):
    # selfsim projects each block of draws on every node of a side, a
    # (B, 1, s_nodes) array: under a budget of 100000 entries, 64 draws at
    # s_nodes = 10000 form 640000 entries while the (s_nodes, n+1) factors
    # fit (50000), and the command exits 2 naming s_nodes with no output
    monkeypatch.setattr(errors, "MEMORY_BUDGET_ENTRIES", 100_000)
    payload = {"process": {"q": 2, "n": 4, "L": 1.0, "s_nodes": 10_000},
               "run": {"M": 64, "t": 1.0, "epsilon_window": 0.5}}
    code, out = run_cli(tmp_path, "selfsim", payload)
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: process.s_nodes=10000 invalid: dense array of shape (64, 1, 10000) "
        "holds 640000 entries, over the budget of 100000\n")
    assert not out.exists()
    payload["process"]["s_nodes"] = 1500  # 96000 entries
    assert run_cli(tmp_path, "selfsim", payload)[0] in (0, 1)
    assert (out / "selfsim_report.json").exists()


@pytest.mark.parametrize("command", ["density", "malliavin"])
def test_serial_commands_build_the_driver_once(tmp_path, monkeypatch, command):
    # the command's checks build the scenario's GridDriver, and a serial
    # run reuses that build
    inits = []
    init = hermite.GridDriver.__init__

    def counted(self, *args, **kwargs):
        inits.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(hermite.GridDriver, "__init__", counted)
    payload = {"process": FAST_PROCESS, "sde": {"preset": "elliptic-2d", "steps": 16},
               "run": {"M": 100}}
    assert run_cli(tmp_path, command, payload, ["--workers", "1"])[0] == 0
    assert len(inits) == 1


def test_df_array_over_budget_exits_2(tmp_path, capsys, monkeypatch):
    # density and malliavin check DX, d m n entries, the largest array of a
    # sample; the (steps+1) m n entries of a DF array that no command forms
    # are no limit.  Under a budget of 100000 entries elliptic-2d (d = m =
    # 2) at 2 steps and n = 30000 passes the driver's (steps, n+1) factor
    # check (60002 entries) and puts DX over it (120000), rejected before
    # any output is written; solve has no such limit and runs.  At 100
    # steps and n = 990, with 199980 DF entries and 3960 of DX, all three run
    monkeypatch.setattr(errors, "MEMORY_BUDGET_ENTRIES", 100_000)
    payload = {"process": dict(FAST_PROCESS, n=30_000), "run": {"M": 2},
               "sde": {"preset": "elliptic-2d", "steps": 2}}
    for command in ("density", "malliavin"):
        code, out = run_cli(tmp_path, command, payload)
        assert code == 2
        assert "process.n=30000" in capsys.readouterr().err
        assert not out.exists()
    assert run_cli(tmp_path, "solve", payload)[0] == 0
    payload = {"process": dict(FAST_PROCESS, n=990), "run": {"M": 2},
               "sde": {"preset": "elliptic-2d", "steps": 100}}
    for command in ("density", "malliavin"):
        (tmp_path / command).mkdir()
        assert run_cli(tmp_path / command, command, payload)[0] == 0


def test_density_kde_budget_counts_a_chunk_of_grid_rows(tmp_path, capsys, monkeypatch):
    # the KDE holds (KDE_ROWS, M) arrays, one chunk of its 512 grid rows
    # against every sample: under a budget of 20000 entries M = 100 runs
    # (6400 entries, where the whole (M, 512) grid would hold 51200), and at
    # M = 400 the chunk (25600) is over it, rejected before any output
    monkeypatch.setattr(errors, "MEMORY_BUDGET_ENTRIES", 20_000)
    payload = {"process": FAST_PROCESS, "sde": {"preset": "elliptic-2d", "steps": 16},
               "run": {"M": 100}}
    (tmp_path / "fits").mkdir()
    code, out = run_cli(tmp_path / "fits", "density", payload)
    assert code == 0, capsys.readouterr().err
    assert (out / "kde.csv").exists()
    payload["run"]["M"] = 400
    code, out = run_cli(tmp_path, "density", payload)
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: run.M=400 invalid: dense array of shape (64, 400) "
        "holds 25600 entries, over the budget of 20000\n")
    assert not out.exists()


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
    # the q = 1 antiderivative over cells 6.25e298 wide overflows in the
    # left-hand window increment of selfsim (t / epsilon_window overflows too)
    ("selfsim", {"process": {"q": 1, "n": 16, "L": 1e-300},
                 "run": {"M": 2, "t": 1e300, "epsilon_window": 1e-301}}, "1e+300"),
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


def test_parallel_density_over_several_blocks_matches_serial(tmp_path, monkeypatch):
    # a serial run takes two Euler blocks, each worker of a parallel run one
    # block of several sub-blocks, and every process its draws from its own
    # reused sampler: ensemble.csv keeps its bytes
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    M = wiener.DRAW_BLOCK + 2 * density.SUB_BLOCK + 11
    cfg = write_config(tmp_path, {"process": dict(FAST_PROCESS, n=32),
                                  "sde": {"preset": "elliptic-2d", "steps": 8},
                                  "run": {"M": M, "seed": 3}})
    outs = [tmp_path / "serial", tmp_path / "parallel"]
    for out, workers in zip(outs, ("1", "2")):
        assert main(["density", "--config", cfg, "--out", str(out), "--workers", workers]) == 0
    serial, parallel = ((out / "ensemble.csv").read_bytes() for out in outs)
    assert serial == parallel and serial.count(b"\n") == M + 2  # M rows under two header lines


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


def test_overflowing_theta_warns_nothing(tmp_path, capsys):
    # on a horizon of 1e100 every path's Theta overflows while its Euler
    # states stay finite: density excludes every sample and malliavin names
    # the first column that overflowed; this test runs with warnings as
    # errors, and stderr holds no warning
    payload = {"process": {"m": 2, "n": 32},
               "sde": {"preset": "elliptic-2d", "T": 1e100, "steps": 16}, "run": {"M": 100}}
    code, out = run_cli(tmp_path, "density", payload)
    assert code == 0
    assert capsys.readouterr().err == ""
    report = _strict_json("\n".join((out / "positivity.json").read_text().splitlines()[1:]))
    assert report["excluded"] == 100 and report["degenerate"]
    code, _ = run_cli(tmp_path, "malliavin", payload)
    assert code == 3
    assert capsys.readouterr().err == "numeric failure: non-finite variational state at step 6\n"


@pytest.mark.parametrize("q, scale", [(1, 1e-250), (2, 1e-250), (1, 1e-229)])
def test_selfsim_on_underflowing_energies_exits_2(tmp_path, capsys, q, scale):
    # every energy of both sides is 0 or subnormal: at q = 1 the gap would
    # be 0/0, or 7.86e-322 against 7.9e-322 decided by rounding, and at
    # q = 2 the KS test would pass on two samples of zeros
    payload = {"process": {"q": q, "n": 4, "L": scale, "s_nodes": 2},
               "run": {"M": 20, "t": scale, "epsilon_window": 0.9 * scale}}
    code, out = run_cli(tmp_path, "selfsim", payload)
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: process.L={scale!r}, run.t={scale!r} and run.epsilon_window="
        f"{0.9 * scale!r} invalid: the derivative energies of a side all underflow below the "
        "smallest normal double\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "malliavin", "density"])
def test_solver_grid_of_huge_extent_warns_nothing(tmp_path, capsys, command):
    # the step midpoints of a grid out to 1e308 overflow: the driver's
    # finiteness check names the failure, and no warning precedes it (this
    # test runs with warnings as errors)
    payload = {"process": {"q": 2, "n": 3, "L": 1e12}, "sde": {"T": 1e308, "steps": 8}}
    code, out = run_cli(tmp_path, command, payload)
    assert code == 3
    assert capsys.readouterr().err == ("numeric failure: kernel at t=1e+308 is not finite: "
                                       "its factors or norm overflow\n")
    assert not out.exists()


MALLIAVIN_2D = {"process": {"n": 32, "L": 4.0}, "sde": {"preset": "elliptic-2d", "steps": 16}}


def test_malliavin_huge_quotient_step_warns_nothing(tmp_path, capsys):
    # the draw shifted by 1e308 h overflows, and so do its driver values:
    # the pair's Euler solve reports the blowup, with no warning before it
    code, out = run_cli(tmp_path, "malliavin", dict(MALLIAVIN_2D, run={"eps": [1e308]}))
    assert code == 3
    assert capsys.readouterr().err == "numeric failure: non-finite state at step 1\n"
    assert not out.exists()


def test_malliavin_fits_no_order_to_one_repeated_step(tmp_path, capsys):
    # a slope needs two distinct steps: with one step given twice both gaps
    # are reported and no observed_order is fitted
    code, out = run_cli(tmp_path, "malliavin", dict(MALLIAVIN_2D, run={"eps": [0.1, 0.1]}))
    assert code == 0
    lines = body(out / "malliavin_report.txt").splitlines()
    assert [line.split()[0] for line in lines] == ["t", "det_gamma", "min_eig", "quotient_gap",
                                                   "quotient_gap"]
    assert lines[3] == lines[4]
    assert capsys.readouterr().err == ""
    code, out = run_cli(tmp_path, "malliavin", dict(MALLIAVIN_2D, run={"eps": [0.1, 0.1, 0.01]}))
    assert code == 0
    assert body(out / "malliavin_report.txt").splitlines()[-1].startswith("observed_order ")


def test_overflowing_malliavin_determinant_is_a_blowup(tmp_path, capsys):
    # on a horizon of 1.8e19 DX and the eigenvalues of Gamma stay finite but
    # their product overflows: malliavin exits 3 and density excludes every
    # sample, with no warning, no inf det and no Infinity in the JSON
    payload = {"process": {"q": 2, "n": 12, "L": 4.0, "s_nodes": 8},
               "sde": {"preset": "elliptic-2d", "steps": 8, "T": 2.0**64}, "run": {"M": 100}}
    code, out = run_cli(tmp_path, "malliavin", payload)
    assert code == 3
    assert capsys.readouterr().err == ("numeric failure: non-finite Malliavin determinant at "
                                       "t=1.8446744073709552e+19\n")
    code, out = run_cli(tmp_path, "density", payload)
    assert code == 0
    assert capsys.readouterr().err == ""
    report = _strict_json(body(out / "positivity.json"))
    assert report["excluded"] == 100 and report["degenerate"]


def test_overflowing_malliavin_derivative_exits_3(tmp_path, capsys):
    # linear-scalar from 2e154: seed 1 keeps finite Euler states and a
    # finite Theta, but its |DX|^2 overflows: malliavin exits 3 naming the
    # output step, with no warning, and density excludes the seed
    payload = {"process": {"n": 32, "L": 4.0},
               "sde": {"preset": "linear-scalar", "x0": [2e154], "steps": 16},
               "run": {"M": 2, "seed": 1}}
    code, out = run_cli(tmp_path, "malliavin", payload)
    assert code == 3
    assert capsys.readouterr().err == ("numeric failure: non-finite Malliavin derivative at "
                                       "step 16\n")
    assert not out.exists()
    code, out = run_cli(tmp_path, "density", payload)
    assert code == 0
    assert capsys.readouterr().err == ""
    rows = body(out / "ensemble.csv").splitlines()[1:]
    assert [row for row in rows if row.startswith("1,")] == ["1,1,,,,1"]


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_cells_of_width_zero_warn_nothing(tmp_path, capsys, command):
    # (5e-324 + 5e-324) / 12 underflows to a cell width of 0, whose negative
    # power is inf: the kernel's finiteness check names the failure, and no
    # warning precedes it (this test runs with warnings as errors)
    payload = {"process": {"q": 2, "n": 12, "L": 5e-324, "s_nodes": 8},
               "run": {"out_times": [5e-324]}}
    code, out = run_cli(tmp_path, command, payload)
    assert code == 3
    assert capsys.readouterr().err == ("numeric failure: kernel at t=5e-324 is not finite: "
                                       "its factors or norm overflow\n")
    assert not out.exists()


def test_check_with_a_covariance_that_rounds_to_0_exits_2(tmp_path, capsys):
    # the covariance of times 1e-91 and 1e-9 cancels to 0, and the kernel
    # covariance statistic is relative to it: a configuration error, not a
    # ZeroDivisionError
    payload = {"process": {"q": 2, "n": 12, "L": 4.0, "s_nodes": 8},
               "run": {"M": 100, "out_times": [1e-91, 1e-9, 1.0]}}
    code, out = run_cli(tmp_path, "check", payload)
    assert code == 2
    assert capsys.readouterr().err == ("config error: run.out_times=[1e-91, 1e-09, 1.0] invalid: "
                                       "the covariance at 1e-91 and 1e-09 rounds to 0\n")
    assert not out.exists()


# The CLI fuzz: mutated configurations of every command, run in process.
# Grid sizes stay at most 16 and M at most 120 so that an example is quick;
# every other value is drawn freely, extremes and wrong types included.
EXTREMES = [0, 1, 2, 3, -1, 0.5, 0.9, 5e-324, 1e-320, 1e-300, 1e300, 1e308, -1e308, 1.797e308,
            2**64 - 1, float("nan"), float("inf"), -float("inf"), True, None, "1", [], {}]
FREE = st.one_of(st.sampled_from(EXTREMES), st.floats(), st.integers(-5, 20))
FREE_LISTS = st.one_of(st.lists(FREE, max_size=4), FREE)


def either(plausible, free=FREE):
    """A value that the key may well accept (two draws in three), or any
    value at all."""
    return st.one_of(plausible, plausible, free)


SIZES = either(st.integers(2, 16), st.one_of(st.integers(-2, 16), st.sampled_from(
    [0.5, 8.0, float("nan"), float("inf"), "8", None, [4], True])))


def floats(lo, hi):
    return st.floats(lo, hi, exclude_min=True)


FUZZ_KEYS = {
    "process.q": either(st.integers(1, 3)), "process.H": either(floats(0.5, 0.99)),
    "process.m": SIZES, "process.n": SIZES, "process.L": either(floats(0, 16)),
    "process.s_nodes": SIZES,
    "sde.preset": either(st.sampled_from(["additive", "linear-scalar", "elliptic-2d", "rank1-2d",
                                          "none"])),
    "sde.x0": either(st.lists(floats(-4, 4), min_size=1, max_size=2), FREE_LISTS),
    "sde.steps": SIZES, "sde.T": either(floats(0, 4)),
    "run.M": either(st.integers(100, 120), st.one_of(st.integers(-2, 120), SIZES)),
    "run.seed": either(st.integers(0, 2**64 - 1)),
    "run.out_times": either(st.lists(floats(0, 2), min_size=1, max_size=3), FREE_LISTS),
    "run.eps": either(st.lists(floats(0, 0.5), max_size=4), FREE_LISTS),
    "run.t": either(floats(0, 4)), "run.epsilon_window": either(floats(0, 1)),
}
#: each command's starting point: a configuration that runs, on tiny grids
FUZZ_BASE = {"process": {"q": 2, "n": 12, "L": 4.0, "s_nodes": 8},
             "sde": {"preset": "elliptic-2d", "steps": 8},
             "run": {"M": 100, "out_times": [0.5, 1.0], "eps": [0.1, 0.01], "t": 1.0,
                     "epsilon_window": 0.5}}


def run_in_process(command, cfg) -> tuple:
    """(exit code, stdout, stderr, warnings, JSON files) of one command on
    cfg, written with NaN and Infinity as json.dump writes them."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([command, "--config", path, "--out", os.path.join(tmp, "out"),
                         "--workers", "1"])
        files = [path.read_text() for path in pathlib.Path(tmp, "out").glob("*.json")]
    return code, out.getvalue(), err.getvalue(), caught, files


@given(st.sampled_from(sorted(COMMANDS)), st.data())
@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cli_fuzz(command, data):
    # every mutated configuration works or exits with its code and a
    # message: no traceback, no warning, 1 only from the two commands that
    # test invariants, and every JSON output strict
    cfg = json.loads(json.dumps(FUZZ_BASE))
    for key in data.draw(st.lists(st.sampled_from(sorted(FUZZ_KEYS)), max_size=3, unique=True)):
        section, name = key.split(".")
        cfg[section][name] = data.draw(FUZZ_KEYS[key])
    stat, samples = cli.self_similarity_stat, []

    def recorded(*args):
        samples.append(stat(*args))
        return samples[-1]

    with mock.patch.object(cli, "self_similarity_stat", recorded):
        code, out, err, caught, files = run_in_process(command, cfg)
    assert code in ((0, 1, 2, 3) if command in ("check", "selfsim") else (0, 2, 3))
    assert "Traceback" not in err and "Warning" not in err
    assert [str(w.message) for w in caught] == []
    for text in files:
        header, *rest = text.splitlines()
        assert header.startswith("# chaosde ")
        _strict_json("\n".join(rest))
    if command in ("density", "selfsim") and code in (0, 1):
        _strict_json(out)
    if command == "selfsim" and code == 0:
        # a passed test compared draws, not two samples of zeros
        lhs, rhs = samples[-1]
        assert np.any(lhs != 0) and np.any(rhs != 0)


def test_fuzz_covers_every_config_key():
    # a key added to the configuration is fuzzed too; the output directory
    # is the fuzz's own
    assert set(FUZZ_KEYS) == set(CONFIG_KEYS) - {"output.directory"}


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_reference_follows_the_table(tmp_path):
    # README's table of the keys each command reads names every key but the
    # output directory, and its example configuration loads
    text = README.read_text()
    table = text.split("Every command validates every key", 1)[1].split("\n\n")[1]
    header, _, *rows = table.splitlines()
    sections = [cell.strip(" `") for cell in header.split("|")[2:-1]]
    named = {f"{section}.{name.strip()}" for row in rows
             for section, cell in zip(sections, row.split("|")[2:-1])
             for name in cell.split(",") if name.strip() != "-"}
    assert named == set(CONFIG_KEYS) - {"output.directory"}
    example = text.split("Example configuration", 1)[1].split("```json\n", 1)[1].split("```")[0]
    path = tmp_path / "example.json"
    path.write_text(example)
    assert load_config(str(path))["sde"]["preset"] == "elliptic-2d"
