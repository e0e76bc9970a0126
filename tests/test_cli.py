"""Command-line interface: config handling, exit codes, output artifacts."""

import json

import pytest

from chaosde.cli import main

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


@pytest.mark.filterwarnings("ignore:overflow encountered")
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
    # the order-3 dump needs one dense n^3 block per output time: over 600
    # cells one block is over budget, over 512 cells one block fits but the
    # default three do not; a size error in the configuration, rejected
    # before any output is written
    for n in (600, 512):
        payload = {"process": {"q": 3, "n": n, "L": 4.0}, "run": {"M": 2}}
        code, out = run_cli(tmp_path, "simulate", payload)
        assert code == 2
        assert f"process.n={n}" in capsys.readouterr().err
        assert not out.exists()


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
