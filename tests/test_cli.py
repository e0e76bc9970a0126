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
