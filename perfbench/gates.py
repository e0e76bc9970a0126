"""Correctness gates of the benchmark workloads, run outside the timed phase.

`run(job)` executes in a worker process with chaosde importable and returns
one record per gate.  Outputs at the default seed (0) are compared with the
values in `reference.json`, recorded from the commit that introduced the
benchmark; comparisons use the relative error in the max norm,
max|a - b| / max|b|, against REL_TOL.  File digests are not compared, so
that a change that moves the last bits of a result still passes.

Record the reference again with `python3 perfbench/gates.py --record`, run
from the root of the repository.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import traceback

import numpy as np

import workloads

REL_TOL = 1e-12
TAYLOR_TOL = 1e-10
#: the covariance identity's target is 0.05, but the dense q = 3 kernels miss
#: it at every grid tried (0.0749 at the pair (0.25, 1.0) on this workload's
#: grid, worse on finer ones); the gate holds the seed commit's gap
COVARIANCE_TARGET, COVARIANCE_TOL = 0.05, 0.075
#: every KERNEL_STRIDE-th data line of kernels.txt is compared
KERNEL_STRIDE = 40_000
REFERENCE_SEEDS = 4
#: driver.csv rows compared with simulate_paths: every DRIVER_STRIDE-th seed
DRIVER_STRIDE = 25
TAYLOR_SEEDS = 3

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")


def rel_err(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _cli(wl, work_dir: str, tag: str, seed: int, **run_overrides) -> str:
    """Run the workload's command once in this process; return its output dir."""
    from chaosde import cli

    os.makedirs(work_dir, exist_ok=True)
    out_dir = os.path.join(work_dir, tag)
    config = os.path.join(work_dir, tag + ".json")
    workloads.write_config(wl, config, seed, out_dir, **run_overrides)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(workloads.argv(wl, config))
    if rc != 0:
        raise RuntimeError(f"{wl.command} exited {rc}")
    return out_dir


def _body(path: str) -> list:
    """Lines of an output file without its '#' header lines."""
    with open(path) as fh:
        return [line for line in fh.read().splitlines() if not line.startswith("#")]


def _ensemble_rows(out_dir: str) -> dict:
    """seed -> raw line of ensemble.csv."""
    lines = _body(os.path.join(out_dir, "ensemble.csv"))
    return {int(line.split(",", 1)[0]): line for line in lines[1:]}


def _row_values(line: str) -> list:
    """x_1.., det_gamma, min_eig of an ensemble.csv row."""
    return [float(v) for v in line.split(",")[2:-1]]


def _report(out_dir: str) -> dict:
    """malliavin_report.txt as {key: value}, key being all but the last token."""
    lines = _body(os.path.join(out_dir, "malliavin_report.txt"))
    return {key: float(value) for key, value in (line.rsplit(" ", 1) for line in lines)}


def _driver_rows(out_dir: str) -> dict:
    """seed -> driver values, shape (T, m), from driver.csv."""
    rows = {}
    for line in _body(os.path.join(out_dir, "driver.csv"))[1:]:
        seed, _, *values = line.split(",")
        rows.setdefault(int(seed), []).append([float(v) for v in values])
    return rows


def _kernel_samples(path: str):
    """(data line count, sampled data lines) of a kernels.txt dump."""
    with open(path, "rb") as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith(b"#")]
    samples = {str(i): lines[i].decode().split() for i in range(0, len(lines), KERNEL_STRIDE)}
    return len(lines), samples


def _field(wl):
    """The workload's dense kernel field, built as `chaosde simulate` builds it."""
    from chaosde.hermite import HermiteSpec, build_kernels
    from chaosde.wiener import make_hilbert

    p, times = wl.config["process"], tuple(wl.config["run"]["out_times"])
    space = make_hilbert(p["m"], -p["L"], max(times), p["n"])
    spec = HermiteSpec(q=p["q"], H=p["H"], m=p["m"], space=space,
                       s_nodes=p["s_nodes"], out_times=times)
    return build_kernels(spec)


def _ok(err: float, tol: float, what: str):
    return err <= tol, f"{what}: relative error {err:.3e} (tolerance {tol:g})"


# --- ensemble-elliptic --------------------------------------------------------

def _ensemble_reference(wl, work_dir: str) -> dict:
    rows = _ensemble_rows(_cli(wl, work_dir, "reference", 0, M=2))
    return {str(seed): _row_values(line) for seed, line in rows.items()}


def _ensemble_gates(wl, job, ref):
    commands = job["commands"]

    def reference():
        got = _ensemble_reference(wl, job["work_dir"])
        if sorted(got) != sorted(ref):
            return False, f"seeds {sorted(got)} differ from the reference {sorted(ref)}"
        return _ok(rel_err([got[s] for s in ref], [ref[s] for s in ref]), REL_TOL,
                   "ensemble rows at seeds 0, 1")

    def positivity():
        bad = []
        for cmd in commands:
            with open(os.path.join(cmd["out_dir"], "positivity.json")) as fh:
                report = json.loads("\n".join(
                    line for line in fh.read().splitlines() if not line.startswith("#")))
            if report["fraction"] != 1.0 or report["excluded"] != 0 or report["degenerate"]:
                bad.append((cmd["seed"], report["fraction"], report["excluded"],
                            report["degenerate"]))
        return not bad, f"(seed, fraction, excluded, degenerate) failing: {bad}"

    def seed_rerun():
        first = commands[0]
        seed = first["seed"] + wl.seeds_per_command - 1
        measured = _ensemble_rows(first["out_dir"])[seed]
        alone = _ensemble_rows(_cli(wl, job["work_dir"], "rerun", seed, M=2))[seed]
        return alone == measured, f"seed {seed} rerun on its own: {alone!r} vs {measured!r}"

    excluded = 0
    for cmd in commands:
        rows = _ensemble_rows(cmd["out_dir"])
        excluded += sum(line.endswith(",1") for line in rows.values())
    return [("reference_rows", reference), ("positivity", positivity),
            ("seed_rerun_bytes", seed_rerun)], excluded


# --- drivers-q3 ---------------------------------------------------------------

def _q3_reference(wl, work_dir: str) -> dict:
    from chaosde.hermite import simulate_paths

    count, samples = _kernel_samples(
        os.path.join(_cli(wl, work_dir, "reference", 0, M=2), "kernels.txt"))
    paths = simulate_paths(_field(wl), range(REFERENCE_SEEDS))
    return {"paths": paths.tolist(), "kernel_lines": count, "kernel_samples": samples}


def _q3_gates(wl, job, ref):
    from chaosde.hermite import covariance_theoretical, simulate_path, simulate_paths
    from chaosde.malliavin import shifted_driver
    from chaosde.wiener import HilbertVec, sample_omega, shift_omega

    field = _field(wl)
    spec = field.spec
    commands = job["commands"]

    def reference_paths():
        return _ok(rel_err(simulate_paths(field, range(REFERENCE_SEEDS)), ref["paths"]),
                   REL_TOL, f"driver values at seeds 0..{REFERENCE_SEEDS - 1}")

    def kernels_txt():
        worst, bad = 0.0, []
        for cmd in commands:
            count, samples = _kernel_samples(os.path.join(cmd["out_dir"], "kernels.txt"))
            if count != ref["kernel_lines"] or samples.keys() != ref["kernel_samples"].keys():
                bad.append((cmd["seed"], count))
                continue
            for key, want in ref["kernel_samples"].items():
                got = samples[key]
                if got[:-1] != want[:-1]:
                    bad.append((cmd["seed"], key))
                worst = max(worst, rel_err(float(got[-1]), float(want[-1])))
        ok, detail = _ok(worst, REL_TOL, f"{len(ref['kernel_samples'])} sampled kernel entries")
        return ok and not bad, f"{detail}; line count or index mismatches: {bad}"

    def driver_csv():
        worst = 0.0
        for cmd in commands:
            rows = _driver_rows(cmd["out_dir"])
            seeds = range(cmd["seed"], cmd["seed"] + wl.seeds_per_command)
            if sorted(rows) != list(seeds):
                return False, f"driver.csv of seed {cmd['seed']} lists other seeds"
            sample = seeds[::DRIVER_STRIDE]
            worst = max(worst, rel_err([rows[s] for s in sample], simulate_paths(field, sample)))
        return _ok(worst, REL_TOL, f"driver.csv against simulate_paths, every "
                                   f"{DRIVER_STRIDE}th seed")

    def kernel_covariance():
        T = len(spec.out_times)
        worst = 0.0
        for i in range(T):
            for j in range(i, T):
                ip = math.factorial(spec.q) * float(np.sum(field.blocks[i] * field.blocks[j]))
                tgt = covariance_theoretical(spec.out_times[i], spec.out_times[j], spec.H)
                worst = max(worst, abs(ip - tgt) / tgt)
        return worst <= COVARIANCE_TOL, (
            f"covariance identity: worst relative gap {worst:.3e} (tolerance "
            f"{COVARIANCE_TOL}; target {COVARIANCE_TARGET} "
            f"{'met' if worst <= COVARIANCE_TARGET else 'missed'})")

    def taylor_shift():
        worst = 0.0
        for seed in range(commands[0]["seed"], commands[0]["seed"] + TAYLOR_SEEDS):
            w = sample_omega(spec.space, seed)
            rng = np.random.default_rng(seed)
            h = HilbertVec(spec.space, rng.standard_normal(spec.space.basis_dim))
            eps = 0.5
            lhs = shifted_driver(field, w, h, eps).values
            rhs = simulate_path(field, shift_omega(w, eps, h)).values
            worst = max(worst, rel_err(lhs, rhs))
        return _ok(worst, TAYLOR_TOL, "shifted_driver against simulate_path")

    return [("reference_paths", reference_paths), ("kernels_txt", kernels_txt),
            ("driver_csv", driver_csv), ("kernel_covariance", kernel_covariance),
            ("taylor_shift", taylor_shift)], 0


GATES = {
    "ensemble-elliptic": _ensemble_gates,
    "drivers-q3": _q3_gates,
}


def run(job: dict) -> dict:
    """Run every gate of the job's workload: {"checks": [...], "excluded_seeds": n}."""
    wl = workloads.WORKLOADS[job["workload"]]
    with open(REFERENCE) as fh:
        ref = json.load(fh)[wl.name]
    gates, excluded = GATES[wl.name](wl, job, ref)
    checks = []
    for name, gate in gates:
        try:
            ok, detail = gate()
        except Exception:  # a gate that cannot run has failed
            ok, detail = False, traceback.format_exc()
        checks.append({"name": name, "ok": bool(ok), "detail": detail})
    return {"checks": checks, "excluded_seeds": excluded}


def record(work_dir: str) -> dict:
    return {
        "ensemble-elliptic": _ensemble_reference(workloads.WORKLOADS["ensemble-elliptic"],
                                                 os.path.join(work_dir, "ensemble")),
        "drivers-q3": _q3_reference(workloads.WORKLOADS["drivers-q3"],
                                    os.path.join(work_dir, "q3")),
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/gates.py --record")
    sys.path.insert(0, os.path.abspath("src"))
    reference = record(os.path.join(HERE, "out", "record"))
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
