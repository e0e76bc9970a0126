"""Per-stage cost of one `chaosde density` ensemble sample, for one or more
source trees measured side by side.

Usage (from the root of a checkout):

    python3 tools/stage_times.py LABEL=SRC [LABEL=SRC ...] [--repeats R] [--out FILE]

SRC is a directory holding the `chaosde` package (the `src` directory of a
checkout).  The scenario is the benchmark's `ensemble-elliptic` one:
elliptic-2d, q = 1, H = 0.7, n = 256, L = 8, 128 steps to T = 1, seeds
5-104.  Each pass runs in a fresh interpreter with one BLAS thread, and
times the seven stages of every sample in the order the ensemble runs them:
draw (`sample_omega`), driver values (`GridDriver.values`), Euler
(`solve_euler`; per sample, when that source solves Euler over batches of
`density.EULER_BATCH` seeds, the batch time divided among its seeds), Theta
(`solve_theta_all`), DF (`GridDriver.deriv_vectors`), DX
(`solution_derivative` on the filled triangle) and Gram
(`malliavin_matrix`).  The pass then times one whole `chaosde density`
command on the same scenario with `run.seed` 5 and `run.M` 100, in process.

The passes alternate between the sources, R times each (default 7), so
that host drift hits every source alike; the report gives the median over
the passes of each stage's mean milliseconds per sample, and of the command
seconds.  The JSON record (stdout, or FILE with --out) carries the
per-pass figures and the provenance of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

SCENARIO = {"preset": "elliptic-2d", "q": 1, "H": 0.7, "t": 1.0, "steps": 128, "n": 256,
            "L": 8.0}
SEEDS = range(5, 105)
STAGES = ("draw", "driver_values", "euler", "theta", "df", "dx", "gram")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def measure() -> dict:
    """One pass over SEEDS with the chaosde on sys.path (run in a child)."""
    import contextlib
    import io
    import time

    import numpy as np
    from chaosde import cli, density
    from chaosde.malliavin import malliavin_matrix, solution_derivative
    from chaosde.sde import solve_euler, solve_theta_all
    from chaosde.wiener import sample_omega

    scenario = density.Scenario(**SCENARIO)
    coeffs, x0, spec, driver = scenario.build()
    batch = getattr(density, "EULER_BATCH", None)
    clock = time.perf_counter
    totals = dict.fromkeys(STAGES, 0.0)

    def timed(stage, fn, *args):
        start = clock()
        out = fn(*args)
        totals[stage] += clock() - start
        return out

    def sample(w, bundle):
        timed("theta", solve_theta_all, coeffs, bundle)
        dfields = timed("df", driver.deriv_vectors, w)
        mf = timed("dx", solution_derivative, coeffs, bundle, dfields, spec.space)
        timed("gram", malliavin_matrix, mf)

    seeds = list(SEEDS)
    size = batch or 1
    for first in (True, False):  # a warm-up pass over one group, then the timed pass
        totals = dict.fromkeys(STAGES, 0.0)
        for start in range(0, size if first else len(seeds), size):
            group = seeds[start:start + size]
            draws = [timed("draw", sample_omega, spec.space, s) for s in group]
            values = [timed("driver_values", driver.values, w) for w in draws]
            if batch:
                paths = timed("euler", solve_euler, coeffs, x0,
                              (driver.times, np.array(values)))
                bundles = [paths.path(k) for k in range(len(group))]
            else:
                bundles = [timed("euler", solve_euler, coeffs, x0, (driver.times, v))
                           for v in values]
            for w, bundle in zip(draws, bundles):
                sample(w, bundle)
    stages_ms = {k: 1e3 * v / len(seeds) for k, v in totals.items()}

    cfg = {"process": {"q": SCENARIO["q"], "H": SCENARIO["H"], "m": coeffs.m,
                       "n": SCENARIO["n"], "L": SCENARIO["L"]},
           "sde": {"preset": SCENARIO["preset"], "steps": SCENARIO["steps"],
                   "T": SCENARIO["t"]},
           "run": {"M": len(seeds), "seed": seeds[0]}}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        argv = ["density", "--config", path, "--out", os.path.join(tmp, "out"),
                "--workers", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            start = clock()
            rc = cli.main(argv)
            command_s = clock() - start
    if rc != 0:
        raise RuntimeError(f"chaosde density exited {rc}")
    return {"stages_ms": stages_ms, "sample_ms": sum(stages_ms.values()),
            "command_s": command_s, "euler_batch": batch}


def _git_commit(src: str):
    """The commit of the checkout holding src, with -dirty for local changes."""
    try:
        out = subprocess.run(["git", "-C", src, "describe", "--always", "--dirty",
                              "--abbrev=40"], check=True, capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _pass(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.update({name: "1" for name in BLAS_ENV})
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--child"], env=env,
                         check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sources", nargs="*", metavar="LABEL=SRC")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", default=None, help="write the JSON record here")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure()))
        return 0
    sources = dict(item.split("=", 1) for item in args.sources if "=" in item)
    if not sources or len(sources) != len(args.sources) or args.repeats < 1:
        parser.error("give at least one LABEL=SRC, each label once, and --repeats >= 1")
    passes = {label: [] for label in sources}
    for _ in range(args.repeats):
        for label, src in sources.items():
            passes[label].append(_pass(src))
    import numpy

    record = {
        "scenario": dict(SCENARIO, seeds=[SEEDS.start, SEEDS.stop - 1]),
        "blas_threads": 1,
        "repeats": args.repeats,
        "provenance": {"cpu_model": _cpu_model(), "nproc": os.cpu_count(),
                       "python": platform.python_version(), "numpy": numpy.__version__},
        "sources": {},
    }
    for label, src in sources.items():
        runs = passes[label]
        record["sources"][label] = {
            "git_commit": _git_commit(src),
            "euler_batch": runs[0]["euler_batch"],
            "median_stages_ms": {k: statistics.median(r["stages_ms"][k] for r in runs)
                                 for k in STAGES},
            "median_sample_ms": statistics.median(r["sample_ms"] for r in runs),
            "median_command_s": statistics.median(r["command_s"] for r in runs),
            "passes": runs,
        }
    text = json.dumps(record, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(f"{'stage':<18}" + "".join(f"{label:>12}" for label in sources))
    for key in STAGES:
        print(f"{key + ' ms':<18}" + "".join(
            f"{record['sources'][label]['median_stages_ms'][key]:>12.3f}" for label in sources))
    for key, fmt in (("median_sample_ms", "sample ms"), ("median_command_s", "command s")):
        print(f"{fmt:<18}" + "".join(
            f"{record['sources'][label][key]:>12.3f}" for label in sources))
    if not args.out:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
