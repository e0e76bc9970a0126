"""Per-stage cost of a `chaosde` scenario, for one or more source trees
measured side by side.

Usage (from the root of a checkout):

    python3 tools/stage_times.py LABEL=SRC [LABEL=SRC ...] [--scenario NAME ...]
                                 [--repeats R] [--out FILE]

SRC is a directory holding the `chaosde` package (the `src` directory of a
checkout).  Each pass runs in a fresh interpreter with one BLAS thread.
The scenarios are the benchmark's two workloads:

ensemble-elliptic (the default): elliptic-2d, q = 1, H = 0.7, n = 256,
L = 8, 128 steps to T = 1, seeds 5-104.  A pass times the seven stages of
every sample the way the ensemble runs them (`density._parallel_chunk`),
in milliseconds per sample.  Per block of `wiener.draw_blocks`: draw (the
block's draws and their coordinates), driver values (`GridDriver.values`
at the coordinates), Euler (`solve_euler`) and Theta (`solve_theta_all`).
Per sample: DF (`GridDriver.deriv_vectors` into the one DF buffer that
every sample fills), DX (`solution_derivative` on the sample's path) and
Gram (`malliavin_matrix`).  Every source must have this API.
The pass then times one whole `chaosde density` command on the same
scenario with `run.seed` 5 and `run.M` 100, in process: `command_s`, and
`command_sample_ms`, its time per sample, to set beside the stage sum
`sample_ms`.  `stage_faults` and `command_faults` count the minor page
faults (`ru_minflt`) of the pass's timed stage loop and of the command:
each is memory that the allocator handed back to the kernel and touches
again.

drivers-q3: one `chaosde simulate` command, q = 3, H = 0.7, m = 1,
n = 160, L = 8, s_nodes = 64, out_times 0.25, 0.5, 1, seeds 5-204, run in
process as the first command of the interpreter.  A pass times its four
stages in seconds: `build_kernels`, `simulate_paths`, writing `driver.csv`
and writing `kernels.txt` (each file from opening to closing), the whole
command, and the peak resident memory of the pass.  The `kernels.txt`
stage is split in two: `kernel_entries`, the time spent computing each
output time's canonical entries (the steps of the generator
`hermite._canonical_blocks`, one GEMM per row block of i_1), and
`kernel_text`, the rest (the zero filter, formatting and writing the
lines).  After the timed command, and after its peak resident memory is
read, the pass calls `hermite.export_kernels` once more on the command's
kernel field, into a null stream with `tracemalloc` on:
`kernels_traced_mb`, the peak traced allocation of the kernels.txt stage.

Every pass of either scenario also records `import_s`: the wall time from
just before its child interpreter is spawned to the end of the child's
`import chaosde.cli`, which runs before anything else in the child imports
numpy.  That is the start-up every command pays.

The passes alternate between the sources, R times each (default 7), so
that host drift hits every source alike; the report gives the median and
the minimum over the passes of each figure (`median_*` and `min_*`).  The
minimum is the less noisy of the two where allocator state or host load
inflate single passes.  The JSON record (stdout, or FILE with --out)
carries the per-pass figures and the provenance of the run; with
`--scenario` given more than once, the scenarios run one after the other
and the JSON maps each scenario to its record.
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
import time

ENSEMBLE = {"preset": "elliptic-2d", "q": 1, "H": 0.7, "t": 1.0, "steps": 128, "n": 256,
            "L": 8.0}
SEEDS = range(5, 105)
STAGES = ("draw", "driver_values", "euler", "df", "theta", "dx", "gram")
SIMULATE = {"process": {"q": 3, "H": 0.7, "m": 1, "n": 160, "L": 8.0, "s_nodes": 64},
            "run": {"M": 200, "seed": 5, "out_times": [0.25, 0.5, 1.0]}}
SIMULATE_STAGES = ("build_kernels", "simulate_paths", "driver.csv", "kernels.txt",
                   "kernel_entries", "kernel_text")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def measure_ensemble() -> dict:
    """One pass over SEEDS with the chaosde on sys.path (run in a child)."""
    import contextlib
    import io
    import resource
    import time

    import numpy as np
    from chaosde import cli, density
    from chaosde.malliavin import malliavin_matrix, solution_derivative
    from chaosde.sde import solve_euler, solve_theta_all
    from chaosde.wiener import draw_blocks

    scenario = density.Scenario(**ENSEMBLE)
    coeffs, x0, spec, driver = scenario.build()
    dfields = np.zeros((ENSEMBLE["steps"] + 1, coeffs.m, spec.space.n))
    clock = time.perf_counter

    def timed(stage, fn, *args, **kwargs):
        start = clock()
        out = fn(*args, **kwargs)
        totals[stage] += clock() - start
        return out

    def faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    seeds = list(SEEDS)
    for first in (True, False):  # a warm-up pass over one block, then the timed pass
        totals = dict.fromkeys(STAGES, 0.0)
        stage_faults = faults()
        blocks = draw_blocks(spec.space, seeds)
        while block := timed("draw", next, blocks, None):
            draws, xi = block
            values = timed("driver_values", driver.values, xi)
            batch = timed("euler", solve_euler, coeffs, x0, (driver.times, values))
            timed("theta", solve_theta_all, coeffs, batch)
            for k in range(len(draws)):
                path = batch.path(k)
                timed("df", driver.deriv_vectors, xi[k], out=dfields)
                mf = timed("dx", solution_derivative, coeffs, path, dfields, spec.space)
                timed("gram", malliavin_matrix, mf)
            if first:
                break
    stage_faults = faults() - stage_faults
    stages_ms = {k: 1e3 * v / len(seeds) for k, v in totals.items()}

    cfg = {"process": {"q": ENSEMBLE["q"], "H": ENSEMBLE["H"], "m": coeffs.m,
                       "n": ENSEMBLE["n"], "L": ENSEMBLE["L"]},
           "sde": {"preset": ENSEMBLE["preset"], "steps": ENSEMBLE["steps"],
                   "T": ENSEMBLE["t"]},
           "run": {"M": len(seeds), "seed": seeds[0]}}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        argv = ["density", "--config", path, "--out", os.path.join(tmp, "out"),
                "--workers", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            command_faults = faults()
            start = clock()
            rc = cli.main(argv)
            command_s = clock() - start
            command_faults = faults() - command_faults
    if rc != 0:
        raise RuntimeError(f"chaosde density exited {rc}")
    return {"stages_ms": stages_ms, "sample_ms": sum(stages_ms.values()),
            "command_s": command_s, "command_sample_ms": 1e3 * command_s / len(seeds),
            "stage_faults": stage_faults, "command_faults": command_faults}


def measure_simulate() -> dict:
    """One `chaosde simulate` command with its stages timed (run in a child).

    The stages are timed by wrapping the names the command calls them by,
    so every source tree runs its own, unchanged command."""
    import contextlib
    import io
    import resource
    import time
    import tracemalloc

    from chaosde import cli, hermite

    clock = time.perf_counter
    stages = dict.fromkeys(SIMULATE_STAGES, 0.0)

    def timed(stage, fn):
        def run(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stages[stage] += clock() - start
        return run

    def timed_blocks(stage, fn):
        # a generator of blocks: its time is spent in each step
        def run(*args, **kwargs):
            blocks = fn(*args, **kwargs)
            while True:
                start = clock()
                try:
                    block = next(blocks)
                except StopIteration:
                    return
                finally:
                    stages[stage] += clock() - start
                yield block
        return run

    def timed_output(output):
        @contextlib.contextmanager
        def run(cfg, name, *args, **kwargs):
            start = clock()
            with output(cfg, name, *args, **kwargs) as fh:
                yield fh
            stages[name] += clock() - start
        return run

    build_kernels = cli.build_kernels
    fields = []

    def build_and_keep(*args, **kwargs):
        fields.append(build_kernels(*args, **kwargs))
        return fields[-1]

    cli.build_kernels = timed("build_kernels", build_and_keep)
    cli.simulate_paths = timed("simulate_paths", cli.simulate_paths)
    cli._output = timed_output(cli._output)
    # looked up by export_kernels at each call
    hermite._canonical_blocks = timed_blocks("kernel_entries", hermite._canonical_blocks)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(dict(SIMULATE, output={"directory": os.path.join(tmp, "out")}), fh)
        with contextlib.redirect_stdout(io.StringIO()):
            start = clock()
            rc = cli.main(["simulate", "--config", path, "--workers", "1"])
            command_s = clock() - start
    if rc != 0:
        raise RuntimeError(f"chaosde simulate exited {rc}")
    stages["kernel_text"] = stages["kernels.txt"] - stages["kernel_entries"]
    timings = dict(stages)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # the kernels.txt stage once more, out of the timings, on the command's
    # field (its per-field caches built) into a null stream, with
    # allocations traced
    with open(os.devnull, "wb") as null:
        tracemalloc.start()
        try:
            hermite.export_kernels(fields[-1], null)
            kernels_traced_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    return {"stages_s": timings, "command_s": command_s, "peak_rss_mb": peak_rss_mb,
            "kernels_traced_mb": kernels_traced_mb}


#: scenario -> (child measurement, per-pass stage key, stages, per-pass totals,
#: record of the setting)
SCENARIOS = {
    "ensemble-elliptic": (measure_ensemble, "stages_ms", STAGES,
                          ("import_s", "sample_ms", "command_sample_ms", "command_s",
                           "stage_faults", "command_faults"),
                          dict(ENSEMBLE, seeds=[SEEDS.start, SEEDS.stop - 1])),
    "drivers-q3": (measure_simulate, "stages_s", SIMULATE_STAGES,
                   ("import_s", "command_s", "peak_rss_mb", "kernels_traced_mb"), SIMULATE),
}


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


def _pass(src: str, scenario: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.update({name: "1" for name in BLAS_ENV})
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", scenario,
                          "--started", repr(time.time())],
                         env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def _record(scenario: str, sources: dict, repeats: int) -> dict:
    """Alternating passes of one scenario over the sources: the JSON record,
    with a table of the medians printed to stdout."""
    _, stage_key, stages, totals, setting = SCENARIOS[scenario]
    passes = {label: [] for label in sources}
    for _ in range(repeats):
        for label, src in sources.items():
            passes[label].append(_pass(src, scenario))
    import numpy

    record = {
        "scenario": scenario,
        "setting": setting,
        "blas_threads": 1,
        "repeats": repeats,
        "provenance": {"cpu_model": _cpu_model(), "nproc": os.cpu_count(),
                       "python": platform.python_version(), "numpy": numpy.__version__},
        "sources": {},
    }
    for label, src in sources.items():
        runs = passes[label]
        entry = {"git_commit": _git_commit(src)}
        for name, stat in (("median_", statistics.median), ("min_", min)):
            entry[name + stage_key] = {k: stat(r[stage_key][k] for r in runs) for k in stages}
            entry.update({name + key: stat(r[key] for r in runs) for key in totals})
        entry["passes"] = runs
        record["sources"][label] = entry
    unit = stage_key.split("_")[1]
    columns = [(label, name) for label in sources for name in ("median_", "min_")]
    print(f"{scenario:<22}" + "".join(f"{label + ' ' + name[:-1]:>16}"
                                      for label, name in columns))
    for key in stages:
        print(f"{key + ' ' + unit:<22}" + "".join(
            f"{record['sources'][label][name + stage_key][key]:>16.3f}"
            for label, name in columns))
    for key in totals:
        print(f"{key.replace('_', ' '):<22}" + "".join(
            f"{record['sources'][label][name + key]:>16.3f}" for label, name in columns))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sources", nargs="*", metavar="LABEL=SRC")
    parser.add_argument("--scenario", choices=sorted(SCENARIOS), action="append",
                        help="scenario to time (default ensemble-elliptic); repeat for more")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", default=None, help="write the JSON record here")
    parser.add_argument("--child", choices=sorted(SCENARIOS), help=argparse.SUPPRESS)
    parser.add_argument("--started", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        import chaosde.cli  # noqa: F401  the child's first numpy import

        import_s = time.time() - args.started
        print(json.dumps(dict(SCENARIOS[args.child][0](), import_s=import_s)))
        return 0
    sources = dict(item.split("=", 1) for item in args.sources if "=" in item)
    if not sources or len(sources) != len(args.sources) or args.repeats < 1:
        parser.error("give at least one LABEL=SRC, each label once, and --repeats >= 1")
    scenarios = args.scenario or ["ensemble-elliptic"]
    records = {name: _record(name, sources, args.repeats) for name in scenarios}
    text = json.dumps(records[scenarios[0]] if len(scenarios) == 1 else records, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
