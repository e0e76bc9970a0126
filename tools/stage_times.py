"""Per-stage cost of a `chaosde` scenario, for one or more source trees
measured side by side.

Usage (from the root of a checkout):

    python3 tools/stage_times.py LABEL=SRC [LABEL=SRC ...] [--scenario NAME ...]
                                 [--ensemble-M M] [--ensemble-q Q] [--simulate-n N]
                                 [--repeats R] [--out FILE]

SRC is a directory holding the `chaosde` package (the `src` directory of a
checkout).  Each pass runs in a fresh interpreter with one BLAS thread.
The scenarios are the benchmark's two workloads:

ensemble-elliptic (the default): one `chaosde density` command, elliptic-2d,
q = 1, H = 0.7, n = 256, L = 8, 128 steps to T = 1, `run.M` 100 from
`run.seed` 5 (the benchmark's size; `--ensemble-M` sets another, such as
4096, where the per-sample cost dominates the command, and `--ensemble-q`
another order: at q >= 2 DF depends on the draw), run in process after
one untimed warm-up command of the same size.  A pass times the
command's eight stages by wrapping the names it calls them by, so every
source tree runs its own, unchanged command: draw (each step of
`density.draw_blocks`, a block's draws and their coordinates),
projections, driver values and DF (the `GridDriver.projections`,
`values` and `deriv_vectors` methods, wrapped on the class; a tree
whose `GridDriver` has no `projections` forms them inside the other
two, and reads 0 there), Euler, Theta, DX and Gram
(`density.solve_euler`, `solve_theta_all`, `solution_derivative` and
`malliavin_matrix`).  Euler and the projections are one call per block
of draws, Theta, DF, DX and Gram one call per sub-block
(`density.SUB_BLOCK` draws at most).  Each stage is its total over the
command, in milliseconds per sample, and `sample_ms` their sum;
`command_s` is the whole command and `command_sample_ms` its time per
sample.  The rest of the command (the build, the KDE, the output files
and the bookkeeping of the rows) is in no stage.

drivers-q3: one `chaosde simulate` command, q = 3, H = 0.7, m = 1, n =
160, L = 8, s_nodes = 64, out_times 0.25, 0.5, 1, seeds 5-204 (the
benchmark's size; `--simulate-n` sets another n, such as 256, the default
grid), run in process as the first command of the interpreter. A pass
times its four stages in seconds, wrapping names as above:
`build_kernels`, `simulate_paths`, writing `driver.csv` and writing
`kernels.txt` (each file from opening to closing), the whole command, and
the peak resident memory of the pass. The `kernels.txt` stage is split in
two: `kernel_entries`, the time spent computing each output time's
canonical entries (the steps of the generator `hermite._canonical_blocks`:
per row block of i_1, its tiles of tail products and one GEMM per tile),
and `kernel_text`, the rest (laying out the labels, the zero filter,
formatting and writing the lines). After the timed command, and after its
peak resident memory is read, the pass calls `hermite.export_kernels` once
more on the command's kernel field, into a null stream with `tracemalloc`
on: `kernels_traced_mb`, the peak traced allocation of the kernels.txt
stage.

Every pass of either scenario also records `import_s`: the wall time from
just before its child interpreter is spawned to the end of the child's
`import chaosde.cli`, which runs before anything else in the child imports
numpy.  That is the start-up every command pays.  A wrapper costs about
half a microsecond per call, some 2 us of an ensemble sample's 0.4 ms.

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

ENSEMBLE = {"process": {"q": 1, "H": 0.7, "m": 2, "n": 256, "L": 8.0},
            "sde": {"preset": "elliptic-2d", "steps": 128, "T": 1.0},
            "run": {"M": 100, "seed": 5}}
STAGES = ("draw", "projections", "driver_values", "euler", "df", "theta", "dx", "gram")
SIMULATE = {"process": {"q": 3, "H": 0.7, "m": 1, "n": 160, "L": 8.0, "s_nodes": 64},
            "run": {"M": 200, "seed": 5, "out_times": [0.25, 0.5, 1.0]}}
SIMULATE_STAGES = ("build_kernels", "simulate_paths", "driver.csv", "kernels.txt",
                   "kernel_entries", "kernel_text")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def timed(stages: dict, stage: str, fn):
    """fn, adding the time of each call to stages[stage]."""
    def run(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            stages[stage] += time.perf_counter() - start
    return run


def timed_blocks(stages: dict, stage: str, fn):
    """The generator function fn, adding the time of each step to
    stages[stage]: a generator's work is done in its steps, not its call."""
    def run(*args, **kwargs):
        blocks = fn(*args, **kwargs)
        while True:
            start = time.perf_counter()
            try:
                block = next(blocks)
            except StopIteration:
                return
            finally:
                stages[stage] += time.perf_counter() - start
            yield block
    return run


def run_command(command: str, cfg: dict) -> float:
    """Seconds of one `chaosde COMMAND` on cfg, run in process through
    `cli.main` with one worker, its output written to a temporary directory
    and its stdout dropped."""
    import contextlib
    import io

    from chaosde import cli

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        argv = [command, "--config", path, "--out", os.path.join(tmp, "out"), "--workers", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            rc = cli.main(argv)
            seconds = time.perf_counter() - start
    if rc != 0:
        raise RuntimeError(f"chaosde {command} exited {rc}")
    return seconds


def measure_ensemble() -> dict:
    """One `chaosde density` command on ENSEMBLE with its eight stages
    timed, after an untimed warm-up command (run in a child)."""
    from chaosde import density, hermite

    stages = dict.fromkeys(STAGES, 0.0)
    density.draw_blocks = timed_blocks(stages, "draw", density.draw_blocks)
    for stage, name in (("euler", "solve_euler"), ("theta", "solve_theta_all"),
                        ("dx", "solution_derivative"), ("gram", "malliavin_matrix")):
        setattr(density, name, timed(stages, stage, getattr(density, name)))
    for stage, name in (("projections", "projections"), ("driver_values", "values"),
                        ("df", "deriv_vectors")):
        if hasattr(hermite.GridDriver, name):
            setattr(hermite.GridDriver, name,
                    timed(stages, stage, getattr(hermite.GridDriver, name)))
    run_command("density", ENSEMBLE)
    stages.update(dict.fromkeys(STAGES, 0.0))
    command_s = run_command("density", ENSEMBLE)
    M = ENSEMBLE["run"]["M"]
    stages_ms = {k: 1e3 * v / M for k, v in stages.items()}
    return {"stages_ms": stages_ms, "sample_ms": sum(stages_ms.values()),
            "command_s": command_s, "command_sample_ms": 1e3 * command_s / M}


def measure_simulate() -> dict:
    """One `chaosde simulate` command on SIMULATE with its stages timed, as
    the first command of its interpreter (run in a child)."""
    import contextlib
    import resource
    import tracemalloc

    from chaosde import cli, hermite

    stages = dict.fromkeys(SIMULATE_STAGES, 0.0)

    def timed_output(output):
        # an output file from opening to closing
        @contextlib.contextmanager
        def run(cfg, name, *args, **kwargs):
            start = time.perf_counter()
            with output(cfg, name, *args, **kwargs) as fh:
                yield fh
            stages[name] += time.perf_counter() - start
        return run

    build_kernels = cli.build_kernels
    fields = []

    def build_and_keep(*args, **kwargs):
        fields.append(build_kernels(*args, **kwargs))
        return fields[-1]

    cli.build_kernels = timed(stages, "build_kernels", build_and_keep)
    cli.simulate_paths = timed(stages, "simulate_paths", cli.simulate_paths)
    cli._output = timed_output(cli._output)
    # looked up by export_kernels at each call
    hermite._canonical_blocks = timed_blocks(stages, "kernel_entries",
                                             hermite._canonical_blocks)
    command_s = run_command("simulate", SIMULATE)
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
#: configuration)
SCENARIOS = {
    "ensemble-elliptic": (measure_ensemble, "stages_ms", STAGES,
                          ("import_s", "sample_ms", "command_sample_ms", "command_s"), ENSEMBLE),
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
                          "--ensemble-M", str(ENSEMBLE["run"]["M"]),
                          "--ensemble-q", str(ENSEMBLE["process"]["q"]),
                          "--simulate-n", str(SIMULATE["process"]["n"]),
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
    parser.add_argument("--ensemble-M", type=int, default=ENSEMBLE["run"]["M"],
                        help="run.M of the ensemble scenario (default %(default)s)")
    parser.add_argument("--ensemble-q", type=int, default=ENSEMBLE["process"]["q"],
                        help="process.q of the ensemble scenario (default %(default)s)")
    parser.add_argument("--simulate-n", type=int, default=SIMULATE["process"]["n"],
                        help="process.n of the drivers-q3 scenario (default %(default)s)")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", default=None, help="write the JSON record here")
    parser.add_argument("--child", choices=sorted(SCENARIOS), help=argparse.SUPPRESS)
    parser.add_argument("--started", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    ENSEMBLE["run"]["M"] = args.ensemble_M
    ENSEMBLE["process"]["q"] = args.ensemble_q
    SIMULATE["process"]["n"] = args.simulate_n
    if args.child:
        import chaosde.cli  # noqa: F401  the child's first numpy import

        import_s = time.time() - args.started
        print(json.dumps(dict(SCENARIOS[args.child][0](), import_s=import_s)))
        return 0
    sources = dict(item.split("=", 1) for item in args.sources if "=" in item)
    if not sources or len(sources) != len(args.sources) or args.repeats < 1:
        parser.error("give at least one LABEL=SRC, each label once, and --repeats >= 1")
    if args.ensemble_M < 100:
        parser.error("--ensemble-M must be at least 100, the smallest ensemble the KDE takes")
    if not 1 <= args.ensemble_q <= 3:
        parser.error("--ensemble-q must be 1, 2 or 3")
    if args.simulate_n < 1:
        parser.error("--simulate-n must be positive")
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
