"""Benchmark of the chaosde command line, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every `chaosde` command runs in a fresh interpreter (perfbench/worker.py)
through `chaosde.cli.main`, on a configuration generated from the workload
and the seed.  With --trace 0 the run measures the end-to-end metrics: it
launches a few import-only processes for the set-up time, then commands
until the next one would end after S seconds.  With --trace 1 it runs the
first command of the run once untraced and twice traced; the traced runs
give the per-layer metrics and must repeat their exact counters.  Both
modes then run the workload's correctness gates (perfbench/gates.py) in
another fresh process, outside the timed phase.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full record of the run,
with provenance, goes to perfbench/out/results/.  Exit status: 0 when every
command and gate succeeded, 1 when one failed or the program is missing,
2 for invalid arguments.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

#: BLAS threads of every child process: one thread keeps the figures steady
#: on a shared machine and matches the single-worker commands.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: import-only launches per timed run, besides the command launches
SETUP_LAUNCHES = 5
#: the run gives up on any process still running this long after it started
DEADLINE_S = 170.0
#: allowed gap between the summed self times and the traced command time
ACCOUNTING_REL, ACCOUNTING_ABS = 0.01, 0.005


class BenchmarkError(Exception):
    """The run cannot produce a result (missing program, timeout)."""


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Launcher:
    """Starts worker processes one at a time and collects their results."""

    def __init__(self, wl, seed: int, work: str, deadline: float):
        self.wl, self.seed, self.work, self.deadline = wl, seed, work, deadline
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.env.update({name: str(BLAS_THREADS) for name in BLAS_ENV})

    def launch(self, tag: str, role: str, trace: bool = False, **job) -> dict | None:
        """Run one worker; None if it failed.  Failures print the log to stderr."""
        job.update(role=role, trace=trace, src=SRC,
                   result=os.path.join(self.work, tag + ".result.json"))
        job_path = os.path.join(self.work, tag + ".job.json")
        log_path = os.path.join(self.work, tag + ".log")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchmarkError(f"time limit reached before {tag}")
        start = _now_ns()
        with open(log_path, "w") as log:
            proc = subprocess.Popen([sys.executable, WORKER, job_path], cwd=ROOT,
                                    env=self.env, stdout=log, stderr=subprocess.STDOUT)
            try:
                rc = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchmarkError(f"{tag} did not end within the time limit")
        end = _now_ns()
        result = None
        if rc == 0 and os.path.exists(job["result"]):
            with open(job["result"]) as fh:
                result = json.load(fh)
        if result is None or result.get("rc", 0) != 0:
            with open(log_path) as fh:
                sys.stderr.write(f"{tag} failed (worker exit {rc}):\n{fh.read()[-4000:]}\n")
        if result is None:
            return None
        result["setup_s"] = (result["ready_ns"] - start) / 1e9
        result["elapsed_s"] = (end - start) / 1e9
        return result

    def command(self, tag: str, index: int, trace: bool = False) -> dict:
        seed = workloads.command_seed(self.seed, self.wl, index)
        out_dir = os.path.join(self.work, tag)
        config = os.path.join(self.work, tag + ".config.json")
        workloads.write_config(self.wl, config, seed, out_dir)
        result = self.launch(tag, "command", trace, out_dir=out_dir,
                             argv=workloads.argv(self.wl, config))
        record = {"seed": seed, "out_dir": out_dir, "rc": None}
        if result is not None:
            record.update(result)
        return record

    def gates(self, commands: list, trace: bool) -> dict:
        ok = [c for c in commands if c["rc"] == 0]
        if not ok:
            return {"checks": [{"name": "gates", "ok": False,
                                "detail": "no command succeeded"}], "excluded_seeds": 0}
        result = self.launch("gate", "gate", trace, workload=self.wl.name,
                             commands=[{"seed": c["seed"], "out_dir": c["out_dir"]} for c in ok],
                             work_dir=os.path.join(self.work, "gate"))
        if result is None:
            return {"checks": [{"name": "gates", "ok": False,
                                "detail": "the gate process failed"}], "excluded_seeds": 0}
        return result


def timed_run(launcher: Launcher, seconds: int):
    """Set-up launches, then commands for `seconds`; returns (setups, commands)."""
    setups = []
    for i in range(SETUP_LAUNCHES):
        result = launcher.launch(f"setup-{i}", "setup")
        if result is None:
            raise BenchmarkError("chaosde.cli could not be imported")
        setups.append(result["setup_s"])
    commands = []
    start = time.monotonic()
    while len(commands) < workloads.MAX_COMMANDS:
        if commands:
            per_command = statistics.fmean(c.get("elapsed_s", 0.0) for c in commands)
            if time.monotonic() - start + per_command > seconds:
                break
        commands.append(launcher.command(f"cmd-{len(commands)}", len(commands)))
    return setups, commands


def end_to_end(wl, setups, commands, failed, attempted) -> dict:
    done = [c for c in commands if c["rc"] == 0]
    walls = [c["wall_s"] for c in done]
    values = {
        "wall_s": statistics.median(walls) if walls else 0.0,
        "samples_per_s": (len(done) * wl.seeds_per_command / sum(walls)) if walls else 0.0,
        "setup_s": statistics.median(setups + [c["setup_s"] for c in done]),
        "peak_rss_mb": (statistics.median(c["maxrss_kb"] for c in done) * 1024 / 1e6
                        if done else 0.0),
        "ok_fraction": 1.0 - failed / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in workloads.END_TO_END}


def _totals(command) -> dict:
    """Spans and counters of one traced command."""
    trace = command["trace"]
    counters = dict(trace["counters"], **{"cli.output_bytes": command.get("output_bytes", 0)})
    return {"calls": trace["calls"], "self_s": trace["self_s"], "counters": counters,
            "wall_s": command["wall_s"]}


def _layer_value(name: str, totals: dict):
    if name.endswith(".calls"):
        return totals["calls"].get(name[: -len(".calls")], 0)
    if name.endswith(".self_s"):
        return totals["self_s"].get(name[: -len(".self_s")], 0.0)
    return totals["counters"].get(name, 0)


def traced_run(launcher: Launcher):
    """The first command of the run once untraced and twice traced."""
    untraced = launcher.command("plain", 0)
    traced = [launcher.command(f"traced-{p}", 0, trace=True) for p in (0, 1)]
    return untraced, traced


def trace_checks(wl, traced, gate_trace) -> list:
    first, second = (_totals(c) for c in traced)
    checks = []
    exact = {name: (_layer_value(name, first), _layer_value(name, second))
             for name in workloads.EXACT_COUNTERS}
    exact.update({f"{name}.calls": (n, second["calls"].get(name, 0))
                  for name, n in first["calls"].items()})
    differ = {name: pair for name, pair in exact.items() if pair[0] != pair[1]}
    checks.append({"name": "exact_counters", "ok": not differ,
                   "detail": f"counters that differ between the traced runs: {differ}"})
    missing = [s for s in wl.covered if not first["calls"].get(s)]
    missing += [f"{s} (gate)" for s in wl.gate_covered if not gate_trace["calls"].get(s)]
    stray = [s for s in wl.bypassed if first["calls"].get(s)]
    checks.append({"name": "layer_coverage", "ok": not missing and not stray,
                   "detail": f"layers without work: {missing}; bypassed layers that ran: {stray}"})
    gaps = [abs(sum(t["self_s"].values()) - t["wall_s"]) for t in (first, second)]
    limits = [ACCOUNTING_REL * t["wall_s"] + ACCOUNTING_ABS for t in (first, second)]
    checks.append({"name": "self_time_accounting",
                   "ok": all(g <= lim for g, lim in zip(gaps, limits)),
                   "detail": (f"|sum of self times - command time| per traced command: "
                              f"{[round(g, 6) for g in gaps]} s, allowed "
                              f"{ACCOUNTING_REL:g} x time + {ACCOUNTING_ABS:g} s")})
    return checks


def per_layer(untraced, traced, gate_trace) -> dict:
    totals = [_totals(c) for c in traced]
    values = {}
    for name, _ in workloads.PER_LAYER:
        if name.startswith("chaos."):
            # no workload command evaluates a Taylor shift; the drivers-q3
            # gate does, and its traced run is the one recorded
            values[name] = _layer_value(name, dict(gate_trace, counters={}))
        elif name.endswith(".self_s"):
            values[name] = statistics.fmean(_layer_value(name, t) for t in totals)
        else:
            values[name] = _layer_value(name, totals[0])
    values["trace.overhead_s"] = (statistics.fmean(t["wall_s"] for t in totals)
                                  - untraced["wall_s"])
    return {name: {"value": values[name], "unit": unit} for name, unit in workloads.PER_LAYER}


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), None)
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    indexes = os.listdir(cache_dir) if os.path.isdir(cache_dir) else []
    for index in sorted(i for i in indexes if i.startswith("index")):
        base = os.path.join(cache_dir, index)
        level, kind = _read(os.path.join(base, "level")).strip(), _read(
            os.path.join(base, "type")).strip()
        caches[f"L{level} {kind}"] = _read(os.path.join(base, "size")).strip()
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "chaosde")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    span = workloads.seed_span(wl)
    if not 0 <= args.seed or args.seed + span >= 2**64:
        parser.error(f"--seed must satisfy 0 <= seed and seed + {span} < 2**64 "
                     f"(a run may use {span} program seeds)")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args, wl


def _report(wl, args, metrics, commands, gates, failed, attempted):
    print(f"chaosde benchmark: workload {wl.name}, seed {args.seed}, trace {args.trace}, "
          f"{len(commands)} command(s) of {wl.seeds_per_command} seed(s)")
    for name, m in metrics.items():
        note = " (computed from array sizes)" if name in workloads.COMPUTED else ""
        print(f"  {name:<42} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'failed_fraction':<42} {failed / attempted:.6g} 1 "
          f"({failed} of {attempted} operations)")
    for check in gates["checks"]:
        print(f"  gate {check['name']}: {'ok' if check['ok'] else 'FAILED'} - "
              f"{check['detail'].splitlines()[-1] if check['detail'] else ''}")


def main(argv=None) -> int:
    args, wl = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "chaosde", "cli.py")):
        print(f"no chaosde sources under {SRC}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + DEADLINE_S
    run_id = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, "work", run_id)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    launcher = Launcher(wl, args.seed, work, deadline)
    try:
        # first import in a fresh checkout compiles the byte code; not measured
        if launcher.launch("warmup", "setup") is None:
            raise BenchmarkError("chaosde.cli could not be imported")
        if args.trace:
            untraced, traced = traced_run(launcher)
            commands = [untraced] + traced
        else:
            setups, commands = timed_run(launcher, args.seconds)
        gates = launcher.gates(commands, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        # kernels.txt alone is tens of MB per command
        for entry in os.listdir(work) if os.path.isdir(work) else []:
            path = os.path.join(work, entry)
            if os.path.isdir(path):
                shutil.rmtree(path)

    no_gate_trace = {"calls": {}, "self_s": {}}
    traced_ok = args.trace and all(c["rc"] == 0 for c in commands)
    if traced_ok:
        gates["checks"] += trace_checks(wl, traced, gates.get("trace", no_gate_trace))
    attempted = len(commands) * wl.seeds_per_command + len(gates["checks"])
    failed = (sum(wl.seeds_per_command for c in commands if c["rc"] != 0)
              + gates["excluded_seeds"] + sum(not c["ok"] for c in gates["checks"]))
    if args.trace:
        metrics = per_layer(untraced, traced, gates.get("trace", no_gate_trace)) if traced_ok else {}
    else:
        metrics = end_to_end(wl, setups, commands, failed, attempted)

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(args.seed),
        "commands": commands, "gates": gates, "metrics": metrics,
        "attempted": attempted, "failed": failed,
    }
    if not args.trace:
        record["setup_launches_s"] = setups
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", run_id + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    _report(wl, args, metrics, commands, gates, failed, attempted)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
