"""One fresh interpreter of the benchmark: import chaosde, then do one job.

Usage: python3 perfbench/worker.py JOB.json

The job file names the role (`setup`: import only; `command`: one
`chaosde.cli.main` call; `gate`: the workload's correctness gates), whether
to trace, and where to write the result.  The first thing the worker does
is import `chaosde.cli`; the monotonic clock reading right after that
import, compared with the launcher's reading before it started the process,
is the set-up time.
"""

import json
import os
import sys
import time

import chaosde.cli

READY_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import resource  # noqa: E402
import traceback  # noqa: E402

import tracer as tracing  # noqa: E402


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


def _run_command(job, tracer) -> dict:
    main = chaosde.cli.main
    if tracer is not None:
        main = tracer.wrap(tracing.ROOT, main)
    start = time.perf_counter()
    try:
        rc = main(job["argv"])
    except Exception:  # an uncaught error is a failed command, not a crash here
        traceback.print_exc()
        rc = None
    wall = time.perf_counter() - start
    out = {"rc": rc, "wall_s": wall}
    if os.path.isdir(job["out_dir"]):
        out["output_bytes"] = _dir_bytes(job["out_dir"])
    return out


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    src = os.path.realpath(job["src"])
    if not os.path.realpath(chaosde.cli.__file__).startswith(src + os.sep):
        print(f"chaosde was imported from {chaosde.cli.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    result = {"ready_ns": READY_NS}
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    if job["role"] == "command":
        result.update(_run_command(job, tracer))
    elif job["role"] == "gate":
        import gates

        result.update(gates.run(job))
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
