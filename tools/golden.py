"""Golden outputs of the six `chaosde` commands: for each run, its exit
code and the sha256 of its stdout, its stderr and every file it wrote, so
that a change can show that it kept every byte, or list the entries it
changed.

Usage (from the root of a checkout):

    python3 tools/golden.py            # compare with tests/golden.json
    python3 tools/golden.py --record   # list the changes, then rewrite tests/golden.json

Each run calls `chaosde.cli.main` in process with `--workers 1`, its
config and `--out` in a fresh temporary directory.  The temporary
directory is replaced by `<tmp>` in stdout and stderr (`wrote ...` names
the output directory), and the library version by `<version>` in each
file's header line, whose `config=` hash is kept.  Warnings are recorded
by message.  Every valid configuration below runs all six commands, each
at n <= 64 and <= 32 Euler steps; every invalid one, with one fault each,
runs `check`.  The record also holds numpy's version and BLAS: the q >= 2
files depend on the BLAS kernels, so a record holds for the numpy and BLAS
it names.  `tests/test_golden.py` runs the same list and compares.
A change that re-records the file lists each changed entry, with its
reason, in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile
import warnings

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"
COMMANDS = ("simulate", "check", "solve", "malliavin", "density", "selfsim")

#: every command runs on each of these
VALID = {
    "elliptic-q1": {"process": {"q": 1, "n": 64, "L": 4.0},
                    "sde": {"preset": "elliptic-2d", "steps": 32}, "run": {"M": 100}},
    "elliptic-q2": {"process": {"q": 2, "n": 32, "L": 4.0, "s_nodes": 16},
                    "sde": {"preset": "elliptic-2d", "steps": 24},
                    "run": {"M": 100, "seed": 7, "eps": [0.1, 0.01]}},
    "rank1-q2": {"process": {"q": 2, "H": 0.8, "n": 40, "L": 4.0, "s_nodes": 12},
                 "sde": {"preset": "rank1-2d", "steps": 16}, "run": {"M": 100, "seed": 3}},
    "linear-q1": {"process": {"q": 1, "H": 0.6, "n": 48, "L": 2.0},
                  "sde": {"preset": "linear-scalar", "x0": [0.5], "steps": 32, "T": 0.5},
                  "run": {"M": 100, "out_times": [0.5], "t": 0.5, "epsilon_window": 0.2}},
    "additive-q3": {"process": {"q": 3, "n": 24, "L": 4.0, "s_nodes": 8},
                    "sde": {"preset": "additive", "steps": 16},
                    "run": {"M": 100, "seed": 11, "out_times": [0.5, 1.0],
                            "epsilon_window": 0.5}},
    # two noise components: simulate's driver.csv has a column per component
    "elliptic-m2-q2": {"process": {"q": 2, "m": 2, "n": 48, "L": 4.0, "s_nodes": 64},
                       "sde": {"preset": "elliptic-2d", "steps": 16},
                       "run": {"M": 100, "seed": 13, "out_times": [0.25, 0.5, 1.0]}},
    # every seed's path overflows: solve and malliavin exit 3, density
    # reports every seed excluded
    "linear-all-excluded": {"process": {"q": 1, "n": 32, "L": 4.0},
                            "sde": {"preset": "linear-scalar", "x0": [1.797e308], "steps": 16},
                            "run": {"M": 100}},
    "horizon-1e100": {"process": {"q": 1, "n": 32, "L": 4.0},
                      "sde": {"preset": "elliptic-2d", "steps": 16, "T": 1e100},
                      "run": {"M": 100}},
}

#: one fault each: `check` runs on each of these
INVALID = {
    "unknown-top-level-key": {"foo": 1},
    "wrong-type": {"process": {"n": "many"}},
    "out-of-range": {"process": {"H": 0.4}},
    "x0-wrong-length": {"sde": {"preset": "elliptic-2d", "x0": [1.0]}},
    "window-not-below-t": {"run": {"t": 0.5, "epsilon_window": 0.5}},
    "seed-past-2^64": {"run": {"M": 100, "seed": 2**64 - 199}},
    # rejected although --out overrides it
    "directory-not-a-string": {"output": {"directory": 5}},
}


def runs():
    """(name, command, configuration) of every run, in record order."""
    for name, cfg in VALID.items():
        for command in COMMANDS:
            yield f"{command}/{name}", command, cfg
    for name, cfg in INVALID.items():
        yield f"check/{name}", "check", cfg


def environment() -> dict:
    """numpy's version and the BLAS it was built against."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(command: str, cfg: dict) -> dict:
    """The exit code, warnings and hashes of one `chaosde COMMAND` on cfg."""
    from chaosde import __version__, cli

    version = f"# chaosde {__version__} ".encode()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out_dir = pathlib.Path(tmp, "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = cli.main([command, "--config", path, "--out", str(out_dir),
                             "--workers", "1"])
        files = {}
        for file in sorted(out_dir.glob("*")):
            header, rest = file.read_bytes().split(b"\n", 1)
            files[file.name] = _sha(header.replace(version, b"# chaosde <version> ", 1)
                                    + b"\n" + rest)
    return {"exit": code,
            "stdout": _sha(stdout.getvalue().replace(tmp, "<tmp>").encode()),
            "stderr": _sha(stderr.getvalue().replace(tmp, "<tmp>").encode()),
            "warnings": [str(w.message) for w in caught],
            "files": files}


def record() -> dict:
    return {"environment": environment(),
            "runs": {name: run(command, cfg) for name, command, cfg in runs()}}


def differences(want: dict, got: dict) -> list:
    """One line per run whose entry differs, naming the fields that do."""
    lines = []
    for name in sorted(set(want) | set(got)):
        if name not in want or name not in got:
            lines.append(f"{name}: only in the {'new' if name in got else 'recorded'} runs")
            continue
        fields = sorted(k for k in set(want[name]) | set(got[name])
                        if want[name].get(k) != got[name].get(k))
        if fields:
            lines.append(f"{name}: {', '.join(fields)} differ "
                         f"(recorded {[want[name].get(k) for k in fields]}, "
                         f"now {[got[name].get(k) for k in fields]})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true", help=f"rewrite {GOLDEN}")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    new = record()
    old = json.loads(GOLDEN.read_text())
    lines = differences(old["runs"], new["runs"])
    if old["environment"] != new["environment"]:
        lines.insert(0, f"recorded on {old['environment']}, run on {new['environment']}")
    print("\n".join(lines) or f"all {len(new['runs'])} runs match")
    if args.record:
        GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(new['runs'])} runs in {GOLDEN}")
        return 0
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
