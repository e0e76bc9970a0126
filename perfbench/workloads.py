"""The benchmark's workloads and metric catalogue.

Each workload is one `chaosde` command on a fixed configuration.  The
benchmark seed reaches the program only as `run.seed` in the generated
configuration file: command i of a run starts at seed + i * seeds_per_command.

Two workloads share the layers between them: the ensemble runs the SDE,
Young, Malliavin and density layers on GridDriver paths, the order-3 driver
dump runs the dense kernels and the output path.  A third, `chaosde
malliavin` on one 512-step path, was left out: on a shared 2-vCPU virtual
machine its run-to-run quartile spread was 19-20% of the median in both
ten-run sets, close to the 25% bound; these two ranged from 9% to 21%.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass

#: spans whose calls mean the SDE pipeline of an ensemble sample ran
SDE_PIPELINE = (
    "hermite.GridDriver.init", "hermite.GridDriver.values",
    "hermite.GridDriver.deriv_vectors", "sde.solve_euler", "sde.solve_theta_all",
    "young.rs_integral_hvalued", "malliavin.solution_derivative",
    "malliavin.malliavin_matrix",
)
DENSE_KERNELS = ("hermite.build_kernels", "hermite.simulate_paths", "hermite.export_kernels")
DENSITY = ("density.run_ensemble", "density.kde", "density.dump_csv")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    seeds_per_command: int
    #: spans that must record calls in the traced command
    covered: tuple
    #: spans that must record no call in the traced command
    bypassed: tuple
    #: spans that must record calls in the traced correctness gates
    gate_covered: tuple = ()


WORKLOADS = {
    wl.name: wl
    for wl in (
        # Many short independent paths: the O(steps^2) Theta triangle
        # dominates each sample.  M = 100 is the smallest ensemble the KDE
        # accepts, so every layer of `density` runs.
        Workload(
            name="ensemble-elliptic",
            command="density",
            config={
                "process": {"q": 1, "H": 0.7, "m": 2, "n": 256, "L": 8.0},
                "sde": {"preset": "elliptic-2d", "steps": 128, "T": 1.0},
                "run": {"M": 100},
            },
            seeds_per_command=100,
            covered=("wiener.sample_omega",) + SDE_PIPELINE + DENSITY,
            bypassed=DENSE_KERNELS + ("malliavin.directional_quotient",),
        ),
        # Dense order-3 kernels and the kernel dump: hermite and the cli
        # output path; the SDE layers are bypassed.
        Workload(
            name="drivers-q3",
            command="simulate",
            config={
                "process": {"q": 3, "H": 0.7, "m": 1, "n": 160, "L": 8.0, "s_nodes": 64},
                "run": {"M": 200, "out_times": [0.25, 0.5, 1.0]},
            },
            seeds_per_command=200,
            covered=("wiener.sample_omega",) + DENSE_KERNELS,
            bypassed=SDE_PIPELINE + DENSITY + ("malliavin.directional_quotient",),
            gate_covered=("chaos.taylor_shift",),
        ),
    )
}

#: most commands one run may start; bounds the seeds a run can use
MAX_COMMANDS = 1000

END_TO_END = (
    ("wall_s", "s"),
    ("samples_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_fraction", "1"),
)

PER_LAYER = (
    ("wiener.sample_omega.calls", "count"),
    ("wiener.sample_omega.self_s", "s"),
    ("hermite.build_kernels.self_s", "s"),
    ("hermite.kernel_bytes", "B"),
    ("hermite.simulate_paths.self_s", "s"),
    ("hermite.export_kernels.self_s", "s"),
    ("hermite.GridDriver.init.self_s", "s"),
    ("hermite.GridDriver.values.self_s", "s"),
    ("hermite.GridDriver.deriv_vectors.self_s", "s"),
    ("sde.solve_theta_all.self_s", "s"),
    ("sde.theta_bytes", "B"),
    ("sde.coeff_calls", "count"),
    ("sde.solve_euler.calls", "count"),
    ("sde.solve_euler.self_s", "s"),
    ("young.rs_integral_hvalued.calls", "count"),
    ("young.rs_integral_hvalued.self_s", "s"),
    ("young.levels", "count"),
    ("malliavin.solution_derivative.self_s", "s"),
    ("malliavin.malliavin_matrix.self_s", "s"),
    ("density.run_ensemble.self_s", "s"),
    ("density.kde.self_s", "s"),
    ("density.dump_csv.self_s", "s"),
    ("density.excluded", "count"),
    ("chaos.taylor_shift.calls", "count"),
    ("chaos.taylor_shift.self_s", "s"),
    ("cli.command.self_s", "s"),
    ("cli.output_bytes", "B"),
    ("trace.overhead_s", "s"),
)

#: byte counts computed from array sizes, not measured
COMPUTED = ("hermite.kernel_bytes", "sde.theta_bytes")

#: counters that must repeat exactly between the two traced passes
EXACT_COUNTERS = (
    "sde.coeff_calls", "young.levels", "wiener.sample_omega.calls",
    "hermite.kernel_bytes", "sde.theta_bytes", "cli.output_bytes",
)


def command_seed(seed: int, wl: Workload, index: int) -> int:
    return seed + index * wl.seeds_per_command


def seed_span(wl: Workload) -> int:
    """Number of program seeds one run may use, starting at the run seed."""
    return MAX_COMMANDS * wl.seeds_per_command


def write_config(wl: Workload, path: str, seed: int, out_dir: str, **run_overrides):
    """The generated configuration: the workload's, with run.seed and outputs."""
    cfg = copy.deepcopy(wl.config)
    cfg.setdefault("run", {}).update(seed=seed, **run_overrides)
    cfg["output"] = {"directory": out_dir}
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=1)


def argv(wl: Workload, config_path: str) -> list:
    return [wl.command, "--config", config_path, "--workers", "1"]
