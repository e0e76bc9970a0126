"""Command-line entry point: configuration-driven simulation, invariant
checks, SDE solves, Malliavin diagnostics, density studies and the
self-similarity test.

Exit codes: 0 success, 1 invariant failure, 2 configuration error,
3 numeric failure.  Every output file starts with a '#' header line
carrying the library version and a hash of the effective configuration
(`config_hash`: the process, sde and run settings, without the worker count
and the output directory).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import (BlowupError, ChaosdeError, ConfigError, MemoryBudgetError, OutOfRangeError,
                     check_budget)
from .wiener import HilbertVec, make_hilbert, sample_omega, shift_omega
from . import chaos, hermite
from .hermite import (
    HermiteSpec,
    build_kernels,
    covariance_theoretical,
    export_kernels,
    self_similarity_stat,
    simulate_paths,
)
from .sde import preset, solve_euler, solve_theta_all, validate_derivatives
from .malliavin import directional_quotient, malliavin_matrix, solution_derivative
from .textio import export_paths, value_fields, write_rows
from .density import (
    KDE_ROWS,
    Scenario,
    dump_csv,
    euler_batches,
    kde,
    ks_two_sample,
    positivity_report,
    run_ensemble,
)


def _states(cfg: dict) -> int:
    """The configured preset's state count (`preset` raises on an unknown name)."""
    return len(preset(cfg["sde"]["preset"])[1])


#: every configuration key, in the one order load_config coerces and then
#: checks them: its default, whose type is the type the key takes (`_coerce`),
#: the check of its value given the whole configuration, and the reason a
#: failed check reports (text, or a function of the configuration)
CONFIG_KEYS = {
    "process.q": (1, lambda q, cfg: 1 <= q <= 3, "the order must be 1, 2 or 3"),
    "process.H": (0.7, lambda h, cfg: 0.5 < h < 1.0, "the Hurst index must lie in (1/2, 1)"),
    "process.m": (1, lambda m, cfg: m >= 1, "at least one noise component"),
    "process.n": (256, lambda n, cfg: n >= 2, "the grid needs at least 2 cells"),
    "process.L": (8.0, lambda length, cfg: length > 0, "the truncation length must be positive"),
    "process.s_nodes": (64, lambda s, cfg: s >= 1, "at least one quadrature node"),
    # an unknown preset fails inside the check, with its own message
    "sde.preset": ("additive", lambda name, cfg: _states(cfg) >= 1, "an unknown preset"),
    "sde.x0": (None, lambda x0, cfg: x0 is None or len(x0) == _states(cfg),
               lambda cfg: f"preset {cfg['sde']['preset']} has {_states(cfg)} state components"),
    "sde.steps": (128, lambda steps, cfg: steps >= 1, "at least one Euler step"),
    "sde.T": (1.0, lambda horizon, cfg: horizon > 0, "the horizon must be positive"),
    "run.M": (100, lambda M, cfg: M >= 1, "at least one draw"),
    # selfsim draws seeds up to seed + 2M - 1; every seed must fit in uint64
    "run.seed": (0, lambda seed, cfg: 0 <= seed and seed + 2 * cfg["run"]["M"] <= 1 << 64,
                 lambda cfg: "a seed is an integer >= 0" if cfg["run"]["seed"] < 0
                 else "seed + 2*M must not exceed 2^64"),
    "run.out_times": ([0.25, 0.5, 1.0], lambda times, cfg: times and times[0] > 0
                      and all(a < b for a, b in zip(times, times[1:])),
                      "a nonempty increasing list of positive times"),
    "run.eps": ([1e-1, 1e-2, 1e-3, 1e-4], lambda eps, cfg: all(e > 0 for e in eps),
                "the quotient steps must be positive"),
    "run.t": (1.0, lambda t, cfg: t > 0, "the time must be positive"),
    "run.epsilon_window": (0.25, lambda w, cfg: 0 < w < cfg["run"]["t"],
                           "the window must lie in (0, run.t)"),
    "output.directory": (".", lambda d, cfg: True, "any path: _output reports one it cannot write"),
}


def _coerce(default, value, key: str):
    """value checked against the type of its default; a None default takes
    null or a list of numbers.  Whole floats become integers."""
    if default is None:
        return None if value is None else _coerce([0.0], value, key)
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{key}={value!r} invalid: expected a list")
        return [_coerce(default[0], v, key) for v in value]
    if isinstance(default, str):
        if isinstance(value, str):
            return value
        expected = "a string"
    elif isinstance(default, int):
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        expected = "an integer"
    else:
        try:
            if not isinstance(value, bool) and math.isfinite(value):
                return value
        except (TypeError, OverflowError):
            pass
        expected = "a finite number"
    raise ConfigError(f"{key}={value!r} invalid: expected {expected}")


def _invalid(cfg: dict, key: str, why) -> ConfigError:
    """The error of the configuration's value of the dotted key."""
    section, name = key.split(".")
    return ConfigError(f"{key}={cfg[section][name]!r} invalid: {why}")


def load_config(path: str, seed_override=None, workers=None, out_dir=None) -> dict:
    """The config file at path: every CONFIG_KEYS key coerced, then checked."""
    try:
        with open(path, encoding="utf-8") as fh:
            user = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    except OSError as exc:  # a directory, a file it may not read
        raise ConfigError(f"--config={path!r} invalid: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, an integer or a nesting too deep
        raise ConfigError(f"--config={path!r} invalid: {exc}") from None
    if not isinstance(user, dict):
        raise ConfigError("config root must be an object")
    cfg = {key.split(".")[0]: {} for key in CONFIG_KEYS}
    for section in cfg:
        if not isinstance(user.get(section, {}), dict):
            raise ConfigError(f"{section} must be an object")
    given = {f"{section}.{key}": value
             for section in cfg for key, value in user.get(section, {}).items()}
    unknown = sorted(user.keys() - cfg.keys() | given.keys() - CONFIG_KEYS.keys())
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    for key, (default, ok, why) in CONFIG_KEYS.items():
        section, name = key.split(".")
        cfg[section][name] = _coerce(default, given[key], key) if key in given else default
    if seed_override is not None:
        cfg["run"]["seed"] = int(seed_override)
    if out_dir is not None:
        cfg["output"]["directory"] = out_dir
    if workers is not None and workers < 1:
        raise ConfigError(f"--workers={workers} invalid: at least 1 worker")
    # the pool forks all its workers at once: no more than the machine's CPUs
    cpus = os.cpu_count() or 1
    if workers is not None and workers > cpus:
        raise ConfigError(f"--workers={workers} invalid: at most {cpus}, the CPU count")
    cfg["run"]["workers"] = 1 if workers is None else workers
    for key, (default, ok, why) in CONFIG_KEYS.items():
        section, name = key.split(".")
        if not ok(cfg[section][name], cfg):
            raise _invalid(cfg, key, why(cfg) if callable(why) else why)
    return cfg


def config_hash(cfg: dict) -> str:
    """Hash of the settings that decide a command's results: the process,
    sde and run sections without run.workers, so that serial and parallel
    runs, and runs into different output directories, write the same
    bytes."""
    run = {key: value for key, value in cfg["run"].items() if key != "workers"}
    canon = json.dumps({"process": cfg["process"], "sde": cfg["sde"], "run": run},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


@contextlib.contextmanager
def _output(cfg: dict, name: str):
    """The output file `name`, open for bytes, with its header line
    written.  The output directory is made on the first file, so a command
    that fails before writing leaves none behind."""
    directory = cfg["output"]["directory"]
    try:
        os.makedirs(directory, exist_ok=True)
        fh = open(os.path.join(directory, name), "wb")
    except OSError as exc:  # "", an existing file, a path under a file
        raise _invalid(cfg, "output.directory", f"cannot write {name}: {exc.strerror}") from None
    with fh:
        fh.write(f"# chaosde {__version__} config={config_hash(cfg)}\n".encode())
        yield fh


def _report(cfg: dict, name: str, text: str) -> str:
    """Write text as the output file `name`; return it."""
    with _output(cfg, name) as fh:
        fh.write(text.encode())
    return text


@contextlib.contextmanager
def _budget_key(cfg: dict, key: str):
    """Report a dense array over the memory budget as an invalid value of key."""
    try:
        yield
    except MemoryBudgetError as exc:
        raise _invalid(cfg, key, exc) from None


def _spec(cfg: dict, m: int, out_times) -> HermiteSpec:
    """The m-component driver on a noise grid ending at the last output time."""
    p = cfg["process"]
    space = make_hilbert(m, -float(p["L"]), float(out_times[-1]), p["n"])
    # the spec checks its kernel factors, one row of n+1 cell edges per node:
    # s_nodes nodes at q >= 2, the two ends of the exact time integral at q = 1
    with _budget_key(cfg, "process.s_nodes" if p["q"] >= 2 else "process.n"):
        return HermiteSpec(q=p["q"], H=float(p["H"]), m=m, space=space,
                           s_nodes=p["s_nodes"], out_times=tuple(out_times))


def _build_field(cfg: dict):
    spec = _spec(cfg, cfg["process"]["m"], cfg["run"]["out_times"])
    with _budget_key(cfg, "process.s_nodes"):  # the calibration Gram
        return spec, build_kernels(spec)


def cmd_simulate(cfg: dict) -> int:
    spec, field = _build_field(cfg)
    with _budget_key(cfg, "process.n"):
        # the dump's size guard: len(out_times) * n^q, the entries of the dense view
        field.check_dense_budget()
    with _budget_key(cfg, "process.s_nodes"):
        # the dump's tile of tail products: one row per node, one column per
        # canonical tail i_2 <= .. <= i_q, at most TAIL_TILE of them
        count = math.comb(spec.space.n + spec.q - 2, spec.q - 1)
        check_budget((spec.s_nodes, min(hermite.TAIL_TILE, count)))
    M, seed = cfg["run"]["M"], cfg["run"]["seed"]
    with _budget_key(cfg, "process.m"):
        check_budget((spec.m, spec.space.n))  # one draw, m * n coordinates
    with _budget_key(cfg, "run.M"):
        check_budget((M, len(spec.out_times), spec.m))  # the driver values
    with _budget_key(cfg, "process.s_nodes"):  # a block's (B, m, s_nodes) projections
        values = simulate_paths(field, range(seed, seed + M))
    with _output(cfg, "driver.csv") as driver:
        export_paths(driver, [f"F_{l + 1}" for l in range(spec.m)], spec.out_times,
                     [(seed, values)])
    with _output(cfg, "kernels.txt") as kernels:
        export_kernels(field, kernels)
    print(f"wrote {driver.name} and {kernels.name}")
    return 0


#: draws per block of the check's chaos values: a block's (rows, 16)
#: contractions stay small beside the (M, 16) draw array
CHECK_BLOCK = 1024


def _check_values(f, g1, u, xis) -> np.ndarray:
    """I_1(g1), I_2(f), delta(u) = I_1(u) and <D I_2(f), u> at every row of
    the (M, 16) draw array xis, as the rows of a (4, M) array; the chaos
    values of a block of draws come from one batched Wick recursion."""
    out = np.empty((4, xis.shape[0]))
    for start in range(0, xis.shape[0], CHECK_BLOCK):
        rows = xis[start:start + CHECK_BLOCK]
        block = out[:, start:start + CHECK_BLOCK]
        block[0] = chaos.draw_values(g1, rows)
        block[1] = chaos.draw_values(f, rows)
        block[2] = chaos.draw_values(u, rows)
        block[3] = chaos.draw_values(f, rows, 1) @ u.coeffs
    return out


def _check_records(cfg: dict):
    M = cfg["run"]["M"]
    if M < 2:
        raise _invalid(cfg, "run.M", "the check statistics need at least 2 draws")
    spec, field = _build_field(cfg)
    with _budget_key(cfg, "run.M"):
        check_budget((M, 16))  # the Monte Carlo draws
    rng = np.random.default_rng(cfg["run"]["seed"])
    records = []

    def add(name, stat, bound, ok):
        records.append({"name": name, "statistic": float(stat), "bound": float(bound),
                        "pass": bool(ok)})

    space = make_hilbert(1, 0.0, 1.0, 16)
    xis = rng.standard_normal((M, 16))
    f = chaos.symmetrize(space, rng.standard_normal((16, 16)))
    g1 = chaos.SymTensor(space, 1, rng.standard_normal(16))
    u = chaos.SymTensor(space, 1, rng.standard_normal(16))

    # Monte Carlo identities on a fixed chaos pair
    i1, i2, delta_u, dprod = _check_values(f, g1, u, xis)
    iso_tgt = 2.0 * f.norm() ** 2
    sig = np.std(i2 * i2, ddof=1) / math.sqrt(M)
    add("isometry_order2", abs(np.mean(i2 * i2) - iso_tgt), 3 * sig,
        abs(np.mean(i2 * i2) - iso_tgt) <= 3 * sig)
    sig = np.std(i1 * i2, ddof=1) / math.sqrt(M)
    add("orthogonality_12", abs(np.mean(i1 * i2)), 3 * sig, abs(np.mean(i1 * i2)) <= 3 * sig)
    # duality: E[I_2(f) * delta(u)] = E[<D I_2(f), u>] for u = const vector field
    gap = abs(np.mean(i2 * delta_u) - np.mean(dprod))
    sig = np.std(i2 * delta_u - dprod, ddof=1) / math.sqrt(M)
    add("duality", gap, 3 * sig, gap <= 3 * sig)
    # hypercontractivity at p = 4 on chaos 2
    lhs = np.mean(i2**4) ** 0.25
    rhs = 3.0 * math.sqrt(max(np.mean(i2**2), 0.0))
    add("hypercontractivity_p4", lhs, rhs, lhs <= rhs * 1.001)

    # exact identities on random draws
    worst = 0.0
    for _ in range(20):
        w = sample_omega(space, int(rng.integers(1 << 30)))
        h = HilbertVec(space, rng.standard_normal(16))
        eps = float(rng.uniform(-1, 1))
        lhs = chaos.taylor_shift(f, w, h, eps)
        rhs2 = chaos.multiple_integral(f, shift_omega(w, eps, h))
        worst = max(worst, abs(lhs - rhs2) / max(1.0, abs(rhs2)))
    add("taylor_shift_identity", worst, 1e-10, worst <= 1e-10)
    worst = 0.0
    for _ in range(20):
        w = sample_omega(space, int(rng.integers(1 << 30)))
        worst = max(worst, abs(chaos.product_formula_check(f, g1, w)))
    add("product_formula", worst, 1e-10, worst <= 1e-10)

    # kernel covariance at the configured process parameters
    worst = 0.0
    for i, s in enumerate(spec.out_times):
        for j, t in enumerate(spec.out_times[i:], i):
            ip = math.factorial(spec.q) * field.inner(i, j)
            tgt = covariance_theoretical(s, t, spec.H)
            if not tgt > 0:  # it rounds to 0 for times far apart in scale
                raise _invalid(cfg, "run.out_times",
                               f"the covariance at {s:g} and {t:g} rounds to 0")
            worst = max(worst, abs(ip - tgt) / tgt)
    add("kernel_covariance", worst, 0.05, worst <= 0.05)
    return records


def cmd_check(cfg: dict) -> int:
    records = _check_records(cfg)
    _report(cfg, "check_report.json", json.dumps(records, indent=2) + "\n")
    ok = all(r["pass"] for r in records)
    for r in records:
        print(f"{'PASS' if r['pass'] else 'FAIL'} {r['name']}: "
              f"stat={r['statistic']:.3e} bound={r['bound']:.3e}")
    return 0 if ok else 1


def _scenario(cfg: dict):
    """The SDE scenario and its built (coeffs, x0, spec, driver)."""
    p, s = cfg["process"], cfg["sde"]
    with _budget_key(cfg, "sde.steps"):  # the driver's calibration Gram
        scenario = Scenario(preset=s["preset"], q=p["q"], H=float(p["H"]), t=float(s["T"]),
                            steps=s["steps"], n=p["n"], L=float(p["L"]),
                            x0=tuple(s["x0"]) if s["x0"] is not None else None)
    with _budget_key(cfg, "process.n"):  # the driver's (steps, n+1) cell-average factors
        return scenario, scenario.build()


def cmd_solve(cfg: dict) -> int:
    _, (coeffs, x0, spec, driver) = _scenario(cfg)
    validate_derivatives(coeffs)
    M, seed = cfg["run"]["M"], cfg["run"]["seed"]
    every = slice(None, None, max(1, cfg["sde"]["steps"] // 16))

    def blocks():
        # each block's paths up to its first that went non-finite, whose
        # BlowupError then stops the command
        for block, _, batch in euler_batches(coeffs, x0, spec, driver, range(seed, seed + M)):
            failed = np.flatnonzero(batch.failed)
            kept = failed[0] if failed.size else len(block)
            yield block[0], batch.X[:kept, every]
            if failed.size:
                batch.path(kept)  # raises

    with _output(cfg, "solution.csv") as fh:
        export_paths(fh, [f"X_{k + 1}" for k in range(coeffs.d)], driver.times[every], blocks())
    print(f"wrote {fh.name}")
    return 0


def cmd_malliavin(cfg: dict) -> int:
    scenario, (coeffs, x0, spec, driver) = _scenario(cfg)
    with _budget_key(cfg, "process.n"):
        check_budget((coeffs.d * coeffs.m, scenario.n))  # DX, its largest per-sample array
    seed = cfg["run"]["seed"]
    w = sample_omega(spec.space, seed)
    p = driver.projections(spec.space.components(w.xi[None]))  # a block of one draw
    batch = solve_theta_all(coeffs, solve_euler(coeffs, x0, (driver.times, driver.values(p))))
    batch.path(0)  # BlowupError at its Euler or Theta step
    dx = solution_derivative(coeffs, batch, driver.deriv_vectors(p), spec.space)
    if not np.isfinite(np.vdot(dx, dx)):  # the |DX|^2 of malliavin_matrix's ok
        raise BlowupError(f"non-finite Malliavin derivative at step {scenario.steps}")
    mm = malliavin_matrix(dx)
    if not mm.ok[0]:  # t is the grid's last time, linspace's exact endpoint
        raise BlowupError(f"non-finite Malliavin determinant at t={scenario.t}")
    rng = np.random.default_rng(seed)
    h = HilbertVec(spec.space, rng.standard_normal(spec.space.basis_dim))
    target = dx[0] @ h.coords
    lines = [f"t {scenario.t:.17g}", f"det_gamma {mm.det[0]:.17g}", f"min_eig {mm.min_eig[0]:.17g}"]
    errs = []
    for eps in cfg["run"]["eps"]:
        quot = directional_quotient(coeffs, x0, driver, w, h, float(eps))
        err = float(np.max(np.abs(quot - target)))
        errs.append(err)
        lines.append(f"quotient_gap eps={eps:g} {err:.17g}")
    # a slope needs two distinct steps
    if len(set(cfg["run"]["eps"])) >= 2 and min(errs) > 0:
        order = np.polyfit(np.log([float(e) for e in cfg["run"]["eps"]]), np.log(errs), 1)[0]
        lines.append(f"observed_order {float(order):.17g}")
    print(_report(cfg, "malliavin_report.txt", "\n".join(lines) + "\n"), end="")
    return 0


def cmd_density(cfg: dict) -> int:
    r = cfg["run"]
    if r["M"] < 2:
        raise _invalid(cfg, "run.M", "the ensemble needs at least 2 draws")
    scenario, (coeffs, *_) = _scenario(cfg)  # built for its checks; a serial run reuses it
    with _budget_key(cfg, "process.n"):
        check_budget((coeffs.d * coeffs.m, scenario.n))  # DX, as in cmd_malliavin
    with _budget_key(cfg, "run.M"):
        check_budget((KDE_ROWS, r["M"]))  # a chunk of KDE grid rows against every sample
    ensemble = run_ensemble(scenario, r["M"], base_seed=r["seed"], workers=r["workers"])
    with _output(cfg, "ensemble.csv") as fh:
        dump_csv(ensemble, fh)
    report = positivity_report(ensemble)
    try:
        est = kde(ensemble.x_samples[:, 0])
        with _output(cfg, "kde.csv") as fh:
            fh.write(b"x,density\n")
            write_rows(fh, value_fields(np.column_stack([est.grid, est.values])), ",")
        report["kde_bandwidth"] = est.bandwidth
        report["degenerate"] = False
    except ChaosdeError:
        report["degenerate"] = True
    print(_report(cfg, "positivity.json", json.dumps(report, indent=2) + "\n"), end="")
    return 0


def cmd_selfsim(cfg: dict) -> int:
    r = cfg["run"]
    t, eps = float(r["t"]), float(r["epsilon_window"])
    spec = _spec(cfg, 1, [t])
    M, seed = r["M"], r["seed"]
    with _budget_key(cfg, "run.M"):
        check_budget((M,))  # each side's samples
    try:
        with _budget_key(cfg, "process.s_nodes"):  # a block's (B, 1, s_nodes) projections
            lhs, rhs = self_similarity_stat(spec, t, eps, range(seed, seed + M),
                                            range(seed + M, seed + 2 * M))
    except OutOfRangeError as exc:
        raise ConfigError(f"process.n={spec.space.n} and run.epsilon_window={eps!r} "
                          f"invalid: {exc}") from None
    # a side of zeros or subnormals would pass on no digits, or divide 0 by 0
    if not (np.any(lhs >= np.finfo(float).tiny) and np.any(rhs >= np.finfo(float).tiny)):
        raise ConfigError(f"process.L={cfg['process']['L']!r}, run.t={r['t']!r} and "
                          f"run.epsilon_window={r['epsilon_window']!r} invalid: the derivative "
                          "energies of a side all underflow below the smallest normal double")
    result = ks_two_sample(lhs, rhs)
    if spec.q == 1:
        # order 1 is deterministic: both sides are draw-independent numbers,
        # so the relative gap is the decisive statistic, not the KS distance
        result["deterministic_gap"] = float(abs(lhs[0] - rhs[0]) / abs(rhs[0]))
        ok = result["deterministic_gap"] <= 1e-3
    else:
        ok = result["statistic"] <= result["critical_1pct"]
    print(_report(cfg, "selfsim_report.json", json.dumps(result, indent=2) + "\n"), end="")
    return 0 if ok else 1


COMMANDS = {
    "simulate": cmd_simulate,
    "check": cmd_check,
    "solve": cmd_solve,
    "malliavin": cmd_malliavin,
    "density": cmd_density,
    "selfsim": cmd_selfsim,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="chaosde",
                                     description="chaos-driven SDE laboratory")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--seed", type=int, default=None, help="root seed override")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed, workers=args.workers,
                          out_dir=args.out)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (BlowupError, ChaosdeError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
