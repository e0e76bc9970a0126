"""Command-line entry point: configuration-driven simulation, invariant
checks, SDE solves, Malliavin diagnostics, density studies and the
self-similarity test.

Exit codes: 0 success, 1 invariant failure, 2 configuration error,
3 numeric failure.  Every output file starts with '#' header lines
carrying the library version and a hash of the effective configuration.
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
from .errors import BlowupError, ChaosdeError, ConfigError, MemoryBudgetError, check_budget
from .wiener import GaussianDraw, HilbertVec, make_hilbert, sample_omega, shift_omega
from . import chaos
from .hermite import (
    HermiteSpec,
    build_kernels,
    covariance_theoretical,
    export_kernels,
    self_similarity_stat,
    simulate_paths,
)
from .sde import preset, solve_euler, validate_derivatives
from .malliavin import directional_quotient, malliavin_matrix, solution_derivative
from .density import (
    KDE_GRID_POINTS,
    Scenario,
    dump_csv,
    kde,
    ks_two_sample,
    positivity_report,
    run_ensemble,
)

DEFAULT_CONFIG = {
    "process": {"q": 1, "H": 0.7, "m": 1, "n": 256, "L": 8.0, "s_nodes": 64},
    "sde": {"preset": "additive", "x0": None, "steps": 128, "T": 1.0},
    "run": {"M": 100, "seed": 0, "out_times": [0.25, 0.5, 1.0],
            "eps": [1e-1, 1e-2, 1e-3, 1e-4], "t": 1.0, "epsilon_window": 0.25},
    "output": {"directory": ".", "formats": ["csv"]},
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


def _merge_strict(defaults: dict, user, path: str = "") -> dict:
    if not isinstance(user, dict):
        raise ConfigError(f"{path[:-1] or 'config root'} must be an object")
    unknown = set(user) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(path + k for k in sorted(unknown))}")
    out = {}
    for key, val in defaults.items():
        if isinstance(val, dict):
            out[key] = _merge_strict(val, user.get(key, {}), f"{path}{key}.")
        else:
            out[key] = _coerce(val, user[key], path + key) if key in user else val
    return out


def load_config(path: str, seed_override=None, workers=None, out_dir=None) -> dict:
    try:
        with open(path) as fh:
            user = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    cfg = _merge_strict(DEFAULT_CONFIG, user)
    if seed_override is not None:
        cfg["run"]["seed"] = int(seed_override)
    if out_dir is not None:
        cfg["output"]["directory"] = out_dir
    if workers is not None and workers < 1:
        raise ConfigError(f"--workers={workers} invalid: at least 1 worker")
    cfg["run"]["workers"] = 1 if workers is None else workers
    _validate(cfg)
    return cfg


def _validate(cfg: dict):
    p, s, r = cfg["process"], cfg["sde"], cfg["run"]
    times, x0 = r["out_times"], s["x0"]
    x0_default = preset(s["preset"])[1]  # raises ConfigError for unknown names
    checks = [
        ("process.H", 0.5 < p["H"] < 1.0, "the Hurst index must lie in (1/2, 1)"),
        ("process.q", 1 <= p["q"] <= 3, "the order must be 1, 2 or 3"),
        ("process.m", p["m"] >= 1, "at least one noise component"),
        ("process.n", p["n"] >= 2, "the grid needs at least 2 cells"),
        ("process.L", p["L"] > 0, "the truncation length must be positive"),
        ("process.s_nodes", p["s_nodes"] >= 1, "at least one quadrature node"),
        ("sde.x0", x0 is None or len(x0) == len(x0_default),
         f"preset {s['preset']} has {len(x0_default)} state components"),
        ("sde.steps", s["steps"] >= 1, "at least one Euler step"),
        ("sde.T", s["T"] > 0, "the horizon must be positive"),
        ("run.M", r["M"] >= 1, "at least one draw"),
        ("run.seed", r["seed"] >= 0, "a seed is an integer >= 0"),
        # selfsim draws seeds up to seed + 2M - 1; every seed must fit in uint64
        ("run.seed", r["seed"] + 2 * r["M"] <= 1 << 64, "seed + 2*M must not exceed 2^64"),
        ("run.out_times", times and times[0] > 0 and all(a < b for a, b in zip(times, times[1:])),
         "a nonempty increasing list of positive times"),
        ("run.eps", all(e > 0 for e in r["eps"]), "the quotient steps must be positive"),
        ("run.t", r["t"] > 0, "the time must be positive"),
        ("run.epsilon_window", 0 < r["epsilon_window"] < r["t"], "the window must lie in (0, run.t)"),
    ]
    for key, ok, why in checks:
        if not ok:
            section, name = key.split(".")
            raise ConfigError(f"{key}={cfg[section][name]!r} invalid: {why}")


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


@contextlib.contextmanager
def _output(cfg: dict, name: str):
    """The output file `name`, open for text with LF line endings and its
    header line written.  The output directory is made on the first file,
    so a command that fails before writing leaves none behind."""
    directory = cfg["output"]["directory"]
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, name), "w", newline="\n") as fh:
        fh.write(f"# chaosde {__version__} config={config_hash(cfg)}\n")
        yield fh


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@contextlib.contextmanager
def _budget_key(cfg: dict, key: str):
    """Report a dense array over the memory budget as an invalid value of key."""
    try:
        yield
    except MemoryBudgetError as exc:
        section, name = key.split(".")
        raise ConfigError(f"{key}={cfg[section][name]!r} invalid: {exc}") from None


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
        field.check_dense_budget()  # the kernel dump needs the dense blocks
    M, seed = cfg["run"]["M"], cfg["run"]["seed"]
    with _budget_key(cfg, "process.m"):
        check_budget((spec.m, spec.space.n))  # one draw, m * n coordinates
    with _budget_key(cfg, "run.M"):
        check_budget((M, len(spec.out_times), spec.m))  # the driver values
    values = simulate_paths(field, range(seed, seed + M))
    with _output(cfg, "driver.csv") as driver:
        driver.write("seed,t," + ",".join(f"F_{l + 1}" for l in range(spec.m)) + "\n")
        for k in range(M):
            for ti, t in enumerate(spec.out_times):
                cols = ",".join(_fmt(v) for v in values[k, ti])
                driver.write(f"{seed + k},{_fmt(t)},{cols}\n")
    with _output(cfg, "kernels.txt") as kernels:
        export_kernels(field, kernels)
    print(f"wrote {driver.name} and {kernels.name}")
    return 0


def _check_records(cfg: dict):
    M = cfg["run"]["M"]
    if M < 2:
        raise ConfigError(f"run.M={M} invalid: the check statistics need at least 2 draws")
    spec, field = _build_field(cfg)
    with _budget_key(cfg, "run.M"):
        check_budget((M, 16))  # the Monte Carlo draws
    rng = np.random.default_rng(cfg["run"]["seed"])
    records = []

    def add(name, stat, bound, ok):
        records.append({"name": name, "statistic": float(stat), "bound": float(bound),
                        "pass": bool(ok)})

    space = make_hilbert(1, 0.0, 1.0, 16)
    draws = [GaussianDraw(space, xi, k) for k, xi in enumerate(rng.standard_normal((M, 16)))]
    f = chaos.symmetrize(space, rng.standard_normal((16, 16)))
    g1 = chaos.SymTensor(space, 1, rng.standard_normal(16))
    u = chaos.SymTensor(space, 1, rng.standard_normal(16))

    def integrals(h):
        return np.array([chaos.multiple_integral(h, w) for w in draws])

    # Monte Carlo identities on a fixed chaos pair
    i1, i2 = integrals(g1), integrals(f)
    iso_tgt = 2.0 * f.norm() ** 2
    sig = np.std(i2 * i2, ddof=1) / math.sqrt(M)
    add("isometry_order2", abs(np.mean(i2 * i2) - iso_tgt), 3 * sig,
        abs(np.mean(i2 * i2) - iso_tgt) <= 3 * sig)
    sig = np.std(i1 * i2, ddof=1) / math.sqrt(M)
    add("orthogonality_12", abs(np.mean(i1 * i2)), 3 * sig, abs(np.mean(i1 * i2)) <= 3 * sig)
    # duality: E[I_2(f) * delta(u)] = E[<D I_2(f), u>] for u = const vector field
    delta_u = integrals(u)
    dprod = np.array([chaos.malliavin_derivative(f, w, 1) @ u.coeffs for w in draws])
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
    T = len(spec.out_times)
    worst = 0.0
    for i in range(T):
        for j in range(i, T):
            ip = math.factorial(spec.q) * field.inner(i, j)
            tgt = covariance_theoretical(spec.out_times[i], spec.out_times[j], spec.H)
            worst = max(worst, abs(ip - tgt) / tgt)
    add("kernel_covariance", worst, 0.05, worst <= 0.05)
    return records


def cmd_check(cfg: dict) -> int:
    records = _check_records(cfg)
    with _output(cfg, "check_report.json") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")
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
    with _output(cfg, "solution.csv") as fh:
        fh.write("seed,t," + ",".join(f"X_{k + 1}" for k in range(coeffs.d)) + "\n")
        for k in range(M):
            w = sample_omega(spec.space, seed + k)
            bundle = solve_euler(coeffs, x0, (driver.times, driver.values(w)))
            for i in range(0, bundle.steps + 1, max(1, bundle.steps // 16)):
                cols = ",".join(_fmt(v) for v in bundle.X[i])
                fh.write(f"{seed + k},{_fmt(bundle.times[i])},{cols}\n")
    print(f"wrote {fh.name}")
    return 0


def cmd_malliavin(cfg: dict) -> int:
    _, (coeffs, x0, spec, driver) = _scenario(cfg)
    seed = cfg["run"]["seed"]
    w = sample_omega(spec.space, seed)
    bundle = solve_euler(coeffs, x0, (driver.times, driver.values(w)))
    with _budget_key(cfg, "sde.steps"):  # the variational triangle
        mf = solution_derivative(coeffs, bundle, driver.deriv_vectors(w), spec.space)
    mm = malliavin_matrix(mf)
    rng = np.random.default_rng(seed)
    h = HilbertVec(spec.space, rng.standard_normal(spec.space.basis_dim))
    target = mf.dx @ h.coords
    lines = [f"t {_fmt(mf.t)}", f"det_gamma {_fmt(mm.det)}", f"min_eig {_fmt(mm.min_eig)}"]
    errs = []
    for eps in cfg["run"]["eps"]:
        quot = directional_quotient(coeffs, x0, driver, w, h, float(eps))
        err = float(np.max(np.abs(quot - target)))
        errs.append(err)
        lines.append(f"quotient_gap eps={eps:g} {_fmt(err)}")
    if len(errs) >= 2 and min(errs) > 0:
        order = np.polyfit(np.log([float(e) for e in cfg["run"]["eps"]]), np.log(errs), 1)[0]
        lines.append(f"observed_order {_fmt(float(order))}")
    with _output(cfg, "malliavin_report.txt") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def cmd_density(cfg: dict) -> int:
    r = cfg["run"]
    scenario = _scenario(cfg)[0]  # built once for its checks; each worker builds its own
    with _budget_key(cfg, "run.M"):
        check_budget((r["M"], KDE_GRID_POINTS))  # the KDE matrix
    with _budget_key(cfg, "sde.steps"):  # the variational triangle
        ensemble = run_ensemble(scenario, r["M"], base_seed=r["seed"], workers=r["workers"])
    with _output(cfg, "ensemble.csv") as fh:
        dump_csv(ensemble, fh)
    report = positivity_report(ensemble)
    try:
        est = kde(ensemble.x_samples[:, 0])
        with _output(cfg, "kde.csv") as fh:
            fh.write("x,density\n")
            for x, v in zip(est.grid, est.values):
                fh.write(f"{_fmt(x)},{_fmt(v)}\n")
        report["kde_bandwidth"] = est.bandwidth
        report["degenerate"] = False
    except ChaosdeError:
        report["degenerate"] = True
    with _output(cfg, "positivity.json") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    return 0


def cmd_selfsim(cfg: dict) -> int:
    r = cfg["run"]
    t, eps = float(r["t"]), float(r["epsilon_window"])
    spec = _spec(cfg, 1, [t])
    M, seed = r["M"], r["seed"]
    with _budget_key(cfg, "run.M"):
        check_budget((M,))  # each side's samples
    with _budget_key(cfg, "run.epsilon_window"):  # the lhs quadrature nodes
        lhs, rhs = self_similarity_stat(spec, t, eps, range(seed, seed + M),
                                        range(seed + M, seed + 2 * M))
    result = ks_two_sample(lhs, rhs)
    if spec.q == 1:
        # order 1 is deterministic: both sides are draw-independent numbers,
        # so the relative gap is the decisive statistic, not the KS distance
        result["deterministic_gap"] = float(abs(lhs[0] - rhs[0]) / abs(rhs[0]))
        ok = result["deterministic_gap"] <= 1e-3
    else:
        ok = result["statistic"] <= result["critical_1pct"]
    with _output(cfg, "selfsim_report.json") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result, indent=2))
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
