"""Test oracles that share no code with the library recursions they check,
the loops that faster library code replaced (among them the per-value
writers of the output tables), a component-independence check that
addresses the basis by raw index, and the reference implementations the
library is compared against: the row-by-row Theta, the whole Theta
triangle and the DX assembly over it, the dense DF array and the dense
left-point Young sum that DX was assembled from before it was summed by
parts, the KDE as one (grid, samples) matrix, the forward tangent
recursion, the pointwise kernel, the non-central limit paths, the
elementary power value, the cell averages from two power tables
(`cell_avg_two_tables`) and the reader of the kernels.txt dump; the Euler
and Theta solves of one path, each as a block of one (`euler_path`,
`theta_block`, `theta_path`); the Malliavin matrix of one draw
(`gram_oracle`); `jumpy_preset`, coefficients whose Theta overflows on
some draws; and `generic`, a coefficient set without its fused Euler
terms and step Jacobians, which the Euler and Theta oracles run on."""

import csv
import dataclasses
import itertools
import math

import numpy as np

from chaosde.chaos import _check_order, hermite_poly
from chaosde.density import KDE_GRID_POINTS, DensityEstimate, euler_batches
from chaosde.errors import BlowupError, InvalidDimensionError, OutOfRangeError
from chaosde.hermite import (GridDriver, HermiteSpec, PrefixFactors, build_kernels, hurst_aux,
                             simulate_path)
from chaosde.sde import (SdeCoefficients, SolutionBundle, _step_jacobians, solve_euler,
                         solve_theta_all)
from chaosde.wiener import (GaussianDraw, HilbertVec, iso_gaussian, make_hilbert, sample_omega,
                            shift_omega)

def generic(coeffs):
    """coeffs without its supplied terms and jacobians: the solvers then
    take b, sigma and the step Jacobians from the four callables alone."""
    return dataclasses.replace(coeffs, terms=None, jacobians=None)


#: size of the imaginary Cameron-Martin step: far below every rounding
#: error, and Im of a result divided by it is the exact derivative
COMPLEX_STEP = 1e-30


def complex_step_dx(coeffs, x0, gd, w, h):
    """DX h of the discrete Euler flow at the draw w, by the complex step.

    The GridDriver values are evaluated at the complex coordinates
    xi + i * COMPLEX_STEP * h by their own Hermite recursion H_{k+1} =
    x H_k - k v H_{k-1}, and the left-point Euler loop runs along them with
    the raw coefficient callables b and sigma (the `eval_*` forms cast to
    float).  Every driver value is a polynomial in xi and the coefficients
    are analytic, so Im X_T / COMPLEX_STEP is the derivative of X_T along h
    with no cancellation (Squire & Trapp, SIAM Review 40, 1998).
    """
    spec = gd.spec
    xi = spec.space.components(w.xi + 1j * COMPLEX_STEP * h)
    gx = np.array([gd._g @ row for row in xi])  # (m, nodes)
    gg = np.einsum("ki,ki->k", gd._g, gd._g)
    h_prev, h_cur = np.ones_like(gx), gx
    for k in range(1, spec.q):
        h_cur, h_prev = gx * h_cur - k * gg * h_prev, h_cur
    F = np.zeros((gd.times.shape[0], spec.m), dtype=complex)
    F[1:] = np.cumsum(gd._beta * h_cur, axis=1).T
    F *= gd._rho[:, None]
    X = np.asarray(x0, dtype=complex)
    for i in range(gd.times.shape[0] - 1):
        dt = gd.times[i + 1] - gd.times[i]
        X = X + coeffs.b(X) * dt + coeffs.sigma(X) @ (F[i + 1] - F[i])
    return X.imag / COMPLEX_STEP


def component_shift_failures(spec, times, seeds, eps=0.5):
    """The (seed, ell, claim) triples where a shift off component ell
    reaches it, or a shift on another component misses that one.

    For each draw w and component ell, h is standard normal on the raw
    basis indices of every other component (component k owns k*n ..
    (k+1)*n - 1, the layout `HilbertDisc` documents) and zero on ell's.
    At shift_omega(w, eps, h), Z^ell from simulate_path, row ell of
    GridDriver.values and column ell of the deriv_vectors node weights (the
    only part of DF^ell that depends on the draw) must keep every bit, and Z^k of
    every other component must move at every output time.  Empty when the
    evaluators read each component from its own block alone.
    """
    space = spec.space
    n = space.n
    field, gd = build_kernels(spec), GridDriver(spec, times)
    failures = []
    for seed in seeds:
        w = sample_omega(space, seed)
        rng = np.random.default_rng(seed)
        for ell in range(spec.m):
            coords = rng.standard_normal(space.basis_dim)
            coords[ell * n:(ell + 1) * n] = 0.0
            ws = shift_omega(w, eps, HilbertVec(space, coords))
            others = [k for k in range(spec.m) if k != ell]
            z, zs = simulate_path(field, w).values, simulate_path(field, ws).values
            p = gd.projections(space.components(w.xi))
            ps = gd.projections(space.components(ws.xi))
            claims = {
                "Z^ell kept": np.array_equal(zs[:, ell], z[:, ell]),
                "values row ell kept": np.array_equal(gd.values(ps)[:, ell],
                                                      gd.values(p)[:, ell]),
                "deriv_vectors row ell kept": np.array_equal(
                    gd.deriv_vectors(ps).weights[:, ell], gd.deriv_vectors(p).weights[:, ell]),
                "Z^other moved": bool(np.all(zs[:, others] != z[:, others])),
            }
            failures += [(seed, ell, claim) for claim, ok in claims.items() if not ok]
    return failures


@np.errstate(over="ignore", invalid="ignore")  # a blowup raises BlowupError
def theta_triangle(coeffs, bundle):
    """The whole (steps+1, steps+1, d, m) Theta triangle of one path,
    theta[i, j] = Theta_{t_j}(t_i) for j >= i and zero below, by the
    GEMM-per-column recursion that solve_theta_all ran before it kept only
    the last column.

    Column j+1 holds sigma(X_{j+1}) on the diagonal, sigma(X_j) in row j
    and J_j Theta[:j, j] in the rows above.  The buffer is laid out as
    columns[j, k, i, l] = theta[i, j, k, l], so column j is one contiguous
    (d, (steps+1) m) matrix and J_j times the rows above the diagonal is
    one GEMM per column, written in place.  Column N is finite exactly
    when the triangle is; only when it is not is every column scanned, to
    raise BlowupError at the first one that holds a non-finite entry.
    """
    N = bundle.steps
    d, m = coeffs.d, coeffs.m
    columns = np.zeros((N + 1, d, N + 1, m))  # columns[j, k, i, l] = theta[i, j, k, l]
    sig = np.concatenate([bundle.sigma, coeffs.eval_sigma(bundle.X[N:])])
    jac = _step_jacobians(generic(coeffs), bundle)
    diag = np.arange(N + 1)
    columns[diag, :, diag] = sig  # Theta_{t_j}(t_j) = sigma(X_j)
    columns[diag[1:], :, diag[:-1]] = sig[:-1]  # Theta_{t_{j+1}}(t_j) = sigma(X_j)
    flat = columns.reshape(N + 1, d, (N + 1) * m)
    for j in range(2, N + 1):
        above = (j - 1) * m
        np.matmul(jac[j - 1], flat[j - 1, :, :above], out=flat[j, :, :above])
    if not np.isfinite(flat[N]).all():
        step = int(np.argmin(np.isfinite(flat).all(axis=(1, 2))))
        raise BlowupError(f"non-finite variational state at step {step}", step=step)
    return columns.transpose(2, 0, 1, 3)


def euler_path(coeffs, x0, driver):
    """The Euler solve of one path on the four callables (`generic`): the
    (times, values) driver, values of shape (len(times), m), as a block of
    one, and path(0) of the batch (BlowupError at its first non-finite
    state)."""
    times, values = driver
    return solve_euler(generic(coeffs), x0, (times, np.asarray(values)[None])).path(0)


def theta_block(coeffs, bundle, j=None):
    """The first j steps (all by default) of a one-path bundle as a batch of
    one, with their final-time Theta, Theta_{t_j}, column j of the full
    path's triangle (solve_theta_all on them)."""
    j = bundle.steps if j is None else j
    batch = SolutionBundle(times=bundle.times[:j + 1], X=bundle.X[None, :j + 1],
                           driver_values=bundle.driver_values[None, :j + 1],
                           sigma=bundle.sigma[None, :j], failed=np.zeros(1, dtype=int))
    return solve_theta_all(coeffs, batch)


def theta_path(coeffs, bundle, j=None):
    """path(0) of `theta_block`: BlowupError if that Theta is not finite."""
    return theta_block(coeffs, bundle, j).path(0)


def dx_from_triangle(coeffs, triangle, dfields, space, t_index):
    """DX at grid time t_index by the assembly solution_derivative made
    before it took Theta at the final time alone, in plain numpy: one
    left-point sum w[:-1] @ (df[1:] - df[:-1]) per (k, l) pair over column
    t_index of the triangle, each added into a zero full-basis row."""
    sub = slice(0, t_index + 1)
    dx = np.zeros((coeffs.d, space.basis_dim))
    for k in range(coeffs.d):
        for ell in range(coeffs.m):
            w, df = triangle[sub, t_index, k, ell], dfields[sub, ell, :]
            space.components(dx)[k, ell] += w[:-1] @ (df[1:] - df[:-1])
    return dx


def dense_prefix(factors):
    """The path of `PrefixFactors` (scale, weights, basis) as a dense array
    of shape (..., T, s, dim): row i is scale_i sum_{k<i} weights_k (x)
    basis_k, each node's term written into its row and prefix-summed there
    one row at a time (the sequential sum of a cumsum over the rows), as
    GridDriver.deriv_vectors built DF before it returned the factors."""
    scale, weights, basis = factors
    out = np.zeros(weights.shape[:-2] + (scale.shape[0], weights.shape[-1], basis.shape[1]))
    np.multiply(weights[..., None], basis[:, None, :], out=out[..., 1:, :, :])
    rows = np.moveaxis(out, -3, 0)
    for prev, row in zip(rows[1:-1], rows[2:]):
        np.add(prev, row, out=row)
    out *= scale[:, None, None]
    return out


def dense_deriv_vectors(gd, xi):
    """The dense DF array of the driver gd at the (..., m, n) coordinates
    xi, shape (..., len(times), m, n) in component-block coordinates."""
    return dense_prefix(gd.deriv_vectors(gd.projections(xi)))


def first_steps(df, j):
    """The `PrefixFactors` of a path restricted to its first j steps."""
    return PrefixFactors(df.scale[:j + 1], df.weights[..., :j, :], df.basis[:j])


def left_point_sum(g, Phi):
    """sum_i g_i (Phi_{i+1} - Phi_i) of g, shape (T, s, r), against the
    dense Phi, shape (T, s, dim), as rs_integral_hvalued summed it before
    it took Phi in factors: the increments formed once, then one GEMV of
    g[:-1, j, c] with the increments of integrator j per row; shape
    (s, r, dim)."""
    inc = Phi[1:] - Phi[:-1]
    value = np.empty((g.shape[1], g.shape[2], Phi.shape[2]))
    for j in range(g.shape[1]):
        for c in range(g.shape[2]):
            np.matmul(g[:-1, j, c], inc[:, j], out=value[j, c])
    return value


@np.errstate(over="ignore", invalid="ignore")  # a blowup raises BlowupError
def dense_solution_derivative(coeffs, bundle, dfields, space):
    """DX (d, basis_dim) of a one-path bundle after solve_theta_all, from
    the dense DF array dfields (steps+1, m, n) by `left_point_sum`, as
    solution_derivative assembled it before DF stayed in factors;
    BlowupError when DX or its Gram matrix is not finite."""
    dx = np.zeros((coeffs.d, space.basis_dim))
    space.components(dx)[...] += left_point_sum(bundle.theta.swapaxes(1, 2), dfields).swapaxes(0, 1)
    if not np.isfinite(np.vdot(dx, dx)):
        raise BlowupError("non-finite Malliavin derivative", step=bundle.steps)
    return dx


@np.errstate(over="ignore")  # an overflowing det is reported as None
def gram_oracle(dx):
    """(gamma, det, min_eig) of one draw's (d, basis_dim) DX, as the
    Malliavin matrix was taken one draw at a time: None when |DX|^2
    (np.vdot) is not finite, or the det, the product of the eigenvalues of
    the Gram matrix, overflows.  The Gram matrix is not symmetrized: numpy
    takes dx @ dx.T by syrk, symmetric bit for bit, and 0.5 (gamma +
    gamma.T) overflows once an entry passes half the largest double."""
    if not np.isfinite(np.vdot(dx, dx)):
        return None
    gamma = dx @ dx.T
    eigs = np.linalg.eigvalsh(gamma)
    det = float(np.prod(eigs))
    return (gamma, det, float(eigs[0])) if np.isfinite(det) else None


def jumpy_preset(name):
    """Bounded sigma and dsigma = 1e300 above 0.5: Euler stays finite, and
    the one-step Jacobians of a path that crosses 0.5 overflow its Theta."""
    return SdeCoefficients(
        d=1, m=1,
        b=lambda x: np.zeros(np.shape(x)),
        sigma=lambda x: (1.0 + 0.5 * np.sin(x))[..., None],
        db=lambda x: np.zeros(np.shape(x) + (1,)),
        dsigma=lambda x: np.where(x > 0.5, 1e300, 0.5 * np.cos(x))[..., None, None],
    ), np.zeros(1)


@np.errstate(over="ignore", invalid="ignore")  # a blowup raises BlowupError
def theta_columns(coeffs, bundle):
    """The (steps+1, steps+1, d, m) Theta triangle by the per-column loop
    theta_triangle replaced: column j+1 is J_j times column j above the
    diagonal, one stacked (d, d) x (d, m) product per entry, with
    sigma(X_j) in row j and sigma(X_{j+1}) on the diagonal.  A non-finite
    entry raises BlowupError at the first column that holds one."""
    N = bundle.steps
    sig = np.concatenate([bundle.sigma, coeffs.eval_sigma(bundle.X[N:])])
    jac = _step_jacobians(generic(coeffs), bundle)
    columns = np.zeros((N + 1, N + 1, coeffs.d, coeffs.m))  # columns[j, i] = theta[i, j]
    for j in range(N + 1):
        col = columns[j]
        if j > 0:
            np.matmul(jac[j - 1], columns[j - 1, :j - 1], out=col[:j - 1])
            col[j - 1] = sig[j - 1]
        col[j] = sig[j]
        if not np.isfinite(col[:j + 1]).all():
            raise BlowupError(f"non-finite variational state at step {j}", step=j)
    return columns.transpose(1, 0, 2, 3)


def cell_avg_two_tables(space, s, a):
    """g[k, i] = integral over cell i of (s_k - x)_+^a dx from two power
    tables, one at the left and one at the right edge of every cell: each
    interior edge's power is taken twice, as `hermite._cell_avg_matrix`
    took it before it took one table over the n + 1 edges."""
    edges = space.cell_edges()
    lpow = np.clip(s[:, None] - edges[None, :-1], 0.0, None) ** (a + 1.0)
    rpow = np.clip(s[:, None] - edges[None, 1:], 0.0, None) ** (a + 1.0)
    return (lpow - rpow) / (a + 1.0)


def dense_block(field, ti):
    """The dense (n,)*q block at out_times[ti], one einsum over the factors:
    the canonical entries came from it before they came from GEMMs over the
    canonical tails."""
    cells = "abc"[:field.spec.q]
    subscripts = "k," + ",".join("k" + i for i in cells) + "->" + cells
    weights = field.rho[ti] * field.beta[ti]
    return np.einsum(subscripts, weights, *(field.g[ti],) * field.spec.q, optimize=True)


def canonical_gemm(field, ti):
    """(index, values) of the canonical entries at out_times[ti] by one GEMM
    over the whole time: (rho beta g)^T @ P, every row i_1 against every
    canonical tail i_2 <= .. <= i_q in lexicographic order, P[k, r] the
    product of g[k, i_j] over tail r (P = g at q = 2), kept where i_1 <=
    i_2; at q = 1 the entries are (rho beta) @ g.  The entries came from it
    before they came from row blocks of i_1."""
    n, q = field.spec.space.n, field.spec.q
    g, weights = field.g[ti], field.rho[ti] * field.beta[ti]
    if q == 1:
        return np.arange(n)[None, :], weights @ g
    tails = np.array(np.triu_indices(n)) if q == 3 else np.arange(n)[None, :]
    entries = (weights[:, None] * g).T @ (g if q == 2 else g[:, tails[0]] * g[:, tails[1]])
    keep = tails[0] >= np.arange(n)[:, None]
    rows, columns = np.nonzero(keep)
    return np.vstack([rows, tails[:, columns]]), entries[keep]


def row_block_gemm(field, ti, rows=16):
    """The canonical values at out_times[ti], in lexicographic order, by one
    GEMM per block of rows rows of i_1 over the whole time's tail products,
    (rho beta g)[:, a:a+rows]^T @ P[:, starts[a]:] with P (s_nodes, R) built
    at once (P = g at q = 2), kept where i_1 <= i_2: the entries of q >= 2
    before the dump held P one tile at a time."""
    n, q = field.spec.space.n, field.spec.q
    g, weights = field.g[ti], field.rho[ti] * field.beta[ti]
    tails = np.array(np.triu_indices(n)) if q == 3 else np.arange(n)[None, :]
    P = g if q == 2 else g[:, tails[0]] * g[:, tails[1]]
    values = []
    for a in range(0, n, rows):
        first = np.searchsorted(tails[0], a)
        entries = (weights[:, None] * g)[:, a:a + rows].T @ P[:, first:]
        values.append(entries[tails[0, first:] >= np.arange(a, min(a + rows, n))[:, None]])
    return np.concatenate(values)


def solution_csv_loop(fh, coeffs, x0, spec, driver, seeds):
    """The solution.csv body one '%.17g' per value, by the per-draw loop
    the row writer replaced: every 16th step of each path, and BlowupError
    at the first draw that went non-finite, after the rows before it."""
    fh.write("seed,t," + ",".join(f"X_{k + 1}" for k in range(coeffs.d)) + "\n")
    for block, _, batch in euler_batches(coeffs, x0, spec, driver, seeds):
        for k, seed in enumerate(block):
            X = batch.path(k).X
            for i in range(0, batch.steps + 1, max(1, batch.steps // 16)):
                cols = ",".join(f"{v:.17g}" for v in X[i])
                fh.write(f"{seed},{batch.times[i]:.17g},{cols}\n")


def ensemble_csv_writer(ensemble, fh):
    """The ensemble.csv body by `csv.writer`, one formatted field at a time."""
    d = ensemble.x_samples.shape[1]
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["seed", "t"] + [f"x_{k + 1}" for k in range(d)]
                    + ["det_gamma", "min_eig", "excluded_flag"])
    for i, seed in enumerate(ensemble.seeds):
        row = [seed, f"{ensemble.t:.17g}"]
        row += [f"{v:.17g}" for v in ensemble.x_samples[i]]
        row += [f"{ensemble.det_samples[i]:.17g}", f"{ensemble.min_eigs[i]:.17g}", 0]
        writer.writerow(row)
    for seed in ensemble.excluded_seeds:
        writer.writerow([seed, f"{ensemble.t:.17g}"] + [""] * d + ["", "", 1])


def kde_one_shot(samples):
    """The Silverman-bandwidth Gaussian KDE of `density.kde` on its
    KDE_GRID_POINTS grid, every grid row against every sample in one
    (grid, samples) matrix, with numpy's percentiles."""
    x = np.asarray(samples, dtype=float).ravel()
    std = float(np.std(x, ddof=1))
    iqr = float(np.percentile(x, 75) - np.percentile(x, 25))
    spread = min(std, iqr / 1.34) if iqr > 0 else std
    bandwidth = 0.9 * spread * x.shape[0] ** (-0.2)
    grid = np.linspace(x.min() - 5.0 * bandwidth, x.max() + 5.0 * bandwidth, KDE_GRID_POINTS)
    z = (grid[:, None] - x[None, :]) / bandwidth
    values = np.exp(-0.5 * z * z).sum(axis=1) / (x.shape[0] * bandwidth * math.sqrt(2 * math.pi))
    return DensityEstimate(grid=grid, values=values, bandwidth=float(bandwidth))


def kde_csv_loop(estimate, fh):
    """The kde.csv body one line per grid point."""
    fh.write("x,density\n")
    for x, v in zip(estimate.grid, estimate.values):
        fh.write(f"{x:.17g},{v:.17g}\n")


def _step_jacobian(coeffs: SdeCoefficients, x, dt, dF):
    """I + db(x) dt + dsigma(x).dF, the one-step state Jacobian."""
    J = np.eye(coeffs.d) + coeffs.eval_db(x) * dt
    J += np.einsum("klp,l->kp", coeffs.eval_dsigma(x), dF)
    return J


@np.errstate(over="ignore", invalid="ignore")  # a blowup raises BlowupError
def solve_theta(coeffs: SdeCoefficients, bundle: SolutionBundle, s_index: int) -> np.ndarray:
    """One row of the variational triangle: Theta_{t_j}(t_s) for all j.

    Theta(s, s) = sigma(X_s); for j > s the initial matrix is propagated by
    the Jacobians of steps s+1 .. j-1, so the first increment after s is
    skipped.  With this convention the left-point representation of the
    Frechet derivative is the exact derivative of the discrete flow.
    Entries with j < s are zero.
    """
    N = bundle.steps
    if not 0 <= s_index <= N:
        raise InvalidDimensionError(f"s_index {s_index} outside grid")
    row = np.zeros((N + 1, coeffs.d, coeffs.m))
    sig = coeffs.eval_sigma(bundle.X[s_index])
    row[s_index] = sig
    cur = sig
    for j in range(s_index + 1, N + 1):
        row[j] = cur
        if j < N:
            dt = bundle.times[j + 1] - bundle.times[j]
            dF = bundle.driver_values[j + 1] - bundle.driver_values[j]
            cur = _step_jacobian(coeffs, bundle.X[j], dt, dF) @ cur
        if not np.all(np.isfinite(row[j])):
            raise BlowupError(f"non-finite variational state at step {j}", step=j)
    return row


@np.errstate(over="ignore", invalid="ignore")  # a blowup raises BlowupError
def frechet_directional(coeffs: SdeCoefficients, bundle: SolutionBundle, psi) -> np.ndarray:
    """Directional Frechet derivative path: sum_l int_0^t Theta_t(s) dpsi_s^l.

    psi is an R^m path on the solver grid, shape (steps+1, m); returns an
    R^d path.  Left-point sums at full grid resolution, matching the Theta
    convention, by the forward tangent recursion y_0 = 0, y_{j+1} = J_j y_j
    + sigma(X_j) dpsi_j over the one-step Jacobians: O(steps) work and
    memory, no triangle.  A non-finite entry raises BlowupError at its step.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (bundle.times.shape[0], coeffs.m):
        raise InvalidDimensionError("psi must be an R^m path on the solver grid")
    jac = _step_jacobians(generic(coeffs), bundle)
    drive = np.einsum("jkl,jl->jk", bundle.sigma, np.diff(psi, axis=0))
    out = np.zeros((bundle.steps + 1, coeffs.d))
    for j in range(bundle.steps):
        out[j + 1] = jac[j] @ out[j] + drive[j]
    bad = ~np.all(np.isfinite(out), axis=1)
    if bad.any():
        step = int(np.argmax(bad))
        raise BlowupError(f"non-finite tangent state at step {step}", step=step)
    return out


def kernel_eval(spec: HermiteSpec, t: float, xs) -> float:
    """Pointwise kernel value L_t(x_1..x_q).

    q = 1 uses the closed antiderivative; q >= 2 uses midpoint quadrature
    with s_nodes nodes on (max_j x_j v 0, t].  Zero when any x_j >= t.
    """
    if not 0.0 < t <= spec.space.hi:
        raise OutOfRangeError(f"t must lie in (0, hi], got {t}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.shape != (spec.q,):
        raise InvalidDimensionError(f"expected {spec.q} arguments, got {xs.shape}")
    if np.any(xs >= t):
        return 0.0
    H0, c = hurst_aux(spec.H, spec.q)
    if spec.q == 1:
        x = float(xs[0])
        p = H0 - 0.5
        return c / p * (max(t - x, 0.0) ** p - max(-x, 0.0) ** p)
    lo_s = max(float(np.max(xs)), 0.0)
    s = lo_s + (t - lo_s) * (np.arange(spec.s_nodes) + 0.5) / spec.s_nodes
    w = (t - lo_s) / spec.s_nodes
    vals = np.prod(np.clip(s[:, None] - xs[None, :], 0.0, None) ** (H0 - 1.5), axis=1)
    return float(c * w * vals.sum())



def _fgn_covariance(H0: float, N: int) -> np.ndarray:
    k = np.arange(N)
    r = 0.5 * (
        np.abs(k + 1.0) ** (2.0 * H0)
        - 2.0 * np.abs(k) ** (2.0 * H0)
        + np.abs(k - 1.0) ** (2.0 * H0)
    )
    idx = np.abs(k[:, None] - k[None, :])
    return r[idx]


def nclt_factor(spec: HermiteSpec, steps_per_unit: int):
    """Cholesky factor of the underlying Gaussian sequence and the norm A_N.

    The oracle path is Z_t = A_N^{-1} sum_{i <= floor(N t)} H_q(X_i) with
    X long-range-dependent of Hurst H0; A_N makes Var(Z at the last output
    time) match its self-similar value exactly.
    """
    t_max = spec.out_times[-1]
    N_tot = int(math.ceil(steps_per_unit * t_max))
    cov = _fgn_covariance(hurst_aux(spec.H, spec.q)[0], N_tot)
    chol = np.linalg.cholesky(cov + 1e-12 * np.eye(N_tot))
    # exact variance of the last partial sum of H_q(X): q! sum r(i-j)^q
    var_last = math.factorial(spec.q) * float(np.sum(cov**spec.q))
    A = math.sqrt(var_last) / t_max**spec.H
    return chol, A


def nclt_paths(spec: HermiteSpec, seeds, steps_per_unit: int = 256) -> np.ndarray:
    """Independent marginal-law oracle via normalized Hermite partial sums,
    shape (len(seeds), T, m).

    Shares no coupling with simulate_path: only marginal statistics are
    comparable, not pathwise values.
    """
    seeds = list(seeds)
    chol, A = nclt_factor(spec, steps_per_unit)
    N_tot = chol.shape[0]
    K = [min(int(math.floor(steps_per_unit * t)), N_tot) for t in spec.out_times]
    out = np.empty((len(seeds), len(spec.out_times), spec.m))
    for k, seed in enumerate(seeds):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        for ell in range(spec.m):
            X = chol @ rng.standard_normal(N_tot)
            hsum = np.concatenate([[0.0], np.cumsum(hermite_poly(spec.q, X))])
            out[k, :, ell] = hsum[K] / A
    return out



def import_kernels(path: str) -> tuple:
    """Read an export_kernels dump: (spec, dense blocks, calibrated), filled
    by symmetry as `KernelField.blocks` is."""
    with open(path) as fh:
        lines = [line[1:].split() for line in fh if line.startswith("#")]
    header = dict(tok.split("=", 1) for parts in lines for tok in parts if "=" in tok)
    times = next(tuple(float(x) for x in parts[1:]) for parts in lines if parts[0] == "times")
    space = make_hilbert(int(header["m"]), float(header["lo"]), float(header["hi"]), int(header["n"]))
    spec = HermiteSpec(
        q=int(header["q"]), H=float(header["H"]), m=int(header["m"]), space=space,
        s_nodes=int(header["s_nodes"]), out_times=times,
    )
    rows = np.loadtxt(path, ndmin=2)
    index = rows[:, :-1].astype(np.intp).T
    blocks = np.zeros((len(spec.out_times),) + (space.n,) * spec.q)
    for perm in itertools.permutations(index[1:]):
        blocks[(index[0],) + perm] = rows[:, -1]
    return spec, blocks, bool(int(header["calibrated"]))


def elementary_power_value(g: HilbertVec, q: int, w: GaussianDraw) -> float:
    """Oracle for I_q(g^{(.)q}) = H_q(X_g; |g|^2) = |g|^q H_q(X_g / |g|)."""
    _check_order(q)
    return float(hermite_poly(q, iso_gaussian(g, w), g.norm() ** 2))
