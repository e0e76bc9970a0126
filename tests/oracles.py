"""Test oracles that share no code with the library recursions they check,
the loops that faster library code replaced, and a component-independence
check that addresses the basis by raw index."""

import numpy as np

from chaosde.errors import BlowupError
from chaosde.hermite import GridDriver, build_kernels, simulate_path
from chaosde.sde import _step_jacobians
from chaosde.wiener import HilbertVec, sample_omega, shift_omega

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
    At shift_omega(w, eps, h), Z^ell from simulate_path and row ell of
    GridDriver.values and of deriv_vectors must keep every bit, and Z^k of
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
            claims = {
                "Z^ell kept": np.array_equal(zs[:, ell], z[:, ell]),
                "values row ell kept": np.array_equal(gd.values(ws)[:, ell], gd.values(w)[:, ell]),
                "deriv_vectors row ell kept": np.array_equal(
                    gd.deriv_vectors(ws)[:, ell], gd.deriv_vectors(w)[:, ell]),
                "Z^other moved": bool(np.all(zs[:, others] != z[:, others])),
            }
            failures += [(seed, ell, claim) for claim, ok in claims.items() if not ok]
    return failures


def theta_columns(coeffs, bundle):
    """The (steps+1, steps+1, d, m) Theta triangle by the per-column loop
    solve_theta_all replaced: column j+1 is J_j times column j above the
    diagonal, one stacked (d, d) x (d, m) product per entry, with
    sigma(X_j) in row j and sigma(X_{j+1}) on the diagonal.  A non-finite
    entry raises BlowupError at the first column that holds one."""
    N = bundle.steps
    sig = np.concatenate([bundle.sigma, coeffs.eval_sigma(bundle.X[N:])])
    jac = _step_jacobians(coeffs, bundle)
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
