"""Test oracles that share no code with the library recursions they check."""

import numpy as np

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
