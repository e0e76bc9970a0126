"""Young integration on dyadic grids: closed-form integrals, convergence,
chain rule and the Hilbert-valued sums, a scalar integrator being one
coordinate column."""

import numpy as np
import pytest

from chaosde.errors import InvalidDimensionError
from chaosde.young import rs_integral_hvalued


def dyadic(npts=2**12 + 1):
    return np.linspace(0.0, 1.0, npts)


def scalar(t, g, phi, tol=1e-6):
    """The integral against a scalar phi: one coordinate column."""
    return rs_integral_hvalued(t, g, phi[:, None], tol=tol)


def test_partition_validation():
    # the grid needs at least 2 points and must increase strictly
    with pytest.raises(InvalidDimensionError):
        rs_integral_hvalued(np.array([0.0]), np.zeros(1), np.zeros((1, 1)))
    with pytest.raises(InvalidDimensionError):
        rs_integral_hvalued(np.array([0.0, 0.5, 0.5]), np.zeros(3), np.zeros((3, 1)))
    res = rs_integral_hvalued(np.array([0.0, 0.25, 1.0]), np.ones(3), np.array([[0.0], [1.0], [3.0]]))
    assert res.value[0] == 3.0


def test_constant_integrand():
    # int_0^1 c dphi = c (phi(1) - phi(0)) already at the coarsest level
    t = dyadic(2**6 + 1)
    phi = np.sin(3 * t)
    res = scalar(t, np.full_like(t, 2.0), phi)
    assert res.value[0] == pytest.approx(2.0 * (phi[-1] - phi[0]), abs=1e-12)
    assert res.converged


def test_polynomial_integral():
    # int_0^1 t d(t^2) = int_0^1 2 t^2 dt = 2/3; left-point sums carry an
    # O(mesh) bias, so check the value, not tight convergence
    t = dyadic()
    res = scalar(t, t, t * t)
    assert res.value[0] == pytest.approx(2.0 / 3.0, abs=1e-3)
    assert res.last_delta <= 1e-3


def test_chain_rule():
    # int phi dphi = (phi(1)^2 - phi(0)^2) / 2 for smooth phi
    t = dyadic()
    phi = np.cos(2 * t) + t
    res = scalar(t, phi, phi)
    assert res.value[0] == pytest.approx(0.5 * (phi[-1] ** 2 - phi[0] ** 2), abs=1e-3)


def test_linearity():
    t = dyadic(2**8 + 1)
    rng = np.random.default_rng(0)
    g1, g2 = rng.standard_normal((2, t.shape[0]))
    phi = np.cumsum(rng.standard_normal(t.shape[0])) * 0.01
    a, b = 2.0, -0.5
    lhs = scalar(t, a * g1 + b * g2, phi, tol=0.0).value[0]
    rhs = a * scalar(t, g1, phi, tol=0.0).value[0] + b * scalar(t, g2, phi, tol=0.0).value[0]
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_tol_zero_returns_finest_sum():
    t = dyadic(2**5 + 1)
    g = t**2
    phi = np.exp(t)
    res = scalar(t, g, phi, tol=0.0)
    finest = float(g[:-1] @ np.diff(phi))
    assert res.value[0] == finest
    assert res.refinement_levels == 1
    assert res.last_delta == np.inf and not res.converged


def test_hvalued_matches_componentwise():
    t = dyadic(2**7 + 1)
    rng = np.random.default_rng(2)
    g = np.sin(2 * t)
    Phi = np.cumsum(rng.standard_normal((t.shape[0], 3)), axis=0) * 0.02
    res = rs_integral_hvalued(t, g, Phi, tol=0.0)
    for j in range(3):
        comp = scalar(t, g, Phi[:, j], tol=0.0).value[0]
        assert res.value[j] == pytest.approx(comp, abs=1e-12)


def test_hvalued_shape_checked():
    t = dyadic(2**4 + 1)
    with pytest.raises(InvalidDimensionError):
        rs_integral_hvalued(t, t, t)


def test_hvalued_integrand_columns_match_one_column_sums():
    # r integrands against one Phi give r rows, each the one-column sum bit
    # for bit: at tol = 0, and at the end of the whole refinement tower
    # (a tolerance no level meets)
    t = dyadic(2**7 + 1)
    rng = np.random.default_rng(3)
    g = np.cumsum(rng.standard_normal((t.shape[0], 2, 3)), axis=0)[:, :, 1]  # strided columns
    Phi = np.cumsum(rng.standard_normal((t.shape[0], 5)), axis=0) * 0.02
    for tol, levels in ((0.0, 1), (1e-300, 8)):
        res = rs_integral_hvalued(t, g, Phi, tol=tol)
        assert res.value.shape == (2, 5) and res.refinement_levels == levels
        for c in range(2):
            assert np.array_equal(res.value[c], rs_integral_hvalued(t, g[:, c], Phi, tol=tol).value)
    with pytest.raises(InvalidDimensionError):
        rs_integral_hvalued(t, g[:, :, None], Phi)
