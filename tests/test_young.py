"""The Young left-point sum: closed-form integrals, the chain rule,
linearity and the stacked Hilbert-valued sums, a scalar integrand or
integrator being one column of a stack of one."""

import numpy as np
import pytest

from chaosde.errors import InvalidDimensionError
from chaosde.young import rs_integral_hvalued


def grid(npts=2**12 + 1):
    return np.linspace(0.0, 1.0, npts)


def scalar(g, phi):
    """The integral of a scalar g against a scalar phi: one column each."""
    return rs_integral_hvalued(g[:, None, None], phi[:, None, None]).value[0, 0, 0]


def test_value_is_the_left_point_sum():
    t = grid(2**5 + 1)
    g = t**2
    phi = np.exp(t)
    res = rs_integral_hvalued(g[:, None, None], phi[:, None, None])
    assert res.value[0, 0, 0] == float(g[:-1] @ np.diff(phi))
    assert res.refinement_levels == 1
    # the sum reads no time value: any grid the paths were sampled on
    assert scalar(np.ones(3), np.array([0.0, 1.0, 3.0])) == 3.0


def test_constant_integrand():
    # int_0^1 c dphi = c (phi(1) - phi(0))
    t = grid(2**6 + 1)
    phi = np.sin(3 * t)
    assert scalar(np.full_like(t, 2.0), phi) == pytest.approx(2.0 * (phi[-1] - phi[0]), abs=1e-12)


def test_polynomial_integral():
    # int_0^1 t d(t^2) = int_0^1 2 t^2 dt = 2/3; left-point sums carry an
    # O(mesh) bias
    t = grid()
    assert scalar(t, t * t) == pytest.approx(2.0 / 3.0, abs=1e-3)


def test_chain_rule():
    # int phi dphi = (phi(1)^2 - phi(0)^2) / 2 for smooth phi
    t = grid()
    phi = np.cos(2 * t) + t
    assert scalar(phi, phi) == pytest.approx(0.5 * (phi[-1] ** 2 - phi[0] ** 2), abs=1e-3)


def test_linearity():
    t = grid(2**8 + 1)
    rng = np.random.default_rng(0)
    g1, g2 = rng.standard_normal((2, t.shape[0]))
    phi = np.cumsum(rng.standard_normal(t.shape[0])) * 0.01
    a, b = 2.0, -0.5
    lhs = scalar(a * g1 + b * g2, phi)
    rhs = a * scalar(g1, phi) + b * scalar(g2, phi)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_hvalued_matches_componentwise():
    t = grid(2**7 + 1)
    rng = np.random.default_rng(2)
    g = np.sin(2 * t)
    Phi = np.cumsum(rng.standard_normal((t.shape[0], 3)), axis=0) * 0.02
    res = rs_integral_hvalued(g[:, None, None], Phi[:, None])
    for j in range(3):
        assert res.value[0, 0, j] == pytest.approx(scalar(g, Phi[:, j]), abs=1e-12)


def test_hvalued_shape_checked():
    t = grid(2**4 + 1)
    with pytest.raises(InvalidDimensionError):
        rs_integral_hvalued(t[:, None], t[:, None, None])  # an unstacked integrand
    with pytest.raises(InvalidDimensionError):
        rs_integral_hvalued(t[:, None, None], t[:, None])  # an unstacked integrator
    with pytest.raises(InvalidDimensionError):
        rs_integral_hvalued(t[:, None, None, None], t[:, None, None])
    with pytest.raises(InvalidDimensionError):
        rs_integral_hvalued(t[:-1, None, None], t[:, None, None])  # not on one grid
    with pytest.raises(InvalidDimensionError):  # two integrand groups, one integrator
        rs_integral_hvalued(np.zeros((t.shape[0], 2, 1)), t[:, None, None])


def test_hvalued_integrand_columns_match_one_column_sums():
    # s groups of r integrands against s integrators give (s, r) rows, each
    # bit for bit the one-row sum on contiguous copies, on inputs strided as
    # the Theta and DF arrays solution_derivative passes: the integrand a
    # swapped view of a (T, r, s) array, each integrator a row of a
    # (T, s, dim) array
    t = grid(2**7 + 1)
    rng = np.random.default_rng(3)
    for s in (2, 3):
        g = np.cumsum(rng.standard_normal((t.shape[0], 2, s)), axis=0).swapaxes(1, 2)
        Phi = np.cumsum(rng.standard_normal((t.shape[0], s, 5)), axis=0) * 0.02
        res = rs_integral_hvalued(g, Phi)
        assert res.value.shape == (s, 2, 5)
        for j in range(s):
            phi = np.ascontiguousarray(Phi[:, j])
            for c in range(2):
                col = np.ascontiguousarray(g[:, j, c])
                assert np.array_equal(res.value[j, c], col[:-1] @ (phi[1:] - phi[:-1]))
