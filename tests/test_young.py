"""The Young left-point sum against integrators in prefix-factor form:
closed-form integrals, the chain rule, linearity and the stacked
Hilbert-valued sums, a scalar integrand or integrator being one column of
a stack of one, the sum by parts against the dense left-point sum, and
leading axes against their slices."""

import numpy as np
import pytest

from chaosde.errors import InvalidDimensionError
from chaosde.hermite import PrefixFactors
from chaosde.young import rs_integral_hvalued
from oracles import dense_prefix, left_point_sum


def grid(npts=2**12 + 1):
    return np.linspace(0.0, 1.0, npts)


def increments(Phi):
    """One integrator with the values of Phi, shape (T, dim), less Phi_0
    (the sum reads only increments): unit scale and weights, its
    increments as the basis."""
    return PrefixFactors(np.ones(Phi.shape[0]), np.ones((Phi.shape[0] - 1, 1)), np.diff(Phi, axis=0))


def scalar(g, phi):
    """The integral of a scalar g against a scalar phi: one column each."""
    return rs_integral_hvalued(g[:, None, None], increments(phi[:, None])).value[0, 0, 0]


def test_value_is_the_left_point_sum():
    t = grid(2**5 + 1)
    g = t**2
    phi = np.exp(t)
    res = rs_integral_hvalued(g[:, None, None], increments(phi[:, None]))
    assert res.value[0, 0, 0] == pytest.approx(float(g[:-1] @ np.diff(phi)), rel=1e-14)
    assert res.refinement_levels == 1
    # the sum reads no time value: any grid the paths were sampled on
    assert scalar(np.ones(3), np.array([0.0, 1.0, 3.0])) == 3.0
    # a grid of one point has no step, and the sum is 0
    assert scalar(np.ones(1), np.zeros(1)) == 0.0


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
    res = rs_integral_hvalued(g[:, None, None], increments(Phi))
    for j in range(3):
        assert res.value[0, 0, j] == pytest.approx(scalar(g, Phi[:, j]), abs=1e-12)


def test_hvalued_shape_checked():
    t = grid(2**4 + 1)
    T = t.shape[0]
    phi = increments(t[:, None])
    with pytest.raises(InvalidDimensionError):
        rs_integral_hvalued(t[:, None], phi)  # an unstacked integrand
    with pytest.raises(InvalidDimensionError):
        rs_integral_hvalued(t[:, None, None, None], phi)
    with pytest.raises(InvalidDimensionError):  # a basis without coordinates
        rs_integral_hvalued(t[:, None, None], phi._replace(basis=np.diff(t)))
    with pytest.raises(InvalidDimensionError):
        rs_integral_hvalued(t[:-1, None, None], phi)  # not on one grid
    for bad in (phi._replace(scale=np.ones(T - 1)), phi._replace(weights=np.ones((T, 1))),
                phi._replace(basis=np.ones((T, 1)))):
        with pytest.raises(InvalidDimensionError):  # factors of another grid
            rs_integral_hvalued(t[:, None, None], bad)
    with pytest.raises(InvalidDimensionError):  # two integrand groups, one integrator
        rs_integral_hvalued(np.zeros((T, 2, 1)), phi)


def test_hvalued_integrand_columns_match_one_column_sums():
    # s groups of r integrands against s integrators in factors give (s, r)
    # rows, each within 1e-13 of the dense left-point sum of its column
    # against its integrator, and bit for bit the same on inputs strided as
    # the Theta and DF factors solution_derivative passes (the integrand a
    # swapped view of a (T, r, s) array, the weights a swapped view of an
    # (s, T-1) array) as on contiguous copies
    t = grid(2**7 + 1)
    T = t.shape[0]
    rng = np.random.default_rng(3)
    for s in (2, 3):
        g = np.cumsum(rng.standard_normal((T, 2, s)), axis=0).swapaxes(1, 2)
        scale = 1.0 + rng.random(T)
        Phi = PrefixFactors(scale, rng.standard_normal((s, T - 1)).T,
                            rng.standard_normal((T - 1, 5)) * 0.02)
        res = rs_integral_hvalued(g, Phi)
        assert res.value.shape == (s, 2, 5)
        copies = rs_integral_hvalued(np.ascontiguousarray(g),
                                     Phi._replace(weights=np.ascontiguousarray(Phi.weights)))
        assert np.array_equal(res.value, copies.value)
        dense = dense_prefix(Phi)
        for j in range(s):
            for c in range(2):
                want = left_point_sum(g[:, j:j + 1, c:c + 1], dense[:, j:j + 1])[0, 0]
                assert np.max(np.abs(res.value[j, c] - want)) <= 1e-13 * np.max(np.abs(want))


def test_leading_axes_are_integrated_slice_by_slice():
    # a (4, 3) stack of integrals, as a block of draws passes them, equals
    # its per-slice calls bit for bit, on inputs strided as the block's
    # Theta and DF weights are; the weights must carry g's leading axes
    T, s, r, dim = 33, 2, 3, 7
    rng = np.random.default_rng(4)
    g = np.cumsum(rng.standard_normal((4, 3, T, r, s)), axis=2).swapaxes(-1, -2)
    Phi = PrefixFactors(1.0 + rng.random(T), rng.standard_normal((4, 3, s, T - 1)).swapaxes(-1, -2),
                        rng.standard_normal((T - 1, dim)))
    res = rs_integral_hvalued(g, Phi)
    assert res.value.shape == (4, 3, s, r, dim) and res.refinement_levels == 1
    for idx in np.ndindex(4, 3):
        one = rs_integral_hvalued(g[idx], Phi._replace(weights=Phi.weights[idx]))
        assert np.array_equal(res.value[idx], one.value)
    for weights in (Phi.weights[0], Phi.weights[:, :1]):
        with pytest.raises(InvalidDimensionError):
            rs_integral_hvalued(g, Phi._replace(weights=weights))
