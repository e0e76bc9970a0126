"""Young integration on dyadic grids: closed-form integrals, convergence,
chain rule, Hilbert-valued variant and sewing diagnostics."""

import numpy as np
import pytest

from chaosde.errors import InvalidDimensionError
from chaosde.young import (
    Partition,
    rs_integral,
    rs_integral_hvalued,
    sewing_defects,
)


def dyadic(npts=2**12 + 1):
    return np.linspace(0.0, 1.0, npts)


def test_partition_validation():
    with pytest.raises(InvalidDimensionError):
        Partition(np.array([0.0]))
    with pytest.raises(InvalidDimensionError):
        Partition(np.array([0.0, 0.5, 0.5]))
    p = Partition(np.array([0.0, 0.25, 1.0]))
    assert p.mesh == pytest.approx(0.75)


def test_constant_integrand():
    # int_0^1 c dphi = c (phi(1) - phi(0)) already at the coarsest level
    t = dyadic(2**6 + 1)
    phi = np.sin(3 * t)
    res = rs_integral(t, np.full_like(t, 2.0), phi)
    assert res.value == pytest.approx(2.0 * (phi[-1] - phi[0]), abs=1e-12)
    assert res.converged


def test_polynomial_integral():
    # int_0^1 t d(t^2) = int_0^1 2 t^2 dt = 2/3; left-point sums carry an
    # O(mesh) bias, so check the value, not tight convergence
    t = dyadic()
    res = rs_integral(t, t, t * t)
    assert res.value == pytest.approx(2.0 / 3.0, abs=1e-3)
    assert res.last_delta <= 1e-3


def test_chain_rule():
    # int phi dphi = (phi(1)^2 - phi(0)^2) / 2 for smooth phi
    t = dyadic()
    phi = np.cos(2 * t) + t
    res = rs_integral(t, phi, phi)
    assert res.value == pytest.approx(0.5 * (phi[-1] ** 2 - phi[0] ** 2), abs=1e-3)


def test_linearity():
    t = dyadic(2**8 + 1)
    rng = np.random.default_rng(0)
    g1, g2 = rng.standard_normal((2, t.shape[0]))
    phi = np.cumsum(rng.standard_normal(t.shape[0])) * 0.01
    a, b = 2.0, -0.5
    lhs = rs_integral(t, a * g1 + b * g2, phi, tol=0.0).value
    rhs = a * rs_integral(t, g1, phi, tol=0.0).value + b * rs_integral(t, g2, phi, tol=0.0).value
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_tol_zero_returns_finest_sum():
    t = dyadic(2**5 + 1)
    g = t**2
    phi = np.exp(t)
    res = rs_integral(t, g, phi, tol=0.0)
    finest = float(g[:-1] @ np.diff(phi))
    assert res.value == finest
    assert res.refinement_levels == 1
    assert res.last_delta == np.inf and not res.converged


def test_young_warning_for_rough_pair():
    # white-noise samples have Holder exponent ~0; the exponent-sum
    # condition fails decisively and the warning must fire
    rng = np.random.default_rng(1)
    npts = 2**10 + 1
    t = dyadic(npts)
    g = rng.standard_normal(npts)
    phi = rng.standard_normal(npts)
    res = rs_integral(t, g, phi)
    assert res.young_warning


def test_smooth_pair_no_warning():
    t = dyadic(2**8 + 1)
    res = rs_integral(t, np.sin(t), np.cos(t))
    assert not res.young_warning


def test_hvalued_matches_componentwise():
    t = dyadic(2**7 + 1)
    rng = np.random.default_rng(2)
    g = np.sin(2 * t)
    Phi = np.cumsum(rng.standard_normal((t.shape[0], 3)), axis=0) * 0.02
    res = rs_integral_hvalued(t, g, Phi, tol=0.0)
    for j in range(3):
        comp = rs_integral(t, g, Phi[:, j], tol=0.0).value
        assert res.value[j] == pytest.approx(comp, abs=1e-12)


def test_hvalued_shape_checked():
    t = dyadic(2**4 + 1)
    with pytest.raises(InvalidDimensionError):
        rs_integral_hvalued(t, t, t)


def test_sewing_slope_smooth():
    # for C^1 integrand and integrator the one-step defect scales like
    # |t - s|^2; the regression slope must be close to 2
    t = dyadic(2**8 + 1)
    g = np.sin(t)
    Phi = np.column_stack([t * t, np.cos(t)])
    gaps, defects, slope = sewing_defects(t, g, Phi, holder_H=1.0, holder_beta=0.0)
    assert gaps.size > 0
    # quadratic leading order with curvature corrections at large gaps
    assert 1.7 <= slope <= 2.6


def test_sewing_slope_holder_pair():
    # fBm-like integrator of exponent H against its own past: defects must
    # scale at least like |t-s|^{2H} minus fitting slack
    rng = np.random.default_rng(3)
    npts = 2**9 + 1
    t = dyadic(npts)
    H = 0.7
    # spectral-free synthesis: cumulative sum of correlated increments is
    # overkill here; a deterministic |.|^H profile suffices for the scaling
    g = np.abs(t - 0.37) ** H
    Phi = (np.abs(t - 0.61) ** H)[:, None]
    gaps, defects, slope = sewing_defects(t, g, Phi, holder_H=H, holder_beta=0.1)
    assert slope >= 2 * H - 0.3
