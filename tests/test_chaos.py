"""Chaos calculus: Hermite polynomials, multiple integrals, product formula,
Malliavin derivatives, Taylor shifts, reintegration, decomposition."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosde import chaos
from chaosde.errors import (
    InvalidDimensionError,
    MemoryBudgetError,
    SpaceMismatchError,
    UnsupportedOrderError,
)
from chaosde.wiener import GaussianDraw, HilbertVec, make_hilbert, sample_omega, shift_omega
from oracles import elementary_power_value

SPACE = make_hilbert(1, 0.0, 1.0, 8)
DIM = SPACE.basis_dim
ZERO_DRAW = GaussianDraw(SPACE, np.zeros(DIM), seed=-1)


def random_tensor(q, seed, space=SPACE):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((space.basis_dim,) * q) if q else rng.standard_normal()
    return chaos.symmetrize(space, np.asarray(raw), q)


def test_hermite_poly_low_orders():
    # H_n(x; v) = v^{n/2} H_n(x / sqrt(v)); v = 0 leaves the monomial x^n
    x = 1.3
    for v in (1.0, 0.36, 2.5, 0.0):
        assert chaos.hermite_poly(0, x, v) == 1.0
        assert chaos.hermite_poly(1, x, v) == pytest.approx(x)
        assert chaos.hermite_poly(2, x, v) == pytest.approx(x * x - v)
        assert chaos.hermite_poly(3, x, v) == pytest.approx(x**3 - 3 * v * x)
        assert chaos.hermite_poly(4, x, v) == pytest.approx(x**4 - 6 * v * x * x + 3 * v * v)
    # frozen oracle: H_4(1.3) = 1.3^4 - 6*1.3^2 + 3
    assert chaos.hermite_poly(4, x) == pytest.approx(-4.2839, abs=1e-10)


@given(st.integers(1, 7), st.floats(-4.0, 4.0), st.floats(0.25, 4.0))
@settings(max_examples=50, deadline=None)
def test_hermite_recurrence(n, x, v):
    lhs = chaos.hermite_poly(n + 1, x)
    rhs = x * chaos.hermite_poly(n, x) - n * chaos.hermite_poly(n - 1, x)
    assert lhs == pytest.approx(rhs, abs=1e-8 * (1 + abs(rhs)))
    scaled = v ** (n / 2) * chaos.hermite_poly(n, x / math.sqrt(v))
    assert chaos.hermite_poly(n, x, v) == pytest.approx(scaled, abs=1e-8 * (1 + abs(scaled)))


def test_symmetrize_is_symmetric_and_idempotent():
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((DIM, DIM, DIM))
    f = chaos.symmetrize(SPACE, raw)
    c = f.coeffs
    assert np.allclose(c, np.transpose(c, (1, 0, 2)))
    assert np.allclose(c, np.transpose(c, (0, 2, 1)))
    again = chaos.symmetrize(SPACE, c)
    assert np.allclose(again.coeffs, c)


def test_order_cap_and_budget():
    with pytest.raises(UnsupportedOrderError):
        chaos.SymTensor(SPACE, 4, np.zeros((DIM,) * 4))
    big = make_hilbert(1, 0.0, 1.0, 1024)
    with pytest.raises(MemoryBudgetError):
        chaos.symmetrize(big, np.zeros(1), q=3)


def test_contract_against_matrix_algebra():
    f = random_tensor(2, 2)
    g = random_tensor(2, 3)
    assert chaos.contract(f, g, 2) == pytest.approx(np.sum(f.coeffs * g.coeffs))
    c1 = chaos.contract(f, g, 1)
    assert np.allclose(c1, f.coeffs.T @ g.coeffs)
    # r = 0 is the tensor product, each entry one product
    assert np.array_equal(chaos.contract(f, g, 0), np.multiply.outer(f.coeffs, g.coeffs))
    s = random_tensor(0, 4)
    assert np.array_equal(chaos.contract(s, g, 0), s.coeffs * g.coeffs)
    assert chaos.contract(s, s, 0) == s.coeffs * s.coeffs
    with pytest.raises(InvalidDimensionError):
        chaos.contract(f, g, 3)


def test_multiple_integral_wick_values():
    w = sample_omega(SPACE, 5)
    xi = w.xi
    f1 = random_tensor(1, 10)
    assert type(chaos.multiple_integral(f1, w)) is float
    assert chaos.multiple_integral(f1, w) == pytest.approx(float(f1.coeffs @ xi))
    f2 = random_tensor(2, 11)
    expected = float(xi @ f2.coeffs @ xi - np.trace(f2.coeffs))
    assert chaos.multiple_integral(f2, w) == pytest.approx(expected)
    # zero draw: I_2 reduces to minus the trace correction
    assert chaos.multiple_integral(f2, ZERO_DRAW) == pytest.approx(
        -np.trace(f2.coeffs)
    )
    f3 = random_tensor(3, 12)
    c = f3.coeffs
    expected = float(np.einsum("ijk,i,j,k->", c, xi, xi, xi) - 3.0 * np.einsum("iik,k->", c, xi))
    assert chaos.multiple_integral(f3, w) == pytest.approx(expected)


def test_multiple_integral_space_checked():
    other = make_hilbert(1, 0.0, 1.0, 16)
    f = random_tensor(1, 0)
    with pytest.raises(SpaceMismatchError):
        chaos.multiple_integral(f, sample_omega(other, 0))


@pytest.mark.parametrize("q", [0, 1, 2, 3])
def test_elementary_power_oracle(q):
    # I_q of a pure power tensor equals |g|^q H_q(X_g / |g|), also for g = 0
    rng = np.random.default_rng(q)
    for scale in (1.0, 0.0):
        g = HilbertVec(SPACE, scale * rng.standard_normal(DIM))
        power = np.array(1.0)
        for _ in range(q):
            power = np.multiply.outer(power, g.coords)
        f = chaos.SymTensor(SPACE, q, power)
        for seed in range(10):
            w = sample_omega(SPACE, seed)
            lhs = chaos.multiple_integral(f, w)
            rhs = elementary_power_value(g, q, w)
            assert lhs == pytest.approx(rhs, abs=1e-10 * max(1, abs(rhs)))


def test_isometry_monte_carlo():
    # E[I_2(f) I_2(g)] = 2 <f, g> at 3 sigma
    f = random_tensor(2, 20)
    g = random_tensor(2, 21)
    M = 20000
    rng = np.random.Generator(np.random.Philox(key=np.uint64(99)))
    xis = rng.standard_normal((M, DIM))
    i2f = np.einsum("mi,ij,mj->m", xis, f.coeffs, xis) - np.trace(f.coeffs)
    i2g = np.einsum("mi,ij,mj->m", xis, g.coeffs, xis) - np.trace(g.coeffs)
    prod = i2f * i2g
    target = 2.0 * chaos.tensor_inner(f, g)
    sig = np.std(prod, ddof=1) / math.sqrt(M)
    assert abs(np.mean(prod) - target) <= 3.0 * sig


@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 2), (1, 3)])
def test_product_formula_exact(p, q):
    f = random_tensor(p, 30 + p)
    g = random_tensor(q, 40 + q)
    for seed in range(10):
        w = sample_omega(SPACE, seed)
        assert abs(chaos.product_formula_check(f, g, w)) <= 1e-10


def test_product_formula_order_cap():
    f = random_tensor(2, 0)
    g = random_tensor(3, 1)
    with pytest.raises(UnsupportedOrderError):
        chaos.product_formula_check(f, g, ZERO_DRAW)


def test_malliavin_derivative_first_order():
    # D I_2(f) has entries 2 I_1(f(., j)) = 2 (f xi)_j; finite differences of
    # the polynomial in xi must agree
    f = random_tensor(2, 50)
    w = sample_omega(SPACE, 3)
    d1 = chaos.malliavin_derivative(f, w, 1)
    assert np.allclose(d1, 2.0 * f.coeffs @ w.xi)
    eps = 1e-6
    for j in range(DIM):
        h = HilbertVec(SPACE, np.eye(DIM)[j])
        up = chaos.multiple_integral(f, shift_omega(w, eps, h))
        dn = chaos.multiple_integral(f, shift_omega(w, -eps, h))
        assert (up - dn) / (2 * eps) == pytest.approx(d1[j], abs=1e-6)


@pytest.mark.parametrize("q", [0, 1, 2, 3])
def test_malliavin_derivative_order_zero_is_value(q):
    f = random_tensor(q, 52 + q)
    for seed in range(3):
        w = sample_omega(SPACE, seed)
        d0 = chaos.malliavin_derivative(f, w, 0)
        assert float(d0) == pytest.approx(chaos.multiple_integral(f, w), rel=1e-13)


def _closed_form_wick(c, xi, q):
    """Hand-expanded Wick values of orders 0..4 (oracle for the recursion).

    Order 4 has 6 single and 3 double pairings for a symmetric array."""
    if q == 0:
        return float(c)
    if q == 1:
        return float(c @ xi)
    if q == 2:
        return float(xi @ c @ xi - np.trace(c))
    if q == 3:
        return float(np.einsum("ijk,i,j,k->", c, xi, xi, xi)
                     - 3.0 * np.einsum("iik,k->", c, xi))
    m4 = np.einsum("ijkl,i,j,k,l->", c, xi, xi, xi, xi)
    m2 = np.einsum("iikl,k,l->", c, xi, xi)
    return float(m4 - 6.0 * m2 + 3.0 * np.einsum("iijj->", c))


def _closed_form_derivative(c, xi, q, r):
    """Hand-expanded D^r I_q for inner order q - r <= 2 (oracle)."""
    coef = math.factorial(q) / math.factorial(q - r)
    inner = q - r
    if inner == 0:
        return coef * c
    if inner == 1:
        return coef * np.tensordot(xi, c, axes=(0, 0))
    return coef * (np.einsum("i,j,ij...->...", xi, xi, c) - np.einsum("ii...->...", c))


@pytest.mark.parametrize("n", [4, 8, 13])
@pytest.mark.parametrize("seed", range(4))
def test_wick_recursion_matches_closed_forms(n, seed):
    space = make_hilbert(1, 0.0, 1.0, n)
    w = sample_omega(space, seed)

    def close(got, want, scale=1.0):
        err = np.max(np.abs(np.asarray(got) - want))
        return err <= 1e-13 * max(scale, np.max(np.abs(want)))

    for q in range(4):
        f = random_tensor(q, 1000 * n + seed, space)
        assert close(chaos.multiple_integral(f, w), _closed_form_wick(f.coeffs, w.xi, q))
        for r in range(q + 1):
            want = (_closed_form_derivative(f.coeffs, w.xi, q, r) if q - r <= 2
                    else _closed_form_wick(f.coeffs, w.xi, q))
            assert close(chaos.malliavin_derivative(f, w, r), want)
    rng = np.random.default_rng(seed)
    c4 = chaos._perm_average(rng.standard_normal((n,) * 4), 4)
    # order 4 cancels down from terms of size |c4| |xi|^4: measure against that
    scale = np.linalg.norm(c4) * np.linalg.norm(w.xi) ** 4
    assert close(chaos._wick_value(c4, w.xi, 4), _closed_form_wick(c4, w.xi, 4), scale)


@pytest.mark.parametrize("q", [0, 1, 2, 3])
def test_draw_values_match_per_draw_oracle(q):
    # the batched Wick recursion against one multiple_integral or
    # malliavin_derivative call per draw, for every derivative order
    f = random_tensor(q, 60 + q)
    draws = [sample_omega(SPACE, seed) for seed in range(40)]
    xis = np.array([w.xi for w in draws])
    for r in range(q + 2):
        got = chaos.draw_values(f, xis, r)
        want = np.array([chaos.malliavin_derivative(f, w, r) for w in draws])
        assert got.shape == want.shape == (40,) + (DIM,) * r
        assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1e-300)
    values = chaos.draw_values(f, xis)
    oracle = [chaos.multiple_integral(f, w) for w in draws]
    assert np.max(np.abs(values - oracle)) <= 1e-13 * np.max(np.abs(oracle))
    assert chaos.draw_values(f, xis[:0]).shape == (0,)


def test_draw_values_shape_checked():
    f = random_tensor(2, 0)
    for bad in (np.zeros(DIM), np.zeros((3, DIM + 1)), np.zeros((2, 3, DIM))):
        with pytest.raises(InvalidDimensionError):
            chaos.draw_values(f, bad)
    with pytest.raises(InvalidDimensionError):
        chaos.draw_values(f, np.zeros((3, DIM)), -1)


def test_malliavin_derivative_vanishing_order():
    f = random_tensor(2, 51)
    w = sample_omega(SPACE, 4)
    assert np.all(chaos.malliavin_derivative(f, w, 3) == 0.0)
    d2 = chaos.malliavin_derivative(f, w, 2)
    assert np.allclose(d2, 2.0 * f.coeffs)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_taylor_shift_matches_shifted_draw(q):
    f = random_tensor(q, 60 + q)
    rng = np.random.default_rng(q)
    for seed in range(10):
        w = sample_omega(SPACE, seed)
        h = HilbertVec(SPACE, rng.standard_normal(DIM))
        eps = float(rng.uniform(-2, 2))
        lhs = chaos.taylor_shift(f, w, h, eps)
        rhs = chaos.multiple_integral(f, shift_omega(w, eps, h))
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))


@pytest.mark.parametrize("q", [1, 2, 3])
def test_reintegrate_recovers_value(q):
    f = random_tensor(q, 70 + q)
    for seed in range(10):
        w = sample_omega(SPACE, seed)
        lhs = chaos.reintegrate(f, w)
        rhs = chaos.multiple_integral(f, w)
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))


def unit_vector(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(DIM)
    return HilbertVec(SPACE, v / np.linalg.norm(v))


def negative_first(seed):
    v = unit_vector(seed).coords.copy()
    v[0] = -abs(v[0])
    return v


# the basis directions +-e_0 and e_j and a first coordinate below zero are
# the cases a rotation taking e0 to the first basis vector must special-case
DIRECTIONS = {
    "e0": lambda seed: np.eye(DIM)[0],
    "-e0": lambda seed: -np.eye(DIM)[0],
    "e3": lambda seed: np.eye(DIM)[3],
    "negative-first": negative_first,
}


@pytest.mark.parametrize("q, direction", [pytest.param(q, None, id=str(q)) for q in (1, 2, 3)]
                         + [pytest.param(q, name, id=f"{q}-{name}")
                            for q in (1, 2, 3) for name in DIRECTIONS])
def test_decompose_roundtrip_and_eval(q, direction):
    f = random_tensor(q, 80 + q)
    e0 = unit_vector(q) if direction is None else HilbertVec(SPACE, DIRECTIONS[direction](q))
    parts = chaos.decompose_along(f, e0)
    back = chaos.recompose(parts, e0)
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12
    for k, part in parts:
        if part.q >= 1:
            # each part is orthogonal to e0 in every slot
            proj = np.tensordot(part.coeffs, e0.coords, axes=(0, 0))
            assert np.max(np.abs(proj)) <= 1e-12
            # and symmetric, with no symmetrization pass
            for perm in itertools.permutations(range(part.q)):
                gap = np.max(np.abs(part.coeffs - np.transpose(part.coeffs, perm)))
                assert gap <= 1e-14 * part.norm()
    for seed in range(5):
        w = sample_omega(SPACE, seed)
        lhs = chaos.multiple_integral(f, w)
        rhs = chaos.decompose_eval(parts, e0, w)
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(lhs)))


def test_decompose_norm_bound():
    # sum of squared part norms stays within a constant of |f|^2
    for q in (2, 3):
        for seed in range(10):
            f = random_tensor(q, 100 + seed)
            e0 = unit_vector(seed)
            parts = chaos.decompose_along(f, e0)
            total = sum(
                (part.norm() if part.q else abs(float(part.coeffs))) ** 2
                for _, part in parts
            )
            assert total <= 4.0 * f.norm() ** 2 + 1e-12


def test_decompose_requires_unit_direction():
    f = random_tensor(2, 0)
    with pytest.raises(InvalidDimensionError):
        chaos.decompose_along(f, HilbertVec(SPACE, 2.0 * np.eye(DIM)[0]))


@given(st.integers(0, 10_000), st.floats(-1.5, 1.5), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_taylor_shift_property(seed, eps, q):
    f = random_tensor(q, seed % 17)
    rng = np.random.default_rng(seed)
    w = sample_omega(SPACE, seed)
    h = HilbertVec(SPACE, rng.standard_normal(DIM))
    lhs = chaos.taylor_shift(f, w, h, eps)
    rhs = chaos.multiple_integral(f, shift_omega(w, eps, h))
    assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(rhs)))
