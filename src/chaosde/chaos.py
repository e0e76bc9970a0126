"""Symmetric tensors over the discrete Hilbert space and the chaos calculus
built on them: multiple Wiener-Ito integrals, contractions, the product
formula, Malliavin derivatives, Cameron-Martin Taylor shifts, divergence
reintegration and the split of a tensor along a distinguished direction.

Multiple integrals are evaluated in Wick (trace-corrected) form, e.g. for
order two I_2(F) = xi' F xi - tr(F).  With this convention every identity
below (isometry, product formula, Taylor shift, reintegration) is an exact
polynomial identity in the Gaussian coordinates, for arbitrary tensors,
including those carrying diagonal mass.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    FrozenRecord,
    InvalidDimensionError,
    SpaceMismatchError,
    UnsupportedOrderError,
    check_budget,
)
from .wiener import GaussianDraw, HilbertDisc, HilbertVec, iso_gaussian

MAX_ORDER = 3


def _check_order(q: int):
    if not 0 <= q <= MAX_ORDER:
        raise UnsupportedOrderError(f"chaos order {q} outside supported range 0..{MAX_ORDER}")


class SymTensor(FrozenRecord):
    """Order-q symmetric coefficient array, stored dense over basis indices."""

    __slots__ = ("space", "q", "coeffs")

    def __init__(self, space: HilbertDisc, q: int, coeffs: np.ndarray):
        _check_order(q)
        coeffs = np.asarray(coeffs, dtype=float)
        if q == 0:
            coeffs = coeffs.reshape(())
        expected = (space.basis_dim,) * q
        if coeffs.shape != expected:
            raise InvalidDimensionError(
                f"order-{q} tensor needs shape {expected}, got {coeffs.shape}"
            )
        super().__init__(space, q, coeffs)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs.ravel()))


def _perm_average(raw: np.ndarray, q: int) -> np.ndarray:
    import itertools

    if q <= 1:
        return raw
    acc = np.zeros_like(raw)
    perms = list(itertools.permutations(range(q)))
    for p in perms:
        acc += np.transpose(raw, p)
    return acc / len(perms)


def symmetrize(space: HilbertDisc, raw: np.ndarray, q: int = None) -> SymTensor:
    """Average an order-q coefficient array over all index permutations."""
    raw = np.asarray(raw, dtype=float)
    if q is None:
        q = raw.ndim
    _check_order(q)
    check_budget((space.basis_dim,) * q)
    return SymTensor(space, q, _perm_average(raw, q))


def tensor_inner(f: SymTensor, g: SymTensor) -> float:
    """Full q-fold Euclidean inner product of the coefficient arrays."""
    if f.space != g.space:
        raise SpaceMismatchError("tensors over different spaces")
    if f.q != g.q:
        raise SpaceMismatchError(f"orders differ: {f.q} vs {g.q}")
    return float(np.vdot(f.coeffs, g.coeffs))


def contract(f: SymTensor, g: SymTensor, r: int) -> np.ndarray:
    """r-fold contraction over the first r indices of each factor.

    Returns the raw (generally non-symmetric) coefficient array of order
    p + q - 2r; r = p = q collapses to the scalar inner product, r = 0 is
    the plain tensor product.
    """
    if f.space != g.space:
        raise SpaceMismatchError("tensors over different spaces")
    if not 0 <= r <= min(f.q, g.q):
        raise InvalidDimensionError(f"contraction order {r} out of range")
    axes = tuple(range(r))
    return np.tensordot(f.coeffs, g.coeffs, axes=(axes, axes))


def hermite_poly(n: int, x, v=1.0):
    """Hermite polynomial H_n(x; v) = v^{n/2} H_n(x / sqrt(v)) of variance v.

    Stable recurrence H_{k+1} = x H_k - k v H_{k-1}: v = 1 is the
    probabilists' H_n, v = 0 gives x^n, and with x = <g, xi>, v = |g|^2 it
    is I_n(g^{(x)n}).
    """
    if n < 0:
        raise InvalidDimensionError("Hermite degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    if n == 0:
        h = np.ones_like(x)
        return h if h.ndim else float(h)
    h, h_prev = x.copy(), np.ones_like(x) if n > 1 else None
    for k in range(1, n):
        h, h_prev = x * h - k * v * h_prev, h
    return h if h.ndim else float(h)


def _wick_value(coeffs: np.ndarray, xi: np.ndarray, q: int, batched: bool = False) -> np.ndarray:
    """I_q over the leading q axes of coeffs; trailing axes stay free.

    Divergence recursion I_q(f) = I_{q-1}(f . xi) - (q-1) I_{q-2}(tr f),
    with f . xi contracting one slot against xi and tr f tracing two slots
    out; valid for coefficients symmetric in the leading q axes.  xi is one
    draw, shape (dim,), or a batch of draws, shape (M, dim), whose axis
    leads the value.  batched says that coeffs already leads with that
    axis, one coefficient array per draw, as f . xi does for a batch.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if q < 1:
        if batched or xi.ndim == 1:
            return coeffs
        return np.broadcast_to(coeffs, xi.shape[:1] + coeffs.shape)
    if batched:
        reduced = np.einsum("bi...,bi->b...", coeffs, xi)
    else:
        reduced = np.tensordot(xi, coeffs, axes=(-1, 0))
    value = _wick_value(reduced, xi, q - 1, batched=xi.ndim == 2)
    if q > 1:
        slot = int(batched)
        traced = np.trace(coeffs, axis1=slot, axis2=slot + 1)
        value = value - (q - 1) * _wick_value(traced, xi, q - 2, batched)
    return value


def multiple_integral(f: SymTensor, w: GaussianDraw) -> float:
    """I_q(f)(w) in Wick form; exact centered polynomial of degree q."""
    if f.space != w.space:
        raise SpaceMismatchError("tensor and draw over different spaces")
    return float(_wick_value(f.coeffs, w.xi, f.q))


def product_formula_check(f: SymTensor, g: SymTensor, w: GaussianDraw) -> float:
    """Residual of the product formula, evaluated on one draw.

    I_p(f) I_q(g) - sum_r r! C(p,r) C(q,r) I_{p+q-2r}(sym contract_r);
    identically zero in the Wick model, up to rounding.
    """
    p, q = f.q, g.q
    if p + q > 4:
        raise UnsupportedOrderError("product formula evaluator limited to p + q <= 4")
    lhs = float(_wick_value(f.coeffs, w.xi, p)) * float(_wick_value(g.coeffs, w.xi, q))
    rhs = 0.0
    for r in range(min(p, q) + 1):
        coef = math.factorial(r) * math.comb(p, r) * math.comb(q, r)
        order = p + q - 2 * r
        raw = _perm_average(np.asarray(contract(f, g, r)), order)
        rhs += coef * float(_wick_value(raw, w.xi, order))
    return lhs - rhs


def malliavin_derivative(f: SymTensor, w: GaussianDraw, r: int) -> np.ndarray:
    """r-th Malliavin derivative of I_q(f): order-r array of chaos values.

    Entry (j_1..j_r) equals q!/(q-r)! * I_{q-r}(f(.,...,., j_1..j_r))(w);
    identically zero for r > q.
    """
    if f.space != w.space:
        raise SpaceMismatchError("tensor and draw over different spaces")
    return _derivative(f, w.xi, r)


def draw_values(f: SymTensor, xis, r: int = 0) -> np.ndarray:
    """D^r I_q(f) at every draw of a batch: xis holds one draw's coordinates
    per row, shape (M, basis_dim), and row k of the result is
    malliavin_derivative(f, draw k, r) (multiple_integral for r = 0), with
    shape (M,) + (basis_dim,) * r.  One pass of the Wick recursion serves
    the whole batch."""
    xis = np.asarray(xis, dtype=float)
    if xis.ndim != 2 or xis.shape[1] != f.space.basis_dim:
        raise InvalidDimensionError(
            f"draws need shape (M, {f.space.basis_dim}), got {xis.shape}")
    return _derivative(f, xis, r)


def _derivative(f: SymTensor, xi: np.ndarray, r: int) -> np.ndarray:
    if r < 0:
        raise InvalidDimensionError("derivative order must be nonnegative")
    q, dim = f.q, f.space.basis_dim
    if r > q:
        return np.zeros(xi.shape[:-1] + (dim,) * r)
    coef = math.factorial(q) / math.factorial(q - r)
    return coef * _wick_value(f.coeffs, xi, q - r)


def taylor_shift(f: SymTensor, w: GaussianDraw, h: HilbertVec, eps: float) -> float:
    """Finite Taylor sum sum_k eps^k/k! <D^k I_q(f)(w), h^{(x)k}>.

    Coincides exactly with multiple_integral(f, shift_omega(w, eps, h))
    since I_q(f) is a degree-q polynomial of the coordinates.
    """
    if f.space != w.space or h.space != f.space:
        raise SpaceMismatchError("mismatched spaces")
    q = f.q
    total = 0.0
    reduced = f.coeffs
    for k in range(q + 1):
        inner_order = q - k
        coef = math.factorial(q) / math.factorial(inner_order)
        term = float(_wick_value(reduced, w.xi, inner_order))
        total += (eps**k / math.factorial(k)) * coef * term
        if k < q:
            reduced = np.tensordot(np.asarray(reduced), h.coords, axes=(inner_order - 1, 0))
    return total


def reintegrate(f: SymTensor, w: GaussianDraw) -> float:
    """I_q(f) recovered as the divergence of u = D I_q(f) / q.

    Uses the integration-by-parts form delta(u) = sum_j u_j xi_j - sum_j D_j u_j,
    which reproduces the Wick value exactly.
    """
    if f.q < 1:
        raise UnsupportedOrderError("reintegration needs order >= 1")
    u = malliavin_derivative(f, w, 1) / f.q
    du = malliavin_derivative(f, w, 2) / f.q
    return float(u @ w.xi - np.trace(du))


def decompose_along(f: SymTensor, e0: HilbertVec):
    """Split f along a unit direction e0: f = sum_k e0^{(x)k} (.) f_{q-k}.

    Returns [(k, f_{q-k})] with each f_{q-k} a symmetric tensor supported on
    the orthogonal complement of e0 (expressed in the original basis).  The
    evaluation identity I_q(f) = sum_k I_k(e0^{(x)k}) I_{q-k}(f_{q-k}) then
    holds exactly, with I_k(e0^{(x)k}) = H_k(X_{e0}).

    Writing each slot's identity as e0 e0' + P, P = I - e0 e0', and
    expanding f over the q slots gives f_{q-k} = C(q, k) P^{(x)(q-k)} f_k
    with f_k the k-fold contraction of f with e0.  Projecting every slot of
    a symmetric array keeps it symmetric, and the parts are unique.
    """
    if f.space != e0.space:
        raise SpaceMismatchError("tensor and direction over different spaces")
    if abs(e0.norm() - 1.0) > 1e-10:
        raise InvalidDimensionError("direction vector must have unit norm")
    q, e = f.q, e0.coords
    proj = np.eye(f.space.basis_dim) - np.outer(e, e)
    parts = []
    contracted = f.coeffs
    for k in range(q + 1):
        part = math.comb(q, k) * contracted
        for _ in range(q - k):
            # contracting axis 0 appends the projected slot last, so q - k
            # passes project every slot and restore the axis order
            part = np.tensordot(part, proj, axes=(0, 0))
        parts.append((k, SymTensor(f.space, q - k, part)))
        if k < q:
            contracted = np.tensordot(contracted, e, axes=(0, 0))
    return parts


def recompose(parts, e0: HilbertVec) -> SymTensor:
    """Inverse of decompose_along: sum_k e0^{(x)k} (.) f_{q-k}."""
    q = max(k + part.q for k, part in parts)
    space = e0.space
    total = np.zeros((space.basis_dim,) * q) if q > 0 else np.array(0.0)
    for k, part in parts:
        raw = part.coeffs
        for _ in range(k):
            raw = np.multiply.outer(e0.coords, raw)
        total = total + _perm_average(np.asarray(raw), q)
    return SymTensor(space, q, total)


def decompose_eval(parts, e0: HilbertVec, w: GaussianDraw) -> float:
    """Evaluate sum_k I_k(e0^{(x)k})(w) * I_{q-k}(f_{q-k})(w)."""
    x0 = iso_gaussian(e0, w)
    total = 0.0
    for k, part in parts:
        total += float(hermite_poly(k, x0)) * float(_wick_value(part.coeffs, w.xi, part.q))
    return total
