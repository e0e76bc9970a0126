"""Hermite driver kernels: constants, pointwise values, blocks, simulation,
covariance, the central-limit oracle and self-similarity."""

import io
import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

from chaosde.errors import (
    InvalidDimensionError,
    MemoryBudgetError,
    OutOfRangeError,
    UnsupportedOrderError,
)
from chaosde.wiener import DRAW_BLOCK, GaussianDraw, make_hilbert, sample_omega
from chaosde.chaos import hermite_poly
from chaosde import hermite
from chaosde.hermite import (
    _canonical_entries,
    _cell_avg_matrix,
    _factor_derivative,
    GridDriver,
    HermiteSpec,
    KernelField,
    build_kernels,
    covariance_theoretical,
    export_kernels,
    hurst_aux,
    self_similarity_stat,
    simulate_path,
    simulate_paths,
)
from chaosde.textio import export_paths
from oracles import (canonical_gemm, cell_avg_two_tables, dense_block, dense_deriv_vectors,
                     import_kernels, kernel_eval, nclt_paths, row_block_gemm)

# frozen constants from independent adaptive quadrature of the Beta
# integrals B(a, b) = int_0^1 s^{a-1} (1-s)^{b-1} ds
C_07_1 = 0.21836182618075642
C_07_2 = 0.06802476430913895
# c(H=0.7, q=1) / (H0 - 1/2) * t^{H0 - 1/2} at t = 1
KERNEL_Q1_AT0 = 1.091809130903782
# c(H=0.7, q=2) * int_0^1 (s + 0.5)^{-1.3} ds
KERNEL_Q2_AT_HALF = 0.07838197004488931
#: the widths `hermite.TAIL_TILE`'s comment lists
TILE_WIDTHS = (256, 512, 1000, 1024, 2048, 4096)


def small_spec(q=1, H=0.7, n=64, L=4.0, m=1, **kw):
    space = make_hilbert(m, -L, 1.0, n)
    return HermiteSpec(q=q, H=H, m=m, space=space, **kw)


def test_hurst_aux_frozen_constants():
    H0, c = hurst_aux(0.7, 1)
    assert H0 == pytest.approx(0.7)
    assert c == pytest.approx(C_07_1, rel=1e-8)
    H0, c = hurst_aux(0.7, 2)
    assert H0 == pytest.approx(0.85)
    assert c == pytest.approx(C_07_2, rel=1e-8)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_hurst_aux_constant_normalizes_the_variance(q):
    # c^2 q! B^q = H(2H - 1), with B from math.gamma: a route that shares
    # no code with the log-gamma sum in hurst_aux
    for H in np.linspace(0.5, 1.0, 62)[1:-1]:
        H0, c = hurst_aux(H, q)
        assert H0 == 1.0 + (H - 1.0) / q
        a, b = H0 - 0.5, 2.0 - 2.0 * H0
        B = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
        assert c**2 * math.factorial(q) * B**q == pytest.approx(H * (2.0 * H - 1.0), rel=1e-13)


def test_hurst_aux_validation():
    with pytest.raises(OutOfRangeError):
        hurst_aux(0.5, 1)
    with pytest.raises(OutOfRangeError):
        hurst_aux(0.7, 0)


def kernels(spec, calibrate=True):
    """build_kernels(spec), or without calibrate the same field with every
    rho at 1: the raw factor blocks."""
    field = build_kernels(spec)
    if calibrate:
        return field
    return KernelField(field.spec, field.g, field.beta, np.ones(len(spec.out_times)), False)


def test_spec_validation():
    with pytest.raises(UnsupportedOrderError):
        small_spec(q=4)
    with pytest.raises(InvalidDimensionError):
        HermiteSpec(q=1, H=0.7, m=1, space=make_hilbert(1, 0.0, 1.0, 8))
    with pytest.raises(InvalidDimensionError):
        small_spec(out_times=(0.5, 0.25))
    with pytest.raises(OutOfRangeError):
        small_spec(out_times=(0.5, 2.0))
    # q >= 2 factors hold one row of n+1 cell edges per quadrature node: a
    # billion nodes is over budget, rejected before any node exists; q = 1
    # has one exact factor and never reads s_nodes
    with pytest.raises(MemoryBudgetError):
        small_spec(q=2, s_nodes=10**9)
    small_spec(q=1, s_nodes=10**9)


def test_kernel_eval_frozen_oracles():
    spec1 = small_spec(q=1)
    assert kernel_eval(spec1, 1.0, [0.0]) == pytest.approx(KERNEL_Q1_AT0, rel=1e-8)
    spec2 = small_spec(q=2, s_nodes=512)
    val = kernel_eval(spec2, 1.0, [-0.5, -0.5])
    assert val == pytest.approx(KERNEL_Q2_AT_HALF, rel=1e-4)


def test_kernel_eval_support():
    spec = small_spec(q=2)
    assert kernel_eval(spec, 0.5, [0.6, -1.0]) == 0.0
    assert kernel_eval(spec, 0.5, [0.5, -1.0]) == 0.0
    with pytest.raises(OutOfRangeError):
        kernel_eval(spec, 0.0, [0.0, 0.0])


@pytest.mark.parametrize("q", [1, 2, 3])
def test_blocks_calibrated_norm_and_adapted(q):
    n = 48 if q == 3 else 64
    spec = small_spec(q=q, n=n, out_times=(0.5, 1.0))
    field = build_kernels(spec)
    for ti, t in enumerate(spec.out_times):
        target = math.sqrt(t ** (2 * spec.H) / math.factorial(q))
        assert math.sqrt(field.inner(ti, ti)) == pytest.approx(target, rel=1e-12)
        block = field.blocks[ti]
        # adaptedness: cells with midpoint at or past t carry nothing
        dead = spec.space.cell_midpoints() >= t
        assert np.all(block[dead] == 0.0)
        # symmetry
        if q == 2:
            assert np.allclose(block, block.T)


def test_dense_budget_counts_every_block():
    # one 512^3 block is exactly 2^27 entries, within budget; the dense view
    # holds one block per output time, 3 * 2^27 entries (3.2 GB), which is
    # not.  The check itself allocates nothing.
    spec = small_spec(q=3, n=512, out_times=(0.25, 0.5, 1.0))
    field = build_kernels(spec)
    with pytest.raises(MemoryBudgetError):
        field.check_dense_budget()
    build_kernels(small_spec(q=3, n=512, out_times=(1.0,))).check_dense_budget()


def test_calibration_gram_budget():
    # calibration forms the (nodes, nodes) Gram of the factors: 20000 time
    # nodes pass the factor check at n = 16 but their Gram (4e8 entries)
    # is over budget, for the kernels and for a solver-grid driver alike
    with pytest.raises(MemoryBudgetError):
        build_kernels(small_spec(q=2, n=16, s_nodes=20_000, out_times=(1.0,)))
    with pytest.raises(MemoryBudgetError):
        GridDriver(small_spec(q=1, n=16), np.linspace(0.0, 1.0, 20_001))


def test_block_q1_matches_pointwise_kernel():
    # for q = 1 the cell average converges to the pointwise value at the
    # midpoint times sqrt(delta); compare on an interior cell
    spec = small_spec(q=1, n=512, out_times=(1.0,))
    field = kernels(spec, calibrate=False)
    i = 300  # interior cell, away from 0 and t
    mid = spec.space.cell_midpoints()[i]
    expected = kernel_eval(spec, 1.0, [mid]) * math.sqrt(spec.space.delta)
    assert field.blocks[0][i] == pytest.approx(expected, rel=1e-3)


def test_cell_avg_matrix_matches_the_two_table_oracle():
    # one power table over the n + 1 edges against one per cell side, bit
    # for bit: random grids of extent 1e-300 to 1e300 (overflow to inf and
    # NaN included), nodes on cell edges, before lo and past hi, and the
    # exponents a + 1 the kernels take, (0, 1/2) and (1, 3/2), besides (1/2, 2)
    rng = np.random.default_rng(37)
    scales = np.concatenate([[1e-300, 1e300], 10.0 ** rng.uniform(-300, 300, 298)])
    exponents = np.concatenate([rng.uniform(0.5, 2.0, 150), rng.uniform(0.0, 0.5, 75),
                                rng.uniform(1.0, 1.5, 75)])
    for scale, power in zip(scales, exponents):
        n = int(rng.integers(2, 200))
        space = make_hilbert(1, -scale * rng.uniform(0.1, 10.0), scale * rng.uniform(0.1, 10.0), n)
        edges = space.cell_edges()
        s = np.concatenate([rng.choice(edges, 8), rng.uniform(space.lo, space.hi, 8),
                            [space.lo - scale, space.hi + scale]])
        with np.errstate(all="ignore"):
            got = _cell_avg_matrix(space, s, power - 1.0)
            want = cell_avg_two_tables(space, s, power - 1.0)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def zero_draw(space):
    return GaussianDraw(space, np.zeros(space.basis_dim), seed=-1)


def test_simulate_path_zero_draw():
    spec1 = small_spec(q=1)
    field1 = build_kernels(spec1)
    assert np.all(simulate_path(field1, zero_draw(spec1.space)).values == 0.0)
    # order 2 at the zero draw reduces to minus the trace correction
    spec2 = small_spec(q=2)
    field2 = build_kernels(spec2)
    vals = simulate_path(field2, zero_draw(spec2.space)).values
    for ti in range(len(spec2.out_times)):
        assert vals[ti, 0] == pytest.approx(-np.trace(field2.blocks[ti]))


def test_simulate_paths_matches_loop():
    # blocks of draws, a short last one included, give every row the bits of
    # its own simulate_path
    seeds = range(40, 40 + 2 * DRAW_BLOCK + 5)
    for q, m in itertools.product((1, 2, 3), (1, 2, 3)):
        spec = small_spec(q=q, n=20 if q == 3 else 33, m=m, s_nodes=24)
        field = build_kernels(spec)
        batch = simulate_paths(field, seeds)
        assert batch.shape == (len(seeds), len(spec.out_times), m)
        for k, seed in enumerate(seeds):
            one = simulate_path(field, sample_omega(spec.space, seed)).values
            assert np.array_equal(batch[k], one)
    assert simulate_paths(field, []).shape == (0, len(spec.out_times), m)


def test_simulate_paths_row_independent_of_batch():
    # sample k is the same on its own as inside a larger batch, bit for bit
    spec = small_spec(q=3, n=32, m=2)
    field = build_kernels(spec)
    batch = simulate_paths(field, range(10, 30))
    for k in (0, 7, 19):
        assert np.array_equal(simulate_paths(field, [10 + k])[0], batch[k])


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_factored_matches_dense_chaos(q, m):
    # the factored value and derivative equal the dense chaos calculus
    # applied to the blocks they describe
    from chaosde import chaos

    n = 24 if q == 3 else 48
    spec = small_spec(q=q, n=n, m=m, out_times=(0.25, 0.5, 1.0))
    field = build_kernels(spec)
    sub = make_hilbert(1, spec.space.lo, spec.space.hi, n)
    for seed in range(4):
        w = sample_omega(spec.space, seed)
        got = simulate_path(field, w).values
        want = np.empty_like(got)
        for ell in range(m):
            w_sub = GaussianDraw(sub, spec.space.components(w.xi)[ell], seed)
            for ti in range(len(spec.out_times)):
                f = chaos.SymTensor(sub, q, field.blocks[ti])
                want[ti, ell] = chaos.multiple_integral(f, w_sub)
                d_want = chaos.malliavin_derivative(f, w_sub, 1)
                d_got = field.rho[ti] * _factor_derivative(
                    spec, field.g[ti], field.beta[ti], spec.space.components(w.xi))[ell]
                assert np.max(np.abs(d_got - d_want)) <= 1e-13 * np.max(np.abs(d_want))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("q", [1, 2, 3])
def test_wick_weights_match_closed_forms(q):
    # hand-expanded per-order weight table, the oracle for the Hermite
    # recurrence: the value weight H_q at the projections, and the
    # derivative weight, each taken on its own
    from chaosde.hermite import _deriv_weights, _projections

    rng = np.random.default_rng(q)
    g = rng.standard_normal((40, 32))
    xi = rng.standard_normal((2, 32))
    gx, gg = np.array([g @ x for x in xi]), np.einsum("ki,ki->k", g, g)
    want = {1: (gx, np.ones_like(gx)),
            2: (gx * gx - gg, 2.0 * gx),
            3: (gx**3 - 3.0 * gg * gx, 3.0 * (gx * gx - gg))}[q]
    got_gx = _projections(small_spec(q=q, n=32, m=2), g, xi)
    assert np.array_equal(got_gx, gx)
    for got, ref in zip((hermite_poly(q, got_gx, gg), _deriv_weights(q, got_gx, gg)), want):
        if q < 3:
            assert np.array_equal(got, ref)
        else:
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_covariance_theoretical_values():
    assert covariance_theoretical(0.0, 1.0, 0.7) == 0.0
    assert covariance_theoretical(1.0, 1.0, 0.7) == pytest.approx(1.0)
    # frozen: 0.5 (1 + 2^1.4 - 1) = 2^0.4
    assert covariance_theoretical(1.0, 2.0, 0.7) == pytest.approx(
        1.3195079107728942, rel=1e-12
    )
    with pytest.raises(OutOfRangeError):
        covariance_theoretical(-1.0, 1.0, 0.7)


@pytest.mark.parametrize("q", [1, 2])
def test_kernel_inner_products_match_covariance(q):
    # isometry: E[Z_s Z_t] = q! <f_s, f_t>; with calibrated blocks this
    # must match the closed-form covariance closely
    n = 256 if q == 1 else 264
    L = 8.0 if q == 1 else 32.0
    spec = HermiteSpec(q=q, H=0.7, m=1, space=make_hilbert(1, -L, 1.0, n),
                       out_times=(0.25, 0.5, 1.0))
    field = build_kernels(spec)
    for i, s in enumerate(spec.out_times):
        for j, t in enumerate(spec.out_times):
            if i > j:
                continue
            ip = math.factorial(q) * float(np.sum(field.blocks[i] * field.blocks[j]))
            tgt = covariance_theoretical(s, t, 0.7)
            assert ip == pytest.approx(tgt, rel=0.05)


def test_variance_monte_carlo_q1():
    spec = small_spec(q=1, n=128, L=8.0, out_times=(1.0,))
    field = build_kernels(spec)
    vals = simulate_paths(field, range(4000))[:, 0, 0]
    M = vals.shape[0]
    sig = np.std(vals * vals, ddof=1) / math.sqrt(M)
    assert abs(np.mean(vals * vals) - 1.0) <= 3.0 * sig


def test_nclt_oracle_variance():
    # independent construction; marginal variance at t must be t^{2H}
    for q in (1, 2):
        spec = small_spec(q=q, n=16, out_times=(0.5, 1.0))
        vals = nclt_paths(spec, range(3000), steps_per_unit=64)
        for ti, t in enumerate(spec.out_times):
            v = vals[:, ti, 0]
            sig = np.std(v * v, ddof=1) / math.sqrt(v.shape[0])
            assert abs(np.mean(v * v) - t ** (2 * spec.H)) <= 4.0 * sig


def test_nclt_paths_accepts_iterator():
    spec = small_spec(q=2, n=16, out_times=(0.5, 1.0))
    from_range = nclt_paths(spec, range(5), steps_per_unit=32)
    from_gen = nclt_paths(spec, (s for s in range(5)), steps_per_unit=32)
    assert np.array_equal(from_gen, from_range)


def test_export_import_roundtrip(tmp_path):
    # the dump reads back as the dense view bit for bit, at every order
    for q in (1, 2, 3):
        spec = small_spec(q=q, n=12 if q == 3 else 24, m=2, out_times=(0.5, 1.0))
        field = kernels(spec, calibrate=q != 3)
        path = str(tmp_path / f"kernels{q}.txt")
        with open(path, "wb") as fh:
            export_kernels(field, fh)
        back_spec, back_blocks, back_calibrated = import_kernels(path)
        assert back_spec == spec
        assert back_calibrated == field.calibrated
        assert np.array_equal(back_blocks, field.blocks)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("q", [2, 3])
def test_blocks_are_exactly_symmetric(q, m):
    # every transposition of a block is the block itself, bit for bit, and
    # its canonical entries are those of the exporter
    for n, s_nodes in ((14, 64), (21, 21), (30, 16)):
        spec = small_spec(q=q, n=n, L=1.0, m=m, s_nodes=s_nodes, out_times=(0.5, 1.0))
        field = build_kernels(spec)
        for ti, block in enumerate(field.blocks):
            for perm in itertools.permutations(range(q)):
                assert np.array_equal(np.transpose(block, perm), block)
            index, values = _canonical_entries(field, ti)
            assert np.array_equal(block[tuple(index)], values)


def _export_kernels_loop(field, fh):
    """Line-by-line kernel dump to a binary stream, one write per canonical
    multi-index: the oracle for the row-batched export_kernels."""
    spec = field.spec
    fh.write(f"# chaosde kernel field q={spec.q} H={spec.H:.17g} m={spec.m}\n".encode())
    fh.write(f"# space lo={spec.space.lo:.17g} hi={spec.space.hi:.17g} n={spec.space.n}\n"
             .encode())
    fh.write(f"# s_nodes={spec.s_nodes} calibrated={int(field.calibrated)}\n".encode())
    fh.write(("# times " + " ".join(f"{t:.17g}" for t in spec.out_times) + "\n").encode())
    for ti, block in enumerate(field.blocks):
        for idx in itertools.combinations_with_replacement(range(spec.space.n), spec.q):
            v = block[idx]
            if v != 0.0:
                cols = " ".join(str(i) for i in idx)
                fh.write(f"{ti} {cols} {v:.17g}\n".encode())


def _dump(export, field) -> str:
    buf = io.BytesIO()
    export(field, buf)
    return buf.getvalue().decode()


@pytest.mark.parametrize("calibrate", [True, False])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_export_kernels_matches_line_loop(q, m, calibrate):
    # out_times 0.5 leaves the cells in (0.5, 1] of the first block at zero
    n = 14 if q == 3 else 40
    spec = small_spec(q=q, n=n, L=1.0, m=m, out_times=(0.5, 1.0))
    field = kernels(spec, calibrate=calibrate)
    got = _dump(export_kernels, field)
    assert got == _dump(_export_kernels_loop, field)
    data = [line for line in got.splitlines() if not line.startswith("#")]
    assert 0 < len(data) < 2 * math.comb(n + q - 1, q)
    assert any(line.startswith("0 ") for line in data)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_export_kernels_special_values_match_line_loop(q, monkeypatch):
    # zeros, -0.0 (skipped), subnormals, NaN (kept) and infinities at
    # scattered canonical entries, fed to the exporter in place of the
    # canonical values and to the line loop through its dense view
    n = 10 if q == 3 else 30
    spec = small_spec(q=q, n=n, L=1.0, out_times=(0.5, 1.0))
    field = build_kernels(spec)
    blocks = field.blocks.copy()
    canon = list(itertools.combinations_with_replacement(range(n), q))
    rng = np.random.default_rng(q)
    specials = [0.0, -0.0, 5e-324, np.nan, -2.5e-310, np.inf, -np.inf, -0.0]
    for ti in range(blocks.shape[0]):
        for k, pick in enumerate(rng.choice(len(canon), size=24, replace=False)):
            blocks[(ti,) + canon[pick]] = specials[k % len(specials)]
    blocks[(1,) + (n - 1,) * q] = -0.0
    blocks[(1,) + (0,) * q] = np.nan
    field.__dict__["blocks"] = blocks

    row_blocks = hermite._canonical_blocks
    tails, starts = field._canonical

    def entries(field, ti):
        for a, values in row_blocks(field, ti):
            for i1, row in enumerate(values, a):
                row[starts[i1] - starts[a]:] = blocks[ti][(i1, *tails[:, starts[i1]:])]
            yield a, values

    monkeypatch.setattr(hermite, "_canonical_blocks", entries)
    got = _dump(export_kernels, field)
    assert got == _dump(_export_kernels_loop, field)
    values = [line.split()[-1] for line in got.splitlines() if not line.startswith("#")]
    assert {"nan", "inf", "-inf", "4.9406564584124654e-324"} <= set(values)
    assert not any(v in ("0", "-0") for v in values)


@pytest.mark.parametrize("calibrate", [True, False])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_canonical_entries_match_blocks(q, m, calibrate):
    # grids with n below, at and above s_nodes
    for n, s_nodes in ((14, 64), (24, 24), (40, 16)):
        spec = small_spec(q=q, n=n, L=1.0, m=m, s_nodes=s_nodes, out_times=(0.5, 1.0))
        field = kernels(spec, calibrate=calibrate)
        canon = np.array(list(itertools.combinations_with_replacement(range(n), q))).T
        for ti in range(len(spec.out_times)):
            index, values = _canonical_entries(field, ti)
            assert np.array_equal(index, canon)
            assert np.array_equal(values, field.blocks[ti][tuple(canon)])


@pytest.mark.parametrize("calibrate", [True, False])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_canonical_entries_match_dense_oracle(q, m, calibrate):
    # the row-blocked entries against the dense einsum and against one
    # GEMM over the whole time, within 1e-13 of the block's largest entry:
    # n below, at and above s_nodes (q = 3 at n = 60 takes a non-BLAS
    # einsum), out_times 0.3 leaving the cells past t at zero, and the
    # 2-component grid of 100 cells on 32 nodes (a block's GEMM may sum in
    # another order where BLAS picks another kernel for its smaller M)
    for n, s_nodes, L in ((14, 64, 1.0), (24, 24, 1.0), (40, 16, 1.0), (60, 64, 8.0),
                          (100, 32, 8.0)):
        spec = small_spec(q=q, n=n, L=L, m=m, s_nodes=s_nodes, out_times=(0.3, 1.0))
        field = kernels(spec, calibrate=calibrate)
        canon = tuple(np.array(list(itertools.combinations_with_replacement(range(n), q))).T)
        for ti in range(len(spec.out_times)):
            want = dense_block(field, ti)[canon]
            index, values = _canonical_entries(field, ti)
            assert np.array_equal(index, canon)
            assert np.max(np.abs(values - want)) <= 1e-13 * np.max(np.abs(want))
            assert np.array_equal(values == 0, want == 0)
            assert (values == 0).any() == (ti == 0)
            gemm_index, gemm = canonical_gemm(field, ti)
            assert np.array_equal(gemm_index, canon)
            assert np.max(np.abs(values - gemm)) <= 1e-13 * np.max(np.abs(gemm))
            assert np.array_equal(values == 0, gemm == 0)


def test_canonical_entries_match_blocks_drivers_q3():
    # the order-3 grid of `chaosde simulate` in the drivers-q3 benchmark,
    # where the row blocks keep every bit of one GEMM over the whole time
    field = _drivers_q3_field()
    for ti in range(len(field.spec.out_times)):
        index, values = _canonical_entries(field, ti)
        assert index.shape == (3, math.comb(162, 3))
        assert np.all(index[:-1] <= index[1:])
        assert np.array_equal(values, field.blocks[ti][tuple(index)])
        gemm_index, gemm = canonical_gemm(field, ti)
        assert np.array_equal(index, gemm_index)
        assert np.array_equal(values.view(np.uint64), gemm.view(np.uint64))


def test_tail_tile_widths_keep_the_drivers_q3_bits(monkeypatch):
    # every listed tile width against one GEMM over the whole time on the
    # drivers-q3 grid (R = 13041 tails), where a 7-tail tile moves last bits
    field = _drivers_q3_field()
    for ti in range(len(field.spec.out_times)):
        want = canonical_gemm(field, ti)[1]
        for width in TILE_WIDTHS:
            monkeypatch.setattr(hermite, "TAIL_TILE", width)
            values = _canonical_entries(field, ti)[1]
            assert np.array_equal(values.view(np.uint64), want.view(np.uint64))


def _drivers_q3_field():
    """The order-3 field of `chaosde simulate` in the drivers-q3 benchmark."""
    space = make_hilbert(1, -8.0, 1.0, 160)
    return build_kernels(HermiteSpec(q=3, H=0.7, m=1, space=space, s_nodes=64,
                                     out_times=(0.25, 0.5, 1.0)))


def test_export_kernels_peak_memory_drivers_q3():
    # one row block and one tile of tail products at a time, about 4.8 MB
    # traced: no array spans a whole output time's entries (the (n, R)
    # product of one time alone would be 16.5 MB)
    field = _drivers_q3_field()
    field._canonical
    with open(os.devnull, "wb") as fh:
        tracemalloc.start()
        try:
            export_kernels(field, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 15e6


def test_export_kernels_peak_memory_below_the_tail_products():
    # q = 3, n = 120 on 256 nodes: the time's whole (s_nodes, R) tail
    # products would be 14.9 MB; the dump holds one (s_nodes, TAIL_TILE)
    # tile of them and one row block at a time
    space = make_hilbert(1, -8.0, 1.0, 120)
    field = build_kernels(HermiteSpec(q=3, H=0.7, m=1, space=space, s_nodes=256,
                                      out_times=(0.5, 1.0)))
    whole = 8 * field.spec.s_nodes * math.comb(121, 2)
    field._canonical
    with open(os.devnull, "wb") as fh:
        tracemalloc.start()
        try:
            export_kernels(field, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < whole


@pytest.mark.parametrize("q, n", [(2, 1030), (3, 100)])
def test_tail_tile_width_keeps_every_bit(q, n, monkeypatch):
    # the entries at every listed width against one GEMM per row block over
    # the whole time's tail products, and the dump against the untiled one
    # (TAIL_TILE >= R): R = 1030 (q = 2) and 5050 (q = 3) tails, a multiple
    # of none of the widths, and blocks whose last tile is narrow (the first
    # block's 6 of 256 at q = 2; 50 of 1000 at q = 3); at q = 3 7-tail tiles
    # move last bits on this grid
    spec = small_spec(q=q, n=n, L=8.0, out_times=(0.5, 1.0))
    field = build_kernels(spec)
    tails, starts = field._canonical
    count = tails.shape[1]
    assert 0 < min((count - starts[0]) % width for width in TILE_WIDTHS if width < count) <= 50
    canon = np.array(list(itertools.combinations_with_replacement(range(n), q))).T
    want = [row_block_gemm(field, ti, hermite.ENTRY_ROWS) for ti in range(len(spec.out_times))]
    monkeypatch.setattr(hermite, "TAIL_TILE", count)
    want_text = _dump(export_kernels, field)
    for width in TILE_WIDTHS:
        monkeypatch.setattr(hermite, "TAIL_TILE", width)
        for ti, values in enumerate(want):
            index, got = _canonical_entries(field, ti)
            assert np.array_equal(index, canon)
            assert np.array_equal(got.view(np.uint64), values.view(np.uint64))
        assert _dump(export_kernels, field) == want_text


def test_export_kernels_stays_off_dense_view(monkeypatch):
    fields = [build_kernels(small_spec(q=q, n=14 if q == 3 else 40, L=1.0, m=2,
                                       out_times=(0.5, 1.0))) for q in (1, 2, 3)]
    want = [_dump(_export_kernels_loop, field) for field in fields]

    def dense_view(self):
        raise AssertionError("export_kernels read the dense view")

    monkeypatch.setattr(KernelField, "blocks", property(dense_view))
    for field, text in zip(fields, want):
        field.__dict__.pop("blocks", None)
        assert _dump(export_kernels, field) == text


@pytest.mark.parametrize("q, n, times", [(1, 1200, 3), (2, 120, 3), (1, 64, 12), (3, 12, 11),
                                          (3, 101, 1), (1, 1200, 11), (2, 110, 11)])
def test_export_kernels_wide_labels_match_line_loop(q, n, times):
    # 4-digit cell labels (q = 1, n >= 1000), 3-digit ones at q = 2 and
    # 2-digit time labels (>= 11 output times), with two components; the
    # packed label words filled to all 8 bytes, with no NUL, by "100 100 "
    # (q = 3) and "10 1199 " (q = 1), and q = 2's odd last label "i_2 "
    spec = small_spec(q=q, n=n, L=1.0, m=2, out_times=tuple(np.linspace(1.0, 0.3, times)[::-1]))
    field = build_kernels(spec)
    got = _dump(export_kernels, field)
    assert got == _dump(_export_kernels_loop, field)
    labels = [line.split() for line in got.splitlines() if not line.startswith("#")]
    assert max(len(parts[0]) for parts in labels) == len(str(times - 1))
    assert max(len(i) for parts in labels for i in parts[1:-1]) == len(str(n - 1))


def _export_paths_loop(values, times, seed, fh):
    """The driver.csv body one '%.17g' per value: the oracle for export_paths."""
    fh.write("seed,t," + ",".join(f"F_{l + 1}" for l in range(values.shape[2])) + "\n")
    for k in range(values.shape[0]):
        for ti, t in enumerate(times):
            cols = ",".join(f"{v:.17g}" for v in values[k, ti])
            fh.write(f"{seed + k},{t:.17g},{cols}\n")


@pytest.mark.parametrize("m", [1, 2, 3])
def test_export_paths_matches_value_loop(m):
    # simulated values, then random bit patterns (NaN, infinities, zeros and
    # subnormals among them), for small seeds and seeds up to 2^64 - 1
    spec = small_spec(q=2, n=24, m=m, out_times=(0.25, 0.5, 1.0))
    values = simulate_paths(build_kernels(spec), range(1100))
    rng = np.random.default_rng(m)
    bits = rng.integers(0, 2**64, size=values.shape, dtype=np.uint64)
    bits[::7] &= np.uint64(2**63 | 2**52 - 1)  # zeros and subnormals
    for vals in (values, bits.view(np.float64)):
        for seed in (0, 123_456, 2**64 - vals.shape[0]):
            for times in (spec.out_times, (1e-300, 2.5e-7, 1.0 / 3.0)):
                got, want = io.BytesIO(), io.StringIO()
                export_paths(got, [f"F_{l + 1}" for l in range(m)], times, [(seed, vals)])
                _export_paths_loop(vals, times, seed, want)
                assert got.getvalue().decode() == want.getvalue()


def test_self_similarity_q1_deterministic():
    # for q = 1 the localized derivative energy does not depend on the draw,
    # so the two sides must agree as numbers
    spec = small_spec(q=1, n=128, L=8.0, out_times=(1.0,))
    (lhs,), (rhs,) = self_similarity_stat(spec, 1.0, 0.25, [0], [1_000_003])
    assert lhs == pytest.approx(rhs, rel=1e-3)


def test_self_similarity_validation():
    spec = small_spec(q=2, n=32)
    with pytest.raises(OutOfRangeError):
        self_similarity_stat(spec, 0.5, 0.5, [0], [1])
    with pytest.raises(OutOfRangeError):  # t beyond the noise support
        self_similarity_stat(spec, 1.5, 0.25, [0], [1])
    # no whole cell of the grid (width 0.156) fits a window of 1e-7
    with pytest.raises(OutOfRangeError, match="no whole cell"):
        self_similarity_stat(spec, 1.0, 1e-7, [0], [1])


def test_self_similarity_needs_a_grid_ending_at_t():
    # the right-hand grid is the image of the left-hand one only on a grid
    # ending at t: on one ending at 2 the two side means differ by some 12%
    spec = HermiteSpec(q=2, H=0.7, m=1, space=make_hilbert(1, -8.0, 2.0, 284))
    with pytest.raises(OutOfRangeError, match="t == hi"):
        self_similarity_stat(spec, 1.0, 0.25, [0], [1])


def whole_cells(space, lo, hi):
    """The mask of the cells of space wholly inside (lo, hi]."""
    edges, tol = space.cell_edges(), 1e-12
    return (edges[:-1] >= lo - tol) & (edges[1:] <= hi + tol)


def selfsim_oracle(spec, t, eps, seeds, rhs_seeds):
    """The per-draw computation self_similarity_stat replaced: raw factors
    (g, beta) of each window increment built directly, s_nodes midpoint
    nodes on (t - eps, t] and on (0, 1], one derivative vector per draw,
    its squared norm over the fully covered window cells."""
    q = spec.q
    H0, c = hurst_aux(spec.H, q)
    a = H0 - 1.5

    def factors(space, lo, hi, s_nodes):
        scale = c * space.delta ** (-q / 2.0)
        if q == 1:
            prim = _cell_avg_matrix(space, np.array([hi, lo]), a + 1.0) / (a + 1.0)
            g, beta = scale * (prim[:1] - prim[1:]), np.ones(1)
        else:
            nodes = lo + (hi - lo) * (np.arange(s_nodes) + 0.5) / s_nodes
            g = _cell_avg_matrix(space, nodes, a)
            beta = np.full(s_nodes, scale * (hi - lo) / s_nodes)
        return g * (space.cell_midpoints() < hi), beta

    def energy(g, beta, xi, win):
        gx, gg = g @ xi, np.einsum("ki,ki->k", g, g)
        d = ((beta * (q * hermite_poly(q - 1, gx, gg))) @ g)[win]
        return float(np.sum(d * d))

    space = spec.space
    g_l, b_l = factors(space, t - eps, t, spec.s_nodes)
    space_r = make_hilbert(1, (space.lo - (t - eps)) / eps, 1.0, space.n)
    g_r, b_r = factors(space_r, 0.0, 1.0, spec.s_nodes)
    win_l, win_r = whole_cells(space, t - eps, t), whole_cells(space_r, 0.0, 1.0)
    lhs = [energy(g_l, b_l, space.components(sample_omega(space, k).xi)[0], win_l)
           for k in seeds]
    rhs = [eps ** (2.0 * spec.H) * energy(g_r, b_r, sample_omega(space_r, k).xi, win_r)
           for k in rhs_seeds]
    return np.array(lhs), np.array(rhs)


@pytest.mark.parametrize("q, m", [(1, 1), (2, 1), (2, 2), (3, 1)])
@pytest.mark.parametrize("eps", [0.25, 0.3])
def test_self_similarity_matches_raw_factor_oracle(q, m, eps):
    # more seeds than one block of draws on each side, a short block last
    spec = small_spec(q=q, n=64, L=4.0, m=m, s_nodes=48, out_times=(1.0,))
    seeds, rhs_seeds = range(DRAW_BLOCK + 9), range(500, 500 + 2 * DRAW_BLOCK + 1)
    got = self_similarity_stat(spec, 1.0, eps, seeds, rhs_seeds)
    want = selfsim_oracle(spec, 1.0, eps, seeds, rhs_seeds)
    for g, w, count in zip(got, want, (len(seeds), len(rhs_seeds))):
        assert g.shape == (count,)
        assert g.tobytes() == w.tobytes()


def window_energy(g, beta, q, space, lo, hi):
    """E sum_{r in W} |D_r I_q(f)|^2 = q^2 (q-1)! beta^T (G^{o(q-1)} o G_W) beta
    for f = sum_k beta_k g_k^{(x)q}, G the Gram of the factors and G_W its
    part over W, the cells wholly inside (lo, hi]."""
    window = whole_cells(space, lo, hi)
    gram, gram_w = g @ g.T, g[:, window] @ g[:, window].T
    return q * q * math.factorial(q - 1) * float(beta @ (gram ** (q - 1) * gram_w) @ beta)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("eps", [0.25, 0.3, 0.07])
def test_self_similarity_window_energies_are_exact(q, eps, monkeypatch):
    # the expected window energies of the two sides, from the factors of the
    # two window increments self_similarity_stat builds, s_nodes nodes each,
    # agree to rounding whether or not t / eps is an integer
    spec = small_spec(q=q, n=256, L=8.0, s_nodes=64, out_times=(1.0,))
    built, factors = [], hermite._kernel_factors

    def record(side, lo, hi):
        built.append((side.space, lo, hi, *factors(side, lo, hi)))
        return built[-1][3:]

    monkeypatch.setattr(hermite, "_kernel_factors", record)
    self_similarity_stat(spec, 1.0, eps, [], [])
    assert [(lo, hi, g.shape[0]) for _, lo, hi, g, _ in built] == [(1.0 - eps, 1.0, 64),
                                                                   (0.0, 1.0, 64)]
    lhs, rhs = (window_energy(g, beta, q, space, lo, hi) for space, lo, hi, g, beta in built)
    assert abs(lhs - eps ** (2 * spec.H) * rhs) <= 1e-12 * lhs


def test_self_similarity_q2_law_small():
    spec = small_spec(q=2, n=128, L=8.0, out_times=(1.0,))
    lhs, rhs = self_similarity_stat(spec, 1.0, 0.25, range(300), range(10_000, 10_300))
    # medians of the two laws agree to ~10% at this sample size
    assert np.median(lhs) == pytest.approx(np.median(rhs), rel=0.25)


def test_grid_driver_calibrated_variance_q1():
    # for q = 1 the value at t is linear in xi, so its variance is the
    # squared norm of the derivative vector; calibration makes it t^{2H}
    spec = small_spec(q=1, n=128, L=8.0, out_times=(1.0,))
    times = np.linspace(0.0, 1.0, 33)
    gd = GridDriver(spec, times)
    vecs = dense_deriv_vectors(gd, spec.space.components(zero_draw(spec.space).xi))
    for i in range(1, 33):
        t = times[i]
        nrm2 = float(np.sum(vecs[i, 0] ** 2))
        assert nrm2 == pytest.approx(t ** (2 * spec.H), rel=1e-10)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_grid_driver_directional_derivative_exact(q):
    # the derivative vectors, dense from their factors, must be the exact
    # gradient of values in the draw coordinates
    spec = small_spec(q=q, n=64, L=4.0, out_times=(1.0,))
    times = np.linspace(0.0, 1.0, 17)
    gd = GridDriver(spec, times)
    w = sample_omega(spec.space, 1)
    rng = np.random.default_rng(2)
    h = rng.standard_normal(spec.space.basis_dim)
    xi, hc = spec.space.components(w.xi), spec.space.components(h)
    target = dense_deriv_vectors(gd, xi) @ h  # m = 1: one block spans the basis
    eps = 1e-6
    up = gd.values(gd.projections(xi + eps * hc))
    dn = gd.values(gd.projections(xi - eps * hc))
    fd = (up - dn) / (2 * eps)
    assert np.max(np.abs(fd - target)) <= 1e-6


def test_grid_driver_validation():
    spec = small_spec(q=1)
    with pytest.raises(InvalidDimensionError):
        GridDriver(spec, np.linspace(0.5, 1.0, 9))
    with pytest.raises(OutOfRangeError):
        GridDriver(spec, np.linspace(0.0, 2.0, 9))


@pytest.mark.parametrize("shape", [(32,), (2, 32), (1, 31), (3, 1, 33), (1, 32, 1)])
def test_evaluators_reject_coordinates_of_another_shape(shape):
    # every evaluator reads coordinates of shape (..., m, n) of its own
    # space, the grid driver's through its projections, and any other
    # trailing shape is refused, not broadcast
    spec = small_spec(q=2, n=32, L=4.0, out_times=(1.0,))
    gd, field = GridDriver(spec, np.linspace(0.0, 1.0, 17)), build_kernels(spec)
    for evaluate in (gd.projections, field.values,
                     lambda xi: _factor_derivative(spec, field.g[0], field.beta[0], xi)):
        with pytest.raises(InvalidDimensionError, match=r"\(\.\.\., 1, 32\)"):
            evaluate(np.zeros(shape))
    # and the projections have the shape (..., m, steps) of the driver's nodes
    for evaluate in (gd.values, gd.deriv_vectors):
        with pytest.raises(InvalidDimensionError, match=r"\(\.\.\., 1, 16\)"):
            evaluate(np.zeros(shape))
    # leading axes are free
    assert gd.values(gd.projections(np.zeros((3, 2, 1, 32)))).shape == (3, 2, 17, 1)
    assert field.values(np.zeros((3, 2, 1, 32))).shape == (3, 2, 1, 1)
    assert gd.deriv_vectors(gd.projections(np.zeros((3, 1, 32)))).weights.shape == (3, 16, 1)


# Per-component oracles: one (n,) block of the component-major coordinates
# at a time, each reduction a matrix-vector or dot product of its own.

def blocks_of(space, coords):
    n = space.n
    return [coords[ell * n:(ell + 1) * n] for ell in range(space.m)]


def wick_weights_one(g, xi, q):
    gx, gg = g @ xi, np.einsum("ki,ki->k", g, g)
    return hermite_poly(q, gx, gg), q * hermite_poly(q - 1, gx, gg)


def evaluate_one(field, ti, xi):
    g, beta, rho = field.g[ti], field.beta[ti], field.rho[ti]
    val_w, der_w = wick_weights_one(g, xi, field.spec.q)
    return rho * float(beta @ val_w), rho * ((beta * der_w) @ g)


def grid_values_one(gd, w):
    out = np.zeros((gd.times.shape[0], gd.spec.m))
    for ell, xi in enumerate(blocks_of(gd.spec.space, w.xi)):
        val_w, _ = wick_weights_one(gd._g, xi, gd.spec.q)
        out[1:, ell] = np.cumsum(gd._beta * val_w)
    return out * gd._rho[:, None]


def grid_deriv_vectors_one(gd, w):
    out = np.zeros((gd.times.shape[0], gd.spec.m, gd.spec.space.n))
    for ell, xi in enumerate(blocks_of(gd.spec.space, w.xi)):
        _, der_w = wick_weights_one(gd._g, xi, gd.spec.q)
        out[1:, ell, :] = np.cumsum((gd._beta * der_w)[:, None] * gd._g, axis=0)
    return out * gd._rho[:, None, None]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_kernel_evaluate_matches_per_component_oracle(q, m):
    # every component of a draw in one pass, bit for bit the per-component
    # evaluation: the values at every output time, simulate_path, and the
    # derivative from the factors of each time
    spec = small_spec(q=q, n=48, m=m, s_nodes=24, out_times=(0.25, 0.5, 1.0))
    field = build_kernels(spec)
    for seed in range(5):
        w = sample_omega(spec.space, seed)
        xis = spec.space.components(w.xi)
        val = field.values(xis)
        assert val.shape == (len(spec.out_times), m)
        for ti in range(len(spec.out_times)):
            der = field.rho[ti] * _factor_derivative(spec, field.g[ti], field.beta[ti], xis)
            assert der.shape == (m, spec.space.n)
            for ell, xi in enumerate(blocks_of(spec.space, w.xi)):
                v_one, d_one = evaluate_one(field, ti, xi)
                assert val[ti, ell] == v_one
                assert np.array_equal(der[ell], d_one)
        assert np.array_equal(simulate_path(field, w).values, val)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_grid_driver_matches_per_component_oracle(q, m):
    spec = small_spec(q=q, n=40, m=m, out_times=(1.0,))
    # grids of 2 and 3 points, one cell (no prefix sum) and the first sum,
    # then 33 points, the grid of the list of draws below
    for times in (np.array([0.0, 1.0]), np.array([0.0, 0.3, 1.0]), np.linspace(0.0, 1.0, 33)):
        gd = GridDriver(spec, times)
        for seed in range(5):
            w = sample_omega(spec.space, seed)
            xi = spec.space.components(w.xi)
            assert np.array_equal(gd.values(gd.projections(xi)), grid_values_one(gd, w))
            df = gd.deriv_vectors(gd.projections(xi))
            assert df.scale is gd._rho and df.basis is gd._g
            assert np.array_equal(dense_deriv_vectors(gd, xi), grid_deriv_vectors_one(gd, w))
    # a block of draws, a full one and a short one, stacks the draws' values
    # and vectors
    draws = [sample_omega(spec.space, s) for s in range(100, 100 + DRAW_BLOCK)]
    xi = spec.space.components(np.array([w.xi for w in draws]))
    want = np.array([grid_values_one(gd, w) for w in draws])
    assert np.array_equal(gd.values(gd.projections(xi)), want)
    assert np.array_equal(gd.values(gd.projections(xi[5:8])), want[5:8])
    vectors = dense_deriv_vectors(gd, xi[5:8])
    for k, w in enumerate(draws[5:8]):
        assert np.array_equal(vectors[k], grid_deriv_vectors_one(gd, w))
