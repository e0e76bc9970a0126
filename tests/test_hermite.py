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
    SpaceMismatchError,
    UnsupportedOrderError,
)
from chaosde.wiener import DRAW_BLOCK, GaussianDraw, make_hilbert, sample_omega
from chaosde.chaos import hermite_poly
from chaosde import hermite
from chaosde.hermite import (
    _canonical_entries,
    _cell_avg_matrix,
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
from oracles import canonical_gemm, dense_block, import_kernels, kernel_eval, nclt_paths

# frozen constants from independent adaptive quadrature of the Beta
# integrals B(a, b) = int_0^1 s^{a-1} (1-s)^{b-1} ds
C_07_1 = 0.21836182618075642
C_07_2 = 0.06802476430913895
# c(H=0.7, q=1) / (H0 - 1/2) * t^{H0 - 1/2} at t = 1
KERNEL_Q1_AT0 = 1.091809130903782
# c(H=0.7, q=2) * int_0^1 (s + 0.5)^{-1.3} ds
KERNEL_Q2_AT_HALF = 0.07838197004488931


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
    field = build_kernels(spec, calibrate=False)
    i = 300  # interior cell, away from 0 and t
    mid = spec.space.cell_midpoints()[i]
    expected = kernel_eval(spec, 1.0, [mid]) * math.sqrt(spec.space.delta)
    assert field.blocks[0][i] == pytest.approx(expected, rel=1e-3)


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
                d_got = field.evaluate(ti, spec.space.components(w.xi))[1][ell]
                assert np.max(np.abs(d_got - d_want)) <= 1e-13 * np.max(np.abs(d_want))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("q", [1, 2, 3])
def test_wick_weights_match_closed_forms(q):
    # hand-expanded per-order weight table, the oracle for the Hermite recurrence
    from chaosde.hermite import _wick_weights

    rng = np.random.default_rng(q)
    g = rng.standard_normal((40, 32))
    xi = rng.standard_normal((2, 32))
    gx, gg = np.array([g @ x for x in xi]), np.einsum("ki,ki->k", g, g)
    want = {1: (gx, np.ones_like(gx)),
            2: (gx * gx - gg, 2.0 * gx),
            3: (gx**3 - 3.0 * gg * gx, 3.0 * (gx * gx - gg))}[q]
    for got, ref in zip(_wick_weights(g, xi, q), want):
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
        field = build_kernels(spec, calibrate=q != 3)
        path = str(tmp_path / f"kernels{q}.txt")
        with open(path, "w", newline="\n") as fh:
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
    """Line-by-line kernel dump, one write per canonical multi-index: the
    oracle for the row-batched export_kernels."""
    spec = field.spec
    fh.write(f"# chaosde kernel field q={spec.q} H={spec.H:.17g} m={spec.m}\n")
    fh.write(f"# space lo={spec.space.lo:.17g} hi={spec.space.hi:.17g} n={spec.space.n}\n")
    fh.write(f"# s_nodes={spec.s_nodes} calibrated={int(field.calibrated)}\n")
    fh.write("# times " + " ".join(f"{t:.17g}" for t in spec.out_times) + "\n")
    for ti, block in enumerate(field.blocks):
        for idx in itertools.combinations_with_replacement(range(spec.space.n), spec.q):
            v = block[idx]
            if v != 0.0:
                cols = " ".join(str(i) for i in idx)
                fh.write(f"{ti} {cols} {v:.17g}\n")


def _dump(export, field) -> str:
    buf = io.StringIO()
    export(field, buf)
    return buf.getvalue()


@pytest.mark.parametrize("calibrate", [True, False])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_export_kernels_matches_line_loop(q, m, calibrate):
    # out_times 0.5 leaves the cells in (0.5, 1] of the first block at zero
    n = 14 if q == 3 else 40
    spec = small_spec(q=q, n=n, L=1.0, m=m, out_times=(0.5, 1.0))
    field = build_kernels(spec, calibrate=calibrate)
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
        for a, values, keep in row_blocks(field, ti):
            rows, columns = np.nonzero(keep)
            values[rows, columns] = blocks[ti][(rows + a, *tails[:, columns + starts[a]])]
            yield a, values, keep

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
        field = build_kernels(spec, calibrate=calibrate)
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
        field = build_kernels(spec, calibrate=calibrate)
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


def _drivers_q3_field():
    """The order-3 field of `chaosde simulate` in the drivers-q3 benchmark."""
    space = make_hilbert(1, -8.0, 1.0, 160)
    return build_kernels(HermiteSpec(q=3, H=0.7, m=1, space=space, s_nodes=64,
                                     out_times=(0.25, 0.5, 1.0)))


def test_export_kernels_peak_memory_drivers_q3():
    # one row block and the time's tail products at a time, about 12.6 MB
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
                got, want = io.StringIO(), io.StringIO()
                export_paths(got, [f"F_{l + 1}" for l in range(m)], times, [(seed, vals)])
                _export_paths_loop(vals, times, seed, want)
                assert got.getvalue() == want.getvalue()


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
    # a window of 1e-7 asks for 6.4e8 lhs quadrature nodes: rejected before
    # the node array exists
    with pytest.raises(MemoryBudgetError):
        self_similarity_stat(spec, 1.0, 1e-7, [0], [1])


def selfsim_oracle(spec, t, eps, seeds, rhs_seeds):
    """The per-draw computation self_similarity_stat replaced: raw factors
    (g, beta) built directly, one derivative vector per draw, its squared
    norm over the fully covered window cells."""
    q = spec.q
    H0, c = hurst_aux(spec.H, q)
    a = H0 - 1.5

    def factors(space, t, s_nodes):
        scale = c * space.delta ** (-q / 2.0)
        if q == 1:
            prim = _cell_avg_matrix(space, np.array([t, 0.0]), a + 1.0) / (a + 1.0)
            g, beta = scale * (prim[:1] - prim[1:]), np.ones(1)
        else:
            g = _cell_avg_matrix(space, t * (np.arange(s_nodes) + 0.5) / s_nodes, a)
            beta = np.full(s_nodes, scale * t / s_nodes)
        return g * (space.cell_midpoints() < t), beta

    def window(space, lo, hi):
        edges, tol = space.cell_edges(), 1e-12
        return (edges[:-1] >= lo - tol) & (edges[1:] <= hi + tol)

    def energy(g, beta, xi, win):
        gx, gg = g @ xi, np.einsum("ki,ki->k", g, g)
        d = ((beta * (q * hermite_poly(q - 1, gx, gg))) @ g)[win]
        return float(np.sum(d * d))

    space = spec.space
    s_lhs = max(int(round(spec.s_nodes * t / eps)), spec.s_nodes)
    g_l, b_l = factors(space, t, s_lhs)
    space_r = make_hilbert(1, (space.lo - (t - eps)) / eps, 1.0, space.n)
    g_r, b_r = factors(space_r, 1.0, spec.s_nodes)
    win_l, win_r = window(space, t - eps, t), window(space_r, 0.0, 1.0)
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
    vecs = gd.deriv_vectors(zero_draw(spec.space))
    for i in range(1, 33):
        t = times[i]
        nrm2 = float(np.sum(vecs[i, 0] ** 2))
        assert nrm2 == pytest.approx(t ** (2 * spec.H), rel=1e-10)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_grid_driver_directional_derivative_exact(q):
    # the derivative vectors must be the exact gradient of values in the
    # draw coordinates
    spec = small_spec(q=q, n=64, L=4.0, out_times=(1.0,))
    times = np.linspace(0.0, 1.0, 17)
    gd = GridDriver(spec, times)
    w = sample_omega(spec.space, 1)
    rng = np.random.default_rng(2)
    h = rng.standard_normal(spec.space.basis_dim)
    target = gd.deriv_vectors(w) @ h  # m = 1: one block spans the basis
    eps = 1e-6
    from chaosde.wiener import HilbertVec, shift_omega

    hv = HilbertVec(spec.space, h)
    up = gd.values(shift_omega(w, eps, hv))
    dn = gd.values(shift_omega(w, -eps, hv))
    fd = (up - dn) / (2 * eps)
    assert np.max(np.abs(fd - target)) <= 1e-6


def test_grid_driver_validation():
    spec = small_spec(q=1)
    with pytest.raises(InvalidDimensionError):
        GridDriver(spec, np.linspace(0.5, 1.0, 9))
    with pytest.raises(OutOfRangeError):
        GridDriver(spec, np.linspace(0.0, 2.0, 9))


def test_grid_driver_rejects_draw_over_another_space():
    # both evaluators read the draw through the driver's own component
    # layout, so a draw over another grid of the same size is refused
    spec = small_spec(q=1, n=32, L=4.0, out_times=(1.0,))
    gd = GridDriver(spec, np.linspace(0.0, 1.0, 17))
    w = sample_omega(make_hilbert(1, -8.0, 1.0, 32), 0)
    with pytest.raises(SpaceMismatchError):
        gd.values(w)
    with pytest.raises(SpaceMismatchError):
        gd.deriv_vectors(w)
    # one foreign draw in a list is enough
    ours = [sample_omega(spec.space, s) for s in range(3)]
    with pytest.raises(SpaceMismatchError):
        gd.values(ours[:2] + [w] + ours[2:])
    assert gd.values(ours).shape == (3, 17, 1)


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
    # evaluation, for the value, the derivative and simulate_path
    spec = small_spec(q=q, n=48, m=m, s_nodes=24, out_times=(0.25, 0.5, 1.0))
    field = build_kernels(spec)
    for seed in range(5):
        w = sample_omega(spec.space, seed)
        want = np.empty((len(spec.out_times), m))
        for ti in range(len(spec.out_times)):
            val, der = field.evaluate(ti, spec.space.components(w.xi))
            assert val.shape == (m,) and der.shape == (m, spec.space.n)
            for ell, xi in enumerate(blocks_of(spec.space, w.xi)):
                v_one, d_one = evaluate_one(field, ti, xi)
                assert val[ell] == v_one
                assert np.array_equal(der[ell], d_one)
                want[ti, ell] = v_one
        assert np.array_equal(simulate_path(field, w).values, want)


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
            assert np.array_equal(gd.values(w), grid_values_one(gd, w))
            assert np.array_equal(gd.deriv_vectors(w), grid_deriv_vectors_one(gd, w))
    # a list of draws, a full block and a short one, stacks the draws' values
    draws = [sample_omega(spec.space, s) for s in range(100, 100 + DRAW_BLOCK)]
    want = np.array([grid_values_one(gd, w) for w in draws])
    assert np.array_equal(gd.values(draws), want)
    assert np.array_equal(gd.values(draws[5:8]), want[5:8])


@pytest.mark.parametrize("q", [1, 2, 3])
def test_grid_driver_deriv_out_buffer_matches_fresh(q):
    # one buffer over consecutive draws gives each draw's fresh vectors bit
    # for bit, with row 0 dirtied before every call
    spec = small_spec(q=q, n=40, m=2, out_times=(1.0,))
    gd = GridDriver(spec, np.linspace(0.0, 1.0, 17))
    buffer = np.full((17, 2, 40), np.nan)
    for seed in range(6):
        w = sample_omega(spec.space, seed)
        buffer[0] = -0.0 if seed % 2 else np.inf
        assert gd.deriv_vectors(w, out=buffer) is buffer
        fresh = gd.deriv_vectors(w)
        assert np.array_equal(buffer, fresh)
        assert buffer.tobytes() == fresh.tobytes()  # row 0 is +0.0, not -0.0


def test_grid_driver_deriv_out_buffer_checked():
    spec = small_spec(q=1, n=40, m=2, out_times=(1.0,))
    gd = GridDriver(spec, np.linspace(0.0, 1.0, 17))
    w = sample_omega(spec.space, 0)
    for bad in (np.zeros((16, 2, 40)), np.zeros((17, 40, 2)), np.zeros((17, 2, 40), dtype=np.float32),
                np.zeros((40, 2, 17)).T, np.zeros(17 * 2 * 40)):
        with pytest.raises(InvalidDimensionError):
            gd.deriv_vectors(w, out=bad)
