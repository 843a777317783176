"""Chessboard coarsening schedule on the torus: stage maps, timetables,
mixing diagnostics, and the weak continuity residual."""
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from splitlaw import cli, depauw
from splitlaw.acceptance import criterion_11
from splitlaw.core import _cos_bump
from splitlaw.depauw import (
    CellField2D,
    DyadicSchedule,
    Grid2D,
    box_averaged_l1,
    build_stage,
    chessboard,
    continuity_residual_2d,
    evolve,
    field_diagnostics,
    l1_distance_2d,
    mixing_report,
    strong_modulus_2d,
    torus_test,
)
from splitlaw.errors import ConstructionBug, InvalidArgument, UnresolvedScale

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


class _HalfSpeed(DyadicSchedule):
    """Advertises half the true field to the residual quadrature; the
    actual motion is unchanged, so the residual must blow up."""

    def field_scale(self, t):
        scale, k = DyadicSchedule.field_scale(self, t)
        return 0.5 * scale, k


def test_grid_and_field_validation():
    with pytest.raises(InvalidArgument):
        Grid2D(0)
    grid = Grid2D(3)
    assert grid.n == 8
    assert grid.dx == 0.125
    with pytest.raises(InvalidArgument):
        CellField2D(grid, np.zeros((8, 4)))
    f = CellField2D(grid, np.ones((8, 8)))
    assert f.l1() == pytest.approx(1.0)
    assert f.mass() == pytest.approx(1.0)
    assert np.max(np.abs(f.values)) == 1.0



def test_a_grid_too_fine_for_float64_fails_typed():
    """2^-m is subnormal past m = 1022, and 2^m past 1023 does not even
    convert to a float: both used to escape as OverflowError or a
    subnormal cell width."""
    assert Grid2D(1022).dx == 2.0 ** -1022
    for m in (1023, 2000):
        with pytest.raises(InvalidArgument, match=f"got m = {m}$"):
            Grid2D(m)

def test_chessboard_levels():
    grid = Grid2D(4)
    assert np.all(chessboard(0, grid).values == 1.0)
    fine = chessboard(4, grid)
    assert fine.values[0, 0] == 1.0
    assert fine.values[0, 1] == -1.0
    assert fine.mass() == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(UnresolvedScale):
        chessboard(5, grid)
    with pytest.raises(InvalidArgument):
        chessboard(-1, grid)


def _where_chessboard(k, grid):
    """chessboard's values as first written: an N x N sum, mod and where."""
    idx = np.arange(grid.n) // 2 ** (grid.m - k)
    return np.where((idx[:, None] + idx[None, :]) % 2 == 0, 1.0, -1.0)


def test_chessboard_is_the_where_form_bitwise():
    for m in (1, 3, 8):
        grid = Grid2D(m)
        for k in range(m + 1):
            got, want = chessboard(k, grid).values, _where_chessboard(k, grid)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes(), (m, k)


def test_fourier_modes_are_the_full_grid_exponentials_bitwise():
    for m in (1, 3, 8):
        grid = Grid2D(m)
        c = (np.arange(grid.n) + 0.5) * grid.dx
        X, Y = np.meshgrid(c, c, indexing="ij")
        modes = list(depauw._fourier_modes(grid))
        assert len(modes) == 9
        pairs = [(ax, by) for ax in (-1, 0, 1) for by in (-1, 0, 1)]
        for (ax, by), phi in zip(pairs, modes):
            want = np.exp(-2j * np.pi * (ax * X + by * Y))
            assert phi.shape == want.shape
            assert np.ascontiguousarray(phi).tobytes() == want.tobytes(), (
                m, ax, by)


def test_a_fractional_grid_level_is_refused():
    with pytest.raises(InvalidArgument, match="m must be an integer"):
        Grid2D(2.5)
    with pytest.raises(InvalidArgument, match="m must be an integer"):
        Grid2D(3.0)
    assert Grid2D(np.int64(3)) == Grid2D(3)


def test_a_fractional_chessboard_level_is_refused():
    with pytest.raises(InvalidArgument, match="level must be an integer"):
        chessboard(1.5, Grid2D(3))
    assert np.array_equal(chessboard(np.int32(2), Grid2D(3)).values,
                          chessboard(2, Grid2D(3)).values)


def test_a_fractional_stage_level_is_refused():
    grid = Grid2D(4)
    with pytest.raises(InvalidArgument, match="level must be an integer"):
        depauw.StageMap(2.5, grid)
    assert depauw.StageMap(np.int64(3), grid).k == 3


def test_a_fractional_schedule_level_is_refused():
    with pytest.raises(InvalidArgument, match="k_max must be an integer"):
        DyadicSchedule("original", 2.5, 4)
    with pytest.raises(InvalidArgument, match="m must be an integer"):
        DyadicSchedule("original", 3, 4.0)
    sched = DyadicSchedule("original", np.int64(3), np.uint8(4))
    assert (sched.k_max, sched.m) == (3, 4)
    assert sched.stages == DyadicSchedule("original", 3, 4).stages


def test_a_negative_box_scale_is_refused():
    f = chessboard(2, Grid2D(3))
    with pytest.raises(InvalidArgument, match="j >= 0"):
        box_averaged_l1(f, -1)
    with pytest.raises(InvalidArgument, match="box scale must be an integer"):
        box_averaged_l1(f, 0.5)
    assert box_averaged_l1(f, np.int64(2)) == box_averaged_l1(f, 2)


def test_mixing_report_lists_the_box_scales_the_grid_resolves():
    for m, scales in ((2, 3), (3, 4), (5, 4)):
        grid = Grid2D(m)
        traj = evolve(DyadicSchedule("original", 2, m), chessboard(2, grid),
                      [0.25, 0.5])
        for row, f in zip(mixing_report(traj), traj.fields):
            assert row["coarse_l1"] == [box_averaged_l1(f, j)
                                        for j in range(scales)]


def test_stage_map_contract():
    grid = Grid2D(5)
    for k in (2, 3, 4):
        st = build_stage(k, grid)
        assert np.array_equal(st.apply(chessboard(k, grid).values),
                              chessboard(k - 1, grid).values)
        assert 0.0 < st.sup_unit < 1.0
        assert st.div_max <= 1e-12
    with pytest.raises(InvalidArgument):
        build_stage(1, grid)
    with pytest.raises(UnresolvedScale):
        build_stage(6, grid)


def test_stage_map_is_a_rearrangement():
    grid = Grid2D(4)
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(grid.n, grid.n))
    st = build_stage(3, grid)
    moved = st.apply(vals)
    assert np.array_equal(np.sort(moved.ravel()), np.sort(vals.ravel()))
    const = np.full((grid.n, grid.n), 2.5)
    assert np.array_equal(st.apply(const), const)


def test_apply_partial_preserves_the_value_multiset():
    grid = Grid2D(4)
    rng = np.random.default_rng(6)
    vals = rng.normal(size=(grid.n, grid.n))
    st = build_stage(3, grid)
    for frac in (0.25, 0.5, 0.75):
        part = st.apply_partial(vals, frac)
        assert np.array_equal(np.sort(part.ravel()), np.sort(vals.ravel()))
    assert np.array_equal(st.apply_partial(vals, 0.0), vals)
    assert np.array_equal(st.apply_partial(vals, 1.0), st.apply(vals))


def test_apply_partial_refuses_a_nan_fraction():
    st = build_stage(3, Grid2D(4))
    with pytest.raises(InvalidArgument, match="NaN"):
        st.apply_partial(np.zeros((16, 16)), float("nan"))


def test_schedule_layout_original():
    sched = DyadicSchedule("original", 4, 6)
    assert sched.stages == [(4, 0.0625, 0.125), (3, 0.125, 0.25),
                            (2, 0.25, 0.5)]
    assert sched.t_start == 0.0625
    assert sched.T == 0.5
    assert sched.stage_at(0.3) == (2, 0.25, 0.5)
    assert sched.stage_at(sched.T) == (2, 0.25, 0.5)
    assert sched.stage_at(0.01) is None
    assert sched.progress(3, 0.1875) == pytest.approx(0.5)
    scale, k = sched.field_scale(0.1875)
    assert (scale, k) == (8.0, 3)
    assert sched.field_scale(0.01) == (0.0, None)


def test_schedule_layout_strong_is_contiguous():
    sched = DyadicSchedule("strong", 4, 6)
    for (k, _, t1), (k2, t0, _) in zip(sched.stages, sched.stages[1:]):
        assert k2 == k - 1
        assert t0 == pytest.approx(t1)
    for k, t0, t1 in sched.stages:
        assert sched.progress(k, t0) == 0.0
        assert sched.progress(k, t1) == pytest.approx(1.0)
        assert sched.field_scale(t0)[0] == 0.0
        assert sched.field_scale(t1)[0] == 0.0
        scale, kk = sched.field_scale(0.5 * (t0 + t1))
        assert kk == k and scale > 2.0 ** k / k


def test_schedule_validation():
    with pytest.raises(InvalidArgument):
        DyadicSchedule("fast", 4, 6)
    with pytest.raises(InvalidArgument):
        DyadicSchedule("original", 1, 6)
    with pytest.raises(UnresolvedScale):
        DyadicSchedule("original", 7, 6)


def test_evolve_hits_coarser_chessboards_at_stage_ends():
    grid = Grid2D(6)
    sched = DyadicSchedule("original", 4, 6)
    init = chessboard(4, grid)
    traj = evolve(sched, init, [0.03125, 0.0625, 0.125, 0.25, 0.5])
    assert np.array_equal(traj.fields[0].values, init.values)  # frozen lead-in
    assert np.array_equal(traj.fields[1].values, init.values)
    for field, k in zip(traj.fields[2:], (3, 2, 1)):
        assert np.array_equal(field.values, chessboard(k, grid).values)


def test_evolve_validation_and_partial_flags():
    grid = Grid2D(5)
    sched = DyadicSchedule("original", 3, 5)
    init = chessboard(3, grid)
    with pytest.raises(InvalidArgument):
        evolve(sched, init, [sched.T + 0.1])
    with pytest.raises(InvalidArgument):
        evolve(DyadicSchedule("original", 3, 6), init, [0.2])
    traj = evolve(sched, init, [0.1875, 0.25])
    assert traj.meta["partial"] == [True, False]
    mid = traj.fields[0].values
    assert np.array_equal(np.sort(mid.ravel()),
                          np.sort(init.values.ravel()))


def test_torus_test_partials_match_finite_differences():
    h = 1e-6
    ft, _ = _cos_bump(0.1, 0.4)
    for phase, mode in (("cos", np.cos), ("sin", np.sin)):
        tf = torus_test(0.1, 0.4, 1, -1, phase)

        def fn(t, x, y):  # phi = the time bump times the (1, -1) mode
            return float(ft(t) * mode(2.0 * np.pi * (x - y)))

        t, x, y = 0.2, 0.3, 0.7
        fd_t = (fn(t + h, x, y) - fn(t - h, x, y)) / (2 * h)
        fd_x = (fn(t, x + h, y) - fn(t, x - h, y)) / (2 * h)
        fd_y = (fn(t, x, y + h) - fn(t, x, y - h)) / (2 * h)
        assert fd_t == pytest.approx(float(tf.dt(t, x, y)), abs=1e-4)
        assert fd_x == pytest.approx(float(tf.dx(t, x, y)), abs=1e-4)
        assert fd_y == pytest.approx(float(tf.dy(t, x, y)), abs=1e-4)


def test_torus_test_refuses_a_bad_support_or_phase():
    """A reversed or NaN support used to build, and an unknown phase gave
    the sin mode."""
    for support in ((0.4, 0.1), (math.nan, 0.4), (0.1, math.inf)):
        with pytest.raises(InvalidArgument, match="finite and increasing"):
            torus_test(*support, 1, 1)
    with pytest.raises(InvalidArgument, match="phase"):
        torus_test(0.1, 0.4, 1, 1, "tan")


def test_box_averaged_l1_cancels_below_the_tile_scale():
    grid = Grid2D(6)
    f = chessboard(3, grid)
    assert box_averaged_l1(f, 3) == pytest.approx(1.0)
    assert box_averaged_l1(f, 2) == pytest.approx(0.0, abs=1e-15)
    assert box_averaged_l1(f, 0) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(UnresolvedScale):
        box_averaged_l1(f, 7)


def test_mixing_report_shows_weak_decay_with_constant_l1():
    grid = Grid2D(5)
    sched = DyadicSchedule("original", 3, 5)
    traj = evolve(sched, chessboard(3, grid), [0.0, sched.T])
    rows = mixing_report(traj)
    assert len(rows) == 2
    for row in rows:
        assert row["l1"] == pytest.approx(1.0, abs=1e-12)
        assert len(row["coarse_l1"]) == 4
    # fine chessboard is invisible to the lowest modes; the final coarse
    # one pairs strongly with the diagonal ones
    assert rows[0]["weak_max"] <= 1e-12
    assert rows[-1]["weak_max"] >= 0.3
    assert rows[0]["coarse_l1"][2] == pytest.approx(0.0, abs=1e-15)
    assert rows[-1]["coarse_l1"][1] == pytest.approx(1.0)


def test_field_diagnostics_rows():
    sched = DyadicSchedule("original", 3, 5)
    rows = field_diagnostics(sched, [0.05, 0.1875, 0.3])
    assert [sorted(row) for row in rows] == 3 * [["bv", "k", "sup", "t"]]
    assert rows[0] == {"t": 0.05, "k": None, "sup": 0.0, "bv": 0.0}
    assert rows[1]["k"] == 3
    assert rows[1]["sup"] > 0.0
    assert rows[1]["bv"] > 0.0
    assert rows[2]["k"] == 2
    # the stage's unit-time numbers times the field's scale at t
    for row in rows[1:]:
        scale, k = sched.field_scale(row["t"])
        assert row["sup"] == scale * sched.stage(k).sup_unit
        assert row["bv"] == scale * sched.stage(k).bv_unit


def test_strong_variant_keeps_the_field_slow_and_vanishing_at_ends():
    sched = DyadicSchedule("strong", 4, 6)
    for k, t0, t1 in sched.stages:
        row_end = field_diagnostics(sched, [t0])[0]
        assert row_end["sup"] == 0.0
        row_mid = field_diagnostics(sched, [0.5 * (t0 + t1)])[0]
        assert 0.0 < row_mid["sup"] < 2.0 / k


def test_continuity_residual_detects_a_wrong_field_strength():
    grid = Grid2D(5)
    init = chessboard(3, grid)
    tests = [torus_test(0.03, 0.47, 1, 1), torus_test(0.03, 0.47, 1, -1)]
    true_res = continuity_residual_2d(
        DyadicSchedule("original", 3, 5), init, tests)
    bad_res = continuity_residual_2d(_HalfSpeed("original", 3, 5), init, tests)
    assert true_res <= 0.02
    assert bad_res >= 0.05
    assert bad_res >= 5.0 * true_res


def test_continuity_residual_is_nan_when_a_total_is_nan():
    """max() drops a NaN, so a NaN total used to read as a perfect 0.0."""
    grid = Grid2D(5)
    init = chessboard(3, grid)
    sched = DyadicSchedule("original", 3, 5)
    good = torus_test(0.03, 0.47, 1, 1)
    holed = SimpleNamespace(
        t_support=good.t_support,
        dt=lambda t, X, Y: np.where(X < 0.5, np.nan, good.dt(t, X, Y)),
        dx=good.dx, dy=good.dy)
    assert continuity_residual_2d(sched, init, [good]) <= 0.02
    assert np.isnan(continuity_residual_2d(sched, init, [good, holed]))
    assert np.isnan(continuity_residual_2d(sched, init, [holed, good]))


def test_strong_modulus_reports_later_snapshots():
    grid = Grid2D(5)
    sched = DyadicSchedule("original", 3, 5)
    traj = evolve(sched, chessboard(3, grid), [0.0, 0.25, sched.T])
    out = strong_modulus_2d(traj, 0.0)
    assert len(out) == 2
    assert all(d > 0.0 for _, d in out)
    assert out[0][1] == pytest.approx(
        l1_distance_2d(traj.at(0.25), traj.at(0.0)))


def _meshgrid_unit_field(st, xc, yc):
    """The time-1 field at cell-unit coordinates as first written, on full
    coordinate arrays: offsets from each block's centre, zero off the
    rotating blocks."""
    N, B, off = st.grid.n, st.B, st.off
    px = np.mod(xc - off, N)
    py = np.mod(yc - off, N)
    a = np.floor(px / B).astype(int)
    b = np.floor(py / B).astype(int)
    X = (px - a * B - B / 2.0) * st.grid.dx
    Y = (py - b * B - B / 2.0) * st.grid.dx
    rot = (a + b) % 2 == 1
    aX, aY = np.abs(X), np.abs(Y)
    horiz = (aY > aX) | ((aY == aX) & (X * Y > 0))
    vert = (aX > aY) | ((aX == aY) & (X * Y < 0))
    return (np.where(rot & horiz, -2.0 * Y, 0.0),
            np.where(rot & vert, 2.0 * X, 0.0))


def _meshgrid_stage_reference(st):
    """Stage arrays computed the earlier way, over full N x N meshgrids."""
    N, B, off, dx = st.grid.n, st.B, st.off, st.grid.dx
    i = np.arange(N)
    I, J = np.meshgrid((i - off) % N, (i - off) % N, indexing="ij")
    a, p = I // B, I % B
    b, q = J // B, J % B
    rot = (a + b) % 2 == 1
    src_i = np.where(rot, (a * B + q + off) % N, np.arange(N)[:, None])
    src_j = np.where(rot, (b * B + (B - 1 - p) + off) % N,
                     np.arange(N)[None, :])
    c = np.arange(N) + 0.5
    XX, YY = np.meshgrid(c, c, indexing="ij")
    vx, vy = _meshgrid_unit_field(st, XX, YY)
    tv = 0.0
    for comp in (vx, vy):
        tv += np.sum(np.abs(np.diff(comp, axis=0)))
        tv += np.sum(np.abs(comp[0] - comp[-1]))
        tv += np.sum(np.abs(np.diff(comp, axis=1)))
        tv += np.sum(np.abs(comp[:, 0] - comp[:, -1]))
    XF, YF = np.meshgrid(i.astype(float), c, indexing="ij")
    vx_face, _ = _meshgrid_unit_field(st, XF, YF)
    XG, YG = np.meshgrid(c, i.astype(float), indexing="ij")
    _, vy_face = _meshgrid_unit_field(st, XG, YG)
    div = (np.roll(vx_face, -1, axis=0) - vx_face
           + np.roll(vy_face, -1, axis=1) - vy_face) / dx
    return {
        "src_i": src_i, "src_j": src_j, "_center_vx": vx, "_center_vy": vy,
        "sup_unit": float(max(np.max(np.abs(vx)), np.max(np.abs(vy)))),
        "bv_unit": float(tv) * dx,
        "div_max": float(np.max(np.abs(div))),
    }


def test_stage_arrays_match_the_meshgrid_computation_bitwise():
    # m = 8 is the verification scale; B = 2 at k = m, and at m = 2 one
    # period of the field is the whole grid
    for m, ks in ((8, range(2, 9)), (3, (2, 3)), (2, (2,))):
        grid = Grid2D(m)
        for k in ks:
            st = build_stage(k, grid)
            ref = _meshgrid_stage_reference(st)
            N = grid.n
            # one flat source per cell, int32 at these sizes
            want = ref["src_i"] * N + ref["src_j"]
            assert (st.src.dtype, st.src.shape) == (np.int32, (N, N))
            assert st.src.astype(want.dtype).tobytes() == want.tobytes(), (
                m, k)
            # the fields are kept as one period each, which tiles the grid
            P = 2 * st.B
            assert st._vx_period.shape == st._vy_period.shape == (P, P)
            for got, name in zip(st.center_field(),
                                 ("_center_vx", "_center_vy")):
                want = ref[name]
                assert (got.dtype, got.shape) == (want.dtype, want.shape), name
                assert got.tobytes() == want.tobytes(), (m, k, name)
            for name in ("sup_unit", "bv_unit", "div_max"):
                assert getattr(st, name).hex() == ref[name].hex(), (m, k, name)
            c = np.arange(grid.n) + 0.5
            got = st.center_field()
            want = _meshgrid_unit_field(st, c[:, None], c[None, :])
            assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


def test_self_check_rejects_a_map_with_a_shared_source():
    st = build_stage(3, Grid2D(4))
    st._self_check()
    # the last cell reads the first cell's source too
    st.src = st.src.copy()
    st.src[-1, -1] = st.src[0, 0]
    with pytest.raises(ConstructionBug, match="not a permutation"):
        st._self_check()


def test_self_check_rejects_a_map_that_misses_a_cell():
    """A source past the last cell or before the first leaves some cell
    unread, though no two cells share a source."""
    st = build_stage(3, Grid2D(4))
    good = st.src
    for bad in (st.grid.n ** 2, -1):
        st.src = good.copy()
        st.src[-1, -1] = bad
        with pytest.raises(ConstructionBug, match="not a permutation"):
            st._self_check()


def test_self_check_rejects_rings_that_list_a_cell_twice():
    st = build_stage(3, Grid2D(4))
    st._self_check()
    p, q, ring, place = (a.copy() for a in st._ring_cells)
    p[0], q[0] = p[1], q[1]
    st._ring_cells = p, q, ring, place
    with pytest.raises(ConstructionBug, match="ring decomposition"):
        st._self_check()


def test_a_stage_map_keeps_its_source_in_four_bytes_a_cell():
    """At the verification scale a map keeps one int32 source per cell and
    no full-grid int64 array: the ring cells are int32 too."""
    grid = Grid2D(8)
    cells = grid.n ** 2
    for k in (2, 3, 8):
        st = build_stage(k, grid)
        kept = [a for v in vars(st).values()
                for a in (v if isinstance(v, tuple) else (v,))
                if isinstance(a, np.ndarray)]
        assert st.src.nbytes <= 4 * cells
        assert not [a.shape for a in kept
                    if a.dtype == np.int64 and a.size >= cells], k


def _traced_peak(fn):
    """fn()'s peak of traced memory above what was traced before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_fixture_11_runs_in_under_12_mb_of_traced_memory():
    """Five stage maps, the state after each stage and the mixing report
    fit in 12 MB at m = 8; with two int64 sources and two tiled fields
    per map the run took 17 MB."""
    cfg = cli.load_config(str(FIXTURES / "criterion_11.ini"))
    assert _traced_peak(lambda: cli.run_experiment(cfg)) < 12e6


def test_fixture_11_runs_and_writes_in_under_7_mb_of_traced_memory(
        tmp_path):
    """The run and its CSV together peak below 7 MB at m = 8: l1 sums
    without a list of every cell, and write_csv builds its rows a block
    at a time. A full (t, x, y, u) row table and fsum's list of 65,536
    floats took the peak to 8.9 MB."""
    cfg = cli.load_config(str(FIXTURES / "criterion_11.ini"))

    def run_and_write():
        header, rows, _, _ = cli.run_experiment(cfg)
        cli.write_csv(str(tmp_path / "mix.csv"), header, rows)

    assert _traced_peak(run_and_write) < 7e6


def test_l1_of_a_256_square_field_copies_at_most_its_absolute_values():
    """l1 of a +-1 field at m = 8 peaks under 1 MB (|values| is 0.5 MB);
    fsum's list of 65,536 Python floats took 2.1 MB."""
    f = chessboard(5, Grid2D(8))
    assert _traced_peak(f.l1) < 1e6
    assert f.l1() == 1.0


def test_schedule_owns_its_stage_maps():
    sched = DyadicSchedule("original", 3, 4)
    st = sched.stage(3)
    assert st is sched.stage(3)
    assert (st.k, st.grid) == (3, Grid2D(4))
    assert DyadicSchedule("original", 3, 4).stage(3) is not st
    for k in (1, 4):
        with pytest.raises(InvalidArgument):
            sched.stage(k)


def test_each_schedule_builds_each_stage_once(tmp_path, monkeypatch):
    calls = []
    real = depauw.build_stage

    def counting(k, grid):
        calls.append((k, grid.m))
        return real(k, grid)

    monkeypatch.setattr(depauw, "build_stage", counting)
    monkeypatch.setenv("SPLITLAW_OUTPUT_ROOT", str(tmp_path))
    assert cli.main(["run", str(FIXTURES / "criterion_11.ini")]) == 0
    assert sorted(calls) == [(k, 8) for k in range(2, 7)]
    calls.clear()
    assert criterion_11("full").passed
    # the strong schedule shares the original schedule's maps
    assert sorted(calls) == [(k, 8) for k in range(2, 7)]
    # and nothing is kept across calls: a second call builds them again
    assert criterion_11("full").passed
    assert sorted(calls) == sorted(2 * [(k, 8) for k in range(2, 7)])


def test_diagnostics_reject_a_grid_at_another_scale():
    sched = DyadicSchedule("original", 3, 4)
    with pytest.raises(InvalidArgument, match="different scales"):
        continuity_residual_2d(sched, chessboard(3, Grid2D(5)),
                               [torus_test(0.03, 0.47, 1, 1)])


def test_a_schedule_shares_the_maps_of_another():
    sched = DyadicSchedule("original", 3, 4)
    strong = DyadicSchedule("strong", 4, 4, maps_from=sched)
    assert strong.stage(3) is sched.stage(3)
    assert strong.stage(4) is strong.stage(4)
    with pytest.raises(InvalidArgument):
        sched.stage(4)  # shared, but above this schedule's k_max
    with pytest.raises(InvalidArgument, match="another scale"):
        DyadicSchedule("strong", 3, 5, maps_from=sched)


def _ring_by_ring_rings(B):
    """Block rings built cell by cell, the earlier way."""
    C = (B - 1) / 2.0
    rings = []
    for r in range(B // 2):
        rho = r + 0.5
        side = 2 * r + 1
        dx0, dy0 = [], []
        for u in range(side):  # right side, going up
            dx0.append(rho)
            dy0.append(-rho + u)
        for u in range(side):  # top side, going left
            dx0.append(rho - u)
            dy0.append(rho)
        for u in range(side):  # left side, going down
            dx0.append(-rho)
            dy0.append(rho - u)
        for u in range(side):  # bottom side, going right
            dx0.append(-rho + u)
            dy0.append(-rho)
        rings.append(((np.asarray(dx0) + C).astype(int),
                      (np.asarray(dy0) + C).astype(int)))
    return rings


def _ring_by_ring_apply_partial(st, values, fraction):
    """A partial turn as one np.roll per ring of each rotating block, the
    earlier way."""
    if fraction <= 0.0:
        return values.copy()
    if fraction >= 1.0:
        return st.apply(values)
    N, B, off = st.grid.n, st.B, st.off
    W = np.roll(values, (-off, -off), axis=(0, 1))
    out = W.copy()
    nb = N // B
    for a in range(nb):
        for b in range(nb):
            if (a + b) % 2 != 1:
                continue
            blk = W[a * B:(a + 1) * B, b * B:(b + 1) * B]
            dst = out[a * B:(a + 1) * B, b * B:(b + 1) * B]
            for p, q in _ring_by_ring_rings(B):
                steps = int(math.floor(fraction * (len(p) / 4.0) + 0.5))
                if steps:
                    dst[p, q] = np.roll(blk[p, q], steps)
    return np.roll(out, (off, off), axis=(0, 1))


# 0.5 puts fraction * len(p) / 4 = 0.5 (2r + 1) on a half for every ring r,
# 0.1 and 1/6 do so for sides 5 and 3; 1e-9 turns no ring
_FRACTIONS = (0.0, 1.0, 1e-9, 0.5, 0.1, 1.0 / 6.0, 0.3, 0.77)


def test_apply_partial_is_the_ring_by_ring_roll_bitwise():
    rng = np.random.default_rng(11)
    for m in range(4, 9):
        grid = Grid2D(m)
        vals = rng.normal(size=(grid.n, grid.n))
        for k in range(2, m + 1):
            st = build_stage(k, grid)
            want_rings = _ring_by_ring_rings(st.B)
            # ring r is listed from index 4 r^2 on
            p, q, _, _ = st._ring_cells
            cut = 4 * np.arange(1, st.B // 2) ** 2
            rings = list(zip(np.split(p.astype(int), cut),
                             np.split(q.astype(int), cut)))
            assert len(rings) == len(want_rings)
            for (p, q), (wp, wq) in zip(rings, want_rings):
                assert (p.dtype, p.tobytes(), q.tobytes()) == (
                    wp.dtype, wp.tobytes(), wq.tobytes())
            # the reference is slow on many small blocks: fewer fractions
            fracs = _FRACTIONS if st.B >= 8 else _FRACTIONS[:4]
            for frac in fracs:
                got = st.apply_partial(vals, frac)
                want = _ring_by_ring_apply_partial(st, vals, frac)
                assert got.tobytes() == want.tobytes(), (m, k, frac)


@pytest.mark.parametrize("variant", ["original", "strong"])
def test_evolve_matches_evolving_each_time_from_init(variant, monkeypatch):
    grid = Grid2D(5)
    sched = DyadicSchedule(variant, 4, 5)
    rng = np.random.default_rng(12)
    init = CellField2D(grid, rng.normal(size=(grid.n, grid.n)))
    ends = [t1 for _, _, t1 in sched.stages]
    mids = [0.5 * (t0 + t1) for _, t0, t1 in sched.stages]
    ts = [sched.T, mids[1], 0.0, ends[0], mids[1], sched.t_start, ends[1],
          mids[0], sched.T, 0.5 * sched.t_start, mids[2], ends[0]]
    for k, _, _ in sched.stages:
        sched.stage(k)  # built first: each build applies its map once
    applied = []
    real_apply = depauw.StageMap.apply

    def counting(st, values):
        applied.append(st.k)
        return real_apply(st, values)

    monkeypatch.setattr(depauw.StageMap, "apply", counting)
    traj = evolve(sched, init, ts)
    # each stage applied once for the call, however the times are ordered
    assert sorted(applied) == sorted(k for k, _, _ in sched.stages)
    assert traj.times == ts
    fields = [f.values for f in traj.fields]
    assert len({id(v) for v in fields}) == len(fields)  # no shared arrays
    for t, got, flag in zip(ts, fields, traj.meta["partial"]):
        one = evolve(sched, init, [t])
        assert one.meta["partial"] == [flag]
        assert got.tobytes() == one.fields[0].values.tobytes(), t


def test_evolve_rejects_a_nan_time():
    grid = Grid2D(4)
    sched = DyadicSchedule("original", 3, 4)
    with pytest.raises(InvalidArgument, match="outside the schedule"):
        evolve(sched, chessboard(3, grid), [0.25, float("nan")])


def _all_modes_at_once_report(traj):
    """mixing_report with every mode array held at once, the earlier
    way: records outer, modes inner."""
    grid = traj.grid
    dA = grid.dx ** 2
    c = (np.arange(grid.n) + 0.5) * grid.dx
    X, Y = np.meshgrid(c, c, indexing="ij")
    pairings = [np.exp(-2j * np.pi * (ax * X + by * Y))
                for ax in (-1, 0, 1) for by in (-1, 0, 1)]
    rows = []
    for t, f in zip(traj.times, traj.fields):
        worst = max(abs(dA * np.sum(f.values * phi)) for phi in pairings)
        rows.append({"t": t, "l1": f.l1(), "weak_max": float(worst),
                     "coarse_l1": [box_averaged_l1(f, j) for j in range(4)]})
    return rows


def test_mixing_report_is_the_all_modes_at_once_computation_bitwise():
    grid = Grid2D(6)
    sched = DyadicSchedule("strong", 4, 6)
    rng = np.random.default_rng(13)
    ts = sorted(set([0.0, sched.T] + [x for _, t0, t1 in sched.stages
                                      for x in (t0, 0.5 * (t0 + t1))]))
    for init in (chessboard(4, grid),
                 CellField2D(grid, rng.normal(size=(grid.n, grid.n)))):
        traj = evolve(sched, init, ts)
        got = mixing_report(traj)
        want = _all_modes_at_once_report(traj)
        assert [r["weak_max"].hex() for r in got] == [
            r["weak_max"].hex() for r in want]
        assert got == want


def _residual_one_evolve_per_segment(schedule, init, test_fns,
                                     samples_per_stage=33):
    """continuity_residual_2d as it was: one evolve from init for each
    test function and stage segment."""
    grid = init.grid
    c = (np.arange(grid.n) + 0.5) * grid.dx
    X, Y = np.meshgrid(c, c, indexing="ij")
    dA = grid.dx ** 2
    breakpoints = [0.0, schedule.t_start]
    for _, _, t1 in schedule.stages:
        breakpoints.append(t1)
    totals = []
    for tf in test_fns:
        lo = max(tf.t_support[0], 0.0)
        hi = min(tf.t_support[1], schedule.T)
        if hi <= lo:
            continue
        total = 0.0
        for seg0, seg1 in zip(breakpoints[:-1], breakpoints[1:]):
            a = max(seg0, lo)
            b = min(seg1, hi)
            if b <= a:
                continue
            ts = np.linspace(a, b, samples_per_stage)
            traj = evolve(schedule, init, ts)
            slab = []
            for t, f in zip(traj.times, traj.fields):
                scale, k = schedule.field_scale(t)
                integ = np.asarray(tf.dt(t, X, Y), dtype=float)
                if k is not None and scale != 0.0:
                    vx, vy = schedule.stage(k).center_field()
                    integ = integ + scale * (
                        vx * np.asarray(tf.dx(t, X, Y), dtype=float)
                        + vy * np.asarray(tf.dy(t, X, Y), dtype=float))
                slab.append(dA * float(np.sum(f.values * integ)))
            slab = np.asarray(slab)
            dt = ts[1] - ts[0]
            total += float(dt * (np.sum(slab) - 0.5 * (slab[0] + slab[-1])))
        totals.append(abs(total))
    return max(totals, default=0.0)


@pytest.mark.parametrize("variant", ["original", "strong"])
def test_continuity_residual_evolves_once_per_call(variant, monkeypatch):
    grid = Grid2D(5)
    sched = DyadicSchedule(variant, 4, 5)
    init = chessboard(4, grid)
    T = sched.T
    # the first test reaches T, the second meets some segments, the third
    # starts after T
    tests = [torus_test(0.06 * T, 2.0 * T, 1, 1),
             torus_test(0.6 * T, 0.8 * T, 1, -1, "sin"),
             torus_test(2.0 * T, 3.0 * T, 1, 0)]
    want = [_residual_one_evolve_per_segment(sched, init, [tf])
            for tf in tests]
    applied = []
    real_apply = depauw.StageMap.apply

    def counting(st, values):
        applied.append(st.k)
        return real_apply(st, values)

    monkeypatch.setattr(depauw.StageMap, "apply", counting)
    assert continuity_residual_2d(sched, init, tests[:2]) == max(want)
    # 3 stages, each applied once for the whole call
    assert sorted(applied) == [2, 3, 4]
    for tf, total in zip(tests, want):
        assert continuity_residual_2d(sched, init, [tf]) == total
