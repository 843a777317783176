"""Chessboard coarsening schedule on the torus: stage maps, timetables,
mixing diagnostics, and the weak continuity residual."""
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from splitlaw import cli, depauw
from splitlaw.acceptance import criterion_11
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
    assert f.linf() == 1.0


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


def test_stage_map_contract():
    grid = Grid2D(5)
    for k in (2, 3, 4):
        st = build_stage(k, grid)
        assert np.array_equal(st.apply(chessboard(k, grid).values),
                              chessboard(k - 1, grid).values)
        assert 0.0 < st.sup_norm < 1.0
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
        assert sched.activation(k, t0) == 0.0
        assert sched.activation(k, t1) == 0.0
        assert sched.activation(k, 0.5 * (t0 + t1)) > 1.0


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
    for phase in ("cos", "sin"):
        tf = torus_test(0.1, 0.4, 1, -1, phase)
        t, x, y = 0.2, 0.3, 0.7
        fd_t = (float(tf.fn(t + h, x, y)) - float(tf.fn(t - h, x, y))) / (2 * h)
        fd_x = (float(tf.fn(t, x + h, y)) - float(tf.fn(t, x - h, y))) / (2 * h)
        fd_y = (float(tf.fn(t, x, y + h)) - float(tf.fn(t, x, y - h))) / (2 * h)
        assert fd_t == pytest.approx(float(tf.dt(t, x, y)), abs=1e-4)
        assert fd_x == pytest.approx(float(tf.dx(t, x, y)), abs=1e-4)
        assert fd_y == pytest.approx(float(tf.dy(t, x, y)), abs=1e-4)


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


def test_mixing_report_accepts_custom_test_functions():
    grid = Grid2D(4)
    traj = evolve(DyadicSchedule("original", 2, 4), chessboard(2, grid),
                  [0.0])
    rows = mixing_report(traj, test_fns=[lambda X, Y: np.ones_like(X)])
    assert rows[0]["weak_max"] == pytest.approx(0.0, abs=1e-15)


def test_field_diagnostics_rows():
    grid = Grid2D(5)
    sched = DyadicSchedule("original", 3, 5)
    rows = field_diagnostics(sched, [0.05, 0.1875, 0.3], grid)
    assert rows[0]["k"] is None
    assert rows[0]["sup"] == 0.0
    assert rows[0]["modulus_prev"] is None
    assert rows[1]["k"] == 3
    assert rows[1]["sup"] > 0.0
    assert rows[1]["bv"] > 0.0
    assert rows[2]["k"] == 2
    assert rows[2]["modulus_prev"] >= 0.0


def test_strong_variant_keeps_the_field_slow_and_vanishing_at_ends():
    grid = Grid2D(6)
    sched = DyadicSchedule("strong", 4, 6)
    for k, t0, t1 in sched.stages:
        row_end = field_diagnostics(sched, [t0], grid)[0]
        assert row_end["sup"] == 0.0
        row_mid = field_diagnostics(sched, [0.5 * (t0 + t1)], grid)[0]
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
    vx, vy = st.unit_field(XX, YY)
    tv = 0.0
    for comp in (vx, vy):
        tv += np.sum(np.abs(np.diff(comp, axis=0)))
        tv += np.sum(np.abs(comp[0] - comp[-1]))
        tv += np.sum(np.abs(np.diff(comp, axis=1)))
        tv += np.sum(np.abs(comp[:, 0] - comp[:, -1]))
    XF, YF = np.meshgrid(i.astype(float), c, indexing="ij")
    vx_face, _ = st.unit_field(XF, YF)
    XG, YG = np.meshgrid(c, i.astype(float), indexing="ij")
    _, vy_face = st.unit_field(XG, YG)
    div = (np.roll(vx_face, -1, axis=0) - vx_face
           + np.roll(vy_face, -1, axis=1) - vy_face) / dx
    return {
        "src_i": src_i, "src_j": src_j, "_center_vx": vx, "_center_vy": vy,
        "sup_unit": float(max(np.max(np.abs(vx)), np.max(np.abs(vy)))),
        "bv_unit": float(tv) * dx,
        "div_max": float(np.max(np.abs(div))),
    }


def test_stage_arrays_match_the_meshgrid_computation_bitwise():
    grid = Grid2D(8)
    for k in range(2, 7):
        st = build_stage(k, grid)
        ref = _meshgrid_stage_reference(st)
        for name in ("src_i", "src_j", "_center_vx", "_center_vy"):
            got, want = getattr(st, name), ref[name]
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), (k, name)
        for name in ("sup_unit", "bv_unit", "div_max"):
            assert getattr(st, name).hex() == ref[name].hex(), (k, name)


def test_self_check_rejects_a_map_with_a_shared_source():
    st = build_stage(3, Grid2D(4))
    st._self_check()
    # another cell reading from the same column as cell (0, 0) is sent to
    # that cell's source row too, so two cells share one source
    hits = np.argwhere(st.src_j == st.src_j[0, 0])
    r, c = hits[1]
    st.src_i = st.src_i.copy()
    st.src_i[r, c] = st.src_i[0, 0]
    with pytest.raises(ConstructionBug, match="not a permutation"):
        st._self_check()


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
    # one build per stage for each of the original and strong schedules
    assert sorted(calls) == sorted(2 * [(k, 8) for k in range(2, 7)])


def test_diagnostics_reject_a_grid_at_another_scale():
    sched = DyadicSchedule("original", 3, 4)
    with pytest.raises(InvalidArgument, match="different scales"):
        field_diagnostics(sched, [0.3], Grid2D(5))
    with pytest.raises(InvalidArgument, match="different scales"):
        continuity_residual_2d(sched, chessboard(3, Grid2D(5)),
                               [torus_test(0.03, 0.47, 1, 1)])
