"""Grids, cell fields, flux descriptions, and the measurement toolbox."""
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitlaw.core import (
    BOUNDARY_MODES,
    CellField,
    FluxFunction,
    Grid1D,
    Trajectory,
    bump_test,
    burgers_flux,
    chromatography_c,
    chromatography_flux,
    lp_distance,
    mass,
    project,
    total_variation,
    weak_pairing,
)
from splitlaw.core import _window_slice, _worst_residual
from splitlaw.errors import InvalidArgument
from splitlaw.scalar import _positive_part_integral


def test_grid_spacing_and_centers():
    g = Grid1D(-2.0, 2.0, 8)
    assert g.dx == 0.5
    x = g.centers()
    assert x.shape == (8,)
    assert x[0] == -1.75
    assert x[-1] == 1.75


def test_grid_equality_is_structural():
    g = Grid1D(-2.0, 2.0, 8)
    assert g == Grid1D(-2.0, 2.0, 8)
    assert hash(g) == hash(Grid1D(-2.0, 2.0, 8))
    assert g != Grid1D(-2.0, 2.0, 16)
    assert g != "not a grid"


def test_grid_rejects_degenerate_inputs():
    with pytest.raises(InvalidArgument):
        Grid1D(1.0, 1.0, 8)
    with pytest.raises(InvalidArgument):
        Grid1D(1.0, 0.0, 8)
    with pytest.raises(InvalidArgument):
        Grid1D(0.0, 1.0, 1)


def test_grid_rejects_a_subnormal_cell_width():
    with pytest.raises(InvalidArgument, match="smallest normal float"):
        Grid1D(0.0, 1e-320, 32)
    with pytest.raises(InvalidArgument):
        Grid1D(0.0, 4.0 * sys.float_info.min, 8)
    assert Grid1D(0.0, 32.0 * sys.float_info.min, 32).dx == sys.float_info.min


def test_grid_rejects_non_finite_bounds():
    inf = float("inf")
    for lo, hi in ((-1.0, inf), (-inf, 1.0), (float("nan"), 1.0),
                   (-1e308, 1e308)):
        with pytest.raises(InvalidArgument, match="finite"):
            Grid1D(lo, hi, 16)


def test_cell_field_validates_shape_and_boundary():
    g = Grid1D(0.0, 1.0, 4)
    with pytest.raises(InvalidArgument):
        CellField(g, np.zeros(5))
    for mode in ("reflecting", "outflow"):
        with pytest.raises(InvalidArgument):
            CellField(g, np.zeros(4), boundary=mode)
    for mode in BOUNDARY_MODES:
        CellField(g, np.zeros(4), boundary=mode)


def test_ghost_cells_periodic_wrap():
    g = Grid1D(0.0, 1.0, 4)
    f = CellField(g, [1.0, 2.0, 3.0, 4.0], boundary="periodic")
    assert list(f.extended(1)) == [4.0, 1.0, 2.0, 3.0, 4.0, 1.0]


def test_ghost_cells_edge_copy_modes_agree():
    g = Grid1D(0.0, 1.0, 4)
    vals = [1.0, 2.0, 3.0, 4.0]
    ext = CellField(g, vals, boundary="constant-extension").extended(2)
    assert list(ext) == [1.0, 1.0, 1.0, 2.0, 3.0, 4.0, 4.0, 4.0]


def test_project_samples_cell_midpoints():
    g = Grid1D(-1.0, 1.0, 16)
    f = project(lambda x: 2.0 * x + 1.0, g)
    assert np.array_equal(f.values, 2.0 * g.centers() + 1.0)


def test_chromatography_flux_description():
    flux = chromatography_flux()
    assert flux.convexity == "concave"
    assert float(flux.g(0.0)) == 0.0
    assert float(flux.g(1.0)) == 0.5
    assert float(flux.gprime(0.0)) == 1.0
    assert flux.admissible_min == 0.0
    with pytest.raises(InvalidArgument):
        flux.check_admissible(np.array([0.5, -0.1]))
    # the speed bound depends only on the lower end of the range
    assert flux.L_of_range(0.5, 2.0) == pytest.approx(1.0 / 1.5 ** 2)
    assert flux.L_of_range(2.0, 0.5) == flux.L_of_range(0.5, 2.0)


def test_burgers_flux_description():
    flux = burgers_flux()
    assert flux.convexity == "convex"
    assert flux.c == 2.0
    assert flux.L_of_range(-1.0, 2.0) == pytest.approx(4.0)
    assert flux.L_of_range(0.5, 0.5) == pytest.approx(1.0)
    flux.check_admissible(np.array([-5.0, 5.0]))  # unrestricted domain


def test_chromatography_concavity_constant():
    assert chromatography_c(1.0) == pytest.approx(0.25)
    assert chromatography_c(0.0) == pytest.approx(2.0)
    assert chromatography_c(2.0) < chromatography_c(1.0)


def test_flux_function_rejects_unknown_convexity():
    with pytest.raises(InvalidArgument):
        FluxFunction(g=lambda v: v, gprime=lambda v: 1.0, convexity="flat")


def test_total_variation_of_monotone_step():
    g = Grid1D(0.0, 1.0, 6)
    f = CellField(g, [0.0, 0.0, 1.0, 1.0, 0.5, 0.5])
    assert total_variation(f) == pytest.approx(1.5)
    assert total_variation(f, window=(0.0, 0.5)) == pytest.approx(1.0)
    assert total_variation(f, window=(0.9, 0.95)) == 0.0
    with pytest.raises(InvalidArgument):
        total_variation(f, window=(0.5, 0.1))


def test_total_variation_of_a_periodic_field_crosses_the_seam():
    g = Grid1D(0.0, 1.0, 4)
    values = [0.0, 1.0, 1.0, 0.25]
    assert total_variation(CellField(g, values, "periodic")) == 2.0
    assert total_variation(CellField(g, values)) == 1.75
    # a window is an interval, seam or not
    assert total_variation(CellField(g, values, "periodic"),
                           window=(0.0, 1.0)) == 1.75


def test_mass_over_windows():
    g = Grid1D(0.0, 1.0, 4)
    f = CellField(g, [1.0, 2.0, 3.0, 4.0])
    assert mass(f) == pytest.approx(2.5)
    assert mass(f, window=(0.0, 0.5)) == pytest.approx(0.75)


def test_lp_distance_modes():
    g = Grid1D(0.0, 1.0, 4)
    a = CellField(g, [1.0, 2.0, 3.0, 4.0])
    b = CellField(g, [1.0, 1.0, 1.0, 1.0])
    assert lp_distance(a, b, 1) == pytest.approx(0.25 * (0 + 1 + 2 + 3))
    assert lp_distance(a, b, math.inf) == pytest.approx(3.0)
    with pytest.raises(InvalidArgument):
        lp_distance(a, b, 2)
    other = CellField(Grid1D(0.0, 1.0, 8), np.zeros(8))
    with pytest.raises(InvalidArgument):
        lp_distance(a, other, 1)


def test_weak_pairing_cancels_odd_test_function():
    g = Grid1D(-1.0, 1.0, 8)
    f = CellField(g, np.ones(8))
    assert weak_pairing(f, lambda x: x) == 0.0
    assert weak_pairing(f, lambda x: np.ones_like(x)) == pytest.approx(2.0)


def test_trajectory_record_lookup():
    g = Grid1D(0.0, 1.0, 4)
    fields = [CellField(g, np.full(4, float(j))) for j in range(3)]
    traj = Trajectory([0.0, 0.25, 0.5], fields)
    assert len(traj) == 3
    assert traj.grid == g
    assert traj.at(0.25).values[0] == 1.0
    assert traj.values_matrix().shape == (3, 4)
    with pytest.raises(InvalidArgument):
        traj.at(0.3)
    with pytest.raises(InvalidArgument):
        Trajectory([0.0, 0.25], fields)


def test_bump_test_support_and_peak():
    tf = bump_test(0.2, 0.8, -1.0, 1.0)
    assert tf.t_support == (0.2, 0.8)
    assert tf.x_support == (-1.0, 1.0)
    assert float(tf.fn(0.1, 0.0)) == 0.0
    assert float(tf.fn(0.5, 1.5)) == 0.0
    assert float(tf.fn(0.5, 0.0)) == pytest.approx(1.0)
    ts = np.linspace(0.0, 1.0, 41)
    xs = np.linspace(-1.5, 1.5, 41)
    assert all(float(tf.fn(t, x)) >= 0.0 for t in ts for x in xs)


def test_bump_test_partials_match_finite_differences():
    tf = bump_test(0.2, 0.8, -1.0, 1.0)
    h = 1e-6
    for t, x in [(0.37, 0.13), (0.5, -0.4), (0.71, 0.86)]:
        fd_t = (float(tf.fn(t + h, x)) - float(tf.fn(t - h, x))) / (2.0 * h)
        fd_x = (float(tf.fn(t, x + h)) - float(tf.fn(t, x - h))) / (2.0 * h)
        assert fd_t == pytest.approx(float(tf.dt(t, x)), abs=1e-5)
        assert fd_x == pytest.approx(float(tf.dx(t, x)), abs=1e-5)


_CELL_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -1e300, 1e300]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))


@given(u=st.lists(_CELL_VALUES, min_size=8, max_size=8),
       w=st.lists(_CELL_VALUES, min_size=8, max_size=8),
       window=st.sampled_from([None, (-0.6, 0.9), (0.1, 0.2)]))
@settings(max_examples=150, deadline=None)
def test_fsum_reductions_match_the_per_cell_sums(u, w, window):
    """The reductions hand math.fsum one list; the reference converts cell
    by cell through NumPy scalars. fsum rounds once, so the bits agree."""
    g = Grid1D(-1.0, 1.0, 8)
    a = CellField(g, np.array(u))
    b = CellField(g, np.array(w))
    idx = _window_slice(g, window)
    phi = np.cos(g.centers()[idx])
    if len(idx) >= 2:
        span = a.values[idx[0]:idx[-1] + 1]
        tv = math.fsum(abs(float(d)) for d in np.diff(span))
        assert total_variation(a, window).hex() == tv.hex()
    assert mass(a, window).hex() == (g.dx * math.fsum(
        float(a.values[i]) for i in idx)).hex()
    assert lp_distance(a, b, 1, window).hex() == (g.dx * math.fsum(
        map(float, np.abs(a.values[idx] - b.values[idx])))).hex()
    assert weak_pairing(a, np.cos, window).hex() == (g.dx * math.fsum(
        float(v * p) for v, p in zip(a.values[idx], phi))).hex()
    assert _positive_part_integral(a, window).hex() == (
        g.dx * math.fsum(float(v) for v in a.values[idx] if v > 0.0)).hex()


@pytest.mark.parametrize("residuals, expected", [
    ([], 0.0), ([-1.0, -0.0], 0.0), ([0.5, 2.0, 1.0], 2.0),
    ([math.nan], math.nan), ([2.0, math.nan, 0.5], math.nan),
    ([-1.0, math.nan], math.nan)])
def test_worst_residual_keeps_nan(residuals, expected):
    got = _worst_residual(residuals)
    assert got == expected or (math.isnan(got) and math.isnan(expected))
    if got == 0.0:
        assert math.copysign(1.0, got) == 1.0
