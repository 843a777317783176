"""Grids, cell fields, flux descriptions, and the measurement toolbox."""
import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitlaw.core import (
    BOUNDARY_MODES,
    CellField,
    FluxFunction,
    Grid1D,
    SplitTrajectory,
    Trajectory,
    VectorState,
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
from splitlaw.core import (_aligned_zeros, _Arena, _FlatRows,
                           _window_slice, _worst_residual)
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


def test_grid_refuses_a_cell_count_that_is_not_an_integer():
    for n in (64.7, 64.0, float("nan"), "64"):
        with pytest.raises(InvalidArgument, match="n must be an integer"):
            Grid1D(-2.0, 2.0, n)
    assert Grid1D(-2.0, 2.0, np.int64(64)).n == 64
    assert type(Grid1D(-2.0, 2.0, np.int64(64)).n) is int


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
    with pytest.raises(InvalidArgument):
        traj.at(0.3)
    with pytest.raises(InvalidArgument):
        Trajectory([0.0, 0.25], fields)


def test_a_split_trajectory_is_a_trajectory_of_its_states():
    """Record lookup, length and grid are Trajectory's, so mismatched times
    and states are refused as there; they used to build, report the
    length of the times and fail in at() with a bare IndexError."""
    g = Grid1D(0.0, 1.0, 4)
    states = [VectorState([CellField(g, np.full(4, float(j)))])
              for j in range(2)]
    with pytest.raises(InvalidArgument, match="length mismatch"):
        SplitTrajectory([0.0, 1.0], states[:1], None, [], {})
    traj = SplitTrajectory([0, 0.5], states, None, [], {"k": 1})
    assert isinstance(traj, Trajectory)
    assert traj.states is traj.fields and traj.states == states
    assert traj.times == [0.0, 0.5] and len(traj) == 2 and traj.grid == g
    assert traj.at(0.5) is states[1] and traj.meta == {"k": 1}


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


def test_step_buffers_start_on_a_cache_line():
    """malloc aligns to 16 bytes only; the step buffers are placed on a
    64-byte line whatever was allocated before them. shifted(lead) is
    buffers(lead) one cell earlier in memory, so its written view here,
    not behind, starts on the line, also as a prefix of an arena's
    block."""
    keep = []
    for size in range(1, 40):
        keep.append(np.zeros(size))  # move the heap between allocations
        for shape, dtype in (((size,), float), ((2, size + 2), float),
                             ((3, 1, size), bool)):
            a = _aligned_zeros(shape, dtype)
            assert (a.shape, a.dtype) == (shape, np.dtype(dtype))
            assert a.ctypes.data % 64 == 0
            assert a.flags.c_contiguous and a.flags.writeable
            assert not a.any()
        for lead in ((), (3,)):
            buf, rows, ahead = _FlatRows([size, 2]).buffers(lead)
            assert buf.ctypes.data % 64 == 0 and rows.ctypes.data % 64 == 0
            assert ahead.ctypes.data == buf.ctypes.data + 8
            assert rows.shape == ahead.shape == lead + (size + 6,)
            arena = _Arena()  # its block holds a layout of more cells
            _FlatRows([size + 5, 2], arena.zeros).shifted(lead)
            arena.reset()
            for zeros in (_aligned_zeros, arena.zeros):
                behind, here = _FlatRows([size, 2], zeros).shifted(lead)
                assert here.ctypes.data % 64 == 0
                assert behind.ctypes.data == here.ctypes.data - 8
                assert behind.shape == here.shape == rows.shape
                assert here.flags.c_contiguous and behind.flags.c_contiguous
                assert not behind.any() and not here.any()
                here[...] = np.arange(1.0, here.size + 1).reshape(here.shape)
                assert behind.ravel()[0] == 0.0  # the cell before is spare
                assert np.array_equal(behind.ravel()[1:], here.ravel()[:-1])


class _SpiedUfunc:
    """A NumPy ufunc that notes every array it writes through out=."""

    def __init__(self, ufunc, written):
        self._ufunc, self._written = ufunc, written

    def __call__(self, *args, out=None, **kwargs):
        if out is not None:
            self._written.append(out)
        return self._ufunc(*args, out=out, **kwargs)

    def __getattr__(self, name):
        return getattr(self._ufunc, name)


class _SpiedNumpy:
    """numpy, with every ufunc and np.copyto noting the array it writes."""

    def __init__(self):
        self.written = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if isinstance(attr, np.ufunc):
            return _SpiedUfunc(attr, self.written)
        if name == "copyto":
            def copyto(dst, src, **kwargs):
                self.written.append(dst)
                np.copyto(dst, src, **kwargs)
            return copyto
        return attr


def test_every_view_a_step_writes_starts_on_a_cache_line(monkeypatch):
    """A ufunc whose out starts 8 bytes into a cache line runs about twice
    as slow, so every array the Godunov, split and Lax-Friedrichs steps
    write through out= (or np.copyto) starts on a 64-byte line: with and
    without a lead axis (an m = 2 w stack, k = 3 components), on ragged
    batches whose rows leave at different steps (a new layout in the
    arena's memory), a zero v (the ride's masked divide), finite and
    infinite critical points, and after heap-moving allocations."""
    from splitlaw import chroma, scalar
    from splitlaw.chroma import ChromState, solve_direct_many
    from splitlaw.scalar import ScalarConfig, solve_scalar_many
    from splitlaw.transport import solve_split_many

    spy = _SpiedNumpy()
    monkeypatch.setattr(scalar, "np", spy)
    monkeypatch.setattr(chroma, "np", spy)
    cfg = ScalarConfig(t_end=0.25, record_times=[0.125])
    grids = [Grid1D(-1.0, 1.0, 33), Grid1D(-1.0, 1.0, 20)]

    def riemann(grid, left, right):
        return project(lambda x: np.where(np.asarray(x) < 0.0, left, right),
                       grid)

    keep = []
    for size in (1, 3, 7):
        keep.append(np.zeros(size))  # move the heap between marches
        solve_scalar_many(burgers_flux(), [riemann(g, -1.0, 1.5)
                                           for g in grids], cfg)
        solve_scalar_many(chromatography_flux(),
                          [riemann(g, 1.0, 0.25) for g in grids], cfg)
        solve_split_many(chromatography_flux(), lambda v: 1.0 / (1.0 + v),
                         [riemann(g, 1.0, 0.0) for g in grids],
                         [[riemann(g, 0.5, 0.0), riemann(g, 0.25, 0.0)]
                          for g in grids], cfg)
        solve_direct_many([ChromState([riemann(g, 0.5, 0.25),
                                       riemann(g, 0.25, 0.5),
                                       riemann(g, 0.125, 0.25)])
                           for g in grids], cfg)
    kinds = {(a.ndim, a.dtype) for a in spy.written}
    assert {(1, np.dtype(bool)), (1, np.dtype(float)),
            (2, np.dtype(float))} <= kinds  # masks, rows, lead axes
    assert [a.ctypes.data % 64 for a in spy.written] == [0] * len(spy.written)


@pytest.mark.parametrize("periodic", [False, True])
def test_flat_rows_address_ragged_rows_by_offset(periodic):
    """Rows of 3, 2 and 4 cells lie back to back, each between its two
    ghosts; every per-row operation reads the row's own columns only."""
    layout = _FlatRows([3, 2, 4])
    assert layout.size == 15 and layout.offsets.tolist() == [0, 5, 9]
    assert layout.cells == [slice(1, 4), slice(6, 8), slice(10, 14)]
    assert layout.columns == [slice(0, 5), slice(5, 9), slice(9, 15)]
    buf, rows, ahead = layout.buffers((2,))
    assert buf.size == 31 and not buf.any()
    cells = [[1.0, -2.0, 3.0], [-0.5, 0.25], [4.0, 5.0, -6.0, 7.0]]
    for copy in range(2):
        for s, c in zip(layout.cells, cells):
            rows[copy, s] = np.asarray(c) * (copy + 1)
    assert np.array_equal(ahead[:, :-1], rows[:, 1:])
    ghosts, edges = layout.ghost_pairs(2, periodic)
    buf[ghosts] = buf[edges]
    for copy in range(2):
        for s, c in zip(layout.cells, cells):
            ext = CellField(Grid1D(0.0, 1.0, len(c)),
                            np.asarray(c) * (copy + 1),
                            "periodic" if periodic else "constant-extension")
            assert rows[copy, s.start - 1:s.stop + 1].tolist() == \
                ext.extended(1).tolist()
    rows[:, layout.columns[1]] = np.nan  # a NaN ghost or cell is per row
    rows[:, layout.cells[1]] = 0.0
    assert layout.ranges(rows) == ([-4.0, 0.0, -12.0], [6.0, 0.0, 14.0])
    assert layout.ranges(rows[0]) == ([-2.0, 0.0, -6.0], [3.0, 0.0, 7.0])
    rows[1, 2] = np.nan
    lo, hi = layout.ranges(rows)
    assert math.isnan(lo[0]) and math.isnan(hi[0]) and lo[1:] == [0.0, -12.0]
    faces = np.minimum.reduceat(np.arange(15.0), layout.face_bounds)[::2]
    assert faces.tolist() == [0.0, 5.0, 9.0]  # each row's first column
    column = layout.column()
    out, held = column
    assert layout.per_row([0.5, 0.5, 0.5], column) == 0.5
    assert layout.per_row([1.5, -1.0, 2.0], column) is out
    assert out.tolist() == [1.5] * 5 + [-1.0] * 4 + [2.0] * 6
    assert held == [1.5, -1.0, 2.0]
    out[:] = 9.0  # only the rows whose value changes, to the bit, are written
    layout.per_row([1.5, -0.0, 2.0], column)
    layout.per_row([1.5, 0.0, 2.0], column)
    assert out.tolist() == [9.0] * 5 + [0.0] * 4 + [9.0] * 6
    assert math.copysign(1.0, out[6]) == 1.0 and held == [1.5, 0.0, 2.0]


def test_an_arena_hands_out_its_blocks_again_zeroed():
    """After reset, the i-th buffer is a zeroed prefix of the i-th block,
    on a cache line, whatever its dtype."""
    arena = _Arena()
    first = [arena.zeros((3, 10)), arena.zeros((7,), dtype=bool)]
    for a in first:
        a[...] = 1
    arena.reset()
    again = [arena.zeros((2, 9)), arena.zeros((5,), dtype=bool),
             arena.zeros((4,))]
    for a, b in zip(again, first):
        assert a.ctypes.data == b.ctypes.data and a.ctypes.data % 64 == 0
    assert [(a.shape, a.dtype) for a in again] == [
        ((2, 9), np.dtype(float)), ((5,), np.dtype(bool)),
        ((4,), np.dtype(float))]
    assert not any(a.any() for a in again)
    assert first[0].ravel()[18:].tolist() == [1.0] * 12  # past the prefix


def _unused_imports(text):
    """The names a module's top-level imports bind that the module never
    references, apart from names in __all__ and imports on a line marked
    `# noqa: F401`."""
    tree = ast.parse(text)
    lines = text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                getattr(node, "module", None) == "__future__"):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa: F401" not in (
                    lines[alias.lineno - 1] + lines[node.lineno - 1]):
                unused.append(name)
    return unused


def test_no_module_imports_a_name_it_never_uses():
    src = Path(__file__).resolve().parents[1] / "src" / "splitlaw"
    found = {path.name: _unused_imports(path.read_text())
             for path in sorted(src.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
    # the check sees an unused import, and honours __all__ and noqa
    assert _unused_imports("from .core import (CellField,\n"
                           "    Trajectory)\nx = CellField\n") == [
        "Trajectory"]
    assert _unused_imports("import a.b as c\nfrom d import e  "
                           "# noqa: F401\n__all__ = ['c']\n") == []


def _unnamed_privates(texts):
    """The private module-level functions, classes and constants of the
    modules texts (module name -> source) that no other line of any of
    them names: a name read in an expression, or an attribute, counts;
    its definition and an import alone do not."""
    trees = {module: ast.parse(text) for module, text in texts.items()}
    named = set()
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    unnamed = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unnamed += [f"{module}.{name}" for name in names
                        if name.startswith("_") and not name.startswith("__")
                        and name not in named]
    return unnamed


def test_no_private_module_name_goes_unused_in_src():
    """A private helper that only tests call belongs in the tests."""
    src = Path(__file__).resolve().parents[1] / "src" / "splitlaw"
    assert _unnamed_privates({path.stem: path.read_text()
                              for path in sorted(src.glob("*.py"))}) == []
    # the check sees unused privates, and a use in another module, as an
    # attribute or in its own body
    assert _unnamed_privates({
        "a": "def _f():\n    return _f\ndef _g():\n    pass\n"
             "_K = 1\n_L: int = 2\nclass _C:\n    pass\n__all__ = []\n",
        "b": "from a import _C, _L\nimport a\nx = a._g(_L)\n",
    }) == ["a._K", "a._C"]
