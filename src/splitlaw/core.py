"""Grids, cell fields, flux descriptions, and the small measurement toolbox
shared by every solver: total variation, mass, Lp distances, weak pairings.

All quantities live on uniform 1D cell-centered grids. Accumulations that
feed tolerance checks go through math.fsum (_exact_sum) so that the
documented 1e-12 bounds hold independent of summation order; a sum that
fsum cannot form is NaN.
"""
import math
import operator
import sys

import numpy as np

from .errors import InvalidArgument

BOUNDARY_MODES = ("periodic", "constant-extension")


def _integer(value, name):
    """value as a Python int; Python and NumPy integers pass, and anything
    else (2.5, or even 3.0 or NaN) is refused rather than truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidArgument(
            f"{name} must be an integer, got {value!r}") from None


def _interval(lo, hi, name):
    """(lo, hi) as floats, refused unless both are finite and hi - lo is
    at least the smallest normal float: pi / (hi - lo), a bump's slope
    scale, would overflow on a subnormal width."""
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)
            and hi - lo >= sys.float_info.min):
        raise InvalidArgument(
            f"{name} support must be finite and increasing, at least "
            f"{sys.float_info.min!r} wide, got ({lo}, {hi})")
    return lo, hi


class Grid1D:
    """Uniform cell grid on [x_min, x_max] with n cells."""

    def __init__(self, x_min, x_max, n):
        if not math.isfinite(float(x_max) - float(x_min)):
            raise InvalidArgument("grid bounds and length must be finite")
        if not (x_max > x_min):
            raise InvalidArgument("need x_max > x_min")
        self.n = _integer(n, "n")
        if self.n < 2:
            raise InvalidArgument("need at least 2 cells")
        self.x_min = float(x_min)
        self.x_max = float(x_max)
        self.dx = (self.x_max - self.x_min) / self.n
        if self.dx < sys.float_info.min:
            # a subnormal cell width makes dt subnormal too: the time plan
            # would take astronomically many steps
            raise InvalidArgument(
                f"cell width {self.dx!r} is below the smallest normal float")

    def centers(self):
        return self.x_min + (np.arange(self.n) + 0.5) * self.dx

    def __eq__(self, other):
        return (isinstance(other, Grid1D) and self.x_min == other.x_min
                and self.x_max == other.x_max and self.n == other.n)

    def __hash__(self):
        return hash((self.x_min, self.x_max, self.n))

    def __repr__(self):
        return f"Grid1D({self.x_min}, {self.x_max}, n={self.n})"


class CellField:
    """Cell-averaged values plus a ghost-cell policy: 'periodic' wraps,
    'constant-extension' copies the edge cell."""

    def __init__(self, grid, values, boundary="constant-extension"):
        if boundary not in BOUNDARY_MODES:
            raise InvalidArgument(f"unknown boundary mode {boundary!r}")
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n,):
            raise InvalidArgument(
                f"values shape {values.shape} does not match grid n={grid.n}")
        self.grid = grid
        self.values = values
        self.boundary = boundary

    def with_values(self, values):
        return CellField(self.grid, values, self.boundary)

    def extended(self, ng=1):
        """Values with ng ghost cells on each side."""
        v = self.values
        if self.boundary == "periodic":
            return np.concatenate([v[-ng:], v, v[:ng]])
        edge_l = np.full(ng, v[0])
        edge_r = np.full(ng, v[-1])
        return np.concatenate([edge_l, v, edge_r])

    def copy(self):
        return CellField(self.grid, self.values.copy(), self.boundary)


def _aligned_zeros(shape, dtype=float):
    """A zeroed array whose data starts on a 64-byte cache line. malloc
    aligns to 16 bytes only, so a step buffer's offset into its line
    depends on everything allocated before it, and the step loops ran up
    to 25% slower on a buffer 16 or 48 bytes into a line."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    raw = np.zeros(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + nbytes].view(dtype).reshape(shape)


class _Arena:
    """The memory of one march's step buffers, reused by each layout the
    march makes. After reset(), the i-th zeros() call returns a zeroed
    prefix of the i-th block, on a 64-byte line like _aligned_zeros. A
    march asks for its buffers in the same order on every layout, and a
    later layout holds fewer rows, so each prefix fits the block the first
    layout allocated, and a march allocates its step buffers once."""

    def __init__(self):
        self._blocks = []
        self._next = 0

    def reset(self):
        self._next = 0

    def zeros(self, shape, dtype=float):
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        if self._next < len(self._blocks):
            block = self._blocks[self._next][:nbytes]
            block.fill(0)
        else:
            block = _aligned_zeros((nbytes,), np.uint8)
            self._blocks.append(block)
        self._next += 1
        return block.view(dtype).reshape(shape)


class _FlatRows:
    """The memory layout of every batched step: rows of ns[0], ns[1], ...
    cells, each with its two ghost cells, back to back in one flat buffer,
    so runs on different grids step together.

    Row i takes the size columns from offsets[i]: its left ghost, its cells
    (the slice cells[i]), its right ghost. buffers(lead) returns a new
    zeroed flat buffer of prod(lead) * size + 1 cells and two views of it,
    (buf, rows, ahead): rows is the buffer without its last cell and ahead
    the buffer without its first, both shaped lead + (size,). So
    prod(lead) copies of the layout (the rows of a w stack, the components
    of a Lax-Friedrichs state) sit back to back, and the buffer ends in one
    spare cell. ahead[..., j] is rows[..., j + 1], so a left and a right
    state, a flux into and out of a cell, or a cell and its upwind
    neighbour are two contiguous views at a one-element offset. The last
    column of ahead reads the next copy's first column (the spare after
    the last copy): junk that no cell reads. The spare cell and any cell
    never written read 0.0.

    A step writes one view of each pair and only reads the other, and a
    ufunc whose output starts 8 bytes into a cache line runs about twice
    as slow, so the written view starts on a 64-byte line: rows for
    buffers(lead) (a step's state), here for shifted(lead), which returns
    the same pair one cell earlier in memory, (behind, here) with
    behind[..., j + 1] = here[..., j] (mu*G and beta, lam and its upwind
    ratio, a flux out of and into a cell). Only the first copy of a lead
    axis starts on a line.

    Whatever is per row is addressed through the offsets: cell_bounds and
    face_bounds are np.ufunc.reduceat indices whose even segments are each
    row's cells and the n + 1 interfaces between its columns, columns[i]
    slices all of row i's columns, per_row makes a value that may differ
    between rows a per-column buffer, and ghost_pairs gives the flat
    indices of every ghost cell and of the cell it copies.
    """

    def __init__(self, ns, zeros=_aligned_zeros):
        self.zeros = zeros  # zeros(shape, dtype) makes every buffer
        ns = np.asarray(ns, dtype=np.intp)
        widths = ns + 2
        self.offsets = np.cumsum(widths) - widths
        self.size = int(widths.sum())
        first, last = self.offsets + 1, self.offsets + ns  # cells' columns
        ends = list(zip(first.tolist(), last.tolist()))
        self.cells = [slice(a, b + 1) for a, b in ends]
        self.columns = [slice(a - 1, b + 2) for a, b in ends]
        self.cell_bounds = np.stack([first, last + 1], axis=1).ravel()
        self.face_bounds = np.stack([self.offsets, last + 1], axis=1).ravel()
        self._ghosts = np.concatenate([self.offsets, last + 1])
        self._edges = {True: np.concatenate([last, first]),  # periodic
                       False: np.concatenate([first, last])}

    def buffers(self, lead=()):
        buf = self.zeros((math.prod(lead) * self.size + 1,))
        shape = tuple(lead) + (self.size,)
        return buf, buf[:-1].reshape(shape), buf[1:].reshape(shape)

    def shifted(self, lead=()):
        # a zeroed buffer on a line, less its first 7 cells: buf[1:] is on
        # the line
        buf = self.zeros((math.prod(lead) * self.size + 8,))[7:]
        shape = tuple(lead) + (self.size,)
        return buf[:-1].reshape(shape), buf[1:].reshape(shape)

    def ghost_pairs(self, copies, periodic):
        """Flat indices (ghosts, edges) into a buffer of copies copies: every
        ghost cell, and the cell it copies (the far edge of its row when
        periodic, the near edge otherwise), so buf[ghosts] = buf[edges]
        fills them all in one assignment.

        The batched steps write junk into the ghost columns as they update
        every column, so the march (scalar._march_rows) runs that
        assignment before each step: a ghost then holds the bits of the
        cell it copies, and anything computed cellwise from it (g(v), w/v,
        u/(1+v)) is bitwise that cell's value.
        """
        shift = (np.arange(copies) * self.size)[:, None]
        return ((self._ghosts + shift).ravel(),
                (self._edges[periodic] + shift).ravel())

    def column(self):
        """A (size,) buffer for per_row, and the row values it holds."""
        return self.zeros((self.size,)), [None] * len(self.cells)

    def per_row(self, values, column):
        """values[0] when every row shares it; otherwise the buffer of
        column (from self.column()) with values[i] in every column of row
        i, where only the rows whose value changed, to the bit, are
        rewritten."""
        if values.count(values[0]) == len(values):
            return values[0]
        out, held = column
        for i, (new, old) in enumerate(zip(values, held)):
            if old is None or new != old or (
                    math.copysign(1.0, new) != math.copysign(1.0, old)):
                out[self.columns[i]] = new
                held[i] = new
        return out

    def ranges(self, a):
        """Each row's (min, max) over its cells in every copy of a, as two
        lists."""
        lo = np.minimum.reduceat(a, self.cell_bounds, axis=-1)[..., ::2]
        hi = np.maximum.reduceat(a, self.cell_bounds, axis=-1)[..., ::2]
        if a.ndim > 1:
            lo = np.minimum.reduce(lo, axis=0)
            hi = np.maximum.reduce(hi, axis=0)
        return lo.tolist(), hi.tolist()


class VectorState:
    """Vector state (u_1, ..., u_k): at least min_components finite cell
    fields on one shared grid and boundary mode."""

    min_components = 1

    def __init__(self, components):
        components = list(components)
        if len(components) < self.min_components:
            raise InvalidArgument(
                f"need at least {self.min_components} component(s)")
        grid = components[0].grid
        boundary = components[0].boundary
        for comp in components:
            if comp.grid != grid:
                raise InvalidArgument("components live on different grids")
            if comp.boundary != boundary:
                raise InvalidArgument("components disagree on boundary mode")
            if not np.all(np.isfinite(comp.values)):
                raise InvalidArgument("components must be finite")
        self.components = components
        self.grid = grid
        self.boundary = boundary

    @property
    def k(self):
        return len(self.components)

    def copy(self):
        return type(self)([c.copy() for c in self.components])


def project(fn, grid, boundary="constant-extension"):
    """Sample fn at cell midpoints."""
    return CellField(grid, np.asarray(fn(grid.centers()), dtype=float), boundary)


class FluxFunction:
    """Scalar flux g with derivative, convexity class, and a speed bound.

    convexity is one of 'convex', 'concave', 'none'; c is the uniform
    convexity (or concavity) constant, 0 when unknown. L_of_range defaults to
    sampling |g'| on a 1025-point grid of the requested interval.

    g_into, when given, is g's buffer form: g_into(v, out) writes g(v) into
    out, a float array of v's shape that is not v itself, with g's
    operations in g's order, so out holds the bits of g(v). The Godunov
    step loop then evaluates g into one buffer made per march instead of
    allocating new arrays on every step; without it, it calls g and copies
    the result into that buffer. The built-in fluxes have it:
    chromatography_flux, burgers_flux, and kk.kk_flux for a direction
    speed with a buffer form (kk.affine_speed).
    """

    def __init__(self, g, gprime, convexity="none", c=0.0, L_of_range=None,
                 name="flux", admissible_min=None, g_into=None):
        if convexity not in ("convex", "concave", "none"):
            raise InvalidArgument(f"unknown convexity {convexity!r}")
        self.g = g
        self.g_into = g_into
        self.gprime = gprime
        self.convexity = convexity
        self.c = float(c)
        if not (math.isfinite(self.c) and self.c >= 0.0):
            raise InvalidArgument(
                f"convexity constant c must be finite and >= 0, got {c!r}")
        self.name = name
        self.admissible_min = admissible_min
        self._L = L_of_range

    def L_of_range(self, lo, hi):
        if lo > hi:
            lo, hi = hi, lo
        if self._L is not None:
            return self._L(lo, hi)
        if hi == lo:
            return abs(float(self.gprime(lo)))
        z = np.linspace(lo, hi, 1025)
        return float(np.max(np.abs(self.gprime(z))))

    def check_admissible(self, values):
        if self.admissible_min is not None and np.min(values) < self.admissible_min:
            raise InvalidArgument(
                f"flux {self.name} requires values >= {self.admissible_min}")

    def __repr__(self):
        return f"FluxFunction({self.name}, {self.convexity}, c={self.c})"


def _inverse_square(s):
    """1/s^2 with float64 semantics: 0.0 where s^2 overflows, which a
    Python float reports as OverflowError and an array as inf."""
    try:
        return 1.0 / s ** 2
    except OverflowError:
        return 0.0


def _chromatography_g_into(v, out):
    np.add(v, 1.0, out=out)  # 1.0 + v: IEEE addition commutes
    np.divide(v, out, out=out)


def chromatography_flux():
    """g(v) = v/(1+v): increasing, uniformly concave on bounded v >= 0."""
    return FluxFunction(
        g=lambda v: v / (1.0 + v),
        g_into=_chromatography_g_into,
        gprime=lambda v: _inverse_square(1.0 + v),
        convexity="concave",
        c=0.0,  # range-dependent: |g''| = 2/(1+v)^3
        L_of_range=lambda lo, hi: _inverse_square(1.0 + max(lo, 0.0)),
        name="v/(1+v)",
        admissible_min=0.0,
    )


def burgers_flux():
    """g(rho) = rho^2, uniformly convex with g'' = 2."""
    return FluxFunction(
        g=lambda r: r * r,
        g_into=lambda r, out: np.multiply(r, r, out=out),
        gprime=lambda r: 2.0 * r,
        convexity="convex",
        c=2.0,
        name="rho^2",
    )


# Two times within _TIME_MATCH * max(1, |t|) are one record time: a record
# is looked up, and a fixed-dt record time or t_end is matched to a step,
# within it.
_TIME_MATCH = 1e-13


def _same_time(a, t):
    return a == t or abs(a - t) <= _TIME_MATCH * max(1.0, abs(t))


def _record_index(times, t):
    """Index of the record time that matches t (_same_time)."""
    for j, tj in enumerate(times):
        if _same_time(tj, t):
            return j
    raise InvalidArgument(f"t={t} is not a record time")


class Trajectory:
    """Recorded states of a time-dependent cell field.

    times[0] is always the initial time; fields[j] is the CellField (the
    CellField2D of a mixing run, the VectorState of a SplitTrajectory) at
    times[j]. meta carries solver bookkeeping (dt schedule, record steps,
    speed bound) read by the diagnostics.
    """

    def __init__(self, times, fields, meta=None):
        if len(times) != len(fields):
            raise InvalidArgument("times and fields length mismatch")
        self.times = list(map(float, times))
        self.fields = list(fields)
        self.meta = dict(meta or {})

    @property
    def grid(self):
        return self.fields[0].grid

    def at(self, t):
        return self.fields[_record_index(self.times, t)]

    def __len__(self):
        return len(self.times)


class SplitTrajectory(Trajectory):
    """Recorded states of a split system plus the runs they came from: a
    Trajectory whose fields are its states, the VectorState at each time.

    v_traj is the scalar run; w_trajs[i] is the continuity run locked to
    it. The scalar field is kept as solved, not recomputed from the
    states, so the gap between the two stays measurable.
    """

    def __init__(self, times, states, v_traj, w_trajs, meta):
        super().__init__(times, states, meta)
        self.v_traj = v_traj
        self.w_trajs = list(w_trajs)

    @property
    def states(self):
        return self.fields


def _window_slice(grid, window):
    """Indices of cells whose centers lie in the closed window."""
    if window is None:
        return np.arange(grid.n)
    lo, hi = window
    if lo > hi:
        raise InvalidArgument("window lo > hi")
    x = grid.centers()
    return np.nonzero((x >= lo) & (x <= hi))[0]


def _exact_sum(values):
    """math.fsum of the list values (an array is read flat), or NaN where
    fsum raises: on an intermediate sum past the float range, or on
    inf + -inf. A diagnostic past the float range is reported, not raised."""
    if isinstance(values, np.ndarray):
        values = values.ravel().tolist()
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.nan


_CERTIFIED_BLOCK = 1 << 14  # values per whole-number check


def _certified_sum(values):
    """_exact_sum of the nonempty float array values, bit for bit, summed
    by np.sum where that is provably exact.

    When every value is a whole number and max|x| * size < 2^53, every
    partial sum, in any order, is a whole number below 2^53 in magnitude,
    so it is exact and np.sum returns the exact sum, as fsum does. Any
    other array goes to _exact_sum, and so does a zero total, whose sign
    fsum sets. The whole-number check copies one block at a time.
    """
    flat = values.reshape(-1)
    top = max(-float(flat.min()), float(flat.max()))  # NaN if any is NaN
    if top * flat.size < 2.0 ** 53 and all(
            (np.floor(block) == block).all()
            for block in (flat[i:i + _CERTIFIED_BLOCK]
                          for i in range(0, flat.size, _CERTIFIED_BLOCK))):
        total = float(np.sum(flat))
        if total != 0.0:
            return total
    return _exact_sum(flat)


def total_variation(field, window=None):
    """Sum of |v_{i+1} - v_i| over the window; over the whole grid a
    periodic field also counts the seam |v_0 - v_{n-1}|."""
    idx = _window_slice(field.grid, window)
    if len(idx) < 2:
        return 0.0
    if window is None and field.boundary == "periodic":
        v = field.extended(1)[1:]
    else:
        v = field.values[idx[0]:idx[-1] + 1]
    return _exact_sum(np.abs(np.diff(v)))


def mass(field, window=None):
    idx = _window_slice(field.grid, window)
    return field.grid.dx * _exact_sum(field.values[idx])


def lp_distance(a, b, p=1, window=None):
    if a.grid != b.grid:
        raise InvalidArgument("fields on different grids")
    idx = _window_slice(a.grid, window)
    diff = np.abs(a.values[idx] - b.values[idx])
    if p == 1:
        return a.grid.dx * _exact_sum(diff)
    if p in (np.inf, "inf", math.inf):
        return float(diff.max()) if len(diff) else 0.0
    raise InvalidArgument("p must be 1 or inf")


def weak_pairing(field, test_fn, window=None):
    """Midpoint quadrature of v * phi over the window."""
    idx = _window_slice(field.grid, window)
    x = field.grid.centers()[idx]
    phi = np.asarray(test_fn(x), dtype=float)
    return field.grid.dx * _exact_sum(field.values[idx] * phi)


def _worst_residual(residuals):
    """The largest residual, at least 0.0, or NaN as soon as one is NaN:
    max() would drop a NaN and report a perfect residual."""
    worst = 0.0
    for r in residuals:
        if math.isnan(r):
            return math.nan
        worst = max(worst, r)
    return worst


class SpaceTimeTest:
    """C^1 tensor-product test function phi(t, x) = ft(t) * fx(x), given by
    its factors and their derivatives, so a quadrature can evaluate the
    space factors once and the time factors once, each on an array of all
    the points it needs."""

    def __init__(self, ft, dft, fx, dfx, t_support, x_support):
        self.ft, self.dft = ft, dft
        self.fx, self.dfx = fx, dfx
        self.t_support = (float(t_support[0]), float(t_support[1]))
        self.x_support = (float(x_support[0]), float(x_support[1]))


def _cos_bump(a, b):
    """Nonnegative C^1 bump on (a, b): 0.5*(1 - cos(2 pi s)), s=(x-a)/(b-a)."""
    width = b - a

    def s_inside(x):
        """s, set to 0 outside (0, 1), and the mask of 0 < s < 1. Far from
        a narrow support s passes the float range; it lies outside like
        any s >= 1, and 2 pi s is only taken of s in [0, 1)."""
        with np.errstate(over="ignore"):
            s = (np.asarray(x, dtype=float) - a) / width
        inside = (s > 0) & (s < 1)
        return np.where(inside, s, 0.0), inside

    def f(x):
        s, inside = s_inside(x)
        return np.where(inside, 0.5 * (1.0 - np.cos(2.0 * np.pi * s)), 0.0)

    def df(x):
        s, inside = s_inside(x)
        return np.where(inside, (np.pi / width) * np.sin(2.0 * np.pi * s),
                        0.0)

    return f, df


def bump_test(t0, t1, x0, x1):
    """Tensor-product bump supported in (t0,t1) x (x0,x1), nonnegative."""
    (t0, t1), (x0, x1) = _interval(t0, t1, "time"), _interval(x0, x1, "space")
    ft, dft = _cos_bump(t0, t1)
    fx, dfx = _cos_bump(x0, x1)
    return SpaceTimeTest(ft, dft, fx, dfx, t_support=(t0, t1),
                         x_support=(x0, x1))
