"""Grids, cell fields, flux descriptions, and the small measurement toolbox
shared by every solver: total variation, mass, Lp distances, weak pairings.

All quantities live on uniform 1D cell-centered grids. Accumulations that
feed tolerance checks go through math.fsum so that the documented 1e-12
bounds hold independent of summation order.
"""
import math
import sys

import numpy as np

from .errors import InvalidArgument

BOUNDARY_MODES = ("periodic", "constant-extension")


class Grid1D:
    """Uniform cell grid on [x_min, x_max] with n cells."""

    def __init__(self, x_min, x_max, n):
        if not math.isfinite(float(x_max) - float(x_min)):
            raise InvalidArgument("grid bounds and length must be finite")
        if not (x_max > x_min):
            raise InvalidArgument("need x_max > x_min")
        if n < 2:
            raise InvalidArgument("need at least 2 cells")
        self.x_min = float(x_min)
        self.x_max = float(x_max)
        self.n = int(n)
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


def _fill_ghosts(ext, values, periodic):
    """Write values into ext[..., 1:-1] and one ghost cell on each side.

    values is (n,) or (k, n) and ext the matching (..., n + 2) buffer.
    """
    ext[..., 1:-1] = values
    ghosts, edges = _ghost_cells(ext, periodic)
    ghosts[...] = edges


def _ghost_cells(ext, periodic):
    """Views (ghosts, edges) of the (..., n + 2) buffer ext: its two ghost
    cells, and the two cells of ext[..., 1:-1] they copy (the far edge
    when periodic, the near edge otherwise), so ghosts[...] = edges fills
    them in one assignment."""
    n = ext.shape[-1] - 2
    ghosts = ext[..., ::n + 1]
    edges = ext[..., n:0:1 - n] if periodic else ext[..., 1:n + 1:n - 1]
    return ghosts, edges


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
    """

    def __init__(self, g, gprime, convexity="none", c=0.0, L_of_range=None,
                 name="flux", admissible_min=None):
        if convexity not in ("convex", "concave", "none"):
            raise InvalidArgument(f"unknown convexity {convexity!r}")
        self.g = g
        self.gprime = gprime
        self.convexity = convexity
        self.c = float(c)
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


def chromatography_flux():
    """g(v) = v/(1+v): increasing, uniformly concave on bounded v >= 0."""
    return FluxFunction(
        g=lambda v: v / (1.0 + v),
        gprime=lambda v: _inverse_square(1.0 + v),
        convexity="concave",
        c=0.0,  # range-dependent; use chromatography_c(v_max)
        L_of_range=lambda lo, hi: _inverse_square(1.0 + max(lo, 0.0)),
        name="v/(1+v)",
        admissible_min=0.0,
    )


def burgers_flux():
    """g(rho) = rho^2, uniformly convex with g'' = 2."""
    return FluxFunction(
        g=lambda r: r * r,
        gprime=lambda r: 2.0 * r,
        convexity="convex",
        c=2.0,
        name="rho^2",
    )


# chromatography concavity constant depends on the value range; |g''| = 2/(1+v)^3
def chromatography_c(v_max):
    return 2.0 / (1.0 + v_max) ** 3


def _record_index(times, t):
    """Index of the record time that matches t up to 1e-13 relative."""
    for j, tj in enumerate(times):
        if tj == t or abs(tj - t) <= 1e-13 * max(1.0, abs(t)):
            return j
    raise InvalidArgument(f"t={t} is not a record time")


class Trajectory:
    """Recorded states of a time-dependent cell field.

    times[0] is always the initial time; fields[j] is the CellField (or
    the CellField2D of a mixing run) at times[j]. meta carries solver
    bookkeeping (dt schedule, recorded fluxes, speed bound) consumed by the
    transport stage and the diagnostics.
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

    def values_matrix(self):
        return np.stack([f.values for f in self.fields])

    def __len__(self):
        return len(self.times)


class SplitTrajectory:
    """Recorded states of a split system plus the runs they came from.

    v_traj is the scalar run; w_trajs[i] is the continuity run locked to
    it. states[j] is the VectorState at times[j]. The scalar field is kept
    as solved, not recomputed from the states, so the gap between the two
    stays measurable.
    """

    def __init__(self, times, states, v_traj, w_trajs, meta):
        self.times = list(map(float, times))
        self.states = list(states)
        self.v_traj = v_traj
        self.w_trajs = list(w_trajs)
        self.meta = dict(meta)

    @property
    def grid(self):
        return self.states[0].grid

    def at(self, t):
        return self.states[_record_index(self.times, t)]

    def component_trajectory(self, i):
        fields = [s.components[i] for s in self.states]
        return Trajectory(self.times, fields, {"component": i})

    def __len__(self):
        return len(self.times)


def _window_slice(grid, window):
    """Indices of cells whose centers lie in the closed window."""
    if window is None:
        return np.arange(grid.n)
    lo, hi = window
    if lo > hi:
        raise InvalidArgument("window lo > hi")
    x = grid.centers()
    return np.nonzero((x >= lo) & (x <= hi))[0]


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
    return math.fsum(np.abs(np.diff(v)).tolist())


def mass(field, window=None):
    idx = _window_slice(field.grid, window)
    return field.grid.dx * math.fsum(field.values[idx].tolist())


def lp_distance(a, b, p=1, window=None):
    if a.grid != b.grid:
        raise InvalidArgument("fields on different grids")
    idx = _window_slice(a.grid, window)
    diff = np.abs(a.values[idx] - b.values[idx])
    if p == 1:
        return a.grid.dx * math.fsum(diff.tolist())
    if p in (np.inf, "inf", math.inf):
        return float(diff.max()) if len(diff) else 0.0
    raise InvalidArgument("p must be 1 or inf")


def weak_pairing(field, test_fn, window=None):
    """Midpoint quadrature of v * phi over the window."""
    idx = _window_slice(field.grid, window)
    x = field.grid.centers()[idx]
    phi = np.asarray(test_fn(x), dtype=float)
    return field.grid.dx * math.fsum((field.values[idx] * phi).tolist())


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
    space factors once and the time factors once per record."""

    def __init__(self, ft, dft, fx, dfx, t_support, x_support):
        self.ft, self.dft = ft, dft
        self.fx, self.dfx = fx, dfx
        self.t_support = (float(t_support[0]), float(t_support[1]))
        self.x_support = (float(x_support[0]), float(x_support[1]))

    def fn(self, t, x):
        return self.ft(t) * self.fx(x)

    def dt(self, t, x):
        return self.dft(t) * self.fx(x)

    def dx(self, t, x):
        return self.ft(t) * self.dfx(x)


def _cos_bump(a, b):
    """Nonnegative C^1 bump on (a, b): 0.5*(1 - cos(2 pi s)), s=(x-a)/(b-a)."""
    width = b - a

    def f(x):
        s = (np.asarray(x, dtype=float) - a) / width
        inside = (s > 0) & (s < 1)
        out = np.where(inside, 0.5 * (1.0 - np.cos(2.0 * np.pi * s)), 0.0)
        return out

    def df(x):
        s = (np.asarray(x, dtype=float) - a) / width
        inside = (s > 0) & (s < 1)
        out = np.where(inside,
                       (np.pi / width) * np.sin(2.0 * np.pi * s), 0.0)
        return out

    return f, df


def bump_test(t0, t1, x0, x1):
    """Tensor-product bump supported in (t0,t1) x (x0,x1), nonnegative."""
    ft, dft = _cos_bump(t0, t1)
    fx, dfx = _cos_bump(x0, x1)
    return SpaceTimeTest(ft, dft, fx, dfx, t_support=(t0, t1),
                         x_support=(x0, x1))
