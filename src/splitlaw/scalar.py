"""Godunov solver and theorem-checkers for the scalar law v_t + g(v)_x = 0.

The solver is first-order explicit Godunov with exact Riemann interface
fluxes. Alongside it live the measurement functions the test suite uses:
exact Riemann fans (the convergence oracle), one-sided slope excess,
entropy residuals against space-time test functions, and the localized
comparison defect.
"""
import functools
import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import (CellField, Trajectory, _aligned_zeros, _Arena,
                   _exact_sum, _FlatRows, _same_time, _window_slice,
                   _worst_residual, total_variation)
from .errors import (HypothesisViolation, InvalidArgument, NumericalBlowup,
                     SplitlawError, UnsupportedFlux)

_BISECT_TOL = 1e-12


def _bisect(fn, lo, hi, tol=_BISECT_TOL):
    flo = fn(lo)
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if (fn(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def critical_point(flux, lo, hi):
    """Location of g' = 0 in [lo, hi], or +-inf when g' has one sign there.

    For convex g the point is the minimum, for concave the maximum. The
    sign convention of the return value is chosen so the Godunov selection
    formulas clamp correctly in both cases.
    """
    if lo > hi:
        lo, hi = hi, lo
    dlo = float(flux.gprime(lo))
    dhi = float(flux.gprime(hi))
    if flux.convexity == "convex":
        if dlo >= 0.0:
            return -math.inf
        if dhi <= 0.0:
            return math.inf
    elif flux.convexity == "concave":
        if dlo <= 0.0:
            return -math.inf
        if dhi >= 0.0:
            return math.inf
    else:
        raise UnsupportedFlux("need convex or concave flux")
    return _bisect(lambda z: float(flux.gprime(z)), lo, hi, tol=1e-14)


class _Selection:
    """The Godunov interface flux, written into buffers of one shape.

    For left and right states a and b with g values ga and gb, the flux is
    the min of g over [a, b] when a <= b and the max over [b, a] otherwise.
    For convex g the min sits at the critical point omega clamped to
    [a, b] and the max at an endpoint; for concave g it is the reverse.
    g_omega is g(omega). Each row of a batch may have its own omega and
    g_omega, passed as per-column buffers of the operands' shape; a float
    omega holds for every interface. A float omega of +-inf (g monotone
    the same way on every row's range) skips the clamp: every interface
    then takes the same endpoint. The result is bitwise the nested
    np.where selection.
    """

    def __init__(self, shape, convex, zeros=_aligned_zeros):
        self.convex = convex
        self.G = zeros(shape)
        self.other = zeros(shape)
        self.take = zeros(shape, dtype=bool)
        self.hit = zeros(shape, dtype=bool)

    def __call__(self, a, b, ga, gb, omega, g_omega):
        G, other, take, hit = self.G, self.other, self.take, self.hit
        if isinstance(omega, float) and math.isinf(omega):
            # a where g increases (convex with omega = -inf, concave with
            # omega = +inf), b where it decreases
            other = ga if (omega < 0.0) == self.convex else gb
        else:
            other[...] = g_omega
            if self.convex:
                np.greater_equal(omega, b, out=hit)
                np.copyto(other, gb, where=hit)
                np.less_equal(omega, a, out=hit)
            else:
                np.less_equal(omega, b, out=hit)
                np.copyto(other, gb, where=hit)
                np.greater_equal(omega, a, out=hit)
            np.copyto(other, ga, where=hit)
        # the mask marks the shocks (convex) or fans (concave), a > b, which
        # a constant run of cells never is: a masked write skips its long
        # false runs. The max/min stays, as g need not be monotone to the
        # last bit between adjacent floats
        np.greater(a, b, out=take)  # the states are finite
        if self.convex:
            np.copyto(G, other)
            np.maximum(ga, gb, out=G, where=take)
        else:
            np.minimum(ga, gb, out=G)
            np.copyto(G, other, where=take)
        return G


class RiemannFan:
    """Exact self-similar entropy solution of a two-state problem between
    finite, admissible states."""

    def __init__(self, flux, v_l, v_r):
        if flux.convexity not in ("convex", "concave"):
            raise UnsupportedFlux(
                "Riemann fan needs strictly monotone g' between the states")
        v_l, v_r = float(v_l), float(v_r)
        if not (math.isfinite(v_l) and math.isfinite(v_r)):
            raise InvalidArgument(
                f"Riemann states must be finite, got ({v_l}, {v_r})")
        flux.check_admissible(np.array([v_l, v_r]))
        self.flux = flux
        self.v_l = v_l
        self.v_r = v_r
        if v_l == v_r:
            self.kind = "constant"
            self.speed = float(flux.gprime(v_l))
        else:
            compressive = (v_l > v_r) if flux.convexity == "convex" else (v_l < v_r)
            if compressive:
                self.kind = "shock"
                self.speed = (float(flux.g(v_r)) - float(flux.g(v_l))) / (v_r - v_l)
            else:
                self.kind = "rarefaction"
                dl = float(flux.gprime(v_l))
                dr = float(flux.gprime(v_r))
                self.edge_speeds = (min(dl, dr), max(dl, dr))

    def eval(self, xi):
        """Solution value at x/t = xi (vectorized)."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        if self.kind == "constant":
            out = np.full_like(xi, self.v_l)
        elif self.kind == "shock":
            out = np.where(xi < self.speed, self.v_l, self.v_r)
        else:
            xi1, xi2 = self.edge_speeds
            out = np.where(xi <= xi1, self.v_l, self.v_r)
            mid = (xi > xi1) & (xi < xi2)
            if np.any(mid):
                out[mid] = self._invert_gprime(xi[mid])
        return out if out.shape != (1,) else float(out[0])

    def _invert_gprime(self, xi):
        # vectorized bisection for g'(v) = xi; g' strictly monotone between states
        lo = np.full_like(xi, min(self.v_l, self.v_r))
        hi = np.full_like(xi, max(self.v_l, self.v_r))
        increasing = self.flux.convexity == "convex"
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            gm = np.asarray(self.flux.gprime(mid), dtype=float)
            if increasing:
                take_lo = gm < xi
            else:
                take_lo = gm > xi
            lo = np.where(take_lo, mid, lo)
            hi = np.where(take_lo, hi, mid)
            if np.max(hi - lo) <= _BISECT_TOL:
                break
        return 0.5 * (lo + hi)


@dataclass
class ScalarConfig:
    t_end: float
    cfl: float = 0.45
    record_times: list = field(default_factory=list)
    fixed_dt: float = None

    def __post_init__(self):
        # a subnormal cfl or fixed_dt makes a step that cannot advance t
        if not (sys.float_info.min <= self.cfl < 1.0):
            raise InvalidArgument(
                "cfl must lie in (0, 1) and be a normal float")
        if not (0.0 < self.t_end < math.inf):
            raise InvalidArgument("t_end must be positive and finite")
        if self.fixed_dt is not None and not (
                sys.float_info.min <= self.fixed_dt < math.inf):
            raise InvalidArgument(
                "fixed_dt must be finite and a positive normal float")
        for t in self.record_times:
            if not (0.0 <= t <= self.t_end):
                raise InvalidArgument("record times must lie in [0, t_end]")


def _dt_from_speed(L, dx, cfl):
    """The CFL step cfl*dx/L; a zero speed bound gives cfl*dx."""
    if L == 0.0:
        return cfl * dx
    return cfl * dx / L


def _record_plan(config):
    """Sorted strictly-positive stop times, always ending at t_end."""
    stops = sorted({float(t) for t in config.record_times if t > 0.0})
    if not stops or stops[-1] != config.t_end:
        stops.append(config.t_end)
    return stops


def _fixed_step_plan(config, stops):
    """Step count and the steps that end on a stop, for fixed dt.

    Both t_end and every stop must be whole multiples of fixed_dt, within
    the tolerance core._record_index matches record times with, so every
    accepted stop can be looked up; and no two stops (nor a stop and
    t = 0) may round to the same step.
    """
    dt = config.fixed_dt
    quotient = config.t_end / dt
    if not math.isfinite(quotient):
        raise InvalidArgument(
            f"t_end / fixed_dt = {config.t_end!r} / {dt!r} overflows")
    n_steps = round(quotient)
    if not _same_time(n_steps * dt, config.t_end):
        raise InvalidArgument("t_end is not a multiple of fixed_dt")
    stop_steps = {0: 0.0}  # step -> the record time that ends on it
    for s in stops:
        js = round(s / dt)
        if not _same_time(js * dt, s):
            raise InvalidArgument("record time not aligned with fixed_dt")
        if js in stop_steps:
            raise InvalidArgument(
                f"record times {stop_steps[js]!r} and {s!r} both round to "
                f"step {js} of fixed_dt = {dt!r}")
        stop_steps[js] = s
    return n_steps, stop_steps


def _time_steps(config, dx, speed):
    """The time plan of an explicit solver: yields (step, dt, t_next, lands).

    speed() returns the solver's current speed bound L and is called
    before each step. With fixed_dt the plan is fixed_dt up to t_end, and
    a step with dt*L/dx > 1 breaks the CFL hypothesis and raises
    HypothesisViolation. Otherwise dt is the CFL step for L, shortened to
    land exactly on each record stop, and a NaN L raises
    HypothesisViolation. lands marks the steps that end on a stop.
    """
    stops = _record_plan(config)
    if config.fixed_dt is not None:
        dt = config.fixed_dt
        n_steps, stop_steps = _fixed_step_plan(config, stops)
        for step in range(n_steps):
            ratio = dt * speed() / dx
            if not ratio <= 1.0:  # a NaN speed bound breaks it too
                raise HypothesisViolation(
                    f"fixed_dt breaks the CFL condition at step {step}, "
                    f"t={step * dt!r}: dt*L/dx = {ratio!r} > 1")
            yield step, dt, (step + 1) * dt, (step + 1) in stop_steps
        return
    t = 0.0
    step = 0
    for next_stop in stops:
        land_from = next_stop - 1e-14 * max(1.0, next_stop)
        lands = False
        while not lands:
            dt = _dt_from_speed(speed(), dx, config.cfl)
            lands = t + dt >= land_from
            if lands:
                dt = next_stop - t
                t = next_stop
            elif not t + dt > t:  # dt too small to count, or NaN
                if math.isnan(dt):  # L is NaN
                    raise HypothesisViolation(
                        f"no CFL step at step {step}, t={t!r}: L = nan")
                raise InvalidArgument(
                    f"the CFL step dt={dt!r} no longer advances t={t!r} "
                    f"at step {step}")
            else:
                t += dt
            yield step, dt, t, lands
            step += 1


def _in_row(exc, r, batch):
    """exc, with its message naming row r when the batch has B > 1 runs."""
    if batch > 1:
        exc.message = f"row {r}: {exc.message}"
        exc.args = (f"{exc.ident}: {exc.message}",)
    return exc


def _each_row(items, check):
    """[check(item) for item in items], the items being the runs (or the
    per-run values) of a batch: an error from items[r] names row r when
    there are B > 1 items, and an empty batch raises InvalidArgument."""
    if not items:
        raise InvalidArgument("a batch needs at least one run")
    out = []
    try:
        for item in items:
            out.append(check(item))
    except SplitlawError as exc:  # from the item after those done
        raise _in_row(exc, len(out), len(items)) from None
    return out


def _march_rows(config, starts, runs, speed, build, what):
    """The one step loop of the explicit schemes (the Godunov march below,
    the Lax-Friedrichs oracle chroma.solve_direct_many), and the one keeper
    of their records: B runs, on grids of any size, stepped together as
    arrays.

    Run r starts from the field or state starts[r], on its grid, and the
    runs share its boundary mode (InvalidArgument otherwise). runs[r]
    holds its initial arrays, one per name in what, cells first: each
    (n_r,) or (h, n_r), with h the same for every run. config is one
    ScalarConfig for every run or a sequence of one per run (another
    length raises InvalidArgument), and each run keeps its own time plan
    (_time_steps) under its config on the speed bound speed(r, ranges),
    where ranges[r] is the range (min, max) of its cells before the step.

    The runs' rows lie in the layout of core._FlatRows, so every row (a v,
    a w row, an LxF component) carries its two ghost cells and every
    shifted operand is a contiguous view at a one-element offset. For the
    runs in the rows the loop keeps, it lays out one step buffer per array,
    copies each run's cells in, and calls build(layout, buffers,
    dt_schedules), where buffers holds the (buf, rows, ahead) triple of
    each array and dt_schedules[r] the dt of each step run r has taken;
    build returns advance(plan), which steps every row once, where plan
    lists (r, step, dt, t_next, lands) for the run r in each row. A step
    updates every column, so before each one the loop refills the ghost
    cells of every array (core._FlatRows.ghost_pairs). The layout is
    built before the first step and again whenever a run's plan has ended,
    so that run leaves the arrays for good. build takes every scratch
    buffer from the layout (layout.buffers, layout.shifted, layout.column,
    layout.zeros), so each layout reuses the memory of the one before
    (core._Arena). After each step the range of every row of the first
    array is reduced once: it is both the blow-up check (a non-finite cell
    raises NumericalBlowup, naming what[0]) and the input of the next
    speed bound.

    Each run's records live in one block per array, allocated before the
    first step: (T,) + the shape of that initial array, with T = 1 +
    len(_record_plan(config)) the run's exact record count. Record 0 is
    the initial data, and each step that lands on a record time writes the
    next, where a non-finite value in any array after the first raises
    NumericalBlowup. An error from one run of a batch names the run.
    Returns (times, meta, blocks) per run: the record times, the meta
    (dt_schedule, the dt of every step; record_steps, the step count at
    each later record; speed_bound, the largest one used), and the tuple
    of blocks, one per array.
    """
    batch = len(runs)
    configs = [config] * batch if isinstance(config, ScalarConfig) else config
    if len(configs) != batch:
        raise InvalidArgument(
            f"{len(configs)} configs for a batch of {batch} runs")
    boundary = starts[0].boundary
    if any(start.boundary != boundary for start in starts):
        raise InvalidArgument("batch runs disagree on boundary mode")
    periodic = boundary == "periodic"
    speed_bound = [0.0] * batch
    dt_schedules = [[] for _ in runs]

    def bound(r):
        L = speed(r, ranges)
        speed_bound[r] = max(speed_bound[r], L)
        return L

    # run r's plan yields (r, step, dt, t_next, lands), then None for good
    plans = [itertools.chain(
        map((r,).__add__, _time_steps(cfg, start.grid.dx,
                                      functools.partial(bound, r))),
        itertools.repeat(None))
        for r, (cfg, start) in enumerate(zip(configs, starts))]
    blocks = [tuple(np.empty((1 + len(_record_plan(cfg)),) + a.shape)
                    for a in run) for cfg, run in zip(configs, runs)]
    for block, run in zip(blocks, runs):
        for b, a in zip(block, run):
            b[0] = a
    cells = list(runs)  # each run's arrays, where they live now
    arena = _Arena()

    def lay_out(rows):
        """Step buffers for the runs rows, each holding its cells, and their
        ghost fills; every layout reuses the memory of the one before."""
        arena.reset()
        layout = _FlatRows([runs[r][0].shape[-1] for r in rows], arena.zeros)
        buffers = [layout.buffers(a.shape[:-1]) for a in runs[0]]
        for i, r in enumerate(rows):
            now = tuple(a[..., layout.cells[i]] for _, a, _ in buffers)
            for new, old in zip(now, cells[r]):
                new[...] = old
            cells[r] = now
        fills = [(buf, *layout.ghost_pairs(math.prod(a.shape[:-1]),
                                           periodic))
                 for (buf, _, _), a in zip(buffers, runs[0]) if a.size]
        return layout, buffers, fills, build(layout, buffers, dt_schedules)

    rows = list(range(batch))  # the run held in each row of the arrays
    layout, buffers, fills, advance = lay_out(rows)
    lo, hi = layout.ranges(buffers[0][1])
    ranges = list(zip(lo, hi))
    times = [[0.0] for _ in rows]
    record_steps = [[] for _ in rows]
    while True:
        plan = _each_row(plans, next)
        if None in plan:  # some plans have ended
            plan = [item for item in plan if item is not None]
            if not plan:
                return [(times[r], {"dt_schedule": dt_schedules[r],
                                    "record_steps": record_steps[r],
                                    "speed_bound": speed_bound[r]},
                         blocks[r]) for r in range(batch)]
            if len(plan) < len(rows):  # lay out again without them
                rows = [r for r, *_ in plan]
                for r in rows:  # out of the memory the new layout reuses
                    cells[r] = tuple(a.copy() for a in cells[r])
                layout, buffers, fills, advance = lay_out(rows)
        for buf, ghosts, edges in fills:
            buf[ghosts] = buf[edges]
        advance(plan)
        lo, hi = layout.ranges(buffers[0][1])
        for i, (r, step, dt, t, lands) in enumerate(plan):
            ranges[r] = (lo[i], hi[i])
            if not (math.isfinite(lo[i]) and math.isfinite(hi[i])):
                raise _in_row(NumericalBlowup(
                    step, f"non-finite {what[0]} at step {step}, t={t!r}"),
                    r, batch)
            dt_schedules[r].append(dt)
            if lands:
                j = len(times[r])
                times[r].append(t)
                for block, a in zip(blocks[r], cells[r]):
                    block[j] = a
                for name, block in zip(what[1:], blocks[r][1:]):
                    if not np.isfinite(block[j]).all():
                        raise _in_row(NumericalBlowup(
                            step, f"non-finite {name} by step {step}, "
                            f"t={t!r}"), r, batch)
                record_steps[r].append(step + 1)


def solve_scalar(flux, init, config):
    """March the Godunov scheme to t_end, recording the requested times.

    The returned Trajectory always includes t=0; meta carries the per-step
    dt schedule, the steps that landed on a record, and the largest speed
    bound used.

    The step constants (speed bound L, the critical point of g and g
    there) depend on the data only through its range (min v, max v), so
    they are recomputed only when that range changes to a new value; a
    range that returns to the value before takes that value's constants
    back. With fixed_dt, a step that breaks the CFL hypothesis
    dt*L/dx <= 1 raises HypothesisViolation.
    """
    return _march(flux, [init], config)[0][0]


def solve_scalar_many(flux, inits, config):
    """solve_scalar for B runs under one config or one per run, stepped as
    one march. The runs may lie on different grids and share the boundary
    mode. Each run keeps its own time plan and step constants and is
    bitwise its solve_scalar. Returns one trajectory per run."""
    return [v_traj for v_traj, _ in _march(flux, inits, config)]


def _march(flux, inits, config, b_of_v=None, w0s=None):
    """The Godunov scheme on the step loop of _march_rows: B runs of v, each
    alone or with a locked w stack.

    With b_of_v, each run r carries the w fields w0s[r] (the same number m
    for every run), and each rides w_t + (b(v) w)_x = 0 on the steps of
    its v. Every step computes alpha = v - mu*G_out and beta = mu*G_in
    once; each w row becomes lam*alpha + lam_left*beta, with lam = w/v
    (0/0 := 0) taken from the cell and its upwind neighbour, and v becomes
    alpha + beta. That is the association of _kernels.scalar_step and
    _kernels.upwind_step, so v is bitwise the scalar run. The update is a
    convex combination only while alpha >= 0 and G >= 0; a locked step
    that breaks either by more than roundoff raises InvalidArgument. A v
    that is not finite after a step, or a w that is not finite at a record
    (w/v overflows where v is tiny against |w|, and a NaN persists to the
    next record), raises NumericalBlowup.

    Each step writes g(v) into one buffer made per layout, through
    flux.g_into, the flux's buffer form, when it has one; otherwise it
    calls flux.g and copies the result in.

    The runs share the boundary mode and the flux, and may lie on different
    grids. Each row keeps its own mu = dt/dx and step constants (the
    critical point omega and g there): a constant the rows share is a
    float, and one that differs between rows is a per-column buffer,
    refilled only when some row's value changes. So each row is bitwise
    its own unbatched run. Returns one (v_traj, w_trajs) pair per
    run, with w_trajs empty without b_of_v.
    """
    batch = len(inits)
    locked = b_of_v is not None
    w0s = list(w0s) if locked else [()] * batch

    def admissible(init):
        flux.check_admissible(init.values)
        if not np.all(np.isfinite(init.values)):
            raise InvalidArgument("initial data must be finite")

    _each_row(inits, admissible)
    dxs = [init.grid.dx for init in inits]
    convex = flux.convexity == "convex"
    g_into = flux.g_into
    if g_into is None:  # a user g allocates its result; copy it in
        def g_into(v, out):
            out[...] = flux.g(v)
    if flux.convexity == "none":
        raise UnsupportedFlux("solver needs a convex or concave flux")
    if len(w0s) != batch or len({len(row) for row in w0s}) > 1:
        raise InvalidArgument("each run of a batch needs the same number "
                              "of w fields")
    m = len(w0s[0])

    def arrays(r):
        """Run r's initial v and (m, n) w stack."""
        init = inits[r]
        return init.values, (_w_stack(init, b_of_v, w0s[r]) if locked
                             else np.empty((0, init.grid.n)))

    runs = _each_row(range(batch), arrays)
    # each run's step constants and the range (min v, max v) they were
    # taken on: (range, speed bound L, critical point omega, g(omega),
    # roundoff allowance of a locked step), and those of the range before:
    # the update moves a constant state by an ulp and back, so a range
    # often alternates between two values
    consts = [(None,)] * batch
    before = [(None,)] * batch
    stale = True  # the step constants of some row changed

    def speed(r, ranges):
        nonlocal stale
        if ranges[r] != consts[r][0]:
            stale = True
            if ranges[r] == before[r][0] and all(  # to the bit
                    math.copysign(1.0, x) == math.copysign(1.0, y)
                    for x, y in zip(ranges[r], before[r][0])):
                consts[r], before[r] = before[r], consts[r]
                return consts[r][1]
            before[r] = consts[r]
            lo, hi = ranges[r]
            L = flux.L_of_range(lo, hi)
            omega = critical_point(flux, lo, hi)
            g_omega = float(flux.g(omega)) if math.isfinite(omega) else 0.0
            # max|v| from the range the speed bound is taken on
            tol = 1e-12 * max(1.0, abs(lo), abs(hi))
            consts[r] = (ranges[r], L, omega, g_omega, tol)
        return consts[r][1]

    def build(layout, buffers, dt_schedules):
        nonlocal stale
        (vbuf, ve, v_right), (_, We, _) = buffers
        shape = ve.shape
        # G[j] is the flux between columns j and j + 1 of v
        select = _Selection(shape, convex, layout.zeros)
        G = select.G
        # mu*G is written into mu_out, so beta is mu*G_in
        beta, mu_out = layout.shifted()
        # w/v is written into lam, so lam_left is the upwind ratio
        lam_left, lam = layout.shifted((m,))
        alpha = layout.zeros(shape)
        nonzero = layout.zeros(shape, dtype=bool)
        # g(v) over the flat rows
        gbuf = layout.zeros(vbuf.shape)
        ga, gb = gbuf[:-1], gbuf[1:]
        # per-column omega, g(omega) and mu, when the rows differ
        cols = [layout.column() for _ in range(3)]
        vbuf[-1] = ve[layout.cells[-1]][-1]  # the spare cell is in g's domain
        stale = True
        omega = g_omega = positive = mu = mus = None

        def advance(plan):
            nonlocal stale, omega, g_omega, positive, mu, mus
            if stale:
                omega = layout.per_row([consts[r][2] for r, *_ in plan],
                                       cols[0])
                g_omega = layout.per_row([consts[r][3] for r, *_ in plan],
                                         cols[1])
                # min v > 0 on every row (regime G): the ride's plain divide
                positive = locked and min(
                    [consts[r][0][0] for r, *_ in plan]) > 0.0
                stale = False
            if len(plan) == 1:
                mu = plan[0][2] / dxs[plan[0][0]]
            else:
                now = [dt / dxs[r] for r, _, dt, _, _ in plan]
                if now != mus:
                    mus, mu = now, layout.per_row(now, cols[2])
            g_into(vbuf, gbuf)
            select(ve, v_right, ga, gb, omega, g_omega)
            np.multiply(G, mu, out=mu_out)
            np.subtract(ve, mu_out, out=alpha)
            if locked:
                alpha_min = np.minimum.reduceat(
                    alpha, layout.cell_bounds)[::2].tolist()
                G_min = np.minimum.reduceat(
                    G, layout.face_bounds)[::2].tolist()
                for i, (r, step, *_) in enumerate(plan):
                    tol = consts[r][4]
                    if alpha_min[i] < -tol or G_min[i] < -tol:
                        start = layout.offsets[i]
                        raise _in_row(_oversized_step(
                            step, dt_schedules[r], alpha[layout.cells[i]],
                            G[start:layout.cells[i].stop], tol), r, batch)
                _ride(We, ve, alpha, beta, positive, nonzero, lam, lam_left)
            np.add(alpha, beta, out=ve)

        return advance

    trajs = []
    for init, (times, meta, (v_block, W_block)) in zip(inits, _march_rows(
            config, inits, runs, speed, build, ("v", "w"))):
        grid, boundary = init.grid, init.boundary
        trajs.append((
            Trajectory(times, [CellField(grid, row, boundary)
                               for row in v_block], meta),
            [Trajectory(times, [CellField(grid, row, boundary)
                                for row in W_block[:, j]])
             for j in range(m)]))
    return trajs


def _w_stack(v0, b_of_v, w0s):
    """The (m, n) stack of the w0s, after checking them against v0."""
    for w0 in w0s:
        if w0.grid != v0.grid:
            raise InvalidArgument("w0 grid differs from the scalar grid")
        if w0.boundary != v0.boundary:
            raise InvalidArgument("w0 boundary differs from the scalar run")
        if not np.all(np.isfinite(w0.values)):
            raise InvalidArgument("w0 must be finite")
    if np.any(np.asarray(b_of_v(v0.values), dtype=float) <= 0.0):
        raise InvalidArgument("transport velocity must be positive")
    return np.array([w0.values for w0 in w0s], dtype=float).reshape(
        len(w0s), v0.grid.n)


def _ride(W, v, alpha, beta, positive, nonzero, lam, lam_left):
    """Each row w of the (m, size) stack W -> lam_left*beta + lam*alpha, in
    place, with lam = w/v (0/0 := 0) and lam_left the upwind (left)
    neighbour's ratio.

    v, alpha and beta are (size,), in the layout of every row of W, and
    every row of v and W has its ghost cells filled, so the ratio at a
    ghost is bitwise the ratio of the cell it copies, and lam_left is
    lam's buffer one cell behind (core._FlatRows). The sum is
    lam*alpha + lam_left*beta of _kernels.upwind_step with its terms
    swapped, which IEEE addition leaves bitwise the same. With positive
    (min v > 0 on every row: regime G) the ratio is a plain divide;
    otherwise the caller's (size,) buffer nonzero masks v = 0.
    """
    if positive:
        np.divide(W, v, out=lam)
    else:
        np.not_equal(v, 0.0, out=nonzero)
        lam.fill(0.0)
        np.divide(W, v, out=lam, where=nonzero)
    np.multiply(lam_left, beta, out=W)
    lam *= alpha
    W += lam


def _oversized_step(step, dt_schedule, alpha, G, tol):
    """The error for a locked step that is not a convex combination: the
    step, its start time, and the worst cell or interface against -tol."""
    t = _exact_sum(dt_schedule[:step])
    i = int(np.argmin(alpha))
    if alpha[i] < -tol:
        what = f"v - mu*G = {alpha[i]:.6g} at cell {i}"
    else:
        i = int(np.argmin(G))
        what = f"G = {G[i]:.6g} at interface {i}"
    return InvalidArgument(
        f"split step too large for the transport stage in step {step}, "
        f"from t={t!r}: {what}, below the bound {-tol:.6g}; the speed bound "
        f"must cover b(v), as joint_speed_flux does")


def oleinik_excess(fieldv, t, c, orientation="convex"):
    """Positive part of the worst one-sided slope violation at time t, or
    NaN when a slope is NaN (core._worst_residual).

    Convex flux bounds forward slopes by 1/(c t); the concave case is the
    x-reflection of that.
    """
    if t <= 0.0:
        raise InvalidArgument("Oleinik bound needs t > 0")
    if c <= 0.0:
        raise InvalidArgument("need a positive convexity constant")
    if orientation not in ("convex", "concave"):
        raise InvalidArgument("orientation must be convex or concave")
    slopes = np.diff(fieldv.values) / fieldv.grid.dx
    bound = 1.0 / (c * t)
    if orientation == "concave":
        slopes = -slopes
    return _worst_residual([float(np.max(slopes - bound))])


def _check_test_fns(traj, test_fns):
    """Every test vanishes near t = 0 and before the last record; a NaN
    end of a support is refused too."""
    t_end = traj.times[-1]
    for tf in test_fns:
        if not tf.t_support[0] > 0.0:
            raise InvalidArgument("test function must vanish near t=0")
        if not tf.t_support[1] < t_end + 1e-12:
            raise InvalidArgument("test function must vanish before t_end")


_QUAD_BLOCK = 32  # records per block of a quadrature, so peak RSS stays flat


def _spacetime_quadrature(traj, cell_arrays_at, test_fns):
    """Trapezoid in t, midpoint in x of  A*phi_t + B*phi_x  over the records,
    one total per test function.

    cell_arrays_at(js) returns the pair (A, B) of (len(js), n) stacks on
    the grid at the records js; it is called with blocks of at most
    _QUAD_BLOCK consecutive records, in order. Each test's space factors
    are evaluated once, and its time factors once, at all record times.

    Each test is summed over its window only: the cells from the first to
    the last where fx or dfx is nonzero, at the records from the first to
    the last where ft or dft is nonzero, one exact sum per record, in the
    association A*(dft*fx) + B*(ft*dfx). Off the window the integrand is
    an exact +-0 on finite A and B, which the exact sum ignores, and a
    zero slab cannot reach a total that starts from +0.0. A record with a
    non-finite A or B, and a test with a non-finite factor, are summed
    whole: inf * 0 off the window is NaN. The tests must vanish near
    t = 0 and before the last record (_check_test_fns).
    """
    _check_test_fns(traj, test_fns)
    if not test_fns:
        return []
    grid = traj.grid

    def factors(name, at):
        """(tests, len(at)): each test's factor name at the points at."""
        return np.stack([np.broadcast_to(np.asarray(
            getattr(tf, name)(at), dtype=float), at.shape)
            for tf in test_fns])

    def window(f, df):
        """From the first to the last point where f or df is nonzero."""
        live = np.flatnonzero((f != 0.0) | (df != 0.0))
        return slice(live[0], live[-1] + 1) if len(live) else slice(0, 0)

    x = grid.centers()
    times = np.asarray(traj.times, dtype=float)
    fx, dfx = factors("fx", x), factors("dfx", x)
    ft, dft = factors("ft", times).T, factors("dft", times).T
    whole = (slice(0, len(x)), slice(0, len(times)))
    windows = [(window(fx[k], dfx[k]), window(ft[:, k], dft[:, k]))
               if all(np.isfinite(f).all()
                      for f in (fx[k], dfx[k], ft[:, k], dft[:, k]))
               else whole for k in range(len(test_fns))]
    slabs = []
    for start in range(0, len(times), _QUAD_BLOCK):
        js = range(start, min(start + _QUAD_BLOCK, len(times)))
        A, B = cell_arrays_at(js)
        slab = np.zeros((len(js), len(test_fns)))
        for k, (cols, recs) in enumerate(windows):
            lo, hi = max(recs.start, start), min(recs.stop, js.stop)
            if lo < hi:
                rows = slice(lo - start, hi - start)
                part = (A[rows, cols] * (dft[lo:hi, k, None] * fx[k, cols])
                        + B[rows, cols] * (ft[lo:hi, k, None] * dfx[k, cols]))
                slab[rows, k] = [_exact_sum(r) for r in part.tolist()]
        for i in np.flatnonzero(~(np.isfinite(A).all(axis=1)
                                  & np.isfinite(B).all(axis=1))):
            part = (A[i] * (dft[start + i, :, None] * fx)
                    + B[i] * (ft[start + i, :, None] * dfx))
            slab[i] = [_exact_sum(r) for r in part.tolist()]
        slabs += (grid.dx * slab).tolist()
    totals = []
    for k in range(len(test_fns)):
        total = 0.0
        for j in range(len(slabs) - 1):
            dt = traj.times[j + 1] - traj.times[j]
            total += 0.5 * dt * (slabs[j][k] + slabs[j + 1][k])
        totals.append(total)
    return totals


def _stack(fields, js):
    """The values of the fields js as one (len(js), n) stack."""
    return np.stack([fields[j].values for j in js])


def entropy_residual(traj, entropy_pair, test_fns):
    """Largest positive part of the weak entropy residual over the test set.

    Admissible trajectories keep this at quadrature-error scale; an
    expansion shock drives it to a fixed positive level.
    """
    eta, q = entropy_pair

    def arrays(js):
        vals = _stack(traj.fields, js)
        return (np.asarray(eta(vals), dtype=float),
                np.asarray(q(vals), dtype=float))

    return _worst_residual(
        -r for r in _spacetime_quadrature(traj, arrays, test_fns))


def tvd_defect(traj, window=None):
    """Worst growth of total variation over the initial value; NaN when a
    record is NaN."""
    tv0 = total_variation(traj.fields[0], window)
    return _worst_residual(total_variation(f, window) - tv0
                           for f in traj.fields[1:])


def max_principle_defect(traj):
    """Worst excursion of a record outside the initial range; NaN when a
    record is NaN."""
    v0 = traj.fields[0].values
    lo, hi = float(v0.min()), float(v0.max())
    return _worst_residual(
        x for f in traj.fields[1:]
        for x in (float(f.values.max()) - hi, lo - float(f.values.min())))


def _positive_part_integral(fieldv, window):
    idx = _window_slice(fieldv.grid, window)
    vals = fieldv.values[idx]
    # ~(vals <= 0) keeps a NaN, which vals > 0 would drop
    return fieldv.grid.dx * _exact_sum(vals[~(vals <= 0.0)])


def comparison_defect(traj_u, traj_v, R):
    """Kruzkov localized comparison: the L1 positive part of u - v inside
    |x| <= R must not exceed the initial positive part inside the widened
    window |x| <= R + L t. NaN when a record is NaN."""
    if traj_u.grid != traj_v.grid:
        raise InvalidArgument("trajectories on different grids")
    if traj_u.times != traj_v.times:
        raise InvalidArgument("trajectories with different record times")
    grid = traj_u.grid
    L = max(traj_u.meta.get("speed_bound", 0.0), traj_v.meta.get("speed_bound", 0.0))
    diff0 = traj_u.fields[0].with_values(
        traj_u.fields[0].values - traj_v.fields[0].values)
    gaps = []
    for j, t in enumerate(traj_u.times):
        Rt = R + L * t
        if -Rt < grid.x_min or Rt > grid.x_max:
            raise InvalidArgument("comparison window exceeds the domain")
        diff = traj_u.fields[j].with_values(
            traj_u.fields[j].values - traj_v.fields[j].values)
        now = _positive_part_integral(diff, (-R, R))
        init = _positive_part_integral(diff0, (-Rt, Rt))
        gaps.append(now - init)
    return _worst_residual(gaps)
