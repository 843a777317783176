"""Godunov solver and theorem-checkers for the scalar law v_t + g(v)_x = 0.

The solver is first-order explicit Godunov with exact Riemann interface
fluxes. Alongside it live the measurement functions the test suite uses:
exact Riemann fans (the convergence oracle), one-sided slope excess,
entropy residuals against space-time test functions, and the localized
comparison defect.
"""
import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import (CellField, Trajectory, _ghost_cells, _window_slice,
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


def godunov_flux(flux, a, b):
    """min of g over [a,b] when a <= b, else max over [b,a]."""
    lo, hi = (a, b) if a <= b else (b, a)
    omega = critical_point(flux, lo, hi)
    g_omega = float(flux.g(omega)) if math.isfinite(omega) else 0.0
    select = _Selection((1, 1), flux.convexity == "convex")
    G = select(np.array([[float(a)]]), np.array([[float(b)]]),
               np.array([[float(flux.g(a))]]), np.array([[float(flux.g(b))]]),
               omega, g_omega)
    return float(G[0, 0])


class _Selection:
    """The Godunov interface flux, written into buffers of one shape.

    For left and right states a and b with g values ga and gb, the flux is
    the min of g over [a, b] when a <= b and the max over [b, a] otherwise.
    For convex g the min sits at the critical point omega clamped to
    [a, b] and the max at an endpoint; for concave g it is the reverse.
    g_omega is g(omega). Each row of the (B, n) arrays may have its own
    omega and g_omega, passed as (B, 1) columns; a float omega holds for
    every row. A float omega of +-inf (g monotone the same way on every
    row's range) skips the clamp: every interface then takes the same
    endpoint. The result is bitwise the nested np.where selection.
    """

    def __init__(self, shape, convex):
        self.convex = convex
        self.G = np.empty(shape)
        self.other = np.empty(shape)
        self.take = np.empty(shape, dtype=bool)
        self.hit = np.empty(shape, dtype=bool)

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
        if self.convex:
            np.maximum(ga, gb, out=G)
            np.less_equal(a, b, out=take)
        else:
            np.minimum(ga, gb, out=G)
            np.greater(a, b, out=take)  # the states are finite
        np.copyto(G, other, where=take)
        return G


class RiemannFan:
    """Exact self-similar entropy solution of a two-state problem."""

    def __init__(self, flux, v_l, v_r):
        if flux.convexity not in ("convex", "concave"):
            raise UnsupportedFlux(
                "Riemann fan needs strictly monotone g' between the states")
        self.flux = flux
        self.v_l = float(v_l)
        self.v_r = float(v_r)
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


def cfl_dt(flux, fieldv, cfl):
    vals = fieldv.values if isinstance(fieldv, CellField) else np.asarray(fieldv)
    L = flux.L_of_range(float(np.min(vals)), float(np.max(vals)))
    dx = fieldv.grid.dx if isinstance(fieldv, CellField) else None
    if dx is None:
        raise InvalidArgument("cfl_dt needs a CellField")
    return _dt_from_speed(L, dx, cfl)


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
    """Step count and the set of steps that end on a stop, for fixed dt.

    Both t_end and every stop must be whole multiples of fixed_dt.
    """
    quotient = config.t_end / config.fixed_dt
    if not math.isfinite(quotient):
        raise InvalidArgument(
            f"t_end / fixed_dt = {config.t_end!r} / {config.fixed_dt!r} "
            "overflows")
    n_steps = round(quotient)
    if abs(n_steps * config.fixed_dt - config.t_end) > 1e-9 * config.t_end:
        raise InvalidArgument("t_end is not a multiple of fixed_dt")
    stop_steps = set()
    for s in stops:
        js = round(s / config.fixed_dt)
        if abs(js * config.fixed_dt - s) > 1e-9 * max(s, config.fixed_dt):
            raise InvalidArgument("record time not aligned with fixed_dt")
        stop_steps.add(js)
    return n_steps, stop_steps


def _time_steps(config, dx, speed):
    """The time plan of an explicit solver: yields (step, dt, t_next, lands).

    speed() returns the solver's current speed bound L and is called
    before each step. With fixed_dt the plan is fixed_dt up to t_end, and
    a step with dt*L/dx > 1 breaks the CFL hypothesis and raises
    HypothesisViolation. Otherwise dt is the CFL step for L, shortened to
    land exactly on each record stop. lands marks the steps that end on a
    stop.
    """
    stops = _record_plan(config)
    if config.fixed_dt is not None:
        dt = config.fixed_dt
        n_steps, stop_steps = _fixed_step_plan(config, stops)
        for step in range(n_steps):
            ratio = dt * speed() / dx
            if ratio > 1.0:
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
            elif t + dt == t:
                raise InvalidArgument(
                    f"the CFL step dt={dt!r} no longer advances t={t!r} "
                    f"at step {step}")
            else:
                t += dt
            yield step, dt, t, lands
            step += 1


def _lockstep(config, dx, speeds):
    """The time plans of B runs on one grid, stepped together.

    speeds[r]() is run r's speed bound, as _time_steps takes it. Each
    yield lists (r, step, dt, t_next, lands) for every run whose plan goes
    on, in the order of r; a run leaves the list for good once its own plan
    has ended. An error from run r's plan names the row when B > 1.
    """
    batch = len(speeds)
    plans = [_time_steps(config, dx, speed) for speed in speeds]
    rows = list(range(batch))
    r = None
    try:
        while rows:
            steps = []
            for r in rows:
                item = next(plans[r], None)
                if item is not None:
                    steps.append((r, *item))
            if len(steps) < len(rows):
                rows = [step[0] for step in steps]
                if not rows:
                    return
            yield steps
    except SplitlawError as exc:
        raise _in_row(exc, r, batch) from None


def _in_row(exc, r, batch):
    """exc, with its message naming row r when the batch has B > 1 runs."""
    if batch > 1:
        exc.message = f"row {r}: {exc.message}"
        exc.args = (f"{exc.ident}: {exc.message}",)
    return exc


def _batch_grid(fields):
    """The grid and boundary mode that every field of a batch shares."""
    if not fields:
        raise InvalidArgument("a batch needs at least one run")
    grid, boundary = fields[0].grid, fields[0].boundary
    for f in fields:
        if f.grid != grid:
            raise InvalidArgument("batch runs on different grids")
        if f.boundary != boundary:
            raise InvalidArgument("batch runs disagree on boundary mode")
    return grid, boundary


def solve_scalar(flux, init, config):
    """March the Godunov scheme to t_end, recording the requested times.

    The returned Trajectory always includes t=0; meta carries the per-step
    dt schedule, the steps that landed on a record, and the largest speed
    bound used.

    The step constants (speed bound L, the critical point of g and g
    there) depend on the data only through its range (min v, max v), so
    they are recomputed only when that range changes. With fixed_dt, a
    step that breaks the CFL hypothesis dt*L/dx <= 1 raises
    HypothesisViolation.
    """
    return _march(flux, [init], config)[0][0]


def _workspace(b, m, n, convex):
    """The per-step arrays of _march for b rows of n cells, each row with
    m locked w rows: v plus one ghost cell on each side, the Godunov
    selection, mu*G, alpha = v - mu*G_out, the v != 0 mask and the two
    ride buffers."""
    return (np.empty((b, n + 2)), _Selection((b, n + 1), convex),
            np.empty((b, n + 1)), np.empty((b, n)),
            np.empty((b, 1, n), dtype=bool), np.empty((b, m, n)),
            np.empty((b, m, n)))


def _march(flux, inits, config, b_of_v=None, w0s=None):
    """The one Godunov step loop: B runs of v on one grid, each alone or
    with a locked w stack.

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
    (w/v overflows where v is tiny against |w|), raises NumericalBlowup.

    The runs share the grid, the boundary mode, the flux and the config,
    and step together as one (B, n) array v and one (B, m, n) array W.
    Each row keeps its own time plan, mu = dt/dx, range (min v, max v),
    speed bound and step constants, so each row is bitwise its own
    unbatched run; a row whose plan has ended leaves the arrays. An error
    from one row of a batch names the row. The per-step arrays are
    allocated once per solve, and the range is reduced once per step: it
    is both the blow-up check and the input of the step constants.

    Returns one (v_traj, w_trajs) pair per run, with w_trajs empty without
    b_of_v.
    """
    batch = len(inits)
    locked = b_of_v is not None
    w0s = list(w0s) if locked else [()] * batch
    for r, init in enumerate(inits):
        try:
            flux.check_admissible(init.values)
            if not np.all(np.isfinite(init.values)):
                raise InvalidArgument("initial data must be finite")
        except SplitlawError as exc:
            raise _in_row(exc, r, batch) from None
    grid, boundary = _batch_grid(inits)
    n = grid.n
    dx = grid.dx
    periodic = boundary == "periodic"
    convex = flux.convexity == "convex"
    if flux.convexity == "none":
        raise UnsupportedFlux("solver needs a convex or concave flux")
    if len(w0s) != batch or len({len(row) for row in w0s}) > 1:
        raise InvalidArgument("each run of a batch needs the same number "
                              "of w fields")
    m = len(w0s[0])

    want_zero = 0.0 in config.record_times or not config.record_times
    v = np.array([init.values for init in inits], dtype=float)
    W = np.empty((batch, m, n))
    for r, init in enumerate(inits if locked else ()):
        try:
            W[r] = _w_stack(init, b_of_v, w0s[r])
        except SplitlawError as exc:
            raise _in_row(exc, r, batch) from None
    times = [[0.0] for _ in inits]
    fields = [[init.copy()] for init in inits]
    w_fields = [[[w0.copy()] for w0 in row] for row in w0s]
    dt_schedule = [[] for _ in inits]
    record_steps = [[] for _ in inits]
    speed_bound = [0.0] * batch
    v_range = list(zip(v.min(axis=1).tolist(), v.max(axis=1).tolist()))
    data_range = [None] * batch
    L = [None] * batch
    omega = [None] * batch
    g_omega = [None] * batch
    tol = [None] * batch
    stale = True  # the step constants of some row changed

    def speed(r):
        nonlocal stale
        if v_range[r] != data_range[r]:
            data_range[r] = lo, hi = v_range[r]
            L[r] = flux.L_of_range(lo, hi)
            speed_bound[r] = max(speed_bound[r], L[r])
            omega[r] = critical_point(flux, lo, hi)
            g_omega[r] = (float(flux.g(omega[r])) if math.isfinite(omega[r])
                          else 0.0)
            # max|v| from the range the speed bound is taken on
            tol[r] = 1e-12 * max(1.0, abs(lo), abs(hi))
            stale = True
        return L[r]

    rows = list(range(batch))  # the run held in each row of v and W
    ve = None
    speeds = [functools.partial(speed, r) for r in rows]
    for plan in _lockstep(config, dx, speeds):
        if ve is None or len(plan) < len(rows):
            # the first step, or some plans have ended: (re)build the arrays
            keep = [rows.index(r) for r, *_ in plan]
            rows = [r for r, *_ in plan]
            ve, select, muG, alpha, nonzero, lam, lam_left = _workspace(
                len(rows), m, n, convex)
            ve[:, 1:-1] = v[keep]
            v = ve[:, 1:-1]  # v lives between its ghost cells
            W = W[keep]
            ghosts, edges = _ghost_cells(ve, periodic)
            left, right = ve[:, :-1], ve[:, 1:]
            beta, mu_out = muG[:, :-1], muG[:, 1:]  # mu*G_in, mu*G_out
            stale = True
        if stale:
            omegas = [omega[r] for r in rows]
            if math.isinf(omegas[0]) and omegas.count(omegas[0]) == len(rows):
                omega_col, g_omega_col = omegas[0], 0.0
            else:
                omega_col = np.array(omegas)[:, None]
                g_omega_col = np.array([g_omega[r] for r in rows])[:, None]
            stale = False
        if len(plan) == 1:
            mu = plan[0][2] / dx
        else:
            mu = np.divide(np.array([item[2] for item in plan])[:, None], dx)
        ghosts[...] = edges
        gve = np.asarray(flux.g(ve), dtype=float)
        G = select(left, right, gve[:, :-1], gve[:, 1:], omega_col,
                   g_omega_col)
        np.multiply(G, mu, out=muG)
        np.subtract(v, mu_out, out=alpha)
        if locked:
            alpha_min = np.minimum.reduce(alpha, axis=1).tolist()
            G_min = np.minimum.reduce(G, axis=1).tolist()
            for i, (r, step, *_) in enumerate(plan):
                if alpha_min[i] < -tol[r] or G_min[i] < -tol[r]:
                    raise _in_row(_oversized_step(
                        step, dt_schedule[r], alpha[i], G[i], tol[r]),
                        r, batch)
            _ride(W, v, alpha, beta, periodic, nonzero, lam, lam_left)
            W, lam = lam, W  # the old stack is the next lam buffer
        np.add(alpha, beta, out=v)
        lo = np.minimum.reduce(v, axis=1).tolist()
        hi = np.maximum.reduce(v, axis=1).tolist()
        for i, (r, step, dt, t, lands) in enumerate(plan):
            v_range[r] = (lo[i], hi[i])
            if not (math.isfinite(lo[i]) and math.isfinite(hi[i])):
                raise _in_row(NumericalBlowup(
                    step, f"non-finite v at step {step}, t={t!r}"), r, batch)
            dt_schedule[r].append(dt)
            if lands:
                times[r].append(t)
                fields[r].append(CellField(grid, v[i].copy(), boundary))
                if not np.isfinite(W[i]).all():
                    # w/v overflows where v is tiny against |w|; NaN persists
                    raise _in_row(NumericalBlowup(
                        step, f"non-finite w by step {step}, t={t!r}"),
                        r, batch)
                for j, w_rows in enumerate(w_fields[r]):
                    w_rows.append(CellField(grid, W[i, j].copy(), boundary))
                record_steps[r].append(step + 1)

    runs = []
    for r in range(batch):
        meta = {
            "dt_schedule": dt_schedule[r],
            "record_steps": record_steps[r],
            "speed_bound": speed_bound[r],
            "cfl": config.cfl,
            "flux_name": flux.name,
            "fixed_dt": config.fixed_dt,
            "includes_zero": want_zero,
        }
        runs.append((
            Trajectory(times[r], fields[r], meta),
            [Trajectory(list(times[r]), w_rows,
                        {"locked_to": flux.name,
                         "dt_schedule": list(dt_schedule[r])})
             for w_rows in w_fields[r]]))
    return runs


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


def _ride(W, v, alpha, beta, periodic, nonzero, lam, lam_left):
    """Each row w of the (b, m, n) stack W -> lam*alpha + lam_left*beta,
    written into lam, with lam = w/v (0/0 := 0) and lam_left the upwind
    (left) neighbour's ratio.

    v, alpha and beta are (b, n); nonzero is the caller's (b, 1, n) buffer
    and lam, lam_left are shaped like W.
    """
    v = v[:, None, :]
    np.not_equal(v, 0.0, out=nonzero)
    lam.fill(0.0)
    np.divide(W, v, out=lam, where=nonzero)
    lam_left[..., 1:] = lam[..., :-1]
    lam_left[..., 0] = lam[..., -1] if periodic else lam[..., 0]
    lam *= alpha[:, None, :]
    lam_left *= beta[:, None, :]
    lam += lam_left


def _oversized_step(step, dt_schedule, alpha, G, tol):
    """The error for a locked step that is not a convex combination: the
    step, its start time, and the worst cell or interface against -tol."""
    t = math.fsum(dt_schedule[:step])
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
    """Positive part of the worst one-sided slope violation at time t.

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
    worst = float(np.max(slopes - bound)) if len(slopes) else 0.0
    return max(0.0, worst)


def kruzkov_pair(flux, kappa):
    """Kruzkov entropy |v - kappa| with its flux."""
    gk = float(flux.g(kappa))

    def eta(v):
        return np.abs(v - kappa)

    def q(v):
        return np.sign(v - kappa) * (np.asarray(flux.g(v), dtype=float) - gk)

    return eta, q


def _check_test_fns(traj, test_fns):
    t_end = traj.times[-1]
    for tf in test_fns:
        if tf.t_support[0] <= 0.0:
            raise InvalidArgument("test function must vanish near t=0")
        if tf.t_support[1] >= t_end + 1e-12:
            raise InvalidArgument("test function must vanish before t_end")


def _spacetime_quadrature(traj, cell_arrays_at, test_fns):
    """Trapezoid in t, midpoint in x of  A*phi_t + B*phi_x  over the records,
    one total per test function.

    cell_arrays_at(j) returns the pair (A_j, B_j) on the grid at record j;
    it is called once per record, and each test's space factors are
    evaluated once.
    """
    if not test_fns:
        return []
    grid = traj.grid
    x = grid.centers()
    fx = np.stack([np.asarray(tf.fx(x), dtype=float) for tf in test_fns])
    dfx = np.stack([np.asarray(tf.dfx(x), dtype=float) for tf in test_fns])
    slabs = []
    for j, tj in enumerate(traj.times):
        A, B = cell_arrays_at(j)
        ft = np.array([[tf.ft(tj)] for tf in test_fns], dtype=float)
        dft = np.array([[tf.dft(tj)] for tf in test_fns], dtype=float)
        integrand = A * (dft * fx) + B * (ft * dfx)
        slabs.append([grid.dx * math.fsum(row) for row in integrand.tolist()])
    totals = []
    for k in range(len(test_fns)):
        total = 0.0
        for j in range(len(slabs) - 1):
            dt = traj.times[j + 1] - traj.times[j]
            total += 0.5 * dt * (slabs[j][k] + slabs[j + 1][k])
        totals.append(total)
    return totals


def entropy_residual(traj, entropy_pair, test_fns):
    """Largest positive part of the weak entropy residual over the test set.

    Admissible trajectories keep this at quadrature-error scale; an
    expansion shock drives it to a fixed positive level.
    """
    eta, q = entropy_pair
    _check_test_fns(traj, test_fns)

    def arrays(j):
        vals = traj.fields[j].values
        return (np.asarray(eta(vals), dtype=float),
                np.asarray(q(vals), dtype=float))

    return _worst_residual(
        -r for r in _spacetime_quadrature(traj, arrays, test_fns))


def tvd_defect(traj, window=None):
    """Worst growth of total variation over the initial value."""
    tv0 = total_variation(traj.fields[0], window)
    worst = 0.0
    for f in traj.fields[1:]:
        worst = max(worst, total_variation(f, window) - tv0)
    return max(0.0, worst)


def max_principle_defect(traj):
    v0 = traj.fields[0].values
    lo, hi = float(v0.min()), float(v0.max())
    worst = 0.0
    for f in traj.fields[1:]:
        worst = max(worst, float(f.values.max()) - hi, lo - float(f.values.min()))
    return max(0.0, worst)


def _positive_part_integral(fieldv, window):
    idx = _window_slice(fieldv.grid, window)
    vals = fieldv.values[idx]
    return fieldv.grid.dx * math.fsum(vals[vals > 0.0].tolist())


def comparison_defect(traj_u, traj_v, R):
    """Kruzkov localized comparison: the L1 positive part of u - v inside
    |x| <= R must not exceed the initial positive part inside the widened
    window |x| <= R + L t."""
    if traj_u.grid != traj_v.grid:
        raise InvalidArgument("trajectories on different grids")
    if traj_u.times != traj_v.times:
        raise InvalidArgument("trajectories with different record times")
    grid = traj_u.grid
    L = max(traj_u.meta.get("speed_bound", 0.0), traj_v.meta.get("speed_bound", 0.0))
    diff0 = traj_u.fields[0].with_values(
        traj_u.fields[0].values - traj_v.fields[0].values)
    worst = 0.0
    for j, t in enumerate(traj_u.times):
        Rt = R + L * t
        if -Rt < grid.x_min or Rt > grid.x_max:
            raise InvalidArgument("comparison window exceeds the domain")
        diff = traj_u.fields[j].with_values(
            traj_u.fields[j].values - traj_v.fields[j].values)
        now = _positive_part_integral(diff, (-R, R))
        init = _positive_part_integral(diff0, (-Rt, Rt))
        worst = max(worst, now - init)
    return max(0.0, worst)
