"""Godunov solver and theorem-checkers for the scalar law v_t + g(v)_x = 0.

The solver is first-order explicit Godunov with exact Riemann interface
fluxes. Alongside it live the measurement functions the test suite uses:
exact Riemann fans (the convergence oracle), one-sided slope excess,
entropy residuals against space-time test functions, and the localized
comparison defect.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .core import (CellField, Trajectory, _fill_ghosts, _window_slice,
                   total_variation)
from .errors import (HypothesisViolation, InvalidArgument, NumericalBlowup,
                     UnsupportedFlux)

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
    G = _kernels.godunov_fluxes(
        np.array([float(a)]), np.array([float(b)]),
        np.array([float(flux.g(a))]), np.array([float(flux.g(b))]),
        g_omega, omega, 1 if flux.convexity == "convex" else 0)
    return float(G[0])


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
        if not (0.0 < self.cfl < 1.0):
            raise InvalidArgument("cfl must lie in (0, 1)")
        if not (0.0 < self.t_end < math.inf):
            raise InvalidArgument("t_end must be positive and finite")
        if self.fixed_dt is not None and not (0.0 < self.fixed_dt < math.inf):
            raise InvalidArgument("fixed_dt must be positive and finite")
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
    n_steps = round(config.t_end / config.fixed_dt)
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
            else:
                t += dt
            yield step, dt, t, lands
            step += 1


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
    return _march(flux, init, config)[0]


def _march(flux, init, config, b_of_v=None, w0s=()):
    """The one Godunov step loop: v alone, or v with a locked w stack.

    With b_of_v, each w0 in w0s rides w_t + (b(v) w)_x = 0 on the same
    steps. Every step computes alpha = v - mu*G_out and beta = mu*G_in
    once; each w row becomes lam*alpha + lam_left*beta, with lam = w/v
    (0/0 := 0) taken from the cell and its upwind neighbour, and v becomes
    alpha + beta. That is the association of _kernels.scalar_step and
    _kernels.upwind_step, so v is bitwise the scalar run. The update is a
    convex combination only while alpha >= 0 and G >= 0; a locked step
    that breaks either by more than roundoff raises InvalidArgument. A v
    that is not finite after a step, or a w that is not finite at a record
    (w/v overflows where v is tiny against |w|), raises NumericalBlowup.

    Every per-step buffer is allocated once per solve, and the range
    (min v, max v) is reduced once per step: it is both the blow-up check
    and the input of the step constants. Returns (v_traj, w_trajs), with
    w_trajs empty without b_of_v.
    """
    flux.check_admissible(init.values)
    if not np.all(np.isfinite(init.values)):
        raise InvalidArgument("initial data must be finite")
    grid = init.grid
    n = grid.n
    dx = grid.dx
    periodic = init.boundary == "periodic"
    convex = 1 if flux.convexity == "convex" else 0
    if flux.convexity == "none":
        raise UnsupportedFlux("solver needs a convex or concave flux")

    want_zero = 0.0 in config.record_times or not config.record_times
    locked = b_of_v is not None
    v = init.values.astype(float).copy()
    W = _w_stack(init, b_of_v, w0s) if locked else np.empty((0, n))
    times = [0.0]
    fields = [init.copy()]
    w_fields = [[w0.copy()] for w0 in w0s]
    dt_schedule = []
    record_steps = []
    speed_bound = 0.0
    v_range = (float(v.min()), float(v.max()))
    data_range = L = omega = g_omega = None

    def speed():
        nonlocal data_range, L, omega, g_omega, speed_bound
        if v_range != data_range:
            data_range = lo, hi = v_range
            L = flux.L_of_range(lo, hi)
            speed_bound = max(speed_bound, L)
            omega = critical_point(flux, lo, hi)
            g_omega = float(flux.g(omega)) if math.isfinite(omega) else 0.0
        return L

    ve = np.empty(n + 2)  # v plus one ghost cell on each side
    muG = np.empty(n + 1)
    beta = muG[:-1]  # mu*G_in; muG[1:] is mu*G_out
    alpha = np.empty(n)
    nonzero = np.empty(n, dtype=bool)
    lam = np.empty_like(W)
    lam_left = np.empty_like(W)
    for step, dt, t, lands in _time_steps(config, dx, speed):
        _fill_ghosts(ve, v, periodic)
        gve = np.asarray(flux.g(ve), dtype=float)
        G = _kernels.godunov_fluxes(ve[:-1], ve[1:], gve[:-1], gve[1:],
                                    g_omega, omega, convex)
        np.multiply(G, dt / dx, out=muG)
        np.subtract(v, muG[1:], out=alpha)
        if locked:
            # max|v| from the range the speed bound was just taken on
            tol = 1e-12 * max(1.0, abs(data_range[0]), abs(data_range[1]))
            if alpha.min() < -tol or G.min() < -tol:
                raise _oversized_step(step, dt_schedule, alpha, G, tol)
            _ride(W, v, alpha, beta, periodic, nonzero, lam, lam_left)
            W, lam = lam, W  # the old stack is the next lam buffer
        np.add(alpha, beta, out=v)
        v_range = (float(v.min()), float(v.max()))
        if not (math.isfinite(v_range[0]) and math.isfinite(v_range[1])):
            raise NumericalBlowup(step, f"non-finite v at step {step}, "
                                        f"t={t!r}")

        dt_schedule.append(dt)
        if lands:
            times.append(t)
            fields.append(CellField(grid, v.copy(), init.boundary))
            if not np.isfinite(W).all():
                # w/v overflows where v is tiny against |w|; NaN persists
                raise NumericalBlowup(step, f"non-finite w by step {step}, "
                                            f"t={t!r}")
            for r, rows in enumerate(w_fields):
                rows.append(CellField(grid, W[r].copy(), init.boundary))
            record_steps.append(step + 1)

    meta = {
        "dt_schedule": dt_schedule,
        "record_steps": record_steps,
        "speed_bound": speed_bound,
        "cfl": config.cfl,
        "flux_name": flux.name,
        "fixed_dt": config.fixed_dt,
        "includes_zero": want_zero,
    }
    return (Trajectory(times, fields, meta),
            [Trajectory(list(times), rows, {"locked_to": flux.name,
                                            "dt_schedule": list(dt_schedule)})
             for rows in w_fields])


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
    """Each row w -> lam*alpha + lam_left*beta, written into lam, with
    lam = w/v (0/0 := 0) and lam_left the upwind (left) neighbour's ratio.

    nonzero, lam and lam_left are the caller's buffers, shaped like v and W.
    """
    np.not_equal(v, 0.0, out=nonzero)
    lam.fill(0.0)
    np.divide(W, v, out=lam, where=nonzero)
    lam_left[:, 1:] = lam[:, :-1]
    lam_left[:, 0] = lam[:, -1] if periodic else lam[:, 0]
    lam *= alpha
    lam_left *= beta
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


def _spacetime_quadrature(traj, cell_arrays_at, test_fn):
    """Trapezoid in t, midpoint in x of  A*phi_t + B*phi_x  over the records.

    cell_arrays_at(j) returns the pair (A_j, B_j) on the grid at record j.
    """
    grid = traj.grid
    x = grid.centers()
    slabs = []
    for j, tj in enumerate(traj.times):
        A, B = cell_arrays_at(j)
        phit = np.asarray(test_fn.dt(tj, x), dtype=float)
        phix = np.asarray(test_fn.dx(tj, x), dtype=float)
        slabs.append(grid.dx * math.fsum((A * phit + B * phix).tolist()))
    total = 0.0
    for j in range(len(slabs) - 1):
        dt = traj.times[j + 1] - traj.times[j]
        total += 0.5 * dt * (slabs[j] + slabs[j + 1])
    return total


def entropy_residual(traj, entropy_pair, test_fns):
    """Largest positive part of the weak entropy residual over the test set.

    Admissible trajectories keep this at quadrature-error scale; an
    expansion shock drives it to a fixed positive level.
    """
    eta, q = entropy_pair
    _check_test_fns(traj, test_fns)
    worst = 0.0
    for tf in test_fns:
        def arrays(j):
            vals = traj.fields[j].values
            return (np.asarray(eta(vals), dtype=float),
                    np.asarray(q(vals), dtype=float))

        r = -_spacetime_quadrature(traj, arrays, tf)
        worst = max(worst, max(0.0, r))
    return worst


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
