"""Continuity equation w_t + (b(v) w)_x = 0 driven by a scalar run.

Two independent routes to the same solution: the matched upwind scheme
of solve_split, which advances each w on the very steps of the scalar
law for v, and a mollified characteristics construction whose flow map
transports the initial ratio w/v. Their agreement (after smoothing) is
the renormalization story; the exact discrete invariants |w| <= v and
sign preservation belong to the upwind route alone.
"""
import math
from dataclasses import dataclass

import numpy as np

from .core import (CellField, FluxFunction, Trajectory, _window_slice,
                   _worst_residual)
from .errors import DegenerateDensity, InvalidArgument, OutOfDomain
from .scalar import _check_test_fns, _march, _spacetime_quadrature


def joint_speed_flux(flux, b_of):
    """Same flux, with the speed bound raised to cover the transport stage.

    The lockstep update w -> lam*(v - mu G) + lam_left*(mu G) is a convex
    combination only while mu b(v) <= 1, and b can exceed g' (for v/(1+v)
    it always does). Scalar runs meant to drive a transport stage must
    take their time steps from max(sup|g'|, sup b).
    """

    def L(lo, hi):
        base = flux.L_of_range(lo, hi)
        z = np.linspace(lo, hi, 1025) if hi > lo else np.asarray([lo])
        return max(base, float(np.max(np.abs(np.asarray(b_of(z), dtype=float)))))

    return FluxFunction(g=flux.g, gprime=flux.gprime, convexity=flux.convexity,
                        c=flux.c, L_of_range=L, name=flux.name,
                        admissible_min=flux.admissible_min)


@dataclass
class MollifierSpec:
    epsilon: float
    kind: str = "gaussian"

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise InvalidArgument("mollifier width must be positive")
        if self.kind != "gaussian":
            raise InvalidArgument("only the gaussian mollifier is available")


def _gaussian_kernel(dx, spec):
    """Half-width K in cells and the reversed normalized gaussian weights."""
    if spec.epsilon < dx:
        raise InvalidArgument("mollifier width below the grid scale")
    K = int(math.ceil(6.0 * spec.epsilon / dx))
    offsets = np.arange(-K, K + 1) * dx
    weights = np.exp(-offsets * offsets / (2.0 * spec.epsilon * spec.epsilon))
    weights /= math.fsum(weights.tolist())
    return K, weights[::-1]


def _convolve(fieldv, kernel):
    K, reversed_weights = kernel
    sm = np.convolve(fieldv.extended(K), reversed_weights, mode="valid")
    return fieldv.with_values(sm)


def mollify(fieldv, spec):
    """Discrete convolution with a normalized gaussian of width epsilon."""
    return _convolve(fieldv, _gaussian_kernel(fieldv.grid.dx, spec))


class TransportPair:
    """A scalar trajectory v together with the velocity b(v) it induces."""

    def __init__(self, v_traj, b_of, C=None, window=None):
        self.rho = v_traj
        self.b_of = b_of
        self.C = C
        self.window = window

    @property
    def grid(self):
        return self.rho.grid

    def rho_at(self, t):
        """Density at time t, linear in t between records."""
        times = self.rho.times
        if t < times[0] - 1e-12 or t > times[-1] + 1e-12:
            raise OutOfDomain("time outside the recorded range")
        j = int(np.searchsorted(times, t))
        if j < len(times) and abs(times[j] - t) <= 1e-12:
            return self.rho.fields[j].copy()
        j = max(1, min(j, len(times) - 1))
        t0, t1 = times[j - 1], times[j]
        theta = (t - t0) / (t1 - t0)
        vals = ((1.0 - theta) * self.rho.fields[j - 1].values
                + theta * self.rho.fields[j].values)
        return self.rho.fields[j].with_values(vals)

    def velocity_at(self, t):
        rho = self.rho_at(t)
        return rho.with_values(np.asarray(self.b_of(rho.values), dtype=float))

    def continuity_residual(self, w_traj, test_fns):
        """Weak residual of w_t + (b w)_x against space-time tests."""
        _check_test_fns(w_traj, test_fns)

        def arrays(j):
            w = w_traj.fields[j].values
            v = self.rho.fields[j].values
            b = np.asarray(self.b_of(v), dtype=float)
            return w, b * w

        return _worst_residual(
            abs(r) for r in _spacetime_quadrature(w_traj, arrays, test_fns))


def solve_split(flux, b_of_v, v0, w0s, config):
    """Split solve: the scalar law for v and each w locked to it, in one march.

    Every step advances v and the whole w stack together
    (scalar._march): the scalar update is computed once and each w takes
    the upwind form lam*(v - mu G_out) + lam_left*(mu G_in) of it. The
    steps come from joint_speed_flux(flux, b_of_v), so each transport step
    stays a convex combination; v is bitwise the scalar run. Returns
    (v_traj, w_trajs).
    """
    return solve_split_many(flux, b_of_v, [v0], [w0s], config)[0]


def solve_split_many(flux, b_of_v, v0s, w0s, config):
    """solve_split for B runs on one grid under one config, stepped as one
    (B, n) march: run r starts from v0s[r] with the w fields w0s[r], and
    every run carries the same number of them. Each run keeps its own time
    plan and is bitwise its solve_split. Returns one (v_traj, w_trajs) pair
    per run.
    """
    return _march(joint_speed_flux(flux, b_of_v), v0s, config, b_of_v, w0s)


def weighted_sup_norm(w_field, v_field):
    """sup |w|/v with 0/0 counted as 0 and w/0 for w != 0 as inf."""
    w = w_field.values
    v = v_field.values
    zero = v == 0.0
    if np.any(w[zero] != 0.0):
        return math.inf
    ratios = np.abs(w[~zero]) / v[~zero]
    return max(0.0, float(ratios.max())) if ratios.size else 0.0


def regularized_velocity(pair, spec, t):
    """Smoothed velocity mollify(b rho)/mollify(rho) at time t."""
    return _regularized_velocity(pair, _gaussian_kernel(pair.grid.dx, spec), t)


def _regularized_velocity(pair, kernel, t):
    rho = pair.rho_at(t)
    b = np.asarray(pair.b_of(rho.values), dtype=float)
    num = _convolve(rho.with_values(b * rho.values), kernel)
    den = _convolve(rho, kernel)
    if np.any(den.values <= 0.0):
        raise DegenerateDensity("mollified density vanishes")
    return rho.with_values(num.values / den.values)


class VelocityField:
    """Time-indexed sampler of the regularized velocity.

    The mollifier's weights and the cell centres are built once per field.
    """

    def __init__(self, pair, spec):
        self.pair = pair
        self.spec = spec
        self.kernel = _gaussian_kernel(pair.grid.dx, spec)
        self.centers = pair.grid.centers()
        self._cache = {}
        self._bounds = None

    def at(self, t):
        key = round(float(t), 14)
        if key not in self._cache:
            self._cache[key] = _regularized_velocity(self.pair, self.kernel, t)
        return self._cache[key]

    def _padded_bounds(self):
        # Characteristics launched inside the box drift at most
        # speed * horizon beyond it; only queries past that margin
        # are genuine escapes.
        if self._bounds is None:
            b_max = 0.0
            for f in self.pair.rho.fields:
                b = np.asarray(self.pair.b_of(f.values), dtype=float)
                b_max = max(b_max, float(np.max(np.abs(b))))
            horizon = self.pair.rho.times[-1]
            pad = b_max * horizon + 6.0 * self.spec.epsilon + self.pair.grid.dx
            grid = self.pair.grid
            self._bounds = (grid.x_min - pad, grid.x_max + pad)
        return self._bounds

    def sample(self, t, x):
        """Velocity at (t, x): linear interpolation between cell midpoints,
        edge values extended through the padded band outside the box."""
        f = self.at(t)
        x = np.asarray(x, dtype=float)
        lo, hi = self._padded_bounds()
        if x.size and (x.min() < lo or x.max() > hi):
            raise OutOfDomain("characteristic left the padded domain")
        return np.interp(x, self.centers, f.values)


def flow_map(velocity, t0, t1, x0):
    """RK4 integration of dx/dt = velocity.sample(t, x) from t0 to t1."""
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    dx = velocity.pair.grid.dx
    h_target = min(dx, velocity.spec.epsilon / 4.0)
    span = t1 - t0
    if span == 0.0:
        return x if np.ndim(x0) else float(x[0])
    n = max(1, int(math.ceil(abs(span) / h_target)))
    h = span / n
    t = t0
    for _ in range(n):
        k1 = velocity.sample(t, x)
        k2 = velocity.sample(t + 0.5 * h, x + 0.5 * h * k1)
        k3 = velocity.sample(t + 0.5 * h, x + 0.5 * h * k2)
        k4 = velocity.sample(t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return x if np.ndim(x0) else float(x[0])


def solve_by_characteristics(pair, w0, spec, record_times):
    """Transport the smoothed ratio w0/rho0 along regularized characteristics.

    For each record time t, cells are traced backward to time 0 through the
    mollified velocity; the ratio there multiplies the mollified density at
    time t. Smooth route: approximate by construction, used as the
    independent cross-check against the upwind scheme.
    """
    velocity = VelocityField(pair, spec)
    kernel, centers = velocity.kernel, velocity.centers
    rho0_smooth = _convolve(pair.rho_at(0.0), kernel).values
    if np.any(rho0_smooth <= 0.0):
        raise DegenerateDensity("mollified initial density vanishes")
    lam0 = _convolve(w0, kernel).values / rho0_smooth

    grid = pair.grid
    times = []
    fields = []
    for t in record_times:
        if t == 0.0:
            w_vals = lam0 * rho0_smooth
        else:
            back = flow_map(_Reversed(velocity, t), 0.0, t, centers)
            lam = np.interp(back, centers, lam0)
            w_vals = lam * _convolve(pair.rho_at(t), kernel).values
        times.append(float(t))
        fields.append(CellField(grid, w_vals, w0.boundary))
    return Trajectory(times, fields, {"mollifier": spec.epsilon})


class _Reversed:
    """Time-reflected, negated velocity: integrating it forward over [0, t]
    realizes the backward flow of the original field from t to 0."""

    def __init__(self, velocity, t_top):
        self.velocity = velocity
        self.t_top = t_top
        self.pair = velocity.pair
        self.spec = velocity.spec

    def sample(self, s, x):
        return -self.velocity.sample(self.t_top - s, x)


def renorm_residual(pair, w_traj, beta, test_fns):
    """Weak residual of the renormalized equation for u = w/rho.

    Tests  rho beta(u) phi_t + b rho beta(u) phi_x  against each test
    function; for solutions of the continuity equation with the recorded
    density this vanishes up to discretization error.
    """
    _check_test_fns(w_traj, test_fns)

    def arrays(j):
        v = pair.rho.fields[j].values
        w = w_traj.fields[j].values
        u = np.where(v != 0.0, w / np.where(v != 0.0, v, 1.0), 0.0)
        bu = np.asarray(beta(u), dtype=float)
        b = np.asarray(pair.b_of(v), dtype=float)
        return v * bu, b * v * bu

    return _worst_residual(
        abs(r) for r in _spacetime_quadrature(w_traj, arrays, test_fns))


def strong_continuity_modulus(traj, t0, window=None):
    """L1 distances to the t0 snapshot at each later record time."""
    f0 = traj.at(t0)
    idx = _window_slice(traj.grid, window)
    out = []
    for t, f in zip(traj.times, traj.fields):
        if t <= t0:
            continue
        d = traj.grid.dx * math.fsum(
            np.abs(f.values[idx] - f0.values[idx]).tolist())
        out.append((t, d))
    return out
