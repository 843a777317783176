"""Continuity equation w_t + (b(v) w)_x = 0 driven by a scalar run.

Two independent routes to the same solution: the matched upwind scheme
of solve_split, which advances each w on the very steps of the scalar
law for v, and a mollified characteristics construction whose flow map
transports the initial ratio w/v. Their agreement (after smoothing) is
the renormalization story; the exact discrete invariants |w| <= v and
sign preservation belong to the upwind route alone.
"""
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (CellField, FluxFunction, Trajectory, _exact_sum,
                   _worst_residual)
from .errors import DegenerateDensity, InvalidArgument, OutOfDomain
from .scalar import _march, _spacetime_quadrature, _stack


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
                        admissible_min=flux.admissible_min,
                        g_into=flux.g_into)


@dataclass
class MollifierSpec:
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise InvalidArgument("mollifier width must be > 0 and finite")


def _gaussian_kernel(dx, spec):
    """Half-width K in cells and the reversed normalized gaussian weights."""
    if spec.epsilon < dx:
        raise InvalidArgument("mollifier width below the grid scale")
    K = int(math.ceil(6.0 * spec.epsilon / dx))
    offsets = np.arange(-K, K + 1) * dx
    weights = np.exp(-offsets * offsets / (2.0 * spec.epsilon * spec.epsilon))
    weights /= _exact_sum(weights)
    return K, weights[::-1]


def _smooth_rows(rows, kernel, periodic):
    """Each row of the (R, n) stack rows, extended by K ghost cells like
    CellField.extended(K), convolved with the kernel. The extended rows sit
    back to back and one np.convolve runs over them all: row r's n valid
    outputs start at r (n + 2K), each the dot product it is when the row is
    convolved alone, so every bit is.

    np.convolve takes each output as one BLAS dot product (cblas_ddot), so
    the bits are those of the BLAS dot kernel the CPU selects: OpenBLAS's
    Haswell kernel, the one an AVX2 CPU gets, moves the last bits of
    criterion 12's lp_distance from those of its AVX-512 kernel."""
    K, reversed_weights = kernel
    R, n = rows.shape
    if periodic and K > n:
        raise InvalidArgument("mollifier wider than the periodic grid")
    width = n + 2 * K
    flat = np.zeros(R * width + 2 * K)  # 2K zeros: R * width valid outputs
    ext = flat[:R * width].reshape(R, width)
    ext[:, K:K + n] = rows
    ext[:, :K] = rows[:, n - K:] if periodic else rows[:, :1]
    ext[:, K + n:] = rows[:, :K] if periodic else rows[:, n - 1:]
    sm = np.convolve(flat, reversed_weights, mode="valid")
    return sm.reshape(R, width)[:, :n]


def _convolve(fieldv, kernel):
    return fieldv.with_values(_smooth_rows(
        fieldv.values[None], kernel, fieldv.boundary == "periodic")[0])


def mollify(fieldv, spec):
    """Discrete convolution with a normalized gaussian of width epsilon."""
    return _convolve(fieldv, _gaussian_kernel(fieldv.grid.dx, spec))


class TransportPair:
    """A scalar trajectory v together with the velocity b(v) it induces."""

    def __init__(self, v_traj, b_of):
        self.rho = v_traj
        self.b_of = b_of

    @property
    def grid(self):
        return self.rho.grid

    def rho_at(self, t):
        """Density at time t, linear in t between records."""
        return self.rho.fields[0].with_values(self.rho_rows([t])[0])

    def rho_rows(self, ts):
        """rho_at(t) for each of the times ts, as one (len(ts), n) stack: a
        record within 1e-12 of t as it is, else the records around t blended."""
        times = np.asarray(self.rho.times)
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < times[0] - 1e-12) or np.any(ts > times[-1] + 1e-12):
            raise OutOfDomain("time outside the recorded range")
        vals = [f.values for f in self.rho.fields]
        j = np.searchsorted(times, ts)
        at = np.minimum(j, len(times) - 1)
        rows = np.array([vals[i] for i in at])
        blend = np.flatnonzero((j == len(times))
                               | (np.abs(times[at] - ts) > 1e-12))
        if blend.size and len(times) > 1:  # one record: every t is it
            hi = np.clip(j[blend], 1, len(times) - 1)
            t0, t1 = times[hi - 1], times[hi]
            theta = ((ts[blend] - t0) / (t1 - t0))[:, None]
            rows[blend] = ((1.0 - theta) * np.array([vals[i - 1] for i in hi])
                           + theta * np.array([vals[i] for i in hi]))
        return rows


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
    """solve_split for B runs under one config or one per run, stepped as
    one march: run r starts from v0s[r] with the w fields w0s[r], on its
    own grid, and every run carries the same number of them. Each run keeps
    its own time plan and is bitwise its solve_split. Returns one (v_traj,
    w_trajs) pair per run.
    """
    return _march(joint_speed_flux(flux, b_of_v), v0s, config, b_of_v, w0s)


def weighted_sup_norm(w_field, v_field):
    """sup |w|/v with 0/0 counted as 0 and w/0 for w != 0 as inf; NaN when
    a cell of w or v is NaN, which a max would drop."""
    w = w_field.values
    v = v_field.values
    if np.isnan(w).any() or np.isnan(v).any():
        return math.nan
    zero = v == 0.0
    if np.any(w[zero] != 0.0):
        return math.inf
    ratios = np.abs(w[~zero]) / v[~zero]
    return max(0.0, float(ratios.max())) if ratios.size else 0.0


_BLOCK_ROWS = 32  # rows per stack; 64 raised the gate's peak RSS by 1.1 MB


def _velocity_rows(pair, kernel, ts):
    """The regularized velocities mollify(b rho)/mollify(rho) at the times
    ts, as one (len(ts), n) stack smoothed by one _smooth_rows."""
    rho = pair.rho_rows(ts)
    both = np.concatenate([np.asarray(pair.b_of(rho), dtype=float) * rho, rho])
    periodic = pair.rho.fields[0].boundary == "periodic"
    num, den = np.split(_smooth_rows(both, kernel, periodic), 2)
    if np.any(den <= 0.0):
        raise DegenerateDensity("mollified density vanishes")
    return num / den


class VelocityField:
    """Time-indexed sampler of the regularized velocity.

    The mollifier's weights and the cell centres are built once per field.
    Once plan(times) names the coming sample times, their rows are built
    _BLOCK_ROWS at a time; a time off the plan is a block of its own."""

    def __init__(self, pair, spec):
        self.pair = pair
        self.spec = spec
        self.kernel = _gaussian_kernel(pair.grid.dx, spec)
        self.centers = pair.grid.centers()
        # Characteristics launched inside the box drift at most speed *
        # horizon beyond it; only queries past that margin are escapes.
        b_max = max(0.0, *(float(np.max(np.abs(np.asarray(
            pair.b_of(f.values), dtype=float)))) for f in pair.rho.fields))
        pad = b_max * pair.rho.times[-1] + 6.0 * spec.epsilon + pair.grid.dx
        self._bounds = (pair.grid.x_min - pad, pair.grid.x_max + pad)
        self.plan(())

    def plan(self, times):
        """Name the sample times the coming queries ask for, in order."""
        self._times = list(dict.fromkeys(times))
        self._index = {t: i for i, t in enumerate(self._times)}
        self._rows = {}

    def _row(self, t):
        if t not in self._rows:
            i = self._index.get(t)
            block = [t] if i is None else self._times[i:i + _BLOCK_ROWS]
            self._rows = dict(zip(block, _velocity_rows(self.pair,
                                                        self.kernel, block)))
        return self._rows[t]

    def sample(self, t, x):
        """Velocity at (t, x): linear interpolation between cell midpoints,
        edge values extended through the padded band outside the box."""
        row = self._row(t)
        x = np.asarray(x, dtype=float)
        lo, hi = self._bounds
        if x.size and (x.min() < lo or x.max() > hi):
            raise OutOfDomain("characteristic left the padded domain")
        return np.interp(x, self.centers, row)


def _rk4_steps(velocity, t0, t1):
    """flow_map's RK4 step h from t0 to t1, negative going backward, and,
    per step, its sample times t0 +- (s, s + |h|/2, s + |h|), with s
    advanced from 0 by repeated addition of |h|."""
    h_target = min(velocity.pair.grid.dx, velocity.spec.epsilon / 4.0)
    n = max(1, int(math.ceil(abs(t1 - t0) / h_target)))
    h = (t1 - t0) / n
    size, sign = abs(h), math.copysign(1.0, h)
    starts = itertools.accumulate([size] * (n - 1), initial=0.0)
    return h, [(t0 + sign * s, t0 + sign * (s + 0.5 * size),
                t0 + sign * (s + size)) for s in starts]


def flow_map(velocity, t0, t1, x0):
    """RK4 integration of dx/dt = velocity.sample(t, x) from t0 to t1,
    backward in time when t1 < t0, on sample times first named to
    velocity.plan. A backward run is bitwise the forward run from 0 of the
    reflected field -velocity(t0 - s, x), as negation is exact."""
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if t1 - t0 == 0.0:
        return x if np.ndim(x0) else float(x[0])
    h, steps = _rk4_steps(velocity, t0, t1)
    velocity.plan([t for step in steps for t in step])
    for t, t_mid, t_end in steps:
        k1 = velocity.sample(t, x)
        k2 = velocity.sample(t_mid, x + 0.5 * h * k1)
        k3 = velocity.sample(t_mid, x + 0.5 * h * k2)
        k4 = velocity.sample(t_end, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
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

    fields = []
    for t in record_times:
        if t == 0.0:
            w_vals = lam0 * rho0_smooth
        else:
            back = flow_map(velocity, t, 0.0, centers)
            lam = np.interp(back, centers, lam0)
            w_vals = lam * _convolve(pair.rho_at(t), kernel).values
        fields.append(CellField(pair.grid, w_vals, w0.boundary))
    return Trajectory([float(t) for t in record_times], fields,
                      {"mollifier": spec.epsilon})


def renorm_residual(pair, w_traj, beta, test_fns):
    """Weak residual of the renormalized equation for u = w/rho.

    Tests  rho beta(u) phi_t + b rho beta(u) phi_x  against each test
    function; for solutions of the continuity equation with the recorded
    density this vanishes up to discretization error.
    """

    def arrays(js):
        v = _stack(pair.rho.fields, js)
        w = _stack(w_traj.fields, js)
        u = np.where(v != 0.0, w / np.where(v != 0.0, v, 1.0), 0.0)
        bu = np.asarray(beta(u), dtype=float)
        b = np.asarray(pair.b_of(v), dtype=float)
        return v * bu, b * v * bu

    return _worst_residual(
        abs(r) for r in _spacetime_quadrature(w_traj, arrays, test_fns))
