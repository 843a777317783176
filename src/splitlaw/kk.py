"""Keyfitz-Kranzer system U_t + (f(|U|) U)_x = 0 by modulus-angle splitting.

The modulus rho = |U| solves the scalar law with flux rho f(rho); each
component then rides the continuity equation with velocity f(rho) locked
to the recorded scalar run. The defining property of the solutions built
this way is that the transported |U| never exceeds the scalar rho, and
the two agree in L1 as the grid refines.
"""
import math
from dataclasses import replace

import numpy as np

from .core import CellField, FluxFunction, Trajectory
from .errors import HypothesisViolation, InvalidArgument, InvalidFlux
from .scalar import solve_scalar
from .transport import solve_continuity_upwind

_CONVEXITY_FLOOR = 1e-8
_SECOND_DIFF_POINTS = 257


class KKState:
    """Vector state with its cellwise Euclidean modulus."""

    def __init__(self, components):
        components = list(components)
        if not components:
            raise InvalidArgument("need at least one component")
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

    def norm(self):
        sq = np.zeros(self.grid.n)
        for comp in self.components:
            sq += comp.values * comp.values
        return CellField(self.grid, np.sqrt(sq), self.boundary)


def kk_flux(f, fprime, rho_range):
    """Flux rho -> rho f(rho), certified uniformly convex on the range.

    Uniform convexity is measured by second differences on a 257-point
    grid; a floor at 1e-8 rejects linear and degenerate cases.
    """
    lo, hi = float(rho_range[0]), float(rho_range[1])
    if lo > hi:
        lo, hi = hi, lo
    if lo == hi:
        lo -= 0.5
        hi += 0.5

    def g(r):
        r = np.asarray(r, dtype=float)
        out = r * np.asarray(f(r), dtype=float)
        return out if out.shape else float(out)

    def gp(r):
        r = np.asarray(r, dtype=float)
        out = np.asarray(f(r), dtype=float) + r * np.asarray(fprime(r), dtype=float)
        return out if out.shape else float(out)

    z = np.linspace(lo, hi, _SECOND_DIFF_POINTS)
    h = z[1] - z[0]
    gz = np.asarray(g(z), dtype=float)
    second = (gz[2:] - 2.0 * gz[1:-1] + gz[:-2]) / (h * h)
    c_meas = float(np.min(second))
    if c_meas <= _CONVEXITY_FLOOR:
        raise InvalidFlux(
            f"rho f(rho) is not uniformly convex on [{lo}, {hi}]: "
            f"measured lower bound {c_meas:.3e}")
    return FluxFunction(g=g, gprime=gp, convexity="convex", c=c_meas,
                        name="rho*f(rho)")


class KKTrajectory:
    """Recorded component trajectories plus the scalar modulus run.

    rho at each record time is the scalar solver's output, deliberately
    not recomputed from the components; the gap between it and the
    transported |U| is the quantity renormalization_defect measures.
    """

    def __init__(self, times, comp_trajs, rho_traj, meta=None):
        self.times = list(map(float, times))
        self.comp_trajs = list(comp_trajs)
        self.rho_traj = rho_traj
        self.meta = dict(meta or {})

    @property
    def grid(self):
        return self.rho_traj.grid

    @property
    def k(self):
        return len(self.comp_trajs)

    def state_at_index(self, j):
        return KKState([ct.fields[j] for ct in self.comp_trajs])

    def rho_at_index(self, j):
        return self.rho_traj.fields[j]

    def __len__(self):
        return len(self.times)


def solve_kk(U0, f, fprime, config):
    """Split solve of the system from vacuum-free data."""
    rho0 = U0.norm()
    if float(np.min(rho0.values)) <= 0.0:
        raise HypothesisViolation("initial modulus must stay away from zero")
    from .transport import joint_speed_flux
    flux = joint_speed_flux(
        kk_flux(f, fprime,
                (float(np.min(rho0.values)), float(np.max(rho0.values)))),
        f)
    rho_traj = solve_scalar(flux, rho0, replace(config, record_fluxes=True))

    comp_trajs = [solve_continuity_upwind(rho_traj, f, comp)
                  for comp in U0.components]
    meta = {"c": flux.c, "speed_bound": rho_traj.meta["speed_bound"]}
    return KKTrajectory(rho_traj.times, comp_trajs, rho_traj, meta)


def renormalization_defect(traj, window=None):
    """(pointwise excess, L1 gap) between the transported |U| and rho.

    The excess is the worst (|U| - rho)+ over all cells and record times;
    the gap is the worst windowed L1 distance over record times.
    """
    from .core import _window_slice
    idx = _window_slice(traj.grid, window)
    excess = 0.0
    gap = 0.0
    for j in range(len(traj)):
        normU = traj.state_at_index(j).norm().values
        rho = traj.rho_at_index(j).values
        diff = normU - rho
        excess = max(excess, float(np.max(diff)))
        gap = max(gap, traj.grid.dx * math.fsum(
            abs(float(d)) for d in diff[idx]))
    return max(0.0, excess), gap
