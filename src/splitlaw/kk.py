"""Keyfitz-Kranzer system U_t + (f(|U|) U)_x = 0 by modulus-angle splitting.

The modulus rho = |U| solves the scalar law with flux rho f(rho); each
component then rides the continuity equation with velocity f(rho) locked
to the recorded scalar run. The defining property of the solutions built
this way is that the transported |U| never exceeds the scalar rho, and
the two agree in L1 as the grid refines.
"""
import math

import numpy as np

from .core import (CellField, FluxFunction, SplitTrajectory, VectorState,
                   _window_slice)
from .errors import HypothesisViolation, InvalidFlux, SplitlawError
from .scalar import _batch_grid, _in_row
from .transport import solve_split_many

_CONVEXITY_FLOOR = 1e-8
_SECOND_DIFF_POINTS = 257


class KKState(VectorState):
    """Vector state with its cellwise Euclidean modulus."""

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


def solve_kk(U0, f, fprime, config):
    """Split solve of the system from vacuum-free data.

    v_traj of the result is the scalar modulus run rho and w_trajs are the
    component runs; states[j] holds the transported components.
    """
    return solve_kk_many([U0], f, fprime, config)[0]


def solve_kk_many(U0s, f, fprime, config):
    """solve_kk for B states on one grid under one config, stepped as one
    (B, n) split march (transport.solve_split_many). The rows share f and
    f'; each row's flux rho f(rho) is certified on its own modulus range,
    and its meta["c"] is the constant certified there. Each row is bitwise
    its solve_kk. Returns one trajectory per state.
    """
    _batch_grid(U0s)
    rho0s = []
    fluxes = []
    for r, U0 in enumerate(U0s):
        try:
            rho0 = U0.norm()
            if float(np.min(rho0.values)) <= 0.0:
                raise HypothesisViolation(
                    "initial modulus must stay away from zero")
            fluxes.append(kk_flux(f, fprime, (float(np.min(rho0.values)),
                                              float(np.max(rho0.values)))))
        except SplitlawError as exc:
            raise _in_row(exc, r, len(U0s)) from None
        rho0s.append(rho0)
    # the fluxes differ only in the certified c, which the march never reads
    runs = solve_split_many(fluxes[0], f, rho0s,
                            [U0.components for U0 in U0s], config)
    trajs = []
    for flux, (v_traj, w_trajs) in zip(fluxes, runs):
        states = [KKState([wt.fields[j] for wt in w_trajs])
                  for j in range(len(v_traj))]
        meta = {"c": flux.c, "speed_bound": v_traj.meta["speed_bound"]}
        trajs.append(SplitTrajectory(v_traj.times, states, v_traj, w_trajs,
                                     meta))
    return trajs


def renormalization_defect(traj, window=None):
    """(pointwise excess, L1 gap) between the transported |U| and rho.

    The excess is the worst (|U| - rho)+ over all cells and record times;
    the gap is the worst windowed L1 distance over record times.
    """
    idx = _window_slice(traj.grid, window)
    excess = 0.0
    gap = 0.0
    for state, rho in zip(traj.states, traj.v_traj.fields):
        diff = state.norm().values - rho.values
        excess = max(excess, float(np.max(diff)))
        gap = max(gap, traj.grid.dx * math.fsum(np.abs(diff[idx]).tolist()))
    return max(0.0, excess), gap
