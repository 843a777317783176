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
                   _exact_sum, _window_slice, _worst_residual)
from .errors import HypothesisViolation, InvalidArgument, InvalidFlux
from .scalar import _each_row
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


def affine_speed(a, b):
    """The direction speed f(rho) = a + b rho and its derivative, as the
    pair (f, fprime) that solve_kk takes. f carries the buffer form
    f.into(rho, out), which writes f(rho) into out with f's operations,
    so kk_flux gives rho f(rho) a buffer form too. a and b must be finite."""
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidArgument(f"affine speed ({a!r}, {b!r}) must be finite")

    def f(r):
        return a + b * np.asarray(r, dtype=float)

    def into(r, out):
        # b * r, then a + that: IEEE multiplication and addition commute
        np.multiply(r, b, out=out)
        np.add(out, a, out=out)

    f.into = into
    return f, lambda r: np.full_like(np.asarray(r, dtype=float), b)


def kk_flux(f, fprime, rho_range):
    """Flux rho -> rho f(rho), certified uniformly convex on the range.

    Uniform convexity is measured by second differences on a 257-point
    grid; a floor at 1e-8 rejects linear and degenerate cases. The range
    (lo, hi) must be finite with lo <= hi; lo == hi is widened by 0.5 on
    each side. When f has a buffer form f.into(rho, out) (affine_speed's
    f does), the flux gets the buffer form g_into: f(rho) written into
    out, then rho times it.
    """
    lo, hi = float(rho_range[0]), float(rho_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise InvalidArgument(
            f"modulus range must be finite with lo <= hi, got ({lo}, {hi})")
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
    # on a range so narrow that h * h is 0 the quotient is NaN or inf,
    # which certifies nothing: it is refused below or by FluxFunction
    with np.errstate(divide="ignore", invalid="ignore"):
        second = (gz[2:] - 2.0 * gz[1:-1] + gz[:-2]) / (h * h)
    c_meas = float(np.min(second))
    if not c_meas > _CONVEXITY_FLOOR:  # a NaN bound certifies nothing
        raise InvalidFlux(
            f"rho f(rho) is not uniformly convex on [{lo}, {hi}]: "
            f"measured lower bound {c_meas:.3e}")
    g_into = None
    f_into = getattr(f, "into", None)
    if f_into is not None:
        def g_into(r, out):
            f_into(r, out)
            np.multiply(r, out, out=out)
    return FluxFunction(g=g, gprime=gp, convexity="convex", c=c_meas,
                        name="rho*f(rho)", g_into=g_into)


def solve_kk(U0, f, fprime, config):
    """Split solve of the system from vacuum-free data.

    v_traj of the result is the scalar modulus run rho and w_trajs are the
    component runs; states[j] holds the transported components.
    """
    return solve_kk_many([U0], f, fprime, config)[0]


def solve_kk_many(U0s, f, fprime, config):
    """solve_kk for B states under one config or one per state, stepped as
    one split march (transport.solve_split_many) on any grids. The rows
    share f and f'; each row's flux rho f(rho) is certified on its own
    modulus range, and its meta["c"] is the constant certified there. Each
    row is bitwise its solve_kk. Returns one trajectory per state.
    """
    def modulus(U0):  # rho0 and the flux certified on its range
        rho0 = U0.norm()
        lo, hi = float(np.min(rho0.values)), float(np.max(rho0.values))
        if lo <= 0.0:
            raise HypothesisViolation(
                "initial modulus must stay away from zero")
        return rho0, kk_flux(f, fprime, (lo, hi))

    rho0s, fluxes = zip(*_each_row(U0s, modulus))
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
    the gap is the worst windowed L1 distance over record times. Each is
    NaN when a record is NaN.
    """
    idx = _window_slice(traj.grid, window)
    excesses = []
    gaps = []
    for state, rho in zip(traj.states, traj.v_traj.fields):
        diff = state.norm().values - rho.values
        excesses.append(float(np.max(diff)))
        gaps.append(traj.grid.dx * _exact_sum(np.abs(diff[idx])))
    return _worst_residual(excesses), _worst_residual(gaps)
