"""Keyfitz-Kranzer splitting: flux certification, vacuum guard, and the
renormalization gap."""
import math

import numpy as np
import pytest

from splitlaw.core import (CellField, Grid1D, SplitTrajectory, Trajectory,
                           project)
from splitlaw.errors import HypothesisViolation, InvalidArgument, InvalidFlux
from splitlaw.kk import (KKState, affine_speed, kk_flux,
                         renormalization_defect, solve_kk)
from splitlaw.scalar import ScalarConfig


def _f(r):
    return 1.0 + np.asarray(r, dtype=float)


def _fprime(r):
    return np.ones_like(np.asarray(r, dtype=float))


def _riemann(grid, left, right):
    return project(lambda x: np.where(np.asarray(x) < 0.0, left, right), grid)


def test_kk_flux_certifies_uniform_convexity():
    flux = kk_flux(_f, _fprime, (0.25, 1.5))
    assert flux.convexity == "convex"
    assert flux.c == pytest.approx(2.0, abs=1e-6)
    assert float(flux.g(0.5)) == pytest.approx(0.75)
    assert float(flux.gprime(0.5)) == pytest.approx(2.0)
    # a degenerate range is widened; a reversed or non-finite one is refused
    assert kk_flux(_f, _fprime, (1.0, 1.0)).c == pytest.approx(2.0, abs=1e-6)
    for bad in ((1.5, 0.25), (1.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(InvalidArgument, match="finite with lo <= hi"):
            kk_flux(_f, _fprime, bad)


def test_kk_flux_rejects_linear_and_concave_speeds():
    with pytest.raises(InvalidFlux):
        kk_flux(lambda r: np.ones_like(np.asarray(r, dtype=float)),
                lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                (0.25, 1.5))
    with pytest.raises(InvalidFlux):
        kk_flux(lambda r: 1.0 / (1.0 + np.asarray(r, dtype=float)),
                lambda r: -1.0 / (1.0 + np.asarray(r, dtype=float)) ** 2,
                (0.25, 1.5))


def test_non_finite_direction_speeds_are_refused():
    for a, b in ((math.nan, 1.0), (math.inf, 1.0), (1.0, -math.inf)):
        with pytest.raises(InvalidArgument, match="must be finite"):
            affine_speed(a, b)
    # a speed whose second differences are NaN certifies no convexity
    with pytest.raises(InvalidFlux, match="measured lower bound nan"):
        kk_flux(lambda r: np.full_like(np.asarray(r, dtype=float), math.nan),
                _fprime, (0.25, 1.5))


def test_kk_state_norm_and_validation():
    grid = Grid1D(-2.0, 2.0, 16)
    state = KKState([CellField(grid, np.full(16, 3.0)),
                     CellField(grid, np.full(16, 4.0))])
    assert state.k == 2
    assert np.allclose(state.norm().values, 5.0)
    with pytest.raises(InvalidArgument):
        KKState([])
    with pytest.raises(InvalidArgument):
        KKState([CellField(grid, np.ones(16)),
                 CellField(Grid1D(-2.0, 2.0, 8), np.ones(8))])
    with pytest.raises(InvalidArgument):
        KKState([CellField(grid, np.full(16, np.nan))])


def test_vacuum_data_is_rejected():
    grid = Grid1D(-2.0, 2.0, 64)
    U0 = KKState([_riemann(grid, 1.0, 0.0),
                  project(lambda x: np.zeros_like(np.asarray(x)), grid)])
    with pytest.raises(HypothesisViolation):
        solve_kk(U0, _f, _fprime, ScalarConfig(t_end=0.1))


def test_constant_direction_reduces_to_the_scalar_law():
    grid = Grid1D(-2.0, 2.0, 128)
    rho0 = _riemann(grid, 1.0, 0.5)
    U0 = KKState([rho0.with_values(0.6 * rho0.values),
                  rho0.with_values(0.8 * rho0.values)])
    cfg = ScalarConfig(t_end=0.5, record_times=[0.25, 0.5])
    traj = solve_kk(U0, _f, _fprime, cfg)
    for state in traj.states:
        norm = state.norm().values
        assert np.min(norm) > 0.0
        theta1 = state.components[0].values / norm
        theta2 = state.components[1].values / norm
        assert np.max(np.abs(theta1 - 0.6)) <= 1e-10
        assert np.max(np.abs(theta2 - 0.8)) <= 1e-10


def test_transported_modulus_never_exceeds_the_scalar_run():
    grid = Grid1D(-2.0, 2.0, 256)
    U0 = KKState([_riemann(grid, 0.75, 0.25), _riemann(grid, 0.25, 0.75)])
    cfg = ScalarConfig(t_end=0.5, record_times=[0.25, 0.5])
    traj = solve_kk(U0, _f, _fprime, cfg)
    excess, gap = renormalization_defect(traj, window=(-1.5, 1.5))
    assert excess <= 1e-12
    assert gap <= 0.05
    assert traj.meta["c"] > 0.0
    assert traj.meta["speed_bound"] >= 2.0


def test_renormalization_defect_is_nan_when_a_record_is_nan():
    """max(0.0, nan) is 0.0, so a NaN modulus record used to read as a
    perfect match; both the excess and the gap now report it."""
    grid = Grid1D(-1.0, 1.0, 4)
    U = KKState([CellField(grid, [0.6] * 4), CellField(grid, [0.8] * 4)])
    rho = CellField(grid, [1.0] * 4)
    holed = CellField(grid, [1.0, np.nan, 1.0, 1.0])
    times = [0.0, 0.5, 1.0]

    def traj(rhos):
        return SplitTrajectory(times, [U, U.copy(), U.copy()],
                               Trajectory(times, rhos), [], {})

    excess, gap = renormalization_defect(traj([rho, holed, rho]))
    assert math.isnan(excess) and math.isnan(gap)
    assert renormalization_defect(traj([rho, rho, rho])) == (0.0, 0.0)


def test_trajectory_accessors():
    grid = Grid1D(-2.0, 2.0, 64)
    U0 = KKState([_riemann(grid, 0.5, 0.25), _riemann(grid, 0.25, 0.5)])
    cfg = ScalarConfig(t_end=0.25, record_times=[0.25])
    traj = solve_kk(U0, _f, _fprime, cfg)
    assert traj.states[0].k == 2
    assert len(traj) == 2
    assert traj.grid == grid
    rho0 = traj.v_traj.fields[0].values
    assert np.allclose(traj.states[0].norm().values, rho0, atol=1e-12)
