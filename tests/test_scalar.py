"""Godunov solver, exact Riemann fans, and the scalar theorem-checkers."""
import copy
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitlaw.chroma import ChromState, admissibility_residual, lift_entropy
from splitlaw.core import (
    CellField,
    FluxFunction,
    Grid1D,
    SplitTrajectory,
    Trajectory,
    bump_test,
    burgers_flux,
    chromatography_flux,
    lp_distance,
    mass,
    project,
)
from splitlaw import _kernels, scalar
from splitlaw.cli import _parse_direction_speed
from splitlaw.kk import affine_speed, kk_flux
from splitlaw.errors import (HypothesisViolation, InvalidArgument,
                             NumericalBlowup, SplitlawError, UnsupportedFlux)
from splitlaw.scalar import (
    _Selection,
    _dt_from_speed,
    _spacetime_quadrature,
    _time_steps,
    RiemannFan,
    ScalarConfig,
    comparison_defect,
    critical_point,
    entropy_residual,
    max_principle_defect,
    oleinik_excess,
    solve_scalar,
    tvd_defect,
)
from splitlaw.transport import TransportPair, renorm_residual, solve_split
# a test helper: no caller in the package needs the continuity residual
from test_transport import continuity_residual


def _riemann(grid, left, right):
    return project(lambda x: np.where(np.asarray(x) < 0.0, left, right), grid)


def test_critical_point_interior_minimum():
    assert abs(critical_point(burgers_flux(), -1.0, 2.0)) <= 1e-12
    # argument order does not matter
    assert abs(critical_point(burgers_flux(), 2.0, -1.0)) <= 1e-12


def test_critical_point_monotone_ranges_return_infinities():
    flux = burgers_flux()
    assert critical_point(flux, 0.5, 2.0) == -math.inf
    assert critical_point(flux, -2.0, -0.5) == math.inf
    # v/(1+v) is increasing everywhere, concave convention gives +inf
    assert critical_point(chromatography_flux(), 0.0, 3.0) == math.inf


def test_critical_point_needs_curvature_class():
    linear = FluxFunction(g=lambda v: v, gprime=lambda v: np.ones_like(
        np.asarray(v, dtype=float)), convexity="none")
    with pytest.raises(UnsupportedFlux):
        critical_point(linear, 0.0, 1.0)


def _interface_flux(flux, a, b):
    """The Godunov flux between the states a and b: one interface of
    _Selection, with the critical point of g between them."""
    omega = critical_point(flux, min(a, b), max(a, b))
    g_omega = float(flux.g(omega)) if math.isfinite(omega) else 0.0
    select = _Selection((1, 1), flux.convexity == "convex")
    G = select(*(np.array([[float(x)]]) for x in (a, b, flux.g(a), flux.g(b))),
               omega, g_omega)
    return float(G[0, 0])


def test_godunov_flux_extremes():
    flux = burgers_flux()
    assert _interface_flux(flux, 1.0, 0.0) == pytest.approx(1.0)
    assert _interface_flux(flux, 0.0, 1.0) == pytest.approx(0.0)
    assert _interface_flux(flux, -1.0, 1.0) == pytest.approx(0.0, abs=1e-24)
    assert _interface_flux(flux, 1.0, -1.0) == pytest.approx(1.0)
    chrom = chromatography_flux()
    # increasing flux: always the upwind (left) value
    assert _interface_flux(chrom, 0.5, 2.0) == pytest.approx(0.5 / 1.5)
    assert _interface_flux(chrom, 2.0, 0.5) == pytest.approx(2.0 / 3.0)


@given(
    a=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    b=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    d=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_godunov_flux_consistency_and_monotonicity(a, b, d):
    """H(a, a) = g(a); H grows in the left state and shrinks in the right."""
    flux = burgers_flux()
    assert _interface_flux(flux, a, a) == float(flux.g(a))
    base = _interface_flux(flux, a, b)
    assert _interface_flux(flux, a + d, b) >= base - 1e-12
    assert _interface_flux(flux, a, b + d) <= base + 1e-12


def test_riemann_fan_shock_kinds():
    fan = RiemannFan(burgers_flux(), 1.0, 0.0)
    assert fan.kind == "shock"
    assert fan.speed == pytest.approx(1.0)
    assert fan.eval(0.99) == 1.0
    assert fan.eval(1.01) == 0.0
    # concave flux: increasing jump is the compressive one
    chrom = RiemannFan(chromatography_flux(), 0.0, 1.0)
    assert chrom.kind == "shock"
    assert chrom.speed == pytest.approx(0.5)


def test_riemann_fan_rarefaction_profile():
    fan = RiemannFan(burgers_flux(), 0.0, 1.0)
    assert fan.kind == "rarefaction"
    assert fan.edge_speeds == (0.0, 2.0)
    assert fan.eval(-0.1) == 0.0
    assert fan.eval(2.1) == 1.0
    assert fan.eval(1.0) == pytest.approx(0.5, abs=1e-10)
    chrom = RiemannFan(chromatography_flux(), 1.0, 0.0)
    assert chrom.kind == "rarefaction"
    assert chrom.edge_speeds == (0.25, 1.0)
    # g'(v) = 1/2 at v = sqrt(2) - 1
    assert chrom.eval(0.5) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-10)


def test_riemann_fan_constant_and_flux_requirements():
    fan = RiemannFan(burgers_flux(), 0.7, 0.7)
    assert fan.kind == "constant"
    assert fan.eval(np.array([-1.0, 0.0, 1.0])).tolist() == [0.7, 0.7, 0.7]
    linear = FluxFunction(g=lambda v: v, gprime=lambda v: 1.0, convexity="none")
    with pytest.raises(UnsupportedFlux):
        RiemannFan(linear, 0.0, 1.0)


def test_riemann_fan_and_bump_test_refuse_garbage():
    """Each used to give garbage or a bare Python error: a NaN state read
    zeros everywhere, an inf state inf, a negative state of v/(1+v) a
    ZeroDivisionError or a value outside the admissible range, and a
    reversed or NaN support a bump that is 1 or 0 everywhere."""
    chrom = chromatography_flux()
    for v_l, v_r in ((math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf),
                     (-1.0, 0.0), (-2.0, 0.5)):
        with pytest.raises(InvalidArgument):
            RiemannFan(chrom, v_l, v_r)
    for support in ((0.5, 0.1, -1.0, 1.0), (0.1, 0.5, 1.0, -1.0),
                    (0.1, 0.1, -1.0, 1.0), (math.nan, 0.5, -1.0, 1.0),
                    (0.1, 0.5, -math.inf, 1.0)):
        with pytest.raises(InvalidArgument, match="finite and increasing"):
            bump_test(*support)


_HOSTILE = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -2.0, 0.0]),
    st.floats(min_value=-10.0, max_value=10.0))


@settings(max_examples=100, deadline=None)
@given(a=_HOSTILE, b=_HOSTILE, c=_HOSTILE, d=_HOSTILE,
       convex=st.booleans())
# a space support one smallest normal float wide put s = x / d past the
# float range, and one subnormal float wide overflowed pi / d
@example(a=-1.0, b=0.0, c=0.0, d=2.2250738585072014e-308, convex=False)
@example(a=-1.0, b=0.0, c=0.0, d=5e-324, convex=True)
# kk_flux swapped a reversed range, warned twice on an infinite one, and
# divided by a zero h * h on a subnormal one
@example(a=1.5, b=0.25, c=0.0, d=1.0, convex=True)
@example(a=1.0, b=math.inf, c=0.0, d=1.0, convex=True)
@example(a=0.0, b=5e-324, c=0.0, d=1.0, convex=True)
def test_hostile_scalars_give_a_typed_error_or_a_finite_result(a, b, c, d,
                                                                convex):
    xs = np.linspace(-2.0, 2.0, 9)
    try:
        fan = RiemannFan(burgers_flux() if convex else chromatography_flux(),
                         a, b)
    except SplitlawError:
        pass
    else:
        assert np.isfinite(fan.eval(xs)).all()
    try:
        tf = bump_test(a, b, c, d)
    except SplitlawError:
        pass
    else:
        for f, at in ((tf.ft, xs), (tf.dft, xs), (tf.fx, xs), (tf.dfx, xs)):
            assert np.isfinite(f(at)).all()
    # kk copies a flux's convexity constant into its meta: a NaN or negative
    # one is refused
    try:
        flux = FluxFunction(g=np.square, gprime=lambda v: 2.0 * v,
                            convexity="convex" if convex else "none", c=c)
    except SplitlawError:
        assert not (math.isfinite(c) and c >= 0.0)
    else:
        assert math.isfinite(flux.c) and flux.c >= 0.0
    # kk_flux certifies rho f(rho) on (a, b): a reversed or non-finite
    # range used to be swapped, or measured with warnings and then refused
    # as not convex
    try:
        kk = kk_flux(*affine_speed(1.0, 1.0), (a, b))
    except InvalidArgument:
        assert not (math.isfinite(a) and math.isfinite(b) and a <= b)
    except SplitlawError:  # too narrow a range to measure convexity on
        assert 0.0 < b - a < 1e-3
    else:
        assert a <= b and math.isfinite(kk.c) and kk.c > 0.0


def test_scalar_config_validation():
    with pytest.raises(InvalidArgument):
        ScalarConfig(t_end=1.0, cfl=1.5)
    with pytest.raises(InvalidArgument):
        ScalarConfig(t_end=0.0)
    with pytest.raises(InvalidArgument):
        ScalarConfig(t_end=1.0, fixed_dt=-0.1)
    with pytest.raises(InvalidArgument):
        ScalarConfig(t_end=1.0, record_times=[1.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scalar_config_rejects_non_finite_times(bad):
    # the time loop would never reach a nan t_end
    with pytest.raises(InvalidArgument):
        ScalarConfig(t_end=bad)
    with pytest.raises(InvalidArgument):
        ScalarConfig(t_end=1.0, fixed_dt=bad)
    with pytest.raises(InvalidArgument):
        ScalarConfig(t_end=1.0, record_times=[0.5, bad])


@pytest.mark.parametrize("small", [5e-324, 1e-320, sys.float_info.min / 2])
def test_scalar_config_rejects_subnormal_steps(small):
    # a subnormal cfl or fixed_dt gives a step that cannot advance t
    with pytest.raises(InvalidArgument):
        ScalarConfig(t_end=1.0, cfl=small)
    with pytest.raises(InvalidArgument):
        ScalarConfig(t_end=1.0, fixed_dt=small)
    ScalarConfig(t_end=1.0, cfl=sys.float_info.min,
                 fixed_dt=sys.float_info.min)


def test_a_step_that_cannot_advance_t_is_refused():
    """dt underflowing to 0, or a later dt below half an ulp of t, would
    leave t where it is for ever."""
    cfg = ScalarConfig(t_end=1.0, cfl=0.5)
    with pytest.raises(InvalidArgument, match="no longer advances t=0.0 "
                                              "at step 0"):
        list(_time_steps(cfg, 1e-300, lambda: 1e30))
    speeds = iter([1.0, 1e20])
    with pytest.raises(InvalidArgument, match="no longer advances t=0.5 "
                                              "at step 1"):
        list(_time_steps(cfg, 1.0, lambda: next(speeds)))
    with pytest.raises(InvalidArgument, match="t_end / fixed_dt"):
        list(_time_steps(ScalarConfig(t_end=1e10, fixed_dt=1e-300), 1.0,
                         lambda: 1.0))


def test_solver_shock_tracks_the_exact_fan():
    grid = Grid1D(-2.0, 2.0, 512)
    v0 = _riemann(grid, 1.0, 0.0)
    cfg = ScalarConfig(t_end=0.5, record_times=[0.5])
    traj = solve_scalar(chromatography_flux(), v0, cfg)
    fan = RiemannFan(chromatography_flux(), 1.0, 0.0)
    exact = CellField(grid, fan.eval(grid.centers() / 0.5))
    assert lp_distance(traj.at(0.5), exact, 1) <= 0.02
    assert tvd_defect(traj) == 0.0
    assert max_principle_defect(traj) == 0.0


def test_solver_mass_balance_through_boundaries():
    # constant-extension ghosts: boundary fluxes are g at the edge states
    grid = Grid1D(-2.0, 2.0, 256)
    v0 = _riemann(grid, 1.0, 0.0)
    cfg = ScalarConfig(t_end=0.5, record_times=[0.25, 0.5])
    traj = solve_scalar(chromatography_flux(), v0, cfg)
    g = chromatography_flux().g
    for t in (0.25, 0.5):
        expected = mass(traj.at(0.0)) + t * (float(g(1.0)) - float(g(0.0)))
        assert mass(traj.at(t)) == pytest.approx(expected, abs=1e-10)


def test_fixed_dt_alignment_is_enforced():
    grid = Grid1D(-2.0, 2.0, 32)
    v0 = _riemann(grid, 1.0, 0.0)
    with pytest.raises(InvalidArgument):
        solve_scalar(chromatography_flux(), v0,
                     ScalarConfig(t_end=1.0, fixed_dt=0.3))
    with pytest.raises(InvalidArgument):
        solve_scalar(chromatography_flux(), v0,
                     ScalarConfig(t_end=1.0, record_times=[0.3],
                                  fixed_dt=0.125))
    # no two stops may round to one step, nor a stop to step 0
    for times, text in (([0.5, 0.5 + 1e-14, 1.0],
                         "0.5 and 0.50000000000001 both round to step 32"),
                        ([1e-14], "0.0 and 1e-14 both round to step 0")):
        with pytest.raises(InvalidArgument, match=f"record times {text} "
                                                  "of fixed_dt = 0.015625"):
            solve_scalar(chromatography_flux(), v0,
                         ScalarConfig(t_end=1.0, record_times=times,
                                      fixed_dt=1 / 64))


def test_every_accepted_fixed_dt_record_time_can_be_looked_up():
    """A fixed-dt record time is matched to its step within the tolerance
    Trajectory.at matches record times with: 1e-11 off a step is refused,
    and a time accepted 1e-14 off its step is looked up."""
    v0 = _riemann(Grid1D(-2.0, 2.0, 32), 1.0, 0.0)
    for t_end, times in ((1.0, [0.5 + 1e-11, 1.0]), (1.0 + 1e-11, [])):
        with pytest.raises(InvalidArgument, match="not .* fixed_dt"):
            solve_scalar(chromatography_flux(), v0,
                         ScalarConfig(t_end=t_end, record_times=times,
                                      fixed_dt=1 / 64))
    traj = solve_scalar(chromatography_flux(), v0,
                        ScalarConfig(t_end=1.0 + 1e-14,
                                     record_times=[0.5 + 1e-14],
                                     fixed_dt=1 / 64))
    assert traj.times == [0.0, 0.5, 1.0]
    assert traj.at(0.5 + 1e-14) is traj.fields[1]
    assert traj.at(1.0 + 1e-14) is traj.fields[2]


def test_fixed_dt_above_the_cfl_bound_is_rejected():
    # Burgers on [0, 1]: L = 2, dx = 1/16, so dt*L/dx = 32 dt
    grid = Grid1D(-2.0, 2.0, 64)
    v0 = _riemann(grid, 1.0, 0.0)
    with pytest.raises(HypothesisViolation, match=r"step 0, t=0\.0: .* = 8\.0 > 1"):
        solve_scalar(burgers_flux(), v0,
                     ScalarConfig(t_end=0.5, record_times=[0.5], fixed_dt=0.25))
    traj = solve_scalar(burgers_flux(), v0,
                        ScalarConfig(t_end=0.5, record_times=[0.5],
                                     fixed_dt=0.03125))
    assert len(traj.meta["dt_schedule"]) == 16
    assert max_principle_defect(traj) == 0.0


def _nan_speed_flux():
    """Burgers, with a speed bound that is not a number."""
    burgers = burgers_flux()
    return FluxFunction(g=burgers.g, gprime=burgers.gprime,
                        convexity="convex", c=1.0,
                        L_of_range=lambda lo, hi: math.nan)


def test_a_nan_speed_bound_breaks_the_cfl_check_with_fixed_dt():
    v0 = _riemann(Grid1D(-2.0, 2.0, 64), 1.0, 0.0)
    with pytest.raises(HypothesisViolation,
                       match=r"step 0, t=0\.0: dt\*L/dx = nan > 1$"):
        solve_scalar(_nan_speed_flux(), v0,
                     ScalarConfig(t_end=0.25, fixed_dt=1.0 / 256))


def test_a_nan_speed_bound_is_refused_in_adaptive_mode():
    v0 = _riemann(Grid1D(-2.0, 2.0, 64), 1.0, 0.0)
    with pytest.raises(HypothesisViolation, match=(
            r"^hypothesis-violation: no CFL step at step 0, t=0\.0: "
            r"L = nan$")):
        solve_scalar(_nan_speed_flux(), v0, ScalarConfig(t_end=0.25))


def test_solver_input_validation():
    grid = Grid1D(-2.0, 2.0, 32)
    v0 = _riemann(grid, 1.0, 0.0)
    linear = FluxFunction(g=lambda v: v, gprime=lambda v: np.ones_like(
        np.asarray(v, dtype=float)), convexity="none")
    with pytest.raises(UnsupportedFlux):
        solve_scalar(linear, v0, ScalarConfig(t_end=0.1))
    with pytest.raises(InvalidArgument):
        solve_scalar(chromatography_flux(), _riemann(grid, -1.0, 0.5),
                     ScalarConfig(t_end=0.1))
    bad = CellField(grid, np.full(32, np.nan))
    with pytest.raises(InvalidArgument):
        solve_scalar(burgers_flux(), bad, ScalarConfig(t_end=0.1))


def test_requested_records_are_present():
    grid = Grid1D(-2.0, 2.0, 64)
    v0 = _riemann(grid, 1.0, 0.0)
    cfg = ScalarConfig(t_end=0.5, record_times=[0.25, 0.5])
    traj = solve_scalar(chromatography_flux(), v0, cfg)
    assert traj.times == [0.0, 0.25, 0.5]
    assert "dt_schedule" in traj.meta
    assert "speed_bound" in traj.meta


def test_oleinik_excess_measures_one_sided_slopes():
    grid = Grid1D(-2.0, 2.0, 64)
    # rarefaction profile at t = 1: slopes exactly at the 1/(c t) bound
    fan = project(lambda x: np.clip(x / 2.0, 0.0, 1.0), grid)
    assert oleinik_excess(fan, 1.0, 2.0) <= 1e-12
    jump_up = project(lambda x: np.where(np.asarray(x) < 0.0, 0.0, 1.0), grid)
    assert oleinik_excess(jump_up, 1.0, 2.0) > 1.0
    # concave orientation looks at the reflected slopes
    jump_dn = project(lambda x: np.where(np.asarray(x) < 0.0, 1.0, 0.0), grid)
    assert oleinik_excess(jump_dn, 1.0, 2.0) == 0.0
    assert oleinik_excess(jump_dn, 1.0, 2.0, orientation="concave") > 1.0
    with pytest.raises(InvalidArgument):
        oleinik_excess(fan, 0.0, 2.0)
    with pytest.raises(InvalidArgument):
        oleinik_excess(fan, 1.0, -1.0)
    with pytest.raises(InvalidArgument):
        oleinik_excess(fan, 1.0, 2.0, orientation="sideways")


@pytest.mark.parametrize("orientation", ["convex", "concave"])
def test_oleinik_excess_is_nan_when_a_slope_is_nan(orientation):
    """max(0.0, nan) is 0.0, so a NaN slope used to read as no excess."""
    grid = Grid1D(-2.0, 2.0, 8)
    for values in ([0.0, 0.0, math.nan, 0.0, 0.0, 0.0, 0.0, 0.0],
                   [math.inf, math.inf, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]):
        with np.errstate(invalid="ignore"):  # inf - inf
            excess = oleinik_excess(CellField(grid, values), 1.0, 2.0,
                                    orientation)
        assert math.isnan(excess)


def kruzkov_pair(flux, kappa):
    """Kruzkov entropy |v - kappa| with its flux."""
    gk = float(flux.g(kappa))

    def eta(v):
        return np.abs(v - kappa)

    def q(v):
        return np.sign(v - kappa) * (np.asarray(flux.g(v), dtype=float) - gk)

    return eta, q


def test_kruzkov_pair_values():
    eta, q = kruzkov_pair(burgers_flux(), 0.5)
    assert float(eta(1.5)) == 1.0
    assert float(eta(0.5)) == 0.0
    # sign(v - kappa) * (g(v) - g(kappa))
    assert float(q(1.5)) == pytest.approx(2.25 - 0.25)
    assert float(q(-0.5)) == pytest.approx(-(0.25 - 0.25))
    assert float(q(0.0)) == pytest.approx(-(0.0 - 0.25))


def test_entropy_residual_flags_a_frozen_expansion_shock():
    grid = Grid1D(-1.0, 1.0, 200)
    frozen = CellField(grid, np.where(grid.centers() < 0.0, -1.0, 1.0))
    times = np.linspace(0.0, 0.5, 21)
    traj = Trajectory(times, [frozen.copy() for _ in times])
    pair = kruzkov_pair(burgers_flux(), 0.0)
    tests = [bump_test(0.1, 0.4, -0.5, 0.5)]
    assert entropy_residual(traj, pair, tests) >= 0.1


def test_entropy_residual_small_for_the_computed_rarefaction():
    grid = Grid1D(-2.0, 2.0, 256)
    v0 = _riemann(grid, -1.0, 1.0)
    cfg = ScalarConfig(t_end=0.5,
                       record_times=list(np.linspace(0.0, 0.5, 21)))
    traj = solve_scalar(burgers_flux(), v0, cfg)
    pair = kruzkov_pair(burgers_flux(), 0.0)
    tests = [bump_test(0.1, 0.4, -1.0, 1.0)]
    assert entropy_residual(traj, pair, tests) <= 0.02


def test_entropy_residual_is_nan_when_a_total_is_nan():
    """max() drops a NaN, so a NaN total used to read as a perfect 0.0."""
    grid = Grid1D(-1.0, 1.0, 200)
    frozen = CellField(grid, np.where(grid.centers() < 0.0, -1.0, 1.0))
    times = np.linspace(0.0, 0.5, 21)
    traj = Trajectory(times, [frozen.copy() for _ in times])
    eta, q = kruzkov_pair(burgers_flux(), 0.0)
    tests = [bump_test(0.1, 0.4, -0.5, 0.5)]
    assert entropy_residual(traj, (eta, q), tests) >= 0.1

    def holed_eta(v):
        return np.where(np.asarray(v) > 0.0, np.nan, eta(v))

    assert math.isnan(entropy_residual(traj, (holed_eta, q), tests))


def test_entropy_residual_requires_interior_test_support():
    grid = Grid1D(-1.0, 1.0, 16)
    f = CellField(grid, np.zeros(16))
    traj = Trajectory([0.0, 0.5], [f, f.copy()])
    pair = kruzkov_pair(burgers_flux(), 0.0)
    with pytest.raises(InvalidArgument):
        entropy_residual(traj, pair, [bump_test(0.0, 0.4, -0.5, 0.5)])
    with pytest.raises(InvalidArgument):
        entropy_residual(traj, pair, [bump_test(0.1, 0.6, -0.5, 0.5)])


def test_every_residual_checks_its_tests_through_the_quadrature():
    """The quadrature checks its tests itself, so each residual refuses a
    test that does not vanish near t = 0 and before the last record. A NaN
    end of a time support used to pass the check, since nan <= 0.0 is
    False."""
    grid = Grid1D(-1.0, 1.0, 16)
    f = CellField(grid, np.ones(16))
    traj = Trajectory([0.0, 0.5], [f, f.copy()])
    pair = TransportPair(traj, lambda v: 1.0 / (1.0 + v))
    split = SplitTrajectory(traj.times, [ChromState([f, f])] * 2, None, [],
                            {})
    lifted = lift_entropy(
        lambda v: v * v,
        lambda v: 2.0 * (np.log1p(v) + 1.0 / (1.0 + v) - 1.0), 0.0)
    residuals = (
        lambda tests: _spacetime_quadrature(
            traj, lambda js: (np.ones((2, 16)),) * 2, tests),
        lambda tests: entropy_residual(
            traj, kruzkov_pair(burgers_flux(), 0.0), tests),
        lambda tests: continuity_residual(pair, traj, tests),
        lambda tests: renorm_residual(pair, traj, np.abs, tests),
        lambda tests: admissibility_residual(split, [lifted], tests))
    for t_support in ((math.nan, 0.4), (0.1, math.nan), (0.0, 0.4),
                      (0.1, 0.6)):
        tf = bump_test(0.1, 0.4, -0.5, 0.5)
        tf.t_support = t_support
        for residual in residuals:
            with pytest.raises(InvalidArgument, match="test function"):
                residual([tf])


def _per_test_quadrature(traj, cell_arrays_at, test_fn):
    """The quadrature as it was written for one test function at a time:
    phi_t and phi_x evaluated whole at every record."""
    grid = traj.grid
    x = grid.centers()
    slabs = []
    for j, tj in enumerate(traj.times):
        A, B = cell_arrays_at(j)
        phit = np.asarray(test_fn.dft(tj) * test_fn.fx(x), dtype=float)
        phix = np.asarray(test_fn.ft(tj) * test_fn.dfx(x), dtype=float)
        slabs.append(grid.dx * math.fsum((A * phit + B * phix).tolist()))
    total = 0.0
    for j in range(len(slabs) - 1):
        dt = traj.times[j + 1] - traj.times[j]
        total += 0.5 * dt * (slabs[j] + slabs[j + 1])
    return total


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 40), nt=st.integers(2, 70), k=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1), poison=st.booleans())
def test_multi_test_quadrature_is_bitwise_the_per_test_loop(n, nt, k, seed,
                                                            poison):
    """Blocks of records, every test at once, give test by test the bits
    of the per-test loop over single records; a NaN cell still reaches
    every total."""
    rng = np.random.default_rng(seed)
    grid = Grid1D(-1.0, 1.0, n)
    times = np.cumsum(rng.uniform(0.01, 0.2, nt)) - 0.01
    traj = Trajectory(times, [CellField(grid, np.zeros(n)) for _ in times])
    A = rng.standard_normal((nt, n)) * 10.0 ** rng.integers(-3, 4)
    B = rng.standard_normal((nt, n))
    if poison:
        A[rng.integers(nt), rng.integers(n)] = np.nan
    tests = []
    for _ in range(k):
        t0, t1 = np.sort(rng.uniform(times[0], times[-1], 2))
        x0, x1 = np.sort(rng.uniform(-1.2, 1.2, 2))
        tests.append(bump_test(t0, t1, x0, x1))
    calls = []

    def arrays(js):
        calls.append(list(js))
        return A[js.start:js.stop], B[js.start:js.stop]

    got = _spacetime_quadrature(traj, arrays, tests)
    # consecutive blocks of at most 32 records, in order
    assert [j for js in calls for j in js] == list(range(nt))
    assert all(0 < len(js) <= 32 for js in calls)
    assert len(calls) == -(-nt // 32)
    want = [_per_test_quadrature(traj, lambda j: (A[j], B[j]), tf)
            for tf in tests]
    assert [r.hex() for r in got] == [r.hex() for r in want]
    assert all(math.isnan(r) for r in got) == poison


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 40), nt=st.integers(2, 100),
       seed=st.integers(0, 2 ** 32 - 1))
def test_support_only_quadrature_is_bitwise_the_full_row_sum(n, nt, seed):
    """Each test summed over its window of cells and records only gives the
    bits of the full-row fsum, on finite records with exact zeros of both
    signs, for supports inside, across or outside the grid, inside the
    record times, across the first or before it, and for supports between
    two cell centres or two records. A test must vanish before the last
    record, so no window reaches it."""
    rng = np.random.default_rng(seed)
    grid = Grid1D(-1.0, 1.0, n)
    times = np.cumsum(rng.uniform(0.01, 0.2, nt)) + 0.49
    traj = Trajectory(times, [CellField(grid, np.zeros(n)) for _ in times])
    # magnitudes far apart, so a sum in another order shows in the bits
    A, B = (rng.standard_normal((nt, n)) * 10.0 ** rng.integers(-150, 150,
                                                                (nt, n))
            for _ in range(2))
    A[rng.random((nt, n)) < 0.2] = 0.0
    B[rng.random((nt, n)) < 0.2] = -0.0
    tests = []
    for _ in range(3):
        t0, t1 = np.sort(rng.uniform(times[0] - 0.49, times[-1], 2))
        x0, x1 = np.sort(rng.uniform(-1.5, 1.5, 2))
        tests.append(bump_test(t0, t1, x0, x1))
    x, gap = grid.centers()[0], 0.25 * (times[1] - times[0])
    tests.append(bump_test(times[0], times[-1], x, x + 0.5 * grid.dx))
    tests.append(bump_test(times[0] + gap, times[1] - gap, -1.0, 1.0))

    def arrays(js):
        return A[js.start:js.stop], B[js.start:js.stop]

    got = _spacetime_quadrature(traj, arrays, tests)
    want = [_per_test_quadrature(traj, lambda j: (A[j], B[j]), tf)
            for tf in tests]
    assert [r.hex() for r in got] == [r.hex() for r in want]
    assert got[-2:] == [0.0, 0.0]


def test_an_entropy_residual_past_the_float_range_is_nan():
    """eta = 4v on +-1e308 data is +-inf, and fsum raises on inf + -inf;
    the residual reports NaN instead of raising."""
    grid = Grid1D(-1.0, 1.0, 8)
    field = CellField(grid, [1e308, -1e308] * 4)
    traj = Trajectory([0.0, 0.5, 1.0], [field] * 3)
    pair = (lambda v: 4.0 * v, lambda v: 4.0 * v)
    with np.errstate(over="ignore", invalid="ignore"):
        got = entropy_residual(traj, pair, [bump_test(0.2, 0.8, -0.5, 0.5)])
    assert math.isnan(got)


def test_periodic_tvd_defect_counts_the_seam():
    """On periodic data the interval variation can grow while the total
    variation around the circle falls; tvd_defect measures the latter.
    Read as constant-extension data, the same fields do show growth."""
    grid = Grid1D(-1.0, 1.0, 16)
    v0 = CellField(grid, [0.0, 0.0] + [0.125] * 14, "periodic")
    traj = solve_scalar(chromatography_flux(), v0,
                        ScalarConfig(t_end=0.5, record_times=[0.25, 0.5]))
    assert tvd_defect(traj) == 0.0
    interval = Trajectory(traj.times, [
        CellField(grid, f.values, "constant-extension") for f in traj.fields])
    assert tvd_defect(interval) > 0.02


def test_tvd_and_max_principle_defects_on_constructed_data():
    grid = Grid1D(0.0, 1.0, 3)
    a = CellField(grid, [0.0, 1.0, 0.0])
    b = CellField(grid, [0.0, 2.0, 0.0])
    traj = Trajectory([0.0, 1.0], [a, b])
    assert tvd_defect(traj) == pytest.approx(2.0)
    assert max_principle_defect(traj) == pytest.approx(1.0)
    flat = Trajectory([0.0, 1.0], [a, a.copy()])
    assert tvd_defect(flat) == 0.0
    assert max_principle_defect(flat) == 0.0


def _with_nan_record():
    """A hand-built run whose second record holds one NaN cell and whose
    other cells stay inside the initial range and variation."""
    grid = Grid1D(-1.0, 1.0, 4)
    a = CellField(grid, [0.0, 1.0, 1.0, 0.0])
    holed = CellField(grid, [0.0, np.nan, 0.5, 0.0])
    return Trajectory([0.0, 0.5, 1.0], [a, holed, a.copy()])


def test_tvd_defect_is_nan_when_a_record_is_nan():
    """max(0.0, nan) is 0.0, so a NaN record used to read as no growth."""
    assert math.isnan(tvd_defect(_with_nan_record()))


def test_max_principle_defect_is_nan_when_a_record_is_nan():
    assert math.isnan(max_principle_defect(_with_nan_record()))


def test_comparison_defect_is_nan_when_a_record_is_nan():
    """The positive part of a NaN difference is NaN, not a dropped cell."""
    traj = _with_nan_record()
    below = Trajectory(traj.times, [f.with_values(np.zeros(4))
                                    for f in traj.fields])
    assert math.isnan(comparison_defect(traj, below, 0.5))
    steady = Trajectory(traj.times, [traj.fields[0]] * 3)
    assert comparison_defect(steady, below, 0.5) == 0.0


def test_comparison_defect_vanishes_for_ordered_data():
    grid = Grid1D(-2.0, 2.0, 128)
    cfg = ScalarConfig(t_end=0.25, record_times=[0.25], fixed_dt=0.0078125)
    flux = chromatography_flux()
    traj_u = solve_scalar(flux, _riemann(grid, 1.0, 0.5), cfg)
    traj_v = solve_scalar(flux, _riemann(grid, 0.5, 0.25), cfg)
    assert comparison_defect(traj_u, traj_v, 1.0) == 0.0
    with pytest.raises(InvalidArgument):
        comparison_defect(traj_u, traj_v, 2.0)  # widened window leaves domain


def test_comparison_defect_requires_matching_runs():
    grid_a = Grid1D(-2.0, 2.0, 64)
    grid_b = Grid1D(-2.0, 2.0, 32)
    cfg = ScalarConfig(t_end=0.25, record_times=[0.25], fixed_dt=0.0078125)
    flux = chromatography_flux()
    ta = solve_scalar(flux, _riemann(grid_a, 1.0, 0.5), cfg)
    tb = solve_scalar(flux, _riemann(grid_b, 1.0, 0.5), cfg)
    with pytest.raises(InvalidArgument):
        comparison_defect(ta, tb, 1.0)


def _reference_solve_scalar(flux, init, config):
    """solve_scalar as a plain loop that rebuilds every step constant.

    Each step takes the speed bound, CellField.extended(1) and
    critical_point of the current data, with no reuse between steps.
    """
    grid = init.grid
    dx = grid.dx
    convex = 1 if flux.convexity == "convex" else 0
    stops = sorted({float(t) for t in config.record_times if t > 0.0})
    if not stops or stops[-1] != config.t_end:
        stops.append(config.t_end)
    v = init.values.astype(float).copy()
    times, fields = [0.0], [init.copy()]
    dt_schedule, record_steps = [], []
    speed_bound = 0.0
    t, step = 0.0, 0
    if config.fixed_dt is not None:
        n_steps = round(config.t_end / config.fixed_dt)
        stop_steps = [round(s / config.fixed_dt) for s in stops]
    stop_iter = iter(stops)
    next_stop = next(stop_iter)
    while True:
        if config.fixed_dt is not None:
            if step >= n_steps:
                break
            dt = config.fixed_dt
            lands = (step + 1) in stop_steps
            t_next = (step + 1) * dt
        else:
            if t >= config.t_end:
                break
            dt = _dt_from_speed(flux.L_of_range(float(v.min()),
                                                float(v.max())),
                                dx, config.cfl)
            lands = t + dt >= next_stop - 1e-14 * max(1.0, next_stop)
            if lands:
                dt = next_stop - t
                t_next = next_stop
            else:
                t_next = t + dt
        speed_bound = max(speed_bound,
                          flux.L_of_range(float(v.min()), float(v.max())))
        ve = CellField(grid, v, init.boundary).extended(1)
        gve = np.asarray(flux.g(ve), dtype=float)
        omega = critical_point(flux, float(ve.min()), float(ve.max()))
        g_omega = float(flux.g(omega)) if math.isfinite(omega) else 0.0
        G = _kernels.godunov_fluxes(ve[:-1], ve[1:], gve[:-1], gve[1:],
                                    g_omega, omega, convex)
        v = _kernels.scalar_step(v, np.asarray(G), dt / dx)
        dt_schedule.append(dt)
        t = t_next
        step += 1
        if lands:
            times.append(t)
            fields.append(CellField(grid, v.copy(), init.boundary))
            record_steps.append(step)
            if config.fixed_dt is None:
                nxt = next(stop_iter, None)
                if nxt is None:
                    break
                next_stop = nxt
    return times, fields, dt_schedule, record_steps, speed_bound


def _outflow_riemann(grid, left, right):
    return project(lambda x: np.where(np.asarray(x) < 0.0, left, right), grid)


def _smooth_periodic(grid, mean, amplitude):
    return project(
        lambda x: mean + amplitude * np.sin(0.5 * np.pi * np.asarray(x)),
        grid, boundary="periodic")


# Riemann outflow data keep their range, so the step constants are reused;
# smooth periodic data change the range every step. The Burgers data cross
# v = 0, where the critical point is interior and depends on the range.
_REFERENCE_CASES = [
    pytest.param(burgers_flux(), lambda g: _outflow_riemann(g, 1.0, -0.5),
                 id="burgers-riemann-outflow"),
    pytest.param(chromatography_flux(),
                 lambda g: _outflow_riemann(g, 1.0, 0.25),
                 id="chromatography-riemann-outflow"),
    pytest.param(burgers_flux(), lambda g: _smooth_periodic(g, 0.25, 0.5),
                 id="burgers-smooth-periodic"),
    pytest.param(chromatography_flux(),
                 lambda g: _smooth_periodic(g, 0.5, 0.25),
                 id="chromatography-smooth-periodic"),
]


@pytest.mark.parametrize("flux, data", _REFERENCE_CASES)
@pytest.mark.parametrize("fixed_dt", [None, 1.0 / 128.0],
                         ids=["adaptive", "fixed"])
def test_solver_is_bitwise_equal_to_the_per_step_reference(flux, data,
                                                           fixed_dt):
    grid = Grid1D(-2.0, 2.0, 96)
    v0 = data(grid)
    cfg = ScalarConfig(t_end=0.5, record_times=[0.125, 0.5],
                       fixed_dt=fixed_dt)
    traj = solve_scalar(flux, v0, cfg)
    times, fields, dts, rec, speed = _reference_solve_scalar(
        flux, v0, cfg)
    assert traj.times == times
    assert all(np.array_equal(a.values, b.values)
               for a, b in zip(traj.fields, fields, strict=True))
    assert traj.meta["dt_schedule"] == dts
    assert traj.meta["record_steps"] == rec
    assert traj.meta["speed_bound"] == speed


@pytest.mark.parametrize("fixed_dt", [None, 1.0 / 128.0])
def test_speed_bound_is_evaluated_once_per_data_range(fixed_dt):
    calls = []

    def L(lo, hi):
        calls.append((lo, hi))
        return 2.0 * max(abs(lo), abs(hi))

    base = burgers_flux()
    flux = FluxFunction(g=base.g, gprime=base.gprime, convexity="convex",
                        c=2.0, L_of_range=L, name="counted rho^2")
    cfg = ScalarConfig(t_end=0.5, record_times=[0.25, 0.5], fixed_dt=fixed_dt)
    v0 = _outflow_riemann(Grid1D(-2.0, 2.0, 64), 1.0, 0.25)
    traj = solve_scalar(flux, v0, cfg)
    # outflow Riemann data keeps its range [0.25, 1] under the max principle
    assert len(traj.meta["dt_schedule"]) > 1
    assert calls == [(0.25, 1.0)]


def test_a_range_that_alternates_reuses_its_step_constants(monkeypatch):
    """The update moves a constant state by an ulp and back: on Burgers
    Riemann data -1.0 | 1.5 the minimum alternates between -1.0 and
    -0.9999999999999999 on every step, so a one-range memory would find a
    new critical point (a bisection) on each of the 854 steps. The march
    keeps the constants of the range before and takes them back, with
    every bit of the per-step reference, which rebuilds them each step.
    The two ranges have critical points 2^-50 and 1.0875 * 2^-50, and
    each step selects with the one of its own range."""
    flux = burgers_flux()
    v0 = _riemann(Grid1D(-2.0, 2.0, 1024), -1.0, 1.5)
    cfg = ScalarConfig(t_end=0.5)
    ranges, used = [], []
    real = scalar.critical_point
    select = _Selection.__call__

    def counted(flux, lo, hi):
        ranges.append((lo, hi))
        return real(flux, lo, hi)

    def spied(self, a, b, ga, gb, omega, g_omega):
        used.append((float(a.min()), float(a.max()), omega, g_omega))
        return select(self, a, b, ga, gb, omega, g_omega)

    monkeypatch.setattr(scalar, "critical_point", counted)
    monkeypatch.setattr(_Selection, "__call__", spied)
    traj = solve_scalar(flux, v0, cfg)
    steps = len(traj.meta["dt_schedule"])
    assert steps == len(used) == 854
    assert ranges == [(-1.0, 1.5), (-0.9999999999999999, 1.5)]
    omegas = {r: real(flux, *r) for r in ranges}
    assert omegas[ranges[0]] != omegas[ranges[1]]
    for lo, hi, omega, g_omega in used:  # the ghosts copy the edge cells
        assert omega == omegas[lo, hi]
        assert g_omega == float(flux.g(omega))
    monkeypatch.undo()
    times, fields, dts, rec, speed = _reference_solve_scalar(flux, v0, cfg)
    assert traj.times == times
    assert [f.values.tobytes() for f in traj.fields] == [
        f.values.tobytes() for f in fields]
    assert traj.meta["dt_schedule"] == dts
    assert traj.meta["record_steps"] == rec
    assert traj.meta["speed_bound"] == speed


def _chromatography_case(grid):
    v0 = _riemann(grid, 1.0, 0.25)
    return (chromatography_flux(), v0, lambda v: 1.0 / (1.0 + v),
            [v0.with_values(0.5 * v0.values)])


def _burgers_case(grid):
    return burgers_flux(), _riemann(grid, -0.5, 1.0), None, None


def _kk_case(grid):
    """The CLI's affine direction speed: rho f(rho) = rho (1 + rho)."""
    f, fprime = _parse_direction_speed("affine(1.0, 1.0)")
    u1, u2 = _riemann(grid, 0.75, 0.25), _riemann(grid, 0.25, 0.75)
    rho0 = u1.with_values(np.hypot(u1.values, u2.values))
    return kk_flux(f, fprime, (0.25, 1.0)), rho0, f, [u1, u2]


def _march_with(flux, v0, b_of_v, w0s, cfg):
    if b_of_v is None:
        return solve_scalar(flux, v0, cfg), []
    return solve_split(flux, b_of_v, v0, w0s, cfg)


def _refusing_array_g(flux):
    """A copy of flux whose allocating g raises on an array: only its
    buffer form may evaluate g on the cells."""
    g = flux.g

    def scalar_g(v):
        if np.ndim(v):
            raise AssertionError("the allocating g was called on an array")
        return g(v)

    guarded = copy.copy(flux)
    guarded.g = scalar_g
    return guarded


@pytest.mark.parametrize("case", [_chromatography_case, _burgers_case,
                                  _kk_case], ids=["v/(1+v)", "rho^2", "kk"])
def test_built_in_fluxes_evaluate_g_into_the_step_buffer(case):
    """The step loop of a built-in flux (v/(1+v), Burgers, and kk's
    rho f(rho) for the CLI's affine f) never calls the allocating g on an
    array: g_into writes g into one buffer on every step. A user flux
    without g_into still runs, and every record is bitwise the same."""
    flux, v0, b_of_v, w0s = case(Grid1D(-2.0, 2.0, 64))
    cfg = ScalarConfig(t_end=0.5, record_times=[0.25, 0.5])
    guarded = _refusing_array_g(flux)
    calls = []

    def counted_into(v, out):
        calls.append(v.shape)
        flux.g_into(v, out)

    guarded.g_into = counted_into
    v_traj, w_trajs = _march_with(guarded, v0, b_of_v, w0s, cfg)
    assert len(calls) == len(v_traj.meta["dt_schedule"]) > 1

    user = copy.copy(flux)
    user.g_into = None
    want_v, want_ws = _march_with(user, v0, b_of_v, w0s, cfg)
    for got, want in zip([v_traj, *w_trajs], [want_v, *want_ws],
                         strict=True):
        assert got.times == want.times
        assert [f.values.tobytes() for f in got.fields] == [
            f.values.tobytes() for f in want.fields]
    # negative control: without g_into the guard sees the array calls
    user_guarded = _refusing_array_g(user)
    with pytest.raises(AssertionError, match="allocating g"):
        _march_with(user_guarded, v0, b_of_v, w0s, cfg)


def _nested_where_godunov(a, b, ga, gb, g_omega, omega, convex):
    """The Godunov selection as nested np.where for every omega: the
    reference the kernels must match, kept apart from _kernels."""
    up = a <= b
    if convex:
        rare = np.where(omega <= a, ga, np.where(omega >= b, gb, g_omega))
        return np.where(up, rare, np.maximum(ga, gb))
    shock = np.where(omega >= a, ga, np.where(omega <= b, gb, g_omega))
    return np.where(up, np.minimum(ga, gb), shock)


def _swapped_endpoint_godunov(a, b, ga, gb, g_omega, omega, convex):
    """A wrong kernel: the monotone-range selection with the endpoint
    swapped (b where g increases, a where it decreases)."""
    up = a <= b
    end = gb if (omega < 0.0) == bool(convex) else ga
    if convex:
        return np.where(up, end, np.maximum(ga, gb))
    return np.where(up, np.minimum(ga, gb), end)


def _godunov_inputs(pairs, convex, omega):
    """Kernel arguments for the interfaces (a, b) under g = v^2 (convex) or
    -v^2 (concave). g maps -0.0 and 0.0 to the same zero, so no tie in g
    pairs -0.0 with 0.0; the test below pins the sign such a tie takes."""
    a = np.array([p[0] for p in pairs], dtype=float)
    b = np.array([p[1] for p in pairs], dtype=float)
    sign = 1.0 if convex else -1.0
    g_omega = sign * omega * omega if math.isfinite(omega) else 0.0
    return a, b, sign * a * a, sign * b * b, g_omega, omega, convex


def _same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape \
        and x.tobytes() == y.tobytes()


_STATES = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]),
                    st.floats(min_value=-2.0, max_value=2.0,
                              allow_nan=False))
_INTERFACES = st.lists(st.one_of(st.tuples(_STATES, _STATES),
                                 _STATES.map(lambda s: (s, s))),
                       min_size=1, max_size=32)
_OMEGAS = st.one_of(st.sampled_from([-math.inf, math.inf, -0.0, 0.0]),
                    st.floats(min_value=-2.0, max_value=2.0,
                              allow_nan=False))


def _batched_inputs(rows, convex):
    """The (B, n) arrays and (B, 1) omega columns of the rows' inputs."""
    per_row = [_godunov_inputs(pairs, convex, omega) for pairs, omega in rows]
    a, b, ga, gb = (np.array([args[i] for args in per_row])
                    for i in range(4))
    g_omega = np.array([[args[4]] for args in per_row])
    omega = np.array([[args[5]] for args in per_row])
    return per_row, (a, b, ga, gb, omega, g_omega)


@st.composite
def _selection_batches(draw):
    """Rows (interfaces, omega) of one length n: up to three drawn rows and
    one row each with a finite, a +inf and a -inf omega, in drawn order."""
    n = draw(st.integers(min_value=1, max_value=12))
    interfaces = st.lists(st.one_of(st.tuples(_STATES, _STATES),
                                    _STATES.map(lambda s: (s, s))),
                          min_size=n, max_size=n)
    omegas = [draw(_OMEGAS) for _ in range(draw(st.integers(0, 3)))]
    omegas += [draw(st.floats(min_value=-2.0, max_value=2.0,
                              allow_nan=False)), math.inf, -math.inf]
    return [(draw(interfaces), omega)
            for omega in draw(st.permutations(omegas))]


@given(rows=_selection_batches(), convex=st.sampled_from([0, 1]))
@settings(max_examples=100, deadline=None)
def test_godunov_kernel_is_bitwise_the_nested_selection(rows, convex):
    """Ties a == b, signed zeros, and omega finite or +-inf (the monotone
    range, where a float omega selects one endpoint array), row by row in
    a (B, n) batch that holds finite, +inf and -inf omega at once."""
    per_row, batch = _batched_inputs(rows, convex)
    G = _Selection(batch[0].shape, bool(convex))(*batch)
    for r, args in enumerate(per_row):
        ref = _nested_where_godunov(*args)
        assert _same_bits(G[r], ref)
        assert _same_bits(_kernels.godunov_fluxes(*args), ref)
    for end in (math.inf, -math.inf):
        G = _Selection(batch[0].shape, bool(convex))(*batch[:4], end, 0.0)
        for r, (pairs, _) in enumerate(rows):
            ref = _nested_where_godunov(*_godunov_inputs(pairs, convex, end))
            assert _same_bits(G[r], ref)


def _parabola(lo, hi):
    """The convex flux (v - lo)(v - hi), whose g(lo) is -0.0 for lo < hi."""
    def g(v):
        return (np.asarray(v) - lo) * (np.asarray(v) - hi)

    return FluxFunction(g=g, gprime=lambda v: 2.0 * np.asarray(v) - lo - hi,
                        convexity="convex", c=2.0, name="parabola")


# Where g ties at -0.0 == 0.0, np.minimum (first case) and np.maximum
# (second case) return their second argument, g(b): 0.0 in the first case,
# -0.0 in the second. The outputs carry these signs, so they are pinned.
@pytest.mark.parametrize("flux, a, b, expected", [
    pytest.param(chromatography_flux(), -0.0, 0.0, 0.0,
                 id="concave-monotone"),
    pytest.param(_parabola(0.5, 1.0), 1.0, 0.5, -0.0, id="convex-interior"),
])
def test_tied_signed_zeros_take_the_numpy_selection(flux, a, b, expected):
    omega = critical_point(flux, min(a, b), max(a, b))
    ga, gb = float(flux.g(a)), float(flux.g(b))
    assert ga == gb == 0.0 and math.copysign(1.0, ga) != math.copysign(1.0, gb)
    convex = flux.convexity == "convex"
    g_omega = float(flux.g(omega)) if math.isfinite(omega) else 0.0
    args = (np.array([a]), np.array([b]), np.array([ga]), np.array([gb]),
            g_omega, omega, int(convex))
    ref = _nested_where_godunov(*args)
    G = _Selection((1, 1), convex)(*(x[None] for x in args[:4]),
                                   omega, g_omega)
    assert _same_bits(G[0], ref)
    assert _same_bits(_kernels.godunov_fluxes(*args), ref)
    got = float(G[0, 0])
    assert got == expected == 0.0
    assert math.copysign(1.0, got) == math.copysign(1.0, expected)


@pytest.mark.parametrize("convex", [0, 1])
@pytest.mark.parametrize("omega", [-math.inf, math.inf])
def test_godunov_reference_rejects_a_swapped_endpoint(convex, omega):
    args = _godunov_inputs([(0.25, 1.0), (1.0, 0.25), (-0.5, -0.5)],
                           convex, omega)
    ref = _nested_where_godunov(*args)
    assert _same_bits(_kernels.godunov_fluxes(*args), ref)
    assert not _same_bits(_swapped_endpoint_godunov(*args), ref)


def _rounding_inversion(g, start):
    """The first adjacent floats lo < hi from start up with g(lo) > g(hi):
    g = v/(1+v) is increasing, but not to the last bit where 1 + v rounds
    up by more than v moves."""
    lo = start
    for _ in range(1000):
        hi = np.nextafter(lo, np.inf)
        if g(lo) > g(hi):
            return lo, hi
        lo = hi
    raise AssertionError(f"g is monotone on 1000 floats from {start!r}")


@pytest.mark.parametrize("convex", [0, 1])
@pytest.mark.parametrize("omega", [-math.inf, math.inf])
def test_selection_keeps_its_guard_where_g_rounds_out_of_order(convex,
                                                                omega):
    """On a monotone range a float omega makes the masked write take one
    endpoint, but between two adjacent floats g need not be monotone. Long
    constant runs of the two states lo < hi with g(lo) > g(hi) put both
    orders at an interface: where g is taken as increasing (convex with
    omega = -inf, concave with +inf) the max/min over the pair is then the
    other endpoint, so the selection keeps that guard and agrees bitwise
    with the nested selection and the per-step kernel."""
    g = np.vectorize(chromatography_flux().g)
    lo, hi = _rounding_inversion(g, np.float64(1.5))
    assert lo < hi and g(lo) > g(hi)
    runs = [lo, hi, hi, lo, lo, hi]
    v = np.repeat(np.array(runs), 40)
    a, b = v[:-1], v[1:]
    args = (a, b, g(a), g(b), 0.0, omega, convex)
    ref = _nested_where_godunov(*args)
    G = _Selection((1, a.size), bool(convex))(
        *(x[None] for x in args[:4]), omega, 0.0)
    assert _same_bits(G[0], ref)
    assert _same_bits(_kernels.godunov_fluxes(*args), ref)
    increasing = (omega < 0.0) == bool(convex)
    end = args[2] if increasing else args[3]
    # the guard changes the flux exactly where g is taken as increasing
    assert _same_bits(ref, end) != increasing


def test_scalar_step_keeps_the_documented_association():
    # the transport stage relies on (v - mu*G_out) + mu*G_in exactly
    rng = np.random.default_rng(20240817)
    v = rng.normal(size=257)
    G = rng.normal(size=258)
    mu = 0.41
    expected = (v - mu * G[1:]) + mu * G[:-1]
    assert np.array_equal(_kernels.scalar_step(v, G, mu), expected)


def _first_non_finite_step(flux, v0, dt, n_steps):
    """The first step after which v is not finite, from a plain fixed-dt
    Godunov loop that rebuilds every step constant and checks np.isfinite
    after each step; None when v stays finite."""
    convex = 1 if flux.convexity == "convex" else 0
    v = v0.values.copy()
    for step in range(n_steps):
        ve = v0.with_values(v).extended(1)
        gve = np.asarray(flux.g(ve), dtype=float)
        omega = critical_point(flux, float(ve.min()), float(ve.max()))
        g_omega = float(flux.g(omega)) if math.isfinite(omega) else 0.0
        G = _kernels.godunov_fluxes(ve[:-1], ve[1:], gve[:-1], gve[1:],
                                    g_omega, omega, convex)
        v = _kernels.scalar_step(v, G, dt / v0.grid.dx)
        if not np.all(np.isfinite(v)):
            return step
    return None


def _flux_undefined_on(lo, hi):
    """v/(1+v), but NaN for lo < v < hi: a flux that fails on part of the
    range the solution sweeps through."""
    base = chromatography_flux()

    def g(v):
        v = np.asarray(v, dtype=float)
        return np.where((v > lo) & (v < hi), np.nan, v / (1.0 + v))

    return FluxFunction(g=g, gprime=base.gprime, convexity="concave",
                        L_of_range=base.L_of_range, name="holed v/(1+v)",
                        admissible_min=0.0)


def _burgers_with_a_false_speed_bound():
    """rho^2 claiming speed 1 whatever the data, so a fixed dt passes the
    CFL check while the scheme is unstable and overflows."""
    base = burgers_flux()
    return FluxFunction(g=base.g, gprime=base.gprime, convexity="convex",
                        c=2.0, L_of_range=lambda lo, hi: 1.0,
                        name="rho^2, false bound")


def _rarefaction_into_the_hole(grid):
    return _outflow_riemann(grid, 1.0, 0.0)


def _bump_that_overflows(grid):
    return project(lambda x: 1.0 + np.cos(np.pi * np.asarray(x)), grid,
                   boundary="periodic")


def _scalar_solve(flux, v0, cfg):
    return solve_scalar(flux, v0, cfg)


def _split_solve(flux, v0, cfg):
    return solve_split(flux, lambda v: 1.0 / (1.0 + v), v0,
                       [v0.with_values(0.5 * v0.values)], cfg)


# The false speed bound is not tried on the split solve: there it breaks
# the transport step's convex combination first (InvalidArgument).
@pytest.mark.parametrize("solve, flux, data", [
    pytest.param(_scalar_solve, _flux_undefined_on(0.5, 0.6),
                 _rarefaction_into_the_hole, id="scalar-nan"),
    pytest.param(_scalar_solve, _burgers_with_a_false_speed_bound(),
                 _bump_that_overflows, id="scalar-inf"),
    pytest.param(_split_solve, _flux_undefined_on(0.5, 0.6),
                 _rarefaction_into_the_hole, id="split-nan"),
])
def test_blowup_names_the_first_non_finite_step(solve, flux, data):
    grid = Grid1D(-1.0, 1.0, 32)
    v0 = data(grid)
    dt = 0.5 * grid.dx
    n_steps = 200
    cfg = ScalarConfig(t_end=n_steps * dt, fixed_dt=dt)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _first_non_finite_step(flux, v0, dt, n_steps)
        with pytest.raises(NumericalBlowup) as err:
            solve(flux, v0, cfg)
    assert expected is not None and expected > 0
    assert err.value.step == expected
    assert f"non-finite v at step {expected}," in str(err.value)
