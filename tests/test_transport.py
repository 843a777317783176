"""Transport stage: locked upwind scheme, mollified velocities, and the
characteristics route.

The smooth runs here all use the chromatography velocity b(v) = 1/(1+v)
riding on a scalar trajectory solved with the joint speed bound, which is
the only mode the locked scheme accepts.
"""
import math

import numpy as np
import pytest

from splitlaw.core import (
    CellField,
    Grid1D,
    Trajectory,
    bump_test,
    chromatography_flux,
    lp_distance,
    project,
)
from splitlaw.errors import DegenerateDensity, InvalidArgument, OutOfDomain
from splitlaw.scalar import ScalarConfig, solve_scalar
from splitlaw.transport import (
    MollifierSpec,
    TransportPair,
    VelocityField,
    discrete_divergence,
    flow_map,
    joint_speed_flux,
    mollify,
    regularized_velocity,
    renorm_residual,
    solve_by_characteristics,
    solve_continuity_upwind,
    strong_continuity_modulus,
    weighted_sup_norm,
)


def _b(v):
    return 1.0 / (1.0 + np.asarray(v, dtype=float))


def _smooth_run(n=256, t_end=0.5, records=21):
    grid = Grid1D(-2.0, 2.0, n)
    v0 = project(lambda x: 1.0 + 0.5 * np.exp(-4.0 * x * x), grid)
    flux = joint_speed_flux(chromatography_flux(), _b)
    cfg = ScalarConfig(t_end=t_end, record_fluxes=True,
                       record_times=list(np.linspace(0.0, t_end, records)))
    return grid, solve_scalar(flux, v0, cfg)


def _constant_pair(b_value, n=256):
    grid = Grid1D(-2.0, 2.0, n)
    ones = CellField(grid, np.ones(grid.n))
    vt = Trajectory([0.0, 1.0], [ones, ones.copy()])
    return grid, TransportPair(
        vt, lambda v: b_value * np.ones_like(np.asarray(v, dtype=float)))


def test_mollify_preserves_constants_and_periodic_mass():
    grid = Grid1D(-2.0, 2.0, 128)
    const = CellField(grid, np.full(grid.n, 0.7))
    sm = mollify(const, MollifierSpec(4.0 * grid.dx))
    assert np.max(np.abs(sm.values - 0.7)) <= 1e-12
    wave = CellField(grid, 1.0 + 0.3 * np.sin(np.pi * grid.centers() / 2.0),
                     boundary="periodic")
    sm = mollify(wave, MollifierSpec(4.0 * grid.dx))
    from splitlaw.core import mass
    assert mass(sm) == pytest.approx(mass(wave), abs=1e-12)


def test_mollifier_width_validation():
    grid = Grid1D(-2.0, 2.0, 64)
    f = CellField(grid, np.ones(grid.n))
    with pytest.raises(InvalidArgument):
        MollifierSpec(0.0)
    with pytest.raises(InvalidArgument):
        MollifierSpec(0.1, kind="tophat")
    with pytest.raises(InvalidArgument):
        mollify(f, MollifierSpec(0.5 * grid.dx))


def test_joint_speed_flux_raises_the_bound_to_cover_transport():
    base = chromatography_flux()
    joint = joint_speed_flux(base, _b)
    # on [1, 2]: sup g' = 1/4 but sup b = 1/2
    assert base.L_of_range(1.0, 2.0) == pytest.approx(0.25)
    assert joint.L_of_range(1.0, 2.0) == pytest.approx(0.5)
    assert joint.convexity == base.convexity
    assert joint.admissible_min == base.admissible_min
    assert float(joint.g(1.0)) == float(base.g(1.0))


def test_transport_pair_time_interpolation():
    grid, vt = _smooth_run()
    pair = TransportPair(vt, _b)
    mid = 0.5 * (vt.times[3] + vt.times[4])
    expect = 0.5 * (vt.fields[3].values + vt.fields[4].values)
    assert np.allclose(pair.rho_at(mid).values, expect, atol=1e-14)
    assert np.array_equal(pair.velocity_at(0.0).values,
                          _b(vt.fields[0].values))
    with pytest.raises(OutOfDomain):
        pair.rho_at(vt.times[-1] + 1.0)


def test_upwind_ratio_one_rides_the_density_bitwise():
    grid, vt = _smooth_run(n=128, t_end=0.25, records=6)
    w_traj = solve_continuity_upwind(vt, _b, vt.fields[0].copy())
    for wf, vf in zip(w_traj.fields, vt.fields):
        assert np.array_equal(wf.values, vf.values)


def test_upwind_constant_ratio_is_exact():
    grid, vt = _smooth_run(n=128, t_end=0.25, records=6)
    w0 = vt.fields[0].with_values(-0.5 * vt.fields[0].values)
    w_traj = solve_continuity_upwind(vt, _b, w0)
    for wf, vf in zip(w_traj.fields, vt.fields):
        assert np.array_equal(wf.values, -0.5 * vf.values)
        assert weighted_sup_norm(wf.with_values(np.abs(wf.values)), vf) == 0.5


def test_upwind_exact_invariants_for_signed_data():
    grid, vt = _smooth_run(n=96, t_end=0.2, records=6)
    rng = np.random.default_rng(4)
    lam = rng.uniform(-1.0, 1.0, grid.n)
    w0 = vt.fields[0].with_values(lam * vt.fields[0].values)
    w_traj = solve_continuity_upwind(vt, _b, w0)
    sup0 = weighted_sup_norm(w_traj.fields[0], vt.fields[0])
    for wf, vf in zip(w_traj.fields, vt.fields):
        assert np.all(np.abs(wf.values) <= vf.values)
        assert weighted_sup_norm(wf, vf) <= sup0
    nonneg = vt.fields[0].with_values(np.abs(lam) * vt.fields[0].values)
    for wf in solve_continuity_upwind(vt, _b, nonneg).fields:
        assert np.min(wf.values) >= 0.0


def test_upwind_rejects_scalar_runs_without_the_joint_bound():
    grid = Grid1D(-2.0, 2.0, 128)
    v0 = project(lambda x: 1.0 + 0.5 * np.sin(np.pi * x / 2.0), grid)
    cfg = ScalarConfig(t_end=0.25, cfl=0.9, record_fluxes=True,
                       record_times=[0.25])
    vt = solve_scalar(chromatography_flux(), v0, cfg)
    with pytest.raises(InvalidArgument, match="joint_speed_flux"):
        solve_continuity_upwind(vt, _b, v0.copy())
    # the error names the step, its start time, the worst cell, and the
    # measured value against its bound
    with pytest.raises(InvalidArgument, match=(
            r"in step 0, from t=0\.0: v - mu\*G = -\S+ at cell \d+, "
            r"below the bound -1\.\d+e-12")):
        solve_continuity_upwind(vt, _b, v0.copy())


def test_upwind_names_the_record_where_the_replay_diverges():
    grid, vt = _smooth_run(n=64, t_end=0.125, records=2)
    bumped = vt.fields[1].values.copy()
    bumped[7] += 1e-9
    vt.fields[1] = vt.fields[1].with_values(bumped)
    step = vt.meta["record_steps"][0] - 1
    with pytest.raises(InvalidArgument, match=(
            rf"diverged .* after step {step}, at the record "
            rf"t={vt.times[1]!r}: largest gap \|v - recorded\| = 1e-09 at "
            r"cell 7, bound 0")):
        solve_continuity_upwind(vt, _b, vt.fields[0].copy())


def test_upwind_rejects_non_finite_w0():
    _, vt = _smooth_run(n=64, t_end=0.125, records=2)
    values = vt.fields[0].values.copy()
    values[10] = np.nan
    with pytest.raises(InvalidArgument, match="finite"):
        solve_continuity_upwind(vt, _b, vt.fields[0].with_values(values))


def test_upwind_rejects_inconsistent_inputs():
    grid, vt = _smooth_run(n=64, t_end=0.125, records=2)
    w0 = vt.fields[0].copy()
    bare = Trajectory(vt.times, vt.fields, {"dt_schedule": []})
    with pytest.raises(InvalidArgument):
        solve_continuity_upwind(bare, _b, w0)
    other = CellField(Grid1D(-2.0, 2.0, 32), np.ones(32))
    with pytest.raises(InvalidArgument):
        solve_continuity_upwind(vt, _b, other)
    wrong_boundary = CellField(grid, w0.values, boundary="periodic")
    with pytest.raises(InvalidArgument):
        solve_continuity_upwind(vt, _b, wrong_boundary)
    with pytest.raises(InvalidArgument):
        solve_continuity_upwind(vt, lambda v: -np.ones_like(
            np.asarray(v, dtype=float)), w0)


def test_weighted_sup_norm_conventions():
    grid = Grid1D(0.0, 1.0, 4)
    v = CellField(grid, [1.0, 2.0, 0.0, 4.0])
    w = CellField(grid, [0.5, -1.0, 0.0, 1.0])
    assert weighted_sup_norm(w, v) == 0.5
    w_bad = CellField(grid, [0.5, -1.0, 0.1, 1.0])
    assert weighted_sup_norm(w_bad, v) == math.inf


def test_regularized_velocity_is_a_weighted_average_of_b():
    grid, vt = _smooth_run(n=128, t_end=0.25, records=6)
    pair = TransportPair(vt, _b)
    spec = MollifierSpec(4.0 * grid.dx)
    reg = regularized_velocity(pair, spec, 0.1)
    b_vals = _b(pair.rho_at(0.1).values)
    assert np.min(reg.values) >= np.min(b_vals) - 1e-12
    assert np.max(reg.values) <= np.max(b_vals) + 1e-12
    # constant b passes through the quotient untouched
    grid_c, pair_c = _constant_pair(0.4)
    reg_c = regularized_velocity(pair_c, MollifierSpec(4.0 * grid_c.dx), 0.5)
    assert np.max(np.abs(reg_c.values - 0.4)) <= 1e-12


def test_regularized_velocity_needs_positive_density():
    grid = Grid1D(-2.0, 2.0, 64)
    zero = CellField(grid, np.zeros(grid.n))
    vt = Trajectory([0.0, 1.0], [zero, zero.copy()])
    pair = TransportPair(vt, _b)
    with pytest.raises(DegenerateDensity):
        regularized_velocity(pair, MollifierSpec(4.0 * grid.dx), 0.5)


def test_velocity_field_sampling_and_padding():
    grid, vt = _smooth_run(n=128, t_end=0.25, records=6)
    pair = TransportPair(vt, _b)
    velocity = VelocityField(pair, MollifierSpec(4.0 * grid.dx))
    centers = grid.centers()
    assert np.allclose(velocity.sample(0.1, centers),
                       velocity.at(0.1).values, atol=1e-14)
    # just outside the box: edge-value extension, no error
    edge = velocity.sample(0.1, grid.x_max + 0.1)
    assert edge == pytest.approx(float(velocity.at(0.1).values[-1]))
    with pytest.raises(OutOfDomain):
        velocity.sample(0.1, grid.x_max + 100.0)


def test_flow_map_constant_velocity_is_a_translation():
    grid, pair = _constant_pair(0.4)
    velocity = VelocityField(pair, MollifierSpec(4.0 * grid.dx))
    assert flow_map(velocity, 0.0, 1.0, 0.0) == pytest.approx(0.4, abs=1e-10)
    xs = np.array([-1.0, 0.0, 0.5])
    assert np.allclose(flow_map(velocity, 0.0, 1.0, xs), xs + 0.4, atol=1e-10)
    assert flow_map(velocity, 0.3, 0.3, 0.1) == 0.1


def test_flow_map_roundtrip_and_jacobian_bounds():
    from splitlaw.transport import _Reversed
    grid, vt = _smooth_run(n=256, t_end=0.5, records=21)
    pair = TransportPair(vt, _b)
    velocity = VelocityField(pair, MollifierSpec(8.0 * grid.dx))
    x0 = np.array([-0.5, 0.0, 0.4])
    fwd = flow_map(velocity, 0.0, 0.5, x0)
    back = flow_map(_Reversed(velocity, 0.5), 0.0, 0.5, fwd)
    assert np.max(np.abs(back - x0)) <= 1e-8
    # volume distortion is controlled by the density ratio
    matrix = vt.values_matrix()
    M2 = float(np.max(matrix)) / float(np.min(matrix))
    h = 1e-4
    jac = (flow_map(velocity, 0.0, 0.5, x0 + h)
           - flow_map(velocity, 0.0, 0.5, x0 - h)) / (2.0 * h)
    assert np.all(jac >= (1.0 / M2) / 1.1)
    assert np.all(jac <= M2 * 1.1)


def test_characteristics_ratio_one_returns_the_mollified_density():
    grid, vt = _smooth_run(n=128, t_end=0.25, records=6)
    pair = TransportPair(vt, _b)
    spec = MollifierSpec(4.0 * grid.dx)
    w_traj = solve_by_characteristics(pair, vt.fields[0].copy(), spec,
                                      [0.0, 0.125, 0.25])
    for t, wf in zip(w_traj.times, w_traj.fields):
        expect = mollify(pair.rho_at(t), spec)
        assert np.array_equal(wf.values, expect.values)


def test_characteristics_translate_a_bump_at_constant_speed():
    grid, pair = _constant_pair(0.4, n=512)
    spec = MollifierSpec(0.1)
    w0 = project(lambda x: np.exp(-4.0 * x * x), grid)
    w_traj = solve_by_characteristics(pair, w0, spec, [0.0, 1.0])
    shifted = mollify(project(
        lambda x: np.exp(-4.0 * (x - 0.4) ** 2), grid), spec)
    assert lp_distance(w_traj.at(1.0), shifted, 1) <= 1e-3
    assert np.max(np.abs(w_traj.at(1.0).values - shifted.values)) <= 1e-3


def test_renorm_residual_separates_matched_from_mismatched_velocity():
    # Shock data: the mismatch term integrates the flux variation across the
    # jump, so a smooth near-symmetric profile would mask it.
    grid = Grid1D(-2.0, 2.0, 256)
    v0 = project(lambda x: np.where(np.asarray(x) < 0.0, 0.1, 2.0), grid)
    flux = joint_speed_flux(chromatography_flux(), _b)
    cfg = ScalarConfig(t_end=0.5, record_fluxes=True,
                       record_times=list(np.linspace(0.0, 0.5, 21)))
    vt = solve_scalar(flux, v0, cfg)
    pair = TransportPair(vt, _b)
    tests = [bump_test(0.05, 0.45, -1.5, 1.5)]
    matched = renorm_residual(pair, vt, lambda u: u * u, tests)
    assert matched <= 5e-3
    pair_bad = TransportPair(vt, lambda v: 0.5 * _b(v))
    mismatched = renorm_residual(pair_bad, vt, lambda u: u * u, tests)
    assert mismatched >= 10.0 * matched
    assert mismatched >= 0.03


def test_strong_continuity_modulus_grows_with_the_shock():
    grid = Grid1D(-2.0, 2.0, 256)
    v0 = project(lambda x: np.where(np.asarray(x) < 0.0, 1.0, 0.0), grid)
    flux = joint_speed_flux(chromatography_flux(), _b)
    cfg = ScalarConfig(t_end=0.5, record_fluxes=True,
                       record_times=list(np.linspace(0.0, 0.5, 11)))
    vt = solve_scalar(flux, v0, cfg)
    out = strong_continuity_modulus(vt, 0.0)
    assert len(out) == 10
    dists = [d for _, d in out]
    assert all(d > 0.0 for d in dists)
    assert all(b >= a for a, b in zip(dists, dists[1:]))
    windowed = strong_continuity_modulus(vt, 0.0, window=(-0.5, 0.5))
    assert all(dw <= df + 1e-12 for (_, dw), (_, df) in zip(windowed, out))


def test_discrete_divergence_of_linear_field_is_constant():
    grid = Grid1D(-2.0, 2.0, 64)
    div = discrete_divergence(3.0 * grid.centers() + 1.0, grid)
    assert np.allclose(div, 3.0, atol=1e-10)
