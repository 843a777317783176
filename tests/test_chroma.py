"""Split chromatography solver, entropy lifting, and the direct oracle."""
import math
from types import SimpleNamespace

import numpy as np
import pytest

from splitlaw.chroma import (
    ChromState,
    admissibility_residual,
    check_domain,
    entropy_compat_defect,
    flux_jacobian,
    from_vw,
    lift_entropy,
    project_to_lifted,
    semigroup_defect,
    semigroup_defect_many,
    solve_chromatography,
    solve_chromatography_many,
    solve_direct,
    state_l1_distance,
    to_vw,
)
from splitlaw import _kernels
from splitlaw.acceptance import SPLIT_FIXTURES, _split_state
from splitlaw.core import CellField, Grid1D, bump_test, mass, project
from splitlaw.errors import (HypothesisViolation, InvalidArgument,
                             InvalidEntropy, NumericalBlowup)
from splitlaw.scalar import ScalarConfig, _time_steps


def _grid(n=128):
    return Grid1D(-2.0, 2.0, n)


def _riemann_state(grid, pairs):
    comps = [project(lambda x, p=p: np.where(np.asarray(x) < 0.0, p[0], p[1]),
                     grid) for p in pairs]
    return ChromState(comps)


def _eta_s(v):
    return np.asarray(v, dtype=float) ** 2


def _q_s(v):
    v = np.asarray(v, dtype=float)
    return 2.0 * (np.log1p(v) + 1.0 / (1.0 + v) - 1.0)


def test_change_of_variables_roundtrip():
    grid = _grid(32)
    rng = np.random.default_rng(9)
    comps = [CellField(grid, rng.uniform(0.0, 2.0, grid.n)) for _ in range(3)]
    state = ChromState(comps)
    v, w = to_vw(state)
    assert np.allclose(v.values,
                       sum(c.values for c in comps), atol=1e-13)
    back = from_vw(v, w)
    assert back.k == 3
    for orig, rec in zip(state.components, back.components):
        assert np.allclose(orig.values, rec.values, atol=1e-13)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


# signed zeros, subnormals, large magnitudes with cancellation, and
# ordinary values; VectorState only asks for finite components
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.5e-308, 1e300, -1e300, 1e-16,
                1.0, -1.0, 0.1, 3.0, 1e16]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_total_and_from_vw_are_bitwise_the_per_cell_fsum(k):
    rng = np.random.default_rng(k)
    n = 400
    grid = _grid(n)
    comps = [CellField(grid, rng.choice(_EDGE_VALUES, n)) for _ in range(k)]
    cols = np.stack([c.values for c in comps])
    fsums = np.array([math.fsum(map(float, cols[:, j])) for j in range(n)])
    assert _bits(ChromState(comps).total().values) == _bits(fsums)
    v, w = comps[0], comps[1:]
    u1 = from_vw(v, w).components[0].values
    if k == 2:
        expect = v.values - w[0].values
    else:
        expect = np.array([float(v.values[j])
                           - math.fsum(map(float, cols[1:, j]))
                           for j in range(n)])
    assert _bits(u1) == _bits(expect)
    # negative control: the plain sum keeps -0.0 + -0.0 = -0.0
    zeros = CellField(grid, np.full(n, -0.0))
    assert _bits(ChromState([zeros] * k).total().values) == _bits(
        np.zeros(n))
    assert _bits(zeros.values + zeros.values) != _bits(np.zeros(n))


@pytest.mark.parametrize("k", [2, 3])
def test_a_total_past_the_float_range_is_nan_without_a_warning(k):
    """fsum cannot form 1e308 + 1e308 and the exact sum reads NaN; with
    two components the IEEE add gave inf and an overflow warning. A finite
    cell keeps its bits."""
    grid = _grid(4)
    vals = np.array([1e308, 1.0, -1e308, 0.5])
    total = ChromState([CellField(grid, vals)] * k).total().values
    assert np.isnan(total[[0, 2]]).all()
    assert total[[1, 3]].tolist() == [float(k), 0.5 * k]


def test_from_vw_rejects_mismatched_grids():
    v = CellField(_grid(32), np.ones(32))
    w = [CellField(_grid(16), np.ones(16))]
    with pytest.raises(InvalidArgument):
        from_vw(v, w)


def test_chrom_state_validation():
    grid = _grid(16)
    ok = CellField(grid, np.ones(16))
    with pytest.raises(InvalidArgument):
        ChromState([ok])
    with pytest.raises(InvalidArgument):
        ChromState([ok, CellField(_grid(8), np.ones(8))])
    with pytest.raises(InvalidArgument):
        ChromState([ok, CellField(grid, np.ones(16), boundary="periodic")])
    with pytest.raises(InvalidArgument):
        ChromState([ok, CellField(grid, np.full(16, np.inf))])


def test_solver_requires_nonnegative_components():
    grid = _grid(32)
    state = _riemann_state(grid, [(1.0, 0.5), (-0.1, 0.5)])
    with pytest.raises(InvalidArgument):
        solve_chromatography(state, ScalarConfig(t_end=0.1))


def test_regime_metadata():
    grid = _grid(64)
    cfg = ScalarConfig(t_end=0.25, record_times=[0.25])
    positive = _riemann_state(grid, [(0.25, 0.5), (0.25, 0.75)])
    traj = solve_chromatography(positive, cfg)
    assert traj.meta["regime"] == "G"
    assert traj.meta["delta0"] == pytest.approx(0.5)
    touching = _riemann_state(grid, [(0.25, 0.0), (0.25, 0.0)])
    traj = solve_chromatography(touching, cfg)
    assert traj.meta["regime"] == "F"
    assert traj.meta["tv0"] == pytest.approx(0.5, abs=1e-12)
    assert traj.meta["speed_bound"] > 0.0


def test_split_solution_preserves_componentwise_structure():
    grid = _grid(128)
    cfg = ScalarConfig(t_end=0.25, record_times=[0.125, 0.25])
    state = _riemann_state(grid, [(0.75, 0.25), (0.5, 0.5)])
    traj = solve_chromatography(state, cfg)
    assert traj.times == [0.0, 0.125, 0.25]
    for st in traj.states:
        for comp in st.components:
            assert float(np.min(comp.values)) >= -1e-12
        total = st.total().values
        assert float(np.max(total)) <= 1.25 + 1e-12
    # components reassemble the scalar total exactly at every record
    for st, vf in zip(traj.states, traj.v_traj.fields):
        assert np.allclose(st.total().values, vf.values, atol=1e-12)


def test_component_mass_is_conserved_on_periodic_data():
    grid = _grid(128)
    x = grid.centers()
    u1 = CellField(grid, 0.6 + 0.2 * np.sin(np.pi * x / 2.0),
                   boundary="periodic")
    u2 = CellField(grid, 0.5 + 0.1 * np.cos(np.pi * x / 2.0),
                   boundary="periodic")
    traj = solve_chromatography(
        ChromState([u1, u2]), ScalarConfig(t_end=0.25, record_times=[0.25]))
    for i in range(2):
        m0 = mass(traj.states[0].components[i])
        m1 = mass(traj.states[-1].components[i])
        assert m1 == pytest.approx(m0, abs=1e-10)


def test_lift_entropy_accepts_the_quadratic_pair():
    pair = lift_entropy(_eta_s, _q_s, 0.7)
    U = [np.array([0.5, 1.0]), np.array([0.25, 0.5])]
    got = np.asarray(pair.eta(U), dtype=float)
    expect = (np.asarray(U[0]) + np.asarray(U[1])) ** 2 \
        + 0.7 * (np.asarray(U[0]) - np.asarray(U[1]))
    assert np.allclose(got, expect, atol=1e-14)
    rng = np.random.default_rng(3)
    states = rng.uniform(0.05, 2.0, size=(20, 2))
    assert entropy_compat_defect(pair, states) <= 1e-8


def test_lift_entropy_rejects_a_mismatched_flux_pair():
    with pytest.raises(InvalidEntropy):
        lift_entropy(_eta_s, lambda v: 0.5 * np.asarray(v) ** 2, 0.0)


def test_entropy_checks_report_a_nan_instead_of_dropping_it():
    """max() skipped a NaN at one sample point, so a map undefined there
    passed the lift check and read a clean compatibility defect."""
    def holed(fn):
        return lambda v: np.where(np.asarray(v) > 3.0, np.nan, fn(v))

    with pytest.raises(InvalidEntropy, match="defect nan"):
        lift_entropy(_eta_s, holed(_q_s), 0.0)
    pair = lift_entropy(_eta_s, _q_s, 0.7)
    states = np.array([[0.5, 0.25], [2.0, 1.5], [1.0, 0.75]])
    assert entropy_compat_defect(pair, states) <= 1e-8
    eta = pair.eta
    holed_pair = SimpleNamespace(
        eta=lambda U: np.where(U[0] + U[1] > 3.0, np.nan, eta(U)), q=pair.q)
    assert math.isnan(entropy_compat_defect(holed_pair, states))


def test_flux_jacobian_row_sums_match_the_scalar_speed():
    # summing the component equations gives the scalar law, so each row sum
    # of DF^T against the all-ones vector is g'(v) = 1/(1+v)^2
    U = np.array([0.5, 0.75])
    J = flux_jacobian(U)
    v = float(np.sum(U))
    assert np.allclose(np.ones(2) @ J, np.full(2, 1.0 / (1.0 + v) ** 2),
                       atol=1e-14)


def test_projection_recovers_lifted_coefficients():
    def eta(U):
        v = U[0] + U[1]
        return 0.2 + 0.3 * v * v + 1.7 * (U[0] - U[1])

    rng = np.random.default_rng(11)
    states = rng.uniform(0.0, 2.0, size=(40, 2))
    coeffs, resid = project_to_lifted(eta, states)
    assert resid <= 1e-10
    assert coeffs[0] == pytest.approx(0.2, abs=1e-8)
    assert coeffs[2] == pytest.approx(0.3, abs=1e-8)
    assert coeffs[-1] == pytest.approx(1.7, abs=1e-8)


def test_projection_rejects_off_family_functions_and_bad_shapes():
    def eta(U):
        return U[0] * U[1]

    rng = np.random.default_rng(12)
    states = rng.uniform(0.0, 2.0, size=(40, 2))
    _, resid = project_to_lifted(eta, states)
    assert resid >= 0.01
    with pytest.raises(InvalidArgument):
        project_to_lifted(eta, [np.array([1.0, 2.0, 3.0])])


def test_admissibility_residual_is_nan_when_a_total_is_nan():
    """A NaN total from any pair makes the residual NaN, in either order;
    max() used to drop it."""
    grid = _grid(32)
    cfg = ScalarConfig(t_end=0.5,
                       record_times=list(np.linspace(0.0, 0.5, 11)))
    traj = solve_chromatography(
        _riemann_state(grid, [(0.25, 0.5), (0.25, 0.75)]), cfg)
    pair = lift_entropy(_eta_s, _q_s, 0.0)
    holed = SimpleNamespace(
        eta=lambda comps: np.where(comps[0] > 0.4, np.nan, comps[0]),
        q=lambda comps: np.zeros_like(comps[0]))
    tests = [bump_test(0.05, 0.45, -1.0, 1.0)]
    assert admissibility_residual(traj, [pair], tests) <= 0.05
    assert math.isnan(admissibility_residual(traj, [pair, holed], tests))
    assert math.isnan(admissibility_residual(traj, [holed, pair], tests))


def test_admissibility_residual_small_for_the_split_solution():
    grid = _grid(128)
    cfg = ScalarConfig(t_end=0.5,
                       record_times=list(np.linspace(0.0, 0.5, 101)))
    state = _riemann_state(grid, [(0.25, 0.5), (0.25, 0.75)])
    traj = solve_chromatography(state, cfg)
    pair = lift_entropy(_eta_s, _q_s, 0.0)
    tests = [bump_test(0.05, 0.45, -1.0, 1.0)]
    assert admissibility_residual(traj, [pair], tests) <= 0.01


def test_check_domain_reports():
    grid = _grid(64)
    state = _riemann_state(grid, [(0.25, 0.5), (0.25, 0.75)])
    rep_f = check_domain(state, "F")
    assert rep_f.ok
    assert rep_f.tv == pytest.approx(0.75, abs=1e-12)
    rep_g = check_domain(state, "G", delta=0.5)
    assert rep_g.ok
    assert rep_g.v_min == pytest.approx(0.5)
    assert not check_domain(state, "G", delta=0.6).ok
    with pytest.raises(InvalidArgument):
        check_domain(state, "G")
    with pytest.raises(InvalidArgument):
        check_domain(state, "H")
    dipped = ChromState([
        CellField(grid, np.full(grid.n, 0.5)),
        CellField(grid, np.linspace(-0.1, 0.5, grid.n))])
    assert not check_domain(dipped, "F").ok


def test_direct_oracle_stays_close_to_the_split_solver():
    grid = _grid(256)
    cfg = ScalarConfig(t_end=0.5, record_times=[0.5])
    state = _riemann_state(grid, [(0.25, 0.5), (0.25, 0.75)])
    split = solve_chromatography(state, cfg)
    direct = solve_direct(state, cfg)
    gap = state_l1_distance(split.at(0.5), direct.at(0.5), window=(-1.5, 1.5))
    assert gap <= 0.1
    assert direct.meta["method"] == "lax-friedrichs"


def test_direct_oracle_rejects_misaligned_record_times():
    # 0.3 is not a multiple of fixed_dt; it must not be snapped to 0.25
    state = _riemann_state(_grid(32), [(0.25, 0.5), (0.25, 0.75)])
    cfg = ScalarConfig(t_end=1.0, record_times=[0.3, 1.0], fixed_dt=0.25)
    with pytest.raises(InvalidArgument,
                       match="record time not aligned with fixed_dt"):
        solve_direct(state, cfg)
    # nor may two record times round to one step
    cfg = ScalarConfig(t_end=1.0, record_times=[0.25, 0.25 + 1e-14, 1.0],
                       fixed_dt=0.25)
    with pytest.raises(InvalidArgument, match="record times 0.25 and "
                                              "0.25000000000001 both round to "
                                              "step 1 of fixed_dt = 0.25"):
        solve_direct(state, cfg)


def _reference_solve_direct(U0, config):
    """solve_direct as a plain loop with its own copy of the time plan."""
    grid = U0.grid
    dx = grid.dx
    comps = [c.values.astype(float).copy() for c in U0.components]
    stops = sorted({float(t) for t in config.record_times if t > 0.0})
    if not stops or stops[-1] != config.t_end:
        stops.append(config.t_end)
    times = [0.0]
    states = [[c.copy() for c in comps]]
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
            v_min = min(float(np.min(c)) for c in comps)
            L = 1.0 / (1.0 + max(v_min, 0.0))
            dt = config.cfl * dx / L
            lands = t + dt >= next_stop - 1e-14 * max(1.0, next_stop)
            if lands:
                dt = next_stop - t
                t_next = next_stop
            else:
                t_next = t + dt
        exts = [CellField(grid, c, U0.boundary).extended(1) for c in comps]
        v_ext = np.sum(exts, axis=0)
        inv2mu = dx / (2.0 * dt)
        new_comps = []
        for c, ce in zip(comps, exts):
            F = ce / (1.0 + v_ext)
            G = _kernels.lxf_fluxes(ce, F, inv2mu)
            new_comps.append(_kernels.scalar_step(c, np.asarray(G), dt / dx))
        comps = new_comps
        t = t_next
        step += 1
        if lands:
            times.append(t)
            states.append([c.copy() for c in comps])
            if config.fixed_dt is None:
                nxt = next(stop_iter, None)
                if nxt is None:
                    break
                next_stop = nxt
    return times, states


def _outflow_riemann_state(grid):
    return ChromState([
        project(lambda x: np.where(np.asarray(x) < 0.0, left, right), grid)
        for left, right in [(0.25, 0.5), (0.75, 0.1)]])


def _smooth_periodic_state(grid, amps=(0.25, -0.125, 0.375)):
    return ChromState([
        project(lambda x, a=a: 0.5 + a * np.sin(0.5 * np.pi * np.asarray(x)),
                grid, boundary="periodic")
        for a in amps])


def _periodic_states(k):
    """_smooth_periodic_state with k components: the oracle adds up the
    components one by one, in order, which must be the reference's sum."""
    amps = (0.25, -0.125, 0.375, 0.0625, -0.3125, 0.1875)[:k]
    return lambda grid: _smooth_periodic_state(grid, amps)


@pytest.mark.parametrize("data", [_outflow_riemann_state,
                                  _smooth_periodic_state,
                                  _periodic_states(4), _periodic_states(5),
                                  _periodic_states(6)],
                         ids=["riemann-outflow", "smooth-periodic",
                              "periodic-k4", "periodic-k5", "periodic-k6"])
@pytest.mark.parametrize("fixed_dt", [None, 1.0 / 128.0],
                         ids=["adaptive", "fixed"])
def test_direct_oracle_is_bitwise_equal_to_the_per_step_reference(data,
                                                                  fixed_dt):
    state = data(_grid(96))
    cfg = ScalarConfig(t_end=0.5, record_times=[0.125, 0.5],
                       fixed_dt=fixed_dt)
    traj = solve_direct(state, cfg)
    times, states = _reference_solve_direct(state, cfg)
    assert traj.times == times
    for got, want in zip(traj.states, states, strict=True):
        assert all(np.array_equal(c.values, w)
                   for c, w in zip(got.components, want, strict=True))


def test_direct_oracle_checks_the_cfl_condition_under_fixed_dt():
    # L = 1/(1 + 0.25) and dx = 1/16, so fixed_dt = 0.25 gives dt*L/dx = 3.2
    state = _riemann_state(_grid(64), [(0.25, 0.5), (0.25, 0.75)])
    cfg = ScalarConfig(t_end=1.0, record_times=[1.0], fixed_dt=0.25)
    with pytest.raises(HypothesisViolation,
                       match=r"at step 0, t=0\.0: dt\*L/dx = 3\.2\d* > 1"):
        solve_direct(state, cfg)
    ok = ScalarConfig(t_end=1.0, record_times=[1.0], fixed_dt=1.0 / 16.0)
    traj = solve_direct(state, ok)
    assert traj.times == [0.0, 1.0]
    assert min(float(np.min(c.values))
               for c in traj.at(1.0).components) >= 0.0


def test_semigroup_defect_is_exactly_zero_when_aligned():
    grid = _grid(64)
    state = _riemann_state(grid, [(0.25, 0.5), (0.25, 0.75)])
    cfg = ScalarConfig(t_end=0.5, record_times=[], fixed_dt=1.0 / 64.0)
    assert semigroup_defect(state, 0.25, 0.25, cfg) == 0.0
    assert semigroup_defect(state, 0.25, 0.25, cfg, solver=solve_direct) == 0.0


def test_semigroup_defect_alignment_errors():
    grid = _grid(32)
    state = _riemann_state(grid, [(0.25, 0.5), (0.25, 0.75)])
    adaptive = ScalarConfig(t_end=0.5, record_times=[])
    with pytest.raises(InvalidArgument):
        semigroup_defect(state, 0.25, 0.25, adaptive)
    cfg = ScalarConfig(t_end=0.5, record_times=[], fixed_dt=1.0 / 64.0)
    with pytest.raises(InvalidArgument):
        semigroup_defect(state, 0.013, 0.25, cfg)
    with pytest.raises(InvalidArgument):
        semigroup_defect(state, -0.25, 0.25, cfg)


def test_criterion_9_defects_are_pinned_to_the_last_bit():
    """The ten defects of the full gate's criterion 9 (five fixtures, two
    splits), as one-run-at-a-time staging gave them: every aligned
    composition is exact but fixture G after s = 0.25, where the restart
    from from_vw's state rounds its total differently."""
    grid = Grid1D(-2.0, 2.0, 256)
    U0s = [_split_state(grid, fixture) for fixture in SPLIT_FIXTURES.values()]
    cfg = ScalarConfig(t_end=1.0, record_times=[1.0], fixed_dt=1.0 / 512)
    defects = semigroup_defect_many(U0s, [(0.5, 0.5), (0.75, 0.25)], cfg)
    assert [repr(d) for split in defects for d in split] == (
        ["0.0"] * 8 + ["3.9898639947466563e-17", "0.0"])


def test_semigroup_legs_step_each_row_only_as_far_as_it_needs():
    """Leg 1 is one solve to the longest t + s that records every s and
    t + s; leg 2 is one solve whose rows (each split (t, s) of a nonzero t
    once, each state) run on their own config and take exactly
    round(t / dt) steps. A split of zero steps solves nothing."""
    grid = _grid(32)
    U0s = [_riemann_state(grid, [(0.25, 0.5), (0.25, 0.75)]),
           _riemann_state(grid, [(0.5, 0.25), (0.25, 0.5)])]
    dt = 1.0 / 64.0
    cfg = ScalarConfig(t_end=1.0, record_times=[], fixed_dt=dt)
    calls = []

    def solver(states, configs):
        trajs = solve_chromatography_many(states, configs)
        calls.append([(config.record_times,
                       len(traj.v_traj.meta["dt_schedule"]))
                      for config, traj in zip(configs, trajs)])
        return trajs

    splits = [(0.25, 0.25), (0.125, 0.375), (0.25, 0.125), (0.0, 0.0),
              (0.25, 0.25)]
    defects = semigroup_defect_many(U0s, splits, cfg, solver)
    assert calls == [[([0.125, 0.25, 0.375, 0.5], 32)] * 2,
                     [([0.125], 8)] * 2 + [([0.25], 16)] * 4]
    assert defects[3] == [0.0, 0.0]
    assert defects[0] == defects[4]
    for (t, s), row in zip(splits, defects):
        assert row == [semigroup_defect(U0, t, s, cfg) for U0 in U0s]
    # 0.1 + 0.2 and 0.3 differ in the last bit and share one step's record
    cfg = ScalarConfig(t_end=1.0, record_times=[], fixed_dt=0.05)
    splits = [(0.1, 0.2), (0.0, 0.3)]
    assert semigroup_defect_many(U0s, splits, cfg) == [
        [semigroup_defect(U0, t, s, cfg) for U0 in U0s] for t, s in splits]


def test_split_records_store_each_w_once():
    """A record's state holds the w fields of w_trajs themselves, and its
    u1 is bitwise from_vw's."""
    grid = _grid(32)
    U0s = [_riemann_state(grid, [(0.25, 0.5), (0.25, 0.75), (0.5, 0.125)]),
           _riemann_state(grid, [(0.5, 0.25), (0.25, 0.5), (0.0, 0.25)])]
    cfg = ScalarConfig(t_end=0.25, record_times=[0.125, 0.25])
    for traj in solve_chromatography_many(U0s, cfg):
        for j, state in enumerate(traj.states):
            ws = [wt.fields[j] for wt in traj.w_trajs]
            assert all(a is b for a, b in zip(state.components[1:], ws))
            want = from_vw(traj.v_traj.fields[j], ws)
            assert [c.values.tobytes() for c in state.components] == [
                c.values.tobytes() for c in want.components]


def test_state_l1_distance_requires_matching_component_counts():
    grid = _grid(16)
    a = _riemann_state(grid, [(1.0, 0.5), (0.5, 0.25)])
    b = _riemann_state(grid, [(1.0, 0.5)] * 3)
    with pytest.raises(InvalidArgument):
        state_l1_distance(a, b)


def test_trajectory_accessors():
    grid = _grid(64)
    cfg = ScalarConfig(t_end=0.25, record_times=[0.125, 0.25])
    traj = solve_chromatography(
        _riemann_state(grid, [(0.25, 0.5), (0.25, 0.75)]), cfg)
    assert len(traj) == 3
    comp = traj.w_trajs[0]
    assert comp.times == traj.times
    assert np.array_equal(comp.fields[-1].values,
                          traj.states[-1].components[1].values)
    with pytest.raises(InvalidArgument):
        traj.at(0.1)


def _first_non_finite_direct_step(U0, config):
    """The first step after which a component is not finite, from a plain
    per-component Lax-Friedrichs loop on the shared time plan that checks
    np.isfinite after each step; None when the state stays finite."""
    grid = U0.grid
    dx = grid.dx
    comps = [c.values.copy() for c in U0.components]

    def speed():
        return 1.0 / (1.0 + max(min(float(c.min()) for c in comps), 0.0))

    for step, dt, _, _ in _time_steps(config, dx, speed):
        exts = [CellField(grid, c, U0.boundary).extended(1) for c in comps]
        v_ext = np.sum(exts, axis=0)
        comps = [_kernels.scalar_step(
                     c, _kernels.lxf_fluxes(ce, ce / (1.0 + v_ext),
                                            dx / (2.0 * dt)), dt / dx)
                 for c, ce in zip(comps, exts)]
        if not all(np.all(np.isfinite(c)) for c in comps):
            return step
    return None


def test_direct_blowup_names_the_first_non_finite_step():
    """A record 1e-9 after the third CFL step makes the fourth step that
    short, so its jump term dx/(2 dt) * (u_r - u_l) overflows on a
    1e305 plateau that the full steps carry."""
    grid = _grid(64)
    plateau = project(
        lambda x: np.where(np.abs(np.asarray(x)) < 0.25, 1e305, 0.0), grid)
    U0 = ChromState([plateau, project(lambda x: 0.5 + 0.0 * x, grid)])
    cfg = ScalarConfig(t_end=3 * (0.45 * grid.dx) + 1e-9)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _first_non_finite_direct_step(U0, cfg)
        with pytest.raises(NumericalBlowup) as err:
            solve_direct(U0, cfg)
    assert expected == 3
    assert err.value.step == expected
    assert f"non-finite state at step {expected}," in str(err.value)
