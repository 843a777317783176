"""Transport stage: locked upwind scheme, mollified velocities, and the
characteristics route.

The smooth runs here all use the chromatography velocity b(v) = 1/(1+v)
riding on a scalar trajectory solved with the joint speed bound, which is
the bound solve_split steps with.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitlaw import _kernels
from splitlaw.core import (
    CellField,
    FluxFunction,
    Grid1D,
    Trajectory,
    _worst_residual,
    bump_test,
    burgers_flux,
    chromatography_flux,
    lp_distance,
    project,
)
from splitlaw.errors import (DegenerateDensity, InvalidArgument,
                             NumericalBlowup, OutOfDomain)
from splitlaw.scalar import (ScalarConfig, _spacetime_quadrature, _stack,
                             _time_steps, critical_point, solve_scalar)
from splitlaw.transport import (
    MollifierSpec,
    TransportPair,
    VelocityField,
    _gaussian_kernel,
    _velocity_rows,
    flow_map,
    joint_speed_flux,
    mollify,
    renorm_residual,
    solve_by_characteristics,
    solve_split,
    weighted_sup_norm,
)


def _b(v):
    return 1.0 / (1.0 + np.asarray(v, dtype=float))


def _bump(grid):
    return project(lambda x: 1.0 + 0.5 * np.exp(-4.0 * x * x), grid)


def _smooth_run(n=256, t_end=0.5, records=21):
    grid = Grid1D(-2.0, 2.0, n)
    v0 = _bump(grid)
    flux = joint_speed_flux(chromatography_flux(), _b)
    cfg = ScalarConfig(t_end=t_end,
                       record_times=list(np.linspace(0.0, t_end, records)))
    return grid, solve_scalar(flux, v0, cfg)


def _smooth_split(w0s_of, n, t_end, records):
    """solve_split for the chromatography law on _smooth_run's data, with
    the w0s that w0s_of builds from v0."""
    v0 = _bump(Grid1D(-2.0, 2.0, n))
    cfg = ScalarConfig(t_end=t_end,
                       record_times=list(np.linspace(0.0, t_end, records)))
    return solve_split(chromatography_flux(), _b, v0, w0s_of(v0), cfg)


def continuity_residual(pair, w_traj, test_fns):
    """Weak residual of w_t + (b w)_x against space-time tests, with b the
    velocity b(v) of the TransportPair pair."""

    def arrays(js):
        w = _stack(w_traj.fields, js)
        v = _stack(pair.rho.fields, js)
        b = np.asarray(pair.b_of(v), dtype=float)
        return w, b * w

    return _worst_residual(
        abs(r) for r in _spacetime_quadrature(w_traj, arrays, test_fns))


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
    for epsilon in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidArgument, match="must be > 0 and finite"):
            MollifierSpec(epsilon)
    with pytest.raises(InvalidArgument):
        mollify(f, MollifierSpec(0.5 * grid.dx))
    # 6 eps / dx = 120 ghost cells a side cannot wrap a 64-cell torus
    ring = CellField(grid, np.ones(grid.n), boundary="periodic")
    with pytest.raises(InvalidArgument, match="wider than the periodic"):
        mollify(ring, MollifierSpec(20.0 * grid.dx))


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
    assert np.array_equal(pair.rho_at(0.0).values, vt.fields[0].values)
    with pytest.raises(OutOfDomain):
        pair.rho_at(vt.times[-1] + 1.0)
    # one record: within 1e-12 of it, every time reads it
    single = TransportPair(Trajectory([0.5], [vt.fields[2]]), _b)
    for t in (0.5 - 1e-13, 0.5, 0.5 + 1e-13):
        assert np.array_equal(single.rho_at(t).values, vt.fields[2].values)


def test_upwind_ratio_one_rides_the_density_bitwise():
    vt, (wt,) = _smooth_split(lambda v0: [v0.copy()], 128, 0.25, 6)
    for wf, vf in zip(wt.fields, vt.fields, strict=True):
        assert np.array_equal(wf.values, vf.values)


def test_upwind_constant_ratio_is_exact():
    vt, (wt,) = _smooth_split(
        lambda v0: [v0.with_values(-0.5 * v0.values)], 128, 0.25, 6)
    for wf, vf in zip(wt.fields, vt.fields, strict=True):
        assert np.array_equal(wf.values, -0.5 * vf.values)
        assert weighted_sup_norm(wf.with_values(np.abs(wf.values)), vf) == 0.5


def test_upwind_exact_invariants_for_signed_data():
    lam = np.random.default_rng(4).uniform(-1.0, 1.0, 96)

    def w0s(v0):
        return [v0.with_values(lam * v0.values),
                v0.with_values(np.abs(lam) * v0.values)]

    vt, (signed, nonneg) = _smooth_split(w0s, 96, 0.2, 6)
    sup0 = weighted_sup_norm(signed.fields[0], vt.fields[0])
    for wf, vf in zip(signed.fields, vt.fields, strict=True):
        assert np.all(np.abs(wf.values) <= vf.values)
        assert weighted_sup_norm(wf, vf) <= sup0
    for wf in nonneg.fields:
        assert np.min(wf.values) >= 0.0


def test_upwind_rejects_scalar_runs_without_the_joint_bound():
    # the flux's speed bound and the velocity both understate the speed
    # 10x, so the steps are too long to be convex combinations
    base = chromatography_flux()
    slow = FluxFunction(g=base.g, gprime=base.gprime,
                        convexity=base.convexity, c=base.c,
                        L_of_range=lambda lo, hi: 0.1 * base.L_of_range(lo, hi),
                        name="slow", admissible_min=base.admissible_min)
    grid = Grid1D(-2.0, 2.0, 128)
    v0 = project(lambda x: 1.0 + 0.5 * np.sin(np.pi * x / 2.0), grid)
    cfg = ScalarConfig(t_end=0.25, cfl=0.9, record_times=[0.25])
    # the error names the step, its start time, the worst cell, and the
    # measured value against its bound
    with pytest.raises(InvalidArgument, match=(
            r"in step 0, from t=0\.0: v - mu\*G = -\S+ at cell \d+, "
            r"below the bound -1\.\d+e-12; .*joint_speed_flux")):
        solve_split(slow, lambda v: 0.1 * _b(v), v0, [v0.copy()], cfg)


def test_upwind_rejects_non_finite_w0():
    def w0s(v0):
        values = v0.values.copy()
        values[10] = np.nan
        return [v0.with_values(values)]

    with pytest.raises(InvalidArgument, match="finite"):
        _smooth_split(w0s, 64, 0.125, 2)


def test_upwind_rejects_inconsistent_inputs():
    grid = Grid1D(-2.0, 2.0, 64)
    v0 = _bump(grid)
    cfg = ScalarConfig(t_end=0.125, record_times=[0.125])
    flux = chromatography_flux()
    other = CellField(Grid1D(-2.0, 2.0, 32), np.ones(32))
    with pytest.raises(InvalidArgument, match="grid"):
        solve_split(flux, _b, v0, [other], cfg)
    wrong_boundary = CellField(grid, v0.values, boundary="periodic")
    with pytest.raises(InvalidArgument, match="boundary"):
        solve_split(flux, _b, v0, [v0.copy(), wrong_boundary], cfg)
    with pytest.raises(InvalidArgument, match="positive"):
        solve_split(flux, lambda v: -np.ones_like(np.asarray(v, dtype=float)),
                    v0, [v0.copy()], cfg)


def _record_and_replay(flux, b_of_v, v0, w0s, config):
    """The split solve as record and replay, kept here as a reference.

    The scalar run under joint_speed_flux keeps every interface flux
    array; each w is then replayed on those fluxes with
    _kernels.upwind_step, and the replayed v must equal the recorded one
    at every record. Returns (v records, dt schedule, w records per w0).
    """
    joint = joint_speed_flux(flux, b_of_v)
    grid = v0.grid
    dx = grid.dx
    periodic = v0.boundary == "periodic"
    convex = 1 if joint.convexity == "convex" else 0
    const = {"range": None}
    v = v0.values.astype(float).copy()

    def speed():
        lo, hi = float(v.min()), float(v.max())
        if (lo, hi) != const["range"]:
            omega = critical_point(joint, lo, hi)
            const.update(range=(lo, hi), L=joint.L_of_range(lo, hi),
                         omega=omega, g_omega=float(joint.g(omega))
                         if math.isfinite(omega) else 0.0)
        return const["L"]

    fluxes, dts, lands_at, v_records = [], [], [], [v.copy()]
    for _, dt, _, lands in _time_steps(config, dx, speed):
        ve = CellField(grid, v, v0.boundary).extended(1)
        gve = np.asarray(joint.g(ve), dtype=float)
        G = np.asarray(_kernels.godunov_fluxes(
            ve[:-1], ve[1:], gve[:-1], gve[1:], const["g_omega"],
            const["omega"], convex))
        v = _kernels.scalar_step(v, G, dt / dx)
        fluxes.append(G)
        dts.append(dt)
        lands_at.append(lands)
        if lands:
            v_records.append(v.copy())

    w_records = []
    for w0 in w0s:
        vr = v0.values.astype(float).copy()
        w = w0.values.astype(float).copy()
        rows = [w.copy()]
        for dt, G, lands in zip(dts, fluxes, lands_at):
            vr, w = _kernels.upwind_step(vr, w, G, dt / dx, int(periodic))
            if lands:
                assert np.array_equal(vr, v_records[len(rows)])
                rows.append(w.copy())
        w_records.append(rows)
    return v_records, dts, w_records


def _same_bits(arrays, fields):
    return len(arrays) == len(fields) and all(
        a.tobytes() == f.values.tobytes() for a, f in zip(arrays, fields))


@st.composite
def _split_cases(draw):
    """Piecewise-constant v (with exact zeros possible) and 1-3 signed w."""
    n = draw(st.integers(16, 120))

    def piecewise(lo, hi):
        cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=1,
                                    max_size=4, unique=True)))
        vals = draw(st.lists(st.floats(lo, hi), min_size=len(cuts) + 1,
                             max_size=len(cuts) + 1))
        return np.repeat(vals, np.diff([0] + cuts + [n]))

    if draw(st.booleans()):
        flux, b_of_v, v_vals = (chromatography_flux(), _b,
                                piecewise(0.0, 2.0))
    else:
        flux, v_vals = burgers_flux(), piecewise(0.0, 1.0)

        def b_of_v(v):
            v = np.asarray(v, dtype=float)
            return 1.0 / (1.0 + v * v)
    boundary = draw(st.sampled_from(["constant-extension", "periodic"]))
    grid = Grid1D(-1.0, 1.0, n)
    v0 = CellField(grid, v_vals, boundary)
    w0s = [CellField(grid, piecewise(-1.0, 1.0), boundary)
           for _ in range(draw(st.integers(1, 3)))]
    t_end = 0.25
    fixed_dt = None
    if draw(st.booleans()):
        # the joint speed bound is at most 2 on these ranges
        fixed_dt = t_end / (2 * math.ceil(t_end / (2 * 0.45 * grid.dx / 2.0)))
    cfg = ScalarConfig(t_end=t_end, record_times=[0.0, t_end / 2, t_end],
                       fixed_dt=fixed_dt)
    return flux, b_of_v, v0, w0s, cfg


@settings(max_examples=40, deadline=None)
@given(_split_cases())
def test_split_is_bitwise_equal_to_record_and_replay(case):
    flux, b_of_v, v0, w0s, cfg = case
    with np.errstate(invalid="ignore", over="ignore"):
        v_records, dts, w_records = _record_and_replay(flux, b_of_v, v0, w0s,
                                                       cfg)
        if not all(np.all(np.isfinite(w)) for r in w_records for w in r):
            # w/v overflowed where v is subnormal: the march reports it
            with pytest.raises(NumericalBlowup, match="non-finite w"):
                solve_split(flux, b_of_v, v0, w0s, cfg)
            return
        v_traj, w_trajs = solve_split(flux, b_of_v, v0, w0s, cfg)
    assert v_traj.meta["dt_schedule"] == dts
    assert _same_bits(v_records, v_traj.fields)
    assert len(w_trajs) == len(w_records)
    for w_traj, rows in zip(w_trajs, w_records):
        assert w_traj.times == v_traj.times
        assert _same_bits(rows, w_traj.fields)
    # negative control: one ulp in one cell of the last record is caught
    rows = w_records[-1]
    rows[-1][0] = np.nextafter(rows[-1][0], math.inf)
    assert not _same_bits(rows, w_trajs[-1].fields)


def test_weighted_sup_norm_conventions():
    grid = Grid1D(0.0, 1.0, 4)
    v = CellField(grid, [1.0, 2.0, 0.0, 4.0])
    w = CellField(grid, [0.5, -1.0, 0.0, 1.0])
    assert weighted_sup_norm(w, v) == 0.5
    w_bad = CellField(grid, [0.5, -1.0, 0.1, 1.0])
    assert weighted_sup_norm(w_bad, v) == math.inf


def test_weighted_sup_norm_is_nan_when_a_cell_is_nan():
    """max(0.0, nan) is 0.0 and nan != 0.0 read as w/0, so a NaN in w or v
    used to read as 0.0 or inf."""
    grid = Grid1D(0.0, 1.0, 4)
    v = CellField(grid, [1.0, 2.0, 0.0, 4.0])
    w = CellField(grid, [0.5, -1.0, 0.0, 1.0])
    for j in range(4):  # j = 2 is a cell where v = 0
        w_nan = w.values.copy()
        w_nan[j] = math.nan
        assert math.isnan(weighted_sup_norm(w.with_values(w_nan), v))
        v_nan = v.values.copy()
        v_nan[j] = math.nan
        assert math.isnan(weighted_sup_norm(w, v.with_values(v_nan)))


def test_weighted_sup_norm_matches_the_per_cell_definition():
    def per_cell(w, v):
        out = 0.0
        for wi, vi in zip(w, v):
            if vi == 0.0:
                if wi != 0.0:
                    return math.inf
                continue
            out = max(out, abs(wi) / vi)
        return out

    grid = Grid1D(0.0, 1.0, 64)
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.choice([0.0, -0.0, 5e-324, 0.3, 2.0, -1.0], grid.n)
        w = np.where(v == 0.0, 0.0, rng.uniform(-3.0, 3.0, grid.n))
        if rng.random() < 0.3:
            w[rng.integers(grid.n)] = 0.5
        with np.errstate(over="ignore"):  # |w| / 5e-324 is inf
            got = weighted_sup_norm(CellField(grid, w), CellField(grid, v))
            assert got == per_cell(w, v)
    zero = CellField(grid, np.zeros(grid.n))
    assert weighted_sup_norm(zero, zero) == 0.0


def test_regularized_velocity_is_a_weighted_average_of_b():
    grid, vt = _smooth_run(n=128, t_end=0.25, records=6)
    pair = TransportPair(vt, _b)
    spec = MollifierSpec(4.0 * grid.dx)
    (reg,) = _velocity_rows(pair, _gaussian_kernel(grid.dx, spec), [0.1])
    b_vals = _b(pair.rho_at(0.1).values)
    assert np.min(reg) >= np.min(b_vals) - 1e-12
    assert np.max(reg) <= np.max(b_vals) + 1e-12
    # constant b passes through the quotient untouched
    grid_c, pair_c = _constant_pair(0.4)
    spec_c = MollifierSpec(4.0 * grid_c.dx)
    (reg_c,) = _velocity_rows(pair_c, _gaussian_kernel(grid_c.dx, spec_c),
                              [0.5])
    assert np.max(np.abs(reg_c - 0.4)) <= 1e-12


def test_regularized_velocity_needs_positive_density():
    grid = Grid1D(-2.0, 2.0, 64)
    zero = CellField(grid, np.zeros(grid.n))
    vt = Trajectory([0.0, 1.0], [zero, zero.copy()])
    pair = TransportPair(vt, _b)
    with pytest.raises(DegenerateDensity):
        _velocity_rows(
            pair, _gaussian_kernel(grid.dx, MollifierSpec(4.0 * grid.dx)),
            [0.5])


def test_velocity_field_sampling_and_padding():
    grid, vt = _smooth_run(n=128, t_end=0.25, records=6)
    pair = TransportPair(vt, _b)
    velocity = VelocityField(pair, MollifierSpec(4.0 * grid.dx))
    centers = grid.centers()
    (row,) = _velocity_rows(pair, velocity.kernel, [0.1])
    assert np.allclose(velocity.sample(0.1, centers), row, atol=1e-14)
    # just outside the box: edge-value extension, no error
    edge = velocity.sample(0.1, grid.x_max + 0.1)
    assert edge == pytest.approx(float(row[-1]))
    with pytest.raises(OutOfDomain):
        velocity.sample(0.1, grid.x_max + 100.0)
    # either side, and one escaped point among many
    with pytest.raises(OutOfDomain):
        velocity.sample(0.1, np.array([0.0, grid.x_min - 100.0, 0.5]))
    assert velocity.sample(0.1, np.array([])).shape == (0,)


def test_flow_map_constant_velocity_is_a_translation():
    grid, pair = _constant_pair(0.4)
    velocity = VelocityField(pair, MollifierSpec(4.0 * grid.dx))
    assert flow_map(velocity, 0.0, 1.0, 0.0) == pytest.approx(0.4, abs=1e-10)
    xs = np.array([-1.0, 0.0, 0.5])
    assert np.allclose(flow_map(velocity, 0.0, 1.0, xs), xs + 0.4, atol=1e-10)
    assert flow_map(velocity, 0.3, 0.3, 0.1) == 0.1


def test_flow_map_roundtrip_and_jacobian_bounds():
    grid, vt = _smooth_run(n=256, t_end=0.5, records=21)
    pair = TransportPair(vt, _b)
    velocity = VelocityField(pair, MollifierSpec(8.0 * grid.dx))
    x0 = np.array([-0.5, 0.0, 0.4])
    fwd = flow_map(velocity, 0.0, 0.5, x0)
    back = flow_map(velocity, 0.5, 0.0, fwd)
    assert np.max(np.abs(back - x0)) <= 1e-8
    # volume distortion is controlled by the density ratio
    matrix = np.stack([f.values for f in vt.fields])
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


def _mollify_once_per_call(fieldv, spec):
    """mollify as written before the weights were shared: built per call."""
    dx = fieldv.grid.dx
    K = int(math.ceil(6.0 * spec.epsilon / dx))
    offsets = np.arange(-K, K + 1) * dx
    weights = np.exp(-offsets * offsets / (2.0 * spec.epsilon * spec.epsilon))
    weights /= math.fsum(weights.tolist())
    sm = np.convolve(fieldv.extended(K), weights[::-1], mode="valid")
    return fieldv.with_values(sm)


class _VelocityPerCall:
    """VelocityField as written before: weights rebuilt by every mollify,
    cell centres by every sample, and two full escape comparisons."""

    def __init__(self, pair, spec):
        self.pair = pair
        self.spec = spec
        self._cache = {}
        self._pad = None

    def at(self, t):
        key = round(float(t), 14)
        if key not in self._cache:
            rho = self.pair.rho_at(t)
            b = np.asarray(self.pair.b_of(rho.values), dtype=float)
            num = _mollify_once_per_call(rho.with_values(b * rho.values),
                                         self.spec)
            den = _mollify_once_per_call(rho, self.spec)
            self._cache[key] = rho.with_values(num.values / den.values)
        return self._cache[key]

    def sample(self, t, x):
        f = self.at(t)
        grid = f.grid
        x = np.asarray(x, dtype=float)
        if self._pad is None:
            b_max = 0.0
            for g in self.pair.rho.fields:
                b = np.asarray(self.pair.b_of(g.values), dtype=float)
                b_max = max(b_max, float(np.max(np.abs(b))))
            self._pad = (b_max * self.pair.rho.times[-1]
                         + 6.0 * self.spec.epsilon + self.pair.grid.dx)
        if (np.any(x < grid.x_min - self._pad)
                or np.any(x > grid.x_max + self._pad)):
            raise OutOfDomain("characteristic left the padded domain")
        return np.interp(x, grid.centers(), f.values)


class _Reversed:
    """The backward flow as written before flow_map ran backward itself:
    the time-reflected, negated velocity, integrated forward over [0, t].
    It plans nothing, so every row is built at its own time."""

    def __init__(self, velocity, t_top):
        self.velocity = velocity
        self.t_top = t_top
        self.pair = velocity.pair
        self.spec = velocity.spec

    def plan(self, times):
        pass

    def sample(self, s, x):
        return -self.velocity.sample(self.t_top - s, x)


def _characteristics_per_call(pair, w0, spec, record_times):
    rho0 = pair.rho_at(0.0)
    lam0 = (_mollify_once_per_call(w0, spec).values
            / _mollify_once_per_call(rho0, spec).values)
    velocity = _VelocityPerCall(pair, spec)
    centers = pair.grid.centers()
    out = []
    for t in record_times:
        if t == 0.0:
            out.append(lam0 * _mollify_once_per_call(rho0, spec).values)
            continue
        back = flow_map(_Reversed(velocity, t), 0.0, t, centers)
        lam = np.interp(back, centers, lam0)
        out.append(lam * _mollify_once_per_call(pair.rho_at(t), spec).values)
    return out


@pytest.mark.parametrize("n, width, boundary", [
    (64, 4.0, "constant-extension"), (96, 8.0, "periodic"),
    (128, 5.5, "constant-extension")])
def test_characteristics_are_bitwise_the_per_call_mollifier(n, width,
                                                            boundary):
    """Sharing the weights and the cell centres, planning the sample times
    and running flow_map backward moves no bit of the characteristics
    route (the reference integrates the reflected field forward), at
    record times on and off the solver's."""
    grid = Grid1D(-2.0, 2.0, n)
    v0 = CellField(grid, _bump(grid).values, boundary)
    cfg = ScalarConfig(t_end=0.25,
                       record_times=list(np.linspace(0.0, 0.25, 6)))
    vt = solve_scalar(joint_speed_flux(chromatography_flux(), _b), v0, cfg)
    pair = TransportPair(vt, _b)
    spec = MollifierSpec(width * grid.dx)
    w0 = v0.with_values(v0.values * np.cos(grid.centers()))
    record = [0.0, 0.05, 0.13, 0.25]
    got = solve_by_characteristics(pair, w0, spec, record)
    want = _characteristics_per_call(pair, w0, spec, record)
    for field, values in zip(got.fields, want):
        assert field.values.tobytes() == values.tobytes()



@pytest.mark.parametrize("boundary", ["constant-extension", "periodic"])
def test_velocity_rows_built_as_one_stack_are_the_per_time_rows(boundary):
    """One stack of sample times around the record at 0.1, on it and
    within 1e-12 of it, gives row for row the velocity built at each time
    alone, and the per-call mollifier's."""
    grid = Grid1D(-2.0, 2.0, 96)
    v0 = CellField(grid, _bump(grid).values, boundary)
    cfg = ScalarConfig(t_end=0.25,
                       record_times=list(np.linspace(0.0, 0.25, 6)))
    vt = solve_scalar(joint_speed_flux(chromatography_flux(), _b), v0, cfg)
    assert vt.times[2] == 0.1
    pair = TransportPair(vt, _b)
    spec = MollifierSpec(5.5 * grid.dx)
    kernel = _gaussian_kernel(grid.dx, spec)
    ts = [0.25, 0.0625, 0.09, 0.1, 0.1 + 5e-13, 0.1 - 5e-13, 0.11, 0.0]
    rows = _velocity_rows(pair, kernel, ts)
    assert rows.shape == (len(ts), grid.n)
    for t, row in zip(ts, rows, strict=True):
        (alone,) = _velocity_rows(pair, kernel, [t])
        per_call = _VelocityPerCall(pair, spec).at(t).values
        assert row.tobytes() == alone.tobytes() == per_call.tobytes()

def test_transport_residuals_are_nan_when_a_total_is_nan():
    """max(worst, abs(nan)) is worst, so a NaN total used to be dropped."""
    _, vt = _smooth_run(n=64, records=11)
    tests = [bump_test(0.05, 0.45, -1.5, 1.5)]
    pair = TransportPair(vt, _b)
    assert continuity_residual(pair, vt, tests) <= 5e-3
    assert renorm_residual(pair, vt, lambda u: u * u, tests) <= 5e-3

    def holed_b(v):
        v = np.asarray(v, dtype=float)
        return np.where(v > 1.2, np.nan, _b(v))

    holed = TransportPair(vt, holed_b)
    assert math.isnan(continuity_residual(holed, vt, tests))
    assert math.isnan(renorm_residual(holed, vt, lambda u: u * u, tests))


def test_renorm_residual_separates_matched_from_mismatched_velocity():
    # Shock data: the mismatch term integrates the flux variation across the
    # jump, so a smooth near-symmetric profile would mask it.
    grid = Grid1D(-2.0, 2.0, 256)
    v0 = project(lambda x: np.where(np.asarray(x) < 0.0, 0.1, 2.0), grid)
    flux = joint_speed_flux(chromatography_flux(), _b)
    cfg = ScalarConfig(t_end=0.5,
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
