"""Batched runs on one grid: every row of a batch is bitwise its own run,
the exact invariants hold on random batches, and an error from one row of
a batch names the row."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitlaw import _kernels
from splitlaw.chroma import (ChromState, semigroup_defect_many,
                             solve_chromatography, solve_chromatography_many,
                             solve_direct, solve_direct_many)
from splitlaw.core import (CellField, FluxFunction, Grid1D, Trajectory,
                           burgers_flux, chromatography_flux, mass, project)
from splitlaw.errors import (HypothesisViolation, InvalidArgument,
                             NumericalBlowup)
from splitlaw.kk import KKState, affine_speed, solve_kk, solve_kk_many
from splitlaw.scalar import (ScalarConfig, _record_plan, _time_steps,
                             comparison_defect, critical_point,
                             max_principle_defect, solve_scalar,
                             solve_scalar_many, tvd_defect)
from splitlaw.transport import (joint_speed_flux, solve_split,
                                solve_split_many)

EXACT_TOL = 1e-12


def _b(v):
    return 1.0 / (1.0 + v)


def _pieces(n, cuts, values):
    """Cell values: values[j] on the cells from cuts[j-1] to cuts[j]."""
    return np.repeat(np.asarray(values, dtype=float),
                     np.diff([0] + list(cuts) + [n]))


@st.composite
def _rows(draw, n, values, min_jumps=0):
    """One row of a batch: piecewise-constant v and a ratio lam in [-1, 1],
    with jumps on even cells, so every piece is at least two cells wide,
    and each piece of v different from the next."""
    knots = draw(st.lists(st.integers(1, n // 2 - 1), unique=True,
                          min_size=min_jumps, max_size=3))
    cuts = sorted(2 * k for k in knots)
    v = draw(st.lists(values, min_size=len(cuts) + 1,
                      max_size=len(cuts) + 1).filter(
        lambda vs: all(a != b for a, b in zip(vs, vs[1:]))))
    lam = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(cuts) + 1,
                        max_size=len(cuts) + 1))
    return _pieces(n, cuts, v), _pieces(n, cuts, lam)


@st.composite
def _batches(draw):
    """B = 1..6 rows with values in different ranges, on one grid with one
    boundary mode, run with adaptive or fixed dt, split or direct."""
    n = draw(st.sampled_from([8, 16, 24, 32]))
    rows = draw(st.lists(_rows(n, st.floats(0.0, 3.0)), min_size=1,
                         max_size=6))
    return (n, draw(st.sampled_from(["constant-extension", "periodic"])),
            draw(st.booleans()), draw(st.sampled_from(["split", "direct"])),
            rows)


def _config(n, fixed):
    # [-1, 1] with n cells: dx = 2/n, and dt = dx/2 keeps dt*L/dx <= 1/2,
    # as every speed bound here is at most 1 for data >= 0
    if fixed:
        return ScalarConfig(t_end=0.25, record_times=[0.125, 0.25],
                            fixed_dt=1.0 / n)
    return ScalarConfig(t_end=0.25, record_times=[0.1, 0.25])


def _same_trajectory(a, b):
    """Same times and meta, and every record the same bits."""
    return (a.times == b.times and a.meta == b.meta
            and len(a.fields) == len(b.fields)
            and all(x.values.tobytes() == y.values.tobytes()
                    for x, y in zip(a.fields, b.fields)))


def _same_split(a, b):
    (va, wa), (vb, wb) = a, b
    return (_same_trajectory(va, vb) and len(wa) == len(wb)
            and all(_same_trajectory(x, y) for x, y in zip(wa, wb)))


def _same_states(a, b):
    return (a.times == b.times and a.meta == b.meta
            and len(a.states) == len(b.states)
            and all(x.values.tobytes() == y.values.tobytes()
                    for sa, sb in zip(a.states, b.states)
                    for x, y in zip(sa.components, sb.components)))


def _one_ulp_up(field, i):
    field.values[i] = np.nextafter(field.values[i], math.inf)


@settings(max_examples=60, deadline=None)
@given(_batches(), st.data())
def test_each_batch_row_is_bitwise_its_unbatched_run(batch, data):
    n, boundary, fixed, kind, rows = batch
    grid = Grid1D(-1.0, 1.0, n)
    cfg = _config(n, fixed)
    if kind == "split":
        v0s = [CellField(grid, v, boundary) for v, _ in rows]
        w0s = [[v0.with_values(lam * v0.values),
                v0.with_values(0.5 * v0.values)]
               for v0, (_, lam) in zip(v0s, rows)]
        got = solve_split_many(chromatography_flux(), _b, v0s, w0s, cfg)
        want = [solve_split(chromatography_flux(), _b, v0, w0, cfg)
                for v0, w0 in zip(v0s, w0s)]
        same = _same_split
        last_record = lambda run: run[0].fields[-1]  # noqa: E731
    else:
        U0s = [ChromState([CellField(grid, 0.5 * (1.0 + lam) * v, boundary),
                           CellField(grid, 0.5 * (1.0 - lam) * v, boundary)])
               for v, lam in rows]
        got = solve_direct_many(U0s, cfg)
        want = [solve_direct(U0, cfg) for U0 in U0s]
        same = _same_states
        last_record = lambda traj: traj.states[-1].components[0]  # noqa
    assert len(got) == len(want) == len(rows)
    for g, w in zip(got, want):
        assert same(g, w)
    # negative control: one ulp in one cell of one record is told apart
    r = data.draw(st.integers(0, len(rows) - 1))
    _one_ulp_up(last_record(got[r]), data.draw(st.integers(0, n - 1)))
    assert not same(got[r], want[r])


@st.composite
def _seam_batches(draw):
    """B = 2..6 rows on one grid, each with m = 2 w rows; a row either
    touches v = 0 (regime F) or keeps min v >= 1/4 (regime G)."""
    n = draw(st.sampled_from([8, 16, 24]))
    rows = []
    for _ in range(draw(st.integers(2, 6))):
        vacuum = draw(st.booleans())
        v, lam = draw(_rows(n, st.floats(0.0 if vacuum else 0.25, 3.0)))
        if vacuum:
            v[draw(st.integers(0, n - 1))] = 0.0
        rows.append((v, lam))
    return (n, draw(st.sampled_from(["constant-extension", "periodic"])),
            draw(st.booleans()), rows)


def _kernel_split(flux, v0, w0s, config):
    """One split run as a per-step loop over the _kernels forms on plain
    (n,) arrays: the record times, and the v and w records."""
    joint = joint_speed_flux(flux, _b)
    dx = v0.grid.dx
    periodic = v0.boundary == "periodic"
    v = v0.values.copy()
    ws = [w0.values.copy() for w0 in w0s]

    def speed():
        return joint.L_of_range(float(v.min()), float(v.max()))

    times, v_recs, w_recs = [0.0], [v.copy()], [[w.copy()] for w in ws]
    for _, dt, t, lands in _time_steps(config, dx, speed):
        omega = critical_point(joint, float(v.min()), float(v.max()))
        g_omega = float(joint.g(omega)) if math.isfinite(omega) else 0.0
        ve = v0.with_values(v).extended(1)
        gve = np.asarray(joint.g(ve), dtype=float)
        G = np.asarray(_kernels.godunov_fluxes(
            ve[:-1], ve[1:], gve[:-1], gve[1:], g_omega, omega,
            joint.convexity == "convex"))
        ws = [_kernels.upwind_step(v, w, G, dt / dx, periodic)[1]
              for w in ws]
        v = _kernels.scalar_step(v, G, dt / dx)
        if lands:
            times.append(t)
            v_recs.append(v.copy())
            for recs, w in zip(w_recs, ws):
                recs.append(w.copy())
    return times, v_recs, w_recs


def _kernel_direct(U0, config):
    """One Lax-Friedrichs run as a per-step, per-component loop over the
    _kernels forms on plain (n,) arrays: the record times and states."""
    dx = U0.grid.dx
    comps = [c.values.copy() for c in U0.components]

    def speed():
        return 1.0 / (1.0 + max(min(float(c.min()) for c in comps), 0.0))

    times, states = [0.0], [[c.copy() for c in comps]]
    for _, dt, t, lands in _time_steps(config, dx, speed):
        exts = [U0.components[0].with_values(c).extended(1) for c in comps]
        v_ext = np.sum(exts, axis=0)
        comps = [_kernels.scalar_step(
                     c, _kernels.lxf_fluxes(ce, ce / (1.0 + v_ext),
                                            dx / (2.0 * dt)), dt / dx)
                 for c, ce in zip(comps, exts)]
        if lands:
            times.append(t)
            states.append([c.copy() for c in comps])
    return times, states


def _same_records(arrays, fields):
    return len(arrays) == len(fields) and all(
        a.tobytes() == f.values.tobytes() for a, f in zip(arrays, fields))


def _rows_of_one_block(fields):
    """Every field's values is a view of one base array: the block that
    holds every record of one stepped array of a run."""
    base = fields[0].values.base
    return base is not None and all(f.values.base is base for f in fields)


def _record_count(cfg):
    """Record 0 and one record per stop of the time plan."""
    return 1 + len(_record_plan(cfg))


def _check_split_rows_against_kernels(flux, batch, data):
    """Every row of solve_split_many on the batch is bitwise _kernel_split
    of that row alone, and one ulp in one record is told apart."""
    n, boundary, fixed, rows = batch
    grid = Grid1D(-1.0, 1.0, n)
    cfg = _config(n, fixed)
    v0s = [CellField(grid, v, boundary) for v, _ in rows]
    w0s = [[v0.with_values(lam * v0.values),
            v0.with_values(lam[::-1] * v0.values)]
           for v0, (_, lam) in zip(v0s, rows)]
    runs = solve_split_many(flux, _b, v0s, w0s, cfg)
    for v0, w0, (v_traj, w_trajs) in zip(v0s, w0s, runs):
        times, v_recs, w_recs = _kernel_split(flux, v0, w0, cfg)
        assert v_traj.times == times
        assert len(times) == _record_count(cfg)
        assert _same_records(v_recs, v_traj.fields)
        assert _rows_of_one_block(v_traj.fields)
        assert _rows_of_one_block([f for w in w_trajs for f in w.fields])
        assert len(w_trajs) == 2
        for recs, w_traj in zip(w_recs, w_trajs):
            assert _same_records(recs, w_traj.fields)
    r = data.draw(st.integers(0, len(rows) - 1))
    v_traj, w_trajs = runs[r]
    _, v_recs, w_recs = _kernel_split(flux, v0s[r], w0s[r], cfg)
    field = data.draw(st.sampled_from([v_traj, *w_trajs])).fields[-1]
    _one_ulp_up(field, data.draw(st.integers(0, n - 1)))
    assert not (_same_records(v_recs, v_traj.fields)
                and all(_same_records(recs, w.fields)
                        for recs, w in zip(w_recs, w_trajs)))


@settings(max_examples=30, deadline=None)
@given(_seam_batches(), st.data())
def test_split_batch_rows_are_bitwise_the_kernel_loop(batch, data):
    """Every row of a batched split march, whose rows sit back to back
    with their ghost cells in one buffer, is bitwise a loop over
    _kernels.godunov_fluxes, upwind_step and scalar_step on that row
    alone: nothing leaks across the seam between rows, in either regime
    of the ride. One ulp in one record is told apart."""
    _check_split_rows_against_kernels(chromatography_flux(), batch, data)


def _valley():
    """g(v) = (v - 1)^2 / 4: convex, with its critical point at v = 1."""
    return FluxFunction(g=lambda v: 0.25 * (v - 1.0) * (v - 1.0),
                        gprime=lambda v: 0.5 * (v - 1.0),
                        convexity="convex", c=0.5, name="valley")


@st.composite
def _valley_batches(draw):
    """B = 2..6 rows of v in [1/2, 3/2], each with m = 2 w rows. The first
    row straddles the critical point v = 1 of _valley, the second lies
    below or above it, and the rest anywhere."""
    n = draw(st.sampled_from([8, 16, 24]))
    below, above = st.floats(0.5, 0.95), st.floats(1.05, 1.5)
    rows = []
    for i in range(draw(st.integers(2, 6))):
        side = "straddle" if i == 0 else draw(st.sampled_from(
            ["below", "above"] + (["straddle"] if i > 1 else [])))
        if side == "straddle":
            v, lam = draw(_rows(n, st.floats(0.5, 1.5)))
            v[:2] = draw(below)  # the first piece spans at least 2 cells
            v[-2:] = draw(above)  # and so does the last
        else:
            v, lam = draw(_rows(n, below if side == "below" else above))
        rows.append((v, lam))
    return (n, draw(st.sampled_from(["constant-extension", "periodic"])),
            draw(st.booleans()), rows)


@settings(max_examples=30, deadline=None)
@given(_valley_batches(), st.data())
def test_split_rows_with_their_own_critical_points_are_the_kernel_loop(
        batch, data):
    """Rows whose ranges put the critical point of g in different places
    (finite on one row, +-inf on another) take the selection with one
    omega per interface; each row is still bitwise the _kernels loop on
    that row alone. One ulp in one record is told apart."""
    flux = _valley()
    omegas = {critical_point(flux, float(v.min()), float(v.max()))
              for v, _ in batch[3]}
    assert len(omegas) > 1 and any(map(math.isfinite, omegas))
    _check_split_rows_against_kernels(flux, batch, data)


@st.composite
def _burgers_batches(draw):
    """B = 2..6 rows of v in [-3/2, 3/2] under rho^2. The first row
    straddles the critical point 0 from below -1 to above 1, the second
    lies in [1/16, 1/2], and the rest anywhere. So the first row's omega
    is finite and the second's is -inf, and with adaptive dt the first
    row, twice as fast at least, takes more steps."""
    n = draw(st.sampled_from([8, 16, 24, 32]))
    rows = []
    for i in range(draw(st.integers(2, 6))):
        if i == 0:
            v, _ = draw(_rows(n, st.floats(-1.5, 1.5)))
            v[:2] = draw(st.floats(-1.5, -1.0))
            v[-2:] = draw(st.floats(1.0, 1.5))
        else:
            v, _ = draw(_rows(n, st.floats(0.0625, 0.5) if i == 1
                              else st.floats(-1.5, 1.5)))
        rows.append(v)
    return (n, draw(st.sampled_from(["constant-extension", "periodic"])),
            draw(st.booleans()), rows)


@settings(max_examples=30, deadline=None)
@given(_burgers_batches(), st.data())
def test_scalar_batch_rows_are_bitwise_their_solve_scalar(batch, data):
    """Every row of solve_scalar_many is bitwise its solve_scalar run:
    with an omega column of finite and infinite critical points, and, with
    adaptive dt, when rows end on different steps so the march rebuilds
    its buffers without them. One ulp in one record is told apart."""
    n, boundary, fixed, rows = batch
    grid = Grid1D(-1.0, 1.0, n)
    flux = burgers_flux()
    omegas = [critical_point(flux, float(v.min()), float(v.max()))
              for v in rows[:2]]
    assert math.isfinite(omegas[0]) and omegas[1] == -math.inf
    # dx = 2/n and max|g'| <= 3: fixed_dt = 1/(2n) keeps dt*L/dx <= 3/4
    cfg = (ScalarConfig(t_end=0.25, record_times=[0.125, 0.25],
                        fixed_dt=0.5 / n) if fixed
           else ScalarConfig(t_end=0.25, record_times=[0.1, 0.25]))
    inits = [CellField(grid, v, boundary) for v in rows]
    got = solve_scalar_many(flux, inits, cfg)
    want = [solve_scalar(flux, init, cfg) for init in inits]
    assert len(got) == len(rows)
    for g, w in zip(got, want):
        assert _same_trajectory(g, w)
        assert len(g.times) == _record_count(cfg)
        assert _rows_of_one_block(g.fields)
    steps = [len(traj.meta["dt_schedule"]) for traj in got]
    assert fixed or steps[0] > steps[1]
    r = data.draw(st.integers(0, len(rows) - 1))
    _one_ulp_up(got[r].fields[-1], data.draw(st.integers(0, n - 1)))
    assert not _same_trajectory(got[r], want[r])


@settings(max_examples=30, deadline=None)
@given(_seam_batches(), st.data())
def test_direct_batch_rows_are_bitwise_the_kernel_loop(batch, data):
    """Every state of a batched Lax-Friedrichs run (k = 3: v and two w
    rows' worth of components, each a row of one buffer) is bitwise a
    per-component loop over _kernels.lxf_fluxes and scalar_step, and its
    dt schedule, record steps and speed bound are its solo solve_direct's.
    One ulp in one record is told apart."""
    n, boundary, fixed, rows = batch
    grid = Grid1D(-1.0, 1.0, n)
    U0s = [ChromState([CellField(grid, 0.25 * (1.0 + lam) * v, boundary),
                       CellField(grid, 0.25 * (1.0 - lam) * v, boundary),
                       CellField(grid, 0.5 * v, boundary)])
           for v, lam in rows]
    cfg = _config(n, fixed)
    trajs = solve_direct_many(U0s, cfg)

    def same(traj, states):
        return len(traj.states) == len(states) and all(
            _same_records(comps, U.components)
            for comps, U in zip(states, traj.states))

    for U0, traj in zip(U0s, trajs):
        times, states = _kernel_direct(U0, cfg)
        assert traj.times == times
        assert len(times) == _record_count(cfg)
        assert same(traj, states)
        assert _rows_of_one_block([c for U in traj.states
                                   for c in U.components])
        solo = solve_direct(U0, cfg).meta
        for key in ("dt_schedule", "record_steps", "speed_bound"):
            assert traj.meta[key] == solo[key]
        assert len(traj.meta["record_steps"]) == len(times) - 1
        assert traj.meta["record_steps"][-1] == len(traj.meta["dt_schedule"])
    r = data.draw(st.integers(0, len(rows) - 1))
    _, states = _kernel_direct(U0s[r], cfg)
    comp = data.draw(st.integers(0, 2))
    _one_ulp_up(trajs[r].states[-1].components[comp],
                data.draw(st.integers(0, n - 1)))
    assert not same(trajs[r], states)


@st.composite
def _ragged_batches(draw):
    """B = 1..4 rows, each on its own grid (n = 8..32 cells over [-1, 1] or
    [-1, 2]), with one boundary mode, fixed or adaptive dt, and one of the
    five batch solvers. v lies in [1/4, 1] (in [-3/2, 3/2] for Burgers,
    so a row's critical point may be finite or not)."""
    kind = draw(st.sampled_from(["scalar", "split", "chroma", "direct",
                                 "kk"]))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.sampled_from([8, 12, 16, 24, 32]))
        grid = Grid1D(-1.0, draw(st.sampled_from([1.0, 2.0])), n)
        v, lam = draw(_rows(n, st.floats(-1.5, 1.5) if kind == "scalar"
                            else st.floats(0.25, 1.0)))
        rows.append((grid, v, lam))
    return (kind, draw(st.sampled_from(["constant-extension", "periodic"])),
            draw(st.booleans()), rows)


def _ragged_solvers(kind, boundary, rows):
    """(solve_many, solve, inits, same) for one kind of ragged batch."""
    fields = [CellField(grid, v, boundary) for grid, v, _ in rows]
    halves = [(f.with_values(0.5 * (1.0 + lam) * f.values),
               f.with_values(0.5 * (1.0 - lam) * f.values))
              for f, (_, _, lam) in zip(fields, rows)]
    if kind == "scalar":
        return (lambda inits, cfg: solve_scalar_many(burgers_flux(), inits,
                                                     cfg),
                lambda init, cfg: solve_scalar(burgers_flux(), init, cfg),
                fields, _same_trajectory)
    if kind == "split":
        inits = [(f, [f.with_values(lam * f.values), f.with_values(
            0.5 * f.values)]) for f, (_, _, lam) in zip(fields, rows)]
        return (lambda inits, cfg: solve_split_many(
                    chromatography_flux(), _b, *zip(*inits), cfg),
                lambda init, cfg: solve_split(chromatography_flux(), _b,
                                              *init, cfg),
                inits, _same_split)
    if kind == "kk":
        def f(r):
            return 1.0 + np.asarray(r, dtype=float)

        def fp(r):
            return np.ones_like(np.asarray(r, dtype=float))

        return (lambda inits, cfg: solve_kk_many(inits, f, fp, cfg),
                lambda init, cfg: solve_kk(init, f, fp, cfg),
                [KKState([v0, u2]) for v0, (_, u2) in zip(fields, halves)],
                _same_system)
    many, one = ((solve_chromatography_many, solve_chromatography)
                 if kind == "chroma" else (solve_direct_many, solve_direct))
    return (many, one, [ChromState(list(h)) for h in halves],
            _same_system if kind == "chroma" else _same_states)


def _same_system(a, b):
    """A split system's states, meta, v run and w runs, all bitwise."""
    return _same_states(a, b) and _same_split((a.v_traj, a.w_trajs),
                                              (b.v_traj, b.w_trajs))


@settings(max_examples=40, deadline=None)
@given(_ragged_batches(), st.data())
def test_ragged_batch_rows_are_bitwise_their_solo_runs(batch, data):
    """Rows on different grids step as one march, each bitwise its solo
    run: records, w stacks, LxF states, dt_schedule, record_steps and
    speed_bound. With fixed dt every row shares dt but not dt/dx; with
    adaptive dt the rows end on different steps. One ulp in one record is
    told apart."""
    kind, boundary, fixed, rows = batch
    many, one, inits, same = _ragged_solvers(kind, boundary, rows)
    # dt = 1/128 keeps dt*L/dx <= 0.49 for every row and kind here
    cfg = (ScalarConfig(t_end=0.25, record_times=[0.125, 0.25],
                        fixed_dt=1.0 / 128) if fixed
           else ScalarConfig(t_end=0.25, record_times=[0.1, 0.25]))
    got = many(inits, cfg)
    want = [one(init, cfg) for init in inits]
    assert len(got) == len(rows)
    for g, w in zip(got, want):
        assert same(g, w)
    r = data.draw(st.integers(0, len(rows) - 1))
    field = (got[r].fields if kind == "scalar" else got[r][0].fields
             if kind == "split" else got[r].states[-1].components)[-1]
    _one_ulp_up(field, data.draw(st.integers(0, field.grid.n - 1)))
    assert not same(got[r], want[r])


# fixed and adaptive time plans with 2 to 5 records; dt*L/dx <= 0.49 on
# every row of _ragged_batches
_PLANS = [ScalarConfig(t_end=0.25, record_times=[0.125, 0.25],
                       fixed_dt=1.0 / 128),
          ScalarConfig(t_end=0.25, record_times=[0.1, 0.25]),
          ScalarConfig(t_end=0.125, fixed_dt=1.0 / 256),
          ScalarConfig(t_end=0.375, record_times=[0.0625, 0.125, 0.25])]


@settings(max_examples=30, deadline=None)
@given(_ragged_batches(), st.data())
def test_ragged_rows_on_their_own_configs_are_bitwise_their_solo_runs(
        batch, data):
    """A batch given one config per row, fixed and adaptive dt mixed, with
    different record counts: each row is bitwise its solo run under its
    own config, fields, times, dt_schedule, record_steps and speed_bound."""
    kind, boundary, _, rows = batch
    many, one, inits, same = _ragged_solvers(kind, boundary, rows)
    cfgs = data.draw(st.lists(st.sampled_from(_PLANS), min_size=len(rows),
                              max_size=len(rows)))
    got = many(inits, cfgs)
    assert len(got) == len(rows)
    for g, init, cfg in zip(got, inits, cfgs):
        assert same(g, one(init, cfg))


@pytest.mark.parametrize("kind", ["scalar", "split", "chroma", "direct",
                                  "kk"])
def test_every_solver_mixes_plans_and_refuses_a_short_config_list(kind):
    """Each batch solver runs every plan of _PLANS in one batch, each row
    bitwise its solo run; a config list that is not one per run is
    refused."""
    rows = [(Grid1D(-1.0, 1.0, n), np.linspace(0.25, 1.0, n),
             np.linspace(-0.5, 0.5, n)) for n in (8, 16, 24, 32)]
    many, one, inits, same = _ragged_solvers(kind, "constant-extension",
                                             rows)
    for g, init, cfg in zip(many(inits, _PLANS), inits, _PLANS):
        assert same(g, one(init, cfg))
    for cfgs in (_PLANS[:3], _PLANS + _PLANS[:1]):
        with pytest.raises(InvalidArgument, match=(
                f"^invalid-argument: {len(cfgs)} configs for a batch of 4 "
                f"runs$")):
            many(inits, cfgs)


def test_a_ragged_burgers_batch_keeps_each_rows_critical_point():
    """Burgers rows on three grids, each straddling v = 0 with its own
    range: every row has its own finite critical point and step count, so
    the march takes per-column omega and mu and drops the short rows, and
    each row is still bitwise its solve_scalar."""
    flux = burgers_flux()
    inits = [project(lambda x, a=a: np.where(np.asarray(x) < 0.0,
                                             -0.5 - 0.25 * a, 1.0 + a), g)
             for a, g in enumerate([Grid1D(-2.0, 2.0, 64),
                                    Grid1D(-2.0, 2.0, 24),
                                    Grid1D(-1.0, 3.0, 40)])]
    omegas = [critical_point(flux, float(f.values.min()),
                             float(f.values.max())) for f in inits]
    assert all(map(math.isfinite, omegas)) and len(set(omegas)) == 3
    cfg = ScalarConfig(t_end=0.25, record_times=[0.125, 0.25])
    got = solve_scalar_many(flux, inits, cfg)
    assert len({len(t.meta["dt_schedule"]) for t in got}) == 3
    for g, init in zip(got, inits):
        assert _same_trajectory(g, solve_scalar(flux, init, cfg))


def test_a_blowup_in_one_ragged_row_names_the_row_and_its_step():
    """A row that blows up next to a row on another grid: the batch error
    is the solo error, with the row named."""
    calm = CellField(Grid1D(-1.0, 1.0, 16), np.full(16, 0.25))
    grid = Grid1D(-1.0, 1.0, 32)
    into_hole = project(lambda x: np.where(np.asarray(x) < 0.0, 1.0, 0.0),
                        grid)
    cfg = ScalarConfig(t_end=100 * grid.dx, fixed_dt=0.5 * grid.dx)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalBlowup) as single:
            solve_scalar(_holed_flux(), into_hole, cfg)
        with pytest.raises(NumericalBlowup) as batched:
            solve_scalar_many(_holed_flux(), [calm, into_hole], cfg)
    assert str(single.value) == ("numerical-blowup: non-finite v at step 3, "
                                 "t=0.125")
    assert batched.value.step == single.value.step
    assert str(batched.value) == _prefixed(single.value, 1)


def _anti_diffused(field, eps=0.25):
    """One step of backward diffusion, v + eps*(2 v_i - v_{i-1} - v_{i+1}):
    it raises every local maximum and lowers every local minimum."""
    ext = field.extended(1)
    return field.with_values(ext[1:-1] + eps * (2.0 * ext[1:-1] - ext[:-2]
                                                - ext[2:]))


def _tv(field):
    """Total variation, across the seam too when the field is periodic."""
    return math.fsum(np.abs(np.diff(field.extended(1)[1:])).tolist())


def _tvd_defect(traj):
    tv0 = _tv(traj.fields[0])
    return max(0.0, max(_tv(f) - tv0 for f in traj.fields[1:]))


def _dominated(w, v):
    """|w| <= v in every cell, with no tolerance."""
    return bool(np.all(np.abs(w.values) <= v.values))


def _keeps_sign(w, sign):
    """sign * w >= 0 in every cell, with no tolerance."""
    return bool(np.all(sign * w.values >= 0.0))


@st.composite
def _property_batches(draw):
    """Rows with at least one jump, for the negative controls to act on;
    w of one sign (1 or -1) or of mixed sign (0)."""
    n = draw(st.sampled_from([16, 32, 48]))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        v, lam = draw(_rows(n, st.integers(0, 24).map(lambda k: k / 8.0),
                            min_jumps=1))
        sign = draw(st.sampled_from([1.0, -1.0, 0.0]))
        rows.append((v, np.abs(lam) * sign if sign else lam, sign))
    return n, draw(st.sampled_from(["constant-extension", "periodic"])), rows


@settings(max_examples=40, deadline=None)
@given(_property_batches())
def test_random_batches_keep_the_exact_invariants(batch):
    """Max principle and TVD of v to roundoff; |w| <= v and the sign of w
    to the bit. Each check rejects its negative control: one step of
    backward diffusion, a w one ulp above v, a w one subnormal past zero."""
    n, boundary, rows = batch
    grid = Grid1D(-1.0, 1.0, n)
    v0s = [CellField(grid, v, boundary) for v, _, _ in rows]
    w0s = [[v0.with_values(lam * v0.values)]
           for v0, (_, lam, _) in zip(v0s, rows)]
    cfg = ScalarConfig(t_end=0.5, record_times=[0.125, 0.25, 0.5])
    runs = solve_split_many(chromatography_flux(), _b, v0s, w0s, cfg)
    for v0, (_, _, sign), (v_traj, (w_traj,)) in zip(v0s, rows, runs):
        assert np.ptp(v0.values) > 0.0
        assert max_principle_defect(v_traj) <= EXACT_TOL
        assert _tvd_defect(v_traj) <= EXACT_TOL
        assert tvd_defect(v_traj) <= EXACT_TOL
        control = Trajectory([0.0, 0.5], [v0, _anti_diffused(v0)], {})
        assert max_principle_defect(control) > EXACT_TOL
        assert _tvd_defect(control) > EXACT_TOL
        assert tvd_defect(control) > EXACT_TOL

        for v_t, w_t in zip(v_traj.fields, w_traj.fields):
            assert _dominated(w_t, v_t)
            if sign:
                assert _keeps_sign(w_t, sign)
        v_t, w_t = v_traj.fields[-1], w_traj.fields[-1].copy()
        i = int(np.argmax(v_t.values))
        w_t.values[i] = np.nextafter(v_t.values[i], math.inf)
        assert not _dominated(w_t, v_t)
        if sign:
            w_t = w_traj.fields[-1].copy()
            w_t.values[i] = -sign * 5e-324
            assert not _keeps_sign(w_t, sign)


def _leaky_step(field, dt, leak=2.0 ** -20):
    """One upwind step of v/(1+v) in which each cell receives only
    (1 - leak) of the flux its left neighbour loses: not conservative."""
    ext = field.extended(1)
    G = ext[:-1] / (1.0 + ext[:-1])
    mu = dt / field.grid.dx
    return field.with_values(field.values - mu * G[1:]
                             + (1.0 - leak) * mu * G[:-1])


@settings(max_examples=40, deadline=None)
@given(_property_batches(), st.sampled_from(["split", "direct"]),
       st.booleans())
def test_random_periodic_batches_conserve_mass(batch, kind, fixed):
    """On periodic data the mass of v, of each w and of each chromatography
    component stays at its initial value to roundoff at every record; a
    step that leaks flux between cells breaks that."""
    n, _, rows = batch
    grid = Grid1D(-1.0, 1.0, n)
    cfg = _config(n, fixed)
    v0s = [CellField(grid, v, "periodic") for v, _, _ in rows]
    if kind == "split":
        w0s = [[v0.with_values(lam * v0.values)]
               for v0, (_, lam, _) in zip(v0s, rows)]
        runs = [[v_traj.fields, *(w.fields for w in w_trajs)]
                for v_traj, w_trajs in solve_split_many(
                    chromatography_flux(), _b, v0s, w0s, cfg)]
    else:
        U0s = [ChromState([v0.with_values(0.5 * (1.0 + lam) * v0.values),
                           v0.with_values(0.5 * (1.0 - lam) * v0.values)])
               for v0, (_, lam, _) in zip(v0s, rows)]
        runs = [[[U.components[i] for U in traj.states] for i in range(2)]
                for traj in solve_direct_many(U0s, cfg)]
    for records in runs:
        for fields in records:
            m0 = mass(fields[0])
            for f in fields[1:]:
                assert abs(mass(f) - m0) <= EXACT_TOL
    for v0 in v0s:
        assert abs(mass(_leaky_step(v0, 0.5 / n)) - mass(v0)) > EXACT_TOL


@st.composite
def _ordered_pairs(draw):
    """Rows (u0, v0) of one periodic grid with v0 - u0 >= 1/8 in every
    cell: u0 a random piecewise-constant row, v0 = u0 plus one."""
    n = draw(st.sampled_from([16, 32, 48]))
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        u, _ = draw(_rows(n, st.integers(0, 16).map(lambda k: k / 8.0),
                          min_jumps=1))
        d, _ = draw(_rows(n, st.integers(1, 8).map(lambda k: k / 8.0)))
        pairs.append((u, u + d))
    return n, pairs


@settings(max_examples=40, deadline=None)
@given(_ordered_pairs())
def test_ordered_pairs_keep_the_comparison_defect_at_roundoff(batch):
    """u0 <= v0 under one fixed dt: the localized comparison defect stays
    at roundoff. Swapping the pair's records after t = 0 keeps the initial
    order but reverses every later one, and the defect must see it."""
    n, pairs = batch
    grid = Grid1D(-1.0, 1.0, n)
    cfg = _config(n, True)
    inits = [CellField(grid, x, "periodic") for pair in pairs for x in pair]
    runs = solve_split_many(chromatography_flux(), _b, inits,
                            [[] for _ in inits], cfg)
    R = 1.0 - 0.25  # R + L t_end inside [-1, 1], as L <= 1
    for r in range(len(pairs)):
        tu, tv = runs[2 * r][0], runs[2 * r + 1][0]
        assert comparison_defect(tu, tv, R) <= EXACT_TOL
        swapped_u = Trajectory(tu.times, tu.fields[:1] + tv.fields[1:],
                               tu.meta)
        swapped_v = Trajectory(tv.times, tv.fields[:1] + tu.fields[1:],
                               tv.meta)
        assert comparison_defect(swapped_u, swapped_v, R) > EXACT_TOL


def _riemann_components(grid, pairs):
    return [project(lambda x, left=left, right=right: np.where(
        np.asarray(x) < 0.0, left, right), grid) for left, right in pairs]


def _riemann_state(grid, pairs):
    return ChromState(_riemann_components(grid, pairs))


def test_chromatography_and_kk_batches_match_their_single_runs():
    grid = Grid1D(-2.0, 2.0, 64)
    cfg = ScalarConfig(t_end=0.5, record_times=[0.25, 0.5])
    U0s = [_riemann_state(grid, [(0.25, 0.5), (0.25, 0.75)]),
           _riemann_state(grid, [(0.75, 0.25), (0.5, 0.5)]),
           _riemann_state(grid, [(0.25, 0.0), (0.0, 0.25)])]
    for got, U0 in zip(solve_chromatography_many(U0s, cfg), U0s):
        want = solve_chromatography(U0, cfg)
        assert _same_states(got, want)
        assert _same_split((got.v_traj, got.w_trajs),
                           (want.v_traj, want.w_trajs))

    def f(r):
        return 1.0 + r

    def fp(r):
        return np.ones_like(np.asarray(r, dtype=float))

    # the rows' modulus ranges differ, so each certifies its own c
    K0s = [KKState(_riemann_components(grid, [(0.75, 0.25), (0.25, 0.75)])),
           KKState(_riemann_components(grid, [(1.5, 0.25), (0.5, 1.0)]))]
    got = solve_kk_many(K0s, f, fp, cfg)
    want = [solve_kk(K0, f, fp, cfg) for K0 in K0s]
    assert got[0].meta["c"] != got[1].meta["c"]
    for g, w in zip(got, want):
        assert g.meta == w.meta
        assert _same_split((g.v_traj, g.w_trajs), (w.v_traj, w.w_trajs))


def test_batches_need_one_boundary_and_one_stack_height():
    grid = Grid1D(-1.0, 1.0, 16)
    cfg = ScalarConfig(t_end=0.125)
    v0 = CellField(grid, np.full(16, 0.5))
    flux = chromatography_flux()
    with pytest.raises(InvalidArgument, match="boundary"):
        solve_split_many(flux, _b, [v0, CellField(grid, v0.values,
                                                  "periodic")],
                         [[], []], cfg)
    with pytest.raises(InvalidArgument, match="same number"):
        solve_split_many(flux, _b, [v0, v0], [[v0], []], cfg)
    with pytest.raises(InvalidArgument, match="at least one"):
        solve_split_many(flux, _b, [], [], cfg)
    good = ChromState([v0, v0])
    bad = ChromState([v0, v0.with_values(-v0.values)])
    for solve in (solve_chromatography_many, solve_direct_many):
        with pytest.raises(InvalidArgument,
                           match="^invalid-argument: row 1: components"):
            solve([good, bad], cfg)


@pytest.mark.parametrize("solve", [
    lambda cfg: solve_scalar_many(chromatography_flux(), [], cfg),
    lambda cfg: solve_split_many(chromatography_flux(), _b, [], [], cfg),
    lambda cfg: solve_chromatography_many([], cfg),
    lambda cfg: solve_direct_many([], cfg),
    lambda cfg: solve_kk_many([], *affine_speed(1.0, 1.0), cfg),
    lambda cfg: semigroup_defect_many([], [(0.25, 0.25)], cfg),
], ids=["scalar", "split", "chroma", "direct", "kk", "semigroup"])
def test_every_batch_solver_refuses_an_empty_batch(solve):
    with pytest.raises(InvalidArgument) as err:
        solve(ScalarConfig(t_end=0.5, fixed_dt=0.125))
    assert str(err.value) == (
        "invalid-argument: a batch needs at least one run")


def _prefixed(err, row):
    """The message of err as a batch error from the given row."""
    ident, message = str(err).split(": ", 1)
    return f"{ident}: row {row}: {message}"


def _holed_flux():
    """v/(1+v), but NaN strictly between 0.5 and 0.6."""
    base = chromatography_flux()

    def g(v):
        v = np.asarray(v, dtype=float)
        return np.where((v > 0.5) & (v < 0.6), np.nan, v / (1.0 + v))

    return FluxFunction(g=g, gprime=base.gprime, convexity="concave",
                        L_of_range=base.L_of_range, name="holed v/(1+v)",
                        admissible_min=0.0)


def test_a_blowup_in_one_row_names_the_row_and_its_step():
    grid = Grid1D(-1.0, 1.0, 32)
    calm = CellField(grid, np.full(32, 0.25))
    into_hole = project(lambda x: np.where(np.asarray(x) < 0.0, 1.0, 0.0),
                        grid)
    cfg = ScalarConfig(t_end=100 * grid.dx, fixed_dt=0.5 * grid.dx)
    w0s = [[calm.copy()], [into_hole.copy()]]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalBlowup) as single:
            solve_split(_holed_flux(), _b, into_hole, w0s[1], cfg)
        with pytest.raises(NumericalBlowup) as batched:
            solve_split_many(_holed_flux(), _b, [calm, into_hole], w0s, cfg)
    assert "row" not in str(single.value)
    assert batched.value.step == single.value.step > 0
    assert str(batched.value) == _prefixed(single.value, 1)


def test_a_cfl_breach_in_one_row_names_the_row():
    # dx = 1/16; the joint speed bound is 1/2 for v >= 1 and 1 for v >= 0,
    # so fixed_dt = 1.5 dx breaks the CFL condition in row 1 only
    grid = Grid1D(-2.0, 2.0, 64)
    fast = project(lambda x: np.where(np.asarray(x) < 0.0, 1.0, 0.0), grid)
    slow = fast.with_values(fast.values + 1.0)
    cfg = ScalarConfig(t_end=1.5 / 16.0 * 4, fixed_dt=1.5 / 16.0)
    with pytest.raises(HypothesisViolation) as single:
        solve_split(chromatography_flux(), _b, fast, [], cfg)
    with pytest.raises(HypothesisViolation) as batched:
        solve_split_many(chromatography_flux(), _b, [slow, fast], [[], []],
                         cfg)
    assert str(batched.value) == _prefixed(single.value, 1)

    # the direct solve: L = 1/(1 + max(min u_i, 0)) is 1/3 for row 0 and 1
    # for row 1 at dt = 2 dx
    cfg = ScalarConfig(t_end=0.25, fixed_dt=0.125)
    U0s = [_riemann_state(grid, [(1.0, 1.5), (1.0, 1.0)]),
           _riemann_state(grid, [(0.0, 0.5), (0.25, 0.75)])]
    with pytest.raises(HypothesisViolation) as single:
        solve_direct(U0s[1], cfg)
    with pytest.raises(HypothesisViolation) as batched:
        solve_direct_many(U0s, cfg)
    assert str(batched.value) == _prefixed(single.value, 1)


def test_a_step_too_large_for_transport_in_one_row_names_the_row():
    # the flux's speed bound and the velocity both understate the speed
    # 10x; row 0 holds v = 0, where no step moves anything
    base = chromatography_flux()
    def L(lo, hi):
        return 0.1 * base.L_of_range(lo, hi)

    slow = FluxFunction(g=base.g, gprime=base.gprime,
                        convexity=base.convexity, c=base.c, L_of_range=L,
                        name="slow", admissible_min=base.admissible_min)
    grid = Grid1D(-2.0, 2.0, 128)
    v0 = project(lambda x: 1.0 + 0.5 * np.sin(np.pi * x / 2.0), grid)
    rest = v0.with_values(np.zeros(128))
    cfg = ScalarConfig(t_end=0.25, cfl=0.9, record_times=[0.25])

    def b_slow(v):
        return 0.1 * _b(v)

    with pytest.raises(InvalidArgument) as single:
        solve_split(slow, b_slow, v0, [v0.copy()], cfg)
    with pytest.raises(InvalidArgument) as batched:
        solve_split_many(slow, b_slow, [rest, v0], [[rest.copy()],
                                                    [v0.copy()]], cfg)
    assert "row" not in str(single.value)
    assert str(batched.value) == _prefixed(single.value, 1)


def _range_scaled_flux():
    """v/(1+v) with the speed bound 0.62*(max v - min v): as a periodic
    bump flattens, the CFL step outgrows the transport stage."""
    base = chromatography_flux()
    return FluxFunction(g=base.g, gprime=base.gprime, convexity="concave",
                        L_of_range=lambda lo, hi: 0.62 * (hi - lo),
                        name="range-scaled", admissible_min=0.0)


def _split_runs(flux, calm, bad, cfg, b_of_v=_b, w_of=lambda v: [v.copy()]):
    """solve(rows): the split march of bad alone, or of [calm, bad]."""
    def solve(rows):
        v0s = [calm, bad][-rows:]
        return solve_split_many(flux, b_of_v, v0s, [w_of(v) for v in v0s],
                                cfg)
    return solve


def _direct_runs(calm, bad, cfg):
    return lambda rows: solve_direct_many([calm, bad][-rows:], cfg)


def _pinned_error_cases():
    g32, g64 = Grid1D(-1.0, 1.0, 32), Grid1D(-2.0, 2.0, 64)

    def step_down(grid, left=1.0, right=0.0):
        return project(lambda x: np.where(np.asarray(x) < 0.0, left, right),
                       grid)

    def flat(grid, value):
        return CellField(grid, np.full(grid.n, value))

    plateau = ChromState([
        project(lambda x: np.where(np.abs(np.asarray(x)) < 0.25, 1e305, 0.0),
                g64), flat(g64, 0.5)])
    bump = project(lambda x: 1.0 + 0.5 * np.sin(np.pi * x / 2.0), g64,
                   boundary="periodic")
    return [
        # v enters the flux's NaN hole; fixed dt
        pytest.param(_split_runs(
            _holed_flux(), flat(g32, 0.25), step_down(g32),
            ScalarConfig(t_end=100 * g32.dx, fixed_dt=0.5 * g32.dx)),
            NumericalBlowup, 3,
            "numerical-blowup: non-finite v at step 3, t=0.125", id="v"),
        # row 0 (v = 1e6) takes one CFL step and leaves the arrays
        pytest.param(_split_runs(
            _holed_flux(), flat(g32, 1e6), step_down(g32),
            ScalarConfig(t_end=100 * g32.dx)),
            NumericalBlowup, 4,
            "numerical-blowup: non-finite v at step 4, t=0.140625",
            id="v-rows-leave"),
        # the jump term overflows on a 1e305 plateau; row 0 (u = 10) takes
        # one CFL step and leaves the arrays
        pytest.param(_direct_runs(
            ChromState([flat(g64, 10.0), flat(g64, 10.0)]), plateau,
            ScalarConfig(t_end=3 * (0.45 * g64.dx) + 1e-9)),
            NumericalBlowup, 3,
            "numerical-blowup: non-finite state at step 3, t=0.084375001",
            id="state-rows-leave"),
        # w/v overflows where v is subnormal
        pytest.param(_split_runs(
            chromatography_flux(), flat(g32, 0.25),
            step_down(g32, 1e-310, 0.5),
            ScalarConfig(t_end=0.25, record_times=[0.125, 0.25]),
            w_of=lambda v: [flat(g32, 1.0)]),
            NumericalBlowup, 4,
            "numerical-blowup: non-finite w by step 4, t=0.125", id="w"),
        pytest.param(_split_runs(
            chromatography_flux(), step_down(g64, 2.0, 1.0), step_down(g64),
            ScalarConfig(t_end=1.5 / 16.0 * 4, fixed_dt=1.5 / 16.0),
            w_of=lambda v: []),
            HypothesisViolation, None,
            "hypothesis-violation: fixed_dt breaks the CFL condition at "
            "step 0, t=0.0: dt*L/dx = 1.5 > 1", id="cfl-split"),
        pytest.param(_direct_runs(
            _riemann_state(g64, [(1.0, 1.5), (1.0, 1.0)]),
            _riemann_state(g64, [(0.0, 0.5), (0.25, 0.75)]),
            ScalarConfig(t_end=0.25, fixed_dt=0.125)),
            HypothesisViolation, None,
            "hypothesis-violation: fixed_dt breaks the CFL condition at "
            "step 0, t=0.0: dt*L/dx = 2.0 > 1", id="cfl-direct"),
        # row 0, a taller bump, steps on a larger speed bound and stays fine
        pytest.param(_split_runs(
            _range_scaled_flux(),
            bump.with_values(1.0 + 1.8 * (bump.values - 1.0)), bump,
            ScalarConfig(t_end=8.0, cfl=0.9), b_of_v=lambda v: 1e-3 * _b(v)),
            InvalidArgument, None,
            "invalid-argument: split step too large for the transport stage "
            "in step 48, from t=4.464773604608946: v - mu*G = -0.000206189 "
            "at cell 45, below the bound -1.47837e-12; the speed bound must "
            "cover b(v), as joint_speed_flux does", id="oversized"),
    ]


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("solve, error, step, text", _pinned_error_cases())
def test_the_march_error_texts_are_pinned(solve, error, step, text, rows):
    """Each step-loop error, byte for byte: alone, and from row 1 of a
    batch, where it names the row."""
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(error) as err:
            solve(rows)
    ident, message = text.split(": ", 1)
    assert str(err.value) == (text if rows == 1
                              else f"{ident}: row 1: {message}")
    assert getattr(err.value, "step", None) == step
