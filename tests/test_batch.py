"""Batched runs on one grid: every row of a batch is bitwise its own run,
the exact invariants hold on random batches, and an error from one row of
a batch names the row."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitlaw.chroma import (ChromState, solve_chromatography,
                             solve_chromatography_many, solve_direct,
                             solve_direct_many)
from splitlaw.core import (CellField, FluxFunction, Grid1D, Trajectory,
                           chromatography_flux, mass, project)
from splitlaw.errors import (HypothesisViolation, InvalidArgument,
                             NumericalBlowup)
from splitlaw.kk import KKState, solve_kk, solve_kk_many
from splitlaw.scalar import (ScalarConfig, comparison_defect,
                             max_principle_defect, tvd_defect)
from splitlaw.transport import solve_split, solve_split_many

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


def test_batches_need_one_grid_one_boundary_and_one_stack_height():
    grid = Grid1D(-1.0, 1.0, 16)
    cfg = ScalarConfig(t_end=0.125)
    v0 = CellField(grid, np.full(16, 0.5))
    flux = chromatography_flux()
    with pytest.raises(InvalidArgument, match="grids"):
        solve_split_many(flux, _b, [v0, CellField(Grid1D(-1.0, 1.0, 8),
                                                  np.full(8, 0.5))],
                         [[], []], cfg)
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
