"""The k-component chromatography system solved by splitting.

The change of variables v = sum(u_i), w_i = u_{i+1} is linear, so the
system reduces to one scalar law for v (flux v/(1+v)) plus k-1 copies of
the continuity equation with velocity 1/(1+v). solve_chromatography runs
that split; solve_direct is the independent Lax-Friedrichs oracle on the
untransformed system. The entropy machinery implements the lifted pairs
eta = eta_s(u1+u2) + C(u1-u2) and the compatibility test grad(eta) DF =
grad(q) that characterizes them.
"""
import math
from dataclasses import dataclass

import numpy as np

from .core import (CellField, SplitTrajectory, VectorState, _same_time,
                   _window_slice, _worst_residual, chromatography_flux,
                   lp_distance, total_variation)
from .errors import InvalidArgument, InvalidEntropy
from .scalar import (ScalarConfig, _check_test_fns, _each_row, _march_rows,
                     _spacetime_quadrature)
# Re-exported, not called here (the split solve goes through
# solve_split_many):
# perfbench's tracer test reads chroma.solve_scalar.
from .scalar import solve_scalar  # noqa: F401
from .transport import solve_split_many


def _fsum_columns(cols):
    """math.fsum down each column of the (k, n) array cols, k >= 2."""
    if len(cols) == 2:
        # one IEEE add is already correctly rounded; + 0.0 turns the -0.0
        # of (-0.0) + (-0.0) into fsum's 0.0
        return (cols[0] + cols[1]) + 0.0
    return np.array([math.fsum(r) for r in cols.T.tolist()])


class ChromState(VectorState):
    """Vector state U = (u_1, ..., u_k), k >= 2, on one shared grid."""

    min_components = 2

    def total(self):
        """v = sum of the components, cellwise exact rounding."""
        vals = _fsum_columns(np.stack([c.values for c in self.components]))
        return CellField(self.grid, vals, self.boundary)


def to_vw(state):
    """(v, [w_1..w_{k-1}]) with v = sum u_i and w_i = u_{i+1}."""
    return state.total(), [c.copy() for c in state.components[1:]]


def from_vw(v, w):
    """Inverse change of variables: u_1 = v - sum w_i."""
    w = list(w)
    if any(f.grid != v.grid for f in w):
        raise InvalidArgument("v and w on different grids")
    return ChromState([_first_component(v, w)] + [f.copy() for f in w])


def _first_component(v, w):
    """The field u_1 = v - sum w_i of from_vw."""
    if len(w) == 1:
        u1_vals = v.values - w[0].values
    else:
        u1_vals = v.values - _fsum_columns(np.stack([f.values for f in w]))
    return CellField(v.grid, u1_vals, v.boundary)


def _require_nonnegative(states):
    """Every component of every state of a batch is >= 0."""
    def check(state):
        if any(np.min(comp.values) < 0.0 for comp in state.components):
            raise InvalidArgument("components must be nonnegative")

    _each_row(states, check)


def _velocity(v):
    """The transport velocity b(v) = 1/(1+v) of the w_i."""
    return 1.0 / (1.0 + v)


def solve_chromatography(U0, config):
    """Split solve: scalar law for v, locked upwind transport for each w_i.

    meta reports which well-posedness regime the data certifies: the total
    is always of bounded variation on the grid (regime F, with its TV), and
    when it stays above zero the stronger regime G applies with that floor.
    """
    return solve_chromatography_many([U0], config)[0]


def solve_chromatography_many(U0s, config):
    """solve_chromatography for B states under one config or one per state,
    stepped as one split march (transport.solve_split_many) on any grids.
    The states share k; each keeps its own time plan and is bitwise its
    solve_chromatography. Returns one trajectory per state. Each record's
    state is (u_1, w_1, ..., w_{k-1}) with u_1 as from_vw computes it and
    the w_i the very fields of w_trajs, so every w is stored once.
    """
    _require_nonnegative(U0s)
    vws = [to_vw(U0) for U0 in U0s]
    runs = solve_split_many(chromatography_flux(), _velocity,
                            [v0 for v0, _ in vws], [w0 for _, w0 in vws],
                            config)
    trajs = []
    for (v0, _), (v_traj, w_trajs) in zip(vws, runs):
        states = [ChromState([_first_component(v, w)] + w)
                  for v, w in zip(v_traj.fields,
                                  map(list, zip(*(wt.fields
                                                  for wt in w_trajs))))]
        delta0 = float(np.min(v0.values))
        tv0 = total_variation(v0)
        meta = {
            "regime": "G" if delta0 > 0.0 else "F",
            "delta0": delta0,
            "tv0": tv0,
            "speed_bound": v_traj.meta["speed_bound"],
        }
        trajs.append(SplitTrajectory(v_traj.times, states, v_traj, w_trajs,
                                     meta))
    return trajs


@dataclass
class SystemEntropyPair:
    """System entropy (eta, q); both maps take the component list."""

    eta: callable
    q: callable


def _scalar_pair_defect(eta_s, q_s):
    # spot-check q' = eta' * g' for g = v/(1+v) by centered differences
    v = np.array([[0.0, 0.17, 0.5, 1.0, 1.9, 3.3, 6.1]])
    de = _fd_gradients(lambda U: eta_s(U[0]), v)[0]
    dq = _fd_gradients(lambda U: q_s(U[0]), v)[0]
    gp = 1.0 / (1.0 + v[0]) ** 2
    return _worst_residual(np.abs(dq - de * gp).tolist())


_PAIR_TOL = 1e-6  # the largest defect of a scalar pair lift_entropy takes


def lift_entropy(eta_s, q_s, C):
    """Lift the scalar pair (eta_s, q_s) to the 2x2 system with constant C.

    eta(U) = eta_s(u1+u2) + C(u1-u2), q(U) = q_s(u1+u2) + C(u1-u2)/(1+u1+u2).
    Convexity of the lift equals convexity of eta_s (the linear term does
    not bend).
    """
    defect = _scalar_pair_defect(eta_s, q_s)
    if not defect <= _PAIR_TOL:  # a NaN defect is no entropy pair either
        raise InvalidEntropy(
            f"(eta, q) is not an entropy pair for v/(1+v): defect {defect:.3e}")

    def eta(U):
        u1, u2 = np.asarray(U[0], dtype=float), np.asarray(U[1], dtype=float)
        return np.asarray(eta_s(u1 + u2), dtype=float) + C * (u1 - u2)

    def q(U):
        u1, u2 = np.asarray(U[0], dtype=float), np.asarray(U[1], dtype=float)
        s = u1 + u2
        return np.asarray(q_s(s), dtype=float) + C * (u1 - u2) / (1.0 + s)

    return SystemEntropyPair(eta=eta, q=q)


def flux_jacobian(U):
    """DF at a point state U, with F_i(U) = u_i/(1+v), v = sum u_j; at each
    column of a (k, S) stack of states, the (S, k, k) stack of them."""
    U = np.asarray(U, dtype=float)
    s = 1.0 + np.sum(U, axis=0)
    return (np.eye(len(U)) / s[..., None, None]
            - np.moveaxis(U, 0, -1)[..., :, None] / (s * s)[..., None, None])


def _fd_gradients(fn, U):
    """Centered-difference gradients (k, S) of fn at the columns of U, with
    fn run once, on the (k, 2 k S) stack of every point U +- h e_i."""
    k, S = U.shape
    h = 1e-5 * np.maximum(1.0, np.abs(U))
    pts = np.repeat(U[:, None, None, :], 2 * k, axis=1).reshape(k, 2, k, S)
    i = np.arange(k)
    pts[i, 0, i] += h
    pts[i, 1, i] -= h
    up, down = np.asarray(fn(pts.reshape(k, 2 * k * S)),
                          dtype=float).reshape(2, k, S)
    return (up - down) / (2.0 * h)


def entropy_compat_defect(pair, states):
    """max over sample states of |grad(eta) DF - grad(q)| (sup over entries),
    NaN if an entry is."""
    U = np.asarray(states, dtype=float).T  # (k, S)
    ge, gq = (_fd_gradients(fn, U) for fn in (pair.eta, pair.q))
    resid = (ge.T[:, None, :] @ flux_jacobian(U))[:, 0] - gq.T
    return _worst_residual(np.abs(resid).ravel().tolist())


def admissibility_residual(traj, pairs, test_fns):
    """Worst positive part of the weak entropy residual across pairs/tests."""
    _check_test_fns(traj, test_fns)

    def totals(pair):
        def arrays(js):
            comps = [np.stack([traj.states[j].components[c].values
                               for j in js])
                     for c in range(traj.states[0].k)]
            return (np.asarray(pair.eta(comps), dtype=float),
                    np.asarray(pair.q(comps), dtype=float))

        return _spacetime_quadrature(traj, arrays, test_fns)

    return _worst_residual(-r for pair in pairs for r in totals(pair))


_FLOOR = -1e-14  # roundoff allowance when certifying nonnegativity


@dataclass
class DomainReport:
    ok: bool
    which: str
    min_component: float
    v_min: float
    tv: float = None
    delta: float = None


def check_domain(state, which, window=None, delta=None):
    """Certify membership in regime F (nonneg + BV total) or G (nonneg +
    total bounded below by delta on the window)."""
    if which not in ("F", "G"):
        raise InvalidArgument("which must be 'F' or 'G'")
    idx = _window_slice(state.grid, window)
    min_comp = min(float(np.min(c.values[idx])) for c in state.components)
    v = state.total()
    v_min = float(np.min(v.values[idx]))
    nonneg = min_comp >= _FLOOR
    if which == "F":
        tv = total_variation(v, window)
        return DomainReport(ok=nonneg and math.isfinite(tv), which="F",
                            min_component=min_comp, v_min=v_min, tv=tv)
    if delta is None:
        raise InvalidArgument("regime G needs a delta")
    return DomainReport(ok=nonneg and v_min >= delta, which="G",
                        min_component=min_comp, v_min=v_min, delta=delta)


def solve_direct(U0, config):
    """Lax-Friedrichs on the untransformed system; the cross-method oracle.

    Dissipative but convergent; agreement with the split solver is O(dx^1/2)
    on Riemann data. With fixed_dt, a step that breaks the CFL hypothesis
    dt*L/dx <= 1, with L = 1/(1 + max(min u_i, 0)) over all components,
    raises HypothesisViolation.
    """
    return solve_direct_many([U0], config)[0]


def solve_direct_many(U0s, config):
    """solve_direct for B states under one config or one per state, stepped
    as one array of (k, size) rows on the step loop of scalar._march_rows:
    component c of every state lies in copy c of the row layout. The states
    share k and the boundary mode and may lie on different grids; each
    keeps its own time plan and speed bound and is bitwise its
    solve_direct. An error from one row of a batch names the row. Returns
    one trajectory per state; its meta holds the method, k, the dt
    schedule, the record steps and the speed bound.
    """
    _require_nonnegative(U0s)
    if len({U0.k for U0 in U0s}) > 1:
        raise InvalidArgument("batch states differ in component count")
    k = U0s[0].k
    dxs = [U0.grid.dx for U0 in U0s]
    runs = [(np.array([c.values for c in U0.components], dtype=float),)
            for U0 in U0s]  # (k, n) each

    def speed(r, ranges):
        return 1.0 / (1.0 + max(ranges[r][0], 0.0))  # bounds both families

    def build(layout, buffers, _):
        ((_, Ue, U_r),) = buffers  # U and the cell to the right
        _, F, F_r = layout.buffers((k,))  # the fluxes there
        # G[..., j] is the flux out of column j, so G_in is G one cell behind
        G_in, G = layout.shifted((k,))
        one_plus_v = layout.zeros((layout.size,))
        jump = layout.zeros(Ue.shape)
        cols = [layout.column() for _ in range(2)]  # inv2mu and mu
        steps = None  # the dt of each row the step constants were made for
        inv2mu = mu = None

        def advance(plan):
            nonlocal Ue, G, jump, steps, inv2mu, mu  # in-place ops rebind
            now = [dt for _, _, dt, _, _ in plan]
            if now != steps:
                steps = now
                inv2mu = layout.per_row([dxs[r] / (2.0 * dt)
                                         for r, _, dt, _, _ in plan], cols[0])
                mu = layout.per_row([dt / dxs[r] for r, _, dt, _, _ in plan],
                                    cols[1])
            # the components' total, added in order, then 1 + v
            np.add(Ue[0], Ue[1], out=one_plus_v)
            for c in range(2, k):
                np.add(one_plus_v, Ue[c], out=one_plus_v)
            np.add(one_plus_v, 1.0, out=one_plus_v)
            np.divide(Ue, one_plus_v, out=F)
            # every component at once, in the association of
            # _kernels.lxf_fluxes, G = 0.5*(F_l + F_r) - inv2mu*(u_r - u_l),
            # and of _kernels.scalar_step, U = (U - mu*G_out) + mu*G_in
            np.add(F, F_r, out=G)
            G *= 0.5
            np.subtract(U_r, Ue, out=jump)
            jump *= inv2mu
            G -= jump
            G *= mu
            Ue -= G
            Ue += G_in

        return advance

    trajs = []
    for U0, (times, meta, (U_block,)) in zip(U0s, _march_rows(
            config, U0s, runs, speed, build, ("state",))):
        states = [ChromState([CellField(U0.grid, u, U0.boundary)
                              for u in U_rec])
                  for U_rec in U_block]
        trajs.append(SplitTrajectory(
            times, states, None, [],
            {"method": "lax-friedrichs", "k": k, **meta}))
    return trajs


def state_l1_distance(a, b, window=None):
    """Sum over components of the windowed L1 distance."""
    if a.k != b.k:
        raise InvalidArgument("component count mismatch")
    return math.fsum(lp_distance(ca, cb, 1, window)
                     for ca, cb in zip(a.components, b.components))


def semigroup_defect(U0, t, s, config, solver=solve_chromatography):
    """L1 gap between solve(t+s) and solve(t) after solve(s); fixed-dt only.

    The discrete update is a plain state map, but the staged run restarts
    from the recorded state rebuilt by from_vw (u1 = v - w), whose total
    need not round back to the recorded v. So aligned compositions agree
    to roundoff, not bitwise: the defect is at the 1e-17 scale, not zero.
    """
    return semigroup_defect_many(
        [U0], [(t, s)], config,
        lambda states, cfgs: list(map(solver, states, cfgs)))[0][0]


def semigroup_defect_many(U0s, splits, config,
                          solver=solve_chromatography_many):
    """semigroup_defect for B states and each (t, s) of splits: one list
    per split, of one defect per state.

    Every advance is a batch solve: solver(states, configs) returns one
    trajectory per state, each under its config. Leg 1 steps every state
    once, to the longest t + s, and records every s and every t + s (times
    that round to one step share its record); with fixed dt a record's bits
    do not depend on the stops after it, so each is the state a solve to
    that time alone ends on. Leg 2 is one batch from the states at each s,
    each row to its own t, so no row steps past the time it needs. A time
    of zero steps is the state itself, unsolved.
    """
    if config.fixed_dt is None:
        raise InvalidArgument("semigroup defect needs fixed-step mode")
    dt = config.fixed_dt
    splits = list(splits)
    for split in splits:
        for tau in split:
            if tau < 0.0:
                raise InvalidArgument("times must be nonnegative")
            if not _same_time(round(tau / dt) * dt, tau):
                raise InvalidArgument("time not aligned with fixed_dt")

    def until(stops):
        return ScalarConfig(t_end=stops[-1], cfl=config.cfl,
                            record_times=stops, fixed_dt=dt)

    # leg 1: the states at every s and every t + s, one stop per step
    at = {}
    stops = {round(tau / dt): tau for t, s in splits for tau in (s, t + s)}
    stops.pop(0, None)
    if stops:
        trajs = solver(U0s, [until(sorted(stops.values()))] * len(U0s))
        at = {j: [traj.at(tau) for traj in trajs] for j, tau in stops.items()}

    def states_at(tau):
        return at.get(round(tau / dt), U0s)

    # leg 2: t more from each s, every split of a nonzero t in one batch
    legs = sorted({(t, s) for t, s in splits if round(t / dt)})
    staged = {}
    if legs:
        trajs = iter(solver([U for _, s in legs for U in states_at(s)],
                            [until([t]) for t, _ in legs for _ in U0s]))
        staged = {(t, s): [next(trajs).at(t) for _ in U0s] for t, s in legs}
    return [[state_l1_distance(a, b)
             for a, b in zip(states_at(t + s),
                             staged.get((t, s), states_at(s)))]
            for t, s in splits]


_POLY_DEGREE = 4


def project_to_lifted(eta, states):
    """Least-squares fit of eta onto the lifted family span
    {1, v, v^2, ..., v^4, u1-u2} over the sample states (2x2 only).

    Returns (coefficients, max abs residual). Entropies of the system sit
    in this family, so a small compatibility defect forces a small residual.
    """
    pts = [np.asarray(U, dtype=float) for U in states]
    if any(len(U) != 2 for U in pts):
        raise InvalidArgument("lifted projection is for 2x2 states")
    rows = []
    vals = []
    for U in pts:
        v = U[0] + U[1]
        rows.append([v ** p for p in range(_POLY_DEGREE + 1)] + [U[0] - U[1]])
        vals.append(float(eta(U)))
    A = np.asarray(rows)
    y = np.asarray(vals)
    coeffs, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.max(np.abs(A @ coeffs - y))) if len(y) else 0.0
    return coeffs, resid
