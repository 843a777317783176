"""The k-component chromatography system solved by splitting.

The change of variables v = sum(u_i), w_i = u_{i+1} is linear, so the
system reduces to one scalar law for v (flux v/(1+v)) plus k-1 copies of
the continuity equation with velocity 1/(1+v). solve_chromatography runs
that split; solve_direct is the independent Lax-Friedrichs oracle on the
untransformed system. The entropy machinery implements the lifted pairs
eta = eta_s(u1+u2) + C(u1-u2) and the compatibility test grad(eta) DF =
grad(q) that characterizes them.
"""
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (CellField, SplitTrajectory, VectorState, _ghost_cells,
                   _window_slice, _worst_residual, chromatography_flux,
                   lp_distance, total_variation)
from .errors import InvalidArgument, InvalidEntropy, NumericalBlowup
from .scalar import (ScalarConfig, _batch_grid, _check_test_fns, _in_row,
                     _lockstep, _spacetime_quadrature)
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
    if len(w) == 1:
        u1_vals = v.values - w[0].values
    else:
        u1_vals = v.values - _fsum_columns(np.stack([f.values for f in w]))
    u1 = CellField(v.grid, u1_vals, v.boundary)
    return ChromState([u1] + [f.copy() for f in w])


def difference_form(state):
    """The 2x2 presentation (v, u1 - u2); an output convention only."""
    if state.k != 2:
        raise InvalidArgument("difference form is the 2x2 presentation")
    u1, u2 = state.components
    return state.total(), u1.with_values(u1.values - u2.values)


def _require_nonnegative(states):
    """Every component of every state of a batch is >= 0."""
    for r, state in enumerate(states):
        if any(np.min(comp.values) < 0.0 for comp in state.components):
            raise _in_row(InvalidArgument("components must be nonnegative"),
                          r, len(states))


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
    """solve_chromatography for B states on one grid under one config,
    stepped as one (B, n) split march (transport.solve_split_many). The
    states share k; each keeps its own time plan and is bitwise its
    solve_chromatography. Returns one trajectory per state.
    """
    _require_nonnegative(U0s)
    vws = [to_vw(U0) for U0 in U0s]
    runs = solve_split_many(chromatography_flux(), _velocity,
                            [v0 for v0, _ in vws], [w0 for _, w0 in vws],
                            config)
    trajs = []
    for (v0, _), (v_traj, w_trajs) in zip(vws, runs):
        states = [from_vw(v_traj.fields[j], [wt.fields[j] for wt in w_trajs])
                  for j in range(len(v_traj))]
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
    provenance: tuple = None
    convex: bool = False


def _scalar_pair_defect(eta_s, q_s):
    # spot-check q' = eta' * g' for g = v/(1+v) by centered differences
    sample = np.array([0.0, 0.17, 0.5, 1.0, 1.9, 3.3, 6.1])
    worst = 0.0
    for v in sample:
        h = 1e-5 * max(1.0, abs(v))
        de = (float(eta_s(v + h)) - float(eta_s(v - h))) / (2.0 * h)
        dq = (float(q_s(v + h)) - float(q_s(v - h))) / (2.0 * h)
        gp = 1.0 / (1.0 + v) ** 2
        worst = max(worst, abs(dq - de * gp))
    return worst


def lift_entropy(eta_s, q_s, C, check_tol=1e-6):
    """Lift the scalar pair (eta_s, q_s) to the 2x2 system with constant C.

    eta(U) = eta_s(u1+u2) + C(u1-u2), q(U) = q_s(u1+u2) + C(u1-u2)/(1+u1+u2).
    Convexity of the lift equals convexity of eta_s (the linear term does
    not bend).
    """
    defect = _scalar_pair_defect(eta_s, q_s)
    if defect > check_tol:
        raise InvalidEntropy(
            f"(eta, q) is not an entropy pair for v/(1+v): defect {defect:.3e}")

    def eta(U):
        u1, u2 = np.asarray(U[0], dtype=float), np.asarray(U[1], dtype=float)
        return np.asarray(eta_s(u1 + u2), dtype=float) + C * (u1 - u2)

    def q(U):
        u1, u2 = np.asarray(U[0], dtype=float), np.asarray(U[1], dtype=float)
        s = u1 + u2
        return np.asarray(q_s(s), dtype=float) + C * (u1 - u2) / (1.0 + s)

    return SystemEntropyPair(eta=eta, q=q, provenance=(eta_s, q_s, C))


def flux_jacobian(U):
    """DF at a point state U, with F_i(U) = u_i/(1+v), v = sum u_j."""
    U = np.asarray(U, dtype=float)
    k = len(U)
    v = float(np.sum(U))
    J = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            J[i, j] = (1.0 if i == j else 0.0) / (1.0 + v) \
                - U[i] / (1.0 + v) ** 2
    return J


def _fd_gradient(fn, U, rel=1e-5):
    U = np.asarray(U, dtype=float)
    g = np.empty(len(U))
    for i in range(len(U)):
        h = rel * max(1.0, abs(U[i]))
        Up = U.copy()
        Um = U.copy()
        Up[i] += h
        Um[i] -= h
        g[i] = (float(fn(Up)) - float(fn(Um))) / (2.0 * h)
    return g


def entropy_compat_defect(pair, states):
    """max over sample states of |grad(eta) DF - grad(q)| (sup over entries)."""
    worst = 0.0
    for U in states:
        U = np.asarray(U, dtype=float)
        ge = _fd_gradient(pair.eta, U)
        gq = _fd_gradient(pair.q, U)
        resid = ge @ flux_jacobian(U) - gq
        worst = max(worst, float(np.max(np.abs(resid))))
    return worst


def admissibility_residual(traj, pairs, test_fns):
    """Worst positive part of the weak entropy residual across pairs/tests."""
    ref = traj.component_trajectory(0)
    _check_test_fns(ref, test_fns)

    def totals(pair):
        def arrays(j):
            comps = [c.values for c in traj.states[j].components]
            return (np.asarray(pair.eta(comps), dtype=float),
                    np.asarray(pair.q(comps), dtype=float))

        return _spacetime_quadrature(ref, arrays, test_fns)

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
    """solve_direct for B states on one grid under one config, stepped as
    one (B, k, n) array. The states share k; each row keeps its own time
    plan and speed bound, leaves the array once its plan has ended, and is
    bitwise its solve_direct. An error from one row of a batch names the
    row. Returns one trajectory per state.
    """
    batch = len(U0s)
    _require_nonnegative(U0s)
    grid, boundary = _batch_grid(U0s)
    if len({U0.k for U0 in U0s}) > 1:
        raise InvalidArgument("batch states differ in component count")
    k = U0s[0].k
    n = grid.n
    dx = grid.dx
    periodic = boundary == "periodic"
    U = np.array([[c.values for c in U0.components] for U0 in U0s],
                 dtype=float)  # (B, k, n)
    U_min = np.minimum.reduce(U, axis=(1, 2)).tolist()

    def speed(r):
        return 1.0 / (1.0 + max(U_min[r], 0.0))  # bounds both families

    def workspace(b):
        # U plus one ghost cell on each side, 1 + v and the fluxes there,
        # the interface fluxes with their jump term, and per-row factors
        return (np.empty((b, k, n + 2)), np.empty((b, 1, n + 2)),
                np.empty((b, k, n + 2)), np.empty((b, k, n + 1)),
                np.empty((b, k, n + 1)), np.empty((b, 1, 1)),
                np.empty((b, 1, 1)))

    times = [[0.0] for _ in U0s]
    states = [[U0.copy()] for U0 in U0s]
    rows = list(range(batch))  # the state held in each row of U
    Ue = None
    speeds = [functools.partial(speed, r) for r in rows]
    for plan in _lockstep(config, dx, speeds):
        if Ue is None or len(plan) < len(rows):
            # the first step, or some plans have ended: (re)build the arrays
            keep = [rows.index(r) for r, *_ in plan]
            rows = [r for r, *_ in plan]
            Ue, one_plus_v, F, G, jump, inv2mu, mu = workspace(len(rows))
            Ue[..., 1:-1] = U[keep]
            U = Ue[..., 1:-1]  # U lives between its ghost cells
            ghosts, edges = _ghost_cells(Ue, periodic)
        inv2mu[:, 0, 0] = [dx / (2.0 * dt) for _, _, dt, _, _ in plan]
        mu[:, 0, 0] = [dt / dx for _, _, dt, _, _ in plan]
        ghosts[...] = edges
        np.sum(Ue, axis=1, keepdims=True, out=one_plus_v)
        np.add(one_plus_v, 1.0, out=one_plus_v)
        np.divide(Ue, one_plus_v, out=F)
        # every component at once, in the association of
        # _kernels.lxf_fluxes, G = 0.5*(F_l + F_r) - inv2mu*(u_r - u_l), and
        # of _kernels.scalar_step, U = (U - mu*G_out) + mu*G_in
        np.add(F[..., :-1], F[..., 1:], out=G)
        G *= 0.5
        np.subtract(Ue[..., 1:], Ue[..., :-1], out=jump)
        jump *= inv2mu
        G -= jump
        G *= mu
        U -= G[..., 1:]
        U += G[..., :-1]
        lo = np.minimum.reduce(U, axis=(1, 2)).tolist()
        hi = np.maximum.reduce(U, axis=(1, 2)).tolist()
        for i, (r, step, _, t, lands) in enumerate(plan):
            U_min[r] = lo[i]
            if not (math.isfinite(lo[i]) and math.isfinite(hi[i])):
                raise _in_row(NumericalBlowup(
                    step, f"non-finite state at step {step}, t={t!r}"),
                    r, batch)
            if lands:
                times[r].append(t)
                states[r].append(ChromState(
                    [CellField(grid, u.copy(), boundary) for u in U[i]]))

    meta = {"method": "lax-friedrichs", "k": k}
    return [SplitTrajectory(times[r], states[r], None, [], dict(meta))
            for r in range(batch)]


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
        [U0], t, s, config,
        lambda states, cfg: [solver(st, cfg) for st in states])[0]


def semigroup_defect_many(U0s, t, s, config,
                          solver=solve_chromatography_many):
    """semigroup_defect for B states, each advance one batch solve:
    solver(states, config) returns one trajectory per state. Returns one
    defect per state."""
    if config.fixed_dt is None:
        raise InvalidArgument("semigroup defect needs fixed-step mode")
    dt = config.fixed_dt
    for tau in (t, s):
        if tau < 0.0:
            raise InvalidArgument("times must be nonnegative")
        j = round(tau / dt)
        if abs(j * dt - tau) > 1e-9 * max(tau, dt):
            raise InvalidArgument("time not aligned with fixed_dt")

    def advance(states, tau):
        if round(tau / dt) == 0:
            return states
        cfg = ScalarConfig(t_end=tau, cfl=config.cfl, record_times=[tau],
                           fixed_dt=dt)
        return [traj.at(tau) for traj in solver(states, cfg)]

    direct = advance(U0s, t + s)
    staged = advance(advance(U0s, s), t)
    return [state_l1_distance(a, b) for a, b in zip(direct, staged)]


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
