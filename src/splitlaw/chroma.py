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

from .core import (CellField, SplitTrajectory, VectorState, _fill_ghosts,
                   _window_slice, chromatography_flux, lp_distance,
                   total_variation)
from .errors import InvalidArgument, InvalidEntropy, NumericalBlowup
from .scalar import (ScalarConfig, _check_test_fns, _spacetime_quadrature,
                     _time_steps)
# Re-exported, not called here (the split solve goes through solve_split):
# perfbench's tracer test reads chroma.solve_scalar.
from .scalar import solve_scalar  # noqa: F401
from .transport import solve_split


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


def _require_nonnegative(state):
    for comp in state.components:
        if np.min(comp.values) < 0.0:
            raise InvalidArgument("components must be nonnegative")


def solve_chromatography(U0, config):
    """Split solve: scalar law for v, locked upwind transport for each w_i.

    meta reports which well-posedness regime the data certifies: the total
    is always of bounded variation on the grid (regime F, with its TV), and
    when it stays above zero the stronger regime G applies with that floor.
    """
    _require_nonnegative(U0)

    def b_of(v):
        return 1.0 / (1.0 + v)

    v0, w0 = to_vw(U0)
    v_traj, w_trajs = solve_split(chromatography_flux(), b_of, v0, w0, config)
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
    return SplitTrajectory(v_traj.times, states, v_traj, w_trajs, meta)


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
    worst = 0.0
    for pair in pairs:
        for tf in test_fns:
            def arrays(j):
                comps = [c.values for c in traj.states[j].components]
                return (np.asarray(pair.eta(comps), dtype=float),
                        np.asarray(pair.q(comps), dtype=float))

            r = -_spacetime_quadrature(ref, arrays, tf)
            worst = max(worst, max(0.0, r))
    return worst


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
    _require_nonnegative(U0)
    grid = U0.grid
    dx = grid.dx
    periodic = U0.boundary == "periodic"
    U = np.array([c.values for c in U0.components], dtype=float)  # (k, n)
    U_min = float(U.min())
    # per-solve buffers: U plus one ghost cell on each side, 1 + v and the
    # fluxes there, and the interface fluxes with their jump term
    Ue = np.empty((U0.k, grid.n + 2))
    one_plus_v = np.empty(grid.n + 2)
    F = np.empty_like(Ue)
    G = np.empty((U0.k, grid.n + 1))
    jump = np.empty_like(G)

    def speed():
        return 1.0 / (1.0 + max(U_min, 0.0))  # bounds both families

    times = [0.0]
    states = [U0.copy()]
    for step, dt, t, lands in _time_steps(config, dx, speed):
        _fill_ghosts(Ue, U, periodic)
        np.sum(Ue, axis=0, out=one_plus_v)
        np.add(one_plus_v, 1.0, out=one_plus_v)
        np.divide(Ue, one_plus_v, out=F)
        # every component at once, in the association of
        # _kernels.lxf_fluxes, G = 0.5*(F_l + F_r) - inv2mu*(u_r - u_l), and
        # of _kernels.scalar_step, U = (U - mu*G_out) + mu*G_in
        np.add(F[:, :-1], F[:, 1:], out=G)
        G *= 0.5
        np.subtract(Ue[:, 1:], Ue[:, :-1], out=jump)
        jump *= dx / (2.0 * dt)
        G -= jump
        G *= dt / dx
        U -= G[:, 1:]
        U += G[:, :-1]
        U_min = float(U.min())
        if not (math.isfinite(U_min) and math.isfinite(float(U.max()))):
            raise NumericalBlowup(step, f"non-finite state at step {step}, "
                                        f"t={t!r}")

        if lands:
            times.append(t)
            states.append(ChromState(
                [CellField(grid, u.copy(), U0.boundary) for u in U]))

    meta = {"method": "lax-friedrichs", "k": U0.k}
    return SplitTrajectory(times, states, None, [], meta)


def state_l1_distance(a, b, window=None):
    """Sum over components of the windowed L1 distance."""
    if a.k != b.k:
        raise InvalidArgument("component count mismatch")
    return math.fsum(lp_distance(ca, cb, 1, window)
                     for ca, cb in zip(a.components, b.components))


def semigroup_defect(U0, t, s, config, solver=solve_chromatography):
    """L1 gap between solve(t+s) and solve(t) after solve(s); fixed-dt only.

    The discrete update is a plain state map, so aligned compositions agree
    bitwise and the defect is exactly zero.
    """
    if config.fixed_dt is None:
        raise InvalidArgument("semigroup defect needs fixed-step mode")
    dt = config.fixed_dt
    for tau in (t, s):
        if tau < 0.0:
            raise InvalidArgument("times must be nonnegative")
        j = round(tau / dt)
        if abs(j * dt - tau) > 1e-9 * max(tau, dt):
            raise InvalidArgument("time not aligned with fixed_dt")

    def advance(state, tau):
        if round(tau / dt) == 0:
            return state
        cfg = ScalarConfig(t_end=tau, cfl=config.cfl, record_times=[tau],
                           fixed_dt=dt)
        return solver(state, cfg).at(tau)

    direct = advance(U0, t + s)
    staged = advance(advance(U0, s), t)
    return state_l1_distance(direct, staged)


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
