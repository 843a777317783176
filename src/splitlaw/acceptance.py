"""Shipped verification suite: twelve numbered criteria, each a function
returning a CriterionResult.

Every criterion is self-contained (fixtures built inline, seeds fixed) so
`verify` can run from any directory. Tolerances are frozen constants,
calibrated once on this implementation and not meant to be tuned per run.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .chroma import (
    ChromState,
    admissibility_residual,
    check_domain,
    entropy_compat_defect,
    lift_entropy,
    project_to_lifted,
    semigroup_defect_many,
    solve_chromatography,
    solve_chromatography_many,
    solve_direct_many,
    state_l1_distance,
)
from .core import (
    Grid1D,
    SplitTrajectory,
    Trajectory,
    bump_test,
    burgers_flux,
    chromatography_flux,
    lp_distance,
    project,
    total_variation,
)
from .depauw import (
    DyadicSchedule,
    Grid2D,
    chessboard,
    evolve,
    field_diagnostics,
    mixing_report,
)
from .kk import KKState, renormalization_defect, solve_kk, solve_kk_many
from .scalar import (
    RiemannFan,
    ScalarConfig,
    comparison_defect,
    oleinik_excess,
    solve_scalar,
    tvd_defect,
)
from .transport import (
    MollifierSpec,
    TransportPair,
    renorm_residual,
    solve_by_characteristics,
    solve_split_many,
    weighted_sup_norm,
)

# Frozen tolerances. Measured values and margins are recorded next to the
# tests that pin them; do not loosen to make a failing build pass.
RIEMANN_L1_MAX = 0.02
RIEMANN_RATE_MIN = 1.4
EXACT_TOL = 1e-12
COMPONENT_FLOOR = -1e-14
OLEINIK_FACTOR = 2.0
RENORM_C = 0.02
RENORM_TREND_MIN = 1.6
SPLIT_GAP_MAX = 0.05
COMPAT_TOL = 1e-8
PROJECTION_TOL = 1e-6
ADMISS_TOL = 2e-3
ADMISS_CONTROL_FACTOR = 10.0
KK_EXCESS_TOL = 1e-12
KK_GAP_MAX = 0.05
KK_RATE_MIN = 1.3
KK_CONSTDIR_TOL = 1e-10
DEPAUW_WEAK_MAX = 0.1
DEPAUW_BV_FACTOR = 0.1
DEPAUW_DIV_TOL = 1e-12
CROSS_C = 0.5

# The split Riemann fixtures: component (left, right) pairs, all dyadic so
# the scalar total recovered from evolved components stays bitwise exact.
SPLIT_FIXTURES = {
    "S": ((0.25, 0.5), (0.25, 0.75)),
    "E": ((0.5, 0.25), (0.25, 0.5)),
    "F": ((0.75, 0.25), (0.5, 0.5)),
    "G": ((0.125, 0.375), (0.25, 0.125)),
    "Q": ((0.25, 0.0), (0.0, 0.25)),
}


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    seconds: float = 0.0

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:02d} [{tag}] {self.name}: {self.details}"


def _riemann_ic(left, right):
    return lambda x: np.where(np.asarray(x) < 0.0, left, right)


def _split_state(grid, fixture):
    (l1, r1), (l2, r2) = fixture
    return ChromState([
        project(_riemann_ic(l1, r1), grid),
        project(_riemann_ic(l2, r2), grid),
    ])


def _timed(number, name, fn):
    t0 = time.perf_counter()
    passed, details = fn()
    return CriterionResult(number, name, passed, details,
                           time.perf_counter() - t0)


def criterion_01(level="full"):
    """Godunov converges to the exact Riemann fan for v/(1+v)."""
    def body():
        flux = chromatography_flux()
        grids = (512, 1024, 2048, 4096) if level == "full" else (512, 1024)
        report = []
        ok = True
        for v_l, v_r, tag in ((0.0, 1.0, "shock"), (1.0, 0.0, "rarefaction")):
            errs = []
            for n in grids:
                g = Grid1D(-2.0, 2.0, n)
                u0 = project(_riemann_ic(v_l, v_r), g)
                traj = solve_scalar(flux, u0, ScalarConfig(t_end=1.0,
                                                           record_times=[1.0]))
                exact = RiemannFan(flux, v_l, v_r).eval(g.centers() / 1.0)
                f = traj.at(1.0)
                err = g.dx * math.fsum(np.abs(f.values - exact).tolist())
                errs.append(err)
            ok = ok and errs[0] <= RIEMANN_L1_MAX
            rates = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
            ok = ok and all(r >= RIEMANN_RATE_MIN for r in rates)
            report.append(f"{tag} err512={errs[0]:.4f} rates="
                          + "/".join(f"{r:.2f}" for r in rates))
        return ok, "; ".join(report)
    return _timed(1, "riemann convergence", body)


def criterion_02(level="full"):
    """Ordered data stay ordered and variation never grows, both exactly."""
    def body():
        rng = np.random.default_rng(7)
        flux = chromatography_flux()
        g = Grid1D(-2.0, 2.0, 512)
        trials = 20 if level == "full" else 5
        worst_cmp = 0.0
        worst_tvd = 0.0
        for _ in range(trials):
            kts = np.sort(rng.uniform(-1.5, 1.5, rng.integers(2, 6)))
            base = rng.uniform(0.0, 2.0, len(kts) + 1)
            upper = base + rng.uniform(0.0, 1.0, len(kts) + 1)

            def pc(vals):
                def ic(x):
                    out = np.full_like(np.asarray(x, dtype=float), vals[0])
                    for kt, vv in zip(kts, vals[1:]):
                        out = np.where(np.asarray(x) >= kt, vv, out)
                    return out
                return ic

            u0 = project(pc(base), g)
            v0 = project(pc(upper), g)
            L = flux.L_of_range(0.0, float(upper.max()) + 1e-9)
            steps = 2 * math.ceil(0.5 / (2 * 0.45 * g.dx / L))
            cfg = ScalarConfig(t_end=0.5, record_times=[0.25, 0.5],
                               fixed_dt=0.5 / steps)
            tu = solve_scalar(flux, u0, cfg)
            tv = solve_scalar(flux, v0, cfg)
            worst_cmp = max(worst_cmp, comparison_defect(tu, tv, 1.2))
            worst_tvd = max(worst_tvd, tvd_defect(tu), tvd_defect(tv))
        ok = worst_cmp <= EXACT_TOL and worst_tvd <= EXACT_TOL
        return ok, (f"{trials} pairs, comparison defect {worst_cmp:.1e}, "
                    f"TVD defect {worst_tvd:.1e}")
    return _timed(2, "comparison and TVD", body)


def criterion_03(level="full"):
    """One-sided slope bound for the uniformly convex flux rho^2."""
    def body():
        n = 1024 if level == "full" else 512
        g = Grid1D(-2.0, 2.0, n)
        u0 = project(_riemann_ic(1.0, 0.0), g)
        t_list = [0.25, 0.5, 1.0]
        traj = solve_scalar(burgers_flux(), u0,
                            ScalarConfig(t_end=1.0, record_times=t_list))
        ok = True
        parts = []
        for t in t_list:
            exc = oleinik_excess(traj.at(t), t, 2.0, "convex")
            bound = OLEINIK_FACTOR * g.dx / (2.0 * t * t)
            ok = ok and exc <= bound
            parts.append(f"t={t}: {exc:.1e}<={bound:.1e}")
        return ok, "; ".join(parts)
    return _timed(3, "one-sided slope bound", body)


def criterion_04(level="full"):
    """Weighted contraction, pointwise domination, sign preservation."""
    def body():
        rng = np.random.default_rng(11)
        b_of = lambda v: 1.0 / (1.0 + v)
        flux = chromatography_flux()
        g = Grid1D(-2.0, 2.0, 256)
        trials = 10 if level == "full" else 3
        v0s = []
        w0s = []
        for trial in range(trials):
            kts = np.sort(rng.uniform(-1.5, 1.5, rng.integers(2, 5)))
            v_vals = rng.uniform(0.2, 2.2, len(kts) + 1)
            lam = rng.uniform(-1.0, 1.0, len(kts) + 1)
            if trial % 2 == 0:
                lam = np.abs(lam)

            def pc(vals):
                def ic(x):
                    out = np.full_like(np.asarray(x, dtype=float), vals[0])
                    for kt, vv in zip(kts, vals[1:]):
                        out = np.where(np.asarray(x) >= kt, vv, out)
                    return out
                return ic

            v0 = project(pc(v_vals), g)
            v0s.append(v0)
            w0s.append([v0.with_values(project(pc(lam), g).values
                                       * v0.values)])
        cfg = ScalarConfig(t_end=0.5, record_times=[0.1, 0.3, 0.5])
        runs = solve_split_many(flux, b_of, v0s, w0s, cfg)
        worst_contract = 0.0
        worst_dom = 0.0
        worst_sign = 0.0
        for trial, (v0, (w0,), (v_traj, (w_traj,))) in enumerate(
                zip(v0s, w0s, runs)):
            sup0 = weighted_sup_norm(w0, v0)
            for v_t, w_t in zip(v_traj.fields, w_traj.fields):
                worst_contract = max(worst_contract,
                                     weighted_sup_norm(w_t, v_t) - sup0)
                worst_dom = max(worst_dom, float(np.max(
                    np.abs(w_t.values) - v_t.values)))
                if trial % 2 == 0:
                    worst_sign = max(worst_sign, float(np.max(-w_t.values)))
        ok = (worst_contract <= EXACT_TOL and worst_dom <= 0.0
              and worst_sign <= 0.0)
        return ok, (f"{trials} fixtures, contraction excess "
                    f"{worst_contract:.1e}, domination excess {worst_dom:.1e},"
                    f" sign excess {worst_sign:.1e}")
    return _timed(4, "weighted contraction and sign", body)


def criterion_05(level="full"):
    """Renormalized weak residual scales like the grid."""
    def body():
        grids = (256, 512) if level == "full" else (256,)
        results = {}
        for n in grids:
            g = Grid1D(-2.0, 2.0, n)
            v0 = project(lambda x: 1.0 + 0.5 * np.exp(-4.0 * x * x), g)
            w0 = project(lambda x: 0.5 * np.exp(-6.0 * (x - 0.25) ** 2), g)
            u1 = v0.with_values(0.5 * (v0.values + w0.values))
            u2 = v0.with_values(0.5 * (v0.values - w0.values))
            rec = list(np.linspace(0.0, 0.5, 81)[1:])
            traj = solve_chromatography(
                ChromState([u1, u2]),
                ScalarConfig(t_end=0.5, record_times=rec))
            pair = TransportPair(traj.v_traj, lambda v: 1.0 / (1.0 + v))
            tests = [bump_test(0.05, 0.45, -1.2, 1.2),
                     bump_test(0.1, 0.4, -0.5, 1.5)]
            dtv = traj.v_traj.meta["dt_schedule"][0]
            for name, beta in (("u^2", lambda u: u * u), ("|u|", np.abs)):
                r = renorm_residual(pair, traj.w_trajs[0], beta, tests)
                results[(n, name)] = (r, g.dx + dtv)
        ok = all(r <= RENORM_C * scale for r, scale in results.values())
        parts = [f"n={n} {name}: {r:.2e}<={RENORM_C * scale:.2e}"
                 for (n, name), (r, scale) in results.items()]
        if len(grids) == 2:
            for name in ("u^2", "|u|"):
                trend = results[(256, name)][0] / results[(512, name)][0]
                ok = ok and trend >= RENORM_TREND_MIN
                parts.append(f"{name} trend {trend:.2f}")
        return ok, "; ".join(parts)
    return _timed(5, "renormalization residual", body)


def criterion_06(level="full"):
    """Split solver against the direct one on the Riemann fixture set."""
    def body():
        names = list(SPLIT_FIXTURES) if level == "full" else ["S", "Q"]
        grids = (512, 1024, 2048) if level == "full" else (512,)
        gaps = {name: [] for name in names}
        for n in grids:
            g = Grid1D(-2.0, 2.0, n)
            U0s = [_split_state(g, SPLIT_FIXTURES[name]) for name in names]
            cfg = ScalarConfig(t_end=1.0, record_times=[1.0])
            splits = solve_chromatography_many(U0s, cfg)
            directs = solve_direct_many(U0s, cfg)
            for name, split, direct in zip(names, splits, directs):
                gaps[name].append(state_l1_distance(split.at(1.0),
                                                    direct.at(1.0)))
        ok = True
        parts = []
        for name in names:
            ok = ok and gaps[name][0] <= SPLIT_GAP_MAX
            if len(gaps[name]) > 1:
                ok = ok and all(a > b for a, b in zip(gaps[name],
                                                      gaps[name][1:]))
            parts.append(name + " " + "/".join(f"{x:.4f}"
                                               for x in gaps[name]))
        return ok, "; ".join(parts)
    return _timed(6, "split vs direct", body)


def _convex_scalar_entropy(rng):
    """Random strictly convex eta with a closed-form matched flux.

    Family a v^2 + b v + c (1+v)^3 + d (1+v)^4 with a > 0 and c, d >= 0;
    each term's flux for v/(1+v) is elementary, so the pair is exact and
    only finite differencing limits the measured defect.
    """
    a = rng.uniform(0.3, 2.0)
    b = rng.uniform(-2.0, 2.0)
    c = rng.uniform(0.0, 0.5)
    d = rng.uniform(0.0, 0.25)

    def eta(v):
        v = np.asarray(v, dtype=float)
        return a * v * v + b * v + c * (1 + v) ** 3 + d * (1 + v) ** 4

    def q(v):
        v = np.asarray(v, dtype=float)
        return (2 * a * (np.log1p(v) + 1.0 / (1.0 + v) - 1.0)
                + b * v / (1.0 + v)
                + 3 * c * v
                + 4 * d * (v + 0.5 * v * v))

    return eta, q


def criterion_07(level="full"):
    """Entropy lifting: compatibility, projection, admissibility."""
    def body():
        rng = np.random.default_rng(23)
        n_pairs = 50 if level == "full" else 10
        worst_compat = 0.0
        for _ in range(n_pairs):
            eta_s, q_s = _convex_scalar_entropy(rng)
            C = rng.uniform(-4.0, 4.0)
            pair = lift_entropy(eta_s, q_s, C)
            states = [rng.uniform(0.0, 3.0, 2) for _ in range(20)]
            worst_compat = max(worst_compat,
                               entropy_compat_defect(pair, states))
        ok = worst_compat <= COMPAT_TOL
        parts = [f"compat {worst_compat:.1e} over {n_pairs} pairs"]

        worst_proj = 0.0
        worst_coeff = 0.0
        for _ in range(10 if level == "full" else 3):
            coeffs = rng.uniform(-2.0, 2.0, 4)
            C = rng.uniform(-3.0, 3.0)

            def eta(U, coeffs=coeffs, C=C):
                v = U[0] + U[1]
                poly = sum(c * v ** k for k, c in enumerate(coeffs))
                return poly + C * (U[0] - U[1])

            states = [rng.uniform(0.0, 2.5, 2) for _ in range(40)]
            got, resid = project_to_lifted(eta, states)
            worst_proj = max(worst_proj, resid)
            worst_coeff = max(worst_coeff, abs(got[-1] - C))
        ok = ok and worst_proj <= PROJECTION_TOL \
            and worst_coeff <= PROJECTION_TOL
        parts.append(f"projection {worst_proj:.1e}, C error {worst_coeff:.1e}")

        pair = lift_entropy(
            lambda v: v * v,
            lambda v: 2.0 * (np.log1p(v) + 1.0 / (1.0 + v) - 1.0), 3.0)
        tests = [bump_test(0.1, 0.9, -1.0, 1.0),
                 bump_test(0.2, 0.8, -1.5, 0.5),
                 bump_test(0.15, 0.85, 0.0, 1.8)]
        g = Grid1D(-2.0, 2.0, 512)
        rec = list(np.linspace(0.0, 1.0, 201)[1:])
        names = list(SPLIT_FIXTURES) if level == "full" else ["Q"]
        worst_fix = 0.0
        for name in names:
            traj = solve_chromatography(
                _split_state(g, SPLIT_FIXTURES[name]),
                ScalarConfig(t_end=1.0, record_times=rec))
            worst_fix = max(worst_fix,
                            admissibility_residual(traj, [pair], tests))
        ok = ok and worst_fix <= ADMISS_TOL

        flux = chromatography_flux()
        v_l, v_r = 2.0, 0.25
        speed = (flux.g(v_r) - flux.g(v_l)) / (v_r - v_l)
        times = list(np.linspace(0.0, 1.0, 201))
        states = []
        for t in times:
            v = project(lambda x, t=t: np.where(x < speed * t, v_l, v_r), g)
            states.append(ChromState([v.with_values(0.5 * v.values),
                                      v.with_values(0.5 * v.values)]))
        comp = [Trajectory(times, [st.components[i] for st in states], {})
                for i in range(2)]
        control = SplitTrajectory(times, states, None, comp, {})
        r_control = admissibility_residual(control, [pair], tests)
        ok = ok and r_control >= ADMISS_CONTROL_FACTOR * ADMISS_TOL
        parts.append(f"fixtures {worst_fix:.1e}<={ADMISS_TOL:.0e}, "
                     f"control {r_control:.2e}>="
                     f"{ADMISS_CONTROL_FACTOR * ADMISS_TOL:.0e}")
        return ok, "; ".join(parts)
    return _timed(7, "entropy machinery", body)


def criterion_08(level="full"):
    """Regime invariance: positive floor, variation bound, nonnegativity."""
    def body():
        ok = True
        parts = []
        g = Grid1D(-2.0, 2.0, 256)
        g_fixtures = [((0.75, 0.25), (0.5, 0.5)), ((0.5, 1.0), (0.25, 0.25))]
        f_fixtures = [((0.375, 0.375), (0.0, 0.0)), ((0.25, 0.0), (0.0, 0.5))]
        if level != "full":
            g_fixtures = g_fixtures[:1]
            f_fixtures = f_fixtures[:1]
        for fixture in g_fixtures:
            U0 = _split_state(g, fixture)
            traj = solve_chromatography(
                U0, ScalarConfig(t_end=1.0, record_times=[0.25, 0.5, 1.0]))
            L = traj.meta["speed_bound"]
            worst = math.inf
            for R in (0.5, 1.0):
                for t, st in zip(traj.times, traj.states):
                    v_t = st.total()
                    idx = np.abs(g.centers()) <= R
                    idx0 = np.abs(g.centers()) <= R + L * t
                    floor0 = float(np.min(
                        traj.states[0].total().values[idx0]))
                    worst = min(worst, float(np.min(v_t.values[idx]))
                                - floor0)
            rep = check_domain(traj.states[-1], "G", delta=0.25)
            ok = ok and worst >= -EXACT_TOL and rep.ok
            parts.append(f"floor margin {worst:.1e}")
        for fixture in f_fixtures:
            U0 = _split_state(g, fixture)
            traj = solve_chromatography(
                U0, ScalarConfig(t_end=1.0, record_times=[0.25, 0.5, 1.0]))
            tv0 = total_variation(traj.v_traj.fields[0])
            growth = max(total_variation(f) - tv0
                         for f in traj.v_traj.fields[1:])
            min_comp = min(float(np.min(c.values))
                           for st in traj.states for c in st.components)
            rep = check_domain(traj.states[-1], "F")
            ok = ok and growth <= EXACT_TOL \
                and min_comp >= COMPONENT_FLOOR and rep.ok
            parts.append(f"TV growth {growth:.1e}, min comp {min_comp:.1e}")
        return ok, "; ".join(parts)
    return _timed(8, "domain invariance", body)


def criterion_09(level="full"):
    """Evolving to t+s equals evolving to s then t, to roundoff."""
    def body():
        g = Grid1D(-2.0, 2.0, 256)
        names = list(SPLIT_FIXTURES) if level == "full" else ["S", "E"]
        U0s = [_split_state(g, SPLIT_FIXTURES[name]) for name in names]
        cfg = ScalarConfig(t_end=1.0, record_times=[1.0],
                           fixed_dt=1.0 / 512)
        worst = max(semigroup_defect_many(U0s, 0.5, 0.5, cfg)
                    + semigroup_defect_many(U0s, 0.75, 0.25, cfg))
        ok = worst <= EXACT_TOL
        return ok, f"{len(names)} fixtures, worst defect {worst:.1e}"
    return _timed(9, "semigroup property", body)


def criterion_10(level="full"):
    """Modulus of the direction system solves the scalar law."""
    def body():
        f = lambda r: 1.0 + r
        fp = lambda r: np.ones_like(np.asarray(r, dtype=float))
        ok = True
        parts = []
        grids = (512, 1024, 2048) if level == "full" else (256, 512)
        fixtures = {"flip": ((0.75, 0.25), (0.25, 0.75)),
                    "mild": ((0.5, 0.25), (0.25, 0.5))}
        gaps = {name: [] for name in fixtures}
        for n in grids:
            g = Grid1D(-2.0, 2.0, n)
            U0s = [KKState([project(_riemann_ic(ul[0], ur[0]), g),
                            project(_riemann_ic(ul[1], ur[1]), g)])
                   for ul, ur in fixtures.values()]
            trajs = solve_kk_many(U0s, f, fp,
                                  ScalarConfig(t_end=1.0, record_times=[1.0]))
            for name, traj in zip(fixtures, trajs):
                exc, gap = renormalization_defect(traj, None)
                ok = ok and exc <= KK_EXCESS_TOL
                gaps[name].append(gap)
        for name, gaps_n in gaps.items():
            ok = ok and gaps_n[0] <= KK_GAP_MAX
            rates = [a / b for a, b in zip(gaps_n, gaps_n[1:])]
            ok = ok and all(r >= KK_RATE_MIN for r in rates)
            parts.append(name + " gaps "
                         + "/".join(f"{x:.4f}" for x in gaps_n)
                         + " rates " + "/".join(f"{r:.2f}" for r in rates))

        n = 512 if level == "full" else 256
        g = Grid1D(-2.0, 2.0, n)
        rho0 = project(_riemann_ic(1.0, 0.5), g)
        th = (0.6, 0.8)
        U0 = KKState([rho0.with_values(th[0] * rho0.values),
                      rho0.with_values(th[1] * rho0.values)])
        traj = solve_kk(U0, f, fp,
                        ScalarConfig(t_end=0.5, record_times=[0.25, 0.5]))
        dev = 0.0
        for st, rho in zip(traj.states, traj.v_traj.fields):
            for i in range(2):
                dev = max(dev, float(np.max(
                    np.abs(st.components[i].values - th[i] * rho.values))))
        ok = ok and dev <= KK_CONSTDIR_TOL
        parts.append(f"constant-direction {dev:.1e}")
        return ok, "; ".join(parts)
    return _timed(10, "direction-system renormalization", body)


def criterion_11(level="full"):
    """Mixing cascade: exact stages, persistence in norm, weak decay,
    field bounds, incompressibility."""
    def body():
        k_max, m = (6, 8) if level == "full" else (4, 6)
        grid = Grid2D(m)
        sched = DyadicSchedule("original", k_max, m)
        init = chessboard(k_max, grid)
        ok = True
        parts = []

        ends = [t1 for (_, _, t1) in sched.stages]
        traj = evolve(sched, init, ends)
        worst = 0.0
        for (k, _, t1), f in zip(sched.stages, traj.fields):
            target = chessboard(k - 1, grid)
            worst = max(worst, float(np.max(np.abs(f.values
                                                   - target.values))))
        ok = ok and worst == 0.0
        parts.append(f"(a) stage defect {worst:.0e}")

        mids = [0.5 * (t0 + t1) for (_, t0, t1) in sched.stages]
        ts = sorted(set([sched.t_start] + mids + ends))
        traj = evolve(sched, init, ts)
        rep = mixing_report(traj)
        l1_dev = max(abs(row["l1"] - 1.0) for row in rep)
        weak_fine = rep[0]["weak_max"]
        ok = ok and l1_dev <= EXACT_TOL and weak_fine <= DEPAUW_WEAK_MAX
        parts.append(f"(b) |L1-1| {l1_dev:.1e}, weak at finest "
                     f"{weak_fine:.1e}")

        strong = DyadicSchedule("strong", k_max, m)
        sup_ok = True
        end_ok = True
        for (k, t0, t1) in strong.stages:
            samples = np.linspace(t0, t1, 21)
            stage = strong.stage(k)
            sups = []
            for t in samples:
                scale, kk = strong.field_scale(t)
                sups.append(0.0 if kk is None else scale * stage.sup_norm)
            sup_ok = sup_ok and max(sups[1:-1]) <= 2.0 / k
            end_ok = end_ok and sups[0] == 0.0 and sups[-1] == 0.0
        ok = ok and sup_ok and end_ok
        parts.append(f"(c) strong sup<=2/k {sup_ok}, endpoints zero {end_ok}")

        bv_ok = True
        for variant, s in (("original", sched), ("strong", strong)):
            t_samples = [0.5 * (t0 + t1) for (_, t0, t1) in s.stages]
            for row in field_diagnostics(s, t_samples, grid):
                bv_ok = bv_ok and row["bv"] >= DEPAUW_BV_FACTOR / row["t"]
        ok = ok and bv_ok
        parts.append(f"(d) bv>=0.1/t {bv_ok}")

        div_worst = max(sched.stage(k).div_max
                        for k in range(2, k_max + 1))
        ok = ok and div_worst <= DEPAUW_DIV_TOL
        parts.append(f"(e) divergence {div_worst:.0e}")
        return ok, "; ".join(parts)
    return _timed(11, "mixing dichotomy", body)


def criterion_12(level="full"):
    """Two unrelated discretizations of the same transport agree."""
    def body():
        fixture = SPLIT_FIXTURES["F"]
        grids = (256, 512, 1024) if level == "full" else (256, 512)
        ok = True
        parts = []
        gaps = {4.0: [], 8.0: []}
        for n in grids:
            g = Grid1D(-2.0, 2.0, n)
            U0 = _split_state(g, fixture)
            rec = list(np.linspace(0.0, 1.0, 41)[1:])
            traj = solve_chromatography(
                U0, ScalarConfig(t_end=1.0, record_times=rec))
            w_up = traj.w_trajs[0]
            pair = TransportPair(traj.v_traj, lambda v: 1.0 / (1.0 + v))
            for mult in (4.0, 8.0):
                eps = mult * g.dx
                w_ch = solve_by_characteristics(
                    pair, w_up.fields[0], MollifierSpec(eps), [1.0])
                gap = lp_distance(w_up.at(1.0), w_ch.at(1.0), 1)
                bound = CROSS_C * (g.dx ** 0.5 + eps)
                ok = ok and gap <= bound
                gaps[mult].append(gap)
                parts.append(f"n={n} eps={mult:.0f}dx {gap:.4f}<={bound:.4f}")
        for mult in (4.0, 8.0):
            ok = ok and gaps[mult][-1] < gaps[mult][0]
        return ok, "; ".join(parts)
    return _timed(12, "cross-solver agreement", body)


ALL_CRITERIA = (
    criterion_01, criterion_02, criterion_03, criterion_04,
    criterion_05, criterion_06, criterion_07, criterion_08,
    criterion_09, criterion_10, criterion_11, criterion_12,
)


def run_all(level="full"):
    return [fn(level) for fn in ALL_CRITERIA]
