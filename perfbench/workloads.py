"""The three benchmark workloads: inputs built from a seed, one timed pass,
and the checks that make a pass count as correct.

Each pass is a closed loop with one client: its operations run back to
back. Only the operations are timed; the checks on their outputs, and the
`between` callback that the worker uses for its reference probe, run
between them, outside the timed intervals.
"""
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from splitlaw import acceptance, chroma, cli, core, scalar

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"


@dataclass
class PassResult:
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    op_seconds: dict = field(default_factory=dict)
    op_spans: list = field(default_factory=list)

    def timed(self, label, seconds):
        """Record an operation that has just ended and took `seconds`."""
        self.op_seconds[label] = seconds
        self.op_spans.append((time.perf_counter() - seconds, seconds))
        self.seconds += seconds

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def _report_exception(what):
    print(f"{what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class GateFull:
    """`splitlaw verify --level full`: the twelve criteria at full budget.

    The criteria pin their own seeds, so the seed argument is unused.
    """

    name = "gate-full"

    def __init__(self, root, seed):
        del root, seed

    def run_pass(self, between=lambda: None):
        res = PassResult()
        # acceptance.run_all(level) is [fn(level) for fn in ALL_CRITERIA];
        # calling the criteria one by one lets each be timed and probed
        for i, fn in enumerate(acceptance.ALL_CRITERIA, start=1):
            label = f"criterion_{i:02d}"
            t0 = time.perf_counter()
            try:
                r = fn("full")
            except Exception:
                res.timed(label, time.perf_counter() - t0)
                _report_exception(label)
                res.record(False, f"{label}: raised")
            else:
                res.timed(label, r.seconds)
                res.record(r.passed and r.number == i, r.line())
            between()
        return res


# large-solve: seeded piecewise-constant data at n = 32768 on [-2, 2].
N_LARGE = 32768
X_MIN, X_MAX = -2.0, 2.0
T_END = 0.125
CFL = 0.45
# Fixed time steps sized from the speed bound over the whole range the data
# may take, so every seed does the same number of steps and wall times from
# different seeds are comparable.
SCALAR_RANGE = (0.0, 2.0)       # chromatography flux, speed bound g'(0) = 1
BURGERS_RANGE = (0.0, 1.0)      # speed bound 2 v_max = 2
COMPONENT_RANGE = (0.375, 1.0)  # split and direct: totals v >= 0.75
MASS_TOL = acceptance.EXACT_TOL


def _piecewise(rng, lo, hi):
    """Criterion 2's family: 2-5 jumps in [-1.5, 1.5], values in [lo, hi)."""
    kts = np.sort(rng.uniform(-1.5, 1.5, rng.integers(2, 6)))
    vals = rng.uniform(lo, hi, len(kts) + 1)

    def ic(x):
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, vals[0])
        for kt, vv in zip(kts, vals[1:]):
            out = np.where(x >= kt, vv, out)
        return out
    return ic


def _fixed_config(grid, speed_bound):
    steps = 2 * math.ceil(T_END / (2 * CFL * grid.dx / speed_bound))
    return scalar.ScalarConfig(t_end=T_END, record_times=[T_END / 2, T_END],
                               fixed_dt=T_END / steps)


def boundary_flux_balance(traj_fields, g, t_end):
    """Mass change minus the net boundary inflow t_end * (g(left) - g(right)).

    The data are constant near both ends and no wave reaches them by t_end,
    so the boundary fluxes are constant in time.
    """
    first, last = traj_fields[0], traj_fields[-1]
    inflow = t_end * (float(g(first.values[0])) - float(g(first.values[-1])))
    return core.mass(last) - core.mass(first) - inflow


def check_scalar(traj, flux):
    """The gate's scalar invariants on one trajectory: list of failures."""
    problems = []
    mp = scalar.max_principle_defect(traj)
    if not mp <= acceptance.EXACT_TOL:
        problems.append(f"max principle defect {mp:.3e}")
    tvd = scalar.tvd_defect(traj)
    if not tvd <= acceptance.EXACT_TOL:
        problems.append(f"TVD defect {tvd:.3e}")
    bal = boundary_flux_balance(traj.fields, flux.g, traj.times[-1])
    if not abs(bal) <= MASS_TOL:
        problems.append(f"mass balance defect {bal:.3e}")
    return problems


def _component_floor(states):
    return min(float(np.min(c.values)) for s in states for c in s.components)


def check_split(traj, flux):
    problems = check_scalar(traj.v_traj, flux)
    for w_traj in traj.w_trajs:
        for v_f, w_f in zip(traj.v_traj.fields, w_traj.fields):
            excess = float(np.max(np.abs(w_f.values) - v_f.values))
            if not excess <= 0.0:
                problems.append(f"|w| exceeds v by {excess:.3e}")
                break
    floor = _component_floor(traj.states)
    if not floor >= acceptance.COMPONENT_FLOOR:
        problems.append(f"component floor {floor:.3e}")
    return problems


def check_direct(traj):
    problems = []
    floor = _component_floor(traj.states)
    if not floor >= acceptance.COMPONENT_FLOOR:
        problems.append(f"component floor {floor:.3e}")
    for i in range(traj.states[0].k):
        bal = _lxf_balance(traj, i)
        if not abs(bal) <= MASS_TOL:
            problems.append(f"component {i + 1} mass balance defect {bal:.3e}")
    return problems


def _lxf_balance(traj, i):
    """Mass balance of component i: the edge fluxes are u_i / (1 + v)."""
    first = traj.states[0]
    last = traj.states[-1]
    u = first.components[i].values
    v = sum(c.values for c in first.components)
    inflow = traj.times[-1] * (u[0] / (1.0 + v[0]) - u[-1] / (1.0 + v[-1]))
    return (core.mass(last.components[i]) - core.mass(first.components[i])
            - float(inflow))


class LargeSolve:
    """Four solves at n = 32768: scalar (chromatography flux), scalar
    (Burgers), the split chromatography solve and the direct oracle."""

    name = "large-solve"

    def __init__(self, root, seed, n=N_LARGE):
        del root
        rng = np.random.default_rng(seed)
        grid = core.Grid1D(X_MIN, X_MAX, n)
        self.chrom_flux = core.chromatography_flux()
        self.burgers_flux = core.burgers_flux()
        self.v_chrom = core.project(_piecewise(rng, *SCALAR_RANGE), grid)
        self.v_burgers = core.project(_piecewise(rng, *BURGERS_RANGE), grid)
        self.U0 = chroma.ChromState([
            core.project(_piecewise(rng, *COMPONENT_RANGE), grid),
            core.project(_piecewise(rng, *COMPONENT_RANGE), grid)])
        v_floor = 2 * COMPONENT_RANGE[0]
        self.cfg_chrom = _fixed_config(grid, 1.0)
        self.cfg_burgers = _fixed_config(grid, 2.0 * BURGERS_RANGE[1])
        # joint bound of g' = 1/(1+v)^2 and b = 1/(1+v) at the lowest total
        self.cfg_split = _fixed_config(grid, 1.0 / (1.0 + v_floor))
        # the direct solver's own bound 1/(1 + min component)
        self.cfg_direct = _fixed_config(grid, 1.0 / (1.0 + COMPONENT_RANGE[0]))

    def operations(self):
        """(label, solve, check) triples; solve() returns the trajectory."""
        return [
            ("scalar chromatography",
             lambda: scalar.solve_scalar(self.chrom_flux, self.v_chrom,
                                         self.cfg_chrom),
             lambda tr: check_scalar(tr, self.chrom_flux)),
            ("scalar burgers",
             lambda: scalar.solve_scalar(self.burgers_flux, self.v_burgers,
                                         self.cfg_burgers),
             lambda tr: check_scalar(tr, self.burgers_flux)),
            ("split chromatography",
             lambda: chroma.solve_chromatography(self.U0, self.cfg_split),
             lambda tr: check_split(tr, self.chrom_flux)),
            ("direct chromatography",
             lambda: chroma.solve_direct(self.U0, self.cfg_direct),
             check_direct),
        ]

    def run_pass(self, between=lambda: None):
        res = PassResult()
        for label, solve, check in self.operations():
            t0 = time.perf_counter()
            try:
                traj = solve()
            except Exception:
                res.timed(label, time.perf_counter() - t0)
                _report_exception(label)
                res.record(False, f"{label}: raised")
                continue
            res.timed(label, time.perf_counter() - t0)
            problems = check(traj)
            del traj  # the split run holds every step's fluxes
            res.record(not problems, f"{label}: {'; '.join(problems)}")
            between()
        return res


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def fixture_outputs(fixture):
    stem = Path(fixture).stem
    return [f"{stem}.trajectory.csv", f"{stem}.diagnostics.json"]


def output_mismatches(out_root, fixture, digests):
    """Outputs of one fixture run whose sha256 differs from the record."""
    bad = []
    for name in fixture_outputs(fixture):
        path = Path(out_root) / name
        if not path.is_file() or sha256_file(path) != digests.get(name):
            bad.append(name)
    return bad


class CliFixtures:
    """`splitlaw run` in-process on each of the twelve fixtures/*.ini; every
    output must match the sha256 recorded in digests.json."""

    name = "cli-fixtures"

    def __init__(self, root, seed, digests=None):
        del seed
        self.out_root = os.environ.get("SPLITLAW_OUTPUT_ROOT")
        if not self.out_root:
            raise RuntimeError("SPLITLAW_OUTPUT_ROOT must name a scratch directory")
        self.fixtures = sorted(str(p.relative_to(root))
                               for p in Path(root, "fixtures").glob("*.ini"))
        if digests is None:
            digests = json.loads(DIGESTS.read_text())
        self.digests = digests
        expected = sorted(n for f in self.fixtures for n in fixture_outputs(f))
        if not self.fixtures or sorted(digests) != expected:
            raise RuntimeError("fixtures/*.ini and digests.json disagree")

    def run_pass(self, between=lambda: None):
        res = PassResult()
        for fixture in self.fixtures:
            for name in fixture_outputs(fixture):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(os.path.join(self.out_root, name))
            sink = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink):
                    rc = cli.main(["run", fixture])
            except Exception:
                res.timed(fixture, time.perf_counter() - t0)
                _report_exception(fixture)
                res.record(False, f"{fixture}: raised")
                continue
            res.timed(fixture, time.perf_counter() - t0)
            bad = output_mismatches(self.out_root, fixture, self.digests)
            res.record(rc == 0 and not bad,
                       f"{fixture}: exit {rc}, digest mismatch {bad}")
            between()
        return res


WORKLOADS = {w.name: w for w in (GateFull, LargeSolve, CliFixtures)}
