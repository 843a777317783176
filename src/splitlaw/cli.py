"""Command line front end: run experiment configs, verify the build,
export trajectories.

Configs are flat INI files, one experiment each. Exit codes: 0 success,
2 configuration or validation problem, 3 solver failure, 4 I/O failure.
Outputs are deterministic: the same config writes byte-identical files.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import json
import os
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .chroma import (
    ChromState,
    admissibility_residual,
    check_domain,
    lift_entropy,
    solve_chromatography,
)
from .core import (
    Grid1D,
    bump_test,
    burgers_flux,
    chromatography_flux,
    mass,
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
from .errors import InvalidArgument, SolverError, ValidationError
from .kk import KKState, affine_speed, renormalization_defect, solve_kk
from .scalar import ScalarConfig, max_principle_defect, solve_scalar, tvd_defect

KINDS = ("riemann", "chroma", "kk", "depauw", "verify")
LEVELS = ("fast", "full")

_IC_RIEMANN = re.compile(r"riemann\(\s*([^,]+)\s*,\s*([^)]+)\s*\)$")
_IC_CONSTANT = re.compile(r"constant\(\s*([^)]+)\s*\)$")

_EXPR_NAMES = {
    "pi": np.pi, "e": np.e, "exp": np.exp, "sin": np.sin, "cos": np.cos,
    "tan": np.tan, "tanh": np.tanh, "log": np.log, "log1p": np.log1p,
    "sqrt": np.sqrt, "abs": np.abs, "where": np.where, "sign": np.sign,
    "minimum": np.minimum, "maximum": np.maximum,
}


def parse_initial(spec):
    """One initial-condition entry: riemann(l,r), constant(c), or expr: f(x)."""
    spec = spec.strip()
    m = _IC_RIEMANN.match(spec)
    if m:
        left, right = float(m.group(1)), float(m.group(2))
        return lambda x: np.where(np.asarray(x) < 0.0, left, right)
    m = _IC_CONSTANT.match(spec)
    if m:
        value = float(m.group(1))
        return lambda x: np.full_like(np.asarray(x, dtype=float), value)
    if spec.startswith("expr:"):
        body = spec[len("expr:"):].strip()
        try:
            code = compile(body, "<initial>", "eval")
        except (SyntaxError, ValueError) as exc:
            raise InvalidArgument(
                f"malformed expression {body!r}: {exc}") from None
        for name in code.co_names:
            if name not in _EXPR_NAMES and name != "x":
                raise InvalidArgument(f"unknown name in expression: {name}")

        def ic(x):
            env = dict(_EXPR_NAMES)
            env["x"] = np.asarray(x, dtype=float)
            try:
                return np.asarray(eval(code, {"__builtins__": {}}, env),
                                  dtype=float)
            except (ArithmeticError, LookupError, TypeError,
                    ValueError) as exc:
                raise InvalidArgument(
                    f"expression {body!r} failed: {exc}") from None
        return ic
    raise InvalidArgument(f"unrecognized initial condition: {spec!r}")


def _parse_flux(ident):
    ident = ident.strip()
    if ident == "chromatography":
        return chromatography_flux()
    if ident == "burgers":
        return burgers_flux()
    raise InvalidArgument(f"unknown flux id: {ident!r}")


def _parse_direction_speed(spec):
    """KK direction speed: affine(a, b) means f(rho) = a + b rho."""
    m = re.match(r"affine\(\s*([^,]+)\s*,\s*([^)]+)\s*\)$", spec.strip())
    if not m:
        raise InvalidArgument(f"unrecognized direction speed: {spec!r}")
    return affine_speed(float(m.group(1)), float(m.group(2)))


@dataclass
class ExperimentConfig:
    kind: str
    path: str
    x_min: float = -2.0
    x_max: float = 2.0
    n: int = 256
    flux: str = "chromatography"
    speed: str = "affine(1.0, 1.0)"
    initials: dict = field(default_factory=dict)
    t_end: float = 1.0
    record: list = field(default_factory=list)
    cfl: float = 0.45
    fixed_dt: float | None = None
    variant: str = "original"
    k_max: int = 4
    m: int = 6
    init_k: int | None = None
    basename: str = ""
    level: str = "fast"

    def scalar_config(self):
        return ScalarConfig(t_end=self.t_end, cfl=self.cfl,
                            record_times=list(self.record),
                            fixed_dt=self.fixed_dt)


def load_config(path):
    """The ExperimentConfig of the INI file at path. A file configparser
    rejects raises InvalidArgument with configparser's message on one
    line, which names the config by its base name: the message already
    carries the line number, and the section and key where known."""
    try:
        return _experiment_config(path)
    except configparser.Error as exc:
        raise InvalidArgument(" ".join(exc.message.replace(
            path, os.path.basename(path)).split())) from None


def _floats(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _level(text):
    if text not in LEVELS:
        raise ValueError(f"unknown verify level {text!r}")
    return text


_SOLVES = ("riemann", "chroma", "kk")  # the kinds that solve on a Grid1D

# Every key a config may set: its section, its name (a pattern for the
# [initial] names, which set that name in initials), the ExperimentConfig
# field it sets, its parser, and the kinds whose runs read it.
_TABLE = (
    ("experiment", "kind", "kind", str.strip, KINDS),
    ("grid", "x_min", "x_min", float, _SOLVES),
    ("grid", "x_max", "x_max", float, _SOLVES),
    ("grid", "n", "n", int, _SOLVES),
    ("flux", "id", "flux", str, ("riemann",)),
    ("flux", "speed", "speed", str, ("kk",)),
    ("initial", "v", "initials", str, ("riemann",)),
    ("initial", r"u\d+", "initials", str, ("chroma", "kk")),
    ("time", "t_end", "t_end", float, _SOLVES),
    ("time", "record", "record", _floats, _SOLVES + ("depauw",)),
    ("time", "cfl", "cfl", float, _SOLVES),
    ("time", "fixed_dt", "fixed_dt", float, _SOLVES),
    ("schedule", "variant", "variant", str, ("depauw",)),
    ("schedule", "k_max", "k_max", int, ("depauw",)),
    ("schedule", "m", "m", int, ("depauw",)),
    ("schedule", "init_k", "init_k", int, ("depauw",)),
    ("verify", "level", "level", _level, ("verify",)),
    ("output", "basename", "basename", str, KINDS),
)


def _experiment_config(path):
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise InvalidArgument(f"config not found: {path}")
    name = os.path.basename(path)
    if parser.defaults():
        raise InvalidArgument(f"{name}: [DEFAULT]: unknown section")
    if not parser.has_option("experiment", "kind"):
        raise InvalidArgument(f"{name}: [experiment] kind: missing")
    kind = parser.get("experiment", "kind").strip()
    if kind not in KINDS:
        raise InvalidArgument(
            f"{name}: [experiment] kind: unknown experiment kind {kind!r}")
    cfg = ExperimentConfig(kind=kind, path=path,
                           basename=os.path.splitext(name)[0])
    # a key the table does not list, or that this kind's run does not
    # read, is an error, so no key is silently ignored
    for section in parser.sections():
        rows = [row for row in _TABLE if row[0] == section]
        if not rows:
            raise InvalidArgument(f"{name}: [{section}]: unknown section")
        for key in parser.options(section):
            where = f"{name}: [{section}] {key}"
            row = next((row for row in rows if re.fullmatch(row[1], key)),
                       None)
            if row is None:
                raise InvalidArgument(f"{where}: unknown key")
            _, _, attr, parse, kinds = row
            if kind not in kinds:
                raise InvalidArgument(f"{where}: not read by a {kind} run")
            try:
                value = parse(parser.get(section, key))
            except ValueError as exc:
                raise InvalidArgument(f"{where}: {exc}") from None
            if attr == "initials":
                cfg.initials[key] = value
            else:
                setattr(cfg, attr, value)
    if not cfg.record and kind in _SOLVES:
        cfg.record = [cfg.t_end]
    return cfg


def output_root():
    return os.environ.get("SPLITLAW_OUTPUT_ROOT", os.path.join(".", "out"))


_CSV_BLOCK = 8192  # rows per block in write_csv


def _fmt(x):
    return "%.17g" % float(x)


def write_csv(path, header, rows):
    """One %.17g line per row; rows is a sequence of rows, a 2D array or
    a run's _Rows: only len(rows) and slices of it are read.

    Rows are written in blocks, without holding a copy of every row. In
    each column of a block, each distinct bit pattern (so -0.0 and 0.0
    stay apart) is formatted once, with the comma or newline after it,
    and the column's cells are looked up from those strings.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), _CSV_BLOCK):
            block = np.ascontiguousarray(rows[start:start + _CSV_BLOCK],
                                         dtype=float)
            ncol = block.shape[1]
            cells = [None] * block.size  # row-major
            for c, column in enumerate(block.view(np.int64).T):
                end = "," if c < ncol - 1 else "\n"
                bits, which = np.unique(column, return_inverse=True)
                text = np.array([_fmt(x) + end
                                 for x in bits.view(np.float64).tolist()],
                                dtype=object)
                cells[c::ncol] = text[which].tolist()
            fh.write("".join(cells))


def write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


class _Rows:
    """A trajectory's CSV rows, built a slice at a time: (t, coordinates,
    values) for each record time and cell, cell fastest within a time.

    Cell i sits at np.unravel_index(i, shape) on axes, whose entries give
    its coordinate columns; per_time holds, for each record time, one
    flat array per value column. write_csv and trajectory_payload read
    only len() and slices of step 1, so no table of every row is held.
    """

    def __init__(self, times, axes, per_time):
        self.times = np.asarray(times, dtype=float)
        self.axes = axes
        self.shape = tuple(len(a) for a in axes)
        self.per_time = per_time
        self.cells = len(per_time[0][0])
        self.width = 1 + len(axes) + len(per_time[0])

    def __len__(self):
        return len(self.times) * self.cells

    def __getitem__(self, rows):
        start, stop, _ = rows.indices(len(self))  # the step is 1
        record, cell = np.divmod(np.arange(start, stop), self.cells)
        out = np.empty((stop - start, self.width))
        out[:, 0] = self.times[record]
        for c, (axis, at) in enumerate(
                zip(self.axes, np.unravel_index(cell, self.shape)), 1):
            out[:, c] = axis[at]
        for j in range(start // self.cells, -(-stop // self.cells)):
            lo = max(start, j * self.cells)
            hi = min(stop, (j + 1) * self.cells)
            for c, column in enumerate(self.per_time[j], 1 + len(self.axes)):
                out[lo - start:hi - start, c] = \
                    column[lo - j * self.cells:hi - j * self.cells]
        return out


def _run_riemann(cfg):
    grid = Grid1D(cfg.x_min, cfg.x_max, cfg.n)
    if "v" not in cfg.initials:
        raise InvalidArgument("riemann experiments need initial v")
    v0 = project(parse_initial(cfg.initials["v"]), grid)
    flux = _parse_flux(cfg.flux)
    traj = solve_scalar(flux, v0, cfg.scalar_config())
    rows = _Rows(traj.times, [grid.centers()],
                 [[f.values] for f in traj.fields])
    diag = {
        "mass_defect": abs(mass(traj.fields[-1]) - mass(traj.fields[0])),
        "tv": total_variation(traj.fields[-1]),
        "tvd_defect": tvd_defect(traj),
        "max_principle_defect": max_principle_defect(traj),
    }
    return ["t", "x", "v"], rows, diag, traj


def _chroma_diagnostics(traj, cfg):
    mass_defect = 0.0
    for w in traj.w_trajs:
        mass_defect = max(mass_defect,
                          abs(mass(w.fields[-1]) - mass(w.fields[0])))
    v_last = traj.v_traj.fields[-1]
    pair = lift_entropy(
        lambda v: v * v,
        lambda v: 2.0 * (np.log1p(v) + 1.0 / (1.0 + v) - 1.0), 3.0)
    span = cfg.x_max - cfg.x_min
    tests = [bump_test(0.1 * cfg.t_end, 0.9 * cfg.t_end,
                       cfg.x_min + 0.1 * span, cfg.x_max - 0.1 * span)]
    entropy = admissibility_residual(traj, [pair], tests)
    final = traj.states[-1]
    rep_f = check_domain(final, "F")
    v_min0 = float(np.min(traj.states[0].total().values))
    checks = {"F_ok": rep_f.ok, "F_tv": rep_f.tv,
              "min_component": rep_f.min_component, "v_min": rep_f.v_min}
    if v_min0 > 0.0:
        rep_g = check_domain(final, "G", delta=0.5 * v_min0)
        checks["G_ok"] = rep_g.ok
        checks["G_delta"] = 0.5 * v_min0
    return {
        "mass_defect": mass_defect,
        "tv": total_variation(v_last),
        "entropy_residual": entropy,
        "domain_checks": checks,
    }


def _run_chroma(cfg):
    grid = Grid1D(cfg.x_min, cfg.x_max, cfg.n)
    keys = sorted(cfg.initials)
    if len(keys) < 2:
        raise InvalidArgument("chroma experiments need u1, u2, ...")
    comps = [project(parse_initial(cfg.initials[k]), grid) for k in keys]
    traj = solve_chromatography(ChromState(comps), cfg.scalar_config())
    rows = _Rows(traj.times, [grid.centers()],
                 [[c.values for c in st.components] for st in traj.states])
    return (["t", "x"] + keys, rows, _chroma_diagnostics(traj, cfg), traj)


def _run_kk(cfg):
    grid = Grid1D(cfg.x_min, cfg.x_max, cfg.n)
    keys = sorted(cfg.initials)
    if not keys:
        raise InvalidArgument("kk experiments need u1, u2, ...")
    comps = [project(parse_initial(cfg.initials[k]), grid) for k in keys]
    f, fprime = _parse_direction_speed(cfg.speed)
    traj = solve_kk(KKState(comps), f, fprime, cfg.scalar_config())
    rows = _Rows(traj.times, [grid.centers()],
                 [[c.values for c in st.components] + [rho.values]
                  for st, rho in zip(traj.states, traj.v_traj.fields)])
    excess, gap = renormalization_defect(traj, None)
    rho0, rho1 = traj.v_traj.fields[0], traj.v_traj.fields[-1]
    diag = {"pointwise_excess": excess, "l1_gap": gap,
            "rho_mass_defect": abs(mass(rho1) - mass(rho0))}
    return (["t", "x"] + keys + ["rho"], rows, diag, traj)


def _run_depauw(cfg):
    grid = Grid2D(cfg.m)
    sched = DyadicSchedule(cfg.variant, cfg.k_max, cfg.m)
    init_k = cfg.k_max if cfg.init_k is None else cfg.init_k
    init = chessboard(init_k, grid)
    record = cfg.record or [sched.T]
    traj = evolve(sched, init, record)
    # one (t, x, y, u) row per cell and record time, x major within a time
    c = (np.arange(grid.n) + 0.5) * grid.dx
    rows = _Rows(traj.times, [c, c], [[f.values.reshape(-1)]
                                      for f in traj.fields])
    div = max(sched.stage(k).div_max for k in range(2, cfg.k_max + 1))
    diag = {"mixing_report": mixing_report(traj),
            "field_diagnostics": field_diagnostics(sched, traj.times),
            "divergence_max": div}
    return ["t", "x", "y", "u"], rows, diag, traj


_RUNNERS = {"riemann": _run_riemann, "chroma": _run_chroma,
            "kk": _run_kk, "depauw": _run_depauw}


def run_experiment(cfg):
    """Run cfg; a grid too large to allocate names the key that sized it.

    A grid of more float64 cells than one numpy array can address on this
    platform is refused before any array is made (numpy would refuse it
    with its own text, or overflow the shape); a smaller one that the
    allocator refuses is named the same way.
    """
    most = np.iinfo(np.intp).max // np.dtype(float).itemsize
    if cfg.kind == "depauw":
        # 2^m x 2^m = 2^(2m) cells; a side past 2^64 is written as a power
        side = 2 ** cfg.m if cfg.m <= 64 else f"2^{cfg.m}"
        size = f"[schedule] m = {cfg.m} ({side} x {side} cells)"
        fits = 2 * cfg.m < most.bit_length()
    else:
        size = f"[grid] n = {cfg.n}"
        fits = cfg.n <= most

    def refused(why):
        return InvalidArgument(f"{os.path.basename(cfg.path)}: {size}: the "
                               f"run's arrays cannot be allocated: {why}")

    if not fits:
        raise refused(f"one array holds at most {most} float64 cells")
    try:
        return _RUNNERS[cfg.kind](cfg)
    except MemoryError as exc:
        raise refused(exc) from None


def trajectory_payload(header, rows, cfg):
    """JSON form of a trajectory: schema {times, grid, fields, meta}.

    rows is read like write_csv reads it, one block of rows at a time."""
    by_time = {}
    for start in range(0, len(rows), _CSV_BLOCK):
        block = np.asarray(rows[start:start + _CSV_BLOCK], dtype=float)
        for t, *values in block.tolist():
            by_time.setdefault(t, []).append(values)
    times = sorted(by_time)
    return {
        "times": [float(t) for t in times],
        "grid": {"x_min": cfg.x_min, "x_max": cfg.x_max, "n": cfg.n}
        if cfg.kind != "depauw" else {"m": cfg.m},
        "fields": {_fmt(t): by_time[t] for t in times},
        "meta": {"kind": cfg.kind, "columns": header[1:],
                 "t_end": cfg.t_end},
    }


def _output_base(cfg):
    root = output_root()
    os.makedirs(root, exist_ok=True)
    return os.path.join(root, cfg.basename)


def _cmd_run(args):
    cfg = load_config(args.config)
    if cfg.kind == "verify":
        from .acceptance import run_all
        results = run_all(cfg.level)
        diag = {"criteria": [_criterion_record(r) for r in results],
                "all_passed": all(r.passed for r in results)}
        write_json(_output_base(cfg) + ".diagnostics.json", diag)
        for r in results:
            tag = "PASS" if r.passed else "FAIL"
            print(f"criterion {r.number:02d} [{tag}] {r.name}")
        return 0 if diag["all_passed"] else 1
    header, rows, diag, _ = run_experiment(cfg)
    base = _output_base(cfg)
    write_csv(base + ".trajectory.csv", header, rows)
    write_json(base + ".diagnostics.json", diag)
    print(base + ".trajectory.csv")
    print(base + ".diagnostics.json")
    return 0


def _criterion_record(result):
    return {"number": result.number, "name": result.name,
            "passed": result.passed, "details": result.details}


def _cmd_verify(args):
    from .acceptance import run_all
    results = run_all(args.level)
    if args.json:
        print(json.dumps({"level": args.level, "criteria": [
            dict(_criterion_record(r), seconds=r.seconds) for r in results],
            "all_passed": all(r.passed for r in results)}))
    else:
        for res in results:
            print(res.line())
    return 0 if all(r.passed for r in results) else 1


def _cmd_export(args):
    cfg = load_config(args.config)
    if cfg.kind == "verify":
        raise InvalidArgument("verify configs have no trajectory to export")
    header, rows, _, _ = run_experiment(cfg)
    out = args.out
    if out is None:
        out = _output_base(cfg) + ".trajectory." + args.format
    if args.format == "csv":
        write_csv(out, header, rows)
    else:
        write_json(out, trajectory_payload(header, rows, cfg))
    print(out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="splitlaw",
        description="Conservation-law experiments: run, verify, export.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    p_run.set_defaults(fn=_cmd_run)
    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--level", choices=LEVELS,
                          default="fast")
    p_verify.add_argument("--json", action="store_true",
                          help="print one JSON object: each criterion's "
                          "number, name, passed, details and seconds")
    p_verify.set_defaults(fn=_cmd_verify)
    p_export = sub.add_parser("export", help="export a trajectory")
    p_export.add_argument("config")
    p_export.add_argument("--format", choices=("csv", "json"),
                          default="csv")
    p_export.add_argument("--out", default=None)
    p_export.set_defaults(fn=_cmd_export)
    return parser


@functools.cache
def _parser():
    """build_parser's parser, built once per process on first use."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid-argument: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io-error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
