"""Command line front end: run experiment configs, verify the build,
export trajectories.

Configs are flat INI files, one experiment each. Exit codes: 0 success,
2 configuration or validation problem, 3 solver failure, 4 I/O failure.
Outputs are deterministic: the same config writes byte-identical files.
"""
from __future__ import annotations

import argparse
import configparser
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
from .kk import KKState, renormalization_defect, solve_kk
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
    a, b = float(m.group(1)), float(m.group(2))
    return (lambda r: a + b * np.asarray(r, dtype=float),
            lambda r: np.full_like(np.asarray(r, dtype=float), b))


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
    epsilon: float | None = None
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
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise InvalidArgument(f"config not found: {path}")
    try:
        kind = parser.get("experiment", "kind").strip()
    except (configparser.NoSectionError, configparser.NoOptionError) as exc:
        raise InvalidArgument(f"missing [experiment] kind: {exc}")
    if kind not in KINDS:
        raise InvalidArgument(f"unknown experiment kind: {kind!r}")
    cfg = ExperimentConfig(kind=kind, path=path)
    stem = os.path.splitext(os.path.basename(path))[0]
    cfg.basename = stem

    if parser.has_section("grid"):
        cfg.x_min = parser.getfloat("grid", "x_min", fallback=cfg.x_min)
        cfg.x_max = parser.getfloat("grid", "x_max", fallback=cfg.x_max)
        cfg.n = parser.getint("grid", "n", fallback=cfg.n)
    if parser.has_section("flux"):
        cfg.flux = parser.get("flux", "id", fallback=cfg.flux)
        cfg.speed = parser.get("flux", "speed", fallback=cfg.speed)
    if parser.has_section("initial"):
        for key, value in parser.items("initial"):
            cfg.initials[key] = value
    if parser.has_section("time"):
        cfg.t_end = parser.getfloat("time", "t_end", fallback=cfg.t_end)
        rec = parser.get("time", "record", fallback="")
        cfg.record = [float(tok) for tok in rec.split(",") if tok.strip()]
        cfg.cfl = parser.getfloat("time", "cfl", fallback=cfg.cfl)
        if parser.has_option("time", "fixed_dt"):
            cfg.fixed_dt = parser.getfloat("time", "fixed_dt")
    if parser.has_section("transport"):
        if parser.has_option("transport", "epsilon"):
            cfg.epsilon = parser.getfloat("transport", "epsilon")
    if parser.has_section("schedule"):
        cfg.variant = parser.get("schedule", "variant", fallback=cfg.variant)
        cfg.k_max = parser.getint("schedule", "k_max", fallback=cfg.k_max)
        cfg.m = parser.getint("schedule", "m", fallback=cfg.m)
        if parser.has_option("schedule", "init_k"):
            cfg.init_k = parser.getint("schedule", "init_k")
    if parser.has_section("verify"):
        cfg.level = parser.get("verify", "level", fallback=cfg.level)
        if cfg.level not in LEVELS:
            raise InvalidArgument(f"unknown verify level: {cfg.level!r}")
    if parser.has_section("output"):
        cfg.basename = parser.get("output", "basename", fallback=stem)
    if not cfg.record and kind in ("riemann", "chroma", "kk"):
        cfg.record = [cfg.t_end]
    return cfg


def output_root():
    return os.environ.get("SPLITLAW_OUTPUT_ROOT", os.path.join(".", "out"))


_CSV_BLOCK = 4096  # rows per block in write_csv


def _fmt(x):
    return "%.17g" % float(x)


def write_csv(path, header, rows):
    """One %.17g line per row; rows is a sequence of rows or a 2D array.

    Rows are written in blocks, without holding a copy of every row. Each
    distinct bit pattern of a block (so -0.0 and 0.0 stay apart) is
    formatted once, and the block's cells are looked up from those strings.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), _CSV_BLOCK):
            block = np.ascontiguousarray(rows[start:start + _CSV_BLOCK],
                                         dtype=float)
            bits, which = np.unique(block.view(np.int64), return_inverse=True)
            which = which.reshape(block.shape)
            text = [_fmt(x) for x in bits.view(np.float64).tolist()]
            cells = np.empty(block.shape, dtype=object)
            cells[:, :-1] = np.array([s + "," for s in text],
                                     dtype=object)[which[:, :-1]]
            cells[:, -1] = np.array([s + "\n" for s in text],
                                    dtype=object)[which[:, -1]]
            fh.write("".join(cells.ravel().tolist()))


def write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _component_rows(times, xs, per_time_columns):
    """One (t, x, c_1, c_2, ...) row per cell and record time, x fastest;
    per_time_columns holds one list of column arrays per time."""
    n, nt = len(xs), len(times)
    cols = np.asarray(per_time_columns, dtype=float)  # (nt, columns, n)
    return np.column_stack([np.repeat(times, n), np.tile(xs, nt),
                            cols.transpose(0, 2, 1).reshape(nt * n, -1)])


def _run_riemann(cfg):
    grid = Grid1D(cfg.x_min, cfg.x_max, cfg.n)
    if "v" not in cfg.initials:
        raise InvalidArgument("riemann experiments need initial v")
    v0 = project(parse_initial(cfg.initials["v"]), grid)
    flux = _parse_flux(cfg.flux)
    traj = solve_scalar(flux, v0, cfg.scalar_config())
    xs = grid.centers()
    rows = _component_rows(traj.times, xs,
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
    keys = sorted(k for k in cfg.initials if re.fullmatch(r"u\d+", k))
    if len(keys) < 2:
        raise InvalidArgument("chroma experiments need u1, u2, ...")
    comps = [project(parse_initial(cfg.initials[k]), grid) for k in keys]
    traj = solve_chromatography(ChromState(comps), cfg.scalar_config())
    xs = grid.centers()
    per_time = []
    for j in range(len(traj.times)):
        st = traj.states[j]
        per_time.append([c.values for c in st.components])
    rows = _component_rows(traj.times, xs, per_time)
    return (["t", "x"] + keys, rows, _chroma_diagnostics(traj, cfg), traj)


def _run_kk(cfg):
    grid = Grid1D(cfg.x_min, cfg.x_max, cfg.n)
    keys = sorted(k for k in cfg.initials if re.fullmatch(r"u\d+", k))
    if not keys:
        raise InvalidArgument("kk experiments need u1, u2, ...")
    comps = [project(parse_initial(cfg.initials[k]), grid) for k in keys]
    f, fprime = _parse_direction_speed(cfg.speed)
    traj = solve_kk(KKState(comps), f, fprime, cfg.scalar_config())
    xs = grid.centers()
    per_time = [[c.values for c in st.components] + [rho.values]
                for st, rho in zip(traj.states, traj.v_traj.fields)]
    rows = _component_rows(traj.times, xs, per_time)
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
    n, nt = grid.n, len(traj.times)
    c = (np.arange(n) + 0.5) * grid.dx
    rows = np.column_stack([
        np.repeat(traj.times, n * n),
        np.tile(np.repeat(c, n), nt),
        np.tile(c, n * nt),
        np.concatenate([f.values.ravel() for f in traj.fields])])
    report = mixing_report(traj)
    diags = field_diagnostics(sched, list(traj.times), grid)
    div = max(sched.stage(k).div_max for k in range(2, cfg.k_max + 1))
    diag = {
        "mixing_report": [
            {"t": r["t"], "l1": r["l1"], "weak_max": r["weak_max"],
             "coarse_l1": list(r["coarse_l1"])} for r in report],
        "field_diagnostics": [
            {"t": r["t"], "k": r["k"], "sup": r["sup"], "bv": r["bv"]}
            for r in diags],
        "divergence_max": div,
    }
    return ["t", "x", "y", "u"], rows, diag, traj


_RUNNERS = {"riemann": _run_riemann, "chroma": _run_chroma,
            "kk": _run_kk, "depauw": _run_depauw}


def run_experiment(cfg):
    return _RUNNERS[cfg.kind](cfg)


def trajectory_payload(header, rows, cfg):
    """JSON form of a trajectory: schema {times, grid, fields, meta}."""
    times = sorted({row[0] for row in rows})
    by_time = {t: [] for t in times}
    for row in rows:
        by_time[row[0]].append([float(v) for v in row[1:]])
    return {
        "times": [float(t) for t in times],
        "grid": {"x_min": cfg.x_min, "x_max": cfg.x_max, "n": cfg.n}
        if cfg.kind != "depauw" else {"m": cfg.m},
        "fields": {_fmt(t): by_time[t] for t in times},
        "meta": {"kind": cfg.kind, "columns": header[1:],
                 "t_end": cfg.t_end},
    }


def read_trajectory_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _output_base(cfg):
    root = output_root()
    os.makedirs(root, exist_ok=True)
    return os.path.join(root, cfg.basename)


def _cmd_run(args):
    cfg = load_config(args.config)
    if cfg.kind == "verify":
        from .acceptance import run_all
        results = run_all(cfg.level)
        diag = {"criteria": [
            {"number": r.number, "name": r.name, "passed": r.passed,
             "details": r.details} for r in results],
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


def _cmd_verify(args):
    from .acceptance import run_all
    results = run_all(args.level)
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
    p_verify.set_defaults(fn=_cmd_verify)
    p_export = sub.add_parser("export", help="export a trajectory")
    p_export.add_argument("config")
    p_export.add_argument("--format", choices=("csv", "json"),
                          default="csv")
    p_export.add_argument("--out", default=None)
    p_export.set_defaults(fn=_cmd_export)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (configparser.Error, ValueError) as exc:
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
