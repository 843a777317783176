"""Command line front end: config parsing, outputs, exit codes."""
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitlaw import acceptance
from splitlaw.cli import (
    _CSV_BLOCK,
    _fmt,
    load_config,
    main,
    parse_initial,
    read_trajectory_json,
    trajectory_payload,
    write_csv,
)
from splitlaw.depauw import DyadicSchedule, Grid2D, chessboard, evolve
from splitlaw.errors import InvalidArgument

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

RIEMANN_CFG = """\
[experiment]
kind = riemann

[grid]
x_min = -2
x_max = 2
n = 64

[flux]
id = chromatography

[initial]
v = riemann(1.0, 0.0)

[time]
t_end = 0.25
record = 0.125, 0.25
cfl = 0.45
"""

KK_VACUUM_CFG = """\
[experiment]
kind = kk

[grid]
n = 32

[flux]
speed = affine(1.0, 1.0)

[initial]
u1 = riemann(1.0, 0.0)
u2 = constant(0.0)

[time]
t_end = 0.25
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_initial_riemann_and_constant():
    ic = parse_initial("riemann(1.0, 0.25)")
    x = np.array([-1.0, 1.0])
    assert ic(x).tolist() == [1.0, 0.25]
    const = parse_initial("constant(0.5)")
    assert const(x).tolist() == [0.5, 0.5]


def test_parse_initial_expression_whitelist():
    ic = parse_initial("expr: where(x < 0, 1.0, 0.25) + 0.0 * sin(x)")
    assert ic(np.array([-1.0, 1.0])).tolist() == [1.0, 0.25]
    with pytest.raises(InvalidArgument):
        parse_initial("expr: open('/etc/passwd')")
    with pytest.raises(InvalidArgument):
        parse_initial("expr: __import__")
    with pytest.raises(InvalidArgument):
        parse_initial("gaussian(0, 1)")


def test_load_config_populates_fields(tmp_path):
    cfg = load_config(_write(tmp_path, "exp.ini", RIEMANN_CFG))
    assert cfg.kind == "riemann"
    assert cfg.n == 64
    assert cfg.record == [0.125, 0.25]
    assert cfg.basename == "exp"


def test_load_config_defaults_record_to_t_end(tmp_path):
    text = "[experiment]\nkind = riemann\n\n[initial]\nv = riemann(1, 0)\n"
    cfg = load_config(_write(tmp_path, "defaults.ini", text))
    assert cfg.record == [1.0]
    assert cfg.n == 256


def test_load_config_errors(tmp_path):
    with pytest.raises(InvalidArgument):
        load_config(str(tmp_path / "missing.ini"))
    with pytest.raises(InvalidArgument):
        load_config(_write(tmp_path, "nokind.ini", "[grid]\nn = 8\n"))
    with pytest.raises(InvalidArgument):
        load_config(_write(tmp_path, "badkind.ini",
                           "[experiment]\nkind = nope\n"))


def test_shipped_fixture_configs_all_load():
    paths = sorted(FIXTURES.glob("criterion_*.ini"))
    assert len(paths) == 12
    for path in paths:
        cfg = load_config(str(path))
        assert cfg.kind in ("riemann", "chroma", "kk", "depauw", "verify")


def test_run_writes_deterministic_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SPLITLAW_OUTPUT_ROOT", str(tmp_path / "out"))
    cfg = _write(tmp_path, "exp.ini", RIEMANN_CFG)
    assert main(["run", cfg]) == 0
    csv_path = tmp_path / "out" / "exp.trajectory.csv"
    json_path = tmp_path / "out" / "exp.diagnostics.json"
    printed = capsys.readouterr().out.splitlines()
    assert printed == [str(csv_path), str(json_path)]
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,x,v"
    assert len(lines) == 1 + 3 * 64  # header + three records on 64 cells
    diag = json.loads(json_path.read_text())
    assert diag["tvd_defect"] == 0.0
    assert diag["max_principle_defect"] == 0.0
    first = csv_path.read_bytes(), json_path.read_bytes()
    assert main(["run", cfg]) == 0
    assert (csv_path.read_bytes(), json_path.read_bytes()) == first


def test_run_chroma_reports_diagnostics(tmp_path, monkeypatch):
    monkeypatch.setenv("SPLITLAW_OUTPUT_ROOT", str(tmp_path / "out"))
    text = """\
[experiment]
kind = chroma

[grid]
n = 64

[initial]
u1 = riemann(0.25, 0.5)
u2 = riemann(0.25, 0.75)

[time]
t_end = 0.5
record = 0.25, 0.5
"""
    cfg = _write(tmp_path, "mix.ini", text)
    assert main(["run", cfg]) == 0
    lines = (tmp_path / "out" / "mix.trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x,u1,u2"
    diag = json.loads((tmp_path / "out" / "mix.diagnostics.json").read_text())
    assert diag["domain_checks"]["F_ok"] is True
    assert diag["domain_checks"]["G_ok"] is True
    assert diag["entropy_residual"] < 0.05


def test_export_json_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("SPLITLAW_OUTPUT_ROOT", str(tmp_path / "out"))
    cfg = _write(tmp_path, "exp.ini", RIEMANN_CFG)
    out = str(tmp_path / "exp.json")
    assert main(["export", cfg, "--format", "json", "--out", out]) == 0
    payload = read_trajectory_json(out)
    assert payload["times"] == [0.0, 0.125, 0.25]
    assert payload["meta"]["columns"] == ["x", "v"]
    assert payload["grid"]["n"] == 64
    rows = payload["fields"]["0.25"]
    assert len(rows) == 64
    assert rows[0][1] == 1.0  # left state still upstream of the shock


def test_write_csv_matches_the_per_value_format(tmp_path):
    header = ["t", "x", "u"]
    rows = [[0.0, -0.0, 5e-324], [1e300, 3, np.float64(0.1)],
            [np.float64(-2.5), 2 ** 60, float("inf")]]
    array = np.array([[0.25, -0.0, 1.0 / 3.0], [-1e-300, 5e-324, 1e300]])
    for data in (rows, array):
        path = tmp_path / "out.csv"
        write_csv(str(path), header, data)
        want = "t,x,u\n" + "".join(
            ",".join(_fmt(x) for x in row) + "\n" for row in data)
        assert path.read_bytes() == want.encode()


# Values whose formatting is easy to get wrong once each distinct value is
# formatted once: signed zeros, two NaN payloads, infinities, subnormals,
# integers beyond 2**53 and neighbours one ulp apart.
_CSV_POOL = [0.0, -0.0, float("nan"),
             np.frombuffer(np.uint64(0x7FF8000000000001).tobytes())[0],
             float("inf"), -float("inf"), 5e-324, -5e-324, 2.2e-308,
             float(2 ** 60), float(2 ** 60 + 2 ** 8), 0.1,
             np.nextafter(0.1, 1.0), 1.0 / 3.0, -1e300]


@st.composite
def _csv_tables(draw):
    """Tables of 0 to 2 * _CSV_BLOCK + 1 rows and 1 to 4 columns, drawn
    from _CSV_POOL and from arbitrary floats, as a list or a 2D array."""
    ncol = draw(st.integers(1, 4))
    nrow = draw(st.sampled_from([0, 1, 7, _CSV_BLOCK, _CSV_BLOCK + 1,
                                 2 * _CSV_BLOCK + 1]))
    pool = _CSV_POOL + draw(st.lists(st.floats(allow_nan=True), max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    table = np.asarray(pool, dtype=float)[
        rng.integers(0, len(pool), size=(nrow, ncol))]
    if nrow:
        # -0.0 and 0.0 always share the first block
        table[0, 0], table[-1 if nrow < _CSV_BLOCK else 1, -1] = 0.0, -0.0
    return table.tolist() if draw(st.booleans()) else table


@settings(max_examples=30, deadline=None)
@given(_csv_tables())
def test_write_csv_is_bitwise_the_per_row_format(tmp_path_factory, table):
    """Formatting each distinct bit pattern once writes byte for byte what
    formatting every cell with _fmt writes, across block boundaries."""
    header = ["c%d" % i for i in range(len(table[0]) if len(table) else 2)]
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    write_csv(str(path), header, table)
    want = ",".join(header) + "\n" + "".join(
        ",".join(_fmt(x) for x in row) + "\n" for row in table)
    assert path.read_bytes() == want.encode()


DEPAUW_CFG = """\
[experiment]
kind = depauw

[schedule]
k_max = 3
m = 3

[time]
record = 0.25, 0.5
"""


def test_export_depauw_in_both_formats(tmp_path, monkeypatch):
    monkeypatch.setenv("SPLITLAW_OUTPUT_ROOT", str(tmp_path / "out"))
    cfg = _write(tmp_path, "mix.ini", DEPAUW_CFG)
    # the rows as the per-cell loop wrote them: t, x, y, u with x major
    grid = Grid2D(3)
    traj = evolve(DyadicSchedule("original", 3, 3), chessboard(3, grid),
                  [0.25, 0.5])
    c = (np.arange(grid.n) + 0.5) * grid.dx
    rows = [[t, c[i], c[j], f.values[i, j]]
            for t, f in zip(traj.times, traj.fields)
            for i in range(grid.n) for j in range(grid.n)]

    out_csv = tmp_path / "mix.csv"
    assert main(["export", cfg, "--format", "csv", "--out", str(out_csv)]) == 0
    want = "t,x,y,u\n" + "".join(
        ",".join(_fmt(x) for x in row) + "\n" for row in rows)
    assert out_csv.read_bytes() == want.encode()

    out_json = tmp_path / "mix.json"
    assert main(["export", cfg, "--format", "json", "--out",
                 str(out_json)]) == 0
    payload = read_trajectory_json(str(out_json))
    assert payload["times"] == [0.25, 0.5]
    assert payload["grid"] == {"m": 3}
    assert payload["meta"]["columns"] == ["x", "y", "u"]
    assert payload["fields"]["0.25"] == [
        [float(v) for v in row[1:]] for row in rows[:64]]
    assert payload["fields"]["0.5"] == [
        [float(v) for v in row[1:]] for row in rows[64:]]


def test_trajectory_payload_groups_rows_by_time(tmp_path):
    cfg = load_config(_write(tmp_path, "exp.ini", RIEMANN_CFG))
    header = ["t", "x", "v"]
    rows = [[0.0, -1.0, 1.0], [0.0, 1.0, 0.0], [0.25, -1.0, 1.0],
            [0.25, 1.0, 0.5]]
    payload = trajectory_payload(header, rows, cfg)
    assert payload["times"] == [0.0, 0.25]
    assert payload["fields"]["0"] == [[-1.0, 1.0], [1.0, 0.0]]


def test_run_fixture_config(tmp_path, monkeypatch):
    monkeypatch.setenv("SPLITLAW_OUTPUT_ROOT", str(tmp_path / "out"))
    assert main(["run", str(FIXTURES / "criterion_01.ini")]) == 0
    produced = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert produced == ["criterion_01.diagnostics.json",
                        "criterion_01.trajectory.csv"]


def test_exit_code_for_config_problems(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.ini")]) == 2
    bad = _write(tmp_path, "bad.ini", "[experiment]\nkind = nope\n")
    assert main(["run", bad]) == 2
    noinit = _write(tmp_path, "noinit.ini",
                    "[experiment]\nkind = riemann\n")
    assert main(["run", noinit]) == 2
    capsys.readouterr()


def _run_in_subprocess(tmp_path, cfg):
    """`python -m splitlaw.cli run cfg` in a fresh process, so a traceback
    shows in stderr and a hang fails on the timeout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, SPLITLAW_OUTPUT_ROOT=str(tmp_path / "out"),
               PYTHONPATH=os.pathsep.join(
                   [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    return subprocess.run([sys.executable, "-m", "splitlaw.cli", "run", cfg],
                          capture_output=True, text=True, env=env,
                          timeout=60)


@pytest.mark.parametrize("expr", ["x[", "exp()"])
def test_malformed_expression_is_a_config_error(tmp_path, expr):
    """A syntax error, and a call that fails when evaluated: both exit 2
    with a one-line message naming the expression, not a traceback."""
    cfg = _write(tmp_path, "bad.ini", RIEMANN_CFG.replace(
        "riemann(1.0, 0.0)", f"expr: {expr}"))
    done = _run_in_subprocess(tmp_path, cfg)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("invalid-argument:")
    assert repr(expr) in done.stderr


CHROMA_CFG = """\
[experiment]
kind = chroma

[grid]
n = 64

[initial]
u1 = riemann(0.75, 0.25)
u2 = riemann(0.5, 0.5)

[time]
t_end = 0.25
"""


@pytest.mark.parametrize("cfg_text", [
    RIEMANN_CFG.replace("riemann(1.0, 0.0)", "riemann(1e200, 0.0)"),
    CHROMA_CFG.replace("riemann(0.75, 0.25)", "constant(1e308)"),
], ids=["riemann-1e200", "chroma-1e308"])
def test_huge_initial_data_does_not_crash(tmp_path, cfg_text):
    """(1 + v)**2 overflows a Python float above about 1.3e154; g'(v) and
    the speed bound take float64 semantics there (1/inf = 0), so the run
    ends with a documented exit code, not a traceback and exit 1."""
    done = _run_in_subprocess(tmp_path, _write(tmp_path, "huge.ini", cfg_text))
    assert "Traceback" not in done.stderr
    assert done.returncode in (0, 2, 3)


def test_an_overflowing_residual_is_reported_as_nan(tmp_path, monkeypatch,
                                                    capsys):
    """u1 = 1e308 makes the entropy quadrature total NaN: the run still
    ends normally, but its diagnostics must say NaN, not a perfect 0.0."""
    monkeypatch.setenv("SPLITLAW_OUTPUT_ROOT", str(tmp_path / "out"))
    cfg = _write(tmp_path, "huge.ini", CHROMA_CFG.replace(
        "riemann(0.75, 0.25)", "constant(1e308)"))
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    text = (tmp_path / "out" / "huge.diagnostics.json").read_text()
    assert '"entropy_residual": NaN' in text
    assert math.isnan(json.loads(text)["entropy_residual"])


# Values a config line may hold by mistake: empty, non-finite, negative,
# zero, subnormal, not a number, an interpolation, an unknown name.
_HOSTILE = ["", "nan", "inf", "-1", "0", "1e-320", "x", "%(x)s", "nope"]


@st.composite
def _hostile_configs(draw):
    """RIEMANN_CFG or CHROMA_CFG with one to three `key = value` lines
    given a hostile value, duplicated or dropped. n stays at most 64."""
    lines = draw(st.sampled_from([RIEMANN_CFG, CHROMA_CFG])).splitlines()
    keyed = [i for i, line in enumerate(lines) if " = " in line]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from(keyed))
        key = lines[i].split(" = ")[0]
        how = draw(st.sampled_from(["set"] * 8 + ["dup", "drop"]))
        if how == "set":
            lines[i] = f"{key} = {draw(st.sampled_from(_HOSTILE))}"
        elif how == "dup":
            lines.insert(i, lines[i])
            keyed = [j + (j >= i) for j in keyed]
        else:
            lines[i] = ""
            keyed.remove(i)
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(text=_hostile_configs())
def test_hostile_configs_exit_with_a_documented_code(tmp_path_factory, text):
    """main() returns an exit code in 0-4 for every mutated config: no
    uncaught exception, and an error named by its identifier."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "fuzz.ini"
    cfg.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mp.setenv("SPLITLAW_OUTPUT_ROOT", str(root / "out"))
        rc = main(["run", str(cfg)])
    assert rc in (0, 2, 3, 4)
    if rc:
        assert re.match(r"[a-z-]+: ", err.getvalue())


def test_a_time_step_that_cannot_advance_is_a_config_error(tmp_path,
                                                           capsys):
    """A subnormal cfl made the time loop run for ever, and t_end / fixed_dt
    overflowing to inf crashed round() with a traceback; all exit 2."""
    for lines, reason in (
            ("cfl = 1e-320", "cfl must lie in (0, 1)"),
            ("cfl = 0.45\nfixed_dt = 1e-320", "fixed_dt must be finite"),
            ("cfl = 0.45\nfixed_dt = 1e-300",
             "t_end / fixed_dt = 10000000000.0 / 1e-300 overflows")):
        cfg = _write(tmp_path, "stuck.ini", RIEMANN_CFG.replace(
            "cfl = 0.45", lines).replace("record = 0.125, 0.25\n", "").replace(
            "t_end = 0.25", "t_end = 1e10"))
        assert main(["run", cfg]) == 2
        assert capsys.readouterr().err.startswith(
            f"invalid-argument: {reason}")


def test_subnormal_cell_width_is_rejected_at_once(tmp_path):
    """A subnormal dx made dt subnormal too, and the run never finished."""
    cfg = _write(tmp_path, "tiny.ini", RIEMANN_CFG.replace(
        "x_min = -2\nx_max = 2", "x_min = 0.0\nx_max = 1e-320").replace(
        "n = 64", "n = 32"))
    done = _run_in_subprocess(tmp_path, cfg)
    assert done.returncode == 2
    assert done.stderr.startswith("invalid-argument:")


def test_exit_code_for_solver_failures(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SPLITLAW_OUTPUT_ROOT", str(tmp_path / "out"))
    cfg = _write(tmp_path, "vacuum.ini", KK_VACUUM_CFG)
    assert main(["run", cfg]) == 3
    assert "hypothesis-violation" in capsys.readouterr().err


def test_exit_code_for_io_failures(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    monkeypatch.setenv("SPLITLAW_OUTPUT_ROOT", str(blocker / "out"))
    cfg = _write(tmp_path, "exp.ini", RIEMANN_CFG)
    assert main(["run", cfg]) == 4
    assert "io-error" in capsys.readouterr().err


def test_verify_subcommand_prints_one_line_per_criterion(capsys):
    rc = main(["verify", "--level", "fast"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert len(out) == 12
    for number, line in enumerate(out, start=1):
        assert line.startswith(f"criterion {number:02d} [PASS]")


@pytest.mark.parametrize("level", ["nope", "ful", "FAST"])
def test_a_mistyped_verify_level_is_a_config_error(tmp_path, monkeypatch,
                                                   capsys, level):
    levels = []
    monkeypatch.setattr(acceptance, "run_all", levels.append)
    cfg = _write(tmp_path, "gate.ini", "[experiment]\nkind = verify\n\n"
                 f"[verify]\nlevel = {level}\n")
    assert main(["run", cfg]) == 2
    assert levels == []
    err = capsys.readouterr().err
    assert err.startswith("invalid-argument:") and repr(level) in err


def test_run_verify_config_writes_diagnostics_and_exits_one_on_a_failure(
        tmp_path, monkeypatch, capsys):
    results = [acceptance.CriterionResult(1, "first", True, "ok"),
               acceptance.CriterionResult(2, "second", False, "broken")]
    levels = []

    def run_all(level):
        levels.append(level)
        return results

    monkeypatch.setattr(acceptance, "run_all", run_all)
    monkeypatch.setenv("SPLITLAW_OUTPUT_ROOT", str(tmp_path / "out"))
    cfg = _write(tmp_path, "gate.ini", "[experiment]\nkind = verify\n\n"
                 "[output]\nbasename = gate\n")
    assert main(["run", cfg]) == 1
    assert levels == ["fast"]
    assert capsys.readouterr().out.splitlines() == [
        "criterion 01 [PASS] first", "criterion 02 [FAIL] second"]
    diag = json.loads((tmp_path / "out" / "gate.diagnostics.json").read_text())
    assert diag["all_passed"] is False
    assert [c["passed"] for c in diag["criteria"]] == [True, False]
