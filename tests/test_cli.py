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
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitlaw import acceptance, cli
from splitlaw.cli import (
    _CSV_BLOCK,
    _Rows,
    _fmt,
    load_config,
    main,
    parse_initial,
    trajectory_payload,
    write_csv,
)
from splitlaw.depauw import (
    DyadicSchedule,
    Grid2D,
    box_averaged_l1,
    chessboard,
    evolve,
)
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


# every [schedule] key set, for the config fuzz
DEPAUW_FULL_CFG = """\
[experiment]
kind = depauw

[schedule]
variant = original
k_max = 3
m = 4
init_k = 3

[time]
record = 0.1875, 0.5
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
    # a missing or unknown kind names the file, section and key
    with pytest.raises(InvalidArgument) as err:
        load_config(_write(tmp_path, "nokind.ini", "[grid]\nn = 8\n"))
    assert err.value.message == "nokind.ini: [experiment] kind: missing"
    with pytest.raises(InvalidArgument) as err:
        load_config(_write(tmp_path, "badkind.ini",
                           "[experiment]\nkind = nope\n"))
    assert err.value.message == (
        "badkind.ini: [experiment] kind: unknown experiment kind 'nope'")


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
    payload = json.loads(Path(out).read_text(encoding="utf-8"))
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


@settings(max_examples=60, deadline=None)
@given(block=st.integers(1, 9), nrow=st.integers(0, 40),
       ncol=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       extra=st.lists(st.floats(), max_size=4))
def test_write_csv_is_bitwise_the_plain_format_per_cell(
        tmp_path_factory, block, nrow, ncol, seed, extra):
    """Blocks of 1 to 9 rows, and every column drawn from one small pool,
    so each value sits in the last column and in others, in one block
    and the next: the file is "%.17g" of every cell, comma-separated."""
    pool = _CSV_POOL + extra
    rng = np.random.default_rng(seed)
    table = np.asarray(pool, dtype=float)[
        rng.integers(0, len(pool), size=(nrow, ncol))]
    header = ["c%d" % i for i in range(ncol)]
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    with mock.patch.object(cli, "_CSV_BLOCK", block):
        write_csv(str(path), header, table)
    want = ",".join(header) + "\n" + "".join(
        ",".join("%.17g" % x for x in row) + "\n" for row in table.tolist())
    assert path.read_bytes() == want.encode()


@settings(max_examples=60, deadline=None)
@given(axes=st.sampled_from([(5,), (3, 4)]), ncol=st.integers(1, 3),
       times=st.integers(1, 3), start=st.integers(0, 40),
       length=st.integers(0, 40))
def test_rows_slices_are_the_stacked_table(axes, ncol, times, start, length):
    """Any step-1 slice of _Rows, inside one record or across records and
    past the end, is that slice of the table stacked in full: t, then
    each axis coordinate with the last axis fastest, then the values."""
    rng = np.random.default_rng(len(axes) + 3 * ncol + 9 * times)
    coords = [rng.standard_normal(n) for n in axes]
    cells = math.prod(axes)
    ts = np.cumsum(rng.random(times))
    per_time = [[rng.standard_normal(cells) for _ in range(ncol)]
                for _ in range(times)]
    grids = np.meshgrid(*coords, indexing="ij")
    table = np.column_stack(
        [np.repeat(ts, cells)]
        + [np.tile(g.reshape(-1), times) for g in grids]
        + [np.concatenate([cols[c] for cols in per_time])
           for c in range(ncol)])
    rows = _Rows(ts, coords, per_time)
    assert len(rows) == len(table)
    got = rows[start:start + length]
    assert got.tobytes() == table[start:start + length].tobytes()


DEPAUW_CFG = """\
[experiment]
kind = depauw

[schedule]
k_max = 3
m = 3

[time]
record = 0.25, 0.5
"""


def test_a_depauw_run_coarser_than_the_box_scales_reports_what_it_resolves(
        tmp_path, monkeypatch):
    """At m = 2 the grid resolves boxes down to 2^-2, not the usual 2^-3:
    the run writes both outputs and its coarse L1 norms stop at j = 2."""
    monkeypatch.setenv("SPLITLAW_OUTPUT_ROOT", str(tmp_path / "out"))
    cfg = _write(tmp_path, "tiny.ini", DEPAUW_CFG.replace(
        "k_max = 3\nm = 3", "k_max = 2\nm = 2"))
    assert main(["run", cfg]) == 0
    diag = json.loads((tmp_path / "out" / "tiny.diagnostics.json").read_text())
    grid = Grid2D(2)
    traj = evolve(DyadicSchedule("original", 2, 2), chessboard(2, grid),
                  [0.25, 0.5])
    assert [r["coarse_l1"] for r in diag["mixing_report"]] == [
        [box_averaged_l1(f, j) for j in range(3)] for f in traj.fields]
    lines = (tmp_path / "out" / "tiny.trajectory.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 16


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
    payload = json.loads(out_json.read_text(encoding="utf-8"))
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


@pytest.mark.parametrize("line, says", [
    ("= ", "Source contains parsing errors: 'bad.ini' [line 3]: "),
    ("kind = chroma", "While reading from 'bad.ini' [line 3]: option 'kind' "
                      "in section 'experiment' already exists"),
], ids=["no-key", "duplicate-key"])
def test_a_config_parse_error_is_one_line_without_the_directory(
        tmp_path, capsys, line, says):
    """configparser's own text spans two lines for a line it cannot parse
    and names the config by the path it was given."""
    bad = _write(tmp_path, "bad.ini",
                 f"[experiment]\nkind = riemann\n{line}\n")
    assert main(["run", str(Path(bad).resolve())]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"invalid-argument: {says}")
    assert str(tmp_path) not in err


# `python -m splitlaw.cli` with the address space capped at 4 GiB first, so
# no allocation the run tries can take more, whatever the host's overcommit
# policy
_CAPPED_CLI = ("import resource, runpy; "
               "resource.setrlimit(resource.RLIMIT_AS, (2 ** 32, 2 ** 32)); "
               "runpy.run_module('splitlaw.cli', run_name='__main__')")


def _run_in_subprocess(tmp_path, cfg):
    """`splitlaw run cfg` in a fresh process, so a traceback shows in
    stderr and a hang fails on the timeout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, SPLITLAW_OUTPUT_ROOT=str(tmp_path / "out"),
               PYTHONPATH=os.pathsep.join(
                   [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    return subprocess.run([sys.executable, "-c", _CAPPED_CLI, "run", cfg],
                          capture_output=True, text=True, env=env,
                          timeout=60)


@pytest.mark.parametrize("base, line, says", [
    (RIEMANN_CFG, "n = abc",
     "[grid] n: invalid literal for int() with base 10: 'abc'"),
    (RIEMANN_CFG, "x_min = 1e",
     "[grid] x_min: could not convert string to float: '1e'"),
    (RIEMANN_CFG, "record = 0.125, x",
     "[time] record: could not convert string to float: ' x'"),
    (DEPAUW_CFG, "m = 4.5",
     "[schedule] m: invalid literal for int() with base 10: '4.5'"),
], ids=["getint", "getfloat", "record", "schedule-getint"])
def test_a_malformed_number_names_the_file_section_and_key(
        tmp_path, capsys, base, line, says):
    key = line.split(" = ")[0]
    text = re.sub(rf"^{key} = .*$", line, base, count=1, flags=re.M)
    assert main(["run", _write(tmp_path, "bad.ini", text)]) == 2
    assert capsys.readouterr().err == f"invalid-argument: bad.ini: {says}\n"


@pytest.mark.parametrize("text, says", [
    (RIEMANN_CFG + "fixd_dt = 0.001953125\n", "[time] fixd_dt: unknown key"),
    (RIEMANN_CFG + "\n[transport]\nepsilon = 0.125\n",
     "[transport]: unknown section"),
    ("[DEFAULT]\ncfl = 0.45\n\n" + RIEMANN_CFG, "[DEFAULT]: unknown section"),
], ids=["misspelt-key", "unknown-section", "default-section"])
def test_an_unknown_section_or_key_names_the_file_section_and_key(
        tmp_path, capsys, text, says):
    """A misspelt key must not run with its default: fixd_dt = 1/512
    under [time] would give an adaptive-dt run that exits 0."""
    assert main(["run", _write(tmp_path, "bad.ini", text)]) == 2
    assert capsys.readouterr().err == f"invalid-argument: bad.ini: {says}\n"


@pytest.mark.parametrize("base, line, says", [
    (RIEMANN_CFG, "n = 1099511627776", "[grid] n = 1099511627776: "),
    (DEPAUW_CFG, "m = 40",
     "[schedule] m = 40 (1099511627776 x 1099511627776 cells): "),
], ids=["riemann-n", "depauw-m"])
def test_a_grid_too_large_to_allocate_is_a_config_error(tmp_path, base, line,
                                                       says):
    """2^40 cells: the first array asks for 8 TiB, which is refused at once.
    It used to end in numpy's traceback and exit 1."""
    key = line.split(" = ")[0]
    text = re.sub(rf"^{key} = .*$", line, base, count=1, flags=re.M)
    done = _run_in_subprocess(tmp_path, _write(tmp_path, "huge.ini", text))
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.count("\n") == 1
    assert done.stderr.startswith(f"invalid-argument: huge.ini: {says}")
    assert "cannot be allocated" in done.stderr


@pytest.mark.parametrize("base, line, says", [
    (RIEMANN_CFG, "n = 4611686018427387904",
     "[grid] n = 4611686018427387904: "),
    (DEPAUW_CFG, "m = 64",
     "[schedule] m = 64 (18446744073709551616 x 18446744073709551616 "
     "cells): "),
    (DEPAUW_CFG, "m = 63",
     "[schedule] m = 63 (9223372036854775808 x 9223372036854775808 "
     "cells): "),
], ids=["riemann-n-2^62", "depauw-m-64", "depauw-m-63"])
def test_a_grid_beyond_the_largest_array_is_a_config_error(
        tmp_path, capsys, base, line, says):
    """More float64 cells than one numpy array can address. numpy itself
    refuses these sizes before allocating, with a text that names no key
    (for m = 63 a misleading shape mismatch), so the run refuses them
    before it makes any array."""
    key = line.split(" = ")[0]
    text = re.sub(rf"^{key} = .*$", line, base, count=1, flags=re.M)
    assert main(["run", _write(tmp_path, "huge.ini", text)]) == 2
    most = np.iinfo(np.intp).max // 8
    assert capsys.readouterr().err == (
        f"invalid-argument: huge.ini: {says}the run's arrays cannot be "
        f"allocated: one array holds at most {most} float64 cells\n")


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


@pytest.mark.parametrize("cfg_text, nan_key", [
    (RIEMANN_CFG.replace("riemann(1.0, 0.0)", "riemann(1e200, 0.0)"), None),
    (CHROMA_CFG.replace("riemann(0.75, 0.25)", "constant(1e308)"), None),
    (RIEMANN_CFG.replace("riemann(1.0, 0.0)", "constant(1e308)"),
     "mass_defect"),
    (CHROMA_CFG.replace("riemann(0.75, 0.25)", "constant(1e153)")
     + "record = 0.05, 0.1, 0.125, 0.15, 0.2, 0.25\n", "entropy_residual"),
], ids=["riemann-1e200", "chroma-1e308", "riemann-mass-1e308",
        "chroma-quadrature-1e153"])
def test_huge_initial_data_does_not_crash(tmp_path, cfg_text, nan_key):
    """(1 + v)**2 overflows a Python float above about 1.3e154; g'(v) and
    the speed bound take float64 semantics there (1/inf = 0), so the run
    ends with a documented exit code, not a traceback and exit 1. A sum
    past the float range in a diagnostic (the mass of 64 cells of 1e308,
    a quadrature slab of the chroma entropy) is written as NaN."""
    done = _run_in_subprocess(tmp_path, _write(tmp_path, "huge.ini", cfg_text))
    assert "Traceback" not in done.stderr
    assert done.returncode in ((0, 2, 3) if nan_key is None else (0,))
    if nan_key is not None:
        diag = json.loads((tmp_path / "out" / "huge.diagnostics.json")
                          .read_text())
        assert math.isnan(diag[nan_key])


# eta = v*v overflows on purpose here, then inf * 0 is NaN; numpy warns
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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


# A kk config that runs: the direction-flip data of fixtures/criterion_10.ini
# on 64 cells.
KK_CFG = """\
[experiment]
kind = kk

[grid]
n = 64

[flux]
speed = affine(1.0, 1.0)

[initial]
u1 = riemann(0.75, 0.25)
u2 = riemann(0.25, 0.75)

[time]
t_end = 0.25
record = 0.125, 0.25
"""


def test_the_kk_fuzz_base_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SPLITLAW_OUTPUT_ROOT", str(tmp_path / "out"))
    assert main(["run", _write(tmp_path, "kk.ini", KK_CFG)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("a", ["nan", "inf"])
def test_a_non_finite_direction_speed_exits_2(tmp_path, monkeypatch, capsys,
                                              a):
    monkeypatch.setenv("SPLITLAW_OUTPUT_ROOT", str(tmp_path / "out"))
    cfg = KK_CFG.replace("affine(1.0, 1.0)", f"affine({a}, 1.0)")
    assert main(["run", _write(tmp_path, "kk.ini", cfg)]) == 2
    assert (f"invalid-argument: affine speed ({a}, 1.0) must be finite"
            in capsys.readouterr().err)


# Values a config line may hold by mistake: empty, non-finite, negative,
# zero, subnormal, not a number, an interpolation, an unknown name.
_HOSTILE = ["", "nan", "inf", "-1", "0", "1e-320", "x", "%(x)s", "nope"]

# Keys that some fuzz base lacks, each with its section, and a value it may
# take: 1/512 divides every 1-D base's t_end and record times, and 16 cells
# keep a 1-D run small. A depauw or verify run reads neither [time] fixed_dt
# nor [grid] n, and a chroma or kk run reads no [flux] id, so those exit 2.
# The loader reads no [transport] section, so epsilon exits 2 whatever its
# value.
_ABSENT = {("time", "fixed_dt"): "0.001953125",
           ("grid", "n"): "16",
           ("flux", "id"): "burgers",
           ("transport", "epsilon"): "0.125"}

VERIFY_CFG = """\
[experiment]
kind = verify

[verify]
level = fast

[output]
basename = gate
"""


def _stub_gate(level):
    """acceptance.run_all for the tests of config loading: one passing
    criterion, without running the gate."""
    return [acceptance.CriterionResult(1, "stub", True, "ok")]


@st.composite
def _hostile_configs(draw):
    """RIEMANN_CFG, CHROMA_CFG, KK_CFG, DEPAUW_CFG, DEPAUW_FULL_CFG or
    VERIFY_CFG with one to three mutations: a `key = value` line given a
    hostile value, duplicated or dropped, or a line added for a key the
    base may lack, with a hostile or a working value. n stays at most 64,
    and m at most 6 (its default when dropped)."""
    lines = draw(st.sampled_from([RIEMANN_CFG, CHROMA_CFG, KK_CFG,
                                  DEPAUW_CFG, DEPAUW_FULL_CFG,
                                  VERIFY_CFG])).splitlines()
    keyed = [i for i, line in enumerate(lines) if " = " in line]
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["set"] * 8 + ["dup", "drop", "add"]))
        if how == "add":
            (section, key), fine = draw(st.sampled_from(list(_ABSENT.items())))
            value = draw(st.sampled_from(_HOSTILE + [fine]))
            if f"[{section}]" not in lines:
                lines += ["", f"[{section}]"]
            i = lines.index(f"[{section}]") + 1
            lines.insert(i, f"{key} = {value}")
            keyed = [j + (j >= i) for j in keyed] + [i]
            continue
        i = draw(st.sampled_from(keyed))
        key = lines[i].split(" = ")[0]
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
    uncaught exception, and an error named by its identifier. A verify
    config that stays valid runs a stub of the gate."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "fuzz.ini"
    cfg.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mp.setenv("SPLITLAW_OUTPUT_ROOT", str(root / "out"))
        mp.setattr(acceptance, "run_all", _stub_gate)
        rc = main(["run", str(cfg)])
    assert rc in (0, 2, 3, 4)
    if rc:
        assert re.match(r"[a-z-]+: ", err.getvalue())


def test_each_kind_accepts_only_the_keys_its_run_reads():
    solve = ["[experiment] kind", "[grid] x_min", "[grid] x_max", "[grid] n",
             "[time] t_end", "[time] record", "[time] cfl", "[time] fixed_dt",
             "[output] basename"]
    want = {
        "riemann": solve + ["[flux] id", "[initial] v"],
        "chroma": solve + [r"[initial] u\d+"],
        "kk": solve + ["[flux] speed", r"[initial] u\d+"],
        "depauw": ["[experiment] kind", "[time] record", "[schedule] variant",
                   "[schedule] k_max", "[schedule] m", "[schedule] init_k",
                   "[output] basename"],
        "verify": ["[experiment] kind", "[verify] level", "[output] basename"],
    }
    for kind in cli.KINDS:
        assert sorted(f"[{section}] {key}"
                      for section, key, _, _, kinds in cli._TABLE
                      if kind in kinds) == sorted(want[kind])


def _with_line(base, section, line):
    """base with line added under [section], the section added if absent."""
    if f"[{section}]\n" not in base:
        return f"{base}\n[{section}]\n{line}\n"
    return base.replace(f"[{section}]\n", f"[{section}]\n{line}\n", 1)


@pytest.mark.parametrize("base, section, line, kind", [
    (CHROMA_CFG, "flux", "id = burgers", "chroma"),
    (RIEMANN_CFG, "initial", "u1 = nonsense(", "riemann"),
    (RIEMANN_CFG, "schedule", "variant = nope", "riemann"),
    (DEPAUW_CFG, "grid", "n = 8", "depauw"),
    (DEPAUW_CFG, "time", "t_end = 7.0", "depauw"),
    (DEPAUW_CFG, "time", "fixed_dt = 0.1", "depauw"),
    (DEPAUW_CFG, "time", "cfl = 0.9", "depauw"),
    (CHROMA_CFG, "initial", "v = riemann(1.0, 0.0)", "chroma"),
    (KK_CFG, "flux", "id = chromatography", "kk"),
    (VERIFY_CFG, "grid", "n = 8", "verify"),
], ids=["chroma-flux-id", "riemann-initial-u1", "riemann-schedule-variant",
        "depauw-grid-n", "depauw-time-t_end", "depauw-time-fixed_dt",
        "depauw-time-cfl", "chroma-initial-v", "kk-flux-id",
        "verify-grid-n"])
def test_a_key_the_kind_does_not_read_is_a_config_error(
        tmp_path, monkeypatch, capsys, base, section, line, kind):
    """Each of these keys used to be dropped without a word: the run exited
    0 with its default, whatever the key said."""
    monkeypatch.setattr(acceptance, "run_all", _stub_gate)
    monkeypatch.setenv("SPLITLAW_OUTPUT_ROOT", str(tmp_path / "out"))
    cfg = _write(tmp_path, "x.ini", _with_line(base, section, line))
    assert main(["run", cfg]) == 2
    key = line.split(" = ")[0]
    assert capsys.readouterr().err == (
        f"invalid-argument: x.ini: [{section}] {key}: not read by a {kind} "
        "run\n")
    assert not (tmp_path / "out").exists()


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


def test_verify_json_reports_each_criterion_with_its_seconds(monkeypatch,
                                                            capsys):
    results = [acceptance.CriterionResult(1, "first", True, "ok", 0.25),
               acceptance.CriterionResult(2, "second", False, "broken", 1.5)]
    levels = []

    def run_all(level):
        levels.append(level)
        return results

    monkeypatch.setattr(acceptance, "run_all", run_all)
    assert main(["verify", "--level", "full", "--json"]) == 1
    out = capsys.readouterr().out
    assert out.count("\n") == 1  # one object, on one line
    assert json.loads(out) == {"level": "full", "all_passed": False,
                               "criteria": [
        {"number": 1, "name": "first", "passed": True, "details": "ok",
         "seconds": 0.25},
        {"number": 2, "name": "second", "passed": False,
         "details": "broken", "seconds": 1.5}]}
    results.pop()
    assert main(["verify", "--json"]) == 0 and levels == ["full", "fast"]
    assert json.loads(capsys.readouterr().out)["all_passed"] is True
    # without --json, the lines the gate has always printed
    assert main(["verify"]) == 0
    assert capsys.readouterr().out == "criterion 01 [PASS] first: ok\n"


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


@pytest.mark.parametrize("text, says", [
    ("[verify]\nlevel = nope\n",
     "gate.ini: [verify] level: unknown verify level 'nope'"),
    ("[verify]\nlevel =\n",
     "gate.ini: [verify] level: unknown verify level ''"),
    ("[verify]\nlevel = Full\n",
     "gate.ini: [verify] level: unknown verify level 'Full'"),
    ("[verify]\nlevel = full, fast\n",
     "gate.ini: [verify] level: unknown verify level 'full, fast'"),
    ("[verify]\nlevel = fast\nlevels = full\n",
     "gate.ini: [verify] levels: unknown key"),
    ("[verify]\nlevel = full\n\n[output]\nbasename = gate\nlevel = full\n",
     "gate.ini: [output] level: unknown key"),
    ("[verfy]\nlevel = full\n", "gate.ini: [verfy]: unknown section"),
    ("[verify]\nlevel = full\n\n[gate]\nlevel = full\n",
     "gate.ini: [gate]: unknown section"),
], ids=["unknown-level", "empty-level", "capitalised-level", "two-levels",
        "stray-key", "key-in-another-section", "misspelt-section",
        "stray-section"])
def test_a_verify_config_that_cannot_be_read_exits_2_before_any_criterion(
        tmp_path, monkeypatch, capsys, text, says):
    """A verify config with a bad [verify] level, a key or a section the
    loader does not read is a config error, refused before the gate."""
    def run_all(level):
        raise AssertionError(f"run_all({level!r}) ran for a refused config")

    monkeypatch.setattr(acceptance, "run_all", run_all)
    cfg = _write(tmp_path, "gate.ini", "[experiment]\nkind = verify\n\n"
                 + text)
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err == f"invalid-argument: {says}\n"


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
