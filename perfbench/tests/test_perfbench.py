"""Tests of the benchmark itself: its correctness checks can fail, its span
arithmetic is right, and its metric names match BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tracing
import workloads
from splitlaw import acceptance, chroma, cli, core, transport

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def out_root(tmp_path, monkeypatch):
    monkeypatch.setenv("SPLITLAW_OUTPUT_ROOT", str(tmp_path))
    return tmp_path


def _flip_one_byte(path):
    data = bytearray(Path(path).read_bytes())
    data[len(data) // 2] ^= 1
    Path(path).write_bytes(bytes(data))


@pytest.mark.parametrize("alteration", ["none", "digest", "byte"])
def test_cli_fixtures_count_one_failed_op_per_altered_output(
        alteration, out_root, monkeypatch):
    digests = json.loads(workloads.DIGESTS.read_text())
    if alteration == "digest":
        digests["criterion_04.diagnostics.json"] = "0" * 64
    if alteration == "byte":
        write_csv = cli.write_csv

        def write_then_corrupt(path, header, rows):
            write_csv(path, header, rows)
            if Path(path).name == "criterion_06.trajectory.csv":
                _flip_one_byte(path)
        monkeypatch.setattr(cli, "write_csv", write_then_corrupt)

    res = workloads.CliFixtures(ROOT, 0, digests=digests).run_pass()
    assert res.attempted == 12
    assert res.failed == (0 if alteration == "none" else 1), res.problems


@pytest.mark.parametrize("seed", [0, 7])
def test_large_solve_checks_pass_on_the_default_and_another_seed(seed):
    res = workloads.LargeSolve(ROOT, seed, n=1024).run_pass()
    assert (res.attempted, res.failed) == (4, 0), res.problems


def test_large_solve_checks_catch_broken_invariants():
    wl = workloads.LargeSolve(ROOT, 0, n=1024)
    ops = {label: (solve, check) for label, solve, check in wl.operations()}

    solve, check = ops["scalar burgers"]
    traj = solve()
    assert check(traj) == []
    last = traj.fields[-1].values
    last[len(last) // 2] = float(traj.fields[0].values.max()) + 1e-9
    assert any("max principle" in p for p in check(traj))

    solve, check = ops["split chromatography"]
    traj = solve()
    assert check(traj) == []
    w = traj.w_trajs[0].fields[-1].values
    v = traj.v_traj.fields[-1].values
    w[3] = np.nextafter(v[3], np.inf)
    assert any("|w| exceeds v" in p for p in check(traj))


def test_self_time_of_a_synthetic_span_tree():
    # a(0..10) encloses b(1..4), which encloses c(2..3), and d(5..9)
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    tr.enter("a")
    tr.enter("b")
    tr.enter("c")
    tr.exit()
    tr.exit()
    tr.enter("d")
    tr.exit()
    tr.exit()
    got = {name: (s.calls, s.total, s.self) for name, s in tr.stats.items()}
    assert got == {"a": (1, 10.0, 3.0), "b": (1, 3.0, 2.0),
                   "c": (1, 1.0, 1.0), "d": (1, 4.0, 4.0)}


def test_joint_speed_bound_nests_the_base_bound_in_its_span():
    flux = transport.joint_speed_flux(core.chromatography_flux(),
                                      lambda v: 1.0 / (1.0 + v))
    original = core.FluxFunction.L_of_range
    # clock reads: outer enter, inner enter, inner exit, outer exit
    ticks = iter([0.0, 2.0, 5.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    with tr.install([("core", "FluxFunction.L_of_range")]):
        assert flux.L_of_range(0.5, 1.0) == pytest.approx(1.0 / 1.5)
    assert core.FluxFunction.L_of_range is original
    st = tr.stats["core.L_of_range"]
    assert (st.calls, st.total, st.self) == (2, 13.0, 10.0)


def test_full_install_rebinds_every_reference_and_restores_them():
    from splitlaw import scalar
    solve_scalar = scalar.solve_scalar
    criteria = acceptance.ALL_CRITERIA
    defaults = chroma.semigroup_defect.__defaults__
    with tracing.install_full():
        for module in (scalar, chroma, acceptance, cli):
            assert module.solve_scalar is not solve_scalar
            assert module.solve_scalar.__wrapped__ is solve_scalar
        assert all(a.__wrapped__ is b
                   for a, b in zip(acceptance.ALL_CRITERIA, criteria))
        assert (chroma.semigroup_defect.__wrapped__.__defaults__[0].__wrapped__
                is chroma.solve_chromatography.__wrapped__)
    for module in (scalar, chroma, acceptance, cli):
        assert module.solve_scalar is solve_scalar
    assert acceptance.ALL_CRITERIA is criteria
    assert chroma.semigroup_defect.__defaults__ is defaults


def test_metric_names_and_units_match_benchmark_json():
    layers = tracing.layer_metrics(tracing.Tracer(), {}, 1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (k, unit) for k, (_, unit) in layers.items()]
    import run
    fake = {"passes": [{"seconds": 1.0, "ref_seconds": 1.0,
                        "solve_scalar_s": 1.0, "cell_steps": 1}],
            "setup_s": [1.0], "peak_rss_kib": 1}
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == [
        (k, unit) for k, (_, unit) in run.end_to_end(fake).items()]


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gate-full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_prober_scales_each_operation_by_the_probe_at_its_midpoint():
    import worker
    prober = worker.Prober()
    prober.times, prober.values = [0.0, 10.0], [0.05, 0.10]
    # midpoint 5.0 -> probe 0.075; an op before the first sample uses it
    ref = worker.PROBE_REF_S
    assert prober.scaled([(4.0, 2.0)]) == pytest.approx(2.0 * ref / 0.075)
    assert prober.scaled([(-3.0, 1.0)]) == pytest.approx(1.0 * ref / 0.05)
    assert prober.scaled([(20.0, 1.0)]) == pytest.approx(1.0 * ref / 0.10)
