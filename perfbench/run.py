"""splitlaw benchmark: one command, three workloads, end to end and per layer.

    python3 perfbench/run.py [--workload gate-full|large-solve|cli-fixtures|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout that holds src/splitlaw and
fixtures/; the package is imported from that src/, never from an install.
Each workload runs in its own fresh, single-threaded Python process (see
worker.py), one at a time; set-up is timed on separate short-lived
processes. Outputs go to a scratch directory under the checkout that is
removed at the end. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("gate-full", "large-solve", "cli-fixtures")
SETUP_PROBES = 5
RUN_TIMEOUT_S = 170


def _die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def check_checkout():
    missing = [p for p in ("src/splitlaw/__init__.py", "fixtures")
               if not (ROOT / p).exists()]
    if missing:
        _die(f"{ROOT} is not a splitlaw checkout: missing {', '.join(missing)}")


def git_commit():
    """HEAD of the checkout, read from .git directly ("none" outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest():
    """sha256 over src/ and fixtures/, to name the code outside git."""
    h = hashlib.sha256()
    files = sorted(list((ROOT / "src").rglob("*.py"))
                   + list((ROOT / "src").rglob("*.pyx"))
                   + list((ROOT / "fixtures").glob("*.ini")))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def worker_env(scratch):
    env = dict(os.environ)
    env.update({
        # NumPy's OpenBLAS would start one thread per core for lstsq
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else [])),
        "SPLITLAW_OUTPUT_ROOT": str(scratch / "out"),
    })
    return env


def _run_worker(args, env, timeout):
    cmd = [sys.executable, str(WORKER)] + args + [
        "--launched", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        _die(f"worker killed after {timeout:.0f} s: {' '.join(args)}")
    if proc.returncode != 0:
        _die(f"worker exited with {proc.returncode}: {' '.join(args)}")


def run_workload(name, seed, seconds, trace):
    """Set-up probes, then the workload process; returns its raw result."""
    tmp_parent = ROOT / ".perfbench-tmp"
    tmp_parent.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_parent))
    try:
        (scratch / "out").mkdir()
        env = worker_env(scratch)
        out = scratch / "result.json"
        base = ["--workload", name, "--seed", str(seed),
                "--seconds", repr(seconds), "--trace", str(trace),
                "--out", str(out)]
        deadline = time.monotonic() + RUN_TIMEOUT_S
        setups = []
        for _ in range(SETUP_PROBES):
            _run_worker(base + ["--setup-only"], env, 60)
            setups.append(json.loads(out.read_text())["setup_s"])
        _run_worker(base, env, max(1.0, deadline - time.monotonic()))
        result = json.loads(out.read_text())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass
    result["setup_s"] = setups + [result["setup_s"]]
    return result


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _ns_per_cell_step(p):
    return p["solve_scalar_s"] * 1e9 / p["cell_steps"]


def end_to_end(result):
    """End-to-end metrics; the *_ref ones are scaled to the reference speed
    (worker.Prober), each pass by its own ref_seconds / seconds."""
    timed = [p for p in result["passes"] if not p.get("traced")]
    return {
        "wall_ref_s": (statistics.median(p["ref_seconds"] for p in timed), "s"),
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "peak_rss_mb": (result["peak_rss_kib"] * 1024 / 1e6, "MB"),
        "ns_per_cell_step_ref": (statistics.median(
            _ns_per_cell_step(p) * p["ref_seconds"] / p["seconds"]
            for p in timed), "ns"),
    }


def raw_timings(result):
    timed = [p for p in result["passes"] if not p.get("traced")]
    return {
        "wall_s": (statistics.median(p["seconds"] for p in timed), "s"),
        "ns_per_cell_step": (statistics.median(
            _ns_per_cell_step(p) for p in timed), "ns"),
        "probe_s": (statistics.median(result["probes"]), "s"),
    }


def report(name, seed, seconds, trace, result):
    """Print the human-readable block; return (correct, attempted, failed,
    metrics)."""
    m = result["machine"]
    passes = result["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"# workload {name}  seed {seed}  seconds {seconds:g}  trace {trace}")
    print(f"# machine nproc={m['nproc']} cpu={m['cpu']!r} "
          f"python={m['python']} numpy={m['numpy']} backend={m['backend']} "
          f"blas_threads={m['blas_threads']}")
    print(f"# code commit={git_commit()} source_sha256={source_digest()}")
    for p in passes:
        for problem in p["problems"]:
            print(f"# FAILED {problem}")
    timed = [p["seconds"] for p in passes if not p.get("traced")]
    q1, q3 = _quartiles(timed)
    print(f"# wall_s quartiles {q1:.4f} .. {q3:.4f} over {len(timed)} passes; "
          f"process cpu user {result['user_s']:.2f} s, sys {result['sys_s']:.2f} s")
    print(f"ops_failed {failed} count of ops_attempted {attempted}")
    for key, (value, unit) in raw_timings(result).items():
        print(f"{key} {value:.6g} {unit} (unscaled median)")
    metrics = result["layers"] if trace else end_to_end(result)
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    correct = attempted > 0 and failed == 0
    return correct, attempted, failed, {
        k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    check_checkout()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        summary.append((name, report(name, args.seed, args.seconds,
                                     args.trace, result)))
    if len(summary) == 1:
        correct, attempted, failed, metrics = summary[0][1]
    else:
        correct = all(s[0] for _, s in summary)
        attempted = sum(s[1] for _, s in summary)
        failed = sum(s[2] for _, s in summary)
        metrics = {f"{name}.{k}": v for name, s in summary
                   for k, v in s[3].items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
