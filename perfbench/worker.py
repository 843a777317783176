"""One workload in one fresh process; run.py starts it and reads its result.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --out RESULT.json --launched T [--setup-only]

Untraced: passes run back to back, at least one, and no new pass starts
when a pass of median length would end past S seconds. The reference probe
runs between operations, at most every PROBE_GAP_S, and after each pass.
Only `solve_scalar` carries a span, for ns per cell-step.
Traced: one untraced pass, then one pass with spans on every public function
of the nine layers; the per-layer metrics come from the traced pass.
"""
import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()


def _checked_import():
    import splitlaw
    src = (ROOT / "src").resolve()
    if Path(splitlaw.__file__).resolve().parent.parent != src:
        raise SystemExit(f"splitlaw imported from {splitlaw.__file__}, "
                         f"not from {src}")
    return splitlaw


def machine_record(splitlaw):
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": splitlaw.BACKEND,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class _ProbeGrid:
    """Buffers of one grid of the reference probe, allocated once."""

    def __init__(self, n, steps):
        import numpy as np
        self.steps = steps
        x = (np.arange(n) + 0.5) / n
        self.v0 = np.where(x < 0.5, 1.0, 0.25)
        self.mu = 0.45 / float(np.max(2.0 * self.v0))
        self.ve = np.empty(n + 2)
        self.ga, self.gb, self.G, self.lo = (np.empty(n + 1) for _ in range(4))
        self.up = np.empty(n + 1, dtype=bool)
        self.tmp = np.empty(n)

    def run(self):
        import numpy as np
        ve, ga, gb, G, lo, up, tmp = (self.ve, self.ga, self.gb, self.G,
                                      self.lo, self.up, self.tmp)
        v = ve[1:-1]
        np.copyto(v, self.v0)
        for _ in range(self.steps):
            ve[0], ve[-1] = ve[1], ve[-2]
            np.multiply(ve[:-1], ve[:-1], out=ga)
            np.multiply(ve[1:], ve[1:], out=gb)
            np.less_equal(ve[:-1], ve[1:], out=up)
            np.maximum(ga, gb, out=G)
            np.minimum(ga, gb, out=lo)
            np.copyto(G, lo, where=up)
            np.multiply(G[1:], self.mu, out=tmp)
            np.subtract(v, tmp, out=v)
            np.multiply(G[:-1], self.mu, out=tmp)
            np.add(v, tmp, out=v)


# Times are scaled to a machine on which Prober.probe takes this long (about
# its time in the quiet phases of the 2-vCPU Xeon the benchmark was made on).
PROBE_REF_S = 0.035
# Shortest time between two probes; the drift they follow lasts seconds.
PROBE_GAP_S = 0.5


class Prober:
    """Reference probe samples taken between operations, and op times
    scaled by the probe interpolated at each operation's midpoint.

    The probe is a frozen Godunov-style loop for Burgers at n = 512
    (interpreter-bound) and n = 32768 (memory-bound), the two regimes the
    workloads mix. It uses no splitlaw code and allocates nothing after
    construction, so the program's heap cannot change its time. On a shared
    machine the speed the process gets drifts by tens of percent within
    seconds; the probe measures that speed, so operation times can be
    scaled to a fixed reference speed. It never changes, so scaled times
    stay comparable across commits.
    """

    def __init__(self):
        self.grids = [_ProbeGrid(512, 1000), _ProbeGrid(32768, 130)]
        self.times = []
        self.values = []

    def probe(self):
        t0 = time.perf_counter()
        for grid in self.grids:
            grid.run()
        return time.perf_counter() - t0

    def take(self):
        t0 = time.perf_counter()
        value = self.probe()
        self.times.append(t0 + value / 2)
        self.values.append(value)

    def between(self):
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_GAP_S:
            self.take()

    def at(self, t):
        i = bisect.bisect(self.times, t)
        if i == 0:
            return self.values[0]
        if i == len(self.times):
            return self.values[-1]
        t0, t1 = self.times[i - 1], self.times[i]
        v0, v1 = self.values[i - 1], self.values[i]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def scaled(self, op_spans):
        return sum(seconds * PROBE_REF_S / self.at(start + seconds / 2)
                   for start, seconds in op_spans)


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--launched", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    args = p.parse_args(argv)

    splitlaw = _checked_import()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    # CLOCK_MONOTONIC is shared by all processes of the machine
    setup_s = time.monotonic() - args.launched
    if args.setup_only:
        Path(args.out).write_text(json.dumps({"setup_s": setup_s}))
        return 0

    meter = tracing.install_meter()
    prober = Prober()
    passes = []
    t_start = time.perf_counter()
    prober.probe()  # warm-up, not recorded
    try:
        while True:
            meter.reset()
            prober.between()
            res = workload.run_pass(prober.between)
            prober.take()
            st = meter.stat("scalar.solve_scalar")
            passes.append({
                "seconds": res.seconds, "attempted": res.attempted,
                "failed": res.failed, "problems": res.problems,
                "op_seconds": res.op_seconds,
                "ref_seconds": prober.scaled(res.op_spans),
                "solve_scalar_s": st.total,
                "cell_steps": meter.counters.get("scalar.cell_steps", 0),
            })
            # stop before a pass that would likely end past the budget
            typical = statistics.median(x["seconds"] for x in passes)
            if (args.trace or time.perf_counter() - t_start + typical
                    > args.seconds):
                break
    finally:
        meter.uninstall()
    usage = resource.getrusage(resource.RUSAGE_SELF)

    layers = None
    if args.trace:
        tracer = tracing.install_full()
        try:
            traced = workload.run_pass()
        finally:
            tracer.uninstall()
        passes.append({"seconds": traced.seconds, "attempted": traced.attempted,
                       "failed": traced.failed, "problems": traced.problems,
                       "traced": True})
        layers = tracing.layer_metrics(tracer, res.op_seconds,
                                       traced.seconds, res.seconds)

    result = {"machine": machine_record(splitlaw), "setup_s": setup_s,
              "passes": passes, "probes": prober.values,
              "peak_rss_kib": usage.ru_maxrss, "user_s": usage.ru_utime,
              "sys_s": usage.ru_stime, "layers": layers}
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
