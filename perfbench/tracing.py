"""Spans around the public functions of splitlaw, installed from outside.

A Tracer rebinds every reference to a chosen function (module attributes,
module-level tuples such as `acceptance.ALL_CRITERIA`, and default argument
values such as `semigroup_defect(solver=...)`) to a wrapper that opens a
span, and restores every reference on `uninstall`. Methods are wrapped on
their class. Spans are not stored: each one is folded into per-name
aggregates as it closes, which keeps memory flat over millions of calls.

Self time of a span is its duration minus the durations of the spans it
directly encloses. Work done inside one function body (for example
`flux.g` or the finiteness check in `solve_scalar`) stays in that
function's self time.
"""
import functools
import inspect
import os
import sys
import time

# Layer name -> module. "kernels" is splitlaw._kernels; metric names may not
# start with an underscore.
LAYER_MODULES = {
    "scalar": "splitlaw.scalar",
    "core": "splitlaw.core",
    "kernels": "splitlaw._kernels",
    "transport": "splitlaw.transport",
    "chroma": "splitlaw.chroma",
    "kk": "splitlaw.kk",
    "depauw": "splitlaw.depauw",
    "acceptance": "splitlaw.acceptance",
    "cli": "splitlaw.cli",
}

KERNELS = ("godunov_fluxes", "scalar_step", "upwind_step", "lxf_fluxes")

# (layer, class, method): methods wrapped on the class itself.
METHODS = (
    ("core", "FluxFunction", "L_of_range"),
    ("core", "CellField", "extended"),
    ("chroma", "ChromState", "total"),
)


class Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Span aggregates plus free-form counters filled by observers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.counters = {}
        self.sets = {}
        self._stack = []
        self._undo = []

    def reset(self):
        self.stats.clear()
        self.counters.clear()
        self.sets.clear()

    # -- span arithmetic -------------------------------------------------
    def enter(self, name):
        self._stack.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        st.calls += 1
        st.total += duration
        st.self += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def _exclude(self, seconds):
        # time spent by the tracer's observers is not charged to the caller
        if self._stack:
            self._stack[-1][2] += seconds

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def stat(self, name):
        return self.stats.get(name) or Stat()

    # -- wrapping --------------------------------------------------------
    def wrap(self, name, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if observe is not None:
                t0 = tracer.clock()
                observe(tracer, args, result)
                tracer._exclude(tracer.clock() - t0)
            return result

        return wrapper

    def install(self, targets, observers=None):
        """Wrap each (layer, qualname) in targets; qualname is a function
        name in the layer's module or "Class.method"."""
        observers = observers or {}
        mods = _splitlaw_modules()
        functions = [fn for mod in mods for fn in _functions_of(mod)]
        replace = {}
        for layer, qual in targets:
            module = sys.modules[LAYER_MODULES[layer]]
            span = f"{layer}.{qual.rsplit('.', 1)[-1]}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(module, cls_name)
                fn = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(span, fn, observers.get(span)))
            else:
                fn = getattr(module, qual)
                replace[id(fn)] = (fn, self.wrap(span, fn, observers.get(span)))
        self._rebind(mods, functions, replace)
        return self

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, mods, functions, replace):
        def swap(obj):
            hit = replace.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else obj

        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if callable(value) and swap(value) is not value:
                    self._set(mod, attr, swap(value))
                elif isinstance(value, (tuple, list)) and any(
                        swap(v) is not v for v in value):
                    self._set(mod, attr, type(value)(swap(v) for v in value))
        for fn in functions:
            if fn.__defaults__ and any(
                    swap(v) is not v for v in fn.__defaults__):
                self._set(fn, "__defaults__",
                          tuple(swap(v) for v in fn.__defaults__))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _splitlaw_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "splitlaw"
                                  or name.startswith("splitlaw."))]


def _functions_of(mod):
    for value in vars(mod).values():
        if inspect.isfunction(value) and value.__module__ == mod.__name__:
            yield value
        elif inspect.isclass(value) and value.__module__ == mod.__name__:
            for member in vars(value).values():
                if inspect.isfunction(member):
                    yield member


def all_targets():
    """Every public function defined in each layer module, the four
    kernels, and the wrapped methods."""
    targets = []
    for layer, modname in LAYER_MODULES.items():
        module = sys.modules[modname]
        if layer == "kernels":
            targets += [(layer, k) for k in KERNELS]
            continue
        for name, value in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == modname):
                targets.append((layer, name))
    targets += [(layer, f"{cls}.{meth}") for layer, cls, meth in METHODS]
    return targets


# -- observers: counts read from arguments and results --------------------
def _observe_solve_scalar(tracer, args, traj):
    steps = len(traj.meta["dt_schedule"])
    tracer.count("scalar.steps", steps)
    tracer.count("scalar.cell_steps", steps * traj.grid.n)


def _array_bytes(values):
    total = 0
    for v in values:
        if isinstance(v, tuple):
            total += _array_bytes(v)
        else:
            total += getattr(v, "nbytes", 0)
    return total


def _observe_kernel(name):
    def observe(tracer, args, result):
        tracer.count(f"kernels.{name}_cells", len(args[0]))
        tracer.count(f"kernels.{name}_bytes",
                     _array_bytes(args) + _array_bytes((result,)))
    return observe


def _observe_replay(tracer, args, traj):
    v_traj = args[0]
    tracer.count("transport.replay_steps", len(v_traj.meta["dt_schedule"]))
    tracer.count("transport.recorded_flux_bytes",
                 sum(G.nbytes for G in v_traj.meta["fluxes"]))


def _observe_build_stage(tracer, args, stage):
    tracer.sets.setdefault("depauw.stages", set()).add((stage.k, stage.grid.m))


def _observe_write(tracer, args, result):
    tracer.count("cli.bytes_written", os.path.getsize(args[0]))


OBSERVERS = {
    "scalar.solve_scalar": _observe_solve_scalar,
    "transport.solve_continuity_upwind": _observe_replay,
    "depauw.build_stage": _observe_build_stage,
    "cli.write_csv": _observe_write,
    "cli.write_json": _observe_write,
}
OBSERVERS.update({f"kernels.{k}": _observe_kernel(k) for k in KERNELS})

# The light meter kept on during timed passes: one span per scalar solve.
METER_TARGETS = (("scalar", "solve_scalar"),)


def install_meter():
    return Tracer().install(METER_TARGETS, OBSERVERS)


def install_full():
    return Tracer().install(all_targets(), OBSERVERS)


ENTROPY_FNS = ("lift_entropy", "entropy_compat_defect", "admissibility_residual",
               "project_to_lifted", "flux_jacobian")
REDUCTIONS = ("total_variation", "mass", "lp_distance", "weak_pairing")
DEPAUW_DIAGNOSTICS = ("mixing_report", "field_diagnostics",
                      "continuity_residual_2d", "box_averaged_l1")


def layer_metrics(tracer, op_seconds, traced_wall, untraced_wall):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    st = tracer.stat
    c = tracer.counters.get
    out = {}
    steps = c("scalar.steps", 0)
    out["scalar.steps"] = (steps, "count")
    out["scalar.cell_steps"] = (c("scalar.cell_steps", 0), "count")
    out["scalar.self_s"] = (st("scalar.solve_scalar").self, "s")
    out["scalar.critical_point_calls"] = (st("scalar.critical_point").calls, "count")
    out["scalar.critical_point_s"] = (st("scalar.critical_point").self, "s")

    lor = st("core.L_of_range")
    out["core.L_of_range_calls"] = (lor.calls, "count")
    out["core.L_of_range_s"] = (lor.self, "s")
    out["core.L_of_range_per_step"] = (lor.calls / steps if steps else 0.0,
                                       "calls/step")
    out["core.extended_calls"] = (st("core.extended").calls, "count")
    out["core.extended_s"] = (st("core.extended").self, "s")
    red = [st(f"core.{f}") for f in REDUCTIONS]
    out["core.reduction_calls"] = (sum(s.calls for s in red), "count")
    out["core.reduction_s"] = (sum(s.self for s in red), "s")

    for k in KERNELS:
        s = st(f"kernels.{k}")
        cells = c(f"kernels.{k}_cells", 0)
        out[f"kernels.{k}_calls"] = (s.calls, "count")
        out[f"kernels.{k}_s"] = (s.self, "s")
        out[f"kernels.{k}_ns_per_cell"] = (s.self * 1e9 / cells if cells else 0.0,
                                           "ns/cell")
        out[f"kernels.{k}_bytes"] = (c(f"kernels.{k}_bytes", 0), "B-computed")

    replay = st("transport.solve_continuity_upwind")
    out["transport.replay_calls"] = (replay.calls, "count")
    out["transport.replay_steps"] = (c("transport.replay_steps", 0), "count")
    out["transport.replay_self_s"] = (replay.self, "s")
    out["transport.recorded_flux_mb"] = (
        c("transport.recorded_flux_bytes", 0) / 1e6, "MB")
    out["transport.characteristics_s"] = (
        st("transport.solve_by_characteristics").total, "s")
    out["transport.mollify_calls"] = (st("transport.mollify").calls, "count")

    out["chroma.split_self_s"] = (st("chroma.solve_chromatography").self, "s")
    out["chroma.direct_calls"] = (st("chroma.solve_direct").calls, "count")
    out["chroma.direct_s"] = (st("chroma.solve_direct").self, "s")
    out["chroma.total_calls"] = (st("chroma.total").calls, "count")
    out["chroma.total_s"] = (st("chroma.total").self, "s")
    out["chroma.entropy_s"] = (
        sum(st(f"chroma.{f}").self for f in ENTROPY_FNS), "s")

    out["kk.solve_calls"] = (st("kk.solve_kk").calls, "count")
    out["kk.solve_s"] = (st("kk.solve_kk").total, "s")

    out["depauw.build_stage_calls"] = (st("depauw.build_stage").calls, "count")
    out["depauw.distinct_stages"] = (
        len(tracer.sets.get("depauw.stages", ())), "count")
    out["depauw.build_stage_s"] = (st("depauw.build_stage").total, "s")
    out["depauw.evolve_s"] = (st("depauw.evolve").self, "s")
    out["depauw.diagnostics_s"] = (
        sum(st(f"depauw.{f}").self for f in DEPAUW_DIAGNOSTICS), "s")

    for i in range(1, 13):
        out[f"acceptance.criterion_{i:02d}_s"] = (
            op_seconds.get(f"criterion_{i:02d}", 0.0), "s")

    out["cli.load_config_s"] = (st("cli.load_config").total, "s")
    out["cli.run_experiment_s"] = (st("cli.run_experiment").total, "s")
    out["cli.write_s"] = (st("cli.write_csv").total + st("cli.write_json").total,
                          "s")
    out["cli.bytes_written"] = (c("cli.bytes_written", 0), "B")

    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    out["trace.spans"] = (sum(s.calls for s in tracer.stats.values()), "count")
    return out
