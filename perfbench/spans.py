"""Per-layer spans and counters for the traced run, installed from outside vplab.

``install`` wraps every public module-level function of the vplab layers,
plus the few methods the metrics need, and rebinds each module attribute
that refers to them (``from .profiles import project`` included), so the
package's own calls go through the wrappers while the timed code runs
unchanged.  A span's self time is its duration less the spans it covers in
the same thread; spans in the worker threads of ``penrose_check`` count in
their own calls and seconds but not in the self-time sums, because their
wall time lies inside the ``penrose_check`` span.
"""

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("profiles", "norms", "penrose", "bgk", "closeness", "linear", "sim", "container")

METHODS = {
    "sim": ("SimState.moments", "SimState.current"),
    "bgk": ("BgkWave.sample_phase_space",),
    "linear": ("FieldHistory.decay_norm",),
}

ALIASES = {
    "sim.sample_profile": "sim.sample",
    "sim.perturb_cosine": "sim.sample",
    "sim.SimState.moments": "sim.diagnostics",
    "sim.SimState.current": "sim.diagnostics",
}

# metrics that also count the traced set-up; every other one covers the round
SETUP_METRICS = ("profiles.make_builtin.s",)

# sampling a wave on the solver's grid is the solver's set-up of its state
SIM_SAMPLING = "bgk.BgkWave.sample_phase_space"

# (name, unit, better): the per-layer metrics the traced run reports
PER_LAYER = [
    ("profiles.project.calls", "count", "lower"),
    ("profiles.project.s", "s", "lower"),
    ("profiles.make_builtin.s", "s", "lower"),
    ("penrose.penrose_check.s", "s", "lower"),
    ("penrose.truncation_bound.s", "s", "lower"),
    ("penrose.pv_integral.calls", "count", "lower"),
    ("penrose.pv_integral.s", "s", "lower"),
    ("penrose.entries", "count", "lower"),
    ("linear.efield_mode.s", "s", "lower"),
    ("linear.efield_mode.n_y", "count", "lower"),
    ("linear.dispersion.calls", "count", "lower"),
    ("linear.dispersion.s", "s", "lower"),
    ("linear.initial_transform.calls", "count", "lower"),
    ("linear.initial_transform.s", "s", "lower"),
    ("linear.find_damping_root.s", "s", "lower"),
    ("linear.continued_dispersion.calls", "count", "lower"),
    ("sim.run.s", "s", "lower"),
    ("sim.steps", "count", "lower"),
    ("sim.cell_updates_per_s", "1/s", "higher"),
    ("sim.poisson_solve.calls", "count", "lower"),
    ("sim.poisson_solve.s", "s", "lower"),
    ("sim.diagnostics.s", "s", "lower"),
    ("sim.sample.s", "s", "lower"),
    ("sim.comoving_compare.s", "s", "lower"),
    ("sim.check_axis_stability.s", "s", "lower"),
    ("sim.state_bytes", "B", "lower"),
    ("bgk.build_wave.s", "s", "lower"),
    ("bgk.match_period.calls", "count", "lower"),
    ("bgk.match_period.s", "s", "lower"),
    ("bgk.make_h.calls", "count", "lower"),
    ("bgk.make_h.s", "s", "lower"),
    ("bgk.periodic_orbit.calls", "count", "lower"),
    ("bgk.periodic_orbit.s", "s", "lower"),
    ("bgk.build_modified.calls", "count", "lower"),
    ("bgk.bisection_steps", "count", "lower"),
    ("closeness.closeness_report.calls", "count", "lower"),
    ("closeness.closeness_report.s", "s", "lower"),
    ("closeness.modified_profile_distance.calls", "count", "lower"),
    ("closeness.modified_profile_distance.s", "s", "lower"),
    ("closeness.wave_profile_distance.s", "s", "lower"),
    ("closeness.wsp_pow_separable.s", "s", "lower"),
    ("closeness.gagliardo_pow.calls", "count", "lower"),
    ("closeness.gagliardo_pow.points", "count", "lower"),
    ("norms.weighted_hsb_norm.calls", "count", "lower"),
    ("norms.weighted_hsb_norm.s", "s", "lower"),
    ("norms.mixed_norm.s", "s", "lower"),
    ("norms.mixed_norm_modes.s", "s", "lower"),
    ("container.save_wave.s", "s", "lower"),
    ("container.bytes_written", "B", "lower"),
] + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS] + [
    ("benchmark.self_s", "s", "lower"),
    ("trace.time_to_solution_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _file_bytes(rec, a, _):
    rec.add("container.bytes_written", os.path.getsize(a["path"]))


def _sim_run(rec, a, _):
    f = a["state"].f
    rec.add("sim.steps", a["n_steps"])
    rec.add("sim.cell_updates", f.size * a["n_steps"])
    rec.maximum("sim.state_bytes", f.nbytes)


# counters read from a wrapped call's bound arguments and its result
EXTRACT = {
    "penrose.penrose_check": lambda rec, a, r: rec.add("penrose.entries", len(r.entries)),
    "linear.efield_mode": lambda rec, a, r: rec.maximum("linear.efield_mode.n_y", r.n_y),
    "sim.run": _sim_run,
    "bgk.match_period": lambda rec, a, r: rec.add(
        "bgk.bisection_steps", len(r[1].provenance["bisection_widths"]) - 1),
    "closeness.gagliardo_pow": lambda rec, a, r: rec.add(
        "closeness.gagliardo_pow.points", np.size(a["vals"])),
    "container.save_wave": _file_bytes,
    "container.write_csv": _file_bytes,
}


class Recorder:
    """Aggregated spans and counters; self times are summed per layer only
    after ``end_setup`` (the timed pipeline of the traced round)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.owner = threading.current_thread()
        self.accounting = False
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.counters = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.setup_seconds = {}

    def end_setup(self):
        """Keep the set-up's seconds apart and start the round afresh."""
        self.setup_seconds = dict(self.seconds)
        self.calls.clear()
        self.seconds.clear()
        self.counters.clear()
        self.accounting = True

    def add(self, name, amount):
        with self._lock:
            self.counters[name] += amount

    def maximum(self, name, value):
        with self._lock:
            self.counters[name] = max(self.counters[name], value)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, qualname):
        name = ALIASES.get(qualname, qualname)
        under_sim = qualname == SIM_SAMPLING
        extract = EXTRACT.get(qualname)
        signature = inspect.signature(fn) if extract else None
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            span = "sim.sample" if under_sim and stack and stack[-1][0].startswith("sim.") \
                else name
            frame = [span, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                with rec._lock:
                    rec.calls[span] += 1
                    rec.seconds[span] += dur
                    if rec.accounting and threading.current_thread() is rec.owner:
                        rec.layer_self[span.split(".")[0]] += dur - frame[1]
            if extract:
                extract(rec, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def metrics(self, traced_s):
        """Every PER_LAYER metric but ``trace.overhead_s`` (which needs the
        plain round) as {name: {"value", "unit"}}."""
        layers = sum(self.layer_self[layer] for layer in LAYERS)
        special = {
            "sim.cell_updates_per_s": (self.counters["sim.cell_updates"] / self.seconds["sim.run"]
                                       if self.seconds["sim.run"] > 0 else 0.0),
            "benchmark.self_s": traced_s - layers,
            "trace.time_to_solution_s": traced_s,
        }
        out = {}
        for name, unit, _ in PER_LAYER:
            if name == "trace.overhead_s":
                continue
            if name in special:
                value = special[name]
            elif name.endswith(".self_s"):
                value = self.layer_self[name.split(".")[0]]
            elif name.endswith(".calls"):
                value = self.calls[name[:-len(".calls")]]
            elif name.endswith(".s"):
                value = self.seconds[name[:-len(".s")]]
                if name in SETUP_METRICS:
                    value += self.setup_seconds.get(name[:-len(".s")], 0.0)
            else:
                value = self.counters[name]
            out[name] = {"value": float(value), "unit": unit}
        return out


def install(rec):
    """Route every vplab call of a public layer function through ``rec``."""
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module("vplab." + layer)
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrapped[obj] = rec.wrap(obj, f"{layer}.{attr}")
        for path in METHODS.get(layer, ()):
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, rec.wrap(getattr(cls, meth), f"{layer}.{path}"))
    for modname, mod in list(sys.modules.items()):
        if modname == "vplab" or modname.startswith("vplab."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
