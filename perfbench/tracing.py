"""Pass-through tracing of calls into flexlink's public functions.

``install()`` replaces every binding of each traced function (in its own
module, in every flexlink module that imported it, and in the package
namespace) with a wrapper that records a span: name, start, end and the
index of the enclosing span.  Spans stay in memory until ``report()``.  The
wrappers call the original function with the original arguments and return
its result untouched, so a traced run computes exactly what an untraced one
does.

Besides spans, a few counts are taken at the same boundaries: fixed-point
iterations and scaling rounds from the returned results, the computed size
of the dense coupling products, the bytes each write leaves on disk, and the
share of ``optimize`` calls that solve a problem not solved before in the run.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import sys
import time
from collections import defaultdict

# (module, attribute, span name); the module is the one defining the function
FUNCTIONS = (
    ("optimizer", "optimize", "optimizer.optimize"),
    ("optimizer", "step1_update_bandwidth", "optimizer.s1"),
    ("optimizer", "step2_power_scaling", "optimizer.s2"),
    ("optimizer", "step3_update_power", "optimizer.s3"),
    ("fixedpoint", "normalized_fixed_point", "fixedpoint.normalized_fixed_point"),
    ("interference", "interference_psd", "interference.interference_psd"),
    ("interference", "f_load", "interference.f_load"),
    ("interference", "f_power", "interference.f_power"),
    ("interference", "f_power_cell", "interference.f_power_cell"),
    ("interference", "g1", "interference.g1"),
    ("interference", "g2", "interference.g2"),
    ("interference", "g2_bar", "interference.g2_bar"),
    ("model", "build_coupling", "model.build_coupling"),
    ("model", "apply_overlap", "model.apply_overlap"),
    ("association", "associate", "association.associate"),
    ("pf_baseline", "pf_allocate", "pf_baseline.pf_allocate"),
    ("scenario", "generate", "scenario.generate"),
    ("experiments", "run_trial", "experiments.run_trial"),
    ("experiments", "run_theta_sweep", "experiments.run_theta_sweep"),
    ("io", "write_json", "io.write"),
    ("io", "write_csv", "io.write"),
    ("cli", "main", "cli.main"),
)
PROBLEM_BUILD = "interference.problem_build"      # Problem.from_scenario
SELECTION_MATRIX = "model.selection_matrix"       # dense Association properties
SELECTION_PROPERTIES = ("a_ul", "a_dl", "a", "a_ext", "lambda_map")

MODULES = ("optimizer", "fixedpoint", "interference", "model", "association",
           "pf_baseline", "scenario", "experiments", "io", "cli")

# extra counts: metric name -> unit
COUNTS = {
    "optimizer.s1.iters": "count",
    "optimizer.s2.rounds": "count",
    "optimizer.s3.iters": "count",
    "fixedpoint.normalized_fixed_point.iters": "count",
    "fixedpoint.normalized_fixed_point.not_converged": "count",
    "interference.interference_psd.bytes": "B",
    "model.coupling_bytes": "B",
    "io.write.bytes": "B",
}


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    spans = [name for _, _, name in FUNCTIONS] + [PROBLEM_BUILD]
    for name in dict.fromkeys(spans):
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
    units[f"{SELECTION_MATRIX}.builds"] = "count"
    units[f"{SELECTION_MATRIX}.busy_s"] = "s"
    units.update(COUNTS)
    units["optimizer.distinct_share"] = "ratio"
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
    return units


class Tracer:
    def __init__(self):
        self.spans = []   # (name, start, end, parent index or -1)
        self._stack = []
        self._paused = 0
        self.counts = defaultdict(int)
        self.optimize_calls = 0
        self._problems = set()
        self._associate = None  # the unwrapped function, to key solves

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if after is not None:
                after(out, args, kwargs)
            return out
        return traced

    # -- counts taken from arguments and results -------------------------

    def _s1(self, out, args, kwargs):
        self.counts["optimizer.s1.iters"] += out.fixed_point.iterations

    def _s2(self, out, args, kwargs):
        self.counts["optimizer.s2.rounds"] += out.rounds

    def _s3(self, out, args, kwargs):
        self.counts["optimizer.s3.iters"] += out.fixed_point.iterations

    def _fixed_point(self, out, args, kwargs):
        self.counts["fixedpoint.normalized_fixed_point.iters"] += out.iterations
        self.counts["fixedpoint.normalized_fixed_point.not_converged"] += int(not out.converged)

    def _interference_psd(self, out, args, kwargs):
        model = args[2] if len(args) > 2 else kwargs["model"]
        # computed, not measured: the dense (2K)^2 float64 coupling read per call
        self.counts["interference.interference_psd.bytes"] += model.n_links ** 2 * 8

    def _build_coupling(self, out, args, kwargs):
        scenario = args[0] if args else kwargs["scenario"]
        # computed: v and v_tilde, two dense (2K)^2 float64 matrices
        self.counts["model.coupling_bytes"] += 64 * scenario.n_ue ** 2

    def _write(self, path_index):
        def after(out, args, kwargs):
            path = args[path_index] if len(args) > path_index else kwargs["path"]
            self.counts["io.write.bytes"] += os.path.getsize(path)
        return after

    def _optimize(self, out, args, kwargs):
        """Key each solve by (scenario content, b_ul, b_dl, overlap, options)."""
        names = ("scenario", "policy", "opts", "overlap", "assoc")
        bound = dict(zip(names, args)) | kwargs
        scenario = bound["scenario"]
        assoc = bound.get("assoc")
        if assoc is None:
            assoc = self._associate(bound["policy"], scenario)
        overlap = bound.get("overlap")
        digest = hashlib.sha1()
        for arr in (scenario.h0, scenario.h1, scenario.h2, scenario.demands,
                    scenario.ue_max_powers(), scenario.bs_max_powers(),
                    assoc.b_ul, assoc.b_dl):
            digest.update(arr.tobytes())
        digest.update(repr((scenario.noise_psd, scenario.rb_count, scenario.rb_bandwidth,
                            bound.get("opts"))).encode())
        if overlap is not None:
            digest.update(overlap.scheme.encode())
            digest.update(overlap.load_ul.tobytes())
            digest.update(overlap.load_dl.tobytes())
        self.optimize_calls += 1
        self._problems.add(digest.digest())

    # -- report -----------------------------------------------------------

    def report(self) -> dict:
        units = metric_units()
        values = {name: 0 for name in units}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for name in units:
            if name.endswith("_s"):
                values[name] = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            count_key = f"{name}.builds" if name == SELECTION_MATRIX else f"{name}.calls"
            values[count_key] += 1
            if not self._has_ancestor(index, name):  # nested same-name time counted once
                values[f"{name}.busy_s"] += duration
            values[f"{name.split('.')[0]}.self_s"] += duration - child_time[index]
        values.update(self.counts)
        values["optimizer.distinct_share"] = (
            len(self._problems) / self.optimize_calls if self.optimize_calls else 0.0)
        return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    def _has_ancestor(self, index, name):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def _rebind(original, replacement):
    """Point every flexlink module attribute bound to ``original`` at
    ``replacement``; returns how many bindings changed."""
    changed = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "flexlink" or mod_name.startswith("flexlink.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
    return changed


def install() -> Tracer:
    """Wrap every traced function at every binding; returns the tracer."""
    import importlib

    for module in MODULES:
        importlib.import_module(f"flexlink.{module}")
    from flexlink.interference import Problem
    from flexlink.model import Association

    tracer = Tracer()
    after = {
        "optimizer.optimize": tracer._optimize,
        "optimizer.s1": tracer._s1,
        "optimizer.s2": tracer._s2,
        "optimizer.s3": tracer._s3,
        "fixedpoint.normalized_fixed_point": tracer._fixed_point,
        "interference.interference_psd": tracer._interference_psd,
        "model.build_coupling": tracer._build_coupling,
    }
    for module, attr, name in FUNCTIONS:
        original = getattr(sys.modules[f"flexlink.{module}"], attr)
        if attr == "associate":
            tracer._associate = original
        hook = after.get(name)
        if attr == "write_json":
            hook = tracer._write(1)
        elif attr == "write_csv":
            hook = tracer._write(0)
        if _rebind(original, tracer.wrap(name, original, hook)) == 0:
            raise RuntimeError(f"flexlink.{module}.{attr} has no binding to trace")

    build = Problem.__dict__["from_scenario"].__func__
    Problem.from_scenario = classmethod(tracer.wrap(PROBLEM_BUILD, build))
    for prop in SELECTION_PROPERTIES:
        getter = Association.__dict__[prop].fget
        setattr(Association, prop, property(tracer.wrap(SELECTION_MATRIX, getter)))
    return tracer
