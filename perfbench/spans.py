"""Layer spans for the traced run, recorded from outside the program.

`Tracer.install()` wraps every public function, and every public method of
a public class, defined in the eight modules of heislab, and rebinds each
wrapped name wherever it is looked up: in its own module, in every heislab
module that imported it, and in module-level dicts such as the CLI handler
table.  Each call records one span (name, layer, start, end, parent span,
operation id, and one recorded quantity such as points, samples, CG
iterations, quad nodes or report bytes).  Spans stay in memory until the
run writes them out.  `uninstall()` restores every original binding.

`layer_metrics(spans)` turns the spans of one batch into the per-layer
metrics named in BENCHMARK.json.  A layer's self time is the time of its
spans minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

LAYERS = ("cli", "report", "capacity", "cutoffs", "group", "mc", "weak_form", "simulate")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int
    op: int
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _nodes(result) -> int:
    """Summed quad nodes of a returned estimate or of its estimate fields."""
    if hasattr(result, "nodes"):
        return int(result.nodes)
    fields = getattr(result, "__dataclass_fields__", {})
    return sum(int(getattr(result, f).nodes) for f in fields
               if hasattr(getattr(result, f), "nodes"))


# What each span records besides its time, keyed by span name.
RECORDERS = {
    "cutoffs.smoothstep_complement": lambda a, k, r: int(np.size(_arg(a, k, 0, "s"))),
    "cutoffs.cutoff_eval": lambda a, k, r: int(np.ndim(_arg(a, k, 1, "z")) == 0),
    "mc.mc_integrate_vector": lambda a, k, r: int(_arg(a, k, 2, "cfg").samples),
    "capacity.sphere_weight_constant": lambda a, k, r: (
        int(_arg(a, k, 0, "n")), round(float(_arg(a, k, 1, "s")), 12)),
    "simulate.assemble_sublaplacian": lambda a, k, r: (r.matrix.shape[0], r.matrix.nnz),
    "simulate.solve_linear": lambda a, k, r: int(r[1]),
    "report.emit": lambda a, k, r: len(r.encode()),
}


def _record_nodes(a, k, r):
    return _nodes(r)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = -1
        self.recorder_errors: Counter = Counter()
        self._restore: list = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        recorder = RECORDERS.get(name)
        if recorder is None and layer == "capacity":
            recorder = _record_nodes
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.op)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if recorder is not None:
                try:
                    span.info = recorder(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    # a later signature change must not break the run; it is reported
                    tracer.recorder_errors[name] += 1
            return result

        return traced

    def _targets(self):
        """(owner, attribute, function, span name, layer) for every public
        function and public method defined in a layer module."""
        for layer in LAYERS:
            module = sys.modules[f"heislab.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield module, attr, obj, f"{layer}.{attr}", layer
                elif inspect.isclass(obj):
                    for mname, meth in vars(obj).items():
                        if not mname.startswith("_") and inspect.isfunction(meth):
                            yield obj, mname, meth, f"{layer}.{attr}.{mname}", layer

    def install(self):
        wrapped = {}
        for owner, attr, fn, name, layer in list(self._targets()):
            wrapped[id(fn)] = self._wrap(fn, name, layer)
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, wrapped[id(fn)])
        # rebind names imported into other modules, and handler tables
        for modname, module in list(sys.modules.items()):
            if not (modname == "heislab" or modname.startswith("heislab.")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and id(value) in wrapped:
                            self._restore.append((obj, key, value))
                            obj[key] = wrapped[id(value)]

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)
        self._restore.clear()

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out

    @staticmethod
    def write(path, batches, context: dict):
        """One JSON line of context, then one line per span:
        [batch, name, start, end, parent index within the batch, op, info]."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"context": context}) + "\n")
            for b, spans in enumerate(batches):
                for s in spans:
                    info = s.info if isinstance(s.info, (int, float, type(None))) else repr(s.info)
                    fh.write(json.dumps([b, s.name, s.start, s.end, s.parent, s.op, info]) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics of one batch
# ---------------------------------------------------------------------------

METRICS = {
    # name: unit
    "cutoffs.smoothstep_calls": "count",
    "cutoffs.smoothstep_points": "count",
    "cutoffs.smoothstep_s": "s",
    "cutoffs.cutoff_eval_scalar_calls": "count",
    "cutoffs.testfn_eval_calls": "count",
    "cutoffs.testfn_eval_s": "s",
    "cutoffs.bump_calls": "count",
    "cutoffs.bump_s": "s",
    "group.compose_calls": "count",
    "group.compose_s": "s",
    "group.sublaplacian_calls": "count",
    "group.sublaplacian_s": "s",
    "mc.integrate_calls": "count",
    "mc.samples": "count",
    "mc.chunks": "count",
    "mc.integrate_s": "s",
    "mc.sample_box_s": "s",
    "mc.samples_per_s": "1/s",
    "capacity.time_integral_calls": "count",
    "capacity.time_integral_s": "s",
    "capacity.spatial_calls": "count",
    "capacity.spatial_s": "s",
    "capacity.quad_neval": "count",
    "capacity.sphere_calls": "count",
    "capacity.sphere_misses": "count",
    "capacity.sphere_s": "s",
    "weak_form.residual_s": "s",
    "weak_form.oracle_s": "s",
    "weak_form.selfadjoint_s": "s",
    "simulate.assemble_calls": "count",
    "simulate.assemble_s": "s",
    "simulate.unknowns": "count",
    "simulate.nnz": "count",
    "simulate.solve_calls": "count",
    "simulate.solve_s": "s",
    "simulate.cg_iterations": "count",
    "simulate.steps": "count",
    "simulate.step_p50_ms": "ms",
    "simulate.step_p99_ms": "ms",
    "cli.dispatch_s": "s",
    "report.emit_s": "s",
    "report.bytes": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}

STEP_SPANS = ("simulate.step_parabolic", "simulate.step_hyperbolic", "simulate.taylor_start")


def _outermost(spans, by_name, names):
    """Spans named in `names` that have no ancestor named in `names`."""
    out = []
    for name in names:
        for s in by_name.get(name, ()):
            p = s.parent
            while p >= 0 and spans[p].name not in names:
                p = spans[p].parent
            if p < 0:
                out.append(s)
    return out


def step_durations_ms(spans) -> list:
    return [1e3 * s.duration for s in spans if s.name in STEP_SPANS]


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one batch's spans, except the step percentiles
    and the tracing overhead, which run.py computes across batches."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def seconds(*names):
        return sum(s.duration for s in _outermost(spans, by_name, set(names)))

    def info_sum(name):
        return sum(s.info for s in by_name[name] if isinstance(s.info, (int, float)))

    spatial = tuple(n for n in by_name if n.startswith(("capacity.spatial_integral",
                                                         "capacity.data_term_integral",
                                                         "capacity.mc_spatial_integral")))
    residual = tuple(n for n in by_name if n.startswith("weak_form.weak_residual"))
    bump = ("cutoffs.GaugeBump.value", "cutoffs.GaugeBump.lap")
    integrate = by_name["mc.mc_integrate_vector"]
    integrate_s = seconds("mc.mc_integrate_vector")
    samples = info_sum("mc.mc_integrate_vector")
    chunks = sum(1 for s in by_name["mc.sample_box"]
                 if s.parent >= 0 and spans[s.parent].name == "mc.mc_integrate_vector")
    operators = [s.info for s in by_name["simulate.assemble_sublaplacian"]
                 if isinstance(s.info, tuple)]
    largest = max(operators, default=(0, 0))
    sphere_keys = {s.info for s in by_name["capacity.sphere_weight_constant"] if s.info is not None}
    quad_neval = sum(s.info for s in spans
                     if s.layer == "capacity" and isinstance(s.info, int)
                     and s.name != "capacity.sphere_weight_constant")

    child_time = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        self_s[s.layer] += s.duration - child_time[i]

    return {
        "cutoffs.smoothstep_calls": calls("cutoffs.smoothstep_complement"),
        "cutoffs.smoothstep_points": info_sum("cutoffs.smoothstep_complement"),
        "cutoffs.smoothstep_s": seconds("cutoffs.smoothstep_complement"),
        "cutoffs.cutoff_eval_scalar_calls": info_sum("cutoffs.cutoff_eval"),
        "cutoffs.testfn_eval_calls": calls("cutoffs.ProductTestFunction.eval"),
        "cutoffs.testfn_eval_s": seconds("cutoffs.ProductTestFunction.eval"),
        "cutoffs.bump_calls": calls(*bump),
        "cutoffs.bump_s": seconds(*bump),
        "group.compose_calls": calls("group.compose"),
        "group.compose_s": seconds("group.compose"),
        "group.sublaplacian_calls": calls("group.sublaplacian"),
        "group.sublaplacian_s": seconds("group.sublaplacian"),
        "mc.integrate_calls": len(integrate),
        "mc.samples": samples,
        "mc.chunks": chunks,
        "mc.integrate_s": integrate_s,
        "mc.sample_box_s": seconds("mc.sample_box"),
        "mc.samples_per_s": samples / integrate_s if integrate_s > 0 else 0.0,
        "capacity.time_integral_calls": calls("capacity.time_integral"),
        "capacity.time_integral_s": seconds("capacity.time_integral"),
        "capacity.spatial_calls": calls(*spatial),
        "capacity.spatial_s": seconds(*spatial),
        "capacity.quad_neval": quad_neval,
        "capacity.sphere_calls": calls("capacity.sphere_weight_constant"),
        "capacity.sphere_misses": len(sphere_keys),
        "capacity.sphere_s": seconds("capacity.sphere_weight_constant"),
        "weak_form.residual_s": seconds(*residual),
        "weak_form.oracle_s": seconds("weak_form.pair_defect"),
        "weak_form.selfadjoint_s": seconds("weak_form.selfadjointness_residual"),
        "simulate.assemble_calls": calls("simulate.assemble_sublaplacian"),
        "simulate.assemble_s": seconds("simulate.assemble_sublaplacian"),
        "simulate.unknowns": largest[0],
        "simulate.nnz": largest[1],
        "simulate.solve_calls": calls("simulate.solve_linear"),
        "simulate.solve_s": seconds("simulate.solve_linear"),
        "simulate.cg_iterations": info_sum("simulate.solve_linear"),
        "simulate.steps": calls(*STEP_SPANS),
        "cli.dispatch_s": seconds("cli.dispatch"),
        "report.emit_s": seconds("report.emit"),
        "report.bytes": info_sum("report.emit"),
        **{f"{layer}.self_s": v for layer, v in self_s.items()},
        "trace.spans": len(spans),
    }


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0
