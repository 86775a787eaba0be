"""Span and count tracing of the ``congested_ns`` layers, installed from outside.

The layers are the package's modules.  :meth:`Tracer.install` replaces every
function defined at module level in a layer (private helpers included), plus
the two per-step methods ``RegularizedLog.__call__`` and
``InitialData.w0_at``, by a timing wrapper.  The wrapper is bound wherever
the original was: in the defining module, in every module that imported it
by name (``freeboundary`` holds its own ``step_v``, ``cli`` its own
``picard_solve``) and in module-level dicts such as ``cli._RUNNERS``.
Wrapping only the defining module would miss those import-time bindings.

For each function the tracer keeps the call count, the inclusive time and
the time covered by its direct children, so self time is the difference.
Boundary functions (the run, the solve, each march, each diagnostic) also
leave a span record: name, start, end, parent span and run identifier.
Everything stays in memory until :meth:`Tracer.report`.

The package runs in one single-threaded process with no queues, so no layer
waits for another; the layer table has busy time and counts, and no
wait-time metric.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("core", "profiles", "discrete_ops", "parabolic", "freeboundary",
          "diagnostics", "perturbations", "cli")

# class-level methods that run on every step or every boundary evaluation
METHODS = (("parabolic", "RegularizedLog", "__call__"),
           ("freeboundary", "InitialData", "w0_at"))

# calls whose inclusive time is summed only when entered from outside the group
WAVE_GROUP = frozenset(f"profiles.{name}" for name in
                       ("wave_v", "wave_u", "wave_dv", "wave_log_v", "traveling_wave"))

# functions that leave an individual span record (the rest are only aggregated)
SPAN_FUNCTIONS = frozenset({
    "cli.run", "cli._solve_from_config", "cli._run_summary", "cli._trajectory_csv",
    "cli._snapshot_file", "freeboundary.picard_solve", "freeboundary._march",
    "freeboundary.validate_hypotheses", "freeboundary.reconstruction_residuals",
    "perturbations.initial_data_fields", "diagnostics.energy_report",
    "diagnostics.bootstrap_monitor", "diagnostics.l1_bound_report",
    "diagnostics.shifted_weight_inequality", "diagnostics.path_difference_inequality",
    "diagnostics.write_diagnostic_records",
})


def _march_steps(args: tuple, kwargs: dict) -> int:
    ydot = args[2] if len(args) > 2 else kwargs["ydot"]
    return ydot.size - 1


class Tracer:
    """Aggregated per-function timings, caller edges and boundary spans."""

    def __init__(self, run_id: str = "run"):
        self.run_id = run_id
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.child: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()
        self.group_s: defaultdict = defaultdict(float)
        self.steps_marched = 0
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._wrappers: dict = {}
        self._origin = time.perf_counter()

    def _wrap(self, name: str, fn):
        stack = self._stack
        calls, total, child, edges = self.calls, self.total, self.child, self.edges
        group_s, spans = self.group_s, self.spans
        clock = time.perf_counter
        group = WAVE_GROUP if name in WAVE_GROUP else None
        keep_span = name in SPAN_FUNCTIONS
        count_steps = name == "freeboundary._march"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if count_steps:
                self.steps_marched += _march_steps(args, kwargs)
            frame = [name, 0.0, len(spans) if keep_span else None]
            if keep_span:
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                calls[name] += 1
                total[name] += dt
                child[name] += frame[1]
                parent_name = None
                if parent is not None:
                    parent[1] += dt
                    parent_name = parent[0]
                    edges[parent_name, name] += 1
                if group is not None and parent_name not in group:
                    group_s["wave"] += dt
                if keep_span:
                    parent_span = next((f[2] for f in reversed(stack) if f[2] is not None),
                                       None)
                    spans[frame[2]] = (self.run_id, frame[2], parent_span, name,
                                       t0 - self._origin, t1 - self._origin)

        return wrapper

    def install(self) -> None:
        """Wrap every layer function and rebind each reference to it."""
        modules = {layer: importlib.import_module(f"congested_ns.{layer}") for layer in LAYERS}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    self._wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", original))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "congested_ns" or mod_name.startswith("congested_ns."):
                self._rebind(mod)

    def _rebind(self, mod: types.ModuleType) -> None:
        wrappers = self._wrappers
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if isinstance(value, types.FunctionType) and value in wrappers:
                        obj[key] = wrappers[value]

    def self_s(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(self.self_s(name) for name in self.calls if name.startswith(prefix))

    def per_call_us(self, name: str) -> float:
        n = self.calls[name]
        return 1e6 * self.total[name] / n if n else 0.0

    def report(self) -> dict:
        """Raw table: per-function counts and times, caller edges, spans."""
        return {
            "functions": {name: {"calls": self.calls[name], "total_s": self.total[name],
                                 "self_s": self.self_s(name)}
                          for name in sorted(self.calls)},
            "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items())],
            "spans": [list(s) for s in self.spans if s is not None],
        }


def layer_metrics(tr: Tracer, iterations_per_window: list[int], bytes_written: int) -> dict:
    """Per-layer metric values, keyed as in BENCHMARK.json's ``per_layer``.

    ``iterations_per_window`` is the solver's own report (``summary.json``);
    the march and step counts come from the wrappers, so the identities
    checked by :func:`identity_errors` compare two independent sources.
    """
    step_v = "parabolic.step_v"
    tridiag = "parabolic._solve_tridiagonal"
    reglog = "parabolic.RegularizedLog.__call__"
    newton_iters = tr.edges[step_v, tridiag]
    windows = len(iterations_per_window)
    marches = tr.calls["freeboundary._march"]
    m = {
        "core.as_field_calls": tr.calls["core.as_field"],
        "core.as_field_s": tr.total["core.as_field"],
        "profiles.wave_calls": sum(tr.calls[name] for name in WAVE_GROUP),
        "profiles.wave_s": tr.group_s["wave"],
        "parabolic.step_v_calls": tr.calls[step_v],
        "parabolic.step_v_us": tr.per_call_us(step_v),
        "parabolic.step_u_calls": tr.calls["parabolic.step_u"],
        "parabolic.step_u_us": tr.per_call_us("parabolic.step_u"),
        "parabolic.tridiag_calls": tr.calls[tridiag],
        "parabolic.tridiag_us": tr.per_call_us(tridiag),
        "parabolic.reglog_calls": tr.calls[reglog],
        "parabolic.reglog_us": tr.per_call_us(reglog),
        "parabolic.self_s": tr.layer_self_s("parabolic"),
        "parabolic.newton_iters": newton_iters,
        "parabolic.newton_halvings": tr.edges[step_v, reglog] - tr.calls[step_v]
        - 2 * newton_iters,
        "freeboundary.windows": windows,
        "freeboundary.picard_iters": sum(iterations_per_window),
        "freeboundary.picard_iters_max": max(iterations_per_window, default=0),
        "freeboundary.marches": marches,
        "freeboundary.steps_marched": tr.steps_marched,
        "freeboundary.repeat_march_frac": windows / marches if marches else 0.0,
        "freeboundary.march_self_s": tr.self_s("freeboundary._march"),
        "freeboundary.reconstruction_s": tr.total["freeboundary.reconstruction_residuals"],
        "freeboundary.validate_s": tr.total["freeboundary.validate_hypotheses"],
        "discrete_ops.pchip_builds": tr.calls["discrete_ops.monotone_interpolator"],
        "discrete_ops.pchip_build_s": tr.total["discrete_ops.monotone_interpolator"],
        "discrete_ops.shift_sample_calls": tr.calls["discrete_ops.shift_sample"],
        "discrete_ops.shift_sample_s": tr.total["discrete_ops.shift_sample"],
        "discrete_ops.norm_calls": tr.calls["discrete_ops.norm"],
        "discrete_ops.norm_s": tr.total["discrete_ops.norm"],
        "discrete_ops.trace0_calls": tr.calls["discrete_ops.trace0"],
        "diagnostics.energy_report_s": tr.total["diagnostics.energy_report"],
        "diagnostics.bootstrap_monitor_s": tr.total["diagnostics.bootstrap_monitor"],
        "diagnostics.l1_bound_s": tr.total["diagnostics.l1_bound_report"],
        "diagnostics.shifted_weight_s": tr.total["diagnostics.shifted_weight_inequality"],
        "diagnostics.path_difference_s": tr.total["diagnostics.path_difference_inequality"],
        "perturbations.initial_data_s": tr.total["perturbations.initial_data_fields"],
        "cli.output_s": tr.layer_self_s("cli"),
        "cli.bytes_written": bytes_written,
    }
    for layer in LAYERS:
        if layer not in ("parabolic", "cli"):
            m[f"{layer}.self_s"] = tr.layer_self_s(layer)
    return m


def identity_errors(metrics: dict, tr: Tracer, must_run: tuple[str, ...],
                    solver: bool) -> list[str]:
    """Wrapper coverage and solver-cost identities; empty when all hold.

    A function that must run but recorded no call, or a step count that
    disagrees with the march count, means some call site still reaches an
    unwrapped binding and the layer table undercounts.
    """
    errors = [f"wrapped function {name} recorded zero calls" for name in must_run
              if tr.calls[name] == 0]
    if solver:
        if metrics["parabolic.step_v_calls"] != metrics["freeboundary.steps_marched"]:
            errors.append(f"parabolic.step_v_calls={metrics['parabolic.step_v_calls']} != "
                          f"freeboundary.steps_marched={metrics['freeboundary.steps_marched']}")
        expected = metrics["freeboundary.picard_iters"] + metrics["freeboundary.windows"]
        if metrics["freeboundary.marches"] != expected:
            errors.append(f"freeboundary.marches={metrics['freeboundary.marches']} != "
                          f"picard_iters + windows = {expected}")
    return errors
