"""The benchmark's contract with the package: every function the benchmark
requires to run, and every method its tracer wraps, exists where it looks.

`perfbench/workloads.py` and `perfbench/tracing.py` import only the standard
library, so they are loaded here by file path; a rename or deletion of a
traced function then fails this fast test instead of a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from congested_ns import freeboundary, parabolic
from congested_ns.core import PhysicalParams, make_grid
from congested_ns.freeboundary import _march, validate_hypotheses
from congested_ns.perturbations import initial_data_fields
from congested_ns.profiles import traveling_wave

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")

TRACED = sorted({name for w in workloads.WORKLOADS.values() for name in w.must_run}
                | {".".join(entry) for entry in tracing.METHODS})


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_resolves(name):
    layer, *path = name.split(".")
    assert layer in tracing.LAYERS
    module = importlib.import_module(f"congested_ns.{layer}")
    if len(path) == 1:
        # the tracer wraps the functions defined at module level in their layer
        obj = vars(module).get(path[0])
        assert isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__
    else:
        # and a class's method only when tracing.METHODS lists it
        assert (layer, *path) in tracing.METHODS
        cls_name, meth = path
        assert isinstance(vars(getattr(module, cls_name)).get(meth), types.FunctionType)


def test_march_takes_ydot_third():
    # the tracer counts the steps of a march from its third argument
    assert list(inspect.signature(_march).parameters)[2] == "ydot"


def _counting(monkeypatch, module, name, calls):
    """Count the calls of module.name (a function or method) in calls[name]."""
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


def test_step_v_makes_one_reglog_call_and_at_most_one_solve(monkeypatch):
    # one linearized update: a single RegularizedLog call gives the residual
    # and its slope, and a step whose residual is not exactly zero makes one
    # tridiagonal solve; the exact front's residual is zero, and it makes none.
    # The tracer counts parabolic.newton_iters as step_v's solves
    params = PhysicalParams(mu=1.0, v_plus=2.0, u_minus=1.0, u_plus=0.0)
    grid = make_grid(50.0, 257)
    wave = traveling_wave(params, grid)
    v0, u0 = initial_data_fields("gaussian_bump", 0.005, 2.0, 1.0, params, grid)
    init = validate_hypotheses(v0, u0, grid, params)
    reg = parabolic.RegularizedLog(2.0 * float(np.max(init.v0)))
    calls = {"__call__": 0, "_solve_tridiagonal": 0}
    _counting(monkeypatch, parabolic.RegularizedLog, "__call__", calls)
    _counting(monkeypatch, parabolic, "_solve_tridiagonal", calls)
    parabolic.step_v(init.v0, init.compat_speed, init.source_eval.shifted(0.01), grid, 2e-3,
                     reg, params, wave)
    assert calls == {"__call__": 1, "_solve_tridiagonal": 1}
    calls.update({"__call__": 0, "_solve_tridiagonal": 0})
    parabolic.step_v(wave.v_bar, params.s, 0.0, grid, 2e-3, reg, params, wave)
    assert calls == {"__call__": 1, "_solve_tridiagonal": 0}


def test_step_u_makes_one_linear_step_and_one_solve(monkeypatch):
    # the tracer must see linear_parabolic_step run, and counts every
    # _solve_tridiagonal call outside step_v as step_u's one solve
    params = PhysicalParams(mu=1.0, v_plus=2.0, u_minus=1.0, u_plus=0.0)
    grid = make_grid(50.0, 257)
    wave = traveling_wave(params, grid)
    calls = {"linear_parabolic_step": 0, "_solve_tridiagonal": 0, "__call__": 0}
    _counting(monkeypatch, parabolic, "linear_parabolic_step", calls)
    _counting(monkeypatch, parabolic, "_solve_tridiagonal", calls)
    _counting(monkeypatch, parabolic.RegularizedLog, "__call__", calls)
    u = wave.u_bar + 1e-3 * np.sin(grid.x) * np.exp(-grid.x)
    parabolic.step_u(u, wave.v_bar, 0.9 * params.s, grid, 2e-3, params, wave)
    assert calls == {"linear_parabolic_step": 1, "_solve_tridiagonal": 1, "__call__": 0}


def test_march_of_k_steps_makes_k_steps_of_each_field(monkeypatch):
    # the tracer checks step_v calls against the steps it counts per march
    params = PhysicalParams(mu=1.0, v_plus=2.0, u_minus=1.0, u_plus=0.0)
    grid = make_grid(50.0, 257)
    v0, u0 = initial_data_fields("gaussian_bump", 0.005, 2.0, 1.0, params, grid)
    init = validate_hypotheses(v0, u0, grid, params)
    calls = {"step_v": 0, "step_u": 0}
    _counting(monkeypatch, freeboundary, "step_v", calls)
    _counting(monkeypatch, freeboundary, "step_u", calls)
    k, dt = 5, 2e-3
    ydot = np.full(k + 1, init.compat_speed)
    _march(init.v0, init.u0, ydot, dt * init.compat_speed * np.arange(k + 1), init, dt,
           t_start=0.0)
    assert calls == {"step_v": k, "step_u": k}


@pytest.mark.parametrize("workload", ["front_steady", "bump_bootstrap"])
def test_traced_smoke_run_keeps_the_tracer_identities(tmp_path, workload):
    # a traced benchmark run fails when a march breaks one of the tracer's
    # identities (marches == picard_iters + windows, step_v calls == steps
    # marched); the worker's smoke run checks them in about a second
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload,
                           "--seed", "0", "--mode", "trace", "--smoke", "--out",
                           str(tmp_path / "out")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["ok"], result["errors"]
    assert result["identity_errors"] == []
