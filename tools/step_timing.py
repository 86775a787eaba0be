"""Untraced per-call timings of the stepping kernels, and the numpy
reductions one step makes.

    PYTHONPATH=src python tools/step_timing.py [--n 2049] [--repeat 7] [--number 2000]

Two states are timed, each the last step of a real run of a preset, built
through the CLI's own config path with grid.n = --n:

- ``front``: the steady_wave preset (the exact wave at speed s, dt = 1e-3)
  run for one step, on a march's first head (m = 128 at n = 2049); the step
  takes no update (its residual is exactly 0);
- ``bootstrap``: the bootstrap_check preset (gaussian_bump, amplitude 5e-3,
  width 1, dt = 2e-3) run to T = 2, on the head its last march ended with
  (m = 933 at n = 2049); the step takes its one linearized update.

During each run, step_v, step_u and boundary_velocity of freeboundary and
linear_parabolic_step and _solve_tridiagonal of parabolic are swapped for
wrappers that record each kernel's last call (the last _solve_tridiagonal
call of a step is step_u's linear step), and restored after it.  A call is
recorded with copies of its array arguments, since the march passes views
of a state that later steps overwrite.  Those exact calls, and step_v
followed by step_u, are timed as the best of `repeat` means over `number`
calls (timeit, with the garbage collector off).  They reach the functions
themselves: perfbench's traced layer table also times a wrapper around
every module-level helper, so it under-reports a gain inside a kernel.
``reductions`` counts numpy's ufunc.reduce calls (every min, max,
all and sum pass) in one step_v, step_u and boundary_velocity sequence.  A
kernel that is renamed, or no longer called, fails the script.
"""

from __future__ import annotations

import argparse
import functools
import sys
import timeit
from dataclasses import replace

import numpy as np

from congested_ns import freeboundary, parabolic
from congested_ns.cli import _solve_from_config, resolve_config

KERNELS = ((freeboundary, "step_v"), (freeboundary, "step_u"),
           (freeboundary, "boundary_velocity"),
           (parabolic, "linear_parabolic_step"), (parabolic, "_solve_tridiagonal"))
# label: the preset and its horizon (None: one step of the preset's dt)
STATES = {"front": ("steady_wave", None), "bootstrap": ("bootstrap_check", 2.0)}


def last_calls(preset: str, n: int, T_final: float | None) -> dict[str, functools.partial]:
    """Run `preset` at n nodes to T_final; return the last call of each
    kernel, as the real function bound to copies of the arguments it was
    called with."""
    cfg = resolve_config(None, preset, None, [f"grid.n={n}"])
    cfg = replace(cfg, T_final=cfg.dt if T_final is None else T_final)
    calls = {}

    def recorder(name, fn):
        def record(*args, **kwargs):
            calls[name] = functools.partial(
                fn, *map(_copied, args), **{key: _copied(arg) for key, arg in kwargs.items()})
            return fn(*args, **kwargs)
        return record

    originals = [(module, name, getattr(module, name)) for module, name in KERNELS]
    try:
        for module, name, fn in originals:
            setattr(module, name, recorder(name, fn))
        _solve_from_config(cfg)
    finally:
        for module, name, fn in originals:
            setattr(module, name, fn)
    return calls


def _copied(arg):
    """arg, or a copy of it if it is an array."""
    return arg.copy() if isinstance(arg, np.ndarray) else arg


def reductions_per_step(step) -> int:
    """The ufunc.reduce calls made by one call of `step`."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "c_call" and getattr(arg, "__name__", "") == "reduce":
            count += 1

    sys.setprofile(profile)
    try:
        step()
    finally:
        sys.setprofile(None)
    return count


def measure(calls: dict[str, functools.partial], repeat: int, number: int) -> dict:
    """Per-call microseconds of each recorded call, the head's last node m,
    and the reductions of one step."""
    step_v, step_u, trace = calls["step_v"], calls["step_u"], calls["boundary_velocity"]
    kernels = {
        "step_v": step_v,
        "step_u": step_u,
        "step_v+step_u": lambda: (step_v(), step_u()),
        "linear_parabolic_step": calls["linear_parabolic_step"],
        "_solve_tridiagonal": calls["_solve_tridiagonal"],
        "boundary_velocity": trace,
    }
    out = {"m": step_v.args[3].n - 1}  # step_v(v, ydot, source, grid, ...)
    for name, call in kernels.items():
        out[name] = 1e6 * min(timeit.Timer(call).repeat(repeat, number)) / number
    out["reductions"] = reductions_per_step(lambda: (step_v(), step_u(), trace()))
    return out


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=2049, help="grid nodes on [0, 50]")
    parser.add_argument("--repeat", type=int, default=7, help="timing repeats (best is kept)")
    parser.add_argument("--number", type=int, default=2000, help="calls per repeat")
    args = parser.parse_args(argv)
    results = {}
    for label, (preset, T_final) in STATES.items():
        calls = last_calls(preset, args.n, T_final)
        results[label] = row = measure(calls, args.repeat, args.number)
        print(f"{label}: m = {row['m']}, {row['reductions']} reductions per step")
        for name, value in row.items():
            if name not in ("m", "reductions"):
                print(f"  {name:<22} {value:8.2f} us")
    return results


if __name__ == "__main__":
    main()
