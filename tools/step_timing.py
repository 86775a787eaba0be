"""Untraced per-call timings of the stepping kernels and of a whole march
step, and the numpy reductions one step makes.

    PYTHONPATH=src python tools/step_timing.py [--n 2049] [--repeat 7] [--number 2000]

Two states are timed, each the last step of a real run of a preset, built
through the CLI's own config path with grid.n = --n:

- ``front``: the steady_wave preset (the exact wave at speed s, dt = 1e-3)
  run for 50 steps, on a march's first head (m = 128 at n = 2049); every
  step is the same, and takes no update (its residual is exactly 0);
- ``bootstrap``: the bootstrap_check preset (gaussian_bump, amplitude 5e-3,
  width 1, dt = 2e-3) run to T = 2, on the head its last march ended with
  (m = 933 at n = 2049); the step takes its one linearized update.

During each run, _march, step_v, step_u and boundary_velocity of
freeboundary, linear_parabolic_step and _solve_tridiagonal of parabolic,
and MonotoneInterpolant.shifted of discrete_ops are swapped for wrappers
that record each one's last call (the last _solve_tridiagonal call of a
step is step_u's linear step; the last shifted call is the source row of
the march's last step), and restored after it.  A call is recorded with
copies of its array arguments, since the march passes views of a state
that later steps overwrite.  Those exact calls, and step_v followed by
step_u, are timed as the best of `repeat` means over `number` calls
(timeit, with the garbage collector off).
_solve_tridiagonal consumes its arguments, so each timed solve gets fresh
copies of them, and its time includes those four copies.  ``source row``
is that shifted call, the sampling of the transported source on the head;
the front has no source, so it has no such line.  ``march step``
is one whole step of the run's last march, everything a step does around
the pair included: that march on its recorded path, less the same march
stopped after its first step, divided by its steps less one, so the
march's one-off set-up is left out.  ``glue`` is the march step less the
pair: the time a step spends around step_v and step_u.  The timings
reach the functions themselves: perfbench's traced layer table also
times a wrapper around every module-level helper, so it under-reports a
gain inside a kernel.  ``reductions`` counts the numpy
passes that reduce a whole array to one number, in one step_v, step_u and
boundary_velocity sequence: every ufunc.reduce call (min, max, any, all,
sum), count_nonzero and dot.  ``temporaries`` is the peak of the bytes
that one step_v then step_u allocate, by tracemalloc, also counted in
head arrays of 8 (m + 1) bytes: the steps write into the march's
workspace, so what is left is small objects and numpy's iterator of each
range reduction, about 1 KB whatever the head.  A kernel that is renamed,
or no longer called, fails the script.
"""

from __future__ import annotations

import argparse
import functools
import sys
import timeit
import tracemalloc
from dataclasses import replace

import numpy as np

from congested_ns import discrete_ops, freeboundary, parabolic
from congested_ns.cli import _solve_from_config, resolve_config

KERNELS = ((freeboundary, "_march"), (freeboundary, "step_v"), (freeboundary, "step_u"),
           (freeboundary, "boundary_velocity"),
           (parabolic, "linear_parabolic_step"), (parabolic, "_solve_tridiagonal"),
           (discrete_ops.MonotoneInterpolant, "shifted"))
# label: the preset and its horizon (None: one step of the preset's dt)
STATES = {"front": ("steady_wave", 0.05), "bootstrap": ("bootstrap_check", 2.0)}


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

    originals = [(owner, name, getattr(owner, name)) for owner, name in KERNELS]
    try:
        for owner, name, fn in originals:
            setattr(owner, name, recorder(name, fn))
        _solve_from_config(cfg)
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)
    return calls


def _copied(arg):
    """arg, or a copy of it if it is an array."""
    return arg.copy() if isinstance(arg, np.ndarray) else arg


def _best_us(call, repeat: int, number: int) -> float:
    """The best of `repeat` means over `number` calls, in microseconds."""
    return 1e6 * min(timeit.Timer(call).repeat(repeat, number)) / number


def march_step_us(march: functools.partial, repeat: int, number: int) -> float:
    """Microseconds of one step of the recorded march: the march on its
    whole path less the march stopped after its first step, divided by the
    steps in between.  Each call writes the same values as the recorded
    one: the positions into its copy of the path, and the run's stored
    rows it keeps."""
    v, u, ydot, y, *rest = march.args
    steps = ydot.size - 1
    if steps < 2:
        raise ValueError("the recorded march has fewer than two steps")
    first = functools.partial(march.func, v, u, ydot[:2].copy(), y[:2].copy(), *rest,
                              **march.keywords)
    calls = max(1, number // steps)
    return (_best_us(march, repeat, calls) - _best_us(first, repeat, calls)) / (steps - 1)


# the C functions and methods that reduce a whole array to one number
REDUCING = frozenset({"reduce", "count_nonzero", "dot"})


def reductions_per_step(step) -> int:
    """The whole-array reductions made by one call of `step`."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "c_call" and getattr(arg, "__name__", "") in REDUCING:
            count += 1

    sys.setprofile(profile)
    try:
        step()
    finally:
        sys.setprofile(None)
    return count


def temporaries(calls: dict[str, functools.partial]) -> int:
    """Peak bytes that one step_v then step_u allocate (tracemalloc's peak
    less what was traced before them): the pair's temporaries.  Each call is
    spelled out as the march spells it, by position with out and work by
    name, since a call through * or ** counts the tuple or dict it builds."""
    step_v, step_u = calls["step_v"], calls["step_u"]
    v, ydot, source, grid, dt, reg, params, wave = step_v.args
    u, v_u, ydot_u, grid_u, dt_u, params_u, wave_u = step_u.args
    (v_out, v_work), (u_out, u_work) = ((call.keywords["out"], call.keywords["work"])
                                        for call in (step_v, step_u))

    def pair():
        step_v.func(v, ydot, source, grid, dt, reg, params, wave, out=v_out, work=v_work)
        step_u.func(u, v_u, ydot_u, grid_u, dt_u, params_u, wave_u, out=u_out, work=u_work)

    pair()  # a first call may fill caches that outlive it
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        pair()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def measure(calls: dict[str, functools.partial], repeat: int, number: int) -> dict:
    """Per-call microseconds of each recorded call, the head's last node m,
    and the reductions of one step."""
    step_v, step_u, trace = calls["step_v"], calls["step_u"], calls["boundary_velocity"]
    solve = calls["_solve_tridiagonal"]
    arrays, scalars = solve.args[:4], solve.args[4:]
    kernels = {
        "step_v": step_v,
        "step_u": step_u,
        "step_v+step_u": lambda: (step_v(), step_u()),
        "linear_parabolic_step": calls["linear_parabolic_step"],
        "_solve_tridiagonal": lambda: solve.func(*[a.copy() for a in arrays], *scalars),
        "boundary_velocity": trace,
    }
    if "shifted" in calls:
        kernels["source row"] = calls["shifted"]
    out = {"m": step_v.args[3].n - 1}  # step_v(v, ydot, source, grid, ...)
    for name, call in kernels.items():
        out[name] = _best_us(call, repeat, number)
    out["march step"] = march_step_us(calls["_march"], repeat, number)
    out["glue"] = out["march step"] - out["step_v+step_u"]
    out["reductions"] = reductions_per_step(lambda: (step_v(), step_u(), trace()))
    out["temporaries"] = temporaries(calls)
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
            if name not in ("m", "reductions", "temporaries"):
                print(f"  {name:<22} {value:8.2f} us")
        heads = row["temporaries"] / (8 * (row["m"] + 1))
        print(f"  {'temporaries':<22} {row['temporaries']:8d} B per pair, {heads:.2f} head arrays")
    return results


if __name__ == "__main__":
    main()
