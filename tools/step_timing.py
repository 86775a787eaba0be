"""Untraced per-call timings of the stepping kernels, and the numpy
reductions one step makes.

    PYTHONPATH=src python tools/step_timing.py [--n 2049] [--repeat 7] [--number 2000]

Two states are timed, each on the active head [0, m] that a march steps:

- ``front``: the exact wave at speed s with dt = 1e-3 (the steady_wave
  preset), on a march's first head m = ACTIVE_GUARD; every step takes 0
  Newton iterations;
- ``bootstrap``: the bootstrap_check datum (gaussian_bump, amplitude 5e-3,
  width 1, dt = 2e-3) solved to t = 2, on the head its last march ended
  with (m = 933 at n = 2049); every step takes one Newton iteration.

For each state the script times step_v, step_u, the pair of them,
linear_parabolic_step and _solve_tridiagonal on the system step_u builds,
and boundary_velocity, each as the best of `repeat` means over `number`
calls (timeit, with the garbage collector off).  The calls reach the
functions themselves: perfbench's traced layer table also times a wrapper
around every module-level helper, so it under-reports a gain inside a
kernel.  ``reductions`` counts numpy's ufunc.reduce calls (every min, max,
all and sum pass) in one step_v, step_u and boundary_velocity sequence.
"""

from __future__ import annotations

import argparse
import sys
import timeit

from congested_ns.core import PhysicalParams, make_grid
from congested_ns.discrete_ops import stencil_derivative
from congested_ns.freeboundary import (ACTIVE_GUARD, _active_head, boundary_velocity,
                                       picard_solve, validate_hypotheses)
from congested_ns.parabolic import _solve_tridiagonal, linear_parabolic_step, step_u, step_v
from congested_ns.perturbations import initial_data_fields

PARAMS = PhysicalParams(mu=1.0, v_plus=2.0, u_minus=1.0, u_plus=0.0)
R = 50.0


def front_state(n: int) -> dict:
    """The exact wave on a march's first active head, at speed s."""
    grid = make_grid(R, n)
    v0, u0 = initial_data_fields("none", 0.0, 2.0, 1.0, PARAMS, grid)
    init = validate_hypotheses(v0, u0, grid, PARAMS)
    m = min(ACTIVE_GUARD, n - 1)
    return dict(init=init, m=m, v=init.v0[:m + 1], u=init.u0[:m + 1], y=0.0,
                ydot=PARAMS.s, src=0.0, dt=1e-3)


def bootstrap_state(n: int) -> dict:
    """The bootstrap_check datum at t = 2 on the head its last march ended with."""
    grid = make_grid(R, n)
    dt = 2e-3
    v0, u0 = initial_data_fields("gaussian_bump", 0.005, 2.0, 1.0, PARAMS, grid)
    init = validate_hypotheses(v0, u0, grid, PARAMS)
    traj = picard_solve(init, grid, PARAMS, T_final=2.0, dt=dt, tol=1e-8, stride=1000)
    last = traj.windows[-1]
    m = last.widenings[-1][-1][2] if last.widenings[-1] else last.active_start
    y = float(traj.y[-1])
    src = 0.0 if init.source_eval is None else init.source_eval.shifted(y, m + 1)
    return dict(init=init, m=m, v=traj.v[-1][:m + 1], u=traj.u[-1][:m + 1], y=y,
                ydot=float(traj.ydot[-1]), src=src, dt=dt)


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


def measure(state: dict, repeat: int, number: int) -> dict:
    """Per-call microseconds of each kernel on `state`, and the reductions
    of one step."""
    init, m, dt, ydot = state["init"], state["m"], state["dt"], state["ydot"]
    params = init.params
    grid, wave = _active_head(init.grid, init.wave, m)
    v, u, src = state["v"], state["u"], state["src"]
    w0_y = init.w0_at(state["y"])
    v_new = step_v(v, ydot, src, grid, dt, init.reg, params, wave)
    u_new = step_u(u, v_new, ydot, grid, dt, params, wave)
    # the linear system step_u hands to linear_parabolic_step, and its diagonals
    h = u - wave.u_bar
    a = params.mu / v_new
    coupling = (1.0 / v_new - wave.inv_v_bar) * wave.du_bar
    f = params.mu * stencil_derivative(coupling, grid.dx, 1) + (ydot - params.s) * wave.du_bar
    k = 0.5 * (a[:-1] + a[1:]) / grid.dx**2
    b_f = -ydot * 0.5 / grid.dx
    sub, diag, sup = -b_f - k[1:-1], k[:-1] + k[1:] + 1.0 / dt, b_f - k[1:-1]
    rhs = h[1:-1] / dt + f[1:-1]

    def pair():
        step_u(u, step_v(v, ydot, src, grid, dt, init.reg, params, wave),
               ydot, grid, dt, params, wave)

    kernels = {
        "step_v": lambda: step_v(v, ydot, src, grid, dt, init.reg, params, wave),
        "step_u": lambda: step_u(u, v_new, ydot, grid, dt, params, wave),
        "step_v+step_u": pair,
        "linear_parabolic_step": lambda: linear_parabolic_step(h, a, -ydot, f, grid, dt),
        "_solve_tridiagonal": lambda: _solve_tridiagonal(sub, diag, sup, rhs, dt, 1.0),
        "boundary_velocity": lambda: boundary_velocity(u_new, w0_y, grid, params, wave),
    }
    out = {"m": m}
    for name, call in kernels.items():
        out[name] = 1e6 * min(timeit.Timer(call).repeat(repeat, number)) / number

    def one_step():
        pair()
        boundary_velocity(u_new, w0_y, grid, params, wave)

    out["reductions"] = reductions_per_step(one_step)
    return out


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=2049, help="grid nodes on [0, 50]")
    parser.add_argument("--repeat", type=int, default=7, help="timing repeats (best is kept)")
    parser.add_argument("--number", type=int, default=2000, help="calls per repeat")
    args = parser.parse_args(argv)
    results = {}
    for label, build in (("front", front_state), ("bootstrap", bootstrap_state)):
        results[label] = row = measure(build(args.n), args.repeat, args.number)
        print(f"{label}: m = {row['m']}, {row['reductions']} reductions per step")
        for name, value in row.items():
            if name not in ("m", "reductions"):
                print(f"  {name:<22} {value:8.2f} us")
    return results


if __name__ == "__main__":
    main()
