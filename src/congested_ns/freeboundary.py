"""Interface dynamics: hypothesis validation, the boundary ODE, and the
fixed-point coupling that produces the full two-phase solution.

The solution is built in the frame attached to the interface.  Given a trial
boundary path y(t), the specific volume and velocity are advanced on the half
line; the interface speed is then re-derived from the boundary trace

    y'(t) = -mu d_x u(t, 0) / (u_minus - w0(y(t))),

and the map "path in -> path out" is iterated (plain Picard) until the path
reproduces itself.  Long horizons are split into short windows on which the
map is a contraction, chaining the state from one window to the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np
from numpy.polynomial import polynomial as P

from .core import Grid, PhysicalParams, ValidationError, as_field
from .discrete_ops import (
    MonotoneInterpolant,
    NormKind,
    cumulative_trapezoid,
    derivative,
    monotone_interpolator,
    norm,
    shift_sample,
    stencil_trace,
    tail_integral,
    trace0,
)
from .parabolic import (
    DEFAULT_NEWTON_TOL,
    regularized_log,
    step_u,
    step_v,
    truncation_mollifier,
)
from .profiles import (
    Profiles,
    boundary_slope_constants,
    effective_velocity_about_wave,
    traveling_wave,
)

DENOM_FLOOR = 1e-8


class HypothesisViolated(ValidationError):
    """Initial data failed one or more admissibility hypotheses."""

    def __init__(self, failures: list[str]):
        self.failures = failures
        super().__init__("; ".join(failures))


class DenominatorTooSmall(RuntimeError):
    """u_minus - w0(y) fell below the non-degeneracy floor."""


class PicardStalled(RuntimeError):
    """Fixed-point iteration hit its iteration cap."""

    def __init__(self, message: str, last_ratio: float):
        self.last_ratio = last_ratio
        super().__init__(message)


@dataclass(frozen=True)
class BoundaryPath:
    """Interface position and speed on a uniform time mesh.

    y(0) = 0, ydot > 0 at every node, and y is the cumulative trapezoidal
    integral of ydot.
    """

    t: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    ydot: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        for arr in (self.t, self.y, self.ydot):
            arr.setflags(write=False)


def make_path(t: np.ndarray, ydot: np.ndarray) -> BoundaryPath:
    """Path from nodal speeds; position by cumulative trapezoid from y(0)=0."""
    t = np.asarray(t, float)
    ydot = np.asarray(ydot, float)
    if t.shape != ydot.shape or t.ndim != 1:
        raise ValidationError("path times and speeds must be 1-D arrays of equal length")
    if not np.all((ydot > 0.0) & (ydot < np.inf)):  # NaN fails both
        raise ValidationError(f"path speed must stay finite and positive (min {np.min(ydot):g}, "
                              f"max {np.max(ydot):g})")
    return BoundaryPath(t=t, y=cumulative_trapezoid(ydot, np.diff(t)), ydot=ydot)


def time_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Second-order finite differences on a uniform time mesh, along axis 0
    (one row per time: nodal values, or whole fields)."""
    values = np.asarray(values, float)
    out = np.empty_like(values)
    if values.shape[0] < 3:
        out[:] = (values[-1] - values[0]) / (dt * max(values.shape[0] - 1, 1))
        return out
    # in place: a whole-field history would otherwise need two more temporaries
    np.subtract(values[2:], values[:-2], out=out[1:-1])
    out[1:-1] /= 2.0 * dt
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * dt)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * dt)
    return out


def running_h1_norm(t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Discrete H1(0, t_k) norm of nodal values at every node t_k of a uniform
    time mesh: the cumulative trapezoid of f^2 + (f')^2, with f' from
    time_derivative on the whole mesh."""
    t = np.asarray(t, float)
    f = np.asarray(f, float)
    if t.size < 2:
        return np.abs(f)
    dt = float(t[1] - t[0])
    df = time_derivative(f, dt)
    return np.sqrt(cumulative_trapezoid(f**2 + df**2, dt))


def path_h1_norm(t: np.ndarray, f: np.ndarray) -> float:
    """Discrete H1(0,T) norm of nodal values on a uniform time mesh: the last
    entry of running_h1_norm."""
    return float(running_h1_norm(t, f)[-1])


def path_h2_distance(t: np.ndarray, ydot_a: np.ndarray, ydot_b: np.ndarray) -> float:
    """Discrete H2(0,T) distance between two paths given by nodal speeds.

    Logged alongside the H1 iteration metric: the discrete second derivative
    of the position is one order noisier, so convergence is gated on H1.
    """
    t = np.asarray(t, float)
    d_speed = np.asarray(ydot_a, float) - np.asarray(ydot_b, float)
    if t.size < 2:
        return float(abs(d_speed[0]))
    dt = float(t[1] - t[0])
    dy = cumulative_trapezoid(d_speed, dt)
    dacc = time_derivative(d_speed, dt)
    return float(np.sqrt(
        np.trapezoid(dy**2, t) + np.trapezoid(d_speed**2, t) + np.trapezoid(dacc**2, t)
    ))


@dataclass(frozen=True)
class InitialData:
    """Validated initial state plus derived quantities used by the solver.

    w0 is the initial effective velocity u0 - mu d_x ln v0 (transported
    rigidly by the interface motion), dxw0 its derivative, V0 and W0 the
    integrated tails of the volume and effective-velocity perturbations.
    source is the mollified chi d_x w0 that the volume equation transports.
    w0_eval and source_eval evaluate w0 and source at points x >= 0
    (monotone_interpolator with tails u_plus and 0); source_eval is None
    when the source is identically zero.  validate_hypotheses builds both
    once per datum.
    """

    v0: np.ndarray = field(repr=False)
    u0: np.ndarray = field(repr=False)
    w0: np.ndarray = field(repr=False)
    dxw0: np.ndarray = field(repr=False)
    V0: np.ndarray = field(repr=False)
    W0: np.ndarray = field(repr=False)
    source: np.ndarray = field(repr=False)
    compat_speed: float
    hypothesis_report: dict
    w0_eval: MonotoneInterpolant = field(repr=False, compare=False)
    source_eval: MonotoneInterpolant | None = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        for arr in (self.v0, self.u0, self.w0, self.dxw0, self.V0, self.W0, self.source):
            arr.setflags(write=False)

    def w0_at(self, xi: float | np.ndarray) -> float | np.ndarray:
        """w0(xi) for xi >= 0 through w0_eval: a float for a scalar xi, an
        array of the same values for an array."""
        out = self.w0_eval(xi)
        return float(out) if out.ndim == 0 else out


def validate_hypotheses(v0: np.ndarray, u0: np.ndarray, grid: Grid, params: PhysicalParams,
                        strict: bool = True) -> InitialData:
    """Check the admissibility hypotheses and assemble the derived data.

    Endpoint values, non-degeneracy signs, the second-order compatibility
    bracket at x = 0, and the decay/regularity norms are all evaluated; each
    gets a pass/fail entry with its residual.  With strict=True any failure
    raises HypothesisViolated listing every failed item.
    """
    v0 = as_field(v0, grid)
    u0 = as_field(u0, grid)
    h3_tol = max(100.0 * grid.dx**2, 1e-8)

    mu = params.mu
    prof = traveling_wave(params, grid)
    w0 = effective_velocity_about_wave(u0, v0, grid, params, prof)
    dxw0 = derivative(w0, grid, 1)
    V0 = tail_integral(v0 - prof.v_bar, grid)
    W0 = tail_integral(w0 - params.u_plus, grid)

    # one-sided traces: exact wave slopes plus stencils on the deviation only
    slopes = boundary_slope_constants(params)
    du0 = slopes["du"] + trace0(u0 - prof.u_bar, grid, 1)
    dv0 = slopes["dv"] + trace0(v0 - prof.v_bar, grid, 1)
    d2u0 = slopes["d2u"] + trace0(u0 - prof.u_bar, grid, 2)

    report: dict[str, dict] = {}
    failures: list[str] = []

    def record(name: str, ok: bool, detail: dict) -> None:
        report[name] = {"pass": bool(ok), **detail}
        if not ok:
            failures.append(f"{name}: " + ", ".join(f"{k}={v:.6g}" for k, v in detail.items()))

    endpoint_v = abs(float(v0[0]) - 1.0)
    endpoint_u = abs(float(u0[0]) - params.u_minus)
    record("H1: congested endpoint values", endpoint_v <= 1e-9 and endpoint_u <= 1e-9,
           {"v0_at_0_minus_1": endpoint_v, "u0_at_0_minus_u_minus": endpoint_u})

    sqrtx_dw = norm(dxw0, grid, NormKind.WEIGHTED_SQRT_X)
    sqrtx_d2w = norm(derivative(w0, grid, 2), grid, NormKind.WEIGHTED_SQRT_X)
    record("H2: weighted regularity of w0", np.isfinite(sqrtx_dw) and np.isfinite(sqrtx_d2w),
           {"sqrtx_dxw0_L2": sqrtx_dw, "sqrtx_dx2w0_L2": sqrtx_d2w})

    h3 = -(du0 * du0) / dv0 - mu * dv0 * du0 + mu * d2u0 if dv0 != 0.0 else np.inf
    record("H3: compatibility bracket at 0", abs(h3) <= h3_tol,
           {"residual": float(h3), "tol": h3_tol})

    min_excess = float(np.min(v0[1:]) - 1.0)
    record("H4: non-degeneracy",
           dv0 > 0.0 and du0 < 0.0 and min_excess > -1e-12,
           {"dx_v0_at_0": dv0, "dx_u0_at_0": du0, "min_v0_minus_1_on_xpos": min_excess})

    V0_l2 = norm(V0, grid, NormKind.L2)
    W0_w = norm(W0, grid, NormKind.WEIGHTED_ONE_PLUS_SQRT_X)
    record("H5: decay of integrated tails", np.isfinite(V0_l2) and np.isfinite(W0_w),
           {"V0_L2": V0_l2, "one_plus_sqrtx_W0_L2": W0_w})

    if strict and failures:
        raise HypothesisViolated(failures)

    source = truncation_mollifier(grid) * dxw0
    return InitialData(
        v0=v0.copy(), u0=u0.copy(), w0=w0, dxw0=dxw0, V0=V0, W0=W0, source=source,
        compat_speed=-du0 / dv0,
        hypothesis_report=report,
        w0_eval=monotone_interpolator(w0, grid, params.u_plus),
        source_eval=monotone_interpolator(source, grid, 0.0) if np.any(source) else None,
    )


def boundary_velocity(u: np.ndarray, w0_at_y: float, grid: Grid, params: PhysicalParams,
                      wave: Profiles) -> float:
    """Interface speed -mu d_x u(0) / (u_minus - w0(y)).

    The trace d_x u(0) is the exact wave slope plus the one-sided stencil of
    trace0 on u - uwave at the four nodes it reads, so the wave background
    contributes no stencil error to the speed.  u is a velocity field the
    caller has validated (a step_u result); `wave` is
    traveling_wave(params, grid).  A NaN w0(y) fails the floor.
    """
    denom = params.u_minus - w0_at_y
    if not denom >= DENOM_FLOOR:
        raise DenominatorTooSmall(
            f"u_minus - w0(y) = {denom:g} fell below the floor {DENOM_FLOOR:g}"
        )
    du = (boundary_slope_constants(params)["du"]
          + stencil_trace(u[:4] - wave.u_bar[:4], grid.dx, 1))
    return -params.mu * du / denom


def _start_speed(u: np.ndarray, y0: float, t_start: float, init: InitialData, grid: Grid,
                 params: PhysicalParams, wave: Profiles) -> float:
    """Interface speed at the first node of a march from state u at position
    y0.  A march from the initial data (t_start 0) starts at the
    data-determined init.compat_speed; a march from a carried state starts at
    boundary_velocity, the formula of every later node, so the speed path is
    continuous across windows and independent of where they start."""
    if t_start == 0.0:
        return init.compat_speed
    return boundary_velocity(u, init.w0_at(y0), grid, params, wave)


def _first_guess(speed0: float, steps: int, dt: float,
                 previous: np.ndarray | None) -> np.ndarray:
    """First Picard guess for a window of `steps` steps starting at speed0.

    The first window (previous None) starts flat.  A later window continues
    the previous window's converged speeds: speed0 + p(t) - p(0), where p is
    the least-squares cubic through them at times -m dt, ..., 0.
    """
    if previous is None:
        return np.full(steps + 1, speed0)
    m = previous.size - 1
    fit = P.polyval(dt * np.arange(steps + 1),
                    P.polyfit(dt * np.arange(-m, 1), previous, min(3, m)))
    return speed0 + (fit - fit[0])  # node 0 exactly speed0


@dataclass
class WindowReport:
    """Per-window fixed-point iteration record.

    Distances are the H1 metric the stopping rule uses; the H2 distances of
    the same iterates are kept for inspection only.
    """

    t_start: float
    iterations: int
    distances: list[float]
    ratios: list[float]
    h2_distances: list[float]


@dataclass
class Trajectory:
    """Time history of the coupled solve.

    Scalars (t, y, ydot, p_s) are kept at every step; field snapshots at the
    configured stride (first and last step always included).
    """

    t: np.ndarray
    y: np.ndarray
    ydot: np.ndarray
    p_s: np.ndarray
    stored_idx: np.ndarray
    v: np.ndarray
    u: np.ndarray
    windows: list[WindowReport]
    grid: Grid
    params: PhysicalParams
    init: InitialData
    wave: Profiles

    @property
    def path(self) -> BoundaryPath:
        return BoundaryPath(t=self.t.copy(), y=self.y.copy(), ydot=self.ydot.copy())

    @property
    def stored_times(self) -> np.ndarray:
        return self.t[self.stored_idx]


def _march(v: np.ndarray, u: np.ndarray, ydot: np.ndarray, y: np.ndarray,
           init: InitialData, grid: Grid, params: PhysicalParams, wave: Profiles,
           dt: float, newton_tol: float, t_start: float, keep: set[int] | tuple = ()
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Advance the fields along a given path (speeds ydot, global positions
    y); return re-derived speeds (_start_speed at the first node, then
    boundary_velocity after every step), the last state, and the (v, u) of
    each window-local step in `keep`, in step order, uncopied: step_v and
    step_u never write to their inputs.  A solver failure is re-raised with
    its time as attribute `t`."""
    steps = ydot.size - 1
    zdot = np.empty(ydot.size)
    zdot[0] = _start_speed(u, y[0], t_start, init, grid, params, wave)
    kept = []
    reg = regularized_log(2.0 * float(np.max(init.v0)))
    w0_y = init.w0_at(y)

    for k in range(1, steps + 1):
        src = 0.0 if init.source_eval is None else init.source_eval.shifted(y[k])
        try:
            v = step_v(v, ydot[k], src, grid, dt, reg, params, wave, newton_tol)
            u = step_u(u, v, ydot[k], grid, dt, params, wave)
            zdot[k] = boundary_velocity(u, w0_y[k], grid, params, wave)
        except RuntimeError as exc:
            exc.t = t_start + k * dt
            raise
        if k in keep:
            kept.append((v, u))
    return zdot, v, u, kept


def apply_boundary_map(path_in: BoundaryPath, init: InitialData, grid: Grid,
                       params: PhysicalParams, dt: float,
                       newton_tol: float = DEFAULT_NEWTON_TOL) -> BoundaryPath:
    """One application of the fixed-point map: solve v then u along path_in,
    then re-derive the interface path from the boundary trace of u."""
    if abs(path_in.y[0]) > 1e-12:
        raise ValidationError("input path must start at y(0) = 0")
    compat_tol = 10.0 * (grid.dx**2 + dt)
    if abs(path_in.ydot[0] - init.compat_speed) > compat_tol:
        raise ValidationError(
            f"input path speed at t=0 is {path_in.ydot[0]:g}, "
            f"expected the data-determined value {init.compat_speed:g} "
            f"within {compat_tol:g}"
        )
    zdot, *_ = _march(init.v0, init.u0, path_in.ydot, path_in.y, init, grid, params,
                      traveling_wave(params, grid), dt, newton_tol, t_start=0.0)
    return make_path(path_in.t, zdot)


def is_multiple(total: float, step: float) -> bool:
    """Whether total is a whole number of steps, to 1e-9 relative."""
    steps = total / step  # inf for a subnormal step, which round() cannot take
    return steps < 2.0**53 and abs(round(steps) * step - total) <= 1e-9 * max(1.0, total)


def picard_solve(init: InitialData, grid: Grid, params: PhysicalParams, T_final: float,
                 dt: float, tol: float = 1e-8, max_iter: int = 25,
                 window: float | None = None, stride: int = 10,
                 newton_tol: float = DEFAULT_NEWTON_TOL) -> Trajectory:
    """Fixed-point solve of the coupled interface/fields problem up to T_final.

    The horizon is split into windows of length `window` (default 0.25/s, on
    which the map contracts); within each window the path is iterated from
    _first_guess until the discrete H1 distance between successive speed
    iterates drops below `tol`, then the state is advanced along the
    converged path and the next window starts from it, at _start_speed.  The
    wave background is sampled once and kept on the trajectory as `wave`.
    """
    if not (isinstance(stride, Integral) and stride >= 1):  # range() takes no float
        raise ValidationError(f"stride must be an integer of at least 1 (got {stride!r})")
    if window is None:
        window = 0.25 / params.s
    for name, value in (("T_final", T_final), ("dt", dt), ("window", window)):
        if not 0.0 < value < np.inf:
            raise ValidationError(f"{name} must be finite and positive (got {value})")
    for name, value in (("tol", tol), ("newton_tol", newton_tol)):
        if not value > 0.0:  # an infinite tol accepts the first iterate
            raise ValidationError(f"{name} must be positive (got {value})")
    if not is_multiple(T_final, dt):
        raise ValidationError(f"T_final={T_final:g} must be a multiple of dt={dt:g}")
    n_total = int(round(T_final / dt))
    steps_per_window = max(1, int(round(window / dt)))

    t_all = dt * np.arange(n_total + 1)
    y_all = np.zeros(n_total + 1)
    ydot_all = np.zeros(n_total + 1)
    # the multiples of stride and the last step, through range: stride may
    # exceed every numpy integer type
    stored_idx = np.array([*range(0, n_total, stride), n_total])
    v_stored, u_stored = np.empty((2, stored_idx.size, grid.n))
    v_stored[0], u_stored[0] = init.v0, init.u0
    windows: list[WindowReport] = []

    wave = traveling_wave(params, grid)
    v, u = init.v0, init.u0
    y_offset = 0.0
    k_done = 0
    ydot_all[0] = init.compat_speed
    ydot = None  # the previous window's converged speeds

    while k_done < n_total:
        steps = min(steps_per_window, n_total - k_done)
        t_loc = dt * np.arange(steps + 1)
        t_start = k_done * dt
        speed0 = _start_speed(u, y_offset, t_start, init, grid, params, wave)
        ydot = _first_guess(speed0, steps, dt, ydot)
        y = y_offset + cumulative_trapezoid(ydot, dt)

        distances: list[float] = []
        ratios: list[float] = []
        h2_distances: list[float] = []
        converged = False
        for _ in range(max_iter):
            zdot, *_ = _march(v, u, ydot, y, init, grid, params, wave, dt, newton_tol,
                              t_start)
            d = path_h1_norm(t_loc, zdot - ydot)
            if distances:
                ratios.append(d / distances[-1] if distances[-1] > 0 else 0.0)
            distances.append(d)
            h2_distances.append(path_h2_distance(t_loc, zdot, ydot))
            ydot = zdot
            y = y_offset + cumulative_trapezoid(ydot, dt)
            if d <= tol:
                converged = True
                break
        if not converged:
            raise PicardStalled(
                f"no fixed point after {max_iter} iterations on window starting "
                f"t={t_start:g} (last distance {distances[-1]:g})",
                last_ratio=ratios[-1] if ratios else np.inf,
            )
        windows.append(WindowReport(t_start=t_start, iterations=len(distances),
                                    distances=distances, ratios=ratios,
                                    h2_distances=h2_distances))

        # definitive pass along the converged path, keeping the stored fields
        rows = np.flatnonzero((stored_idx > k_done) & (stored_idx <= k_done + steps))
        _, v, u, kept = _march(v, u, ydot, y, init, grid, params, wave, dt, newton_tol,
                               t_start, keep=set((stored_idx[rows] - k_done).tolist()))
        for r, (v_k, u_k) in zip(rows, kept):
            v_stored[r], u_stored[r] = v_k, u_k
        y_all[k_done + 1:k_done + steps + 1] = y[1:]
        ydot_all[k_done + 1:k_done + steps + 1] = ydot[1:]
        y_offset = y[-1]
        k_done += steps

    return Trajectory(
        t=t_all, y=y_all, ydot=ydot_all,
        p_s=ydot_all * (params.u_minus - init.w0_eval(y_all)),
        stored_idx=stored_idx, v=v_stored, u=u_stored,
        windows=windows, grid=grid, params=params, init=init, wave=wave,
    )


def invariant_set_check(path: BoundaryPath, M: float, params: PhysicalParams) -> dict:
    """Membership report for the admissible path set with constant M:
    speeds within [1/M, M] and H1 deviation of the speed from s at most M."""
    beta_h1 = path_h1_norm(path.t, path.ydot - params.s)
    ydot_min = float(np.min(path.ydot))
    ydot_max = float(np.max(path.ydot))
    lower_ok = ydot_min >= 1.0 / M
    upper_ok = ydot_max <= M
    norm_ok = beta_h1 <= M
    return {
        "ydot_min": ydot_min,
        "ydot_max": ydot_max,
        "beta_h1": beta_h1,
        "lower_ok": lower_ok,
        "upper_ok": upper_ok,
        "norm_ok": norm_ok,
        "pass": lower_ok and upper_ok and norm_ok,
    }


def assemble_solution(traj: Trajectory, grid: Grid, params: PhysicalParams,
                      t_index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Full-line snapshot (x, v, u, p) in the original frame at a stored time.

    Left of the interface: the congested constants (1, u_minus, p_s(t));
    right of it: the shifted half-line fields with zero pressure.
    """
    if not 0 <= t_index < traj.stored_idx.size:
        raise ValidationError(
            f"t_index {t_index} outside stored range [0, {traj.stored_idx.size})"
        )
    step = int(traj.stored_idx[t_index])
    xt = traj.y[step]
    pt = traj.p_s[step]
    n_left = max(int(round(0.2 * grid.R / grid.dx)), 2)
    x_left = xt - grid.dx * np.arange(n_left, 0, -1)
    x = np.concatenate((x_left, xt + grid.x))
    v = np.concatenate((np.ones(n_left), traj.v[t_index]))
    u = np.concatenate((np.full(n_left, params.u_minus), traj.u[t_index]))
    p = np.concatenate((np.full(n_left, pt), np.zeros(grid.n)))
    return x, v, u, p


def reconstruction_residuals(traj: Trajectory, init: InitialData, grid: Grid,
                             params: PhysicalParams) -> np.ndarray:
    """L2 residual, per stored time, of the transport representation of the
    effective velocity: u - mu d_x ln v against w0 sampled at x + y(t).

    The modified system is equivalent to the original one exactly when this
    vanishes, so the residual certifies the reconstruction argument."""
    targets = shift_sample(init.w0, grid, traj.y[traj.stored_idx], params.u_plus)
    out = np.empty(traj.stored_idx.size)
    for i, target in enumerate(targets):
        w_s = effective_velocity_about_wave(traj.u[i], traj.v[i], grid, params, traj.wave)
        out[i] = norm(w_s - target, grid, NormKind.L2)
    return out
