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

import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral

import numpy as np

from .core import Grid, PhysicalParams, ValidationError, as_field
from .discrete_ops import (
    MonotoneInterpolant,
    NormKind,
    cumulative_trapezoid,
    derivative,
    integrate,
    monotone_interpolator,
    norm,
    shift_sample,
    stencil_derivative,
    stencil_trace,
    tail_integral,
    trace0,
    trapezoid_weights,
)
from .parabolic import (
    RegularizedLog,
    StepWork,
    step_u,
    step_v,
    truncation_mollifier,
)
from .profiles import (
    Profiles,
    effective_velocity_about_wave,
    effective_velocity_of_deviation,
    traveling_wave,
)

DENOM_FLOOR = 1e-8

DEFAULT_PICARD_TOL = 1e-8

# stored snapshots a post-solve certificate holds at once: it walks the stored
# history in blocks of this many rows, so its memory is O(ROW_BLOCK * n)
ROW_BLOCK = 8

# nodes past the last difference from the wave that Trajectory.head keeps: the
# certificates' widest stencil, a first derivative of a second one, reads four
# nodes on, so every stencil at the head's last node reads exact zeros
HEAD_HALO = 8

# the active length rule of _march.  The inverses of the implicit steps decay
# geometrically off the diagonal, so a Dirichlet cut this far into the region
# where the state is the wave moves the interface trace by far less than roundoff
ACTIVE_FLOOR = 1e-20
ACTIVE_GUARD = 128


class HypothesisViolated(ValidationError):
    """Initial data failed one or more admissibility hypotheses: `failures`
    names each failed item, and `report` holds the pass/fail entry of every
    hypothesis, as InitialData.hypothesis_report does for admissible data."""

    def __init__(self, failures: list[str], report: dict):
        self.failures = failures
        self.report = report
        super().__init__("; ".join(failures))


class DenominatorTooSmall(RuntimeError):
    """u_minus - w0(y) fell below the non-degeneracy floor."""


class PicardStalled(RuntimeError):
    """Fixed-point iteration hit its iteration cap on the window starting at
    time t."""

    def __init__(self, message: str, last_ratio: float, t: float):
        self.last_ratio = last_ratio
        self.t = t
        super().__init__(message)


@dataclass(frozen=True)
class BoundaryPath:
    """Interface position and speed on a uniform time mesh.

    y(0) = 0 and ydot > 0 at every node.  make_path's y is the cumulative
    trapezoidal integral of ydot; a run's (Trajectory.path) is integrated
    window by window.
    """

    t: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    ydot: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        for arr in (self.t, self.y, self.ydot):
            arr.setflags(write=False)


def make_path(t: np.ndarray, ydot: np.ndarray) -> BoundaryPath:
    """Path from nodal speeds on a mesh of one or more finite, strictly
    increasing times; position by cumulative trapezoid from y(0)=0."""
    t = np.asarray(t, float)
    ydot = np.asarray(ydot, float)
    if t.shape != ydot.shape or t.ndim != 1:
        raise ValidationError("path times and speeds must be 1-D arrays of equal length")
    if not (t.size and np.all(np.isfinite(t)) and np.all(np.diff(t) > 0.0)):
        raise ValidationError("path times must be at least one node, finite and strictly "
                              "increasing")
    if not np.all((ydot > 0.0) & (ydot < np.inf)):  # NaN fails both
        raise ValidationError(f"path speed must stay finite and positive (min {np.min(ydot):g}, "
                              f"max {np.max(ydot):g})")
    return BoundaryPath(t=t, y=cumulative_trapezoid(ydot, np.diff(t)), ydot=ydot)


def time_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Second-order finite differences on a uniform time mesh, along axis 0
    (one row per time: nodal values, or whole fields)."""
    values = np.asarray(values, float)
    if values.shape[0] >= 3:
        return stencil_derivative(values, dt, 1)
    return np.full_like(values, (values[-1] - values[0]) / (dt * max(values.shape[0] - 1, 1)))


def _on_uniform_mesh(t: np.ndarray, t0: float, dt: float) -> bool:
    """Whether the times t are t0, t0 + dt, t0 + 2 dt, ..., each to 1e-9
    relative to the last (NaN is not)."""
    mesh = t0 + dt * np.arange(t.size)
    return bool(np.all(np.abs(t - mesh) <= 1e-9 * max(1.0, abs(mesh[-1]))))


def running_h1_norm(t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Discrete H1(0, t_k) norm of nodal values at every node t_k of a uniform
    time mesh: the cumulative trapezoid of f^2 + (f')^2, with f' from
    time_derivative on the whole mesh.  A non-uniform t is a
    ValidationError."""
    t = np.asarray(t, float)
    f = np.asarray(f, float)
    if t.size < 2:
        return np.zeros_like(f)
    dt = float(t[1] - t[0])
    if not _on_uniform_mesh(t, t[0], dt):
        raise ValidationError(f"running_h1_norm needs a uniform time mesh; the nodes "
                              f"{t[0]:g}, {t[1]:g}, ... do not step by {dt:g} throughout")
    df = time_derivative(f, dt)
    return np.sqrt(cumulative_trapezoid(f**2 + df**2, dt))


@dataclass(frozen=True)
class InitialData:
    """Validated initial state plus derived quantities used by the solver.

    w0 is the initial effective velocity u0 - mu d_x ln v0 (transported
    rigidly by the interface motion), dxw0 and d2w0 its first two
    derivatives, V0 and W0 the integrated tails of the volume and
    effective-velocity perturbations.  source is the mollified chi d_x w0
    that the volume equation transports.  w0_eval and source_eval evaluate
    w0 and source at points x >= 0 (monotone_interpolator with tails
    u_plus and 0); source_eval is None when the source is identically
    zero.  wave is traveling_wave(params, grid), the background of every
    march and certificate, and reg the regularized log with bar_c = 2 max
    v0 that step_v applies.  validate_hypotheses builds each of them once
    per datum, and records the grid and params it validated the datum on;
    the solver runs the datum on no other.
    """

    v0: np.ndarray = field(repr=False)
    u0: np.ndarray = field(repr=False)
    w0: np.ndarray = field(repr=False)
    dxw0: np.ndarray = field(repr=False)
    d2w0: np.ndarray = field(repr=False)
    V0: np.ndarray = field(repr=False)
    W0: np.ndarray = field(repr=False)
    source: np.ndarray = field(repr=False)
    compat_speed: float
    hypothesis_report: dict
    w0_eval: MonotoneInterpolant = field(repr=False, compare=False)
    source_eval: MonotoneInterpolant | None = field(repr=False, compare=False)
    wave: Profiles = field(repr=False, compare=False)
    reg: RegularizedLog = field(repr=False, compare=False)
    grid: Grid = field(repr=False, compare=False)
    params: PhysicalParams = field(compare=False)

    def __post_init__(self) -> None:
        for a in (self.v0, self.u0, self.w0, self.dxw0, self.d2w0, self.V0, self.W0, self.source):
            a.setflags(write=False)

    @cached_property
    def trace_evals(self) -> tuple[MonotoneInterpolant, MonotoneInterpolant]:
        """The evaluators of w0' and w0'' (dxw0 and d2w0, tail 0) that the
        boundary-trace identities read, built on the first read."""
        return (monotone_interpolator(self.dxw0, self.grid, 0.0),
                monotone_interpolator(self.d2w0, self.grid, 0.0))

    def w0_at(self, xi: float) -> float:
        """w0(xi) at a point xi >= 0, as a float, through w0_eval."""
        return self.w0_eval.at(float(xi))

    def check_run_on(self, grid: Grid, params: PhysicalParams) -> None:
        """ValidationError unless grid (its R and n) and params are those the
        datum was validated on: its wave, source and w0 table belong to
        them."""
        if (grid.R, grid.n) != (self.grid.R, self.grid.n) or params != self.params:
            raise ValidationError(
                f"the datum was validated on R={self.grid.R:g}, n={self.grid.n} with "
                f"{self.params}; it cannot run on R={grid.R:g}, n={grid.n} with {params}")


def validate_hypotheses(v0: np.ndarray, u0: np.ndarray, grid: Grid,
                        params: PhysicalParams) -> InitialData:
    """Check the admissibility hypotheses and assemble the derived data.

    Endpoint values, non-degeneracy signs, the second-order compatibility
    bracket at x = 0, and the decay/regularity norms are all evaluated; each
    gets a pass/fail entry with its residual.  Any failure raises
    HypothesisViolated, listing every failed item and carrying the report.
    """
    v0 = as_field(v0, grid)
    u0 = as_field(u0, grid)
    h3_tol = max(100.0 * grid.dx**2, 1e-8)

    mu = params.mu
    prof = traveling_wave(params, grid)
    w0 = effective_velocity_about_wave(u0, v0, grid, params, prof)
    dxw0, d2w0 = derivative(w0, grid, 1), derivative(w0, grid, 2)
    V0 = tail_integral(v0 - prof.v_bar, grid)
    W0 = tail_integral(w0 - params.u_plus, grid)

    # one-sided traces: exact wave slopes plus stencils on the deviation only
    du0 = prof.du0 + trace0(u0 - prof.u_bar, grid, 1)
    dv0 = prof.dv0 + trace0(v0 - prof.v_bar, grid, 1)
    d2u0 = prof.d2u0 + trace0(u0 - prof.u_bar, grid, 2)

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
    sqrtx_d2w = norm(d2w0, grid, NormKind.WEIGHTED_SQRT_X)
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

    if failures:
        raise HypothesisViolated(failures, report)

    source = truncation_mollifier(grid) * dxw0
    return InitialData(
        v0=v0.copy(), u0=u0.copy(), w0=w0, dxw0=dxw0, d2w0=d2w0, V0=V0, W0=W0, source=source,
        compat_speed=-du0 / dv0,
        hypothesis_report=report,
        w0_eval=monotone_interpolator(w0, grid, params.u_plus),
        source_eval=monotone_interpolator(source, grid, 0.0) if np.any(source) else None,
        wave=prof, reg=RegularizedLog(2.0 * float(np.max(v0))), grid=grid, params=params,
    )


def boundary_velocity(u: np.ndarray, w0_at_y: float, grid: Grid, params: PhysicalParams,
                      wave: Profiles) -> float:
    """Interface speed -mu d_x u(0) / (u_minus - w0(y)).

    The trace d_x u(0) is the exact wave slope wave.du0 plus the one-sided
    stencil of trace0 on u - uwave at the four nodes it reads, so the wave
    background contributes no stencil error to the speed.  u is a velocity
    field the caller has validated (a step_u result); `wave` is
    traveling_wave(params, grid).  A NaN w0(y) fails the floor.  It runs
    after every step, so it allocates no array: u's entries less wave.u_lead.
    """
    denom = params.u_minus - w0_at_y
    if not denom >= DENOM_FLOOR:
        raise DenominatorTooSmall(
            f"u_minus - w0(y) = {denom:g} fell below the floor {DENOM_FLOOR:g}"
        )
    at, (w0, w1, w2, w3) = u.item, wave.u_lead
    head = (at(0) - w0, at(1) - w1, at(2) - w2, at(3) - w3)
    return -params.mu * (wave.du0 + stencil_trace(head, grid.dx, 1)) / denom


@dataclass
class WindowReport:
    """Per-window fixed-point iteration record: the H1 distance between
    successive speed iterates at each iteration, the metric the stopping rule
    reads.  The iteration count and contraction ratios derive from them.

    It also records the active length of every march of the window:
    `active_start`, the last node m every march starts with, and one list
    per march, in march order (the last one the pass that keeps the fields),
    of each widening (time, from m, to m) of the state at that time, before
    the next step."""

    t_start: float
    distances: list[float] = field(default_factory=list)
    active_start: int = 0
    widenings: list[list[tuple[float, int, int]]] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.distances)

    @property
    def ratios(self) -> list[float]:
        """d[k+1] / d[k] for successive distances; 0 after a zero distance."""
        d = self.distances
        return [b / a if a > 0 else 0.0 for a, b in zip(d, d[1:])]

    @property
    def active_nodes(self) -> int:
        """The largest last active node of any march of the window."""
        return max([self.active_start] + [to for march in self.widenings
                                          for *_, to in march])


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
    init: InitialData

    @property
    def path(self) -> BoundaryPath:
        """The run's t, y and ydot, copied.  Each window's positions integrate
        that window's speeds from its start.  The speed stored at a window's
        first node is the previous window's last converged speed, within tol
        of the start speed the window steps from, so across a join y differs
        from the cumulative trapezoid of ydot by up to about dt * tol / 2
        (4.8e-13 at the first join of the bootstrap datum, n = 257, dt = 2e-3)."""
        return BoundaryPath(t=self.t.copy(), y=self.y.copy(), ydot=self.ydot.copy())

    @property
    def stored_times(self) -> np.ndarray:
        return self.t[self.stored_idx]

    @cached_property
    def head(self) -> int:
        """The head length P = min(n, L + 1 + HEAD_HALO), with L the last
        node where some stored row of v or u differs from the wave at all
        (-1 where none does).  The datum's row counts, differences below
        ACTIVE_FLOOR included.  Past node L every stored row is the wave
        exactly, so the deviations and every derivative of them that the
        certificates take are exact zeros on the head's last nodes and past
        them.  Found on the first read, ROW_BLOCK stored rows at a time."""
        wave, last = self.init.wave, -1
        for start in range(0, self.stored_idx.size, ROW_BLOCK):
            rows = slice(start, start + ROW_BLOCK)
            off = (self.v[rows] != wave.v_bar) | (self.u[rows] != wave.u_bar)
            nodes = np.flatnonzero(off.any(0))
            if nodes.size:
                last = max(last, int(nodes[-1]))
        return min(last + 1 + HEAD_HALO, self.init.grid.n)

    @cached_property
    def deviations(self) -> dict[str, np.ndarray]:
        """Per stored row, the norms of g = v - vwave ("v_l1", "v_l2", "v_h1",
        "v_linf") and h = u - uwave ("u_l2", "u_linf"), those of norm, and the
        residual of reconstruction_residuals ("reconstruction").  The stored
        rows are walked once, ROW_BLOCK rows at a time, on the first read, and
        only on the nodes [0, head): past them g, h and their derivatives are
        exact zeros, so they integrate against the head's own trapezoid
        weights.  Past the head the effective velocity is exactly u_plus, so
        the reconstruction integrand there is u_plus - w0(x + y), on whole
        rows against the whole grid's weights.
        The arrays are read-only, since every consumer of the run shares them."""
        init = self.init
        grid, params, head = init.grid, init.params, self.head
        weights, whole = trapezoid_weights(grid.x[:head]), trapezoid_weights(grid.x)
        v_bar, u_bar = init.wave.v_bar[:head], init.wave.u_bar[:head]
        out = {key: np.empty(self.stored_idx.size)
               for key in ("v_l1", "v_l2", "v_h1", "v_linf", "u_l2", "u_linf", "reconstruction")}
        for start in range(0, self.stored_idx.size, ROW_BLOCK):
            rows = slice(start, start + ROW_BLOCK)
            G, H = self.v[rows, :head] - v_bar, self.u[rows, :head] - u_bar
            g_sq = integrate(G**2, weights)
            Gx = stencil_derivative(G.T, grid.dx, 1).T
            out["v_l1"][rows] = integrate(np.abs(G), weights)
            out["v_l2"][rows] = np.sqrt(g_sq)
            out["v_h1"][rows] = np.sqrt(g_sq + integrate(Gx**2, weights))
            out["v_linf"][rows] = np.max(np.abs(G), axis=1)
            out["u_l2"][rows] = np.sqrt(integrate(H**2, weights))
            out["u_linf"][rows] = np.max(np.abs(H), axis=1)
            # the integrand w - w0(x + y), written over the sampled targets
            f = shift_sample(init.w0_eval, self.y[self.stored_idx[rows]])
            w = effective_velocity_of_deviation(G.T, H.T, v_bar[:, None], grid.dx, params).T
            np.subtract(w, f[:, :head], out=f[:, :head])
            np.subtract(params.u_plus, f[:, head:], out=f[:, head:])
            out["reconstruction"][rows] = np.sqrt(integrate(np.square(f, out=f), whole))
        for values in out.values():
            values.setflags(write=False)
        return out

    def check_stored_index(self, t_index: int) -> None:
        """ValidationError unless t_index indexes a stored row: an int, no bool."""
        if not (isinstance(t_index, Integral) and not isinstance(t_index, bool)
                and 0 <= t_index < self.stored_idx.size):
            raise ValidationError(
                f"t_index {t_index!r} is not a stored-time index in [0, {self.stored_idx.size})")

    def check_certified_with(self, init: InitialData, grid: Grid,
                             params: PhysicalParams) -> None:
        """ValidationError unless init is the run's own datum and grid and
        params the setting it ran on, the inputs of every post-solve
        certificate."""
        if init is not self.init:
            raise ValidationError("a certificate of a run takes the run's own datum, traj.init")
        init.check_run_on(grid, params)


def _march(v: np.ndarray, u: np.ndarray, ydot: np.ndarray, y: np.ndarray,
           init: InitialData, dt: float, t_start: float,
           keep: dict[int, tuple[np.ndarray, np.ndarray]] | None = None,
           history: tuple[np.ndarray, np.ndarray] | None = None,
           report: WindowReport | None = None
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance the fields along a given path (speeds ydot from the position
    y[0]) on the grid, params and wave of init; return re-derived speeds z
    and the last state (v, u).  `keep` maps a window-local step to the rows
    (v_row, u_row) the march writes that step's state into.  A solver
    failure is re-raised with its time as attribute `t`.

    z[0] has one rule: a march from the data (t_start 0) starts at the
    data-determined init.compat_speed, and a march from a carried state at
    boundary_velocity of (u, w0(y[0])), the formula of every later node
    z[k].  So the speed path is continuous across windows and independent
    of where they start.

    y has one rule too: it is the path's position buffer, and before step k
    the march writes y[k] = y[0] + the trapezoid sum of ydot up to node k,
    in cumulative_trapezoid's order.  With `history`, the speeds and the
    positions of the two nodes before node 0 (converged ones, or the path
    held flat before t = 0 at init.compat_speed and position 0), it first
    predicts ydot[k] from its own speeds, after ydot[0] = z[0].  The
    numerator N = z (u_minus - w0(y)) of the speed, -mu d_x u(0), is smooth
    where the PCHIP-sampled w0 is only C^1, so ydot[k] = (3 N[k-1] - 3 N[k-2]
    + N[k-3]) / (u_minus - w0(y_hat)), at y_hat = y[k-1] + dt (ydot[k-1] +
    3 z[k-1] - 3 z[k-2] + z[k-3]) / 2, history standing in for nodes -2 and
    -1 (z[k-1] when that is not finite and positive).  Step k reads only
    ydot[0..k] and y[k], so marching the filled path again without history
    gives the same speeds bit for bit.

    The march steps only the active nodes [0, m], with the wave value as
    the Dirichlet value at node m, as at node n - 1 of the whole grid.  m
    starts ACTIVE_GUARD nodes past the last node where v or u differs from
    the wave by more than ACTIVE_FLOOR or the source row at y[0] is nonzero
    (the source only moves left), and at most at n - 1.  Before each step
    k, m widens by ACTIVE_GUARD nodes as long as at the check node
    c = m - ACTIVE_GUARD / 2 the state differs from the wave by more than
    ACTIVE_FLOOR or the step's speed-deviation source
    dt |ydot[k] - s| |du_bar[c]|, which step_u adds at every node, exceeds
    it.  The state is one whole-field pair that the march allocates: a
    copy of the wave with the input's nodes [0, m] written in, whose head
    [0, m] each step overwrites: step_v and step_u get the head as both
    their input and their output.  So past m it is the wave, a widening
    only moves m, and the input state is never written.  The steps run on
    the grid and wave of the head of one whole-grid StepWork, built with
    the march's first head and cut again at each widening, and write their
    temporaries into it; each step's source row is sampled into its
    `source` row, so no step allocates an array.
    With `report`, the march records its start and widenings there.
    """
    steps = ydot.size - 1
    grid, params, wave, source = init.grid, init.params, init.wave, init.source_eval
    n, s, u_minus = grid.n, params.s, params.u_minus
    y0 = float(y[0])
    # the march's one InitialData.w0_at call (perfbench's tracer counts it);
    # every other w0 value comes from the interpolant's scalar path directly
    w0_y0, w0 = init.w0_at(y0), init.w0_eval.at
    zdot = np.empty(ydot.size)
    zdot[0] = (init.compat_speed if t_start == 0.0
               else boundary_velocity(u, w0_y0, grid, params, wave))
    off = np.abs(v - wave.v_bar) > ACTIVE_FLOOR
    off |= np.abs(u - wave.u_bar) > ACTIVE_FLOOR
    if source is not None:
        off |= source.shifted(y0) != 0.0
    last = np.flatnonzero(off)
    m = min((int(last[-1]) if last.size else 0) + ACTIVE_GUARD, n - 1)
    work = StepWork(grid, wave, m + 1)
    v_all, u_all = wave.v_bar.copy(), wave.u_bar.copy()
    # the views of the state's head, which each step reads and overwrites
    v_head, u_head = v_all[:m + 1], u_all[:m + 1]
    v_head[:], u_head[:] = v[:m + 1], u[:m + 1]
    widened = []
    if report is not None:
        report.active_start = m
        report.widenings.append(widened)
    if history is not None:
        # z[k-3], z[k-2], z[k-1] and the numerators N = z (u_minus - w0(y)) there
        (z3, z2), (y3, y2) = (row.tolist() for row in history)
        z1 = float(zdot[0])
        n3, n2, n1 = z3 * (u_minus - w0(y3)), z2 * (u_minus - w0(y2)), z1 * (u_minus - w0_y0)
        ydot[0] = z1
    # the bookkeeping runs on Python floats: the speed and position of the
    # node before the step, and the running trapezoid sum of the positions
    running = 0.0
    ydot_prev, y_prev = float(ydot[0]), y0
    v_at, u_at = v_all.item, u_all.item
    v_bar_at, u_bar_at, du_bar_at = wave.v_bar.item, wave.u_bar.item, wave.du_bar.item
    shifted = None if source is None else source.shifted

    for k in range(1, steps + 1):
        if history is not None:
            y_hat = y_prev + 0.5 * (ydot_prev + (3.0 * z1 - 3.0 * z2 + z3)) * dt
            d_hat = u_minus - w0(y_hat)
            pred = (3.0 * n1 - 3.0 * n2 + n3) / d_hat if d_hat > 0.0 else math.nan
            ydot[k] = ydot_k = pred if 0.0 < pred < math.inf else z1  # NaN fails
        else:
            ydot_k = float(ydot[k])
        running += 0.5 * (ydot_prev + ydot_k) * dt
        y[k] = y_k = y0 + running
        w0_yk = w0(y_k)
        spread = dt * abs(ydot_k - s)
        while m < n - 1:
            c = m - ACTIVE_GUARD // 2  # after a widening the state there is the wave
            if not (abs(v_at(c) - v_bar_at(c)) > ACTIVE_FLOOR
                    or abs(u_at(c) - u_bar_at(c)) > ACTIVE_FLOOR
                    or spread * abs(du_bar_at(c)) > ACTIVE_FLOOR):
                break
            wider = min(m + ACTIVE_GUARD, n - 1)
            widened.append((t_start + (k - 1) * dt, m, wider))
            m = wider
            work.head(m + 1)
            v_head, u_head = v_all[:m + 1], u_all[:m + 1]
        src = 0.0 if shifted is None else shifted(y_k, m + 1, work.source)
        try:
            step_v(v_head, ydot_k, src, work.grid, dt, init.reg, params, work.wave, out=v_head,
                   work=work)
            step_u(u_head, v_head, ydot_k, work.grid, dt, params, work.wave, out=u_head, work=work)
            zdot[k] = z = boundary_velocity(u_head, w0_yk, work.grid, params, work.wave)
        except RuntimeError as exc:
            exc.t = t_start + k * dt
            raise
        if history is not None:
            z3, z2, z1 = z2, z1, z
            n3, n2, n1 = n2, n1, z * (u_minus - w0_yk)
        if keep and k in keep:
            v_row, u_row = keep[k]
            v_row[:], u_row[:] = v_all, u_all
        ydot_prev, y_prev = ydot_k, y_k
    return zdot, v_all, u_all


def apply_boundary_map(path_in: BoundaryPath, init: InitialData, grid: Grid,
                       params: PhysicalParams, dt: float) -> BoundaryPath:
    """One application of the fixed-point map: solve v then u along path_in,
    then re-derive the interface path from the boundary trace of u.  The
    path's times must be the uniform mesh 0, dt, 2 dt, ... that it is
    marched on, and grid and params those init was validated on.  The march
    writes its own positions from path_in.ydot (_march's position rule)."""
    init.check_run_on(grid, params)
    if abs(path_in.y[0]) > 1e-12:
        raise ValidationError("input path must start at y(0) = 0")
    if not _on_uniform_mesh(path_in.t, 0.0, dt):
        raise ValidationError(f"input path times must be the uniform mesh of dt={dt:g}")
    compat_tol = 10.0 * (grid.dx**2 + dt)
    if abs(path_in.ydot[0] - init.compat_speed) > compat_tol:
        raise ValidationError(
            f"input path speed at t=0 is {path_in.ydot[0]:g}, "
            f"expected the data-determined value {init.compat_speed:g} "
            f"within {compat_tol:g}"
        )
    zdot, *_ = _march(init.v0, init.u0, path_in.ydot, path_in.y.copy(), init, dt, t_start=0.0)
    return make_path(path_in.t, zdot)


def is_multiple(total: float, step: float) -> bool:
    """Whether total is a whole number of steps, to 1e-9 relative."""
    steps = total / step  # inf for a subnormal step, which round() cannot take
    return steps < 2.0**53 and abs(round(steps) * step - total) <= 1e-9 * max(1.0, total)


def picard_solve(init: InitialData, grid: Grid, params: PhysicalParams, T_final: float,
                 dt: float, tol: float = DEFAULT_PICARD_TOL, max_iter: int = 25,
                 window: float | None = None, stride: int = 10) -> Trajectory:
    """Fixed-point solve of the coupled interface/fields problem up to T_final.

    The horizon is split into windows of length `window`, a whole number of
    steps (default 0.25/s rounded to whole steps, on which the map
    contracts); within each window the path is iterated until
    the discrete H1 distance between successive speed iterates drops below
    `tol`, then the state is advanced along the converged path and the next
    window starts from it.  A march sets its own first speed (_march's start
    rule) and writes its own positions (its position rule) into the window's
    view of the run's position array, so the definitive march leaves the
    run's positions there.  Each window's first march predicts its own path
    (_march's history) from the speeds and positions of the two nodes before
    the window, so its first iterate is already close to the fixed point.
    Those are the converged ones, and before t = 0 the path held flat at
    init.compat_speed and position 0, for a window with fewer than two
    converged nodes before it (the first, and the second when windows are
    one step).  A caller-fixed `window` keeps the plain map there instead:
    such a window iterates from a flat guess, the last converged speed from
    the last converged position, which is the map whose contraction the
    first window's distances show.  The wave background is init.wave; grid
    and params must be those init was validated on.
    """
    init.check_run_on(grid, params)
    for name, value in (("stride", stride), ("max_iter", max_iter)):
        if not (isinstance(value, Integral) and value >= 1):  # range() takes no float
            raise ValidationError(f"{name} must be an integer of at least 1 (got {value!r})")
    for name, value in (("T_final", T_final), ("dt", dt), ("window", window)):
        if value is not None and not 0.0 < value < np.inf:
            raise ValidationError(f"{name} must be finite and positive (got {value})")
    if not tol > 0.0:  # an infinite tol accepts the first iterate
        raise ValidationError(f"tol must be positive (got {tol})")
    for name, value in (("T_final", T_final), ("window", window)):
        if value is not None and not is_multiple(value, dt):
            raise ValidationError(f"{name}={value:g} must be a multiple of dt={dt:g}")
    n_total = int(round(T_final / dt))
    steps_per_window = max(1, int(round((0.25 / params.s if window is None else window) / dt)))

    t_all = dt * np.arange(n_total + 1)
    # the run's speeds and positions after two nodes of the path held flat
    # before t = 0, at speed init.compat_speed and position 0 (so the speed's
    # numerator is flat there too): the history that stands in for the
    # converged nodes a self-partitioned window does not have yet
    speeds = np.full(n_total + 3, init.compat_speed)
    positions = np.zeros(n_total + 3)
    ydot_all, y_all = speeds[2:], positions[2:]
    # the multiples of stride and the last step, through range: stride may
    # exceed every numpy integer type
    stored_idx = np.array([*range(0, n_total, stride), n_total])
    v_stored, u_stored = np.empty((2, stored_idx.size, grid.n))
    v_stored[0], u_stored[0] = init.v0, init.u0
    windows: list[WindowReport] = []

    v, u = init.v0, init.u0
    k_done = 0

    while k_done < n_total:
        steps = min(steps_per_window, n_total - k_done)
        t_loc = dt * np.arange(steps + 1)
        t_start = k_done * dt
        ydot = np.full(steps + 1, ydot_all[k_done])
        # each march writes its positions here, the last one the run's own
        y = y_all[k_done:k_done + steps + 1]
        # a predicting first march overwrites this flat guess with its prediction
        history = ((speeds[k_done:k_done + 2], positions[k_done:k_done + 2])
                   if window is None or k_done >= 2 else None)

        report = WindowReport(t_start=t_start)
        for _ in range(max_iter):
            zdot, *_ = _march(v, u, ydot, y, init, dt, t_start, history=history, report=report)
            history = None
            report.distances.append(float(running_h1_norm(t_loc, zdot - ydot)[-1]))
            ydot = zdot
            if report.distances[-1] <= tol:
                break
        else:
            raise PicardStalled(
                f"no fixed point after {max_iter} iterations on window starting "
                f"t={t_start:g} (last distance {report.distances[-1]:g})",
                last_ratio=report.ratios[-1] if report.ratios else np.inf, t=t_start,
            )
        windows.append(report)

        # definitive pass along the converged path, writing the stored rows
        # of its steps and carrying its end state to the next window
        rows = np.flatnonzero((stored_idx > k_done) & (stored_idx <= k_done + steps))
        keep = {int(stored_idx[r]) - k_done: (v_stored[r], u_stored[r]) for r in rows}
        _, v, u = _march(v, u, ydot, y, init, dt, t_start, keep=keep, report=report)
        ydot_all[k_done + 1:k_done + steps + 1] = ydot[1:]
        k_done += steps

    return Trajectory(
        t=t_all, y=y_all, ydot=ydot_all,
        p_s=ydot_all * (params.u_minus - init.w0_eval(y_all)),
        stored_idx=stored_idx, v=v_stored, u=u_stored,
        windows=windows, init=init,
    )


def assemble_solution(traj: Trajectory, grid: Grid, params: PhysicalParams,
                      t_index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Full-line snapshot (x, v, u, p) in the original frame at a stored time.

    Left of the interface: the congested constants (1, u_minus, p_s(t));
    right of it: the shifted half-line fields with zero pressure.
    """
    traj.check_stored_index(t_index)
    traj.init.check_run_on(grid, params)
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
    vanishes, so the residual certifies the reconstruction argument.  It is a
    copy of traj.deviations["reconstruction"], which samples the targets
    ROW_BLOCK stored times at a time in the run's one walk over its rows."""
    traj.check_certified_with(init, grid, params)
    return traj.deviations["reconstruction"].copy()
