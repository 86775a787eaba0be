"""Implicit time-stepping for the two half-line parabolic problems.

The specific-volume equation has a logarithmic diffusion which is regularized
outside the physically reachable range [1/2, bar_c] so the linearized solves
can never degenerate; inside that range nothing is changed and the maximum
principle keeps the solution there anyway.  It is advanced by a linearly
implicit Euler step: one tridiagonal solve with the Jacobian at the old
state.  The velocity equation is linear with variable diffusion mu / v and is
advanced by a conservative-flux implicit-Euler step.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .core import Grid, PhysicalParams, ValidationError
from .profiles import Profiles


class MaximumPrincipleViolated(RuntimeError):
    """A specific-volume iterate left the admissible range (1, bar_c]."""


class TridiagonalSolveError(RuntimeError):
    """The implicit linear system was singular or its solution not finite."""


def _lapack_dgtsv():
    """LAPACK's dgtsv from scipy's compiled module scipy.linalg._flapack,
    loaded under that name without importing the scipy.linalg package (about
    0.25 s and 300 modules per start, for this one routine).  It is the
    routine object scipy.linalg.lapack exports, whichever is imported first."""
    scipy = importlib.util.find_spec("scipy")  # locates the package, runs none of it
    if scipy is None:
        raise ImportError("scipy is not installed")
    folder = os.path.join(scipy.submodule_search_locations[0], "linalg")
    path = os.path.join(folder, "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"no compiled LAPACK module _flapack in {folder}")
    name = "scipy.linalg._flapack"
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    spec = importlib.util.spec_from_loader(name, loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    sys.modules[name] = module
    return module.dgtsv


dgtsv = _lapack_dgtsv()

EPS_MAX_PRINCIPLE = 1e-9

# the constant operands of the steps' ufuncs, as read-only 0-d arrays (see StepWork)
_CONSTANTS = np.array([0.0, 1.0, 2.0, 1.0 - EPS_MAX_PRINCIPLE])
_CONSTANTS.setflags(write=False)
_ZERO, _ONE, _TWO, _V_FLOOR = (_CONSTANTS[i, ...] for i in range(4))


@dataclass(frozen=True)
class RegularizedLog:
    """C^1 surrogate a(x) for ln(x), with linear growth outside [1/2, bar_c].

    With the slope floor nu = 1/(2 bar_c), c = clip(x, 1/2, bar_c),
    dl = clip(1/2 - x, 0, 1/4) and dr = clip(x - bar_c, 0, bar_c):

        a(x)  = ln c - (2 dl + kl dl^2 / 2) + (dr / bar_c - kr dr^2 / 2)
                + min(x - 1/4, 0) / nu + nu max(x - 2 bar_c, 0),
        a'(x) = 1/c + kl dl - kr dr,

    so a == ln on [1/2, bar_c]; the left bend on [1/4, 1/2] takes the slope
    linearly from 2 up to 1/nu (kl = (1/nu - 2) / (1/4)), the right bend on
    [bar_c, 2 bar_c] from 1/bar_c down to nu (kr = (1/bar_c - nu) / bar_c),
    and beyond them a continues linearly; nu <= a'(x) <= 1/nu everywhere
    (beyond 2 bar_c, 1/bar_c - kr bar_c rounds to within one ulp of nu).
    """

    bar_c: float

    def __post_init__(self) -> None:
        if not 1.0 < self.bar_c <= sys.float_info.max / 2.0:
            raise ValidationError(f"bar_c must exceed 1, with 2 bar_c finite (got {self.bar_c})")

    @property
    def nu(self) -> float:
        """The slope floor 1/(2 bar_c); 1/nu is the slope cap."""
        return 1.0 / (2.0 * self.bar_c)

    def __call__(self, x: np.ndarray | float, span: tuple[float, float] | None = None,
                 out: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Return (a(x), a'(x)) elementwise; NaN entries give NaN in both.
        `span`, the pair (x.min(), x.max()) of an array x that the caller
        has already taken, spares the core test its own two passes.  The
        pair is written into `out`, two arrays of x's shape (new ones by
        default), and returned; for a 0-d x, 0-d arrays."""
        x = np.asarray(x, dtype=float)
        if out is None:
            out = np.empty_like(x), np.empty_like(x)
        value, slope = out
        if span is None and x.ndim and x.size:
            span = np.minimum.reduce(x), np.maximum.reduce(x)
        # every entry in the core: the bits the general path gives there (a
        # NaN fails both comparisons and takes the general path)
        if span is not None and 0.5 <= span[0] and span[1] <= self.bar_c:
            np.log(x, out=value)
            np.divide(_ONE, x, out=slope)
            return value, slope
        bar_c, nu = self.bar_c, self.nu
        inv_nu = 1.0 / nu
        kl = (inv_nu - 2.0) / 0.25
        kr = (1.0 / bar_c - nu) / bar_c
        c = np.clip(x, 0.5, bar_c)
        dl = np.clip(0.5 - x, 0.0, 0.25)
        dr = np.clip(x - bar_c, 0.0, bar_c)
        value[...] = (np.log(c) - (2.0 * dl + 0.5 * kl * dl**2) + (dr / bar_c - 0.5 * kr * dr**2)
                      + inv_nu * np.minimum(x - 0.25, 0.0) + nu * np.maximum(x - 2.0 * bar_c, 0.0))
        slope[...] = 1.0 / c + kl * dl - kr * dr
        return value, slope


class StepWork:
    """The scratch arrays of step_v, step_u and linear_parabolic_step,
    allocated once on a whole grid, and their views on a head.

    A step given a workspace writes every temporary into it, so it
    allocates no array (except on the regularized log's general path,
    which no state inside the maximum principle takes).  head(nodes) cuts
    every view a step reads, once: the head's `grid` and `wave` (None for
    linear_parabolic_step alone) as views of the whole ones, which
    make_grid(x_m, m + 1) can differ from by an ulp, and the arrays on its
    nodes with their interior and shifted slices.  A march builds one on
    the whole grid and takes a new head at its start and at each widening;
    a step called without one builds its own, so both run the same lines.
    Nothing a step reads is carried from one step to the next, except the
    source's end entries, which stay the 0 that head writes.

    A step's scalar operands are 0-d arrays too, which it writes each
    value into: a ufunc takes a 0-d float64 operand about 0.2 us faster than
    a Python float, whose type it must first resolve (numpy 2.4, 129 nodes,
    a shared 2-vCPU x86 machine).
    """

    def __init__(self, grid: Grid, wave: Profiles | None = None):
        self._grid, self._wave = grid, wave
        self._rows = np.empty((16, grid.n))
        self._flags = np.empty(grid.n, dtype=bool)
        (self.c_adv, self.minus_c_adv, self.c_dif, self.coef, self.dt, self.inv_dt,
         self.two_dx, self.mu, self.face_scale, self.b_f, self.minus_b_f) = (
            np.empty(()) for _ in range(11))
        self.head(grid.n)

    def head(self, nodes: int) -> None:
        """Take the views on the first `nodes` nodes."""
        grid, wave, rows = self._grid, self._wave, self._rows
        if not 4 <= nodes <= grid.n:
            raise ValidationError(
                f"a head of {nodes} nodes needs 4 to {grid.n}, the workspace's width")
        if nodes < grid.n:
            grid = Grid(R=grid.x.item(nodes - 1), n=nodes, dx=grid.dx, x=grid.x[:nodes])
            wave = None if wave is None else wave.head(nodes)
        self.grid, self.wave = grid, wave
        # whole-head, interior-wide and face-wide arrays
        self.g, self.q, self.slope, self.inv_v, self.coupling, self.f, self.h = rows[:7, :nodes]
        self.base, self.res, self.tmp, self.diag, self.di = rows[7:12, :nodes - 2]
        self.sub, self.lo, self.hi = rows[12:15, :nodes - 3]
        self.k = rows[15, :nodes - 1]
        self.flags = self._flags[:nodes]
        # step_v: the deviation and the log's pair, at nodes i - 1, i, i + 1
        # of each interior row i, and the slope's part of each diagonal
        self.g_lo, self.g_in, self.g_hi = self.g[:-2], self.g[1:-1], self.g[2:]
        self.q_lo, self.q_in, self.q_hi = self.q[:-2], self.q[1:-1], self.q[2:]
        self.slope_sub, self.slope_in, self.slope_sup = (
            self.slope[1:-2], self.slope[1:-1], self.slope[2:-1])
        self.reg_out = self.q, self.slope
        # step_u: the coupling's central difference and the source
        self.coupling_lo, self.coupling_hi = self.coupling[:-2], self.coupling[2:]
        self.f_in = self.f[1:-1]
        self.f[0] = self.f[-1] = 0.0
        # linear_parabolic_step: the faces of rows i - 1 and i, and of the rows 2..n-2
        self.k_lo, self.k_in, self.k_hi = self.k[:-1], self.k[1:-1], self.k[1:]
        if wave is not None:
            self.v_in, self.dv_in, self.du_in = (
                wave.v_bar[1:-1], wave.dv_bar[1:-1], wave.du_bar[1:-1])


def truncation_mollifier(grid: Grid) -> np.ndarray:
    """C^2 cutoff: 1 for x <= R-2, 0 for x >= R-1, quintic blend between.

    Applied to initial data and source near the truncation boundary so the
    right Dirichlet value is compatible with the data at t = 0.
    """
    if grid.R > 3.0:
        lo, hi = grid.R - 2.0, grid.R - 1.0
    else:
        lo, hi = grid.R / 3.0, 2.0 * grid.R / 3.0
    theta = np.clip((grid.x - lo) / (hi - lo), 0.0, 1.0)
    smooth = 6.0 * theta**5 - 15.0 * theta**4 + 10.0 * theta**3
    return 1.0 - smooth


def _solve_tridiagonal(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                       rhs: np.ndarray, dt: float, diffusion: float | np.ndarray) -> np.ndarray:
    """Solve the system with sub-, main and super-diagonals (lengths n-1, n,
    n-1) by LAPACK gtsv; a singular system or a non-finite solution raises
    TridiagonalSolveError, whose message gives dt and the least of
    `diffusion` (a scalar or a nodal array).  The four arrays are consumed:
    gtsv overwrites the diagonals and solves into rhs, which is returned
    (a new array instead when rhs is not contiguous); a caller that reads
    them afterwards passes copies.  x.dot(x) is finite exactly when every
    entry is, unless it overflows: only then are the entries tested."""
    # the four flags, positional since f2py parses those faster than
    # keywords, are overwrite_dl, overwrite_d, overwrite_du and overwrite_b
    x, info = dgtsv(sub, diag, sup, rhs, 1, 1, 1, 1)[3:]
    if info != 0 or not (math.isfinite(x.dot(x)) or np.isfinite(x).all()):
        raise TridiagonalSolveError(
            f"singular or non-finite implicit system (dt={dt:g}, "
            f"min diffusion={np.min(diffusion):g})"
        )
    return x


def linear_parabolic_step(state: np.ndarray, a: np.ndarray, b: float, f: np.ndarray,
                          grid: Grid, dt: float, out: np.ndarray | None = None,
                          work: StepWork | None = None) -> np.ndarray:
    """One implicit-Euler step of d_t h + b d_x h - d_x(a d_x h) = f with
    h = 0 at both ends, for a positive nodal diffusion a, a scalar advection b
    and a nodal source f.

    Interior fluxes b h - a d_x h are evaluated at cell faces with arithmetic
    means, giving a conservative second-order discretization.  The solution
    is solved straight into the interior of `out` (a new array by default;
    an array of shape (n,) that shares no memory with a or f, state itself
    allowed), which is returned.  The temporaries go into `work`, a
    StepWork whose head is the grid's n nodes (a new one by default).

    Every input is checked once, in passes the step makes anyway: the
    shapes, a finite b and dt, a > 0 at every node (which a NaN fails), the
    end entries of state, a and f, and, for the interior entries, the
    solve's finite-solution check.
    """
    state = np.asarray(state, dtype=float)
    if not 0.0 < dt < math.inf:
        raise ValidationError(f"dt must be finite and positive (got {dt})")
    a = np.asarray(a, dtype=float)
    f = np.asarray(f, dtype=float)
    shape = (grid.n,)
    # the solve reads state and f only on the interior rows, and an infinite
    # end diffusion makes a face infinite, which forces its neighbour to 0
    if not (state.shape == shape and a.shape == shape and f.shape == shape
            and math.isfinite(state[0]) and math.isfinite(state[-1])
            and math.isfinite(a[0]) and math.isfinite(a[-1])
            and math.isfinite(f[0]) and math.isfinite(f[-1])):
        for name, value in (("state", state), ("a", a), ("f", f)):
            if value.shape != shape:
                raise ValidationError(
                    f"{name} has shape {value.shape}, expected ({grid.n},) for this grid"
                )
            if not (math.isfinite(value[0]) and math.isfinite(value[-1])):
                raise ValidationError(
                    f"{name} must be finite at both ends (got {value[0]!r}, {value[-1]!r})"
                )
    b = float(b)
    if not math.isfinite(b):
        raise ValidationError(f"advection b must be finite (got {b})")
    if work is None:
        work = StepWork(grid)
    elif work.grid.n != grid.n:
        raise ValidationError(f"the workspace's head has {work.grid.n} nodes, the grid {grid.n}")
    # a NaN fails the test; the min is taken only for the message
    if np.count_nonzero(np.greater(a, _ZERO, out=work.flags)) != a.size:
        raise ValidationError(f"diffusion must be positive (min a = {a.min():g})")

    # a_{i-1/2} / dx^2 and a_{i+1/2} / dx^2 for the interior rows i = 1..n-2
    k = np.add(a[:-1], a[1:], out=work.k)
    work.face_scale[()] = 0.5 / grid.dx**2
    k *= work.face_scale
    b_f = b * (0.5 / grid.dx)
    work.b_f[()], work.minus_b_f[()] = b_f, -b_f

    # row i (interior): coefficients of h_{i-1}, h_i, h_{i+1}; the solve
    # reads the first from row 2 on and the last up to row n-3, which both
    # take the faces of rows 2..n-2
    lo = np.subtract(work.minus_b_f, work.k_in, out=work.lo)
    hi = np.subtract(work.b_f, work.k_in, out=work.hi)
    di = np.add(work.k_lo, work.k_hi, out=work.di)
    work.inv_dt[()], work.dt[()] = 1.0 / dt, dt
    di += work.inv_dt
    if out is None:
        out = np.empty(grid.n)
    rhs = out[1:-1]
    np.divide(state[1:-1], work.dt, out=rhs)
    rhs += f[1:-1]
    x = _solve_tridiagonal(lo, di, hi, rhs, dt, a)
    if x is not rhs:  # a strided out: gtsv solved into a copy
        rhs[:] = x
    out[0] = out[-1] = 0.0
    return out


def step_v(v: np.ndarray, ydot: float, source: np.ndarray | float, grid: Grid, dt: float,
           reg: RegularizedLog, params: PhysicalParams, wave: Profiles,
           out: np.ndarray | None = None, work: StepWork | None = None) -> np.ndarray:
    """One linearly implicit Euler step of d_t v - ydot d_x v - mu d_xx a(v)
    = source.

    Dirichlet values v(0) = 1 and v(R) = wave profile at R.  The update is
    computed on the deviation g = v - vwave, for which the wave terms cancel
    through the profile identity s d_x vwave + mu d_xx ln vwave = 0, with
    ln vwave = wave.log_v_bar = np.log(vwave), the value `reg` takes on
    vwave.  At g = 0 the diffusion term of the residual is therefore exactly
    zero, and the exact wave is a discrete steady state instead of drifting
    at the truncation level.
    `wave` is traveling_wave(params, grid), sampled once by the caller.
    The implicit-Euler system F(g_new) = 0 is linearized once about the old
    deviation: one `reg` call gives the residual F(g) and the analytic
    tridiagonal Jacobian J of the discretized a(v), and the step returns
    g - J^{-1} F(g) (Hairer & Wanner, Solving ODEs II, IV.7), whose residual
    is quadratic in the update.  A residual that is exactly zero, as on the
    exact wave, returns the state as it is.  The result is written into
    `out` (a new array by default; an array of shape (n,), v itself
    allowed, since v is read only before out is written) and returned; a
    step that raises may have written part of it.  The temporaries go into
    `work`, a StepWork whose head holds `wave` (a new one by default).

    v is checked once, in passes the step makes anyway: v(0) = 1, a finite
    v(R), which no solve reads, and a finite, positive range of the state
    (which a NaN fails), the same pair the maximum-principle check reads
    when the step takes no update, and which the regularized log's core
    test reads too.  An array source is checked for its shape and its end
    entries, which no solve reads; a non-finite interior entry makes the
    residual non-finite, which the solve's finite-solution check rejects.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (grid.n,):
        raise ValidationError(f"v has shape {v.shape}, expected ({grid.n},) for this grid")
    if not abs(v[0] - 1.0) <= 1e-9:
        raise ValidationError(f"step_v requires v(0) = 1 on input (got {v[0]!r})")
    if not math.isfinite(v[-1]):
        raise ValidationError(f"step_v requires a finite v(R) on input (got {v[-1]!r})")
    if not 0.0 < dt < math.inf:
        raise ValidationError(f"dt must be finite and positive (got {dt})")
    # the float test first: the march passes 0.0 on every exact-front step,
    # and np.ndim costs about a microsecond
    if isinstance(source, float) or not np.ndim(source):
        source = float(source)
        if not math.isfinite(source):
            raise ValidationError(f"source must be finite (got {source})")
    else:
        source = np.asarray(source, dtype=float)
        if not (source.shape == (grid.n,) and math.isfinite(source[0])
                and math.isfinite(source[-1])):
            raise ValidationError(f"source must be finite at both ends, of shape ({grid.n},)")
    if work is None:
        work = StepWork(grid, wave)
    elif work.wave is not wave:
        raise ValidationError("the workspace's head holds another wave")
    vbar = wave.v_bar
    g = np.subtract(v, vbar, out=work.g)
    g_in = work.g_in
    # the residual's constant part, g_old + dt (source + (ydot - s) d_x vwave);
    # at ydot = s with a zero source, g_old (0 dv_bar is 0.0, adding it
    # changes no value), as on every exact-front step
    if ydot == params.s and isinstance(source, float) and not source:
        base = g_in
    else:
        work.coef[()], work.dt[()] = dt * (ydot - params.s), dt
        base = np.multiply(work.coef, work.dv_in, out=work.base)
        if isinstance(source, float):
            if source:  # a zero source adds nothing to the outcome
                work.coef[()] = dt * source
                base += work.coef
        else:
            base += np.multiply(source[1:-1], work.dt, out=work.tmp)
        base += g_in
    g[0] = 0.0
    g[-1] = 0.0
    # the state the residual and its slope are evaluated at, and the result
    w = np.add(vbar, g, out=out)
    low, high = np.minimum.reduce(w), np.maximum.reduce(w)
    if not (0.0 < low and high < math.inf):
        raise ValidationError(
            f"step_v requires a finite v > 0 on input (range [{low:g}, {high:g}])"
        )
    c_adv = dt * ydot / (2.0 * grid.dx)
    work.c_adv[()], work.c_dif[()] = c_adv, dt * params.mu / grid.dx**2

    # g_i - c_adv (g_{i+1} - g_{i-1}) - c_dif (q_{i+1} - 2 q_i + q_{i-1})
    # - base_i, with q = a(w) - ln vbar, assembled in place
    q, slope = reg(w, (low, high), work.reg_out)
    q -= wave.log_v_bar
    q *= work.c_dif
    res = np.subtract(work.g_lo, work.g_hi, out=work.res)
    res *= work.c_adv
    res += g_in
    res -= base
    res -= work.q_hi
    res -= work.q_lo
    res += work.q_in
    res += work.q_in
    # count_nonzero is cheaper than an any or max pass; a NaN residual
    # takes the update
    if np.count_nonzero(res):
        # the Jacobian's diagonals, the super one written over the slope
        # the other two have read, and the update solved into -res
        slope *= work.c_dif
        sub = np.subtract(work.c_adv, work.slope_sub, out=work.sub)
        diag = np.multiply(_TWO, work.slope_in, out=work.diag)
        diag += _ONE
        work.minus_c_adv[()] = -c_adv
        sup = np.subtract(work.minus_c_adv, work.slope_sup, out=work.slope_sup)
        delta = _solve_tridiagonal(sub, diag, sup, np.negative(res, out=res), dt,
                                   params.mu * reg.nu)
        delta += g_in
        np.add(work.v_in, delta, out=w[1:-1])
        low, high = np.minimum.reduce(w), np.maximum.reduce(w)
    if not (1.0 - EPS_MAX_PRINCIPLE <= low and high <= reg.bar_c + EPS_MAX_PRINCIPLE):
        raise MaximumPrincipleViolated(
            f"v left (1, bar_c]: range [{low:.12g}, {high:.12g}] vs bar_c = {reg.bar_c:g}"
        )
    return w


def step_u(u: np.ndarray, v: np.ndarray, ydot: float, grid: Grid, dt: float,
           params: PhysicalParams, wave: Profiles,
           out: np.ndarray | None = None, work: StepWork | None = None) -> np.ndarray:
    """One implicit-Euler step of d_t u - ydot d_x u - mu d_x((1/v) d_x u) = 0.

    Dirichlet values u(0) = u_minus and u(R) = wave profile at R.  As in
    step_v the update is computed on the deviation h = u - uwave, whose
    equation has homogeneous boundary values and the source

        (ydot - s) d_x uwave + mu d_x((1/v - 1/vwave) d_x uwave),

    the wave terms cancelling analytically; it is advanced by
    linear_parabolic_step with a = mu/v, b = -ydot, which solves it
    straight into `out` (a new array by default; an array of shape (n,)
    that shares no memory with v, u itself allowed, since u is read only
    before out is written), and the result is returned.  `wave` is
    traveling_wave(params, grid), sampled once by the caller.  The
    temporaries, linear_parabolic_step's too, go into `work`, a StepWork
    whose head holds `wave` (a new one by default).

    u and v are checked once, in passes the step makes anyway: u(0) =
    u_minus and v >= 1 at every node (which a NaN fails) here, and in
    linear_parabolic_step a finite u(R), mu/v > 0 at every node (which an
    infinite v fails) and, for the interior of u, the solve's
    finite-solution check.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    shape = (grid.n,)
    if u.shape != shape or v.shape != shape:
        name, value = ("u", u) if u.shape != shape else ("v", v)
        raise ValidationError(
            f"{name} has shape {value.shape}, expected ({grid.n},) for this grid"
        )
    if work is None:
        work = StepWork(grid, wave)
    elif work.wave is not wave:
        raise ValidationError("the workspace's head holds another wave")
    # a NaN entry fails the test, and is the min the message reports
    if np.count_nonzero(np.greater_equal(v, _V_FLOOR, out=work.flags)) != v.size:
        raise ValidationError(f"step_u requires v >= 1 (min v = {v.min():g})")
    if not abs(u[0] - params.u_minus) <= 1e-9:
        raise ValidationError(
            f"step_u requires u(0) = u_minus on input (got {u[0]!r})"
        )
    inv_v = np.divide(_ONE, v, out=work.inv_v)
    coupling = np.subtract(inv_v, wave.inv_v_bar, out=work.coupling)
    coupling *= wave.du_bar
    # the source: 0 at the ends, which linear_parabolic_step does not solve
    # for (the workspace keeps them 0), and on the interior the central
    # difference of stencil_derivative, in its order
    interior = np.subtract(work.coupling_hi, work.coupling_lo, out=work.f_in)
    work.two_dx[()], work.mu[()] = 2.0 * grid.dx, params.mu
    interior /= work.two_dx
    interior *= work.mu
    # at ydot = s the term is -0.0 at every node (s > 0 and uwave' <= -0.0),
    # and adding -0.0 changes no value
    if ydot != params.s:
        work.coef[()] = ydot - params.s
        interior += np.multiply(work.coef, work.du_in, out=work.tmp)
    inv_v *= work.mu  # the diffusion mu / v
    h = linear_parabolic_step(np.subtract(u, wave.u_bar, out=work.h), inv_v, -ydot, work.f,
                              grid, dt, out, work)
    h += wave.u_bar
    return h
