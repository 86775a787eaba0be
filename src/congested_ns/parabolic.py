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

    def __call__(self, x: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
        """Return (a(x), a'(x)) elementwise; NaN entries give NaN in both."""
        x = np.asarray(x, dtype=float)
        # every entry in the core: the bits the general path gives there (a
        # NaN fails both comparisons and takes the general path)
        if x.ndim and x.size and 0.5 <= x.min() and x.max() <= self.bar_c:
            return np.log(x), 1.0 / x
        bar_c, nu = self.bar_c, self.nu
        inv_nu = 1.0 / nu
        kl = (inv_nu - 2.0) / 0.25
        kr = (1.0 / bar_c - nu) / bar_c
        c = np.clip(x, 0.5, bar_c)
        dl = np.clip(0.5 - x, 0.0, 0.25)
        dr = np.clip(x - bar_c, 0.0, bar_c)
        value = (np.log(c) - (2.0 * dl + 0.5 * kl * dl**2) + (dr / bar_c - 0.5 * kr * dr**2)
                 + inv_nu * np.minimum(x - 0.25, 0.0) + nu * np.maximum(x - 2.0 * bar_c, 0.0))
        slope = 1.0 / c + kl * dl - kr * dr
        # for a 0-d x the arithmetic gives numpy scalars; return 0-d arrays
        return np.asarray(value), np.asarray(slope)


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
                       rhs: np.ndarray, dt: float, min_diffusion: float) -> np.ndarray:
    """Solve the system with sub-, main and super-diagonals (lengths n-1, n,
    n-1) by LAPACK gtsv; a singular system or a non-finite solution raises
    TridiagonalSolveError."""
    *_, x, info = dgtsv(sub, diag, sup, rhs)
    if info != 0 or not np.isfinite(x).all():
        raise TridiagonalSolveError(
            f"singular or non-finite implicit system (dt={dt:g}, "
            f"min diffusion={min_diffusion:g})"
        )
    return x


def linear_parabolic_step(state: np.ndarray, a: np.ndarray, b: float, f: np.ndarray,
                          grid: Grid, dt: float) -> np.ndarray:
    """One implicit-Euler step of d_t h + b d_x h - d_x(a d_x h) = f with
    h = 0 at both ends, for a positive nodal diffusion a, a scalar advection b
    and a nodal source f.

    Interior fluxes b h - a d_x h are evaluated at cell faces with arithmetic
    means, giving a conservative second-order discretization.

    Every input is checked once, in passes the step makes anyway: the
    shapes, a finite b and dt, min a > 0 (which a NaN fails), the end
    entries of state, a and f, and, for the interior entries, the solve's
    finite-solution check.
    """
    state = np.asarray(state, dtype=float)
    if not 0.0 < dt < math.inf:
        raise ValidationError(f"dt must be finite and positive (got {dt})")
    a = np.asarray(a, dtype=float)
    f = np.asarray(f, dtype=float)
    for name, value in (("state", state), ("a", a), ("f", f)):
        if value.shape != (grid.n,):
            raise ValidationError(
                f"{name} has shape {value.shape}, expected ({grid.n},) for this grid"
            )
        # the solve reads state and f only on the interior rows, and an
        # infinite end diffusion makes a face infinite, which forces its
        # neighbour to 0
        if not (math.isfinite(value[0]) and math.isfinite(value[-1])):
            raise ValidationError(
                f"{name} must be finite at both ends (got {value[0]!r}, {value[-1]!r})"
            )
    b = float(b)
    if not math.isfinite(b):
        raise ValidationError(f"advection b must be finite (got {b})")
    min_a = float(a.min())
    if not min_a > 0.0:
        raise ValidationError(f"diffusion must be positive (min a = {min_a:g})")

    # a_{i-1/2} / dx^2 and a_{i+1/2} / dx^2 for the interior rows i = 1..n-2
    k = a[:-1] + a[1:]
    k *= 0.5 / grid.dx**2
    k_w, k_e = k[:-1], k[1:]
    b_f = b * (0.5 / grid.dx)

    # row i (interior): coefficients of h_{i-1}, h_i, h_{i+1}
    lo = -b_f - k_w
    hi = b_f - k_e
    di = k_w + k_e
    di += 1.0 / dt
    rhs = state[1:-1] / dt
    rhs += f[1:-1]

    out = np.empty(grid.n)
    out[0] = out[-1] = 0.0
    out[1:-1] = _solve_tridiagonal(lo[1:], di, hi[:-1], rhs, dt, min_a)
    return out


def step_v(v: np.ndarray, ydot: float, source: np.ndarray | float, grid: Grid, dt: float,
           reg: RegularizedLog, params: PhysicalParams, wave: Profiles) -> np.ndarray:
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
    exact wave, returns the state as it is.

    v is checked once, in passes the step makes anyway: v(0) = 1, a finite
    v(R), which no solve reads, and a finite, positive range of the state
    (which a NaN fails), the same pair the maximum-principle check reads
    when the step takes no update.  An array source is checked for its
    shape and its end entries, which no solve reads; a non-finite interior
    entry makes the residual non-finite, which the solve's finite-solution
    check rejects.
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
    vbar = wave.v_bar
    g = v - vbar
    # the residual's constant part, g_old + dt (source + (ydot - s) d_x vwave)
    base = (dt * (ydot - params.s)) * wave.dv_bar[1:-1]
    # the float test first: the march passes 0.0 on every exact-front step,
    # and np.ndim costs about a microsecond
    if isinstance(source, float) or not np.ndim(source):
        src = float(source)
        if not math.isfinite(src):
            raise ValidationError(f"source must be finite (got {src})")
        if src:  # a zero source adds nothing to the outcome
            base += dt * src
    else:
        source = np.asarray(source, dtype=float)
        if not (source.shape == (grid.n,) and math.isfinite(source[0])
                and math.isfinite(source[-1])):
            raise ValidationError(f"source must be finite at both ends, of shape ({grid.n},)")
        base += dt * source[1:-1]
    base += g[1:-1]
    g[0] = 0.0
    g[-1] = 0.0
    # the state the residual and its slope are evaluated at, and the result
    w = vbar + g
    low, high = w.min(), w.max()
    if not (0.0 < low and high < math.inf):
        raise ValidationError(
            f"step_v requires a finite v > 0 on input (range [{low:g}, {high:g}])"
        )
    c_adv = dt * ydot / (2.0 * grid.dx)
    c_dif = dt * params.mu / grid.dx**2

    # g_i - c_adv (g_{i+1} - g_{i-1}) - c_dif (q_{i+1} - 2 q_i + q_{i-1})
    # - base_i, with q = a(w) - ln vbar, assembled in place
    q, slope = reg(w)
    q -= wave.log_v_bar
    q *= c_dif
    res = g[:-2] - g[2:]
    res *= c_adv
    res += g[1:-1]
    res -= base
    res -= q[2:]
    res -= q[:-2]
    res += q[1:-1]
    res += q[1:-1]
    if np.abs(res).max() != 0.0:  # a NaN residual takes the update
        slope *= c_dif
        delta = _solve_tridiagonal(c_adv - slope[1:-2], 1.0 + 2.0 * slope[1:-1],
                                   -c_adv - slope[2:-1], -res, dt, params.mu * reg.nu)
        delta += g[1:-1]
        np.add(vbar[1:-1], delta, out=w[1:-1])
        low, high = w.min(), w.max()
    if not (1.0 - EPS_MAX_PRINCIPLE <= low and high <= reg.bar_c + EPS_MAX_PRINCIPLE):
        raise MaximumPrincipleViolated(
            f"v left (1, bar_c]: range [{low:.12g}, {high:.12g}] vs bar_c = {reg.bar_c:g}"
        )
    return w


def step_u(u: np.ndarray, v: np.ndarray, ydot: float, grid: Grid, dt: float,
           params: PhysicalParams, wave: Profiles) -> np.ndarray:
    """One implicit-Euler step of d_t u - ydot d_x u - mu d_x((1/v) d_x u) = 0.

    Dirichlet values u(0) = u_minus and u(R) = wave profile at R.  As in
    step_v the update is computed on the deviation h = u - uwave, whose
    equation has homogeneous boundary values and the source

        (ydot - s) d_x uwave + mu d_x((1/v - 1/vwave) d_x uwave),

    the wave terms cancelling analytically; it is advanced by
    linear_parabolic_step with a = mu/v, b = -ydot.  `wave` is
    traveling_wave(params, grid), sampled once by the caller.

    u and v are checked once, in passes the step makes anyway: u(0) =
    u_minus and min v >= 1 (which a NaN fails) here, and in
    linear_parabolic_step a finite u(R), min mu/v > 0 (which an infinite v
    fails) and, for the interior of u, the solve's finite-solution check.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    for name, value in (("u", u), ("v", v)):
        if value.shape != (grid.n,):
            raise ValidationError(
                f"{name} has shape {value.shape}, expected ({grid.n},) for this grid"
            )
    min_v = v.min()
    if not min_v >= 1.0 - EPS_MAX_PRINCIPLE:
        raise ValidationError(f"step_u requires v >= 1 (min v = {min_v:g})")
    if not abs(u[0] - params.u_minus) <= 1e-9:
        raise ValidationError(
            f"step_u requires u(0) = u_minus on input (got {u[0]!r})"
        )
    inv_v = 1.0 / v
    coupling = inv_v - wave.inv_v_bar
    coupling *= wave.du_bar
    # the source: 0 at the ends, which linear_parabolic_step does not solve
    # for, and on the interior the central difference of stencil_derivative,
    # in its order
    f = np.empty(grid.n)
    f[0] = f[-1] = 0.0
    interior = f[1:-1]
    np.subtract(coupling[2:], coupling[:-2], out=interior)
    interior /= 2.0 * grid.dx
    interior *= params.mu
    # at ydot = s the term is -0.0 at every node (s > 0 and uwave' <= -0.0),
    # and adding -0.0 changes no value
    if ydot != params.s:
        interior += (ydot - params.s) * wave.du_bar[1:-1]
    inv_v *= params.mu  # the diffusion mu / v
    h = linear_parabolic_step(u - wave.u_bar, inv_v, -ydot, f, grid, dt)
    h += wave.u_bar
    return h
