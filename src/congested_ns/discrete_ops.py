"""Finite-difference operators, discrete norms, boundary traces, shifted sampling.

All stencils are at least second-order accurate and exact on polynomials of
degree <= 2.  Integrals use the composite trapezoidal rule, matching the
second-order spatial discretization used by the solvers; row_trapezoid sums
each row over its own nodes, so a head of a row is integrated alone.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .core import Grid, ValidationError, as_field


class NormKind(Enum):
    L2 = "L2"
    H1 = "H1"
    H2 = "H2"
    H3 = "H3"
    LINF = "Linf"
    L1 = "L1"
    WEIGHTED_SQRT_X = "WeightedSqrtX"
    WEIGHTED_ONE_PLUS_SQRT_X = "WeightedOnePlusSqrtX"


def derivative(f: np.ndarray, grid: Grid, order: int) -> np.ndarray:
    """Discrete d^k f / dx^k for k in {1, 2}.

    Central differences in the interior, one-sided second-order stencils at
    both ends.
    """
    f = as_field(f, grid)
    if grid.n < 5:
        raise ValidationError("derivative stencils need at least 5 nodes")
    return stencil_derivative(f, grid.dx, order)


def stencil_derivative(f: np.ndarray, dx: float, order: int) -> np.ndarray:
    """The stencils of derivative on a float array of at least 3 nodes
    (order 1) or 4 (order 2) with spacing dx, without validating it: for
    arrays a caller built from fields it has already validated.  The nodes
    run along the first axis, so a 2-D array is a set of fields, one per
    column, each differentiated as if alone (the transpose of a stack of
    rows)."""
    out = np.empty_like(f)
    if order == 1:
        # in place: a block of whole fields would otherwise need two more temporaries
        np.subtract(f[2:], f[:-2], out=out[1:-1])
        out[1:-1] /= 2.0 * dx
        out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dx)
        out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)
    elif order == 2:
        out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / dx**2
        out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / dx**2
        out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / dx**2
    else:
        raise ValidationError(f"unsupported derivative order {order} (use 1 or 2)")
    return out


def norm(f: np.ndarray, grid: Grid, kind: NormKind) -> float:
    """Discrete norm of a field by trapezoidal quadrature.

    Sobolev norms stack squared L2 norms of repeated discrete derivatives:
    ||f||_Hk^2 = sum_{j<=k} ||D^j f||_L2^2.
    """
    f = as_field(f, grid)
    x = grid.x
    if kind is NormKind.LINF:
        return float(np.max(np.abs(f)))
    if kind is NormKind.L1:
        return float(np.trapezoid(np.abs(f), x))
    if kind is NormKind.L2:
        return float(np.sqrt(np.trapezoid(f**2, x)))
    if kind is NormKind.WEIGHTED_SQRT_X:
        return float(np.sqrt(np.trapezoid(x * f**2, x)))
    if kind is NormKind.WEIGHTED_ONE_PLUS_SQRT_X:
        return float(np.sqrt(np.trapezoid((1.0 + np.sqrt(x)) ** 2 * f**2, x)))
    if kind in (NormKind.H1, NormKind.H2, NormKind.H3):
        k = {NormKind.H1: 1, NormKind.H2: 2, NormKind.H3: 3}[kind]
        total = np.trapezoid(f**2, x)
        d1 = derivative(f, grid, 1)
        total += np.trapezoid(d1**2, x)
        if k >= 2:
            d2 = derivative(f, grid, 2)
            total += np.trapezoid(d2**2, x)
        if k >= 3:
            d3 = derivative(d2, grid, 1)
            total += np.trapezoid(d3**2, x)
        return float(np.sqrt(total))
    raise ValidationError(f"unknown norm kind {kind!r}")


def trace0(f: np.ndarray, grid: Grid, order: int = 0) -> float:
    """Boundary value or one-sided derivative estimate at x = 0.

    order 0 returns f(0); orders 1 and 2 use one-sided stencils that are
    exact on cubics (the interface speed and the trace identities are
    sensitive enough to boundary-slope error that plain three-point
    stencils would eat most of their tolerance budget).
    """
    f = as_field(f, grid)
    if grid.n < 5:
        raise ValidationError("trace stencils need at least 5 nodes")
    return stencil_trace(f, grid.dx, order)


def stencil_trace(f: np.ndarray, dx: float, order: int) -> float:
    """The stencils of trace0 on the leading nodes of a float array with
    spacing dx (4 nodes for order 1, 5 for order 2), without validating it:
    for a caller that differences only those nodes of fields it trusts."""
    if order == 0:
        return float(f[0])
    if order == 1:
        return float((-11.0 * f[0] + 18.0 * f[1] - 9.0 * f[2] + 2.0 * f[3]) / (6.0 * dx))
    if order == 2:
        return float(
            (35.0 * f[0] - 104.0 * f[1] + 114.0 * f[2] - 56.0 * f[3] + 11.0 * f[4])
            / (12.0 * dx**2)
        )
    raise ValidationError(f"unsupported trace order {order} (use 0, 1 or 2)")


def _power_sum(terms: tuple, s, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """c3 + c2 s + c1 s^2 + c0 s^3 into out through the work row scratch, for
    terms (c3, c2, c1, c0) with one entry per point and s one per point or one
    float for all, summed left to right as scipy's PPoly evaluation sums them."""
    c3, c2, c1, c0 = terms
    s2 = s * s
    np.add(np.multiply(c2, s, out), c3, out)  # outputs by position: faster than out=
    np.add(out, np.multiply(c1, s2, scratch), out)
    return np.add(out, np.multiply(c0, s2 * s, scratch), out)


class MonotoneInterpolant:
    """Evaluator x -> f0(x) for points x >= 0 of a field tabulated on [0, R].

    Shape-preserving cubic interpolation (PCHIP) up to and including R, the
    declared value `tail` beyond it, NaN below 0.  `values` are the nodal
    values f0 it was built from, read-only.  Build it with monotone_interpolator.
    """

    def __init__(self, values: np.ndarray, terms: tuple, grid: Grid, tail: float):
        for arr in (values, *terms):
            arr.setflags(write=False)
        self.values = values
        self._terms = terms  # (c3, c2, c1, c0), one entry per interval
        self._grid = grid
        self._tail = tail
        self._scratch = np.empty(grid.n - 1)  # shifted's one work row

    def __call__(self, x: np.ndarray | float) -> np.ndarray | np.float64:
        """f0 at each point of x: an array of x's shape, or a numpy float for
        a scalar x, equal bit for bit to the entry of a one-point array."""
        if isinstance(x, float) or np.ndim(x) == 0:
            return np.float64(self.at(float(x)))
        x = np.asarray(x, float)
        points = x.ravel()
        R = self._grid.R
        inside = (points >= 0.0) & (points <= R)
        # interval i holds x_i <= x < x_{i+1}, the last one closed at R: the
        # count of interior nodes <= x
        i = np.searchsorted(self._grid.x[1:-1], points, side="right")
        s = np.where(inside, points - self._grid.x[i], 0.0)
        out = _power_sum(tuple(term[i] for term in self._terms), s, *np.empty((2, s.size)))
        if not inside.all():
            out[~inside] = np.where(points[~inside] <= R, np.nan, self._tail)
        return out.reshape(x.shape)

    def at(self, p: float) -> float:
        """f0 at one float point p, as a float: __call__'s value there,
        computed with the same operations in Python floats.

        On the uniform grid a point p in [0, R] lies in interval
        min(floor(p / dx), n - 2), the interval search's answer unless
        rounding put p outside it; then the point takes the array path.
        Every entry is read by item(), as a Python float, so the march's
        calls make no numpy scalar.
        """
        grid = self._grid
        if not 0.0 <= p <= grid.R:
            return np.nan if p <= grid.R else self._tail  # a NaN point takes the tail, as __call__
        last = grid.n - 2
        i = min(int(p // grid.dx), last)
        x_i = grid.x.item(i)
        if not (x_i <= p and (p < grid.x.item(i + 1) or i == last)):
            return float(self(np.array([p]))[0])
        s = p - x_i
        s2 = s * s
        c3, c2, c1, c0 = self._terms
        # _power_sum's sum, term by term
        return c3.item(i) + c2.item(i) * s + c1.item(i) * s2 + c0.item(i) * (s2 * s)

    def shifted(self, y: float, nodes: int | None = None, out: np.ndarray | None = None,
                /) -> np.ndarray:
        """The row f0(x_i + y) on the first `nodes` grid nodes (all of them
        by default), written into `out` (a new row by default).

        Node i lies in interval i + m, m = floor(y / dx), at the nominal
        offset s = y - m dx: the row is the power sum of m-offset slices of
        the table at the float s, in `at`'s order, and the tail from
        node k = n - 1 - m on: self(x[:nodes] + y) to within roundoff, about
        ulp(R + y) times the table's largest slope.  Node k - 1 rounded to R
        or past it, or node k to R or before it, takes `at` (a node on R the
        PCHIP value); a negative or non-finite y takes the general path.
        Each entry depends on its node alone, so a shorter row is the prefix
        of the longer one.
        """
        x, n, R, dx = self._grid.x, self._grid.n, self._grid.R, self._grid.dx
        size = n if nodes is None else nodes
        out = np.empty(size) if out is None else out
        if not 0.0 <= y < np.inf:
            out[:] = self(x[:size] + y)
            return out
        m = int(y // dx)
        k = n - 1 - m if m < n - 1 else 0  # nodes i < k lie in interval i + m <= n - 2
        j, (c3, c2, c1, c0) = (k if k < size else size), self._terms
        _power_sum((c3[m:m + j], c2[m:m + j], c1[m:m + j], c0[m:m + j]), y - m * dx, out[:j],
                   self._scratch[:j])
        if j < size:
            out[j:] = self._tail
        if 0 < k <= size and x.item(k - 1) + y >= R:  # rounded onto R or past it
            out[k - 1] = self.at(x.item(k - 1) + y)
        if k < size and x.item(k) + y <= R:  # rounded onto R or before it
            out[k] = self.at(x.item(k) + y)
        return out


def monotone_interpolator(f0: np.ndarray, grid: Grid, tail: float) -> MonotoneInterpolant:
    """Build the MonotoneInterpolant of a nodal field with declared tail value.

    Every shifted or transported sample of a nodal field goes through this
    one rule; build the evaluator once per field and call it, or its
    `shifted` row, for every shift.

    The table is scipy's PchipInterpolator, computed here in the same
    operation order so that it is equal bit for bit (importing
    scipy.interpolate would add about a third of a second to every start of
    the package).  Node
    slopes are the Fritsch-Butland weighted harmonic means of the adjacent
    secant slopes, 0 where those vanish or change sign, and the one-sided
    three-point rule, kept shape-preserving, at both ends.  The division
    warnings of the harmonic mean on locally flat data are harmless and
    silenced.
    """
    f0 = as_field(f0, grid)
    h = np.diff(grid.x)
    m = (f0[1:] - f0[:-1]) / h
    d = np.zeros(grid.n)
    sm = np.sign(m)
    flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d[1:-1][~flat] = 1.0 / whmean[~flat]
    d[0] = _end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
    # Hermite data (f0, d) to the power basis of each interval; m is the
    # secant slope scipy recomputes here with the same operations.  scipy
    # sums the terms from 0.0, so 0.0 + f0 turns a -0.0 value into 0.0
    t = (d[:-1] + d[1:] - 2 * m) / h
    terms = (0.0 + f0[:-1], d[:-1], (m - d[:-1]) / h - t, t / h)
    return MonotoneInterpolant(f0.copy(), terms, grid, float(tail))


def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end slope, set to 0 when its sign differs from
    the end secant m0 and capped at 3 m0 when the secants change sign
    (Moler, Numerical Computing with MATLAB, sec. 3.6)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def cumulative_trapezoid(values: np.ndarray, h) -> np.ndarray:
    """Running trapezoid integral of nodal values with spacing h (a scalar or
    one spacing per interval), starting from 0 at the first node.  The nodes
    run along the first axis, so a 2-D array is a set of fields, one per
    column, each integrated as if alone (a running sum adds in node order)."""
    steps = np.cumsum(0.5 * (values[:-1] + values[1:]) * h, axis=0)
    return np.concatenate((np.zeros((1,) + steps.shape[1:]), steps))


def row_trapezoid(F: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """np.trapezoid(row, x[:nodes]) of each row of the 2-D array F on the
    first nodes of x, bit for bit, given widths = np.diff(x): the terms
    (f_i + f_{i+1}) h_i / 2 of the row's own intervals, summed along it."""
    terms = np.add(F[:, 1:], F[:, :-1], order="C")  # numpy sums a contiguous row pairwise
    terms *= widths[:terms.shape[1]]
    terms /= 2.0
    return terms.sum(1)


def tail_integral(f: np.ndarray, grid: Grid) -> np.ndarray:
    """-integral of f from x to R, by reversed cumulative trapezoid.

    Truncation surrogate for -int_x^inf f dz when f decays before R: the
    committed error is the neglected tail beyond R.
    """
    cum = cumulative_trapezoid(as_field(f, grid), grid.dx)
    return cum - cum[-1]


def shift_sample(evaluate: MonotoneInterpolant, y) -> np.ndarray:
    """Sample x -> f0(x + y) on the grid through a built monotone_interpolator.

    `y` is one shift (result shape (n,)) or a 1-D array of shifts (result
    shape (len(y), n), one row per shift), each row written in place by
    `evaluate.shifted`.  A zero shift gives an exact copy of the nodal values
    f0.  Negative shifts are rejected, since the interface only ever moves
    right, and so are NaN and infinite ones.
    """
    shifts = np.asarray(y, float)
    bad = ~((shifts >= 0.0) & (shifts < np.inf))
    if np.any(bad):
        raise ValidationError(
            f"shift offset must be finite and nonnegative (got {shifts[bad].flat[0]})")
    out = np.empty((shifts.size, evaluate.values.size))
    for row, shift in zip(out, shifts.ravel().tolist()):
        if shift == 0.0:
            row[:] = evaluate.values
        else:
            evaluate.shifted(shift, None, row)
    return out[0] if shifts.ndim == 0 else out
