"""Problem constants, uniform half-line mesh, field validation, table writing.

Everything downstream works on plain numpy arrays ("fields") attached to a
:class:`Grid`.  Types here are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class ValidationError(ValueError):
    """Raised when inputs violate a structural hypothesis of the model."""


def derive_speed(u_minus: float, u_plus: float, v_plus: float) -> float:
    """Interface speed s = (u_minus - u_plus) / (v_plus - 1).

    The speed of the unique front connecting the congested state (v = 1,
    velocity u_minus) to the free state (v_plus, u_plus).
    """
    if not v_plus > 1.0:
        raise ValidationError(f"v_plus must exceed 1 (got {v_plus})")
    if not u_minus > u_plus:
        raise ValidationError(
            f"u_minus must exceed u_plus (got u_minus={u_minus}, u_plus={u_plus})"
        )
    return (u_minus - u_plus) / (v_plus - 1.0)


@dataclass(frozen=True)
class PhysicalParams:
    """Constants of the two-phase flow problem.

    mu      -- viscosity, > 0
    v_plus  -- specific volume at x -> +infinity, > 1
    u_minus -- velocity of the congested phase
    u_plus  -- velocity at x -> +infinity, < u_minus
    """

    mu: float
    v_plus: float
    u_minus: float
    u_plus: float

    def __post_init__(self) -> None:
        for name in ("mu", "v_plus", "u_minus", "u_plus"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite (got {getattr(self, name)})")
        if not self.mu > 0.0:
            raise ValidationError(f"mu must be positive (got {self.mu})")
        # the wave's boundary slopes divide by mu^2, the trace identities by
        # mu^3, p_minus squares s: each power must be a positive finite float
        s = derive_speed(self.u_minus, self.u_plus, self.v_plus)
        for name, value, power in (("mu", self.mu, 3), ("s", s, 2)):
            if not 0.0 < math.prod([value] * power) < math.inf:
                raise ValidationError(f"{name}={value:g} is out of range: {name}^{power} is "
                                      "not a positive finite float")

    @cached_property
    def s(self) -> float:
        """Wave/interface speed, derived once per instance: both steppers
        read it on every step."""
        return derive_speed(self.u_minus, self.u_plus, self.v_plus)

    @property
    def p_minus(self) -> float:
        """Pressure of the congested phase behind the steady front."""
        return self.s**2 * (self.v_plus - 1.0)


@dataclass(frozen=True)
class Grid:
    """Uniform mesh on [0, R] with n nodes, x_i = i * dx."""

    R: float
    n: int
    dx: float
    x: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.x.setflags(write=False)


def grid_spacing(R: float, n: int) -> float:
    """The spacing of the uniform grid on [0, R] with n >= 16 nodes, checked
    without building the grid."""
    if not R > 0.0:
        raise ValidationError(f"domain length R must be positive (got {R})")
    if n < 16:
        raise ValidationError(f"node count n must be at least 16 (got {n})")
    dx = R / (n - 1)
    if not 0.0 < dx * dx < math.inf:  # the diffusion stencils divide by it
        raise ValidationError(f"domain length R={R:g} gives the spacing dx={dx:g}, whose "
                              f"square {dx * dx:g} is not a positive finite float")
    return dx


def make_grid(R: float, n: int) -> Grid:
    """Build the uniform grid on [0, R] with n >= 16 nodes."""
    dx = grid_spacing(R, n)
    return Grid(R=float(R), n=int(n), dx=dx, x=np.linspace(0.0, R, n))


def suggest_domain_length(params: PhysicalParams, tail: float = 1e-12) -> float:
    """Smallest R with wave-profile tail v_plus - v(R) below `tail`.

    The profile approaches v_plus like v_plus(v_plus-1) exp(-s v_plus x / mu),
    so truncating there commits an error below `tail`.
    """
    vp, s, mu = params.v_plus, params.s, params.mu
    return mu / (s * vp) * math.log(vp * (vp - 1.0) / tail)


def as_field(values: np.ndarray | list[float], grid: Grid) -> np.ndarray:
    """Validate nodal samples against the grid and return them as float64."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (grid.n,):
        raise ValidationError(
            f"field has shape {arr.shape}, expected ({grid.n},) for this grid"
        )
    if not np.isfinite(arr).all():
        raise ValidationError("field contains non-finite values")
    return arr


# rows of a written table formatted by one % and written by one call
TABLE_BLOCK = 1024


def write_table(path, header: str, sep: str, *columns: np.ndarray) -> None:
    """A header line, then one line per row of the columns with %.17g values:
    np.savetxt's bytes, written TABLE_BLOCK rows per call, not row by row."""
    table = np.column_stack(columns)
    line = sep.join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="latin1") as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), TABLE_BLOCK):
            block = table[start:start + TABLE_BLOCK]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))
