import numpy as np
import pytest

from congested_ns.core import PhysicalParams, make_grid
from congested_ns.profiles import traveling_wave


@pytest.fixture(scope="session")
def params():
    return PhysicalParams(mu=1.0, v_plus=2.0, u_minus=1.0, u_plus=0.0)


@pytest.fixture(scope="session")
def grid():
    return make_grid(50.0, 2049)


@pytest.fixture(scope="session")
def wave(params, grid):
    return traveling_wave(params, grid)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def synthetic_run(params):
    """Builder of a Trajectory without a solve, for the post-solve certificates.

    build(n, stored_idx, dt) stores, at the given steps, the exact front plus
    a smooth bump that drifts and breathes in time, on a gaussian-bump datum
    on make_grid(50, n); the interface speed oscillates about s.
    """
    from congested_ns.discrete_ops import cumulative_trapezoid
    from congested_ns.freeboundary import Trajectory, WindowReport, validate_hypotheses
    from congested_ns.perturbations import initial_data_fields

    def build(n: int, stored_idx, dt: float = 2e-3) -> Trajectory:
        grid = make_grid(50.0, n)
        v0, u0 = initial_data_fields("gaussian_bump", 1e-2, 2.0, 0.5, params, grid)
        init = validate_hypotheses(v0, u0, grid, params)
        wave = init.wave
        stored_idx = np.asarray(stored_idx)
        t = dt * np.arange(stored_idx[-1] + 1)
        ydot = params.s + 1e-3 * np.sin(3.0 * t)
        y = cumulative_trapezoid(ydot, dt)
        ts = t[stored_idx, None]
        bump = np.exp(-((grid.x - 2.0 - 0.3 * ts) ** 2))
        return Trajectory(
            t=t, y=y, ydot=ydot,
            p_s=ydot * (params.u_minus - init.w0_eval(y)),
            stored_idx=stored_idx,
            v=wave.v_bar + 1e-2 * (1.0 + 0.5 * np.sin(5.0 * ts)) * bump,
            u=wave.u_bar + 1e-2 * np.cos(4.0 * ts) * bump,
            windows=[WindowReport(t_start=0.0, distances=[1e-9])],
            init=init,
        )

    return build
