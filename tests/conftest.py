import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import congested_ns
from congested_ns.core import PhysicalParams, make_grid
from congested_ns.profiles import traveling_wave


def _without_timings(record):
    """A parsed summary.json without its wall-time keys, at any depth."""
    if isinstance(record, dict):
        return {k: _without_timings(v) for k, v in record.items()
                if k not in ("elapsed_seconds", "solve_seconds")}
    if isinstance(record, list):
        return [_without_timings(v) for v in record]
    return record


def _comparable(path: Path):
    """A run output file as two runs of one config must agree on it."""
    if path.name == "summary.json":
        # re-serialized, so that a NaN equals itself
        return json.dumps(_without_timings(json.loads(path.read_text(encoding="utf-8"))))
    if path.name == "config_resolved.txt":
        return [line for line in path.read_text(encoding="utf-8").splitlines()
                if not line.startswith("out_dir =")]
    return path.read_bytes()


def output_differences(dir_a, dir_b) -> list[str]:
    """The names of the output files in which two run directories differ.

    summary.json is compared without elapsed_seconds and solve_seconds,
    config_resolved.txt without its out_dir line, and every other file byte
    for byte.  A file present in only one directory differs.
    """
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    names = sorted({p.name for p in dir_a.iterdir()} | {p.name for p in dir_b.iterdir()})
    return [name for name in names
            if not ((dir_a / name).is_file() and (dir_b / name).is_file()
                    and _comparable(dir_a / name) == _comparable(dir_b / name))]


def run_python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """A fresh interpreter run on args, with the package under test first on
    PYTHONPATH and its output captured as text."""
    src = str(Path(congested_ns.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


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

    build(n, stored_idx, dt, shape, params) stores, at the given steps, the
    exact front plus a deviation, on a gaussian-bump datum on make_grid(50, n)
    with the session's params unless others are given; the interface speed
    oscillates about s.  `shape` picks the deviation:
      "bump"    -- a smooth bump that drifts and breathes in time; u's
                   part underflows to exact zeros from about x = 30 on, so
                   the stored rows differ from the wave up to mid-grid;
      "wave"    -- none: every stored row is the exact front;
      "edge"    -- the bump plus a ramp of v that reaches node n - 1;
      "row0"    -- the bump plus, in the first stored row only, 1e-22 added
                   to u at x = 40, below the march's ACTIVE_FLOOR;
      "growing" -- a fixed bump growing linearly in time from zero.
    """
    from congested_ns.discrete_ops import cumulative_trapezoid
    from congested_ns.freeboundary import Trajectory, WindowReport, validate_hypotheses
    from congested_ns.perturbations import initial_data_fields

    def build(n: int, stored_idx, dt: float = 2e-3, shape: str = "bump",
              params: PhysicalParams = params) -> Trajectory:
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
        g = 1e-2 * (1.0 + 0.5 * np.sin(5.0 * ts)) * bump
        h = 1e-2 * np.cos(4.0 * ts) * bump
        if shape == "wave":
            g, h = 0.0 * g, 0.0 * h
        elif shape == "edge":
            g = g + 1e-3 * np.cos(ts) * grid.x / grid.R
        elif shape == "growing":
            g = h = ts * np.exp(-((grid.x - 2.0) ** 2))
        v, u = wave.v_bar + g, wave.u_bar + h
        if shape == "row0":
            u[0, 4 * (n - 1) // 5] += 1e-22
        return Trajectory(
            t=t, y=y, ydot=ydot,
            p_s=ydot * (params.u_minus - init.w0_eval(y)),
            stored_idx=stored_idx, v=v, u=u,
            windows=[WindowReport(t_start=0.0, distances=[1e-9])],
            init=init,
        )

    return build

