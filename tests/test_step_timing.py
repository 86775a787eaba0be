"""tools/step_timing.py, the untraced per-call timer of the stepping kernels,
runs end to end on a small grid."""

import importlib.util
import math
from pathlib import Path

import pytest

from congested_ns import freeboundary, parabolic

TOOL = Path(__file__).resolve().parent.parent / "tools" / "step_timing.py"
KERNELS = ("step_v", "step_u", "step_v+step_u", "linear_parabolic_step",
           "_solve_tridiagonal", "boundary_velocity")


def test_step_timing_runs_at_small_n(capsys):
    spec = importlib.util.spec_from_file_location("step_timing", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    results = module.main(["--n", "257", "--repeat", "1", "--number", "3"])
    assert set(results) == {"front", "bootstrap"}
    for row in results.values():
        assert all(0.0 < row[name] < math.inf for name in KERNELS)
    assert results["front"]["m"] == 128 < results["bootstrap"]["m"] <= 256
    # on the exact front step_v takes no update; the step's reductions are
    # step_v's range pair, which is also its maximum-principle pair, the
    # regularized log's core test, the residual norm, and the range checks of
    # step_u and linear_parabolic_step and the finite-solution check of
    # step_u's solve, and no other pass
    assert results["front"]["reductions"] <= 8
    # with the update, also the finite-solution check of step_v's solve and
    # its result's maximum-principle pair; an array source adds none
    assert results["bootstrap"]["reductions"] <= 11
    out = capsys.readouterr().out
    assert "front: m = 128" in out and "boundary_velocity" in out


def test_step_timing_restores_the_kernels_and_times_the_solver_calls(monkeypatch):
    spec = importlib.util.spec_from_file_location("step_timing", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    real = {name: getattr(owner, name) for owner, name in module.KERNELS}
    module.main(["--n", "257", "--repeat", "1", "--number", "1"])
    assert all(getattr(owner, name) is real[name] for owner, name in module.KERNELS)
    assert freeboundary.step_v is parabolic.step_v and freeboundary.step_u is parabolic.step_u
    # the recorded call is the solver's own: on the exact front, a discrete
    # steady state, step_v returns its input v bit for bit
    step_v = module.last_calls("steady_wave", 257, None)["step_v"]
    assert step_v.func is parabolic.step_v
    assert step_v().tobytes() == step_v.args[0].tobytes()

    # a run that fails still restores every kernel
    def failing_solve(cfg):
        assert all(getattr(owner, name) is not real[name] for owner, name in module.KERNELS)
        raise RuntimeError("solver failure")

    monkeypatch.setattr(module, "_solve_from_config", failing_solve)
    with pytest.raises(RuntimeError, match="solver failure"):
        module.last_calls("steady_wave", 257, None)
    assert all(getattr(owner, name) is real[name] for owner, name in module.KERNELS)
