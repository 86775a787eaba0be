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


def _load_tool():
    spec = importlib.util.spec_from_file_location("step_timing", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_timing_runs_at_small_n(capsys):
    module = _load_tool()
    results = module.main(["--n", "257", "--repeat", "1", "--number", "3"])
    assert set(results) == {"front", "bootstrap"}
    for row in results.values():
        assert all(0.0 < row[name] < math.inf for name in (*KERNELS, "march step"))
        assert math.isfinite(row["glue"])
    assert results["front"]["m"] == 128 < results["bootstrap"]["m"] <= 256
    # on the exact front step_v takes no update.  The step's reductions are
    # step_v's range pair, which is also its maximum-principle pair and the
    # regularized log's core test, step_v's zero-residual test, the range
    # tests of step_u and linear_parabolic_step, and the finite-solution
    # test of step_u's solve, and no other pass
    assert results["front"]["reductions"] == 6
    # with the update, also the finite-solution test of step_v's solve and
    # its result's maximum-principle pair; an array source adds none
    assert results["bootstrap"]["reductions"] == 9
    # the steps write into the march's workspace
    for row in results.values():
        assert 0 < row["temporaries"] < 8 * (row["m"] + 1)
    out = capsys.readouterr().out
    assert "front: m = 128" in out and "boundary_velocity" in out and "head arrays" in out


def test_a_step_pair_allocates_less_than_one_head_array():
    # step_v and step_u write every temporary into the march's workspace:
    # at the recorded front and bootstrap states of the whole grid, what one
    # pair allocates peaks below one array of the head
    module = _load_tool()
    for preset, T_final in module.STATES.values():
        calls = module.last_calls(preset, 2049, T_final)
        nodes = calls["step_v"].args[3].n
        assert nodes in (129, 934)
        assert module.temporaries(calls) < 8 * nodes


def test_step_timing_restores_the_kernels_and_times_the_solver_calls(monkeypatch):
    module = _load_tool()
    real = {name: getattr(owner, name) for owner, name in module.KERNELS}
    module.main(["--n", "257", "--repeat", "1", "--number", "1"])
    assert all(getattr(owner, name) is real[name] for owner, name in module.KERNELS)
    assert freeboundary.step_v is parabolic.step_v and freeboundary.step_u is parabolic.step_u
    # the recorded call is the solver's own: on the exact front, a discrete
    # steady state, step_v returns its input v bit for bit
    step_v = module.last_calls("steady_wave", 257, None)["step_v"]
    assert step_v.func is parabolic.step_v
    assert step_v().tobytes() == step_v.args[0].tobytes()
    # off the steady state too: the recorded bootstrap step_v reproduces the
    # v that the solver passed on to step_u, so its input is the state as it
    # was before the step, not a view of the march's state after it
    calls = module.last_calls("bootstrap_check", 257, 2.0)
    assert calls["step_v"]().tobytes() == calls["step_u"].args[1].tobytes()

    # a run that fails still restores every kernel
    def failing_solve(cfg):
        assert all(getattr(owner, name) is not real[name] for owner, name in module.KERNELS)
        raise RuntimeError("solver failure")

    monkeypatch.setattr(module, "_solve_from_config", failing_solve)
    with pytest.raises(RuntimeError, match="solver failure"):
        module.last_calls("steady_wave", 257, None)
    assert all(getattr(owner, name) is real[name] for owner, name in module.KERNELS)
