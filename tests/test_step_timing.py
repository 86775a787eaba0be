"""tools/step_timing.py, the untraced per-call timer of the stepping kernels,
runs end to end on a small grid."""

import importlib.util
import math
from pathlib import Path

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
    # on the exact front a step makes no Newton iteration; its reductions are
    # the range checks of step_v, step_u and linear_parabolic_step, the
    # regularized log's core test, the residual norm, the maximum principle
    # and the finite-solution check of step_u's solve, and no other pass
    assert results["front"]["reductions"] <= 9
    out = capsys.readouterr().out
    assert "front: m = 128" in out and "boundary_velocity" in out
