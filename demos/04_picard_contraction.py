"""The fixed-point map on interface paths is a contraction on short windows.

Given a trial path, the solver advances the fields along it and re-derives
the path from the boundary trace of the velocity.  On a window short enough
the map contracts; this script prints the successive iterate distances and
their ratios, starting from the straight-line guess.
"""

import numpy as np

from congested_ns import PhysicalParams, make_grid
from congested_ns.freeboundary import picard_solve, validate_hypotheses
from congested_ns.perturbations import initial_data_fields

params = PhysicalParams(mu=1.0, v_plus=2.0, u_minus=1.0, u_plus=0.0)
grid = make_grid(50.0, 2049)

v0, u0 = initial_data_fields("gaussian_bump", 1e-3, 2.0, 0.5, params, grid)
init = validate_hypotheses(v0, u0, grid, params)
print(f"data-determined initial interface speed: {init.compat_speed:.12f}")

traj = picard_solve(init, grid, params, T_final=0.25, dt=1e-3, tol=1e-8,
                    max_iter=15, window=0.25)
window = traj.windows[0]
print(f"\nconverged in {window.iterations} iterations (H1 tolerance 1e-8)")
print("  iter   H1 distance    ratio")
ratios = ["  -  "] + [f"{r:.3f}" for r in window.ratios]
for k, (d, ratio) in enumerate(zip(window.distances, ratios)):
    print(f"  {k + 1:3d}    {d:.3e}     {ratio}")
print(f"\nfinal interface speed deviation: {np.max(np.abs(traj.ydot - params.s)):.3e}")
