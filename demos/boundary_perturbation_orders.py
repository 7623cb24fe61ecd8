#!/usr/bin/env python3
"""Measure how the boundary trace responds to a shrinking interior crack.

For a crack of length eps at a fixed interior point, the boundary trace of
the cracked solution differs from the crack-free trace by a term of order
eps^2 with an explicitly computable profile, and the remainder after removing
that term drops at order eps^4. The potential energy difference follows the
same pattern against its closed form. This script runs the sweep, prints the
per-eps table, and fits the log-log slopes.  The wall-clock time of the
sweep goes to stderr, so stdout is the same on every run.
"""

import sys
import time

import numpy as np

from crackbem import (
    BoundaryField,
    Disk,
    LameParams,
    build_mesh,
    fit_log_slope,
    length_sweep,
    solve_background,
    sweep_cracks,
)

N_NODES = 256
LAM, MU = 1.0, 1.0
EPS_VALUES = (0.2, 0.1, 0.05, 0.025)
CENTER = (0.3, 0.0)
DIRECTION = (np.sqrt(0.5), -np.sqrt(0.5))


def main():
    mat = LameParams(LAM, MU)
    mesh = build_mesh(Disk(radius=1.0), N_NODES)
    sigma = np.array([[1.0, 0.0], [0.0, 0.0]])
    g = BoundaryField(mesh, mesh.normals @ sigma.T)
    background = solve_background(mesh, mat, g)

    t0 = time.perf_counter()
    records = length_sweep(background, sweep_cracks(mesh, CENTER, DIRECTION, EPS_VALUES))
    elapsed = time.perf_counter() - t0

    print("uniaxial tension, crack tilted 45 degrees at (0.3, 0)")
    print(
        f"{'eps':>6} {'sup |w|':>12} {'sup |w - lead|':>15} "
        f"{'energy diff':>13} {'closed form':>13} {'|gap|':>10}"
    )
    for r in records:
        print(
            f"{r['eps']:6.3f} {r['sup_w']:12.4e} {r['sup_mismatch']:15.4e} "
            f"{r['energy_diff']:13.6e} {r['energy_formula']:13.6e} {r['energy_mismatch']:10.2e}"
        )

    eps = np.array(EPS_VALUES)
    for label, key, expect in (
        ("sup |w|", "sup_w", 2.0),
        ("sup |w - leading|", "sup_mismatch", 4.0),
        ("energy difference gap", "energy_mismatch", 4.0),
    ):
        fit = fit_log_slope(eps, np.array([r[key] for r in records]))
        print(f"slope of {label:<22}: {fit.slope:.3f}  (expected about {expect:.0f})")
    print(f"sweep time: {elapsed:.2f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
