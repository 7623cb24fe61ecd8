#!/usr/bin/env python3
"""Solve the crack-free traction problem on a disk and check it exactly.

A constant stress field sigma has the linear displacement u(x) = eps_grad x
with eps_grad the corresponding strain, so the boundary solver can be checked
end to end: feed it the traction g = sigma n and compare the recovered trace,
interior displacement, and interior stress against the closed forms.

The three errors are at rounding level, and their digits move whenever the
kernel arithmetic is reordered, so each is printed against a stated bound:
the output is the same for every revision that solves the problem right.
"""

import numpy as np

from crackbem import (
    BoundaryField,
    Disk,
    LameParams,
    build_mesh,
    project_off_rigid_motions,
    solve_background,
)

N_NODES = 256
LAM, MU = 1.0, 1.0
SIGMA = np.array([[1.0, 0.3], [0.3, -0.5]])
BOUND = 1e-12


def strain_from_stress(sigma, mat):
    """Invert the plane isotropic Hooke law for a constant symmetric stress."""
    tr = np.trace(sigma)
    return (sigma - mat.lam * tr / (2.0 * (mat.lam + mat.mu)) * np.eye(2)) / (
        2.0 * mat.mu
    )


def main():
    mat = LameParams(LAM, MU)
    mesh = build_mesh(Disk(radius=1.0), N_NODES)
    g = BoundaryField(mesh, mesh.normals @ SIGMA.T)

    background = solve_background(mesh, mat, g)

    eps_grad = strain_from_stress(SIGMA, mat)
    exact_trace = mesh.points @ eps_grad.T
    # the Neumann problem fixes u only up to rigid motions; compare projections
    recovered = project_off_rigid_motions(background.trace).values
    expected = project_off_rigid_motions(BoundaryField(mesh, exact_trace)).values
    trace_err = np.abs(recovered - expected).max()

    interior = np.array([[0.0, 0.0], [0.4, -0.2], [-0.55, 0.3], [0.1, 0.7]])
    stress_err = np.abs(background.stress(interior) - SIGMA).max()

    print(f"mesh nodes                        : {N_NODES}")
    print(f"applied stress                    : {SIGMA.tolist()}")
    print(f"strain from Hooke law             : {eps_grad.tolist()}")
    print(f"boundary trace error below {BOUND:g}  : {trace_err < BOUND}")
    print(f"interior stress error below {BOUND:g} : {stress_err < BOUND}")

    # the exact field's trace is rigid-motion orthogonal on the centered
    # disk (its gradient is symmetric), so the displacement at the origin is 0
    u_center = background.displacement(np.zeros((1, 2)))[0]
    print(f"displacement at origin below {BOUND:g}: {np.abs(u_center).max() < BOUND}")


if __name__ == "__main__":
    main()
