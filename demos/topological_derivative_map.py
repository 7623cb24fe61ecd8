#!/usr/bin/env python3
"""Map the topological derivative of the potential energy over the domain.

For each interior point and each trial crack orientation, the leading-order
energy release per crack area follows from the background stress alone: it is
-(K1^2 + K2^2) / (4 E) with K1, K2 the normal and shear components of the
background traction across the trial crack line. The most negative value
marks where and how a small crack relieves the most energy. Under uniform
uniaxial tension the optimum orientation is perpendicular to the load
everywhere and the value is -p^2 / (4 E); a spatially varying load makes the
map genuinely nonuniform.
"""

import numpy as np

from crackbem import (
    BoundaryField,
    Disk,
    LameParams,
    build_mesh,
    orientation_scan,
    solve_background,
)

N_NODES = 128
LAM, MU = 1.0, 1.0
N_GRID = 9
N_ANGLES = 36
MARGIN = 0.3


def td_map(background, points, angles):
    """Most negative derivative and the optimal angle at each point."""
    _, td, best = orientation_scan(background, points, angles)
    return td[np.arange(len(points)), best], np.degrees(angles[best])


def main():
    mat = LameParams(LAM, MU)
    mesh = build_mesh(Disk(radius=1.0), N_NODES)
    angles = np.linspace(0.0, np.pi, N_ANGLES, endpoint=False)

    axis = np.linspace(-1.0 + MARGIN, 1.0 - MARGIN, N_GRID)
    xx, yy = np.meshgrid(axis, axis)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) < 1.0 - MARGIN]

    # uniform uniaxial tension: flat map, known optimum
    sigma = np.array([[1.0, 0.0], [0.0, 0.0]])
    background = solve_background(mesh, mat, BoundaryField(mesh, mesh.normals @ sigma.T))
    val, ang = td_map(background, pts, angles)
    print("uniaxial tension p = 1")
    print(f"  grid points        : {len(pts)}")
    print(f"  derivative range   : [{val.min():.6f}, {val.max():.6f}]")
    print(f"  closed form -p^2/4E: {-1.0 / (4.0 * mat.E):.6f}")
    print(f"  optimal angles     : all {ang.min():.0f} to {ang.max():.0f} degrees")

    # spatially varying equilibrated load: the map picks out a hot spot
    normals, bnd = mesh.normals, mesh.points
    g_values = np.column_stack(
        [
            bnd[:, 0] * normals[:, 1],
            bnd[:, 0] * normals[:, 0] - bnd[:, 1] * normals[:, 1],
        ]
    )
    background = solve_background(mesh, mat, BoundaryField(mesh, g_values))
    val, ang = td_map(background, pts, angles)
    hot = np.argmin(val)
    print("position-dependent shear-like load")
    print(f"  derivative range   : [{val.min():.6f}, {val.max():.6f}]")
    print(
        f"  most negative at   : ({pts[hot, 0]:+.3f}, {pts[hot, 1]:+.3f}), "
        f"angle {ang[hot]:.0f} degrees"
    )

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping the map plot")
        return

    fig, ax = plt.subplots(figsize=(5.5, 5))
    sc = ax.scatter(pts[:, 0], pts[:, 1], c=val, s=90, cmap="viridis")
    ax.add_patch(plt.Circle((0, 0), 1.0, fill=False, color="k", lw=0.8))
    ax.set_aspect("equal")
    ax.set_title("topological derivative, varying load")
    fig.colorbar(sc, ax=ax)
    fig.tight_layout()
    fig.savefig("topological_derivative_map.png", dpi=150)
    print("wrote topological_derivative_map.png")


if __name__ == "__main__":
    main()
