"""Session fixtures shared by the unit tests and the acceptance gate.

The cracked-solve sweeps are the expensive pieces; they are built once per
session and reused by every criterion that reads them.  The terminal-summary
hook prints one line per acceptance criterion after the run.
"""

import time

import numpy as np
import pytest

from crackbem import (
    BoundaryField,
    BoundarySolver,
    Disk,
    LameParams,
    build_mesh,
    length_sweep,
    project_off_rigid_motions,
)

SWEEP_EPS = (0.2, 0.1, 0.05, 0.025)

ACCEPTANCE_LINES = []


def record_acceptance(number, name, ok, detail):
    """Collect the pass/fail line, then enforce it."""
    verdict = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"criterion {number:2d} {name}: {verdict} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def mat():
    return LameParams(1.0, 1.0)


@pytest.fixture(scope="session")
def solver_128(mat):
    return BoundarySolver(build_mesh(Disk(), 128), mat)


@pytest.fixture(scope="session")
def solver_256(mat):
    return BoundarySolver(build_mesh(Disk(), 256), mat)


def constant_stress_background(solver, sigma):
    """Background field with traction data g = sigma . n on the boundary."""
    values = solver.mesh.normals @ np.asarray(sigma, dtype=float).T
    return solver.solve_background(BoundaryField(solver.mesh, values))


def fourier_load_background(solver):
    """Background field under a non-constant Fourier traction load, projected
    off the rigid motions, so the interior stress varies from point to point."""
    mesh = solver.mesh
    t = mesh.params
    values = np.cos(t)[:, None] * [1.0, 0.0] + np.sin(t)[:, None] * [0.0, 0.5]
    values += np.cos(3.0 * t)[:, None] * [0.3, -0.2]
    return solver.solve_background(project_off_rigid_motions(BoundaryField(mesh, values)))


def run_sweep(background, center, direction, eps_values=SWEEP_EPS):
    """Timed length_sweep: its records, their lengths and the elapsed seconds."""
    start = time.perf_counter()
    records = length_sweep(background, center, direction, eps_values)
    return {
        "background": background,
        "records": records,
        "eps": np.array([r["eps"] for r in records]),
        "elapsed": time.perf_counter() - start,
    }


@pytest.fixture(scope="session")
def tilted_crack_sweep(solver_256):
    """Uniaxial tension p = 1 along x1, crack center (0.3, 0), normal at 45
    degrees; drives the leading-order, remainder, and energy criteria."""
    background = constant_stress_background(solver_256, np.diag([1.0, 0.0]))
    return run_sweep(background, (0.3, 0.0), (np.sqrt(0.5), -np.sqrt(0.5)))


@pytest.fixture(scope="session")
def parallel_crack_sweep(solver_256):
    """Crack aligned with the uniaxial load: the crack-line traction vanishes
    identically, so the perturbation is zero to solver precision."""
    background = constant_stress_background(solver_256, np.diag([1.0, 0.0]))
    return run_sweep(background, (0.3, 0.0), (1.0, 0.0))


@pytest.fixture(scope="session")
def zero_center_traction_sweep(solver_256):
    """Equilibrated linear stress sigma = [[0, x1], [x1, -x2]] with the crack
    centered where sigma e_perp = 0: the leading term vanishes but the
    perturbation itself does not, so its decay order is measurable."""
    mesh = solver_256.mesh
    x1, x2 = mesh.points[:, 0], mesh.points[:, 1]
    n1, n2 = mesh.normals[:, 0], mesh.normals[:, 1]
    g = BoundaryField(mesh, np.stack([x1 * n2, x1 * n1 - x2 * n2], axis=-1))
    background = solver_256.solve_background(g)
    return run_sweep(background, (0.0, 0.0), (1.0, 0.0))


@pytest.fixture(scope="session")
def perpendicular_tension_sweep(solver_256):
    """Tension p = 1 along x2 across a crack aligned with x1; the scenario of
    the mid-crack opening criterion."""
    background = constant_stress_background(solver_256, np.diag([0.0, 1.0]))
    return run_sweep(background, (0.3, 0.0), (1.0, 0.0), eps_values=(0.1, 0.05))
