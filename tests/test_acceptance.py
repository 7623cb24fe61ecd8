"""Acceptance gate: one test per numbered criterion, each recording a
pass/fail line that the terminal-summary hook prints after the run.

The shared length sweeps live in conftest fixtures; criteria that read the
same sweep reuse one set of solves.
"""

import json
import time

import numpy as np

from crackbem import (
    BoundaryField,
    BoundarySolver,
    Disk,
    LameParams,
    build_mesh,
    ChebyshevUExpansion,
    dlp_traction_kernel,
    fit_log_slope,
    gauss_chebyshev_u,
    invert_finite_part_operator,
    project_off_rigid_motions,
)
from crackbem.cli import main
from conftest import record_acceptance
from oracles import (
    apply_finite_part_ref,
    fd_conormal,
    hadamard_finite_part,
    hypersingular_kernel_canonical,
    linear_field,
    neumann_interior_ref,
)

MATERIALS = [LameParams(1.0, 1.0), LameParams(2.5, 0.7), LameParams(-0.3, 1.2)]


def _fmt(slope) -> str:
    return "none" if slope is None else f"{slope:.3f}"


def test_criterion_01_inversion_identities():
    start = time.perf_counter()
    nodes, _ = gauss_chebyshev_u(33)
    first = invert_finite_part_operator(np.ones_like(nodes), 33)
    second = invert_finite_part_operator(nodes, 33)
    err = max(
        float(np.max(np.abs(first(nodes) + np.sqrt(1 - nodes**2)))),
        float(np.max(np.abs(second(nodes) + 0.5 * nodes * np.sqrt(1 - nodes**2)))),
    )
    elapsed = time.perf_counter() - start
    record_acceptance(
        1, "inversion identities", err < 1e-12 and elapsed < 1.0,
        f"max err {err:.2e}, {elapsed:.2f} s",
    )


def test_criterion_02_spectral_law():
    start = time.perf_counter()
    points = np.array([-0.53, 0.11, 0.78])
    worst = 0.0
    for n in range(11):
        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        psi = ChebyshevUExpansion(coeffs)
        exact = apply_finite_part_ref(psi, points)
        brute = np.array(
            [hadamard_finite_part(psi, float(x), n_panels=4096) / np.pi for x in points]
        )
        worst = max(worst, float(np.max(np.abs(brute - exact)) / np.max(np.abs(exact))))
    elapsed = time.perf_counter() - start
    record_acceptance(
        2, "finite-part spectral law", worst < 1e-6 and elapsed < 30.0,
        f"rel err {worst:.2e} over modes 0..10, {elapsed:.1f} s",
    )


def test_criterion_03_hypersingular_kernel_identity():
    rng = np.random.default_rng(0)
    e2 = np.array([0.0, 1.0])
    worst = 0.0
    for mat in MATERIALS:
        seps = rng.uniform(0.2, 2.0, size=50) * rng.choice([-1.0, 1.0], size=50)
        for d in seps:
            x = np.array([d, 0.0])
            fd = np.stack(
                [
                    fd_conormal(
                        lambda p, j=j: dlp_traction_kernel(p, np.zeros(2), e2, mat)[:, j],
                        x, e2, mat,
                    )
                    for j in range(2)
                ],
                axis=-1,
            )
            exact = hypersingular_kernel_canonical(d, 0.0, mat)
            worst = max(worst, float(np.max(np.abs(fd - exact)) / np.max(np.abs(exact))))
    record_acceptance(
        3, "hypersingular kernel identity", worst < 1e-6,
        f"rel err {worst:.2e} over 50 separations x 3 materials",
    )


def test_criterion_04_background_trace_recovery(mat):
    start = time.perf_counter()
    solver = BoundarySolver(build_mesh(Disk(), 256), mat)
    worst = 0.0
    for grad in (np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])):
        sigma = mat.lam * np.trace(grad) * np.eye(2) + mat.mu * (grad + grad.T)
        g = BoundaryField(solver.mesh, solver.mesh.normals @ sigma.T)
        background = solver.solve_background(g)
        exact = project_off_rigid_motions(
            BoundaryField(solver.mesh, linear_field(grad)(solver.mesh.points))
        )
        worst = max(worst, (background.trace - exact).sup_norm())
    elapsed = time.perf_counter() - start
    record_acceptance(
        4, "background trace recovery", worst < 1e-8 and elapsed < 10.0,
        f"sup err {worst:.2e} at N=256, {elapsed:.1f} s",
    )


def test_criterion_05_leading_order_slope(tilted_crack_sweep):
    fit = fit_log_slope(
        tilted_crack_sweep["eps"],
        np.array([r["sup_w"] for r in tilted_crack_sweep["records"]]),
    )
    elapsed = tilted_crack_sweep["elapsed"]
    record_acceptance(
        5, "leading-order trace slope",
        fit.slope is not None and 1.9 <= fit.slope <= 2.1 and elapsed < 300.0,
        f"slope {_fmt(fit.slope)} over eps 0.2..0.025, sweep {elapsed:.1f} s",
    )


def test_criterion_06_remainder_order(tilted_crack_sweep):
    records = tilted_crack_sweep["records"]
    fit = fit_log_slope(
        tilted_crack_sweep["eps"], np.array([r["sup_mismatch"] for r in records])
    )
    at_005 = next(r for r in records if r["eps"] == 0.05)
    ratio = at_005["sup_mismatch"] / at_005["sup_leading"]
    record_acceptance(
        6, "remainder above leading order",
        fit.slope is not None and fit.slope >= 3.7 and ratio < 0.05,
        f"slope {_fmt(fit.slope)}, mismatch/leading {ratio:.2%} at eps=0.05",
    )


def test_criterion_07_vanishing_leading_term(parallel_crack_sweep, zero_center_traction_sweep):
    # crack parallel to a uniform load: the cracked solution equals the
    # background exactly, so the perturbation sits at solver zero and no
    # decay rate is measurable; a linear load with zero center traction
    # provides the measurable companion order
    parallel = np.array([r["sup_w"] for r in parallel_crack_sweep["records"]])
    scale = parallel_crack_sweep["background"].trace.sup_norm()
    floor = 1e-13 * max(1.0, scale)
    fit_parallel = fit_log_slope(parallel_crack_sweep["eps"], parallel, noise_floor=floor)
    parallel_ok = fit_parallel.slope is None or fit_parallel.slope >= 3.5

    fit_companion = fit_log_slope(
        zero_center_traction_sweep["eps"],
        np.array([r["sup_w"] for r in zero_center_traction_sweep["records"]]),
    )
    companion_ok = fit_companion.slope is not None and fit_companion.slope >= 3.5
    detail = (
        f"parallel sup {parallel.max():.1e} ({fit_parallel.note}), "
        f"companion slope {_fmt(fit_companion.slope)}"
    )
    record_acceptance(7, "vanishing-traction orientation", parallel_ok and companion_ok, detail)


def test_criterion_08_mid_crack_opening(perpendicular_tension_sweep, mat):
    bounds = {0.1: 0.10, 0.05: 0.03}
    errs = {}
    for rec in perpendicular_tension_sweep["records"]:
        opening = rec["solution"].opening(0.0)[1]
        expected = 2.0 * rec["eps"] / mat.E
        errs[rec["eps"]] = abs(opening - expected) / expected
    ok = all(errs[eps] < bound for eps, bound in bounds.items())
    record_acceptance(
        8, "mid-crack opening",
        ok, ", ".join(f"rel err {errs[e]:.2%} at eps={e:g}" for e in sorted(errs)),
    )


def test_criterion_09_energy_asymptotic(tilted_crack_sweep):
    records = tilted_crack_sweep["records"]
    mismatch = np.array([abs(r["energy_diff"] - r["energy_formula"]) for r in records])
    fit = fit_log_slope(tilted_crack_sweep["eps"], mismatch, noise_floor=1e-13)
    record_acceptance(
        9, "energy difference asymptote",
        fit.slope is not None and fit.slope >= 3.7,
        f"slope {_fmt(fit.slope)} of |quadrature - closed form| over the sweep",
    )


def test_criterion_10_topological_derivative_map(tmp_path, mat):
    config = {
        "material": {"lambda": 1.0, "mu": 1.0},
        "geometry": {"kind": "disk", "radius": 1.0},
        "load": {"kind": "constant-stress", "sigma": [[1.0, 0.0], [0.0, 0.0]]},
        "discretization": {"n_boundary": 128},
        "td_map": {"n_grid": 5, "n_angles": 16, "margin": 0.45},
    }
    cfg = tmp_path / "td.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "td"
    code = main(["td-map", "--config", str(cfg), "--out", str(out)])
    rows = np.genfromtxt(out / "td_map.csv", delimiter=",", names=True)
    optimum_at_90 = bool(np.all(rows["min_angle_deg"] == 90.0))
    nonpositive = bool(np.all(rows["td"] <= 0.0))
    best = float(np.min(rows["td"]))
    closed_form = -1.0 / (4.0 * mat.E)
    rel = abs(best - closed_form) / abs(closed_form)
    record_acceptance(
        10, "topological-derivative map",
        code == 0 and optimum_at_90 and nonpositive and rel < 1e-10,
        f"optimum angle 90 everywhere: {optimum_at_90}, td <= 0: {nonpositive}, "
        f"optimum rel err {rel:.2e}",
    )


def test_criterion_11_neumann_reciprocity(solver_256):
    rng = np.random.default_rng(4)
    worst = 0.0
    pairs = 0
    while pairs < 5:
        x, y = rng.uniform(-0.55, 0.55, size=(2, 2))
        if np.linalg.norm(x - y) < 0.2:
            continue
        n_xy = neumann_interior_ref(solver_256, x, y[None, :])[0]
        n_yx = neumann_interior_ref(solver_256, y, x[None, :])[0]
        worst = max(worst, float(np.max(np.abs(n_xy - n_yx.T))))
        pairs += 1
    record_acceptance(
        11, "reciprocity of the traction Green function", worst < 1e-7,
        f"max asymmetry {worst:.2e} over 5 interior pairs",
    )
