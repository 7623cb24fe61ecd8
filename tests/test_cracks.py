"""Coupled crack/boundary solves: geometry, the wide-domain closed-form
opening, representation cross-checks, and failure modes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crackbem import (
    BoundaryField,
    BoundarySolver,
    CrackSegment,
    Disk,
    LameParams,
    build_mesh,
    crack_traction_samples,
    length_sweep,
    solve_cracked,
)
from crackbem.errors import CrackTooCloseToBoundary, SolveFailed
from conftest import constant_stress_background
from oracles import trace_from_neumann_representation


def test_crack_segment_geometry():
    crack = CrackSegment(center=(0.3, -0.1), direction=(3.0, 4.0), length=0.2)
    assert np.allclose(crack.tangent, [0.6, 0.8])
    assert np.allclose(crack.normal, [-0.8, 0.6])
    assert crack.half_length == pytest.approx(0.1)
    tips = crack.points(np.array([-1.0, 1.0]))
    assert np.allclose(tips[0], [0.3 - 0.06, -0.1 - 0.08])
    assert np.allclose(tips[1], [0.3 + 0.06, -0.1 + 0.08])


def test_crack_segment_validation():
    with pytest.raises(ValueError):
        CrackSegment(center=(0.0, 0.0), direction=(0.0, 0.0), length=0.1)
    with pytest.raises(ValueError):
        CrackSegment(center=(0.0, 0.0), direction=(1.0, 0.0), length=0.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("center", (np.nan, 0.0)),
        ("center", (0.0, np.inf)),
        ("direction", (np.nan, 1.0)),
        ("length", np.inf),
        ("length", np.nan),
    ],
)
def test_crack_segment_refuses_non_finite(field, value):
    args = {"center": (0.0, 0.0), "direction": (1.0, 0.0), "length": 0.1, field: value}
    with pytest.raises(ValueError, match=f"crack {field} must be finite"):
        CrackSegment(**args)


@pytest.mark.parametrize(
    "field, value",
    [
        ("direction", (1.0, 0.0, 0.0)),
        ("direction", 1.0),
        ("center", (0.0, 0.0, 0.0)),
        ("center", ((0.0, 0.0), (0.1, 0.0))),
        ("center", (0.0,)),
    ],
)
def test_crack_segment_refuses_non_2_vectors(field, value):
    args = {"center": (0.0, 0.0), "direction": (1.0, 0.0), "length": 0.1, field: value}
    with pytest.raises(ValueError, match=f"crack {field} must be a 2-vector"):
        CrackSegment(**args)


def test_crack_traction_samples_constant_stress(solver_128):
    background = constant_stress_background(solver_128, np.diag([0.0, 1.0]))
    crack = CrackSegment(center=(0.2, 0.1), direction=(1.0, 0.0), length=0.1)
    eta = np.linspace(-0.9, 0.9, 5)
    samples = crack_traction_samples(background, crack, eta)
    assert np.allclose(samples, [0.0, 1.0], atol=1e-10)


def test_wide_domain_opening_matches_closed_form(mat):
    # tension p across a central crack in a huge disk: the opening is
    # (4 p / E) sqrt(c^2 - s^2) up to O((c/R)^2) finite-size corrections
    solver = BoundarySolver(build_mesh(Disk(radius=40.0), 256), mat)
    background = constant_stress_background(solver, np.diag([0.0, 1.0]))
    crack = CrackSegment(center=(0.0, 0.0), direction=(1.0, 0.0), length=0.5)
    solution = solve_cracked(background, crack)
    c = crack.half_length
    s = np.array([0.0, 0.3 * c, -0.6 * c, 0.9 * c])
    opening = solution.opening(s)
    exact = 4.0 / mat.E * np.sqrt(c * c - s * s)
    assert np.allclose(opening[:, 1], exact, rtol=5e-4)
    assert np.max(np.abs(opening[:, 0])) < 1e-6  # pure opening, no sliding
    assert np.allclose(solution.opening(np.array([-c, c])), 0.0, atol=1e-14)


def test_mid_crack_opening_leading_order(perpendicular_tension_sweep, mat):
    # vector opening at the center approaches (2 eps / E) t0 with t0 = (0, 1)
    for rec in perpendicular_tension_sweep["records"]:
        opening = rec["solution"].opening(0.0)
        expected = 2.0 * rec["eps"] / mat.E
        assert opening[1] == pytest.approx(expected, rel=5e-2)
        assert abs(opening[0]) < 1e-8


def test_trace_matches_neumann_representation(tilted_crack_sweep):
    # the same perturbation through the independent Green-function route
    rec = tilted_crack_sweep["records"][1]  # eps = 0.1
    alt = trace_from_neumann_representation(rec["solution"], n_quad=48)
    assert np.max(np.abs(alt - rec["solution"].w.values)) < 1e-9


def test_picard_iteration_diagnostics(tilted_crack_sweep):
    for rec in tilted_crack_sweep["records"]:
        diag = rec["solution"].diagnostics
        assert diag["iterations"] <= 10
        assert diag["last_update"] <= diag["tolerance"]
        assert len(diag["update_history"]) == diag["iterations"]


def test_frame_invariance(solver_128, mat):
    # rotating load, crack, and evaluation frame by a node multiple leaves
    # the opening invariant and rotates the trace perturbation
    mesh = solver_128.mesh
    k = 7
    angle = k * mesh.h
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    sigma = np.diag([1.0, 0.0])
    crack = CrackSegment(center=(0.25, 0.05), direction=(1.0, 0.0), length=0.15)
    base = solve_cracked(constant_stress_background(solver_128, sigma), crack)
    crack_rot = CrackSegment(
        center=tuple(rot @ np.array(crack.center)), direction=tuple(rot[:, 0]),
        length=crack.length,
    )
    rotated = solve_cracked(
        constant_stress_background(solver_128, rot @ sigma @ rot.T), crack_rot
    )
    s = np.array([-0.05, 0.0, 0.04])
    assert np.allclose(rotated.opening(s), base.opening(s) @ rot.T, atol=1e-10)
    assert np.allclose(
        np.roll(rotated.w.values, -k, axis=0), base.w.values @ rot.T, atol=1e-10
    )


def rotation_invariants(solver, theta):
    """energy_diff, K1^2 + K2^2 and the L^2(d sigma) norm of w for one crack,
    with its center, its direction and the load rotated by theta."""
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    sigma = rot @ np.array([[1.0, 0.3], [0.3, -0.5]]) @ rot.T
    background = constant_stress_background(solver, sigma)
    direction = rot @ np.array([np.cos(0.4), np.sin(0.4)])
    (record,) = length_sweep(background, rot @ np.array([0.25, 0.05]), direction, [0.15])
    w = record["solution"].w
    return record["energy_diff"], record["K1"] ** 2 + record["K2"] ** 2, np.sqrt(w.dot(w))


@settings(max_examples=10, deadline=None, database=None)
@given(theta=st.floats(0.0, 2.0 * np.pi, exclude_max=True))
def test_rotation_invariance_at_any_angle(solver_128, theta):
    # on a disk, rotating the crack and the load together by any angle (not
    # only a node multiple) leaves these node-independent quantities unchanged;
    # a component sup norm would not be, as it samples fixed nodes
    base = rotation_invariants(solver_128, 0.0)
    rotated = rotation_invariants(solver_128, theta)
    assert np.allclose(rotated, base, rtol=1e-10, atol=0.0)


def cracked_w(shape, mat, center, angle):
    """Perturbation trace w of a 0.1-long crack under a fixed constant stress."""
    solver = BoundarySolver(build_mesh(shape, 64), mat)
    background = constant_stress_background(solver, [[1.0, 0.3], [0.3, -0.5]])
    crack = CrackSegment(center=center, direction=(np.cos(angle), np.sin(angle)), length=0.1)
    return background, solve_cracked(background, crack).w.values


inside = st.floats(-0.4, 0.4)


@settings(max_examples=10, deadline=None, database=None)
@given(center=st.tuples(inside, inside), angle=st.floats(0.0, np.pi),
       shift=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)))
def test_translation_invariance(center, angle, shift):
    # moving the disk, the crack and the load together leaves w unchanged
    mat = LameParams(1.0, 1.0)
    _, w = cracked_w(Disk(), mat, center, angle)
    moved = tuple(np.add(center, shift))
    _, w_moved = cracked_w(Disk(center=shift), mat, moved, angle)
    assert np.allclose(w_moved, w, rtol=0.0, atol=1e-10)


@settings(max_examples=10, deadline=None, database=None)
@given(center=st.tuples(inside, inside), angle=st.floats(0.0, np.pi),
       lam=st.floats(0.2, 3.0), mu=st.floats(0.2, 3.0), c=st.floats(0.1, 10.0))
def test_material_scaling(center, angle, lam, mu, c):
    # (lam, mu) -> c (lam, mu) divides every displacement by c
    background, w = cracked_w(Disk(), LameParams(lam, mu), center, angle)
    scaled, w_scaled = cracked_w(Disk(), LameParams(c * lam, c * mu), center, angle)
    assert np.allclose(c * scaled.trace.values, background.trace.values, rtol=0.0, atol=1e-12)
    assert np.allclose(c * w_scaled, w, rtol=0.0, atol=1e-9)


def test_coarse_crack_resolution_matches_default(solver_256):
    # one node set serves collocation and the transfer quadrature; a smooth
    # load on a short crack is resolved by a dozen modes
    background = constant_stress_background(solver_256, np.diag([1.0, 0.3]))
    crack = CrackSegment(center=(0.4, 0.0), direction=(np.sqrt(0.5), -np.sqrt(0.5)), length=0.3)
    fine = solve_cracked(background, crack, n_modes=32).w.values
    coarse = solve_cracked(background, crack, n_modes=12).w.values
    assert np.max(np.abs(coarse - fine)) <= 1e-12 * np.max(np.abs(fine))


def test_solver_guard_rails(solver_128):
    background = constant_stress_background(solver_128, np.diag([0.0, 1.0]))
    with pytest.raises(CrackTooCloseToBoundary):
        solve_cracked(
            background, CrackSegment(center=(0.7, 0.0), direction=(1.0, 0.0), length=0.4)
        )
    with pytest.raises(SolveFailed):
        solve_cracked(
            background,
            CrackSegment(center=(0.0, 0.0), direction=(1.0, 0.0), length=0.2),
            max_iterations=1,
        )


@pytest.mark.parametrize("options", [{"max_iterations": 0}, {"tol": 0.0}, {"tol": -1.0}])
def test_solve_cracked_refuses_bad_arguments(solver_128, options):
    background = constant_stress_background(solver_128, np.diag([0.0, 1.0]))
    crack = CrackSegment(center=(0.0, 0.0), direction=(1.0, 0.0), length=0.2)
    with pytest.raises(ValueError):
        solve_cracked(background, crack, **options)


def test_trace_values_adds_perturbation(tilted_crack_sweep):
    rec = tilted_crack_sweep["records"][0]
    total = rec["solution"].trace_values()
    base = rec["solution"].background.trace
    assert np.allclose(total.values - base.values, rec["solution"].w.values, atol=1e-15)
