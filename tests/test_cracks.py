"""Coupled crack/boundary solves: geometry, the wide-domain closed-form
opening, representation cross-checks, and failure modes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crackbem
from crackbem import (
    BoundaryField,
    BoundarySolver,
    CrackSegment,
    Disk,
    Ellipse,
    FourierStar,
    LameParams,
    build_mesh,
    crack_traction_samples,
    length_sweep,
    solve_cracked,
    sweep_cracks,
)
from crackbem.errors import CrackTooCloseToBoundary, SolveFailed
from conftest import constant_stress_background, fourier_load_background
from oracles import Shifted, solve_cracked_ref, trace_from_neumann_representation


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


TRACTION_SHAPES = [
    Disk(),
    Ellipse(a=1.3, b=0.7),
    FourierStar(r0=1.0, cos_coeffs=(0.0, 0.0, 0.0, 0.0, 0.15)),  # 5 lobes
]
TRACTION_MATERIALS = [LameParams(1.0, 1.0), LameParams(2.5, 0.7), LameParams(-0.5, 1.0)]


@pytest.mark.parametrize("shape", TRACTION_SHAPES)
@pytest.mark.parametrize("material", TRACTION_MATERIALS)
def test_crack_traction_samples_match_the_background_stress(shape, material):
    # the crack-frame pass F (W u0) - G (W g) is the traction of the
    # background stress tensor, sigma(u0) m, at every crack point
    background = fourier_load_background(BoundarySolver(build_mesh(shape, 128), material))
    for crack in (
        CrackSegment(center=(0.15, -0.1), direction=(0.6, 0.8), length=0.3),
        CrackSegment(center=(-0.3, 0.2), direction=(1.0, 0.0), length=0.2),
    ):
        for eta in (0.0, np.array([-0.9, -0.3, 0.0, 0.6])):
            samples = crack_traction_samples(background, crack, eta)
            stress = background.stress(crack.points(eta))
            assert samples.shape == (np.size(eta), 2)
            err = np.max(np.abs(samples - stress @ crack.normal))
            assert err <= 1e-13 * np.max(np.abs(stress))


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
        sup_u0 = rec["solution"].background.trace.sup_norm()
        assert diag["last_update"] <= diag["tolerance"] * sup_u0
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
    cracks = sweep_cracks(background.mesh, rot @ np.array([0.25, 0.05]), direction, [0.15])
    (record,) = length_sweep(background, cracks)
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


def cracked(shape, mat, center, angle, load=1.0):
    """Background and CrackedSolution of a 0.1-long crack under a fixed
    constant stress times `load`."""
    solver = BoundarySolver(build_mesh(shape, 64), mat)
    background = constant_stress_background(solver, load * np.array([[1.0, 0.3], [0.3, -0.5]]))
    crack = CrackSegment(center=center, direction=(np.cos(angle), np.sin(angle)), length=0.1)
    return background, solve_cracked(background, crack)


inside = st.floats(-0.4, 0.4)


@settings(max_examples=10, deadline=None, database=None)
@given(center=st.tuples(inside, inside), angle=st.floats(0.0, np.pi),
       shift=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)))
def test_translation_invariance(center, angle, shift):
    # moving the disk, the crack and the load together leaves w unchanged
    mat = LameParams(1.0, 1.0)
    w = cracked(Disk(), mat, center, angle)[1].w.values
    moved = tuple(np.add(center, shift))
    w_moved = cracked(Shifted(Disk(), shift), mat, moved, angle)[1].w.values
    assert np.allclose(w_moved, w, rtol=0.0, atol=1e-10)


@settings(max_examples=10, deadline=None, database=None)
@given(center=st.tuples(inside, inside), angle=st.floats(0.0, np.pi),
       lam=st.floats(0.2, 3.0), mu=st.floats(0.2, 3.0),
       c=st.floats(-12.0, 12.0).map(lambda e: 10.0**e))
def test_material_scaling(center, angle, lam, mu, c):
    # (lam, mu) -> c (lam, mu) divides every displacement by c, and
    # sigma -> c sigma multiplies it by c; the Picard stop is relative to
    # sup|u0|, so either takes the same sweeps, in any units
    background, solution = cracked(Disk(), LameParams(lam, mu), center, angle)
    u0, w = background.trace, solution.w
    for factor, (scaled, scaled_solution) in (
        (c, cracked(Disk(), LameParams(c * lam, c * mu), center, angle)),
        (1.0 / c, cracked(Disk(), LameParams(lam, mu), center, angle, load=c)),
    ):
        assert scaled_solution.diagnostics["iterations"] == solution.diagnostics["iterations"]
        assert np.max(np.abs(factor * scaled.trace.values - u0.values)) <= 1e-13 * u0.sup_norm()
        assert np.max(np.abs(factor * scaled_solution.w.values - w.values)) <= 1e-13 * w.sup_norm()


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


@pytest.mark.parametrize(
    "options",
    [{"max_iterations": 0}, {"tol": 0.0}, {"tol": -1.0}, {"tol": np.inf}, {"tol": np.nan}],
)
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


def seeded_background(solver, seed):
    """Background under a seeded constant stress plus the linear stress
    [[0, x1], [x1, -x2]], so the single layer S[g] is not a constant load's."""
    rng = np.random.default_rng(seed)
    sigma = rng.standard_normal((2, 2))
    mesh = solver.mesh
    x1, x2 = mesh.points.T
    n1, n2 = mesh.normals.T
    values = mesh.normals @ (sigma + sigma.T).T + np.stack([x1 * n2, x1 * n1 - x2 * n2], -1)
    return solver.solve_background(BoundaryField(mesh, values)), rng


@pytest.mark.parametrize("n, n_modes", [(128, 32), (256, 32), (256, 12)])
def test_solve_cracked_matches_reference_loop(mat, n, n_modes):
    # the sweeps in the crack frame and the background traction read off the
    # feedback matrix change w and psi at rounding level only, and the sweep
    # count not at all
    solver = BoundarySolver(build_mesh(Disk(), n), mat)
    background, rng = seeded_background(solver, n + n_modes)
    for _ in range(4):
        radius, phi, angle = rng.uniform(0.0, 0.5), rng.uniform(0.0, 2.0 * np.pi), rng.uniform()
        crack = CrackSegment(
            center=(radius * np.cos(phi), radius * np.sin(phi)),
            direction=(np.cos(np.pi * angle), np.sin(np.pi * angle)),
            length=rng.choice([0.2, 0.1, 0.05]),
        )
        solution = solve_cracked(background, crack, n_modes=n_modes)
        ref = solve_cracked_ref(background, crack, n_modes=n_modes)
        w, w_ref = solution.w.values, ref.w.values
        c, c_ref = solution.psi.coeffs, ref.psi.coeffs
        assert np.max(np.abs(w - w_ref)) <= 1e-12 * np.max(np.abs(w_ref))
        assert np.max(np.abs(c - c_ref)) <= 1e-12 * np.max(np.abs(c_ref))
        assert solution.diagnostics["iterations"] == ref.diagnostics["iterations"]


def test_solve_cracked_evaluates_each_kernel_pair_once(solver_128, monkeypatch):
    # one crack-frame pass over the (node, boundary point) pairs gives the
    # feedback, the background traction and the transfer, so no public
    # kernel runs inside solve_cracked
    background = constant_stress_background(solver_128, [[1.0, 0.3], [0.3, -0.5]])
    crack = CrackSegment(center=(0.2, -0.1), direction=(0.6, 0.8), length=0.1)
    calls = []

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            pairs = tuple(d // 2 for d in out[0].shape) if isinstance(out, tuple) else None
            calls.append((name, pairs))
            return out

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("dlp_traction_kernel", "kelvin_gradient"):
        counted(crackbem.kernels, name)
    for name in ("dlp_traction_gradient", "dlp_traction_kernel", "kelvin_gradient"):
        counted(crackbem.forward, name)
    counted(crackbem.cracks, "_crack_frame_kernels")
    solution = solve_cracked(background, crack)
    m, n = 32, solver_128.mesh.n
    assert solution.diagnostics["iterations"] > 1
    assert calls == [("_crack_frame_kernels", (m, n))]


def scaled_record(shape, s, center, angle):
    """The length_sweep record of one crack of length 0.1 under a fixed
    constant stress, with the domain, the center and the length scaled by s."""
    solver = BoundarySolver(build_mesh(shape, 128), LameParams(1.0, 1.0))
    background = constant_stress_background(solver, [[1.0, 0.3], [0.3, -0.5]])
    direction = (np.cos(angle), np.sin(angle))
    cracks = sweep_cracks(background.mesh, s * np.asarray(center), direction, [s * 0.1])
    (record,) = length_sweep(background, cracks)
    return record


@settings(max_examples=10, deadline=None, database=None)
@given(
    modes=st.lists(
        st.tuples(st.floats(0.0, 0.12), st.floats(0.0, 2.0 * np.pi)), max_size=3
    ),
    s=st.floats(0.2, 5.0),
    center=st.tuples(st.floats(-0.15, 0.15), st.floats(-0.15, 0.15)),
    angle=st.floats(0.0, np.pi),
)
def test_dilation_invariance(modes, s, center, angle):
    # scaling the domain, the crack center and the crack length by s under
    # the same stress scales w and the opening by s and the energy change by
    # s^2, and leaves K1 and K2 alone; no modes draws the unit disk
    def shape(scale):
        if not modes:
            return Disk(radius=scale)
        return FourierStar(
            r0=scale,
            cos_coeffs=tuple(scale * a * np.cos(phase) for a, phase in modes),
            sin_coeffs=tuple(scale * a * np.sin(phase) for a, phase in modes),
        )

    base = scaled_record(shape(1.0), 1.0, center, angle)
    scaled = scaled_record(shape(s), s, center, angle)
    w, w_scaled = base["solution"].w.values, scaled["solution"].w.values
    assert np.max(np.abs(w_scaled - s * w)) <= 1e-10 * s * np.max(np.abs(w))
    arc = np.linspace(-0.05, 0.05, 7)
    opening = base["solution"].opening(arc)
    opening_scaled = scaled["solution"].opening(s * arc)
    assert np.max(np.abs(opening_scaled - s * opening)) <= 1e-10 * s * np.max(np.abs(opening))
    assert scaled["energy_diff"] == pytest.approx(s * s * base["energy_diff"], rel=1e-10)
    assert scaled["K1"] == pytest.approx(base["K1"], rel=1e-10, abs=1e-12)
    assert scaled["K2"] == pytest.approx(base["K2"], rel=1e-10, abs=1e-12)
