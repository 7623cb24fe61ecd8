"""Closed-form sensitivity formulas: intensity decomposition, perturbation
rows, energy asymptote, topological derivative, and the slope fitter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crackbem.asymptotics
from crackbem import (
    BackgroundField,
    BoundarySolver,
    CrackSegment,
    Disk,
    Ellipse,
    FourierStar,
    LameParams,
    StressIntensity,
    build_mesh,
    crack_traction_samples,
    energy_asymptotic,
    fit_log_slope,
    length_sweep,
    neumann_perturbation,
    orientation_scan,
    potential_energy_difference,
    solve_cracked,
    stress_intensity,
    stress_intensity_from_stress,
    sweep_cracks,
    topological_derivative,
)
from crackbem.errors import CrackTooCloseToBoundary
from crackbem.mesh import BoundaryField, BoundaryMesh
from conftest import constant_stress_background, fourier_load_background


def test_intensity_decomposition_exact():
    # uniaxial tension, crack tangent at -45 degrees: K_I = K_II = 1/2
    sif = stress_intensity_from_stress(
        np.diag([1.0, 0.0]), np.array([np.sqrt(0.5), -np.sqrt(0.5)])
    )
    assert sif.k1 == pytest.approx(0.5, abs=1e-14)
    assert sif.k2 == pytest.approx(0.5, abs=1e-14)
    assert sif.magnitude_squared == pytest.approx(0.5, abs=1e-14)


def test_intensity_equals_traction_magnitude():
    # k1^2 + k2^2 = |sigma e_perp|^2 for any orientation
    rng = np.random.default_rng(9)
    sigma = rng.standard_normal((2, 2))
    sigma = sigma + sigma.T
    for theta in rng.uniform(0, 2 * np.pi, size=4):
        e = np.array([np.cos(theta), np.sin(theta)])
        e_perp = np.array([-e[1], e[0]])
        sif = stress_intensity_from_stress(sigma, e)
        assert sif.magnitude_squared == pytest.approx(
            float(np.sum((sigma @ e_perp) ** 2)), abs=1e-13
        )


def test_intensity_normalizes_direction():
    a = stress_intensity_from_stress(np.diag([2.0, -1.0]), np.array([3.0, 4.0]))
    b = stress_intensity_from_stress(np.diag([2.0, -1.0]), np.array([0.6, 0.8]))
    assert a.k1 == pytest.approx(b.k1, abs=1e-14)
    assert a.k2 == pytest.approx(b.k2, abs=1e-14)
    # a direction that cannot be normalized is refused, also inside a batch
    for direction, message in (
        ((0.0, 0.0), "nonzero vector"),
        ([[1.0, 0.0], [0.0, 0.0]], "nonzero vector"),
        ((np.nan, 1.0), "must be finite"),
        ([[1.0, 0.0], [np.inf, 0.0]], "must be finite"),
    ):
        with pytest.raises(ValueError, match=message):
            stress_intensity_from_stress(np.eye(2), direction)


def test_intensity_broadcasts_over_stresses_and_directions():
    # one call on (p, 1, 2, 2) stresses and (a, 2) tangents, against the
    # one-tensor-one-tangent evaluation of every pair
    rng = np.random.default_rng(17)
    sigma = rng.standard_normal((3, 2, 2))
    sigma = sigma + np.swapaxes(sigma, -1, -2)
    directions = rng.standard_normal((5, 2))
    batch = stress_intensity_from_stress(sigma[:, None], directions)
    assert batch.k1.shape == batch.k2.shape == (3, 5)
    for p in range(3):
        for a in range(5):
            one = stress_intensity_from_stress(sigma[p], directions[a])
            assert isinstance(one.k1, float) and isinstance(one.k2, float)
            assert batch.k1[p, a] == pytest.approx(one.k1, rel=1e-15, abs=1e-15)
            assert batch.k2[p, a] == pytest.approx(one.k2, rel=1e-15, abs=1e-15)


def test_energy_asymptotic_literal():
    # lam = mu = 1 (E = 8/3), eps = 0.1, K = (1, 0): -pi eps^2 / (4 E) = -3 pi/3200
    mat = LameParams(1.0, 1.0)
    crack = CrackSegment(center=(0.0, 0.0), direction=(1.0, 0.0), length=0.1)
    val = energy_asymptotic(crack, StressIntensity(1.0, 0.0), mat)
    assert val == pytest.approx(-3.0 * np.pi / 3200.0, rel=1e-14)
    # quadratic in the length
    double = CrackSegment(center=(0.0, 0.0), direction=(1.0, 0.0), length=0.2)
    assert energy_asymptotic(double, StressIntensity(1.0, 0.0), mat) == pytest.approx(
        4.0 * val, rel=1e-14
    )


def test_topological_derivative_literals():
    mat = LameParams(1.0, 1.0)
    # pure shear tau: K = (0, tau) for an axis-aligned crack: -tau^2 3/32
    tau = 0.7
    sif = stress_intensity_from_stress(np.array([[0.0, tau], [tau, 0.0]]), np.array([1.0, 0.0]))
    assert topological_derivative(sif, mat) == pytest.approx(-3.0 * tau**2 / 32.0, rel=1e-14)
    # hydrostatic load: orientation independent
    for theta in np.linspace(0.0, np.pi, 5):
        e = np.array([np.cos(theta), np.sin(theta)])
        sif = stress_intensity_from_stress(2.0 * np.eye(2), e)
        assert topological_derivative(sif, mat) == pytest.approx(-3.0 / 8.0, rel=1e-13)


def test_traction_and_intensity_from_background(solver_128):
    background = constant_stress_background(solver_128, np.diag([1.0, 0.0]))
    crack = CrackSegment(center=(0.3, 0.0), direction=(np.sqrt(0.5), -np.sqrt(0.5)), length=0.1)
    t0 = crack_traction_samples(background, crack, 0.0)[0]  # at the center
    assert np.allclose(t0, np.diag([1.0, 0.0]) @ crack.normal, atol=1e-10)
    sif = stress_intensity(background, crack)
    assert sif.k1 == pytest.approx(0.5, abs=1e-10)
    assert sif.k2 == pytest.approx(0.5, abs=1e-10)


def test_neumann_perturbation_scaling(solver_128):
    background = constant_stress_background(solver_128, np.diag([1.0, 0.0]))
    small = CrackSegment(center=(0.3, 0.0), direction=(0.0, 1.0), length=0.05)
    large = CrackSegment(center=(0.3, 0.0), direction=(0.0, 1.0), length=0.1)
    w_small = neumann_perturbation(background, small)
    w_large = neumann_perturbation(background, large)
    assert np.allclose(w_large, 4.0 * w_small, atol=1e-13)


def test_potential_energy_difference_quadrature(solver_128):
    mesh = solver_128.mesh
    g = BoundaryField(mesh, mesh.normals)
    u0 = BoundaryField(mesh, np.zeros((mesh.n, 2)))
    u_eps = BoundaryField(mesh, 0.5 * mesh.normals)
    # -1/2 Int 0.5 n . n = -1/2 0.5 (2 pi)
    assert potential_energy_difference(g, u_eps, u0) == pytest.approx(
        -0.5 * np.pi, abs=1e-12
    )


def test_length_sweep_records_match_direct_calls(solver_128):
    background = constant_stress_background(solver_128, np.diag([1.0, 0.3]))
    center, direction = (0.2, -0.1), (0.6, 0.8)
    options = {"n_modes": 24, "tol": 1e-10}
    records = length_sweep(
        background, sweep_cracks(background.mesh, center, direction, (0.15, 0.08)), **options
    )
    assert [r["eps"] for r in records] == [0.15, 0.08]
    for record in records:
        crack = CrackSegment(center, direction, record["eps"])
        solution = solve_cracked(background, crack, **options)
        leading = neumann_perturbation(background, crack)
        sif = stress_intensity(background, crack)
        diff = potential_energy_difference(
            background.g, solution.trace_values(), background.trace
        )
        formula = energy_asymptotic(crack, sif, solver_128.mat)
        assert np.array_equal(record["solution"].w.values, solution.w.values)
        assert record["solution"].diagnostics == solution.diagnostics
        assert (record["K1"], record["K2"]) == (sif.k1, sif.k2)
        assert record["sup_w"] == solution.w.sup_norm()
        assert record["sup_leading"] == np.max(np.abs(leading))
        assert record["sup_mismatch"] == np.max(np.abs(solution.w.values - leading))
        assert record["energy_diff"] == diff
        assert record["energy_formula"] == formula
        assert record["energy_mismatch"] == abs(diff - formula)


def test_length_sweep_evaluates_the_crack_line_traction_once(solver_128, monkeypatch):
    # K1, K2 and the leading term's traction t0 all come from one crack-line
    # traction at the center (eta = 0), whatever the number of lengths; each
    # case has its own background, whose record holds no t0 yet
    calls = []
    samples = crackbem.asymptotics.crack_traction_samples

    def counting(background, crack, eta):
        calls.append(eta)
        return samples(background, crack, eta)

    monkeypatch.setattr(crackbem.asymptotics, "crack_traction_samples", counting)
    for lengths in ((0.15,), (0.15, 0.08, 0.04)):
        background = constant_stress_background(solver_128, np.diag([1.0, 0.3]))
        calls.clear()
        cracks = sweep_cracks(background.mesh, (0.2, -0.1), (0.6, 0.8), lengths)
        length_sweep(background, cracks, n_modes=24)
        assert calls == [0.0]


def test_crack_ops_never_form_the_background_stress(solver_128, monkeypatch):
    # the crack ops take the background traction from the crack-frame pass;
    # the stress tensor serves only the orientation scan
    background = constant_stress_background(solver_128, np.diag([1.0, 0.3]))
    crack = CrackSegment(center=(0.2, -0.1), direction=(0.6, 0.8), length=0.1)

    def refuse(self, points):
        raise AssertionError("BackgroundField.stress was called")

    monkeypatch.setattr(BackgroundField, "stress", refuse)
    solve_cracked(background, crack, n_modes=24)
    neumann_perturbation(background, crack)
    stress_intensity(background, crack)
    cracks = sweep_cracks(background.mesh, crack.center, crack.direction, (0.1, 0.05))
    length_sweep(background, cracks, n_modes=24)


@pytest.fixture(scope="module")
def solver_64():
    return BoundarySolver(build_mesh(Disk(radius=1.0), 64), LameParams(1.0, 1.0))


CRACK_OPS = {
    "solve_cracked": solve_cracked,
    "neumann_perturbation": neumann_perturbation,
    "stress_intensity": stress_intensity,
    "crack_traction_samples": lambda background, crack: crack_traction_samples(
        background, crack, 0.0
    ),
}


@pytest.mark.parametrize(
    "center, length",
    [((5.0, 5.0), 0.05), ((0.99, 0.0), 0.05), ((0.7, 0.0), 0.8), ((0.45, 0.0), 0.5)],
    ids=["outside-the-body", "inside-the-floor", "tips-cross-the-wall", "tip-within-length"],
)
def test_crack_ops_refuse_what_the_solve_refuses(solver_64, center, length):
    # uniaxial tension on a 64-node disk (floor 0.196): an unchecked center
    # pass gives K_I = -81.2 at (0.99, 0), where the exact value is 0, and
    # K_I = 0 at (5, 5), outside the body; the last two clear the floor at
    # their centers, but (0.7, 0), the center of one and a tip of the other,
    # lies closer to the wall than the crack's length
    background = constant_stress_background(solver_64, np.diag([1.0, 0.0]))
    crack = CrackSegment(center, (1.0, 0.0), length)
    messages = {}
    for name, op in CRACK_OPS.items():
        with pytest.raises(CrackTooCloseToBoundary) as refused:
            op(background, crack)
        messages[name] = str(refused.value)
    assert len(set(messages.values())) == 1, messages
    assert background._admitted is None


def counted_crack_work(monkeypatch):
    """Record the points of every clearance test and the node count of
    every crack-frame pass."""
    tests, passes = [], []
    require = BoundaryMesh.require_clearance
    frame_kernels = crackbem.cracks._crack_frame_kernels

    def counting_require(mesh, points, length=0.0):
        tests.append(np.atleast_2d(np.asarray(points, dtype=float)).copy())
        return require(mesh, points, length)

    def counting_pass(s, *args):
        passes.append(len(s))
        return frame_kernels(s, *args)

    monkeypatch.setattr(BoundaryMesh, "require_clearance", counting_require)
    monkeypatch.setattr(crackbem.cracks, "_crack_frame_kernels", counting_pass)
    return tests, passes


def test_length_sweep_tests_each_crack_once(solver_128, monkeypatch):
    # sweep_cracks tests the 3 cracks and the sweep admits them as tested,
    # so neither the solves nor the leading term tests one again
    center, direction, lengths = (0.2, -0.1), (0.6, 0.8), (0.15, 0.08, 0.04)
    background = constant_stress_background(solver_128, np.diag([1.0, 0.3]))
    tests, passes = counted_crack_work(monkeypatch)
    records = length_sweep(
        background, sweep_cracks(background.mesh, center, direction, lengths), n_modes=24
    )
    assert [len(points) for points in tests] == [3, 3, 3]
    for points, length in zip(tests, lengths):
        assert np.array_equal(points, CrackSegment(center, direction, length).clearance_points)
    assert passes == [1, 24, 24, 24]
    fresh = constant_stress_background(solver_128, np.diag([1.0, 0.3]))
    fresh = length_sweep(fresh, sweep_cracks(fresh.mesh, center, direction, lengths), n_modes=24)
    for record, ref in zip(records, fresh):
        assert np.array_equal(record["solution"].w.values, ref["solution"].w.values)


def test_one_clearance_test_and_one_center_pass_per_crack(solver_128, monkeypatch):
    # solve -> leading term -> intensities on one crack: the record admits
    # the crack once and keeps t0 from the one center pass, and the leading
    # term's Neumann row is solved for the admitted crack
    sigma = np.diag([1.0, 0.3])
    background = constant_stress_background(solver_128, sigma)
    crack = CrackSegment(center=(0.2, -0.1), direction=(0.6, 0.8), length=0.1)
    tests, passes = counted_crack_work(monkeypatch)
    solution = solve_cracked(background, crack, n_modes=24)
    leading = neumann_perturbation(background, crack)
    sif = stress_intensity(background, crack)
    assert [len(points) for points in tests] == [3]
    assert np.array_equal(tests[0], crack.clearance_points)
    assert passes == [24, 1]

    # bitwise the values of fresh backgrounds, whose records are empty
    def fresh():
        return constant_stress_background(solver_128, sigma)

    assert np.array_equal(solution.w.values, solve_cracked(fresh(), crack, n_modes=24).w.values)
    assert np.array_equal(leading, neumann_perturbation(fresh(), crack))
    fresh_sif = stress_intensity(fresh(), crack)
    assert (sif.k1, sif.k2) == (fresh_sif.k1, fresh_sif.k2)


@pytest.mark.parametrize(
    "center, direction, length",
    [((0.21, -0.1), (0.6, 0.8), 0.1), ((0.2, -0.1), (0.8, 0.6), 0.1), ((0.2, -0.1), (0.6, 0.8), 0.05)],
    ids=["center", "direction", "length"],
)
def test_a_different_crack_misses_the_record(solver_128, monkeypatch, center, direction, length):
    background = constant_stress_background(solver_128, np.diag([1.0, 0.3]))
    crack = CrackSegment(center=(0.2, -0.1), direction=(0.6, 0.8), length=0.1)
    stress_intensity(background, crack)
    tests, passes = counted_crack_work(monkeypatch)
    # an equal crack, built anew and with an unnormalized direction, hits
    stress_intensity(background, CrackSegment((0.2, -0.1), (1.2, 1.6), 0.1))
    assert (tests, passes) == ([], [])
    other = CrackSegment(center, direction, length)
    stress_intensity(background, other)
    assert [len(points) for points in tests] == [3] and passes == [1]
    assert background._admitted.crack == other


def test_a_refused_crack_is_never_recorded(solver_128, monkeypatch):
    background = constant_stress_background(solver_128, np.diag([1.0, 0.3]))
    crack = CrackSegment(center=(0.2, -0.1), direction=(0.6, 0.8), length=0.1)
    sif = stress_intensity(background, crack)
    record = background._admitted
    tests, passes = counted_crack_work(monkeypatch)
    refused = CrackSegment(center=(0.97, 0.0), direction=(0.6, 0.8), length=0.1)
    for _ in range(2):  # tested again: the refusal left no record
        with pytest.raises(CrackTooCloseToBoundary):
            stress_intensity(background, refused)
    assert len(tests) == 2 and passes == []
    assert background._admitted is record
    assert stress_intensity(background, crack) == sif
    assert len(tests) == 2 and passes == []


@pytest.mark.parametrize(
    "shape",
    [Ellipse(a=1.3, b=0.7), FourierStar(r0=1.0, cos_coeffs=(0.0, 0.0, 0.0, 0.0, 0.15))],
)
@pytest.mark.parametrize("material", [LameParams(2.5, 0.7), LameParams(-0.5, 1.0)])
def test_stress_intensity_matches_the_background_stress(shape, material):
    background = fourier_load_background(BoundarySolver(build_mesh(shape, 128), material))
    for angle in np.linspace(0.0, np.pi, 5):
        direction = (np.cos(angle), np.sin(angle))
        crack = CrackSegment(center=(0.15, -0.1), direction=direction, length=0.2)
        stress = background.stress(np.asarray(crack.center))[0]
        ref = stress_intensity_from_stress(stress, crack.tangent)
        sif = stress_intensity(background, crack)
        assert abs(sif.k1 - ref.k1) <= 1e-13 * np.max(np.abs(stress))
        assert abs(sif.k2 - ref.k2) <= 1e-13 * np.max(np.abs(stress))


def counted_solves(solver, monkeypatch):
    """Record the shape of every right-hand side solver.solve_neumann gets."""
    shapes = []
    solve = solver.solve_neumann

    def counting(rhs):
        shapes.append(np.shape(rhs))
        return solve(rhs)

    monkeypatch.setattr(solver, "solve_neumann", counting)
    return shapes


def test_neumann_perturbation_solves_one_column(solver_128, monkeypatch):
    # the leading term is one solve on the kernel contracted with t0
    background = constant_stress_background(solver_128, np.diag([1.0, 0.3]))
    crack = CrackSegment(center=(0.2, -0.1), direction=(0.6, 0.8), length=0.1)
    shapes = counted_solves(solver_128, monkeypatch)
    neumann_perturbation(background, crack)
    assert shapes == [(solver_128.mesh.n, 2)]


def test_length_sweep_solves_the_leading_term_once(solver_128, monkeypatch):
    # one (n, 2) solve for the leading term before the first crack, then
    # one (n, 2) solve per Picard sweep of each crack
    background = constant_stress_background(solver_128, np.diag([1.0, 0.3]))
    shapes = counted_solves(solver_128, monkeypatch)
    cracks = sweep_cracks(background.mesh, (0.2, -0.1), (0.6, 0.8), (0.15, 0.08, 0.04))
    records = length_sweep(background, cracks, n_modes=24)
    sweeps = sum(r["solution"].diagnostics["iterations"] for r in records)
    assert shapes == [(solver_128.mesh.n, 2)] * (1 + sweeps)


def test_length_sweep_refuses_whole_sweep_before_solving(solver_128, monkeypatch):
    # the 0.9 crack fails the clearance rule, so not even 0.1 is solved
    background = constant_stress_background(solver_128, np.diag([1.0, 0.0]))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_cracked(*args, **kwargs)

    monkeypatch.setattr(crackbem.asymptotics, "solve_cracked", counting)
    with pytest.raises(CrackTooCloseToBoundary):
        cracks = sweep_cracks(background.mesh, (0.3, 0.0), (1.0, 0.0), (0.1, 0.2, 0.9))
        length_sweep(background, cracks)
    assert calls == []


def test_sweep_cracks_refuses_on_the_mesh_alone():
    mesh = build_mesh(Disk(), 64)
    cracks = sweep_cracks(mesh, (0.3, 0.0), (1.0, 0.0), (0.2, 0.1))
    assert [crack.length for crack in cracks] == [0.2, 0.1]
    with pytest.raises(CrackTooCloseToBoundary, match="not smaller than the distance"):
        sweep_cracks(mesh, (0.3, 0.0), (1.0, 0.0), (0.1, 0.9))


def test_length_sweep_takes_only_a_sweep_on_its_mesh(solver_128):
    # the cracks must be the ones sweep_cracks tested on the background's
    # mesh: a plain list, or a sweep tested on another mesh, is refused
    background = constant_stress_background(solver_128, np.diag([1.0, 0.0]))
    center, direction = (0.3, 0.0), (1.0, 0.0)
    crack = CrackSegment(center, direction, 0.1)
    other = sweep_cracks(build_mesh(Disk(), 128), center, direction, (0.1,))
    assert tuple(other) == (crack,)
    for cracks in ([crack], other):
        with pytest.raises(ValueError, match="cracks sweep_cracks returned"):
            length_sweep(background, cracks)


def test_length_sweep_refuses_no_lengths(solver_128):
    background = constant_stress_background(solver_128, np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="at least one crack length"):
        length_sweep(background, sweep_cracks(background.mesh, (0.3, 0.0), (1.0, 0.0), ()))


SCAN_POINTS = np.array([[0.0, 0.0], [0.4, -0.2], [-0.3, 0.5]])


@settings(max_examples=25, deadline=None, database=None)
@given(
    entries=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda e: max(map(abs, e)) > 1e-3),
    n_angles=st.integers(8, 64),
)
def test_orientation_scan_finds_the_principal_direction(solver_128, entries, n_angles):
    # K1^2 + K2^2 = |sigma n|^2 for the unit crack normal n: at most the
    # largest eigenvalue of sigma^2, reached at sigma's principal direction
    s11, s22, s12 = entries
    sigma = np.array([[s11, s12], [s12, s22]])
    background = constant_stress_background(solver_128, sigma)
    angles = np.arange(n_angles) * (np.pi / n_angles)
    sif, td, best = orientation_scan(background, SCAN_POINTS, angles)
    assert sif.k1.shape == sif.k2.shape == td.shape == (len(SCAN_POINTS), n_angles)
    eigenvalues, eigenvectors = np.linalg.eigh(sigma)
    E = solver_128.mat.E
    assert np.all(td >= -np.max(eigenvalues**2) / (4.0 * E) - 1e-12)
    if abs(eigenvalues[1] ** 2 - eigenvalues[0] ** 2) <= 1e-6 * np.max(eigenvalues**2):
        return  # td is flat over the angles: no direction is preferred
    principal = eigenvectors[:, np.argmax(np.abs(eigenvalues))]
    normal = angles[best] + np.pi / 2
    gap = np.abs((normal - np.arctan2(principal[1], principal[0]) + np.pi / 2) % np.pi - np.pi / 2)
    assert np.all(gap <= np.pi / n_angles)


def test_orientation_scan_flat_case_picks_the_first_angle(solver_128):
    # pure shear: |sigma n| = 1 for every normal, so td differs over the
    # angles by rounding only and the first angle is the best
    background = constant_stress_background(solver_128, [[0.0, 1.0], [1.0, 0.0]])
    _, td, best = orientation_scan(background, SCAN_POINTS, np.arange(12) * (np.pi / 12))
    assert np.ptp(td) <= 1e-14
    assert np.all(best == 0)


def test_orientation_scan_of_a_grid_matches_its_rows(solver_128):
    # one scan over all kept grid points, as td-map makes it, agrees with
    # one scan per grid row to rounding and picks the same angles
    background = fourier_load_background(solver_128)
    coords = np.linspace(-0.8, 0.8, 13)
    rows = [np.column_stack([coords, np.full_like(coords, y)]) for y in coords]
    rows = [row[np.hypot(*row.T) <= 0.8] for row in rows]
    angles = np.arange(18) * (np.pi / 18)
    sif, td, best = orientation_scan(background, np.concatenate(rows), angles)
    per_row = [orientation_scan(background, row, angles) for row in rows]
    for whole, parts in (
        (sif.k1, [r[0].k1 for r in per_row]),
        (sif.k2, [r[0].k2 for r in per_row]),
        (td, [r[1] for r in per_row]),
    ):
        parts = np.concatenate(parts)
        assert np.max(np.abs(whole - parts)) <= 1e-14 * np.max(np.abs(parts))
    assert np.array_equal(best, np.concatenate([r[2] for r in per_row]))


@settings(max_examples=20, deadline=None, database=None)
@given(
    modes=st.lists(
        st.tuples(st.floats(0.0, 0.12), st.floats(0.0, 2.0 * np.pi)), min_size=1, max_size=3
    ),
    lam=st.floats(0.2, 3.0),
    mu=st.floats(0.3, 2.0),
    center=st.tuples(st.floats(-0.15, 0.15), st.floats(-0.15, 0.15)),
    angle=st.floats(0.0, 2.0 * np.pi),
)
def test_sup_w_is_order_eps_squared_on_random_stars(modes, lam, mu, center, angle):
    # r(L) = sup|w| / L^2 = c2 + c4 L^2 when the eps^3 term vanishes, so each
    # halving of L shrinks the change in r four times (ratio 1/4); an eps^3
    # term would leave a ratio of about 1/2.  Each mode has amplitude <= 0.12,
    # so the radius stays >= 0.64 and every crack passes the clearance rule.
    star = FourierStar(
        r0=1.0,
        cos_coeffs=tuple(a * np.cos(phase) for a, phase in modes),
        sin_coeffs=tuple(a * np.sin(phase) for a, phase in modes),
    )
    solver = BoundarySolver(build_mesh(star, 128), LameParams(lam, mu))
    # |sigma e_perp| >= 0.5 for every orientation, so the leading term never vanishes
    background = constant_stress_background(solver, np.diag([1.0, 0.5]))
    direction = (np.cos(angle), np.sin(angle))
    cracks = sweep_cracks(solver.mesh, center, direction, (0.2, 0.1, 0.05))
    records = length_sweep(background, cracks)
    r = [rec["sup_w"] / rec["eps"] ** 2 for rec in records]
    assert abs(r[1] - r[2]) <= 0.35 * abs(r[0] - r[1])


def test_fit_log_slope_exact_power():
    eps = np.array([0.2, 0.1, 0.05, 0.025])
    fit = fit_log_slope(eps, 3.0 * eps**2)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.n_points == 4
    assert fit.note == "ok"


def test_fit_log_slope_noise_floor():
    eps = np.array([0.2, 0.1, 0.05, 0.025])
    values = np.array([1e-2, 1e-3, 1e-16, 1e-16])
    fit = fit_log_slope(eps, values, noise_floor=1e-12)
    assert fit.n_points == 2
    assert "below noise floor" in fit.note
    assert fit.slope == pytest.approx(np.log(10) / np.log(2), rel=1e-12)
    vacuous = fit_log_slope(eps, np.full(4, 1e-16), noise_floor=1e-12)
    assert vacuous.slope is None
    assert vacuous.note == "below_noise_floor"


def test_fit_log_slope_validation():
    with pytest.raises(ValueError):
        fit_log_slope(np.array([0.1, 0.05]), np.array([1.0]))
    eps = np.array([0.1, 0.05, 0.025])
    for bad in (0.0, -0.05, np.inf, np.nan):
        with pytest.raises(ValueError, match="positive finite eps"):
            fit_log_slope(np.array([0.1, bad, 0.025]), np.ones(3))
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite values"):
            fit_log_slope(eps, np.array([1.0, bad, 0.1]))
    # zero values stay legal: the noise floor drops them
    fit = fit_log_slope(eps, np.array([1e-2, 1e-3, 0.0]))
    assert fit.n_points == 2
    assert fit.slope == pytest.approx(np.log(10) / np.log(2), rel=1e-12)
