"""Boundary-integral forward machinery: layer operators, the rank-completed
Neumann solve, interior evaluation, and the Green-function rows."""

import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import scipy.linalg
from scipy.linalg import lu_factor

from crackbem import (
    BackgroundField,
    BoundaryField,
    BoundarySolver,
    CrackSegment,
    Disk,
    Ellipse,
    FourierStar,
    LameParams,
    build_mesh,
    dlp_traction_kernel,
    dlp_traction_gradient,
    kelvin_gradient,
    kelvin_matrix,
    project_off_rigid_motions,
    rigid_motion_basis,
    solve_cracked,
)
from crackbem import forward
from crackbem.errors import CrackTooCloseToBoundary, EquilibriumViolated, SolveFailed
from crackbem.forward import (
    _PANEL_ENTRIES,
    _layer_sum,
    apply_single_layer,
    assemble_double_layer,
)
from conftest import constant_stress_background, fourier_load_background
from oracles import (
    assemble_double_layer_ref,
    assemble_single_layer_ref,
    conormal_derivative,
    fd_jacobian,
    layer_sum_ref,
    linear_field,
    neumann_conormal_row_ref,
    neumann_interior_ref,
    neumann_trace_ref,
)

MATERIALS = [LameParams(1.0, 1.0), LameParams(2.5, 0.7), LameParams(-0.3, 1.2)]
SHAPES = [
    Disk(),
    Ellipse(a=1.3, b=0.7),
    FourierStar(r0=1.0, cos_coeffs=(0.0, 0.0, 0.15), sin_coeffs=(0.0, 0.05)),
]


def exterior_kelvin_field(mesh, mat, source, strength):
    """Trace and conormal data of x -> Phi(x - source) strength, an
    equilibrium field inside the domain when the source lies outside."""
    trace = kelvin_matrix(mesh.points - source, mat) @ strength
    grad = np.einsum("pijl,j->pil", kelvin_gradient(mesh.points - source, mat), strength)
    g = np.array(
        [conormal_derivative(grad[i], mesh.normals[i], mat) for i in range(mesh.n)]
    )
    return trace, g


def boundary_operator(mesh, mat):
    """The solver's -I/2 + K, which it factors and does not keep."""
    operator = assemble_double_layer(mesh, mat)
    operator[np.diag_indices(2 * mesh.n)] -= 0.5
    return operator


@pytest.fixture(scope="module")
def operator_128(solver_128):
    return boundary_operator(solver_128.mesh, solver_128.mat)


# splits into several row panels with a partial last one, so the panel
# seams and each panel's diagonal entries meet the oracles
SEAM_N = 384


def test_seam_size_splits_into_uneven_panels():
    rows = _PANEL_ENTRIES // SEAM_N
    assert SEAM_N // rows >= 2 and SEAM_N % rows != 0


@pytest.mark.parametrize("n", [64, 256, SEAM_N])
@pytest.mark.parametrize("shape", SHAPES, ids=["disk", "ellipse", "star"])
def test_assembly_matches_identity_fft_oracles(shape, n):
    mesh = build_mesh(shape, n)
    rng = np.random.default_rng(n)
    for mat in MATERIALS:
        double = assemble_double_layer_ref(mesh, mat)
        for value, reference in (
            (assemble_double_layer(mesh, mat), double),
            (boundary_operator(mesh, mat), double - 0.5 * np.eye(2 * n)),
        ):
            assert value.shape == (2 * n, 2 * n)
            scale = np.max(np.abs(reference))
            assert np.max(np.abs(value - reference)) <= 1e-13 * scale
        single = assemble_single_layer_ref(mesh, mat)
        for columns in ((), (2,)):
            density = rng.standard_normal((2 * n, *columns))
            reference = single @ density
            value = apply_single_layer(mesh, mat, density)
            assert value.shape == reference.shape
            scale = np.max(np.abs(reference))
            assert np.max(np.abs(value - reference)) <= 1e-13 * scale


def test_double_layer_fills_the_given_block():
    mat = MATERIALS[1]
    for n in (64, SEAM_N):
        mesh = build_mesh(SHAPES[2], n)
        bordered = np.full((2 * n + 3, 2 * n + 3), 7.0)
        block = bordered[: 2 * n, : 2 * n]
        assert assemble_double_layer(mesh, mat, out=block) is block
        assert np.array_equal(block, assemble_double_layer(mesh, mat))
        assert np.all(bordered[2 * n :] == 7.0) and np.all(bordered[:, 2 * n :] == 7.0)


@pytest.mark.parametrize("shape", SHAPES[:2], ids=["disk", "ellipse"])
def test_column_major_factor_is_the_row_major_factor(shape):
    # the solver factors its column-major bordered matrix in place, and its
    # factor and pivots are those of the row-major bordered matrix to the bit
    mesh = build_mesh(shape, 64)
    mat = MATERIALS[1]
    solver = BoundarySolver(mesh, mat)
    n2 = 2 * mesh.n
    assert solver._neumann_lu[0].strides == (8, 8 * (n2 + 3))
    bordered = np.zeros((n2 + 3, n2 + 3))
    assemble_double_layer(mesh, mat, out=bordered[:n2, :n2])
    bordered[np.diag_indices(n2)] -= 0.5
    basis = rigid_motion_basis(mesh.points)
    bordered[:n2, n2:] = basis.reshape(n2, 3)
    bordered[n2:, :n2] = (mesh.weights[:, None, None] * basis).reshape(n2, 3).T
    lu, piv = lu_factor(bordered)
    assert lu.tobytes(order="F") == solver._neumann_lu[0].tobytes(order="F")
    assert np.array_equal(piv, solver._neumann_lu[1])


def _traced_peak(call) -> int:
    """Peak traced bytes allocated while `call()` runs, above its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_layers_keep_no_n_by_n_temporary():
    # both layers are built in row panels: neither allocates an n x n array
    # on the way, and a solver factors its bordered matrix in place and
    # checks the factor without a temporary, so it peaks at about one of them
    n = 1024
    mesh = build_mesh(SHAPES[2], n)
    mat = MATERIALS[1]
    square = 8 * n * n
    block = np.empty((2 * n, 2 * n))
    assert _traced_peak(lambda: assemble_double_layer(mesh, mat, out=block)) < square
    density = np.random.default_rng(0).standard_normal((2 * n, 2))
    assert _traced_peak(lambda: apply_single_layer(mesh, mat, density)) < square
    g = BoundaryField(mesh, mesh.normals @ np.diag([1.0, 0.3]))
    bordered = 8 * (2 * n + 3) ** 2
    peak = _traced_peak(lambda: BoundarySolver(mesh, mat).solve_background(g))
    assert peak <= 1.05 * bordered


def test_solver_memory_is_one_bordered_matrix():
    # the solver keeps the LU factor of the bordered matrix, in the matrix's
    # own buffer, and nothing of size n^2 besides; the single layer is
    # applied, never stored
    n = 256
    mesh = build_mesh(Disk(), n)
    g = BoundaryField(mesh, mesh.normals @ np.diag([1.0, 0.0]))
    size = (2 * n + 3) ** 2 * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        solver = BoundarySolver(mesh, LameParams(1.0, 1.0))
        background = solver.solve_background(g)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert background.trace.values.shape == (n, 2)
    assert (peak - start) <= 2.0 * size
    assert (retained - start) <= 1.1 * size


def test_nan_solve_fails_the_background_residual(mat, monkeypatch):
    # NaN > bound is False: the residual check must not pass a NaN solve
    solver = BoundarySolver(build_mesh(Disk(), 32), mat)
    g = BoundaryField(solver.mesh, solver.mesh.normals @ np.diag([1.0, 0.0]))
    monkeypatch.setattr(forward, "lu_solve", lambda factor, rhs: np.full_like(rhs, np.nan))
    with pytest.raises(SolveFailed, match="background solve residual nan"):
        solver.solve_background(g)


def test_background_residual_bound_is_relative(monkeypatch):
    # in SI units max|rhs| is about 4e-12, so an absolute floor of 1e-6 would
    # pass a solution 0.1 % off; the bound scales with the data
    mesh = build_mesh(Disk(), 64)
    solver = BoundarySolver(mesh, LameParams(1.2e11, 8e10))
    g = BoundaryField(mesh, mesh.normals @ np.diag([1.0, 0.0]))
    assert solver.solve_background(g).trace.sup_norm() > 0.0
    solve = forward.lu_solve
    monkeypatch.setattr(forward, "lu_solve", lambda factor, rhs: solve(factor, rhs) * (1 + 1e-3))
    with pytest.raises(SolveFailed, match="background solve residual"):
        solver.solve_background(g)


def test_zero_traction_solves_to_a_zero_trace(solver_128):
    # a relative bound of zero still admits the exact zero solution
    mesh = solver_128.mesh
    background = solver_128.solve_background(BoundaryField(mesh, np.zeros((mesh.n, 2))))
    assert not np.any(background.trace.values)


def test_bordered_product_through_the_factor(solver_128, operator_128):
    # P L U x is the bordered matrix times x, to the LU's backward error,
    # and x is left as it was
    mesh = solver_128.mesh
    n2 = 2 * mesh.n
    basis = rigid_motion_basis(mesh.points)
    columns = basis.reshape(n2, 3)  # C
    rows = (mesh.weights[:, None, None] * basis).reshape(n2, 3).T  # C^T W
    x = np.random.default_rng(3).standard_normal(n2 + 3)
    given = x.copy()
    top = operator_128 @ x[:n2] + columns @ x[n2:]
    expected = np.concatenate([top, rows @ x[:n2]])
    product = solver_128._bordered_product(x)
    assert np.max(np.abs(product - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.array_equal(x, given)


def test_rigid_traces_span_the_null_space(solver_128, operator_128):
    basis = rigid_motion_basis(solver_128.mesh.points)
    for a in range(3):
        out = operator_128 @ basis[:, :, a].reshape(-1)
        assert np.max(np.abs(out)) < 1e-12


def test_operator_has_exactly_three_null_directions(operator_128):
    sv = np.linalg.svd(operator_128, compute_uv=False)
    assert sv[-3] < 1e-10
    assert sv[-4] > 1e-3


def test_single_layer_of_constant_density(solver_128):
    # unit disk, lam = mu = 1: S[e1] = -e1/6 (the log term integrates to zero)
    const = np.tile([1.0, 0.0], (solver_128.mesh.n, 1)).reshape(-1)
    out = apply_single_layer(solver_128.mesh, solver_128.mat, const).reshape(-1, 2)
    assert np.allclose(out, [-1.0 / 6.0, 0.0], atol=1e-12)


def test_jump_relation_for_regular_field(solver_128, operator_128, mat):
    # (-I/2 + K) u| = S[du/dnu] for a field with no singularity inside
    mesh = solver_128.mesh
    trace, g = exterior_kelvin_field(mesh, mat, np.array([2.5, 0.4]), np.array([1.0, -0.5]))
    lhs = operator_128 @ trace.reshape(-1)
    rhs = apply_single_layer(mesh, mat, g.reshape(-1))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_double_layer_reproduces_rigid_motions_inside(solver_128):
    # rigid motions have zero traction, so u(x) = D[u|](x) in the interior:
    # a background field with zero traction data has exactly that displacement
    mesh = solver_128.mesh
    zero = BoundaryField(mesh, np.zeros((mesh.n, 2)))
    pts = np.array([[0.3, 0.1], [-0.4, -0.5], [0.0, 0.6]])
    basis = rigid_motion_basis(mesh.points)
    for a, exact in enumerate(
        [np.tile([1.0, 0.0], (3, 1)), np.tile([0.0, 1.0], (3, 1)),
         np.stack([pts[:, 1], -pts[:, 0]], axis=-1)]
    ):
        rigid = BackgroundField(solver_128, BoundaryField(mesh, basis[:, :, a]), zero)
        assert np.allclose(rigid.displacement(pts), exact, atol=1e-12)


@pytest.mark.parametrize(
    "grad",
    [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])],
)
def test_background_trace_recovery(solver_256, mat, grad):
    mesh = solver_256.mesh
    field = linear_field(grad)
    sigma = mat.lam * np.trace(grad) * np.eye(2) + mat.mu * (grad + grad.T)
    g = BoundaryField(mesh, mesh.normals @ sigma.T)
    background = solver_256.solve_background(g)
    exact = project_off_rigid_motions(BoundaryField(mesh, field(mesh.points)))
    assert (background.trace - exact).sup_norm() < 1e-10


def test_background_interior_fields(solver_256, mat):
    grad = np.array([[1.0, 0.0], [0.0, 0.0]])
    sigma = mat.lam * np.trace(grad) * np.eye(2) + mat.mu * (grad + grad.T)
    g = BoundaryField(solver_256.mesh, solver_256.mesh.normals @ sigma.T)
    background = solver_256.solve_background(g)
    pts = np.array([[0.0, 0.0], [0.45, -0.2], [-0.3, 0.55]])
    assert np.allclose(background.displacement(pts), linear_field(grad)(pts), atol=1e-10)
    assert np.allclose(background.gradient(pts), np.broadcast_to(grad, (3, 2, 2)), atol=1e-10)
    assert np.allclose(background.stress(pts), np.broadcast_to(sigma, (3, 2, 2)), atol=1e-10)


def test_background_gradient_matches_fd_on_star(mat):
    # a Fourier-traction load on a Fourier star: a non-polynomial interior field
    mesh = build_mesh(FourierStar(r0=1.0, cos_coeffs=(0.12,), sin_coeffs=(0.0, 0.08)), 256)
    t = mesh.params
    values = np.cos(t)[:, None] * [1.0, 0.0] + np.sin(t)[:, None] * [0.0, 0.5]
    values += np.cos(3.0 * t)[:, None] * [0.3, -0.2]
    g = project_off_rigid_motions(BoundaryField(mesh, values))
    background = BoundarySolver(mesh, mat).solve_background(g)
    points = np.array([[0.1, 0.1], [-0.35, 0.2], [0.2, -0.4], [0.5, 0.05]])
    grad = background.gradient(points)
    curvature = 0.0
    for point, value in zip(points, grad):
        ref = fd_jacobian(lambda p: background.displacement(p)[0], point)
        assert np.allclose(value, ref, atol=1e-9)
        curvature = max(curvature, float(np.max(np.abs(value - grad[0]))))
    assert curvature > 1e-2  # the gradient varies: the field is not linear


def test_stress_at_a_node_is_refused(solver_128):
    mesh = solver_128.mesh
    g = BoundaryField(mesh, mesh.normals @ np.diag([1.0, 0.5]))
    background = solver_128.solve_background(g)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="zero separation"):
            background.stress(np.array([[0.0, 0.0], mesh.points[5]]))
        with pytest.raises(ValueError, match="zero separation"):
            background.gradient(mesh.points[5])


@pytest.mark.parametrize(
    "points, message",
    [
        ([[0.1, 0.2], [np.nan, 0.0]], "must be finite"),
        ([0.1, np.inf], "must be finite"),
        ([[-np.inf, 0.0]], "must be finite"),
        (np.zeros((2, 3, 2)), r"shape \(p, 2\) or \(2,\), got \(2, 3, 2\)"),
        ([0.1, 0.2, 0.3], r"got \(3,\)"),
        (np.zeros((4, 3)), r"got \(4, 3\)"),
        (0.5, r"got \(\)"),
    ],
    ids=["nan", "inf-point", "inf-stack", "stack-of-stacks", "3-vector", "3-columns", "scalar"],
)
@pytest.mark.parametrize("method", ["displacement", "gradient", "stress"])
def test_malformed_interior_points_are_refused(solver_128, points, message, method):
    background = constant_stress_background(solver_128, np.diag([1.0, 0.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=message):
            getattr(background, method)(points)


def _assert_panels_match_points(background, points):
    # every value equals the point's own evaluation to rounding
    for method, shape in (("displacement", (2,)), ("gradient", (2, 2)), ("stress", (2, 2))):
        evaluate = getattr(background, method)
        values = evaluate(points)
        assert values.shape == (len(points),) + shape
        if len(points):
            single = np.array([evaluate(point)[0] for point in points])
            scale = np.max(np.abs(single))
            assert np.max(np.abs(values - single)) <= 1e-14 * scale


@pytest.mark.parametrize(
    "panels, extra",
    [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 5)],
    ids=["0", "1", "panel-1", "panel", "panel+1", "3*panel+5"],
)
def test_point_panels_match_point_by_point(solver_128, panels, extra):
    # interior values are evaluated in panels of _points_per_panel points
    p = panels * forward._points_per_panel(solver_128.mesh.n) + extra
    background = fourier_load_background(solver_128)
    radius, angle = np.random.default_rng(p).uniform((0.0, 0.0), (0.8, 2.0 * np.pi), (p, 2)).T
    points = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    _assert_panels_match_points(background, points)


def test_one_point_per_panel_on_a_fine_mesh():
    # more nodes than a panel's point-node pairs: a panel holds one point
    n = _PANEL_ENTRIES // 2
    assert forward._points_per_panel(n) == 1
    mesh = build_mesh(Disk(), n)
    mat = MATERIALS[1]
    t = mesh.params
    trace = BoundaryField(mesh, np.column_stack([np.cos(2 * t), 0.5 * np.sin(3 * t)]))
    g = BoundaryField(mesh, np.column_stack([np.sin(t), np.cos(2 * t)]))
    # the layer sums need only the mesh and material of a solver
    background = BackgroundField(SimpleNamespace(mesh=mesh, mat=mat), trace, g)
    _assert_panels_match_points(background, np.array([[0.1, 0.2], [-0.4, 0.3], [0.0, -0.6]]))


def test_interior_stress_keeps_a_few_panels(solver_128):
    # 1000 points cost a few panels' kernel values at a time, not 1000 x n
    background = fourier_load_background(solver_128)
    n = solver_128.mesh.n
    panel_kernel = 8 * 8 * forward._points_per_panel(n) * n  # 8 float64 per pair
    points = np.random.default_rng(1).uniform(-0.5, 0.5, (1000, 2))
    assert _traced_peak(lambda: background.stress(points)) < 8 * panel_kernel


def test_unbalanced_traction_rejected(solver_128):
    g = BoundaryField(solver_128.mesh, np.tile([1.0, 0.0], (solver_128.mesh.n, 1)))
    with pytest.raises(EquilibriumViolated):
        solver_128.solve_background(g)


def test_non_finite_traction_rejected(solver_128):
    values = solver_128.mesh.normals.copy()
    values[3, 0] = np.nan
    with pytest.raises(EquilibriumViolated, match="rigid-motion moments"):
        solver_128.solve_background(BoundaryField(solver_128.mesh, values))


def test_solve_neumann_refuses_non_finite_data(solver_128):
    rhs = np.zeros((solver_128.mesh.n, 2))
    rhs[5, 1] = np.inf
    with pytest.raises(ValueError, match="infs or NaNs"):
        solver_128.solve_neumann(rhs)


@pytest.mark.parametrize("columns", [1, 3])
def test_lu_solve_is_scipys_lu_solve(solver_128, columns):
    # getrs on the solver's factor, bit for bit what scipy's wrapper returns
    rhs = np.random.default_rng(5).standard_normal((2 * solver_128.mesh.n + 3, columns))
    expected = scipy.linalg.lu_solve(solver_128._neumann_lu, rhs, check_finite=False)
    assert np.array_equal(forward.lu_solve(solver_128._neumann_lu, rhs.copy()), expected)


@pytest.mark.parametrize("shape", [(128, 2), (256,), (128, 2, 3)])
def test_solve_neumann_calls_lu_solve_once(solver_128, monkeypatch, shape):
    calls = []
    solve = forward.lu_solve

    def counting(factor, rhs):
        calls.append(rhs.shape)
        return solve(factor, rhs)

    monkeypatch.setattr(forward, "lu_solve", counting)
    rhs = np.random.default_rng(6).standard_normal(shape)
    assert solver_128.solve_neumann(rhs).shape == shape
    assert calls == [(2 * solver_128.mesh.n + 3, rhs.size // (2 * solver_128.mesh.n))]


def test_non_finite_factor_is_refused(mat, monkeypatch):
    # the factor is checked once, when the solver is built
    def non_finite(matrix, **kwargs):
        lu, piv = lu_factor(matrix, **kwargs)
        lu[0, 0] = np.nan
        return lu, piv

    monkeypatch.setattr("crackbem.forward.lu_factor", non_finite)
    with pytest.raises(ValueError, match="infs or NaNs"):
        BoundarySolver(build_mesh(Disk(), 32), mat)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_is_refused(mat, monkeypatch, value):
    # the matrix is factored unchecked: a non-finite entry leaves a
    # non-finite factor, which the one check of the factor refuses
    assemble = forward.assemble_double_layer

    def planted(mesh, mat, out):
        block = assemble(mesh, mat, out=out)
        block[3, 5] = value
        return block

    monkeypatch.setattr(forward, "assemble_double_layer", planted)
    with pytest.raises(ValueError, match="infs or NaNs"):
        BoundarySolver(build_mesh(Disk(), 32), mat)


def test_solve_neumann_layout_round_trip(solver_128, operator_128):
    # data manufactured inside the operator range so the residual vanishes
    rng = np.random.default_rng(2)
    rhs = operator_128 @ rng.standard_normal(2 * solver_128.mesh.n)
    flat = solver_128.solve_neumann(rhs)
    nodal = solver_128.solve_neumann(rhs.reshape(-1, 2))
    stacked = solver_128.solve_neumann(np.stack([rhs, 2 * rhs], axis=-1))
    nodal_stack = solver_128.solve_neumann(np.stack([rhs, 2 * rhs], axis=-1).reshape(-1, 2, 2))
    assert nodal_stack.shape == (solver_128.mesh.n, 2, 2)
    assert np.allclose(nodal_stack.reshape(-1, 2), stacked, atol=1e-14)
    assert np.allclose(nodal.reshape(-1), flat, atol=1e-14)
    assert np.allclose(stacked[:, 0], flat, atol=1e-14)
    assert np.allclose(stacked[:, 1], 2 * flat, atol=1e-12)
    # the solution solves the equation and is rigid-orthogonal
    assert np.max(np.abs(operator_128 @ flat - rhs)) < 1e-10
    moments = BoundaryField.from_flat(solver_128.mesh, flat).rigid_moments()
    assert np.max(np.abs(moments)) < 1e-12


def test_neumann_reciprocity(solver_128):
    z1 = np.array([0.25, 0.1])
    z2 = np.array([-0.3, -0.45])
    n12 = neumann_interior_ref(solver_128, z1, z2[None, :])[0]
    n21 = neumann_interior_ref(solver_128, z2, z1[None, :])[0]
    assert np.max(np.abs(n12 - n21.T)) < 1e-9


@pytest.mark.parametrize("layout", ["component-major", "C-contiguous"])
def test_layer_sum_matches_einsum(solver_128, layout):
    # every kernel the evaluators sum, rank 2 and rank 3, against a vector
    # density
    m, mat = solver_128.mesh, solver_128.mat
    rng = np.random.default_rng(8)
    x = rng.uniform(-0.6, 0.6, (9, 1, 2))
    vector = rng.standard_normal((m.n, 2))
    cases = [
        (kelvin_matrix(x - m.points, mat), vector),
        (kelvin_gradient(x - m.points, mat), vector),
        (dlp_traction_kernel(x, m.points, m.normals, mat), vector),
        (dlp_traction_gradient(x, m.points, m.normals, mat), vector),
    ]
    for kernel, density in cases:
        assert not kernel.flags.c_contiguous
        if layout == "C-contiguous":
            kernel = np.ascontiguousarray(kernel)
        got, ref = _layer_sum(m, kernel, density), layer_sum_ref(m, kernel, density)
        assert got.shape == ref.shape == (9,) + kernel.shape[2:-1] + density.shape[2:]
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_neumann_trace_is_rigid_orthogonal(solver_128):
    trace = neumann_trace_ref(solver_128, np.array([0.35, -0.2]))
    for k in range(2):
        f = BoundaryField(solver_128.mesh, trace[:, :, k])
        assert np.max(np.abs(f.rigid_moments())) < 1e-10


def test_neumann_row_equivariance(solver_128):
    # rotating source and direction by k node spacings permutes the row
    mesh = solver_128.mesh
    k = 11
    angle = k * mesh.h
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    z = np.array([0.4, 0.15])
    e_perp = np.array([0.6, 0.8])
    for t in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-0.3, 0.7])):
        row = solver_128.neumann_conormal_row(z, e_perp, t)
        row_rot = solver_128.neumann_conormal_row(rot @ z, rot @ e_perp, rot @ t)
        assert np.allclose(np.roll(row_rot, -k, axis=0), row @ rot.T, atol=1e-11)


def test_neumann_conormal_row_is_the_two_column_row_contracted(solver_128):
    # one solve on the kernel contracted with t equals the two-column solve
    # contracted with t: the solve is linear
    rng = np.random.default_rng(18)
    for _ in range(4):
        z = rng.uniform(-0.5, 0.5, size=2)
        angle, t = rng.uniform(0.0, 2.0 * np.pi), rng.standard_normal(2)
        e_perp = np.array([np.cos(angle), np.sin(angle)])
        row = solver_128.neumann_conormal_row(z, e_perp, t)
        reference = neumann_conormal_row_ref(solver_128, z, e_perp) @ t
        assert row.shape == (solver_128.mesh.n, 2)
        assert np.max(np.abs(row - reference)) <= 1e-13 * np.max(np.abs(reference))


def test_interior_guard(solver_128):
    with pytest.raises(CrackTooCloseToBoundary):
        solver_128.neumann_conormal_row(
            np.array([0.0, 0.999]), np.array([1.0, 0.0]), np.array([1.0, 0.0])
        )


coefficients = st.lists(st.floats(-0.15, 0.15), max_size=2)


@settings(max_examples=20, deadline=None, database=None)
@given(
    cos=coefficients,
    sin=coefficients,
    theta=st.floats(0.0, 2.0 * np.pi),
    factor=st.floats(1.05, 3.0),
)
def test_exterior_points_refused(cos, sin, theta, factor):
    # the ray from the origin leaves a star-shaped curve once, so a point
    # beyond the curve along it lies outside
    star = FourierStar(r0=1.0, cos_coeffs=tuple(cos), sin_coeffs=tuple(sin))
    solver = BoundarySolver(build_mesh(star, 64), LameParams(1.0, 1.0))
    point = factor * star.samples(theta)[0]
    g = BoundaryField(solver.mesh, solver.mesh.normals @ np.diag([1.0, 0.5]).T)
    crack = CrackSegment(center=tuple(point), direction=(1.0, 0.0), length=0.05)
    with pytest.raises(CrackTooCloseToBoundary, match="outside the boundary"):
        solve_cracked(solver.solve_background(g), crack)
    with pytest.raises(CrackTooCloseToBoundary, match="outside the boundary"):
        solver.neumann_conormal_row(point, np.array([0.0, 1.0]), np.array([1.0, 0.0]))


@settings(max_examples=20, deadline=None, database=None)
@given(
    cos=coefficients,
    sin=coefficients,
    angles=st.tuples(st.floats(0.0, 2.0 * np.pi), st.floats(0.0, 2.0 * np.pi)),
    fractions=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5)),
)
def test_neumann_reciprocity_on_stars(cos, sin, angles, fractions):
    # N(x, z) = N(z, x)^T for interior pairs; the source datum, the Gram
    # projector and the rigid correction all enter both sides
    star = FourierStar(r0=1.0, cos_coeffs=tuple(cos), sin_coeffs=tuple(sin))
    solver = BoundarySolver(build_mesh(star, 128), LameParams(1.0, 1.0))
    x, z = (f * star.samples(t)[0] for f, t in zip(fractions, angles))
    assume(np.linalg.norm(x - z) > 0.05)
    assume(np.min(solver.mesh.distance_to([x, z])) > 2.0 * solver.mesh.minimum_interior_distance)
    n_xz = neumann_interior_ref(solver, z, x[None, :])[0]
    n_zx = neumann_interior_ref(solver, x, z[None, :])[0]
    assert np.max(np.abs(n_xz - n_zx.T)) < 1e-10
