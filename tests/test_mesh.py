"""Curve discretization: geometry exactness, quadrature accuracy, and the
rigid-motion bookkeeping on nodal fields."""

import dataclasses
import warnings

import numpy as np
import pytest
from scipy.special import ellipe

from crackbem import (
    BoundaryField,
    BoundaryMesh,
    BoundarySolver,
    Disk,
    Ellipse,
    FourierStar,
    LameParams,
    build_mesh,
    project_off_rigid_motions,
    rigid_gram,
    rigid_motion_basis,
)
from crackbem.errors import CrackTooCloseToBoundary, MeshError
from oracles import (
    Shifted,
    distance_to_ref,
    distance_to_rolled_ref,
    distance_to_winding_ref,
    linear_field,
)


def test_disk_mesh_geometry():
    mesh = build_mesh(Shifted(Disk(radius=2.0), (1.0, -0.5)), 32)
    radii = np.linalg.norm(mesh.points - [1.0, -0.5], axis=-1)
    assert np.allclose(radii, 2.0, atol=1e-14)
    assert np.allclose(mesh.speed, 2.0, atol=1e-14)
    out = (mesh.points - [1.0, -0.5]) / 2.0
    assert np.allclose(mesh.normals, out, atol=1e-14)
    assert mesh.perimeter == pytest.approx(4 * np.pi, abs=1e-12)


def test_ellipse_perimeter_spectral():
    # 4 a E(e^2) with eccentricity e^2 = 1 - (b/a)^2
    a, b = 1.3, 0.8
    mesh = build_mesh(Ellipse(a=a, b=b), 256)
    exact = 4 * a * ellipe(1 - (b / a) ** 2)
    assert mesh.perimeter == pytest.approx(exact, rel=1e-13)


def test_fourier_star_matches_radius():
    star = FourierStar(r0=1.0, cos_coeffs=(0.15,), sin_coeffs=(0.0, 0.1))
    mesh = build_mesh(star, 64)
    t = mesh.params
    r = 1.0 + 0.15 * np.cos(t) + 0.1 * np.sin(2 * t)
    assert np.allclose(np.linalg.norm(mesh.points, axis=-1), r, atol=1e-14)
    assert np.allclose(np.linalg.norm(mesh.normals, axis=-1), 1.0, atol=1e-14)
    # derivative samples match a spectral finite difference of the points
    k = np.fft.fftfreq(64, 1.0 / 64)
    dft = np.real(np.fft.ifft(1j * k[:, None] * np.fft.fft(mesh.points, axis=0), axis=0))
    assert np.allclose(mesh.first_deriv, dft, atol=1e-9)


def test_fourier_star_rejects_folded_curve():
    with pytest.raises(MeshError):
        FourierStar(r0=0.4, cos_coeffs=(0.6,))


def test_mesh_validation():
    with pytest.raises(MeshError):
        build_mesh(Disk(), 15)
    with pytest.raises(MeshError):
        build_mesh(Disk(), 8)
    with pytest.raises(MeshError):
        Disk(radius=-1.0)
    with pytest.raises(MeshError):
        Ellipse(a=1.0, b=0.0)


def test_mesh_takes_only_shape_and_node_count():
    assert [f.name for f in dataclasses.fields(BoundaryMesh)] == ["shape", "n"]
    with pytest.raises(TypeError):
        BoundaryMesh(Disk(), 16, h=1.0)
    # meshes compare and hash by (shape, n), not by their sample arrays
    a, b = build_mesh(Disk(), 32), build_mesh(Disk(), 32)
    assert a == b and hash(a) == hash(b)
    assert a != build_mesh(Disk(), 64)
    assert a != build_mesh(Disk(radius=2.0), 32)


class ShiftedUnitCircle:
    """A curve with nothing but samples(t): the unit circle about (1, 2)."""

    def samples(self, t):
        c, s = np.cos(t), np.sin(t)
        return np.stack([1.0 + c, 2.0 + s], -1), np.stack([-s, c], -1), np.stack([-c, -s], -1)


def test_any_curve_with_samples_meshes_like_the_package_curves():
    mesh, disk = build_mesh(ShiftedUnitCircle(), 64), build_mesh(Shifted(Disk(), (1.0, 2.0)), 64)
    for name in ("params", "points", "first_deriv", "second_deriv", "speed", "normals", "weights"):
        assert np.array_equal(getattr(mesh, name), getattr(disk, name)), name
    assert mesh.h == disk.h


def test_disk_is_an_ellipse():
    # Disk(r) is Ellipse(r, r), so the two curves' meshes compare equal
    assert Disk(2.0) == Ellipse(2.0, 2.0)
    assert build_mesh(Disk(2.0), 32) == build_mesh(Ellipse(2.0, 2.0), 32)


class Curve:
    """A curve given by a function t -> (x, x', x'') and nothing else."""

    def __init__(self, samples):
        self.samples = samples


def bean(a, b):
    # x = (cos t, b sin t + a cos^2 t): simple for all a, b > 0; the beans
    # below are not star-shaped about their node centroid
    def samples(t):
        c, s = np.cos(t), np.sin(t)
        return (
            np.stack([c, b * s + a * c * c], -1),
            np.stack([-s, b * c - 2 * a * c * s], -1),
            np.stack([-c, -b * s - 2 * a * np.cos(2 * t)], -1),
        )

    return Curve(samples)


def limacon(c):
    # r = c + cos t, which for c < 1 loops inside itself
    def samples(t):
        r, r1, r2 = c + np.cos(t), -np.sin(t), -np.cos(t)
        u, v = np.cos(t), np.sin(t)
        return (
            np.stack([r * u, r * v], -1),
            np.stack([r1 * u - r * v, r1 * v + r * u], -1),
            np.stack([(r2 - r) * u - 2 * r1 * v, (r2 - r) * v + 2 * r1 * u], -1),
        )

    return Curve(samples)


def clockwise(curve):
    def samples(t):
        x, d1, d2 = curve.samples(-t)
        return x, -d1, d2

    return Curve(samples)


def figure_eight(t):
    s, c = np.sin(t), np.cos(t)
    return (
        np.stack([s, s * c], -1),
        np.stack([c, np.cos(2 * t)], -1),
        np.stack([-s, -2 * np.sin(2 * t)], -1),
    )


@pytest.mark.parametrize("a, b", [(1.0, 0.6), (1.0, 0.5), (0.5, 0.3), (1.5, 1.0)])
def test_simple_non_star_curves_mesh_and_solve(a, b):
    # the turning-number rule accepts beans at every node count, and at 256
    # nodes a constant stress solves to the exact linear trace (measured at
    # most 5.8e-14)
    for n in (16, 32, 64, 128, 256):
        mesh = build_mesh(bean(a, b), n)
    mat, grad = LameParams(1.0, 1.0), np.array([[0.3, 1.0], [0.2, -0.5]])
    sigma = mat.lam * np.trace(grad) * np.eye(2) + mat.mu * (grad + grad.T)
    background = BoundarySolver(mesh, mat).solve_background(
        BoundaryField(mesh, mesh.normals @ sigma.T)
    )
    exact = project_off_rigid_motions(BoundaryField(mesh, linear_field(grad)(mesh.points)))
    assert (background.trace - exact).sup_norm() < 2e-13


@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize(
    "curve, turns",
    [
        (clockwise(Ellipse(1.3, 0.7)), -1),
        (Curve(figure_eight), 0),
        (limacon(0.2), 2),
        (limacon(0.5), 2),
        (limacon(0.8), 2),
    ],
    ids=["clockwise-ellipse", "figure-eight", "limacon-0.2", "limacon-0.5", "limacon-0.8"],
)
def test_mesh_refuses_curves_that_do_not_turn_once(curve, turns, n):
    with pytest.raises(MeshError, match=f"curve turns {turns} times; it must turn once"):
        build_mesh(curve, n)


def test_mesh_refuses_transposed_samples():
    transposed = Curve(lambda t: tuple(a.T for a in Disk().samples(t)))
    with pytest.raises(MeshError, match=r"must each have shape t.shape \+ \(2,\) = \(32, 2\)"):
        build_mesh(transposed, 32)


@pytest.mark.parametrize(
    "shape",
    [
        lambda: Disk(radius=np.nan),
        lambda: Disk(radius=np.inf),
        lambda: Shifted(Disk(), (np.nan, 0.0)),
        lambda: Ellipse(np.nan, 1.0),
        lambda: FourierStar(r0=np.nan),
    ],
    ids=["disk-nan-radius", "disk-inf-radius", "disk-nan-center", "ellipse-nan", "star-nan"],
)
def test_mesh_refuses_non_finite_curves(shape):
    # NaN slips past every positivity check, so the samples themselves are checked
    with pytest.raises(MeshError, match="curve samples must be finite"):
        build_mesh(shape(), 32)


def test_distance_to():
    mesh = build_mesh(Disk(), 128)
    assert mesh.distance_to((0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)
    assert mesh.distance_to((0.5, 0.0)) == pytest.approx(0.5, abs=1e-3)
    assert mesh.distance_to((2.0, 0.0)) == pytest.approx(-1.0, abs=1e-12)


def test_distance_to_batches():
    # any (..., 2) stack of points gives one signed distance per point
    mesh = build_mesh(Disk(), 128)
    axis = np.linspace(-1.5, 1.5, 8)
    grid = np.stack(np.meshgrid(axis, axis[:5]), axis=-1)  # (5, 8, 2)
    batched = mesh.distance_to(grid)
    assert batched.shape == (5, 8)
    assert isinstance(mesh.distance_to(grid[0, 0]), float)
    assert np.array_equal(batched, [[mesh.distance_to(p) for p in row] for row in grid])
    assert np.array_equal(batched < 0.0, np.hypot(grid[..., 0], grid[..., 1]) > 1.0)


@pytest.mark.parametrize("shape", [
    Disk(),
    Ellipse(a=1.3, b=0.7),
    FourierStar(r0=1.0, cos_coeffs=(0.0, 0.0, 0.0, 0.3)),  # non-convex
])
def test_distance_to_matches_winding_number(shape):
    # the crossing-number sign agrees with the winding number off the polygon
    # edges, and the distances are the same to the bit; the nodes are included
    mesh = build_mesh(shape, 128)
    low, high = mesh.points.min(axis=0), mesh.points.max(axis=0)
    center, half = 0.5 * (low + high), 0.5 * (high - low)
    rng = np.random.default_rng(17)
    points = center + 1.5 * half * rng.uniform(-1.0, 1.0, (20000, 2))
    points = np.concatenate([points, mesh.points])
    signed = mesh.distance_to(points)
    assert np.array_equal(signed, distance_to_winding_ref(mesh, points))
    assert 0 < np.count_nonzero(signed > 0.0) < len(points) - mesh.n


@pytest.mark.parametrize("shape", [
    Disk(),
    Ellipse(a=1.3, b=0.7),
    FourierStar(r0=1.0, cos_coeffs=(0.0, 0.0, 0.0, 0.0, 0.3)),  # non-convex
])
def test_distance_to_matches_all_edges_crossing_test(shape):
    # testing only the edges that straddle a point's line changes nothing,
    # also for points outside, for rows at exactly a node's y (where an edge
    # end lies on the line) and for a NaN point
    mesh = build_mesh(shape, 128)
    low, high = mesh.points.min(axis=0), mesh.points.max(axis=0)
    rng = np.random.default_rng(29)
    scattered = rng.uniform(1.5 * low, 1.5 * high, (2000, 2))
    xs = np.linspace(1.2 * low[0], 1.2 * high[0], 40)
    rows = np.stack(np.broadcast_arrays(xs, mesh.points[::9, 1:]), axis=-1)  # (15, 40, 2)
    for points in (scattered, rows, mesh.points, np.array([np.nan, 0.3])):
        assert np.array_equal(
            mesh.distance_to(points), distance_to_ref(mesh, points), equal_nan=True
        )
    assert np.count_nonzero(mesh.distance_to(scattered) < 0.0) > 500


@pytest.mark.parametrize("shape", [
    Disk(),
    Ellipse(a=1.3, b=0.7),
    FourierStar(r0=1.0, cos_coeffs=(0.0, 0.0, 0.0, 0.3)),  # non-convex
])
def test_distance_to_straddles_by_slices_as_by_roll(shape):
    # pairing each node with the next by slices gives the signed distances
    # of the rolled mask to the bit, also on the polygon's edges: at the
    # nodes, at rounded edge midpoints and along rows through node heights
    mesh = build_mesh(shape, 96)
    low, high = mesh.points.min(axis=0), mesh.points.max(axis=0)
    rng = np.random.default_rng(41)
    midpoints = 0.5 * (mesh.points + np.roll(mesh.points, -1, axis=0))
    xs = rng.uniform(1.2 * low[0], 1.2 * high[0], 30)
    rows = np.stack(np.broadcast_arrays(xs, mesh.points[::7, 1:]), axis=-1).reshape(-1, 2)
    points = np.concatenate([
        rng.uniform(1.3 * low, 1.3 * high, (3000, 2)), mesh.points, midpoints, rows,
    ])
    signed = mesh.distance_to(points)
    assert np.array_equal(signed, distance_to_rolled_ref(mesh, points))
    assert np.count_nonzero(signed == 0.0) == mesh.n


@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize(
    "shape",
    [
        Disk(),
        Ellipse(a=1.3, b=0.7),
        FourierStar(r0=1.0, cos_coeffs=(0.0, 0.0, 0.0, 0.0, 0.3)),  # non-convex
        bean(1.0, 0.5),  # not star-shaped
    ],
    ids=["disk", "ellipse", "star", "bean"],
)
def test_distance_on_grid_matches_distance_to(shape, n):
    # the tensor grid gives distance_to of its meshgrid points to the bit,
    # on a grid spanning the curve and past it, on grid lines through every
    # node's x and y (where edge ends lie on a row's line), and with a
    # non-finite line on each axis
    mesh = build_mesh(shape, n)
    low, high = 1.2 * mesh.points.min(axis=0), 1.2 * mesh.points.max(axis=0)
    spanning = (np.linspace(low[0], high[0], 40), np.linspace(low[1], high[1], 33))
    nodes = np.concatenate([mesh.points, [[np.nan, np.inf]]]).T
    for xs, ys in (spanning, nodes):
        on_grid = mesh.distance_on_grid(xs, ys)
        assert on_grid.shape == (len(ys), len(xs))
        points = np.stack(np.meshgrid(xs, ys), axis=-1)
        assert np.array_equal(on_grid, mesh.distance_to(points), equal_nan=True)
        assert np.any(on_grid > 0.0) and np.any(on_grid < 0.0)


def test_distance_to_non_finite_point_is_quiet():
    # the crossing test meets inf - inf here, which must not warn
    mesh = build_mesh(Disk(), 128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mesh.distance_to((0.0, np.inf)) == -np.inf


def test_clearance_rule():
    # two node spacings, or the crack length if longer, from every node
    mesh = build_mesh(Disk(), 128)
    assert mesh.minimum_interior_distance == pytest.approx(2 * mesh.h, abs=1e-14)
    mesh.require_clearance([(0.0, 0.0), (0.9, 0.0)])
    with pytest.raises(CrackTooCloseToBoundary, match="is outside the boundary"):
        mesh.require_clearance([(0.0, 0.0), (1.5, 0.0)])
    with pytest.raises(CrackTooCloseToBoundary, match="not smaller than the distance"):
        mesh.require_clearance((0.99, 0.0))
    with pytest.raises(CrackTooCloseToBoundary, match="clearance 0.2 is not smaller"):
        mesh.require_clearance((0.85, 0.0), length=0.2)


@pytest.mark.parametrize("point", [(np.nan, 0.0), (0.0, np.inf), (-np.inf, np.nan)])
def test_clearance_refuses_non_finite_points(point):
    mesh = build_mesh(Disk(), 128)
    with pytest.raises(ValueError, match="is not finite"):
        mesh.require_clearance(point)
    with pytest.raises(ValueError, match="is not finite"):
        mesh.require_clearance([(0.0, 0.0), point])


def test_boundary_field_algebra():
    mesh = build_mesh(Disk(), 32)
    f = BoundaryField(mesh, mesh.points)
    g = BoundaryField(mesh, mesh.normals)
    assert (f - g).sup_norm() == pytest.approx(0.0, abs=1e-14)  # disk: x = n
    assert f.dot(g) == pytest.approx(2 * np.pi, abs=1e-12)  # Int x.n = 2 area
    assert np.allclose((f + g).values, 2 * mesh.points, atol=1e-14)
    with pytest.raises(MeshError):
        BoundaryField(mesh, np.zeros((3, 2)))


def test_fields_compare_by_identity():
    mesh = build_mesh(Disk(), 32)
    f = BoundaryField(mesh, mesh.normals)
    twin = BoundaryField(mesh, mesh.normals.copy())
    assert f == f
    assert f != twin  # equal values, another field; no elementwise comparison
    assert len({f, twin, f}) == 2


def test_fields_on_different_meshes_do_not_combine():
    disk = build_mesh(Disk(), 64)
    f = BoundaryField(disk, disk.normals)
    g_mesh = build_mesh(Ellipse(2.0, 0.5), 64)
    g = BoundaryField(g_mesh, g_mesh.normals)
    for combine in (f.dot, f.__add__, f.__sub__):
        with pytest.raises(MeshError, match="different meshes"):
            combine(g)
    twin = build_mesh(Disk(), 64)
    h = BoundaryField(twin, twin.normals)
    assert f.dot(h) == pytest.approx(2 * np.pi, abs=1e-12)
    assert (f - h).sup_norm() == 0.0
    assert np.array_equal((f + h).values, 2 * disk.normals)


def test_rigid_moments_and_projection():
    mesh = build_mesh(Ellipse(a=1.2, b=0.7), 64)
    basis = rigid_motion_basis(mesh.points)
    for a in range(3):
        rigid = BoundaryField(mesh, basis[:, :, a])
        projected = project_off_rigid_motions(rigid)
        assert projected.sup_norm() < 1e-12
    f = BoundaryField(mesh, np.stack([mesh.points[:, 0] ** 2, mesh.points[:, 1]], -1))
    projected = project_off_rigid_motions(f)
    assert np.max(np.abs(projected.rigid_moments())) < 1e-12
    # projection is idempotent and changes nothing orthogonal
    again = project_off_rigid_motions(projected)
    assert (again - projected).sup_norm() < 1e-13


def test_rigid_gram_of_unit_circle():
    # Int 1 = Int (x2^2 + x1^2) = 2 pi on the unit circle, and the
    # translations are orthogonal to each other and to the rotation
    assert np.allclose(rigid_gram(build_mesh(Disk(), 64)), 2 * np.pi * np.eye(3), atol=1e-13)


def test_is_equilibrated():
    mesh = build_mesh(Disk(), 64)
    shear = BoundaryField(mesh, mesh.normals @ np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert shear.is_equilibrated()
    assert not BoundaryField(mesh, np.tile([1.0, 0.0], (64, 1))).is_equilibrated()
