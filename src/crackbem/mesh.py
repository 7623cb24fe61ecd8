"""Smooth closed boundary curves, their discretization, and nodal fields.

A curve is any object whose samples(t) returns x, x' and x'' of a 2 pi-periodic
parametrization at the parameters t, each of shape t.shape + (2,), in one
call; Disk(r) is Ellipse(r, r).  A mesh samples it at an even number of
equispaced parameters and accepts it when the node polygon turns once
counterclockwise, so the normal n = (x2', -x1')/|x'| points outward.  The
trapezoidal weights h |x'(t_j)| give spectrally accurate quadrature for
smooth integrands, which the layer-potential assembly relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CrackTooCloseToBoundary, MeshError
from .kernels import rigid_motion_basis

__all__ = [
    "Disk",
    "Ellipse",
    "FourierStar",
    "BoundaryMesh",
    "BoundaryField",
    "build_mesh",
    "rigid_gram",
    "project_off_rigid_motions",
]


@dataclass(frozen=True)
class Ellipse:
    """Axis-aligned ellipse (a cos t, b sin t)."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if self.a <= 0.0 or self.b <= 0.0:
            raise MeshError("ellipse semi-axes (a disk's radius) must be positive")

    def samples(self, t):
        c, s = np.cos(t), np.sin(t)
        a, b = self.a, self.b
        x = np.stack([a * c, b * s], axis=-1)
        return x, np.stack([-a * s, b * c], axis=-1), np.stack([-a * c, -b * s], axis=-1)


def Disk(radius: float = 1.0) -> Ellipse:
    """Circle of the given radius about the origin, Ellipse(radius, radius)."""
    return Ellipse(radius, radius)


@dataclass(frozen=True)
class FourierStar:
    """Star-shaped curve R(t) (cos t, sin t) with a trigonometric radius

    R(t) = r0 + sum_k cos_coeffs[k-1] cos(k t) + sin_coeffs[k-1] sin(k t).

    The radius must stay positive; otherwise the parametrization folds over
    itself and the curve is rejected.
    """

    r0: float
    cos_coeffs: tuple = ()
    sin_coeffs: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "cos_coeffs", tuple(float(c) for c in self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", tuple(float(c) for c in self.sin_coeffs))
        t = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        if np.min(next(self._radius(t))) <= 0.0:
            raise MeshError("fourier curve radius is not positive: curve self-intersects")

    def _radius(self, t):
        """Yield R, R' and R'' at parameters t, each only when asked for, so
        the positivity check pays for R alone."""
        t = np.asarray(t, dtype=float)
        n = max(len(self.cos_coeffs), len(self.sin_coeffs))
        k = np.arange(1, n + 1)
        a, b = np.zeros(n), np.zeros(n)
        a[: len(self.cos_coeffs)] = self.cos_coeffs
        b[: len(self.sin_coeffs)] = self.sin_coeffs
        kt = np.multiply.outer(t, k)
        c, s = np.cos(kt), np.sin(kt)
        yield self.r0 + c @ a + s @ b
        yield -s @ (k * a) + c @ (k * b)
        yield -c @ (k * k * a) - s @ (k * k * b)

    def samples(self, t):
        r, r1, r2 = self._radius(t)
        c, s = np.cos(t), np.sin(t)
        return (
            np.stack([r * c, r * s], axis=-1),
            np.stack([r1 * c - r * s, r1 * s + r * c], axis=-1),
            np.stack([(r2 - r) * c - 2.0 * r1 * s, (r2 - r) * s + 2.0 * r1 * c], axis=-1),
        )


@dataclass(frozen=True)
class BoundaryMesh:
    """Equispaced-parameter discretization of a closed boundary curve.

    Built from the curve and the node count only, and compared and hashed by
    (shape, n).  Refuses samples that are not finite (n, 2) arrays, a
    vanishing speed, and a node polygon not turning once counterclockwise.

    Attributes
    ----------
    shape : curve object whose samples(t) returns x, x', x'' at t, each (n, 2)
    params : (n,) parameter values t_j = 2 pi j / n
    points, first_deriv, second_deriv : (n, 2) samples of x, x', x''
    speed : (n,) arc element |x'|
    normals : (n, 2) outward unit normals (x2', -x1')/|x'|
    weights : (n,) quadrature weights h |x'| with h = 2 pi / n
    """

    shape: object
    n: int

    def __post_init__(self) -> None:
        n = int(self.n)
        if n < 16 or n % 2 != 0:
            raise MeshError("node count must be even and at least 16")
        t = 2.0 * np.pi * np.arange(n) / n
        # NaN passes the speed check below, so non-finite samples are refused here
        with np.errstate(invalid="ignore", over="ignore"):
            pts, d1, d2 = (np.asarray(a, dtype=float) for a in self.shape.samples(t))
        if any(a.shape != (n, 2) for a in (pts, d1, d2)):
            raise MeshError(f"curve samples must each have shape t.shape + (2,) = ({n}, 2)")
        if not np.all(np.isfinite([pts, d1, d2])):
            raise MeshError("curve samples must be finite")
        speed = np.linalg.norm(d1, axis=-1)
        if np.min(speed) <= 0.0:
            raise MeshError("parametrization is degenerate (vanishing speed)")
        normals = np.stack([d1[:, 1], -d1[:, 0]], axis=-1) / speed[:, None]
        h = 2.0 * np.pi / n
        # the node polygon's turning number: its exterior angles summed over 2 pi
        e = np.diff(pts, axis=0, append=pts[:1])
        f = np.roll(e, -1, axis=0)
        turns = np.arctan2(e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0], np.sum(e * f, axis=-1))
        turning = round(np.sum(turns) / (2.0 * np.pi))
        if turning != 1:
            raise MeshError(f"curve turns {turning} times; it must turn once counterclockwise")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "params", t)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "first_deriv", d1)
        object.__setattr__(self, "second_deriv", d2)
        object.__setattr__(self, "speed", speed)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "weights", h * speed)
        object.__setattr__(self, "h", h)

    @property
    def perimeter(self) -> float:
        return float(self.weights.sum())

    def distance_to(self, points):
        """Distance from points (..., 2) to the sampled boundary nodes, negated
        where a point lies outside the curve; shape (...), a float for one
        point.

        Inside means an odd crossing number: a ray from the point in the +x
        direction crosses an odd number of edges of the node polygon.  For a
        point on a polygon edge both inside and outside are right, and the
        sign is whichever the rounding gives; such points lie within half a
        node spacing of the wall, which the clearance rule refuses anyway.
        """
        q = np.asarray(points, dtype=float)
        flat = q.reshape(-1, 2)
        d0 = self.points[:, 0] - flat[:, :1]  # offsets to each node, (points, n)
        d1 = self.points[:, 1] - flat[:, 1:]
        distance = np.sqrt(np.min(d0 * d0 + d1 * d1, axis=-1))
        # only an edge from node j to node k = j + 1 that straddles the ray's
        # line can cross the ray, where (d0_j d1_k - d1_j d0_k) / (d1_k - d1_j)
        # > 0; a non-finite point makes it NaN
        above = d1 > 0.0
        straddles = np.empty_like(above)
        np.not_equal(above[:, :-1], above[:, 1:], out=straddles[:, :-1])
        np.not_equal(above[:, -1], above[:, 0], out=straddles[:, -1])
        row, j = np.nonzero(straddles)
        k = (j + 1) % self.n
        with np.errstate(invalid="ignore"):
            right = (d0[row, j] * d1[row, k] - d1[row, j] * d0[row, k] > 0.0) == (
                d1[row, k] > d1[row, j]
            )
        crossings = np.bincount(row[right], minlength=len(flat))
        signed = np.where(crossings % 2 == 1, distance, -distance).reshape(q.shape[:-1])
        return float(signed) if signed.ndim == 0 else signed

    @property
    def minimum_interior_distance(self) -> float:
        """Two node spacings: the least wall distance of a crack and of a
        td-map point, not an accuracy bound.  The interior stress evaluated
        there is off by 1.4e-3 to 6.3e-3 of max|sigma|, and by at most 1.9e-8
        at four spacings (constant-stress load on the disk and a 1.3 x 0.7
        ellipse, N = 128 and 256)."""
        return 2.0 * self.h * float(np.max(self.speed))

    def require_clearance(self, points, length: float = 0.0) -> None:
        """The one clearance rule: raise CrackTooCloseToBoundary, naming the
        point, unless every point lies inside the curve at a node distance of
        at least max(minimum_interior_distance, length).  Non-finite points
        raise ValueError."""
        need = max(self.minimum_interior_distance, length)
        points = np.atleast_2d(np.asarray(points, dtype=float))
        for (x, y), d in zip(points, np.atleast_1d(self.distance_to(points))):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"point ({x:.3g}, {y:.3g}) is not finite")
            if d < 0.0:
                raise CrackTooCloseToBoundary(
                    f"point ({x:.3g}, {y:.3g}) is outside the boundary"
                )
            if d < need:
                raise CrackTooCloseToBoundary(
                    f"required clearance {need:.3g} is not smaller than the distance "
                    f"{d:.3g} from ({x:.3g}, {y:.3g}) to the boundary"
                )


def build_mesh(shape, n_nodes: int) -> BoundaryMesh:
    """Discretize a curve with an even number (>= 16) of nodes."""
    return BoundaryMesh(shape=shape, n=n_nodes)


@dataclass(frozen=True, eq=False)
class BoundaryField:
    """Vector-valued nodal function on a boundary mesh, values (n, 2).

    Fields compare and hash by identity: equal values on one mesh are two
    fields, not one.
    """

    mesh: BoundaryMesh
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.mesh.n, 2):
            raise MeshError(
                f"field shape {v.shape} incompatible with mesh of {self.mesh.n} nodes"
            )
        object.__setattr__(self, "values", v)

    @classmethod
    def from_flat(cls, mesh: BoundaryMesh, flat: np.ndarray) -> "BoundaryField":
        return cls(mesh, np.asarray(flat, dtype=float).reshape(mesh.n, 2))

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def _check_same_mesh(self, other: "BoundaryField") -> None:
        """Fields combine only on one mesh or on meshes with identical nodes."""
        if other.mesh is not self.mesh and not np.array_equal(
            other.mesh.points, self.mesh.points
        ):
            raise MeshError("fields live on different meshes")

    def dot(self, other: "BoundaryField") -> float:
        """L^2(d sigma) inner product with another field on the same mesh."""
        self._check_same_mesh(other)
        return float(
            np.sum(self.mesh.weights * np.einsum("ij,ij->i", self.values, other.values))
        )

    def rigid_moments(self) -> np.ndarray:
        """Moments Int f . psi d sigma against the three rigid motions."""
        basis = rigid_motion_basis(self.mesh.points)
        return np.einsum("i,ija,ij->a", self.mesh.weights, basis, self.values)

    def is_equilibrated(self, tol: float = 1e-10) -> bool:
        scale = max(1.0, float(np.max(np.abs(self.values))))
        return bool(np.all(np.abs(self.rigid_moments()) <= tol * scale * self.mesh.perimeter))

    def __add__(self, other: "BoundaryField") -> "BoundaryField":
        self._check_same_mesh(other)
        return BoundaryField(self.mesh, self.values + other.values)

    def __sub__(self, other: "BoundaryField") -> "BoundaryField":
        self._check_same_mesh(other)
        return BoundaryField(self.mesh, self.values - other.values)


def rigid_gram(mesh: BoundaryMesh) -> np.ndarray:
    """Gram matrix G = C^T W C of the rigid-motion traces in L^2(d sigma), (3, 3)."""
    basis = rigid_motion_basis(mesh.points)
    return np.einsum("i,ija,ijb->ab", mesh.weights, basis, basis)


def project_off_rigid_motions(f: BoundaryField) -> BoundaryField:
    """Remove the L^2(d sigma) projection onto the rigid motions.

    The output has vanishing moments against all three generators; fields
    already orthogonal are returned unchanged up to roundoff, and rigid
    traces map to zero.
    """
    coef = np.linalg.solve(rigid_gram(f.mesh), f.rigid_moments())
    return BoundaryField(f.mesh, f.values - rigid_motion_basis(f.mesh.points) @ coef)
