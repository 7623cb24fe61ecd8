"""Boundary-integral forward solver: layer operators, background solve, and
domain Green-function rows.

Discretization
--------------
On a smooth closed curve the double-layer traction kernel splits, after
multiplication by the arc element, into a smooth symmetric part plus a
Cauchy-type part with the universal profile (1/2) cot((t-s)/2) acting through
the constant skew matrix J = [[0, 1], [-1, 0]]:

    K(t, s) |x'(s)| = Gsym(t, s) + a [ (1/2) cot((t-s)/2) + gsm(t, s) ] J,

where gsm is smooth with diagonal -x'.x''/(2 |x'|^2) and Gsym has diagonal
[a I + b tau tau^T] (n . x'')/(2 |x'|).  Periodic trapezoidal quadrature on
the smooth parts and the exact spectral quadrature of the cotangent (the
conjugate-function circulant) give a Nystrom scheme that converges
spectrally on analytic curves.  The single layer is handled the same way
through the splitting log|x - y| = log|2 sin((t-s)/2)| + smooth, using the
log circulant with Fourier multipliers -pi/|k|.

Rank-3 completion
-----------------
The operator -I/2 + K annihilates rigid motions, so all solves go through
the bordered system

    [ -I/2 + K   C ] [w ]   [rhs]
    [   C^T W    0 ] [mu] = [ 0 ],

whose constraint rows enforce the rigid-motion orthogonality of w and whose
extra columns absorb the compatibility defect of the right-hand side.  One
LU factorization serves every right-hand side (background solves, Green
function columns, crack feedback updates).

Green-function rows
-------------------
N(x, y) is the traction (Neumann) domain Green function: a point force at y
balanced by the boundary traction -sum_a chi_a(x) chi_a(y)^T over an
L2-orthonormal rigid-motion basis chi_a, with rigid-orthogonal trace.  Only
this projector datum is force- AND torque-compatible for every source
position, and it is what makes N(x, y) = N(y, x)^T hold exactly.  The trace
is computed by solving the crack-free problem for the regular part
R = N + Phi(. - z) and subtracting the Kelvin trace; interior values follow
from the representation formula plus a rigid correction.

The trace of the crack-directional conormal x -> dN/dnu_y (x, z) solves the
boundary system with the double-layer traction kernel as data directly: the
projector datum drops out of that equation because rigid fields are
stress-free.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cholesky, lu_factor, lu_solve, solve_triangular

from .errors import CrackTooCloseToBoundary, EquilibriumViolated, SolveFailed
from .kernels import (
    LameParams,
    dlp_traction_gradient,
    dlp_traction_kernel,
    kelvin_gradient,
    kelvin_matrix,
    rigid_motion_basis,
)
from .mesh import BoundaryField, BoundaryMesh, rigid_motion_traces

__all__ = [
    "assemble_double_layer",
    "assemble_single_layer",
    "double_layer_interior",
    "double_layer_interior_gradient",
    "single_layer_interior",
    "single_layer_interior_gradient",
    "BackgroundField",
    "BoundarySolver",
    "solve_background",
]

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _circulant(n: int, multipliers: np.ndarray) -> np.ndarray:
    """Matrix applying a Fourier multiplier operator on the equispaced grid."""
    spectrum = np.fft.fft(np.eye(n), axis=0)
    return np.real(np.fft.ifft(multipliers[:, None] * spectrum, axis=0))


def conjugate_circulant(n: int) -> np.ndarray:
    """Nodal matrix H of the conjugate operator: e^{ikt} -> -i sgn(k) e^{ikt}.

    pi H is the exact quadrature of p.v. Int (1/2) cot((t-s)/2) phi(s) ds for
    band-limited phi.
    """
    k = np.fft.fftfreq(n, d=1.0 / n)
    return _circulant(n, -1j * np.sign(k))


def log_circulant(n: int) -> np.ndarray:
    """Nodal matrix of phi -> Int log|2 sin((t-s)/2)| phi(s) ds.

    Fourier multipliers -pi/|k| for k != 0 and 0 for the mean mode.
    """
    k = np.fft.fftfreq(n, d=1.0 / n)
    mult = np.zeros(n)
    mult[1:] = -np.pi / np.abs(k[1:])
    return _circulant(n, mult.astype(complex))


def _pairwise(mesh: BoundaryMesh):
    pts = mesh.points
    r = pts[:, None, :] - pts[None, :, :]
    rho2 = np.einsum("ijk,ijk->ij", r, r)
    np.fill_diagonal(rho2, 1.0)  # dummy, diagonals are overwritten with limits
    return r, rho2


def _blocks_to_matrix(blocks: np.ndarray) -> np.ndarray:
    n = blocks.shape[0]
    return blocks.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)


def assemble_double_layer(mesh: BoundaryMesh, mat: LameParams) -> np.ndarray:
    """Dense 2n x 2n Nystrom matrix of the double-layer traction operator."""
    n = mesh.n
    t = mesh.params
    r, rho2 = _pairwise(mesh)
    tau = mesh.first_deriv / mesh.speed[:, None]

    # smooth symmetric part  [a I + b rhat rhat^T] (n(s).r)/rho^2 |x'(s)|
    ndotr = np.einsum("jk,ijk->ij", mesh.normals, r) / rho2
    rhat = r / np.sqrt(rho2)[..., None]
    rr = np.einsum("ijk,ijl->ijkl", rhat, rhat)
    diag_rr = np.einsum("ik,il->ikl", tau, tau)
    rr[np.arange(n), np.arange(n)] = diag_rr
    ncurv = np.einsum("ik,ik->i", mesh.normals, mesh.second_deriv)
    np.fill_diagonal(ndotr, ncurv / (2.0 * mesh.speed**2))
    sym = (mat.a * np.eye(2) + mat.b * rr) * (ndotr * mesh.speed[None, :])[
        ..., None, None
    ]

    # Cauchy part  a [ (1/2) cot((t-s)/2) + gsm ] J, quadratured spectrally
    g = np.einsum("ijk,jk->ij", r, mesh.first_deriv) / rho2
    dt = t[:, None] - t[None, :]
    np.fill_diagonal(dt, 1.0)
    cot = 0.5 / np.tan(0.5 * dt)
    gsm = g - cot
    np.fill_diagonal(
        gsm,
        -np.einsum("ik,ik->i", mesh.first_deriv, mesh.second_deriv)
        / (2.0 * mesh.speed**2),
    )
    skew_weights = mesh.h * gsm + np.pi * conjugate_circulant(n)

    blocks = mesh.h * sym + mat.a * skew_weights[..., None, None] * _J
    return _blocks_to_matrix(blocks)


def assemble_single_layer(mesh: BoundaryMesh, mat: LameParams) -> np.ndarray:
    """Dense 2n x 2n Nystrom matrix of the single-layer (Kelvin) operator."""
    n = mesh.n
    t = mesh.params
    r, rho2 = _pairwise(mesh)
    tau = mesh.first_deriv / mesh.speed[:, None]

    dt = t[:, None] - t[None, :]
    np.fill_diagonal(dt, 1.0)
    sin2 = 4.0 * np.sin(0.5 * dt) ** 2
    np.fill_diagonal(sin2, 1.0)
    logfac = 0.5 * np.log(rho2 / sin2)
    np.fill_diagonal(logfac, np.log(mesh.speed))

    log_part = log_circulant(n) + mesh.h * logfac

    rhat = r / np.sqrt(rho2)[..., None]
    rr = np.einsum("ijk,ijl->ijkl", rhat, rhat)
    rr[np.arange(n), np.arange(n)] = np.einsum("ik,il->ikl", tau, tau)

    blocks = (
        mat.lam_prime * log_part[..., None, None] * np.eye(2)
        - mat.mu_prime * mesh.h * rr
    ) * mesh.speed[None, :, None, None]
    return _blocks_to_matrix(blocks)


def double_layer_interior(
    mesh: BoundaryMesh, mat: LameParams, density: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Double-layer potential of a nodal density at interior points, (p, 2)."""
    k = dlp_traction_kernel(
        np.asarray(points, dtype=float)[:, None, :],
        mesh.points[None, :, :],
        mesh.normals[None, :, :],
        mat,
    )
    return np.einsum("j,pjkl,jl->pk", mesh.weights, k, np.asarray(density, dtype=float))


def double_layer_interior_gradient(
    mesh: BoundaryMesh, mat: LameParams, density: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Jacobian of the double-layer potential, shape (p, 2, 2): [i, l] = du_i/dx_l."""
    g = dlp_traction_gradient(
        np.asarray(points, dtype=float)[:, None, :],
        mesh.points[None, :, :],
        mesh.normals[None, :, :],
        mat,
    )
    return np.einsum("j,pjklm,jl->pkm", mesh.weights, g, np.asarray(density, dtype=float))


def single_layer_interior(
    mesh: BoundaryMesh, mat: LameParams, density: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Single-layer potential of a nodal density at interior points, (p, 2)."""
    phi = kelvin_matrix(
        np.asarray(points, dtype=float)[:, None, :] - mesh.points[None, :, :], mat
    )
    return np.einsum("j,pjkl,jl->pk", mesh.weights, phi, np.asarray(density, dtype=float))


def single_layer_interior_gradient(
    mesh: BoundaryMesh, mat: LameParams, density: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Jacobian of the single-layer potential, shape (p, 2, 2)."""
    g = kelvin_gradient(
        np.asarray(points, dtype=float)[:, None, :] - mesh.points[None, :, :], mat
    )
    return np.einsum("j,pjklm,jl->pkm", mesh.weights, g, np.asarray(density, dtype=float))


class BackgroundField:
    """Crack-free solution of the traction problem.

    Holds the boundary trace (rigid-motion orthogonal) and evaluates the
    displacement and its derivatives at interior points through the
    representation u(x) = D[u](x) - S[g](x).  Evaluation closer to the
    boundary than about two node spacings is outside the accuracy contract.
    """

    def __init__(self, solver: "BoundarySolver", trace: BoundaryField, g: BoundaryField):
        self.solver = solver
        self.mesh = solver.mesh
        self.mat = solver.mat
        self.trace = trace
        self.g = g

    def displacement(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return double_layer_interior(
            self.mesh, self.mat, self.trace.values, points
        ) - single_layer_interior(self.mesh, self.mat, self.g.values, points)

    def gradient(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return double_layer_interior_gradient(
            self.mesh, self.mat, self.trace.values, points
        ) - single_layer_interior_gradient(self.mesh, self.mat, self.g.values, points)

    def stress(self, points) -> np.ndarray:
        grad = self.gradient(points)
        tr = np.trace(grad, axis1=-2, axis2=-1)
        sym = grad + np.swapaxes(grad, -2, -1)
        return self.mat.lam * tr[..., None, None] * np.eye(2) + self.mat.mu * sym


class BoundarySolver:
    """Factorized boundary operators for one mesh and material.

    Builds the double- and single-layer Nystrom matrices once, borders them
    with the rigid-motion columns and constraint rows, and exposes the
    solves needed by the background problem, the crack coupling, and the
    Green-function evaluators.  The factorization is immutable.
    """

    def __init__(self, mesh: BoundaryMesh, mat: LameParams):
        self.mesh = mesh
        self.mat = mat
        n = mesh.n
        self.double_layer = assemble_double_layer(mesh, mat)
        self.single_layer = assemble_single_layer(mesh, mat)
        self.operator = -0.5 * np.eye(2 * n) + self.double_layer

        basis = rigid_motion_traces(mesh)  # (n, 2, 3)
        self._columns = basis.reshape(2 * n, 3)
        self._rows = (mesh.weights[:, None, None] * basis).reshape(2 * n, 3).T

        self._neumann_lu = lu_factor(self._bordered(self.operator))

        # L2(dsigma)-orthonormal rigid basis: traces for projections, the
        # triangular transform for evaluating the same basis at interior points
        gram = self._rows @ self._columns
        chol_lower = cholesky(gram, lower=True)
        self._rigid_transform = solve_triangular(
            chol_lower, np.eye(3), lower=True, trans="T"
        )
        self._ortho_rigid = self._columns @ self._rigid_transform  # (2n, 3)
        self._weights2 = np.repeat(mesh.weights, 2)

    # -- plumbing ---------------------------------------------------------

    def _bordered(self, matrix: np.ndarray) -> np.ndarray:
        n2 = matrix.shape[0]
        out = np.zeros((n2 + 3, n2 + 3))
        out[:n2, :n2] = matrix
        out[:n2, n2:] = self._columns
        out[n2:, :n2] = self._rows
        return out

    def _solve(self, rhs_flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rhs_flat = np.asarray(rhs_flat, dtype=float)
        single = rhs_flat.ndim == 1
        rhs2 = rhs_flat[:, None] if single else rhs_flat
        ext = np.vstack([rhs2, np.zeros((3, rhs2.shape[1]))])
        sol = lu_solve(self._neumann_lu, ext)
        w, mult = sol[:-3], sol[-3:]
        if single:
            return w[:, 0], mult[:, 0]
        return w, mult

    @property
    def minimum_interior_distance(self) -> float:
        """Two node spacings: the evaluator accuracy contract near the wall."""
        return 2.0 * self.mesh.h * float(np.max(self.mesh.speed))

    def require_clearance(self, points, length: float = 0.0) -> None:
        """The one clearance rule: raise CrackTooCloseToBoundary, naming the
        point, unless every point lies inside the curve at a node distance of
        at least max(minimum_interior_distance, length)."""
        need = max(self.minimum_interior_distance, length)
        for x, y in np.atleast_2d(np.asarray(points, dtype=float)):
            d = self.mesh.distance_to((x, y))
            if d < 0.0:
                raise CrackTooCloseToBoundary(
                    f"point ({x:.3g}, {y:.3g}) is outside the boundary"
                )
            if d < need:
                raise CrackTooCloseToBoundary(
                    f"required clearance {need:.3g} is not smaller than the distance "
                    f"{d:.3g} from ({x:.3g}, {y:.3g}) to the boundary"
                )

    # -- core solves ------------------------------------------------------

    def apply_operator(self, values: np.ndarray) -> np.ndarray:
        """Apply -I/2 + K to nodal values (n, 2)."""
        flat = np.asarray(values, dtype=float).reshape(-1)
        return (self.operator @ flat).reshape(self.mesh.n, 2)

    def solve_neumann(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (-I/2 + K) w = rhs with rigid-motion orthogonality.

        rhs may be (n, 2) nodal values, a flat (2n,) vector, or a stack
        (2n, k); the solution matches the input layout.
        """
        rhs = np.asarray(rhs, dtype=float)
        nodal = rhs.ndim == 2 and rhs.shape == (self.mesh.n, 2)
        flat = rhs.reshape(-1) if nodal else rhs
        w, _ = self._solve(flat)
        if nodal:
            w = w.reshape(self.mesh.n, 2)
        return w

    def solve_background(self, g: BoundaryField, tol: float = 1e-8) -> BackgroundField:
        """Solve the crack-free traction problem for equilibrated data g."""
        moments = g.rigid_moments()
        scale = max(1.0, g.sup_norm()) * self.mesh.perimeter
        if np.max(np.abs(moments)) > tol * scale:
            raise EquilibriumViolated(
                f"traction data has rigid-motion moments {moments}; "
                "the problem is unsolvable"
            )
        rhs = self.single_layer @ g.flat()
        w, _ = self._solve(rhs)
        residual = np.max(np.abs(self.operator @ w - rhs))
        if residual > 1e-6 * max(1.0, np.max(np.abs(rhs))):
            raise SolveFailed(f"background solve residual {residual:.3g}")
        return BackgroundField(self, BoundaryField.from_flat(self.mesh, w), g)

    # -- Green-function rows ----------------------------------------------

    def rigid_project(self, flat: np.ndarray) -> np.ndarray:
        """Remove the rigid-motion component of flat nodal data (2n,) or (2n, k)."""
        stacked = flat.reshape(flat.shape[0], -1)
        coeff = self._ortho_rigid.T @ (self._weights2[:, None] * stacked)
        return flat - (self._ortho_rigid @ coeff).reshape(flat.shape)

    def orthonormal_rigid_at(self, points) -> np.ndarray:
        """Orthonormal rigid basis fields evaluated off the boundary, (p, 2, 3)."""
        basis = rigid_motion_basis(np.atleast_2d(np.asarray(points, dtype=float)))
        return basis @ self._rigid_transform

    def _neumann_data(self, z: np.ndarray) -> np.ndarray:
        """Boundary traction of the regular part of N(., z), flat (2n, 2).

        Column k: conormal of the Kelvin column Phi(. - z) e_k plus the
        torque-compatible projector datum -sum_a chi_a(x) chi_a(z)^T e_k.
        """
        kelvin_traction = dlp_traction_kernel(
            z, self.mesh.points, self.mesh.normals, self.mat
        ).transpose(0, 2, 1)  # [i, j, k] = traction component j of column k
        chi_z = self.orthonormal_rigid_at(z)[0]  # (2, 3)
        datum = -np.einsum("ija,ka->ijk", self._ortho_rigid.reshape(self.mesh.n, 2, 3), chi_z)
        return (kelvin_traction + datum).reshape(2 * self.mesh.n, 2)

    def neumann_trace(self, z) -> np.ndarray:
        """Boundary trace of the Neumann function N(., z), shape (n, 2, 2).

        Entry [i, :, k] is the trace at node i of the field generated by a
        unit source e_k at z; the result is rigid-motion orthogonal.
        """
        self.require_clearance(z)
        z = np.asarray(z, dtype=float)
        rhs = self.single_layer @ self._neumann_data(z)
        regular, _ = self._solve(rhs)
        phi = kelvin_matrix(self.mesh.points - z, self.mat)
        trace = regular - phi.reshape(2 * self.mesh.n, 2)
        return self.rigid_project(trace).reshape(self.mesh.n, 2, 2)

    def neumann_interior(self, z, points) -> np.ndarray:
        """Neumann function N(x, z) at interior points x, shape (p, 2, 2).

        Representation: N(., z) = D[R] - S[g_N] - Phi(. - z) minus the rigid
        component read off the trace, where R is the regular-part trace and
        g_N its traction datum.
        """
        self.require_clearance(z)
        z = np.asarray(z, dtype=float)
        points = np.atleast_2d(np.asarray(points, dtype=float))
        data = self._neumann_data(z)
        rhs = self.single_layer @ data
        regular, _ = self._solve(rhs)

        out = np.empty((points.shape[0], 2, 2))
        for k in range(2):
            out[:, :, k] = double_layer_interior(
                self.mesh, self.mat, regular[:, k].reshape(self.mesh.n, 2), points
            ) - single_layer_interior(
                self.mesh, self.mat, data[:, k].reshape(self.mesh.n, 2), points
            )
        out -= kelvin_matrix(points[:, None, :] - z, self.mat)[:, 0, :, :]

        # subtract the rigid component so the trace is Psi-orthogonal
        phi = kelvin_matrix(self.mesh.points - z, self.mat)
        raw_trace = regular - phi.reshape(2 * self.mesh.n, 2)
        coeff = self._ortho_rigid.T @ (self._weights2[:, None] * raw_trace)  # (3, 2)
        out -= np.einsum("pia,ak->pik", self.orthonormal_rigid_at(points), coeff)
        return out

    def neumann_conormal_row(self, z, e_perp) -> np.ndarray:
        """Trace of x -> dN/dnu_y (x, z) for crack normal e_perp, (n, 2, 2).

        Column k solves the boundary equation with the double-layer traction
        kernel column as data; the result is rigid-motion orthogonal.
        """
        self.require_clearance(z)
        z = np.asarray(z, dtype=float)
        data = dlp_traction_kernel(self.mesh.points, z, np.asarray(e_perp, float), self.mat)
        rhs = data.reshape(2 * self.mesh.n, 2)
        w, _ = self._solve(rhs)
        return w.reshape(self.mesh.n, 2, 2)


def solve_background(mesh: BoundaryMesh, mat: LameParams, g: BoundaryField) -> BackgroundField:
    """Convenience wrapper: build a solver and solve the crack-free problem."""
    return BoundarySolver(mesh, mat).solve_background(g)
