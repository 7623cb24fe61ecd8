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

Storage
-------
Both layers are built in row panels of consecutive nodes, each holding
about _PANEL_ENTRIES node pairs, so the pair arrays r0, r1 and 1/rho^2 of
one panel stay in cache through every elementwise pass over them and no
n x n temporary exists.  Only the double layer is stored: each panel writes
its four component blocks straight into its rows of the bordered matrix
below.  The single layer serves only as data for the solves (S g for
traction data g), so it is applied and never stored: its circulant part by
FFT over the whole density, and per panel its smooth log part (h/2)
log(rho^2) and its rhat rhat^T part r (r . density)/rho^2, accumulated into
the panel's rows.  The bordered matrix and its LU factors are thus the only
n^2 arrays a solver ever holds.

Rank-3 completion
-----------------
The operator -I/2 + K annihilates rigid motions, so all solves go through
the bordered system

    [ -I/2 + K   C ] [w ]   [rhs]
    [   C^T W    0 ] [mu] = [ 0 ],

whose constraint rows enforce the rigid-motion orthogonality of w and whose
extra columns absorb the compatibility defect of the right-hand side (the
multipliers mu are discarded).  One
LU factorization serves every right-hand side (background solves, Green
function columns, crack feedback updates), and every solve goes through
lu_solve, which is LAPACK getrs on that factor with no wrapper between.

Green-function rows
-------------------
N(x, y) is the traction (Neumann) domain Green function: a point force at y
balanced by the boundary traction -psi(x) G^-1 psi(y)^T, with
rigid-orthogonal trace.  Here psi is the (2, 3) matrix of rigid-motion
generators and G = Int psi^T psi dsigma their Gram matrix, the same moments
C^T W C that the bordered constraint rows apply; the rigid part of nodal
data f is C G^-1 (C^T W f).  Only this projector datum is force- AND
torque-compatible for every source position, and it is what makes
N(x, y) = N(y, x)^T hold exactly.  The trace is computed by solving the
crack-free problem for the regular part R = N + Phi(. - z) and subtracting
the Kelvin trace; interior values follow from the representation formula
plus a rigid correction.

The trace of the crack-directional conormal x -> dN/dnu_y (x, z) solves the
boundary system with the double-layer traction kernel as data directly: the
projector datum drops out of that equation because rigid fields are
stress-free.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lu_factor
from scipy.linalg.lapack import dgetrs

from .errors import EquilibriumViolated, SolveFailed
from .kernels import (
    LameParams,
    dlp_traction_gradient,
    dlp_traction_kernel,
    kelvin_gradient,
    kelvin_matrix,
    rigid_motion_basis,
)
from .mesh import BoundaryField, BoundaryMesh, rigid_gram

__all__ = [
    "apply_single_layer",
    "assemble_double_layer",
    "BackgroundField",
    "BoundarySolver",
    "solve_background",
]


# entries per row panel of the layer operators: one (rows, n) float64
# temporary is about 128 KiB, so the double layer's six panel arrays and its
# output rows stay in a 2 MiB L2 cache through all their passes
_PANEL_ENTRIES = 2**14


def lu_solve(factor: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve with an (lu, piv) factor from lu_factor by LAPACK getrs.

    rhs is (N, k) float64 and may be overwritten: callers pass a right-hand
    side they have just built.  No finiteness or shape check is made.  A
    nonzero getrs info raises ValueError with scipy's lu_solve message.
    """
    lu, piv = factor
    solution, info = dgetrs(lu, piv, rhs, overwrite_b=True)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal gesv|posv")
    return solution


def _row_panels(mesh: BoundaryMesh):
    """Yield, per panel of consecutive nodes lo..hi-1, the row slice lo:hi,
    the (rows, n) node-pair arrays r0, r1 of r_ij = x_i - x_j (exactly 0 at
    j = i) and rho^2 = |r|^2 with 1 at j = i, a placeholder: every diagonal
    entry built from it is overwritten with its limit; and the index of those
    diagonal entries in the panel (local row, global column)."""
    n = mesh.n
    x, y = mesh.points.T
    rows = max(1, _PANEL_ENTRIES // n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        r0, r1 = np.subtract.outer(x[lo:hi], x), np.subtract.outer(y[lo:hi], y)
        rho2 = r0 * r0 + r1 * r1
        diag = (np.arange(hi - lo), np.arange(lo, hi))
        rho2[diag] = 1.0
        yield slice(lo, hi), r0, r1, rho2, diag


def _circulant(column: np.ndarray) -> np.ndarray:
    """Read-only view of the circulant matrix [i, j] = column[(i - j) mod n];
    each row is a forward window into the reversed column taken twice, so
    reading a row panel walks memory in order."""
    reversed_twice = np.concatenate((column[::-1], column[:0:-1]))
    return np.lib.stride_tricks.sliding_window_view(reversed_twice, len(column))[::-1]


def assemble_double_layer(
    mesh: BoundaryMesh, mat: LameParams, out: np.ndarray | None = None
) -> np.ndarray:
    """Dense 2n x 2n Nystrom matrix of the double-layer traction operator.

    Like a numpy ufunc, it writes into `out` when given (any (2n, 2n) float
    view, such as the top-left block of a bordered matrix) and returns it."""
    n, h, speed = mesh.n, mesh.h, mesh.speed
    if out is None:
        out = np.empty((2 * n, 2 * n))

    # Cauchy part  a [ (1/2) cot((t-s)/2) + gsm ] J: the conjugate circulant
    # pi H (multipliers -i sgn k) minus h cot is one column in the offset
    # k = i - j, taken signed so the column is exactly odd
    k = np.fft.fftfreq(n, d=1.0 / n)
    column = np.pi * np.real(np.fft.ifft(-1j * np.sign(k)))
    column[1:] -= h * 0.5 / np.tan(0.5 * h * k[1:])
    circulant = _circulant(column)

    # per-node factors, component-major so each panel reads them in order,
    # and the diagonal limits of the smooth part, the skew part and rhat
    # rhat^T (tau tau^T)
    weighted_normals = np.ascontiguousarray(((h * speed)[:, None] * mesh.normals).T)
    first_deriv = np.ascontiguousarray(mesh.first_deriv.T)
    s_limit = h * np.einsum("ik,ik->i", mesh.normals, mesh.second_deriv) / (2.0 * speed)
    skew_limit = column[0] - h * np.einsum(
        "ik,ik->i", mesh.first_deriv, mesh.second_deriv
    ) / (2.0 * speed**2)
    tau = mesh.first_deriv / speed[:, None]

    for rows, r0, r1, inv_rho2, diag in _row_panels(mesh):
        np.reciprocal(inv_rho2, out=inv_rho2)
        scratch = np.empty_like(r0)
        block = out[2 * rows.start : 2 * rows.stop]

        # smooth symmetric part  h [a I + b rhat rhat^T] (n(s).r)/rho^2 |x'(s)|
        s = r0 * weighted_normals[0]
        s += np.multiply(r1, weighted_normals[1], out=scratch)
        s *= inv_rho2
        s[diag] = s_limit[rows]

        skew = r0 * first_deriv[0]
        skew += np.multiply(r1, first_deriv[1], out=scratch)
        skew *= inv_rho2
        skew *= h
        skew += circulant[rows]
        skew[diag] = skew_limit[rows]
        skew *= mat.a

        # the component blocks: s b rhat_0 rhat_1 +- a skew off the diagonal
        # and s [a + b rhat_k rhat_k] on it; each is formed in contiguous
        # memory and written once into its stride
        off = np.multiply(r0, r1, out=scratch)
        off *= inv_rho2
        off[diag] = tau[rows, 0] * tau[rows, 1]
        off *= mat.b
        off *= s
        np.add(off, skew, out=block[0::2, 1::2])
        np.subtract(off, skew, out=block[1::2, 0::2])
        for component, r in enumerate((r0, r1)):
            r *= r
            r *= inv_rho2
            r[diag] = tau[rows, component] ** 2
            r *= mat.b
            r += mat.a
            np.multiply(r, s, out=block[component::2, component::2])
    return out


def apply_single_layer(mesh: BoundaryMesh, mat: LameParams, density) -> np.ndarray:
    """The single-layer (Kelvin) Nystrom matrix applied to a density of 2n
    rows, (2n,) or (2n, k), without forming the 2n x 2n matrix; the result
    has the density's shape."""
    n, h, speed = mesh.n, mesh.h, mesh.speed
    density = np.asarray(density, dtype=float)
    phi = speed[:, None, None] * density.reshape(n, 2, -1)  # (n, 2, k)
    flat = phi.reshape(n, -1)

    # log|x - y| = log|2 sin((t-s)/2)| + (1/2) log(rho^2 / 4 sin^2): the log
    # circulant (multipliers -pi/|k|, 0 for the mean) minus h/2 log(4 sin^2)
    # is one column in the signed offset k = i - j, applied by FFT; the
    # smooth rest is (h/2) log(rho^2) with the diagonal h log|x'|
    k = np.fft.fftfreq(n, d=1.0 / n)
    mult = np.zeros(n)
    mult[1:] = -np.pi / np.abs(k[1:])
    column = np.real(np.fft.ifft(mult))
    column[1:] -= 0.5 * h * np.log(4.0 * np.sin(0.5 * h * k[1:]) ** 2)
    log_part = np.fft.irfft(
        np.fft.rfft(column)[:, None] * np.fft.rfft(flat, axis=0), n, axis=0
    )
    smooth_limit = h * np.log(speed)

    # rhat rhat^T term  r (r . phi)/rho^2, with the diagonal limit tau tau^T
    tau = mesh.first_deriv / speed[:, None]
    rr = tau[:, :, None] * np.einsum("ik,ikc->ic", tau, phi)[:, None, :]

    for rows, r0, r1, rho2, diag in _row_panels(mesh):
        q = np.empty_like(rho2)
        for c in range(phi.shape[2]):
            np.multiply(r0, phi[:, 0, c], out=q)
            q += r1 * phi[:, 1, c]
            q /= rho2
            rr[rows, 0, c] += np.einsum("ij,ij->i", r0, q)
            rr[rows, 1, c] += np.einsum("ij,ij->i", r1, q)
        smooth = np.log(rho2, out=rho2)
        smooth *= 0.5 * h
        smooth[diag] = smooth_limit[rows]
        log_part[rows] += smooth @ flat

    out = mat.lam_prime * log_part.reshape(phi.shape) - (mat.mu_prime * h) * rr
    return out.reshape(density.shape)


def _layer_sum(mesh: BoundaryMesh, kernel: np.ndarray, density: np.ndarray) -> np.ndarray:
    """Trapezoidal layer sum at interior points: kernel values (p, n, 2, 2, ...)
    between the points and the nodes, contracted over (node, density component)
    with a nodal density (n, 2, ...); one of the two `...` is empty, and the
    result is (p, 2, ...).

    The sum is two strided matmuls over the node axis of the kernel viewed as
    (2, 2, ..., p, n), which is a copy-free view of the component-major
    storage the kernels module returns."""
    weighted = mesh.weights.reshape((-1,) + (1,) * (density.ndim - 1)) * density
    k = kernel.transpose(*range(2, kernel.ndim), 0, 1)  # (2, 2, ..., p, n)
    out = k[:, 0] @ weighted[:, 0] + k[:, 1] @ weighted[:, 1]
    return np.moveaxis(out, kernel.ndim - 3, 0)


def _hooke(mat: LameParams, grad: np.ndarray) -> np.ndarray:
    """Stress lam tr(grad) I + mu (grad + grad^T) of displacement Jacobians
    (..., 2, 2)."""
    tr = np.trace(grad, axis1=-2, axis2=-1)
    sym = grad + np.swapaxes(grad, -2, -1)
    return mat.lam * tr[..., None, None] * np.eye(2) + mat.mu * sym


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
        x = np.atleast_2d(np.asarray(points, dtype=float))[:, None, :]
        m = self.mesh
        double = dlp_traction_kernel(x, m.points, m.normals, self.mat)
        single = kelvin_matrix(x - m.points, self.mat)
        return _layer_sum(m, double, self.trace.values) - _layer_sum(m, single, self.g.values)

    def gradient(self, points) -> np.ndarray:
        """Jacobian of the displacement, shape (p, 2, 2): [i, l] = du_i/dx_l."""
        x = np.atleast_2d(np.asarray(points, dtype=float))[:, None, :]
        m = self.mesh
        double = dlp_traction_gradient(x, m.points, m.normals, self.mat)
        single = kelvin_gradient(x - m.points, self.mat)
        return _layer_sum(m, double, self.trace.values) - _layer_sum(m, single, self.g.values)

    def stress(self, points) -> np.ndarray:
        return _hooke(self.mat, self.gradient(points))


class BoundarySolver:
    """Factorized boundary operators for one mesh and material.

    Assembles the double-layer Nystrom matrix in place as -I/2 + K inside
    the matrix bordered by the rigid-motion columns and constraint rows,
    factorizes it once, and exposes the solves needed by the background
    problem, the crack coupling, and the Green-function evaluators; the
    single layer is applied to their data (apply_single_layer), not stored.
    The factorization is immutable.
    """

    def __init__(self, mesh: BoundaryMesh, mat: LameParams):
        self.mesh = mesh
        self.mat = mat
        n2 = 2 * mesh.n

        basis = rigid_motion_basis(mesh.points)  # (n, 2, 3)
        self._columns = basis.reshape(n2, 3)  # C
        self._rows = (mesh.weights[:, None, None] * basis).reshape(n2, 3).T  # C^T W
        bordered = np.zeros((n2 + 3, n2 + 3))
        # -I/2 + K, assembled in place: a view into the bordered matrix
        self.operator = assemble_double_layer(mesh, mat, out=bordered[:n2, :n2])
        self.operator[np.diag_indices(n2)] -= 0.5
        bordered[:n2, n2:] = self._columns
        bordered[n2:, :n2] = self._rows
        self._neumann_lu = lu_factor(bordered)
        # the factor is immutable, so it is checked for non-finite values
        # once, here, and solve_neumann checks only its right-hand sides
        np.asarray_chkfinite(self._neumann_lu[0])
        # the rigid part of nodal data f is C G^-1 (C^T W f)
        self._gram = rigid_gram(mesh)

    # -- core solves ------------------------------------------------------

    def solve_neumann(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (-I/2 + K) w = rhs with rigid-motion orthogonality.

        rhs holds 2n rows per right-hand side: (n, 2) nodal values, a flat
        (2n,) vector, or a stack (2n, k) or (n, 2, k); the solution has the
        input's shape.  The border columns absorb the off-range part of rhs;
        their multipliers are not returned.  A non-finite rhs raises
        ValueError.
        """
        rhs = np.asarray_chkfinite(rhs, dtype=float)
        n2 = 2 * self.mesh.n
        bordered = np.zeros((n2 + 3, rhs.size // n2))
        bordered[:n2] = rhs.reshape(n2, -1)
        return lu_solve(self._neumann_lu, bordered)[:n2].reshape(rhs.shape)

    def solve_background(self, g: BoundaryField) -> BackgroundField:
        """Solve the crack-free traction problem for data g equilibrated to 1e-8."""
        if not g.is_equilibrated(1e-8):
            raise EquilibriumViolated(
                f"traction data has rigid-motion moments {g.rigid_moments()}; "
                "the problem is unsolvable"
            )
        rhs = apply_single_layer(self.mesh, self.mat, g.flat())
        w = self.solve_neumann(rhs)
        residual = np.max(np.abs(self.operator @ w - rhs))
        # written so that a NaN residual fails too
        if not residual <= 1e-6 * max(1.0, np.max(np.abs(rhs))):
            raise SolveFailed(f"background solve residual {residual:.3g}")
        return BackgroundField(self, BoundaryField.from_flat(self.mesh, w), g)

    # -- Green-function rows ----------------------------------------------

    def _regular_part(self, z):
        """Solve for the regular part R = N(., z) + Phi(. - z).

        Returns the traction datum of R, the trace of R, and the trace
        R - Phi(. - z) of N(., z) before its rigid part is removed, each flat
        (2n, 2).  Column k of the datum is the conormal of the Kelvin column
        Phi(. - z) e_k plus the projector datum -psi(x) G^-1 psi(z)^T e_k.
        """
        self.mesh.require_clearance(z)
        m, n2 = self.mesh, 2 * self.mesh.n
        kelvin_traction = dlp_traction_kernel(z, m.points, m.normals, self.mat)
        datum = -self._columns @ np.linalg.solve(self._gram, rigid_motion_basis(z).T)
        # [i, j, k] = traction component j of column k
        data = kelvin_traction.transpose(0, 2, 1).reshape(n2, 2) + datum
        regular = self.solve_neumann(apply_single_layer(m, self.mat, data))
        raw_trace = regular - kelvin_matrix(m.points - z, self.mat).reshape(n2, 2)
        return data, regular, raw_trace

    def neumann_trace(self, z) -> np.ndarray:
        """Boundary trace of the Neumann function N(., z), shape (n, 2, 2).

        Entry [i, :, k] is the trace at node i of the field generated by a
        unit source e_k at z; the result is rigid-motion orthogonal.
        """
        trace = self._regular_part(z)[2]
        trace = trace - self._columns @ np.linalg.solve(self._gram, self._rows @ trace)
        return trace.reshape(self.mesh.n, 2, 2)

    def neumann_interior(self, z, points) -> np.ndarray:
        """Neumann function N(x, z) at interior points x, shape (p, 2, 2).

        Representation: N(., z) = D[R] - S[g_N] - Phi(. - z) minus the rigid
        component read off the trace, where R is the regular-part trace and
        g_N its traction datum.
        """
        data, regular, trace = self._regular_part(z)
        m = self.mesh
        points = np.atleast_2d(np.asarray(points, dtype=float))
        x = points[:, None, :]
        double = dlp_traction_kernel(x, m.points, m.normals, self.mat)
        single = kelvin_matrix(x - m.points, self.mat)
        out = _layer_sum(m, double, regular.reshape(m.n, 2, 2))
        out -= _layer_sum(m, single, data.reshape(m.n, 2, 2))
        out -= kelvin_matrix(points - z, self.mat)
        # subtract the rigid component so the trace is Psi-orthogonal
        return out - rigid_motion_basis(points) @ np.linalg.solve(self._gram, self._rows @ trace)

    def neumann_conormal_row(self, z, e_perp, t) -> np.ndarray:
        """Trace of x -> dN/dnu_y (x, z) t for crack normal e_perp and a
        traction vector t, (n, 2).

        One solve of the boundary equation with the double-layer traction
        kernel contracted with t as data; the solve is linear, so this is
        the two-column row (one column per unit source) contracted with t.
        The result is rigid-motion orthogonal.
        """
        self.mesh.require_clearance(z)
        data = dlp_traction_kernel(self.mesh.points, z, e_perp, self.mat)
        return self.solve_neumann(data @ np.asarray(t, dtype=float))


def solve_background(mesh: BoundaryMesh, mat: LameParams, g: BoundaryField) -> BackgroundField:
    """Convenience wrapper: build a solver and solve the crack-free problem."""
    return BoundarySolver(mesh, mat).solve_background(g)
