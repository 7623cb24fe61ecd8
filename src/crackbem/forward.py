"""Boundary-integral forward solver: layer operators, background solve, and
the conormal rows of the domain Green function.

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
n x n temporary exists.  Only the double layer is stored, in the bordered
matrix below, which is column-major: LAPACK's layout, so getrf factors it
in its own buffer, with no copy and no transpose, and the matrix itself is
not kept.  Its panels are panels of source nodes, and each writes its four
component blocks straight into its contiguous columns.  The single layer
serves only as data for the solves (S g for traction data g), so it is
applied and never stored: its circulant part by FFT over the whole density,
and per panel its smooth log part (h/2) log(rho^2) and its rhat rhat^T part
r (r . density)/rho^2, accumulated into the panel's rows.  The LU factor of
the bordered matrix is thus the only n^2 array a solver ever holds; the
background residual check multiplies by the matrix through that factor.

Rank-3 completion
-----------------
The operator -I/2 + K annihilates rigid motions, so all solves go through
the bordered system

    [ -I/2 + K   C ] [w ]   [rhs]
    [   C^T W    0 ] [mu] = [ 0 ],

whose constraint rows enforce the rigid-motion orthogonality of w and whose
extra columns absorb the compatibility defect of the right-hand side (the
multipliers mu are returned by no solve; only the background residual
check reads them).  One LU factorization serves every right-hand side
(background solves, conormal rows, crack feedback updates), and
every solve goes through lu_solve, a thin wrapper that calls LAPACK getrs
on that factor and turns a nonzero info into scipy's ValueError.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lu_factor
from scipy.linalg.blas import dtrmv
from scipy.linalg.lapack import dgetrs, dlaswp

from .errors import EquilibriumViolated, SolveFailed
from .kernels import (
    LameParams,
    _complex,
    dlp_traction_gradient,
    dlp_traction_kernel,
    kelvin_gradient,
    kelvin_matrix,
    rigid_motion_basis,
)
from .mesh import BoundaryField, BoundaryMesh

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


def _row_panels(points: np.ndarray):
    """Yield, per panel of consecutive nodes lo..hi-1 of points (n, 2), the
    row slice lo:hi, the (rows, n) node-pair arrays r0, r1 of r_ij = x_i - x_j
    (exactly 0 at j = i) and rho^2 = |r|^2 with 1 at j = i, a placeholder:
    every diagonal entry built from it is overwritten with its limit; and the
    index of those diagonal entries in the panel (local row, global column).

    Given the negated points, entry [j, i] is (-x_j) - (-x_i), which is
    x_i - x_j bit for bit, signed zeros included: the panels of the
    transposed pair arrays."""
    n = len(points)
    x, y = points.T
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
    view, such as the top-left block of a bordered matrix) and returns it;
    without `out` the matrix is allocated column-major, LAPACK's layout.
    Either way the matrix is built by columns: panels of source nodes j fill
    rows 2j, 2j + 1 of out.T, which are contiguous in column-major storage."""
    n, h, speed = mesh.n, mesh.h, mesh.speed
    if out is None:
        out = np.empty((2 * n, 2 * n), order="F")
    transposed = out.T

    # Cauchy part  a [ (1/2) cot((t-s)/2) + gsm ] J: the conjugate circulant
    # pi H (multipliers -i sgn k) minus h cot is one column in the offset
    # k = i - j; a panel of source rows j reads it at -k, the column reversed
    k = np.fft.fftfreq(n, d=1.0 / n)
    column = np.pi * np.real(np.fft.ifft(-1j * np.sign(k)))
    column[1:] -= h * 0.5 / np.tan(0.5 * h * k[1:])
    circulant = _circulant(column[-np.arange(n)])

    # per-source factors, read per panel row, and the diagonal limits of the
    # smooth part, the skew part and rhat rhat^T (tau tau^T)
    weighted_normals = (h * speed)[:, None] * mesh.normals
    s_limit = h * np.einsum("ik,ik->i", mesh.normals, mesh.second_deriv) / (2.0 * speed)
    skew_limit = column[0] - h * np.einsum(
        "ik,ik->i", mesh.first_deriv, mesh.second_deriv
    ) / (2.0 * speed**2)
    tau = mesh.first_deriv / speed[:, None]

    # panels of source rows j over the pairs r_ij = x_i - x_j
    for rows, r0, r1, inv_rho2, diag in _row_panels(-mesh.points):
        np.reciprocal(inv_rho2, out=inv_rho2)
        scratch = np.empty_like(r0)
        block = transposed[2 * rows.start : 2 * rows.stop]

        # smooth symmetric part  h [a I + b rhat rhat^T] (n(s).r)/rho^2 |x'(s)|
        s = r0 * weighted_normals[rows, 0, None]
        s += np.multiply(r1, weighted_normals[rows, 1, None], out=scratch)
        s *= inv_rho2
        s[diag] = s_limit[rows]

        skew = r0 * mesh.first_deriv[rows, 0, None]
        skew += np.multiply(r1, mesh.first_deriv[rows, 1, None], out=scratch)
        skew *= inv_rho2
        skew *= h
        skew += circulant[rows]
        skew[diag] = skew_limit[rows]
        skew *= mat.a

        # the component blocks of K^T: s b rhat_0 rhat_1 -+ a skew off the
        # diagonal and s [a + b rhat_k rhat_k] on it; each is formed in
        # contiguous memory and written once into its stride
        off = np.multiply(r0, r1, out=scratch)
        off *= inv_rho2
        off[diag] = tau[rows, 0] * tau[rows, 1]
        off *= mat.b
        off *= s
        np.subtract(off, skew, out=block[0::2, 1::2])
        np.add(off, skew, out=block[1::2, 0::2])
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

    for rows, r0, r1, rho2, diag in _row_panels(mesh.points):
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
    with a nodal vector density (n, 2); the result is (p, 2, ...).

    The sum is two strided matvecs over the node axis of the kernel viewed as
    (2, 2, ..., p, n), which is a copy-free view of the component-major
    storage the kernels module returns."""
    weighted = mesh.weights[:, None] * density
    k = kernel.transpose(*range(2, kernel.ndim), 0, 1)  # (2, 2, ..., p, n)
    out = k[:, 0] @ weighted[:, 0] + k[:, 1] @ weighted[:, 1]
    return np.moveaxis(out, -1, 0)


def _points_per_panel(n: int) -> int:
    """Interior points per panel of the layer sums over n nodes: a quarter of
    _PANEL_ENTRIES point-node pairs, so a panel's kernel values (8 float64
    components per pair) and their complex harmonics stay in L2 cache."""
    return max(1, _PANEL_ENTRIES // (4 * n))


def _interior_points(points) -> np.ndarray:
    """Interior points as a float (p, 2) array: one point (2,) or a stack
    (p, 2), all finite; anything else raises ValueError."""
    x = np.asarray(points, dtype=float)
    if x.shape == (2,):
        x = x[None]
    if x.ndim != 2 or x.shape[1] != 2:
        raise ValueError(f"interior points must have shape (p, 2) or (2,), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("interior points must be finite")
    return x


def _offsets(points: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Offsets x_p - y_j of points (p, 2) and nodes (n, 2), shape (p, n, 2):
    one complex subtraction, bitwise equal to points[:, None] - nodes, with
    no ufunc loop over the length-2 component axis."""
    z = _complex(points)[:, None] - _complex(nodes)
    return z.view(float).reshape(z.shape + (2,))


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
    representation u(x) = D[u](x) - S[g](x).  Accuracy falls near the
    boundary: at two node spacings (BoundaryMesh.minimum_interior_distance)
    the stress is off by 1.4e-3 to 6.3e-3 of max|sigma|, at four by at most
    1.9e-8 (constant-stress load on the disk and a 1.3 x 0.7 ellipse,
    N = 128 and 256).  Points are evaluated in panels of _points_per_panel,
    so the kernel values of one panel stay in cache and none spans all the
    points at once.

    It also holds the crack ops' one-entry admission record: the last crack
    that passed the clearance rule on it and, once computed, the traction
    across that crack at its center (cracks._admit).
    """

    def __init__(self, solver: "BoundarySolver", trace: BoundaryField, g: BoundaryField):
        self.solver = solver
        self.mesh = solver.mesh
        self.mat = solver.mat
        self.trace = trace
        self.g = g
        self._admitted = None

    def displacement(self, points) -> np.ndarray:
        """Displacement at interior points (p, 2) or one point (2,), shape (p, 2)."""
        return self._represent(points, dlp_traction_kernel, kelvin_matrix, (2,))

    def gradient(self, points) -> np.ndarray:
        """Jacobian of the displacement, shape (p, 2, 2): [i, l] = du_i/dx_l."""
        return self._represent(points, dlp_traction_gradient, kelvin_gradient, (2, 2))

    def stress(self, points) -> np.ndarray:
        return _hooke(self.mat, self.gradient(points))

    def _represent(self, points, double_kernel, single_kernel, shape: tuple) -> np.ndarray:
        """D[u0] - S[g] at the checked points through a double-layer and a
        Kelvin kernel (the kernels or their gradients), (p, *shape): one
        panel of _points_per_panel points at a time, each written into the
        one result."""
        points = _interior_points(points)
        m = self.mesh
        out = np.empty((len(points),) + shape)
        rows = _points_per_panel(m.n)
        for lo in range(0, len(points), rows):
            x = points[lo : lo + rows]
            double = double_kernel(x[:, None], m.points, m.normals, self.mat)
            single = single_kernel(_offsets(x, m.points), self.mat)
            out[lo : lo + rows] = _layer_sum(m, double, self.trace.values)
            out[lo : lo + rows] -= _layer_sum(m, single, self.g.values)
        return out


class BoundarySolver:
    """Factorized boundary operators for one mesh and material.

    Assembles the double-layer Nystrom matrix in place as -I/2 + K inside
    the matrix bordered by the rigid-motion columns and constraint rows,
    factorizes it once in its own buffer, keeping only the factor, and
    exposes the solves needed by the background problem and the crack
    coupling; the single layer is applied to their data
    (apply_single_layer), not stored.  The factorization is immutable.
    """

    def __init__(self, mesh: BoundaryMesh, mat: LameParams):
        self.mesh = mesh
        self.mat = mat
        n2 = 2 * mesh.n

        basis = rigid_motion_basis(mesh.points)  # (n, 2, 3)
        # column-major, so getrf factors it in place, with no copy
        bordered = np.zeros((n2 + 3, n2 + 3), order="F")
        # -I/2 + K, assembled in place: a view into the bordered matrix
        operator = assemble_double_layer(mesh, mat, out=bordered[:n2, :n2])
        operator[np.diag_indices(n2)] -= 0.5
        bordered[:n2, n2:] = basis.reshape(n2, 3)  # C
        bordered[n2:, :n2] = (mesh.weights[:, None, None] * basis).reshape(n2, 3).T  # C^T W
        # the factor overwrites the bordered matrix: it is the one n^2 array
        self._neumann_lu = lu_factor(bordered, overwrite_a=True, check_finite=False)
        # getrf only adds, multiplies and divides by entries, so a non-finite
        # matrix leaves a non-finite factor: the factor is checked once, here,
        # with no temporary (min and max carry a NaN), and solve_neumann
        # checks only its right-hand sides
        lu = self._neumann_lu[0]
        if not (np.isfinite(lu.min()) and np.isfinite(lu.max())):
            raise ValueError("array must not contain infs or NaNs")

    def solve_neumann(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (-I/2 + K) w = rhs with rigid-motion orthogonality.

        rhs holds 2n rows per right-hand side: (n, 2) nodal values, a flat
        (2n,) vector, or a stack (2n, k) or (n, 2, k); the solution has the
        input's shape.  The border columns absorb the off-range part of rhs;
        their multipliers are not returned.  A non-finite rhs raises
        ValueError.
        """
        return self._solve_bordered(rhs)[: 2 * self.mesh.n].reshape(np.shape(rhs))

    def _solve_bordered(self, rhs) -> np.ndarray:
        """The bordered solution [w; mu], (2n + 3, k), of right-hand sides
        of 2n rows, refusing a non-finite rhs with ValueError."""
        rhs = np.asarray_chkfinite(rhs, dtype=float)
        n2 = 2 * self.mesh.n
        bordered = np.zeros((n2 + 3, rhs.size // n2))
        bordered[:n2] = rhs.reshape(n2, -1)
        return lu_solve(self._neumann_lu, bordered)

    def _bordered_product(self, x: np.ndarray) -> np.ndarray:
        """B x for the bordered matrix B = P L U, (2n + 3,), through its
        factor: U x, then the unit-lower L, then the row interchanges applied
        in reverse."""
        lu, piv = self._neumann_lu
        y = dtrmv(lu, x)
        y = dtrmv(lu, y, lower=1, diag=1, overwrite_x=1)
        return dlaswp(y[:, None], piv, inc=-1, overwrite_a=1)[:, 0]

    def solve_background(self, g: BoundaryField) -> BackgroundField:
        """Solve the crack-free traction problem for data g equilibrated to 1e-8.

        The bordered solution [w; mu] must satisfy its system to 1e-6 of
        max|rhs|, or SolveFailed is raised: a relative bound, which holds in
        any units.  The data's compatibility defect, which mu absorbs, is
        bounded by the equilibrium check instead."""
        if not g.is_equilibrated(1e-8):
            raise EquilibriumViolated(
                f"traction data has rigid-motion moments {g.rigid_moments()}; "
                "the problem is unsolvable"
            )
        rhs = apply_single_layer(self.mesh, self.mat, g.flat())
        x = self._solve_bordered(rhs)[:, 0]
        residual = np.max(np.abs(self._bordered_product(x) - np.pad(rhs, (0, 3))))
        # written so that a NaN residual fails too
        if not residual <= 1e-6 * np.max(np.abs(rhs)):
            raise SolveFailed(f"background solve residual {residual:.3g}")
        return BackgroundField(self, BoundaryField.from_flat(self.mesh, x[: 2 * self.mesh.n]), g)

    def neumann_conormal_row(self, z, e_perp, t) -> np.ndarray:
        """Trace of x -> dN/dnu_y (x, z) t, N the traction Green function of
        the domain, for crack normal e_perp and a traction vector t, (n, 2).

        One solve of the boundary equation with the double-layer traction
        kernel contracted with t as data (no rigid-motion datum: rigid
        fields are stress-free); the solve is linear, so this is the
        two-column row (one column per unit source) contracted with t.
        The result is rigid-motion orthogonal.
        """
        self.mesh.require_clearance(z)
        data = dlp_traction_kernel(self.mesh.points, z, e_perp, self.mat)
        return self.solve_neumann(data @ np.asarray(t, dtype=float))


def solve_background(mesh: BoundaryMesh, mat: LameParams, g: BoundaryField) -> BackgroundField:
    """Convenience wrapper: build a solver and solve the crack-free problem."""
    return BoundarySolver(mesh, mat).solve_background(g)
