"""Slow, independent references the package is checked against.

Five kinds live here, none of which the solver pipeline calls:

- finite differences: central differences with one Richardson step for first
  derivatives and second-order stencils for the Navier operator; tolerances
  in the tests account for their O(h^4) / O(h^2) truncation;
- closed forms: the conormal derivative of a displacement gradient, the
  canonical straight-crack hypersingular kernel, and the spectral action
  of the finite-part operator and the polynomial part of a weighted
  Chebyshev expansion;
- quadratures: einsum forms of the pairwise kernels (the hypersingular
  kernel among them) and of the interior layer sums, identity-FFT forms of
  the boundary assembly, the brute-force Hadamard finite part, the crack
  trace recomputed through Neumann-function rows, the two-column Neumann
  conormal row, and the Neumann function's boundary trace and interior
  values;
- the crack solve as a plain Picard loop: background stress at the nodes,
  then the finite-part inversion and its polynomial part in every sweep;
- geometry: the all-edges crossing-number and the winding-number forms of
  the signed node distance, and a curve moved through the samples protocol.
"""

import numpy as np

from crackbem import (
    BoundaryField,
    CrackedSolution,
    LameParams,
    apply_single_layer,
    chebyshev_u_values,
    dlp_traction_kernel,
    gauss_chebyshev_u,
    invert_finite_part_operator,
    kelvin_matrix,
    rigid_gram,
    rigid_motion_basis,
)
from crackbem.errors import SolveFailed


def fd_jacobian(fn, x, h=None):
    """Jacobian of fn: R^2 -> array, shape fn(x).shape + (2,).

    Richardson-extrapolated central differences, O(h^4) truncation.
    """
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-4 * (1.0 + float(np.max(np.abs(x))))
    cols = []
    for l in range(2):
        e = np.zeros(2)
        e[l] = 1.0

        def d(step):
            return (np.asarray(fn(x + step * e)) - np.asarray(fn(x - step * e))) / (
                2.0 * step
            )

        cols.append((4.0 * d(0.5 * h) - d(h)) / 3.0)
    return np.stack(cols, axis=-1)


def fd_conormal(fn, x, normal, mat: LameParams):
    """Traction sigma(fn) normal at x from a finite-difference gradient."""
    grad = fd_jacobian(fn, x)  # (2, 2), grad[i, l] = d fn_i / d x_l
    tr = grad[0, 0] + grad[1, 1]
    sigma = mat.lam * tr * np.eye(2) + mat.mu * (grad + grad.T)
    return sigma @ np.asarray(normal, dtype=float)


def fd_navier_residual(fn, x, mat: LameParams, h=1e-4):
    """Residual mu Lap u + (lam + mu) grad div u of a vector field at x."""
    x = np.asarray(x, dtype=float)
    e1, e2 = np.eye(2) * h
    u0 = np.asarray(fn(x))
    lap = (
        np.asarray(fn(x + e1))
        + np.asarray(fn(x - e1))
        + np.asarray(fn(x + e2))
        + np.asarray(fn(x - e2))
        - 4.0 * u0
    ) / h**2

    # second partials of the divergence: d_k d_l u_l via nested stencils
    def div_grad(k):
        ek = np.eye(2)[k] * h
        gp = fd_jacobian(fn, x + ek, h=h)
        gm = fd_jacobian(fn, x - ek, h=h)
        return ((gp[0, 0] + gp[1, 1]) - (gm[0, 0] + gm[1, 1])) / (2.0 * h)

    grad_div = np.array([div_grad(0), div_grad(1)])
    return mat.mu * lap + (mat.lam + mat.mu) * grad_div


def conormal_derivative(grad_u, normal, mat: LameParams):
    """Traction lam tr(grad_u) n + mu (grad_u + grad_u^T) n, shape (..., 2).

    Vanishes when grad_u is antisymmetric (rigid rotations are stress free).
    """
    grad_u = np.asarray(grad_u, dtype=float)
    normal = np.asarray(normal, dtype=float)
    tr = np.trace(grad_u, axis1=-2, axis2=-1)
    sym = grad_u + np.swapaxes(grad_u, -2, -1)
    return mat.lam * tr[..., None] * normal + mat.mu * np.einsum(
        "...ij,...j->...i", sym, normal
    )


def linear_field(grad):
    """Displacement x -> grad @ x with the given constant gradient."""
    grad = np.asarray(grad, dtype=float)

    def fn(points):
        return np.asarray(points, dtype=float) @ grad.T

    return fn


# -- einsum references for the explicit-component kernels in crackbem.kernels --
#
# Generic tensor forms of the five pairwise kernels, written with identity
# tensors and einsum exactly as the formulas in the kernels module read.  The
# package evaluates the same formulas component by component; these slower
# versions are the independent references the kernel tests compare against.

_EYE2 = np.eye(2)


def _separation(dx):
    dx = np.asarray(dx, dtype=float)
    rho2 = np.einsum("...i,...i->...", dx, dx)
    if np.any(rho2 == 0.0):
        raise ValueError("kernel evaluated at zero separation")
    return dx, rho2


def kelvin_matrix_ref(dx, mat: LameParams):
    """Phi_ij = lam' delta_ij log|dx| - mu' dx_i dx_j / |dx|^2, (..., 2, 2)."""
    dx, rho2 = _separation(dx)
    logr = 0.5 * np.log(rho2)
    outer = np.einsum("...i,...j->...ij", dx, dx) / rho2[..., None, None]
    return mat.lam_prime * logr[..., None, None] * _EYE2 - mat.mu_prime * outer


def kelvin_gradient_ref(dx, mat: LameParams):
    """[i, j, l] = d Phi_ij / d dx_l, (..., 2, 2, 2)."""
    dx, rho2 = _separation(dx)
    inv = 1.0 / rho2
    d_over = dx * inv[..., None]
    term1 = np.einsum("ij,...l->...ijl", _EYE2, d_over)
    term2 = np.einsum("li,...j->...ijl", _EYE2, d_over) + np.einsum(
        "lj,...i->...ijl", _EYE2, d_over
    )
    term3 = 2.0 * np.einsum("...i,...j,...l->...ijl", d_over, d_over, dx)
    return mat.lam_prime * term1 - mat.mu_prime * (term2 - term3)


def dlp_traction_kernel_ref(x, y, normal_y, mat: LameParams):
    """K_kj = [a delta_kj + b r_k r_j/rho^2] (n.r)/rho^2
    - a [r_k n_j - n_k r_j]/rho^2, (..., 2, 2)."""
    n = np.asarray(normal_y, dtype=float)
    r, rho2 = _separation(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    s = np.einsum("...i,...i->...", n, r) / rho2
    rr = np.einsum("...i,...j->...ij", r, r) / rho2[..., None, None]
    sym = (mat.a * _EYE2 + mat.b * rr) * s[..., None, None]
    skew = (
        np.einsum("...i,...j->...ij", r, n) - np.einsum("...i,...j->...ij", n, r)
    ) / rho2[..., None, None]
    return sym - mat.a * skew


def dlp_traction_gradient_ref(x, y, normal_y, mat: LameParams):
    """[k, j, l] = d K_kj / d x_l, (..., 2, 2, 2)."""
    n = np.asarray(normal_y, dtype=float)
    r, rho2 = _separation(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    inv = 1.0 / rho2
    ndotr = np.einsum("...i,...i->...", n, r)
    s = ndotr * inv
    r_scaled = r * inv[..., None]
    ds = n * inv[..., None] - 2.0 * ndotr[..., None] * r * (inv**2)[..., None]
    rr = np.einsum("...k,...j->...kj", r, r) * inv[..., None, None]
    drr = (
        np.einsum("lk,...j->...kjl", _EYE2, r_scaled)
        + np.einsum("lj,...k->...kjl", _EYE2, r_scaled)
        - 2.0 * np.einsum("...kj,...l->...kjl", rr, r_scaled)
    )
    skew = (
        np.einsum("...k,...j->...kj", r, n) - np.einsum("...k,...j->...kj", n, r)
    ) * inv[..., None, None]
    dskew = (
        np.einsum("lk,...j->...kjl", _EYE2, n * inv[..., None])
        - np.einsum("lj,...k->...kjl", _EYE2, n * inv[..., None])
        - 2.0 * np.einsum("...kj,...l->...kjl", skew, r_scaled)
    )
    sym_part = (
        mat.a * np.einsum("kj,...l->...kjl", _EYE2, ds)
        + mat.b * drr * s[..., None, None, None]
        + mat.b * np.einsum("...kj,...l->...kjl", rr, ds)
    )
    return sym_part - mat.a * dskew


def double_conormal_kernel_ref(x, y, normal_x, normal_y, mat: LameParams):
    """Column j: traction with normal_x of x -> K(x, y; normal_y) e_j."""
    m = np.asarray(normal_x, dtype=float)
    grad = dlp_traction_gradient_ref(x, y, normal_y, mat)
    div = np.einsum("...kjk->...j", grad)
    sym = grad + np.einsum("...kjl->...ljk", grad)
    return mat.lam * np.einsum("...i,...j->...ij", m, div) + mat.mu * np.einsum(
        "...l,...ijl->...ij", m, sym
    )


# -- identity-FFT / einsum references for the boundary assembly in crackbem.forward --
#
# The Nystrom matrices built the generic way: the conjugate and log circulants
# as Fourier multipliers applied to every column of the identity, the cot and
# sin^2 factors evaluated on the full (t_i - t_j) matrix, and the smooth parts
# as (n, n, 2, 2) block tensors.  The package builds the same matrices from
# one length-n column per circulant part and explicit components; these are
# the independent references the assembly tests compare against.

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _circulant_ref(n, multipliers):
    """Matrix applying a Fourier multiplier operator on the equispaced grid."""
    spectrum = np.fft.fft(np.eye(n), axis=0)
    return np.real(np.fft.ifft(multipliers[:, None] * spectrum, axis=0))


def conjugate_circulant_ref(n):
    """Nodal matrix H of the conjugate operator: e^{ikt} -> -i sgn(k) e^{ikt}."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    return _circulant_ref(n, -1j * np.sign(k))


def log_circulant_ref(n):
    """Nodal matrix of phi -> Int log|2 sin((t-s)/2)| phi(s) ds."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    mult = np.zeros(n)
    mult[1:] = -np.pi / np.abs(k[1:])
    return _circulant_ref(n, mult.astype(complex))


def _pairwise_ref(mesh):
    pts = mesh.points
    r = pts[:, None, :] - pts[None, :, :]
    rho2 = np.einsum("ijk,ijk->ij", r, r)
    np.fill_diagonal(rho2, 1.0)  # dummy, diagonals are overwritten with limits
    return r, rho2


def _blocks_to_matrix_ref(blocks):
    p, n = blocks.shape[:2]
    return blocks.transpose(0, 2, 1, 3).reshape(2 * p, 2 * n)


def assemble_double_layer_ref(mesh, mat: LameParams):
    """Dense 2n x 2n Nystrom matrix of the double-layer traction operator."""
    n = mesh.n
    t = mesh.params
    r, rho2 = _pairwise_ref(mesh)
    tau = mesh.first_deriv / mesh.speed[:, None]

    # smooth symmetric part  [a I + b rhat rhat^T] (n(s).r)/rho^2 |x'(s)|
    ndotr = np.einsum("jk,ijk->ij", mesh.normals, r) / rho2
    rhat = r / np.sqrt(rho2)[..., None]
    rr = np.einsum("ijk,ijl->ijkl", rhat, rhat)
    rr[np.arange(n), np.arange(n)] = np.einsum("ik,il->ikl", tau, tau)
    ncurv = np.einsum("ik,ik->i", mesh.normals, mesh.second_deriv)
    np.fill_diagonal(ndotr, ncurv / (2.0 * mesh.speed**2))
    sym = (mat.a * _EYE2 + mat.b * rr) * (ndotr * mesh.speed[None, :])[..., None, None]

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
    skew_weights = mesh.h * gsm + np.pi * conjugate_circulant_ref(n)

    blocks = mesh.h * sym + mat.a * skew_weights[..., None, None] * _J
    return _blocks_to_matrix_ref(blocks)


def assemble_single_layer_ref(mesh, mat: LameParams):
    """Dense 2n x 2n Nystrom matrix of the single-layer (Kelvin) operator."""
    n = mesh.n
    t = mesh.params
    r, rho2 = _pairwise_ref(mesh)
    tau = mesh.first_deriv / mesh.speed[:, None]

    dt = t[:, None] - t[None, :]
    np.fill_diagonal(dt, 1.0)
    sin2 = 4.0 * np.sin(0.5 * dt) ** 2
    np.fill_diagonal(sin2, 1.0)
    logfac = 0.5 * np.log(rho2 / sin2)
    np.fill_diagonal(logfac, np.log(mesh.speed))

    log_part = log_circulant_ref(n) + mesh.h * logfac

    rhat = r / np.sqrt(rho2)[..., None]
    rr = np.einsum("ijk,ijl->ijkl", rhat, rhat)
    rr[np.arange(n), np.arange(n)] = np.einsum("ik,il->ikl", tau, tau)

    blocks = (
        mat.lam_prime * log_part[..., None, None] * _EYE2 - mat.mu_prime * mesh.h * rr
    ) * mesh.speed[None, :, None, None]
    return _blocks_to_matrix_ref(blocks)


def layer_sum_ref(mesh, kernel, density):
    """Trapezoidal layer sum by einsum: kernel (p, n, 2, 2, ...) against the
    weighted nodal density (n, 2, ...), contracted over node and component."""
    k_rest = "l" * (np.ndim(kernel) - 4)  # the gradient index of a rank-3 kernel
    d_rest = "c" * (np.ndim(density) - 2)  # the column index of a matrix density
    spec = f"j,pjki{k_rest},ji{d_rest}->pk{k_rest}{d_rest}"
    return np.einsum(spec, mesh.weights, kernel, density)


class Shifted:
    """A curve moved by a constant offset, through its samples(t) alone."""

    def __init__(self, curve, offset):
        self.curve, self.offset = curve, np.asarray(offset, dtype=float)

    def samples(self, t):
        x, d1, d2 = self.curve.samples(t)
        return x + self.offset, d1, d2


def distance_to_ref(mesh, points):
    """BoundaryMesh.distance_to with the crossing test run on every edge:
    the minimum node distance, negated where a ray from the point in the +x
    direction crosses an even number of edges of the node polygon."""
    q = np.asarray(points, dtype=float)[..., None, :]
    d = mesh.points - q  # offsets to each node and to the next one
    e = np.concatenate([mesh.points[1:], mesh.points[:1]]) - q
    d0, d1, e0, e1 = d[..., 0], d[..., 1], e[..., 0], e[..., 1]
    distance = np.sqrt(np.min(d0 * d0 + d1 * d1, axis=-1))
    with np.errstate(invalid="ignore"):
        right = (d0 * e1 - d1 * e0 > 0.0) == (e1 > d1)
    crossings = np.count_nonzero(((d1 > 0.0) != (e1 > 0.0)) & right, axis=-1)
    signed = np.where(crossings % 2 == 1, distance, -distance)
    return float(signed) if signed.ndim == 0 else signed


def distance_to_rolled_ref(mesh, points):
    """BoundaryMesh.distance_to with each node paired to the next one by
    np.roll, a rolled copy of the (points, n) side-of-line mask, instead of
    by slices."""
    flat = np.asarray(points, dtype=float).reshape(-1, 2)
    d0 = mesh.points[:, 0] - flat[:, :1]
    d1 = mesh.points[:, 1] - flat[:, 1:]
    distance = np.sqrt(np.min(d0 * d0 + d1 * d1, axis=-1))
    above = d1 > 0.0
    row, j = np.nonzero(above != np.roll(above, -1, axis=-1))
    k = (j + 1) % mesh.n
    with np.errstate(invalid="ignore"):
        right = (d0[row, j] * d1[row, k] - d1[row, j] * d0[row, k] > 0.0) == (
            d1[row, k] > d1[row, j]
        )
    crossings = np.bincount(row[right], minlength=len(flat))
    return np.where(crossings % 2 == 1, distance, -distance)


def distance_to_winding_ref(mesh, points):
    """Signed node distance by the winding number of the node polygon: the
    minimum node distance, negated where the polygon does not wind once
    around the point (arctan2 turns summed over the nodes)."""
    d = mesh.points - np.asarray(points, dtype=float)[..., None, :]
    distance = np.min(np.linalg.norm(d, axis=-1), axis=-1)
    angles = np.arctan2(d[..., 1], d[..., 0])
    turns = np.diff(angles, axis=-1, append=angles[..., :1])
    turns = (turns + np.pi) % (2 * np.pi) - np.pi
    return np.where(np.abs(turns.sum(axis=-1)) > np.pi, distance, -distance)


def trace_from_neumann_representation(solution, n_quad: int = 48) -> np.ndarray:
    """Perturbation trace of a CrackedSolution recomputed through
    Neumann-function rows.

    Integrates the conormal rows x -> dN/dnu_y(x, y(eta)) against the
    opening with an independent quadrature order; agreement with the
    coupled solve validates both Green-function paths.
    """
    solver, crack = solution.background.solver, solution.crack
    eta, weights = gauss_chebyshev_u(n_quad)
    poly = polynomial_part_ref(solution.psi, eta)  # (q, 2)
    scale = crack.half_length**2
    out = np.zeros((solver.mesh.n, 2))
    for q in range(n_quad):
        row = neumann_conormal_row_ref(solver, crack.points(eta[q]), crack.normal)
        out += scale * weights[q] * (row @ poly[q])
    return out


def neumann_conormal_row_ref(solver, z, e_perp):
    """Trace of x -> dN/dnu_y (x, z) for crack normal e_perp as two columns,
    (n, 2, 2): column k solves the boundary equation with column k of the
    double-layer traction kernel as data, one nodal solve per column."""
    solver.mesh.require_clearance(z)
    kernel = dlp_traction_kernel(solver.mesh.points, z, e_perp, solver.mat)
    return np.stack([solver.solve_neumann(kernel[..., k]) for k in range(2)], axis=-1)


def solve_cracked_ref(background, crack, n_modes=32, tol=1e-11, max_iterations=50):
    """solve_cracked as a plain Picard loop on w, for valid arguments: the
    background traction from the stress at the crack nodes, and in every
    sweep the finite-part inversion, its polynomial part at the nodes, the
    transfer and one Neumann solve."""
    solver = background.solver
    mesh = solver.mesh
    mat = solver.mat
    eta, gc_weights = gauss_chebyshev_u(n_modes)
    nodes = crack.points(eta)
    f0 = background.stress(nodes) @ crack.normal  # (m, 2)
    feedback = _blocks_to_matrix_ref(
        double_conormal_kernel_ref(
            nodes[:, None, :], mesh.points[None, :, :], crack.normal, mesh.normals[None], mat
        )
    ) * np.repeat(mesh.weights, 2)
    transfer = _blocks_to_matrix_ref(
        dlp_traction_kernel(mesh.points[:, None, :], nodes[None, :, :], crack.normal, mat)
    ) * np.repeat(crack.half_length**2 * gc_weights, 2)

    w = np.zeros((mesh.n, 2))
    history = []
    for iteration in range(1, max_iterations + 1):
        f = f0 + (feedback @ w.reshape(-1)).reshape(-1, 2)
        psi = invert_finite_part_operator(-(4.0 / mat.E) * f, n_modes)
        poly = polynomial_part_ref(psi, eta)  # (m, 2)
        rhs = (transfer @ poly.reshape(-1)).reshape(-1, 2)
        w_new = solver.solve_neumann(rhs)
        update = float(np.max(np.abs(w_new - w)))
        history.append(update)
        w = w_new
        if update <= tol * background.trace.sup_norm():
            diagnostics = {
                "iterations": iteration,
                "last_update": update,
                "tolerance": tol,
                "update_history": history,
            }
            return CrackedSolution(
                background, crack, psi, BoundaryField(mesh, w), diagnostics
            )
    raise SolveFailed(f"reference crack loop did not contract to {tol:g}")


# -- the traction Green function N(x, z) --
#
# N(x, z) is the field of a point force at z balanced by the boundary
# traction -psi(x) G^-1 psi(z)^T, with a rigid-motion orthogonal trace.
# Here psi is the (2, 3) matrix of rigid-motion generators and G =
# Int psi^T psi dsigma their Gram matrix (rigid_gram), the moments C^T W C
# of the solver's constraint rows; the rigid part of nodal data f is
# C G^-1 (C^T W f).  Only this projector datum is force- and
# torque-compatible for every source position, and it is what makes
# N(x, z) = N(z, x)^T hold exactly.  The trace solves the crack-free problem
# for the regular part R = N + Phi(. - z) and subtracts the Kelvin trace;
# interior values follow from the representation formula plus a rigid
# correction.


def _rigid_part_ref(mesh, points, data):
    """psi(points) G^-1 (C^T W data): the rigid motion whose moments are
    those of flat nodal data (2n, k), evaluated at points (..., 2)."""
    basis = rigid_motion_basis(mesh.points)
    rows = (mesh.weights[:, None, None] * basis).reshape(-1, 3).T  # C^T W
    return rigid_motion_basis(points) @ np.linalg.solve(rigid_gram(mesh), rows @ data)


def _neumann_regular_part_ref(solver, z):
    """The traction datum of R = N(., z) + Phi(. - z), the trace of R, and
    the trace R - Phi(. - z) of N(., z) before its rigid part is removed,
    each flat (2n, 2).  Column k of the datum is the conormal of the Kelvin
    column Phi(. - z) e_k plus the projector datum -psi(x) G^-1 psi(z)^T e_k."""
    mesh, mat = solver.mesh, solver.mat
    mesh.require_clearance(z)
    n2 = 2 * mesh.n
    columns = rigid_motion_basis(mesh.points).reshape(n2, 3)  # C
    datum = -columns @ np.linalg.solve(rigid_gram(mesh), rigid_motion_basis(z).T)
    kelvin_traction = dlp_traction_kernel(z, mesh.points, mesh.normals, mat)
    # [i, j, k] = traction component j of column k
    data = kelvin_traction.transpose(0, 2, 1).reshape(n2, 2) + datum
    # one nodal (n, 2) single layer and solve per column
    regular = np.stack([
        solver.solve_neumann(apply_single_layer(mesh, mat, column.reshape(-1, 2))).reshape(-1)
        for column in data.T
    ], axis=-1)
    raw_trace = regular - kelvin_matrix(mesh.points - z, mat).reshape(n2, 2)
    return data, regular, raw_trace


def neumann_trace_ref(solver, z):
    """Boundary trace of N(., z), (n, 2, 2): entry [i, :, k] is the trace at
    node i of the field of a unit source e_k at z; rigid-motion orthogonal."""
    mesh = solver.mesh
    trace = _neumann_regular_part_ref(solver, z)[2]
    trace = trace - _rigid_part_ref(mesh, mesh.points, trace).reshape(-1, 2)
    return trace.reshape(mesh.n, 2, 2)


def neumann_interior_ref(solver, z, points):
    """N(x, z) at interior points x (p, 2), (p, 2, 2): D[R] - S[g_N] -
    Phi(. - z) by einsum layer sums, minus the rigid component read off the
    trace, where R is the regular-part trace and g_N its traction datum."""
    data, regular, trace = _neumann_regular_part_ref(solver, z)
    mesh, mat = solver.mesh, solver.mat
    points = np.atleast_2d(np.asarray(points, dtype=float))
    x = points[:, None, :]
    double = dlp_traction_kernel(x, mesh.points, mesh.normals, mat)
    single = kelvin_matrix(x - mesh.points, mat)
    out = layer_sum_ref(mesh, double, regular.reshape(mesh.n, 2, 2))
    out -= layer_sum_ref(mesh, single, data.reshape(mesh.n, 2, 2))
    out -= kelvin_matrix(points - z, mat)
    return out - _rigid_part_ref(mesh, points, trace)


# -- closed-form and quadrature references for the crack equation --


def polynomial_part_ref(expansion, x):
    """sum_n c_n U_n(x) of a ChebyshevUExpansion: the factor multiplying
    its sqrt(1 - x^2) weight."""
    u = chebyshev_u_values(np.asarray(x, dtype=float), expansion.n_modes)
    return np.tensordot(u, expansion.coeffs, axes=([-1], [0]))


def apply_finite_part_ref(expansion, x):
    """Spectral action of the finite-part operator on a ChebyshevUExpansion:
    sum_n -(n+1) c_n U_n(x)."""
    u = chebyshev_u_values(np.asarray(x, dtype=float), expansion.n_modes)
    n1 = np.arange(1, expansion.n_modes + 1, dtype=float)
    scaled = -(expansion.coeffs.T * n1).T
    return np.tensordot(u, scaled, axes=([-1], [0]))


def hypersingular_kernel_canonical(x1, y1, mat: LameParams):
    """Canonical straight-crack hypersingular kernel -E/(4 pi (x1-y1)^2) I.

    Scalar abscissas along the crack line; diagonal with negative entries,
    even in x1 - y1.  Coinciding abscissas are rejected.
    """
    d = np.asarray(x1, dtype=float) - np.asarray(y1, dtype=float)
    if np.any(d == 0.0):
        raise ValueError("kernel evaluated at zero separation")
    coeff = -mat.E / (4.0 * np.pi * d * d)
    return coeff[..., None, None] * _EYE2


def _panel_gauss(n_panels: int, gauss_order: int):
    """Composite Gauss-Legendre rule on (0, pi)."""
    gx, gw = np.polynomial.legendre.leggauss(gauss_order)
    edges = np.linspace(0.0, np.pi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    phi = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    w = (half[:, None] * gw[None, :]).ravel()
    return phi, w


def _fd_derivative(fn, x: float, order: int) -> float:
    """Centered finite difference of order 1 or 2 staying inside (-1, 1)."""
    h = min(1e-5 * (1.0 + abs(x)), (1.0 - abs(x)) / 4.0)
    if order == 1:
        return (
            fn(x - 2 * h) - 8.0 * fn(x - h) + 8.0 * fn(x + h) - fn(x + 2 * h)
        ) / (12.0 * h)
    return (fn(x + h) - 2.0 * fn(x) + fn(x - h)) / (h * h)


def hadamard_finite_part(fn, x: float, n_panels: int = 2048, gauss_order: int = 4, deriv=None):
    """Brute-force finite part f.p. Integral fn(y)/(x-y)^2 dy over (-1, 1).

    Subtracting the first order Taylor polynomial of fn about x leaves the
    regular integrand h(y) = [fn(y) - fn(x) - fn'(x) (y-x)] / (x-y)^2, whose
    finite-part complement is exact:

        f.p. = Integral h - 2 fn(x)/(1-x^2) - fn'(x) log((1+x)/(1-x)).

    The integral is evaluated under y = cos(phi), which absorbs endpoint
    square-root behavior into a smooth integrand, with composite
    Gauss-Legendre panels in phi; `deriv` optionally supplies fn' exactly,
    otherwise a centered difference is used.  Requires |x| < 1.
    """
    if not -1.0 < x < 1.0:
        raise ValueError("finite part defined for |x| < 1 only")
    phi, w = _panel_gauss(n_panels, gauss_order)
    y = np.cos(phi)
    fx = float(fn(x))
    dfx = float(deriv(x)) if deriv is not None else _fd_derivative(fn, x, 1)
    diff = x - y
    near = np.abs(diff) < 1e-13
    safe = np.where(near, 1.0, diff)
    h = (np.asarray(fn(y), dtype=float) - fx - dfx * (y - x)) / safe**2
    if np.any(near):
        h = np.where(near, 0.5 * _fd_derivative(fn, x, 2), h)
    integral = float(np.sum(w * h * np.sin(phi)))
    return (
        integral
        - 2.0 * fx / (1.0 - x * x)
        - dfx * np.log((1.0 + x) / (1.0 - x))
    )
