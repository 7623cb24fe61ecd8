"""Finite-difference reference derivatives used to validate analytic kernels.

Everything here is slow and independent of the closed-form gradient code in
the package: plain central differences with one Richardson step for first
derivatives, second-order stencils for the Navier operator.  Tolerances in
the tests account for the O(h^4) / O(h^2) truncation of these stencils.
"""

import numpy as np

from crackbem import LameParams


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


def linear_field(grad):
    """Displacement x -> grad @ x with the given constant gradient."""
    grad = np.asarray(grad, dtype=float)

    def fn(points):
        return np.asarray(points, dtype=float) @ grad.T

    return fn


def constant_stress_traction(mesh, sigma):
    """Nodal traction sigma . n of a constant stress field, shape (n, 2)."""
    return mesh.normals @ np.asarray(sigma, dtype=float).T


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
