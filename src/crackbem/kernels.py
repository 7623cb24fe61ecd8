"""Closed-form material constants and singular kernels for 2D elastostatics.

Notation used throughout this module.  Displacement fields u map R^2 to R^2,
the Lame parameters are lam and mu, and the stress of u is

    sigma(u) = lam (div u) I + mu (grad u + grad u^T),

with the Jacobian convention grad[i, j] = du_i/dx_j.  The traction (conormal
derivative) of u on a curve with unit normal n is sigma(u) n.

The fundamental solution (Kelvin matrix) of the Navier operator
L u = mu Lap u + (lam + mu) grad div u is

    Phi_ij(d) = lam' delta_ij log|d| - mu' d_i d_j / |d|^2,

where lam' = A/(2 pi), mu' = B/(2 pi), A = (lam+3mu)/(2 mu (lam+2mu)) and
B = (lam+mu)/(2 mu (lam+2mu)).  The normalization is L Phi = +delta_0 I: the
total traction of a column of Phi over a small circle about the origin, with
outward normal, equals the corresponding unit vector.

Applying the traction operator in the source variable y to Phi(x - y) gives
the double-layer traction kernel

    K_kj(x, y; n) = [a delta_kj + b r_k r_j / rho^2] (n . r) / rho^2
                    - a [r_k n_j - n_k r_j] / rho^2,

with r = x - y, rho = |r|, a = -mu/(2 pi (lam+2mu)) and
b = -(lam+mu)/(pi (lam+2mu)).  Taking one more conormal derivative, now in x,
yields the hypersingular kernel; on a straight crack with coinciding unit
normals it reduces to the canonical form -E/(4 pi (x1-y1)^2) I with the
plane-stress Young modulus E = 4 mu (lam+mu)/(lam+2mu).

All kernels take raw points (arrays with trailing dimension 2, broadcastable)
rather than mesh indices, so the same code serves boundary, crack, and
interior evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LameParams",
    "rot90",
    "kelvin_matrix",
    "kelvin_gradient",
    "traction_operator",
    "conormal_derivative",
    "dlp_traction_kernel",
    "dlp_traction_gradient",
    "double_conormal_kernel",
    "hypersingular_kernel_canonical",
    "rigid_motion_basis",
]

_EYE2 = np.eye(2)


@dataclass(frozen=True)
class LameParams:
    """Isotropic material constants with all derived kernel coefficients.

    Parameters
    ----------
    lam, mu : float
        Lame parameters; admissibility requires mu > 0 and lam + mu > 0.

    Attributes
    ----------
    A, B : float
        Kelvin coefficients A = (lam+3mu)/(2mu(lam+2mu)),
        B = (lam+mu)/(2mu(lam+2mu)).
    lam_prime, mu_prime : float
        A/(2 pi) and B/(2 pi), the coefficients of the rewritten Kelvin
        matrix lam' log|d| I - mu' d d^T/|d|^2.
    a, b : float
        Traction-kernel coefficients a = -mu/(2 pi (lam+2mu)),
        b = -(lam+mu)/(pi (lam+2mu)).
    E : float
        Plane-stress Young modulus 4mu(lam+mu)/(lam+2mu); equivalently
        mu(lam+mu)/(lam+2mu) = E/4.

    The derived constants are computed once at construction and stored;
    they satisfy mu (mu' - lam') = a = (lam+2mu)(mu' - lam') + 2 mu mu'
    and lam (mu' - lam') + 2 mu mu' = -a.
    """

    lam: float
    mu: float
    A: float = 0.0
    B: float = 0.0
    lam_prime: float = 0.0
    mu_prime: float = 0.0
    a: float = 0.0
    b: float = 0.0
    E: float = 0.0

    def __post_init__(self) -> None:
        lam, mu = float(self.lam), float(self.mu)
        if not (mu > 0.0 and lam + mu > 0.0):
            raise ValueError(
                f"inadmissible material: need mu > 0 and lam + mu > 0, "
                f"got lam={lam}, mu={mu}"
            )
        denom = lam + 2.0 * mu
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "A", (lam + 3.0 * mu) / (2.0 * mu * denom))
        object.__setattr__(self, "B", (lam + mu) / (2.0 * mu * denom))
        object.__setattr__(self, "lam_prime", self.A / (2.0 * np.pi))
        object.__setattr__(self, "mu_prime", self.B / (2.0 * np.pi))
        object.__setattr__(self, "a", -mu / (2.0 * np.pi * denom))
        object.__setattr__(self, "b", -(lam + mu) / (np.pi * denom))
        object.__setattr__(self, "E", 4.0 * mu * (lam + mu) / denom)


def rot90(v: np.ndarray) -> np.ndarray:
    """Rotate 2-vectors by +90 degrees: (v1, v2) -> (-v2, v1)."""
    v = np.asarray(v, dtype=float)
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def _separation(dx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dx = np.asarray(dx, dtype=float)
    rho2 = np.einsum("...i,...i->...", dx, dx)
    if np.any(rho2 == 0.0):
        raise ValueError("kernel evaluated at zero separation")
    return dx, rho2


def kelvin_matrix(dx: np.ndarray, mat: LameParams) -> np.ndarray:
    """Kelvin matrix Phi(dx) for offsets dx = x - y, shape (..., 2, 2).

    Phi_ij = lam' delta_ij log|dx| - mu' dx_i dx_j / |dx|^2.  Symmetric and
    even in dx; singular at dx = 0 (rejected).
    """
    dx, rho2 = _separation(dx)
    logr = 0.5 * np.log(rho2)
    outer = np.einsum("...i,...j->...ij", dx, dx) / rho2[..., None, None]
    return mat.lam_prime * logr[..., None, None] * _EYE2 - mat.mu_prime * outer


def kelvin_gradient(dx: np.ndarray, mat: LameParams) -> np.ndarray:
    """Gradient of the Kelvin matrix, shape (..., 2, 2, 2).

    Entry [i, j, l] is d Phi_ij / d dx_l:

        lam' delta_ij dx_l / rho^2
        - mu' [(delta_li dx_j + delta_lj dx_i)/rho^2 - 2 dx_i dx_j dx_l/rho^4]
    """
    dx, rho2 = _separation(dx)
    inv = 1.0 / rho2
    d_over = dx * inv[..., None]
    term1 = np.einsum("ij,...l->...ijl", _EYE2, d_over)
    term2 = np.einsum("li,...j->...ijl", _EYE2, d_over) + np.einsum(
        "lj,...i->...ijl", _EYE2, d_over
    )
    term3 = 2.0 * np.einsum("...i,...j,...l->...ijl", d_over, d_over, dx)
    return mat.lam_prime * term1 - mat.mu_prime * (term2 - term3)


def traction_operator(normal: np.ndarray, xi: np.ndarray, mat: LameParams) -> np.ndarray:
    """Symbol matrix T(n, xi) of the traction operator, shape (..., 2, 2).

    T_jl = lam n_j xi_l + mu xi_j n_l + mu (n . xi) delta_jl.  Substituting
    xi -> grad and applying to a displacement yields the conormal derivative
    lam (div u) n + mu (grad u + grad u^T) n.  The normal must be unit.
    """
    normal = np.asarray(normal, dtype=float)
    xi = np.asarray(xi, dtype=float)
    nrm = np.einsum("...i,...i->...", normal, normal)
    if np.any(np.abs(nrm - 1.0) > 1e-10):
        raise ValueError("traction_operator requires a unit normal")
    ndotxi = np.einsum("...i,...i->...", normal, xi)
    return (
        mat.lam * np.einsum("...j,...l->...jl", normal, xi)
        + mat.mu * np.einsum("...j,...l->...jl", xi, normal)
        + mat.mu * ndotxi[..., None, None] * _EYE2
    )


def conormal_derivative(grad_u: np.ndarray, normal: np.ndarray, mat: LameParams) -> np.ndarray:
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


def dlp_traction_kernel(
    x: np.ndarray, y: np.ndarray, normal_y: np.ndarray, mat: LameParams
) -> np.ndarray:
    """Double-layer traction kernel K(x, y; n(y)), shape (..., 2, 2).

    With r = x - y, rho = |r| and n the unit normal at y,

        K_kj = [a delta_kj + b r_k r_j/rho^2] (n . r)/rho^2
               - a [r_k n_j - n_k r_j]/rho^2.

    Row k is the conormal derivative in y of the k-th column of Phi(x - y),
    so the density index j of the double layer potential pairs with the
    traction component.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = np.asarray(normal_y, dtype=float)
    r, rho2 = _separation(x - y)
    s = np.einsum("...i,...i->...", n, r) / rho2
    rr = np.einsum("...i,...j->...ij", r, r) / rho2[..., None, None]
    sym = (mat.a * _EYE2 + mat.b * rr) * s[..., None, None]
    skew = (
        np.einsum("...i,...j->...ij", r, n) - np.einsum("...i,...j->...ij", n, r)
    ) / rho2[..., None, None]
    return sym - mat.a * skew


def dlp_traction_gradient(
    x: np.ndarray, y: np.ndarray, normal_y: np.ndarray, mat: LameParams
) -> np.ndarray:
    """Gradient in x of the double-layer traction kernel, shape (..., 2, 2, 2).

    Entry [k, j, l] is d K_kj / d x_l, assembled from

        d_l s = n_l/rho^2 - 2 (n.r) r_l/rho^4,
        d_l (r_k r_j/rho^2) = (delta_lk r_j + delta_lj r_k)/rho^2
                              - 2 r_k r_j r_l/rho^4,
        d_l ((r_k n_j - n_k r_j)/rho^2)
            = (delta_lk n_j - n_k delta_lj)/rho^2
              - 2 (r_k n_j - n_k r_j) r_l/rho^4.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = np.asarray(normal_y, dtype=float)
    r, rho2 = _separation(x - y)
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


def double_conormal_kernel(
    x: np.ndarray,
    y: np.ndarray,
    normal_x: np.ndarray,
    normal_y: np.ndarray,
    mat: LameParams,
) -> np.ndarray:
    """Hypersingular kernel: conormal derivative in x of the double-layer
    traction kernel, shape (..., 2, 2).

    Column j of the result is the traction, in direction normal_x, of the
    vector field x -> K(x, y; normal_y) e_j.  On a straight crack with
    normal_x = normal_y perpendicular to x - y this reduces to the canonical
    -E/(4 pi |x-y|^2) I form.
    """
    m = np.asarray(normal_x, dtype=float)
    grad = dlp_traction_gradient(x, y, normal_y, mat)
    div = np.einsum("...kjk->...j", grad)
    sym = grad + np.einsum("...kjl->...ljk", grad)
    return mat.lam * np.einsum("...i,...j->...ij", m, div) + mat.mu * np.einsum(
        "...l,...ijl->...ij", m, sym
    )


def hypersingular_kernel_canonical(x1, y1, mat: LameParams) -> np.ndarray:
    """Canonical straight-crack hypersingular kernel -E/(4 pi (x1-y1)^2) I.

    Scalar abscissas along the crack line; diagonal with negative entries,
    even in x1 - y1.  Coinciding abscissas are rejected.
    """
    d = np.asarray(x1, dtype=float) - np.asarray(y1, dtype=float)
    if np.any(d == 0.0):
        raise ValueError("kernel evaluated at zero separation")
    coeff = -mat.E / (4.0 * np.pi * d * d)
    return coeff[..., None, None] * _EYE2


def rigid_motion_basis(points: np.ndarray) -> np.ndarray:
    """Evaluate the rigid-motion generators at points, shape (..., 2, 3).

    Columns are (1, 0), (0, 1) and the rotation (x2, -x1).
    """
    p = np.asarray(points, dtype=float)
    out = np.zeros(p.shape[:-1] + (2, 3))
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = 1.0
    out[..., 0, 2] = p[..., 1]
    out[..., 1, 2] = -p[..., 0]
    return out
