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

The two gradient kernels are evaluated in the complex notation of Kolosov
and Muskhelishvili.  Identify a vector v with v0 + i v1, so the offset is
z = r0 + i r1 (rho^2 = |z|^2) and the normal at y is n = n0 + i n1, and use
the Wirtinger derivatives d = (d_0 - i d_1)/2 and dbar = (d_0 + i d_1)/2,
so that d_0 = d + dbar and d_1 = i (d - dbar).  The projector r r^T/rho^2
is (I + R)/2, where R maps a vector phi to (z/zbar) conj(phi); with
v = nbar/zbar, (n . r)/rho^2 = Re v, and the skew part of K is
a Im(v) [[0, 1], [-1, 0]], which acts as multiplication by -i a Im v.  So
the two kernels act on a density phi as

    Phi(r) phi     = (lam' log rho - h) phi - h (z/zbar) conj(phi),  h = mu'/2,
    K(x, y; n) phi = P phi + Q conj(phi),                            q = b/4,
        P = q (n/z + nbar/zbar) + a n/z,   Q = q (n/zbar + nbar z/zbar^2).

Differentiating these coefficient functions of z and zbar leaves, for the
Kelvin matrix, the two harmonics

    u = 1/zbar = z/rho^2,   w = z/zbar^2 = u^2 z,

and for the double layer the three

    B2 = n/zbar^2,   B3 = nbar/zbar^2,   B5 = nbar z/zbar^3 = B3 z^2/rho^2.

Column j of a gradient is the derivative of the image of phi = 1 (j = 0)
or phi = i (j = 1), and row k its real (k = 0) or imaginary (k = 1) part,
so each of the eight components is a constant real combination of the
real and imaginary parts of the harmonics: one small coefficient matrix
applied to the harmonics writes all eight (the tables are in
kelvin_gradient and dlp_traction_gradient).

All kernels take raw points (arrays with trailing dimension 2, broadcastable)
rather than mesh indices, so the same code serves boundary, crack, and
interior evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LameParams",
    "kelvin_matrix",
    "kelvin_gradient",
    "dlp_traction_kernel",
    "dlp_traction_gradient",
    "rigid_motion_basis",
]


@dataclass(frozen=True)
class LameParams:
    """Isotropic material constants with all derived kernel coefficients.

    Parameters
    ----------
    lam, mu : float
        Lame parameters; admissibility requires both finite, mu > 0 and
        lam + mu > 0.

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

    The derived constants are computed once at construction and stored as
    attributes, not fields: the constructor takes lam and mu only.  They
    satisfy mu (mu' - lam') = a = (lam+2mu)(mu' - lam') + 2 mu mu'
    and lam (mu' - lam') + 2 mu mu' = -a.
    """

    lam: float
    mu: float

    def __post_init__(self) -> None:
        lam, mu = float(self.lam), float(self.mu)
        for name, value in (("lam", lam), ("mu", mu)):
            if not math.isfinite(value):
                raise ValueError(f"material parameter {name} must be finite, got {value}")
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


def _offset(x, y=(0.0, 0.0)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Components r0, r1 of r = x - y and rho^2 = |r|^2; zero separation raises."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r0, r1 = x[..., 0] - y[..., 0], x[..., 1] - y[..., 1]
    return r0, r1, _rho2(r0, r1)


def _rho2(r0, r1) -> np.ndarray:
    """rho^2 = r0^2 + r1^2 of offset components; zero separation raises."""
    rho2 = r0 * r0 + r1 * r1
    if np.any(rho2 == 0.0):
        raise ValueError("kernel evaluated at zero separation")
    return rho2


def _components_last(out: np.ndarray, rank: int) -> np.ndarray:
    """The kernel result (..., 2, 2[, 2]) of component-major storage: a
    transposed view (a transpose, not np.moveaxis: this runs on every kernel
    call)."""
    return out.transpose(*range(rank, out.ndim), *range(rank))


def _complex(v) -> np.ndarray:
    """Points or vectors (..., 2) as complex numbers v0 + i v1, shape (...)."""
    return np.ascontiguousarray(v, dtype=float).view(complex)[..., 0]


def _harmonic_gradient(coef: np.ndarray, harmonics: np.ndarray, shape: tuple) -> np.ndarray:
    """Gradient kernel (*shape, 2, 2, 2) from complex harmonics (..., h) and
    the (8, 2h) table whose row [k, j, l] (in index order) weighs their real
    and imaginary parts: one matmul writes every component into
    component-major storage."""
    flat = harmonics.reshape(-1, harmonics.shape[-1]).view(float)
    return _components_last((coef @ flat.T).reshape((2, 2, 2) + shape), 3)


def _tensor(components: dict) -> np.ndarray:
    """Array (..., 2, 2) whose entry [..., *index] is components[index]; the
    components broadcast against each other.  They are copied into
    component-major storage, so every component is written contiguously."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in components.values()))
    out = np.empty((2, 2) + shape)
    for index, value in components.items():
        out[index] = value
    return _components_last(out, 2)


def kelvin_matrix(dx: np.ndarray, mat: LameParams) -> np.ndarray:
    """Kelvin matrix Phi(dx) for offsets dx = x - y, shape (..., 2, 2).

    Phi_ij = lam' delta_ij log|dx| - mu' dx_i dx_j / |dx|^2.  Symmetric and
    even in dx; singular at dx = 0 (rejected).
    """
    r0, r1, rho2 = _offset(dx)
    diag = (0.5 * mat.lam_prime) * np.log(rho2)
    scale = mat.mu_prime / rho2
    off = -scale * r0 * r1
    return _tensor({
        (0, 0): diag - scale * r0 * r0, (0, 1): off,
        (1, 0): off, (1, 1): diag - scale * r1 * r1,
    })


def kelvin_gradient(dx: np.ndarray, mat: LameParams) -> np.ndarray:
    """Gradient of the Kelvin matrix, shape (..., 2, 2, 2).

    Entry [i, j, l] is d Phi_ij / d dx_l:

        lam' delta_ij dx_l / rho^2
        - mu' [(delta_li dx_j + delta_lj dx_i)/rho^2 - 2 dx_i dx_j dx_l/rho^4]

    From Phi phi = (lam' log rho - h) phi - h (z/zbar) conj(phi) (module
    docstring), with z = dx0 + i dx1, d log rho = 1/(2z),
    dbar log rho = 1/(2 zbar), d (z/zbar) = u and dbar (z/zbar) = -w:

        d_0 (Phi phi) = lam' Re(u) phi - h (u - w) conj(phi),
        d_1 (Phi phi) = lam' Im(u) phi - i h (u + w) conj(phi).

    The real (i = 0) and imaginary (i = 1) parts at phi = 1 (j = 0) and
    phi = i (j = 1) are

        [0,0,0] = (lam'-h) Re u + h Re w    [0,0,1] = (lam'+h) Im u + h Im w
        [0,1,0] = [1,0,0] = -h Im u + h Im w
        [0,1,1] = [1,0,1] = -h Re u - h Re w
        [1,1,0] = (lam'+h) Re u - h Re w    [1,1,1] = (lam'-h) Im u - h Im w

    with u = z/rho^2 and w = u^2 z.
    """
    z = np.atleast_1d(_complex(dx))
    inv = 1.0 / _rho2(z.real, z.imag)
    harmonics = np.empty(z.shape + (2,), dtype=complex)
    u = np.multiply(z, inv, out=harmonics[..., 0])
    w = np.multiply(u, u, out=harmonics[..., 1])
    w *= z
    lam, h = mat.lam_prime, 0.5 * mat.mu_prime
    coef = np.array([
        # Re u, Im u, Re w, Im w
        [lam - h, 0.0, h, 0.0],
        [0.0, lam + h, 0.0, h],
        [0.0, -h, 0.0, h],
        [-h, 0.0, -h, 0.0],
        [0.0, -h, 0.0, h],
        [-h, 0.0, -h, 0.0],
        [lam + h, 0.0, -h, 0.0],
        [0.0, lam - h, 0.0, -h],
    ])
    return _harmonic_gradient(coef, harmonics, np.shape(dx)[:-1])


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
    r0, r1, rho2 = _offset(x, y)
    n = np.asarray(normal_y, dtype=float)
    n0, n1 = n[..., 0], n[..., 1]
    s = (n0 * r0 + n1 * r1) / rho2
    bs = mat.b * s / rho2
    skew = mat.a * (r0 * n1 - n0 * r1) / rho2
    off = bs * r0 * r1
    return _tensor({
        (0, 0): mat.a * s + bs * r0 * r0, (0, 1): off - skew,
        (1, 0): off + skew, (1, 1): mat.a * s + bs * r1 * r1,
    })


def dlp_traction_gradient(
    x: np.ndarray, y: np.ndarray, normal_y: np.ndarray, mat: LameParams
) -> np.ndarray:
    """Gradient in x of the double-layer traction kernel, shape (..., 2, 2, 2).

    Entry [k, j, l] is d K_kj / d x_l.  From K phi = P phi + Q conj(phi)
    (module docstring), with z = (x0 - y0) + i (x1 - y1) and n the normal
    at y as a complex number,

        d P = -(a+q) n/z^2 = -(a+q) conj(B3),   dbar P = -q B3,
        d Q = q B3,                             dbar Q = -q B2 - 2q B5,

    so d_0 P = -q B3 - (a+q) conj(B3), d_1 P = i (q B3 - (a+q) conj(B3)),
    d_0 Q = q (B3 - B2 - 2 B5), d_1 Q = i q (B3 + B2 + 2 B5), and
    d_l (K phi) = d_l P phi + d_l Q conj(phi).  The real (k = 0) and
    imaginary (k = 1) parts at phi = 1 (j = 0) and phi = i (j = 1) are

        [0,0,0] = -q Re B2 - (a+q) Re B3 - 2q Re B5
        [0,0,1] = -q Im B2 - (a+3q) Im B3 - 2q Im B5
        [0,1,0] = -q Im B2 + (q-a) Im B3 - 2q Im B5
        [0,1,1] =  q Re B2 + (a+q) Re B3 + 2q Re B5
        [1,0,0] = -q Im B2 + (a+q) Im B3 - 2q Im B5
        [1,0,1] =  q Re B2 + (q-a) Re B3 + 2q Re B5
        [1,1,0] =  q Re B2 - (a+3q) Re B3 + 2q Re B5
        [1,1,1] =  q Im B2 - (a+q) Im B3 + 2q Im B5

    with c = (z/rho^2)^2 = 1/zbar^2, B2 = c n, B3 = c nbar and
    B5 = B3 z^2/rho^2.
    """
    z = np.atleast_1d(_complex(x) - _complex(y))
    n = _complex(normal_y)
    inv = 1.0 / _rho2(z.real, z.imag)
    harmonics = np.empty(np.broadcast_shapes(z.shape, n.shape) + (3,), dtype=complex)
    u = z * inv
    c = u * u
    np.multiply(c, n, out=harmonics[..., 0])
    b3 = np.multiply(c, n.conj(), out=harmonics[..., 1])
    np.multiply(b3, np.multiply(u, z, out=u), out=harmonics[..., 2])
    a, q = mat.a, 0.25 * mat.b
    coef = np.array([
        # Re B2, Im B2, Re B3, Im B3, Re B5, Im B5
        [-q, 0.0, -(a + q), 0.0, -2.0 * q, 0.0],
        [0.0, -q, 0.0, -(a + 3.0 * q), 0.0, -2.0 * q],
        [0.0, -q, 0.0, q - a, 0.0, -2.0 * q],
        [q, 0.0, a + q, 0.0, 2.0 * q, 0.0],
        [0.0, -q, 0.0, a + q, 0.0, -2.0 * q],
        [q, 0.0, q - a, 0.0, 2.0 * q, 0.0],
        [q, 0.0, -(a + 3.0 * q), 0.0, 2.0 * q, 0.0],
        [0.0, q, 0.0, -(a + q), 0.0, 2.0 * q],
    ])
    pairs = np.broadcast_shapes(np.shape(x)[:-1], np.shape(y)[:-1], np.shape(normal_y)[:-1])
    return _harmonic_gradient(coef, harmonics, pairs)


def _crack_frame_kernels(
    s: np.ndarray,
    center: np.ndarray,
    tangent: np.ndarray,
    points: np.ndarray,
    normals: np.ndarray,
    mat: LameParams,
) -> tuple[np.ndarray, np.ndarray]:
    """The two pair matrices of a crack solve, from one pass over the pairs of
    crack nodes x_q = center + s_q t and boundary points y_p with unit
    normals n_p, in the crack frame (t, m) with m = (-t1, t0).

    Returns F and G, each (2 len(s), 2 len(points)) and component-major, with
    rows (i, q) and columns (k, p):

        F[(i, q), (k, p)] = (Q^T H Q)_ik,  H = double_conormal_kernel_ref(x_q, y_p, m, n_p),
        G[(i, q), (k, p)] = (Q^T K Q)_ki,  K = dlp_traction_kernel(y_p, x_q, m),

    where H, the hypersingular kernel, is the einsum reference in
    tests/oracles.py, Q = [t m] and i, k are crack-frame components (0 along
    t, 1 along m), so each matrix acts on vectors laid out as all t
    components, then all m components.  Each of the four component blocks
    is written once, in place.  Zero separation raises ValueError.

    In the crack frame write r = x_q - y_p = (r_t, r_m) = rho (cos th, sin th).
    r_m does not depend on q, and r_t = s_q + (center - y_p) . t is an outer
    sum.  Substituting r and m = (0, 1) into H and reducing the products of
    cos th and sin th to C2 + i S2 = e^{2 i th} and C4 + i S4 = e^{4 i th},
    the lam and mu terms combine into the one
    constant kappa = E/(4 pi) = -2 a (lam + mu) = -b mu: with n = (n_t, n_m),
    row i of rho^2 Q^T H Q / kappa is (Sigma_i n)^T for the symmetric

        Sigma_t = [[S2 + S4, -C4], [-C4, S2 - S4]],
        Sigma_m = [[-C4, S2 - S4], [S2 - S4, C4 - 2 C2]],

    so H_tm = H_mt.  On the crack line (th = 0, n = m) this is the canonical
    -kappa/rho^2 I.  The offset of K(y_p, x_q) is -r, so with u = r/rho^2
    its crack-frame block is

        K_kl = -a u_m delta_kl - b r_m u_k u_l + a (u_k m_l - m_k u_l).
    """
    t = np.asarray(tangent, dtype=float)
    m = np.array((-t[1], t[0]))
    d = np.asarray(center, dtype=float) - points
    r_m = d @ m
    r_t = np.add.outer(s, d @ t)
    inv = 1.0 / _rho2(r_t, r_m)
    u_t, u_m = r_t * inv, r_m * inv
    rows, cols = r_t.shape

    # G first, so its temporaries are gone before F's harmonics exist: few
    # (m, n) arrays live at once.  Entry (i, k) of G's blocks is K_ki
    traction = np.empty((2, rows, 2, cols))
    a, b_r_m = mat.a, mat.b * r_m
    minus_a_u_m, a_u_t, b_u_t = -a * u_m, a * u_t, b_r_m * u_t
    cross = b_u_t * u_m
    np.subtract(minus_a_u_m, b_u_t * u_t, out=traction[0, :, 0])
    np.subtract(-a_u_t, cross, out=traction[0, :, 1])
    np.subtract(a_u_t, cross, out=traction[1, :, 0])
    np.subtract(minus_a_u_m, b_r_m * u_m * u_m, out=traction[1, :, 1])
    del minus_a_u_m, a_u_t, b_u_t, cross

    c2 = u_t * r_t - u_m * r_m
    s2 = 2.0 * u_m * r_t
    c4 = c2 * c2 - s2 * s2
    s4 = 2.0 * c2 * s2
    n_t, n_m = normals @ t, normals @ m
    inv *= mat.E / (4.0 * np.pi)  # now kappa/rho^2
    minus = s2 - s4
    hyper = np.empty((2, rows, 2, cols))
    np.multiply((s2 + s4) * n_t - c4 * n_m, inv, out=hyper[0, :, 0])
    np.multiply(minus * n_m - c4 * n_t, inv, out=hyper[0, :, 1])
    hyper[1, :, 0] = hyper[0, :, 1]
    np.multiply(minus * n_t + (c4 - 2.0 * c2) * n_m, inv, out=hyper[1, :, 1])
    return hyper.reshape(2 * rows, 2 * cols), traction.reshape(2 * rows, 2 * cols)


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
