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

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LameParams",
    "rot90",
    "kelvin_matrix",
    "kelvin_gradient",
    "dlp_traction_kernel",
    "dlp_traction_gradient",
    "double_conormal_kernel",
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


def rot90(v: np.ndarray) -> np.ndarray:
    """Rotate 2-vectors by +90 degrees: (v1, v2) -> (-v2, v1)."""
    v = np.asarray(v, dtype=float)
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


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


def _slots(shape: tuple) -> tuple[np.ndarray, list]:
    """Empty component-major storage (2, 2, 2) + shape for a gradient
    kernel, and its eight component slots in index order: views (0-d ones for
    a single pair), so ufuncs write each component straight into place."""
    out = np.empty((2, 2, 2) + shape)
    return out, [out[index + (...,)] for index in np.ndindex(2, 2, 2)]


def _components_last(out: np.ndarray, rank: int) -> np.ndarray:
    """The kernel result (..., 2, 2[, 2]) of component-major storage: a
    transposed view (a transpose, not np.moveaxis: this runs on every kernel
    call)."""
    return out.transpose(*range(rank, out.ndim), *range(rank))


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

    Each component is written straight into the result, whose storage is
    component-major.
    """
    r0, r1, rho2 = _offset(dx)
    u0, u1 = r0 / rho2, r1 / rho2
    lam, mu = mat.lam_prime, mat.mu_prime
    out, (g000, g001, g010, g011, _, _, g110, g111) = _slots(np.shape(rho2))
    # p holds p_ij = 2 mu' dx_i dx_j / rho^4 in turn, t the linear terms
    two_mu_u, p, t = (np.empty(np.shape(rho2)) for _ in range(3))
    np.multiply(u0, 2.0 * mu, out=two_mu_u)
    np.multiply(two_mu_u, u0, out=p)
    np.multiply(p, r0, out=g000)
    g000 += np.multiply(u0, lam - 2.0 * mu, out=t)
    np.multiply(p, r1, out=g001)
    g001 += np.multiply(u1, lam, out=t)
    np.multiply(two_mu_u, u1, out=p)
    np.multiply(p, r0, out=g010)
    g010 -= np.multiply(u1, mu, out=t)
    np.multiply(p, r1, out=g011)
    g011 -= np.multiply(u0, mu, out=t)
    out[1, 0] = out[0, 1]
    np.multiply(u1, 2.0 * mu, out=two_mu_u)
    np.multiply(two_mu_u, u1, out=p)
    np.multiply(p, r0, out=g110)
    g110 += np.multiply(u0, lam, out=t)
    np.multiply(p, r1, out=g111)
    g111 += np.multiply(u1, lam - 2.0 * mu, out=t)
    return _components_last(out, 3)


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

    Entry [k, j, l] is d K_kj / d x_l.  With u = r/rho^2, n~ = n/rho^2,
    s = (n.r)/rho^2 and skew_kj = (r_k n_j - n_k r_j)/rho^2, differentiating
    K_kj = P_kj s - a skew_kj gives

        d_l K_kj = P_kj n~_l - 2 Q_kj u_l + delta_lk v_j + delta_lj w_k,

    P_kj = a delta_kj + b r_k r_j/rho^2,
    Q_kj = a s delta_kj + 2 b s r_k r_j/rho^2 - a skew_kj,
    v = b s u - a n~,  w = b s u + a n~.

    Each component is written straight into the result, whose storage is
    component-major.
    """
    r0, r1, rho2 = _offset(x, y)
    n = np.asarray(normal_y, dtype=float)
    n0, n1 = n[..., 0] / rho2, n[..., 1] / rho2  # n~
    u0, u1 = r0 / rho2, r1 / rho2
    a, b = mat.a, mat.b
    s = n0 * r0 + n1 * r1
    bs = b * s
    two_a_s, four_bs = (2.0 * a) * s, 4.0 * bs
    # skew = 2 a skew_01 = -2 a skew_10
    skew = (2.0 * a) * (r0 * n1 - n0 * r1)
    out, (g000, g001, g010, g011, g100, g101, g110, g111) = _slots(np.shape(s))
    # p and q hold P_kj and q_kj = 2 Q_kj of one (k, j) in turn
    p, q, t, b_r, four_bs_r = (np.empty(np.shape(s)) for _ in range(5))

    def fill(g_0, g_1):
        # d_l K_kj without its v and w terms: P_kj n~_l - q_kj u_l
        for g, n_l, u_l in ((g_0, n0, u0), (g_1, n1, u1)):
            np.multiply(p, n_l, out=g)
            g -= np.multiply(q, u_l, out=t)

    def diagonal(r_k, u_k):
        # P_kk = a + b r_k u_k and q_kk = 2 a s + 4 b s r_k u_k
        np.multiply(r_k, b, out=b_r)
        np.add(np.multiply(b_r, u_k, out=p), a, out=p)
        np.multiply(four_bs, r_k, out=four_bs_r)
        np.add(np.multiply(four_bs_r, u_k, out=q), two_a_s, out=q)

    diagonal(r0, u0)
    fill(g000, g001)
    # P_01 = P_10 = b r_0 u_1, q_01 = 4 b s r_0 u_1 - skew, q_10 = q_01 + 2 skew
    np.multiply(b_r, u1, out=p)
    np.subtract(np.multiply(four_bs_r, u1, out=q), skew, out=q)
    fill(g010, g011)
    q += np.multiply(skew, 2.0, out=t)
    fill(g100, g101)
    diagonal(r1, u1)
    fill(g110, g111)

    # the delta terms: v_j where l = k and w_k where l = j, v before w
    v, w, bs_u, a_n = p, q, b_r, four_bs_r
    for n_c, u_c, with_v, with_w in (
        (n0, u0, (g000, g101), (g000, g011)),
        (n1, u1, (g010, g111), (g111, g100)),
    ):
        np.multiply(bs, u_c, out=bs_u)
        np.multiply(n_c, a, out=a_n)
        np.subtract(bs_u, a_n, out=v)
        np.add(bs_u, a_n, out=w)
        for g in with_v:
            g += v
        for g in with_w:
            g += w
    return _components_last(out, 3)


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
    vector field x -> K(x, y; normal_y) e_j, whose gradient is g[k, j, l] =
    d_l K_kj:  lam (g[0, j, 0] + g[1, j, 1]) m_i + mu (g[i, j, l] + g[l, j, i]) m_l.
    On a straight crack with normal_x = normal_y perpendicular to x - y this
    reduces to the canonical -E/(4 pi |x-y|^2) I form.
    """
    g = dlp_traction_gradient(x, y, normal_y, mat)
    g = g.transpose(-3, -2, -1, *range(g.ndim - 3))  # [k, j, l, ...], its storage
    m = np.asarray(normal_x, dtype=float)
    m = (m[..., 0], m[..., 1])
    div = [g[0, j, 0] + g[1, j, 1] for j in (0, 1)]
    return _tensor({
        (i, j): mat.lam * m[i] * div[j]
        + mat.mu * (m[0] * (g[i, j, 0] + g[0, j, i]) + m[1] * (g[i, j, 1] + g[1, j, i]))
        for i in (0, 1)
        for j in (0, 1)
    })


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
    normals n_p, in the crack frame (t, m = rot90(t)).

    Returns F and G, each (2 len(s), 2 len(points)) and component-major, with
    rows (i, q) and columns (k, p):

        F[(i, q), (k, p)] = (Q^T H Q)_ik,  H = double_conormal_kernel(x_q, y_p, m, n_p),
        G[(i, q), (k, p)] = (Q^T K Q)_ki,  K = dlp_traction_kernel(y_p, x_q, m),

    where Q = [t m] and i, k are crack-frame components (0 along t, 1 along
    m), so each matrix acts on vectors laid out as all t components, then
    all m components.  Each of the four component blocks is written once,
    in place.  Zero separation raises ValueError.

    In the crack frame write r = x_q - y_p = (r_t, r_m) = rho (cos th, sin th).
    r_m does not depend on q, and r_t = s_q + (center - y_p) . t is an outer
    sum.  Substituting r and m = (0, 1) into double_conormal_kernel and
    reducing the products of cos th and sin th to C2 + i S2 = e^{2 i th} and
    C4 + i S4 = e^{4 i th}, the lam and mu terms combine into the one
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
    m = rot90(t)
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
