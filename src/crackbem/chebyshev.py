"""Finite-part and finite-Hilbert operators on the weighted Chebyshev basis.

Crack densities live in the weighted class psi(x) = sqrt(1-x^2) sum c_n U_n(x)
on (-1, 1), where U_n is the Chebyshev polynomial of the second kind.  The
square-root weight enforces the endpoint vanishing psi(-1) = psi(1) = 0 that
physical crack openings satisfy, and it diagonalizes the hypersingular
operator

    A[psi](x) = (1/pi) f.p. Integral psi(y) / (x - y)^2 dy,

where f.p. denotes the Hadamard finite part: the classical identities

    H[sqrt(1-y^2) U_n](x) = T_{n+1}(x),     A = -d/dx H,

with H the finite Hilbert transform H[psi](x) = (1/pi) p.v. Integral
psi(y)/(x-y) dy, give the diagonal action

    A[sqrt(1-x^2) U_n] = -(n+1) U_n.

Production inversion of A is therefore a coefficient division in this basis.
The brute-force quadrature routines `hadamard_finite_part` and
`finite_hilbert_transform` exist as slow reference implementations used for
verification only; they regularize by explicit singularity subtraction and
integrate under the substitution y = cos(phi), which absorbs the endpoint
square-root behavior into a smooth integrand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "gauss_chebyshev_u",
    "chebyshev_u_values",
    "ChebyshevUExpansion",
    "apply_finite_part_operator",
    "invert_finite_part_operator",
    "hadamard_finite_part",
    "finite_hilbert_transform",
]


def gauss_chebyshev_u(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss quadrature for the weight sqrt(1-x^2) on (-1, 1).

    Returns nodes x_k = cos(k pi/(n+1)), k = n..1 (ascending in x), and
    weights w_k = pi/(n+1) sin^2(k pi/(n+1)); exact for polynomial
    integrands of degree <= 2n - 1 against the weight.
    """
    if n < 1:
        raise ValueError("need at least one quadrature node")
    k = np.arange(n, 0, -1)
    theta = k * np.pi / (n + 1)
    return np.cos(theta), np.pi / (n + 1) * np.sin(theta) ** 2


def chebyshev_u_values(x: np.ndarray, n_modes: int) -> np.ndarray:
    """Values U_0(x)..U_{n_modes-1}(x) by recurrence, shape (..., n_modes)."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape + (n_modes,))
    out[..., 0] = 1.0
    if n_modes > 1:
        out[..., 1] = 2.0 * x
    for n in range(2, n_modes):
        out[..., n] = 2.0 * x * out[..., n - 1] - out[..., n - 2]
    return out


@dataclass(frozen=True)
class ChebyshevUExpansion:
    """Weighted expansion psi(x) = sqrt(1-x^2) sum_n c_n U_n(x).

    `coeffs` has shape (n_modes,) for scalar densities or (n_modes, d) for
    vector-valued ones (crack openings use d = 2).  Values are evaluated
    through theta = arccos(x) as sum_n c_n sin((n+1) theta), which is exact
    and vanishes identically at the endpoints.
    """

    coeffs: np.ndarray = field()

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim > 2 or c.shape[0] < 1:
            raise ValueError("coeffs must have shape (n_modes,) or (n_modes, d)")
        object.__setattr__(self, "coeffs", c)

    @property
    def n_modes(self) -> int:
        return self.coeffs.shape[0]

    def _theta(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if np.any(np.abs(x) > 1.0 + 1e-12):
            raise ValueError("evaluation point outside [-1, 1]")
        return np.arccos(np.clip(x, -1.0, 1.0))

    def __call__(self, x) -> np.ndarray:
        """psi(x) for |x| <= 1; shape x.shape (+ (d,) if vector-valued)."""
        theta = self._theta(x)
        n1 = np.arange(1, self.n_modes + 1)
        sines = np.sin(theta[..., None] * n1)
        return np.tensordot(sines, self.coeffs, axes=([-1], [0]))

    def polynomial_part(self, x) -> np.ndarray:
        """sum_n c_n U_n(x), the factor multiplying the sqrt weight."""
        u = chebyshev_u_values(np.asarray(x, dtype=float), self.n_modes)
        return np.tensordot(u, self.coeffs, axes=([-1], [0]))


def apply_finite_part_operator(expansion: ChebyshevUExpansion, x) -> np.ndarray:
    """Spectral action of the finite-part operator: sum_n -(n+1) c_n U_n(x)."""
    u = chebyshev_u_values(np.asarray(x, dtype=float), expansion.n_modes)
    n1 = np.arange(1, expansion.n_modes + 1, dtype=float)
    scaled = -(expansion.coeffs.T * n1).T
    return np.tensordot(u, scaled, axes=([-1], [0]))


def invert_finite_part_operator(rhs, n_modes: int) -> ChebyshevUExpansion:
    """Solve A[psi] = rhs on the weighted basis.

    `rhs` is a callable evaluated at the n_modes Gauss-Chebyshev nodes, or an
    array of samples at those nodes (shape (n_modes,) or (n_modes, d)).  The
    right-hand side is expanded in U_n by exact discrete sine orthogonality
    and coefficient n is divided by -(n+1); the round trip
    apply(invert(rhs)) reproduces polynomial data of degree < n_modes to
    machine precision.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    nodes, _ = gauss_chebyshev_u(n_modes)
    theta = np.arccos(nodes)
    vals = np.asarray(rhs(nodes) if callable(rhs) else rhs, dtype=float)
    if vals.shape[0] != n_modes:
        raise ValueError("rhs samples must match the quadrature nodes")
    n1 = np.arange(1, n_modes + 1)
    # d_n = (2/(M+1)) sum_k sin(theta_k) sin((n+1) theta_k) rhs(x_k)
    dst = 2.0 / (n_modes + 1) * np.sin(np.outer(n1, theta)) * np.sin(theta)
    d = np.tensordot(dst, vals, axes=([1], [0]))
    coeffs = -(d.T / n1).T
    return ChebyshevUExpansion(coeffs)


def _panel_gauss(n_panels: int, gauss_order: int) -> tuple[np.ndarray, np.ndarray]:
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


def hadamard_finite_part(
    fn, x: float, n_panels: int = 2048, gauss_order: int = 4, deriv=None
) -> float:
    """Brute-force finite part f.p. Integral fn(y)/(x-y)^2 dy over (-1, 1).

    Reference quadrature (slow, verification only).  Subtracting the first
    order Taylor polynomial of fn about x leaves the regular integrand
    h(y) = [fn(y) - fn(x) - fn'(x) (y-x)] / (x-y)^2, whose finite-part
    complement is exact:

        f.p. = Integral h - 2 fn(x)/(1-x^2) - fn'(x) log((1+x)/(1-x)).

    The integral is evaluated under y = cos(phi) with composite
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


def finite_hilbert_transform(
    fn, x: float, n_panels: int = 2048, gauss_order: int = 4
) -> float:
    """Brute-force transform (1/pi) p.v. Integral fn(y)/(x-y) dy over (-1, 1).

    Reference quadrature (slow, verification only), via subtraction of
    fn(x):

        pi H[fn](x) = Integral (fn(y) - fn(x))/(x-y) dy
                      + fn(x) log((1+x)/(1-x)),

    integrated under y = cos(phi) as above.  Requires |x| < 1.
    """
    if not -1.0 < x < 1.0:
        raise ValueError("transform defined for |x| < 1 only")
    phi, w = _panel_gauss(n_panels, gauss_order)
    y = np.cos(phi)
    fx = float(fn(x))
    diff = x - y
    near = np.abs(diff) < 1e-13
    safe = np.where(near, 1.0, diff)
    g = (np.asarray(fn(y), dtype=float) - fx) / safe
    if np.any(near):
        g = np.where(near, -_fd_derivative(fn, x, 1), g)
    integral = float(np.sum(w * g * np.sin(phi)))
    return (integral + fx * np.log((1.0 + x) / (1.0 - x))) / np.pi
