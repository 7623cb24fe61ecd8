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

Inversion of A is therefore a coefficient division in this basis.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "gauss_chebyshev_u",
    "chebyshev_u_values",
    "ChebyshevUExpansion",
    "invert_finite_part_operator",
]


@functools.lru_cache(maxsize=8)
def gauss_chebyshev_u(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss quadrature for the weight sqrt(1-x^2) on (-1, 1).

    Returns nodes x_k = cos(k pi/(n+1)), k = n..1 (ascending in x), and
    weights w_k = pi/(n+1) sin^2(k pi/(n+1)); exact for polynomial
    integrands of degree <= 2n - 1 against the weight.  Built once per n,
    so both arrays are read-only.
    """
    if n < 1:
        raise ValueError("need at least one quadrature node")
    k = np.arange(n, 0, -1)
    theta = k * np.pi / (n + 1)
    nodes, weights = np.cos(theta), np.pi / (n + 1) * np.sin(theta) ** 2
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


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


@dataclass(frozen=True, eq=False)
class ChebyshevUExpansion:
    """Weighted expansion psi(x) = sqrt(1-x^2) sum_n c_n U_n(x).

    `coeffs` has shape (n_modes,) for scalar densities or (n_modes, d) for
    vector-valued ones (crack openings use d = 2).  Values are evaluated
    through theta = arccos(x) as sum_n c_n sin((n+1) theta), which is exact
    and vanishes identically at the endpoints.  Expansions compare and hash
    by identity.
    """

    coeffs: np.ndarray

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


@functools.lru_cache(maxsize=8)
def _finite_part_maps(n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (M, M) tables of the inversion on the M = n_modes
    Gauss-Chebyshev nodes x_k = cos(theta_k), built once per M: the discrete
    sine transform DST, d_n = (2/(M+1)) sum_k sin(theta_k) sin((n+1) theta_k)
    f(x_k), and R = U diag(-1/(n+1)) DST, with U[k, n] = U_n(x_k), so R @
    samples is the polynomial part sum_n c_n U_n(x_k) of
    invert_finite_part_operator(samples, M) at the nodes."""
    nodes, _ = gauss_chebyshev_u(n_modes)
    theta = np.arccos(nodes)
    n1 = np.arange(1, n_modes + 1)
    dst = 2.0 / (n_modes + 1) * np.sin(np.outer(n1, theta)) * np.sin(theta)
    R = (chebyshev_u_values(nodes, n_modes) / -np.arange(1.0, n_modes + 1)) @ dst
    dst.flags.writeable = False
    R.flags.writeable = False
    return dst, R


def invert_finite_part_operator(rhs, n_modes: int) -> ChebyshevUExpansion:
    """Solve A[psi] = rhs on the weighted basis.

    `rhs` holds samples at the n_modes Gauss-Chebyshev nodes, shape
    (n_modes,) or (n_modes, d).  The right-hand side is expanded in U_n by
    exact discrete sine orthogonality and coefficient n is divided by
    -(n+1); applying A to the result reproduces polynomial data of degree
    < n_modes to machine precision.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    vals = np.asarray(rhs, dtype=float)
    if vals.ndim not in (1, 2) or vals.shape[0] != n_modes:
        raise ValueError("rhs samples must match the quadrature nodes")
    dst, _ = _finite_part_maps(n_modes)
    n1 = np.arange(1, n_modes + 1)
    d = np.tensordot(dst, vals, axes=([1], [0]))
    coeffs = -(d.T / n1).T
    return ChebyshevUExpansion(coeffs)

