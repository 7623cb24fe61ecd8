"""Coupled solver for a small straight traction-free crack inside the body.

The cracked solution is written as u = u0 + v where u0 is the crack-free
background and the perturbation v carries a displacement jump phi across the
crack segment.  Green's identity in the cracked domain represents v through
two densities,

    v(x) = D_boundary[w](x) - D_crack[phi](x),

with w the trace of v on the outer boundary.  Pulling the traction of this
representation back onto each piece gives the coupled system

    (E/4) A[psi](eta) = -( traction of u0 + traction of D_boundary[w] ),
    (-I/2 + K)[w]     = trace of D_crack[phi] on the outer boundary,

where the crack is rescaled to [-1, 1] via y(eta) = z + (len/2) eta e and the
opening is phi(s) = (len/2) psi(2 s / len).  A is the finite-part operator
diagonalized by weighted Chebyshev polynomials, so the crack unknown is the
polynomial factor of psi = sqrt(1 - eta^2) P(eta).

The off-diagonal coupling is O(len^2): the crack potential seen on the outer
boundary and the boundary correction seen back on the crack are both smooth
and small for a short crack.  Picard iteration on w therefore contracts at
rate O(len^2) and a handful of sweeps reaches solver tolerance; failure to
contract within the iteration budget raises SolveFailed with the last update
size attached.

One set of n_modes Gauss-Chebyshev nodes of the second kind serves both the
collocation of the crack equation and the quadrature of the crack-to-boundary
transfer.  These nodes integrate the weight sqrt(1 - eta^2) exactly against
polynomials of degree < 2 n_modes, so every transfer term converges
spectrally in the number of crack modes.

Each crack takes one pass over its (crack node, boundary node) pairs, in the
crack frame (kernels._crack_frame_kernels).  It gives two matrices in the
crack frame on both sides, component-major (all t components, then all m
components): F, the boundary-to-crack feedback from the hypersingular
kernel, and G, the crack traction kernel.  G serves twice.  The traction of
the single layer S[g] at the nodes is G (W g), with W the boundary
quadrature weights, so the background traction there is
f0 = F (W u0) - G (W g): the double layer of u0's representation is F
applied to its trace.  And the crack-to-boundary transfer is
G^T diag(half^2 weights) on the Gauss-Chebyshev nodes.  The nodal values of
u0, g and each sweep's w enter the frame through one 2 x 2 rotation,
Q = [t m].  The inversion of A followed by the polynomial part at the nodes
is a fixed linear map R (chebyshev._polynomial_part_map), which acts on
both components alike, so it multiplies the (2, m) crack traction from the
right.  With D = diag(half^2 weights) (-4/E), a Picard sweep is

    f = f0 + F (W w),   v = f (D R)^T,   w = solve((G^T v) Q^T),

with f, v and G^T v in the frame and the solve's data global; no (2n, 2m)
matrix is formed.  psi is expanded once, from the last sweep's traction
turned to the global frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebyshev import (
    ChebyshevUExpansion,
    _polynomial_part_map,
    gauss_chebyshev_u,
    invert_finite_part_operator,
)
from .errors import SolveFailed
from .forward import BackgroundField
from .kernels import _crack_frame_kernels, rot90
from .mesh import BoundaryField

__all__ = [
    "CrackSegment",
    "crack_traction_samples",
    "solve_cracked",
    "CrackedSolution",
]


@dataclass(frozen=True)
class CrackSegment:
    """Straight crack of total length `length`, centered at `center`.

    `direction` is the tangent; it is normalized on construction.  The crack
    normal is the 90-degree counterclockwise rotation of the tangent.  A
    center or direction that is not a 2-vector, or a non-finite center,
    direction or length, raises ValueError naming it.
    """

    center: tuple
    direction: tuple
    length: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        e = np.asarray(self.direction, dtype=float)
        for name, v in (("center", c), ("direction", e)):
            if v.shape != (2,):
                raise ValueError(f"crack {name} must be a 2-vector")
            if not (math.isfinite(v[0]) and math.isfinite(v[1])):
                raise ValueError(f"crack {name} must be finite")
        if not math.isfinite(self.length):
            raise ValueError("crack length must be finite")
        norm = float(np.hypot(e[0], e[1]))
        if norm == 0.0:
            raise ValueError("crack direction must be a nonzero vector")
        object.__setattr__(self, "center", tuple(c))
        object.__setattr__(self, "direction", tuple(e / norm))
        if not self.length > 0.0:
            raise ValueError("crack length must be positive")

    @property
    def tangent(self) -> np.ndarray:
        return np.asarray(self.direction)

    @property
    def normal(self) -> np.ndarray:
        return rot90(np.asarray(self.direction))

    @property
    def half_length(self) -> float:
        return 0.5 * self.length

    @property
    def clearance_points(self) -> np.ndarray:
        """Center and both tips, the points a clearance check covers, (3, 2)."""
        return self.points(np.array([0.0, -1.0, 1.0]))

    def points(self, eta) -> np.ndarray:
        """Map scaled coordinates eta in [-1, 1] to crack points."""
        eta = np.asarray(eta, dtype=float)
        return np.asarray(self.center) + self.half_length * np.multiply.outer(
            eta, self.tangent
        )


def crack_traction_samples(
    background: BackgroundField, crack: CrackSegment, eta
) -> np.ndarray:
    """Background traction sigma(u0) . normal at crack points y(eta)."""
    stress = background.stress(crack.points(eta))
    return stress @ crack.normal


class CrackedSolution:
    """Solution of the traction problem with one small traction-free crack."""

    def __init__(
        self,
        background: BackgroundField,
        crack: CrackSegment,
        psi: ChebyshevUExpansion,
        w: BoundaryField,
        diagnostics: dict,
    ):
        self.background = background
        self.crack = crack
        self.psi = psi
        self.w = w
        self.diagnostics = diagnostics

    @property
    def solver(self):
        return self.background.solver

    def opening(self, s) -> np.ndarray:
        """Displacement jump across the crack at arc positions s in [-L/2, L/2]."""
        s = np.asarray(s, dtype=float)
        return self.crack.half_length * self.psi(s / self.crack.half_length)

    def trace_values(self) -> BoundaryField:
        """Trace of the cracked solution on the outer boundary, u0 + w."""
        return self.background.trace + self.w


def solve_cracked(
    background: BackgroundField,
    crack: CrackSegment,
    n_modes: int = 32,
    tol: float = 1e-11,
    max_iterations: int = 50,
) -> CrackedSolution:
    """Solve the coupled crack/boundary system by Picard iteration on w.

    Raises ValueError unless max_iterations >= 1 and tol > 0, lets
    BoundaryMesh.require_clearance refuse the crack's center and tips with
    its length, and raises SolveFailed if the trace update has not dropped
    below tol in sup norm within max_iterations sweeps.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    solver = background.solver
    mesh = solver.mesh
    mat = solver.mat
    mesh.require_clearance(crack.clearance_points, crack.length)

    eta, gc_weights = gauss_chebyshev_u(n_modes)
    # one pass over the (node, boundary point) pairs in the crack frame: the
    # hypersingular kernel F and the crack traction kernel G, both (2m, 2n)
    # and component-major, so the whole loop runs in the crack frame
    feedback, traction = _crack_frame_kernels(
        crack.half_length * eta, crack.center, crack.tangent, mesh.points, mesh.normals, mat
    )
    frame = np.stack([crack.tangent, crack.normal], axis=1)  # Q = [t m]

    def weighted_in_frame(values):
        """Nodal (n, 2) global values times the boundary weights, as the
        flat component-major crack-frame vector F and G act on."""
        return (frame.T @ values.T * mesh.weights).reshape(-1)

    # background traction sigma(u0) . normal at the nodes, flat (2m,): the
    # double layer of u0's representation gives F (W u0), and the traction
    # of the single layer S[g] is G (W g)
    weighted_g = weighted_in_frame(background.g.values)
    f0 = feedback @ weighted_in_frame(background.trace.values) - traction @ weighted_g

    # crack -> boundary: crack traction f -> polynomial part of
    # psi = A^-1[-(4/E) f] at the nodes (the fixed map R, alike on both
    # components) -> the double-layer transfer by Gauss-Chebyshev quadrature
    # on the same nodes, G^T diag(half^2 weights).  The diagonal and -4/E
    # scale the (m, m) map R once, so no sweep forms a (2n, 2m) matrix
    scale = crack.half_length**2 * gc_weights * (-4.0 / mat.E)
    to_transfer = (scale[:, None] * _polynomial_part_map(n_modes)).T

    w = np.zeros((mesh.n, 2))
    weighted_w = np.zeros(2 * mesh.n)
    history = []
    for iteration in range(1, max_iterations + 1):
        f = f0 + feedback @ weighted_w
        v = f.reshape(2, -1) @ to_transfer
        rhs = (traction.T @ v.reshape(-1)).reshape(2, -1).T @ frame.T
        w_new = solver.solve_neumann(rhs)
        update = float(np.max(np.abs(w_new - w)))
        history.append(update)
        w = w_new
        if update < tol:
            psi = invert_finite_part_operator(
                -(4.0 / mat.E) * f.reshape(2, -1).T @ frame.T, n_modes
            )
            diagnostics = {
                "iterations": iteration,
                "last_update": update,
                "tolerance": tol,
                "update_history": history,
            }
            return CrackedSolution(background, crack, psi, BoundaryField(mesh, w), diagnostics)
        weighted_w = weighted_in_frame(w)
    raise SolveFailed(
        f"crack coupling did not contract to {tol:g} within {max_iterations} "
        f"sweeps; last trace update {history[-1]:.3g}"
    )
