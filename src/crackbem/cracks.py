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
G^T diag(half^2 weights) on the Gauss-Chebyshev nodes.

The background traction sigma(u0) m on a crack line is always this
f0 = F (W u0) - G (W g) from the pass (_background_traction), never a
stress tensor: the Picard data at the Gauss-Chebyshev nodes, the samples of
crack_traction_samples, and so the traction t0 at the center that gives the
leading term and the stress intensities K_I = t0 . m, K_II = t0 . t.

The nodal values of u0, g and each sweep's w enter the frame through one
2 x 2 rotation, Q = [t m].  The inversion of A followed by the polynomial
part at the nodes is a fixed linear map R (chebyshev._finite_part_maps),
which acts on both components alike, so it multiplies the (2, m) crack
traction from the right.  With D = diag(half^2 weights) (-4/E), a Picard sweep is

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
    _finite_part_maps,
    gauss_chebyshev_u,
    invert_finite_part_operator,
)
from .errors import SolveFailed
from .forward import BackgroundField
from .kernels import _crack_frame_kernels
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
        return np.array(self.direction)

    @property
    def normal(self) -> np.ndarray:
        e0, e1 = self.direction
        return np.array((-e1, e0))

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


@dataclass(eq=False)
class _Admission:
    """A background's record of the last crack it admitted, and the
    background traction t0 at that crack's center once it has been
    computed (asymptotics._center_traction)."""

    crack: CrackSegment
    t0: np.ndarray | None = None


def _admit(background: BackgroundField, crack: CrackSegment, tested: bool = False) -> _Admission:
    """Admit a crack for the crack ops on `background`: return its record.

    The background holds one record.  For an equal crack (same center,
    direction and length) it is returned as it is; otherwise
    BoundaryMesh.require_clearance tests the crack's center and tips with
    its length, and only a crack that passes replaces the record.  The
    clearance depends on nothing else, since the mesh is immutable, and the
    record dies with the background.  tested=True skips the test for a
    crack the caller has just tested on the background's mesh itself
    (asymptotics.sweep_cracks).
    """
    record = background._admitted
    if record is None or record.crack != crack:
        if not tested:
            background.mesh.require_clearance(crack.clearance_points, crack.length)
        record = background._admitted = _Admission(crack)
    return record


def _weighted_in_frame(frame: np.ndarray, weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Nodal (n, 2) global values times the boundary weights, as the flat
    component-major crack-frame vector F and G act on."""
    return (frame.T @ values.T * weights).reshape(-1)


def _background_traction(background: BackgroundField, crack: CrackSegment, s):
    """One crack-frame pass at the crack points center + s t, s (k,).

    Returns (F, G, Q, f0): the pass's two (2k, 2n) matrices, the frame
    Q = [t m] and the background traction sigma(u0) m at the points,
    f0 = F (W u0) - G (W g), flat (2k,) in the crack frame and
    component-major (all t components, then all m components).
    """
    mesh = background.mesh
    feedback, traction = _crack_frame_kernels(
        s, crack.center, crack.tangent, mesh.points, mesh.normals, background.mat
    )
    e0, e1 = crack.direction
    frame = np.array(((e0, -e1), (e1, e0)))  # Q = [t m]
    # the double layer of u0's representation gives F (W u0), and the
    # traction of the single layer S[g] is G (W g)
    weighted_g = _weighted_in_frame(frame, mesh.weights, background.g.values)
    weighted_u0 = _weighted_in_frame(frame, mesh.weights, background.trace.values)
    f0 = feedback @ weighted_u0 - traction @ weighted_g
    return feedback, traction, frame, f0


def crack_traction_samples(
    background: BackgroundField, crack: CrackSegment, eta
) -> np.ndarray:
    """Background traction sigma(u0) . normal at crack points y(eta), (k, 2)
    in the global frame, for eta a scalar (k = 1) or 1-D of length k.

    It is f0 = F (W u0) - G (W g) of one crack-frame pass over the
    (len(eta), n) pairs, the same traction solve_cracked iterates on; no
    stress tensor is formed.  The crack is admitted as solve_cracked admits
    it, so it refuses the same cracks with the same messages.
    """
    _admit(background, crack)
    s = crack.half_length * np.atleast_1d(np.asarray(eta, dtype=float))
    _, _, frame, f0 = _background_traction(background, crack, s)
    return f0.reshape(2, -1).T @ frame.T


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

    Raises ValueError unless max_iterations >= 1 and tol > 0, admits the
    crack through the background's record (BoundaryMesh.require_clearance
    refuses its center and tips with its length, unless the record already
    holds that crack), and raises SolveFailed if the trace update has not
    dropped below tol in sup norm within max_iterations sweeps.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    solver = background.solver
    mesh = solver.mesh
    mat = solver.mat
    _admit(background, crack)

    eta, gc_weights = gauss_chebyshev_u(n_modes)
    # one pass over the (node, boundary point) pairs in the crack frame: the
    # hypersingular kernel F and the crack traction kernel G, both (2m, 2n)
    # and component-major, so the whole loop runs in the crack frame, and
    # the background traction f0 at the nodes, flat (2m,)
    feedback, traction, frame, f0 = _background_traction(
        background, crack, crack.half_length * eta
    )

    # crack -> boundary: crack traction f -> polynomial part of
    # psi = A^-1[-(4/E) f] at the nodes (the fixed map R, alike on both
    # components) -> the double-layer transfer by Gauss-Chebyshev quadrature
    # on the same nodes, G^T diag(half^2 weights).  The diagonal and -4/E
    # scale the (m, m) map R once, so no sweep forms a (2n, 2m) matrix
    scale = crack.half_length**2 * gc_weights * (-4.0 / mat.E)
    to_transfer = (scale[:, None] * _finite_part_maps(n_modes)[1]).T

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
        weighted_w = _weighted_in_frame(frame, mesh.weights, w)
    raise SolveFailed(
        f"crack coupling did not contract to {tol:g} within {max_iterations} "
        f"sweeps; last trace update {history[-1]:.3g}"
    )
