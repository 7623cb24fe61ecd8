"""Closed-form asymptotics of the small-crack perturbation.

For a crack of total length eps centered at z with tangent e and normal
e_perp, let t0 = sigma(u0)(z) e_perp be the background traction across the
crack line.  The solvable model on the rescaled segment gives the leading
opening psi = (4/E) sqrt(1 - eta^2) t0, and pushing it through the
Green-function representation yields

    u_eps - u0   = (pi eps^2 / 2E) dN/dnu_y(x, z) t0 + O(eps^4)   on dOmega,
    J_eps - J0   = -(pi eps^2 / 4E) (K_I^2 + K_II^2) + O(eps^4),
    D_T(z, e)    = -(1/4E) (K_I^2 + K_II^2),

with stress intensity factors K_I = t0 . e_perp, K_II = t0 . e, so that
t0 = K_I e_perp + K_II e exactly.  The eps^3 term vanishes by parity of the
crack problem, which is why the remainders above are one full power of eps^2
better than the leading term.

The constants are pinned by the classical flat-crack solution: uniform
tension p across a crack of half-length c opens it by (4p/E) sqrt(c^2 - s^2)
and releases energy pi p^2 c^2 / E, with E the plane-stress effective
modulus 4 mu (lam + mu) / (lam + 2 mu).

The topological derivative uses the area normalization rho(eps) = pi eps^2,
so it is exactly the energy coefficient divided by pi; both are evaluated in
closed form and the eps -> 0 limit is checked only numerically in the test
suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cracks import CrackSegment, _admit, crack_traction_samples, solve_cracked
from .forward import BackgroundField
from .kernels import LameParams
from .mesh import BoundaryField, BoundaryMesh

__all__ = [
    "StressIntensity",
    "stress_intensity",
    "stress_intensity_from_stress",
    "neumann_perturbation",
    "potential_energy_difference",
    "energy_asymptotic",
    "topological_derivative",
    "orientation_scan",
    "sweep_cracks",
    "length_sweep",
    "SlopeFit",
    "fit_log_slope",
]


@dataclass(frozen=True)
class StressIntensity:
    """Normalized stress intensity pair of a crack orientation.

    k1 is the normal (opening) component of the background traction across
    the crack line, k2 the tangential (sliding) component; arrays of them
    describe a batch of points or orientations.
    """

    k1: float
    k2: float

    @property
    def magnitude_squared(self) -> float:
        return self.k1**2 + self.k2**2


def stress_intensity_from_stress(stress: np.ndarray, direction) -> StressIntensity:
    """Intensity pair of stress tensors (..., 2, 2) for crack tangents
    `direction` (..., 2); the two broadcast, so k1 and k2 are floats for one
    tensor and tangent and arrays of the broadcast shape otherwise.

    With e the unit tangent and m = (-e1, e0) the crack normal, the traction
    across the crack line is t_i = sigma_i0 m0 + sigma_i1 m1, and
    K_I = t . m, K_II = t . e.  Raises ValueError for a zero or non-finite
    direction."""
    e = np.asarray(direction, dtype=float)
    if not np.all(np.isfinite(e)):
        raise ValueError("crack direction must be finite")
    norm = np.hypot(e[..., 0], e[..., 1])
    if np.any(norm == 0.0):
        raise ValueError("crack direction must be a nonzero vector")
    e0, e1 = e[..., 0] / norm, e[..., 1] / norm
    s = np.asarray(stress, dtype=float)
    t0 = s[..., 0, 1] * e0 - s[..., 0, 0] * e1
    t1 = s[..., 1, 1] * e0 - s[..., 1, 0] * e1
    return StressIntensity(k1=t1 * e0 - t0 * e1, k2=t0 * e0 + t1 * e1)


def _center_traction(background: BackgroundField, crack: CrackSegment) -> tuple:
    """(t0, sif): the background traction t0 across the crack line at its
    center and its intensity pair K_I = t0 . m, K_II = t0 . t.

    The crack is admitted through the background's record (cracks._admit),
    and t0 comes from one crack-frame pass at eta = 0
    (crack_traction_samples) only when the record holds none yet; it is
    then kept there, read-only, for the next crack op on the same crack."""
    record = _admit(background, crack)
    if record.t0 is None:
        t0 = crack_traction_samples(background, crack, 0.0)[0]
        t0.flags.writeable = False
        record.t0 = t0
    t0 = record.t0
    return t0, StressIntensity(k1=t0 @ crack.normal, k2=t0 @ crack.tangent)


def stress_intensity(background: BackgroundField, crack: CrackSegment) -> StressIntensity:
    """Intensity pair of the background traction across the crack line at
    its center; the traction comes from the crack-frame pass, not from a
    stress tensor, and agrees with stress_intensity_from_stress of the
    background stress there to rounding.  It refuses the cracks that
    solve_cracked refuses, with the same messages."""
    return _center_traction(background, crack)[1]


def _conormal_profile(
    background: BackgroundField, crack: CrackSegment, t0: np.ndarray
) -> np.ndarray:
    """dN/dnu_y(x_i, z) t0 at every boundary node, (n, 2), for the background
    traction t0 across the crack line at its center: the leading perturbation
    without its length factor, so it depends only on the crack's center and
    direction."""
    return background.solver.neumann_conormal_row(np.asarray(crack.center), crack.normal, t0)


def _leading_factor(crack: CrackSegment, mat: LameParams) -> float:
    """The length factor pi eps^2 / 2E of the leading perturbation."""
    return np.pi * crack.length**2 / (2.0 * mat.E)


def neumann_perturbation(background: BackgroundField, crack: CrackSegment) -> np.ndarray:
    """Leading boundary-trace perturbation of the traction problem, (n, 2).

    Evaluates (pi eps^2 / 2E) dN/dnu_y(x_i, z) t0 at every boundary node;
    the full solve differs from this by O(eps^4), rigid motions aside.  It
    refuses the cracks that solve_cracked refuses, with the same messages.
    """
    t0 = _center_traction(background, crack)[0]
    return _leading_factor(crack, background.mat) * _conormal_profile(background, crack, t0)


def potential_energy_difference(
    g: BoundaryField, u_eps_trace: BoundaryField, u0_trace: BoundaryField
) -> float:
    """Energy change J_eps - J0 = -1/2 Int (u_eps - u0) . g dsigma."""
    return -0.5 * (u_eps_trace - u0_trace).dot(g)


def energy_asymptotic(crack: CrackSegment, sif: StressIntensity, mat: LameParams) -> float:
    """Leading energy change -(pi eps^2 / 4E)(K_I^2 + K_II^2)."""
    return -np.pi * crack.length**2 / (4.0 * mat.E) * sif.magnitude_squared


def topological_derivative(sif: StressIntensity, mat: LameParams) -> float:
    """Energy sensitivity per unit crack area pi eps^2: -(1/4E)(K_I^2+K_II^2)."""
    return -sif.magnitude_squared / (4.0 * mat.E)


def orientation_scan(background: BackgroundField, points, angles) -> tuple:
    """Stress intensities and topological derivatives of trial cracks at
    `points` (p, 2) for every tangent angle of `angles` (k,), in radians.

    Returns (sif, td, best): the StressIntensity of (p, k) arrays, td (p, k)
    and, per point, the index of the first angle whose td lies within
    1e-12 max|td| of that point's minimum.  Where td is flat over the angles
    (pure shear), a bare argmin would pick whichever rounding came out
    lowest.
    """
    directions = np.array([np.cos(angles), np.sin(angles)]).T  # (k, 2)
    stress = background.stress(points)[:, None]  # against every angle
    sif = stress_intensity_from_stress(stress, directions)
    td = topological_derivative(sif, background.mat)
    tol = 1e-12 * np.max(np.abs(td), axis=1, keepdims=True)
    best = np.argmax(td <= np.min(td, axis=1, keepdims=True) + tol, axis=1)
    return sif, td, best


class _Sweep(tuple):
    """The cracks of one sweep, each tested by mesh.require_clearance on
    `mesh` (sweep_cracks)."""

    def __new__(cls, mesh: BoundaryMesh, cracks):
        sweep = super().__new__(cls, cracks)
        sweep.mesh = mesh
        return sweep


def sweep_cracks(mesh: BoundaryMesh, center, direction, lengths) -> tuple:
    """One CrackSegment per length at a fixed center and direction, each
    passing mesh.require_clearance: a sweep is refused whole, and before any
    solver exists.  The tuple returned is what length_sweep takes.  Raises
    ValueError for an empty list of lengths."""
    cracks = _Sweep(mesh, (CrackSegment(center, direction, length) for length in lengths))
    if not cracks:
        raise ValueError("length sweep needs at least one crack length")
    for crack in cracks:
        mesh.require_clearance(crack.clearance_points, crack.length)
    return cracks


def length_sweep(background: BackgroundField, cracks, **solve_kwargs) -> list:
    """Solve each crack of a sweep: the tuple sweep_cracks returned on the
    background's mesh, one crack per length at a fixed center and direction.

    One record (a dict) per crack: "solution" (the CrackedSolution), "eps",
    "K1", "K2", "sup_w", "sup_leading" (of the neumann_perturbation formula),
    "sup_mismatch", "energy_diff", "energy_formula" (energy_asymptotic) and
    "energy_mismatch".  solve_kwargs go to solve_cracked.  sweep_cracks has
    tested each crack's clearance, so none is tested again, and the sweep
    was refused whole before the first solve; the stress intensity and the
    leading term depend only on the center and direction, so the crack-line
    traction t0 at the center (one crack-frame pass at eta = 0, giving K1,
    K2 and the leading term) and the Neumann row are each evaluated once.
    Raises ValueError for cracks that are not such a tuple.
    """
    if not isinstance(cracks, _Sweep) or cracks.mesh is not background.mesh:
        raise ValueError(
            "length_sweep takes the cracks sweep_cracks returned on the background's mesh"
        )
    mat = background.mat
    # sweep_cracks has tested every crack on this mesh: each is admitted
    # as tested, so the crack ops below test none of them again
    _admit(background, cracks[0], tested=True)
    t0, sif = _center_traction(background, cracks[0])
    profile = _conormal_profile(background, cracks[0], t0)
    records = []
    for crack in cracks:
        _admit(background, crack, tested=True)
        solution = solve_cracked(background, crack, **solve_kwargs)
        leading = _leading_factor(crack, mat) * profile
        diff = potential_energy_difference(
            background.g, solution.trace_values(), background.trace
        )
        formula = energy_asymptotic(crack, sif, mat)
        records.append({
            "solution": solution,
            "eps": crack.length,
            "K1": sif.k1,
            "K2": sif.k2,
            "sup_w": solution.w.sup_norm(),
            "sup_leading": float(np.max(np.abs(leading))),
            "sup_mismatch": float(np.max(np.abs(solution.w.values - leading))),
            "energy_diff": diff,
            "energy_formula": formula,
            "energy_mismatch": abs(diff - formula),
        })
    return records


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares slope of log(value) against log(eps)."""

    slope: float | None
    n_points: int
    note: str


def fit_log_slope(eps_values, values, noise_floor: float = 0.0) -> SlopeFit:
    """Fit a log-log decay rate, ignoring points at or below the noise floor.

    Mismatch values that have hit solver tolerance carry no decay
    information; they are dropped before fitting, so zero values are legal.
    With fewer than two usable points the slope is None and the note says
    why.  eps must be positive and finite, and values finite (ValueError).
    """
    eps_values = np.asarray(eps_values, dtype=float)
    values = np.asarray(values, dtype=float)
    if eps_values.shape != values.shape or eps_values.ndim != 1:
        raise ValueError("need matching 1-d arrays of eps and values")
    if not (np.all((eps_values > 0.0) & (eps_values < np.inf)) and np.all(np.isfinite(values))):
        raise ValueError("need positive finite eps and finite values")
    keep = values > noise_floor
    n = int(np.count_nonzero(keep))
    if n < 2:
        return SlopeFit(slope=None, n_points=n, note="below_noise_floor")
    slope = float(np.polyfit(np.log(eps_values[keep]), np.log(values[keep]), 1)[0])
    note = "ok" if n == keep.size else f"dropped {keep.size - n} points below noise floor"
    return SlopeFit(slope=slope, n_points=n, note=note)
