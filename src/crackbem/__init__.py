"""Boundary-integral toolkit for small interior cracks in 2D elasticity.

Solves the traction problem on a smooth domain with one short straight
crack, couples a spectral boundary-element solver to a Chebyshev solver for
the hypersingular crack equation, and evaluates the closed-form asymptotics
of the boundary perturbation, the energy change, and the topological
derivative.
"""

from .asymptotics import (
    SlopeFit,
    StressIntensity,
    energy_asymptotic,
    fit_log_slope,
    length_sweep,
    neumann_perturbation,
    potential_energy_difference,
    stress_intensity,
    stress_intensity_from_stress,
    topological_derivative,
    traction_at_crack,
)
from .chebyshev import (
    ChebyshevUExpansion,
    apply_finite_part_operator,
    chebyshev_u_values,
    gauss_chebyshev_u,
    invert_finite_part_operator,
)
from .cracks import CrackedSolution, CrackSegment, crack_traction_samples, solve_cracked
from .errors import (
    ConfigError,
    CrackBemError,
    CrackTooCloseToBoundary,
    EquilibriumViolated,
    MeshError,
    SolveFailed,
)
from .forward import BackgroundField, BoundarySolver, solve_background
from .kernels import (
    LameParams,
    dlp_traction_gradient,
    dlp_traction_kernel,
    double_conormal_kernel,
    kelvin_gradient,
    kelvin_matrix,
    rigid_motion_basis,
    rot90,
)
from .mesh import (
    BoundaryField,
    BoundaryMesh,
    Disk,
    Ellipse,
    FourierStar,
    build_mesh,
    project_off_rigid_motions,
    rigid_gram,
)

__version__ = "0.1.0"

__all__ = [
    "BackgroundField",
    "BoundaryField",
    "BoundaryMesh",
    "BoundarySolver",
    "ChebyshevUExpansion",
    "ConfigError",
    "CrackBemError",
    "CrackSegment",
    "CrackTooCloseToBoundary",
    "CrackedSolution",
    "Disk",
    "Ellipse",
    "EquilibriumViolated",
    "FourierStar",
    "LameParams",
    "MeshError",
    "SlopeFit",
    "SolveFailed",
    "StressIntensity",
    "apply_finite_part_operator",
    "build_mesh",
    "chebyshev_u_values",
    "crack_traction_samples",
    "dlp_traction_gradient",
    "dlp_traction_kernel",
    "double_conormal_kernel",
    "energy_asymptotic",
    "fit_log_slope",
    "gauss_chebyshev_u",
    "invert_finite_part_operator",
    "kelvin_gradient",
    "kelvin_matrix",
    "length_sweep",
    "neumann_perturbation",
    "potential_energy_difference",
    "project_off_rigid_motions",
    "rigid_gram",
    "rigid_motion_basis",
    "rot90",
    "solve_background",
    "solve_cracked",
    "stress_intensity",
    "stress_intensity_from_stress",
    "topological_derivative",
    "traction_at_crack",
]
