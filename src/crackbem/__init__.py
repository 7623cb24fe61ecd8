"""Boundary-integral toolkit for small interior cracks in 2D elasticity.

Solves the traction problem on a smooth domain with one short straight
crack, couples a spectral boundary-element solver to a Chebyshev solver for
the hypersingular crack equation, and evaluates the closed-form asymptotics
of the boundary perturbation, the energy change, and the topological
derivative.
"""

from . import asymptotics, chebyshev, cracks, errors, forward, kernels, mesh
from .asymptotics import *  # noqa: F403
from .chebyshev import *  # noqa: F403
from .cracks import *  # noqa: F403
from .errors import *  # noqa: F403
from .forward import *  # noqa: F403
from .kernels import *  # noqa: F403
from .mesh import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__ is the one declaration of its public names
__all__ = sorted(
    name
    for module in (asymptotics, chebyshev, cracks, errors, forward, kernels, mesh)
    for name in module.__all__
)
