"""Exception types shared across the package."""

__all__ = [
    "CrackBemError",
    "EquilibriumViolated",
    "SolveFailed",
    "CrackTooCloseToBoundary",
    "MeshError",
    "ConfigError",
]


class CrackBemError(Exception):
    """Base class for all package-specific errors."""


class EquilibriumViolated(CrackBemError):
    """Raised when boundary traction data has nonzero rigid-motion moments."""


class SolveFailed(CrackBemError):
    """Raised when a linear solve or fixed-point iteration does not converge."""


class CrackTooCloseToBoundary(CrackBemError):
    """Raised when a crack violates the interior-separation preconditions."""


class MeshError(CrackBemError):
    """Raised for invalid boundary discretizations."""


class ConfigError(CrackBemError):
    """Raised for invalid experiment configuration files."""
