"""Exception types shared across the package."""

from __future__ import annotations


class MubkitError(Exception):
    """Base class for all package specific errors."""


class PauliParseError(MubkitError, ValueError):
    """Malformed operator text."""


class NonCommutingError(MubkitError):
    """Two generators fail to commute."""

    def __init__(self, i: int, j: int):
        super().__init__(f"generators {i} and {j} do not commute")
        self.i = i
        self.j = j


class DependentGeneratorsError(MubkitError):
    """Generators are linearly dependent as symplectic vectors."""


class TheoremViolationError(MubkitError):
    """An enumerated group does not show the pure/entangled factor dichotomy."""


class ProjectorNotRankOneError(MubkitError):
    """Computed eigenvectors fail the generator eigen-equations, so the
    spectral projectors are not all rank one."""


class SameGroupError(MubkitError):
    """Unbiasedness was requested between two bases of the same group."""


class CensusViolationError(MubkitError):
    """A complement's per-qupit purity counts break the expected census."""


class GuardExceededError(MubkitError):
    """A search space exceeds the configured enumeration guard."""


class InfeasibleError(MubkitError):
    """No solution satisfies the requested constraints."""
