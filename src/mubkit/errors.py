"""Exception types shared across the package, the one memory guard, the one
search-node guard and the one scratch budget of a batched step."""

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
    """A command would pass a guard: a size, a search-node count or MEMORY_GUARD."""


class InfeasibleError(MubkitError):
    """No solution satisfies the requested constraints."""


# the most bytes one command may hold; each array or int that grows with d is
# checked against it by guard_memory where it is made
MEMORY_GUARD = 1 << 30
# the most nodes one spread or stoich search may visit, read when it starts.
# The spread search visits about 100k nodes per second on a 2-vCPU box (a
# first hit at (2,4) takes 332, the whole (2,3) sweep 6520), the stoich DFS
# about 300k (listing or extremizing (5,4) takes 598,352, (3,4) 18,566;
# counting them, stopped at the last free label, 3215 and 531)
NODE_GUARD = 10_000_000
# the most bytes of scratch one batched step takes, read as its loop starts: a
# block of Hilbert rows or columns, a class stack, a batch of masks or tuples
BLOCK_BYTES = 1 << 17


def guard_memory(need: int, what: str, hint: str = "") -> None:
    if need > MEMORY_GUARD:
        raise GuardExceededError(
            f"{what} would hold {need} bytes, over the memory guard {MEMORY_GUARD}{hint}")
