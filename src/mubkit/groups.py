"""Compatibility groups of commuting Pauli operators and their taxonomy.

A compatibility group on n qupits is an abelian group of p^n Pauli operators,
equivalently a Lagrangian (n dimensional totally isotropic) subspace of
Z_p^2n. Each group fixes one orthonormal basis; the functions here read off
everything that basis does at the level of exponent vectors: n-body content,
per qupit factor structure, separability, and the named basis types.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import (DependentGeneratorsError, NonCommutingError,
                     TheoremViolationError, guard_memory)
from .pauli import PauliOp, symplectic_form, symplectic_form_vec
from .zplinalg import Mat, SystemParams, Vec, inv_mod, rref

MUB_LABELS = ("PI", "B", "SB", "G3", "S2B", "SG3", "BB", "G4", "C4", "P4", "OTHER")


def lex_digits(p: int, n: int) -> np.ndarray:
    """All p^n digit tuples in lexicographic order, digit 0 most significant,
    as a new int64 array of shape (p^n, n). Row e holds the generator
    exponents of group member e and the digits of state index e."""
    return np.indices((p,) * n, dtype=np.int64).reshape(n, p ** n).T


@dataclass(frozen=True)
class CompatGroup:
    """A compatibility group, identified by its canonical rref generator matrix:
    n rows of 2n exponents, x-block then z-block."""

    params: SystemParams
    matrix: Mat

    def __post_init__(self) -> None:
        n, m = self.params.n, self.matrix
        if len(m) != n or set(map(len, m)) != {2 * n}:
            raise ValueError(f"a compatibility group on {n} qupits needs {n} rows of {2 * n} "
                             f"exponents, got rows of lengths {[len(row) for row in m]}")

    @cached_property
    def members(self) -> np.ndarray:
        """All p^n member vectors, lexicographic in the exponent tuple; a
        reference table that nothing in mubkit reads."""
        return _member_table(self.params, self.matrix)

    @cached_property
    def member_keys(self) -> frozenset[int]:
        """Base-p keys of all members; a reference set that nothing in mubkit reads."""
        return frozenset(_member_keys(self.params, self.matrix).tolist())


def _member_table(params: SystemParams, matrices) -> np.ndarray:
    """Row e of a generator matrix's table is member e, lex_digits row e times
    the generators mod p; a stack of k matrices gives k tables. The remainder
    is taken in place, so the product is the one table-sized array made."""
    table = lex_digits(params.p, params.n) @ np.asarray(matrices, dtype=np.int64)
    table %= params.p
    return table


def _member_keys(params: SystemParams, matrices) -> np.ndarray:
    """The base-p keys of the members, entry 0 least significant: one row per
    matrix of a stack."""
    return _member_table(params, matrices) @ params.p ** np.arange(2 * params.n, dtype=np.int64)


def validate_generators(params: SystemParams, gens: list[PauliOp] | tuple[PauliOp, ...]) -> Mat:
    """Check pairwise commutation and independence; return the canonical rref matrix."""
    for (i, a), (j, b) in combinations(enumerate(gens), 2):
        if symplectic_form(a, b, params.p):
            raise NonCommutingError(i, j)
    mat, pivots = rref([g.vector() for g in gens], params.p)
    if len(pivots) < len(gens):
        raise DependentGeneratorsError(
            f"{len(gens)} generators span only {len(pivots)} dimensions")
    return mat


def group_from_generators(params: SystemParams, gens: list[PauliOp] | tuple[PauliOp, ...]) -> CompatGroup:
    if len(gens) != params.n:
        raise DependentGeneratorsError(
            f"a compatibility group on {params.n} qupits needs {params.n} generators, got {len(gens)}")
    return CompatGroup(params, validate_generators(params, gens))


def _check_qupit(qupit: int, n: int) -> None:
    if not 0 <= qupit < n:
        raise ValueError(f"qupit must lie in [0, {n}), got {qupit}")


@dataclass(frozen=True)
class FactorDistribution:
    """What one qupit's local factors look like across a whole group."""

    kind: str  # "pure" or "entangled"
    local: tuple[int, int] | None  # primitive local (x, z) for the pure case
    multiplicity: int


def _qupit_rank(m: np.ndarray, p: int, qupit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Paper rule 1 on one qupit of each matrix in an int64 stack m reduced mod
    p, read through views of the stack: the rank of the columns (x_i | z_i)
    and the first nonzero row's (x_i, z_i). The rank is 0 for zero columns, 1
    (pure) when every 2 x 2 minor against that row vanishes, else 2."""
    n = m.shape[2] // 2
    x, z = m[:, :, qupit], m[:, :, n + qupit]
    rows = np.arange(len(m))
    first = ((x != 0) | (z != 0)).argmax(axis=1)
    a, b = x[rows, first], z[rows, first]
    minors = a[:, None] * z - b[:, None] * x
    minors %= p
    rank = minors.any(axis=1) + 1
    rank[(a == 0) & (b == 0)] = 0
    return rank, a, b


def qupit_factor_distribution(group: CompatGroup, qupit: int) -> FactorDistribution:
    """The local factor tally at one qupit, read off the rank of its generator
    columns (x_i | z_i) mod p (paper rule 1): rank 2 gives all p^2 local
    classes, each p^(n-2) times; rank 1 a single operator line, each power
    p^(n-1) times."""
    p, n = group.params.p, group.params.n
    _check_qupit(qupit, n)
    (rank,), (a,), (b,) = _qupit_rank(np.array([group.matrix], dtype=np.int64) % p, p, qupit)
    if rank == 0:
        raise TheoremViolationError(
            f"qupit {qupit} shows 1 local classes with tallies [{p ** n}]")
    if rank == 2:
        return FactorDistribution("entangled", None, p ** (n - 2))
    scale = inv_mod(int(a if a else b), p)  # make the first nonzero exponent 1
    return FactorDistribution("pure", (int(a * scale % p), int(b * scale % p)), p ** (n - 1))


@dataclass(frozen=True)
class MubType:
    label: str
    pattern: tuple[tuple[int, ...], ...]
    profile: tuple[int, ...]


def type_rows(params: SystemParams) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each named type on 1 to 4 qupits as (sorted separation block sizes,
    closed form n-body profile); empty above 4 qupits.

    P4 is a row only for p >= 3: no 4-qubit group is free of 1- and 2-body
    members.
    """
    p, n = params.p, params.n
    r = p - 1
    q = p * p - 1
    if n == 1:
        return {"PI": ((1,), (r,))}
    if n == 2:
        return {"PI": ((1, 1), (2 * r, r * r)), "B": ((2,), (0, q))}
    if n == 3:
        return {
            "PI": ((1, 1, 1), (3 * r, 3 * r * r, r ** 3)),
            "SB": ((1, 2), (r, q, r * q)),
            "G3": ((3,), (0, 3 * r, r * r * (p + 2))),
        }
    if n != 4:
        return {}
    rows = {
        "PI": ((1, 1, 1, 1), (4 * r, 6 * r * r, 4 * r ** 3, r ** 4)),
        "S2B": ((1, 1, 2), (2 * r, 2 * p * r, 2 * r * q, r ** 3 * (p + 1))),
        "SG3": ((1, 3), (r, 3 * r, r * r * (p + 5), r ** 3 * (p + 2))),
        "BB": ((2, 2), (0, 2 * q, 0, q * q)),
        "G4": ((4,), (0, 6 * r, 4 * r * (p - 2), p ** 4 - 4 * p * p + 6 * p - 3)),
        "C4": ((4,), (0, 2 * r, 4 * p * r, p ** 4 - 4 * p * p + 2 * p + 1)),
    }
    if p >= 3:
        rows["P4"] = ((4,), (0, 0, 4 * q, p ** 4 - 4 * p * p + 3))
    return rows


def classify_basis(group: CompatGroup) -> MubType:
    """The type_rows label whose block sizes and n-body profile the group
    shows, or OTHER when none does, read off one census of member supports.

    The census counts the members supported on exactly each qupit subset
    (bit i for qupit i) from one member table, under 5n int64 per member
    with its digit table, supports and masks. Summed by subset size it gives
    the profile. Its subset sums give inside[S], the order of the subgroup
    supported inside S; S splits the group iff inside[S] inside[~S] = p^n,
    and the pattern is the finest partition of the qupits so split.
    """
    p, n = group.params.p, group.params.n
    guard_memory(p ** n * 5 * n * 8, f"the member table of a group on {n} qupits at p = {p}")
    m = _member_table(group.params, group.matrix)
    census = np.bincount(((m[:, :n] != 0) | (m[:, n:] != 0)) @ (1 << np.arange(n)),
                         minlength=1 << n)
    counts = [0] * (n + 1)
    for mask, c in enumerate(census.tolist()):
        counts[mask.bit_count()] += c
    profile = tuple(counts[1:])  # the identity is excluded
    inside = census.reshape((2,) * n)
    for axis in range(n):
        inside = inside.cumsum(axis=axis)
    inside = inside.ravel().tolist()
    full = (1 << n) - 1
    blocks = [full]
    for subset in range(1, 1 << (n - 1)):
        if inside[subset] * inside[full ^ subset] == p ** n:
            blocks = [part for b in blocks for part in (b & subset, b & ~subset) if part]
    pattern = tuple(sorted(tuple(i for i in range(n) if b >> i & 1) for b in blocks))
    key = (tuple(sorted(len(b) for b in pattern)), profile)
    label = next((lab for lab, row in type_rows(group.params).items() if row == key), "OTHER")
    return MubType(label, pattern, profile)


def nbody_profile(group: CompatGroup) -> tuple[int, ...]:
    """Counts of members acting on exactly 1..n qupits; the identity is excluded."""
    return classify_basis(group).profile


def separation_pattern(group: CompatGroup) -> tuple[tuple[int, ...], ...]:
    """Finest partition of the qupits over which the group factorizes."""
    return classify_basis(group).pattern


def random_lagrangian(params: SystemParams, rng: random.Random) -> CompatGroup:
    """A uniformly random compatibility group, by rejection sampled isotropic
    extension: every i - 1 independent isotropic rows admit p^(2n-i+1) - p^(i-1)
    vectors as row i."""
    p, n = params.p, params.n
    rows: list[Vec] = []
    while len(rows) < n:
        v = tuple(rng.randrange(p) for _ in range(2 * n))
        if any(symplectic_form_vec(v, r, p) for r in rows):
            continue
        if len(rref(rows + [v], p)[1]) > len(rows):  # v extends the span
            rows.append(v)
    return CompatGroup(params, rref(rows, p)[0])
