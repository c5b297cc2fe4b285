"""Full complements of mutually unbiased bases at the symplectic level.

A full complement in dimension p^n is a set of p^n + 1 compatibility groups
whose nonzero vectors partition Z_p^2n, i.e. a Lagrangian spread. The field
construction produces one directly from GF(p^n); the search enumerates all
Lagrangians and solves the exact cover problem.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator

import numpy as np

from . import errors
from .errors import CensusViolationError, GuardExceededError, MubkitError, guard_memory
from .groups import (CompatGroup, MubType, _check_qupit, _member_keys, _qupit_rank,
                     classify_basis, lex_digits, qupit_factor_distribution)
from .zplinalg import ExtField, Mat, SystemParams, rref, solve_affine

FIELD_DIM_GUARD = 625
# errors.BLOCK_BYTES sizes each batch: enumerate_lagrangians makes its tuples
# 2n^2 int64 per Lagrangian at a time (about what its list of row keys takes;
# 512 Lagrangians at (3,4)) and _cover_masks its masks a p^n x 2n int64
# member product and a packed p^2n-bit row each (21 rows at (3,4), 1 at
# (5,4)), so neither holds a second copy of the list; verify_spread holds one
# batch of masks beside its running union, and the class checks one int64
# stack of n x 2n generator matrices


@dataclass(frozen=True)
class Complement:
    params: SystemParams
    classes: tuple[CompatGroup, ...]


def field_spread(params: SystemParams) -> Complement:
    """The standard spread from GF(p^n): the vertical class {(0|z)} plus one
    graph class {(x | S_a x)} per field element a, with S_a the trace Gram
    matrix of multiplication by a in the polynomial basis."""
    p, n = params.p, params.n
    if params.dim > FIELD_DIM_GUARD:
        raise GuardExceededError(
            f"field construction capped at dimension {FIELD_DIM_GUARD}, got {params.dim}")
    field = ExtField(p, n)
    basis = [field.element(p ** i) for i in range(n)]  # 1, x, ..., x^(n-1)
    pair_products = [[field.mul(basis[i], basis[j]) for j in range(n)] for i in range(n)]
    matrices: list[Mat] = []
    vertical = tuple(
        tuple(1 if c == n + r else 0 for c in range(2 * n)) for r in range(n))
    matrices.append(vertical)
    for a in field.elements():
        gram = [[field.trace(field.mul(a, pair_products[i][j])) for j in range(n)]
                for i in range(n)]
        rows = []
        for i in range(n):
            left = tuple(1 if c == i else 0 for c in range(n))
            rows.append(left + tuple(gram[i]))
        matrices.append(tuple(rows))
    return Complement(params, tuple(CompatGroup(params, m) for m in sorted(matrices)))


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class SpreadReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def _class_stacks(params: SystemParams, matrices: list[Mat]) -> Iterator[tuple[int, np.ndarray]]:
    """The generator matrices as int64 stacks of errors.BLOCK_BYTES, each
    with the index of its first matrix. The tests on a stack make products of
    about 1.5 times its bytes; a 263 kB (2,8) stack with its products left
    enough freed heap resident to raise the peak RSS of a search-prove
    benchmark pass by 0.3 MB."""
    step = max(1, errors.BLOCK_BYTES // (2 * params.n ** 2 * 8))
    for lo in range(0, len(matrices), step):
        yield lo, np.array(matrices[lo:lo + step], dtype=np.int64)


def _in_rref(m: np.ndarray, p: int) -> np.ndarray:
    """Which matrices of the stack rref leaves unchanged at full rank: entries
    in [0, p), leading entries in rising columns, and each leading column a
    unit column, so no row is zero."""
    k, rows, _ = m.shape
    lead = (m != 0).argmax(axis=2)  # column 0 for a zero row, whose pivot reads 0
    pivots = np.take_along_axis(m, np.broadcast_to(lead[:, None], (k, rows, rows)), axis=2)
    return (((0 <= m) & (m < p)).all(axis=(1, 2)) & (np.diff(lead, axis=1) > 0).all(axis=1)
            & (pivots == np.eye(rows, dtype=np.int64)).all(axis=(1, 2)))


def first_bad_class(c: Complement) -> str | None:
    """The first class that is not a Lagrangian in canonical rref form, as
    "class i: rank", "class i: not in canonical rref form" or
    "class i: not isotropic"; None when every class is one. Form (and with
    it rank n) and isotropy are tested on whole class stacks; only the first
    class out of form is reduced on its own, to tell rank from form."""
    p, n = c.params.p, c.params.n
    matrices = [cls.matrix for cls in c.classes]
    for lo, m in _class_stacks(c.params, matrices):
        x, z = m[:, :, :n], m[:, :, n:]
        form = x @ z.swapaxes(1, 2) - z @ x.swapaxes(1, 2)
        form %= p
        canonical = _in_rref(m, p)
        bad = np.flatnonzero(~canonical | form.any(axis=(1, 2)))
        if len(bad):
            idx = lo + int(bad[0])
            if canonical[bad[0]]:
                return f"class {idx}: not isotropic"
            if len(rref(matrices[idx], p)[1]) != n:
                return f"class {idx}: rank"
            return f"class {idx}: not in canonical rref form"
    return None


def verify_spread(c: Complement) -> SpreadReport:
    """Symplectic verification: class count, each class Lagrangian, and the
    nonzero vectors exactly covered. A failed check goes into the report;
    GuardExceededError is raised when the cover union would pass MEMORY_GUARD."""
    p, n = c.params.p, c.params.n
    checks: list[CheckResult] = []
    want = p ** n + 1
    checks.append(CheckResult(
        "class count", len(c.classes) == want,
        f"{len(c.classes)} classes, expected {want}"))
    bad = first_bad_class(c)
    checks.append(CheckResult(
        "classes Lagrangian", bad is None, bad or "all classes rank n and isotropic"))
    # every class's keys count toward the cover. Five ints or arrays of p^2n
    # bits live at most (the union, a batch's last mask and the next's first,
    # its packed row and the bytes int.from_bytes copies; or at the first
    # collision the union, its mask and packed row, their shared bits and one
    # less than those), counted as six for 32-bit words of 30-bit digits,
    # beside (5n + 4) p^n int64 of member keys.
    guard_memory(6 * ((p ** (2 * n) + 7) // 8) + (5 * n + 4) * p ** n * 8,
                 f"the cover union at p = {p}, n = {n}")
    matrices = [cls.matrix for cls in c.classes]
    union = 0
    collision = None  # (earlier class, first class to share a vector with it, lowest shared key)
    for idx, mask in enumerate(_cover_masks(c.params, matrices)):
        if collision is None and (shared := union & mask):
            # the lowest set bit: subtracting 1 turns it to 0 and the zeros below it to 1
            key = (shared - 1).bit_count() - shared.bit_count() + 1
            del shared  # the guard counts it only while the key is read
            other = next(j for j, m in enumerate(matrices) if key in _member_keys(c.params, m))
            collision = (other, idx, key)
        union |= mask
    universe = p ** (2 * n) - 1
    covered = union.bit_count()
    checks.append(CheckResult(
        "pairwise disjoint", collision is None,
        "no shared nonzero vectors" if collision is None else
        f"classes {collision[0]} and {collision[1]} share vector key {collision[2]}"))
    checks.append(CheckResult(
        "exact cover", collision is None and covered == universe,
        f"{covered} of {universe} nonzero vectors covered"))
    return SpreadReport(tuple(checks))


# ---------------------------------------------------------------------------
# census


@dataclass(frozen=True)
class PurityCensus:
    """Per qupit counts of classes where the qupit is pure or entangled."""

    pure: tuple[int, ...]
    entangled: tuple[int, ...]
    identity_tally: tuple[int, ...]  # non-identity classes' identity factors per qupit


def purity_census(c: Complement) -> PurityCensus:
    """Count pure and entangled classes per qupit and check the census:
    each qupit pure in exactly p + 1 classes, entangled in p^n - p.

    A qupit's kind is the rank of its generator columns (x_i | z_i) mod p
    (paper rule 1), read on whole class stacks by the reader that
    qupit_factor_distribution uses: rank 1 is pure, rank 2 entangled, and a
    rank 0 column pair goes to qupit_factor_distribution, which raises on it.
    Each class's identity factor count is its factor multiplicity, p^(n-1)
    pure and p^(n-2) entangled, so once the census holds, the non-identity
    members with an identity factor at a qupit number p^(2n-2) - 1 over all
    classes."""
    p, n = c.params.p, c.params.n
    pure = np.zeros(n, dtype=np.int64)
    entangled = np.zeros(n, dtype=np.int64)
    for lo, m in _class_stacks(c.params, [cls.matrix for cls in c.classes]):
        m %= p
        ranks = np.empty((len(m), n), dtype=np.int8)
        for i in range(n):
            ranks[:, i] = _qupit_rank(m, p, i)[0]
        for k, i in np.argwhere(ranks == 0).tolist():
            qupit_factor_distribution(c.classes[lo + k], i)  # raises on a zero column
        entangled += (ranks == 2).sum(axis=0)
        pure += (ranks == 1).sum(axis=0)
    want_pure = p + 1
    want_ent = p ** n - p
    for i in range(n):
        if pure[i] != want_pure or entangled[i] != want_ent:
            raise CensusViolationError(
                f"qupit {i}: pure in {pure[i]} classes, entangled in {entangled[i]}, "
                f"expected {want_pure} and {want_ent}")
    return PurityCensus((want_pure,) * n, (want_ent,) * n, (p ** (2 * n - 2) - 1,) * n)


def average_purity(c: Complement, qupit: int) -> Fraction:
    """Exact average of the qupit's purity over all classes of the complement."""
    _check_qupit(qupit, c.params.n)
    census = purity_census(c)
    return Fraction(census.pure[qupit], len(c.classes))


# ---------------------------------------------------------------------------
# distribution


@dataclass(frozen=True)
class Distribution:
    counts: dict[str, int]
    per_basis: tuple[MubType, ...]


def complement_distribution(c: Complement) -> Distribution:
    per_basis = tuple(classify_basis(cls) for cls in c.classes)
    counts: dict[str, int] = {}
    for t in per_basis:
        counts[t.label] = counts.get(t.label, 0) + 1
    return Distribution(counts, per_basis)


# ---------------------------------------------------------------------------
# Lagrangian enumeration and spread search


def lagrangian_count(params: SystemParams) -> int:
    total = 1
    for i in range(1, params.n + 1):
        total *= params.p ** i + 1
    return total


def _enumeration_bytes(params: SystemParams) -> int:
    """The most enumerate_lagrangians holds at once, counted as one batch and
    2n^2 + 5n + 40 int64 per Lagrangian: 2n^2 for the forms and z-blocks of
    its largest cell, 5n for the rows' keys, the copies that make the row
    table and the tuple's row pointers, and 40 for its sort index, list slot,
    tuple header and share of the row table. An enumeration's VmHWM growth
    measured 322 to 420 bytes per Lagrangian at (5,3), (7,3), (2,5) and
    (3,4), and 1.1 MB at (2,3)."""
    n = params.n
    return errors.BLOCK_BYTES + lagrangian_count(params) * (2 * n * n + 5 * n + 40) * 8


def _subspaces(p: int, n: int, k: int) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Every k dimensional subspace of Z_p^n once, as its pivot columns and
    its k x n rref basis."""
    for pivots in combinations(range(n), k):
        free = np.array([(i, c) for i in range(k) for c in range(pivots[i] + 1, n)
                         if c not in pivots], dtype=np.int64).reshape(-1, 2).T
        for digits in lex_digits(p, free.shape[1]):
            basis = np.eye(n, dtype=np.int64)[list(pivots)]
            basis[free[0], free[1]] = digits
            yield pivots, basis


def enumerate_lagrangians(params: SystemParams) -> list[Mat]:
    """All Lagrangian subspaces of Z_p^2n in canonical order, one cell at a time.

    A Lagrangian L is fixed by its x-projection U, of dimension k, and a
    symmetric k x k form S: L = {(u, S u + w) : u in U, w in U^perp}. With
    U's rref basis B (pivots P) and U^perp's rref basis W (pivots Q), the
    canonical rref of L is the rows (B | S R) stacked over the rows (0 | W),
    where R = J - J[:, Q] W and J has a 1 at (i, P_i). R is zero on Q and
    B R^T = I (off Q, R is the inverse transpose of B's columns there), so
    S R is the one z-block with zeros on Q whose form B (S R)^T is S.
    The cell of U holds one Lagrangian per S, p^(k(k+1)/2) of them from one
    batched product, so nothing is made twice and the count is
    prod_i (1 + p^i) = sum_k [n choose k]_p p^(k(k+1)/2).

    Each cell yields its rows as base-p keys, not as matrices. The list is
    made from the sorted keys, and equal rows share one tuple from a table of
    the distinct rows: at (2,4), 165 row tuples serve 2295 Lagrangians of
    4 rows each. When that would hold more than MEMORY_GUARD,
    GuardExceededError is raised before the first cell.
    """
    p, n = params.p, params.n
    total = lagrangian_count(params)
    guard_memory(_enumeration_bytes(params),
                 f"an enumeration of {total} Lagrangians at p = {p}, n = {n}")
    # a row's key reads it as a base-p numeral, entry 0 most significant, so
    # rows of keys sort as their matrices do in tuple order: row-major, by
    # entry, the order of sorted() on n x 2n matrices
    powers = p ** np.arange(2 * n - 1, -1, -1, dtype=np.int64)
    keys = []
    for k in range(n + 1):
        upper = np.triu_indices(k)
        forms = np.zeros((p ** len(upper[0]), k, k), dtype=np.int64)
        forms[:, upper[0], upper[1]] = forms[:, upper[1], upper[0]] = lex_digits(p, len(upper[0]))
        for pivots, basis in _subspaces(p, n, k):
            _, null = solve_affine(basis.tolist(), [0] * k, n, p)  # spans U^perp
            perp, q = rref(null, p)
            perp = np.array(perp, dtype=np.int64).reshape(n - k, n)
            select = np.eye(n, dtype=np.int64)[list(pivots)]
            z = forms @ ((select - select[:, list(q)] @ perp) % p)
            z %= p
            cell = np.empty((len(forms), n), dtype=np.int64)  # the rows' keys
            cell[:, :k] = basis @ powers[:n] + z @ powers[n:]
            cell[:, k:] = perp @ powers[n:]
            keys.append(cell)
    del forms, z, cell  # the largest cell's, which the list no longer needs
    keys = np.concatenate(keys)
    order = np.lexsort(keys.T[::-1])  # lexsort keys on the last column first
    # one tuple per distinct row, shared by every Lagrangian that holds it
    # (np.unique would import numpy.ma, 13 ms on its first call)
    distinct = np.sort(keys, axis=None)
    distinct = distinct[np.diff(distinct, prepend=-1) != 0]
    table = dict(zip(distinct.tolist(),
                     map(tuple, (distinct[:, None] // powers % p).tolist())))
    out: list[Mat] = []
    rows = max(1, errors.BLOCK_BYTES // (2 * n * n * 8))
    for lo in range(0, total, rows):
        out += [tuple(map(table.__getitem__, m)) for m in keys[order[lo:lo + rows]].tolist()]
    return out


def _cover_masks(params: SystemParams, lagrangians: list[Mat]) -> Iterator[int]:
    """Each Lagrangian's nonzero member keys as one int, bit k for key k.

    The member keys of a batch of Lagrangians come from one product, and
    their bits are OR-ed straight into packed rows of p^2n bits; a batch takes
    as many Lagrangians as errors.BLOCK_BYTES holds of their int64 products
    and packed rows. The masks are yielded in order, one batch at a time."""
    p, n = params.p, params.n
    width = (p ** (2 * n) + 7) // 8
    rows = max(1, errors.BLOCK_BYTES // (p ** n * 2 * n * 8 + width))
    for lo in range(0, len(lagrangians), rows):
        keys = _member_keys(params, lagrangians[lo:lo + rows])
        packed = np.zeros((len(keys), width), dtype=np.uint8)
        np.bitwise_or.at(packed, (np.arange(len(keys))[:, None], keys >> 3),
                         (1 << (keys & 7)).astype(np.uint8))
        packed[:, 0] &= 0xFE  # the zero vector is in every class
        for row in packed:
            yield int.from_bytes(row.tobytes(), "little")


def search_spreads(params: SystemParams) -> Iterator[Complement]:
    """Every spread exactly once, by exact cover over all Lagrangians.

    The classes of a spread are picked as an increasing chain of canonical
    indices, so spreads come out in lex order and the lex-first spread comes
    first. A node stops trying classes once the live ones left (those after
    the current one that miss every covered vector) can no longer cover all
    uncovered vectors; only branches that hold no spread are cut. The search
    is one loop over a stack of levels, one per class of the chain, so the
    p^n + 2 levels of an n = 1 search need no Python frame each. Past
    errors.NODE_GUARD search nodes, GuardExceededError is raised, and before
    the enumeration when the search would hold more than MEMORY_GUARD.
    """
    p, n = params.p, params.n
    total = lagrangian_count(params)
    # the enumeration, and beside it p^2n-bit ints of 4 bytes per 30 bits
    # and a header: one per Lagrangian (its mask) and two per level of the
    # chain (covered, and a tail that only the level being scanned holds, so
    # this counts more than is held). Then pointers: seven per Lagrangian
    # (the masks' list, the root's live list and its ints), and per level a
    # live list of at most every Lagrangian and one more chain entry
    levels = p ** n + 2
    guard_memory(_enumeration_bytes(params)
                 + (total + 2 * levels) * 4 * (p ** (2 * n) // 30 + 9)
                 + 8 * (7 * total + levels * (total + levels)),
                 f"a spread search over {total} Lagrangians at p = {p}, n = {n}")
    guard = errors.NODE_GUARD
    lagrangians = enumerate_lagrangians(params)
    masks = list(_cover_masks(params, lagrangians))
    full = (1 << p ** (2 * n)) - 2
    nodes = 0
    # one level per class of the chain: its live list, its covered int and
    # the branches on it left to try
    stack: list[tuple[list[int], int, Iterator[int]]] = []
    chain: list[int] = []
    live, covered = list(range(len(lagrangians))), 0
    while True:
        nodes += 1
        if nodes > guard:
            raise GuardExceededError(f"spread search passed the node guard {guard}")
        if covered == full:
            # the chain rises through the canonical list, so it is sorted
            yield Complement(params, tuple(CompatGroup(params, lagrangians[i]) for i in chain))
        else:
            # a branch on live[j] can end in a spread only if covered and the
            # classes live[j:] reach full, that is only for j <= stop
            stop, tail = len(live), covered
            while tail != full and stop:
                stop -= 1
                tail |= masks[live[stop]]
            if tail == full:
                stack.append((live, covered, iter(range(stop + 1))))
            del tail
        # the next branch, from the deepest level that has one left
        while stack and (j := next(stack[-1][2], None)) is None:
            stack.pop()
        if not stack:
            return
        live, covered, _ = stack[-1]
        chain[len(stack) - 1:] = [live[j]]
        mask = masks[live[j]]
        live, covered = [c for c in live[j + 1:] if not masks[c] & mask], covered | mask


# ---------------------------------------------------------------------------
# serialization


def to_json_dict(c: Complement) -> dict:
    classes = []
    for cls in c.classes:
        gens = [{"x": list(row[:c.params.n]), "z": list(row[c.params.n:])}
                for row in cls.matrix]
        classes.append({"gens": gens})
    return {"p": c.params.p, "n": c.params.n, "classes": classes}


def _json_int(v) -> int:
    if type(v) is not int:  # bool, float and str are not integers here
        raise ValueError(f"expected an integer, got {v!r}")
    return v


def from_json_dict(data: dict) -> Complement:
    try:
        params = SystemParams(_json_int(data["p"]), _json_int(data["n"]))
        matrices = []
        for entry in data["classes"]:
            rows = []
            for gen in entry["gens"]:
                x = [_json_int(v) for v in gen["x"]]
                z = [_json_int(v) for v in gen["z"]]
                if len(x) != params.n or len(z) != params.n:
                    raise ValueError("generator length mismatch")
                if any(not 0 <= v < params.p for v in x + z):
                    raise ValueError("exponent out of range")
                rows.append(tuple(x) + tuple(z))
            if len(rows) != params.n:
                raise ValueError("wrong generator count")
            matrices.append(tuple(rows))
    except (KeyError, TypeError, ValueError) as exc:
        raise MubkitError(f"malformed complement data: {exc}") from exc
    # a full-rank class is stored in its canonical rref form; a rank-deficient
    # one is kept as given for verify_spread to report. Only classes that the
    # stacked form test rejects are reduced.
    for lo, m in _class_stacks(params, matrices):
        for idx in lo + np.flatnonzero(~_in_rref(m, params.p)):
            red, pivots = rref(matrices[idx], params.p)
            if len(pivots) == params.n:
                matrices[idx] = red
    return Complement(params, tuple(CompatGroup(params, m) for m in matrices))


def dumps(c: Complement) -> str:
    return json.dumps(to_json_dict(c), indent=2, sort_keys=True) + "\n"


def distribution_json_dict(dist: Distribution) -> dict:
    per_basis = [{"label": t.label,
                  "variant": [[q + 1 for q in block] for block in t.pattern]}
                 for t in dist.per_basis]
    return {"counts": dict(sorted(dist.counts.items())), "per_basis": per_basis}
