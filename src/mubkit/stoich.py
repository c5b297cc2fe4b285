"""Integer bookkeeping of full complements.

Every full complement must distribute its p^n + 1 bases over the named types
so that the per-column n-body totals come out right. That gives a small
linear system over nonnegative integers; this module builds the profile
tables, enumerates, counts and extremizes the solutions with one DFS, reduces
the system to the quoted equation forms, and splits type counts into
per-variant counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from operator import itemgetter, mul

from . import errors
from .errors import GuardExceededError, InfeasibleError, MubkitError
from .groups import type_rows
from .zplinalg import SystemParams

# exact solution counts of the full (P4 allowed) systems, frozen after
# computation; re-derived by the solver in the test suite
P3_N4_FULL_SOLUTION_COUNT = 6005
P5_N4_FULL_SOLUTION_COUNT = 198379


@dataclass
class ProfileTable:
    """Per type n-body rows, complement-wide column totals, and class count."""

    params: SystemParams
    labels: tuple[str, ...]
    rows: dict[str, tuple[int, ...]]
    totals: tuple[int, ...]
    total_count: int


def profile_table(params: SystemParams) -> ProfileTable:
    """The n-body rows of groups.type_rows, 1 to 4 qupits, with the
    complement-wide column totals."""
    p, n = params.p, params.n
    if not 1 <= n <= 4:
        raise ValueError(f"profile tables cover 1 to 4 qupits, got n={n}")
    rows = {label: profile for label, (_, profile) in type_rows(params).items()}
    q = p * p - 1
    totals = tuple(comb(n, k) * q ** k for k in range(1, n + 1))
    return ProfileTable(params, tuple(rows), rows, totals, p ** n + 1)


# ---------------------------------------------------------------------------
# solution enumeration


def _system(table: ProfileTable, forbid: tuple[str, ...], fixes: dict[str, int]):
    """Equations over the labels left after forbid; each label's fixed count or None."""
    for lab in forbid:
        if lab not in table.labels:
            raise ValueError(f"cannot forbid unknown label {lab!r}")
    labels = [l for l in table.labels if l not in forbid]
    for lab, v in fixes.items():
        if lab not in labels:
            raise ValueError(f"cannot fix label {lab!r}")
        if v < 0:
            raise ValueError(f"fixed count for {lab} must be nonnegative")
    coeffs = [[table.rows[l][c] for l in labels] for c in range(table.params.n)]
    coeffs.append([1] * len(labels))
    rhs = list(table.totals) + [table.total_count]
    if any(v < 0 for row in coeffs + [rhs] for v in row):
        raise ValueError("profile table rows and totals must be nonnegative")
    return labels, coeffs, rhs, [fixes.get(l) for l in labels]


def _closed_form(coeffs: list[list[int]], fixed: list[int | None]):
    """The depth at which a count stops, and its count of the last free label.

    The unfixed labels are solved over Q, the row operations kept as each
    row's multipliers L of the equations, with the pivot labels taken from the
    end of the label order, so every unfixed label after the last free one, t,
    is a pivot. With r the residuals at t's depth less the fixed labels after
    t, scaled to integers each row of a pivot after t reads d x = L r - a t,
    and every other row L r = 0. t is nonnegative and at most the total row's
    residual; each pivot row keeps x nonnegative on an interval set by the
    sign of a, and integral on a t = L r (mod d). With no free label the count
    stops at the root with a = 0 and t = 0.
    """
    neq = len(coeffs)
    unknown = [j for j, v in enumerate(fixed) if v is None]
    rows = [[Fraction(coeffs[e][j]) for j in unknown] + [Fraction(e == k) for k in range(neq)]
            for e in range(neq)]
    pivots = []  # positions in unknown; row i holds the i-th pivot found
    for j in reversed(range(len(unknown))):
        r = len(pivots)
        at = next((i for i in range(r, neq) if rows[i][j]), None)
        if at is None:
            continue
        lead = rows[at]
        rows[at], rows[r] = rows[r], [v / lead[j] for v in lead]
        for i, row in enumerate(rows):
            if i != r and row[j]:
                rows[i] = [a - row[j] * b for a, b in zip(row, rows[r])]
        pivots.append(j)
    t = next((j for j in reversed(range(len(unknown))) if j not in pivots), None)
    stop = 0 if t is None else unknown[t]
    # the fixed labels after t, one constant per equation; t itself is unfixed
    const = [sum(c * v for c, v in zip(row[stop:], fixed[stop:]) if v is not None)
             for row in coeffs]
    zero, last = [], []
    mod = 1
    for i, row in enumerate(rows):
        a = Fraction(0) if t is None else row[t]
        d = lcm(a.denominator, *(v.denominator for v in row[len(unknown):]))
        mult = [int(v * d) for v in row[len(unknown):]]
        scaled = (mult, sum(map(mul, mult, const)))
        if i >= len(pivots) or t is not None and pivots[i] < t:
            zero.append(scaled)
            continue
        # a t = b (mod d) holds iff g | b and t = b/g inv (mod d/g),
        # g = gcd(a, d); CRT folds these in row order into one t = res (mod
        # mod), each with h = gcd(mod, d/g) and the inverse of mod/h modulo
        # d/(g h), fixed by the rows alone
        a = int(a * d)
        g = gcd(a, d)
        m = d // g
        h = gcd(mod, m)
        last.append((*scaled, a, g, m, pow(a // g, -1, m), h, pow(mod // h, -1, m // h), mod))
        mod = mod // h * m

    def tail(residuals: list[int]) -> int:
        """The values of t that keep every pivot label after it a
        nonnegative integer."""
        if any(sum(map(mul, mult, residuals)) != c for mult, c in zero):
            return 0
        lo, hi, res = 0, 0 if t is None else residuals[-1], 0
        for mult, c, a, g, m, inv, h, crt, before in last:
            b = sum(map(mul, mult, residuals)) - c
            if a > 0:
                hi = min(hi, b // a)
            elif a < 0:
                lo = max(lo, -(b // -a))
            elif b < 0:
                return 0
            if b % g:
                return 0
            r = b // g * inv % m
            if (r - res) % h:
                return 0
            res += (r - res) // h * crt % (m // h) * before
        return max(0, (hi - res) // mod - (lo - 1 - res) // mod)

    return stop, tail


def _search(table: ProfileTable, forbid: tuple[str, ...] = (),
            fixes: dict[str, int] | None = None, count: bool = False):
    """DFS in the canonical label order with budget pruning.

    Whenever no later label can still feed an equation, that equation pins the
    current label exactly, so trailing variables are determined, not searched.
    As entries are nonnegative and the total row is all ones, each label is
    bounded by hi and no residual goes negative. It yields every solution, or
    with count set stops at the last free label and yields, per prefix, how
    many values of that label complete one (see _closed_form). Past
    errors.NODE_GUARD nodes, GuardExceededError is raised.
    """
    labels, coeffs, rhs, fixed = _system(table, tuple(forbid), fixes or {})
    m = len(labels)
    neq = len(coeffs)
    later_pos = [[any(coeffs[e][j] > 0 for j in range(i + 1, m))
                  for i in range(m)] for e in range(neq)]
    stop, tail = _closed_form(coeffs, fixed) if count else (None, None)
    acc = [0] * m
    nodes = 0
    guard = errors.NODE_GUARD

    def rec(i: int, residuals: list[int]):
        nonlocal nodes
        nodes += 1
        if nodes > guard:
            raise GuardExceededError(f"stoich search passed the node guard {guard}")
        if i == stop:
            yield tail(residuals)
            return
        if i == m:
            if all(v == 0 for v in residuals):
                yield dict(zip(labels, acc))
            return
        hi = residuals[-1]  # the bound from the all-ones total row
        forced = fixed[i]
        for e in range(neq):
            ce = coeffs[e][i]
            if ce:
                hi = min(hi, residuals[e] // ce)
            if not later_pos[e][i]:
                if ce == 0:
                    if residuals[e]:
                        return
                elif residuals[e] % ce:
                    return
                elif forced is None:
                    forced = residuals[e] // ce
                elif forced != residuals[e] // ce:
                    return
        if forced is not None and forced > hi:
            return
        for v in range(hi + 1) if forced is None else (forced,):
            acc[i] = v
            yield from rec(i + 1, [residuals[e] - coeffs[e][i] * v for e in range(neq)])

    yield from rec(0, rhs)


def enumerate_solutions(table: ProfileTable, forbid: tuple[str, ...] = (),
                        fixes: dict[str, int] | None = None) -> list[dict[str, int]]:
    """All nonnegative integer solutions, lexicographic in the label order."""
    return list(_search(table, forbid, fixes))


def count_solutions(table: ProfileTable, forbid: tuple[str, ...] = (),
                    fixes: dict[str, int] | None = None) -> int:
    """How many solutions enumerate_solutions lists, from the same DFS stopped
    at the last free label, whose values it counts in closed form."""
    return sum(_search(table, forbid, fixes, count=True))


def extremize(table: ProfileTable, label: str, direction: str = "min",
              forbid: tuple[str, ...] = (),
              fixes: dict[str, int] | None = None) -> dict[str, int]:
    """The first solution attaining the extreme count of one label."""
    if direction not in ("min", "max"):
        raise ValueError(f"direction must be min or max, got {direction!r}")
    if label in forbid:
        raise ValueError(f"label {label!r} is forbidden")
    if label not in table.labels:
        raise ValueError(f"unknown label {label!r}, expected one of " + ", ".join(table.labels))
    pick = min if direction == "min" else max
    # min and max keep the first extreme they meet, the lex-first solution
    best = pick(_search(table, forbid, fixes), key=itemgetter(label), default=None)
    if best is None:
        raise InfeasibleError(
            f"no distribution satisfies the constraints (forbid={list(forbid)}, fixes={fixes})")
    return best


# ---------------------------------------------------------------------------
# reduced equations


@dataclass(frozen=True)
class DerivedEquation:
    """An integer linear identity that every distribution must satisfy."""

    name: str
    coeffs: tuple[tuple[str, int], ...]  # zero coefficients omitted
    rhs: int

    def as_dict(self) -> dict[str, int]:
        return dict(self.coeffs)


def _make_eq(name: str, labels, coeff_list, rhs: int, divisor: int = 1) -> DerivedEquation:
    """The identity coeff_list . labels = rhs over divisor, in lowest terms.

    divisor must divide every coefficient and rhs exactly.
    """
    if any(c % divisor for c in coeff_list) or rhs % divisor:
        raise MubkitError(f"equation {name} did not reduce to integers")
    g = gcd(*coeff_list, rhs)
    if g > 1:
        coeff_list = [c // g for c in coeff_list]
        rhs //= g
    pairs = tuple((lab, c) for lab, c in zip(labels, coeff_list) if c)
    return DerivedEquation(name, pairs, rhs)


# column combinations quoted for the reduced 4 qupit systems: each entry maps
# column index (0 based) to its multiplier, with a common divisor
_REDUCTION_COMBOS = {
    2: (("separable-sum", {0: 1, 2: 1}, 8), ("total", {0: -1, 1: 2, 2: 1}, 12)),
    3: (("two-body-reduced", {0: -3, 1: 1}, 4), ("total", {0: -6, 1: 2, 2: 1}, 32)),
    5: (("two-body-reduced", {0: -64, 1: 8, 2: 1}, 48), ("total", {0: -22, 1: 2, 2: 1}, 96)),
}


def derived_equations(params: SystemParams) -> tuple[DerivedEquation, ...]:
    """Reduce the column system to the standard quoted identities.

    For n = 3 this includes the exchange rule, the single lattice direction
    of the solution set (one product basis plus two GHZ bases trade for three
    separable-Bell bases). For n = 4 and p in {2, 3, 5} the quoted column
    combinations are evaluated and the final balance laws derived from them.
    """
    table = profile_table(params)
    p, n = params.p, params.n
    labels = list(table.labels)
    cols = [[table.rows[l][c] for l in labels] for c in range(n)]
    out: list[DerivedEquation] = []
    out.append(_make_eq("one-body", labels, cols[0], table.totals[0]))
    if n == 3:
        # [columns; total] has rank 2 on three labels, so the cross product of
        # the one-body column and the all-ones total row spans its homogeneous
        # solutions
        a0, a1, a2 = cols[0]
        vec = [a1 - a2, a2 - a0, a0 - a1]
        if not any(vec) or any(sum(v * c for v, c in zip(vec, row)) for row in cols):
            raise MubkitError("the 3 qupit system should have one exchange direction")
        # orient so the largest magnitude coefficient is positive
        sign = 1 if max(vec, key=abs) > 0 else -1
        out.append(_make_eq("exchange", labels, [sign * v for v in vec], 0))
    if n == 4 and p in _REDUCTION_COMBOS:
        derived: dict[str, DerivedEquation] = {}
        for name, combo, divisor in _REDUCTION_COMBOS[p]:
            coeffs = [sum(combo.get(e, 0) * cols[e][i] for e in range(n))
                      for i in range(len(labels))]
            rhs = sum(combo.get(e, 0) * table.totals[e] for e in range(n))
            eq = _make_eq(name, labels, coeffs, rhs, divisor)
            derived[name] = eq
            out.append(eq)
        total = derived["total"]
        if total.as_dict() != {lab: 1 for lab in labels} or total.rhs != table.total_count:
            raise MubkitError("the total combination did not reduce to the class count")
        if p == 2:
            sep = derived["separable-sum"].as_dict()
            coeffs = [1 - sep.get(lab, 0) for lab in labels]
            out.append(_make_eq("paired-remainder", labels, coeffs,
                                total.rhs - derived["separable-sum"].rhs))
        else:
            # eliminate C4 between the 2-body reduction and the total count
            two = derived["two-body-reduced"].as_dict()
            c4 = two.get("C4", 0)
            coeffs = [c4 - two.get(lab, 0) for lab in labels]
            rhs = c4 * total.rhs - derived["two-body-reduced"].rhs
            if coeffs[labels.index("P4")] < 0:
                coeffs = [-c for c in coeffs]
                rhs = -rhs
            out.append(_make_eq("p4-balance", labels, coeffs, rhs))
    return tuple(out)


# ---------------------------------------------------------------------------
# variants


def _pattern(blocks) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def variant_assignment(params: SystemParams, solution: dict[str, int]) -> dict:
    """Split type counts into per-variant counts so every qupit is pure in
    exactly p + 1 bases. Returns {label: {pattern: count}}; raises when no
    split exists, and ValueError on a negative count."""
    for lab, v in solution.items():
        if v < 0:
            raise ValueError(f"count for {lab} must be nonnegative")
    p, n = params.p, params.n
    target = p + 1
    get = lambda lab: solution.get(lab, 0)
    if n == 2:
        if get("PI") != target:
            raise InfeasibleError(f"PI count must be {target} on 2 qupits")
        return {"PI": {_pattern([[0], [1]]): get("PI")},
                "B": {_pattern([[0, 1]]): get("B")}}
    if n == 3:
        per = target - get("PI")
        if per < 0 or get("SB") != 3 * per:
            raise InfeasibleError(
                f"SB count {get('SB')} incompatible with PI={get('PI')}")
        sb = {}
        for i in range(3):
            rest = [j for j in range(3) if j != i]
            sb[_pattern([[i], rest])] = per
        return {"PI": {_pattern([[0], [1], [2]]): get("PI")},
                "SB": sb,
                "G3": {_pattern([[0, 1, 2]]): get("G3")}}
    if n == 4:
        # With t = p + 1 - PI, qupit i is pure in the a_i S2B bases whose Bell
        # pair leaves it out and in SG3 variant i, so that variant takes
        # t - a_i >= 0. The a_i sum to 2 S2B, so SG3 = 4t - 2 S2B and
        # S2B <= 2t, and whenever both hold a split exists. Over the pairs
        # 01, 02, 03, 12, 13, 23 this split is the lex-first: 03 and 12 alone
        # hold any S2B <= 2t, so 01 and 02 take nothing, and each later part
        # takes the least value the parts after it can still complete, bounded
        # by a_0 <= t (12 + 13 + 23), then by a_1, a_2 <= t (23 and 13 each
        # at most t - s03).
        t, s = target - get("PI"), get("S2B")
        if not 0 <= s <= 2 * t or get("SG3") != 4 * t - 2 * s:
            raise InfeasibleError(
                "no per-variant split keeps every qupit pure exactly p + 1 times")
        s03 = max(0, s - t)
        s12 = max(0, s - s03 - 2 * (t - s03))
        s13 = max(0, s - s03 - s12 - (t - s03))
        split = (0, 0, s03, s12, s13, s - s03 - s12 - s13)
        pairs = list(combinations(range(4), 2))
        s2b = {}
        for q, count in zip(pairs, split):
            rest = [j for j in range(4) if j not in q]
            s2b[_pattern([[rest[0]], [rest[1]], list(q)])] = count
        sg3 = {}
        for i in range(4):
            rest = [j for j in range(4) if j != i]
            sg3[_pattern([[i], rest])] = t - sum(c for q, c in zip(pairs, split) if i not in q)
        pairings = ([(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)])
        bb = {_pattern([list(a), list(b)]): 0 for a, b in pairings}
        bb[_pattern([[0, 1], [2, 3]])] = get("BB")  # purity blind, any split works
        out = {"PI": {_pattern([[0], [1], [2], [3]]): get("PI")},
               "S2B": s2b, "SG3": sg3, "BB": bb}
        whole = _pattern([[0, 1, 2, 3]])
        for lab in ("G4", "C4", "P4"):
            if lab in solution:
                out[lab] = {whole: get(lab)}
        return out
    raise ValueError(f"variants cover 2 to 4 qupits, got n={n}")
