"""Integer distribution systems: tables, solvers, reduced equations, variants."""

from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from operator import itemgetter

import pytest

import mubkit.errors
import mubkit.stoich
from mubkit.errors import NODE_GUARD, GuardExceededError, InfeasibleError
from mubkit.stoich import (
    P3_N4_FULL_SOLUTION_COUNT,
    P5_N4_FULL_SOLUTION_COUNT,
    ProfileTable,
    _closed_form,
    _search,
    _system,
    count_solutions,
    derived_equations,
    enumerate_solutions,
    extremize,
    profile_table,
    variant_assignment,
)
from mubkit.zplinalg import SystemParams


def _table(p, n):
    return profile_table(SystemParams(p, n))


# ---------------------------------------------------------------------------
# profile tables


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rows_and_totals_sum(p, n):
    table = _table(p, n)
    q = p * p - 1
    for label, row in table.rows.items():
        assert len(row) == n
        assert sum(row) == p ** n - 1, label
        assert all(v >= 0 for v in row)
    assert table.totals == tuple(comb(n, k) * q ** k for k in range(1, n + 1))
    assert sum(table.totals) == p ** (2 * n) - 1
    assert table.total_count == p ** n + 1


def test_label_order():
    assert _table(3, 4).labels == ("PI", "S2B", "SG3", "BB", "G4", "C4", "P4")
    assert _table(2, 4).labels == ("PI", "S2B", "SG3", "BB", "G4", "C4")
    assert _table(3, 3).labels == ("PI", "SB", "G3")
    assert _table(3, 2).labels == ("PI", "B")
    assert _table(3, 1).labels == ("PI",)


def test_include_p4_control():
    # P4 is a row exactly when p >= 3; forbid=("P4",) is the way to leave it out
    for p in (2, 3, 5):
        assert ("P4" in _table(p, 4).rows) == (p >= 3), p
    with pytest.raises(ValueError):
        _table(2, 5)


def test_qubit_grid():
    rows = _table(2, 4).rows
    assert rows == {
        "PI": (4, 6, 4, 1),
        "S2B": (2, 4, 6, 3),
        "SG3": (1, 3, 7, 4),
        "BB": (0, 6, 0, 9),
        "G4": (0, 6, 0, 9),
        "C4": (0, 2, 8, 5),
    }
    assert _table(2, 4).totals == (12, 54, 108, 81)


def test_qutrit_and_ququint_grids():
    rows = _table(3, 4).rows
    assert {k: v[:3] for k, v in rows.items()} == {
        "PI": (8, 24, 32),
        "S2B": (4, 12, 32),
        "SG3": (2, 6, 32),
        "BB": (0, 16, 0),
        "G4": (0, 12, 8),
        "C4": (0, 4, 24),
        "P4": (0, 0, 32),
    }
    assert rows["G4"] == (0, 12, 8, 60)
    assert rows["P4"] == (0, 0, 32, 48)
    assert _table(3, 4).totals[:3] == (32, 384, 2048)
    rows = _table(5, 4).rows
    assert {k: v[:3] for k, v in rows.items()} == {
        "PI": (16, 96, 256),
        "S2B": (8, 40, 192),
        "SG3": (4, 12, 160),
        "BB": (0, 48, 0),
        "G4": (0, 24, 48),
        "C4": (0, 8, 80),
        "P4": (0, 0, 96),
    }
    assert _table(5, 4).totals[:3] == (96, 3456, 55296)


def test_small_grids():
    assert _table(2, 2).rows == {"PI": (2, 1), "B": (0, 3)}
    assert _table(2, 2).totals == (6, 9)
    assert _table(3, 3).rows == {"PI": (6, 12, 8), "SB": (2, 8, 16),
                                 "G3": (0, 6, 20)}


# ---------------------------------------------------------------------------
# solution enumeration


def _brute_force(table):
    """Independent oracle: bounded nested loops over every label."""
    labels = list(table.labels)
    eqs = [[table.rows[l][c] for l in labels] for c in range(table.params.n)]
    eqs.append([1] * len(labels))
    rhs = list(table.totals) + [table.total_count]
    bounds = []
    for i in range(len(labels)):
        b = min(r // e[i] for e, r in zip(eqs, rhs) if e[i] > 0)
        bounds.append(b)
    out = []

    def rec(i, counts):
        if i == len(labels):
            if all(sum(e[j] * counts[j] for j in range(len(labels))) == r
                   for e, r in zip(eqs, rhs)):
                out.append(dict(zip(labels, counts)))
            return
        for v in range(bounds[i] + 1):
            rec(i + 1, counts + [v])

    rec(0, [])
    return out


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4)])
def test_solver_matches_brute_force(p, n):
    table = _table(p, n)
    got = enumerate_solutions(table)
    assert got == _brute_force(table)
    assert count_solutions(table) == len(got)


def test_solutions_satisfy_every_equation():
    for p, n in ((2, 4), (3, 4), (5, 4)):
        table = _table(p, n)
        forbid = () if p == 2 else ("P4",)
        for sol in enumerate_solutions(table, forbid=forbid):
            for c in range(n):
                assert sum(table.rows[l][c] * sol[l] for l in sol) == table.totals[c]
            assert sum(sol.values()) == table.total_count


@pytest.mark.parametrize("p,count", [(2, 4), (3, 5), (5, 7), (7, 9)])
def test_three_qupit_counts(p, count):
    table = _table(p, 3)
    sols = enumerate_solutions(table)
    assert len(sols) == count == p + 2
    # the family is PI = p + 1 - k, SB = 3k, G3 determined, k = 0..p+1
    want = [{"PI": p + 1 - k, "SB": 3 * k, "G3": p ** 3 - p - 2 * k}
            for k in range(p + 2)]
    assert sorted(sols, key=lambda s: -s["PI"]) == want


def test_three_qubit_table_values():
    sols = enumerate_solutions(_table(2, 3))
    triples = {(s["PI"], s["SB"], s["G3"]) for s in sols}
    assert triples == {(3, 0, 6), (2, 3, 4), (1, 6, 2), (0, 9, 0)}
    sols = enumerate_solutions(_table(3, 3))
    triples = {(s["PI"], s["SB"], s["G3"]) for s in sols}
    assert triples == {(4, 0, 24), (3, 3, 22), (2, 6, 20), (1, 9, 18), (0, 12, 16)}


def test_four_qupit_counts():
    assert count_solutions(_table(2, 4)) == 48
    assert count_solutions(_table(3, 4), forbid=("P4",)) == 11
    assert count_solutions(_table(5, 4), forbid=("P4",)) == 0
    assert enumerate_solutions(_table(5, 4), forbid=("P4",)) == []


def test_full_counts_match_frozen_constants():
    assert count_solutions(_table(3, 4)) == P3_N4_FULL_SOLUTION_COUNT == 6005
    assert P3_N4_FULL_SOLUTION_COUNT > 5000
    assert count_solutions(_table(5, 4)) == P5_N4_FULL_SOLUTION_COUNT == 198379


def test_counts_past_the_listing_dfs():
    # (7,4) takes 24 s and (11,4) passes the node guard when every solution
    # is visited; n = 3 holds one free label, so any p is one closed form
    assert count_solutions(_table(7, 4)) == 1_889_244
    assert count_solutions(_table(11, 4)) == 39_438_047
    for p in (10007, 2 ** 31 - 1):
        assert count_solutions(_table(p, 3)) == p + 2


def test_node_guard_counts_every_dfs_node(monkeypatch):
    # counting (3,4) visits 531 nodes and (5,4) 3215, the DFS stopped at G4;
    # listing or extremizing (3,4) visits 18,566 and (5,4) 598,352: all well
    # inside
    assert NODE_GUARD >= 10 * 598_352
    monkeypatch.setattr(mubkit.errors, "NODE_GUARD", 531)
    assert count_solutions(_table(3, 4)) == 6005
    monkeypatch.setattr(mubkit.errors, "NODE_GUARD", 530)
    with pytest.raises(GuardExceededError, match="stoich search passed the node guard 530"):
        count_solutions(_table(3, 4))
    monkeypatch.setattr(mubkit.errors, "NODE_GUARD", 18_566)
    assert len(enumerate_solutions(_table(3, 4))) == 6005
    assert extremize(_table(3, 4), "P4", "max")["P4"] == 60
    monkeypatch.setattr(mubkit.errors, "NODE_GUARD", 18_565)
    for run in (enumerate_solutions, lambda t: extremize(t, "P4", "max")):
        with pytest.raises(GuardExceededError, match="stoich search passed the node guard 18565"):
            run(_table(3, 4))


def test_node_guard_pins_the_5_4_extremize(monkeypatch):
    # the node count that errors.NODE_GUARD and the README quote
    monkeypatch.setattr(mubkit.errors, "NODE_GUARD", 598_352)
    assert extremize(_table(5, 4), "P4")["P4"] == 206
    monkeypatch.setattr(mubkit.errors, "NODE_GUARD", 598_351)
    with pytest.raises(GuardExceededError, match="stoich search passed the node guard 598351$"):
        extremize(_table(5, 4), "P4")


def _count_suffixes(p, prefix_sum, two_body_rhs, bb_c, g4_c, c4_c, p4_c, total):
    """Closed form count over (BB, G4, C4, P4) given the first three counts,
    independent of the search order and pruning of the solver."""
    remaining = total - prefix_sum
    hits = 0
    for bb in range(two_body_rhs // bb_c + 1):
        for g4 in range((two_body_rhs - bb_c * bb) // g4_c + 1):
            rest = two_body_rhs - bb_c * bb - g4_c * g4
            s = remaining - bb - g4
            if p4_c == 0:
                if rest % c4_c:
                    continue
                c4 = rest // c4_c
                p4 = s - c4
                if c4 >= 0 and p4 >= 0:
                    hits += 1
            else:
                # solve c4_c C4 + p4_c P4 = rest, C4 + P4 = s
                num = rest - p4_c * s
                den = c4_c - p4_c
                if num % den:
                    continue
                c4 = num // den
                p4 = s - c4
                if c4 >= 0 and p4 >= 0:
                    hits += 1
    return hits


def test_frozen_counts_by_independent_reduction():
    # p = 3: 4 BB + 3 G4 + C4 = 72 with total 82; p = 5: 8 BB + 5 G4 +
    # 3 C4 + 2 P4 = 1600 with total 626
    for p, bbc, g4c, c4c, p4c, rhs, want in (
            (3, 4, 3, 1, 0, 72, P3_N4_FULL_SOLUTION_COUNT),
            (5, 8, 5, 3, 2, 1600, P5_N4_FULL_SOLUTION_COUNT)):
        one_body = 4 * (p + 1)
        total = p ** 4 + 1
        hits = 0
        for a in range(one_body // 4 + 1):
            for b in range((one_body - 4 * a) // 2 + 1):
                c = one_body - 4 * a - 2 * b
                hits += _count_suffixes(p, a + b + c, rhs, bbc, g4c, c4c, p4c, total)
        assert hits == want


def test_fixes():
    sols = enumerate_solutions(_table(2, 4), fixes={"PI": 3})
    assert all(s["PI"] == 3 for s in sols)
    assert len(sols) == 3  # BB + G4 = 2 splits three ways
    assert count_solutions(_table(2, 4), fixes={"PI": 5}) == 0
    with pytest.raises(ValueError):
        enumerate_solutions(_table(2, 4), fixes={"XYZ": 1})
    with pytest.raises(ValueError):
        enumerate_solutions(_table(2, 4), fixes={"PI": -1})
    with pytest.raises(ValueError):
        enumerate_solutions(_table(2, 4), forbid=("XYZ",))


def _branchy_solutions(table, forbid=(), fixes=None):
    """Oracle: the DFS as it was before its unreachable branches went, with
    the optional upper bound, the negative candidate and residual scans, and
    the trailing reset of the count."""
    labels = [l for l in table.labels if l not in forbid]
    coeffs = [[table.rows[l][c] for l in labels] for c in range(table.params.n)]
    coeffs.append([1] * len(labels))
    rhs = list(table.totals) + [table.total_count]
    fixes = dict(fixes or {})
    m = len(labels)
    neq = len(coeffs)
    later_pos = [[any(coeffs[e][j] > 0 for j in range(i + 1, m))
                  for i in range(m)] for e in range(neq)]
    acc = [0] * m

    def rec(i, residuals):
        if i == m:
            if all(v == 0 for v in residuals):
                yield dict(zip(labels, acc))
            return
        hi = None
        forced = None
        for e in range(neq):
            ce = coeffs[e][i]
            if ce > 0:
                b = residuals[e] // ce
                hi = b if hi is None else min(hi, b)
            if not later_pos[e][i]:
                if ce == 0:
                    if residuals[e]:
                        return
                elif residuals[e] % ce:
                    return
                else:
                    v = residuals[e] // ce
                    if forced is None:
                        forced = v
                    elif forced != v:
                        return
        fixed = fixes.get(labels[i])
        if fixed is not None:
            if forced is not None and forced != fixed:
                return
            forced = fixed
        if forced is not None:
            candidates = (forced,)
        else:
            candidates = range((hi if hi is not None else 0) + 1)
        for v in candidates:
            if v < 0 or (hi is not None and v > hi):
                continue
            nxt = [residuals[e] - coeffs[e][i] * v for e in range(neq)]
            if any(x < 0 for x in nxt):
                continue
            acc[i] = v
            yield from rec(i + 1, nxt)
        acc[i] = 0

    yield from rec(0, rhs)


def _forbid_fix_sets(table):
    p, last = table.params.p, table.labels[-1]
    return (((), {}), ((last,), {}), ((), {"PI": 1}),
            ((last,), {"PI": p + 1}), ((), {"PI": 0, last: 0}))


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 3), (5, 3), (2, 4), (3, 4)])
def test_solver_matches_branchy_oracle(p, n):
    table = _table(p, n)
    for forbid, fixes in _forbid_fix_sets(table):
        want = list(_branchy_solutions(table, forbid, fixes))
        assert enumerate_solutions(table, forbid, fixes) == want, (forbid, fixes)
        assert count_solutions(table, forbid, fixes) == len(want), (forbid, fixes)
        for label in table.labels:
            if label in forbid:
                continue
            for direction, pick in (("min", min), ("max", max)):
                best = pick(want, key=lambda s: s[label], default=None)
                if best is None:
                    with pytest.raises(InfeasibleError):
                        extremize(table, label, direction, forbid, fixes)
                else:
                    assert extremize(table, label, direction, forbid, fixes) == best


@pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 5) for n in (2, 3, 4)])
def test_count_matches_dfs(p, n):
    # the closed form against the DFS that lists, infeasible sets included:
    # at (5,4) with P4 forbidden no distribution is left
    table = _table(p, n)
    for forbid, fixes in _forbid_fix_sets(table):
        want = sum(1 for _ in _search(table, forbid, fixes))
        assert count_solutions(table, forbid, fixes) == want, (forbid, fixes)


def _count_walk_oracle(table, forbid=(), fixes=None):
    """Oracle: the count as a second walk. The fixed counts are substituted
    and the system solved once over Q, its pivot labels taken from the end of
    the label order; a DFS walks the free labels but the last, carrying each
    pivot row's scaled right side, and counts the last one per prefix in
    closed form, as an interval cut by congruences joined by CRT."""
    labels = [l for l in table.labels if l not in forbid]
    fixes = fixes or {}
    coeffs = [[table.rows[l][c] for l in labels] for c in range(table.params.n)]
    coeffs.append([1] * len(labels))
    rhs = list(table.totals) + [table.total_count]
    for j, lab in enumerate(labels):
        if lab in fixes:
            rhs = [b - row[j] * fixes[lab] for row, b in zip(coeffs, rhs)]
    if min(rhs) < 0:
        return 0
    unknown = [j for j, lab in enumerate(labels) if lab not in fixes]
    rows = [[Fraction(row[j]) for j in unknown] + [Fraction(b)] for row, b in zip(coeffs, rhs)]
    pivots = set()
    for j in reversed(range(len(unknown))):
        r = len(pivots)
        at = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if at is None:
            continue
        lead = rows[at]
        rows[at], rows[r] = rows[r], [v / lead[j] for v in lead]
        for i, row in enumerate(rows):
            if i != r and row[j]:
                rows[i] = [a - row[j] * b for a, b in zip(row, rows[r])]
        pivots.add(j)
    if any(row[-1] for row in rows[len(pivots):]):
        return 0
    free = [j for j in range(len(unknown)) if j not in pivots]
    scaled = []
    for row in rows[:len(pivots)]:
        d = lcm(*(row[j].denominator for j in free), row[-1].denominator)
        scaled.append((d, int(row[-1] * d), [int(row[j] * d) for j in free]))
    cols = [[coeffs[e][unknown[j]] for e in range(len(coeffs))] for j in free]
    steps = [[a[i] for _, _, a in scaled] for i in range(len(free))]
    last = []
    mod = 1
    for d, _, a in scaled:
        at = a[-1] if a else 0
        g = gcd(at, d)
        m = d // g
        h = gcd(mod, m)
        last.append((at, g, m, pow(at // g, -1, m), h, pow(mod // h, -1, m // h), mod))
        mod = mod // h * m

    def tail(hi, partial):
        lo, res = 0, 0
        for b, (at, g, m, inv, h, crt, before) in zip(partial, last):
            if at > 0:
                hi = min(hi, b // at)
            elif at < 0:
                lo = max(lo, -(b // -at))
            elif b < 0:
                return 0
            if b % g:
                return 0
            r = b // g * inv % m
            if (r - res) % h:
                return 0
            res += (r - res) // h * crt % (m // h) * before
        return max(0, (hi - res) // mod - (lo - 1 - res) // mod)

    def rec(i, residuals, partial):
        col, step = cols[i], steps[i]
        hi = min(r // c for r, c in zip(residuals, col) if c)
        if i == len(free) - 2:
            return sum(tail(residuals[-1] - v, [b - s * v for b, s in zip(partial, step)])
                       for v in range(hi + 1))
        return sum(rec(i + 1, [r - c * v for r, c in zip(residuals, col)],
                       [b - s * v for b, s in zip(partial, step)])
                   for v in range(hi + 1))

    partial = [b for _, b, _ in scaled]
    if len(free) < 2:
        return tail(rhs[-1] if free else 0, partial)
    return rec(0, rhs, partial)


def _constraint_sets(table):
    """No constraint, each label forbidden, each fixed at 0, 1, 2, p + 1 and
    3p, each pair forbidden, and each forbidden with another fixed at 1."""
    p, labels = table.params.p, table.labels
    yield (), {}
    for lab in labels:
        yield (lab,), {}
        for v in (0, 1, 2, p + 1, 3 * p):
            yield (), {lab: v}
    for pair in combinations(labels, 2):
        yield pair, {}
    for lab in labels:
        for other in labels:
            if other != lab:
                yield (lab,), {other: 1}


@pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 5) for n in (1, 2, 3, 4)] + [(7, 3)])
def test_count_matches_count_walk_oracle(p, n):
    # the count from the listing DFS against the second walk it replaced,
    # infeasible sets included
    table = _table(p, n)
    for forbid, fixes in _constraint_sets(table):
        want = _count_walk_oracle(table, forbid, fixes)
        assert count_solutions(table, forbid, fixes) == want, (forbid, fixes)


def _recursive_search_oracle(table, forbid=(), fixes=None, count=False):
    """Oracle: the stoich DFS as it was first written, a recursive generator
    that yields dicts (tails with count set), with the same pruning and node
    guard as _search."""
    labels, coeffs, rhs, fixed = _system(table, tuple(forbid), fixes or {})
    m = len(labels)
    neq = len(coeffs)
    later_pos = [[any(coeffs[e][j] > 0 for j in range(i + 1, m))
                  for i in range(m)] for e in range(neq)]
    stop, tail = _closed_form(coeffs, fixed) if count else (None, None)
    acc = [0] * m
    nodes = 0
    guard = mubkit.errors.NODE_GUARD

    def rec(i, residuals):
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
        hi = residuals[-1]
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


@pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 5) for n in (1, 2, 3, 4)] + [(7, 3)])
def test_search_loop_matches_recursive_oracle(p, n, monkeypatch):
    # the loop over a stack of levels against the recursive generator it
    # replaced, infeasible sets included. Each set's tuples are listed once
    # and replayed to enumerate_solutions and to extremize, which picks over
    # them for every label
    table = _table(p, n)
    for forbid, fixes in _constraint_sets(table):
        labels = [l for l in table.labels if l not in forbid]
        want = list(_recursive_search_oracle(table, forbid, fixes))
        got = list(_search(table, forbid, fixes))
        assert got == [tuple(s.values()) for s in want], (forbid, fixes)
        assert count_solutions(table, forbid, fixes) == len(want), (forbid, fixes)
        tails = list(_recursive_search_oracle(table, forbid, fixes, count=True))
        assert list(_search(table, forbid, fixes, count=True)) == tails, (forbid, fixes)
        monkeypatch.setattr(mubkit.stoich, "_search", lambda *a: iter(got))
        assert enumerate_solutions(table, forbid, fixes) == want, (forbid, fixes)
        for label in labels:
            for direction, pick in (("min", min), ("max", max)):
                best = pick(want, key=itemgetter(label), default=None)
                if best is None:
                    with pytest.raises(InfeasibleError):
                        extremize(table, label, direction, forbid, fixes)
                else:
                    assert extremize(table, label, direction, forbid, fixes) == best, \
                        (forbid, fixes, label, direction)
        monkeypatch.undo()


def _guard_boundary(monkeypatch, run):
    """The least NODE_GUARD under which run() raises no GuardExceededError."""
    lo, hi = 1, 1 << 20
    while lo < hi:
        mid = (lo + hi) // 2
        monkeypatch.setattr(mubkit.errors, "NODE_GUARD", mid)
        try:
            run()
            hi = mid
        except GuardExceededError:
            lo = mid + 1
    return lo


@pytest.mark.parametrize("p,n,forbid,fixes", [
    (2, 4, (), {}), (3, 4, (), {"PI": 1}), (3, 4, ("P4",), {}), (5, 3, ("G3",), {}),
    (7, 3, (), {"SB": 8}), (3, 4, (), {"C4": 0})])
def test_search_loop_meets_node_guard_with_oracle(p, n, forbid, fixes, monkeypatch):
    # the loop visits the nodes the recursive generator did, so both raise
    # from the same NODE_GUARD down, listing and counting
    table = _table(p, n)
    for count in (False, True):
        guard = _guard_boundary(
            monkeypatch, lambda: list(_recursive_search_oracle(table, forbid, fixes, count)))
        monkeypatch.setattr(mubkit.errors, "NODE_GUARD", guard)
        list(_search(table, forbid, fixes, count))
        monkeypatch.setattr(mubkit.errors, "NODE_GUARD", guard - 1)
        with pytest.raises(GuardExceededError,
                           match=f"stoich search passed the node guard {guard - 1}$"):
            list(_search(table, forbid, fixes, count))


def test_negative_table_entries_rejected():
    table = _table(2, 3)
    bad = ProfileTable(table.params, table.labels, {**table.rows, "SB": (2, -1, 6)},
                       table.totals, table.total_count)
    with pytest.raises(ValueError, match="nonnegative"):
        count_solutions(bad)
    bad = ProfileTable(table.params, table.labels, table.rows, (-6, 9, 8),
                       table.total_count)
    with pytest.raises(ValueError, match="nonnegative"):
        count_solutions(bad)


def test_enumeration_is_lexicographic():
    sols = enumerate_solutions(_table(2, 4))
    keys = [tuple(s[l] for l in _table(2, 4).labels) for s in sols]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# extrema


def test_g3_minimum():
    for p in (2, 3, 5):
        sol = extremize(_table(p, 3), "G3", "min")
        assert sol["G3"] == p ** 3 - 3 * p - 2
        assert sol["PI"] == 0 and sol["SB"] == 3 * (p + 1)


def test_p4_minima():
    sol = extremize(_table(3, 4), "P4", "min", fixes={"PI": 4})
    assert sol == {"PI": 4, "S2B": 0, "SG3": 0, "BB": 0, "G4": 0, "C4": 72, "P4": 6}
    sol = extremize(_table(5, 4), "P4", "min")
    assert sol == {"PI": 0, "S2B": 0, "SG3": 24, "BB": 0, "G4": 0, "C4": 396, "P4": 206}
    sol = extremize(_table(5, 4), "P4", "min", fixes={"PI": 6})
    assert sol == {"PI": 6, "S2B": 0, "SG3": 0, "BB": 0, "G4": 0, "C4": 360, "P4": 260}


def test_pi_maximum_is_standard():
    for p, n in ((2, 3), (3, 3), (2, 4), (3, 4)):
        sol = extremize(_table(p, n), "PI", "max")
        assert sol["PI"] == p + 1


def test_extremize_errors():
    with pytest.raises(InfeasibleError):
        extremize(_table(5, 4), "C4", "min", forbid=("P4",))
    with pytest.raises(ValueError):
        extremize(_table(2, 4), "PI", "least")
    with pytest.raises(ValueError):
        extremize(_table(3, 4), "P4", "min", forbid=("P4",))
    with pytest.raises(ValueError):
        extremize(_table(2, 4), "XYZ", "min")
    # a bad objective is reported even when the constraints are infeasible
    with pytest.raises(ValueError, match="unknown label"):
        extremize(_table(3, 3), "XYZ", "min", fixes={"PI": 100})
    with pytest.raises(ValueError, match="unknown label"):
        extremize(_table(2, 4), "P4", "min", fixes={"PI": 99})


def _first_strict_improvement(table, label, direction):
    """Oracle: scan the lex-ordered solutions, replacing only on a strict gain."""
    best = None
    for sol in enumerate_solutions(table):
        if (best is None or (direction == "min" and sol[label] < best[label])
                or (direction == "max" and sol[label] > best[label])):
            best = sol
    return best


@pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (2, 4), (3, 4)])
def test_extremize_matches_first_strict_improvement(p, n):
    table = _table(p, n)
    for label in table.labels:
        for direction in ("min", "max"):
            want = _first_strict_improvement(table, label, direction)
            assert extremize(table, label, direction) == want, (label, direction)


# ---------------------------------------------------------------------------
# reduced equations


def _by_name(eqs):
    return {eq.name: (eq.as_dict(), eq.rhs) for eq in eqs}


def test_derived_equations_qubits():
    eqs = _by_name(derived_equations(SystemParams(2, 4)))
    assert eqs["one-body"] == ({"PI": 4, "S2B": 2, "SG3": 1}, 12)
    assert eqs["separable-sum"] == ({"PI": 1, "S2B": 1, "SG3": 1, "C4": 1}, 15)
    assert eqs["total"] == ({l: 1 for l in _table(2, 4).labels}, 17)
    assert eqs["paired-remainder"] == ({"BB": 1, "G4": 1}, 2)


def test_derived_equations_qutrits():
    eqs = _by_name(derived_equations(SystemParams(3, 4)))
    assert eqs["one-body"] == ({"PI": 4, "S2B": 2, "SG3": 1}, 16)
    assert eqs["two-body-reduced"] == ({"BB": 4, "G4": 3, "C4": 1}, 72)
    assert eqs["total"] == ({l: 1 for l in _table(3, 4).labels}, 82)
    assert eqs["p4-balance"] == (
        {"PI": 1, "S2B": 1, "SG3": 1, "BB": -3, "G4": -2, "P4": 1}, 10)


def test_derived_equations_ququints():
    eqs = _by_name(derived_equations(SystemParams(5, 4)))
    assert eqs["one-body"] == ({"PI": 4, "S2B": 2, "SG3": 1}, 24)
    assert eqs["two-body-reduced"] == ({"BB": 8, "G4": 5, "C4": 3, "P4": 2}, 1600)
    assert eqs["total"] == ({l: 1 for l in _table(5, 4).labels}, 626)
    assert eqs["p4-balance"] == (
        {"PI": 3, "S2B": 3, "SG3": 3, "BB": -5, "G4": -2, "P4": 1}, 278)


def test_exchange_rule():
    for p in (2, 3, 5):
        eqs = _by_name(derived_equations(SystemParams(p, 3)))
        assert eqs["one-body"] == ({"PI": 3, "SB": 1}, 3 * (p + 1))
        assert eqs["exchange"] == ({"PI": -1, "SB": 3, "G3": -2}, 0)


def _frac_rref(mat):
    """Gauss-Jordan elimination over the rationals: (reduced rows, pivots)."""
    work = [row[:] for row in mat]
    pivots = []
    r = 0
    for c in range(len(work[0])):
        hit = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if hit is None:
            continue
        work[r], work[hit] = work[hit], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def _exchange_by_rref(table):
    """Oracle: the primitive homogeneous solution of [columns; total] over
    Fraction, oriented so its largest magnitude coefficient is positive."""
    labels = table.labels
    full = [[Fraction(table.rows[l][c]) for l in labels] for c in range(table.params.n)]
    full.append([Fraction(1)] * len(labels))
    red, pivots = _frac_rref(full)
    free = [c for c in range(len(labels)) if c not in pivots]
    assert len(free) == 1
    vec = [Fraction(0)] * len(labels)
    vec[free[0]] = Fraction(1)
    for row, c in zip(red, pivots):
        vec[c] = -row[free[0]]
    denom = 1
    for v in vec:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in vec]
    g = gcd(*ints)
    ints = [c // g for c in ints]
    if max(ints, key=abs) < 0:
        ints = [-c for c in ints]
    return {lab: c for lab, c in zip(labels, ints) if c}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_exchange_rule_matches_rational_elimination(p):
    eqs = _by_name(derived_equations(SystemParams(p, 3)))
    assert eqs["exchange"] == (_exchange_by_rref(_table(p, 3)), 0)


def test_exchange_rule_connects_solutions():
    table = _table(3, 3)
    sols = sorted(enumerate_solutions(table), key=lambda s: s["PI"])
    for a, b in zip(sols, sols[1:]):
        assert (b["PI"] - a["PI"], b["SB"] - a["SB"], b["G3"] - a["G3"]) == (1, -3, 2)


def test_derived_equations_hold_on_solutions():
    for p in (2, 3, 5):
        params = SystemParams(p, 4)
        eqs = derived_equations(params)
        sols = enumerate_solutions(_table(p, 4), fixes={"PI": p + 1})
        assert sols
        for sol in sols:
            for eq in eqs:
                value = sum(c * sol.get(lab, 0) for lab, c in eq.coeffs)
                assert value == eq.rhs, (p, eq.name, sol)


def test_one_body_equation_small_n():
    eqs = _by_name(derived_equations(SystemParams(3, 2)))
    assert eqs["one-body"] == ({"PI": 1}, 4)


# ---------------------------------------------------------------------------
# variants


def test_variants_n2():
    got = variant_assignment(SystemParams(3, 2), {"PI": 4, "B": 6})
    assert got["PI"] == {((0,), (1,)): 4}
    assert got["B"] == {((0, 1),): 6}
    with pytest.raises(InfeasibleError):
        variant_assignment(SystemParams(3, 2), {"PI": 3, "B": 7})


def test_variants_n3():
    got = variant_assignment(SystemParams(2, 3), {"PI": 2, "SB": 3, "G3": 4})
    assert got["SB"] == {((0,), (1, 2)): 1, ((0, 1), (2,)): 1, ((0, 2), (1,)): 1}
    assert got["G3"] == {((0, 1, 2),): 4}
    with pytest.raises(InfeasibleError):
        variant_assignment(SystemParams(2, 3), {"PI": 3, "SB": 3, "G3": 0})


def _pure_tally(params, assignment):
    tally = [0] * params.n
    for per_label in assignment.values():
        for pattern, count in per_label.items():
            for block in pattern:
                if len(block) == 1:
                    tally[block[0]] += count
    return tally


def test_variants_n4():
    params = SystemParams(3, 4)
    solution = {"PI": 2, "S2B": 2, "SG3": 4, "BB": 4, "G4": 0, "C4": 56, "P4": 14}
    got = variant_assignment(params, solution)
    for lab, want in solution.items():
        assert sum(got[lab].values()) == want
    assert _pure_tally(params, got) == [4, 4, 4, 4]
    # the alternative qubit distribution spreads SG3 evenly
    params = SystemParams(2, 4)
    got = variant_assignment(params, {"PI": 0, "S2B": 0, "SG3": 12,
                                      "BB": 2, "G4": 0, "C4": 3})
    assert set(got["SG3"].values()) == {3}
    assert _pure_tally(params, got) == [3, 3, 3, 3]
    # a large p, where a scan over the compositions of S2B would take seconds
    params = SystemParams(101, 4)
    got = variant_assignment(params, {"PI": 0, "S2B": 204, "SG3": 0})
    assert tuple(got["S2B"].values()) == (0, 0, 102, 102, 0, 0)
    assert _pure_tally(params, got) == [102] * 4


def test_variants_n4_infeasible():
    with pytest.raises(InfeasibleError):
        variant_assignment(SystemParams(2, 4), {"PI": 0, "S2B": 0, "SG3": 11,
                                                "BB": 2, "G4": 0, "C4": 4})
    with pytest.raises(ValueError):
        variant_assignment(SystemParams(2, 5), {})


def test_variants_refuse_negative_counts():
    # both returned splits holding a negative count before the check
    for (p, n), solution in (((2, 4), {"PI": -1, "S2B": 0, "SG3": 16}),
                             ((2, 2), {"PI": 3, "B": -7})):
        with pytest.raises(ValueError, match="must be nonnegative"):
            variant_assignment(SystemParams(p, n), solution)


def _variants_n4_scan(params, solution):
    """The n = 4 split by scanning every composition of S2B into six parts,
    as variant_assignment did before it checked the SG3 sum first."""
    target = params.p + 1
    get = lambda lab: solution.get(lab, 0)
    pattern = lambda blocks: tuple(sorted(tuple(sorted(b)) for b in blocks))
    pairs = list(combinations(range(4), 2))

    def compositions(total, k):
        if k == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, k - 1):
                yield (first,) + rest

    for split in compositions(get("S2B"), 6):
        sg3 = [target - get("PI") - sum(split[qi] for qi, q in enumerate(pairs) if i not in q)
               for i in range(4)]
        if min(sg3) < 0 or sum(sg3) != get("SG3"):
            continue
        s2b = {}
        for qi, q in enumerate(pairs):
            rest = [j for j in range(4) if j not in q]
            s2b[pattern([[rest[0]], [rest[1]], list(q)])] = split[qi]
        bb = {pattern([list(a), list(b)]): 0
              for a, b in ([(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)])}
        bb[pattern([[0, 1], [2, 3]])] = get("BB")
        out = {"PI": {pattern([[0], [1], [2], [3]]): get("PI")}, "S2B": s2b,
               "SG3": {pattern([[i], [j for j in range(4) if j != i]]): sg3[i]
                       for i in range(4)},
               "BB": bb}
        for lab in ("G4", "C4", "P4"):
            if lab in solution:
                out[lab] = {pattern([[0, 1, 2, 3]]): get(lab)}
        return out
    raise InfeasibleError("no per-variant split keeps every qupit pure exactly p + 1 times")


def _outcome(fn, params, solution):
    try:
        return fn(params, solution)
    except InfeasibleError as exc:
        return ("InfeasibleError", str(exc))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_variants_n4_match_scan_oracle(p):
    params = SystemParams(p, 4)
    # the 198,379 solutions at (5,4) are too many to scan
    cases = enumerate_solutions(_table(p, 4)) if p < 5 else []
    # wrong SG3 sums, a right sum with PI past p + 1, and two right sums that split
    cases += [{"PI": 0, "S2B": 6, "SG3": 1}, {"PI": 0, "S2B": 4 * (p + 1), "SG3": 0},
              {"PI": p + 2, "S2B": 0, "SG3": 0}, {"PI": p + 2, "S2B": 0, "SG3": -4},
              {"PI": 0, "S2B": 2 * (p + 1), "SG3": 0}, {"PI": 1, "S2B": 3, "SG3": 4 * p - 6}]
    # every PI and S2B around the feasible box, with the SG3 law's count and one past it
    for pi in range(-1, p + 3):
        for s2b in range(-1, 2 * (p + 1) + 2):
            law = 4 * (p + 1 - pi) - 2 * s2b
            cases += [{"PI": pi, "S2B": s2b, "SG3": law + extra} for extra in (0, 1)]
    for sol in cases:
        if min(sol.values()) < 0:  # the scan split these; a count below 0 is refused
            with pytest.raises(ValueError, match="must be nonnegative"):
                variant_assignment(params, sol)
            continue
        assert _outcome(variant_assignment, params, sol) == _outcome(
            _variants_n4_scan, params, sol), sol
