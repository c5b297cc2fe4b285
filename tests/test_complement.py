"""Full complements: construction, verification, census, search, JSON."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import islice, permutations, product
from pathlib import Path

import numpy as np
import pytest

import mubkit.complement
import mubkit.errors
from mubkit.cli import _hilbert_checks, main
from mubkit.complement import (
    CheckResult,
    Complement,
    PurityCensus,
    _cover_masks,
    _subspaces,
    average_purity,
    complement_distribution,
    dumps,
    enumerate_lagrangians,
    field_spread,
    first_bad_class,
    from_json_dict,
    lagrangian_count,
    purity_census,
    search_spreads,
    to_json_dict,
    verify_spread,
)
from mubkit.errors import (CensusViolationError, GuardExceededError, MubkitError,
                           TheoremViolationError)
from mubkit.groups import (CompatGroup, FactorDistribution, _member_table, classify_basis,
                           lex_digits, type_rows)
from mubkit.pauli import symplectic_form_vec
from mubkit.stoich import profile_table
from mubkit.zplinalg import SystemParams, rref, solve_affine

def rank(rows, p):
    return len(rref(rows, p)[1])


FIELD_CASES = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 7), (2, 9),
               (3, 2), (3, 3), (3, 4), (3, 5),
               (5, 2), (5, 3), (5, 4), (7, 2), (7, 3),
               (11, 2), (13, 2), (23, 2)]


@pytest.mark.parametrize("p,n", FIELD_CASES)
def test_field_spread_verifies(p, n):
    comp = field_spread(SystemParams(p, n))
    assert len(comp.classes) == p ** n + 1
    report = verify_spread(comp)
    assert report.ok, [c for c in report.checks if not c.passed]


def test_field_spread_guard():
    with pytest.raises(GuardExceededError):
        field_spread(SystemParams(2, 10))
    with pytest.raises(GuardExceededError):
        field_spread(SystemParams(5, 5))


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 2)])
def test_field_spread_graph_classes(p, n):
    """Non-vertical classes are graphs [I | S] with S symmetric, and the
    difference of any two gram matrices is invertible."""
    comp = field_spread(SystemParams(p, n))
    grams = []
    for cls in comp.classes:
        rows = cls.matrix
        left = tuple(row[:n] for row in rows)
        if all(not any(r) for r in left):
            continue  # the vertical class
        assert left == tuple(tuple(1 if c == i else 0 for c in range(n))
                             for i in range(n))
        s = tuple(row[n:] for row in rows)
        assert s == tuple(zip(*s)), "gram matrix must be symmetric"
        grams.append(s)
    assert len(grams) == p ** n
    for i in range(len(grams)):
        for j in range(i + 1, len(grams)):
            diff = [[(a - b) % p for a, b in zip(ra, rb)]
                    for ra, rb in zip(grams[i], grams[j])]
            assert rank(diff, p) == n


def test_classes_sorted_canonically():
    comp = field_spread(SystemParams(3, 2))
    keys = [tuple(v for row in cls.matrix for v in row) for cls in comp.classes]
    assert keys == sorted(keys)


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
def test_census_and_average_purity(p, n):
    comp = field_spread(SystemParams(p, n))
    census = purity_census(comp)
    assert census.pure == (p + 1,) * n
    assert census.entangled == (p ** n - p,) * n
    assert census.identity_tally == (p ** (2 * n - 2) - 1,) * n
    for q in range(n):
        assert average_purity(comp, q) == Fraction(p + 1, p ** n + 1)
    for q in (-1, n):  # not the last qupit read from the end, nor past it
        with pytest.raises(ValueError, match=r"qupit must lie in \[0, "):
            average_purity(comp, q)


def test_census_violation_detected():
    comp = field_spread(SystemParams(2, 2))
    # duplicating a product class inflates its qupits' pure counts
    mats = [cls.matrix for cls in comp.classes]
    assert mats[0] != mats[1]
    broken = Complement(comp.params,
                        tuple(CompatGroup(comp.params, m) for m in [mats[0]] + mats[:-1]))
    with pytest.raises(CensusViolationError):
        purity_census(broken)


@pytest.mark.parametrize("p,n,max_dim", [(3, 3, 27), (2, 5, 16)])
def test_verify_builds_no_member_tables(p, n, max_dim):
    # the census reads generator columns and the eigenbases their x-blocks, so
    # neither a full nor a sampled proof caches a p^n x 2n member table
    comp = field_spread(SystemParams(p, n))
    purity_census(comp)
    checks = _hilbert_checks(comp, max_dim)
    assert all(c.passed for c in checks)
    assert not any("members" in cls.__dict__ for cls in comp.classes)


def test_purity_census_memory_is_small():
    params = SystemParams(3, 4)
    comp = field_spread(params)
    tables = len(comp.classes) * params.dim * 2 * params.n * 8
    tracemalloc.start()
    try:
        purity_census(comp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tables / 10


def test_verify_spread_reports_failures():
    comp = field_spread(SystemParams(2, 2))
    report = verify_spread(Complement(comp.params, comp.classes[:-1]))
    names = {c.name: c.passed for c in report.checks}
    assert not report.ok
    assert names["class count"] is False
    assert names["exact cover"] is False
    # duplicated class: disjointness must fail
    dup = Complement(comp.params, comp.classes[:1] + comp.classes[: len(comp.classes) - 1])
    checks = {c.name: c for c in verify_spread(dup).checks}
    assert checks["pairwise disjoint"].passed is False
    # the count goes on past the first shared vector: classes 0 to 3 cover 12
    assert checks["exact cover"].detail == "12 of 15 nonzero vectors covered"
    # non Lagrangian class: replace one matrix with a non isotropic one
    bad = (( (1, 0, 0, 0), (0, 0, 1, 0) ),) + tuple(c.matrix for c in comp.classes[1:])
    broken = Complement(comp.params, tuple(CompatGroup(comp.params, m) for m in bad))
    names = {c.name: c.passed for c in verify_spread(broken).checks}
    assert names["classes Lagrangian"] is False
    # a class cut to one generator, or given a third, is no group at all
    one = comp.classes[1].matrix
    for rows in (one[:1], one + ((1, 1, 0, 0),)):
        with pytest.raises(ValueError, match="needs 2 rows of 4 exponents"):
            CompatGroup(comp.params, rows)


def cover_oracle(c):
    """Reference cover check: the earlier frozenset/dict loop over every
    class's member_keys, as the pairwise disjoint and exact cover results.
    It reads each class's keys in ascending order, so the collision it names
    is the lowest key the first colliding class shares with earlier ones."""
    p, n = c.params.p, c.params.n
    seen = {}
    collision = None
    for idx, cls in enumerate(c.classes):
        for key in sorted(cls.member_keys):
            if key:
                other = seen.setdefault(key, idx)
                if other != idx and collision is None:
                    collision = (other, idx, key)
    universe = p ** (2 * n) - 1
    covered = len(seen)
    return [CheckResult("pairwise disjoint", collision is None,
                        "no shared nonzero vectors" if collision is None else
                        f"classes {collision[0]} and {collision[1]} share vector key {collision[2]}"),
            CheckResult("exact cover", collision is None and covered == universe,
                        f"{covered} of {universe} nonzero vectors covered")]


def cover_case(name, p, n):
    params = SystemParams(p, n)
    classes = field_spread(params).classes
    if name == "missing":
        classes = classes[:-1]
    elif name == "duplicate":
        classes = classes[:1] + classes[:-1]
    elif name == "rank":  # class 0's last generator set to its first
        m = classes[0].matrix
        classes = (CompatGroup(params, m[:-1] + m[:1]),) + classes[1:]
    elif name == "one-shared":
        # at p = 2 and n <= 3, a Lagrangian outside the spread meets some
        # class in exactly one nonzero vector: keep that class, drop the
        # others it meets, and append the Lagrangian
        extra = CompatGroup(params, next(m for m in enumerate_lagrangians(params)
                                         if m not in {cls.matrix for cls in classes}))
        shared = [len(cls.member_keys & extra.member_keys) - 1 for cls in classes]
        keep = shared.index(1)
        classes = tuple(cls for i, cls in enumerate(classes) if i == keep or not shared[i])
        classes += (extra,)
    elif name == "two-shared":
        # a Lagrangian outside the spread meets two of its classes at
        # different keys: the class that holds the lower key goes second
        extra = CompatGroup(params, next(m for m in enumerate_lagrangians(params)
                                         if m not in {cls.matrix for cls in classes}))
        lowest = sorted((min(shared - {0}), i) for i, cls in enumerate(classes)
                        if len(shared := cls.member_keys & extra.member_keys) > 1)
        (_, low), (_, high) = lowest[:2]
        classes = (classes[high], classes[low], extra)
    return Complement(params, classes)


def mask_row_bytes(p, n):
    """Bytes _cover_masks counts per Lagrangian in a batch: its p^n x 2n
    int64 member product and its packed p^2n-bit row."""
    return p ** n * 2 * n * 8 + (p ** (2 * n) + 7) // 8


COVER_CASES = [(name, p, n) for name in ("field", "missing", "duplicate", "rank")
               for p, n in ((2, 2), (2, 3), (3, 2))] + [("one-shared", 2, 2), ("one-shared", 2, 3),
                                                        ("two-shared", 3, 3), ("two-shared", 2, 4)]


@pytest.mark.parametrize("name,p,n", COVER_CASES)
def test_verify_cover_matches_oracle(monkeypatch, name, p, n):
    comp = cover_case(name, p, n)
    want = cover_oracle(comp)
    assert want[0].passed is (name in ("field", "missing", "rank"))
    assert want[1].passed is (name == "field")
    if name == "one-shared":
        extra = comp.classes[-1].member_keys
        (key,) = [k for cls in comp.classes[:-1] for k in cls.member_keys & extra if k]
        assert want[0].detail.endswith(f" share vector key {key}")
    if name == "two-shared":  # the lower key is class 1's, though class 0 meets class 2 too
        key = min(comp.classes[1].member_keys & comp.classes[2].member_keys - {0})
        assert want[0].detail == f"classes 1 and 2 share vector key {key}"
    picked = ("pairwise disjoint", "exact cover")
    assert [c for c in verify_spread(comp).checks if c.name in picked] == want
    # two mask rows per batch: verify then reads its masks in several batches
    monkeypatch.setattr(mubkit.errors, "BLOCK_BYTES", 2 * mask_row_bytes(p, n))
    assert [c for c in verify_spread(comp).checks if c.name in picked] == want


def test_verify_memory_is_small(monkeypatch):
    # verify holds one running union and one batch of masks, not a mask per
    # class: two mask rows per batch against 126 rows of p^2n bytes
    params = SystemParams(5, 3)
    comp = field_spread(params)
    tables = len(comp.classes) * params.p ** (2 * params.n)
    monkeypatch.setattr(mubkit.errors, "BLOCK_BYTES", 2 * mask_row_bytes(5, 3))
    verify_spread(Complement(params, comp.classes[:1]))  # warm lex_digits
    tracemalloc.start()
    try:
        report = verify_spread(comp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < tables / 10


def test_verify_one_row_batch_memory(monkeypatch):
    # one Lagrangian per batch: verify holds its int64 member product (6 kB
    # at (5,3)) and one packed p^2n-bit row (2 kB) beside the running union,
    # about 23 kB in all; a p^2n-byte bool row (15.6 kB) packed afterwards
    # took the peak to 41.8 kB
    params = SystemParams(5, 3)
    comp = field_spread(params)
    monkeypatch.setattr(mubkit.errors, "BLOCK_BYTES", 1)
    verify_spread(Complement(params, comp.classes[:1]))  # warm lex_digits
    tracemalloc.start()
    try:
        report = verify_spread(comp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 32_000


def _first_bad_class_oracle(c):
    """The earlier class check: the isotropy test reads the symplectic form
    of each pair of generators, one call per pair."""
    p, n = c.params.p, c.params.n
    for idx, cls in enumerate(c.classes):
        rows = cls.matrix
        red, pivots = rref(rows, p)
        if len(rows) != n or len(pivots) != n:
            return f"class {idx}: rank"
        if red != rows:
            return f"class {idx}: not in canonical rref form"
        if any(symplectic_form_vec(rows[i], rows[j], p)
               for i in range(n) for j in range(i + 1, n)):
            return f"class {idx}: not isotropic"
    return None


@pytest.mark.parametrize("p,n", [(2, 1), (2, 3), (3, 2), (5, 2), (7, 2), (2, 4), (3, 3)])
def test_first_bad_class_matches_pairwise_oracle(p, n):
    # graph classes (I | S) are in rref form and isotropic exactly when S is
    # symmetric; random rows cover the rank and rref verdicts
    params = SystemParams(p, n)
    rng = np.random.default_rng(100 * p + n)
    verdicts = set()
    for _ in range(60):
        classes = list(field_spread(params).classes[:3])
        for _ in range(3):
            s = rng.integers(0, p, size=(n, n))
            if rng.random() < 0.5:
                s = np.triu(s) + np.triu(s, 1).T
            m = np.hstack([np.eye(n, dtype=np.int64), s]) if rng.random() < 0.7 else \
                rng.integers(0, p, size=(n, 2 * n))
            classes.insert(int(rng.integers(0, len(classes) + 1)),
                           CompatGroup(params, tuple(map(tuple, m.tolist()))))
        comp = Complement(params, tuple(classes))
        want = _first_bad_class_oracle(comp)
        assert first_bad_class(comp) == want
        verdicts.add(None if want is None else want.split(": ")[1])
        for k in range(len(classes)):
            one = Complement(params, (classes[k],))
            assert first_bad_class(one) == _first_bad_class_oracle(one)
    # a line is always isotropic
    assert ("not isotropic" in verdicts) is (n > 1)


def _load_oracle(data):
    """The earlier per-class load: every class goes through rref, and is
    kept reduced at full rank and as given below it."""
    p, n = data["p"], data["n"]
    out = []
    for entry in data["classes"]:
        rows = [tuple(g["x"]) + tuple(g["z"]) for g in entry["gens"]]
        red, pivots = rref(rows, p)
        out.append(red if len(pivots) == n else tuple(rows))
    return out


def _first_bad_class_loop_oracle(c):
    """The earlier first_bad_class loop: rref, form and isotropy one class
    at a time."""
    p, n = c.params.p, c.params.n
    for idx, cls in enumerate(c.classes):
        rows = cls.matrix
        red, pivots = rref(rows, p)
        if len(rows) != n or len(pivots) != n:
            return f"class {idx}: rank"
        if red != rows:
            return f"class {idx}: not in canonical rref form"
        m = np.array(rows, dtype=np.int64)
        if ((m[:, :n] @ m[:, n:].T - m[:, n:] @ m[:, :n].T) % p).any():
            return f"class {idx}: not isotropic"
    return None


def _factor_distribution_oracle(group, qupit):
    """The earlier scalar qupit_factor_distribution: the rank of the columns
    (x_i | z_i) mod p from Python int minors against the first nonzero row."""
    p, n = group.params.p, group.params.n
    cols = [(row[qupit] % p, row[n + qupit] % p) for row in group.matrix]
    a, b = next(((a, b) for a, b in cols if a or b), (0, 0))
    if not (a or b):
        raise TheoremViolationError(
            f"qupit {qupit} shows 1 local classes with tallies [{p ** n}]")
    if any((a * d - b * c) % p for c, d in cols):  # a row off the first one's line
        return FactorDistribution("entangled", None, p ** (n - 2))
    scale = pow(a if a else b, p - 2, p)  # make the first nonzero exponent 1
    return FactorDistribution("pure", ((a * scale) % p, (b * scale) % p), p ** (n - 1))


def _census_oracle(c):
    """The earlier purity_census loop, one scalar factor distribution per
    class and qupit; the census, or the type and text of what it raises."""
    p, n = c.params.p, c.params.n
    pure, entangled, tally = [0] * n, [0] * n, [0] * n
    try:
        for cls in c.classes:
            for i in range(n):
                dist = _factor_distribution_oracle(cls, i)
                if dist.kind == "pure":
                    pure[i] += 1
                else:
                    entangled[i] += 1
                tally[i] += dist.multiplicity - 1
    except MubkitError as exc:
        return type(exc), str(exc)
    for i in range(n):
        if pure[i] != p + 1 or entangled[i] != p ** n - p:
            return CensusViolationError, (
                f"qupit {i}: pure in {pure[i]} classes, entangled in {entangled[i]}, "
                f"expected {p + 1} and {p ** n - p}")
    return PurityCensus(tuple(pure), tuple(entangled), tuple(tally))


def _census_or_error(c):
    try:
        return purity_census(c)
    except MubkitError as exc:
        return type(exc), str(exc)


def _mutate(matrix, kind, p, n):
    """One class matrix changed as `kind` says; n >= 2."""
    m = [list(row) for row in matrix]
    if kind == "row-swapped":
        m[0], m[-1] = m[-1], m[0]
    elif kind == "unreduced":  # the same span, not in rref form
        m[0] = [(a + b) % p for a, b in zip(m[0], m[-1])]
    elif kind == "rank-deficient":
        m[-1] = m[0]
    elif kind in ("non-isotropic", "swapped-non-isotropic"):
        # (I | S) with S off symmetric at (0, 1); swapped, out of form as well
        m = [[int(r == c) for c in range(n)] + [0] * n for r in range(n)]
        m[0][n + 1] = 1
        if kind == "swapped-non-isotropic":
            m[0], m[-1] = m[-1], m[0]
    elif kind == "zero-column":  # qupit 0 has no local factor
        for row in m:
            row[0] = row[n] = 0
    return tuple(map(tuple, m))


STACK_KINDS = ("canonical", "row-swapped", "unreduced", "rank-deficient", "non-isotropic",
               "zero-column", "swapped-non-isotropic")


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (2, 4)])
def test_class_stacks_match_per_class_oracles(monkeypatch, p, n):
    # one or two classes changed per file, as one kind or two kinds, and the
    # three faults that each verdict must outrank (out of form and not
    # isotropic, canonical and not isotropic, rank-deficient) together
    # in every order, read at the default BLOCK_BYTES, at three classes and
    # at one class per stack
    params = SystemParams(p, n)
    base = [cls.matrix for cls in field_spread(params).classes]
    rng = np.random.default_rng(10 * p + n)
    files = []
    for kind in STACK_KINDS:
        for other in ("canonical", kind, STACK_KINDS[int(rng.integers(len(STACK_KINDS)))]):
            mats = list(base)
            i, j = sorted(rng.choice(len(mats), 2, replace=False).tolist())
            mats[j] = _mutate(mats[j], kind, p, n)
            mats[i] = _mutate(mats[i], other, p, n)
            files.append(mats)
    for kinds in permutations(("swapped-non-isotropic", "non-isotropic", "rank-deficient")):
        mats = list(base)
        for i, kind in zip((0, 1, 3), kinds):
            mats[i] = _mutate(mats[i], kind, p, n)
        files.append(mats)
    verdicts = set()
    for batch in (None, 3 * 2 * n * n * 8, 1):
        if batch is not None:
            monkeypatch.setattr(mubkit.errors, "BLOCK_BYTES", batch)
        for mats in files:
            comp = Complement(params, tuple(CompatGroup(params, m) for m in mats))
            data = to_json_dict(comp)
            want = _first_bad_class_loop_oracle(comp)
            assert first_bad_class(comp) == want
            loaded = from_json_dict(data)
            assert [cls.matrix for cls in loaded.classes] == _load_oracle(data)
            assert first_bad_class(loaded) == _first_bad_class_loop_oracle(loaded)
            census = _census_oracle(comp)
            assert _census_or_error(comp) == census
            verdicts.add(want and want.split(": ")[1])
            verdicts.add(type(census) if isinstance(census, PurityCensus) else census[0])
    assert verdicts == {None, "rank", "not in canonical rref form", "not isotropic",
                        PurityCensus, CensusViolationError, TheoremViolationError}
    # a file whose class has one generator fewer than n, which no Complement holds
    data = to_json_dict(field_spread(params))
    data["classes"][1]["gens"].pop()
    with pytest.raises(MubkitError, match="wrong generator count"):
        from_json_dict(data)


@pytest.mark.parametrize("p,n", [(2, 2), (3, 3)])
def test_compat_group_refuses_other_shapes(p, n):
    # n - 1 or n + 1 rows, or a row of 2n - 1 or 2n + 1 entries
    params = SystemParams(p, n)
    m = field_spread(params).classes[1].matrix
    for rows in (m[:-1], m + m[:1], m[:-1] + (m[-1][:-1],), m[:-1] + (m[-1] + (0,),)):
        with pytest.raises(ValueError, match=f"needs {n} rows of {2 * n} exponents"):
            CompatGroup(params, rows)



def test_distribution_n2_rigidity():
    for p in (2, 3, 5, 7):
        comp = field_spread(SystemParams(p, 2))
        dist = complement_distribution(comp)
        assert dist.counts == {"PI": p + 1, "B": p * p - p}


def test_distribution_field_goldens():
    got = complement_distribution(field_spread(SystemParams(2, 3))).counts
    assert got == {"PI": 2, "SB": 3, "G3": 4}
    got = complement_distribution(field_spread(SystemParams(3, 3))).counts
    assert got == {"PI": 2, "SB": 6, "G3": 20}
    got = complement_distribution(field_spread(SystemParams(2, 4))).counts
    assert got == {"PI": 2, "S2B": 1, "SG3": 2, "BB": 2, "C4": 10}
    got = complement_distribution(field_spread(SystemParams(3, 4))).counts
    assert got == {"PI": 2, "S2B": 2, "SG3": 4, "BB": 4, "C4": 56, "P4": 14}


# ---------------------------------------------------------------------------
# Lagrangian enumeration


@pytest.mark.parametrize("p,n,count", [(2, 2, 15), (3, 2, 40), (2, 3, 135),
                                       (3, 3, 1120), (2, 4, 2295), (7, 3, 137600)])
def test_enumerate_lagrangians_counts(p, n, count):
    assert lagrangian_count(SystemParams(p, n)) == count
    mats = enumerate_lagrangians(SystemParams(p, n))
    assert len(mats) == count
    assert len(set(mats)) == count
    keys = [tuple(v for row in m for v in row) for m in mats]
    assert keys == sorted(keys)


def test_enumerated_lagrangians_are_lagrangian():
    p, n = 3, 2
    for m in enumerate_lagrangians(SystemParams(p, n)):
        assert rank(m, p) == n
        for i in range(n):
            for j in range(n):
                f = sum(m[i][k] * m[j][n + k] - m[i][n + k] * m[j][k]
                        for k in range(n)) % p
                assert f == 0


def test_enumerate_guard(monkeypatch):
    """enumerate_lagrangians checks what it will hold against MEMORY_GUARD
    before its first cell: (5,4)'s 12.3 million Lagrangians need 8638 MB."""
    with pytest.raises(GuardExceededError, match="an enumeration of 12304656 Lagrangians"):
        enumerate_lagrangians(SystemParams(5, 4))
    params = SystemParams(2, 3)
    monkeypatch.setattr(mubkit.errors, "MEMORY_GUARD", 0)
    with pytest.raises(GuardExceededError) as info:
        enumerate_lagrangians(params)
    need = int(re.search(r"would hold (\d+) bytes", str(info.value)).group(1))
    monkeypatch.setattr(mubkit.errors, "MEMORY_GUARD", need - 1)
    with pytest.raises(GuardExceededError,
                       match=f"an enumeration of 135 Lagrangians at p = 2, n = 3 would hold {need}"):
        enumerate_lagrangians(params)
    monkeypatch.setattr(mubkit.errors, "MEMORY_GUARD", need)
    assert len(enumerate_lagrangians(params)) == 135


def lagrangian_oracle(params):
    """Reference enumeration: the earlier rref-node extension, which adds the
    first row by a product over its tail and every later row one null-space
    combination at a time."""
    p, n = params.p, params.n
    dim = 2 * n
    out = []

    def extend(rows, last_pivot):
        if len(rows) == n:
            out.append(tuple(rows))
            return
        for c in range(last_pivot + 1, dim):
            if any(r[c] for r in rows):
                continue
            free = dim - c - 1
            if len(rows) == 0:
                for tail in product(range(p), repeat=free):
                    extend([(0,) * c + (1,) + tail], c)
                continue
            coeff_rows = []
            rhs = []
            for r in rows:
                srow = [r[n + j] if j < n else -r[j - n] for j in range(dim)]
                coeff_rows.append([srow[j] % p for j in range(c + 1, dim)])
                rhs.append((-srow[c]) % p)
            part, null = solve_affine(coeff_rows, rhs, free, p)
            if part is None:
                continue
            for combo in product(range(p), repeat=len(null)):
                tail = list(part)
                for k, basis_vec in zip(combo, null):
                    if k:
                        tail = [(t + k * b) % p for t, b in zip(tail, basis_vec)]
                extend(rows + [(0,) * c + (1,) + tuple(tail)], c)

    extend([], -1)
    out.sort(key=lambda m: tuple(v for row in m for v in row))
    return out


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3), (5, 2),
                                 (7, 2), (2, 4)])
def test_enumerate_lagrangians_matches_oracle(monkeypatch, p, n):
    params = SystemParams(p, n)
    want = lagrangian_oracle(params)
    got = enumerate_lagrangians(params)
    assert got == want
    assert all(type(v) is int for m in got for row in m for v in row)
    # rows are 2n^2 int64 entries: blocks of 2 rows end inside every list,
    # and a bound below one row still makes blocks of one
    for bound in (2 * 16 * n * n, 1):
        monkeypatch.setattr(mubkit.errors, "BLOCK_BYTES", bound)
        assert enumerate_lagrangians(params) == want


def _tuple_rows_oracle(params):
    """The earlier enumerate_lagrangians body: every cell as an n x 2n int64
    array, one sorted array of them all, and a fresh tuple for every row of
    every Lagrangian."""
    p, n = params.p, params.n
    cells = []
    for k in range(n + 1):
        upper = np.triu_indices(k)
        forms = np.zeros((p ** len(upper[0]), k, k), dtype=np.int64)
        forms[:, upper[0], upper[1]] = forms[:, upper[1], upper[0]] = lex_digits(
            p, len(upper[0]))
        for pivots, basis in _subspaces(p, n, k):
            _, null = solve_affine(basis.tolist(), [0] * k, n, p)
            perp, q = rref(null, p)
            perp = np.array(perp, dtype=np.int64).reshape(n - k, n)
            select = np.eye(n, dtype=np.int64)[list(pivots)]
            cell = np.zeros((len(forms), n, 2 * n), dtype=np.int64)
            cell[:, :k, :n] = basis
            cell[:, :k, n:] = forms @ ((select - select[:, list(q)] @ perp) % p) % p
            cell[:, k:, n:] = perp
            cells.append(cell.reshape(len(forms), -1))
    flat = np.concatenate(cells)
    order = np.lexsort(flat.T[::-1])
    return [tuple(map(tuple, m)) for m in flat[order].reshape(-1, n, 2 * n).tolist()]


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (2, 4), (3, 3)])
def test_enumerate_lagrangians_shares_rows(monkeypatch, p, n):
    # the same list as the tuple-per-row body, at the default block bound
    # and at one Lagrangian per block, with one object per distinct row
    params = SystemParams(p, n)
    want = _tuple_rows_oracle(params)
    for bound in (None, 1):
        if bound is not None:
            monkeypatch.setattr(mubkit.errors, "BLOCK_BYTES", bound)
        got = enumerate_lagrangians(params)
        assert got == want
        distinct = {row for m in got for row in m}
        assert len({id(row) for m in got for row in m}) <= len(distinct)


def test_enumerate_lagrangians_caches_no_form_table():
    # the digit table of the top cell's symmetric forms, lex_digits(3, 10) at
    # (3,4), 4.7 MB, is made for the call and dropped with the list
    tracemalloc.start()
    try:
        assert len(enumerate_lagrangians(SystemParams(3, 4))) == 91_840
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1 << 20


def gaussian_binomial(n, k, p):
    """[n choose k]_p, the number of k dimensional subspaces of Z_p^n."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_lagrangian_count_is_q_binomial_sum(p):
    for n in range(1, 7):
        cells = sum(gaussian_binomial(n, k, p) * p ** (k * (k + 1) // 2) for k in range(n + 1))
        assert lagrangian_count(SystemParams(p, n)) == cells


@pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (2, 4), (5, 2)])
def test_enumerated_cells_have_q_binomial_sizes(p, n):
    """The Lagrangians whose x-projection has dimension k number
    [n choose k]_p p^(k(k+1)/2): one per (U, symmetric form on U)."""
    sizes = {}
    for m in enumerate_lagrangians(SystemParams(p, n)):
        k = rank([row[:n] for row in m], p)
        sizes[k] = sizes.get(k, 0) + 1
    assert sizes == {k: gaussian_binomial(n, k, p) * p ** (k * (k + 1) // 2)
                     for k in range(n + 1)}


@pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (2, 4), (5, 3), (3, 4)])
def test_nbody_profiles_obey_incidence_law(p, n):
    """Each nonzero vector lies in lagrangian_count(p, n - 1) Lagrangians, so
    the n-body profiles of all Lagrangians sum to the complement-wide column
    totals times that count; read off member tables, 2048 Lagrangians at a
    time."""
    params = SystemParams(p, n)
    lagrangians = enumerate_lagrangians(params)
    bodies = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, len(lagrangians), 2048):
        m = _member_table(params, lagrangians[lo:lo + 2048])
        support = (m[..., :n] != 0) | (m[..., n:] != 0)
        bodies += np.bincount(support.sum(axis=2).ravel(), minlength=n + 1)
    per_vector = lagrangian_count(SystemParams(p, n - 1))
    assert bodies[0] == len(lagrangians)  # the identity, once per Lagrangian
    assert tuple(bodies[1:].tolist()) == tuple(t * per_vector for t in profile_table(params).totals)


def _assert_type_counts_obey_incidence_law(params, counts):
    rows = type_rows(params)
    per_vector = lagrangian_count(SystemParams(params.p, params.n - 1))
    assert sum(counts.values()) == lagrangian_count(params)
    assert tuple(sum(counts[lab] * rows[lab][1][k] for lab in counts)
                 for k in range(params.n)) == tuple(
        t * per_vector for t in profile_table(params).totals)


@pytest.mark.parametrize("p,n,want", [
    (2, 3, {"PI": 27, "SB": 54, "G3": 54}),
    (3, 3, {"PI": 64, "SB": 288, "G3": 768}),
    (2, 4, {"PI": 81, "S2B": 324, "SG3": 648, "G4": 162, "BB": 108, "C4": 972}),
])
def test_lagrangian_type_counts(p, n, want):
    params = SystemParams(p, n)
    counts = {}
    for m in enumerate_lagrangians(params):
        label = classify_basis(CompatGroup(params, m)).label
        counts[label] = counts.get(label, 0) + 1
    assert counts == want
    _assert_type_counts_obey_incidence_law(params, counts)


def test_type_counts_at_3_4_obey_incidence_law():
    # the (3,4) counts that ROADMAP quotes, too many to classify here
    _assert_type_counts_obey_incidence_law(SystemParams(3, 4), {
        "PI": 256, "S2B": 2304, "SG3": 12288, "G4": 6144, "BB": 1728, "C4": 55296,
        "P4": 13824})


@pytest.mark.parametrize("batch", [4096, 100, 1])
@pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (2, 4)])
def test_cover_masks_match_member_keys(monkeypatch, p, n, batch):
    # batches of 100 rows end inside the list at each size: 135, 1120 and 2295
    monkeypatch.setattr(mubkit.errors, "BLOCK_BYTES", batch * mask_row_bytes(p, n))
    params = SystemParams(p, n)
    lagrangians = enumerate_lagrangians(params)
    want = [sum(1 << k for k in CompatGroup(params, m).member_keys if k)
            for m in lagrangians]
    assert list(_cover_masks(params, lagrangians)) == want



def _cover_masks_oracle(params, lagrangians, rows):
    """The earlier mask construction: a p^2n-byte bool row per Lagrangian, packed
    into bits afterwards, rows Lagrangians per batch."""
    p, n = params.p, params.n
    powers = p ** np.arange(2 * n, dtype=np.int64)
    out = []
    for lo in range(0, len(lagrangians), rows):
        gens = np.array(lagrangians[lo:lo + rows], dtype=np.int64)
        keys = (lex_digits(p, n) @ gens) % p @ powers
        bits = np.zeros((len(gens), p ** (2 * n)), dtype=bool)
        np.put_along_axis(bits, keys, True, axis=1)
        bits[:, 0] = False
        for row in np.packbits(bits, axis=1, bitorder="little"):
            out.append(int.from_bytes(row.tobytes(), "little"))
    return out


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2), (7, 2), (3, 3), (2, 4)])
@pytest.mark.parametrize("batch", [1 << 20, 1000, 1])
def test_cover_masks_match_packbits_oracle(monkeypatch, p, n, batch):
    # the packed rows are written bit by bit; the masks must be the same ints,
    # whatever the batch size (batch bytes 1: one Lagrangian per batch)
    monkeypatch.setattr(mubkit.errors, "BLOCK_BYTES", batch)
    params = SystemParams(p, n)
    lagrangians = enumerate_lagrangians(params)
    assert list(_cover_masks(params, lagrangians)) == _cover_masks_oracle(params, lagrangians, 64)

# ---------------------------------------------------------------------------
# spread search


def chain_oracle(params):
    """Reference exact cover: the earlier frozenset chain search. Classes are
    picked as increasing chains of canonical indices, and a branch dies when
    no later live class covers the least uncovered vector."""
    p, n = params.p, params.n
    lagrangians = enumerate_lagrangians(params)
    members = [frozenset(k for k in CompatGroup(params, m).member_keys if k)
               for m in lagrangians]
    universe = p ** (2 * n) - 1
    containing = {}
    for ci, keys in enumerate(members):
        for k in keys:
            containing.setdefault(k, []).append(ci)
    need = p ** n + 1
    covered = set()
    chosen = []

    def dfs(start, scan_from):
        if len(chosen) == need:
            yield Complement(params, tuple(CompatGroup(params, lagrangians[i])
                                           for i in chosen))
            return
        v = scan_from
        while v <= universe and v in covered:
            v += 1
        if v > universe:
            return
        if not any(ci >= start and covered.isdisjoint(members[ci])
                   for ci in containing.get(v, ())):
            return
        for ci in range(start, len(lagrangians)):
            keys = members[ci]
            if not covered.isdisjoint(keys):
                continue
            chosen.append(ci)
            covered.update(keys)
            yield from dfs(ci + 1, scan_from)
            covered.difference_update(keys)
            chosen.pop()

    yield from dfs(0, 1)


def _spread_key(comp):
    return tuple(v for cls in comp.classes for row in cls.matrix for v in row)


def desarguesian_spread_count(p, n):
    """How many images the field spread has under Sp(2n, p), by orbit-stabilizer:
    |Sp(2n, p)| = p^(n^2) prod_(i <= n) (p^(2i) - 1) over its stabilizer
    SigmaL(2, p^n), of order n p^n (p^2n - 1). At n = 2 that is p^2 (p^2 - 1) / 2,
    and for prime p every spread of W(3, p) is regular; at (2,3) it is
    1,451,520 / 1,512."""
    group = p ** (n * n)
    for i in range(1, n + 1):
        group *= p ** (2 * i) - 1
    return group // (n * p ** n * (p ** (2 * n) - 1))


@pytest.mark.parametrize("p,n,take,total", [
    (2, 2, None, desarguesian_spread_count(2, 2)), (2, 3, None, desarguesian_spread_count(2, 3)),
    (3, 2, None, desarguesian_spread_count(3, 2)), (3, 3, 1, 1), (7, 2, 1, 1),
])
def test_search_matches_chain_oracle(p, n, take, total):
    params = SystemParams(p, n)
    got = list(islice(search_spreads(params), take))
    keys = [_spread_key(comp) for comp in got]
    assert keys == [_spread_key(comp) for comp in islice(chain_oracle(params), take)]
    assert len(keys) == total
    # each spread once, in lex order, so the lex-first spread comes first
    assert keys == sorted(set(keys))
    for comp in got:
        assert verify_spread(comp).ok
        if n == 2:  # census: p + 1 product classes, the rest Bell bases
            assert complement_distribution(comp).counts == {"PI": p + 1, "B": p * p - p}


def test_search_counts_every_spread_of_w3_5():
    # no oracle: the exhaustive (5,2) search must find the orbit of the field
    # spread, p^2 (p^2 - 1) / 2 = 300 spreads, each once and in lex order
    assert [desarguesian_spread_count(p, 2) for p in (2, 3, 5)] == [
        p * p * (p * p - 1) // 2 for p in (2, 3, 5)]
    assert desarguesian_spread_count(2, 3) == 1_451_520 // 1_512
    keys = [_spread_key(comp) for comp in search_spreads(SystemParams(5, 2))]
    assert len(keys) == desarguesian_spread_count(5, 2) == 300
    assert keys == sorted(set(keys))


def test_search_depth_is_not_bound_by_recursion_limit():
    # a (61,1) chain is 63 levels deep; the search takes no frame per level
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        comp = next(search_spreads(SystemParams(61, 1)))
    finally:
        sys.setrecursionlimit(limit)
    assert len(comp.classes) == 62
    assert verify_spread(comp).ok


def test_search_limit():
    params = SystemParams(2, 2)
    assert len(list(islice(search_spreads(params), 1))) == 1
    assert len(list(islice(search_spreads(params), 4))) == 4


def test_search_filter():
    params = SystemParams(2, 3)

    def first_with(**want):
        return next(comp for comp in search_spreads(params)
                    if all(complement_distribution(comp).counts.get(k, 0) == v
                           for k, v in want.items()))

    comp = first_with(PI=0, G3=0)
    assert verify_spread(comp).ok
    assert complement_distribution(comp).counts == {"SB": 9}
    assert complement_distribution(first_with(SB=0)).counts == {"PI": 3, "G3": 6}


def test_search_first_spread_2_5():
    comp = next(search_spreads(SystemParams(2, 5)))
    assert len(comp.classes) == 33
    assert verify_spread(comp).ok


def _child_peak_kb(body):
    """The VmHWM (peak resident memory, kB) of a fresh interpreter that runs
    body with this tree's mubkit; ru_maxrss would report at least the peak
    the child inherits from this process."""
    code = body + ("print(next(line.split()[1] for line in open('/proc/self/status')\n"
                   "           if line.startswith('VmHWM:')))\n")
    src = str(Path(mubkit.complement.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return int(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True).stdout)


def _cli_body(argv):
    return ("import contextlib, io\n"
            "from mubkit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_search_first_hit_3_4_peak_memory():
    """A first (3,4) spread holds no per-node list of suffix unions: its peak
    RSS stays under 260 MB, against 402 MB with one int per live class at
    every node. The peak is the child's own VmHWM."""
    assert _child_peak_kb("from mubkit.complement import search_spreads\n"
                          "from mubkit.zplinalg import SystemParams\n"
                          "next(search_spreads(SystemParams(3, 4)))\n") < 260 * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_complement_search_3_4_peak_memory():
    """`complement --p 3 --n 4 --method search` in a fresh process: its 91,840
    Lagrangians share their row tuples, so the list takes about 8 MB beside
    82 MB of cover masks. The peak (the child's VmHWM) stays under 145 MB,
    near 127 MB on a 2-vCPU box with numpy 2.4; a tuple for every row put it
    near 166 MB."""
    argv = ["complement", "--p", "3", "--n", "4", "--method", "search"]
    assert _child_peak_kb(_cli_body(argv)) < 145 * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("p,n,bound_mb", [(2, 8, 72), (3, 4, 72), (5, 4, 80)],
                         ids=["sampled-2-8", "full-3-4", "sampled-5-4"])
def test_verify_peak_memory(tmp_path, p, n, bound_mb):
    """`verify --in` on a field spread, in a fresh process: (2,8) and (5,4)
    prove 6 sampled bases of d = 256 and d = 625, (3,4) all 82 bases of
    d = 81 and their 3321 pairs. Its peak resident memory (the child's own
    VmHWM) stays under the bound: near 40 MB at (2,8) and (3,4) and 73 MB at
    (5,4) on a 2-vCPU box with numpy 2.4. A full proof at d = 256 would hold
    257 MB of eigenvectors, and at (5,4) whole-array overlap products and
    eigenbasis scratch put the peak near 86 MB."""
    path = tmp_path / f"f{p}{n}.json"
    path.write_text(dumps(field_spread(SystemParams(p, n))))
    assert _child_peak_kb(_cli_body(["verify", "--in", str(path)])) < bound_mb * 1024


def _one_class_file(tmp_path, p, n, copies=1):
    """A complement file of the vertical class alone, or that class `copies`
    times: every check reads it, and the cover union is as wide as a full
    spread's."""
    path = tmp_path / f"one{p}{n}.json"
    gens = [{"x": [0] * n, "z": [int(i == j) for i in range(n)]} for j in range(n)]
    path.write_text(json.dumps({"p": p, "n": n, "classes": [{"gens": gens}] * copies}))
    return str(path)


def _product_generators(n):
    """Z on each of n qubits, one generator per qubit."""
    return ",".join("I" * i + "Z" + "I" * (n - 1 - i) for i in range(n))


def _exit_body(argv, want):
    return ("import contextlib, io\n"
            "from mubkit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    assert main({argv!r}) == {want}\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_verify_wide_cover_union_exits_3_small(tmp_path):
    """A one-class (2,17) file would build a cover union of 2^34 bits, 2 GiB
    per copy; verify_spread refuses it before any mask or digit table is
    made, so the fresh process peaks under 60 MB (near 31 MB)."""
    argv = ["verify", "--in", _one_class_file(tmp_path, 2, 17)]
    assert _child_peak_kb(_exit_body(argv, 3)) < 60 * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("kind,size", [("verify", 12), ("verify", 13), ("verify-twice", 12),
                                       ("generators", 14), ("generators", 16),
                                       ("search", 13), ("search", 17),
                                       ("stoich", "text"), ("stoich", "json"),
                                       ("stoich", "csv")])
def test_memory_guard_need_covers_measured_peak(tmp_path, capsys, monkeypatch, kind, size):
    """The need a memory guard computes is at least what the command then
    takes: the VmHWM of a fresh process that runs it, less that of one that
    only imports mubkit.cli. verify on a one-class (2,12) and (2,13) file
    counts its cover union, and on a (2,12) file that holds the class twice
    also the collision witness; classify --generators on 14 and 16 qubits its
    member table; a first spread at (13,2) and (17,2) its masks, chain and
    Lagrangians; the (5,4) stoich listing, in each format, its solutions and
    their rendering. The need is read off the guard's message at a bound of 0."""
    if kind.startswith("verify"):  # one class fails the class count, so verify exits 1
        copies = 2 if kind == "verify-twice" else 1
        argv, want = ["verify", "--in", _one_class_file(tmp_path, 2, size, copies)], 1
    elif kind == "generators":
        argv, want = ["classify", "--generators", _product_generators(size), "--p", "2"], 0
    elif kind == "search":
        argv, want = ["complement", "--p", str(size), "--n", "2", "--method", "search"], 0
    else:
        argv, want = ["stoich", "--p", "5", "--n", "4", "--format", size], 0
    monkeypatch.setattr(mubkit.errors, "MEMORY_GUARD", 0)
    assert main(argv) == 3
    need = int(re.search(r"would hold (\d+) bytes", capsys.readouterr().err).group(1))
    growth_kb = _child_peak_kb(_exit_body(argv, want)) - _child_peak_kb("import mubkit.cli\n")
    assert growth_kb * 1024 <= need


def test_search_guard():
    gen = search_spreads(SystemParams(5, 4))
    with pytest.raises(GuardExceededError):
        next(gen)


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_byte_stable():
    comp = field_spread(SystemParams(3, 2))
    text = dumps(comp)
    again = from_json_dict(json.loads(text))
    assert dumps(again) == text
    assert again.params == comp.params
    assert tuple(c.matrix for c in again.classes) == tuple(c.matrix for c in comp.classes)


def test_json_schema_shape():
    comp = field_spread(SystemParams(2, 2))
    doc = to_json_dict(comp)
    assert set(doc) == {"p", "n", "classes"}
    assert doc["p"] == 2 and doc["n"] == 2
    assert len(doc["classes"]) == 5
    gen = doc["classes"][0]["gens"][0]
    assert set(gen) == {"x", "z"}
    assert len(gen["x"]) == len(gen["z"]) == 2
    assert from_json_dict(json.loads(json.dumps(doc))).params == comp.params


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("p"),
    lambda d: d.update(p="three"),
    lambda d: d.update(p=4),
    lambda d: d["classes"][0]["gens"][0]["x"].append(0),
    lambda d: d["classes"][0]["gens"][0].update(x=[0, 9]),
    lambda d: d["classes"][0]["gens"].pop(),
    lambda d: d.update(classes=17),
    lambda d: d.update(p="2"),
    lambda d: d.update(n=2.0),
    lambda d: d["classes"][0]["gens"][0].update(x=[1.9, 0]),
    lambda d: d["classes"][0]["gens"][0].update(x=[True, 0]),
])
def test_malformed_documents_rejected(mutate):
    doc = to_json_dict(field_spread(SystemParams(2, 2)))
    mutate(doc)
    with pytest.raises(MubkitError):
        from_json_dict(doc)
