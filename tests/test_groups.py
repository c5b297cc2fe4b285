"""Compatibility groups: enumeration, factor structure, and labels."""

import random
import tracemalloc
from itertools import combinations, permutations, product

import numpy as np
import pytest

import mubkit.groups
from mubkit.complement import complement_distribution, enumerate_lagrangians, field_spread
from mubkit.errors import DependentGeneratorsError, NonCommutingError, TheoremViolationError
from mubkit.groups import (
    MUB_LABELS,
    CompatGroup,
    FactorDistribution,
    MubType,
    _member_keys,
    _member_table,
    classify_basis,
    group_from_generators,
    lex_digits,
    nbody_profile,
    qupit_factor_distribution,
    random_lagrangian,
    separation_pattern,
    type_rows,
    validate_generators,
)
from mubkit.pauli import PauliOp, parse_pauli, symplectic_form, symplectic_form_vec
from mubkit.stoich import profile_table
from mubkit.zplinalg import SystemParams, rref


def _op(x, z):
    return PauliOp(tuple(x), tuple(z))


def _z_at(n, i):
    z = [0] * n
    z[i] = 1
    return _op([0] * n, z)


def _bell_ops(n, i, j, p):
    """Generators of a Bell pair on qupits i and j: X_i X_j^-1 and Z_i Z_j."""
    x = [0] * n
    x[i], x[j] = 1, p - 1
    z = [0] * n
    z[i], z[j] = 1, 1
    return [_op(x, [0] * n), _op([0] * n, z)]


def _letters(params, *texts):
    return [parse_pauli(t, params) for t in texts]


# the nonseparable sets are letter strings valid at every p
G3_SET = ("XXY", "XYX", "YXX")
G4_SET = ("XXXY", "XXYX", "XYXX", "YXXX")
C4_SET = ("XZXI", "ZXIX", "XIXZ", "IXZX")
P4_SET = ("ZXYW", "XZWY", "WYXZ", "YWZX")

# a group with the 2-body free profile at p = 5, where the letter set above
# degenerates; generators are rows [I | S]
P4_AT_5 = (
    _op((1, 0, 0, 0), (0, 1, 0, 1)),
    _op((0, 1, 0, 0), (1, 0, 1, 0)),
    _op((0, 0, 1, 0), (0, 1, 0, 3)),
    _op((0, 0, 0, 1), (1, 0, 3, 0)),
)


def _golden_sets(p):
    """label -> (params, generators) covering every named type at this p."""
    out = {
        "PI2": (SystemParams(p, 2), [_z_at(2, 0), _z_at(2, 1)]),
        "B": (SystemParams(p, 2), _bell_ops(2, 0, 1, p)),
        "PI3": (SystemParams(p, 3), [_z_at(3, i) for i in range(3)]),
        "SB": (SystemParams(p, 3), _bell_ops(3, 0, 1, p) + [_z_at(3, 2)]),
        "G3": (SystemParams(p, 3), _letters(SystemParams(p, 3), *G3_SET)),
        "PI4": (SystemParams(p, 4), [_z_at(4, i) for i in range(4)]),
        "S2B": (SystemParams(p, 4),
                [_z_at(4, 0), _z_at(4, 1)] + _bell_ops(4, 2, 3, p)),
        "SG3": (SystemParams(p, 4),
                _letters(SystemParams(p, 4), "XXYI", "XYXI", "YXXI") + [_z_at(4, 3)]),
        "BB": (SystemParams(p, 4), _bell_ops(4, 0, 1, p) + _bell_ops(4, 2, 3, p)),
        "G4": (SystemParams(p, 4), _letters(SystemParams(p, 4), *G4_SET)),
        "C4": (SystemParams(p, 4), _letters(SystemParams(p, 4), *C4_SET)),
    }
    if p == 3:
        out["P4"] = (SystemParams(p, 4), _letters(SystemParams(p, 4), *P4_SET))
    elif p == 5:
        # the letter set degenerates at p = 5; see the dedicated test below
        out["P4"] = (SystemParams(p, 4), list(P4_AT_5))
    return out


_EXPECT = {
    "PI2": ("PI", ((0,), (1,))),
    "B": ("B", ((0, 1),)),
    "PI3": ("PI", ((0,), (1,), (2,))),
    "SB": ("SB", ((0, 1), (2,))),
    "G3": ("G3", ((0, 1, 2),)),
    "PI4": ("PI", ((0,), (1,), (2,), (3,))),
    "S2B": ("S2B", ((0,), (1,), (2, 3))),
    "SG3": ("SG3", ((0, 1, 2), (3,))),
    "BB": ("BB", ((0, 1), (2, 3))),
    "G4": ("G4", ((0, 1, 2, 3),)),
    "C4": ("C4", ((0, 1, 2, 3),)),
    "P4": ("P4", ((0, 1, 2, 3),)),
}

# profile_table rows are keyed by the plain type name
_ROW_KEY = {"PI2": "PI", "PI3": "PI", "PI4": "PI"}


def test_enumerate_spec_examples():
    params = SystemParams(2, 2)
    g = group_from_generators(params, _letters(params, "XX", "ZZ"))
    got = {tuple(int(v) for v in row) for row in g.members}
    assert got == {(0, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1)}
    g = group_from_generators(params, _letters(params, "ZI", "IZ"))
    got = {tuple(int(v) for v in row) for row in g.members}
    assert got == {(0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)}
    params = SystemParams(3, 1)
    g = group_from_generators(params, _letters(params, "X"))
    got = {tuple(int(v) for v in row) for row in g.members}
    assert got == {(0, 0), (1, 0), (2, 0)}


@pytest.mark.parametrize("p,n", [(2, 1), (2, 4), (3, 3), (5, 2)])
def test_lex_digits_table(p, n):
    digits = lex_digits(p, n)
    assert digits.dtype == np.int64 and digits.shape == (p ** n, n)
    assert digits.tolist() == [list(e) for e in product(range(p), repeat=n)]
    # member row e is exponent tuple e applied to the generator rows
    g = random_lagrangian(SystemParams(p, n), random.Random(p * 10 + n))
    gens = np.array(g.matrix, dtype=np.int64)
    assert np.array_equal(g.members, digits @ gens % p)


def _member_products_oracle(params, matrix):
    """The earlier per-site member products of one class: CompatGroup.members
    and member_keys, complement._member_keys, eigenbasis's coset shifts and
    _support_counts."""
    p, n = params.p, params.n
    gens = np.array(matrix, dtype=np.int64).reshape(n, 2 * n)
    powers = p ** np.arange(2 * n, dtype=np.int64)
    members = (lex_digits(p, n) @ gens) % p
    keys = (lex_digits(p, n) @ np.array([matrix], dtype=np.int64)) % p @ powers
    xs = (lex_digits(p, n) @ gens[:, :n]) % p
    m = lex_digits(p, n) @ gens
    m %= p
    support = ((m[:, :n] != 0) | (m[:, n:] != 0)) @ (1 << np.arange(n))
    return (members, frozenset(int(k) for k in members @ powers), keys[0], xs,
            np.bincount(support, minlength=1 << n))


def _support_counts_oracle(group):
    """The earlier groups._support_counts: the number of members supported
    on exactly each qupit subset, by bitmask, from a member table of its own."""
    n = group.params.n
    m = _member_table(group.params, group.matrix)
    support = ((m[:, :n] != 0) | (m[:, n:] != 0)) @ (1 << np.arange(n))
    return np.bincount(support, minlength=1 << n)


def _profile_from_census(counts, n):
    """The earlier nbody_profile body, read off a support census."""
    by_size = [0] * (n + 1)
    for mask, c in enumerate(counts.tolist()):
        by_size[mask.bit_count()] += c
    return tuple(by_size[1:])


def _pattern_from_census(counts, p, n):
    """The earlier separation_pattern body, read off a support census."""
    inside = counts.reshape((2,) * n)
    for axis in range(n):
        inside = inside.cumsum(axis=axis)
    inside = inside.ravel().tolist()
    full = (1 << n) - 1
    blocks = [full]
    for subset in range(1, 1 << (n - 1)):
        if inside[subset] * inside[full ^ subset] == p ** n:
            blocks = [part for b in blocks for part in (b & subset, b & ~subset) if part]
    return tuple(sorted(tuple(i for i in range(n) if b >> i & 1) for b in blocks))


def _two_census_oracle(group):
    """The earlier classify_basis, which took the support census twice: once
    for the separation pattern and once for the n-body profile."""
    p, n = group.params.p, group.params.n
    pattern = _pattern_from_census(_support_counts_oracle(group), p, n)
    profile = _profile_from_census(_support_counts_oracle(group), n)
    key = (tuple(sorted(len(b) for b in pattern)), profile)
    label = next((lab for lab, row in type_rows(group.params).items() if row == key), "OTHER")
    return MubType(label, pattern, profile)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 3), (3, 2), (2, 4), (3, 3), (5, 2)])
def test_member_table_matches_per_site_products(p, n):
    params = SystemParams(p, n)
    field = [cls.matrix for cls in field_spread(params).classes]
    for matrices in (field, enumerate_lagrangians(params)):
        tables, keys = _member_table(params, matrices), _member_keys(params, matrices)
        assert tables.shape == (len(matrices), p ** n, 2 * n) and keys.shape == tables.shape[:2]
        for k, m in enumerate(matrices):
            members, keyset, key_row, xs, counts = _member_products_oracle(params, m)
            g = CompatGroup(params, m)
            assert g.members.dtype == np.int64 and np.array_equal(g.members, members)
            assert g.member_keys == keyset
            assert np.array_equal(tables[k], members)
            assert np.array_equal(keys[k], key_row)
            assert np.array_equal(_member_keys(params, m), key_row)
            assert np.array_equal(_member_table(params, m)[:, :n], xs)
            assert nbody_profile(g) == _profile_from_census(counts, n)
            assert separation_pattern(g) == _pattern_from_census(counts, p, n)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (2, 4), (3, 3)])
def test_classify_basis_matches_two_census_oracle(p, n):
    params = SystemParams(p, n)
    for m in enumerate_lagrangians(params):
        g = CompatGroup(params, m)
        assert classify_basis(g) == _two_census_oracle(g), m


def test_classify_basis_builds_one_member_table(monkeypatch):
    calls = []

    def counted(params, matrices):
        calls.append(1)
        return _member_table(params, matrices)

    monkeypatch.setattr(mubkit.groups, "_member_table", counted)
    params = SystemParams(3, 3)
    comp = field_spread(params)
    for k, cls in enumerate(comp.classes[:5], 1):
        classify_basis(cls)
        assert len(calls) == k
    calls.clear()
    complement_distribution(comp)
    assert len(calls) == len(comp.classes)
    calls.clear()
    g = group_from_generators(params, _letters(params, *G3_SET))
    separation_pattern(g)
    nbody_profile(g)
    assert len(calls) == 2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_golden_classifications(p):
    for name, (params, gens) in _golden_sets(p).items():
        mt = classify_basis(group_from_generators(params, gens))
        want_label, want_pattern = _EXPECT[name]
        assert mt.label == want_label, f"{name} at p={p} gave {mt.label}"
        assert mt.pattern == want_pattern, f"{name} at p={p} gave {mt.pattern}"


@pytest.mark.parametrize("p", [2, 3, 5])
def test_golden_profiles_match_closed_forms(p):
    for name, (params, gens) in _golden_sets(p).items():
        g = group_from_generators(params, gens)
        profile = nbody_profile(g)
        assert sum(profile) == p ** params.n - 1
        row = profile_table(params).rows[_ROW_KEY.get(name, name)]
        assert profile == row, f"{name} at p={p}: {profile} != {row}"


def test_p4_letter_set_degenerates_at_5():
    # the letter set acquires a 2-body family exactly at p = 5 and lands on
    # the C4 profile; a 2-body free group still exists there
    params = SystemParams(5, 4)
    mt = classify_basis(group_from_generators(params, _letters(params, *P4_SET)))
    assert mt.label == "C4"
    assert mt.profile == profile_table(params).rows["C4"] == (0, 8, 80, 536)
    mt5 = classify_basis(group_from_generators(params, list(P4_AT_5)))
    assert mt5.label == "P4"
    assert mt5.profile == profile_table(params).rows["P4"] == (0, 0, 96, 528)
    # at p = 3 and p = 7 the letter set itself is 2-body free
    for p in (3, 7):
        params = SystemParams(p, 4)
        mt = classify_basis(group_from_generators(params, _letters(params, *P4_SET)))
        assert mt.label == "P4"
        assert mt.profile[1] == 0


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cyclic_variant_does_not_commute(p):
    # cyclic permutations of (Z, X, Y, W) with Z^-1 in place of Z on the
    # second and fourth lines; the pairs (0,3) and (1,2) have symplectic
    # forms -4 and +4, nonzero for every odd p
    params = SystemParams(p, 4)
    inv = p - 1
    gens = [
        parse_pauli("0 1, 1 0, 1 1, 1 2", params),
        parse_pauli(f"1 0, 1 1, 1 2, 0 {inv}", params),
        parse_pauli("1 1, 1 2, 0 1, 1 0", params),
        parse_pauli(f"1 2, 0 {inv}, 1 0, 1 1", params),
    ]
    assert symplectic_form(gens[0], gens[3], p) == (-4) % p
    assert symplectic_form(gens[1], gens[2], p) == 4 % p
    with pytest.raises(NonCommutingError) as exc:
        validate_generators(params, gens)
    assert (exc.value.i, exc.value.j) == (0, 3)


def test_noncommuting_error_indices():
    params = SystemParams(2, 1)
    with pytest.raises(NonCommutingError) as exc:
        validate_generators(params, _letters(params, "X", "Z"))
    assert (exc.value.i, exc.value.j) == (0, 1)


def test_dependent_generators():
    params = SystemParams(2, 2)
    with pytest.raises(DependentGeneratorsError):
        group_from_generators(params, _letters(params, "XX", "XX"))
    with pytest.raises(DependentGeneratorsError):
        group_from_generators(params, _letters(params, "XX"))


def test_canonical_matrix_is_generator_order_free():
    params = SystemParams(3, 2)
    a = group_from_generators(params, _letters(params, "ZI", "IZ"))
    b = group_from_generators(params, _letters(params, "IZ", "ZI"))
    assert a.matrix == b.matrix
    c = group_from_generators(params, [_op((0, 0), (1, 2)), _op((0, 0), (1, 0))])
    assert c.matrix == a.matrix


def test_factor_distribution_spec_examples():
    params = SystemParams(2, 2)
    g = group_from_generators(params, _letters(params, "ZI", "IZ"))
    d = qupit_factor_distribution(g, 0)
    assert (d.kind, d.local, d.multiplicity) == ("pure", (0, 1), 2)
    g = group_from_generators(params, _letters(params, "XX", "ZZ"))
    d = qupit_factor_distribution(g, 0)
    assert (d.kind, d.local, d.multiplicity) == ("entangled", None, 1)
    params = SystemParams(2, 3)
    g = group_from_generators(params, _letters(params, "ZII", "IXX", "IZZ"))
    d = qupit_factor_distribution(g, 2)
    assert (d.kind, d.multiplicity) == ("entangled", 2)
    assert qupit_factor_distribution(g, 0).local == (0, 1)
    # the vertical class at (3,2), whose qupit 1 factor is Z: -1 is not read
    # from the end of the x-block, where it would give X, and 2 is past it
    params = SystemParams(3, 2)
    g = group_from_generators(params, _letters(params, "ZI", "IZ"))
    for q in (-1, 2):
        with pytest.raises(ValueError, match=r"qupit must lie in \[0, 2\), got"):
            qupit_factor_distribution(g, q)


def test_pure_local_is_primitive():
    # the reported local operator has first nonzero exponent scaled to 1
    params = SystemParams(5, 2)
    g = group_from_generators(params, [_op((0, 0), (2, 0)), _op((0, 0), (0, 1))])
    d = qupit_factor_distribution(g, 0)
    assert (d.kind, d.local, d.multiplicity) == ("pure", (0, 1), 5)


def _factor_by_tally(group, qupit):
    """Reference factor distribution: tally the qupit's local (x, z) factor
    over all p^n members of the group's member table."""
    p, n = group.params.p, group.params.n
    m = group.members
    codes = m[:, qupit] * p + m[:, n + qupit]
    tally = np.bincount(codes, minlength=p * p)
    present = {int(c) for c in np.nonzero(tally)[0]}
    if len(present) == p * p and n >= 2:
        want = p ** (n - 2)
        if all(int(tally[c]) == want for c in range(p * p)):
            return FactorDistribution("entangled", None, want)
    if len(present) == p:
        a, b = next((c // p, c % p) for c in sorted(present) if c)
        scale = pow(a if a else b, p - 2, p)  # make the first nonzero exponent 1
        prim = ((a * scale) % p, (b * scale) % p)
        line = {((k * prim[0]) % p) * p + (k * prim[1]) % p for k in range(p)}
        want = p ** (n - 1)
        if present == line and all(int(tally[c]) == want for c in line):
            return FactorDistribution("pure", prim, want)
    raise TheoremViolationError(
        f"qupit {qupit} shows {len(present)} local classes with tallies "
        f"{sorted(set(int(t) for t in tally if t))}")


def _factor_or_error(fn, group, qupit):
    try:
        return fn(group, qupit)
    except TheoremViolationError as exc:
        return str(exc)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (2, 4)])
def test_factor_distribution_matches_tally_oracle(p, n):
    params = SystemParams(p, n)
    for mat in enumerate_lagrangians(params):
        g = CompatGroup(params, mat)
        for q in range(n):
            assert qupit_factor_distribution(g, q) == _factor_by_tally(g, q)


@pytest.mark.parametrize("p,n,rows,want", [
    # X and Z on qupit 0 only: qupit 1's columns are zero
    (2, 2, ((1, 0, 0, 0), (0, 0, 1, 0)),
     [FactorDistribution("entangled", None, 1), "qupit 1 shows 1 local classes with tallies [4]"]),
    # one generator twice: qupit 0 is the line of (2, 1) = 2 (1, 2), qupit 1 is zero
    (3, 2, ((2, 0, 1, 0), (2, 0, 1, 0)),
     [FactorDistribution("pure", (1, 2), 3), "qupit 1 shows 1 local classes with tallies [9]"]),
    # rank 2 at qupit 0 from only two distinct rows out of three
    (3, 3, ((1, 0, 0, 0, 1, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 1, 0, 0)),
     [FactorDistribution("entangled", None, 3), FactorDistribution("pure", (0, 1), 9),
      "qupit 2 shows 1 local classes with tallies [27]"]),
])
def test_factor_distribution_on_non_lagrangians(p, n, rows, want):
    # verify runs the census on files that failed the structural checks too
    g = CompatGroup(SystemParams(p, n), rows)
    got = [_factor_or_error(qupit_factor_distribution, g, q) for q in range(n)]
    assert got == [_factor_or_error(_factor_by_tally, g, q) for q in range(n)] == want


def test_separation_spec_examples():
    params = SystemParams(2, 3)
    g = group_from_generators(params, _letters(params, "ZII", "IXX", "IZZ"))
    assert separation_pattern(g) == ((0,), (1, 2))
    params = SystemParams(2, 4)
    g = group_from_generators(params, _letters(params, *C4_SET))
    assert separation_pattern(g) == ((0, 1, 2, 3),)
    g = group_from_generators(params, _letters(params, "XXII", "ZZII", "IIXX", "IIZZ"))
    assert separation_pattern(g) == ((0, 1), (2, 3))


def _support_dim(group, subset):
    """Dimension of the subgroup supported entirely inside the given qupits."""
    p, n = group.params.p, group.params.n
    outside = [i for i in range(n) if i not in subset]
    cols = outside + [n + i for i in outside]
    count = int(np.all(group.members[:, cols] == 0, axis=1).sum())
    dim = 0
    while count > 1:
        count //= p
        dim += 1
    return dim


def separation_oracle(group):
    """The per-bipartition member scan that separation_pattern replaced."""
    n = group.params.n
    blocks = [frozenset(range(n))]
    for mask in range(1, 1 << (n - 1)):
        subset = frozenset(i for i in range(n) if (mask >> i) & 1)
        rest = frozenset(range(n)) - subset
        if _support_dim(group, subset) + _support_dim(group, rest) != n:
            continue
        refined = []
        for b in blocks:
            for part in (b & subset, b & rest):
                if part:
                    refined.append(part)
        blocks = refined
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


@pytest.mark.parametrize("p,n", [(2, 3), (2, 4), (3, 3), (7, 2)])
def test_separation_matches_oracle_on_every_lagrangian(p, n):
    params = SystemParams(p, n)
    patterns = set()
    for m in enumerate_lagrangians(params):
        g = CompatGroup(params, m)
        pattern = separation_pattern(g)
        assert pattern == separation_oracle(g), m
        patterns.add(pattern)
    # every set partition of the qupits occurs, so each split test was exercised
    assert len(patterns) == {2: 2, 3: 5, 4: 15}[n]


@pytest.mark.parametrize("p,n", [(2, 6), (3, 4)])
def test_separation_matches_oracle_on_field_spreads(p, n):
    for g in field_spread(SystemParams(p, n)).classes:
        assert separation_pattern(g) == separation_oracle(g), g.matrix


def _nbody_by_table(group):
    """Reference n-body profile: the member-table scan nbody_profile replaced."""
    n = group.params.n
    m = group.members
    bodies = ((m[:, :n] != 0) | (m[:, n:] != 0)).sum(axis=1)
    counts = np.bincount(bodies, minlength=n + 1)
    return tuple(int(c) for c in counts[1:])


def _separation_by_table(group):
    """Reference separation pattern: the member-table scan separation_pattern
    replaced."""
    p, n = group.params.p, group.params.n
    m = group.members
    support = ((m[:, :n] != 0) | (m[:, n:] != 0)) @ (1 << np.arange(n))
    inside = np.bincount(support, minlength=1 << n).reshape((2,) * n)
    for axis in range(n):
        inside = inside.cumsum(axis=axis)
    inside = inside.ravel().tolist()
    full = (1 << n) - 1
    blocks = [full]
    for subset in range(1, 1 << (n - 1)):
        if inside[subset] * inside[full ^ subset] == p ** n:
            blocks = [part for b in blocks for part in (b & subset, b & ~subset) if part]
    return tuple(sorted(tuple(i for i in range(n) if b >> i & 1) for b in blocks))


def _assert_matches_table_oracles(g):
    profile, pattern = nbody_profile(g), separation_pattern(g)
    assert all(type(c) is int for c in profile)
    assert profile == _nbody_by_table(g)
    assert pattern == _separation_by_table(g)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 2)])
def test_classification_matches_table_oracles_on_every_lagrangian(p, n):
    params = SystemParams(p, n)
    for mat in enumerate_lagrangians(params):
        _assert_matches_table_oracles(CompatGroup(params, mat))


@pytest.mark.parametrize("p,n", [(2, 5), (3, 4), (5, 3)])
def test_classification_matches_table_oracles_on_random_lagrangians(p, n):
    params = SystemParams(p, n)
    rng = random.Random(100 * p + n)
    for _ in range(50):
        _assert_matches_table_oracles(random_lagrangian(params, rng))


def test_classification_holds_no_member_tables():
    # each class's support census is made and dropped inside the call, so
    # the call's peak, less the labels and patterns it returns, and what
    # stays behind once those are dropped are each under a tenth of the
    # member tables of all classes
    params = SystemParams(3, 4)
    comp = field_spread(params)
    tables = len(comp.classes) * params.dim * 2 * params.n * 8
    complement_distribution(field_spread(params))  # warm lex_digits and numpy's buffer cache
    tracemalloc.start()
    try:
        dist = complement_distribution(comp)
        kept, peak = tracemalloc.get_traced_memory()
        assert sum(dist.counts.values()) == len(comp.classes)
        del dist
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert not any("members" in cls.__dict__ for cls in comp.classes)
    assert held < tables / 10
    assert peak - (kept - held) < tables / 10


def test_bb_and_g4_share_a_profile_but_not_a_label():
    params = SystemParams(2, 4)
    bb = classify_basis(group_from_generators(
        params, _letters(params, "XXII", "ZZII", "IIXX", "IIZZ")))
    g4 = classify_basis(group_from_generators(params, _letters(params, *G4_SET)))
    assert bb.profile == g4.profile == (0, 6, 0, 9)
    assert (bb.label, g4.label) == ("BB", "G4")


@pytest.mark.parametrize("p", [2, 3])
def test_classification_is_permutation_invariant(p):
    params = SystemParams(p, 4)
    base = _golden_sets(p)["SG3"][1]
    for perm in permutations(range(4)):
        gens = [PauliOp(tuple(g.x[perm[i]] for i in range(4)),
                        tuple(g.z[perm[i]] for i in range(4))) for g in base]
        mt = classify_basis(group_from_generators(params, gens))
        assert mt.label == "SG3"
        inv = {perm[i]: i for i in range(4)}
        want = tuple(sorted(tuple(sorted(inv[q] for q in block))
                            for block in ((0, 1, 2), (3,))))
        assert mt.pattern == want


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
def test_factor_dichotomy_random_lagrangians(p, n):
    params = SystemParams(p, n)
    rng = random.Random(1000 * p + n)
    for _ in range(30):
        g = random_lagrangian(params, rng)
        pure = 0
        for q in range(n):
            d = qupit_factor_distribution(g, q)
            if d.kind == "pure":
                assert d.multiplicity == p ** (n - 1)
                pure += 1
            else:
                assert d.multiplicity == p ** (n - 2)
        # 1-body members come only from pure qupits, p - 1 each
        assert nbody_profile(g)[0] == (p - 1) * pure


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4)])
def test_random_lagrangian_is_isotropic(p, n):
    params = SystemParams(p, n)
    rng = random.Random(n * 100 + p)
    for _ in range(20):
        g = random_lagrangian(params, rng)
        m = g.members
        x, z = m[:, :n], m[:, n:]
        forms = (x @ z.T - z @ x.T) % p
        assert not forms.any()


def _random_lagrangian_oracle(params, rng):
    """The earlier rejection loop: a draw is kept when it reduces to a nonzero
    vector against the rref of the rows so far and is isotropic to them."""
    p, n = params.p, params.n
    rows, mat, pivots = [], (), ()
    while len(rows) < n:
        v = tuple(rng.randrange(p) for _ in range(2 * n))
        w = list(v)
        for row, c in zip(mat, pivots):
            f = w[c]
            if f:
                w = [(a - f * b) % p for a, b in zip(w, row)]
        if not any(w) or any(symplectic_form_vec(v, r, p) for r in rows):
            continue
        rows.append(v)
        mat, pivots = rref(rows, p)
    return mat


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (3, 4),
                                 (5, 3), (2, 5), (7, 2)])
def test_random_lagrangian_matches_reduction_oracle(p, n):
    # the same draws are kept, so each seed gives the same groups and leaves
    # the generator in the same state
    params = SystemParams(p, n)
    for seed in range(3):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        for _ in range(10):
            assert random_lagrangian(params, rng).matrix == _random_lagrangian_oracle(
                params, oracle_rng)
        assert rng.random() == oracle_rng.random()


def test_profile_sums():
    for p, n in ((2, 4), (3, 3), (5, 2)):
        params = SystemParams(p, n)
        rng = random.Random(p + n)
        for _ in range(10):
            prof = nbody_profile(random_lagrangian(params, rng))
            assert len(prof) == n
            assert sum(prof) == p ** n - 1


def test_label_vocabulary():
    assert set(_EXPECT[k][0] for k in _EXPECT) < set(MUB_LABELS)
    # the ordered union of the type table's labels, P4 included from p = 3
    union = {lab: None for n in range(1, 5) for lab in type_rows(SystemParams(3, n))}
    assert MUB_LABELS == tuple(union) + ("OTHER",)


def _classify_by_thresholds(group):
    """The per-label threshold chain that the type_rows lookup replaced."""
    p, n = group.params.p, group.params.n
    sizes = sorted(len(b) for b in separation_pattern(group))
    profile = nbody_profile(group)
    if n > 4:
        return "OTHER"
    if sizes == [1] * n:
        return "PI"
    if n == 2:
        return "B"
    if n == 3:
        return "SB" if sizes == [1, 2] else "G3"
    if sizes == [1, 1, 2]:
        return "S2B"
    if sizes == [1, 3]:
        return "SG3"
    if sizes == [2, 2]:
        return "BB"
    two_body, three_body = profile[1], profile[2]
    if two_body == 6 * (p - 1):
        return "G4"
    if two_body == 2 * (p - 1):
        return "C4"
    if two_body == 0 and three_body == 4 * (p * p - 1):
        return "P4"
    return "OTHER"


def _weighted_graph_states(params):
    """Every weighted graph state [I | Gamma], Gamma symmetric with zero diagonal.

    Labels depend only on which sites each member touches, which local
    Clifford maps keep, and every stabilizer basis is local Clifford
    equivalent to a graph state, so these show every label case.
    """
    p, n = params.p, params.n
    edges = list(combinations(range(n), 2))
    for weights in product(range(p), repeat=len(edges)):
        gamma = [[0] * n for _ in range(n)]
        for (i, j), w in zip(edges, weights):
            gamma[i][j] = gamma[j][i] = w
        yield CompatGroup(params, tuple(
            tuple(int(i == j) for j in range(n)) + tuple(gamma[i]) for i in range(n)))


def _differential_groups(case):
    if case == "graph-3-4":
        return list(_weighted_graph_states(SystemParams(3, 4)))
    if case == "field-5-4":
        return field_spread(SystemParams(5, 4)).classes
    params = SystemParams(*case)
    return [CompatGroup(params, m) for m in enumerate_lagrangians(params)]


@pytest.mark.parametrize("case", [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (2, 4),
                                  "graph-3-4", "field-5-4"],
                         ids=lambda c: c if isinstance(c, str) else "lagrangians-%d-%d" % c)
def test_type_table_matches_threshold_chain(case):
    groups = _differential_groups(case)
    assert len(groups) == {"graph-3-4": 729, "field-5-4": 626}.get(case, len(groups))
    for g in groups:
        assert classify_basis(g).label == _classify_by_thresholds(g), g.matrix


def test_n5_is_other():
    params = SystemParams(2, 5)
    gens = [_z_at(5, i) for i in range(5)]
    mt = classify_basis(group_from_generators(params, gens))
    assert mt.label == "OTHER"
    assert mt.pattern == tuple((i,) for i in range(5))
    assert mt.profile == (5, 10, 10, 5, 1)
