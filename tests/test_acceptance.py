"""Acceptance gate: ten release criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v` to get one verdict line per
criterion; each test also prints the measured values behind the verdict.
"""

import random
from itertools import combinations
from time import perf_counter

import numpy as np
import pytest

from mubkit.complement import (
    complement_distribution,
    enumerate_lagrangians,
    field_spread,
    purity_census,
    search_spreads,
    verify_spread,
)
from mubkit.groups import (
    CompatGroup,
    classify_basis,
    group_from_generators,
    nbody_profile,
    qupit_factor_distribution,
    random_lagrangian,
)
from mubkit.hilbert import TOL, eigenbasis, eigenvalue_deviation, mub_check, operator_matrix, qupit_purities
from mubkit.pauli import from_vector, parse_pauli
from mubkit.stoich import (
    P3_N4_FULL_SOLUTION_COUNT,
    count_solutions,
    enumerate_solutions,
    extremize,
    profile_table,
)
from mubkit.zplinalg import SystemParams


class Timer:
    def __enter__(self):
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = perf_counter() - self.t0


def _report(num, name, detail):
    print(f"criterion {num:02d} {name}: {detail}")


# ---------------------------------------------------------------------------
# golden generator sets


def _z_at(n, i):
    z = [0] * n
    z[i] = 1
    return from_vector(tuple([0] * n + z))


def _bell_ops(n, i, j, p):
    x = [0] * (2 * n)
    x[i], x[j] = 1, p - 1
    z = [0] * (2 * n)
    z[n + i], z[n + j] = 1, 1
    return [from_vector(tuple(x)), from_vector(tuple(z))]


def _letters(params, *texts):
    return [parse_pauli(t, params) for t in texts]


P4_AT_5 = tuple(
    from_vector(tuple(x) + tuple(z))
    for x, z in zip(np.eye(4, dtype=int).tolist(),
                    [(0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 0, 3), (1, 0, 3, 0)]))


def _golden_sets(p):
    """One commuting generator set per distribution row, for every n in 2..4."""
    p2, p3, p4 = SystemParams(p, 2), SystemParams(p, 3), SystemParams(p, 4)
    sets = {
        (2, "PI"): (p2, [_z_at(2, 0), _z_at(2, 1)]),
        (2, "B"): (p2, _bell_ops(2, 0, 1, p)),
        (3, "PI"): (p3, [_z_at(3, i) for i in range(3)]),
        (3, "SB"): (p3, [_z_at(3, 0)] + _bell_ops(3, 1, 2, p)),
        (3, "G3"): (p3, _letters(p3, "XXY", "XYX", "YXX")),
        (4, "PI"): (p4, [_z_at(4, i) for i in range(4)]),
        (4, "S2B"): (p4, [_z_at(4, 0), _z_at(4, 1)] + _bell_ops(4, 2, 3, p)),
        (4, "SG3"): (p4, _letters(p4, "XXYI", "XYXI", "YXXI") + [_z_at(4, 3)]),
        (4, "BB"): (p4, _bell_ops(4, 0, 1, p) + _bell_ops(4, 2, 3, p)),
        (4, "G4"): (p4, _letters(p4, "XXXY", "XXYX", "XYXX", "YXXX")),
        (4, "C4"): (p4, _letters(p4, "XZXI", "ZXIX", "XIXZ", "IXZX")),
    }
    if p == 3:
        sets[(4, "P4")] = (p4, _letters(p4, "ZXYW", "XZWY", "WYXZ", "YWZX"))
    elif p == 5:
        sets[(4, "P4")] = (p4, list(P4_AT_5))
    return sets


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_n2_rigidity():
    worst = 0.0
    for p in (2, 3, 5, 7):
        with Timer() as t:
            comp = field_spread(SystemParams(p, 2))
            counts = complement_distribution(comp).counts
        assert counts == {"PI": p + 1, "B": p * p - p}, (p, counts)
        assert t.elapsed < 1.0, (p, t.elapsed)
        worst = max(worst, t.elapsed)
    _report(1, "two-qupit rigidity",
            f"p=2,3,5,7 each give PI=p+1, B=p^2-p (slowest {worst:.2f}s)")


def test_criterion_02_purity_census():
    cases = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (5, 4))
    with Timer() as t:
        for p, n in cases:
            census = purity_census(field_spread(SystemParams(p, n)))
            assert census.pure == (p + 1,) * n
            assert census.entangled == (p ** n - p,) * n
            assert census.identity_tally == (p ** (2 * n - 2) - 1,) * n
    assert t.elapsed < 10.0, t.elapsed
    _report(2, "purity census",
            f"{len(cases)} systems: every qupit pure p+1 and entangled p^n-p "
            f"times, identity tallies balanced [{t.elapsed:.1f}s]")


def test_criterion_03_hilbert_verification():
    cases = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4))
    worst_overlap = worst_orth = worst_pure = worst_eig = 0.0
    with Timer() as t:
        for p, n in cases:
            params = SystemParams(p, n)
            d = params.dim
            comp = field_spread(params)
            bases = [eigenbasis(cls, check=True) for cls in comp.classes]
            for b in bases:
                gram = b.vectors.conj().T @ b.vectors
                worst_orth = max(worst_orth,
                                 float(np.abs(gram - np.eye(d)).max()))
                dev = eigenvalue_deviation(b)
                worst_eig = max(worst_eig, dev)
                pur = qupit_purities(b.vectors, params)
                worst_pure = max(worst_pure,
                                 float(np.abs(pur - pur.round()).max()))
                assert set(np.unique(pur.round())) <= {0.0, 1.0}
            for a, b in combinations(bases, 2):
                worst_overlap = max(worst_overlap, mub_check(a, b))
    assert worst_overlap < 1e-9
    assert worst_orth < 1e-9
    assert worst_pure < 1e-9
    assert worst_eig < 1e-9
    assert t.elapsed < 300.0, t.elapsed
    _report(3, "hilbert verification",
            f"d=4,8,16,9,27,81: overlap dev {worst_overlap:.1e}, "
            f"orthonormality dev {worst_orth:.1e}, purity dev {worst_pure:.1e}, "
            f"eigenvalue dev {worst_eig:.1e} [{t.elapsed:.1f}s]")


def test_criterion_04_profile_goldens():
    with Timer() as t:
        checked = 0
        for p in (2, 3, 5):
            sets = _golden_sets(p)
            if p >= 3:  # n in 2..3 already covered by the p=2 pass
                sets = {k: v for k, v in sets.items() if k[0] == 4}
            by_n = {}
            for (n, label), (params, gens) in sets.items():
                group = group_from_generators(params, gens)
                mt = classify_basis(group)
                assert mt.label == label, (p, n, label, mt.label)
                table = profile_table(params)
                assert mt.profile == table.rows[label], (p, n, label, mt.profile)
                by_n.setdefault(n, set()).add(label)
                checked += 1
            for n, labels in by_n.items():
                assert labels == set(profile_table(SystemParams(p, n)).labels)
        # spot values quoted with the tables
        c4 = classify_basis(group_from_generators(
            SystemParams(2, 4), _golden_sets(2)[(4, "C4")][1]))
        assert c4.profile == (0, 2, 8, 5)
        p4 = classify_basis(group_from_generators(
            SystemParams(3, 4), _golden_sets(3)[(4, "P4")][1]))
        assert p4.profile == (0, 0, 32, 48)
    assert t.elapsed < 1.0, t.elapsed
    _report(4, "profile goldens",
            f"{checked} generator sets hit every table row at p=2,3,5 "
            f"[{t.elapsed:.2f}s]")


def test_criterion_05_stoichiometry_counts():
    with Timer() as t:
        sols = enumerate_solutions(profile_table(SystemParams(2, 3)))
        assert {(s["PI"], s["SB"], s["G3"]) for s in sols} == {
            (3, 0, 6), (2, 3, 4), (1, 6, 2), (0, 9, 0)}
        sols = enumerate_solutions(profile_table(SystemParams(3, 3)))
        assert {(s["PI"], s["SB"], s["G3"]) for s in sols} == {
            (4, 0, 24), (3, 3, 22), (2, 6, 20), (1, 9, 18), (0, 12, 16)}
        for p in (2, 3, 5, 7):
            table = profile_table(SystemParams(p, 3))
            assert count_solutions(table) == p + 2
            assert extremize(table, "G3", "min")["G3"] == p ** 3 - 3 * p - 2
        assert count_solutions(profile_table(SystemParams(2, 4))) == 48
        assert count_solutions(profile_table(SystemParams(3, 4)),
                               forbid=("P4",)) == 11
        assert count_solutions(profile_table(SystemParams(5, 4)),
                               forbid=("P4",)) == 0
    assert t.elapsed < 10.0, t.elapsed
    _report(5, "stoichiometry counts",
            f"3-qupit tables, p+2 family, 48/11/0 at n=4 [{t.elapsed:.2f}s]")


def test_criterion_06_extrema():
    with Timer() as t:
        a = extremize(profile_table(SystemParams(3, 4)), "P4", "min",
                      fixes={"PI": 4})
        b = extremize(profile_table(SystemParams(5, 4)), "P4", "min")
        c = extremize(profile_table(SystemParams(5, 4)), "P4", "min",
                      fixes={"PI": 6})
    assert a["P4"] == 6 and a["C4"] == 72
    assert b["P4"] == 206 and b["SG3"] == 24 and b["C4"] == 396
    assert c["P4"] == 260 and c["C4"] == 360
    assert t.elapsed < 30.0, t.elapsed
    _report(6, "extrema",
            f"min P4: 6 (p=3, PI=4), 206 (p=5), 260 (p=5, PI=6) "
            f"[{t.elapsed:.2f}s]")


def test_criterion_07_exact_count_adjudication():
    with Timer() as t:
        exact = count_solutions(profile_table(SystemParams(3, 4)))
    assert exact == P3_N4_FULL_SOLUTION_COUNT
    assert exact > 5000
    _report(7, "exact count adjudication",
            f"p=3 n=4 full count = {exact} > 5000 [{t.elapsed:.2f}s]")


def test_criterion_08_qubit_lagrangian_sweep():
    params = SystemParams(2, 4)
    table = profile_table(params)
    with Timer() as t:
        mats = enumerate_lagrangians(params)
        assert len(mats) == 2295
        profiles = {}
        shared_labels = set()
        for m in mats:
            group = CompatGroup(params, m)
            prof = nbody_profile(group)
            profiles[prof] = profiles.get(prof, 0) + 1
            assert not (prof[0] == 0 and prof[1] == 0), prof
            if prof == (0, 6, 0, 9):
                shared_labels.add(classify_basis(group).label)
    assert set(profiles) == {tuple(row) for row in table.rows.values()}
    assert len(profiles) == 5
    assert shared_labels == {"BB", "G4"}
    assert t.elapsed < 120.0, t.elapsed
    _report(8, "qubit lagrangian sweep",
            f"2295 subspaces, profiles {sorted(profiles.values())} over 5 "
            f"classes, none fully 3+ body [{t.elapsed:.1f}s]")


def test_criterion_09_realizability():
    params = SystemParams(2, 3)
    table_rows = {(3, 0, 6), (2, 3, 4), (1, 6, 2), (0, 9, 0)}

    def triple(comp):
        counts = complement_distribution(comp).counts
        return tuple(counts.get(k, 0) for k in ("PI", "SB", "G3"))

    with Timer() as t:
        found = None
        examined = 0
        for cand in search_spreads(params):
            examined += 1
            if triple(cand) == (0, 9, 0):
                found = cand
                break
        assert found is not None, f"no (0,9,0) spread in {examined} candidates"
        assert verify_spread(found).ok
        seen = set()
        total = 0
        for cand in search_spreads(params):
            seen.add(triple(cand))
            total += 1
    assert seen <= table_rows
    assert (0, 9, 0) in seen
    assert t.elapsed < 300.0, t.elapsed
    _report(9, "realizability",
            f"(0,9,0) spread found after {examined} candidates; sweep of "
            f"{total} spreads stays inside the 4 admissible triples, "
            f"realizing {sorted(seen)} [{t.elapsed:.1f}s]")


def _commutation_oracle_case(p, n):
    """Exhaustively compare matrix commutation with the symplectic form."""
    params = SystemParams(p, n)
    d = params.dim
    vecs = np.array(np.meshgrid(*[range(p)] * (2 * n), indexing="ij"),
                    dtype=np.int64).reshape(2 * n, -1).T
    forms = (vecs[:, :n] @ vecs[:, n:].T - vecs[:, n:] @ vecs[:, :n].T) % p
    perms = np.empty((len(vecs), d), dtype=np.int64)
    amps = np.empty((len(vecs), d), dtype=np.complex128)
    for i, v in enumerate(vecs):
        m = operator_matrix(from_vector(tuple(int(c) for c in v)), params)
        perms[i] = np.argmax(np.abs(m) > 0.5, axis=0)
        amps[i] = m[perms[i], np.arange(d)]
    for a in range(len(vecs)):
        pa, aa = perms[a], amps[a]
        perm_ab = pa[perms]
        amp_ab = aa[perms] * amps
        perm_ba = perms[:, pa]
        amp_ba = amps[:, pa] * aa[None, :]
        commute = ((perm_ab == perm_ba).all(axis=1)
                   & (np.abs(amp_ab - amp_ba).max(axis=1) < 1e-9))
        assert (commute == (forms[a] == 0)).all(), (p, n, a)
    return len(vecs)


def test_criterion_10_property_suites():
    with Timer() as t:
        ops_checked = 0
        for p, n in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                     (5, 1), (5, 2)):
            ops_checked += _commutation_oracle_case(p, n)

        rng = random.Random(918273)
        dichotomy = 0
        for p, n in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)):
            params = SystemParams(p, n)
            for _ in range(100):
                group = random_lagrangian(params, rng)
                m = group.members
                pures = 0
                for i in range(n):
                    locals_seen = {(int(a), int(b))
                                   for a, b in zip(m[:, i], m[:, n + i])}
                    dist = qupit_factor_distribution(group, i)
                    if dist.kind == "pure":
                        assert len(locals_seen) == p
                        pures += 1
                    else:
                        assert len(locals_seen) == p * p
                assert nbody_profile(group)[0] == (p - 1) * pures
                dichotomy += 1

        bases_checked = 0
        for p, n in ((2, 2), (3, 2), (2, 3)):
            params = SystemParams(p, n)
            groups = list(field_spread(params).classes)
            groups += [random_lagrangian(params, rng) for _ in range(10)]
            for group in groups:
                kinds = [qupit_factor_distribution(group, i).kind
                         for i in range(n)]
                want = np.array([1.0 if k == "pure" else 0.0 for k in kinds])
                pur = qupit_purities(eigenbasis(group, check=False).vectors,
                                     params)
                assert np.abs(pur - want[None, :]).max() < 1e-9
                bases_checked += 1
    assert t.elapsed < 120.0, t.elapsed
    _report(10, "property suites",
            f"commutation oracle exact on {ops_checked} operators across 9 "
            f"systems; factor dichotomy on {dichotomy} random subspaces; "
            f"purity layers agree on {bases_checked} bases [{t.elapsed:.1f}s]")
