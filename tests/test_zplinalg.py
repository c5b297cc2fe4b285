"""Exact arithmetic over Z_p and GF(p^N)."""

import random
from itertools import product

import pytest

from mubkit.errors import GuardExceededError
from mubkit.zplinalg import (
    ExtField,
    SystemParams,
    _is_irreducible,
    inv_mod,
    is_prime,
    rref,
    solve_affine,
)


def rank(rows, p):
    return len(rref(rows, p)[1])


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for k in range(25):
        assert is_prime(k) == (k in primes)


def test_system_params_validation():
    assert SystemParams(3, 4).dim == 81
    with pytest.raises(ValueError):
        SystemParams(4, 2)
    with pytest.raises(ValueError):
        SystemParams(1, 2)
    with pytest.raises(ValueError):
        SystemParams(2, 0)


def test_system_params_guard():
    # the largest admitted p is the prime 2^31 - 1, the largest n is 64
    assert SystemParams(2 ** 31 - 1, 64).p == 2 ** 31 - 1
    # the guard comes before the primality test and before p ** n
    for p, n in ((2 ** 31, 1), (10 ** 18 + 3, 2), (2, 65), (4, 30_000_000)):
        with pytest.raises(GuardExceededError, match="past the guard"):
            SystemParams(p, n)


def test_inv_mod():
    for p in (2, 3, 5, 7, 11):
        for a in range(1, p):
            assert (a * inv_mod(a, p)) % p == 1
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, 5)
    with pytest.raises(ZeroDivisionError):
        inv_mod(10, 5)


def _random_matrix(rng, nrows, ncols, p):
    return [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_idempotent_and_pivots(p):
    rng = random.Random(11 * p)
    for _ in range(60):
        m = _random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 7), p)
        red, pivots = rref(m, p)
        assert rref(red, p) == (red, pivots)
        assert list(pivots) == sorted(pivots)
        assert len(red) == len(pivots)
        for r, c in zip(red, pivots):
            assert r[c] == 1
            # pivot columns are cleared everywhere else
            assert all(row[c] == 0 for row in red if row is not r)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_preserves_row_space(p):
    rng = random.Random(7 * p)
    for _ in range(40):
        m = _random_matrix(rng, 3, 5, p)
        red, pivots = rref(m, p)
        # every original row lies in the span of the rref
        for row in m:
            assert rref(list(red) + [row], p) == (red, pivots)
        # and every rref row is a combination of original rows
        rred, rpiv = rref(m + list(red), p)
        assert (rred, rpiv) == (red, pivots)


def test_rref_empty_and_zero():
    assert rref([], 3) == ((), ())
    assert rref([[0, 0], [0, 0]], 2) == ((), ())
    assert rank([[1, 2], [2, 4]], 5) == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_nullspace_annihilated(p):
    rng = random.Random(13 * p)
    for _ in range(40):
        ncols = rng.randrange(2, 7)
        m = _random_matrix(rng, rng.randrange(1, 4), ncols, p)
        basis = solve_affine(m, [0] * len(m), ncols, p)[1]
        assert len(basis) == ncols - rank(m, p)
        for v in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) % p == 0
        assert rank(basis, p) == len(basis)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solve_affine(p):
    rng = random.Random(17 * p)
    hits = 0
    for _ in range(60):
        ncols = rng.randrange(2, 6)
        m = _random_matrix(rng, rng.randrange(1, 4), ncols, p)
        rhs = [rng.randrange(p) for _ in m]
        part, null = solve_affine(m, rhs, ncols, p)
        if part is None:
            # infeasible: the rhs must add rank to the system
            assert rank([row + [b] for row, b in zip(m, rhs)], p) > rank(m, p)
            continue
        hits += 1
        for k in (0,) * 1 + tuple(range(len(null))):
            v = list(part)
            if null:
                v = [(a + b) % p for a, b in zip(v, null[k % len(null)])]
            for row, b in zip(m, rhs):
                assert sum(x * y for x, y in zip(row, v)) % p == b % p
    assert hits > 10


# ---------------------------------------------------------------------------
# extension fields


def test_moduli_are_the_first_irreducibles():
    # constant coefficient varies fastest in the scan
    assert ExtField(2, 2).modulus == (1, 1)        # x^2 + x + 1
    assert ExtField(2, 3).modulus == (1, 1, 0)     # x^3 + x + 1
    assert ExtField(3, 2).modulus == (1, 0)        # x^2 + 1
    assert ExtField(3, 3).modulus == (1, 2, 0)     # x^3 + 2x + 1
    assert ExtField(5, 2).modulus == (2, 0)        # x^2 + 2
    with pytest.raises(ValueError):
        ExtField(4, 2)
    with pytest.raises(ValueError):
        ExtField(2, 0)


def _digit_loop_oracle(k, p, count):
    """The earlier digit loop of ExtField.element and ExtField._find_modulus."""
    coeffs = []
    for _ in range(count):
        coeffs.append(k % p)
        k //= p
    return tuple(coeffs)


def _modulus_oracle(p, degree):
    for k in range(p ** degree):
        coeffs = _digit_loop_oracle(k, p, degree)
        if _is_irreducible(list(coeffs) + [1], p):
            return coeffs


def test_digits_match_loop_oracle():
    # every field the CLI builds: p^degree <= 625
    cases = [(p, deg) for p in range(2, 626) if is_prime(p)
             for deg in range(1, 10) if p ** deg <= 625]
    assert len(cases) == 136
    for p, deg in cases:
        f = ExtField(p, deg)
        assert f.modulus == _modulus_oracle(p, deg), (p, deg)
        assert list(f.elements()) == [_digit_loop_oracle(k, p, deg) for k in range(p ** deg)]


@pytest.mark.parametrize("p,deg", [(2, 1), (2, 2), (2, 5), (3, 3), (5, 4), (7, 3)])
def test_reductions_match_shift_oracle(p, deg):
    # reference table: x^(deg+j+1) from x^(deg+j) by one shift, folding the
    # overflow back in with x^deg mod m
    f = ExtField(p, deg)
    red = [(-c) % p for c in f.modulus]
    want = [tuple(red)]
    for _ in range(deg - 2):
        top, red = red[-1], [0] + red[:-1]
        red = [(a + top * b) % p for a, b in zip(red, want[0])]
        want.append(tuple(red))
    assert f._reductions == want[:deg - 1]


@pytest.mark.parametrize("p,deg", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)])
def test_field_axioms(p, deg):
    f = ExtField(p, deg)
    els = list(f.elements())
    assert len(els) == p ** deg
    assert len(set(els)) == len(els)
    for a in els:
        assert f.add(a, f.zero) == a
        assert f.mul(a, f.one) == a
        assert f.add(a, tuple(-c % p for c in a)) == f.zero
    rng = random.Random(p * deg)
    for _ in range(200):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,deg", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (5, 4)])
def test_multiplicative_group(p, deg):
    f = ExtField(p, deg)
    order = p ** deg
    rng = random.Random(order)
    nonzero = [f.element(k) for k in range(1, order)]
    sample = nonzero if order <= 128 else rng.sample(nonzero, 100)
    for a in sample:
        assert f.mul(a, f.pow(a, order - 2)) == f.one
        assert f.pow(a, order - 1) == f.one


@pytest.mark.parametrize("p,deg", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_frobenius_is_a_field_automorphism(p, deg):
    f = ExtField(p, deg)
    els = list(f.elements())
    for a in els:
        for b in els[:: max(1, len(els) // 16)]:
            assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))
            assert f.frobenius(f.mul(a, b)) == f.mul(f.frobenius(a), f.frobenius(b))
    for a in els:
        cur = a
        for _ in range(deg):
            cur = f.frobenius(cur)
        assert cur == a
    # prime subfield is fixed pointwise
    for k in range(p):
        c = f.element(k)
        assert f.frobenius(c) == c


@pytest.mark.parametrize("p,deg", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (5, 4)])
def test_trace_linear_and_nondegenerate(p, deg):
    f = ExtField(p, deg)
    order = p ** deg
    els = [f.element(k) for k in range(order)]
    traces = [f.trace(a) for a in els]
    assert all(0 <= t < p for t in traces)
    assert f.trace(f.one) == deg % p
    # Tr is Z_p linear
    rng = random.Random(order + 1)
    for _ in range(100):
        a, b = rng.choice(els), rng.choice(els)
        s = rng.randrange(p)
        lhs = f.trace(f.add(a, b))
        assert lhs == (f.trace(a) + f.trace(b)) % p
        scaled = f.mul(f.element(s), a)
        assert f.trace(scaled) == (s * f.trace(a)) % p
    # each fiber has size p^(deg-1), so the form Tr(xy) is nondegenerate
    for t in range(p):
        assert traces.count(t) == p ** (deg - 1)
    for a in els[1:] if order <= 128 else rng.sample(els[1:], 50):
        assert any(f.trace(f.mul(a, b)) for b in els)
