"""Symplectic vector form of generalized Pauli operators."""

import random
from itertools import product

import pytest

from mubkit.errors import PauliParseError
from mubkit.pauli import (
    PauliOp,
    compose,
    format_pauli,
    from_vector,
    parse_pauli,
    symplectic_form,
    symplectic_form_vec,
)
from mubkit.zplinalg import SystemParams


def test_parse_letters():
    op = parse_pauli("XXY", SystemParams(2, 3))
    assert op.x == (1, 1, 1)
    assert op.z == (0, 0, 1)
    op = parse_pauli("ZXYW", SystemParams(3, 4))
    assert op.x == (0, 1, 1, 1)
    assert op.z == (1, 0, 1, 2)
    op = parse_pauli("izxy", SystemParams(5, 4))
    assert op.x == (0, 0, 1, 1)
    assert op.z == (0, 1, 0, 1)


def test_parse_pairs():
    op = parse_pauli("1 0,0 1,1 1,0 0", SystemParams(2, 4))
    assert op.x == (1, 0, 1, 0)
    assert op.z == (0, 1, 1, 0)
    op = parse_pauli("3 4, 0 2", SystemParams(5, 2))
    assert op.x == (3, 0)
    assert op.z == (4, 2)


@pytest.mark.parametrize("text,p,n", [
    ("", 2, 1),
    ("XX", 2, 3),
    ("XQZ", 2, 3),
    ("XWZ", 2, 3),          # W needs p >= 3
    ("1 0,0 1", 2, 3),      # wrong pair count
    ("1 0 1,0 1", 2, 2),    # malformed pair
    ("a b,0 1", 2, 2),
    ("2 0,0 1", 2, 2),      # exponent out of range
])
def test_parse_errors(text, p, n):
    with pytest.raises(PauliParseError):
        parse_pauli(text, SystemParams(p, n))


def test_parse_errors_are_value_errors():
    with pytest.raises(ValueError):
        parse_pauli("Q", SystemParams(2, 1))


def test_format_round_trip_letters():
    params = SystemParams(3, 2)
    for text in ("II", "XZ", "YW", "WY", "IX"):
        assert format_pauli(parse_pauli(text, params)) == text


def test_format_falls_back_to_pairs():
    params = SystemParams(5, 2)
    op = PauliOp((3, 0), (4, 2))
    text = format_pauli(op)
    assert text == "3 4,0 2"
    assert parse_pauli(text, params) == op


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 1), (3, 3)])
def test_format_parse_exhaustive(p, n):
    params = SystemParams(p, n)
    for vec in product(range(p), repeat=2 * n):
        op = from_vector(vec)
        assert parse_pauli(format_pauli(op), params) == op


def test_vector_round_trip():
    op = PauliOp((1, 0, 2), (0, 2, 1))
    assert from_vector(op.vector()) == op
    assert op.n == 3
    assert op.site(2) == (2, 1)


def test_compose_golden():
    params = SystemParams(3, 4)
    a = parse_pauli("ZXYW", params)
    b = parse_pauli("XZWY", params)
    c = compose(a, b, 3)
    assert c.x == (1, 1, 2, 2)
    assert c.z == (1, 1, 0, 0)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_compose_group_laws(p):
    rng = random.Random(p)
    n = 3
    ident = PauliOp((0,) * n, (0,) * n)
    for _ in range(50):
        a = from_vector(tuple(rng.randrange(p) for _ in range(2 * n)))
        b = from_vector(tuple(rng.randrange(p) for _ in range(2 * n)))
        assert compose(a, ident, p) == a
        assert compose(a, b, p) == compose(b, a, p)
        acc = ident
        for _ in range(p):
            acc = compose(acc, a, p)
        assert acc == ident


def test_symplectic_form_single_site():
    assert symplectic_form(parse_pauli("X", SystemParams(2, 1)),
                           parse_pauli("Z", SystemParams(2, 1)), 2) == 1
    # XX vs ZZ: commuting for p = 2 only
    xx = PauliOp((1, 1), (0, 0))
    zz = PauliOp((0, 0), (1, 1))
    assert symplectic_form(xx, zz, 2) == 0
    assert symplectic_form(xx, zz, 3) == 2
    # the inverse corrected pair commutes for every p
    for p in (2, 3, 5, 7):
        zzinv = PauliOp((0, 0), (1, p - 1))
        assert symplectic_form(xx, zzinv, p) == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_symplectic_form_properties(p):
    rng = random.Random(31 * p)
    n = 2
    for _ in range(100):
        a = from_vector(tuple(rng.randrange(p) for _ in range(2 * n)))
        b = from_vector(tuple(rng.randrange(p) for _ in range(2 * n)))
        f = symplectic_form(a, b, p)
        assert f == symplectic_form_vec(a.vector(), b.vector(), p)
        assert (f + symplectic_form(b, a, p)) % p == 0
        assert symplectic_form(a, a, p) == 0
        # bilinearity in the second slot
        c = from_vector(tuple(rng.randrange(p) for _ in range(2 * n)))
        assert symplectic_form(a, compose(b, c, p), p) == \
            (f + symplectic_form(a, c, p)) % p
