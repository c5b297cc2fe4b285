"""Exact linear algebra over Z_p and small extension fields GF(p^N).

Everything here is integer arithmetic, no floats. Matrices are tuples of
tuples of ints reduced mod p; field elements are coefficient tuples in the
polynomial basis, low degree first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .errors import GuardExceededError

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]

# p and n arrive from the command line and from JSON files; past these bounds
# the primality test and p ** n would run without limit
P_GUARD = 1 << 31
N_GUARD = 64


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class SystemParams:
    """A system of n qupits, each of prime dimension p."""

    p: int
    n: int

    def __post_init__(self) -> None:
        if self.p >= P_GUARD or self.n > N_GUARD:
            raise GuardExceededError(
                f"p = {self.p}, n = {self.n} is past the guard p < 2^31, n <= {N_GUARD}")
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")

    @property
    def dim(self) -> int:
        return self.p ** self.n


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("no inverse of 0")
    return pow(a, p - 2, p)


def rref(rows: Iterable[Sequence[int]], p: int) -> tuple[Mat, Vec]:
    """Reduced row echelon form over Z_p.

    Returns (rows, pivot_columns) with zero rows dropped, pivot entries 1,
    and pivot columns cleared above and below.
    """
    work = [[x % p for x in row] for row in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        hit = next((i for i in range(r, len(work)) if work[i][c]), None)
        if hit is None:
            continue
        work[r], work[hit] = work[hit], work[r]
        inv = inv_mod(work[r][c], p)
        work[r] = [(x * inv) % p for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def solve_affine(rows: Iterable[Sequence[int]], rhs: Sequence[int], ncols: int,
                 p: int) -> tuple[Vec | None, Mat]:
    """Solve rows @ v = rhs mod p.

    Returns (particular_solution_or_None, nullspace_basis); the solution set
    is particular + span(basis), with the basis read off the same rref.
    """
    aug = [list(row) + [b % p] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug, p)
    if ncols in pivots:
        return None, ()
    part = [0] * ncols
    for row, c in zip(red, pivots):
        part[c] = row[ncols]
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):  # 1 at free column f
        v = [int(c == f) for c in range(ncols)]
        for row, c in zip(red, pivots):
            v[c] = -row[f] % p
        basis.append(tuple(v))
    return tuple(part), tuple(basis)


# ---------------------------------------------------------------------------
# extension fields


def _poly_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    num = num[:]
    dd = len(den) - 1
    inv = inv_mod(den[dd], p)
    quot = [0] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        f = (num[i] * inv) % p
        if f:
            quot[i - dd] = f
            for j, c in enumerate(den):
                num[i - dd + j] = (num[i - dd + j] - f * c) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    # monic poly given as full coefficient list, low degree first;
    # trial division by every monic polynomial of degree 1 .. deg//2
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            den = list(tail) + [1]
            _, rem = _poly_divmod(coeffs[:], den, p)
            if rem == [0]:
                return False
    return True


def _digits(k: int, p: int, count: int) -> Vec:
    """The count lowest base-p digits of k, least significant first."""
    return tuple(k // p ** i % p for i in range(count))


class ExtField:
    """GF(p^degree) in the polynomial basis {1, x, ..., x^(degree-1)}.

    The modulus is the first monic irreducible polynomial in the scan that
    varies the low degree coefficients fastest, so it is the lexicographically
    smallest with coefficients compared from the constant term up.
    """

    def __init__(self, p: int, degree: int):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        self.p = p
        self.degree = degree
        self.order = p ** degree
        self.modulus = self._find_modulus(p, degree)
        # x^(degree+j) mod m, reduced to coefficient tuples, for j = 0..degree-2
        m = list(self.modulus) + [1]
        self._reductions: list[Vec] = []
        for j in range(degree - 1):
            rem = _poly_divmod([0] * (degree + j) + [1], m, p)[1]
            self._reductions.append(tuple(rem + [0] * (degree - len(rem))))
        self.zero = (0,) * degree
        self.one = tuple([1] + [0] * (degree - 1))

    @staticmethod
    def _find_modulus(p: int, degree: int) -> Vec:
        for k in range(p ** degree):
            coeffs = _digits(k, p, degree)
            if _is_irreducible([*coeffs, 1], p):
                return coeffs
        raise RuntimeError("unreachable: irreducible polynomials exist for every degree")

    # elements are coefficient tuples of length degree, low degree first

    def element(self, index: int) -> Vec:
        """The index-th element, digits of index base p, constant coefficient first."""
        return _digits(index, self.p, self.degree)

    def elements(self) -> Iterable[Vec]:
        for k in range(self.order):
            yield self.element(k)

    def add(self, a: Vec, b: Vec) -> Vec:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a: Vec, b: Vec) -> Vec:
        p, d = self.p, self.degree
        prod_coeffs = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod_coeffs[i + j] = (prod_coeffs[i + j] + x * y) % p
        out = prod_coeffs[:d]
        for j in range(d, 2 * d - 1):
            c = prod_coeffs[j]
            if c:
                red = self._reductions[j - d]
                out = [(u + c * v) % p for u, v in zip(out, red)]
        return tuple(out)

    def pow(self, a: Vec, e: int) -> Vec:
        out = self.one
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def frobenius(self, a: Vec) -> Vec:
        return self.pow(a, self.p)

    def trace(self, a: Vec) -> int:
        """Tr(a) = a + a^p + ... + a^(p^(degree-1)), an element of Z_p."""
        acc = self.zero
        cur = a
        for _ in range(self.degree):
            acc = self.add(acc, cur)
            cur = self.frobenius(cur)
        if any(acc[1:]):
            raise ArithmeticError("trace left the prime field")
        return acc[0]
