"""Generalized Pauli operators on N qupits, phase free.

An operator X^x1 Z^z1 x ... x X^xN Z^zN is stored as the exponent vectors
(x, z) over Z_p. Two operators commute iff their symplectic form vanishes,
so all group level questions reduce to arithmetic on these vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PauliParseError
from .zplinalg import SystemParams, Vec

# single site letters and their (x, z) exponents; W needs p >= 3
LETTERS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1), "W": (1, 2)}
_BY_EXPONENTS = {v: k for k, v in LETTERS.items()}


@dataclass(frozen=True)
class PauliOp:
    x: Vec
    z: Vec

    @property
    def n(self) -> int:
        return len(self.x)

    def vector(self) -> Vec:
        """The symplectic vector (x | z) of length 2n."""
        return self.x + self.z

    def site(self, i: int) -> tuple[int, int]:
        return self.x[i], self.z[i]


def from_vector(vec: Vec) -> PauliOp:
    n = len(vec) // 2
    return PauliOp(tuple(vec[:n]), tuple(vec[n:]))


def parse_pauli(text: str, params: SystemParams) -> PauliOp:
    """Parse either a letter string like "XZYI" or pairs like "1 0,0 1,1 1,0 0"."""
    raw = text.strip()
    if not raw:
        raise PauliParseError("empty operator text")
    if "," in raw or " " in raw:
        parts = [s.strip() for s in raw.split(",")]
        if len(parts) != params.n:
            raise PauliParseError(
                f"expected {params.n} exponent pairs, got {len(parts)}")
        xs, zs = [], []
        for part in parts:
            fields = part.split()
            if len(fields) != 2:
                raise PauliParseError(f"bad exponent pair {part!r}")
            try:
                a, b = int(fields[0]), int(fields[1])
            except ValueError:
                raise PauliParseError(f"bad exponent pair {part!r}") from None
            if not (0 <= a < params.p and 0 <= b < params.p):
                raise PauliParseError(
                    f"exponent pair {part!r} out of range for p={params.p}")
            xs.append(a)
            zs.append(b)
        return PauliOp(tuple(xs), tuple(zs))
    letters = raw.upper()
    if len(letters) != params.n:
        raise PauliParseError(
            f"expected {params.n} letters, got {len(letters)} in {text!r}")
    xs, zs = [], []
    for ch in letters:
        if ch not in LETTERS:
            raise PauliParseError(f"unknown letter {ch!r} in {text!r}")
        if ch == "W" and params.p == 2:
            raise PauliParseError("W = XZ^2 requires p >= 3")
        a, b = LETTERS[ch]
        xs.append(a)
        zs.append(b)
    return PauliOp(tuple(xs), tuple(zs))


def format_pauli(op: PauliOp) -> str:
    """Letters when every site has one, otherwise exponent pairs; parses back."""
    sites = [op.site(i) for i in range(op.n)]
    if all(s in _BY_EXPONENTS for s in sites):
        return "".join(_BY_EXPONENTS[s] for s in sites)
    return ",".join(f"{a} {b}" for a, b in sites)


def symplectic_form(a: PauliOp, b: PauliOp, p: int) -> int:
    """x_a . z_b - z_a . x_b mod p; zero iff the operators commute."""
    return symplectic_form_vec(a.vector(), b.vector(), p)


def symplectic_form_vec(a: Vec, b: Vec, p: int) -> int:
    """The same form on raw (x | z) vectors of length 2n."""
    n = len(a) // 2
    return sum(a[i] * b[n + i] - a[n + i] * b[i] for i in range(n)) % p


def compose(a: PauliOp, b: PauliOp, p: int) -> PauliOp:
    """The phase free product: exponents add mod p."""
    return PauliOp(tuple((u + v) % p for u, v in zip(a.x, b.x)),
                   tuple((u + v) % p for u, v in zip(a.z, b.z)))
