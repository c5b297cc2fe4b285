"""Hilbert space realization of Pauli eigenbases.

Operators are generalized permutation matrices, so group elements are carried
exactly as (shift, amplitude vector) pairs and no dense operator or projector
is formed: an eigenbasis is read off projector columns and proved by the
generator eigen-equations, in O(d^2) memory. For p = 2 each site factor
X^x Z^z carries the phase i^(x z), which makes every group element square to
the identity; for odd p the plain products already have order p.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ProjectorNotRankOneError, SameGroupError
from .groups import CompatGroup
from .pauli import PauliOp, from_vector
from .zplinalg import SystemParams

TOL = 1e-9
_TIE = 1e-12


def _omega(p: int) -> complex:
    return np.exp(2j * np.pi / p)


def _digits(params: SystemParams) -> np.ndarray:
    """State index digits, site 0 most significant (matches kron order)."""
    p, n = params.p, params.n
    return np.array(list(product(range(p), repeat=n)), dtype=np.int64)


def _index_powers(params: SystemParams) -> np.ndarray:
    p, n = params.p, params.n
    return p ** np.arange(n - 1, -1, -1, dtype=np.int64)


def operator_matrix(op: PauliOp, params: SystemParams, phased: bool = True) -> np.ndarray:
    """Dense matrix of X^x1 Z^z1 x ... x X^xn Z^zn on C^(p^n)."""
    p = params.p
    w = _omega(p)
    out = np.array([[1.0 + 0j]])
    for a, b in zip(op.x, op.z):
        site = np.zeros((p, p), dtype=complex)
        ks = np.arange(p)
        site[(ks + a) % p, ks] = w ** (b * ks)
        if phased and p == 2:
            site *= 1j ** (a * b)
        out = np.kron(out, site)
    return out


@dataclass
class _Rep:
    """O|k> = amp[k] |k + shift>, addition digit-wise mod p."""

    shift: tuple[int, ...]
    amp: np.ndarray


class _Space:
    """Cached index bookkeeping for one (p, n)."""

    def __init__(self, params: SystemParams):
        self.params = params
        self.digits = _digits(params)
        self.powers = _index_powers(params)
        self._perms: dict[tuple[int, ...], np.ndarray] = {}

    def perm(self, shift: tuple[int, ...]) -> np.ndarray:
        """state index -> index of state + shift."""
        got = self._perms.get(shift)
        if got is None:
            got = ((self.digits + np.array(shift)) % self.params.p) @ self.powers
            self._perms[shift] = got
        return got

    def rep(self, op: PauliOp, phased: bool = True) -> _Rep:
        p = self.params.p
        w = _omega(p)
        amp = w ** (self.digits @ np.array(op.z, dtype=np.int64))
        if phased and p == 2:
            amp = amp * 1j ** int(sum(a * b for a, b in zip(op.x, op.z)))
        return _Rep(tuple(op.x), np.asarray(amp, dtype=complex))

    def identity_rep(self) -> _Rep:
        return _Rep((0,) * self.params.n, np.ones(self.params.dim, dtype=complex))

    def matmul(self, a: _Rep, b: _Rep) -> _Rep:
        """The rep of the matrix product a @ b."""
        p = self.params.p
        pb = self.perm(b.shift)
        shift = tuple((u + v) % p for u, v in zip(a.shift, b.shift))
        return _Rep(shift, b.amp * a.amp[pb])


_SPACES: dict[tuple[int, int], _Space] = {}


def _space(params: SystemParams) -> _Space:
    key = (params.p, params.n)
    if key not in _SPACES:
        _SPACES[key] = _Space(params)
    return _SPACES[key]


def _element_reps(group: CompatGroup) -> tuple[list[_Rep], np.ndarray]:
    """Reps of all p^n group elements, ordered like CompatGroup.members,
    together with the exponent tuples."""
    params = group.params
    p, n = params.p, params.n
    sp = _space(params)
    gens = [from_vector(row) for row in group.matrix]
    powers: list[list[_Rep]] = []
    for g in gens:
        row = [sp.identity_rep()]
        base = sp.rep(g)
        for _ in range(p - 1):
            row.append(sp.matmul(row[-1], base))
        powers.append(row)
    exps = np.array(list(product(range(p), repeat=n)), dtype=np.int64)
    reps: list[_Rep] = []
    for e in exps:
        cur = powers[0][e[0]]
        for i in range(1, n):
            if e[i]:
                cur = sp.matmul(cur, powers[i][e[i]])
        reps.append(cur)
    return reps, exps


@dataclass
class MubBasis:
    """Eigenbasis of a compatibility group; column k is the joint eigenvector
    with generator eigenvalues omega^(k_i), k in lexicographic order."""

    group: CompatGroup
    vectors: np.ndarray


def _extract_column(col: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(col)
    if norm < 1e-6:
        raise ProjectorNotRankOneError("projector column is numerically zero")
    v = col / norm
    mags = np.abs(v)
    j = int(np.argmax(mags >= mags.max() - _TIE))
    ph = v[j] / abs(v[j])
    return v * ph.conjugate()


def eigenbasis(group: CompatGroup, check: bool = True) -> MubBasis:
    """All p^n joint eigenvectors, column k read off the spectral projector
    P(k) = p^-n sum_n omega^(-n.k) G^n at its largest diagonal entry.

    With check set, every column is tested against all n generator
    eigen-equations G_i v_k = omega^(k_i) v_k, and ProjectorNotRankOneError is
    raised above TOL. That proves the basis: the columns are unit vectors, the
    generators are unitary, and the d eigenvalue tuples omega^k are distinct,
    so columns with different tuples are orthogonal and V is unitary; each
    joint eigenspace then holds exactly one column, so every P(k) = v_k v_k^H
    has rank one. Memory stays O(d^2).
    """
    params = group.params
    p, d = params.p, params.dim
    sp = _space(params)
    reps, exps = _element_reps(group)
    w = _omega(p)
    phase_exp = (exps @ exps.T) % p
    weights = w ** (-phase_exp) / d  # weights[k, t] for element t in projector k
    amps = np.stack([r.amp for r in reps])
    shifts = np.stack([sp.perm(r.shift) for r in reps])  # (t, d)
    zero_shift = [t for t, r in enumerate(reps) if not any(r.shift)]
    diag = (weights[:, zero_shift] @ amps[zero_shift]).real  # (k, s)
    vectors = np.empty((d, d), dtype=complex)
    for k in range(d):
        s = int(np.argmax(diag[k] >= diag[k].max() - _TIE))
        col = np.zeros(d, dtype=complex)
        np.add.at(col, shifts[:, s], weights[k] * amps[:, s])
        vectors[:, k] = _extract_column(col)
    basis = MubBasis(group, vectors)
    if check:
        dev = eigenvalue_deviation(basis)
        if dev > TOL:
            raise ProjectorNotRankOneError(
                f"eigenvectors miss the generator eigenvalues by {dev:.3g}")
    return basis


def eigenvalue_deviation(basis: MubBasis) -> float:
    """Max deviation of (phased) G_i v_k from omega^(k_i) v_k over all
    (column, generator) pairs; each generator acts on the whole basis at once."""
    params = basis.group.params
    sp = _space(params)
    w = _omega(params.p)
    scale = np.array([w ** k for k in range(params.p)])[sp.digits]  # (k, i): omega^(k_i)
    v = basis.vectors
    worst = 0.0
    for i, row in enumerate(basis.group.matrix):
        g = sp.rep(from_vector(row))
        gv = np.empty_like(v)
        gv[sp.perm(g.shift)] = g.amp[:, None] * v
        worst = max(worst, float(np.abs(gv - v * scale[:, i]).max()))
    return worst


def reduced_density(state: np.ndarray, qupit: int, params: SystemParams) -> np.ndarray:
    """Partial trace of |state><state| down to one qupit."""
    p, n = params.p, params.n
    psi = np.asarray(state, dtype=complex).reshape((p,) * n)
    axes = [i for i in range(n) if i != qupit]
    return np.tensordot(psi, psi.conj(), axes=(axes, axes))


def purity(rho: np.ndarray, p: int) -> float:
    """Rescaled purity (p Tr rho^2 - 1)/(p - 1): 1 on pure states, 0 at maximal mixing."""
    tr2 = np.trace(rho @ rho).real
    return float((p * tr2 - 1.0) / (p - 1.0))


def qupit_purities(vectors: np.ndarray, params: SystemParams) -> np.ndarray:
    """Purity of every qupit in every column; shape (columns, n)."""
    p, n = params.p, params.n
    cols = vectors.shape[1]
    out = np.empty((cols, n))
    v = np.ascontiguousarray(vectors.T)  # (cols, d)
    for i in range(n):
        left = p ** i
        right = p ** (n - i - 1)
        m = v.reshape(cols, left, p, right)
        rho = np.einsum("caib,cajb->cij", m, m.conj())
        tr2 = np.einsum("cij,cij->c", rho, rho.conj()).real
        out[:, i] = (p * tr2 - 1.0) / (p - 1.0)
    return out


def mub_check(a: MubBasis, b: MubBasis) -> float:
    """Max deviation of squared cross overlaps from 1/d; the two bases must
    come from different groups."""
    if a.group.matrix == b.group.matrix:
        raise SameGroupError("both bases diagonalize the same compatibility group")
    d = a.group.params.dim
    m = a.vectors.conj().T @ b.vectors
    return float(np.abs(np.abs(m) ** 2 - 1.0 / d).max())
