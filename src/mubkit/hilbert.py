"""Hilbert space realization of Pauli eigenbases.

Operators are generalized permutation matrices, so group elements are carried
exactly as (permutation, amplitude vector) pairs and no dense operator or
projector is formed. Each basis makes one generator table, the n permutations
and n amplitude rows of its generators in whole-array steps, and uses it both
to build and to prove the basis: the amplitudes of all p^n group elements come
from folding in one table row at a time, every projector column from blocked
gathers and one scatter, its rows read off the Z_p^n addition table, and the
proof from the generator eigen-equations on the same table. Overlaps take one
matrix product per pair and reduce it to its largest and smallest entry;
purities take one batched product per qupit over a block of columns. Memory
stays O(d^2). For p = 2 each site factor X^x Z^z carries the phase i^(x z),
which makes every group element square to the identity; for odd p the plain
products already have order p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ProjectorNotRankOneError, SameGroupError
from .groups import CompatGroup, lex_digits
from .pauli import PauliOp
from .zplinalg import SystemParams

TOL = 1e-9
_TIE = 1e-12
# bytes of d-entry complex rows that eigenbasis, eigenvalue_deviation and
# qupit_purities take at a time
_BLOCK_BYTES = 1 << 17


def _omega(p: int) -> complex:
    return np.exp(2j * np.pi / p)


def operator_matrix(op: PauliOp, params: SystemParams) -> np.ndarray:
    """Dense matrix of X^x1 Z^z1 x ... x X^xn Z^zn on C^(p^n), phased for p = 2."""
    p = params.p
    w = _omega(p)
    out = np.array([[1.0 + 0j]])
    for a, b in zip(op.x, op.z):
        site = np.zeros((p, p), dtype=complex)
        ks = np.arange(p)
        site[(ks + a) % p, ks] = w ** (b * ks)
        if p == 2:
            site *= 1j ** (a * b)
        out = np.kron(out, site)
    return out


def _roots(p: int) -> np.ndarray:
    """omega^j for j < p."""
    return _omega(p) ** np.arange(p)


def _addition_table(p: int, n: int) -> np.ndarray:
    """Entry (a, b) is the index of state a plus state b, digit-wise mod p: the
    p x p table (i + j) % p widened one digit at a time; d x d."""
    step = (np.arange(p)[:, None] + np.arange(p)) % p
    table = np.zeros((1, 1), dtype=np.int64)
    for _ in range(n):
        table = (table[:, None, :, None] * p + step[None, :, None, :]).reshape(
            len(table) * p, -1)
    return table


def _generators(params: SystemParams, matrix) -> tuple[np.ndarray, np.ndarray]:
    """(perms, amps), each n x d, of the generators with exponent rows (x | z),
    phased for p = 2: generator i sends |k> to amps[i, k] |perms[i, k]>.
    The amplitudes omega^(z_i . k) come from one product of the z-block with
    the digit table; perms[i] indexes state k plus state x_i, digit-wise mod
    p, built one digit at a time so that no n x d x n array is formed (one
    raised the peak resident memory of verify)."""
    p, n = params.p, params.n
    digits = lex_digits(p, n)
    m = np.array(matrix, dtype=np.int64)
    x, z = m[:, :n], m[:, n:]
    amps = _roots(p)[(z @ digits.T) % p]
    if p == 2:
        amps *= np.array([1j ** int(s) for s in (x * z).sum(axis=1)])[:, None]
    perms = np.zeros((len(m), params.dim), dtype=np.int64)
    for j in range(n):
        perms *= p
        perms += (digits[:, j] + x[:, j, None]) % p
    return perms, amps


@dataclass
class MubBasis:
    """Eigenbasis of a compatibility group; column k is the joint eigenvector
    with generator eigenvalues omega^(k_i), k in lexicographic order."""

    group: CompatGroup
    vectors: np.ndarray


def eigenbasis(group: CompatGroup, check: bool = True) -> MubBasis:
    """All p^n joint eigenvectors, column k read off the spectral projector
    P(k) = p^-n sum_t omega^(-e_t.k) G_t at its largest diagonal entry s_k
    (the first within _TIE of the largest), then normalised and phased so
    that its first entry within _TIE of the largest magnitude is real.

    Whole-array construction: one generator table holds the permutation and
    amplitude row of every generator, and the amplitudes of all elements
    G_t = G_0^e_0 ... G_(n-1)^e_(n-1), e_t = lex_digits row t, are folded
    in one table row at a time (n (p - 1) gathers). G_t shifts by e_t times the
    x-block of the generator matrix; elements that share a shift form a coset
    of the zero-shift subgroup and land on the same row of P(k) e_s, so each
    column is the sum over cosets of weighted amplitudes, written with one
    scatter. The diagonal that picks s_k needs only the zero-shift weights;
    the amplitudes of P(k) e_(s_k) are gathered _BLOCK_BYTES at a time, and
    coset u's row in column k is entry [shift_u, s_k] of the addition table.
    No array larger than d x d is formed, so memory stays O(d^2).

    With check set, every column is tested against all n generator
    eigen-equations G_i v_k = omega^(k_i) v_k, read off the same table, and
    ProjectorNotRankOneError is raised above TOL. That proves the basis: the columns are unit vectors, the
    generators are unitary, and the d eigenvalue tuples omega^k are distinct,
    so columns with different tuples are orthogonal and V is unitary; each
    joint eigenspace then holds exactly one column, so every P(k) = v_k v_k^H
    has rank one. A numerically zero column raises as well.
    """
    params = group.params
    p, n, d = params.p, params.n, params.dim
    digits = lex_digits(p, n)
    perms, gens = _generators(params, group.matrix)
    amp = np.ones((1, d), dtype=complex)  # G_t |s> = amp[t, s] |s + shift_t>
    for perm, g in zip(perms, gens):
        amp = np.repeat(amp[:, None], p, axis=1)  # element t * p + j is G_t G^j
        for j in range(1, p):
            np.multiply(amp[:, j - 1, perm], g, out=amp[:, j])
        amp = amp.reshape(-1, d)
    xs = (digits @ np.array(group.matrix, dtype=np.int64)[:, :n]) % p
    shift = np.ravel_multi_index(xs.T, (p,) * n)
    order = np.argsort(shift, kind="stable")  # cosets in turn, zero shift first
    c = int(np.count_nonzero(shift == 0))
    weights = _roots(p).conj() / d  # weights[x] = omega^-x / d
    ph = digits @ digits[order[:c]].T
    ph %= p
    diag = (weights[ph] @ amp[order[:c]]).real  # diag[k, s] = P(k)[s, s]
    s = np.argmax(diag >= diag.max(axis=1, keepdims=True) - _TIE, axis=1)
    del diag
    ph = digits @ digits[order].T
    ph %= p
    w = weights[ph]  # w[k, u] = omega^(-e_k.e_t) / d, t = order[u]
    del ph
    step = max(1, _BLOCK_BYTES // (16 * d))
    for lo in range(0, d, step):  # term t of P(k) e_(s_k)
        w[:, lo:lo + step] *= amp[order[lo:lo + step, None], s].T
    del amp
    sums = w.reshape(d, d // c, c).sum(axis=2)  # one entry per coset
    del w
    rows = _addition_table(p, n)[shift[order[::c], None], s]  # coset u's row in column k
    k = np.arange(d)
    vecs = np.zeros((d, d), dtype=complex)
    vecs[rows, k] = sums.T
    del rows, sums
    norm = np.linalg.norm(vecs, axis=0)
    if norm.min() < 1e-6:
        raise ProjectorNotRankOneError("projector column is numerically zero")
    vecs /= norm
    mags = np.abs(vecs)
    j = np.argmax(mags >= mags.max(axis=0) - _TIE, axis=0)
    vecs *= (vecs[j, k] / mags[j, k]).conj()
    if check:
        dev = _deviation(params, vecs, perms, gens)
        if dev > TOL:
            raise ProjectorNotRankOneError(
                f"eigenvectors miss the generator eigenvalues by {dev:.3g}")
    return MubBasis(group, vecs)


def eigenvalue_deviation(basis: MubBasis) -> float:
    """Max deviation of (phased) G_i v_k from omega^(k_i) v_k over all
    (column, generator) pairs, from one generator table of the basis's group."""
    params = basis.group.params
    return _deviation(params, basis.vectors, *_generators(params, basis.group.matrix))


def _deviation(params: SystemParams, v: np.ndarray, perms: np.ndarray,
               amps: np.ndarray) -> float:
    """The eigenvalue deviation of the columns v under the generator table
    (perms, amps). G_i sends row r of V to row perm[r], so row perm[r] of
    G_i V - V diag(omega^(k_i)) is amp[r] V[r] - V[perm[r]] omega^(k_i); each
    generator takes the rows _BLOCK_BYTES at a time."""
    scale = _roots(params.p)[lex_digits(params.p, params.n)]  # (k, i): omega^(k_i)
    step = max(1, _BLOCK_BYTES // (16 * params.dim))
    worst = 0.0
    for i, (perm, amp) in enumerate(zip(perms, amps)):
        for lo in range(0, params.dim, step):
            gv = amp[lo:lo + step, None] * v[lo:lo + step]
            gv -= v[perm[lo:lo + step]] * scale[:, i]
            worst = max(worst, float(np.abs(gv).max()))
    return worst


def reduced_density(state: np.ndarray, qupit: int, params: SystemParams) -> np.ndarray:
    """Partial trace of |state><state| down to one qupit."""
    p, n = params.p, params.n
    psi = np.asarray(state, dtype=complex).reshape((p,) * n)
    axes = [i for i in range(n) if i != qupit]
    return np.tensordot(psi, psi.conj(), axes=(axes, axes))


def qupit_purities(vectors: np.ndarray, params: SystemParams) -> np.ndarray:
    """Purity of every qupit in every column; shape (columns, n).

    Columns are taken _BLOCK_BYTES at a time; for each qupit the block is laid
    out as one p x (d / p) matrix M per column, and one batched matmul gives
    every reduced density matrix M M^H."""
    p, n = params.p, params.n
    d, cols = vectors.shape
    out = np.empty((cols, n))
    step = max(1, _BLOCK_BYTES // (16 * d))
    for lo in range(0, cols, step):
        v = vectors[:, lo:lo + step].T  # (c, d), a view
        c = len(v)
        for i in range(n):
            m = v.reshape(c, p ** i, p, -1).swapaxes(1, 2).reshape(c, p, -1)
            rho = m @ m.conj().swapaxes(1, 2)
            tr2 = np.einsum("cij,cij->c", rho, rho.conj()).real
            out[lo:lo + c, i] = (p * tr2 - 1.0) / (p - 1.0)
    return out


def mub_check(a: MubBasis, b: MubBasis) -> float:
    """Max deviation of squared cross overlaps from 1/d; the two bases must
    come from different groups. Squaring and subtracting 1/d are monotone
    under rounding, so the largest and smallest overlap give the worst one."""
    if a.group.matrix == b.group.matrix:
        raise SameGroupError("both bases diagonalize the same compatibility group")
    d = a.group.params.dim
    m = np.abs(a.vectors.conj().T @ b.vectors)
    hi, lo = float(m.max()), float(m.min())
    return max(abs(hi * hi - 1.0 / d), abs(lo * lo - 1.0 / d))
