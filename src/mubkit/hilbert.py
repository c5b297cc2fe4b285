"""Hilbert space realization of Pauli eigenbases.

Operators are generalized permutation matrices, so group elements are carried
exactly as (permutation, amplitude vector) pairs and no dense operator or
projector is formed. Each basis makes one generator table, the n permutations
and n amplitude rows of its generators in whole-array steps, and uses it both
to build and to prove the basis: the amplitudes of all p^n group elements come
from folding in one table row at a time; the projector columns of a graph
class are written a block of rows at a time, those of any other class from
coset sums over blocks of columns, placed by Z_p^n digit sums; the
proof comes from the generator eigen-equations on the same table. Every
block holds errors.BLOCK_BYTES of complex rows or columns, read when its loop
starts, but at least one row or column. mub_check forms A^H B a block of rows
at a time, at least two rows and at least d / 128, and keeps only its largest
and smallest magnitude; it takes the rows of A^H from its left operand, a
fresh conjugate block of a MubBasis, or a slice of Bras, a basis turned into
its adjoint in place to serve a whole row of pairs. Purities take one batched
product per qupit over a block of columns. Memory stays O(d^2), with about
one d x d array of scratch beside a basis. For p = 2 each site factor X^x Z^z
carries the phase i^(x z), which makes every group element square to the
identity; for odd p the plain products already have order p.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from . import errors
from .errors import ProjectorNotRankOneError, SameGroupError
from .groups import CompatGroup, _check_qupit, _member_table, lex_digits
from .pauli import PauliOp
from .zplinalg import SystemParams

TOL = 1e-9
_TIE = 1e-12


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


def _digit_sum(p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entry (i, j) is the index of the state with digits (a[i] + b[j]) mod p,
    one digit at a time: a len(a) x len(b) x n array raised verify's peak RSS."""
    out = np.zeros((len(a), len(b)), dtype=np.int64)
    for j in range(a.shape[1]):
        out *= p
        out += (a[:, j, None] + b[:, j]) % p
    return out


def _generators(params: SystemParams, matrix) -> tuple[np.ndarray, np.ndarray]:
    """(perms, amps), each n x d, of the generators with exponent rows (x | z),
    phased for p = 2: generator i sends |k> to amps[i, k] |perms[i, k]>.
    The amplitudes omega^(z_i . k) come from one product of the z-block with
    the digit table; perms[i, k] indexes state x_i plus state k."""
    p, n = params.p, params.n
    digits = lex_digits(p, n)
    m = np.array(matrix, dtype=np.int64)
    x, z = m[:, :n], m[:, n:]
    amps = _roots(p)[(z @ digits.T) % p]
    if p == 2:
        amps *= np.array([1j ** int(s) for s in (x * z).sum(axis=1)])[:, None]
    return _digit_sum(p, x, digits), amps


def _amplitudes(p: int, perms: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """amp[t, s], with G_t |s> = amp[t, s] |s + shift_t> for every element
    G_t = G_0^e_0 ... G_(n-1)^e_(n-1), e_t = lex_digits row t: the generators
    of the table (perms, amps) are folded in one at a time, in place, and
    element t * p + j is G_t G^j."""
    d = perms.shape[1]
    out = np.empty((d, d), dtype=complex)
    out[0] = 1
    rows = 1
    for perm, g in zip(perms, amps):
        grid = out[:rows * p].reshape(rows, p, d)
        grid[:, 0] = out[:rows]  # the rows overlap, so numpy copies them first
        for j in range(1, p):
            grid[:, j] = grid[:, j - 1, perm]
            grid[:, j] *= g
        rows *= p
    return out


@dataclass
class MubBasis:
    """Eigenbasis of a compatibility group; column k is the joint eigenvector
    with generator eigenvalues omega^(k_i), k in lexicographic order."""

    group: CompatGroup
    vectors: np.ndarray

    def bras(self, top: int, end: int) -> np.ndarray:
        """Rows top to end of V^H, conjugated afresh from columns of V."""
        return self.vectors[:, top:end].conj().T


@dataclass
class Bras:
    """The adjoint V^H of a basis, row k the bra of column k, held in the
    array that held V."""

    group: CompatGroup
    rows: np.ndarray

    @classmethod
    def of(cls, basis: MubBasis) -> Bras:
        """Turn basis.vectors into V^H in place, which spends the basis:
        square blocks of BLOCK_BYTES trade places across the diagonal, each
        pair through one block of scratch, transposed; then every entry is
        conjugated."""
        v = basis.vectors
        d = len(v)
        side = min(d, max(1, isqrt(errors.BLOCK_BYTES // 16)))
        scratch = np.empty((side, side), dtype=complex)
        for i in range(0, d, side):
            for j in range(i, d, side):
                upper, lower = v[i:i + side, j:j + side], v[j:j + side, i:i + side]
                tmp = scratch[:upper.shape[0], :upper.shape[1]]
                tmp[...] = upper
                if i != j:  # a diagonal block is its own partner
                    upper[...] = lower.T
                lower[...] = tmp.T
        np.conjugate(v, out=v)
        return cls(basis.group, v)

    def bras(self, top: int, end: int) -> np.ndarray:
        """Rows top to end of V^H, a contiguous slice."""
        return self.rows[top:end]


def eigenbasis(group: CompatGroup, check: bool = True) -> MubBasis:
    """All p^n joint eigenvectors, column k read off the spectral projector
    P(k) = p^-n sum_t omega^(-e_t.k) G_t at its largest diagonal entry s_k
    (the first within _TIE of the largest), then normalised and phased so
    that its first entry within _TIE of the largest magnitude is real.

    Whole-array construction: one generator table holds the permutation and
    amplitude row of every generator, and the amplitudes of all elements
    G_t = G_0^e_0 ... G_(n-1)^e_(n-1), e_t = lex_digits row t, are folded
    in one table row at a time (n (p - 1) gathers, in place). G_t shifts by
    e_t times the x-block of the generator matrix; elements that share a
    shift form a coset of the zero-shift subgroup, of size c, and land on the
    same row of P(k) e_s, so each column is the sum over cosets of weighted
    amplitudes. The diagonal that picks s_k needs only the zero-shift
    weights. For c > 1, BLOCK_BYTES of columns at a time take their
    diagonal, s_k and coset sums; the amplitude table is then freed, and
    coset u's row in column k, state shift_u plus state s_k, places each sum.
    A graph class has c = 1: every diagonal entry is 1 / d, so s_k = 0, and
    coset u is row u, so the columns are written a block of rows at a time
    from the amplitudes at state 0, with no diagonal or coset sums. Beside
    the finished basis, no more than about one d x d array is held at a
    time, so memory stays O(d^2).

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
    amp = _amplitudes(p, perms, gens)  # G_t |s> = amp[t, s] |s + shift_t>
    xs = _member_table(params, [row[:n] for row in group.matrix])
    shift = np.ravel_multi_index(xs.T, (p,) * n)
    order = np.argsort(shift, kind="stable")  # cosets in turn, zero shift first
    c = int(np.count_nonzero(shift == 0))
    weights = _roots(p).conj() / d  # weights[x] = omega^-x / d
    step = max(1, errors.BLOCK_BYTES // (16 * d))
    k = np.arange(d)
    if c == 1:
        # G_0 = I alone keeps each |s>, so P(k)[s, s] = 1 / d and s_k = 0; the
        # sorted shifts are 0, ..., d - 1, so coset u is row u of every column
        lead = amp[order, 0]  # G_t |0> = lead[u] |u>, t = order[u]
        del amp
        vecs = np.empty((d, d), dtype=complex)
        for lo in range(0, d, step):
            ph = digits[order[lo:lo + step]] @ digits.T
            ph %= p
            blk = vecs[lo:lo + step]
            blk[...] = weights[ph]
            # a whole array, as a broadcast column would take numpy's
            # scalar-operand loop, which rounds differently
            blk *= np.repeat(lead[lo:lo + step, None], d, axis=1)
            blk += 0.0  # as a one-term coset sum, which turns -0.0 into 0.0
    else:
        # per block of columns k: the diagonal from the zero-shift weights,
        # s_k, and the coset sums; then the amplitudes go before the scatter
        zero = amp[order[:c]] if c < d else amp  # order is 0, ..., d - 1 when c = d
        s = np.empty(d, dtype=np.int64)
        sums = np.empty((d, d // c), dtype=complex)
        for lo in range(0, d, step):
            ph = digits[lo:lo + step] @ digits[order].T
            ph %= p
            w = weights[ph]  # w[k, u] = omega^(-e_k.e_t) / d, t = order[u]
            diag = (w[:, :c] @ zero).real  # diag[k, s] = P(k)[s, s]
            s[lo:lo + step] = np.argmax(diag >= diag.max(axis=1, keepdims=True) - _TIE,
                                        axis=1)
            w *= amp[order, s[lo:lo + step, None]]  # term t of P(k) e_(s_k)
            sums[lo:lo + step] = w.reshape(len(w), d // c, c).sum(axis=2)
        del amp, zero
        reps = xs[order[::c]]  # the shift digits of each coset's first element
        vecs = np.zeros((d, d), dtype=complex)
        for lo in range(0, d, step):  # coset u's row in column k
            rows = _digit_sum(p, reps, digits[s[lo:lo + step]])
            vecs[rows, k[lo:lo + step]] = sums[lo:lo + step].T
        del sums
    norm = _column_norms(vecs)
    if norm.min() < 1e-6:
        raise ProjectorNotRankOneError("projector column is numerically zero")
    vecs /= norm
    mags = np.abs(vecs)
    j = np.argmax(mags >= mags.max(axis=0) - _TIE, axis=0)
    vecs *= (vecs[j, k] / mags[j, k]).conj()
    del mags
    if check:
        dev = _deviation(params, vecs, perms, gens)
        if dev > TOL:
            raise ProjectorNotRankOneError(
                f"eigenvectors miss the generator eigenvalues by {dev:.3g}")
    return MubBasis(group, vecs)


def _column_norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm(v, axis=0) bit for bit, without its two whole-array
    temporaries: the squared magnitudes of BLOCK_BYTES of rows at a time are
    added to the running sums row by row, in the order of its reduction."""
    step = max(1, errors.BLOCK_BYTES // (16 * v.shape[1]))
    acc = np.zeros((step + 1, v.shape[1]))  # row 0 holds the running sums
    for lo in range(0, len(v), step):
        blk = v[lo:lo + step]
        acc[1:len(blk) + 1] = (blk.conj() * blk).real
        acc[0] = np.add.reduce(acc[:len(blk) + 1], axis=0)
    return np.sqrt(acc[0])


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
    generator takes the rows BLOCK_BYTES at a time."""
    scale = _roots(params.p)[lex_digits(params.p, params.n)]  # (k, i): omega^(k_i)
    step = max(1, errors.BLOCK_BYTES // (16 * params.dim))
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
    _check_qupit(qupit, n)
    psi = np.asarray(state, dtype=complex).reshape((p,) * n)
    axes = [i for i in range(n) if i != qupit]
    return np.tensordot(psi, psi.conj(), axes=(axes, axes))


def qupit_purities(vectors: np.ndarray, params: SystemParams) -> np.ndarray:
    """Purity of every qupit in every column; shape (columns, n).

    Columns are taken BLOCK_BYTES at a time; for each qupit the block is laid
    out as one p x (d / p) matrix M per column, and one batched matmul gives
    every reduced density matrix M M^H."""
    p, n = params.p, params.n
    d, cols = vectors.shape
    out = np.empty((cols, n))
    step = max(1, errors.BLOCK_BYTES // (16 * d))
    for lo in range(0, cols, step):
        v = vectors[:, lo:lo + step].T  # (c, d), a view
        c = len(v)
        for i in range(n):
            m = v.reshape(c, p ** i, p, -1).swapaxes(1, 2).reshape(c, p, -1)
            rho = m @ m.conj().swapaxes(1, 2)
            tr2 = np.einsum("cij,cij->c", rho, rho.conj()).real
            out[lo:lo + c, i] = (p * tr2 - 1.0) / (p - 1.0)
    return out


def mub_check(a: MubBasis | Bras, b: MubBasis) -> float:
    """Max deviation of squared cross overlaps from 1/d; the two bases must
    come from different groups. The rows of A^H come from a.bras: a MubBasis
    conjugates each block afresh, Bras holds them already, so one Bras
    serves every pair of its basis with no copy. Squaring and subtracting
    1/d are monotone under rounding, so the largest and smallest overlap give
    the worst one."""
    if a.group.matrix == b.group.matrix:
        raise SameGroupError("both bases diagonalize the same compatibility group")
    d = a.group.params.dim
    # A^H B a block of rows at a time; no block is one row, since BLAS takes a
    # one-row product as a matrix-vector product, which rounds differently,
    # and a pair takes at most about 128 blocks, since each streams all of B
    step = max(2, errors.BLOCK_BYTES // (16 * d), d // 128)
    edges = [*range(0, d - 1, step), d]
    hi, lo = 0.0, np.inf
    for top, end in zip(edges, edges[1:]):
        m = np.abs(a.bras(top, end) @ b.vectors)
        hi, lo = max(hi, float(m.max())), min(lo, float(m.min()))
    return max(abs(hi * hi - 1.0 / d), abs(lo * lo - 1.0 / d))
