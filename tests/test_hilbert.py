"""Dense realization: matrices, projectors, eigenbases, purities."""

import tracemalloc
from dataclasses import dataclass
from itertools import product

import numpy as np
import pytest

import mubkit.errors
import mubkit.hilbert
from mubkit.complement import enumerate_lagrangians, field_spread
from mubkit.errors import ProjectorNotRankOneError, SameGroupError
from mubkit.groups import CompatGroup, group_from_generators, lex_digits, qupit_factor_distribution
from mubkit.hilbert import (
    _TIE,
    Bras,
    MubBasis,
    _column_norms,
    _digit_sum,
    _generators,
    _omega,
    _roots,
    eigenbasis,
    eigenvalue_deviation,
    mub_check,
    operator_matrix,
    qupit_purities,
    reduced_density,
)
from mubkit.pauli import from_vector, parse_pauli
from mubkit.zplinalg import SystemParams

TOL = 1e-9


def purity(rho, p):
    """Rescaled purity (p Tr rho^2 - 1)/(p - 1): 1 on pure states, 0 at maximal mixing."""
    tr2 = np.trace(rho @ rho).real
    return float((p * tr2 - 1.0) / (p - 1.0))


def _shift_rows(p, n, shifts):
    """The earlier shift rows: row j sends each state index to the index of
    that state plus state shifts[j], digit-wise mod p, read off a
    shifts x d x n digit array."""
    digits = lex_digits(p, n)
    return np.ravel_multi_index(np.moveaxis((digits + digits[shifts][:, None]) % p, -1, 0),
                                (p,) * n)


def _generator(params, row):
    """The earlier per-row generator: (perm, amp) of the operator with
    exponent row (x | z), phased for p = 2, so that it sends |k> to
    amp[k] |perm[k]>."""
    p, n = params.p, params.n
    x, z = row[:n], row[n:]
    amp = _roots(p)[(lex_digits(p, n) @ np.array(z, dtype=np.int64)) % p]
    if p == 2:
        amp = amp * 1j ** int(sum(a * b for a, b in zip(x, z)))
    return _shift_rows(p, n, [int(np.ravel_multi_index(x, (p,) * n))])[0], amp


def test_single_site_matrices():
    p2 = SystemParams(2, 1)
    X = operator_matrix(parse_pauli("X", p2), p2)
    Z = operator_matrix(parse_pauli("Z", p2), p2)
    Y = operator_matrix(parse_pauli("Y", p2), p2)
    assert np.allclose(X, [[0, 1], [1, 0]])
    assert np.allclose(Z, [[1, 0], [0, -1]])
    assert np.allclose(Y, [[0, -1j], [1j, 0]])
    # the i^(xz) phase times the plain product XZ
    assert np.allclose(Y, 1j * X @ Z)
    p3 = SystemParams(3, 1)
    w = np.exp(2j * np.pi / 3)
    X3 = operator_matrix(parse_pauli("X", p3), p3)
    Z3 = operator_matrix(parse_pauli("Z", p3), p3)
    assert np.allclose(Z3, np.diag([1, w, w ** 2]))
    want = np.zeros((3, 3))
    want[[1, 2, 0], [0, 1, 2]] = 1
    assert np.allclose(X3, want)


def test_kron_order_site0_most_significant():
    params = SystemParams(2, 2)
    ZI = operator_matrix(parse_pauli("ZI", params), params)
    assert np.allclose(np.diag(ZI), [1, 1, -1, -1])
    IZ = operator_matrix(parse_pauli("IZ", params), params)
    assert np.allclose(np.diag(IZ), [1, -1, 1, -1])


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
def test_operators_have_order_p(p, n):
    params = SystemParams(p, n)
    for vec in np.ndindex(*(p,) * (2 * n)):
        m = operator_matrix(from_vector(tuple(vec)), params)
        acc = np.linalg.matrix_power(m, p)
        assert np.allclose(acc, np.eye(p ** n), atol=1e-12)


def _perm_amp(m):
    """Exact (permutation, amplitude) content of a generalized permutation
    matrix, verified to have one unimodular entry per column."""
    d = m.shape[0]
    perm = np.abs(m).argmax(axis=0)
    amp = m[perm, np.arange(d)]
    assert np.allclose(np.abs(amp), 1.0, atol=1e-12)
    assert np.count_nonzero(np.abs(m) > 1e-12) == d
    return perm, amp


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (2, 4),
                                 (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
def test_commutation_oracle_exhaustive(p, n):
    """Matrices commute exactly when the symplectic form vanishes, over all
    operator pairs with dimension at most 27."""
    params = SystemParams(p, n)
    vecs = np.array(list(np.ndindex(*(p,) * (2 * n))), dtype=np.int64)
    m = len(vecs)
    d = params.dim
    perms = np.empty((m, d), dtype=np.int64)
    amps = np.empty((m, d), dtype=complex)
    for i, v in enumerate(vecs):
        perms[i], amps[i] = _perm_amp(operator_matrix(from_vector(tuple(v)), params))
    x, z = vecs[:, :n], vecs[:, n:]
    forms = (x @ z.T - z @ x.T) % p
    # column j of A B holds amp_b[j] * amp_a[perm_b[j]] at row perm_a[perm_b[j]]
    chunk = max(1, 2 ** 22 // (m * d))
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        pa, aa = perms[lo:hi], amps[lo:hi]
        perm_ab = np.take(pa, perms, axis=1)
        amp_ab = amps[None, :, :] * np.take(aa, perms, axis=1)
        perm_ba = np.take(perms, pa, axis=1).transpose(1, 0, 2)
        amp_ba = aa[:, None, :] * np.take(amps, pa, axis=1).transpose(1, 0, 2)
        commute = (perm_ab == perm_ba).all(axis=2) & \
            (np.abs(amp_ab - amp_ba).max(axis=2) < 1e-9)
        assert (commute == (forms[lo:hi] == 0)).all()


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2), (3, 3), (2, 4)])
def test_shift_rows_match_ravel_oracle(p, n):
    # the generator table's permutations, one row per x-block row: every
    # shift, in any order, and one shift at a time
    params = SystemParams(p, n)
    digits = lex_digits(p, n)
    want = np.stack([np.ravel_multi_index(((digits + digits[t]) % p).T, (p,) * n)
                     for t in range(p ** n)])
    rows = np.hstack([digits, np.zeros_like(digits)])
    assert np.array_equal(_generators(params, rows)[0], want)
    order = np.random.default_rng(10 * p + n).permutation(p ** n)
    assert np.array_equal(_generators(params, rows[order])[0], want[order])
    assert np.array_equal(_shift_rows(p, n, order), want[order])
    for t in range(p ** n):
        assert np.array_equal(_generators(params, rows[t:t + 1])[0][0], want[t])


# d = 243 and d = 256 are the sampled proofs' sizes
TABLE_CASES = [(2, 1), (2, 2), (2, 3), (2, 5), (2, 8), (3, 1), (3, 2), (3, 3), (3, 5),
               (5, 1), (5, 2), (5, 3), (7, 1), (7, 2)]


@pytest.mark.parametrize("p,n", TABLE_CASES)
def test_generator_table_matches_per_row_oracle(p, n):
    # field-spread classes and random exponent rows: at p = 2 the phase
    # i^(x.z) takes all four values once x.z runs past 1; the table matches
    # the per-row generators bit for bit, signed zeros included
    params = SystemParams(p, n)
    rng = np.random.default_rng(100 * p + n)
    matrices = [cls.matrix for cls in _sample_classes(p, n)]
    matrices += [tuple(map(tuple, rng.integers(0, p, size=(n, 2 * n)).tolist()))
                 for _ in range(4)]
    if p == 2:
        matrices.append(((1,) * (2 * n),) * n)  # x.z = n on every row
    for matrix in matrices:
        perms, amps = _generators(params, matrix)
        assert perms.shape == amps.shape == (n, p ** n)
        for i, row in enumerate(matrix):
            perm, amp = _generator(params, row)
            assert np.array_equal(perms[i], perm)
            assert np.array_equal(amps[i].view(np.uint64), amp.view(np.uint64))


def _shift_rows_oracle(p, n, shifts):
    """The earlier coset rows: row j sends each state index to the
    index of that state plus state shifts[j], one digit at a time."""
    digits = lex_digits(p, n)
    rows = np.zeros((len(shifts), p ** n), dtype=np.int64)
    for i in range(n):
        rows *= p
        rows += (digits[:, i] + digits[shifts, i][:, None]) % p
    return rows


# d = 243 and d = 256 are the sampled proofs' sizes
DIFF_CASES = [(2, 1), (2, 3), (3, 2), (5, 2), (7, 2), (3, 3), (2, 4), (3, 5), (2, 8)]


@pytest.mark.parametrize("p,n", DIFF_CASES)
def test_addition_table_rows_match_shift_rows_oracle(p, n):
    # eigenbasis sums the shift digits of the coset representatives and the
    # digits of s; the earlier code built every shift's row and gathered
    # columns s from it, and a later one read a whole d x d addition table
    d = p ** n
    digits = lex_digits(p, n)
    rng = np.random.default_rng(10 * p + n)
    shifts = rng.permutation(d)
    s = rng.integers(0, d, size=d)
    rows = _digit_sum(p, digits[shifts], digits[s])
    assert rows.shape == (d, d)
    assert np.array_equal(rows, _shift_rows_oracle(p, n, shifts)[:, s])
    assert np.array_equal(_digit_sum(p, digits, digits), _shift_rows_oracle(p, n, np.arange(d)))
    # unequal lengths, as the generators and eigenbasis's column blocks take them
    assert np.array_equal(_digit_sum(p, digits[shifts[:3]], digits[s[:5]]),
                          _shift_rows_oracle(p, n, shifts[:3])[:, s[:5]])


def _eigenbasis_oracle(group):
    """The earlier eigenbasis body (no check): one d x d weight table, the
    diagonal from its zero-shift columns, one whole-array gather, and coset
    rows from the digit loop."""
    params = group.params
    p, n, d = params.p, params.n, params.dim
    digits = lex_digits(p, n)
    amp = np.ones((1, d), dtype=complex)
    for row in group.matrix:
        perm, g = _generator(params, row)
        amp = np.repeat(amp[:, None], p, axis=1)
        for j in range(1, p):
            np.multiply(amp[:, j - 1, perm], g, out=amp[:, j])
        amp = amp.reshape(-1, d)
    xs = (digits @ np.array(group.matrix, dtype=np.int64)[:, :n]) % p
    shift = np.ravel_multi_index(xs.T, (p,) * n)
    order = np.argsort(shift, kind="stable")
    c = int(np.count_nonzero(shift == 0))
    w = (_roots(p).conj() / d)[(digits @ digits[order].T) % p]
    diag = (w[:, :c] @ amp[order[:c]]).real
    s = np.argmax(diag >= diag.max(axis=1, keepdims=True) - _TIE, axis=1)
    w *= amp[order[:, None], s].T
    sums = w.reshape(d, d // c, c).sum(axis=2)
    rows = _shift_rows_oracle(p, n, shift[order[::c]])
    k = np.arange(d)
    vecs = np.zeros((d, d), dtype=complex)
    vecs[rows[:, s], k] = sums.T
    vecs /= np.linalg.norm(vecs, axis=0)
    mags = np.abs(vecs)
    j = np.argmax(mags >= mags.max(axis=0) - _TIE, axis=0)
    vecs *= (vecs[j, k] / mags[j, k]).conj()
    return vecs


def _sample_classes(p, n, count=4):
    classes = field_spread(SystemParams(p, n)).classes
    picks = np.random.default_rng(p * 100 + n).choice(len(classes), min(count, len(classes)),
                                                      replace=False)
    return [classes[i] for i in sorted(picks)]


@pytest.mark.parametrize("p,n", DIFF_CASES)
def test_eigenbasis_bit_identical_to_earlier_construction(monkeypatch, p, n):
    # the blocked gather and the addition-table rows change no bit of any
    # column; a block of one row splits the gather as finely as it goes
    for cls in _sample_classes(p, n):
        want = _eigenbasis_oracle(cls)
        assert np.array_equal(eigenbasis(cls, check=False).vectors, want)
        monkeypatch.setattr(mubkit.errors, "BLOCK_BYTES", 1)
        assert np.array_equal(eigenbasis(cls, check=False).vectors, want)
        monkeypatch.undo()


def _zero_shift_size(group):
    """c, the number of elements of the group that shift no state."""
    p, n = group.params.p, group.params.n
    x = np.array(group.matrix, dtype=np.int64)[:, :n]
    return int(np.count_nonzero(~((lex_digits(p, n) @ x) % p).any(axis=1)))


def _groups_of_every_zero_shift_size():
    """Every Lagrangian at (2,3) and (3,2), 40 seeded ones at (2,4), (3,3)
    and (5,2), and the field classes at (2,5): graph classes (c = 1), the
    vertical class (c = d) and every size between."""
    rng = np.random.default_rng(18)
    for p, n, take in ((2, 3, None), (3, 2, None), (2, 4, 40), (3, 3, 40), (5, 2, 40)):
        params = SystemParams(p, n)
        lagrangians = enumerate_lagrangians(params)
        picks = range(len(lagrangians)) if take is None else rng.choice(
            len(lagrangians), take, replace=False)
        yield from (CompatGroup(params, lagrangians[i]) for i in picks)
    yield from field_spread(SystemParams(2, 5)).classes


def test_eigenbasis_bits_on_every_zero_shift_size(monkeypatch):
    # eigenbasis builds graph classes (c = 1) without the diagonal, the coset
    # sums and the addition table, and every other class a block of columns
    # at a time; both give the earlier construction's bits, signed zeros
    # included, by default and with blocks of one row or column
    sizes = set()
    for group in _groups_of_every_zero_shift_size():
        c, d = _zero_shift_size(group), group.params.dim
        sizes.add("c = 1" if c == 1 else "c = d" if c == d else "1 < c < d")
        want = _eigenbasis_oracle(group).view(np.uint64)
        for block in (1 << 17, 1):
            monkeypatch.setattr(mubkit.errors, "BLOCK_BYTES", block)
            assert np.array_equal(eigenbasis(group, check=False).vectors.view(np.uint64), want)
    assert sizes == {"c = 1", "c = d", "1 < c < d"}


@pytest.mark.parametrize("block", [1, 3 * 16 * 81, 1 << 17])
def test_column_norms_bit_identical_to_linalg_norm(monkeypatch, block):
    monkeypatch.setattr(mubkit.errors, "BLOCK_BYTES", block)
    rng = np.random.default_rng(block)
    for rows, cols in ((1, 1), (5, 5), (81, 81), (256, 256), (100, 7)):
        v = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        assert np.array_equal(_column_norms(v).view(np.uint64),
                              np.linalg.norm(v, axis=0).view(np.uint64))


@pytest.mark.parametrize("pick", [1, 0], ids=["graph", "vertical"])
def test_eigenbasis_scratch_is_below_one_basis(pick):
    """Beside the finished d x d basis, eigenbasis holds less than one more
    d x d complex array at a time (near 0.7 of one at d = 243); the earlier
    construction reached 1.8 for a graph class and 3.5 for the vertical
    class, whose whole amplitude table it copied."""
    params = SystemParams(3, 5)
    group = field_spread(params).classes[pick]
    assert _zero_shift_size(group) == (1 if pick else params.dim)
    eigenbasis(group)  # fills the digit cache
    tracemalloc.start()
    try:
        basis = eigenbasis(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - basis.vectors.nbytes < basis.vectors.nbytes


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (5, 1)])
def test_eigenbasis_diagonalizes_group(p, n):
    params = SystemParams(p, n)
    comp = field_spread(params)
    for cls in comp.classes:
        basis = eigenbasis(cls)
        v = basis.vectors
        assert np.allclose(v.conj().T @ v, np.eye(params.dim), atol=TOL)
        assert eigenvalue_deviation(basis) < TOL


def test_eigenvalue_deviation_modes():
    # every (column, generator) pair is checked, both on a checked basis and
    # on one built with check=False, as sampled verify reports it
    params = SystemParams(3, 2)
    cls = field_spread(params).classes[0]
    basis = eigenbasis(cls)
    full = eigenvalue_deviation(basis)
    assert full < TOL
    assert eigenvalue_deviation(eigenbasis(cls, check=False)) < TOL
    # columns k = (0, 0) and (2, 2) swapped: each misses its eigenvalue tuple
    swapped = basis.vectors.copy()
    swapped[:, [0, 8]] = swapped[:, [8, 0]]
    assert eigenvalue_deviation(MubBasis(cls, swapped)) > 0.5


def test_eigenbasis_light_path_matches_checked_path():
    params = SystemParams(2, 3)
    for cls in field_spread(params).classes:
        a = eigenbasis(cls, check=True).vectors
        b = eigenbasis(cls, check=False).vectors
        assert np.allclose(a, b, atol=TOL)


@dataclass
class _Rep:
    """O|k> = amp[k] |perm[k]>, read off the dense operator matrix."""

    perm: np.ndarray
    amp: np.ndarray


def identity_rep(d):
    return _Rep(np.arange(d), np.ones(d, dtype=complex))


def matmul(a, b):
    """The rep of the matrix product a @ b."""
    return _Rep(a.perm[b.perm], b.amp * a.amp[b.perm])


def _element_reps(group):
    """Reps of all p^n group elements, ordered like CompatGroup.members,
    together with the exponent tuples; one matrix product at a time."""
    params = group.params
    p, n = params.p, params.n
    powers = []
    for row in group.matrix:
        base = _Rep(*_perm_amp(operator_matrix(from_vector(row), params)))
        reps = [identity_rep(params.dim)]
        for _ in range(p - 1):
            reps.append(matmul(reps[-1], base))
        powers.append(reps)
    exps = np.array(list(product(range(p), repeat=n)), dtype=np.int64)
    reps = []
    for e in exps:
        cur = powers[0][e[0]]
        for i in range(1, n):
            if e[i]:
                cur = matmul(cur, powers[i][e[i]])
        reps.append(cur)
    return reps, exps


def _extract_column(col):
    norm = np.linalg.norm(col)
    if norm < 1e-6:
        raise ProjectorNotRankOneError("projector column is numerically zero")
    v = col / norm
    mags = np.abs(v)
    j = int(np.argmax(mags >= mags.max() - _TIE))
    ph = v[j] / abs(v[j])
    return v * ph.conjugate()


def projector_oracle(group):
    """Eigenvectors from the full (d, d, d) stack of spectral projectors, each
    checked for trace one and idempotence, column k read off P(k) at its
    largest diagonal entry."""
    params = group.params
    p, d = params.p, params.dim
    reps, exps = _element_reps(group)
    weights = _omega(p) ** (-((exps @ exps.T) % p)) / d
    amps = np.stack([r.amp for r in reps])
    proj = np.zeros((d, d, d), dtype=complex)  # proj[k] = P(k)
    cols = np.arange(d)
    by_shift = {}
    for t, r in enumerate(reps):
        by_shift.setdefault(r.perm.tobytes(), (r.perm, []))[1].append(t)
    for perm, idx in by_shift.values():
        proj[:, perm, cols] = weights[:, idx] @ amps[idx]
    traces = np.einsum("kss->k", proj)
    if not np.allclose(traces, 1.0, atol=TOL):
        raise ProjectorNotRankOneError("projector trace is not one")
    if np.abs(np.matmul(proj, proj) - proj).max() > TOL:
        raise ProjectorNotRankOneError("projector is not idempotent")
    diag = np.einsum("kss->ks", proj).real
    vectors = np.empty((d, d), dtype=complex)
    for k in range(d):
        s = int(np.argmax(diag[k] >= diag[k].max() - _TIE))
        vectors[:, k] = _extract_column(proj[k, :, s])
    return vectors


def column_loop_oracle(group):
    """Eigenvectors built one column at a time: column k of P(k) at its
    largest diagonal entry, accumulated element by element with np.add.at."""
    params = group.params
    p, d = params.p, params.dim
    reps, exps = _element_reps(group)
    weights = _omega(p) ** (-((exps @ exps.T) % p)) / d
    amps = np.stack([r.amp for r in reps])
    rows = np.stack([r.perm for r in reps])  # (t, d)
    zero_shift = [t for t, r in enumerate(reps) if (r.perm == np.arange(d)).all()]
    diag = (weights[:, zero_shift] @ amps[zero_shift]).real  # (k, s)
    vectors = np.empty((d, d), dtype=complex)
    for k in range(d):
        s = int(np.argmax(diag[k] >= diag[k].max() - _TIE))
        col = np.zeros(d, dtype=complex)
        np.add.at(col, rows[:, s], weights[k] * amps[:, s])
        vectors[:, k] = _extract_column(col)
    return vectors


# X I and Z I do not commute
_NONCOMMUTING = CompatGroup(SystemParams(2, 2), ((1, 0, 0, 0), (0, 0, 1, 0)))


def test_eigenbasis_matches_projector_oracle():
    for p, n in ((2, 3), (3, 2), (7, 2)):
        for cls in field_spread(SystemParams(p, n)).classes:
            basis = eigenbasis(cls, check=True)
            assert np.allclose(basis.vectors, projector_oracle(cls), atol=TOL)
            assert eigenvalue_deviation(basis) < TOL
    # both paths must refuse a non-commuting pair
    with pytest.raises(ProjectorNotRankOneError):
        projector_oracle(_NONCOMMUTING)
    with pytest.raises(ProjectorNotRankOneError):
        eigenbasis(_NONCOMMUTING)


def _oracle_groups():
    for p, n in ((2, 3), (3, 2)):
        params = SystemParams(p, n)
        for m in enumerate_lagrangians(params):
            yield CompatGroup(params, m)
    for p, n in ((2, 4), (3, 3), (5, 2)):
        yield from field_spread(SystemParams(p, n)).classes


def test_eigenbasis_matches_column_loop_oracle():
    # a column that vanishes at row 0 must be read off another diagonal row;
    # sparse supports make the row differ from column to column
    off_row_0 = 0
    for cls in _oracle_groups():
        want = column_loop_oracle(cls)
        got = eigenbasis(cls, check=True).vectors
        assert np.abs(got - want).max() < 1e-12
        off_row_0 += int(np.count_nonzero(np.abs(want[0]) < TOL))
    assert off_row_0 > 0
    # the loop builds columns for a non-commuting pair too; they miss the
    # eigen-equations, so the checked path refuses them
    bad = column_loop_oracle(_NONCOMMUTING)
    assert eigenvalue_deviation(MubBasis(_NONCOMMUTING, bad)) > TOL
    with pytest.raises(ProjectorNotRankOneError):
        eigenbasis(_NONCOMMUTING)


def test_projector_check_rejects_noncommuting_matrix():
    # a hand built matrix whose rows are not isotropic: X I and Z I
    params = SystemParams(2, 2)
    bad = CompatGroup(params, ((1, 0, 0, 0), (0, 0, 1, 0)))
    with pytest.raises(ProjectorNotRankOneError):
        eigenbasis(bad)


def test_mub_check_same_group_refused():
    params = SystemParams(2, 2)
    basis = eigenbasis(field_spread(params).classes[0])
    with pytest.raises(SameGroupError):
        mub_check(basis, basis)


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3)])
def test_cross_overlaps_are_flat(p, n):
    params = SystemParams(p, n)
    bases = [eigenbasis(cls) for cls in field_spread(params).classes]
    d = params.dim
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            assert mub_check(bases[i], bases[j]) < TOL


def _mub_check_oracle(a, b):
    """The earlier mub_check expression, with its extra d x d temporaries."""
    m = a.vectors.conj().T @ b.vectors
    return float(np.abs(np.abs(m) ** 2 - 1.0 / a.group.params.dim).max())


def _deviation_oracle(basis):
    """The earlier eigenvalue_deviation loop: a fresh G_i V and V scale per
    generator."""
    params = basis.group.params
    scale = _roots(params.p)[lex_digits(params.p, params.n)]
    v = basis.vectors
    worst = 0.0
    for i, row in enumerate(basis.group.matrix):
        perm, amp = _generator(params, row)
        gv = np.empty_like(v)
        gv[perm] = amp[:, None] * v
        worst = max(worst, float(np.abs(gv - v * scale[:, i]).max()))
    return worst


def test_trimmed_loops_bit_identical_to_oracles():
    bases = [eigenbasis(cls) for cls in field_spread(SystemParams(7, 2)).classes]
    for basis in bases:
        assert eigenvalue_deviation(basis) == _deviation_oracle(basis)
    for i, a in enumerate(bases):
        for b in bases[i + 1:]:
            assert mub_check(a, b) == _mub_check_oracle(a, b)
    rng = np.random.default_rng(7)
    noisy = bases[3].vectors + 1e-6 * rng.standard_normal(bases[3].vectors.shape)
    bent = MubBasis(bases[3].group, noisy)
    assert eigenvalue_deviation(bent) == _deviation_oracle(bent) > 1e-7
    assert mub_check(bent, bases[0]) == _mub_check_oracle(bent, bases[0]) > 1e-7


def _bras(basis):
    """Bras of a copy of the basis, which leaves the basis whole."""
    left = Bras.of(MubBasis(basis.group, basis.vectors.copy()))
    assert np.array_equal(left.rows.view(np.uint64),
                          basis.vectors.conj().T.copy().view(np.uint64))
    return left


@pytest.mark.parametrize("p,n", DIFF_CASES)
def test_mub_check_bit_identical_to_elementwise_oracle(monkeypatch, p, n):
    # the worst deviation from the largest and smallest overlap alone equals
    # the elementwise maximum of the whole product exactly, on unbiased pairs
    # and on a noisy basis, with rows of A^H B taken by default, three at a
    # time, or as few as mub_check takes: a one-byte bound gets two-row blocks
    # (a three-row last one when d is odd), as BLAS makes a one-row product a
    # matrix-vector product, which rounds differently. The left operand is a
    # basis or its Bras, transposed in square blocks of BLOCK_BYTES: one block,
    # blocks of five or seven rows, which d is no multiple of, and single entries
    d = p ** n
    side = 7 if d % 7 else 5
    bases = [eigenbasis(cls, check=False) for cls in _sample_classes(p, n)]
    rng = np.random.default_rng(p + n)
    v = bases[0].vectors
    bent = MubBasis(bases[0].group, v + 1e-6 * rng.standard_normal(v.shape))
    for block in (1 << 17, 3 * 16 * d, 16 * side * side, 1):
        monkeypatch.setattr(mubkit.errors, "BLOCK_BYTES", block)
        for i, a in enumerate(bases):
            want = [_mub_check_oracle(a, b) for b in bases[i + 1:]]
            assert [mub_check(a, b) for b in bases[i + 1:]] == want
            left = _bras(a)
            assert [mub_check(left, b) for b in bases[i + 1:]] == want
            assert max(want, default=0.0) < TOL
        want = _mub_check_oracle(bent, bases[1])
        assert mub_check(bent, bases[1]) == mub_check(_bras(bent), bases[1]) == want > 1e-8


def test_mub_check_takes_at_most_128_row_blocks(monkeypatch):
    # at d = 512 a one-byte bound gets 128 blocks of four rows, d / 128, not
    # 256 of two, and the same bits as the default blocks of 16 rows. The two
    # graph classes [I | A] and [I | A + I] are unbiased, as their difference
    # I is invertible
    params = SystemParams(2, 9)
    upper = np.triu(np.random.default_rng(29).integers(0, 2, (9, 9)), 1)
    a, b = (eigenbasis(CompatGroup(params, tuple(map(tuple, np.hstack([np.eye(9, dtype=int), z])))),
                       check=False)
            for z in (upper + upper.T, upper + upper.T + np.eye(9, dtype=int)))
    want = mub_check(a, b)
    blocks = []
    bras = MubBasis.bras

    def counted(self, top, end):
        blocks.append(end - top)
        return bras(self, top, end)

    monkeypatch.setattr(MubBasis, "bras", counted)
    monkeypatch.setattr(mubkit.errors, "BLOCK_BYTES", 1)
    assert mub_check(a, b) == want < TOL
    assert blocks == [4] * 128


@pytest.mark.parametrize("d", [1, 2, 3, 10, 91])
def test_bras_transpose_in_place_bit_for_bit(monkeypatch, d):
    # signed zeros in both parts, and square blocks of every side up to d + 1:
    # the default side, 90, exceeds d but at d = 91, where its last block is one
    # row and column
    rng = np.random.default_rng(d)
    v = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    zeros = rng.integers(0, 4, (d, d))
    v.real[zeros == 1] = -0.0
    v.imag[zeros == 2] = 0.0
    v.imag[zeros == 3] = -0.0
    want = v.conj().T.copy().view(np.uint64)
    for side in (None, *range(1, min(d, 12) + 2)):
        if side is not None:
            monkeypatch.setattr(mubkit.errors, "BLOCK_BYTES", 16 * side * side)
        held = v.copy()
        left = Bras.of(MubBasis(None, held))
        assert left.rows is held and np.array_equal(held.view(np.uint64), want)


def test_mub_check_memory_is_a_few_blocks():
    """At d = 243 mub_check holds one row block of A^H B with its conjugate
    operand and magnitudes, about a third of a d x d complex array; the whole
    product and its conjugate operand came to two of them."""
    params = SystemParams(3, 5)
    a, b = (eigenbasis(cls, check=False) for cls in field_spread(params).classes[1:3])
    mub_check(a, b)
    tracemalloc.start()
    try:
        mub_check(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < min(3 * mubkit.errors.BLOCK_BYTES, a.vectors.nbytes / 2)


@pytest.mark.parametrize("p,n", DIFF_CASES)
def test_deviation_blocks_bit_identical_to_oracle(monkeypatch, p, n):
    # rows taken a block at a time, by default and one row at a time, give the
    # whole-basis loop's maximum exactly, on proved bases and on a noisy one
    bases = [eigenbasis(cls, check=False) for cls in _sample_classes(p, n)]
    v = bases[0].vectors
    bases.append(MubBasis(bases[0].group,
                          v + 1e-6 * np.random.default_rng(p + n).standard_normal(v.shape)))
    for block in (None, 1):
        if block is not None:
            monkeypatch.setattr(mubkit.errors, "BLOCK_BYTES", block)
        for basis in bases:
            assert eigenvalue_deviation(basis) == _deviation_oracle(basis)
    assert _deviation_oracle(bases[-1]) > 1e-8


def test_standard_basis_overlap_value():
    # the computational basis against a conjugate basis: all overlaps 1/d
    params = SystemParams(2, 1)
    comp = field_spread(params)
    a = eigenbasis(comp.classes[0])
    b = eigenbasis(comp.classes[1])
    m = np.abs(a.vectors.conj().T @ b.vectors) ** 2
    assert np.allclose(m, 0.5, atol=TOL)


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2)])
def test_purities_binary_and_cross_layer(p, n):
    """Column purities sit at 0 or 1 and agree with the symplectic
    factor distribution of the class."""
    params = SystemParams(p, n)
    for cls in field_spread(params).classes:
        basis = eigenbasis(cls)
        pur = qupit_purities(basis.vectors, params)
        assert np.abs(pur - pur.round()).max() < TOL
        for q in range(n):
            kind = qupit_factor_distribution(cls, q).kind
            want = 1.0 if kind == "pure" else 0.0
            assert np.allclose(pur[:, q], want, atol=TOL)


def _purities_einsum_oracle(vectors, params):
    """The earlier qupit_purities: one einsum per qupit over all columns."""
    p, n = params.p, params.n
    cols = vectors.shape[1]
    out = np.empty((cols, n))
    v = np.ascontiguousarray(vectors.T)
    for i in range(n):
        m = v.reshape(cols, p ** i, p, p ** (n - i - 1))
        rho = np.einsum("caib,cajb->cij", m, m.conj())
        tr2 = np.einsum("cij,cij->c", rho, rho.conj()).real
        out[:, i] = (p * tr2 - 1.0) / (p - 1.0)
    return out


@pytest.mark.parametrize("p,n", DIFF_CASES)
def test_purities_match_einsum_oracle(monkeypatch, p, n):
    # the default block, and blocks of one and of three columns
    params = SystemParams(p, n)
    rng = np.random.default_rng(p * n)
    for cls in _sample_classes(p, n):
        v = eigenbasis(cls, check=False).vectors
        noisy = v + 1e-3 * rng.standard_normal(v.shape)
        for vecs in (v, noisy):
            want = _purities_einsum_oracle(vecs, params)
            for block in (None, 16 * params.dim, 3 * 16 * params.dim):
                if block is not None:
                    monkeypatch.setattr(mubkit.errors, "BLOCK_BYTES", block)
                assert np.abs(qupit_purities(vecs, params) - want).max() < 1e-12


def test_reduced_density_agrees_with_qupit_purities():
    params = SystemParams(3, 2)
    basis = eigenbasis(field_spread(params).classes[2])
    pur = qupit_purities(basis.vectors, params)
    for k in (0, 4, 8):
        col = basis.vectors[:, k]
        for q in range(2):
            rho = reduced_density(col, q, params)
            assert abs(np.trace(rho).real - 1.0) < TOL
            assert abs(purity(rho, 3) - pur[k, q]) < TOL


def test_reduced_density_of_product_state():
    params = SystemParams(2, 2)
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0  # |00>
    rho = reduced_density(state, 0, params)
    assert np.allclose(rho, [[1, 0], [0, 0]])
    assert abs(purity(rho, 2) - 1.0) < TOL
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = reduced_density(bell, 1, params)
    assert np.allclose(rho, np.eye(2) / 2)
    assert abs(purity(rho, 2)) < TOL
    # -1 and n are no qupit: every axis would be traced out, leaving a scalar
    for q in (-1, 2):
        with pytest.raises(ValueError, match=r"qupit must lie in \[0, 2\), got"):
            reduced_density(state, q, params)


def test_mub_basis_carries_its_group():
    params = SystemParams(2, 2)
    cls = field_spread(params).classes[1]
    basis = eigenbasis(cls)
    assert isinstance(basis, MubBasis)
    assert basis.group is cls
    assert basis.vectors.shape == (4, 4)
