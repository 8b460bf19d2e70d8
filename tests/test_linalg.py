import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from artinloc import linalg
from artinloc.linalg import (
    InputError,
    InternalCheckError,
    ModulusMismatch,
    Subspace,
    all_vectors,
    batch_member_mask,
    _batch_rref,
    _rref_rows,
    batch_kernels,
    batch_rank,
    batch_row_spaces,
    batch_solve,
    check_prime,
    express_in_rows,
    inv_mod,
    kernel,
    rank,
    vectors_to_indices,
)


def enumerate_left_kernel(m: np.ndarray, p: int):
    """Oracle: all x with x @ m = 0 mod p, by full enumeration over GF(p)^rows."""
    return [x for x in itertools.product(range(p), repeat=len(m))
            if not (np.array(x) @ m % p).any()]


class TestScalar:
    """GF(p) scalars are ints reduced mod p: inversion and the prime check."""

    def test_arithmetic(self):
        assert inv_mod(5, 7) == 3
        assert (3 * inv_mod(5, 7)) % 7 == (3 * pow(5, 5, 7)) % 7
        assert inv_mod(-2, 7) == 3
        assert all(a * inv_mod(a, 13) % 13 == 1 for a in range(1, 13))

    def test_division_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            inv_mod(7, 7)

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ModulusMismatch):
            Subspace.from_vectors(5, 1, [[1]]).sum(Subspace.from_vectors(7, 1, [[1]]))

    def test_nonprime_rejected(self):
        with pytest.raises(InputError):
            check_prime(6)


class TestRref:
    def test_rank_one_example(self):
        assert _rref_rows([[2, 4], [1, 2]], 7) == ([[1, 2]], [0])
        assert rank(np.array([[2, 4], [1, 2]]), 7) == 1

    def test_identity_fixed(self):
        eye = np.eye(3, dtype=np.int64)
        assert _rref_rows(eye.tolist(), 5) == (eye.tolist(), [0, 1, 2])
        assert rank(eye, 5) == 3

    def test_zero_matrix(self):
        assert _rref_rows([[0, 0], [0, 0]], 7) == ([], [])
        assert rank(np.zeros((2, 2), dtype=np.int64), 7) == 0

    def test_idempotent(self):
        once, pivots = _rref_rows([[1, 2, 3], [2, 4, 1], [0, 1, 1]], 5)
        twice, pivots2 = _rref_rows([list(r) for r in once], 5)
        assert once == twice and pivots == pivots2

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ModulusMismatch):
            Subspace.from_vectors(5, 1, [[1]]).intersect(Subspace.from_vectors(7, 1, [[1]]))


class TestKernel:
    def test_projection_example(self):
        ker = kernel(np.array([[1, 0], [0, 0]]), 7)
        assert ker.basis == ((0, 1),)

    def test_invertible_matrix(self):
        assert kernel(np.array([[1, 1], [0, 1]]), 7).dim == 0

    def test_rank_deficient_example_against_enumeration(self):
        m = np.array([[2, 4], [1, 2]])
        ker = kernel(m, 7)
        oracle = enumerate_left_kernel(m, 7)
        assert len(oracle) == 7 ** ker.dim
        for vec in oracle:
            assert ker.contains_vector(vec)
        assert ker.basis == ((1, 5),)


class TestSubspace:
    def test_axis_spans(self):
        a = Subspace.from_vectors(7, 3, [[1, 0, 0]])
        b = Subspace.from_vectors(7, 3, [[0, 1, 0]])
        assert a.sum(b).dim == 2
        assert a.intersect(b).dim == 0
        assert not a.contains(b) and a != b

    def test_idempotence(self):
        a = Subspace.from_vectors(7, 3, [[1, 2, 3], [0, 1, 1]])
        assert a.sum(a) == a and a.intersect(a) == a
        assert a.contains(a)

    def test_containment_example_against_enumeration(self):
        a = Subspace.from_vectors(7, 3, [[1, 1, 0]])
        b = Subspace.from_vectors(7, 3, [[1, 1, 0], [0, 0, 1]])
        assert b.contains(a)
        assert b.intersect(a) == a
        # every GF(7)-combination of a's basis lies in b
        for c in range(7):
            assert b.contains_vector([c % 7, c % 7, 0])

    def test_canonical_equality_from_different_spanning_sets(self):
        a = Subspace.from_vectors(5, 3, [[1, 2, 0], [0, 1, 1]])
        b = Subspace.from_vectors(5, 3, [[1, 3, 1], [2, 4, 0], [1, 0, 3]])
        assert a == b

    def test_clashing_ambient_rejected(self):
        a = Subspace.from_vectors(5, 2, [[1, 0]])
        b = Subspace.from_vectors(5, 3, [[1, 0, 0]])
        with pytest.raises(InputError):
            a.sum(b)


small_primes = st.sampled_from([2, 3, 5, 7])


@st.composite
def matrices(draw, max_dim=4):
    """(p, m) with m a rows x cols int64 array of residues."""
    p = draw(small_primes)
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    data = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return p, np.array(data, dtype=np.int64)


@st.composite
def subspace_pairs(draw, max_dim=4):
    p = draw(small_primes)
    n = draw(st.integers(1, max_dim))
    def vecs():
        k = draw(st.integers(0, n))
        return [draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)) for _ in range(k)]
    return (Subspace.from_vectors(p, n, vecs()), Subspace.from_vectors(p, n, vecs()))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_nullity(pm):
    p, m = pm
    assert kernel(m, p).dim + rank(m, p) == len(m)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_idempotent(pm):
    p, m = pm
    once, pivots = _rref_rows(m.tolist(), p)
    assert _rref_rows([list(r) for r in once], p) == (once, pivots)


@settings(max_examples=150, deadline=None)
@given(subspace_pairs())
def test_dimension_formula(pair):
    a, b = pair
    assert a.dim + b.dim == a.sum(b).dim + a.intersect(b).dim


@settings(max_examples=100, deadline=None)
@given(matrices(max_dim=3))
def test_solve_row_consistency(pm):
    # any row in the row space must be expressible, and the found
    # combination must reproduce it
    p, m = pm
    x = express_in_rows(m.tolist(), m[0].tolist(), p)
    assert x is not None
    assert (np.array(x) @ m % p).tolist() == m[0].tolist()


def test_batch_rank_matches_scalar_rank():
    rng = np.random.default_rng(7)
    mats = rng.integers(0, 5, size=(64, 4, 4))
    ranks = batch_rank(mats, 5)
    for i in range(64):
        assert ranks[i] == rank(mats[i], 5)


@st.composite
def solve_batches(draw):
    """Same-shape systems x * m = t, half of them with t in the row space."""
    p = draw(small_primes)
    rows, cols, n = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entries = st.integers(0, p - 1)
    mats = np.array(draw(st.lists(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                                           min_size=rows, max_size=rows),
                                  min_size=n, max_size=n)), dtype=np.int64).reshape(n, rows, cols)
    targets = np.array(draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                                     min_size=n, max_size=n)), dtype=np.int64).reshape(n, cols)
    coeffs = np.array(draw(st.lists(st.lists(entries, min_size=rows, max_size=rows),
                                    min_size=n, max_size=n)), dtype=np.int64).reshape(n, rows)
    reachable = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    targets[reachable] = np.einsum("nr,nrc->nc", coeffs, mats)[reachable] % p
    return p, mats, targets


@settings(max_examples=150, deadline=None)
@given(solve_batches())
def test_batch_solve_matches_solve_row(batch):
    # against the scalar elimination: express_in_rows and _rref_rows
    p, mats, targets = batch
    sol, consistent, ranks = batch_solve(mats, targets, p)
    red, red_ranks = _batch_rref(mats, p)
    for i in range(len(mats)):
        expected = express_in_rows(mats[i].tolist(), targets[i].tolist(), p)
        assert bool(consistent[i]) == (expected is not None)
        if expected is not None:
            assert tuple(sol[i].tolist()) == expected
        else:
            assert not sol[i].any()
        reduced, pivots = _rref_rows(mats[i].tolist(), p)
        r = len(pivots)
        assert ranks[i] == red_ranks[i] == rank(mats[i], p) == r
        assert red[i, :r].tolist() == reduced
        assert not red[i, r:].any()


@settings(max_examples=100, deadline=None)
@given(solve_batches())
def test_batch_row_spaces_match_from_vectors(batch):
    # the canonical subspace, including its pivots and hash, whatever the batch
    p, mats, _targets = batch
    spaces = batch_row_spaces(mats, p)
    assert len(spaces) == len(mats)
    for sp, m in zip(spaces, mats):
        expected = Subspace.from_vectors(p, m.shape[1], m.tolist())
        assert sp == expected and hash(sp) == hash(expected)
        assert all(isinstance(v, int) for row in sp.basis for v in row + sp.pivots)


@st.composite
def kernel_batches(draw):
    """(p, mats): a batch of same-shape matrices, random, zero, of full rank,
    of low rank, or the (d, d - k) residues of the rows of d x d matrices
    modulo a k-dimensional subspace, as the Ore check builds them."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13, 65521]))
    kind = draw(st.sampled_from(["random", "zero", "full", "low", "residue"]))
    n = draw(st.integers(1, 6))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "residue":
        k = draw(st.integers(0, rows - 1))
        space = Subspace.from_vectors(p, rows, rng.integers(0, p, size=(k, rows)).tolist())
        full = rng.integers(0, p, size=(n * rows, rows))
        return p, space.residues(full).reshape(n, rows, rows - space.dim)
    mats = rng.integers(0, p, size=(n, rows, cols))
    if kind == "zero":
        mats[:] = 0
    elif kind == "full":
        # unit diagonal, zero below it: rank min(rows, cols)
        mats = np.triu(mats)
        mats[:, range(min(rows, cols)), range(min(rows, cols))] = 1
    elif kind == "low":
        inner = draw(st.integers(0, min(rows, cols)))
        mats = (rng.integers(0, p, size=(n, rows, inner))
                @ rng.integers(0, p, size=(n, inner, cols))) % p
    return p, mats


@settings(max_examples=200, deadline=None)
@given(kernel_batches())
def test_batch_kernels_match_kernel(batch):
    # the canonical subspace of the scalar elimination, whatever the batch
    p, mats = batch
    kernels = batch_kernels(mats, p)
    assert kernels == [kernel(m, p) for m in mats]
    assert all(isinstance(v, int) for ker in kernels for row in ker.basis for v in row + ker.pivots)


def zero_line_batches():
    """(p, mats): random batches with some columns, and some rows, zero in
    every member, so every elimination skips columns; and all-zero batches,
    one of them a single matrix as a central factor e = 1 gives L_{1 - e}."""
    rng = np.random.default_rng(11)
    out = []
    for p, (n, rows, cols) in [(5, (6, 4, 5)), (7, (3, 5, 3)), (13, (4, 3, 6)), (65521, (2, 6, 6))]:
        mats = rng.integers(0, p, size=(n, rows, cols))
        mats[:, :, rng.permutation(cols)[:cols // 2]] = 0
        mats[:, rng.permutation(rows)[:rows // 2], :] = 0
        out.append((p, mats))
    return out + [(7, np.zeros((3, 4, 5), dtype=np.int64)), (7, np.zeros((1, 25, 25), dtype=np.int64))]


@pytest.mark.parametrize("p, mats", zero_line_batches(),
                         ids=["p5", "p7", "p13", "p65521", "all zero", "one zero matrix"])
def test_batch_eliminations_with_zero_columns_match_the_scalar_path(p, mats):
    n, rows, cols = mats.shape
    assert batch_rank(mats, p).tolist() == [rank(m, p) for m in mats]
    assert batch_row_spaces(mats, p) == [Subspace.from_vectors(p, cols, m.tolist()) for m in mats]
    assert batch_kernels(mats, p) == [kernel(m, p) for m in mats]
    # a reachable target, the zero target and a random one, for every member
    rng = np.random.default_rng(3)
    reachable = np.einsum("nr,nrc->nc", rng.integers(0, p, size=(n, rows)), mats) % p
    for targets in (reachable, np.zeros((n, cols), dtype=np.int64), rng.integers(0, p, size=(n, cols))):
        sol, consistent, ranks = batch_solve(mats, targets, p)
        for i in range(n):
            expected = express_in_rows(mats[i].tolist(), targets[i].tolist(), p)
            assert bool(consistent[i]) == (expected is not None)
            assert tuple(sol[i].tolist()) == (expected if expected is not None else (0,) * rows)
            assert ranks[i] == rank(mats[i], p)


def test_batch_kernels_check_rank_nullity():
    mats = np.array([[[1, 2], [2, 4]], [[1, 0], [0, 1]]], dtype=np.int64)
    assert [ker.dim for ker in batch_kernels(mats, 7)] == [1, 0]
    # a corrupted rank of the transposes
    with mock.patch.object(linalg, "batch_rank", lambda m, p: np.array([2, 2])):
        with pytest.raises(InternalCheckError, match="rank-nullity violated in kernel"):
            batch_kernels(mats, 7)
    # a fault in the elimination of [M | I] alone: the last row, a kernel
    # row of the first matrix, is given a pivot left of the bar
    rref = linalg._batch_rref

    def faulty(m, p):
        red, ranks = rref(m, p)
        if m.shape[2] > m.shape[1]:
            red = red.copy()
            red[:, -1, 0] = 1
        return red, ranks

    with mock.patch.object(linalg, "_batch_rref", faulty):
        with pytest.raises(InternalCheckError, match="rank-nullity violated in kernel"):
            batch_kernels(mats, 7)


def test_all_vectors_order_and_indexing():
    vecs = all_vectors(3, 3)
    assert vecs.shape == (27, 3)
    assert vecs[0].tolist() == [0, 0, 0]
    assert vecs[1].tolist() == [0, 0, 1]
    as_tuples = [tuple(r) for r in vecs.tolist()]
    assert as_tuples == sorted(as_tuples)
    assert (vectors_to_indices(vecs, 3) == np.arange(27)).all()


def test_all_vectors_row_range():
    whole = all_vectors(5, 3)
    assert (all_vectors(5, 3, 7, 60) == whole[7:60]).all()
    assert all_vectors(5, 3, 125, 125).shape == (0, 3)


@pytest.mark.parametrize("chunk", [1, 4, 1 << 12])
def test_member_chunks_in_basis_order(chunk, monkeypatch):
    from artinloc import linalg
    monkeypatch.setattr(linalg, "CHUNK_ROWS", chunk)
    sp = Subspace.from_vectors(5, 3, [[1, 0, 2], [0, 1, 3]])
    members = np.concatenate(list(sp.member_chunks()))
    expected = [[(c0 * 1) % 5, c1, (c0 * 2 + c1 * 3) % 5]
                for c0, c1 in itertools.product(range(5), repeat=2)]
    assert members.tolist() == expected
    assert np.concatenate(list(Subspace.zero(5, 3).member_chunks())).tolist() == [[0, 0, 0]]


def test_batch_member_mask():
    sp = Subspace.from_vectors(5, 3, [[1, 0, 2], [0, 1, 3]])
    vecs = all_vectors(5, 3)
    mask = batch_member_mask(vecs, sp)
    assert mask.sum() == 25
    for row, ok in zip(vecs.tolist(), mask):
        assert sp.contains_vector(row) == bool(ok)


@settings(max_examples=150, deadline=None)
@given(subspace_pairs())
def test_residues_match_sequential_reduce(pair):
    # the batched reduction against the one-vector elimination loop
    space, other = pair
    vecs = all_vectors(space.p, space.ambient_dim)
    vecs = np.concatenate([vecs, vecs + space.p * 3])  # unreduced representatives too
    expected = [[v[j] for j in space.free_columns] for v in map(space.reduce, vecs.tolist())]
    assert space.residues(vecs).tolist() == expected
    assert batch_member_mask(vecs, other).tolist() == [other.contains_vector(v) for v in vecs.tolist()]


def test_express_in_rows_unsolvable():
    assert express_in_rows([[1, 0]], [0, 1], 5) is None
