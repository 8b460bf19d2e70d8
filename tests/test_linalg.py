import contextlib
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
    _rref,
    _rref_rows,
    all_vectors,
    batch_kernels,
    batch_member_mask,
    batch_rank,
    batch_row_spaces,
    batch_row_spaces_and_kernels,
    batch_solve,
    check_prime,
    inv_mod,
    kernel,
    rank,
    vectors_to_indices,
)
from conftest import member_by_definition, reduce_by_definition

# the elimination cuts that force each strategy: above every shape, or 0
STRATEGIES = {"scalar": 1 << 62, "numpy": 0}


@contextlib.contextmanager
def forced(strategy):
    """Every elimination inside the block runs the given strategy."""
    cut = STRATEGIES[strategy]
    with mock.patch.multiple(linalg, SCALAR_BATCH_ENTRIES=cut, SCALAR_LONE_ENTRIES=cut):
        yield


@pytest.fixture(params=list(STRATEGIES))
def strategy(request):
    with forced(request.param):
        yield request.param


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

    def test_bound_before_trial_division(self):
        # trial division up to the square root of a 31-digit number would
        # not end: the bound refuses it first
        with pytest.raises(InputError, match="exceeds the supported bound"):
            check_prime(10 ** 30 + 57)


@pytest.mark.usefixtures("strategy")
class TestRref:
    """The elimination entry point on one matrix, under each strategy."""

    def test_rank_one_example(self):
        ech = _rref(np.array([[[2, 4], [1, 2]]]), 7)
        # a zero row's pivot reads as the width, 2
        assert ech.array.tolist() == [[[1, 2], [0, 0]]] and ech.pivots.tolist() == [[0, 2]]
        assert ech.ranks.tolist() == [1]
        assert rank(np.array([[2, 4], [1, 2]]), 7) == 1

    def test_identity_fixed(self):
        eye = np.eye(3, dtype=np.int64)
        ech = _rref(eye[None], 5)
        assert ech.array.tolist() == [eye.tolist()] and ech.pivots.tolist() == [[0, 1, 2]]
        assert rank(eye, 5) == 3

    def test_zero_matrix(self):
        ech = _rref(np.zeros((1, 2, 2), dtype=np.int64), 7)
        assert ech.array.tolist() == [[[0, 0], [0, 0]]] and ech.pivots.tolist() == [[2, 2]]
        assert rank(np.zeros((2, 2), dtype=np.int64), 7) == 0

    def test_idempotent(self):
        once = _rref(np.array([[[1, 2, 3], [2, 4, 1], [0, 1, 1]]]), 5)
        twice = _rref(once.array, 5)
        assert np.array_equal(once.array, twice.array) and np.array_equal(once.pivots, twice.pivots)

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ModulusMismatch):
            Subspace.from_vectors(5, 1, [[1]]).intersect(Subspace.from_vectors(7, 1, [[1]]))


@pytest.mark.usefixtures("strategy")
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
            assert member_by_definition(ker, vec)
        assert ker.basis == ((1, 5),)


@pytest.mark.usefixtures("strategy")
class TestSubspace:
    def test_equality_and_hash(self):
        # one span from lists and from an array; the empty bases differ in
        # their ambient dimension or their prime alone
        rows = [[2, 4, 1], [1, 2, 0], [0, 0, 3]]
        listed = Subspace.from_vectors(7, 3, rows)
        arrayed = Subspace.from_vectors(7, 3, np.array(rows, dtype=np.int64))
        assert listed == arrayed and hash(listed) == hash(arrayed) and len({listed, arrayed}) == 1
        assert plain(listed) == plain(arrayed)
        zero = Subspace.zero(7, 3)
        assert zero == Subspace.from_vectors(7, 3, []) and hash(zero) == hash(Subspace.zero(7, 3))
        assert zero != Subspace.zero(7, 4) and zero != Subspace.zero(11, 3)
        assert len({zero, Subspace.zero(7, 4), Subspace.zero(11, 3)}) == 3
        assert plain(zero).basis == () and plain(Subspace.full(7, 3)).basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

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
            assert member_by_definition(b, [c % 7, c % 7, 0])

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
def test_scalar_loop_idempotent(pm):
    # the scalar loop reduces in place, nonzero rows first, and a reduced
    # matrix is its own reduction
    p, m = pm
    once = m.tolist()
    pivots = _rref_rows(once, p)
    assert not any(map(any, once[len(pivots):]))
    twice = [list(r) for r in once]
    assert _rref_rows(twice, p) == pivots and twice == once


@settings(max_examples=150, deadline=None)
@given(subspace_pairs())
def test_dimension_formula(pair):
    a, b = pair
    assert a.dim + b.dim == a.sum(b).dim + a.intersect(b).dim


@st.composite
def batches(draw):
    """(p, mats, targets): a batch of N same-shape matrices with N, rows and
    cols each from 0 to 6 -- random, zero, of full rank, of low rank, with
    every entry p - 1, or the (d, d - k) residues of the rows of d x d
    matrices modulo a k-dimensional subspace, as the Ore check builds them
    -- and a target row per matrix, about half of them in its row space."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13, 65521]))
    kind = draw(st.sampled_from(["random", "zero", "full", "low", "top", "residue"]))
    n = draw(st.integers(0, 6))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "residue":
        rows = max(rows, 1)
        k = draw(st.integers(0, rows - 1))
        space = Subspace.from_vectors(p, rows, rng.integers(0, p, size=(k, rows)))
        mats = space.residues(rng.integers(0, p, size=(n * rows, rows))).reshape(n, rows, rows - space.dim)
    else:
        mats = rng.integers(0, p, size=(n, rows, cols))
    if kind == "zero":
        mats[:] = 0
    elif kind == "top":
        mats[:] = p - 1
    elif kind == "full":
        # unit diagonal, zero below it: rank min(rows, cols)
        mats = np.triu(mats)
        mats[:, range(min(rows, cols)), range(min(rows, cols))] = 1
    elif kind == "low":
        inner = draw(st.integers(0, min(rows, cols)))
        mats = (rng.integers(0, p, size=(n, rows, inner))
                @ rng.integers(0, p, size=(n, inner, cols))) % p
    n, rows, cols = mats.shape
    targets = rng.integers(0, p, size=(n, cols))
    reachable = rng.random(n) < 0.5
    targets[reachable] = np.einsum("nr,nrc->nc", rng.integers(0, p, size=(n, rows)), mats)[reachable] % p
    return p, mats, targets


def _spaces(p, mats):
    return [Subspace.from_vectors(p, mats.shape[2], m) for m in mats]


# every operation built on the elimination, on a batch (p, mats, targets)
OPERATIONS = {
    "batch_rank": lambda p, mats, targets: batch_rank(mats, p),
    "batch_row_spaces": lambda p, mats, targets: batch_row_spaces(mats, p),
    "batch_kernels": lambda p, mats, targets: batch_kernels(mats, p),
    "batch_row_spaces_and_kernels": lambda p, mats, targets: batch_row_spaces_and_kernels(mats, p),
    "batch_solve": lambda p, mats, targets: batch_solve(mats, targets, p),
    "rank": lambda p, mats, targets: [rank(m, p) for m in mats],
    "kernel": lambda p, mats, targets: [kernel(m, p) for m in mats],
    "from_vectors": lambda p, mats, targets: [(Subspace.from_vectors(p, mats.shape[2], m.tolist()),
                                               Subspace.from_vectors(p, mats.shape[2], m)) for m in mats],
    "sum_and_intersect": lambda p, mats, targets: [
        (x.sum(y), x.intersect(y)) for x, y in itertools.pairwise(_spaces(p, mats))],
}


def plain(result):
    """A result with its arrays as lists, and a check of the form of every
    Subspace: its basis array and pivots are int64, read-only and own their
    memory, and its ``basis`` is the array's rows as tuples of Python ints."""
    if isinstance(result, np.ndarray):
        return result.tolist()
    if isinstance(result, (list, tuple)):
        return [plain(x) for x in result]
    if isinstance(result, Subspace):
        for arr in (result.array, result.pivots):
            assert arr.dtype == np.int64 and not arr.flags.writeable and arr.base is None
        assert result.array.shape == (result.dim, result.ambient_dim) and result.pivots.shape == (result.dim,)
        assert result.basis == tuple(map(tuple, result.array.tolist()))
        assert all(type(v) is int for row in result.basis for v in row)
    return result


def assert_strategies_agree(op, p, mats, targets):
    results = []
    for strategy in STRATEGIES:
        with forced(strategy):
            results.append(plain(OPERATIONS[op](p, mats, targets)))
    assert results[0] == results[1]


@pytest.mark.parametrize("op", list(OPERATIONS))
@settings(max_examples=120, deadline=None)
@given(batch=batches())
def test_strategies_agree(op, batch):
    # the scalar loop and the numpy sweep give the same canonical answers
    assert_strategies_agree(op, *batch)


def edge_batches():
    """(p, mats): batches with some columns, and some rows, zero in every
    member, so every elimination skips columns; all-zero batches, one of
    them a single matrix as a central factor e = 1 gives L_{1 - e}; every
    entry p - 1 at the largest prime, around the lone cut too; and empty
    batches, matrices and rows."""
    rng = np.random.default_rng(11)
    out = {}
    for p, (n, rows, cols) in [(5, (6, 4, 5)), (7, (3, 5, 3)), (13, (4, 3, 6)), (65521, (2, 6, 6))]:
        mats = rng.integers(0, p, size=(n, rows, cols))
        mats[:, :, rng.permutation(cols)[:cols // 2]] = 0
        mats[:, rng.permutation(rows)[:rows // 2], :] = 0
        out[f"zero lines p{p}"] = (p, mats)
    out["all zero"] = (7, np.zeros((3, 4, 5), dtype=np.int64))
    out["one zero matrix"] = (7, np.zeros((1, 25, 25), dtype=np.int64))
    for shape in [(1, 36, 36), (1, 64, 64), (1, 65, 64), (3, 12, 40)]:
        out["all p - 1 " + "x".join(map(str, shape))] = (65521, np.full(shape, 65520, dtype=np.int64))
    for shape in [(0, 3, 4), (2, 0, 3), (2, 3, 0), (1, 0, 0)]:
        out["empty " + "x".join(map(str, shape))] = (7, np.zeros(shape, dtype=np.int64))
    return out


@pytest.mark.parametrize("p, mats", list(edge_batches().values()), ids=list(edge_batches()))
def test_strategies_agree_on_edge_batches(p, mats):
    n, rows, cols = mats.shape
    rng = np.random.default_rng(3)
    reachable = np.einsum("nr,nrc->nc", rng.integers(0, p, size=(n, rows)), mats) % p
    for targets in (reachable, np.zeros((n, cols), dtype=np.int64), rng.integers(0, p, size=(n, cols))):
        for op in OPERATIONS:
            assert_strategies_agree(op, p, mats, targets)
    # one elimination gives what the two separate ones give, empty batches too
    assert batch_row_spaces_and_kernels(mats, p) == (batch_row_spaces(mats, p), batch_kernels(mats, p))
    if mats.size and (mats == p - 1).all():
        # every entry p - 1: rank 1, and no entry wrapped past int64
        assert batch_rank(mats, p).tolist() == [1] * n
        assert [k.dim for k in batch_kernels(mats, p)] == [rows - 1] * n


def images(p, m):
    """Oracle: the set of all x @ m, by enumeration over GF(p)^rows."""
    return {tuple(v) for v in (all_vectors(p, len(m)) @ m % p).tolist()}


@settings(max_examples=150, deadline=None)
@given(batches())
def test_eliminations_by_definition(batch):
    # against the definitions, under each strategy: a solution solves its
    # system, an inconsistent system has none, ranks count the images, and
    # kernels and row spaces hold exactly the vectors they should
    p, mats, targets = batch
    n, rows, cols = mats.shape
    for strategy in STRATEGIES:
        with forced(strategy):
            sol, consistent, ranks = batch_solve(mats, targets, p)
            kernels, spaces = batch_kernels(mats, p), batch_row_spaces(mats, p)
        for i in range(n):
            assert kernels[i].dim + ranks[i] == rows and spaces[i].dim == ranks[i]
            if consistent[i]:
                assert ((sol[i] @ mats[i] - targets[i]) % p == 0).all()
            else:
                assert not sol[i].any()
            if p ** rows > 4096:
                continue
            image = images(p, mats[i])
            assert len(image) == p ** int(ranks[i])
            assert bool(consistent[i]) == (tuple(targets[i].tolist()) in image)
            members = {tuple(v) for chunk in spaces[i].member_chunks() for v in chunk.tolist()}
            assert members == image
            vecs = all_vectors(p, rows)
            zero = vecs[~(vecs @ mats[i] % p).any(axis=1)]
            assert len(zero) == p ** kernels[i].dim
            assert batch_member_mask(zero, kernels[i]).all()


@settings(max_examples=100, deadline=None)
@given(matrices(max_dim=3))
def test_solve_row_consistency(pm):
    # any row in the row space must be expressible, and the found
    # combination must reproduce it
    p, m = pm
    sol, consistent, _ = batch_solve(m[None], m[:1], p)
    assert consistent[0]
    assert (sol[0] @ m % p).tolist() == m[0].tolist()


def rank_by_definition(m: np.ndarray, p: int) -> int:
    """Oracle: the largest order of a minor nonzero mod p, each determinant
    the Leibniz sum over permutations, in Python integers."""
    m = m.tolist()
    for k in range(min(len(m), len(m[0])), 0, -1):
        for rows in itertools.combinations(range(len(m)), k):
            for cols in itertools.combinations(range(len(m[0])), k):
                det = 0
                for perm in itertools.permutations(range(k)):
                    inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(k), 2))
                    term = -1 if inversions % 2 else 1
                    for i, j in enumerate(perm):
                        term *= m[rows[i]][cols[j]]
                    det += term
                if det % p:
                    return k
    return 0


@st.composite
def rank_cases(draw):
    """(p, mats): 1 to 4 matrices, each rows x cols with both from 1 to 5,
    at p = 2, 3, 5 or 65521, random or of a drawn rank bound, with a drawn
    set of columns zero in every member."""
    p = draw(st.sampled_from([2, 3, 5, 65521]))
    n, rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        mats = rng.integers(0, p, size=(n, rows, cols))
    else:
        inner = draw(st.integers(0, min(rows, cols)))
        mats = rng.integers(0, p, size=(n, rows, inner)) @ rng.integers(0, p, size=(n, inner, cols)) % p
    mats[:, :, draw(st.lists(st.integers(0, cols - 1), max_size=cols))] = 0
    return p, mats


@settings(max_examples=150, deadline=None)
@given(rank_cases())
def test_rank_mode_by_definition(case):
    # the rank mode, forward only, gives the ranks of the full elimination
    # and of the definition, under each strategy
    p, mats = case
    expected = [rank_by_definition(m, p) for m in mats]
    for strategy in STRATEGIES:
        with forced(strategy):
            assert _rref(mats, p, forward=True).ranks.tolist() == expected
            assert _rref(mats, p).ranks.tolist() == expected
            assert batch_rank(mats, p).tolist() == expected


@pytest.mark.parametrize("forward", [False, True], ids=["full", "rank mode"])
@pytest.mark.parametrize("start", [0, 1], ids=["even", "odd"])
@pytest.mark.parametrize("shape", [(1, 256, 1024), (1024, 36, 36)], ids=["lone 256x1024", "batch 1024x36x36"])
def test_delayed_reduction_at_the_largest_prime(shape, start, forward):
    # the sweep reduces only the entries it reads, and every other entry
    # gains at most (p - 1)**2 per pivot: each it reads stays below
    # min(rows, cols) * (p - 1)**2 + p.  Checked at p = 65521 on the widest
    # lone matrix and the largest batch affordable here.  Every entry is
    # p - 1 but, in the even (or odd) members, 1 at each (i, i): a square
    # block -J + 2I of full rank, whose reduced form [I | X] has every entry
    # of X equal to 1 / (rows - 2); a member with every entry p - 1 has rank 1
    p = 65521
    n, rows, cols = shape
    mats = np.full(shape, p - 1, dtype=np.int64)
    mats[start::2, range(rows), range(rows)] = 1
    bound = min(rows, cols) * (p - 1) ** 2 + p
    seen = []
    mod = linalg._mod

    def checked(x, p):
        seen.append(int(np.abs(x).max(initial=0)))
        return mod(x, p)

    with forced("numpy"), mock.patch.object(linalg, "_mod", checked):
        ech = _rref(mats, p, forward)
    # with a full-rank member some entry read is past p**2: the reduction is delayed
    assert (p ** 2 if n > start else 0) < max(seen) < bound
    ranks = [rows if i % 2 == start else 1 for i in range(n)]
    assert ech.ranks.tolist() == ranks
    if not forward:
        one = np.zeros((rows, cols), dtype=np.int64)
        one[0] = 1
        full = np.eye(rows, cols, dtype=np.int64)
        full[:, rows:] = pow(rows - 2, p - 2, p)
        for form, k in zip(ech.array, ranks):
            assert np.array_equal(form, full if k == rows else one)


@pytest.mark.usefixtures("strategy")
def test_batch_kernels_check_rank_nullity():
    mats = np.array([[[1, 2], [2, 4]], [[1, 0], [0, 1]]], dtype=np.int64)
    assert [ker.dim for ker in batch_kernels(mats, 7)] == [1, 0]
    # a corrupted rank of the transposes
    with mock.patch.object(linalg, "batch_rank", lambda m, p: np.array([2, 2][:len(m)])):
        with pytest.raises(InternalCheckError, match="rank-nullity violated in kernel"):
            batch_kernels(mats, 7)
        with pytest.raises(InternalCheckError, match="rank-nullity violated in kernel"):
            kernel(mats[0], 7)
    # a fault in the elimination of [M | I] alone, the full one, while the
    # cross-check, the rank mode on the transposes, runs clean: the last row
    # of the first matrix, a kernel row, is given a nonzero entry left of the bar
    rref = linalg._rref

    def faulty(m, p, forward=False):
        ech = rref(m, p, forward)
        if not forward:
            ech.array[0, -1, 0] = 1
        return ech

    with mock.patch.object(linalg, "_rref", faulty):
        with pytest.raises(InternalCheckError, match="rank-nullity violated in kernel"):
            batch_kernels(mats, 7)
        with pytest.raises(InternalCheckError, match="rank-nullity violated in kernel"):
            kernel(mats[0], 7)


def test_lone_and_batch_cuts():
    # the strategy follows the size alone: a lone matrix up to the lone
    # cut, and a batch up to the batch cut, runs the scalar loop, in the
    # full elimination and in the rank mode alike
    lone, batch = linalg.SCALAR_LONE_ENTRIES, linalg.SCALAR_BATCH_ENTRIES
    assert batch < lone
    for forward in (False, True):
        with mock.patch.object(linalg, "_sweep", side_effect=AssertionError("swept")) as sweep:
            _rref(np.zeros((1, 1, lone), dtype=np.int64), 7, forward)
            _rref(np.zeros((2, 1, batch // 2), dtype=np.int64), 7, forward)
            assert not sweep.called
        for shape in [(1, 1, lone + 1), (2, 1, batch // 2 + 1)]:
            with mock.patch.object(linalg, "_sweep", wraps=linalg._sweep) as sweep:
                _rref(np.zeros(shape, dtype=np.int64), 7, forward)
                assert sweep.call_args.args[2] is forward


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


@pytest.mark.parametrize("rows, sizes", [(1, [1] * 25), (4, [2, 4, 4, 4, 4, 4, 3]), (64, [8, 16, 1]),
                                         (1 << 12, [25])])
def test_member_chunks_in_basis_order(rows, sizes, monkeypatch):
    # a member takes 3 entries, its ambient dimension, so a step holds
    # ``rows`` members: the first chunk is its isqrt, the next ones double
    # up to it
    monkeypatch.setattr(linalg, "BATCH_ENTRIES", rows * 3)
    sp = Subspace.from_vectors(5, 3, [[1, 0, 2], [0, 1, 3]])
    chunks = list(sp.member_chunks())
    expected = [[(c0 * 1) % 5, c1, (c0 * 2 + c1 * 3) % 5]
                for c0, c1 in itertools.product(range(5), repeat=2)]
    assert np.concatenate(chunks).tolist() == expected
    assert [len(chunk) for chunk in chunks] == sizes
    assert np.concatenate(list(Subspace.zero(5, 3).member_chunks())).tolist() == [[0, 0, 0]]


def test_batch_member_mask():
    sp = Subspace.from_vectors(5, 3, [[1, 0, 2], [0, 1, 3]])
    vecs = all_vectors(5, 3)
    mask = batch_member_mask(vecs, sp)
    assert mask.sum() == 25
    for row, ok in zip(vecs.tolist(), mask):
        assert member_by_definition(sp, row) == bool(ok)


@st.composite
def reduction_cases(draw, max_dim=4):
    """(space, other, vecs): two subspaces of GF(p)^n, each random, zero,
    the whole space, or spanned by the row with every entry p - 1 and random
    rows, and rows to reduce against them, all unreduced once more.  The
    rows are all of GF(p)^n for small p; for p = 65521 they are random and
    the row with every entry p - 1, so each product of a residue is near
    its largest."""
    p = draw(st.sampled_from([2, 3, 5, 7, 65521]))
    n = draw(st.integers(1, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def space():
        kind = draw(st.sampled_from(["random", "zero", "full", "top"]))
        if kind == "zero":
            return Subspace.zero(p, n)
        if kind == "full":
            return Subspace.full(p, n)
        rows = rng.integers(0, p, size=(draw(st.integers(0, n)), n))
        return Subspace.from_vectors(p, n, np.concatenate([np.full((1, n), p - 1), rows])
                                     if kind == "top" else rows)

    vecs = (all_vectors(p, n) if p ** n <= 1 << 12
            else np.concatenate([rng.integers(0, p, size=(64, n)), np.full((1, n), p - 1)]))
    return space(), space(), np.concatenate([vecs, vecs + p * 3])


@settings(max_examples=150, deadline=None)
@given(reduction_cases())
def test_residues_match_sequential_reduce(case):
    # the residues against the one-vector elimination loop
    space, other, vecs = case
    reduced = [reduce_by_definition(space, v) for v in vecs.tolist()]
    expected = [[v[j] for j in space.free_columns] for v in reduced]
    assert space.residues(vecs).tolist() == expected
    # the subspace holds a (dim, ambient_dim - dim) block, not an ambient-square map
    assert space._reducer[2].shape == (space.dim, space.ambient_dim - space.dim)
    assert batch_member_mask(vecs, other).tolist() == [member_by_definition(other, v) for v in vecs.tolist()]
    for a, b in ((space, other), (other, space), (space, space)):
        assert a.contains(b) == all(member_by_definition(a, v) for v in b.basis)
