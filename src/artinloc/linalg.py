"""Linear algebra over prime fields GF(p).

A matrix is a 2-D int64 numpy array of residues, and a batch of matrices
a 3-D one.  Row-vector convention: vectors are rows and matrices act on
the right, so the image of ``x`` under the map represented by ``m`` is
``x @ m``.  This makes the left and right multiplication maps of an
algebra both plain matrices acting on coefficient rows.

Single matrices (:func:`rank`, :func:`kernel`, the canonical RREF basis
of a :class:`Subspace`) are eliminated by ``_rref_rows``, a scalar
Gauss-Jordan loop over Python lists: on the small matrices of a single
decision it measured faster than elimination in numpy.  Batches of matrices and long
sweeps over element sets use the numpy kernels at the bottom of the
module, and :meth:`Subspace.residues` reduces many vectors against a
subspace at once.  A member's coordinates over an RREF basis are its
entries at the pivots, so no coordinate solve is needed.  Nothing here
uses floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

DEFAULT_GUARD = 1 << 20
MAX_PRIME = 1 << 16
# rows per piece of an enumeration sweep: peak memory of a sweep is set by
# this, not by p**dim
CHUNK_ROWS = 1 << 12


class ModulusMismatch(ValueError):
    """Two operands carry different moduli."""


class InputError(ValueError):
    """Invalid user-facing input (bad prime, shape mismatch, bad table)."""


class ResourceGuardError(RuntimeError):
    """An enumeration would exceed the configured guard.

    ``size`` is the enumeration that was refused and ``guard`` the bound it
    exceeded, so a caller can report the refusal without parsing the message.
    """

    def __init__(self, message: str, size: int, guard: int):
        super().__init__(message)
        self.size = size
        self.guard = guard


class InternalCheckError(RuntimeError):
    """A structural self-check failed; indicates a bug, not bad input."""


def check_guard(guard: int) -> None:
    """Reject an enumeration guard below 1 from a library caller."""
    if guard < 1:
        raise InputError("guard must be positive")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def check_prime(p: int) -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise InputError(f"{p!r} is not prime")
    if p > MAX_PRIME:
        raise InputError(f"prime {p} exceeds the supported bound {MAX_PRIME}")
    return p


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"0 is not invertible mod {p}")
    return pow(a, p - 2, p)


def _rref_rows(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """In-place reduced row echelon form; returns (nonzero rows, pivot columns)."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = inv_mod(rows[r][col], p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(m: np.ndarray, p: int) -> int:
    """Rank of one matrix over GF(p), by the scalar elimination."""
    return len(_rref_rows((m % p).tolist(), p)[1])


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of GF(p)^n held as a canonical RREF basis.

    Two subspaces are equal iff their basis matrices are identical, so
    equality of spans is literal equality of the dataclass.
    """

    p: int
    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    @staticmethod
    def from_vectors(p: int, ambient_dim: int, vectors: Iterable[Sequence[int]]) -> "Subspace":
        rows = [[int(v) % p for v in vec] for vec in vectors]
        for row in rows:
            if len(row) != ambient_dim:
                raise InputError("vector length does not match ambient dimension")
        red, pivots = _rref_rows(rows, p)
        return Subspace(p, ambient_dim, tuple(tuple(r) for r in red), tuple(pivots))

    @staticmethod
    def zero(p: int, ambient_dim: int) -> "Subspace":
        return Subspace(p, ambient_dim, (), ())

    @staticmethod
    def full(p: int, ambient_dim: int) -> "Subspace":
        eye = tuple(tuple(1 if i == j else 0 for j in range(ambient_dim)) for i in range(ambient_dim))
        return Subspace(p, ambient_dim, eye, tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def array(self) -> np.ndarray:
        """The basis as a read-only ``(dim, ambient_dim)`` int64 array."""
        arr = np.array(self.basis, dtype=np.int64).reshape(self.dim, self.ambient_dim)
        arr.flags.writeable = False
        return arr

    @cached_property
    def free_columns(self) -> tuple[int, ...]:
        """The non-pivot coordinates, in increasing order."""
        pivots = set(self.pivots)
        return tuple(j for j in range(self.ambient_dim) if j not in pivots)

    def _check_compatible(self, other: "Subspace") -> None:
        if self.p != other.p:
            raise ModulusMismatch(f"mixed moduli {self.p} and {other.p}")
        if self.ambient_dim != other.ambient_dim:
            raise InputError("ambient dimension mismatch")

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Eliminate the pivot coordinates of ``vec``; zero iff vec is a member."""
        p = self.p
        v = [int(x) % p for x in vec]
        for row, piv in zip(self.basis, self.pivots):
            c = v[piv]
            if c:
                for j, b in enumerate(row):
                    if b:
                        v[j] = (v[j] - c * b) % p
        return tuple(v)

    def residues(self, vecs: np.ndarray) -> np.ndarray:
        """:meth:`reduce` on every row of ``vecs``, read at :attr:`free_columns`.

        A reduced vector vanishes at the pivots, so these columns are all of
        it: a row is a member iff its residue is zero, and the residue is
        the row's image in the quotient space.  An RREF basis row vanishes
        at every other pivot, so eliminating the pivots one after another
        subtracts exactly ``vecs[:, pivots] @ basis``.  Each entry of that
        product sums ``dim`` terms below ``p**2``, well inside int64 for
        ``p <= 2**16``.
        """
        red = vecs % self.p
        free = list(self.free_columns)
        if not self.basis:
            return red[:, free]
        return (red[:, free] - red[:, list(self.pivots)] @ self.array[:, free]) % self.p

    def contains_vector(self, vec: Sequence[int]) -> bool:
        return all(x == 0 for x in self.reduce(vec))

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(self.contains_vector(row) for row in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace.from_vectors(self.p, self.ambient_dim, list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: reduce [[A A],[B 0]]; rows with zero left half carry the intersection."""
        self._check_compatible(other)
        n = self.ambient_dim
        rows = [list(r) + list(r) for r in self.basis]
        rows += [list(r) + [0] * n for r in other.basis]
        red, _ = _rref_rows(rows, self.p)
        vecs = [r[n:] for r in red if all(x == 0 for x in r[:n])]
        return Subspace.from_vectors(self.p, n, vecs)

    def member_chunks(self) -> Iterable[np.ndarray]:
        """All p**dim members, CHUNK_ROWS rows at a time.

        Member i is the combination of the basis rows whose coefficients are
        row i of :func:`all_vectors`, so the order is fixed by the basis.
        """
        for start, stop in row_chunks(self.p ** self.dim):
            yield (all_vectors(self.p, self.dim, start, stop) @ self.array) % self.p


def kernel(m: np.ndarray, p: int) -> Subspace:
    """Left kernel {x : x @ m = 0} over the row convention; dim = rows - rank."""
    nvars = len(m)
    red, pivots = _rref_rows((m.T % p).tolist(), p)
    pivset = set(pivots)
    free = [j for j in range(nvars) if j not in pivset]
    vecs = []
    for f in free:
        v = [0] * nvars
        v[f] = 1
        for row, piv in zip(red, pivots):
            v[piv] = (-row[f]) % p
        vecs.append(v)
    ker = Subspace.from_vectors(p, nvars, vecs)
    if ker.dim + rank(m, p) != nvars:
        raise InternalCheckError("rank-nullity violated in kernel")
    return ker


def express_in_rows(rows: Sequence[Sequence[int]], target: Sequence[int], p: int) -> tuple[int, ...] | None:
    """Solve sum_i x_i * rows[i] = target over GF(p); None if unsolvable."""
    k = len(rows)
    n = len(target)
    if k == 0:
        return () if all(int(t) % p == 0 for t in target) else None
    aug = [[int(rows[i][j]) % p for i in range(k)] + [int(target[j]) % p] for j in range(n)]
    red, pivots = _rref_rows(aug, p)
    x = [0] * k
    for row, piv in zip(red, pivots):
        if piv == k:
            return None
        x[piv] = row[k]
    return tuple(x)


# ---------------------------------------------------------------------------
# Batched kernels (numpy).  Entries are int64 residues in [0, p).
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def inverse_table(p: int) -> np.ndarray:
    """inv[a] = a^-1 mod p for a in [1, p); inv[0] = 0 (never used as a pivot)."""
    inv = np.zeros(p, dtype=np.int64)
    inv[1:] = np.array([pow(a, p - 2, p) for a in range(1, p)], dtype=np.int64)
    return inv


def all_vectors(p: int, dim: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Rows ``start:stop`` of GF(p)^dim listed in lexicographic order.

    Row index i equals the base-p integer with the first coordinate most
    significant, so index order and lexicographic order coincide.  The
    default range is all p**dim rows.
    """
    if stop is None:
        stop = p ** dim
    out = np.empty((stop - start, dim), dtype=np.int64)
    idx = np.arange(start, stop, dtype=np.int64)
    for j in range(dim - 1, -1, -1):
        out[:, j] = idx % p
        idx //= p
    return out


def row_chunks(total: int) -> Iterable[tuple[int, int]]:
    """``(start, stop)`` bounds cutting ``range(total)`` into CHUNK_ROWS pieces."""
    for start in range(0, total, CHUNK_ROWS):
        yield start, min(start + CHUNK_ROWS, total)


def vectors_to_indices(vecs: np.ndarray, p: int) -> np.ndarray:
    """Inverse of all_vectors row indexing."""
    dim = vecs.shape[-1]
    weights = np.array([p ** (dim - 1 - j) for j in range(dim)], dtype=np.int64)
    return vecs @ weights


def _batch_rref(mats: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan on a batch: the reduced row echelon forms and the ranks.

    ``mats`` has shape (N, r, c).  Each reduced matrix keeps its r rows,
    the nonzero ones first, with unit pivots cleared above and below.
    """
    a = np.ascontiguousarray(mats % p).copy()
    n, r, c = a.shape
    if n == 0:
        return a, np.zeros(0, dtype=np.int64)
    inv = inverse_table(p)
    cur = np.zeros(n, dtype=np.int64)
    free = np.ones((n, r), dtype=bool)      # rows not yet holding a pivot
    # row operations keep a column zero that is zero in every member, so
    # only the columns nonzero somewhere in the batch are walked
    for col in np.flatnonzero(a.any(axis=(0, 1))).tolist():
        ok = (a[:, :, col] != 0) & free
        has = ok.any(axis=1)
        count = int(np.count_nonzero(has))
        if not count:
            continue
        # the members with a pivot in this column, in place when that is all
        whole = count == n
        sub = a if whole else a[has]
        piv = ok.argmax(axis=1) if whole else ok.argmax(axis=1)[has]
        cr = cur if whole else cur[has]
        at = np.arange(count)
        pivrows = sub[at, piv]
        sub[at, piv] = sub[at, cr]
        pivrows = pivrows * inv[pivrows[:, col]][:, None] % p
        sub[at, cr] = pivrows
        colv = sub[:, :, col].copy()
        colv[at, cr] = 0
        sub -= colv[:, :, None] * pivrows[:, None, :]
        sub %= p
        if not whole:
            a[has] = sub
        free[np.flatnonzero(has), cr] = False
        cur += has
    return a, cur


def batch_rank(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a batch of matrices over GF(p); mats has shape (N, r, c)."""
    return _batch_rref(mats, p)[1]


def batch_row_spaces(mats: np.ndarray, p: int) -> list[Subspace]:
    """Row spaces of a batch of matrices, from one batched elimination.

    The reduced row echelon form is unique, so each :class:`Subspace` equals
    :meth:`Subspace.from_vectors` on the same rows.
    """
    red, ranks = _batch_rref(mats, p)
    return _subspaces(red, np.zeros_like(ranks), ranks, p)


def _subspaces(red: np.ndarray, starts: np.ndarray, stops: np.ndarray, p: int) -> list[Subspace]:
    """Rows ``starts[n]:stops[n]`` of each reduced matrix ``red[n]``, which
    must be a canonical RREF basis, as :class:`Subspace` objects."""
    pivots = (red != 0).argmax(axis=2)
    return [Subspace(p, red.shape[2], tuple(map(tuple, rows[lo:hi])), tuple(piv[lo:hi]))
            for rows, piv, lo, hi in zip(red.tolist(), pivots.tolist(), starts.tolist(), stops.tolist())]


def batch_kernels(mats: np.ndarray, p: int) -> list[Subspace]:
    """Left kernels {x : x @ mats[n] = 0} of a batch, from one elimination.

    ``mats`` has shape (N, r, c).  Gauss-Jordan on ``[mats[n] | I_r]``
    puts the rank(mats[n]) rows with a pivot left of the bar first; the
    other rows are zero left of the bar, and right of it they are
    independent combinations x with x @ mats[n] = 0, so they span the
    kernel.  Their pivots lie right of the bar and are cleared in every
    other row, so those rows are already the canonical RREF basis that
    :func:`kernel` returns.  As in :func:`kernel`, rank-nullity is checked
    against the rank of the transposes, a different elimination.
    """
    n, r, c = mats.shape
    eye = np.broadcast_to(np.eye(r, dtype=np.int64), (n, r, r))
    red = _batch_rref(np.concatenate([mats, eye], axis=2), p)[0]
    left_ranks = (red[:, :, :c] != 0).any(axis=2).sum(axis=1)
    if not np.array_equal(left_ranks, batch_rank(np.swapaxes(mats, 1, 2), p)):
        raise InternalCheckError("rank-nullity violated in kernel")
    return _subspaces(red[:, :, c:], left_ranks, np.full(n, r), p)


def batch_solve(mats: np.ndarray, targets: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve ``x @ mats[n] = targets[n]`` for row vectors, over a batch.

    ``mats`` has shape (N, r, c) and ``targets`` (N, c).  One elimination
    of the augmented systems ``[mats[n]^T | targets[n]^T]`` gives, per
    system, a solution with the free coordinates set to 0, whether the
    system is consistent (no pivot in the target column), and the rank of
    ``mats[n]``.  Rows of an inconsistent system are left at 0.
    """
    n, r, c = mats.shape
    aug = np.concatenate([np.swapaxes(mats, 1, 2), targets[:, :, None]], axis=2)
    red = _batch_rref(aug, p)[0]
    nonzero = red[:, :, :r] != 0
    pivoted = nonzero.any(axis=2)           # reduced rows with a pivot left of the target
    consistent = ~((red[:, :, r] != 0) & ~pivoted).any(axis=1)
    sol = np.zeros((n, r), dtype=np.int64)
    which, row = np.nonzero(pivoted)
    sol[which, nonzero.argmax(axis=2)[which, row]] = red[which, row, r]
    sol[~consistent] = 0
    return sol, consistent, pivoted.sum(axis=1)


def batch_member_mask(vecs: np.ndarray, space: Subspace) -> np.ndarray:
    """Boolean mask of which rows of ``vecs`` lie in ``space``."""
    return (space.residues(vecs) == 0).all(axis=1)
