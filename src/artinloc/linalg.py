"""Linear algebra over prime fields GF(p).

A matrix is a 2-D int64 numpy array of residues, and a batch of matrices
a 3-D one.  Row-vector convention: vectors are rows and matrices act on
the right, so the image of ``x`` under the map represented by ``m`` is
``x @ m``.  This makes the left and right multiplication maps of an
algebra both plain matrices acting on coefficient rows.

Every Gauss-Jordan elimination is ``_rref`` on a batch of matrices, a
single matrix being a batch of one.  The batch's size alone picks the
strategy: a scalar loop on Python lists (converted once, inside ``_rref``)
for small batches and lone matrices, or a numpy sweep over the columns of
the whole batch.  Either gives one record of arrays, ``_Echelon``, and a
:class:`Subspace` is a read-only int64 RREF array and its pivots copied out
of it.  Ranks (from the rank mode, which clears only below each pivot and
builds no form), row spaces, kernels and solves each exist once, on
batches (:func:`rank`, :func:`kernel` and :meth:`Subspace.from_vectors`
are those on one matrix); one elimination of ``[M | I]`` gives both row
spaces and kernels.  Every reduction modulo a subspace (residues,
membership, containment, the quotient projection) is one matmul by a
block the subspace caches, and intersections are batched.  A member's
coordinates over an RREF basis are its entries at the pivots.  Nothing
here uses floating point.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain
from math import isqrt
from typing import Iterable, NamedTuple, Sequence

import numpy as np

DEFAULT_GUARD = 1 << 20
MAX_PRIME = 1 << 16
# entries per batch: every sweep takes as many rows at a time as fit their
# widest temporaries in this many entries (:func:`row_chunks`), so its peak
# memory follows this budget, not p**dim or dim**2.  On an x86-64 Xeon, 2**17
# holds verify on lower_triangular(37,8) to a traced peak of 12.6 MiB in the
# time of 4,096-row chunks (2.23 s); at 2**16 that verify took 2.50 s, and
# at 2**18 the oracle benchmark's peak RSS rose from 45.1 to 49.4 MB
BATCH_ENTRIES = 1 << 17
# The elimination strategy, by size alone: the scalar loop pays per nonzero
# entry, the numpy sweep ~25 array calls per column.  On one core of an x86-64
# Xeon, the 2,193 eliminations of one pass of each benchmark workload (seed 5)
# took 102.1 ms under these cuts, no more than under other powers of 2 (batch
# cut 512: 102.2 ms, lone cut 2048: 107.5 ms).  Above the lone cut the sweep
# wins on dense matrices (64 x 64: 1.8 against 18.5 ms) and loses on sparse
# ones (66 x 231, 2% nonzero: 3.6 against 0.9 ms), so it is no higher.
SCALAR_BATCH_ENTRIES = 1 << 10
SCALAR_LONE_ENTRIES = 1 << 12


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
    return n > 1 and all(n % f for f in range(2, isqrt(n) + 1))


def check_prime(p: int) -> int:
    # the bound first: trial division of a 30-digit number would not end
    if isinstance(p, int) and p > MAX_PRIME:
        raise InputError(f"prime {p} exceeds the supported bound {MAX_PRIME}")
    if not isinstance(p, int) or not is_prime(p):
        raise InputError(f"{p!r} is not prime")
    return p


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"0 is not invertible mod {p}")
    return pow(a, p - 2, p)


def _rref_rows(rows: list[list[int]], p: int, forward: bool = False) -> list[int]:
    """The scalar strategy of :func:`_rref`: Gauss-Jordan in place on one
    matrix of residues as lists, nonzero rows first; returns the pivots.
    With ``forward`` each pivot clears only the rows below it: row echelon."""
    pivots: list[int] = []
    n = len(rows)
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, n) if rows[i][col]), None)
        if piv is None:
            continue
        row, rows[piv] = rows[piv], rows[r]
        if row[col] != 1:
            inv = inv_mod(row[col], p)
            row = [v * inv % p for v in row]
        rows[r] = row
        for i in range(r + 1 if forward else 0, n):
            f = rows[i][col]
            if f and i != r:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], row)]
        pivots.append(col)
        if r + 1 == n:
            break
    return pivots


def read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, set read-only in place: the arrays that objects cache and hand out."""
    arr.setflags(write=False)
    return arr


def rank(m: np.ndarray, p: int) -> int:
    """Rank of one matrix over GF(p)."""
    return int(batch_rank(m[None], p)[0])


class Subspace:
    """A linear subspace of GF(p)^n held as its canonical RREF basis: the
    read-only ``(dim, ambient_dim)`` int64 ``array`` and the read-only int64
    ``pivots`` of its rows, each owning its memory.

    Two subspaces are equal iff p, ambient_dim and the basis arrays are, so
    equality of spans is equality of arrays; the hash is on the same data
    (the shape too, as an empty basis has no bytes).
    """

    def __init__(self, p: int, ambient_dim: int, array: np.ndarray, pivots: np.ndarray):
        self.p, self.ambient_dim, self.array, self.pivots = p, ambient_dim, read_only(array), read_only(pivots)

    def _key(self) -> tuple:
        return self.p, self.ambient_dim, self.array.shape, self.array.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Subspace(p={self.p}, ambient_dim={self.ambient_dim}, basis={self.basis})"

    @staticmethod
    def from_vectors(p: int, ambient_dim: int, vectors: Iterable[Sequence[int]] | np.ndarray) -> "Subspace":
        """The span of ``vectors``, an int64 array or integer sequences."""
        rows = np.asarray(vectors if isinstance(vectors, np.ndarray) else list(vectors), dtype=np.int64)
        if rows.shape[1:] != (ambient_dim,) and rows.shape != (0,):
            raise InputError("vector length does not match ambient dimension")
        return batch_row_spaces(rows.reshape(1, len(rows), ambient_dim), p)[0]

    @staticmethod
    def zero(p: int, ambient_dim: int) -> "Subspace":
        return Subspace(p, ambient_dim, np.zeros((0, ambient_dim), dtype=np.int64), np.zeros(0, dtype=np.int64))

    @staticmethod
    def full(p: int, ambient_dim: int) -> "Subspace":
        return Subspace(p, ambient_dim, np.eye(ambient_dim, dtype=np.int64), np.arange(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.array)

    @cached_property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        """The basis rows as tuples of Python ints, for the repr and for
        callers outside the package; the package itself reads ``array``."""
        return tuple(map(tuple, self.array.tolist()))

    @property
    def free_columns(self) -> np.ndarray:
        """The non-pivot coordinates, in increasing order, as a read-only int64 view."""
        return read_only(self._reducer[1].view())

    def _check_compatible(self, other: "Subspace") -> None:
        if self.p != other.p:
            raise ModulusMismatch(f"mixed moduli {self.p} and {other.p}")
        if self.ambient_dim != other.ambient_dim:
            raise InputError("ambient dimension mismatch")

    @cached_property
    def _reducer(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pivot and free columns as writable arrays, which ``take`` reads
        without a copy, and the ``(dim, ambient_dim - dim)`` block
        ``-array[:, free] mod p`` of :meth:`residues`."""
        free = np.flatnonzero(np.bincount(self.pivots, minlength=self.ambient_dim) == 0)
        return self.pivots.copy(), free, -self.array[:, free] % self.p

    def residues(self, vecs: np.ndarray) -> np.ndarray:
        """The image of every row of ``vecs`` in the quotient space, read at
        :attr:`free_columns`: the row minus the member that agrees with it at
        the pivots, ``vecs[:, free] - vecs[:, pivots] @ array[:, free]`` (an
        RREF basis row is 1 at its pivot, 0 at the others), so a row is a
        member iff its residue is zero.  One matmul by a block of dim *
        ambient_dim entries; each sums ``dim`` products below ``p**2``."""
        pivots, free, block = self._reducer
        out = vecs.take(pivots, axis=-1) % self.p @ block
        out += vecs.take(free, axis=-1)
        out %= self.p
        return out

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return not self.residues(other.array).any()

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace.from_vectors(self.p, self.ambient_dim, np.concatenate([self.array, other.array]))

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return batch_intersections([self], [other])[0]

    def member_chunks(self) -> Iterable[np.ndarray]:
        """All p**dim members, ambient_dim entries a row: first the isqrt of
        a :func:`row_chunks` step, then twice the last chunk up to a step, so
        a search that ends early builds at most about twice what it reads.

        Member i is the combination of the basis rows whose coefficients are
        row i of :func:`all_vectors`, so the order is fixed by the basis.
        """
        total, step = self.p ** self.dim, _step(self.ambient_dim)
        start, size = 0, isqrt(step)
        while start < total:
            stop = min(start + size, total)
            yield (all_vectors(self.p, self.dim, start, stop) @ self.array) % self.p
            start, size = stop, min(2 * size, step)


def kernel(m: np.ndarray, p: int) -> Subspace:
    """Left kernel {x : x @ m = 0} over the row convention; dim = rows - rank."""
    return batch_kernels(m[None], p)[0]


# ---------------------------------------------------------------------------
# Elimination and its derived operations, on batches.  Entries are int64
# residues in [0, p).
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


def _step(per_row: int) -> int:
    """Rows per piece of :func:`row_chunks`: at least one."""
    return max(1, BATCH_ENTRIES // max(1, per_row))


def row_chunks(total: int, per_row: int) -> Iterable[tuple[int, int]]:
    """``(start, stop)`` bounds cutting ``range(total)`` into runs of at least
    one row whose temporaries, ``per_row`` entries a row, hold at most
    BATCH_ENTRIES entries."""
    step = _step(per_row)
    for start in range(0, total, step):
        yield start, min(start + step, total)


def vectors_to_indices(vecs: np.ndarray, p: int) -> np.ndarray:
    """Inverse of all_vectors row indexing."""
    dim = vecs.shape[-1]
    weights = np.array([p ** (dim - 1 - j) for j in range(dim)], dtype=np.int64)
    return vecs @ weights


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """``x % p`` as ``x - x // p * p``: numpy divides an int64 array by a
    scalar about twice as fast as it takes the remainder."""
    return x - x // p * p


class _Echelon(NamedTuple):
    """The reduced row echelon forms of a batch, ``(N, r, c)``, nonzero rows
    first; their ranks; and the pivot column of each row, ``(N, r)``, c at a
    zero row, so increasing along each form.  The rank mode holds only ranks."""

    array: np.ndarray | None
    ranks: np.ndarray
    pivots: np.ndarray | None


def _sweep(mats: np.ndarray, p: int, forward: bool) -> _Echelon:
    """The numpy strategy of :func:`_rref` on a nonempty batch, one column at
    a time over every member, the batch the last axis.  No row is swapped: a
    pivot is the first nonzero entry among the rows holding none yet, which
    are zero left of it, so only the columns from it rightward are updated.
    Only the column read and the pivot row are reduced mod p; other entries
    gain at most (p - 1)**2 a pivot, staying below c * p**2 + p < 2**63, up
    to one reduction at the end, which sorts the rows by pivot.  ``forward``
    clears only the rows holding no pivot yet, and gives only the ranks."""
    a = _mod(np.ascontiguousarray(mats.transpose(2, 1, 0), dtype=np.int64), p)     # (c, r, N)
    c, r, n = a.shape
    product = np.empty_like(a)
    inv = inverse_table(p)
    at = np.arange(n)
    free = np.ones((r, n), dtype=bool)      # rows not yet holding a pivot
    order = np.full((r, n), c)              # each row's pivot column, c if none
    # row operations keep a column zero that is zero in every member, so
    # only the columns nonzero somewhere in the batch are walked
    for col in np.flatnonzero(a.any(axis=(1, 2))).tolist():
        colv = _mod(a[col], p)
        ok = (colv != 0) & free
        has = ok.any(axis=0)
        if not has.any():
            continue
        piv = ok.argmax(axis=0)
        which, rows = at[has], piv[has]
        free[rows, which] = False
        pivrows = _mod(a[col:, piv, at], p)
        pivrows = _mod(pivrows * inv[pivrows[0]], p)
        # the factors: zero in every row holding a pivot going forward, whose
        # update then skips the rows with no nonzero factor in any member;
        # else zero in the pivot row and in the members with no pivot here
        live = slice(None)
        if forward:
            colv *= free
            found = np.flatnonzero(ok.any(axis=1))
            live = found if len(found) < r else live
        else:
            order[rows, which] = col
            a[col:, rows, which] = pivrows[:, has]
            colv *= has
            colv[rows, which] = 0
        a[col:, live] -= np.multiply(pivrows[:, None], colv[live], out=product[col:, live])
    ranks = r - free.sum(axis=0)
    if forward:
        return _Echelon(None, ranks, None)
    a = _mod(np.take_along_axis(a, order.argsort(axis=0, kind="stable")[None], axis=1), p)
    return _Echelon(a.transpose(2, 1, 0), ranks, np.sort(order, axis=0).T)


def _rref(mats: np.ndarray, p: int, forward: bool = False) -> _Echelon:
    """Gauss-Jordan on a batch of shape (N, r, c), the one elimination of the
    package: the scalar loop, matrix by matrix, up to SCALAR_BATCH_ENTRIES
    entries (SCALAR_LONE_ENTRIES for a lone matrix), else the numpy sweep.
    Its rank mode, ``forward``, clears no row above a pivot: read its ranks."""
    n, r, c = mats.shape
    if n * r * c > (SCALAR_LONE_ENTRIES if n == 1 else SCALAR_BATCH_ENTRIES):
        return _sweep(mats, p, forward)
    rows = (mats % p).tolist()
    pivots = [_rref_rows(m, p, forward) for m in rows]
    ranks = np.array([len(piv) for piv in pivots], dtype=np.int64)
    if forward:
        return _Echelon(None, ranks, None)
    # the loop's lists become arrays here, once: a flat iterator reads faster than nested lists
    forms = np.fromiter(chain.from_iterable(chain.from_iterable(rows)), dtype=np.int64, count=n * r * c)
    return _Echelon(forms.reshape(n, r, c), ranks,
                    np.array([piv + [c] * (r - len(piv)) for piv in pivots], dtype=np.int64).reshape(n, r))


def _subspaces(ech: _Echelon, p: int, bar: int = 0, stop: int | None = None) -> list[Subspace]:
    """Per reduced form, the span of the rows pivoted in columns ``bar`` to
    ``stop``, read there.  These vanish left of the bar and their pivots are
    cleared in every other row, so they are a canonical RREF basis.  Each is
    copied out, so that a kept subspace does not hold on to its batch."""
    stop = ech.array.shape[2] if stop is None else stop
    # the rows pivoted left of each cut, counted only where it is inside
    lo = (ech.pivots < bar).sum(axis=1).tolist() if bar else [0] * len(ech.ranks)
    hi = (ech.pivots < stop).sum(axis=1).tolist() if stop < ech.array.shape[2] else ech.ranks.tolist()
    pivots = ech.pivots - bar if bar else ech.pivots
    return [Subspace(p, stop - bar, ech.array[k, i:j, bar:stop].copy(), pivots[k, i:j].copy())
            for k, (i, j) in enumerate(zip(lo, hi))]


def batch_rank(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a batch of matrices over GF(p); mats has shape (N, r, c)."""
    return _rref(mats, p, forward=True).ranks


def batch_row_spaces(mats: np.ndarray, p: int) -> list[Subspace]:
    """Row spaces of a batch of matrices, from one elimination."""
    return _subspaces(_rref(mats, p), p)


def _kernel_echelon(mats: np.ndarray, p: int) -> _Echelon:
    """Gauss-Jordan on ``[mats[n] | I_r]``: the rows pivoted left of the bar
    are the reduced form of mats[n] there, the others independent x with
    x @ mats[n] = 0 right of it.  Rank-nullity is checked against the ranks
    of the transposes from the rank mode, a different elimination."""
    n, r, c = mats.shape
    ech = _rref(np.concatenate([mats, np.repeat(np.eye(r, dtype=np.int64)[None], n, axis=0)], axis=2), p)
    if (ech.array[:, :, :c].any(axis=2).sum(axis=1) != batch_rank(np.swapaxes(mats, 1, 2), p)).any():
        raise InternalCheckError("rank-nullity violated in kernel")
    return ech


def batch_kernels(mats: np.ndarray, p: int) -> list[Subspace]:
    """Left kernels {x : x @ mats[n] = 0} of a batch, from one elimination."""
    return _subspaces(_kernel_echelon(mats, p), p, mats.shape[2])


def batch_row_spaces_and_kernels(mats: np.ndarray, p: int) -> tuple[list[Subspace], list[Subspace]]:
    """The row spaces and the left kernels of a batch, both from the one
    elimination of :func:`batch_kernels`."""
    ech, c = _kernel_echelon(mats, p), mats.shape[2]
    return _subspaces(ech, p, 0, c), _subspaces(ech, p, c)


def batch_intersections(xs: Sequence[Subspace], ys: Sequence[Subspace]) -> list[Subspace]:
    """``xs[n]`` meet ``ys[n]`` for every pair, by Zassenhaus on one batch:
    reduce [[A A], [B 0]], each block padded with zero rows to the largest
    in the batch; the rows with zero left half carry the intersection."""
    if not xs:
        return []
    p, n = xs[0].p, xs[0].ambient_dim
    k, m = max(x.dim for x in xs), max(y.dim for y in ys)
    zassenhaus = np.zeros((len(xs), k + m, 2 * n), dtype=np.int64)
    for z, x, y in zip(zassenhaus, xs, ys):
        z[:x.dim, :n] = z[:x.dim, n:] = x.array
        z[k:k + y.dim, :n] = y.array
    return _subspaces(_rref(zassenhaus, p), p, n)


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
    ech = _rref(aug, p)
    pivoted = ech.pivots < r         # reduced rows with a pivot left of the target
    consistent = ~(ech.pivots == r).any(axis=1)
    sol = np.zeros((n, r), dtype=np.int64)
    which, row = np.nonzero(pivoted)
    sol[which, ech.pivots[which, row]] = ech.array[which, row, r]
    sol[~consistent] = 0
    return sol, consistent, pivoted.sum(axis=1)


def batch_member_mask(vecs: np.ndarray, space: Subspace) -> np.ndarray:
    """Boolean mask of which rows of ``vecs`` lie in ``space``: those with a
    zero residue."""
    return (space.residues(vecs) == 0).all(axis=1)
