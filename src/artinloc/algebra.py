"""Finite-dimensional associative unital algebras over GF(p).

An :class:`Algebra` is given by structure constants: ``np_table[i, j]``,
a C-contiguous int64 array, holds the coefficient vector of ``b_i * b_j``.
Every constructor writes it by array assignment or contraction, and a
subalgebra's table is its RREF basis products read at the basis pivots.
Products and powers have one path, the batch kernels on that array:
``Element * Element`` is row 0 of :meth:`Algebra.batch_mul` and
``Element ** n`` row 0 of :meth:`Algebra.batch_pow`, the one
square-and-multiply loop on elements.  Every constructor checks that ``p``
is prime and the global precondition ``p > dim`` (required by the trace
form radical criterion downstream, and enforced here to fail fast).  Only
raw structure constants (:class:`Algebra`) and :func:`matrix_subalgebra`
validate associativity on all basis triples and the two unit laws:
``lower_triangular``, ``upper_triangular``, ``full_matrix``,
``truncated_poly``, the ``direct_product`` and ``opposite_algebra`` of built
algebras, quotients and centers are algebras by theorem and skip it
(:meth:`Algebra._derived`); ``verify`` validates its input and rebuilds them.

The associativity and unit checks contract the table in float64, through
BLAS, and are exact: every entry is a residue below ``p <= MAX_PRIME =
2**16`` and ``dim < p``, so each sum has fewer than ``2**16`` terms below
``2**32`` and stays under ``2**48 < 2**53``, where float64 holds every
integer.  The sums are then reduced mod ``p`` as int64.

Every constructor documents its basis order, because all reports built on
top of an algebra must be byte-reproducible:

* ``lower_triangular(p, n)`` / ``upper_triangular(p, n)`` / ``full_matrix(p, n)``
  use the matrix units ``E_ij`` of the shape, ordered lexicographically by
  ``(i, j)`` with 1-based indices; e.g. lower triangular 2x2 has basis
  ``(E_11, E_21, E_22)``.
* ``truncated_poly(p, k)`` is GF(p)[x]/(x^k) with basis ``1, x, ..., x^(k-1)``.
* ``direct_product`` concatenates the factors' bases block by block.
* ``opposite_algebra`` keeps the basis and transposes the table.
* ``matrix_subalgebra`` closes the unital span of generator matrices under
  multiplication; its basis is the canonical RREF basis of the closed span
  of flattened (row-major) matrices.

Algebras, elements and ideals are immutable after construction and all
operations are pure functions; concurrent reads are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .linalg import (
    InputError,
    InternalCheckError,
    ModulusMismatch,
    ResourceGuardError,
    Subspace,
    all_vectors,
    batch_member_mask,
    batch_rank,
    batch_solve,
    check_guard,
    check_prime,
    read_only,
    row_chunks,
)

MAX_CLOSURE_DIM = 64
MAX_AMBIENT_ENTRIES = 1 << 17  # of matrix_subalgebra's M_n, before any allocation: n <= 362


class Algebra:
    """Associative unital algebra over GF(p) given by structure constants."""

    def __init__(self, p: int, table: Sequence[Sequence[Sequence[int]]],
                 one: Sequence[int], label: str = "A",
                 matrix_model: tuple[int, np.ndarray] | None = None):
        dim = len(table)
        _check_size(p, dim)
        # C order even for a transposed view, so the reshapes of the batch
        # kernels stay views of the stored table
        tab = np.array(table, dtype=np.int64, order="C") % p
        if tab.shape != (dim, dim, dim):
            raise InputError(f"structure constant table must be {dim}x{dim}x{dim}")
        one_vec = np.array([int(v) % p for v in one], dtype=np.int64)
        if one_vec.shape != (dim,):
            raise InputError("identity vector length does not match dim")
        self._store(p, tab, one_vec, label, matrix_model)
        self._validate()
        self._cache["validated"] = True

    @classmethod
    def _derived(cls, p: int, table: np.ndarray, one: Sequence[int], label: str,
                 matrix_model=None) -> "Algebra":
        """An algebra on an int64 table of residues that is associative and
        unital by theorem (a named constructor, a product or opposite of
        algebras, a quotient, the center), without ``_validate``."""
        alg = cls.__new__(cls)
        alg._store(p, np.ascontiguousarray(table), one, label, matrix_model)
        return alg

    def _store(self, p: int, tab: np.ndarray, one: np.ndarray, label: str, matrix_model) -> None:
        self.p = p
        self.dim = len(tab)
        self.label = label
        tab.flags.writeable = False
        self.np_table = tab
        self.one_coeffs = tuple(int(v) for v in one)
        self.matrix_model = matrix_model
        self._cache: dict = {}

    def _validate(self) -> None:
        # The three contractions run as float64 matmuls (BLAS) and are exact:
        # entries are residues below p <= MAX_PRIME = 2**16 and dim < p, so
        # every sum has fewer than 2**16 terms below 2**32 and stays under
        # 2**48 < 2**53.  The sums are cast back to int64 before the one
        # reduction of lhs - rhs, as float % costs far more than int64 %.
        p, d = self.p, self.dim
        t = self.np_table.astype(np.float64)
        one = np.array(self.one_coeffs, dtype=np.float64)
        eye = np.eye(d, dtype=np.int64)
        if (((one @ t.reshape(d, d * d)).reshape(d, d).astype(np.int64) - eye) % p).any():
            raise InputError("identity fails one*b_i = b_i")
        if (((one @ t).astype(np.int64) - eye) % p).any():
            raise InputError("identity fails b_i*one = b_i")
        # (b_i b_j) b_k = b_i (b_j b_k) for a run of first indices i at a
        # time: two matmuls, with temporaries of d**3 entries per index.
        # Running them does not bear on exactness: each float64 entry is one
        # sum of dim < p products of residues, below 2**48 for p <= MAX_PRIME
        flat = t.reshape(d * d, d)
        for start, stop in row_chunks(d, d ** 3):
            rows = t[start:stop]
            lhs = (rows.reshape(-1, d) @ t.reshape(d, d * d)).reshape(len(rows), -1)
            lhs -= (flat @ rows).reshape(len(rows), -1)
            bad = (lhs.astype(np.int64) % p).any(axis=1)
            if bad.any():
                i = start + int(np.argmax(bad))
                raise InputError(f"associativity fails on basis triples with first index {i}")

    @cached_property
    def table(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The structure constants as nested tuples, built on first use.

        Nothing in this package reads it: every product is a batch kernel
        on ``np_table``.  It stays for callers that index the constants as
        Python ints, such as the ``decide`` judge of the benchmark."""
        return tuple(tuple(map(tuple, plane)) for plane in self.np_table.tolist())

    # -- element plumbing ---------------------------------------------------

    def element(self, coeffs: Sequence[int]) -> "Element":
        v = tuple(int(c) % self.p for c in coeffs)
        if len(v) != self.dim:
            raise InputError(f"coefficient vector length {len(v)} != dim {self.dim}")
        return Element(self, v)

    def member_rows(self, xs: Sequence["Element"]) -> np.ndarray:
        """The coefficient rows of ``xs``, refusing an element of another
        algebra, even one of the same dimension."""
        if any(x.algebra is not self for x in xs):
            raise InputError("element does not belong to the algebra")
        return np.array([x.coeffs for x in xs], dtype=np.int64).reshape(len(xs), self.dim)

    @property
    def one(self) -> "Element":
        return Element(self, self.one_coeffs)

    @property
    def zero(self) -> "Element":
        return Element(self, (0,) * self.dim)

    def from_matrix(self, literal: Sequence[Sequence[int]]) -> "Element":
        """Desugar an ambient-matrix literal for matrix-modelled algebras."""
        if self.matrix_model is None:
            raise InputError(f"{self.label} has no matrix model; pass a coefficient vector")
        n, basis_mats = self.matrix_model
        if len(literal) != n or any(len(row) != n for row in literal):
            raise InputError(f"matrix literal must be {n}x{n}")
        flat = np.array([[int(v) % self.p for row in literal for v in row]], dtype=np.int64)
        coeffs, ok, _ = batch_solve(basis_mats.reshape(1, -1, n * n), flat, self.p)
        if not ok[0]:
            raise InputError("matrix literal is not in the algebra")
        return self.element(coeffs[0].tolist())

    # -- bulk kernels (numpy) ----------------------------------------------

    def enumerate_coeffs(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Coefficient vectors ``start:stop`` in canonical (lexicographic) order.

        The default range is all p**dim of them.  Nothing is cached: sweeps
        take the enumeration a chunk at a time (:func:`row_chunks`).
        """
        return all_vectors(self.p, self.dim, start, stop)

    def element_chunks(self, guard: int) -> Iterator[np.ndarray]:
        """Every element's coefficient row, in canonical order, one
        :func:`row_chunks` piece (dim**2 entries a row) at a time: the guarded
        sweep of the ring.  A guard below 1, and then a ring of more than
        ``guard`` elements, is refused at the call, before any chunk is built."""
        check_guard(guard)
        total = self.p ** self.dim
        if total > guard:
            raise ResourceGuardError(f"{total} elements exceed the guard {guard}", total, guard)
        return (self.enumerate_coeffs(start, stop) for start, stop in row_chunks(total, self.dim ** 2))

    # The batch kernels take rows of residues.  Each is a plain matmul
    # against the table flattened to (dim, dim*dim): a sum of dim terms below
    # p**2, reduced mod p after every stage.

    def batch_mul(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return (ys[:, None, :] @ self.batch_left_matrices(xs))[:, 0, :] % self.p

    def batch_mul_left(self, x: Sequence[int], ys: np.ndarray) -> np.ndarray:
        """x * y for fixed x over a batch of y."""
        return ys @ self.batch_left_matrices(np.array([x], dtype=np.int64))[0] % self.p

    def pair_products(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """x*y for every row x of xs and row y of ys, shape (len(xs), len(ys), dim).

        Two stages, as one three-operand contraction would cost O(dim**5).
        """
        return ys @ self.batch_left_matrices(xs) % self.p

    def batch_left_matrices(self, xs: np.ndarray) -> np.ndarray:
        """Matrices of y -> x*y acting on coefficient rows, one per batch row."""
        d = self.dim
        return (xs @ self.np_table.reshape(d, d * d)).reshape(-1, d, d) % self.p

    def batch_right_matrices(self, xs: np.ndarray) -> np.ndarray:
        """Matrices of y -> y*x acting on coefficient rows, one per batch row."""
        d = self.dim
        # row j of the flattened table holds b_i * b_j for every i
        return (xs @ self.np_table.transpose(1, 0, 2).reshape(d, d * d)).reshape(-1, d, d) % self.p

    def batch_unit_mask(self, xs: np.ndarray) -> np.ndarray:
        return batch_rank(self.batch_left_matrices(xs), self.p) == self.dim

    def batch_central_mask(self, xs: np.ndarray) -> np.ndarray:
        """Whether x*y = y*x for every y, for each row x of ``xs``: the left
        and right multiplications by x agree."""
        return (self.batch_left_matrices(xs) == self.batch_right_matrices(xs)).all(axis=(1, 2))

    def batch_pow(self, xs: np.ndarray, n: int) -> np.ndarray:
        """x**n for every row x of ``xs``, by square-and-multiply on
        :meth:`batch_mul`; ``out`` starts at the lowest set bit of n, and
        n = 0 gives a row of 1 per row."""
        xs = xs % self.p
        out = None
        while n:
            if n & 1:
                out = xs if out is None else self.batch_mul(out, xs)
            n >>= 1
            if n:
                xs = self.batch_mul(xs, xs)
        if out is None:
            return np.tile(np.array(self.one_coeffs, dtype=np.int64), (len(xs), 1))
        return out

    def batch_nilpotent_mask(self, xs: np.ndarray) -> np.ndarray:
        """x**(2**k) = 0 with 2**k >= dim, the nilpotency index bound."""
        k = (self.dim - 1).bit_length()
        return ~self.batch_pow(xs, 2 ** max(k, 1)).any(axis=1)

    def __repr__(self) -> str:
        return f"Algebra({self.label}, p={self.p}, dim={self.dim})"


class Element:
    """An algebra element held as its coefficient row over the canonical basis."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: Algebra, coeffs: tuple[int, ...]):
        self.algebra = algebra
        self.coeffs = coeffs

    def _check(self, other: "Element") -> None:
        if self.algebra is not other.algebra:
            raise ModulusMismatch("elements of different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        p = self.algebra.p
        return Element(self.algebra, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        p = self.algebra.p
        return Element(self.algebra, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Element":
        p = self.algebra.p
        return Element(self.algebra, tuple((-a) % p for a in self.coeffs))

    def _row(self) -> np.ndarray:
        return np.array([self.coeffs], dtype=np.int64)

    def __mul__(self, other):
        a = self.algebra
        if isinstance(other, Element):
            self._check(other)
            return Element(a, tuple(a.batch_mul(self._row(), other._row())[0].tolist()))
        c = int(other) % a.p
        return Element(a, tuple((c * v) % a.p for v in self.coeffs))

    # only a scalar reaches __rmul__, and scalars commute
    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Element":
        if n < 0:
            raise InputError("negative powers: invert explicitly")
        return Element(self.algebra, tuple(self.algebra.batch_pow(self._row(), n)[0].tolist()))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Element) and self.algebra is other.algebra
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((id(self.algebra), self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self) -> str:
        return f"El{list(self.coeffs)}"


@dataclass(frozen=True)
class Ideal:
    """A one- or two-sided ideal held as a canonical subspace.

    Closure under the declared side's basis multiplication is checked at
    construction, except on the private path :meth:`_derived` for ideals
    closed by theorem, which the ``verify`` battery rebuilds.  The check is
    one batched pass: every product ``b_i * v`` (left) and ``v * b_i``
    (right) of a basis element ``b_i`` with a basis vector ``v`` of the
    space comes from one contraction with the structure constants, and all
    of them are reduced against the RREF basis together.  A failure names
    the side of the first failing ``(v, b_i)`` pair, left before right.
    :attr:`quotient`, R/I for a proper two-sided ideal, is built on first
    use and then kept.
    """

    algebra: Algebra
    space: Subspace
    side: str  # "left" | "right" | "twosided"

    def __post_init__(self) -> None:
        if self.side not in ("left", "right", "twosided"):
            raise InputError(f"bad ideal side {self.side!r}")
        a, sp = self.algebra, self.space
        if sp.ambient_dim != a.dim or sp.p != a.p:
            raise InputError("ideal subspace does not match its algebra")
        if sp.dim == 0:
            return
        member = batch_member_mask(_side_products(a, sp.array, self.side), sp)
        if not member.all():
            sides = ["left", "right"] if self.side == "twosided" else [self.side]
            side = sides[int(np.argmin(member)) % len(sides)]
            raise InputError(f"subspace is not closed under {side} multiplication")

    @classmethod
    def _derived(cls, a: Algebra, space: Subspace, side: str) -> "Ideal":
        """An ideal closed by theorem, without the closure check: a sum, meet
        or product of ideals, or (1 - e)R for e tested triangular or central."""
        ideal = cls.__new__(cls)
        ideal.__dict__.update(algebra=a, space=space, side=side)
        return ideal

    @property
    def dim(self) -> int:
        return self.space.dim

    @cached_property
    def quotient(self) -> Quotient:
        return quotient_algebra(self.algebra, self)

    def is_zero(self) -> bool:
        return self.space.dim == 0

    def __repr__(self) -> str:
        return f"Ideal(side={self.side}, dim={self.dim})"


def _side_products(a: Algebra, vecs: np.ndarray, side: str) -> np.ndarray:
    """b_i * v on the left and v * b_i on the right, as ``side`` asks, over
    every row v of ``vecs`` and basis element b_i, as rows ordered (v, b_i,
    left before right): the order of the definitional loop."""
    spec = {"left": "vj,ijl->vil", "right": "vj,jil->vil"}
    products = [np.einsum(spec[one], vecs, a.np_table) for one in spec if side in (one, "twosided")]
    return np.stack(products, axis=2).reshape(-1, a.dim) % a.p


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def _check_size(p: int, dim: int) -> None:
    """The preconditions of every algebra: ``p`` a supported prime, ``0 < dim < p``."""
    check_prime(p)
    if dim == 0:
        raise InputError("algebra dimension must be positive")
    if p <= dim:
        raise InputError(f"p = {p} must exceed dim = {dim}")


def _matrix_unit_algebra(p: int, n: int, dim: int, part, label: str) -> Algebra:
    """The ``dim`` matrix units E_ij that ``part`` (np.tril, np.triu or
    np.asarray) keeps of an n x n mask, lex by (i, j): E_ij E_jl = E_il.
    ``dim`` comes from the caller so that p > dim is checked before the mask."""
    if n < 1:
        raise InputError("n must be positive")
    _check_size(p, dim)
    i, j = np.nonzero(part(np.ones((n, n), dtype=bool)))
    index = np.zeros((n, n), dtype=np.int64)
    index[i, j] = np.arange(dim)
    # every product of two kept units is kept: the three shapes are closed
    k1, k2 = np.nonzero(j[:, None] == i[None, :])
    table = np.zeros((dim, dim, dim), dtype=np.int64)
    table[k1, k2, index[i[k1], j[k2]]] = 1
    mats = np.zeros((dim, n, n), dtype=np.int64)
    mats[np.arange(dim), i, j] = 1
    return Algebra._derived(p, table, (i == j).astype(np.int64), label, (n, read_only(mats)))


def lower_triangular(p: int, n: int) -> Algebra:
    """Lower triangular n x n matrices; basis E_ij (i >= j) lex by (i, j)."""
    return _matrix_unit_algebra(p, n, n * (n + 1) // 2, np.tril, f"L{n}(GF({p}))")


def upper_triangular(p: int, n: int) -> Algebra:
    """Upper triangular n x n matrices; basis E_ij (i <= j) lex by (i, j)."""
    return _matrix_unit_algebra(p, n, n * (n + 1) // 2, np.triu, f"U{n}(GF({p}))")


def full_matrix(p: int, n: int) -> Algebra:
    """Full n x n matrix algebra; basis E_ij lex by (i, j)."""
    label = f"M{n}(GF({p}))" if n > 1 else f"GF({p})"
    return _matrix_unit_algebra(p, n, n * n, np.asarray, label)


def truncated_poly(p: int, k: int) -> Algebra:
    """GF(p)[x]/(x^k); basis 1, x, ..., x^(k-1)."""
    if k < 1:
        raise InputError("k must be positive")
    _check_size(p, k)
    table = np.zeros((k, k, k), dtype=np.int64)
    i, j = np.nonzero(np.add.outer(np.arange(k), np.arange(k)) < k)
    table[i, j, i + j] = 1
    one = [1] + [0] * (k - 1)
    return Algebra._derived(p, table, one, f"GF({p})[x]/(x^{k})")


def direct_product(factors: Sequence[Algebra]) -> tuple[Algebra, list[tuple[int, int]]]:
    """Direct product; basis is the concatenation of the factors' bases.

    Returns the product and the coordinate range of each factor block.
    """
    if not factors:
        raise InputError("empty product")
    p = factors[0].p
    for f in factors:
        if f.p != p:
            raise ModulusMismatch("direct product factors over different primes")
    dim = sum(f.dim for f in factors)
    _check_size(p, dim)
    table = np.zeros((dim, dim, dim), dtype=np.int64)
    one = np.zeros(dim, dtype=np.int64)
    embeddings: list[tuple[int, int]] = []
    lo = 0
    for f in factors:
        hi = lo + f.dim
        embeddings.append((lo, hi))
        table[lo:hi, lo:hi, lo:hi] = f.np_table
        one[lo:hi] = f.one_coeffs
        lo = hi
    label = " x ".join(f.label for f in factors)
    return Algebra._derived(p, table, one, label), embeddings


def opposite_algebra(a: Algebra) -> Algebra:
    """Same basis, transposed multiplication: mul_op(i, j) = mul(j, i)."""
    return Algebra._derived(a.p, a.np_table.transpose(1, 0, 2), a.one_coeffs, f"op({a.label})",
                            a.matrix_model)


def matrix_subalgebra(p: int, n: int, generators: Sequence[Sequence[Sequence[int]]]) -> Algebra:
    """Unital span of the generator matrices closed under multiplication.

    The basis is the canonical RREF basis of the closed span of row-major
    flattened matrices inside M_n(GF(p)).  Closure beyond MAX_CLOSURE_DIM
    dimensions is rejected so downstream enumerations stay tractable, and
    n**2 > MAX_AMBIENT_ENTRIES before anything is built.
    """
    check_prime(p)
    if n < 1:
        raise InputError("ambient size must be positive")
    if any(len(g) != n or any(len(row) != n for row in g) for g in generators):
        raise InputError(f"generator must be {n}x{n}")
    amb = n * n
    if amb > MAX_AMBIENT_ENTRIES:
        raise InputError(f"ambient_n = {n} gives {amb} matrix entries, above the bound {MAX_AMBIENT_ENTRIES}")
    eye = np.eye(n, dtype=np.int64).reshape(1, amb)
    gens = np.array(generators, dtype=np.int64).reshape(len(generators), amb) % p
    span = Subspace.from_vectors(p, amb, np.concatenate([eye, gens]))
    bound = min(MAX_CLOSURE_DIM, amb)
    while True:
        # every span, the first included, before its products are formed
        if span.dim > bound:
            raise InputError(f"closure exceeded the {bound}-dimensional bound")
        mats = span.array.reshape(-1, n, n)
        # u @ v for every ordered pair (u, v) of basis matrices, row-major
        products = (mats[:, None] @ mats[None, :] % p).reshape(-1, amb)
        bigger = Subspace.from_vectors(p, amb, np.concatenate([span.array, products]))
        if bigger.dim == span.dim:
            break
        span = bigger
    if not batch_member_mask(products, span).all():
        raise InternalCheckError("closure is not multiplicatively closed")
    if not batch_member_mask(eye, span).all():
        raise InternalCheckError("identity left the closed span")
    # a member's coordinates over an RREF basis are its entries at the pivots
    dim = span.dim
    table = products.reshape(dim, dim, amb)[..., span.pivots]
    return Algebra(p, table, eye[0, span.pivots], f"subalg({n}x{n}, dim {dim}, GF({p}))",
                   matrix_model=(n, span.array.reshape(dim, n, n)))


def build_algebra(desc: dict) -> Algebra:
    """Build an algebra from a neutral description dictionary.

    The description mirrors the CLI JSON schema: ``{"scalar": {"prime": p},
    "kind": "constructor" | "structure_constants", ...}``.  Nested
    descriptions (product factors, opposite inner) may omit "scalar" and
    inherit the outer prime.
    """
    if not isinstance(desc, dict):
        raise InputError("algebra description must be an object")
    scalar = desc.get("scalar")
    if not isinstance(scalar, dict) or "prime" not in scalar:
        raise InputError('description must carry {"scalar": {"prime": p}}')
    p = _int_param(scalar, "prime")
    check_prime(p)
    return _build_with_prime(desc, p)


def _build_with_prime(desc: dict, p: int) -> Algebra:
    kind = desc.get("kind")
    if kind == "structure_constants":
        for key in ("dim", "one", "mul_table"):
            if key not in desc:
                raise InputError(f"structure_constants description missing {key!r}")
        dim = _int_param(desc, "dim")
        table = _residues(desc["mul_table"], 3, p, "mul_table")
        # checked on the lists, as numpy rejects a ragged table in its own words
        if len(table) != dim or any(len(plane) != dim or any(len(row) != dim for row in plane)
                                    for plane in table):
            raise InputError(f"'mul_table' must be {dim}x{dim}x{dim}")
        one = _residues(desc["one"], 1, p, "one")
        return Algebra(p, table, one, desc.get("label", f"A(dim {dim}, GF({p}))"))
    if kind != "constructor":
        raise InputError(f"unknown description kind {kind!r}")
    name = desc.get("name")
    if name == "lower_triangular":
        return lower_triangular(p, _int_param(desc, "n"))
    if name == "upper_triangular":
        return upper_triangular(p, _int_param(desc, "n"))
    if name == "full_matrix":
        return full_matrix(p, _int_param(desc, "n"))
    if name == "truncated_poly":
        return truncated_poly(p, _int_param(desc, "k"))
    if name == "product":
        factors = desc.get("factors")
        if not isinstance(factors, list) or not factors:
            raise InputError("product needs a non-empty factors list")
        built = [_build_nested(f, p) for f in factors]
        return direct_product(built)[0]
    if name == "opposite":
        inner = desc.get("inner")
        if not isinstance(inner, dict):
            raise InputError("opposite needs an inner description")
        return opposite_algebra(_build_nested(inner, p))
    if name == "matrix_subalgebra":
        gens = desc.get("generators")
        if not isinstance(gens, list):
            raise InputError("matrix_subalgebra needs a generators list")
        return matrix_subalgebra(p, _int_param(desc, "ambient_n"), _residues(gens, 3, p, "generators"))
    raise InputError(f"unknown constructor {name!r}")


def _build_nested(desc: dict, p: int) -> Algebra:
    if not isinstance(desc, dict):
        raise InputError("nested description must be an object")
    if "scalar" in desc:
        scalar = desc["scalar"]
        if not isinstance(scalar, dict):
            raise InputError('nested "scalar" must be an object {"prime": p}')
        if _int_param(scalar, "prime") != p:
            raise InputError("nested description changes the prime")
    return _build_with_prime(desc, p)


def _residues(value, depth: int, p: int, key: str):
    """``value``, lists nested ``depth`` deep of JSON integers of any size, mod p;
    booleans, floats and strings are rejected rather than converted."""
    if depth:
        if not isinstance(value, list):
            raise InputError(f"{key!r} must be nested {depth} deep in arrays")
        return [_residues(v, depth - 1, p, key) for v in value]
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{key!r} holds {value!r}, which is not an integer")
    return value % p


def _int_param(desc: dict, key: str) -> int:
    v = desc.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise InputError(f"parameter {key!r} must be an integer")
    return v


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def regular_matrix(a: Algebra, x: Element, side: str) -> np.ndarray:
    """Matrix of y -> x*y (side="left") or y -> y*x (side="right") on rows.

    It is row 0 of :meth:`Algebra.batch_left_matrices` or
    :meth:`Algebra.batch_right_matrices`.  With rows acting on the right,
    composition reverses for the left maps: regular_matrix(x, left) @
    regular_matrix(y, left) equals regular_matrix(y*x, left), while the
    right maps compose covariantly.
    """
    if x.algebra is not a:
        raise InputError("element does not belong to the algebra")
    if side == "left":
        build = a.batch_left_matrices
    elif side == "right":
        build = a.batch_right_matrices
    else:
        raise InputError(f"bad side {side!r}")
    return build(np.array([x.coeffs], dtype=np.int64))[0]


def ideal_combine(x: Ideal, y: Ideal, op: str) -> Ideal:
    """Product, intersection or sum of ideals (product needs two-sided operands)."""
    if x.algebra is not y.algebra:
        raise InputError("ideals of different algebras")
    a = x.algebra
    if op == "product":
        if x.side != "twosided" or y.side != "twosided":
            raise InputError("ideal product requires two-sided operands")
        products = a.pair_products(x.space.array, y.space.array).reshape(-1, a.dim)
        # RREF is canonical, so zero and repeated rows (adjacent once sorted) can go first
        rows = products[products.any(axis=1)]
        rows = rows[np.lexsort(rows.T)]
        rows = rows[np.diff(rows, axis=0, prepend=-1).any(axis=1)]
        return Ideal._derived(a, Subspace.from_vectors(a.p, a.dim, rows), "twosided")
    if x.side != y.side:
        raise InputError("ideal sum/intersection requires matching sides")
    if op == "intersection":
        return Ideal._derived(a, x.space.intersect(y.space), x.side)
    if op == "sum":
        return Ideal._derived(a, x.space.sum(y.space), x.side)
    raise InputError(f"bad ideal operation {op!r}")


def check_nilpotent(ideal: Ideal, message: str) -> None:
    """Raise ``message`` unless the two-sided ``ideal`` J is nilpotent: the
    chain J, J^2, ... reaches 0 within dim + 1 steps."""
    power = ideal
    for _ in range(ideal.algebra.dim):
        if power.dim == 0:
            break
        power = ideal_combine(power, ideal, "product")
    if power.dim != 0:
        raise InternalCheckError(message)


@dataclass(frozen=True, eq=False)
class Quotient:
    """Quotient algebra with its projection, an algebra map: the residues
    modulo the ideal (:meth:`Subspace.residues`, one matmul) of coefficient
    rows.  ``keep`` holds the parent coordinates of the quotient basis, so
    the linear section of a quotient row q is the parent row that is q at
    ``keep`` and 0 elsewhere, and projects back to q.
    """

    algebra: Algebra
    parent: Algebra
    ideal: Ideal
    keep: np.ndarray   # int64, the free columns of the ideal's basis

    def batch_project(self, coeffs: np.ndarray) -> np.ndarray:
        return self.ideal.space.residues(coeffs)


def quotient_algebra(a: Algebra, ideal: Ideal) -> Quotient:
    """Quotient by a proper two-sided ideal on the pivot-complement basis.

    The quotient basis is the image of the basis vectors ``b_j`` of R whose
    index ``j`` is not a pivot of the ideal's RREF basis, and the section
    sends quotient basis vector ``t`` to ``b_keep[t]``.  So the quotient's
    structure constants are the rows ``table[keep][:, keep]`` of R, reduced
    by the ideal basis and read at the kept coordinates, which is
    :meth:`Quotient.batch_project` on those rows.  A quotient by a two-sided
    ideal is associative and unital by theorem, so the table is not
    re-validated here (:meth:`Algebra._derived`); ``verify`` rebuilds it.
    R/0 is R itself, with the identity projection; no table is built.
    """
    if ideal.algebra is not a:
        raise InputError("ideal does not belong to the algebra")
    if ideal.side != "twosided":
        raise InputError("quotient requires a two-sided ideal")
    if ideal.dim == a.dim:
        raise InputError("cannot quotient by the whole algebra")
    keep = ideal.space.free_columns
    if ideal.dim == 0:
        return Quotient(a, a, ideal, keep)
    qdim = len(keep)
    sections = a.np_table[np.ix_(keep, keep)].reshape(-1, a.dim)
    table = ideal.space.residues(sections).reshape(qdim, qdim, qdim)
    one_q = ideal.space.residues(np.array([a.one_coeffs], dtype=np.int64))[0]
    q = Algebra._derived(a.p, table, one_q, f"{a.label}/(dim {ideal.dim} ideal)")
    return Quotient(q, a, ideal, keep)
