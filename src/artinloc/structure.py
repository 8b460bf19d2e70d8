"""Structure theory feeding the localization layer.

Provides the Jacobson radical (as the kernel of the trace bilinear form of
the regular representation, valid because every algebra here enforces
p > dim), the primitive central idempotents of an algebra (one Frobenius
splitter, run on R/J for the blocks and on R for the two-sided factors),
the block decomposition of the semisimple quotient, and a family of
orthogonal idempotents of the algebra lifting the blocks' central
identities.

Each fact is computed once per algebra: the radical and R/J are cached
and the block decomposition reuses them (a semisimple algebra is its own
quotient), and the lifted family is checked by one table of pairwise
products.  The radical is built by theorem, with no check of its own;
``verify`` re-proves it (:func:`radical`).

Every idempotent comes from one batched power, :meth:`Algebra.batch_pow`,
the square-and-multiply loop shared with ``Element ** n``: the
Frobenius-fixed space F of the center, the equal-degree split of F (by
f^((p-1)/2) for seeded random f in F, at a cost independent of p), and the
lifts, each the p-th power of c x c for a section x in the corner c of the
previous lifts (x = e + n, n nilpotent of index at most dim < p in the
commutative GF(p)[x], so x^p = e).  Everything is deterministic: primitive
idempotents are unique, whatever the draws, and ordered by the pivot of
their coefficient vectors; an idempotent lift in a commutative algebra is
unique, so each lift is the limit of Newton's iteration x -> 3x^2 - 2x^3
in that corner.  The lifted family is canonical for this pipeline.
Conjugate lifts would give conjugate families; conjugation-independence of
downstream reports is documented, not verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from random import Random

import numpy as np

from .algebra import Algebra, Element, Ideal, Quotient, quotient_algebra
from .linalg import InternalCheckError, Subspace, batch_row_spaces, kernel, read_only

__all__ = ["IdempotentFamily", "radical", "primitive_idempotents", "block_decomposition",
           "ideal_block_support", "check_orthogonal_idempotents"]


def radical(a: Algebra) -> Ideal:
    """Jacobson radical as the kernel of (x, y) -> trace of left multiplication by x*y.

    The criterion needs p > dim, which Algebra construction guarantees; by
    theorem the kernel is then a nilpotent two-sided ideal, built unchecked
    once per algebra.  Postconditions checked only by ``verify``'s
    ``radical_crosscheck``: closure, nilpotency, and a zero radical of R/J.
    """
    if "radical" not in a._cache:
        a._cache["radical"] = Ideal._derived(a, _trace_form_kernel(a), "twosided")
    return a._cache["radical"]


def _radical_quotient(a: Algebra) -> tuple[Ideal, Quotient]:
    """The radical J and R/J, built once per algebra; R/0 is R itself
    (:func:`quotient_algebra`).  A radical holding 1 is a fault of the
    program, not of the input, so it raises InternalCheckError (exit 3)."""
    if "radical_quotient" not in a._cache:
        rad = radical(a)
        if rad.dim == a.dim:
            raise InternalCheckError("the radical cannot be the whole algebra")
        a._cache["radical_quotient"] = (rad, quotient_algebra(a, rad))
    return a._cache["radical_quotient"]


def _trace_form_kernel(a: Algebra) -> Subspace:
    """Kernel of the Gram matrix (b_i, b_j) -> trace of left multiplication by b_i*b_j.

    Left multiplication by b_k has entry (j, l) equal to table[k, j, l], so
    its trace is the sum of table[k, j, j] over j.
    """
    traces = np.einsum("kjj->k", a.np_table) % a.p
    return kernel(a.np_table @ traces % a.p, a.p)


@dataclass(frozen=True)
class IdempotentFamily:
    """Orthogonal idempotents 1 = sum(1_i) lifting the semisimple blocks.

    block_dims[i] is the GF(p)-dimension of block i of the semisimple
    quotient; block_commutative[i] records whether that block is
    commutative (over a finite field this is exactly the 1x1 matrix case).
    :attr:`rows` and :attr:`central_rows` are the lifts and their images as read-only rows.
    """

    algebra: Algebra
    idempotents: tuple[Element, ...]
    block_dims: tuple[int, ...]
    block_commutative: tuple[bool, ...]
    rad: Ideal
    quotient: Quotient
    central_images: tuple[Element, ...]

    @property
    def s(self) -> int:
        return len(self.idempotents)

    @cached_property
    def rows(self) -> np.ndarray:
        return read_only(self.algebra.member_rows(self.idempotents))

    @cached_property
    def central_rows(self) -> np.ndarray:
        return read_only(self.quotient.algebra.member_rows(self.central_images))

    def __post_init__(self) -> None:
        check_orthogonal_idempotents(self.algebra, self.rows, "lifted idempotent")
        if (self.quotient.batch_project(self.rows) != self.central_rows).any():
            raise InternalCheckError("lift does not reduce to its central idempotent")


def check_orthogonal_idempotents(a: Algebra, coeffs: np.ndarray, what: str) -> None:
    """Check e_i e_j = (e_i if i = j else 0) and sum(e_i) = 1, for the rows
    e_i of ``coeffs``, from one table of products; ``what`` names one member
    in the messages."""
    k = len(coeffs)
    expected = np.zeros((k, k, a.dim), dtype=np.int64)
    expected[range(k), range(k)] = coeffs
    bad = (a.pair_products(coeffs, coeffs) != expected).any(axis=2)
    if bad.diagonal().any():
        raise InternalCheckError(f"{what} {np.argmax(bad.diagonal())} is not idempotent")
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise InternalCheckError(f"{what}s {i},{j} are not orthogonal")
    if ((coeffs.sum(axis=0) - a.one_coeffs) % a.p).any():
        raise InternalCheckError(f"{what}s do not sum to 1")


def _center_subspace(a: Algebra) -> Subspace:
    """Solutions of z*b_k = b_k*z for every basis element b_k."""
    d, p, t = a.dim, a.p, a.np_table
    # row z satisfies, for all k: sum_j z_j (t[j,k,:] - t[k,j,:]) = 0
    stacked = ((t - t.transpose(1, 0, 2)) % p).reshape(d, d * d)
    # zero and repeated columns are equations already counted once; sorted,
    # a repeat differs from nothing before it (np.unique would import numpy.ma)
    cols = stacked[:, stacked.any(axis=0)]
    cols = cols[:, np.lexsort(cols)]
    return kernel(cols[:, np.diff(cols, axis=1, prepend=-1).any(axis=0)], p)


# A round leaves two pieces together with probability below 1/2, so 64
# seeded rounds fall short on k < 2**16 pieces with odds below 2**-33.  A
# round runs only when k > 1, and p > dim >= k makes p odd there.
SPLIT_ROUNDS = 64


def _split_step(a: Algebra, f: np.ndarray) -> np.ndarray:
    """1 - g^2, (g^2 + g)/2 and (g^2 - g)/2 for g = f^((p-1)/2): with
    f = sum(lambda_i e_i), the sums of the e_i at which lambda_i is zero, a
    square and a non-square (g has eigenvalues 0 and +-1)."""
    p = a.p
    g = a.batch_pow(f[None, :], (p - 1) // 2)
    g2, half = a.batch_mul(g, g), (p + 1) // 2
    return np.concatenate([a.one_coeffs - g2, (g2 + g) * half, (g2 - g) * half]) % p


def primitive_idempotents(a: Algebra) -> np.ndarray:
    """The primitive central idempotents of ``a`` as ``(k, dim)`` rows,
    ordered by the pivot of their coefficient vectors, then by the vectors.

    On the commutative center Z, z -> z^p is GF(p)-linear, and z^p = z
    holds exactly for the GF(p)-combinations of orthogonal idempotents, so
    its fixed space F is spanned by the primitive ones: a copy of GF(p)^k.
    It is split in ``a`` by the equal-degree step of Cantor and Zassenhaus
    (*Math. Comp.* 36, 1981): each round refines the pieces by
    :func:`_split_step` of a seeded random f in F, until there are k.
    """
    p, space = a.p, _center_subspace(a)
    # Solve sum_i c_i (z_i^p - z_i) = 0 for c over the basis of the center.
    fixed = kernel((a.batch_pow(space.array, p) - space.array) % p, p).array @ space.array % p
    rng = Random(0)
    idems = np.array([a.one_coeffs], dtype=np.int64)
    for _ in range(SPLIT_ROUNDS):
        if len(idems) == len(fixed):
            break
        f = np.array([rng.randrange(p) for _ in fixed], dtype=np.int64) @ fixed % p
        pieces = a.pair_products(idems, _split_step(a, f)).reshape(-1, a.dim)
        idems = pieces[pieces.any(axis=1)]
    if len(idems) != len(fixed):
        raise InternalCheckError("block splitting did not reach primitive idempotents")
    check_orthogonal_idempotents(a, idems, "primitive idempotent")
    # np.lexsort reads its last key first: the pivot, then the entries in order
    return idems[np.lexsort(np.concatenate([idems[:, ::-1].T, [(idems != 0).argmax(axis=1)]]))]


def block_decomposition(a: Algebra) -> IdempotentFamily:
    """Split the semisimple quotient into blocks and lift their identities.

    Pipeline: radical and quotient (shared with :func:`radical`); the
    primitive central idempotents of the quotient
    (:func:`primitive_idempotents`), one per block in pivot order; each
    lifted in turn as a p-th power in the corner of the previous lifts,
    checked as a family.
    """
    if "family" in a._cache:
        return a._cache["family"]
    rad, quo = _radical_quotient(a)
    abar = quo.algebra
    p = a.p
    central = primitive_idempotents(abar)

    # c = 1 - (sum of previous lifts), x the section of ebar (the parent row that is
    # ebar at the kept coordinates); the family checks idempotence, orthogonality, projections
    sections = np.zeros((len(central), a.dim), dtype=np.int64)
    sections[:, quo.keep] = central
    lifted: list[Element] = []
    corner = np.array([a.one_coeffs], dtype=np.int64)
    for x0 in sections:
        y = a.batch_pow(a.batch_mul(a.batch_mul(corner, x0[None]), corner), p)
        lifted.append(a.element(y[0]))
        corner = (corner - y) % p

    # each block is the row space of its right multiplication by ebar
    blocks = batch_row_spaces(abar.batch_right_matrices(central), p)
    products = [abar.pair_products(block.array, block.array) for block in blocks]
    comm = tuple(bool((m == m.transpose(1, 0, 2)).all()) for m in products)
    fam = IdempotentFamily(a, tuple(lifted), tuple(block.dim for block in blocks), comm, rad, quo,
                           tuple(map(abar.element, central.tolist())))
    a._cache["family"] = fam
    return fam


def ideal_block_support(fam: IdempotentFamily, ideal: Ideal) -> tuple[frozenset[int], bool]:
    """Block indices met by the ideal's image in the semisimple quotient.

    Returns (support, contained_in_radical).  Indices are 1-based; an ideal
    inside the radical has empty support and the flag set.
    """
    if ideal.side != "twosided":
        raise InternalCheckError("block support needs a two-sided ideal")
    images = fam.quotient.batch_project(ideal.space.array)
    if not images.any():
        return frozenset(), True
    met = fam.quotient.algebra.pair_products(fam.central_rows, images).any(axis=(1, 2))
    return frozenset(int(i) + 1 for i in np.flatnonzero(met)), False
