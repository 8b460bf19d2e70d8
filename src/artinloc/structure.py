"""Structure theory feeding the localization layer.

Provides the Jacobson radical (as the kernel of the trace bilinear form of
the regular representation, valid because every algebra here enforces
p > dim), the primitive central idempotents of an algebra (one Frobenius
splitter, run on R/J for the blocks and on R for the two-sided factors),
the block decomposition of the semisimple quotient, and a family of
orthogonal idempotents of the algebra lifting the blocks' central
identities.

Each fact is computed once per algebra: the radical and R/J are one cached
pair that the block decomposition reuses (a semisimple algebra is its own
quotient), and the lifted family is checked by one table of pairwise
products.

Every idempotent comes from one batched power, :meth:`Algebra.batch_pow`,
the square-and-multiply loop shared with ``Element ** n``: the
Frobenius-fixed space of the center, its spectral idempotents
1 - (f - alpha)^(p-1), and the lifts, each the p-th power of c x c for a
section x in the corner c of the previous lifts (x = e + n with n
nilpotent of index at most dim < p in the commutative GF(p)[x], so
x^p = e + n^p = e).  Everything is deterministic: primitive idempotents are
unique, and they are ordered by the pivot of their coefficient vectors; an
idempotent lift in a commutative algebra is unique, so each lift is the
limit of Newton's iteration x -> 3x^2 - 2x^3 in that corner.  The lifted
family is canonical for this pipeline.  Conjugate lifts would give
conjugate families; conjugation-independence of downstream reports is
documented, not verified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, Element, Ideal, Quotient, check_nilpotent, quotient_algebra, regular_matrix
from .linalg import InternalCheckError, Subspace, kernel, row_chunks

__all__ = ["IdempotentFamily", "radical", "primitive_idempotents", "block_decomposition",
           "ideal_block_support", "check_orthogonal_idempotents"]


def radical(a: Algebra) -> Ideal:
    """Jacobson radical as the kernel of (x, y) -> trace of left multiplication by x*y.

    The criterion needs p > dim, which Algebra construction guarantees.
    Postconditions checked: the kernel is a nilpotent two-sided ideal and
    the quotient's trace form is nondegenerate.
    """
    return _radical_quotient(a)[0]


def _radical_quotient(a: Algebra) -> tuple[Ideal, Quotient]:
    """The radical J and R/J, checked once per algebra; R/0 is R itself
    (:func:`quotient_algebra`)."""
    if "radical" in a._cache:
        return a._cache["radical"]
    rad = Ideal(a, _trace_form_kernel(a), "twosided")
    check_nilpotent(rad, "radical candidate is not nilpotent")
    quo = quotient_algebra(a, rad)
    if rad.dim > 0 and _trace_form_kernel(quo.algebra).dim != 0:
        raise InternalCheckError("trace form of the semisimple quotient is degenerate")
    a._cache["radical"] = (rad, quo)
    return rad, quo


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

    def __post_init__(self) -> None:
        check_orthogonal_idempotents(self.algebra, self.idempotents, "lifted idempotent")
        for e, ebar in zip(self.idempotents, self.central_images):
            if self.quotient.project(e) != ebar:
                raise InternalCheckError("lift does not reduce to its central idempotent")


def check_orthogonal_idempotents(a: Algebra, idems: tuple[Element, ...], what: str) -> None:
    """Check e_i e_j = (e_i if i = j else 0) and sum(e_i) = 1 from one table of
    products; ``what`` names one member in the messages."""
    coeffs = np.array([e.coeffs for e in idems], dtype=np.int64).reshape(-1, a.dim)
    expected = np.zeros((len(idems), len(idems), a.dim), dtype=np.int64)
    expected[range(len(idems)), range(len(idems))] = coeffs
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


def _spectral_idempotents(a: Algebra, f: np.ndarray) -> np.ndarray:
    """The nonzero rows of 1 - (f - alpha)**(p-1) over all alpha in GF(p).

    On a commutative algebra where every element satisfies x**p = x (a
    copy of GF(p)**k), f is the sum of lambda_i e_i over the primitive
    idempotents e_i, and (f - alpha)**(p-1) is the sum of the e_i with
    lambda_i != alpha; so row alpha is the sum of the e_i with lambda_i =
    alpha, the projection onto the alpha-eigenspace of f.
    """
    p = a.p
    one = np.array(a.one_coeffs, dtype=np.int64)
    # alpha a chunk at a time, so the batch products stay small for large p
    shifts = [(f - np.arange(start, stop)[:, None] * one) % p for start, stop in row_chunks(p)]
    spectral = np.concatenate([(one - a.batch_pow(xs, p - 1)) % p for xs in shifts])
    return spectral[spectral.any(axis=1)]


def primitive_idempotents(a: Algebra) -> tuple[Element, ...]:
    """The primitive central idempotents of ``a``, ordered by the pivot of
    their coefficient vectors.

    On the commutative center Z, z -> z^p is GF(p)-linear, and z^p = z
    holds exactly for the GF(p)-combinations of orthogonal idempotents, so
    its fixed space F is spanned by the primitive ones: a copy of GF(p)^k.
    In its own coordinates, an element's entries at the pivots of F's RREF
    basis, F is split from 1 by the spectral idempotents of one basis
    element after another, until there are k of them.
    """
    p, space = a.p, _center_subspace(a)
    # Solve sum_i c_i (z_i^p - z_i) = 0 for c over the basis of the center.
    fixed_coords = kernel((a.batch_pow(space.array, p) - space.array) % p, p)
    fixed = Subspace.from_vectors(p, a.dim, (fixed_coords.array @ space.array % p).tolist())
    pivots = list(fixed.pivots)
    fa = Algebra._derived(p, a.pair_products(fixed.array, fixed.array)[..., pivots],
                          np.array(a.one_coeffs)[pivots], f"F({a.label})")
    idems = np.array([fa.one_coeffs], dtype=np.int64)
    for f in np.eye(fixed.dim, dtype=np.int64):
        if len(idems) == fixed.dim:
            break
        pieces = fa.pair_products(idems, _spectral_idempotents(fa, f)).reshape(-1, fixed.dim)
        idems = pieces[pieces.any(axis=1)]
    if len(idems) != fixed.dim:
        raise InternalCheckError("block splitting did not reach primitive idempotents")
    check_orthogonal_idempotents(fa, tuple(fa.element(e) for e in idems), "primitive idempotent")
    blocks = sorted(map(tuple, (idems @ fixed.array % p).tolist()), key=lambda v: (_pivot(v), v))
    return tuple(a.element(b) for b in blocks)


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

    # c = 1 - (sum of previous lifts); the family checks idempotence,
    # orthogonality and the projections
    lifted: list[Element] = []
    corner = np.array([a.one_coeffs], dtype=np.int64)
    for ebar in central:
        x0 = np.array([quo.section(ebar).coeffs], dtype=np.int64)
        y = a.batch_pow(a.batch_mul(a.batch_mul(corner, x0), corner), p)
        lifted.append(a.element(y[0]))
        corner = (corner - y) % p

    dims = []
    comm = []
    for ebar in central:
        block_space = Subspace.from_vectors(p, abar.dim, regular_matrix(abar, ebar, "right").tolist())
        dims.append(block_space.dim)
        products = abar.pair_products(block_space.array, block_space.array)
        comm.append(bool((products == products.transpose(1, 0, 2)).all()))

    fam = IdempotentFamily(a, tuple(lifted), tuple(dims), tuple(comm), rad, quo, central)
    a._cache["family"] = fam
    return fam


def _pivot(vec: tuple[int, ...]) -> int:
    for i, v in enumerate(vec):
        if v:
            return i
    return len(vec)


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
    centrals = np.array([e.coeffs for e in fam.central_images], dtype=np.int64)
    met = fam.quotient.algebra.pair_products(centrals, images).any(axis=(1, 2))
    return frozenset(int(i) + 1 for i in np.flatnonzero(met)), False
