"""Structure theory feeding the localization layer.

Provides the Jacobson radical (as the kernel of the trace bilinear form of
the regular representation, valid because every algebra here enforces
p > dim), the primitive idempotents of a commutative subalgebra (one
Frobenius splitter, run on the center of R/J for the blocks and on the
center of R for the two-sided factors), the block decomposition of the
semisimple quotient, and a family of orthogonal idempotents of the algebra
lifting the blocks' central identities.

Each fact is computed once per algebra: the radical and R/J are one cached
pair that the block decomposition reuses (a semisimple algebra is its own
quotient), and the lifted family is checked by one table of pairwise
products.

Everything is deterministic: a commutative subalgebra is split from a
worklist, each idempotent by the first basis element of its Frobenius-fixed
space with two eigenvalues on its corner, extracting Lagrange idempotents
at the sorted roots of minimal polynomials (roots found by evaluating over
all of GF(p)); primitive idempotents are unique, and they are ordered by
the pivot of their coefficient vectors; lifting uses the Newton iteration
x -> 3x^2 - 2x^3 inside corners of previously lifted idempotents.  The
lifted family is canonical for this pipeline.  Conjugate lifts would give
conjugate families; conjugation-independence of downstream reports is
documented, not verified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, Element, Ideal, Quotient, ideal_combine, quotient_algebra, regular_matrix
from .linalg import InternalCheckError, Subspace, express_in_rows, kernel, rank

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
    power = rad
    for _ in range(a.dim):
        if power.dim == 0:
            break
        power = ideal_combine(power, rad, "product")
    if power.dim != 0:
        raise InternalCheckError("radical candidate is not nilpotent")
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


def _minimal_polynomial(a: Algebra, x: tuple[int, ...], unit: tuple[int, ...]) -> list[int]:
    """Monic minimal polynomial of x over GF(p) relative to the given unity.

    Works inside the unital subalgebra spanned by powers of x; `unit` is
    the identity of the corner being split.
    """
    p, d = a.p, a.dim
    powers = [unit]
    while True:
        rows = [list(v) for v in powers]
        nxt = a.mul_coeffs(powers[-1], x)
        combo = express_in_rows(rows, nxt, p)
        if combo is not None:
            k = len(powers)
            poly = [(-c) % p for c in combo] + [1]  # x^k - sum c_i x^i
            return poly
        powers.append(nxt)
        if len(powers) > d + 1:
            raise InternalCheckError("minimal polynomial search exceeded the dimension bound")


def _poly_roots(poly: list[int], p: int) -> list[int]:
    """Roots in GF(p) by exhaustive evaluation (p is bounded, so this is cheap)."""
    roots = []
    for alpha in range(p):
        acc = 0
        for c in reversed(poly):
            acc = (acc * alpha + c) % p
        if acc == 0:
            roots.append(alpha)
    return roots


def primitive_idempotents(a: Algebra, space: Subspace) -> tuple[Element, ...]:
    """The primitive idempotents of ``a`` inside the commutative subalgebra
    ``space``, ordered by the pivot of their coefficient vectors.

    On a commutative algebra of characteristic p, z -> z^p is GF(p)-linear,
    and x^p = x holds exactly for the GF(p)-combinations of orthogonal
    idempotents, so its fixed space is spanned by the primitive ones.  The
    p-th powers of the whole basis come from one square-and-multiply on
    batch products.  The fixed space is then split from a worklist: a
    popped idempotent f is primitive iff its corner f * fixed is the line
    through f.
    """
    p = a.p
    powers, base, n = np.tile(np.array(a.one_coeffs, dtype=np.int64), (space.dim, 1)), space.array, p
    while n:
        if n & 1:
            powers = a.batch_mul(powers, base)
        base = a.batch_mul(base, base)
        n >>= 1
    # Solve sum_i c_i (z_i^p - z_i) = 0 for c over the basis of the space.
    fixed_coords = kernel((powers - space.array) % p, p)
    fixed = Subspace.from_vectors(p, a.dim, (fixed_coords.array @ space.array % p).tolist())
    blocks, todo = [], [a.one_coeffs]
    while todo:
        f = todo.pop()
        if rank(a.batch_mul_left(f, fixed.array), p) == 1:
            blocks.append(f)
            continue
        pieces = _split_block(a, f, fixed)
        if len(pieces) == 1:
            raise InternalCheckError("block splitting did not reach primitive idempotents")
        todo.extend(pieces)
    blocks.sort(key=lambda v: (_pivot(v), v))
    return tuple(a.element(b) for b in blocks)


def block_decomposition(a: Algebra) -> IdempotentFamily:
    """Split the semisimple quotient into blocks and lift their identities.

    Pipeline: radical and quotient (shared with :func:`radical`); the
    primitive idempotents of the center of the quotient, which are its
    primitive central idempotents (:func:`primitive_idempotents`), one per
    block in pivot order; sequential Newton lifting, checked as a family.
    """
    if "family" in a._cache:
        return a._cache["family"]
    rad, quo = _radical_quotient(a)
    abar = quo.algebra
    p = a.p
    central = primitive_idempotents(abar, _center_subspace(abar))

    # Lift sequentially into corners of 1 - (sum of previous lifts); the
    # family checks idempotence, orthogonality and the projections.
    lifted: list[Element] = []
    newton_steps = max(1, (a.dim - 1).bit_length() + 1)
    fsum = a.zero
    for ebar in central:
        x0 = quo.section(ebar)
        corner_unit = a.one - fsum
        y = corner_unit * x0 * corner_unit
        for _ in range(newton_steps):
            y2 = y * y
            y = (y2 * 3) - (y2 * y * 2)
        lifted.append(y)
        fsum = fsum + y

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


def _split_block(a: Algebra, f: tuple[int, ...], fixed: Subspace) -> list[tuple[int, ...]]:
    """Split the idempotent f of the fixed space using the first basis element
    of the fixed space whose corner restriction has at least two eigenvalues."""
    p = a.p
    for z in fixed.basis:
        w = a.mul_coeffs(f, z)
        poly = _minimal_polynomial(a, w, f)
        roots = _poly_roots(poly, p)
        if len(poly) - 1 != len(roots):
            raise InternalCheckError("minimal polynomial of a split semisimple element "
                                     "did not factor into distinct linear factors")
        if len(roots) < 2:
            continue
        pieces = []
        for alpha in sorted(roots):
            e = f
            for beta in roots:
                if beta == alpha:
                    continue
                shifted = tuple((wi - beta * fi) % p for wi, fi in zip(w, f))
                e = a.mul_coeffs(e, shifted)
                inv = pow((alpha - beta) % p, p - 2, p)
                e = tuple((inv * v) % p for v in e)
            pieces.append(e)
        total = tuple(sum(col) % p for col in zip(*pieces))
        if total != f:
            raise InternalCheckError("Lagrange idempotents do not sum back to the block")
        return pieces
    return [f]


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
