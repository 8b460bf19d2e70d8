"""Classification of denominator sets and Ore localizations.

For a finite-dimensional (hence Artinian) algebra the module computes:

* the triangular block-sum idempotents e_I (sums of lifted block
  idempotents with e_I * R * (1 - e_I) = 0), which index every left
  localization class and every associated kernel ideal;
* per-class data: the kernel ideal (1 - e_I)R, built in one place for
  every kind of class (:func:`_kernel_class`); the quotient R/(1 - e_I)R
  is built from it on first use (:attr:`Ideal.quotient`), and printed
  only as its dimension dim R - dim (1 - e_I)R;
* the maximal denominator sets T_e (unit preimages over minimal e),
  represented by their membership predicate and materializable within the
  enumeration guard;
* the localization radical (the intersection over the maximal classes)
  and the little radical (the intersection of all nonzero kernel ideals),
  each read as the kernel ideal at a union of classes;
* decision procedures: powers-of-an-element criterion, finite monoid
  decision, idempotent check, element localizability, and the duality
  between left and right localizations, the right classes read off the same
  corner table (the predecessor-closed block sets, with kernel ideals
  R(1 - e_I)) into a report of the same type, by the same builder;
* the two-sided theory, where only central idempotents matter.

Reports are deterministic: subsets are ordered by (size, lexicographic)
and all underlying idempotents come from the deterministic lift in
:mod:`artinloc.structure`.

Each side is one :class:`LocalizationReport`, built by one builder,
:func:`_side_report`, straight from the side's s x s table of the
dimensions of the Peirce corners 1_i R 1_j: :func:`localization_report`
builds the table once per family and reads the left side off it, and the
right side is read off its transpose.  R is the direct sum of the 1_j R,
and K_I = (1 - e_I)R is the direct sum of those over j outside I, so the
class lattice is set algebra on the block index sets: with
r_j = dim 1_j R, a row sum of the table, dim(K_I + K_J) is the sum of r_j
over j outside I & J, and an intersection of kernel ideals is the kernel
ideal at the union of their classes.  The hot path checks each dim K_I
against that sum; its only pairwise work is the bitmask comparison that
finds the minima.  The closed-form lattice tables, and the eliminations
and products that re-prove the lattice (the ranks of the stacked bases,
the idempotent and kernel products, the radicals as meets and products),
belong to the ``verify`` battery, :mod:`artinloc.suite`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .algebra import (
    ASSOC_BLOCK,
    Algebra,
    Element,
    Ideal,
    Quotient,
    regular_matrix,
)
from .linalg import (
    DEFAULT_GUARD,
    InputError,
    InternalCheckError,
    ResourceGuardError,
    Subspace,
    batch_rank,
    batch_row_spaces,
    batch_solve,
    check_guard,
    rank,
    row_chunks,
)
from .oracle import monoid_closure
from .structure import (
    IdempotentFamily,
    block_decomposition,
    check_orthogonal_idempotents,
    primitive_idempotents,
)

MAX_SUBSET_ENUM = 1 << 20

Subset = tuple[int, ...]


def subset_str(subset: Subset) -> str:
    return "{" + ",".join(str(i) for i in subset) + "}"


def _right_ideal_of(a: Algebra, x: Element) -> Subspace:
    """Row space of the left-multiplication matrix: the right ideal x*R."""
    return Subspace.from_vectors(a.p, a.dim, regular_matrix(a, x, "left").tolist())


def _corner(a: Algebra, e: Element, f: Element) -> np.ndarray:
    """Matrix of y -> e*y*f on coefficient rows, L_e @ R_f; its row space is e R f."""
    return regular_matrix(a, e, "left") @ regular_matrix(a, f, "right") % a.p


def _corner_is_zero(a: Algebra, e: Element, f: Element) -> bool:
    """e R f = 0."""
    return not _corner(a, e, f).any()


def _is_left_triangular(a: Algebra, e: Element) -> bool:
    """e * R * (1 - e) = 0."""
    return _corner_is_zero(a, e, a.one - e)


def _is_central(a: Algebra, e: Element) -> bool:
    """e*y = y*e for every y: the left and right multiplications by e agree."""
    return np.array_equal(regular_matrix(a, e, "left"), regular_matrix(a, e, "right"))


# ---------------------------------------------------------------------------
# Block subsets
# ---------------------------------------------------------------------------

def _pair_runs(ii: np.ndarray, jj: np.ndarray, per_pair: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The index pairs ``(ii[n], jj[n])`` in order, in runs of at least one
    pair whose stacked temporaries, ``per_pair`` entries a pair, hold at
    most ASSOC_BLOCK entries."""
    step = max(1, ASSOC_BLOCK // max(1, per_pair))
    for start in range(0, len(ii), step):
        yield ii[start:start + step], jj[start:start + step]


def _ordered_pairs(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair of ``range(count)``, row-major, as two index arrays."""
    return np.divmod(np.arange(count * count, dtype=np.int64), count)


def _projectors(spaces: Sequence[Subspace]) -> np.ndarray:
    """One ``(d, d)`` matrix E per space, holding basis row r at row pivot r.

    ``x @ E`` is the member that agrees with x at the pivots, so x is a
    member iff ``x @ E = x`` mod p: :meth:`Subspace.residues` for a batch of
    rows that each have their own space.
    """
    d = spaces[0].ambient_dim
    out = np.zeros((len(spaces), d, d), dtype=np.int64)
    for k, sp in enumerate(spaces):
        out[k, list(sp.pivots)] = sp.array
    return out


def _subset_masks(subsets: Sequence[Subset]) -> np.ndarray:
    """The 1-based block subsets as bitmasks, block i at bit i - 1."""
    return np.array([sum(1 << (i - 1) for i in sub) for sub in subsets], dtype=np.int64)


def _membership(masks: np.ndarray, s: int) -> np.ndarray:
    """``out[k, i]`` is 1 when block i + 1 is in the subset ``masks[k]``, else 0."""
    return (masks[:, None] >> np.arange(s, dtype=np.int64)) & 1


def _minimal_masks(masks: np.ndarray) -> np.ndarray:
    """Which of the distinct bitmasks have no other one of them inside."""
    has_smaller = np.zeros(len(masks), dtype=bool)
    for i, j in _pair_runs(*_ordered_pairs(len(masks)), 1):
        inside = ((masks[i] & masks[j]) == masks[i]) & (masks[i] != masks[j])
        has_smaller[j[inside]] = True
    return ~has_smaller


def _closed_subsets(corners: np.ndarray) -> list[Subset]:
    """The 1-based block subsets I, in (size, lex) order, with no nonzero
    corner from I to a block outside I."""
    s = len(corners)
    # bit j of succ[i]: the corner from block i to block j is nonzero
    succ = ((corners != 0) @ (1 << np.arange(s, dtype=np.int64))).tolist()
    out = []
    for size in range(1, s + 1):
        for combo in itertools.combinations(range(1, s + 1), size):
            mask = sum(1 << (i - 1) for i in combo)
            if not any(succ[i - 1] & ~mask for i in combo):
                out.append(combo)
    return out


# ---------------------------------------------------------------------------
# Descriptors and reports
# ---------------------------------------------------------------------------

def _kernel_class(a: Algebra, space: Subspace) -> Ideal:
    """The kernel ideal (1 - e)R (R(1 - e) on the right), the row space
    ``space`` that the caller eliminated.  For a nonzero triangular or
    central e it is a proper two-sided ideal by theorem, so it is not
    re-checked here; ``verify`` rebuilds and re-derives it."""
    if space.dim == a.dim:
        raise InternalCheckError("(1 - e)R cannot be the whole algebra")
    return Ideal._derived(a, space, "twosided")


def _kernel_spaces(a: Algebra, idems: np.ndarray, side: str) -> list[Subspace]:
    """The kernel ideals (1 - e)R (R(1 - e) on the right) of the
    idempotent rows ``idems``, from one batched elimination of the left
    (right) multiplications by 1 - e."""
    multiply = a.batch_left_matrices if side == "left" else a.batch_right_matrices
    one = np.array(a.one_coeffs, dtype=np.int64)
    return batch_row_spaces(multiply((one - idems) % a.p), a.p)


@dataclass(frozen=True)
class DenSetDescriptor:
    """A classified denominator set: its witness idempotent, kernel ideal
    and core data.

    kind is one of "idempotent", "powers", "monoid", "maximal".  For the
    powers kind the core is the set of powers at or above
    min_core_exponent; otherwise core membership is the predicate
    (1-e) s (1-e) = 0, tested on a batch of rows (:meth:`core_mask`).  The
    kernel ideal is taken as given (:func:`_kernel_class`); ``verify``
    re-derives it or checks it by brute force.  The quotient R/ass is
    built on first use.
    """

    kind: str
    witness_idempotent: Element
    ass: Ideal
    min_core_exponent: int | None = None

    @property
    def quotient(self) -> Quotient:
        return self.ass.quotient

    def to_dict(self) -> dict:
        return {"kind": self.kind, "idempotent": list(self.witness_idempotent.coeffs),
                "ass_dim": self.ass.dim, "quotient_dim": self.ass.algebra.dim - self.ass.dim}

    def image_is_unit(self, r: Element) -> bool:
        q = self.quotient
        return rank(regular_matrix(q.algebra, q.project(r), "left"), q.algebra.p) == q.algebra.dim

    def core_mask(self, xs: np.ndarray) -> np.ndarray:
        """Whether (1 - e) x (1 - e) = 0, for each row x of ``xs``."""
        a = self.witness_idempotent.algebra
        om = np.array([(a.one - self.witness_idempotent).coeffs], dtype=np.int64)
        return ~(a.batch_mul_left(om[0], xs) @ a.batch_right_matrices(om)[0] % a.p).any(axis=1)

    def members_within(self, guard: int = DEFAULT_GUARD) -> list[Element]:
        """Materialize the unit-preimage set explicitly (guarded enumeration,
        swept CHUNK_ROWS elements at a time in canonical order)."""
        check_guard(guard)
        a = self.witness_idempotent.algebra
        total = a.p ** a.dim
        if total > guard:
            raise ResourceGuardError(f"{total} elements exceed the guard {guard}", total, guard)
        quo = self.quotient
        members = []
        for start, stop in row_chunks(total):
            coeffs = a.enumerate_coeffs(start, stop)
            mask = quo.algebra.batch_unit_mask(quo.batch_project(coeffs))
            members.extend(a.element(row) for row in coeffs[mask].tolist())
        return members


@dataclass(frozen=True)
class LocEntry:
    """One class: its block set I, idempotent e_I and kernel ideal, (1 - e_I)R
    on the left and R(1 - e_I) on the right (:func:`_kernel_class`); the
    localization, R modulo the kernel ideal, is built on first use."""

    subset: Subset
    idempotent: Element
    ass: Ideal

    @property
    def quotient(self) -> Quotient:
        return self.ass.quotient


@dataclass(frozen=True)
class LocalizationReport:
    """The classification of one side, left or right, built by
    :func:`_side_report` off the side's oriented table of Peirce corner
    dimensions, ``corners[i, j]`` that of the corner from block i to block
    j (0-based): 1_i R 1_j on the left, 1_j R 1_i on the right.

    ``entries`` holds a :class:`LocEntry` per class, ordered by (|I|, I);
    the poset order is subset inclusion of the block sets, and ``minima``
    are the block sets of the maximal localization classes.  ``l_rad`` and
    ``little_rad`` are the localization radical and the little radical of
    the side, each the kernel ideal at a union of classes; the maximal
    denominator sets and the flags are read off those.  The right side
    prints as the left report of the opposite algebra, which shares the
    basis: label ``op(<label>)``.
    """

    algebra: Algebra
    side: str  # "left" | "right"
    family: IdempotentFamily
    entries: tuple[LocEntry, ...]
    minima: tuple[Subset, ...]
    l_rad: Ideal
    little_rad: Ideal
    corners: np.ndarray = field(repr=False, compare=False)

    @property
    def loc_count(self) -> int:
        return len(self.entries)

    @cached_property
    def max_den(self) -> tuple[DenSetDescriptor, ...]:
        """The maximal denominator sets T_e, one per minimum, in its order."""
        return tuple(DenSetDescriptor("maximal", en.idempotent, en.ass)
                     for en in map(self.entry, self.minima))

    @property
    def flags(self) -> dict:
        rad_zero = self.l_rad.dim == 0
        return {"completely_loc_equals_units": rad_zero, "is_direct_product_of_loc_max": rad_zero,
                "localization_maximal": self.loc_count == 1, "semisimple": self.family.rad.dim == 0}

    def entry(self, subset: Subset) -> LocEntry:
        for e in self.entries:
            if e.subset == subset:
                return e
        raise KeyError(subset)

    def to_dict(self) -> dict:
        a, fam = self.algebra, self.family
        return {
            "side": "left",
            "algebra": {"label": a.label if self.side == "left" else f"op({a.label})", "p": a.p, "dim": a.dim},
            "blocks": {"s": fam.s, "dims": list(fam.block_dims), "commutative": list(fam.block_commutative),
                       "rad_dim": fam.rad.dim},
            "loc_count": self.loc_count,
            "entries": [{"subset": subset_str(en.subset), "idempotent": list(en.idempotent.coeffs),
                         "ass_dim": en.ass.dim, "ass_basis": [list(r) for r in en.ass.space.basis],
                         "quotient_dim": a.dim - en.ass.dim} for en in self.entries],
            "minima": [subset_str(s) for s in self.minima],
            "max_den": [d.to_dict() for d in self.max_den],
            "l_rad_dim": self.l_rad.dim,
            "l_rad_basis": [list(r) for r in self.l_rad.space.basis],
            "little_rad_dim": self.little_rad.dim,
            "little_rad_basis": [list(r) for r in self.little_rad.space.basis],
            "flags": self.flags,
        }


def _side_report(a: Algebra, side: str, fam: IdempotentFamily, corners: np.ndarray) -> LocalizationReport:
    """The classification of one side, read off its oriented corner table.

    The classes are the block sets that no nonzero corner leaves
    (:func:`_closed_subsets`); their idempotents e_I are one matmul of the
    0/1 membership matrix by the block idempotents, and their kernel ideals
    come from one batched elimination (:func:`_kernel_spaces`).  A block
    piece 1_j R (R 1_j) is the direct sum of its corners, so its dimension
    r_j is a row sum of the table, and each kernel ideal is the direct sum
    of the pieces outside its class.  So an intersection of kernel ideals
    is the kernel ideal at the union of their classes: the localization
    radical is the one at the union of the minima, which must be a class,
    and the little radical the one at the union of the classes other than
    the full set, whose kernel ideal is the only zero one.

    Checked: distinct classes give distinct kernel ideals, each of the
    dimension of the sum of the r_j outside its class; there are no more
    minima (:func:`_minimal_masks`) than blocks, one per block when the
    algebra is semisimple, and no nonzero corner joins two of them; the
    localization radical lies inside the nilpotent radical only when it
    vanishes, and the little radical inside the localization radical.  The
    products e_I e_J = e_{I & J}, which follow from the family's
    orthogonality, are checked with the rest of the lattice by the
    ``left_report_invariants`` check of :func:`artinloc.suite.run_invariants`.
    """
    s, p = fam.s, a.p
    if (1 << s) > MAX_SUBSET_ENUM:
        raise ResourceGuardError(f"2^{s} block subsets exceed the enumeration bound",
                                 1 << s, MAX_SUBSET_ENUM)
    subsets = _closed_subsets(corners)
    masks = _subset_masks(subsets)
    inside = _membership(masks, s)
    blocks = np.array([e.coeffs for e in fam.idempotents], dtype=np.int64)
    idems = inside @ blocks % p
    spaces = _kernel_spaces(a, idems, side)
    if len(set(spaces)) != len(spaces):
        raise InternalCheckError("distinct subsets gave the same kernel ideal")
    if ((1 - inside) @ corners.sum(axis=1) != [k.dim for k in spaces]).any():
        raise InternalCheckError("kernel ideal dimension is not the sum over the blocks outside the class")
    minimal = _minimal_masks(masks)
    minima = tuple(itertools.compress(subsets, minimal))
    if len(minima) > s:
        raise InternalCheckError("more maximal classes than blocks")
    # Semisimple algebras have a maximal class per block.  The converse is
    # false: a local algebra with radical (one block, one class) also has
    # as many classes as blocks.
    if fam.rad.dim == 0 and len(minima) != s:
        raise InternalCheckError("semisimple algebra without one maximal class per block")
    at_minima = inside[minimal]
    touching = at_minima @ corners @ at_minima.T
    if touching[~np.eye(len(at_minima), dtype=bool)].any():
        raise InternalCheckError("distinct minima do not annihilate through the ring")
    entries = tuple(LocEntry(sub, a.element(e), _kernel_class(a, space))
                    for sub, e, space in zip(subsets, idems.tolist(), spaces))
    index = {m: k for k, m in enumerate(masks.tolist())}
    rad = index.get(int(np.bitwise_or.reduce(masks[minimal])))
    if rad is None:
        raise InternalCheckError("union of minima does not qualify")
    l_rad = entries[rad].ass
    if (fam.rad.space.contains(l_rad.space)) != (l_rad.dim == 0):
        raise InternalCheckError("localization radical sits inside the nilpotent radical "
                                 "only when it vanishes")
    proper = masks[masks != np.bitwise_or.reduce(masks)]
    little_rad = (entries[index[int(np.bitwise_or.reduce(proper))]].ass if len(proper)
                  else Ideal(a, Subspace.zero(a.p, a.dim), "twosided"))
    if not l_rad.space.contains(little_rad.space):
        raise InternalCheckError("little radical is not inside the localization radical")
    return LocalizationReport(a, side, fam, entries, minima, l_rad, little_rad, corners)


def localization_report(a: Algebra) -> LocalizationReport:
    """The full left classification (:func:`_side_report`).  The right
    side, the left side of the opposite algebra, is read off this report by
    :func:`duality_report`.

    R is the direct sum of the Peirce corners 1_i R 1_j, so a block set I
    is a class (e_I R (1 - e_I) = 0) iff no nonzero corner leads from I out
    of I.  y -> 1_i y 1_j, the matrix L_{1_i} R_{1_j}, is idempotent, so its
    rank dim 1_i R 1_j is its trace, read exactly mod p as p > dim R; the
    table of all of them is one contraction.

    The checks that re-derive each kernel ideal (1 - e_I)R and re-prove the
    class lattice by elimination (the direct decomposition K_I + e_I R,
    the idempotent products e_I e_J = e_{I & J}, the kernel products
    K_I K_J = K_I meet K_J, and the radicals as intersections and products
    of kernel ideals) are the ``left_report_invariants`` check of
    :func:`artinloc.suite.run_invariants`.
    """
    if "report_left" not in a._cache:
        fam = block_decomposition(a)
        blocks = np.array([e.coeffs for e in fam.idempotents], dtype=np.int64)
        corners = np.einsum("iab,jba->ij", a.batch_left_matrices(blocks), a.batch_right_matrices(blocks)) % a.p
        a._cache["report_left"] = _side_report(a, "left", fam, corners)
    return a._cache["report_left"]


# ---------------------------------------------------------------------------
# Element-level criteria
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssociatedIdempotent:
    n: int
    e: Element
    e_prime: Element
    is_nilpotent: bool


def _associated_idempotents(a: Algebra, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The associated idempotent of every row of ``xs``, in one batched pass.

    Returns a nilpotent mask and the idempotents (0 on nilpotent rows).  P,
    the right multiplication by s raised to a power 2^k >= dim, is past the
    stabilization power n <= dim, so im P is the stabilized R s^n, ker P is
    ker(.s^n), and R = im P (+) ker P.  s is nilpotent iff P = 0.
    Otherwise e is the component of 1 in im P: e = r P for any r with
    r P^2 = 1 P, since P is invertible on its image.  The checks of the
    one-element split are made on the whole batch: rank P^2 = rank P (the
    image meets the kernel in 0), the solve is consistent, and e, 1 - e are
    orthogonal idempotents.
    """
    p, d = a.p, a.dim
    power = a.batch_right_matrices(xs)
    for _ in range((d - 1).bit_length()):
        power = power @ power % p
    nilpotent = ~power.any(axis=(1, 2))
    es = np.zeros((len(xs), d), dtype=np.int64)
    live = power[~nilpotent]
    m = len(live)
    if m == 0:
        return nilpotent, es
    one = np.array(a.one_coeffs, dtype=np.int64)
    # one elimination: r P^2 = 1 P for the first m systems, and beside them
    # P with a zero target, which only contributes its rank
    sol, consistent, ranks = batch_solve(
        np.concatenate([live @ live % p, live]),
        np.concatenate([one @ live % p, np.zeros((m, d), dtype=np.int64)]), p)
    if (ranks[:m] != ranks[m:]).any():
        raise InternalCheckError("R s^n and ker(.s^n) do not decompose the algebra")
    if not consistent[:m].all():
        raise InternalCheckError("identity is not reachable from the direct decomposition")
    e = np.einsum("ni,nij->nj", sol[:m], live) % p
    e_prime = (one - e) % p
    if (a.batch_mul(e, e) != e).any() or (a.batch_mul(e_prime, e_prime) != e_prime).any():
        raise InternalCheckError("decomposition of 1 is not by idempotents")
    if a.batch_mul(e, e_prime).any() or a.batch_mul(e_prime, e).any():
        raise InternalCheckError("decomposition idempotents are not orthogonal")
    es[~nilpotent] = e
    return nilpotent, es


def associated_idempotent(a: Algebra, s: Element) -> AssociatedIdempotent:
    """Split 1 = e + e' along R*s^n (+) ker(.s^n) at the stabilization power n.

    For nilpotent s the split degenerates: e = 0 is returned with the flag
    set.  For a unit, n = 0 and e = 1.  The split is
    :func:`_associated_idempotents` on one row; n is the first power whose
    right multiplication has the rank of the stabilized one.
    """
    nilpotent, es = _associated_idempotents(a, np.array([s.coeffs], dtype=np.int64))
    rm = a.batch_right_matrices(np.array([s.coeffs], dtype=np.int64))[0]
    powers = [np.eye(a.dim, dtype=np.int64)]
    for _ in range(a.dim):
        powers.append(powers[-1] @ rm % a.p)
    ranks = batch_rank(np.stack(powers), a.p).tolist()
    n = ranks.index(ranks[-1])
    if nilpotent[0]:
        return AssociatedIdempotent(n, a.zero, a.one, True)
    e = a.element(es[0])
    return AssociatedIdempotent(n, e, a.one - e, False)


@dataclass(frozen=True)
class _PowersRows:
    """The powers criterion on each row of a batch (:func:`_powers_rows`).

    ``group`` numbers the distinct associated idempotents in order of first
    appearance; ``classes`` maps each group that some row qualifies with to
    its idempotent and kernel ideal (1 - e)R.  ``min_exp`` is the minimal
    core exponent on qualifying rows.
    """

    ok: np.ndarray
    group: np.ndarray
    min_exp: np.ndarray
    classes: dict[int, tuple[Element, Ideal]]


def _powers_rows(a: Algebra, xs: np.ndarray) -> _PowersRows:
    """:func:`powers_denominator_criterion` on every row of ``xs``.

    Apart from nilpotency of (1 - e) s (1 - e) and the core exponent, the
    criterion depends on s only through its associated idempotent e, so
    the triangularity test and the kernel ideal are built once per
    distinct e, and only for an e that some row qualifies with.  When a
    warm :func:`localization_report` holds a class with that kernel ideal,
    its :class:`Ideal`, with any quotient already built from it, is taken
    instead.
    """
    p, d = a.p, a.dim
    n = len(xs)
    nilpotent, es = _associated_idempotents(a, xs)
    index: dict[tuple[int, ...], int] = {}
    group = np.array([index.setdefault(e, len(index)) for e in map(tuple, es.tolist())],
                     dtype=np.int64)
    triangular = np.array([any(e) and _is_left_triangular(a, a.element(e)) for e in index])
    cand = ~nilpotent & triangular[group]
    one = np.array(a.one_coeffs, dtype=np.int64)
    om = (one - es[cand]) % p
    ok = np.zeros(n, dtype=bool)
    ok[cand] = a.batch_nilpotent_mask(a.batch_mul(a.batch_mul(om, xs[cand]), om))
    # (1 - e) s^i (1 - e) = 0 first at i = min_exp; a unit (e = 1) has 0
    unit = ok & (es == one).all(axis=1)
    min_exp = np.where(unit, 0, -1)
    rows = np.flatnonzero(ok & ~unit)
    om = (one - es[rows]) % p
    power = xs[rows] % p
    for i in range(1, d + 1):
        if not len(rows):
            break
        hit = ~a.batch_mul(a.batch_mul(om, power), om).any(axis=1)
        min_exp[rows[hit]] = i
        rows, om, power = rows[~hit], om[~hit], a.batch_mul(power[~hit], xs[rows[~hit]])
    if len(rows):
        raise InternalCheckError("no core exponent found below the dimension bound")
    reps = list(index)
    # a warm left report already holds the ideal of each class
    report = a._cache.get("report_left")
    known = {en.ass.space: en.ass for en in report.entries} if report else {}
    classes = {}
    for g in dict.fromkeys(group[ok].tolist()):
        e = a.element(reps[g])
        space = _right_ideal_of(a, a.one - e)
        classes[g] = (e, known.get(space) or _kernel_class(a, space))
    return _PowersRows(ok, group, min_exp, classes)


def powers_denominator_criterion(a: Algebra, s: Element) -> tuple[bool, DenSetDescriptor | None]:
    """Do the powers of s form a denominator set?

    Nilpotent s fails outright (its powers reach 0, which no multiplicative
    set may contain).  Otherwise, with e the idempotent associated with s:
    the powers qualify iff e R (1 - e) = 0 and (1 - e) s (1 - e) is
    nilpotent; the kernel ideal is then (1 - e)R and the localization is
    the quotient by it.  The core is the set of powers s^i, i >= 1, with
    (1 - e) s^i (1 - e) = 0 (every i once one qualifies); for a unit the
    kernel ideal is zero and every power, including s^0, is in the core.
    """
    rows = _powers_rows(a, np.array([s.coeffs], dtype=np.int64))
    if not rows.ok[0]:
        return False, None
    e, ass = rows.classes[int(rows.group[0])]
    return True, DenSetDescriptor("powers", e, ass, min_core_exponent=int(rows.min_exp[0]))


@dataclass(frozen=True)
class IdempotentCheck:
    left: bool
    right: bool
    twosided: bool
    central: bool
    descriptor: DenSetDescriptor | None


def idempotent_denominator_check(a: Algebra, e: Element) -> IdempotentCheck:
    """Check {1, e} on both sides.  Requires a nonzero idempotent.

    Left holds iff e R (1 - e) = 0; right iff (1 - e) R e = 0; two-sided
    iff both iff e is central (asserted).
    """
    if e.is_zero():
        raise InputError("the idempotent 0 is excluded (its set would contain 0)")
    if (e * e) != e:
        raise InputError("element is not idempotent")
    om = a.one - e
    left = _corner_is_zero(a, e, om)
    right = _corner_is_zero(a, om, e)
    central = _is_central(a, e)
    if (left and right) != central:
        raise InternalCheckError("two-sided triangularity must coincide with centrality")
    descriptor = DenSetDescriptor("idempotent", e, _kernel_class(a, _right_ideal_of(a, om))) if left else None
    return IdempotentCheck(left, right, left and right, central, descriptor)


def monoid_denominator_decision(a: Algebra, gens: Sequence[Element],
                                guard: int = DEFAULT_GUARD) -> tuple[bool, DenSetDescriptor | None]:
    """Decide whether the monoid generated by ``gens`` is a left denominator set.

    Implements the witness search: the monoid qualifies iff it contains an
    element s whose powers qualify and modulo whose kernel ideal every
    generator becomes a unit.  The kernel ideal is witness-independent;
    this is asserted across all witnesses, and a witness whose
    left-multiplication kernel equals the whole ideal (a core element) must
    exist; the first one in closure order gives the descriptor.

    The search is one batched pass over the closure.  Apart from
    nilpotency (of s and of (1 - e) s (1 - e)) and core membership
    (ker(s.) = ass), the outcome for a member s depends only on its
    associated idempotent e: triangularity of e, the kernel ideal
    (1 - e)R, the quotient and whether the generators become units in it
    are all functions of e.  So the members are grouped by e, that work is
    done once per distinct e, and the per-member tests run batched; this
    gives the same witnesses, the same first core witness and so the same
    descriptor as running the powers criterion member by member.
    """
    closure = monoid_closure(a, gens, guard)
    if closure.contains_zero:
        return False, None
    xs = np.array([m.coeffs for m in closure.members], dtype=np.int64)
    rows = _powers_rows(a, xs)
    descriptors = {g: DenSetDescriptor("monoid", e, ass) for g, (e, ass) in rows.classes.items()}
    witness_groups = [g for g, desc in descriptors.items()
                      if all(desc.image_is_unit(x) for x in gens)]
    if not witness_groups:
        return False, None
    witnesses = np.flatnonzero(rows.ok & np.isin(rows.group, witness_groups))
    spaces = {descriptors[g].ass.space for g in witness_groups}
    if len(spaces) != 1:
        raise InternalCheckError("witnesses disagree about the kernel ideal")
    ass_space = spaces.pop()
    # ker(s.) = ass iff s kills the basis of ass and s. has rank dim - dim ass
    left = a.batch_left_matrices(xs[witnesses])
    core = ((batch_rank(left, a.p) == a.dim - ass_space.dim)
            & ~(ass_space.array @ left % a.p).any(axis=(1, 2)))
    if not core.any():
        raise InternalCheckError("no witness with full left-multiplication kernel")
    return True, descriptors[int(rows.group[witnesses[np.argmax(core)]])]


def classify_element(a: Algebra, r: Element, report: LocalizationReport) -> dict:
    """Localizability of one element against the maximal classes."""
    if report.algebra is not a:
        raise InputError("report does not match the algebra")
    # the maximal descriptors are the classes at the minima, in their order
    witnesses = [sub for sub, desc in zip(report.minima, report.max_den) if desc.image_is_unit(r)]
    left_localizable = bool(witnesses)
    completely = len(witnesses) == len(report.minima)
    if rank(regular_matrix(a, r, "left"), a.p) == a.dim and not completely:
        raise InternalCheckError("a unit must be completely localizable")
    return {"left_localizable": left_localizable, "completely": completely,
            "witnesses": tuple(witnesses)}


# ---------------------------------------------------------------------------
# Duality and the two-sided theory
# ---------------------------------------------------------------------------

def _right_report(left: LocalizationReport) -> LocalizationReport:
    """The right classification, read off the left report.

    The right classes are the left classes of the opposite algebra, whose
    corner 1_i R^op 1_j is 1_j R 1_i: :func:`_side_report` reads them off
    the transposed corner table, with its checks, and takes the kernel ideal
    (1 - e_I)R^op = R(1 - e_I) from the right multiplications.

    Checked here besides: each kernel ideal is two-sided, which for the left
    ideal R(1 - e_I) means that it holds (1 - e_I)R, the rows of the left
    multiplication by 1 - e_I (tested with :func:`_projectors`); and the
    localization radical is closed, through the public :class:`Ideal`
    constructor.  The opposite algebra's own report, with all of its
    checks, and its agreement with this one are the ``duality`` check of
    :func:`artinloc.suite.run_invariants`.
    """
    a = left.algebra
    right = _side_report(a, "right", left.family, left.corners.T)
    one = np.array(a.one_coeffs, dtype=np.int64)
    lefts = a.batch_left_matrices((one - np.array([en.idempotent.coeffs for en in right.entries],
                                                  dtype=np.int64)) % a.p)
    if (lefts @ _projectors([en.ass.space for en in right.entries]) % a.p != lefts).any():
        raise InternalCheckError("a right kernel ideal is not a two-sided ideal")
    Ideal(a, right.l_rad.space, "twosided")  # raises if the radical is not closed
    return right


@dataclass(frozen=True)
class DualityReport:
    """Both sides' reports, from one builder, and the complement pairing."""

    left: LocalizationReport
    right: LocalizationReport       # read off the left report's corner table
    pairing: tuple[tuple[Subset, Subset], ...]

    @property
    def counts_equal(self) -> bool:
        return self.left.loc_count == self.right.loc_count

    @property
    def l_zero_iff_r_zero(self) -> bool:
        return (self.left.l_rad.dim == 0) == (self.right.l_rad.dim == 0)

    @property
    def r_rad(self) -> Ideal:
        return self.right.l_rad

    @property
    def l_neq_r(self) -> bool:
        return self.left.l_rad.space != self.right.l_rad.space

    def to_dict(self) -> dict:
        return {
            "counts_equal": self.counts_equal,
            "loc_count_left": self.left.loc_count,
            "loc_count_right": self.right.loc_count,
            "pairing": [[subset_str(i), subset_str(ci)] for i, ci in self.pairing],
            "l_zero_iff_r_zero": self.l_zero_iff_r_zero,
            "l_rad_dim": self.left.l_rad.dim,
            "r_rad_dim": self.r_rad.dim,
            "l_neq_r": self.l_neq_r,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }


def duality_report(a: Algebra) -> DualityReport:
    """Left and right classifications with the complement pairing between them.

    The right side is read off the left report (:func:`_right_report`), so
    block indices agree across sides; no opposite algebra is built.  The
    pairing I -> complement(I) is a bijection between the proper subsets on
    the two sides (checked); it reverses inclusion because complements
    within the full set do.
    """
    left = localization_report(a)
    right = _right_report(left)
    full = tuple(range(1, left.family.s + 1))
    left_proper = [en.subset for en in left.entries if en.subset != full]
    right_proper = {en.subset for en in right.entries if en.subset != full}
    pairing = []
    for sub in left_proper:
        comp = tuple(sorted(set(full) - set(sub)))
        if comp not in right_proper:
            raise InternalCheckError("complement of a left subset is not a right subset")
        pairing.append((sub, comp))
    if len(pairing) != len(right_proper):
        raise InternalCheckError("complement map is not onto the right subsets")
    # the complement bijection fixes the counts and the maximality flags
    dual = DualityReport(left, right, tuple(pairing))
    if not dual.l_zero_iff_r_zero:
        raise InternalCheckError("localization radicals do not vanish together")
    return dual


@dataclass(frozen=True)
class TwoSidedReport:
    """Two-sided classification: everything is governed by the primitive
    central idempotents (the finest direct product decomposition), one
    factor descriptor each in ``max_den``."""

    algebra: Algebra
    max_den: tuple[DenSetDescriptor, ...]
    loc_radical: Ideal

    @property
    def central_idempotents(self) -> tuple[Element, ...]:
        return tuple(d.witness_idempotent for d in self.max_den)

    @property
    def factor_quotients(self) -> tuple[Quotient, ...]:
        return tuple(d.quotient for d in self.max_den)

    @property
    def factors(self) -> int:
        return len(self.max_den)

    @property
    def loc_count(self) -> int:
        return (1 << self.factors) - 1

    def powers_criterion(self, r: Element) -> bool:
        """Powers of r form a two-sided denominator set iff r is not
        nilpotent and each factor component is a unit or nilpotent."""
        if self.algebra.batch_nilpotent_mask(np.array([r.coeffs], dtype=np.int64))[0]:
            return False
        for desc in self.max_den:
            if desc.image_is_unit(r):
                continue
            quo = desc.quotient
            if quo.algebra.batch_nilpotent_mask(np.array([quo.project(r).coeffs], dtype=np.int64))[0]:
                continue
            return False
        return True

    def to_dict(self) -> dict:
        return {
            "factors": self.factors,
            "loc_count": self.loc_count,
            "central_idempotents": [list(e.coeffs) for e in self.central_idempotents],
            "factor_dims": [self.algebra.dim - d.ass.dim for d in self.max_den],
            "max_den": [d.to_dict() for d in self.max_den],
            "loc_radical_dim": self.loc_radical.dim,
        }


def two_sided_report(a: Algebra) -> TwoSidedReport:
    """The primitive central idempotents of R are the primitive idempotents
    of its commutative center, split straight off the center subspace by
    :func:`primitive_idempotents`; then the counting and radical facts that
    follow.  The factor ideals (1 - e)R come from one batched elimination.
    The idempotents are checked central, orthogonal and summing to 1, so R
    is the direct product of the factors and the factor ideals meet in 0,
    the radical; the ``two_sided_report`` check of ``verify`` re-derives
    both, and the idempotents as the block sums over the linked blocks."""
    if "two_sided" in a._cache:
        return a._cache["two_sided"]
    cents = primitive_idempotents(a)
    for i, e in enumerate(cents):
        if not _is_central(a, e):
            raise InternalCheckError(f"central idempotent {i} is not central")
    # every subset sum of orthogonal central idempotents is central and idempotent
    check_orthogonal_idempotents(a, cents, "central idempotent")
    spaces = _kernel_spaces(a, np.array([e.coeffs for e in cents], dtype=np.int64), "left")
    descriptors = tuple(DenSetDescriptor("maximal", e, _kernel_class(a, space))
                        for e, space in zip(cents, spaces))
    zero = Ideal._derived(a, Subspace.zero(a.p, a.dim), "twosided")
    report = TwoSidedReport(a, descriptors, zero)
    a._cache["two_sided"] = report
    return report

