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
belong to the ``verify`` battery, :mod:`artinloc.suite`, and so do the
re-proofs of what the builders here hold by theorem: that the right kernel
ideals R(1 - e_I) are two-sided, and that the two-sided report's
idempotents are central, orthogonal and sum to 1.

Each test on an idempotent e has one form, on a batch of coefficient rows,
and a lone element is a batch of one: the corner maps y -> e*y*f
(:func:`_corners`; e is left triangular iff the map at (e, 1 - e) is 0),
the kernel ideals (1 - e)R (:func:`_kernel_spaces`), centrality
(:meth:`Algebra.batch_central_mask`) and the units modulo a kernel ideal
(:meth:`DenSetDescriptor.unit_mask`), and so has each decision procedure,
which refuses an element of another algebra, even one of the same dimension.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebra import (
    Algebra,
    Element,
    Ideal,
    Quotient,
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
    row_chunks,
)
from .oracle import FiniteSetOfElements, monoid_closure
from .structure import IdempotentFamily, block_decomposition, primitive_idempotents

MAX_SUBSET_ENUM = 1 << 20

Subset = tuple[int, ...]


def subset_str(subset: Subset) -> str:
    return "{" + ",".join(str(i) for i in subset) + "}"


def _corners(a: Algebra, es: np.ndarray, fs: np.ndarray) -> np.ndarray:
    """The maps y -> e*y*f on coefficient rows, L_e @ R_f, one per row pair
    (e, f) of ``es`` and ``fs``; the row space of each is e R f, so e R f = 0
    iff its map is zero.  e is left triangular when e R (1 - e) = 0."""
    return a.batch_left_matrices(es) @ a.batch_right_matrices(fs) % a.p


# ---------------------------------------------------------------------------
# Block subsets
# ---------------------------------------------------------------------------

def _subset_masks(subsets: Sequence[Subset]) -> np.ndarray:
    """The 1-based block subsets as bitmasks, block i at bit i - 1."""
    return np.array([sum(1 << (i - 1) for i in sub) for sub in subsets], dtype=np.int64)


def _membership(masks: np.ndarray, s: int) -> np.ndarray:
    """``out[k, i]`` is 1 when block i + 1 is in the subset ``masks[k]``, else 0."""
    return (masks[:, None] >> np.arange(s, dtype=np.int64)) & 1


def _minimal_masks(masks: np.ndarray) -> np.ndarray:
    """Which of the distinct bitmasks have no other one of them inside."""
    count = len(masks)
    has_smaller = np.zeros(count, dtype=bool)
    # the ordered pairs, row-major, a run at a time
    for start, stop in row_chunks(count * count, 1):
        i, j = np.divmod(np.arange(start, stop), count)
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

    def unit_mask(self, xs: np.ndarray) -> np.ndarray:
        """Whether x is a unit modulo the kernel ideal, for each row x of ``xs``."""
        quo = self.quotient
        return quo.algebra.batch_unit_mask(quo.batch_project(xs))

    def core_mask(self, xs: np.ndarray) -> np.ndarray:
        """Whether (1 - e) x (1 - e) = 0, for each row x of ``xs``."""
        a = self.witness_idempotent.algebra
        om = np.array([(a.one - self.witness_idempotent).coeffs], dtype=np.int64)
        return ~(xs @ _corners(a, om, om)[0] % a.p).any(axis=1)

    def members_within(self, guard: int = DEFAULT_GUARD) -> np.ndarray:
        """The unit-preimage set as its coefficient rows, in canonical order
        (the guarded enumeration, one :meth:`Algebra.element_chunks` piece
        at a time)."""
        chunks = self.witness_idempotent.algebra.element_chunks(guard)
        return np.concatenate([coeffs[self.unit_mask(coeffs)] for coeffs in chunks])


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

    @cached_property
    def ideals(self) -> dict[Subspace, Ideal]:
        """The kernel ideal of each class, by its subspace."""
        return {en.ass.space: en.ass for en in self.entries}

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
                         "ass_dim": en.ass.dim, "ass_basis": en.ass.space.array.tolist(),
                         "quotient_dim": a.dim - en.ass.dim} for en in self.entries],
            "minima": [subset_str(s) for s in self.minima],
            "max_den": [d.to_dict() for d in self.max_den],
            "l_rad_dim": self.l_rad.dim,
            "l_rad_basis": self.l_rad.space.array.tolist(),
            "little_rad_dim": self.little_rad.dim,
            "little_rad_basis": self.little_rad.space.array.tolist(),
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
    idems = inside @ fam.rows % p
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
        corners = np.einsum("iab,jba->ij", a.batch_left_matrices(fam.rows), a.batch_right_matrices(fam.rows)) % a.p
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
    row = a.member_rows([s])
    nilpotent, es = _associated_idempotents(a, row)
    rm = a.batch_right_matrices(row)[0]
    powers = [np.eye(a.dim, dtype=np.int64)]
    for _ in range(a.dim):
        powers.append(powers[-1] @ rm % a.p)
    ranks = batch_rank(np.stack(powers), a.p).tolist()
    n = ranks.index(ranks[-1])
    if nilpotent[0]:
        return AssociatedIdempotent(n, a.zero, a.one, True)
    e = a.element(es[0])
    return AssociatedIdempotent(n, e, a.one - e, False)


def _powers_rows(a: Algebra, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """:func:`powers_denominator_criterion` on every row of ``xs``: which
    qualify, the group of each (its associated idempotent, numbered by first
    appearance), the minimal core exponents, and (e, (1 - e)R) per group.

    Apart from nilpotency of (1 - e) s (1 - e) and the core exponent, the
    criterion depends on s only through its associated idempotent e, so
    the triangularity test runs once over the distinct e, in one batch, and
    the kernel ideals of the e that some row qualifies with come from one
    elimination.  When a
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
    one = np.array(a.one_coeffs, dtype=np.int64)
    reps = np.array(list(index), dtype=np.int64).reshape(len(index), d)
    triangular = reps.any(axis=1) & ~_corners(a, reps, (one - reps) % p).any(axis=(1, 2))
    cand = ~nilpotent & triangular[group]
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
    # a warm left report already holds the ideal of each class
    report = a._cache.get("report_left")
    known = report.ideals if report else {}
    qualified = list(dict.fromkeys(group[ok].tolist()))
    spaces = _kernel_spaces(a, reps[qualified], "left") if qualified else []
    classes = {g: (a.element(reps[g]), known.get(space) or _kernel_class(a, space))
               for g, space in zip(qualified, spaces)}
    return ok, group, min_exp, classes


def powers_denominator_criteria(a: Algebra, xs: Sequence[Element]
                                ) -> list[tuple[bool, DenSetDescriptor | None]]:
    """:func:`powers_denominator_criterion` at each of ``xs``, in order, from
    one :func:`_powers_rows` over all of them."""
    ok, group, min_exp, classes = _powers_rows(a, a.member_rows(xs))
    return [(True, DenSetDescriptor("powers", *classes[g], min_core_exponent=m)) if good else (False, None)
            for good, g, m in zip(ok.tolist(), group.tolist(), min_exp.tolist())]


def powers_denominator_criterion(a: Algebra, s: Element) -> tuple[bool, DenSetDescriptor | None]:
    """Do the powers of s form a denominator set?

    Nilpotent s fails outright (its powers reach 0, which no multiplicative
    set may contain).  Otherwise, with e the idempotent associated with s:
    the powers qualify iff e R (1 - e) = 0 and (1 - e) s (1 - e) is
    nilpotent; the kernel ideal is then (1 - e)R and the localization is
    the quotient by it.  The core is the set of powers s^i, i >= 1, with
    (1 - e) s^i (1 - e) = 0 (every i once one qualifies); for a unit the
    kernel ideal is zero and every power, including s^0, is in the core.
    This is :func:`powers_denominator_criteria` on a batch of one.
    """
    return powers_denominator_criteria(a, [s])[0]


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
    row = a.member_rows([e])
    if e.is_zero():
        raise InputError("the idempotent 0 is excluded (its set would contain 0)")
    if (a.batch_mul(row, row) != row).any():
        raise InputError("element is not idempotent")
    # the corners e R (1 - e) and (1 - e) R e, in one call
    pair = np.concatenate([row, (np.array([a.one_coeffs]) - row) % a.p])
    left, right = (~_corners(a, pair, pair[::-1]).any(axis=(1, 2))).tolist()
    central = bool(a.batch_central_mask(row)[0])
    if (left and right) != central:
        raise InternalCheckError("two-sided triangularity must coincide with centrality")
    descriptor = (DenSetDescriptor("idempotent", e, _kernel_class(a, _kernel_spaces(a, row, "left")[0]))
                  if left else None)
    return IdempotentCheck(left, right, left and right, central, descriptor)


def monoid_denominator_decisions(a: Algebra, gen_sets: Sequence[Sequence[Element]],
                                 closures: Sequence[FiniteSetOfElements]
                                 ) -> list[tuple[bool, DenSetDescriptor | None]]:
    """:func:`monoid_denominator_decision` on each generator set, given the
    closure ``closures[k]`` of ``gen_sets[k]``.  Apart from nilpotency (of s
    and of (1 - e) s (1 - e)) and core membership (ker(s.) = ass), whether a
    member s is a witness depends only on its associated idempotent e.  So
    one :func:`_powers_rows` over the members of every closure free of 0
    groups them by e, each group takes one unit test of the generators of
    the sets it meets, and one rank decides the core of every witness: the
    same witnesses and first core witness as the powers criterion member by
    member."""
    gen_rows = [a.member_rows(gens) for gens in gen_sets]
    live = [k for k, closure in enumerate(closures) if not closure.contains_zero]
    xs = np.concatenate([closures[k].rows for k in live] + [np.zeros((0, a.dim), dtype=np.int64)])
    owner = np.repeat(np.array(live, dtype=np.int64), [len(closures[k]) for k in live])
    ok, group, _, classes = _powers_rows(a, xs)
    descriptors = {g: DenSetDescriptor("monoid", e, ass) for g, (e, ass) in classes.items()}
    # per (set, group) of a qualifying member: are the set's generators units
    # modulo the group's kernel ideal?  One test per group
    units = dict.fromkeys(zip(owner[ok].tolist(), group[ok].tolist()), True)
    for g, desc in descriptors.items():
        sets = [k for k, h in units if h == g]
        found = desc.unit_mask(np.concatenate([gen_rows[k] for k in sets])).tolist()
        for k in sets:
            units[k, g], found = all(found[:len(gen_rows[k])]), found[len(gen_rows[k]):]
    w = np.flatnonzero(ok & np.array([units.get(key, False) for key in zip(owner.tolist(), group.tolist())],
                                     dtype=bool))
    at_set, at_group = owner[w], group[w]
    witnessed = {k for (k, _), unit in units.items() if unit}
    if len({(k, descriptors[g].ass.space) for (k, g), unit in units.items() if unit}) != len(witnessed):
        raise InternalCheckError("witnesses disagree about the kernel ideal")
    # ker(s.) = ass iff s kills the basis of ass and s. has rank dim - dim ass
    left = a.batch_left_matrices(xs[w])
    ranks = batch_rank(left, a.p)
    core = np.zeros(len(w), dtype=bool)
    for g in set(at_group.tolist()):
        at, ass = at_group == g, descriptors[g].ass
        core[at] = (ranks[at] == a.dim - ass.dim) & ~(ass.space.array @ left[at] % a.p).any(axis=(1, 2))
    # written in reverse, each set keeps its first core witness in closure order
    first = dict(zip(at_set[core][::-1].tolist(), at_group[core][::-1].tolist()))
    if len(first) != len(witnessed):
        raise InternalCheckError("no witness with full left-multiplication kernel")
    return [(True, descriptors[first[k]]) if k in first else (False, None) for k in range(len(closures))]


def monoid_denominator_decision(a: Algebra, gens: Sequence[Element],
                                guard: int = DEFAULT_GUARD) -> tuple[bool, DenSetDescriptor | None]:
    """Decide whether the monoid generated by ``gens`` is a left denominator set.

    Implements the witness search: the monoid qualifies iff it contains an
    element s whose powers qualify and modulo whose kernel ideal every
    generator becomes a unit.  The kernel ideal is witness-independent;
    this is asserted across all witnesses, and a witness whose
    left-multiplication kernel equals the whole ideal (a core element) must
    exist; the first one in closure order gives the descriptor.  This is
    :func:`monoid_denominator_decisions` on a batch of one.
    """
    return monoid_denominator_decisions(a, [gens], [monoid_closure(a, gens, guard)])[0]


def classify_element(a: Algebra, r: Element, report: LocalizationReport) -> dict:
    """Localizability of one element against the maximal classes."""
    if report.algebra is not a:
        raise InputError("report does not match the algebra")
    row = a.member_rows([r])
    # the maximal descriptors are the classes at the minima, in their order
    witnesses = [sub for sub, desc in zip(report.minima, report.max_den) if desc.unit_mask(row)[0]]
    left_localizable = bool(witnesses)
    completely = len(witnesses) == len(report.minima)
    if a.batch_unit_mask(row)[0] and not completely:
        raise InternalCheckError("a unit must be completely localizable")
    return {"left_localizable": left_localizable, "completely": completely,
            "witnesses": tuple(witnesses)}


# ---------------------------------------------------------------------------
# Duality and the two-sided theory
# ---------------------------------------------------------------------------

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

    The right classes are the left classes of the opposite algebra, whose
    corner 1_i R^op 1_j is 1_j R 1_i: :func:`_side_report` reads them off
    the left report's transposed corner table and takes their kernel ideals
    R(1 - e_I) from the right multiplications, so block indices agree across
    sides and no opposite algebra is built.  Those ideals are two-sided by
    theorem; the ``duality`` check of ``verify`` rebuilds them and compares
    the opposite algebra's own report.  The pairing I -> complement(I) is a
    bijection between the proper subsets on the two sides (checked); it
    reverses inclusion because complements within the full set do.
    """
    left = localization_report(a)
    right = _side_report(a, "right", left.family, left.corners.T)
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
        """:meth:`powers_criteria` at r alone."""
        return bool(self.powers_criteria(self.algebra.member_rows([r]))[0])

    def powers_criteria(self, rows: np.ndarray) -> np.ndarray:
        """Whether the powers of each row form a two-sided denominator set: iff
        it is not nilpotent and each factor component is a unit or nilpotent."""
        live = ~self.algebra.batch_nilpotent_mask(rows)
        for quo in self.factor_quotients:
            at = live.nonzero()[0]
            if not len(at):
                break
            proj = quo.batch_project(rows[at])
            rest = (~quo.algebra.batch_unit_mask(proj)).nonzero()[0]
            if len(rest):
                live[at[rest]] = quo.algebra.batch_nilpotent_mask(proj[rest])
        return live

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
    The idempotents are central by construction (the splitter works inside
    the center) and checked orthogonal and summing to 1 by the splitter, so
    R is the direct product of the factors and the factor ideals meet in 0,
    the radical.  The ``two_sided_report`` check of ``verify`` re-proves the
    centrality and the orthogonality, re-derives the factor ideals and their
    meet, and the idempotents as the block sums over the linked blocks."""
    if "two_sided" in a._cache:
        return a._cache["two_sided"]
    cents = primitive_idempotents(a)
    descriptors = tuple(DenSetDescriptor("maximal", a.element(e), _kernel_class(a, space))
                        for e, space in zip(cents.tolist(), _kernel_spaces(a, cents, "left")))
    zero = Ideal._derived(a, Subspace.zero(a.p, a.dim), "twosided")
    report = TwoSidedReport(a, descriptors, zero)
    a._cache["two_sided"] = report
    return report

