"""Definition-level brute-force verifiers over finite rings.

Everything here works from the definitions alone (Ore condition,
reversibility, quasi-regularity, exhaustive enumeration) so it can serve
as independent ground truth for the classification layer.  The only
concessions to speed are logical rewritings, not theory:

* the inner existential of the Ore condition is resolved by subspace
  membership (s'r in Rs is linear in r), never by scanning the ring:
  residues modulo Rs are linear, so V_{s'} = {r : s'r in Rs} is the left
  kernel of the residues of the rows of the left-multiplication matrix of
  s'.  Each target s takes one residue sweep over the distinct left
  matrices stacked, which decides whether some V_{s'} is all of R, and
  only when none is are the V_{s'} solved, in one batched kernel;
* a GF(p) vector space is never the union of p or fewer proper subspaces,
  so when the candidate kernels V_{s'} are few, covering is equivalent to
  one of them being everything;
* {r*x : r in R} IS the row space of the right-multiplication matrix of x,
  so universally quantified products over the ring reduce to subspace
  sweeps;
* ass(S) = {r : s*r = 0 for some s in S} is held as its distinct kernels
  K_s, never as a list of members: r is in ass iff r lies in some K_s.
  The span of ass is the sum of the kernels, one RREF over their basis
  rows, and ass is a subspace iff every member of that span lies in some
  K_s.  That holds at once when the span is itself one of the K_s, and by
  the covering rule above it fails at once when there are at most p
  kernels and none of them is the span;
* reversibility (r*s = 0 forces r into ass) needs no sweep for a right
  kernel {r : r*s = 0} that lies inside a single K_s; the others test
  their members against the K_s in one batch per chunk, in enumeration
  order, so the first failing member is the counterexample;
* the core condition p**dim(K_s) = |ass| with K_s inside ass holds iff
  K_s equals the span of ass (K_s = ass then makes ass a subspace, and
  conversely).

The linear algebra of a check is batched over the distinct matrices of
S: one elimination ranks every left and right multiplication matrix, and
the kernels K_s of the rank-deficient left matrices, the V_{s'} of one
target and the right kernels each come from one :func:`batch_kernels`.
A lone matrix takes the scalar :func:`kernel` instead, which is faster on
one small matrix (the {1, e} checks).  :func:`monoid_closure` is a
breadth-first search one level at a time, each chunk of the frontier
multiplied by every generator in one matmul.

Every sweep over p**k vectors runs ``CHUNK_ROWS`` rows at a time in the
enumeration order, so its memory is set by the chunk size rather than by
p**k, and a search for a first counterexample stops at the chunk that
holds it.  Enumerations of the whole ring respect a guard on p**dim
(default 2**20).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .algebra import Algebra, Element, Ideal, check_nilpotent, regular_matrix
from .linalg import (
    DEFAULT_GUARD,
    InputError,
    InternalCheckError,
    ResourceGuardError,
    Subspace,
    batch_kernels,
    batch_member_mask,
    batch_rank,
    batch_row_spaces,
    check_guard,
    kernel,
    row_chunks,
)

__all__ = ["FiniteSetOfElements", "monoid_closure", "brute_denominator_check",
           "brute_radical", "brute_idempotents", "BruteDenResult"]


@dataclass(frozen=True)
class FiniteSetOfElements:
    """A deduplicated, canonically ordered (by coefficient vector) element set."""

    algebra: Algebra
    members: tuple[Element, ...]
    contains_zero: bool

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    @cached_property
    def _member_set(self) -> frozenset[Element]:
        return frozenset(self.members)

    def __contains__(self, x: Element) -> bool:
        return x in self._member_set

    @staticmethod
    def from_elements(a: Algebra, elements: Iterable[Element]) -> "FiniteSetOfElements":
        uniq = sorted({e.coeffs for e in elements})
        members = tuple(Element(a, c) for c in uniq)
        zero = (0,) * a.dim in set(uniq)
        return FiniteSetOfElements(a, members, zero)


def monoid_closure(a: Algebra, gens: Sequence[Element], guard: int = DEFAULT_GUARD) -> FiniteSetOfElements:
    """Closure of gens plus 1 under multiplication; reports whether 0 crept in.

    A breadth-first search one level at a time: a chunk of the frontier
    times the generators' right-multiplication matrices, side by side, is
    one matmul holding every product w*g, and new members are found
    through a set of coefficient tuples.
    """
    check_guard(guard)
    d = a.dim
    gen_arr = np.array([g.coeffs for g in gens], dtype=np.int64).reshape(-1, d)
    # column block g of ``right`` is the matrix of y -> y*g
    right = a.batch_right_matrices(gen_arr).transpose(1, 0, 2).reshape(d, -1)
    seen = {a.one_coeffs}
    frontier = [a.one_coeffs]
    while frontier:
        new = []
        for start, stop in row_chunks(len(frontier)):
            prods = np.array(frontier[start:stop], dtype=np.int64) @ right % a.p
            for prod in map(tuple, prods.reshape(-1, d).tolist()):
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
                    if len(seen) > guard:
                        raise ResourceGuardError(f"monoid closure exceeded the guard {guard}",
                                                 len(seen), guard)
        frontier = new
    return FiniteSetOfElements.from_elements(a, [Element(a, c) for c in seen])


@dataclass(frozen=True)
class BruteDenResult:
    """Outcome of :func:`brute_denominator_check`.

    ``ass_members`` is the kernel union ass(S) when it is a subspace (held
    as that subspace, which is then also its span), and ``None`` when the
    union is not closed under addition.  On a denominator set it is never
    ``None``, and ``ass`` is the same subspace as a two-sided ideal.
    """

    is_ore: bool
    is_den: bool
    ass_members: Subspace | None
    ass: Ideal | None
    core: "FiniteSetOfElements"
    counterexample: tuple[Element, Element] | None


def _in_union(vecs: np.ndarray, spaces: Sequence[Subspace]) -> np.ndarray:
    """Mask of the rows of ``vecs`` that lie in at least one of ``spaces``."""
    hit = np.zeros(len(vecs), dtype=bool)
    for sp in spaces:
        hit |= batch_member_mask(vecs, sp)
    return hit


def _first_outside(space: Subspace, spaces: Sequence[Subspace]) -> tuple[int, ...] | None:
    """The first member of ``space``, in :meth:`Subspace.member_chunks` order,
    that lies in none of ``spaces``; None when the union covers ``space``."""
    for chunk in space.member_chunks():
        hit = _in_union(chunk, spaces)
        if not hit.all():
            return tuple(int(v) for v in chunk[int(np.argmin(hit))])
    return None


def _first_uncovered(a: Algebra, spaces: list[Subspace], guard: int) -> Element | None:
    """The first element of R in canonical order that lies in none of
    ``spaces``, or None when they cover R."""
    total = a.p ** a.dim
    if total > guard:
        raise ResourceGuardError("counterexample search exceeds the guard", total, guard)
    bad = _first_outside(Subspace.full(a.p, a.dim), spaces)
    return None if bad is None else Element(a, bad)


def _kernels(mats: np.ndarray, p: int) -> list[Subspace]:
    """:func:`batch_kernels`, except that a lone matrix takes the scalar
    :func:`kernel`, which is faster on one small matrix than a batched
    elimination."""
    if len(mats) <= 1:
        return [kernel(m, p) for m in mats]
    return batch_kernels(mats, p)


def _distinct(mats: np.ndarray) -> tuple[list[int], list[int]]:
    """The index of the first occurrence of each distinct matrix, in order,
    and for every matrix the position of its first occurrence in that list."""
    first: list[int] = []
    where: dict[bytes, int] = {}
    which = []
    for i, m in enumerate(mats):
        key = m.tobytes()
        if key not in where:
            where[key] = len(first)
            first.append(i)
        which.append(where[key])
    return first, which


def _ore_counterexample(a: Algebra, rs: Subspace, left_rows: np.ndarray,
                        guard: int) -> Element | None:
    """Left Ore at s: every r admits s' in S with s'*r in R*s = ``rs``.

    ``left_rows`` stacks the distinct left-multiplication matrices L of
    the members s'.  Residues modulo R*s are linear, so the residue of
    r*L is r times the residues of the rows of L, and
    V_{s'} = {r : s'*r in R*s} is the left kernel of that residue matrix.
    Returns the first r in canonical order lying in no V_{s'}, or None.
    """
    p, d = a.p, a.dim
    res = rs.residues(left_rows).reshape(-1, d, d - rs.dim)
    if not res.any(axis=(1, 2)).all():
        return None  # some V_{s'} is the whole ring
    spaces = list(dict.fromkeys(_kernels(res, p)))
    # p or fewer proper subspaces can never cover the space
    few = len(spaces) <= p
    total = p ** d
    if not few and total > guard:
        raise ResourceGuardError(f"Ore fallback sweep of {total} elements exceeds the guard",
                                 total, guard)
    bad = _first_uncovered(a, spaces, guard)
    if bad is None and few:
        raise InternalCheckError("claimed non-covering union covered everything")
    return bad


def _inside_one(subs: Sequence[Subspace], spaces: Sequence[Subspace]) -> np.ndarray:
    """Mask of the ``subs`` that lie inside at least one of ``spaces``."""
    rows = np.concatenate([sub.array for sub in subs])
    owner = np.repeat(np.arange(len(subs)), [sub.dim for sub in subs])
    inside = np.zeros(len(subs), dtype=bool)
    for sp in spaces:
        outside = np.zeros(len(subs), dtype=bool)
        outside[owner[sp.residues(rows).any(axis=1)]] = True
        inside |= ~outside
    return inside


def brute_denominator_check(a: Algebra, S: FiniteSetOfElements, side: str = "left",
                            guard: int = DEFAULT_GUARD) -> BruteDenResult:
    """Definitional denominator-set check.

    Left: the Ore condition for every (s, r), then reversibility
    (r*s = 0 implies r is annihilated by some member), with
    ass = {r : s*r = 0 for some s} held exactly as a union of kernels
    and, on success, verified to be a subspace and a two-sided ideal.  The
    core is the set of members whose left-multiplication kernel equals ass.
    Right is the left check in the opposite algebra, whose multiplication
    matrices are these swapped and whose two-sided ideals are these, so it
    runs here on the same matrices and ranks.  Two-sided runs both and
    requires the two kernels to coincide.
    """
    check_guard(guard)
    if S.contains_zero:
        raise InputError("a multiplicative set may not contain 0")
    if side not in ("left", "right", "twosided"):
        raise InputError(f"bad side {side!r}")
    if a.one not in S:
        raise InputError("a multiplicative set must contain 1")
    # One batched pass builds every member's multiplication matrices, and
    # one elimination ranks them all.
    n = len(S)
    coeff_arr = np.array([m.coeffs for m in S.members], dtype=np.int64)
    mats = np.concatenate([a.batch_left_matrices(coeff_arr), a.batch_right_matrices(coeff_arr)])
    ranks = batch_rank(mats, a.p)
    if side != "right":
        left = _left_check(a, S.members, mats[:n], mats[n:], ranks[:n], ranks[n:], guard)
        if side == "left":
            return left
    right = _left_check(a, S.members, mats[n:], mats[:n], ranks[n:], ranks[:n], guard)
    if side == "right":
        return right
    is_den = left.is_den and right.is_den
    # both unions are subspaces here, so equal spans mean equal sets
    if is_den and left.ass_members != right.ass_members:
        raise InternalCheckError("two-sided denominator set with asymmetric kernels")
    core_members = [m for m in left.core if m in right.core]
    return BruteDenResult(left.is_ore and right.is_ore, is_den,
                          left.ass_members, left.ass if is_den else None,
                          FiniteSetOfElements.from_elements(a, core_members),
                          left.counterexample or right.counterexample)


def _left_check(a: Algebra, members: tuple[Element, ...], left_mats: np.ndarray,
                right_mats: np.ndarray, left_ranks: np.ndarray, right_ranks: np.ndarray,
                guard: int) -> BruteDenResult:
    """The left check of :func:`brute_denominator_check` on the members'
    multiplication matrices and their ranks."""
    p, d = a.p, a.dim
    # ass(S) = union of the left-multiplication kernels, held as the
    # kernels.  A matrix of full rank has the zero kernel (rank-nullity), so
    # only the distinct rank-deficient ones are solved, in one batch.
    left_first, left_which = _distinct(left_mats)
    deficient = [i for i in left_first if left_ranks[i] < d]
    solved = dict(zip(deficient, _kernels(left_mats[deficient], p)))
    zero = Subspace.zero(p, d)
    kernels = [solved.get(left_first[w], zero) for w in left_which]
    distinct = list(dict.fromkeys(kernels))
    span = Subspace.from_vectors(p, d, [row for ker in distinct for row in ker.basis])
    if span in distinct:
        ass_space = span
    elif len(distinct) <= p:
        ass_space = None
    else:
        ass_space = span if _first_outside(span, distinct) is None else None

    # Ore condition, at each distinct rank-deficient right matrix in member
    # order (R*s = R at the others).
    targets = [i for i in _distinct(right_mats)[0] if right_ranks[i] < d]
    left_rows = left_mats[left_first].reshape(-1, d)
    is_ore = True
    counterexample = None
    for i, rs in zip(targets, batch_row_spaces(right_mats[targets], p)):
        bad_r = _ore_counterexample(a, rs, left_rows, guard)
        if bad_r is not None:
            is_ore = False
            counterexample = (members[i], bad_r)
            break

    # Reversibility: r*s = 0 forces r into ass.  A zero right kernel holds
    # only 0, which is in ass, and one inside a single K_s is covered.
    reversible = True
    if is_ore and targets:
        right_kers = _kernels(right_mats[targets], p)
        covered = _inside_one(right_kers, distinct)
        for i, right_ker, skip in zip(targets, right_kers, covered):
            bad = None if skip else _first_outside(right_ker, distinct)
            if bad is not None:
                reversible = False
                counterexample = (members[i], Element(a, bad))
                break

    is_den = is_ore and reversible
    ass_ideal = None
    if is_den:
        if ass_space is None:
            raise InternalCheckError("kernel union of a denominator set is not a subspace")
        ass_ideal = Ideal(a, ass_space, "twosided")
    core = [s for s, ker in zip(members, kernels) if ker == span]
    return BruteDenResult(is_ore, is_den, ass_space, ass_ideal,
                          FiniteSetOfElements.from_elements(a, core), counterexample)


def brute_radical(a: Algebra, guard: int = DEFAULT_GUARD) -> Ideal:
    """The set {x : 1 - r*x is a unit for every r}, computed definitionally.

    Since {r*x : r in R} is exactly the row space of the right-multiplication
    matrix of x, the universal condition for x is a sweep over that
    subspace.  Cheap instances (r a basis element, r = 1) filter candidates
    first; every surviving candidate gets the complete subspace sweep.
    The unit and candidate masks are built chunk by chunk.  The result is
    checked to be a nilpotent two-sided ideal.
    """
    check_guard(guard)
    p, d = a.p, a.dim
    total = p ** d
    if total > guard:
        raise ResourceGuardError(f"{total} elements exceed the guard {guard}", total, guard)
    unit_mask = np.concatenate([a.batch_unit_mask(a.enumerate_coeffs(start, stop))
                                for start, stop in row_chunks(total)])
    one = np.array(a.one_coeffs, dtype=np.int64)

    def quasi_regular(xs: np.ndarray) -> np.ndarray:
        """Mask of the rows x of ``xs`` for which 1 - x is a unit."""
        return unit_mask[a.coeffs_to_indices(one - xs)]

    probes = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)] + [a.one_coeffs]
    survivors = []
    for start, stop in row_chunks(total):
        # candidates that fail a probe are dropped before the next one
        cand = a.enumerate_coeffs(start, stop)
        for r in probes:
            prods = a.batch_mul_left(r, cand)
            for c in range(1, p):
                keep = quasi_regular(c * prods)
                cand, prods = cand[keep], prods[keep]
        survivors.extend(tuple(int(v) for v in row) for row in cand)
    # Exact check for survivors.  The condition depends only on the left
    # ideal {r*x : r in R} = row space of the right-multiplication matrix,
    # so answers are memoized per distinct row space.
    members = []
    verdicts: dict[tuple, bool] = {}
    for x in survivors:
        rx = Subspace.from_vectors(p, d, regular_matrix(a, a.element(x), "right").tolist())
        verdict = verdicts.get(rx.basis)
        if verdict is None:
            verdict = all(quasi_regular(chunk).all() for chunk in rx.member_chunks())
            verdicts[rx.basis] = verdict
        if verdict:
            members.append(x)
    span = Subspace.from_vectors(p, d, members)
    if p ** span.dim != len(members):
        raise InternalCheckError("quasi-regular set is not a subspace")
    rad = Ideal(a, span, "twosided")
    check_nilpotent(rad, "quasi-regular ideal is not nilpotent")
    return rad


def brute_idempotents(a: Algebra, guard: int = DEFAULT_GUARD) -> FiniteSetOfElements:
    """All solutions of e*e = e by full enumeration."""
    check_guard(guard)
    total = a.p ** a.dim
    if total > guard:
        raise ResourceGuardError(f"{total} elements exceed the guard {guard}", total, guard)
    found = []
    for start, stop in row_chunks(total):
        coeffs = a.enumerate_coeffs(start, stop)
        mask = (a.batch_mul(coeffs, coeffs) == coeffs).all(axis=1)
        found.extend(Element(a, tuple(int(v) for v in row)) for row in coeffs[mask])
    return FiniteSetOfElements.from_elements(a, found)
