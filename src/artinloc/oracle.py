"""Definition-level brute-force verifiers over finite rings.

Everything here works from the definitions alone (Ore condition,
reversibility, quasi-regularity, exhaustive enumeration) so it can serve
as independent ground truth for the classification layer.  The only
concessions to speed are logical rewritings, not theory:

* the inner existential of the Ore condition is resolved by subspace
  membership (s'r in Rs is linear in r), never by scanning the ring;
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
* reversibility (r*s = 0 forces r into ass) tests the members of each
  right kernel {r : r*s = 0} against the K_s in one batch per chunk, in
  enumeration order, so the first failing member is the counterexample;
* the core condition p**dim(K_s) = |ass| with K_s inside ass holds iff
  K_s equals the span of ass (K_s = ass then makes ass a subspace, and
  conversely).

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

from .algebra import Algebra, Element, Ideal, cached_opposite, ideal_combine, regular_matrix
from .linalg import (
    DEFAULT_GUARD,
    InputError,
    InternalCheckError,
    ResourceGuardError,
    Subspace,
    batch_member_mask,
    batch_rank,
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
    """Closure of gens plus 1 under multiplication; reports whether 0 crept in."""
    if guard < 1:
        raise InputError("guard must be positive")
    gen_coeffs = [g.coeffs for g in gens]
    seen = {a.one_coeffs}
    frontier = [a.one_coeffs]
    while frontier:
        new = []
        for w in frontier:
            for g in gen_coeffs:
                prod = a.mul_coeffs(w, g)
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

    @property
    def ass_dim(self) -> int:
        return self.ass.dim if self.ass is not None else -1


def _preimage_space(a: Algebra, left_mat: np.ndarray, target: Subspace) -> Subspace:
    """{r : s'*r in target} as a subspace (solve through the stacked system)."""
    d = a.dim
    big = kernel(np.concatenate([left_mat, -target.array % a.p]), a.p)
    vecs = [row[:d] for row in big.basis]
    return Subspace.from_vectors(a.p, d, vecs)


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


def _ore_holds_for(a: Algebra, right_mat: np.ndarray, left_mats: np.ndarray,
                   guard: int) -> tuple[bool, Element | None]:
    """Left Ore at s: every r admits s' in S with s'*r in R*s.

    ``right_mat`` is the right-multiplication matrix of s, whose row space
    is R*s, and ``left_mats`` holds the left-multiplication matrices of the
    members s'.  Returns (ok, first failing r in canonical order if not ok)."""
    rs = Subspace.from_vectors(a.p, a.dim, right_mat.tolist())
    spaces: list[Subspace] = []
    seen: set = set()
    seen_lm: set[bytes] = set()
    for i in range(len(left_mats)):
        lm_key = left_mats[i].tobytes()
        if lm_key in seen_lm:
            continue
        seen_lm.add(lm_key)
        v = _preimage_space(a, left_mats[i], rs)
        if v.dim == a.dim:
            return True, None
        if v.basis not in seen:
            seen.add(v.basis)
            spaces.append(v)
    # p or fewer proper subspaces can never cover the space
    few = len(spaces) <= a.p
    total = a.p ** a.dim
    if not few and total > guard:
        raise ResourceGuardError(f"Ore fallback sweep of {total} elements exceeds the guard",
                                 total, guard)
    bad = _first_uncovered(a, spaces, guard)
    if bad is None and few:
        raise InternalCheckError("claimed non-covering union covered everything")
    return bad is None, bad


def _first_uncovered(a: Algebra, spaces: list[Subspace], guard: int) -> Element | None:
    """The first element of R in canonical order that lies in none of
    ``spaces``, or None when they cover R."""
    total = a.p ** a.dim
    if total > guard:
        raise ResourceGuardError("counterexample search exceeds the guard", total, guard)
    bad = _first_outside(Subspace.full(a.p, a.dim), spaces)
    return None if bad is None else Element(a, bad)


def brute_denominator_check(a: Algebra, S: FiniteSetOfElements, side: str = "left",
                            guard: int = DEFAULT_GUARD) -> BruteDenResult:
    """Definitional denominator-set check.

    Left: the Ore condition for every (s, r), then reversibility
    (r*s = 0 implies r is annihilated by some member), with
    ass = {r : s*r = 0 for some s} held exactly as a union of kernels
    and, on success, verified to be a subspace and a two-sided ideal.  The
    core is the set of members whose left-multiplication kernel equals ass.
    Right is the left check in the opposite algebra; two-sided runs both
    and requires the two kernels to coincide.
    """
    if S.contains_zero:
        raise InputError("a multiplicative set may not contain 0")
    if side == "right":
        op = cached_opposite(a)
        s_op = FiniteSetOfElements(op, tuple(Element(op, m.coeffs) for m in S.members), False)
        res = brute_denominator_check(op, s_op, "left", guard)
        return _transfer_result(a, res)
    if side == "twosided":
        left = brute_denominator_check(a, S, "left", guard)
        right = brute_denominator_check(a, S, "right", guard)
        is_den = left.is_den and right.is_den
        # both unions are subspaces here, so equal spans mean equal sets
        if is_den and left.ass_members != right.ass_members:
            raise InternalCheckError("two-sided denominator set with asymmetric kernels")
        core_members = [m for m in left.core if m in right.core]
        return BruteDenResult(left.is_ore and right.is_ore, is_den,
                              left.ass_members, left.ass if is_den else None,
                              FiniteSetOfElements.from_elements(a, core_members),
                              left.counterexample or right.counterexample)
    if side != "left":
        raise InputError(f"bad side {side!r}")

    members = S.members
    if a.one not in S:
        raise InputError("a multiplicative set must contain 1")

    # One batched pass builds every member's multiplication matrices.
    coeff_arr = np.array([m.coeffs for m in members], dtype=np.int64)
    left_mats = a.batch_left_matrices(coeff_arr)
    right_mats = a.batch_right_matrices(coeff_arr)

    # A matrix of full rank has the zero kernel (rank-nullity), so only the
    # rank-deficient ones are solved one at a time.
    left_full = batch_rank(left_mats, a.p) == a.dim
    right_full = batch_rank(right_mats, a.p) == a.dim

    # ass(S) = union of the left-multiplication kernels, held as the kernels.
    zero = Subspace.zero(a.p, a.dim)
    kernels: list[Subspace] = []
    kernel_cache: dict[bytes, Subspace] = {}
    for i in range(len(members)):
        if left_full[i]:
            kernels.append(zero)
            continue
        key = left_mats[i].tobytes()
        ker = kernel_cache.get(key)
        if ker is None:
            ker = kernel_cache[key] = kernel(left_mats[i], a.p)
        kernels.append(ker)
    distinct = list(dict.fromkeys(kernels))
    span = Subspace.from_vectors(a.p, a.dim, [row for ker in distinct for row in ker.basis])
    if span in distinct:
        ass_space = span
    elif len(distinct) <= a.p:
        ass_space = None
    else:
        ass_space = span if _first_outside(span, distinct) is None else None

    # Ore condition.
    is_ore = True
    counterexample = None
    ore_cache: dict[bytes, tuple[bool, Element | None]] = {}
    for i, s in enumerate(members):
        if right_full[i]:
            continue  # R*s = R
        key = right_mats[i].tobytes()
        if key not in ore_cache:
            ore_cache[key] = _ore_holds_for(a, right_mats[i], left_mats, guard)
        ok, bad_r = ore_cache[key]
        if not ok:
            is_ore = False
            counterexample = (s, bad_r)
            break

    # Reversibility: r*s = 0 forces r into ass.
    reversible = True
    if is_ore:
        rev_cache: set[bytes] = set()
        for i, s in enumerate(members):
            key = right_mats[i].tobytes()
            if right_full[i] or key in rev_cache:
                continue  # a zero right kernel holds only 0, which is in ass
            rev_cache.add(key)
            right_ker = kernel(right_mats[i], a.p)
            bad = _first_outside(right_ker, distinct)
            if bad is not None:
                reversible = False
                counterexample = (s, Element(a, bad))
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


def _transfer_result(a: Algebra, res: BruteDenResult) -> BruteDenResult:
    ass = None if res.ass is None else Ideal(a, res.ass.space, "twosided")
    core = FiniteSetOfElements(a, tuple(Element(a, m.coeffs) for m in res.core.members),
                               res.core.contains_zero)
    ce = None
    if res.counterexample is not None:
        s, r = res.counterexample
        ce = (Element(a, s.coeffs), Element(a, r.coeffs))
    return BruteDenResult(res.is_ore, res.is_den, res.ass_members, ass, core, ce)


def brute_radical(a: Algebra, guard: int = DEFAULT_GUARD) -> Ideal:
    """The set {x : 1 - r*x is a unit for every r}, computed definitionally.

    Since {r*x : r in R} is exactly the row space of the right-multiplication
    matrix of x, the universal condition for x is a sweep over that
    subspace.  Cheap instances (r a basis element, r = 1) filter candidates
    first; every surviving candidate gets the complete subspace sweep.
    The unit and candidate masks are built chunk by chunk.  The result is
    checked to be a nilpotent two-sided ideal.
    """
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
    power = rad
    for _ in range(d):
        if power.dim == 0:
            break
        power = ideal_combine(power, rad, "product")
    if power.dim != 0:
        raise InternalCheckError("quasi-regular ideal is not nilpotent")
    return rad


def brute_idempotents(a: Algebra, guard: int = DEFAULT_GUARD) -> FiniteSetOfElements:
    """All solutions of e*e = e by full enumeration."""
    total = a.p ** a.dim
    if total > guard:
        raise ResourceGuardError(f"{total} elements exceed the guard {guard}", total, guard)
    found = []
    for start, stop in row_chunks(total):
        coeffs = a.enumerate_coeffs(start, stop)
        mask = (a.batch_mul(coeffs, coeffs) == coeffs).all(axis=1)
        found.extend(Element(a, tuple(int(v) for v in row)) for row in coeffs[mask])
    return FiniteSetOfElements.from_elements(a, found)
