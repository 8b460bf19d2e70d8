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
  sweeps.

Enumerations respect a guard on p**dim (default 2**20).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .algebra import Algebra, Element, Ideal, regular_matrix
from .linalg import (
    DEFAULT_GUARD,
    InputError,
    InternalCheckError,
    Mat,
    ResourceGuardError,
    Subspace,
    all_vectors,
    batch_member_mask,
    kernel,
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

    def __contains__(self, x: Element) -> bool:
        return x in set(self.members)

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
    is_ore: bool
    is_den: bool
    ass_members: frozenset[tuple[int, ...]]
    ass: Ideal | None
    core: "FiniteSetOfElements"
    counterexample: tuple[Element, Element] | None

    @property
    def ass_dim(self) -> int:
        return self.ass.dim if self.ass is not None else -1


def _preimage_space(a: Algebra, left_rows: Sequence[Sequence[int]], target: Subspace) -> Subspace:
    """{r : s'*r in target} as a subspace (solve through the stacked system)."""
    d = a.dim
    rows = [list(r) for r in left_rows]
    rows += [[(-v) % a.p for v in b] for b in target.basis]
    big = kernel(Mat.from_rows(a.p, rows))
    vecs = [row[:d] for row in big.basis]
    return Subspace.from_vectors(a.p, d, vecs)


def _ore_holds_for(a: Algebra, s: Element, members: Sequence[Element],
                   left_mats: np.ndarray, guard: int) -> tuple[bool, Element | None]:
    """Left Ore at s: every r admits s' in S with s'*r in R*s.

    Returns (ok, first failing r in canonical order if not ok)."""
    rs = Subspace.from_vectors(a.p, a.dim, regular_matrix(a, s, "right").data)
    if rs.dim == a.dim:
        return True, None
    spaces: list[Subspace] = []
    seen: set = set()
    seen_lm: set[bytes] = set()
    for i in range(len(members)):
        lm_key = left_mats[i].tobytes()
        if lm_key in seen_lm:
            continue
        seen_lm.add(lm_key)
        v = _preimage_space(a, left_mats[i].tolist(), rs)
        if v.dim == a.dim:
            return True, None
        if v.basis not in seen:
            seen.add(v.basis)
            spaces.append(v)
    if len(spaces) <= a.p:
        # p or fewer proper subspaces can never cover the space
        return False, _first_uncovered(a, spaces, guard)
    total = a.p ** a.dim
    if total > guard:
        raise ResourceGuardError(f"Ore fallback sweep of {total} elements exceeds the guard",
                                 total, guard)
    covered = np.zeros(total, dtype=bool)
    coeffs = a.enumerate_coeffs()
    for sp in spaces:
        covered |= batch_member_mask(coeffs, sp)
        if covered.all():
            return True, None
    idx = int(np.flatnonzero(~covered)[0])
    return False, Element(a, tuple(int(v) for v in coeffs[idx]))


def _first_uncovered(a: Algebra, spaces: list[Subspace], guard: int) -> Element:
    total = a.p ** a.dim
    if total > guard:
        raise ResourceGuardError("counterexample search exceeds the guard", total, guard)
    for r in a.iter_elements():
        if not any(sp.contains_vector(r.coeffs) for sp in spaces):
            return r
    raise InternalCheckError("claimed non-covering union covered everything")


def brute_denominator_check(a: Algebra, S: FiniteSetOfElements, side: str = "left",
                            guard: int = DEFAULT_GUARD) -> BruteDenResult:
    """Definitional denominator-set check.

    Left: the Ore condition for every (s, r), then reversibility
    (r*s = 0 implies r is annihilated by some member), with
    ass = {r : s*r = 0 for some s} computed exactly as a union of kernels
    and, on success, verified to be a two-sided ideal.  The core is the
    set of members whose left-multiplication kernel equals ass.  Right is
    the left check in the opposite algebra; two-sided runs both and
    requires the two kernels to coincide.
    """
    if S.contains_zero:
        raise InputError("a multiplicative set may not contain 0")
    if side == "right":
        from .algebra import opposite_algebra
        op = a._cache.get("opposite")
        if op is None:
            op = opposite_algebra(a)
            a._cache["opposite"] = op
        s_op = FiniteSetOfElements(op, tuple(Element(op, m.coeffs) for m in S.members), False)
        res = brute_denominator_check(op, s_op, "left", guard)
        return _transfer_result(a, res)
    if side == "twosided":
        left = brute_denominator_check(a, S, "left", guard)
        right = brute_denominator_check(a, S, "right", guard)
        is_den = left.is_den and right.is_den
        if is_den and left.ass_members != right.ass_members:
            raise InternalCheckError("two-sided denominator set with asymmetric kernels")
        core_members = [m for m in left.core if m in set(right.core.members)]
        return BruteDenResult(left.is_ore and right.is_ore, is_den,
                              left.ass_members, left.ass if is_den else None,
                              FiniteSetOfElements.from_elements(a, core_members),
                              left.counterexample or right.counterexample)
    if side != "left":
        raise InputError(f"bad side {side!r}")

    members = S.members
    if a.one not in set(members):
        raise InputError("a multiplicative set must contain 1")

    # One batched pass builds every member's multiplication matrices.
    coeff_arr = np.array([m.coeffs for m in members], dtype=np.int64)
    left_mats = a.batch_left_matrices(coeff_arr)
    right_mats = a.batch_right_matrices(coeff_arr)

    # ass(S) = union of the left-multiplication kernels, exactly.
    ass_set: set[tuple[int, ...]] = {(0,) * a.dim}
    kernels: list[Subspace] = []
    kernel_cache: dict[bytes, Subspace] = {}
    for i in range(len(members)):
        key = left_mats[i].tobytes()
        ker = kernel_cache.get(key)
        if ker is None:
            ker = kernel(Mat.from_rows(a.p, left_mats[i].tolist()))
            kernel_cache[key] = ker
            if ker.dim > 0:
                ass_set.update(ker.elements())
        kernels.append(ker)

    # Ore condition.
    is_ore = True
    counterexample = None
    ore_cache: dict[bytes, tuple[bool, Element | None]] = {}
    for i, s in enumerate(members):
        key = right_mats[i].tobytes()
        if key not in ore_cache:
            ore_cache[key] = _ore_holds_for(a, s, members, left_mats, guard)
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
            if key in rev_cache:
                continue
            rev_cache.add(key)
            right_ker = kernel(Mat.from_rows(a.p, right_mats[i].tolist()))
            for vec in right_ker.elements():
                if vec not in ass_set:
                    reversible = False
                    counterexample = (s, Element(a, vec))
                    break
            if not reversible:
                break

    is_den = is_ore and reversible
    ass_ideal = None
    if is_den:
        span = Subspace.from_vectors(a.p, a.dim, list(ass_set))
        if a.p ** span.dim != len(ass_set):
            raise InternalCheckError("kernel union of a denominator set is not a subspace")
        ass_ideal = Ideal(a, span, "twosided")
    ass_frozen = frozenset(ass_set)
    ass_size = len(ass_set)
    core = [s for s, ker in zip(members, kernels)
            if a.p ** ker.dim == ass_size and all(v in ass_set for v in ker.elements())]
    return BruteDenResult(is_ore, is_den, ass_frozen, ass_ideal,
                          FiniteSetOfElements.from_elements(a, core), counterexample)


def _transfer_result(a: Algebra, res: BruteDenResult) -> BruteDenResult:
    ass = None
    if res.ass is not None:
        ass = Ideal(a, Subspace(a.p, a.dim, res.ass.space.basis, res.ass.space.pivots), "twosided")
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
    The result is checked to be a nilpotent two-sided ideal.
    """
    p, d = a.p, a.dim
    total = p ** d
    if total > guard:
        raise ResourceGuardError(f"{total} elements exceed the guard {guard}", total, guard)
    coeffs = a.enumerate_coeffs()
    one = np.array(a.one_coeffs, dtype=np.int64)
    unit_mask = a.batch_unit_mask(coeffs)
    # qr_mask[i] == True iff 1 - element_i is a unit
    qr_mask = unit_mask[a.coeffs_to_indices((one[None, :] - coeffs) % p)]
    cand = np.ones(total, dtype=bool)
    probes = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)] + [a.one_coeffs]
    for r in probes:
        prods = a.batch_mul_left(r, coeffs)
        for c in range(1, p):
            cand &= qr_mask[a.coeffs_to_indices((c * prods) % p)]
    # Exact check for survivors.  The condition depends only on the left
    # ideal {r*x : r in R} = row space of the right-multiplication matrix,
    # so answers are memoized per distinct row space.
    members = []
    verdicts: dict[tuple, bool] = {}
    for idx in np.flatnonzero(cand):
        x = tuple(int(v) for v in coeffs[idx])
        rx = Subspace.from_vectors(p, d, regular_matrix(a, a.element(x), "right").data)
        verdict = verdicts.get(rx.basis)
        if verdict is None:
            if rx.dim == 0:
                verdict = True
            else:
                combos = all_vectors(p, rx.dim)
                pts = (combos @ np.array(rx.basis, dtype=np.int64)) % p
                verdict = bool(qr_mask[a.coeffs_to_indices(pts)].all())
            verdicts[rx.basis] = verdict
        if verdict:
            members.append(x)
    span = Subspace.from_vectors(p, d, members)
    if p ** span.dim != len(members):
        raise InternalCheckError("quasi-regular set is not a subspace")
    rad = Ideal(a, span, "twosided")
    from .algebra import ideal_combine
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
    coeffs = a.enumerate_coeffs()
    squares = a.batch_mul(coeffs, coeffs)
    mask = (squares == coeffs).all(axis=1)
    return FiniteSetOfElements.from_elements(
        a, [Element(a, tuple(int(v) for v in row)) for row in coeffs[mask]])
