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

An element set is held as its coefficient rows, one sorted array
(:class:`FiniteSetOfElements`), from the closure that builds it to the
verdict; an :class:`Element` is built only where a result names one.
A check builds and ranks matrices a chunk of members at a time: an
element is 1 times its multiplication matrix, so the distinct matrices
are the left ones and the right ones of the members that are not
central.  One elimination of ``[M | I]`` then gives the row spaces R*s
and kernels of the rank-deficient ones, left and right together, once
for both sides of a check.  The Ore sweep at s depends on R*s
alone and the reversibility sweep on the right kernel alone, so each
runs once per distinct R*s or right kernel.

Every sweep runs in the enumeration order a :func:`row_chunks` piece at a
time, as many rows as fit their widest temporaries in ``BATCH_ENTRIES``
entries, so its memory is set by that budget rather than by p**k or the
size of a set; a search for a first member starts with a chunk of the isqrt
of that step and doubles it.  Enumerations of the whole ring respect a
guard on p**dim (default 2**20): they take the ring from
:meth:`Algebra.element_chunks`, which refuses a guard below 1 and then a
ring larger than the guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .algebra import Algebra, Element, Ideal, check_nilpotent
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
    batch_row_spaces_and_kernels,
    check_guard,
    row_chunks,
    vectors_to_indices,
)

__all__ = ["FiniteSetOfElements", "monoid_closure", "brute_denominator_check",
           "two_sided_result", "brute_radical", "brute_idempotents", "BruteDenResult"]


@dataclass(frozen=True, eq=False)
class FiniteSetOfElements:
    """A finite set of elements held as their coefficient rows.

    ``rows`` is a read-only ``(N, dim)`` int64 array of residues, sorted
    lexicographically, without repeats; the constructor takes any (N, dim)
    array of coefficient rows, refusing other shapes, and brings it to that form.
    """

    algebra: Algebra
    rows: np.ndarray

    def __post_init__(self) -> None:
        a = self.algebra
        rows = np.asarray(self.rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != a.dim:
            raise InputError(f"element rows must have shape (N, {a.dim}), not {rows.shape}")
        rows = rows % a.p
        rows = rows[np.lexsort(rows.T[::-1])]
        fresh = np.ones(len(rows), dtype=bool)
        fresh[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        rows = rows[fresh]
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def contains_zero(self) -> bool:
        # the zero row sorts first
        return len(self.rows) > 0 and not self.rows[0].any()

    @staticmethod
    def from_elements(a: Algebra, elements: Iterable[Element]) -> "FiniteSetOfElements":
        return FiniteSetOfElements(a, a.member_rows(list(elements)))


def monoid_closure(a: Algebra, gens: Sequence[Element], guard: int = DEFAULT_GUARD) -> FiniteSetOfElements:
    """Closure of gens plus 1 under multiplication; reports whether 0 crept in.

    One generator s gives 1, s, ... up to the first repeat, by doubling:
    the k powers so far times the matrix of y -> y*s^k, then squared, are
    the next k.  More generators take a breadth-first search, a chunk of the
    frontier times every generator in one matmul, one level at a time.
    """
    gen_arr = a.member_rows(gens)
    check_guard(guard)
    d = a.dim
    refused = f"monoid closure exceeded the guard {guard}"
    # column block g of ``right`` is the matrix of y -> y*g
    right = a.batch_right_matrices(gen_arr).transpose(1, 0, 2).reshape(d, -1)
    if len(gens) == 1:
        powers = np.array([a.one_coeffs], dtype=np.int64)
        seen = {powers.tobytes()}
        while True:
            # the next powers, up to the one past the guard
            new = powers[:guard + 1 - len(powers)] @ right % a.p
            for i, key in enumerate(new.view(np.dtype((np.void, 8 * d))).ravel().tolist()):
                if key in seen:
                    return FiniteSetOfElements(a, np.concatenate([powers, new[:i]]))
                seen.add(key)
            powers = np.concatenate([powers, new])
            if len(powers) > guard:
                raise ResourceGuardError(refused, len(powers), guard)
            right = right @ right % a.p
    seen = {a.one_coeffs}
    frontier = [a.one_coeffs]
    while frontier:
        new = []
        for start, stop in row_chunks(len(frontier), right.shape[1]):
            prods = np.array(frontier[start:stop], dtype=np.int64) @ right % a.p
            for prod in map(tuple, prods.reshape(-1, d).tolist()):
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
                    if len(seen) > guard:
                        raise ResourceGuardError(refused, len(seen), guard)
        frontier = new
    return FiniteSetOfElements(a, list(seen))


@dataclass(frozen=True)
class BruteDenResult:
    """Outcome of :func:`brute_denominator_check`.

    ``ass_members`` is the kernel union ass(S) when it is a subspace (held
    as that subspace, which is then also its span), and ``None`` when the
    union is not closed under addition.  On a denominator set it is never
    ``None``, and ``ass`` is the same subspace as a two-sided ideal.
    ``core`` is the mask of the rows of S in the core.
    """

    is_ore: bool
    is_den: bool
    ass_members: Subspace | None
    ass: Ideal | None
    core: np.ndarray
    counterexample: tuple[Element, Element] | None


def _first_outside(space: Subspace, spaces: Sequence[Subspace]) -> tuple[int, ...] | None:
    """The first member of ``space``, in :meth:`Subspace.member_chunks` order,
    that lies in none of ``spaces``; None when the union covers ``space``."""
    for chunk in space.member_chunks():
        hit = np.zeros(len(chunk), dtype=bool)
        for sp in spaces:
            hit |= batch_member_mask(chunk, sp)
        if not hit.all():
            return tuple(int(v) for v in chunk[int(np.argmin(hit))])
    return None


def _first_failure(targets: Sequence[int], keys: Iterable[Hashable],
                   test: Callable[[Hashable], tuple[int, ...] | None]):
    """The first target, in order, whose test returns a counterexample,
    with that counterexample, or None.  The outcome at a target depends on
    its key alone, so the test runs once per distinct key."""
    outcomes: dict = {}
    for i, key in zip(targets, keys):
        if key not in outcomes:
            outcomes[key] = test(key)
        if outcomes[key] is not None:
            return i, outcomes[key]
    return None


def _ore_counterexample(a: Algebra, rs: Subspace, rows: np.ndarray,
                        multiply: Callable[[np.ndarray], np.ndarray], guard: int) -> tuple[int, ...] | None:
    """Left Ore at s: every r admits s' in S with s'*r in R*s = ``rs``.

    ``multiply`` builds the left-multiplication matrices L of the members
    s' in ``rows``, a chunk at a time.  Residues modulo R*s are linear, so
    the residue of r*L is r times the residues of the rows of L, and
    V_{s'} = {r : s'*r in R*s} is the left kernel of that residue matrix.
    Returns the first r in canonical order lying in no V_{s'}, or None.
    """
    p, d = a.p, a.dim
    spaces: dict[Subspace, None] = {}
    for start, stop in row_chunks(len(rows), d * d):
        res = rs.residues(multiply(rows[start:stop]).reshape(-1, d)).reshape(-1, d, d - rs.dim)
        if not res.any(axis=(1, 2)).all():
            return None  # some V_{s'} is the whole ring
        spaces.update(dict.fromkeys(batch_kernels(res, p)))
    # p or fewer proper subspaces can never cover the space
    few = len(spaces) <= p
    total = p ** d
    if total > guard:
        raise ResourceGuardError("counterexample search exceeds the guard" if few else
                                 f"Ore fallback sweep of {total} elements exceeds the guard",
                                 total, guard)
    bad = _first_outside(Subspace.full(p, d), list(spaces))
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
    composes them by :func:`two_sided_result`; when every member is
    central the swapped matrices are the same, and the left check stands
    for the right one.
    """
    check_guard(guard)
    if S.contains_zero:
        raise InputError("a multiplicative set may not contain 0")
    if side not in ("left", "right", "twosided"):
        raise InputError(f"bad side {side!r}")
    rows = S.rows
    if not (rows == np.array(a.one_coeffs)).all(axis=1).any():
        raise InputError("a multiplicative set must contain 1")
    spaces, which, central = _deficient_spaces(a, rows)
    if side != "right":
        left = _left_check(a, rows, which[0], which[1], spaces, a.batch_left_matrices, guard)
        if side == "left":
            return left
    # when every member is central, the right check is the left one
    right = left if side == "twosided" and central else _left_check(
        a, rows, which[1], which[0], spaces, a.batch_right_matrices, guard)
    return right if side == "right" else two_sided_result(left, right)


def _deficient_spaces(a: Algebra, rows: np.ndarray) -> tuple[list, np.ndarray, bool]:
    """The distinct (row space, kernel) pairs of the rank-deficient
    multiplication matrices of ``rows``, a chunk of members at a time; per
    side (0 left, 1 right) and member, the index of its matrix's pair, -1
    at full rank; and whether every member is central."""
    p, d, n = a.p, a.dim, len(rows)
    pairs: dict[tuple[Subspace, Subspace], int] = {}
    which = np.full((2, n), -1)
    central = True
    for start, stop in row_chunks(n, 2 * d * d):
        left, right = a.batch_left_matrices(rows[start:stop]), a.batch_right_matrices(rows[start:stop])
        same = (left == right).all(axis=(1, 2))
        central = central and bool(same.all())
        # the distinct matrices, and where each one goes in ``which``
        mats = np.concatenate([left, right[~same]])
        slots = np.concatenate([np.arange(start, stop), n + start + np.flatnonzero(~same)])
        deficient = np.flatnonzero(batch_rank(mats, p) < d)
        if len(deficient):
            found = zip(*batch_row_spaces_and_kernels(mats[deficient], p))
            which.reshape(-1)[slots[deficient]] = [pairs.setdefault(pair, len(pairs)) for pair in found]
        which[1, start:stop][same] = which[0, start:stop][same]
    return list(pairs), which, central


def two_sided_result(left: BruteDenResult, right: BruteDenResult) -> BruteDenResult:
    """The two-sided check of a set from its left and right checks."""
    is_den = left.is_den and right.is_den
    # both unions are subspaces here, so equal spans mean equal sets
    if is_den and left.ass_members != right.ass_members:
        raise InternalCheckError("two-sided denominator set with asymmetric kernels")
    return BruteDenResult(left.is_ore and right.is_ore, is_den,
                          left.ass_members, left.ass if is_den else None,
                          left.core & right.core, left.counterexample or right.counterexample)


def _left_check(a: Algebra, rows: np.ndarray, left: np.ndarray, right: np.ndarray,
                spaces: Sequence[tuple[Subspace, Subspace]],
                multiply: Callable[[np.ndarray], np.ndarray], guard: int) -> BruteDenResult:
    """The left check of :func:`brute_denominator_check`: ``left`` and
    ``right`` index each member's multiplication matrices into ``spaces``
    (:func:`_deficient_spaces`), and ``multiply`` builds the left ones."""
    p, d = a.p, a.dim
    # ass(S) = union of the left-multiplication kernels, held as the
    # kernels; 1 is a member, of full rank, so the zero kernel is one of them
    zero = Subspace.zero(p, d)
    distinct = list(dict.fromkeys([zero] + [spaces[i][1] for i in sorted(set(left[left >= 0].tolist()))]))
    span = distinct[-1] if len(distinct) <= 2 else Subspace.from_vectors(
        p, d, np.concatenate([ker.array for ker in distinct]))
    if span in distinct:
        ass_space = span
    elif len(distinct) <= p:
        ass_space = None
    else:
        ass_space = span if _first_outside(span, distinct) is None else None

    # Ore condition, in member order at the first member of each (R*s,
    # right kernel) of a rank-deficient right matrix (R*s = R at the
    # others); read backwards, the dict keeps those first members
    deficient = np.flatnonzero(right >= 0)[::-1]
    targets = sorted(dict(zip(right[deficient].tolist(), deficient.tolist())).values())
    found = _first_failure(targets, [spaces[right[i]][0] for i in targets],
                           lambda rs: _ore_counterexample(a, rs, rows, multiply, guard))
    is_ore = found is None

    # Reversibility: r*s = 0 forces r into ass.  A zero right kernel holds
    # only 0, which is in ass, and one inside a single K_s is covered.
    if is_ore and targets:
        right_kers = [spaces[right[i]][1] for i in targets]
        uniq = list(dict.fromkeys(right_kers))
        covered = dict(zip(uniq, _inside_one(uniq, distinct)))
        found = _first_failure(targets, right_kers,
                               lambda ker: None if covered[ker] else _first_outside(ker, distinct))

    is_den = found is None
    ass_ideal = None
    if is_den:
        if ass_space is None:
            raise InternalCheckError("kernel union of a denominator set is not a subspace")
        ass_ideal = Ideal(a, ass_space, "twosided")
    # index -1, a full-rank matrix, reads the zero kernel appended last
    core = np.array([ker == span for _, ker in spaces] + [zero == span])[left]
    counterexample = None if found is None else (a.element(rows[found[0]]), a.element(found[1]))
    return BruteDenResult(is_ore, is_den, ass_space, ass_ideal, core, counterexample)


def brute_radical(a: Algebra, guard: int = DEFAULT_GUARD) -> Ideal:
    """The set {x : 1 - r*x is a unit for every r}, computed definitionally.

    Since {r*x : r in R} is exactly the row space of the right-multiplication
    matrix of x, the universal condition for x is a sweep over that
    subspace.  Cheap instances (r a basis element, r = 1) filter candidates
    first; every surviving candidate gets the complete subspace sweep.
    The unit and candidate masks are built chunk by chunk, and so are the
    row spaces of the survivors, one batched elimination per chunk.  The
    result is checked to be a nilpotent two-sided ideal.
    """
    p, d = a.p, a.dim
    unit_mask = np.concatenate([a.batch_unit_mask(chunk) for chunk in a.element_chunks(guard)])
    one = np.array(a.one_coeffs, dtype=np.int64)

    def quasi_regular(xs: np.ndarray) -> np.ndarray:
        """Mask of the rows x of ``xs`` for which 1 - x is a unit."""
        return unit_mask[vectors_to_indices((one - xs) % p, p)]

    probes = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)] + [a.one_coeffs]
    survivors = []
    # candidates that fail a probe are dropped before the next one
    for cand in a.element_chunks(guard):
        for r in probes:
            prods = a.batch_mul_left(r, cand)
            for c in range(1, p):
                keep = quasi_regular(c * prods)
                cand, prods = cand[keep], prods[keep]
        survivors.append(cand)
    survivors = np.concatenate(survivors)
    # Exact check for survivors.  The condition depends only on the left
    # ideal {r*x : r in R} = row space of the right-multiplication matrix,
    # so answers are memoized per distinct row space.
    keep = np.zeros(len(survivors), dtype=bool)
    verdicts: dict[Subspace, bool] = {}
    for start, stop in row_chunks(len(survivors), d * d):
        spaces = batch_row_spaces(a.batch_right_matrices(survivors[start:stop]), p)
        for k, rx in enumerate(spaces, start):
            if rx not in verdicts:
                verdicts[rx] = all(quasi_regular(chunk).all() for chunk in rx.member_chunks())
            keep[k] = verdicts[rx]
    members = survivors[keep]
    span = batch_row_spaces(members[None], p)[0]
    if p ** span.dim != len(members):
        raise InternalCheckError("quasi-regular set is not a subspace")
    rad = Ideal(a, span, "twosided")
    check_nilpotent(rad, "quasi-regular ideal is not nilpotent")
    return rad


def brute_idempotents(a: Algebra, guard: int = DEFAULT_GUARD) -> FiniteSetOfElements:
    """All solutions of e*e = e by full enumeration."""
    return FiniteSetOfElements(a, np.concatenate([
        coeffs[(a.batch_mul(coeffs, coeffs) == coeffs).all(axis=1)] for coeffs in a.element_chunks(guard)]))
