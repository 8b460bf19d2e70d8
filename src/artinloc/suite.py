"""Cross-module invariant battery, and one oracle comparison per decision
procedure.

The battery, which the CLI ``verify`` command runs, checks every structural
identity the classification promises on one algebra: radical cross-checks,
the idempotent family laws, kernel-ideal identities, duality (the right
report against the opposite algebra's left report), the five-way
equivalence bundle for "completely localizable = units", and element
sweeps that compare the decision procedures with brute force.  It also
re-proves, here only and once per run, what the builders hold by theorem:
the input's laws, the radical's closure and nilpotency and the zero
radical of R/J, every ideal and quotient that the reports hold (rebuilt
through the public constructors), the class lattice that the left report
reads off the Peirce decomposition (by elimination, against the report's
closed-form lattice tables), and the central idempotents (central,
orthogonal, summing to 1, and the block sums over the linked blocks).

Each decision procedure (powers, idempotent, monoid, two-sided powers) has
one agreement function, which compares the theory's verdict and kernel
ideal with the oracle's through a per-run :class:`Oracle`; the CLI's
``--oracle`` flags and the sweeps of ``verify`` both call it, and what only
``verify`` checks (quotient rebuilds, membership in the classified classes,
the local-factors test) stays around the call.  A sweep computes the
theory once per batch (or chunk), then compares it with the oracle sample
by sample in draw order.  A sampled sweep draws its samples a chunk at a
time, from the same random stream as one draw per coordinate, and when it
stops early leaves the stream where a loop testing one at a time would stop.

Sweep work is bounded: ``guard`` caps any single enumeration (default
2**20), while full per-element sweeps run only when the ring has at most
``sweep_limit`` elements and fall back to seeded sampling above that.  Each
sweep, the scan of the 2**s - 1 block sums and the runs of pairs of classes
take :func:`row_chunks` pieces, so their memory follows ``BATCH_ENTRIES``,
not p**dim, dim**2 or 2**s.  A check whose enumeration the guard refuses
ends at that point and is reported as skipped (``ok`` with the refused size
and the guard), never as a failure.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .algebra import Algebra, Element, Ideal, check_nilpotent, ideal_combine, opposite_algebra
from .linalg import (DEFAULT_GUARD, InputError, InternalCheckError, ResourceGuardError, Subspace,
                     batch_intersections, batch_rank, batch_row_spaces_and_kernels, check_guard, rank,
                     row_chunks)
from .localization import (
    DenSetDescriptor,
    IdempotentCheck,
    LocalizationReport,
    _corners,
    _kernel_spaces,
    _membership,
    _subset_masks,
    classify_element,
    duality_report,
    idempotent_denominator_check,
    localization_report,
    monoid_denominator_decisions,
    powers_denominator_criteria,
    subset_str,
    two_sided_report,
)
from .oracle import (
    BruteDenResult,
    FiniteSetOfElements,
    brute_denominator_check,
    brute_idempotents,
    brute_radical,
    monoid_closure,
    two_sided_result,
)
from .structure import block_decomposition, check_orthogonal_idempotents, ideal_block_support, radical

DEFAULT_SWEEP_LIMIT = 2048


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _random_rows(a: Algebra, rng: random.Random, n: int) -> np.ndarray:
    """``n`` random elements as ``(n, dim)`` rows: the values, and the state
    left behind, of ``n * dim`` calls of ``rng.randrange(p)``.  Each such call
    shifts 32-bit words right to ``p.bit_length()`` bits until one is below
    p; ``getrandbits(32 * m)`` is the next m words, the first drawn least
    significant, and m never exceeds the values still needed."""
    shift = 32 - a.p.bit_length()
    out = np.zeros(0, dtype=np.int64)
    while len(out) < n * a.dim:
        need = n * a.dim - len(out)
        words = np.frombuffer(rng.getrandbits(32 * need).to_bytes(4 * need, "little"), "<u4") >> shift
        out = np.concatenate([out, words[words < a.p]])
    return out.reshape(n, a.dim)


def _sampled(a: Algebra, rng: random.Random, n: int, test: Callable) -> tuple[bool, str] | None:
    """The first failure among ``n`` random rows, or None, drawn a
    :func:`row_chunks` piece (dim**2 entries a row) at a time, as n then m
    rows are the n + m of one draw.  ``test`` takes a piece, computes its
    theory once and yields ``(ok, detail, ...)`` per row in order; a failure
    leaves the stream where a loop drawing one sample at a time stops."""
    for start, stop in row_chunks(n, a.dim ** 2):
        state = rng.getstate()
        # indexed, not unpacked: a starred unpacking per row costs 0.2 us
        for k, found in enumerate(test(_random_rows(a, rng, stop - start))):
            if not found[0]:
                rng.setstate(state)
                _random_rows(a, rng, k + 1)
                return False, found[1]
    return None


def _rebuild(objects) -> None:
    """Rebuild each named ``_derived`` algebra or ideal through its public
    constructor, raising on the first failure; an algebra is validated once."""
    for name, obj in objects:
        try:
            if isinstance(obj, Ideal):
                Ideal(obj.algebra, obj.space, obj.side)
            elif "validated" not in obj._cache:
                Algebra(obj.p, obj.np_table, obj.one_coeffs, obj.label)
                obj._cache["validated"] = True
        except InputError as exc:
            raise InternalCheckError(f"{name}: {exc}") from None


def _combine_all(ideals: Sequence[Ideal], op: str) -> Ideal:
    out = ideals[0]
    for nxt in ideals[1:]:
        out = ideal_combine(out, nxt, op)
    return out


def _padded(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The 2-D ``arrays`` as one ``(C, r, c)`` stack, each zero-padded to
    the most rows and columns among them."""
    stack = np.zeros((len(arrays), max((x.shape[0] for x in arrays), default=0),
                      max((x.shape[1] for x in arrays), default=0)), dtype=np.int64)
    for k, x in enumerate(arrays):
        stack[k, :x.shape[0], :x.shape[1]] = x
    return stack


def _sum_dims(spaces: Sequence[Subspace], p: int) -> np.ndarray:
    """dim(K_i + K_j) for every pair, as the rank of the stacked bases
    [B_i; B_j]; the table is symmetric, so it is eliminated for i <= j."""
    stack = _padded([sp.array for sp in spaces])
    c, m, d = stack.shape
    out = np.empty((c, c), dtype=np.int64)
    ii, jj = np.triu_indices(c)
    for start, stop in row_chunks(len(ii), 2 * m * d):
        i, j = ii[start:stop], jj[start:stop]
        out[i, j] = out[j, i] = batch_rank(np.concatenate([stack[i], stack[j]], axis=1), p)
    return out


def _kernel_dims(rep: LocalizationReport) -> np.ndarray:
    return np.array([en.ass.dim for en in rep.entries], dtype=np.int64)


def _closed_sum_dims(rep: LocalizationReport) -> np.ndarray:
    """``out[i, j]`` is dim(K_i + K_j) in closed form, the sum of r_k over
    the blocks k outside I & J: K_I is the direct sum of the block pieces
    outside I, and r_k, the dimension of the piece of block k, is a row sum
    of the report's corner table."""
    inside = _membership(_subset_masks([en.subset for en in rep.entries]), rep.family.s)
    r = rep.corners.sum(axis=1)
    return r.sum() - (inside * r) @ inside.T


def _contains(rep: LocalizationReport) -> np.ndarray:
    """``out[i, j]``: K_i is inside K_j, that is dim(K_i + K_j) = dim K_j."""
    return _closed_sum_dims(rep) == _kernel_dims(rep)[None, :]


def _meet_dims(rep: LocalizationReport) -> np.ndarray:
    """dim(K_i meet K_j) = dim K_i + dim K_j - dim(K_i + K_j)."""
    dims = _kernel_dims(rep)
    return dims[:, None] + dims[None, :] - _closed_sum_dims(rep)


def _kernel_products(a: Algebra, idems: np.ndarray, kernels: Sequence[Subspace]
                     ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The products K_i K_j of the kernel ideals K_i = (1 - e_i)R, e_i the
    rows of ``idems``, for every ordered pair, in runs ``(i, j, rows)``:
    ``rows[n]`` spans K_i K_j for the pair ``(i[n], j[n])``, zero-padded.

    K_i = (1 - e_i)R and R K_j = K_j (K_j is a left ideal, and 1 is in R),
    so K_i K_j = (1 - e_i) K_j: the basis of K_j times the left
    multiplication by 1 - e_i, one matmul per pair instead of every product
    of two basis vectors.
    """
    d, p = a.dim, a.p
    stack = _padded([k.array for k in kernels])
    one = np.array(a.one_coeffs, dtype=np.int64)
    lefts = a.batch_left_matrices((one - idems) % p)
    count, m = len(idems), stack.shape[1]
    # the ordered pairs, row-major, a run at a time
    for start, stop in row_chunks(count * count, m * d + d * d):
        i, j = np.divmod(np.arange(start, stop), count)
        yield i, j, stack[j] @ lefts[i] % p


def _extremal_kernels(rep: LocalizationReport) -> tuple[list[int], list[int]]:
    """Entry indices of the nonzero kernel ideals, and of the minimal ones
    among them, read off the closed-form containment table."""
    dims = _kernel_dims(rep)
    nonzero = np.flatnonzero(dims > 0)
    # inside[i, j]: the i-th nonzero kernel ideal lies inside the j-th
    inside = _contains(rep)[np.ix_(nonzero, nonzero)]
    smaller = dims[nonzero][None, :] < dims[nonzero][:, None]
    above_smaller = (inside.T & smaller).any(axis=1)
    return nonzero.tolist(), nonzero[~above_smaller].tolist()


def _left_lattice(rep: LocalizationReport) -> None:
    """Re-prove by elimination the class lattice that the left report reads
    off the Peirce decomposition, raising on the first failure.  The kernel
    ideals (1 - e_I)R are eliminated again at the block sums e_I of the
    classes (:func:`artinloc.localization._kernel_spaces`), and on them:
    inclusion I >= J against K_I inside K_J from the ranks of [B_I; B_J];
    the kernel products K_I K_J = K_I meet K_J (:func:`_kernel_products`),
    with the meet dimensions of the closed-form table (:func:`_meet_dims`),
    and that table against the ranks.  Then, on the report's idempotents
    and ideals: K_I (+) e_I R = R; the products e_I e_J = e_{I & J}, 0 when
    I & J is empty; the localization radical as the closed form (1 - e)R at
    the sum e of the minima, and as the meet and the product of their
    kernel ideals; the little radical as the meet and the product of the
    nonzero kernel ideals, and as the meet of the minimal ones; each kernel
    ideal as (1 - e_I)R, from the batch of all the block sums and from its
    one matrix alone, a batch of one.
    """
    a = rep.algebra
    p, d = a.p, a.dim
    masks = _subset_masks([en.subset for en in rep.entries])
    inside = _membership(masks, rep.family.s)
    blocks = rep.family.rows
    block_sums = inside @ blocks % p
    kernels = _kernel_spaces(a, block_sums, "left")
    dims = np.array([k.dim for k in kernels], dtype=np.int64)
    sums = _sum_dims(kernels, p)
    # the subset order and the kernel ideals are anti-isomorphic posets
    superset = (masks[:, None] & masks[None, :]) == masks[None, :]
    if (superset != (sums == dims[None, :])).any():
        raise InternalCheckError("subset containment does not reverse into the ideals")
    # the reversed product is checked at the swapped pair; the diagonal
    # says K_i K_i = K_i
    meet_dims = _meet_dims(rep)
    # the residues of the standard basis, zero-padded: extra columns change no test
    maps = _padded([k.residues(np.eye(d, dtype=np.int64)) for k in kernels])
    for i, j, rows in _kernel_products(a, block_sums, kernels):
        if ((rows @ maps[i] % p).any() or (rows @ maps[j] % p).any()
                or (batch_rank(rows, p) != meet_dims[i, j]).any()):
            raise InternalCheckError("kernel ideals do not multiply to their intersection")
    if (sums != _closed_sum_dims(rep)).any():
        raise InternalCheckError("the closed-form table of dim(K_I + K_J) disagrees with the ranks")
    # rank [B_I; L_e] = d gives K_I + e_I R = R, and then rank L_e = d - dim K_I
    # gives K_I meet e_I R = 0
    idems = a.member_rows([en.idempotent for en in rep.entries])
    lefts = a.batch_left_matrices(idems)
    if ((batch_rank(np.concatenate([_padded([k.array for k in kernels]), lefts], axis=1), p) != d).any()
            or (batch_rank(lefts, p) != d - dims).any()):
        raise InternalCheckError("kernel ideal plus eR is not a direct decomposition")
    # one row of ordered pairs at a time, so the first failing pair in
    # row-major order is named; e_J e_I is checked at the swapped pair
    for i, e in enumerate(idems):
        wrong = (a.batch_mul_left(e, idems) != (inside[i] * inside) @ blocks % p).any(axis=1)
        if wrong.any():
            raise InternalCheckError("block-sum idempotents do not multiply to the intersection"
                                     if masks[i] & masks[np.argmax(wrong)] else
                                     "disjoint block-sum idempotents are not orthogonal")
    minimal_classes = [rep.entry(sub) for sub in rep.minima]
    e_sum = a.member_rows([en.idempotent for en in minimal_classes]).sum(axis=0) % p
    forms = [_kernel_spaces(a, e_sum[None], "left")[0]] + [
        _combine_all([en.ass for en in minimal_classes], op).space for op in ("intersection", "product")]
    if any(form != rep.l_rad.space for form in forms):
        raise InternalCheckError("the three computations of the localization radical disagree")
    nonzero, minimal = _extremal_kernels(rep)
    if nonzero:
        nonzero_ideals = [rep.entries[k].ass for k in nonzero]
        if _combine_all(nonzero_ideals, "intersection").space != rep.little_rad.space:
            raise InternalCheckError("little radical: intersection over the nonzero ideals disagrees")
        if _combine_all([rep.entries[k].ass for k in minimal], "intersection").space != rep.little_rad.space:
            raise InternalCheckError("little radical: intersection over minimal ideals disagrees")
        if _combine_all(nonzero_ideals, "product").space != rep.little_rad.space:
            raise InternalCheckError("little radical: product form disagrees")
    # each (1 - e)R alone, so the one-matrix elimination meets the batch
    for en, e, space in zip(rep.entries, idems, kernels):
        if not _kernel_spaces(a, e[None], "left")[0] == en.ass.space == space:
            raise InternalCheckError(f"kernel ideal of the class {subset_str(en.subset)} is not (1 - e)R")


@dataclass(eq=False)
class Oracle:
    """The definitional checks of one run, each distinct set checked once
    per side: the right check of central members is their left check, and
    a two-sided verdict is composed once the left one is known, else
    checked in one call (which reads centrality off the matrices it builds)."""

    algebra: Algebra
    guard: int
    verdicts: dict[tuple[str, bytes], BruteDenResult] = field(default_factory=dict)

    def check(self, S: FiniteSetOfElements, side: str) -> BruteDenResult:
        key = S.rows.tobytes()
        if (side, key) not in self.verdicts:
            if side == "right" and self.algebra.batch_central_mask(S.rows).all():
                found = self.check(S, "left")
            elif side == "twosided" and ("left", key) in self.verdicts:
                found = two_sided_result(self.check(S, "left"), self.check(S, "right"))
            else:
                found = brute_denominator_check(self.algebra, S, side, self.guard)
            self.verdicts[side, key] = found
        return self.verdicts[side, key]

    def closure(self, gens: Sequence[Element]) -> FiniteSetOfElements:
        return monoid_closure(self.algebra, gens, self.guard)


# Each agreement function returns (agrees, detail on disagreement, what the oracle found).
def powers_agreement(oracle: Oracle, s: Element, verdict: bool, desc: DenSetDescriptor | None
                     ) -> tuple[bool, str, BruteDenResult | None]:
    """The powers criterion at s against the closure of s: the verdict and,
    on success, the kernel ideal and the core."""
    closure = oracle.closure([s])
    if closure.contains_zero:
        return not verdict, f"criterion accepted a set containing 0 at {s!r}" if verdict else "", None
    res = oracle.check(closure, "left")
    if verdict != res.is_den:
        return False, f"verdict mismatch at {s!r}: criterion {verdict}, oracle {res.is_den}", res
    if verdict and res.ass.space != desc.ass.space:
        return False, f"kernel ideal mismatch at {s!r}", res
    if verdict and not np.array_equal(desc.core_mask(closure.rows), res.core):
        return False, f"core mismatch at {s!r}", res
    return True, "", res


def monoid_agreement(oracle: Oracle, gens: Sequence[Element], closure: FiniteSetOfElements,
                     verdict: bool, desc: DenSetDescriptor | None) -> tuple[bool, str, BruteDenResult | None]:
    """The monoid decision on ``gens`` against their ``closure``: the verdict
    and, on success, the kernel ideal."""
    res = None if closure.contains_zero else oracle.check(closure, "left")
    if verdict != (res is not None and res.is_den):
        return False, f"monoid disagreement at {[g.coeffs for g in gens]}", res
    if verdict and res.ass.space != desc.ass.space:
        return False, "monoid kernel ideal disagreement", res
    return True, "", res


def idempotent_agreement(oracle: Oracle, e: Element, chk: IdempotentCheck
                         ) -> tuple[bool, str, dict[str, bool]]:
    """The three verdicts on {1, e} and the left kernel ideal."""
    sset = FiniteSetOfElements.from_elements(oracle.algebra, [oracle.algebra.one, e])
    left, right, two = (oracle.check(sset, side) for side in ("left", "right", "twosided"))
    found = {"left": left.is_den, "right": right.is_den, "twosided": two.is_den}
    if chk.left != left.is_den:
        return False, f"left disagreement at {e!r}", found
    if chk.left and left.ass.space != chk.descriptor.ass.space:
        return False, f"kernel ideal disagreement at {e!r}", found
    if chk.right != right.is_den:
        return False, f"right disagreement at {e!r}", found
    if chk.twosided != two.is_den:
        return False, f"two-sided/centrality disagreement at {e!r}", found
    return True, "", found


def two_sided_powers_agreement(oracle: Oracle, r: Element, verdict: bool) -> tuple[bool, str, bool]:
    """The two-sided powers criterion at r against the closure of r."""
    closure = oracle.closure([r])
    found = not closure.contains_zero and oracle.check(closure, "twosided").is_den
    return verdict == found, "" if verdict == found else f"two-sided powers disagreement at {r!r}", found


def bundle_conditions(a: Algebra, guard: int = DEFAULT_GUARD,
                      rng: random.Random | None = None,
                      samples: int = 64) -> tuple[bool, bool, bool, bool, bool]:
    """The five conditions that hold together for left Artinian algebras:

    1. the completely localizable elements are exactly the units;
    2. the minimal class subsets cover every block;
    3. the minima sum to 1 and their corners decompose the algebra;
    4. every finest central factor is localization maximal;
    5. the localization radical vanishes.

    Condition 1 is swept exhaustively, one batched unit test per chunk, up
    to ``guard`` ring elements and sampled, one batch, above that
    (plus the deterministic witness: the sum of the minima idempotents is
    completely localizable but is a unit only when the radical vanishes).
    """
    rng = rng or random.Random(0)
    total = a.p ** a.dim
    rep = localization_report(a)
    c5 = rep.l_rad.dim == 0
    c2 = set().union(*rep.minima) == set(range(1, rep.family.s + 1))
    minima = a.member_rows([rep.entry(sub).idempotent for sub in rep.minima])
    e_sum = a.element(minima.sum(axis=0))
    c3 = e_sum == a.one and batch_rank(_corners(a, minima, minima), a.p).sum() == a.dim
    ts = two_sided_report(a)
    c4 = all(localization_report(quo.algebra).loc_count == 1 for quo in ts.factor_quotients)

    def completely_iff_unit(xs: np.ndarray) -> np.ndarray:
        # the maximal descriptors are the classes at the minima
        completely = np.logical_and.reduce([desc.unit_mask(xs) for desc in rep.max_den])
        unit = a.batch_unit_mask(xs)
        if (unit & ~completely).any():
            raise InternalCheckError("a unit must be completely localizable")
        return completely == unit
    if total <= guard:
        c1 = all(completely_iff_unit(coeffs).all() for coeffs in a.element_chunks(guard))
    else:
        # the sum of the minima idempotents is always completely
        # localizable but is a unit only when the radical vanishes
        tested = _sampled(a, rng, samples, lambda xs: ((ok, "") for ok in completely_iff_unit(xs).tolist()))
        c1 = tested is None and (c5 or not classify_element(a, e_sum, rep)["completely"])
    return c1, c2, c3, c4, c5


def _left_regular_units(a: Algebra, guard: int, rng: random.Random, samples: int) -> tuple[bool, str]:
    """Left regular elements are units: swept up to ``guard`` elements, else
    on ``max(samples, 10_000)`` samples.  Batched, so the guard applies
    rather than the per-element sweep limit."""
    def left_regular_non_units(xs: np.ndarray) -> np.ndarray:
        # only a left regular row can break the claim, so only those take the unit test
        bad = batch_rank(a.batch_right_matrices(xs), a.p) == a.dim
        bad[bad] = ~a.batch_unit_mask(xs[bad])
        return bad

    total = a.p ** a.dim
    if total <= guard:
        if any(left_regular_non_units(coeffs).any() for coeffs in a.element_chunks(guard)):
            return False, "a left regular element is not a unit"
        return True, f"exhaustive over {total}"
    drawn = max(samples, 10_000)
    return _sampled(a, rng, drawn, lambda xs: (
        (not bad, f"left regular non-unit {a.element(xs[k])!r}" if bad else "")
        for k, bad in enumerate(left_regular_non_units(xs).tolist()))) or (True, f"sampled {drawn}")


def run_invariants(a: Algebra, guard: int = DEFAULT_GUARD,
                   sweep_limit: int | None = None, seed: int = 0,
                   samples: int = 64) -> list[CheckResult]:
    check_guard(guard)
    if sweep_limit is None:
        sweep_limit = min(guard, DEFAULT_SWEEP_LIMIT)
    total = a.p ** a.dim
    rng = random.Random(seed)
    results: list[CheckResult] = []
    oracle = Oracle(a, guard)

    def check(name: str, fn) -> None:
        # fn returns (ok, detail), or None when it passed
        try:
            ok, detail = fn() or (True, "")
        except ResourceGuardError as exc:
            # an enumeration the guard refuses ends the check there: a skip,
            # not a failure
            ok, detail = True, f"skipped (guard: {exc.size} > {exc.guard})"
        except Exception as exc:  # noqa: BLE001 - every failure must be reported, not raised
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(ok), detail))

    # -- structure ----------------------------------------------------------
    def _radical_crosscheck():
        # the input's laws first, which a named constructor skips
        try:
            _rebuild([("input algebra", a)])
        except InternalCheckError as exc:
            return False, str(exc)
        # the radical is built by theorem: its closure and its nilpotency
        # are proved here, above the guard too
        rad = radical(a)
        _rebuild([("radical", rad)])
        check_nilpotent(rad, "radical candidate is not nilpotent")
        if total <= guard and brute_radical(a, guard).space != rad.space:
            return False, "trace-form radical disagrees with the quasi-regularity sweep"
        # R/J's own trace form must be nondegenerate: R/0 is R, whose radical is the claim
        quo = block_decomposition(a).quotient.algebra
        gram = np.einsum("ijk,kll->ij", quo.np_table, quo.np_table) % a.p
        if rank(gram, a.p) != quo.dim:
            return False, "semisimple quotient has a nonzero radical"
        _rebuild([("semisimple quotient R/J", quo)])
    check("radical_crosscheck", _radical_crosscheck)

    def _family_laws():
        fam = block_decomposition(a)
        if sum(fam.block_dims) != fam.quotient.algebra.dim:
            return False, "block dimensions do not add up to the semisimple quotient"
        # on a fresh copy, as ``a`` would hand back its cached family
        again = block_decomposition(Algebra._derived(a.p, a.np_table, a.one_coeffs, a.label))
        if not np.array_equal(again.rows, fam.rows):
            return False, "idempotent family is not deterministic"
    check("idempotent_family", _family_laws)

    check("left_regular_implies_unit", lambda: _left_regular_units(a, guard, rng, samples))

    def _split(rows: np.ndarray) -> Iterator[tuple[bool, str]]:
        rms = a.batch_right_matrices(rows)
        images, kernels = batch_row_spaces_and_kernels(rms, a.p)
        meets = batch_intersections(images, kernels)
        sums = batch_rank(np.concatenate([_padded([sp.array for sp in images]),
                                          _padded([sp.array for sp in kernels])], axis=1), a.p)
        for row, rs, ker, meet, covers in zip(rows, images, kernels, meets, sums.tolist()):
            s = a.element(row)
            if rs.dim + ker.dim != a.dim:
                yield False, f"rank-nullity broken at {s!r}"
            else:
                yield (meet.dim == 0) == (covers == a.dim), f"split equivalence broken at {s!r}"
    check("image_kernel_split", lambda: _sampled(a, rng, samples, _split))

    # -- classification reports ---------------------------------------------
    def _report_builds():
        # the report's checks, those its derived ideals and quotients
        # skipped, then the lattice it read off the Peirce decomposition
        rep = localization_report(a)
        held = [(f"{what} of the class {subset_str(en.subset)}", obj) for en in rep.entries
                for what, obj in (("kernel ideal", en.ass), ("quotient", en.quotient.algebra))]
        _rebuild(held + [("localization radical", rep.l_rad), ("little radical", rep.little_rad)])
        _left_lattice(rep)
    check("left_report_invariants", _report_builds)

    def _triangular_scan():
        # the report reads its classes off the Peirce corner table; the scan
        # tests e_I R (1 - e_I) = 0 on every block sum e_I, in runs whose
        # L_e, R_(1-e) and corner maps take 3 dim**2 entries a block sum
        rep = localization_report(a)
        s, p = rep.family.s, a.p
        blocks = rep.family.rows
        one = np.array(a.one_coeffs, dtype=np.int64)
        subsets = itertools.chain.from_iterable(
            itertools.combinations(range(1, s + 1), size) for size in range(1, s + 1))
        scanned = []
        for start, stop in row_chunks(2 ** s - 1, 3 * a.dim * a.dim):
            run = list(itertools.islice(subsets, stop - start))
            es = _membership(_subset_masks(run), s) @ blocks % p
            scanned += itertools.compress(run, ~_corners(a, es, (one - es) % p).any(axis=(1, 2)))
        reported = [en.subset for en in rep.entries]
        if scanned != reported:
            scan, report = (" ".join(map(subset_str, subs)) for subs in (scanned, reported))
            return False, f"the scan finds {scan}, the report {report}"
        return True, f"{2 ** s - 1} subsets"
    check("triangular_subset_scan", _triangular_scan)

    def _duality():
        # dual reads the right report off the left one, its class kernel
        # ideals, the localization radical among them, two-sided by theorem;
        # the opposite algebra's own report, with every check it runs, must
        # agree
        report = duality_report(a).right
        _rebuild([(f"kernel ideal of the right class {subset_str(en.subset)}", en.ass)
                  for en in report.entries] + [("right little radical", report.little_rad)])
        right = report.to_dict()
        opposite = localization_report(opposite_algebra(a))
        if not np.array_equal(opposite.family.rows, block_decomposition(a).rows):
            return False, "opposite algebra produced a different idempotent family"
        expected = opposite.to_dict()
        for key in sorted(expected.keys() | right.keys()):
            if right.get(key) != expected.get(key):
                return False, f"the right report differs from the opposite's left report at {key!r}"
    check("duality", _duality)

    def _two_sided():
        # the idempotents are central by construction, the factor ideals
        # came from one batched elimination and are eliminated again one at
        # a time, their meet by theorem
        ts = two_sided_report(a)
        cents = a.member_rows(ts.central_idempotents)
        central = a.batch_central_mask(cents)
        if not central.all():
            raise InternalCheckError(f"central idempotent {np.argmin(central)} is not central")
        held = [(f"{what} of central factor {i}", obj) for i, d in enumerate(ts.max_den)
                for what, obj in (("ideal", d.ass), ("quotient", d.quotient.algebra))]
        _rebuild(held + [("two-sided localization radical", ts.loc_radical)])
        for i, (d, e) in enumerate(zip(ts.max_den, cents)):
            if _kernel_spaces(a, e[None], "left")[0] != d.ass.space:
                raise InternalCheckError(f"ideal of central factor {i} is not (1 - e)R")
        if _combine_all([d.ass for d in ts.max_den], "intersection").dim or ts.loc_radical.dim:
            raise InternalCheckError("two-sided localization radical must vanish")
        check_orthogonal_idempotents(a, cents, "central idempotent")
        # without the center: a block sum is central iff no nonzero Peirce
        # corner links its blocks to the others, so the primitive ones are
        # the sums over the weakly connected components of the corner table
        rep = localization_report(a)
        label = list(range(rep.family.s))
        for i, j in np.argwhere(rep.corners).tolist():
            label = [label[i] if c == label[j] else c for c in label]
        sums: dict[int, Element] = {}
        for i, c in enumerate(label):
            sums[c] = sums.get(c, a.zero) + rep.family.idempotents[i]
        if sorted(e.coeffs for e in sums.values()) != sorted(e.coeffs for e in ts.central_idempotents):
            raise InternalCheckError("central idempotents are not the block sums over the linked blocks")
    check("two_sided_report", _two_sided)

    def _bundle():
        c1, c2, c3, c4, c5 = bundle_conditions(a, guard, rng, samples)
        if not (c1 == c2 == c3 == c4 == c5):
            return False, f"bundle split: units={c1} cover={c2} product={c3} factors={c4} radical={c5}"
    check("completely_localizable_bundle", _bundle)

    def _minima_quotients_are_maximal():
        rep = localization_report(a)
        for sub in rep.minima:
            q = rep.entry(sub).quotient.algebra
            if localization_report(q).loc_count != 1:
                return False, f"quotient at {sub} still localizes"
    check("minima_quotients_maximal", _minima_quotients_are_maximal)

    # -- oracle agreement ----------------------------------------------------
    def classified_after_rebuild(at: str, desc: DenSetDescriptor) -> bool:
        # the quotient of a checked descriptor is rebuilt, and every
        # denominator set's kernel ideal must be a classified class
        _rebuild([(f"quotient {at}", desc.quotient.algebra)])
        return desc.ass.space in {en.ass.space for en in localization_report(a).entries}

    def _idempotent_oracle():
        ids = brute_idempotents(a, guard)
        all_den = True
        for row in ids.rows[ids.rows.any(axis=1)]:
            e = a.element(row)
            chk = idempotent_denominator_check(a, e)
            ok, detail, _ = idempotent_agreement(oracle, e, chk)
            if not ok:
                return False, detail
            if chk.left and not classified_after_rebuild(f"at {e!r}", chk.descriptor):
                return False, f"denominator idempotent {e!r} outside the classified classes"
            all_den = all_den and chk.left
        # a factor is local when its R/J is a single commutative block, a field
        local = all(block_decomposition(q.algebra).block_commutative == (True,)
                    for q in two_sided_report(a).factor_quotients)
        if all_den != local:
            return False, "all-idempotents-qualify does not match product-of-local-factors"
        return True, f"{len(ids)} idempotents"
    check("idempotent_oracle", _idempotent_oracle)

    def _powers(rows: np.ndarray) -> Iterator[tuple[bool, str]]:
        xs = [a.element(row) for row in rows]
        for s, (verdict, desc) in zip(xs, powers_denominator_criteria(a, xs)):
            ok, detail, _ = powers_agreement(oracle, s, verdict, desc)
            if ok and verdict:
                _rebuild([(f"quotient of the powers of {s!r}", desc.quotient.algebra)])
            yield ok, detail

    def _powers_oracle():
        if total <= sweep_limit:
            for start, stop in row_chunks(total, a.dim ** 2):
                for ok, detail in _powers(a.enumerate_coeffs(start, stop)):
                    if not ok:
                        return False, detail
            return True, f"exhaustive over {total}"
        return _sampled(a, rng, samples, _powers) or (True, f"sampled {samples}")
    check("powers_oracle", _powers_oracle)

    def _maximal_den_oracle():
        if total > sweep_limit:
            return True, f"skipped (sweep limit: {total} > {sweep_limit})"
        rep = localization_report(a)
        for desc in rep.max_den:
            sset = FiniteSetOfElements(a, desc.members_within(guard))
            res = oracle.check(sset, "left")
            if not res.is_den:
                return False, f"T_e at {desc.witness_idempotent!r} failed the brute check"
            if res.ass.space != desc.ass.space:
                return False, "materialized maximal set has the wrong kernel ideal"
            if not np.array_equal(desc.core_mask(sset.rows), res.core):
                return False, "core formula disagrees with the definitional core"
        return True, f"{len(rep.max_den)} maximal sets"
    check("maximal_den_oracle", _maximal_den_oracle)

    def _two_sided_powers_oracle():
        if total > guard:
            return True, f"skipped (guard: {total} > {guard})"
        ts = two_sided_report(a)
        return _sampled(a, rng, samples, lambda rows: (
            two_sided_powers_agreement(oracle, a.element(row), verdict)
            for row, verdict in zip(rows, ts.powers_criteria(rows).tolist()))) or (True, f"sampled {samples}")
    check("two_sided_powers_oracle", _two_sided_powers_oracle)

    def _monoid_oracle():
        if total > guard:
            return True, f"skipped (guard: {total} > {guard})"
        closure_cap = min(guard, max(sweep_limit // 2, 256))
        # each generator set tested, its closure, and the stream after its draw
        tested, skipped = [], 0
        while len(tested) < samples and skipped < 10 * samples:
            gens = [a.element(row) for row in _random_rows(a, rng, rng.choice([1, 2]))]
            try:
                tested.append((gens, monoid_closure(a, gens, closure_cap), rng.getstate()))
            except ResourceGuardError:
                skipped += 1
        decisions = monoid_denominator_decisions(a, [t[0] for t in tested], [t[1] for t in tested])
        for (gens, closure, state), (verdict, desc) in zip(tested, decisions):
            ok, detail, _ = monoid_agreement(oracle, gens, closure, verdict, desc)
            if ok and verdict and not classified_after_rebuild(f"at {[g.coeffs for g in gens]}", desc):
                ok, detail = False, "denominator monoid outside the classified classes"
            if not ok:
                # where a loop deciding one set at a time stops
                rng.setstate(state)
                return False, detail
        return True, f"tested {len(tested)}, closure-capped {skipped}"
    check("monoid_oracle", _monoid_oracle)

    def _block_support_complements():
        rep = localization_report(a)
        fam = rep.family
        full = frozenset(range(1, fam.s + 1))
        for en in rep.entries:
            if en.ass.dim == 0:
                continue
            support, in_rad = ideal_block_support(fam, en.ass)
            if in_rad or support != full - frozenset(en.subset):
                return False, f"support of the {en.subset} class is not the complement"
    check("kernel_ideal_block_support", _block_support_complements)

    return results
