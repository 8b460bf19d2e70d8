"""Cross-module invariant battery.

Runs every structural identity the classification promises against the
definitional oracles on one algebra: radical cross-checks, the idempotent
family laws, kernel-ideal identities, duality (the right report against
the opposite algebra's left report), the five-way equivalence bundle for
"completely localizable = units", and the element sweeps that compare the
powers criterion and the idempotent criterion with brute force.  The
radical cross-check first validates the input, which the named
constructors, products and opposites build by theorem, then the radical,
which the structure layer builds by theorem: its closure, its nilpotency
and the zero radical of R/J; the report checks rebuild, through the public
constructors, every ideal that the reports hold by theorem (the right
kernel ideals, two-sided only by theorem, among them) and the quotients of
the left classes, two-sided factors and descriptors; the left report check
re-proves, by elimination and by the products of the block-sum
idempotents, the class lattice that the report reads off the Peirce
decomposition, against the closed-form lattice tables of the report
(dim(K_I + K_J), containment and meets, from the row sums of its corner
table), which only this battery reads; and the two-sided check proves the
central idempotents, split off the center, central, orthogonal and summing
to 1, and re-derives them as the block sums over the blocks that the
Peirce corners link.  Each of these re-proofs runs here only, once per
run; the builders compute by theorem.
The CLI ``verify`` command runs exactly this battery; the test suite
runs it across the fixture corpus.  Its oracle sweeps check each distinct
set and side once per run and compose the two-sided verdict from the
one-sided ones, while the theory side runs on every sample; samples are
drawn in bulk from the same random stream as one draw per coordinate.

Sweep work is bounded: ``guard`` caps any single enumeration (default
2**20), while full per-element sweeps run only when the ring has at most
``sweep_limit`` elements and fall back to seeded sampling above that.  A
check whose enumeration the guard refuses ends at that point and is
reported as skipped (``ok`` with the refused size and the guard), never as
a failure.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .algebra import Algebra, Element, Ideal, check_nilpotent, ideal_combine, opposite_algebra, regular_matrix
from .linalg import (DEFAULT_GUARD, InputError, InternalCheckError, ResourceGuardError, Subspace,
                     batch_rank, check_guard, kernel, rank, row_chunks)
from .localization import (
    LocalizationReport,
    _corner,
    _is_central,
    _is_left_triangular,
    _kernel_spaces,
    _membership,
    _ordered_pairs,
    _pair_runs,
    _right_ideal_of,
    _subset_masks,
    classify_element,
    duality_report,
    idempotent_denominator_check,
    localization_report,
    monoid_denominator_decision,
    powers_denominator_criterion,
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


def _random_element(a: Algebra, rng: random.Random) -> Element:
    return a.element(_random_rows(a, rng, 1)[0])


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


def _combine_all(ideals: Sequence[Ideal], op: str) -> Ideal:
    out = ideals[0]
    for nxt in ideals[1:]:
        out = ideal_combine(out, nxt, op)
    return out


def _stacked_bases(spaces: Sequence[Subspace]) -> np.ndarray:
    """The RREF bases of ``spaces`` as one zero-padded ``(C, m, d)`` array."""
    stack = np.zeros((len(spaces), max(sp.dim for sp in spaces), spaces[0].ambient_dim),
                     dtype=np.int64)
    for k, sp in enumerate(spaces):
        stack[k, :sp.dim] = sp.array
    return stack


def _sum_dims(spaces: Sequence[Subspace], p: int) -> np.ndarray:
    """dim(K_i + K_j) for every pair, as the rank of the stacked bases
    [B_i; B_j]; the table is symmetric, so it is eliminated for i <= j."""
    stack = _stacked_bases(spaces)
    c, m, d = stack.shape
    out = np.empty((c, c), dtype=np.int64)
    for i, j in _pair_runs(*np.triu_indices(c), 2 * m * d):
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
    stack = _stacked_bases(kernels)
    one = np.array(a.one_coeffs, dtype=np.int64)
    lefts = a.batch_left_matrices((one - idems) % p)
    m = stack.shape[1]
    for i, j in _pair_runs(*_ordered_pairs(len(idems)), m * d + d * d):
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
    one matrix alone.
    """
    a = rep.algebra
    p, d = a.p, a.dim
    masks = _subset_masks([en.subset for en in rep.entries])
    inside = _membership(masks, rep.family.s)
    blocks = np.array([e.coeffs for e in rep.family.idempotents], dtype=np.int64)
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
    projectors = _projectors(kernels)
    for i, j, rows in _kernel_products(a, block_sums, kernels):
        if ((rows @ projectors[i] % p != rows).any() or (rows @ projectors[j] % p != rows).any()
                or (batch_rank(rows, p) != meet_dims[i, j]).any()):
            raise InternalCheckError("kernel ideals do not multiply to their intersection")
    if (sums != _closed_sum_dims(rep)).any():
        raise InternalCheckError("the closed-form table of dim(K_I + K_J) disagrees with the ranks")
    # rank [B_I; L_e] = d gives K_I + e_I R = R, and then rank L_e = d - dim K_I
    # gives K_I meet e_I R = 0
    idems = np.array([en.idempotent.coeffs for en in rep.entries], dtype=np.int64)
    lefts = a.batch_left_matrices(idems)
    if ((batch_rank(np.concatenate([_stacked_bases(kernels), lefts], axis=1), p) != d).any()
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
    e_sum = sum((en.idempotent for en in minimal_classes), a.zero)
    forms = [_right_ideal_of(a, a.one - e_sum)] + [
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
    for en, space in zip(rep.entries, kernels):
        if not _right_ideal_of(a, a.one - en.idempotent) == en.ass.space == space:
            raise InternalCheckError(f"kernel ideal of the class {subset_str(en.subset)} is not (1 - e)R")


def powers_agreement(a: Algebra, s: Element, guard: int = DEFAULT_GUARD) -> tuple[bool, str]:
    """Compare the powers criterion with the definitional check on one element.

    Agreement covers the verdict and, on success, the kernel ideal and the
    core; the descriptor's quotient is then rebuilt (:func:`_rebuild`).  A
    nilpotent element fails on both sides because its powers reach 0.
    """
    return _powers_agreement(a, s, guard, lambda S, side: brute_denominator_check(a, S, side, guard))


def _powers_agreement(a: Algebra, s: Element, guard: int,
                      brute: Callable[[FiniteSetOfElements, str], BruteDenResult]) -> tuple[bool, str]:
    """:func:`powers_agreement`, with ``brute(S, side)`` as the definitional check."""
    ok, desc = powers_denominator_criterion(a, s)
    closure = monoid_closure(a, [s], guard)
    if closure.contains_zero:
        if ok:
            return False, f"criterion accepted a set containing 0 at {s!r}"
        return True, ""
    res = brute(closure, "left")
    if ok != res.is_den:
        return False, f"verdict mismatch at {s!r}: criterion {ok}, oracle {res.is_den}"
    if not ok:
        return True, ""
    if res.ass is None or res.ass.space != desc.ass.space:
        return False, f"kernel ideal mismatch at {s!r}"
    if not np.array_equal(desc.core_mask(closure.rows), res.core):
        return False, f"core mismatch at {s!r}"
    _rebuild([(f"quotient of the powers of {s!r}", desc.quotient.algebra)])
    return True, ""


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
    to ``guard`` ring elements and sampled above that
    (plus the deterministic witness: the sum of the minima idempotents is
    completely localizable but is a unit only when the radical vanishes).
    """
    rng = rng or random.Random(0)
    total = a.p ** a.dim
    rep = localization_report(a)
    fam = rep.family
    full = set(range(1, fam.s + 1))
    c5 = rep.l_rad.dim == 0
    c2 = set().union(*[set(m) for m in rep.minima]) == full
    e_sum = a.zero
    corner_dims = 0
    for sub in rep.minima:
        e = rep.entry(sub).idempotent
        e_sum = e_sum + e
        corner_dims += rank(_corner(a, e, e), a.p)
    c3 = (e_sum == a.one) and corner_dims == a.dim
    ts = two_sided_report(a)
    c4 = all(localization_report(quo.algebra).loc_count == 1 for quo in ts.factor_quotients)
    if total <= guard:
        quotients = [rep.entry(sub).quotient for sub in rep.minima]
        c1 = True
        for start, stop in row_chunks(total):
            coeffs = a.enumerate_coeffs(start, stop)
            complete = np.ones(len(coeffs), dtype=bool)
            for quo in quotients:
                complete &= quo.algebra.batch_unit_mask(quo.batch_project(coeffs))
            if (complete != a.batch_unit_mask(coeffs)).any():
                c1 = False
                break
    else:
        c1 = True
        for _ in range(samples):
            r = _random_element(a, rng)
            unit = rank(regular_matrix(a, r, "left"), a.p) == a.dim
            if classify_element(a, r, rep)["completely"] != unit:
                c1 = False
                break
        if not c5 and c1:
            # the sum of the minima idempotents is always completely
            # localizable but is a unit only when the radical vanishes
            if classify_element(a, e_sum, rep)["completely"]:
                c1 = False
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
        for start, stop in row_chunks(total):
            if left_regular_non_units(a.enumerate_coeffs(start, stop)).any():
                return False, "a left regular element is not a unit"
        return True, f"exhaustive over {total}"
    drawn = max(samples, 10_000)
    for start, stop in row_chunks(drawn):
        state = rng.getstate()
        bad = left_regular_non_units(_random_rows(a, rng, stop - start))
        if bad.any():
            # redraw up to the first failure, so the stream stops where a
            # one-sample-at-a-time loop would have stopped
            rng.setstate(state)
            redrawn = _random_rows(a, rng, int(np.argmax(bad)) + 1)
            return False, f"left regular non-unit {a.element(redrawn[-1])!r}"
    return True, f"sampled {drawn}"


def run_invariants(a: Algebra, guard: int = DEFAULT_GUARD,
                   sweep_limit: int | None = None, seed: int = 0,
                   samples: int = 64) -> list[CheckResult]:
    check_guard(guard)
    if sweep_limit is None:
        sweep_limit = min(guard, DEFAULT_SWEEP_LIMIT)
    total = a.p ** a.dim
    rng = random.Random(seed)
    results: list[CheckResult] = []
    verdicts: dict[tuple[str, bytes], BruteDenResult] = {}  # the oracle's, for this run alone

    def brute(S: FiniteSetOfElements, side: str) -> BruteDenResult:
        if side == "twosided":
            return two_sided_result(brute(S, "left"), brute(S, "right"))
        key = (side, S.rows.tobytes())
        if key not in verdicts:
            verdicts[key] = brute_denominator_check(a, S, side, guard)
        return verdicts[key]

    def check(name: str, fn) -> None:
        try:
            out = fn()
        except ResourceGuardError as exc:
            # an enumeration the guard refuses ends the check there: a skip,
            # not a failure
            results.append(CheckResult(name, True, f"skipped (guard: {exc.size} > {exc.guard})"))
            return
        except Exception as exc:  # noqa: BLE001 - every failure must be reported, not raised
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
            return
        if out is None:
            results.append(CheckResult(name, True))
        else:
            ok, detail = out
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
        if total <= guard:
            brute = brute_radical(a, guard)
            if brute.space != rad.space:
                return False, "trace-form radical disagrees with the quasi-regularity sweep"
        # R/J's own trace form must be nondegenerate: R/0 is R, whose radical is the claim
        quo = block_decomposition(a).quotient.algebra
        gram = np.einsum("ijk,kll->ij", quo.np_table, quo.np_table) % a.p
        if rank(gram, a.p) != quo.dim:
            return False, "semisimple quotient has a nonzero radical"
        _rebuild([("semisimple quotient R/J", quo)])
        return True, ""
    check("radical_crosscheck", _radical_crosscheck)

    def _family_laws():
        fam = block_decomposition(a)
        if sum(fam.block_dims) != fam.quotient.algebra.dim:
            return False, "block dimensions do not add up to the semisimple quotient"
        # on a fresh copy, as ``a`` would hand back its cached family
        again = block_decomposition(Algebra._derived(a.p, a.np_table, a.one_coeffs, a.label))
        if [e.coeffs for e in again.idempotents] != [e.coeffs for e in fam.idempotents]:
            return False, "idempotent family is not deterministic"
        return True, ""
    check("idempotent_family", _family_laws)

    check("left_regular_implies_unit", lambda: _left_regular_units(a, guard, rng, samples))

    def _split_equivalence():
        for _ in range(samples):
            s = _random_element(a, rng)
            rm = regular_matrix(a, s, "right")
            rs = Subspace.from_vectors(a.p, a.dim, rm)
            ker = kernel(rm, a.p)
            if rs.dim + ker.dim != a.dim:
                return False, f"rank-nullity broken at {s!r}"
            trivial_meet = rs.intersect(ker).dim == 0
            covers = rs.sum(ker).dim == a.dim
            if trivial_meet != covers:
                return False, f"split equivalence broken at {s!r}"
        return True, ""
    check("image_kernel_split", _split_equivalence)

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
        # tests e_I R (1 - e_I) = 0 on every block sum
        rep = localization_report(a)
        s, idems = rep.family.s, rep.family.idempotents
        scanned = [sub for size in range(1, s + 1) for sub in itertools.combinations(range(1, s + 1), size)
                   if _is_left_triangular(a, sum((idems[i - 1] for i in sub), a.zero))]
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
        if ([e.coeffs for e in opposite.family.idempotents]
                != [e.coeffs for e in block_decomposition(a).idempotents]):
            return False, "opposite algebra produced a different idempotent family"
        expected = opposite.to_dict()
        for key in sorted(expected.keys() | right.keys()):
            if right.get(key) != expected.get(key):
                return False, f"the right report differs from the opposite's left report at {key!r}"
        return True, ""
    check("duality", _duality)

    def _two_sided():
        # the idempotents are central by construction, the factor ideals
        # came from one batched elimination, their meet by theorem
        ts = two_sided_report(a)
        for i, e in enumerate(ts.central_idempotents):
            if not _is_central(a, e):
                raise InternalCheckError(f"central idempotent {i} is not central")
        held = [(f"{what} of central factor {i}", obj) for i, d in enumerate(ts.max_den)
                for what, obj in (("ideal", d.ass), ("quotient", d.quotient.algebra))]
        _rebuild(held + [("two-sided localization radical", ts.loc_radical)])
        for i, d in enumerate(ts.max_den):
            if _right_ideal_of(a, a.one - d.witness_idempotent) != d.ass.space:
                raise InternalCheckError(f"ideal of central factor {i} is not (1 - e)R")
        if _combine_all([d.ass for d in ts.max_den], "intersection").dim or ts.loc_radical.dim:
            raise InternalCheckError("two-sided localization radical must vanish")
        check_orthogonal_idempotents(a, ts.central_idempotents, "central idempotent")
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
        return True, ""
    check("completely_localizable_bundle", _bundle)

    def _minima_quotients_are_maximal():
        rep = localization_report(a)
        for sub in rep.minima:
            q = rep.entry(sub).quotient.algebra
            if localization_report(q).loc_count != 1:
                return False, f"quotient at {sub} still localizes"
        return True, ""
    check("minima_quotients_maximal", _minima_quotients_are_maximal)

    # -- oracle agreement ----------------------------------------------------
    def _idempotent_oracle():
        if total > guard:
            return True, f"skipped (guard: {total} > {guard})"
        rep = localization_report(a)
        class_spaces = {en.ass.space for en in rep.entries}
        ids = brute_idempotents(a, guard)
        all_den = True
        for row in ids.rows[ids.rows.any(axis=1)]:
            e = a.element(row)
            chk = idempotent_denominator_check(a, e)
            sset = FiniteSetOfElements.from_elements(a, [a.one, e])
            left = brute(sset, "left")
            if chk.left != left.is_den:
                return False, f"left disagreement at {e!r}"
            if chk.left and left.ass.space != chk.descriptor.ass.space:
                return False, f"kernel ideal disagreement at {e!r}"
            if chk.left and chk.descriptor.ass.space not in class_spaces:
                return False, f"denominator idempotent {e!r} outside the classified classes"
            if chk.left:
                _rebuild([(f"quotient at {e!r}", chk.descriptor.quotient.algebra)])
            right = brute(sset, "right")
            if chk.right != right.is_den:
                return False, f"right disagreement at {e!r}"
            two = brute(sset, "twosided")
            if chk.central != two.is_den:
                return False, f"two-sided/centrality disagreement at {e!r}"
            if not chk.left:
                all_den = False
        ts = two_sided_report(a)
        local = all(block_decomposition(q.algebra).s == 1 and
                    block_decomposition(q.algebra).block_commutative[0]
                    for q in ts.factor_quotients)
        if all_den != local:
            return False, "all-idempotents-qualify does not match product-of-local-factors"
        return True, f"{len(ids)} idempotents"
    check("idempotent_oracle", _idempotent_oracle)

    def _powers_oracle():
        if total <= sweep_limit:
            for start, stop in row_chunks(total):
                for row in a.enumerate_coeffs(start, stop):
                    ok, detail = _powers_agreement(a, a.element(row), guard, brute)
                    if not ok:
                        return False, detail
            return True, f"exhaustive over {total}"
        for _ in range(samples):
            ok, detail = _powers_agreement(a, _random_element(a, rng), guard, brute)
            if not ok:
                return False, detail
        return True, f"sampled {samples}"
    check("powers_oracle", _powers_oracle)

    def _maximal_den_oracle():
        if total > sweep_limit:
            return True, f"skipped (sweep limit: {total} > {sweep_limit})"
        rep = localization_report(a)
        for desc in rep.max_den:
            sset = FiniteSetOfElements(a, desc.members_within(guard))
            res = brute(sset, "left")
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
        for _ in range(samples):
            r = _random_element(a, rng)
            verdict = ts.powers_criterion(r)
            closure = monoid_closure(a, [r], guard)
            if closure.contains_zero:
                oracle_verdict = False
            else:
                oracle_verdict = brute(closure, "twosided").is_den
            if verdict != oracle_verdict:
                return False, f"two-sided powers disagreement at {r!r}"
        return True, f"sampled {samples}"
    check("two_sided_powers_oracle", _two_sided_powers_oracle)

    def _monoid_oracle():
        if total > guard:
            return True, f"skipped (guard: {total} > {guard})"
        closure_cap = min(guard, max(sweep_limit // 2, 256))
        tested = skipped = 0
        while tested < samples and skipped < 10 * samples:
            gens = [_random_element(a, rng) for _ in range(rng.choice([1, 2]))]
            try:
                closure = monoid_closure(a, gens, closure_cap)
            except ResourceGuardError:
                skipped += 1
                continue
            tested += 1
            verdict, desc = monoid_denominator_decision(a, gens, guard)
            if closure.contains_zero:
                oracle_verdict = False
                res = None
            else:
                res = brute(closure, "left")
                oracle_verdict = res.is_den
            if verdict != oracle_verdict:
                return False, f"monoid disagreement at {[g.coeffs for g in gens]}"
            if verdict and res.ass.space != desc.ass.space:
                return False, "monoid kernel ideal disagreement"
            if verdict:
                _rebuild([(f"quotient at {[g.coeffs for g in gens]}", desc.quotient.algebra)])
                # every denominator set's kernel ideal is a classified class
                rep = localization_report(a)
                if desc.ass.space not in {en.ass.space for en in rep.entries}:
                    return False, "denominator monoid outside the classified classes"
        return True, f"tested {tested}, closure-capped {skipped}"
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
        return True, ""
    check("kernel_ideal_block_support", _block_support_complements)

    return results
