import itertools
import tracemalloc
from math import isqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from artinloc import linalg, oracle, suite
from artinloc.algebra import (
    Algebra,
    direct_product,
    full_matrix,
    lower_triangular,
    opposite_algebra,
    regular_matrix,
    truncated_poly,
    upper_triangular,
)
from artinloc.linalg import (
    BATCH_ENTRIES,
    DEFAULT_GUARD,
    InputError,
    InternalCheckError,
    ResourceGuardError,
    Subspace,
    batch_member_mask,
    kernel,
)
from artinloc.localization import localization_report
from artinloc.oracle import (
    FiniteSetOfElements,
    _first_outside,
    _inside_one,
    brute_denominator_check,
    brute_idempotents,
    brute_radical,
    monoid_closure,
    two_sided_result,
)
from artinloc.structure import radical
from artinloc.suite import run_invariants
from conftest import mul_by_definition


def tuples(rows):
    """The rows of an array as coefficient tuples, in order."""
    return list(map(tuple, rows.tolist()))


class TestMonoidClosure:
    def test_identity_alone(self, L2_7):
        cl = monoid_closure(L2_7, [L2_7.one])
        assert tuples(cl.rows) == [L2_7.one_coeffs]
        assert not cl.contains_zero

    def test_remark_element_cycle(self, L2_7):
        s = L2_7.from_matrix([[2, 0], [1, 0]])
        cl = monoid_closure(L2_7, [s])
        assert len(cl) == 4  # 1, s, 2s, 4s (2 has order 3 mod 7)
        coeffs = set(tuples(cl.rows))
        assert coeffs == {L2_7.one_coeffs, (2, 1, 0), (4, 2, 0), (1, 4, 0)}
        assert not cl.contains_zero

    def test_nilpotent_flags_zero(self, L2_7):
        cl = monoid_closure(L2_7, [L2_7.from_matrix([[0, 0], [1, 0]])])
        assert cl.contains_zero

    def test_guard(self, M2_7):
        # the unipotent [[1, 1], [0, 1]] has order 7
        g = M2_7.from_matrix([[1, 1], [0, 1]])
        for guard in (1, 3, 6):
            with pytest.raises(ResourceGuardError, match=f"monoid closure exceeded the guard {guard}$") as exc:
                monoid_closure(M2_7, [g], guard=guard)
            assert (exc.value.size, exc.value.guard) == (guard + 1, guard)
        assert len(monoid_closure(M2_7, [g], guard=7)) == 7

    def test_guard_must_be_positive(self, M2_7):
        with pytest.raises(InputError, match="guard must be positive"):
            monoid_closure(M2_7, [M2_7.one], guard=0)

    def test_beyond_int64_indexing(self):
        # 37**36 >= 2**63, so the members are told apart as rows, never as
        # base-p indices
        a = lower_triangular(37, 8)
        assert a.p ** a.dim >= 2 ** 63
        eye = [[int(i == j) for j in range(8)] for i in range(8)]
        u = [row[:] for row in eye]
        u[0][0], u[1][0] = 36, 1            # [[-1, 0], [1, 1]] in the corner: order 2
        v = [row[:] for row in eye]
        v[7][7] = 6                         # 6 has order 4 mod 37
        gens = [a.from_matrix(u), a.from_matrix(v)]
        cl = monoid_closure(a, gens, guard=64)
        assert len(cl) == 8 and not cl.contains_zero
        assert tuples(cl.rows) == reference_closure(a, gens, 64)

    @pytest.mark.parametrize("build, row, order", [
        # 2 has order 12 mod 13: a cyclic group of units
        (lambda: full_matrix(13, 1), [2], 12),
        # 3 + 3x: 3 has order 6 mod 7 and 1 + x order 7, so 42
        (lambda: truncated_poly(7, 3), [3, 3, 0], 42),
        # x is nilpotent: 1, x, x^2, 0, and then 0 again
        (lambda: truncated_poly(7, 3), [0, 1, 0], 4),
        # e + n = (x, 3) in GF(7)[x]/(x^3) x GF(7): the powers reach
        # (0, 3^3) and cycle there, so the first repeat is s^9 = s^3, not 1
        (lambda: direct_product([truncated_poly(7, 3), full_matrix(7, 1)])[0], [0, 1, 0, 3], 9),
    ], ids=["unit", "unipotent_times_scalar", "nilpotent", "idempotent_plus_nilpotent"])
    def test_cyclic_closure_at_its_guard(self, build, row, order):
        a = build()
        s = [a.element(row)]
        expected = reference_closure(a, s, order)
        assert len(expected) == order
        assert tuples(monoid_closure(a, s, guard=order).rows) == expected
        refused = f"^monoid closure exceeded the guard {order - 1}$"
        with pytest.raises(ResourceGuardError, match=refused) as exc:
            monoid_closure(a, s, guard=order - 1)
        assert (exc.value.size, exc.value.guard) == (order, order - 1)
        with pytest.raises(ResourceGuardError):
            reference_closure(a, s, order - 1)

    def test_cyclic_closure_of_the_largest_order(self):
        # 17 is a primitive root mod 65521: the 65,520 powers of (17, 1)
        a = direct_product([full_matrix(65521, 1)] * 2)[0]
        cl = monoid_closure(a, [a.element([17, 1])])
        assert len(cl) == 65520 and set(cl.rows[:, 1].tolist()) == {1}
        assert sorted(cl.rows[:, 0].tolist()) == list(range(1, 65521))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_scalar_search(self, data):
        a = data.draw(st.sampled_from(DIFF_ALGEBRAS))
        vec = st.lists(st.integers(0, a.p - 1), min_size=a.dim, max_size=a.dim)
        gens = [a.element(v) for v in data.draw(st.lists(vec, min_size=0, max_size=3))]
        guard = data.draw(st.sampled_from([1, 7, 200, DEFAULT_GUARD]))
        rows = data.draw(st.sampled_from([1, 3, 4096]))
        try:
            expected = reference_closure(a, gens, guard)
        except ResourceGuardError as exc:
            expected = exc
        # a frontier row takes dim entries per generator
        with mock.patch.object(linalg, "BATCH_ENTRIES", rows * max(1, len(gens)) * a.dim):
            if isinstance(expected, ResourceGuardError):
                with pytest.raises(ResourceGuardError, match=str(expected)) as exc:
                    monoid_closure(a, gens, guard)
                assert (exc.value.size, exc.value.guard) == (expected.size, guard) == (guard + 1, guard)
                return
            cl = monoid_closure(a, gens, guard)
        assert tuples(cl.rows) == expected
        assert cl.contains_zero == ((0,) * a.dim in expected)


@pytest.mark.parametrize("entry", ["run_invariants", "brute_denominator_check", "brute_radical",
                                   "brute_idempotents", "members_within"])
def test_library_entry_points_reject_a_guard_below_one(entry, L2_7):
    one = FiniteSetOfElements.from_elements(L2_7, [L2_7.one])
    calls = {
        "run_invariants": lambda: run_invariants(L2_7, guard=0),
        "brute_denominator_check": lambda: brute_denominator_check(L2_7, one, "left", guard=0),
        "brute_radical": lambda: brute_radical(L2_7, guard=0),
        "brute_idempotents": lambda: brute_idempotents(L2_7, guard=0),
        "members_within": lambda: localization_report(L2_7).max_den[0].members_within(guard=0),
    }
    with pytest.raises(InputError, match="guard must be positive"):
        calls[entry]()


def reference_closure(a, gens, guard):
    """The closure as a scalar breadth-first search through the definitional product,
    its members' coefficient tuples in canonical order."""
    seen = {a.one_coeffs}
    frontier = [a.one_coeffs]
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                prod = mul_by_definition(a, w, g.coeffs)
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
                    if len(seen) > guard:
                        raise ResourceGuardError(f"monoid closure exceeded the guard {guard}",
                                                 len(seen), guard)
        frontier = new
    return sorted(seen)


class TestBruteDenominatorCheck:
    def test_upper_corner_counterexample(self, U2_7):
        e11 = U2_7.from_matrix([[1, 0], [0, 0]])
        res = brute_denominator_check(U2_7, FiniteSetOfElements.from_elements(U2_7, [U2_7.one, e11]))
        assert not res.is_ore and not res.is_den
        s, r = res.counterexample
        assert s.coeffs == (1, 0, 0)  # E_11
        assert r.coeffs == (0, 1, 0)  # E_12, first in canonical order

    def test_lower_corner_succeeds(self, L2_7):
        e11 = L2_7.from_matrix([[1, 0], [0, 0]])
        S = FiniteSetOfElements.from_elements(L2_7, [L2_7.one, e11])
        res = brute_denominator_check(L2_7, S)
        assert res.is_ore and res.is_den
        assert res.ass.space.basis == ((0, 1, 0), (0, 0, 1))
        assert tuples(S.rows[res.core]) == [(1, 0, 0)]

    def test_powers_monoid_core(self, L2_7):
        s = L2_7.from_matrix([[2, 0], [1, 0]])
        S = monoid_closure(L2_7, [s])
        res = brute_denominator_check(L2_7, S)
        assert res.is_den
        assert res.ass.space.basis == ((0, 1, 0), (0, 0, 1))
        assert set(tuples(S.rows[res.core])) == {(2, 1, 0), (4, 2, 0), (1, 4, 0)}

    def test_zero_in_set_rejected(self, L2_7):
        bad = FiniteSetOfElements.from_elements(L2_7, [L2_7.one, L2_7.zero])
        with pytest.raises(InputError):
            brute_denominator_check(L2_7, bad)

    def test_right_side_mirrors(self, L2_7, U2_7):
        eL = L2_7.from_matrix([[1, 0], [0, 0]])
        eU = U2_7.from_matrix([[1, 0], [0, 0]])
        left_in_lower = brute_denominator_check(
            L2_7, FiniteSetOfElements.from_elements(L2_7, [L2_7.one, eL]), "left")
        right_in_lower = brute_denominator_check(
            L2_7, FiniteSetOfElements.from_elements(L2_7, [L2_7.one, eL]), "right")
        assert left_in_lower.is_den and not right_in_lower.is_den
        left_in_upper = brute_denominator_check(
            U2_7, FiniteSetOfElements.from_elements(U2_7, [U2_7.one, eU]), "left")
        right_in_upper = brute_denominator_check(
            U2_7, FiniteSetOfElements.from_elements(U2_7, [U2_7.one, eU]), "right")
        assert not left_in_upper.is_den and right_in_upper.is_den

    def test_twosided_needs_centrality(self, L2_7, F7F7):
        eL = L2_7.from_matrix([[1, 0], [0, 0]])
        res = brute_denominator_check(
            L2_7, FiniteSetOfElements.from_elements(L2_7, [L2_7.one, eL]), "twosided")
        assert not res.is_den
        e = F7F7.element([1, 0])
        res2 = brute_denominator_check(
            F7F7, FiniteSetOfElements.from_elements(F7F7, [F7F7.one, e]), "twosided")
        assert res2.is_den and res2.ass.dim == 1

    @pytest.mark.parametrize("algebra, make", [
        ("U2_7", lambda a: [a.one, a.from_matrix([[1, 0], [0, 0]])]),
        ("L2_7", lambda a: [a.one, a.from_matrix([[1, 0], [0, 0]])]),
        ("F7F7", lambda a: [a.one, a.element([1, 0])]),
        ("L2_7", lambda a: monoid_closure(a, [a.from_matrix([[2, 0], [1, 0]])])),
    ], ids=["U2_7-E11", "L2_7-E11", "F7F7-e", "L2_7-powers"])
    def test_two_sided_result_composes_the_one_sided_checks(self, algebra, make, request):
        a = request.getfixturevalue(algebra)
        S = make(a)
        S = S if isinstance(S, FiniteSetOfElements) else FiniteSetOfElements.from_elements(a, S)

        def fields(res):
            return (res.is_ore, res.is_den, res.ass_members, res.ass and res.ass.space,
                    res.core.tolist(), res.counterexample)

        left, right = (brute_denominator_check(a, S, side) for side in ("left", "right"))
        assert fields(two_sided_result(left, right)) == fields(brute_denominator_check(a, S, "twosided"))


class TestBruteRadical:
    def test_semisimple_product(self, F7F7):
        assert brute_radical(F7F7).dim == 0

    def test_lower_triangular_5(self, L2_5):
        rad = brute_radical(L2_5)
        assert rad.space.basis == ((0, 1, 0),)

    def test_local_poly_ring(self, T7):
        assert brute_radical(T7).space.basis == ((0, 1),)

    def test_guard(self, L2_5):
        with pytest.raises(ResourceGuardError):
            brute_radical(L2_5, guard=10)

    def test_matches_trace_form_on_corpus(self, L2_7, U2_7, T5, F5F5, T7xF7, M2_7):
        for a in (L2_7, U2_7, T5, F5F5, T7xF7, M2_7):
            assert brute_radical(a).space == radical(a).space


class TestBruteIdempotents:
    def test_base_field(self):
        f7 = full_matrix(7, 1)
        ids = brute_idempotents(f7)
        assert tuples(ids.rows) == [(0,), (1,)]

    def test_two_field_product(self, F7F7):
        ids = brute_idempotents(F7F7)
        assert set(tuples(ids.rows)) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_census_count_lower_triangular_5(self, L2_5):
        # 0 and 1, plus the two conjugate families over the strictly lower entry
        ids = brute_idempotents(L2_5)
        assert len(ids) == 12
        for e in map(L2_5.element, ids.rows):
            assert (e * e) == e

    def test_guard(self, L2_5):
        with pytest.raises(ResourceGuardError):
            brute_idempotents(L2_5, guard=10)


# ---------------------------------------------------------------------------
# The batched check against the tuple-set loops it replaced
# ---------------------------------------------------------------------------

def _members(sp):
    """Members of ``sp`` in the order of their coefficients over the basis,
    first coefficient most significant."""
    for c in itertools.product(range(sp.p), repeat=sp.dim):
        yield tuple(sum(ci * row[j] for ci, row in zip(c, sp.basis)) % sp.p
                    for j in range(sp.ambient_dim))


def reference_left(a, S):
    """The left check with ass(S) built as a set of member tuples."""
    p, d = a.p, a.dim
    members = [a.element(row) for row in S.rows]
    ring = np.array(list(itertools.product(range(p), repeat=d)), dtype=np.int64)
    kernels = [kernel(regular_matrix(a, s, "left"), p) for s in members]
    ass_set = {(0,) * d}
    for ker in set(kernels):
        ass_set.update(_members(ker))
    counterexample = None
    # Ore by definition: every r has some member t with t*r in R*s
    products = np.concatenate([ring @ regular_matrix(a, t, "left") % p
                               for t in members])
    for s in members:
        rs = Subspace.from_vectors(p, d, regular_matrix(a, s, "right").tolist())
        ok = batch_member_mask(products, rs).reshape(len(members), len(ring)).any(axis=0)
        if not ok.all():
            counterexample = (s.coeffs, tuple(int(v) for v in ring[np.argmin(ok)]))
            break
    is_ore = counterexample is None
    if is_ore:
        for s in members:
            right_ker = kernel(regular_matrix(a, s, "right"), p)
            bad = next((v for v in _members(right_ker) if v not in ass_set), None)
            if bad is not None:
                counterexample = (s.coeffs, bad)
                break
    span = Subspace.from_vectors(p, d, list(ass_set))
    subspace = p ** span.dim == len(ass_set)
    if counterexample is None and not subspace:
        # only a set that is not closed under multiplication gets here
        raise InternalCheckError("kernel union of a denominator set is not a subspace")
    core = [s.coeffs for s, ker in zip(members, kernels)
            if p ** ker.dim == len(ass_set) and all(v in ass_set for v in _members(ker))]
    return {"is_ore": is_ore, "is_den": counterexample is None,
            "ass": span if subspace else None, "core": core, "counterexample": counterexample}


def reference_check(a, S, side):
    if side == "left":
        return reference_left(a, S)
    op = opposite_algebra(a)
    right = reference_left(op, FiniteSetOfElements(op, S.rows))
    if side == "right":
        return right
    left = reference_left(a, S)
    if left["is_den"] and right["is_den"] and left["ass"] != right["ass"]:
        raise InternalCheckError("two-sided denominator set with asymmetric kernels")
    return {"is_ore": left["is_ore"] and right["is_ore"],
            "is_den": left["is_den"] and right["is_den"], "ass": left["ass"],
            "core": [c for c in left["core"] if c in right["core"]],
            "counterexample": left["counterexample"] or right["counterexample"]}


def assert_matches_reference(a, S, side):
    try:
        ref = reference_check(a, S, side)
    except InternalCheckError as exc:
        with pytest.raises(InternalCheckError, match=str(exc)):
            brute_denominator_check(a, S, side)
        return None
    res = brute_denominator_check(a, S, side)
    assert (res.is_ore, res.is_den) == (ref["is_ore"], ref["is_den"])
    assert res.ass_members == ref["ass"]
    assert (res.ass.space if res.ass is not None else None) == (ref["ass"] if ref["is_den"] else None)
    assert tuples(S.rows[res.core]) == ref["core"]
    ce = res.counterexample
    assert (None if ce is None else (ce[0].coeffs, ce[1].coeffs)) == ref["counterexample"]
    return res


def exterior_2(p):
    """GF(p)[x, y]/(x^2, y^2) on the basis 1, x, y, xy: the kernels of the
    left multiplications by x + c*y are p + 1 planes through xy, one per
    direction of the (x, y) part, and together they cover the maximal ideal."""
    exps = [(0, 0), (1, 0), (0, 1), (1, 1)]
    table = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for i, (a1, b1) in enumerate(exps):
        for j, (a2, b2) in enumerate(exps):
            if a1 + a2 <= 1 and b1 + b2 <= 1:
                table[i][j][exps.index((a1 + a2, b1 + b2))] = 1
    return Algebra(p, table, [1, 0, 0, 0], "E2")


DIFF_ALGEBRAS = [lower_triangular(7, 2), upper_triangular(5, 2), full_matrix(5, 2),
                 full_matrix(7, 2), truncated_poly(7, 3),
                 direct_product([full_matrix(5, 1)] * 3)[0],
                 direct_product([lower_triangular(5, 2), full_matrix(5, 1)])[0], exterior_2(5)]
IDEMPOTENTS = {id(a): [a.element(e) for e in brute_idempotents(a).rows if e.any()] for a in DIFF_ALGEBRAS}


@st.composite
def multiplicative_sets(draw):
    """A small algebra (p**dim <= 2**12) with {1, e}, a monoid closure of one
    or two random generators, or an arbitrary set of nonzero elements and 1."""
    a = draw(st.sampled_from(DIFF_ALGEBRAS))
    vec = st.lists(st.integers(0, a.p - 1), min_size=a.dim, max_size=a.dim)
    kind = draw(st.sampled_from(["idempotent", "closure", "arbitrary"]))
    if kind == "idempotent":
        e = draw(st.sampled_from(IDEMPOTENTS[id(a)]))
        return a, FiniteSetOfElements.from_elements(a, [a.one, e])
    gens = [a.element(v) for v in draw(st.lists(vec, min_size=1, max_size=2 if kind == "closure" else 8))]
    if kind == "closure":
        try:
            S = monoid_closure(a, gens, guard=96)
        except ResourceGuardError:
            assume(False)
    else:
        S = FiniteSetOfElements.from_elements(a, [a.one, *gens])
    assume(not S.contains_zero)
    return a, S


class TestBatchedDenominatorCheck:
    @settings(max_examples=200, deadline=None)
    @given(multiplicative_sets(), st.sampled_from(["left", "right", "twosided"]),
           st.sampled_from([5, 64, 4096]))
    def test_matches_tuple_set_reference(self, drawn, side, rows):
        a, S = drawn
        # a member's two multiplication matrices take 2 dim**2 entries
        with mock.patch.object(linalg, "BATCH_ENTRIES", rows * 2 * a.dim ** 2):
            assert_matches_reference(a, S, side)

    @pytest.mark.parametrize("directions", [4, 5, 6])
    @pytest.mark.parametrize("with_xy", [False, True])
    def test_kernel_union_covering_its_span(self, directions, with_xy):
        # directions <= p: a union of at most p proper subspaces; p + 1: the
        # planes cover the maximal ideal although none of them is all of it
        a = exterior_2(5)
        slopes = [a.element([0, 1, c, 0]) for c in range(5)] + [a.element([0, 0, 1, 0])]
        extra = [a.element([0, 0, 0, 1])] if with_xy else []
        S = FiniteSetOfElements.from_elements(a, [a.one, *slopes[:directions], *extra])
        res = assert_matches_reference(a, S, "left")
        # the ring is commutative, so every such set passes the Ore condition
        # and reversibility, and a kernel union that is not a subspace is an
        # internal error
        if with_xy or directions == 6:
            maximal = Subspace.from_vectors(5, 4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
            assert res.is_den and res.ass_members == maximal
        else:
            assert res is None

    @settings(max_examples=150, deadline=None)
    @given(multiplicative_sets())
    def test_sides_match_the_opposite_algebra_route(self, drawn):
        # right is the left check of S in a freshly built opposite algebra,
        # two-sided the left and right results combined, as they were before
        # the right check ran in the algebra itself on the swapped matrices
        a, S = drawn

        def outcome(check, b, T, side):
            try:
                res = check(b, T, side)
            except InternalCheckError as exc:
                return str(exc)
            ce = res.counterexample
            return (res.is_ore, res.is_den, res.ass_members, res.ass and res.ass.space,
                    tuples(T.rows[res.core]), ce and (ce[0].coeffs, ce[1].coeffs))

        op = opposite_algebra(a)
        s_op = FiniteSetOfElements(op, S.rows)
        right = outcome(brute_denominator_check, op, s_op, "left")
        assert outcome(brute_denominator_check, a, S, "right") == right
        left = outcome(brute_denominator_check, a, S, "left")
        if isinstance(left, str) or isinstance(right, str):
            expected = left if isinstance(left, str) else right
        elif left[1] and right[1] and left[2] != right[2]:
            expected = "two-sided denominator set with asymmetric kernels"
        else:
            is_den = left[1] and right[1]
            expected = (left[0] and right[0], is_den, left[2], left[3] if is_den else None,
                        [c for c in left[4] if c in right[4]], left[5] or right[5])
        assert outcome(brute_denominator_check, a, S, "twosided") == expected

    def test_reversibility_failing_at_a_later_member(self):
        # Ore holds, and reversibility first fails at the third member:
        # E22 * (4 E12) = 0, yet s * E22 != 0 for every member s
        a = upper_triangular(5, 2)
        S = FiniteSetOfElements.from_elements(a, [a.element(v) for v in
                                                  [(0, 0, 3), (0, 3, 4), (0, 4, 0), (1, 0, 1)]])
        res = assert_matches_reference(a, S, "left")
        assert res.is_ore and not res.is_den
        assert (res.counterexample[0].coeffs, res.counterexample[1].coeffs) == ((0, 4, 0), (0, 0, 1))

    @pytest.mark.parametrize("side", ["left", "twosided"])
    def test_ore_sweep_runs_once_per_distinct_rs(self, side):
        # 3 is a primitive root mod 257, so the closure of (3, 0) is 1 and
        # the 256 elements (c, 0), c != 0: distinct multiplication matrices,
        # all with R*s = GF(257) x 0, so one Ore sweep; the members are
        # central, so the two-sided check runs the left check alone
        a = direct_product([full_matrix(257, 1)] * 2)[0]
        S = monoid_closure(a, [a.element([3, 0])])
        assert len(S) == 257
        with mock.patch.object(oracle, "_ore_counterexample",
                               wraps=oracle._ore_counterexample) as ore:
            res = brute_denominator_check(a, S, side)
        assert res.is_den and res.ass.space.basis == ((0, 1),)
        assert ore.call_count == 1

    # type, message and size of the refusal, as recorded from the
    # one-member-at-a-time check this batched one replaced
    @pytest.mark.parametrize("label, side, guard, gens, message, size", [
        ("L2(GF(5)) x GF(5)", "left", 100,
         [(0, 4, 4, 4), (4, 2, 3, 4), (0, 1, 1, 4), (4, 1, 0, 4), (2, 0, 0, 0), (0, 3, 0, 2)],
         "counterexample search exceeds the guard", 625),
        ("U2(GF(5))", "twosided", 100, [(2, 2, 0), (1, 1, 2), (4, 1, 2)],
         "counterexample search exceeds the guard", 125),
        ("M2(GF(7))", "left", 10,
         [(1, 4, 5, 0), (3, 5, 4, 6), (2, 5, 5, 3), (0, 5, 2, 1), (1, 0, 2, 0), (6, 0, 2, 2),
          (5, 1, 3, 4), (2, 1, 0, 4)],
         "counterexample search exceeds the guard", 2401),
        ("L2(GF(5)) x GF(5)", "twosided", 1,
         [(1, 1, 0, 4), (3, 1, 0, 0), (1, 3, 1, 0), (4, 0, 2, 0), (0, 3, 3, 0), (0, 0, 1, 0),
          (1, 1, 3, 3), (3, 3, 2, 0)],
         "Ore fallback sweep of 625 elements exceeds the guard", 625),
    ])
    def test_guard_refusals_are_pinned(self, label, side, guard, gens, message, size):
        a = next(a for a in DIFF_ALGEBRAS if a.label == label)
        S = FiniteSetOfElements.from_elements(a, [a.one, *map(a.element, gens)])
        with pytest.raises(ResourceGuardError) as exc:
            brute_denominator_check(a, S, side, guard)
        assert type(exc.value) is ResourceGuardError
        assert (str(exc.value), exc.value.size, exc.value.guard) == (message, size, guard)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_inside_one_matches_containment(self, data):
        # the reversibility skip: a subspace lies inside a single space of
        # the list, including spans of part of a space's basis
        p = data.draw(st.sampled_from([2, 5, 7]))
        d = data.draw(st.integers(1, 4))
        vec = st.lists(st.integers(0, p - 1), min_size=d, max_size=d)

        def draw_spaces():
            return [Subspace.from_vectors(p, d, data.draw(st.lists(vec, max_size=d)))
                    for _ in range(data.draw(st.integers(1, 4)))]

        spaces, subs = draw_spaces(), draw_spaces()
        for sp in spaces:
            subs.append(Subspace.from_vectors(p, d, sp.basis[:data.draw(st.integers(0, sp.dim))]))
        expected = [any(sp.contains(sub) for sp in spaces) for sub in subs]
        assert _inside_one(subs, spaces).tolist() == expected

    def test_membership_of_a_set(self, L2_7):
        # the rows are reduced mod p, sorted and deduplicated, whatever the
        # order and repeats they came in with, and cannot be written to
        S = FiniteSetOfElements(L2_7, [[2, 1, 0], [1, 4, 0], [9, 1, 0], [1, 0, 1], [0, 0, 0]])
        assert tuples(S.rows) == [(0, 0, 0), (1, 0, 1), (1, 4, 0), (2, 1, 0)]
        assert S.contains_zero and len(S) == 4 and not S.rows.flags.writeable
        closure = monoid_closure(L2_7, [L2_7.from_matrix([[2, 0], [1, 0]])])
        assert tuples(FiniteSetOfElements(L2_7, closure.rows[::-1]).rows) == tuples(closure.rows)
        assert not closure.contains_zero

    @pytest.mark.parametrize("build", [
        lambda a, x: monoid_closure(a, [x]),
        lambda a, x: monoid_closure(a, [a.one, x]),
        lambda a, x: FiniteSetOfElements.from_elements(a, [a.one, x]),
    ], ids=["cyclic closure", "breadth-first closure", "from_elements"])
    def test_an_element_of_another_algebra_is_refused(self, build, L3_7, U3_7):
        # E11 of U3 has the coefficients of E11 of L3, whose closure is {1, E11}
        with pytest.raises(InputError, match="^element does not belong to the algebra$"):
            build(L3_7, U3_7.element([1, 0, 0, 0, 0, 0]))

    @pytest.mark.parametrize("rows", [np.zeros((4, 3)), np.zeros((2, 7)), np.zeros(6), np.zeros((1, 1, 6))],
                             ids=["4x3", "2x7", "one axis", "three axes"])
    def test_rows_of_another_shape_are_refused(self, rows, L3_7):
        # 4 x 3 zeros would read as two rows of length 6
        with pytest.raises(InputError, match=r"^element rows must have shape \(N, 6\), not \("):
            FiniteSetOfElements(L3_7, rows)


# ---------------------------------------------------------------------------
# Chunked sweeps
# ---------------------------------------------------------------------------

class TestChunkedSweeps:
    def test_first_uncovered_past_the_first_chunk(self, L3_7):
        # every vector with first coordinate 0 is covered, so the answer is
        # e_1 = (1, 0, ..., 0), at canonical index 7**5
        assert isqrt(BATCH_ENTRIES // 6) < 7 ** 5
        hyperplane = Subspace.from_vectors(7, 6, [[0] * i + [1] + [0] * (5 - i) for i in range(1, 6)])
        diagonal = Subspace.from_vectors(7, 6, [[1, 1, 0, 0, 0, 0]])
        ring = Subspace.full(7, 6)
        assert _first_outside(ring, [diagonal, hyperplane]) == (1, 0, 0, 0, 0, 0)
        assert _first_outside(ring, [hyperplane, ring]) is None

    def test_brute_radical_over_several_chunks(self, L3_7):
        assert L3_7.p ** L3_7.dim > 4 * BATCH_ENTRIES // L3_7.dim ** 2
        assert brute_radical(L3_7).space == radical(L3_7).space

    @pytest.mark.parametrize("fixture_name", ["L2_7", "U2_7", "T7xF7", "M2_7"])
    def test_sweeps_do_not_depend_on_the_chunk_size(self, fixture_name, request):
        a = request.getfixturevalue(fixture_name)
        whole_rad, whole_ids = brute_radical(a), brute_idempotents(a)
        # 7 elements, a dim x dim matrix each, per chunk
        with mock.patch.object(linalg, "BATCH_ENTRIES", 7 * a.dim ** 2):
            assert brute_radical(a).space == whole_rad.space
            assert tuples(brute_idempotents(a).rows) == tuples(whole_ids.rows)

    def test_brute_radical_memory_is_set_by_the_chunk(self):
        a = full_matrix(17, 2)
        assert a.p ** a.dim > 4 * BATCH_ENTRIES // a.dim ** 2
        tracemalloc.start()
        try:
            brute_radical(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a chunk of dim x dim int64 matrices takes BATCH_ENTRIES * 8 bytes
        # and the rank elimination holds a few of them; the unit mask takes
        # one byte per element
        assert peak < 8 * (BATCH_ENTRIES * 8) + a.p ** a.dim

    @pytest.mark.parametrize("chunk", [7, 64, 4096])
    @pytest.mark.parametrize("where", ["0", "63", "64", "past_the_first_full_chunk", "none"])
    def test_first_outside_matches_enumeration(self, chunk, where):
        # members 0 to 2^j - 1 of a 13-dimensional subspace of GF(2)^14 are
        # the span of its last j basis rows, and over GF(2) a line holds 0
        # and one member: that span and the lines through the members up to
        # k - 1 cover exactly the first k, so member k is the first outside;
        # every subspace holds member 0, the zero vector, so it is first
        # outside only an empty union
        space = Subspace.from_vectors(2, 14, [[0] * i + [1] + [0] * (12 - i) + [1] for i in range(13)])
        members = [tuple(np.array(c) @ space.array % 2) for c in itertools.product(range(2), repeat=13)]
        k = {"0": 0, "63": 63, "64": 64, "past_the_first_full_chunk": isqrt(chunk) + chunk + 5}.get(where)
        spaces = [space] if k is None else []
        if k:
            j = k.bit_length() - 1
            spaces = [Subspace.from_vectors(2, 14, space.array[13 - j:])]
            spaces += [Subspace.from_vectors(2, 14, [members[i]]) for i in range(2 ** j, k)]
        covered = {v for sp in spaces for c in itertools.product(range(2), repeat=sp.dim)
                   for v in [tuple(np.array(c, dtype=np.int64) @ sp.array % 2)]}
        expected = next((v for v in members if v not in covered), None)
        assert expected == (None if k is None else members[k])
        # a step of ``chunk`` members of 14 entries: the first chunk is its
        # isqrt, and the next ones double up to it
        with mock.patch.object(linalg, "BATCH_ENTRIES", chunk * 14):
            assert _first_outside(space, spaces) == expected

    def test_denominator_check_memory_is_set_by_the_chunk(self):
        # diag(3, 1, 1): 3 is a primitive root mod 8009, so the closure is
        # 8,008 units, whose 16,016 multiplication matrices would take
        # 2 * |S| * dim**2 * 8 bytes if they were built at once.  The table
        # of inverses mod p, which the process keeps per prime, is built first
        a = lower_triangular(8009, 3)
        S = monoid_closure(a, [a.from_matrix([[3, 0, 0], [0, 1, 0], [0, 0, 1]])])
        assert len(S) == 8008
        linalg.inverse_table(a.p)
        # 64 members, two dim x dim matrices each, per chunk
        with mock.patch.object(linalg, "BATCH_ENTRIES", 64 * 2 * a.dim ** 2):
            tracemalloc.start()
            try:
                res = brute_denominator_check(a, S, "twosided")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert res.is_den and res.ass.dim == 0 and res.core.all()
        assert peak < 2 * len(S) * a.dim ** 2 * 8 / 8


def _logged_eliminations(monkeypatch):
    """Record ``(forward, shape, mats)`` of every ``linalg._rref`` call."""
    log = []
    rref = linalg._rref
    monkeypatch.setattr(linalg, "_rref", lambda mats, p, forward=False: log.append(
        (forward, mats.shape, mats.copy())) or rref(mats, p, forward))
    return log


def test_one_elimination_of_each_kind_before_the_ore_sweep(L2_7, monkeypatch):
    # {1, E11}: E11 is rank-deficient on both sides and not central, so
    # the distinct matrices are I, L(E11) and R(E11): one rank-mode
    # elimination of the three, one of [M | I] for the two deficient ones,
    # and its cross-check on their transposes serve both sides
    e = L2_7.from_matrix([[1, 0], [0, 0]])
    S = FiniteSetOfElements.from_elements(L2_7, [L2_7.one, e])
    log = _logged_eliminations(monkeypatch)
    ore = oracle._ore_counterexample
    monkeypatch.setattr(oracle, "_ore_counterexample", lambda *args: log.append("ore") or ore(*args))
    brute_denominator_check(L2_7, S, "twosided")
    before = log[:log.index("ore")]
    assert [(forward, shape) for forward, shape, _ in before] == [(True, (3, 3, 3)), (False, (2, 3, 6)),
                                                                  (True, (2, 3, 3))]
    deficient = np.array([regular_matrix(L2_7, e, "left"), regular_matrix(L2_7, e, "right")])
    assert np.array_equal(before[1][2][:, :, :3], deficient)
    assert np.array_equal(before[1][2][:, :, 3:], np.repeat(np.eye(3, dtype=np.int64)[None], 2, axis=0))


def test_image_kernel_split_runs_one_elimination_per_batch(L2_7, monkeypatch):
    # the sampled right multiplications are eliminated once, as [M | I],
    # for their row spaces and kernels together
    log = _logged_eliminations(monkeypatch)
    sampled, split = suite._sampled, []

    def spy(a, rng, n, test):
        start = len(log)
        found = sampled(a, rng, n, test)
        if test.__name__ == "_split":
            split.append(log[start:])
        return found
    monkeypatch.setattr(suite, "_sampled", spy)
    assert all(r.ok for r in run_invariants(L2_7, samples=16))
    [calls] = split
    d = L2_7.dim
    full = [mats for forward, _, mats in calls if not forward and mats.shape[1:] == (d, 2 * d)
            and np.array_equal(mats[:, :, d:], np.repeat(np.eye(d, dtype=np.int64)[None], len(mats), axis=0))]
    assert len(full) == 1 and full[0].shape == (16, d, 2 * d)
    rms = full[0][:, :, :d]
    # no other elimination of those matrices
    assert sum(not forward and mats.shape[1] == d and np.array_equal(mats[:, :, :d], rms)
               for forward, _, mats in calls) == 1
