import dataclasses
import random
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from artinloc import localization, suite
from artinloc.algebra import (
    Ideal,
    direct_product,
    full_matrix,
    ideal_generated,
    lower_triangular,
    opposite_algebra,
    quotient_algebra,
    regular_matrix,
    truncated_poly,
    upper_triangular,
)
from artinloc.cli import main
from artinloc.linalg import (
    InputError,
    InternalCheckError,
    ResourceGuardError,
    Subspace,
    express_in_rows,
    kernel,
    rank,
)
from artinloc.localization import (
    LocalizationReport,
    _associated_idempotents,
    _corner_is_zero,
    _is_central,
    _is_left_triangular,
    associated_idempotent,
    classify_element,
    duality_report,
    idempotent_denominator_check,
    localization_report,
    monoid_denominator_decision,
    powers_denominator_criterion,
    two_sided_report,
)
from artinloc.oracle import FiniteSetOfElements, brute_denominator_check, monoid_closure
from artinloc.structure import block_decomposition
from artinloc.suite import run_invariants
from conftest import (
    basis,
    block_sum,
    closed_sets,
    reference_corner_is_zero,
    reference_edges,
    reference_sum_dims,
    weak_component_count,
)


class TestTriangularIdempotents:
    def test_lower_triangular_chain(self, L2_7):
        rep = localization_report(L2_7)
        assert [en.subset for en in rep.entries] == [(1,), (1, 2)]
        assert rep.entry((1,)).idempotent.coeffs == (1, 0, 0)  # E_11
        assert rep.entry((1, 2)).idempotent == L2_7.one
        assert rep.minima == ((1,),)

    def test_simple_algebra_only_full(self, M2_7):
        rep = localization_report(M2_7)
        assert [en.subset for en in rep.entries] == [(1,)]
        assert rep.minima == ((1,),)

    def test_central_case_all_subsets(self, F7F7):
        rep = localization_report(F7F7)
        assert [en.subset for en in rep.entries] == [(1,), (2,), (1, 2)]
        assert rep.minima == ((1,), (2,))

    def test_upper_triangular_mirror(self, U2_7):
        rep = localization_report(U2_7)
        assert [en.subset for en in rep.entries] == [(2,), (1, 2)]
        assert rep.entry((2,)).idempotent.coeffs == (0, 0, 1)  # E_22


class TestLocalizationReport:
    def test_lower_triangular_3(self, L3_7):
        rep = localization_report(L3_7)
        assert rep.loc_count == 3
        assert [e.subset for e in rep.entries] == [(1,), (1, 2), (1, 2, 3)]
        assert rep.minima == ((1,),)
        assert rep.l_rad.dim == 5
        assert rep.little_rad.dim == 3
        e11 = L3_7.from_matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        expected = ideal_generated(L3_7, [L3_7.one - e11], "right")
        assert rep.l_rad.space == expected.space
        e22 = L3_7.from_matrix([[0, 0, 0], [0, 1, 0], [0, 0, 0]])
        expected_little = ideal_generated(L3_7, [L3_7.one - e11 - e22], "right")
        assert rep.little_rad.space == expected_little.space
        assert not any(rep.flags.values())

    def test_semisimple_product_counts(self, P1):
        rep = localization_report(P1)
        assert rep.flags["semisimple"]
        assert len(rep.max_den) == 2 == rep.family.s
        assert rep.l_rad.dim == 0

    def test_simple_algebra_is_localization_maximal(self, M2_7):
        rep = localization_report(M2_7)
        assert rep.flags["localization_maximal"]
        assert rep.loc_count == 1
        assert rep.l_rad.dim == 0

    def test_strict_little_radical_containment(self, L3_7):
        rep = localization_report(L3_7)
        assert rep.l_rad.space.contains(rep.little_rad.space)
        assert rep.little_rad.dim < rep.l_rad.dim

    def test_kernel_ideal_identities(self, L3_7, T7xF7):
        from artinloc.algebra import ideal_combine
        from artinloc.localization import _right_ideal_of
        for a in (L3_7, T7xF7):
            rep = localization_report(a)
            for en in rep.entries:
                sq = ideal_combine(en.ass, en.ass, "product")
                assert sq.space == en.ass.space
                er = _right_ideal_of(a, en.idempotent)
                assert en.ass.space.sum(er).dim == a.dim
                assert en.ass.space.intersect(er).dim == 0

    def test_radical_containment_criterion(self, L2_7, F7F7):
        # l inside rad happens only when l = 0
        rep = localization_report(L2_7)
        fam = block_decomposition(L2_7)
        assert rep.l_rad.dim > 0
        assert not fam.rad.space.contains(rep.l_rad.space)
        rep0 = localization_report(F7F7)
        assert rep0.l_rad.dim == 0

    def test_to_dict_shape(self, L3_7):
        d = localization_report(L3_7).to_dict()
        assert d["loc_count"] == 3
        assert d["minima"] == ["{1}"]
        assert d["l_rad_dim"] == 5
        assert d["little_rad_dim"] == 3


class TestAssociatedIdempotent:
    def test_unit_gets_the_identity(self, L2_7):
        u = L2_7.from_matrix([[2, 0], [1, 1]])
        out = associated_idempotent(L2_7, u)
        assert out.n == 0 and out.e == L2_7.one and not out.is_nilpotent

    def test_nilpotent_flagged(self, L2_7):
        x = L2_7.from_matrix([[0, 0], [1, 0]])
        out = associated_idempotent(L2_7, x)
        assert out.is_nilpotent and out.e.is_zero()

    def test_remark_element(self, L2_7):
        s = L2_7.from_matrix([[2, 0], [1, 0]])
        out = associated_idempotent(L2_7, s)
        assert out.n == 1
        assert out.e.coeffs == (1, 4, 0)      # E_11 + 4 E_21
        assert out.e_prime.coeffs == (0, 3, 1)
        assert (out.e * out.e) == out.e

    def test_upper_corner_unit_split(self, U2_7):
        s = U2_7.from_matrix([[1, 0], [0, 0]])
        out = associated_idempotent(U2_7, s)
        assert out.e.coeffs == (1, 0, 0)        # E_11
        assert out.e_prime.coeffs == (0, 0, 1)  # E_22
        # oracle: R*s and ker(.s) recomputed directly
        rs = Subspace.from_vectors(7, 3, regular_matrix(U2_7, s, "right").tolist())
        assert rs.basis == ((1, 0, 0),)
        ker = kernel(regular_matrix(U2_7, s, "right"), 7)
        assert ker.basis == ((0, 1, 0), (0, 0, 1))


class TestPowersCriterion:
    def test_remark_element_qualifies(self, L2_7):
        s = L2_7.from_matrix([[2, 0], [1, 0]])
        ok, desc = powers_denominator_criterion(L2_7, s)
        assert ok
        assert desc.ass.space.basis == ((0, 1, 0), (0, 0, 1))
        assert desc.quotient.algebra.dim == 1
        assert desc.min_core_exponent == 1
        om = L2_7.one - desc.witness_idempotent
        power = s
        for _ in range(5):
            assert (om * power * om).is_zero()
            power = power * s

    def test_annihilation_structure_of_remark_element(self, L2_7):
        s = L2_7.from_matrix([[2, 0], [1, 0]])
        _, desc = powers_denominator_criterion(L2_7, s)
        for v in desc.ass.space.basis:
            assert (s * L2_7.element(v)).is_zero()
        hit = any(not (L2_7.element(v) * s).is_zero() for v in desc.ass.space.basis)
        assert hit

    def test_upper_corner_fails(self, U2_7):
        ok, desc = powers_denominator_criterion(U2_7, U2_7.from_matrix([[1, 0], [0, 0]]))
        assert not ok and desc is None

    def test_unit_trivially_qualifies(self, L2_7):
        u = L2_7.from_matrix([[2, 0], [1, 1]])
        ok, desc = powers_denominator_criterion(L2_7, u)
        assert ok and desc.ass.dim == 0
        assert desc.quotient.algebra.dim == 3
        assert desc.min_core_exponent == 0

    def test_nilpotent_rejected(self, L2_7):
        ok, desc = powers_denominator_criterion(L2_7, L2_7.from_matrix([[0, 0], [1, 0]]))
        assert not ok and desc is None


class TestIdempotentCheck:
    def test_corner_idempotent_sides(self, L2_7):
        e = L2_7.from_matrix([[1, 0], [0, 0]])
        chk = idempotent_denominator_check(L2_7, e)
        assert chk.left and not chk.right and not chk.central

    def test_opposite_corner_in_upper(self, U2_7):
        e = U2_7.from_matrix([[1, 0], [0, 0]])
        chk = idempotent_denominator_check(U2_7, e)
        assert not chk.left and chk.right

    def test_central_idempotent(self, F7F7):
        chk = idempotent_denominator_check(F7F7, F7F7.element([1, 0]))
        assert chk.left and chk.right and chk.twosided and chk.central

    def test_conjugates_of_the_corner(self, L2_7):
        e11 = L2_7.from_matrix([[1, 0], [0, 0]])
        base = idempotent_denominator_check(L2_7, e11)
        for a_val in range(1, 7):
            e = L2_7.from_matrix([[1, 0], [a_val, 0]])
            chk = idempotent_denominator_check(L2_7, e)
            assert chk.left
            # same localization class: identical kernel ideals
            assert chk.descriptor.ass.space == base.descriptor.ass.space

    def test_zero_idempotent_rejected(self, L2_7):
        with pytest.raises(InputError):
            idempotent_denominator_check(L2_7, L2_7.zero)

    def test_non_idempotent_rejected(self, L2_7):
        with pytest.raises(InputError):
            idempotent_denominator_check(L2_7, L2_7.from_matrix([[2, 0], [0, 0]]))


class TestMonoidDecision:
    def test_triangular_idempotent_generator(self, L2_7):
        e = localization_report(L2_7).entry((1,)).idempotent
        ok, desc = monoid_denominator_decision(L2_7, [e])
        assert ok
        expected = ideal_generated(L2_7, [L2_7.one - e], "right")
        assert desc.ass.space == expected.space

    def test_two_generator_example(self, L2_7):
        g1 = L2_7.from_matrix([[2, 0], [1, 0]])
        g2 = L2_7.from_matrix([[3, 0], [0, 1]])
        ok, desc = monoid_denominator_decision(L2_7, [g1, g2])
        assert ok and desc.ass.dim == 2
        # oracle agreement
        closure = monoid_closure(L2_7, [g1, g2])
        res = brute_denominator_check(L2_7, closure)
        assert res.is_den and res.ass.space == desc.ass.space

    def test_upper_corner_fails(self, U2_7):
        ok, desc = monoid_denominator_decision(U2_7, [U2_7.from_matrix([[1, 0], [0, 0]])])
        assert not ok and desc is None

    def test_nilpotent_generator_fails(self, T7):
        ok, desc = monoid_denominator_decision(T7, [T7.element([0, 1])])
        assert not ok


class TestClassifyElement:
    def test_units_are_completely_localizable(self, L2_7):
        rep = localization_report(L2_7)
        out = classify_element(L2_7, L2_7.from_matrix([[2, 0], [1, 1]]), rep)
        assert out["completely"] and out["left_localizable"]

    def test_localizable_non_unit(self, L2_7):
        rep = localization_report(L2_7)
        r = L2_7.from_matrix([[2, 0], [5, 0]])
        out = classify_element(L2_7, r, rep)
        assert out["left_localizable"]
        assert rank(regular_matrix(L2_7, r, "left"), 7) < 3

    def test_radical_element_is_stuck(self, L2_7):
        rep = localization_report(L2_7)
        out = classify_element(L2_7, L2_7.from_matrix([[0, 0], [1, 0]]), rep)
        assert not out["left_localizable"] and out["witnesses"] == ()

    def test_nl_set_ideal_criterion(self, L2_7, P1, F7F7):
        # the non-localizable elements form an ideal iff the quotient at
        # every minimal class is a field (a finite ring whose nonzero
        # elements are all units)
        for a, expected in ((L2_7, True), (P1, False), (F7F7, True)):
            rep = localization_report(a)
            fields = []
            for sub in rep.minima:
                q = rep.entry(sub).quotient.algebra
                fields.append(int(q.batch_unit_mask(q.enumerate_coeffs()).sum()) == q.p ** q.dim - 1)
            nl = [x.coeffs for x in a.iter_elements()
                  if not classify_element(a, x, rep)["left_localizable"]]
            # an ideal is a subspace closed under multiplication on both sides
            span = Subspace.from_vectors(a.p, a.dim, nl)
            is_ideal = a.p ** span.dim == len(nl)
            if is_ideal:
                try:
                    Ideal(a, span, "twosided")
                except InputError:
                    is_ideal = False
            assert is_ideal == all(fields) == expected


class TestDuality:
    def test_lower_triangular_pairing(self, L2_7):
        dr = duality_report(L2_7)
        assert dr.counts_equal
        assert dr.pairing == (((1,), (2,)),)
        assert dr.left.l_rad.dim == 2 and dr.r_rad.dim == 2
        assert dr.l_neq_r
        e22 = L2_7.from_matrix([[0, 0], [0, 1]])
        expected_r = ideal_generated(L2_7, [L2_7.one - e22], "left")
        assert dr.r_rad.space == expected_r.space

    def test_both_sides_are_one_report_type(self, L2_7):
        dr = duality_report(L2_7)
        assert type(dr.left) is type(dr.right) is LocalizationReport
        assert (dr.left.side, dr.right.side) == ("left", "right")
        assert dr.right.to_dict()["algebra"]["label"] == "op(L2(GF(7)))"
        assert dr.r_rad is dr.right.l_rad

    def test_simple_algebra_trivial(self, M2_7):
        dr = duality_report(M2_7)
        assert dr.left.loc_count == dr.right.loc_count == 1
        assert not dr.l_neq_r

    def test_full_complement_map_on_two_blocks(self, F7F7):
        dr = duality_report(F7F7)
        assert set(dr.pairing) == {((1,), (2,)), ((2,), (1,))}
        assert dr.l_zero_iff_r_zero

    def test_vanishing_together_across_corpus(self, L3_7, U3_7, T7, T7xF7, P1):
        for a in (L3_7, U3_7, T7, T7xF7, P1):
            dr = duality_report(a)
            assert dr.counts_equal and dr.l_zero_iff_r_zero

    def test_right_kernel_ideals_must_be_two_sided(self, L2_7):
        # with each column of the corner table gathered on the diagonal, the
        # dimensions of the R 1_j still add up but no corner joins two
        # blocks, so {1} passes for a right class; its kernel
        # R(1 - e_1) = R E22 is the line through E22, which E22 R, holding
        # E21, leaves
        left = localization_report(L2_7)
        blank = dataclasses.replace(left, corners=np.diag(left.corners.sum(axis=0)))
        with pytest.raises(InternalCheckError, match="a right kernel ideal is not a two-sided ideal"):
            localization._right_report(blank)


class TestTwoSided:
    def test_product_counting(self, P1):
        ts = two_sided_report(P1)
        assert ts.factors == 2
        assert ts.loc_count == 3
        assert ts.loc_radical.dim == 0

    def test_powers_criterion_mixed_component(self, P1):
        r = P1.element([1, 0, 0, 0, 1])  # (E_11, 1): E_11 neither unit nor nilpotent
        ts = two_sided_report(P1)
        assert not ts.powers_criterion(r)

    def test_powers_criterion_unit_nilpotent_components(self, T7xF7):
        ts = two_sided_report(T7xF7)
        assert ts.powers_criterion(T7xF7.element([0, 1, 3]))      # (x, 3)
        assert ts.powers_criterion(T7xF7.element([1, 1, 3]))      # (1+x, 3), both units
        assert not ts.powers_criterion(T7xF7.element([0, 1, 0]))  # (x, 0) nilpotent

    def test_core_rule_matches_oracle(self, T7xF7):
        ts = two_sided_report(T7xF7)
        e1 = ts.central_idempotents[1]
        closure = monoid_closure(T7xF7, [T7xF7.element([0, 1, 3])])
        res = brute_denominator_check(T7xF7, closure, "twosided")
        assert res.is_den
        # kernel ideal R(1 - e_{2}) picks the second factor; the core
        # formula is (1 - e_{2}) s = 0
        om = T7xF7.one - e1
        rule_core = {m.coeffs for m in closure.members if (om * m).is_zero()}
        oracle_core = {m.coeffs for m in res.core.members}
        assert rule_core == oracle_core

    def test_completely_localizable_are_units(self, T7xF7):
        ts = two_sided_report(T7xF7)
        rng = random.Random(5)
        for _ in range(100):
            r = T7xF7.element([rng.randrange(7) for _ in range(3)])
            all_units = all(
                rank(regular_matrix(q.algebra, q.project(r), "left"), 7) == q.algebra.dim
                for q in ts.factor_quotients)
            is_unit = rank(regular_matrix(T7xF7, r, "left"), 7) == T7xF7.dim
            assert all_units == is_unit

    def test_single_factor(self, M2_7):
        ts = two_sided_report(M2_7)
        assert ts.factors == 1 and ts.loc_count == 1

    def test_indecomposable_algebras_only_invert_units(self, M2_7, T7, L2_7):
        # with a single central idempotent every two-sided denominator set
        # sits inside the unit group; with more than one, {1, e_i} escapes it
        rng = random.Random(11)
        for a in (M2_7, T7, L2_7):
            assert two_sided_report(a).factors == 1
            found = 0
            while found < 25:
                r = a.element([rng.randrange(a.p) for _ in range(a.dim)])
                closure = monoid_closure(a, [r])
                if closure.contains_zero:
                    continue
                if brute_denominator_check(a, closure, "twosided").is_den:
                    found += 1
                    for m in closure.members:
                        assert rank(regular_matrix(a, m, "left"), a.p) == a.dim

    def test_decomposable_algebras_invert_non_units(self, F7F7, P1):
        for a in (F7F7, P1):
            ts = two_sided_report(a)
            assert ts.factors > 1
            e = ts.central_idempotents[0]
            sset = FiniteSetOfElements.from_elements(a, [a.one, e])
            res = brute_denominator_check(a, sset, "twosided")
            assert res.is_den
            assert rank(regular_matrix(a, e, "left"), a.p) < a.dim


class TestMaximalSetMaterialization:
    def test_unit_preimage_count_in_lower_triangular(self, L2_7):
        # units of the one-dimensional quotient pull back to 6*7*7 elements
        rep = localization_report(L2_7)
        members = rep.max_den[0].members_within()
        assert len(members) == 294
        for m in members[:20]:
            assert rep.max_den[0].image_is_unit(m)

    def test_materialized_set_passes_the_definitional_check(self, L2_5):
        rep = localization_report(L2_5)
        members = rep.max_den[0].members_within()
        res = brute_denominator_check(L2_5, FiniteSetOfElements.from_elements(L2_5, members))
        assert res.is_den
        assert res.ass.space == rep.max_den[0].ass.space
        oracle_core = {m.coeffs for m in res.core.members}
        xs = np.array([m.coeffs for m in members], dtype=np.int64)
        formula_core = set(map(tuple, xs[rep.max_den[0].core_mask(xs)].tolist()))
        assert oracle_core == formula_core


class TestClassRepresentatives:
    def test_conjugate_idempotents_share_the_class(self, L2_7):
        # all corner conjugates give the kernel ideal of the {1}-class
        rep = localization_report(L2_7)
        class_ass = rep.entry((1,)).ass.space
        for a_val in range(7):
            e = L2_7.from_matrix([[1, 0], [a_val, 0]])
            chk = idempotent_denominator_check(L2_7, e)
            assert chk.left and chk.descriptor.ass.space == class_ass

    def test_union_of_minima_is_an_entry(self, P1, L3_7, F7F7):
        for a in (P1, L3_7, F7F7):
            rep = localization_report(a)
            union = tuple(sorted(set().union(*[set(m) for m in rep.minima])))
            assert union in [en.subset for en in rep.entries]
            assert rep.entry(union).ass.space == rep.l_rad.space


# ---------------------------------------------------------------------------
# The batched decision against the per-member loops it replaced
# ---------------------------------------------------------------------------

def reference_associated_idempotent(a, s):
    """(n, e) by the one-element loop: powers of the right multiplication
    until R s^n stops shrinking, then 1 split along R s^n (+) ker(.s^n)."""
    rm = regular_matrix(a, s, "right")
    prev = Subspace.full(a.p, a.dim)
    power = np.eye(a.dim, dtype=np.int64)
    n = 0
    while True:
        nxt_mat = power @ rm % a.p
        nxt = Subspace.from_vectors(a.p, a.dim, nxt_mat.tolist())
        if nxt == prev:
            break
        prev, power = nxt, nxt_mat
        n += 1
    if prev.dim == 0:
        return n, a.zero
    ker = kernel(power, a.p)
    assert prev.dim + ker.dim == a.dim and prev.intersect(ker).dim == 0
    combo = express_in_rows(list(prev.basis) + list(ker.basis), a.one_coeffs, a.p)
    e = a.zero
    for c, row in zip(combo, prev.basis):
        e = e + a.element(row) * c
    return n, e


def reference_powers(a, s):
    """The powers criterion on one element: (e, kernel ideal, quotient,
    minimal core exponent), or None when the powers do not qualify."""
    _, e = reference_associated_idempotent(a, s)
    om = a.one - e
    if e.is_zero() or not reference_corner_is_zero(a, e, om):
        return None
    if not ((om * s * om) ** a.dim).is_zero():
        return None
    ass = Ideal(a, Subspace.from_vectors(a.p, a.dim, regular_matrix(a, om, "left").tolist()), "twosided")
    min_exp = 0 if ass.dim == 0 else next(i for i in range(1, a.dim + 1)
                                          if (om * s ** i * om).is_zero())
    return e, ass, quotient_algebra(a, ass), min_exp


def reference_monoid(a, gens):
    """The witness search member by member, in closure order."""
    closure = monoid_closure(a, gens)
    if closure.contains_zero:
        return False, None
    witnesses = []
    for s in closure.members:
        out = reference_powers(a, s)
        if out is None:
            continue
        e, ass, quo, _ = out
        if all(rank(regular_matrix(quo.algebra, quo.project(g), "left"), a.p) == quo.algebra.dim
               for g in gens):
            witnesses.append((s, e, ass, quo))
    if not witnesses:
        return False, None
    assert len({ass.space for _, _, ass, _ in witnesses}) == 1
    s, e, ass, quo = next(w for w in witnesses if kernel(regular_matrix(a, w[0], "left"), a.p) == w[2].space)
    return True, ("monoid", e.coeffs, ass.space, quo.algebra.dim, None)


def summary(verdict, desc):
    if desc is None:
        return verdict, None
    return verdict, (desc.kind, desc.witness_idempotent.coeffs, desc.ass.space,
                     desc.quotient.algebra.dim, desc.min_core_exponent)


def assert_idempotents_match(a, members):
    xs = np.array([m.coeffs for m in members], dtype=np.int64)
    nilpotent, es = _associated_idempotents(a, xs)
    for m, nil, e in zip(members, nilpotent, es.tolist()):
        _, ref = reference_associated_idempotent(a, m)
        assert tuple(e) == ref.coeffs and bool(nil) == ref.is_zero()


DECISION_ALGEBRAS = [lower_triangular(7, 2), upper_triangular(5, 2), full_matrix(5, 2),
                     full_matrix(7, 2), truncated_poly(7, 3), truncated_poly(7, 4),
                     direct_product([full_matrix(5, 1)] * 3)[0],
                     direct_product([lower_triangular(5, 2), full_matrix(5, 1)])[0],
                     direct_product([truncated_poly(7, 2), full_matrix(7, 1)])[0]]


@st.composite
def generator_sets(draw):
    """A small algebra (p**dim <= 2**12) with one or two generators whose
    closure stays below 128 members."""
    a = draw(st.sampled_from(DECISION_ALGEBRAS))
    vec = st.lists(st.integers(0, a.p - 1), min_size=a.dim, max_size=a.dim)
    gens = [a.element(v) for v in draw(st.lists(vec, min_size=1, max_size=2))]
    try:
        closure = monoid_closure(a, gens, guard=128)
    except ResourceGuardError:
        assume(False)
    return a, gens, closure


class TestBatchedDecision:
    @settings(max_examples=150, deadline=None)
    @given(generator_sets())
    def test_matches_the_per_member_loop(self, drawn):
        a, gens, closure = drawn
        assert_idempotents_match(a, closure.members)
        assert summary(*monoid_denominator_decision(a, gens)) == reference_monoid(a, gens)
        out = reference_powers(a, gens[0])
        expected = (False, None) if out is None else (
            True, ("powers", out[0].coeffs, out[1].space, out[2].algebra.dim, out[3]))
        assert summary(*powers_denominator_criterion(a, gens[0])) == expected
        n, e = reference_associated_idempotent(a, gens[0])
        single = associated_idempotent(a, gens[0])
        assert (single.n, single.e, single.is_nilpotent) == (n, e, e.is_zero())

    @pytest.mark.parametrize("kind", ["nilpotent", "unit", "several idempotents"])
    def test_closures_against_the_loop(self, kind):
        if kind == "nilpotent":
            # x in GF(7)[x]/(x^4) stabilizes only at the fourth power
            a = truncated_poly(7, 4)
            gens = [a.element([0, 1, 0, 0])]
        elif kind == "unit":
            a = lower_triangular(7, 2)
            gens = [a.from_matrix([[2, 0], [1, 1]])]
        else:
            a = lower_triangular(7, 3)
            gens = [a.element([4, 0, 0, 5, 2, 0]), a.element([6, 1, 0, 3, 0, 4])]
        closure = monoid_closure(a, gens)
        assert_idempotents_match(a, closure.members)
        distinct = {e for e in map(tuple, _associated_idempotents(
            a, np.array([m.coeffs for m in closure.members]))[1].tolist())}
        assert len(distinct) == {"nilpotent": 2, "unit": 1, "several idempotents": 10}[kind]
        assert summary(*monoid_denominator_decision(a, gens)) == reference_monoid(a, gens)

    @pytest.mark.parametrize("fault, message", [
        ("rank", "do not decompose the algebra"),
        ("consistency", "identity is not reachable"),
        ("solution", "decomposition of 1 is not by idempotents"),
    ])
    def test_each_decomposition_check_fires(self, fault, message, L2_7, monkeypatch):
        solve = localization.batch_solve

        def faulty(mats, targets, p):
            sol, consistent, ranks = solve(mats, targets, p)
            if fault == "rank":
                ranks = ranks + np.arange(len(ranks))
            elif fault == "consistency":
                consistent = np.zeros_like(consistent)
            else:
                sol = 2 * sol % p
            return sol, consistent, ranks

        monkeypatch.setattr(localization, "batch_solve", faulty)
        with pytest.raises(InternalCheckError, match=message):
            monoid_denominator_decision(L2_7, [L2_7.from_matrix([[2, 0], [1, 0]])])

    def test_large_two_generator_closure(self):
        # 3,756 members and 13 distinct associated idempotents; the
        # descriptor is the one the per-member loop returned
        a = lower_triangular(13, 3)
        gens = [a.element([9, 3, 12, 10, 2, 0]), a.element([6, 8, 8, 9, 2, 10])]
        assert len(monoid_closure(a, gens)) == 3756
        ok, desc = monoid_denominator_decision(a, gens)
        assert summary(ok, desc) == (True, ("monoid", (1, 0, 1, 0, 1, 0),
                                            Subspace.from_vectors(13, 6, [[0, 0, 0, 1, 0, 0],
                                                                          [0, 0, 0, 0, 1, 0],
                                                                          [0, 0, 0, 0, 0, 1]]),
                                            3, None))


# ---------------------------------------------------------------------------
# Fault injection into the batched lattice checks
# ---------------------------------------------------------------------------

def gf7_cubed():
    return direct_product([full_matrix(7, 1)] * 3)[0]


def left_report_check(a):
    """The ``left_report_invariants`` result of the battery on ``a``; the
    small guard skips the oracle sweeps."""
    result = next(r for r in run_invariants(a, guard=64, samples=4) if r.name == "left_report_invariants")
    return result.ok, result.detail


def bump_corner(monkeypatch, block):
    """Hand each report build a corner table that reads the corner of
    ``block`` (0-based) with itself one dimension too high."""
    build = localization._side_report

    def faulty(a, side, fam, corners):
        corners = corners.copy()
        corners[block, block] += 1
        return build(a, side, fam, corners)

    monkeypatch.setattr(localization, "_side_report", faulty)


def with_report(monkeypatch, change):
    """Hand the battery ``change(report)`` in place of each left report."""
    real = suite.localization_report
    monkeypatch.setattr(suite, "localization_report", lambda a: change(real(a)))


class TestLatticeChecksFire:
    """Each check of the class lattice fires on one corrupted kernel ideal,
    product, table, idempotent or radical: in the report's build for the
    checks that read the Peirce decomposition, on either side, in the
    ``left_report_invariants`` check of the battery for the eliminations
    and products that re-prove it.  Fresh algebras: reports are cached."""

    @pytest.mark.parametrize("fault, message", [
        ("repeat", "distinct subsets gave the same kernel ideal"),
        ("swap", "subset containment does not reverse into the ideals"),
    ])
    def test_kernel_ideal_faults(self, fault, message, monkeypatch):
        # GF(7)^3: the classes {1,2} and {1,3} (entries 3 and 4) are no
        # minima and their kernel ideals <E3> and <E2> have one dimension,
        # so a swap passes the build; the ranks find <E2> at {1,2} outside
        # K_{2} = <E1, E3>
        row_spaces = localization.batch_row_spaces

        def faulty(mats, p):
            spaces = row_spaces(mats, p)
            # GF(7)^3 itself; the battery also builds reports of quotients
            if len(spaces) == 7:
                if fault == "repeat":
                    spaces[4] = spaces[3]
                else:
                    spaces[3], spaces[4] = spaces[4], spaces[3]
            return spaces

        monkeypatch.setattr(localization, "batch_row_spaces", faulty)
        assert left_report_check(gf7_cubed()) == (False, f"InternalCheckError: {message}")

    @pytest.mark.parametrize("fault", ["swap", "block rank"])
    def test_kernel_dimension_fault(self, fault, monkeypatch):
        # L3 on (E11, E21, E22, E31, E32, E33): dim 1_j R is 1, 2, 3, so
        # K_{1} has dimension 5 and K_{1,2} dimension 3; "swap" exchanges
        # the two ideals, "block rank" reads dim 1_3 R 1_3, so dim 1_3 R, one
        # too high
        if fault == "swap":
            row_spaces = localization.batch_row_spaces

            def faulty(mats, p):
                spaces = row_spaces(mats, p)
                spaces[0], spaces[1] = spaces[1], spaces[0]
                return spaces

            monkeypatch.setattr(localization, "batch_row_spaces", faulty)
        else:
            bump_corner(monkeypatch, 2)
        with pytest.raises(InternalCheckError,
                           match="kernel ideal dimension is not the sum over the blocks outside the class"):
            localization_report(lower_triangular(7, 3))

    @pytest.mark.parametrize("fault, message", [
        ("repeat", "distinct subsets gave the same kernel ideal"),
        ("swap", "kernel ideal dimension is not the sum over the blocks outside the class"),
        ("block rank", "kernel ideal dimension is not the sum over the blocks outside the class"),
        ("all minimal", "distinct minima do not annihilate through the ring"),
    ])
    def test_right_class_faults(self, fault, message, monkeypatch):
        # L3 on (E11, E21, E22, E31, E32, E33): the right classes are {3},
        # {2,3} and {1,2,3}, with kernel ideals R(1 - e_I) of dimension 5, 3
        # and 0, and dim R 1_j is 3, 2, 1.  "repeat" gives {2,3} the kernel
        # ideal of {3}, "swap" exchanges the two, "block rank" reads
        # dim 1_1 R 1_1, so dim R 1_1, one too high, and "all minimal" takes
        # every class for a minimum, so {3} and {2,3} meet in the corner
        # 1_3 R 1_3.  The left report is built first, so the fault reaches
        # only the right side's build.
        a = lower_triangular(7, 3)
        localization_report(a)
        if fault == "block rank":
            bump_corner(monkeypatch, 0)
        elif fault == "all minimal":
            monkeypatch.setattr(localization, "_minimal_masks", lambda masks: np.ones(len(masks), dtype=bool))
        else:
            row_spaces = localization.batch_row_spaces

            def faulty(mats, p):
                spaces = row_spaces(mats, p)
                spaces[0], spaces[1] = (spaces[0], spaces[0]) if fault == "repeat" else (spaces[1], spaces[0])
                return spaces

            monkeypatch.setattr(localization, "batch_row_spaces", faulty)
        with pytest.raises(InternalCheckError, match=message):
            duality_report(a)

    @pytest.mark.parametrize("row, message", [
        (0, "block-sum idempotents do not multiply to the intersection"),
        (1, "disjoint block-sum idempotents are not orthogonal"),
    ])
    def test_idempotent_product_faults(self, row, message, monkeypatch):
        # entries {1}, {2}, {1,2}: the battery's first row of products is
        # e_{1} times each entry, so row 0 is ({1}, {1}), row 1 ({1}, {2});
        # the report is built first, as the block split of this semisimple
        # algebra multiplies in it too
        a = direct_product([full_matrix(7, 1)] * 2)[0]
        localization_report(a)
        mul_left = a.batch_mul_left

        def faulty(x, ys):
            out = mul_left(x, ys)
            out[row] = (out[row] + 1) % a.p
            return out

        monkeypatch.setattr(a, "batch_mul_left", faulty)
        assert left_report_check(a) == (False, f"InternalCheckError: {message}")

    @pytest.mark.parametrize("dropped, check, message", [
        # {1} is {1,2} & {1,3}: the report finds two maxima for three blocks
        pytest.param((1,), "left_report_invariants",
                     "InternalCheckError: semisimple algebra without one maximal class per block",
                     id="dropped0-intersection of qualifying subsets does not qualify"),
        # {1,2} is {1} | {2}: the report holds, the scan of every block sum differs
        pytest.param((1, 2), "triangular_subset_scan",
                     "the scan finds {1} {2} {3} {1,2} {1,3} {2,3} {1,2,3}, "
                     "the report {1} {2} {3} {1,3} {2,3} {1,2,3}",
                     id="dropped1-disjoint union of qualifying subsets does not qualify"),
    ])
    def test_subset_lattice_faults(self, dropped, check, message, monkeypatch):
        # the closed sets of the corner digraph are closed under & and |, so
        # a subset missing from them is a fault of the reading, not of the ring
        closed = localization._closed_subsets
        monkeypatch.setattr(localization, "_closed_subsets",
                            lambda corners: [sub for sub in closed(corners) if sub != dropped])
        result = next(r for r in run_invariants(gf7_cubed(), samples=4) if r.name == check)
        assert not result.ok and result.detail == message

    @pytest.mark.parametrize("fault", ["rank", "outside"])
    def test_kernel_product_fault(self, fault, monkeypatch):
        # L3 on (E11, E21, E22, E31, E32, E33): the first pair's product
        # K_{1} K_{1} is K_{1}, the 5 matrices with zero first row; "rank"
        # leaves it too small, "outside" has the right rank but holds E11
        products = suite._kernel_products

        def faulty(a, idems, kernels):
            for n, (k, l, rows) in enumerate(products(a, idems, kernels)):
                if n == 0:
                    rows[0] = 0 if fault == "rank" else np.eye(5, 6, dtype=np.int64)
                yield k, l, rows

        monkeypatch.setattr(suite, "_kernel_products", faulty)
        assert left_report_check(lower_triangular(7, 3)) == (
            False, "InternalCheckError: kernel ideals do not multiply to their intersection")

    def test_containment_table_fault(self, monkeypatch):
        # L3: dim 1_j R is 1, 2, 3; reading dim 1_3 R as 4 puts
        # dim(K_{1} + K_{1}) at 6, so the meet of K_{1} (dim 5) with itself
        # at dim 4, below the rank 5 of the product K_{1} K_{1}
        def change(rep):
            if rep.algebra.dim != 6:
                return rep
            corners = rep.corners.copy()
            corners[2, 2] += 1
            return dataclasses.replace(rep, corners=corners)

        with_report(monkeypatch, change)
        assert left_report_check(lower_triangular(7, 3)) == (
            False, "InternalCheckError: kernel ideals do not multiply to their intersection")

    def test_closed_form_table_fault(self, monkeypatch):
        # L3: the ranks read dim(K_{1} + K_{1,2,3}) = dim(K_{1} + 0) as 6,
        # not 5; containment still reads "no" there, and the products take
        # their meets from the report's table, so only the comparison fires
        sum_dims = suite._sum_dims

        def faulty(spaces, p):
            out = sum_dims(spaces, p)
            out[0, 2] += 1
            return out

        monkeypatch.setattr(suite, "_sum_dims", faulty)
        assert left_report_check(lower_triangular(7, 3)) == (
            False, "InternalCheckError: the closed-form table of dim(K_I + K_J) disagrees with the ranks")

    @pytest.mark.parametrize("subset", [(1, 2), ()], ids=["meets", "short"])
    def test_direct_decomposition_fault(self, subset, monkeypatch):
        # L3: the class {1} is given e_I for another I; e_{1,2} R (dim 3)
        # meets K_{1} (dim 5) in 1_2 R, and 0 R leaves K_{1} short of R
        def change(rep):
            first = dataclasses.replace(rep.entries[0], idempotent=block_sum(rep.family, subset))
            return dataclasses.replace(rep, entries=(first, *rep.entries[1:]))

        with_report(monkeypatch, change)
        assert left_report_check(lower_triangular(7, 3)) == (
            False, "InternalCheckError: kernel ideal plus eR is not a direct decomposition")

    @pytest.mark.parametrize("fault", ["reported", "intersection", "product"])
    def test_localization_radical_faults(self, fault, monkeypatch):
        # GF(7)^2: the minima {1}, {2} have kernel ideals <E2>, <E1>, so all
        # three forms are 0; "reported" hands the battery K_{1} as the
        # radical, the others replace one form by the first ideal
        if fault == "reported":
            with_report(monkeypatch, lambda rep: dataclasses.replace(rep, l_rad=rep.entries[0].ass))
        else:
            combine_all = suite._combine_all
            monkeypatch.setattr(suite, "_combine_all",
                                lambda ideals, op: ideals[0] if op == fault else combine_all(ideals, op))
        assert left_report_check(direct_product([full_matrix(7, 1)] * 2)[0]) == (
            False, "InternalCheckError: the three computations of the localization radical disagree")

    @pytest.mark.parametrize("fault, message", [
        ("reported", "intersection over the nonzero ideals disagrees"),
        ("minimal", "intersection over minimal ideals disagrees"),
        ("product", "product form disagrees"),
    ])
    def test_little_radical_faults(self, fault, message, monkeypatch):
        # L3: the nonzero kernel ideals are K_{1} (dim 5) and K_{1,2}
        # (dim 3), the minimal one and the little radical K_{1,2}; each
        # fault puts K_{1} in the place of one of the three forms
        if fault == "reported":
            with_report(monkeypatch, lambda rep: dataclasses.replace(rep, little_rad=rep.l_rad))
        elif fault == "minimal":
            extremal = suite._extremal_kernels
            monkeypatch.setattr(suite, "_extremal_kernels",
                                lambda tri: (extremal(tri)[0], extremal(tri)[0][:1]))
        else:
            combine_all = suite._combine_all
            monkeypatch.setattr(suite, "_combine_all",
                                lambda ideals, op: ideals[0] if op == "product" else combine_all(ideals, op))
        assert left_report_check(lower_triangular(7, 3)) == (False, f"InternalCheckError: little radical: {message}")

    def test_class_kernel_fault(self, monkeypatch):
        # GF(7)^3: the class {1,2} is given K_{1,3} = <E2>, a closed ideal of
        # the dimension of its own (1 - e_{1,2})R = <E3>; the lattice is read
        # off the class set, and both radicals are 0 either way
        def change(rep):
            entries = list(rep.entries)
            entries[3] = dataclasses.replace(entries[3], ass=entries[4].ass)
            return dataclasses.replace(rep, entries=tuple(entries))

        with_report(monkeypatch, change)
        assert left_report_check(gf7_cubed()) == (
            False, "InternalCheckError: kernel ideal of the class {1,2} is not (1 - e)R")


class TestTwoSidedChecksFire:
    """The two-sided report takes its factor ideals from one batched
    elimination and holds their meet, 0 by theorem, as its radical; the
    ``two_sided_report`` check of the battery re-derives both."""

    @pytest.mark.parametrize("fault, message", [
        ("ideal", "ideal of central factor 0 is not (1 - e)R"),
        ("repeat", "two-sided localization radical must vanish"),
        ("radical", "two-sided localization radical must vanish"),
    ])
    def test_factor_faults(self, fault, message, monkeypatch):
        # M2(7) x GF(7): the factor ideals are (1 - e_0)R = GF(7) and
        # (1 - e_1)R = M2(7).  "ideal" gives factor 0 the ideal of factor 1,
        # "repeat" lists factor 0 twice, so the factor ideals meet in GF(7),
        # and "radical" holds GF(7) as the radical
        def change(ts):
            first, second = ts.max_den
            if fault == "ideal":
                return dataclasses.replace(ts, max_den=(dataclasses.replace(first, ass=second.ass), second))
            if fault == "repeat":
                return dataclasses.replace(ts, max_den=(first, first))
            return dataclasses.replace(ts, loc_radical=first.ass)

        real = suite.two_sided_report
        monkeypatch.setattr(suite, "two_sided_report", lambda a: change(real(a)))
        a = direct_product([full_matrix(7, 2), full_matrix(7, 1)])[0]
        result = next(r for r in run_invariants(a, guard=64, samples=4) if r.name == "two_sided_report")
        assert (result.ok, result.detail) == (False, f"InternalCheckError: {message}")


def test_dual_runs_the_shared_checks_on_the_right_side(monkeypatch, tmp_path, capsys):
    # GF(7)^2 with every right class taken for a minimum: the classes, their
    # kernel ideals and both radicals are unchanged, so the complement
    # pairing and the radicals agree with the left side, and only the count
    # of minima against the blocks, which both sides' reports check, sees
    # three minima for two blocks
    build, minimal = localization._side_report, localization._minimal_masks
    sides = []

    def recording(a, side, fam, corners):
        sides.append(side)
        return build(a, side, fam, corners)

    def every_class_minimal_on_the_right(masks):
        return np.ones(len(masks), dtype=bool) if sides[-1] == "right" else minimal(masks)

    monkeypatch.setattr(localization, "_side_report", recording)
    monkeypatch.setattr(localization, "_minimal_masks", every_class_minimal_on_the_right)
    path = tmp_path / "gf7sq.json"
    path.write_text('{"scalar": {"prime": 7}, "kind": "constructor", "name": "product", "factors": '
                    '[{"kind": "constructor", "name": "full_matrix", "n": 1}, '
                    '{"kind": "constructor", "name": "full_matrix", "n": 1}]}', encoding="utf-8")
    assert main(["report", "--input", str(path)]) == 0
    capsys.readouterr()
    assert main(["dual", "--input", str(path)]) == 3
    assert capsys.readouterr().err == \
        "internal invariant violation: more maximal classes than blocks\n"


class TestReportRadicalChecksFire:
    """The report builder reads both radicals off unions of classes; each
    of its checks on them fires on one corrupted reading, on a fresh
    algebra (reports are cached)."""

    def test_union_of_minima_must_be_a_class(self, monkeypatch):
        # GF(7)^2 without the class {1,2}: the minima {1} and {2} hold
        # together, but their union is no class
        closed = localization._closed_subsets
        monkeypatch.setattr(localization, "_closed_subsets", lambda corners: closed(corners)[:-1])
        with pytest.raises(InternalCheckError, match="union of minima does not qualify"):
            localization_report(direct_product([full_matrix(7, 1)] * 2)[0])

    def test_localization_radical_inside_the_nilpotent_radical(self):
        # L2 with a family whose radical is all of R: the localization
        # radical K_{1}, of dimension 2, lies inside it without vanishing
        a = lower_triangular(7, 2)
        left = localization_report(a)
        whole = Ideal._derived(a, Subspace.from_vectors(7, 3, np.eye(3, dtype=np.int64).tolist()), "twosided")
        fam = types.SimpleNamespace(s=left.family.s, idempotents=left.family.idempotents, rad=whole)
        with pytest.raises(InternalCheckError,
                           match="localization radical sits inside the nilpotent radical only when it vanishes"):
            localization._side_report(a, "left", fam, left.corners)

    def test_little_radical_inside_the_localization_radical(self, monkeypatch):
        # L2 with the full set {1,2} taken for the only minimum: the
        # localization radical is K_{1,2} = 0, the little radical K_{1}
        monkeypatch.setattr(localization, "_minimal_masks", lambda masks: masks == masks.max())
        with pytest.raises(InternalCheckError, match="little radical is not inside the localization radical"):
            localization_report(lower_triangular(7, 2))

    def test_right_radical_must_be_closed(self, monkeypatch):
        # L2's right side off the diagonal table of the column sums, as in
        # TestDuality, with {1} taken for the only minimum and the
        # two-sidedness test of the class ideals passed: the radical
        # R(1 - e_1) = R E22, the line through E22, is no two-sided ideal,
        # and the public constructor says so
        left = localization_report(lower_triangular(7, 2))
        blank = dataclasses.replace(left, corners=np.diag(left.corners.sum(axis=0)))
        monkeypatch.setattr(localization, "_minimal_masks", lambda masks: masks == masks.min())
        monkeypatch.setattr(localization, "_projectors",
                            lambda spaces: np.stack([np.eye(3, dtype=np.int64)] * len(spaces)))
        with pytest.raises(InputError, match="subspace is not closed under"):
            localization._right_report(blank)


def test_kernel_class_refuses_the_whole_algebra(L2_7):
    # every caller hands it (1 - e)R for a nonzero e, so the whole algebra is
    # a fault of the program, not of the input: InternalCheckError, exit 3
    whole = Subspace.from_vectors(7, 3, np.eye(3, dtype=np.int64).tolist())
    with pytest.raises(InternalCheckError, match=r"^\(1 - e\)R cannot be the whole algebra$"):
        localization._kernel_class(L2_7, whole)


def test_whole_kernel_ideal_exits_3(monkeypatch, tmp_path, capsys):
    path = tmp_path / "l2.json"
    path.write_text('{"scalar": {"prime": 7}, "kind": "constructor", "name": "lower_triangular", "n": 2}',
                    encoding="utf-8")
    monkeypatch.setattr(localization, "_right_ideal_of",
                        lambda a, x: Subspace.from_vectors(a.p, a.dim, np.eye(a.dim, dtype=np.int64).tolist()))
    assert main(["check-idempotent", "--input", str(path), "--element", "[[1,0],[0,0]]"]) == 3
    assert capsys.readouterr().err == "internal invariant violation: (1 - e)R cannot be the whole algebra\n"


class TestWarmReportReuse:
    # L3 on (E11, E21, E22, E31, E32, E33): the remark element, diag(1, 1, 0)
    # and a unit reach the classes {1}, {1,2} and {1,2,3}
    @pytest.mark.parametrize("coeffs, position", [
        ([2, 1, 0, 0, 0, 0], 0), ([1, 0, 1, 0, 0, 0], 1), ([2, 0, 3, 1, 0, 4], 2),
    ])
    def test_powers_take_the_report_ideal_and_quotient(self, coeffs, position):
        cold_a, warm_a = lower_triangular(7, 3), lower_triangular(7, 3)
        cold = powers_denominator_criterion(cold_a, cold_a.element(coeffs))
        report = localization_report(warm_a)
        ok, desc = powers_denominator_criterion(warm_a, warm_a.element(coeffs))
        assert ok and cold[0]
        assert summary(ok, desc) == summary(*cold)
        assert desc.quotient.algebra.table == cold[1].quotient.algebra.table
        entry = report.entries[position]
        assert desc.ass is entry.ass and desc.quotient is entry.quotient


# ---------------------------------------------------------------------------
# The corner and centrality tests against the basis loops
# ---------------------------------------------------------------------------

CORNER_ALGEBRAS = [lower_triangular(7, 2), lower_triangular(7, 3), upper_triangular(7, 2),
                   upper_triangular(7, 3), full_matrix(7, 2), truncated_poly(7, 2),
                   direct_product([full_matrix(7, 1)] * 2)[0],
                   direct_product([full_matrix(7, 2), full_matrix(7, 1)])[0],
                   direct_product([truncated_poly(7, 2), full_matrix(7, 1)])[0],
                   lower_triangular(5, 2), upper_triangular(5, 2), truncated_poly(5, 2),
                   direct_product([full_matrix(5, 1)] * 2)[0]]


@st.composite
def corner_operands(draw):
    """An algebra and two elements, each a block-sum idempotent e_I, its
    complement 1 - e_I, or a random element."""
    a = draw(st.sampled_from(CORNER_ALGEBRAS))
    fam = block_decomposition(a)

    def operand():
        kind = draw(st.sampled_from(["block sum", "complement", "random"]))
        if kind == "random":
            return a.element(draw(st.lists(st.integers(0, a.p - 1), min_size=a.dim, max_size=a.dim)))
        subset = draw(st.sets(st.integers(1, fam.s)))
        e = block_sum(fam, sorted(subset))
        return e if kind == "block sum" else a.one - e

    return a, operand(), operand()


@settings(max_examples=300, deadline=None)
@given(corner_operands())
def test_corner_and_centrality_match_the_basis_loops(drawn):
    a, e, f = drawn
    assert _corner_is_zero(a, e, f) == reference_corner_is_zero(a, e, f)
    assert _is_left_triangular(a, e) == reference_corner_is_zero(a, e, a.one - e)
    assert _is_central(a, e) == all(e * b == b * e for b in basis(a))


# ---------------------------------------------------------------------------
# The classes against the digraph of nonzero Peirce corners 1_i R 1_j
# ---------------------------------------------------------------------------

# the conftest fixtures and CORNER_ALGEBRAS are the same algebras
PEIRCE_ALGEBRAS = CORNER_ALGEBRAS + [gf7_cubed()]
PEIRCE_ALGEBRAS += [opposite_algebra(a) for a in PEIRCE_ALGEBRAS]


@pytest.mark.parametrize("a", PEIRCE_ALGEBRAS, ids=lambda a: a.label)
class TestPeirceDigraph:
    def test_left_classes_are_the_successor_closed_sets(self, a):
        assert [en.subset for en in localization_report(a).entries] == closed_sets(reference_edges(a))

    def test_right_classes_are_the_predecessor_closed_sets(self, a):
        edges = reference_edges(a)
        reversed_edges = [list(col) for col in zip(*edges)]
        right = duality_report(a).right
        assert [en.subset for en in right.entries] == closed_sets(reversed_edges)

    def test_right_report_is_the_left_report_of_the_opposite(self, a):
        # the right report is read off the left one; the opposite algebra
        # has the same lifted family and, label included, the same report
        opposite = localization_report(opposite_algebra(a))
        assert [e.coeffs for e in opposite.family.idempotents] == \
            [e.coeffs for e in block_decomposition(a).idempotents]
        assert duality_report(a).right.to_dict() == opposite.to_dict()

    def test_two_sided_factors_are_the_weak_components(self, a):
        assert two_sided_report(a).factors == weak_component_count(reference_edges(a))

    def test_kernel_sums_are_sums_of_block_rows(self, a):
        rep = localization_report(a)
        assert suite._closed_sum_dims(rep).tolist() == reference_sum_dims(a, [en.subset for en in rep.entries])
