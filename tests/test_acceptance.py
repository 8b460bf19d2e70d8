"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run as ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.  Criteria with stated budgets assert them.
"""

import random
import time

import pytest

from artinloc.algebra import (
    direct_product,
    full_matrix,
    ideal_combine,
    lower_triangular,
    regular_matrix,
    truncated_poly,
    upper_triangular,
)
from artinloc.linalg import DEFAULT_GUARD, Subspace
from artinloc.localization import (
    duality_report,
    idempotent_denominator_check,
    localization_report,
    monoid_denominator_decision,
    powers_denominator_criterion,
    two_sided_report,
)
from artinloc.oracle import (
    FiniteSetOfElements,
    brute_denominator_check,
    brute_idempotents,
    brute_radical,
    monoid_closure,
)
from artinloc.structure import block_decomposition, radical
from artinloc.suite import Oracle, bundle_conditions, powers_agreement
from conftest import ideal_generated


def _timed(num, desc, budget=None):
    class Ctx:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.perf_counter() - self.t0
            status = "PASS" if exc_type is None else "FAIL"
            print(f"[acceptance] criterion {num} ({desc}): {status} ({elapsed:.2f}s)")
            if exc_type is None and budget is not None:
                assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"
            return False
    return Ctx()


def fresh_fixtures():
    return {
        "L2_7": lower_triangular(7, 2),
        "L3_7": lower_triangular(7, 3),
        "U2_7": upper_triangular(7, 2),
        "U3_7": upper_triangular(7, 3),
        "M2_7": full_matrix(7, 2),
        "T7": truncated_poly(7, 2),
        "F7F7": direct_product([full_matrix(7, 1), full_matrix(7, 1)])[0],
        "P1": direct_product([full_matrix(7, 2), full_matrix(7, 1)])[0],
        "T7xF7": direct_product([truncated_poly(7, 2), full_matrix(7, 1)])[0],
        "L2_5": lower_triangular(5, 2),
        "U2_5": upper_triangular(5, 2),
        "T5": truncated_poly(5, 2),
        "F5F5": direct_product([full_matrix(5, 1), full_matrix(5, 1)])[0],
    }


ALL_FIXTURES = fresh_fixtures()


def test_criterion_1_triangular_rings():
    with _timed(1, "triangular matrix rings"):
        for n in (2, 3):
            for make, corner_pos in ((lower_triangular, 0), (upper_triangular, n - 1)):
                t0 = time.perf_counter()
                a = make(7, n)
                rep = localization_report(a)
                dr = duality_report(a)
                elapsed = time.perf_counter() - t0
                assert elapsed < 1.0, f"{a.label} took {elapsed:.2f}s"

                assert rep.loc_count == n
                if make is lower_triangular:
                    assert [e.subset for e in rep.entries] == \
                        [tuple(range(1, k + 1)) for k in range(1, n + 1)]
                    corner = [[0] * n for _ in range(n)]
                    corner[0][0] = 1
                else:
                    assert [e.subset for e in rep.entries] == \
                        [tuple(range(k, n + 1)) for k in range(n, 0, -1)]
                    corner = [[0] * n for _ in range(n)]
                    corner[n - 1][n - 1] = 1
                corner_e = a.from_matrix(corner)
                assert len(rep.minima) == 1
                assert rep.entry(rep.minima[0]).idempotent == corner_e
                assert len(rep.max_den) == 1
                assert rep.max_den[0].quotient.algebra.dim == 1
                expected_l = ideal_generated(a, [a.one - corner_e], "right")
                assert rep.l_rad.space == expected_l.space
                assert dr.l_neq_r


def test_criterion_2_counting():
    with _timed(2, "class counting"):
        t0 = time.perf_counter()
        p1 = direct_product([full_matrix(7, 2), full_matrix(7, 1)])[0]
        rep = localization_report(p1)
        assert len(rep.max_den) == 2 == rep.family.s
        assert rep.flags["semisimple"]
        ts = two_sided_report(p1)
        assert ts.loc_count == 2 ** 2 - 1 == 3
        m2 = full_matrix(7, 2)
        rep2 = localization_report(m2)
        assert [e.subset for e in rep2.entries] == [(1,)]
        assert rep2.flags["localization_maximal"]
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_powers_example():
    with _timed(3, "powers-of-an-element example"):
        t0 = time.perf_counter()
        a = lower_triangular(7, 2)
        s = a.from_matrix([[2, 0], [1, 0]])
        e11 = a.from_matrix([[1, 0], [0, 0]])

        ok, desc = powers_denominator_criterion(a, s)
        assert ok
        expected_ass = ideal_generated(a, [a.one - e11], "right")
        assert desc.ass.space == expected_ass.space

        for v in desc.ass.space.basis:
            assert (s * a.element(v)).is_zero()          # s annihilates the ideal
        assert any(not (a.element(v) * s).is_zero()       # but not from the right
                   for v in desc.ass.space.basis)

        # the core is every positive power
        assert desc.min_core_exponent == 1
        closure = monoid_closure(a, [s])
        one = (closure.rows == a.one_coeffs).all(axis=1)
        assert one.sum() == 1 and (desc.core_mask(closure.rows) == ~one).all()

        # quotient, idempotent localization and powers localization coincide
        chk = idempotent_denominator_check(a, e11)
        assert chk.left
        assert chk.descriptor.ass.space == desc.ass.space
        assert chk.descriptor.quotient.algebra.dim == 1 == desc.quotient.algebra.dim
        oracle = brute_denominator_check(a, closure)
        assert oracle.is_den and oracle.ass.space == desc.ass.space
        assert time.perf_counter() - t0 < 1.0


def test_criterion_4_oracle_equivalence_sweep():
    with _timed(4, "exhaustive powers and idempotent oracle sweep", budget=60.0):
        for name in ("L2_5", "U2_5", "T5", "F5F5"):
            a = ALL_FIXTURES[name]
            oracle = Oracle(a, DEFAULT_GUARD)
            for s in map(a.element, a.enumerate_coeffs()):
                ok, detail, _ = powers_agreement(oracle, s, *powers_denominator_criterion(a, s))
                assert ok, f"{name}: {detail}"
            for e in map(a.element, brute_idempotents(a).rows[1:]):
                chk = idempotent_denominator_check(a, e)
                sset = FiniteSetOfElements.from_elements(a, [a.one, e])
                res = brute_denominator_check(a, sset, "left")
                assert chk.left == res.is_den, f"{name}: disagreement at {e!r}"
                if chk.left:
                    assert res.ass.space == chk.descriptor.ass.space


def test_criterion_5_radical_crosscheck():
    with _timed(5, "radical cross-check"):
        for name, a in ALL_FIXTURES.items():
            assert radical(a).space == brute_radical(a).space, name
            fam = block_decomposition(a)
            assert radical(fam.quotient.algebra).dim == 0, name


def test_criterion_6_ideal_identities():
    with _timed(6, "kernel ideal identities"):
        for name, a in ALL_FIXTURES.items():
            rep = localization_report(a)
            fam = rep.family
            for en in rep.entries:
                sq = ideal_combine(en.ass, en.ass, "product")
                assert sq.space == en.ass.space, name
                er = Subspace.from_vectors(a.p, a.dim, regular_matrix(a, en.idempotent, "left").tolist())
                assert en.ass.space.sum(er).dim == a.dim, name
                assert en.ass.space.intersect(er).dim == 0, name
            for e1 in rep.entries:
                for e2 in rep.entries:
                    prod = ideal_combine(e1.ass, e2.ass, "product")
                    prod_rev = ideal_combine(e2.ass, e1.ass, "product")
                    inter = e1.ass.space.intersect(e2.ass.space)
                    assert prod.space == inter == prod_rev.space, name

            # the radical three ways
            minima_ass = [rep.entry(sub).ass for sub in rep.minima]
            inter_all = minima_ass[0]
            prod_all = minima_ass[0]
            for nxt in minima_ass[1:]:
                inter_all = ideal_combine(inter_all, nxt, "intersection")
                prod_all = ideal_combine(prod_all, nxt, "product")
            e_sum = a.zero
            for sub in rep.minima:
                e_sum = e_sum + rep.entry(sub).idempotent
            closed = ideal_generated(a, [a.one - e_sum], "right")
            assert rep.l_rad.space == inter_all.space == prod_all.space == closed.space, name

            assert fam.rad.space.contains(rep.l_rad.space) == (rep.l_rad.dim == 0), name
            assert rep.l_rad.space.contains(rep.little_rad.space), name

        l3 = ALL_FIXTURES["L3_7"]
        rep3 = localization_report(l3)
        assert rep3.little_rad.dim == 3 < 5 == rep3.l_rad.dim


def test_criterion_7_duality():
    with _timed(7, "left-right duality"):
        for name, a in ALL_FIXTURES.items():
            dr = duality_report(a)
            assert dr.counts_equal, name
            assert dr.l_zero_iff_r_zero, name
            full = tuple(range(1, dr.left.family.s + 1))
            left_proper = {en.subset for en in dr.left.entries if en.subset != full}
            right_proper = {en.subset for en in dr.right.entries if en.subset != full}
            mapped = {tuple(sorted(set(full) - set(sub))) for sub in left_proper}
            assert mapped == right_proper, name
            for i1, c1 in dr.pairing:
                for i2, c2 in dr.pairing:
                    assert (set(i1) <= set(i2)) == (set(c1) >= set(c2)), name


def test_criterion_8_equivalence_bundles():
    with _timed(8, "equivalence bundles", budget=120.0):
        rng = random.Random(2024)
        for name, a in ALL_FIXTURES.items():
            conds = bundle_conditions(a, samples=32, rng=rng)
            assert len(set(conds)) == 1, f"{name}: bundle split {conds}"

        # monoid criterion against the oracle on random 1-2 generator monoids
        for name in ("L2_5", "U2_5", "T5", "F5F5"):
            a = ALL_FIXTURES[name]
            for _ in range(200):
                gens = [a.element([rng.randrange(a.p) for _ in range(a.dim)])
                        for _ in range(rng.choice([1, 2]))]
                verdict, desc = monoid_denominator_decision(a, gens)
                closure = monoid_closure(a, gens)
                if closure.contains_zero:
                    oracle_verdict = False
                else:
                    res = brute_denominator_check(a, closure)
                    oracle_verdict = res.is_den
                    if verdict:
                        assert res.ass.space == desc.ass.space, name
                assert verdict == oracle_verdict, f"{name}: monoid disagreement"

        # two-sided powers criterion against the two-sided oracle
        for name in ("P1", "T7xF7"):
            a = ALL_FIXTURES[name]
            ts = two_sided_report(a)
            for _ in range(100):
                r = a.element([rng.randrange(a.p) for _ in range(a.dim)])
                verdict = ts.powers_criterion(r)
                closure = monoid_closure(a, [r])
                if closure.contains_zero:
                    oracle_verdict = False
                else:
                    oracle_verdict = brute_denominator_check(a, closure, "twosided").is_den
                assert verdict == oracle_verdict, f"{name}: two-sided disagreement at {r!r}"
