import dataclasses
import itertools
import random

import numpy as np
import pytest

import artinloc.localization as localization
import artinloc.structure as structure
from artinloc.algebra import (
    Algebra,
    direct_product,
    full_matrix,
    ideal_combine,
    lower_triangular,
    matrix_subalgebra,
    truncated_poly,
)
from artinloc.cli import main
from artinloc.linalg import InternalCheckError, Subspace, kernel
from artinloc.oracle import brute_radical
from artinloc.structure import (
    _radical_quotient,
    block_decomposition,
    ideal_block_support,
    primitive_idempotents,
    radical,
)
from artinloc.suite import run_invariants
from conftest import gf49_times_dual_numbers, ideal_generated, project, section, solve_in_rows
from test_metamorphic import FIXTURES
from test_random_algebras import SEEDS, random_algebra


class TestRadical:
    def test_simple_algebra_semisimple(self, M2_7):
        assert radical(M2_7).dim == 0

    def test_lower_triangular_strictly_lower(self, L2_7):
        rad = radical(L2_7)
        assert rad.dim == 1
        assert rad.space.basis == ((0, 1, 0),)  # span{E_21}
        assert rad.space == brute_radical(L2_7).space

    def test_truncated_poly_nilpotent_part(self, T7):
        rad = radical(T7)
        assert rad.space.basis == ((0, 1),)

    def test_crosscheck_against_quasi_regularity(self, L2_5, U2_5, T5, F5F5, F7F7, P1):
        for a in (L2_5, U2_5, T5, F5F5, F7F7, P1):
            assert radical(a).space == brute_radical(a).space

    def test_semisimple_quotient_has_zero_radical(self, L2_7, L3_7, T7, T7xF7, P1):
        for a in (L2_7, L3_7, T7, T7xF7, P1):
            fam = block_decomposition(a)
            assert radical(fam.quotient.algebra).dim == 0


class TestBlockDecomposition:
    def test_full_matrix_single_block(self, M2_7):
        fam = block_decomposition(M2_7)
        assert fam.s == 1
        assert fam.block_dims == (4,)
        assert fam.block_commutative == (False,)

    def test_lower_triangular_corner_idempotents(self, L2_7):
        fam = block_decomposition(L2_7)
        assert fam.s == 2
        assert [e.coeffs for e in fam.idempotents] == [(1, 0, 0), (0, 0, 1)]
        assert fam.block_dims == (1, 1)

    def test_two_field_product_central_idempotents(self, F7F7):
        fam = block_decomposition(F7F7)
        assert [e.coeffs for e in fam.idempotents] == [(1, 0), (0, 1)]

    def test_product_concatenates_factor_blocks(self, P1):
        fam = block_decomposition(P1)
        assert fam.s == 2
        assert fam.block_dims == (4, 1)
        assert fam.block_commutative == (False, True)
        # the lifted idempotents are the factor identities, block by block
        assert [e.coeffs for e in fam.idempotents] == [(1, 0, 0, 1, 0), (0, 0, 0, 0, 1)]

    def test_deterministic_rebuild(self):
        a1 = lower_triangular(7, 3)
        a2 = lower_triangular(7, 3)
        f1 = block_decomposition(a1)
        f2 = block_decomposition(a2)
        assert [e.coeffs for e in f1.idempotents] == [e.coeffs for e in f2.idempotents]
        assert f1.block_dims == f2.block_dims

    def test_family_laws_across_corpus(self, L3_7, U3_7, T7xF7, M2_7, T5):
        for a in (L3_7, U3_7, T7xF7, M2_7, T5):
            fam = block_decomposition(a)
            total = a.zero
            for i, e in enumerate(fam.idempotents):
                assert (e * e) == e
                total = total + e
                for j, f in enumerate(fam.idempotents):
                    if i != j:
                        assert (e * f).is_zero()
            assert total == a.one
            assert sum(fam.block_dims) == fam.quotient.algebra.dim

    def test_nilpotency_of_radical_powers(self, L3_7):
        fam = block_decomposition(L3_7)
        from artinloc.algebra import ideal_combine
        power = fam.rad
        for _ in range(L3_7.dim):
            if power.dim == 0:
                break
            power = ideal_combine(power, fam.rad, "product")
        assert power.dim == 0


class TestRadicalQuotientShared:
    def count_quotients(self, monkeypatch):
        calls = []
        real = structure.quotient_algebra

        def counting(a, ideal):
            calls.append(a)
            return real(a, ideal)
        monkeypatch.setattr(structure, "quotient_algebra", counting)
        return calls

    def test_block_decomposition_reuses_the_radical_quotient(self, monkeypatch):
        a = lower_triangular(7, 3)
        rad, quo = _radical_quotient(a)
        calls = self.count_quotients(monkeypatch)
        fam = block_decomposition(a)
        assert calls == []
        assert fam.rad is rad is radical(a)
        assert fam.quotient is quo

    def test_one_quotient_per_algebra(self, monkeypatch):
        calls = self.count_quotients(monkeypatch)
        a = truncated_poly(7, 3)
        block_decomposition(a)
        radical(a)
        assert calls == [a]

    @pytest.mark.parametrize("build", [lambda: full_matrix(7, 2),
                                       lambda: direct_product([full_matrix(7, 1), full_matrix(7, 2)])[0]],
                             ids=["M2", "F x M2"])
    def test_semisimple_algebra_is_its_own_quotient(self, build, monkeypatch):
        calls = self.count_quotients(monkeypatch)
        a = build()
        fam = block_decomposition(a)
        assert calls == [a]
        assert fam.quotient.algebra is a and fam.quotient.parent is a
        assert fam.rad.dim == 0 and fam.quotient.keep.tolist() == list(range(a.dim))
        for e, ebar in zip(fam.idempotents, fam.central_images):
            assert project(fam.quotient, e) == ebar == e


class TestFamilyChecksFire:
    """Each condition of the lifted family, broken in a copy of a real family."""

    @pytest.fixture
    def fam(self):
        return block_decomposition(lower_triangular(7, 2))  # lifts E11, E22

    def test_real_family_passes(self, fam):
        assert dataclasses.replace(fam) == fam

    def test_non_idempotent_lift(self, fam):
        e11, e22 = fam.idempotents
        with pytest.raises(InternalCheckError, match="lifted idempotent 1 is not idempotent"):
            dataclasses.replace(fam, idempotents=(e11, e22 * 2))

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_non_orthogonal_pair(self, fam, order):
        a = fam.algebra
        e11, e22 = fam.idempotents
        # E22 + E21 is idempotent, and (E22 + E21) E11 = E21 while E11 (E22 + E21) = 0
        skew = e22 + a.element((0, 1, 0))
        assert skew * skew == skew
        lifts = (skew, e11) if order == (0, 1) else (e11, skew)
        with pytest.raises(InternalCheckError, match=f"lifted idempotents {order[0]},{order[1]} "
                                                     "are not orthogonal"):
            dataclasses.replace(fam, idempotents=lifts)

    def test_not_summing_to_one(self, fam):
        with pytest.raises(InternalCheckError, match="lifted idempotents do not sum to 1"):
            dataclasses.replace(fam, idempotents=fam.idempotents[:1])

    def test_wrong_projection(self, fam):
        with pytest.raises(InternalCheckError, match="lift does not reduce to its central idempotent"):
            dataclasses.replace(fam, central_images=fam.central_images[::-1])

    def test_split_that_stalls(self, monkeypatch):
        # every draw has the one eigenspace of a scalar, so the refinement
        # never leaves 1 and the rounds run out
        monkeypatch.setattr(structure, "_split_step", lambda a, f: np.array([a.one_coeffs]))
        with pytest.raises(InternalCheckError, match="did not reach primitive idempotents"):
            block_decomposition(lower_triangular(7, 2))

    @pytest.mark.parametrize("fault, message", [
        # the first eigenspace projection absorbs the second: both stay idempotent
        (lambda rows, p: (rows[0] + rows[1]) % p, "primitive idempotents 0,1 are not orthogonal"),
        (lambda rows, p: 2 * rows[0] % p, "primitive idempotent 0 is not idempotent"),
    ], ids=["merged", "doubled"])
    def test_faulty_spectral_step(self, fault, message, monkeypatch):
        # R/J of L2 is GF(7)^2: the first draw that splits it gives the
        # projections E11 and E22 as the step's two nonzero rows
        real = structure._split_step

        def faulty(a, f):
            rows = real(a, f)
            rows = rows[rows.any(axis=1)]
            if len(rows) > 1:
                rows[0] = fault(rows, a.p)
            return rows
        monkeypatch.setattr(structure, "_split_step", faulty)
        with pytest.raises(InternalCheckError, match=message):
            block_decomposition(lower_triangular(7, 2))


def radical_check(a, guard=1 << 20):
    check = next(r for r in run_invariants(a, guard=guard, samples=4) if r.name == "radical_crosscheck")
    return check.ok, check.detail


def whole_algebra_as_radical(monkeypatch):
    # the whole of L2 as the trace-form kernel: a two-sided ideal holding 1,
    # which the radical takes by theorem
    monkeypatch.setattr(structure, "_trace_form_kernel", lambda a: Subspace.full(a.p, a.dim))
    a = lower_triangular(7, 2)
    assert radical(a).dim == a.dim
    return a


class TestNilpotencyChecksFire:
    def test_radical_candidate(self, monkeypatch):
        # verify's cross-check finds it not nilpotent before the oracle runs
        assert radical_check(whole_algebra_as_radical(monkeypatch)) == (
            False, "InternalCheckError: radical candidate is not nilpotent")

    def test_radical_candidate_above_the_guard(self, monkeypatch):
        # 7^3 elements exceed the guard of 64, so brute_radical is skipped
        # and the nilpotency chain alone finds the fault
        assert radical_check(whole_algebra_as_radical(monkeypatch), guard=64) == (
            False, "InternalCheckError: radical candidate is not nilpotent")

    def test_whole_radical_exits_3(self, monkeypatch, tmp_path, capsys):
        # the report needs R/J, which the whole algebra as J cannot give: a
        # fault of the program, so exit 3, not an input error
        whole_algebra_as_radical(monkeypatch)
        path = tmp_path / "l2.json"
        path.write_text('{"scalar": {"prime": 7}, "kind": "constructor", "name": "lower_triangular", "n": 2}',
                        encoding="utf-8")
        assert main(["report", "--input", str(path)]) == 3
        assert capsys.readouterr().err == "internal invariant violation: the radical cannot be the whole algebra\n"

    def test_quasi_regular_ideal(self, monkeypatch):
        # with every element counted a unit, every element is quasi-regular
        # and the survivors span the whole algebra
        a = truncated_poly(5, 2)
        monkeypatch.setattr(a, "batch_unit_mask", lambda xs: np.ones(len(xs), dtype=bool))
        with pytest.raises(InternalCheckError, match="quasi-regular ideal is not nilpotent"):
            brute_radical(a)


class TestRadicalChecksFire:
    """The radical is built by theorem; verify's ``radical_crosscheck``
    rebuilds it through the public constructor and checks that R/J has a
    zero radical, above the guard too."""

    def test_radical_must_be_closed(self, monkeypatch):
        # the line through E22 as the trace-form kernel of L2: E22 E21 = E21
        # leaves it
        line = Subspace.from_vectors(7, 3, [[0, 0, 1]])
        monkeypatch.setattr(structure, "_trace_form_kernel", lambda a: line)
        assert radical_check(lower_triangular(7, 2), guard=64) == (
            False, "InternalCheckError: radical: subspace is not closed under right multiplication")

    def test_quotient_must_be_semisimple(self, monkeypatch):
        # J^2 of L3 as its trace-form kernel: a nilpotent two-sided ideal, but
        # J/J^2 is a nonzero radical of R/J^2
        a = lower_triangular(7, 3)
        rad = radical(lower_triangular(7, 3))
        square = ideal_combine(rad, rad, "product").space
        real = structure._trace_form_kernel
        monkeypatch.setattr(structure, "_trace_form_kernel", lambda b: square if b is a else real(b))
        assert radical_check(a, guard=64) == (False, "semisimple quotient has a nonzero radical")


def two_sided_check(a):
    check = next(r for r in run_invariants(a, samples=4) if r.name == "two_sided_report")
    return check.ok, check.detail


class TestTwoSidedChecksFire:
    """The two-sided report holds the split idempotents as central by
    construction; verify's ``two_sided_report`` check proves them central,
    orthogonal and summing to 1."""

    def test_non_central_candidate(self, monkeypatch):
        # the "center" is the whole of L2, whose block idempotents E11 and E22
        # are not central
        monkeypatch.setattr(structure, "_center_subspace", lambda a: Subspace.full(a.p, a.dim))
        a = lower_triangular(7, 2)
        assert localization.two_sided_report(a).factors == 2
        assert two_sided_check(a) == (False, "InternalCheckError: central idempotent 0 is not central")

    def test_non_orthogonal_pair(self, monkeypatch):
        # (1, 0) and (1, 1) are central idempotents of GF(7)^2 with product (1, 0)
        monkeypatch.setattr(localization, "primitive_idempotents",
                            lambda a: np.array([[1, 0], [1, 1]]))
        a = direct_product([full_matrix(7, 1), full_matrix(7, 1)])[0]
        assert localization.two_sided_report(a).factors == 2
        assert two_sided_check(a) == (False, "InternalCheckError: central idempotents 0,1 are not orthogonal")

    def test_coarse_split_passes_the_hot_path_and_fails_verify(self, monkeypatch):
        # 1 alone is a central family of GF(7)^2 that passes every hot-path
        # check, but its two blocks are not linked by a Peirce corner
        monkeypatch.setattr(localization, "primitive_idempotents", lambda a: np.array([a.one_coeffs]))
        a = direct_product([full_matrix(7, 1), full_matrix(7, 1)])[0]
        assert localization.two_sided_report(a).factors == 1
        checks = {c.name: c for c in run_invariants(a)}
        assert checks["two_sided_report"].detail == \
            "InternalCheckError: central idempotents are not the block sums over the linked blocks"


def test_center_that_is_neither_split_nor_semisimple():
    # GF(49) x GF(7)[x]/(x^2) is its own center: the Frobenius-fixed space
    # is spanned by the two factor identities
    a = gf49_times_dual_numbers()
    ts = localization.two_sided_report(a)
    assert ts.factors == 2
    assert [e.coeffs for e in ts.central_idempotents] == [(1, 0, 0, 0), (0, 0, 1, 0)]
    assert all(c.ok for c in run_invariants(a))


def skewed_lower_triangular_7():
    """Lower triangular 3x3 over GF(7) on the basis
    (E11 + E32, E21, E22, E31, E32, E33).

    In these coordinates the canonical complement of the radical contains
    E11 + E32, which is not idempotent, so lifting the first block identity
    has to do real work instead of accepting the section.
    """
    from artinloc.algebra import Algebra
    units = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]
    def unit_vec(i, j):
        return tuple(1 if (r, c) == (i, j) else 0 for (r, c) in units)
    def mat_mul(u, v):
        out = [0] * 6
        for k1, (a1, b1) in enumerate(units):
            for k2, (a2, b2) in enumerate(units):
                if u[k1] and v[k2] and b1 == a2:
                    out[units.index((a1, b2))] = (out[units.index((a1, b2))]
                                                  + u[k1] * v[k2]) % 7
        return tuple(out)
    basis = [tuple((x + y) % 7 for x, y in zip(unit_vec(1, 1), unit_vec(3, 2))),
             unit_vec(2, 1), unit_vec(2, 2), unit_vec(3, 1), unit_vec(3, 2), unit_vec(3, 3)]
    table = []
    for u in basis:
        row = []
        for v in basis:
            coords = solve_in_rows(basis, mat_mul(u, v), 7)
            assert coords is not None
            row.append(list(coords))
        table.append(row)
    identity = tuple((a + b + c) % 7 for a, b, c in
                     zip(unit_vec(1, 1), unit_vec(2, 2), unit_vec(3, 3)))
    one = solve_in_rows(basis, identity, 7)
    return Algebra(7, table, one, "skewed L3(GF(7))")


def newton_lift(fam):
    """Reference: the lifts by Newton's iteration x -> 3x^2 - 2x^3 in the
    corner of 1 - (sum of the previous lifts), one Element product at a time."""
    a, quo = fam.algebra, fam.quotient
    lifted, fsum = [], a.zero
    for ebar in fam.central_images:
        corner = a.one - fsum
        y = corner * section(quo, ebar) * corner
        for _ in range(max(1, (a.dim - 1).bit_length() + 1)):
            y2 = y * y
            y = y2 * 3 - y2 * y * 2
        lifted.append(y)
        fsum = fsum + y
    return [e.coeffs for e in lifted]


class TestLiftMatchesNewton:
    """The p-th power of c x c is the idempotent Newton's iteration converges to."""

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixture(self, name, request):
        fam = block_decomposition(request.getfixturevalue(name))
        assert [e.coeffs for e in fam.idempotents] == newton_lift(fam)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_draw(self, seed):
        fam = block_decomposition(random_algebra(seed))
        assert [e.coeffs for e in fam.idempotents] == newton_lift(fam)

    def test_skewed_basis(self):
        fam = block_decomposition(skewed_lower_triangular_7())
        assert [e.coeffs for e in fam.idempotents] == newton_lift(fam)


def spectral_reference(a):
    """Reference: the all-alpha spectral splitter, in F's own coordinates.

    F, the Frobenius-fixed space of the center, is an algebra on the
    entries at the pivots of its RREF basis, split from 1 by the nonzero
    rows of 1 - (f - alpha)^(p-1) over every alpha in GF(p), for each basis
    element f of F in turn; the pieces are mapped back to ``a`` and ordered
    by pivot."""
    p, space = a.p, structure._center_subspace(a)
    coords = kernel((a.batch_pow(space.array, p) - space.array) % p, p)
    fixed = Subspace.from_vectors(p, a.dim, (coords.array @ space.array % p).tolist())
    pivots = list(fixed.pivots)
    fa = Algebra._derived(p, a.pair_products(fixed.array, fixed.array)[..., pivots],
                          np.array(a.one_coeffs)[pivots], "F")
    one = np.array(fa.one_coeffs, dtype=np.int64)
    idems = one[None, :]
    for f in np.eye(fixed.dim, dtype=np.int64):
        spectral = (one - fa.batch_pow((f - np.arange(p)[:, None] * one) % p, p - 1)) % p
        pieces = fa.pair_products(idems, spectral[spectral.any(axis=1)]).reshape(-1, fixed.dim)
        idems = pieces[pieces.any(axis=1)]
    blocks = map(tuple, (idems @ fixed.array % p).tolist())
    return sorted(blocks, key=lambda v: (np.flatnonzero(v)[0], v))


def coeffs(rows):
    return list(map(tuple, rows.tolist()))


def mixed_13():
    """GF(169) x GF(13)[x]/(x^3) x M2(GF(13)), GF(169) as the matrices
    a + bX with X^2 = 2: its center is neither split nor semisimple."""
    return direct_product([matrix_subalgebra(13, 2, [[[0, 2], [1, 0]]]), truncated_poly(13, 3),
                           full_matrix(13, 2)])[0]


class TestSplitMatchesSpectralReference:
    """The equal-degree split gives the idempotents of the deleted spectral
    sweep, on R/J (the blocks) and on R (the two-sided factors)."""

    @staticmethod
    def assert_both_sides(a):
        for b in (a, block_decomposition(a).quotient.algebra):
            assert coeffs(primitive_idempotents(b)) == spectral_reference(b)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixture(self, name, request):
        self.assert_both_sides(request.getfixturevalue(name))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_draw(self, seed):
        self.assert_both_sides(random_algebra(seed))

    @pytest.mark.parametrize("build", [gf49_times_dual_numbers, mixed_13], ids=["GF(49) x T2", "mixed_13"])
    def test_edge_case(self, build):
        self.assert_both_sides(build())

    @pytest.mark.parametrize("build", [lambda: direct_product([full_matrix(11, 1)] * 5)[0], mixed_13],
                             ids=["GF(11)^5", "mixed_13"])
    @pytest.mark.parametrize("seed", [1, 2, 12345])
    def test_other_seed_same_idempotents(self, build, seed, monkeypatch):
        a = build()
        expected = coeffs(primitive_idempotents(a))
        draws = []

        def reseeded(_):
            draws.append(seed)
            return random.Random(seed)
        monkeypatch.setattr(structure, "Random", reseeded)
        assert coeffs(primitive_idempotents(a)) == expected
        assert draws == [seed]


class TestSplitAtEdgePrimes:
    def test_gf2_runs_no_round(self, monkeypatch):
        # dim < p = 2 leaves k = 1: 1 is primitive, and (p-1)/2 = 0 never runs
        def no_round(a, f):
            raise AssertionError("a round ran at p = 2")
        monkeypatch.setattr(structure, "_split_step", no_round)
        a = full_matrix(2, 1)
        assert coeffs(primitive_idempotents(a)) == [(1,)]
        fam = block_decomposition(a)
        assert coeffs(fam.rows) == [(1,)] and fam.block_dims == (1,)
        assert localization.two_sided_report(a).factors == 1

    def test_gf3_squared(self):
        # (p-1)/2 = 1: g is f itself
        a = direct_product([full_matrix(3, 1)] * 2)[0]
        assert coeffs(primitive_idempotents(a)) == [(1, 0), (0, 1)]
        assert coeffs(block_decomposition(a).rows) == [(1, 0), (0, 1)]

    def test_large_p_rows_through_batch_mul(self, monkeypatch):
        # the split costs about 2 log2 p one-row products per round, not p
        a = direct_product([full_matrix(65521, 1)] * 8)[0]
        rows = []
        real = Algebra.batch_mul

        def counting(self, xs, ys):
            rows.append(len(xs))
            return real(self, xs, ys)
        monkeypatch.setattr(Algebra, "batch_mul", counting)
        assert coeffs(primitive_idempotents(a)) == [tuple(r) for r in np.eye(8, dtype=int).tolist()]
        assert 0 < sum(rows) < 2000


class TestSkewedBasisLifting:
    def test_section_is_not_idempotent_but_lift_is(self):
        a = skewed_lower_triangular_7()
        fam = block_decomposition(a)
        assert fam.s == 3
        quo = fam.quotient
        # the raw section of the first block identity fails to be idempotent
        raw = section(quo, fam.central_images[0])
        assert (raw * raw) != raw
        # the lifted family is nevertheless orthogonal and sums to 1
        total = a.zero
        for e in fam.idempotents:
            assert (e * e) == e
            total = total + e
        assert total == a.one

    def test_localization_report_matches_the_straight_basis(self, L3_7):
        from artinloc.localization import localization_report
        a = skewed_lower_triangular_7()
        rep = localization_report(a)
        straight = localization_report(L3_7)
        assert [e.subset for e in rep.entries] == [e.subset for e in straight.entries]
        assert rep.l_rad.dim == straight.l_rad.dim == 5
        assert rep.little_rad.dim == straight.little_rad.dim == 3


class TestBlockSupport:
    def test_whole_algebra_meets_everything(self, L2_7):
        fam = block_decomposition(L2_7)
        whole = ideal_generated(L2_7, [L2_7.one], "twosided")
        support, in_rad = ideal_block_support(fam, whole)
        assert support == frozenset({1, 2}) and not in_rad

    def test_corner_complement_meets_second_block(self, L2_7):
        fam = block_decomposition(L2_7)
        e11 = L2_7.from_matrix([[1, 0], [0, 0]])
        ideal = ideal_generated(L2_7, [L2_7.one - e11], "twosided")
        support, in_rad = ideal_block_support(fam, ideal)
        assert support == frozenset({2}) and not in_rad

    def test_radical_is_flagged(self, L2_7):
        fam = block_decomposition(L2_7)
        support, in_rad = ideal_block_support(fam, fam.rad)
        assert support == frozenset() and in_rad

    def test_matches_the_definition(self, L3_7, U3_7, P1, T7xF7, M2_7):
        for a in (L3_7, U3_7, P1, T7xF7, M2_7):
            fam = block_decomposition(a)
            quo = fam.quotient
            for pattern in itertools.product((0, 1), repeat=a.dim):
                x = a.element(pattern)
                ideal = ideal_generated(a, [x], "twosided")
                images = [project(quo, a.element(v)) for v in ideal.space.basis]
                support = {i for i, ebar in enumerate(fam.central_images, start=1)
                           if any(not (ebar * img).is_zero() for img in images)}
                in_rad = all(img.is_zero() for img in images)
                assert ideal_block_support(fam, ideal) == (frozenset(support), in_rad)
