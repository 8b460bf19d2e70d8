import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from artinloc import algebra, linalg, localization, suite
from artinloc.algebra import (
    Algebra,
    Ideal,
    build_algebra,
    direct_product,
    full_matrix,
    ideal_combine,
    ideal_generated,
    lower_triangular,
    matrix_subalgebra,
    opposite_algebra,
    quotient_algebra,
    regular_matrix,
    truncated_poly,
    upper_triangular,
)
from artinloc.linalg import InputError, InternalCheckError, Subspace, express_in_rows, kernel, rank
from artinloc.localization import two_sided_report
from artinloc.oracle import brute_idempotents
from artinloc.structure import _center_subspace, _pivot, _radical_quotient, block_decomposition, radical
from conftest import block_sum, gf49_times_dual_numbers, mul_by_definition, pow_by_definition
from test_random_algebras import SEEDS, random_algebra


def closure_oracle(a, gens, side):
    """Oracle for generated ideals: saturate the element set by brute products."""
    vecs = {g.coeffs for g in gens}
    while True:
        new = set(vecs)
        for v in list(vecs):
            for i in range(a.dim):
                b = tuple(1 if j == i else 0 for j in range(a.dim))
                if side in ("left", "twosided"):
                    new.add(mul_by_definition(a, b, v))
                if side in ("right", "twosided"):
                    new.add(mul_by_definition(a, v, b))
        if new == vecs:
            return Subspace.from_vectors(a.p, a.dim, list(vecs))
        vecs = new


class TestConstructors:
    def test_lower_triangular_basis_order(self, L2_7):
        assert L2_7.dim == 3
        # basis (E_11, E_21, E_22): E_21 * E_11 = 0? no: E_21.E_11 has b=1=c, gives E_21
        e11, e21, e22 = (L2_7.element(row) for row in np.eye(3, dtype=np.int64).tolist())
        assert (e21 * e11) == e21
        assert (e11 * e21).is_zero()
        assert (e21 * e22).is_zero()
        assert (e22 * e21) == e21

    def test_product_of_matrix_and_poly(self):
        prod, emb = direct_product([full_matrix(7, 2), truncated_poly(7, 2)])
        assert prod.dim == 6
        assert emb == [(0, 4), (4, 6)]
        assert prod.one_coeffs == (1, 0, 0, 1, 1, 0)

    def test_matrix_subalgebra_closure_dim(self):
        a = matrix_subalgebra(7, 2, [[[2, 0], [1, 0]]])
        # closure oracle: span{I, s} is already multiplicatively closed
        s = a.from_matrix([[2, 0], [1, 0]])
        assert a.dim == 2
        assert (s * s) == s * 2

    def test_nonassociative_table_rejected(self):
        # b_1 acts like a "left projector" only: associativity fails
        table = [[[1, 0], [0, 1]], [[1, 0], [1, 0]]]
        with pytest.raises(InputError):
            Algebra(5, table, [1, 0])

    @pytest.mark.parametrize("block", [1, algebra.ASSOC_BLOCK])
    def test_associativity_failure_names_its_first_index(self, block, monkeypatch):
        # basis 1, u, v, w with v*v = w and w*v = w, every other product of
        # u, v, w zero: the unit laws hold and every triple starting with 1
        # or u associates, while (v v) v = w differs from v (v v) = 0
        table = [[[int(k == j) for k in range(4)] for j in range(4)]]
        table += [[[int(k == i) if j == 0 else 0 for k in range(4)] for j in range(4)]
                  for i in range(1, 4)]
        table[2][2] = [0, 0, 0, 1]
        table[3][2] = [0, 0, 0, 1]
        monkeypatch.setattr(algebra, "ASSOC_BLOCK", block)
        with pytest.raises(InputError, match="associativity fails on basis triples with first index 2$"):
            Algebra(5, table, [1, 0, 0, 0])

    def test_missing_identity_rejected(self):
        table = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
        with pytest.raises(InputError):
            Algebra(5, table, [1, 0])

    def test_small_prime_rejected(self):
        with pytest.raises(InputError):
            lower_triangular(3, 2)  # p = 3 <= dim = 3

    def test_nonprime_rejected(self):
        with pytest.raises(InputError):
            truncated_poly(6, 2)

    def test_build_algebra_dispatch(self):
        a = build_algebra({"scalar": {"prime": 7}, "kind": "constructor",
                           "name": "lower_triangular", "n": 2})
        assert a.dim == 3 and a.p == 7
        t = build_algebra({"scalar": {"prime": 7}, "kind": "structure_constants",
                           "dim": 2, "one": [1, 0],
                           "mul_table": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]})
        assert t.dim == 2
        x = t.element([0, 1])
        assert (x * x).is_zero()

    def test_build_algebra_bad_prime(self):
        with pytest.raises(InputError):
            build_algebra({"scalar": {"prime": 4}, "kind": "constructor",
                           "name": "full_matrix", "n": 1})


class TestRegularMatrices:
    def test_identity_maps_to_identity(self, L2_7):
        m = regular_matrix(L2_7, L2_7.one, "left")
        assert m.tolist() == np.eye(3, dtype=np.int64).tolist()

    def test_left_multiplication_by_e21(self, L2_7):
        x = L2_7.from_matrix([[0, 0], [1, 0]])
        m = regular_matrix(L2_7, x, "left")
        # sends E_11 to E_21, kills E_21 and E_22
        assert m.tolist() == [[0, 1, 0], [0, 0, 0], [0, 0, 0]]

    def test_defining_property_random_pairs(self, L2_7):
        rng = random.Random(1)
        for _ in range(100):
            x = L2_7.element([rng.randrange(7) for _ in range(3)])
            y = L2_7.element([rng.randrange(7) for _ in range(3)])
            row = np.array(y.coeffs)
            assert tuple((row @ regular_matrix(L2_7, x, "left") % 7).tolist()) == (x * y).coeffs
            assert tuple((row @ regular_matrix(L2_7, x, "right") % 7).tolist()) == (y * x).coeffs

    def test_composition_order(self, M2_7):
        rng = random.Random(2)
        for _ in range(20):
            x = M2_7.element([rng.randrange(7) for _ in range(4)])
            y = M2_7.element([rng.randrange(7) for _ in range(4)])
            lx = regular_matrix(M2_7, x, "left")
            ly = regular_matrix(M2_7, y, "left")
            assert (lx @ ly % 7 == regular_matrix(M2_7, y * x, "left")).all()
            rx = regular_matrix(M2_7, x, "right")
            ry = regular_matrix(M2_7, y, "right")
            assert (rx @ ry % 7 == regular_matrix(M2_7, x * y, "right")).all()

    def test_foreign_element_and_bad_side_rejected(self, L2_7, M2_7):
        with pytest.raises(InputError, match="does not belong"):
            regular_matrix(L2_7, M2_7.one, "left")
        with pytest.raises(InputError, match="bad side"):
            regular_matrix(L2_7, L2_7.one, "both")


def is_unit(a, x):
    return rank(regular_matrix(a, x, "left"), a.p) == a.dim


def is_left_regular(a, x):
    """y -> y*x is injective."""
    return kernel(regular_matrix(a, x, "right"), a.p).dim == 0


class TestElementClassification:
    def test_matrix_unit_in_m2(self, M2_7):
        x = M2_7.from_matrix([[1, 0], [0, 0]])
        assert not is_unit(M2_7, x) and not (x ** M2_7.dim).is_zero() and (x * x) == x
        assert not M2_7.batch_nilpotent_mask(np.array([x.coeffs]))[0]

    def test_nilpotent_generator(self, T7):
        x = T7.element([0, 1])
        assert (x ** T7.dim).is_zero() and T7.batch_nilpotent_mask(np.array([x.coeffs]))[0]
        assert not is_unit(T7, x) and not is_left_regular(T7, x)

    def test_unit_with_inverse(self, L2_7):
        x = L2_7.from_matrix([[2, 0], [1, 1]])
        assert is_unit(L2_7, x) and is_left_regular(L2_7, x)
        # y @ L_x = x*y, so the inverse solves y @ L_x = 1
        inverse = L2_7.element(express_in_rows(regular_matrix(L2_7, x, "left").tolist(),
                                               L2_7.one_coeffs, 7))
        assert (x * inverse) == L2_7.one
        assert (inverse * x) == L2_7.one

    def test_left_regular_implies_unit_exhaustive(self, T7, F7F7):
        for a in (T7, F7F7):
            for x in a.iter_elements():
                assert is_left_regular(a, x) == is_unit(a, x)


class TestIdeals:
    def test_unit_generates_everything(self, L2_7):
        assert ideal_generated(L2_7, [L2_7.one], "left").dim == 3

    def test_complement_of_corner_idempotent(self, L2_7):
        e11 = L2_7.from_matrix([[1, 0], [0, 0]])
        ideal = ideal_generated(L2_7, [L2_7.one - e11], "right")
        assert ideal.space == closure_oracle(L2_7, [L2_7.one - e11], "right")
        assert ideal.space.basis == ((0, 1, 0), (0, 0, 1))  # span{E_21, E_22}

    def test_socle_generator(self, L2_7):
        e21 = L2_7.from_matrix([[0, 0], [1, 0]])
        ideal = ideal_generated(L2_7, [e21], "twosided")
        assert ideal.space == closure_oracle(L2_7, [e21], "twosided")
        assert ideal.dim == 1

    def test_product_intersection_chain(self, L3_7):
        e11 = L3_7.from_matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        e22 = L3_7.from_matrix([[0, 0, 0], [0, 1, 0], [0, 0, 0]])
        a1 = ideal_generated(L3_7, [L3_7.one - e11], "twosided")
        a2 = ideal_generated(L3_7, [L3_7.one - e11 - e22], "twosided")
        assert a1.dim == 5 and a2.dim == 3
        prod = ideal_combine(a1, a2, "product")
        inter = ideal_combine(a1, a2, "intersection")
        assert prod.space == inter.space == a2.space
        prod_rev = ideal_combine(a2, a1, "product")
        assert prod_rev.space == a2.space

    def test_product_with_whole_algebra(self, L2_7):
        e11 = L2_7.from_matrix([[1, 0], [0, 0]])
        a1 = ideal_generated(L2_7, [L2_7.one - e11], "twosided")
        whole = ideal_generated(L2_7, [L2_7.one], "twosided")
        assert ideal_combine(a1, whole, "product").space == a1.space

    def test_intersection_with_zero(self, L2_7):
        e11 = L2_7.from_matrix([[1, 0], [0, 0]])
        a1 = ideal_generated(L2_7, [L2_7.one - e11], "twosided")
        zero = Ideal(L2_7, Subspace.zero(7, 3), "twosided")
        assert ideal_combine(a1, zero, "intersection").dim == 0

    def test_unclosed_subspace_rejected(self, M2_7):
        with pytest.raises(InputError):
            Ideal(M2_7, Subspace.from_vectors(7, 4, [[1, 0, 0, 0]]), "twosided")


def closed_by_definition(a, space, side):
    """Reference closure check: the per-basis-element loop, left before right.

    Returns None when closed, else the side named by the first failure."""
    for v in space.basis:
        for i in range(a.dim):
            b = tuple(1 if j == i else 0 for j in range(a.dim))
            if side in ("left", "twosided") and not space.contains_vector(mul_by_definition(a, b, v)):
                return "left"
            if side in ("right", "twosided") and not space.contains_vector(mul_by_definition(a, v, b)):
                return "right"
    return None


def product_by_definition(x, y):
    """Reference ideal product: the span of all pairwise basis products."""
    a = x.algebra
    vecs = [mul_by_definition(a, u, v) for u in x.space.basis for v in y.space.basis]
    return Subspace.from_vectors(a.p, a.dim, vecs)


def quotient_table_by_definition(a, ideal, keep):
    """Reference quotient table: project the product of each pair of sections."""
    table = []
    for i in keep:
        row = []
        for j in keep:
            bi = tuple(1 if t == i else 0 for t in range(a.dim))
            bj = tuple(1 if t == j else 0 for t in range(a.dim))
            red = ideal.space.reduce(mul_by_definition(a, bi, bj))
            row.append(tuple(red[t] for t in keep))
        table.append(tuple(row))
    return tuple(table)


def random_change(p, d, rng):
    """A random invertible d x d matrix over GF(p), as a list of rows."""
    while True:
        change = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        if Subspace.from_vectors(p, d, change).dim == d:
            return change


def rebase_table(a, change):
    """The structure constants and unit of ``a`` on the basis whose vectors
    are the rows of ``change``: the new coefficient row c stands for the old
    element c @ change."""
    p, d = a.p, a.dim
    table = [[express_in_rows(change, mul_by_definition(a, change[i], change[j]), p) for j in range(d)]
             for i in range(d)]
    return table, express_in_rows(change, a.one_coeffs, p)


def rebase(a, change):
    """``a`` on the basis whose vectors are the rows of ``change``."""
    return Algebra(a.p, *rebase_table(a, change), f"rebased({a.label})")


def rebased(a, rng):
    """The same algebra on a random basis, so its structure constants are
    dense residues rather than the 0/1 entries of the constructors."""
    return rebase(a, random_change(a.p, a.dim, rng))


SMALL_ALGEBRAS = [lower_triangular(7, 2), upper_triangular(7, 3), full_matrix(7, 2),
                  truncated_poly(7, 3), direct_product([lower_triangular(7, 2), full_matrix(7, 1)])[0]]


def validate_by_definition(p, table, one):
    """The message of the first check ``Algebra._validate`` fails, or None,
    computed with Python integers over every basis triple."""
    d = len(table)

    def mul(x, y):
        return [sum(xi * yj * table[i][j][k] for i, xi in enumerate(x) for j, yj in enumerate(y)) % p
                for k in range(d)]

    basis = [[int(i == j) for j in range(d)] for i in range(d)]
    if any(mul(one, b) != b for b in basis):
        return "identity fails one*b_i = b_i"
    if any(mul(b, one) != b for b in basis):
        return "identity fails b_i*one = b_i"
    for i in range(d):
        for j in range(d):
            for k in range(d):
                # (b_i b_j) b_k against b_i (b_j b_k), with b_i b_j = table[i][j]
                if mul(table[i][j], basis[k]) != mul(basis[i], table[j][k]):
                    return f"associativity fails on basis triples with first index {i}"
    return None


P_TOP = 65521  # the largest prime the library accepts
TOP_ALGEBRAS = [lower_triangular(P_TOP, 3), full_matrix(P_TOP, 2), truncated_poly(P_TOP, 4),
                direct_product([upper_triangular(P_TOP, 2), truncated_poly(P_TOP, 2)])[0]]


@st.composite
def validate_inputs(draw):
    """(p, table, one): a constructor's table; one at p = 65521 on a random
    basis, so with dense residues; or a table whose b_0 is the identity and
    whose other constants are residues near p - 1.  Each may then have one
    structure constant or one unit entry moved."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["fixture", "dense", "near top"]))
    if kind == "near top":
        p, d = P_TOP, draw(st.integers(2, 7))
        table = [[[int(k == i) if j == 0 else int(k == j) if i == 0 else p - 1 - rng.randrange(4)
                   for k in range(d)] for j in range(d)] for i in range(d)]
        one = [1] + [0] * (d - 1)
    else:
        a = draw(st.sampled_from(SMALL_ALGEBRAS if kind == "fixture" else TOP_ALGEBRAS))
        p, d, table, one = a.p, a.dim, a.np_table.tolist(), list(a.one_coeffs)
        if kind == "dense":
            table, one = rebase_table(a, random_change(p, d, rng))
            table, one = [[list(row) for row in plane] for plane in table], list(one)
    where = draw(st.sampled_from([None, "constant", "unit"]))
    delta = draw(st.integers(1, p - 1))
    if where == "constant":
        i, j, k = (draw(st.integers(0, d - 1)) for _ in range(3))
        table[i][j][k] = (table[i][j][k] + delta) % p
    elif where == "unit":
        k = draw(st.integers(0, d - 1))
        one[k] = (one[k] + delta) % p
    return p, table, one


class TestValidate:
    @pytest.mark.parametrize("block", [1, algebra.ASSOC_BLOCK])
    @settings(max_examples=100, deadline=None)
    @given(validate_inputs())
    def test_verdict_and_message_match_the_definition(self, block, case):
        p, table, one = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(algebra, "ASSOC_BLOCK", block)
            try:
                Algebra(p, table, one)
                verdict = None
            except InputError as exc:
                verdict = str(exc)
        assert verdict == validate_by_definition(p, table, one)

    def test_float64_contractions_are_exact_up_to_max_prime(self):
        # each sum in _validate has dim < p terms, each a product of two
        # residues below p, so it stays below (p - 1)**3
        assert (linalg.MAX_PRIME - 1) ** 3 < 2 ** 53, (
            "raising MAX_PRIME past this point means revisiting Algebra._validate: "
            "its float64 contractions would no longer be exact")


@st.composite
def algebra_and_vectors(draw, lists=1):
    """A small algebra and ``lists`` lists of up to three coefficient vectors."""
    a = draw(st.sampled_from(SMALL_ALGEBRAS))
    vec = st.lists(st.integers(0, a.p - 1), min_size=a.dim, max_size=a.dim)
    return (a, *(draw(st.lists(vec, min_size=0, max_size=3)) for _ in range(lists)))


class TestBatchedKernels:
    def test_one_sided_ideal_by_side(self, M2_7):
        # span(E11, E21): the matrices with zero second column, the left ideal M2 E11
        sp = Subspace.from_vectors(7, 4, [[1, 0, 0, 0], [0, 0, 1, 0]])
        assert Ideal(M2_7, sp, "left").dim == 2
        for side in ("right", "twosided"):
            with pytest.raises(InputError, match="not closed under right multiplication"):
                Ideal(M2_7, sp, side)

    def test_left_failure_reported_before_right(self, M2_7):
        # span(E12): E21 * E12 = E22 fails on the left at the same pair as
        # E12 * E21 = E11 fails on the right
        sp = Subspace.from_vectors(7, 4, [[0, 1, 0, 0]])
        with pytest.raises(InputError, match="not closed under left multiplication"):
            Ideal(M2_7, sp, "twosided")

    @pytest.mark.parametrize("build", [lambda: lower_triangular(65521, 3),
                                       lambda: truncated_poly(65521, 4)], ids=["L3", "T4"])
    def test_element_arithmetic_at_the_largest_prime(self, build):
        # residues near p = 65521 make each product term near p^2 > 2^31,
        # which the int64 batch kernels must hold as the Python-int reference does
        a = build()
        rng = random.Random(a.dim)
        xs = [a.element([rng.randrange(a.p) for _ in range(a.dim)]) for _ in range(6)]
        for x, y in zip(xs, xs[1:]):
            assert (x * y).coeffs == mul_by_definition(a, x.coeffs, y.coeffs)
        for n in (0, 1, a.p - 1, a.p):
            assert (xs[0] ** n).coeffs == pow_by_definition(a, xs[0].coeffs, n)
        rad = radical(a).space.array
        nil = np.array([rng.randrange(a.p) for _ in range(3 * len(rad))]).reshape(3, -1) @ rad % a.p
        rows = np.concatenate([[x.coeffs for x in xs], nil, [a.one_coeffs]])
        # the nilpotency index is at most dim
        expected = [not any(pow_by_definition(a, row, a.dim)) for row in rows.tolist()]
        assert expected.count(True) == 3
        assert a.batch_nilpotent_mask(rows).tolist() == expected

    def test_zeroth_power_is_one_per_row(self, L2_7):
        xs = L2_7.enumerate_coeffs(100, 105)
        assert L2_7.batch_pow(xs, 0).tolist() == [list(L2_7.one_coeffs)] * 5
        assert L2_7.batch_pow(xs[:0], 0).shape == (0, L2_7.dim)

    def test_negative_power_rejected(self, L2_7):
        with pytest.raises(InputError, match="negative powers"):
            L2_7.one ** -1

    @settings(max_examples=120, deadline=None)
    @given(algebra_and_vectors(), st.sampled_from(["left", "right", "twosided"]), st.booleans())
    def test_ideal_check_matches_definition(self, drawn, side, close):
        a, vecs = drawn
        if close:
            space = closure_oracle(a, [a.element(v) for v in vecs], side)
        else:
            space = Subspace.from_vectors(a.p, a.dim, vecs)
        failing = closed_by_definition(a, space, side)
        if failing is None:
            assert Ideal(a, space, side).space == space
        else:
            with pytest.raises(InputError, match=f"not closed under {failing} multiplication"):
                Ideal(a, space, side)

    @settings(max_examples=80, deadline=None)
    @given(algebra_and_vectors(lists=2))
    def test_ideal_product_matches_definition(self, drawn):
        a, first, second = drawn
        x = ideal_generated(a, [a.element(v) for v in first], "twosided")
        y = ideal_generated(a, [a.element(v) for v in second], "twosided")
        assert ideal_combine(x, y, "product").space == product_by_definition(x, y)

    def test_large_prime_kernels_match_definition(self):
        # p = 65521 is the largest prime below the 2^16 bound.  Dense
        # structure constants make the terms of each stage's sums reach
        # near p^2 > 2^31, which a narrower intermediate than int64 wraps.
        rng = random.Random(65521)
        b = rebased(lower_triangular(65521, 3), rng)
        assert max(v for plane in b.table for row in plane for v in row) > b.p // 2
        rad = [b.element(v) for v in radical(b).space.basis]

        def random_element():
            return b.element([rng.randrange(b.p) for _ in range(b.dim)])

        # R e for the lifted block idempotents e: the columns of L3, of which
        # only the first is also a right ideal
        verdicts = []
        for e in block_decomposition(b).idempotents:
            left = ideal_generated(b, [random_element() * e], "left")
            for side in ("right", "twosided"):
                failing = closed_by_definition(b, left.space, side)
                verdicts.append(failing)
                if failing is None:
                    assert Ideal(b, left.space, side).space == left.space
                else:
                    with pytest.raises(InputError, match=f"{failing} multiplication"):
                        Ideal(b, left.space, side)
        assert None in verdicts and "right" in verdicts
        for _ in range(4):
            # generated inside the radical, so proper; their square is smaller
            x = ideal_generated(b, [random_element() * rng.choice(rad)], "twosided")
            y = ideal_generated(b, [random_element() * rng.choice(rad) * random_element()],
                                "twosided")
            for first, second in ((x, y), (x, x), (y, radical(b))):
                assert ideal_combine(first, second, "product").space == \
                    product_by_definition(first, second)
            for ideal in (x, ideal_combine(x, y, "product")):
                quo = quotient_algebra(b, ideal)
                assert quo.algebra.table == quotient_table_by_definition(b, ideal, quo.keep)


class TestQuotient:
    def test_by_zero_ideal_is_a_copy(self, L2_7):
        quo = quotient_algebra(L2_7, Ideal(L2_7, Subspace.zero(7, 3), "twosided"))
        assert quo.algebra.table == L2_7.table
        assert quo.algebra.one_coeffs == L2_7.one_coeffs

    def test_corner_quotient_is_the_base_field(self, L2_7):
        e11 = L2_7.from_matrix([[1, 0], [0, 0]])
        ideal = ideal_generated(L2_7, [L2_7.one - e11], "twosided")
        quo = quotient_algebra(L2_7, ideal)
        assert quo.algebra.dim == 1
        assert quo.algebra.table == (((1,),),)

    def test_projection_multiplicative_and_section_right_inverse(self, L2_7):
        e11 = L2_7.from_matrix([[1, 0], [0, 0]])
        quo = quotient_algebra(L2_7, ideal_generated(L2_7, [L2_7.one - e11], "twosided"))
        rng = random.Random(3)
        for _ in range(50):
            x = L2_7.element([rng.randrange(7) for _ in range(3)])
            y = L2_7.element([rng.randrange(7) for _ in range(3)])
            assert quo.project(x * y) == quo.project(x) * quo.project(y)
        for q in quo.algebra.iter_elements():
            assert quo.project(quo.section(q)) == q

    def test_whole_algebra_rejected(self, L2_7):
        whole = ideal_generated(L2_7, [L2_7.one], "twosided")
        with pytest.raises(InputError):
            quotient_algebra(L2_7, whole)

    def test_non_twosided_rejected(self, L2_7):
        e11 = L2_7.from_matrix([[1, 0], [0, 0]])
        left_only = ideal_generated(L2_7, [e11], "left")
        with pytest.raises(InputError):
            quotient_algebra(L2_7, left_only)


class TestOppositeAndProducts:
    def test_commutative_opposite_identical(self, T7):
        assert opposite_algebra(T7).table == T7.table

    @pytest.mark.parametrize("n", [2, 3])
    def test_opposite_of_lower_is_upper_under_transpose(self, n):
        low = lower_triangular(7, n)
        up = upper_triangular(7, n)
        op = opposite_algebra(low)
        # transpose E_ij -> E_ji identifies the opposite of lower triangular
        # with upper triangular; recover the index map from the matrix models
        low_pairs = [tuple(tuple(r) for r in m) for m in low.matrix_model[1]]
        up_index = {m: k for k, m in
                    enumerate(tuple(tuple(r) for r in m) for m in up.matrix_model[1])}
        perm = [up_index[tuple(zip(*m))] for m in low_pairs]
        for i in range(low.dim):
            for j in range(low.dim):
                got = op.table[i][j]
                row = up.table[perm[i]][perm[j]]
                expected = [0] * low.dim
                for k in range(low.dim):
                    expected[k] = row[perm[k]]
                assert list(got) == expected

    def test_index_flip_is_a_lower_upper_isomorphism(self, L2_7, U2_7):
        # E_ij -> E_{3-i,3-j} is a straight isomorphism between the two rings
        flip = {0: 2, 1: 1, 2: 0}  # (1,1)->(2,2), (2,1)->(1,2), (2,2)->(1,1)
        for i in range(3):
            for j in range(3):
                got = L2_7.table[i][j]
                row = U2_7.table[flip[i]][flip[j]]
                expected = [0] * 3
                for k in range(3):
                    expected[k] = row[flip[k]]
                assert list(got) == expected

    def test_opposite_involution(self, M2_7):
        assert opposite_algebra(opposite_algebra(M2_7)).table == M2_7.table

    def test_single_factor_product(self, M2_7):
        prod, emb = direct_product([M2_7])
        assert prod.table == M2_7.table and emb == [(0, 4)]

    def test_two_field_product(self, F7F7):
        assert F7F7.dim == 2
        assert F7F7.one_coeffs == (1, 1)

    def test_m2_times_field(self, P1):
        assert P1.dim == 5

    def test_mixed_primes_rejected(self):
        with pytest.raises(Exception):
            direct_product([full_matrix(5, 1), full_matrix(7, 1)])


# ---------------------------------------------------------------------------
# Tables built by array assignment and read at RREF pivots
# ---------------------------------------------------------------------------

def table_by_definition(ambient, rows):
    """Reference table of the subalgebra of ``ambient`` with basis ``rows``:
    each basis product is an Element product, solved over the rows."""
    elems = [ambient.element(r) for r in rows]
    return tuple(tuple(express_in_rows(rows, (u * v).coeffs, ambient.p) for v in elems)
                 for u in elems)


# M_n(GF(p)) on the row-major matrix units, the ambient of matrix_subalgebra
MATRIX_AMBIENTS = [full_matrix(5, 2), full_matrix(7, 2), full_matrix(11, 3)]


@st.composite
def random_subalgebra(draw):
    """M_n(GF(p)) and the subalgebra closed from up to two random matrices."""
    ambient = draw(st.sampled_from(MATRIX_AMBIENTS))
    n, p = ambient.matrix_model[0], ambient.p
    matrix = st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                      min_size=n, max_size=n)
    return ambient, matrix_subalgebra(p, n, draw(st.lists(matrix, max_size=2)))


@settings(max_examples=60, deadline=None)
@given(random_subalgebra())
def test_subalgebra_tables_match_the_definition(drawn):
    ambient, sub = drawn
    rows = [[v for row in m for v in row] for m in sub.matrix_model[1]]
    assert sub.table == table_by_definition(ambient, rows)
    assert sub.one_coeffs == express_in_rows(rows, ambient.one_coeffs, sub.p)


def small_subalgebra():
    return matrix_subalgebra(7, 2, [[[2, 0], [1, 0]]])


@pytest.mark.parametrize("build", [
    lambda: opposite_algebra(lower_triangular(7, 3)),
    lambda: direct_product([truncated_poly(7, 2), lower_triangular(7, 2)])[0],
    lambda: quotient_algebra(L3 := lower_triangular(7, 3), radical(L3)).algebra,
    small_subalgebra,
], ids=["opposite", "product", "quotient", "subalgebra"])
def test_np_table_is_c_contiguous(build):
    assert build().np_table.flags.c_contiguous


@pytest.mark.parametrize("module, build, call, message", [
    (algebra, small_subalgebra, 0, "closure is not multiplicatively closed"),
    (algebra, small_subalgebra, 1, "identity left the closed span"),
])
def test_each_table_check_fires(module, build, call, message, monkeypatch):
    member = module.batch_member_mask
    calls = []

    def faulty(vecs, space):
        # membership test number `call` reports its last row outside the span
        mask = member(vecs, space)
        if len(calls) == call:
            mask[-1] = False
        calls.append(call)
        return mask

    monkeypatch.setattr(module, "batch_member_mask", faulty)
    with pytest.raises(InternalCheckError, match=message):
        build()


# ---------------------------------------------------------------------------
# The central idempotents against the route through the center algebra
# ---------------------------------------------------------------------------

def central_idempotents_via_the_center_algebra(a):
    """Reference: the center as an algebra on its RREF basis, its own block
    decomposition (radical, semisimple quotient, split and lift), and the
    lifts mapped back to ``a``, in pivot order.  It runs the same splitter
    on another algebra; the enumeration below shares no code with it."""
    center = _center_subspace(a)
    one = express_in_rows(center.basis, a.one_coeffs, a.p)
    zalg = Algebra(a.p, table_by_definition(a, center.basis), one, f"Z({a.label})")
    coords = np.array([e.coeffs for e in block_decomposition(zalg).idempotents], dtype=np.int64)
    return sorted(map(tuple, (coords @ center.array % a.p).tolist()), key=lambda v: (_pivot(v), v))


CENTER_FIXTURES = SMALL_ALGEBRAS + [
    direct_product([full_matrix(7, 1)] * 3)[0],
    direct_product([truncated_poly(7, 2), full_matrix(7, 1)])[0],
    direct_product([full_matrix(7, 2), full_matrix(7, 1)])[0],
    gf49_times_dual_numbers(),
]

# draws whose R/J has a center that is not split, so its Frobenius-fixed
# space is smaller than the center
NON_SPLIT_SEEDS = {4, 8, 16, 21, 25, 35, 38, 39}


@pytest.mark.parametrize("a", CENTER_FIXTURES, ids=lambda a: a.label)
def test_central_idempotents_match_the_center_algebra_route(a):
    assert ([e.coeffs for e in two_sided_report(a).central_idempotents]
            == central_idempotents_via_the_center_algebra(a))


@pytest.mark.parametrize("seed", SEEDS)
def test_central_idempotents_match_the_center_algebra_route_on_draws(seed):
    a = random_algebra(seed)
    assert ([e.coeffs for e in two_sided_report(a).central_idempotents]
            == central_idempotents_via_the_center_algebra(a))
    abar = _radical_quotient(a)[1].algebra
    assert (_center_subspace(abar).dim > block_decomposition(a).s) == (seed in NON_SPLIT_SEEDS)


ENUMERATION_BOUND = 1 << 14


def minimal_central_idempotents(a):
    """Reference: the nonzero central solutions of e*e = e found by
    enumeration, less those above another one (e*f = f != e), in pivot order."""
    basis = [a.element(row) for row in np.eye(a.dim, dtype=np.int64)]
    central = [e for e in brute_idempotents(a, guard=ENUMERATION_BOUND).members
               if not e.is_zero() and all(e * b == b * e for b in basis)]
    minimal = [e.coeffs for e in central if not any(f != e and e * f == f for f in central)]
    return sorted(minimal, key=lambda v: (_pivot(v), v))


def check_central_idempotents_by_enumeration(a):
    """The primitive central idempotents of R and of R/J against the
    enumeration, for those with p**dim within the bound; returns how many."""
    fam = block_decomposition(a)
    checked = 0
    for alg, idems in ((a, two_sided_report(a).central_idempotents),
                       (fam.quotient.algebra, fam.central_images)):
        if alg.p ** alg.dim <= ENUMERATION_BOUND:
            assert [e.coeffs for e in idems] == minimal_central_idempotents(alg), alg.label
            checked += 1
    return checked


def test_primitive_central_idempotents_match_enumeration():
    # M2 x GF(7), of 7^5 elements, is the one fixture past the bound
    assert sum(map(check_central_idempotents_by_enumeration, CENTER_FIXTURES)) == 15


def test_primitive_central_idempotents_match_enumeration_on_draws():
    # 5 draws and 11 semisimple quotients are within the bound, among them
    # draw 25, whose R/J has a center that is not split
    assert sum(check_central_idempotents_by_enumeration(random_algebra(seed)) for seed in SEEDS) == 16


def test_equal_principal_right_ideals_force_equal_left_complements(L2_5):
    # idempotents f, f' with fR = f'R satisfy R(1-f) = R(1-f')
    idems = [e for e in brute_idempotents(L2_5).members]
    from artinloc.localization import _right_ideal_of

    def left_ideal_of(x):
        """R*x, the row space of the right multiplication by x."""
        return Subspace.from_vectors(L2_5.p, L2_5.dim, regular_matrix(L2_5, x, "right").tolist())

    by_right = {}
    for f in idems:
        by_right.setdefault(_right_ideal_of(L2_5, f), []).append(f)
    checked = 0
    for group in by_right.values():
        for f in group:
            for f2 in group:
                lf = left_ideal_of(L2_5.one - f)
                lf2 = left_ideal_of(L2_5.one - f2)
                assert lf == lf2
                checked += 1
    assert checked > len(idems)  # at least one nontrivial coincidence class


# ---------------------------------------------------------------------------
# The batched lattice tables of the kernel ideals against the pair loops
# ---------------------------------------------------------------------------

@st.composite
def small_or_rebased(draw):
    """A small fixture algebra, as constructed or on a random basis."""
    a = draw(st.sampled_from(SMALL_ALGEBRAS))
    seed = draw(st.none() | st.integers(0, 1 << 16))
    return a if seed is None else rebased(a, random.Random(seed))


def lattice_by_loops(ks):
    """Reference: containment, intersection dimensions and the extremal
    nonzero kernel ideals ``ks``, one pair at a time through :class:`Subspace`."""
    contains = [[kj.contains(ki) for kj in ks] for ki in ks]
    meets = [[ki.intersect(kj).dim for kj in ks] for ki in ks]
    nonzero = [k for k, sp in enumerate(ks) if sp.dim]
    maximal = [k for k in nonzero
               if not any(ks[j].dim > ks[k].dim and ks[j].contains(ks[k]) for j in nonzero)]
    minimal = [k for k in nonzero
               if not any(ks[j].dim < ks[k].dim and ks[k].contains(ks[j]) for j in nonzero)]
    return contains, meets, (nonzero, maximal, minimal)


def triangular_checks_by_loops(a, rep):
    """Reference: the subset-lattice checks of the report's classes as the
    loops over ordered pairs, and the minima by subset comparison."""
    subsets = [set(en.subset) for en in rep.entries]
    present = {en.subset for en in rep.entries}
    for i in rep.entries:
        for j in rep.entries:
            assert (set(i.subset) >= set(j.subset)) == j.ass.space.contains(i.ass.space)
            inter = tuple(sorted(set(i.subset) & set(j.subset)))
            if inter:
                assert i.idempotent * j.idempotent == block_sum(rep.family, inter) and inter in present
            else:
                assert (i.idempotent * j.idempotent).is_zero()
                assert tuple(sorted(set(i.subset) | set(j.subset))) in present
    return [en.subset for en in rep.entries if not any(other < set(en.subset) for other in subsets)]


class TestKernelLattice:
    @settings(max_examples=40, deadline=None)
    @given(small_or_rebased())
    def test_batched_tables_match_the_pair_loops(self, a):
        rep = localization.localization_report(a)
        kernels = [en.ass.space for en in rep.entries]
        for en in rep.entries:
            assert en.ass.space == Subspace.from_vectors(a.p, a.dim,
                                                         regular_matrix(a, a.one - en.idempotent, "left").tolist())
        contains, meets, (nonzero, maximal, minimal) = lattice_by_loops(kernels)
        assert suite._contains(rep).tolist() == contains
        assert suite._meet_dims(rep).tolist() == meets
        assert suite._extremal_kernels(rep) == (nonzero, minimal)
        # the maximal nonzero kernel ideals are those at the minima, in order
        at_minima = [k for k, en in enumerate(rep.entries) if en.subset in rep.minima]
        assert maximal == (at_minima if nonzero else [])
        assert list(rep.minima) == triangular_checks_by_loops(a, rep)
        ideals = [Ideal(a, sp, "twosided") for sp in kernels]
        pairs = []
        idems = np.array([en.idempotent.coeffs for en in rep.entries], dtype=np.int64)
        for ks, ls, rows in suite._kernel_products(a, idems, kernels):
            for k, l, r in zip(ks.tolist(), ls.tolist(), rows):
                product = ideal_combine(ideals[k], ideals[l], "product").space
                assert Subspace.from_vectors(a.p, a.dim, r.tolist()) == product
                # the loop's check: kernel ideals multiply to their intersection
                assert product == kernels[k].intersect(kernels[l])
                pairs.append((k, l))
        c = len(rep.entries)
        assert pairs == [(k, l) for k in range(c) for l in range(c)]
        # the report's radicals by the loops' selections

        def meet_of(indices):
            out = kernels[indices[0]]
            for k in indices[1:]:
                out = out.intersect(kernels[k])
            return out

        if nonzero:
            assert rep.little_rad.space == meet_of(nonzero) == meet_of(minimal)
            assert rep.l_rad.space == meet_of(maximal)
        else:
            assert rep.little_rad.dim == 0

    @pytest.mark.parametrize("bound", [1, 1 << 30])
    @pytest.mark.parametrize("build", [
        lambda: lower_triangular(7, 3),
        lambda: direct_product([full_matrix(7, 1)] * 3)[0],
        lambda: direct_product([lower_triangular(7, 2), truncated_poly(7, 2), full_matrix(7, 1)])[0],
    ], ids=["L3", "GF(7)^3", "L2xTxF"])
    def test_pair_runs_do_not_change_the_report(self, build, bound, monkeypatch):
        # one pair per run, or every pair in one run
        expected = localization.localization_report(build())
        monkeypatch.setattr(localization, "ASSOC_BLOCK", bound)
        got = localization.localization_report(build())
        assert got.to_dict() == expected.to_dict()
        assert np.array_equal(suite._closed_sum_dims(got), suite._closed_sum_dims(expected))

