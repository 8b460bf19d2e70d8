import functools
import itertools

import numpy as np
import pytest

from artinloc.algebra import (
    direct_product,
    full_matrix,
    lower_triangular,
    matrix_subalgebra,
    truncated_poly,
    upper_triangular,
)
from artinloc.linalg import Subspace
from artinloc.structure import block_decomposition


# ---------------------------------------------------------------------------
# The definitional product, independent of the library's batch kernels
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _nested_table(a):
    return a.np_table.tolist()


def mul_by_definition(a, x, y):
    """x*y on coefficient rows: the sum of x_i y_j (b_i b_j) over i and j, in
    Python ints, so a reference for ``Element.__mul__`` and the batch
    kernels that shares no code with them."""
    p, table = a.p, _nested_table(a)
    out = [0] * a.dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for k, v in enumerate(table[i][j]):
                out[k] += int(xi) * int(yj) * v
    return tuple(c % p for c in out)


def pow_by_definition(a, x, n):
    """x**n by square-and-multiply from 1 on :func:`mul_by_definition`."""
    out, base = a.one_coeffs, tuple(x)
    while n:
        if n & 1:
            out = mul_by_definition(a, out, base)
        base = mul_by_definition(a, base, base)
        n >>= 1
    return out


# ---------------------------------------------------------------------------
# References for the Peirce decomposition, by Element products on the basis
# ---------------------------------------------------------------------------

def basis(a):
    return [a.element(row) for row in np.eye(a.dim, dtype=np.int64).tolist()]


def block_sum(fam, subset):
    """e_I, the sum of the lifted block idempotents over a 1-based subset."""
    return sum((fam.idempotents[i - 1] for i in subset), fam.algebra.zero)


def reference_corner_is_zero(a, e, f):
    """e R f = 0 by Element products on the basis."""
    return all((e * b * f).is_zero() for b in basis(a))


def reference_edges(a):
    """``edges[i][j]``: the corner 1_i R 1_j of the lifted family (0-based) is
    nonzero, by Element products on the basis."""
    idems = block_decomposition(a).idempotents
    return [[not reference_corner_is_zero(a, e, f) for f in idems] for e in idems]


def closed_sets(edges):
    """The nonempty 1-based subsets, in (size, lex) order, that hold every
    head of an edge whose tail they hold."""
    s = len(edges)
    return [sub for size in range(1, s + 1) for sub in itertools.combinations(range(1, s + 1), size)
            if all(j + 1 in sub for i in sub for j in range(s) if edges[i - 1][j])]


def weak_component_count(edges):
    """The number of weakly connected components of the digraph."""
    s = len(edges)
    component = list(range(s))
    for i in range(s):
        for j in range(s):
            if edges[i][j]:
                old, new = component[j], component[i]
                component = [new if c == old else c for c in component]
    return len(set(component))


def reference_sum_dims(a, subsets):
    """dim(K_I + K_J) for every pair of the 1-based subsets: K_I is the
    direct sum of the 1_j R over j outside I, so the sum of dim 1_j R over
    the blocks j outside I & J, each the rank of the products 1_j b."""
    row_dims = [Subspace.from_vectors(a.p, a.dim, [(e * b).coeffs for b in basis(a)]).dim
                for e in block_decomposition(a).idempotents]
    return [[sum(r for j, r in enumerate(row_dims, 1) if j not in set(i_sub) & set(j_sub))
             for j_sub in subsets] for i_sub in subsets]


def gf49_times_dual_numbers():
    """GF(49) x GF(7)[x]/(x^2), GF(49) as the matrices a + bX with X^2 = -1:
    a commutative algebra whose center is neither split nor semisimple."""
    return direct_product([matrix_subalgebra(7, 2, [[[0, 6], [1, 0]]]), truncated_poly(7, 2)])[0]


@pytest.fixture(scope="session")
def L2_7():
    return lower_triangular(7, 2)


@pytest.fixture(scope="session")
def L3_7():
    return lower_triangular(7, 3)


@pytest.fixture(scope="session")
def U2_7():
    return upper_triangular(7, 2)


@pytest.fixture(scope="session")
def U3_7():
    return upper_triangular(7, 3)


@pytest.fixture(scope="session")
def M2_7():
    return full_matrix(7, 2)


@pytest.fixture(scope="session")
def T7():
    return truncated_poly(7, 2)


@pytest.fixture(scope="session")
def F7F7():
    return direct_product([full_matrix(7, 1), full_matrix(7, 1)])[0]


@pytest.fixture(scope="session")
def P1():
    return direct_product([full_matrix(7, 2), full_matrix(7, 1)])[0]


@pytest.fixture(scope="session")
def T7xF7():
    return direct_product([truncated_poly(7, 2), full_matrix(7, 1)])[0]


@pytest.fixture(scope="session")
def L2_5():
    return lower_triangular(5, 2)


@pytest.fixture(scope="session")
def U2_5():
    return upper_triangular(5, 2)


@pytest.fixture(scope="session")
def T5():
    return truncated_poly(5, 2)


@pytest.fixture(scope="session")
def F5F5():
    return direct_product([full_matrix(5, 1), full_matrix(5, 1)])[0]
