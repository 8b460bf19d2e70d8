"""Peak memory follows the batch budget, not the size of the ring.

Every sweep takes its rows a ``linalg.row_chunks`` piece at a time, as many
as fit ``BATCH_ENTRIES`` entries, so the traced peak of a layer stays under
one multiple of the budget's bytes, plus the input's own d**3 table and a
byte per element for the masks of a ring within the guard.  The
layers run without the CLI, whose printed JSON grows with the report.
"""

import random
import tracemalloc

import pytest

from artinloc import linalg
from artinloc.algebra import direct_product, full_matrix, lower_triangular, matrix_subalgebra
from artinloc.linalg import DEFAULT_GUARD
from artinloc.localization import duality_report
from artinloc.oracle import monoid_closure
from artinloc.suite import run_invariants

# the Python lists and numpy temporaries of a layer hold at most this many
# budgets' worth of bytes
BUDGETS = 16


def _verify_above_the_guard(monkeypatch):
    # dim 21 and 23**21 elements: every sweep of verify is sampled
    a = lower_triangular(23, 6)
    assert all(r.ok for r in run_invariants(a))
    return a


def _closure_of_many_generators(monkeypatch):
    # 300 units of GF(11)^3 close to all 1,000 units: the breadth-first
    # search multiplies each frontier row by 300 generators, 900 entries;
    # a small budget keeps the traced run short
    a = direct_product([full_matrix(11, 1)] * 3)[0]
    rng = random.Random(0)
    gens = [a.element([rng.randrange(1, 11) for _ in range(3)]) for _ in range(300)]
    monkeypatch.setattr(linalg, "BATCH_ENTRIES", 1 << 12)
    assert len(monoid_closure(a, gens)) == 1000
    return a


def _dual_on_gf11_10(monkeypatch):
    # 10 blocks, 1,023 classes a side: the minima come from runs of the
    # 1,023**2 ordered pairs
    a = direct_product([full_matrix(11, 1)] * 10)[0]
    dual = duality_report(a)
    assert dual.left.loc_count == dual.right.loc_count == 1023
    return a


def _matrix_subalgebra_in_m300(monkeypatch):
    # the scalar matrices of M_300, reduced in a 90,000-entry ambient
    a = matrix_subalgebra(7, 300, [])
    assert a.dim == 1
    return a


@pytest.mark.parametrize("run", [_verify_above_the_guard, _closure_of_many_generators,
                                 _dual_on_gf11_10, _matrix_subalgebra_in_m300],
                         ids=["verify-L6(23)", "closure-300-generators", "dual-GF(11)^10",
                              "matrix_subalgebra(7,300)"])
def test_peak_memory_follows_the_batch_budget(run, monkeypatch):
    tracemalloc.start()
    try:
        a = run(monkeypatch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    masks = a.p ** a.dim if a.p ** a.dim <= DEFAULT_GUARD else 0
    assert peak < BUDGETS * linalg.BATCH_ENTRIES * 8 + a.np_table.nbytes + masks
