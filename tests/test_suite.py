"""The cross-module battery must come back green on representative fixtures.

Small fixtures get the exhaustive per-element sweeps; P1 exercises the
sampled paths.  The remaining fixtures run through the same battery inside
the acceptance module and the CLI verify tests.
"""

import random
import tracemalloc

import numpy as np
import pytest

from artinloc import suite
from artinloc.algebra import full_matrix, lower_triangular, regular_matrix
from artinloc.linalg import CHUNK_ROWS, kernel
from artinloc.suite import bundle_conditions, run_invariants


@pytest.mark.parametrize("fixture_name", ["L2_7", "U2_7", "T7", "F7F7", "L2_5", "T5"])
def test_battery_exhaustive_fixtures(fixture_name, request):
    a = request.getfixturevalue(fixture_name)
    results = run_invariants(a, samples=32)
    failures = [(r.name, r.detail) for r in results if not r.ok]
    assert not failures, failures


def test_battery_sampled_fixture(P1):
    results = run_invariants(P1, samples=16)
    failures = [(r.name, r.detail) for r in results if not r.ok]
    assert not failures, failures
    by_name = {r.name: r for r in results}
    assert "sampled" in by_name["powers_oracle"].detail
    assert "exhaustive" in by_name["left_regular_implies_unit"].detail


def test_sampled_left_regular_check_reports_the_first_failing_sample(monkeypatch):
    # with every element declared a non-unit, the first left regular sample
    # fails; the report and the random stream left for the next check must
    # be those of a loop that draws and tests one sample at a time
    a = lower_triangular(7, 2)
    monkeypatch.setattr(a, "batch_unit_mask", lambda xs: np.zeros(len(xs), dtype=bool))
    states = []

    def recording_draw(alg, rng):
        states.append(rng.getstate())
        return draw(alg, rng)

    draw = suite._random_element
    monkeypatch.setattr(suite, "_random_element", recording_draw)
    rng = random.Random(0)
    for drawn in range(1, 10_001):
        x = draw(a, rng)
        if kernel(regular_matrix(a, x, "right"), a.p).dim == 0:
            break
    by_name = {r.name: r for r in run_invariants(a, guard=a.p ** a.dim - 1, samples=4)}
    check = by_name["left_regular_implies_unit"]
    assert not check.ok and check.detail == f"left regular non-unit {x!r}"
    # one chunk of draws, then the redraw up to the failing sample; the next
    # draw belongs to the following check
    assert drawn <= CHUNK_ROWS
    assert states[CHUNK_ROWS + drawn] == rng.getstate()


def test_bundle_unit_sweep_memory_is_set_by_the_chunk():
    a = full_matrix(17, 2)
    assert a.p ** a.dim > 4 * CHUNK_ROWS
    tracemalloc.start()
    try:
        conditions = bundle_conditions(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert conditions == (True,) * 5
    # a chunk of dim x dim int64 matrices takes CHUNK_ROWS * dim**2 * 8
    # bytes and the rank elimination holds a few of them; the masks take a
    # byte per element
    assert peak < 8 * (CHUNK_ROWS * a.dim ** 2 * 8) + a.p ** a.dim
