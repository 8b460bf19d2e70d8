"""Metamorphic properties of the whole classification, with no oracle, so
they hold above the enumeration guard too.

* Change of basis: the basis-free outputs of a report do not move when the
  structure constants are rewritten on a random basis, and the intrinsic
  ideals (the kernel ideals (1 - e_I)R and both radicals), moved back
  through the change of basis, are the same subspaces.  On the new basis
  the right report, read off the left one, is the left report of the
  opposite algebra.
* Opposite twice: op(op(A)) has A's table, so it has A's reports except
  for the label.
"""

import random

import numpy as np
import pytest

from artinloc.algebra import opposite_algebra
from artinloc.linalg import Subspace
from artinloc.localization import duality_report, localization_report, two_sided_report
from test_algebra import random_change, rebase

FIXTURES = ["L2_7", "L3_7", "U2_7", "U3_7", "M2_7", "T7", "F7F7", "P1", "T7xF7",
            "L2_5", "U2_5", "T5", "F5F5"]


def invariants(a):
    """The basis-free outputs of the left, right and two-sided reports."""
    rep = localization_report(a)
    dual = duality_report(a)
    return {
        "loc_count": rep.loc_count,
        "classes": sorted((en.ass.dim, en.quotient.algebra.dim) for en in rep.entries),
        "l_rad_dim": rep.l_rad.dim,
        "little_rad_dim": rep.little_rad.dim,
        "flags": rep.flags,
        "loc_count_right": dual.right.loc_count,
        "r_rad_dim": dual.r_rad.dim,
        "l_neq_r": dual.l_neq_r,
        "two_sided_factors": two_sided_report(a).factors,
    }


def moved(space, change):
    """The subspace of new coordinates ``space`` in the old coordinates."""
    rows = np.array(space.basis, dtype=np.int64).reshape(-1, len(change)) @ np.array(change)
    return Subspace.from_vectors(space.p, space.ambient_dim, rows.tolist())


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("seed", [0, 1])
def test_change_of_basis(name, seed, request):
    a = request.getfixturevalue(name)
    change = random_change(a.p, a.dim, random.Random(f"{name}:{seed}"))
    b = rebase(a, change)
    assert invariants(b) == invariants(a)
    rep_a, rep_b = localization_report(a), localization_report(b)
    assert {moved(en.ass.space, change) for en in rep_b.entries} == \
        {en.ass.space for en in rep_a.entries}
    for ideal in ("l_rad", "little_rad"):
        assert moved(getattr(rep_b, ideal).space, change) == getattr(rep_a, ideal).space
    assert moved(duality_report(b).r_rad.space, change) == duality_report(a).r_rad.space
    # the right report, read off the left one, is the opposite's left report
    assert duality_report(b).right.to_dict() == localization_report(opposite_algebra(b)).to_dict()


def without_labels(value):
    if isinstance(value, dict):
        return {k: without_labels(v) for k, v in value.items() if k != "label"}
    if isinstance(value, list):
        return [without_labels(v) for v in value]
    return value


@pytest.mark.parametrize("name", FIXTURES)
def test_opposite_twice(name, request):
    a = request.getfixturevalue(name)
    back = opposite_algebra(opposite_algebra(a))
    assert back.label != a.label
    assert np.array_equal(back.np_table, a.np_table)
    for report in (localization_report, duality_report, two_sided_report):
        assert without_labels(report(back).to_dict()) == without_labels(report(a).to_dict())
