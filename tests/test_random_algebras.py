"""A seeded net of random algebras, built only from existing constructors.

Each draw is ``matrix_subalgebra`` on 1-3 random generator matrices (n in
{3, 4}, p in {17, 19}, each entry nonzero with probability 0.35), or the
direct product of two such subalgebras over one prime, or the opposite of
one.  The draws reach dimension 18 and 63 left classes, past the fixtures,
so the left report's closed-form class lattice is compared there with the
eliminations that re-prove it, the classes of both sides with the digraph
of nonzero Peirce corners read off by Element products, and the right
report with the left report of the opposite algebra.
"""

import functools
import json
import random

import pytest

from artinloc.algebra import direct_product, ideal_combine, matrix_subalgebra, opposite_algebra
from artinloc.localization import duality_report, localization_report, two_sided_report
from artinloc.suite import _closed_sum_dims, _left_lattice, _sum_dims, run_invariants
from conftest import closed_sets, reference_edges, reference_sum_dims, weak_component_count

SEEDS = range(40)


def random_algebra(seed):
    """The draw for ``seed``; a product is redrawn until its dimension is
    below p, as the algebra requires."""
    rng = random.Random(seed)
    p = rng.choice([17, 19])

    def subalgebra():
        n = rng.choice([3, 4])
        gens = [[[rng.randrange(1, p) if rng.random() < 0.35 else 0 for _ in range(n)] for _ in range(n)]
                for _ in range(rng.randint(1, 3))]
        return matrix_subalgebra(p, n, gens)

    kind = rng.choice(["subalgebra", "product", "opposite"])
    if kind == "subalgebra":
        return subalgebra()
    if kind == "opposite":
        return opposite_algebra(subalgebra())
    while True:
        first, second = subalgebra(), subalgebra()
        if first.dim + second.dim < p:
            return direct_product([first, second])[0]


def meet(ideals):
    return functools.reduce(lambda x, y: x.intersect(y), [i.space for i in ideals])


def product(ideals):
    return functools.reduce(lambda x, y: ideal_combine(x, y, "product"), ideals).space


@pytest.mark.parametrize("seed", SEEDS)
def test_closed_form_lattice_matches_the_eliminations(seed):
    a = random_algebra(seed)
    rep = localization_report(a)
    assert (_sum_dims([en.ass.space for en in rep.entries], a.p) == _closed_sum_dims(rep)).all()
    minima = [rep.entry(sub).ass for sub in rep.minima]
    assert meet(minima) == rep.l_rad.space == product(minima)
    nonzero = [en.ass for en in rep.entries if en.ass.dim]
    if nonzero:
        assert meet(nonzero) == rep.little_rad.space == product(nonzero)
    else:
        assert rep.little_rad.dim == 0
    # every elimination the battery runs on the lattice
    _left_lattice(rep)


@pytest.mark.parametrize("seed", SEEDS)
def test_classes_follow_the_peirce_digraph(seed):
    # left classes: successor-closed block sets; right classes:
    # predecessor-closed; two-sided factors: the weak components
    a = random_algebra(seed)
    edges = reference_edges(a)
    dual = duality_report(a)
    left = [en.subset for en in dual.left.entries]
    assert left == closed_sets(edges)
    assert [en.subset for en in dual.right.entries] == closed_sets([list(col) for col in zip(*edges)])
    assert two_sided_report(a).factors == weak_component_count(edges)
    assert _closed_sum_dims(dual.left).tolist() == reference_sum_dims(a, left)


@pytest.mark.parametrize("seed", SEEDS)
def test_right_report_is_the_left_report_of_the_opposite(seed):
    # on every draw, not only below the guard where the battery compares them
    a = random_algebra(seed)
    assert duality_report(a).right.to_dict() == localization_report(opposite_algebra(a)).to_dict()


@pytest.mark.parametrize("seed", SEEDS)
def test_reports_are_byte_identical_across_builds(seed):
    first, second = random_algebra(seed), random_algebra(seed)
    for report in (localization_report, duality_report):
        assert json.dumps(report(first).to_dict()) == json.dumps(report(second).to_dict())


def below_guard(seed):
    a = random_algebra(seed)
    return a.p ** a.dim <= 2 ** 14


@pytest.mark.parametrize("seed", [seed for seed in SEEDS if below_guard(seed)])
def test_battery_is_green_below_the_guard(seed):
    failures = [(r.name, r.detail) for r in run_invariants(random_algebra(seed), samples=8) if not r.ok]
    assert not failures, failures
