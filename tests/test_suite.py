"""The cross-module battery must come back green on representative fixtures.

Small fixtures get the exhaustive per-element sweeps; P1 exercises the
sampled paths.  The remaining fixtures run through the same battery inside
the acceptance module and the CLI verify tests.
"""

import dataclasses
import json
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from artinloc import algebra, linalg, localization, oracle, structure, suite
from artinloc.algebra import (Algebra, Ideal, direct_product, full_matrix, lower_triangular,
                              opposite_algebra, regular_matrix, truncated_poly)
from artinloc.cli import main
from artinloc.linalg import BATCH_ENTRIES, Subspace, kernel
from artinloc.localization import monoid_denominator_decision
from artinloc.oracle import monoid_closure
from artinloc.suite import bundle_conditions, run_invariants
from test_algebra import random_change, rebase


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


def test_battery_with_no_samples(P1):
    # every sampled check, the image-kernel split among them, takes an
    # empty batch and passes
    failures = [(r.name, r.detail) for r in run_invariants(P1, samples=0) if not r.ok]
    assert not failures, failures


def test_sampled_left_regular_check_reports_the_first_failing_sample(monkeypatch):
    # with every element declared a non-unit, the first left regular sample
    # fails; the report and the random stream left for the next check must
    # be those of a loop that draws and tests one sample at a time
    a = lower_triangular(7, 2)
    monkeypatch.setattr(a, "batch_unit_mask", lambda xs: np.zeros(len(xs), dtype=bool))
    # chunks of 4,096 samples, a dim x dim right multiplication each
    monkeypatch.setattr(linalg, "BATCH_ENTRIES", 4096 * a.dim ** 2)
    draws = []  # (state before the draw, rows drawn) per bulk draw

    def recording_rows(alg, rng, n):
        draws.append((rng.getstate(), n))
        return draw(alg, rng, n)

    draw = suite._random_rows
    monkeypatch.setattr(suite, "_random_rows", recording_rows)
    rng = random.Random(0)
    for drawn in range(1, 10_001):
        x = a.element([rng.randrange(a.p) for _ in range(a.dim)])
        if kernel(regular_matrix(a, x, "right"), a.p).dim == 0:
            break
    by_name = {r.name: r for r in run_invariants(a, guard=a.p ** a.dim - 1, samples=4)}
    check = by_name["left_regular_implies_unit"]
    assert not check.ok and check.detail == f"left regular non-unit {x!r}"
    # one chunk of draws, then the redraw up to the failing sample; the next
    # draw belongs to the following check
    assert drawn <= 4096
    assert [n for _, n in draws[:2]] == [4096, drawn]
    assert draws[2][0] == rng.getstate()


def one_at_a_time_rows(a, rng, n):
    """The reference for ``suite._random_rows``: one ``randrange`` per coordinate."""
    return np.array([[rng.randrange(a.p) for _ in range(a.dim)] for _ in range(n)],
                    dtype=np.int64).reshape(n, a.dim)


@pytest.mark.parametrize("p", [2, 3, 5, 11, 257, 65521])
@pytest.mark.parametrize("n", [0, 1, 64, 10_000])
def test_bulk_draws_are_the_one_at_a_time_stream(p, n):
    # the same rows, and the generator left in the same state
    for dim in range(1, 7):
        a = SimpleNamespace(p=p, dim=dim)
        bulk, loop = random.Random(1000 * p + dim), random.Random(1000 * p + dim)
        rows = suite._random_rows(a, bulk, n)
        assert rows.dtype == np.int64 and rows.shape == (n, dim)
        assert np.array_equal(rows, one_at_a_time_rows(a, loop, n))
        assert bulk.getstate() == loop.getstate()


GF5_2 = lambda: direct_product([full_matrix(5, 1)] * 2)[0]  # noqa: E731


def test_a_sampled_sweep_stopped_early_leaves_the_one_at_a_time_stream(monkeypatch):
    # image_kernel_split draws its 64 samples of GF(5)^2 in one call, the
    # first draw of the run; with the kernel made wrong at the unit drawn
    # k-th it stops there, and the next sweep, the two-sided powers one,
    # draws from where k single draws leave the generator
    a = GF5_2()
    loop = random.Random(0)
    drawn = [tuple(row) for row in one_at_a_time_rows(a, loop, 64).tolist()]
    k = next(k for k in range(5, 64) if all(drawn[k]) and drawn[k] not in drawn[:k])
    loop = random.Random(0)
    one_at_a_time_rows(a, loop, k + 1)
    target = a.element(drawn[k])
    wrong = regular_matrix(a, target, "right")
    both = suite.batch_row_spaces_and_kernels

    def faulty(mats, p):
        images, kernels = both(mats, p)
        return images, [Subspace.full(p, a.dim) if np.array_equal(m, wrong) else ker
                        for m, ker in zip(mats, kernels)]
    monkeypatch.setattr(suite, "batch_row_spaces_and_kernels", faulty)
    states = []
    draw = suite._random_rows
    monkeypatch.setattr(suite, "_random_rows",
                        lambda alg, rng, n: states.append(rng.getstate()) or draw(alg, rng, n))
    checks = {r.name: r for r in run_invariants(a)}
    assert checks["image_kernel_split"] == suite.CheckResult("image_kernel_split", False,
                                                             f"rank-nullity broken at {target!r}")
    # the sweep's draw, the rewind, then the two-sided powers sweep's draw
    assert states[2] == loop.getstate()
    assert [name for name, r in checks.items() if not r.ok] == ["image_kernel_split"]


@pytest.mark.parametrize("build", [lambda: lower_triangular(11, 3), GF5_2], ids=["L3_11", "GF5^2"])
def test_battery_results_do_not_depend_on_how_the_stream_is_drawn(build, monkeypatch):
    # L3(GF(11)) lies above the guard, so every sweep samples; GF(5)^2
    # samples its powers, monoid and two-sided sweeps
    bulk = run_invariants(build())
    monkeypatch.setattr(suite, "_random_rows", one_at_a_time_rows)
    assert run_invariants(build()) == bulk


@pytest.mark.parametrize("build, expected, sides", [
    (GF5_2, 31, {"left"}),
    (lambda: lower_triangular(7, 2), 270, {"left", "right"}),
], ids=["GF5^2", "L2_7"])
def test_battery_checks_each_set_and_side_once(build, expected, sides, monkeypatch):
    # the 64 samples of each sweep of GF(5)^2 fall into a ring of 25
    # elements, so most sets recur; each (side, set) goes through the
    # definitional check once, the two-sided verdict composed.  GF(5)^2 is
    # commutative, so every right check is the left one and none is made;
    # L2(GF(7)) makes one left check per distinct set and side
    checks, left_checks = [], []
    brute, left_check = suite.brute_denominator_check, oracle._left_check

    def recording_brute(alg, S, side, guard):
        checks.append((side, S.rows.tobytes()))
        return brute(alg, S, side, guard)

    def recording_left_check(*args):
        left_checks.append(args)
        return left_check(*args)

    monkeypatch.setattr(suite, "brute_denominator_check", recording_brute)
    monkeypatch.setattr(oracle, "_left_check", recording_left_check)
    results = run_invariants(build())
    assert all(r.ok for r in results), [(r.name, r.detail) for r in results if not r.ok]
    assert {side for side, _ in checks} == sides
    assert len(set(checks)) == len(checks)
    assert len(left_checks) == len(checks) == expected


def test_check_idempotent_oracle_runs_one_check_per_side(monkeypatch, tmp_path, capsys):
    calls = []
    left_check = oracle._left_check

    def recording_left_check(*args):
        calls.append(args)
        return left_check(*args)

    monkeypatch.setattr(oracle, "_left_check", recording_left_check)
    path = tmp_path / "L3.json"
    path.write_text('{"scalar": {"prime": 7}, "kind": "constructor", "name": "lower_triangular", "n": 3}')
    assert main(["check-idempotent", "--input", str(path), "--element", "[1,0,0,0,0,0]", "--oracle"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["oracle"] == {"left": True, "right": False, "twosided": False, "agrees": True}
    assert len(calls) == 2


def first_repeated_closure(a, generator_sets):
    """The index of the first generator set whose closure, free of 0, an
    earlier set already produced."""
    seen = set()
    for k, gens in enumerate(generator_sets):
        closure = monoid_closure(a, [a.element(g) for g in gens])
        key = closure.rows.tobytes()
        if key in seen and not closure.contains_zero:
            return k
        seen.add(key)
    raise AssertionError("no closure recurs")


def test_powers_sweep_catches_a_criterion_flipped_at_a_closure_already_checked(monkeypatch):
    # in GF(5)^2, x and x^-1 generate the same group: the oracle's verdict
    # on the closure is reused, and the criterion is still asked at x^-1
    a = GF5_2()
    elements = a.enumerate_coeffs(0, a.p ** a.dim).tolist()
    target = a.element(elements[first_repeated_closure(a, [[x] for x in elements])])
    criteria = suite.powers_denominator_criteria

    def flipped(alg, xs):
        return [(not ok if s == target else ok, desc) for s, (ok, desc) in zip(xs, criteria(alg, xs))]

    monkeypatch.setattr(suite, "powers_denominator_criteria", flipped)
    check = {r.name: r for r in run_invariants(a)}["powers_oracle"]
    assert not check.ok and check.detail.startswith(f"verdict mismatch at {target!r}:")


def test_monoid_sweep_catches_a_decision_flipped_at_a_closure_already_checked(monkeypatch):
    a = GF5_2()
    decide = suite.monoid_denominator_decisions
    calls = []

    def recording(alg, gen_sets, closures):
        calls.extend([g.coeffs for g in gens] for gens in gen_sets)
        return decide(alg, gen_sets, closures)

    monkeypatch.setattr(suite, "monoid_denominator_decisions", recording)
    run_invariants(a)
    k = first_repeated_closure(a, calls)
    gens = calls[k]
    calls.clear()

    def flipped(alg, gen_sets, closures):
        decisions = recording(alg, gen_sets, closures)
        return [(not verdict if n == k else verdict, desc) for n, (verdict, desc) in enumerate(decisions)]

    monkeypatch.setattr(suite, "monoid_denominator_decisions", flipped)
    check = {r.name: r for r in run_invariants(a)}["monoid_oracle"]
    assert not check.ok and check.detail == f"monoid disagreement at {gens}"


def test_a_monoid_sweep_stopped_early_leaves_the_one_at_a_time_stream(monkeypatch):
    # GF(5)^2 is under the guard: image_kernel_split and the two-sided powers
    # sweep draw 64 samples each, then the monoid sweep draws one or two
    # generators per set; no closure reaches the cap, and nothing draws after
    # it.  With the decision flipped at the k-th set, the sweep fails there
    # and leaves the generator where a loop deciding one set at a time stops
    a = GF5_2()
    k = 10
    loop = random.Random(0)
    one_at_a_time_rows(a, loop, 128)
    for _ in range(k + 1):
        gens = [a.element(row) for row in one_at_a_time_rows(a, loop, loop.choice([1, 2]))]
    decide = suite.monoid_denominator_decisions

    def flipped(alg, gen_sets, closures):
        return [(not verdict if n == k else verdict, desc)
                for n, (verdict, desc) in enumerate(decide(alg, gen_sets, closures))]

    rngs = []
    draw = suite._random_rows
    monkeypatch.setattr(suite, "_random_rows", lambda alg, rng, n: rngs.append(rng) or draw(alg, rng, n))
    monkeypatch.setattr(suite, "monoid_denominator_decisions", flipped)
    checks = {r.name: r for r in run_invariants(a)}
    assert checks["monoid_oracle"] == suite.CheckResult(
        "monoid_oracle", False, f"monoid disagreement at {[g.coeffs for g in gens]}")
    assert [name for name, r in checks.items() if not r.ok] == ["monoid_oracle"]
    assert rngs[-1].getstate() == loop.getstate()


def test_the_powers_sweep_runs_the_batched_criterion_once(monkeypatch):
    # GF(7)^2 has 49 elements, under the sweep limit: one chunk, one
    # criterion call over all of them, one _powers_rows
    a = direct_product([full_matrix(7, 1)] * 2)[0]
    rows_calls, criteria_calls = [], []
    powers_rows, criteria = localization._powers_rows, suite.powers_denominator_criteria
    monkeypatch.setattr(localization, "_powers_rows",
                        lambda alg, xs: rows_calls.append(len(xs)) or powers_rows(alg, xs))

    def counting(alg, xs):
        before = len(rows_calls)
        out = criteria(alg, xs)
        criteria_calls.append((len(xs), len(rows_calls) - before))
        return out

    monkeypatch.setattr(suite, "powers_denominator_criteria", counting)
    check = {r.name: r for r in run_invariants(a)}["powers_oracle"]
    assert check == suite.CheckResult("powers_oracle", True, "exhaustive over 49")
    assert criteria_calls == [(49, 1)]


def test_bundle_unit_sweep_memory_is_set_by_the_chunk():
    a = full_matrix(17, 2)
    assert a.p ** a.dim > 4 * BATCH_ENTRIES // a.dim ** 2
    tracemalloc.start()
    try:
        conditions = bundle_conditions(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert conditions == (True,) * 5
    # a chunk of dim x dim int64 matrices takes BATCH_ENTRIES * 8 bytes and
    # the rank elimination holds a few of them; the masks take a byte per
    # element
    assert peak < 8 * (BATCH_ENTRIES * 8) + a.p ** a.dim


def test_family_check_sees_a_lift_that_depends_on_the_build_order(monkeypatch):
    # every family built after the first lists its blocks in reverse, so the
    # fresh copy of the algebra gets another family than the algebra itself
    family = structure.IdempotentFamily
    built = []

    def reversed_after_the_first(algebra, idems, dims, comm, rad, quo, central):
        built.append(algebra)
        if len(built) > 1:
            idems, dims, comm, central = idems[::-1], dims[::-1], comm[::-1], central[::-1]
        return family(algebra, idems, dims, comm, rad, quo, central)

    monkeypatch.setattr(structure, "IdempotentFamily", reversed_after_the_first)
    a = direct_product([full_matrix(7, 1)] * 2)[0]
    check = next(r for r in run_invariants(a, samples=4) if r.name == "idempotent_family")
    assert not check.ok and check.detail == "idempotent family is not deterministic"


def test_scan_check_sees_a_corrupted_corner_table(monkeypatch):
    # T x GF(7) with a nonzero corner from block 1 to block 2: the report
    # holds together with the classes {2}, {1,2}, and only the scan of every
    # block sum finds {1} as well
    closed = localization._closed_subsets

    def with_an_edge(corners):
        corners = corners.copy()
        corners[0, 1] = True
        return closed(corners)

    monkeypatch.setattr(localization, "_closed_subsets", with_an_edge)
    a = direct_product([truncated_poly(7, 2), full_matrix(7, 1)])[0]
    by_name = {r.name: r for r in run_invariants(a, samples=4)}
    assert by_name["left_report_invariants"].ok
    scan = by_name["triangular_subset_scan"]
    assert not scan.ok and scan.detail == "the scan finds {1} {2} {1,2}, the report {2} {1,2}"


def test_verify_sees_a_fault_in_the_batched_kernel_elimination(monkeypatch):
    # the two-sided report eliminates the factor ideals (1 - e)R of all its
    # central idempotents in one batch; a batch that comes back in reverse
    # still gives two-sided ideals meeting in 0, so only the re-derivation
    # of each ideal on its own, a batch of one, sees the fault
    row_spaces = localization.batch_row_spaces
    monkeypatch.setattr(localization, "batch_row_spaces",
                        lambda mats, p: row_spaces(mats, p)[::-1] if len(mats) > 1 else row_spaces(mats, p))
    a = direct_product([full_matrix(7, 1), lower_triangular(7, 2)])[0]
    check = next(r for r in run_invariants(a, samples=4) if r.name == "two_sided_report")
    assert not check.ok and check.detail == "InternalCheckError: ideal of central factor 0 is not (1 - e)R"


@pytest.mark.parametrize("run", [1, 3, None], ids=["1", "3", "default"])
@pytest.mark.parametrize("factors, dropped, found", [
    # L2 x GF(7): 5 of the 7 block sums are triangular
    ([lower_triangular(7, 2), full_matrix(7, 1)], (1, 2), "{1} {3} {1,2} {1,3} {1,2,3}"),
    # GF(7)^3: all 7 are
    ([full_matrix(7, 1)] * 3, (1, 2), "{1} {2} {3} {1,2} {1,3} {2,3} {1,2,3}"),
])
def test_scan_finds_the_same_classes_in_runs_of_any_size(run, factors, dropped, found, monkeypatch):
    # the report misses the class ``dropped`` and still holds, so the
    # detail names every block sum the scan finds triangular, whether the
    # entry budget lets the scan take its 7 block sums one, three or all at
    # a time
    a = direct_product(factors)[0]
    closed = localization._closed_subsets
    monkeypatch.setattr(localization, "_closed_subsets",
                        lambda corners: [sub for sub in closed(corners) if sub != dropped])
    if run is not None:
        # L_e, R_(1-e) and the corner map, dim**2 entries each, per block sum
        monkeypatch.setattr(linalg, "BATCH_ENTRIES", run * 3 * a.dim ** 2)
    one = np.array(a.one_coeffs, dtype=np.int64)
    runs = []

    def recording(algebra, es, fs):
        if (fs == (one - es) % a.p).all():
            runs.append(len(es))
        return localization._corners(algebra, es, fs)

    monkeypatch.setattr(suite, "_corners", recording)
    scan = next(r for r in run_invariants(a, samples=4) if r.name == "triangular_subset_scan")
    reported = " ".join(sub for sub in found.split() if sub != "{" + ",".join(map(str, dropped)) + "}")
    assert not scan.ok and scan.detail == f"the scan finds {found}, the report {reported}"
    assert runs == {1: [1] * 7, 3: [3, 3, 1], None: [7]}[run]


@pytest.mark.parametrize("alter, key", [
    # the kernel ideal of the first class replaced by that of the full set, 0
    (lambda right: dataclasses.replace(right, entries=(
        dataclasses.replace(right.entries[0], ass=right.entries[-1].ass), *right.entries[1:])), "entries"),
    (lambda right: dataclasses.replace(right, entries=right.entries[:-1]), "entries"),
    (lambda right: dataclasses.replace(right, minima=(right.entries[-1].subset,)), "max_den"),
], ids=["kernel basis", "dropped class", "wrong minimum"])
def test_duality_check_sees_a_corrupted_right_report(alter, key, monkeypatch):
    # L2: the right classes are {2} and {1,2}, the minimum {2}
    real = suite.duality_report

    def altered(a):
        dual = real(a)
        return dataclasses.replace(dual, right=alter(dual.right))

    monkeypatch.setattr(suite, "duality_report", altered)
    check = next(r for r in run_invariants(lower_triangular(7, 2), samples=4) if r.name == "duality")
    assert not check.ok
    assert check.detail == f"the right report differs from the opposite's left report at {key!r}"


def test_verify_fails_when_the_opposite_has_another_family(monkeypatch, tmp_path, capsys):
    # the opposite of L2 on another basis lifts its blocks to other vectors
    change = random_change(7, 3, random.Random(0))
    monkeypatch.setattr(suite, "opposite_algebra", lambda a: opposite_algebra(rebase(a, change)))
    path = tmp_path / "l2.json"
    path.write_text('{"scalar": {"prime": 7}, "kind": "constructor", "name": "lower_triangular", "n": 2}',
                    encoding="utf-8")
    assert main(["verify", "--input", str(path)]) == 3
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["duality"] == {"name": "duality", "ok": False,
                                 "detail": "opposite algebra produced a different idempotent family"}
    assert all(c["ok"] for name, c in checks.items() if name != "duality")


def test_sampled_left_regular_check_reports_the_number_drawn():
    a = lower_triangular(7, 2)
    assert suite._left_regular_units(a, 10, random.Random(0), 10_001) == (True, "sampled 10001")
    assert suite._left_regular_units(a, 10, random.Random(0), 4) == (True, "sampled 10000")


def test_bundle_check_enumerates_within_the_guard(monkeypatch):
    # 7^3 elements exceed the guard of 10, so every enumerating check,
    # the bundle's unit sweep included, samples or skips instead
    enumerate_coeffs = Algebra.enumerate_coeffs
    stops = []

    def recording(self, start=0, stop=None):
        stops.append(self.p ** self.dim if stop is None else stop)
        return enumerate_coeffs(self, start, stop)

    monkeypatch.setattr(Algebra, "enumerate_coeffs", recording)
    results = run_invariants(lower_triangular(7, 2), guard=10, samples=8)
    assert all(r.ok for r in results), [(r.name, r.detail) for r in results if not r.ok]
    assert max(stops, default=0) <= 10


L2_DOC = '{"scalar": {"prime": 7}, "kind": "constructor", "name": "lower_triangular", "n": 2}'
# L2 as the user's own structure constants, labelled as the constructor labels it
L2_TABLE = lower_triangular(7, 2)
L2_RAW_DOC = json.dumps({"scalar": {"prime": 7}, "kind": "structure_constants", "dim": 3,
                         "one": list(L2_TABLE.one_coeffs), "mul_table": L2_TABLE.np_table.tolist(),
                         "label": L2_TABLE.label})


def run_cli(command, tmp_path, capsys, doc=L2_DOC):
    path = tmp_path / "l2.json"
    path.write_text(doc, encoding="utf-8")
    code = main([command, "--input", str(path)])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("doc, validated", [(L2_DOC, []), (L2_RAW_DOC, ["L2(GF(7))"])],
                         ids=["constructor", "structure_constants"])
def test_requests_validate_only_their_input(doc, validated, monkeypatch, tmp_path, capsys):
    # the named constructors, quotients, the radical, the class ideals of
    # both sides and their sums, meets and products are built by theorem;
    # only raw structure constants run their checks, and no request makes
    # a public Ideal
    calls = []
    validate, closure = Algebra._validate, Ideal.__post_init__
    monkeypatch.setattr(Algebra, "_validate", lambda self: calls.append(self.label) or validate(self))
    monkeypatch.setattr(Ideal, "__post_init__", lambda self: calls.append("ideal") or closure(self))
    assert run_cli("dual", tmp_path, capsys, doc)[0] == 0
    assert calls == validated
    calls.clear()
    assert run_cli("twosided", tmp_path, capsys, doc)[0] == 0
    assert calls == validated


@pytest.mark.parametrize("doc", [L2_DOC, L2_RAW_DOC], ids=["constructor", "structure_constants"])
def test_verify_validates_its_input_once(doc, monkeypatch, tmp_path, capsys):
    # verify checks the laws of a constructor's algebra in radical_crosscheck,
    # and does not check again those that the raw input's build checked
    calls = []
    validate = Algebra._validate
    monkeypatch.setattr(Algebra, "_validate", lambda self: calls.append(self.label) or validate(self))
    assert run_cli("verify", tmp_path, capsys, doc)[0] == 0
    assert calls.count("L2(GF(7))") == 1


def test_printing_builds_no_quotient(monkeypatch, tmp_path, capsys):
    # the reports and descriptors print dim R - dim I as the quotient
    # dimension; ``built`` records every quotient built on first use through
    # ``Ideal.quotient`` (the block decomposition builds R/J through its own
    # import and is not counted)
    built = []
    build = algebra.quotient_algebra
    monkeypatch.setattr(algebra, "quotient_algebra", lambda a, ideal: built.append(ideal) or build(a, ideal))
    for command in ("dual", "twosided"):
        code, out = run_cli(command, tmp_path, capsys)
        assert code == 0 and built == [], command
    assert json.loads(out)["factor_dims"] == [3]
    path = tmp_path / "l2.json"
    for command, element in (("check-powers", "[[1,0],[0,0]]"), ("check-idempotent", "[[1,0],[0,0]]")):
        assert main([command, "--input", str(path), "--element", element]) == 0
        descriptor = json.loads(capsys.readouterr().out)["descriptor"]
        assert (descriptor["ass_dim"], descriptor["quotient_dim"]) == (2, 1) and built == [], command
    # the monoid decision tests its generators for units in the quotient of
    # each class its closure {1, E11} reaches; printing the descriptor
    # builds none besides
    a = lower_triangular(7, 2)
    assert monoid_denominator_decision(a, [a.from_matrix([[1, 0], [0, 0]])])[0]
    decided = len(built)
    built.clear()
    assert main(["check-monoid", "--input", str(path), "--element", "[[1,0],[0,0]]"]) == 0
    assert json.loads(capsys.readouterr().out)["descriptor"]["quotient_dim"] == 1
    assert len(built) == decided == 2


def test_cold_monoid_decision_builds_one_quotient_table(monkeypatch):
    # the closure {1, E11} of L2 reaches the classes of 1 and E11; the
    # kernel ideal of 1 is 0, and R/0 is R itself, so only R/(1 - E11)R
    # gets a table of its own, besides L2 itself, built by theorem
    tables = []
    derived = Algebra._derived.__func__

    def recording(cls, p, table, one, label, *model):
        tables.append(label)
        return derived(cls, p, table, one, label, *model)

    monkeypatch.setattr(Algebra, "_derived", classmethod(recording))
    a = lower_triangular(7, 2)
    ok, desc = monoid_denominator_decision(a, [a.from_matrix([[1, 0], [0, 0]])])
    assert ok and desc.ass.dim == 2
    assert tables == ["L2(GF(7))", "L2(GF(7))/(dim 2 ideal)"]
    zero = Ideal._derived(a, Subspace.zero(7, 3), "twosided")
    assert algebra.quotient_algebra(a, zero).algebra is a and len(tables) == 2


@pytest.mark.parametrize("fixture_name", ["L2_7", "L3_7", "U3_7", "M2_7", "T7", "F7F7", "T7xF7", "P1"])
def test_verify_rebuilds_every_held_ideal(fixture_name, request, monkeypatch):
    # every ideal that the three reports hold by theorem reaches the public
    # constructor in the battery
    a = request.getfixturevalue(fixture_name)
    rebuilt = []
    rebuild = suite._rebuild

    def recording(objects):
        objects = list(objects)
        rebuilt.extend((obj.space, obj.side) for _, obj in objects
                       if isinstance(obj, Ideal) and obj.algebra is a)
        rebuild(objects)

    monkeypatch.setattr(suite, "_rebuild", recording)
    results = run_invariants(a, guard=64, samples=4)
    assert all(r.ok for r in results), [(r.name, r.detail) for r in results if not r.ok]
    dual, ts = localization.duality_report(a), localization.two_sided_report(a)
    held = [en.ass for rep in (dual.left, dual.right) for en in rep.entries]
    held += [ideal for rep in (dual.left, dual.right) for ideal in (rep.l_rad, rep.little_rad)]
    held += [d.ass for d in ts.max_den] + [ts.loc_radical]
    missing = [ideal for ideal in held if (ideal.space, ideal.side) not in rebuilt]
    assert not missing, missing


def test_twosided_splits_the_center_subspace_once(monkeypatch, tmp_path, capsys):
    # the central idempotents come straight off the center subspace: one
    # center kernel, and no radical, block decomposition or lift
    calls = []

    def count(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(name) or real(*args))

    for module in (localization, structure):
        count(module, "block_decomposition")
    count(structure, "_center_subspace")
    count(structure, "_radical_quotient")
    assert run_cli("twosided", tmp_path, capsys)[0] == 0
    assert calls == ["_center_subspace"]


def nonassociative_table():
    # basis 1, u, v, w with v*v = w*v = w and every other product of u, v, w
    # zero: the unit laws hold, and (v v) v = w differs from v (v v) = 0
    table = np.zeros((4, 4, 4), dtype=np.int64)
    table[0] = table[:, 0] = np.eye(4, dtype=np.int64)
    table[2, 2, 3] = table[3, 2, 3] = 1
    return table


@pytest.mark.parametrize("build, message", [
    (lambda: Algebra._derived(5, nonassociative_table(), (1, 0, 0, 0), "A"),
     "associativity fails on basis triples with first index 2"),
    (lambda: Algebra._derived(7, lower_triangular(7, 2).np_table, (1, 0, 0), "A"),
     "identity fails one*b_i = b_i"),
], ids=["associativity", "unit"])
def test_verify_names_an_input_that_is_no_algebra(build, message):
    # an algebra built by theorem skips the checks of Algebra; verify runs
    # them on its input in radical_crosscheck and names the failed law
    checks = {r.name: r for r in run_invariants(build(), samples=4)}
    assert checks["radical_crosscheck"] == suite.CheckResult("radical_crosscheck", False,
                                                             f"input algebra: {message}")


def test_verify_catches_a_radical_claimed_zero(monkeypatch):
    # with J claimed to be 0, R/J is R itself and radical(R) hands back the
    # claim; lower_triangular(7, 2) has 343 elements, above the guard of 64,
    # so the quasi-regularity sweep is skipped.  Only the rank of R/J's own
    # trace form, 2 of 3 here, shows the radical E21 that was left out
    monkeypatch.setattr(structure, "_trace_form_kernel", lambda a: Subspace.zero(a.p, a.dim))
    checks = {r.name: r for r in run_invariants(lower_triangular(7, 2), guard=64)}
    assert checks["radical_crosscheck"] == suite.CheckResult(
        "radical_crosscheck", False, "semisimple quotient has a nonzero radical")


def test_verify_names_a_corrupted_quotient_table(monkeypatch, tmp_path, capsys):
    # one structure constant of every class and factor quotient is off by
    # one: the requests print the same, and verify names the first object
    expected = {cmd: run_cli(cmd, tmp_path, capsys) for cmd in ("dual", "twosided")}
    build = algebra.quotient_algebra

    def corrupted(a, ideal):
        quo = build(a, ideal)
        table = quo.algebra.np_table.copy()
        table[0, 0, 0] = (table[0, 0, 0] + 1) % a.p
        bad = Algebra._derived(a.p, table, np.array(quo.algebra.one_coeffs), quo.algebra.label)
        return dataclasses.replace(quo, algebra=bad)

    monkeypatch.setattr(algebra, "quotient_algebra", corrupted)
    for cmd in ("dual", "twosided"):
        assert run_cli(cmd, tmp_path, capsys) == expected[cmd]
    code, out = run_cli("verify", tmp_path, capsys)
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 3
    assert checks["left_report_invariants"]["detail"] == \
        "InternalCheckError: quotient of the class {1}: identity fails one*b_i = b_i"
    assert checks["two_sided_report"]["detail"] == \
        "InternalCheckError: quotient of central factor 0: identity fails one*b_i = b_i"


def test_verify_names_a_class_ideal_that_is_not_closed(monkeypatch, tmp_path, capsys):
    # the kernel ideal of the class {1} of L2 is replaced by the span of
    # E11, which E21 * E11 = E21 leaves
    real = suite.localization_report

    def with_an_open_ideal(a):
        rep = real(a)
        if a.label != "L2(GF(7))":
            return rep
        open_ideal = Ideal._derived(a, Subspace.from_vectors(7, 3, [[1, 0, 0]]), "twosided")
        first = dataclasses.replace(rep.entries[0], ass=open_ideal)
        return dataclasses.replace(rep, entries=(first, *rep.entries[1:]))

    monkeypatch.setattr(suite, "localization_report", with_an_open_ideal)
    code, out = run_cli("verify", tmp_path, capsys)
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 3
    assert checks["left_report_invariants"] == {
        "name": "left_report_invariants", "ok": False,
        "detail": "InternalCheckError: kernel ideal of the class {1}: "
                  "subspace is not closed under left multiplication"}
