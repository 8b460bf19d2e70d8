import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from artinloc import cli, linalg, localization, oracle, suite
from artinloc.algebra import Ideal, lower_triangular
from artinloc.cli import main, parse_input
from artinloc.linalg import InputError, Subspace

L2_DOC = '{"scalar": {"prime": 7}, "kind": "constructor", "name": "lower_triangular", "n": 2}'
L3_DOC = '{"scalar": {"prime": 7}, "kind": "constructor", "name": "lower_triangular", "n": 3}'
T7_DOC = ('{"scalar": {"prime": 7}, "kind": "structure_constants", "dim": 2, '
          '"one": [1, 0], "mul_table": [[[1,0],[0,1]],[[0,1],[0,0]]]}')
L3_11_DOC = '{"scalar": {"prime": 11}, "kind": "constructor", "name": "lower_triangular", "n": 3}'
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# a JSON array whose first integer has more digits than Python converts
DIGITS = b"[" + b"1" * 5000 + b", 0, 0]"
P1_DOC = ('{"scalar": {"prime": 7}, "kind": "constructor", "name": "product", "factors": '
          '[{"kind": "constructor", "name": "full_matrix", "n": 2}, '
          '{"kind": "constructor", "name": "full_matrix", "n": 1}]}')


@pytest.fixture
def docfile(tmp_path):
    def write(doc: str, name: str = "algebra.json"):
        path = tmp_path / name
        path.write_text(doc, encoding="utf-8")
        return str(path)
    return write


class TestParseInput:
    def test_constructor_document(self):
        a = parse_input(L2_DOC)
        assert a.p == 7 and a.dim == 3

    def test_structure_constants_document(self):
        a = parse_input(T7_DOC)
        assert a.dim == 2
        x = a.element([0, 1])
        assert (x * x).is_zero()

    def test_nonprime_rejected(self):
        with pytest.raises(InputError, match="not prime"):
            parse_input('{"scalar": {"prime": 4}, "kind": "constructor", '
                        '"name": "full_matrix", "n": 1}')

    def test_malformed_json_rejected(self):
        with pytest.raises(InputError, match="line"):
            parse_input("{not json")


class TestReport:
    def test_lower_triangular_3(self, docfile, capsys):
        code = main(["report", "--input", docfile(L3_DOC)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["loc_count"] == 3
        assert out["minima"] == ["{1}"]
        assert out["l_rad_dim"] == 5
        assert out["little_rad_dim"] == 3

    def test_byte_identical_reruns(self, docfile, capsys):
        path = docfile(L3_DOC)
        main(["report", "--input", path])
        first = capsys.readouterr().out
        main(["report", "--input", path])
        second = capsys.readouterr().out
        assert first == second

    def test_round_trip(self, docfile, capsys):
        main(["report", "--input", docfile(L3_DOC)])
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": ")) + "\n" == out

    def test_output_file_and_text_format(self, docfile, tmp_path):
        target = tmp_path / "report.txt"
        code = main(["report", "--input", docfile(L2_DOC), "--format", "text",
                     "--output", str(target)])
        assert code == 0
        text = target.read_text(encoding="utf-8")
        assert "loc_count: 2" in text

    def test_right_side(self, docfile, capsys):
        code = main(["report", "--input", docfile(L2_DOC), "--side", "right"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["minima"] == ["{2}"]

    def test_both_sides(self, docfile, capsys):
        code = main(["report", "--input", docfile(L2_DOC), "--side", "both"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["counts_equal"] is True
        assert out["l_neq_r"] is True


class TestCheckPowers:
    def test_remark_element(self, docfile, capsys):
        code = main(["check-powers", "--input", docfile(L2_DOC),
                     "--element", "[[2,0],[1,0]]"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["verdict"] is True
        assert out["descriptor"]["ass_dim"] == 2
        assert out["descriptor"]["quotient_dim"] == 1

    def test_with_oracle(self, docfile, capsys):
        code = main(["check-powers", "--input", docfile(L2_DOC),
                     "--element", "[[2,0],[1,0]]", "--oracle"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["oracle"]["agrees"] is True

    def test_false_verdict_exit_code(self, docfile, capsys):
        doc = '{"scalar": {"prime": 7}, "kind": "constructor", "name": "upper_triangular", "n": 2}'
        code = main(["check-powers", "--input", docfile(doc),
                     "--element", "[[1,0],[0,0]]", "--oracle"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["verdict"] is False and out["oracle"]["agrees"] is True

    def test_flat_vector_payload(self, docfile, capsys):
        code = main(["check-powers", "--input", docfile(L2_DOC), "--element", "[2,1,0]"])
        assert code == 0


class TestCheckMonoid:
    def test_generators_file(self, docfile, tmp_path, capsys):
        gens = tmp_path / "gens.json"
        gens.write_text(json.dumps([[[2, 0], [1, 0]], [[3, 0], [0, 1]]]), encoding="utf-8")
        code = main(["check-monoid", "--input", docfile(L2_DOC),
                     "--generators", str(gens), "--oracle"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["verdict"] is True and out["oracle"]["agrees"] is True

    def test_single_element_generator(self, docfile, capsys):
        code = main(["check-monoid", "--input", docfile(L2_DOC), "--element", "[[2,0],[1,0]]"])
        assert code == 0

    def test_missing_generators(self, docfile, capsys):
        code = main(["check-monoid", "--input", docfile(L2_DOC)])
        assert code == 2

    @pytest.mark.parametrize("flags", [[], ["--oracle"]], ids=["plain", "oracle"])
    def test_one_closure_per_request(self, flags, docfile, capsys, monkeypatch):
        # the decision and the oracle share the closure: it is built once
        calls = []
        real = oracle.monoid_closure
        for module in (oracle, localization, suite):
            monkeypatch.setattr(module, "monoid_closure",
                                lambda a, gens, guard: calls.append(gens) or real(a, gens, guard))
        assert main(["check-monoid", "--input", docfile(L2_DOC), "--element", "[[2,0],[1,0]]", *flags]) == 0
        assert json.loads(capsys.readouterr().out).get("oracle", {"agrees": True})["agrees"] is True
        assert len(calls) == 1


class TestCheckIdempotent:
    def test_left_side(self, docfile, capsys):
        code = main(["check-idempotent", "--input", docfile(L2_DOC),
                     "--element", "[[1,0],[0,0]]", "--oracle"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["left"] is True and out["right"] is False

    def test_oracle_compares_the_kernel_ideal(self, docfile, capsys, monkeypatch):
        # E11 of L2 with its three verdicts right but its kernel ideal
        # (1 - E11)R, of dimension 2, replaced by 0: the oracle disagrees
        real = cli.idempotent_denominator_check

        def wrong_ideal(a, e):
            chk = real(a, e)
            zero = Ideal._derived(a, Subspace.zero(a.p, a.dim), "twosided")
            return dataclasses.replace(chk, descriptor=dataclasses.replace(chk.descriptor, ass=zero))

        monkeypatch.setattr(cli, "idempotent_denominator_check", wrong_ideal)
        code = main(["check-idempotent", "--input", docfile(L2_DOC),
                     "--element", "[[1,0],[0,0]]", "--oracle"])
        out = json.loads(capsys.readouterr().out)
        assert code == 3
        assert out["oracle"] == {"left": True, "right": False, "twosided": False, "agrees": False}
        assert (out["left"], out["right"], out["twosided"]) == (True, False, False)

    def test_right_side_verdict(self, docfile, capsys):
        code = main(["check-idempotent", "--input", docfile(L2_DOC),
                     "--element", "[[1,0],[0,0]]", "--side", "right"])
        assert code == 1

    def test_non_idempotent_is_input_error(self, docfile, capsys):
        code = main(["check-idempotent", "--input", docfile(L2_DOC), "--element", "[2,0,0]"])
        assert code == 2


def flip_verdicts(real):
    """A batched decision procedure whose verdicts are the opposite of ``real``'s."""
    def flipped(*args):
        return [(not verdict, desc) for verdict, desc in real(*args)]
    return flipped


class FlippedPowersReport(localization.TwoSidedReport):
    def powers_criteria(self, rows):
        return ~super().powers_criteria(rows)


def flip_two_sided_powers(real):
    def flipped(a):
        ts = real(a)
        return FlippedPowersReport(ts.algebra, ts.max_den, ts.loc_radical)
    return flipped


def flip_right(real):
    def flipped(a, e):
        chk = real(a, e)
        return dataclasses.replace(chk, right=not chk.right)
    return flipped


# Per --oracle command: the module through which the command reaches the
# theory function (the one-element powers function calls its batched form in
# localization; check-monoid calls the batched monoid decision itself, on the
# closure it builds once), the function, which verify's sweep calls too, a
# fault planted in it, the command's element, and the verify check that
# runs the same comparison
ORACLE_FAULTS = {
    "check-powers": (localization, "powers_denominator_criteria", flip_verdicts, "[[2,0],[1,0]]",
                     "powers_oracle"),
    "check-monoid": (cli, "monoid_denominator_decisions", flip_verdicts, "[[2,0],[1,0]]",
                     "monoid_oracle"),
    "check-idempotent": (cli, "idempotent_denominator_check", flip_right, "[[1,0],[0,0]]", "idempotent_oracle"),
    "twosided": (cli, "two_sided_report", flip_two_sided_powers, "[[2,0],[1,0]]", "two_sided_powers_oracle"),
}


@pytest.mark.parametrize("command", ORACLE_FAULTS)
def test_oracle_disagreement_exits_3_and_fails_verify(command, docfile, capsys, monkeypatch):
    # the same comparison serves the command's --oracle flag and verify: a
    # fault in the theory's answer shows in both
    module, name, fault, element, check = ORACLE_FAULTS[command]
    with monkeypatch.context() as patch:
        patch.setattr(module, name, fault(getattr(module, name)))
        code = main([command, "--input", docfile(L2_DOC), "--element", element, "--oracle"])
    out = json.loads(capsys.readouterr().out)
    assert code == 3 and out["oracle"]["agrees"] is False
    assert main([command, "--input", docfile(L2_DOC), "--element", element, "--oracle"]) != 3
    capsys.readouterr()
    monkeypatch.setattr(suite, name, fault(getattr(suite, name)))
    failed = [r.name for r in suite.run_invariants(lower_triangular(7, 2), samples=4) if not r.ok]
    assert failed == [check]


@pytest.mark.parametrize("command, builder", [
    ("check-powers", "powers_denominator_criterion"),
    ("check-monoid", "monoid_denominator_decisions"),
    ("check-idempotent", "idempotent_denominator_check"),
    ("twosided", "two_sided_report"),
    ("dual", "duality_report"),
])
@pytest.mark.parametrize("message", ["Unable to allocate 8.00 GiB for an array with shape (1073741824,)", ""])
def test_out_of_memory_exits_2(command, builder, message, docfile, capsys, monkeypatch):
    # memory run out is a refusal, like the guard's, not a false verdict:
    # exit 2 with one stderr line and no traceback
    def exhausted(*args, **kwargs):
        raise MemoryError(message)
    monkeypatch.setattr(cli, builder, exhausted)
    element = "[[1,0],[0,0]]" if command == "check-idempotent" else "[[2,0],[1,0]]"
    code = main([command, "--input", docfile(L2_DOC), "--element", element, "--oracle"])
    err = capsys.readouterr().err
    assert code == 2 and len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.rstrip("\n") == "resource guard: out of memory" + (f": {message}" if message else "")


def test_out_of_memory_in_a_verify_check_fails_that_check(docfile, capsys, monkeypatch):
    # verify reports each check on its own: the check that runs out of
    # memory fails, and the command exits 3 as for any failed check
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate")
    monkeypatch.setattr(suite, "brute_radical", exhausted)
    assert main(["verify", "--input", docfile(L2_DOC)]) == 3
    failed = [c for c in json.loads(capsys.readouterr().out)["checks"] if not c["ok"]]
    assert failed == [{"name": "radical_crosscheck", "ok": False, "detail": "MemoryError: Unable to allocate"}]


def test_numpy_fault_in_the_rank_kernel_exits_3(docfile, capsys, monkeypatch):
    # a ValueError raised by numpy inside the program, here a broadcast of
    # mismatched shapes in the rank mode of the elimination, is a fault of
    # the program, not of its input
    real = linalg._rref

    def broken(mats, p, forward=False):
        if forward:
            np.zeros((2, 3)) + np.zeros(4)
        return real(mats, p, forward)

    monkeypatch.setattr(linalg, "_rref", broken)
    code = main(["check-monoid", "--input", docfile(L2_DOC), "--element", "[3,0,1]"])
    err = capsys.readouterr().err
    assert code == 3 and len(err.splitlines()) == 1
    assert err.startswith("internal invariant violation: operands could not be broadcast")


def test_check_powers_oracle_runs_the_criterion_once(docfile, capsys, monkeypatch):
    calls = []
    real = localization.powers_denominator_criteria
    for module in (suite, localization):
        monkeypatch.setattr(module, "powers_denominator_criteria",
                            lambda a, xs: calls.append(xs) or real(a, xs))
    assert main(["check-powers", "--input", docfile(L2_DOC), "--element", "[[2,0],[1,0]]", "--oracle"]) == 0
    assert json.loads(capsys.readouterr().out)["oracle"] == {"agrees": True, "detail": ""}
    assert len(calls) == 1


class TestClassifyAndTwosided:
    def test_localizable_element(self, docfile, capsys):
        code = main(["classify-element", "--input", docfile(L2_DOC), "--element", "[[2,0],[5,0]]"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["left_localizable"] is True and out["witnesses"] == ["{1}"]

    def test_stuck_element(self, docfile, capsys):
        code = main(["classify-element", "--input", docfile(L2_DOC), "--element", "[[0,0],[1,0]]"])
        assert code == 1

    def test_dual(self, docfile, capsys):
        code = main(["dual", "--input", docfile(L2_DOC)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["counts_equal"] is True and out["l_neq_r"] is True
        assert out["pairing"] == [["{1}", "{2}"]]

    def test_twosided_counts(self, docfile, capsys):
        code = main(["twosided", "--input", docfile(P1_DOC)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["factors"] == 2 and out["loc_count"] == 3

    def test_twosided_beyond_the_subset_bound(self, docfile, capsys):
        # GF(23)^21 has 2^21 block subsets, past MAX_SUBSET_ENUM: the left
        # report is refused, while the two-sided one enumerates no subset
        field = {"kind": "constructor", "name": "full_matrix", "n": 1}
        path = docfile(json.dumps({"scalar": {"prime": 23}, "kind": "constructor",
                                   "name": "product", "factors": [field] * 21}))
        assert main(["twosided", "--input", path]) == 0
        assert json.loads(capsys.readouterr().out)["factors"] == 21
        assert main(["report", "--input", path]) == 2

    def test_twosided_powers_verdict(self, docfile, capsys):
        code = main(["twosided", "--input", docfile(P1_DOC),
                     "--element", "[1,0,0,0,1]", "--oracle"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["powers_verdict"] is False and out["oracle"]["agrees"] is True


def product_doc(p, factors):
    return json.dumps({"scalar": {"prime": p}, "kind": "constructor", "name": "product",
                       "factors": factors})


GF65521_8_DOC = product_doc(65521, [{"kind": "constructor", "name": "full_matrix", "n": 1}] * 8)
L6_65521_DOC = '{"scalar": {"prime": 65521}, "kind": "constructor", "name": "lower_triangular", "n": 6}'


class TestLargePrime:
    """``dual`` and ``twosided`` at the largest admitted prime; the
    primitive idempotents are split at a cost that does not depend on p."""

    @pytest.mark.parametrize("doc, classes, minima, factors, two_sided", [
        (GF65521_8_DOC, 255, 8, 8, 255),
        (L6_65521_DOC, 6, 1, 1, 1),
    ], ids=["GF(65521)^8", "L6(GF(65521))"])
    def test_dual_and_twosided(self, doc, classes, minima, factors, two_sided, docfile, capsys):
        path = docfile(doc)
        assert main(["dual", "--input", path]) == 0
        dual = json.loads(capsys.readouterr().out)
        for side in ("left", "right"):
            assert (dual[side]["loc_count"], len(dual[side]["minima"])) == (classes, minima)
        assert main(["twosided", "--input", path]) == 0
        two = json.loads(capsys.readouterr().out)
        assert (two["factors"], two["loc_count"]) == (factors, two_sided)


def test_split_leaves_numpy_random_unimported(docfile):
    # numpy imports numpy.random and numpy.ma lazily, and the first import
    # costs memory; the split draws with the standard library instead, and
    # the oracle sorts and groups rows without a plain np.unique, which
    # imports numpy.ma
    code = ("import contextlib, io, sys\n"
            "from artinloc.cli import main\n"
            "for command, path, *extra in (('dual', sys.argv[1]), ('twosided', sys.argv[1]),\n"
            "                              ('verify', sys.argv[2]),\n"
            "                              ('check-monoid', sys.argv[2], '--element', '[2, 0]', '--oracle')):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main([command, '--input', path, *extra]) == 0\n"
            "print('numpy' in sys.modules, 'numpy.random' in sys.modules, 'numpy.ma' in sys.modules)\n")
    field = {"kind": "constructor", "name": "full_matrix", "n": 1}
    wide, small = product_doc(11, [field] * 5), product_doc(5, [field] * 2)
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code, docfile(wide), docfile(small, "small.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False", "False"]

class TestVerifyAndErrors:
    def test_verify_small_fixture(self, docfile, capsys):
        code = main(["verify", "--input", docfile(T7_DOC)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["all_ok"] is True
        assert all(c["ok"] for c in out["checks"])

    def test_verify_above_guard_skips_instead_of_failing(self, docfile, capsys):
        # 11^6 elements exceed the guard: the powers oracle's counterexample
        # search is refused, which is a skipped check, not a violation
        code = main(["verify", "--input", docfile(L3_11_DOC), "--guard", str(1 << 20)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["all_ok"] is True
        powers = next(c for c in out["checks"] if c["name"] == "powers_oracle")
        assert powers == {"name": "powers_oracle", "ok": True,
                          "detail": f"skipped (guard: {11 ** 6} > {1 << 20})"}
        # every skip names the refused size and the bound it exceeded
        skipped = {c["name"]: c["detail"] for c in out["checks"] if c["detail"].startswith("skipped")}
        assert skipped == {
            "idempotent_oracle": f"skipped (guard: {11 ** 6} > {1 << 20})",
            "powers_oracle": f"skipped (guard: {11 ** 6} > {1 << 20})",
            "maximal_den_oracle": f"skipped (sweep limit: {11 ** 6} > 2048)",
            "two_sided_powers_oracle": f"skipped (guard: {11 ** 6} > {1 << 20})",
            "monoid_oracle": f"skipped (guard: {11 ** 6} > {1 << 20})",
        }

    def test_bad_prime_exit_code(self, docfile, capsys):
        code = main(["report", "--input",
                     docfile('{"scalar": {"prime": 4}, "kind": "constructor", '
                             '"name": "full_matrix", "n": 1}')])
        assert code == 2

    # every constructor kind, with p at most its dimension and with a
    # non-prime p; the named constructors build their tables by theorem and
    # must still refuse both before any table is read
    SIZE_EDGE = {
        "lower_triangular": ({"n": 4}, 10),
        "upper_triangular": ({"n": 4}, 10),
        "full_matrix": ({"n": 3}, 9),
        "truncated_poly": ({"k": 7}, 7),
        "product": ({"factors": [{"kind": "constructor", "name": "lower_triangular", "n": 2},
                                 {"kind": "constructor", "name": "full_matrix", "n": 2}]}, 7),
        "opposite": ({"inner": {"kind": "constructor", "name": "upper_triangular", "n": 4}}, 10),
        "matrix_subalgebra": ({"ambient_n": 3, "generators": [[[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                                                              [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
                                                              [[0, 0, 0], [0, 0, 0], [1, 0, 0]]]}, 9),
    }

    @pytest.mark.parametrize("prime", [7, 9], ids=["p <= dim", "non-prime p"])
    @pytest.mark.parametrize("name", list(SIZE_EDGE))
    def test_constructor_size_and_prime_edges(self, name, prime, docfile, capsys):
        params, dim = self.SIZE_EDGE[name]
        doc = {"scalar": {"prime": prime}, "kind": "constructor", "name": name, **params}
        assert main(["dual", "--input", docfile(json.dumps(doc))]) == 2
        message = f"p = 7 must exceed dim = {dim}" if prime == 7 else "9 is not prime"
        assert capsys.readouterr() == ("", f"input error: {message}\n")

    @pytest.mark.parametrize("params, dim", [
        ({"name": "lower_triangular", "n": 300}, 45150),
        ({"name": "truncated_poly", "k": 100000}, 100000),
        ({"name": "product", "factors": [{"kind": "constructor", "name": "full_matrix", "n": 2}] * 300},
         1200),
    ], ids=["L300", "T100000", "M2^300"])
    def test_oversized_constructor_is_refused_before_its_table(self, params, dim, docfile, capsys):
        # the dim**3 tables would need terabytes: the size check comes first
        doc = {"scalar": {"prime": 7}, "kind": "constructor", **params}
        assert main(["dual", "--input", docfile(json.dumps(doc))]) == 2
        assert capsys.readouterr() == ("", f"input error: p = 7 must exceed dim = {dim}\n")

    def test_missing_file_exit_code(self, capsys):
        code = main(["report", "--input", "/nonexistent/path.json"])
        assert code == 2

    @pytest.mark.parametrize("option", ["--input", "--output", "--generators"])
    def test_directory_path_exit_code(self, option, docfile, tmp_path, capsys):
        argv = {"--input": ["dual", "--input", str(tmp_path)],
                "--output": ["dual", "--input", docfile(L2_DOC), "--output", str(tmp_path)],
                "--generators": ["check-monoid", "--input", docfile(L2_DOC),
                                 "--generators", str(tmp_path)]}[option]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ") and str(tmp_path) in captured.err

    @pytest.mark.parametrize("where, payload", [
        ("input", DIGITS), ("element", DIGITS), ("generators", DIGITS),
        ("input", b"\xff[1, 0, 0]"), ("generators", b"\xff[1, 0, 0]")],
        ids=["input past the digit limit", "element past the digit limit", "generators past the digit limit",
             "input not UTF-8", "generators not UTF-8"])
    def test_undecodable_json_exit_code(self, where, payload, docfile, tmp_path, capsys):
        # an integer past Python's digit limit for int conversion, or a file
        # that is not UTF-8, is bad input, though neither is a JSONDecodeError
        bad = tmp_path / "bad.json"
        bad.write_bytes(payload)
        argv = {"input": ["report", "--input", str(bad)],
                "element": ["check-monoid", "--input", docfile(L2_DOC), "--element", DIGITS.decode()],
                "generators": ["check-monoid", "--input", docfile(L2_DOC), "--generators", str(bad)]}[where]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("input error:")

    def test_dimension_mismatch_exit_code(self, docfile, capsys):
        code = main(["check-powers", "--input", docfile(L2_DOC), "--element", "[1,2]"])
        assert code == 2

    @pytest.mark.parametrize("changes", [
        {"dim": 1, "one": [1.9], "mul_table": [[[1.2]]]},
        {"mul_table": [[[True, 0], [0, 1]], [[0, 1], [0, 0]]]},
        {"dim": True, "one": [1], "mul_table": [[[1]]]},
        {"one": ["1", 0]},
    ], ids=["float", "bool entry", "bool dim", "string"])
    def test_non_integer_structure_constants_exit_code(self, changes, docfile, capsys):
        doc = json.dumps({**json.loads(T7_DOC), **changes})
        assert main(["report", "--input", docfile(doc)]) == 2
        assert "integer" in capsys.readouterr().err

    def test_non_integer_generators_exit_code(self, docfile, capsys):
        doc = json.dumps({"scalar": {"prime": 7}, "kind": "constructor", "name": "matrix_subalgebra",
                          "ambient_n": 2, "generators": [[[2.9, 0], [True, 0]]]})
        assert main(["report", "--input", docfile(doc)]) == 2
        assert "integer" in capsys.readouterr().err

    @pytest.mark.parametrize("scalar", [5, None], ids=["number", "null"])
    @pytest.mark.parametrize("where", ["factor", "inner"])
    def test_nested_scalar_not_an_object_exit_code(self, where, scalar, docfile, capsys):
        nested = {"scalar": scalar, "kind": "constructor", "name": "full_matrix", "n": 2}
        doc = {"scalar": {"prime": 7}, "kind": "constructor"}
        if where == "factor":
            doc.update(name="product", factors=[nested])
        else:
            doc.update(name="opposite", inner=nested)
        assert main(["report", "--input", docfile(json.dumps(doc))]) == 2
        assert '"scalar" must be an object' in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["factor", "inner"])
    def test_nested_float_prime_exit_code(self, where, docfile, capsys):
        nested = {"scalar": {"prime": 7.0}, "kind": "constructor", "name": "full_matrix", "n": 2}
        doc = {"scalar": {"prime": 7}, "kind": "constructor"}
        if where == "factor":
            doc.update(name="product", factors=[nested])
        else:
            doc.update(name="opposite", inner=nested)
        assert main(["report", "--input", docfile(json.dumps(doc))]) == 2
        assert "'prime' must be an integer" in capsys.readouterr().err

    def test_ragged_matrix_element_exit_code(self, docfile, capsys):
        code = main(["check-powers", "--input", docfile(L2_DOC), "--element", "[[1, 0, 0], [1]]"])
        assert code == 2
        assert "matrix literal must be 2x2" in capsys.readouterr().err

    def test_ragged_generator_exit_code(self, docfile, capsys):
        doc = json.dumps({"scalar": {"prime": 7}, "kind": "constructor", "name": "matrix_subalgebra",
                          "ambient_n": 2, "generators": [[[1, 0, 0], [0]]]})
        assert main(["report", "--input", docfile(doc)]) == 2
        assert "generator must be 2x2" in capsys.readouterr().err

    @pytest.mark.parametrize("generators", [[], [[[1, 0], [0, 1]]]], ids=["none", "2x2"])
    def test_ambient_past_the_bound_exit_code(self, generators, docfile, capsys):
        # M_65521 would hold 4.3e9 entries: refused before any allocation,
        # a wrong generator shape first
        doc = json.dumps({"scalar": {"prime": 7}, "kind": "constructor", "name": "matrix_subalgebra",
                          "ambient_n": 65521, "generators": generators})
        assert main(["report", "--input", docfile(doc)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("input error:")
        assert ("generator must be 65521x65521" if generators else "above the bound") in err

    def test_ragged_mul_table_exit_code(self, docfile, capsys):
        doc = json.dumps({**json.loads(T7_DOC), "mul_table": [[[1, 0], [0, 1]], [[0, 1]]]})
        assert main(["report", "--input", docfile(doc)]) == 2
        assert "'mul_table' must be 2x2x2" in capsys.readouterr().err

    @pytest.mark.parametrize("element", ["[true, 0, 1]", "[[1.5, 0], [0, 1]]", '[1, "2", 0]'],
                             ids=["bool vector", "float matrix", "string vector"])
    def test_non_integer_element_exit_code(self, element, docfile, capsys):
        assert main(["check-powers", "--input", docfile(L2_DOC), "--element", element]) == 2
        assert "integer" in capsys.readouterr().err

    def test_oversized_structure_constants_are_reduced(self, docfile, capsys):
        # 7 * 10**22 + 1 is 1 mod 7 and -7 * 10**23 is 0, both beyond int64
        big = 7 * 10 ** 22
        doc = json.dumps({**json.loads(T7_DOC), "one": [big + 1, big],
                          "mul_table": [[[big + 1, 0], [0, 1]], [[0, 1], [-10 * big, 0]]]})
        assert main(["report", "--input", docfile(doc)]) == 0
        oversized = capsys.readouterr().out
        assert main(["report", "--input", docfile(T7_DOC)]) == 0
        assert oversized == capsys.readouterr().out

    def test_guard_env_var(self, docfile, capsys, monkeypatch):
        monkeypatch.setenv("ARTINLOC_GUARD", "3")
        # the closure of a unit of multiplicative order 6 exceeds a guard of 3
        code = main(["check-monoid", "--input", docfile(L2_DOC), "--element", "[3,0,1]"])
        assert code == 2
        assert "guard" in capsys.readouterr().err

    def test_guard_flag_overrides(self, docfile, capsys, monkeypatch):
        monkeypatch.setenv("ARTINLOC_GUARD", "3")
        code = main(["check-monoid", "--input", docfile(L2_DOC),
                     "--element", "[3,0,1]", "--guard", "1000000"])
        assert code == 0

    @pytest.mark.parametrize("guard", ["0", "-3", "abc", "2.5", ""])
    @pytest.mark.parametrize("command", [
        ["report"], ["verify"], ["check-monoid", "--element", "[3,0,1]"],
        ["check-idempotent", "--oracle", "--element", "[1,0,0]"]])
    def test_guard_flag_not_a_positive_integer(self, command, guard, docfile, capsys):
        code = main([command[0], "--input", docfile(L2_DOC), *command[1:], "--guard", guard])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"input error: --guard must be a positive integer, got {guard!r}\n"

    @pytest.mark.parametrize("guard", ["0", "-3", "abc", ""])
    @pytest.mark.parametrize("command", ["report", "verify"])
    def test_guard_env_var_not_a_positive_integer(self, command, guard, docfile, capsys, monkeypatch):
        monkeypatch.setenv("ARTINLOC_GUARD", guard)
        code = main([command, "--input", docfile(L2_DOC)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"input error: ARTINLOC_GUARD must be a positive integer, got {guard!r}\n")

    def test_valid_guard_flag_hides_a_bad_env_var(self, docfile, monkeypatch):
        monkeypatch.setenv("ARTINLOC_GUARD", "abc")
        assert main(["check-monoid", "--input", docfile(L2_DOC),
                     "--element", "[3,0,1]", "--guard", "6"]) == 0


@pytest.mark.parametrize("module", ["artinloc", "artinloc.cli"])
def test_python_dash_m_runs_the_cli(module, docfile):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-m", module, "verify", "--input", docfile(T7_DOC)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_ok"] is True


# ---------------------------------------------------------------------------
# Golden outputs of the decision commands
# ---------------------------------------------------------------------------

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")
M2_13_DOC = '{"scalar": {"prime": 13}, "kind": "constructor", "name": "full_matrix", "n": 2}'
T2xL2_DOC = ('{"scalar": {"prime": 7}, "kind": "constructor", "name": "product", "factors": '
             '[{"kind": "constructor", "name": "truncated_poly", "k": 2}, '
             '{"kind": "constructor", "name": "lower_triangular", "n": 2}]}')
# Per algebra: a unit, a nilpotent, a pair of generators whose closure has
# at least two distinct associated idempotents among its non-units, and the
# associated idempotents of the two generators.  The L3 and T2xL2 pairs
# generate denominator sets, the M2 and P1 pairs do not.
GOLDEN_ALGEBRAS = {
    "L3_7": (L3_DOC, [2, 1, 3, 0, 5, 4], [0, 3, 0, 1, 2, 0],
             [[4, 0, 0, 5, 2, 0], [6, 1, 0, 3, 0, 4]], [[1, 0, 0, 3, 0, 0], [1, 6, 0, 0, 0, 1]]),
    "M2_13": (M2_13_DOC, [1, 2, 3, 4], [0, 5, 0, 0],
              [[5, 11, 0, 0], [7, 0, 10, 0]], [[1, 10, 0, 0], [1, 0, 7, 0]]),
    "P1": (P1_DOC, [1, 2, 3, 4, 5], [0, 0, 3, 0, 0],
           [[0, 0, 0, 6, 0], [4, 0, 2, 6, 0]], [[0, 0, 0, 1, 0], [1, 0, 0, 1, 0]]),
    "T2xL2_7": (T2xL2_DOC, [3, 1, 2, 5, 4], [0, 2, 0, 6, 0],
                [[6, 3, 0, 6, 4], [2, 0, 2, 0, 0]], [[1, 0, 0, 5, 1], [1, 0, 1, 0, 0]]),
}


OP_L3_DOC = ('{"scalar": {"prime": 7}, "kind": "constructor", "name": "opposite", '
             '"inner": {"kind": "constructor", "name": "lower_triangular", "n": 3}}')
# The right half of the classification: the four algebras above and the
# opposite of L3, whose right classes are the left classes of L3.
REPORT_ALGEBRAS = {**{name: spec[0] for name, spec in GOLDEN_ALGEBRAS.items()}, "opL3_7": OP_L3_DOC}
REPORT_COMMANDS = {"dual": ["dual"], "report-right": ["report", "--side", "right"],
                   "report-both": ["report", "--side", "both"]}
# ``verify`` on four small algebras: its details name what the oracle
# checks counted (idempotents found, monoids tested and capped, ...)
VERIFY_ALGEBRAS = {
    "L2_5": '{"scalar": {"prime": 5}, "kind": "constructor", "name": "lower_triangular", "n": 2}',
    "T2_5": '{"scalar": {"prime": 5}, "kind": "constructor", "name": "truncated_poly", "k": 2}',
    "GF5^2": product_doc(5, [{"kind": "constructor", "name": "full_matrix", "n": 1}] * 2),
    "GF7^2": product_doc(7, [{"kind": "constructor", "name": "full_matrix", "n": 1}] * 2),
}


def golden_cases():
    """(key, algebra document, argv after --input, generators or None)."""
    for name, doc in REPORT_ALGEBRAS.items():
        for cmd, argv in REPORT_COMMANDS.items():
            yield f"{cmd}-{name}", doc, argv, None
    for cmd, argv in REPORT_COMMANDS.items():
        yield f"{cmd}-T2xL2_7-text", T2xL2_DOC, [*argv, "--format", "text"], None
    for name, (doc, unit, nilpotent, pair, idempotents) in GOLDEN_ALGEBRAS.items():
        elements = {"unit": unit, "nilpotent": nilpotent, "g1": pair[0], "g2": pair[1]}
        for label, elem in elements.items():
            for cmd in ("check-powers", "check-monoid", "classify-element", "twosided"):
                yield f"{cmd}-{name}-{label}", doc, [cmd, "--element", json.dumps(elem)], None
        yield f"check-monoid-{name}-pair", doc, ["check-monoid"], pair
        one = list(parse_input(doc).one_coeffs)
        for label, elem in (("one", one), ("e1", idempotents[0]), ("e2", idempotents[1])):
            yield (f"check-idempotent-{name}-{label}", doc,
                   ["check-idempotent", "--element", json.dumps(elem)], None)
    for name, doc in VERIFY_ALGEBRAS.items():
        yield f"verify-{name}", doc, ["verify"], None
    # a guard below 5^3 sends every sweep of L2_5 down its sampled path,
    # which pins the random stream the samples are drawn from
    yield "verify-L2_5-guard16", VERIFY_ALGEBRAS["L2_5"], ["verify", "--guard", "16"], None


def run_golden_case(doc, argv, gens, tmp_dir):
    path = os.path.join(tmp_dir, "algebra.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc)
    extra = []
    if gens is not None:
        gens_path = os.path.join(tmp_dir, "gens.json")
        with open(gens_path, "w", encoding="utf-8") as fh:
            json.dump(gens, fh)
        extra = ["--generators", gens_path]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([argv[0], "--input", path, *argv[1:], *extra, "--oracle"])
    return {"code": code, "stdout": out.getvalue()}


def record_golden(target: str = GOLDEN_PATH) -> None:
    """Write the outputs of :func:`golden_cases` to ``target``."""
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {key: run_golden_case(doc, argv, gens, tmp)
                    for key, doc, argv, gens in golden_cases()}
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


GOLDEN_CASES = list(golden_cases())


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[case[0] for case in GOLDEN_CASES])
def test_decision_commands_match_recorded_output(case, golden, tmp_path):
    key, doc, argv, gens = case
    assert run_golden_case(doc, argv, gens, str(tmp_path)) == golden[key]


if __name__ == "__main__":
    # python tests/test_cli.py  (with artinloc importable) re-records the file
    record_golden()
