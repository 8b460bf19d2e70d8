"""Batch command-line interface.

Input documents are UTF-8 JSON:

    {"scalar": {"prime": 7}, "kind": "constructor", "name": "lower_triangular", "n": 2}
    {"scalar": {"prime": 7}, "kind": "structure_constants",
     "dim": 2, "one": [1, 0], "mul_table": [[[1,0],[0,1]],[[0,1],[0,0]]]}

Constructor names: lower_triangular(n), upper_triangular(n), full_matrix(n),
truncated_poly(k), product(factors=[...]), opposite(inner={...}),
matrix_subalgebra(ambient_n, generators=[row-major matrices]).

Elements on the command line are JSON arrays: a flat array of residues, or,
for matrix-modelled algebras, a matrix literal desugared through the
constructor's documented basis.

``--oracle`` compares the verdict that a command prints with the
definitional oracle through the agreement function of its decision
procedure in :mod:`artinloc.suite`, the one that ``verify``'s sweep for that
procedure calls: ``check-powers``, ``check-monoid``, ``check-idempotent``
and ``twosided --element``.

Exit codes: 0 success / true verdict, 1 false verdict (check-* commands),
2 input error, guard refusal or memory run out (``resource guard: ...``),
3 internal invariant violation or oracle disagreement.
Output is deterministic: sorted keys, subsets ordered by (size, lex).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import Algebra, Element, _residues, build_algebra
from .linalg import DEFAULT_GUARD, InputError, InternalCheckError, ModulusMismatch, ResourceGuardError
from .localization import (
    DenSetDescriptor,
    classify_element,
    duality_report,
    idempotent_denominator_check,
    localization_report,
    monoid_denominator_decisions,
    powers_denominator_criterion,
    subset_str,
    two_sided_report,
)
from .suite import (Oracle, idempotent_agreement, monoid_agreement, powers_agreement, run_invariants,
                    two_sided_powers_agreement)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _parse_json(text: str, what: str):
    """``text`` parsed as JSON; malformed JSON (the message gives its line
    and column), or an integer past Python's digit limit, is an input error."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise InputError(f"invalid {what}: {exc}")


def parse_input(document: str) -> Algebra:
    """Parse a JSON algebra description into an algebra (built by :func:`build_algebra`)."""
    return build_algebra(_parse_json(document, "JSON"))


def parse_element(a: Algebra, text: str) -> Element:
    return element_from_payload(a, _parse_json(text, "element JSON"))


def element_from_payload(a: Algebra, payload) -> Element:
    if not isinstance(payload, list):
        raise InputError("element must be a JSON array of residues or a matrix literal")
    if payload and all(isinstance(r, list) for r in payload):
        return a.from_matrix(_residues(payload, 2, a.p, "element"))
    return a.element(_residues(payload, 1, a.p, "element"))


def _load_generators(a: Algebra, path: str) -> list[Element]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = _parse_json(fh.read(), "generators JSON")
    if not isinstance(payload, list) or not payload:
        raise InputError("generators file must hold a non-empty JSON array")
    return [element_from_payload(a, item) for item in payload]


def _emit(payload: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
    else:
        lines = []
        _render_text(payload, lines, "")
        text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _is_flat(value) -> bool:
    return isinstance(value, list) and not any(isinstance(v, (dict, list)) for v in value)


def _render_text(value, lines: list[str], prefix: str) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            sub = value[key]
            if _is_flat(sub):
                lines.append(f"{prefix}{key}: {json.dumps(sub)}")
            elif isinstance(sub, (dict, list)):
                lines.append(f"{prefix}{key}:")
                _render_text(sub, lines, prefix + "  ")
            else:
                lines.append(f"{prefix}{key}: {sub}")
    elif isinstance(value, list):
        for item in value:
            if _is_flat(item):
                lines.append(f"{prefix}- {json.dumps(item)}")
            elif isinstance(item, (dict, list)):
                lines.append(f"{prefix}-")
                _render_text(item, lines, prefix + "  ")
            else:
                lines.append(f"{prefix}- {item}")
    else:
        lines.append(f"{prefix}{value}")


def _descriptor_dict(desc: DenSetDescriptor | None) -> dict | None:
    if desc is None:
        return None
    out = {**desc.to_dict(), "ass_basis": desc.ass.space.array.tolist()}
    if desc.min_core_exponent is not None:
        out["min_core_exponent"] = desc.min_core_exponent
    return out


def _read_input(args) -> Algebra:
    if args.input == "-":
        return parse_input(sys.stdin.read())
    with open(args.input, "r", encoding="utf-8") as fh:
        return parse_input(fh.read())


def cmd_report(args) -> int:
    a = _read_input(args)
    if args.side == "left":
        payload = localization_report(a).to_dict()
    elif args.side == "right":
        payload = duality_report(a).right.to_dict()
    else:
        payload = duality_report(a).to_dict()
    _emit(payload, args)
    return EXIT_OK


def _finish(payload: dict, args, verdict: bool, agrees: bool) -> int:
    """Print ``payload``; exit 3 when the oracle disagrees, else by the verdict."""
    _emit(payload, args)
    if not agrees:
        return EXIT_INTERNAL
    return EXIT_OK if verdict else EXIT_FALSE


def cmd_check_powers(args) -> int:
    a = _read_input(args)
    if args.element is None:
        raise InputError("check-powers requires --element")
    s = parse_element(a, args.element)
    verdict, desc = powers_denominator_criterion(a, s)
    payload = {"verdict": verdict, "descriptor": _descriptor_dict(desc)}
    agrees = True
    if args.oracle:
        agrees, detail, _ = powers_agreement(Oracle(a, args.guard), s, verdict, desc)
        payload["oracle"] = {"agrees": agrees, "detail": detail}
    return _finish(payload, args, verdict, agrees)


def cmd_check_monoid(args) -> int:
    a = _read_input(args)
    gens = []
    if args.generators:
        gens = _load_generators(a, args.generators)
    if args.element is not None:
        gens.append(parse_element(a, args.element))
    if not gens:
        raise InputError("check-monoid requires --generators and/or --element")
    # one closure serves the decision and the oracle
    oracle = Oracle(a, args.guard)
    closure = oracle.closure(gens)
    verdict, desc = monoid_denominator_decisions(a, [gens], [closure])[0]
    payload = {"verdict": verdict, "descriptor": _descriptor_dict(desc)}
    agrees = True
    if args.oracle:
        agrees, _, res = monoid_agreement(oracle, gens, closure, verdict, desc)
        payload["oracle"] = {"verdict": res is not None and res.is_den, "agrees": agrees,
                             "ass_dim": None if res is None or res.ass is None else res.ass.dim}
    return _finish(payload, args, verdict, agrees)


def cmd_check_idempotent(args) -> int:
    a = _read_input(args)
    if args.element is None:
        raise InputError("check-idempotent requires --element")
    e = parse_element(a, args.element)
    chk = idempotent_denominator_check(a, e)
    payload = {"left": chk.left, "right": chk.right, "twosided": chk.twosided,
               "central": chk.central, "descriptor": _descriptor_dict(chk.descriptor)}
    verdict = {"left": chk.left, "right": chk.right, "both": chk.twosided}[args.side]
    agrees = True
    if args.oracle:
        agrees, _, found = idempotent_agreement(Oracle(a, args.guard), e, chk)
        payload["oracle"] = {**found, "agrees": agrees}
    return _finish(payload, args, verdict, agrees)


def cmd_classify_element(args) -> int:
    a = _read_input(args)
    if args.element is None:
        raise InputError("classify-element requires --element")
    r = parse_element(a, args.element)
    rep = localization_report(a)
    out = classify_element(a, r, rep)
    payload = {"left_localizable": out["left_localizable"], "completely": out["completely"],
               "witnesses": [subset_str(s) for s in out["witnesses"]]}
    _emit(payload, args)
    return EXIT_OK if out["left_localizable"] else EXIT_FALSE


def cmd_dual(args) -> int:
    a = _read_input(args)
    _emit(duality_report(a).to_dict(), args)
    return EXIT_OK


def cmd_twosided(args) -> int:
    a = _read_input(args)
    ts = two_sided_report(a)
    payload = ts.to_dict()
    verdict = agrees = True
    if args.element is not None:
        r = parse_element(a, args.element)
        verdict = ts.powers_criterion(r)
        payload["powers_verdict"] = verdict
        if args.oracle:
            agrees, _, found = two_sided_powers_agreement(Oracle(a, args.guard), r, verdict)
            payload["oracle"] = {"verdict": found, "agrees": agrees}
    return _finish(payload, args, verdict, agrees)


def cmd_verify(args) -> int:
    a = _read_input(args)
    results = run_invariants(a, guard=args.guard)
    payload = {"checks": [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results],
               "all_ok": all(r.ok for r in results)}
    _emit(payload, args)
    return EXIT_OK if payload["all_ok"] else EXIT_INTERNAL


COMMANDS = {
    "report": cmd_report,
    "check-powers": cmd_check_powers,
    "check-monoid": cmd_check_monoid,
    "check-idempotent": cmd_check_idempotent,
    "classify-element": cmd_classify_element,
    "dual": cmd_dual,
    "twosided": cmd_twosided,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    """One parser for every command: they all take the same options."""
    parser = argparse.ArgumentParser(
        prog="artinloc",
        description="Classify denominator sets and Ore localizations of a "
                    "finite-dimensional algebra over GF(p).")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", required=True,
                        help="path to the JSON algebra description ('-' for stdin)")
    parser.add_argument("--element", help="element payload as JSON (vector or matrix literal)")
    parser.add_argument("--generators", help="path to a JSON array of element payloads")
    parser.add_argument("--side", choices=["left", "right", "both"], default="left")
    parser.add_argument("--oracle", action="store_true",
                        help="cross-check the verdict against the brute-force oracle")
    parser.add_argument("--guard",
                        help="enumeration guard on p**dim, a positive integer "
                             "(env ARTINLOC_GUARD)")
    parser.add_argument("--format", choices=["json", "text"], default="json")
    parser.add_argument("--output", help="write the report to a file instead of stdout")
    return parser


PARSER = build_parser()


def _parse_guard(flag: str | None, env: str | None) -> int:
    """The guard from ``--guard``, else ``ARTINLOC_GUARD``, else the default;
    anything but an integer >= 1 is an input error."""
    source, text = ("--guard", flag) if flag is not None else ("ARTINLOC_GUARD", env)
    if text is None:
        return DEFAULT_GUARD
    try:
        guard = int(text)
    except ValueError:
        pass
    else:
        if guard >= 1:
            return guard
    raise InputError(f"{source} must be a positive integer, got {text!r}")


def main(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    try:
        # the environment is read at each call, not when the parser is built
        args.guard = _parse_guard(args.guard, os.environ.get("ARTINLOC_GUARD"))
        code = COMMANDS[args.command](args)
    except (InputError, ModulusMismatch, UnicodeDecodeError, OSError) as exc:
        # OSError: a path that cannot be read or written, such as a directory
        print(f"input error: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    except MemoryError as exc:
        print(f"resource guard: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        code = EXIT_INPUT
    except (InternalCheckError, AssertionError, ValueError) as exc:
        # any other ValueError, such as a numpy shape mismatch, is a fault
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        code = EXIT_INTERNAL
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
