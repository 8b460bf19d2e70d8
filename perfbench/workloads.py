"""The three seeded workloads: their corpora, requests and answer checks.

A workload is a list of corpus entries (one row each in the report) and a
pass: the requests of one round over the corpus.  The timed loop repeats
whole passes.  The seed picks primes, element values and factor orders;
the shapes of the algebras and the patterns of the elements, and so the
cost of a pass, stay the same from seed to seed.

Each request is checked against an answer the benchmark knows without the
program (the class counts in ``model``), or against the program's own
brute-force oracle (``"agrees": true``), or, for ``decide``, against the
definitional oracle called directly after the timed loop.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass, field

from model import Algebra, Factor, block_triangular, opposite, product, rank_mod_p, single

# A request is refused when it stops at the enumeration guard (exit 2, or a
# check reported as skipped), failed when it errs (an exception, exit 2 or 3
# on well-formed input), and wrong when its answer contradicts the known
# answer or the oracle.
OK, REFUSED, FAILED, WRONG = "ok", "refused", "failed", "wrong"


@dataclass
class Request:
    row: str                  # corpus entry the request belongs to
    op: str                   # CLI command, or decide query name
    args: tuple = ()          # extra CLI arguments, or query arguments
    expect: dict = field(default_factory=dict)
    above_guard: bool = False


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class CliWorkload:
    """Requests are ``artinloc.cli.main(argv)`` calls on written input files."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.entries: dict[str, Algebra] = {}
        self.requests: list[Request] = []

    def add(self, alg: Algebra, *reqs: Request) -> None:
        self.entries.setdefault(alg.name, alg)
        self.requests.extend(reqs)

    def setup(self, workdir: str, mods) -> None:
        self.cli = mods.cli
        self.paths = {}
        for i, (name, alg) in enumerate(self.entries.items()):
            path = os.path.join(workdir, f"{self.name}-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(alg.doc(), fh)
            self.paths[name] = path

    def execute(self, req: Request):
        return run_cli(self.cli, [req.op, "--input", self.paths[req.row], *req.args])

    def output_text(self, result) -> str:
        return result[1]

    def summary(self, result):
        return result

    def judge(self, req: Request, result) -> str:
        code, text = result
        if req.above_guard and code == 2:
            return REFUSED
        try:
            out = json.loads(text)
        except ValueError:
            return FAILED
        if "oracle" in out:
            if out["oracle"]["agrees"] is not True:
                return WRONG
            if req.op == "twosided" and out["loc_count"] != req.expect["two_sided"]:
                return WRONG
            return OK if code in (0, 1) else FAILED
        if code != 0:
            return FAILED
        if req.op == "verify":
            if not out["all_ok"]:
                return FAILED
            skipped = any(c["detail"].startswith("skipped") for c in out["checks"])
            return REFUSED if req.above_guard and skipped else OK
        if req.op == "dual":
            ok = (out["counts_equal"]
                  and out["loc_count_left"] == out["loc_count_right"] == req.expect["classes"])
        else:
            ok = out["loc_count"] == req.expect["two_sided"]
        return OK if ok else WRONG


def classify_requests(alg: Algebra) -> list[Request]:
    expect = {"classes": alg.classes, "two_sided": alg.two_sided}
    return ([Request(alg.name, "dual", expect=expect)]
            + [Request(alg.name, "twosided", expect=expect)] * 3)


def classify(seed: int) -> CliWorkload:
    """``dual`` and three ``twosided`` on each algebra of two shapes.

    Deep: few blocks and large dim, where radical, block lifting and the
    ``Ideal`` checks grow with dim while the class lattice stays small.
    Wide: direct products of 3-5 small factors, where the 2^s subset scan
    and the all-pairs checks dominate and each linear-algebra call is cheap.
    The twosided requests and the cheap duals cost 6-25 ms each, spaced
    closer than the machine's own speed swings, so the median moves smoothly
    with them instead of jumping between two inputs.
    """
    w = CliWorkload("classify", seed)
    pick = w.rng.choice
    deep = [
        single("L", 4, 11),
        single("L", 6, 23),
        single("M", 4, 17),
        single("U", 4, pick([11, 13, 17, 19])),
        single("L", 5, pick([17, 19, 23])),
        single("M", 3, pick([11, 13, 17, 19, 23])),
        single("M", 5, pick([29, 31, 37])),
        single("T", 8, pick([11, 13, 17, 19])),
        single("T", 10, pick([13, 17, 19])),
        opposite("L", 4, pick([11, 13, 17])),
        block_triangular(w.rng.sample([2, 1, 1], 3), pick([13, 17, 19]), w.rng),
    ]
    F, T, L, M = Factor("M", 1), Factor("T", 2), Factor("L", 2), Factor("M", 2)
    wide = [product([F] * k, 11) for k in (3, 4, 5)]
    for shape in ([T, T, T], [L, F, M], [L, L, F], [M, F, F, F], [L, T, F, F]):
        wide.append(product(w.rng.sample(shape, len(shape)), pick([13, 17, 19])))
    for alg in deep + wide:
        w.add(alg, *classify_requests(alg))
    return w


def oracle(seed: int) -> CliWorkload:
    """Brute-force cross-checks: enumeration and the invariant battery dominate.

    The heavy requests (``verify``, and idempotent checks on 7^6 elements)
    make up a sixth of a pass, so the 90th percentile falls among them, on
    the four idempotent checks of nearly equal cost.
    Elements cycle through the algebra's patterns (``model.Factor.element``),
    so the seed changes their values but not the cost of checking them.
    """
    w = CliWorkload("oracle", seed)
    rng = w.rng
    F, M2 = Factor("M", 1), Factor("M", 2)
    for alg in (product([F, F], 5), single("T", 2, 5), product([F, F], 7)):
        w.add(alg, Request(alg.name, "verify"))
    # above the 2^20 enumeration guard: 11^6 elements
    big = single("L", 3, 11)
    elem = json.dumps(big.element(rng, big.patterns[-1]))
    w.add(big, Request(big.name, "verify", above_guard=True),
          Request(big.name, "check-powers", ("--element", elem, "--oracle"), above_guard=True))
    l3 = single("L", 3, 7)
    for eps in ((1, 0, 0), (0, 0, 1)) * 2:
        elem = json.dumps(l3.idempotent(rng, (eps,)))
        w.add(l3, Request(l3.name, "check-idempotent", ("--element", elem, "--oracle")))
    for alg in (l3, single("M", 2, 13), product([M2, F], 7), product([Factor("T", 2), Factor("L", 2)], 7)):
        pats = itertools.cycle(alg.patterns)
        # monoid and idempotent checks on 7^6 elements cost as much as a verify
        small = 0 if alg is l3 else 3
        for op, count in (("check-powers", 3 if alg is l3 else 4), ("check-monoid", small),
                          ("twosided", 2 if alg is l3 else 3), ("check-idempotent", small)):
            for _ in range(count):
                pattern = next(pats)
                elem = json.dumps(alg.idempotent(rng, pattern) if op == "check-idempotent"
                                  else alg.element(rng, pattern))
                w.add(alg, Request(alg.name, op, ("--element", elem, "--oracle"),
                                   expect={"two_sided": alg.two_sided}))
    return w


# ---------------------------------------------------------------------------
# decide: library session with warm reports
# ---------------------------------------------------------------------------

# Queries per algebra and pass.  Elements cycle through the algebra's
# patterns (``model.Factor.element``), which fix their multiplicative
# structure.  The monoid decision runs the powers criterion on every member
# of its generator's closure, so a closure of dozens of members would make
# the pass cost follow the seed; its generators are x = u diag(-pattern) u^-1
# with closure {1, x, x^2}.  Large closures are exercised by ``oracle``.
QUERY_MIX = (("powers", 6), ("classify", 6), ("twosided_powers", 6), ("monoid", 4))


class DecideWorkload:
    """One session per algebra: the reports are built during set-up, the
    timed requests are decision queries that read them."""

    name = "decide"

    def __init__(self, seed: int):
        rng = random.Random(f"decide:{seed}")
        F, M2 = Factor("M", 1), Factor("M", 2)
        self.entries = {alg.name: alg for alg in (
            single("L", 3, 7), single("M", 2, 13), product([M2, F], 7),
            product([Factor("T", 2), Factor("L", 2)], 7))}
        self.requests = []
        for alg in self.entries.values():
            pats = itertools.cycle(alg.patterns)
            for op, count in QUERY_MIX:
                for _ in range(count):
                    pattern = next(pats)
                    elem = (alg.idempotent(rng, pattern, -1) if op == "monoid"
                            else alg.element(rng, pattern))
                    self.requests.append(Request(alg.name, op, (elem,)))
            # the classified idempotents e_I are only known once the report is built
            for i in range(alg.classes):
                self.requests.append(Request(alg.name, "idempotent", (i,)))

    def setup(self, workdir: str, mods) -> None:
        self.mods = mods
        self.sessions = {}
        self._classes = {}
        for name, alg in self.entries.items():
            a = mods.algebra.build_algebra(alg.doc())
            rep = mods.localization.localization_report(a)
            ts = mods.localization.two_sided_report(a)
            self.sessions[name] = (a, rep, ts)

    def execute(self, req: Request):
        loc = self.mods.localization
        a, rep, ts = self.sessions[req.row]
        if req.op == "idempotent":
            return loc.idempotent_denominator_check(a, rep.entries[req.args[0]].idempotent)
        x = a.element(req.args[0])
        if req.op == "powers":
            return loc.powers_denominator_criterion(a, x)
        if req.op == "classify":
            return loc.classify_element(a, x, rep)
        if req.op == "monoid":
            return loc.monoid_denominator_decision(a, [x])
        return ts.powers_criterion(x)

    def output_text(self, result) -> str:
        return ""

    def summary(self, result):
        """The verdict part of a query result, compared across repeats."""
        if isinstance(result, tuple):
            verdict, desc = result
            return verdict, desc.ass.space.basis if desc else None
        if isinstance(result, dict):
            return result["left_localizable"], result["completely"], result["witnesses"]
        if isinstance(result, bool):
            return result
        return result.left, result.right, result.twosided, result.central

    def _class_oracle(self, row: str, sub):
        """Brute-force check of {1, e_I} for a minimal class I, memoized."""
        key = (row, sub)
        if key not in self._classes:
            oracle = self.mods.oracle
            a, rep, _ = self.sessions[row]
            sset = oracle.FiniteSetOfElements.from_elements(a, [a.one, rep.entry(sub).idempotent])
            res = oracle.brute_denominator_check(a, sset, "left")
            self._classes[key] = (res.is_den, res.ass)
        return self._classes[key]

    def judge(self, req: Request, result) -> str:
        """Compare with the definitional oracle; untimed, once per distinct query."""
        oracle = self.mods.oracle
        a, rep, ts = self.sessions[req.row]

        def brute(gens, side):
            closure = oracle.monoid_closure(a, gens)
            if closure.contains_zero:
                return False, None
            res = oracle.brute_denominator_check(a, closure, side)
            return res.is_den, res.ass

        if req.op == "idempotent":
            e = rep.entries[req.args[0]].idempotent
            sset = oracle.FiniteSetOfElements.from_elements(a, [a.one, e])
            ok = all(oracle.brute_denominator_check(a, sset, side).is_den == getattr(result, attr)
                     for side, attr in (("left", "left"), ("right", "right"),
                                        ("twosided", "twosided")))
            return OK if ok else WRONG
        x = a.element(req.args[0])
        if req.op in ("powers", "monoid"):
            verdict, desc = result
            is_den, ass = brute([x], "left")
            ok = verdict == is_den and (not verdict or ass.space == desc.ass.space)
        elif req.op == "twosided_powers":
            ok = result == brute([x], "twosided")[0]
        else:
            # I is a witness iff x is a unit modulo the kernel ideal J of the
            # denominator set {1, e_I}: in a finite ring, iff xR + J = R
            xr = [[sum(x.coeffs[i] * a.table[i][j][k] for i in range(a.dim)) % a.p
                   for k in range(a.dim)] for j in range(a.dim)]
            witnesses = []
            for sub in rep.minima:
                is_den, ass = self._class_oracle(req.row, sub)
                if is_den and rank_mod_p(xr + [list(v) for v in ass.space.basis], a.p) == a.dim:
                    witnesses.append(sub)
            ok = (tuple(witnesses) == tuple(result["witnesses"])
                  and result["left_localizable"] == bool(witnesses))
        return OK if ok else WRONG


WORKLOADS = {
    "classify": classify,
    "decide": DecideWorkload,
    "oracle": oracle,
}


def digest_corpus() -> list[tuple[str, Algebra]]:
    """Fixed requests whose stdout must stay byte-identical; the sha256 of
    each is recorded in ``digests.json`` by ``record_digests.py``."""
    F, T, L, M = Factor("M", 1), Factor("T", 2), Factor("L", 2), Factor("M", 2)
    algs = [single("L", 4, 11), single("M", 4, 17), single("L", 3, 7), single("T", 6, 11),
            product([F] * 3, 11), product([F] * 4, 11), product([T] * 3, 13),
            product([L, F, M], 13), opposite("L", 4, 13),
            block_triangular([2, 1, 1], 13, random.Random(0))]
    return [(cmd, alg) for alg in algs for cmd in ("report", "dual", "twosided")]


def digest_key(cmd: str, alg: Algebra) -> str:
    return f"{cmd} {alg.name}"
