"""Spans and counters around artinloc's layers, installed from outside.

``Tracer.install`` wraps the public functions of each module (``cli``,
``algebra``, ``linalg``, ``structure``, ``localization``, ``oracle``,
``suite``) and a few methods, and rebinds every reference an artinloc
module holds to them, including names imported with ``from ... import``.
``uninstall`` puts the originals back, so untraced runs execute the
program unchanged.

A span records name, start, end, parent span and request.  The hot leaves
(``LEAVES``) are called up to millions of times per pass; they keep only a
call count and total time, and their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "algebra", "linalg", "structure", "localization", "oracle", "suite")

LEAVES = {
    "algebra.Algebra.mul_coeffs", "algebra.Ideal", "algebra.regular_matrix",
    "algebra.left_matrix", "algebra.right_matrix",
    "linalg.kernel", "linalg.Subspace.from_vectors", "linalg.batch_rank",
    "linalg.inv_mod", "linalg.express_in_rows", "linalg.solve_row", "linalg.rref",
    "linalg.vectors_to_indices", "linalg.batch_member_mask", "localization.subset_str",
}

# (layer, class or None, attribute, traced name) beyond the public functions
EXTRA = (
    ("algebra", "Algebra", "mul_coeffs", "algebra.Algebra.mul_coeffs"),
    ("algebra", "Ideal", "__init__", "algebra.Ideal"),
    ("linalg", "Subspace", "from_vectors", "linalg.Subspace.from_vectors"),
    ("localization", "TwoSidedReport", "powers_criterion", "localization.TwoSidedReport.powers_criterion"),
    # one call per block subset tested for triangularity
    ("localization", None, "_is_left_triangular", "localization._is_left_triangular"),
)

# functions whose result object is cached on the algebra: a call that hands
# back an object already seen is a cache hit
CACHED = ("structure.radical", "structure.block_decomposition", "localization.localization_report")


def _sizes(name, args, kwargs, out) -> dict | None:
    if name == "localization.left_triangular_idempotents":
        return {"classes": len(out.entries)}
    if name == "oracle.monoid_closure":
        return {"members": len(out)}
    if name == "oracle.brute_denominator_check":
        return {"members": len(args[1] if len(args) > 1 else kwargs["S"])}
    if name == "linalg.all_vectors":
        return {"rows": len(out)}
    if name == "suite.run_invariants":
        return {"checks_failed": sum(not r.ok for r in out),
                "checks_skipped": sum(r.ok and r.detail.startswith("skipped") for r in out)}
    return None


class Tracer:
    def __init__(self, guard_error: type):
        self.guard_error = guard_error
        self.spans: list[list] = []        # [name, start, end, parent, request, sizes, child_s]
        self.stack: list[int] = []
        self.request = None
        self.leaf_calls: Counter = Counter()
        self.leaf_s: defaultdict = defaultdict(float)
        self.leaf_rows: Counter = Counter()
        self.guard_refusals = 0
        self._raised: list[BaseException] = []
        self._results: defaultdict = defaultdict(dict)
        self._patches: list[tuple] = []

    # -- wrappers -------------------------------------------------------------
    def _span(self, name: str, fn):
        spans, stack, perf = self.spans, self.stack, time.perf_counter
        cached = name in CACHED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.request, None, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            start = perf()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if isinstance(exc, self.guard_error) and not any(e is exc for e in self._raised):
                    self._raised.append(exc)
                    self.guard_refusals += 1
                raise
            finally:
                end = perf()
                stack.pop()
                rec[1], rec[2] = start, end
                if parent >= 0:
                    spans[parent][6] += end - start
            if cached:
                seen = self._results[name]
                sizes = {"cache_hits": int(id(out) in seen)}
                seen[id(out)] = out
            else:
                sizes = _sizes(name, args, kwargs, out)
            if sizes:
                rec[5] = {**sizes, **rec[5]} if rec[5] else sizes
            return out
        return wrapper

    def _leaf(self, name: str, fn):
        calls, total, perf = self.leaf_calls, self.leaf_s, time.perf_counter
        if name == "linalg.batch_rank":
            rows = self.leaf_rows

            @functools.wraps(fn)
            def wrapper(mats, *args, **kwargs):
                rows[name] += len(mats)
                start = perf()
                try:
                    return fn(mats, *args, **kwargs)
                finally:
                    calls[name] += 1
                    total[name] += perf() - start
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                calls[name] += 1
                total[name] += perf() - start
        return wrapper

    def _scan_counter(self, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == "localization.left_triangular_idempotents":
                rec = spans[stack[-1]]
                rec[5] = rec[5] or {}
                rec[5]["subsets_scanned"] = rec[5].get("subsets_scanned", 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap(self, name: str, fn):
        if name == "localization._is_left_triangular":
            return self._scan_counter(fn)
        return self._leaf(name, fn) if name in LEAVES else self._span(name, fn)

    # -- installation -----------------------------------------------------------
    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"artinloc.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for layer, cls_name, attr, name in EXTRA:
            mod = sys.modules[f"artinloc.{layer}"]
            if cls_name is None:
                if hasattr(mod, attr):
                    fn = getattr(mod, attr)
                    wrapped[id(fn)] = self._wrap(name, fn)
                continue
            cls = getattr(mod, cls_name)
            raw = cls.__dict__.get(attr)
            if raw is None:
                continue
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            new = self._wrap(name, fn)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, staticmethod(new) if isinstance(raw, staticmethod) else new)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "artinloc" or mod_name.startswith("artinloc.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------
    def leaf_snapshot(self) -> tuple[dict, dict]:
        return dict(self.leaf_calls), dict(self.leaf_s)

    def by_name(self, requests=None) -> dict:
        """Per span name: calls, self_s and summed sizes, over the given
        requests (all when None)."""
        out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for name, start, end, _parent, req, sizes, child_s in self.spans:
            if requests is not None and req not in requests:
                continue
            agg = out[name]
            agg["calls"] += 1
            agg["self_s"] += end - start - child_s
            for key, value in (sizes or {}).items():
                agg[key] = agg.get(key, 0) + value
        return out

    def closure_members_under(self, parent_name: str) -> int:
        return sum((rec[5] or {}).get("members", 0) for rec in self.spans
                   if rec[0] == "oracle.monoid_closure" and rec[3] >= 0
                   and self.spans[rec[3]][0] == parent_name)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, req, sizes, _child) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": req, "sizes": sizes}) + "\n")
