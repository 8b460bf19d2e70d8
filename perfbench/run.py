#!/usr/bin/env python3
"""artinloc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads are defined in ``workloads.py`` and described in
``README.md``.  Each run is one process, a closed loop with one client and
no extra threads:

1. set-up, repeated ``SETUP_ROUNDS`` times, reporting the median: import
   ``artinloc`` in a fresh interpreter, generate the seeded corpus, write
   the input files, and (``decide``) build the session reports;
2. the timed loop: whole passes over the corpus, in one shuffled order,
   until the next pass would end further from ``--seconds`` than stopping
   now.  Throughput is requests per second of the loop, the latency
   percentiles are over all timed requests.  A calibration probe, timed
   between requests, states the timing metrics at a reference machine
   speed (see ``REFERENCE_PROBE_S``);
3. the checks: every distinct request's answer, untimed, and every
   repeat's answer against the first;
4. with ``--trace 1``, one more pass with spans around each layer
   (``spans.py``), then the byte-identity check of ``digests.json``.

The last line of stdout is the JSON result.  The lines before it give each
metric with its unit and sample count, and one ``row`` line per corpus
entry.  Spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from collections import Counter, defaultdict

from spans import Tracer
from workloads import FAILED, WORKLOADS, WRONG, digest_corpus, digest_key, run_cli

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_ROUNDS = 7

# Calibration.  The shared machine this benchmark was sized on moves between
# speed states up to 40% apart, lasting from seconds to minutes, in wall and
# process CPU time alike, and no run length averages that out.  A fixed
# pure-Python loop (the probe) is timed before every set-up round and every
# PROBE_EVERY_S of the timed loop, outside any request and outside the loop
# time.  The timing metrics are stated at the reference speed: multiplied
# (rates divided) by REFERENCE_PROBE_S over the run's median probe time.
# Unscaled values are printed as raw_*.
PROBE_ITERATIONS = 20_000
PROBE_EVERY_S = 0.1
REFERENCE_PROBE_S = 1.4e-3  # the probe on an unloaded 2.1 GHz Xeon vCPU, CPython 3.11


def load_program():
    if not os.path.isfile(os.path.join(SRC, "artinloc", "__init__.py")):
        sys.exit(f"benchmark: no artinloc sources under {SRC}")
    sys.path.insert(0, SRC)
    import artinloc
    from artinloc import algebra, cli, linalg, localization, oracle
    if not os.path.abspath(artinloc.__file__).startswith(SRC + os.sep):
        sys.exit(f"benchmark: artinloc was imported from {artinloc.__file__}, not {SRC}")
    return types.SimpleNamespace(cli=cli, algebra=algebra, linalg=linalg,
                                 localization=localization, oracle=oracle)


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's speed now."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(PROBE_ITERATIONS):
        acc += k * k % 7
    return time.perf_counter() - t0


def set_up(name: str, seed: int, mods, workdir: str, probes: list[float]):
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_ROUNDS):
        probes.append(probe())
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import artinloc"], env=env, cwd=ROOT, check=True)
        workload = WORKLOADS[name](seed)
        workload.setup(workdir, mods)
        times.append(time.perf_counter() - start)
    return workload, times


class Ledger:
    """Per request index: the first answer, and whether a repeat differed."""

    def __init__(self, workload):
        self.workload = workload
        self.first: dict[int, object] = {}
        self.summary: dict[int, object] = {}

    def record(self, i: int, result) -> bool:
        """Keep the first answer; return True when a repeat differs from it."""
        summary = (("raised", type(result).__name__) if isinstance(result, Exception)
                   else self.workload.summary(result))
        if i not in self.first:
            self.first[i], self.summary[i] = result, summary
            return False
        return summary != self.summary[i]


def execute(workload, req):
    try:
        return workload.execute(req)
    except Exception as exc:  # noqa: BLE001 - a request that raises is counted as failed
        return exc


def timed_loop(workload, seconds: float, ledger: Ledger, probes: list[float]):
    n = len(workload.requests)
    # one shuffled order, the same for every seed and pass: which requests
    # follow each other decides how much freed memory is reused, and so the
    # peak RSS
    order = random.Random(f"order:{workload.name}").sample(range(n), n)
    samples = []            # (request index, latency in s, differs from first answer)
    perf = time.perf_counter
    start = perf()
    passes = 0
    probe_s = 0.0
    next_probe = start
    while True:
        for i in order:
            if perf() >= next_probe:
                probes.append(probe())
                probe_s += probes[-1]
                next_probe = perf() + PROBE_EVERY_S
            t0 = perf()
            result = execute(workload, workload.requests[i])
            t1 = perf()
            samples.append((i, t1 - t0, ledger.record(i, result)))
        passes += 1
        elapsed = perf() - start
        if elapsed + elapsed / passes / 2 > seconds:
            return samples, elapsed - probe_s, passes


def traced_pass(workload, mods, ledger: Ledger):
    tracer = Tracer(mods.linalg.ResourceGuardError)
    latencies, leaves, outputs = [], [], []
    perf = time.perf_counter
    tracer.install()
    try:
        for i, req in enumerate(workload.requests):
            tracer.request = i
            calls0, secs0 = tracer.leaf_snapshot()
            t0 = perf()
            result = execute(workload, req)
            t1 = perf()
            calls1, secs1 = tracer.leaf_snapshot()
            latencies.append(t1 - t0)
            leaves.append({k: (calls1[k] - calls0.get(k, 0), secs1[k] - secs0.get(k, 0.0))
                           for k in calls1 if calls1[k] != calls0.get(k, 0)})
            outputs.append((i, result, ledger.record(i, result)))
    finally:
        tracer.uninstall()
    return tracer, latencies, leaves, outputs


def digest_mismatches(mods, workdir: str) -> int:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    mismatches = 0
    for k, (cmd, alg) in enumerate(digest_corpus()):
        path = os.path.join(workdir, f"digest-{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(alg.doc(), fh)
        _code, text = run_cli(mods.cli, [cmd, "--input", path])
        if hashlib.sha256(text.encode()).hexdigest() != recorded.get(digest_key(cmd, alg)):
            mismatches += 1
    return mismatches


# Per-layer metrics: span name -> stats summed over the traced pass
SPAN_STATS = {
    "localization.left_triangular_idempotents": ("calls", "self_s", "subsets_scanned", "classes"),
    "localization.localization_report": ("self_s", "cache_hits"),
    "algebra.ideal_combine": ("calls", "self_s"),
    "structure.radical": ("self_s", "cache_hits"),
    "structure.block_decomposition": ("self_s", "cache_hits"),
    "oracle.monoid_closure": ("self_s", "members"),
    "oracle.brute_denominator_check": ("self_s", "members"),
    **{name: ("self_s",) for name in (
        "algebra.build_algebra", "algebra.quotient_algebra", "algebra.opposite_algebra",
        "localization.duality_report", "localization.two_sided_report",
        "localization.powers_denominator_criterion", "localization.associated_idempotent",
        "localization.monoid_denominator_decision", "localization.classify_element",
        "localization.idempotent_denominator_check", "oracle.brute_radical",
        "oracle.brute_idempotents", "suite.run_invariants", "suite.powers_agreement",
        "suite.bundle_conditions", "cli.main", "cli.parse_input")},
}
# leaf name -> stats (calls and total seconds only)
LEAF_STATS = {
    "algebra.Ideal": ("calls", "total_s"),
    "linalg.kernel": ("calls", "total_s"),
    "linalg.Subspace.from_vectors": ("calls", "total_s"),
    "algebra.Algebra.mul_coeffs": ("calls",),
    "linalg.batch_rank": ("total_s",),
}


def per_layer_metrics(tracer, output_bytes: int, digest_misses: int, overhead: float) -> dict:
    agg = tracer.by_name()
    values = {}
    for name, stats in SPAN_STATS.items():
        for stat in stats:
            values[f"{name}.{stat}"] = (agg.get(name, {}).get(stat, 0), "s" if stat == "self_s" else "count")
    for name, stats in LEAF_STATS.items():
        for stat in stats:
            values[f"{name}.{stat}"] = ((tracer.leaf_calls[name], "count") if stat == "calls"
                                        else (tracer.leaf_s[name], "s"))
    lti = "localization.left_triangular_idempotents"
    scanned = values[f"{lti}.subsets_scanned"][0]
    run_invariants = agg.get("suite.run_invariants", {})
    values.update({
        f"{lti}.useful_ratio": (values[f"{lti}.classes"][0] / scanned if scanned else 0.0, "ratio"),
        "localization.monoid_denominator_decision.closure_members":
            (tracer.closure_members_under("localization.monoid_denominator_decision"), "count"),
        "oracle.elements_enumerated": (agg.get("linalg.all_vectors", {}).get("rows", 0), "count"),
        "oracle.guard_refusals": (tracer.guard_refusals, "count"),
        "linalg.batch_rank.rows": (tracer.leaf_rows["linalg.batch_rank"], "count"),
        "suite.checks_skipped": (run_invariants.get("checks_skipped", 0), "count"),
        "suite.checks_failed": (run_invariants.get("checks_failed", 0), "count"),
        "cli.output_bytes": (output_bytes, "bytes"),
        "cli.output_digest_mismatches": (digest_misses, "count"),
        "trace_overhead": (overhead, "ratio"),
    })
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    mods = load_program()
    if args.workload not in WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        probes = []
        workload, setup_times = set_up(args.workload, args.seed, mods, workdir, probes)
        ledger = Ledger(workload)
        samples, loop_s, passes = timed_loop(workload, args.seconds, ledger, probes)
        if args.trace:
            tracer, traced_lat, traced_leaves, traced_out = traced_pass(workload, mods, ledger)
            digest_misses = digest_mismatches(mods, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # -- checks (untimed) ------------------------------------------------------
    verdicts = {i: FAILED if isinstance(res, Exception) else workload.judge(workload.requests[i], res)
                for i, res in ledger.first.items()}
    checked = [(i, differs) for i, _lat, differs in samples]
    if args.trace:
        checked += [(i, differs) for i, _res, differs in traced_out]
    outcome = Counter()
    row_failed = Counter()
    for i, differs in checked:
        verdict = WRONG if differs else verdicts[i]
        outcome[verdict] += 1
        if verdict in (FAILED, WRONG):
            row_failed[workload.requests[i].row] += 1
    attempted = len(checked)
    failed = outcome[FAILED] + outcome[WRONG]

    # -- end-to-end metrics ------------------------------------------------------
    latencies = [lat for _i, lat, _d in samples]
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    raw = {
        "throughput_rps": (len(samples) / loop_s, "1/s", len(samples)),
        "latency_p50_ms": (cuts[49] * 1e3, "ms", len(samples)),
        "latency_p90_ms": (cuts[89] * 1e3, "ms", len(samples)),
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
    }
    speed = REFERENCE_PROBE_S / statistics.median(probes)
    end_to_end = {name: (value / speed if unit == "1/s" else value * speed, unit, n)
                  for name, (value, unit, n) in raw.items()}
    end_to_end["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
    end_to_end["failed_share"] = (failed / attempted, "share", attempted)
    print(f"workload {args.workload} seed {args.seed}: {len(samples)} timed requests in "
          f"{passes} passes of {len(workload.requests)}, {loop_s:.2f} s; outcomes {dict(outcome)}")
    print(f"metric machine_speed {speed:.6g} ratio (n={len(probes)} probes)")
    for name, (value, unit, n) in raw.items():
        print(f"metric raw_{name} {value:.6g} {unit} (n={n})")
    for name, (value, unit, n) in end_to_end.items():
        print(f"metric {name} {value:.6g} {unit} (n={n})")

    # -- rows ------------------------------------------------------------------
    by_row = defaultdict(lambda: defaultdict(list))
    for i, lat, _d in samples:
        req = workload.requests[i]
        by_row[req.row][req.op].append(lat)
    rows = {row: {"row": row, "workload": args.workload,
                  "requests": sum(len(lats) for lats in ops.values()),
                  "median_ms": {op: statistics.median(lats) * 1e3 for op, lats in sorted(ops.items())},
                  "failed": row_failed[row]}
            for row, ops in by_row.items()}

    if args.trace:
        median_by_req = defaultdict(list)
        for i, lat, _d in samples:
            median_by_req[i].append(lat)
        untraced = sum(statistics.median(median_by_req[i]) for i in range(len(traced_lat)))
        overhead = 1 - untraced / sum(traced_lat)
        output_bytes = sum(len(workload.output_text(res)) for _i, res, _d in traced_out
                           if not isinstance(res, Exception))
        layer = per_layer_metrics(tracer, output_bytes, digest_misses, overhead)
        for row, info in rows.items():
            reqs = {i for i, req in enumerate(workload.requests) if req.row == row}
            agg = tracer.by_name(reqs)
            info["traced_s"] = sum(traced_lat[i] for i in reqs)
            info["self_s"] = {name: round(v["self_s"], 6) for name, v in sorted(agg.items())}
            info["leaf_total_s"] = {name: round(sum(traced_leaves[i].get(name, (0, 0.0))[1] for i in reqs), 6)
                                    for name in sorted(tracer.leaf_calls)}
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        for name, (value, unit) in layer.items():
            print(f"metric {name} {value:.6g} {unit}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _n) in end_to_end.items() if name != "failed_share"}
    for info in rows.values():
        print("row " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": outcome[WRONG] == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
