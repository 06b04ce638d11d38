"""wld benchmark: one seeded workload, timed in a closed loop.

Usage (from the repository root):

    python3 bench/run.py --workload obstruct --seed 1 --seconds 20 --trace 0

One process, one thread, one client: the next operation starts when the
previous one returns.  Set-up (import, seeded input generation, writing the
input files, warm-up) is repeated SETUP_REPS times, before and after the
timed phase, and reported as a median.  The timed phase cycles through the
workload's operations for ``--seconds`` seconds, each under the workload's
per-operation budget (SIGALRM, in-process), and times a fixed calibration
loop between operations.  A repeated answer must equal the case's first;
afterwards each first answer is checked against its reference.  Each case
counts once, with the median of its repetitions.

The end-to-end times are speed-normalized: each measured time is scaled by
CAL_REF_S over the calibration loop's mean time in the same run, so they
read as times on a machine where the loop takes CAL_REF_S.  On a shared
host the speed available to one process drifts by 10-30% over minutes;
the calibration loop slows down with it, the program's own changes do not
touch it.  The report prints the measured times and the scale beside the
normalized ones.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` takes the
workload's fixed trace set (its first TRACE_CASES operations, so per-layer
counts repeat for one seed), runs it untraced in whole passes for at least
half of ``--seconds``, then once more with every public ``wld`` function
wrapped, both under TRACE_BUDGET_FACTOR times the per-operation budget
(tracing slows an operation), and prints the per-layer metrics plus the
tracing overhead; the spans go to
``.bench_build/wld-bench/spans-<workload>-<seed>.tsv.gz``.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  ``attempted`` counts the workload's distinct operations (the
timed phase issues each at least once) and ``failed`` those that failed in
any repetition, so both are a function of the seed and the program, not of
how many repetitions fit into ``--seconds``.  Known defects (README.md) and
over-budget operations count as failed; only an unexplained wrong answer or
exception makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "wld-bench")
# set-up repetitions before and after the timed phase; sampling both sides
# keeps one slow stretch of a shared machine from setting the median
SETUP_REPS = (1, 2)
# the traced run's budget, as a multiple of the workload's: wrapping every
# public function slows an operation by up to about 1.4x
TRACE_BUDGET_FACTOR = 3
# the calibration loop runs between operations at most every CAL_EVERY_S;
# CAL_REF_S is its nominal time (about its mean on a 2-vCPU Xeon at
# 2.1 GHz, Python 3.11)
CAL_EVERY_S = 0.1
CAL_REF_S = 0.0025

sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

PER_LAYER = (
    ("algebra.laurent_det", "calls"), ("algebra.laurent_det", "self_s"),
    ("algebra.poly_gcd", "self_s"), ("algebra.ideal_mod", "self_s"),
    ("invariants.elementary_ideals", "self_s"),
    ("algebra.exact_div", "calls"), ("algebra.exact_div", "self_s"),
    ("algebra.snf", "calls"), ("algebra.snf", "self_s"),
    ("classify.obstruct_vn", "self_s"),
    ("invariants.hom_count", "self_s"),
    ("invariants.simplify_presentation", "self_s"),
    ("invariants.builtin_group", "total_s"),
    ("diagram.parse", "total_s"), ("diagram.serialize", "total_s"),
    ("diagram.crossing_arcs", "total_s"), ("diagram.linking_matrix", "total_s"),
    ("moves.find_sites", "calls"), ("moves.find_sites", "self_s"),
    ("moves.apply", "calls"), ("moves.apply", "errors"),
    ("diagram.canonical_key", "calls"), ("diagram.canonical_key", "self_s"),
    ("arrows.find_arrow_sites", "self_s"), ("arrows.apply_arrow_move", "self_s"),
    ("cli.main", "self_s"),
)
UNITS = {"calls": "count", "errors": "count", "self_s": "s", "total_s": "s"}


class OverBudget(BaseException):
    """Raised by SIGALRM inside an operation.  A BaseException, so no
    ``except Exception`` in the library can swallow it."""


def _alarm(_signum, _frame):
    raise OverBudget()


def import_wld():
    """Import wld afresh, so each set-up repetition pays for the import."""
    for name in [m for m in sys.modules if m == "wld" or m.startswith("wld.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in ("wld", "wld.cli"):
        importlib.import_module(name)


def setup(workload, seed, workdir):
    """One set-up repetition; returns (cases, seconds)."""
    start = time.perf_counter()
    import_wld()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cases = workloads.BUILDERS[workload](random.Random(seed), workdir)
    seen = set()
    for case in cases:       # warm-up: the first case of each operation type
        if case.kind not in seen:
            seen.add(case.kind)
            run_one(case.run, workloads.BUDGET_S[workload])
    return cases, time.perf_counter() - start


def calibration_loop():
    """Fixed pure-Python work, independent of ``wld``: small-integer
    arithmetic, dict updates with tuple keys and big-integer products, in
    about equal shares (a mix tracks the drift in both workloads' times
    better than any one of them)."""
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    counts = {}
    for i in range(3_000):
        key = (i % 101, i % 7)
        counts[key] = counts.get(key, 0) + 1
    left = [3 ** 40 + i for i in range(60)]
    right = [7 ** 30 - i for i in range(20)]
    prod = [0] * 80
    for _ in range(3):
        for i, x in enumerate(left):
            for j, y in enumerate(right):
                prod[i + j] += x * y
    return acc, len(counts), prod[0]


def run_one(run, budget):
    """(seconds, output, error) of one operation under the budget (0: none)."""
    signal.setitimer(signal.ITIMER_REAL, budget)
    start = time.perf_counter()
    try:
        out, err = run(), None
    except OverBudget:
        out, err = None, "over-budget"
    except Exception as exc:  # recorded as a failed operation
        out, err = None, f"exception: {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start, out, err


def timed_loop(cases, budget, answers, seconds=0.0, count=0, tracer=None, cal=None):
    """Closed loop over ``cases`` until at least ``seconds`` have passed and
    at least ``count`` operations have run.  Returns (records, elapsed); a
    record is (case index, seconds, error).  ``answers`` keeps each case's
    first answer; a later answer is compared with it and then dropped, so
    memory does not grow with the number of repetitions.  With a list
    ``cal``, the calibration loop's times are appended to it (outside the
    operations' times, inside ``elapsed``)."""
    records = []
    start = time.perf_counter()
    last_cal = -CAL_EVERY_S
    i = 0
    while i < count or time.perf_counter() - start < seconds:
        if cal is not None and time.perf_counter() - last_cal >= CAL_EVERY_S:
            last_cal = time.perf_counter()
            calibration_loop()
            cal.append(time.perf_counter() - last_cal)
        idx = i % len(cases)
        run = cases[idx].run
        if tracer is not None:
            run = lambda run=run, i=i: tracer.op(i, run)
        dt, out, err = run_one(run, budget)
        if err is None:
            if idx not in answers:
                answers[idx] = out
            elif out != answers[idx]:
                err = "answer differs between repetitions"
        records.append((idx, dt, err))
        i += 1
    return records, time.perf_counter() - start


def verify(cases, records, answers, budget):
    """Check every case's first answer against its reference.  Returns one
    result per record: None, or (kind, detail)."""
    verdict = {}
    for idx, out in answers.items():
        try:
            verdict[idx] = cases[idx].check(out)
        except Exception as exc:
            verdict[idx] = (workloads.WRONG, f"check raised {type(exc).__name__}: {exc}")
    results = []
    for idx, _dt, err in records:
        if err == "over-budget":
            results.append(("over-budget", f"no answer within {budget} s"))
        elif err is not None:
            results.append((workloads.WRONG, err))
        else:
            results.append(verdict[idx])
    return results


def failures_by_case(records, results):
    """case index -> [kind, detail, times, slowest seconds]"""
    failures = {}
    for (idx, dt, _err), result in zip(records, results):
        if result is not None:
            entry = failures.setdefault(idx, [result[0], result[1], 0, 0.0])
            entry[2] += 1
            entry[3] = max(entry[3], dt)
    return failures


def percentile_ms(latencies, q):
    return 1000.0 * statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]


def case_medians(records):
    """case index -> median seconds over its repetitions"""
    times = {}
    for idx, dt, _ in records:
        times.setdefault(idx, []).append(dt)
    return {idx: statistics.median(ts) for idx, ts in times.items()}


def report(workload, seed, cases, records, results, elapsed, budget, failures, scale):
    """Print the report.  Returns (ops_per_s, p50, p90) over the cases'
    median latencies, each multiplied by ``scale`` (speed normalization);
    ``failures`` are by case (failures_by_case)."""
    issued = len(records)
    medians = case_medians(records)
    attempted = len(medians)
    failed = len(failures)
    latencies = list(medians.values())
    raw = ((attempted - failed) / sum(latencies),
           percentile_ms(latencies, 50), percentile_ms(latencies, 90))
    ops_per_s, p50, p90 = raw[0] / scale, raw[1] * scale, raw[2] * scale
    beyond = sum(1 for dt in latencies if 1000.0 * dt > raw[2])
    print(f"workload {workload}, seed {seed}: {issued} operations issued over "
          f"{attempted} of {len(cases)} cases in {elapsed:.2f} s, "
          + (f"budget {budget} s per operation" if budget else "no budget"))
    print(f"  speed scale   {scale:12.4f}       (normalized = measured time x scale)")
    print(f"  ops_per_s     {ops_per_s:12.4f} op/s  ({attempted - failed} correct cases; "
          f"measured {raw[0]:.4f})")
    print(f"  op_p50_ms     {p50:12.4f} ms    (n={attempted} case medians; "
          f"measured {raw[1]:.4f})")
    print(f"  op_p90_ms     {p90:12.4f} ms    (n={attempted}, {beyond} beyond; "
          f"measured {raw[2]:.4f})")
    print(f"  failed_ratio  {failed / attempted:12.4f} fraction ({failed} of {attempted} "
          f"cases; {sum(1 for r in results if r is not None)} of {issued} issued operations)")
    by_kind = {}
    for idx, dt in medians.items():
        by_kind.setdefault(cases[idx].kind, []).append(1000.0 * dt)
    for kind, ms in sorted(by_kind.items()):
        print(f"  {kind:22s} n={len(ms):5d}  median {statistics.median(ms):10.3f} ms  "
              f"max {max(ms):10.3f} ms  total {sum(ms) / 1000.0:8.3f} s")
    for idx, (kind, detail, times, worst) in sorted(failures.items()):
        print(f"  failed {cases[idx].key} [{kind}] x{times}, {worst:.3f} s: "
              f"{cases[idx].label}: {detail}")
    return ops_per_s, p50, p90


def normalized_rate(records, results, cal):
    """Correct operations per second of operation time, speed-normalized
    with the calibration times ``cal`` taken among those operations."""
    correct = sum(1 for r in results if r is None)
    return correct / sum(dt for _, dt, _ in records) * statistics.mean(cal) / CAL_REF_S


def end_to_end(ops_per_s, p50, p90, setup_s, peak_rss_mb):
    return {"ops_per_s": {"value": ops_per_s, "unit": "op/s"},
            "op_p50_ms": {"value": p50, "unit": "ms"},
            "op_p90_ms": {"value": p90, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"}}


def per_layer(tracer, untraced, traced):
    table = tracer.layer_table()
    out = {}
    for name, field in PER_LAYER:
        row = table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
        out[f"{name}.{field}"] = {"value": row[field], "unit": UNITS[field]}
    out["invariants.simplify_presentation.gens_out"] = {
        "value": tracer.counts["invariants.simplify_presentation.gens_out"], "unit": "count"}
    out["moves.find_sites.sites"] = {
        "value": tracer.counts["moves.find_sites.sites"], "unit": "count"}
    apply_row = table.get("moves.apply", {"calls": 0, "errors": 0})
    out["moves.apply.useful_ratio"] = {
        "value": ((apply_row["calls"] - apply_row["errors"]) / apply_row["calls"]
                  if apply_row["calls"] else 0.0), "unit": "ratio"}
    out["trace.untraced_ops_per_s"] = {"value": untraced, "unit": "op/s"}
    out["trace.ops_per_s"] = {"value": traced, "unit": "op/s"}
    out["trace.overhead_ratio"] = {"value": untraced / traced if traced else 0.0,
                                   "unit": "ratio"}
    print("per-layer (traced phase): name calls self_s total_s errors")
    for name, row in table.items():
        print(f"  {name:40s} {row['calls']:9d} {row['self_s']:10.4f} "
              f"{row['total_s']:10.4f} {row['errors']:6d}")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wld", "__init__.py")):
        print(f"error: no wld sources under {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _alarm)
    budget = workloads.BUDGET_S[args.workload]
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    answers = {}
    cal = []
    try:
        setups = []
        for _ in range(SETUP_REPS[0]):
            cases, seconds = setup(args.workload, args.seed, workdir)
            setups.append(seconds)
        if not args.trace:
            # every case at least once, so attempted and failed do not
            # depend on the machine's speed
            records, elapsed = timed_loop(cases, budget, answers, seconds=args.seconds,
                                          count=len(cases), cal=cal)
            # before the check and the later set-ups, whose memory is the
            # benchmark's
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            traced = []
        else:
            # a fixed set of operations, so per-layer counts repeat for one
            # seed; untraced passes over it for the overhead comparison
            cases = cases[:workloads.TRACE_CASES[args.workload]]
            budget *= TRACE_BUDGET_FACTOR
            records, elapsed = [], 0.0
            while not records or elapsed < args.seconds / 2:    # whole passes
                more, seconds = timed_loop(cases, budget, answers, count=len(cases),
                                           cal=cal)
                records += more
                elapsed += seconds
            tracer = Tracer()
            tracer.install()
            try:
                traced_cal = []
                traced = timed_loop(cases, budget, answers, count=len(cases),
                                    tracer=tracer, cal=traced_cal)[0]
            finally:
                tracer.uninstall()
        results = verify(cases, records + traced, answers, budget)
        if not args.trace:
            for _ in range(SETUP_REPS[1]):
                setups.append(setup(args.workload, args.seed, workdir)[1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wrong = sum(1 for r in results if r is not None and r[0] == workloads.WRONG)
    # a case fails if any repetition, traced or not, failed
    failures = failures_by_case(records + traced, results)
    attempted, failed = len({r[0] for r in records}), len(failures)
    scale = CAL_REF_S / statistics.mean(cal)
    ops_per_s, p50, p90 = report(args.workload, args.seed, cases, records,
                                 results[:len(records)], elapsed, budget, failures, scale)
    if args.trace:
        # each side normalized by its own calibration samples: the traced
        # pass runs once, a few seconds long
        untraced = normalized_rate(records, results[:len(records)], cal)
        traced_rate = normalized_rate(traced, results[len(records):], traced_cal)
        unfinished = sum(1 for r in traced if r[2] is not None)
        metrics = per_layer(tracer, untraced, traced_rate)
        print(f"trace overhead: {untraced:.4f} op/s untraced, "
              f"{traced_rate:.4f} op/s traced (normalized), ratio "
              f"{metrics['trace.overhead_ratio']['value']:.3f}; "
              f"{len(traced) - unfinished} of {len(traced)} traced operations returned")
        os.makedirs(WORK, exist_ok=True)
        path = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.tsv.gz")
        print(f"spans: {tracer.write_spans(path)} written to {path}")
    else:
        print(f"  setup_s       {scale * statistics.median(setups):12.4f} s     "
              f"(median of {len(setups)}; measured {statistics.median(setups):.4f})")
        metrics = end_to_end(ops_per_s, p50, p90, scale * statistics.median(setups),
                             peak_rss_mb)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
