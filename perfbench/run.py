"""nfaindex benchmark: one workload, end-to-end metrics or per-layer trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analyze-random --seed 1 --seconds 25 --trace 0

Workloads: analyze-random, quotient-chains, certify-tries (BENCHMARK.json
says why each exists).  The run

1. times ``import nfaindex, nfaindex.cli`` in fresh interpreters (setup_s);
2. imports nfaindex into this process, single-threaded, and runs one warm-up
   block and the ``analyze --oracle`` gate, then whole blocks of the
   workload's operations in a closed loop for ``--seconds``, checking every
   operation's exit code and output against its reference and its stored
   output digest (loop.py, workloads.py);
3. prints every end-to-end metric with its unit and sample count.

Times are in reference seconds: each measured time is scaled by the
calibration unit of calib.py, run just before and after it, because the
shared machines this runs on change speed by up to 2x within minutes.  The
measured figures are printed too.  op_s.tail is the workload's fixed tail
percentile (workloads.TAIL_PERCENTILE); the run prints how many operations
lie beyond it.

With ``--trace 1`` the run spends half its time untraced, reruns the same
blocks with spans and one block with call counters; the per-layer table
follows the end-to-end figures of the untraced half, and the last line
holds the per-layer metrics.  Spans go to
``.perfbench/spans-<workload>-s<seed>.json``.

The last line is always one JSON object: correct, attempted, failed and
metrics.  ``correct`` is false when any operation of any pass (warm-up,
oracle gate, timed, traced, counting) fails other than a listed known
defect, or when a span falls outside every operation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One thread everywhere, set before numpy is first imported.
os.environ.pop("NFA_INDEX_THREADS", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 9
DEADLINE_S = 170
# Functions whose span time is fitted against their input size.
FITTED = ("fs_partition.coarsest_fs_partition", "colex.max_colex_relation", "relations.width")

SETUP_CAL_RUNS = 5
# Times the cold import, then calibrates the same interpreter.
SETUP_CODE = f"""
import sys, time
t = time.perf_counter()
import nfaindex, nfaindex.cli
dt = time.perf_counter() - t
sys.path.insert(0, {HERE!r})
import calib
print(dt, *(calib.calibrate() for _ in range({SETUP_CAL_RUNS})))
"""


def measure_setup() -> tuple[list[float], list[float]]:
    """Cold-import times of fresh interpreters: in reference and in measured seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    ref, raw = [], []
    for _ in range(SETUP_RUNS):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        dt, *cals = (float(x) for x in out.stdout.split())
        raw.append(dt)
        ref.append(dt * calib.CAL_REF_S / statistics.median(cals))
    return ref, raw


def quantile(sorted_vals: list[float], pct: float) -> float:
    pos = pct / 100 * (len(sorted_vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def problems_of(name: str, loop) -> list[str]:
    return [f"{name} {label}: {count} failed, {why}"
            for label, (count, why) in loop.problems.items()]


def end_to_end(workload: str, timed, setup: list[float], maxrss_kb: int) -> tuple[dict, dict]:
    """End-to-end metrics, times in reference seconds, and a note on each."""
    times = sorted(calib.reference_times(timed.times, timed.cals))
    n = len(times)
    pct = workloads.TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (quantile(times, pct), "s"),
        "ops_per_s": (n / sum(times), "1/s"),
        "peak_rss_mb": (maxrss_kb / 1024, "MB"),
        "ok_ratio": ((n - timed.failed) / n, "ratio"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "op_s.p50": f"median of {n} operations",
        "op_s.tail": f"p{pct:g} of {n} operations, {n * (100 - pct) / 100:g} beyond it",
        "ops_per_s": f"{n} operations over their busy time",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
        "ok_ratio": f"{n - timed.failed} of {n} operations correct",
    }
    return metrics, notes


def fit_exponent(points: list[tuple[str, int, float]]) -> float:
    """Slope of log(median time) against log(size), within families of like inputs.

    ``points`` are (operation family, input size, seconds).  Each family is
    centred on its own means, so that a cheap family of large inputs does not
    pass for a small exponent; 0 when no family has two distinct sizes.
    """
    cells: dict[tuple[str, int], list[float]] = {}
    for fam, size, dt in points:
        if size > 0 and dt > 0:
            cells.setdefault((fam, size), []).append(dt)
    fams: dict[str, list[tuple[float, float]]] = {}
    for (fam, size), dts in cells.items():
        fams.setdefault(fam, []).append((math.log(size), math.log(statistics.median(dts))))
    sxy = sxx = 0.0
    for xy in fams.values():
        mx = statistics.fmean(x for x, _ in xy)
        my = statistics.fmean(y for _, y in xy)
        sxy += sum((x - mx) * (y - my) for x, y in xy)
        sxx += sum((x - mx) ** 2 for x, _ in xy)
    return sxy / sxx if sxx else 0.0


def per_layer(plain, traced, spans: list[list], counts: dict,
              n_counted: int) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced and counting passes, plus a table.

    ``spans`` are the traced pass's spans, each with its self time appended.
    Self times are per traced operation; call counts per counted operation.
    """
    n_traced = len(traced.times)
    ref_times = calib.reference_times(traced.times, traced.cals)
    scale = [r / t for r, t in zip(ref_times, traced.times)]  # per traced operation
    busy = sum(ref_times)
    calls = counts["calls"]

    self_s = {name: 0.0 for name in layertrace.TRACED}
    points: dict[str, list] = {name: [] for name in FITTED}
    errors = {layer: 0 for layer in layertrace.LAYERS}
    for name, start, end, _parent, op, size, err, own in spans:
        self_s[name] += own * scale[op]
        if name in points:
            points[name].append((workloads.family(traced.labels[op]), size,
                                 (end - start) * scale[op]))
        if err:
            errors[name.split(".")[0]] += 1
    layer_self = {layer: 0.0 for layer in layertrace.LAYERS}
    for name, s in self_s.items():
        layer_self[name.split(".")[0]] += s

    m: dict[str, tuple[float, str]] = {}
    for name in layertrace.TRACED:
        m[f"{name}.self_s"] = (self_s[name] / n_traced, "s/op")
    for name in layertrace.REPORTED_CALLS:
        m[f"{name}.calls"] = (calls.get(name, 0) / n_counted, "1/op")
    for name in FITTED:
        m[f"{name}.size_exponent"] = (fit_exponent(points[name]), "1")
    witness = calls.get("relations.transitivity_witness", 0)
    distinct = counts["witness_relations"]
    m["relations.transitivity_witness.repeat_ratio"] = (witness / distinct if distinct else 0.0,
                                                        "ratio")
    m["relations.dense_cells"] = (counts["dense_cells"] / n_counted, "cells/op")
    m["cli.output_bytes"] = (traced.out_bytes / n_traced, "B/op")
    for layer in layertrace.LAYERS:
        m[f"{layer}.self_share"] = (layer_self[layer] / busy, "ratio")
        m[f"{layer}.errors"] = (errors[layer], "count")
    m["trace.overhead_ratio"] = (busy / sum(calib.reference_times(plain.times, plain.cals)),
                                 "ratio")
    # Self times add up to the time of the outermost spans; this is their
    # share of the measured time of the traced operations.
    m["trace.coverage_ratio"] = (sum(s[7] for s in spans) / sum(traced.times), "ratio")

    table = [f"per-layer self time in reference seconds over {n_traced} traced operations "
             f"({traced.blocks} blocks, {busy:.3f} s busy; "
             f"overhead ratio {m['trace.overhead_ratio'][0]:.3f}):",
             f"  {'layer':<14}{'self s/op':>12}{'share':>8}{'errors':>8}"]
    for layer in layertrace.LAYERS:
        table.append(f"  {layer:<14}{layer_self[layer] / n_traced:>12.6f}"
                     f"{layer_self[layer] / busy:>8.1%}{errors[layer]:>8}")
    table.append(f"  {'sum':<14}{sum(layer_self.values()) / n_traced:>12.6f}"
                 f"{sum(layer_self.values()) / busy:>8.1%}"
                 f"  (spans cover {m['trace.coverage_ratio'][0]:.1%} of measured op time)")
    table.append(f"  {'function':<44}{'self s/op':>12}{'calls/op':>12}"
                 f"  (calls over {n_counted} counted operations)")
    for name in layertrace.TRACED:
        table.append(f"  {name:<44}{self_s[name] / n_traced:>12.6f}"
                     f"{calls.get(name, 0) / n_counted:>12.2f}")
    for name in layertrace.COUNTED:
        table.append(f"  {name:<44}{'':>12}{calls.get(name, 0) / n_counted:>12.2f}")
    return m, table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join("src", "nfaindex", "cli.py")):
        print("error: run from the root of an nfaindex checkout "
              "(src/nfaindex/cli.py not found)", file=sys.stderr)
        return 2
    digests = workloads.load_digests()
    if (len(digests.get(args.workload, ())) != workloads.POOL_BLOCKS
            or workloads.ORACLE not in digests):
        print(f"error: {workloads.DIGESTS} lacks the digests of {args.workload}", file=sys.stderr)
        return 1

    setup, setup_raw = measure_setup()
    sys.path.insert(0, os.path.abspath("src"))
    from loop import Loop, Overrun

    work = os.path.join(".perfbench", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    order = workloads.pool_order(args.seed)

    def new_loop(name: str) -> Loop:
        return Loop(args.workload, order, digests, os.path.join(work, name), deadline)

    passes = []  # (name, loop): every pass's failures count against correct
    try:
        warm = new_loop("warm")
        warm.block(0)
        oracle = new_loop("oracle")
        oracle.run_ops(workloads.build_oracle(os.path.join(work, "oracle"),
                                              digests[workloads.ORACLE]))
        timed = new_loop("run")
        timed.run_for(args.seconds / 2 if args.trace else args.seconds)
        passes += [("warm-up", warm), ("oracle", oracle), ("timed", timed)]
        if args.trace:
            traced = new_loop("traced")
            with layertrace.Spans() as tracer:
                for index in range(timed.blocks):
                    traced.block(index, on_op=lambda i: setattr(tracer, "op_id", i))
            own = tracer.self_times()
            spans = [s + [own[k]] for k, s in enumerate(tracer.spans)]
            counting = new_loop("counted")
            with layertrace.Counts() as counter:
                counting.block(0)
                counts = counter.snapshot()
            passes += [("traced", traced), ("counting", counting)]
    except Overrun:
        print(f"error: the run did not finish within {DEADLINE_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    problems = [p for name, loop in passes for p in problems_of(name, loop)]
    metrics, notes = end_to_end(args.workload, timed, setup, maxrss_kb)
    n = len(timed.times)

    print(f"workload {args.workload}, seed {args.seed}: {timed.blocks} blocks, "
          f"{n} timed operations" + (" (untraced half)" if args.trace else ""))
    raw_times = sorted(timed.times)
    print(f"  times in reference seconds (calib.py); measured: setup "
          f"{statistics.median(setup_raw):.6f} s, op p50 {statistics.median(raw_times):.6f} s, "
          f"{n / sum(raw_times):.4f} ops/s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:>12.6f} {unit:<6} {notes[name]}")
    print(f"  {'failed_ratio':<12} {timed.failed / n:>12.6f} {'ratio':<6} "
          f"{timed.failed} of {n} operations failed")
    for label, (count, why) in timed.defects.items():
        print(f"  known defect, {count} failed: {label}: {why}")

    if args.trace:
        stray = sum(1 for s in spans if s[4] < 0 or s[2] == 0.0)
        if stray:
            problems.append(f"trace: {stray} spans outside every operation or never closed")
        metrics, table = per_layer(timed, traced, spans, counts, len(counting.times))
        print("\n".join(table))
        spans_path = os.path.join(".perfbench", f"spans-{args.workload}-s{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "size",
                                  "error", "self_s"], "spans": spans}, fh)
        print(f"spans written to {spans_path}")
    for p in problems:
        print(f"  INCORRECT: {p}")

    print(json.dumps({
        "correct": not problems,
        "attempted": n,
        "failed": timed.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
