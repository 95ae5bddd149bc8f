#!/usr/bin/env python3
"""Benchmark of the ghzpolytope package, run from the root of a source checkout.

    python3 perfbench/run.py --workload mc_regions --seed 1 --seconds 15 --trace 0

Workloads (closed loop, one caller): mc_regions, mc_wide, classify_states,
cli_report, or ``all`` to run the four in turn in this one process. Inputs
come from --seed; every output is checked. Each workload first measures
``setup_s`` in fresh interpreters, runs its out-of-band checks, then runs
rounds (passes over its mix) for --seconds. With --trace 0 it prints the
end-to-end metrics; with --trace 1 it alternates untraced and traced rounds
and prints the per-layer metrics and the tracing overhead. The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_RUNS = 7

# each set-up interpreter: import numpy, then the package, then the workload's first call
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy
t1 = time.perf_counter()
import ghzpolytope
t2 = time.perf_counter()
exec(sys.argv[2])
t3 = time.perf_counter()
print(json.dumps({"numpy_s": t1 - t0, "ghzpolytope_s": t2 - t1, "first_call_s": t3 - t2}))
"""

END_TO_END = [
    ("setup_s", "s"),
    ("invocations_per_ref", "1/ref"),
    ("invocation_p50_ref", "ref"),
    ("peak_rss_mb", "MB"),
]
REFERENCE_SEED = 20210415


def _reference_block(rows):
    block = np.random.default_rng(REFERENCE_SEED).standard_exponential((rows, 64))
    return int(np.count_nonzero(block / block.sum(axis=1, keepdims=True) > 1 / 64))


def reference_seconds(rows, threads=1, pool=None):
    """Best of three timings of a fixed NumPy task that runs no package code:
    draw a rows x 64 block of exponentials, normalise its rows, count the
    entries above 1/64; with more threads, on ``pool``, each draws one block.

    The shared host this benchmark was tuned on changed speed by up to 1.6x
    over minutes. Call times divided by this task's time, taken right after
    each round, move with the package and much less with the host."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        if threads == 1:
            _reference_block(rows)
        else:
            list(pool.map(_reference_block, [rows] * threads))
        best = min(best, perf_counter() - start)
    return best


def measure_setup(first_call):
    """Median wall time of fresh interpreter -> import -> first call, and the
    median import times the interpreters report."""
    walls, reports = [], []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        child = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), first_call],
                               cwd=ROOT, capture_output=True, text=True, timeout=120)
        walls.append(perf_counter() - start)
        if child.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{child.stderr}")
        reports.append(json.loads(child.stdout))
    imports = {key: statistics.median(r[key] for r in reports) for key in ("numpy_s", "ghzpolytope_s")}
    return statistics.median(walls), imports


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_metadata(args):
    from ghzpolytope import volume
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_backend": volume.KERNEL_BACKEND,
        "rng_algorithm": volume.RNG_ALGORITHM,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
    }


def run_workload(cls, seed, seconds, trace):
    """Set up, check, then run rounds for ``seconds``; returns the result dict."""
    from spans import Tracer, null_span, per_layer_metrics, round_totals, spans_as_json
    from workloads import FAILED, OK, WRONG, Tally

    workload = cls(seed)
    setup_s, imports = measure_setup(workload.first_call)
    problems = workload.pre_checks()

    tracer = Tracer() if trace else None
    tally, round_seconds = Tally(), {False: [], True: []}
    totals, last_spans = defaultdict(float), []
    # threads of the reference task; they start at its first use
    with ThreadPoolExecutor(workload.reference_threads) as pool:
        start, k = perf_counter(), 0
        while (k == 0 or perf_counter() - start < seconds
               or (trace and not all(round_seconds.values()))):
            traced = trace and k % 2 == 1
            if traced:
                tracer.install()
            try:
                done = workload.round(k, tracer.span if traced else null_span)
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                for key, value in round_totals(tracer.spans, tracer.counts).items():
                    totals[key] += value
                last_spans = tracer.spans
                tracer.reset()
            round_seconds[traced].append(sum(c.seconds for c in done))
            tally.add(done, reference_seconds(workload.reference_rows,
                                              workload.reference_threads, pool))
            k += 1

    times = tally.all_times()
    failed = len(times) - tally.status[OK]
    result = {
        "correct": not problems and not tally.status[WRONG],
        "attempted": len(times),
        "failed": failed,
        "problems": problems + tally.problems,
        "rounds": k,
        "counts": workload.counts(),
        "status_counts": {s: tally.status[s] for s in (OK, FAILED, WRONG)},
    }
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if trace:
        overhead = 100.0 * (statistics.median(round_seconds[True])
                            / statistics.median(round_seconds[False]) - 1.0)
        result["metrics"] = per_layer_metrics(totals, len(round_seconds[True]), imports, overhead,
                                              statistics.median(tally.references))
        OUT.mkdir(exist_ok=True)
        dump = {"workload": cls.name, "seed": seed, "traced_rounds": len(round_seconds[True]),
                "totals": dict(totals), "last_round_spans": spans_as_json(last_spans)}
        (OUT / f"spans-{cls.name}-seed{seed}.json").write_text(json.dumps(dump))
    else:
        values = {
            "setup_s": setup_s,
            "invocations_per_ref": tally.rate_per_ref(),
            "invocation_p50_ref": tally.p50_ref(),
            "peak_rss_mb": peak_rss_mb,
        }
        result["metrics"] = {name: (values[name], unit) for name, unit in END_TO_END}
        # with the workload's own metric names and the wall-clock times; printed,
        # not part of the JSON result
        own = dict(result["metrics"])
        own.update(workload.metrics(tally))
        own["error_rate"] = (failed / len(times), "failed/attempted")
        own["invocations_per_s"] = (tally.rate(), "1/s")
        own["invocation_ms_p50"] = (1e3 * statistics.median(times), "ms")
        own["reference_ms"] = (1e3 * statistics.median(tally.references), "ms")
        result["workload_metrics"] = own
    return result


def print_result(name, meta, result):
    print(f"== {name}")
    for key, value in meta.items():
        print(f"meta {key} {value}")
    for key, (value, unit) in result.get("workload_metrics", result["metrics"]).items():
        print(f"metric {name}.{key} {value:.6g} {unit}")
    for key, value in result["counts"].items():
        print(f"count {name}.{key} {value}")
    print(f"calls {name} rounds={result['rounds']} " +
          " ".join(f"{s}={n}" for s, n in result["status_counts"].items()))
    for problem in result["problems"]:
        print(f"problem {name} {problem}")


def check_declared(metrics, trace):
    """The printed metric set must be the one BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != wanted:
        raise RuntimeError(f"metrics {got} differ from BENCHMARK.json {wanted}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["mc_regions", "mc_wide", "classify_states", "cli_report", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ghzpolytope" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a ghzpolytope checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ghzpolytope
    if Path(ghzpolytope.__file__).resolve().parent != SRC / "ghzpolytope":
        print(f"error: imported ghzpolytope from {ghzpolytope.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    meta = run_metadata(args)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace)
        check_declared(results[name]["metrics"], args.trace)
        print_result(name, meta, results[name])
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{key}": value for name, r in results.items()
                   for key, value in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
