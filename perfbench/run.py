"""polyoracle benchmark: one seeded, closed-loop workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload ls-decide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

One client sends the next op only after the previous one returns, in a
single process with no threads.  The seed draws the inputs; the library sees
only the generated inputs.  Each run repeats one pass of the workload's op
list until the next pass would end after ``--seconds``, so every run holds
whole passes and the same op mix.

``--trace 0`` times the library's single public entry points and reports the
end-to-end metrics.  ``--trace 1`` runs every op twice, once untraced and
once through its public steps with a span around each call into a module,
checks that both give the same result, reports the per-layer metrics and
writes the spans to ``perfbench/out/``.  Every op is checked against a
reference outside the timed region.

Times are scaled by a calibration loop run between ops (see
``CALIBRATION_REFERENCE_S``).  Set-up is timed in this process and in four
fresh ones, and its median is reported.  ``bench_metrics`` names every
metric and the end-to-end metric each layer metric should move.

Standard output: a JSON line describing the run (seed, host, op counts,
calibration loop time, raw times), one ``name = value unit`` line per metric
plus ``failed_frac``, and last a JSON result line.  The run exits 2,
printing no result, when the library sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

from bench_metrics import END_TO_END, PER_LAYER, TRACE_RUN, layer_values
from bench_trace import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("ls-decide", "ls-literal", "circuit-verify", "counting")
SETUP_CHILDREN = 4  # set-up samples taken in fresh processes, beside this process's own
# Reported times are scaled to a host on which the calibration loop takes
# exactly this long: each timed segment is multiplied by this reference over
# the mean of the calibration loops run just before and just after it.  On a
# shared 2-core KVM guest (Intel Xeon), raw times drifted by tens of percent
# over minutes.  A loop of integer arithmetic alone, or of calls, tuple
# building and dict updates alone, tracked that drift well on some workloads
# and poorly on others; the two together kept every workload's scaled times
# within a few percent across runs.  Raw figures are printed beside them.
CALIBRATION_REFERENCE_S = 0.001


class MissingLibrary(Exception):
    pass


def setup(name: str, seed: int, smoke: bool):
    """Import the library, draw the seeded inputs and warm up.

    Returns (scaled seconds, workload, ops).
    """
    before = calibrate()
    start = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import bench_workloads
    except ImportError as exc:
        raise MissingLibrary(f"cannot import polyoracle from {SRC}: {exc}") from exc
    import polyoracle

    if os.path.dirname(os.path.dirname(os.path.abspath(polyoracle.__file__))) != SRC:
        raise MissingLibrary(f"polyoracle was imported from {polyoracle.__file__}, not {SRC}")
    workload = bench_workloads.WORKLOADS[name]
    ops = workload.make_ops(random.Random(seed), smoke)
    for op in workload.make_ops(random.Random(seed), True):
        workload.run(op)
    seconds = time.perf_counter() - start
    return seconds * scale(before, calibrate()), workload, ops


def child_setup_seconds(name: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", name, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def _pair(left: int, right: int) -> tuple[int, int]:
    return left, right


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: tells host slowdowns from code changes."""
    start = time.perf_counter()
    acc = 0
    for i in range(5_000):
        acc = (acc * 31 + i) % 1_000_003
    table: dict[tuple[int, int], int] = {}
    for i in range(2_000):
        key = _pair(i & 63, i & 7)
        table[key] = table.get(key, 0) + 1
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    return CALIBRATION_REFERENCE_S * 2 / (before + after)


def attempt(call, *args):
    """Run one op; an op that raises is reported with its traceback and returns None."""
    try:
        return call(*args)
    except Exception:
        traceback.print_exc()
        return None


def measure(workload, ops, seconds: float, tracer=None) -> dict:
    """Closed loop over whole passes of ``ops``; checks run outside the timed region.

    A calibration loop runs between consecutive timed ops; each op's time is
    kept raw and scaled by the calibrations on either side of it.
    """
    raw, latencies, traced_latencies, calibrations = [], [], [], [calibrate()]
    pass_counts, pass_self_times = [], []
    failed = passes = 0
    consistent = True

    def timed(call, *args):
        began = time.perf_counter()
        result = attempt(call, *args)
        elapsed = time.perf_counter() - began
        calibrations.append(calibrate())
        return result, elapsed, elapsed * scale(calibrations[-2], calibrations[-1])

    start = time.perf_counter()
    while True:
        counts = defaultdict(int)
        first_span = len(tracer.spans) if tracer else 0
        for op in ops:
            if tracer is not None:
                tracer.op = len(raw)
            result, elapsed, scaled = timed(workload.run, op)
            raw.append(elapsed)
            latencies.append(scaled)
            ok = result is not None and workload.check(op, result)
            if tracer is not None:
                stepped, _, scaled = timed(workload.traced, op, tracer, counts)
                traced_latencies.append(scaled)
                ok = ok and stepped == result
            failed += not ok
        passes += 1
        # Some library routines leave reference cycles (recursive closures
        # holding their memo tables) that only a full collection frees.
        # Collecting once per pass, outside the timed region, makes peak RSS
        # one pass's working set rather than a product of the collector's
        # schedule, and keeps full collections out of the timed ops.
        gc.collect()
        if tracer is not None:
            pass_counts.append(dict(counts))
            pass_self_times.append(tracer.self_times(first_span))
            consistent = consistent and pass_counts[-1] == pass_counts[0]
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            break
    return {
        "raw": raw,
        "latencies": latencies,
        "traced_latencies": traced_latencies,
        "calibrations": calibrations,
        "passes": passes,
        "pass_counts": pass_counts,
        "pass_self_times": pass_self_times,
        "failed": failed,
        "consistent": consistent,
    }


def percentile(values: list[float], tenth: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[tenth - 1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def end_to_end(run: dict, setup_samples: list[float]) -> dict[str, float]:
    latencies = run["latencies"]
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p90_ms": percentile(latencies, 9) * 1000,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(run: dict, ops_per_pass: int) -> dict[str, float]:
    passes = run["pass_self_times"]
    self_times = {
        name: statistics.median(times.get(name, 0.0) for times in passes)
        for name in set().union(*passes)
    }
    values = layer_values(self_times, run["pass_counts"][0])
    untraced, traced = sum(run["latencies"]), sum(run["traced_latencies"])
    values.update(
        {
            "trace.ops": ops_per_pass,
            "trace.ops_per_s": len(run["traced_latencies"]) / traced,
            "trace.untraced_ops_per_s": len(run["latencies"]) / untraced,
            "trace.overhead": traced / untraced - 1,
            "host.calibration_ms": statistics.median(run["calibrations"]) * 1000,
        }
    )
    return values


def benchmark(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One run: set-up samples, the measured loop, and the printed report."""
    setup_seconds, workload, ops = setup(name, seed, smoke)
    samples = [setup_seconds] + [
        child_setup_seconds(name, seed) for _ in range(1 if smoke else SETUP_CHILDREN)
    ]
    tracer = Tracer() if trace else None
    run = measure(workload, ops, seconds, tracer)
    attempted = len(run["latencies"])
    p90 = percentile(run["latencies"], 9)
    header = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "loop": "closed, one client, one process",
        "ops_per_pass": len(ops),
        "passes": run["passes"],
        "ops": attempted,
        "samples_above_p90": sum(latency > p90 for latency in run["latencies"]),
        "setup_samples_s": samples,
        "calibration_ms": statistics.median(run["calibrations"]) * 1000,
        "raw_ops_per_s": attempted / sum(run["raw"]),
        "raw_latency_p50_ms": statistics.median(run["raw"]) * 1000,
        "raw_latency_p90_ms": percentile(run["raw"], 9) * 1000,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu_model(),
    }
    print(json.dumps({"run": header}))
    if trace:
        metrics = per_layer(run, len(ops))
        units = {name: unit for name, unit, *_ in PER_LAYER + TRACE_RUN}
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"spans-{name}-seed{seed}.json"), header)
    else:
        metrics = end_to_end(run, samples)
        units = {name: unit for name, unit, _ in END_TO_END}
    for metric, value in metrics.items():
        print(f"{metric} = {value!r} {units[metric]}")
    print(f"failed_frac = {run['failed'] / attempted!r} fraction")
    print(f"latency_samples = {attempted} count")
    print(f"samples_above_p90 = {header['samples_above_p90']} count")
    return {
        "correct": run["failed"] == 0 and run["consistent"],
        "attempted": attempted,
        "failed": run["failed"],
        "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in metrics.items()},
    }


def smoke(seed: int) -> int:
    """A few small ops of every workload, untraced and traced; exit status 0 when every check holds."""
    problems = []
    for name in WORKLOAD_NAMES:
        for trace, expected in ((False, END_TO_END), (True, PER_LAYER + TRACE_RUN)):
            result = benchmark(name, seed, 0, trace, smoke=True)
            print(json.dumps(result))
            metrics = result["metrics"]
            for metric, unit, *_ in expected:
                if metrics.get(metric, {}).get("unit") != unit:
                    problems.append(f"{name}: {metric} missing or without unit {unit}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name}: trace={int(trace)} failed {result['failed']} ops")
            if trace and name == "ls-decide" and metrics["oracle.calls_per_op"]["value"] != 1:
                problems.append(f"{name}: oracle.calls_per_op is not 1")
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="few ops of every workload, with checks")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke(args.seed)
        if args.workload is None:
            parser.error("--workload is required")
        if args.setup_only:
            print(setup(args.workload, args.seed, smoke=False)[0])
            return 0
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    except MissingLibrary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
