"""Benchmark for cyclojones, driven from outside through its public functions.

    python3 perfbench/run.py --workload verify_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  One process per run; one caller drives the
library in a closed loop (the next op starts when the previous one has
returned) for ``--seconds`` seconds of whole rounds.  The last line of
standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the library is wrapped with spans and the metrics are the per-layer ones.
Times are host-normalized (see ``calibrate``).  perfbench/README.md
describes every metric.
"""

from __future__ import annotations

import argparse
import importlib
import os
import pkgutil
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 9  # one in this process, the rest in fresh interpreters
CALIB_ITERS = 10000
HOST_REF_MS = 2.0  # calibration time that normalized times are scaled to
CALIB_EVERY_S = 0.1

SETUP_IN_FRESH_PROCESS = f"import sys; sys.path.insert(0, {HERE!r}); import run; print(*run.setup_sample())"


def calibrate() -> float:
    """Milliseconds for a fixed dict-and-int loop owned by the benchmark.

    The host alternates between two speeds on a scale of seconds (this loop
    takes ~1.6 or ~2.6 ms on the 2-vCPU reference host), which moved raw
    timings of whole runs by 15-30% between runs.  Every time the benchmark
    reports is therefore scaled by HOST_REF_MS / (this loop's time measured
    at most CALIB_EVERY_S before it): the time it would take on a host where
    the loop takes HOST_REF_MS.
    """
    t0 = time.perf_counter()
    acc: dict[int, int] = {}
    for i in range(CALIB_ITERS):
        key = (i * 7919) % 1021
        acc[key] = acc.get(key, 0) + i
    return (time.perf_counter() - t0) * 1000


def setup_sample() -> tuple[float, float]:
    """(seconds to import cyclojones with every submodule, cli included;
    calibration ms around it).  Import once per process."""
    before = statistics.median(calibrate() for _ in range(3))
    t0 = time.perf_counter()
    import cyclojones

    for info in pkgutil.iter_modules(cyclojones.__path__):
        importlib.import_module("cyclojones." + info.name)
    elapsed = time.perf_counter() - t0
    after = statistics.median(calibrate() for _ in range(3))
    if os.path.dirname(os.path.abspath(cyclojones.__file__)) != os.path.join(SRC, "cyclojones"):
        raise SystemExit(f"imported cyclojones from {cyclojones.__file__}, not from {SRC}")
    return elapsed, (before + after) / 2


def setup_in_fresh_process() -> tuple[float, float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_IN_FRESH_PROCESS], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    elapsed, calib = proc.stdout.split()
    return float(elapsed), float(calib)


def run_rounds(workload, ops, seconds: float, caches, tracer=None):
    """Repeat whole rounds of ops until ``seconds`` have passed.

    Every op starts from empty library caches, as a fresh ``cyclojones``
    process would, so cache misses are the same share of every run.
    Returns raw latencies, the host calibration in force for each op,
    per-op outcomes and the round count.
    """
    latencies: list[float] = []
    hosts: list[float] = []
    reference: list = [None] * len(ops)  # first successful record per op
    same = [0] * len(ops)  # rounds whose record equals the reference
    raised = 0
    mismatched = 0
    errors: list[str] = []
    calib: list[float] = []
    rounds = 0
    start = time.perf_counter()
    last_calib = float("-inf")
    calib_time = 0.0
    while True:
        for i, op in enumerate(ops):
            now = time.perf_counter()
            if now - last_calib >= CALIB_EVERY_S:
                calib.append(calibrate())
                last_calib = time.perf_counter()
                calib_time += last_calib - now
                if tracer is not None:
                    tracer.scale = HOST_REF_MS / calib[-1]
            if tracer is not None:
                tracer.before_cache_clear()
            for cache in caches:
                cache.cache_clear()
            hosts.append(calib[-1])
            t0 = time.perf_counter()
            try:
                out = workload.run(op)
            except Exception as exc:  # an op that raises is a failed op
                latencies.append(time.perf_counter() - t0)
                raised += 1
                if len(errors) < 5:
                    errors.append(f"{op}: {type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - t0)
            rec = workload.record(op, out)
            del out
            if reference[i] is None:
                reference[i] = rec
                same[i] += 1
            elif rec == reference[i]:
                same[i] += 1
            else:
                mismatched += 1
                if len(errors) < 5:
                    errors.append(f"{op}: output differs from its first round")
        rounds += 1
        if time.perf_counter() - start - calib_time >= seconds:
            break
    if tracer is not None:
        tracer.before_cache_clear()
    return {
        "latencies": latencies, "hosts": hosts, "reference": reference, "same": same,
        "raised": raised, "mismatched": mismatched, "errors": errors,
        "calib": calib, "rounds": rounds,
    }


def count_wrong(check, ops, res, errors: list[str]) -> int:
    """Check each op's first record; an op found wrong fails in every round
    whose record equalled that first one."""
    wrong = 0
    for op, rec, n_same in zip(ops, res["reference"], res["same"]):
        if rec is None:
            continue
        try:
            check(op, rec)
        except Exception as exc:  # a malformed output may break parsing too
            wrong += n_same
            if len(errors) < 10:
                errors.append(f"{op}: check failed: {type(exc).__name__}: {exc}")
    return wrong


def timing(latencies: list[float], completed: int) -> tuple[float, float, float]:
    """(ops per second, median ms, 90th-percentile ms)."""
    return (
        completed / sum(latencies),
        statistics.median(latencies) * 1000,
        statistics.quantiles(latencies, n=10)[-1] * 1000,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cyclojones", "__init__.py")):
        print(f"error: no cyclojones sources under {SRC}", file=sys.stderr)
        return 2
    # A single caller on a small host: a second BLAS thread in np.roots only
    # competes with it, and the thread count changes mahler_measure's last
    # digits.  Set before numpy loads, here and in the set-up subprocesses.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, SRC)

    # set-up: importing the library, timed before any checking code loads
    setup = [setup_sample()]
    if not args.trace:
        setup += [setup_in_fresh_process() for _ in range(SETUP_SAMPLES - 1)]

    import json

    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    ops = workload.make_ops(args.seed)
    caches = tracing.library_caches()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        res = run_rounds(workload, ops, args.seconds, caches, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors = res["errors"]
    wrong_ops = count_wrong(checks.CHECKS[workload.name], ops, res, errors)
    for line in errors:
        print(line, file=sys.stderr)

    lat = res["latencies"]
    attempted = len(lat)
    failed = res["raised"] + res["mismatched"] + wrong_ops
    completed = attempted - res["raised"]
    normalized = [x * HOST_REF_MS / h for x, h in zip(lat, res["hosts"])]
    ops_per_s, p50_ms, p90_ms = timing(normalized, completed)
    if args.trace:
        metrics = tracer.metrics(res["rounds"])
        trials = metrics["cyclotomic.trial_divisions"]
        metrics["cyclotomic.useful_share"] = (
            metrics["cyclotomic.useful_divisions"] / trials if trials else 0.0
        )
        metrics["cyclotomic.mahler_max_err"] = max(
            (abs(rec[2] - 1) for rec in res["reference"]
             if workload.name == "cyclo_factor" and rec is not None and rec[1] is not None),
            default=0.0,
        )
        metrics["host.calib_ms"] = statistics.median(res["calib"])
        metrics["trace.ops_per_s"] = ops_per_s
        metrics["trace.op_p50_ms"] = p50_ms
        metrics["trace.op_p90_ms"] = p90_ms
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(t * HOST_REF_MS / c for t, c in setup),
            "ops_per_s": ops_per_s,
            "op_p50_ms": p50_ms,
            "op_p90_ms": p90_ms,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                 "op_p90_ms": "ms", "peak_rss_mb": "MB"}
    raw = timing(lat, completed)
    print(f"{workload.name}: seed {args.seed}, {res['rounds']} rounds of {len(ops)} ops, "
          f"{attempted} attempted, {failed} failed; raw {raw[0]:.4g} ops/s, "
          f"p50 {raw[1]:.4g} ms, p90 {raw[2]:.4g} ms, "
          f"setup {statistics.median(t for t, _ in setup):.4g} s; "
          f"host.calib_ms {statistics.median(res['calib']):.4g}", file=sys.stderr)
    result = {
        "correct": res["mismatched"] == 0 and wrong_ops == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    if name == "trace.ops_per_s":
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name == "cyclotomic.useful_share":
        return "ratio"
    if name == "cyclotomic.mahler_max_err":
        return "abs"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
