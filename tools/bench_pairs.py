"""Benchmark two checkouts against each other in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE [--workloads verify_sweep ...]
        [--seeds 1 2 ... 10] > BENCH_<n>.json

PARENT and CHANGE are repository roots.  For every workload and seed the
script runs ``perfbench/run.py`` untraced once in each checkout, for the
``run_seconds`` that CHANGE/BENCHMARK.json sets and one process at a
time, with the parent first on odd pairs and the change first on even
ones.  The default ten seeds give the ten pairs a claimed gain needs.  It
then makes one traced run per checkout at the first seed for the
per-layer counts.  Each side's runs share one bytecode cache, made fresh
for that side in a temporary directory (PYTHONPYCACHEPREFIX, with
PYTHONDONTWRITEBYTECODE cleared), so a stale or missing ``__pycache__``
in either checkout cannot bias ``setup_s``, a fresh import.  Standard
output is one JSON object with, per workload and side, the median and
quartiles of every end-to-end metric over the seeds, the number of pairs
the change won on each metric (the direction read from CHANGE/BENCHMARK.json), the failed
ops and the traced counts per round.  Per workload it also gives each
metric's relative change of the median, (change - parent) / parent, and
``regressions`` lists every "workload.metric" whose median got worse by
more than the metric's ``bound`` in CHANGE/BENCHMARK.json.  ``src_lines``
gives each side's total line count of ``src/cyclojones/*.py``, so the
record carries the change in code size next to the change in speed.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile


def run(root: str, env: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, check=True)
    print(f"{os.path.basename(os.path.abspath(root))}: {proc.stderr.strip()}", file=sys.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def src_lines(root: str) -> int:
    """Total lines of the package's modules, src/cyclojones/*.py under root."""
    total = 0
    for path in glob.glob(os.path.join(root, "src", "cyclojones", "*.py")):
        with open(path, encoding="utf-8") as f:
            total += sum(1 for _ in f)
    return total


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workloads", nargs="+", help="default: every workload in BENCHMARK.json")
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    caches = {side: tempfile.TemporaryDirectory(prefix=f"bench-pairs-{side}-") for side in sides}
    base = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    envs = {side: {**base, "PYTHONPYCACHEPREFIX": cache.name} for side, cache in caches.items()}

    out = {"seconds": seconds, "seeds": args.seeds,
           "python": platform.python_version(), "cpus": os.cpu_count(),
           "src_lines": {side: src_lines(root) for side, root in sides.items()},
           "workloads": {}, "regressions": []}
    for workload in workloads:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i, seed in enumerate(args.seeds):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                runs[side].append(run(sides[side], envs[side], workload, seed, seconds, 0))
        values = {side: {name: [r["metrics"][name]["value"] for r in rs] for name in better}
                  for side, rs in runs.items()}
        wins, change = {}, {}
        for name, direction in better.items():
            sign = 1 if direction == "higher" else -1
            wins[name] = sum(sign * (c - p) > 0
                             for p, c in zip(values["parent"][name], values["change"][name]))
            p, c = (statistics.median(values[side][name]) for side in sides)
            change[name] = rel = (c - p) / p if p else None
            if rel is not None and -sign * rel > bound[name]:
                out["regressions"].append(f"{workload}.{name}")
        traced = {}
        for side, root in sides.items():
            metrics = run(root, envs[side], workload, args.seeds[0], seconds, 1)["metrics"]
            traced[side] = {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}
        entry = {
            side: {
                "correct": all(r["correct"] for r in runs[side]),
                "attempted": sum(r["attempted"] for r in runs[side]),
                "failed": sum(r["failed"] for r in runs[side]),
                "metrics": {name: summary(v) for name, v in values[side].items()},
                "traced_counts_per_round": traced[side],
            }
            for side in sides
        }
        entry["change_wins_of_pairs"] = wins
        entry["median_change_vs_parent"] = change
        out["workloads"][workload] = entry
    for cache in caches.values():
        cache.cleanup()
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
