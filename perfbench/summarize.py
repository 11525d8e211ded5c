"""Repeat the benchmark and record medians, quartiles and spreads.

    python3 perfbench/summarize.py --runs 10 --first-seed 1

runs ``perfbench/run.py`` ``--runs`` times per workload untraced, each
time with the next seed, then once traced with the first seed, and
writes ``perfbench/RESULTS.json``: the environment (cores, Python,
commit, seeds, run count) and, per workload, the seeds each run used
(POR, fault, soak), the median, quartiles and quartile spread of every
metric, each end-to-end spread against its bound in BENCHMARK.json,
and the tracing overhead (traced minus untraced ``verdict_s``).  Exits
1 if a run fails its gate or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import summary  # noqa: E402


def _run(workload, seed, seconds, trace):
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else {"correct": False, "metrics": {}}
    detail_file = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    detail = (json.loads(detail_file.read_text())
              if detail_file.exists() and result["metrics"] else {})
    print(f"  {workload} seed {seed} trace {trace}: exit {done.returncode}, "
          f"{wall:.1f}s wall, correct={result['correct']}", flush=True)
    if done.returncode != 0:
        print(done.stdout[-2000:] + done.stderr[-2000:], flush=True)
    return result, detail, wall


def _commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=str(HERE / "RESULTS.json"))
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    ok = True
    results = {}
    for workload in args.workloads:
        seconds = declared["run_seconds"]
        untraced = [_run(workload, s, seconds, 0) for s in seeds]
        traced = [_run(workload, seeds[0], seconds, 1)]
        entry = {"walls_s": [w for _, _, w in untraced + traced],
                 "seeds": [d.get("seeds") for _, d, _ in untraced]}
        for label, runs in (("end_to_end", untraced), ("per_layer", traced)):
            ok &= all(r["correct"] for r, _, _ in runs)
            values = {}
            for _, detail, _ in runs:
                for name, metric in detail.get("metrics", {}).items():
                    values.setdefault(name, []).append(metric["value"])
            entry[label] = {name: {**summary(v),
                                   "unit": runs[0][1]["metrics"][name]["unit"]}
                            for name, v in sorted(values.items())}
        for name, bound in bounds.items():
            stats = entry["end_to_end"].get(name)
            if stats is None:
                ok = False
                continue
            stats["bound"] = bound
            if name != "setup_s" and stats["spread"] > bound:
                ok = False
        if "verdict_s" in entry["end_to_end"] and entry["per_layer"]:
            entry["tracing_overhead_s"] = (
                entry["per_layer"]["traced.verdict_s"]["median"]
                - entry["end_to_end"]["verdict_s"]["median"])
        results[workload] = entry
        print(f"{workload}:")
        for name, stats in entry["end_to_end"].items():
            bound = stats.get("bound")
            print(f"  {name:<22} median {stats['median']:>12.6g} "
                  f"{stats['unit']:<6} q1 {stats['q1']:.6g} "
                  f"q3 {stats['q3']:.6g} spread {stats['spread']:.4f}"
                  + (f" (bound {bound})" if bound is not None else "")
                  + f" n={stats['n']}")
        if "tracing_overhead_s" in entry:
            print(f"  tracing overhead {entry['tracing_overhead_s']:.3f}s")

    record = {
        "environment": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "commit": _commit(),
            "run_seconds": declared["run_seconds"],
            "runs": args.runs,
            "traced_runs": 1,
            "seeds": seeds,
        },
        "workloads": results,
        "accepted": ok,
    }
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True)
                              + "\n")
    print(f"{'all spreads within bounds' if ok else 'FAILED'}; "
          f"written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
