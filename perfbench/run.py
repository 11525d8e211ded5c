"""Benchmark of the Mocket loop: one workload per invocation.

    python3 perfbench/run.py --workload raftkv-suite --seed 1 \\
        --seconds 30 --trace 0

runs the workload's pipeline from this process until ``--seconds`` are
used (never starting a pass that would not fit, and always at least
one), checks every pass against its correctness gate, prints every
metric with its unit and sample count, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` runs the same passes with spans around each layer's
public calls and reports the per-layer metrics.  A full record of the
run (every metric, the seeds, and with ``--trace 1`` the spans) is
written to ``perfbench/out/``.  ``--seed`` sets the soak seed; the POR
and fault seeds set how much work the test workloads do, so they are
pinned unless given (see RATIONALE.md).
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
import time
from contextlib import nullcontext
from pathlib import Path

import workloads
from harness import (
    NullRecorder, SpanRecorder, Tally, percentile, tail_percentile,
)
from workloads import Iteration, Seeds, SoakWorkload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 7       # this process plus six fresh ones
MIN_SOAK_PASSES = 2     # soak counts are gated on repeating exactly


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--por-seed", type=int, default=0,
                        help="POR seed; it sets the suite's size, so it "
                             "is pinned to 0 rather than taken from "
                             "--seed (default: 0)")
    parser.add_argument("--fault-seed", default="0",
                        help="fault-plan seed; it sets how many match "
                             "timeouts a run waits out, so it is pinned "
                             "to the mocket default rather than taken "
                             "from --seed (default: 0)")
    parser.add_argument("--soak-seed", default=None,
                        help="soak seed (default: --seed)")
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up once in a fresh process and "
                             "print the seconds")
    return parser.parse_args(argv)


def seeds_from(args):
    """The workload seeds: the soak seed from ``--seed`` unless given;
    the POR and fault seeds as given."""
    return Seeds(
        por=args.por_seed, fault=str(args.fault_seed),
        soak=str(args.seed if args.soak_seed is None else args.soak_seed))


def _timed_setup(workload):
    started = time.perf_counter()
    kit = workloads.setup(workload)
    return time.perf_counter() - started, kit


def _setup_samples(name, first):
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _passes(args, workload, kit, seeds, traced):
    """Run passes until the time budget would be overrun."""
    soak = isinstance(workload, SoakWorkload)
    config = workloads.soak_config(workload, seeds.soak) if soak else None
    minimum = MIN_SOAK_PASSES if soak else 1
    started = time.perf_counter()
    passes, records = [], []
    while True:
        pass_start = time.perf_counter()
        recorder = SpanRecorder() if traced else NullRecorder()
        fault_config = (workloads.timing_fault_config(recorder)
                        if traced and not soak and workload.faults
                        else None)
        with (workloads.instrumentation(workload, recorder) if traced
              else nullcontext()):
            try:
                if soak:
                    it = workloads.run_soak_once(workload, config, recorder)
                else:
                    it = workloads.run_test(workload, kit, seeds, recorder,
                                            fault_config)
            except Exception as exc:  # the run reports it as failed
                it = Iteration(
                    verdict_s=time.perf_counter() - pass_start, work_s=0.0,
                    work_done=0, problems=[f"raised {exc!r}"], raised=True)
        if traced:
            it.layers = workloads.traced_layers(recorder, it)
            records.append(recorder.spans)
        passes.append(it)
        elapsed = time.perf_counter() - started
        last = time.perf_counter() - pass_start
        if len(passes) >= minimum and elapsed + last > args.seconds:
            return passes, records


def _tally(workload, passes):
    """Cases (or simulated ops) attempted and failed, and whatever the
    gate found."""
    tally, problems = Tally(), []
    soak = isinstance(workload, SoakWorkload)
    expected = workload.ops if soak else workload.cases or 1
    for index, it in enumerate(passes):
        if it.raised:
            tally.raised(expected)
        elif it.problems:
            tally.raised(it.work_done)   # a gate failure fails the pass
        else:
            tally.add(it.work_done, it.divergent)
        problems += [f"pass {index}: {p}" for p in it.problems]
    identities = {it.identity for it in passes if not it.raised}
    if len(identities) > 1:
        problems.append(f"passes disagree on their inputs/counts: "
                        f"{sorted(identities)}")
        tally.failed = tally.attempted
    return tally, problems


def _median(values):
    """Median, or 0 when every pass raised and left nothing to time."""
    return statistics.median(values) if values else 0.0


def _end_to_end(workload, passes, setup, tally):
    """Every end-to-end metric: (value, unit, samples)."""
    finished = [p for p in passes if not p.raised]
    metrics = {
        "verdict_s": (_median([p.verdict_s for p in passes]), "s",
                      len(passes)),
        "throughput_per_s": (_median([p.work_done / p.work_s
                                      for p in passes if p.work_s]), "1/s",
                             len(passes)),
        "setup_s": (_median(setup), "s", len(setup)) if setup else None,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", 1),
    }
    if isinstance(workload, SoakWorkload):
        metrics["soak_ops_per_s"] = metrics["throughput_per_s"]
        submitted = sum(p.work_done for p in finished)
        unacked = sum(p.unacked for p in finished)
        metrics["failed_ratio"] = (unacked / submitted if submitted else 1.0,
                                   "ratio", submitted)
    else:
        metrics["cases_per_s"] = metrics["throughput_per_s"]
        cases = [s * 1000.0 for p in passes for s in p.case_seconds]
        if cases:
            metrics["case_ms.p50"] = (percentile(cases, 50), "ms",
                                      len(cases))
        p90 = tail_percentile(cases, 90)
        if p90 is not None:
            metrics["case_ms.p90"] = (p90, "ms", len(cases))
        metrics["failed_ratio"] = (tally.failed_ratio, "ratio",
                                   tally.attempted)
        metrics["check_states_per_s"] = (
            _median([p.states / p.check_s for p in passes if p.check_s]),
            "1/s", len(passes))
    return {k: v for k, v in metrics.items() if v is not None}


def unit(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if name.endswith(("_pct", "_share")):
        return "%"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_op"):
        return "1/op"
    return "count"


def _per_layer(passes, names):
    """Medians over passes of every per-layer metric; a layer that a
    workload never calls reads 0."""
    names = sorted(set(names) | {k for p in passes for k in p.layers})
    return {k: (_median([p.layers.get(k, 0) for p in passes]), unit(k),
                len(passes))
            for k in names}


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    workload = workloads.WORKLOADS[args.workload]
    setup_first, kit = _timed_setup(workload)
    if args.setup_only:
        print(repr(setup_first))
        return 0
    seeds = seeds_from(args)
    traced = bool(args.trace)
    setup = [] if traced else _setup_samples(args.workload, setup_first)

    passes, spans = _passes(args, workload, kit, seeds, traced)
    tally, problems = _tally(workload, passes)
    correct = not problems

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if traced:
        wanted = [m["name"] for m in declared["per_layer"]]
        table = _per_layer(passes, wanted)
    else:
        table = _end_to_end(workload, passes, setup, tally)
        wanted = [m["name"] for m in declared["end_to_end"]]

    print(f"workload {workload.name}: {len(passes)} pass(es), seeds "
          f"por={seeds.por} fault={seeds.fault} soak={seeds.soak}, "
          f"{'traced' if traced else 'untraced'}")
    for name, (value, unit, n) in sorted(table.items()):
        print(f"  {name:<28} {value:>14.6g} {unit:<6} n={n}")
    print(f"  gate: {'ok' if correct else 'FAILED'}; "
          f"{tally.failed} of {tally.attempted} failed")
    for problem in problems:
        print(f"  !! {problem}")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload.name, "trace": args.trace,
        "seeds": vars(seeds), "seconds": args.seconds,
        "passes": len(passes), "correct": correct, "problems": problems,
        "cores": os.cpu_count(), "python": platform.python_version(),
        "metrics": {k: {"value": v, "unit": u, "n": n}
                    for k, (v, u, n) in table.items()},
    }
    if traced:
        record["spans"] = [
            [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
              "parent": s[4], "thread": s[5]} for s in pass_spans]
            for pass_spans in spans]
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": table[name][0], "unit": table[name][1]}
                    for name in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
