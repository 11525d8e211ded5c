"""Self-tests for the benchmark's harness.

    python3 -m pytest perfbench/test_harness.py

The seed-passthrough test runs a three-case fault suite against
raftkv (a few seconds); the rest need no model.
"""

import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from harness import (  # noqa: E402
    NullRecorder, SpanRecorder, Tally, beyond, patched, percentile, summary,
    tail_percentile,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- percentile rule -----------------------------------------------------------

def test_p90_needs_ten_samples_beyond_it():
    assert beyond(99, 90) == 9
    assert tail_percentile(list(range(99)), 90) is None
    assert beyond(100, 90) == 10
    assert tail_percentile(list(range(1, 101)), 90) == 90


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(samples, 50) == 3.0
    assert percentile(samples, 100) == 5.0
    assert percentile([7.0], 50) == 7.0


def test_summary_uses_statistics_quartiles():
    stats = summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert stats["median"] == 3.0
    assert (stats["q1"], stats["q3"]) == (1.5, 4.5)
    assert stats["spread"] == pytest.approx(1.0)


# -- failure accounting --------------------------------------------------------

def _pass(done, divergent=0, raised=False, problems=()):
    return workloads.Iteration(verdict_s=1.0, work_s=1.0, work_done=done,
                               divergent=divergent, raised=raised,
                               problems=list(problems), identity=("same",))


def test_divergent_case_and_raised_pass_both_fail():
    tally = Tally()
    tally.add(10, 1)
    tally.raised(5)
    assert (tally.attempted, tally.failed) == (15, 6)
    assert tally.failed_ratio == pytest.approx(0.4)


def test_run_tally_counts_divergences_exceptions_and_gate_failures():
    suite = workloads.WORKLOADS["minizk-check"]      # 20 cases a pass
    passes = [_pass(20), _pass(20, divergent=2, problems=["2 divergent"]),
              _pass(0, raised=True, problems=["raised"])]
    tally, problems = run._tally(suite, passes)
    # a gate failure fails the whole pass; a raise fails the cases it
    # never ran
    assert (tally.attempted, tally.failed) == (60, 40)
    assert len(problems) == 2


def test_run_tally_fails_passes_that_disagree():
    suite = workloads.WORKLOADS["raftkv-suite"]
    first, second = _pass(181), _pass(181)
    second.identity = ("other",)
    tally, problems = run._tally(suite, [first, second])
    assert tally.failed == tally.attempted == 362
    assert problems


# -- self time -----------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    outer = rec.enter("outer")
    clock.now = 1.0
    middle = rec.enter("middle")
    clock.now = 2.0
    inner = rec.enter("inner")
    clock.now = 5.0
    rec.exit(inner)
    clock.now = 6.0
    rec.exit(middle)
    leaf = rec.enter("inner")
    clock.now = 8.0
    rec.exit(leaf)
    clock.now = 10.0
    rec.exit(outer)
    assert rec.busy == {"outer": 10.0, "middle": 5.0, "inner": 5.0}
    # outer: 10 - (middle 5 + inner 2); middle: 5 - inner 3
    assert rec.self_time == {"outer": 3.0, "middle": 2.0, "inner": 5.0}
    assert sum(rec.self_time.values()) == rec.busy["outer"]
    by_id = {s[0]: s for s in rec.spans}
    assert by_id[inner.span_id][4] == middle.span_id
    assert by_id[leaf.span_id][4] == outer.span_id
    assert by_id[outer.span_id][4] is None


def test_spans_on_other_threads_are_not_children():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    outer = rec.enter("outer")

    def worker():
        frame = rec.enter("worker", keep=False)
        clock.now = 4.0
        rec.exit(frame)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    rec.exit(outer)
    assert rec.self_time["outer"] == 4.0
    assert rec.calls["worker"] == 1
    assert len(rec.spans) == 1                       # keep=False: totals only


def test_timed_wrapper_sees_results_and_restores():
    rec = SpanRecorder()
    seen = []

    class Box:
        def get(self, value):
            return value

    original = Box.get
    with patched([(Box, "get", rec.timed(Box.get, "box.get",
                                         on_result=seen.append))]):
        assert Box().get(None) is None
        assert Box().get(3) == 3
    assert Box.get is original
    assert seen == [None, 3]
    assert rec.calls["box.get"] == 2


# -- metric declarations -------------------------------------------------------

def test_declared_per_layer_units_match_the_names():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for metric in declared["per_layer"]:
        assert run.unit(metric["name"]) == metric["unit"], metric["name"]
    names = {m["name"] for m in declared["per_layer"]}
    shares = {f"{layer}_pct" for layer in workloads.SELF_TIME_LAYERS.values()}
    assert shares <= names


# -- seed passthrough ----------------------------------------------------------

def test_seeds_pass_through():
    seeds = run.seeds_from(run._parse(["--workload", "raftkv-soak",
                                       "--seed", "7"]))
    assert (seeds.por, seeds.fault, seeds.soak) == (0, "0", "7")
    seeds = run.seeds_from(run._parse(["--workload", "raftkv-soak",
                                       "--seed", "7", "--fault-seed", "x",
                                       "--por-seed", "2", "--soak-seed", "y"]))
    assert (seeds.por, seeds.fault, seeds.soak) == (2, "x", "y")


def test_fault_seed_changes_the_plan_not_the_verdict():
    small = workloads.TestWorkload("raftkv-faults", "raftkv", states=329,
                                   edges=1020, suites={},
                                   cases=3, faults=True)
    kit = workloads.setup(small)
    passes = [workloads.run_test(small, kit, workloads.Seeds(fault=seed),
                                 NullRecorder())
              for seed in ("1", "2")]
    assert passes[0].plan != passes[1].plan
    for p in passes:
        assert p.problems == []
        assert p.divergent == 0
        assert p.work_done == 6                      # 3 base + 3 derived
