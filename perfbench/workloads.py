"""The benchmark's workloads and the pipeline calls they make.

Each test workload drives the calls ``mocket test`` makes, with the
command's defaults, runner timeouts and target kits taken from
:mod:`repro.cli`: ``check`` -> (``canonicalize`` -> ``plan_faults`` /
``apply_plan`` under ``--faults``) -> ``generate_test_cases`` ->
``ControlledTester`` / ``FaultRunner`` ``.run_suite``.  The soak
workload drives ``run_soak`` as ``mocket soak`` does.  Why each
workload exists is written down in ``RATIONALE.md``.

The program is imported inside the functions, so that set-up time
covers the imports a workload needs and no others.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from harness import SpanRecorder, patched

# ``mocket test`` and ``mocket soak`` defaults
MAX_STATES = 100_000
SOAK_SHARDS = 4
SOAK_RATE = 200.0


@dataclass(frozen=True)
class TestWorkload:
    """One closed-loop ``mocket test`` run: a single client, serial cases."""

    name: str
    target: str
    states: int
    edges: int
    # POR seed -> (cases, actions) of the generated suite; other POR
    # seeds are gated on repeating exactly within a run
    suites: Dict[int, Tuple[int, int]]
    # cap on the suite, as ``mocket test --cases`` (under --faults it
    # caps the base suite before planning)
    cases: Optional[int] = None
    faults: bool = False


@dataclass(frozen=True)
class SoakWorkload:
    """One faulted ``mocket soak`` run: open loop, one worker."""

    name: str
    ops: int
    target: str = "raftkv"


WORKLOADS = {
    w.name: w for w in (
        TestWorkload("raftkv-suite", "raftkv", states=329, edges=1020,
                     suites={0: (181, 2018)}),
        TestWorkload("minizk-check", "minizk", states=12092, edges=38624,
                     suites={0: (3971, 77253)}, cases=20),
        TestWorkload("pyxraft-faults", "pyxraft", states=5004, edges=24431,
                     suites={0: (3532, 51885)}, cases=24, faults=True),
        SoakWorkload("raftkv-soak", ops=100_000),
    )
}


@dataclass
class Seeds:
    por: int = 0
    fault: str = "0"
    soak: str = "0"


@dataclass
class Iteration:
    """What one pass of a workload's pipeline produced."""

    verdict_s: float
    work_s: float              # wall seconds of run_suite / run_soak
    work_done: int             # cases run / simulated ops submitted
    problems: List[str] = field(default_factory=list)
    # identity of the inputs: must repeat exactly within a run
    identity: Tuple = ()
    check_s: float = 0.0
    states: int = 0
    case_seconds: List[float] = field(default_factory=list)
    divergent: int = 0
    plan: Optional[str] = None  # fault-plan digest
    unacked: int = 0            # soak ops submitted but never acked
    raised: bool = False
    layers: Dict[str, float] = field(default_factory=dict)


# -- set-up ------------------------------------------------------------------

def setup(workload) -> Any:
    """Imports plus the objects built before the first pipeline call:
    the (spec, mapping, cluster factory) kit, or the soak config."""
    if isinstance(workload, SoakWorkload):
        from repro.soak import SoakConfig, build_report, run_soak  # noqa: F401

        return None
    from repro import cli
    from repro.core import ControlledTester, generate_test_cases  # noqa: F401
    from repro.tlaplus import check  # noqa: F401

    if workload.faults:
        from repro.engine import canonicalize  # noqa: F401
        from repro.faults import FaultRunner, apply_plan, plan_faults  # noqa: F401
    return cli._target_kit(workload.target, [])


def soak_config(workload: SoakWorkload, seed: str):
    from repro.soak import SoakConfig

    return SoakConfig(target=workload.target, ops=workload.ops, seed=seed,
                      shards=SOAK_SHARDS, workers=1, rate=SOAK_RATE,
                      faults=True)


# -- test workloads ----------------------------------------------------------

def plan_digest(plan) -> str:
    return hashlib.sha256(plan.to_json().encode()).hexdigest()[:16]


def run_test(workload: TestWorkload, kit, seeds: Seeds, recorder,
             fault_config=None) -> Iteration:
    """One pass of the ``mocket test`` pipeline; the gate is applied
    after the verdict and outside its time."""
    from repro import cli
    from repro.core import ControlledTester, generate_test_cases
    from repro.tlaplus import check

    spec, mapping, cluster_factory = kit
    plan = base = None
    started = time.perf_counter()
    with recorder.span("verdict"):
        with recorder.span("tlaplus.check"):
            check_start = time.perf_counter()
            graph = check(spec, max_states=MAX_STATES, truncate=True).graph
            check_s = time.perf_counter() - check_start
        checked = graph
        if workload.faults:
            from repro.engine import canonicalize

            with recorder.span("engine.canonicalize"):
                graph = canonicalize(graph)
        with recorder.span("analysis.independence"):
            independence = cli._spec_independence(spec)
        with recorder.span("testgen.generate"):
            suite = generate_test_cases(graph, por=True, seed=seeds.por,
                                        independence=independence)
        generated = (len(suite), suite.total_actions(), suite.excluded_edges)
        max_cases = workload.cases
        if workload.faults:
            from repro.faults import FaultRunner, apply_plan, plan_faults

            base = suite.truncated(workload.cases)
            max_cases = None
            with recorder.span("faults.plan"):
                plan = plan_faults(graph, base, mapping, seeds.fault,
                                   cluster_factory().node_ids,
                                   target=workload.target)
                suite = apply_plan(base, graph, plan)
            tester = FaultRunner(mapping, graph, cluster_factory, plan,
                                 cli._RUNNER, fault_config)
        else:
            tester = ControlledTester(mapping, graph, cluster_factory,
                                      cli._RUNNER)
        with recorder.span("testbed.run_suite"):
            run_start = time.perf_counter()
            outcome = tester.run_suite(suite, max_cases=max_cases)
            run_s = time.perf_counter() - run_start
    verdict_s = time.perf_counter() - started

    it = Iteration(verdict_s=verdict_s, work_s=run_s,
                   work_done=len(outcome.results), check_s=check_s,
                   states=checked.num_states,
                   case_seconds=[r.elapsed_seconds for r in outcome.results],
                   divergent=len(outcome.failures))
    if plan is not None:
        it.plan = plan_digest(plan)
        again = plan_faults(graph, base, mapping, seeds.fault,
                            cluster_factory().node_ids, target=workload.target)
        if plan_digest(again) != it.plan:
            it.problems.append("fault plan is not a function of its seed")
    it.identity = (checked.num_states, checked.num_edges) + generated + (
        it.plan, len(suite))
    it.problems += gate_test(workload, seeds, checked, generated,
                             it.divergent)
    it.layers = _test_layers(outcome, plan, checked, generated)
    return it


def gate_test(workload: TestWorkload, seeds: Seeds, graph, generated,
              divergent: int) -> List[str]:
    problems = []
    if (graph.num_states, graph.num_edges) != (workload.states,
                                               workload.edges):
        problems.append(f"graph has {graph.num_states} states / "
                        f"{graph.num_edges} edges, expected "
                        f"{workload.states} / {workload.edges}")
    expected = workload.suites.get(seeds.por)
    if expected is not None and generated[:2] != expected:
        problems.append(f"suite has {generated[0]} cases / {generated[1]} "
                        f"actions, expected {expected[0]} / {expected[1]}")
    if divergent:
        problems.append(f"{divergent} divergent case(s) against a "
                        f"correct system")
    return problems


def _test_layers(outcome, plan, graph, generated) -> Dict[str, float]:
    """Per-layer counts and testbed phase sums that need no tracing."""
    from repro.core.testbed.report import DivergenceKind

    phases = outcome.phase_seconds
    return {
        "tlaplus.states": graph.num_states,
        "tlaplus.edges": graph.num_edges,
        "testgen.cases": generated[0],
        "testgen.actions": generated[1],
        "testgen.excluded_edges": generated[2],
        "faults.injections": len(plan) if plan is not None else 0,
        "faults.stalled": sum(
            1 for r in outcome.failures
            if r.divergence.kind is DivergenceKind.STALLED),
        "testbed.deploy_s": phases.get("deploy", 0.0),
        "testbed.steps_s": phases.get("steps", 0.0),
        "testbed.end_check_s": phases.get("check", 0.0),
        "testbed.teardown_s": phases.get("teardown", 0.0),
    }


# -- soak workload -----------------------------------------------------------

def run_soak_once(workload: SoakWorkload, config, recorder) -> Iteration:
    from repro.soak import build_report, run_soak

    started = time.perf_counter()
    with recorder.span("verdict"):
        with recorder.span("soak.run"):
            run_start = time.perf_counter()
            shards = run_soak(config)
            run_s = time.perf_counter() - run_start
        report = build_report(config, shards)
    verdict_s = time.perf_counter() - started
    totals = report["totals"]
    it = Iteration(verdict_s=verdict_s, work_s=run_s,
                   work_done=totals["submitted"],
                   unacked=totals["submitted"] - totals["acked"])
    it.identity = (totals["submitted"], totals["accepted"], totals["acked"],
                   totals["rejected"])
    if totals["divergences"]:
        it.divergent = sum(totals["divergences"].values())
        it.problems.append(f"monitor divergences {totals['divergences']}")
    if totals["submitted"] != workload.ops:
        it.problems.append(f"submitted {totals['submitted']} of "
                           f"{workload.ops} requested ops")
    events = sum(s["events_dispatched"] for s in shards)
    it.layers = {
        "sim.events": events,
        "sim.events_per_op": events / max(1, totals["submitted"]),
        "sim.sends": sum(s["messages_sent"] for s in shards),
        "soak.rejected": totals["rejected"],
        "soak.lost_unacked": totals["accepted"] - totals["acked"],
    }
    return it


# -- tracing -----------------------------------------------------------------

def instrumentation(workload, recorder: SpanRecorder):
    """Spans and counters around the public calls of each layer; the
    returned stack undoes every replacement when closed."""
    if isinstance(workload, SoakWorkload):
        from repro.soak.monitor import SoakMonitor
        from repro.systems.raftkv.sim import SimRaftKvNode

        return patched([
            (SimRaftKvNode, "handle_envelope", recorder.timed(
                SimRaftKvNode.handle_envelope, "soak.node")),
            (SoakMonitor, "applied", recorder.timed(
                SoakMonitor.applied, "soak.monitor")),
            (SoakMonitor, "check_stall", recorder.timed(
                SoakMonitor.check_stall, "soak.monitor")),
            (SoakMonitor, "leader_elected", recorder.counted(
                SoakMonitor.leader_elected, "soak.elections")),
        ])
    from repro.core.testbed.scheduler import ActionScheduler
    from repro.core.testbed.statecheck import StateChecker
    from repro.core.testgen import generator
    from repro.faults.nemesis import Nemesis
    from repro.runtime.cluster import Cluster
    from repro.runtime.network import Network

    def waited(notification) -> None:
        recorder.count("testbed.match_waits")
        if notification is None:
            recorder.count("testbed.match_timeouts")

    return patched([
        (generator, "por_excluded_edges", recorder.timed(
            generator.por_excluded_edges, "testgen.por", keep=True)),
        (generator, "edge_coverage_paths", recorder.timed(
            generator.edge_coverage_paths, "testgen.traversal", keep=True)),
        (ActionScheduler, "wait_for", recorder.timed(
            ActionScheduler.wait_for, "testbed.match_wait", keep=True,
            on_result=waited)),
        (StateChecker, "compare", recorder.timed(
            StateChecker.compare, "testbed.compare", keep=True)),
        (Cluster, "deploy", recorder.timed(
            Cluster.deploy, "runtime.deploy", keep=True)),
        (Cluster, "shutdown", recorder.timed(
            Cluster.shutdown, "runtime.shutdown", keep=True)),
        (Network, "send", recorder.counted(Network.send, "runtime.sends")),
        (Nemesis, "apply", recorder.counted(
            Nemesis.apply, "faults.nemesis_applies")),
        (Nemesis, "heal_all", recorder.counted(
            Nemesis.heal_all, "faults.heals")),
    ])


def timing_fault_config(recorder: SpanRecorder):
    """``FaultConfig`` defaults with a clock that delegates to the wall
    clock and records each retry's backoff sleep as a span."""
    from repro.faults import FaultConfig
    from repro.runtime.clock import WALL_CLOCK, Clock

    class TimingClock(Clock):
        def now(self) -> float:
            return WALL_CLOCK.now()

        def sleep(self, dt: float) -> None:
            with recorder.span("faults.backoff"):
                WALL_CLOCK.sleep(dt)

    return FaultConfig(clock=TimingClock())


# Span name -> per-layer share metric of its self time.  Every traced
# second of a verdict is the self time of exactly one of these spans,
# so the shares add up to 100%; ``verdict`` itself holds the remainder.
SELF_TIME_LAYERS = {
    "tlaplus.check": "tlaplus.check",
    "engine.canonicalize": "engine.canonicalize",
    "analysis.independence": "analysis.independence",
    "testgen.generate": "testgen.build",
    "testgen.por": "testgen.por",
    "testgen.traversal": "testgen.traversal",
    "faults.plan": "faults.plan",
    "testbed.run_suite": "testbed.runner",
    "runtime.deploy": "runtime.deploy",
    "runtime.shutdown": "runtime.shutdown",
    "testbed.match_wait": "testbed.match_wait",
    "testbed.compare": "testbed.compare",
    "faults.backoff": "faults.backoff",
    "soak.run": "sim.loop_self",
    "soak.node": "soak.node",
    "soak.monitor": "soak.monitor",
    "verdict": "trace.unaccounted",
}


def traced_layers(recorder: SpanRecorder, it: Iteration) -> Dict[str, float]:
    """Per-layer seconds, shares of the traced verdict and counts."""
    out = dict(it.layers)
    verdict = it.verdict_s
    out["traced.verdict_s"] = verdict
    for span_name, layer in SELF_TIME_LAYERS.items():
        seconds = recorder.self_time.get(span_name, 0.0)
        out[f"{layer}_s"] = seconds
        out[f"{layer}_pct"] = 100.0 * seconds / verdict
    busy = recorder.busy
    for name in ("testbed.match_waits", "testbed.match_timeouts",
                 "runtime.sends", "faults.nemesis_applies",
                 "faults.heals", "soak.elections"):
        out[name] = recorder.counts.get(name, 0)
    out["testbed.compares"] = recorder.calls.get("testbed.compare", 0)
    out["faults.retries"] = recorder.calls.get("faults.backoff", 0)
    if "testbed.steps_s" in out:
        run_suite = busy.get("testbed.run_suite", 0.0)
        # the initial-state compare of each case runs in the deploy
        # phase but is counted in compare_s, so this understates the
        # steps' self time by that much
        out["testbed.enable_done_s"] = max(0.0, (
            out["testbed.steps_s"] - busy.get("testbed.match_wait", 0.0)
            - busy.get("testbed.compare", 0.0)
            - busy.get("faults.backoff", 0.0)))
        for phase in ("deploy", "steps", "end_check", "teardown",
                      "enable_done"):
            out[f"testbed.{phase}_pct"] = (
                100.0 * out[f"testbed.{phase}_s"] / verdict)
        out["testbed.fixed_wait_share"] = (
            100.0 * (out["testbed.end_check_s"] + out["testbed.teardown_s"])
            / run_suite if run_suite else 0.0)
    return out
