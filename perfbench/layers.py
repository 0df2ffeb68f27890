"""Outside-in per-layer tracing: wrap the program's public methods.

The benchmark edits nothing under ``src/``.  For the traced pass it
replaces each public method listed in :func:`install` with a wrapper
that times the call, and restores the originals afterwards.  Methods are
wrapped on their class; functions imported by name are wrapped in the
namespace of the module that calls them.

Spans are aggregated as they close instead of being stored one by one
(the fleet workload closes millions of them): per span name the tracer
keeps the call count, the inclusive time and the self time -- the
inclusive time minus the time covered by its child spans.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

import workloads
from repro.core.context import ContextTable
from repro.sched import cluster, faults, prepare, rack, simulator
from repro.sched.interconnect import Interconnect
from repro.sched.policies import POLICY_NAMES, make_policy
from repro.serving.admission import AdmissionController
from repro.workloads.generator import WorkloadGenerator

#: Spans whose calls and self time are reported as ``<name>.calls`` and
#: ``<name>.self_s`` (the ``simulator.step.*`` spans come from
#: :meth:`SpanTracer.wrap_step`).
TIMED_SPANS = (
    "simulator.run",
    "simulator.step.ARRIVAL",
    "simulator.step.COMPLETE",
    "simulator.step.PERIOD",
    "simulator.step.DISPATCH",
    "simulator.period_noready",
    "simulator.inject",
    "simulator.predicted_backlog",
    "simulator.backlog_lower_bound",
    "policies.on_period",
    "policies.select_ready",
    "context.ready",
    "context.add",
    "context.remove",
    "cluster.run",
    "rack.update",
    "rack.pick_rack",
    "admission.decide",
    "interconnect.transfer",
    "job.merge_runtimes",
    "job.partition_runtime",
    "prepare.build_workload",
)

#: Spans reported only by inclusive time.
INCLUSIVE_SPANS = {
    "workloads.generate": "workloads.generate_s",
    "metrics.compute": "metrics.compute_s",
}

#: Spans reported only by call count.
COUNTED_SPANS = {
    "faults.apply": "faults.transitions",
    "prepare.execution_profile": "prepare.profile_lookups",
    "prepare.profile_model": "prepare.profile_misses",
}


class SpanTracer:
    """Nested span timer with per-name aggregation."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.inclusive_ns: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        #: Wall time covered by outermost spans.
        self.top_ns = 0
        #: Sum and count of ready-queue depths seen at period ticks.
        self.ready_depth_sum = 0
        self.ready_depth_count = 0
        # One frame per open span: accumulated child nanoseconds.
        self._child_ns: List[int] = []
        self._undo: List[Tuple[object, str, object, bool]] = []

    # -- recording --------------------------------------------------------
    def _close(self, name: str, elapsed: int) -> int:
        """Close the innermost span; returns its self time."""
        own = elapsed - self._child_ns.pop()
        self._add(name, elapsed, own)
        if self._child_ns:
            self._child_ns[-1] += elapsed
        else:
            self.top_ns += elapsed
        return own

    def _add(self, name: str, elapsed: int, own: int) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.inclusive_ns[name] = self.inclusive_ns.get(name, 0) + elapsed
        self.self_ns[name] = self.self_ns.get(name, 0) + own

    def _timed(self, name: str, func: Callable) -> Callable:
        close = self._close
        frames = self._child_ns
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frames.append(0)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                close(name, clock() - start)

        return wrapper

    # -- installation -----------------------------------------------------
    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a timed wrapper named ``name``."""
        self._replace(owner, attr, self._timed(name, getattr(owner, attr)))

    def _replace(self, owner: object, attr: str, new: object) -> None:
        own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, new)

    def wrap_step(self) -> None:
        """``DeviceSim.step``, split by the kind of event it processed.

        A PERIOD step that found no queued or preempted task
        (``queue_depth == 0`` before the step) is additionally counted
        under ``simulator.period_noready``: the work a lazy period clock
        would skip.
        """
        original = simulator.DeviceSim.step
        close = self._close
        frames = self._child_ns
        clock = time.perf_counter_ns
        names: Dict[object, str] = {}

        def step(device):
            depth = device.queue_depth
            frames.append(0)
            start = clock()
            try:
                return original(device)
            finally:
                elapsed = clock() - start
                kind = device.last_event_kind
                name = names.get(kind)
                if name is None:
                    name = names[kind] = f"simulator.step.{kind.name}"
                own = close(name, elapsed)
                if depth == 0 and kind.name == "PERIOD":
                    self._add("simulator.period_noready", elapsed, own)

        self._replace(simulator.DeviceSim, "step", step)

    def wrap_on_period(self, cls: type) -> None:
        """``on_period`` plus the ready-queue depth it re-ranks."""
        inner = self._timed("policies.on_period", cls.on_period)

        def on_period(policy, table):
            self.ready_depth_sum += table.ready_count
            self.ready_depth_count += 1
            return inner(policy, table)

        self._replace(cls, "on_period", on_period)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old, own = self._undo.pop()
            if own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    # -- reporting --------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name in TIMED_SPANS:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_ns.get(name, 0) / 1e9
        for name, key in INCLUSIVE_SPANS.items():
            out[key] = self.inclusive_ns.get(name, 0) / 1e9
        for name, key in COUNTED_SPANS.items():
            out[key] = self.calls.get(name, 0)
        periods = self.calls.get("simulator.step.PERIOD", 0)
        out["simulator.period_noready_ratio"] = (
            self.calls.get("simulator.period_noready", 0) / periods
            if periods
            else 0.0
        )
        out["policies.ready_depth_at_period.mean"] = (
            self.ready_depth_sum / self.ready_depth_count
            if self.ready_depth_count
            else 0.0
        )
        return out


def policy_classes() -> List[type]:
    """The concrete classes :func:`make_policy` hands out."""
    classes: List[type] = []
    for name in POLICY_NAMES:
        cls = type(make_policy(name))
        if cls not in classes:
            classes.append(cls)
    return classes


def install(tracer: SpanTracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    tracer.wrap(simulator.NPUSimulator, "run", "simulator.run")
    tracer.wrap_step()
    for attr in ("inject", "predicted_backlog", "backlog_lower_bound"):
        tracer.wrap(simulator.DeviceSim, attr, f"simulator.{attr}")
    for cls in policy_classes():
        tracer.wrap_on_period(cls)
        tracer.wrap(cls, "select_ready", "policies.select_ready")
    for attr in ("ready", "add", "remove"):
        tracer.wrap(ContextTable, attr, f"context.{attr}")
    tracer.wrap(cluster.ClusterScheduler, "run", "cluster.run")
    tracer.wrap(rack.RackRouter, "update", "rack.update")
    tracer.wrap(rack.RackRouter, "pick_rack", "rack.pick_rack")
    tracer.wrap(AdmissionController, "decide", "admission.decide")
    tracer.wrap(Interconnect, "transfer", "interconnect.transfer")
    tracer.wrap(cluster, "merge_runtimes", "job.merge_runtimes")
    tracer.wrap(cluster, "partition_runtime", "job.partition_runtime")
    tracer.wrap(faults.FleetAvailability, "apply", "faults.apply")
    tracer.wrap(prepare.TaskFactory, "build_workload", "prepare.build_workload")
    tracer.wrap(
        prepare.TaskFactory, "execution_profile", "prepare.execution_profile"
    )
    tracer.wrap(prepare, "profile_model", "prepare.profile_model")
    tracer.wrap(WorkloadGenerator, "generate_many", "workloads.generate")
    tracer.wrap(faults.ChurnSchedule, "generate", "workloads.generate")
    # The benchmark's own workload module calls these by name.
    for attr in ("synthetic_trace_runtimes", "at_exact_load"):
        tracer.wrap(workloads, attr, "workloads.generate")
    for attr in ("aggregate_metrics", "compute_cluster_metrics"):
        tracer.wrap(workloads, attr, "metrics.compute")
