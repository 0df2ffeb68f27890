"""Multi-NPU node-level scheduling (the paper's Sec II-C future work).

The paper scopes itself to scheduling *after* Kubernetes routes requests
to one NPU and explicitly leaves node-level policy over multiple
preemptible NPUs as future work.  This module implements that layer as a
single **event-driven cluster simulation**: every device is a stepwise
:class:`~repro.sched.simulator.DeviceSim`, and one global loop interleaves
device events with cluster-level request arrivals in timestamp order.
Routing therefore happens *online* -- at the moment a request arrives the
router can read each device's live scheduler-visible state (context
tables, tokens, accounted progress of the running task) instead of only
the static arrival-order estimates.

Routing strategies (:class:`RoutingPolicy`):

``ROUND_ROBIN``
    Kubernetes-default rotation, blind to task sizes.
``RANDOM``
    Seeded uniform choice (the load-balancer strawman).
``LEAST_LOADED`` / ``STATIC``
    Predictive *static* routing: one up-front pass in arrival order
    assigns each request to the device whose estimated backlog lets it
    start earliest, using only the Algorithm-1 estimates (``STATIC`` is
    the same rule under the cluster-experiment naming).
``ONLINE_PREDICTED``
    Predictive *online* dispatch: the decision is deferred to the arrival
    event and uses each device's live predicted backlog -- estimated
    remaining cycles of its running + queued tasks, with the running
    task's progress refreshed to 'now'.  Tasks that finished earlier than
    predicted free their device immediately in the router's eyes, which
    static routing cannot see.
``WORK_STEALING``
    ``ONLINE_PREDICTED`` plus migration: whenever a device goes idle
    while another device still has *queued* (never-dispatched) tasks, the
    idle device steals the longest-estimated queued task from the most
    backlogged device.  Never-dispatched tasks carry no checkpoint state,
    so a migration moves only the context row (tokens travel with it).
``PREEMPTIVE_MIGRATION``
    ``WORK_STEALING`` plus *checkpoint migration*: when no queued task is
    stealable, an idle device pulls a **preempted** task -- one whose
    CONV/FC activations or RNN cell state already sit checkpointed in the
    source device's DRAM (``repro.npu.preemption``) -- by shipping that
    checkpoint over a modeled interconnect
    (:mod:`repro.sched.interconnect`): the transfer is charged real
    cycles, contends FIFO on its link, and the task only re-enters a
    ready queue when the bytes land.  Token accounting becomes
    cluster-global under this routing: a
    :class:`~repro.core.tokens.ClusterTokenLedger` keeps every device's
    Algorithm-2 candidate threshold consistent with the cluster-wide
    token maximum, so slowdown-normalized priority no longer depends on
    placement luck.

All strategies run through the same event loop; for the static strategies
each device's event sequence is identical to simulating its partition in
isolation, so pre-existing results remain bit-for-bit reproducible.

An optional SLA-aware frontend (:mod:`repro.serving`) can sit in front of
the online routings: arrivals then pass through a PCS-style admission
controller (accept / bounded defer / reject against per-QoS-class SLOs,
with estimates corrected online from observed completions) before they
reach a device.  Without a controller the admit-everything behavior is
preserved bit-for-bit.  See ``docs/serving.md``.
"""

from __future__ import annotations

import bisect
import dataclasses
import enum
import heapq
import math
import random
import time
from collections import deque
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.context import TaskState
from repro.core.tokens import ClusterTokenLedger
from repro.serving.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionRecord,
)
from repro.sched.faults import (
    ChurnEvent,
    ChurnSchedule,
    DeviceAvailability,
    FleetAvailability,
)
from repro.sched.interconnect import (
    CONTEXT_ROW_BYTES,
    Interconnect,
    InterconnectConfig,
    TransferRecord,
)
from repro.sched.job import (
    BatchConfig,
    Job,
    JobState,
    StagePlan,
    batch_key,
    merge_runtimes,
    partition_runtime,
    settle_member,
    stage_runtime,
)
from repro.obs.trace import NULL_TRACER
from repro.sched.policies import make_policy
from repro.sched.rack import RackRouter, RackTopology
from repro.sched.simulator import (
    DeviceSim,
    PreemptionMode,
    SimulationConfig,
    SimulationResult,
    _EventKind,
)
from repro.sched.task import TaskRuntime
from repro.sched.timeline import ClusterTimeline


class RoutingPolicy(enum.Enum):
    ROUND_ROBIN = "round-robin"
    LEAST_LOADED = "least-loaded"
    RANDOM = "random"
    STATIC = "static"
    ONLINE_PREDICTED = "online-predicted"
    WORK_STEALING = "work-stealing"
    PREEMPTIVE_MIGRATION = "preemptive-migration"


#: The single source of truth for routing classification.  Every member
#: of :class:`RoutingPolicy` MUST appear here exactly once; the module
#: refuses to import otherwise, so adding a routing can never silently
#: miss a static/online classification again.
_ROUTING_KIND: Dict[RoutingPolicy, str] = {
    RoutingPolicy.ROUND_ROBIN: "static",
    RoutingPolicy.LEAST_LOADED: "static",
    RoutingPolicy.RANDOM: "static",
    RoutingPolicy.STATIC: "static",
    RoutingPolicy.ONLINE_PREDICTED: "online",
    RoutingPolicy.WORK_STEALING: "online",
    RoutingPolicy.PREEMPTIVE_MIGRATION: "online",
}

_UNCLASSIFIED = [p for p in RoutingPolicy if p not in _ROUTING_KIND]
if _UNCLASSIFIED:  # pragma: no cover - tripped only by a bad enum edit
    raise RuntimeError(
        "RoutingPolicy members missing a static/online classification in "
        f"_ROUTING_KIND: {[p.value for p in _UNCLASSIFIED]}"
    )
_BAD_KINDS = {kind for kind in _ROUTING_KIND.values()} - {"static", "online"}
if _BAD_KINDS:  # pragma: no cover - tripped only by a bad table edit
    raise RuntimeError(f"unknown routing kinds in _ROUTING_KIND: {_BAD_KINDS}")

#: Strategies resolved by one up-front routing pass (arrival order).
STATIC_ROUTINGS = frozenset(
    policy for policy, kind in _ROUTING_KIND.items() if kind == "static"
)

#: Strategies deciding per-arrival against live device state.
ONLINE_ROUTINGS = frozenset(
    policy for policy, kind in _ROUTING_KIND.items() if kind == "online"
)

#: Policies whose ready-queue order serves higher priorities first, so a
#: higher-priority arrival does not wait behind queued lower-priority
#: work.  The admission predictor's ``min_priority`` filter only applies
#: under these (and only with preemption on); under FCFS/RRB an arrival
#: genuinely queues behind everything, and filtering would over-admit.
PRIORITY_DRIVEN_POLICIES = frozenset({"HPF", "TOKEN", "PREMA"})

#: Policies serving the shortest candidate first among equal ranks, so
#: an arrival only waits behind same-priority rows at most its own size
#: (the admission predictor's ``sjf_within_cycles`` refinement).
SHORTEST_FIRST_POLICIES = frozenset({"SJF", "TOKEN", "PREMA"})

#: Fleet size at which the O(log d) control plane pays for itself.  The
#: indexed and linear loops are decision-identical, so the default is a
#: pure cost choice: below this, enumerating the fleet is cheaper than
#: maintaining the index (measured crossover ~4-8 devices; the paper's
#: 1-4 NPU node settings keep the historical loop).
INDEXED_CONTROL_PLANE_MIN_DEVICES = 8

#: Sentinel distinguishing "caller did not pass this legacy keyword"
#: from any legitimate value (None included).
_UNSET = object()


@dataclasses.dataclass(frozen=True)
class ClusterConfig:
    """Everything a :class:`ClusterScheduler` needs beyond the fleet shape.

    The preferred construction surface: ``ClusterScheduler(n, sim_config,
    config=ClusterConfig(...))``.  The scheduler's historical keyword
    sprawl (``policy_name=``, ``routing=``, ...) remains as a deprecated
    compatibility path that assembles one of these internally; new knobs
    (``batching``) land here first.

    ``interconnect`` None means a PCIe-gen3 bus at the NPU clock;
    ``global_tokens`` None means "on exactly for PREEMPTIVE_MIGRATION";
    ``use_indexes`` None means "on from
    ``INDEXED_CONTROL_PLANE_MIN_DEVICES`` devices up" -- the same
    defaults the legacy keywords resolved.
    """

    policy_name: str = "PREMA"
    routing: RoutingPolicy = RoutingPolicy.LEAST_LOADED
    seed: int = 0
    interconnect: Optional[InterconnectConfig] = None
    global_tokens: Optional[bool] = None
    admission: Optional[AdmissionController] = None
    use_indexes: Optional[bool] = None
    verify_indexes: bool = False
    #: Router-level batching / pipeline sharding (repro.sched.job).  None
    #: keeps the task-per-dispatch behavior bit-for-bit.
    batching: Optional[BatchConfig] = None
    #: Device churn (repro.sched.faults): fail-stop faults, spot
    #: revocations with advance warning, maintenance drains.  None keeps
    #: the always-healthy fleet bit-for-bit.
    churn: Optional[ChurnSchedule] = None
    #: With churn: drain a warned device's durable checkpoints to healthy
    #: peers before the deadline (Parcae-style liveput protection) and
    #: checkpoint-then-migrate its running task when the window affords
    #: it.  False is the reactive-restart baseline (losses recovered only
    #: after the fact).  Ignored without ``churn``.
    proactive_migration: bool = True
    #: Rack hierarchy (repro.sched.rack).  None keeps the flat fleet
    #: bit-for-bit.  With a topology: arrivals route in two tiers (least
    #: aggregate-backlog rack, then least-backlog device within it), the
    #: fabric grows an oversubscribed uplink tier (see
    #: ``InterconnectConfig.uplink_oversubscription``), and steal /
    #: migrate / evacuation source selection becomes locality-aware.
    #: Requires the indexed control plane (the rack frontend *is* an
    #: index structure); a single-rack topology replays the flat cluster
    #: decision-for-decision.
    racks: Optional[RackTopology] = None
    #: Starvation-gap threshold (cycles) a cross-rack steal or migration
    #: must clear before leaving the rack: the gain of moving must beat
    #: the uplink's cost.  None derives it from the fabric -- the
    #: uncontended cross-rack shipment cost of one context row.  Ignored
    #: without ``racks``.
    cross_rack_threshold_cycles: Optional[float] = None
    #: Observability (repro.obs, docs/observability.md).  All three are
    #: observational only -- scheduling decisions are identical with or
    #: without them, and ``None`` (the default) keeps every hot path
    #: allocation-free (the no-op tracer singleton is threaded through).
    #: ``tracer``: a :class:`repro.obs.trace.Tracer` collecting typed
    #: span/instant events for Chrome-trace/Perfetto export.
    tracer: Optional[object] = None
    #: ``metrics_sampler``: a :class:`repro.obs.metrics.MetricsSampler`
    #: sampling utilization / queue depth / backlog / admission-rate /
    #: SLA gauges on its cycle interval into bounded ring buffers.
    metrics_sampler: Optional[object] = None
    #: ``profiler``: a :class:`repro.obs.profile.HotPathProfiler`
    #: attributing control-plane wall time per event kind (route, steal,
    #: migrate, admission, index maintenance, churn handling).
    profiler: Optional[object] = None
    #: Parallel backend (repro.sched.parallel): shard the fleet by rack
    #: across this many worker processes under conservative PDES
    #: synchronization.  ``None`` or ``1`` runs today's serial loop
    #: untouched; ``N >= 2`` engages the parallel backend for supported
    #: configurations (static routings without churn; ONLINE_PREDICTED /
    #: WORK_STEALING over multi-rack fleets -- see
    #: ``repro.sched.parallel.supported_reason``) and transparently
    #: falls back to the serial loop otherwise.  Results are bit-for-bit
    #: identical either way.
    workers: Optional[int] = None


def _fleet_events_by_kind(devices: Sequence[DeviceSim]) -> Dict[str, int]:
    """Per-kind device event counts summed over the fleet."""
    totals = {kind.name: 0 for kind in _EventKind}
    for device in devices:
        for name, count in device.events_by_kind.items():
            totals[name] += count
    return totals


@dataclasses.dataclass(frozen=True)
class MigrationRecord:
    """One migration of a task between devices.

    ``kind`` is ``"steal"`` for a row-only move (a never-dispatched
    task, or a KILL victim restarting from scratch) and ``"checkpoint"``
    when the task's saved state moved with it; ``arrival_cycles`` is
    when the task re-entered a ready queue at the destination.  Under
    ``WORK_STEALING`` steals are instantaneous (``arrival_cycles ==
    time_cycles``); under ``PREEMPTIVE_MIGRATION`` *every* move -- steals
    included -- crosses the interconnect and carries real in-flight
    latency.
    """

    task_id: int
    from_device: int
    to_device: int
    time_cycles: float
    kind: str = "steal"
    bytes_moved: float = 0.0
    arrival_cycles: float = 0.0

    @property
    def latency_cycles(self) -> float:
        """Cycles the task spent in flight (0 for WORK_STEALING steals)."""
        return max(0.0, self.arrival_cycles - self.time_cycles)


@dataclasses.dataclass(frozen=True)
class BatchRecord:
    """One router dispatch under the gang loop (batched or solo).

    ``proxy_task_id`` is the runtime the devices actually executed (a
    merged batch proxy, or the lone member itself); ``member_task_ids``
    are the end-user requests settled from it.  ``devices`` are the
    gang's reserved stage placements at dispatch (stage order) -- slices
    may later move via stealing/migration.
    """

    proxy_task_id: int
    member_task_ids: Tuple[int, ...]
    dispatch_cycles: float
    num_stages: int
    devices: Tuple[int, ...]

    @property
    def batch_size(self) -> int:
        return len(self.member_task_ids)


@dataclasses.dataclass(frozen=True)
class ClusterResult:
    """Outcome of one cluster run.

    ``tasks`` holds the tasks the cluster *executed*.  Without admission
    control that is every offered task; with an
    :class:`~repro.serving.admission.AdmissionController` attached,
    rejected arrivals never run and appear in ``rejected_tasks`` instead
    (``offered_tasks`` reunites both populations for SLA accounting).
    """

    tasks: Tuple[TaskRuntime, ...]
    device_results: Tuple[Optional[SimulationResult], ...]
    #: Final placement: task id -> the device that executed it.
    assignments: Dict[int, int]
    routing: str = ""
    migrations: Tuple[MigrationRecord, ...] = ()
    timeline: Optional[ClusterTimeline] = None
    #: Interconnect transfers behind the checkpoint migrations.
    transfers: Tuple[TransferRecord, ...] = ()
    #: Every admission decision taken, in decision order (empty without
    #: an admission controller).
    admission_records: Tuple[AdmissionRecord, ...] = ()
    #: Arrivals the admission controller refused; they never executed.
    rejected_tasks: Tuple[TaskRuntime, ...] = ()
    #: Total device events processed across the fleet (introspection /
    #: benchmarking: per-event control-plane cost = wall time / this).
    events_processed: int = 0
    #: The same count split by device event kind (COMPLETE, ARRIVAL,
    #: PERIOD, DISPATCH); see ``SimulationResult.events_by_kind``.
    events_by_kind: Mapping[str, int] = dataclasses.field(
        default_factory=dict
    )
    #: The jobs this run executed, when driven through the job surface
    #: (run_jobs / batching).  Empty for plain task runs.
    jobs: Tuple[Job, ...] = ()
    #: One record per router dispatch under the gang loop (solo dispatches
    #: included, so mean batch size is directly computable).
    batches: Tuple[BatchRecord, ...] = ()
    #: Tasks destroyed by device churn with no surviving capacity to
    #: recover them; they never completed and never will.
    lost_tasks: Tuple[TaskRuntime, ...] = ()
    #: Device -> rack map when the run used a rack topology (None for a
    #: flat fleet); the metrics layer derives per-rack attainment and
    #: uplink accounting from it.
    rack_of: Optional[Tuple[int, ...]] = None

    @property
    def num_devices(self) -> int:
        return len(self.device_results)

    @property
    def batch_count(self) -> int:
        """Router dispatches that coalesced more than one request."""
        return sum(1 for batch in self.batches if batch.batch_size > 1)

    @property
    def mean_batch_size(self) -> float:
        """Mean requests per router dispatch (1.0 when batching is off)."""
        if not self.batches:
            return 1.0 if self.tasks else 0.0
        return sum(batch.batch_size for batch in self.batches) / len(
            self.batches
        )

    @property
    def sharded_job_count(self) -> int:
        """Dispatches that ran as multi-slice pipeline gangs."""
        return sum(1 for batch in self.batches if batch.num_stages > 1)

    @property
    def activation_bytes_total(self) -> float:
        """Inter-stage boundary bytes shipped over the fabric."""
        return sum(
            record.num_bytes
            for record in self.transfers
            if record.purpose == "activation"
        )

    @property
    def offered_tasks(self) -> Tuple[TaskRuntime, ...]:
        """Executed + rejected + lost: everything the frontend was asked."""
        return self.tasks + self.rejected_tasks + self.lost_tasks

    @property
    def rejection_rate(self) -> float:
        """Fraction of offered tasks the frontend refused."""
        offered = (
            len(self.tasks) + len(self.rejected_tasks) + len(self.lost_tasks)
        )
        return len(self.rejected_tasks) / offered if offered else 0.0

    @property
    def deferral_count(self) -> int:
        """Total defer decisions (a task may defer more than once)."""
        return sum(
            1
            for record in self.admission_records
            if record.decision is AdmissionDecision.DEFER
        )

    @property
    def migration_count(self) -> int:
        return len(self.migrations)

    @property
    def checkpoint_migration_count(self) -> int:
        return sum(1 for m in self.migrations if m.kind == "checkpoint")

    @property
    def migrated_bytes_total(self) -> float:
        return sum(m.bytes_moved for m in self.migrations)

    @property
    def makespan_cycles(self) -> float:
        """Latest completion across devices (0 when nothing executed --
        possible only when admission rejected every arrival)."""
        spans = [
            result.makespan_cycles
            for result in self.device_results
            if result is not None
        ]
        return max(spans) if spans else 0.0

    def device_utilization(self) -> List[float]:
        """Busy fraction of each device over the cluster makespan."""
        span = self.makespan_cycles
        utilization = []
        for result in self.device_results:
            if result is None or span == 0:
                utilization.append(0.0)
            else:
                utilization.append(result.timeline.busy_cycles() / span)
        return utilization


class _OrderedIndexSet:
    """Device-index set that stays sorted: O(1) membership, amortized
    O(log k) + memmove insertion, and ascending iteration without a
    per-event ``sorted()``.

    The PR-5 candidate sets were plain ``set``s, and every steal/migrate
    consultation paid ``sorted(...)`` to recover the reference scan's
    ascending device order -- O(k log k) per event, which is what bent
    the per-event cost curve past ~1k devices.  This keeps the members
    in a bisect-maintained list instead, so iteration is a plain copy.
    """

    __slots__ = ("_members", "_sorted")

    def __init__(self) -> None:
        self._members: Set[int] = set()
        self._sorted: List[int] = []

    def add(self, index: int) -> None:
        if index not in self._members:
            self._members.add(index)
            bisect.insort(self._sorted, index)

    def discard(self, index: int) -> None:
        if index in self._members:
            self._members.remove(index)
            del self._sorted[bisect.bisect_left(self._sorted, index)]

    def ordered(self) -> List[int]:
        """Ascending snapshot, safe to iterate while the set mutates."""
        return list(self._sorted)

    def __contains__(self, index: int) -> bool:
        return index in self._members

    def __bool__(self) -> bool:
        return bool(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(self._sorted)


class _ClusterIndexes:
    """O(log d)-per-event control-plane indexes over a device fleet.

    Three structures replace the cluster loop's per-event linear scans.
    Each is *re-plumbing only*: every consultation returns exactly what
    the reference scan over all devices returns (the golden suites and
    ``tests/test_cluster_indexes.py`` pin this), it just stops paying
    O(d) -- or, for work stealing, O(d^2) -- to find it.

    - **Device-event heap** -- a lazy-deletion min-heap of ``(time,
      kind-rank, device)`` entries mirroring each device's
      ``next_event_key()``.  Devices invalidate/refresh their entry
      through :attr:`DeviceSim.on_next_event_change`; stale entries are
      discarded when they surface (the PR-2 policy-heap discipline).
      Ties at equal ``(time, kind)`` break to the lowest device index,
      exactly like the linear scan.
    - **Backlog-bound heap** -- a lazy-deletion min-heap of ``(backlog
      lower bound, device)`` entries keyed on
      :meth:`DeviceSim.backlog_lower_bound`, refreshed at every device
      mutation (inject / step / migration edges).  Routing runs a
      best-first search: pop candidates in bound order, compute the
      *exact* ``predicted_backlog(now) + inbound`` for each, and stop as
      soon as the heap top can no longer beat the best exact key --
      sound because every unexamined device's exact key is at least its
      bound key.  The argmin (ties to the lowest index) is therefore
      identical to the full scan's, float-for-float, while only devices
      whose bound undercuts the winner are ever touched.
    - **Candidate device sets** -- ``idle_candidates`` (devices whose
      time-independent idle clauses hold, a superset of the truly idle),
      ``steal_candidates`` (devices holding queued work), and
      ``source_candidates`` (queued or preempted work).  ``_steal`` /
      ``_migrate`` iterate these in device order and re-check the exact
      time-dependent predicates per candidate, so the common no-idle
      event costs O(1) instead of an O(d) fleet enumeration.

    With ``verify=True`` every consultation additionally runs the
    reference scan and raises on any divergence (the property tests'
    index-vs-linear-scan harness).
    """

    #: Trace sink (class attr = no per-instance cost when unobserved);
    #: the scheduler rebinds it right after construction when tracing.
    tracer = NULL_TRACER

    def __init__(self, devices: Sequence[DeviceSim], verify: bool = False) -> None:
        self._devices = devices
        self.verify = verify
        num = len(devices)
        self._event_key: List[Optional[Tuple[float, int]]] = [None] * num
        self._event_heap: List[Tuple[float, int, int]] = []
        self._backlog_bound: List[float] = [0.0] * num
        # Pre-seeded with every device at bound 0.0 (an ascending list is
        # already a valid heap); refresh() only pushes on bound *moves*.
        self._backlog_heap: List[Tuple[float, int]] = [
            (0.0, index) for index in range(num)
        ]
        self._heap_cap = 4 * num + 64
        self.idle_candidates = _OrderedIndexSet()
        self.steal_candidates = _OrderedIndexSet()
        self.source_candidates = _OrderedIndexSet()
        for device in devices:
            device.on_next_event_change = self._on_event_change
            self._on_event_change(device)
            self.refresh(device)

    # ------------------------------------------------------------------
    # Device-event heap
    # ------------------------------------------------------------------
    def _on_event_change(self, device: DeviceSim) -> None:
        index = device.device_id
        key = device.next_event_key()
        self._event_key[index] = key
        if key is not None:
            heapq.heappush(self._event_heap, (key[0], key[1], index))
            if len(self._event_heap) > self._heap_cap:
                self._event_heap = [
                    (current[0], current[1], idx)
                    for idx, current in enumerate(self._event_key)
                    if current is not None
                ]
                heapq.heapify(self._event_heap)

    def peek_next_device(
        self,
    ) -> Tuple[Optional[int], Optional[Tuple[float, int]]]:
        """(device index, (time, kind-rank)) of the earliest device event.

        Lazy deletion: entries whose key no longer matches the device's
        live ``next_event_key()`` are dropped as they surface.  Returns
        ``(None, None)`` when every device is dormant.
        """
        heap = self._event_heap
        keys = self._event_key
        found: Tuple[Optional[int], Optional[Tuple[float, int]]] = (None, None)
        while heap:
            time_, rank, index = heap[0]
            if keys[index] != (time_, rank):
                heapq.heappop(heap)
                continue
            found = (index, (time_, rank))
            break
        if self.verify:
            reference: Tuple[Optional[int], Optional[Tuple[float, int]]] = (
                None,
                None,
            )
            for index, device in enumerate(self._devices):
                key = device.next_event_key()
                if key is not None and (
                    reference[1] is None or key < reference[1]
                ):
                    reference = (index, key)
            if reference != found:
                raise AssertionError(
                    f"event heap peeked {found}, reference scan {reference}"
                )
        return found

    # ------------------------------------------------------------------
    # Backlog index + candidate sets
    # ------------------------------------------------------------------
    def refresh(self, device: DeviceSim) -> None:
        """Re-key every per-device structure after a device mutation.

        O(live) for the backlog bound (the same cost one reference-scan
        visit paid), O(1) set updates.  Must run after every ``step``,
        ``inject``, and ``remove_task`` so the bound invariant (bound <=
        exact backlog at any later instant) and the candidate supersets
        stay valid.
        """
        index = device.device_id
        # A non-accepting device (churn: doomed or down) sinks to the
        # bottom of the backlog heap so best-first routing never reaches
        # it while any accepting device exists; restore re-keys it live.
        bound = (
            device.backlog_lower_bound() if device.accepts_work else math.inf
        )
        if bound != self._backlog_bound[index]:
            # An unchanged bound leaves the device's resident heap entry
            # valid (entries are validated by value), so only actual
            # moves pay a push.
            self._backlog_bound[index] = bound
            heapq.heappush(self._backlog_heap, (bound, index))
            if len(self._backlog_heap) > self._heap_cap:
                self._backlog_heap = [
                    (value, idx)
                    for idx, value in enumerate(self._backlog_bound)
                ]
                heapq.heapify(self._backlog_heap)
        if device.maybe_idle:
            self.idle_candidates.add(index)
        else:
            self.idle_candidates.discard(index)
        if device.has_queued:
            self.steal_candidates.add(index)
            self.source_candidates.add(index)
        else:
            self.steal_candidates.discard(index)
            if device.has_preempted:
                self.source_candidates.add(index)
            else:
                self.source_candidates.discard(index)

    def route_min_backlog(self, now: float, inbound) -> Tuple[int, float]:
        """Device with the least ``predicted_backlog(now) + inbound(d)``;
        ties break to the lowest device index.  Returns (device, its
        exact backlog) -- the same pair the linear scan derives.

        Best-first search over the bound heap: examined candidates get
        their exact backlog computed (and are re-pushed unchanged); the
        search stops once the top bound entry cannot beat the best exact
        key, which covers every unexamined device since exact >= bound.
        """
        best_key, best_backlog = self._best_first(self._backlog_heap, now, inbound)
        if best_key is None:
            raise RuntimeError("backlog index has no live device entries")
        if self.verify:
            devices = self._devices
            reference = min(
                (d for d in range(len(devices)) if devices[d].accepts_work),
                key=lambda d: (
                    devices[d].predicted_backlog(now) + inbound(d),
                    d,
                ),
            )
            if reference != best_key[1]:
                raise AssertionError(
                    f"backlog index routed to device {best_key[1]}, "
                    f"reference scan to {reference}"
                )
        return best_key[1], best_backlog

    def _best_first(
        self, heap: List[Tuple[float, int]], now: float, inbound
    ) -> Tuple[Optional[Tuple[float, int]], float]:
        """One best-first pass over a (bound, device) lazy heap; returns
        ((backlog, device), backlog) of the argmin, or (None, 0.0) when
        the heap holds no accepting device."""
        bounds = self._backlog_bound
        devices = self._devices
        examined: List[Tuple[float, int]] = []
        best_key: Optional[Tuple[float, int]] = None
        best_backlog = 0.0
        while heap:
            bound, index = heap[0]
            if bounds[index] != bound:
                heapq.heappop(heap)
                continue
            if best_key is not None and (bound, index) >= best_key:
                break
            examined.append(heapq.heappop(heap))
            if not devices[index].accepts_work:
                # Churn: an inf-bound entry surfaced because every
                # accepting device was examined; skip (but keep the
                # entry -- the device re-keys live at restore).
                continue
            backlog = devices[index].predicted_backlog(now) + inbound(index)
            key = (backlog, index)
            if best_key is None or key < best_key:
                best_key, best_backlog = key, backlog
        for entry in examined:
            heapq.heappush(heap, entry)
        return best_key, best_backlog

    def admission_candidates(self) -> Sequence[int]:
        """Devices the class-aware admission fallback scans (the whole
        fleet here; the rack frontend narrows it to the chosen rack)."""
        return range(len(self._devices))

    def verify_candidate_sets(self, now: float) -> None:
        """Reference check: the sets cover every true candidate."""
        for index, device in enumerate(self._devices):
            if device.is_idle(now) and index not in self.idle_candidates:
                raise AssertionError(
                    f"idle device {index} missing from idle_candidates"
                )
            if device.stealable_tasks() and index not in self.steal_candidates:
                raise AssertionError(
                    f"device {index} with stealable work missing from "
                    "steal_candidates"
                )
            if (
                device.stealable_tasks()
                or device.migratable_preempted_tasks(now)
            ) and index not in self.source_candidates:
                raise AssertionError(
                    f"device {index} with migratable work missing from "
                    "source_candidates"
                )


class _RackIndexes(_ClusterIndexes):
    """The two-tier rack frontend over the per-device control plane.

    Adds a :class:`~repro.sched.rack.RackRouter` on top of the PR-5
    indexes: every device-bound move ``refresh`` observes is folded into
    the device's rack aggregate (O(log r)), and routing picks the rack
    with the least aggregate corrected backlog before running the
    per-device best-first search *within* that rack only.  The
    class-aware admission fallback narrows its linear scan to the chosen
    rack the same way ("predict against the chosen rack's surviving
    capacity").

    A single-rack topology is decision-identical to the flat indexes:
    the rack pick is trivial and the rack's device heap holds the whole
    fleet (``tests/test_rack.py`` pins this bit-for-bit).
    """

    def __init__(
        self,
        devices: Sequence[DeviceSim],
        topology: RackTopology,
        verify: bool = False,
    ) -> None:
        if topology.num_devices != len(devices):
            raise ValueError(
                f"rack topology covers {topology.num_devices} devices, "
                f"fleet has {len(devices)}"
            )
        # The base initializer runs refresh() per device; the router
        # attaches afterwards and reconciles any bound that moved during
        # construction (devices start empty, so normally none do).
        self._router: Optional[RackRouter] = None
        super().__init__(devices, verify=verify)
        self._router = RackRouter(topology, self._backlog_bound)
        self.topology = topology
        for index, bound in enumerate(self._backlog_bound):
            if bound != 0.0:
                self._router.update(index, 0.0, bound)

    def refresh(self, device: DeviceSim) -> None:
        index = device.device_id
        old_bound = self._backlog_bound[index]
        super().refresh(device)
        new_bound = self._backlog_bound[index]
        if self._router is not None and new_bound != old_bound:
            self._router.update(index, old_bound, new_bound)

    def pick_rack(self) -> int:
        """Least aggregate-backlog rack (the O(log r) frontend tier)."""
        assert self._router is not None
        if self.verify:
            self._router.verify_sums(self._backlog_bound)
        rack = self._router.pick_rack()
        if rack is None:
            raise RuntimeError("rack frontend has no accepting rack")
        return rack

    def route_min_backlog(self, now: float, inbound) -> Tuple[int, float]:
        """Two-tier argmin: frontend rack pick, then in-rack best-first.

        Deliberately *not* the flat fleet-wide argmin (a rack-scale
        frontend ranks racks by aggregate, not devices by exact
        backlog); with one rack the two coincide exactly.
        """
        assert self._router is not None
        rack = self.pick_rack()
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(
                "rack_pick", f"rack_pick r{rack}", now, args={"rack": rack}
            )
        best_key, best_backlog = self._best_first(
            self._router.device_heap(rack), now, inbound
        )
        if best_key is None:
            raise RuntimeError(
                f"rack {rack} frontend key is live but holds no accepting "
                "device"
            )
        if self.verify:
            devices = self._devices
            reference = min(
                (
                    d
                    for d in self._router.topology.devices_in(rack)
                    if devices[d].accepts_work
                ),
                key=lambda d: (
                    devices[d].predicted_backlog(now) + inbound(d),
                    d,
                ),
            )
            if reference != best_key[1]:
                raise AssertionError(
                    f"rack {rack} best-first routed to device "
                    f"{best_key[1]}, in-rack reference scan to {reference}"
                )
        return best_key[1], best_backlog

    def admission_candidates(self) -> Sequence[int]:
        """The chosen rack's devices: admission predicts against the
        rack's surviving capacity, not the whole fleet."""
        assert self._router is not None
        return self._router.topology.devices_in(self.pick_rack())


class _ChurnRuntime:
    """Churn mechanics shared by both cluster event loops.

    Owns the :class:`~repro.sched.faults.FleetAvailability` machine and
    applies its transitions to the live fleet:

    - **warn** (proactive mode): the device stops accepting new work
      (routing, stealing, admission and idle indexes all exclude it) and
      its evacuable state drains to healthy peers over the interconnect
      -- durable checkpoints and queued rows ship immediately, a running
      task that cannot finish inside the window is checkpoint-then-
      migrated when the trap DMA plus transfer fit before the deadline
      (the Parcae-style liveput protection).  Reactive mode records the
      state change and does nothing else.
    - **down**: in-flight transfers to the device are cancelled on their
      links, its non-durable progress dies (:meth:`DeviceSim.fail`), and
      the orphans are handed to the loop's ``on_orphans`` callback for
      re-dispatch (or parking, when no capacity survives).
    - **restore**: the device re-enters every routing structure and the
      loop's ``on_restore`` callback re-places parked work.
    - **check**: a self-scheduled revisit (e.g. at a forced checkpoint's
      durability instant) that re-runs evacuation while the device is
      still doomed.

    The loop processes a transition whenever it precedes the next device
    event at same-time-completion-first / before-same-time-arrival rank
    (between :data:`_EventKind.COMPLETE` and ``ARRIVAL``).
    """

    def __init__(
        self,
        schedule: ChurnSchedule,
        devices: Sequence[DeviceSim],
        indexes: Optional[_ClusterIndexes],
        fabric: Optional[Interconnect],
        inflight: Dict[int, List[Tuple[float, float, int]]],
        assignments: Dict[int, int],
        migrations: List[MigrationRecord],
        ledger: Optional[ClusterTokenLedger],
        proactive: bool,
    ) -> None:
        self.fleet = FleetAvailability(len(devices), schedule)
        self.devices = devices
        self.indexes = indexes
        self.fabric = fabric
        self.inflight = inflight
        self.assignments = assignments
        self.migrations = migrations
        self.ledger = ledger
        self.proactive = proactive
        #: Work with nowhere to go while no device accepts (re-placed at
        #: the next restore; lost if the fleet never recovers).  The task
        #: loop parks TaskRuntimes, the gang loop parks Jobs.
        self.parked: list = []
        #: Loop-specific hooks, set by the owning loop before it runs.
        self.on_orphans: Optional[Callable] = None
        self.on_restore: Optional[Callable] = None
        #: The churn event whose warning window a device is inside.
        self._active_event: Dict[int, ChurnEvent] = {}
        #: Tasks already force-checkpointed in the current window, per
        #: device -- a failed shipment must not re-trap the same task.
        self._forced: Dict[int, Set[int]] = {}
        #: Observability (repro.obs): set by the owning loop.  The
        #: tracer rides on ``fleet.tracer`` (transition instants) and
        #: this attribute (evacuation migration spans); the profiler
        #: attributes churn-handling wall time.
        self.tracer = NULL_TRACER
        self.profiler = None

    # -- loop-facing surface -------------------------------------------
    def peek_time(self) -> Optional[float]:
        return self.fleet.peek_time()

    def any_accepting(self) -> bool:
        return any(device.accepts_work for device in self.devices)

    def process_next(self) -> None:
        prof = self.profiler
        if prof is None:
            self._process_next()
            return
        start_ns = time.perf_counter_ns()
        self._process_next()
        prof.add("churn", time.perf_counter_ns() - start_ns)

    def _process_next(self) -> None:
        transition = self.fleet.pop()
        now = transition.time_cycles
        index = transition.device
        device = self.devices[index]
        if transition.phase == "warn":
            self.fleet.apply(transition)
            if transition.event is not None:
                self._active_event[index] = transition.event
            if self.proactive:
                device.stop_accepting(now)
                self._refresh(device)
                self._evacuate(index, now)
        elif transition.phase == "down":
            self.fleet.apply(transition)
            self._active_event.pop(index, None)
            self._forced.pop(index, None)
            if self.fabric is not None:
                self.fabric.cancel_transfers_to(index, now)
            self.inflight[index].clear()
            orphans = device.fail(now)
            self._refresh(device)
            if self.on_orphans is not None:
                self.on_orphans(orphans, now)
        elif transition.phase == "restore":
            self.fleet.apply(transition)
            self._active_event.pop(index, None)
            self._forced.pop(index, None)
            device.accepts_work = True
            self._refresh(device)
            if self.on_restore is not None:
                self.on_restore(now)
        else:  # "check": revisit a still-doomed device's evacuation
            if self.proactive and self.fleet.state(index) in (
                DeviceAvailability.WARNED,
                DeviceAvailability.DRAINING,
            ):
                self._evacuate(index, now)

    def after_step(self, device: DeviceSim, now: float) -> None:
        """Opportunistic re-evacuation after a doomed device's own event
        (a completion frees the array; a dispatch may have started work
        that now needs the checkpoint-then-migrate decision)."""
        if not self.proactive:
            return
        index = device.device_id
        if self.fleet.state(index) in (
            DeviceAvailability.WARNED,
            DeviceAvailability.DRAINING,
        ):
            prof = self.profiler
            if prof is None:
                self._evacuate(index, now)
                return
            start_ns = time.perf_counter_ns()
            self._evacuate(index, now)
            prof.add("churn", time.perf_counter_ns() - start_ns)

    # -- mechanics ------------------------------------------------------
    def _refresh(self, device: DeviceSim) -> None:
        if self.indexes is not None:
            self.indexes.refresh(device)

    def _pick_target(self, src_index: int, now: float) -> Optional[int]:
        """Least-backlog accepting device other than the source.

        Under a rack topology the evacuation target prefers rack-local
        survivors (the rack-local tier is the cheap path for the
        checkpoints about to ship); cross-rack landing spots are used
        only when the source's whole rack has stopped accepting.
        """
        rack_of = self.fabric.rack_of if self.fabric is not None else None
        best: Optional[int] = None
        best_key: Optional[Tuple[int, float, int]] = None
        for device in self.devices:
            index = device.device_id
            if index == src_index or not device.accepts_work:
                continue
            remote = (
                0
                if rack_of is None or rack_of[index] == rack_of[src_index]
                else 1
            )
            key = (
                remote,
                device.predicted_backlog(now)
                + ClusterScheduler._inbound_backlog(self.inflight, index, now),
                index,
            )
            if best_key is None or key < best_key:
                best, best_key = index, key
        return best

    def _ship(
        self, src_index: int, dst_index: int, task_id: int, now: float
    ) -> None:
        """Move one QUEUED/PREEMPTED task over the fabric (the
        :meth:`ClusterScheduler._migrate` mechanics, evacuation-driven)."""
        assert self.fabric is not None
        src = self.devices[src_index]
        dst = self.devices[dst_index]
        task = src.remove_task(task_id, now)
        ships_checkpoint = task.checkpoint_bytes_resident > 0
        payload = task.checkpoint_bytes_resident + CONTEXT_ROW_BYTES
        record = self.fabric.transfer(
            src_index, dst_index, payload, now, task_id=task.task_id
        )
        task.context.state = TaskState.MIGRATING
        task.context.accrue_wait(record.end_cycles)
        if self.ledger is not None:
            self.ledger.activate(task.task_id, task.context.tokens)
        task.migration_count += 1
        task.migrated_bytes_total += payload
        dst.inject(task, arrival=record.end_cycles)
        self._refresh(src)
        self._refresh(dst)
        self.assignments[task.task_id] = dst_index
        self.inflight[dst_index].append(
            (record.end_cycles, task.context.estimated_remaining_cycles,
             int(task.context.priority))
        )
        self.migrations.append(
            MigrationRecord(
                task_id=task.task_id,
                from_device=src_index,
                to_device=dst_index,
                time_cycles=now,
                kind="checkpoint" if ships_checkpoint else "steal",
                bytes_moved=payload,
                arrival_cycles=record.end_cycles,
            )
        )
        if self.tracer.enabled:
            self.tracer.span(
                "migration",
                f"evacuate t{task.task_id} d{src_index}->d{dst_index}",
                now,
                record.end_cycles,
                args={
                    "task": task.task_id,
                    "from": src_index,
                    "to": dst_index,
                    "bytes": payload,
                    "reason": "evacuation",
                },
            )

    def _evacuate(self, src_index: int, now: float) -> None:
        """Drain a doomed device toward its revocation deadline.

        Ships evacuable state (queued rows, durable checkpoints) in
        value order -- highest priority, then most tokens, then longest
        remaining -- while the contended link still lands each payload
        before the deadline.  The running task is left alone when it
        finishes inside the window; otherwise it is force-checkpointed
        once (per window) when the trap DMA plus shipment fit, and a
        ``check`` transition revisits at durability to ship it.
        """
        event = self._active_event.get(src_index)
        if event is None or self.fabric is None:
            return
        deadline = event.down_cycles
        src = self.devices[src_index]

        def value(task: TaskRuntime):
            context = task.context
            return (
                float(int(context.priority)),
                context.tokens,
                context.estimated_remaining_cycles,
                -task.task_id,
            )

        progress = True
        while progress:
            progress = False
            # value() reads exact token counts: settle the grants first.
            # Churn items sort before a same-time tick, and after_step
            # evacuates the stepped device itself, so the device's own
            # event order decides a tick at exactly ``now``.
            src.settle_grants(now)
            candidates = src.stealable_tasks()
            candidates += src.migratable_preempted_tasks(now)
            for task in sorted(candidates, key=value, reverse=True):
                target = self._pick_target(src_index, now)
                if target is None:
                    return  # nowhere to evacuate to
                payload = task.checkpoint_bytes_resident + CONTEXT_ROW_BYTES
                landing = self.fabric.estimate_arrival(
                    src_index, target, payload, now
                )
                if landing > deadline:
                    continue  # this payload cannot beat the deadline
                self._ship(src_index, target, task.task_id, now)
                progress = True
                break

        running = src.running_task
        if running is None or running.dispatch_time is None:
            return
        est_done = (
            running.dispatch_time
            + running.dispatch_restore
            + (running.profile.total_cycles - running.retained_offset)
        )
        if est_done <= deadline:
            return  # it outruns the revocation; let it finish in place
        forced = self._forced.setdefault(src_index, set())
        if running.task_id in forced:
            return
        preview = src.preview_checkpoint(now)
        if preview is None:
            return
        free_at, checkpoint_bytes = preview
        if free_at >= deadline:
            return  # the trap DMA alone overruns the window
        target = self._pick_target(src_index, now)
        if target is None:
            return
        payload = checkpoint_bytes + CONTEXT_ROW_BYTES
        if self.fabric.estimate_arrival(
            src_index, target, payload, free_at
        ) > deadline:
            return  # checkpoint would land dead bytes; ride it out
        src.force_checkpoint(now)
        forced.add(running.task_id)
        self._refresh(src)
        # Revisit at durability: the checkpoint becomes shippable then.
        self.fleet.push_check(free_at, src_index)


class _GangRun:
    """One in-flight router dispatch: a proxy runtime cut into stage slices.

    ``jobs`` are the member jobs this dispatch serves (one for a solo or
    pre-cut dispatch, several for a coalesced batch).  ``proxy`` is the
    runtime the devices actually execute -- a member's own runtime, or
    the merged batch runtime.  ``owner`` is set only for a pre-cut
    multi-stage job so its :class:`~repro.sched.job.DeviceSlice` records
    can be filled in as stages materialize.
    """

    __slots__ = ("jobs", "owner", "proxy", "plans", "slice_ids", "devices",
                 "runtimes", "lost")

    def __init__(
        self,
        jobs: List[Job],
        owner: Optional[Job],
        proxy: TaskRuntime,
        plans: List[StagePlan],
        slice_ids: List[int],
        devices: List[int],
    ) -> None:
        self.jobs = jobs
        self.owner = owner
        self.proxy = proxy
        self.plans = plans
        self.slice_ids = slice_ids
        self.devices = devices
        self.runtimes: List[Optional[TaskRuntime]] = [None] * len(plans)
        #: Set when a device failure destroyed one of this gang's slices
        #: (churn); the gang's jobs are then accounted LOST.
        self.lost = False


class ClusterScheduler:
    """Serve one request stream across N preemptible NPUs.

    One shared event loop drives every device; dispatch decisions fire at
    task-arrival events (and, under work stealing, at device-idle edges
    after any event).  The control plane runs on the O(log d)
    :class:`_ClusterIndexes` for fleets of
    ``INDEXED_CONTROL_PLANE_MIN_DEVICES`` and larger (both loops make
    identical decisions, so the default is purely the measured cost
    crossover); ``use_indexes`` forces either loop, and
    ``verify_indexes=True`` runs both on every consultation and raises
    on any divergence.
    """

    def __init__(
        self,
        num_devices: int,
        simulation_config: SimulationConfig,
        policy_name=_UNSET,
        routing=_UNSET,
        seed=_UNSET,
        interconnect=_UNSET,
        global_tokens=_UNSET,
        admission=_UNSET,
        use_indexes=_UNSET,
        verify_indexes=_UNSET,
        config: Optional[ClusterConfig] = None,
        batching=_UNSET,
        churn=_UNSET,
        proactive_migration=_UNSET,
    ) -> None:
        if num_devices <= 0:
            raise ValueError("num_devices must be positive")
        legacy = {
            name: value
            for name, value in (
                ("policy_name", policy_name),
                ("routing", routing),
                ("seed", seed),
                ("interconnect", interconnect),
                ("global_tokens", global_tokens),
                ("admission", admission),
                ("use_indexes", use_indexes),
                ("verify_indexes", verify_indexes),
                ("batching", batching),
                ("churn", churn),
                ("proactive_migration", proactive_migration),
            )
            if value is not _UNSET
        }
        if config is None:
            # Deprecated keyword surface: assemble the config the old
            # arguments described.  Kept so pre-ClusterConfig call sites
            # (and the golden suites) construct byte-identical schedulers.
            config = ClusterConfig(**legacy)
        elif legacy:
            raise ValueError(
                "pass either config= or the legacy keywords, not both: "
                f"{sorted(legacy)}"
            )
        if (
            config.admission is not None
            and config.routing not in ONLINE_ROUTINGS
        ):
            raise ValueError(
                "admission control predicts against live device backlogs; "
                f"use an online routing, not {config.routing.value}"
            )
        if (
            config.batching is not None
            and config.routing not in ONLINE_ROUTINGS
        ):
            raise ValueError(
                "router batching/sharding dispatches against live device "
                f"backlogs; use an online routing, not {config.routing.value}"
            )
        self.num_devices = num_devices
        self.simulation_config = simulation_config
        self.config = config
        self.policy_name = config.policy_name
        self.routing = config.routing
        self._seed = config.seed
        #: Fabric checkpoint migrations and inter-stage activations cross.
        #: Defaults to a PCIe-gen3 bus at the NPU's clock; only
        #: PREEMPTIVE_MIGRATION and sharded gangs ever use it.
        self.interconnect = config.interconnect or InterconnectConfig.pcie_gen3(
            simulation_config.npu.frequency_hz
        )
        #: Cluster-global token thresholds (ClusterTokenLedger).  Defaults
        #: to on exactly for PREEMPTIVE_MIGRATION; every pre-existing
        #: routing keeps the per-device paper semantics bit-for-bit.
        global_tokens = config.global_tokens
        if global_tokens is None:
            global_tokens = (
                config.routing is RoutingPolicy.PREEMPTIVE_MIGRATION
            )
        self.global_tokens = global_tokens
        #: Optional SLA-aware frontend (repro.serving).  None preserves
        #: the admit-everything behavior bit-for-bit.
        self.admission = config.admission
        #: O(log d) control plane (_ClusterIndexes).  Defaults on for
        #: fleets of INDEXED_CONTROL_PLANE_MIN_DEVICES and larger (the
        #: measured crossover); False falls back to the pre-index linear
        #: scans -- bit-for-bit identical decisions, kept as the
        #: equivalence reference and benchmark baseline.
        use_indexes = config.use_indexes
        if use_indexes is None:
            use_indexes = num_devices >= INDEXED_CONTROL_PLANE_MIN_DEVICES
        self.use_indexes = use_indexes
        #: Cross-check every index consultation against the reference
        #: scan (property-test harness; implies use_indexes).
        self.verify_indexes = config.verify_indexes
        if config.verify_indexes:
            self.use_indexes = True
        #: Router-level batching / pipeline sharding (None = off).
        self.batching = config.batching
        #: Device churn schedule (None = always-healthy fleet, bit-for-bit
        #: the pre-churn behavior) and the recovery mode under it.  An
        #: *empty* schedule is normalized to None here: faults.py
        #: promises it "behaves exactly like churn disabled", and the
        #: static-routing arrival path genuinely differs under the churn
        #: loop (one-at-a-time feeding), so only a schedule with events
        #: may engage it.
        self.churn = config.churn if config.churn else None
        self.proactive_migration = config.proactive_migration
        #: Optional rack composition (None = flat fleet, bit-for-bit the
        #: pre-rack behavior).  Racks require the indexed control plane:
        #: the two-tier frontend *is* an index structure, and the linear
        #: loops have no rack-aware counterpart.
        self.racks = config.racks
        self.rack_of: Optional[Tuple[int, ...]] = None
        self.cross_rack_threshold: float = 0.0
        if self.racks is not None:
            if self.racks.num_devices != num_devices:
                raise ValueError(
                    f"rack topology covers {self.racks.num_devices} "
                    f"devices, fleet has {num_devices}"
                )
            if config.use_indexes is False:
                raise ValueError(
                    "rack composition runs on the indexed control plane; "
                    "use_indexes=False is incompatible with racks"
                )
            self.use_indexes = True
            self.rack_of = self.racks.rack_of
            # Locality threshold for cross-rack steals/migrations: the
            # starvation gap must clear at least the uncontended cost of
            # shipping one context row across the uplink tier.
            threshold = config.cross_rack_threshold_cycles
            if threshold is None:
                threshold = self.interconnect.cross_rack_transfer_cycles(
                    CONTEXT_ROW_BYTES
                )
            if threshold < 0:
                raise ValueError(
                    "cross_rack_threshold_cycles must be non-negative"
                )
            self.cross_rack_threshold = threshold
        #: Observability (repro.obs): tracer resolves to the no-op
        #: singleton so every emission site is a single attribute check
        #: when tracing is off; sampler and profiler stay None-gated.
        self.tracer = (
            config.tracer if config.tracer is not None else NULL_TRACER
        )
        if self.tracer.enabled:
            rack_of = self.rack_of
            self.tracer.bind_topology(
                num_devices,
                rack_of=(
                    (lambda d: rack_of[d]) if rack_of is not None else None
                ),
            )
        self.sampler = config.metrics_sampler
        if self.sampler is not None and getattr(self.sampler, "tracer", None) is None:
            self.sampler.tracer = self.tracer
        self.profiler = config.profiler
        if config.workers is not None and config.workers < 1:
            raise ValueError("workers must be a positive worker count")
        self.workers = config.workers
        #: Whether the most recent run actually took the parallel fast
        #: path (vs the serial loop or a transparent fallback).
        self.last_run_parallel = False
        #: Phase/worker timing dict from the most recent parallel run
        #: (None after a serial run); see ``run_parallel``.
        self.last_parallel_stats: Optional[dict] = None

    # ------------------------------------------------------------------
    # Static routing (the up-front pass)
    # ------------------------------------------------------------------
    def route(self, tasks: Sequence[TaskRuntime]) -> Dict[int, int]:
        """Assign each task to a device, in arrival order (static pass).

        Uses only scheduler-visible state: arrival times and the
        Algorithm-1 estimates carried in each task's context row.  For
        ``LEAST_LOADED``/``STATIC``, each request goes to the device that
        can start it earliest under the estimated-backlog model; ties
        break deterministically toward the lowest device index.

        Raises for the online strategies -- their decisions exist only at
        run time (see :meth:`run`).
        """
        if self.routing in ONLINE_ROUTINGS:
            raise ValueError(
                f"{self.routing.value} routing decides at arrival events; "
                "call run() instead of route()"
            )
        ordered = sorted(tasks, key=lambda t: (t.spec.arrival_cycles, t.task_id))
        assignments: Dict[int, int] = {}
        rng = random.Random(self._seed)
        cursor = 0
        backlog_free_at = [0.0] * self.num_devices
        for task in ordered:
            arrival = task.spec.arrival_cycles
            if self.routing == RoutingPolicy.ROUND_ROBIN:
                device = cursor % self.num_devices
                cursor += 1
            elif self.routing == RoutingPolicy.RANDOM:
                device = rng.randrange(self.num_devices)
            else:  # LEAST_LOADED / STATIC: earliest predicted start wins.
                device = min(
                    range(self.num_devices),
                    key=lambda d: (max(backlog_free_at[d], arrival), d),
                )
            backlog_free_at[device] = (
                max(backlog_free_at[device], arrival)
                + task.context.estimated_cycles
            )
            assignments[task.task_id] = device
        return assignments

    # ------------------------------------------------------------------
    # Execution: the public surfaces
    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[TaskRuntime]) -> ClusterResult:
        """Serve a task stream (the historical per-request surface).

        Without batching configured this is *the* legacy event loop,
        bit-for-bit (the golden suites run through here).  With
        ``ClusterConfig.batching`` set, each task is promoted to a
        single-slice job and served by the gang loop, where the router
        may coalesce and shard dispatches.
        """
        if self.batching is None:
            return self._run_tasks(tasks)
        return self.run_jobs([Job.single(task) for task in tasks])

    def run_jobs(self, jobs: Sequence[Job]) -> ClusterResult:
        """Serve a job stream (the gang-of-slices surface).

        A stream of single-slice jobs with batching off replays the
        legacy task path exactly -- same events, same floats -- and the
        jobs are settled from their runtimes afterwards.  Any multi-slice
        job, or any batching config, engages the gang loop, which
        requires an online routing (gang placement reads live backlogs).
        """
        if not jobs:
            raise ValueError("need at least one job")
        seen: set = set()
        for job in jobs:
            for member in job.requests:
                if member.task_id in seen:
                    raise ValueError(
                        f"duplicate task id {member.task_id} across jobs"
                    )
                seen.add(member.task_id)
        if self.batching is None and all(job.is_single for job in jobs):
            result = self._run_tasks([job.source for job in jobs])
            rejected_ids = {task.task_id for task in result.rejected_tasks}
            for job in jobs:
                if job.source.task_id in rejected_ids:
                    job.state = JobState.REJECTED
                else:
                    job.state = JobState.DONE
                    job.dispatch_time = job.source.first_dispatch_time
                    job.completion_time = job.source.completion_time
                    job.slices[0].device_id = result.assignments.get(
                        job.source.task_id
                    )
            return dataclasses.replace(result, jobs=tuple(jobs))
        if self.routing not in ONLINE_ROUTINGS:
            raise ValueError(
                "multi-slice jobs and router batching dispatch against live "
                f"device backlogs; use an online routing, not "
                f"{self.routing.value}"
            )
        return self._run_gangs(jobs)

    # ------------------------------------------------------------------
    # Execution: the legacy shared event loop (tasks only)
    # ------------------------------------------------------------------
    def _run_tasks(self, tasks: Sequence[TaskRuntime]) -> ClusterResult:
        if not tasks:
            raise ValueError("need at least one task")
        # Guard against task-id collisions up front: a duplicate would
        # silently overwrite its twin's row in `assignments` and leave
        # the completion count short of `total`, hanging the loop.
        seen_ids: set = set()
        for task in tasks:
            if task.task_id in seen_ids:
                raise ValueError(
                    f"duplicate task id {task.task_id} in workload"
                )
            seen_ids.add(task.task_id)

        self.last_run_parallel = False
        self.last_parallel_stats = None
        if self.workers is not None and self.workers >= 2:
            # Rack-sharded conservative-PDES backend; falls back to this
            # loop transparently for unsupported configurations.
            from repro.sched.parallel import run_parallel, supported_reason

            if supported_reason(self) is None:
                return run_parallel(self, tasks)

        # The ledger only exists for policies that read tokens: attaching
        # one to HPF/SJF/FCFS would just accumulate dead entries (their
        # hooks never drain it).
        ledger: Optional[ClusterTokenLedger] = None
        if self.global_tokens and make_policy(self.policy_name).uses_tokens:
            ledger = ClusterTokenLedger()
        fabric: Optional[Interconnect] = None
        if (
            self.routing is RoutingPolicy.PREEMPTIVE_MIGRATION
            or self.churn is not None
        ):
            # Churn always builds the fabric: proactive evacuation ships
            # checkpoints over it, and cancel_transfers_to() needs it.
            fabric = Interconnect(
                self.interconnect, self.num_devices, rack_of=self.rack_of
            )
            fabric.tracer = self.tracer
        devices = [
            DeviceSim(
                self.simulation_config,
                make_policy(self.policy_name, ledger=ledger),
                device_id=index,
                tracer=self.tracer,
            )
            for index in range(self.num_devices)
        ]
        # The O(log d) control plane.  Built before any injection so the
        # event-change hook sees every arrival; None runs the reference
        # linear-scan loop (the pre-index behavior, decision-identical).
        indexes: Optional[_ClusterIndexes] = None
        if self.use_indexes:
            if self.racks is not None:
                indexes = _RackIndexes(
                    devices, self.racks, verify=self.verify_indexes
                )
            else:
                indexes = _ClusterIndexes(
                    devices, verify=self.verify_indexes
                )
            indexes.tracer = self.tracer
        assignments: Dict[int, int] = {}
        migrations: List[MigrationRecord] = []
        #: Per-device in-flight checkpoint deliveries: (arrival cycle,
        #: estimated remaining cycles, task priority).  Routing counts
        #: them as backlog and a device with one pending is not an
        #: eligible thief; the admission path filters them by priority
        #: like the rest of its class-aware backlog.
        inflight: Dict[int, List[Tuple[float, float, int]]] = {
            index: [] for index in range(self.num_devices)
        }
        total = len(tasks)
        admission = self.admission
        # Records accumulate for the controller's lifetime (the feedback
        # EWMA deliberately keeps learning across runs); slice off this
        # run's decisions so a reused scheduler reports only its own.
        records_start = len(admission.records) if admission else 0
        if admission is not None:
            use_priority, use_sjf = self.admission_prediction_filters()
        rejected: List[TaskRuntime] = []
        lost: List[TaskRuntime] = []
        churn_rt: Optional[_ChurnRuntime] = None
        if self.churn is not None:
            churn_rt = _ChurnRuntime(
                self.churn, devices, indexes, fabric, inflight, assignments,
                migrations, ledger, self.proactive_migration,
            )
            churn_rt.tracer = self.tracer
            churn_rt.fleet.tracer = self.tracer
            churn_rt.profiler = self.profiler

            def _place_orphans(
                orphans: Sequence[TaskRuntime], when: float
            ) -> None:
                assert churn_rt is not None
                for task in orphans:
                    if churn_rt.any_accepting():
                        target = self._route_online(
                            devices, when, inflight, indexes
                        )
                        assignments[task.task_id] = target
                        devices[target].inject(task, arrival=when)
                        if indexes is not None:
                            indexes.refresh(devices[target])
                    else:
                        churn_rt.parked.append(task)

            def _replace_parked(when: float) -> None:
                assert churn_rt is not None
                parked, churn_rt.parked = churn_rt.parked, []
                _place_orphans(parked, when)

            churn_rt.on_orphans = _place_orphans
            churn_rt.on_restore = _replace_parked
        #: Admission frontier: a min-heap of (consider_cycles, arrival,
        #: task_id, attempt, task).  Deferred arrivals re-enter with a
        #: later consideration time and a bumped attempt count.
        frontier: List[Tuple[float, float, int, int, TaskRuntime]] = []
        static_assignments: Optional[Dict[int, int]] = None
        if self.routing in STATIC_ROUTINGS:
            static_assignments = self.route(tasks)
            if churn_rt is None:
                # Static strategies know every placement up-front, so
                # inject all arrivals immediately (in workload order, like
                # the single-NPU batch run).  Each device then sees the
                # exact event sequence of simulating its partition in
                # isolation -- in particular its scheduling-period clock
                # stays anchored at its first arrival even if the device
                # drains between two assigned arrivals.
                for task in tasks:
                    target = static_assignments[task.task_id]
                    assignments[task.task_id] = target
                    devices[target].inject(task)
                    if indexes is not None:
                        indexes.refresh(devices[target])
                pending: deque = deque()
            else:
                # Under churn the static placements are still honored,
                # but arrivals feed through the loop one at a time so a
                # placement targeting a doomed/down device can divert to
                # the live least-backlog device at its arrival instant.
                pending = deque(
                    sorted(
                        tasks,
                        key=lambda t: (t.spec.arrival_cycles, t.task_id),
                    )
                )
        else:
            ordered = sorted(
                tasks, key=lambda t: (t.spec.arrival_cycles, t.task_id)
            )
            if admission is None:
                pending = deque(ordered)
            else:
                pending = deque()
                # Sorted by (arrival, task_id) => already a valid heap.
                frontier = [
                    (task.spec.arrival_cycles, task.spec.arrival_cycles,
                     task.task_id, 0, task)
                    for task in ordered
                ]

        arrival_rank = int(_EventKind.ARRIVAL)
        tracer = self.tracer
        sampler = self.sampler
        profiler = self.profiler
        poll_migration = self.routing is RoutingPolicy.PREEMPTIVE_MIGRATION
        polling = False
        #: Running completion counter -- the O(1) termination check.  The
        #: reference loop keeps the historical O(d) sum below.
        completed_total = 0
        while True:
            # Earliest device event by (time, kind); ties break to the
            # lowest device index.
            device_index: Optional[int] = None
            device_key: Optional[Tuple[float, int]] = None
            if indexes is not None:
                device_index, device_key = indexes.peek_next_device()
            else:
                for index, device in enumerate(devices):
                    key = device.next_event_key()
                    if key is not None and (
                        device_key is None or key < device_key
                    ):
                        device_index, device_key = index, key

            # Availability transitions rank between same-time completions
            # (which fire first: a task finishing at the failure instant
            # finished) and same-time arrivals (which see the post-
            # transition fleet).
            if churn_rt is not None:
                churn_time = churn_rt.peek_time()
                if churn_time is not None:
                    if admission is None:
                        next_arr = (
                            pending[0].spec.arrival_cycles if pending else None
                        )
                    else:
                        next_arr = frontier[0][0] if frontier else None
                    if (
                        device_key is None or device_key > (churn_time, 0)
                    ) and (next_arr is None or churn_time <= next_arr):
                        if sampler is not None:
                            self._sample_before(
                                sampler, churn_time, devices, fabric,
                                migrations,
                            )
                        churn_rt.process_next()
                        if poll_migration:
                            polling = self._poll_migration(
                                devices, indexes, polling, churn_time
                            )
                        continue

            # Route the next arrival only once every device event that
            # logically precedes it has fired: earlier timestamps, plus
            # same-time completions and previously admitted same-time
            # arrivals (kind rank <= ARRIVAL).  Routing then sees exactly
            # the device state a real node agent would see at that
            # instant -- including the effects of simultaneous-burst
            # predecessors admitted moments before.
            if admission is None:
                arrival_due = bool(pending) and (
                    device_key is None
                    or device_key > (pending[0].spec.arrival_cycles, arrival_rank)
                )
            else:
                arrival_due = bool(frontier) and (
                    device_key is None
                    or device_key > (frontier[0][0], arrival_rank)
                )
            if arrival_due:
                if sampler is not None:
                    self._sample_before(
                        sampler,
                        pending[0].spec.arrival_cycles
                        if admission is None
                        else frontier[0][0],
                        devices, fabric, migrations,
                    )
                if admission is None:
                    task = pending.popleft()
                    if churn_rt is not None and not churn_rt.any_accepting():
                        # Zero surviving capacity: park until a restore
                        # (or account the task lost at quiesce).
                        churn_rt.parked.append(task)
                        continue
                    target = None
                    if static_assignments is not None:
                        target = static_assignments[task.task_id]
                        if not devices[target].accepts_work:
                            target = None  # divert to a live device
                    if target is None:
                        target = self._route_online(
                            devices, task.spec.arrival_cycles, inflight,
                            indexes,
                        )
                    assignments[task.task_id] = target
                    devices[target].inject(task)
                    if indexes is not None:
                        indexes.refresh(devices[target])
                    continue
                consider, _, _, attempt, task = heapq.heappop(frontier)
                if churn_rt is not None and not churn_rt.any_accepting():
                    # Nothing survives to predict against.  Re-consider
                    # at the next availability transition (no attempt
                    # burned -- the defer budget is for backlog, not
                    # outages); with no transition left the task is lost.
                    next_change = churn_rt.peek_time()
                    if next_change is None:
                        lost.append(task)
                        total -= 1
                        admission.on_lost(task)
                    else:
                        heapq.heappush(
                            frontier,
                            (max(consider, next_change),
                             task.spec.arrival_cycles, task.task_id,
                             attempt, task),
                        )
                    continue
                # Admission-aware placement + prediction: the decision is
                # scored against (and the task placed on) the device with
                # the least *class-aware* backlog -- under a preemptive
                # priority policy the arrival will not wait behind queued
                # lower-priority work nor behind same-priority rows a
                # shortest-first rule would serve after it, and counting
                # either would over-reject the very class admission
                # protects.  The filters follow the configured policy
                # (see admission_prediction_filters); under FCFS/RRB the
                # prediction is the plain total backlog.
                min_priority, sjf_within = admission.placement_query(
                    task, use_priority, use_sjf
                )
                target, backlog = self._route_admission(
                    devices, consider, inflight, min_priority, sjf_within,
                    indexes,
                )
                record = admission.decide(task, backlog, consider, attempt)
                if tracer.enabled:
                    tracer.instant(
                        "admission",
                        f"admission {record.decision.value} t{task.task_id}",
                        consider,
                        args={
                            "task": task.task_id,
                            "decision": record.decision.value,
                            "backlog": backlog,
                            "attempt": attempt,
                            "target": target,
                        },
                    )
                if sampler is not None:
                    sampler.inc("admission." + record.decision.value)
                if record.decision is AdmissionDecision.ACCEPT:
                    # admit() rewrites the context estimate to the
                    # feedback-corrected value first, so routing and
                    # per-device scheduling see the corrected number.
                    admission.admit(task)
                    assignments[task.task_id] = target
                    devices[target].inject(task, arrival=consider)
                    if indexes is not None:
                        indexes.refresh(devices[target])
                elif record.decision is AdmissionDecision.DEFER:
                    heapq.heappush(
                        frontier,
                        (consider + admission.config.defer_delay_cycles,
                         task.spec.arrival_cycles, task.task_id,
                         attempt + 1, task),
                    )
                else:
                    rejected.append(task)
                    total -= 1
                continue

            if device_index is None or device_key is None:
                # Quiesced: no events, arrivals, or transitions left
                # (transitions always process above when any remain).
                # Whatever is still parked has no restore coming: lost.
                if churn_rt is not None and churn_rt.parked:
                    for task in churn_rt.parked:
                        lost.append(task)
                        total -= 1
                        if admission is not None:
                            admission.on_lost(task)
                    churn_rt.parked = []
                break
            if sampler is not None:
                self._sample_before(
                    sampler, device_key[0], devices, fabric, migrations
                )
            stepped = devices[device_index]
            now = stepped.step()
            if indexes is not None:
                if profiler is None:
                    indexes.refresh(stepped)
                else:
                    start_ns = time.perf_counter_ns()
                    indexes.refresh(stepped)
                    profiler.add("index", time.perf_counter_ns() - start_ns)
            if stepped.last_completed is not None:
                completed_total += 1
                if sampler is not None:
                    sampler.task_completed(stepped.last_completed)

            if admission is not None and stepped.last_completed is not None:
                # The observation point of the learning-augmented loop:
                # release the class budget and fold (estimate, observed)
                # into the prediction-correction EWMA.
                admission.on_complete(stepped.last_completed)

            # Steal opportunities only appear when a device goes idle
            # (COMPLETE) or stealable work lands on a busy device
            # (ARRIVAL); period ticks and reserved dispatches change
            # neither, so skip the O(devices^2) scan for them.
            if self.routing == RoutingPolicy.WORK_STEALING and (
                stepped.last_event_kind
                in (_EventKind.COMPLETE, _EventKind.ARRIVAL)
            ):
                migrations.extend(
                    self._steal(devices, now, assignments, indexes)
                )
            elif self.routing is RoutingPolicy.PREEMPTIVE_MIGRATION:
                # Migration opportunities additionally appear when a
                # preemption commits (PERIOD/DISPATCH wakes) and when a
                # checkpoint becomes durable (the reserved DISPATCH at
                # trap end), so check after every event; with the indexes
                # that check is an O(1) idle-candidate peek, and only
                # actually-idle devices trigger a candidate walk.
                assert fabric is not None
                migrations.extend(
                    self._migrate(
                        devices, now, assignments, fabric, inflight, ledger,
                        indexes, (now, device_key[1], device_index),
                    )
                )

            if churn_rt is not None:
                # A doomed device's own event may have freed the array or
                # the link; revisit its evacuation plan.
                churn_rt.after_step(stepped, now)

            if poll_migration:
                polling = self._poll_migration(
                    devices, indexes, polling, now,
                    (now, device_key[1], device_index),
                )

            if indexes is not None:
                if completed_total >= total:
                    break
            elif sum(device.completed_count for device in devices) >= total:
                break

        device_results = tuple(device.result() for device in devices)
        transfers = fabric.transfers if fabric is not None else ()
        timeline = ClusterTimeline(
            {
                index: device.timeline
                for index, device in enumerate(devices)
                # A device whose every task migrated away still executed
                # cycles; its trace must survive for conservation checks.
                if device.num_tasks > 0 or len(device.timeline) > 0
            },
            transfers=transfers,
        )
        lost_ids = {task.task_id for task in lost}
        if admission is None:
            if lost_ids:
                executed = tuple(
                    task for task in tasks if task.task_id not in lost_ids
                )
            else:
                executed = tuple(tasks)
            records: Tuple[AdmissionRecord, ...] = ()
        else:
            rejected_ids = {task.task_id for task in rejected}
            executed = tuple(
                task
                for task in tasks
                if task.task_id not in rejected_ids
                and task.task_id not in lost_ids
            )
            records = admission.records[records_start:]
        return ClusterResult(
            tasks=executed,
            device_results=device_results,
            assignments=assignments,
            routing=self.routing.value,
            migrations=tuple(migrations),
            timeline=timeline,
            transfers=transfers,
            admission_records=records,
            rejected_tasks=tuple(rejected),
            events_processed=sum(
                device.events_processed for device in devices
            ),
            events_by_kind=_fleet_events_by_kind(devices),
            lost_tasks=tuple(lost),
            rack_of=self.rack_of,
        )

    # ------------------------------------------------------------------
    # Execution: the gang event loop (jobs, batching, sharding)
    # ------------------------------------------------------------------
    def _run_gangs(self, jobs: Sequence[Job]) -> ClusterResult:
        """The job-surface event loop: coalesce, shard, pipeline, settle.

        Same chronology discipline as :meth:`_run_tasks` -- device events,
        batch-window flushes and router arrivals interleave in timestamp
        order (ties: completions, then flushes, then arrivals) -- plus
        three new mechanics:

        - **Coalescing**: the first arrival of a batch key opens a window;
          compatible arrivals join until the window closes or
          ``max_batch`` fills, then the members merge into one proxy
          runtime (:func:`~repro.sched.job.merge_runtimes`).
        - **Gang dispatch**: a dispatch whose plan has multiple stages
          reserves one device per stage (least predicted backlog,
          distinct while the fleet allows) and injects stage 0.  Each
          stage completion ships the boundary activations to the next
          stage's device over the contended fabric (DMA-out), charges the
          landing cost as the successor's dispatch restore (DMA-in), and
          injects the successor -- the MockSim DMA-in/compute/DMA-out
          idiom, with slices remaining ordinary preemptible tasks.
        - **Settlement**: the final stage's completion settles every
          member request from the proxy (wait accrual, completion time,
          admission budget release + feedback observation).
        """
        batching = self.batching
        ordered = sorted(jobs, key=lambda j: (j.arrival_cycles, j.job_id))
        ledger: Optional[ClusterTokenLedger] = None
        if self.global_tokens and make_policy(self.policy_name).uses_tokens:
            ledger = ClusterTokenLedger()
        needs_fabric = (
            self.routing is RoutingPolicy.PREEMPTIVE_MIGRATION
            or any(job.num_stages > 1 for job in jobs)
            or (batching is not None and batching.shard_stages > 1)
            or self.churn is not None
        )
        fabric: Optional[Interconnect] = None
        if needs_fabric:
            fabric = Interconnect(
                self.interconnect, self.num_devices, rack_of=self.rack_of
            )
            fabric.tracer = self.tracer
        devices = [
            DeviceSim(
                self.simulation_config,
                make_policy(self.policy_name, ledger=ledger),
                device_id=index,
                tracer=self.tracer,
            )
            for index in range(self.num_devices)
        ]
        indexes: Optional[_ClusterIndexes] = None
        if self.use_indexes:
            if self.racks is not None:
                indexes = _RackIndexes(
                    devices, self.racks, verify=self.verify_indexes
                )
            else:
                indexes = _ClusterIndexes(
                    devices, verify=self.verify_indexes
                )
            indexes.tracer = self.tracer
        assignments: Dict[int, int] = {}
        migrations: List[MigrationRecord] = []
        inflight: Dict[int, List[Tuple[float, float, int]]] = {
            index: [] for index in range(self.num_devices)
        }
        admission = self.admission
        records_start = len(admission.records) if admission else 0
        if admission is not None:
            use_priority, use_sjf = self.admission_prediction_filters()
        bandwidth = self.simulation_config.npu.bandwidth_bytes_per_cycle

        frontier: List[Tuple[float, float, int, int, Job]] = []
        if admission is None:
            pending: deque = deque(ordered)
        else:
            pending = deque()
            # Sorted by (arrival, job_id) => already a valid heap.
            frontier = [
                (job.arrival_cycles, job.arrival_cycles, job.job_id, 0, job)
                for job in ordered
            ]

        # Fresh ids for merged proxies and later-stage slices, above every
        # offered id so they can never collide with a request.
        next_id = 1 + max(
            max(m.task_id for job in jobs for m in job.requests),
            max(job.job_id for job in jobs),
        )

        coalesce = (
            batching is not None
            and batching.max_batch > 1
            and batching.window_cycles > 0
        )
        open_batches: Dict[Tuple, List[Job]] = {}
        open_deadline: Dict[Tuple, float] = {}
        flush_heap: List[Tuple[float, int, Tuple]] = []
        flush_seq = 0

        slice_map: Dict[int, Tuple[_GangRun, int]] = {}
        batch_records: List[BatchRecord] = []
        total_jobs = len(jobs)
        settled = 0
        arrival_rank = int(_EventKind.ARRIVAL)
        tracer = self.tracer
        sampler = self.sampler
        profiler = self.profiler
        poll_migration = self.routing is RoutingPolicy.PREEMPTIVE_MIGRATION
        polling = False
        churn_rt: Optional[_ChurnRuntime] = None
        if self.churn is not None:
            churn_rt = _ChurnRuntime(
                self.churn, devices, indexes, fabric, inflight, assignments,
                migrations, ledger, self.proactive_migration,
            )
            churn_rt.tracer = self.tracer
            churn_rt.fleet.tracer = self.tracer
            churn_rt.profiler = self.profiler

        def route_stage(now: float, used: set) -> int:
            """Least-backlog device for one gang stage, avoiding devices
            already reserved by this gang while the fleet allows.  Doomed
            and down devices (churn) never take a stage while any
            accepting device exists."""
            candidates = [
                d
                for d in range(self.num_devices)
                if d not in used and devices[d].accepts_work
            ]
            if not candidates:
                candidates = [
                    d
                    for d in range(self.num_devices)
                    if devices[d].accepts_work
                ] or list(range(self.num_devices))
            start_ns = time.perf_counter_ns() if profiler is not None else 0
            choice = min(
                candidates,
                key=lambda d: (
                    devices[d].predicted_backlog(now)
                    + self._inbound_backlog(inflight, d, now),
                    d,
                ),
            )
            if profiler is not None:
                profiler.add("route", time.perf_counter_ns() - start_ns)
            if tracer.enabled and tracer.audit_routing:
                self._audit_route(devices, now, inflight, choice, "gang_stage")
            return choice

        def dispatch_gang(
            members: List[Job], now: float, preferred: Optional[int] = None
        ) -> None:
            nonlocal next_id
            if churn_rt is not None and not churn_rt.any_accepting():
                # Zero surviving capacity (e.g. a batch window flushing
                # mid-outage): park the members for the next restore.
                churn_rt.parked.extend(members)
                return
            owner: Optional[Job] = None
            if len(members) == 1 and members[0].num_stages > 1:
                owner = members[0]
                proxy = owner.source
                plans: List[StagePlan] = [s.stage for s in owner.slices]
            else:
                if len(members) == 1:
                    proxy = members[0].source
                else:
                    assert batching is not None
                    proxy = merge_runtimes(
                        [job.source for job in members],
                        task_id=next_id,
                        now=now,
                        marginal_fraction=batching.marginal_fraction,
                        tracer=tracer,
                    )
                    next_id += 1
                shard = 1
                if batching is not None and batching.shard_stages > 1:
                    # Scheduler-visible decision: shard when the dispatch
                    # *looks* big enough to amortize the boundary DMAs.
                    if (
                        proxy.context.estimated_cycles
                        >= batching.min_shard_cycles
                    ):
                        shard = min(batching.shard_stages, self.num_devices)
                if shard > 1:
                    plans = partition_runtime(proxy, shard)
                else:
                    plans = [
                        StagePlan(
                            index=0,
                            profile=proxy.profile,
                            estimated_cycles=max(
                                proxy.context.estimated_cycles, 1e-9
                            ),
                            activation_bytes=0.0,
                        )
                    ]
            slice_ids = [proxy.task_id]
            for _ in plans[1:]:
                slice_ids.append(next_id)
                next_id += 1
            reserved: List[int] = []
            used: set = set()
            for stage in range(len(plans)):
                if stage == 0 and preferred is not None:
                    device = preferred
                else:
                    device = route_stage(now, used)
                used.add(device)
                reserved.append(device)
            gang = _GangRun(members, owner, proxy, plans, slice_ids, reserved)
            if len(plans) == 1:
                stage0: TaskRuntime = proxy
            else:
                stage0 = stage_runtime(proxy, plans[0], slice_ids[0], now)
                if owner is not None:
                    owner.slices[0].runtime = stage0
            gang.runtimes[0] = stage0
            if owner is not None:
                owner.slices[0].device_id = reserved[0]
            devices[reserved[0]].inject(stage0, arrival=now)
            if indexes is not None:
                indexes.refresh(devices[reserved[0]])
            assignments[slice_ids[0]] = reserved[0]
            slice_map[slice_ids[0]] = (gang, 0)
            member_ids = []
            for job in members:
                job.state = JobState.DISPATCHED
                job.dispatch_time = now
                for member in job.requests:
                    member_ids.append(member.task_id)
                    assignments.setdefault(member.task_id, reserved[0])
            batch_records.append(
                BatchRecord(
                    proxy_task_id=slice_ids[0],
                    member_task_ids=tuple(member_ids),
                    dispatch_cycles=now,
                    num_stages=len(plans),
                    devices=tuple(reserved),
                )
            )
            if tracer.enabled:
                tracer.instant(
                    "batch_flush",
                    f"flush {len(members)}j -> d{reserved[0]}",
                    now,
                    device=reserved[0],
                    args={
                        "proxy": slice_ids[0],
                        "members": len(member_ids),
                        "stages": len(plans),
                        "devices": list(reserved),
                    },
                )

        def enqueue_job(
            job: Job, now: float, preferred: Optional[int] = None
        ) -> None:
            nonlocal flush_seq
            if coalesce and job.is_single:
                assert batching is not None
                key = batch_key(job.source.spec)
                open_jobs = open_batches.get(key)
                if open_jobs is not None:
                    open_jobs.append(job)
                    if len(open_jobs) >= batching.max_batch:
                        del open_batches[key]
                        del open_deadline[key]
                        dispatch_gang(open_jobs, now)
                    return
                open_batches[key] = [job]
                deadline = now + batching.window_cycles
                open_deadline[key] = deadline
                heapq.heappush(flush_heap, (deadline, flush_seq, key))
                flush_seq += 1
                return
            dispatch_gang([job], now, preferred)

        def advance_gang(gang: "_GangRun", stage: int, now: float) -> None:
            """Ship stage ``stage``'s boundary tensor and start the next.

            DMA-out is the fabric transfer (contended, FIFO per link);
            DMA-in is the landing cost charged as the successor slice's
            dispatch restore.  A successor landing on the same device
            skips both -- the tensor is already resident.
            """
            nxt = stage + 1
            plan = gang.plans[nxt]
            src = assignments[gang.slice_ids[stage]]
            dst = gang.devices[nxt]
            if not devices[dst].accepts_work:
                # The reserved device was revoked/drained since dispatch.
                if churn_rt is not None and not churn_rt.any_accepting():
                    lose_gang(gang)  # nowhere for the pipeline to go
                    return
                dst = route_stage(now, set())
                gang.devices[nxt] = dst
            activation = gang.plans[stage].activation_bytes
            slice_id = gang.slice_ids[nxt]
            if src != dst and fabric is not None:
                record = fabric.transfer(
                    src, dst, activation, now,
                    task_id=slice_id, purpose="activation",
                )
                arrival = record.end_cycles
                restore = activation / bandwidth
                inflight[dst].append(
                    (arrival, plan.estimated_cycles,
                     int(gang.proxy.context.priority))
                )
                gang.proxy.migrated_bytes_total += activation
            else:
                arrival, restore = now, 0.0
            runtime = stage_runtime(
                gang.proxy, plan, slice_id, arrival, restore
            )
            gang.runtimes[nxt] = runtime
            if gang.owner is not None:
                gang.owner.slices[nxt].runtime = runtime
                gang.owner.slices[nxt].device_id = dst
            devices[dst].inject(runtime, arrival=arrival)
            if indexes is not None:
                indexes.refresh(devices[dst])
            assignments[slice_id] = dst
            slice_map[slice_id] = (gang, nxt)

        def settle_gang(gang: "_GangRun", now: float) -> int:
            first = gang.runtimes[0]
            first_dispatch = (
                first.first_dispatch_time if first is not None else now
            )
            count = 0
            for job in gang.jobs:
                for member in job.requests:
                    if not member.is_done:
                        settle_member(member, now, first_dispatch)
                    if admission is not None:
                        admission.on_complete(member)
                    # Sample per settled *member*, not per merged proxy
                    # or stage slice: tasks.completed and the SLA
                    # counters score each real request exactly once.
                    if sampler is not None:
                        sampler.task_completed(member)
                job.state = JobState.DONE
                job.completion_time = now
                count += 1
            return count

        def lose_gang(gang: "_GangRun") -> None:
            """Account every unfinished job of a destroyed gang as LOST."""
            nonlocal settled
            if gang.lost:
                return
            gang.lost = True
            for job in gang.jobs:
                if job.state in (
                    JobState.DONE, JobState.REJECTED, JobState.LOST
                ):
                    continue
                job.state = JobState.LOST
                settled += 1
                if admission is not None:
                    for member in job.requests:
                        admission.on_lost(member)

        if churn_rt is not None:

            def _gang_orphans(
                orphans: Sequence[TaskRuntime], when: float
            ) -> None:
                # A gang has exactly one live slice at a time (stages are
                # sequential, and an in-flight successor counts as the
                # live one); losing it loses the gang -- pipeline restart
                # from a mid-gang failure is out of scope (documented in
                # docs/failures.md).
                for runtime in orphans:
                    entry = slice_map.get(runtime.task_id)
                    if entry is not None:
                        lose_gang(entry[0])

            def _gang_restore(when: float) -> None:
                assert churn_rt is not None
                parked, churn_rt.parked = churn_rt.parked, []
                for job in parked:
                    enqueue_job(job, when)

            churn_rt.on_orphans = _gang_orphans
            churn_rt.on_restore = _gang_restore

        while True:
            device_index: Optional[int] = None
            device_key: Optional[Tuple[float, int]] = None
            if indexes is not None:
                device_index, device_key = indexes.peek_next_device()
            else:
                for index, device in enumerate(devices):
                    key = device.next_event_key()
                    if key is not None and (
                        device_key is None or key < device_key
                    ):
                        device_index, device_key = index, key

            next_arrival: Optional[float] = None
            if admission is None:
                if pending:
                    next_arrival = pending[0].arrival_cycles
            elif frontier:
                next_arrival = frontier[0][0]

            # Batch-window flushes fire after same-time completions (the
            # flush sees settled devices) and before same-time arrivals
            # (an arrival at exactly the deadline misses its batch).
            flush_at: Optional[float] = None
            flush_key: Optional[Tuple] = None
            while flush_heap:
                at, _, key = flush_heap[0]
                if key not in open_batches or open_deadline[key] != at:
                    heapq.heappop(flush_heap)  # flushed early at max_batch
                    continue
                flush_at, flush_key = at, key
                break

            if churn_rt is not None:
                churn_time = churn_rt.peek_time()
                if churn_time is not None and (
                    device_key is None or device_key > (churn_time, 0)
                ) and (
                    next_arrival is None or churn_time <= next_arrival
                ) and (flush_at is None or churn_time <= flush_at):
                    if sampler is not None:
                        self._sample_before(
                            sampler, churn_time, devices, fabric, migrations
                        )
                    churn_rt.process_next()
                    if poll_migration:
                        polling = self._poll_migration(
                            devices, indexes, polling, churn_time
                        )
                    continue

            flush_due = flush_at is not None and (
                device_key is None
                or device_key >= (flush_at, arrival_rank)
            )
            if (
                flush_due
                and next_arrival is not None
                and flush_at is not None
                and next_arrival < flush_at
            ):
                flush_due = False  # an earlier router arrival goes first
            if flush_due:
                assert flush_at is not None and flush_key is not None
                if sampler is not None:
                    self._sample_before(
                        sampler, flush_at, devices, fabric, migrations
                    )
                heapq.heappop(flush_heap)
                members = open_batches.pop(flush_key)
                del open_deadline[flush_key]
                dispatch_gang(members, flush_at)
                continue

            arrival_due = next_arrival is not None and (
                device_key is None
                or device_key > (next_arrival, arrival_rank)
            )
            if arrival_due:
                assert next_arrival is not None
                if sampler is not None:
                    self._sample_before(
                        sampler, next_arrival, devices, fabric, migrations
                    )
                if admission is None:
                    job = pending.popleft()
                    enqueue_job(job, job.arrival_cycles)
                    continue
                consider, _, _, attempt, job = heapq.heappop(frontier)
                if churn_rt is not None and not churn_rt.any_accepting():
                    next_change = churn_rt.peek_time()
                    if next_change is None:
                        job.state = JobState.LOST
                        settled += 1
                    else:
                        heapq.heappush(
                            frontier,
                            (max(consider, next_change), job.arrival_cycles,
                             job.job_id, attempt, job),
                        )
                    continue
                task = job.source
                min_priority, sjf_within = admission.placement_query(
                    task, use_priority, use_sjf
                )
                target, backlog = self._route_admission(
                    devices, consider, inflight, min_priority, sjf_within,
                    indexes,
                )
                # Batch-aware prediction: a request that would join an
                # open batch occupies the device for only the marginal
                # fraction of its estimate.
                scale = 1.0
                if (
                    coalesce
                    and job.is_single
                    and batch_key(task.spec) in open_batches
                ):
                    assert batching is not None
                    scale = batching.marginal_fraction
                record = admission.decide(
                    task, backlog, consider, attempt, marginal_scale=scale
                )
                if tracer.enabled:
                    tracer.instant(
                        "admission",
                        f"admission {record.decision.value} j{job.job_id}",
                        consider,
                        args={
                            "job": job.job_id,
                            "task": task.task_id,
                            "decision": record.decision.value,
                            "backlog": backlog,
                            "attempt": attempt,
                            "target": target,
                            "marginal_scale": scale,
                        },
                    )
                if sampler is not None:
                    sampler.inc("admission." + record.decision.value)
                if record.decision is AdmissionDecision.ACCEPT:
                    admission.admit(task)
                    enqueue_job(job, consider, preferred=target)
                elif record.decision is AdmissionDecision.DEFER:
                    heapq.heappush(
                        frontier,
                        (consider + admission.config.defer_delay_cycles,
                         job.arrival_cycles, job.job_id, attempt + 1, job),
                    )
                else:
                    job.state = JobState.REJECTED
                    settled += 1
                continue

            if device_index is None or device_key is None:
                # Quiesced with no restore coming: parked jobs are lost.
                if churn_rt is not None and churn_rt.parked:
                    parked, churn_rt.parked = churn_rt.parked, []
                    for job in parked:
                        job.state = JobState.LOST
                        settled += 1
                        if admission is not None:
                            for member in job.requests:
                                admission.on_lost(member)
                break  # no events, no arrivals, no open windows
            if sampler is not None:
                self._sample_before(
                    sampler, device_key[0], devices, fabric, migrations
                )
            stepped = devices[device_index]
            now = stepped.step()
            if indexes is not None:
                if profiler is None:
                    indexes.refresh(stepped)
                else:
                    start_ns = time.perf_counter_ns()
                    indexes.refresh(stepped)
                    profiler.add("index", time.perf_counter_ns() - start_ns)

            completed = stepped.last_completed
            if completed is not None:
                entry = slice_map.get(completed.task_id)
                if entry is not None:
                    gang, stage = entry
                    if gang.lost:
                        pass  # a destroyed gang's straggler; nothing owed
                    elif stage + 1 < len(gang.plans):
                        advance_gang(gang, stage, now)
                    else:
                        settled += settle_gang(gang, now)

            if self.routing == RoutingPolicy.WORK_STEALING and (
                stepped.last_event_kind
                in (_EventKind.COMPLETE, _EventKind.ARRIVAL)
            ):
                migrations.extend(
                    self._steal(devices, now, assignments, indexes)
                )
            elif self.routing is RoutingPolicy.PREEMPTIVE_MIGRATION:
                assert fabric is not None
                migrations.extend(
                    self._migrate(
                        devices, now, assignments, fabric, inflight, ledger,
                        indexes, (now, device_key[1], device_index),
                    )
                )

            if churn_rt is not None:
                churn_rt.after_step(stepped, now)

            if poll_migration:
                polling = self._poll_migration(
                    devices, indexes, polling, now,
                    (now, device_key[1], device_index),
                )

            if settled >= total_jobs:
                break

        if settled < total_jobs:
            unsettled = [
                job.job_id for job in jobs if job.state
                in (JobState.PENDING, JobState.DISPATCHED)
            ]
            raise RuntimeError(
                f"gang loop quiesced with unsettled jobs: {unsettled}"
            )

        device_results = tuple(device.result() for device in devices)
        transfers = fabric.transfers if fabric is not None else ()
        timeline = ClusterTimeline(
            {
                index: device.timeline
                for index, device in enumerate(devices)
                if device.num_tasks > 0 or len(device.timeline) > 0
            },
            transfers=transfers,
        )
        executed = tuple(
            member
            for job in jobs
            if job.state is JobState.DONE
            for member in job.requests
        )
        rejected = tuple(
            member
            for job in jobs
            if job.state is JobState.REJECTED
            for member in job.requests
        )
        lost_members = tuple(
            member
            for job in jobs
            if job.state is JobState.LOST
            for member in job.requests
        )
        records: Tuple[AdmissionRecord, ...] = ()
        if admission is not None:
            records = admission.records[records_start:]
        return ClusterResult(
            tasks=executed,
            device_results=device_results,
            assignments=assignments,
            routing=self.routing.value,
            migrations=tuple(migrations),
            timeline=timeline,
            transfers=transfers,
            admission_records=records,
            rejected_tasks=rejected,
            events_processed=sum(
                device.events_processed for device in devices
            ),
            events_by_kind=_fleet_events_by_kind(devices),
            jobs=tuple(jobs),
            batches=tuple(batch_records),
            lost_tasks=lost_members,
            rack_of=self.rack_of,
        )

    # ------------------------------------------------------------------
    # Online decisions
    # ------------------------------------------------------------------
    def admission_prediction_filters(self) -> Tuple[bool, bool]:
        """(priority filter on, SJF-within-class filter on) for admission.

        The class-aware backlog model is only valid when the per-device
        policy actually serves that way: the priority filter requires a
        priority-driven policy *with preemption* (under NP even a HIGH
        arrival waits out the running task), and the shortest-first
        refinement requires a policy that ranks by estimated remaining
        time.  FCFS/RRB get the plain total backlog.
        """
        name = self.policy_name.upper()
        preemptive = self.simulation_config.mode is not PreemptionMode.NP
        return (
            preemptive and name in PRIORITY_DRIVEN_POLICIES,
            name in SHORTEST_FIRST_POLICIES,
        )

    def _route_admission(
        self,
        devices: Sequence[DeviceSim],
        now: float,
        inflight: Dict[int, List[Tuple[float, float, int]]],
        min_priority: Optional[int],
        sjf_within: Optional[float],
        indexes: Optional[_ClusterIndexes] = None,
    ) -> Tuple[int, float]:
        """Admission-aware placement: least class-aware backlog.

        Ties break toward the least *total* backlog, then the lowest
        device index -- an interactive arrival usually sees several
        devices with zero same-class work, and the total keeps those
        choices load-balanced.  With no filters active this degenerates
        to exactly :meth:`_route_online`'s rule -- and is then served
        from the backlog index; filtered predictions depend on the
        arrival's own class and estimate, so they take the class-aware
        linear fallback.  Returns the chosen device and its class-aware
        backlog (what the arrival is predicted to wait behind).
        """
        profiler = self.profiler
        start_ns = time.perf_counter_ns() if profiler is not None else 0
        filtered = min_priority is not None or sjf_within is not None
        if indexes is not None and not filtered:
            best_index, best_backlog = indexes.route_min_backlog(
                now, lambda d: self._inbound_backlog(inflight, d, now)
            )
        else:
            best_key: Optional[Tuple[float, float, int]] = None
            best_index = 0
            best_backlog = 0.0
            # The class-aware fallback scans the admission candidates: the
            # whole fleet when flat, the chosen rack under the two-tier
            # frontend (admission predicts against the rack's surviving
            # capacity, per the rack composition contract).
            candidates = (
                indexes.admission_candidates()
                if indexes is not None
                else range(len(devices))
            )
            for index in candidates:
                device = devices[index]
                if not device.accepts_work:
                    continue  # churn: never predict against a doomed device
                class_backlog = device.predicted_backlog(
                    now, min_priority=min_priority,
                    sjf_within_cycles=sjf_within,
                ) + self._inbound_backlog(
                    inflight, index, now, min_priority=min_priority
                )
                if filtered:
                    total_backlog = device.predicted_backlog(
                        now
                    ) + self._inbound_backlog(inflight, index, now)
                else:
                    total_backlog = class_backlog
                key = (class_backlog, total_backlog, index)
                if best_key is None or key < best_key:
                    best_key = key
                    best_index, best_backlog = index, class_backlog
        if profiler is not None:
            profiler.add("admission", time.perf_counter_ns() - start_ns)
        tracer = self.tracer
        if tracer.enabled and tracer.audit_routing:
            self._audit_route(devices, now, inflight, best_index, "admission")
        return best_index, best_backlog

    @staticmethod
    def _inbound_backlog(
        inflight: Dict[int, List[Tuple[float, float, int]]],
        device: int,
        now: float,
        min_priority: Optional[int] = None,
    ) -> float:
        """Estimated cycles of checkpoint deliveries still bound for
        ``device``; landed entries are pruned as a side effect.

        ``min_priority`` mirrors :meth:`DeviceSim.predicted_backlog`'s
        class-aware filter for the admission path: a delivery the
        arrival would outrank on landing does not delay it.  Routing
        always passes None (every inbound byte counts toward placement).
        """
        entries = inflight[device]
        if not entries:
            return 0.0
        live = [entry for entry in entries if entry[0] > now]
        if len(live) != len(entries):
            inflight[device] = live
        return sum(
            est
            for _, est, priority in live
            if min_priority is None or priority >= min_priority
        )

    def _route_online(
        self,
        devices: Sequence[DeviceSim],
        now: float,
        inflight: Dict[int, List[Tuple[float, float, int]]],
        indexes: Optional[_ClusterIndexes] = None,
    ) -> int:
        """Least live predicted backlog; ties to the lowest device index.

        In-flight checkpoint migrations count toward their destination's
        backlog -- the node agent routed them, so it knows they are
        coming even though the device has not admitted them yet.  With
        indexes the argmin comes from the backlog-bound best-first
        search (identical float semantics, candidate devices only).
        """
        profiler = self.profiler
        start_ns = time.perf_counter_ns() if profiler is not None else 0
        if indexes is not None:
            index, _ = indexes.route_min_backlog(
                now, lambda d: self._inbound_backlog(inflight, d, now)
            )
        else:
            index = min(
                (d for d in range(len(devices)) if devices[d].accepts_work),
                key=lambda d: (
                    devices[d].predicted_backlog(now)
                    + self._inbound_backlog(inflight, d, now),
                    d,
                ),
            )
        if profiler is not None:
            profiler.add("route", time.perf_counter_ns() - start_ns)
        tracer = self.tracer
        if tracer.enabled and tracer.audit_routing:
            self._audit_route(devices, now, inflight, index, "route")
        return index

    def _audit_route(
        self,
        devices: Sequence[DeviceSim],
        now: float,
        inflight: Dict[int, List[Tuple[float, float, int]]],
        chosen: int,
        tag: str,
    ) -> None:
        """Decision-audit emission: the chosen device plus the closest
        runner-ups, each with its exact live backlog and the cheap lower
        bound the backlog index keys on.

        Deliberately an O(devices) fleet scan -- audit mode documents
        decisions, it is not on the overhead contract's fast path -- and
        purely observational (``predicted_backlog`` mutates nothing).
        """
        ranked: List[Tuple[float, int, float]] = []
        chosen_backlog = 0.0
        for index in range(len(devices)):
            device = devices[index]
            if not device.accepts_work:
                continue
            backlog = device.predicted_backlog(now) + self._inbound_backlog(
                inflight, index, now
            )
            if index == chosen:
                chosen_backlog = backlog
            else:
                ranked.append((backlog, index, device.backlog_lower_bound()))
        ranked.sort()
        self.tracer.instant(
            "route_audit",
            f"{tag} -> d{chosen}",
            now,
            args={
                "tag": tag,
                "chosen": chosen,
                "chosen_backlog": chosen_backlog,
                "runners_up": [
                    {"device": index, "backlog": backlog, "bound": bound}
                    for backlog, index, bound in ranked[:3]
                ],
            },
        )

    @staticmethod
    def _poll_migration(
        devices: Sequence[DeviceSim],
        indexes: Optional[_ClusterIndexes],
        polling: bool,
        now: float,
        event: Optional[Tuple[float, int, int]] = None,
    ) -> bool:
        """Keep every device's period ticks live while a migration pass
        could move work; returns the new polling state.

        :meth:`_migrate` runs after every device event, and whether a
        move beats waiting at home depends on *when* it is checked, so
        the ticks of every device are its polling clock whenever some
        device idles and some device holds queued or preempted work (the
        pass's own early-out).  Outside those windows a skipped tick
        could not have moved anything.  ``event`` is the (time,
        kind-rank, device) of the device event just handled; items
        without one (churn transitions) sort before a same-time PERIOD.
        """
        if indexes is not None:
            possible = bool(indexes.idle_candidates) and bool(
                indexes.source_candidates
            )
        else:
            possible = False
            for device in devices:
                if device.maybe_idle:
                    for source in devices:
                        if source.has_queued or source.has_preempted:
                            possible = True
                            break
                    break
        if possible != polling:
            period_rank = int(_EventKind.PERIOD)
            for index, device in enumerate(devices):
                device.poll_ticks(
                    possible,
                    now,
                    event is not None and (now, period_rank, index) < event,
                )
        return possible

    def _sample_before(
        self,
        sampler,
        until: float,
        devices: Sequence[DeviceSim],
        fabric: Optional[Interconnect],
        migrations: List[MigrationRecord],
    ) -> None:
        """Take every sampling-grid point due strictly before ``until``,
        the time of the next item the loop processes."""
        while sampler.next_due < until:
            self._sample_obs(
                sampler, sampler.next_due, devices, fabric, migrations
            )

    def _sample_obs(
        self,
        sampler,
        now: float,
        devices: Sequence[DeviceSim],
        fabric: Optional[Interconnect],
        migrations: List[MigrationRecord],
    ) -> None:
        """One streaming-metrics tick (:mod:`repro.obs.metrics`).

        Recomputes the fleet gauges from pure accessors --
        ``predicted_backlog`` reads task progress without mutating it,
        ``queue_depth``/``is_busy`` are O(1) -- so sampling never
        perturbs a scheduling decision; only the sampler's own state
        changes.  Runs only at the sampler's grid points (see
        :meth:`_sample_before`), so the un-observed loop never enters
        here.
        """
        rack_of = self.rack_of
        rack_busy: Optional[List[int]] = None
        if rack_of is not None:
            rack_busy = [0] * (max(rack_of) + 1)
        busy = 0
        queued = 0
        backlog_total = 0.0
        for index, device in enumerate(devices):
            depth = device.queue_depth
            backlog = device.predicted_backlog(now)
            if device.is_busy:
                busy += 1
                if rack_busy is not None:
                    assert rack_of is not None
                    rack_busy[rack_of[index]] += 1
            queued += depth
            backlog_total += backlog
            sampler.set_gauge(f"device{index}.busy", float(device.is_busy))
            sampler.set_gauge(f"device{index}.queue_depth", float(depth))
            sampler.set_gauge(f"device{index}.backlog_cycles", backlog)
        sampler.set_gauge("cluster.utilization", busy / max(1, len(devices)))
        sampler.set_gauge("cluster.queue_depth", float(queued))
        sampler.set_gauge("cluster.backlog_cycles", backlog_total)
        sampler.set_gauge("cluster.migrations", float(len(migrations)))
        if rack_busy is not None:
            for rack, count in enumerate(rack_busy):
                sampler.set_gauge(f"rack{rack}.busy_devices", float(count))
            if fabric is not None:
                for rack, cycles in fabric.uplink_busy_cycles().items():
                    sampler.set_gauge(
                        f"rack{rack}.uplink_busy_cycles", cycles
                    )
        sampler.sample(now)

    def _steal(
        self,
        devices: Sequence[DeviceSim],
        now: float,
        assignments: Dict[int, int],
        indexes: Optional[_ClusterIndexes] = None,
    ) -> List[MigrationRecord]:
        """Profiling shim over :meth:`_steal_moves` (section "steal")."""
        profiler = self.profiler
        if profiler is None:
            return self._steal_moves(devices, now, assignments, indexes)
        start_ns = time.perf_counter_ns()
        moves = self._steal_moves(devices, now, assignments, indexes)
        profiler.add("steal", time.perf_counter_ns() - start_ns)
        return moves

    def _steal_moves(
        self,
        devices: Sequence[DeviceSim],
        now: float,
        assignments: Dict[int, int],
        indexes: Optional[_ClusterIndexes] = None,
    ) -> List[MigrationRecord]:
        """Migrate queued work from backlogged devices to idle ones.

        Each idle device steals at most one task per event (the stolen
        task's arrival event re-triggers the loop, so repeated steals
        drain naturally).  Victim: largest live predicted backlog among
        devices holding stealable tasks; stolen task: largest estimated
        remaining work (ties to the lowest task id).

        With indexes, thieves come from the idle-candidate set (a
        superset of the truly idle; `is_idle(now)` still decides) and
        victims from the steal-candidate set, both walked in ascending
        device order like the reference fleet enumeration -- the common
        nobody-idle event is an O(1) set peek instead of an O(d) scan,
        and a steal never touches a device without queued work.

        Under a rack topology victim selection is locality-aware: an
        in-rack victim always wins, and a cross-rack victim is taken
        only when no rack-local device has stealable work *and* the
        victim's backlog clears the uplink-cost threshold -- pulling
        work across the oversubscribed tier is only worth it when the
        starvation gap exceeds what the uplink would charge.
        """
        moves: List[MigrationRecord] = []
        rack_of = self.rack_of
        if indexes is not None:
            if indexes.verify:
                indexes.verify_candidate_sets(now)
            # No idle thief or no device holding queued work: nothing to
            # move.  The second peek is what keeps the common
            # everyone-idle event O(1) on large fleets -- without it each
            # such event walks every idle device to find no victims.
            if not indexes.idle_candidates or not indexes.steal_candidates:
                return moves
            thieves: Sequence[int] = indexes.idle_candidates.ordered()
        else:
            thieves = range(len(devices))
        for thief_index in thieves:
            thief = devices[thief_index]
            if not thief.is_idle(now):
                continue
            victim_index: Optional[int] = None
            victim_backlog = 0.0
            victim_tasks: List[TaskRuntime] = []
            remote_index: Optional[int] = None
            remote_backlog = 0.0
            remote_tasks: List[TaskRuntime] = []
            victims: Sequence[int] = (
                indexes.steal_candidates.ordered()
                if indexes is not None
                else range(len(devices))
            )
            for index in victims:
                if index == thief_index:
                    continue
                device = devices[index]
                candidates = device.stealable_tasks()
                if not candidates:
                    continue
                backlog = device.predicted_backlog(now)
                if rack_of is None or rack_of[index] == rack_of[thief_index]:
                    if victim_index is None or backlog > victim_backlog:
                        victim_index, victim_backlog = index, backlog
                        victim_tasks = candidates
                elif remote_index is None or backlog > remote_backlog:
                    remote_index, remote_backlog = index, backlog
                    remote_tasks = candidates
            if (
                victim_index is None
                and remote_index is not None
                and remote_backlog >= self.cross_rack_threshold
            ):
                victim_index, victim_backlog = remote_index, remote_backlog
                victim_tasks = remote_tasks
            if victim_index is None:
                continue
            victim = devices[victim_index]
            stolen = max(
                victim_tasks,
                key=lambda t: (t.context.estimated_remaining_cycles, -t.task_id),
            )
            victim.remove_task(stolen.task_id, now)
            thief.inject(stolen, arrival=now)
            if indexes is not None:
                indexes.refresh(victim)
                indexes.refresh(thief)
            assignments[stolen.task_id] = thief_index
            moves.append(
                MigrationRecord(
                    task_id=stolen.task_id,
                    from_device=victim_index,
                    to_device=thief_index,
                    time_cycles=now,
                    kind="steal",
                    bytes_moved=0.0,
                    arrival_cycles=now,
                )
            )
            tracer = self.tracer
            if tracer.enabled:
                tracer.instant(
                    "migration",
                    f"steal t{stolen.task_id} "
                    f"d{victim_index}->d{thief_index}",
                    now,
                    args={
                        "task": stolen.task_id,
                        "from": victim_index,
                        "to": thief_index,
                        "bytes": 0.0,
                        "reason": "steal",
                    },
                )
        return moves

    def _migrate(
        self,
        devices: Sequence[DeviceSim],
        now: float,
        assignments: Dict[int, int],
        fabric: Interconnect,
        inflight: Dict[int, List[Tuple[float, float, int]]],
        ledger: Optional[ClusterTokenLedger],
        indexes: Optional[_ClusterIndexes] = None,
        event: Optional[Tuple[float, int, int]] = None,
    ) -> List[MigrationRecord]:
        """Profiling shim over :meth:`_migrate_moves` ("migrate")."""
        profiler = self.profiler
        if profiler is None:
            return self._migrate_moves(
                devices, now, assignments, fabric, inflight, ledger, indexes,
                event,
            )
        start_ns = time.perf_counter_ns()
        moves = self._migrate_moves(
            devices, now, assignments, fabric, inflight, ledger, indexes,
            event,
        )
        profiler.add("migrate", time.perf_counter_ns() - start_ns)
        return moves

    def _migrate_moves(
        self,
        devices: Sequence[DeviceSim],
        now: float,
        assignments: Dict[int, int],
        fabric: Interconnect,
        inflight: Dict[int, List[Tuple[float, float, int]]],
        ledger: Optional[ClusterTokenLedger],
        indexes: Optional[_ClusterIndexes] = None,
        event: Optional[Tuple[float, int, int]] = None,
    ) -> List[MigrationRecord]:
        """Pull the most starved migratable task to each idle device.

        Unlike work stealing -- whose moves are free and therefore
        restricted to never-dispatched tasks -- every PREEMPTIVE_MIGRATION
        move crosses the modeled interconnect and is charged real cycles:
        a queued task ships only its Fig-4 context row, a preempted task
        additionally ships its resident checkpoint (CONV/FC activations,
        RNN cell state).  Each idle device with no delivery already
        inbound pulls at most one task per event.

        Candidate choice is cluster-wide and fairness-driven: among every
        QUEUED or (durably checkpointed) PREEMPTED task whose
        contention-aware delivery time beats the wait it faces at home,
        take the highest priority, then most tokens (the most
        slowdown-compensated row), then longest estimated remaining work.
        This is what lets a preempted high-priority victim resume on a
        sibling NPU instead of waiting behind its preemptor.  With
        indexes, thieves walk the idle-candidate set and sources the
        migration-source set (devices holding queued *or* preempted
        work), in ascending device order like the reference enumeration.

        Under a rack topology source selection is locality-aware: only
        when no in-rack source yields an eligible task does the thief
        consider cross-rack sources, and then only tasks whose
        starvation gap (home wait minus delivery delay) clears the
        uplink-cost threshold -- the oversubscribed tier already makes
        ``delivery`` later, and the threshold keeps marginal wins from
        flooding the uplink.

        The key reads exact token counts, so each source settles its
        rows' period grants first; ``event`` is the (time, kind-rank,
        device) of the device event just handled, which decides whether
        a source's tick at exactly ``now`` precedes this pass (the rule
        :meth:`_poll_migration` uses).
        """
        moves: List[MigrationRecord] = []
        rack_of = self.rack_of
        period_rank = int(_EventKind.PERIOD)
        if indexes is not None:
            if indexes.verify:
                indexes.verify_candidate_sets(now)
            # Same O(1) early-outs as _steal: no thief, or no device
            # holding queued/preempted work, means no move this event.
            if not indexes.idle_candidates or not indexes.source_candidates:
                return moves
            thieves: Sequence[int] = indexes.idle_candidates.ordered()
        else:
            thieves = range(len(devices))
        for thief_index in thieves:
            thief = devices[thief_index]
            if not thief.is_idle(now):
                continue
            # Prune landed deliveries, then gate on *presence* of live
            # ones -- a sum test would let a task whose estimate is
            # already exhausted (remaining floored to 0) slip through.
            self._inbound_backlog(inflight, thief_index, now)
            if inflight[thief_index]:
                continue  # a delivery is already on its way here
            best: Optional[TaskRuntime] = None
            best_key: Optional[Tuple[float, float, float, int]] = None
            best_source: Optional[int] = None
            best_payload = 0.0
            best_passed = False
            remote: Optional[TaskRuntime] = None
            remote_key: Optional[Tuple[float, float, float, int]] = None
            remote_source: Optional[int] = None
            remote_payload = 0.0
            remote_passed = False
            sources: Sequence[int] = (
                indexes.source_candidates.ordered()
                if indexes is not None
                else range(len(devices))
            )
            for index in sources:
                if index == thief_index:
                    continue
                device = devices[index]
                candidates = device.stealable_tasks()
                candidates += device.migratable_preempted_tasks(now)
                if not candidates:
                    continue
                passed = event is not None and (now, period_rank, index) < event
                device.settle_grants(now, passed)
                local = (
                    rack_of is None
                    or rack_of[index] == rack_of[thief_index]
                )
                backlog = device.predicted_backlog(now)
                for task in candidates:
                    context = task.context
                    payload = (
                        task.checkpoint_bytes_resident + CONTEXT_ROW_BYTES
                    )
                    delivery = fabric.estimate_arrival(
                        index, thief_index, payload, now
                    )
                    # Wait the task faces at home: everything live on its
                    # source device except its own remaining work.
                    home_wait = backlog - max(
                        0.0, context.estimated_remaining_cycles
                    )
                    if delivery - now >= home_wait:
                        continue  # the link is the slower queue; stay put
                    key = (
                        float(int(context.priority)),
                        context.tokens,
                        context.estimated_remaining_cycles,
                        -task.task_id,
                    )
                    if local:
                        if best_key is None or key > best_key:
                            best, best_key = task, key
                            best_source, best_payload = index, payload
                            best_passed = passed
                    else:
                        gap = home_wait - (delivery - now)
                        if gap < self.cross_rack_threshold:
                            continue  # marginal win; keep the uplink clear
                        if remote_key is None or key > remote_key:
                            remote, remote_key = task, key
                            remote_source, remote_payload = index, payload
                            remote_passed = passed
            if best is None and remote is not None:
                best, best_key = remote, remote_key
                best_source, best_payload = remote_source, remote_payload
                best_passed = remote_passed
            if best is None or best_source is None:
                continue
            source = devices[best_source]
            # "checkpoint" means saved state actually moved; a migrated
            # KILL victim restarts from scratch and ships only the row.
            ships_checkpoint = best.checkpoint_bytes_resident > 0
            task = source.remove_task(best.task_id, now, best_passed)
            record = fabric.transfer(
                best_source, thief_index, best_payload, now,
                task_id=task.task_id,
            )
            # In transit the task keeps waiting (MIGRATING accrues like
            # READY): settle the whole flight now so the row lands with
            # its wait/token state carried over, then let the destination
            # flip it READY at the delivery arrival.
            task.context.state = TaskState.MIGRATING
            task.context.accrue_wait(record.end_cycles)
            if ledger is not None:
                # The migration is a settlement read point: the in-flight
                # task stays visible to the cluster-wide threshold.
                ledger.activate(task.task_id, task.context.tokens)
            task.migration_count += 1
            task.migrated_bytes_total += best_payload
            thief.inject(task, arrival=record.end_cycles)
            if indexes is not None:
                indexes.refresh(source)
                indexes.refresh(thief)
            assignments[task.task_id] = thief_index
            inflight[thief_index].append(
                (record.end_cycles, task.context.estimated_remaining_cycles,
                 int(task.context.priority))
            )
            moves.append(
                MigrationRecord(
                    task_id=task.task_id,
                    from_device=best_source,
                    to_device=thief_index,
                    time_cycles=now,
                    kind="checkpoint" if ships_checkpoint else "steal",
                    bytes_moved=best_payload,
                    arrival_cycles=record.end_cycles,
                )
            )
            tracer = self.tracer
            if tracer.enabled:
                tracer.span(
                    "migration",
                    f"migrate t{task.task_id} "
                    f"d{best_source}->d{thief_index}",
                    now,
                    record.end_cycles,
                    args={
                        "task": task.task_id,
                        "from": best_source,
                        "to": thief_index,
                        "bytes": best_payload,
                        "reason": (
                            "checkpoint" if ships_checkpoint else "steal"
                        ),
                    },
                )
        return moves
