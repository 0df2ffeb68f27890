"""Event-driven multi-task NPU simulator (paper Secs III-V).

One NPU executes a multi-tasked workload under a (policy, preemption mode)
pair.  The scheduler wakes on the paper's three conditions -- task
dispatch, task completion, and scheduling-period expiry (Sec V-C) -- plus
the internal completion of a checkpoint trap.  Between wakes, the running
task advances analytically along its ground-truth execution profile.

The event machinery lives in :class:`DeviceSim`, a *stepwise* simulation
that accepts task injections at any point and processes one event per
:meth:`DeviceSim.step` call.  :class:`NPUSimulator` keeps the original
batch interface (``run()`` to completion) as a thin wrapper; the cluster
layer (:mod:`repro.sched.cluster`) interleaves many ``DeviceSim`` instances
under one global event loop and uses the live-state introspection hooks
(:meth:`DeviceSim.predicted_backlog`, :meth:`DeviceSim.stealable_tasks`,
:meth:`DeviceSim.remove_task`) for online dispatch and work stealing.

Per-event cost is O(log n) or amortized O(1) in the *live* task
population -- it does not grow with the number of tasks the device has
ever seen, which is what makes open-arrival traces (thousands of requests
per device, :mod:`repro.workloads.trace`) tractable:

- pending due arrivals sit in a min-heap (`is_idle` peeks instead of
  scanning the event queue);
- the predicted backlog iterates an admission-ordered live-task set, so
  completed tasks stop costing anything;
- waiting/token accounting settles lazily from ``last_update_cycles`` at
  its read points (dispatch, migration, failure) instead of walking the
  ready queue at every wake; the token policies' period grants are
  replayed per row at those read points, grid point by grid point, so
  a period tick grants only the rows whose grant crosses a token level;
- ready-queue selection goes through the policies' incremental priority
  structures (:mod:`repro.sched.policies`) and the context table's
  incremental ready index;
- the scheduling-period grid is virtual: a PERIOD event is queued only
  while a tick can change something (see :class:`DeviceSim`), so a
  device whose ready queue is empty, or whose waiting rows a tick could
  neither lift over a token level nor re-rank against the running task,
  does not pay for the ticks that would only re-arm themselves.

Preemption modes:

``NP``
    Non-preemptive: the policy is consulted only when the NPU idles.
``STATIC``
    Preempt whenever the policy's candidate outranks the running task,
    always via the configured static mechanism (CHECKPOINT or KILL).
``DYNAMIC``
    PREMA's Algorithm 3: per preemption intent, choose CHECKPOINT or
    DRAIN from the predicted remaining times.
"""

from __future__ import annotations

import dataclasses
import enum
import heapq
import itertools
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.context import ContextTable, TaskState
from repro.core.mechanism import MechanismChoice, select_mechanism
from repro.core.scheduler import SchedulerConfig, next_crossing, replay_grants
from repro.core.tokens import TOKEN_LEVELS, candidate_bucket
from repro.npu.config import NPUConfig
from repro.npu.preemption import (
    CheckpointMechanism,
    KillMechanism,
    PreemptionMechanism,
)
from repro.obs.trace import NULL_TRACER
from repro.sched.policies import Policy
from repro.sched.task import TaskRuntime
from repro.sched.timeline import SegmentKind, Timeline


class PreemptionMode(enum.Enum):
    NP = "np"
    STATIC = "static"
    DYNAMIC = "dynamic"


@dataclasses.dataclass(frozen=True)
class SimulationConfig:
    """Everything one simulation run needs besides the workload itself."""

    npu: NPUConfig
    mode: PreemptionMode = PreemptionMode.NP
    #: Preemption mechanism: "CHECKPOINT" or "KILL".  STATIC mode always
    #: uses it; DYNAMIC mode lets Algorithm 3 pick between it and DRAIN
    #: (the paper's Fig 15 sensitivity swaps CHECKPOINT for KILL here).
    mechanism: str = "CHECKPOINT"
    scheduler: SchedulerConfig = dataclasses.field(default_factory=SchedulerConfig)

    def __post_init__(self) -> None:
        if self.mechanism.upper() not in ("CHECKPOINT", "KILL"):
            raise ValueError("mechanism must be CHECKPOINT or KILL")


class _EventKind(enum.IntEnum):
    # Deterministic tie-break order at equal timestamps: finish work before
    # admitting new tasks, and let period ticks observe a settled state.
    COMPLETE = 0
    ARRIVAL = 1
    PERIOD = 2
    DISPATCH = 3


# Per-event aliases: looking a member up on the Enum class costs a
# descriptor call, measurable on the one-call-per-event path.
_COMPLETE, _ARRIVAL, _PERIOD, _DISPATCH = _EventKind
_PERIOD_RANK = int(_PERIOD)


class DeviceTaskState(enum.Enum):
    """Explicit per-device lifecycle of an injected task.

    The migration layer used to infer migratability from two sets
    ("queued" or nothing); with checkpoint migration in play the
    intermediate states matter -- in particular ``CHECKPOINTING``, whose
    tasks look READY in the context table while their checkpoint DMA is
    still in flight, and must not be shipped (the bytes are not durable
    yet) or double-stolen.
    """

    #: Injected, arrival event not yet processed.
    PENDING = "pending"
    #: Admitted and READY, never dispatched (no checkpoint state).
    QUEUED = "queued"
    #: Target of an in-flight post-preemption DISPATCH reservation.
    RESERVED = "reserved"
    #: Currently executing on the array.
    RUNNING = "running"
    #: Preempted; checkpoint trap/DMA still writing state to DRAM.
    CHECKPOINTING = "checkpointing"
    #: Preempted with a durable DRAM checkpoint -- safely migratable.
    PREEMPTED = "preempted"
    DONE = "done"


#: Lifecycle states a task may be migrated out of (see ``remove_task``).
MIGRATABLE_STATES = frozenset(
    {DeviceTaskState.QUEUED, DeviceTaskState.PREEMPTED}
)


@dataclasses.dataclass(frozen=True)
class SimulationResult:
    """Outcome of one run: completed task runtimes + the NPU timeline."""

    tasks: Tuple[TaskRuntime, ...]
    timeline: Timeline
    makespan_cycles: float
    preemption_count: int
    drain_decisions: int
    #: Events the device processed, keyed by event-kind name (COMPLETE,
    #: ARRIVAL, PERIOD, DISPATCH).  Cost introspection only: skipped
    #: no-op period ticks never show up here.
    events_by_kind: Mapping[str, int] = dataclasses.field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_tasks_by_id",
            {task.task_id: task for task in self.tasks},
        )

    def task_by_id(self, task_id: int) -> TaskRuntime:
        try:
            return self._tasks_by_id[task_id]  # type: ignore[attr-defined]
        except KeyError:
            raise KeyError(f"no task {task_id}") from None


class DeviceSim:
    """Stepwise, injectable single-NPU simulation (one cluster device).

    Holds the per-run mutable state the old monolithic ``run()`` kept in
    locals -- event heap, context table, runtimes, reservation bookkeeping
    -- and exposes it one event at a time.  Tasks may be injected before
    or during the run.

    **Lazy period clock.**  The scheduling-period grid is anchored one
    period after the first admitted arrival and advances by repeated
    ``+= period_cycles``; once every resident task has completed, the
    next tick disarms it and the next arrival re-anchors it.  The grid
    itself is virtual: a tick whose wake cannot decide anything new only
    re-arms itself, so after every step (and on :meth:`stop_accepting`,
    :meth:`force_checkpoint` and :meth:`poll_ticks`) the device queues a
    PERIOD event only when a tick can matter:

    - a row is READY and the last wake did not end in a *time-stable*
      outcome (see below);
    - a row is READY and the tick is the first at which some row's
      token grants cross a priority token level (token policies; see
      "Token grants on demand" below);
    - the device has drained (the tick that disarms and re-anchors the
      grid must fire at its exact time);
    - the device stopped accepting work (churn WARNED/DRAINING): the
      evacuation planner re-plans after each of the device's events, so
      its ticks are a polling clock;
    - the cluster asked for every tick (:meth:`poll_ticks`): preemptive
      migration re-checks the whole fleet after any device's event, and
      whether a move pays off depends on the time of the check.

    A wake outcome is time-stable when repeating the wake at any later
    tick, with no event or level crossing in between, must give the same
    answer and change no state: NP mode with a task running (the wake
    returns at once), or a refused preemption under a policy whose
    refusals hold until then (:attr:`Policy.stable_refusals`: FCFS, HPF
    and SJF, whose keys do not depend on time -- under SJF the running
    task's remaining estimate only shrinks -- and TOKEN and PREMA on a
    device without a cluster ledger, which read counts only through the
    token levels).  A DRAIN verdict is not stable (DYNAMIC mode
    counts one drain decision per tick), nor is a wake that returned
    early on a reserved NPU, nor any step that ran no wake (a DISPATCH
    starts the reserved task without one, so a candidate that arrived
    during the trap is first checked at the next tick), and
    :meth:`force_checkpoint` unsettles the device too, as does
    :meth:`remove_task` under a token policy (the removed row may have
    held the top token bucket, so the threshold can drop).  RRB's
    preemptive-mode wakes advance its rotation cursor, so its refusals
    are not stable either.

    Skipped grid points are caught up by the same repeated addition, so
    every queued tick lands on the float the eager clock would have
    produced and schedules are bit-identical to ticking every period.
    A point before the current event is past; a point *at* it is past
    only when the current event sorts after PERIOD (a PERIOD or a
    DISPATCH).  The PERIOD count in :attr:`events_by_kind` therefore
    shrinks while us/event grows: the skipped ticks were the cheapest
    events.  A queued tick may be superseded by an earlier one (a
    crossing tick, when a wake stops being stable); the superseded
    event is dropped unseen, so at most one PERIOD is live.

    **Token grants on demand.**  Algorithm 2 grants every waiting row
    tokens at every tick, but decisions read counts only through the
    token levels.  So no tick grants eagerly: each READY row remembers
    the first grid point it has not been granted at, and
    :func:`~repro.core.scheduler.replay_grants` applies the owed grants
    -- the tick's own ``accrue_wait`` and grant, point by point, in
    order -- where the row is read: at dispatch, :meth:`remove_task`,
    :meth:`fail`, :meth:`settle_grants` (the cluster's token-ordered
    evacuation and migration choices), and the tick at which
    :func:`~repro.core.scheduler.next_crossing` predicted the row to
    cross its next level.  That tick replays and re-buckets only the
    crossers (:meth:`Policy.on_tokens_raised`).  Between crossings a row
    holds a count that lags the grid but never by a level, so every
    decision, and every cluster ledger maximum, is the eager one; rows
    end bit-identical to eagerly granted ones, tokens and waits alike.
    The other policies settle waits only at dispatch or migration, so
    their wait sums do not depend on which ticks fired either.
    """

    def __init__(
        self,
        config: SimulationConfig,
        policy: Policy,
        device_id: int = 0,
        tracer=None,
    ) -> None:
        self.config = config
        self.policy = policy
        self.device_id = device_id
        #: Observability sink (:mod:`repro.obs.trace`).  Defaults to the
        #: no-op singleton; every emission site guards on
        #: ``self.tracer.enabled`` before building args, so the default
        #: costs one attribute load per potential event and allocates
        #: nothing.
        self.tracer = NULL_TRACER if tracer is None else tracer
        policy.reset()
        self._checkpoint = CheckpointMechanism(config.npu)
        self._kill = KillMechanism(config.npu)
        self._table = ContextTable()
        self._runtimes: Dict[int, TaskRuntime] = {}
        self._events: List[Tuple[float, int, int, _EventKind, object]] = []
        self._counter = itertools.count()
        self.timeline = Timeline()
        self._running_id: Optional[int] = None
        #: Wall-clock cycle until which the NPU is busy checkpointing.
        self._npu_reserved_until = 0.0
        #: Task with an in-flight DISPATCH reservation (post-preemption).
        self._reserved_task_id: Optional[int] = None
        #: Lazy period clock (see the class docstring): the grid is live,
        #: its next unfired point, and whether that point sits in the
        #: event heap as a PERIOD event.
        self._period_armed = False
        self._next_period = 0.0
        self._period_queued = False
        self._period_polled = False
        #: Sequence number and time of the live queued PERIOD event
        #: (superseded PERIOD events are dropped when they surface).
        self._period_seq = -1
        self._period_due = 0.0
        #: The last wake ended in a time-stable outcome (class docstring).
        self._wake_settled = False
        #: Token grants on demand (class docstring): each READY row's
        #: first ungranted grid point, its predicted level crossing, and
        #: a lazy-deletion min-heap of (crossing, task id).
        self._grants = policy.uses_tokens
        self._grant_at: Dict[int, float] = {}
        self._crossing_at: Dict[int, float] = {}
        self._crossings: List[Tuple[float, int]] = []
        self._preemption_count = 0
        self._drain_decisions = 0
        self._completed = 0
        self._now = 0.0
        #: Kind of the most recently processed event (None before any).
        self.last_event_kind: Optional[_EventKind] = None
        #: Task completed by the most recent step() (None otherwise).
        #: The cluster layer's completion hook: admission budgeting and
        #: prediction feedback observe finished tasks through this
        #: without any per-event callback cost.
        self.last_completed: Optional[TaskRuntime] = None
        #: Events processed per kind, indexed by ``_EventKind`` value.
        self._kind_counts = [0] * len(_EventKind)
        #: Min-heap of unprocessed ARRIVAL timestamps.  Arrivals fire in
        #: time order, so the heap minimum is always the next one to
        #: fire; `is_idle` peeks it instead of scanning the event queue.
        self._pending_arrivals: List[float] = []
        #: Admitted, not-yet-completed tasks in admission order -- the
        #: population `predicted_backlog` sums over.  Completed tasks
        #: leave immediately, so backlog reads cost O(live), not O(ever).
        self._live_admitted: Dict[int, TaskRuntime] = {}
        #: Admitted, READY, never-dispatched tasks in admission order:
        #: the stealable population (modulo the reserved task).
        self._queued: Dict[int, TaskRuntime] = {}
        #: Admitted, READY, previously-dispatched tasks (they hold
        #: checkpoint state) in preemption order: the checkpoint-migration
        #: population, gated by ``_checkpoint_durable_at``.
        self._preempted: Dict[int, TaskRuntime] = {}
        #: Cycle at which a preempted task's checkpoint DMA finishes and
        #: its state becomes durable in DRAM.  Absent for tasks migrated
        #: *in* (their checkpoint arrived with them, already durable).
        self._checkpoint_durable_at: Dict[int, float] = {}
        #: Ids migrated out of this device: the only ids whose stale
        #: COMPLETE events may legitimately reference a missing runtime.
        self._migrated_out: set = set()
        #: Cluster notification hook: invoked (with this device) whenever
        #: the head of the event queue -- the ``next_event_key()`` value
        #: -- changes.  The cluster loop's global device-event heap
        #: refreshes its lazy-deletion entries through this instead of
        #: re-scanning every device per event; ``None`` (the default, and
        #: the single-NPU batch path) costs nothing.
        self.on_next_event_change: Optional[Callable[["DeviceSim"], None]] = None
        self._notified_key: Optional[Tuple[float, int]] = None
        #: Churn gate: False while the device is down, or (proactive
        #: mode) while a revocation/drain warning window is open.  The
        #: cluster layer's routing, stealing, and idle indexes all treat
        #: a non-accepting device as invisible; churn-free runs never
        #: clear it, so every historical code path is unchanged.
        self.accepts_work = True

    @property
    def events_processed(self) -> int:
        """Total events processed (introspection / benchmarking)."""
        return sum(self._kind_counts)

    @property
    def events_by_kind(self) -> Dict[str, int]:
        """Events processed per kind name (see :class:`SimulationResult`)."""
        return {
            kind.name: self._kind_counts[kind] for kind in _EventKind
        }

    def _notify_event_change(self) -> None:
        """Fire :attr:`on_next_event_change` if the head key moved.

        Called once per external mutation (:meth:`inject`, :meth:`step`);
        intermediate pushes inside one event's handlers coalesce into at
        most one notification.
        """
        callback = self.on_next_event_change
        if callback is None:
            return
        key = self.next_event_key()
        if key != self._notified_key:
            self._notified_key = key
            callback(self)

    # ------------------------------------------------------------------
    # Event queue
    # ------------------------------------------------------------------
    def _push(self, time: float, kind: _EventKind, payload: object) -> None:
        heapq.heappush(
            self._events, (time, int(kind), next(self._counter), kind, payload)
        )

    def inject(self, task: TaskRuntime, arrival: Optional[float] = None) -> None:
        """Schedule ``task`` to arrive at ``arrival`` (default: its spec time).

        Callable before the run starts or at any point during it (cluster
        online dispatch and work-stealing migration inject mid-run).
        """
        when = task.spec.arrival_cycles if arrival is None else arrival
        if task.task_id in self._runtimes:
            raise ValueError(f"duplicate task id {task.task_id}")
        self._runtimes[task.task_id] = task
        heapq.heappush(self._pending_arrivals, when)
        self._push(when, _EventKind.ARRIVAL, task.task_id)
        self._notify_event_change()

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the next pending event (None when dormant)."""
        return self._events[0][0] if self._events else None

    def next_event_key(self) -> Optional[Tuple[float, int]]:
        """(timestamp, kind-rank) of the next pending event.

        The kind rank follows :class:`_EventKind`'s tie-break order, so a
        cluster loop can decide whether a device event logically precedes
        a same-time cluster-level arrival.
        """
        return (self._events[0][0], self._events[0][1]) if self._events else None

    def step(self) -> float:
        """Process exactly one pending event; returns its timestamp."""
        if not self._events:
            raise RuntimeError("no pending events")
        events = self._events
        now, rank, _, kind, payload = heapq.heappop(events)
        while events and events[0][1] == _PERIOD_RANK and (
            events[0][2] != self._period_seq
        ):
            heapq.heappop(events)  # a superseded tick
        self._now = now
        self.last_event_kind = kind
        self.last_completed = None
        self._kind_counts[rank] += 1
        self._wake_settled = False
        if kind is _ARRIVAL:
            self._on_arrival(now, payload)  # type: ignore[arg-type]
        elif kind is _COMPLETE:
            self._on_complete(now, payload)  # type: ignore[arg-type]
        elif kind is _PERIOD:
            self._on_period(now)
        elif kind is _DISPATCH:
            self._on_dispatch(now, payload)  # type: ignore[arg-type]
        if self._period_armed:
            self._queue_period(now, kind is _DISPATCH)
        self._notify_event_change()
        return now

    def _queue_period(self, now: float, passed_now: bool) -> None:
        """Queue the next tick that can matter (lazy period clock).

        That is the next grid point when every tick matters, else the
        earliest predicted token-level crossing.  Walks the grid past
        the points that fell due while no tick could matter -- each
        would have fired as a no-op -- using the same repeated addition
        as the eager clock, so the queued time is bit-identical to the
        tick that clock would fire.  ``passed_now`` says whether a point
        exactly at ``now`` already fired, i.e. whether the event being
        handled sorts after PERIOD.  A queued tick later than the one
        needed is superseded, never duplicated.
        """
        if not self._period_armed or (
            # The next grid point itself is queued: nothing is earlier.
            self._period_queued and self._period_due == self._next_period
        ):
            return
        has_ready = self._table.has_ready
        if (
            (has_ready and not self._wake_settled)
            or self._period_polled
            or not self.accepts_work
            or self._completed == len(self._runtimes)
        ):
            due = self._grid_point(now, passed_now)
        elif has_ready and self._crossing_at:
            due = self._next_crossing()
        else:
            return
        if self._period_queued and self._period_due <= due:
            return
        seq = next(self._counter)
        heapq.heappush(self._events, (due, _PERIOD_RANK, seq, _PERIOD, None))
        self._period_seq = seq
        self._period_due = due
        self._period_queued = True

    def _grid_point(self, now: float, passed_now: bool) -> float:
        """The first grid point not yet passed at ``now`` (advances the
        clock's next point to it by repeated addition)."""
        period = self.config.scheduler.period_cycles
        due = self._next_period
        while due < now or (passed_now and due == now):
            due += period
        self._next_period = due
        return due

    def _tick_passed(self, now: float, passed_now: bool = False) -> bool:
        """Has the tick at exactly ``now`` (if the grid has one) fired?

        True when the caller says so (a cluster item sorting after this
        device's tick) or when the device's last event was at ``now``
        and sorts at or after PERIOD.
        """
        kind = self.last_event_kind
        return passed_now or (
            now == self._now and kind is not None and kind >= _PERIOD
        )

    # ------------------------------------------------------------------
    # Token grants on demand (token policies)
    # ------------------------------------------------------------------
    def _track(self, row, now: float) -> None:
        """Start replaying grants for ``row``, READY from ``now`` on, and
        predict its first level crossing."""
        point = self._grid_point(now, self._tick_passed(now))
        self._grant_at[row.task_id] = point
        self._predict(row, point)

    def _release(self, row, now: float, passed: bool) -> None:
        """Settle the grants ``row`` is owed as it leaves the ready queue
        at ``now``, and stop tracking it (untracked rows: no-op)."""
        point = self._grant_at.pop(row.task_id, None)
        if point is not None:
            replay_grants(
                row, point, now, self.config.scheduler.period_cycles, passed
            )
            self._crossing_at.pop(row.task_id, None)

    def _predict(self, row, point: float) -> None:
        """Record the grid point where ``row`` crosses its next level."""
        bucket = candidate_bucket(row.tokens)
        if bucket >= len(TOKEN_LEVELS):
            return
        crossing = next_crossing(
            row, point, self.config.scheduler.period_cycles,
            TOKEN_LEVELS[bucket],
        )
        if crossing is None:
            return
        self._crossing_at[row.task_id] = crossing
        heap = self._crossings
        heapq.heappush(heap, (crossing, row.task_id))
        if len(heap) > 64 and len(heap) > 2 * len(self._crossing_at):
            heap[:] = [
                (at, task_id) for task_id, at in self._crossing_at.items()
            ]
            heapq.heapify(heap)

    def _next_crossing(self) -> float:
        """The earliest live predicted crossing (``_crossing_at`` must be
        non-empty)."""
        heap = self._crossings
        crossing_at = self._crossing_at
        while True:
            point, task_id = heap[0]
            if crossing_at.get(task_id) == point:
                return point
            heapq.heappop(heap)

    def _grant_crossers(self, now: float) -> None:
        """The period tick at ``now``: replay the rows predicted to cross
        a level here, re-bucket them, and predict their next crossing."""
        heap = self._crossings
        crossing_at = self._crossing_at
        grant_at = self._grant_at
        period = self.config.scheduler.period_cycles
        crossers = []
        while heap and heap[0][0] <= now:
            point, task_id = heapq.heappop(heap)
            if crossing_at.get(task_id) != point:
                continue
            del crossing_at[task_id]
            row = self._table[task_id]
            grant_at[task_id] = replay_grants(
                row, grant_at[task_id], now, period, True
            )
            crossers.append(row)
        if crossers:
            for row in crossers:
                self._predict(row, grant_at[row.task_id])
            self.policy.on_tokens_raised(crossers, self._table)

    def settle_grants(self, now: float, passed_now: bool = False) -> None:
        """Replay every ready row's period grants up to ``now``.

        The read point for callers that rank this device's rows by their
        exact token counts (cluster evacuation and migration choices).
        ``passed_now`` says whether this device's tick at exactly
        ``now`` precedes the caller's item in the global event order.
        """
        if not self._grant_at:
            return
        passed = self._tick_passed(now, passed_now)
        table = self._table
        period = self.config.scheduler.period_cycles
        grant_at = self._grant_at
        for task_id, point in grant_at.items():
            grant_at[task_id] = replay_grants(
                table[task_id], point, now, period, passed
            )

    def stop_accepting(self, now: float) -> None:
        """Refuse new work from cycle ``now`` on (churn warning window).

        Routing, stealing and idle indexes treat a non-accepting device
        as invisible.  While the window is open every period tick fires
        -- the evacuation planner re-plans after each of the device's
        events -- so the device queues its next tick here.
        """
        self.accepts_work = False
        # Churn transitions sort before a same-time PERIOD.
        self._queue_period(now, False)
        self._notify_event_change()

    def poll_ticks(self, on: bool, now: float, passed_now: bool) -> None:
        """Make every period tick matter while ``on`` (cluster hook).

        A tick the device itself would skip is still a point where the
        cluster loop runs its post-event checks; preemptive migration
        uses those as a polling clock while some device idles and some
        holds migratable work.  ``passed_now`` says whether this
        device's tick at exactly ``now`` precedes the cluster's current
        item in the global event order.
        """
        self._period_polled = on
        if on:
            self._queue_period(now, passed_now)
            self._notify_event_change()

    # ------------------------------------------------------------------
    # Introspection (cluster-level routing and stealing read these)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def completed_count(self) -> int:
        return self._completed

    @property
    def num_tasks(self) -> int:
        return len(self._runtimes)

    @property
    def has_live_tasks(self) -> bool:
        return self._completed < len(self._runtimes)

    @property
    def maybe_idle(self) -> bool:
        """The time-independent clauses of :meth:`is_idle` (O(1) fields).

        ``is_idle(now)`` implies ``maybe_idle`` for every ``now`` a
        cluster loop can observe: the two time-dependent clauses it adds
        (the NPU-reservation window and a due-but-unprocessed arrival)
        only ever *remove* idleness.  The cluster's idle-candidate set is
        therefore keyed on this property and re-checks ``is_idle(now)``
        on consumption.  A device that stopped accepting work (churn) is
        never an idle *candidate* -- it must not attract steals.
        """
        return (
            self.accepts_work
            and self._running_id is None
            and self._reserved_task_id is None
            and not self._table.has_ready
        )

    @property
    def has_queued(self) -> bool:
        """Any admitted, READY, never-dispatched task resident (O(1)).

        A superset test for :meth:`stealable_tasks` being non-empty (the
        reserved dispatch target still filters at read time).
        """
        return bool(self._queued)

    @property
    def has_preempted(self) -> bool:
        """Any preempted task resident (O(1)); durability still gates
        :meth:`migratable_preempted_tasks` at read time."""
        return bool(self._preempted)

    @property
    def queue_depth(self) -> int:
        """Resident not-running work: queued + preempted tasks (O(1)).

        The streaming-metrics gauge (:mod:`repro.obs.metrics`); purely
        observational.
        """
        return len(self._queued) + len(self._preempted)

    @property
    def is_busy(self) -> bool:
        """A task currently occupies the array (O(1), observational)."""
        return self._running_id is not None

    def is_idle(self, now: float) -> bool:
        """No running task, empty ready queue, no reservation in flight,
        and no admitted-but-unprocessed arrival already due.

        The last clause keeps work stealing fair: a thief that just
        received a stolen task (its ARRIVAL event still pending at
        ``now``) must not be counted idle again in the same instant and
        grab a second task from under another idle device.  All clauses
        are O(1) peeks.  A non-accepting device (churn) is never idle
        for the cluster's purposes -- it must not attract work.
        """
        return (
            self.accepts_work
            and self._running_id is None
            and self._reserved_task_id is None
            and now >= self._npu_reserved_until
            and not self._table.has_ready
            and not (
                self._pending_arrivals and self._pending_arrivals[0] <= now
            )
        )

    def predicted_backlog(
        self,
        now: float,
        min_priority: Optional[int] = None,
        sjf_within_cycles: Optional[float] = None,
    ) -> float:
        """Scheduler-visible predicted cycles left on this device.

        Sums ``Time_estimated`` minus accounted progress over every live
        task already *admitted* (tasks whose arrival event has not fired
        yet are invisible, as they would be to a real node agent).  The
        running task's progress is refreshed the same way the preemption
        check refreshes it, so routing and preemption see one state.
        Iterates the admission-ordered live set: completed tasks cost
        nothing, so the read is O(live tasks).

        ``min_priority`` restricts the sum to tasks of at least that
        priority -- the *class-aware* backlog the admission controller
        predicts with.  Under the preemptive priority-driven policies an
        arriving high-priority request neither waits behind queued
        low-priority work nor behind a running low-priority task (it
        preempts it at the next boundary), so counting either would
        over-reject exactly the class admission exists to protect.
        ``sjf_within_cycles`` refines the same-priority term: PREMA's
        Algorithm 2 serves the *shortest* candidate first among equal
        priorities, so an arrival only waits behind same-priority rows
        whose remaining estimate is at most its own.  None (the default,
        and the only form routing ever uses) keeps the historical total.
        """
        if min_priority is None and sjf_within_cycles is None:
            return self._backlog_sum(lambda task: task.progress_at(now))
        total = 0.0
        for task in self._live_admitted.values():
            context = task.context
            if min_priority is not None:
                level = int(context.priority)
                if level < min_priority:
                    continue
                remaining = max(
                    0.0, context.estimated_cycles - context.executed_cycles
                )
                if (
                    level == min_priority
                    and sjf_within_cycles is not None
                    and task.dispatch_time is None
                    and remaining > sjf_within_cycles
                ):
                    continue
            if task.dispatch_time is not None:
                executed = task.progress_at(now)
            else:
                executed = context.executed_cycles
            total += max(0.0, context.estimated_cycles - executed)
        return total

    def _backlog_sum(self, running_executed) -> float:
        """The unfiltered admission-order backlog summation.

        The single loop behind both :meth:`predicted_backlog`'s
        unfiltered read and :meth:`backlog_lower_bound` -- the backlog
        index's bit-for-bit guarantee requires those two to perform the
        *identical* IEEE-754 summation with only the running task's
        executed-cycles source swapped, so they must not drift apart as
        separate copies.  ``running_executed(task)`` supplies that
        source for dispatched tasks.
        """
        total = 0.0
        for task in self._live_admitted.values():
            context = task.context
            if task.dispatch_time is not None:
                executed = running_executed(task)
            else:
                executed = context.executed_cycles
            total += max(0.0, context.estimated_cycles - executed)
        return total

    def backlog_lower_bound(self) -> float:
        """A floor under :meth:`predicted_backlog` valid until the next
        device mutation -- the key of the cluster's backlog index.

        ``predicted_backlog(now)`` differs from the settled state only in
        the running task's term, which shrinks as ``now`` advances but
        never below ``max(0, Time_estimated - total profile cycles)``
        (progress caps at the profile end, and the COMPLETE event that
        would remove the task fires before any later routing decision).
        Substituting that floor for the running task's term -- in the
        *same* admission-order IEEE-754 summation, where replacing one
        non-negative term by a smaller one can only lower every partial
        sum -- yields a bound that provably never exceeds the exact
        backlog at any reachable ``now``, so a best-first search over
        these bounds reproduces the linear scan's argmin bit-for-bit.
        In-flight checkpoint deliveries (also non-negative add-ons) are
        deliberately excluded for the same reason.
        """
        return self._backlog_sum(lambda task: task.profile.total_cycles)

    def task_lifecycle(self, task_id: int, now: float) -> DeviceTaskState:
        """Explicit lifecycle state of an injected task at cycle ``now``.

        This is the migration layer's single source of truth: a task is
        exactly one of PENDING / QUEUED / RESERVED / RUNNING /
        CHECKPOINTING / PREEMPTED / DONE, and only QUEUED and PREEMPTED
        tasks may leave the device.
        """
        task = self._runtimes.get(task_id)
        if task is None:
            raise KeyError(f"no task {task_id}")
        if task.is_done:
            return DeviceTaskState.DONE
        if task_id == self._running_id:
            return DeviceTaskState.RUNNING
        if task_id == self._reserved_task_id:
            return DeviceTaskState.RESERVED
        if task_id in self._queued:
            return DeviceTaskState.QUEUED
        if task_id in self._preempted:
            if now < self._checkpoint_durable_at.get(task_id, 0.0):
                return DeviceTaskState.CHECKPOINTING
            return DeviceTaskState.PREEMPTED
        return DeviceTaskState.PENDING

    @property
    def running_task(self) -> Optional[TaskRuntime]:
        """The currently executing runtime (None when the array is free)."""
        if self._running_id is None:
            return None
        return self._runtimes.get(self._running_id)

    def stealable_tasks(self) -> List[TaskRuntime]:
        """Still-queued tasks safe to migrate: admitted, READY, never
        dispatched, and not the target of a reserved post-preemption
        dispatch.  Never-dispatched tasks carry no checkpoint state, so a
        migration moves only the context row.  O(queued): the set is
        maintained at admit/dispatch/remove."""
        reserved = self._reserved_task_id
        return [
            task
            for task in self._queued.values()
            if task.task_id != reserved
        ]

    def migratable_preempted_tasks(self, now: float) -> List[TaskRuntime]:
        """Preempted tasks whose checkpoint is durable in DRAM at ``now``.

        Excludes CHECKPOINTING tasks (their state is still streaming to
        DRAM -- shipping it would race the trap routine) and the reserved
        post-preemption dispatch target.  O(preempted): the set is
        maintained at preemption/dispatch/remove.
        """
        reserved = self._reserved_task_id
        return [
            task
            for task_id, task in self._preempted.items()
            if task_id != reserved
            and now >= self._checkpoint_durable_at.get(task_id, 0.0)
        ]

    def remove_task(
        self, task_id: int, now: float, passed_now: bool = False
    ) -> TaskRuntime:
        """Migrate a QUEUED or PREEMPTED task out of this device.

        Token grants and waiting time are settled up to ``now`` first
        (the migration read point of the lazy accounting; ``passed_now``
        as in :meth:`settle_grants`), so tokens and wait earned on this
        device travel with the context row to the new device;
        preempted tasks additionally carry their retained progress,
        pending restore cost, and resident checkpoint bytes on the
        runtime.  Every other lifecycle state refuses explicitly --
        RUNNING and RESERVED tasks own (or are promised) the array, and a
        CHECKPOINTING task's state is not yet durable, so moving any of
        them would double-book execution state across devices.
        """
        state = self.task_lifecycle(task_id, now)
        if state not in MIGRATABLE_STATES:
            raise ValueError(
                f"task {task_id} is {state.value}; only queued or "
                "(durably checkpointed) preempted tasks can migrate"
            )
        task = self._runtimes[task_id]
        passed = self._tick_passed(now, passed_now)
        self._release(task.context, now, passed)
        task.context.accrue_wait(now)
        self._table.remove(task_id)
        del self._runtimes[task_id]
        self._queued.pop(task_id, None)
        self._preempted.pop(task_id, None)
        self._checkpoint_durable_at.pop(task_id, None)
        del self._live_admitted[task_id]
        self._migrated_out.add(task_id)
        self.policy.on_remove(task.context, now)
        if self._grants:
            # The row may have held the top token bucket: the threshold
            # can drop and widen the candidate group, so a refusal no
            # longer holds and the next tick must wake.
            self._wake_settled = False
            self._queue_period(now, passed)
            self._notify_event_change()
        return task

    def fail(self, now: float) -> List[TaskRuntime]:
        """Fail-stop this device at cycle ``now``.

        Everything resident dies with the device's DRAM: the running
        task's progress, in-flight and durable checkpoints, pending
        restores.  Every non-DONE task -- running, checkpointing,
        preempted, queued, reserved, or still pending arrival -- is
        reset to offset zero (:meth:`TaskRuntime.record_failure`) and
        returned as an orphan for the cluster to re-dispatch elsewhere.
        The event queue is wiped (a dead device fires no events) and the
        device stops accepting work; completed tasks stay resident so
        :meth:`result` still reports them.
        """
        running = (
            self._runtimes.get(self._running_id)
            if self._running_id is not None
            else None
        )
        if running is not None and running.dispatch_time is not None:
            # Pin the timeline through the failure instant before the
            # runtime forgets its dispatch.
            self._record_run_segments(running, now, interrupted=True)
        if self._grants:
            # Orphans keep their tokens: settle the grants they earned.
            self.settle_grants(now)
            self._grant_at.clear()
            self._crossing_at.clear()
            self._crossings.clear()
        orphans: List[TaskRuntime] = []
        for task_id in list(self._runtimes):
            task = self._runtimes[task_id]
            if task.is_done:
                continue
            task.record_failure(now)
            del self._runtimes[task_id]
            if task_id in self._live_admitted:
                self._table.remove(task_id)
                del self._live_admitted[task_id]
                self.policy.on_remove(task.context, now)
            self._queued.pop(task_id, None)
            self._preempted.pop(task_id, None)
            self._checkpoint_durable_at.pop(task_id, None)
            self._migrated_out.add(task_id)
            orphans.append(task)
        self._events.clear()
        self._pending_arrivals.clear()
        self._running_id = None
        self._reserved_task_id = None
        self._npu_reserved_until = now
        self._period_armed = False
        self._period_queued = False
        self._period_seq = -1
        self.accepts_work = False
        self._notify_event_change()
        if self.tracer.enabled:
            self.tracer.instant(
                "device_fail",
                f"fail dev{self.device_id}",
                now,
                device=self.device_id,
                args={"orphans": len(orphans)},
            )
        return orphans

    def preview_checkpoint(self, now: float):
        """Cost of checkpointing the running task, without committing.

        Returns ``(free_at, checkpoint_bytes)`` -- when the trap DMA
        would finish and how many bytes would need shipping -- or
        ``None`` when nothing is running.  The evacuation planner uses
        this to decide whether a checkpoint-then-migrate fits inside a
        revocation warning window.
        """
        if self._running_id is None:
            return None
        running = self._runtimes[self._running_id]
        progress = running.progress_at(now)
        outcome = self._checkpoint.preempt(running.profile, progress)
        boundary_wall = running.wall_time_at_offset(outcome.boundary_offset)
        free_at = boundary_wall + outcome.preemption_latency
        return free_at, outcome.checkpoint_bytes

    def force_checkpoint(self, now: float) -> Tuple[float, float]:
        """Checkpoint the running task with no reserved successor.

        The churn evacuation path: a WARNED device checkpoints its
        running task so the durable bytes can migrate out before the
        revocation deadline.  Identical bookkeeping to a policy-driven
        CHECKPOINT preemption except that no candidate is promised the
        array -- the DISPATCH event pushed at ``free_at`` carries no
        payload and simply re-runs the scheduler once the trap DMA
        lands.  Returns ``(free_at, checkpoint_bytes)``.
        """
        if self._running_id is None:
            raise RuntimeError("no running task to checkpoint")
        running = self._runtimes[self._running_id]
        progress = running.progress_at(now)
        outcome = self._checkpoint.preempt(running.profile, progress)
        boundary_wall = running.wall_time_at_offset(outcome.boundary_offset)
        free_at = boundary_wall + outcome.preemption_latency
        self._record_run_segments(running, boundary_wall)
        if outcome.preemption_latency > 0:
            self.timeline.record(
                running.task_id, SegmentKind.CHECKPOINT, boundary_wall, free_at
            )
        if self.tracer.enabled:
            self.tracer.instant(
                "preemption",
                f"evacuate t{running.task_id}",
                boundary_wall,
                device=self.device_id,
                args={
                    "victim": running.task_id,
                    "mechanism": "forced-checkpoint",
                    "checkpoint_bytes": outcome.checkpoint_bytes,
                },
            )
            self.tracer.span(
                "checkpoint",
                f"checkpoint t{running.task_id}",
                boundary_wall,
                free_at,
                device=self.device_id,
                args={"task": running.task_id},
            )
        running.record_preemption(
            now=boundary_wall,
            retained_offset=outcome.retained_offset,
            restore_latency=outcome.restore_latency,
            checkpoint_bytes=outcome.checkpoint_bytes,
            killed=False,
        )
        self.policy.on_requeue(running.context)
        if self._grants:
            self._track(running.context, now)
        self._preempted[running.task_id] = running
        self._checkpoint_durable_at[running.task_id] = free_at
        self._npu_reserved_until = free_at
        self._preemption_count += 1
        self._running_id = None
        self._push(free_at, _EventKind.DISPATCH, None)
        # The victim is a new READY row: its ticks matter again.
        self._wake_settled = False
        self._queue_period(now, self._tick_passed(now))
        self._notify_event_change()
        return free_at, outcome.checkpoint_bytes

    def result(self) -> Optional[SimulationResult]:
        """Build the device's :class:`SimulationResult` (None if no tasks)."""
        if not self._runtimes:
            return None
        makespan = max(
            task.completion_time
            for task in self._runtimes.values()
            if task.completion_time is not None
        )
        return SimulationResult(
            tasks=tuple(self._runtimes.values()),
            timeline=self.timeline,
            makespan_cycles=makespan,
            preemption_count=self._preemption_count,
            drain_decisions=self._drain_decisions,
            events_by_kind=self.events_by_kind,
        )

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _on_arrival(self, now: float, task_id: int) -> None:
        heapq.heappop(self._pending_arrivals)
        task = self._runtimes[task_id]
        if task.context.state is TaskState.MIGRATING:
            # Mid-flight re-admission: the checkpoint just landed over the
            # interconnect.  Transit wait was settled by the sender up to
            # this arrival, so the row re-enters READY with its accrued
            # wait/tokens intact and its checkpoint already durable here.
            task.context.state = TaskState.READY
        task.context.last_update_cycles = now
        self._table.add(task.context)
        self._live_admitted[task_id] = task
        if task.first_dispatch_time is None:
            self._queued[task_id] = task
        else:
            # Previously dispatched elsewhere: it carries checkpoint
            # state, so it joins the preempted (not the stealable) set.
            self._preempted[task_id] = task
        self.policy.on_admit(task.context, now)
        if not self._period_armed:
            # Anchor the grid one period after the first admitted arrival
            # (matches the monolithic run()'s anchor); step() queues the
            # tick itself once one can matter.
            self._period_armed = True
            self._next_period = now + self.config.scheduler.period_cycles
        self._wake(now)
        if self._grants and task.context.state is TaskState.READY:
            # Track only a row the wake left waiting: one dispatched at
            # its arrival was owed no grant.
            self._track(task.context, now)

    def _on_complete(self, now: float, payload: object) -> None:
        task_id, epoch = payload  # type: ignore[misc]
        task = self._runtimes.get(task_id)
        if task is None:
            # Only a migrated-away task may leave a dangling COMPLETE
            # behind; anything else is a bookkeeping bug worth crashing on.
            if task_id not in self._migrated_out:
                raise KeyError(f"completion for unknown task {task_id}")
            return
        if task.epoch != epoch or task.context.state != TaskState.RUNNING:
            return  # stale completion from a preempted dispatch
        self._record_run_segments(task, now)
        task.complete(now)
        if self.tracer.enabled:
            self.tracer.instant(
                "complete",
                f"complete t{task_id}",
                now,
                device=self.device_id,
                args={"task": task_id, "turnaround": task.turnaround_cycles},
            )
        self.last_completed = task
        self._completed += 1
        self._live_admitted.pop(task_id, None)
        if task_id == self._running_id:
            self._running_id = None
        self._wake(now)

    def _on_period(self, now: float) -> None:
        self._period_queued = False
        if self._completed < len(self._runtimes):
            self._next_period = now + self.config.scheduler.period_cycles
        else:
            self._period_armed = False
            self._crossings.clear()
        if self._crossing_at:
            self._grant_crossers(now)
        self._wake(now)

    def _on_dispatch(self, now: float, task_id: Optional[int]) -> None:
        self._reserved_task_id = None
        if task_id is None:
            # Forced-checkpoint wake (churn evacuation): the trap DMA just
            # finished with no reserved successor -- run the scheduler.
            self._wake(now)
            return
        # Reserved candidates are excluded from stealable_tasks(), so the
        # dispatch target is always still resident; a KeyError here means
        # that invariant was violated.
        task = self._runtimes[task_id]
        if task.is_done or task.context.state == TaskState.RUNNING:
            return
        self._running_id = self._dispatch(now, task)

    # ------------------------------------------------------------------
    # Scheduler core
    # ------------------------------------------------------------------
    def _dispatch(self, now: float, task: TaskRuntime) -> int:
        if self._grant_at:
            self._release(task.context, now, self._tick_passed(now))
        completion = task.dispatch(now)
        self._queued.pop(task.task_id, None)
        self._preempted.pop(task.task_id, None)
        self._checkpoint_durable_at.pop(task.task_id, None)
        self.policy.on_dispatch(task.context)
        self._push(completion, _EventKind.COMPLETE, (task.task_id, task.epoch))
        if self.tracer.enabled:
            self.tracer.instant(
                "dispatch",
                f"dispatch t{task.task_id}",
                now,
                device=self.device_id,
                args={"task": task.task_id, "projected_end": completion},
            )
        return task.task_id

    def _record_run_segments(
        self, task: TaskRuntime, end: float, interrupted: bool = False
    ) -> None:
        """Record the restore + run spans of the dispatch ending at ``end``.

        ``interrupted`` (a device failure) may end the dispatch inside its
        checkpoint restore: the RESTORE span is then clipped at ``end``
        and no RUN span is recorded.
        """
        start = task.dispatch_time
        if start is None:
            return
        restore_end = start + task.dispatch_restore
        ran = not (interrupted and end <= restore_end)
        if not ran:
            restore_end = end
        self.timeline.record(task.task_id, SegmentKind.RESTORE, start, restore_end)
        if ran:
            self.timeline.record(task.task_id, SegmentKind.RUN, restore_end, end)
        if self.tracer.enabled:
            # Zero-length restores become instants inside span(), mirroring
            # the Timeline's instants side list.
            self.tracer.span(
                "restore",
                f"restore t{task.task_id}",
                start,
                restore_end,
                device=self.device_id,
                args={"task": task.task_id},
            )
            if ran:
                self.tracer.span(
                    "run",
                    f"run t{task.task_id}",
                    restore_end,
                    end,
                    device=self.device_id,
                    args={"task": task.task_id},
                )

    def _wake(self, now: float) -> None:
        """Run the scheduler at a wake condition."""
        if self._running_id is None:
            if now < self._npu_reserved_until or self._reserved_task_id is not None:
                # A checkpoint trap is in flight, or the NPU is promised
                # to a preemption candidate whose DISPATCH event has not
                # fired yet (an arrival tying exactly with the trap's end
                # must not double-book the array -- it can preempt the
                # reserved task at the next wake instead).
                return
            candidate_ctx = self.policy.select_ready(self._table)
            if candidate_ctx is None:
                return
            self._running_id = self._dispatch(
                now, self._runtimes[candidate_ctx.task_id]
            )
            self._wake_settled = self.config.mode == PreemptionMode.NP
            return

        if self.config.mode == PreemptionMode.NP:
            self._wake_settled = True
            return

        candidate_ctx = self.policy.select_ready(self._table)
        if candidate_ctx is None:
            return
        running = self._runtimes[self._running_id]
        # Token-driven policies re-rank as waiting tasks earn tokens;
        # the scheduling-period time-quota (Table II)
        # guarantees the running task at least one quota of service so
        # token drift cannot ping-pong the NPU between two tasks.
        if self.policy.uses_tokens and running.dispatch_time is not None:
            if now - running.dispatch_time < self.config.scheduler.period_cycles:
                return
        # Refresh the running task's accounted progress for ranking.
        running.context.executed_cycles = running.progress_at(now)
        if not self.policy.outranks_running(
            candidate_ctx, running.context, self._table
        ):
            self._wake_settled = self.policy.stable_refusals
            return

        mechanism: PreemptionMechanism = (
            self._kill
            if self.config.mechanism.upper() == "KILL"
            else self._checkpoint
        )
        if self.config.mode == PreemptionMode.DYNAMIC:
            choice = select_mechanism(running.context, candidate_ctx)
            if choice == MechanismChoice.DRAIN:
                self._drain_decisions += 1
                return

        # Apply the mechanism at the running task's current progress.
        progress = running.progress_at(now)
        outcome = mechanism.preempt(running.profile, progress)
        # Wall-clock when the in-flight tile commits (boundary), then trap.
        # A request arriving during the restore phase waits for it.
        boundary_wall = running.wall_time_at_offset(outcome.boundary_offset)
        free_at = boundary_wall + outcome.preemption_latency
        self._record_run_segments(running, boundary_wall)
        if outcome.preemption_latency > 0:
            self.timeline.record(
                running.task_id, SegmentKind.CHECKPOINT, boundary_wall, free_at
            )
        if self.tracer.enabled:
            self.tracer.instant(
                "preemption",
                f"preempt t{running.task_id}",
                boundary_wall,
                device=self.device_id,
                args={
                    "victim": running.task_id,
                    "candidate": candidate_ctx.task_id,
                    "mechanism": (
                        "kill" if isinstance(mechanism, KillMechanism)
                        else "checkpoint"
                    ),
                    "checkpoint_bytes": outcome.checkpoint_bytes,
                },
            )
            self.tracer.span(
                "checkpoint",
                f"checkpoint t{running.task_id}",
                boundary_wall,
                free_at,
                device=self.device_id,
                args={"task": running.task_id},
            )
        running.record_preemption(
            now=boundary_wall,
            retained_offset=outcome.retained_offset,
            restore_latency=outcome.restore_latency,
            checkpoint_bytes=outcome.checkpoint_bytes,
            killed=isinstance(mechanism, KillMechanism),
        )
        self.policy.on_requeue(running.context)
        if self._grants:
            self._track(running.context, now)
        # The victim is READY for accounting (it waits from the boundary
        # commit on) but its checkpoint is only durable once the trap DMA
        # finishes at ``free_at`` -- until then it is CHECKPOINTING in the
        # device lifecycle and must not be migrated.
        self._preempted[running.task_id] = running
        self._checkpoint_durable_at[running.task_id] = free_at
        self._npu_reserved_until = free_at
        self._preemption_count += 1
        self._reserved_task_id = candidate_ctx.task_id
        self._push(free_at, _EventKind.DISPATCH, candidate_ctx.task_id)
        self._running_id = None


class NPUSimulator:
    """Simulate one workload on one NPU under one scheduling configuration.

    Batch interface over :class:`DeviceSim`: all arrivals are injected
    up-front and the event loop runs to completion.
    """

    def __init__(self, config: SimulationConfig, policy: Policy) -> None:
        self.config = config
        self.policy = policy

    def run(self, tasks: Sequence[TaskRuntime]) -> SimulationResult:
        """Execute the workload to completion and return the result."""
        if not tasks:
            raise ValueError("need at least one task")
        sim = DeviceSim(self.config, self.policy)
        for task in tasks:
            sim.inject(task)
        while sim.has_live_tasks and sim.next_event_time() is not None:
            sim.step()
        result = sim.result()
        assert result is not None
        return result
