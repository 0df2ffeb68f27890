"""Per-task runtime state for the multi-task simulator.

A :class:`TaskRuntime` binds together:

- the workload-level :class:`~repro.workloads.specs.TaskSpec` (which model,
  batch, priority, arrival time, sequence lengths);
- the ground-truth :class:`~repro.npu.engine.ExecutionProfile` (what really
  executes, including the true RNN unroll);
- the scheduler-visible :class:`~repro.core.context.TaskContext` row
  (estimated time, tokens, accounted progress);
- preemption bookkeeping: retained progress, pending restore cost, and
  per-mechanism event counters.

The scheduler never reads the ground-truth profile directly -- that is the
paper's information asymmetry between the predictor and reality.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.context import TaskContext, TaskState
from repro.npu.engine import ExecutionProfile
from repro.workloads.specs import TaskSpec


@dataclasses.dataclass
class TaskRuntime:
    """Mutable execution record of one dispatched inference task."""

    spec: TaskSpec
    profile: ExecutionProfile
    context: TaskContext

    #: Ground-truth progress retained across preemptions (profile cycles).
    retained_offset: float = 0.0
    #: Restore DMA cycles to pay at the next dispatch (CHECKPOINT resume).
    restore_pending: float = 0.0
    #: Wall-clock cycle of the current dispatch (None when not running).
    dispatch_time: Optional[float] = None
    #: Restore latency charged at the current dispatch.
    dispatch_restore: float = 0.0
    #: Monotonic dispatch counter; stale completion events compare epochs.
    epoch: int = 0

    #: Bytes of the most recent checkpoint still resident in DRAM -- what a
    #: cluster migration must ship.  Zero while running, after a KILL, or
    #: once the checkpoint is consumed by a dispatch-time restore.
    checkpoint_bytes_resident: float = 0.0

    #: Statistics.
    first_dispatch_time: Optional[float] = None
    completion_time: Optional[float] = None
    preemption_count: int = 0
    kill_count: int = 0
    checkpointed_bytes_total: float = 0.0
    wasted_cycles: float = 0.0
    #: Checkpoint migrations this task underwent (cluster layer).
    migration_count: int = 0
    #: Bytes shipped over the interconnect on this task's behalf.
    migrated_bytes_total: float = 0.0

    #: Churn bookkeeping (cluster layer): device failures that destroyed
    #: this task's in-flight state and sent it back to the frontier.
    restart_count: int = 0
    #: Ground-truth cycles of progress destroyed by device failures
    #: (subset of ``wasted_cycles``).
    lost_progress_cycles: float = 0.0
    #: When the last failure orphaned this task (None once re-dispatched).
    orphaned_at: Optional[float] = None
    #: Failure-to-redispatch delay of each completed recovery, cycles.
    recovery_delays: list = dataclasses.field(default_factory=list)

    @property
    def task_id(self) -> int:
        return self.spec.task_id

    @property
    def isolated_cycles(self) -> float:
        """C_single: uninterrupted, isolated execution time (ground truth)."""
        return self.profile.total_cycles

    @property
    def remaining_cycles(self) -> float:
        """Ground-truth work left (excludes any pending restore)."""
        return max(0.0, self.profile.total_cycles - self.retained_offset)

    @property
    def is_done(self) -> bool:
        return self.completion_time is not None

    # ------------------------------------------------------------------
    # Dispatch / progress transitions (driven by the simulator)
    # ------------------------------------------------------------------
    def dispatch(self, now: float) -> float:
        """Mark the task running; returns its completion wall-clock time.

        The ``accrue_wait`` call below is the per-row settlement point of
        the simulator's lazy wait accounting: it integrates the whole
        waiting span since ``context.last_update_cycles`` (arrival, the
        last period grant the simulator replayed for this row, or
        preemption re-queue -- whichever came last), so the ready queue
        is never walked between wakes on this row's behalf.
        """
        if self.context.state == TaskState.RUNNING:
            raise RuntimeError(f"task {self.task_id} already running")
        if self.is_done:
            raise RuntimeError(f"task {self.task_id} already completed")
        self.context.accrue_wait(now)
        self.context.state = TaskState.RUNNING
        self.context.waited_since_grant = 0.0
        self.dispatch_time = now
        self.dispatch_restore = self.restore_pending
        self.restore_pending = 0.0
        self.checkpoint_bytes_resident = 0.0
        self.epoch += 1
        if self.first_dispatch_time is None:
            self.first_dispatch_time = now
        if self.orphaned_at is not None:
            self.recovery_delays.append(now - self.orphaned_at)
            self.orphaned_at = None
        return now + self.dispatch_restore + self.remaining_cycles

    def progress_at(self, now: float) -> float:
        """Ground-truth profile offset reached by wall-clock ``now``.

        Restore time at the head of the dispatch contributes no progress.
        """
        if self.dispatch_time is None:
            return self.retained_offset
        ran = now - self.dispatch_time - self.dispatch_restore
        if ran <= 0:
            return self.retained_offset
        return min(self.profile.total_cycles, self.retained_offset + ran)

    def wall_time_at_offset(self, offset: float) -> float:
        """Wall-clock cycle at which the current dispatch reaches ``offset``.

        Only meaningful while running; ``offset`` must be at or beyond the
        progress retained at dispatch.  Offsets at the retained point map
        to the end of the restore phase (a preemption request arriving
        mid-restore waits for the restore DMA to finish).
        """
        if self.dispatch_time is None:
            raise RuntimeError(f"task {self.task_id} is not running")
        if offset < self.retained_offset:
            raise ValueError("offset precedes the dispatched progress")
        return self.dispatch_time + self.dispatch_restore + (
            offset - self.retained_offset
        )

    def record_preemption(
        self,
        now: float,
        retained_offset: float,
        restore_latency: float,
        checkpoint_bytes: float,
        killed: bool,
    ) -> None:
        """Return the task to the ready queue after a preemption.

        Resets the wait-accounting baseline to the boundary commit and
        refreshes accounted progress; the simulator re-inserts the row
        into the policy's priority structures (``on_requeue``) right
        after, so ranking keys are recomputed exactly once per preemption.
        """
        if self.context.state != TaskState.RUNNING:
            raise RuntimeError(f"task {self.task_id} not running")
        progress = self.progress_at(now)
        if killed:
            self.wasted_cycles += progress
            self.kill_count += 1
        self.preemption_count += 1
        self.checkpointed_bytes_total += checkpoint_bytes
        self.checkpoint_bytes_resident = checkpoint_bytes
        self.retained_offset = retained_offset
        self.restore_pending = restore_latency
        self.dispatch_time = None
        self.dispatch_restore = 0.0
        self.context.state = TaskState.READY
        self.context.executed_cycles = retained_offset
        self.context.last_update_cycles = now
        self.epoch += 1

    def record_failure(self, now: float) -> float:
        """Destroy this task's device-resident state at a device failure.

        Everything resident on the failed device dies with its DRAM:
        running progress, durable checkpoints, pending restores.  The
        task itself survives (it goes back to the frontier for a fresh
        dispatch from offset zero), keeping its accrued wait and tokens
        -- fairness credit is the scheduler's, not the device's.  Returns
        the ground-truth progress cycles lost.
        """
        lost = self.progress_at(now)
        self.context.accrue_wait(now)  # settles READY/MIGRATING waiters
        self.retained_offset = 0.0
        self.restore_pending = 0.0
        self.checkpoint_bytes_resident = 0.0
        self.dispatch_time = None
        self.dispatch_restore = 0.0
        self.epoch += 1
        self.context.state = TaskState.READY
        self.context.executed_cycles = 0.0
        self.context.last_update_cycles = now
        self.wasted_cycles += lost
        self.lost_progress_cycles += lost
        self.restart_count += 1
        self.orphaned_at = now
        return lost

    def complete(self, now: float) -> None:
        """Mark the task finished at wall-clock ``now``."""
        if self.context.state != TaskState.RUNNING:
            raise RuntimeError(f"task {self.task_id} not running")
        self.retained_offset = self.profile.total_cycles
        self.context.executed_cycles = self.profile.total_cycles
        self.context.state = TaskState.DONE
        self.context.last_update_cycles = now
        self.dispatch_time = None
        self.completion_time = now

    # ------------------------------------------------------------------
    # Metrics accessors
    # ------------------------------------------------------------------
    @property
    def turnaround_cycles(self) -> float:
        """C_multi: completion minus arrival (raises before completion)."""
        if self.completion_time is None:
            raise RuntimeError(f"task {self.task_id} has not completed")
        return self.completion_time - self.spec.arrival_cycles

    @property
    def normalized_turnaround(self) -> float:
        """NTT = C_multi / C_single (Eq 1)."""
        return self.turnaround_cycles / self.isolated_cycles
