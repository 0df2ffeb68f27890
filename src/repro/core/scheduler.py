"""The PREMA scheduling policy core (paper Algorithm 2, Table II).

The policy core is deliberately simulator-agnostic: it operates on a
:class:`~repro.core.context.ContextTable` and returns the candidate task
id.  The event-driven simulator (``repro.sched.simulator``) owns time and
invokes the core on the three wake conditions of Sec V-C: task dispatch,
task completion, and scheduling-period expiry.

Algorithm 2's periodic grants (lines 5-8) are not applied eagerly at
every period tick.  :func:`replay_grants` applies the grants one row is
owed, grid point by grid point, when something reads the row, and
:func:`next_crossing` predicts the grid point at which the row's count
first clears its next priority token level -- the only grants a
scheduling decision can observe (it reads counts through the threshold
grid alone).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.core.context import ContextTable, TaskContext
from repro.core.tokens import PRIORITY_TOKENS, candidate_threshold

#: Grid points :func:`next_crossing` walks before it returns a re-check
#: point instead of a crossing.  A re-check tick costs about as much as
#: a few hundred walked points, while a row dispatched before its
#: crossing makes every point walked past its dispatch wasted work; the
#: cap also ends the walk for estimates so long that each grant rounds
#: to nothing.
MAX_CROSSING_WALK = 1 << 8


@dataclasses.dataclass(frozen=True)
class SchedulerConfig:
    """PREMA scheduler configuration (paper Table II)."""

    #: Scheduling period time-quota, cycles (0.25 ms at 700 MHz).
    period_cycles: float = 0.25e-3 * 700e6

    def __post_init__(self) -> None:
        if self.period_cycles <= 0:
            raise ValueError("period_cycles must be positive")


# ----------------------------------------------------------------------
# Line 5-8: periodic token grants, replayed per row
# ----------------------------------------------------------------------
def replay_grants(
    row: TaskContext,
    grant_at: float,
    until: float,
    period: float,
    inclusive: bool = False,
) -> float:
    """Apply the period grants a READY ``row`` is owed before ``until``.

    ``grant_at`` is the first grid point the row has not been granted
    at; the grid advances by repeated ``+= period``, exactly like the
    simulator's period clock, so every point is the float a period tick
    fires at.  At each point before ``until`` (and at ``until`` itself
    when ``inclusive``) the row gets what that tick gives it: its wait
    settles to the point (``accrue_wait``), then -- unless its estimate
    is not positive -- it earns ``PRIORITY_TOKENS[priority] *
    (waited_since_grant / estimated_cycles)`` (``token_increment``) and
    its grant clock resets (``grant_tokens``).  The IEEE-754 operations
    are the eager tick's, in its order, so the row ends bit-identical to
    one granted at every tick.  Returns the next ungranted grid point.
    """
    point = grant_at
    if point > until or (point == until and not inclusive):
        return point
    rate = PRIORITY_TOKENS[row.priority]
    estimate = row.estimated_cycles
    tokens = row.tokens
    waited = row.waited_cycles
    since_grant = row.waited_since_grant
    last = row.last_update_cycles
    while point < until or (inclusive and point == until):
        delta = point - last
        if delta > 0:
            waited += delta
            since_grant += delta
            last = point
        if estimate > 0:
            tokens += rate * (since_grant / estimate)
            since_grant = 0.0
        point += period
    row.tokens = tokens
    row.waited_cycles = waited
    row.waited_since_grant = since_grant
    row.last_update_cycles = last
    return point


def next_crossing(
    row: TaskContext, grant_at: float, period: float, level: float
) -> Optional[float]:
    """First grid point from ``grant_at`` whose grant lifts ``row`` over
    ``level`` (None when the row earns no grants).

    Runs :func:`replay_grants`' loop on local copies, assuming the row
    stays READY and untouched until then.  After
    :data:`MAX_CROSSING_WALK` points without a crossing it returns the
    first point it did not examine: a re-check point, where the caller
    replays and asks again.
    """
    estimate = row.estimated_cycles
    if estimate <= 0:
        return None
    rate = PRIORITY_TOKENS[row.priority]
    tokens = row.tokens
    since_grant = row.waited_since_grant
    last = row.last_update_cycles
    point = grant_at
    for _ in range(MAX_CROSSING_WALK):
        delta = point - last
        if delta > 0:
            since_grant += delta
            last = point
        tokens += rate * (since_grant / estimate)
        since_grant = 0.0
        if tokens > level:
            return point
        point += period
    return point


class PremaPolicyCore:
    """Algorithm 2: candidate filtering and the shortest-job pick (the
    token grants of lines 5-8 are :func:`replay_grants`)."""

    def __init__(self, config: Optional[SchedulerConfig] = None) -> None:
        self.config = config or SchedulerConfig()

    # ------------------------------------------------------------------
    # Line 9-10: candidate group and final selection
    # ------------------------------------------------------------------
    def select_candidate(
        self, table: ContextTable, external_max_tokens: float = 0.0
    ) -> Optional[TaskContext]:
        """Return the next task to execute, or None when the queue is empty.

        Candidates are ready tasks whose tokens exceed the dynamic
        threshold; among them, the shortest *estimated remaining* job wins
        (FindShortestEstimatedJob), with task id as the deterministic
        tie-break (FCFS among equals).

        ``external_max_tokens`` folds cluster-global token state into the
        threshold (the :class:`~repro.core.tokens.ClusterTokenLedger`
        maximum over other devices' ready queues).  When the cluster
        maximum excludes every local row, the local queue still serves its
        best row -- the NPU must not idle because the highest-token task
        lives on another device.
        """
        ready = table.ready()
        if not ready:
            return None
        local_max = max(row.tokens for row in ready)
        threshold = candidate_threshold(max(local_max, external_max_tokens))
        candidates = [row for row in ready if row.tokens > threshold]
        if not candidates:
            # No local row clears the (possibly cluster-wide) threshold:
            # fall back to the whole local queue.  Also guards the
            # degenerate float-equality case of the local-only rule.
            candidates = ready
        return min(
            candidates,
            key=lambda row: (row.estimated_remaining_cycles, row.task_id),
        )

    # ------------------------------------------------------------------
    # Preemption ranking
    # ------------------------------------------------------------------
    def should_preempt(
        self,
        candidate: TaskContext,
        running: TaskContext,
        ready: Sequence[TaskContext] = (),
        external_max_tokens: float = 0.0,
    ) -> bool:
        """Does the policy recommend preempting ``running``?

        The running task competes in the candidate selection alongside the
        ready queue: it wins (no preemption) when it both clears the token
        threshold and is the shortest estimated-remaining job among the
        threshold-clearing candidates.  Otherwise Algorithm 2's pick is a
        preemption *recommendation* -- which Algorithm 3 may still
        override with DRAIN (the paper's dynamic mechanism selection).

        ``external_max_tokens`` folds the cluster-global ledger maximum
        into the threshold, like :meth:`select_candidate`.
        """
        pool = list(ready) + [running]
        return self.should_preempt_given_max(
            candidate,
            running,
            max(max(row.tokens for row in pool), external_max_tokens),
        )

    def should_preempt_given_max(
        self,
        candidate: TaskContext,
        running: TaskContext,
        max_pool_tokens: float,
    ) -> bool:
        """O(1) form of :meth:`should_preempt` for callers that already
        track the maximum token count over ready + running."""
        return self.should_preempt_given_threshold(
            candidate, running, candidate_threshold(max_pool_tokens)
        )

    def should_preempt_given_threshold(
        self,
        candidate: TaskContext,
        running: TaskContext,
        threshold: float,
    ) -> bool:
        """:meth:`should_preempt` given the candidate threshold of the
        ready + running pool (the incremental policy structures derive it
        from their highest non-empty token bucket)."""
        if running.tokens <= threshold:
            # The running task has fallen out of the candidate group.
            return True
        return (
            candidate.estimated_remaining_cycles
            < running.estimated_remaining_cycles
        )
