"""Incremental ready index + policy priority structures.

Seeded lifecycle property tests: drive a ContextTable and the policies'
incremental structures through randomized admit/dispatch/requeue/remove/
period-grant sequences (the exact hook protocol DeviceSim speaks) and
assert at every step that the O(log n) fast paths answer identically to
the reference scans over ``table.ready()``.
"""

import random

import pytest

from repro.core.context import ContextTable, TaskContext, TaskState
from repro.core.tokens import (
    BUCKET_THRESHOLDS,
    NUM_CANDIDATE_BUCKETS,
    ClusterTokenLedger,
    Priority,
    TOKEN_LEVELS,
    candidate_bucket,
    candidate_threshold,
    token_increment,
)
from repro.sched import policies
from repro.sched.policies import POLICY_NAMES, make_policy


def grant_period(policy, table):
    """One period tick's grants to every ready row, reported to the
    policy as possible level crossings (the simulator reports only the
    rows it predicted to cross; reporting all of them must agree)."""
    rows = table.ready()
    for row in rows:
        row.grant_tokens(
            token_increment(
                row.priority, row.waited_since_grant, row.estimated_cycles
            )
        )
    policy.on_tokens_raised(rows, table)


def make_row(task_id, rng=None):
    rng = rng or random.Random(task_id)
    row = TaskContext(
        task_id=task_id,
        priority=rng.choice(list(Priority)),
        benchmark=rng.choice(["CNN-AN", "CNN-GN", "RNN-SA"]),
        estimated_cycles=rng.uniform(1e4, 1e7),
    )
    return row


class TestCandidateBucket:
    def test_matches_threshold_semantics(self):
        for tokens in (0.5, 1.0, 1.1, 2.9, 3.0, 3.5, 8.0, 9.0, 9.4, 120.0):
            bucket = candidate_bucket(tokens)
            assert 0 <= bucket < NUM_CANDIDATE_BUCKETS
            # Definition: number of levels strictly below the count.
            assert bucket == sum(1 for level in TOKEN_LEVELS if level < tokens)

    def test_threshold_depends_only_on_the_bucket(self):
        rng = random.Random(1)
        samples = [-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 3.0001, 9.0, 9.5, 80.0]
        samples += [rng.uniform(0.0, 30.0) for _ in range(500)]
        for max_tokens in samples:
            assert candidate_threshold(max_tokens) == BUCKET_THRESHOLDS[
                candidate_bucket(max_tokens)
            ]

    def test_bucket_order_equals_candidate_group(self):
        """tokens > threshold(max)  <=>  bucket(tokens) >= bucket(max)."""
        rng = random.Random(0)
        for _ in range(500):
            tokens = rng.uniform(0.1, 30.0)
            max_tokens = rng.uniform(tokens, 40.0)
            threshold = candidate_threshold(max_tokens)
            assert (tokens > threshold) == (
                candidate_bucket(tokens) >= candidate_bucket(max_tokens)
            )


class TestContextTableIndex:
    def test_direct_state_assignment_updates_ready(self):
        table = ContextTable()
        rows = [make_row(i) for i in range(5)]
        for row in rows:
            table.add(row)
        assert [r.task_id for r in table.ready()] == [0, 1, 2, 3, 4]
        rows[2].state = TaskState.RUNNING
        assert [r.task_id for r in table.ready()] == [0, 1, 3, 4]
        assert table.running() is rows[2]
        rows[2].state = TaskState.READY
        assert [r.task_id for r in table.ready()] == [0, 1, 2, 3, 4]
        assert table.running() is None

    def test_remove_releases_ownership(self):
        table = ContextTable()
        row = make_row(7)
        table.add(row)
        table.remove(7)
        assert not table.has_ready
        # State changes after removal must not corrupt the old table.
        row.state = TaskState.RUNNING
        assert table.running() is None
        other = ContextTable()
        other.add(row)
        assert other.running() is row

    def test_has_ready_and_count(self):
        table = ContextTable()
        assert not table.has_ready
        assert table.ready_count == 0
        row = make_row(1)
        table.add(row)
        assert table.has_ready and table.ready_count == 1
        row.state = TaskState.DONE
        assert not table.has_ready

    def test_randomized_lifecycle_matches_scan(self):
        rng = random.Random(42)
        table = ContextTable()
        rows = {}
        next_id = 0
        for _ in range(400):
            action = rng.random()
            if action < 0.4 or not rows:
                row = make_row(next_id, rng)
                rows[next_id] = row
                table.add(row)
                next_id += 1
            elif action < 0.7:
                row = rng.choice(list(rows.values()))
                row.state = rng.choice(list(TaskState))
            else:
                task_id = rng.choice(list(rows))
                table.remove(task_id)
                del rows[task_id]
            expected = sorted(
                (r.task_id for r in rows.values()
                 if r.state is TaskState.READY),
            )
            assert [r.task_id for r in table.ready()] == expected


def _drive_lifecycle(policy_name, seed, steps=250):
    """Replay a DeviceSim-shaped lifecycle; yield after every step."""
    rng = random.Random(seed)
    policy = make_policy(policy_name)
    reference = make_policy(policy_name)
    table = ContextTable()
    ready_ids = set()
    running_id = [None]
    next_id = [0]

    def admit():
        row = make_row(next_id[0], rng)
        table.add(row)
        ready_ids.add(row.task_id)
        policy.on_admit(row, 0.0)
        next_id[0] += 1

    def dispatch():
        task_id = rng.choice(sorted(ready_ids))
        ready_ids.discard(task_id)
        row = table[task_id]
        row.state = TaskState.RUNNING
        running_id[0] = task_id
        policy.on_dispatch(row)

    def requeue():
        task_id = running_id[0]
        row = table[task_id]
        row.executed_cycles += rng.uniform(0.0, row.estimated_cycles)
        row.state = TaskState.READY
        ready_ids.add(task_id)
        running_id[0] = None
        policy.on_requeue(row)

    def complete():
        task_id = running_id[0]
        table[task_id].state = TaskState.DONE
        running_id[0] = None

    def remove():
        task_id = rng.choice(sorted(ready_ids))
        ready_ids.discard(task_id)
        row = table.remove(task_id)
        policy.on_remove(row, 0.0)

    def period():
        if policy.uses_tokens:
            for row in table.ready():
                row.waited_since_grant += rng.uniform(0.0, 5e5)
            grant_period(policy, table)

    for _ in range(3):
        admit()
    for _ in range(steps):
        choices = [admit, period]
        if ready_ids and running_id[0] is None:
            choices.append(dispatch)
        if running_id[0] is not None:
            choices += [requeue, complete]
        if ready_ids:
            choices.append(remove)
        rng.choice(choices)()
        yield policy, reference, table, running_id[0]


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_select_ready_matches_reference_scan(policy_name):
    if policy_name == "RRB":
        pytest.skip("RRB's cursor advances per pick; select_ready IS select")
    for seed in range(5):
        for policy, reference, table, _running in _drive_lifecycle(
            policy_name, seed
        ):
            fast = policy.select_ready(table)
            slow = reference.select(table.ready())
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert fast.task_id == slow.task_id, (
                    f"{policy_name} seed {seed}: fast pick {fast.task_id} "
                    f"!= reference {slow.task_id}"
                )


@pytest.mark.parametrize("policy_name", ["HPF", "SJF", "TOKEN", "PREMA"])
def test_outranks_running_matches_reference(policy_name):
    for seed in range(5):
        for policy, reference, table, running_id in _drive_lifecycle(
            policy_name, seed + 100
        ):
            if running_id is None:
                continue
            candidate = policy.select_ready(table)
            if candidate is None:
                continue
            running = table[running_id]
            fast = policy.outranks_running(candidate, running, table)
            slow = reference.outranks(candidate, running, table.ready())
            assert fast == slow, f"{policy_name} seed {seed}"


def test_select_ready_detects_stale_pick_at_equal_counts():
    """Paired external mutations that keep the ready count unchanged must
    not let the fast path return a stale (non-READY / evicted) row."""
    for policy_name in ("HPF", "SJF", "TOKEN", "PREMA"):
        policy = make_policy(policy_name)
        table = ContextTable()
        rows = [make_row(i) for i in range(4)]
        for row in rows:
            table.add(row)
            policy.on_admit(row, 0.0)
        picked = policy.select_ready(table)
        assert picked is not None
        # Retire the pick and admit a replacement behind the policy's
        # back: the ready count stays identical.
        rows[picked.task_id].state = TaskState.DONE
        fresh = make_row(10)
        table.add(fresh)
        reference = make_policy(policy_name).select(table.ready())
        picked2 = policy.select_ready(table)
        assert picked2 is not None
        assert picked2.state is TaskState.READY
        assert picked2.task_id == reference.task_id, policy_name


def test_select_ready_without_hooks_self_heals():
    """Driving select_ready with no lifecycle hooks (or after direct state
    mutation) must still return the reference answer via resync."""
    for policy_name in ("HPF", "SJF", "TOKEN", "PREMA"):
        policy = make_policy(policy_name)
        table = ContextTable()
        rows = [make_row(i) for i in range(6)]
        for row in rows:
            table.add(row)  # note: no on_admit
        picked = policy.select_ready(table)
        reference = make_policy(policy_name).select(table.ready())
        assert picked is not None and picked.task_id == reference.task_id
        # Mutate states behind the policy's back; it must resync.
        rows[picked.task_id].state = TaskState.DONE
        picked2 = policy.select_ready(table)
        reference2 = make_policy(policy_name).select(table.ready())
        assert picked2 is not None and picked2.task_id == reference2.task_id


@pytest.fixture
def rebuilds(monkeypatch):
    """Counts wholesale rebuilds of any token policy's bucket structure."""
    calls = []
    original = policies._TokenBuckets.rebuild

    def rebuild(self, rows):
        calls.append(len(rows))
        original(self, rows)

    monkeypatch.setattr(policies._TokenBuckets, "rebuild", rebuild)
    return calls


def _assert_buckets_exact(policy, table):
    bucket_of = policy._buckets._bucket_of
    assert sorted(bucket_of) == [row.task_id for row in table.ready()]
    for row in table.ready():
        assert bucket_of[row.task_id] == candidate_bucket(row.tokens)


@pytest.mark.parametrize("with_ledger", [False, True])
@pytest.mark.parametrize("policy_name", ["TOKEN", "PREMA"])
def test_in_place_regrade_matches_reference(
    policy_name, with_ledger, rebuilds
):
    """Rows stay resident across many grants that cross the 1/3/9
    levels; the in-place re-bucketing must answer like the scans."""
    rng = random.Random(2026)
    ledger = ClusterTokenLedger() if with_ledger else None
    policy = make_policy(policy_name, ledger=ledger)
    reference = make_policy(policy_name, ledger=ledger)
    table = ContextTable()
    rows = []
    for task_id in range(12):
        row = TaskContext(
            task_id=task_id,
            priority=list(Priority)[task_id % 3],
            estimated_cycles=rng.uniform(1e5, 4e5),
        )
        table.add(row)
        policy.on_admit(row, 0.0)
        rows.append(row)
    running = rows[0]
    running.state = TaskState.RUNNING
    policy.on_dispatch(running)
    crossed = set()
    for step in range(80):
        if with_ledger and step % 7 == 0:
            # A remote device's ready row: its count can raise the
            # threshold above every local row.
            ledger.activate(1000 + step % 3, rng.uniform(0.5, 40.0))
        before = {row.task_id: candidate_bucket(row.tokens) for row in rows}
        for row in table.ready():
            row.waited_since_grant += rng.uniform(0.0, 1e5)
        grant_period(policy, table)
        crossed |= {
            row.task_id for row in rows
            if candidate_bucket(row.tokens) != before[row.task_id]
        }
        _assert_buckets_exact(policy, table)
        fast = policy.select_ready(table)
        slow = reference.select(table.ready())
        assert fast is not None and fast.task_id == slow.task_id, step
        running.executed_cycles = min(
            running.estimated_cycles,
            running.executed_cycles + rng.uniform(0.0, 2e4),
        )
        assert policy.outranks_running(fast, running, table) == (
            reference.outranks(fast, running, table.ready())
        ), step
        if step % 10 == 9:
            # Rotate the running row so every row spends time resident.
            running.state = TaskState.READY
            policy.on_requeue(running)
            running = fast
            running.state = TaskState.RUNNING
            policy.on_dispatch(running)
    assert len(crossed) >= 8
    assert max(candidate_bucket(row.tokens) for row in rows) == len(TOKEN_LEVELS)
    assert rebuilds == []


@pytest.mark.parametrize("policy_name", ["TOKEN", "PREMA"])
def test_hookless_change_makes_regrade_rebuild(policy_name, rebuilds):
    policy = make_policy(policy_name)
    table = ContextTable()
    rows = [make_row(i) for i in range(6)]
    for row in rows:
        table.add(row)
        policy.on_admit(row, 0.0)
    # Count mismatch: a row joins the table without on_admit.
    table.add(make_row(6))
    grant_period(policy, table)
    assert len(rebuilds) == 1
    _assert_buckets_exact(policy, table)
    # Equal counts, unknown row: one row retires and another joins, both
    # behind the policy's back.
    rows[2].state = TaskState.DONE
    table.add(make_row(7))
    for row in table.ready():
        row.waited_since_grant += 4e6
    grant_period(policy, table)
    assert len(rebuilds) == 2
    _assert_buckets_exact(policy, table)
    reference = make_policy(policy_name).select(table.ready())
    assert policy.select_ready(table).task_id == reference.task_id
