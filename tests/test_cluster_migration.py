"""Checkpoint migration of preempted tasks: lifecycle, invariants, wins.

Four layers of coverage:

1. *Device lifecycle*: the explicit QUEUED / RESERVED / RUNNING /
   CHECKPOINTING / PREEMPTED states, and the double-steal protections --
   a checkpointing task's state is not durable, so ``remove_task``
   refuses it (and every other non-migratable state) explicitly.
2. *Manual migration*: a preempted task moved by hand between two
   ``DeviceSim`` instances keeps its accrued wait and tokens, accrues
   transit as waiting, pays its restore DMA at the destination, and its
   cluster-wide RUN cycles conserve exactly.
3. *End-to-end PREEMPTIVE_MIGRATION runs*: completion-exactly-once,
   run-cycle conservation, interconnect conservation, and coherent
   migration records on the hog-regime traces.
4. *Ledger*: the ClusterTokenLedger matches a dict reference model under
   hypothesis-driven op sequences, and stays consistent with the real
   policy/table state through seeded random admit/grant/dispatch/
   requeue/migrate sequences (the "arbitrary migration sequences"
   property).
"""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import ContextTable, TaskContext, TaskState
from repro.core.scheduler import replay_grants
from repro.core.tokens import (
    ClusterTokenLedger,
    Priority,
    candidate_bucket,
    token_increment,
)
from repro.npu.config import NPUConfig
from repro.sched.cluster import ClusterScheduler, RoutingPolicy
from repro.sched.interconnect import CONTEXT_ROW_BYTES, InterconnectConfig
from repro.sched.metrics import compute_cluster_metrics
from repro.sched.policies import PremaPolicy, make_policy
from repro.sched.simulator import (
    _PERIOD,
    DeviceSim,
    DeviceTaskState,
    PreemptionMode,
    SimulationConfig,
)
from repro.workloads.specs import TaskSpec
from repro.workloads.trace import (
    DEFAULT_MEAN_INTERARRIVAL_CYCLES,
    synthetic_runtime,
    synthetic_trace_runtimes,
)

_CONFIG = NPUConfig()


def make_task(task_id, arrival, cycles, priority=Priority.MEDIUM):
    spec = TaskSpec(
        task_id=task_id, benchmark=f"syn{task_id}", batch=1,
        priority=priority, arrival_cycles=arrival,
    )
    return synthetic_runtime(spec, cycles)


def preemptive_device(policy="HPF"):
    return DeviceSim(
        SimulationConfig(
            npu=_CONFIG, mode=PreemptionMode.STATIC, mechanism="CHECKPOINT"
        ),
        make_policy(policy),
        device_id=0,
    )


def drive_preemption(device):
    """Low-priority long task preempted by a high-priority arrival.

    Returns (victim, preemptor) after the preemptor's reserved dispatch,
    i.e. with the victim's checkpoint durable.
    """
    victim = make_task(0, 0.0, 500_000.0, Priority.LOW)
    preemptor = make_task(1, 100_000.0, 300_000.0, Priority.HIGH)
    device.inject(victim)
    device.inject(preemptor)
    device.step()  # victim arrival -> dispatch
    device.step()  # preemptor arrival -> preemption intent
    device.step()  # reserved dispatch at trap end: checkpoint durable
    return victim, preemptor


class TestDeviceLifecycle:
    def test_states_through_a_preemption(self):
        device = preemptive_device()
        victim = make_task(0, 0.0, 500_000.0, Priority.LOW)
        preemptor = make_task(1, 100_000.0, 300_000.0, Priority.HIGH)
        device.inject(victim)
        device.inject(preemptor)
        assert device.task_lifecycle(0, 0.0) is DeviceTaskState.PENDING
        device.step()
        assert device.task_lifecycle(0, device.now) is DeviceTaskState.RUNNING
        device.step()  # preemption: victim checkpointing, preemptor reserved
        assert (
            device.task_lifecycle(0, device.now)
            is DeviceTaskState.CHECKPOINTING
        )
        assert device.task_lifecycle(1, device.now) is DeviceTaskState.RESERVED
        assert device.migratable_preempted_tasks(device.now) == []
        device.step()  # reserved dispatch fires at trap end
        assert device.task_lifecycle(0, device.now) is DeviceTaskState.PREEMPTED
        assert device.task_lifecycle(1, device.now) is DeviceTaskState.RUNNING
        assert [t.task_id for t in device.migratable_preempted_tasks(device.now)] == [0]
        while device.has_live_tasks and device.next_event_time() is not None:
            device.step()
        assert device.task_lifecycle(0, device.now) is DeviceTaskState.DONE

    def test_checkpointing_task_cannot_be_double_stolen(self):
        device = preemptive_device()
        victim = make_task(0, 0.0, 500_000.0, Priority.LOW)
        preemptor = make_task(1, 100_000.0, 300_000.0, Priority.HIGH)
        device.inject(victim)
        device.inject(preemptor)
        device.step()
        device.step()  # checkpoint trap in flight
        with pytest.raises(ValueError, match="checkpointing"):
            device.remove_task(0, device.now)
        # The trap's end makes it migratable.
        device.step()
        assert device.remove_task(0, device.now).task_id == 0

    def test_running_reserved_and_done_refuse_migration(self):
        device = preemptive_device()
        victim, preemptor = drive_preemption(device)
        with pytest.raises(ValueError, match="running"):
            device.remove_task(preemptor.task_id, device.now)
        while device.has_live_tasks and device.next_event_time() is not None:
            device.step()
        with pytest.raises(ValueError, match="done"):
            device.remove_task(victim.task_id, device.now)
        with pytest.raises(KeyError):
            device.remove_task(99, device.now)

    def test_queued_tasks_remain_stealable_not_preempted(self):
        device = preemptive_device()
        device.inject(make_task(0, 0.0, 500_000.0))
        device.inject(make_task(1, 1000.0, 300_000.0))
        device.step()
        device.step()
        assert device.task_lifecycle(1, device.now) is DeviceTaskState.QUEUED
        assert [t.task_id for t in device.stealable_tasks()] == [1]
        assert device.migratable_preempted_tasks(device.now) == []


class TestManualMigration:
    def _migrate(self, transit_cycles=5_000.0):
        source = preemptive_device()
        victim, _ = drive_preemption(source)
        now = source.now
        waited_before = victim.context.waited_cycles
        tokens_before = victim.context.tokens
        restore_before = victim.restore_pending
        task = source.remove_task(victim.task_id, now)
        waited_settled = task.context.waited_cycles
        assert waited_settled >= waited_before
        # In-flight: MIGRATING accrues the transit as waiting.
        task.context.state = TaskState.MIGRATING
        task.context.accrue_wait(now + transit_cycles)
        destination = preemptive_device()
        destination.inject(task, arrival=now + transit_cycles)
        while (
            destination.has_live_tasks
            and destination.next_event_time() is not None
        ):
            destination.step()
        return source, destination, task, (
            waited_settled, tokens_before, restore_before, transit_cycles
        )

    def test_wait_and_tokens_survive_migration(self):
        _, _, task, (waited_settled, tokens_before, _, transit) = (
            self._migrate()
        )
        # Tokens never decrease across a migration, and the transit span
        # itself counts as waiting.
        assert task.context.tokens >= tokens_before
        assert task.context.waited_cycles >= waited_settled + transit

    def test_destination_readmits_and_completes(self):
        _, destination, task, _ = self._migrate()
        assert task.is_done
        assert task.context.state is TaskState.DONE
        assert (
            destination.task_lifecycle(task.task_id, destination.now)
            is DeviceTaskState.DONE
        )

    def test_restore_paid_at_destination(self):
        _, destination, task, (_, _, restore_before, _) = self._migrate()
        assert restore_before > 0
        restores = [
            s for s in destination.timeline.segments
            if s.kind.value == "restore" and s.task_id == task.task_id
        ]
        assert len(restores) == 1
        assert restores[0].duration_cycles == pytest.approx(restore_before)

    def test_run_cycles_conserve_across_devices(self):
        source, destination, task, _ = self._migrate()
        total = (
            source.timeline.run_cycles_by_task().get(task.task_id, 0.0)
            + destination.timeline.run_cycles_by_task().get(task.task_id, 0.0)
        )
        assert total == pytest.approx(task.profile.total_cycles)

    def test_source_forgets_the_task(self):
        source, _, task, _ = self._migrate()
        with pytest.raises(KeyError):
            source.task_lifecycle(task.task_id, source.now)
        assert task.migration_count == 0  # manual move; cluster layer counts


def hog_trace(seed, num_tasks=120):
    return synthetic_trace_runtimes(
        num_tasks,
        seed=seed,
        mean_interarrival_cycles=DEFAULT_MEAN_INTERARRIVAL_CYCLES / 4,
        estimate_error=0.6,
    )


def run_migration_cluster(tasks, **kwargs):
    scheduler = ClusterScheduler(
        num_devices=kwargs.pop("num_devices", 4),
        simulation_config=SimulationConfig(
            npu=_CONFIG, mode=PreemptionMode.DYNAMIC
        ),
        policy_name=kwargs.pop("policy", "PREMA"),
        routing=RoutingPolicy.PREEMPTIVE_MIGRATION,
        **kwargs,
    )
    return scheduler.run([copy.deepcopy(t) for t in tasks])


class TestClusterRuns:
    @pytest.mark.parametrize("seed", [8, 11, 12])
    def test_invariants_on_hog_traces(self, seed):
        result = run_migration_cluster(hog_trace(seed))
        # Every task completes exactly once, on its assigned device.
        seen = {}
        for device, device_result in enumerate(result.device_results):
            if device_result is None:
                continue
            for task in device_result.tasks:
                assert task.task_id not in seen
                assert task.is_done
                seen[task.task_id] = device
        assert set(seen) == {t.task_id for t in result.tasks}
        for task_id, device in result.assignments.items():
            assert seen[task_id] == device
        # Cluster-wide RUN cycles conserve (DYNAMIC never kills).
        run_cycles = result.timeline.run_cycles_by_task()
        for task in result.tasks:
            assert task.kill_count == 0
            assert run_cycles[task.task_id] == pytest.approx(
                task.profile.total_cycles, rel=1e-9
            )
        result.timeline.verify_no_overlap()

    @pytest.mark.parametrize("seed", [8, 12])
    def test_migration_records_are_coherent(self, seed):
        result = run_migration_cluster(hog_trace(seed))
        checkpoint_moves = [
            m for m in result.migrations if m.kind == "checkpoint"
        ]
        assert checkpoint_moves, "hog trace must trigger checkpoint moves"
        # Under PREEMPTIVE_MIGRATION every move crosses the fabric, in
        # decision order -- records and transfers pair up one-to-one.
        assert len(result.transfers) == len(result.migrations)
        for move, record in zip(result.migrations, result.transfers):
            assert move.arrival_cycles >= move.time_cycles
            assert move.bytes_moved >= CONTEXT_ROW_BYTES
            assert record.task_id == move.task_id
            assert record.num_bytes == pytest.approx(move.bytes_moved)
            assert record.end_cycles == pytest.approx(move.arrival_cycles)
        for move in checkpoint_moves:
            # A checkpoint move ships more than the bare context row
            # unless the victim was killed (nothing retained).
            task = next(
                t for t in result.tasks if t.task_id == move.task_id
            )
            assert task.migration_count >= 1
            assert task.migrated_bytes_total >= move.bytes_moved
        # The interconnect served everything FIFO without overlap.
        assert result.timeline.migrated_bytes() == pytest.approx(
            sum(m.bytes_moved for m in result.migrations)
        )

    def test_metrics_report_migration_costs(self):
        result = run_migration_cluster(hog_trace(8))
        metrics = compute_cluster_metrics(result)
        assert metrics.checkpoint_migration_count > 0
        assert metrics.migration_bytes_total > 0
        assert metrics.mean_migration_latency_cycles > 0
        assert metrics.post_migration_antt > 0
        assert metrics.p99_high_priority_turnaround_cycles > 0

    def test_single_device_never_migrates(self):
        result = run_migration_cluster(hog_trace(8, num_tasks=30),
                                       num_devices=1)
        assert result.migration_count == 0
        assert not result.transfers

    def test_infinite_fabric_matches_free_migration_latency(self):
        result = run_migration_cluster(
            hog_trace(8), interconnect=InterconnectConfig.infinite()
        )
        for move in result.migrations:
            assert move.latency_cycles == 0.0

    def test_slow_fabric_deters_migration(self):
        """A near-unusable link makes every migration fail the
        is-it-worth-it test: no moves at all."""
        glacial = InterconnectConfig(
            bandwidth_bytes_per_cycle=1e-4,
            latency_cycles=1e12,
            name="glacial",
        )
        result = run_migration_cluster(
            hog_trace(8, num_tasks=40), interconnect=glacial
        )
        assert result.migration_count == 0


class TestHeadline:
    def test_migration_beats_stealing_on_high_priority_p99(self):
        """The acceptance claim, on the experiment's quick ensemble:
        PREEMPTIVE_MIGRATION beats WORK_STEALING on high-priority p99
        turnaround on the bandwidth-constrained 4-NPU cluster."""
        from repro.analysis.experiments.cluster_migration import (
            run_cluster_migration,
        )

        rows = {
            (r.routing, r.interconnect): r
            for r in run_cluster_migration(config=_CONFIG, quick=True)
        }
        stealing = rows[("work-stealing", "pcie-gen3")]
        migration = rows[("preemptive-migration", "pcie-gen3")]
        assert migration.hp_p99_ms < stealing.hp_p99_ms
        assert migration.checkpoint_migrations > 0
        assert migration.migrated_mb > 0
        assert migration.mean_migration_latency_us > 0


# ----------------------------------------------------------------------
# ClusterTokenLedger
# ----------------------------------------------------------------------
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["activate", "update", "deactivate"]),
            st.integers(min_value=0, max_value=15),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        max_size=200,
    )
)
@settings(max_examples=80, deadline=None)
def test_ledger_matches_reference_model(ops):
    ledger = ClusterTokenLedger()
    reference = {}
    for op, task_id, tokens in ops:
        if op in ("activate", "update"):
            ledger.activate(task_id, tokens)
            reference[task_id] = tokens
        else:
            ledger.deactivate(task_id)
            reference.pop(task_id, None)
        assert len(ledger) == len(reference)
        assert ledger.ready_total_tokens() == pytest.approx(
            sum(reference.values())
        )
        expected_max = max(reference.values()) if reference else 0.0
        assert ledger.ready_max_tokens() == pytest.approx(expected_max)
    assert ledger.snapshot() == reference


def test_ledger_totals_match_reference_after_migration_sequences():
    """Seeded random admit/grant/dispatch/requeue/complete/migrate ops
    across two devices sharing one ledger: after every op the ledger's
    totals and maximum equal a recomputation from the actual rows."""
    rng = random.Random(0xC1A0)
    ledger = ClusterTokenLedger()
    tables = [ContextTable(), ContextTable()]
    policies = [PremaPolicy(ledger=ledger) for _ in range(2)]
    owner = {}       # task_id -> device index, or "flight"
    running = {0: None, 1: None}
    now = 0.0
    next_id = 0

    def active_reference():
        total, maximum = 0.0, 0.0
        for task_id, where in owner.items():
            if where == "flight":
                row = flight_rows[task_id]
            else:
                table = tables[where]
                if task_id not in table:
                    continue
                row = table[task_id]
                if row.state is not TaskState.READY:
                    continue
            total += row.tokens
            maximum = max(maximum, row.tokens)
        return total, maximum

    flight_rows = {}
    for _ in range(400):
        now += rng.uniform(1e3, 1e5)
        op = rng.choice(
            ["admit", "period", "dispatch", "requeue", "complete", "migrate"]
        )
        device = rng.randrange(2)
        table, policy = tables[device], policies[device]
        ready = [r for r in table.ready()]
        if op == "admit":
            row = TaskContext(
                task_id=next_id,
                priority=rng.choice(list(Priority)),
                estimated_cycles=rng.uniform(1e5, 1e7),
                last_update_cycles=now,
            )
            owner[next_id] = device
            next_id += 1
            table.add(row)
            policy.on_admit(row, now)
        elif op == "period" and len(table):
            # One eager tick: every ready row settles and earns its
            # grant, and all of them are reported to the policy (which
            # then refreshes their ledger entries).
            for row in table.ready():
                row.accrue_wait(now)
                row.grant_tokens(
                    token_increment(
                        row.priority, row.waited_since_grant,
                        row.estimated_cycles,
                    )
                )
            policy.on_tokens_raised(table.ready(), table)
        elif op == "dispatch" and ready and running[device] is None:
            row = rng.choice(ready)
            row.accrue_wait(now)
            row.state = TaskState.RUNNING
            policy.on_dispatch(row)
            running[device] = row.task_id
        elif op == "requeue" and running[device] is not None:
            row = table[running[device]]
            row.state = TaskState.READY
            row.last_update_cycles = now
            policy.on_requeue(row)
            running[device] = None
        elif op == "complete" and running[device] is not None:
            row = table[running[device]]
            row.state = TaskState.DONE
            running[device] = None
        elif op == "migrate" and ready:
            row = rng.choice(ready)
            row.accrue_wait(now)
            table.remove(row.task_id)
            policy.on_remove(row, now)
            # In-flight settlement read point: stays ledger-visible.
            row.state = TaskState.MIGRATING
            ledger.activate(row.task_id, row.tokens)
            owner[row.task_id] = "flight"
            flight_rows[row.task_id] = row
            # Deliver immediately to the other device.
            transit = rng.uniform(0.0, 1e4)
            row.accrue_wait(now + transit)
            ledger.activate(row.task_id, row.tokens)
            target = 1 - device
            row.state = TaskState.READY
            row.last_update_cycles = now + transit
            tables[target].add(row)
            policies[target].on_admit(row, now + transit)
            owner[row.task_id] = target
            del flight_rows[row.task_id]
        total, maximum = active_reference()
        assert ledger.ready_total_tokens() == pytest.approx(total, rel=1e-9)
        assert ledger.ready_max_tokens() == pytest.approx(maximum, rel=1e-9)


@pytest.mark.parametrize("mode", ["np", "dynamic"])
def test_ledger_max_bucket_is_the_true_maximum_bucket_after_every_step(
    monkeypatch, mode
):
    """Token grants are replayed on demand, so ledger entries refresh
    only at level crossings and read points and may lag the grid -- but
    never by a level: after every device step the ledger maximum falls
    in the bucket of the true maximum, recomputed by replaying every
    active row's grants up to the step."""
    devices = []
    original_init = DeviceSim.__init__
    original_step = DeviceSim.step

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        devices.append(self)

    checked = {"steps": 0, "lagging": 0}

    def step(self):
        now = original_step(self)
        event = (now, int(self.last_event_kind), self.device_id)
        ledger = self.policy._ledger
        period = self.config.scheduler.period_cycles
        exact = {}
        for device in devices:
            passed = device._tick_passed(
                now, (now, int(_PERIOD), device.device_id) < event
            )
            for row in device._table.ready():
                copy = TaskContext(
                    task_id=row.task_id,
                    priority=row.priority,
                    tokens=row.tokens,
                    waited_cycles=row.waited_cycles,
                    waited_since_grant=row.waited_since_grant,
                    estimated_cycles=row.estimated_cycles,
                    last_update_cycles=row.last_update_cycles,
                )
                replay_grants(
                    copy, device._grant_at[row.task_id], now, period, passed
                )
                exact[row.task_id] = copy.tokens
        entries = ledger.snapshot()
        # Rows in flight between devices hold their settled counts.
        for task_id, tokens in entries.items():
            exact.setdefault(task_id, tokens)
        assert exact.keys() == entries.keys()
        true_max = max(exact.values(), default=0.0)
        assert candidate_bucket(ledger.ready_max_tokens()) == (
            candidate_bucket(true_max)
        ), f"t={now}"
        checked["steps"] += 1
        checked["lagging"] += sum(
            1 for task_id, tokens in entries.items()
            if tokens != exact[task_id]
        )
        return now

    monkeypatch.setattr(DeviceSim, "__init__", init)
    monkeypatch.setattr(DeviceSim, "step", step)
    tasks = synthetic_trace_runtimes(
        160,
        seed=5,
        mean_interarrival_cycles=1.05e6 / (4 * 1.3),
        bursty=True,
        qos_mix={"interactive": 0.3, "standard": 0.4, "batch": 0.3},
    )
    result = ClusterScheduler(
        4,
        SimulationConfig(npu=_CONFIG, mode=PreemptionMode(mode)),
        policy_name="PREMA",
        routing=RoutingPolicy.PREEMPTIVE_MIGRATION,
        seed=5,
    ).run(tasks)
    assert devices[0].policy._ledger is not None
    assert result.migration_count > 0
    assert checked["steps"] > 300
    assert checked["lagging"] > 0  # entries really do lag the grid
