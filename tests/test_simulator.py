"""Event-driven multi-task simulator: invariants and scenario behaviour."""

import pytest

import helpers_golden
from repro.core.scheduler import SchedulerConfig
from repro.core.tokens import Priority
from repro.npu.config import NPUConfig
from repro.sched.cluster import ClusterConfig, ClusterScheduler, RoutingPolicy
from repro.sched.metrics import compute_metrics
from repro.sched.policies import POLICY_NAMES, make_policy
from repro.sched.simulator import (
    DeviceSim,
    NPUSimulator,
    PreemptionMode,
    SimulationConfig,
)
from repro.sched.timeline import SegmentKind
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.specs import TaskSpec
from repro.workloads.trace import synthetic_runtime, synthetic_trace_runtimes


def spec(task_id, benchmark, priority, arrival_ms, config, **kw):
    return TaskSpec(
        task_id=task_id,
        benchmark=benchmark,
        batch=1,
        priority=priority,
        arrival_cycles=config.ms_to_cycles(arrival_ms),
        **kw,
    )


def run(config, factory, specs, policy="FCFS", mode=PreemptionMode.NP,
        mechanism="CHECKPOINT"):
    simulator = NPUSimulator(
        SimulationConfig(npu=config, mode=mode, mechanism=mechanism),
        make_policy(policy),
    )
    tasks = [factory.build_task(s) for s in specs]
    return simulator.run(tasks)


@pytest.fixture(scope="module")
def pair(config):
    """A long low-priority task then a short high-priority arrival."""
    return [
        spec(0, "CNN-VN", Priority.LOW, 0.0, config),
        spec(1, "CNN-GN", Priority.HIGH, 1.0, config),
    ]


class TestBasicInvariants:
    def test_all_tasks_complete(self, config, factory, pair):
        result = run(config, factory, pair)
        assert all(task.is_done for task in result.tasks)

    def test_task_by_id_lookup(self, config, factory, pair):
        result = run(config, factory, pair)
        assert result.task_by_id(1).task_id == 1
        with pytest.raises(KeyError):
            result.task_by_id(99)

    def test_no_overlapping_busy_segments(self, config, factory, pair):
        result = run(config, factory, pair, policy="HPF",
                     mode=PreemptionMode.STATIC)
        result.timeline.verify_no_overlap()

    def test_completion_after_arrival_plus_isolated(self, config, factory, pair):
        result = run(config, factory, pair)
        for task in result.tasks:
            assert task.turnaround_cycles >= task.isolated_cycles * 0.999

    def test_run_time_conservation_without_kill(self, config, factory, pair):
        result = run(config, factory, pair, policy="HPF",
                     mode=PreemptionMode.STATIC, mechanism="CHECKPOINT")
        by_task = result.timeline.run_cycles_by_task()
        for task in result.tasks:
            assert by_task[task.task_id] == pytest.approx(
                task.isolated_cycles, rel=1e-6
            )

    def test_kill_reruns_work(self, config, factory, pair):
        result = run(config, factory, pair, policy="HPF",
                     mode=PreemptionMode.STATIC, mechanism="KILL")
        low = result.task_by_id(0)
        if low.kill_count:
            by_task = result.timeline.run_cycles_by_task()
            assert by_task[0] > low.isolated_cycles
            assert low.wasted_cycles > 0

    def test_empty_workload_rejected(self, config):
        simulator = NPUSimulator(
            SimulationConfig(npu=config), make_policy("FCFS")
        )
        with pytest.raises(ValueError):
            simulator.run([])

    def test_duplicate_task_ids_rejected(self, config, factory, pair):
        simulator = NPUSimulator(
            SimulationConfig(npu=config), make_policy("FCFS")
        )
        tasks = [factory.build_task(pair[0]), factory.build_task(pair[0])]
        with pytest.raises(ValueError):
            simulator.run(tasks)


class TestNonPreemptive:
    def test_np_never_preempts(self, config, factory, pair):
        result = run(config, factory, pair, policy="HPF", mode=PreemptionMode.NP)
        assert result.preemption_count == 0
        assert all(task.preemption_count == 0 for task in result.tasks)

    def test_fcfs_serves_in_arrival_order(self, config, factory, pair):
        result = run(config, factory, pair, policy="FCFS")
        low, high = result.task_by_id(0), result.task_by_id(1)
        assert low.completion_time < high.completion_time

    def test_high_priority_waits_under_fcfs(self, config, factory, pair):
        result = run(config, factory, pair, policy="FCFS")
        high = result.task_by_id(1)
        # Queued behind the long VGG run: severe slowdown (the Fig 2a story).
        assert high.normalized_turnaround > 3.0


class TestPreemptive:
    def test_hpf_preempts_for_high_priority(self, config, factory, pair):
        result = run(config, factory, pair, policy="HPF",
                     mode=PreemptionMode.STATIC)
        assert result.preemption_count == 1
        high = result.task_by_id(1)
        # Near-isolated latency for the preemptor (the Fig 2c story).
        assert high.normalized_turnaround < 1.5

    def test_preempted_task_resumes_and_finishes_last(self, config, factory, pair):
        result = run(config, factory, pair, policy="HPF",
                     mode=PreemptionMode.STATIC)
        low, high = result.task_by_id(0), result.task_by_id(1)
        assert low.preemption_count == 1
        assert low.completion_time > high.completion_time

    def test_checkpoint_segments_recorded(self, config, factory, pair):
        result = run(config, factory, pair, policy="HPF",
                     mode=PreemptionMode.STATIC)
        kinds = {segment.kind for segment in result.timeline.segments}
        assert SegmentKind.CHECKPOINT in kinds
        assert SegmentKind.RESTORE in kinds

    def test_kill_faster_preemptor_worse_total(self, config, factory, pair):
        ckpt = run(config, factory, pair, policy="HPF",
                   mode=PreemptionMode.STATIC, mechanism="CHECKPOINT")
        kill = run(config, factory, pair, policy="HPF",
                   mode=PreemptionMode.STATIC, mechanism="KILL")
        high_ckpt = ckpt.task_by_id(1).turnaround_cycles
        high_kill = kill.task_by_id(1).turnaround_cycles
        # KILL's preemptor is at least as fast (no checkpoint DMA wait).
        assert high_kill <= high_ckpt * 1.001
        # ... but system throughput suffers (Fig 6a).
        assert compute_metrics(kill.tasks).stp <= compute_metrics(ckpt.tasks).stp

    def test_dynamic_mode_can_drain(self, config, factory):
        # Candidate long, running near its end: Algorithm 3 drains.
        specs = [
            spec(0, "CNN-GN", Priority.LOW, 0.0, config),
            spec(1, "CNN-VN", Priority.HIGH, 0.5, config),
        ]
        result = run(config, factory, specs, policy="HPF",
                     mode=PreemptionMode.DYNAMIC)
        assert result.drain_decisions >= 1
        assert result.task_by_id(0).preemption_count == 0


class TestEnsembleInvariants:
    @pytest.mark.parametrize("policy,mode", [
        ("FCFS", PreemptionMode.NP),
        ("RRB", PreemptionMode.NP),
        ("HPF", PreemptionMode.STATIC),
        ("TOKEN", PreemptionMode.STATIC),
        ("SJF", PreemptionMode.STATIC),
        ("PREMA", PreemptionMode.DYNAMIC),
    ])
    def test_random_workloads_complete_under_every_policy(
        self, config, factory, policy, mode
    ):
        workload = WorkloadGenerator(seed=99).generate(num_tasks=6)
        simulator = NPUSimulator(
            SimulationConfig(npu=config, mode=mode), make_policy(policy)
        )
        tasks = factory.build_workload(workload)
        result = simulator.run(tasks)
        assert all(task.is_done for task in result.tasks)
        result.timeline.verify_no_overlap()
        for task in result.tasks:
            # Starvation freedom: everything eventually finishes with a
            # finite slowdown.
            assert task.normalized_turnaround < 1000

    def test_same_seed_same_results(self, config, factory):
        workload = WorkloadGenerator(seed=7).generate(num_tasks=5)
        sim = NPUSimulator(
            SimulationConfig(npu=config, mode=PreemptionMode.DYNAMIC),
            make_policy("PREMA"),
        )
        first = sim.run(factory.build_workload(workload))
        second = sim.run(factory.build_workload(workload))
        for a, b in zip(first.tasks, second.tasks):
            assert a.completion_time == b.completion_time


PERIOD = SchedulerConfig().period_cycles


def lone_task(cycles=50 * PERIOD, task_id=0):
    return synthetic_runtime(
        TaskSpec(task_id=task_id, benchmark=f"syn{task_id}", batch=1,
                 priority=Priority.MEDIUM, arrival_cycles=0.0),
        cycles,
    )


def drain(sim):
    while sim.has_live_tasks and sim.next_event_time() is not None:
        sim.step()
    return sim.result()


class TestLazyPeriodClock:
    """Period ticks fire only when they can matter (DeviceSim docstring)."""

    def sim_config(self, mode=PreemptionMode.DYNAMIC, mechanism="CHECKPOINT"):
        return SimulationConfig(npu=NPUConfig(), mode=mode, mechanism=mechanism)

    def test_lone_task_processes_no_period_events(self):
        result = NPUSimulator(self.sim_config(), make_policy("PREMA")).run(
            [lone_task()]
        )
        assert result.events_by_kind == {
            "COMPLETE": 1, "ARRIVAL": 1, "PERIOD": 0, "DISPATCH": 0,
        }
        cluster = ClusterScheduler(
            1, self.sim_config(),
            config=ClusterConfig(routing=RoutingPolicy.ONLINE_PREDICTED),
        ).run([lone_task()])
        assert cluster.events_by_kind["PERIOD"] == 0
        assert cluster.events_processed == sum(cluster.events_by_kind.values())

    def test_token_policy_waiting_rows_still_get_their_ticks(self):
        tasks = [lone_task(), lone_task(10 * PERIOD, task_id=1)]
        result = NPUSimulator(
            self.sim_config(PreemptionMode.NP), make_policy("PREMA")
        ).run(tasks)
        # Task 1 earns tokens over the whole 50 periods of task 0.
        assert result.events_by_kind["PERIOD"] >= 50

    @pytest.mark.parametrize("policy", ["FCFS", "HPF", "SJF"])
    def test_token_free_waiting_rows_skip_their_ticks(self, policy):
        """Under NP with a task running, a tick could only repeat the
        wake's answer: no token policy, so no tick is processed."""
        tasks = [lone_task(), lone_task(10 * PERIOD, task_id=1)]
        result = NPUSimulator(
            self.sim_config(PreemptionMode.NP), make_policy(policy)
        ).run(tasks)
        assert result.events_by_kind["PERIOD"] == 0
        assert result.task_by_id(1).first_dispatch_time == 50 * PERIOD

    def test_drain_verdict_keeps_ticking(self):
        """Dynamic HPF counts one DRAIN decision per tick while a nearly
        done low-priority task keeps a long high-priority one waiting."""
        def tasks():
            return [
                synthetic_runtime(
                    TaskSpec(task_id=0, benchmark="syn0", batch=1,
                             priority=Priority.LOW, arrival_cycles=0.0),
                    50 * PERIOD,
                ),
                synthetic_runtime(
                    TaskSpec(task_id=1, benchmark="syn1", batch=1,
                             priority=Priority.HIGH,
                             arrival_cycles=40.5 * PERIOD),
                    100 * PERIOD,
                ),
            ]

        config = self.sim_config(PreemptionMode.DYNAMIC)
        lazy = DeviceSim(config, make_policy("HPF"))
        eager = DeviceSim(config, make_policy("HPF"))
        eager.poll_ticks(True, 0.0, False)
        for sim in (lazy, eager):
            for task in tasks():
                sim.inject(task)
        lazy_result, eager_result = drain(lazy), drain(eager)
        # One verdict at the arrival, then one per tick until task 0 ends.
        assert lazy_result.drain_decisions >= 10
        assert lazy_result.drain_decisions == eager_result.drain_decisions
        assert lazy_result.preemption_count == 0
        assert lazy_result.events_by_kind["PERIOD"] >= 9
        assert helpers_golden._encode_result(
            lazy_result
        ) == helpers_golden._encode_result(eager_result)

    def test_stop_accepting_queues_the_next_grid_tick(self):
        sim = DeviceSim(self.sim_config(), make_policy("PREMA"))
        sim.inject(lone_task())
        sim.step()  # arrival -> dispatch; no tick can matter yet
        assert sim.next_event_key()[1] == 0  # only the COMPLETE is queued
        sim.stop_accepting(3.5 * PERIOD)
        due = 0.0 + PERIOD
        while due < 3.5 * PERIOD:
            due += PERIOD
        assert sim.next_event_time() == due

    @pytest.mark.parametrize(
        "mode,mechanism", helpers_golden.MODE_MECHANISMS
    )
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_ticking_every_period_changes_no_schedule(
        self, policy, mode, mechanism
    ):
        """A device polled on every grid point (the eager clock) and a
        lazy one produce bit-identical schedules."""
        config = self.sim_config(PreemptionMode(mode), mechanism)
        lazy = DeviceSim(config, make_policy(policy))
        eager = DeviceSim(config, make_policy(policy))
        eager.poll_ticks(True, 0.0, False)
        for sim in (lazy, eager):
            for task in synthetic_trace_runtimes(300, seed=12, bursty=True):
                sim.inject(task)
        lazy_result, eager_result = drain(lazy), drain(eager)
        assert helpers_golden._encode_result(
            lazy_result
        ) == helpers_golden._encode_result(eager_result)
        assert (
            lazy_result.events_by_kind["PERIOD"]
            < eager_result.events_by_kind["PERIOD"]
        )
