"""Parallel backend equivalence: rack-sharded PDES == the serial loop.

The contract under test (``src/repro/sched/parallel.py``,
``docs/performance.md``): ``ClusterConfig(workers=N)`` produces results
**bit-for-bit identical** to the serial event loop -- the full
``_encode_cluster_v2`` digest, ``events_processed`` included -- for
every routing policy, with unsupported configurations falling back to
the serial loop transparently.  ``last_run_parallel`` distinguishes the
two paths so a test can assert the fast path genuinely engaged (a
fallback would make the equality trivially true and the test
meaningless).

Also here: the shard-merge helpers the backend is built from (tracer
shard merge, profiler merge) and the pickle round-trips the worker
protocol relies on.
"""

from __future__ import annotations

import dataclasses
import math
import os
import pathlib
import pickle

import pytest

import helpers_golden
from repro.npu.config import NPUConfig
from repro.obs.profile import HotPathProfiler
from repro.obs.trace import Tracer, validate_chrome_trace
from repro.sched.cluster import ClusterConfig, ClusterScheduler, RoutingPolicy
from repro.sched.faults import ChurnSchedule
from repro.sched.interconnect import TransferRecord
from repro.sched.job import BatchConfig
from repro.sched.metrics import compute_cluster_metrics
from repro.sched.rack import RackTopology
from repro.sched.simulator import PreemptionMode, SimulationConfig
from repro.serving import AdmissionController, PredictionFeedback
from repro.workloads.trace import (
    DEFAULT_MEAN_INTERARRIVAL_CYCLES,
    synthetic_trace_runtimes,
)

ALL_ROUTINGS = tuple(RoutingPolicy)

#: Routings the parallel backend runs natively on a multi-rack fleet
#: (PREEMPTIVE_MIGRATION always takes the serial fallback: its per-event
#: migration pass gates on fabric state at other racks' event times).
FAST_PATH_ROUTINGS = tuple(
    routing
    for routing in ALL_ROUTINGS
    if routing is not RoutingPolicy.PREEMPTIVE_MIGRATION
)


def _sim_config() -> SimulationConfig:
    return SimulationConfig(
        npu=NPUConfig(), mode=PreemptionMode.DYNAMIC, mechanism="CHECKPOINT"
    )


def _trace(num_tasks: int, seed: int, num_devices: int):
    return synthetic_trace_runtimes(
        num_tasks,
        seed=seed,
        mean_interarrival_cycles=(
            DEFAULT_MEAN_INTERARRIVAL_CYCLES / num_devices
        ),
    )


def _run(routing, workers, *, num_devices=8, racks=None, seed=17,
         num_tasks=64, **cfg_kwargs):
    """One (scheduler, result) pair; fresh runtimes per call so serial
    and parallel runs never share mutable task state."""
    if routing is RoutingPolicy.WORK_STEALING and racks is not None:
        cfg_kwargs.setdefault("cross_rack_threshold_cycles", math.inf)
    runtimes = _trace(num_tasks, seed, num_devices)
    config = ClusterConfig(
        policy_name=cfg_kwargs.pop("policy_name", "PREMA"),
        routing=routing,
        seed=seed,
        racks=racks,
        workers=workers,
        **cfg_kwargs,
    )
    scheduler = ClusterScheduler(num_devices, _sim_config(), config=config)
    return scheduler, scheduler.run(runtimes)


def _assert_identical(serial, parallel) -> None:
    """Bit-for-bit: the full v2 digest plus the control-plane count."""
    assert (
        helpers_golden._encode_cluster_v2(serial)
        == helpers_golden._encode_cluster_v2(parallel)
    )
    assert serial.events_processed == parallel.events_processed
    assert serial.events_by_kind == parallel.events_by_kind


# ----------------------------------------------------------------------
# 1. The determinism contract: every routing, bit for bit
# ----------------------------------------------------------------------
class TestParallelEquivalence:
    @pytest.mark.parametrize(
        "routing", ALL_ROUTINGS, ids=[r.value for r in ALL_ROUTINGS]
    )
    def test_multirack_digest_equal(self, routing):
        topo = RackTopology.uniform(4, 2)
        _, serial = _run(routing, None, racks=topo)
        sched, parallel = _run(routing, 3, racks=topo)
        assert sched.last_run_parallel == (routing in FAST_PATH_ROUTINGS)
        _assert_identical(serial, parallel)

    def test_worker_count_sweep(self):
        """2/4/8 workers over 4 racks all reproduce the serial digest
        (8 > num_racks exercises empty-group dropping)."""
        topo = RackTopology.uniform(4, 2)
        _, serial = _run(RoutingPolicy.WORK_STEALING, None, racks=topo)
        for workers in (2, 4, 8):
            sched, parallel = _run(
                RoutingPolicy.WORK_STEALING, workers, racks=topo
            )
            assert sched.last_run_parallel
            _assert_identical(serial, parallel)

    def test_uneven_racks(self):
        topo = RackTopology.from_sizes([1, 2, 5])
        _, serial = _run(
            RoutingPolicy.ONLINE_PREDICTED, None, racks=topo, seed=23
        )
        sched, parallel = _run(
            RoutingPolicy.ONLINE_PREDICTED, 3, racks=topo, seed=23
        )
        assert sched.last_run_parallel
        _assert_identical(serial, parallel)

    def test_flat_static_shards_by_device(self):
        """Static routings need no rack topology: contiguous device
        groups are embarrassingly parallel."""
        _, serial = _run(RoutingPolicy.ROUND_ROBIN, None, racks=None)
        sched, parallel = _run(RoutingPolicy.ROUND_ROBIN, 4, racks=None)
        assert sched.last_run_parallel
        _assert_identical(serial, parallel)

    def test_rotating_policies_and_modes(self):
        """The golden-suite rotation: every device policy appears."""
        topo = RackTopology.uniform(2, 3)
        for index, policy_name in enumerate(("FCFS", "RRB", "SJF", "PREMA")):
            _, serial = _run(
                RoutingPolicy.ONLINE_PREDICTED, None, num_devices=6,
                racks=topo, seed=30 + index, num_tasks=32,
                policy_name=policy_name,
            )
            sched, parallel = _run(
                RoutingPolicy.ONLINE_PREDICTED, 2, num_devices=6,
                racks=topo, seed=30 + index, num_tasks=32,
                policy_name=policy_name,
            )
            assert sched.last_run_parallel
            _assert_identical(serial, parallel)

    def test_spawn_start_method(self, monkeypatch):
        """The protocol is start-method agnostic: spawn reproduces the
        fork (and serial) digest exactly."""
        src = str(pathlib.Path(helpers_golden.__file__).parents[1] / "src")
        monkeypatch.setenv("REPRO_PARALLEL_START_METHOD", "spawn")
        monkeypatch.setenv(
            "PYTHONPATH",
            src + os.pathsep + os.environ.get("PYTHONPATH", ""),
        )
        topo = RackTopology.uniform(2, 2)
        _, serial = _run(
            RoutingPolicy.WORK_STEALING, None, num_devices=4, racks=topo,
            num_tasks=24,
        )
        sched, parallel = _run(
            RoutingPolicy.WORK_STEALING, 2, num_devices=4, racks=topo,
            num_tasks=24,
        )
        assert sched.last_run_parallel
        _assert_identical(serial, parallel)

    def test_workers_one_runs_serial(self):
        sched, _ = _run(
            RoutingPolicy.WORK_STEALING, 1, racks=RackTopology.uniform(4, 2)
        )
        assert not sched.last_run_parallel

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ClusterScheduler(
                4, _sim_config(), config=ClusterConfig(workers=0)
            )

    def test_task_identity_preserved(self):
        """result.tasks are the caller's objects, mutated in place --
        exactly the serial loop's aliasing contract."""
        topo = RackTopology.uniform(2, 2)
        runtimes = _trace(16, 5, 4)
        config = ClusterConfig(
            routing=RoutingPolicy.ONLINE_PREDICTED, seed=5, racks=topo,
            workers=2,
        )
        sched = ClusterScheduler(4, _sim_config(), config=config)
        result = sched.run(runtimes)
        assert sched.last_run_parallel
        by_id = {task.task_id: task for task in runtimes}
        for task in result.tasks:
            assert task is by_id[task.task_id]
            assert task.completion_time is not None


# ----------------------------------------------------------------------
# 2. Transparent fallback: unsupported configs run the serial loop
# ----------------------------------------------------------------------
class TestParallelFallback:
    def _fallback(self, **cfg_kwargs):
        num_devices = cfg_kwargs.pop("num_devices", 8)
        sched, _ = _run(
            cfg_kwargs.pop("routing", RoutingPolicy.ONLINE_PREDICTED),
            3,
            num_devices=num_devices,
            num_tasks=16,
            **cfg_kwargs,
        )
        assert not sched.last_run_parallel

    def test_churn_falls_back(self):
        self._fallback(
            racks=RackTopology.uniform(4, 2),
            churn=ChurnSchedule.generate(
                num_devices=8, horizon_cycles=1e7, seed=2,
                fault_rate=4e-7,
            ),
        )

    def test_admission_falls_back(self):
        self._fallback(
            racks=RackTopology.uniform(4, 2),
            admission=AdmissionController(feedback=PredictionFeedback()),
        )

    def test_batching_falls_back(self):
        self._fallback(
            racks=RackTopology.uniform(4, 2),
            batching=BatchConfig(window_cycles=1000.0, max_batch=2),
        )

    def test_flat_online_falls_back(self):
        self._fallback(racks=None)

    def test_single_rack_falls_back(self):
        self._fallback(racks=RackTopology.uniform(1, 8))

    def test_finite_steal_threshold_falls_back(self):
        self._fallback(
            routing=RoutingPolicy.WORK_STEALING,
            racks=RackTopology.uniform(4, 2),
            cross_rack_threshold_cycles=1e5,
        )

    def test_token_ledger_falls_back(self):
        # PREMA reads tokens, so global_tokens=True builds the
        # cluster-wide ledger -- every device coupled through it.
        self._fallback(
            racks=RackTopology.uniform(4, 2), global_tokens=True
        )

    def test_fallback_digest_still_serial(self):
        """A fallback run with workers set is byte-identical to the same
        config without workers (the knob is a no-op, not a variant)."""
        topo = RackTopology.uniform(4, 2)
        churn = ChurnSchedule.generate(
            num_devices=8, horizon_cycles=1e7, seed=2, fault_rate=4e-7
        )
        _, serial = _run(
            RoutingPolicy.ONLINE_PREDICTED, None, racks=topo, churn=churn
        )
        _, fallback = _run(
            RoutingPolicy.ONLINE_PREDICTED, 3, racks=topo, churn=churn
        )
        _assert_identical(serial, fallback)


# ----------------------------------------------------------------------
# 3. Observability across shards: tracer and profiler merge
# ----------------------------------------------------------------------
class TestParallelObservability:
    def test_merged_trace_matches_serial_multiset(self):
        """Worker shards carry the trace; merged, it holds exactly the
        serial run's events and validates as a Chrome trace."""
        topo = RackTopology.uniform(2, 2)
        serial_tracer = Tracer()
        _, serial = _run(
            RoutingPolicy.WORK_STEALING, None, num_devices=4, racks=topo,
            num_tasks=32, tracer=serial_tracer,
        )
        parallel_tracer = Tracer()
        sched, parallel = _run(
            RoutingPolicy.WORK_STEALING, 2, num_devices=4, racks=topo,
            num_tasks=32, tracer=parallel_tracer,
        )
        assert sched.last_run_parallel
        _assert_identical(serial, parallel)
        assert sorted(map(repr, parallel_tracer.events)) == sorted(
            map(repr, serial_tracer.events)
        )
        counts = validate_chrome_trace(
            parallel_tracer.chrome_trace(), num_devices=4
        )
        assert counts["X"] > 0 and counts["i"] > 0

    def test_merged_profiler_covers_hot_sections(self):
        profiler = HotPathProfiler()
        sched, _ = _run(
            RoutingPolicy.WORK_STEALING, 2, num_devices=4,
            racks=RackTopology.uniform(2, 2), num_tasks=32,
            profiler=profiler,
        )
        assert sched.last_run_parallel
        report = profiler.report()
        # Worker shards contribute route/index/steal, the coordinator
        # its barrier wait; every count is a genuine event.
        assert {"route", "index", "sync"} <= set(report)
        assert all(entry["calls"] > 0 for entry in report.values())

    def test_merge_shards_orders_and_caps(self):
        """Direct unit: deterministic (ts, shard, emission) order and
        drop accounting at the cap."""
        base = Tracer(max_events=4)
        base.instant("route", "r0", 10.0)
        shard_a = Tracer()
        shard_a.instant("route", "a0", 5.0)
        shard_a.instant("route", "a1", 20.0)
        shard_b = Tracer()
        shard_b.instant("route", "b0", 5.0)
        shard_b.instant("route", "b1", 15.0)
        base.merge_shards([shard_a.events, shard_b.events])
        names = [event[2] for event in base.events]
        # ts order; ties (ts=5.0) resolve shard-then-emission.
        assert names == ["a0", "b0", "r0", "b1"]
        assert base.dropped == 1  # a1 fell past max_events


# ----------------------------------------------------------------------
# 4. Pickle round-trips (the worker protocol ships all of these)
# ----------------------------------------------------------------------
class TestPickleRoundTrip:
    def test_task_runtime(self):
        fresh = _trace(4, 9, 2)[1]
        clone = pickle.loads(pickle.dumps(fresh))
        assert clone.task_id == fresh.task_id
        assert clone.spec == fresh.spec
        # A completed runtime (full mutable state) round-trips too.
        _, result = _run(
            RoutingPolicy.LEAST_LOADED, None, num_devices=2,
            num_tasks=8, seed=9,
        )
        done = result.tasks[0]
        assert helpers_golden._encode_task(
            pickle.loads(pickle.dumps(done))
        ) == helpers_golden._encode_task(done)

    def test_transfer_record(self):
        record = TransferRecord(
            task_id=3, src_device=0, dst_device=5, num_bytes=2048.0,
            request_cycles=10.0, start_cycles=12.0, end_cycles=40.0,
        )
        assert pickle.loads(pickle.dumps(record)) == record

    def test_cluster_result(self):
        _, result = _run(
            RoutingPolicy.WORK_STEALING, None, num_devices=4,
            racks=RackTopology.uniform(2, 2), num_tasks=16,
        )
        clone = pickle.loads(pickle.dumps(result))
        assert helpers_golden._encode_cluster_v2(clone) == (
            helpers_golden._encode_cluster_v2(result)
        )

    def test_cluster_metrics(self):
        _, result = _run(
            RoutingPolicy.ONLINE_PREDICTED, None, num_devices=4,
            racks=RackTopology.uniform(2, 2), num_tasks=16,
        )
        metrics = compute_cluster_metrics(result)
        clone = pickle.loads(pickle.dumps(metrics))
        assert dataclasses.asdict(clone) == dataclasses.asdict(metrics)

    def test_profiler(self):
        profiler = HotPathProfiler()
        profiler.add("route", 1200)
        clone = pickle.loads(pickle.dumps(profiler))
        assert clone.nanos == profiler.nanos
        assert clone.counts == profiler.counts
