"""Golden-equivalence capture for the scheduler hot path.

The hot-path optimization PR (incremental ready/backlog accounting, lazy
wait settlement, policy priority structures) promises behavioral
equivalence: every (policy, mode, mechanism, routing) combination must
reproduce the pre-optimization scheduling decisions exactly.  This module
runs the sweep and encodes each run into a JSON-stable record; the golden
file committed at ``tests/data/golden_hotpath.json.gz`` was captured from
the **pre-optimization** simulator (run
``python tests/capture_hotpath_goldens.py`` to regenerate -- only ever
justified alongside an intentional, documented behavioral change).

Two comparison classes:

- *Behavioral* fields -- completion times, first-dispatch times, timeline
  digests, preemption/kill/drain counters, wasted cycles, checkpoint
  bytes, makespan, placements, migrations -- are compared **bit-for-bit**
  (floats travel as ``float.hex()``).  Any difference means a scheduling
  decision changed.
- *Accounting* fields -- ``waited_cycles``, ``waited_since_grant``,
  ``tokens`` -- are compared to 1e-9 relative tolerance.  Lazy wait
  settlement coalesces the per-wake accruals of idle waiters into one
  delta per read point; IEEE-754 addition is not associative, so these
  sums can legitimately differ in their last bits while every comparison
  the scheduler makes (token thresholds are exact small integers) is
  unchanged.  If a token-threshold comparison ever *did* flip, dispatch
  order would shift and the behavioral fields would catch it exactly.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import pathlib
from typing import Dict, Iterator, Tuple

from repro.npu.config import NPUConfig
from repro.sched.cluster import ClusterConfig, ClusterScheduler, RoutingPolicy
from repro.sched.faults import ChurnSchedule
from repro.sched.interconnect import InterconnectConfig
from repro.sched.job import BatchConfig
from repro.sched.policies import POLICY_NAMES
from repro.sched.prepare import TaskFactory
from repro.sched.simulator import (
    NPUSimulator,
    PreemptionMode,
    SimulationConfig,
)
from repro.sched.policies import make_policy
from repro.serving import AdmissionController, PredictionFeedback
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.trace import synthetic_trace_runtimes

GOLDEN_PATH = (
    pathlib.Path(__file__).parent / "data" / "golden_hotpath.json.gz"
)
CLUSTER_GOLDEN_PATH = (
    pathlib.Path(__file__).parent / "data" / "golden_cluster.json.gz"
)
COMBO_GOLDEN_PATH = (
    pathlib.Path(__file__).parent / "data" / "golden_cluster_combo.json.gz"
)
TOKEN_GOLDEN_PATH = (
    pathlib.Path(__file__).parent / "data" / "golden_token_reads.json.gz"
)
LEDGER_GOLDEN_PATH = (
    pathlib.Path(__file__).parent / "data" / "golden_ledger_ticks.json.gz"
)

SINGLE_SEED = 77
CLUSTER_SEED = 78
NUM_WORKLOADS = 25
CLUSTER_NUM_TASKS = 16
CLUSTER_DEVICES = 4

#: Every (mode, mechanism) pair with distinct behavior.  NP never touches
#: the mechanism, so one representative suffices.
MODE_MECHANISMS: Tuple[Tuple[str, str], ...] = (
    ("np", "CHECKPOINT"),
    ("static", "CHECKPOINT"),
    ("static", "KILL"),
    ("dynamic", "CHECKPOINT"),
    ("dynamic", "KILL"),
)

#: The routings the hot-path golden file was captured over -- pinned to
#: the pre-migration set so later routing additions (PREEMPTIVE_MIGRATION
#: and beyond) extend the *cluster* golden suite instead of invalidating
#: this one.
ROUTINGS: Tuple[RoutingPolicy, ...] = (
    RoutingPolicy.ROUND_ROBIN,
    RoutingPolicy.LEAST_LOADED,
    RoutingPolicy.RANDOM,
    RoutingPolicy.STATIC,
    RoutingPolicy.ONLINE_PREDICTED,
    RoutingPolicy.WORK_STEALING,
)

#: Accounting fields compared with tolerance instead of bit-for-bit.
TOLERANT_TASK_FIELDS = frozenset({"waited", "waited_since_grant", "tokens"})
RELATIVE_TOLERANCE = 1e-9


def _hex(value) -> str:
    return float(value).hex()


def _encode_timeline(timeline) -> str:
    digest = hashlib.sha256()
    for segment in timeline.segments:
        digest.update(
            (
                f"{segment.task_id}|{segment.kind.value}|"
                f"{_hex(segment.start_cycles)}|{_hex(segment.end_cycles)};"
            ).encode()
        )
    return digest.hexdigest()[:20]


def _encode_task(task) -> Dict[str, object]:
    context = task.context
    return {
        # Behavioral (exact)
        "completion": _hex(task.completion_time),
        "first_dispatch": _hex(task.first_dispatch_time),
        "preemptions": task.preemption_count,
        "kills": task.kill_count,
        "wasted": _hex(task.wasted_cycles),
        "checkpoint_bytes": _hex(task.checkpointed_bytes_total),
        "executed": _hex(context.executed_cycles),
        # Accounting (tolerance)
        "waited": _hex(context.waited_cycles),
        "waited_since_grant": _hex(context.waited_since_grant),
        "tokens": _hex(context.tokens),
    }


def _encode_result(result) -> Dict[str, object]:
    return {
        "makespan": _hex(result.makespan_cycles),
        "preemption_count": result.preemption_count,
        "drain_decisions": result.drain_decisions,
        "timeline": _encode_timeline(result.timeline),
        "tasks": {
            str(task.task_id): _encode_task(task)
            for task in sorted(result.tasks, key=lambda t: t.task_id)
        },
    }


def _encode_cluster(result) -> Dict[str, object]:
    return {
        "assignments": {
            str(task_id): device
            for task_id, device in sorted(result.assignments.items())
        },
        "migrations": [
            [m.task_id, m.from_device, m.to_device, _hex(m.time_cycles)]
            for m in result.migrations
        ],
        "makespan": _hex(result.makespan_cycles),
        "devices": [
            None if device is None else _encode_result(device)
            for device in result.device_results
        ],
        "tasks": {
            str(task.task_id): _encode_task(task)
            for task in sorted(result.tasks, key=lambda t: t.task_id)
        },
    }


def single_npu_runs(factory: TaskFactory) -> Iterator[Tuple[str, object]]:
    """The full single-NPU sweep: 25 workloads x policies x mode-mechs."""
    workloads = WorkloadGenerator(seed=SINGLE_SEED).generate_many(
        NUM_WORKLOADS, num_tasks=8
    )
    for index, workload in enumerate(workloads):
        for policy_name in POLICY_NAMES:
            for mode, mechanism in MODE_MECHANISMS:
                config = SimulationConfig(
                    npu=factory.config,
                    mode=PreemptionMode(mode),
                    mechanism=mechanism,
                )
                tasks = factory.build_workload(workload)
                result = NPUSimulator(config, make_policy(policy_name)).run(
                    tasks
                )
                yield (
                    f"single/{index:02d}/{policy_name}/{mode}/{mechanism}",
                    _encode_result(result),
                )


def cluster_runs(factory: TaskFactory) -> Iterator[Tuple[str, object]]:
    """The cluster sweep: 25 workloads x routings, rotating the device
    scheduler so every policy and every mode-mechanism pair appears."""
    workloads = WorkloadGenerator(seed=CLUSTER_SEED).generate_many(
        NUM_WORKLOADS, num_tasks=CLUSTER_NUM_TASKS
    )
    for index, workload in enumerate(workloads):
        policy_name = POLICY_NAMES[index % len(POLICY_NAMES)]
        mode, mechanism = MODE_MECHANISMS[index % len(MODE_MECHANISMS)]
        for routing in ROUTINGS:
            config = SimulationConfig(
                npu=factory.config,
                mode=PreemptionMode(mode),
                mechanism=mechanism,
            )
            scheduler = ClusterScheduler(
                num_devices=CLUSTER_DEVICES,
                simulation_config=config,
                policy_name=policy_name,
                routing=routing,
                seed=index,
            )
            tasks = factory.build_workload(workload)
            result = scheduler.run(tasks)
            yield (
                f"cluster/{index:02d}/{routing.value}/{policy_name}/"
                f"{mode}/{mechanism}",
                _encode_cluster(result),
            )


# ----------------------------------------------------------------------
# Cluster golden suite (PR 3): every routing policy -- checkpoint
# migration included -- on 2/4/8-device clusters
# ----------------------------------------------------------------------
CLUSTER_SUITE_SEED = 81
CLUSTER_SUITE_NUM_WORKLOADS = 6
CLUSTER_SUITE_NUM_TASKS = 16
CLUSTER_SUITE_DEVICE_COUNTS: Tuple[int, ...] = (2, 4, 8)
CLUSTER_SUITE_ROUTINGS: Tuple[RoutingPolicy, ...] = tuple(RoutingPolicy)


def _encode_migration(migration) -> list:
    return [
        migration.task_id,
        migration.from_device,
        migration.to_device,
        _hex(migration.time_cycles),
        migration.kind,
        _hex(migration.bytes_moved),
        _hex(migration.arrival_cycles),
    ]


def _encode_transfers(transfers) -> str:
    digest = hashlib.sha256()
    for record in transfers:
        digest.update(
            (
                f"{record.task_id}|{record.src_device}|{record.dst_device}|"
                f"{_hex(record.num_bytes)}|{_hex(record.request_cycles)}|"
                f"{_hex(record.start_cycles)}|{_hex(record.end_cycles)};"
            ).encode()
        )
    return digest.hexdigest()[:20]


def _encode_cluster_v2(result) -> Dict[str, object]:
    """Cluster encoding with the migration-era fields.

    Superset of :func:`_encode_cluster`: migrations carry kind, payload
    bytes, and delivery time; interconnect transfers are digested; tasks
    gain their migration counters (behavioral, compared exactly).
    """
    record = _encode_cluster(result)
    record["migrations"] = [
        _encode_migration(m) for m in result.migrations
    ]
    record["transfers"] = _encode_transfers(result.transfers)
    for task in result.tasks:
        encoded = record["tasks"][str(task.task_id)]
        encoded["migrations"] = task.migration_count
        encoded["migrated_bytes"] = _hex(task.migrated_bytes_total)
    return record


def cluster_suite_runs(
    factory: TaskFactory,
    interconnect: InterconnectConfig = None,
    global_tokens: bool = None,
    routings: Tuple[RoutingPolicy, ...] = CLUSTER_SUITE_ROUTINGS,
    device_counts: Tuple[int, ...] = CLUSTER_SUITE_DEVICE_COUNTS,
    num_workloads: int = CLUSTER_SUITE_NUM_WORKLOADS,
) -> Iterator[Tuple[str, object]]:
    """The cluster golden sweep: workloads x device counts x routings,
    rotating the device scheduler so every policy and mode-mechanism
    pair appears.  ``interconnect``/``global_tokens`` default to the
    scheduler's own defaults; passing explicit values replays the sweep
    under different fabric assumptions (the infinite-bandwidth
    equivalence test does)."""
    workloads = WorkloadGenerator(seed=CLUSTER_SUITE_SEED).generate_many(
        CLUSTER_SUITE_NUM_WORKLOADS, num_tasks=CLUSTER_SUITE_NUM_TASKS
    )[:num_workloads]
    for index, workload in enumerate(workloads):
        policy_name = POLICY_NAMES[index % len(POLICY_NAMES)]
        mode, mechanism = MODE_MECHANISMS[index % len(MODE_MECHANISMS)]
        config = SimulationConfig(
            npu=factory.config,
            mode=PreemptionMode(mode),
            mechanism=mechanism,
        )
        for num_devices in device_counts:
            for routing in routings:
                scheduler = ClusterScheduler(
                    num_devices=num_devices,
                    simulation_config=config,
                    policy_name=policy_name,
                    routing=routing,
                    seed=index,
                    interconnect=interconnect,
                    global_tokens=global_tokens,
                )
                tasks = factory.build_workload(workload)
                result = scheduler.run(tasks)
                yield (
                    f"cluster/{index:02d}/{num_devices}dev/{routing.value}/"
                    f"{policy_name}/{mode}/{mechanism}",
                    _encode_cluster_v2(result),
                )


# ----------------------------------------------------------------------
# Feature-combination golden: preemptive migration + proactive churn
# (revocations and drains) + admission + batching with 2-stage sharding
# ----------------------------------------------------------------------
COMBO_DEVICES = 4
COMBO_NUM_TASKS = 160
COMBO_LOAD = 1.5
#: (trace seed, device policy, mode, mechanism) per golden case.
COMBO_CASES: Tuple[Tuple[int, str, str, str], ...] = (
    (0, "PREMA", "dynamic", "CHECKPOINT"),
    (1, "PREMA", "static", "CHECKPOINT"),
    (2, "HPF", "dynamic", "KILL"),
    (3, "TOKEN", "static", "KILL"),
)


def combo_runs() -> Iterator[Tuple[str, object]]:
    """Every cluster feature that interacts with the device clock at once.

    Synthetic bursty QoS traces at 1.5x the fleet's capacity (no model
    compilation), so admission defers and rejects, batches fill and
    shard, preempted checkpoints migrate, and warned devices evacuate.
    """
    mean_service = 1.5e-3 * 700e6
    for seed, policy_name, mode, mechanism in COMBO_CASES:
        tasks = synthetic_trace_runtimes(
            COMBO_NUM_TASKS,
            seed=seed,
            mean_interarrival_cycles=mean_service
            / (COMBO_DEVICES * COMBO_LOAD),
            bursty=True,
            qos_mix={"interactive": 0.3, "standard": 0.4, "batch": 0.3},
        )
        horizon = tasks[-1].spec.arrival_cycles
        config = ClusterConfig(
            policy_name=policy_name,
            routing=RoutingPolicy.PREEMPTIVE_MIGRATION,
            seed=seed,
            admission=AdmissionController(feedback=PredictionFeedback()),
            batching=BatchConfig(
                window_cycles=0.5e6,
                max_batch=8,
                marginal_fraction=0.6,
                shard_stages=2,
                min_shard_cycles=4e6,
            ),
            churn=ChurnSchedule.generate(
                COMBO_DEVICES,
                horizon_cycles=horizon,
                seed=seed,
                revocation_rate=1.0 / horizon,
                drain_rate=0.5 / horizon,
                mean_outage_cycles=horizon / 6,
                mean_warning_cycles=2e6,
            ),
        )
        scheduler = ClusterScheduler(
            COMBO_DEVICES,
            SimulationConfig(
                npu=NPUConfig(),
                mode=PreemptionMode(mode),
                mechanism=mechanism,
            ),
            config=config,
        )
        result = scheduler.run(tasks)
        record = _encode_cluster_v2(result)
        record["rejected"] = sorted(t.task_id for t in result.rejected_tasks)
        record["lost"] = sorted(t.task_id for t in result.lost_tasks)
        record["admission"] = [
            [r.task_id, r.decision.value, _hex(r.time_cycles),
             _hex(r.predicted_slowdown)]
            for r in result.admission_records
        ]
        yield f"combo/{seed}/{policy_name}/{mode}/{mechanism}", record


def capture_combo() -> Dict[str, object]:
    return {
        "format": 1,
        "note": (
            "Feature-combination golden (migration + churn + admission + "
            "sharded batching); regenerate only alongside an intentional "
            "behavioral change (python tests/capture_cluster_goldens.py "
            "--combo)."
        ),
        "runs": dict(combo_runs()),
    }


# ----------------------------------------------------------------------
# Token-read golden: the cluster paths that rank rows by their exact
# token counts (evacuation order, migration choice) and the device
# read points that settle tokens (dispatch, migration out, failure)
# ----------------------------------------------------------------------
TOKEN_DEVICES = 4
TOKEN_NUM_TASKS = 300
TOKEN_LOAD = 1.2
TOKEN_POLICIES: Tuple[str, ...] = ("PREMA", "TOKEN")
#: (case name, routing, churn on?).  ``global_tokens`` is off throughout:
#: without the cluster ledger a token policy's ticks are the sparsest,
#: so every token read must settle its rows on its own.
TOKEN_CASES: Tuple[Tuple[str, RoutingPolicy, bool], ...] = (
    ("online+churn", RoutingPolicy.ONLINE_PREDICTED, True),
    ("stealing+churn", RoutingPolicy.WORK_STEALING, True),
    ("migration", RoutingPolicy.PREEMPTIVE_MIGRATION, False),
    ("migration+churn", RoutingPolicy.PREEMPTIVE_MIGRATION, True),
)
TOKEN_MODE_MECHANISMS: Tuple[Tuple[str, str], ...] = (
    ("np", "CHECKPOINT"),
    ("static", "CHECKPOINT"),
    ("dynamic", "CHECKPOINT"),
)


def _token_trace(seed: int, num_tasks: int, load: float):
    mean_service = 1.5e-3 * 700e6
    return synthetic_trace_runtimes(
        num_tasks,
        seed=seed,
        mean_interarrival_cycles=mean_service / (TOKEN_DEVICES * load),
        bursty=True,
        qos_mix={"interactive": 0.3, "standard": 0.4, "batch": 0.3},
    )


def _token_churn(seed: int, horizon: float, faults: bool = True):
    return ChurnSchedule.generate(
        TOKEN_DEVICES,
        horizon_cycles=horizon,
        seed=seed,
        fault_rate=0.5 / horizon if faults else 0.0,
        revocation_rate=1.0 / horizon,
        drain_rate=0.5 / horizon,
        mean_outage_cycles=horizon / 8,
        mean_warning_cycles=2e6,
    )


def _digest_run(scheduler: ClusterScheduler, tasks) -> Dict[str, object]:
    """SHA-256 of every :func:`_encode_cluster_v2` field plus lost ids,
    with the makespan and migration/loss counts alongside."""
    result = scheduler.run(tasks)
    record = _encode_cluster_v2(result)
    record["lost"] = sorted(t.task_id for t in result.lost_tasks)
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return {
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "makespan": record["makespan"],
        "migrations": len(record["migrations"]),
        "lost": len(record["lost"]),
    }


def token_read_runs() -> Iterator[Tuple[str, object]]:
    """PREMA and TOKEN on a bursty 4-device fleet at 1.2x load, under
    the routings whose migrations read token counts, with fail-stop
    faults, revocations and drains (proactive evacuation) when churn
    is on.

    Each run is pinned by a SHA-256 of its full :func:`_encode_cluster_v2`
    record (plus ``lost``), accounting fields included: token grants are
    replayed exactly, so nothing here is compared with tolerance.  The
    makespan and migration/loss counts ride along to tell a diverged run
    at a glance.
    """
    for case_index, (case, routing, churn_on) in enumerate(TOKEN_CASES):
        for mode_index, (mode, mechanism) in enumerate(TOKEN_MODE_MECHANISMS):
            seed = case_index * len(TOKEN_MODE_MECHANISMS) + mode_index
            for policy_name in TOKEN_POLICIES:
                tasks = _token_trace(seed, TOKEN_NUM_TASKS, TOKEN_LOAD)
                horizon = tasks[-1].spec.arrival_cycles
                config = ClusterConfig(
                    policy_name=policy_name,
                    routing=routing,
                    seed=seed,
                    global_tokens=False,
                    churn=_token_churn(seed, horizon) if churn_on else None,
                )
                scheduler = ClusterScheduler(
                    TOKEN_DEVICES,
                    SimulationConfig(
                        npu=NPUConfig(),
                        mode=PreemptionMode(mode),
                        mechanism=mechanism,
                    ),
                    config=config,
                )
                yield (
                    f"tokens/{case}/{policy_name}/{mode}/{mechanism}",
                    _digest_run(scheduler, tasks),
                )


def capture_token_reads() -> Dict[str, object]:
    return {
        "format": 1,
        "note": (
            "Token-read golden (PREMA/TOKEN under churn, work stealing and "
            "preemptive migration without the cluster ledger): a digest of "
            "every _encode_cluster_v2 field, tokens and waits included, "
            "compared exactly.  Regenerate only alongside an intentional "
            "behavioral change (python tests/capture_cluster_goldens.py "
            "--tokens)."
        ),
        "runs": dict(token_read_runs()),
    }


# ----------------------------------------------------------------------
# Ledger golden: PREMA/TOKEN fleets that share one cluster token ledger,
# so a device's refusals depend on rows held by the other devices
# ----------------------------------------------------------------------
#: (case name, routing).  Each runs with churn off and on.
LEDGER_CASES: Tuple[Tuple[str, RoutingPolicy], ...] = (
    ("migration", RoutingPolicy.PREEMPTIVE_MIGRATION),
    ("stealing", RoutingPolicy.WORK_STEALING),
    ("online", RoutingPolicy.ONLINE_PREDICTED),
)
#: Tasks in the serving-shaped case (admission, batching, sharding).
LEDGER_SERVING_TASKS = 400


def ledger_runs() -> Iterator[Tuple[str, object]]:
    """PREMA and TOKEN on a bursty 4-device fleet at 1.2x load with the
    cluster token ledger on (``global_tokens=True``), under preemptive
    migration, work stealing and online prediction, with and without
    churn (fail-stop faults, revocations, drains), plus one
    serving-shaped run (admission, batching with 2-stage sharding,
    preemptive migration, revocations and drains).

    Each run is pinned like :func:`token_read_runs`: a digest of the
    full record, tokens and waits included, compared exactly.
    """
    for case_index, (case, routing) in enumerate(LEDGER_CASES):
        for churn_on in (False, True):
            for mode_index, (mode, mechanism) in enumerate(
                TOKEN_MODE_MECHANISMS
            ):
                seed = 100 + (2 * case_index + churn_on) * len(
                    TOKEN_MODE_MECHANISMS
                ) + mode_index
                for policy_name in TOKEN_POLICIES:
                    tasks = _token_trace(seed, TOKEN_NUM_TASKS, TOKEN_LOAD)
                    horizon = tasks[-1].spec.arrival_cycles
                    config = ClusterConfig(
                        policy_name=policy_name,
                        routing=routing,
                        seed=seed,
                        global_tokens=True,
                        churn=_token_churn(seed, horizon) if churn_on else None,
                    )
                    scheduler = ClusterScheduler(
                        TOKEN_DEVICES,
                        SimulationConfig(
                            npu=NPUConfig(),
                            mode=PreemptionMode(mode),
                            mechanism=mechanism,
                        ),
                        config=config,
                    )
                    suffix = "+churn" if churn_on else ""
                    yield (
                        f"ledger/{case}{suffix}/{policy_name}/{mode}/"
                        f"{mechanism}",
                        _digest_run(scheduler, tasks),
                    )
    seed = 150
    tasks = _token_trace(seed, LEDGER_SERVING_TASKS, 1.5)
    horizon = tasks[-1].spec.arrival_cycles
    config = ClusterConfig(
        policy_name="PREMA",
        routing=RoutingPolicy.PREEMPTIVE_MIGRATION,
        seed=seed,
        global_tokens=True,
        admission=AdmissionController(feedback=PredictionFeedback()),
        batching=BatchConfig(
            window_cycles=0.5e6,
            max_batch=8,
            marginal_fraction=0.6,
            shard_stages=2,
            min_shard_cycles=4e6,
        ),
        churn=_token_churn(seed, horizon, faults=False),
    )
    scheduler = ClusterScheduler(
        TOKEN_DEVICES,
        SimulationConfig(
            npu=NPUConfig(),
            mode=PreemptionMode("dynamic"),
            mechanism="CHECKPOINT",
        ),
        config=config,
    )
    yield "ledger/serving/PREMA/dynamic/CHECKPOINT", _digest_run(
        scheduler, tasks
    )


def capture_ledger() -> Dict[str, object]:
    return {
        "format": 1,
        "note": (
            "Ledger golden (PREMA/TOKEN fleets sharing the cluster token "
            "ledger, churn on and off, plus a serving-shaped run): a "
            "digest of every _encode_cluster_v2 field, tokens and waits "
            "included, compared exactly.  Regenerate only alongside an "
            "intentional behavioral change (python "
            "tests/capture_cluster_goldens.py --ledger)."
        ),
        "runs": dict(ledger_runs()),
    }


def capture_cluster(factory: TaskFactory = None) -> Dict[str, object]:
    """Run the cluster sweep and return the golden payload."""
    if factory is None:
        factory = TaskFactory(NPUConfig())
    runs: Dict[str, object] = {}
    for key, record in cluster_suite_runs(factory):
        runs[key] = record
    return {
        "format": 1,
        "note": (
            "Cluster-routing golden suite (all routings, 2/4/8 devices); "
            "regenerate only alongside an intentional behavioral change "
            "(python tests/capture_cluster_goldens.py)."
        ),
        "runs": runs,
    }


def write_cluster_goldens(
    payload: Dict[str, object], path: pathlib.Path = CLUSTER_GOLDEN_PATH
) -> pathlib.Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    with gzip.GzipFile(path, "wb", mtime=0) as handle:
        handle.write(text.encode())
    return path


def load_cluster_goldens(
    path: pathlib.Path = CLUSTER_GOLDEN_PATH,
) -> Dict[str, object]:
    with gzip.open(path, "rt") as handle:
        return json.load(handle)


def capture(factory: TaskFactory = None) -> Dict[str, object]:
    """Run the whole sweep and return the golden payload."""
    if factory is None:
        factory = TaskFactory(NPUConfig())
    runs: Dict[str, object] = {}
    for key, record in single_npu_runs(factory):
        runs[key] = record
    for key, record in cluster_runs(factory):
        runs[key] = record
    return {
        "format": 1,
        "note": (
            "Captured from the pre-optimization scheduler; regenerate only "
            "alongside an intentional behavioral change "
            "(python tests/capture_hotpath_goldens.py)."
        ),
        "runs": runs,
    }


def write_goldens(payload: Dict[str, object]) -> pathlib.Path:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    # mtime=0 keeps regeneration byte-reproducible.
    with gzip.GzipFile(GOLDEN_PATH, "wb", mtime=0) as handle:
        handle.write(text.encode())
    return GOLDEN_PATH


def load_goldens() -> Dict[str, object]:
    with gzip.open(GOLDEN_PATH, "rt") as handle:
        return json.load(handle)
