"""Ledger ticks on demand: token devices sharing a cluster ledger tick
only where a decision can change, and their schedules are the eager ones.

Token decisions read the :class:`~repro.core.tokens.ClusterTokenLedger`
only through the bucket of its maximum, so a refusal is time-stable on a
ledger device too; the cluster loop re-arms settled devices when that
bucket moves (:meth:`DeviceSim.ledger_moved`).  Three properties:

1. *Eager equivalence*: a fleet whose every device ticks at every grid
   point reproduces the lazy run in every ``_encode_cluster_v2`` field,
   tokens and waits included, with strictly more PERIOD events.
2. *Tie rule*: a bucket move made by one device's tick at grid point g
   re-arms a settled device at g when its own tick at g sorts after the
   mover's (higher device index), else at g + period -- where the eager
   clock would have re-read the ledger.
3. *No move, no tick*: a settled ledger device queues nothing while the
   bucket holds.
"""

import pytest

import helpers_golden
from repro.core.tokens import ClusterTokenLedger, Priority
from repro.npu.config import NPUConfig
from repro.sched.cluster import ClusterConfig, ClusterScheduler, RoutingPolicy
from repro.sched.faults import ChurnSchedule
from repro.sched.policies import make_policy
from repro.sched.simulator import (
    _PERIOD,
    DeviceSim,
    PreemptionMode,
    SimulationConfig,
)
from repro.workloads.specs import TaskSpec
from repro.workloads.trace import synthetic_runtime, synthetic_trace_runtimes

PERIOD = SimulationConfig(npu=NPUConfig()).scheduler.period_cycles


def _fleet_run(policy, routing, mode, churn_on, eager, monkeypatch):
    """One 4-device ledger run; ``eager`` keeps every device's ticks live
    (the polled clock, never switched off)."""
    if eager:
        original_init = DeviceSim.__init__
        original_poll = DeviceSim.poll_ticks

        def init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            self._period_polled = True

        def poll_ticks(self, on, now, passed_now):
            original_poll(self, True, now, passed_now)

        monkeypatch.setattr(DeviceSim, "__init__", init)
        monkeypatch.setattr(DeviceSim, "poll_ticks", poll_ticks)
    tasks = synthetic_trace_runtimes(
        150,
        seed=7,
        mean_interarrival_cycles=1.5e-3 * 700e6 / (4 * 1.3),
        bursty=True,
        qos_mix={"interactive": 0.3, "standard": 0.4, "batch": 0.3},
    )
    horizon = tasks[-1].spec.arrival_cycles
    churn = None
    if churn_on:
        churn = ChurnSchedule.generate(
            4,
            horizon_cycles=horizon,
            seed=7,
            revocation_rate=1.0 / horizon,
            drain_rate=0.5 / horizon,
            mean_outage_cycles=horizon / 8,
            mean_warning_cycles=2e6,
        )
    scheduler = ClusterScheduler(
        4,
        SimulationConfig(
            npu=NPUConfig(), mode=PreemptionMode(mode), mechanism="CHECKPOINT"
        ),
        config=ClusterConfig(
            policy_name=policy,
            routing=routing,
            seed=7,
            global_tokens=True,
            churn=churn,
        ),
    )
    result = scheduler.run(tasks)
    monkeypatch.undo()
    return result


@pytest.mark.parametrize(
    "policy,routing,mode,churn_on",
    [
        ("PREMA", RoutingPolicy.PREEMPTIVE_MIGRATION, "dynamic", True),
        ("PREMA", RoutingPolicy.ONLINE_PREDICTED, "static", False),
        ("TOKEN", RoutingPolicy.WORK_STEALING, "dynamic", True),
        ("TOKEN", RoutingPolicy.PREEMPTIVE_MIGRATION, "static", False),
    ],
)
def test_eager_ledger_ticks_change_no_schedule(
    monkeypatch, policy, routing, mode, churn_on
):
    lazy = _fleet_run(policy, routing, mode, churn_on, False, monkeypatch)
    eager = _fleet_run(policy, routing, mode, churn_on, True, monkeypatch)
    assert helpers_golden._encode_cluster_v2(
        lazy
    ) == helpers_golden._encode_cluster_v2(eager)
    assert lazy.events_by_kind["PERIOD"] < eager.events_by_kind["PERIOD"]


def _task(task_id, arrival, cycles, priority):
    spec = TaskSpec(
        task_id=task_id, benchmark=f"syn{task_id}", batch=1,
        priority=priority, arrival_cycles=arrival,
    )
    return synthetic_runtime(spec, cycles)


def _pair_run(settled_index, eager=False, until=10 * PERIOD):
    """Two PREMA devices sharing a ledger, driven like the cluster loop.

    The settled device S runs a HIGH task R and holds a MEDIUM row W
    that crosses 3 at its first tick and then refuses for hundreds of
    periods (its estimate is huge).  The crossing device C runs a HIGH
    task and admits a HIGH row X at 4.5 periods; X clears 9 at C's tick
    at g = 5 periods, moving the ledger bucket 2 -> 3 and pushing R
    (9 tokens) out of S's candidate group.  Returns S's PERIOD tick
    times, S's preemption times, and g.
    """
    ledger = ClusterTokenLedger()
    config = SimulationConfig(
        npu=NPUConfig(), mode=PreemptionMode.STATIC, mechanism="CHECKPOINT"
    )
    devices = [
        DeviceSim(config, make_policy("PREMA", ledger=ledger), device_id=index)
        for index in range(2)
    ]
    settled, crossing = devices[settled_index], devices[1 - settled_index]
    if eager:
        settled.poll_ticks(True, 0.0, False)
    settled.inject(_task(0, 0.0, 1000 * PERIOD, Priority.HIGH))
    settled.inject(_task(1, 0.5 * PERIOD, 10_000 * PERIOD, Priority.MEDIUM))
    crossing.inject(_task(2, 0.0, 1000 * PERIOD, Priority.HIGH))
    crossing.inject(_task(3, 4.5 * PERIOD, 2000 * PERIOD, Priority.HIGH))
    bucket = 0
    ticks, preemptions, moved_at = [], [], None
    while True:
        keyed = [
            (device.next_event_key(), index)
            for index, device in enumerate(devices)
            if device.next_event_key() is not None
        ]
        key, index = min(keyed)
        if key[0] > until:
            break
        device = devices[index]
        before = device._preemption_count
        now = device.step()
        if device is settled:
            if device.last_event_kind is _PERIOD:
                ticks.append(now)
            if device._preemption_count > before:
                preemptions.append(now)
        moved = ClusterScheduler._ledger_wake(
            devices, ledger, bucket, now, (now, key[1], index)
        )
        if moved == 3 and moved_at is None:
            moved_at = (now, device is crossing)
        bucket = moved
    assert moved_at is not None and moved_at[1], "C's crossing moved no bucket"
    return ticks, preemptions, moved_at[0]


@pytest.mark.parametrize("settled_index", [0, 1])
def test_bucket_move_re_arms_a_settled_device_by_the_tie_rule(settled_index):
    ticks, preemptions, g = _pair_run(settled_index)
    assert g == 5 * PERIOD
    # Device 0's tick at g fires before device 1's: it saw the old
    # bucket, so the re-check is one period later.  Device 1's tick at
    # g fires after device 0's crossing, so it re-checks at g itself.
    expected = g + PERIOD if settled_index == 0 else g
    assert [t for t in ticks if t >= g][0] == expected
    # Settled between the refusal after W's crossing and the move.
    assert not [t for t in ticks if 2 * PERIOD < t < g]
    # The re-check is where R falls out of the candidate group, exactly
    # when the eager clock preempts it.
    assert preemptions and preemptions[0] == expected
    _, eager_preemptions, _ = _pair_run(settled_index, eager=True)
    assert eager_preemptions[0] == preemptions[0]


def test_settled_ledger_device_queues_no_tick_while_the_bucket_holds():
    """Without C's crossing the bucket never leaves 2: once S settles it
    fires nothing until W's re-check point hundreds of periods out."""
    ledger = ClusterTokenLedger()
    config = SimulationConfig(
        npu=NPUConfig(), mode=PreemptionMode.STATIC, mechanism="CHECKPOINT"
    )
    settled = DeviceSim(config, make_policy("PREMA", ledger=ledger))
    settled.inject(_task(0, 0.0, 1000 * PERIOD, Priority.HIGH))
    settled.inject(_task(1, 0.5 * PERIOD, 10_000 * PERIOD, Priority.MEDIUM))
    bucket = 0
    ticks = []
    while settled.next_event_time() <= 100 * PERIOD:
        key = settled.next_event_key()
        now = settled.step()
        if settled.last_event_kind is _PERIOD:
            ticks.append(now)
        bucket = ClusterScheduler._ledger_wake(
            [settled], ledger, bucket, now, (now, key[1], 0)
        )
    assert bucket == 2
    # W's crossing of 3 at P moves the bucket 1 -> 2, so the refusal
    # there is re-checked once at 2P; nothing is queued after that
    # until W's far re-check point.
    assert ticks == [PERIOD, 2 * PERIOD]
    assert settled._wake_settled
    assert settled.next_event_time() > 100 * PERIOD
