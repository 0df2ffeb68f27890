"""Golden equivalence of the cluster routing layer.

``tests/data/golden_cluster.json.gz`` pins every routing policy --
checkpoint migration included -- on 2/4/8-device clusters with rotating
device schedulers, the same guarantee PR 2's hot-path goldens give the
single-device path: future cluster refactors must reproduce these runs.

- behavioral fields (completion/first-dispatch times, timeline digests,
  preemption counters, placements, migrations with their payload bytes
  and delivery times, interconnect transfer digests, per-task migration
  counters) compare **bit-for-bit**;
- accounting fields (waited cycles, tokens) compare to 1e-9 relative
  tolerance -- lazy settlement legally re-associates the same IEEE-754
  sums (see helpers_golden).

The infinite-bandwidth test is the acceptance anchor: with a zero-cost
link and migration disabled (its knobs forced to inert values), every
*pre-existing* routing policy reproduces the goldens bit-for-bit --
interconnect modeling and the cluster token ledger cannot perturb runs
that never use them.
"""

import math

import pytest

import helpers_golden
from repro.sched.cluster import RoutingPolicy
from repro.sched.interconnect import InterconnectConfig


@pytest.fixture(scope="module")
def goldens():
    assert helpers_golden.CLUSTER_GOLDEN_PATH.exists(), (
        "cluster golden file missing; regenerate via: "
        "python tests/capture_cluster_goldens.py"
    )
    return helpers_golden.load_cluster_goldens()["runs"]


def _assert_tasks_match(key, expected_tasks, actual_tasks):
    assert actual_tasks.keys() == expected_tasks.keys(), key
    for task_id, expected in expected_tasks.items():
        actual = actual_tasks[task_id]
        for field, value in expected.items():
            got = actual[field]
            if field in helpers_golden.TOLERANT_TASK_FIELDS:
                reference = float.fromhex(value)
                measured = float.fromhex(got)
                assert math.isclose(
                    measured,
                    reference,
                    rel_tol=helpers_golden.RELATIVE_TOLERANCE,
                    abs_tol=1e-6,
                ), f"{key}: task {task_id} {field}: {measured} != {reference}"
            else:
                assert got == value, (
                    f"{key}: task {task_id} {field}: {got} != {value}"
                )


def _assert_device_match(key, expected, actual):
    for field in ("makespan", "preemption_count", "drain_decisions",
                  "timeline"):
        assert actual[field] == expected[field], (
            f"{key}: {field}: {actual[field]} != {expected[field]}"
        )
    _assert_tasks_match(key, expected["tasks"], actual["tasks"])


def _assert_cluster_match(key, expected, actual):
    assert actual["assignments"] == expected["assignments"], key
    assert actual["migrations"] == expected["migrations"], key
    assert actual["transfers"] == expected["transfers"], key
    assert actual["makespan"] == expected["makespan"], key
    _assert_tasks_match(key, expected["tasks"], actual["tasks"])
    assert len(actual["devices"]) == len(expected["devices"]), key
    for index, expected_device in enumerate(expected["devices"]):
        actual_device = actual["devices"][index]
        if expected_device is None:
            assert actual_device is None, f"{key}: device {index}"
        else:
            _assert_device_match(
                f"{key}/device{index}", expected_device, actual_device
            )


def test_cluster_sweep_matches_goldens(goldens, factory):
    seen = 0
    for key, actual in helpers_golden.cluster_suite_runs(factory):
        assert key in goldens, f"golden missing for {key}"
        _assert_cluster_match(key, goldens[key], actual)
        seen += 1
    assert seen == len(goldens)


def test_sweep_covers_every_dimension(goldens):
    """The sweep spans every routing, device count, policy, and mode."""
    routings, device_counts, policies, modes, mechanisms = (
        set(), set(), set(), set(), set()
    )
    for key in goldens:
        _, _, devices, routing, policy, mode, mechanism = key.split("/")
        device_counts.add(devices)
        routings.add(routing)
        policies.add(policy)
        modes.add(mode)
        mechanisms.add(mechanism)
    assert routings == {r.value for r in RoutingPolicy}
    assert device_counts == {
        f"{n}dev" for n in helpers_golden.CLUSTER_SUITE_DEVICE_COUNTS
    }
    assert policies == set(helpers_golden.POLICY_NAMES)
    assert modes == {"np", "static", "dynamic"}
    assert mechanisms == {"CHECKPOINT", "KILL"}


def test_legacy_routings_immune_to_migration_knobs(goldens, factory):
    """Pre-existing routings reproduce the goldens bit-for-bit even with
    an infinite-bandwidth link configured and the ledger forced off:
    the migration machinery is provably inert off its own routing."""
    legacy = tuple(
        r for r in RoutingPolicy if r is not RoutingPolicy.PREEMPTIVE_MIGRATION
    )
    seen = 0
    for key, actual in helpers_golden.cluster_suite_runs(
        factory,
        interconnect=InterconnectConfig.infinite(),
        global_tokens=False,
        routings=legacy,
        device_counts=(2, 4),
        num_workloads=3,
    ):
        assert key in goldens, f"golden missing for {key}"
        _assert_cluster_match(key, goldens[key], actual)
        seen += 1
    assert seen == 3 * 2 * len(legacy)


def test_feature_combination_matches_golden():
    """Preemptive migration, proactive churn (revocations and drains),
    admission and 2-stage sharded batching on one 4-device fleet: the
    combination where every consumer of the device clock meets."""
    path = helpers_golden.COMBO_GOLDEN_PATH
    assert path.exists(), (
        "combination golden missing; regenerate via: "
        "python tests/capture_cluster_goldens.py --combo"
    )
    goldens = helpers_golden.load_cluster_goldens(path)["runs"]
    seen = 0
    for key, actual in helpers_golden.combo_runs():
        expected = goldens[key]
        _assert_cluster_match(key, expected, actual)
        for field in ("rejected", "lost", "admission"):
            assert actual[field] == expected[field], f"{key}: {field}"
        assert actual["migrations"], f"{key}: no migrations exercised"
        seen += 1
    assert seen == len(goldens) == len(helpers_golden.COMBO_CASES)


def test_token_reads_match_golden():
    """PREMA/TOKEN fleets whose migrations and evacuations rank rows by
    their exact token counts, with failures settling orphans: every
    field, tokens and waits included, must match bit for bit."""
    path = helpers_golden.TOKEN_GOLDEN_PATH
    assert path.exists(), (
        "token-read golden missing; regenerate via: "
        "python tests/capture_cluster_goldens.py --tokens"
    )
    goldens = helpers_golden.load_cluster_goldens(path)["runs"]
    seen = 0
    migrations = 0
    for key, actual in helpers_golden.token_read_runs():
        assert actual == goldens[key], key
        migrations += actual["migrations"]
        seen += 1
    assert seen == len(goldens) == (
        len(helpers_golden.TOKEN_POLICIES)
        * len(helpers_golden.TOKEN_CASES)
        * len(helpers_golden.TOKEN_MODE_MECHANISMS)
    )
    assert migrations > 0
