"""The committed performance trajectory stays machine-readable.

``benchmarks/history/BENCH_trajectory.jsonl`` holds one JSON object per
measured change: the commit it was measured against, the host, and for
each ``perfbench`` workload the parent and change medians of
``tasks_per_s`` and ``cpu_s`` over alternating parent/change run pairs.
Rows written by ``benchmarks/history/record_trajectory.py`` also carry
``setup_s`` and ``peak_rss_mb`` medians, each side's quartiles and, per
metric, the number of pairs the change won.
"""

import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "benchmarks" / "history" / "BENCH_trajectory.jsonl"
WORKLOADS = {
    workload["name"]
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())[
        "workloads"
    ]
}


def rows():
    lines = TRAJECTORY.read_text().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def test_trajectory_has_rows():
    assert rows()


@pytest.mark.parametrize("index", range(len(rows())))
def test_row_has_commit_host_and_medians(index):
    row = rows()[index]
    commit = row["commit"]
    assert re.fullmatch(r"[0-9a-f]{40}", commit["parent"])
    assert commit["change"].strip()
    host = row["host"]
    assert isinstance(host["nproc"], int) and host["nproc"] > 0
    assert host["cpu"].strip() and host["python"].strip()
    assert row["workloads"], "a row measures at least one workload"
    for name, measured in row["workloads"].items():
        assert name in WORKLOADS
        assert isinstance(measured["pairs"], int) and measured["pairs"] > 0
        required = ("tasks_per_s", "cpu_s")
        optional = tuple(m for m in ("setup_s", "peak_rss_mb") if m in measured)
        for metric in required + optional:
            for side in ("parent", "change"):
                value = measured[metric][side]
                assert isinstance(value, (int, float)) and value > 0, (
                    name, metric, side,
                )
                spread = measured[metric].get(f"{side}_quartiles")
                if spread is not None:
                    first, third = spread
                    assert 0 < first <= third, (name, metric, side)
        for metric, wins in measured.get("better_pairs", {}).items():
            assert metric in measured, (name, metric)
            assert isinstance(wins, int) and 0 <= wins <= measured["pairs"], (
                name, metric,
            )
