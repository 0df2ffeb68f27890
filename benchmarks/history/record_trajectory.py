"""Measure a change against its parent and append a trajectory row.

Runs ``perfbench/run.py`` in alternating parent/change pairs (the parent
first in even pairs, the change first in odd ones) for each workload and
appends one row of medians to ``BENCH_trajectory.jsonl``::

    python3 benchmarks/history/record_trajectory.py --parent HEAD~1 \\
        --change "what the change does" --pairs 10 --seconds 30

The parent is the given git revision, exported with ``git archive`` into
a temporary directory; the change is this checkout's working tree.  Each
side runs its own ``perfbench/`` from its own tree.  A row records, per
workload, the parent and change medians of ``tasks_per_s``, ``cpu_s``,
``setup_s`` and ``peak_rss_mb`` with their quartiles and, per metric, in
how many pairs the change was the better side.  A run that reports ``correct: false`` or a
failed operation stops the measurement; nothing is appended.
"""

from __future__ import annotations

import argparse
import ast
import datetime
import json
import pathlib
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[2]
TRAJECTORY = ROOT / "benchmarks" / "history" / "BENCH_trajectory.jsonl"
COMMAND = (
    "python3 perfbench/run.py --workload {workload} --seed {seed} "
    "--seconds {seconds} --trace 0"
)
#: Recorded metrics and whether a larger value is better.
METRICS = {
    "tasks_per_s": True,
    "cpu_s": False,
    "setup_s": False,
    "peak_rss_mb": False,
}
HOST_LINE = re.compile(r"host: nproc=(\d+) cpu=('.*'|\".*\") python=(\S+)")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="one-line description of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument(
        "--workload",
        action="append",
        help="workload to measure (repeatable; default: every BENCHMARK.json workload)",
    )
    parser.add_argument(
        "--dry-run", action="store_true", help="print the row instead of appending it"
    )
    args = parser.parse_args(argv)
    if args.pairs <= 0:
        parser.error("--pairs must be positive")
    return args


def export_revision(revision: str, into: pathlib.Path) -> str:
    """Write ``revision``'s tree under ``into``; return its full hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{revision}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = into / "parent.tar"
    subprocess.run(
        ["git", "archive", "--format=tar", f"--output={archive}", commit],
        cwd=ROOT, check=True,
    )
    with tarfile.open(archive) as tar:
        tar.extractall(into / "tree")
    archive.unlink()
    return commit


def run_once(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its final JSON line plus the host it printed."""
    command = COMMAND.format(workload=workload, seed=seed, seconds=f"{seconds:g}")
    done = subprocess.run(
        command.split(), cwd=tree, capture_output=True, text=True
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{command} in {tree} failed:\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{command} in {tree} reported {lines[-1]}")
    host = HOST_LINE.search(done.stdout)
    if host is None:
        raise RuntimeError(f"{command} in {tree} printed no host line")
    result["host"] = {
        "nproc": int(host.group(1)),
        "cpu": ast.literal_eval(host.group(2)),
        "python": host.group(3),
    }
    return result


def measure(
    parent: pathlib.Path, change: pathlib.Path, workload: str, args
) -> Tuple[Dict[str, object], dict]:
    """Alternating pairs for one workload: its row and the host it ran on."""
    values: Dict[str, Dict[str, List[float]]] = {
        metric: {"parent": [], "change": []} for metric in METRICS
    }
    host = None
    for pair in range(args.pairs):
        sides = [("parent", parent), ("change", change)]
        if pair % 2:
            sides.reverse()
        for side, tree in sides:
            result = run_once(tree, workload, args.seed, args.seconds)
            host = result["host"]
            for metric in METRICS:
                values[metric][side].append(result["metrics"][metric]["value"])
        print(
            f"{workload} pair {pair + 1}/{args.pairs}: "
            + " ".join(
                f"{metric} {values[metric]['parent'][-1]:.4g}->"
                f"{values[metric]['change'][-1]:.4g}"
                for metric in METRICS
            ),
            file=sys.stderr,
        )
    row: Dict[str, object] = {"pairs": args.pairs}
    better_pairs = {}
    for metric, higher_is_better in METRICS.items():
        parent_values = values[metric]["parent"]
        change_values = values[metric]["change"]
        row[metric] = {
            "parent": round_to(statistics.median(parent_values)),
            "change": round_to(statistics.median(change_values)),
            "parent_quartiles": quartiles(parent_values),
            "change_quartiles": quartiles(change_values),
        }
        better_pairs[metric] = sum(
            (c > p) if higher_is_better else (c < p)
            for p, c in zip(parent_values, change_values)
        )
    row["better_pairs"] = better_pairs
    return row, host


def quartiles(values: List[float]) -> List[float]:
    """[first, third] quartile (a single run is its own quartiles)."""
    if len(values) < 2:
        return [round_to(values[0])] * 2
    first, _, third = statistics.quantiles(values, n=4)
    return [round_to(first), round_to(third)]


def round_to(value: float, digits: int = 5) -> float:
    """``value`` to ``digits`` significant digits."""
    return float(f"{value:.{digits}g}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [workload["name"] for workload in spec["workloads"]]
    with tempfile.TemporaryDirectory() as scratch:
        scratch_path = pathlib.Path(scratch)
        parent_commit = export_revision(args.parent, scratch_path)
        measured = {}
        for workload in workloads:
            measured[workload], host = measure(scratch_path / "tree", ROOT, workload, args)
    row = {
        "date": datetime.date.today().isoformat(),
        "commit": {"parent": parent_commit, "change": args.change},
        "host": host,
        "bench": {
            "command": COMMAND.format(
                workload="<name>", seed=args.seed, seconds=f"{args.seconds:g}"
            ),
            "pairs_order": "alternating parent/change first",
            "times": "rescaled host seconds",
        },
        "workloads": measured,
    }
    line = json.dumps(row)
    if args.dry_run:
        print(line)
    else:
        with TRAJECTORY.open("a") as out:
            out.write(line + "\n")
        print(f"appended to {TRAJECTORY.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
