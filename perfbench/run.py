"""Benchmark of the PREMA reproduction: host speed and scheduling quality.

Run from the repository root::

    python3 perfbench/run.py --workload paper_fig13 --seed 1 --seconds 30 --trace 0

A run cycles through the workload's instances (``workloads.py``) for
``--seconds`` seconds, in whole cycles.  ``--trace 0`` reports the
end-to-end metrics listed in ``BENCHMARK.json``: host medians over the
repetitions, and simulated quality metrics, which depend only on the
seed.  ``--trace 1`` then simulates the first instance once more with
every layer boundary wrapped (``layers.py``) and reports the per-layer
metrics instead.  Every repetition's output is checked; the last line of
standard output is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import gc
import heapq
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Host times are rescaled to one reference host speed.  Around every
#: timed phase the run times a fixed pure-Python loop (heap and dict
#: churn, like the simulator's event loop); a phase's seconds are
#: multiplied by REFERENCE_CALIBRATION_S / (that loop's seconds).  On
#: the 2-core Intel Xeon (2.0 GHz) host the benchmark was built on,
#: CPU speed swings 1.0-1.8x over minutes, which moved raw times by
#: 18-31% (IQR / median) between runs; rescaled, by 2-3%.  The constant
#: is the loop's time on that host at its fastest, so rescaled seconds
#: read as seconds on that host.  Raw seconds are printed too.
CALIBRATION_ITERATIONS = 60_000
REFERENCE_CALIBRATION_S = 0.031

#: The paper's headline improvements of Dynamic-PREMA over NP-FCFS
#: (abstract): ANTT 7.8x, STP 1.4x, SLA satisfaction 4.8x.
PAPER_REFERENCE = {"antt": 7.8, "stp": 1.4, "sla_violation_rate": 4.8}

#: HotPathProfiler sections reported as ``cluster.<section>_s``.
PROFILER_SECTIONS = ("route", "steal", "migrate", "admission", "index", "churn")


@dataclasses.dataclass
class Rep:
    """One repetition's timings and simulated sample.  The simulated tasks
    are dropped, so memory does not grow with the repetition count.

    ``setup_s``, ``wall_s`` and ``cpu_s`` are rescaled to the reference
    host speed; the ``raw_`` fields are the wall clock as read.
    """

    instance: int
    setup_s: float
    wall_s: float
    cpu_s: float
    raw_setup_s: float
    raw_wall_s: float
    offered: int
    sample: object
    baseline: object
    problems: List[str]


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def load_average() -> str:
    try:
        return " ".join(f"{value:.2f}" for value in os.getloadavg())
    except OSError:
        return "n/a"


def check_outcome(outcome) -> List[str]:
    """Invariants every simulation must satisfy; returns the violations."""
    problems = []
    for ids, done, rejected, lost in zip(
        outcome.offered_ids, outcome.completed, outcome.rejected, outcome.lost
    ):
        returned = collections.Counter(
            task.task_id for task in done + rejected + lost
        )
        if returned != collections.Counter(ids):
            problems.append(
                "offered tasks != completed + rejected + lost "
                f"({len(ids)} offered, {sum(returned.values())} returned)"
            )
        for task in done:
            if not (
                task.spec.arrival_cycles
                <= task.first_dispatch_time
                <= task.completion_time
            ):
                problems.append(
                    f"task {task.task_id}: not arrival <= first dispatch "
                    "<= completion"
                )
    for timeline in outcome.timelines:
        try:
            timeline.verify_no_overlap()
        except AssertionError as error:
            problems.append(f"device timeline: {error}")
    for record in outcome.transfers:
        if record.end_cycles < record.start_cycles:
            problems.append(f"transfer ends before it starts: {record}")
    return problems


def calibrate() -> float:
    """Seconds the fixed calibration loop takes at the host's speed now."""
    heap: list = []
    table: Dict[int, int] = {}
    start = time.perf_counter()
    for index in range(CALIBRATION_ITERATIONS):
        heapq.heappush(heap, (index % 97, index))
        table[index % 193] = index
        if index % 2:
            heapq.heappop(heap)
    return time.perf_counter() - start


def run_rep(workload, instance: int, seed: int, profiler=None) -> Rep:
    gc.collect()
    before_setup = calibrate()
    start = time.perf_counter()
    state = workload.setup(seed, profiler)
    setup_s = time.perf_counter() - start
    gc.collect()
    before_run = calibrate()
    start, cpu_start = time.perf_counter(), time.process_time()
    result = workload.simulate(state)
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    after_run = calibrate()
    setup_scale = 2 * REFERENCE_CALIBRATION_S / (before_setup + before_run)
    run_scale = 2 * REFERENCE_CALIBRATION_S / (before_run + after_run)
    outcome = workload.outcome(state, result)
    return Rep(
        instance=instance,
        setup_s=setup_s * setup_scale,
        wall_s=wall_s * run_scale,
        cpu_s=cpu_s * run_scale,
        raw_setup_s=setup_s,
        raw_wall_s=wall_s,
        offered=outcome.offered,
        sample=outcome.sample,
        baseline=outcome.baseline,
        problems=check_outcome(outcome),
    )


def run_cycles(workload, seed: int, seconds: float):
    """Whole cycles over the instances until ``seconds`` would be exceeded.

    Returns the repetitions, each instance's first repetition, and the
    number of repetitions that raised.
    """
    instance_seeds = workload.instance_seeds(seed)
    reps: List[Rep] = []
    first: Dict[int, Rep] = {}
    started = time.perf_counter()
    while True:
        for instance, instance_seed in enumerate(instance_seeds):
            try:
                rep = run_rep(workload, instance, instance_seed)
            except Exception:
                traceback.print_exc()
                return reps, first, 1
            earlier = first.setdefault(instance, rep)
            if rep.sample != earlier.sample or rep.baseline != earlier.baseline:
                rep.problems.append(
                    f"instance {instance}: simulated results differ between "
                    "repetitions"
                )
            reps.append(rep)
        elapsed = time.perf_counter() - started
        cycles = len(reps) // len(instance_seeds)
        if elapsed * (cycles + 1) / cycles > seconds:
            return reps, first, 0


def traced_metrics(workload, seed: int, reps: List[Rep]):
    """The first instance once more, with every layer boundary wrapped."""
    import layers
    import workloads
    from repro.obs.profile import HotPathProfiler

    profiler = HotPathProfiler()
    tracer = layers.SpanTracer()
    layers.install(tracer)
    try:
        rep = run_rep(workload, 0, workload.instance_seeds(seed)[0], profiler)
    finally:
        tracer.uninstall()
    untraced = [r for r in reps if r.instance == 0]
    problems = list(rep.problems)
    if rep.sample != untraced[0].sample or rep.baseline != untraced[0].baseline:
        problems.append("traced simulated results differ from untraced")
    values = tracer.metrics()
    values.update(workloads.pooled_model([rep.sample]))
    for section in PROFILER_SECTIONS:
        values[f"cluster.{section}_s"] = profiler.nanos.get(section, 0) / 1e9
    # Covered wall: outermost spans, over the traced set-up + simulation.
    values["trace.coverage"] = (
        tracer.top_ns / 1e9 / (rep.raw_setup_s + rep.raw_wall_s)
    )
    values["trace.overhead_ratio"] = (rep.setup_s + rep.wall_s) / (
        statistics.median(r.setup_s + r.wall_s for r in untraced)
    )
    return values, problems


def select(spec_metrics: List[dict], values: Dict[str, float]) -> dict:
    """Metrics in BENCHMARK.json order, each with its declared unit."""
    names = [metric["name"] for metric in spec_metrics]
    missing = [name for name in names if name not in values]
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise RuntimeError(
            f"metrics out of sync with BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}"
        )
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in spec_metrics
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"known: {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload]
    print(
        f"host: nproc={os.cpu_count()} cpu={cpu_model()!r} "
        f"python={platform.python_version()} loadavg_before={load_average()}"
    )

    reps, first, failed = run_cycles(workload, args.seed, args.seconds)
    if len(first) < workload.INSTANCES:
        print("perfbench: not every instance completed", file=sys.stderr)
        return 1
    attempted = len(reps) + failed
    problems = [problem for rep in reps for problem in rep.problems]
    failed += sum(1 for rep in reps if rep.problems)
    samples = [first[k].sample for k in range(workload.INSTANCES)]
    quality, ntt_samples, tail_samples = workloads.pooled_quality(samples)
    if args.trace:
        values, traced_problems = traced_metrics(workload, args.seed, reps)
        attempted += 1
        failed += bool(traced_problems)
        problems += traced_problems
        metrics = spec["per_layer"]
    else:
        # Throughput and CPU time per whole cycle, so every figure covers
        # all instances alike; the median over cycles.
        cycles = [
            reps[start : start + workload.INSTANCES]
            for start in range(0, len(reps), workload.INSTANCES)
        ]
        values = {
            "tasks_per_s": statistics.median(
                sum(r.offered for r in cycle) / sum(r.wall_s for r in cycle)
                for cycle in cycles
            ),
            "cpu_s": statistics.median(
                statistics.fmean(r.cpu_s for r in cycle) for cycle in cycles
            ),
            "setup_s": statistics.median(r.setup_s for r in reps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024,
            **quality,
        }
        metrics = spec["end_to_end"]

    print(
        f"workload={workload.name} seed={args.seed} "
        f"instances={workload.INSTANCES} repetitions={len(reps)} "
        f"offered_per_rep={reps[0].offered}"
    )
    print("wall_s per rep: " + " ".join(f"{r.wall_s:.3f}" for r in reps))
    print("raw wall_s per rep: " + " ".join(f"{r.raw_wall_s:.3f}" for r in reps))
    print("setup_s per rep: " + " ".join(f"{r.setup_s:.3f}" for r in reps))
    print(
        "raw tasks_per_s: "
        f"{sum(r.offered for r in reps) / sum(r.raw_wall_s for r in reps):.6g}"
    )
    print(f"ntt samples: {ntt_samples} completed tasks, {tail_samples} beyond p95")
    if first[0].baseline is not None:
        baseline, _, _ = workloads.pooled_quality(
            [first[k].baseline for k in range(workload.INSTANCES)]
        )
        ratios = {
            "antt": baseline["antt"] / quality["antt"],
            "stp": quality["stp"] / baseline["stp"],
            "sla_violation_rate": baseline["sla_violation_rate"]
            / quality["sla_violation_rate"],
        }
        print(
            "reference (not gated; the NPU model is checked against the "
            "paper's figures, not against hardware): Dynamic-PREMA vs "
            "NP-FCFS "
            + ", ".join(
                f"{name} {ratios[name]:.2f}x (paper {paper}x)"
                for name, paper in PAPER_REFERENCE.items()
            )
        )
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    result = select(metrics, values)
    for name, metric in result.items():
        print(f"  {name:44s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"loadavg_after={load_average()}")
    print(
        json.dumps(
            {
                "correct": not problems and not failed,
                "attempted": attempted,
                "failed": failed,
                "metrics": result,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
