"""Prepare executable task runtimes from workload specifications.

This is the CPU-side runtime of the paper's system: for each dispatched
request it plans the model (with the *actual* data-dependent RNN unroll)
and profiles it for ground truth, and separately derives
``Time_estimated`` the way the scheduler will see it -- Algorithm 1 over
the model unrolled to the *predicted* output length from the regression
model.  An :class:`OraclePredictor` can replace the estimate with the
exact simulated time (Sec VI-D).

Both are built layer by layer from pure functions of a layer's
signature: its parameters, input shapes and the batch size.  A :class:`TaskFactory`
lowers, times and predicts each distinct signature once
(:class:`LayerCosts`) and walks :class:`~repro.models.graph.ModelPlan`
cells rather than unrolled graphs, so a new sequence length costs a walk
over already-known layers.  Whole profiles and estimates are cached too,
by (benchmark, batch, lengths).  Every cache lives in its factory.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.context import TaskContext
from repro.core.regression import SequenceLengthRegressor
from repro.isa.compiler import compile_layer
from repro.models.graph import ModelPlan, Node
from repro.models.layers import Layer
from repro.models.sequences import BENCHMARK_PROFILE, SequenceProfile
from repro.models.zoo import benchmark_plan, is_rnn
from repro.npu.config import NPUConfig
from repro.npu.engine import (
    ExecutionProfile,
    LayerTiming,
    assemble_profile,
    time_layer,
)
from repro.npu.systolic import predicted_gemm_cycles
from repro.sched.task import TaskRuntime
from repro.workloads.generator import default_profiles
from repro.workloads.specs import TaskSpec, WorkloadSpec


class LayerCost(NamedTuple):
    """What one layer signature costs on the NPU."""

    #: Ground-truth timing, named after the first node seen with it.
    timing: LayerTiming
    #: Algorithm 1's estimate per GEMM shape, in lowering order.
    predicted: Tuple[float, ...]


class LayerCosts:
    """Lowering, timing and Algorithm-1 prediction, once per layer signature.

    A signature is the layer class, every layer field but ``name``, the
    node's input shapes and the batch size: lowering reads nothing else,
    so nodes that share a signature lower, time and predict identically.
    """

    def __init__(self, config: NPUConfig) -> None:
        self.config = config
        self._costs: Dict[tuple, LayerCost] = {}
        self._fields: Dict[type, Callable[[Layer], object]] = {}

    def __len__(self) -> int:
        return len(self._costs)

    def of(self, node: Node, batch: int) -> LayerCost:
        """The cost of ``node``'s layer at ``batch``, computed on first sight."""
        layer = node.layer
        cls = type(layer)
        fields = self._fields.get(cls)
        if fields is None:
            fields = self._fields[cls] = _fields_but_name(cls)
        key = (cls, fields(layer), node.input_specs, batch)
        cost = self._costs.get(key)
        if cost is None:
            if batch <= 0:
                raise ValueError("batch must be positive")
            compiled = compile_layer(
                node, self.config, batch, materialize_stream=False
            )
            # A grouped conv repeats one shape per group: predict it once.
            shapes = compiled.gemm_shapes
            cycles = {
                shape: predicted_gemm_cycles(shape, self.config)
                for shape in set(shapes)
            }
            cost = LayerCost(
                time_layer(compiled, self.config),
                tuple(cycles[shape] for shape in shapes),
            )
            self._costs[key] = cost
        return cost


def _fields_but_name(cls: type) -> Callable[[Layer], object]:
    names = [f.name for f in dataclasses.fields(cls) if f.name != "name"]
    if not names:
        return lambda layer: None
    return operator.attrgetter(*names)


def profile_model(plan: ModelPlan, batch: int, costs: LayerCosts) -> ExecutionProfile:
    """Ground-truth profile of a planned model on an idle NPU.

    Equal to :func:`repro.npu.engine.profile_model` over the compiled,
    fully unrolled graph: the same timings under each node's name, laid
    end to end in node order.
    """
    timings: List[LayerTiming] = []
    for segment in plan.segments:
        cell = [costs.of(node, batch).timing for node in segment.cell]
        timings.extend(
            timing.renamed(name)
            for name, timing in zip(segment.node_names(), itertools.cycle(cell))
        )
    return assemble_profile(plan.name, batch, timings)


def estimate_model(plan: ModelPlan, batch: int, costs: LayerCosts) -> float:
    """Algorithm 1 over a planned model (Sec V-B, line 12).

    Sums the per-GEMM estimates in node and lowering order, as
    :meth:`repro.core.predictor.LatencyPredictor.predict_model` does over
    the compiled graph, so the float result is the same.
    """
    total = 0.0
    for segment in plan.segments:
        cell = [
            cycles
            for node in segment.cell
            for cycles in costs.of(node, batch).predicted
        ]
        for _ in range(segment.repeats):
            for cycles in cell:
                total += cycles
    return total


@dataclasses.dataclass(frozen=True)
class _ModelKey:
    benchmark: str
    batch: int
    input_len: Optional[int]
    output_len: Optional[int]


class TaskFactory:
    """Builds :class:`TaskRuntime` objects, costing each layer once."""

    def __init__(
        self,
        config: NPUConfig,
        profiles: Optional[Dict[str, SequenceProfile]] = None,
    ) -> None:
        self.config = config
        self.profiles = profiles if profiles is not None else default_profiles()
        self.regressors: Dict[str, SequenceLengthRegressor] = {
            benchmark: SequenceLengthRegressor.from_profile(self.profiles[benchmark])
            for benchmark in BENCHMARK_PROFILE
            if benchmark in self.profiles
        }
        self._layers = LayerCosts(config)
        self._profile_cache: Dict[_ModelKey, ExecutionProfile] = {}
        self._estimate_cache: Dict[_ModelKey, float] = {}

    # ------------------------------------------------------------------
    # Ground truth
    # ------------------------------------------------------------------
    def execution_profile(
        self,
        benchmark: str,
        batch: int,
        input_len: Optional[int] = None,
        output_len: Optional[int] = None,
    ) -> ExecutionProfile:
        """Ground-truth profile of one (model, batch, unroll) instance."""
        key = _ModelKey(benchmark, batch, input_len, output_len)
        cached = self._profile_cache.get(key)
        if cached is None:
            plan = self._plan(benchmark, input_len, output_len)
            cached = profile_model(plan, batch, self._layers)
            self._profile_cache[key] = cached
        return cached

    def isolated_cycles(self, spec: TaskSpec) -> float:
        """C_single for one task spec."""
        return self.execution_profile(
            spec.benchmark, spec.batch, spec.input_len, spec.actual_output_len
        ).total_cycles

    # ------------------------------------------------------------------
    # Prediction (what the scheduler sees)
    # ------------------------------------------------------------------
    def predicted_output_len(self, benchmark: str, input_len: int) -> int:
        """Regression-model output length (Sec V-B)."""
        if benchmark == "RNN-SA":
            return input_len  # linear app, Fig 8b
        regressor = self.regressors.get(benchmark)
        if regressor is None:
            raise KeyError(f"no regressor for benchmark {benchmark!r}")
        return regressor.predict(input_len)

    def estimated_cycles(self, spec: TaskSpec) -> float:
        """Time_estimated: Algorithm 1 over the *predicted* unroll."""
        if spec.is_rnn:
            assert spec.input_len is not None
            predicted_out = self.predicted_output_len(spec.benchmark, spec.input_len)
        else:
            predicted_out = None
        key = _ModelKey(spec.benchmark, spec.batch, spec.input_len, predicted_out)
        cached = self._estimate_cache.get(key)
        if cached is None:
            plan = self._plan(spec.benchmark, spec.input_len, predicted_out)
            cached = estimate_model(plan, spec.batch, self._layers)
            self._estimate_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def build_task(
        self, spec: TaskSpec, oracle: bool = False
    ) -> TaskRuntime:
        """Build the runtime for one request.

        With ``oracle=True`` the context's estimate is the exact simulated
        isolated time (the Sec VI-D oracular PREMA).
        """
        profile = self.execution_profile(
            spec.benchmark, spec.batch, spec.input_len, spec.actual_output_len
        )
        estimated = (
            profile.total_cycles if oracle else self.estimated_cycles(spec)
        )
        context = TaskContext(
            task_id=spec.task_id,
            priority=spec.priority,
            benchmark=spec.benchmark,
            estimated_cycles=estimated,
            last_update_cycles=spec.arrival_cycles,
        )
        return TaskRuntime(spec=spec, profile=profile, context=context)

    def build_job(self, spec: TaskSpec, oracle: bool = False) -> "Job":
        """Build the job for one request (the gang-of-slices surface).

        ``spec.stages == 1`` yields a single-slice job that wraps the
        task runtime without copying -- the legacy-equivalent path.  For
        ``stages > 1`` the compiled model's profile is cut into balanced
        pipeline stage plans (clamped to the layer count); the cluster
        reserves one device per stage at dispatch.
        """
        from repro.sched.job import DeviceSlice, Job, partition_runtime

        runtime = self.build_task(spec, oracle=oracle)
        if spec.stages <= 1:
            return Job.single(runtime)
        plans = partition_runtime(runtime, spec.stages)
        if len(plans) == 1:
            return Job.single(runtime)
        return Job(
            job_id=runtime.task_id,
            source=runtime,
            requests=(runtime,),
            slices=[DeviceSlice(stage=plan) for plan in plans],
        )

    def build_workload(
        self, workload: WorkloadSpec, oracle: bool = False
    ) -> List[TaskRuntime]:
        """Build fresh runtimes for every task of a workload.

        Runtimes are mutable; each simulation run needs its own set, while
        the underlying profiles stay shared through the cache.
        """
        return [self.build_task(spec, oracle=oracle) for spec in workload.tasks]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _plan(
        self,
        benchmark: str,
        input_len: Optional[int],
        output_len: Optional[int],
    ) -> ModelPlan:
        if not is_rnn(benchmark):
            return benchmark_plan(benchmark)
        if input_len is None or output_len is None:
            raise ValueError(f"{benchmark}: RNN tasks need sequence lengths")
        return benchmark_plan(benchmark, input_len=input_len, output_len=output_len)

    def prediction_pairs(
        self, specs: Sequence[TaskSpec]
    ) -> List[Tuple[float, float]]:
        """(estimated, actual isolated) pairs for accuracy analyses."""
        return [
            (self.estimated_cycles(spec), self.isolated_cycles(spec))
            for spec in specs
        ]
