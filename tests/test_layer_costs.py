"""TaskFactory's per-signature layer costs against the uncached path.

The factory lowers, times and predicts each distinct layer signature once
and walks model plans instead of unrolled graphs.  Its profiles and
estimates must equal, bit for bit, what compiling and profiling the
fully unrolled graph gives -- names, tile counts, checkpoint models and
float sums included.
"""

import pytest

from repro.core.tokens import Priority
from repro.isa.compiler import compile_model
from repro.models.graph import Graph, ModelPlan, PlanBuilder
from repro.models.layers import InputSpec, LSTMCell
from repro.models.zoo import (
    CNN_BENCHMARKS,
    RNN_BENCHMARKS,
    benchmark_plan,
    build_benchmark,
)
from repro.npu.config import NPUConfig
from repro.npu.engine import profile_model
from repro.npu.systolic import predicted_gemm_cycles
from repro.sched.prepare import LayerCosts, TaskFactory, estimate_model
from repro.workloads.generator import default_profiles
from repro.workloads.specs import TaskSpec

BATCHES = (1, 2, 4, 8, 16)
CONFIGS = {
    "table1": NPUConfig(),
    # Memory-bound tiles make Algorithm 1's per-GEMM estimates fractional,
    # so a sum taken in another order would differ in its last bits.
    "memory_bound": NPUConfig(memory_bandwidth_bytes_per_sec=30e9),
}


def _grid_extremes():
    """Per profiled RNN: the shortest and the longest profiled pair."""
    extremes = {}
    for benchmark, profile in default_profiles().items():
        shortest = min(profile.input_lengths)
        longest = max(profile.input_lengths)
        extremes[benchmark] = [
            (shortest, min(profile.outputs_for(shortest))),
            (longest, max(profile.outputs_for(longest))),
        ]
    return extremes


def _rnn_lengths():
    # Length 1, odd lengths (the ASR encoder's pyramid rounds them up
    # layer by layer), an input shorter than its output, and each
    # profile's grid extremes.
    extremes = _grid_extremes()
    cases = []
    for benchmark in RNN_BENCHMARKS:
        pairs = [(1, 1), (1, 2), (3, 1), (7, 5), (9, 13), (25, 11)]
        pairs += extremes.get(benchmark, [(50, 50)])
        cases += [(benchmark, pair) for pair in pairs]
    return cases


MODELS = [(name, (None, None)) for name in CNN_BENCHMARKS] + _rnn_lengths()


def _graph(benchmark, lengths):
    input_len, output_len = lengths
    if input_len is None:
        return build_benchmark(benchmark)
    return build_benchmark(benchmark, input_len=input_len, output_len=output_len)


def _plan(benchmark, lengths):
    input_len, output_len = lengths
    if input_len is None:
        return benchmark_plan(benchmark)
    return benchmark_plan(benchmark, input_len=input_len, output_len=output_len)


def _algorithm1(model, config):
    """Algorithm 1's in-order per-shape sum over a compiled model."""
    total = 0.0
    for layer in model.layers:
        for shape in layer.gemm_shapes:
            total += predicted_gemm_cycles(shape, config)
    return total


@pytest.fixture(scope="module")
def factories():
    """One factory per config for the module: later cases reuse earlier
    layers."""
    return {name: TaskFactory(config) for name, config in CONFIGS.items()}


@pytest.fixture(scope="module")
def layer_costs():
    return {name: LayerCosts(config) for name, config in CONFIGS.items()}


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("model_name,lengths", MODELS)
@pytest.mark.parametrize("config_name", CONFIGS)
def test_profiles_and_estimates_match_the_uncached_path(
    factories, layer_costs, config_name, model_name, lengths, batch
):
    cold_factory = factories[config_name]
    costs = layer_costs[config_name]
    config = cold_factory.config
    model = compile_model(_graph(model_name, lengths), config, batch=batch)
    expected = profile_model(model, config)
    profile = cold_factory.execution_profile(model_name, batch, *lengths)
    assert profile == expected
    assert [layer.name for layer in profile.layers] == [
        layer.name for layer in model.layers
    ]
    assert estimate_model(_plan(model_name, lengths), batch, costs) == _algorithm1(
        model, config
    )


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("model_name", CNN_BENCHMARKS + RNN_BENCHMARKS)
@pytest.mark.parametrize("config_name", CONFIGS)
def test_factory_estimates_match_the_uncached_path(
    factories, config_name, model_name, batch
):
    # The scheduler-visible estimate unrolls to the *predicted* output
    # length; check it at the profile grid's shortest and longest inputs.
    cold_factory = factories[config_name]
    config = cold_factory.config
    extremes = _grid_extremes().get(model_name, [(1, 1), (50, 50)])
    inputs = [None] if model_name in CNN_BENCHMARKS else [i for i, _ in extremes]
    for input_len in inputs:
        spec = TaskSpec(
            0, model_name, batch, Priority.MEDIUM, 0.0,
            input_len=input_len,
            actual_output_len=None if input_len is None else 1,
        )
        if input_len is None:
            graph = build_benchmark(model_name)
        else:
            predicted = cold_factory.predicted_output_len(model_name, input_len)
            graph = build_benchmark(
                model_name, input_len=input_len, output_len=predicted
            )
        model = compile_model(graph, config, batch=batch)
        assert cold_factory.estimated_cycles(spec) == _algorithm1(model, config)


def test_mobilenet_depthwise_groups_are_summed_per_shape(config):
    # Each depthwise layer lowers to one tiny GEMM per group; the estimate
    # adds them one at a time, as Algorithm 1 walks them.
    costs = LayerCosts(config)
    graph = build_benchmark("CNN-MN")
    depthwise = [node for node in graph if getattr(node.layer, "groups", 1) > 1]
    assert depthwise
    for node in depthwise:
        cost = costs.of(node, 4)
        shapes = node.layer.gemms(list(node.input_specs), 4)
        assert len(cost.predicted) == node.layer.groups == len(shapes)
        assert cost.predicted == tuple(
            predicted_gemm_cycles(shape, config) for shape in shapes
        )


def test_each_signature_is_costed_once(config):
    # RNN-MT1's encoder and decoder steps repeat a handful of layers: a
    # 40-step plan costs no more distinct layers than a 4-step one.
    costs = LayerCosts(config)
    estimate_model(benchmark_plan("RNN-MT1", input_len=4, output_len=4), 1, costs)
    seen = len(costs)
    estimate_model(benchmark_plan("RNN-MT1", input_len=40, output_len=40), 1, costs)
    assert len(costs) == seen
    estimate_model(benchmark_plan("RNN-MT1", input_len=4, output_len=4), 2, costs)
    assert len(costs) == 2 * seen


class TestPlans:
    def test_unrolled_plan_holds_each_cell_once(self):
        # Step 0 reads the graph input; every later step reads the cell's
        # own output, so the steady steps share one segment.
        plan = benchmark_plan("RNN-SA", input_len=30)
        assert [segment.steps for segment in plan.segments] == [
            range(0, 1), range(1, 30), None,
        ]
        assert len(plan) == len(build_benchmark("RNN-SA", input_len=30))

    def test_steady_cell_is_one_segment(self):
        builder = PlanBuilder("chain", InputSpec(channels=8))
        builder.unroll(5, LSTMCell("cell", hidden=8))
        plan = builder.build()
        assert [segment.steps for segment in plan.segments] == [range(0, 5)]
        graph = Graph.from_plan(plan)
        assert [node.name for node in graph] == [f"cell_t{t}" for t in range(5)]
        assert [node.input_names for node in graph] == [
            (Graph.INPUT,), ("cell_t0",), ("cell_t1",), ("cell_t2",), ("cell_t3",),
        ]

    def test_builder_rejects_empty_plans_and_steps(self):
        builder = PlanBuilder("chain", InputSpec(channels=8))
        with pytest.raises(ValueError):
            builder.unroll(0, LSTMCell("cell", hidden=8))
        with pytest.raises(ValueError):
            builder.build()

    @pytest.mark.parametrize("name", CNN_BENCHMARKS + ("RESNET",))
    def test_graph_round_trips_through_its_plan(self, name):
        # A CNN's plan is its graph; expanding it rebuilds the DAG
        # (GoogLeNet's and ResNet's branches included) node for node.
        graph = build_benchmark(name)
        rebuilt = Graph.from_plan(ModelPlan.of_graph(graph))
        assert [
            (n.index, n.layer, n.input_names, n.input_specs, n.output_spec)
            for n in rebuilt
        ] == [
            (n.index, n.layer, n.input_names, n.input_specs, n.output_spec)
            for n in graph
        ]
