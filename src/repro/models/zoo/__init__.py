"""The benchmark model zoo (paper Sec III).

Eight cloud-inference DNNs: four CNNs with diverse convolution styles
(AlexNet, GoogLeNet, VGG-16, MobileNet) and four LSTM RNNs (sentiment
analysis, two machine-translation instances, and a Listen-Attend-Spell
speech recognizer).  ResNet-50 is included additionally for the Fig 1
co-location motivation experiment.

CNNs build to a fixed :class:`~repro.models.graph.Graph`.  RNN builders
take sequence lengths (the dynamic dimension of Sec V-B) and unroll the
recurrent layers into one node per time step; their graphs expand a
:class:`~repro.models.graph.ModelPlan` that holds each unrolled cell once
(:func:`benchmark_plan`).
"""

from typing import Callable, Dict

from repro.models.graph import Graph, ModelPlan
from repro.models.zoo.alexnet import build_alexnet
from repro.models.zoo.googlenet import build_googlenet
from repro.models.zoo.mobilenet import build_mobilenet
from repro.models.zoo.resnet import build_resnet50
from repro.models.zoo.rnn_asr import build_rnn_asr, rnn_asr_plan
from repro.models.zoo.rnn_mt import build_rnn_mt, rnn_mt_plan
from repro.models.zoo.rnn_sa import build_rnn_sa, rnn_sa_plan
from repro.models.zoo.vggnet import build_vggnet

#: Canonical benchmark names used throughout experiments, matching the
#: paper's x-axis labels.
CNN_BENCHMARKS = ("CNN-AN", "CNN-GN", "CNN-VN", "CNN-MN")
RNN_BENCHMARKS = ("RNN-SA", "RNN-MT1", "RNN-MT2", "RNN-ASR")
BENCHMARKS = CNN_BENCHMARKS + RNN_BENCHMARKS

__all__ = [
    "BENCHMARKS",
    "CNN_BENCHMARKS",
    "RNN_BENCHMARKS",
    "build_alexnet",
    "build_googlenet",
    "build_vggnet",
    "build_mobilenet",
    "build_resnet50",
    "build_rnn_sa",
    "build_rnn_mt",
    "build_rnn_asr",
    "rnn_sa_plan",
    "rnn_mt_plan",
    "rnn_asr_plan",
    "build_benchmark",
    "benchmark_plan",
    "is_rnn",
]

#: Fixed-topology networks, built straight to a graph.
_GRAPH_BUILDERS: Dict[str, Callable[[], Graph]] = {
    "CNN-AN": build_alexnet,
    "CNN-GN": build_googlenet,
    "CNN-VN": build_vggnet,
    "CNN-MN": build_mobilenet,
    "RESNET": build_resnet50,
}

#: Sequence-unrolled networks, planned from (input_len, output_len).
_PLAN_BUILDERS: Dict[str, Callable[[int, int], ModelPlan]] = {
    "RNN-SA": lambda input_len, output_len: rnn_sa_plan(input_len),
    "RNN-MT1": lambda input_len, output_len: rnn_mt_plan(input_len, output_len, 1),
    "RNN-MT2": lambda input_len, output_len: rnn_mt_plan(input_len, output_len, 2),
    "RNN-ASR": rnn_asr_plan,
}


def is_rnn(benchmark: str) -> bool:
    """True when the named benchmark has a dynamic (sequence) dimension."""
    return benchmark in RNN_BENCHMARKS


def build_benchmark(
    name: str, input_len: int = 20, output_len: int = 20
) -> Graph:
    """Build a benchmark graph by its canonical name.

    ``input_len``/``output_len`` apply to the RNN benchmarks only (the
    time-unrolled sequence lengths); CNNs ignore them.
    """
    if name in _GRAPH_BUILDERS:
        return _GRAPH_BUILDERS[name]()
    return Graph.from_plan(benchmark_plan(name, input_len, output_len))


def benchmark_plan(
    name: str, input_len: int = 20, output_len: int = 20
) -> ModelPlan:
    """The plan of a benchmark by its canonical name.

    RNN plans hold each unrolled cell once; a CNN's plan is its graph.
    """
    if name in _PLAN_BUILDERS:
        return _PLAN_BUILDERS[name](input_len, output_len)
    if name in _GRAPH_BUILDERS:
        return ModelPlan.of_graph(_GRAPH_BUILDERS[name]())
    raise KeyError(f"unknown benchmark: {name!r}")
