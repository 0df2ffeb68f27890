"""RNN-SA: LSTM sentiment analysis (linear input->output relationship).

A token embedding feeds a 2-layer LSTM unrolled over the input sequence;
a single classification FC + softmax reads the final hidden state.  The
time-unrolled recurrence length equals the input sequence length (the
paper's Fig 8b "linear" case), so its network-wide latency is statically
predictable once the input length is known.
"""

from __future__ import annotations

from repro.models.graph import Graph, ModelPlan, PlanBuilder
from repro.models.layers import Embedding, FullyConnected, InputSpec, LSTMCell, Softmax

#: Model dimensions (MLPerf-cloud-style sentiment model).
EMBED_DIM = 512
HIDDEN = 1024
VOCAB = 32000
NUM_LAYERS = 2
NUM_CLASSES = 2


def rnn_sa_plan(input_len: int = 20) -> ModelPlan:
    """Plan of the sentiment model unrolled over ``input_len`` tokens."""
    if input_len <= 0:
        raise ValueError("input_len must be positive")
    plan = PlanBuilder("RNN-SA", InputSpec(channels=EMBED_DIM))
    plan.unroll(
        input_len,
        Embedding("embed", vocab=VOCAB, dim=EMBED_DIM),
        *(LSTMCell(f"lstm{layer}", hidden=HIDDEN) for layer in range(NUM_LAYERS)),
    )
    plan.once(
        FullyConnected("classifier", out_features=NUM_CLASSES, fused_activation=None),
        Softmax("prob"),
    )
    return plan.build()


def build_rnn_sa(input_len: int = 20) -> Graph:
    """Build the sentiment model unrolled over ``input_len`` tokens."""
    return Graph.from_plan(rnn_sa_plan(input_len))
