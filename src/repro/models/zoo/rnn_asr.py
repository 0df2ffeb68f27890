"""RNN-ASR: Listen-Attend-Spell style speech recognizer.

A pyramidal bidirectional-LSTM-style encoder (the "listener") halves the
time resolution at each of its three stacked layers, then an LSTM decoder
(the "speller") with a character-vocabulary projection unrolls over the
output transcript length.  Audio inputs are long (tens to hundreds of
frames) while transcripts are short, giving the strongly non-linear
input->output length relationship of the paper's Fig 9d.
"""

from __future__ import annotations

from repro.models.graph import Graph, ModelPlan, PlanBuilder
from repro.models.layers import FullyConnected, InputSpec, LSTMCell, Softmax

#: 40-dim filterbank features, stacked into 256-dim frames at the front end.
FRAME_DIM = 256
HIDDEN = 512
ENCODER_LAYERS = 3
DECODER_LAYERS = 2
CHAR_VOCAB = 64


def rnn_asr_plan(input_len: int = 100, output_len: int = 30) -> ModelPlan:
    """Plan of LAS unrolled for ``input_len`` frames and ``output_len`` chars."""
    if input_len <= 0 or output_len <= 0:
        raise ValueError("sequence lengths must be positive")
    plan = PlanBuilder("RNN-ASR", InputSpec(channels=FRAME_DIM))
    # Pyramidal encoder: layer l runs over ceil(input_len / 2**l) steps.
    steps = input_len
    for layer in range(ENCODER_LAYERS):
        plan.unroll(steps, LSTMCell(f"enc{layer}", hidden=HIDDEN))
        steps = max(1, (steps + 1) // 2)
    # Attention context projection once per decoder step is folded into the
    # decoder cell input; the speller emits one character per step.
    plan.unroll(
        output_len,
        *(LSTMCell(f"dec{layer}", hidden=HIDDEN) for layer in range(DECODER_LAYERS)),
        FullyConnected("dec_proj", out_features=CHAR_VOCAB, fused_activation=None),
        Softmax("dec_softmax"),
    )
    return plan.build()


def build_rnn_asr(input_len: int = 100, output_len: int = 30) -> Graph:
    """Build LAS unrolled for ``input_len`` frames and ``output_len`` chars."""
    return Graph.from_plan(rnn_asr_plan(input_len, output_len))
