"""RNN-MT: seq2seq machine translation (non-linear input->output lengths).

Encoder-decoder LSTM stacks (Fig 8c of the paper): the encoder unrolls
over the *input* sequence length, the decoder over the *output* sequence
length, and each decoder step projects through a vocabulary-sized softmax
FC -- the memory-bound GEMM that dominates MT latency at batch 1.

Two instances are deployed as different translation services (Sec III):
variant 1 is English->German (output ~= input length), variant 2 is
English->Korean (output shorter than input).  The output length is the
input-data-dependent quantity PREMA's regression model predicts.
"""

from __future__ import annotations

from repro.models.graph import Graph, ModelPlan, PlanBuilder
from repro.models.layers import Embedding, FullyConnected, InputSpec, LSTMCell, Softmax

EMBED_DIM = 512
HIDDEN = 1024
NUM_LAYERS = 2
#: Per-variant target vocabulary size (German word-level vs Korean subword).
VOCAB = {1: 32000, 2: 24000}


def rnn_mt_plan(
    input_len: int = 20, output_len: int = 20, variant: int = 1
) -> ModelPlan:
    """Plan of the seq2seq model unrolled for one (input, output) pair."""
    if input_len <= 0 or output_len <= 0:
        raise ValueError("sequence lengths must be positive")
    if variant not in VOCAB:
        raise ValueError(f"variant must be one of {sorted(VOCAB)}")
    vocab = VOCAB[variant]
    plan = PlanBuilder(f"RNN-MT{variant}", InputSpec(channels=EMBED_DIM))
    # Encoder: unrolled over the source sentence.
    plan.unroll(
        input_len,
        Embedding("enc_embed", vocab=vocab, dim=EMBED_DIM),
        *(LSTMCell(f"enc_lstm{layer}", hidden=HIDDEN) for layer in range(NUM_LAYERS)),
    )
    # Decoder: unrolled over the generated sentence, one vocab projection
    # (the expensive part) per emitted token.
    plan.unroll(
        output_len,
        Embedding("dec_embed", vocab=vocab, dim=EMBED_DIM),
        *(LSTMCell(f"dec_lstm{layer}", hidden=HIDDEN) for layer in range(NUM_LAYERS)),
        FullyConnected("dec_proj", out_features=vocab, fused_activation=None),
        Softmax("dec_softmax"),
    )
    return plan.build()


def build_rnn_mt(input_len: int = 20, output_len: int = 20, variant: int = 1) -> Graph:
    """Build the seq2seq model unrolled for one (input, output) pair."""
    return Graph.from_plan(rnn_mt_plan(input_len, output_len, variant))
