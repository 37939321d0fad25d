"""Prompt-conditioned attention over frames.

Word-level attention averages per-token softmax weights into per-frame
scores; sentence-level attention softmaxes a single query over frames.
Both reweight the frame rows, and a learned sigmoid gate mixes the two
reweighted streams frame by frame.  Frames may carry leading batch axes
(C x N x D for C candidates); the query is shared by the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .autodiff import concat, mean, reshape, sigmoid, softmax, transpose, value
from .rng import CounterRng


@dataclass
class FusionOutput:
    y: object               # N x D fused features
    g: object               # N gate values in (0,1)
    word_scores: object     # N, entries in [0,1]
    sentence_scores: object  # N, sums to 1
    w_o: object             # N x D
    s_o: object             # N x D


def init_gate_params(rng: CounterRng, d: int) -> dict:
    return {
        "w1": nn.init_matrix(rng, 2 * d, d, 2 * d),  # rows map 2D -> D
        "b1": nn.init_vector(rng, 2 * d, d),
        "w2": nn.init_matrix(rng, d, 1, d),
        "b2": nn.init_vector(rng, d, 1),
    }


def _check_dims(a, b, what):
    if value(a).shape[-1] != value(b).shape[-1]:
        raise ValueError("dimension mismatch in %s: %d vs %d"
                         % (what, value(a).shape[-1], value(b).shape[-1]))


def word_cross_attention(words, frames):
    """Returns (scores: N, reweighted frames W_o: N x D).

    Attention is softmaxed over frames per word; per-frame scores are the
    mean attention the frame receives across words.
    """
    _check_dims(words, frames, "word attention")
    d = value(frames).shape[-1]
    attn = softmax((words @ transpose(frames)) * (1.0 / np.sqrt(d)), axis=-1)
    scores = mean(attn, axis=-2)
    w_o = frames * reshape(scores, value(scores).shape + (1,))
    return scores, w_o


def sentence_cross_attention(sentence, frames):
    """Returns (scores: N softmax over frames, reweighted frames S_o)."""
    _check_dims(sentence, frames, "sentence attention")
    d = value(frames).shape[-1]
    scores = softmax((frames @ sentence) * (1.0 / np.sqrt(d)), axis=-1)
    s_o = frames * reshape(scores, value(scores).shape + (1,))
    return scores, s_o


def gated_fusion(w_o, s_o, params):
    """Mix the two streams: y = g * W_o + (1 - g) * S_o, g = sigmoid MLP."""
    if value(w_o).shape != value(s_o).shape:
        raise ValueError("gated fusion inputs must share shape")
    x = concat([w_o, s_o], axis=-1)
    h = nn.relu(x @ transpose(params["w1"]) + params["b1"])
    g = sigmoid(h @ transpose(params["w2"]) + params["b2"])  # N x 1
    y = g * w_o + (1.0 - g) * s_o
    return y, reshape(g, value(g).shape[:-1])


def prompt_fusion(words, sentence, frames, params) -> FusionOutput:
    word_scores, w_o = word_cross_attention(words, frames)
    sentence_scores, s_o = sentence_cross_attention(sentence, frames)
    y, g = gated_fusion(w_o, s_o, params)
    return FusionOutput(y=y, g=g, word_scores=word_scores,
                        sentence_scores=sentence_scores, w_o=w_o, s_o=s_o)
