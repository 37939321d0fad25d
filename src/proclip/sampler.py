"""Frame scoring and top-k frame selection.

Inference uses exact top-k with lowest-index tie-breaks.  Training uses a
tempered-softmax relaxation: each of the K rows is a softmax over the
scores with previously claimed positions suppressed, so the rows converge
to the exact selection as the temperature decays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .autodiff import concat, detach, reshape, sigmoid, softmax, value
from .rng import CounterRng

TAU_INITIAL = 5.0
TAU_DECAY = 0.045
SUPPRESS = 1e9


@dataclass
class SelectedFrames:
    indices: np.ndarray   # ... x K ascending frame indices
    alpha: np.ndarray     # ... x K positive weights, sum 1


def init_scorer_params(rng: CounterRng, d: int, hidden: int) -> dict:
    return {
        "f_w1": nn.init_matrix(rng, d, d, hidden),
        "f_b1": nn.init_vector(rng, d, hidden),
        "f_w2": nn.init_matrix(rng, hidden, hidden, 1),
        "f_b2": nn.init_vector(rng, hidden, 1),
        "y_w1": nn.init_matrix(rng, d, d, hidden),
        "y_b1": nn.init_vector(rng, d, hidden),
        "y_w2": nn.init_matrix(rng, hidden, hidden, 1),
        "y_b2": nn.init_vector(rng, hidden, 1),
    }


def frame_scores(frames, y, params):
    """score_j = logit(frames_j) * sigmoid(relevance(y_j))."""
    if value(frames).shape != value(y).shape:
        raise ValueError("frames and fused features must share shape")
    lead = value(frames).shape[:-1]
    logits = reshape(nn.mlp2(frames, params["f_w1"], params["f_b1"],
                             params["f_w2"], params["f_b2"]), lead)
    relevance = sigmoid(reshape(nn.mlp2(y, params["y_w1"], params["y_b1"],
                                        params["y_w2"], params["y_b2"]), lead))
    return logits * relevance


def topk_infer(scores: np.ndarray, k: int) -> SelectedFrames:
    """Exact top-k over the last axis; ties go to the lower index; alpha =
    softmax of the selected scores, aligned with the ascending index order."""
    scores = np.asarray(value(scores), dtype=np.float64)
    n = scores.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} frames")
    if k == n:  # every frame, in index order: nothing to sort or gather
        return SelectedFrames(indices=np.broadcast_to(np.arange(n), scores.shape).copy(),
                              alpha=softmax(scores))
    order = np.argsort(-scores, axis=-1, kind="stable")  # stable: ties keep low index first
    indices = np.sort(order[..., :k], axis=-1)
    sel = np.take_along_axis(scores, indices, axis=-1)
    alpha = softmax(sel)
    return SelectedFrames(indices=indices, alpha=alpha)


def hard_topk_train(scores, k: int, temperature: float):
    """Differentiable relaxed top-k over the last axis: [... x] N scores give
    [... x] K x N row-stochastic weights (an ndarray or a Tensor).

    Row r is softmax((scores + mask_r) / tau) where mask_r carries a large
    negative constant at every previously claimed argmax.  The mask is
    built from detached values (straight-through on the selection pattern),
    so gradients flow through the softmax rows only.
    """
    shape = value(scores).shape
    n = shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} frames")
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    mask = np.zeros(shape)
    rows = []
    for _ in range(k):
        row = softmax((scores + mask) * (1.0 / temperature), axis=-1)
        rows.append(reshape(row, shape[:-1] + (1, n)))
        mask = mask.copy()
        np.put_along_axis(mask, np.argmax(detach(row), axis=-1)[..., None], -SUPPRESS, axis=-1)
    return concat(rows, axis=-2)


def select_frames(scores, clips, k: int, tau: float | None = None):
    """Selected clip rows [... x] K x D and their weights [... x] K, from scores
    [... x] N and clips [... x] N x D: the exact top-k for tau=None, else the
    relaxed top-k at temperature tau, whose rows are soft mixtures of clips."""
    if tau is None:
        sel = topk_infer(scores, k)
        picked = (clips if k == np.shape(clips)[-2] else
                  # gather, then cast: casting first would copy every clip frame of a block
                  np.take_along_axis(clips, sel.indices[..., None], axis=-2))
        return picked.astype(np.float64), sel.alpha
    weights = hard_topk_train(scores, k, tau)
    lead = value(scores).shape[:-1]
    mixed = reshape(weights @ reshape(scores, lead + (-1, 1)), lead + (k,))
    return weights @ np.asarray(clips, dtype=np.float64), softmax(mixed, axis=-1)


def anneal_temperature(step: int) -> float:
    """tau(step) = 5 * exp(-0.045 * step)."""
    if step < 0:
        raise ValueError("step must be nonnegative")
    return TAU_INITIAL * float(np.exp(-TAU_DECAY * step))
