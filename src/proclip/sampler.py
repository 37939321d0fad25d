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
from .autodiff import detach, is_tensor, reshape, sigmoid, softmax, value
from .rng import CounterRng

TAU_INITIAL = 5.0
TAU_DECAY = 0.045
SUPPRESS = 1e9


@dataclass
class SelectedFrames:
    indices: np.ndarray   # ... x K ascending frame indices
    alpha: np.ndarray     # ... x K positive weights, sum 1


@dataclass
class SoftSelection:
    weights: object       # K x N row-stochastic (ndarray or Tensor)
    temperature: float


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
    order = np.argsort(-scores, axis=-1, kind="stable")  # stable: ties keep low index first
    indices = np.sort(order[..., :k], axis=-1)
    sel = np.take_along_axis(scores, indices, axis=-1)
    alpha = softmax(sel)
    return SelectedFrames(indices=indices, alpha=alpha)


def hard_topk_train(scores, k: int, temperature: float) -> SoftSelection:
    """Differentiable relaxed top-k.

    Row r is softmax((scores + mask_r) / tau) where mask_r carries a large
    negative constant at every previously claimed argmax.  The mask is
    built from detached values (straight-through on the selection pattern),
    so gradients flow through the softmax rows only.
    """
    n = value(scores).shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} frames")
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    mask = np.zeros(n)
    rows = []
    for _ in range(k):
        row = softmax((scores + mask) * (1.0 / temperature), axis=-1)
        rows.append(row)
        mask = mask.copy()
        mask[int(np.argmax(detach(row)))] = -SUPPRESS
    if is_tensor(scores):
        from .autodiff import stack_rows
        weights = stack_rows(rows)
    else:
        weights = np.stack(rows, axis=0)
    return SoftSelection(weights=weights, temperature=temperature)


def anneal_temperature(step: int) -> float:
    """tau(step) = 5 * exp(-0.045 * step)."""
    if step < 0:
        raise ValueError("step must be nonnegative")
    return TAU_INITIAL * float(np.exp(-TAU_DECAY * step))
