"""Coarse candidate pruning.

A three-layer multi-head encoder distills the lightweight frame context
into a unit-norm video embedding aligned (after training) with the teacher
video-feature space; queries keep the top k% of videos by cosine score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .autodiff import mean, value
from .encoder import add_positional
from .rng import CounterRng

DISTILL_LAYERS = 3
DISTILL_HEADS = 8
DISTILL_FF = 256


@dataclass
class CandidateSet:
    video_ids: list[str]       # descending coarse score
    coarse_scores: np.ndarray  # aligned with video_ids
    k_percent: float


def init_distill_params(rng: CounterRng, d: int) -> dict:
    if d % DISTILL_HEADS != 0:
        raise ValueError(f"embedding dim {d} must be divisible by {DISTILL_HEADS} heads")
    return {
        "proj_w": nn.init_matrix(rng, d, d, d),
        "proj_b": nn.init_vector(rng, d, d),
        "layers": [nn.init_attention_layer(rng, d, DISTILL_FF)
                   for _ in range(DISTILL_LAYERS)],
    }


def distill_forward(frame_context, params):
    """Unit-norm distilled video embedding from N x D frame context, or
    C x D embeddings from the C x N x D contexts of C videos."""
    x = nn.affine(frame_context, params["proj_w"], params["proj_b"])
    x = add_positional(x)
    for layer in params["layers"]:
        x = nn.multi_head_block(x, layer, DISTILL_HEADS)
    pooled = mean(x, axis=-2)
    return nn.unit_normalize(pooled)


def mse_distill_loss(student, teacher):
    """Squared L2 distance; for batches (rows = samples), the mean over rows."""
    sv, tv = value(student), value(teacher)
    if sv.shape != tv.shape:
        raise ValueError("student/teacher shape mismatch")
    from .autodiff import asum
    sq = asum((student - teacher) ** 2)
    if sv.ndim == 2:
        return sq * (1.0 / sv.shape[0])
    return sq


@dataclass(frozen=True)
class PackedEmbeddings:
    """Stage-1 layout of an id -> embedding mapping, built once per index:
    the ids ascending, their rows stacked as one float64 matrix, and the
    row norms, so a query costs one mat-vec and one sort."""
    ids: np.ndarray     # object array of ids, ascending
    matrix: np.ndarray  # M x D float64, row i is ids[i]'s embedding
    norms: np.ndarray   # M, L2 norm of each row

    @classmethod
    def pack(cls, embeddings: dict) -> "PackedEmbeddings":
        ids = sorted(embeddings)
        matrix = (np.stack([embeddings[i] for i in ids], dtype=np.float64)
                  if ids else np.empty((0, 0)))
        return cls(np.array(ids, dtype=object), matrix,
                   np.linalg.norm(matrix, axis=1))


def prune_candidates(query_sentence: np.ndarray,
                     distilled: dict | PackedEmbeddings,
                     k_percent: float) -> CandidateSet:
    """Keep the ceil(k% * M) videos with highest cosine(distilled, sentence).

    `distilled` maps id -> embedding, or is that mapping already packed."""
    if not 0.0 < k_percent <= 100.0:
        raise ValueError("k_percent must lie in (0, 100]")
    if not isinstance(distilled, PackedEmbeddings):
        distilled = PackedEmbeddings.pack(distilled)
    if not len(distilled.ids):
        raise ValueError("empty corpus")
    sentence = np.asarray(query_sentence, dtype=np.float64)
    s_norm = np.linalg.norm(sentence)
    scores = (distilled.matrix @ sentence) / (distilled.norms * s_norm)
    keep = int(math.ceil(k_percent / 100.0 * len(distilled.ids)))
    # sort by descending score, ties by id order (ids already ascending)
    order = np.argsort(-scores, kind="stable")[:keep]
    return CandidateSet(
        video_ids=distilled.ids[order].tolist(),
        coarse_scores=scores[order],
        k_percent=k_percent,
    )
