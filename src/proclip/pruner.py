"""Coarse candidate pruning.

A three-layer multi-head encoder distills the lightweight frame context
into a unit-norm video embedding aligned (after training) with the teacher
video-feature space; queries keep the top k% of videos by cosine score.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
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
    every_score: CoarseScores  # every id -> coarse score, kept or not


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
    the ids ascending, their rows stacked as one float64 matrix, the row
    norms and the id -> row table, so a query costs one mat-vec and one sort."""
    ids: np.ndarray     # object array of ids, ascending
    matrix: np.ndarray  # M x D float64, row i is ids[i]'s embedding
    norms: np.ndarray   # M, L2 norm of each row
    rows: dict          # id -> row

    @classmethod
    def pack(cls, embeddings: dict) -> "PackedEmbeddings":
        ids = sorted(embeddings)
        matrix = (np.stack([embeddings[i] for i in ids], dtype=np.float64)
                  if ids else np.empty((0, 0)))
        return cls(np.array(ids, dtype=object), matrix,
                   np.linalg.norm(matrix, axis=1), {vid: i for i, vid in enumerate(ids)})


class CoarseScores(Mapping):
    """Read-only id -> coarse score of every packed video for one query, in
    descending-score order (ties by id), read through the packed id -> row
    table: a query builds no per-id Python objects until they are read.

    It keeps the ids and the table, not the packed matrix, so a matrix
    packed for one call is freed when the call returns."""

    __slots__ = ("_ids", "_rows", "_scores", "_order")

    def __init__(self, packed: PackedEmbeddings, scores: np.ndarray, order: np.ndarray):
        self._ids, self._rows, self._scores, self._order = packed.ids, packed.rows, scores, order

    def __getitem__(self, vid) -> float:
        return self._scores.item(self._rows[vid])

    def __iter__(self):
        return iter(self._ids[self._order].tolist())

    def __len__(self) -> int:
        return len(self._order)


def descending_order(scores: np.ndarray) -> np.ndarray:
    """np.argsort(-scores, kind="stable"): descending, ties in index order.

    Distinct keys have one sorted order, so the faster unstable sort gives
    the same permutation unless two sorted neighbours compare equal (or
    are NaN); only then is the stable sort run."""
    neg = -scores
    order = np.argsort(neg)
    ranked = neg[order]
    if not (ranked[:-1] < ranked[1:]).all():
        order = np.argsort(neg, kind="stable")
    return order


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
    order = descending_order(scores)
    kept = order[:keep]
    return CandidateSet(
        video_ids=distilled.ids[kept].tolist(),
        coarse_scores=scores[kept],
        k_percent=k_percent,
        every_score=CoarseScores(distilled, scores, order),
    )
