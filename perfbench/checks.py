"""Correctness checks on the outputs the benchmark times.

Each check returns a list of problems; an empty list means the output is
correct.  The benchmark counts an operation as failed when it raises or
when any check on its output reports a problem.
"""

from __future__ import annotations

import math

import numpy as np


def check_ranking(ranking, video_ids: set, k_percent: float) -> list[str]:
    """Shape of one RankedList: a permutation of every video id, finite
    scores, the kept candidates first by fine score and the pruned-out
    videos after them by coarse score (ties by id in both parts)."""
    ids = ranking.video_ids
    problems = []
    if len(ids) != len(video_ids) or set(ids) != video_ids:
        problems.append("ranking is not a permutation of the corpus ids")
        return problems
    s1, s2 = ranking.stage1_scores, ranking.stage2_scores
    if set(s1) != video_ids:
        problems.append("stage-1 scores do not cover the corpus")
        return problems
    if not all(math.isfinite(v) for v in s1.values()):
        problems.append("non-finite stage-1 score")
    if not all(math.isfinite(v) for v in s2.values()):
        problems.append("non-finite stage-2 score")
    keep = int(math.ceil(k_percent / 100.0 * len(ids)))
    if len(s2) != keep or set(ids[:keep]) != set(s2):
        problems.append("candidate count or placement is wrong")
        return problems
    head = [(-s2[v], v) for v in ids[:keep]]
    tail = [(-s1[v], v) for v in ids[keep:]]
    if head != sorted(head):
        problems.append("candidates are not ordered by fine score")
    if tail != sorted(tail):
        problems.append("pruned-out videos are not ordered by coarse score")
    if tail and min(s1[v] for v in ids[:keep]) < max(s1[v] for v in ids[keep:]):
        problems.append("a pruned-out video outscores a candidate at stage 1")
    return problems


def oracle_ranking(query, index, k_percent: float, k_frames: int, engine, pruner):
    """Reference ranking from the per-candidate loop: stage 1 by
    `prune_candidates`, stage 2 by one `stage2_score` call per candidate."""
    cands = pruner.prune_candidates(query.sentence, index.distilled, k_percent)
    full = pruner.prune_candidates(query.sentence, index.distilled, 100.0)
    by_id = {v.id: v for v in index.corpus.videos}
    scores = {vid: engine.stage2_score(query, by_id[vid], index.contexts[vid],
                                       index.model, k_frames)[0]
              for vid in cands.video_ids}
    kept = set(cands.video_ids)
    head = sorted(cands.video_ids, key=lambda vid: (-scores[vid], vid))
    return head + [vid for vid in full.video_ids if vid not in kept], scores


# a batched fine stage may round differently from the per-candidate loop;
# rankings must still be identical
SCORE_TOLERANCE = 1e-12


def check_against_oracle(ranking, query, index, k_percent, k_frames,
                         engine, pruner) -> list[str]:
    expected, scores = oracle_ranking(query, index, k_percent, k_frames,
                                      engine, pruner)
    problems = []
    if ranking.video_ids != expected:
        problems.append("ranking differs from the per-candidate oracle")
    got = ranking.stage2_scores
    if set(got) != set(scores) or any(abs(got[v] - scores[v]) > SCORE_TOLERANCE
                                      for v in scores):
        problems.append("fine scores differ from the per-candidate oracle")
    return problems


def _bits(arr) -> tuple:
    a = np.asarray(arr)
    return a.dtype.str, a.shape, a.tobytes()


def check_index_round_trip(original, loaded) -> list[str]:
    """Contexts and distilled rows must come back bit for bit."""
    problems = []
    for field in ("contexts", "distilled"):
        a, b = getattr(original, field), getattr(loaded, field)
        if set(a) != set(b):
            problems.append(f"index {field} ids differ after the round trip")
        elif any(_bits(a[vid]) != _bits(b[vid]) for vid in a):
            problems.append(f"index {field} differ after the round trip")
    return problems


def check_training(history, mse_trace, model, flatten, reference) -> list[str]:
    """Finite losses, finite parameters, and, given a reference round run
    on the same inputs (None during the warm-up), bitwise the same losses."""
    problems = []
    losses = [loss for _, loss, _ in history]
    if not losses or not all(math.isfinite(v) for v in losses):
        problems.append("non-finite stage-1 loss")
    if not mse_trace or not all(math.isfinite(v) for v in mse_trace):
        problems.append("non-finite distill MSE")
    if not all(np.all(np.isfinite(a)) for a in flatten(model).values()):
        problems.append("non-finite model parameter")
    if reference is not None and (list(history), list(mse_trace)) != reference:
        problems.append("training is not reproducible on identical inputs")
    return problems
