"""Two-stage retrieval: index build, per-query retrieval, metrics, latency.

Stage 1 ranks every video by cosine between its distilled embedding and
the query sentence and keeps the top k%.  Stage 2 runs the prompt-aware
pipeline (attention, scoring, frame selection, aggregation) over the
surviving candidates only.  Pruned-out videos are appended below the
candidates ordered by their stage-1 score so every query has a full
ranking and mean rank is always defined.
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import aggregator, prompt, pruner, sampler
from .corpus import (CorpusBundle, CorpusFormatError, QueryRecord, Reader, VideoRecord,
                     pack_f32, pack_str)
from .encoder import depth_for_duration, encode_video
from .model import ModelParams, flatten_params, model_hash

INDEX_MAGIC = b"PCLX"
INDEX_VERSION = 1

# frame rows per batched pass (index build, stage 2); bounds a block's temporaries
BLOCK_ROWS = 384


@dataclass
class RetrievalConfig:
    k_percent: float = 50.0
    k_frames: int = 12


@dataclass
class RetrievalIndex:
    corpus: CorpusBundle
    model: ModelParams
    contexts: dict          # video id -> N x D float32 frame context
    distilled: dict         # video id -> D float32 unit embedding
    build_stats: dict = field(default_factory=dict)
    videos: dict = field(init=False, repr=False)  # video id -> VideoRecord
    # `distilled` packed for stage 1; the index is not mutated after construction
    packed: pruner.PackedEmbeddings = field(init=False, repr=False)

    def __post_init__(self):
        self.videos = {v.id: v for v in self.corpus.videos}
        clips = {v.id: v.clip_frames for v in self.corpus.videos}
        for what, arrays in (("model parameter", flatten_params(self.model)),
                             ("context", self.contexts), ("distilled row", self.distilled),
                             ("clip frames", clips)):
            bad = next((k for k, a in arrays.items() if not np.isfinite(a).all()), None)
            if bad is not None:
                raise ValueError(f"{what} {bad!r} holds NaN or inf")
        self.packed = pruner.PackedEmbeddings.pack(self.distilled)


@dataclass
class RankedList:
    video_ids: list[str]
    stage2_scores: dict     # candidate id -> fine score
    stage1_scores: dict     # every id -> coarse score
    timings: dict
    counters: dict


@dataclass
class MetricsReport:
    r1: float
    r5: float
    r10: float
    mnr: float
    per_query_ranks: dict


@dataclass
class LatencyReport:
    k_percent: float
    fq_latency_s: float
    aq_latency_s: float
    rounds: int
    corpus_size: int
    stage2_count: int


def frame_blocks(videos, key=lambda v: None):
    """Blocks of videos of one frame count and one key(v), in order of first
    appearance, each of at most BLOCK_ROWS frame rows (or one video)."""
    groups: dict = {}
    for v in videos:
        groups.setdefault((v.raw_frames.shape[0], key(v)), []).append(v)
    for (n, _), group in groups.items():
        if n == 0:
            raise ValueError(f"video {group[0].id!r} has no frames")
        step = max(1, BLOCK_ROWS // n)
        yield from (group[i:i + step] for i in range(0, len(group), step))


def encoded_blocks(videos, encoder_params):
    """(block, C x N x D float64 contexts) per block of equal frame count and
    encoder depth, one batched encoder pass each."""
    for block in frame_blocks(videos, lambda v: depth_for_duration(v.duration_s)):
        raw = np.stack([v.raw_frames for v in block]).astype(np.float64)
        yield block, encode_video(raw, block[0].duration_s, encoder_params).rows


def index_corpus(corpus: CorpusBundle, model: ModelParams) -> RetrievalIndex:
    d_v, d = model.dims
    if corpus.dims["D_v"] != d_v or corpus.dims["D"] != d:
        raise ValueError("corpus dims %s do not match model dims (%d, %d)"
                         % (corpus.dims, d_v, d))
    contexts = dict.fromkeys(v.id for v in corpus.videos)  # corpus order
    distilled = dict(contexts)
    for block, rows in encoded_blocks(corpus.videos, model.encoder):
        f32 = rows.astype(np.float32)
        phi = pruner.distill_forward(f32.astype(np.float64), model.distill)
        for v, ctx, row in zip(block, f32, phi.astype(np.float32)):
            contexts[v.id], distilled[v.id] = ctx, row
    return RetrievalIndex(corpus=corpus, model=model, contexts=contexts,
                          distilled=distilled,
                          build_stats={"n_videos": len(corpus.videos)})


def stage2_score(query: QueryRecord, video: VideoRecord | list[VideoRecord],
                 context: np.ndarray, model: ModelParams, k_frames: int):
    """Fine score and frames aggregated for one candidate, or per-candidate
    arrays for a list of videos of one frame count with stacked C x N x D contexts."""
    rows = context.astype(np.float64)
    words = query.words.astype(np.float64)
    sentence = query.sentence.astype(np.float64)
    block = isinstance(video, list)
    clips = np.stack([v.clip_frames for v in video]) if block else video.clip_frames
    fusion = prompt.prompt_fusion(words, sentence, rows, model.gate)
    scores = sampler.frame_scores(rows, fusion.y, model.scorer)
    sel = sampler.topk_infer(scores, min(k_frames, rows.shape[-2]))
    clip_sel = np.take_along_axis(clips, sel.indices[..., None], axis=-2).astype(np.float64)
    weighted = aggregator.weight_frames(clip_sel, sel.alpha)
    v_emb = aggregator.aggregate_video(weighted, model.aggregator)
    sim = aggregator.cosine_similarity(v_emb, sentence)
    if block:
        return sim, np.full(len(video), sel.indices.shape[-1])
    return float(sim), len(sel.indices)


def retrieve(query: QueryRecord, index: RetrievalIndex,
             config: RetrievalConfig | None = None) -> RankedList:
    config = config or RetrievalConfig()
    if query.sentence.shape[0] != index.model.dims[1]:
        raise ValueError("query dim does not match index")
    if not (np.isfinite(query.sentence).all() and np.isfinite(query.words).all()):
        raise ValueError("query embedding holds NaN or inf")
    if not 0.0 < config.k_percent <= 100.0:
        raise ValueError("k_percent must lie in (0, 100]")
    t0 = time.perf_counter()
    full = pruner.prune_candidates(query.sentence, index.packed, 100.0)
    m = len(full.video_ids)
    keep = int(math.ceil(config.k_percent / 100.0 * m))
    candidates = full.video_ids[:keep]
    stage1_scores = dict(zip(full.video_ids, full.coarse_scores.tolist()))
    t1 = time.perf_counter()

    stage2_scores, frames_aggregated = {}, 0
    for block in frame_blocks([index.videos[vid] for vid in candidates]):
        scores, frames = stage2_score(
            query, block, np.stack([index.contexts[v.id] for v in block]),
            index.model, config.k_frames)
        stage2_scores.update(zip((v.id for v in block), scores.tolist()))
        frames_aggregated += int(frames.sum())
    t2 = time.perf_counter()

    ranked = sorted(candidates, key=lambda vid: (-stage2_scores[vid], vid))
    pruned_out = full.video_ids[keep:]  # already descending stage-1, ties by id
    return RankedList(
        video_ids=ranked + pruned_out,
        stage2_scores=stage2_scores,
        stage1_scores=stage1_scores,
        timings={"stage1_s": t1 - t0, "stage2_s": t2 - t1},
        counters={"stage2_videos": len(candidates),
                  "frames_aggregated": frames_aggregated},
    )


def evaluate(queries: list[QueryRecord], index: RetrievalIndex,
             config: RetrievalConfig | None = None) -> MetricsReport:
    ranks = {}
    for q in queries:
        ranking = retrieve(q, index, config).video_ids
        try:
            ranks[q.id] = ranking.index(q.ground_truth_video) + 1
        except ValueError:
            raise ValueError(f"ground truth {q.ground_truth_video} missing for {q.id}")
    vals = np.array(list(ranks.values()), dtype=np.float64)
    return MetricsReport(
        r1=float(np.mean(vals <= 1)),
        r5=float(np.mean(vals <= 5)),
        r10=float(np.mean(vals <= 10)),
        mnr=float(vals.mean()),
        per_query_ranks=ranks,
    )


def bench(corpus: CorpusBundle, model: ModelParams, k_percents: list[float],
          rounds: int = 10, k_frames: int = 12) -> list[LatencyReport]:
    """Latency sweep over computation ratios.

    Cold (FQ) latency rebuilds the index per ratio.  Warm (AQ) rounds are
    interleaved across the sweep and summarized by the median, so machine
    load drifting during the run cannot bias one ratio against another.
    """
    queries = corpus.queries
    configs, indexes, fq, counts = {}, {}, {}, {}
    for k in k_percents:
        configs[k] = RetrievalConfig(k_percent=k, k_frames=k_frames)
        t0 = time.perf_counter()
        indexes[k] = index_corpus(corpus, model)
        first = retrieve(queries[0], indexes[k], configs[k])
        fq[k] = time.perf_counter() - t0
        counts[k] = first.counters["stage2_videos"]
    times: dict = {k: [] for k in k_percents}
    for r in range(rounds):
        q = queries[(r + 1) % len(queries)]
        for k in k_percents:
            t = time.perf_counter()
            retrieve(q, indexes[k], configs[k])
            times[k].append(time.perf_counter() - t)
    return [LatencyReport(
        k_percent=k,
        fq_latency_s=fq[k],
        aq_latency_s=float(np.median(times[k])),
        rounds=rounds,
        corpus_size=len(corpus.videos),
        stage2_count=counts[k],
    ) for k in k_percents]


# -- CSV emitters --------------------------------------------------------

def metrics_csv(report: MetricsReport) -> str:
    lines = ["metric,value",
             f"R@1,{report.r1}",
             f"R@5,{report.r5}",
             f"R@10,{report.r10}",
             f"MnR,{report.mnr}"]
    return "\n".join(lines) + "\n"


def latency_csv(reports: list[LatencyReport]) -> str:
    lines = ["k_percent,fq_s,aq_s,stage2_count"]
    for r in reports:
        lines.append(f"{r.k_percent},{r.fq_latency_s},{r.aq_latency_s},{r.stage2_count}")
    return "\n".join(lines) + "\n"


# -- index persistence ---------------------------------------------------

def save_index(index: RetrievalIndex, path: str) -> None:
    ids = [v.id for v in index.corpus.videos]
    parts = [INDEX_MAGIC, struct.pack("<H", INDEX_VERSION),
             bytes.fromhex(model_hash(index.model)),  # 32 bytes
             struct.pack("<II", len(ids), index.model.dims[1])]
    for vid in ids:
        parts += [pack_str(vid), struct.pack("<I", index.contexts[vid].shape[0]),
                  pack_f32(index.distilled[vid]), pack_f32(index.contexts[vid])]
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_index(path: str, corpus: CorpusBundle, model: ModelParams) -> RetrievalIndex:
    r = Reader(path, INDEX_MAGIC, INDEX_VERSION, "index")
    if r.take(32).hex() != model_hash(model):
        raise CorpusFormatError("model-mismatch", "index built from different model")
    m, d = r.unpack("<II")
    if d != model.dims[1]:
        raise CorpusFormatError("dimension-mismatch",
                                f"index width {d}, model width {model.dims[1]}")
    ids, contexts, distilled = [], {}, {}
    for _ in range(m):
        vid = r.read_str()
        (n,) = r.unpack("<I")
        ids.append(vid)
        distilled[vid] = r.read_f32(d)
        contexts[vid] = r.read_f32(n, d)
    r.finish()
    if sorted(ids) != sorted(v.id for v in corpus.videos):
        raise CorpusFormatError("dimension-mismatch", "index video ids do not match the corpus")
    for v in corpus.videos:
        if contexts[v.id].shape[0] != v.raw_frames.shape[0]:
            raise CorpusFormatError("dimension-mismatch",
                                    f"index holds {contexts[v.id].shape[0]} frames for {v.id}, "
                                    f"corpus {v.raw_frames.shape[0]}")
    return RetrievalIndex(corpus=corpus, model=model, contexts=contexts,
                          distilled=distilled, build_stats={"n_videos": m})
