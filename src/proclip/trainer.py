"""Two-stage optimization and the gradient verification harness.

Stage 1 trains the sampling and aggregation path end to end with the
symmetric contrastive loss over a batch similarity matrix; the relaxed
top-k keeps the selection differentiable and its temperature follows the
exponential anneal schedule.  Stage 2 freezes everything except the
distillation encoder and regresses it onto the teacher video features
with MSE.  Plain gradient descent with per-group learning rates and
global-norm clipping keeps runs deterministic.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import aggregator, engine, prompt, pruner, sampler
from .autodiff import (Tensor, asum, concat, exp, log_softmax, mean, reshape,
                       softmax, stack_rows, value)
from .corpus import CorpusBundle
from .encoder import encode_video
from .model import ModelParams, init_model_params
from .rng import CounterRng


@dataclass
class TrainConfig:
    batch_size: int = 8
    epochs: int = 20
    lr_backbone: float = 1e-3   # temporal encoder
    lr_head: float = 1e-2       # gate, scorer, aggregator, logit scale
    lr_distill: float = 1e-1    # distillation encoder (stage 2's only head)
    seed: int = 0
    tau_initial: float = sampler.TAU_INITIAL
    tau_decay: float = sampler.TAU_DECAY
    grad_clip: float = 1.0
    k_frames: int = 6


@dataclass
class TrainResult:
    model: ModelParams
    history: list = field(default_factory=list)  # (epoch, loss, temperature)
    mse_trace: list = field(default_factory=list)


def contrastive_loss(sim):
    """Symmetric cross-entropy over a B x B similarity matrix.

    Entry (i, j) scores video i against text j; the diagonal holds the
    positive pairs.
    """
    v = value(sim)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError("similarity matrix must be square")
    b = v.shape[0]
    diag = (np.arange(b), np.arange(b))
    l_v2t = -mean(log_softmax(sim, axis=1)[diag])
    l_t2v = -mean(log_softmax(sim, axis=0)[diag])
    return 0.5 * (l_v2t + l_t2v)


# -- parameter wrapping --------------------------------------------------

def _wrap(node, registry: dict, prefix: str):
    if isinstance(node, dict):
        return {k: _wrap(v, registry, f"{prefix}.{k}") for k, v in node.items()}
    if isinstance(node, list):
        return [_wrap(v, registry, f"{prefix}.{i}") for i, v in enumerate(node)]
    t = Tensor(np.asarray(node, dtype=np.float64))
    registry[prefix] = t
    return t


def _apply_update(node, registry: dict, prefix: str, lr: float, scale: float):
    if isinstance(node, dict):
        for k, v in node.items():
            _apply_update(v, registry, f"{prefix}.{k}", lr, scale)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            _apply_update(v, registry, f"{prefix}.{i}", lr, scale)
    else:
        t = registry[prefix]
        if t.grad is not None:
            node -= lr * scale * t.grad


def _global_grad_norm(registry: dict) -> float:
    total = 0.0
    for t in registry.values():
        if t.grad is not None:
            total += float(np.sum(t.grad ** 2))
    return float(np.sqrt(total))


# -- stage 1: retrieval training ----------------------------------------

def _make_batches(corpus: CorpusBundle, batch_size: int, rng: CounterRng):
    """Greedy batches with distinct ground-truth videos inside each batch."""
    order = np.argsort(rng.uniform(len(corpus.queries)), kind="stable")
    batches: list[list] = []
    for qi in order:
        q = corpus.queries[int(qi)]
        placed = False
        for b in batches:
            if len(b) < batch_size and all(x.ground_truth_video != q.ground_truth_video for x in b):
                b.append(q)
                placed = True
                break
        if not placed:
            batches.append([q])
    batches = [b for b in batches if len(b) >= 2]
    if not batches:
        raise ValueError("cannot form any batch of >= 2 queries with distinct videos")
    return batches


def _pair_similarity(frame_ctx, clip_frames, query, model_view, k_frames, tau):
    """Similarity of one (video, query) pair on the differentiable path."""
    words = query.words.astype(np.float64)
    sentence = query.sentence.astype(np.float64)
    fusion = prompt.prompt_fusion(words, sentence, frame_ctx, model_view["gate"])
    scores = sampler.frame_scores(frame_ctx, fusion.y, model_view["scorer"])
    k = min(k_frames, clip_frames.shape[0])
    soft = sampler.hard_topk_train(scores, k, tau)
    selected = soft.weights @ clip_frames.astype(np.float64)  # K x D soft mixtures
    alpha = softmax(soft.weights @ scores, axis=-1)
    weighted = aggregator.weight_frames(selected, alpha)
    v_emb = aggregator.aggregate_video(weighted, model_view["aggregator"])
    return aggregator.cosine_similarity(v_emb, sentence)


def batch_similarity_matrix(batch, videos_by_id: dict, model_view, k_frames, tau):
    """B x B matrix with entry (i, j) = s(video_i | query_j, text_j)."""
    videos = [videos_by_id[q.ground_truth_video] for q in batch]
    contexts = {}
    for v in videos:
        if v.id not in contexts:
            contexts[v.id] = encode_video(v.raw_frames.astype(np.float64),
                                          v.duration_s, model_view["encoder"],
                                          source_video=v.id).rows
    rows = []
    for v in videos:
        entries = []
        for q in batch:
            s = _pair_similarity(contexts[v.id], v.clip_frames, q,
                                 model_view, k_frames, tau)
            entries.append(reshape(s, (1,)))
        rows.append(concat(entries, axis=0))
    return stack_rows(rows)


STAGE1_GROUPS = {"encoder": "backbone", "gate": "head", "scorer": "head",
                 "aggregator": "head", "logit_scale": "head"}


def train_retrieval_stage(corpus: CorpusBundle, config: TrainConfig,
                          model: ModelParams | None = None) -> TrainResult:
    d_v, d = corpus.dims["D_v"], corpus.dims["D"]
    if model is None:
        model = init_model_params(config.seed, d_v, d)
    else:
        model = copy.deepcopy(model)
    rng = CounterRng(config.seed ^ 0x5EED)
    batches = _make_batches(corpus, config.batch_size, rng)
    videos_by_id = {v.id: v for v in corpus.videos}
    history = []
    step = 0
    for epoch in range(config.epochs):
        losses = []
        tau = config.tau_initial
        for batch in batches:
            tau = config.tau_initial * float(np.exp(-config.tau_decay * step))
            registry: dict = {}
            view = {g: _wrap(model.group(g), registry, g) for g in STAGE1_GROUPS}
            sim = batch_similarity_matrix(batch, videos_by_id, view, config.k_frames, tau)
            scale = exp(view["logit_scale"]["log_scale"])
            loss = contrastive_loss(sim * scale)
            loss.backward()
            gnorm = _global_grad_norm(registry)
            clip_scale = min(1.0, config.grad_clip / gnorm) if gnorm > 0 else 1.0
            for g, kind in STAGE1_GROUPS.items():
                lr = config.lr_backbone if kind == "backbone" else config.lr_head
                _apply_update(model.group(g), registry, g, lr, clip_scale)
            losses.append(float(loss.data))
            step += 1
        history.append((epoch, float(np.mean(losses)), tau))
    return TrainResult(model=model, history=history)


# -- stage 2: distillation ----------------------------------------------

def _encode_corpus(corpus: CorpusBundle, model: ModelParams) -> dict:
    """Video id -> N x D float64 frame context, encoded block by block."""
    contexts = {}
    for block, rows in engine.encoded_blocks(corpus.videos, model.encoder):
        contexts.update(zip((v.id for v in block), rows))
    return contexts


def corpus_distill_mse(corpus: CorpusBundle, model: ModelParams,
                       contexts: dict | None = None) -> float:
    """Mean MSE between distilled and teacher video features over the corpus."""
    if contexts is None:
        contexts = _encode_corpus(corpus, model)
    phis = {}
    for block in engine.frame_blocks(corpus.videos):
        rows = np.stack([contexts[v.id] for v in block])
        phis.update(zip((v.id for v in block), pruner.distill_forward(rows, model.distill)))
    total = 0.0
    for v in corpus.videos:
        total += float(pruner.mse_distill_loss(phis[v.id], v.teacher_video.astype(np.float64)))
    return total / len(corpus.videos)


def train_distill_stage(corpus: CorpusBundle, model: ModelParams,
                        config: TrainConfig) -> TrainResult:
    model = copy.deepcopy(model)
    contexts = _encode_corpus(corpus, model)  # backbone frozen: fixed inputs
    trace = [corpus_distill_mse(corpus, model, contexts)]
    videos = list(corpus.videos)
    for _epoch in range(config.epochs):
        for start in range(0, len(videos), config.batch_size):
            batch = videos[start:start + config.batch_size]
            registry: dict = {}
            distill_view = _wrap(model.distill, registry, "distill")
            per_video = []
            for v in batch:
                phi = pruner.distill_forward(contexts[v.id], distill_view)
                err = phi - v.teacher_video.astype(np.float64)
                per_video.append(reshape(asum(err * err), (1,)))
            loss = mean(concat(per_video, axis=0))
            loss.backward()
            gnorm = _global_grad_norm(registry)
            clip_scale = min(1.0, config.grad_clip / gnorm) if gnorm > 0 else 1.0
            _apply_update(model.distill, registry, "distill", config.lr_distill, clip_scale)
        trace.append(corpus_distill_mse(corpus, model, contexts))
    return TrainResult(model=model, mse_trace=trace)


def training_log_csv(history: list) -> str:
    lines = ["epoch,loss,temperature"]
    for epoch, loss, tau in history:
        lines.append(f"{epoch},{loss},{tau}")
    return "\n".join(lines) + "\n"


# -- gradient checking ---------------------------------------------------

def _fd_scalar(forward, params_flat: dict, name: str, idx, eps: float) -> float:
    arr = params_flat[name]
    old = arr[idx]
    arr[idx] = old + eps
    f_plus = forward()
    arr[idx] = old - eps
    f_minus = forward()
    arr[idx] = old
    return (f_plus - f_minus) / (2.0 * eps)


def _block_spec(block_id: str, seed: int):
    """Returns (param_tree, forward(tree) -> scalar) for a registered block."""
    from . import nn
    from .encoder import init_encoder_params  # noqa: F401  (registry below)
    rng = CounterRng(seed)

    if block_id == "encoder_layer":
        d = 6
        p = nn.init_attention_layer(rng, d, 4 * d)
        x = rng.normal_matrix(4, d)
        w = rng.normal_matrix(4, d)

        def forward(tree):
            return asum(nn.encoder_block(x, tree) * w)
        return p, forward

    if block_id == "gate":
        d = 4
        p = prompt.init_gate_params(rng, d)
        w_o = rng.normal_matrix(3, d)
        s_o = rng.normal_matrix(3, d)
        wy = rng.normal_matrix(3, d)
        wg = rng.normal(3)

        def forward(tree):
            y, g = prompt.gated_fusion(w_o, s_o, tree)
            return asum(y * wy) + asum(g * wg)
        return p, forward

    if block_id == "scorer":
        d, h = 4, 5
        p = sampler.init_scorer_params(rng, d, h)
        frames = rng.normal_matrix(4, d)
        fused = rng.normal_matrix(4, d)
        w = rng.normal(4)

        def forward(tree):
            return asum(sampler.frame_scores(frames, fused, tree) * w)
        return p, forward

    if block_id == "aggregator":
        d = 6
        p = aggregator.init_aggregator_params(rng, d)
        alpha = softmax(rng.normal(3), axis=-1)
        weighted = aggregator.weight_frames(rng.normal_matrix(3, d), alpha)
        w = rng.normal(d)

        def forward(tree):
            return asum(aggregator.aggregate_video(weighted, tree) * w)
        return p, forward

    if block_id == "distill":
        d = 8
        p = pruner.init_distill_params(rng, d)
        x = rng.normal_matrix(4, d)
        w = rng.normal(d)

        def forward(tree):
            return asum(pruner.distill_forward(x, tree) * w)
        return p, forward

    if block_id == "contrastive":
        b = 3
        p = {"sim": rng.normal_matrix(b, b)}

        def forward(tree):
            return contrastive_loss(tree["sim"])
        return p, forward

    if block_id == "mse":
        d = 6
        p = {"student": rng.normal(d)}
        teacher = rng.normal(d)

        def forward(tree):
            return pruner.mse_distill_loss(tree["student"], teacher)
        return p, forward

    raise ValueError(f"unknown block {block_id!r}")


GRAD_CHECK_BLOCKS = ("encoder_layer", "gate", "scorer", "aggregator",
                     "distill", "contrastive", "mse")


def grad_check(block_id: str, seed: int = 0, epsilon: float = 1e-4,
               corrupt: bool = False, max_entries_per_param: int = 16) -> float:
    """Max relative error between analytic and central-difference gradients.

    Checks up to `max_entries_per_param` evenly strided entries of each
    parameter (always including entry 0).  `corrupt` perturbs one analytic
    gradient entry by 10% to verify the harness itself detects a wrong
    gradient.
    """
    params, forward = _block_spec(block_id, seed)
    registry: dict = {}
    tree = _wrap(params, registry, "p")
    out = forward(tree)
    out.backward()

    from .model import _flatten_into
    flat: dict = {}
    _flatten_into("p", params, flat)

    worst = 0.0
    first = True
    for name, tensor in sorted(registry.items()):
        grad = np.zeros_like(tensor.data) if tensor.grad is None else tensor.grad.copy()
        if corrupt and first:
            grad.flat[0] *= 1.1
            first = False
        arr = flat[name]
        size = arr.size
        stride = max(1, size // max_entries_per_param)
        for flat_idx in range(0, size, stride):
            idx = np.unravel_index(flat_idx, arr.shape) if arr.shape else ()
            fd = _fd_scalar(lambda: float(value(forward(params))),
                            flat, name, idx, epsilon)
            ga = float(grad[idx]) if grad.shape else float(grad)
            err = abs(ga - fd) / max(abs(ga), abs(fd), 1e-8)
            worst = max(worst, err)
    return worst
