"""Two-stage optimization and the gradient verification harness.

Stage 1 trains the sampling and aggregation path end to end with the
symmetric contrastive loss over a batch similarity matrix.  The matrix
comes from retrieval's fine-stage forward, `engine.fine_similarity`, with
the relaxed top-k in place of the exact one; its temperature follows
`sampler.anneal_temperature`.  Stage 2 freezes everything except the
distillation encoder and regresses it onto the teacher video features
with MSE.  Plain gradient descent with per-group learning rates and
global-norm clipping keeps runs deterministic.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import aggregator, engine, nn, prompt, pruner, sampler
from .autodiff import Tensor, asum, concat, exp, log_softmax, mean, reshape, softmax, value
from .corpus import CorpusBundle
# stage 1 encodes through engine.encoded_blocks; the name stays importable
# here because perfbench's tracer test checks it is wrapped in this module
from .encoder import encode_video  # noqa: F401
from .model import ModelParams, _flatten_into, init_model_params
from .rng import CounterRng


@dataclass
class TrainConfig:
    batch_size: int = 8
    epochs: int = 20
    lr_backbone: float = 1e-3   # temporal encoder
    lr_head: float = 1e-2       # gate, scorer, aggregator, logit scale
    lr_distill: float = 1e-1    # distillation encoder (stage 2's only head)
    seed: int = 0
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


def _descend(loss, registry: dict, updates, grad_clip: float, where: str) -> None:
    """Backpropagate `loss`, then take one gradient step on each (params,
    prefix, lr) of `updates`, clipped to the global norm `grad_clip`.  A
    non-finite loss or update raises ValueError naming `where`."""
    if not np.isfinite(loss.data):
        raise ValueError(f"{where}: loss is {float(loss.data)}")
    loss.backward()
    grads = {name: t.grad for name, t in registry.items() if t.grad is not None}
    gnorm = float(np.sqrt(sum(float(np.sum(g ** 2)) for g in grads.values())))
    scale = min(1.0, grad_clip / gnorm) if gnorm > 0 else 1.0
    for params, prefix, lr in updates:
        flat: dict = {}
        _flatten_into(prefix, params, flat)  # the arrays of `params` themselves
        for name, arr in flat.items():
            if name in grads:
                arr -= lr * scale * grads[name]
                if not np.isfinite(arr).all():
                    raise ValueError(f"{where}: the update left {name} NaN or inf")


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


def batch_similarity_matrix(batch, videos_by_id: dict, model_view: ModelParams,
                            k_frames: int, tau: float):
    """B x B matrix with entry (i, j) = s(video_i | query_j, text_j).

    The batch's videos are encoded per block of one frame count and encoder
    depth; each query then takes one `fine_similarity` over each block."""
    videos = [videos_by_id[q.ground_truth_video] for q in batch]
    queries = [(q.words.astype(np.float64), q.sentence.astype(np.float64)) for q in batch]
    blocks, order = [], []
    for block, rows in engine.encoded_blocks(videos, model_view.encoder):
        clips = np.stack([v.clip_frames for v in block])
        columns = [reshape(engine.fine_similarity(words, sentence, rows, clips, model_view,
                                                  k_frames, tau), (-1, 1))
                   for words, sentence in queries]
        blocks.append(concat(columns, axis=-1))
        order += [v.id for v in block]
    row_of = {vid: i for i, vid in enumerate(order)}
    return concat(blocks, axis=0)[np.array([row_of[v.id] for v in videos])]


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
    updates = [(model.group(g), g, config.lr_backbone if kind == "backbone" else config.lr_head)
               for g, kind in STAGE1_GROUPS.items()]
    history = []
    step = 0
    for epoch in range(config.epochs):
        losses = []
        for batch in batches:
            tau = sampler.anneal_temperature(step)
            registry: dict = {}
            view = dataclasses.replace(model, **{g: _wrap(model.group(g), registry, g)
                                                 for g in STAGE1_GROUPS})
            sim = batch_similarity_matrix(batch, videos_by_id, view, config.k_frames, tau)
            loss = contrastive_loss(sim * exp(view.logit_scale["log_scale"]))
            _descend(loss, registry, updates, config.grad_clip,
                     f"retrieval stage, epoch {epoch}, step {step}")
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


def distill_loss(videos, contexts: dict, distill_params):
    """Mean over `videos` of the squared distance between each distilled
    embedding and its teacher feature, one `distill_forward` per block of
    equal frame count.  Differentiable when `distill_params` holds Tensors."""
    per_video = []
    for block in engine.frame_blocks(videos):
        phi = pruner.distill_forward(np.stack([contexts[v.id] for v in block]), distill_params)
        err = phi - np.stack([v.teacher_video for v in block]).astype(np.float64)
        per_video.append(asum(err * err, axis=-1))
    return mean(concat(per_video, axis=0))


def corpus_distill_mse(corpus: CorpusBundle, model: ModelParams,
                       contexts: dict | None = None) -> float:
    """Mean MSE between distilled and teacher video features over the corpus."""
    if contexts is None:
        contexts = _encode_corpus(corpus, model)
    return float(distill_loss(corpus.videos, contexts, model.distill))


def train_distill_stage(corpus: CorpusBundle, model: ModelParams,
                        config: TrainConfig) -> TrainResult:
    model = copy.deepcopy(model)
    contexts = _encode_corpus(corpus, model)  # backbone frozen: fixed inputs
    trace = [corpus_distill_mse(corpus, model, contexts)]
    videos = list(corpus.videos)
    step = 0
    for epoch in range(config.epochs):
        for start in range(0, len(videos), config.batch_size):
            registry: dict = {}
            distill_view = _wrap(model.distill, registry, "distill")
            loss = distill_loss(videos[start:start + config.batch_size], contexts, distill_view)
            _descend(loss, registry, [(model.distill, "distill", config.lr_distill)],
                     config.grad_clip, f"distill stage, epoch {epoch}, step {step}")
            step += 1
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
