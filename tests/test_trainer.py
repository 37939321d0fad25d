import dataclasses

import numpy as np
import pytest

from proclip import engine, pruner, trainer
from proclip.autodiff import Tensor, asum, concat, reshape
from proclip.corpus import SynthSpec, synth_corpus
from proclip.encoder import encode_video
from proclip.model import flatten_params, init_model_params
from proclip.rng import CounterRng
from proclip.trainer import TrainConfig, contrastive_loss


@pytest.fixture(scope="module")
def tiny_corpus():
    return synth_corpus(SynthSpec(n_videos=8, n_queries=8, frames_per_video=6,
                                  d_v=8, d=8, relevance_snr=10.0, seed=2))


@pytest.fixture(scope="module")
def mixed_corpus():
    """Six videos of 12/5/7/12/9/9 frames; query j's ground truth is video j.
    The two 12-frame videos share an encoder depth, the 9-frame ones do not,
    so the batch's blocks come in another order than its videos."""
    corpus = synth_corpus(SynthSpec(n_videos=6, n_queries=6, frames_per_video=12,
                                    d_v=8, d=8, relevance_snr=10.0, seed=4))
    for i, (n, duration) in enumerate(zip((12, 5, 7, 12, 9, 9),
                                          (30.0, 75.0, 30.0, 30.0, 30.0, 75.0))):
        v = corpus.videos[i]
        corpus.videos[i] = dataclasses.replace(v, duration_s=duration,
                                               raw_frames=v.raw_frames[:n],
                                               clip_frames=v.clip_frames[:n])
    return corpus


def _wrapped(model):
    registry: dict = {}
    groups = {g: trainer._wrap(model.group(g), registry, g) for g in trainer.STAGE1_GROUPS}
    return dataclasses.replace(model, **groups), registry


def _loss(sim):
    return float(np.asarray(contrastive_loss(np.asarray(sim, dtype=float))))


def test_contrastive_uniform_matrix_gives_log_batch_size():
    for b in (1, 2, 3, 7):
        assert abs(_loss(np.full((b, b), 1.3)) - np.log(b)) < 1e-9


def test_contrastive_saturated_diagonal_is_near_zero():
    assert _loss([[10.0, -10.0], [-10.0, 10.0]]) < 1e-6


def test_contrastive_shift_invariance_and_symmetry():
    sim = CounterRng(0).normal_matrix(4, 4)
    assert abs(_loss(sim) - _loss(sim + 37.5)) < 1e-6
    assert abs(_loss(sim) - _loss(sim.T)) < 1e-9
    assert _loss(sim) >= 0.0


def test_contrastive_matches_log_sum_exp_oracle():
    sim = CounterRng(1).normal_matrix(3, 3)
    b = 3
    v2t = t2v = 0.0
    for i in range(b):
        v2t += -sim[i, i] + np.log(np.sum(np.exp(sim[i, :])))
        t2v += -sim[i, i] + np.log(np.sum(np.exp(sim[:, i])))
    expected = 0.5 * (v2t + t2v) / b
    assert abs(_loss(sim) - expected) < 1e-9


def test_contrastive_rejects_non_square():
    with pytest.raises(ValueError):
        contrastive_loss(np.zeros((2, 3)))


def test_contrastive_gradient_descent_direction():
    sim = Tensor(np.zeros((3, 3)))
    loss = contrastive_loss(sim)
    loss.backward()
    # positives must be pushed up, negatives down
    assert np.all(np.diag(sim.grad) < 0)
    off = sim.grad[~np.eye(3, dtype=bool)]
    assert np.all(off > 0)


def test_grad_check_registered_blocks():
    assert trainer.grad_check("gate") < 1e-4
    assert trainer.grad_check("contrastive") < 1e-6


def test_grad_check_detects_planted_fault():
    assert trainer.grad_check("gate", corrupt=True) > 1e-2


def test_grad_check_unknown_block():
    with pytest.raises(ValueError):
        trainer.grad_check("nonsense")


def test_batches_have_distinct_targets_and_are_seeded(tiny_corpus):
    rng_a, rng_b = CounterRng(5), CounterRng(5)
    a = trainer._make_batches(tiny_corpus, 4, rng_a)
    b = trainer._make_batches(tiny_corpus, 4, rng_b)
    assert [[q.id for q in batch] for batch in a] == \
           [[q.id for q in batch] for batch in b]
    for batch in a:
        gts = [q.ground_truth_video for q in batch]
        assert len(set(gts)) == len(gts)
        assert 2 <= len(batch) <= 4


def test_batching_rejects_degenerate_corpus():
    corpus = synth_corpus(SynthSpec(n_videos=1, n_queries=1, d_v=8, d=8, seed=0))
    with pytest.raises(ValueError):
        trainer._make_batches(corpus, 4, CounterRng(0))


def test_stage1_smoke_and_determinism(tiny_corpus):
    config = TrainConfig(batch_size=4, epochs=2, seed=0, k_frames=3)
    a = trainer.train_retrieval_stage(tiny_corpus, config)
    b = trainer.train_retrieval_stage(tiny_corpus, config)
    assert len(a.history) == 2
    assert all(np.isfinite(loss) for _, loss, _ in a.history)
    taus = [tau for _, _, tau in a.history]
    assert taus[1] < taus[0]  # anneal advanced across epochs
    fa, fb = flatten_params(a.model), flatten_params(b.model)
    for name in fa:
        assert fa[name].tobytes() == fb[name].tobytes(), name


def test_stage1_leaves_input_model_untouched(tiny_corpus):
    start = init_model_params(0, 8, 8)
    before = {k: v.tobytes() for k, v in flatten_params(start).items()}
    trainer.train_retrieval_stage(tiny_corpus,
                                  TrainConfig(batch_size=4, epochs=1, k_frames=3),
                                  model=start)
    after = {k: v.tobytes() for k, v in flatten_params(start).items()}
    assert before == after


def test_distill_freezes_everything_else(tiny_corpus):
    model = init_model_params(0, 8, 8)
    config = TrainConfig(batch_size=4, epochs=2)
    result = trainer.train_distill_stage(tiny_corpus, model, config)
    before = flatten_params(model)
    after = flatten_params(result.model)
    changed = [n for n in before if before[n].tobytes() != after[n].tobytes()]
    assert changed and all(n.startswith("distill.") for n in changed)
    frozen = [n for n in before if not n.startswith("distill.")]
    assert all(before[n].tobytes() == after[n].tobytes() for n in frozen)
    assert len(result.mse_trace) == config.epochs + 1
    assert result.mse_trace[-1] < result.mse_trace[0]


def test_corpus_distill_mse_is_nonnegative(tiny_corpus):
    model = init_model_params(0, 8, 8)
    assert trainer.corpus_distill_mse(tiny_corpus, model) >= 0.0


def test_training_log_csv_format():
    text = trainer.training_log_csv([(0, 1.5, 5.0), (1, 1.25, 4.0)])
    assert text == "epoch,loss,temperature\n0,1.5,5.0\n1,1.25,4.0\n"


def test_batch_similarity_matrix_equals_the_pair_loop(mixed_corpus):
    model = init_model_params(3, 8, 8)
    batch = mixed_corpus.queries
    videos = {v.id: v for v in mixed_corpus.videos}
    weights = CounterRng(6).normal_matrix(6, 6)
    k_frames, tau = 6, 0.8

    view, batched = _wrapped(model)
    sim = trainer.batch_similarity_matrix(batch, videos, view, k_frames, tau)
    asum(sim * weights).backward()

    # reference: one encoder pass per video, one fine_similarity per pair
    view, looped = _wrapped(model)
    rows = []
    for q_video in batch:
        v = videos[q_video.ground_truth_video]
        ctx = encode_video(v.raw_frames.astype(np.float64), v.duration_s, view.encoder)
        rows.append(concat([reshape(engine.fine_similarity(
            q.words.astype(np.float64), q.sentence.astype(np.float64), ctx,
            v.clip_frames, view, k_frames, tau), (1, 1)) for q in batch], axis=-1))
    ref = concat(rows, axis=0)
    asum(ref * weights).backward()

    assert sim.shape == (6, 6)
    assert np.max(np.abs(sim.data - ref.data)) <= 1e-12
    assert batched.keys() == looped.keys()
    for name, t in batched.items():
        if name.startswith("logit_scale"):  # scales the loss, not the matrix
            assert t.grad is None and looped[name].grad is None
        else:
            assert np.max(np.abs(t.grad - looped[name].grad)) <= 1e-12, name


def test_blocked_distill_loss_equals_the_per_video_sum(mixed_corpus):
    model = init_model_params(3, 8, 8)
    videos = mixed_corpus.videos
    contexts = trainer._encode_corpus(mixed_corpus, model)

    reg_blocked: dict = {}
    loss = trainer.distill_loss(videos, contexts,
                                trainer._wrap(model.distill, reg_blocked, "distill"))
    loss.backward()

    reg_loop: dict = {}
    view = trainer._wrap(model.distill, reg_loop, "distill")
    per_video = [asum((pruner.distill_forward(contexts[v.id], view)
                       - v.teacher_video.astype(np.float64)) ** 2) for v in videos]
    ref = sum(per_video[1:], per_video[0]) * (1.0 / len(videos))
    ref.backward()

    assert abs(float(loss.data) - float(ref.data)) <= 1e-12
    assert abs(trainer.corpus_distill_mse(mixed_corpus, model) - float(ref.data)) <= 1e-12
    for name, t in reg_blocked.items():
        assert np.max(np.abs(t.grad - reg_loop[name].grad)) <= 1e-12, name


@pytest.mark.parametrize("stage,field", [("retrieval", "lr_head"),
                                         ("retrieval", "lr_backbone"),
                                         ("distill", "lr_distill")])
def test_a_non_finite_update_stops_training(tiny_corpus, stage, field):
    config = dataclasses.replace(TrainConfig(batch_size=4, epochs=2, k_frames=3),
                                 **{field: float("nan")})
    model = init_model_params(0, 8, 8)
    with pytest.raises(ValueError, match=f"{stage} stage, epoch 0, step 0: the update left"):
        if stage == "retrieval":
            trainer.train_retrieval_stage(tiny_corpus, config, model)
        else:
            trainer.train_distill_stage(tiny_corpus, model, config)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_a_non_finite_loss_stops_training(tiny_corpus):
    model = init_model_params(0, 8, 8)
    model.logit_scale["log_scale"][...] = 1e3  # exp overflows: the first loss is inf
    with pytest.raises(ValueError, match="retrieval stage, epoch 0, step 0: loss is"):
        trainer.train_retrieval_stage(tiny_corpus, TrainConfig(batch_size=4, epochs=1,
                                                               k_frames=3), model)
