import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proclip import autodiff as ad
from proclip import sampler
from proclip.rng import CounterRng
from test_autodiff import check_grad


def _constant_logit_params(d, hidden, logit=1.0, relevance_logit=0.0):
    return {
        "f_w1": np.zeros((d, hidden)), "f_b1": np.zeros(hidden),
        "f_w2": np.zeros((hidden, 1)), "f_b2": np.array([logit]),
        "y_w1": np.zeros((d, hidden)), "y_b1": np.zeros(hidden),
        "y_w2": np.zeros((hidden, 1)), "y_b2": np.array([relevance_logit]),
    }


def test_constant_heads_give_half_scores():
    params = _constant_logit_params(3, 4, logit=1.0, relevance_logit=0.0)
    rng = CounterRng(0)
    scores = sampler.frame_scores(rng.normal_matrix(5, 3), rng.normal_matrix(5, 3),
                                  params)
    assert np.allclose(scores, 0.5)  # logit 1 * sigmoid(0)


def test_saturated_relevance_passes_raw_logits():
    rng = CounterRng(1)
    d, hidden = 3, 4
    params = sampler.init_scorer_params(rng, d, hidden)
    params["y_w1"][:] = 0.0
    params["y_b1"][:] = 0.0
    params["y_w2"][:] = 0.0
    params["y_b2"][:] = 40.0  # sigmoid saturates to 1
    frames = rng.normal_matrix(4, d)
    fused = rng.normal_matrix(4, d)
    logits = (np.maximum(frames @ params["f_w1"] + params["f_b1"], 0.0)
              @ params["f_w2"] + params["f_b2"]).ravel()
    assert np.allclose(sampler.frame_scores(frames, fused, params), logits,
                       atol=1e-6)


def test_frame_scores_match_reference():
    rng = CounterRng(2)
    d, hidden = 3, 3
    params = sampler.init_scorer_params(rng, d, hidden)
    frames = rng.normal_matrix(4, d)
    fused = rng.normal_matrix(4, d)
    logits = (np.maximum(frames @ params["f_w1"] + params["f_b1"], 0.0)
              @ params["f_w2"] + params["f_b2"]).ravel()
    rel_logits = (np.maximum(fused @ params["y_w1"] + params["y_b1"], 0.0)
                  @ params["y_w2"] + params["y_b2"]).ravel()
    expected = logits / (1.0 + np.exp(-rel_logits))
    assert np.allclose(sampler.frame_scores(frames, fused, params), expected,
                       atol=1e-12)


def test_frame_scores_shape_mismatch():
    with pytest.raises(ValueError):
        sampler.frame_scores(np.zeros((3, 2)), np.zeros((4, 2)),
                             _constant_logit_params(2, 2))


def test_topk_worked_example():
    sel = sampler.topk_infer(np.array([0.1, 0.9, 0.5]), 2)
    assert sel.indices.tolist() == [1, 2]
    e = np.exp([0.9, 0.5])
    assert np.allclose(sel.alpha, e / e.sum())
    assert np.allclose(sel.alpha, [0.598687660112452, 0.401312339887548])


def test_topk_ties_prefer_lower_index():
    sel = sampler.topk_infer(np.array([0.3, 0.3, 0.3, 0.3]), 2)
    assert sel.indices.tolist() == [0, 1]
    assert np.allclose(sel.alpha, [0.5, 0.5])


def test_topk_batch_matches_row_by_row():
    scores = np.array([[0.3, 0.3, 0.3, 0.3, 0.3],
                       [0.1, 0.9, 0.5, 0.9, -2.0],
                       [0.7, -1.0, 0.7, 0.2, 0.7]])
    for k in (1, 2, 3, 5):
        batch = sampler.topk_infer(scores, k)
        for row, s in enumerate(scores):
            one = sampler.topk_infer(s, k)
            assert batch.indices[row].tolist() == one.indices.tolist()
            assert batch.alpha[row].tobytes() == one.alpha.tobytes()


def test_topk_full_selection():
    scores = np.array([0.2, -1.0, 0.7])
    sel = sampler.topk_infer(scores, 3)
    assert sel.indices.tolist() == [0, 1, 2]
    e = np.exp(scores - scores.max())
    assert np.allclose(sel.alpha, e / e.sum())


def _gather_select(scores, clips, k):
    """Exact selection as a sort and two gathers, whatever k is."""
    order = np.argsort(-scores, axis=-1, kind="stable")
    indices = np.sort(order[..., :k], axis=-1)
    alpha = ad.softmax(np.take_along_axis(scores, indices, axis=-1))
    picked = np.take_along_axis(clips, indices[..., None], axis=-2).astype(np.float64)
    return indices, alpha, picked


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
@pytest.mark.parametrize("clip_dtype", [np.float32, np.float64])
def test_selection_is_bitwise_the_gather_path_for_every_k(lead, clip_dtype):
    rng = CounterRng(21)
    n, d = 6, 4
    scores = rng.normal_matrix(int(np.prod(lead)), n).reshape(lead + (n,))
    scores[..., 2] = scores[..., 4]  # a tie inside every row
    clips = rng.normal_matrix(int(np.prod(lead)) * n, d).reshape(lead + (n, d)).astype(clip_dtype)
    before = scores.copy(), clips.copy()
    for k in range(1, n + 1):
        indices, alpha, picked = _gather_select(scores, clips, k)
        sel = sampler.topk_infer(scores, k)
        assert sel.indices.shape == indices.shape and sel.indices.tolist() == indices.tolist()
        assert sel.alpha.tobytes() == alpha.tobytes()
        got, got_alpha = sampler.select_frames(scores, clips, k)
        assert got.dtype == np.float64 and got.shape == picked.shape
        assert got.tobytes() == picked.tobytes() and got_alpha.tobytes() == alpha.tobytes()
        assert not np.shares_memory(got, clips) and not np.shares_memory(got_alpha, scores)
    assert scores.tobytes() == before[0].tobytes() and clips.tobytes() == before[1].tobytes()


def test_topk_rejects_bad_k():
    for k in (0, 4):
        with pytest.raises(ValueError):
            sampler.topk_infer(np.zeros(3), k)


def test_hard_topk_cold_limit_matches_exact_selection():
    scores = np.array([0.1, 0.9, 0.5])
    soft = sampler.hard_topk_train(scores, 2, 1e-4)
    w = np.asarray(soft)
    assert np.allclose(w[0], [0, 1, 0], atol=1e-6)
    assert np.allclose(w[1], [0, 0, 1], atol=1e-6)
    assert sorted(np.argmax(w, axis=1)) == sampler.topk_infer(scores, 2).indices.tolist()


def test_hard_topk_hot_limit_is_uniform():
    soft = sampler.hard_topk_train(np.array([0.3, -0.2, 0.8]), 1, 1e4)
    assert np.allclose(np.asarray(soft)[0], 1.0 / 3.0, atol=1e-3)


def test_hard_topk_validates_inputs():
    with pytest.raises(ValueError):
        sampler.hard_topk_train(np.zeros(3), 5, 1.0)
    with pytest.raises(ValueError):
        sampler.hard_topk_train(np.zeros(3), 1, 0.0)


def test_hard_topk_batch_matches_row_by_row():
    rng = CounterRng(13)
    tied = np.array([[0.3, 0.3, 0.3, 0.3, 0.3, 0.3],
                     [0.1, 0.9, 0.5, 0.9, -2.0, 0.5],
                     [0.7, -1.0, 0.7, 0.2, 0.7, 0.2]])
    for scores in (tied, np.round(rng.normal(2 * 3 * 6), 1).reshape(2, 3, 6)):
        for k, tau in ((1, 1e-4), (3, 0.5), (6, 2.0)):
            batch = np.asarray(sampler.hard_topk_train(scores, k, tau))
            assert batch.shape == scores.shape[:-1] + (k, 6)
            for idx in np.ndindex(scores.shape[:-1]):
                one = np.asarray(sampler.hard_topk_train(scores[idx], k, tau))
                assert batch[idx].tobytes() == one.tobytes()


def test_hard_topk_batch_gradient():
    rng = CounterRng(14)
    scores = rng.normal_matrix(3, 5)
    w = rng.normal(3 * 4 * 5).reshape(3, 4, 5)
    check_grad(lambda s: ad.asum(sampler.hard_topk_train(s, 4, 0.7) * w),
               scores, tol=1e-6)


def test_anneal_schedule():
    assert sampler.anneal_temperature(0) == 5.0
    assert np.isclose(sampler.anneal_temperature(10), 5.0 * np.exp(-0.45))
    taus = [sampler.anneal_temperature(s) for s in range(200)]
    assert all(b < a for a, b in zip(taus, taus[1:]))
    with pytest.raises(ValueError):
        sampler.anneal_temperature(-1)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 16), st.integers(0, 2**32 - 1),
       st.floats(1e-3, 1e3), st.data())
def test_relaxed_rows_are_distributions_with_distinct_argmaxes(n, seed, tau, data):
    k = data.draw(st.integers(1, n))
    scores = CounterRng(seed).normal(n)
    soft = sampler.hard_topk_train(scores, k, tau)
    w = np.asarray(soft)
    assert w.shape == (k, n)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-5)
    argmaxes = np.argmax(w, axis=1)
    assert len(set(argmaxes.tolist())) == k
