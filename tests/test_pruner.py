import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proclip import nn, pruner
from proclip.autodiff import Tensor
from proclip.corpus import SynthSpec, synth_corpus
from proclip.encoder import add_positional, encode_video
from proclip.model import init_model_params
from proclip.rng import CounterRng


def test_distill_requires_head_divisible_width():
    with pytest.raises(ValueError):
        pruner.init_distill_params(CounterRng(0), 12)


def test_distilled_embedding_is_unit_norm():
    rng = CounterRng(1)
    params = pruner.init_distill_params(rng, 8)
    for _ in range(100):
        n = 1 + int(rng.integers(1, 12)[0])
        phi = pruner.distill_forward(rng.normal_matrix(n, 8), params)
        assert abs(np.linalg.norm(phi) - 1.0) < 1e-6


def test_distill_forward_matches_reference():
    rng = CounterRng(2)
    d = 8
    params = pruner.init_distill_params(rng, d)
    x = rng.normal_matrix(4, d)

    h = add_positional(x @ params["proj_w"] + params["proj_b"])
    for layer in params["layers"]:
        h = nn.multi_head_block(h, layer, pruner.DISTILL_HEADS)
    expected = h.mean(axis=0)
    expected /= np.linalg.norm(expected)
    assert np.allclose(pruner.distill_forward(x, params), expected, atol=1e-12)
    assert len(params["layers"]) == 3


def test_distill_forward_batch_equals_rows():
    rng = CounterRng(6)
    params = pruner.init_distill_params(rng, 16)
    x = rng.normal(3 * 12 * 16).reshape(3, 12, 16)
    batch = pruner.distill_forward(x, params)
    assert batch.shape == (3, 16)
    for c in range(3):  # each item alone, bit for bit
        assert pruner.distill_forward(x[c], params).tobytes() == batch[c].tobytes()
    wrapped = {**params, "layers": [{k: Tensor(v) for k, v in layer.items()}
                                    for layer in params["layers"]]}
    assert np.allclose(pruner.distill_forward(Tensor(x), wrapped).data, batch, atol=1e-12)


def test_single_row_pooling_is_identity_before_normalization():
    rng = CounterRng(3)
    params = pruner.init_distill_params(rng, 8)
    x = rng.normal_matrix(1, 8)
    h = add_positional(x @ params["proj_w"] + params["proj_b"])
    for layer in params["layers"]:
        h = nn.multi_head_block(h, layer, pruner.DISTILL_HEADS)
    assert np.allclose(pruner.distill_forward(x, params),
                       h[0] / np.linalg.norm(h[0]), atol=1e-12)


def test_mse_loss_basic_values():
    assert pruner.mse_distill_loss(np.ones(4), np.ones(4)) == 0.0
    assert pruner.mse_distill_loss(np.array([1.0, 0.0]),
                                   np.array([0.0, 1.0])) == 2.0


def test_mse_loss_batch_mean():
    rng = CounterRng(4)
    s = rng.normal_matrix(3, 5)
    t = rng.normal_matrix(3, 5)
    expected = sum(np.sum((s[i] - t[i]) ** 2) for i in range(3)) / 3.0
    assert np.isclose(pruner.mse_distill_loss(s, t), expected, atol=1e-12)
    with pytest.raises(ValueError):
        pruner.mse_distill_loss(np.zeros(3), np.zeros(4))


def _random_embeddings(n, d=6, seed=0):
    rng = CounterRng(seed)
    return {f"vid_{i:05d}": rng.unit_vectors(1, d)[0] for i in range(n)}


def test_prune_full_ratio_keeps_everything_sorted():
    distilled = _random_embeddings(9)
    query = CounterRng(1).unit_vectors(1, 6)[0]
    cs = pruner.prune_candidates(query, distilled, 100.0)
    assert len(cs.video_ids) == 9
    assert np.all(np.diff(cs.coarse_scores) <= 0)
    expected = {vid: float(np.dot(v, query) / np.linalg.norm(v) / np.linalg.norm(query))
                for vid, v in distilled.items()}
    for vid, score in zip(cs.video_ids, cs.coarse_scores):
        assert np.isclose(score, expected[vid], atol=1e-12)


def _reference_prune(query, distilled):
    """Stage 1 as a per-query pass: sort the ids, stack the rows, score, sort."""
    ids = sorted(distilled)
    mat = np.stack([np.asarray(distilled[i], dtype=np.float64) for i in ids])
    sentence = np.asarray(query, dtype=np.float64)
    scores = (mat @ sentence) / (np.linalg.norm(mat, axis=1) * np.linalg.norm(sentence))
    order = np.argsort(-scores, kind="stable")
    return [ids[i] for i in order], scores[order]


@pytest.mark.parametrize("row_dtype", [np.float64, np.float32])
def test_packed_path_is_bitwise_the_dict_path(row_dtype):
    rng = CounterRng(8)
    rows = rng.unit_vectors(300, 32)
    # every row appears twice under ids far apart, so ties must break by id
    distilled = {f"vid_{(i * 7919) % 600:05d}": rows[i % 300].astype(row_dtype)
                 for i in range(600)}
    packed = pruner.PackedEmbeddings.pack(distilled)
    assert packed.matrix.dtype == np.float64
    for query in rng.unit_vectors(5, 32):
        ref_ids, ref_scores = _reference_prune(query, distilled)
        for source in (distilled, packed):
            cs = pruner.prune_candidates(query, source, 100.0)
            assert cs.video_ids == ref_ids
            assert cs.coarse_scores.dtype == np.float64
            assert cs.coarse_scores.tobytes() == ref_scores.tobytes()
        narrow = pruner.prune_candidates(query, packed, 10.0)
        assert narrow.video_ids == ref_ids[:60]


def test_prune_candidate_count_uses_ceiling():
    distilled = _random_embeddings(1000)
    query = CounterRng(2).unit_vectors(1, 6)[0]
    assert len(pruner.prune_candidates(query, distilled, 50.0).video_ids) == 500
    assert len(pruner.prune_candidates(query, distilled, 0.05).video_ids) == 1
    distilled7 = _random_embeddings(7)
    assert len(pruner.prune_candidates(query, distilled7, 50.0).video_ids) == 4


def test_prune_ties_resolved_by_id_order():
    v = np.array([1.0, 0.0])
    distilled = {"vid_b": v.copy(), "vid_a": v.copy(), "vid_c": -v}
    cs = pruner.prune_candidates(np.array([2.0, 0.0]), distilled, 100.0)
    assert cs.video_ids == ["vid_a", "vid_b", "vid_c"]


def test_prune_candidate_sets_are_nested():
    distilled = _random_embeddings(37, seed=5)
    query = CounterRng(6).unit_vectors(1, 6)[0]
    previous = []
    for k in (10, 25, 50, 75, 100):
        ids = pruner.prune_candidates(query, distilled, k).video_ids
        assert ids[: len(previous)] == previous
        previous = ids


def test_prune_rejects_bad_inputs():
    distilled = _random_embeddings(3)
    with pytest.raises(ValueError):
        pruner.prune_candidates(np.ones(6), distilled, 0.0)
    with pytest.raises(ValueError):
        pruner.prune_candidates(np.ones(6), distilled, 101.0)
    with pytest.raises(ValueError):
        pruner.prune_candidates(np.ones(6), {}, 50.0)


def test_planted_corpus_single_candidate_is_ground_truth():
    # the teacher features themselves act as ideal distilled embeddings
    bundle = synth_corpus(SynthSpec(n_videos=10, n_queries=10,
                                    relevance_snr=10.0, seed=9))
    distilled = {v.id: v.teacher_video.astype(np.float64) for v in bundle.videos}
    for q in bundle.queries:
        cs = pruner.prune_candidates(q.sentence.astype(np.float64), distilled, 10.0)
        assert cs.video_ids == [q.ground_truth_video]


def test_distill_pipeline_determinism():
    model = init_model_params(0, 5, 8)
    rng = CounterRng(7)
    raw = rng.normal_matrix(6, 5)
    ctx = encode_video(raw, 30.0, model.encoder).rows
    a = pruner.distill_forward(ctx, model.distill)
    b = pruner.distill_forward(ctx, model.distill)
    assert np.array_equal(a, b)


# a few values drawn often, so most draws hold ties, -0.0 beside 0.0, and NaN
_TIE_PRONE = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, np.inf, -np.inf, np.nan]),
                       st.floats(-2.0, 2.0))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(_TIE_PRONE, min_size=1, max_size=300), st.integers(0, 3))
def test_descending_order_is_the_stable_argsort(values, copies):
    scores = np.array(values * (copies + 1))  # duplicated runs: ties far apart
    got = pruner.descending_order(scores)
    assert got.tolist() == np.argsort(-scores, kind="stable").tolist()


def test_descending_order_on_signed_zeros_and_nans():
    zeros = np.array([0.0, -0.0, 1.0] * 40 + [-0.0, 0.0] * 40)
    # no two finite scores are equal, so only the NaNs can reorder
    nans = CounterRng(14).normal_matrix(1, 3000)[0]
    nans[::3] = np.nan
    for scores in (zeros, nans, np.full(2000, np.nan)):
        expected = np.argsort(-scores, kind="stable")
        assert pruner.descending_order(scores).tolist() == expected.tolist()


@pytest.fixture(scope="module")
def packed_and_scores():
    distilled = _random_embeddings(40, seed=12)
    distilled["vid_99999"] = distilled["vid_00003"].copy()  # a tie broken by id
    query = CounterRng(13).unit_vectors(1, 6)[0]
    packed = pruner.PackedEmbeddings.pack(distilled)
    return distilled, query, pruner.prune_candidates(query, packed, 25.0)


def test_every_score_equals_the_dict_of_the_full_ranking(packed_and_scores):
    distilled, query, cs = packed_and_scores
    full = pruner.prune_candidates(query, distilled, 100.0)
    old = dict(zip(full.video_ids, full.coarse_scores.tolist()))
    view = cs.every_score
    assert view == old and old == view and dict(view) == old
    assert list(view) == full.video_ids and len(view) == len(distilled)
    assert list(view.items()) == list(old.items())
    assert all(type(v) is float for v in view.values())
    assert cs.video_ids == full.video_ids[:len(cs.video_ids)]


def test_every_score_is_read_only_and_refuses_unknown_ids(packed_and_scores):
    _, _, cs = packed_and_scores
    view = cs.every_score
    first = next(iter(view))
    with pytest.raises(TypeError):
        view[first] = 0.0
    with pytest.raises(TypeError):
        del view[first]
    assert not hasattr(view, "pop") and not hasattr(view, "update")
    with pytest.raises(KeyError):
        view["vid_missing"]
    assert "vid_missing" not in view and view.get("vid_missing") is None
