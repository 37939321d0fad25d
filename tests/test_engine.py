import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest

from proclip import engine, pruner
from proclip.corpus import CorpusFormatError, SynthSpec, synth_corpus
from proclip.encoder import depth_for_duration, encode_video
from proclip.model import init_model_params


def full_scoring_oracle(query, index, k_frames=12):
    """Pruning-disabled ranking: fine-score every video, sort by (-score, id)."""
    by_id = {v.id: v for v in index.corpus.videos}
    scores = {}
    for vid, ctx in index.contexts.items():
        scores[vid], _ = engine.stage2_score(query, by_id[vid], ctx,
                                             index.model, k_frames)
    return sorted(scores, key=lambda vid: (-scores[vid], vid))


@pytest.fixture(scope="module")
def index(small_corpus, small_model):
    return engine.index_corpus(small_corpus, small_model)


def test_index_build_is_deterministic(small_corpus, small_model):
    a = engine.index_corpus(small_corpus, small_model)
    b = engine.index_corpus(small_corpus, small_model)
    assert set(a.distilled) == {v.id for v in small_corpus.videos}
    for vid in a.distilled:
        assert a.distilled[vid].tobytes() == b.distilled[vid].tobytes()
        assert a.contexts[vid].tobytes() == b.contexts[vid].tobytes()
    assert a.build_stats["n_videos"] == len(small_corpus.videos)


def test_index_rejects_dim_mismatch(small_corpus):
    with pytest.raises(ValueError):
        engine.index_corpus(small_corpus, init_model_params(0, 9, 8))


def test_index_rejects_a_video_without_frames(small_corpus, small_model):
    v = small_corpus.videos[4]
    empty = dataclasses.replace(v, raw_frames=v.raw_frames[:0], clip_frames=v.clip_frames[:0])
    corpus = dataclasses.replace(small_corpus, videos=small_corpus.videos[:4] + [empty])
    with pytest.raises(ValueError, match=f"video '{v.id}' has no frames"):
        engine.index_corpus(corpus, small_model)


@pytest.fixture(scope="module")
def strata_corpus():
    """80 videos of 8, 16, 24 or 32 frames, with both encoder depths."""
    corpus = synth_corpus(SynthSpec(n_videos=80, n_queries=2, frames_per_video=32,
                                    d_v=8, d=16, seed=7))
    videos = [dataclasses.replace(v, raw_frames=v.raw_frames[:n], clip_frames=v.clip_frames[:n])
              for v, n in zip(corpus.videos, itertools.cycle((8, 16, 24, 32)))]
    return dataclasses.replace(corpus, videos=videos)


@pytest.mark.parametrize("block_rows", [engine.BLOCK_ROWS, 40, 10])
def test_blocked_index_build_equals_per_video_loop(strata_corpus, block_rows, monkeypatch):
    monkeypatch.setattr(engine, "BLOCK_ROWS", block_rows)
    videos = strata_corpus.videos
    blocks = list(engine.frame_blocks(videos, lambda v: depth_for_duration(v.duration_s)))
    assert sorted(v.id for b in blocks for v in b) == sorted(v.id for v in videos)
    for b in blocks:
        assert len({(v.raw_frames.shape[0], depth_for_duration(v.duration_s)) for v in b}) == 1
        assert len(b) == 1 or len(b) * b[0].raw_frames.shape[0] <= block_rows
    assert {depth_for_duration(v.duration_s) for v in videos} == {3, 5}
    # videos share blocks, except at 10 rows, where every video has its own
    assert (max(map(len, blocks)) > 1) == (block_rows > 10)
    model = init_model_params(2, 8, 16)
    index = engine.index_corpus(strata_corpus, model)
    for v in videos:
        ctx = encode_video(v.raw_frames.astype(np.float64), v.duration_s,
                           model.encoder).rows.astype(np.float32)
        phi = pruner.distill_forward(ctx.astype(np.float64), model.distill).astype(np.float32)
        assert index.contexts[v.id].tobytes() == ctx.tobytes()
        assert index.distilled[v.id].tobytes() == phi.tobytes()


def test_small_index_bytes_are_pinned(tmp_path):
    # digest written by the per-video index build; the blocked build must match it
    corpus = synth_corpus(SynthSpec(n_videos=6, n_queries=2, frames_per_video=(8, 32),
                                    d_v=8, d=16, seed=5))
    path = tmp_path / "i.pclx"
    engine.save_index(engine.index_corpus(corpus, init_model_params(2, 8, 16)), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "0309a234b27179a6f90ec62bd00db29bb08dbd9f098898bd3547851ccf1845f3")


def test_full_ratio_equals_pruning_disabled_pipeline(small_corpus, index):
    config = engine.RetrievalConfig(k_percent=100.0)
    for q in small_corpus.queries[:6]:
        ranked = engine.retrieve(q, index, config)
        assert ranked.video_ids == full_scoring_oracle(q, index)
        assert ranked.counters["stage2_videos"] == len(small_corpus.videos)


def test_candidate_count_and_appended_tail(small_corpus, index):
    m = len(small_corpus.videos)
    q = small_corpus.queries[0]
    for k in (5.0, 33.0, 50.0, 90.0):
        ranked = engine.retrieve(q, index, engine.RetrievalConfig(k_percent=k))
        keep = math.ceil(k / 100.0 * m)
        assert ranked.counters["stage2_videos"] == keep
        assert set(ranked.stage2_scores) == set(ranked.video_ids[:keep])
        assert len(ranked.video_ids) == m
        # the tail is ordered by descending coarse score
        tail = ranked.video_ids[keep:]
        tail_scores = [ranked.stage1_scores[v] for v in tail]
        assert all(a >= b for a, b in zip(tail_scores, tail_scores[1:]))


def test_candidates_sorted_by_fine_score_then_id(small_corpus, index):
    ranked = engine.retrieve(small_corpus.queries[1], index,
                             engine.RetrievalConfig(k_percent=60.0))
    keep = ranked.counters["stage2_videos"]
    head = ranked.video_ids[:keep]
    pairs = [(-ranked.stage2_scores[v], v) for v in head]
    assert pairs == sorted(pairs)


def test_retrieve_validates_inputs(small_corpus, index):
    q = small_corpus.queries[0]
    for k in (0.0, -3.0, 100.5):
        with pytest.raises(ValueError):
            engine.retrieve(q, index, engine.RetrievalConfig(k_percent=k))
    import copy
    short = copy.deepcopy(q)
    short.sentence = short.sentence[:-1]
    with pytest.raises(ValueError):
        engine.retrieve(short, index)


@pytest.fixture(scope="module")
def mixed_index():
    corpus = synth_corpus(SynthSpec(n_videos=60, n_queries=3, frames_per_video=(8, 12),
                                    d_v=8, d=16, seed=5))
    return engine.index_corpus(corpus, init_model_params(2, 8, 16))


@pytest.mark.parametrize("block_rows", [engine.BLOCK_ROWS, 40, 10])
def test_batched_retrieval_matches_per_candidate_loop(mixed_index, block_rows,
                                                      monkeypatch):
    monkeypatch.setattr(engine, "BLOCK_ROWS", block_rows)
    counts = np.bincount([c.shape[0] for c in mixed_index.contexts.values()])
    if block_rows == 40:  # some frame count fills a block and leaves a partial one
        assert any(c > 40 // n and c % (40 // n) for n, c in enumerate(counts) if n)
    for q in mixed_index.corpus.queries:
        ranked = engine.retrieve(q, mixed_index, engine.RetrievalConfig(k_percent=100.0))
        loop = {vid: engine.stage2_score(q, mixed_index.videos[vid], ctx,
                                         mixed_index.model, 12)
                for vid, ctx in mixed_index.contexts.items()}
        assert ranked.video_ids == sorted(loop, key=lambda v: (-loop[v][0], v))
        assert set(ranked.stage2_scores) == set(loop)
        for vid, (score, _) in loop.items():
            assert abs(ranked.stage2_scores[vid] - score) <= 1e-12
        assert ranked.counters["frames_aggregated"] == sum(n for _, n in loop.values())


def test_retrieve_rejects_non_finite_query(small_corpus, index):
    import copy
    for field, pos in (("sentence", 0), ("words", (0, 1))):
        for bad in (np.nan, np.inf):
            q = copy.deepcopy(small_corpus.queries[0])
            getattr(q, field)[pos] = bad
            with pytest.raises(ValueError):
                engine.retrieve(q, index)


def test_evaluate_matches_brute_force_recomputation(small_corpus, index):
    report = engine.evaluate(small_corpus.queries, index,
                             engine.RetrievalConfig(k_percent=100.0))
    ranks = []
    for q in small_corpus.queries:
        order = full_scoring_oracle(q, index)
        ranks.append(order.index(q.ground_truth_video) + 1)
    ranks = np.array(ranks, dtype=float)
    assert report.r1 == np.mean(ranks <= 1)
    assert report.r5 == np.mean(ranks <= 5)
    assert report.r10 == np.mean(ranks <= 10)
    assert report.mnr == ranks.mean()
    assert report.per_query_ranks == {
        q.id: int(r) for q, r in zip(small_corpus.queries, ranks)}
    assert report.r1 <= report.r5 <= report.r10
    assert report.mnr >= 1.0


def test_metric_definitions_on_known_ranks():
    # two queries ranking their targets 1st and 3rd
    class _Q:
        def __init__(self, qid, gt):
            self.id, self.ground_truth_video = qid, gt

    ranks = {"q0": 1, "q1": 3}
    vals = np.array(list(ranks.values()), dtype=float)
    report = engine.MetricsReport(
        r1=float(np.mean(vals <= 1)), r5=float(np.mean(vals <= 5)),
        r10=float(np.mean(vals <= 10)), mnr=float(vals.mean()),
        per_query_ranks=ranks)
    assert report.r1 == 0.5 and report.r5 == 1.0 and report.mnr == 2.0


def test_bench_reports_counts_and_warm_latency(small_corpus, small_model):
    reports = engine.bench(small_corpus, small_model, [100.0, 50.0], rounds=3)
    m = len(small_corpus.videos)
    assert [r.stage2_count for r in reports] == [m, math.ceil(m / 2)]
    for r in reports:
        assert r.aq_latency_s <= r.fq_latency_s
        assert r.rounds == 3 and r.corpus_size == m


def test_csv_emitters():
    metrics = engine.MetricsReport(r1=0.5, r5=1.0, r10=1.0, mnr=2.0,
                                   per_query_ranks={})
    text = engine.metrics_csv(metrics)
    assert text.splitlines()[0] == "metric,value"
    assert "R@1,0.5" in text and "MnR,2.0" in text
    lat = engine.latency_csv([engine.LatencyReport(50.0, 0.5, 0.1, 3, 20, 10)])
    assert lat.splitlines() == ["k_percent,fq_s,aq_s,stage2_count",
                                "50.0,0.5,0.1,10"]


def test_index_round_trip_is_bit_exact(tmp_path, small_corpus, small_model, index):
    path = tmp_path / "i.pclx"
    engine.save_index(index, str(path))
    loaded = engine.load_index(str(path), small_corpus, small_model)
    for vid in index.distilled:
        assert loaded.distilled[vid].tobytes() == index.distilled[vid].tobytes()
        assert loaded.contexts[vid].tobytes() == index.contexts[vid].tobytes()


def test_retrieve_is_the_same_from_a_loaded_index(tmp_path, small_corpus,
                                                  small_model, index):
    path = tmp_path / "i.pclx"
    engine.save_index(index, str(path))
    loaded = engine.load_index(str(path), small_corpus, small_model)
    for q in small_corpus.queries[:4]:
        for k in (100.0, 30.0):
            config = engine.RetrievalConfig(k_percent=k)
            a, b = engine.retrieve(q, index, config), engine.retrieve(q, loaded, config)
            assert a.video_ids == b.video_ids
            assert a.stage1_scores == b.stage1_scores
            assert a.stage2_scores == b.stage2_scores
            assert a.counters == b.counters


def test_retrieve_stage1_is_bitwise_the_dict_pruning(small_corpus, index):
    m = len(small_corpus.videos)
    for q in small_corpus.queries[:4]:
        full = pruner.prune_candidates(q.sentence, index.distilled, 100.0)
        ranked = engine.retrieve(q, index, engine.RetrievalConfig(k_percent=25.0))
        keep = ranked.counters["stage2_videos"]
        assert set(ranked.video_ids[:keep]) == set(full.video_ids[:keep])
        assert ranked.video_ids[keep:] == full.video_ids[keep:]
        assert list(ranked.stage1_scores) == full.video_ids
        got = np.array(list(ranked.stage1_scores.values()))
        assert got.tobytes() == full.coarse_scores.tobytes() and len(got) == m


def test_load_index_checks_ids_and_frames_against_corpus(tmp_path, small_corpus,
                                                         small_model, index):
    path = tmp_path / "i.pclx"
    engine.save_index(index, str(path))
    videos = small_corpus.videos
    doubled = tmp_path / "doubled.pclx"  # lists vid_00000 twice
    engine.save_index(dataclasses.replace(
        index, corpus=dataclasses.replace(small_corpus, videos=videos + videos[:1])),
        str(doubled))
    with pytest.raises(CorpusFormatError) as err:
        engine.load_index(str(doubled), small_corpus, small_model)
    assert err.value.code == "dimension-mismatch"
    shortened = dataclasses.replace(videos[3], raw_frames=videos[3].raw_frames[:-1],
                                    clip_frames=videos[3].clip_frames[:-1])
    renamed = dataclasses.replace(videos[0], id="vid_99999")
    for corpus_videos in (videos[1:],                               # extra id in index
                          videos + [renamed],                       # id missing from index
                          [renamed] + videos[1:],                   # one id swapped
                          videos[:3] + [shortened] + videos[4:]):   # wrong row count
        corpus = dataclasses.replace(small_corpus, videos=corpus_videos)
        with pytest.raises(CorpusFormatError) as err:
            engine.load_index(str(path), corpus, small_model)
        assert err.value.code == "dimension-mismatch"


def test_index_error_codes(tmp_path, small_corpus, small_model, index):
    path = tmp_path / "i.pclx"
    engine.save_index(index, str(path))
    raw = path.read_bytes()

    def expect(data, code):
        bad = tmp_path / "bad.pclx"
        bad.write_bytes(data)
        with pytest.raises(CorpusFormatError) as err:
            engine.load_index(str(bad), small_corpus, small_model)
        assert err.value.code == code

    expect(b"ZZZZ" + raw[4:], "bad-magic")
    expect(raw[:4] + b"\x09" + raw[5:], "version-mismatch")
    expect(raw[:-9], "truncated-payload")
    expect(raw + b"\x00", "dimension-mismatch")
    other_model = init_model_params(99, small_corpus.dims["D_v"],
                                    small_corpus.dims["D"])
    with pytest.raises(CorpusFormatError) as err:
        engine.load_index(str(path), small_corpus, other_model)
    assert err.value.code == "model-mismatch"


def test_index_holds_only_finite_values(tmp_path, small_corpus, small_model, index):
    import copy
    vid = small_corpus.videos[2].id
    model = copy.deepcopy(small_model)
    model.scorer["f_w1"][0, 0] = np.nan
    clips = [dataclasses.replace(v, clip_frames=np.full_like(v.clip_frames, np.inf))
             if v.id == vid else v for v in small_corpus.videos]
    for corpus, params in ((small_corpus, model),
                           (dataclasses.replace(small_corpus, videos=clips), small_model)):
        with pytest.raises(ValueError, match="NaN or inf"):
            engine.index_corpus(corpus, params)
    # an index file whose distilled row or context row is NaN does not load
    path = tmp_path / "nan.pclx"
    for field in ("distilled", "contexts"):
        broken = dataclasses.replace(index)
        arr = getattr(index, field)[vid].copy()
        arr[0] = np.nan
        setattr(broken, field, {**getattr(index, field), vid: arr})
        engine.save_index(broken, str(path))
        with pytest.raises(ValueError, match=f"{vid}.*NaN or inf"):
            engine.load_index(str(path), small_corpus, small_model)


def test_untrained_model_still_ranks_planted_corpus_well(small_corpus, index):
    # the planted signal is strong enough to survive an untrained pipeline
    report = engine.evaluate(small_corpus.queries, index,
                             engine.RetrievalConfig(k_percent=100.0))
    assert report.mnr <= len(small_corpus.videos) / 2
