import math

import numpy as np
import pytest

from proclip import engine
from proclip.corpus import CorpusFormatError, SynthSpec, synth_corpus
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


@pytest.mark.parametrize("block_rows", [engine.STAGE2_BLOCK_ROWS, 40, 10])
def test_batched_retrieval_matches_per_candidate_loop(mixed_index, block_rows,
                                                      monkeypatch):
    monkeypatch.setattr(engine, "STAGE2_BLOCK_ROWS", block_rows)
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


def test_untrained_model_still_ranks_planted_corpus_well(small_corpus, index):
    # the planted signal is strong enough to survive an untrained pipeline
    report = engine.evaluate(small_corpus.queries, index,
                             engine.RetrievalConfig(k_percent=100.0))
    assert report.mnr <= len(small_corpus.videos) / 2
