"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail verdict line; the conftest terminal
summary echoes all verdicts at the end of the run.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from conftest import ACCEPTANCE_RESULTS
from proclip import engine, nn, prompt, sampler, trainer
from proclip.aggregator import aggregate_video, init_aggregator_params
from proclip.cli import run_cli
from proclip.corpus import (CorpusFormatError, SynthSpec, read_corpus,
                            synth_corpus, write_corpus)
from proclip.model import (flatten_params, init_model_params, load_checkpoint,
                           save_checkpoint, serialize_checkpoint)
from proclip.rng import CounterRng
from proclip.trainer import contrastive_loss


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        line = f"criterion {num:02d} [{name}]: FAIL"
        print(line)
        ACCEPTANCE_RESULTS.append(line)
        raise
    line = f"criterion {num:02d} [{name}]: PASS"
    print(line)
    ACCEPTANCE_RESULTS.append(line)


def _full_scoring_oracle(query, index, k_frames=12):
    """Ranking with pruning disabled: fine-score all videos, sort, break ties by id."""
    by_id = {v.id: v for v in index.corpus.videos}
    scores = {}
    for vid, ctx in index.contexts.items():
        scores[vid], _ = engine.stage2_score(query, by_id[vid], ctx,
                                             index.model, k_frames)
    return sorted(scores, key=lambda vid: (-scores[vid], vid))


def test_criterion_01_pruning_noop_equivalence():
    with criterion(1, "pruning no-op equivalence"):
        t0 = time.perf_counter()
        draws = 0
        for seed in (21, 22):
            corpus = synth_corpus(SynthSpec(n_videos=50, n_queries=50,
                                            frames_per_video=8, d_v=8, d=16,
                                            relevance_snr=10.0, seed=seed))
            model = init_model_params(seed, 8, 16)
            index = engine.index_corpus(corpus, model)
            config = engine.RetrievalConfig(k_percent=100.0)
            for q in corpus.queries:
                ranked = engine.retrieve(q, index, config)
                assert ranked.video_ids == _full_scoring_oracle(q, index)
                draws += 1
        assert draws == 100
        assert time.perf_counter() - t0 < 60.0


def test_criterion_02_computation_ratio_sweep(tmp_path):
    with criterion(2, "computation-ratio sweep structure"):
        t0 = time.perf_counter()
        corpus = synth_corpus(SynthSpec(n_videos=1000, n_queries=8,
                                        frames_per_video=12, d_v=16, d=32,
                                        relevance_snr=10.0, seed=31))
        corpus_path = tmp_path / "c1000.pclp"
        write_corpus(corpus, str(corpus_path))
        ckpt = tmp_path / "m.pclw"
        save_checkpoint(init_model_params(0, 16, 32), str(ckpt))
        out = tmp_path / "lat.csv"
        k_list = "100,90,80,70,60,50,40,30,20,10,5"
        code = run_cli(["bench", "--corpus", str(corpus_path),
                        "--model", str(ckpt), "--k-list", k_list,
                        "--rounds", "15", "-o", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        ks = [float(r[0]) for r in rows]
        aq = [float(r[2]) for r in rows]
        counts = [int(r[3]) for r in rows]
        assert ks == [100.0, 90.0, 80.0, 70.0, 60.0, 50.0, 40.0, 30.0, 20.0, 10.0, 5.0]
        assert counts == [math.ceil(k / 100.0 * 1000) for k in ks]
        assert all(b <= a for a, b in zip(aq, aq[1:])), aq
        assert aq[ks.index(50.0)] <= 0.65 * aq[ks.index(100.0)], aq
        assert time.perf_counter() - t0 < 300.0


def test_criterion_03_linear_scaling():
    with criterion(3, "linear latency scaling"):
        t0 = time.perf_counter()
        model = init_model_params(0, 16, 32)
        sizes = (125, 250, 500, 1000)
        config = engine.RetrievalConfig(k_percent=50.0)
        indexes, queries = {}, {}
        for size in sizes:
            corpus = synth_corpus(SynthSpec(n_videos=size, n_queries=6,
                                            frames_per_video=12, d_v=16, d=32,
                                            relevance_snr=10.0, seed=41))
            indexes[size] = engine.index_corpus(corpus, model)
            queries[size] = corpus.queries
        # warm rounds interleaved across sizes so load drift hits all equally
        times = {size: [] for size in sizes}
        for r in range(15):
            for size in sizes:
                q = queries[size][r % len(queries[size])]
                t = time.perf_counter()
                engine.retrieve(q, indexes[size], config)
                times[size].append(time.perf_counter() - t)
        latency = {size: float(np.median(times[size])) for size in sizes}
        for n in (125, 250, 500):
            assert latency[2 * n] <= 2.5 * latency[n], latency
        assert time.perf_counter() - t0 < 300.0


def test_criterion_04_selection_limit_oracle():
    with criterion(4, "frame-selection limit oracle"):
        t0 = time.perf_counter()
        rng = CounterRng(51)
        for trial in range(1000):
            n = 1 + int(rng.integers(1, 32)[0])
            k = 1 + int(rng.integers(1, min(12, n))[0])
            scores = rng.normal(n)
            if trial % 3 == 0:
                scores = np.round(scores, 1)  # force ties
            # exhaustive oracle: sort by score descending, ties to low index
            order = sorted(range(n), key=lambda i: (-scores[i], i))
            expected = sorted(order[:k])
            sel = sampler.topk_infer(scores, k)
            assert sel.indices.tolist() == expected
            soft = sampler.hard_topk_train(scores, k, 1e-4)
            picks = np.argmax(np.asarray(soft), axis=1)
            assert sorted(picks.tolist()) == expected
        assert time.perf_counter() - t0 < 10.0


def test_criterion_05_gradient_suite():
    with criterion(5, "gradient verification suite"):
        t0 = time.perf_counter()
        for block in trainer.GRAD_CHECK_BLOCKS:
            err = trainer.grad_check(block)
            assert err < 1e-4, (block, err)
        assert trainer.grad_check("gate", corrupt=True) > 1e-2
        assert time.perf_counter() - t0 < 60.0


def test_criterion_06_loss_identities():
    with criterion(6, "contrastive loss identities"):
        for b in (1, 2, 3, 5, 8):
            loss = float(np.asarray(contrastive_loss(np.full((b, b), 2.2))))
            assert abs(loss - math.log(b)) < 1e-9
        saturated = np.array([[10.0, -10.0], [-10.0, 10.0]])
        assert float(np.asarray(contrastive_loss(saturated))) < 1e-6
        rng = CounterRng(61)
        for _ in range(20):
            sim = rng.normal_matrix(4, 4) * 2.0
            base = float(np.asarray(contrastive_loss(sim)))
            shift = float(rng.uniform_range(1, -30.0, 30.0)[0])
            assert abs(base - float(np.asarray(contrastive_loss(sim + shift)))) < 1e-6
            assert abs(base - float(np.asarray(contrastive_loss(sim.T)))) < 1e-9
            assert base >= 0.0


def test_criterion_07_learning_directional(planted_corpus, stage1_trained,
                                           stage2_trained):
    with criterion(7, "directional learning"):
        model1, history, t_stage1 = stage1_trained
        model2, mse_trace, t_stage2 = stage2_trained
        assert t_stage1 + t_stage2 < 600.0

        # stage 1: loss halves and retrieval succeeds without pruning
        assert history[-1][1] < 0.5 * history[0][1], (history[0], history[-1])
        index1 = engine.index_corpus(planted_corpus, model1)
        report = engine.evaluate(planted_corpus.queries, index1,
                                 engine.RetrievalConfig(k_percent=100.0))
        assert report.r1 >= 0.9, report.r1

        # stage 2: monotone improvement over the first five epochs
        assert all(mse_trace[i + 1] < mse_trace[i] for i in range(5)), mse_trace[:6]

        def inclusion(model):
            index = engine.index_corpus(planted_corpus, model)
            hits = 0
            for q in planted_corpus.queries:
                ranked = engine.retrieve(q, index,
                                         engine.RetrievalConfig(k_percent=50.0))
                keep = ranked.counters["stage2_videos"]
                hits += q.ground_truth_video in ranked.video_ids[:keep]
            return hits / len(planted_corpus.queries)

        before, after = inclusion(model1), inclusion(model2)
        assert after >= 0.95, (before, after)
        assert after >= before, (before, after)

        # freeze contract is bitwise outside the distillation group
        f1, f2 = flatten_params(model1), flatten_params(model2)
        for name in f1:
            if not name.startswith("distill."):
                assert f1[name].tobytes() == f2[name].tobytes(), name


def test_criterion_08_metric_oracle(small_corpus, small_model):
    with criterion(8, "retrieval metric oracle"):
        for corpus, model in (
            (small_corpus, small_model),
            (synth_corpus(SynthSpec(n_videos=60, n_queries=30,
                                    frames_per_video=8, d_v=8, d=16,
                                    relevance_snr=10.0, seed=71)),
             init_model_params(2, 8, 16)),
        ):
            index = engine.index_corpus(corpus, model)
            report = engine.evaluate(corpus.queries, index,
                                     engine.RetrievalConfig(k_percent=100.0))
            ranks = []
            for q in corpus.queries:
                order = _full_scoring_oracle(q, index)
                ranks.append(order.index(q.ground_truth_video) + 1)
            vals = np.array(ranks, dtype=float)
            assert report.r1 == np.mean(vals <= 1)
            assert report.r5 == np.mean(vals <= 5)
            assert report.r10 == np.mean(vals <= 10)
            assert report.mnr == vals.mean()
            assert report.r1 <= report.r5 <= report.r10
            assert report.mnr >= 1.0
            # metric ordering must hold under pruning too
            pruned = engine.evaluate(corpus.queries, index,
                                     engine.RetrievalConfig(k_percent=30.0))
            assert pruned.r1 <= pruned.r5 <= pruned.r10
            assert pruned.mnr >= 1.0


def test_criterion_09_format_round_trips(tmp_path, small_corpus, small_model):
    with criterion(9, "file format round trips"):
        # corpus
        cpath = tmp_path / "c.pclp"
        write_corpus(small_corpus, str(cpath))
        bytes_a = cpath.read_bytes()
        write_corpus(read_corpus(str(cpath)), str(tmp_path / "c2.pclp"))
        assert (tmp_path / "c2.pclp").read_bytes() == bytes_a

        # checkpoint
        mpath = tmp_path / "m.pclw"
        save_checkpoint(small_model, str(mpath))
        assert serialize_checkpoint(load_checkpoint(str(mpath))) == mpath.read_bytes()

        # index
        index = engine.index_corpus(small_corpus, small_model)
        ipath = tmp_path / "i.pclx"
        engine.save_index(index, str(ipath))
        loaded = engine.load_index(str(ipath), small_corpus, small_model)
        for vid in index.distilled:
            assert loaded.distilled[vid].tobytes() == index.distilled[vid].tobytes()
            assert loaded.contexts[vid].tobytes() == index.contexts[vid].tobytes()

        def expect(loader, path, mutate, code):
            bad = tmp_path / ("bad" + path.suffix)
            data = bytearray(path.read_bytes())
            mutate(data)
            bad.write_bytes(bytes(data))
            try:
                loader(str(bad))
            except CorpusFormatError as err:
                assert err.code == code, (path.suffix, err.code, code)
            else:
                raise AssertionError(f"no error for {code} on {path.suffix}")

        def magic(data):
            data[:4] = b"XXXX"

        def truncate(data):
            del data[-9:]

        load_idx = lambda p: engine.load_index(p, small_corpus, small_model)
        for loader, path in ((read_corpus, cpath), (load_checkpoint, mpath),
                             (load_idx, ipath)):
            expect(loader, path, magic, "bad-magic")
            expect(loader, path, truncate, "truncated-payload")

        other = init_model_params(5, *small_model.dims)
        try:
            engine.load_index(str(ipath), small_corpus, other)
        except CorpusFormatError as err:
            assert err.code == "model-mismatch"
        else:
            raise AssertionError("index accepted a different model")


def test_criterion_10_attention_invariants():
    with criterion(10, "attention and fusion invariants"):
        rng = CounterRng(81)
        checked = 0
        for _ in range(250):
            d = 2 * (1 + int(rng.integers(1, 4)[0]))      # 4..8 even
            n = 1 + int(rng.integers(1, 8)[0])
            w = 1 + int(rng.integers(1, 6)[0])
            words = rng.normal_matrix(w, d)
            sentence = rng.normal(d)
            frames = rng.normal_matrix(n, d) * 2.0

            # word attention: mean of row-stochastic rows still sums to 1
            word_scores, _ = prompt.word_cross_attention(words, frames)
            assert abs(np.sum(word_scores) - 1.0) < 1e-5
            assert np.all((word_scores >= 0.0) & (word_scores <= 1.0))

            sent_scores, _ = prompt.sentence_cross_attention(sentence, frames)
            assert abs(np.sum(sent_scores) - 1.0) < 1e-5

            layer = nn.init_attention_layer(rng, d, 2 * d)
            _, weights = nn.attention(frames, layer, return_weights=True)
            assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-5)

            agg = init_aggregator_params(rng, d)
            _, agg_weights = aggregate_video(frames, agg, return_weights=True)
            assert np.allclose(np.asarray(agg_weights).sum(axis=-1), 1.0,
                               atol=1e-5)
            checked += 4

            gate = prompt.init_gate_params(rng, d)
            out = prompt.prompt_fusion(words, sentence, frames, gate)
            assert np.all((out.g > 0.0) & (out.g < 1.0))
            # each fused row lies on the segment between its two streams
            recon = out.g[:, None] * out.w_o + (1.0 - out.g[:, None]) * out.s_o
            assert np.allclose(out.y, recon, atol=1e-12)
            lo = np.minimum(out.w_o, out.s_o) - 1e-12
            hi = np.maximum(out.w_o, out.s_o) + 1e-12
            assert np.all((out.y >= lo) & (out.y <= hi))
        assert checked == 1000
