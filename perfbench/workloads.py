"""The benchmark's workloads.

Each workload builds its inputs from the seed in `setup`, then runs one
operation per `op` call: a query, a cold query, or a training round.  The
harness times `op` alone, phase by phase: `op` calls `split()` between its
phases, and the harness closes the last one.  `check` runs outside the
timed region and returns the problems found in the operation's output, and
`digest` keeps the few numbers the metrics need, given the wall seconds of
each phase, so that outputs can be dropped at once.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import statistics
from dataclasses import dataclass

import numpy as np

from checks import (check_against_oracle, check_index_round_trip,
                    check_ranking, check_training)

D_V, D = 16, 32
K_FRAMES = 12
WARMUP_QUERIES = 3
ORACLE_EVERY = 4  # every fourth query is checked against the per-candidate oracle
DURATION_BANDS = ((10.0, 60.0), (61.0, 90.0))  # 3 and 5 encoder layers
COLD_K_PERCENT = 50.0
TRAIN_BATCH, TRAIN_K_FRAMES = 8, 6


def _synth(pkg, seed, n_videos, n_queries, frames, durations=(10.0, 90.0)):
    return pkg.synth_corpus(pkg.SynthSpec(
        n_videos=n_videos, n_queries=n_queries, frames_per_video=frames,
        d_v=D_V, d=D, duration_range=durations, relevance_snr=10.0,
        seed=seed))


def _mixed_corpus(pkg, seed, frame_counts, duration_bands, per_stratum, queries_per_stratum):
    """One corpus of equal strata, one per (frame count, duration band), so
    every seed gets the same mix of shapes and encoder depths."""
    videos, queries, strata = [], [], []
    for j, (frames, band) in enumerate((f, b) for f in frame_counts
                                       for b in duration_bands):
        part = _synth(pkg, seed * 64 + j, per_stratum, queries_per_stratum, frames, band)
        rename = {v.id: f"vid_{len(videos) + k:05d}" for k, v in enumerate(part.videos)}
        videos += [dataclasses.replace(v, id=rename[v.id]) for v in part.videos]
        queries += [dataclasses.replace(q, id=f"qry_{len(queries) + k:05d}",
                                        ground_truth_video=rename[q.ground_truth_video])
                    for k, q in enumerate(part.queries)]
        strata.append({"frames": frames, "durations": list(band)})
    return pkg.CorpusBundle(videos, queries, {"D_v": D_V, "D": D},
                            {"seed": seed, "strata": strata})


def _ranking_digest(ranking, query) -> dict:
    return {"gt_rank": ranking.video_ids.index(query.ground_truth_video) + 1,
            "gt_kept": query.ground_truth_video in ranking.stage2_scores,
            "stage1_s": ranking.timings["stage1_s"],
            "stage2_s": ranking.timings["stage2_s"],
            "stage2_videos": ranking.counters["stage2_videos"],
            "frames_aggregated": ranking.counters["frames_aggregated"]}


def _quality(infos) -> dict:
    ranks = [x["gt_rank"] for x in infos]
    n = f"n={len(ranks)}"
    return {"recall_at_1": (statistics.fmean(r == 1 for r in ranks), "frac", n),
            "mean_rank": (statistics.fmean(ranks), "rank", n)}


def _median_of(infos, key) -> float:
    return float(statistics.median(x[key] for x in infos))


@dataclass
class Workload:
    name: str

    min_ops = 3

    def setup(self, pkg, seed: int, workdir: str, split):
        raise NotImplementedError

    def op(self, pkg, state, i: int, split):
        raise NotImplementedError

    def check(self, pkg, state, i: int, out) -> list[str]:
        raise NotImplementedError

    def digest(self, state, i: int, out, laps: list) -> dict:
        raise NotImplementedError

    def named(self, timed: list, infos: list) -> dict:
        """Report metrics under the names of this path: name -> (value,
        unit, note), from untraced op seconds and the digests of all ops."""
        raise NotImplementedError

    def teardown(self, state) -> None:
        pass


# -- retrieval over a prebuilt index --------------------------------------

@dataclass
class RetrievalState:
    corpus: object
    index: object
    config: object
    order: list
    ids: set


@dataclass
class Retrieval(Workload):
    n_videos: int = 1000
    frames: int = 12
    k_percent: float = 50.0
    n_queries: int = 256

    def setup(self, pkg, seed, workdir, split):
        corpus = _synth(pkg, seed, self.n_videos, self.n_queries, self.frames)
        model = pkg.init_model_params(seed, D_V, D)
        split()
        index = pkg.engine.index_corpus(corpus, model)
        split()
        config = pkg.RetrievalConfig(k_percent=self.k_percent, k_frames=K_FRAMES)
        order = random.Random(seed).sample(range(self.n_queries), self.n_queries)
        state = RetrievalState(corpus, index, config, order,
                               {v.id for v in corpus.videos})
        for i in range(WARMUP_QUERIES):
            problems = self.check(pkg, state, i, self.op(pkg, state, i, split))
            if problems:
                raise RuntimeError("warm-up query failed: " + "; ".join(problems))
        return state

    def query(self, state, i):
        return state.corpus.queries[state.order[i % len(state.order)]]

    def op(self, pkg, state, i, split):
        return pkg.engine.retrieve(self.query(state, i), state.index, state.config)

    def check(self, pkg, state, i, out):
        problems = check_ranking(out, state.ids, self.k_percent)
        if not problems and i % ORACLE_EVERY == 0:
            problems = check_against_oracle(out, self.query(state, i), state.index,
                                            self.k_percent, K_FRAMES,
                                            pkg.engine, pkg.pruner)
        return problems

    def digest(self, state, i, out, laps):
        return _ranking_digest(out, self.query(state, i))

    def named(self, timed, infos):
        n = f"n={len(timed)}"
        return {"query_p50_ms": (1e3 * float(np.percentile(timed, 50)), "ms", n),
                "query_p90_ms": (1e3 * float(np.percentile(timed, 90)), "ms", n),
                "queries_per_s": (len(timed) / sum(timed), "1/s", n),
                **_quality(infos)}


# -- the cold path: files on disk, index build, first query ---------------

@dataclass
class ColdState:
    corpus: object
    model: object
    config: object
    paths: dict
    workdir: str


@dataclass
class ColdOutput:
    corpus: object
    index: object
    loaded: object
    ranking: object
    query: object


@dataclass
class IndexCold(Workload):
    frame_counts: tuple = (8, 16, 24, 32)
    per_stratum: int = 25

    @property
    def n_videos(self) -> int:
        return self.per_stratum * len(self.frame_counts) * len(DURATION_BANDS)

    def setup(self, pkg, seed, workdir, split):
        os.makedirs(workdir, exist_ok=True)
        corpus = _mixed_corpus(pkg, seed, self.frame_counts, DURATION_BANDS,
                               self.per_stratum, 2)
        model = pkg.init_model_params(seed, D_V, D)
        split()
        config = pkg.RetrievalConfig(k_percent=COLD_K_PERCENT, k_frames=K_FRAMES)
        paths = {ext: os.path.join(workdir, "cold." + ext)
                 for ext in ("pclp", "pclw", "pclx")}
        state = ColdState(corpus, model, config, paths, workdir)
        problems = self.check(pkg, state, 0, self.op(pkg, state, 0, split))
        if problems:
            raise RuntimeError("warm-up cold query failed: " + "; ".join(problems))
        return state

    def op(self, pkg, state, i, split):
        p = state.paths
        pkg.corpus.write_corpus(state.corpus, p["pclp"])
        pkg.model.save_checkpoint(state.model, p["pclw"])
        split()
        corpus = pkg.corpus.read_corpus(p["pclp"])
        model = pkg.model.load_checkpoint(p["pclw"])
        split()
        index = pkg.engine.index_corpus(corpus, model)
        split()
        query = corpus.queries[i % len(corpus.queries)]
        ranking = pkg.engine.retrieve(query, index, state.config)
        split()
        pkg.engine.save_index(index, p["pclx"])
        loaded = pkg.engine.load_index(p["pclx"], corpus, model)
        return ColdOutput(corpus, index, loaded, ranking, query)

    def check(self, pkg, state, i, out):
        problems = []
        if not pkg.corpus.bundles_equal(out.corpus, state.corpus):
            problems.append("corpus differs after the file round trip")
        problems += check_index_round_trip(out.index, out.loaded)
        ids = {v.id for v in state.corpus.videos}
        problems += check_ranking(out.ranking, ids, COLD_K_PERCENT)
        if not problems:
            problems = check_against_oracle(out.ranking, out.query, out.index,
                                            COLD_K_PERCENT, K_FRAMES,
                                            pkg.engine, pkg.pruner)
        return problems

    def digest(self, state, i, out, laps):
        _, read_s, index_s, query_s, round_trip_s = laps
        return {**_ranking_digest(out.ranking, out.query),
                "cold_query_s": read_s + index_s + query_s, "index_s": index_s,
                "round_trip_s": round_trip_s}

    def named(self, timed, infos):
        n = f"n={len(infos)}"
        return {"cold_query_s": (_median_of(infos, "cold_query_s"), "s", n),
                "index_videos_per_s": (self.n_videos / _median_of(infos, "index_s"),
                                       "1/s", n),
                "index_round_trip_s": (_median_of(infos, "round_trip_s"), "s", n),
                **_quality(infos)}

    def teardown(self, state):
        shutil.rmtree(state.workdir, ignore_errors=True)


# -- training: one stage-1 epoch, then one distill epoch ------------------

@dataclass
class TrainState:
    corpus: object
    model: object
    config: object
    reference: tuple | None = None


@dataclass
class TrainOutput:
    history: list
    mse_trace: list
    model: object


@dataclass
class TrainEpochs(Workload):
    n_videos: int = 50
    frames: int = 16

    def setup(self, pkg, seed, workdir, split):
        corpus = _synth(pkg, seed, self.n_videos, self.n_videos, self.frames)
        config = pkg.TrainConfig(batch_size=TRAIN_BATCH, epochs=1, seed=seed,
                                 k_frames=TRAIN_K_FRAMES)
        state = TrainState(corpus, pkg.init_model_params(seed, D_V, D), config)
        split()
        warm = self.op(pkg, state, 0, split)
        problems = self.check(pkg, state, 0, warm)
        if problems:
            raise RuntimeError("warm-up training round failed: " + "; ".join(problems))
        state.reference = (list(warm.history), list(warm.mse_trace))
        return state

    def op(self, pkg, state, i, split):
        stage1 = pkg.trainer.train_retrieval_stage(state.corpus, state.config, state.model)
        split()
        stage2 = pkg.trainer.train_distill_stage(state.corpus, stage1.model, state.config)
        return TrainOutput(stage1.history, stage2.mse_trace, stage2.model)

    def check(self, pkg, state, i, out):
        return check_training(out.history, out.mse_trace, out.model,
                              pkg.model.flatten_params, state.reference)

    def digest(self, state, i, out, laps):
        stage1_s, distill_s = laps
        return {"stage1_epoch_s": stage1_s, "distill_epoch_s": distill_s}

    def named(self, timed, infos):
        n = f"n={len(infos)}"
        return {"train_stage1_epoch_s": (_median_of(infos, "stage1_epoch_s"), "s", n),
                "train_distill_epoch_s": (_median_of(infos, "distill_epoch_s"), "s", n)}


WORKLOADS = {w.name: w for w in (
    Retrieval("rerank_full", n_videos=1000, frames=12, k_percent=50.0),
    Retrieval("prune_narrow", n_videos=4000, frames=8, k_percent=1.0, n_queries=512),
    IndexCold("index_cold"),
    TrainEpochs("train_epochs"),
)}
