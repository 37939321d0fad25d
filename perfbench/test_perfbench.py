"""The benchmark's own tests.  Run from the repository root with

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import proclip  # noqa: E402

import bench  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, IndexCold, Retrieval, TrainEpochs  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY = {
    "retrieval": lambda: Retrieval("tiny", n_videos=24, frames=4, k_percent=50.0,
                                   n_queries=8),
    "cold": lambda: IndexCold("tiny", frame_counts=(4, 8), per_stratum=3),
    "train": lambda: TrainEpochs("tiny", n_videos=6, frames=4),
}


def _no_split():
    pass


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_follows_the_contract():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_layer_map_names_only_benchmark_metrics_and_workloads():
    spec = _spec()
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)
    per_layer = {m["name"] for m in spec["per_layer"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    mapped = [n for layer in layers["layers"].values() for n in layer["metrics"]]
    assert set(mapped) == per_layer and len(mapped) == len(per_layer)
    for layer in layers["layers"].values():
        for metric, workload in layer["moves"] + layer["flat"]:
            assert metric in e2e and workload in workloads
    for metric, names in layers["report_names"].values():
        assert metric in e2e and set(names) <= workloads


@pytest.mark.parametrize("kind", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_benchmark_metric_is_reported(kind, trace, tmp_path):
    spec = _spec()
    result, named, _, problems = bench.run_workload(
        TINY[kind](), proclip, 3, 0.05, trace, str(tmp_path / "work"))
    assert problems == [] and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == wanted
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert named["failed_ops_frac"][0] == 0.0


def _swap_first_two(ranking):
    ranking.video_ids[0], ranking.video_ids[1] = ranking.video_ids[1], ranking.video_ids[0]
    return ranking


def test_planted_ranking_swap_is_a_failed_op(monkeypatch, tmp_path):
    workload = TINY["retrieval"]()
    state = workload.setup(proclip, 5, str(tmp_path), _no_split)
    retrieve = proclip.engine.retrieve
    monkeypatch.setattr(proclip.engine, "retrieve",
                        lambda *a, **k: _swap_first_two(retrieve(*a, **k)))
    records = bench.measure(workload, proclip, state, 0.0)
    assert records and all(r.problems for r in records)


@pytest.mark.parametrize("offset", [-1, 0])
def test_corrupted_index_byte_is_a_failed_op(offset, monkeypatch, tmp_path):
    workload = TINY["cold"]()
    state = workload.setup(proclip, 5, str(tmp_path / "work"), _no_split)
    save_index = proclip.engine.save_index

    def corrupting_save(index, path):
        save_index(index, path)
        with open(path, "r+b") as fh:
            fh.seek(offset, os.SEEK_END if offset < 0 else os.SEEK_SET)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte[0] ^ 0x5A]))

    monkeypatch.setattr(proclip.engine, "save_index", corrupting_save)
    records = bench.measure(workload, proclip, state, 0.0)
    workload.teardown(state)
    assert records and all(r.problems for r in records)


def test_non_finite_training_loss_is_a_failed_op(monkeypatch, tmp_path):
    workload = TINY["train"]()
    state = workload.setup(proclip, 5, str(tmp_path), _no_split)
    train = proclip.trainer.train_retrieval_stage

    def nan_history(*a, **k):
        res = train(*a, **k)
        res.history = [(e, float("nan"), t) for e, _, t in res.history]
        return res

    monkeypatch.setattr(proclip.trainer, "train_retrieval_stage", nan_history)
    records = bench.measure(workload, proclip, state, 0.0)
    assert records and all(r.problems for r in records)


def test_tracer_restores_every_wrapped_object():
    def snapshot():
        mods = [m for n, m in sys.modules.items() if n.startswith("proclip")]
        return {(id(m), k): v for m in mods for k, v in vars(m).items()
                if callable(v)}, dict(vars(proclip.autodiff.Tensor))

    before = snapshot()
    original = proclip.encoder.encode_video
    tracer = Tracer(proclip)
    tracer.install()
    wrapped = proclip.engine.encode_video
    assert wrapped is not original
    assert proclip.trainer.encode_video is wrapped and proclip.encoder.encode_video is wrapped
    tracer.uninstall()
    assert snapshot() == before


def test_spans_nest_and_self_time_excludes_children(tmp_path):
    workload = TINY["retrieval"]()
    state = workload.setup(proclip, 7, str(tmp_path), _no_split)
    tracer = Tracer(proclip)
    records = bench.measure(workload, proclip, state, 0.0, tracer)
    traced = {r.index: 1.0 for r in records if r.traced}
    totals = tracer.layer_totals(traced)
    calls, incl, self_ns = totals["engine.retrieve"]
    assert calls == len(traced)
    children = totals["pruner.prune_candidates"][1] + totals["engine.stage2_score"][1]
    assert self_ns == pytest.approx(incl - children)
    for s in tracer.spans:
        if s.parent >= 0:
            p = tracer.spans[s.parent]
            assert p.start_ns <= s.start_ns <= s.end_ns <= p.end_ns
            assert p.op_id == s.op_id


def test_cli_prints_one_json_line_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "index_cold",
         "--seed", "2", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1
    assert set(last["metrics"]) == set(bench.END_TO_END)


def test_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rerank_full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
