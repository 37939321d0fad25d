import dataclasses

import numpy as np
import pytest

from proclip import engine
from proclip.cli import run_cli
from proclip.corpus import read_corpus, write_corpus
from proclip.model import init_model_params, save_checkpoint


def _synth(tmp_path, name="c.pclp", videos=6, queries=6, seed=1,
           frames=6, dv=8, dim=8):
    path = tmp_path / name
    code = run_cli(["synth", "--videos", str(videos), "--queries", str(queries),
                    "--frames", str(frames), "--dv", str(dv), "--dim", str(dim),
                    "--seed", str(seed), "-o", str(path)])
    assert code == 0
    return path


def _checkpoint(tmp_path, corpus_path, name="m.pclw"):
    bundle = read_corpus(str(corpus_path))
    model = init_model_params(0, bundle.dims["D_v"], bundle.dims["D"])
    path = tmp_path / name
    save_checkpoint(model, str(path))
    return path


def test_synth_is_deterministic_on_disk(tmp_path):
    a = _synth(tmp_path, "a.pclp", seed=7)
    b = _synth(tmp_path, "b.pclp", seed=7)
    assert a.read_bytes() == b.read_bytes()


def test_validate_accepts_and_rejects(tmp_path, capsys):
    path = _synth(tmp_path)
    assert run_cli(["validate", str(path)]) == 0
    assert "ok" in capsys.readouterr().out
    data = bytearray(path.read_bytes())
    data[:4] = b"JUNK"
    path.write_bytes(bytes(data))
    assert run_cli(["validate", str(path)]) == 3
    assert "bad-magic" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    for sub in ("synth", "validate", "train", "eval", "query", "bench"):
        assert run_cli([sub, "--help"]) == 0
    capsys.readouterr()


def test_unknown_flag_exits_two(capsys):
    assert run_cli(["synth", "--bogus"]) == 2
    capsys.readouterr()


def test_missing_file_exits_three(tmp_path, capsys):
    assert run_cli(["validate", str(tmp_path / "absent.pclp")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error ") and "exit=3" in err


def test_bad_synth_parameters_exit_four(tmp_path, capsys):
    assert run_cli(["synth", "--videos", "0", "--queries", "1",
                    "-o", str(tmp_path / "x.pclp")]) == 4
    capsys.readouterr()


def test_train_then_eval_and_rerun_identical(tmp_path, capsys):
    corpus = _synth(tmp_path, videos=6, queries=6)
    ckpt = tmp_path / "m.pclw"
    log = tmp_path / "log.csv"
    code = run_cli(["train", "--corpus", str(corpus), "--stage", "both",
                    "--epochs", "2", "--batch-size", "3", "--k-frames", "3",
                    "-o", str(ckpt), "--log", str(log)])
    assert code == 0
    assert log.read_text().splitlines()[0] == "epoch,loss,temperature"
    capsys.readouterr()

    out = tmp_path / "metrics.csv"
    for _ in range(2):
        assert run_cli(["eval", "--corpus", str(corpus), "--model", str(ckpt),
                        "--k", "100", "--k-frames", "3", "-o", str(out)]) == 0
        capsys.readouterr()
    first = out.read_text()
    assert first.splitlines()[0] == "metric,value"
    assert run_cli(["eval", "--corpus", str(corpus), "--model", str(ckpt),
                    "--k", "100", "--k-frames", "3", "-o", str(out)]) == 0
    assert out.read_text() == first  # idempotent re-run
    capsys.readouterr()


def test_train_distill_requires_checkpoint(tmp_path, capsys):
    corpus = _synth(tmp_path)
    assert run_cli(["train", "--corpus", str(corpus), "--stage", "distill",
                    "-o", str(tmp_path / "out.pclw")]) == 4
    capsys.readouterr()


def test_eval_matches_brute_force_oracle(tmp_path, capsys):
    corpus_path = _synth(tmp_path, videos=20, queries=20, seed=3,
                         frames=8, dv=8, dim=16)
    ckpt = _checkpoint(tmp_path, corpus_path)
    out = tmp_path / "metrics.csv"
    assert run_cli(["eval", "--corpus", str(corpus_path), "--model", str(ckpt),
                    "--k", "100", "-o", str(out)]) == 0
    capsys.readouterr()
    got = dict(line.split(",") for line in out.read_text().splitlines()[1:])

    # standalone recomputation of every rank through direct scoring
    bundle = read_corpus(str(corpus_path))
    from proclip.model import load_checkpoint
    model = load_checkpoint(str(ckpt))
    index = engine.index_corpus(bundle, model)
    ranks = []
    for q in bundle.queries:
        scores = {}
        for v in bundle.videos:
            scores[v.id], _ = engine.stage2_score(q, v, index.contexts[v.id],
                                                  model, 12)
        order = sorted(scores, key=lambda vid: (-scores[vid], vid))
        ranks.append(order.index(q.ground_truth_video) + 1)
    ranks = np.array(ranks, dtype=float)
    assert float(got["R@1"]) == np.mean(ranks <= 1)
    assert float(got["R@5"]) == np.mean(ranks <= 5)
    assert float(got["R@10"]) == np.mean(ranks <= 10)
    assert float(got["MnR"]) == ranks.mean()


def test_query_by_id_and_embedding(tmp_path, capsys):
    corpus_path = _synth(tmp_path, videos=5, queries=5)
    ckpt = _checkpoint(tmp_path, corpus_path)
    out = tmp_path / "ranked.csv"
    assert run_cli(["query", "--corpus", str(corpus_path), "--model", str(ckpt),
                    "--query-id", "qry_00000", "--k", "100", "--top", "5",
                    "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rank,video_id,score,stage"
    assert len(lines) == 6
    assert all(line.split(",")[3] == "2" for line in lines[1:])
    capsys.readouterr()

    bundle = read_corpus(str(corpus_path))
    emb = tmp_path / "q.f32"
    bundle.queries[0].sentence.astype("<f4").tofile(emb)
    out2 = tmp_path / "ranked2.csv"
    assert run_cli(["query", "--corpus", str(corpus_path), "--model", str(ckpt),
                    "--embedding", str(emb), "--k", "100", "--top", "5",
                    "-o", str(out2)]) == 0
    capsys.readouterr()
    # the ad-hoc embedding uses the sentence alone; same candidate ordering
    assert [l.split(",")[1] for l in out2.read_text().splitlines()[1:]] == \
           [l.split(",")[1] for l in lines[1:]]


def test_query_flag_validation(tmp_path, capsys):
    corpus_path = _synth(tmp_path)
    ckpt = _checkpoint(tmp_path, corpus_path)
    base = ["query", "--corpus", str(corpus_path), "--model", str(ckpt)]
    assert run_cli(base) == 4                       # neither selector
    assert run_cli(base + ["--query-id", "nope"]) == 4
    emb = tmp_path / "short.f32"
    np.zeros(3, dtype="<f4").tofile(emb)
    assert run_cli(base + ["--embedding", str(emb)]) == 4
    capsys.readouterr()
    np.full(8, np.nan, dtype="<f4").tofile(emb)
    assert run_cli(base + ["--embedding", str(emb)]) == 4
    assert "code=invalid-input" in capsys.readouterr().err


def test_bench_csv_structure(tmp_path, capsys):
    corpus_path = _synth(tmp_path, videos=10, queries=4)
    ckpt = _checkpoint(tmp_path, corpus_path)
    out = tmp_path / "lat.csv"
    assert run_cli(["bench", "--corpus", str(corpus_path), "--model", str(ckpt),
                    "--k-list", "100,50", "--rounds", "2", "--k-frames", "3",
                    "-o", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "k_percent,fq_s,aq_s,stage2_count"
    counts = [int(line.split(",")[3]) for line in lines[1:]]
    assert counts == [10, 5]


def test_bench_rejects_bad_k_list(tmp_path, capsys):
    corpus_path = _synth(tmp_path)
    ckpt = _checkpoint(tmp_path, corpus_path)
    assert run_cli(["bench", "--corpus", str(corpus_path), "--model", str(ckpt),
                    "--k-list", "100,0"]) == 4
    capsys.readouterr()


def test_model_corpus_dimension_mismatch_exits_three(tmp_path, capsys):
    corpus_path = _synth(tmp_path, dv=8, dim=8)
    model = init_model_params(0, 8, 16)
    ckpt = tmp_path / "wrong.pclw"
    save_checkpoint(model, str(ckpt))
    assert run_cli(["eval", "--corpus", str(corpus_path),
                    "--model", str(ckpt)]) == 3
    assert "dimension-mismatch" in capsys.readouterr().err


def test_unknown_checkpoint_group_exits_three(tmp_path, capsys):
    corpus_path = _synth(tmp_path)
    ckpt = _checkpoint(tmp_path, corpus_path)
    ckpt.write_bytes(ckpt.read_bytes().replace(b"gate.w1", b"fooo.w1"))
    assert run_cli(["eval", "--corpus", str(corpus_path), "--model", str(ckpt)]) == 3
    assert "code=unknown-parameter" in capsys.readouterr().err


@pytest.mark.parametrize("group,name,replacement,code", [
    ("gate", "b1", None, "unknown-parameter"),
    ("scorer", "f_w2", np.zeros((8, 2)), "dimension-mismatch"),
])
def test_malformed_checkpoint_parameter_exits_three(tmp_path, capsys, group, name,
                                                    replacement, code):
    corpus_path = _synth(tmp_path)
    model = init_model_params(0, 8, 8)
    if replacement is None:
        del model.group(group)[name]
    else:
        model.group(group)[name] = replacement
    ckpt = tmp_path / "broken.pclw"
    save_checkpoint(model, str(ckpt))
    assert run_cli(["eval", "--corpus", str(corpus_path), "--model", str(ckpt)]) == 3
    assert f"code={code}" in capsys.readouterr().err


@pytest.mark.parametrize("sidecar", [b"[]", b"{"])
def test_bad_manifest_sidecar_exits_three(tmp_path, capsys, sidecar):
    path = _synth(tmp_path)
    (tmp_path / "c.pclp.manifest.json").write_bytes(sidecar)
    assert run_cli(["validate", str(path)]) == 3
    assert "code=dimension-mismatch" in capsys.readouterr().err


def test_non_utf8_checkpoint_name_exits_three(tmp_path, capsys):
    corpus_path = _synth(tmp_path)
    ckpt = _checkpoint(tmp_path, corpus_path)
    ckpt.write_bytes(ckpt.read_bytes().replace(b"gate.w1", b"gate.\xffw"))
    assert run_cli(["eval", "--corpus", str(corpus_path), "--model", str(ckpt)]) == 3
    assert "code=dimension-mismatch" in capsys.readouterr().err


def test_non_finite_checkpoint_parameter_exits_four(tmp_path, capsys):
    corpus_path = _synth(tmp_path)
    model = init_model_params(0, 8, 8)
    model.scorer["f_w1"][0, 0] = np.nan
    ckpt = tmp_path / "nan.pclw"
    save_checkpoint(model, str(ckpt))
    assert run_cli(["eval", "--corpus", str(corpus_path), "--model", str(ckpt)]) == 4
    err = capsys.readouterr().err
    assert "code=invalid-input" in err and "scorer.f_w1" in err


@pytest.mark.parametrize("cut,violation", [("words", "empty word matrix"),
                                           ("frames", "no frames")])
def test_entry_points_reject_an_invalid_corpus(tmp_path, capsys, cut, violation):
    corpus_path = _synth(tmp_path)
    ckpt = _checkpoint(tmp_path, corpus_path)
    bundle = read_corpus(str(corpus_path))
    if cut == "words":  # a query with 0 word rows
        q = bundle.queries[1]
        bundle.queries[1] = dataclasses.replace(q, words=q.words[:0])
    else:               # a video with 0 frames
        v = bundle.videos[2]
        bundle.videos[2] = dataclasses.replace(v, raw_frames=v.raw_frames[:0],
                                               clip_frames=v.clip_frames[:0])
    write_corpus(bundle, str(corpus_path))
    data = ["--corpus", str(corpus_path)]
    model = data + ["--model", str(ckpt)]
    for argv in (["eval"] + model,
                 ["query"] + model + ["--query-id", "qry_00000"],
                 ["bench"] + model + ["--rounds", "1"],
                 ["train"] + data + ["--epochs", "1", "-o", str(tmp_path / "t.pclw")]):
        assert run_cli(argv) == 4
        err = capsys.readouterr().err
        assert "code=invalid-corpus" in err and violation in err
