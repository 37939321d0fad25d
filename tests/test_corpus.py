import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proclip.corpus import (CorpusFormatError, SynthSpec, bundles_equal,
                            read_corpus, synth_corpus, validate_corpus,
                            write_corpus)


def _tiny_spec(**kw):
    base = dict(n_videos=4, n_queries=5, frames_per_video=6, d_v=5, d=7,
                relevance_snr=10.0, seed=1)
    base.update(kw)
    return SynthSpec(**base)


def test_generation_is_deterministic():
    a = synth_corpus(_tiny_spec())
    b = synth_corpus(_tiny_spec())
    assert bundles_equal(a, b)
    assert not bundles_equal(a, synth_corpus(_tiny_spec(seed=2)))


def test_noise_free_teacher_matches_sentence():
    bundle = synth_corpus(SynthSpec(n_videos=1, n_queries=1,
                                    relevant_frame_fraction=1.0,
                                    relevance_snr=math.inf, seed=0))
    teacher = bundle.videos[0].teacher_video.astype(np.float64)
    sentence = bundle.queries[0].sentence.astype(np.float64)
    cos = teacher @ sentence / (np.linalg.norm(teacher) * np.linalg.norm(sentence))
    assert abs(cos - 1.0) < 1e-6


def test_planted_structure_supports_exhaustive_cosine_retrieval():
    bundle = synth_corpus(SynthSpec(n_videos=50, n_queries=50,
                                    relevance_snr=10.0, seed=5))
    teachers = np.stack([v.teacher_video.astype(np.float64) for v in bundle.videos])
    teachers /= np.linalg.norm(teachers, axis=1, keepdims=True)
    hits = 0
    for q in bundle.queries:
        scores = teachers @ q.sentence.astype(np.float64)
        best = bundle.videos[int(np.argmax(scores))].id
        hits += best == q.ground_truth_video
    assert hits == 50  # exhaustive-cosine oracle ranks ground truth first


def test_round_trip_is_bit_exact(tmp_path):
    bundle = synth_corpus(_tiny_spec(frames_per_video=(3, 9)))
    path = tmp_path / "c.pclp"
    write_corpus(bundle, str(path))
    again = read_corpus(str(path))
    assert bundles_equal(bundle, again)
    for v0, v1 in zip(bundle.videos, again.videos):
        assert v0.raw_frames.tobytes() == v1.raw_frames.tobytes()
        assert v0.clip_frames.tobytes() == v1.clip_frames.tobytes()
    write_corpus(again, str(tmp_path / "c2.pclp"))
    assert path.read_bytes() == (tmp_path / "c2.pclp").read_bytes()


def test_identical_files_for_identical_specs(tmp_path):
    for name in ("a.pclp", "b.pclp"):
        write_corpus(synth_corpus(_tiny_spec(seed=7)), str(tmp_path / name))
    assert (tmp_path / "a.pclp").read_bytes() == (tmp_path / "b.pclp").read_bytes()


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "c.pclp"
    write_corpus(synth_corpus(_tiny_spec()), str(path))
    return path


def _expect_code(path, code):
    with pytest.raises(CorpusFormatError) as err:
        read_corpus(str(path))
    assert err.value.code == code


def test_corrupted_magic(corpus_file):
    data = bytearray(corpus_file.read_bytes())
    data[:4] = b"XXXX"
    corpus_file.write_bytes(bytes(data))
    _expect_code(corpus_file, "bad-magic")


def test_unknown_version(corpus_file):
    data = bytearray(corpus_file.read_bytes())
    data[4] = 99
    corpus_file.write_bytes(bytes(data))
    _expect_code(corpus_file, "version-mismatch")


def test_truncated_payload(corpus_file):
    data = corpus_file.read_bytes()
    corpus_file.write_bytes(data[: len(data) - 11])
    _expect_code(corpus_file, "truncated-payload")


def test_trailing_bytes_rejected(corpus_file):
    corpus_file.write_bytes(corpus_file.read_bytes() + b"\x00" * 8)
    _expect_code(corpus_file, "dimension-mismatch")


def test_manifest_disagreement_rejected(corpus_file):
    sidecar = corpus_file.with_name(corpus_file.name + ".manifest.json")
    good = sidecar.read_bytes()
    for text in (good.replace(b'"n_videos": 4', b'"n_videos": 9'),
                 good[:-3],                # malformed JSON
                 b"\xff" + good,           # not UTF-8
                 b"[" * 100_000,           # nested too deep for the parser
                 b"[]", b"[1]", b'"x"',    # JSON, but not an object
                 b'{"manifest": []}'):
        sidecar.write_bytes(text)
        _expect_code(corpus_file, "dimension-mismatch")


def test_missing_sidecar_is_tolerated(corpus_file):
    corpus_file.with_name(corpus_file.name + ".manifest.json").unlink()
    bundle = read_corpus(str(corpus_file))
    assert bundle.manifest == {}
    assert len(bundle.videos) == 4


def test_validate_accepts_synth_output():
    report = validate_corpus(synth_corpus(_tiny_spec()))
    assert report.ok
    assert report.violations == []


def test_validate_flags_duplicate_video_id():
    bundle = synth_corpus(_tiny_spec())
    bundle.videos[1].id = bundle.videos[0].id
    report = validate_corpus(bundle)
    assert any("duplicate video id" in v and bundle.videos[0].id in v
               for v in report.violations)


def test_validate_names_nan_row():
    bundle = synth_corpus(_tiny_spec())
    bundle.videos[2].clip_frames[3, 0] = np.nan
    report = validate_corpus(bundle)
    assert any(bundle.videos[2].id in v and "row 3" in v for v in report.violations)


def test_validate_flags_dangling_ground_truth():
    bundle = synth_corpus(_tiny_spec())
    bundle.queries[0].ground_truth_video = "vid_99999"
    report = validate_corpus(bundle)
    assert any("vid_99999" in v for v in report.violations)


@pytest.mark.parametrize("duration", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_validate_flags_a_bad_duration_once(duration):
    bundle = synth_corpus(_tiny_spec())
    bundle.videos[1].duration_s = duration
    (violation,) = validate_corpus(bundle).violations
    assert bundle.videos[1].id in violation and "duration" in violation


def test_validate_flags_shape_problems():
    bundle = synth_corpus(_tiny_spec())
    bundle.videos[0].raw_frames = bundle.videos[0].raw_frames[:, :-1]
    bundle.queries[1].sentence = bundle.queries[1].sentence[:-1]
    report = validate_corpus(bundle)
    assert len(report.violations) >= 2


def test_spec_rejects_bad_parameters():
    for kw in (dict(n_videos=0), dict(relevance_snr=0.0), dict(d=0),
               dict(relevant_frame_fraction=0.0), dict(duration_range=(5.0, 1.0)),
               dict(frames_per_video=0), dict(frames_per_video=(5, 2))):
        with pytest.raises(ValueError):
            synth_corpus(_tiny_spec(**kw))


def test_query_video_assignment_wraps_round_robin():
    bundle = synth_corpus(_tiny_spec(n_videos=3, n_queries=7))
    for i, q in enumerate(bundle.queries):
        assert q.ground_truth_video == f"vid_{i % 3:05d}"


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(2, 8),
       st.integers(1, 6), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_round_trip_property(tmp_path_factory, n_videos, n_queries, frames,
                             d_v, d, seed):
    bundle = synth_corpus(SynthSpec(n_videos=n_videos, n_queries=n_queries,
                                    frames_per_video=frames, d_v=d_v, d=d,
                                    seed=seed))
    assert validate_corpus(bundle).ok
    path = tmp_path_factory.mktemp("rt") / "c.pclp"
    write_corpus(bundle, str(path))
    assert bundles_equal(bundle, read_corpus(str(path)))
