"""Embedding corpus: on-disk format, validation, and synthetic generation.

The synthetic generator plants a known text-to-video relevance structure
(each query's ground-truth video carries frames aligned with the query
sentence) so retrieval behavior can be checked against exact oracles.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .rng import CounterRng

MAGIC = b"PCLP"
FORMAT_VERSION = 1
GENERATOR_VERSION = 1


class CorpusFormatError(Exception):
    """File-format failure with a stable machine-readable code."""

    def __init__(self, code: str, message: str = ""):
        self.code = code
        super().__init__(f"{code}: {message}" if message else code)


@dataclass
class VideoRecord:
    id: str
    duration_s: float
    raw_frames: np.ndarray   # N x D_v float32
    clip_frames: np.ndarray  # N x D float32, teacher per-frame features
    teacher_video: np.ndarray  # D float32, teacher video feature


@dataclass
class QueryRecord:
    id: str
    words: np.ndarray     # W x D float32
    sentence: np.ndarray  # D float32
    ground_truth_video: str


@dataclass
class CorpusBundle:
    videos: list[VideoRecord]
    queries: list[QueryRecord]
    dims: dict
    manifest: dict


@dataclass
class SynthSpec:
    n_videos: int
    n_queries: int
    frames_per_video: int | tuple[int, int] = 32
    d_v: int = 24
    d: int = 32
    duration_range: tuple[float, float] = (10.0, 90.0)
    relevance_snr: float = 10.0
    relevant_frame_fraction: float = 0.5
    seed: int = 0


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_spec(spec: SynthSpec) -> None:
    if spec.n_videos < 1 or spec.n_queries < 1:
        raise ValueError("counts must be >= 1")
    if spec.d_v < 1 or spec.d < 1:
        raise ValueError("dims must be >= 1")
    if not spec.relevance_snr > 0:
        raise ValueError("relevance_snr must be > 0")
    if not (0.0 < spec.relevant_frame_fraction <= 1.0):
        raise ValueError("relevant_frame_fraction must lie in (0, 1]")
    lo, hi = spec.duration_range
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo < 0 or hi < lo:
        raise ValueError("bad duration_range")
    fr = spec.frames_per_video
    if isinstance(fr, int):
        if fr < 1:
            raise ValueError("frames_per_video must be >= 1")
    else:
        if fr[0] < 1 or fr[1] < fr[0]:
            raise ValueError("bad frames_per_video range")


def _raw_direction(sentence: np.ndarray, d_v: int) -> np.ndarray:
    """Project the sentence direction into raw-feature space.

    Truncate (or zero-pad) to D_v and renormalize, so the planted signal
    survives in the lightweight-extractor features as well.
    """
    d = sentence.shape[0]
    if d_v <= d:
        t = sentence[:d_v].copy()
    else:
        t = np.zeros(d_v)
        t[:d] = sentence
    n = np.linalg.norm(t)
    return t / n if n > 0 else t


def _orthogonalize(rows: np.ndarray, direction: np.ndarray) -> np.ndarray:
    proj = rows @ direction
    rows = rows - np.outer(proj, direction)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return rows / norms


def synth_corpus(spec: SynthSpec) -> CorpusBundle:
    """Deterministic planted corpus; same spec gives bit-identical bundles."""
    _check_spec(spec)
    rng = CounterRng(spec.seed)
    snr = spec.relevance_snr
    noise_free = math.isinf(snr)

    lo, hi = spec.duration_range
    durations = rng.uniform_range(spec.n_videos, lo, hi)

    if isinstance(spec.frames_per_video, int):
        frame_counts = np.full(spec.n_videos, spec.frames_per_video, dtype=np.int64)
    else:
        flo, fhi = spec.frames_per_video
        frame_counts = flo + rng.integers(spec.n_videos, fhi - flo + 1)

    sentences = rng.unit_vectors(spec.n_queries, spec.d)
    word_counts = 4 + rng.integers(spec.n_queries, 7)  # 4..10 tokens
    words = []
    for q in range(spec.n_queries):
        w = int(word_counts[q])
        rows = sentences[q][None, :] + 0.5 * rng.normal_matrix(w, spec.d)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        words.append(rows)

    # query i is answered by video i mod n_videos; the first query mapped to
    # a video defines that video's planted topic
    gt = [i % spec.n_videos for i in range(spec.n_queries)]
    topic_of_video: dict[int, int] = {}
    for q, v in enumerate(gt):
        topic_of_video.setdefault(v, q)

    videos = []
    for v in range(spec.n_videos):
        n = int(frame_counts[v])
        clip = rng.unit_vectors(n, spec.d)
        raw = rng.unit_vectors(n, spec.d_v)
        if v in topic_of_video:
            topic = sentences[topic_of_video[v]]
            raw_topic = _raw_direction(topic, spec.d_v)
            n_rel = int(math.ceil(spec.relevant_frame_fraction * n))
            rel = rng.choice(n, n_rel)
            if noise_free:
                clip_rel = np.tile(topic, (n_rel, 1))
                raw_rel = np.tile(raw_topic, (n_rel, 1))
            else:
                clip_rel = topic[None, :] + rng.normal_matrix(n_rel, spec.d) / snr
                raw_rel = raw_topic[None, :] + rng.normal_matrix(n_rel, spec.d_v) / snr
            mask = np.ones(n, dtype=bool)
            mask[rel] = False
            if noise_free:
                # distractors exactly orthogonal to the planted direction so
                # the teacher feature matches the sentence to machine precision
                clip[mask] = _orthogonalize(clip[mask], topic)
                raw[mask] = _orthogonalize(raw[mask], raw_topic)
            clip[rel] = clip_rel
            raw[rel] = raw_rel
            teacher = clip[rel].mean(axis=0)
        else:
            teacher = clip.mean(axis=0)
        tn = np.linalg.norm(teacher)
        if tn > 0:
            teacher = teacher / tn
        videos.append(VideoRecord(
            id=f"vid_{v:05d}",
            duration_s=float(np.float32(durations[v])),
            raw_frames=raw.astype(np.float32),
            clip_frames=clip.astype(np.float32),
            teacher_video=teacher.astype(np.float32),
        ))

    queries = [
        QueryRecord(
            id=f"qry_{q:05d}",
            words=words[q].astype(np.float32),
            sentence=sentences[q].astype(np.float32),
            ground_truth_video=f"vid_{gt[q]:05d}",
        )
        for q in range(spec.n_queries)
    ]

    spec_dict = dataclasses.asdict(spec)
    spec_dict["relevance_snr"] = repr(spec.relevance_snr)
    for key in ("frames_per_video", "duration_range"):
        if isinstance(spec_dict[key], tuple):
            spec_dict[key] = list(spec_dict[key])
    manifest = {
        "seed": spec.seed,
        "generator_version": GENERATOR_VERSION,
        "created_unix": 0,  # kept fixed so equal specs give equal bundles
        "spec": spec_dict,
    }
    return CorpusBundle(
        videos=videos,
        queries=queries,
        dims={"D_v": spec.d_v, "D": spec.d},
        manifest=manifest,
    )


# -- binary format -------------------------------------------------------
#
# PCLP (corpus), PCLW (checkpoint) and PCLX (index) share one codec: a 4-byte
# magic, a u16 version, then little-endian records of u16-length UTF-8
# names, fixed-width integers and float32 payloads.

def pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def pack_f32(arr) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f4").tobytes()


class Reader:
    """Bounds-checked cursor over one file; malformed bytes raise CorpusFormatError."""

    def __init__(self, path, magic: bytes, version: int, what: str):
        with open(path, "rb") as fh:
            self.buf = memoryview(fh.read())
        self.pos = 0
        self.what = what
        if self.take(4) != magic:
            raise CorpusFormatError("bad-magic", f"{what} file expected")
        (got,) = self.unpack("<H")
        if got != version:
            raise CorpusFormatError("version-mismatch", f"{what} version {got}")

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise CorpusFormatError("truncated-payload",
                                    f"{self.what}: needed {n} bytes at offset {self.pos}")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def read_str(self) -> str:
        (n,) = self.unpack("<H")
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusFormatError("dimension-mismatch",
                                    f"{self.what}: name is not UTF-8 ({exc.reason})") from None

    def read_f32(self, *shape: int) -> np.ndarray:
        """A writable float32 array; math.prod cannot wrap on a forged shape."""
        data = self.take(4 * math.prod(shape))
        return np.frombuffer(data, dtype="<f4").reshape(shape).copy()

    def finish(self) -> None:
        if self.pos != len(self.buf):
            raise CorpusFormatError("dimension-mismatch",
                                    f"{self.what}: {len(self.buf) - self.pos} "
                                    "unexpected trailing bytes")


def write_corpus(bundle: CorpusBundle, path: str) -> None:
    d_v, d = bundle.dims["D_v"], bundle.dims["D"]
    parts = [MAGIC,
             struct.pack("<HHIIII", FORMAT_VERSION, 0, d_v, d,
                         len(bundle.videos), len(bundle.queries))]
    for v in bundle.videos:
        parts += [pack_str(v.id), struct.pack("<fI", v.duration_s, v.raw_frames.shape[0]),
                  pack_f32(v.raw_frames), pack_f32(v.clip_frames), pack_f32(v.teacher_video)]
    for q in bundle.queries:
        parts += [pack_str(q.id), struct.pack("<I", q.words.shape[0]), pack_f32(q.words),
                  pack_f32(q.sentence), pack_str(q.ground_truth_video)]
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))
    sidecar = {
        "n_videos": len(bundle.videos),
        "n_queries": len(bundle.queries),
        "D_v": d_v,
        "D": d,
        "manifest": bundle.manifest,
    }
    with open(str(path) + ".manifest.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_corpus(path: str) -> CorpusBundle:
    r = Reader(path, MAGIC, FORMAT_VERSION, "corpus")
    _flags, d_v, d, n_videos, n_queries = r.unpack("<HIIII")
    videos = []
    for _ in range(n_videos):
        vid = r.read_str()
        duration, n = r.unpack("<fI")
        videos.append(VideoRecord(vid, float(duration), r.read_f32(n, d_v),
                                  r.read_f32(n, d), r.read_f32(d)))
    queries = []
    for _ in range(n_queries):
        qid = r.read_str()
        (w,) = r.unpack("<I")
        queries.append(QueryRecord(qid, r.read_f32(w, d), r.read_f32(d), r.read_str()))
    r.finish()
    header = {"n_videos": n_videos, "n_queries": n_queries, "D_v": d_v, "D": d}
    return CorpusBundle(videos, queries, {"D_v": d_v, "D": d},
                        _read_manifest(str(path) + ".manifest.json", header))


def _read_manifest(path: str, header: dict) -> dict:
    """The sidecar's manifest, after checking the sidecar against the header."""
    try:
        with open(path, encoding="utf-8") as fh:
            sidecar = json.load(fh)
    except FileNotFoundError:
        return {}
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep
        raise CorpusFormatError("dimension-mismatch", f"manifest sidecar: {exc}") from None
    if not isinstance(sidecar, dict) or not isinstance(sidecar.get("manifest", {}), dict):
        raise CorpusFormatError("dimension-mismatch", "manifest sidecar is not a JSON object")
    for key, got in header.items():
        if key in sidecar and sidecar[key] != got:
            raise CorpusFormatError(
                "dimension-mismatch",
                f"manifest {key}={sidecar[key]} but header has {got}")
    return sidecar.get("manifest", {})


def bundles_equal(a: CorpusBundle, b: CorpusBundle) -> bool:
    """Bit-level equality of two bundles (manifests compared as JSON)."""
    if len(a.videos) != len(b.videos) or len(a.queries) != len(b.queries):
        return False
    if a.dims != b.dims:
        return False
    for va, vb in zip(a.videos, b.videos):
        if va.id != vb.id or np.float32(va.duration_s) != np.float32(vb.duration_s):
            return False
        for fa, fb in ((va.raw_frames, vb.raw_frames),
                       (va.clip_frames, vb.clip_frames),
                       (va.teacher_video, vb.teacher_video)):
            if fa.shape != fb.shape or fa.tobytes() != fb.tobytes():
                return False
    for qa, qb in zip(a.queries, b.queries):
        if (qa.id != qb.id or qa.ground_truth_video != qb.ground_truth_video
                or qa.words.tobytes() != qb.words.tobytes()
                or qa.sentence.tobytes() != qb.sentence.tobytes()):
            return False
    return json.dumps(a.manifest, sort_keys=True) == json.dumps(b.manifest, sort_keys=True)


def validate_corpus(bundle: CorpusBundle) -> ValidationReport:
    report = ValidationReport()
    add = report.violations.append
    d_v, d = bundle.dims.get("D_v"), bundle.dims.get("D")

    seen_vids = set()
    for v in bundle.videos:
        if v.id in seen_vids:
            add(f"duplicate video id {v.id}")
        seen_vids.add(v.id)
        if v.duration_s < 0:
            add(f"video {v.id}: negative duration")
        n_raw = v.raw_frames.shape[0]
        n_clip = v.clip_frames.shape[0]
        if n_raw < 1:
            add(f"video {v.id}: no frames")
        if n_raw != n_clip:
            add(f"video {v.id}: raw_frames has {n_raw} rows but clip_frames has {n_clip}")
        if v.raw_frames.shape[1] != d_v:
            add(f"video {v.id}: raw frame dim {v.raw_frames.shape[1]} != D_v={d_v}")
        if v.clip_frames.shape[1] != d:
            add(f"video {v.id}: clip frame dim {v.clip_frames.shape[1]} != D={d}")
        if v.teacher_video.shape != (d,):
            add(f"video {v.id}: teacher feature dim {v.teacher_video.shape} != D={d}")
        for name, mat in (("raw_frames", v.raw_frames), ("clip_frames", v.clip_frames)):
            bad = np.where(~np.isfinite(mat).all(axis=1))[0]
            for row in bad:
                add(f"video {v.id}: non-finite entries in {name} row {int(row)}")
        if not np.isfinite(v.teacher_video).all():
            add(f"video {v.id}: non-finite teacher feature")

    seen_q = set()
    for q in bundle.queries:
        if q.id in seen_q:
            add(f"duplicate query id {q.id}")
        seen_q.add(q.id)
        if q.words.shape[0] < 1:
            add(f"query {q.id}: empty word matrix")
        if q.words.shape[1] != d:
            add(f"query {q.id}: word dim {q.words.shape[1]} != D={d}")
        if q.sentence.shape != (d,):
            add(f"query {q.id}: sentence dim {q.sentence.shape} != D={d}")
        if not np.isfinite(q.sentence).all():
            add(f"query {q.id}: non-finite sentence embedding")
        elif np.abs(q.sentence).max() > 1.0 + 1e-6:
            add(f"query {q.id}: sentence entries exceed unit bound")
        if not np.isfinite(q.words).all():
            add(f"query {q.id}: non-finite word embeddings")
        if q.ground_truth_video not in seen_vids:
            add(f"query {q.id}: ground truth {q.ground_truth_video} not in corpus")
    return report
