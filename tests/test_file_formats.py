"""The PCLP, PCLW and PCLX files: pinned bytes, and a mutation fuzz of the loaders."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proclip import engine
from proclip.corpus import (CorpusFormatError, SynthSpec, read_corpus,
                            synth_corpus, write_corpus)
from proclip.model import (flatten_params, init_model_params, load_checkpoint,
                           save_checkpoint, serialize_checkpoint)

# sha256 of version-1 files; a change to either is a change of the on-disk format
PCLP_SHA256 = "5bf62cd77ac4681b60f46a83c310d129ef3a0b8910c5137f09b24f78735040ee"
PCLW_SHA256 = "977c92e484c9ea9de13a13aa916092663ecc382a655639bccccf3d68295ef54c"


def test_written_bytes_are_pinned(tmp_path):
    path = tmp_path / "c.pclp"
    write_corpus(synth_corpus(SynthSpec(n_videos=3, n_queries=4, frames_per_video=(2, 5),
                                        d_v=5, d=8, seed=3)), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PCLP_SHA256
    ckpt = serialize_checkpoint(init_model_params(0, 8, 8))
    assert hashlib.sha256(ckpt).hexdigest() == PCLW_SHA256


# -- fuzz ----------------------------------------------------------------

OPS = ("cut", "splice", ("set", 0x00), ("set", 0x80), ("set", 0xFF),
       *(("flip", 1 << bit) for bit in range(8)))


def _mutate(raw: bytes, op, at: int, headers: list) -> bytes:
    if op == "cut":
        return raw[:at]
    if op == "splice":  # another format's magic and version
        return headers[at % len(headers)] + raw[6:]
    kind, value = op
    out = bytearray(raw)
    out[at] = value if kind == "set" else out[at] ^ value
    return bytes(out)


def _name_offsets(raw: bytes, names) -> tuple[list, list]:
    """Offsets inside each named record's length and name, and of the byte after it.

    Those bytes are a small share of a checkpoint, whose float payload dominates,
    so the fuzz aims two thirds of its draws at them."""
    inside, after = set(), set()
    for name in names:
        start = raw.find(len(name).to_bytes(2, "little") + name.encode())
        inside.update(range(start, start + 2 + len(name)))
        after.add(start + 2 + len(name))
    return sorted(inside), sorted(after)


@pytest.fixture(scope="module")
def formats(tmp_path_factory):
    """Format -> (file bytes, loader, offsets in names, offsets after names)."""
    root = tmp_path_factory.mktemp("formats")
    corpus = synth_corpus(SynthSpec(n_videos=2, n_queries=2, frames_per_video=2,
                                    d_v=1, d=8, seed=5))
    model = init_model_params(0, 1, 8, scorer_hidden=1)
    write_corpus(corpus, str(root / "f.pclp"))
    save_checkpoint(model, str(root / "f.pclw"))
    engine.save_index(engine.index_corpus(corpus, model), str(root / "f.pclx"))
    ids = [v.id for v in corpus.videos] + [q.id for q in corpus.queries]
    out = {}
    for fmt, names, load in (
            ("pclp", ids, read_corpus),  # the fuzzed copy has no sidecar
            ("pclw", flatten_params(model), load_checkpoint),
            ("pclx", ids[:2], lambda p: engine.load_index(p, corpus, model))):
        raw = (root / f"f.{fmt}").read_bytes()
        out[fmt] = (raw, load, *_name_offsets(raw, names))
    return out


@pytest.mark.parametrize("fmt", ["pclp", "pclw", "pclx"])
@settings(derandomize=True, deadline=None, max_examples=250)
@given(data=st.data())
def test_mutated_files_fail_only_with_format_errors(formats, tmp_path_factory, fmt, data):
    raw, load, inside, after = formats[fmt]
    op = data.draw(st.sampled_from(OPS))
    at = data.draw(st.one_of(st.integers(0, len(raw) - 1), st.sampled_from(inside),
                             st.sampled_from(after)))
    headers = [formats[other][0][:6] for other in formats if other != fmt]
    path = tmp_path_factory.getbasetemp() / f"fuzz.{fmt}"
    path.write_bytes(_mutate(raw, op, at, headers))
    try:
        load(str(path))
    except CorpusFormatError:
        pass
    except ValueError as exc:
        # a flipped float may be NaN or inf, which an index refuses (exit 4)
        if not (fmt == "pclx" and "holds NaN or inf" in str(exc)):
            raise
