import struct

import numpy as np
import pytest

from proclip.corpus import CorpusFormatError
from proclip.model import (CHECKPOINT_MAGIC, GROUPS, ModelParams, flatten_params,
                           init_model_params, load_checkpoint, model_hash,
                           save_checkpoint, serialize_checkpoint,
                           unflatten_params)


def test_init_is_deterministic_and_dims_reported():
    a = init_model_params(0, 5, 8)
    b = init_model_params(0, 5, 8)
    assert a.dims == (5, 8)
    fa, fb = flatten_params(a), flatten_params(b)
    assert fa.keys() == fb.keys()
    for k in fa:
        assert np.array_equal(fa[k], fb[k])
    fc = flatten_params(init_model_params(1, 5, 8))
    assert any(not np.array_equal(fa[k], fc[k]) for k in fa)


def test_groups_cover_every_parameter():
    flat = flatten_params(init_model_params(0, 5, 8))
    assert {name.split(".", 1)[0] for name in flat} == set(GROUPS)
    assert "logit_scale.log_scale" in flat


def test_flatten_unflatten_round_trip():
    model = init_model_params(3, 5, 8)
    rebuilt = unflatten_params(flatten_params(model))
    assert isinstance(rebuilt, ModelParams)
    fa, fb = flatten_params(model), flatten_params(rebuilt)
    assert fa.keys() == fb.keys()
    for k in fa:
        assert np.array_equal(fa[k], fb[k])
    assert isinstance(rebuilt.encoder["layers"], list)
    assert len(rebuilt.encoder["layers"]) == len(model.encoder["layers"])


def test_checkpoint_round_trip_is_file_level_identity(tmp_path):
    model = init_model_params(7, 5, 8)
    path = tmp_path / "m.pclw"
    save_checkpoint(model, str(path))
    loaded = load_checkpoint(str(path))
    # loading reads the f32 payload; re-serializing reproduces the same bytes
    assert serialize_checkpoint(loaded) == path.read_bytes()
    assert model_hash(loaded) == model_hash(load_checkpoint(str(path)))
    assert loaded.dims == (5, 8)


def test_model_hash_changes_with_parameters():
    a = init_model_params(0, 5, 8)
    b = init_model_params(0, 5, 8)
    assert model_hash(a) == model_hash(b)
    b.gate["b2"] = b.gate["b2"] + 1.0
    assert model_hash(a) != model_hash(b)


def _expect_code(path, code):
    with pytest.raises(CorpusFormatError) as err:
        load_checkpoint(str(path))
    assert err.value.code == code


def test_checkpoint_error_codes(tmp_path):
    model = init_model_params(0, 5, 8)
    path = tmp_path / "m.pclw"
    save_checkpoint(model, str(path))
    raw = path.read_bytes()

    bad = tmp_path / "bad.pclw"
    bad.write_bytes(b"NOPE" + raw[4:])
    _expect_code(bad, "bad-magic")

    ver = bytearray(raw)
    ver[4] = 9
    bad.write_bytes(bytes(ver))
    _expect_code(bad, "version-mismatch")

    bad.write_bytes(raw[:-7])
    _expect_code(bad, "truncated-payload")

    bad.write_bytes(raw + b"\x00" * 4)
    _expect_code(bad, "dimension-mismatch")

    # a renamed parameter must name a known group (same length keeps the framing)
    for renamed in (b"fooo.w1", b"gate_w1"):
        assert raw.count(b"gate.w1") == 1
        bad.write_bytes(raw.replace(b"gate.w1", renamed))
        _expect_code(bad, "unknown-parameter")

    # a known group with a missing, an extra or a misshapen parameter
    missing = init_model_params(0, 5, 8)
    del missing.gate["b1"]
    extra = init_model_params(0, 5, 8)
    extra.scorer["z_w1"] = np.zeros((8, 8))
    short = init_model_params(0, 5, 8)
    short.encoder["layers"].pop()
    for broken, code in ((missing, "unknown-parameter"), (extra, "unknown-parameter"),
                         (short, "unknown-parameter")):
        save_checkpoint(broken, str(bad))
        _expect_code(bad, code)
    for group, name, shape in (("scorer", "f_w2", (8, 2)), ("scorer", "y_b1", (9,)),
                               ("encoder", "proj_w", (5,)), ("gate", "w1", (16, 8)),
                               ("logit_scale", "log_scale", (2,))):
        broken = init_model_params(0, 5, 8)
        broken.group(group)[name] = np.zeros(shape)
        save_checkpoint(broken, str(bad))
        _expect_code(bad, "dimension-mismatch")
    # a forged shape: its element count must not wrap, and no parameter has 3 axes
    head = CHECKPOINT_MAGIC + struct.pack("<HI", 1, 1) + struct.pack("<H", 7) + b"gate.w1"
    for shape, code in (((2**32 - 1, 2**32 - 1), "truncated-payload"),
                        ((2**31, 2**31, 4), "dimension-mismatch"),
                        ((1,) * 97, "dimension-mismatch")):
        bad.write_bytes(head + struct.pack("<B%dI" % len(shape), len(shape), *shape)
                        + b"\x00" * 64)
        _expect_code(bad, code)
    # forged dims of 2**16 imply 32 GiB matrices; the check must not allocate them
    wide_dims = b"".join(
        struct.pack("<H", len(name)) + name + struct.pack("<B2I", 2, *shape)
        + bytes(4 * shape[0] * shape[1])
        for name, shape in ((b"encoder.proj_w", (1, 2**16)), (b"scorer.f_w1", (2**16, 1))))
    bad.write_bytes(CHECKPOINT_MAGIC + struct.pack("<HI", 1, 2) + wide_dims)
    _expect_code(bad, "unknown-parameter")
    # the expected shapes follow the file's own dims, scorer width included
    wide = init_model_params(0, 5, 8, scorer_hidden=24)
    save_checkpoint(wide, str(bad))
    assert load_checkpoint(str(bad)).scorer["f_w1"].shape == (8, 24)
