import numpy as np
import pytest

from proclip import encoder, nn
from proclip.rng import CounterRng


def test_projection_identity_map():
    d = 5
    params = {"proj_w": np.eye(d), "proj_b": np.zeros(d)}
    x = CounterRng(0).normal_matrix(4, d)
    assert np.allclose(encoder.project_frames(x, params), x)


def test_projection_of_zero_rows_is_bias():
    params = {"proj_w": CounterRng(1).normal_matrix(3, 6),
              "proj_b": CounterRng(2).normal(6)}
    out = encoder.project_frames(np.zeros((4, 3)), params)
    assert np.allclose(out, np.tile(params["proj_b"], (4, 1)))


def test_projection_matches_triple_loop_oracle():
    rng = CounterRng(3)
    raw = rng.normal_matrix(4, 3)
    w = rng.normal_matrix(3, 5)
    b = rng.normal(5)
    expected = np.empty((4, 5))
    for i in range(4):
        for j in range(5):
            acc = b[j]
            for k in range(3):
                acc += raw[i, k] * w[k, j]
            expected[i, j] = acc
    got = encoder.project_frames(raw, {"proj_w": w, "proj_b": b})
    assert np.allclose(got, expected, atol=1e-6)


def test_projection_rejects_dim_mismatch():
    params = {"proj_w": np.eye(3), "proj_b": np.zeros(3)}
    with pytest.raises(ValueError):
        encoder.project_frames(np.zeros((2, 4)), params)


def test_positional_row_zero_alternates_zero_one():
    pe = encoder.positional_encoding(3, 8)
    assert np.allclose(pe[0, 0::2], 0.0)
    assert np.allclose(pe[0, 1::2], 1.0)


def test_positional_row_one_matches_formula():
    pe = encoder.positional_encoding(2, 4)
    expected = [np.sin(1.0), np.cos(1.0),
                np.sin(1.0 / 100.0), np.cos(1.0 / 100.0)]
    assert np.allclose(pe[1], expected, atol=1e-12)


def test_positional_entries_bounded():
    x = CounterRng(4).normal_matrix(50, 12)
    shifted = encoder.add_positional(x)
    assert np.all(np.abs(shifted - x) <= 1.0 + 1e-12)


def test_positional_handles_odd_width():
    pe = encoder.positional_encoding(4, 5)
    assert pe.shape == (4, 5)
    assert np.isfinite(pe).all()


def test_single_frame_attention_weight_is_one():
    rng = CounterRng(5)
    layer = nn.init_attention_layer(rng, 4, 8)
    _, weights = nn.single_head_attention(rng.normal_matrix(1, 4), layer,
                                          return_weights=True)
    assert np.array_equal(weights, [[1.0]])


def test_identical_rows_give_uniform_attention():
    rng = CounterRng(6)
    layer = nn.init_attention_layer(rng, 4, 8)
    x = np.tile(rng.normal(4), (5, 1))
    _, weights = nn.single_head_attention(x, layer, return_weights=True)
    assert np.allclose(weights, 1.0 / 5.0, atol=1e-6)


def test_attention_layer_matches_straight_line_reference():
    rng = CounterRng(7)
    d = 4
    p = nn.init_attention_layer(rng, d, 4 * d)
    x = rng.normal_matrix(3, d)

    def ln(v, g, b):
        m = v.mean(axis=-1, keepdims=True)
        var = ((v - m) ** 2).mean(axis=-1, keepdims=True)
        return (v - m) / np.sqrt(var + 1e-5) * g + b

    h = ln(x, p["ln1_g"], p["ln1_b"])
    q = h @ p["wq"] + p["bq"]
    k = h @ p["wk"]
    v = h @ p["wv"] + p["bv"]
    logits = q @ k.T / np.sqrt(d)
    a = np.exp(logits - logits.max(axis=-1, keepdims=True))
    a /= a.sum(axis=-1, keepdims=True)
    y = x + (a @ v) @ p["wo"] + p["bo"]
    h2 = ln(y, p["ln2_g"], p["ln2_b"])
    z = y + np.maximum(h2 @ p["ff_w1"] + p["ff_b1"], 0.0) @ p["ff_w2"] + p["ff_b2"]

    got = encoder.self_attention_layer(x, p)
    assert np.allclose(got, z, atol=1e-9)


@pytest.mark.parametrize("duration,depth", [(0.0, 3), (59.9, 3), (60.0, 3),
                                            (60.001, 5), (61.0, 5), (600.0, 5)])
def test_depth_rule(duration, depth):
    assert encoder.depth_for_duration(duration) == depth


def test_depth_rejects_negative_duration():
    with pytest.raises(ValueError):
        encoder.depth_for_duration(-1.0)


def test_encode_video_reports_layers_applied():
    rng = CounterRng(8)
    params = encoder.init_encoder_params(rng, 3, 6)
    raw = rng.normal_matrix(4, 3)
    short = encoder.encode_video(raw, 30.0, params, source_video="v0")
    long = encoder.encode_video(raw, 90.0, params)
    assert short.layers_applied == 3 and long.layers_applied == 5
    assert short.source_video == "v0"
    assert short.rows.shape == (4, 6)
    assert not np.allclose(short.rows, long.rows)


@pytest.mark.parametrize("duration", [30.0, 75.0])
def test_encode_video_batch_equals_rows(duration):
    rng = CounterRng(12)
    params = encoder.init_encoder_params(rng, 6, 8)
    raw = rng.normal(3 * 10 * 6).reshape(3, 10, 6)
    batch = encoder.encode_video(raw, duration, params)
    assert batch.rows.shape == (3, 10, 8)
    for c in range(3):  # each item alone, bit for bit
        rows = encoder.encode_video(raw[c], duration, params).rows
        assert rows.tobytes() == batch.rows[c].tobytes()


def test_long_video_stack_extends_the_short_one():
    # the first three layers are shared, so a long encoding continues from
    # the short encoding's output
    rng = CounterRng(9)
    params = encoder.init_encoder_params(rng, 3, 6)
    raw = rng.normal_matrix(5, 3)
    short = encoder.encode_video(raw, 10.0, params).rows
    resumed = short
    for layer in params["layers"][3:5]:
        resumed = encoder.self_attention_layer(resumed, layer)
    assert np.allclose(resumed, encoder.encode_video(raw, 100.0, params).rows)


def test_encoding_is_deterministic():
    rng = CounterRng(10)
    params = encoder.init_encoder_params(rng, 4, 8)
    raw = rng.normal_matrix(6, 4)
    a = encoder.encode_video(raw, 20.0, params).rows
    b = encoder.encode_video(raw, 20.0, params).rows
    assert np.array_equal(a, b)
