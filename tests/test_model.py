import contextlib
import dataclasses

import numpy as np
import pytest

from partialpde import masking as mk
from partialpde import model as md
from partialpde import pdegen as pg
from partialpde import tensor as T
from partialpde import verify as vf
from partialpde.tensor import Tensor

from util import corrupt_decode_normalization, edit_config, with_config_text


def small_config(**kw):
    base = dict(layers=2, channels=16, heads=2, latent_tokens=4,
                history=3, phys_channels=1, pconv_kernel=3, mlp_ratio=1.0)
    base.update(kw)
    return md.ModelConfig(**base)


def grid_coords(gh, gw):
    return pg.GridGeometry(gh, gw).coords()


def random_inputs(cfg, gh, gw, b=1, seed=0, missing=0.3):
    rng = np.random.default_rng(seed)
    frames = rng.normal(size=(b, cfg.history, gh, gw, cfg.phys_channels))
    mask = np.stack([
        mk.gen_pointwise_mask(gh, gw, missing, seed=seed + 10 + i).grid
        for i in range(b)]).astype(np.float64)
    return grid_coords(gh, gw), frames, mask


def test_config_validation():
    with pytest.raises(ValueError):
        md.ModelConfig(channels=30, heads=4)
    with pytest.raises(ValueError):
        md.ModelConfig(temperature=0.0)
    with pytest.raises(ValueError):
        md.ModelConfig(token_mixer="conv")


@pytest.mark.parametrize("field, value", [
    ("pconv_kernel", 0), ("pconv_kernel", -1), ("pconv_kernel", 2),
    ("pconv_kernel", 4), ("history", 0), ("phys_channels", 0),
    ("heads", 0), ("heads", -2), ("channels", 0), ("channels", -8),
])
def test_config_rejects_unusable_sizes(field, value):
    with pytest.raises(ValueError, match=field):
        md.ModelConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("temperature", -1.0), ("temperature", float("nan")), ("temperature", float("inf")),
    ("mlp_ratio", 0.0), ("mlp_ratio", -3.0), ("mlp_ratio", float("nan")),
    ("mlp_ratio", float("inf")),
])
def test_config_rejects_unusable_scales(field, value):
    with pytest.raises(ValueError, match=field):
        md.ModelConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("layers", 1.5), ("channels", 8.0), ("history", 1.0), ("layers", True),
    ("temperature", True), ("temperature", "0.5"), ("boundary_first", "x"),
    ("boundary_first", 1), ("token_mixer", 1),
])
def test_config_rejects_a_value_of_the_wrong_type(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        md.ModelConfig(**{field: value})


def test_config_float_fields_take_an_int():
    assert md.ModelConfig(temperature=1, mlp_ratio=3).temperature == 1


def test_config_accepts_smallest_sizes():
    cfg = md.ModelConfig(pconv_kernel=1, history=1, phys_channels=1)
    assert cfg.embed_width == 3


def test_parameter_count_is_pure_function_of_config():
    cfg = small_config()
    p1 = md.ModelParams(cfg, seed=0, dtype=np.float64)
    p2 = md.ModelParams(cfg, seed=99, dtype=np.float64)
    assert p1.count() == p2.count() == md.count_parameters(cfg)
    assert p1.names() == p2.names()


def test_temporal_aggregate_shape_and_identity():
    cfg = small_config(layers=1, channels=5, heads=1, history=1)
    # embed width 2 + 1*1 = 3 < channels; use channels == width for identity
    cfg = md.ModelConfig(layers=1, channels=3, heads=1, latent_tokens=2,
                         history=1, phys_channels=1)
    params = md.ModelParams(cfg, seed=0, dtype=np.float64)
    params["embed.w"].data = np.eye(3)
    params["embed.b"].data = np.zeros(3)
    coords = np.array([[0.25, 0.75]])
    frames = np.full((1, 1, 1, 1, 1), 2.5)
    y = md.temporal_aggregate(coords, frames, params)
    assert y.shape == (1, 1, 3)
    assert np.allclose(y.data[0, 0], [0.25, 0.75, 2.5])


def test_temporal_aggregate_rejects_history_mismatch():
    cfg = small_config()
    params = md.ModelParams(cfg, seed=0, dtype=np.float64)
    coords, frames, mask = random_inputs(cfg, 4, 4)
    with pytest.raises(ValueError, match="history"):
        md.temporal_aggregate(coords, frames[:, :2], params)


def test_encode_rows_are_probabilities_then_masked_zero():
    cfg = small_config()
    params = md.ModelParams(cfg, seed=1, dtype=np.float64)
    rng = np.random.default_rng(0)
    gh = gw = 4
    n = gh * gw
    yh = Tensor(rng.normal(size=(1, cfg.heads, n, cfg.head_dim)))
    mask = np.ones((1, n))
    mask[0, :5] = 0.0

    # point-major reference: before the mask, each point's row of token
    # weights sums to one
    p = f"L0."
    hidden = T.gelu(T.matmul(yh, params[p + "slice_w1"]) + params[p + "slice_b1"])
    logits = T.matmul(hidden, params[p + "slice_w2"]) + params[p + "slice_b2"]
    pre = T.softmax(logits * (1.0 / cfg.temperature), axis=-1)
    assert np.abs(pre.data.sum(-1) - 1.0).max() < 1e-5

    s, z = md.phca_encode(yh, mask, params, 0)
    assert s.shape == (1, cfg.heads, cfg.latent_tokens, n)      # token-major
    assert np.all(s.data[0, :, :, :5] == 0.0)
    assert np.abs(s.data[0, :, :, 5:] - pre.data[0, :, 5:].swapaxes(-1, -2)).max() < 1e-12
    assert z.shape == (1, cfg.heads, cfg.latent_tokens, cfg.head_dim)


def test_encode_constant_features_give_constant_tokens():
    cfg = small_config()
    params = md.ModelParams(cfg, seed=2, dtype=np.float64)
    n = 16
    const = 1.7
    yh = Tensor(np.full((1, cfg.heads, n, cfg.head_dim), const))
    s, z = md.phca_encode(yh, np.ones((1, n)), params, 0)
    # eps-normalization slack: colsum/(colsum+eps)
    assert np.abs(z.data - const).max() < 1e-4


def test_encode_ignores_unobserved_values_bitwise():
    cfg = small_config()
    params = md.ModelParams(cfg, seed=2, dtype=np.float64)
    rng = np.random.default_rng(4)
    n = 16
    yh_a = rng.normal(size=(1, cfg.heads, n, cfg.head_dim))
    mask = np.ones((1, n))
    mask[0, 3] = 0.0
    yh_b = yh_a.copy()
    yh_b[0, :, 3, :] = 1e6
    _, za = md.phca_encode(Tensor(yh_a), mask, params, 0)
    _, zb = md.phca_encode(Tensor(yh_b), mask, params, 0)
    assert np.array_equal(za.data, zb.data)


def test_encode_all_unobserved_rejected():
    cfg = small_config()
    params = md.ModelParams(cfg, seed=2, dtype=np.float64)
    yh = Tensor(np.zeros((1, cfg.heads, 16, cfg.head_dim)))
    with pytest.raises(md.DegenerateMaskError):
        md.phca_encode(yh, np.zeros((1, 16)), params, 0)


# -- partial convolution -----------------------------------------------------------
# The boundary-first step is fused into the decode, so each property is checked
# on the decode output against `decode_from_maps`, the two-step reference that
# normalizes explicitly propagated maps S_next over the tokens at each point
# and contracts them with Z.  Maps are token-major, (B, H, L, N).

def pconv_setup(cfg, gh, gw, seed=0):
    params = md.ModelParams(cfg, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed)
    params["L0.merge_w"].data = rng.normal(size=(cfg.channels, cfg.channels))
    params["L0.merge_b"].data = rng.normal(size=cfg.channels)
    n = gh * gw
    s = rng.random((1, cfg.heads, cfg.latent_tokens, n))
    z = rng.normal(size=(1, cfg.heads, cfg.latent_tokens, cfg.head_dim))
    return params, s, z


def decode_from_maps(s_next, z, params):
    col = s_next.sum(axis=-2, keepdims=True)
    out_h = (s_next / np.where(col == 0.0, 1.0, col)).swapaxes(-1, -2) @ z  # (B, H, N, C_h)
    b, h, n, ch = out_h.shape
    merged = out_h.transpose(0, 2, 1, 3).reshape(b, n, h * ch)
    return merged @ params["L0.merge_w"].data + params["L0.merge_b"].data


def fused_decode(z, s, mask, params, gh, gw):
    out, m_next = md.phca_decode(Tensor(z), Tensor(s), mask, params, 0, gh, gw)
    return out.data, m_next


@pytest.mark.parametrize("k", [1, 3, 5, 17])
@pytest.mark.parametrize("dtype", [np.uint8, np.float32, np.float64])
def test_window_counts_match_a_cell_by_cell_count(k, dtype):
    # k = 17: an all-ones window holds 289 cells, more than uint8 can count
    rng = np.random.default_rng(k)
    gh, gw, p = 20, 19, k // 2
    grid = (rng.random((2, gh, gw)) > 0.3).astype(dtype)
    grid[1] = 1
    want = np.zeros(grid.shape)
    for r in range(gh):
        for q in range(gw):
            want[:, r, q] = grid[:, max(0, r - p):r + p + 1,
                                 max(0, q - p):q + p + 1].sum(axis=(1, 2), dtype=np.int64)
    assert np.array_equal(md._window_counts(grid, k), want)


def test_pconv_full_mask_factor_is_one():
    factor, m_next = md.pconv_propagate(np.ones((2, 20)), 3, 4, 5)
    assert np.all(factor == 1.0) and np.all(m_next == 1.0)


def test_pconv_single_observed_cell_dilates_to_3x3():
    cfg = small_config()
    gh = gw = 8
    params, s_arr, z = pconv_setup(cfg, gh, gw)
    mask = np.zeros((1, gh, gw))
    mask[0, 4, 3] = 1.0
    s_arr = s_arr * mask.reshape(1, 1, 1, -1)
    want = np.zeros((gh, gw))
    want[3:6, 2:5] = 1.0
    _, m_next = md.pconv_propagate(mask.reshape(1, -1), 3, gh, gw)
    assert np.array_equal(m_next.reshape(gh, gw), want)

    got, m_next = fused_decode(z, s_arr, mask.reshape(1, -1), params, gh, gw)
    assert np.array_equal(m_next.reshape(gh, gw), want)
    reached = want.reshape(-1) == 1.0
    assert np.all(got[0, ~reached] == params["L0.merge_b"].data)
    assert np.all(np.abs(got[0, reached] - params["L0.merge_b"].data).max(axis=-1) > 0)


def test_pconv_identity_kernel_full_mask_is_s_plus_bias():
    cfg = small_config()
    gh = gw = 5
    params, s_arr, z = pconv_setup(cfg, gh, gw, seed=7)
    w = np.zeros(params["L0.pconv_w"].shape)
    w[:, 1, 1] = 1.0
    params["L0.pconv_w"].data = w
    params["L0.pconv_b"].data = np.full(params["L0.pconv_b"].shape, 0.25)
    got, _ = fused_decode(z, s_arr, np.ones((1, gh * gw)), params, gh, gw)
    assert np.abs(got - decode_from_maps(s_arr + 0.25, z, params)).max() < 1e-12


def test_pconv_interior_renormalization_is_k2_over_count():
    # averaging kernel: the conv response at a cell with j observed neighbors
    # equals the mean of the observed values in its window; a nonzero bias
    # keeps the factor from cancelling in the row normalization
    cfg = small_config(heads=1, channels=8, latent_tokens=2)
    gh = gw = 7
    params, _, z = pconv_setup(cfg, gh, gw, seed=0)
    bias = np.array([0.3, 0.1])
    params["L0.pconv_b"].data = bias
    rng = np.random.default_rng(8)
    vals = rng.random((gh, gw, 2))
    mask = (rng.random((gh, gw)) > 0.5).astype(np.float64)
    mask[3, 3], mask[2, 2] = 0.0, 1.0
    s_arr = (vals * mask[..., None]).reshape(-1, 2).T[None, None]    # (1, 1, L, N)

    factor, _ = md.pconv_propagate(mask.reshape(1, -1), 3, gh, gw)
    assert factor.reshape(gh, gw)[3, 3] == 9.0 / mask[2:5, 2:5].sum()
    assert factor.reshape(gh, gw)[0, 0] == 4.0 / mask[:2, :2].sum()

    got, _ = fused_decode(z, s_arr, mask.reshape(1, -1), params, gh, gw)
    window = (vals * mask[..., None])[2:5, 2:5].sum(axis=(0, 1)) / mask[2:5, 2:5].sum()
    s_next = window + bias
    out_h = (s_next / s_next.sum()) @ z[0, 0]
    want = out_h @ params["L0.merge_w"].data + params["L0.merge_b"].data
    assert np.abs(got.reshape(gh, gw, -1)[3, 3] - want).max() < 1e-12


def test_pconv_all_zero_mask_stays_zero():
    cfg = small_config()
    gh = gw = 4
    params, s_arr, z = pconv_setup(cfg, gh, gw)
    mask = np.zeros((1, gh * gw))
    factor, m_next = md.pconv_propagate(mask, 3, gh, gw)
    assert np.all(factor == 0.0) and np.all(m_next == 0.0)
    got, m_next = fused_decode(z, np.zeros_like(s_arr), mask, params, gh, gw)
    assert np.all(got == params["L0.merge_b"].data)
    assert np.all(m_next == 0.0)


# -- token mixer -------------------------------------------------------------------

def test_mixer_none_is_identity():
    cfg = small_config(token_mixer="none")
    params = md.ModelParams(cfg, seed=0, dtype=np.float64)
    z = Tensor(np.random.default_rng(0).normal(size=(1, 2, 4, 8)))
    assert md.token_mix(z, params, 0) is z


def test_mixer_attention_single_token_is_value_projection():
    cfg = small_config(latent_tokens=1, token_mixer="attention")
    params = md.ModelParams(cfg, seed=3, dtype=np.float64)
    z_arr = np.random.default_rng(1).normal(size=(1, cfg.heads, 1, cfg.head_dim))
    out = md.token_mix(Tensor(z_arr), params, 0)
    want = z_arr @ params["L0.mix_wv"].data
    assert np.abs(out.data - want).max() < 1e-12


def test_mixer_attention_permutation_equivariant():
    cfg = small_config(token_mixer="attention")
    params = md.ModelParams(cfg, seed=4, dtype=np.float64)
    rng = np.random.default_rng(2)
    z_arr = rng.normal(size=(1, cfg.heads, cfg.latent_tokens, cfg.head_dim))
    perm = rng.permutation(cfg.latent_tokens)
    out = md.token_mix(Tensor(z_arr), params, 0).data
    out_perm = md.token_mix(Tensor(z_arr[:, :, perm]), params, 0).data
    assert np.abs(out[:, :, perm] - out_perm).max() < 1e-10


def test_mixer_mlp_preserves_shape():
    cfg = small_config(token_mixer="mlp")
    params = md.ModelParams(cfg, seed=5, dtype=np.float64)
    z = Tensor(np.random.default_rng(3).normal(
        size=(2, cfg.heads, cfg.latent_tokens, cfg.head_dim)))
    out = md.token_mix(z, params, 0)
    assert out.shape == z.shape


# -- decode ------------------------------------------------------------------------

def test_decode_single_token_reuse_gives_token_everywhere_observed():
    for boundary_first in (False, True):
        check_single_token_reuse_decode(boundary_first)


def check_single_token_reuse_decode(boundary_first):
    cfg = small_config(latent_tokens=1, token_mixer="none",
                       boundary_first=boundary_first)
    params = md.ModelParams(cfg, seed=6, dtype=np.float64)
    params["L0.merge_w"].data = np.eye(cfg.channels)  # expose head outputs
    gh = gw = 4
    n = gh * gw
    rng = np.random.default_rng(4)
    s_arr = np.zeros((1, cfg.heads, 1, n))
    observed = rng.random(n) > 0.6
    s_arr[0, :, 0, observed] = rng.random((cfg.heads, int(observed.sum()))).T
    z = rng.normal(size=(1, cfg.heads, 1, cfg.head_dim))
    out, m_next = fused_decode(z, s_arr, observed[None].astype(np.float64),
                               params, gh, gw)
    reached = m_next[0] == 1.0
    if boundary_first:
        assert np.all(reached >= observed) and reached.sum() > observed.sum()
    else:
        assert np.array_equal(reached, observed)
    out_h = out.reshape(1, n, cfg.heads, cfg.head_dim)
    for i in range(n):
        if reached[i]:
            assert np.abs(out_h[0, i] - z[0, :, 0, :]).max() < 1e-12
        else:
            assert np.all(out_h[0, i] == 0.0)


def test_decode_zero_rows_decode_to_zero():
    cfg = small_config(token_mixer="none", boundary_first=False)
    params, s_arr, z = pconv_setup(cfg, 4, 4, seed=7)
    s_arr[..., 5] = 0.0
    mask = np.ones((1, 16))
    mask[0, 5] = 0.0
    out, _ = fused_decode(z, s_arr, mask, params, 4, 4)
    assert np.all(out[0, 5] == params["L0.merge_b"].data)


def test_decode_rows_beyond_dilation_decode_to_merge_b():
    cfg = small_config(token_mixer="none")
    gh = gw = 6
    params, s_arr, z = pconv_setup(cfg, gh, gw, seed=8)
    params["L0.pconv_b"].data = np.full(params["L0.pconv_b"].shape, 0.2)
    mask = np.zeros((1, gh, gw))
    mask[0, :2, :2] = 1.0
    s_arr = s_arr * mask.reshape(1, 1, 1, -1)
    out, _ = fused_decode(z, s_arr, mask.reshape(1, -1), params, gh, gw)
    out = out.reshape(gh, gw, -1)
    assert np.all(out[3:] == params["L0.merge_b"].data)
    assert np.all(out[:, 3:] == params["L0.merge_b"].data)
    assert np.all(np.abs(out[:3, :3] - params["L0.merge_b"].data).max(axis=-1) > 0)


# -- layers and full forward ---------------------------------------------------------

def test_layer_residual_identity_at_init():
    # merge projection is zero-initialized, so the propagator branch vanishes
    cfg = small_config()
    params = md.ModelParams(cfg, seed=9, dtype=np.float64)
    coords, frames, mask = random_inputs(cfg, 4, 4, seed=1)
    y0 = md.temporal_aggregate(coords, frames, params)
    y1, _ = md.latent_operator_layer(y0, mask.reshape(1, -1), params, 0, 4, 4)
    h = md._affine_layernorm(y0, params, "L0.ln2")
    h = T.gelu(T.matmul(h, params["L0.mlp_w1"]) + params["L0.mlp_b1"])
    h = T.matmul(h, params["L0.mlp_w2"]) + params["L0.mlp_b2"]
    assert np.abs(y1.data - (y0.data + h.data)).max() < 1e-10


def layer_masks(coords, frames, mask, params):
    """The mask each layer hands to the next, chaining the layers as
    `lano_forward` does."""
    b, _, gh, gw, _ = frames.shape
    m = mask.reshape(b, gh * gw)
    y = md.temporal_aggregate(coords, frames * m.reshape(b, 1, gh, gw, 1), params)
    masks = []
    for layer in range(params.config.layers):
        y, m = md.latent_operator_layer(y, m, params, layer, gh, gw)
        masks.append(m)
    return masks


def test_layer_mask_monotone_nondecreasing():
    cfg = small_config(layers=4)
    params = md.ModelParams(cfg, seed=10, dtype=np.float64)
    coords, frames, mask = random_inputs(cfg, 8, 8, seed=2, missing=0.6)
    prev = mask.reshape(1, -1)
    for m_next in layer_masks(coords, frames, mask, params):
        assert np.all(m_next >= prev)
        prev = m_next


def test_forward_shape_any_missing_rate():
    cfg = small_config()
    params = md.ModelParams(cfg, seed=11, dtype=np.float64)
    for missing in (0.0, 0.3, 0.7):
        coords, frames, mask = random_inputs(cfg, 4, 6, b=2, seed=3,
                                             missing=missing)
        pred = md.lano_forward(coords, frames, mask, params)
        assert pred.shape == (2, 4, 6, cfg.phys_channels)


def test_forward_masked_input_invariance_bitwise():
    cfg = small_config()
    params = md.ModelParams(cfg, seed=12, dtype=np.float64)
    coords, frames, mask = random_inputs(cfg, 6, 6, seed=4, missing=0.4)
    garbage = frames.copy()
    unobs = mask[0] == 0.0
    garbage[0, :, unobs, :] = 123.0
    a = md.lano_forward(coords, frames, mask, params)
    b = md.lano_forward(coords, garbage, mask, params)
    assert np.array_equal(a.data, b.data)


def test_forward_rejects_empty_mask():
    cfg = small_config()
    params = md.ModelParams(cfg, seed=13, dtype=np.float64)
    coords, frames, mask = random_inputs(cfg, 4, 4)
    with pytest.raises(md.DegenerateMaskError):
        md.lano_forward(coords, frames, np.zeros_like(mask), params)


def test_forward_coverage_32x32_patch4_quarter_missing():
    # D=8, k=3: 8 radius-1 dilations close every hole in a 25% patch-4 mask
    cfg = small_config(layers=8)
    params = md.ModelParams(cfg, seed=14, dtype=np.float64)
    m = mk.gen_patchwise_mask(32, 32, 0.25, 4, seed=0)
    rng = np.random.default_rng(7)
    frames = rng.normal(size=(1, cfg.history, 32, 32, 1))
    masks = layer_masks(grid_coords(32, 32), frames,
                        m.grid[None].astype(np.float64), params)
    assert np.all(masks[-1] == 1.0)
    # simulation oracle agrees
    sim = md.propagate_mask_grid(m.grid.astype(np.float64), 3, 8)
    assert np.all(sim == 1.0)


def test_without_boundary_first_mask_frozen():
    cfg = small_config(boundary_first=False)
    params = md.ModelParams(cfg, seed=15, dtype=np.float64)
    coords, frames, mask = random_inputs(cfg, 6, 6, seed=5, missing=0.5)
    for m_next in layer_masks(coords, frames, mask, params):
        assert np.array_equal(m_next, mask.reshape(1, -1))
    assert md.lano_forward(coords, frames, mask, params).shape == (1, 6, 6, 1)


def test_forward_makes_no_depthwise_conv_call(monkeypatch):
    # the partial convolution runs after the contraction, inside T.tap_contract
    def forbidden(*args, **kwargs):
        raise AssertionError("T.depthwise_conv2d called")

    monkeypatch.setattr(T, "depthwise_conv2d", forbidden)
    cfg = small_config()
    params = md.ModelParams(cfg, seed=16, dtype=np.float64)
    coords, frames, mask = random_inputs(cfg, 6, 5, seed=6)
    with T.tape():
        md.lano_forward(coords, frames, mask, params)
    md.lano_forward(coords, frames, mask, params)


def test_grad_forward_keeps_no_conv_grid_on_tape():
    cfg = small_config()
    params = md.ModelParams(cfg, seed=17, dtype=np.float64)
    gh, gw, b = 6, 5, 2
    coords, frames, mask = random_inputs(cfg, gh, gw, b=b, seed=7)
    grid = (b, cfg.heads * cfg.latent_tokens, gh, gw)
    with T.tape() as tape:
        md.lano_forward(coords, frames, mask, params)
        assert len(tape) > 0
        assert all(t.shape != grid for t in tape._nodes)


def test_forward_softmaxes_token_major_maps_and_contracts_once_per_layer(monkeypatch):
    # perfbench's tracer wraps tensor primitives as module globals (T.softmax
    # today; T.tap_contract and T.slice_softmax are on its list to add); a
    # call that bypasses the module global leaves its per-layer metrics at 0
    # without an error
    softmax, slice_softmax, tap_contract = T.softmax, T.slice_softmax, T.tap_contract
    softmaxed, sliced, taps = [], [], []

    def counting_softmax(x, axis=-1):
        softmaxed.append((x.shape, axis))
        return softmax(x, axis=axis)

    def counting_slice_softmax(x, mask, scale):
        sliced.append(x.shape)
        return slice_softmax(x, mask, scale)

    def counting_tap_contract(s, *args):
        taps.append(s.shape)
        return tap_contract(s, *args)

    monkeypatch.setattr(T, "softmax", counting_softmax)
    monkeypatch.setattr(T, "slice_softmax", counting_slice_softmax)
    monkeypatch.setattr(T, "tap_contract", counting_tap_contract)
    cfg = small_config(layers=3)                  # the attention mixer softmaxes too
    params = md.ModelParams(cfg, seed=18, dtype=np.float64)
    b, gh, gw = 2, 6, 5
    coords, frames, mask = random_inputs(cfg, gh, gw, b=b, seed=8)
    maps = (b, cfg.heads, cfg.latent_tokens, gh * gw)
    token_mix = (b, cfg.heads, cfg.latent_tokens, cfg.latent_tokens)
    for scope in (T.tape, contextlib.nullcontext):
        softmaxed.clear()
        sliced.clear()
        taps.clear()
        with scope():
            md.lano_forward(coords, frames, mask, params)
        assert taps == [maps] * cfg.layers
        assert sliced == [maps] * cfg.layers
        assert softmaxed == [(token_mix, -1)] * cfg.layers


# -- kernel oracle -------------------------------------------------------------------

def oracle_instance(cfg, gh, gw, seed, missing=0.4, pattern="point"):
    params = md.ModelParams(cfg, seed=seed, dtype=np.float64)
    # make the branch non-trivial: the merge projection is zero at init
    rng = np.random.default_rng(seed + 1)
    for i in range(cfg.layers):
        params[f"L{i}.merge_w"].data = rng.normal(
            size=(cfg.channels, cfg.channels)) / np.sqrt(cfg.channels)
        params[f"L{i}.merge_b"].data = rng.normal(size=cfg.channels) * 0.1
    n = gh * gw
    y = rng.normal(size=(n, cfg.channels))
    if pattern == "full":
        mask = np.ones(n)
    else:
        mask = mk.gen_pointwise_mask(gh, gw, missing, seed=seed + 2) \
            .grid.reshape(n).astype(np.float64)
        if mask.sum() == 0:
            mask[0] = 1.0
    return params, y, mask


def phlp_branch_output(params, y, mask, gh, gw):
    branch, _ = md.phlp_branch(Tensor(y[None]), mask[None], params, 0, gh, gw)
    return branch.data[0]


def test_kernel_oracle_matches_branch_full_mask():
    cfg = small_config(token_mixer="none")
    params, y, mask = oracle_instance(cfg, 6, 6, seed=20, pattern="full")
    res = vf.kernel_oracle(params, 0, mask, y, 6, 6)
    got = phlp_branch_output(params, y, mask, 6, 6)
    assert np.abs(res.integral - got).max() < 1e-6


def test_kernel_oracle_matches_branch_partial_mask():
    for seed in range(5):
        cfg = small_config(token_mixer="none")
        params, y, mask = oracle_instance(cfg, 8, 8, seed=30 + seed)
        res = vf.kernel_oracle(params, 0, mask, y, 8, 8)
        got = phlp_branch_output(params, y, mask, 8, 8)
        assert np.abs(res.integral - got).max() < 1e-6, seed


def test_kernel_oracle_with_attention_mixer():
    cfg = small_config(token_mixer="attention")
    params, y, mask = oracle_instance(cfg, 6, 6, seed=40)
    res = vf.kernel_oracle(params, 0, mask, y, 6, 6)
    got = phlp_branch_output(params, y, mask, 6, 6)
    assert np.abs(res.integral - got).max() < 1e-6


@pytest.mark.parametrize("mixer, boundary_first, sign_mixed", [
    pytest.param("none", True, False, id="none-True"),
    pytest.param("none", False, False, id="none-False"),
    pytest.param("attention", True, False, id="attention-True"),
    pytest.param("attention", False, False, id="attention-False"),
    pytest.param("none", True, True, id="none-True-sign_mixed"),
    pytest.param("attention", True, True, id="attention-True-sign_mixed"),
])
def test_fused_branch_matches_oracle_float64(mixer, boundary_first, sign_mixed):
    # non-trivial propagation weights.  Positive ones give every reached row
    # a positive sum; normal-random ones also drive reached rows to sums near
    # or below zero, which decode to zero like unreached rows
    for seed in range(3):
        cfg = small_config(token_mixer=mixer, boundary_first=boundary_first)
        params, y, mask = oracle_instance(cfg, 8, 6, seed=90 + seed, missing=0.6)
        if boundary_first:
            rng = np.random.default_rng(seed)
            w_shape, b_shape = params["L0.pconv_w"].shape, params["L0.pconv_b"].shape
            if sign_mixed:
                params["L0.pconv_w"].data = rng.normal(size=w_shape)
                params["L0.pconv_b"].data = rng.normal(size=b_shape)
            else:
                params["L0.pconv_w"].data = rng.uniform(0.05, 1.0, size=w_shape)
                params["L0.pconv_b"].data = rng.uniform(0.0, 0.3, size=b_shape)
        res = vf.kernel_oracle(params, 0, mask, y, 8, 6)
        got = phlp_branch_output(params, y, mask, 8, 6)
        scale = max(1.0, np.abs(res.integral).max()) if sign_mixed else 1.0
        assert np.abs(res.integral - got).max() <= 1e-10 * scale, seed


def test_kernel_oracle_rejects_large_instances():
    cfg = small_config(token_mixer="none")
    params = md.ModelParams(cfg, seed=0, dtype=np.float64)
    with pytest.raises(vf.OracleSizeError):
        vf.kernel_oracle(params, 0, np.ones(17 * 17), np.zeros((17 * 17, 16)),
                         17, 17)


def test_corrupted_decode_normalization_breaks_oracle(monkeypatch):
    cfg = small_config(token_mixer="none")
    params, y, mask = oracle_instance(cfg, 6, 6, seed=70)
    res = vf.kernel_oracle(params, 0, mask, y, 6, 6)
    corrupt_decode_normalization(monkeypatch)
    got = phlp_branch_output(params, y, mask, 6, 6)
    assert np.abs(res.integral - got).max() > 1e-6


def test_full_mask_single_layer_matches_oracle_through_layer_api():
    cfg = small_config(layers=1, token_mixer="none")
    params, y, mask = oracle_instance(cfg, 6, 6, seed=80, pattern="full")
    res = vf.kernel_oracle(params, 0, mask, y, 6, 6)
    got = phlp_branch_output(params, y, mask, 6, 6)
    assert np.abs(res.integral - got).max() < 1e-6


# -- checkpoints ------------------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    cfg = small_config(token_mixer="mlp", boundary_first=False)
    params = md.ModelParams(cfg, seed=21)
    p = tmp_path / "m.pobw"
    md.save_checkpoint(params, p)
    loaded = md.load_checkpoint(p)
    assert loaded.config == cfg
    for (na, ta), (nb, tb) in zip(params.items(), loaded.items()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data)
    # byte-identical on rewrite
    p2 = tmp_path / "m2.pobw"
    md.save_checkpoint(loaded, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_load_checkpoint_builds_its_tensors_from_the_file_alone(tmp_path, monkeypatch):
    # no random init is drawn only to be overwritten
    params = md.ModelParams(small_config(), seed=21)
    p = tmp_path / "m.pobw"
    md.save_checkpoint(params, p)
    monkeypatch.setattr(md.ModelParams, "__init__", forbidden_init)
    loaded = md.load_checkpoint(p)
    assert loaded.names() == params.names()
    for _, t in loaded.items():
        assert t.data.dtype == np.float32 and t.requires_grad
        assert t.data.flags.owndata and t.data.flags.writeable
    p2 = tmp_path / "m2.pobw"
    md.save_checkpoint(loaded, p2)
    assert p.read_bytes() == p2.read_bytes()


def forbidden_init(*args, **kw):
    raise AssertionError("ModelParams.__init__ called")


def test_checkpoint_round_trips_every_config_field(tmp_path):
    # each field away from its default, so a field the checkpoint text drops
    # or garbles shows up as a config mismatch
    cfg = md.ModelConfig(layers=1, channels=12, heads=3, latent_tokens=5,
                         temperature=0.75, pconv_kernel=5, history=2,
                         phys_channels=2, mlp_ratio=1.5, token_mixer="mlp",
                         boundary_first=False)
    default = md.ModelConfig()
    for f in dataclasses.fields(md.ModelConfig):
        assert getattr(cfg, f.name) != getattr(default, f.name), f.name
    params = md.ModelParams(cfg, seed=3)
    p = tmp_path / "m.pobw"
    md.save_checkpoint(params, p)
    loaded = md.load_checkpoint(p)
    assert loaded.config == cfg
    assert loaded.names() == params.names()


def test_checkpoint_config_holding_numpy_scalars_round_trips(tmp_path):
    # np.float64 and np.str_ pass the type check and serialize as plain JSON,
    # the same text as for the equal Python values
    cfg = small_config(temperature=np.float64(0.75), token_mixer=np.str_("mlp"))
    p = tmp_path / "m.pobw"
    md.save_checkpoint(md.ModelParams(cfg, seed=3), p)
    assert md.load_checkpoint(p).config == cfg
    assert md.config_to_text(cfg) == md.config_to_text(
        small_config(temperature=0.75, token_mixer="mlp"))
    assert md.config_to_text(md.ModelConfig()) == (
        '{"layers": 8, "channels": 64, "heads": 8, "latent_tokens": 32, '
        '"temperature": 0.5, "pconv_kernel": 3, "history": 10, '
        '"phys_channels": 1, "mlp_ratio": 2.0, "token_mixer": "attention", '
        '"boundary_first": true}')


def test_checkpoint_version_1_is_rejected(tmp_path):
    raw = saved_checkpoint(tmp_path)
    old = tmp_path / "v1.pobw"
    old.write_bytes(raw[:4] + (1).to_bytes(4, "little") + raw[8:])
    with pytest.raises(md.CheckpointError, match="unsupported version 1"):
        md.load_checkpoint(old)


def test_checkpoint_version_3_is_rejected(tmp_path):
    # version 3 stored each tensor's ndim and dims before its data
    raw = saved_checkpoint(tmp_path)
    old = tmp_path / "v3.pobw"
    old.write_bytes(raw[:4] + (3).to_bytes(4, "little") + raw[8:])
    with pytest.raises(md.CheckpointError, match="unsupported version 3"):
        md.load_checkpoint(old)


def test_checkpoint_version_2_is_rejected(tmp_path):
    # version 2 stored the config as key=value lines
    raw = saved_checkpoint(tmp_path)
    cfg = small_config()
    text = "\n".join(f"{f.name}={getattr(cfg, f.name)!r}"
                     for f in dataclasses.fields(cfg)).encode()
    old = tmp_path / "v2.pobw"
    old.write_bytes(with_config_text(raw[:4] + (2).to_bytes(4, "little") + raw[8:],
                                     text))
    with pytest.raises(md.CheckpointError, match="unsupported version 2"):
        md.load_checkpoint(old)


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    cfg = small_config()
    params = md.ModelParams(cfg, seed=22)
    p = tmp_path / "m.pobw"
    md.save_checkpoint(params, p)
    raw = p.read_bytes()
    (tmp_path / "bad.pobw").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(md.CheckpointError, match="magic"):
        md.load_checkpoint(tmp_path / "bad.pobw")
    (tmp_path / "tr.pobw").write_bytes(raw[: len(raw) // 2])
    with pytest.raises(md.CheckpointError, match="truncated"):
        md.load_checkpoint(tmp_path / "tr.pobw")


def saved_checkpoint(tmp_path):
    params = md.ModelParams(small_config(), seed=22)
    p = tmp_path / "m.pobw"
    md.save_checkpoint(params, p)
    return p.read_bytes()


def test_checkpoint_garbled_config_value_is_checkpoint_error(tmp_path):
    text = md.config_to_text(small_config()).encode()
    assert b'"layers": 2,' in text
    bad = tmp_path / "bad.pobw"
    bad.write_bytes(with_config_text(saved_checkpoint(tmp_path),
                                     text.replace(b'"layers": 2,', b'"layers": two,')))
    with pytest.raises(md.CheckpointError, match="bad config"):
        md.load_checkpoint(bad)


@pytest.mark.parametrize("key, value", [
    ("heads", 0), ("channels", 0), ("temperature", float("nan")), ("layers", 1.5),
    ("channels", 8.0), ("history", 1.0), ("boundary_first", "x"),
], ids=["heads=2-heads=0", "channels=16-channels=0", "temperature=0.5-temperature=nan",
        "layers=2-layers=1.5", "channels=16-channels=8.0", "history=3-history=1.0",
        "boundary_first=True-boundary_first='x'"])
def test_checkpoint_unusable_config_value_is_checkpoint_error(tmp_path, key, value):
    raw = saved_checkpoint(tmp_path)
    bad = tmp_path / "bad.pobw"
    bad.write_bytes(edit_config(raw, key, value))
    with pytest.raises(md.CheckpointError, match="bad config"):
        md.load_checkpoint(bad)


def test_checkpoint_unknown_config_key_is_checkpoint_error(tmp_path):
    raw = saved_checkpoint(tmp_path)
    bad = tmp_path / "bad.pobw"
    bad.write_bytes(edit_config(raw, "depth", 2))
    with pytest.raises(md.CheckpointError, match="bad config"):
        md.load_checkpoint(bad)


def test_checkpoint_config_that_is_not_a_json_object_is_checkpoint_error(tmp_path):
    bad = tmp_path / "bad.pobw"
    bad.write_bytes(with_config_text(saved_checkpoint(tmp_path), b"[2, 16]"))
    with pytest.raises(md.CheckpointError, match="not a JSON object"):
        md.load_checkpoint(bad)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(md.ModelConfig)])
def test_checkpoint_missing_config_field_is_checkpoint_error(tmp_path, name):
    # a default filled in for the lost key would load a different model
    bad = tmp_path / "bad.pobw"
    bad.write_bytes(edit_config(saved_checkpoint(tmp_path), name))
    with pytest.raises(md.CheckpointError, match=rf"missing config field\(s\) {name}$"):
        md.load_checkpoint(bad)


def test_checkpoint_trailing_bytes_are_rejected(tmp_path):
    raw = saved_checkpoint(tmp_path)
    bad = tmp_path / "bad.pobw"
    bad.write_bytes(raw + b"\0")
    with pytest.raises(md.CheckpointError, match="trailing"):
        md.load_checkpoint(bad)


def test_checkpoint_config_needing_more_bytes_than_the_file_holds_is_refused(tmp_path):
    # 2**40 history frames would make a 64 TiB embedding; the file holds a
    # few KB, so nothing may be allocated before the refusal
    bad = tmp_path / "bad.pobw"
    bad.write_bytes(edit_config(saved_checkpoint(tmp_path), "history", 2 ** 40))
    with pytest.raises(md.CheckpointError, match="truncated before the end of embed.w"):
        md.load_checkpoint(bad)


@pytest.mark.parametrize("keep", [6, 20, -1, -5])
def test_checkpoint_truncated_anywhere_is_checkpoint_error(tmp_path, keep):
    # inside the header, inside the config text, and inside the last tensor
    raw = saved_checkpoint(tmp_path)
    bad = tmp_path / "bad.pobw"
    bad.write_bytes(raw[:keep])
    with pytest.raises(md.CheckpointError, match="truncated"):
        md.load_checkpoint(bad)


def test_forward_deterministic():
    cfg = small_config()
    params = md.ModelParams(cfg, seed=23, dtype=np.float64)
    coords, frames, mask = random_inputs(cfg, 6, 6, seed=8)
    a = md.lano_forward(coords, frames, mask, params).data.copy()
    b = md.lano_forward(coords, frames, mask, params).data.copy()
    assert np.array_equal(a, b)
