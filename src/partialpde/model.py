"""Latent autoregressive neural operator for partially observed fields.

The network embeds coordinates plus a history of (masked) frames into
per-point features, then applies a stack of latent operator layers.  Each
layer aggregates observed points into a small set of latent tokens through
masked softmax attention maps, propagates the attention maps (and the
observation mask) one partial-convolution step outward, mixes the tokens,
and de-aggregates back to the grid.  Points the mask has not yet reached
decode to zero; the observed set grows monotonically with depth.

The maps S are stored token-major, (B, H, L, N): each token's map over
the N grid points is one contiguous row, so the softmax over tokens and
each token's sum over points both reduce across contiguous points.  The
encoder forms S in one `tensor.slice_softmax` call: the 1/temperature
scale, the softmax over the L tokens and the mask multiply run in place on
one copy of the logits, and one tape node records them.

The propagated maps are never formed.  The partial convolution is linear and
acts on each token's map separately, so it commutes with the decode
contraction.  With Z1 = [Z | 1] the tokens plus a ones column, w_o and b the
per-token kernel taps and bias, f the renormalization factor and obs the
propagated mask:

    num[n] = f[n] * sum_o shift_o(S^T @ (w_o * Z1))[n] + obs[n] * (b . Z1)
    out[n] = num[n, :C_h] / num[n, C_h]          (zero where num[n, C_h] <= 0)

Without boundary_first the maps are not propagated and num = S^T @ Z1.
`pconv_propagate` computes f and obs from the mask alone; `phca_decode`
does the rest with one `tensor.tap_contract` per layer.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .tensor import Tensor

CHECKPOINT_MAGIC = b"POBW"
CHECKPOINT_VERSION = 4

MIXERS = ("attention", "mlp", "none")
EPS = 1e-6      # keeps each token's aggregation weights from dividing by zero


class DegenerateMaskError(ValueError):
    pass


# ModelConfig's annotations (strings under postponed evaluation) -> the
# types a field's value may have; bool, an int subclass, only for bool fields
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


@dataclass
class ModelConfig:
    layers: int = 8
    channels: int = 64
    heads: int = 8
    latent_tokens: int = 32
    temperature: float = 0.5
    pconv_kernel: int = 3
    history: int = 10
    phys_channels: int = 1
    mlp_ratio: float = 2.0
    token_mixer: str = "attention"
    boundary_first: bool = True

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, _FIELD_TYPES[f.type]) or (
                    isinstance(v, bool) and f.type != "bool"):
                raise ValueError(f"{f.name} must be {f.type}, got {v!r}")
        if self.channels < 1 or self.heads < 1:
            raise ValueError("channels and heads must be >= 1")
        if self.channels % self.heads:
            raise ValueError(
                f"channels {self.channels} not divisible by heads {self.heads}")
        if self.layers < 1 or self.latent_tokens < 1:
            raise ValueError("layers and latent_tokens must be >= 1")
        if not (np.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError("temperature must be finite and positive")
        if not (np.isfinite(self.mlp_ratio) and self.mlp_ratio > 0):
            raise ValueError("mlp_ratio must be finite and positive")
        if self.pconv_kernel < 1 or self.pconv_kernel % 2 == 0:
            raise ValueError(
                f"pconv_kernel must be odd and >= 1, got {self.pconv_kernel}")
        if self.history < 1 or self.phys_channels < 1:
            raise ValueError("history and phys_channels must be >= 1")
        if self.token_mixer not in MIXERS:
            raise ValueError(f"unknown token_mixer {self.token_mixer!r}")

    @property
    def head_dim(self) -> int:
        return self.channels // self.heads

    @property
    def embed_width(self) -> int:
        return 2 + self.history * self.phys_channels

    @property
    def mlp_hidden(self) -> int:
        return max(1, int(round(self.channels * self.mlp_ratio)))


def _param_specs(cfg: ModelConfig):
    """Yield (name, shape, init) triples in checkpoint declaration order."""
    c, h, ch, l, k = (cfg.channels, cfg.heads, cfg.head_dim,
                      cfg.latent_tokens, cfg.pconv_kernel)
    yield from [("embed.w", (cfg.embed_width, c), ("fanin", cfg.embed_width)),
                ("embed.b", (c,), ("fanin", cfg.embed_width))]
    for i in range(cfg.layers):
        p = f"L{i}."
        yield from [
            (p + "ln1_g", (c,), ("ones",)),
            (p + "ln1_b", (c,), ("zeros",)),
            (p + "slice_w1", (h, ch, ch), ("fanin", ch)),
            (p + "slice_b1", (h, 1, ch), ("fanin", ch)),
            (p + "slice_w2", (h, ch, l), ("fanin", ch)),
            (p + "slice_b2", (h, 1, l), ("fanin", ch)),
        ]
        if cfg.boundary_first:
            yield from [
                (p + "pconv_w", (h * l, k, k), ("pconv_avg",)),
                (p + "pconv_b", (h * l,), ("zeros",)),
            ]
        if cfg.token_mixer == "attention":
            yield from [(p + n, (h, ch, ch), ("fanin", ch))
                        for n in ("mix_wq", "mix_wk", "mix_wv")]
        elif cfg.token_mixer == "mlp":
            yield from [
                (p + "mix_w1", (l, l), ("fanin", l)),
                (p + "mix_b1", (l,), ("fanin", l)),
                (p + "mix_w2", (l, l), ("fanin", l)),
                (p + "mix_b2", (l,), ("fanin", l)),
            ]
        yield from [
            (p + "merge_w", (c, c), ("zeros",)),   # zero init: layer starts as identity
            (p + "merge_b", (c,), ("zeros",)),
            (p + "ln2_g", (c,), ("ones",)),
            (p + "ln2_b", (c,), ("zeros",)),
            (p + "mlp_w1", (c, cfg.mlp_hidden), ("fanin", c)),
            (p + "mlp_b1", (cfg.mlp_hidden,), ("fanin", c)),
            (p + "mlp_w2", (cfg.mlp_hidden, c), ("fanin", cfg.mlp_hidden)),
            (p + "mlp_b2", (c,), ("fanin", cfg.mlp_hidden)),
        ]
    yield from [("out.w", (c, cfg.phys_channels), ("fanin", c)),
                ("out.b", (cfg.phys_channels,), ("fanin", c))]


class ModelParams:
    """All learnable weights, keyed by name, in declaration order."""

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        rng = np.random.default_rng(seed)
        self._params: dict[str, Tensor] = {}
        k = config.pconv_kernel
        for name, shape, init in _param_specs(config):
            if init[0] == "zeros":
                arr = np.zeros(shape)
            elif init[0] == "ones":
                arr = np.ones(shape)
            elif init[0] == "pconv_avg":
                arr = np.full(shape, 1.0 / (k * k))
            else:
                bound = 1.0 / np.sqrt(init[1])
                arr = rng.uniform(-bound, bound, size=shape)
            self._params[name] = Tensor(arr.astype(dtype), requires_grad=True)

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self):
        return self._params.items()

    def names(self):
        return list(self._params)

    def tensors(self):
        return list(self._params.values())

    def count(self) -> int:
        return sum(t.size for t in self._params.values())

    @staticmethod
    def _from_arrays(config: ModelConfig, arrays) -> "ModelParams":
        """Wrap (name, array) pairs without drawing an init."""
        params = ModelParams.__new__(ModelParams)
        params.config = config
        params._params = {name: Tensor(arr, requires_grad=True)
                          for name, arr in arrays}
        return params

    def astype(self, dtype) -> "ModelParams":
        return ModelParams._from_arrays(
            self.config, ((name, t.data.astype(dtype)) for name, t in self._params.items()))


def count_parameters(config: ModelConfig) -> int:
    return sum(int(np.prod(shape)) for _, shape, _ in _param_specs(config))


# -- forward pieces ----------------------------------------------------------

def temporal_aggregate(coords: np.ndarray, frames: np.ndarray,
                       params: ModelParams) -> Tensor:
    """Embed concatenated coordinates and T frames per point: (B, N, C).

    frames: (B, T, H, W, C_phys), already masked; coords: (N, 2) or (H, W, 2).
    """
    cfg = params.config
    b, t = frames.shape[0], frames.shape[1]
    if t != cfg.history:
        raise ValueError(f"got {t} history frames, config expects {cfg.history}")
    if frames.shape[4] != cfg.phys_channels:
        raise ValueError(f"got {frames.shape[4]} physical channels, "
                         f"config expects {cfg.phys_channels}")
    n = frames.shape[2] * frames.shape[3]
    coords = coords.reshape(n, 2)
    vals = np.ascontiguousarray(frames.transpose(0, 2, 3, 1, 4)).reshape(
        b, n, t * frames.shape[4])
    dtype = params["embed.w"].dtype
    x_in = np.concatenate(
        [np.broadcast_to(coords, (b, n, 2)), vals], axis=-1).astype(dtype)
    return T.matmul(Tensor(x_in), params["embed.w"]) + params["embed.b"]


def _split_heads(y: Tensor, cfg: ModelConfig) -> Tensor:
    b, n, _ = y.shape
    return T.transpose(T.reshape(y, (b, n, cfg.heads, cfg.head_dim)), (0, 2, 1, 3))


def _merge_heads(yh: Tensor, cfg: ModelConfig) -> Tensor:
    """(B, H, C_h, N) -> (B, N, C)."""
    b, n = yh.shape[0], yh.shape[3]
    return T.reshape(T.transpose(yh, (0, 3, 1, 2)), (b, n, cfg.channels))


def phca_encode(yh: Tensor, mask: np.ndarray, params: ModelParams, layer: int):
    """Aggregate observed per-point features into latent tokens.

    yh: (B, H, N, C_h); mask: (B, N).  Returns (S, Z): S the masked maps,
    token-major (B, H, L, N), softmaxed over the L tokens at 1/temperature
    and masked by one fused `T.slice_softmax`, so the columns of unobserved
    points are exactly zero; Z (B, H, L, C_h) the S-weighted average of
    observed features (each token's map normalized by its sum over points,
    plus eps).
    """
    cfg = params.config
    if np.any(mask.sum(axis=-1) == 0):
        raise DegenerateMaskError("a sample has no observed points to aggregate")
    p = f"L{layer}."
    hidden = T.gelu(T.matmul(yh, params[p + "slice_w1"]) + params[p + "slice_b1"])
    logits = T.matmul(T.transpose(params[p + "slice_w2"], (0, 2, 1)),
                      T.transpose(hidden, (0, 1, 3, 2))) \
        + T.transpose(params[p + "slice_b2"], (0, 2, 1))       # (B, H, L, N)
    s = T.slice_softmax(logits, mask[:, None, None, :], 1.0 / cfg.temperature)
    denom = s.sum(axis=-1, keepdims=True) + EPS                 # (B, H, L, 1)
    z = T.matmul(s, yh) / denom
    return s, z


def _window_counts(mask_grid: np.ndarray, k: int) -> np.ndarray:
    """Count observed cells in each kxk window (zero-padded): k shifted adds
    down the rows, then k across the columns, in float64."""
    pad = k // 2
    gh, gw = mask_grid.shape[-2:]
    mp = np.pad(mask_grid.astype(np.float64),
                [(0, 0)] * (mask_grid.ndim - 2) + [(pad, pad)] * 2)
    rows = sum(mp[..., i:i + gh, :] for i in range(k))
    return sum(rows[..., j:j + gw] for j in range(k))


def pconv_propagate(mask: np.ndarray, k: int, gh: int, gw: int):
    """Mask half of the boundary-first partial convolution.

    mask: (B, N) over a row-major gh x gw grid.  A cell whose k x k window
    (zero-padded) holds >= 1 observed cell joins the next layer's mask, and
    its conv response is renormalized by (in-bounds window size / observed
    count): k*k / count in the interior.  The feature half, the conv over the
    attention maps, runs after the contraction inside `phca_decode`.
    Returns (factor (B, N), zero off the new mask; mask_next (B, N)).
    """
    b = mask.shape[0]
    counts = _window_counts(mask.reshape(b, gh, gw), k)       # (B, gh, gw)
    observed = counts > 0
    sizes = _window_counts(np.ones((gh, gw)), k)              # in-bounds window size
    factor = np.where(observed, sizes / np.where(observed, counts, 1.0), 0.0)
    return (factor.reshape(b, gh * gw),
            observed.reshape(b, gh * gw).astype(mask.dtype))


def propagate_mask_grid(mask_grid: np.ndarray, k: int, steps: int) -> np.ndarray:
    """Pure mask-update rule iterated `steps` times (no feature math)."""
    m = np.asarray(mask_grid)
    for _ in range(steps):
        m = (_window_counts(m, k) > 0).astype(m.dtype)
    return m


def token_mix(z: Tensor, params: ModelParams, layer: int) -> Tensor:
    """Mix latent tokens: per-head self-attention, a shared token MLP, or identity."""
    cfg = params.config
    p = f"L{layer}."
    if cfg.token_mixer == "none":
        return z
    if cfg.token_mixer == "attention":
        q = T.matmul(z, params[p + "mix_wq"])
        key = T.matmul(z, params[p + "mix_wk"])
        v = T.matmul(z, params[p + "mix_wv"])
        attn = T.softmax(T.matmul(q, T.transpose(key, (0, 1, 3, 2)))
                         * (1.0 / np.sqrt(cfg.head_dim)), axis=-1)
        return T.matmul(attn, v)
    # mlp: two-layer map along the token axis, shared across heads
    zt = T.transpose(z, (0, 1, 3, 2))                          # (B, H, C_h, L)
    h1 = T.gelu(T.matmul(zt, params[p + "mix_w1"]) + params[p + "mix_b1"])
    out = T.matmul(h1, params[p + "mix_w2"]) + params[p + "mix_b2"]
    return T.transpose(out, (0, 1, 3, 2))


def _fused_numerator(z_mixed: Tensor, s: Tensor, factor, mask_next,
                     params: ModelParams, layer: int, gh: int, gw: int) -> Tensor:
    """The decode numerator num of the module docstring: (B, H, C_h+1, N)."""
    cfg = params.config
    b, h, l, ch = z_mixed.shape
    dtype = z_mixed.dtype
    ones = Tensor(np.ones((b, h, l, 1), dtype=dtype))
    z1t = T.transpose(T.concat([z_mixed, ones], axis=-1), (0, 1, 3, 2))  # (B,H,C_h+1,L)
    if not cfg.boundary_first:
        return T.matmul(z1t, s)
    k = cfg.pconv_kernel
    p = f"L{layer}."
    w = T.transpose(T.reshape(params[p + "pconv_w"], (h, l, k * k)), (0, 2, 1))
    wz = T.reshape(T.reshape(w, (h, k * k, 1, l)) * T.reshape(z1t, (b, h, 1, ch + 1, l)),
                   (b, h, k * k * (ch + 1), l))                  # tap-major
    bz = T.matmul(z1t, T.reshape(params[p + "pconv_b"], (h, l, 1)))     # (B, H, C_h+1, 1)
    f = Tensor(factor[:, None, None, :].astype(dtype))
    obs = Tensor(mask_next[:, None, None, :].astype(dtype))
    return T.tap_contract(s, wz, k, gh, gw) * f + bz * obs


def phca_decode(z_mixed: Tensor, s: Tensor, mask: np.ndarray,
                params: ModelParams, layer: int, gh: int, gw: int):
    """Propagate boundary-first, then de-aggregate tokens to every grid point.

    s: the encoder's masked maps, token-major (B, H, L, N), not yet
    propagated; mask: the layer's input mask (B, N).  Returns
    (branch (B, N, C), mask_next (B, N)).

    The decode is the module docstring's num/out formula per head.  Points
    whose token sum is not positive decode to exact zero: points the mask
    has not reached (sum 0), and points that sign-mixed taps or bias drive
    to zero or below.
    """
    cfg = params.config
    if cfg.boundary_first:
        factor, mask_next = pconv_propagate(mask, cfg.pconv_kernel, gh, gw)
    else:
        factor, mask_next = None, mask
    ch = cfg.head_dim
    num = _fused_numerator(z_mixed, s, factor, mask_next, params, layer, gh, gw)
    row = num[:, :, ch:]
    safe = T.masked_fill(row, row.data <= 0.0, np.inf)
    out_h = num[:, :, :ch] / safe                                      # (B, H, C_h, N)
    merged = _merge_heads(out_h, cfg)
    branch = T.matmul(merged, params[f"L{layer}.merge_w"]) + params[f"L{layer}.merge_b"]
    return branch, mask_next


def phlp_branch(y_norm: Tensor, mask: np.ndarray, params: ModelParams,
                layer: int, gh: int, gw: int):
    """The propagator branch on (already normalized) features.

    Returns (branch (B,N,C), mask_next (B,N)).
    """
    cfg = params.config
    yh = _split_heads(y_norm, cfg)
    s, z = phca_encode(yh, mask, params, layer)
    z_mixed = token_mix(z, params, layer)
    return phca_decode(z_mixed, s, mask, params, layer, gh, gw)


def _affine_layernorm(y: Tensor, params: ModelParams, prefix: str) -> Tensor:
    return T.layernorm(y, axis=-1) * params[prefix + "_g"] + params[prefix + "_b"]


def latent_operator_layer(y: Tensor, mask: np.ndarray, params: ModelParams,
                          layer: int, gh: int, gw: int):
    """One residual block: propagator branch then per-point MLP branch.

    Returns (y_out (B,N,C), mask_next (B,N)).
    """
    p = f"L{layer}."
    branch, mask_next = phlp_branch(
        _affine_layernorm(y, params, p + "ln1"), mask, params, layer, gh, gw)
    y_hat = branch + y
    h = _affine_layernorm(y_hat, params, p + "ln2")
    h = T.gelu(T.matmul(h, params[p + "mlp_w1"]) + params[p + "mlp_b1"])
    h = T.matmul(h, params[p + "mlp_w2"]) + params[p + "mlp_b2"]
    return h + y_hat, mask_next


def lano_forward(coords: np.ndarray, frames: np.ndarray, mask: np.ndarray,
                 params: ModelParams) -> Tensor:
    """Predict the next frame on the full domain.

    coords: (N, 2) or (H, W, 2); frames: (B, T, H, W, C_phys);
    mask: (B, H, W) or (B, N) with 1 = observed.  Frame values at
    unobserved points are zeroed here, so the output depends only on
    observed values and mask bits.

    Returns the prediction (B, H, W, C_phys).
    """
    cfg = params.config
    b, _, gh, gw, _ = frames.shape
    n = gh * gw
    mask_flat = np.asarray(mask).reshape(b, n)
    if np.any(mask_flat.sum(axis=-1) == 0):
        raise DegenerateMaskError("each sample needs at least one observed point")
    frames = frames * mask_flat.reshape(b, 1, gh, gw, 1).astype(frames.dtype)

    y = temporal_aggregate(coords, frames, params)
    m_cur = mask_flat
    for layer in range(cfg.layers):
        y, m_cur = latent_operator_layer(y, m_cur, params, layer, gh, gw)
    pred = T.matmul(y, params["out.w"]) + params["out.b"]
    return T.reshape(pred, (b, gh, gw, cfg.phys_channels))


# -- checkpoints -----------------------------------------------------------------
# magic "POBW", version u32=4, u32-length-prefixed UTF-8 JSON object of the
# ModelConfig fields, then each tensor's little-endian float32 data in
# declaration order; the config fixes every shape, so none is stored.

def config_to_text(cfg: ModelConfig) -> str:
    return json.dumps(asdict(cfg))


def config_from_text(text: str) -> ModelConfig:
    kw = json.loads(text)
    if not isinstance(kw, dict):
        raise ValueError("config is not a JSON object")
    missing = [f.name for f in fields(ModelConfig) if f.name not in kw]
    if missing:
        raise ValueError(f"missing config field(s) {', '.join(missing)}")
    return ModelConfig(**kw)


def save_checkpoint(params: ModelParams, path) -> None:
    blob = config_to_text(params.config).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(blob)) + blob)
        for t in params.tensors():
            f.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())


class CheckpointError(IOError):
    pass


def load_checkpoint(path) -> ModelParams:
    """Read a POBW checkpoint as float32, the precision it stores; any
    malformed content raises CheckpointError."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 12:
        raise CheckpointError(f"{path}: truncated header")
    version, cfg_len = struct.unpack_from("<II", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    off = 12 + cfg_len
    if off > len(raw):
        raise CheckpointError(f"{path}: truncated config")
    try:
        cfg = config_from_text(raw[12:off].decode("utf-8"))
    except (ValueError, TypeError) as e:     # bad JSON or value, unknown key
        raise CheckpointError(f"{path}: bad config: {e}") from None
    # the bytes the config's tensors take, counted before any is allocated:
    # a config naming more than the file holds must not reach the parse
    tensors, end = [], off
    for name, shape, _ in _param_specs(cfg):
        tensors.append((name, shape, end))
        end += 4 * math.prod(shape)
        if end > len(raw):
            raise CheckpointError(f"{path}: truncated before the end of {name}")
    if end != len(raw):
        raise CheckpointError(
            f"{path}: {len(raw) - end} trailing bytes after the last tensor")
    return ModelParams._from_arrays(cfg, (
        (name, np.frombuffer(raw, "<f4", math.prod(shape), at).reshape(shape)
         .astype(np.float32)) for name, shape, at in tensors))
