"""Observation masks: point-wise and patch-wise patterns, mask-to-predict
augmentation, and the binary mask file format.

Convention everywhere: mask value 1 means the grid point is observed,
0 means unobserved.  Masks are temporally consistent (one mask covers all
frames of a trajectory).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

MASK_MAGIC = b"POBM"
MASK_VERSION = 1

POINTWISE = "pointwise"
PATCHWISE = "patchwise"
_PATTERN_CODES = {POINTWISE: 0, PATCHWISE: 1}
_PATTERN_NAMES = {v: k for k, v in _PATTERN_CODES.items()}


class MaskError(ValueError):
    pass


class MaskFormatError(IOError):
    pass


@dataclass
class ObservationMask:
    grid: np.ndarray            # (H, W) uint8, 1 = observed
    pattern: str
    missing_rate: float
    patch_size: int             # 0 for pointwise
    seed: int

    def observed_fraction(self) -> float:
        return float(self.grid.mean())


def derived_seed(*parts: int) -> int:
    """A 32-bit seed mixed from a tuple of integers (run seed, role, index)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _check_rate(rate: float) -> None:
    if not 0.0 <= rate < 1.0:
        raise MaskError(f"missing_rate must be in [0, 1), got {rate}")


def gen_pointwise_mask(h: int, w: int, missing_rate: float, seed: int) -> ObservationMask:
    """Each cell is independently unobserved with probability missing_rate."""
    _check_rate(missing_rate)
    rng = np.random.default_rng(seed)
    grid = (rng.random((h, w)) >= missing_rate).astype(np.uint8)
    return ObservationMask(grid, POINTWISE, missing_rate, 0, seed)


def gen_patchwise_mask(h: int, w: int, missing_rate: float, patch_size: int,
                       seed: int) -> ObservationMask:
    """Zero out round(rate * #blocks) blocks of the origin-anchored tiling.

    Grids not divisible by patch_size get a clipped final row/column of
    blocks.  Blocks are drawn uniformly without replacement.
    """
    _check_rate(missing_rate)
    if patch_size < 1 or patch_size > h or patch_size > w:
        raise MaskError(f"patch_size {patch_size} does not fit a {h}x{w} grid")
    bh = -(-h // patch_size)
    bw = -(-w // patch_size)
    n_blocks = bh * bw
    n_masked = int(round(missing_rate * n_blocks))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(n_blocks, size=n_masked, replace=False)
    grid = np.ones((h, w), dtype=np.uint8)
    for b in chosen:
        r, c = divmod(int(b), bw)
        grid[r * patch_size:(r + 1) * patch_size,
             c * patch_size:(c + 1) * patch_size] = 0
    return ObservationMask(grid, PATCHWISE, missing_rate, patch_size, seed)


def gen_mask(pattern: str, h: int, w: int, missing_rate: float, seed: int,
             patch_size: int = 4) -> ObservationMask:
    if pattern == POINTWISE:
        return gen_pointwise_mask(h, w, missing_rate, seed)
    if pattern == PATCHWISE:
        return gen_patchwise_mask(h, w, missing_rate, patch_size, seed)
    raise MaskError(f"unknown mask pattern {pattern!r}")


def mpt_augment(m: ObservationMask, artificial_rate: float, seed: int):
    """Occlude an observed mask further with a fresh artificial mask.

    Returns (m_aug, h_hat) where m_aug = m AND h_hat.  h_hat follows the
    same pattern family (and patch size) as m.  Supervision stays on m:
    augmentation only hides input.
    """
    _check_rate(artificial_rate)
    h, w = m.grid.shape
    h_hat = gen_mask(m.pattern, h, w, artificial_rate, seed,
                     patch_size=m.patch_size or 4)
    grid = (m.grid & h_hat.grid).astype(np.uint8)
    m_aug = ObservationMask(grid, m.pattern, m.missing_rate, m.patch_size, m.seed)
    return m_aug, h_hat


# -- file format ---------------------------------------------------------------
# magic "POBM", version u32, pattern u8, rate f32, patch u16, seed u64,
# h u16, w u16, then ceil(H*W/8) packed mask bits row-major.  Little-endian.

_HEADER = struct.Struct("<4sIBfHQHH")


def write_mask(m: ObservationMask, path) -> None:
    bits = np.packbits(m.grid.reshape(-1).astype(np.uint8))
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MASK_MAGIC, MASK_VERSION, _PATTERN_CODES[m.pattern],
                             float(m.missing_rate), int(m.patch_size),
                             int(m.seed), m.grid.shape[0], m.grid.shape[1]))
        f.write(bits.tobytes())


def read_mask(path) -> ObservationMask:
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise MaskFormatError(f"{path}: truncated mask header")
        magic, version, pcode, rate, patch, seed, h, w = _HEADER.unpack(head)
        if magic != MASK_MAGIC:
            raise MaskFormatError(f"{path}: bad magic {magic!r}")
        if version != MASK_VERSION:
            raise MaskFormatError(f"{path}: unsupported version {version}")
        if pcode not in _PATTERN_NAMES:
            raise MaskFormatError(f"{path}: unknown pattern code {pcode}")
        nbytes = -(-h * w // 8)
        raw = f.read(nbytes)
        if len(raw) < nbytes:
            raise MaskFormatError(f"{path}: truncated mask payload")
        if f.read(1):
            raise MaskFormatError(f"{path}: trailing bytes after the mask payload")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                             count=h * w).reshape(h, w)
    return ObservationMask(bits.astype(np.uint8), _PATTERN_NAMES[pcode],
                           float(rate), int(patch), int(seed))
