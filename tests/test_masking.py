import struct
import tracemalloc

import numpy as np
import pytest

from partialpde import masking as mk


def test_rate_zero_pointwise_all_ones():
    m = mk.gen_pointwise_mask(16, 16, 0.0, seed=0)
    assert np.all(m.grid == 1)


def test_pointwise_rate_one_rejected():
    with pytest.raises(mk.MaskError):
        mk.gen_pointwise_mask(8, 8, 1.0, seed=0)
    with pytest.raises(mk.MaskError):
        mk.gen_pointwise_mask(8, 8, 0.9999999 + 1e-7, seed=0)


def test_patchwise_counts_64x64_patch4():
    m = mk.gen_patchwise_mask(64, 64, 0.25, 4, seed=3)
    # 256 blocks, 64 masked, 1024 zero cells
    assert int((m.grid == 0).sum()) == 64 * 16
    zeros_by_block = (m.grid.reshape(16, 4, 16, 4).min(axis=(1, 3)) == 0)
    assert int(zeros_by_block.sum()) == 64


def test_patchwise_counts_64x64_patch8():
    m = mk.gen_patchwise_mask(64, 64, 0.25, 8, seed=3)
    blocks = m.grid.reshape(8, 8, 8, 8).min(axis=(1, 3))
    assert int((blocks == 0).sum()) == 16


def test_patchwise_rate_zero_all_ones():
    m = mk.gen_patchwise_mask(32, 32, 0.0, 4, seed=1)
    assert np.all(m.grid == 1)


def test_patchwise_blocks_are_axis_aligned():
    m = mk.gen_patchwise_mask(32, 32, 0.5, 4, seed=9)
    blocks = m.grid.reshape(8, 4, 8, 4)
    # every block is uniformly 0 or uniformly 1 on the fixed tiling
    assert np.all(blocks.min(axis=(1, 3)) == blocks.max(axis=(1, 3)))


def test_patchwise_clipped_tiling():
    # 10x10 grid, patch 4 -> 3x3 blocks with clipped final row/column
    m = mk.gen_patchwise_mask(10, 10, 0.5, 4, seed=2)
    assert m.grid.shape == (10, 10)
    assert 0 < m.grid.mean() < 1


def test_patch_larger_than_grid_rejected():
    with pytest.raises(mk.MaskError):
        mk.gen_patchwise_mask(8, 8, 0.25, 9, seed=0)


def test_mask_reproducible_bit_for_bit():
    a = mk.gen_patchwise_mask(64, 64, 0.3, 4, seed=77)
    b = mk.gen_patchwise_mask(64, 64, 0.3, 4, seed=77)
    assert np.array_equal(a.grid, b.grid)
    c = mk.gen_pointwise_mask(64, 64, 0.3, seed=77)
    d = mk.gen_pointwise_mask(64, 64, 0.3, seed=77)
    assert np.array_equal(c.grid, d.grid)


def test_mpt_rate_zero_is_identity():
    m = mk.gen_patchwise_mask(16, 16, 0.25, 4, seed=0)
    m_aug, h_hat = mk.mpt_augment(m, 0.0, seed=5)
    assert np.array_equal(m_aug.grid, m.grid)
    assert np.all(h_hat.grid == 1)


def test_mpt_on_full_mask_is_fresh_patch_mask():
    m = mk.ObservationMask(np.ones((16, 16), np.uint8), mk.PATCHWISE, 0.0, 4, 0)
    m_aug, h_hat = mk.mpt_augment(m, 0.25, seed=5)
    assert np.array_equal(m_aug.grid, h_hat.grid)
    blocks = m_aug.grid.reshape(4, 4, 4, 4).min(axis=(1, 3))
    assert int((blocks == 0).sum()) == round(0.25 * 16)


def test_mpt_never_unmasks():
    for s in range(20):
        m = mk.gen_pointwise_mask(16, 16, 0.4, seed=s)
        m_aug, _ = mk.mpt_augment(m, 0.3, seed=s + 100)
        assert int(m_aug.grid.sum()) <= int(m.grid.sum())
        assert np.all(m_aug.grid <= m.grid)


def test_mpt_same_pattern_family():
    m = mk.gen_patchwise_mask(16, 16, 0.25, 4, seed=1)
    _, h_hat = mk.mpt_augment(m, 0.5, seed=2)
    assert h_hat.pattern == mk.PATCHWISE
    assert h_hat.patch_size == 4


def test_mask_file_round_trip(tmp_path):
    m = mk.gen_patchwise_mask(33, 17, 0.4, 4, seed=123)
    p = tmp_path / "m.pobm"
    mk.write_mask(m, p)
    r = mk.read_mask(p)
    assert np.array_equal(r.grid, m.grid)
    assert (r.pattern, r.patch_size, r.seed) == (m.pattern, m.patch_size, m.seed)
    assert r.missing_rate == pytest.approx(m.missing_rate)


def test_mask_file_truncation_and_magic(tmp_path):
    m = mk.gen_pointwise_mask(8, 8, 0.2, seed=0)
    p = tmp_path / "m.pobm"
    mk.write_mask(m, p)
    raw = p.read_bytes()

    (tmp_path / "t.pobm").write_bytes(raw[:10])
    with pytest.raises(mk.MaskFormatError):
        mk.read_mask(tmp_path / "t.pobm")

    (tmp_path / "b.pobm").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(mk.MaskFormatError):
        mk.read_mask(tmp_path / "b.pobm")

    (tmp_path / "p.pobm").write_bytes(raw[:-3])
    with pytest.raises(mk.MaskFormatError):
        mk.read_mask(tmp_path / "p.pobm")


def written_mask_bytes(tmp_path):
    m = mk.gen_pointwise_mask(8, 8, 0.2, seed=0)
    mk.write_mask(m, tmp_path / "m.pobm")
    return (tmp_path / "m.pobm").read_bytes()


# ends of the magic, version, pattern, rate, patch, seed, h and w fields
@pytest.mark.parametrize("keep", [0, 4, 8, 9, 13, 15, 23, 25, 27])
def test_mask_file_truncated_at_each_header_boundary(tmp_path, keep):
    raw = written_mask_bytes(tmp_path)
    assert mk._HEADER.size == 27
    (tmp_path / "t.pobm").write_bytes(raw[:keep])
    with pytest.raises(mk.MaskFormatError, match="truncated"):
        mk.read_mask(tmp_path / "t.pobm")


@pytest.mark.parametrize("h, w", [(0, 8), (8, 0), (0, 0)])
def test_mask_file_with_an_empty_grid_is_rejected(tmp_path, h, w):
    # header only: an empty grid has no payload bytes
    raw = written_mask_bytes(tmp_path)[:23] + struct.pack("<HH", h, w)
    (tmp_path / "e.pobm").write_bytes(raw)
    with pytest.raises(mk.MaskFormatError, match="empty"):
        mk.read_mask(tmp_path / "e.pobm")


@pytest.mark.parametrize("rate", [1.0, 1.5, -0.25, float("nan")])
def test_mask_file_with_a_rate_outside_0_1_is_rejected(tmp_path, rate):
    raw = bytearray(written_mask_bytes(tmp_path))
    raw[9:13] = struct.pack("<f", rate)
    (tmp_path / "r.pobm").write_bytes(bytes(raw))
    with pytest.raises(mk.MaskFormatError, match="rate"):
        mk.read_mask(tmp_path / "r.pobm")


def test_write_mask_refuses_a_rate_its_f32_header_rounds_to_one(tmp_path):
    # 0.99999999 < 1 passes the generator's check but is stored as 1.0,
    # which read_mask refuses; the largest f32 below 1 is stored as is
    with pytest.raises(mk.MaskError, match="rate"):
        mk.write_mask(mk.gen_pointwise_mask(8, 8, 0.99999999, seed=0), tmp_path / "m.pobm")
    assert not (tmp_path / "m.pobm").exists()
    below = float(np.nextafter(np.float32(1.0), np.float32(0.0)))
    mk.write_mask(mk.gen_pointwise_mask(8, 8, below, seed=0), tmp_path / "b.pobm")
    assert mk.read_mask(tmp_path / "b.pobm").missing_rate == below


def test_mask_file_trailing_bytes_are_rejected(tmp_path):
    raw = written_mask_bytes(tmp_path)
    (tmp_path / "x.pobm").write_bytes(raw + b"\x00")
    with pytest.raises(mk.MaskFormatError, match="trailing"):
        mk.read_mask(tmp_path / "x.pobm")


def test_mask_header_claiming_a_huge_grid_is_refused_before_a_large_allocation(tmp_path):
    # 16384 x 16384 cells would be a 33.6 MB payload; the file holds 1 byte
    raw = written_mask_bytes(tmp_path)[:23] + struct.pack("<HH", 16384, 16384) + b"\0"
    (tmp_path / "big.pobm").write_bytes(raw)
    tracemalloc.start()
    try:
        with pytest.raises(mk.MaskFormatError, match="truncated"):
            mk.read_mask(tmp_path / "big.pobm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
