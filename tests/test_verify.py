import csv
import struct

import numpy as np
import pytest

from partialpde import model as md
from partialpde import pdegen as pg
from partialpde import tensor as T
from partialpde import verify as vf

from util import corrupt_decode_normalization


def forbidden(*args, **kw):
    raise AssertionError("called")


@pytest.mark.parametrize("fn", [fn for _, _, fn in vf.CHECKS],
                         ids=[name for name, _, _ in vf.CHECKS])
def test_check(fn, tmp_path, monkeypatch):
    # every check builds its models in the dtype it needs, convolves in
    # plain numpy, and leaves no tape nodes behind or a tape open
    monkeypatch.setattr(T, "precision", forbidden)
    monkeypatch.setattr(T, "depthwise_conv2d", forbidden)
    ok, detail = fn(str(tmp_path)) if fn is vf.check_round_trips else fn()
    assert ok, detail
    assert len(T.active_tape()) == 0 and not T.active_tape().recording


def test_checks_are_27_with_unique_names():
    names = [name for name, _, _ in vf.CHECKS]
    assert len(names) == 27 and len(set(names)) == 27


def test_run_suite_reports_each_check_and_survives_an_exception(tmp_path, monkeypatch):
    def raises():
        raise RuntimeError("boom")

    monkeypatch.setattr(vf, "CHECKS", [
        ("passes", "a", lambda: (True, "fine")),
        ("fails", "a", lambda: (False, "off by 1")),
        ("raises", "b", raises)])
    out = tmp_path / "verify.csv"
    ok, results = vf.run_suite(out_csv=str(out), tmp_dir=str(tmp_path))
    assert not ok
    assert [(r.name, r.group, r.ok, r.detail) for r in results] == [
        ("passes", "a", True, "fine"),
        ("fails", "a", False, "off by 1"),
        ("raises", "b", False, "exception: RuntimeError('boom')")]
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(r["check"], r["group"], r["passed"], r["detail"]) for r in rows] == [
        (r.name, r.group, str(int(r.ok)), r.detail) for r in results]
    assert all(float(r["seconds"]) >= 0.0 for r in rows)


def test_run_suite_catches_corrupted_decode_normalization(tmp_path, monkeypatch):
    corrupt_decode_normalization(monkeypatch)
    ok, results = vf.run_suite(tmp_dir=str(tmp_path))
    assert not ok
    assert not {r.name: r.ok for r in results}["kernel_oracle"]


def softmax_over_points(x, mask, scale):
    return T.softmax(x * scale, axis=-1) * np.asarray(mask, dtype=x.dtype)


def softmax_without_mask(x, mask, scale):
    return T.softmax(x * scale, axis=-2)


@pytest.mark.parametrize("wrong", [softmax_over_points, softmax_without_mask])
def test_slice_softmax_check_catches_a_wrong_axis_or_a_dropped_mask(wrong, monkeypatch):
    monkeypatch.setattr(T, "slice_softmax", wrong)
    ok, detail = vf.check_slice_softmax_reference()
    assert not ok, detail


def erf_gelu(x):
    from scipy.special import erf
    phi = 0.5 * (1.0 + erf(x.data / np.sqrt(2.0)))
    d = phi + x.data * np.exp(-0.5 * x.data ** 2) / np.sqrt(2.0 * np.pi)
    return T._make(x.data * phi, (x, lambda g: g * d))


def layernorm_over_c_minus_1(x, eps=1e-5, layernorm=T.layernorm):
    # (x - mean) / sqrt(var * C / (C - 1) + eps): the unbiased variance
    var = x.data.var(axis=-1, keepdims=True)
    unbiased = x.data.var(axis=-1, ddof=1, keepdims=True)
    return layernorm(x, eps) * np.sqrt((var + eps) / (unbiased + eps))


@pytest.mark.parametrize("name,wrong", [("gelu", erf_gelu),
                                        ("layernorm", layernorm_over_c_minus_1)])
def test_gelu_layernorm_check_catches_an_erf_gelu_or_an_unbiased_variance(
        name, wrong, monkeypatch):
    monkeypatch.setattr(T, name, wrong)
    ok, detail = vf.check_gelu_layernorm_reference()
    assert not ok, detail


def test_kernel_oracle_check_catches_a_skipped_token_mixer(monkeypatch):
    # the default model mixes tokens by attention; a mixer that passes the
    # tokens through unchanged agrees with the oracle only on mixer "none"
    monkeypatch.setattr(md, "token_mix", lambda z, params, layer: z)
    ok, detail = vf.check_kernel_oracle()
    assert not ok, detail


def test_kernel_oracle_check_catches_a_wrong_window_count(monkeypatch):
    # one extra cell counted in every reached window renormalizes the
    # propagated maps by (size + 1) / (count + 1) instead of size / count
    window_counts = md._window_counts

    def one_extra(mask_grid, k):
        counts = window_counts(mask_grid, k)
        return counts + (counts > 0)

    monkeypatch.setattr(md, "_window_counts", one_extra)
    ok, detail = vf.check_kernel_oracle()
    assert not ok, detail


def test_advection_oracle_catches_a_flipped_advection_sign(monkeypatch):
    # negating both gradient symbols flips the sign of -(u . grad omega);
    # energy neutrality and mean conservation hold either way
    flow_symbols = pg._flow_symbols

    def flipped(*args):
        sym = flow_symbols(*args)
        sym[2:] *= -1
        return sym

    monkeypatch.setattr(pg, "_flow_symbols", flipped)
    ok, detail = vf.check_ns_advection_closed_form()
    assert not ok, detail
    assert vf.check_ns_energy_neutral_advection()[0]
    assert vf.check_ns_mean_conservation()[0]


def test_mode_decay_oracle_catches_swapped_diffusivities(monkeypatch):
    # the stability bound takes max(D_u, D_v), so the substep count, the
    # scalar ODE and mean conservation all hold either way
    d_u, d_v = pg.DR_D_U, pg.DR_D_V
    monkeypatch.setattr(pg, "DR_D_U", d_v)
    monkeypatch.setattr(pg, "DR_D_V", d_u)
    ok, detail = vf.check_dr_mode_decay()
    assert not ok, detail
    assert vf.check_dr_scalar_ode()[0]
    assert vf.check_dr_mean_conservation()[0]


def test_run_suite_catches_a_checkpoint_with_per_tensor_records(tmp_path, monkeypatch):
    # a writer that still puts each tensor's ndim and dims before its data,
    # read back by a loader of that layout, round-trips bit-exact: only the
    # file's size gives it away
    def save_with_records(params, path):
        blob = md.config_to_text(params.config).encode()
        with open(path, "wb") as f:
            f.write(md.CHECKPOINT_MAGIC
                    + struct.pack("<II", md.CHECKPOINT_VERSION, len(blob)) + blob)
            for t in params.tensors():
                f.write(struct.pack(f"<B{t.ndim}I", t.ndim, *t.shape)
                        + t.data.astype("<f4").tobytes())

    def load_with_records(path):
        with open(path, "rb") as f:
            raw = f.read()
        (cfg_len,) = struct.unpack_from("<I", raw, 8)
        cfg = md.config_from_text(raw[12:12 + cfg_len].decode())
        off, arrays = 12 + cfg_len, []
        for name, shape, _ in md._param_specs(cfg):
            off += 1 + 4 * len(shape)
            count = int(np.prod(shape))
            arr = np.frombuffer(raw, dtype="<f4", count=count, offset=off)
            arrays.append((name, arr.reshape(shape).astype(np.float32)))
            off += 4 * count
        return md.ModelParams._from_arrays(cfg, arrays)

    monkeypatch.setattr(md, "save_checkpoint", save_with_records)
    monkeypatch.setattr(md, "load_checkpoint", load_with_records)
    ok, results = vf.run_suite(tmp_dir=str(tmp_path))
    assert not ok
    failed = [(r.name, r.detail) for r in results if not r.ok]
    assert failed == [("round_trips",
                       "dataset/mask/checkpoint round-trips bit-exact, sizes exact")]
