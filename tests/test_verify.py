from partialpde import model as md
from partialpde import tensor as T
from partialpde import verify as vf

from util import corrupt_decode_normalization


def test_run_suite_passes_and_leaves_no_tape_nodes(tmp_path):
    ok, results = vf.run_suite(tmp_dir=str(tmp_path))
    assert len(T.active_tape()) == 0 and not T.active_tape().recording
    assert ok, [r for r in results if not r.ok]
    assert len(results) == 23


def test_each_check_leaves_the_tape_as_it_found_it(tmp_path):
    # per check, not only after the suite: no check leaves nodes behind or
    # a tape open
    for name, _, fn in vf.CHECKS:
        if fn is vf.check_round_trips:
            fn(str(tmp_path))
        else:
            fn()
        assert len(T.active_tape()) == 0 and not T.active_tape().recording, name


def test_run_suite_catches_corrupted_decode_normalization(tmp_path, monkeypatch):
    corrupt_decode_normalization(monkeypatch)
    ok, results = vf.run_suite(tmp_dir=str(tmp_path))
    assert not ok
    assert not {r.name: r.ok for r in results}["kernel_oracle"]


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


def test_run_suite_needs_neither_the_precision_switch_nor_the_depthwise_conv(
        tmp_path, monkeypatch):
    # every check builds its models in the dtype it needs, and the oracles
    # convolve in plain numpy
    def forbidden(*args, **kw):
        raise AssertionError("called")

    monkeypatch.setattr(T, "precision", forbidden)
    monkeypatch.setattr(T, "depthwise_conv2d", forbidden)
    ok, results = vf.run_suite(tmp_dir=str(tmp_path))
    assert ok, [r for r in results if not r.ok]
