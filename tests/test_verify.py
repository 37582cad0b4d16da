import numpy as np

from partialpde import model as md
from partialpde import tensor as T
from partialpde import verify as vf

from util import corrupt_decode_normalization


def test_run_suite_passes_and_leaves_no_tape_nodes(tmp_path):
    ok, results = vf.run_suite(tmp_dir=str(tmp_path))
    assert len(T.active_tape()) == 0 and not T.active_tape().recording
    assert ok, [r for r in results if not r.ok]
    assert len(results) == 23
    assert T.default_dtype() is np.float32


def test_each_check_leaves_the_tape_as_it_found_it(tmp_path):
    # per check, not only after the suite: no check leaves nodes behind or
    # a tape open
    for name, _, fn in vf.CHECKS:
        with T.precision(np.float64):
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
    with T.precision(np.float64):
        ok, detail = vf.check_kernel_oracle()
    assert not ok, detail
