"""Shared oracle helpers for the test suite."""

import json

import numpy as np

from partialpde import tensor as T


def central_diff_grad(f, arrays, index, step=1e-5):
    """Central finite-difference gradient of scalar f wrt arrays[index].

    `f` takes the list of numpy arrays and returns a float.  Works entry by
    entry; all arrays should be float64 for the stated tolerances.
    """
    x = arrays[index]
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f(arrays)
        flat[i] = orig - step
        fm = f(arrays)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
    return g


def rel_err(a, b, floor=1e-12):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), floor)
    return np.abs(a - b).max(initial=0.0) / denom


def corrupt_decode_normalization(monkeypatch, offset=0.05):
    """Fault the decode: every row sum it divides by is off by `offset`."""
    masked_fill = T.masked_fill
    monkeypatch.setattr(T, "masked_fill",
                        lambda *args: masked_fill(*args) + offset)


DROP = object()


def edit_config(raw, key, value=DROP):
    """A POBW checkpoint's bytes with one key of its JSON config set to
    `value`, or dropped."""
    (cfg_len,) = np.frombuffer(raw, dtype="<u4", count=1, offset=8)
    cfg = json.loads(raw[12:12 + cfg_len])
    if value is DROP:
        del cfg[key]
    else:
        cfg[key] = value
    return with_config_text(raw, json.dumps(cfg).encode())


def with_config_text(raw, text):
    """A POBW checkpoint's bytes with its config text replaced by `text`."""
    (cfg_len,) = np.frombuffer(raw, dtype="<u4", count=1, offset=8)
    return raw[:8] + len(text).to_bytes(4, "little") + text + raw[12 + cfg_len:]
