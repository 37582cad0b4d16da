"""Dense tensors with reverse-mode automatic differentiation.

Values live in numpy buffers.  Recording happens only inside a `tape()`
block: there every primitive that touches a gradient-requiring input
records a node holding one edge per such input, an (input, vjp) pair whose
vjp maps the result's cotangent to that input's gradient.  Constant inputs
get no edge, so no gradient is ever computed for them.  Outside a block
nothing is recorded and every result is a constant.  The tape is
define-by-run: backward() replays the recorded nodes in exact reverse order
of recording, which is a valid reverse topological order for any graph
built eagerly, and calls each node's edges in order.
The block clears the tape when it exits, also when it raises, so a forward
that fails before its backward leaves no nodes behind.  Blocks do not nest.

A tensor keeps the dtype of its data, and every primitive returns the
dtype its inputs give, so a model's parameters fix the precision of each
forward, tape node and gradient it takes part in.  The optimizer writes
each update back in the parameter's dtype.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327


@contextlib.contextmanager
def precision(dtype):
    """Changes nothing; perfbench/workloads.py:250 still opens it."""
    yield


class ShapeMismatch(ValueError):
    """Raised when operand shapes do not conform for a primitive."""

    def __init__(self, op: str, *shapes):
        self.op = op
        self.shapes = tuple(tuple(s) for s in shapes)
        super().__init__(f"{op}: incompatible shapes {' vs '.join(map(str, self.shapes))}")


class TapeError(RuntimeError):
    pass


class GradientTape:
    """Ordered record of primitive operations for one backward pass."""

    def __init__(self):
        self._nodes: list[Tensor] = []
        self.recording = False

    def record(self, t: "Tensor") -> None:
        self._nodes.append(t)

    def __len__(self):
        return len(self._nodes)


_TAPE = GradientTape()


def active_tape() -> GradientTape:
    return _TAPE


@contextlib.contextmanager
def tape():
    """Record primitives for backward() until the block exits.

    On exit, also by an exception, the tape is cleared: recorded results
    become constants and their activations are released.
    """
    if _TAPE.recording:
        raise TapeError("a gradient tape is already open")
    _TAPE.recording = True
    try:
        yield _TAPE
    finally:
        _TAPE.recording = False
        for t in _TAPE._nodes:
            t.requires_grad = False
            t._edges = ()
        _TAPE._nodes.clear()


class Tensor:
    """A dense n-dimensional array, optionally attached to the gradient tape."""

    __slots__ = ("data", "requires_grad", "_edges")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        if self.data.dtype.kind != "f":
            raise TypeError(f"tensor data must be floating, got {self.data.dtype}")
        self.requires_grad = bool(requires_grad)
        self._edges: tuple = ()       # ((input, vjp), ...) of a tape node

    # -- introspection ----------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def is_leaf(self) -> bool:
        return self.requires_grad and not self._edges

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, _lift(other, self))

    def __sub__(self, other):
        return sub(self, _lift(other, self))

    def __mul__(self, other):
        return mul(self, _lift(other, self))

    def __truediv__(self, other):
        return div(self, _lift(other, self))

    def __matmul__(self, other):
        return matmul(self, _lift(other, self))

    def __getitem__(self, idx):
        return getitem(self, idx)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self):
        return tmean(self)


def _lift(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _make(data: np.ndarray, *edges: tuple[Tensor, Callable]) -> Tensor:
    """Wrap an op result given one (input, vjp) edge per input.

    Inside a tape the result keeps the edges whose input requires a
    gradient, and is recorded as a node iff at least one is left.
    """
    out = Tensor(data)
    if _TAPE.recording:
        edges = tuple(e for e in edges if e[0].requires_grad)
        if edges:
            out.requires_grad = True
            out._edges = edges
            _TAPE.record(out)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to the shape of the broadcast operand."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# -- elementwise arithmetic ------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeMismatch("add", a.shape, b.shape) from None
    return _make(data, (a, lambda g: _unbroadcast(g, a.shape)),
                 (b, lambda g: _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeMismatch("sub", a.shape, b.shape) from None
    return _make(data, (a, lambda g: _unbroadcast(g, a.shape)),
                 (b, lambda g: _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeMismatch("mul", a.shape, b.shape) from None
    return _make(data, (a, lambda g: _unbroadcast(g * b.data, a.shape)),
                 (b, lambda g: _unbroadcast(g * a.data, b.shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data / b.data
    except ValueError:
        raise ShapeMismatch("div", a.shape, b.shape) from None
    return _make(data, (a, lambda g: _unbroadcast(g / b.data, a.shape)),
                 (b, lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.shape)))


# -- linear algebra ----------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch("matmul", a.shape, b.shape)
    try:
        data = a.data @ b.data
    except ValueError:
        raise ShapeMismatch("matmul", a.shape, b.shape) from None
    return _make(data,
                 (a, lambda g: _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape)),
                 (b, lambda g: _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape)))


# -- nonlinearities ----------------------------------------------------------

def softmax(x: Tensor, axis: int = -1) -> Tensor:
    if not -x.ndim <= axis < x.ndim:
        raise ShapeMismatch("softmax", x.shape, (axis,))
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)
    return _make(s, (x, lambda g: s * (g - (g * s).sum(axis=axis, keepdims=True))))


def layernorm(x: Tensor, axis: int = -1, eps: float = 1e-5) -> Tensor:
    """Normalize to zero mean / unit variance along `axis` (no affine).

    A constant slice has zero variance and normalizes to exact zeros
    (the eps inside the root keeps the division finite).
    """
    mu = x.data.mean(axis=axis, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=axis, keepdims=True)
    r = 1.0 / np.sqrt(var + eps)
    y = (x.data - mu) * r

    def vjp(g):
        gm = g.mean(axis=axis, keepdims=True)
        gym = (g * y).mean(axis=axis, keepdims=True)
        return r * (g - gm - y * gym)

    return _make(y, (x, vjp))


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    from scipy.special import erf     # slow to import, so loaded on first use
    phi = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    y = x.data * phi

    def vjp(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x.data * x.data)
        return g * (phi + x.data * pdf)

    return _make(y, (x, vjp))


# -- shape manipulation ------------------------------------------------------

def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def piece(i):
        sl = (slice(None),) * (axis % data.ndim) + (slice(offsets[i], offsets[i + 1]),)
        return lambda g: g[sl]

    return _make(data, *((t, piece(i)) for i, t in enumerate(tensors)))


def reshape(x: Tensor, shape) -> Tensor:
    try:
        data = x.data.reshape(shape)
    except ValueError:
        raise ShapeMismatch("reshape", x.shape, tuple(shape)) from None
    return _make(data, (x, lambda g: g.reshape(x.shape)))


def transpose(x: Tensor, axes=None) -> Tensor:
    data = x.data.transpose(axes)
    inv = None if axes is None else np.argsort(axes)
    return _make(data, (x, lambda g: g.transpose(inv)))


def getitem(x: Tensor, idx) -> Tensor:
    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[idx] = g
        return gx

    return _make(x.data[idx].copy(), (x, vjp))


def masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where `mask` is true; gradient is blocked there."""
    mask = np.asarray(mask, dtype=bool)
    try:
        data = np.where(mask, np.asarray(value, dtype=x.data.dtype), x.data)
    except ValueError:
        raise ShapeMismatch("masked_fill", x.shape, mask.shape) from None
    return _make(data, (x, lambda g: np.where(mask, 0.0, g)))


# -- reductions ---------------------------------------------------------------

def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, x.shape).copy()

    return _make(np.asarray(data, dtype=x.data.dtype), (x, vjp))


def tmean(x: Tensor) -> Tensor:
    """Mean over every element: a scalar."""
    return _make(np.asarray(x.data.mean(), dtype=x.data.dtype),
                 (x, lambda g: np.broadcast_to(np.asarray(g) / x.size, x.shape).copy()))


# -- convolution --------------------------------------------------------------

def _pad2d(x: np.ndarray, p: int) -> np.ndarray:
    if p == 0:
        return x
    pad = [(0, 0)] * (x.ndim - 2) + [(p, p), (p, p)]
    return np.pad(x, pad)


def depthwise_conv2d(*args, **kwargs):
    """Removed; perfbench/tracing.py wraps the name but never calls it."""
    raise NotImplementedError("depthwise_conv2d was removed; see tap_contract")


def _shift_slices(d: int, m: int):
    """(dst, src) slices along an axis of length m with dst[i] <- src[i + d]."""
    return slice(max(0, -d), m - max(0, d)), slice(max(0, d), m + min(0, d))


def tap_contract(s: Tensor, wz: Tensor, k: int, gh: int, gw: int) -> Tensor:
    """Contract maps with per-tap weights, then sum the taps' shifted grids.

    s: (..., L, N), token-major over the N = gh*gw cells of a row-major
    grid; wz: (..., k*k*C, L), tap-major: row t*C + c belongs to kernel tap
    t = i*k + j, at offset (di, dj) = (i - k//2, j - k//2).  Returns
    (..., C, N) with

        out[..., c, (r, q)] = sum_t (wz_t @ s)[..., c, (r + di, q + dj)],

    cells outside the grid reading zero: a zero-padded k x k correlation
    applied after the contraction.  The (..., k*k*C, N) intermediate is not
    kept; each edge's vjp gathers the shifted cotangents and multiplies
    them with wz (for s) or s (for wz).
    """
    if (s.ndim < 2 or wz.ndim < 2 or k < 1 or k % 2 == 0
            or s.shape[-1] != gh * gw or wz.shape[-1] != s.shape[-2]
            or wz.shape[-2] % (k * k)):
        raise ShapeMismatch("tap_contract", s.shape, wz.shape)
    kk, p, n = k * k, k // 2, gh * gw
    c = wz.shape[-2] // kk
    try:
        y = wz.data @ s.data                                   # (..., k*k*C, N)
    except ValueError:
        raise ShapeMismatch("tap_contract", s.shape, wz.shape) from None
    lead = y.shape[:-2]
    y = y.reshape(lead + (kk, c, gh, gw))
    taps = [(i * k + j, i - p, j - p) for i in range(k) for j in range(k)]
    out = y[..., kk // 2, :, :, :].copy()                      # centre tap
    for t, di, dj in taps:
        if di or dj:
            (dr, sr), (dc, sc) = _shift_slices(di, gh), _shift_slices(dj, gw)
            out[..., dr, dc] += y[..., t, :, sr, sc]

    def shifted(g):
        # called by each edge: a gather kept for the other edge would stay
        # alive on the tape when only one input needs a gradient
        gp = _pad2d(g.reshape(lead + (c, gh, gw)), p)
        gy = np.empty(lead + (kk, c, gh, gw), dtype=g.dtype)
        for t, di, dj in taps:
            gy[..., t, :, :, :] = gp[..., p - di:p - di + gh, p - dj:p - dj + gw]
        return gy.reshape(lead + (kk * c, n))

    def vjp_s(g):
        return _unbroadcast(wz.data.swapaxes(-1, -2) @ shifted(g), s.shape)

    def vjp_wz(g):
        return _unbroadcast(shifted(g) @ s.data.swapaxes(-1, -2), wz.shape)

    return _make(out.reshape(lead + (c, n)), (s, vjp_s), (wz, vjp_wz))


# -- backward -----------------------------------------------------------------

def backward(loss: Tensor) -> dict:
    """Backpropagate from a scalar loss through the open tape.

    Returns a map {leaf tensor: gradient array}; every leaf the tape
    recorded appears, with zeros when unreachable from the loss.
    """
    if loss.size != 1:
        raise TapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss._edges:
        raise TapeError("loss was not recorded inside a tape() block")

    grads: dict[int, np.ndarray] = {
        id(loss): np.ones_like(loss.data)
    }
    leaves: dict[int, Tensor] = {}
    nodes = _TAPE._nodes
    for t in nodes:
        for p, _ in t._edges:
            if p.is_leaf():
                leaves[id(p)] = p

    for t in reversed(nodes):
        g = grads.pop(id(t), None)
        if g is None:
            continue
        for p, vjp in t._edges:
            pg = np.asarray(vjp(g), dtype=p.data.dtype).reshape(p.shape)
            acc = grads.get(id(p))
            # out-of-place: several edges may hand on the same array
            grads[id(p)] = pg if acc is None else acc + pg

    result: dict[Tensor, np.ndarray] = {}
    for key, leaf in leaves.items():
        g = grads.get(key)
        result[leaf] = g if g is not None else np.zeros_like(leaf.data)
    return result
