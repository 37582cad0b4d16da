"""Dense tensors with reverse-mode automatic differentiation.

Values live in numpy buffers.  Recording happens only inside a `tape()`
block: there every primitive that touches a gradient-requiring input
records a node for its result.  The node holds the result's shape and
dtype, a weak reference to the result, and one edge per such input: an
(input, vjp) pair whose vjp maps the result's cotangent to that input's
gradient, and whose input is the parent's node, or the tensor itself for
a leaf.  Constant inputs get no edge, so no gradient is ever computed for
them.  A vjp closes over the arrays and shapes it reads and never over an
input tensor, so the tape keeps alive only what backward will read: a
dropped intermediate whose data no vjp needs is freed during the forward.
Outside a block nothing is recorded and every result is a constant.  The
tape is define-by-run: backward() replays the recorded nodes in exact
reverse order of recording, which is a valid reverse topological order for
any graph built eagerly, and calls each node's edges in order.  It drops
each node's edges as it goes, so it runs once per tape.
The block clears the tape when it exits, also when it raises, so a forward
that fails before its backward leaves no nodes behind.  Blocks do not nest.

Beside the elementwise, linear-algebra, shape and reduction primitives,
two fused ones serve the model's propagator, each with a closed-form vjp:
`slice_softmax`, the encoder's temperature-scaled softmax over the token
axis times the observation mask, and `tap_contract`, the decoder's
contraction with per-tap weights summed over shifted grids.

A tensor keeps the dtype of its data, and every primitive returns the
dtype its inputs give, so a model's parameters fix the precision of each
forward, tape node and gradient it takes part in.  The optimizer writes
each update back in the parameter's dtype.
"""

from __future__ import annotations

import contextlib
import weakref
from typing import Callable, Sequence

import numpy as np

_SQRT_2_OVER_PI = 0.7978845608028654
_GELU_A = 0.044715
# tanh(sqrt(2/pi) (x + a x^3)) is exactly +-1 past |x| = 5.5 in float32 and
# 7.2 in float64, so clipping x here leaves GELU's derivative unchanged
_GELU_CLIP = 10.0


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


class _Node:
    """The tape's record of one result: its edges, shape and dtype."""

    __slots__ = ("edges", "shape", "dtype", "result")

    def __init__(self, out: "Tensor", edges: tuple):
        self.edges = edges            # ((parent node or leaf, vjp), ...)
        self.shape, self.dtype = out.shape, out.dtype
        self.result = weakref.ref(out)    # only to detach it on close


class GradientTape:
    """Ordered record of primitive operations for one backward pass."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self.recording = False

    def __len__(self):
        return len(self._nodes)


_TAPE = GradientTape()


def active_tape() -> GradientTape:
    return _TAPE


@contextlib.contextmanager
def tape():
    """Record primitives for backward() until the block exits.

    backward() runs at most once per block.  On exit, also by an
    exception, the tape is cleared: recorded results still alive become
    constants and the arrays their vjps captured are released.
    """
    if _TAPE.recording:
        raise TapeError("a gradient tape is already open")
    _TAPE.recording = True
    try:
        yield _TAPE
    finally:
        _TAPE.recording = False
        for node in _TAPE._nodes:
            t = node.result()
            if t is not None:
                t.requires_grad = False
                t._node = None
        _TAPE._nodes.clear()


class Tensor:
    """A dense n-dimensional array, optionally attached to the gradient tape."""

    __slots__ = ("data", "requires_grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        if self.data.dtype.kind != "f":
            raise TypeError(f"tensor data must be floating, got {self.data.dtype}")
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None       # set while on an open tape

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
    gradient, each pointing at its input's node (the input itself for a
    leaf), and is recorded as a node iff at least one is left.
    """
    out = Tensor(data)
    if _TAPE.recording:
        edges = tuple((p._node or p, vjp) for p, vjp in edges if p.requires_grad)
        if edges:
            out.requires_grad = True
            out._node = _Node(out, edges)
            _TAPE._nodes.append(out._node)
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
    sa, sb = a.shape, b.shape
    return _make(data, (a, lambda g: _unbroadcast(g, sa)),
                 (b, lambda g: _unbroadcast(g, sb)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeMismatch("sub", a.shape, b.shape) from None
    sa, sb = a.shape, b.shape
    return _make(data, (a, lambda g: _unbroadcast(g, sa)),
                 (b, lambda g: _unbroadcast(-g, sb)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeMismatch("mul", a.shape, b.shape) from None
    # each vjp names only the other operand's array: a constant's edge is
    # dropped, and with it the reference to this side's array
    ad, bd, sa, sb = a.data, b.data, a.shape, b.shape
    return _make(data, (a, lambda g: _unbroadcast(g * bd, sa)),
                 (b, lambda g: _unbroadcast(g * ad, sb)))


def div(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data / b.data
    except ValueError:
        raise ShapeMismatch("div", a.shape, b.shape) from None
    ad, bd, sa, sb = a.data, b.data, a.shape, b.shape
    return _make(data, (a, lambda g: _unbroadcast(g / bd, sa)),
                 (b, lambda g: _unbroadcast(-g * ad / (bd * bd), sb)))


# -- linear algebra ----------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch("matmul", a.shape, b.shape)
    try:
        data = a.data @ b.data
    except ValueError:
        raise ShapeMismatch("matmul", a.shape, b.shape) from None
    ad, bd, sa, sb = a.data, b.data, a.shape, b.shape
    return _make(data,
                 (a, lambda g: _unbroadcast(g @ bd.swapaxes(-1, -2), sa)),
                 (b, lambda g: _unbroadcast(ad.swapaxes(-1, -2) @ g, sb)))


# -- nonlinearities ----------------------------------------------------------

def softmax(x: Tensor, axis: int = -1) -> Tensor:
    if not -x.ndim <= axis < x.ndim:
        raise ShapeMismatch("softmax", x.shape, (axis,))
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)
    return _make(s, (x, lambda g: s * (g - (g * s).sum(axis=axis, keepdims=True))))


def slice_softmax(x: Tensor, mask: np.ndarray, scale: float) -> Tensor:
    """Softmax of scale * x over axis -2, then times a 0/1 `mask` (..., 1, N).

    x: (..., L, N), token-major slice logits; the softmax runs across the L
    tokens at each of the N points, and the columns the mask zeroes come out
    exactly zero.  The scaled copy is the only new array: the max
    subtraction, exp, division by the token sum and mask multiply run in
    place on it, in that order.  With s_m the result and m the mask, the
    vjp reads only those two:

        dx = scale * s_m * (g*m - sum_L g*m*s_m)
    """
    m = np.asarray(mask, dtype=x.dtype)
    cols = x.shape[:-2] + (1,) + x.shape[-1:]
    try:
        fits = x.ndim >= 2 and np.broadcast_shapes(m.shape, cols) == cols
    except ValueError:
        fits = False
    if not fits:
        raise ShapeMismatch("slice_softmax", x.shape, m.shape)
    c = np.asarray(scale, dtype=x.dtype)
    s = x.data * c
    s -= s.max(axis=-2, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-2, keepdims=True)
    s *= m

    def vjp(g):
        gm = g * m
        return s * (gm - (gm * s).sum(axis=-2, keepdims=True)) * c

    return _make(s, (x, vjp))


def layernorm(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize to zero mean / unit variance over the last axis (no affine).

    The variance is one contraction of the centred buffer with itself, and
    that buffer is normalized in place.  A constant slice has zero variance
    and normalizes to exact zeros (the eps inside the root keeps the
    division finite).
    """
    n = x.shape[-1]
    y = x.data - x.data.mean(axis=-1, keepdims=True)
    var = np.einsum("...i,...i->...", y, y)[..., None] / n
    r = 1.0 / np.sqrt(var + eps)
    y *= r

    def vjp(g):
        gym = np.einsum("...i,...i->...", g, y)[..., None] / n
        dx = y * -gym
        dx += g
        dx -= g.mean(axis=-1, keepdims=True)
        dx *= r
        return dx

    return _make(y, (x, vjp))


def gelu(x: Tensor) -> Tensor:
    """GELU in its tanh form (Hendrycks & Gimpel 2016):

        gelu(x) = 0.5 x (1 + t),  t = tanh(sqrt(2/pi) (x + 0.044715 x^3)),

    which deviates from the exact, erf-based GELU by at most 4.73e-4, near
    x = 2.70.  Outside a tape the argument's buffer is the only new array;
    tanh and the rest run in place on it.  Only when the tape records and x
    needs a gradient is the derivative

        d = 0.5 (1 + t) + 0.5 x (1 - t^2) sqrt(2/pi) (1 + 3 * 0.044715 x^2)

    formed, here in the forward, so the vjp keeps d alone and neither x nor
    t.  Every finite x gives a finite output and derivative.
    """
    xd = x.data
    # past |x| ~ 1.8e19 (float32) the argument is +-inf, which tanh maps to
    # the +-1 it would round to anyway
    with np.errstate(over="ignore"):
        u = xd * xd
        u *= _GELU_A * _SQRT_2_OVER_PI
        u += _SQRT_2_OVER_PI
        u *= xd
    t = np.tanh(u, out=u)
    if not (_TAPE.recording and x.requires_grad):
        t += 1.0
        t *= 0.5
        t *= xd
        return _make(t)
    # 1 - t^2 is exactly 0 past the clip, so the clipped x changes no d
    xc = np.clip(xd, -_GELU_CLIP, _GELU_CLIP)
    d = xc * xc
    d *= 3.0 * _GELU_A * _SQRT_2_OVER_PI
    d += _SQRT_2_OVER_PI
    d *= xc
    np.multiply(t, t, out=xc)
    xc *= -0.5
    xc += 0.5
    d *= xc
    t += 1.0
    t *= 0.5
    d += t
    t *= xd
    return _make(t, (x, lambda g: g * d))


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
    sx = x.shape
    return _make(data, (x, lambda g: g.reshape(sx)))


def transpose(x: Tensor, axes=None) -> Tensor:
    data = x.data.transpose(axes)
    inv = None if axes is None else np.argsort([a % x.ndim for a in axes])
    return _make(data, (x, lambda g: g.transpose(inv)))


def getitem(x: Tensor, idx) -> Tensor:
    sx, dtype = x.shape, x.dtype

    def vjp(g):
        gx = np.zeros(sx, dtype)
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
    sx = x.shape

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, sx).copy()

    return _make(np.asarray(data, dtype=x.data.dtype), (x, vjp))


def tmean(x: Tensor) -> Tensor:
    """Mean over every element: a scalar."""
    n, sx = x.size, x.shape
    return _make(np.asarray(x.data.mean(), dtype=x.data.dtype),
                 (x, lambda g: np.broadcast_to(np.asarray(g) / n, sx).copy()))


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
    kept; backward gathers the shifted cotangents once and multiplies them
    with wz (for s) and s (for wz).
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
        gp = _pad2d(g.reshape(lead + (c, gh, gw)), p)
        gy = np.empty(lead + (kk, c, gh, gw), dtype=g.dtype)
        for t, di, dj in taps:
            gy[..., t, :, :, :] = gp[..., p - di:p - di + gh, p - dj:p - dj + gw]
        return gy.reshape(lead + (kk * c, n))

    # backward calls vjp_s and then vjp_wz with the same cotangent.  When
    # both run, the first hands its gather to the second, which drops it,
    # so no gather outlives the node's backward.
    shared = []
    both = s.requires_grad and wz.requires_grad
    sd, wd, ss, ws = s.data, wz.data, s.shape, wz.shape

    def vjp_s(g):
        gy = shifted(g)
        if both:
            shared.append(gy)
        return _unbroadcast(wd.swapaxes(-1, -2) @ gy, ss)

    def vjp_wz(g):
        gy = shared.pop() if shared else shifted(g)
        return _unbroadcast(gy @ sd.swapaxes(-1, -2), ws)

    return _make(out.reshape(lead + (c, n)), (s, vjp_s), (wz, vjp_wz))


# -- backward -----------------------------------------------------------------

def backward(loss: Tensor) -> dict:
    """Backpropagate from a scalar loss through the open tape.

    Returns a map {leaf tensor: gradient array}; every leaf the tape
    recorded appears, with zeros when unreachable from the loss.  Each
    node's edges are dropped once run, freeing the arrays their vjps hold,
    so a second backward on the same tape raises TapeError.
    """
    if loss.size != 1:
        raise TapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss._node is None:
        raise TapeError("loss was not recorded inside a tape() block")
    nodes = _TAPE._nodes
    if not nodes[0].edges:      # every node has an edge until backward runs
        raise TapeError("backward already ran on this tape; its edges are spent")

    grads: dict[int, np.ndarray] = {
        id(loss._node): np.ones_like(loss.data)
    }
    leaves = {id(p): p for node in nodes for p, _ in node.edges
              if isinstance(p, Tensor)}

    for node in reversed(nodes):
        edges, node.edges = node.edges, ()
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for p, vjp in edges:
            pg = np.asarray(vjp(g), dtype=p.dtype).reshape(p.shape)
            acc = grads.get(id(p))
            # out-of-place: several edges may hand on the same array
            grads[id(p)] = pg if acc is None else acc + pg

    result: dict[Tensor, np.ndarray] = {}
    for key, leaf in leaves.items():
        g = grads.get(key)
        result[leaf] = g if g is not None else np.zeros_like(leaf.data)
    return result
