import ast
import contextlib
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest

from partialpde import model as md
from partialpde import tensor as T
from partialpde.tensor import Tensor

from util import central_diff_grad, rel_err


def param(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


def test_softmax_symmetry():
    s = T.softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(s.data, [1 / 3, 1 / 3, 1 / 3])


def test_softmax_over_axis_minus_2_matches_scipy():
    # the encoder's token-major maps are softmaxed over axis -2
    from scipy.special import softmax
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 3, 5, 7)) * 3
    s = T.softmax(Tensor(x), axis=-2).data
    assert rel_err(s, softmax(x, axis=-2)) < 1e-14


@pytest.mark.parametrize("x_shape,mask_shape", [
    ((4,), (1, 4)),                 # no token axis
    ((3, 4), (3, 4)),               # a mask per token, not per point
    ((3, 4), (1, 5)),               # another number of points
    ((2, 3, 4), (3, 1, 4)),         # leading axes that do not broadcast
    ((3, 4), (2, 1, 4)),            # a mask that would grow the result
])
def test_slice_softmax_rejects_mismatched_shapes_and_records_nothing(x_shape, mask_shape):
    x = param(np.zeros(x_shape))
    with T.tape() as tape:
        y = x * 2.0
        with pytest.raises(T.ShapeMismatch, match="slice_softmax"):
            T.slice_softmax(y, np.ones(mask_shape), 2.0)
        assert len(tape) == 1
    assert len(T.active_tape()) == 0 and not T.active_tape().recording


def test_layernorm_constant_vector_is_zero():
    y = T.layernorm(Tensor([2.5, 2.5, 2.5, 2.5]))
    assert np.all(y.data == 0.0)


def test_matmul_shape_error_names_primitive():
    with pytest.raises(T.ShapeMismatch) as e:
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "matmul" in str(e.value)
    assert "(2, 3)" in str(e.value) and "(4, 2)" in str(e.value)


def test_backward_sum_gives_ones():
    x = param(np.arange(5.0))
    with T.tape():
        grads = T.backward(x.sum())
    assert np.array_equal(grads[x], np.ones(5))


def test_backward_half_square_gives_x():
    x = param([1.0, -2.0, 3.0])
    with T.tape():
        grads = T.backward((x * x).sum() * 0.5)
    assert np.allclose(grads[x], x.data)


def test_backward_requires_scalar():
    x = param([1.0, 2.0])
    with T.tape(), pytest.raises(T.TapeError, match="scalar"):
        T.backward(x * 2.0)


def test_backward_outside_a_tape_is_rejected():
    x = param([1.0, 2.0])
    with pytest.raises(T.TapeError, match="tape"):
        T.backward(x.sum())


def test_unused_leaf_gets_zero_gradient():
    x = param([1.0, 2.0])
    y = param([3.0])
    with T.tape():
        _ = y * 2.0          # recorded but not part of the loss
        grads = T.backward(x.sum())
    assert np.array_equal(grads[y], np.zeros(1))
    assert np.array_equal(grads[x], np.ones(2))


def test_shared_subexpression_accumulates():
    x = param([2.0])
    with T.tape():
        y = x * x + x * 3.0
        grads = T.backward(y.sum())
    assert np.allclose(grads[x], 2 * x.data + 3.0)


def test_detached_tensor_never_receives_gradient():
    # a tensor built from another's buffer is a constant on the tape
    x = param([1.0, 2.0])
    d = Tensor(x.data)
    with T.tape():
        assert not (d * 2.0).sum().requires_grad
        grads = T.backward((d * x).sum())
    assert list(grads) == [x]


def test_outside_a_tape_nothing_records():
    x = param([1.0, 2.0])
    y = x * 4.0
    assert not y.requires_grad
    assert len(T.active_tape()) == 0 and not T.active_tape().recording


def test_tape_clears_on_exit_and_detaches_its_results():
    x = param([1.0, 2.0])
    with T.tape() as tape:
        assert tape is T.active_tape() and tape.recording
        y = x * 4.0
        assert y.requires_grad and len(tape) == 1
    assert len(tape) == 0 and not tape.recording
    assert not y.requires_grad      # a constant now, not a leaf
    with T.tape():
        grads = T.backward((y * x).sum())
    assert list(grads) == [x]
    assert np.array_equal(grads[x], y.data)


def test_tape_clears_when_the_block_raises():
    x = param([1.0, 2.0])
    with pytest.raises(ZeroDivisionError):
        with T.tape():
            _ = x * 3.0
            raise ZeroDivisionError
    assert len(T.active_tape()) == 0 and not T.active_tape().recording


def test_nested_tape_is_rejected_and_leaves_the_outer_one_open():
    x = param([1.0, 2.0])
    with T.tape() as tape:
        _ = x * 2.0
        with pytest.raises(T.TapeError, match="already open"):
            with T.tape():
                pass
        assert tape.recording and len(tape) == 1
        grads = T.backward((x * x).sum())
    assert np.array_equal(grads[x], 2 * x.data)
    assert len(T.active_tape()) == 0


def test_second_backward_on_one_tape_is_rejected():
    # the first backward spent the edges; a second would return zeros
    x = param([1.0, 2.0])
    with T.tape():
        loss = (x * x).sum()
        grads = T.backward(loss)
        with pytest.raises(T.TapeError, match="spent"):
            T.backward(loss)
        with pytest.raises(T.TapeError, match="spent"):
            T.backward((x * 3.0).sum())
    assert np.array_equal(grads[x], 2 * x.data)
    assert len(T.active_tape()) == 0
    with T.tape():
        assert np.array_equal(T.backward((x * 3.0).sum())[x], [3.0, 3.0])


# (name, fn, kinds, watched argument, whether a recorded vjp reads its data):
# every argument has shape (3, 4); "g" requires a gradient, "c" is a constant
RETENTION_CASES = [
    ("add", lambda a, b: a + b, "gg", 0, False),
    ("sub", lambda a, b: a - b, "gg", 1, False),
    ("mul_const", lambda a, b: a * b, "gc", 0, False),
    ("div_const", lambda a, b: a / b, "gc", 0, False),
    ("matmul_const_b", lambda a, b: T.matmul(a, T.transpose(b, (1, 0))), "gc", 0, False),
    ("matmul_const_a", lambda a, b: T.matmul(a, T.transpose(b, (1, 0))), "cg", 1, False),
    ("reshape", lambda a: T.reshape(a, (4, 3)), "g", 0, False),
    ("transpose", lambda a: T.transpose(a, (1, 0)), "g", 0, False),
    ("concat", lambda a, b: T.concat([a, b], axis=1), "gg", 0, False),
    ("getitem", lambda a: a[1:, ::2], "g", 0, False),
    ("tsum", lambda a: a.sum(axis=0), "g", 0, False),
    ("tmean", lambda a: a.mean(), "g", 0, False),
    ("masked_fill", lambda a: T.masked_fill(a, np.eye(3, 4, dtype=bool), 0.0), "g", 0,
     False),
    ("softmax", lambda a: T.softmax(a, axis=-2), "g", 0, False),
    ("layernorm", lambda a: T.layernorm(a), "g", 0, False),
    ("tap_contract_const_wz", lambda a, b: T.tap_contract(a, T.transpose(b, (1, 0)), 1, 2, 2),
     "gc", 0, False),
    ("tap_contract_const_s", lambda a, b: T.tap_contract(a, T.transpose(b, (1, 0)), 1, 2, 2),
     "cg", 1, False),
    ("gelu", lambda a: T.gelu(a), "g", 0, False),
    ("slice_softmax", lambda a: T.slice_softmax(a, np.array([[1.0, 0.0, 1.0, 1.0]]), 2.0),
     "g", 0, False),
    ("mul", lambda a, b: a * b, "gg", 0, True),
    ("div", lambda a, b: a / b, "gg", 1, True),
    ("matmul", lambda a, b: T.matmul(a, T.transpose(b, (1, 0))), "gg", 1, True),
]


@pytest.mark.parametrize("name,fn,kinds,watch,read", RETENTION_CASES,
                         ids=[c[0] for c in RETENTION_CASES])
def test_tape_keeps_an_input_array_only_if_a_vjp_reads_it(name, fn, kinds, watch, read):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    leaves = [param(rng.uniform(1.0, 2.0, size=(3, 4))) for _ in kinds]
    with T.tape() as tape:
        # each argument an intermediate that owns its array
        args = [x + 0.0 if k == "g" else Tensor(x.data.copy())
                for x, k in zip(leaves, kinds)]
        ref = weakref.ref(args[watch].data)
        fn(*args)
        assert len(tape) > kinds.count("g")
        del args
        assert (ref() is not None) == read, name


def test_backward_frees_what_a_node_captured_while_the_tape_is_open():
    x = param(np.linspace(-1.0, 1.0, 12))
    with T.tape():
        h = x * 2.0
        ref = weakref.ref(h.data)
        loss = (h * x).sum()
        del h
        assert ref() is not None       # the mul vjp for x reads h
        grads = T.backward(loss)
        assert ref() is None
    assert grads[x].shape == (12,)


def concat_fn(a, b):
    return T.concat([T.reshape(a, (3, 4)), T.reshape(b, (3, 4))], axis=1)


# (name, fn, kinds): one letter per argument, "g" requires a gradient and
# "c" is a constant
PRIMITIVE_CASES = [
    ("add", lambda a, b: a + b, "gg"),
    ("add_const", lambda a, b: a + b, "cg"),
    ("sub", lambda a, b: a - b, "gg"),
    ("sub_const", lambda a, b: a - b, "cg"),
    ("mul", lambda a, b: a * b, "gg"),
    ("mul_const", lambda a, b: a * b, "gc"),
    ("div", lambda a, b: a / (b * b + 1.0), "gg"),
    ("div_const", lambda a, b: a / (b * b + 1.0), "gc"),
    ("matmul", lambda a, b: T.matmul(T.reshape(a, (3, 4)), T.reshape(b, (4, 3))), "gg"),
    ("matmul_const", lambda a, b: T.matmul(T.reshape(a, (3, 4)), T.reshape(b, (4, 3))),
     "cg"),
    ("gelu", lambda a: T.gelu(a), "g"),
    ("softmax_axis-2", lambda a: T.softmax(T.reshape(a, (3, 4)), axis=-2), "g"),
    ("layernorm", lambda a: T.layernorm(T.reshape(a, (3, 4))), "g"),
    ("mean", lambda a: T.reshape(a, (3, 4)).mean(), "g"),
    ("reshape_transpose", lambda a: T.transpose(T.reshape(a, (3, 4)), (1, 0)), "g"),
    ("concat", concat_fn, "gg"),
    ("concat_const", concat_fn, "gc"),
    ("getitem", lambda a: T.reshape(a, (3, 4))[1:, ::2], "g"),
]


@pytest.mark.parametrize("name,fn,kinds", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients_match_finite_differences(name, fn, kinds):
    # random-cotangent objective: a near-constant one such as ||fn(x)||^2 / 2
    # for layernorm leaves central differences dominated by roundoff
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    arrays = [rng.normal(size=12) for _ in kinds]
    cot = rng.normal(size=fn(*[Tensor(a) for a in arrays]).shape)

    def run(arrs, grad=False):
        ps = [Tensor(a, requires_grad=grad and k == "g") for a, k in zip(arrs, kinds)]
        return ps, (fn(*ps) * cot).sum()

    with T.tape():
        ps, loss = run(arrays, grad=True)
        grads = T.backward(loss)
    assert set(grads) == {p for p, k in zip(ps, kinds) if k == "g"}

    def f(arrs):
        _, val = run(arrs)
        return float(val.data)

    for i, p in enumerate(ps):
        if kinds[i] == "g":
            fd = central_diff_grad(f, [a.copy() for a in arrays], i, step=1e-5)
            assert rel_err(grads[p], fd) < 1e-6, name


def test_constant_operand_gets_no_gradient():
    # the constant side's gradient would square 1e30 and overflow float32
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    big = Tensor(np.full(3, 1e30, np.float32))
    with T.tape():
        grads = T.backward(T.div(x, big).sum())
    assert list(grads) == [x]
    assert np.array_equal(grads[x], np.full(3, 1e-30, np.float32))


def test_softmax_gradient_bounded_logits():
    # saturation regime gets a looser bound; |z| <= 5 keeps it at 1e-4
    rng = np.random.default_rng(11)
    z = rng.uniform(-5, 5, size=(2, 6))

    def f(arrs):
        s = T.softmax(Tensor(arrs[0]), axis=-1)
        return float(((s * s).sum() * 0.5).data)

    x = param(z)
    with T.tape():
        s = T.softmax(x, axis=-1)
        grads = T.backward((s * s).sum() * 0.5)
    fd = central_diff_grad(f, [z.copy()], 0, step=1e-5)
    assert rel_err(grads[x], fd) < 1e-4


def test_masked_fill_blocks_gradient():
    x = param([1.0, 2.0, 3.0, 4.0])
    mask = np.array([False, True, False, True])
    with T.tape():
        y = T.masked_fill(x, mask, 0.0)
        grads = T.backward((y * y).sum() * 0.5)
    assert np.allclose(grads[x], np.where(mask, 0.0, x.data))
    assert np.allclose(y.data, [1.0, 0.0, 3.0, 0.0])


def tap_contract_reference(s, wz, k, gh, gw):
    """Per tap: its own matmul, then a zero-padded sliding window read at the
    tap's position; summed over taps."""
    p = k // 2
    c = wz.shape[-2] // (k * k)
    out = 0.0
    for i in range(k):
        for j in range(k):
            t = i * k + j
            y = wz[..., t * c:(t + 1) * c, :] @ s
            grid = y.reshape(y.shape[:-1] + (gh, gw))
            pad = [(0, 0)] * (grid.ndim - 2) + [(p, p), (p, p)]
            win = np.lib.stride_tricks.sliding_window_view(
                np.pad(grid, pad), (k, k), axis=(-2, -1))
            out = out + win[..., i, j].reshape(y.shape)
    return out


@pytest.mark.parametrize("k,gh,gw", [(1, 3, 4), (3, 4, 5), (3, 1, 3)])
def test_tap_contract_matches_sliding_window_reference(k, gh, gw):
    rng = np.random.default_rng(zlib.crc32(f"tap{k}{gh}{gw}".encode()))
    c, l = 3, 4
    s = rng.normal(size=(2, 2, l, gh * gw))
    wz = rng.normal(size=(2, 2, k * k * c, l))
    out = T.tap_contract(Tensor(s), Tensor(wz), k, gh, gw)
    assert out.shape == (2, 2, c, gh * gw)
    assert rel_err(out.data, tap_contract_reference(s, wz, k, gh, gw)) < 1e-13


def test_tap_contract_edge_cells_read_zero_outside_the_grid():
    # corner (0, 0) sees only taps with di, dj >= 0; the far corner only
    # taps with di, dj <= 0
    rng = np.random.default_rng(5)
    gh, gw, c, l = 4, 5, 2, 3
    s = rng.normal(size=(l, gh * gw))
    wz = rng.normal(size=(9 * c, l))
    out = T.tap_contract(Tensor(s), Tensor(wz), 3, gh, gw).data.reshape(c, gh, gw)
    y = (wz @ s).reshape(3, 3, c, gh, gw)
    first = sum(y[1 + di, 1 + dj, :, di, dj] for di in (0, 1) for dj in (0, 1))
    last = sum(y[1 + di, 1 + dj, :, gh - 1 + di, gw - 1 + dj]
               for di in (-1, 0) for dj in (-1, 0))
    assert np.abs(out[:, 0, 0] - first).max() < 1e-13
    assert np.abs(out[:, -1, -1] - last).max() < 1e-13


@pytest.mark.parametrize("k,gh,gw,const", [
    pytest.param(1, 2, 3, None, id="1-2-3"), pytest.param(3, 3, 4, None, id="3-3-4"),
    pytest.param(3, 3, 4, "s", id="3-3-4-const_s"),
    pytest.param(3, 3, 4, "wz", id="3-3-4-const_wz"),
])
def test_tap_contract_gradients_match_finite_differences(k, gh, gw, const):
    rng = np.random.default_rng(zlib.crc32(f"tapfd{k}".encode()))
    c, l = 2, 3
    s = rng.normal(size=(1, 2, l, gh * gw))
    wz = rng.normal(size=(1, 2, k * k * c, l))
    cot = rng.normal(size=(1, 2, c, gh * gw))

    ts = [Tensor(a, requires_grad=name != const) for a, name in ((s, "s"), (wz, "wz"))]
    with T.tape():
        grads = T.backward((T.tap_contract(*ts, k, gh, gw) * cot).sum())
    assert set(grads) == {t for t in ts if t.requires_grad}

    def f(arrs):
        o = T.tap_contract(Tensor(arrs[0]), Tensor(arrs[1]), k, gh, gw)
        return float((o.data * cot).sum())

    for i, p in enumerate(ts):
        if p.requires_grad:
            fd = central_diff_grad(f, [s.copy(), wz.copy()], i, step=1e-5)
            assert rel_err(grads[p], fd) < 1e-8


@pytest.mark.parametrize("const", [None, "s", "wz"])
def test_tap_contract_backward_gathers_the_cotangent_once(monkeypatch, const):
    # each gather pads the cotangent once; with both inputs needing a
    # gradient the second edge reuses the first edge's gather
    pads = []
    pad2d = T._pad2d

    def counting_pad2d(x, p):
        pads.append(x.shape)
        return pad2d(x, p)

    monkeypatch.setattr(T, "_pad2d", counting_pad2d)
    rng = np.random.default_rng(7)
    s = Tensor(rng.normal(size=(2, 3, 12)), requires_grad=const != "s")
    wz = Tensor(rng.normal(size=(2, 18, 3)), requires_grad=const != "wz")
    with T.tape():
        grads = T.backward(T.tap_contract(s, wz, 3, 3, 4).sum())
    assert len(pads) == 1
    assert set(grads) == {t for t in (s, wz) if t.requires_grad}


def test_tap_contract_rejects_mismatched_grid():
    with pytest.raises(T.ShapeMismatch, match="tap_contract"):
        T.tap_contract(Tensor(np.zeros((2, 12))), Tensor(np.zeros((9, 2))), 3, 3, 5)
    with pytest.raises(T.ShapeMismatch, match="tap_contract"):
        T.tap_contract(Tensor(np.zeros((2, 15))), Tensor(np.zeros((10, 2))), 3, 3, 5)
    with pytest.raises(T.ShapeMismatch, match="tap_contract"):     # point-major map
        T.tap_contract(Tensor(np.zeros((15, 2))), Tensor(np.zeros((9, 2))), 3, 3, 5)


def test_broadcast_gradients():
    a = param(np.ones((3, 4)))
    b = param(np.full((1, 4), 2.0))
    with T.tape():
        grads = T.backward((a * b).sum())
    assert grads[a].shape == (3, 4)
    assert grads[b].shape == (1, 4)
    assert np.allclose(grads[b], 3.0)


def test_forward_determinism_same_seed():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(8, 8)))
        w = Tensor(rng.normal(size=(8, 8)))
        y = T.gelu(T.softmax(T.matmul(x, w), axis=-1)).sum()
        return y.data.copy()

    assert np.array_equal(run(), run())


def test_precision_switch(tmp_path):
    # new parameters are float32 unless their caller asks otherwise, and a
    # checkpoint loads as float32, also inside the no-op precision stub; a
    # tensor keeps the dtype of its data
    cfg = md.ModelConfig(layers=1, channels=2, heads=1, latent_tokens=1, history=1)
    p = tmp_path / "m.pobw"
    md.save_checkpoint(md.ModelParams(cfg, dtype=np.float64), p)
    for scope in (contextlib.nullcontext, lambda: T.precision(np.float64)):
        with scope():
            for params in (md.ModelParams(cfg), md.load_checkpoint(p)):
                assert {t.dtype for t in params.tensors()} == {np.dtype(np.float32)}
    assert Tensor(np.ones(2, dtype=np.float32)).dtype == np.float32
    assert Tensor([1.0]).dtype == np.float64
    with pytest.raises(TypeError, match="floating"):
        Tensor(np.arange(3))


def test_no_module_but_tensor_refers_to_the_perfbench_stubs():
    # `precision` and `depthwise_conv2d` stay only while the benchmark names
    # them; no program module may start to use them meanwhile
    stubs = {"precision", "depthwise_conv2d"}
    paths = sorted(Path(T.__file__).parent.glob("*.py"))
    assert len(paths) >= 8
    for path in paths:
        if path.name == "tensor.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        assert not names & stubs, path.name
