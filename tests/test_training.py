import functools
import re

import numpy as np
import pytest

from partialpde import evaluation as ev
from partialpde import masking as mk
from partialpde import model as md
from partialpde import pdegen as pg
from partialpde import tensor as T
from partialpde import training as tr
from partialpde.tensor import Tensor


# -- losses ------------------------------------------------------------------------

def test_loss_zero_when_exact():
    pred = Tensor(np.ones((1, 4, 4, 2)))
    target = np.ones((1, 4, 4, 2))
    mask = np.ones((1, 4, 4))
    assert float(tr.masked_one_step_loss(pred, target, mask).data) == 0.0


def test_loss_ignores_unobserved_error():
    target = np.zeros((1, 4, 4, 1))
    mask = np.ones((1, 4, 4))
    mask[0, :2] = 0.0
    pred_arr = np.zeros((1, 4, 4, 1))
    pred_arr[0, :2] = 99.0  # error only where unobserved
    loss = tr.masked_one_step_loss(Tensor(pred_arr), target, mask)
    assert float(loss.data) == 0.0


def test_loss_direct_average():
    # error 1 at half of the observed points -> loss 0.5
    mask = np.ones((1, 4, 4))
    target = np.zeros((1, 4, 4, 1))
    pred_arr = np.zeros((1, 4, 4, 1))
    pred_arr[0, :2, :, 0] = 1.0
    loss = tr.masked_one_step_loss(Tensor(pred_arr), target, mask)
    assert float(loss.data) == pytest.approx(0.5)


def test_loss_takes_a_uint8_mask_as_is():
    rng = np.random.default_rng(3)
    pred = Tensor(rng.normal(size=(2, 8, 8, 2)).astype(np.float32))
    target = rng.normal(size=(2, 8, 8, 2)).astype(np.float32)
    grids = np.stack([mk.gen_mask(mk.POINTWISE, 8, 8, 0.4, seed=s).grid
                      for s in range(2)])
    a = tr.masked_one_step_loss(pred, target, grids)
    b = tr.masked_one_step_loss(pred, target, grids.astype(np.float32))
    assert grids.dtype == np.uint8 and a.dtype == np.float32
    assert a.data.tobytes() == b.data.tobytes()


def test_loss_rejects_empty_mask():
    with pytest.raises(ValueError):
        tr.masked_one_step_loss(Tensor(np.zeros((1, 2, 2, 1))),
                                np.zeros((1, 2, 2, 1)), np.zeros((1, 2, 2)))


def test_loss_gradient_confined_to_observed_points():
    rng = np.random.default_rng(0)
    mask = (rng.random((1, 4, 4)) > 0.5).astype(np.float64)
    mask[0, 0, 0] = 1.0
    pred = Tensor(rng.normal(size=(1, 4, 4, 1)), requires_grad=True)
    target = rng.normal(size=(1, 4, 4, 1))
    with T.tape():
        grads = T.backward(tr.masked_one_step_loss(pred, target, mask))
    g = grads[pred][0, ..., 0]
    assert np.all(g[mask[0] == 0.0] == 0.0)
    assert np.any(g[mask[0] == 1.0] != 0.0)

    # perturbing the target at unobserved points leaves the loss unchanged
    target2 = target.copy()
    target2[0, mask[0] == 0.0] += 123.0
    a = tr.masked_one_step_loss(Tensor(pred.data), target, mask)
    b = tr.masked_one_step_loss(Tensor(pred.data), target2, mask)
    assert float(a.data) == float(b.data)


def test_consistency_identical_is_zero():
    p = np.random.default_rng(1).normal(size=(1, 4, 4, 1))
    assert float(tr.consistency_loss(Tensor(p), Tensor(p.copy())).data) == 0.0


def test_consistency_constant_offset():
    clean = Tensor(np.zeros((1, 4, 4, 1)))
    masked = Tensor(np.full((1, 4, 4, 1), 0.3))
    assert float(tr.consistency_loss(clean, masked).data) == pytest.approx(0.09)


def test_consistency_gradient_only_through_masked_branch():
    clean = Tensor(np.zeros((2, 2, 2, 1)), requires_grad=True)
    masked = Tensor(np.ones((2, 2, 2, 1)), requires_grad=True)
    with T.tape():
        grads = T.backward(tr.consistency_loss(clean, masked))
    assert masked in grads and np.any(grads[masked] != 0.0)
    assert clean not in grads  # only its values are read


# -- optimizer ----------------------------------------------------------------------

def tiny_state(value=0.0, dtype=np.float32):
    cfg = md.ModelConfig(layers=1, channels=2, heads=1, latent_tokens=1,
                         history=1)
    params = md.ModelParams(cfg, seed=0, dtype=dtype)
    name = "out.b"
    params[name].data = np.full(params[name].shape, value, dtype=params[name].dtype)
    return tr.TrainState(params), name


def test_adamw_zero_gradient_no_decay_keeps_parameters():
    state, name = tiny_state(1.5)
    before = state.params[name].data.copy()
    cfg = tr.TrainConfig(weight_decay=0.0)
    tr.adamw_step(state, {name: np.zeros_like(before)}, lr=0.1, cfg=cfg)
    assert np.array_equal(state.params[name].data, before)


def test_adamw_decoupled_decay_only():
    state, name = tiny_state(2.0)
    cfg = tr.TrainConfig(weight_decay=0.01)
    tr.adamw_step(state, {name: np.zeros(state.params[name].shape)}, lr=0.1,
                  cfg=cfg)
    assert np.allclose(state.params[name].data, 2.0 * (1 - 0.1 * 0.01))


def test_adamw_nan_gradient_names_group():
    state, name = tiny_state(0.0)
    bad = np.full(state.params[name].shape, np.nan)
    with pytest.raises(tr.TrainingDiverged, match=name):
        tr.adamw_step(state, {name: bad}, lr=0.1, cfg=tr.TrainConfig())


def test_one_cycle_lr_is_a_python_float():
    # `is float`: np.float64 subclasses float and would promote float32 data
    cfg = tr.TrainConfig(learning_rate=1e-3)
    for step in (0, 3, 299, 999):
        assert type(tr.one_cycle_lr(step, 1000, cfg)) is float


@pytest.mark.parametrize("dtype, grad_dtype", [
    (np.float32, np.float64), (np.float32, np.float32),
    (np.float64, np.float64), (np.float64, np.float32)])
def test_adamw_keeps_each_parameter_dtype(dtype, grad_dtype):
    state, _ = tiny_state(0.5, dtype)
    rng = np.random.default_rng(4)
    cfg = tr.TrainConfig()
    for _ in range(3):
        grads = {name: rng.normal(size=p.shape).astype(grad_dtype)
                 for name, p in state.params.items()}
        tr.adamw_step(state, grads, lr=np.float64(1e-3), cfg=cfg)
    want = {np.dtype(dtype)}
    assert {t.data.dtype for t in state.params.tensors()} == want
    assert {a.dtype for a in state.m.values()} == want
    assert {a.dtype for a in state.v.values()} == want


# -- full-model gradient --------------------------------------------------------------

def mpt_loss_for_grad(params, coords, frames, targets, masks, aug, clean, lam):
    # `clean` is the gradient-stopped consistency target: fixed while the
    # parameters are perturbed, exactly as in one optimizer step
    pred = md.lano_forward(coords, frames, aug, params)
    loss = tr.masked_one_step_loss(pred, targets, masks)
    return loss + tr.consistency_loss(clean, pred) * lam


def test_full_mpt_loss_gradient_matches_finite_differences():
    cfg = md.ModelConfig(layers=2, channels=8, heads=2, latent_tokens=2,
                         history=2, phys_channels=1, mlp_ratio=1.0)
    params = md.ModelParams(cfg, seed=0, dtype=np.float64)
    # break the zero-init so every branch carries gradient
    rng = np.random.default_rng(1)
    for i in range(cfg.layers):
        params[f"L{i}.merge_w"].data = rng.normal(size=(8, 8)) * 0.2
    gh = gw = 5
    coords = pg.GridGeometry(gh, gw).coords()
    frames = rng.normal(size=(1, 2, gh, gw, 1))
    targets = rng.normal(size=(1, gh, gw, 1))
    m = mk.gen_pointwise_mask(gh, gw, 0.3, seed=3).grid[None].astype(float)
    m_aug, _ = mk.mpt_augment(
        mk.ObservationMask(m[0].astype(np.uint8), mk.POINTWISE, 0.3, 0, 3),
        0.2, seed=4)
    aug = m_aug.grid[None].astype(float)

    clean = md.lano_forward(coords, frames, m, params)

    with T.tape():
        grads = T.backward(mpt_loss_for_grad(params, coords, frames, targets,
                                             m, aug, clean, 0.1))

    def f(_):
        return float(mpt_loss_for_grad(params, coords, frames, targets, m,
                                       aug, clean, 0.1).data)

    step = 1e-5
    checked = 0
    rng2 = np.random.default_rng(7)
    for name, p in params.items():
        g = grads[p]
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        idxs = rng2.choice(flat.size, size=min(4, flat.size), replace=False)
        fd_vec, an_vec = [], []
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + step
            fp = f(None)
            flat[i] = orig - step
            fm = f(None)
            flat[i] = orig
            fd_vec.append((fp - fm) / (2 * step))
            an_vec.append(gflat[i])
            checked += 1
        fd_vec, an_vec = np.array(fd_vec), np.array(an_vec)
        # group-wise relative error; the floor is the FD resolution at
        # this step size, tiny gradients below it cannot be resolved
        scale = max(np.abs(fd_vec).max(), np.abs(an_vec).max(), 1e-6)
        err = np.abs(fd_vec - an_vec).max() / scale
        assert err < 1e-4, (name, err)
    assert checked > 50


# -- training loop ---------------------------------------------------------------------

def tiny_dataset(n_train=4, n_val=2, t_steps=4, hw=8, seed0=0):
    grid = pg.GridGeometry(hw, hw)
    mk_traj = lambda s: pg.solve_diffusion_reaction(grid, seed=s, t_steps=t_steps,
                                                    dt=0.02)
    return {
        "train": [mk_traj(seed0 + i) for i in range(n_train)],
        "val": [mk_traj(seed0 + 100 + i) for i in range(n_val)],
    }


def tiny_model_cfg(**kw):
    base = dict(layers=1, channels=8, heads=2, latent_tokens=2, history=2,
                phys_channels=2, mlp_ratio=1.0)
    base.update(kw)
    return md.ModelConfig(**base)


@pytest.mark.parametrize("grid_hw", [(32, 16), (8, 64)])
@pytest.mark.parametrize("split", ["train", "val"])
def test_train_on_splits_rejects_a_trajectory_on_another_grid(tmp_path, split, grid_hw):
    # both grids hold the 512 points of a 16x32 frame, so masks and
    # coordinates laid on them would reshape to the frames without an error
    def traj(hw):
        return pg.solve_navier_stokes(pg.GridGeometry(*hw), seed=0, t_steps=4, dt=0.05)

    splits = {"train": [traj(grid_hw)], "val": [traj(grid_hw)]}
    splits[split] = [traj((16, 32))]
    with pytest.raises(ValueError, match=f"{split} trajectory 0 is on a 16x32 grid"):
        tr.train_on_splits(splits, grid_hw, tr.MaskSpec(mk.PATCHWISE, 0.25, 4),
                           tiny_model_cfg(phys_channels=1),
                           tr.TrainConfig(epochs=1, batch_size=4), tmp_path / "run")


@pytest.mark.parametrize("lengths", [(6, 4), (4, 6)], ids=["longer-first", "shorter-first"])
def test_train_on_splits_rejects_train_trajectories_of_unequal_length(tmp_path, lengths):
    # windows are cut with train[0]'s length: a shorter trajectory would
    # break a batch mid-epoch, a longer one would lose its last windows
    grid = pg.GridGeometry(8, 8)
    train = [pg.solve_navier_stokes(grid, seed=s, t_steps=t, dt=0.05)
             for s, t in enumerate(lengths)]
    a, b = ((t, 8, 8, 1) for t in lengths)
    with pytest.raises(ValueError, match=re.escape(
            f"train trajectory 1 has frames of shape {b}, train trajectory 0 has {a}")):
        tr.train_on_splits({"train": train}, (8, 8), tr.MaskSpec(mk.PATCHWISE, 0.25, 4),
                           tiny_model_cfg(phys_channels=1, history=3),
                           tr.TrainConfig(epochs=1, batch_size=4), tmp_path / "run")
    assert not (tmp_path / "run" / "model.pobw").exists()


def test_train_on_splits_rejects_a_val_trajectory_with_other_channels(tmp_path):
    # val trajectories may differ in length only
    splits = tiny_dataset(n_train=1, n_val=0)
    splits["val"] = [pg.solve_navier_stokes(pg.GridGeometry(8, 8), seed=0, t_steps=6,
                                            dt=0.05)]
    with pytest.raises(ValueError, match=re.escape(
            "val trajectory 0 has frames of shape (8, 8, 1), "
            "train trajectory 0 has (8, 8, 2)")):
        tr.train_on_splits(splits, (8, 8), tr.MaskSpec(mk.PATCHWISE, 0.25, 4),
                           tiny_model_cfg(), tr.TrainConfig(epochs=1, batch_size=4),
                           tmp_path / "run")
    assert not (tmp_path / "run" / "model.pobw").exists()


def test_train_on_splits_refuses_a_val_split_too_short_to_score_before_any_step(
        tmp_path, monkeypatch):
    # val trajectories may be shorter than train ones, but scoring needs a
    # window of `history` frames and its target
    steps = []
    monkeypatch.setattr(tr, "_train_step", lambda *args: steps.append(args) or 0.0)
    splits = tiny_dataset(n_train=1, n_val=0, t_steps=6)
    splits["val"] = tiny_dataset(n_train=1, n_val=0, t_steps=3, seed0=100)["train"]
    with pytest.raises(ev.EvalError, match="needs 4 frames"):
        tr.train_on_splits(splits, (8, 8), tr.MaskSpec(mk.PATCHWISE, 0.25, 4),
                           tiny_model_cfg(history=3),
                           tr.TrainConfig(epochs=1, batch_size=4), tmp_path / "run")
    assert steps == []
    assert not list((tmp_path / "run").iterdir())


def test_train_runs_and_writes_artifacts(tmp_path):
    splits = tiny_dataset()
    cfg = tiny_model_cfg()
    tcfg = tr.TrainConfig(epochs=2, batch_size=4, seed=0)
    spec = tr.MaskSpec(mk.PATCHWISE, 0.25, 4)
    res = tr.train_on_splits(splits, (8, 8), spec, cfg, tcfg, tmp_path / "run")
    assert res.checkpoint_path.exists()
    assert res.metrics_path.exists()
    lines = res.metrics_path.read_text().splitlines()
    assert lines[0] == "epoch,step,lr,train_loss,val_rel_l2,wall_seconds"
    assert len(lines) == 3
    assert np.isfinite(res.best_val)


def tiny_run(out, epochs=2, seed=0):
    return tr.train_on_splits(tiny_dataset(), (8, 8),
                              tr.MaskSpec(mk.PATCHWISE, 0.25, 4),
                              tiny_model_cfg(),
                              tr.TrainConfig(epochs=epochs, batch_size=4,
                                             seed=seed), out)


def test_float32_training_records_and_returns_only_float32(tmp_path,
                                                          monkeypatch):
    backward = T.backward
    calls = []

    def checked(loss):
        nodes = T.active_tape()._nodes
        assert nodes and {t.dtype for t in nodes} == {np.dtype(np.float32)}
        grads = backward(loss)
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}
        calls.append(len(nodes))
        return grads

    monkeypatch.setattr(T, "backward", checked)
    tiny_run(tmp_path / "run", epochs=2)
    assert len(calls) == 4           # 8 pairs in batches of 4, two epochs


def test_best_val_is_the_saved_checkpoints_validation_error(tmp_path):
    res = tiny_run(tmp_path / "run", epochs=2, seed=1)
    val = tiny_dataset()["val"]
    spec = tr.MaskSpec(mk.PATCHWISE, 0.25, 4)
    val_masks = np.stack([spec.generate(8, 8, mk.derived_seed(1, 2, j)).grid
                          for j in range(len(val))])
    params = md.load_checkpoint(res.checkpoint_path)
    assert res.best_val == float(np.mean(ev.trajectory_errors(params, val,
                                                               val_masks)))


def test_float32_training_agrees_with_a_float64_run(tmp_path, monkeypatch):
    r32 = tiny_run(tmp_path / "f32", epochs=3)
    monkeypatch.setattr(md, "ModelParams",
                        functools.partial(md.ModelParams, dtype=np.float64))
    r64 = tiny_run(tmp_path / "f64", epochs=3)

    def train_losses(res):
        rows = res.metrics_path.read_text().splitlines()[1:]
        return np.array([float(r.split(",")[3]) for r in rows])

    assert r32.best_val == pytest.approx(r64.best_val, rel=1e-4)
    l32, l64 = train_losses(r32), train_losses(r64)
    assert len(l32) == 3
    assert np.allclose(l32, l64, rtol=1e-4, atol=0.0)


@pytest.mark.parametrize("field", ["epochs", "batch_size"])
def test_untrainable_config_is_rejected(field):
    with pytest.raises(ValueError, match=field):
        tr.TrainConfig(**{field: 0})


@pytest.mark.parametrize("field, value", [
    ("learning_rate", float("nan")), ("learning_rate", float("inf")),
    ("weight_decay", -1.0), ("weight_decay", float("nan")),
    ("consistency_weight", float("inf")),
])
def test_train_config_rejects_unusable_values(field, value):
    with pytest.raises(ValueError, match=field):
        tr.TrainConfig(**{field: value})


@pytest.mark.parametrize("flag, field", [("--epochs", "epochs"),
                                         ("--batch", "batch_size")])
def test_cli_train_with_nothing_to_train_reports_an_error(tmp_path, capsys,
                                                          flag, field):
    from partialpde import cli

    pg.write_dataset(tiny_dataset(n_train=1, n_val=1), tmp_path / "ds")
    tiny_flags = ["--layers", "1", "--channels", "8", "--heads", "2",
                  "--tokens", "2", "--history", "2", "--mlp-ratio", "1"]
    code = cli.main(["train", "--data", str(tmp_path / "ds"), *tiny_flags,
                     flag, "0", "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and field in err[0]
    assert not (tmp_path / "run" / "model.pobw").exists()


def test_final_val_is_mean_relative_l2_of_predict_batch(tmp_path, monkeypatch):
    calls = []
    predict_batch = ev.predict_batch

    def recording(params, trajs, masks):
        out = predict_batch(params, trajs, masks)
        calls.append((trajs, masks, out))
        return out

    monkeypatch.setattr(ev, "predict_batch", recording)
    splits = tiny_dataset(n_train=2, n_val=3)
    spec = tr.MaskSpec(mk.PATCHWISE, 0.25, 4)
    tcfg = tr.TrainConfig(epochs=1, batch_size=4, seed=5)
    res = tr.train_on_splits(splits, (8, 8), spec, tiny_model_cfg(), tcfg,
                             tmp_path / "run")
    # one call per validation trajectory, each with that trajectory's mask
    assert [trajs for trajs, _, _ in calls] == [[t] for t in splits["val"]]
    want = [spec.generate(8, 8, mk.derived_seed(tcfg.seed, 2, j)).grid
            for j in range(3)]
    assert np.array_equal(np.concatenate([m for _, m, _ in calls]), np.stack(want))
    errs = [ev.relative_l2(preds[0], truths[0]) for _, _, (preds, truths) in calls]
    assert res.final_val == float(np.mean(errs))


def test_training_step_records_only_the_grad_forward(tmp_path, monkeypatch):
    # what a tracer reads: T.active_tape().recording labels each forward
    # grad or no-grad, and len(T.active_tape()) at backward is the step's
    # tape size
    events = []

    def spy(module, name):
        orig = getattr(module, name)

        def wrapper(*args, **kwargs):
            tape = T.active_tape()
            events.append((name, tape.recording, len(tape)))
            return orig(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    spy(T, "backward")
    spy(md, "lano_forward")
    spy(ev, "predict_batch")
    splits = tiny_dataset(n_train=1, n_val=1)      # two pairs: one step
    tr.train_on_splits(splits, (8, 8), tr.MaskSpec(mk.PATCHWISE, 0.25, 4),
                       tiny_model_cfg(), tr.TrainConfig(epochs=1, batch_size=4),
                       tmp_path / "run")
    assert [(name, rec) for name, rec, _ in events] == [
        ("lano_forward", False),        # clean consistency target
        ("lano_forward", True),         # the differentiated forward
        ("backward", True),
        ("predict_batch", False),       # validation
        ("lano_forward", False),
    ]
    assert events[2][2] > 0
    assert len(T.active_tape()) == 0


def test_raising_grad_forward_leaves_nothing_for_the_next_backward():
    cfg = tiny_model_cfg(phys_channels=1)
    params = md.ModelParams(cfg, seed=2)
    rng = np.random.default_rng(9)
    coords = pg.GridGeometry(8, 8).coords()
    frames = rng.normal(size=(2, cfg.history, 8, 8, 1)).astype(np.float32)
    targets = rng.normal(size=(2, 8, 8, 1)).astype(np.float32)
    masks = np.ones((2, 8, 8), dtype=np.float32)
    with pytest.raises(ValueError, match="no observed points"):
        with T.tape():
            pred = md.lano_forward(coords, frames, masks, params)
            assert len(T.active_tape()) > 0
            tr.masked_one_step_loss(pred, targets, np.zeros_like(masks))
    assert len(T.active_tape()) == 0

    x = Tensor(np.ones(3), requires_grad=True)
    with T.tape():
        grads = T.backward((x * x).sum())
    assert list(grads) == [x]


def test_train_seed_reproducible_metrics(tmp_path):
    splits = tiny_dataset()
    cfg = tiny_model_cfg()
    spec = tr.MaskSpec(mk.PATCHWISE, 0.25, 4)

    def run(out):
        tcfg = tr.TrainConfig(epochs=2, batch_size=4, seed=7)
        return tr.train_on_splits(splits, (8, 8), spec, cfg, tcfg, out)

    r1 = run(tmp_path / "a")
    r2 = run(tmp_path / "b")

    def stripped(path):
        rows = path.read_text().splitlines()
        return ["," .join(r.split(",")[:-1]) for r in rows]  # drop wall_seconds

    assert stripped(r1.metrics_path) == stripped(r2.metrics_path)
    assert r1.checkpoint_path.read_bytes() == r2.checkpoint_path.read_bytes()


def test_validation_never_reads_the_test_split(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(ev, "trajectory_errors",
                        lambda *args: calls.append(args) or [0.0])
    data = tiny_dataset(n_train=2, n_val=2)
    splits = {"train": data["train"], "test": data["val"]}
    tcfg = tr.TrainConfig(epochs=2, batch_size=4, seed=0)
    res = tr.train_on_splits(splits, (8, 8), tr.MaskSpec(mk.PATCHWISE, 0.25, 4),
                             tiny_model_cfg(), tcfg, tmp_path / "run")
    assert calls == []
    assert np.isnan(res.best_val) and np.isnan(res.final_val)
    rows = res.metrics_path.read_text().splitlines()[1:]
    assert [r.split(",")[4] for r in rows] == ["nan", "nan"]
    assert res.checkpoint_path.exists()


def test_train_mpt_off_is_plain_supervised(tmp_path):
    # flag semantics: no augmentation and no consistency branch
    splits = tiny_dataset(n_train=2, n_val=1)
    cfg = tiny_model_cfg()
    spec = tr.MaskSpec(mk.POINTWISE, 0.2, 0)
    tcfg = tr.TrainConfig(epochs=1, batch_size=4, seed=3, mpt_enabled=False,
                          consistency_weight=0.0)
    res = tr.train_on_splits(splits, (8, 8), spec, cfg, tcfg, tmp_path / "off")
    assert res.checkpoint_path.exists()


def test_supervised_set_independent_of_artificial_mask():
    m = mk.gen_patchwise_mask(8, 8, 0.25, 4, seed=0)
    for s in range(5):
        m_aug, h_hat = mk.mpt_augment(m, 0.4, seed=s)
        # supervision uses m, which augmentation never touches
        assert np.array_equal(m.grid, m.grid | (1 - h_hat.grid) * m.grid)
        assert np.all(m_aug.grid <= m.grid)


def test_mpt_augmentation_that_hides_every_cell_keeps_the_sample_mask(monkeypatch):
    # the first sample's augmentation comes out empty, the second's does not
    augment = mk.mpt_augment
    augmented = []

    def first_empty(m, rate, seed):
        m_aug, h_hat = augment(m, rate, seed)
        if not augmented:
            m_aug = mk.ObservationMask(np.zeros_like(m.grid), m.pattern,
                                       m.missing_rate, m.patch_size, m.seed)
        augmented.append(m_aug.grid)
        return m_aug, h_hat

    forward = md.lano_forward
    seen = []

    def spy(coords, frames, mask, params):
        seen.append(np.array(mask))
        return forward(coords, frames, mask, params)

    monkeypatch.setattr(mk, "mpt_augment", first_empty)
    monkeypatch.setattr(md, "lano_forward", spy)
    cfg = tiny_model_cfg(phys_channels=1)
    params = md.ModelParams(cfg, seed=1)
    rng = np.random.default_rng(5)
    frames = rng.normal(size=(2, cfg.history, 8, 8, 1)).astype(np.float32)
    targets = rng.normal(size=(2, 8, 8, 1)).astype(np.float32)
    mask_objs = [mk.gen_patchwise_mask(8, 8, 0.5, 2, seed=s) for s in range(2)]
    loss = tr._train_step(params, tr.TrainState(params), pg.GridGeometry(8, 8).coords(),
                          frames, targets, mask_objs,
                          tr.TrainConfig(consistency_weight=0.0),
                          np.random.default_rng(0), 1e-3)
    assert np.isfinite(loss)
    assert len(seen) == 1 and len(augmented) == 2
    assert np.array_equal(seen[0][0], mask_objs[0].grid)
    assert np.array_equal(seen[0][1], augmented[1])


def test_mpt_training_at_a_high_patch_rate_never_feeds_an_empty_mask(tmp_path):
    # 4x4 patches at 75 % missing on 16x16: some augmentation in these 20
    # epochs hides every observed cell of its sample
    grid = pg.GridGeometry(16, 16)
    trajs = [pg.solve_navier_stokes(grid, seed=s, t_steps=6, dt=0.2) for s in range(4)]
    cfg = md.ModelConfig(layers=1, channels=8, heads=2, latent_tokens=4, history=3)
    res = tr.train_on_splits({"train": trajs}, (16, 16),
                             tr.MaskSpec(mk.PATCHWISE, 0.75, 4), cfg,
                             tr.TrainConfig(epochs=20, batch_size=4), tmp_path / "run")
    assert res.checkpoint_path.exists()


def test_train_rejects_short_trajectories():
    with pytest.raises(ValueError):
        tr.make_pairs(2, t_all=3, history=3)


# -- the experiment harness ------------------------------------------------------------

def fake_training(monkeypatch, tmp_path):
    """Make every training run return one untrained tiny checkpoint; the
    returned list records each run's directory name."""
    ckpt = tmp_path / "m.pobw"
    md.save_checkpoint(md.ModelParams(tiny_model_cfg(), seed=0), ckpt)
    names = []

    def fake(splits, grid_hw, mask_spec, model_cfg, train_cfg, out_dir):
        names.append(out_dir.name)
        return tr.TrainResult(ckpt, tmp_path / "metrics.csv", 0.0, 0.0)

    monkeypatch.setattr(tr, "train_on_splits", fake)
    return names


def harness_splits(test_steps=4):
    splits = tiny_dataset(n_train=1, n_val=1)
    splits["test"] = tiny_dataset(n_train=1, n_val=0, t_steps=test_steps,
                                  seed0=200)["train"]
    return splits


@pytest.mark.parametrize("axis", tr.ABLATION_AXES)
def test_ablation_variant_names_are_unique(tmp_path, monkeypatch, axis):
    # each variant trains into the directory its name gives
    names = fake_training(monkeypatch, tmp_path)
    rows = tr.ablate(harness_splits(), (8, 8), tiny_model_cfg(), axis,
                     tr.MaskSpec(mk.PATCHWISE, 0.25, 4), tr.TrainConfig(epochs=1),
                     tmp_path / "ab")
    assert len(names) == len(set(names)) > 1
    assert sorted({r["variant"] for r in rows}) == sorted(names)


def test_ablate_refuses_a_test_split_too_short_to_score_before_any_training(
        tmp_path, monkeypatch):
    names = fake_training(monkeypatch, tmp_path)
    with pytest.raises(ev.EvalError, match="needs 3 frames"):
        tr.ablate(harness_splits(test_steps=2), (8, 8), tiny_model_cfg(), "mixer",
                  tr.MaskSpec(mk.PATCHWISE, 0.25, 4), tr.TrainConfig(epochs=1),
                  tmp_path / "ab")
    assert names == []
