import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import partialpde
from partialpde import evaluation as ev
from partialpde import masking as mk
from partialpde import model as md
from partialpde import pdegen as pg
from partialpde import tensor as T


def test_evaluate_runs_one_forward_per_trajectory_and_rate(monkeypatch):
    grid = pg.GridGeometry(8, 8)
    trajs = [pg.solve_diffusion_reaction(grid, seed=s, t_steps=3, dt=0.02)
             for s in range(3)]
    cfg = md.ModelConfig(layers=1, channels=8, heads=2, latent_tokens=2,
                         history=2, phys_channels=2, mlp_ratio=1.0)
    params = md.ModelParams(cfg, seed=0)
    # a nonzero merge makes the prediction depend on the mask
    params["L0.merge_w"].data = np.random.default_rng(1).normal(
        size=(8, 8)).astype(np.float32)
    rates, seed = (0.1, 0.4), 3

    calls = []
    predict_batch = ev.predict_batch

    def recording(params, trajs, masks):
        calls.append(trajs)
        return predict_batch(params, trajs, masks)

    monkeypatch.setattr(ev, "predict_batch", recording)
    rows = ev.evaluate(params, trajs, mk.POINTWISE, rates, seed=seed)
    monkeypatch.undo()

    assert calls == [[t] for _ in rates for t in trajs]
    assert len(rows) == len(rates)
    for rate, row in zip(rates, rows):
        masks = np.stack([
            mk.gen_mask(mk.POINTWISE, 8, 8, rate,
                        seed=mk.derived_seed(seed, round(rate * 10**6), j)).grid
            for j in range(len(trajs))])
        preds, truths = ev.predict_batch(params, trajs, masks)
        errs = [ev.relative_l2(preds[j], truths[j]) for j in range(len(trajs))]
        assert row["mean_rel_l2"] == float(np.mean(errs))
        assert row["std_rel_l2"] == float(np.std(errs))
        assert row["n_samples"] == len(trajs)
        assert row["config_fingerprint"] == ev.config_fingerprint(cfg)


def test_one_test_rate_scores_the_same_holes_in_any_list_of_rates():
    # the rates axis of `ablate` scores each variant at its own list of test
    # rates; a shared rate must give every variant the same masks
    grid = pg.GridGeometry(16, 16)
    trajs = [pg.solve_navier_stokes(grid, seed=s, t_steps=3, dt=0.05)
             for s in range(2)]
    cfg = md.ModelConfig(layers=1, channels=8, heads=2, latent_tokens=2,
                         history=2, phys_channels=1, mlp_ratio=1.0)
    params = md.ModelParams(cfg, seed=0)
    params["L0.merge_w"].data = np.random.default_rng(1).normal(
        size=(8, 8)).astype(np.float32)
    low = ev.evaluate(params, trajs, mk.POINTWISE, [0.05, 0.25], seed=1234)
    high = ev.evaluate(params, trajs, mk.POINTWISE, [0.25, 0.5], seed=1234)
    assert low[1]["test_rate"] == high[0]["test_rate"] == 0.25
    assert low[1] == high[0]
    assert low[0]["mean_rel_l2"] != high[1]["mean_rel_l2"]


@pytest.mark.parametrize("rate", [-0.1, 1.0, float("nan")])
def test_evaluate_rejects_a_test_rate_outside_0_1(rate):
    grid = pg.GridGeometry(8, 8)
    trajs = [pg.solve_navier_stokes(grid, seed=0, t_steps=3, dt=0.05)]
    cfg = md.ModelConfig(layers=1, channels=8, heads=2, latent_tokens=2, history=2)
    with pytest.raises(ev.EvalError, match="test rates must be in"):
        ev.evaluate(md.ModelParams(cfg, seed=0), trajs, mk.POINTWISE, [0.25, rate])


def test_evaluate_rejects_a_negative_seed():
    trajs = [pg.solve_navier_stokes(pg.GridGeometry(8, 8), seed=0, t_steps=3, dt=0.05)]
    cfg = md.ModelConfig(layers=1, channels=8, heads=2, latent_tokens=2, history=2)
    with pytest.raises(ev.EvalError, match="seed"):
        ev.evaluate(md.ModelParams(cfg, seed=0), trajs, mk.POINTWISE, [0.25], seed=-1)


def test_evaluate_rejects_trajectories_on_different_grids():
    # the masks are laid on the first trajectory's grid
    trajs = [pg.solve_navier_stokes(pg.GridGeometry(*hw), seed=0, t_steps=3, dt=0.05)
             for hw in ((16, 32), (32, 16))]
    cfg = md.ModelConfig(layers=1, channels=8, heads=2, latent_tokens=2, history=2)
    with pytest.raises(ev.EvalError, match="trajectory 1 is on a 32x16 grid, "
                                           "trajectory 0 on 16x32"):
        ev.evaluate(md.ModelParams(cfg, seed=0), trajs, mk.POINTWISE, [0.25])


def test_importing_the_cli_leaves_interpolation_modules_unloaded():
    src = Path(partialpde.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import partialpde.evaluation; "
            "print('partialpde.training' in sys.modules); import partialpde.cli; "
            "print(sorted(m for m in ('scipy.interpolate', 'scipy.ndimage', "
            "'scipy.spatial', 'scipy.special') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, str(src)],
                         capture_output=True, text=True, check=True)
    # evaluation must not import training: the harness that trains lives in training.
    # The cli imports verify, as every benchmark workload does; verify's
    # references load scipy.special on first use
    assert out.stdout.split() == ["False", "[]"]


@pytest.mark.parametrize("split", ["val", "train2"])
def test_evaluate_checkpoint_rejects_an_empty_or_missing_split(tmp_path, split):
    # checkpoint evaluation is the cli's `eval` command
    from partialpde import cli

    grid = pg.GridGeometry(8, 8)
    traj = lambda s: pg.solve_diffusion_reaction(grid, seed=s, t_steps=3, dt=0.02)
    pg.write_dataset({"train": [traj(0)], "val": [], "test": [traj(1)]},
                     tmp_path / "ds")
    cfg = md.ModelConfig(layers=1, channels=8, heads=2, latent_tokens=2,
                         history=2, phys_channels=2, mlp_ratio=1.0)
    md.save_checkpoint(md.ModelParams(cfg, seed=0), tmp_path / "m.pobw")
    args = cli.build_parser().parse_args(
        ["eval", "--ckpt", str(tmp_path / "m.pobw"), "--data", str(tmp_path / "ds"),
         "--pattern", "patch", "--rates", "0.25", "--split", split,
         "--out", str(tmp_path / "e.csv")])
    with pytest.raises(ev.EvalError, match=f"split '{split}'"):
        cli.cmd_eval(args)
    assert not (tmp_path / "e.csv").exists()


def test_predict_batch_takes_a_uint8_mask_as_is():
    # callers pass ObservationMask grids uncast; the model casts them
    grid = pg.GridGeometry(8, 8)
    trajs = [pg.solve_navier_stokes(grid, seed=s, t_steps=3, dt=0.05)
             for s in range(2)]
    cfg = md.ModelConfig(layers=2, channels=8, heads=2, latent_tokens=2,
                         history=2, phys_channels=1, mlp_ratio=1.0)
    params = md.ModelParams(cfg, seed=0)
    params["L0.merge_w"].data = np.random.default_rng(1).normal(
        size=(8, 8)).astype(np.float32)
    u8 = np.stack([mk.gen_mask(mk.PATCHWISE, 8, 8, 0.5, seed=s).grid
                   for s in range(2)])
    f32 = u8.astype(np.float32)
    assert u8.dtype == np.uint8
    a, _ = ev.predict_batch(params, trajs, u8)
    b, _ = ev.predict_batch(params, trajs, f32)
    assert a.dtype == np.float32 and a.tobytes() == b.tobytes()

    frames = np.stack([t.frames[:2] for t in trajs])
    coords = grid.coords()
    with T.tape():
        c = md.lano_forward(coords, frames, u8, params)
        d = md.lano_forward(coords, frames, f32, params)
    assert c.data.tobytes() == d.data.tobytes() == a.tobytes()


def test_interp_fill_of_cells_no_pass_reaches_warns_nothing():
    # observed: the top-left 4x4 block only, so every cell right of or below
    # it lies outside the observed cells' convex hull and takes the value of
    # its nearest observed cell
    rng = np.random.default_rng(0)
    frame = rng.normal(size=(16, 16, 2))
    grid = np.zeros((16, 16), dtype=np.uint8)
    grid[:4, :4] = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        filled = ev.interp_fill_baseline(frame, grid)
    rows, cols = np.mgrid[0:16, 0:16]
    nearest = frame[np.minimum(rows, 3), np.minimum(cols, 3)]
    assert np.array_equal(filled, nearest)


def test_interp_fill_of_collinear_observed_cells_takes_the_nearest_value():
    # observed: one full row, which has no triangulation, so every hole
    # takes the value of the observed cell in its column
    rng = np.random.default_rng(1)
    frame = rng.normal(size=(8, 12, 2))
    grid = np.zeros((8, 12), dtype=np.uint8)
    grid[5] = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        filled = ev.interp_fill_baseline(frame, grid)
    assert np.array_equal(filled, np.broadcast_to(frame[5], frame.shape))
