"""The one-step task and its metrics.  The task lives here alone: the
window-and-target batch (`assemble_batch`), the frame-count rule
(`check_one_step_frames`) and the default test-mask seed (`TEST_MASK_SEED`),
which training, validation, `eval` and `ablate` share.  Then relative L2,
masked one-step evaluation over rate/pattern grids, CSV rows, and the
interpolation-fill reference mode (Clough-Tocher cubic interpolation over
the observed cells).

The ablation harness, whose `rates` axis is the train/test rate matrix,
trains models, so it lives in `training`, next to `train_on_splits`.
"""

from __future__ import annotations

import csv
import hashlib

import numpy as np

from . import masking as mk
from . import model as md
from . import pdegen as pg

TEST_MASK_SEED = 1234      # default seed of the test holes: `eval` and `ablate` share it


class EvalError(ValueError):
    pass


def relative_l2(pred: np.ndarray, truth: np.ndarray) -> float:
    """||pred - truth||_2 / ||truth||_2 over the full domain and channels."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise EvalError(f"shape mismatch {pred.shape} vs {truth.shape}")
    denom = float(np.linalg.norm(truth.reshape(-1)))
    if denom == 0.0:
        raise EvalError("relative L2 undefined for zero-norm truth")
    return float(np.linalg.norm((pred - truth).reshape(-1)) / denom)


def write_rows(path, rows: list) -> None:
    """Write row dicts as CSV; the first row's keys, in order, are the columns."""
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)


def config_fingerprint(cfg: md.ModelConfig) -> str:
    return hashlib.sha256(md.config_to_text(cfg).encode()).hexdigest()[:12]


def check_one_step_frames(trajs, history: int) -> None:
    """Refuse trajectories too short for one window and its target."""
    shortest = min(t.t_all for t in trajs)
    if shortest <= history:
        raise EvalError(f"a one-step window needs {history + 1} frames per "
                        f"trajectory (history {history} + 1 target); the "
                        f"shortest has {shortest}")


def assemble_batch(trajs, pairs, history: int):
    """Each (trajectory, target index) pair's `history`-frame window and target."""
    frames = np.stack([trajs[j].frames[i - history:i] for j, i in pairs])
    targets = np.stack([trajs[j].frames[i] for j, i in pairs])
    return frames, targets


def predict_batch(params: md.ModelParams, trajs, masks: np.ndarray):
    """One-step predictions from the first window of each trajectory."""
    history = params.config.history
    check_one_step_frames(trajs, history)
    frames, truths = assemble_batch(trajs, [(j, history) for j in range(len(trajs))],
                                    history)
    coords = pg.GridGeometry(*frames.shape[2:4]).coords()
    pred = md.lano_forward(coords, frames, masks, params)
    return pred.data, truths


def trajectory_errors(params: md.ModelParams, trajs, masks: np.ndarray) -> list:
    """Relative L2 of each trajectory's one-step prediction under its mask.

    One forward per trajectory keeps peak memory flat in the number of
    trajectories; the predictions equal those of one batched forward.
    """
    errs = []
    for traj, mask in zip(trajs, masks):
        preds, truths = predict_batch(params, [traj], mask[None])
        errs.append(relative_l2(preds[0], truths[0]))
    return errs


def evaluate(params: md.ModelParams, trajs, pattern: str, test_rates,
             patch_size: int = 4, seed: int = TEST_MASK_SEED) -> list:
    """Seeded masks per (rate, trajectory); full-domain relative L2.

    Returns one row dict per requested test rate; rows carry the mean and
    per-trajectory spread of the error and the model's config fingerprint.
    """
    if not trajs:
        raise EvalError("no trajectories to evaluate")
    if not test_rates:
        raise EvalError("no test rates to evaluate")
    if not all(0.0 <= rate < 1.0 for rate in test_rates):
        raise EvalError(f"test rates must be in [0, 1), got {list(test_rates)}")
    if seed < 0:
        raise EvalError(f"seed must be >= 0, got {seed}")
    _, h, w, _ = trajs[0].frames.shape
    for j, traj in enumerate(trajs):
        if traj.frames.shape[1:3] != (h, w):
            raise EvalError(f"trajectory {j} is on a {traj.frames.shape[1]}x"
                            f"{traj.frames.shape[2]} grid, trajectory 0 on {h}x{w}")
    fingerprint = config_fingerprint(params.config)
    rows = []
    for rate in test_rates:
        # the rate, not its place in test_rates, seeds the masks, so every
        # model scored at one rate sees the same holes
        masks = np.stack([
            mk.gen_mask(pattern, h, w, rate, patch_size=patch_size,
                        seed=mk.derived_seed(seed, round(rate * 10**6), j)).grid
            for j in range(len(trajs))])
        errs = trajectory_errors(params, trajs, masks)
        rows.append({
            "pattern": pattern,
            "test_rate": rate,
            "patch_size": patch_size if pattern == mk.PATCHWISE else 0,
            "mean_rel_l2": float(np.mean(errs)),
            "std_rel_l2": float(np.std(errs)),
            "n_samples": len(errs),
            "config_fingerprint": fingerprint,
        })
    return rows


# -- cubic interpolation fill -----------------------------------------------------

def interp_fill_baseline(frame: np.ndarray, m) -> np.ndarray:
    """Complete the unobserved cells of one (H, W, C) frame by piecewise
    cubic (Clough-Tocher) interpolation over the observed cells.

    Holes outside the observed cells' convex hull, and every hole when the
    observed cells are collinear, take the nearest observed value.
    Reference mode for interp-then-train pipelines; needs at least 4
    observed points.
    """
    # scipy.interpolate and scipy.spatial are slow to import and only this
    # baseline needs them
    from scipy.interpolate import griddata
    from scipy.spatial import QhullError

    grid = m.grid if isinstance(m, mk.ObservationMask) else np.asarray(m)
    observed = grid.astype(bool)
    if observed.sum() < 4:
        raise EvalError("interpolation fill needs >= 4 observed points")
    out = np.array(frame, dtype=np.float64)
    missing = ~observed
    if not np.any(missing):
        return out
    points, holes = np.argwhere(observed), np.argwhere(missing)
    values = out[observed]                                  # (n_observed, C)
    try:
        est = griddata(points, values, holes, method="cubic")
    except QhullError:                                      # collinear points
        est = np.full((len(holes), out.shape[-1]), np.nan)
    outside = np.isnan(est).any(axis=-1)
    if np.any(outside):
        est[outside] = griddata(points, values, holes[outside], method="nearest")
    out[missing] = est
    return out
