"""Evaluation metrics and protocol: relative L2, masked one-step evaluation
over rate/pattern grids, ablation and train/test-rate matrix harnesses, and
the cubic interpolation-fill reference mode.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import masking as mk
from . import model as md
from . import pdegen as pg


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


@dataclass
class EvalReport:
    rows: list = field(default_factory=list)
    config_fingerprint: str = ""

    def to_csv(self, path) -> None:
        fields = ["pattern", "test_rate", "patch_size", "mean_rel_l2",
                  "std_rel_l2", "n_samples", "config_fingerprint"]
        with open(path, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=fields)
            w.writeheader()
            for r in self.rows:
                w.writerow({**r, "config_fingerprint": self.config_fingerprint})


def config_fingerprint(cfg: md.ModelConfig) -> str:
    return hashlib.sha256(md.config_to_text(cfg).encode()).hexdigest()[:12]


def _first_window_batch(trajs, history):
    frames = np.stack([t.frames[:history] for t in trajs]).astype(np.float32)
    truths = np.stack([t.frames[history] for t in trajs]).astype(np.float32)
    return frames, truths


def predict_batch(params: md.ModelParams, trajs, masks: np.ndarray):
    """One-step predictions from the first window of each trajectory."""
    history = params.config.history
    frames, truths = _first_window_batch(trajs, history)
    coords = pg.GridGeometry(*frames.shape[2:4]).coords()
    pred = md.lano_forward(coords, frames, masks.astype(np.float32), params)
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
             patch_size: int = 4, seed: int = 0) -> EvalReport:
    """Fresh seeded masks per (rate, trajectory); full-domain relative L2.

    One row per requested test rate; rows carry the mean and per-trajectory
    spread of the error.
    """
    if not trajs:
        raise EvalError("no trajectories to evaluate")
    _, h, w, _ = trajs[0].frames.shape
    report = EvalReport(config_fingerprint=config_fingerprint(params.config))
    for ri, rate in enumerate(test_rates):
        masks = np.stack([
            mk.gen_mask(pattern, h, w, rate,
                        seed=mk.derived_seed(seed, ri, j), patch_size=patch_size).grid
            for j in range(len(trajs))])
        errs = trajectory_errors(params, trajs, masks)
        report.rows.append({
            "pattern": pattern,
            "test_rate": rate,
            "patch_size": patch_size if pattern == mk.PATCHWISE else 0,
            "mean_rel_l2": float(np.mean(errs)),
            "std_rel_l2": float(np.std(errs)),
            "n_samples": len(errs),
        })
    return report


def evaluate_checkpoint(checkpoint_path, dataset, pattern, test_rates,
                        patch_size: int = 4, seed: int = 0,
                        split: str = "test") -> EvalReport:
    params = md.load_checkpoint(checkpoint_path)
    _, splits = pg.read_dataset(dataset)
    trajs = splits.get(split)
    if not trajs:
        raise EvalError(f"dataset has no trajectories in split '{split}'")
    return evaluate(params, trajs, pattern, test_rates, patch_size, seed)


# -- cubic interpolation fill -----------------------------------------------------
# scipy.interpolate and scipy.ndimage are slow to import and only this
# baseline needs them, so the functions below import them on first use.

def _fill_axis(field2d: np.ndarray, observed: np.ndarray, axis: int) -> np.ndarray:
    """1D spline fill along rows (axis=1) or columns (axis=0); NaN elsewhere."""
    from scipy.interpolate import InterpolatedUnivariateSpline

    out = np.full(field2d.shape, np.nan)
    f = field2d if axis == 1 else field2d.T
    obs = observed if axis == 1 else observed.T
    o = out if axis == 1 else out.T
    n = f.shape[1]
    xs = np.arange(n)
    for r in range(f.shape[0]):
        idx = xs[obs[r]]
        if idx.size < 2:
            continue
        k = min(3, idx.size - 1)
        spline = InterpolatedUnivariateSpline(idx, f[r, obs[r]], k=k)
        lo, hi = idx[0], idx[-1]
        inside = (xs >= lo) & (xs <= hi)
        o[r, inside] = spline(xs[inside])
    return out


def _nearest_fill(field2d: np.ndarray, observed: np.ndarray) -> np.ndarray:
    from scipy import ndimage

    _, (iy, ix) = ndimage.distance_transform_edt(~observed, return_indices=True)
    return field2d[iy, ix]


def interp_fill_baseline(frames: np.ndarray, m) -> np.ndarray:
    """Complete unobserved cells by separable cubic interpolation.

    Row-wise then column-wise natural splines inside the observed hull are
    averaged; cells neither pass reaches (large holes, hull exterior) fall
    back to the nearest observed value.  Reference mode for interp-then-train
    pipelines; needs at least 4 observed points.
    """
    grid = m.grid if isinstance(m, mk.ObservationMask) else np.asarray(m)
    observed = grid.astype(bool)
    if observed.sum() < 4:
        raise EvalError("interpolation fill needs >= 4 observed points")
    frames = np.asarray(frames, dtype=np.float64)
    single = frames.ndim == 3
    work = frames[None] if single else frames
    if np.all(observed):
        return frames.copy()

    out = work.copy()
    for t in range(work.shape[0]):
        for c in range(work.shape[-1]):
            f = work[t, ..., c]
            rows = _fill_axis(f, observed, axis=1)
            cols = _fill_axis(f, observed, axis=0)
            both = np.stack([rows, cols])
            with np.errstate(invalid="ignore"):
                est = np.nanmean(both, axis=0)
            missing = ~observed
            still = missing & np.isnan(est)
            if np.any(still):
                est[still] = _nearest_fill(f, observed)[still]
            g = f.copy()
            g[missing] = est[missing]
            out[t, ..., c] = g
    return out[0] if single else out


# -- ablations and the rate matrix ---------------------------------------------------

ABLATION_AXES = ("tokens", "components", "mixer")
TOKEN_SWEEP = (1, 8, 16, 32, 64)


@dataclass
class Protocol:
    """Fixed desk-scale training protocol for harness runs."""
    pattern: str = mk.POINTWISE
    rate: float = 0.25
    patch_size: int = 4
    epochs: int = 40
    batch_size: int = 32
    seed: int = 0
    test_seed: int = 1234


def _train_and_eval(splits, grid_hw, model_cfg, protocol, out_dir,
                    mpt_enabled=True, test_rates=None):
    from . import training as tr
    spec = tr.MaskSpec(protocol.pattern, protocol.rate, protocol.patch_size)
    tcfg = tr.TrainConfig(epochs=protocol.epochs, batch_size=protocol.batch_size,
                          seed=protocol.seed, mpt_enabled=mpt_enabled,
                          consistency_weight=0.1 if mpt_enabled else 0.0)
    res = tr.train_on_splits(splits, grid_hw, spec, model_cfg, tcfg, out_dir)
    params = md.load_checkpoint(res.checkpoint_path)
    rates = test_rates if test_rates is not None else [protocol.rate]
    trajs = splits.get("test") or splits.get("val")
    report = evaluate(params, trajs, protocol.pattern, rates,
                      protocol.patch_size, seed=protocol.test_seed)
    return res, report


def ablate(splits, grid_hw, base_cfg: md.ModelConfig, axis: str,
           protocol: Protocol, out_dir, token_sweep=None) -> list:
    """Train/evaluate one configuration per point on the requested axis."""
    if axis not in ABLATION_AXES:
        raise EvalError(f"unknown ablation axis {axis!r}; "
                        f"choose from {ABLATION_AXES}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    variants = []
    if axis == "tokens":
        for n in (token_sweep or TOKEN_SWEEP):
            variants.append((f"tokens_{n}", replace(base_cfg, latent_tokens=n), True))
    elif axis == "components":
        variants = [
            ("full", base_cfg, True),
            ("wo_bf", replace(base_cfg, boundary_first=False), True),
            ("wo_tm", replace(base_cfg, token_mixer="none"), True),
            ("wo_mpt", base_cfg, False),
        ]
    else:
        variants = [("mixer_mlp", replace(base_cfg, token_mixer="mlp"), True),
                    ("mixer_attention", replace(base_cfg, token_mixer="attention"),
                     True)]

    rows = []
    for name, cfg, mpt in variants:
        _, report = _train_and_eval(splits, grid_hw, cfg, protocol,
                                    out / name, mpt_enabled=mpt)
        row = dict(report.rows[0])
        row["variant"] = name
        row["config_fingerprint"] = report.config_fingerprint
        rows.append(row)
    _write_rows(out / "ablation.csv", rows)
    return rows


RATE_MATRIX = ((0.05, (0.05, 0.25)), (0.25, (0.25, 0.50)), (0.50, (0.50, 0.75)))


def bench_matrix(splits, grid_hw, base_cfg: md.ModelConfig, protocol: Protocol,
                 out_dir) -> list:
    """The train/test rate grid: three train rates, each tested at its own
    rate and one step higher, for both missing patterns (12 cells)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for pattern in (mk.POINTWISE, mk.PATCHWISE):
        for train_rate, test_rates in RATE_MATRIX:
            proto = replace(protocol, pattern=pattern, rate=train_rate)
            tag = f"{pattern}_{int(train_rate * 100):02d}"
            _, report = _train_and_eval(splits, grid_hw, base_cfg, proto,
                                        out / tag, test_rates=list(test_rates))
            for r in report.rows:
                row = dict(r)
                row["train_rate"] = train_rate
                row["config_fingerprint"] = report.config_fingerprint
                rows.append(row)
    _write_rows(out / "bench_matrix.csv", rows)
    return rows


def _write_rows(path, rows) -> None:
    if not rows:
        return
    fields = sorted({k for r in rows for k in r})
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=fields)
        w.writeheader()
        w.writerows(rows)
