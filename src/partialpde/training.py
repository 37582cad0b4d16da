"""Mask-to-predict training: one-step supervised loss on observed points,
artificial-mask input augmentation with a consistency term, AdamW, and a
one-cycle learning-rate schedule.

The ablation and train/test-rate matrix harnesses (`ablate`, `bench_matrix`)
live here too: each of their runs is one `train_on_splits` call with a
`MaskSpec` and a `TrainConfig`, scored on the test split by
`evaluation.evaluate`.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import evaluation as ev
from . import masking as mk
from . import model as md
from . import pdegen as pg
from . import tensor as T
from .tensor import Tensor


# one-cycle schedule: warmup share of the steps, and the start and end learning
# rates as divisors of the peak
PEAK_FRACTION = 0.3
DIV_FACTOR = 25.0
FINAL_DIV_FACTOR = 1e4
# AdamW moment decay rates and denominator floor
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDiverged(RuntimeError):
    def __init__(self, what: str):
        super().__init__(f"training diverged: {what}")


@dataclass
class MaskSpec:
    pattern: str = mk.PATCHWISE
    missing_rate: float = 0.25
    patch_size: int = 4

    def generate(self, h: int, w: int, seed: int) -> mk.ObservationMask:
        return mk.gen_mask(self.pattern, h, w, self.missing_rate, seed,
                           patch_size=self.patch_size)


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3          # one-cycle peak
    weight_decay: float = 1e-4
    epochs: int = 100
    batch_size: int = 16
    mpt_enabled: bool = True             # artificial rate uniform in [0, missing_rate]
    consistency_weight: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.learning_rate, self.weight_decay,
                                       self.consistency_weight))):
            raise ValueError("learning_rate, weight_decay and consistency_weight "
                             "must be finite")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.consistency_weight < 0:
            raise ValueError("consistency_weight must be >= 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")


# -- losses ---------------------------------------------------------------------

def masked_one_step_loss(pred: Tensor, target: np.ndarray,
                         mask: np.ndarray) -> Tensor:
    """Mean squared error restricted to observed points.

    pred: (B, H, W, C) tensor; target alike; mask (B, H, W).  Ground truth
    exists only on the observed set, so unobserved residuals carry no
    gradient.  Per-sample means (over observed points and channels) are
    averaged over the batch.
    """
    b, h, w, c = pred.shape
    mask = np.asarray(mask, dtype=pred.dtype).reshape(b, h, w)
    counts = mask.sum(axis=(1, 2))
    if np.any(counts == 0):
        raise ValueError("mask has no observed points; loss undefined")
    diff = pred - np.asarray(target, dtype=pred.dtype)
    masked = diff * mask[..., None]
    per_sample = (masked * masked).sum(axis=(1, 2, 3))
    scale = (1.0 / (counts * c)).astype(pred.dtype)
    return (per_sample * scale).mean()


def consistency_loss(pred_clean: Tensor, pred_masked: Tensor) -> Tensor:
    """Full-domain mean squared gap between the two prediction branches.

    The clean branch is a fixed target: only its values are read, so
    gradient flows only through the masked-input branch.  `_train_step`
    computes it before the tape opens, so its forward records nothing.
    """
    diff = pred_masked - pred_clean.data
    return (diff * diff).mean()


# -- optimizer -------------------------------------------------------------------

@dataclass
class TrainState:
    params: md.ModelParams
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0

    def __post_init__(self):
        for name, t in self.params.items():
            self.m.setdefault(name, np.zeros_like(t.data))
            self.v.setdefault(name, np.zeros_like(t.data))


def adamw_step(state: TrainState, grads: dict, lr: float,
               cfg: TrainConfig) -> TrainState:
    """Bias-corrected Adam moments with decoupled weight decay.

    Each parameter keeps its dtype: the gradient is cast to it, the moments
    and the updated values stay in it, and `lr` enters as a Python float,
    so a float32 run stays float32 whatever the dtypes of `lr` and `grads`.
    """
    lr = float(lr)
    state.step += 1
    t = state.step
    b1, b2 = BETA1, BETA2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for name, p in state.params.items():
        g = grads.get(name)
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient in {name}")
        g = np.asarray(g, dtype=p.data.dtype)
        m = state.m[name] = b1 * state.m[name] + (1 - b1) * g
        v = state.v[name] = b2 * state.v[name] + (1 - b2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p.data = p.data - lr * update - lr * cfg.weight_decay * p.data
    return state


def one_cycle_lr(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Cosine warmup to the peak, cosine anneal to the floor; continuous."""
    if total_steps <= 0 or step >= total_steps:
        raise ValueError("step must lie inside [0, total_steps)")
    peak = cfg.learning_rate
    initial = peak / DIV_FACTOR
    final = peak / FINAL_DIV_FACTOR
    t_peak = int(round(PEAK_FRACTION * (total_steps - 1)))
    t_peak = min(max(t_peak, 0), total_steps - 1)
    if step <= t_peak:
        frac = 1.0 if t_peak == 0 else step / t_peak
        return initial + (peak - initial) * 0.5 * (1 - math.cos(math.pi * frac))
    frac = (step - t_peak) / max(total_steps - 1 - t_peak, 1)
    return final + (peak - final) * 0.5 * (1 + math.cos(math.pi * frac))


# -- batching ---------------------------------------------------------------------

def make_pairs(n_traj: int, t_all: int, history: int):
    """(trajectory, target_index) rolling windows; one pair per window."""
    if t_all < history + 1:
        raise ValueError(f"need t_all >= history+1, got {t_all} vs {history}+1")
    return [(j, i) for j in range(n_traj) for i in range(history, t_all)]


def assemble_batch(trajs, pairs, history):
    frames = np.stack([trajs[j].frames[i - history:i] for j, i in pairs])
    targets = np.stack([trajs[j].frames[i] for j, i in pairs])
    return frames, targets


@dataclass
class TrainResult:
    checkpoint_path: Path
    metrics_path: Path
    best_val: float
    final_val: float


def train_on_splits(splits: dict, grid_hw: tuple, mask_spec: MaskSpec,
                    model_cfg: md.ModelConfig, train_cfg: TrainConfig,
                    out_dir) -> TrainResult:
    """Core MPT loop over in-memory trajectory splits.

    Every trajectory carries its own observation mask (seeded from the run
    seed and trajectory index).  Per step the input is further occluded by
    a fresh artificial mask; supervision stays on the trajectory mask.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    gh, gw = grid_hw
    train = splits.get("train")
    val = splits.get("val") or []      # never the test split
    if not train:
        raise ValueError("empty training split")
    # train trajectories share train[0]'s (T, H, W, C), val ones its (H, W, C)
    for split, trajs, dims in (("train", train, slice(0, 4)), ("val", val, slice(1, 4))):
        for j, traj in enumerate(trajs):
            h, w = traj.frames.shape[1:3]
            if (h, w) != (gh, gw):
                raise ValueError(f"{split} trajectory {j} is on a {h}x{w} grid, "
                                 f"grid_hw is {gh}x{gw}")
            got, want = traj.frames.shape[dims], train[0].frames.shape[dims]
            if got != want:
                raise ValueError(f"{split} trajectory {j} has frames of shape {got}, "
                                 f"train trajectory 0 has {want}")

    history = model_cfg.history
    t_all = train[0].t_all
    pairs = make_pairs(len(train), t_all, history)
    coords = pg.GridGeometry(gh, gw).coords()

    train_masks = [mask_spec.generate(gh, gw, mk.derived_seed(train_cfg.seed, 1, j))
                   for j in range(len(train))]
    val_masks = np.stack([
        mask_spec.generate(gh, gw, mk.derived_seed(train_cfg.seed, 2, j)).grid
        for j in range(len(val))]) if val else None

    params = md.ModelParams(model_cfg, seed=mk.derived_seed(train_cfg.seed, 0))
    state = TrainState(params)
    rng = np.random.default_rng(mk.derived_seed(train_cfg.seed, 3))

    steps_per_epoch = max(1, int(np.ceil(len(pairs) / train_cfg.batch_size)))
    total_steps = steps_per_epoch * train_cfg.epochs

    ckpt_path = out / "model.pobw"
    metrics_path = out / "metrics.csv"
    best_val = np.inf
    final_val = np.inf
    t0 = time.perf_counter()
    rows = []
    step = 0
    try:
        for epoch in range(train_cfg.epochs):
            order = rng.permutation(len(pairs))
            epoch_losses = []
            for start in range(0, len(pairs), train_cfg.batch_size):
                batch_idx = order[start:start + train_cfg.batch_size]
                batch_pairs = [pairs[i] for i in batch_idx]
                frames, targets = assemble_batch(train, batch_pairs, history)
                lr = one_cycle_lr(step, total_steps, train_cfg)
                loss_val = _train_step(params, state, coords, frames, targets,
                                       [train_masks[j] for j, _ in batch_pairs],
                                       train_cfg, rng, lr)
                if not np.isfinite(loss_val):
                    raise TrainingDiverged(f"loss became {loss_val} at step {step}")
                epoch_losses.append(loss_val)
                step += 1

            val_err = float("nan")
            if val:
                val_err = float(np.mean(ev.trajectory_errors(params, val, val_masks)))
            final_val = val_err
            if not val or val_err <= best_val:
                best_val = val_err if val else float("nan")
                md.save_checkpoint(params, ckpt_path)
            rows.append({
                "epoch": epoch, "step": step,
                "lr": repr(float(lr)),
                "train_loss": repr(float(np.mean(epoch_losses))),
                "val_rel_l2": repr(float(val_err)),
                "wall_seconds": repr(time.perf_counter() - t0),
            })
    finally:
        # the last good checkpoint survives a divergence abort
        with open(metrics_path, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=[
                "epoch", "step", "lr", "train_loss", "val_rel_l2", "wall_seconds"])
            writer.writeheader()
            writer.writerows(rows)

    if not ckpt_path.exists():
        md.save_checkpoint(params, ckpt_path)
    return TrainResult(ckpt_path, metrics_path, float(best_val), float(final_val))


def _train_step(params, state, coords, frames, targets, mask_objs,
                cfg: TrainConfig, rng, lr) -> float:
    masks = np.stack([m.grid for m in mask_objs])
    if cfg.mpt_enabled:
        aug = np.empty_like(masks)
        for i, m in enumerate(mask_objs):
            rate = rng.uniform(0, m.missing_rate)
            m_aug, _ = mk.mpt_augment(m, rate, seed=int(rng.integers(2 ** 32)))
            # an augmentation that hides every observed cell leaves nothing
            # to encode: that sample keeps its own mask for this step
            aug[i] = m_aug.grid if m_aug.grid.any() else m.grid
    else:
        aug = masks

    lam = cfg.consistency_weight
    consistency = cfg.mpt_enabled and lam > 0
    # the clean forward is only a consistency target: run it before the tape
    clean = md.lano_forward(coords, frames, masks, params) if consistency else None
    with T.tape():
        pred = md.lano_forward(coords, frames, aug, params)
        loss = masked_one_step_loss(pred, targets, masks)
        if consistency:
            loss = loss + consistency_loss(clean, pred) * lam
        grads_by_tensor = T.backward(loss)
    grads = {name: grads_by_tensor[t] for name, t in params.items()
             if t in grads_by_tensor}
    adamw_step(state, grads, lr, cfg)
    return float(loss.data)


# -- ablations and the rate matrix ---------------------------------------------------

ABLATION_AXES = ("tokens", "components", "mixer")
TOKEN_SWEEP = (1, 8, 16, 32, 64)
RATE_MATRIX = ((0.05, (0.05, 0.25)), (0.25, (0.25, 0.50)), (0.50, (0.50, 0.75)))
# every harness run scores the test split under the same seeded masks
HARNESS_TEST_SEED = 1234


def _train_and_eval(splits, grid_hw, model_cfg, mask_spec: MaskSpec,
                    train_cfg: TrainConfig, out_dir, test_rates) -> list:
    test = splits.get("test")
    if not test:
        # validation chose the checkpoint, so it cannot also score it
        raise ev.EvalError("the harness scores on the 'test' split, "
                           "and the dataset has none")
    res = train_on_splits(splits, grid_hw, mask_spec, model_cfg, train_cfg, out_dir)
    params = md.load_checkpoint(res.checkpoint_path)
    return ev.evaluate(params, test, mask_spec.pattern, test_rates,
                       mask_spec.patch_size, seed=HARNESS_TEST_SEED)


def ablate(splits, grid_hw, base_cfg: md.ModelConfig, axis: str,
           mask_spec: MaskSpec, train_cfg: TrainConfig, out_dir,
           token_sweep=None) -> list:
    """Train/evaluate one configuration per point on the requested axis."""
    if axis not in ABLATION_AXES:
        raise ev.EvalError(f"unknown ablation axis {axis!r}; "
                           f"choose from {ABLATION_AXES}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if axis == "tokens":
        variants = [(f"tokens_{n}", replace(base_cfg, latent_tokens=n), train_cfg)
                    for n in (token_sweep or TOKEN_SWEEP)]
    elif axis == "components":
        variants = [
            ("full", base_cfg, train_cfg),
            ("wo_bf", replace(base_cfg, boundary_first=False), train_cfg),
            ("wo_tm", replace(base_cfg, token_mixer="none"), train_cfg),
            ("wo_mpt", base_cfg, replace(train_cfg, mpt_enabled=False)),
        ]
    else:
        variants = [(f"mixer_{m}", replace(base_cfg, token_mixer=m), train_cfg)
                    for m in ("mlp", "attention")]

    rows = []
    for name, cfg, tcfg in variants:
        row, = _train_and_eval(splits, grid_hw, cfg, mask_spec, tcfg, out / name,
                               [mask_spec.missing_rate])
        rows.append({**row, "variant": name})
    ev.write_rows(out / "ablation.csv", rows)
    return rows


def bench_matrix(splits, grid_hw, base_cfg: md.ModelConfig, mask_spec: MaskSpec,
                 train_cfg: TrainConfig, out_dir) -> list:
    """The train/test rate grid: three train rates, each tested at its own
    rate and one step higher, for both missing patterns (12 cells).  Only the
    patch size of `mask_spec` is used."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for pattern in (mk.POINTWISE, mk.PATCHWISE):
        for train_rate, test_rates in RATE_MATRIX:
            spec = replace(mask_spec, pattern=pattern, missing_rate=train_rate)
            tag = f"{pattern}_{int(train_rate * 100):02d}"
            rows += [{**r, "train_rate": train_rate}
                     for r in _train_and_eval(splits, grid_hw, base_cfg, spec,
                                              train_cfg, out / tag, test_rates)]
    ev.write_rows(out / "bench_matrix.csv", rows)
    return rows
