"""The benchmark's three workloads.

Each workload drives public functions of partialpde only.  The workload seed
makes the inputs: PDE trajectories and, for inference, the observation
masks.  The model and training recipe (weight init, training masks, MPT
draws, shuffling) use the fixed RECIPE_SEED, like the layer sizes: with the
recipe seed following the workload seed, val_rel_l2 after one epoch ranged
from 0.60 to 1.06 over five seeds and the float32-vs-float64 error varied
tenfold, while with only the data varying they stayed within a few percent.

An operation is one training run, one inference request or one data
generation round (one trajectory of each PDE, written and read back).
Failures the program signals for bad inputs or diverging numerics are
counted per operation and do not stop the run.
"""

from __future__ import annotations

import csv
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from partialpde import evaluation as ev
from partialpde import masking as mk
from partialpde import model as md
from partialpde import pdegen as pg
from partialpde import tensor as T
from partialpde import training as tr

RECIPE_SEED = 0
FAILURES = (md.DegenerateMaskError, tr.TrainingDiverged, pg.SolverDiverged,
            pg.DataFormatError, md.CheckpointError)

# float32 inference against a float64 re-run of the same request; observed
# errors at the full size are about 2e-6.
F64_REL_TOL = 1e-4


def derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass
class Op:
    """One timed operation: `items` units of work in `seconds` of wall time."""
    seconds: float
    items: int
    attempted: int
    failed: int = 0
    error: str = ""
    info: dict = field(default_factory=dict)


def tail_percentile(values):
    """(value, percentile): the highest percentile with at least ten samples
    above it; the maximum while fewer than twenty samples exist, so the tail
    never reads below the median."""
    xs = sorted(values)
    n = len(xs)
    k = n - 10
    if k < math.ceil(n / 2):
        return xs[-1], 100.0
    return xs[k - 1], 100.0 * k / n


# -- train-ns32-patch ---------------------------------------------------------------

class TrainWorkload:
    """MPT training with `train_on_splits` on Navier-Stokes trajectories."""

    name = "train-ns32-patch"
    op_name = "training run"
    aliases = {"work_per_s": "train_samples_per_s", "rel_l2_err": "val_rel_l2"}
    sizes = {
        "full": dict(grid=32, frames=20, n_train=8, n_val=4, epochs=1, batch=8,
                     model=dict(layers=4, channels=32, heads=4, latent_tokens=16,
                                history=10)),
        "tiny": dict(grid=16, frames=6, n_train=2, n_val=1, epochs=1, batch=4,
                     model=dict(layers=1, channels=8, heads=2, latent_tokens=4,
                                history=3)),
    }
    dt = 0.2

    def __init__(self, seed: int, size: str, work_dir: Path):
        self.seed = seed
        self.s = self.sizes[size]
        self.work_dir = work_dir
        self.model_cfg = md.ModelConfig(**self.s["model"])
        self.mask_spec = tr.MaskSpec(mk.PATCHWISE, 0.25, 4)
        self.train_cfg = tr.TrainConfig(epochs=self.s["epochs"],
                                        batch_size=self.s["batch"], mpt_enabled=True,
                                        consistency_weight=0.1, seed=RECIPE_SEED)
        self.samples = self.s["epochs"] * self.s["n_train"] * (
            self.s["frames"] - self.model_cfg.history)

    def setup(self):
        g = pg.GridGeometry(self.s["grid"], self.s["grid"])
        n = self.s["n_train"] + self.s["n_val"]
        trajs = [pg.solve_navier_stokes(g, derive_seed(self.seed, 1, i),
                                        self.s["frames"], self.dt) for i in range(n)]
        self.splits = {"train": trajs[:self.s["n_train"]],
                       "val": trajs[self.s["n_train"]:]}

    def warmup(self):
        """One training step and one validation forward on a cut trajectory."""
        t = self.splits["train"][0]
        short = pg.Trajectory(t.frames[:self.model_cfg.history + 2], t.dt,
                              t.pde_kind, t.seed)
        tr.train_on_splits({"train": [short], "val": [short]}, self._grid_hw(),
                           self.mask_spec, self.model_cfg, self.train_cfg,
                           self.work_dir / "warmup")

    def _grid_hw(self):
        return (self.s["grid"], self.s["grid"])

    def run_op(self, i: int) -> Op:
        out_dir = self.work_dir / f"train-run{i}"
        t0 = time.perf_counter()
        try:
            res = tr.train_on_splits(self.splits, self._grid_hw(), self.mask_spec,
                                     self.model_cfg, self.train_cfg, out_dir)
        except FAILURES as e:
            return Op(time.perf_counter() - t0, 0, 1, 1, type(e).__name__)
        secs = time.perf_counter() - t0
        with open(res.metrics_path, newline="") as f:
            last = list(csv.DictReader(f))[-1]
        return Op(secs, self.samples, 1, info={
            "val_rel_l2": res.final_val, "train_loss": float(last["train_loss"]),
            "checkpoint": res.checkpoint_path})

    def check(self, ops):
        """Gates: finite quality, identical results for identical inputs, and a
        bit-exact checkpoint round trip.  Returns (failures, extras); extras
        carry rel_l2_err and rows for the printed table."""
        bad = []
        done = [op for op in ops if not op.failed]
        if not done:
            return ["no training run completed"], {}
        vals = {op.info["val_rel_l2"] for op in done}
        losses = {op.info["train_loss"] for op in done}
        extras = {"rel_l2_err": done[0].info["val_rel_l2"],
                  "rows": [("train_final_loss", done[0].info["train_loss"], "mse",
                            "last-epoch mean training loss")]}
        if not all(math.isfinite(v) for v in vals | losses):
            bad.append(f"non-finite val_rel_l2 {vals} or loss {losses}")
        if len(vals) != 1 or len(losses) != 1:
            bad.append(f"same inputs gave different results: {vals} {losses}")
        ckpt = done[-1].info["checkpoint"]
        params = md.load_checkpoint(ckpt)
        resaved = self.work_dir / "resaved.pobw"
        md.save_checkpoint(params, resaved)
        if resaved.read_bytes() != Path(ckpt).read_bytes():
            bad.append("checkpoint does not round-trip bit-exactly")
        if params.count() != md.count_parameters(self.model_cfg):
            bad.append("checkpoint parameter count differs from the config")
        if not all(np.all(np.isfinite(t.data)) for t in params.tensors()):
            bad.append("checkpoint holds non-finite parameters")
        return bad, extras


# -- infer-ns64-point -----------------------------------------------------------------

class InferWorkload:
    """Closed-loop one-client inference through `predict_batch`."""

    name = "infer-ns64-point"
    op_name = "request"
    aliases = {"work_per_s": "infer_frames_per_s", "op_p50_s": "infer_latency_p50_s",
               "op_tail_s": "infer_latency_tail_s", "rel_l2_err": "infer_rel_err_vs_f64"}
    sizes = {
        "full": dict(grid=64, pool=6, masks=24, f64_reruns=24, model={}),
        "tiny": dict(grid=16, pool=2, masks=3, f64_reruns=3,
                     model=dict(layers=2, channels=8, heads=2, latent_tokens=4,
                                history=3)),
    }
    rates = (0.05, 0.25, 0.50)
    dt = 0.2

    def __init__(self, seed: int, size: str, work_dir: Path, degenerate_every: int = 0):
        self.seed = seed
        self.s = self.sizes[size]
        self.work_dir = work_dir
        self.cfg = md.ModelConfig(**self.s["model"])
        # every k-th request gets an all-zero mask (self-test hook; 0 = never)
        self.degenerate_every = degenerate_every
        self.checkpoint = work_dir / "infer.pobw"
        self.kept = {}

    def setup(self):
        n = self.s["grid"]
        g = pg.GridGeometry(n, n)
        self.trajs = [pg.solve_navier_stokes(g, derive_seed(self.seed, 2, i),
                                             self.cfg.history + 1, self.dt)
                      for i in range(self.s["pool"])]
        self.masks = [mk.gen_mask(mk.POINTWISE, n, n, self.rates[j % 3],
                                  derive_seed(self.seed, 3, j)).grid
                      for j in range(self.s["masks"])]
        params = md.ModelParams(self.cfg, seed=RECIPE_SEED)
        # merge weights start at zero, which would leave the attention path
        # out of the prediction; give them a seeded fan-in init instead
        rng = np.random.default_rng(RECIPE_SEED)
        bound = 1.0 / np.sqrt(self.cfg.channels)
        for name in params.names():
            if name.endswith(".merge_w"):
                t = params[name]
                t.data = rng.uniform(-bound, bound, t.shape).astype(t.dtype)
        md.save_checkpoint(params, self.checkpoint)
        self.params = md.load_checkpoint(self.checkpoint)

    def warmup(self):
        ev.predict_batch(self.params, self.trajs[:1], self.masks[0][None])

    def _request(self, i: int):
        traj = self.trajs[i % len(self.trajs)]
        mask = self.masks[i % len(self.masks)]
        if self.degenerate_every and i % self.degenerate_every == self.degenerate_every - 1:
            mask = np.zeros_like(mask)
        return traj, mask[None]

    def run_op(self, i: int) -> Op:
        traj, mask = self._request(i)
        t0 = time.perf_counter()
        try:
            pred, truth = ev.predict_batch(self.params, [traj], mask)
            ev.relative_l2(pred, truth)      # the request scores its prediction
        except FAILURES as e:
            return Op(time.perf_counter() - t0, 0, 1, 1, type(e).__name__)
        secs = time.perf_counter() - t0
        n = self.s["grid"]
        ok = pred.shape == (1, n, n, self.cfg.phys_channels) and bool(
            np.all(np.isfinite(pred)))
        if len(self.kept) < self.s["f64_reruns"]:
            self.kept[i] = pred
        return Op(secs, pred.shape[0], 1, info={"ok": ok})

    def check(self, ops):
        """Gates: every prediction finite and of the right shape; the first
        completed requests re-run at float64 agree within F64_REL_TOL."""
        bad = [f"request {i}: non-finite or misshapen prediction"
               for i, op in enumerate(ops) if not op.failed and not op.info["ok"]]
        if not self.kept:
            return bad + ["no request completed"], {}
        errs = []
        with T.precision(np.float64):
            p64 = self.params.astype(np.float64)
            for i, pred in self.kept.items():
                traj, mask = self._request(i)
                pred64, _ = ev.predict_batch(p64, [traj], mask)
                errs.append(ev.relative_l2(pred, pred64))
        if not max(errs) < F64_REL_TOL:
            bad.append(f"float32 vs float64 relative error {max(errs):.3g} "
                       f">= {F64_REL_TOL}")
        # the median: a few requests amplify rounding several times more
        return bad, {"rel_l2_err": statistics.median(errs)}


# -- datagen-64 -----------------------------------------------------------------------

class DatagenWorkload:
    """`generate_dataset` for both PDEs, then `read_dataset` back."""

    name = "datagen-64"
    op_name = "round"
    aliases = {"work_per_s": "datagen_traj_per_s",
               "rel_l2_err": "datagen_storage_rel_err_vs_f64"}
    sizes = {"full": dict(grid=64, frames=20), "tiny": dict(grid=16, frames=4)}
    kinds = (pg.NAVIER_STOKES, pg.DIFFUSION_REACTION)
    dt = 0.2

    def __init__(self, seed: int, size: str, work_dir: Path):
        self.seed = seed
        self.s = self.sizes[size]
        self.work_dir = work_dir
        self.grid = pg.GridGeometry(self.s["grid"], self.s["grid"])
        self.first = {}            # frames read back in round 0
        self.last = (0, {})        # (round index, frames) of the latest round

    def setup(self):
        """Inputs are seeds only; nothing to prepare."""

    def warmup(self):
        self._round(0, 2, "warmup")
        self._clean("warmup")

    def _round(self, r: int, frames: int, tag):
        """Generate one trajectory of each PDE and read both back."""
        out, failed, error = {}, 0, ""
        for k, kind in enumerate(self.kinds):
            d = self.work_dir / f"round-{tag}-{kind}"
            try:
                pg.generate_dataset(kind, self.grid, {"train": 1}, frames, self.dt,
                                    derive_seed(self.seed, 4, k, r), d)
                _, splits = pg.read_dataset(d)
                out[kind] = splits["train"][0].frames
            except FAILURES as e:
                failed, error = failed + 1, type(e).__name__
        return out, failed, error

    def run_op(self, i: int) -> Op:
        t0 = time.perf_counter()
        out, failed, error = self._round(i, self.s["frames"], i)
        secs = time.perf_counter() - t0
        want = (self.s["frames"], self.s["grid"], self.s["grid"])
        ok = all(f.shape[:3] == want and np.all(np.isfinite(f)) for f in out.values())
        if i == 0:
            self.first = out
        self.last = (i, out)
        self._clean(i)
        return Op(secs, len(out), len(self.kinds), failed, error, info={"ok": ok})

    def _clean(self, tag):
        for d in self.work_dir.glob(f"round-{tag}-*"):
            shutil.rmtree(d)

    def check(self, ops):
        """Gates: frames read back are bit-equal to a fresh solve of the same
        seed (first and last round).  Also reports the float32 storage error
        against the float64 solution."""
        bad = [f"round {i}: misshapen or non-finite frames read back"
               for i, op in enumerate(ops) if not op.info["ok"]]
        solvers = {pg.NAVIER_STOKES: pg.solve_navier_stokes,
                   pg.DIFFUSION_REACTION: pg.solve_diffusion_reaction}
        errs = []
        for r, out in dict([(0, self.first), self.last]).items():
            for k, kind in enumerate(self.kinds):
                if kind not in out:
                    continue
                exact = solvers[kind](self.grid, derive_seed(self.seed, 4, k, r),
                                      self.s["frames"], self.dt, dtype=np.float64)
                got = out[kind]
                if not np.array_equal(got, exact.frames.astype(np.float32)):
                    bad.append(f"round {r} {kind}: frames read back differ from solve")
                errs.append(float(np.linalg.norm(got - exact.frames)
                                  / np.linalg.norm(exact.frames)))
        if not errs:
            bad.append("no trajectory generated")
            return bad, {}
        return bad, {"rel_l2_err": float(np.mean(errs))}


WORKLOADS = {w.name: w for w in (TrainWorkload, InferWorkload, DatagenWorkload)}
