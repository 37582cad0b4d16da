"""Span tracing for the benchmark's traced run, and the per-layer metrics
derived from the spans.

The tracer replaces public functions of the partialpde modules by wrappers
that record a span around each call.  Internal calls look their callees up
through module globals (``T.matmul``, ``md.phca_encode``, ``tr.adamw_step``,
``add`` inside ``tensor``), so the wrappers see them without any change to
the program; ``uninstall`` restores every original.

Spans are kept in memory as ``[name, start, end, parent, trace, phase]``
lists and written out once, after the run.  A span's parent is the span open
when it started; spans of one inference request, training step or data
generation round share a trace id.  Counts that are derived from argument
shapes (flops, bytes, substeps) are labelled "computed": they repeat exactly
for a given seed and describe the work asked for, not time spent.
"""

from __future__ import annotations

import csv
import functools
import math
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from partialpde import evaluation as ev
from partialpde import masking as mk
from partialpde import model as md
from partialpde import pdegen as pg
from partialpde import tensor as T
from partialpde import training as tr

TENSOR_OPS = ("matmul", "softmax", "gelu", "layernorm", "depthwise_conv2d",
              "add", "mul", "backward")
MODEL_FNS = ("temporal_aggregate", "phca_encode", "pconv_propagate", "token_mix",
             "phca_decode", "latent_operator_layer")
TRAINING_FNS = ("assemble_batch", "adamw_step", "masked_one_step_loss",
                "consistency_loss")
PDEGEN_FNS = ("solve_navier_stokes", "solve_diffusion_reaction",
              "write_trajectory", "read_dataset")

# A training step opens at batch assembly and closes after the optimizer.
STEP_OPEN = "training.assemble_batch"
STEP_CLOSE = "training.adamw_step"

# Navier-Stokes substep rule and FFT count per call, mirrored from the
# solver: substeps = ceil(dt / 5e-3); initial noise fft2+ifft2, forcing fft2,
# vorticity fft2, frame-0 ifft2, five FFTs per advected substep and one
# ifft2 per stored frame.
NS_SUBSTEP_DT = 5e-3


def _per_layer_units():
    units = {}
    for op in TENSOR_OPS:
        units[f"tensor.{op}.calls"] = ("count", "lower")
        units[f"tensor.{op}.self_s"] = ("s", "lower")
    units.update({
        "tensor.matmul.gflop_computed": ("GFLOP", "lower"),
        "tensor.matmul.gflop_per_s": ("GFLOP/s", "higher"),
        "tensor.depthwise_conv2d.gb_computed": ("GB", "lower"),
        "tensor.tape_nodes_per_step": ("count", "lower"),
    })
    for fn in MODEL_FNS:
        units[f"model.{fn}.s"] = ("s", "lower")
    units.update({
        "model.lano_forward.grad.s": ("s", "lower"),
        "model.lano_forward.nograd.s": ("s", "lower"),
        "model.load_checkpoint.s": ("s", "lower"),
        "model.save_checkpoint.s": ("s", "lower"),
        "model.param_count": ("count", "lower"),
        "model.checkpoint_bytes": ("B", "lower"),
        "model.live_row_frac": ("frac", "higher"),
    })
    for fn in ("gen_mask", "mpt_augment"):
        units[f"masking.{fn}.calls"] = ("count", "lower")
        units[f"masking.{fn}.s"] = ("s", "lower")
    units["masking.observed_frac_after_mpt"] = ("frac", "higher")
    for fn in TRAINING_FNS:
        units[f"training.{fn}.s"] = ("s", "lower")
    for part in ("forward", "backward", "optimizer", "data_wait"):
        units[f"training.step.{part}_frac"] = ("frac", "lower")
    for fn in ("predict_batch", "relative_l2"):
        units[f"evaluation.{fn}.s"] = ("s", "lower")
    for fn in PDEGEN_FNS:
        units[f"pdegen.{fn}.s"] = ("s", "lower")
    units.update({
        "pdegen.ns.substeps_computed": ("count", "lower"),
        "pdegen.ns.fft_calls_computed": ("count", "lower"),
        "pdegen.bytes_written": ("B", "lower"),
        "pdegen.bytes_read": ("B", "lower"),
        "pdegen.write_mb_per_s": ("MB/s", "higher"),
        "pdegen.read_mb_per_s": ("MB/s", "higher"),
        "trace.overhead_frac": ("frac", "lower"),
    })
    return units


# name -> (unit, better); every traced run reports all of them, with 0 for
# a layer the workload does not exercise.
PER_LAYER = _per_layer_units()


class Tracer:
    """Records spans around wrapped module functions of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self.counters: dict[str, float] = defaultdict(float)   # measure phase only
        self.masks: list[tuple[np.ndarray, md.ModelConfig]] = []
        self.model_sizes = {"model.param_count": 0, "model.checkpoint_bytes": 0}
        self._stack: list[int] = []
        self._trace = None
        self._next_trace = 0
        self._patched: list[tuple] = []

    # -- trace ids ---------------------------------------------------------------
    def new_trace(self) -> None:
        """Start a trace shared by every span until `end_trace`."""
        self._trace = self._next_trace
        self._next_trace += 1

    def end_trace(self) -> None:
        self._trace = None

    # -- spans ----------------------------------------------------------------------
    def _open(self, name: str) -> int:
        if name == STEP_OPEN:
            self.new_trace()
        if self._trace is not None:
            trace = self._trace
        elif self._stack:
            trace = self.spans[self._stack[-1]][4]
        else:
            trace = self._next_trace
            self._next_trace += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, trace, self.phase])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[0] == STEP_CLOSE:
            self.end_trace()

    def count(self, key: str, value: float) -> None:
        if self.phase == "measure":
            self.counters[key] += value

    # -- wrapping -------------------------------------------------------------------
    def wrap(self, module, attr: str, label: str, before=None, after=None,
             name_fn=None) -> None:
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            idx = self._open(name_fn() if name_fn else label)
            try:
                out = orig(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, args, kwargs, out)
            return out

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, orig))

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for op in TENSOR_OPS:
            self.wrap(T, op, f"tensor.{op}", before=_TENSOR_PROBES.get(op))
        for fn in MODEL_FNS:
            self.wrap(md, fn, f"model.{fn}")
        self.wrap(md, "lano_forward", "", before=_probe_live_rows,
                  name_fn=lambda: "model.lano_forward." + (
                      "grad" if T.active_tape().recording else "nograd"))
        self.wrap(md, "save_checkpoint", "model.save_checkpoint",
                  after=_probe_saved_checkpoint)
        self.wrap(md, "load_checkpoint", "model.load_checkpoint",
                  after=_probe_loaded_checkpoint)
        self.wrap(mk, "gen_mask", "masking.gen_mask")
        self.wrap(mk, "mpt_augment", "masking.mpt_augment", after=_probe_mpt)
        for fn in TRAINING_FNS:
            self.wrap(tr, fn, f"training.{fn}")
        for fn in ("predict_batch", "relative_l2"):
            self.wrap(ev, fn, f"evaluation.{fn}")
        self.wrap(pg, "solve_navier_stokes", "pdegen.solve_navier_stokes",
                  before=_probe_ns_work)
        self.wrap(pg, "solve_diffusion_reaction", "pdegen.solve_diffusion_reaction")
        self.wrap(pg, "write_trajectory", "pdegen.write_trajectory",
                  after=_probe_written)
        self.wrap(pg, "read_dataset", "pdegen.read_dataset", after=_probe_read)

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    # -- output ----------------------------------------------------------------------
    def write_spans(self, path) -> None:
        """Write every span once, as CSV with self time, after the run."""
        child = self._child_time()
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["id", "name", "start_s", "end_s", "self_s", "parent",
                        "trace", "phase"])
            for i, (name, t0, t1, parent, trace, phase) in enumerate(self.spans):
                w.writerow([i, name, f"{t0:.9f}", f"{t1:.9f}",
                            f"{t1 - t0 - child[i]:.9f}", parent, trace, phase])

    def _child_time(self) -> list[float]:
        """Per span, the time its direct children cover (children never overlap:
        spans nest on one thread)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return child

    def per_layer_metrics(self, ops: int, overhead_frac: float) -> dict:
        """Every PER_LAYER metric.  Times and counts are per operation of the
        traced measure window (training run, request or generation round),
        checkpoint times per call; unexercised layers read 0."""
        ops = max(ops, 1)
        child = self._child_time()
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        ckpt = defaultdict(list)
        steps = defaultdict(lambda: defaultdict(float))
        step_window = {}
        for i, (name, t0, t1, parent, trace, phase) in enumerate(self.spans):
            if name in ("model.save_checkpoint", "model.load_checkpoint"):
                ckpt[name].append(t1 - t0)
            if phase != "measure":
                continue
            calls[name] += 1
            total[name] += t1 - t0
            self_s[name] += t1 - t0 - child[i]
            if name == STEP_OPEN:
                step_window[trace] = [t0, t1]
            if parent < 0 and trace in step_window:
                step_window[trace][1] = max(step_window[trace][1], t1)
                steps[trace][name] += t1 - t0

        m = {name: 0.0 for name in PER_LAYER}
        for op in TENSOR_OPS:
            m[f"tensor.{op}.calls"] = calls[f"tensor.{op}"] / ops
            m[f"tensor.{op}.self_s"] = self_s[f"tensor.{op}"] / ops
        flops = self.counters["tensor.matmul.flop"]
        m["tensor.matmul.gflop_computed"] = flops / 1e9 / ops
        if self_s["tensor.matmul"] > 0:
            m["tensor.matmul.gflop_per_s"] = flops / 1e9 / self_s["tensor.matmul"]
        m["tensor.depthwise_conv2d.gb_computed"] = \
            self.counters["tensor.depthwise_conv2d.bytes"] / 1e9 / ops
        if calls["tensor.backward"]:
            m["tensor.tape_nodes_per_step"] = \
                self.counters["tensor.tape_nodes"] / calls["tensor.backward"]

        for fn in MODEL_FNS:
            m[f"model.{fn}.s"] = total[f"model.{fn}"] / ops
        for mode in ("grad", "nograd"):
            m[f"model.lano_forward.{mode}.s"] = total[f"model.lano_forward.{mode}"] / ops
        for fn in ("save_checkpoint", "load_checkpoint"):
            if ckpt[f"model.{fn}"]:
                m[f"model.{fn}.s"] = statistics.median(ckpt[f"model.{fn}"])
        m.update(self.model_sizes)
        m["model.live_row_frac"] = _live_row_frac(self.masks)

        for fn in ("gen_mask", "mpt_augment"):
            m[f"masking.{fn}.calls"] = calls[f"masking.{fn}"] / ops
            m[f"masking.{fn}.s"] = total[f"masking.{fn}"] / ops
        if self.counters["masking.mpt_masks"]:
            m["masking.observed_frac_after_mpt"] = \
                self.counters["masking.mpt_observed"] / self.counters["masking.mpt_masks"]

        for fn in TRAINING_FNS:
            m[f"training.{fn}.s"] = total[f"training.{fn}"] / ops
        step_total = sum(t1 - t0 for t0, t1 in step_window.values())
        if step_total > 0:
            parts = defaultdict(float)
            for by_name in steps.values():
                parts["forward"] += sum(by_name[n] for n in (
                    "model.lano_forward.grad", "model.lano_forward.nograd",
                    "training.masked_one_step_loss", "training.consistency_loss"))
                parts["backward"] += by_name["tensor.backward"]
                parts["optimizer"] += by_name["training.adamw_step"]
                parts["data_wait"] += by_name["training.assemble_batch"] \
                    + by_name["masking.mpt_augment"]
            for part, secs in parts.items():
                m[f"training.step.{part}_frac"] = secs / step_total

        for fn in ("predict_batch", "relative_l2"):
            m[f"evaluation.{fn}.s"] = total[f"evaluation.{fn}"] / ops

        for fn in PDEGEN_FNS:
            m[f"pdegen.{fn}.s"] = total[f"pdegen.{fn}"] / ops
        m["pdegen.ns.substeps_computed"] = self.counters["pdegen.ns.substeps"] / ops
        m["pdegen.ns.fft_calls_computed"] = self.counters["pdegen.ns.fft_calls"] / ops
        written = self.counters["pdegen.bytes_written"]
        read = self.counters["pdegen.bytes_read"]
        m["pdegen.bytes_written"] = written / ops
        m["pdegen.bytes_read"] = read / ops
        if total["pdegen.write_trajectory"] > 0:
            m["pdegen.write_mb_per_s"] = written / 1e6 / total["pdegen.write_trajectory"]
        if total["pdegen.read_dataset"] > 0:
            m["pdegen.read_mb_per_s"] = read / 1e6 / total["pdegen.read_dataset"]
        m["trace.overhead_frac"] = overhead_frac
        return {k: float(v) for k, v in m.items()}


# -- probes: counts recorded at the same boundaries as the spans -----------------

def _probe_matmul(tracer, args, kwargs):
    a, b = args[0].shape, args[1].shape
    if len(a) < 2 or len(b) < 2:
        return      # the primitive rejects it; nothing is computed
    batch = math.prod(np.broadcast_shapes(a[:-2], b[:-2]))
    tracer.count("tensor.matmul.flop", 2.0 * batch * a[-2] * a[-1] * b[-1])


def _probe_depthwise(tracer, args, kwargs):
    """Compulsory traffic: read input and kernel once, write output once."""
    x, w = args[0], args[1]
    pad = kwargs.get("padding", args[2] if len(args) > 2 else 0)
    if x.ndim != 4 or w.ndim != 3:
        return
    oh = x.shape[2] + 2 * pad - w.shape[1] + 1
    ow = x.shape[3] + 2 * pad - w.shape[2] + 1
    item = x.data.itemsize
    tracer.count("tensor.depthwise_conv2d.bytes",
                 item * (x.size + w.size + x.shape[0] * x.shape[1] * max(oh, 0) * max(ow, 0)))


def _probe_tape(tracer, args, kwargs):
    tracer.count("tensor.tape_nodes", len(T.active_tape()))


_TENSOR_PROBES = {"matmul": _probe_matmul, "depthwise_conv2d": _probe_depthwise,
                  "backward": _probe_tape}


def _probe_live_rows(tracer, args, kwargs):
    if tracer.phase == "measure":
        frames, mask, params = args[1], args[2], args[3]
        b, _, gh, gw, _ = frames.shape
        tracer.masks.append((np.asarray(mask).reshape(b, gh, gw), params.config))


def _live_row_frac(masks) -> float:
    """Share of grid rows the mask has reached, averaged over layers and
    samples: layer l encodes only rows inside the mask dilated l times."""
    if not masks:
        return 0.0
    fracs = []
    for mask, cfg in masks:
        m = (mask > 0).astype(np.uint8)
        for _ in range(cfg.layers):
            fracs.append(float(m.mean()))
            if cfg.boundary_first:
                m = md.propagate_mask_grid(m, cfg.pconv_kernel, 1)
    return float(np.mean(fracs))


def _probe_mpt(tracer, args, kwargs, out):
    m_aug, _ = out
    tracer.count("masking.mpt_masks", 1)
    tracer.count("masking.mpt_observed", m_aug.observed_fraction())


def _probe_ns_work(tracer, args, kwargs):
    names = ("grid", "seed", "t_steps", "dt", "viscosity", "forcing_amplitude",
             "advection", "substeps", "initial_vorticity")
    a = dict(zip(names, args), **kwargs)
    substeps = a.get("substeps") or max(1, int(np.ceil(a["dt"] / NS_SUBSTEP_DT)))
    frames = a["t_steps"] - 1
    ffts = 2 if a.get("initial_vorticity") is None else 0
    ffts += 1 if a.get("forcing_amplitude", 0.1) != 0.0 else 0
    ffts += 2 + frames * (1 + (5 * substeps if a.get("advection", True) else 0))
    tracer.count("pdegen.ns.substeps", frames * substeps)
    tracer.count("pdegen.ns.fft_calls", ffts)


def _probe_written(tracer, args, kwargs, out):
    tracer.count("pdegen.bytes_written", os.path.getsize(args[1]))


def _probe_read(tracer, args, kwargs, out):
    manifest, _ = out
    p = Path(args[0])
    base = p if p.is_dir() else p.parent
    tracer.count("pdegen.bytes_read", sum(
        os.path.getsize(base / n) for names in manifest.files.values() for n in names))


def _probe_saved_checkpoint(tracer, args, kwargs, out):
    tracer.model_sizes["model.param_count"] = args[0].count()
    tracer.model_sizes["model.checkpoint_bytes"] = os.path.getsize(args[1])


def _probe_loaded_checkpoint(tracer, args, kwargs, out):
    tracer.model_sizes["model.param_count"] = out.count()
    tracer.model_sizes["model.checkpoint_bytes"] = os.path.getsize(args[0])
