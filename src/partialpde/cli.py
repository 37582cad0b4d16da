"""Command-line interface: data generation, masks, training, evaluation,
ablations (the train/test rate matrix is `ablate --axis rates`),
verification and raster dumps.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  Every artifact
gets a config echo (resolved flags) written next to it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import evaluation as ev
from . import masking as mk
from . import model as md
from . import pdegen as pg
from . import training as tr
from . import verify as vf

PATTERNS = {"point": mk.POINTWISE, "patch": mk.PATCHWISE}


def _echo_config(args: argparse.Namespace, target: Path) -> None:
    target = Path(target)
    dest = target / "config_echo.cfg" if target.is_dir() \
        else target.with_suffix(target.suffix + ".cfg")
    lines = [f"{k}={v}" for k, v in sorted(vars(args).items()) if k != "func"]
    dest.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _model_config(args, phys_channels: int) -> md.ModelConfig:
    return md.ModelConfig(
        layers=args.layers, channels=args.channels, heads=args.heads,
        latent_tokens=args.tokens, temperature=args.temperature,
        pconv_kernel=args.kernel, history=args.history,
        phys_channels=phys_channels, mlp_ratio=args.mlp_ratio, token_mixer=args.mixer,
        boundary_first=not args.no_boundary_first)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    d = md.ModelConfig
    p.add_argument("--layers", type=int, default=d.layers)
    p.add_argument("--channels", type=int, default=d.channels)
    p.add_argument("--heads", type=int, default=d.heads)
    p.add_argument("--tokens", type=int, default=d.latent_tokens)
    p.add_argument("--temperature", type=float, default=d.temperature)
    p.add_argument("--kernel", type=int, default=d.pconv_kernel)
    p.add_argument("--history", type=int, default=d.history)
    p.add_argument("--mlp-ratio", type=float, default=d.mlp_ratio, dest="mlp_ratio")
    p.add_argument("--mixer", choices=md.MIXERS, default=d.token_mixer)
    p.add_argument("--no-boundary-first", action="store_true",
                   dest="no_boundary_first")


def _add_mask_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pattern", choices=sorted(PATTERNS), default="patch")
    p.add_argument("--rate", type=float, default=tr.MaskSpec.missing_rate)
    p.add_argument("--patch", type=int, default=tr.MaskSpec.patch_size)


# -- subcommands ----------------------------------------------------------------

def cmd_gen_data(args) -> int:
    grid = pg.GridGeometry(args.grid, args.grid)
    counts = {"train": args.traj, "val": args.val, "test": args.test}
    kind = {"ns": pg.NAVIER_STOKES, "dr": pg.DIFFUSION_REACTION}[args.pde]
    kw = {}
    if kind == pg.NAVIER_STOKES:
        kw["viscosity"] = args.viscosity
    pg.generate_dataset(kind, grid, counts, args.tsteps, args.dt, args.seed,
                        args.out, **kw)
    _echo_config(args, Path(args.out))
    print(f"wrote {sum(counts.values())} trajectories to {args.out}")
    return 0


def cmd_gen_mask(args) -> int:
    m = mk.gen_mask(PATTERNS[args.pattern], args.grid, args.grid, args.rate,
                    args.seed, patch_size=args.patch)
    mk.write_mask(m, args.out)
    _echo_config(args, Path(args.out))
    print(f"wrote mask {args.out} (observed fraction "
          f"{m.observed_fraction():.4f})")
    return 0


def cmd_train(args) -> int:
    manifest, splits = pg.read_dataset(args.data)
    cfg = _model_config(args, manifest.channels)
    tcfg = tr.TrainConfig(
        learning_rate=args.lr, weight_decay=args.weight_decay,
        epochs=args.epochs, batch_size=args.batch, seed=args.seed,
        mpt_enabled=args.mpt == "on", consistency_weight=args.consistency)
    spec = tr.MaskSpec(PATTERNS[args.pattern], args.rate, args.patch)
    res = tr.train_on_splits(splits, (manifest.h, manifest.w), spec, cfg, tcfg,
                             args.out)
    _echo_config(args, Path(args.out))
    print(f"best val rel L2 {res.best_val:.6f}; checkpoint "
          f"{res.checkpoint_path}; metrics {res.metrics_path}")
    return 0


def cmd_eval(args) -> int:
    rates = [float(r) for r in args.rates.split(",") if r]
    params = md.load_checkpoint(args.ckpt)
    _, splits = pg.read_dataset(args.data)
    trajs = splits.get(args.split)
    if not trajs:
        raise ev.EvalError(f"dataset has no trajectories in split '{args.split}'")
    rows = ev.evaluate(params, trajs, PATTERNS[args.pattern], rates, args.patch,
                       seed=args.seed)
    out = Path(args.out)
    ev.write_rows(out, rows)
    _echo_config(args, out)
    for row in rows:
        print(f"{row['pattern']} rate {row['test_rate']}: "
              f"rel L2 {row['mean_rel_l2']:.6f} +/- {row['std_rel_l2']:.6f} "
              f"(n={row['n_samples']})")
    return 0


def cmd_ablate(args) -> int:
    manifest, splits = pg.read_dataset(args.data)
    cfg = _model_config(args, manifest.channels)
    spec = tr.MaskSpec(PATTERNS[args.pattern], args.rate, args.patch)
    tcfg = tr.TrainConfig(epochs=args.epochs, batch_size=args.batch, seed=args.seed)
    sweep = [int(t) for t in args.token_sweep.split(",")] \
        if args.token_sweep else None
    rows = tr.ablate(splits, (manifest.h, manifest.w), cfg, args.axis, spec, tcfg,
                     args.out, token_sweep=sweep)
    _echo_config(args, Path(args.out))
    for r in rows:
        print(f"{r['variant']} test {r['test_rate']}: rel L2 {r['mean_rel_l2']:.6f}")
    return 0


def cmd_verify(args) -> int:
    ok, results = vf.run_suite(out_csv=args.out)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.group:10s} {r.name:32s} "
              f"{r.seconds:6.2f}s  {r.detail}")
    if args.out:
        _echo_config(args, Path(args.out))
    print("verification " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def cmd_dump(args) -> int:
    path = Path(args.input)
    out_prefix = Path(args.out)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    sidecar = []
    if path.suffix == ".pobm":
        m = mk.read_mask(path)
        _write_pgm(out_prefix.with_suffix(".pgm"),
                   (m.grid * 255).astype(np.uint8))
        sidecar.append(("mask", 0, 0.0, 1.0))
    else:
        traj = pg.read_trajectory(path)
        if not -1 <= args.frame < traj.t_all:
            raise ValueError(f"frame {args.frame} is outside 0..{traj.t_all - 1} "
                             "(-1 selects the last frame)")
        t = args.frame % traj.t_all
        for c in range(traj.frames.shape[-1]):
            field = traj.frames[t, ..., c].astype(np.float64)
            lo, hi = float(field.min()), float(field.max())
            scale = (field - lo) / (hi - lo) if hi > lo else np.zeros_like(field)
            name = out_prefix.parent / f"{out_prefix.name}_t{t}_c{c}.pgm"
            _write_pgm(name, (scale * 255).astype(np.uint8))
            sidecar.append((f"t{t}", c, lo, hi))
    side = out_prefix.parent / f"{out_prefix.name}_minmax.txt"
    side.write_text("\n".join(f"{tag},channel={c},min={lo!r},max={hi!r}"
                              for tag, c, lo, hi in sidecar) + "\n")
    _echo_config(args, side)
    print(f"wrote {len(sidecar)} raster(s) with sidecar {side}")
    return 0


def _write_pgm(path, img: np.ndarray) -> None:
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(img.tobytes())


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="partialpde",
        description="Operator learning from partially observed PDE fields")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate synthetic trajectories")
    p.add_argument("--pde", choices=["ns", "dr"], required=True)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--traj", type=int, default=200)
    p.add_argument("--val", type=int, default=20)
    p.add_argument("--test", type=int, default=20)
    p.add_argument("--tsteps", type=int, default=20)
    p.add_argument("--dt", type=float, default=0.2)
    p.add_argument("--viscosity", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("gen-mask", help="generate an observation mask file")
    p.add_argument("--grid", type=int, default=64)
    _add_mask_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_mask)

    p = sub.add_parser("train", help="train a model with MPT")
    p.add_argument("--data", required=True)
    _add_mask_flags(p)
    _add_model_flags(p)
    d = tr.TrainConfig
    p.add_argument("--lr", type=float, default=d.learning_rate)
    p.add_argument("--weight-decay", type=float, default=d.weight_decay,
                   dest="weight_decay")
    p.add_argument("--epochs", type=int, default=d.epochs)
    p.add_argument("--batch", type=int, default=d.batch_size)
    p.add_argument("--mpt", choices=["on", "off"], default="on")
    p.add_argument("--consistency", type=float, default=d.consistency_weight)
    p.add_argument("--seed", type=int, default=d.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint over test rates")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--rates", default="0.25,0.5")
    p.add_argument("--pattern", choices=sorted(PATTERNS), default="patch")
    p.add_argument("--patch", type=int, default=tr.MaskSpec.patch_size)
    p.add_argument("--split", default="test")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train/evaluate along an ablation axis")
    p.add_argument("--data", required=True)
    p.add_argument("--axis", choices=tr.ABLATION_AXES, required=True)
    _add_mask_flags(p)
    _add_model_flags(p)
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--token-sweep", default="", dest="token_sweep")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("verify", help="run the oracle verification suite")
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dump", help="render a field or mask to grayscale PGM")
    p.add_argument("--input", required=True)
    p.add_argument("--frame", type=int, default=-1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dump)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
