import csv
import json
from pathlib import Path

import pytest

from partialpde import cli
from partialpde import masking as mk
from partialpde import model as md
from partialpde import pdegen as pg
from partialpde import training as tr

from util import edit_config

TINY_MODEL = ["--layers", "1", "--channels", "8", "--heads", "2", "--tokens", "2",
              "--history", "2", "--mlp-ratio", "1"]


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    return code, capsys.readouterr().err.splitlines()


def test_cli_chain_gen_data_to_dump(tmp_path, capsys):
    ds, mask, out = tmp_path / "ds", tmp_path / "m.pobm", tmp_path / "run"
    steps = [
        (["gen-data", "--pde", "ns", "--grid", 16, "--traj", 2, "--val", 1,
          "--test", 1, "--tsteps", 4, "--dt", 0.05, "--out", ds],
         [ds / "manifest.txt", ds / "traj_test_00000.pobd", ds / "config_echo.cfg"]),
        (["gen-mask", "--grid", 16, "--out", mask], [mask, tmp_path / "m.pobm.cfg"]),
        (["train", "--data", ds, *TINY_MODEL, "--epochs", 1, "--batch", 4,
          "--out", out],
         [out / "model.pobw", out / "metrics.csv", out / "config_echo.cfg"]),
        (["eval", "--ckpt", out / "model.pobw", "--data", ds, "--rates", "0.25",
          "--out", tmp_path / "eval.csv"],
         [tmp_path / "eval.csv", tmp_path / "eval.csv.cfg"]),
        (["dump", "--input", ds / "traj_test_00000.pobd", "--out", tmp_path / "d" / "f"],
         [tmp_path / "d" / "f_t3_c0.pgm", tmp_path / "d" / "f_minmax.txt",
          tmp_path / "d" / "f_minmax.txt.cfg"]),
        (["dump", "--input", mask, "--out", tmp_path / "d" / "m"],
         [tmp_path / "d" / "m.pgm", tmp_path / "d" / "m_minmax.txt.cfg"]),
    ]
    for argv, artifacts in steps:
        code, err = run(capsys, *argv)
        assert code == 0 and err == [], argv[0]
        for path in artifacts:
            assert path.is_file() and path.stat().st_size > 0, path
    rows = (tmp_path / "eval.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("patchwise,0.25,")
    assert rows[0] == ("pattern,test_rate,patch_size,mean_rel_l2,std_rel_l2,"
                       "n_samples,config_fingerprint")


def small_dataset(tmp_path, val=1, test=1, t_steps=3):
    grid = pg.GridGeometry(8, 8)
    traj = lambda s: pg.solve_diffusion_reaction(grid, seed=s, t_steps=t_steps,
                                                 dt=0.02)
    pg.write_dataset({"train": [traj(0)], "val": [traj(1)][:val],
                      "test": [traj(2)][:test]}, tmp_path / "ds")
    return tmp_path / "ds"


def tiny_checkpoint(tmp_path):
    cfg = md.ModelConfig(layers=1, channels=8, heads=2, latent_tokens=2,
                         history=2, phys_channels=2, mlp_ratio=1.0)
    md.save_checkpoint(md.ModelParams(cfg), tmp_path / "m.pobw")
    return tmp_path / "m.pobw"


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def record_training(monkeypatch):
    """Record (run directory, mask spec, train config) of every training run."""
    calls = []
    train_on_splits = tr.train_on_splits

    def recording(splits, grid_hw, mask_spec, model_cfg, train_cfg, out_dir):
        calls.append((Path(out_dir).name, mask_spec, train_cfg))
        return train_on_splits(splits, grid_hw, mask_spec, model_cfg, train_cfg,
                               out_dir)

    monkeypatch.setattr(tr, "train_on_splits", recording)
    return calls


def test_cli_train_defaults_are_the_config_defaults(tmp_path, capsys, monkeypatch):
    calls = []

    def recording(splits, grid_hw, mask_spec, model_cfg, train_cfg, out_dir):
        calls.append((mask_spec, model_cfg, train_cfg))
        return tr.TrainResult(Path(out_dir) / "model.pobw",
                              Path(out_dir) / "metrics.csv", 0.0, 0.0)

    monkeypatch.setattr(tr, "train_on_splits", recording)
    code, err = run(capsys, "train", "--data", small_dataset(tmp_path),
                    "--out", tmp_path / "run")
    assert code == 0 and err == []
    assert calls == [(tr.MaskSpec(), md.ModelConfig(phys_channels=2), tr.TrainConfig())]


def test_cli_ablate_components_turns_off_mpt_only_for_wo_mpt(tmp_path, capsys,
                                                             monkeypatch):
    calls = record_training(monkeypatch)
    code, err = run(capsys, "ablate", "--data", small_dataset(tmp_path),
                    "--axis", "components", *TINY_MODEL, "--epochs", 1,
                    "--out", tmp_path / "ab")
    assert code == 0 and err == []
    names = ["full", "wo_bf", "wo_tm", "wo_mpt"]
    assert [r["variant"] for r in read_csv(tmp_path / "ab" / "ablation.csv")] == names
    assert [(name, tcfg.mpt_enabled) for name, _, tcfg in calls] == \
        [(n, n != "wo_mpt") for n in names]
    assert [spec for _, spec, _ in calls] == [tr.MaskSpec(mk.PATCHWISE, 0.25, 4)] * 4


def test_cli_bench_matrix_writes_every_cell(tmp_path, capsys, monkeypatch):
    calls = record_training(monkeypatch)
    code, err = run(capsys, "bench-matrix", "--data", small_dataset(tmp_path),
                    *TINY_MODEL, "--epochs", 1, "--out", tmp_path / "bm")
    assert code == 0 and err == []
    rows = read_csv(tmp_path / "bm" / "bench_matrix.csv")
    cells = [(r["pattern"], float(r["train_rate"]), float(r["test_rate"]))
             for r in rows]
    assert cells == [(p, train, test) for p in (mk.POINTWISE, mk.PATCHWISE)
                     for train, tests in tr.RATE_MATRIX for test in tests]
    assert len(cells) == 12
    assert [(spec.pattern, spec.missing_rate) for _, spec, _ in calls] == \
        [(p, train) for p in (mk.POINTWISE, mk.PATCHWISE)
         for train, _ in tr.RATE_MATRIX]


@pytest.mark.parametrize("command", [["ablate", "--axis", "mixer"], ["bench-matrix"]])
def test_cli_harness_without_a_test_split_is_an_error(tmp_path, capsys,
                                                      monkeypatch, command):
    calls = record_training(monkeypatch)
    code, err = run(capsys, *command, "--data", small_dataset(tmp_path, test=0),
                    *TINY_MODEL, "--epochs", 1, "--out", tmp_path / "h")
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error:") and "'test'" in err[0]
    assert calls == []


def test_cli_eval_of_too_short_trajectories_is_an_error(tmp_path, capsys):
    code, err = run(capsys, "eval", "--ckpt", tiny_checkpoint(tmp_path),
                    "--data", small_dataset(tmp_path, t_steps=2),
                    "--out", tmp_path / "e.csv")
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error:") and "3 frames" in err[0]
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("rates", ["", ","])
def test_cli_eval_without_rates_is_an_error(tmp_path, capsys, rates):
    code, err = run(capsys, "eval", "--ckpt", tiny_checkpoint(tmp_path),
                    "--data", small_dataset(tmp_path), "--rates", rates,
                    "--out", tmp_path / "e.csv")
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error:") and "rates" in err[0]
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("kernel", [0, 2])
def test_cli_train_rejects_an_unusable_kernel(tmp_path, capsys, kernel):
    code, err = run(capsys, "train", "--data", small_dataset(tmp_path), *TINY_MODEL,
                    "--kernel", kernel, "--epochs", 1, "--out", tmp_path / "run")
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error:") and "pconv_kernel" in err[0]
    assert not (tmp_path / "run" / "model.pobw").exists()


@pytest.mark.parametrize("flag, value, field", [
    ("--heads", 0, "heads"), ("--channels", 0, "channels"),
    ("--mlp-ratio", 0, "mlp_ratio"), ("--mlp-ratio", -3, "mlp_ratio"),
    ("--temperature", "nan", "temperature"), ("--lr", "nan", "learning_rate"),
    ("--weight-decay", -1, "weight_decay"),
])
def test_cli_train_rejects_an_unusable_setting(tmp_path, capsys, flag, value, field):
    code, err = run(capsys, "train", "--data", small_dataset(tmp_path), *TINY_MODEL,
                    flag, value, "--epochs", 1, "--out", tmp_path / "run")
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error:") and field in err[0]
    assert not (tmp_path / "run" / "model.pobw").exists()


def test_cli_eval_of_a_checkpoint_with_a_mistyped_config_is_an_error(tmp_path, capsys):
    ckpt = tiny_checkpoint(tmp_path)
    ckpt.write_bytes(edit_config(ckpt.read_bytes(), "layers", 1.5))
    code, err = run(capsys, "eval", "--ckpt", ckpt, "--data", small_dataset(tmp_path),
                    "--out", tmp_path / "e.csv")
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error:") and "layers" in err[0]
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("command", [["train"], ["ablate", "--axis", "mixer"]])
def test_cli_dataset_without_a_train_split_is_an_error(tmp_path, capsys, command):
    ds = small_dataset(tmp_path)
    manifest = ds / "manifest.txt"
    m = json.loads(manifest.read_text())
    del m["files"]["train"]
    manifest.write_text(json.dumps(m))
    code, err = run(capsys, *command, "--data", ds, *TINY_MODEL, "--epochs", 1,
                    "--out", tmp_path / "run")
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error:") and "training split" in err[0]
    assert not list((tmp_path / "run").glob("**/*.pobw"))


def test_cli_eval_of_an_empty_split_is_an_error(tmp_path, capsys):
    code, err = run(capsys, "eval", "--ckpt", tiny_checkpoint(tmp_path),
                    "--data", small_dataset(tmp_path, val=0), "--split", "val",
                    "--out", tmp_path / "e.csv")
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error:") and "'val'" in err[0]
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("frame, code, name", [
    (0, 0, "f_t0_c0.pgm"), (-1, 0, "f_t2_c0.pgm"), (2, 0, "f_t2_c0.pgm"),
    (3, 1, None), (9, 1, None), (-2, 1, None),
])
def test_cli_dump_frame_must_exist(tmp_path, capsys, frame, code, name):
    src = small_dataset(tmp_path) / "traj_train_00000.pobd"
    got, err = run(capsys, "dump", "--input", src, "--frame", frame,
                   "--out", tmp_path / "d" / "f")
    assert got == code
    if name:
        assert (tmp_path / "d" / name).is_file()
    else:
        assert len(err) == 1 and err[0].startswith("error:") and "frame" in err[0]
        assert not list((tmp_path / "d").glob("*.pgm"))


@pytest.mark.parametrize("pde", ["ns", "dr"])
@pytest.mark.parametrize("sizes, word", [
    (["--grid", 0], "grid"),
    (["--traj", 0, "--val", 0, "--test", 0], "trajectory"),
])
def test_cli_gen_data_of_nothing_is_an_error(tmp_path, capsys, pde, sizes, word):
    code, err = run(capsys, "gen-data", "--pde", pde, "--grid", 8, "--traj", 1,
                    "--val", 0, "--test", 0, "--tsteps", 3, *sizes,
                    "--out", tmp_path / "ds")
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error:") and word in err[0]
    assert not (tmp_path / "ds" / "manifest.txt").exists()


@pytest.mark.parametrize("pattern", ["point", "patch"])
def test_cli_gen_mask_of_an_empty_grid_is_an_error(tmp_path, capsys, pattern):
    code, err = run(capsys, "gen-mask", "--grid", 0, "--pattern", pattern,
                    "--out", tmp_path / "m.pobm")
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error:") and "grid" in err[0]
    assert not (tmp_path / "m.pobm").exists()


@pytest.mark.parametrize("pde, dt", [("ns", -1), ("ns", "nan"), ("dr", 0),
                                     ("dr", "inf")])
def test_cli_gen_data_rejects_an_unusable_dt(tmp_path, capsys, pde, dt):
    code, err = run(capsys, "gen-data", "--pde", pde, "--grid", 8, "--traj", 1,
                    "--val", 0, "--test", 0, "--tsteps", 3, "--dt", dt,
                    "--out", tmp_path / "ds")
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error:") and "dt" in err[0]
    assert not (tmp_path / "ds").exists()


def test_cli_gen_mask_with_a_seed_the_header_cannot_hold_writes_no_file(tmp_path, capsys):
    # the seed is a u64 field
    code, err = run(capsys, "gen-mask", "--grid", 8, "--pattern", "point",
                    "--seed", 2 ** 64, "--out", tmp_path / "m.pobm")
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error:") and "m.pobm" in err[0]
    assert not (tmp_path / "m.pobm").exists()


def test_cli_gen_mask_with_a_rate_the_header_rounds_to_one_writes_no_file(tmp_path, capsys):
    # the rate is an f32 field, where 0.99999999 becomes 1.0
    code, err = run(capsys, "gen-mask", "--grid", 8, "--pattern", "point",
                    "--rate", "0.99999999", "--out", tmp_path / "m.pobm")
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error:") and "m.pobm" in err[0]
    assert not (tmp_path / "m.pobm").exists()
