"""Self-tests of the benchmark, run at smoke-test sizes."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
for p in (str(ROOT / "src"), str(BENCH_DIR)):
    if p not in sys.path:
        sys.path.insert(0, p)

import bench  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from partialpde import tensor as T  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COMPUTED_UNITS = {"count", "GFLOP", "GB", "B"}
COMPUTED_FRACS = {"model.live_row_frac", "masking.observed_frac_after_mpt"}


def tiny(name, tmp_path, trace=False, seconds=0.3, **kw):
    return bench.run_workload(name, seed=3, seconds=seconds, trace=trace,
                              work_dir=tmp_path / "work", size="tiny", **kw)


def table(result):
    return {name: value for name, value, _, _ in result.table}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(name, tmp_path):
    r = tiny(name, tmp_path)
    assert r.correct, r.failures
    assert r.attempted >= 1 and r.failed == 0
    assert set(r.metrics) == set(bench.END_TO_END)
    for key, value in r.metrics.items():
        assert math.isfinite(value) and value > 0, key
        assert r.units[key] == bench.END_TO_END[key][0]
    assert all(NAME.match(n) for n in table(r))


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    assert e2e == bench.END_TO_END
    layers = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert layers == tracing.PER_LAYER
    for m in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]:
        assert NAME.match(m["name"]) and len(m["name"]) <= 64, m["name"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_tail_percentile_keeps_ten_samples_beyond():
    xs = list(range(1, 31))
    assert workloads.tail_percentile(xs) == (20, pytest.approx(100 * 20 / 30))
    assert workloads.tail_percentile([3, 1, 2]) == (3, 100.0)


def test_same_seed_same_counts_under_different_hash_seeds():
    """Two processes, same workload seed, different PYTHONHASHSEED: computed
    counts and val_rel_l2 repeat exactly."""
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             "train-ns32-patch", "--seed", "5", "--seconds", "0.3", "--trace", "1",
             "--size", "tiny"], cwd=ROOT, env=env, stdout=subprocess.PIPE,
            text=True, timeout=170)
        assert proc.returncode == 0, proc.stdout
        lines = proc.stdout.strip().splitlines()
        val = next(ln.split()[1] for ln in lines if ln.startswith("val_rel_l2 "))
        outs.append((json.loads(lines[-1])["metrics"], val))
    (a, val_a), (b, val_b) = outs
    assert val_a == val_b
    computed = [k for k, v in a.items()
                if v["unit"] in COMPUTED_UNITS or k in COMPUTED_FRACS]
    assert "tensor.matmul.gflop_computed" in computed
    assert a["tensor.tape_nodes_per_step"]["value"] > 0
    assert {k: a[k] for k in computed} == {k: b[k] for k in computed}


def test_datagen_counts_repeat(tmp_path):
    a = tiny("datagen-64", tmp_path / "a", trace=True).metrics
    b = tiny("datagen-64", tmp_path / "b", trace=True).metrics
    for key in ("pdegen.ns.substeps_computed", "pdegen.ns.fft_calls_computed",
                "pdegen.bytes_written", "pdegen.bytes_read"):
        assert a[key] == b[key] > 0, key
    # tiny: 4 frames at dt 0.2 -> 3 x 40 substeps of 5 FFTs, one inverse
    # FFT per stored frame, and 5 for noise, forcing and the initial state
    assert a["pdegen.ns.substeps_computed"] == 120
    assert a["pdegen.ns.fft_calls_computed"] == 120 * 5 + 3 + 5


def test_degenerate_mask_request_is_counted_not_fatal(tmp_path):
    r = tiny("infer-ns64-point", tmp_path, degenerate_every=2)
    assert r.correct, r.failures
    assert 1 <= r.failed < r.attempted
    assert table(r)["failed_frac"] == r.failed / r.attempted
    assert r.metrics["completed_frac"] == (r.attempted - r.failed) / r.attempted


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_runs_agree_on_correctness(name, tmp_path):
    originals = {fn: getattr(T, fn) for fn in tracing.TENSOR_OPS}
    plain = tiny(name, tmp_path / "plain")
    traced = tiny(name, tmp_path / "traced", trace=True)
    assert (plain.correct, plain.failures) == (traced.correct, traced.failures)
    assert set(traced.metrics) == set(tracing.PER_LAYER)
    assert all(getattr(T, fn) is f for fn, f in originals.items())
    if name == "train-ns32-patch":
        assert table(plain)["val_rel_l2"] == table(traced)["val_rel_l2"]
        assert traced.metrics["tensor.backward.calls"] > 0
        assert 0 < traced.metrics["model.live_row_frac"] < 1


def test_failed_gate_exits_nonzero(monkeypatch, capsys):
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(workloads.DatagenWorkload, "check",
                        lambda self, ops: (["injected"], {"storage_rel_err_vs_f64": 1.0}))
    code = run.main(["--workload", "datagen-64", "--seconds", "0.2", "--size", "tiny"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert code == 1 and json.loads(last)["correct"] is False


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(SPEC["command"] + ["--workload", "datagen-64", "--seed", "0",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
