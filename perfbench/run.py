"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is train-ns32-patch, infer-ns64-point, datagen-64, or "all" (each
workload in its own process, one after the other).  The program is imported
from ../src; nothing is installed.  The oracle suite verify.run_suite() gates
every run before timing.  The run prints a table of every metric by name with
its unit, then, as the last line, one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1).  The exit code is 0 only when every correctness gate
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train-ns32-patch", "infer-ns64-point", "datagen-64")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use.  Must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(max(1, min(int(os.environ.get(var, nproc)), nproc)))
    return nproc


def time_imports() -> float:
    """Seconds a fresh interpreter takes to import the program and the
    benchmark modules."""
    code = ("import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
            "import bench; from partialpde import verify; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC), str(HERE)],
                          stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    return float(proc.stdout)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: smoke-test sizes")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_all(args) -> int:
    """Each workload in a child process, so peak RSS belongs to one workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) if proc.returncode == 0 or not lines
              else proc.stdout.rstrip(), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"# {name}: exit code {proc.returncode}", file=sys.stderr)
            code = code or proc.returncode or 1
            continue
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    if code == 0:
        print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "partialpde" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    nproc = pin_threads()
    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench
    from partialpde import verify
    # imports happen once per process: repeat them in two fresh interpreters
    # so that set-up time is a median of three like the rest of set-up
    import_s = statistics.median([time.perf_counter() - t0, time_imports(),
                                  time_imports()])

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print("# threads: " + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
          + f" (nproc {nproc})", flush=True)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)   # verify.run_suite writes here too
    try:
        t = time.perf_counter()
        ok, checks = verify.run_suite(tmp_dir=str(work))
        print(f"# gate verify.run_suite: {sum(c.ok for c in checks)}/{len(checks)} "
              f"checks passed in {time.perf_counter() - t:.2f} s", flush=True)
        if not ok:
            for c in checks:
                if not c.ok:
                    print(f"# FAILED {c.group}.{c.name}: {c.detail}", file=sys.stderr)
            return 1
        spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.csv"
        res = bench.run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace), work, size=args.size,
                                 import_s=import_s,
                                 spans_path=spans if args.trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, value, unit, note in res.table:
        print(f"{name:<32} {value:>14.6g} {unit:<8} {note}")
    if args.trace:
        print(f"# per-layer metrics, per operation of the traced window; spans in {spans}")
        for name, value in res.metrics.items():
            print(f"{name:<40} {value:>14.6g} {res.units[name]}")
    gate = "ok" if res.correct else "FAILED: " + "; ".join(res.failures)
    print(f"# gate {args.workload}: {gate}")
    print(json.dumps(res.json()), flush=True)
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
