"""Run the proclip benchmark.

    python3 perfbench/run.py --workload rerank_full --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                      # every workload, one process each

The program under test is the `proclip` package in `src/` of the checkout
that holds this file.  A run prints the environment, a report of every
metric under its own name, and, as its last line, one JSON object:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
Spans and full results go to `.bench_runs/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_runs")


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_blas_threads(nproc: int) -> None:
    """Cap BLAS threads at nproc in this process; call before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            cur = int(os.environ.get(var, nproc))
        except ValueError:
            cur = nproc
        os.environ[var] = str(max(1, min(cur, nproc)))


def _import_program():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import proclip
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import proclip from {src}: {exc}")
    if not os.path.abspath(proclip.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: proclip resolved outside {src}: {proclip.__file__}")
    return proclip


def run_one(args, pkg, workload) -> int:
    import bench

    env = bench.environment(_nproc())
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    workdir = stem + f"-{os.getpid()}.tmp"
    try:
        result, named, tracer, problems = bench.run_workload(
            workload, pkg, args.seed, args.seconds,
            bool(args.trace), workdir)
    except Exception:  # set-up or every operation failed: no result
        traceback.print_exc()
        print(f"perfbench: {args.workload} failed", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit, note) in named.items():
        print(f"  {name:<24} {value:>14.6g} {unit:<6} {note}")
    for name, m in result["metrics"].items():
        print(f"  {name:<24} {m['value']:>14.6g} {m['unit']}")
    for p in problems:
        print(f"  problem: {p}")
    if tracer is not None:
        tracer.write_csv(stem + "-spans.csv")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "named": {k: {"value": v, "unit": u, "note": n}
                             for k, (v, u, n) in named.items()},
                   "problems": problems, **result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result), flush=True)
    return 0


def run_all(args, names) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            code = 1
            continue
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, m in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = m
    if code == 0:
        print(json.dumps(total), flush=True)
    return code


def main(argv=None) -> int:
    cap_blas_threads(_nproc())  # before numpy loads
    pkg = _import_program()
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    return run_one(args, pkg, WORKLOADS[args.workload])


if __name__ == "__main__":
    sys.exit(main())
