"""Paired benchmark runs of two checkouts, parent against change.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload prune_narrow --pairs 10 --claim prune_narrow.op_p50_ms:0.20 \\
        -o BENCH.json

Each pair runs `perfbench/run.py` of both checkouts, unchanged, one workload
at a time, with the same seed, budget and environment; the side that runs
first alternates from pair to pair, so a drift of machine speed loads both
sides alike.  The JSON written holds, per workload and per end-to-end
metric of the change's `BENCHMARK.json`: every run's value, the medians,
the parent's interquartile range, the change's relative difference and its
wins (pairs in which the change is better).  It also holds `run.py`'s `env`
block of each side, the failed operations of every run, and the claim: a
metric that must improve by a given fraction, win in at least nine of ten
pairs, and move its median by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
CLAIM_WIN_SHARE = 0.9


def _env() -> dict:
    """The environment of every run: this one, minus anything that could
    import another copy of the program."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return env


def run_once(checkout: str, workload: str, seed: int, seconds: float, env: dict) -> dict:
    """One `run.py` process: its env block, end-to-end metrics and failures."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    result = json.loads(lines[-1])
    env_line = next((ln for ln in lines if ln.startswith("env ")), "env {}")
    return {"env": json.loads(env_line[4:]),
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"]}


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(parent: list, change: list, better: str, bound: float) -> dict:
    """Paired values of one metric: medians, the parent's IQR, the change's
    relative difference (negative is lower), wins and the regression verdict."""
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = _quartiles(parent)
    rel = (c_med - p_med) / p_med if p_med else 0.0
    return {"better": better, "bound": bound, "parent": parent, "change": change,
            "parent_median": p_med, "change_median": c_med,
            "parent_iqr": q3 - q1, "relative_change": rel,
            "wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "regressed": sign * rel > bound}


def judge_claim(summary: dict, min_gain: float) -> dict:
    """A claimed gain holds when the median improves by at least min_gain,
    the change wins in at least 90% of the pairs, and the medians differ by
    more than the parent's interquartile range."""
    sign = 1.0 if summary["better"] == "lower" else -1.0
    gain = -sign * summary["relative_change"]
    pairs = len(summary["parent"])
    moved = abs(summary["change_median"] - summary["parent_median"])
    return {"min_gain": min_gain, "gain": gain, "wins": summary["wins"], "pairs": pairs,
            "holds": (gain >= min_gain and summary["wins"] >= CLAIM_WIN_SHARE * pairs
                      and moved > summary["parent_iqr"])}


def _commit(checkout: str) -> str | None:
    proc = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def bench_pairs(parent: str, change: str, workloads: list, pairs: int, seed: int,
                seconds: float, claim: tuple | None = None) -> dict:
    with open(os.path.join(change, "BENCHMARK.json"), encoding="utf-8") as fh:
        gated = json.load(fh)["end_to_end"]
    env = _env()
    dirs = {"parent": parent, "change": change}
    out = {"commits": {side: _commit(dirs[side]) for side in SIDES},
           "seed": seed, "seconds": seconds, "pairs": pairs,
           "env": {}, "workloads": {}}
    for workload in workloads:
        runs: dict = {side: [] for side in SIDES}
        for i in range(pairs):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                run = run_once(dirs[side], workload, seed, seconds, env)
                runs[side].append(run)
                out["env"].setdefault(side, run["env"])
                print(f"{workload} pair {i} {side}: " + " ".join(
                    f"{k}={v:.4g}" for k, v in run["metrics"].items()), flush=True)
        report = {"failed": {side: [r["failed"] for r in runs[side]] for side in SIDES},
                  "attempted": {side: [r["attempted"] for r in runs[side]] for side in SIDES}}
        for m in gated:
            values = {side: [r["metrics"][m["name"]] for r in runs[side]] for side in SIDES}
            report[m["name"]] = summarize(values["parent"], values["change"],
                                          m["better"], m["bound"])
        out["workloads"][workload] = report
    if claim is not None:
        workload, metric, min_gain = claim
        if metric not in out["workloads"][workload]:
            raise ValueError(f"claimed metric {metric} is not an end-to-end metric")
        out["claim"] = {"workload": workload, "metric": metric,
                        **judge_claim(out["workloads"][workload][metric], min_gain)}
    return out


def _parse_claim(text: str) -> tuple:
    """`workload.metric:min_gain`, as in `prune_narrow.op_p50_ms:0.20`."""
    target, _, gain = text.partition(":")
    workload, _, metric = target.partition(".")
    if not (workload and metric and gain):
        raise argparse.ArgumentTypeError(f"claim {text!r} is not workload.metric:min_gain")
    return workload, metric, float(gain)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True,
                    help="a perfbench workload; repeat for more")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--claim", type=_parse_claim, help="workload.metric:min_gain")
    ap.add_argument("-o", "--output", required=True, help="JSON output path")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.claim and args.claim[0] not in args.workload:
        ap.error(f"claimed workload {args.claim[0]} is not benchmarked")
    result = bench_pairs(os.path.abspath(args.parent), os.path.abspath(args.change),
                         args.workload, args.pairs, args.seed, args.seconds, args.claim)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if "claim" in result:
        c = result["claim"]
        print(f"claim {c['workload']}.{c['metric']}: gain {c['gain']:+.1%}, "
              f"{c['wins']}/{c['pairs']} wins, holds={c['holds']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
