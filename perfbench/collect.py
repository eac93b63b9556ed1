"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/collect.py --workloads mutag-cv imdb-holdout --seeds 10 \
        --out perfbench/baseline.json

For every workload and metric it reports the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median, the
figure the bounds in BENCHMARK.json are checked against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs.append(one_run(workload, seed, bench["run_seconds"]))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            metrics[name] = {"unit": first["unit"],
                             **summarise([r["metrics"][name]["value"] for r in runs])}
        summary["workloads"][workload] = {
            "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
        }
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = "" if bound is None else (
                f"  bound {bound}: {'ok' if m['spread'] < bound / 3 else 'WIDE'}")
            print(f"  {workload} {name}: median {m['median']:.5g} {m['unit']}, "
                  f"spread {m['spread']:.4f}{flag}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
