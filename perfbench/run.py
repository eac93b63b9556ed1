"""kergnn benchmark: CV fold time, cold inference throughput, set-up and memory.

Usage, from the repository root:

    python3 perfbench/run.py --workload mutag-cv --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Each workload runs in its own child process (worker.py) with one BLAS thread,
pinned through the child's environment only. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones from a traced run. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD_TIMEOUT_S = 170
PINNED = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                 "NUMEXPR_NUM_THREADS")}


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The worker's report; raises RuntimeError if it fails or prints none."""
    work_dir = os.path.join(WORK, f"{workload}-seed{seed}-trace{trace}-{os.getpid()}")
    trace_out = os.path.join(WORK, "traces", f"{workload}-seed{seed}.json.gz")
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir, "--trace-out", trace_out]
    try:
        # run() kills the child on timeout and waits for it to end
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"{workload}: worker exceeded {CHILD_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def describe(report: dict) -> list:
    res = report["result"]
    lines = [
        f"== {report['workload']} (seed {report['seed']}): {res['failed']} failed / "
        f"{res['attempted']} attempted",
        f"   env   {json.dumps(report['env'], sort_keys=True)}",
        f"   shape {json.dumps({k: round(v, 4) for k, v in report['shape'].items()})}",
        f"   cv accuracy {[round(a, 4) for a in report['cv_accuracy']]} "
        f"(majority rate {report['majority_rate']:.4f})",
    ]
    for name, samples in report["samples"].items():
        raw = samples["raw_s"]
        lines.append(f"   {name}: {len(raw)} samples, raw median {statistics.median(raw):.4g} s, "
                     f"calibration median {statistics.median(samples['calibration_s']):.4g} s")
    for name, metric in report["result"]["metrics"].items():
        lines.append(f"   {name:36s} {metric['value']:14.6g} {metric['unit']}")
    lines += [f"   FAILED: {f}" for f in report["failures"]]
    if report["absent_symbols"]:
        lines.append(f"   absent from the package, reported as 0: {report['absent_symbols']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(SRC, "kergnn", "__init__.py")):
        print(f"error: the kergnn sources are not at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        try:
            reports.append(run_workload(name, args.seed, args.seconds, args.trace))
        except (RuntimeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for line in describe(reports[-1]):
            print(line, flush=True)

    if len(reports) == 1:
        result = reports[0]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in reports),
            "attempted": sum(r["result"]["attempted"] for r in reports),
            "failed": sum(r["result"]["failed"] for r in reports),
            "metrics": {f"{r['workload']}.{name}": m for r in reports
                        for name, m in r["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
