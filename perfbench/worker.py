"""One workload in one process: generate, load, cross-validate, infer, check.

run.py starts this with BLAS pinned to one thread through the child's
environment and `src` on PYTHONPATH. It prints readable lines and, last, one
JSON object with the metrics, the output checks and the run's record.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

from kergnn import graphs, kernels, model, training

import calibrate
import spans
import synth
from workloads import WORKLOADS

MIN_CV_RUNS = 2  # two runs of one seed are compared for bit-reproducibility
MIN_INFER_PASSES = 3
SETUP_LOADS = (5, 25)  # at least / at most this many timed loads
SETUP_SECONDS = 1.5
KERNEL_CHECK_NODES = 12
KERNEL_RTOL = 1e-9


class Checks:
    """Output checks, counted as attempted and failed operations."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def environment() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


@dataclasses.dataclass
class Sample:
    raw_s: float  # wall seconds, less the calibration probes inside the sample
    calibration_s: float  # seconds per calibration repetition around and during it
    result: object

    @property
    def seconds(self) -> float:
        """Seconds at the reference machine speed (see calibrate.py)."""
        return self.raw_s * calibrate.REFERENCE_S / self.calibration_s


def trimmed_mean(values: list, cut: float = 0.1) -> float:
    """Mean without the highest and lowest `cut` share; a probe that lands
    on a page fault or a cache-cold moment should not set a sample's speed."""
    values = sorted(values)
    k = int(len(values) * cut)
    return statistics.fmean(values[k: len(values) - k])


def repeat(fn, calibration, budget_s: float, min_runs: int, max_runs: int | None = None) -> list:
    """Closed loop of calibrated samples until the budget would be overrun."""
    runs = []
    start = time.perf_counter()
    before = calibration.measure()
    while max_runs is None or len(runs) < max_runs:
        gc.collect()  # so one sample's garbage neither slows nor inflates the next
        raw, probes, result = calibration.timed(fn)
        after = calibration.measure()
        runs.append(Sample(raw, trimmed_mean([before, after] + probes), result))
        before = after
        elapsed = time.perf_counter() - start
        if len(runs) >= min_runs and elapsed + elapsed / len(runs) > budget_s:
            break
    return runs


def same_dataset(a, b) -> bool:
    return (len(a) == len(b) and a.attr_dim == b.attr_dim and a.num_classes == b.num_classes
            and all(x.graph_label == y.graph_label and np.array_equal(x.adjacency, y.adjacency)
                    and np.array_equal(x.attributes, y.attributes)
                    for x, y in zip(a.graphs, b.graphs)))


def digest_tree(root: str) -> dict:
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_cv(runs: list, ds, wl, checks: Checks):
    """Finite losses, accuracy above the majority rate, identical reruns."""
    counts = np.bincount(ds.labels())
    majority = counts.max() / counts.sum()
    # a constant predictor can beat the dataset rate by rounding on one test
    # split, so the model must beat it by more than one test graph
    test_size = len(ds) / wl.n_folds if wl.n_folds > 1 else 0.1 * len(ds)
    threshold = majority + 1.0 / test_size
    first = None
    for out_dir, result in (sample.result for sample in runs):
        losses = [x for h in result.histories for x in h["train_loss"]]
        accuracy = float(np.mean(result.fold_accuracies))
        checks.record(bool(np.all(np.isfinite(losses))), f"non-finite training loss in {out_dir}")
        checks.record(accuracy > threshold,
                      f"CV accuracy {accuracy:.4f} not above majority {majority:.4f} "
                      f"+ 1/{test_size:.0f}")
        record = (result.fold_accuracies, digest_tree(out_dir))
        if first is None:
            first = record
        else:
            checks.record(record == first, f"{out_dir} differs from the first run of this seed")
    return majority


def check_kernels(params, ds, rng, checks: Checks):
    """Layer-1 values of sampled nodes against the scalar kernel and the oracle.

    The workloads have no input map, so layer 1 sees the raw attributes.
    """
    layer = params.layers[0]
    cfg = layer.kernel_cfg
    for gi in rng.choice(len(ds), size=KERNEL_CHECK_NODES, replace=False):
        g = ds.graphs[gi]
        values = model.layer_forward(g, g.attributes, layer, post_relu=params.config.post_relu)
        v = int(rng.integers(g.num_nodes))
        sub = graphs.extract_subgraph(g, v, layer.hops, layer.k_max)
        worst = 0.0
        for i, filt in enumerate(layer.filters):
            refs = [kernels.rw_kernel(sub, filt, cfg,
                                      deep_weights=layer.deep_weights[i] if cfg.is_deep else None)]
            if not cfg.is_deep:
                refs.append(kernels.rw_kernel_oracle(filt, sub, cfg))
            for ref in refs:
                if params.config.post_relu:
                    ref = max(ref, 0.0)
                scale = max(abs(ref), abs(values[v, i]))
                if scale > 0:
                    worst = max(worst, abs(values[v, i] - ref) / scale)
        checks.record(worst <= KERNEL_RTOL,
                      f"graph {gi} node {v}: layer-1 value off the scalar kernel by "
                      f"rel {worst:.2e}")


def warm_up(ds, grid, seed, work_dir):
    """One short CV and a cold evaluate, so BLAS, imports and caches are warm."""
    labels = ds.labels()
    picks = [int(i) for c in np.unique(labels) for i in np.flatnonzero(labels == c)[:20]]
    small = ds.subset(picks)
    short = [dataclasses.replace(cfg, epochs=1) for cfg in grid]
    training.cross_validate(small, short, seed, 1, out_dir=os.path.join(work_dir, "warmup"))
    params, _, _ = model.load_checkpoint(os.path.join(work_dir, "warmup", "fold0", "best.ckpt"))
    training.evaluate(params, small)


def per_layer_metrics(tracer, folds: int, infer_graphs: int, shape: dict, scale: float,
                      overhead: float) -> dict:
    """Per-layer figures of the traced run; CV-phase figures are per outer fold.

    Times are multiplied by `scale`, the calibration factor of the traced
    samples, so they share the end-to-end metrics' reference speed.
    """
    cv = tracer.totals("cv")
    infer = tracer.totals("infer")
    counters = tracer.counters

    def per_fold(label, key):
        return cv[label][key] / folds if label in cv else 0.0

    def median_of(phase, label):
        values = tracer.durations(phase, label)
        return statistics.median(values) if values else 0.0

    distinct = sum(len(keys) for keys in tracer.stack_keys)
    slots = counters[("cv", "kernels.forward.slots")]
    values = {
        "graphs.load_tudataset.busy_s": (median_of("setup", "graphs.load_tudataset"), "s"),
        "graphs.stack_subgraphs.busy_s": (per_fold("graphs.stack_subgraphs", "busy"), "s"),
        "graphs.stack_subgraphs.calls": (per_fold("graphs.stack_subgraphs", "calls"), "count"),
        "graphs.stack_builds_per_graph": (
            cv["graphs.stack_subgraphs"]["calls"] / distinct if distinct else 0.0, "ratio"),
        "graphs.pad_fill": (
            counters[("cv", "kernels.forward.real_slots")] / slots if slots else 0.0, "ratio"),
        "graphs.truncated_frac": (shape["truncated_frac"], "ratio"),
        "kernels.forward.busy_s": (per_fold("kernels.forward", "busy"), "s"),
        "kernels.forward.calls": (per_fold("kernels.forward", "calls"), "count"),
        "kernels.backward.busy_s": (per_fold("kernels.backward", "busy"), "s"),
        "kernels.backward.calls": (per_fold("kernels.backward", "calls"), "count"),
        "kernels.forward.gflop": (counters[("cv", "kernels.forward.gflop")] / folds, "GFLOP"),
        "kernels.forward.intermediate_gb": (
            counters[("cv", "kernels.forward.intermediate_gb")] / folds, "GB"),
        "model.forward_graph.self_s": (per_fold("model.forward_graph", "self"), "s"),
        "model.forward_graph.calls": (per_fold("model.forward_graph", "calls"), "count"),
        "model.backward_graph.self_s": (per_fold("model.backward_graph", "self"), "s"),
        "model.save_checkpoint.busy_s": (per_fold("model.save_checkpoint", "busy"), "s"),
        "model.load_checkpoint.busy_s": (median_of("infer", "model.load_checkpoint"), "s"),
        "training.cross_validate.self_s": (per_fold("training.cross_validate", "self"), "s"),
        "training.train_fold.self_s": (per_fold("training.train_fold", "self"), "s"),
        "training.adam_step.busy_s": (per_fold("training.adam_step", "busy"), "s"),
        "training.adam_step.calls": (per_fold("training.adam_step", "calls"), "count"),
        "training.evaluate.busy_s": (per_fold("training.evaluate", "busy"), "s"),
        "training.evaluate.graphs": (counters[("cv", "training.evaluate.graphs")] / folds, "count"),
        "infer.stack_subgraphs.busy_s": (
            infer["graphs.stack_subgraphs"]["busy"] / infer_graphs, "s"),
        "infer.kernels.forward.busy_s": (infer["kernels.forward"]["busy"] / infer_graphs, "s"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    return {name: {"value": value * scale if unit == "s" else value, "unit": unit}
            for name, (value, unit) in values.items()}


def median_seconds(samples: list, divide: float = 1.0) -> float:
    return statistics.median(s.seconds for s in samples) / divide


def run(workload: str, seed: int, seconds: float, trace: bool, work_dir: str, trace_out: str):
    wl = WORKLOADS[workload]
    checks = Checks()
    calibration = calibrate.Calibration()
    env = environment()
    make = synth.mutag_like if wl.dataset == "mutag" else synth.imdb_like
    generated = make(seed)
    data_dir = os.path.join(work_dir, "data")
    graphs.save_tudataset(generated, data_dir)
    shape = synth.shape(generated, *wl.layer)
    grid = [training.TrainConfig(**cfg) for cfg in wl.grid]

    ds_name, loaded = generated.name, []

    def load():
        ds = graphs.load_tudataset(data_dir, ds_name)
        if not loaded:
            loaded.append(ds)  # later loads are dropped so they add no memory

    warm_up(generated, grid, seed, work_dir)
    loads = repeat(load, calibration, SETUP_SECONDS, *SETUP_LOADS)
    ds = loaded[0]
    checks.record(same_dataset(ds, generated), "loaded dataset differs from the generated one")
    del generated
    cv_count = itertools.count()

    def cv():
        """One cross_validate into a fresh output directory: (directory, CVResult)."""
        out_dir = os.path.join(work_dir, "cv", f"run{next(cv_count)}")
        return out_dir, training.cross_validate(ds, grid, seed, wl.n_folds, out_dir=out_dir)

    timings = {"setup_s": loads}

    if not trace:
        cv_runs = repeat(cv, calibration, 0.75 * seconds, MIN_CV_RUNS)
        fold0 = os.path.join(cv_runs[0].result[0], "fold0", "best.ckpt")
        params, _, _ = model.load_checkpoint(fold0)
        passes = repeat(lambda: training.evaluate(params, ds), calibration, 0.25 * seconds,
                        MIN_INFER_PASSES)
        for sample in passes:
            checks.record(sample.result == passes[0].result,
                          f"inference accuracy {sample.result} != first pass {passes[0].result}")
        timings.update(fold_s=cv_runs, infer_s=passes)
        metrics = {
            "setup_s": {"value": median_seconds(loads), "unit": "s"},
            "fold_s": {"value": median_seconds(cv_runs, wl.n_folds), "unit": "s"},
            "infer_graphs_per_s": {"value": len(ds) / median_seconds(passes), "unit": "graphs/s"},
        }
    else:
        untraced = repeat(cv, calibration, 0.45 * seconds, 1)
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.phase = "setup"
            for _ in range(3):
                load()
            tracer.phase = "cv"

            def traced_cv():
                tracer.new_cv_run()
                return cv()

            traced = repeat(traced_cv, calibration, 0.45 * seconds, 1)
            tracer.phase = "infer"
            fold0 = os.path.join(traced[0].result[0], "fold0", "best.ckpt")
            for _ in range(3):
                params, _, _ = model.load_checkpoint(fold0)
            training.evaluate(params, ds)
        finally:
            tracer.phase = "idle"
            tracer.uninstall()
        cv_runs = untraced + traced
        timings.update(fold_s=untraced, fold_s_traced=traced)
        scale = calibrate.REFERENCE_S / statistics.fmean(s.calibration_s for s in traced)
        overhead = median_seconds(traced) / median_seconds(untraced) - 1.0
        metrics = per_layer_metrics(tracer, len(traced) * wl.n_folds, len(ds), shape, scale,
                                    overhead)
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
        tracer.write(trace_out)

    majority = check_cv(cv_runs, ds, wl, checks)
    check_kernels(params, ds, np.random.default_rng([seed, 0x4B]), checks)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not trace:
        metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
    return {
        "result": {"correct": not checks.failures, "attempted": checks.attempted,
                   "failed": len(checks.failures), "metrics": metrics},
        "workload": workload,
        "seed": seed,
        "env": env,
        "shape": shape,
        "majority_rate": majority,
        "cv_accuracy": [float(np.mean(s.result[1].fold_accuracies)) for s in cv_runs],
        "samples": {name: {"raw_s": [s.raw_s for s in runs],
                           "calibration_s": [s.calibration_s for s in runs]}
                    for name, runs in timings.items()},
        "failures": checks.failures,
        "absent_symbols": tracer.absent if trace else [],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args(argv)
    report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.work_dir,
                 args.trace_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
