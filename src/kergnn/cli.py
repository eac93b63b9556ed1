"""Command-line interface.

Exit codes: 0 success, 1 usage error (bad flags or missing paths), 2 data
error (malformed dataset/config/checkpoint files), 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import CheckpointError, ConfigError, DatasetError, TrainingError
from .graphs import dataset_stats, load_tudataset, read_graph_file
from .kernels import RWKernelConfig, rw_kernel_oracle, walk_kernel
from .model import export_filters, load_checkpoint
from .training import TrainConfig, cross_validate
from .wl import wl_test

TUNED_MAX_WALK = 5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _require_file(path: str, flag: str) -> str:
    if not os.path.isfile(path):
        raise _UsageError(f"{flag}: no such file: {path}")
    return path


def _require_dir(path: str, flag: str) -> str:
    if not os.path.isdir(path):
        raise _UsageError(f"{flag}: no such directory: {path}")
    return path


def cmd_train(args) -> int:
    _require_dir(args.dataset_dir, "--dataset-dir")
    _require_file(args.config, "--config")
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad JSON in {args.config}: {exc}") from exc
    cfg = TrainConfig.from_dict(raw)
    cfg.validate()
    seed = args.seed if args.seed is not None else cfg.seed

    ds = load_tudataset(args.dataset_dir, args.dataset_name)
    t0 = time.perf_counter()
    result = cross_validate(ds, cfg, seed=seed, n_folds=args.folds, out_dir=args.out)
    elapsed = time.perf_counter() - t0

    payload = {
        "result": {**result.to_dict(), "histories": result.histories,
                   "dataset": args.dataset_name, "seed": seed, "folds": args.folds},
        "meta": {
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "timing": {"total_seconds": elapsed, "epoch_seconds": result.epoch_seconds},
        },
    }
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "results.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"accuracy: {result.mean:.4f} +- {result.std:.4f}")
    print(f"results written to {out_path}")
    return 0


def _kernel_cfg(args) -> RWKernelConfig:
    lambdas = None
    if args.lambdas:
        lambdas = [float(x) for x in args.lambdas.split(",")]
    return RWKernelConfig(args.p, lambdas)


def cmd_kernel(args) -> int:
    _require_file(args.graph_a, "--graph-a")
    _require_file(args.graph_b, "--graph-b")
    if args.p > TUNED_MAX_WALK:
        print(f"warning: P={args.p} exceeds the tuned range (<= {TUNED_MAX_WALK})",
              file=sys.stderr)
    cfg = _kernel_cfg(args)
    g1 = read_graph_file(args.graph_a)
    g2 = read_graph_file(args.graph_b)
    value = walk_kernel(g1.adjacency, g1.attributes, g2.adjacency, g2.attributes, cfg)
    if args.oracle:
        reference = rw_kernel_oracle(g1, g2, cfg)
        print(f"kernel (hadamard): {value!r}")
        print(f"kernel (direct-product): {reference!r}")
        print(f"abs difference: {abs(value - reference)!r}")
    else:
        print(f"kernel: {value!r}")
    return 0


def cmd_export_filters(args) -> int:
    _require_file(args.checkpoint, "--checkpoint")
    params, _, _ = load_checkpoint(args.checkpoint)
    written = export_filters(params, args.out_dir)
    print(f"wrote {len(written)} DOT files to {args.out_dir}")
    return 0


def cmd_wl_test(args) -> int:
    _require_file(args.graph_a, "--graph-a")
    _require_file(args.graph_b, "--graph-b")
    g1 = read_graph_file(args.graph_a)
    g2 = read_graph_file(args.graph_b)
    print(wl_test(g1, g2, args.iters))
    return 0


def cmd_dataset_info(args) -> int:
    _require_dir(args.dataset_dir, "--dataset-dir")
    ds = load_tudataset(args.dataset_dir, args.dataset_name)
    stats = dataset_stats(ds)
    print(f"graphs: {stats.graphs}")
    print(f"classes: {stats.classes}")
    print(f"avg_nodes: {stats.avg_nodes:.2f}")
    print(f"attr_dim: {stats.attr_dim}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kergnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="cross-validated training on a TUDataset directory")
    p.add_argument("--dataset-dir", required=True)
    p.add_argument("--dataset-name", required=True)
    p.add_argument("--config", required=True, help="flat JSON training config")
    p.add_argument("--out", required=True, help="output directory for results and checkpoints")
    p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    p.add_argument("--folds", type=int, default=10)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("kernel", help="random walk kernel between two graph files")
    p.add_argument("--graph-a", required=True)
    p.add_argument("--graph-b", required=True)
    p.add_argument("--p", type=int, default=2, help="maximum walk length")
    p.add_argument("--lambdas", default=None, help="comma-separated per-step weights")
    p.add_argument("--oracle", action="store_true",
                   help="also compute the direct-product value and the difference")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("export-filters", help="write trained graph filters as DOT files")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_export_filters)

    p = sub.add_parser("wl-test", help="1-WL indistinguishability test on two graph files")
    p.add_argument("--graph-a", required=True)
    p.add_argument("--graph-b", required=True)
    p.add_argument("--iters", type=int, default=20)
    p.set_defaults(func=cmd_wl_test)

    p = sub.add_parser("dataset-info", help="summary statistics of a TUDataset directory")
    p.add_argument("--dataset-dir", required=True)
    p.add_argument("--dataset-name", required=True)
    p.set_defaults(func=cmd_dataset_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DatasetError, CheckpointError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
