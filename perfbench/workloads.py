"""The benchmark's workloads: which dataset, which grid, how many folds.

Why each exists is recorded in BENCHMARK.json and README.md.

Configs are plain dicts of `TrainConfig` fields so that this module imports
nothing from the package.
"""

from __future__ import annotations

from dataclasses import dataclass

# Paper default layer: 16 filters of 6 nodes on 1-hop subgraphs of <= 10 nodes.
# Spelled out so that a later change of a package default does not change a workload.
PAPER_LAYER = dict(num_filters=16, filter_nodes=6, k_max=10, hops=1, mlp_hidden=[32],
                   lr=0.01, dropout=0.0)


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  # "mutag" or "imdb", a generator in synth.py
    grid: tuple  # TrainConfig field dicts; cross_validate selects among them
    n_folds: int

    @property
    def layer(self) -> tuple:
        """(hops, k_max) of the first layer, for the dataset shape record."""
        cfg = {**PAPER_LAYER, **self.grid[0]}
        return cfg["hops"], cfg["k_max"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mutag-cv",
            dataset="mutag",
            # batch 16: with 32, 7 of 31 seeds ended at the constant-predictor rate
            grid=tuple({**PAPER_LAYER, "epochs": 3, "batch_size": 16, "walk_length": p}
                       for p in (1, 2)),
            n_folds=3,
        ),
        Workload(
            name="imdb-holdout",
            dataset="imdb",
            # lambda_p = 0.1^p, the usual random-walk decay below 1/degree. With unit
            # weights the raw degree feature (up to ~19) saturates the softmax and
            # the model never leaves the majority rate on this input.
            grid=({**PAPER_LAYER, "epochs": 3, "batch_size": 32, "walk_length": 2,
                   "lambdas": [1.0, 0.1, 0.01]},),
            n_folds=1,
        ),
        Workload(
            name="mutag-deep",
            dataset="mutag",
            # lambda_p = 1e-3 keeps every layer's features O(1) at init. With unit
            # weights they reach ~1e3, ~1e9 and ~1e20 over three layers (the kernel
            # squares magnitudes per layer) and accuracy is a coin flip per seed.
            # batch 8: with 32, 2 of 31 seeds ended at the constant-predictor rate.
            grid=({**PAPER_LAYER, "epochs": 3, "batch_size": 8, "num_layers": 3,
                   "kernel_variant": "deep", "walk_length": 3, "hops": 2, "k_max": 12,
                   "lambdas": [1e-3] * 4},),
            n_folds=1,
        ),
    )
}
