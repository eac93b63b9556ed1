"""Loss, Adam, learning-rate schedule, and the cross-validation harness.

Model assessment follows a stratified 10-fold outer split; model selection
inside each fold uses a stratified 90/10 train/validation split and picks the
grid candidate (and epoch) with the best validation accuracy. The selected
model is evaluated on the held-out fold; fold accuracies are aggregated as
mean +- std.

Everything is driven by integer seeds through numpy SeedSequence spawning, so
(dataset, grid, seed) fully determines the result.
"""

from __future__ import annotations

import json
import numbers
import os
import time
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .errors import ConfigError, TrainingError, plain_value
from .graphs import Dataset
from .model import (
    LayerSpec,
    ModelConfig,
    ModelParams,
    backward_batch,
    forward_batch,
    init_params,
    packed_chunks,
    predict_logits,
    save_checkpoint,
)

__all__ = [
    "TrainConfig",
    "CVResult",
    "Adam",
    "learning_rate_at",
    "softmax_cross_entropy",
    "train_fold",
    "grid_search",
    "cross_validate",
    "evaluate",
    "stratified_kfold",
    "stratified_split",
    "load_splits",
]


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


# TrainConfig field annotations (strings, see the __future__ import) -> value checks
_TYPE_CHECKS = {
    "int": _is_int,
    "float": _is_real,
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "tuple[int, ...]": lambda v: isinstance(v, tuple) and all(map(_is_int, v)),
    "tuple[float, ...]": lambda v: isinstance(v, tuple) and all(map(_is_real, v)),
    "None": lambda v: v is None,
}


@dataclass(frozen=True)
class TrainConfig:
    """Flat training + model hyperparameters (mirrors the JSON config file)."""

    lr: float = 0.01
    lr_half_every: int = 50
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    dropout: float = 0.0
    grad_clip: float | None = None
    num_layers: int = 1
    num_filters: int | tuple[int, ...] = 16
    filter_nodes: int | tuple[int, ...] = 6
    k_max: int = 10
    hops: int = 1
    walk_length: int = 2
    lambdas: tuple[float, ...] | None = None
    kernel_variant: str = "plain"
    input_map_dim: int | None = None
    mlp_hidden: tuple[int, ...] = (32,)
    post_relu: bool = False

    def __post_init__(self):
        # JSON lists become tuples with their entries as given; validate checks them
        for name in ("num_filters", "filter_nodes", "mlp_hidden", "lambdas"):
            v = getattr(self, name)
            if isinstance(v, list):
                object.__setattr__(self, name, tuple(v))
        if not isinstance(self.mlp_hidden, tuple):
            object.__setattr__(self, "mlp_hidden", (self.mlp_hidden,))

    def _per_layer(self, v) -> list:
        if isinstance(v, tuple):
            if len(v) != self.num_layers:
                raise ConfigError(f"per-layer list has {len(v)} entries for {self.num_layers} layers")
            return list(v)
        return [v] * self.num_layers

    def validate(self):
        """Field types and training settings here; the model fields are checked
        by building the ModelConfig they describe."""
        for f in fields(self):
            value = getattr(self, f.name)
            if not any(_TYPE_CHECKS[t.strip()](value) for t in f.type.split("|")):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        # each range test is written so that nan fails it
        for name, ok, want in (
            ("lr", 0 < self.lr < np.inf, "finite and > 0"),
            ("grad_clip", self.grad_clip is None or self.grad_clip > 0, "> 0"),
            ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
            ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
            ("eps", 0 < self.eps < np.inf, "finite and > 0"),
            ("epochs", self.epochs >= 1, ">= 1"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("lr_half_every", self.lr_half_every >= 1, ">= 1"),
            ("num_layers", self.num_layers >= 0, ">= 0"),
            ("seed", self.seed >= 0, ">= 0"),
        ):
            if not ok:
                raise ConfigError(f"{name} must be {want}, got {getattr(self, name)!r}")
        self.model_config(attr_dim=1, num_classes=1)

    def model_config(self, attr_dim: int, num_classes: int) -> ModelConfig:
        filters = self._per_layer(self.num_filters)
        nodes = self._per_layer(self.filter_nodes)
        layers = [
            LayerSpec(num_filters=f, filter_nodes=n, k_max=self.k_max, hops=self.hops)
            for f, n in zip(filters, nodes)
        ]
        return ModelConfig(
            attr_dim=attr_dim,
            num_classes=num_classes,
            layers=tuple(layers),
            walk_length=self.walk_length,
            lambdas=self.lambdas,
            kernel_variant=self.kernel_variant,
            input_map_dim=self.input_map_dim,
            mlp_hidden=self.mlp_hidden,
            dropout=self.dropout,
            post_relu=self.post_relu,
        )

    def to_dict(self) -> dict:
        """The fields in JSON types: tuples as lists, numpy scalars as Python numbers."""
        def plain(v):
            if isinstance(v, tuple):
                return [plain(x) for x in v]
            return v.item() if isinstance(v, np.generic) else v

        return {name: plain(v) for name, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(f"bad training config: {exc}") from exc


@dataclass
class CVResult:
    fold_accuracies: list
    mean: float
    std: float
    selected_configs: list
    epoch_seconds: list
    histories: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "fold_accuracies": self.fold_accuracies,
            "mean": self.mean,
            "std": self.std,
            "selected_configs": self.selected_configs,
        }


def learning_rate_at(cfg: TrainConfig, epoch: int) -> float:
    """Halve the initial rate every lr_half_every epochs (epoch is 0-based)."""
    return cfg.lr * 0.5 ** (epoch // cfg.lr_half_every)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """(losses (B,), dlosses/dlogits (B, C)) of logits (B, C) and integer labels (B,);
    row b of the gradient is that of losses[b] alone."""
    rows = np.arange(len(labels))
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    losses = -np.log(np.maximum(probs[rows, labels], 1e-300))
    dlogits = probs.copy()
    dlogits[rows, labels] -= 1.0
    return losses, dlogits


class Adam:
    """Standard Adam with bias correction over params.flat, every trainable
    tensor at once; m and v are vectors laid out like it."""

    def __init__(self, params: ModelParams, beta1=0.9, beta2=0.999, eps=1e-8):
        self.flat = params.flat
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.t = 0

    def step(self, grad: np.ndarray, lr: float):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        m, v = self.m, self.v
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad * grad
        self.flat -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def _graphs_of(data) -> list:
    graphs = list(data.graphs) if isinstance(data, Dataset) else list(data)
    for i, g in enumerate(graphs):
        if g.graph_label is None:
            raise ValueError(f"graph {i} has no graph_label")
    return graphs


def evaluate(params: ModelParams, graphs) -> float:
    """Eval-mode accuracy over labeled graphs; their stacks, or the (P+1, d^2)
    Gram maps summed over the nodes of a lone layer-1 in the "summed" form,
    stay on them (Graph.stacks, Graph.gram_maps; model._layer_forms)."""
    graphs = _graphs_of(graphs)
    if not graphs:
        raise ValueError("cannot evaluate on an empty split")
    predicted = np.argmax(predict_logits(graphs, params), axis=1)
    correct = np.count_nonzero(predicted == [g.graph_label for g in graphs])
    return int(correct) / len(graphs)


def _batch_step(graphs, params, rng):
    """(mean loss, mean gradient vector, correct predictions) of a minibatch, by one
    packed forward and backward per chunk (model.packed_chunks); chunks add up
    in order. A graph counts as correct when the argmax of the logits its loss
    is taken of is its label.

    The first chunk whose losses are not all finite raises TrainingError
    before its backward, and no later chunk is forwarded. The error names the
    shallowest tensor of that chunk's forward (BatchForward.feats) holding a
    non-finite value: the input map's features, then each layer's (a "summed"
    layer's graph sums), else the MLP logits. Each loss is at most
    -log(1e-300) ~ 691, so the batch mean is non-finite exactly when some
    chunk's loss is."""
    # one dropout seed per graph is drawn even without dropout, so the rng
    # stream (every later shuffle and init) does not depend on the dropout rate
    seeds = rng.integers(0, 2**63 - 1, size=len(graphs))
    labels = np.array([g.graph_label for g in graphs])
    total = np.zeros_like(params.flat)
    loss = 0.0
    correct = 0
    for start, stop in packed_chunks(graphs, params):
        rngs = None
        if params.config.dropout > 0:
            rngs = [np.random.default_rng(seed) for seed in seeds[start:stop]]
        fwd = forward_batch(graphs[start:stop], params, rngs)
        losses, dlogits = softmax_cross_entropy(fwd.logits, labels[start:stop])
        if not np.isfinite(losses).all():
            # without an input map, feats[0] is the raw attributes and is not named
            names = ["input_map features"] * (params.input_map is not None)
            names += [f"layers.{l} features" for l in range(len(params.layers))]
            tensors = fwd.feats[len(fwd.feats) - len(names):]
            where = next((name for name, x in zip(names, tensors) if not np.isfinite(x).all()),
                         "the MLP logits")
            raise TrainingError(f"{where} are the first non-finite tensor")
        loss += float(losses.sum())
        correct += int(np.count_nonzero(np.argmax(fwd.logits, axis=1) == labels[start:stop]))
        total += backward_batch(fwd, dlogits, params)
    scale = 1.0 / len(graphs)
    total *= scale
    return loss * scale, total, correct


def _clip_grads(grad: np.ndarray, max_norm: float):
    """Scale grad in place to L2 norm max_norm if its one global norm is larger;
    the norm is taken of grad / max|grad|, so a finite gradient cannot overflow it."""
    top = np.max(np.abs(grad), initial=0.0)
    norm = top * np.linalg.norm(grad / top) if top > 0 else 0.0
    if norm > max_norm:
        grad *= max_norm / norm


def train_fold(train_set, val_set, cfg: TrainConfig, rng):
    """Train on train_set; return the parameters of the best-validation epoch.

    Ties in validation accuracy go to the earliest epoch. The history holds one
    entry per epoch in each of:
      train_loss     mean of the minibatch mean losses of the epoch;
      train_acc      share of training graphs classified right by the epoch's
                     minibatch forwards (train mode: dropout if configured,
                     parameters updated batch by batch);
      val_acc        eval-mode accuracy on val_set after the epoch;
      lr, epoch_seconds  learning rate and wall time of the epoch.
    Subgraph stacks are built once per graph and kept on it (see
    Graph.stacks), so later epochs, candidates and folds reuse them. A lone
    Gram-form layer on the raw attributes without post_relu keeps only its
    Gram maps summed over the graph's nodes, (P+1) d^2 floats per graph
    (Graph.gram_maps), and no stack (model._layer_forms). A minibatch whose
    loss is not finite raises TrainingError naming the epoch, the batch and
    the first non-finite tensor (_batch_step).
    """
    cfg.validate()
    train_graphs = _graphs_of(train_set)
    val_graphs = _graphs_of(val_set)
    if not train_graphs or not val_graphs:
        raise ValueError("train and validation splits must be nonempty")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)

    sample = train_graphs[0]
    num_classes = max(g.graph_label for g in train_graphs + val_graphs) + 1
    if isinstance(train_set, Dataset):
        num_classes = train_set.num_classes
    params = init_params(cfg.model_config(sample.attr_dim, num_classes), rng)
    opt = Adam(params, cfg.beta1, cfg.beta2, cfg.eps)

    history = {"train_loss": [], "train_acc": [], "val_acc": [], "lr": [], "epoch_seconds": []}
    best_acc = -1.0
    best_epoch = -1
    best_snapshot = params.flat.copy()

    order = np.arange(len(train_graphs))
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        lr = learning_rate_at(cfg, epoch)
        rng.shuffle(order)
        losses = []
        correct = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_graphs[i] for i in order[start: start + cfg.batch_size]]
            try:
                loss, grad, batch_correct = _batch_step(batch, params, rng)
            except TrainingError as exc:
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}: {exc}"
                ) from None
            if cfg.grad_clip is not None:
                _clip_grads(grad, cfg.grad_clip)
            opt.step(grad, lr)
            losses.append(loss)
            correct += batch_correct
        val_acc = evaluate(params, val_graphs)
        history["train_loss"].append(float(np.mean(losses)))
        history["train_acc"].append(correct / len(train_graphs))
        history["val_acc"].append(val_acc)
        history["lr"].append(lr)
        history["epoch_seconds"].append(time.perf_counter() - t0)
        if val_acc > best_acc:
            best_acc = val_acc
            best_epoch = epoch
            best_snapshot = params.flat.copy()

    params.flat[:] = best_snapshot
    history["best_epoch"] = best_epoch
    history["best_val_acc"] = best_acc
    return params, history


def _grid_candidates(grid) -> list:
    if isinstance(grid, TrainConfig):
        return [grid]
    return list(grid)


def _grid_search_full(train_set, val_set, grid, rng):
    candidates = _grid_candidates(grid)
    if not candidates:
        raise ValueError("grid must contain at least one configuration")
    seeds = rng.integers(0, 2**63 - 1, size=len(candidates))
    best = None
    for cfg, seed in zip(candidates, seeds):
        try:
            cfg.validate()
        except ConfigError:
            continue
        params, history = train_fold(train_set, val_set, cfg, int(seed))
        score = history["best_val_acc"]
        if best is None or score > best[2]:
            best = (cfg, params, score, history)
    if best is None:
        raise ValueError("no valid configuration in grid")
    return best


def grid_search(train_set, val_set, grid, rng) -> TrainConfig:
    """Candidate with the best validation accuracy; ties keep grid order."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    return _grid_search_full(train_set, val_set, grid, rng)[0]


def load_splits(path: str) -> list:
    """Fold indices from a JSON file: [{"train": [...], "test": [...]}, ...],
    each index list a flat list of JSON integers in the int64 range."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"bad JSON in {path}: {exc}") from exc
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{path}: expected a nonempty list of fold objects")
    splits = []
    for k, fold in enumerate(raw):
        if not isinstance(fold, dict) or not all(
                isinstance(fold.get(key), list)
                and all(_is_int(i) and -2**63 <= i < 2**63 for i in fold[key])
                for key in ("train", "test")):
            raise ConfigError(f"{path}: fold {k} needs 'train' and 'test' lists of integers")
        train = np.array(fold["train"], dtype=np.int64)
        test = np.array(fold["test"], dtype=np.int64)
        if np.intersect1d(train, test).size:
            raise ConfigError(f"{path}: fold {k} train/test overlap")
        splits.append((train, test))
    return splits


def stratified_kfold(labels: np.ndarray, k: int, rng: np.random.Generator) -> list:
    """Disjoint covering folds with per-class counts balanced within one."""
    labels = np.asarray(labels)
    folds = [[] for _ in range(k)]
    cursor = 0
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        for i, v in enumerate(idx):
            folds[(cursor + i) % k].append(int(v))
        cursor += len(idx)
    return [np.array(sorted(f), dtype=np.int64) for f in folds]


def stratified_split(labels: np.ndarray, holdout_frac: float, rng: np.random.Generator):
    """(train_idx, holdout_idx) with at least one holdout graph per class."""
    labels = np.asarray(labels)
    train, hold = [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        n_hold = max(1, int(round(len(idx) * holdout_frac)))
        hold.extend(int(v) for v in idx[:n_hold])
        train.extend(int(v) for v in idx[n_hold:])
    return np.array(sorted(train), dtype=np.int64), np.array(sorted(hold), dtype=np.int64)


def _checked_split(k: int, split) -> tuple:
    """(train, test) of a given split as arrays, each nonempty, 1-D and of an
    integer dtype (bool would mask, float would not index)."""
    try:
        train_idx, test_idx = split
        arrays = (np.asarray(train_idx), np.asarray(test_idx))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"split {k}: expected a (train, test) pair of index arrays") from exc
    for name, idx in zip(("train", "test"), arrays):
        if idx.ndim != 1 or idx.size == 0:
            raise ConfigError(f"split {k}: {name} indices must be a nonempty 1-D array, "
                              f"got shape {idx.shape}")
        if idx.dtype.kind not in "iu":
            raise ConfigError(f"split {k}: {name} indices must be integers, got dtype {idx.dtype}")
    return arrays


def cross_validate(ds: Dataset, grid, seed: int, n_folds: int = 10,
                   out_dir: str | None = None, splits: list | None = None) -> CVResult:
    """Stratified n-fold assessment with inner 90/10 holdout model selection.

    `grid` is a TrainConfig or a list of them. With n_folds=1 a single
    stratified 90/10 train/test holdout is evaluated. Pre-computed splits
    (list of (train_indices, test_indices) pairs) override fold generation;
    each side must be a nonempty 1-D integer array with indices in
    [0, len(ds)), train and test must not overlap, and some class must have
    two training graphs, so that the inner split leaves one to train on.
    Every split, or else n_folds (an integer >= 1), is checked before any
    fold trains, and a bad one raises ConfigError.
    """
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    labels = ds.labels()
    counts = np.bincount(labels, minlength=ds.num_classes)
    if splits is not None:
        try:
            splits = list(splits)
        except TypeError as exc:
            raise ConfigError(f"splits must be a list of (train, test) pairs, got {splits!r}") from exc
        if not splits:
            raise ConfigError("splits must hold at least one (train, test) pair")
        splits = [_checked_split(k, split) for k, split in enumerate(splits)]
        for k, (train_idx, test_idx) in enumerate(splits):
            both = np.concatenate([train_idx, test_idx])
            if np.any((both < 0) | (both >= len(ds))):
                raise ConfigError(f"split {k}: indices must lie in [0, {len(ds)})")
            if np.intersect1d(train_idx, test_idx).size:
                raise ConfigError(f"split {k}: train/test overlap")
            # the inner split holds out at least one graph of each class
            if np.all(np.bincount(labels[train_idx]) < 2):
                raise ConfigError(f"split {k}: the inner validation split would take every "
                                  f"training graph; some class needs 2 training graphs")
    else:
        n_folds = plain_value("n_folds", n_folds, int)
        if n_folds < 1:
            raise ConfigError(f"n_folds must be >= 1, got {n_folds}")
        if np.any(counts < max(n_folds, 2)):
            raise ValueError(
                f"stratification needs at least {max(n_folds, 2)} graphs per class, got {counts.tolist()}"
            )

    ss = np.random.SeedSequence(seed)
    fold_ss = ss.spawn(1)[0]
    if splits is None:
        fold_rng = np.random.default_rng(fold_ss)
        if n_folds == 1:
            train_idx, test_idx = stratified_split(labels, 0.1, fold_rng)
            splits = [(train_idx, test_idx)]
        else:
            folds = stratified_kfold(labels, n_folds, fold_rng)
            all_idx = np.arange(len(ds))
            splits = [
                (np.setdiff1d(all_idx, fold), fold) for fold in folds
            ]

    accuracies, selected, epoch_seconds, histories = [], [], [], []
    per_fold_ss = ss.spawn(len(splits))
    for k, (train_idx, test_idx) in enumerate(splits):
        inner_ss, cand_ss = per_fold_ss[k].spawn(2)
        inner_rng = np.random.default_rng(inner_ss)
        inner_labels = labels[train_idx]
        tr, va = stratified_split(inner_labels, 0.1, inner_rng)
        inner_train = ds.subset(train_idx[tr])
        inner_val = ds.subset(train_idx[va])

        cfg, params, _, history = _grid_search_full(
            inner_train, inner_val, grid, np.random.default_rng(cand_ss)
        )
        test_graphs = ds.subset(test_idx)
        acc = evaluate(params, test_graphs)
        accuracies.append(float(acc))
        selected.append(cfg.to_dict())
        epoch_seconds.append(float(np.mean(history["epoch_seconds"])))
        histories.append(
            {key: history[key] for key in ("train_loss", "train_acc", "val_acc", "lr")}
        )
        if out_dir is not None:
            path = os.path.join(out_dir, f"fold{k}", "best.ckpt")
            save_checkpoint(path, params, seed=seed, extra={"fold": k, "config": cfg.to_dict()})

    return CVResult(
        fold_accuracies=accuracies,
        mean=float(np.mean(accuracies)),
        std=float(np.std(accuracies)),
        selected_configs=selected,
        epoch_seconds=epoch_seconds,
        histories=histories,
    )
