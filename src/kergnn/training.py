"""Loss, Adam, learning-rate schedule, and the cross-validation harness.

Model assessment follows a stratified 10-fold outer split; model selection
inside each fold uses a stratified 90/10 train/validation split and picks the
grid candidate (and epoch) with the best validation accuracy. The selected
model is evaluated on the held-out fold; fold accuracies are aggregated as
mean +- std.

Everything is driven by integer seeds through numpy SeedSequence spawning, so
(dataset, grid, seed) fully determines the result.

Labeled graphs come in as a Dataset: train_fold, grid_search and evaluate
refuse anything else, and cross_validate checks given index splits by taking
them as subsets (Dataset.subset). Folds and inner splits are subsets of the
dataset, and a minibatch is an index array into the root dataset's packed
view (graphs.PackedGraphs): subgraph stacks and summed Gram maps are built
once per root and (hops, k_max), and read by every fold, candidate, epoch and
evaluation after that. A model whose only layer is "summed" trains on graph
rows alone: its training step runs Python per graph only to seed each
graph's dropout stream.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigError, TrainingError, plain_value
from .graphs import Dataset
from .model import (
    LayerSpec,
    ModelConfig,
    ModelParams,
    _backward,
    _chunks,
    _filter_sides,
    _forward,
    _layer_forms,
    _predict,
    init_params,
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


# The TrainConfig fields that no ModelConfig field checks: (name, kind for
# errors.plain_value, range test written so that nan fails it, the range in
# words). k_max and hops reach the model only through its layers, so a model
# without layers would not check them. grad_clip may also be None.
_TRAIN_FIELDS = (
    ("lr", float, lambda v: 0 < v < math.inf, "finite and > 0"),
    ("lr_half_every", int, lambda v: v >= 1, ">= 1"),
    ("epochs", int, lambda v: v >= 1, ">= 1"),
    ("batch_size", int, lambda v: v >= 1, ">= 1"),
    ("seed", int, lambda v: v >= 0, ">= 0"),
    ("beta1", float, lambda v: 0 <= v < 1, "in [0, 1)"),
    ("beta2", float, lambda v: 0 <= v < 1, "in [0, 1)"),
    ("eps", float, lambda v: 0 < v < math.inf, "finite and > 0"),
    ("grad_clip", float, lambda v: v > 0, "> 0"),
    ("num_layers", int, lambda v: v >= 0, ">= 0"),
    ("k_max", int, lambda v: v >= 1, ">= 1"),
    ("hops", int, lambda v: v >= 1, ">= 1"),
)


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

    def _per_layer(self, name: str) -> list:
        """num_filters or filter_nodes, one integer per layer; a single one is
        checked even when there are no layers to repeat it for."""
        v = getattr(self, name)
        values = [plain_value(name, x, int) for x in (v if isinstance(v, tuple) else (v,))]
        if not isinstance(v, tuple):
            return values * self.num_layers
        if len(v) != self.num_layers:
            raise ConfigError(f"per-layer list has {len(v)} entries for {self.num_layers} layers")
        return values

    def validate(self):
        """The fields of _TRAIN_FIELDS here; the model fields are checked by
        building the ModelConfig they describe."""
        for name, kind, ok, want in _TRAIN_FIELDS:
            value = getattr(self, name)
            if value is None and name == "grad_clip":  # no clipping
                continue
            if not ok(plain_value(name, value, kind)):
                raise ConfigError(f"{name} must be {want}, got {value!r}")
        self.model_config(attr_dim=1, num_classes=1)

    def model_config(self, attr_dim: int, num_classes: int) -> ModelConfig:
        filters = self._per_layer("num_filters")
        nodes = self._per_layer("filter_nodes")
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


def _check_labeled(data, use: str, config: ModelConfig | None = None):
    """ConfigError unless data is a nonempty Dataset that a model of config,
    if given, can read: of its attribute width, each label one of its
    classes. `use` ("train", "validate", "evaluate", ...) names the step."""
    if not isinstance(data, Dataset):
        raise ConfigError(f"cannot {use} on a {type(data).__name__}: labeled graphs come as a Dataset")
    if not len(data):
        raise ConfigError(f"cannot {use} on an empty split")
    top = int(data.labels().max())
    if config is not None and (data.attr_dim != config.attr_dim or top >= config.num_classes):
        raise ConfigError(f"dataset of attribute width {data.attr_dim} and labels up to {top} does not "
                          f"fit a model of width {config.attr_dim} and {config.num_classes} classes")


def evaluate(params: ModelParams, ds: Dataset) -> float:
    """Eval-mode accuracy over a Dataset. Its stacks and summed maps are built
    once for its root and kept there (PackedGraphs), so a second evaluate of
    it, or of another subset of the same root, builds none."""
    _check_labeled(ds, "evaluate", params.config)
    predicted = np.argmax(_predict(ds.packed, ds.index, params), axis=1)
    return int(np.count_nonzero(predicted == ds.labels())) / len(ds)


def _batch_step(pack, idx, params, rng):
    """(mean loss, mean gradient vector, correct predictions) of the minibatch of
    pack's graphs at idx, by one packed forward and backward per chunk
    (model.packed_chunks); chunks add up in order, and the filter gradients
    are taken once, at the last chunk, from the filter sides they share. A
    graph counts as correct when the argmax of the logits its loss is taken
    of is its label.

    The first chunk whose losses are not all finite raises TrainingError
    before its backward, and no later chunk is forwarded. The error names the
    shallowest tensor of that chunk's forward (BatchForward.feats) holding a
    non-finite value: the input map's features, then each layer's (a "summed"
    layer's graph sums), else the MLP logits. Each loss is at most
    -log(1e-300) ~ 691, so the batch mean is non-finite exactly when some
    chunk's loss is."""
    # one dropout seed per graph is drawn even without dropout, so the rng
    # stream (every later shuffle and init) does not depend on the dropout rate
    seeds = rng.integers(0, 2**63 - 1, size=len(idx))
    labels = pack.labels[idx]
    total = np.zeros_like(params.flat)
    loss = 0.0
    correct = 0
    forms = _layer_forms(params)
    filters = _filter_sides(params, forms)
    for start, stop in _chunks(pack, idx, params, forms):
        rngs = None
        if params.config.dropout > 0:
            rngs = [np.random.default_rng(seed) for seed in seeds[start:stop]]
        fwd = _forward(pack, idx[start:stop], params, forms, filters, rngs)
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
        total += _backward(fwd, dlogits, params, last_chunk=stop == len(idx))
        del fwd  # free this chunk's caches before the next chunk's forward
    scale = 1.0 / len(idx)
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
    Both sets are nonempty Datasets, and the model takes the training set's
    attribute width and class count; anything else raises ConfigError before
    any epoch. A minibatch is an index array into the root dataset's packed
    view (graphs.PackedGraphs), whose subgraph stacks, or a lone "summed"
    layer's Gram maps summed over each graph's nodes (one (P+1) d^2 row per
    graph, model._layer_forms), are built once for the root, so later epochs,
    candidates and folds reuse them. A minibatch whose loss is not finite
    raises TrainingError naming the epoch, the batch and the first
    non-finite tensor (_batch_step).
    """
    cfg.validate()
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    _check_labeled(train_set, "train")
    model_cfg = cfg.model_config(train_set.attr_dim, train_set.num_classes)
    _check_labeled(val_set, "validate", model_cfg)
    params = init_params(model_cfg, rng)
    opt = Adam(params, cfg.beta1, cfg.beta2, cfg.eps)
    pack, index = train_set.packed, train_set.index

    history = {"train_loss": [], "train_acc": [], "val_acc": [], "lr": [], "epoch_seconds": []}
    best_acc = -1.0
    best_epoch = -1
    best_snapshot = params.flat.copy()

    order = np.arange(len(train_set))
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        lr = learning_rate_at(cfg, epoch)
        rng.shuffle(order)
        losses = []
        correct = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = index[order[start: start + cfg.batch_size]]
            try:
                loss, grad, batch_correct = _batch_step(pack, batch, params, rng)
            except TrainingError as exc:
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}: {exc}"
                ) from None
            if cfg.grad_clip is not None:
                _clip_grads(grad, cfg.grad_clip)
            opt.step(grad, lr)
            losses.append(loss)
            correct += batch_correct
        val_acc = evaluate(params, val_set)
        history["train_loss"].append(float(np.mean(losses)))
        history["train_acc"].append(correct / len(train_set))
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


def _listed_grid(grid) -> list:
    """grid, a TrainConfig or an iterable of them, as a list with None in
    place of each candidate that fails validate; ConfigError if it lists no
    valid one, or something other than a TrainConfig."""
    try:
        candidates = [grid] if isinstance(grid, TrainConfig) else list(grid)
    except TypeError:
        raise ConfigError(f"grid must be a TrainConfig or an iterable of them, got {grid!r}") from None
    if not candidates:
        raise ConfigError("grid must contain at least one configuration")
    listed = []
    for k, cfg in enumerate(candidates):
        if not isinstance(cfg, TrainConfig):
            raise ConfigError(f"grid candidate {k} is not a TrainConfig: {cfg!r}")
        try:
            cfg.validate()
        except ConfigError:
            cfg = None
        listed.append(cfg)
    if all(cfg is None for cfg in listed):
        raise ConfigError("no valid configuration in grid")
    return listed


def _grid_search_full(train_set, val_set, candidates: list, rng):
    """(config, params, score, history) of the best of _listed_grid's
    candidates; one seed is drawn per candidate, invalid ones included."""
    seeds = rng.integers(0, 2**63 - 1, size=len(candidates))
    best = None
    for cfg, seed in zip(candidates, seeds):
        if cfg is None:
            continue
        params, history = train_fold(train_set, val_set, cfg, int(seed))
        score = history["best_val_acc"]
        if best is None or score > best[2]:
            best = (cfg, params, score, history)
    return best


def grid_search(train_set, val_set, grid, rng) -> TrainConfig:
    """Candidate with the best validation accuracy; ties keep grid order.
    Invalid candidates are skipped; both sets are Datasets (train_fold)."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    return _grid_search_full(train_set, val_set, _listed_grid(grid), rng)[0]


def load_splits(path: str) -> list:
    """Fold indices from a JSON file: [{"train": [...], "test": [...]}, ...],
    each index list a flat list of JSON integers in the int64 range. What
    the indices pick is checked by cross_validate, which takes the splits."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"bad JSON in {path}: {exc}") from exc
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{path}: expected a nonempty list of fold objects")
    splits = []
    for k, fold in enumerate(raw):
        try:
            if not isinstance(fold, dict) or not all(isinstance(fold.get(key), list)
                                                     for key in ("train", "test")):
                raise ConfigError("not an object of two lists")
            train, test = (np.array([plain_value("index", i, int) for i in fold[key]], dtype=np.int64)
                           for key in ("train", "test"))
        except (ConfigError, OverflowError):  # past int64
            raise ConfigError(f"{path}: fold {k} needs 'train' and 'test' lists of integers") from None
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


def _split_subsets(ds: Dataset, splits) -> list:
    """Each given (train, test) pair of index arrays as a pair of ds's subsets
    (Dataset.subset checks the indices), or ConfigError naming the split."""
    try:
        splits = list(splits)
    except TypeError:
        raise ConfigError(f"splits must be a list of (train, test) pairs, got {splits!r}") from None
    if not splits:
        raise ConfigError("splits must hold at least one (train, test) pair")
    pairs = []
    for k, split in enumerate(splits):
        try:
            train_idx, test_idx = split
        except (TypeError, ValueError):
            raise ConfigError(f"split {k}: expected a (train, test) pair of index arrays") from None
        pair = []
        for name, idx in (("train", train_idx), ("test", test_idx)):
            try:
                part = ds.subset(idx)
            except ConfigError as exc:
                raise ConfigError(f"split {k}: {name} {exc}") from None
            if not len(part):
                raise ConfigError(f"split {k}: {name} indices must be nonempty")
            if np.unique(part.index).size < len(part):
                raise ConfigError(f"split {k}: {name} indices repeat a graph")
            pair.append(part)
        train, test = pair
        if np.intersect1d(train.index, test.index).size:
            raise ConfigError(f"split {k}: train/test overlap")
        # the inner split holds out at least one graph of each class
        if np.all(np.bincount(train.labels()) < 2):
            raise ConfigError(f"split {k}: the inner validation split would take every "
                              f"training graph; some class needs 2 training graphs")
        pairs.append((train, test))
    return pairs


def cross_validate(ds: Dataset, grid, seed: int, n_folds: int = 10,
                   out_dir: str | None = None, splits: list | None = None) -> CVResult:
    """Stratified n-fold assessment with inner 90/10 holdout model selection.

    ds holds each graph of its root at most once. `grid` is a TrainConfig
    or an iterable of them, listed once: a generator serves every fold. With
    n_folds=1 a single stratified 90/10 train/test holdout is evaluated.
    Pre-computed splits (a list of (train_indices, test_indices) pairs)
    override fold generation. Each side is taken as
    ds.subset, which checks that its indices are 1-D integers in
    [0, len(ds)); it must be nonempty and name no graph twice, train and
    test must not overlap, and some class must have two training graphs, so
    that the inner split leaves one to train on. ds, the grid (nonempty, some
    candidate valid) and every split, or else n_folds (an integer >= 1), are
    checked before any fold trains, and a bad one raises ConfigError.
    """
    _check_labeled(ds, "cross-validate")
    if np.unique(ds.index).size < len(ds):
        # folds split by position, so one graph at two positions could be trained and tested on
        raise ConfigError("the dataset holds a graph more than once (a subset with repeated indices)")
    if plain_value("seed", seed, int) < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    candidates = _listed_grid(grid)
    ss = np.random.SeedSequence(seed)
    fold_rng = np.random.default_rng(ss.spawn(1)[0])  # spawned with splits too: per-fold seeds follow it
    if splits is not None:
        folds = _split_subsets(ds, splits)
    else:
        n_folds = plain_value("n_folds", n_folds, int)
        if n_folds < 1:
            raise ConfigError(f"n_folds must be >= 1, got {n_folds}")
        labels = ds.labels()
        counts = np.bincount(labels, minlength=ds.num_classes)
        if np.any(counts < max(n_folds, 2)):
            raise ConfigError(
                f"stratification needs at least {max(n_folds, 2)} graphs per class, got {counts.tolist()}"
            )
        if n_folds == 1:
            index_pairs = [stratified_split(labels, 0.1, fold_rng)]
        else:
            index_pairs = [(np.setdiff1d(np.arange(len(ds)), fold), fold)
                           for fold in stratified_kfold(labels, n_folds, fold_rng)]
        folds = [(ds.subset(train_idx), ds.subset(test_idx)) for train_idx, test_idx in index_pairs]

    accuracies, selected, epoch_seconds, histories = [], [], [], []
    per_fold_ss = ss.spawn(len(folds))
    for k, (train, test) in enumerate(folds):
        inner_ss, cand_ss = per_fold_ss[k].spawn(2)
        tr, va = stratified_split(train.labels(), 0.1, np.random.default_rng(inner_ss))
        cfg, params, _, history = _grid_search_full(
            train.subset(tr), train.subset(va), candidates, np.random.default_rng(cand_ss)
        )
        accuracies.append(float(evaluate(params, test)))
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
