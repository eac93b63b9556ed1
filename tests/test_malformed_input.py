"""Malformed input raises only the package's own errors.

Property tests: mutated graph files and TUDataset directories raise only
DatasetError. Each example starts from a valid file (or dataset directory),
applies a few byte-level edits, and loads the result: it must either load or
raise the package's own DatasetError, never a numpy, Unicode or memory error.
A mutated dataset directory loads to the same graphs, or the same error, as
a load that leaves every file to the line parser.

Given cross-validation splits of the wrong kind, an n_folds that is not an
integer >= 1, and a grid with no valid candidate raise ConfigError before any
fold trains. A kernel config with a walk length, weight or variant of the
wrong type raises ConfigError. A checkpoint whose config fields, seed or
extra have the wrong type raises CheckpointError, and numpy-scalar configs
write checkpoints that load back.
"""

import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kergnn.graphs
import kergnn.training
from kergnn.errors import CheckpointError, ConfigError, DatasetError
from kergnn.graphs import Dataset, load_tudataset, read_graph_file, write_graph_file
from kergnn.kernels import RWKernelConfig
from kergnn.model import LayerSpec, ModelConfig, init_params, load_checkpoint, save_checkpoint
from kergnn.training import TrainConfig, cross_validate

from conftest import random_graph, write_tudataset

# derandomized so the suite is deterministic; every run explores the same examples
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

# the bytes the parsers care about: digits, signs, separators, line breaks,
# comment marks, float spellings, huge numbers and a byte that is not UTF-8;
# then what the array scan of integer files leaves to the line parser or
# reads itself: tabs, '\r' alone and in '\r\n', a '+' sign, an underscore
# int() accepts, a vertical tab, a no-break space and an Arabic-Indic digit
TOKENS = (b"0", b"1", b"2", b"9", b"-", b"-1", b"+", b".", b",", b" ", b"\n", b"#", b"e",
          b"x", b"nan", b"inf", b"1e999", b"99999999999", b"99999999999999999999", b"\xff",
          b"\t", b"\r", b"\r\n", b"+1", b"1_0", b"\x0b", b"\xc2\xa0", b"\xd9\xa3")

MUTATION = st.one_of(
    st.tuples(st.just("replace"), st.integers(0, 10**6), st.sampled_from(TOKENS)),
    st.tuples(st.just("insert"), st.integers(0, 10**6), st.sampled_from(TOKENS)),
    st.tuples(st.just("delete"), st.integers(0, 10**6), st.integers(1, 8)),
    st.tuples(st.just("drop_line"), st.integers(0, 10**6), st.just(None)),
    st.tuples(st.just("repeat_line"), st.integers(0, 10**6), st.just(None)),
)
MUTATIONS = st.lists(MUTATION, min_size=1, max_size=4)


def mutate(data: bytes, mutations) -> bytes:
    for op, pos, arg in mutations:
        if op in ("drop_line", "repeat_line"):
            lines = data.split(b"\n")
            k = pos % len(lines)
            lines[k:k + 1] = [] if op == "drop_line" else [lines[k], lines[k]]
            data = b"\n".join(lines)
            continue
        pos %= len(data) + 1
        if op == "replace":
            data = data[:pos] + arg + data[pos + 1:]
        elif op == "insert":
            data = data[:pos] + arg + data[pos:]
        else:
            data = data[:pos] + data[pos + arg:]
    return data


def valid_graph_file() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.graph")
        write_graph_file(random_graph(np.random.default_rng(0), 5, 0.5, d=2), path)
        with open(path, "rb") as fh:
            return fh.read()


def valid_dataset_files() -> dict:
    """Suffix -> bytes of a 3-graph dataset with node labels and attributes."""
    rng = np.random.default_rng(1)
    adjs = [random_graph(rng, n, 0.6).adjacency for n in (3, 4, 2)]
    labels = [int(v) for v in rng.integers(0, 3, size=9)]
    attrs = rng.normal(size=(9, 2)).round(3).tolist()
    with tempfile.TemporaryDirectory() as tmp:
        write_tudataset(tmp, "D", adjs, [1, -1, 1], node_labels=labels, node_attributes=attrs)
        out = {}
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name), "rb") as fh:
                out[name[len("D"):]] = fh.read()
        return out


GRAPH_FILE = valid_graph_file()
DATASET_FILES = valid_dataset_files()


def test_unmutated_inputs_load():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.graph")
        with open(path, "wb") as fh:
            fh.write(GRAPH_FILE)
        assert read_graph_file(path).num_nodes == 5
        for suffix, data in DATASET_FILES.items():
            with open(os.path.join(tmp, "D" + suffix), "wb") as fh:
                fh.write(data)
        assert len(load_tudataset(tmp, "D")) == 3


@PROPERTY_SETTINGS
@given(mutations=MUTATIONS)
def test_mutated_graph_file_raises_only_dataset_error(mutations):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.graph")
        with open(path, "wb") as fh:
            fh.write(mutate(GRAPH_FILE, mutations))
        try:
            read_graph_file(path)
        except DatasetError:
            pass


DATASET_EDITS = st.lists(st.tuples(st.sampled_from(sorted(DATASET_FILES)), MUTATIONS), min_size=1, max_size=3)
REMOVED_FILE = st.sampled_from([None] + sorted(DATASET_FILES))


def write_mutated_dataset(directory: str, edits, removed) -> None:
    files = dict(DATASET_FILES)
    for suffix, mutations in edits:
        files[suffix] = mutate(files[suffix], mutations)
    if removed is not None:
        del files[removed]
    for suffix, data in files.items():
        with open(os.path.join(directory, "D" + suffix), "wb") as fh:
            fh.write(data)


@PROPERTY_SETTINGS
@given(edits=DATASET_EDITS, removed=REMOVED_FILE)
def test_mutated_tudataset_raises_only_dataset_error(edits, removed):
    with tempfile.TemporaryDirectory() as tmp:
        write_mutated_dataset(tmp, edits, removed)
        try:
            load_tudataset(tmp, "D")
        except DatasetError:
            pass


def load_outcome(directory: str) -> tuple:
    """The bytes of every graph load_tudataset reads from directory, or its
    DatasetError message."""
    try:
        ds = load_tudataset(directory, "D")
    except DatasetError as exc:
        return "error", str(exc)
    graphs = [(g.adjacency.tobytes(), g.attributes.shape, g.attributes.tobytes(), g.graph_label,
               None if g.node_labels is None else g.node_labels.tobytes()) for g in ds.graphs]
    return "dataset", ds.num_classes, ds.attr_dim, graphs


@PROPERTY_SETTINGS
@given(edits=DATASET_EDITS, removed=REMOVED_FILE)
def test_mutated_tudataset_loads_as_the_line_parser_reads_it(edits, removed):
    # the array scan of the integer files gives the graphs, or the error,
    # of a load that leaves every file to _parse_lines
    with tempfile.TemporaryDirectory() as tmp:
        write_mutated_dataset(tmp, edits, removed)
        scanned = load_outcome(tmp)
        with mock.patch.object(kergnn.graphs, "_scan_integers", lambda *args: None):
            parsed = load_outcome(tmp)
    assert scanned == parsed


VALID_SPLIT = (np.arange(8), np.arange(8, 12))


def twelve_graphs() -> Dataset:
    rng = np.random.default_rng(2)
    return Dataset("twelve", [random_graph(rng, 4, 0.5, label=i % 2) for i in range(12)], 2, 1)


@pytest.mark.parametrize("split", [
    (np.arange(8.0), np.arange(8, 12)),  # float indices
    (np.arange(8), np.array([8.0, 9.0])),
    (np.arange(12) < 8, np.arange(8, 12)),  # a boolean mask
    (np.arange(8), np.array([], dtype=np.int64)),  # empty test split
    (np.array([], dtype=np.int64), np.arange(8, 12)),
    ([], [8, 9]),
    (np.arange(8).reshape(2, 4), np.arange(8, 12)),  # not 1-D
    (np.arange(8), np.int64(9)),
    (np.arange(8), ["8", "9"]),
    ([[0, 1], [2]], [8, 9]),  # ragged
    (np.arange(8),),  # not a pair
    None,
    ([0, 1], [8, 9]),  # one graph per class: the inner split would take both
    (np.tile(np.arange(8), 2), np.arange(8, 12)),  # trained: inner validation graphs in inner training
    (np.arange(8), np.array([8, 9, 9, 10])),
], ids=["float-train", "float-test", "bool", "empty-test", "empty-train", "empty-lists",
        "2d", "scalar", "strings", "ragged", "one-array", "none", "inner-train-empty",
        "repeat-train", "repeat-test"])
def test_bad_split_raises_config_error_before_training(monkeypatch, split):
    def no_training(*args, **kwargs):
        raise AssertionError("a fold trained before the splits were checked")

    monkeypatch.setattr(kergnn.training, "train_fold", no_training)
    with pytest.raises(ConfigError, match="split 1"):
        cross_validate(twelve_graphs(), TrainConfig(epochs=1), seed=0, splits=[VALID_SPLIT, split])


@pytest.mark.parametrize("n_folds", [3, 1])
def test_dataset_holding_a_graph_twice_raises_before_training(monkeypatch, n_folds):
    # generated folds split by position: a graph at two positions sat in
    # train and test of one fold (8, 4 and 6 graphs in the three folds)
    def no_training(*args, **kwargs):
        raise AssertionError("a fold trained on a dataset holding a graph twice")

    monkeypatch.setattr(kergnn.training, "train_fold", no_training)
    doubled = twelve_graphs().subset(np.repeat(np.arange(12), 2))
    with pytest.raises(ConfigError, match="holds a graph more than once"):
        cross_validate(doubled, TrainConfig(epochs=1), seed=0, n_folds=n_folds)


@pytest.mark.parametrize("grid,message", [
    ([], "at least one configuration"),
    (iter([]), "at least one configuration"),
    ([TrainConfig(epochs=0), TrainConfig(lr=-1.0)], "no valid configuration"),
    ((TrainConfig(epochs=0) for _ in range(2)), "no valid configuration"),
    (5, "grid must be a TrainConfig or an iterable"),
    ([TrainConfig(epochs=1), {"epochs": 1}], "grid candidate 1 is not a TrainConfig"),
], ids=["empty", "empty-iterator", "all-invalid", "all-invalid-generator", "not-iterable", "not-a-config"])
def test_bad_grid_raises_config_error_before_training(monkeypatch, grid, message):
    # the grid was listed in each fold, after its inner split: an empty or
    # all-invalid one raised there, and a generator trained fold 0 and then
    # was empty. It is now checked before any fold starts
    def no_fold(*args, **kwargs):
        raise AssertionError("a fold started before the grid was checked")

    for name in ("train_fold", "stratified_split"):
        monkeypatch.setattr(kergnn.training, name, no_fold)
    with pytest.raises(ConfigError, match=message):
        cross_validate(twelve_graphs(), grid, seed=0, n_folds=3)


@pytest.mark.parametrize("n_folds", [2.5, "3", np.float64(3.0), True, 0, -1])
def test_bad_n_folds_raises_config_error_before_training(monkeypatch, n_folds):
    # 2.5, "3" and 3.0 raised TypeError, 0 a bare ValueError; True ran a holdout
    def no_training(*args, **kwargs):
        raise AssertionError("a fold trained before n_folds was checked")

    monkeypatch.setattr(kergnn.training, "train_fold", no_training)
    with pytest.raises(ConfigError, match="n_folds"):
        cross_validate(twelve_graphs(), TrainConfig(epochs=1), seed=0, n_folds=n_folds)


@pytest.mark.parametrize("args,field", [
    ((True,), "P"),  # gave P = True
    ((2.5,), "P"),  # TypeError
    (("2",), "P"),
    ((np.float64(2.0),), "P"),
    ((1, ["1", "0.5"]), "lambdas"),  # became (1.0, 0.5)
    ((1, (True, False)), "lambdas"),  # became (1.0, 0.0)
    ((1, "11"), "lambdas"),
    ((0, 0.5), "lambdas"),  # a bare number became (0.5,)
    ((1, np.ones((2, 1))), "lambdas"),
    ((1, None, 3), "variant"),
], ids=["bool-P", "float-P", "str-P", "float64-P", "str-lambdas", "bool-lambdas", "str-lambda-list",
        "scalar-lambda", "2d-lambdas", "int-variant"])
def test_mistyped_kernel_config_raises_config_error(args, field):
    with pytest.raises(ConfigError, match=field):
        RWKernelConfig(*args)


def test_kernel_config_keeps_python_values():
    cfg = RWKernelConfig(np.int64(2), np.array([1.0, 0.5, 0.25]), np.str_("deep"))
    assert type(cfg.P) is int and type(cfg.variant) is str
    assert cfg.lambdas == (1.0, 0.5, 0.25) and all(type(x) is float for x in cfg.lambdas)


@pytest.mark.parametrize("key,value", [
    ("seed", 1.5),  # loaded as 1
    ("seed", "7"),  # loaded as 7
    ("seed", True),  # loaded as 1
    ("seed", None),
    ("extra", [1]),  # came back as a list
    ("extra", "fold 0"),
    ("extra", None),
])
def test_checkpoint_with_mistyped_seed_or_extra_raises_checkpoint_error(tmp_path, key, value):
    cfg = ModelConfig(attr_dim=2, num_classes=2, layers=(LayerSpec(2, 3, 4),), walk_length=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), init_params(cfg, np.random.default_rng(0)), seed=0, extra={"fold": 0})
    payload = json.loads(path.read_text())
    payload[key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match=key):
        load_checkpoint(str(path))


@pytest.mark.parametrize("splits,message", [([], "at least one"), (5, "list of")])
def test_no_split_list_raises_config_error(splits, message):
    with pytest.raises(ConfigError, match=message):
        cross_validate(twelve_graphs(), TrainConfig(epochs=1), seed=0, splits=splits)


@pytest.mark.parametrize("field,value", [
    ("post_relu", "false"),  # loaded as truthy and applied ReLU
    ("post_relu", 1),
    ("lambdas", "11"),  # loaded as (1.0, 1.0)
    ("lambdas", ["1", 1]),
    ("lambdas", {"0": 1, "1": 1}),
    ("walk_length", True),  # gave P = True
    ("walk_length", 1.0),
    ("attr_dim", 2.0),
    ("num_classes", "2"),
    ("input_map_dim", False),
    ("dropout", "0"),
    ("dropout", None),
])
def test_checkpoint_with_mistyped_config_raises_checkpoint_error(tmp_path, field, value):
    cfg = ModelConfig(attr_dim=2, num_classes=2, layers=(LayerSpec(2, 3, 4),), walk_length=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), init_params(cfg, np.random.default_rng(0)), seed=0)
    payload = json.loads(path.read_text())
    payload["config"][field] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match=field):
        load_checkpoint(str(path))


@pytest.mark.parametrize("over", [{"k_max": np.int64(4)}, {"epochs": np.int64(1)},
                                  {"walk_length": np.int64(1), "dropout": np.float64(0.25),
                                   "lambdas": (np.float64(1.0), np.int64(2))}])
def test_numpy_scalar_config_writes_checkpoints_that_load(tmp_path, over):
    # an int64 k_max or epochs passed validate, trained every fold and then
    # failed in json.dumps when the fold checkpoints were written
    cfg = TrainConfig(**{"epochs": 1, **over})
    json.dumps(cfg.to_dict())
    cross_validate(twelve_graphs(), cfg, seed=0, n_folds=3, out_dir=str(tmp_path))
    for k in range(3):
        params, _, extra = load_checkpoint(str(tmp_path / f"fold{k}" / "best.ckpt"))
        assert params.config == cfg.model_config(1, 2)
        assert extra["config"] == json.loads(json.dumps(cfg.to_dict()))
