import json
import os

import numpy as np
import pytest

import kergnn.cli
from kergnn import bundled_graph
from kergnn.cli import main
from kergnn.graphs import Graph, write_graph_file
from kergnn.model import init_params, save_checkpoint
from kergnn.training import TrainConfig

from conftest import random_graph, write_tudataset


def single_node_file(tmp_path, name, attr):
    g = Graph(1, np.zeros((1, 1)), np.array([[attr]], dtype=float))
    path = tmp_path / name
    write_graph_file(g, str(path))
    return str(path)


def make_dataset_dir(tmp_path, n_per_class=12, seed=0):
    rng = np.random.default_rng(seed)
    adjs, labels = [], []
    for _ in range(n_per_class):
        adjs.append(random_graph(rng, 5, 0.2).adjacency)
        labels.append(0)
        adjs.append(random_graph(rng, 5, 0.8).adjacency)
        labels.append(1)
    write_tudataset(tmp_path / "SYN", "SYN", adjs, labels)
    return str(tmp_path / "SYN")


def write_config(tmp_path, **over):
    cfg = dict(TrainConfig(epochs=2, num_filters=2, filter_nodes=2, k_max=5,
                           mlp_hidden=[4], lr=0.05).to_dict())
    cfg.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def test_kernel_single_nodes(tmp_path, capsys):
    a = single_node_file(tmp_path, "a.graph", 1.0)
    b = single_node_file(tmp_path, "b.graph", 1.0)
    assert main(["kernel", "--graph-a", a, "--graph-b", b, "--p", "0"]) == 0
    out = capsys.readouterr().out
    assert "kernel: 1.0" in out


def test_kernel_oracle_agreement(tmp_path, capsys):
    rng = np.random.default_rng(0)
    ga, gb = random_graph(rng, 6, 0.5, d=2), random_graph(rng, 5, 0.5, d=2)
    pa, pb = tmp_path / "ga.graph", tmp_path / "gb.graph"
    write_graph_file(ga, str(pa))
    write_graph_file(gb, str(pb))
    assert main(["kernel", "--graph-a", str(pa), "--graph-b", str(pb),
                 "--p", "3", "--oracle"]) == 0
    out = capsys.readouterr().out
    diff = float(out.splitlines()[-1].split(":")[1])
    assert diff <= 1e-9


def test_kernel_warns_beyond_tuned_walk_length(tmp_path, capsys):
    a = single_node_file(tmp_path, "a.graph", 1.0)
    b = single_node_file(tmp_path, "b.graph", 2.0)
    assert main(["kernel", "--graph-a", a, "--graph-b", b, "--p", "6"]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert "kernel:" in captured.out


def test_kernel_custom_lambdas(tmp_path, capsys):
    a = single_node_file(tmp_path, "a.graph", 2.0)
    b = single_node_file(tmp_path, "b.graph", 3.0)
    assert main(["kernel", "--graph-a", a, "--graph-b", b, "--p", "0",
                 "--lambdas", "2.0"]) == 0
    out = capsys.readouterr().out
    assert float(out.split(":")[1]) == pytest.approx(2.0 * 36.0)


@pytest.mark.parametrize("lambdas", ["1,nan", "inf"])
def test_kernel_non_finite_lambdas_is_data_error(tmp_path, capsys, lambdas):
    a = single_node_file(tmp_path, "a.graph", 2.0)
    b = single_node_file(tmp_path, "b.graph", 3.0)
    p = str(lambdas.count(","))
    assert main(["kernel", "--graph-a", a, "--graph-b", b, "--p", p, "--lambdas", lambdas]) == 2
    captured = capsys.readouterr()
    assert "kernel:" not in captured.out
    assert "lambda" in captured.err


def test_kernel_missing_file_is_usage_error(tmp_path, capsys):
    a = single_node_file(tmp_path, "a.graph", 1.0)
    assert main(["kernel", "--graph-a", a, "--graph-b", str(tmp_path / "nope")]) == 1
    assert "--graph-b" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# wl-test
# ---------------------------------------------------------------------------


def test_wl_test_bundled_fixtures(capsys):
    assert main(["wl-test", "--graph-a", bundled_graph("hexagon"),
                 "--graph-b", bundled_graph("two_triangles")]) == 0
    assert capsys.readouterr().out.strip() == "indistinguishable"


def test_wl_test_triangle_vs_path(capsys):
    assert main(["wl-test", "--graph-a", bundled_graph("triangle"),
                 "--graph-b", bundled_graph("path3")]) == 0
    assert capsys.readouterr().out.strip() == "distinguishable"


def test_wl_test_identical_files(capsys):
    path = bundled_graph("hexagon")
    assert main(["wl-test", "--graph-a", path, "--graph-b", path]) == 0
    assert capsys.readouterr().out.strip() == "indistinguishable"


# ---------------------------------------------------------------------------
# dataset-info
# ---------------------------------------------------------------------------


def test_dataset_info(tmp_path, capsys):
    ddir = make_dataset_dir(tmp_path)
    assert main(["dataset-info", "--dataset-dir", ddir, "--dataset-name", "SYN"]) == 0
    out = capsys.readouterr().out
    assert "graphs: 24" in out
    assert "classes: 2" in out
    assert "avg_nodes: 5.00" in out


def test_dataset_info_malformed_is_data_error(tmp_path, capsys):
    os.makedirs(tmp_path / "BAD")
    (tmp_path / "BAD" / "BAD_A.txt").write_text("1, 2\n")
    assert main(["dataset-info", "--dataset-dir", str(tmp_path / "BAD"),
                 "--dataset-name", "BAD"]) == 2


# ---------------------------------------------------------------------------
# train + export-filters
# ---------------------------------------------------------------------------


def test_train_end_to_end(tmp_path, capsys):
    ddir = make_dataset_dir(tmp_path)
    config = write_config(tmp_path)
    out_dir = str(tmp_path / "run")
    code = main(["train", "--dataset-dir", ddir, "--dataset-name", "SYN",
                 "--config", config, "--out", out_dir, "--seed", "0", "--folds", "2"])
    assert code == 0
    assert "accuracy:" in capsys.readouterr().out
    payload = json.loads((tmp_path / "run" / "results.json").read_text())
    assert len(payload["result"]["fold_accuracies"]) == 2
    assert os.path.isfile(tmp_path / "run" / "fold0" / "best.ckpt")
    assert os.path.isfile(tmp_path / "run" / "fold1" / "best.ckpt")

    # re-running with the same seed reproduces the deterministic part exactly
    code = main(["train", "--dataset-dir", ddir, "--dataset-name", "SYN",
                 "--config", config, "--out", str(tmp_path / "run2"), "--seed", "0",
                 "--folds", "2"])
    assert code == 0
    payload2 = json.loads((tmp_path / "run2" / "results.json").read_text())
    assert json.dumps(payload["result"], sort_keys=True) == json.dumps(
        payload2["result"], sort_keys=True
    )


def test_train_single_fold(tmp_path, capsys):
    ddir = make_dataset_dir(tmp_path)
    config = write_config(tmp_path)
    code = main(["train", "--dataset-dir", ddir, "--dataset-name", "SYN",
                 "--config", config, "--out", str(tmp_path / "run"), "--folds", "1"])
    assert code == 0
    payload = json.loads((tmp_path / "run" / "results.json").read_text())
    assert len(payload["result"]["fold_accuracies"]) == 1


def test_train_missing_config_names_flag(tmp_path, capsys):
    ddir = make_dataset_dir(tmp_path)
    code = main(["train", "--dataset-dir", ddir, "--dataset-name", "SYN",
                 "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "--config" in capsys.readouterr().err


def test_train_threads_flag_is_usage_error(tmp_path, capsys):
    # training is single-threaded; the removed --threads flag must not parse
    ddir = make_dataset_dir(tmp_path)
    config = write_config(tmp_path)
    code = main(["train", "--dataset-dir", ddir, "--dataset-name", "SYN",
                 "--config", config, "--out", str(tmp_path / "o"), "--threads", "2"])
    assert code == 1
    assert "--threads" in capsys.readouterr().err


def test_train_bad_config_is_data_error(tmp_path, capsys):
    ddir = make_dataset_dir(tmp_path)
    config = write_config(tmp_path, lr=-5.0)
    code = main(["train", "--dataset-dir", ddir, "--dataset-name", "SYN",
                 "--config", config, "--out", str(tmp_path / "o")])
    assert code == 2


def test_train_bad_optimizer_setting_is_data_error(tmp_path, capsys):
    ddir = make_dataset_dir(tmp_path)
    config = write_config(tmp_path, grad_clip=-1.0)
    code = main(["train", "--dataset-dir", ddir, "--dataset-name", "SYN",
                 "--config", config, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "grad_clip" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_string_valued_field_is_data_error(tmp_path, capsys):
    ddir = make_dataset_dir(tmp_path)
    config = write_config(tmp_path, epochs="3")
    code = main(["train", "--dataset-dir", ddir, "--dataset-name", "SYN",
                 "--config", config, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "epochs" in capsys.readouterr().err


@pytest.mark.parametrize("over", [
    {"walk_length": 1, "lambdas": [1.0, float("nan")]},  # json.dumps writes a NaN literal
    {"num_filters": [2.5]},
    {"mlp_hidden": 7.9},
    {"filter_nodes": ["3"]},
])
def test_train_inexact_config_is_data_error(tmp_path, capsys, over):
    ddir = make_dataset_dir(tmp_path)
    config = write_config(tmp_path, **over)
    code = main(["train", "--dataset-dir", ddir, "--dataset-name", "SYN",
                 "--config", config, "--out", str(tmp_path / "o")])
    assert code == 2
    assert not (tmp_path / "o").exists()


def test_train_negative_seed_is_data_error(tmp_path, capsys):
    ddir = make_dataset_dir(tmp_path)
    for over, flags in [({"seed": -1}, []), ({}, ["--seed", "-1"])]:
        config = write_config(tmp_path, **over)
        code = main(["train", "--dataset-dir", ddir, "--dataset-name", "SYN",
                     "--config", config, "--out", str(tmp_path / "o"), *flags])
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_export_filters_roundtrip(tmp_path, capsys):
    cfg = TrainConfig(num_filters=3, filter_nodes=3, k_max=5)
    params = init_params(cfg.model_config(2, 2), np.random.default_rng(0))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(str(ckpt), params, seed=0)
    out_dir = tmp_path / "dots"
    assert main(["export-filters", "--checkpoint", str(ckpt), "--out-dir", str(out_dir)]) == 0
    assert len(list(out_dir.glob("*.dot"))) == 3


def test_export_filters_corrupted_checkpoint(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_text("not a checkpoint")
    assert main(["export-filters", "--checkpoint", str(bad),
                 "--out-dir", str(tmp_path / "d")]) == 2


def test_output_path_that_cannot_be_a_directory_is_usage_error(tmp_path, capsys, monkeypatch):
    # refused before any training or export, not found out at the end
    calls = []
    monkeypatch.setattr(kergnn.cli, "cross_validate", lambda *args, **kwargs: calls.append("cv"))
    monkeypatch.setattr(kergnn.cli, "export_filters", lambda *args, **kwargs: calls.append("export"))
    ddir, config = make_dataset_dir(tmp_path), write_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("a file")
    for out in (taken, taken / "run"):
        code = main(["train", "--dataset-dir", ddir, "--dataset-name", "SYN",
                     "--config", config, "--out", str(out), "--folds", "2"])
        assert code == 1
        assert f"--out: cannot make a directory at {out}" in capsys.readouterr().err
    cfg = TrainConfig(num_filters=3, filter_nodes=3, k_max=5)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(str(ckpt), init_params(cfg.model_config(2, 2), np.random.default_rng(0)), seed=0)
    assert main(["export-filters", "--checkpoint", str(ckpt), "--out-dir", str(taken)]) == 1
    assert "--out-dir: cannot make a directory" in capsys.readouterr().err
    assert calls == [] and taken.read_text() == "a file"


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["kernel", "--graph-a", "x"]) == 1

