import faulthandler
import gc
import hashlib
import json
import math
import multiprocessing
import os
import re
import tempfile
import threading
import tracemalloc
import weakref
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from dpselect import accountant, cli, evaluation, harness, models, selection, trainer
from dpselect.harness import (
    ExperimentConfig,
    evaluate_run,
    panel_bound,
    panel_imbalance,
    panel_outlier,
    parse_epsilon,
    run,
)


def small_user(**overrides):
    user = {
        "name": "smoke",
        "dataset": {
            "kind": "mixture",
            "components": [
                {"mean": [-1.5, 0.0], "count": 60, "label": 0},
                {"mean": [1.5, 0.0], "count": 60, "label": 1},
            ],
            "base_seed": 5,
        },
        "training": {"steps": 20, "checkpoint_interval": 5},
        "privacy": {"epsilons": ["inf"], "sampling_rate": 0.2},
        "seeds": [0],
        "methods": {"sr": {}, "sctd": {}},
    }
    user.update(overrides)
    return user


def small_config(**overrides):
    return ExperimentConfig.from_dict(small_user(**overrides))


def mixture(covariance=1.0, **block):
    """small_user's dataset, with the first component's covariance and more block keys."""
    components = [
        {"mean": [-1.5, 0.0], "count": 60, "label": 0, "covariance": covariance},
        {"mean": [1.5, 0.0], "count": 60, "label": 1},
    ]
    return {"dataset": {"kind": "mixture", "components": components, "base_seed": 5, **block}}


BASE_SEED_ERROR = "dataset.base_seed must be a non-negative integer, got"
SEED_ERROR = "a seed must be a non-negative integer, got"


def key_tree(obj: dict) -> list:
    """A JSON object's keys in order; a nested object (or list of them) keeps its own."""
    tree = []
    for key, value in obj.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            value = value[0]
        tree.append((key, key_tree(value)) if isinstance(value, dict) else key)
    return tree


# Report key order on stdout, and in privacy.json (written with sorted keys), pinned as
# literals so that a change to a report's fields or their order shows.
REPORT_KEYS = ["epsilon", "delta", "sigma", "sampling_rate", "steps", "optimal_order"]
SORTED_REPORT_KEYS = sorted(REPORT_KEYS)
SORTED_SPLIT_KEYS = ["heuristic_epsilon", "n_runs", ("per_run", SORTED_REPORT_KEYS), "sigma",
                     ("total", SORTED_REPORT_KEYS)]


RUN_FILES = ("log/final_probs.csv", "log/log.json", "log/predictions.csv", "params.json",
             "privacy.json")
METHOD_FILES = ("curves.csv", "metrics.json", "privacy.json", "scores.csv")


def expected_cell_files() -> list[str]:
    """Relative paths of one cell running all six methods at their defaults."""

    def run_files(subdir, extra=()):
        return [f"{subdir}/checkpoints/{name}" for name in RUN_FILES + extra]

    def method_files(subdir):
        return [f"{subdir}/{name}" for name in METHOD_FILES]

    files = run_files("base") + run_files("sat")
    for method in ("sr", "mcdo", "sctd", "sat", "de"):
        files += method_files(method)
    for m in range(5):
        files += run_files(f"de/member_{m}")
    for tag in ("0.1", "0.25", "0.5", "0.75", "1"):
        files += run_files(f"sn/c_{tag}", ("log/final_selection.csv",))
        files += method_files(f"sn/c_{tag}")
    return sorted(files + ["sn/metrics.json", "sn/privacy.json"])


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class Killed(BaseException):
    """A kill mid-write: ``run_cell`` catches only ``Exception``, so the sweep stops."""


class TestEpsilonParsing:
    def test_infinity_spellings(self):
        assert parse_epsilon("inf") == math.inf
        assert parse_epsilon("Infinity") == math.inf
        assert parse_epsilon(7) == 7.0
        assert parse_epsilon("3.5") == 3.5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            parse_epsilon(0)
        with pytest.raises(ValueError):
            parse_epsilon("-1")
        with pytest.raises(ValueError):
            parse_epsilon("nan")

    def test_tags(self):
        assert evaluation.tag(math.inf) == "inf"
        assert evaluation.tag(7.0) == "7"
        assert evaluation.tag(0.5) == "0.5"


class TestExperimentConfig:
    def test_defaults_filled(self):
        cfg = small_config()
        assert cfg.raw["model"]["hidden_sizes"] == [64]
        assert cfg.raw["training"]["learning_rate"] == 0.5
        assert cfg.raw["training"]["steps"] == 20  # user override kept
        assert cfg.raw["methods"]["sctd"]["k"] == 3.0
        assert cfg.raw["privacy"]["clip_norm"] == 1.0
        assert cfg.seeds == [0]

    def test_method_defaults_per_method(self):
        cfg = small_config(methods={"mcdo": {"passes": 5}, "de": {}})
        assert cfg.raw["methods"]["mcdo"]["passes"] == 5
        assert cfg.raw["methods"]["de"]["members"] == 5

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            small_config(methods={"magic": {}})

    def test_unknown_dataset_kind_rejected(self):
        with pytest.raises(ValueError, match="dataset kind"):
            small_config(dataset={"kind": "imagenet"})

    def test_missing_dataset_rejected(self):
        with pytest.raises(ValueError, match="dataset"):
            ExperimentConfig.from_dict({"seeds": [0]})

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ValueError):
            small_config(privacy={"epsilons": [0]})

    def test_hash_stable_under_key_order(self):
        a = small_config().hash()
        b = small_config().hash()
        assert a == b and len(a) == 12
        # same content, different construction order of the methods dict
        c = small_config(methods={"sctd": {}, "sr": {}}).hash()
        assert c == a

    def test_hash_changes_with_content(self):
        assert small_config().hash() != small_config(seeds=[1]).hash()
        assert (
            small_config().hash()
            != small_config(training={"steps": 21, "checkpoint_interval": 5}).hash()
        )

    def test_hash_changes_with_algorithm_version(self, monkeypatch):
        before = small_config().hash()
        monkeypatch.setattr(trainer, "ALGORITHM_VERSION", trainer.ALGORITHM_VERSION + 1)
        after = small_config().hash()
        assert after != before and len(after) == 12

    @pytest.mark.parametrize(
        "overrides, clash",
        [
            ({"privacy": {"epsilons": [7, 7.0000001]}}, "epsilons 7 and 7.0000001"),
            ({"methods": {"sn": {"c_targets": [0.5, 0.5000001]}}}, "c_targets 0.5 and"),
            ({"accuracy_refs": [0.85, 0.8500001]}, "accuracy_refs 0.85 and"),
            ({"seeds": [0, 0]}, "seeds 0 and 0"),
            ({"privacy": {"epsilons": []}}, "at least one seed and one epsilon"),
            ({"methods": {"sn": {"c_targets": []}}}, "at least one c_target"),
            ({"methods": {"de": {"members": 0}}}, "at least one member"),
        ],
        ids=["epsilons", "c_targets", "accuracy_refs", "seeds", "no_epsilons", "no_c_targets",
             "no_members"],
    )
    def test_rejects_values_that_share_a_directory_or_key(self, overrides, clash):
        with pytest.raises(ValueError, match=clash):
            small_config(**overrides)

    @pytest.mark.parametrize(
        "overrides, argv, error",
        [
            ({"training": {"steps": 20}}, [], "checkpoint_interval exceeds total steps"),
            ({"training": {"learning_rate": -1, "steps": 20, "checkpoint_interval": 5}}, [],
             "learning_rate must be positive"),
            ({"privacy": {"epsilons": ["inf"], "sampling_rate": 0}}, [],
             "sampling_rate must be in"),
            ({"methods": {"sat": {"momentum": 1.0}}}, [], "sat momentum must be in"),
            ({"methods": {"sn": {"c_targets": [1.5]}}}, [], "c_target must be in"),
            ({"methods": {"sn": {"alpha": 2}}}, [], "alpha in"),
            ({"privacy": {"epsilons": [3], "delta": 0}}, [], "privacy.delta must be null"),
            ({"privacy": {"epsilons": [3], "delta": -1}}, [], "privacy.delta must be null"),
            ({"privacy": {"epsilons": [3], "delta": 1.5}}, [], "privacy.delta must be null"),
            ({"privacy": {"epsilons": [3], "clip_norm": 0}}, [], "finite positive clip_norm"),
            ({"privacy": {"epsilons": [3], "clip_norm": -1}}, [], "finite positive clip_norm"),
            ({"privacy": {"epsilons": [3], "clip_norm": math.inf}}, [],
             "finite positive clip_norm"),
            ({"privacy": {"epsilons": [3], "clip_norm": "inf"}}, [],
             "privacy.clip_norm must be a JSON number, got 'inf'"),
            ({"dataset": {"kind": "mixture"}}, [], "a mixture dataset block needs 'components'"),
            ({"dataset": {"kind": "mixture", "components": [{"mean": [0.0], "label": 0}]}}, [],
             "a mixture dataset block needs 'count'"),
            ({"dataset": {"kind": "csv"}}, [], "a csv dataset block needs 'path'"),
            ({"dataset": {"kind": "gaussian_outlier", "n_major": 0}}, [], "n_major must be >= 1"),
            (mixture(-1), [], "scalar covariance must be >= 0"),
            (mixture([[1.0]]), [], "covariance shape (1, 1), expected (2, 2)"),
            (mixture([[1.0, 0.5], [0.0, 1.0]]), [], "covariance matrix must be symmetric"),
            (mixture([[1.0, 2.0], [2.0, 1.0]]), [], "must be positive semi-definite"),
            (mixture(train_fraction=1.0), [], "train_fraction must be in (0, 1), got 1.0"),
            ({"dataset": {"kind": "csv", "path": "no.csv", "train_fraction": 0}}, [],
             "train_fraction must be in (0, 1), got 0.0"),
            (mixture(imbalance={"class_id": 0, "p0": 1.5}), [], "p0 must be in [0, 1], got 1.5"),
            (mixture(imbalance={"class_id": 2, "p0": 0.5}), [], "class_id 2 outside [0, 2)"),
            (mixture(imbalance=0.1), [], "dataset.imbalance must be a JSON object, got 0.1"),
            ({"dataset": {"kind": "mixture", "components": {"a": 1}}}, [],
             "dataset.components must be a list of JSON objects"),
            ({"dataset": {"kind": "mixture", "components": [[-1.5, 0.0, 60, 0]]}}, [],
             "dataset.components must be a list of JSON objects"),
            ({"dataset": {"kind": "mixture", "components": [
                {"mean": -1.5, "count": 60, "label": 0}]}}, [],
             "a mixture dataset block has a value of the wrong type"),
            ({"dataset": 5}, [], "dataset must be a JSON object, got 5"),
            ({"training": [20, 5]}, [], "training must be a JSON object"),
            ({"methods": {"sr": 1}}, [], "methods.sr must be a JSON object, got 1"),
            (mixture(base_seed="x"), [], f"{BASE_SEED_ERROR} 'x'"),
            (mixture(base_seed=-1), [], f"{BASE_SEED_ERROR} -1"),
            (mixture(base_seed=1.5), [], f"{BASE_SEED_ERROR} 1.5"),
            (mixture(base_seed=True), [], f"{BASE_SEED_ERROR} True"),
            ({}, ["--seed", "0", "--seed", "0"], "seeds 0 and 0 share the tag 0"),
            ({}, ["accountant", "--eps-target", "0.001", "--q", "0.5", "--steps", "10000",
                  "--delta", "1e-5"], "epsilon target 0.001 unreachable"),
            ({}, ["--set", "training.steps"], "--set expects KEY=VALUE, got 'training.steps'"),
            ({}, ["--config", "TMP/missing.json"], "no config file TMP/missing.json"),
            ({}, ["accountant", "--q", "0.02", "--steps", "100", "--delta", "1e-5"],
             "accountant needs either --sigma or --eps-target"),
            ({"accuracy_refs": [0.895000001]}, [],
             "accuracy_refs 0.895000001 would be stored as '0.895'"),
            ({"training": {"steps": 20.7, "checkpoint_interval": 5}}, [],
             "training.steps must be a JSON int, got 20.7"),
            ({"training": {"steps": 20, "checkpoint_interval": "10"}}, [],
             "training.checkpoint_interval must be a JSON int, got '10'"),
            ({"seeds": [0.5]}, [], f"{SEED_ERROR} 0.5"),
            ({"seeds": [-1]}, [], f"{SEED_ERROR} -1"),
            ({"seeds": [True]}, [], f"{SEED_ERROR} True"),
            ({}, ["--seed", "-1"], f"{SEED_ERROR} -1"),
            ({"methods": {"de": {"members": 2.5}}}, [],
             "methods.de.members must be a JSON int, got 2.5"),
            ({"methods": {"de": {"members": True}}}, [],
             "methods.de.members must be a JSON int, got True"),
            ({"methods": {"mcdo": {"passes": 2.5}}}, [],
             "methods.mcdo.passes must be a JSON int, got 2.5"),
            ({"model": {"hidden_sizes": [8.5]}}, [],
             "a hidden size must be an integer >= 1, got 8.5"),
            ({"model": {"hidden_sizes": 8}}, [], "model.hidden_sizes must be a JSON list, got 8"),
            ({"methods": {"sat": {"native_score": "false"}}}, [],
             "methods.sat.native_score must be a JSON bool, got 'false'"),
            ({"accuracy_refs": 0.9}, [], "accuracy_refs must be a JSON list, got 0.9"),
            ({"methods": {"sn": {"c_targets": 0.5}}}, [],
             "methods.sn.c_targets must be a JSON list, got 0.5"),
            ({}, ["--set", "training=1", "--set", "training.steps=5"],
             "--set training.steps: training was set to 1, not an object"),
            ({}, ["--set", "training.learning_rate=[1]"],
             "training.learning_rate must be a JSON number, got [1]"),
            ({}, ["--set", 'privacy.delta={"a":1}'],
             "privacy.delta must be null or a JSON number, got {'a': 1}"),
            ({"methods": {"sctd": {"k": "x"}}}, [],
             "methods.sctd.k must be a JSON number, got 'x'"),
            ({"model": {"dropout_rate": 1.5}}, [], "dropout_rate must be in [0, 1)"),
            ({"methods": {"mcdo": {"passes": 0}}}, [], "passes must be >= 1"),
            ({"methods": {"mcdo": {"dropout_rate": 1.5}}}, [], "dropout_rate must be in [0, 1)"),
            ({"training": {"learning_rate": True, "steps": 20, "checkpoint_interval": 5}}, [],
             "training.learning_rate must be a JSON number, got True"),
            ({"training": {"learning_rate": "0.5", "steps": 20, "checkpoint_interval": 5}}, [],
             "training.learning_rate must be a JSON number, got '0.5'"),
            ({"privacy": {"epsilons": [True]}}, [],
             "an epsilon must be a number or 'inf', got True"),
            ({"accuracy_refs": [True]}, [], "accuracy_refs[0] must be a JSON number, got True"),
            ({"dataset": {"kind": "mixture", "components": [
                {"mean": [0.0], "count": 30.7, "label": 0}]}}, [],
             "dataset.components[0].count must be a JSON int, got 30.7"),
            ({"dataset": {"kind": "mixture", "components": [
                {"mean": [0.0], "count": True, "label": 0}]}}, [],
             "dataset.components[0].count must be a JSON int, got True"),
            ({"dataset": {"kind": "mixture", "components": [
                {"mean": [0.0], "count": 30, "label": 1.9}]}}, [],
             "dataset.components[0].label must be a JSON int, got 1.9"),
            ({"dataset": {"kind": "gaussian_outlier", "n_major": 50.5}}, [],
             "dataset.n_major must be a JSON int, got 50.5"),
            (mixture(imbalance={"class_id": 0.7, "p0": 0.5}), [],
             "dataset.imbalance.class_id must be a JSON int, got 0.7"),
            ({}, ["--jobs", "0"], "--jobs must be >= 1, got 0"),
            ({}, ["--jobs", "-1"], "--jobs must be >= 1, got -1"),
            ({}, ["accountant", "--eps-target", "3", "--q", "0.02", "--steps", "100", "--delta",
                  "1e-5", "--split", "0"], "--split must be >= 1, got 0"),
            ({}, ["accountant", "--eps-target", "3", "--q", "0.02", "--steps", "100", "--delta",
                  "1e-5", "--split", "-2"], "--split must be >= 1, got -2"),
            ({}, ["accountant", "--sigma", "1.1", "--q", "0.02", "--steps", "100", "--delta",
                  "1e-5", "--split", "3"], "--split divides an --eps-target budget"),
            ({}, ["accountant", "--eps-target", "3", "--sigma", "3", "--q", "0.02", "--steps",
                  "100", "--delta", "1e-5"], "give either --sigma or --eps-target, not both"),
            ({"dataset": {"kind": "mixture", "components": [
                {"mean": ["x", 0.0], "count": 30, "label": 0}]}}, [],
             "component mean must hold finite numbers, got ['x', 0.0]"),
            ({"dataset": {"kind": "mixture", "components": [
                {"mean": [math.nan, 0.0], "count": 30, "label": 0}]}}, [],
             "component mean must hold finite numbers, got [nan, 0.0]"),
            ({"dataset": {"kind": "mixture", "components": [
                {"mean": [True, 0.0], "count": 30, "label": 0}]}}, [],
             "component mean must hold finite numbers, got [True, 0.0]"),
            ({"dataset": {"kind": "csv", "path": "no.csv", "label_column": [1]}}, [],
             "dataset.label_column must be a JSON int or a column name, got [1]"),
            ({"dataset": {"kind": "csv", "path": "no.csv", "label_column": 1.5}}, [],
             "dataset.label_column must be a JSON int or a column name, got 1.5"),
            ({"dataset": {"kind": "csv", "path": "no.csv", "label_column": True}}, [],
             "dataset.label_column must be a JSON int or a column name, got True"),
            (mixture(math.nan), [], "scalar covariance must be >= 0 and finite, got nan"),
            (mixture(math.inf), [], "scalar covariance must be >= 0 and finite, got inf"),
            (mixture([[1.0, 0.0], [0.0, math.inf]]), [], "covariance matrix must be finite"),
            (mixture([[1.0, math.nan], [math.nan, 1.0]]), [], "covariance matrix must be finite"),
        ],
        ids=["checkpoint_interval", "learning_rate", "sampling_rate", "sat_momentum",
             "sn_c_target", "sn_alpha", "delta_zero", "delta_negative", "delta_above_one",
             "clip_norm_zero", "clip_norm_negative", "clip_norm_inf", "clip_norm_string",
             "mixture_no_components",
             "mixture_component_no_count", "csv_no_path", "outlier_no_majority",
             "covariance_negative", "covariance_misshaped", "covariance_asymmetric",
             "covariance_not_psd", "mixture_train_fraction", "csv_train_fraction", "imbalance_p0",
             "imbalance_class_id", "imbalance_not_object", "components_object",
             "component_list", "component_mean_scalar", "dataset_not_object",
             "training_not_object", "method_not_object", "base_seed_string",
             "base_seed_negative", "base_seed_fraction", "base_seed_bool", "repeated_seed", "unreachable_accountant_target",
             "set_without_equals", "missing_config_file", "accountant_without_sigma",
             "accuracy_ref_tag_loses_digits", "steps_fraction", "checkpoint_interval_string",
             "seed_fraction", "seed_negative", "seed_bool", "seed_flag_negative",
             "de_members_fraction", "de_members_bool", "mcdo_passes_fraction",
             "hidden_size_fraction", "hidden_sizes_not_list", "native_score_string",
             "accuracy_refs_not_list", "c_targets_not_list", "set_below_a_number",
             "set_learning_rate_list", "set_delta_object", "sctd_k_string",
             "dropout_rate_above_one", "mcdo_passes_zero", "mcdo_dropout_rate_above_one",
             "learning_rate_bool", "learning_rate_string", "epsilon_bool", "accuracy_ref_bool",
             "component_count_fraction", "component_count_bool", "component_label_fraction",
             "n_major_fraction", "imbalance_class_id_fraction", "jobs_zero", "jobs_negative",
             "accountant_split_zero", "accountant_split_negative", "accountant_split_with_sigma",
             "accountant_sigma_with_eps_target", "component_mean_string",
             "component_mean_nan", "component_mean_bool", "label_column_list",
             "label_column_fraction", "label_column_bool", "covariance_nan", "covariance_inf",
             "covariance_matrix_inf", "covariance_matrix_nan"],
    )
    def test_untrainable_settings_rejected_at_load(self, tmp_path, capsys, overrides, argv,
                                                   error):
        # Every cell would fail on these, so the sweep must not start, and the
        # command exits as a usage error instead of a traceback. A later
        # --config replaces the written one.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_user(**overrides)))
        argv = [arg.replace("TMP", str(tmp_path)) for arg in argv]
        if argv[:1] != ["accountant"]:
            argv = ["sweep", "--config", str(config_path), "--out", str(tmp_path / "out"), *argv]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: {argv[0]}: " in err and error.replace("TMP", str(tmp_path)) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "dataset, path, argv, what",
        [(None, (), [], ""), (None, ("model",), [], "model "),
         (None, ("training",), [], "training "), (None, ("privacy",), [], "privacy "),
         (None, ("methods",), [], "methods "),
         *[(None, ("methods", name), [], f"methods.{name} ") for name in harness._METHODS],
         ({"kind": "gaussian_outlier"}, ("dataset",), [], "dataset "),
         ({"kind": "csv", "path": "no.csv"}, ("dataset",), [], "dataset "),
         (None, ("dataset",), [], "dataset "),
         (None, ("dataset", "components", 1), [], "dataset.components[1] "),
         (mixture(imbalance={"class_id": 0, "p0": 0.5})["dataset"], ("dataset", "imbalance"), [],
          "dataset.imbalance "),
         (None, None, ["--set", "training.stpes=5"], "training ")],
        ids=["top_level", "model", "training", "privacy", "methods",
             *[f"method_{name}" for name in harness._METHODS], "gaussian_outlier", "csv",
             "mixture", "component", "imbalance", "set_flag"],
    )
    def test_unknown_keys_rejected_at_load(self, tmp_path, capsys, dataset, path, argv, what):
        # A misspelled key used to be ignored: the sweep trained the default in its place.
        user = small_user(methods={name: {} for name in harness._METHODS})
        user["dataset"] = dataset or user["dataset"]
        key = "stpes" if argv else "typo"
        if path is not None:
            node = user
            for part in path:
                node = node[part] if isinstance(node, list) else node.setdefault(part, {})
            node[key] = {}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(user))
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "out"),
                      *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        line = err.splitlines()[-1]
        assert line.startswith(f"dpselect: error: sweep: unknown {what}key {key!r}; known: [")
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    def test_empty_methods_rejected_at_load(self, tmp_path, capsys):
        # An empty methods block used to train nothing and report "ok": true.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_user(methods={})))
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "dpselect: error: sweep: need at least one method")
        assert not (tmp_path / "out").exists()

    def test_load_applies_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(small_config().raw))
        cfg = ExperimentConfig.load(path, ["training.steps=40"])
        assert cfg.raw["training"]["steps"] == 40
        assert cfg.raw["training"]["checkpoint_interval"] == 5


# Configs whose hash and bytes are pinned: the README example, the perfbench sweep
# workload at seed 0, and a config that writes every float setting as a JSON integer.
# The hashes cover trainer.ALGORITHM_VERSION, and the values are those of version 4.
README_CONFIG = json.loads(
    Path(__file__).resolve().parent.parent.joinpath("README.md").read_text()
    .split("```json\n", 1)[1].split("```", 1)[0]
)
PERFBENCH_SWEEP_CONFIG = {
    "name": "perfbench-sweep",
    "seeds": [0],
    "dataset": {
        "kind": "mixture",
        "components": [{"mean": [-1.25, 0.0], "count": 1500, "label": 0},
                       {"mean": [1.25, 0.0], "count": 1500, "label": 1}],
        "train_fraction": 0.5,
        "base_seed": 13,
    },
    "privacy": {"epsilons": ["inf", 3]},
    "methods": {"sr": {}, "mcdo": {"passes": 20}, "sctd": {"k": 3.0},
                "sat": {"momentum": 0.9, "burn_in_epochs": 0}, "de": {"members": 5},
                "sn": {"c_targets": [0.1, 0.25, 0.5, 0.75, 1.0]}},
}
INTEGER_FLOATS_CONFIG = {
    "name": "t",
    "seeds": [0],
    "dataset": {"kind": "mixture",
                "components": [{"mean": [-1, 0], "count": 30, "label": 0},
                               {"mean": [1, 0], "count": 30, "label": 1}],
                "train_fraction": 0.5, "base_seed": 13},
    "privacy": {"epsilons": ["inf", 3], "clip_norm": 1, "sampling_rate": 1},
    "model": {"hidden_sizes": [4], "dropout_rate": 0},
    "training": {"learning_rate": 1, "steps": 2, "checkpoint_interval": 1, "entropy_beta": 0},
    "accuracy_refs": [1],
    "methods": {"sr": {}, "sctd": {"k": 3}, "sat": {"momentum": 0},
                "sn": {"c_targets": [1], "lam": 32, "alpha": 1}},
}


@pytest.mark.parametrize(
    "user, expected",
    [(README_CONFIG, "78b0432ae865"), (PERFBENCH_SWEEP_CONFIG, "f6236f43d3a3"),
     (INTEGER_FLOATS_CONFIG, "7782935577ed")],
    ids=["readme", "perfbench_sweep", "integer_floats"],
)
def test_config_hash_is_pinned(user, expected):
    assert ExperimentConfig.from_dict(user).hash() == expected


def test_integer_floats_run_tree_is_pinned(tmp_path):
    # Digested as perfbench/workloads.py tree_summary does. The floats that sn/privacy.json
    # writes for JSON integers ("c_targets": [1.0], "sampling_rate": 1.0) are in it.
    summary = run(ExperimentConfig.from_dict(INTEGER_FLOATS_CONFIG), tmp_path)
    assert summary["ok"]
    digest, files = hashlib.sha256(), 0
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        digest.update(path.relative_to(tmp_path).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
        files += 1
    assert (digest.hexdigest()[:16], files) == ("3f264f9a6010a6c3", 69)
    privacy = json.loads((Path(summary["run_dir"]) / "seed_0/eps_3/sn/privacy.json").read_text())
    assert privacy["c_targets"] == [1.0] and privacy["run_reports"]["1"]["sampling_rate"] == 1.0


class TestRunSweep:
    def test_sweep_writes_expected_layout(self, tmp_path):
        cfg = small_config(
            privacy={"epsilons": ["inf", 3], "sampling_rate": 0.2},
            methods={m: {} for m in ("sr", "mcdo", "sctd", "sat", "de", "sn")},
        )
        summary = run(cfg, tmp_path)
        assert summary["ok"]
        assert {r["status"] for r in summary["records"]} == {"ok"}
        assert len(summary["records"]) == 12
        run_dir = Path(summary["run_dir"])
        assert run_dir == tmp_path / cfg.hash()
        assert (run_dir / "config.json").exists()
        for tag in ("inf", "3"):
            cell = run_dir / "seed_0" / f"eps_{tag}"
            files = sorted(str(p.relative_to(cell)) for p in cell.rglob("*") if p.is_file())
            assert files == expected_cell_files()

    def test_each_run_trains_once(self, tmp_path, monkeypatch):
        calls, train = [], trainer.train

        def counting_train(data, spec, train_cfg, privacy, **kwargs):
            calls.append((privacy.epsilon, train_cfg.seed))
            return train(data, spec, train_cfg, privacy, **kwargs)

        monkeypatch.setattr(harness.trainer, "train", counting_train)
        cfg = small_config(
            privacy={"epsilons": ["inf", 3], "sampling_rate": 0.2},
            methods={m: {} for m in ("sr", "mcdo", "sctd", "sat", "de", "sn")},
        )
        assert run(cfg, tmp_path)["ok"]
        # base, sat, 5 de members, 5 sn targets: 12 runs a cell, each on its own seed.
        assert len(calls) == len(set(calls)) == 24
        assert [eps for eps, _ in calls].count(math.inf) == 12
        calls.clear()
        assert run(cfg, tmp_path)["ok"]
        assert calls == []

    def test_rerun_skips_and_leaves_tree_untouched(self, tmp_path):
        cfg = small_config()
        run(cfg, tmp_path)
        before = tree_digest(tmp_path)
        again = run(cfg, tmp_path)
        assert {r["status"] for r in again["records"]} == {"skipped"}
        assert tree_digest(tmp_path) == before

    @pytest.mark.parametrize("method, kept_bytes", [("sr", 10), ("sn", 0)],
                             ids=["truncated_sr", "empty_sn"])
    def test_unreadable_marker_is_redone(self, tmp_path, method, kept_bytes):
        # A rename without fsync can leave a truncated or empty marker after a power
        # loss: its method trains again, into the bytes of a clean run.
        cfg = small_config(privacy={"epsilons": [3], "sampling_rate": 0.2},
                           methods={"sctd": {}, "sn": {"c_targets": [0.5, 1.0]}, "sr": {}})
        first = run(cfg, tmp_path)
        clean = tree_digest(tmp_path)
        marker = Path(first["run_dir"]) / "seed_0" / "eps_3" / method / "metrics.json"
        marker.write_bytes(marker.read_bytes()[:kept_bytes])
        again = run(cfg, tmp_path)
        assert again["ok"]
        assert {r["method"]: (r["status"], r.get("note")) for r in again["records"]} == {
            name: ("ok", "redone") if name == method else ("skipped", None)
            for name in ("sctd", "sn", "sr")}
        assert [r["metrics"] for r in again["records"]] == [r["metrics"] for r in first["records"]]
        assert tree_digest(tmp_path) == clean

    @staticmethod
    def patch_writer(monkeypatch, kill_at=None):
        """Count the writes; the ``kill_at``-th leaves half a temp file and stops the sweep.

        The temp carries pid 0, which no resuming process has, so a rewrite of
        its file cannot consume it. ``models`` and ``trainer`` import the writer
        by name, and forked workers inherit the patch. The count is one shared
        value, made before the pool, so that writes spread over workers are
        counted once across them.
        """
        writes, write = multiprocessing.Value("i", 0), evaluation.write_atomic

        def writer(path, text):
            with writes.get_lock():
                writes.value += 1
                count = writes.value
            if count == kill_at:
                path = Path(path)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.with_name(f".{path.name}.0.tmp").write_text(text[: len(text) // 2])
                raise Killed
            write(path, text)

        for module in (evaluation, models, trainer):
            monkeypatch.setattr(module, "write_atomic", writer)
        return writes

    @pytest.mark.parametrize("jobs, kill_points", [(1, None), (2, (1, 2, 40, 63))],
                             ids=["serial", "jobs_2"])
    def test_resume_after_a_kill_at_any_write(self, tmp_path, monkeypatch, jobs, kill_points):
        # Each kill used to leave its temp file in the resumed tree for good.
        cfg = small_config(training={"steps": 4, "checkpoint_interval": 2},
                           privacy={"epsilons": [3], "sampling_rate": 0.2},
                           methods={"sr": {}, "mcdo": {}, "sctd": {}, "sat": {},
                                    "de": {"members": 2}, "sn": {"c_targets": [0.5, 1.0]}})
        with monkeypatch.context() as patch:
            writes = self.patch_writer(patch)
            assert run(cfg, tmp_path / "clean")["ok"]
        assert writes.value == 63
        clean = tree_digest(tmp_path / "clean")
        for kill_at in kill_points or range(1, writes.value + 1):
            out = tmp_path / f"killed_at_{kill_at}"
            with monkeypatch.context() as patch:
                self.patch_writer(patch, kill_at)
                with pytest.raises(Killed):
                    run(cfg, out, jobs=jobs)
            assert len(list(out.rglob("*.tmp"))) == 1, kill_at
            assert run(cfg, out, jobs=jobs)["ok"], kill_at
            assert list(out.rglob("*.tmp")) == [], kill_at
            assert tree_digest(out) == clean, kill_at

    def test_resume_trusts_no_cut_short_table(self, tmp_path, monkeypatch):
        # A table cut short used to be trusted on resume: sr and sctd were skipped and
        # reported ok, and a missing de or sn marker retrained every run.
        methods = {m: {} for m in ("sr", "mcdo", "sctd", "sat", "de")}
        cfg = small_config(privacy={"epsilons": [3], "sampling_rate": 0.2},
                           methods={**methods, "sn": {"native_score": True}})
        assert run(cfg, tmp_path / "clean")["ok"]
        clean = tree_digest(tmp_path / "clean")
        summary = run(cfg, tmp_path / "out")
        cell = Path(summary["run_dir"]) / "seed_0" / "eps_3"
        (cell / "sr" / "scores.csv").write_bytes((cell / "sr" / "scores.csv").read_bytes()[:200])
        for table in (cell / "sctd" / "curves.csv",
                      cell / "de" / "member_1" / "checkpoints" / "log" / "final_probs.csv",
                      cell / "sn" / "c_0.1" / "checkpoints" / "log" / "final_selection.csv"):
            lines = table.read_text().splitlines(keepends=True)
            table.write_text("".join(lines[: len(lines) // 2]))
        (cell / "de" / "metrics.json").unlink()
        (cell / "sn" / "metrics.json").unlink()
        seeds, train = [], trainer.train

        def counting_train(data, spec, train_cfg, privacy, **kwargs):
            seeds.append(train_cfg.seed)
            return train(data, spec, train_cfg, privacy, **kwargs)

        monkeypatch.setattr(harness.trainer, "train", counting_train)
        again = run(cfg, tmp_path / "out")
        assert again["ok"]
        assert {r["method"]: (r["status"], r.get("note")) for r in again["records"]} == {
            "sr": ("ok", "redone"), "sctd": ("ok", "redone"), "de": ("ok", None),
            "mcdo": ("skipped", None), "sat": ("skipped", None), "sn": ("ok", None)}
        # de/member_1 and sn/c_0.1 alone
        assert seeds == [harness.derive_seed(0, 12, 1), harness.derive_seed(0, 13, 0)]
        assert tree_digest(tmp_path / "out") == clean

    def test_resume_trains_no_saved_member_again(self, tmp_path, monkeypatch):
        # A sweep stopped after de's members were saved, before de/metrics.json was
        # written, used to train every member again on resume.
        cfg = small_config(privacy={"epsilons": [3], "sampling_rate": 0.2},
                           methods={"de": {"members": 2}, "sr": {}})
        assert run(cfg, tmp_path / "clean")["ok"]
        emit = harness._emit_method

        def killed_at_de(method_dir, method, *args):
            if method == "de":
                raise Killed
            return emit(method_dir, method, *args)

        with monkeypatch.context() as patch:
            patch.setattr(harness, "_emit_method", killed_at_de)
            with pytest.raises(Killed):
                run(cfg, tmp_path / "out")
        cell = tmp_path / "out" / cfg.hash() / "seed_0" / "eps_3"
        assert all((cell / "de" / f"member_{m}" / "checkpoints" / "privacy.json").is_file()
                   for m in range(2))
        assert not (cell / "de" / "metrics.json").exists()
        calls = []
        monkeypatch.setattr(harness.trainer, "train", lambda *a, **k: calls.append(a))
        assert run(cfg, tmp_path / "out")["ok"]
        assert calls == []
        assert tree_digest(tmp_path / "out") == tree_digest(tmp_path / "clean")

    def test_finished_rerun_draws_no_data(self, tmp_path, monkeypatch):
        cfg = small_config(seeds=[0, 1])
        assert run(cfg, tmp_path)["ok"]
        calls, build = [], harness._build_dataset
        monkeypatch.setattr(harness, "_build_dataset", lambda *a: calls.append(a) or build(*a))
        again = run(cfg, tmp_path)
        assert {r["status"] for r in again["records"]} == {"skipped"}
        assert calls == []

    def test_config_is_parsed_once(self, tmp_path, monkeypatch):
        # Cells train from the config parsed at load: no cell re-reads its dataset block.
        cfg = small_config(seeds=[0, 1], privacy={"epsilons": ["inf", 3], "sampling_rate": 0.2})
        calls, parse = [], harness._dataset_source
        monkeypatch.setattr(harness, "_dataset_source", lambda *a: calls.append(a) or parse(*a))
        assert run(cfg, tmp_path)["ok"]
        assert calls == []

    def test_privacy_json_keys(self, tmp_path):
        cfg = small_config(
            privacy={"epsilons": [3], "sampling_rate": 0.2},
            methods={"sr": {}, "de": {"members": 2}, "sn": {"c_targets": [0.5, 1.0]}},
        )
        cell = Path(run(cfg, tmp_path)["run_dir"]) / "seed_0" / "eps_3"
        expected = {
            "base/checkpoints": SORTED_REPORT_KEYS,
            "sr": ["delta", ("report", SORTED_REPORT_KEYS), "target_epsilon"],
            "de": [("member_reports", SORTED_REPORT_KEYS), ("split", SORTED_SPLIT_KEYS),
                   "target_epsilon"],
            "sn": ["c_targets", ("run_reports", [("0.5", SORTED_REPORT_KEYS),
                                                 ("1", SORTED_REPORT_KEYS)]),
                   ("split", SORTED_SPLIT_KEYS), "target_epsilon"],
        }
        for subdir, keys in expected.items():
            assert key_tree(json.loads((cell / subdir / "privacy.json").read_text())) == keys

    def test_failure_is_isolated(self, tmp_path):
        cfg = small_config(dataset={"kind": "csv", "path": str(tmp_path / "no.csv")})
        summary = run(cfg, tmp_path / "out")
        assert not summary["ok"]
        assert all(r["status"] == "failed" for r in summary["records"])
        assert all("error" in r for r in summary["records"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_run_fails_and_writes_nothing(self, tmp_path):
        # A learning rate of 1e200 overflows to NaN parameters within a few steps.
        cfg = small_config(training={"steps": 20, "checkpoint_interval": 5,
                                     "learning_rate": 1e200},
                           methods={"sr": {}, "sn": {}, "sctd": {}})
        summary = run(cfg, tmp_path)
        assert not summary["ok"]
        assert [r["status"] for r in summary["records"]] == ["failed"] * 3
        assert all("training diverged" in r["error"] for r in summary["records"])
        run_dir = Path(summary["run_dir"])
        assert [p.name for p in run_dir.rglob("*") if p.is_file()] == ["config.json"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_run_is_trained_once_per_cell(self, tmp_path, monkeypatch):
        # sr, mcdo and sctd share the base run: its failure is recorded once and
        # re-raised for each of them, not retrained.
        calls, train = [], trainer.train

        def counting_train(*args, **kwargs):
            calls.append(1)
            return train(*args, **kwargs)

        monkeypatch.setattr(harness.trainer, "train", counting_train)
        cfg = small_config(training={"steps": 20, "checkpoint_interval": 5,
                                     "learning_rate": 1e200},
                           methods={"sr": {}, "mcdo": {}, "sctd": {}})
        summary = run(cfg, tmp_path)
        assert [r["status"] for r in summary["records"]] == ["failed"] * 3
        assert len({r["error"] for r in summary["records"]}) == 1
        assert "training diverged" in summary["records"][0]["error"]
        assert len(calls) == 1

    def test_cell_holds_only_the_shared_run(self, tmp_path, monkeypatch):
        # Six methods train 12 runs; only base, read by sr, mcdo and sctd, is
        # kept: no other finished run is alive while a later one trains.
        results, alive_at_call, train = [], [], trainer.train
        base_seed = harness.derive_seed(0, *harness._BASE_RUN.stream)

        def tracking_train(data, spec, train_cfg, privacy, **kwargs):
            alive_at_call.append([seed for seed, ref in results if ref() is not None])
            result = train(data, spec, train_cfg, privacy, **kwargs)
            results.append((train_cfg.seed, weakref.ref(result)))
            return result

        monkeypatch.setattr(harness.trainer, "train", tracking_train)
        cfg = small_config(methods={m: {} for m in ("sr", "mcdo", "sctd", "sat", "de", "sn")})
        assert run(cfg, tmp_path)["ok"]
        seeds = [seed for seed, _ in results]
        assert len(seeds) == len(set(seeds)) == 12 and base_seed in seeds
        assert all(alive in ([], [base_seed]) for alive in alive_at_call)

    def test_cell_keeps_no_frame_of_a_failed_shared_run(self, tmp_path, monkeypatch):
        # base fails for mcdo, sctd and sr with a 1 MB array in its frames, in both
        # the raised exception's traceback and the one it was raised while handling;
        # sat trains in between and must not find the array alive.
        held, alive_at_call, train = [], [], trainer.train
        base_seed = harness.derive_seed(0, *harness._BASE_RUN.stream)

        def failing_base(data, spec, train_cfg, privacy, **kwargs):
            if train_cfg.seed == base_seed:
                array = np.ones(2**17)
                held.append(weakref.ref(array))
                try:
                    raise KeyError("inner")
                except KeyError:
                    raise RuntimeError("base failed")
            gc.collect()
            alive_at_call.append([ref() is not None for ref in held])
            return train(data, spec, train_cfg, privacy, **kwargs)

        monkeypatch.setattr(harness.trainer, "train", failing_base)
        cfg = small_config(methods={m: {} for m in ("mcdo", "sat", "sctd", "sr")})
        records = run(cfg, tmp_path)["records"]
        assert {r["method"]: r.get("error") for r in records} == {
            "mcdo": "RuntimeError: base failed", "sat": None,
            "sctd": "RuntimeError: base failed", "sr": "RuntimeError: base failed"}
        assert len(held) == 1 and alive_at_call == [[False]]

    def test_cell_memory_does_not_grow_with_runs(self, tmp_path):
        # One eps=inf cell, 1,500 test rows and 20 checkpoints a run: keeping every
        # run's result until the cell ended grew its traced peak by 2.1 MB from
        # 2 + 2 to 6 + 6 ensemble members and coverage targets.
        def cell_peak(n):
            components = [{"mean": [mean, 0.0], "count": 1500, "label": label}
                          for mean, label in ((-1.5, 0), (1.5, 1))]
            cfg = small_config(
                dataset={"kind": "mixture", "components": components, "train_fraction": 0.5,
                         "base_seed": 5},
                training={"steps": 20, "checkpoint_interval": 1},
                privacy={"epsilons": ["inf"], "sampling_rate": 0.05},
                methods={"sr": {}, "sctd": {}, "de": {"members": n},
                         "sn": {"c_targets": [0.1 * (i + 1) for i in range(n)]}},
            )
            tracemalloc.start()
            try:
                records = harness.run_cell(cfg, 0, math.inf, tmp_path / str(n))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert [r["status"] for r in records] == ["ok"] * 4
            return peak

        assert cell_peak(6) - cell_peak(2) < 2**19

    def test_evaluate_recomputes_stored_metrics(self, tmp_path):
        summary = run(small_config(), tmp_path)
        sr_dir = next(r["dir"] for r in summary["records"] if r["method"] == "sr")
        result = evaluate_run(sr_dir)
        assert result["matches_stored"]

    def test_grid_restriction(self, tmp_path):
        cfg = small_config(seeds=[0, 1], privacy={"epsilons": ["inf", 3]})
        summary = run(cfg, tmp_path, seeds=[1], epsilons=["inf"])
        assert {(r["seed"], r["epsilon"]) for r in summary["records"]} == {(1, "inf")}

    @pytest.mark.parametrize(
        "grid, clash",
        [({"seeds": [1, 1]}, "seeds 1 and 1"), ({"epsilons": [3, 3.0000001]}, "epsilons 3")],
        ids=["seeds", "epsilons"],
    )
    def test_grid_restriction_rejects_shared_cells(self, tmp_path, grid, clash):
        with pytest.raises(ValueError, match=clash):
            run(small_config(), tmp_path, **grid)
        assert not any(tmp_path.iterdir())

    def test_parallel_tree_equals_serial(self, tmp_path):
        cfg = small_config(
            seeds=[0, 1],
            privacy={"epsilons": ["inf", 3], "sampling_rate": 0.2},
            methods={"sr": {}, "de": {"members": 2}},
        )
        serial = run(cfg, tmp_path / "serial", jobs=1)
        parallel = run(cfg, tmp_path / "parallel", jobs=2)
        assert serial["ok"] and parallel["ok"]
        assert len(parallel["records"]) == 8
        assert tree_digest(tmp_path / "parallel") == tree_digest(tmp_path / "serial")

    def test_parallel_cell_spreads_its_runs_over_the_pool(self, tmp_path, monkeypatch):
        # --jobs used to be a pool over cells, so one cell trained in one process.
        pids, train = tmp_path / "pids", trainer.train
        pids.mkdir()

        def recording_train(*args, **kwargs):
            (pids / str(os.getpid())).touch()
            return train(*args, **kwargs)

        cfg = small_config(training={"steps": 60, "checkpoint_interval": 20},
                           privacy={"epsilons": [3], "sampling_rate": 0.2},
                           methods={m: {} for m in ("sr", "mcdo", "sctd", "sat", "de", "sn")})
        serial = run(cfg, tmp_path / "serial", jobs=1)
        with monkeypatch.context() as patch:
            patch.setattr(harness.trainer, "train", recording_train)
            parallel = run(cfg, tmp_path / "parallel", jobs=2)
        assert serial["ok"] and parallel["ok"]
        workers = {int(p.name) for p in pids.iterdir()}
        assert len(workers) == 2 and os.getpid() not in workers
        assert tree_digest(tmp_path / "parallel") == tree_digest(tmp_path / "serial")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_parallel_failed_run_is_trained_once(self, tmp_path, monkeypatch):
        # On the pool, base diverges in a worker: its error text is the record of sr,
        # mcdo and sctd, and it is not trained again for any of them.
        trained, train = multiprocessing.Value("i", 0), trainer.train

        def counting_train(*args, **kwargs):
            with trained.get_lock():
                trained.value += 1
            return train(*args, **kwargs)

        monkeypatch.setattr(harness.trainer, "train", counting_train)
        cfg = small_config(training={"steps": 20, "checkpoint_interval": 5,
                                     "learning_rate": 1e200},
                           methods={"sr": {}, "mcdo": {}, "sctd": {}})
        summary = run(cfg, tmp_path, jobs=2)
        assert [r["status"] for r in summary["records"]] == ["failed"] * 3
        assert len({r["error"] for r in summary["records"]}) == 1
        assert summary["records"][0]["error"].startswith("ValueError: training diverged")
        assert trained.value == 1

    def test_a_dead_worker_fails_only_its_unfinished_runs(self, tmp_path, monkeypatch):
        # A worker that dies breaks the pool: the runs it left unfinished fail the
        # methods that read them, the summary is still written, and a resume mends it.
        train, sat_seed = trainer.train, harness.derive_seed(0, 11)

        def dying_on_sat(data, spec, train_cfg, privacy, **kwargs):
            if train_cfg.seed == sat_seed:
                os._exit(1)
            return train(data, spec, train_cfg, privacy, **kwargs)

        cfg = small_config(privacy={"epsilons": [3], "sampling_rate": 0.2},
                           methods={m: {} for m in ("sr", "mcdo", "sctd", "sat", "de", "sn")})
        with monkeypatch.context() as patch:
            patch.setattr(harness.trainer, "train", dying_on_sat)
            broken = run(cfg, tmp_path / "out", jobs=2)
        records = {r["method"]: r for r in broken["records"]}
        assert not broken["ok"] and len(records) == 6
        assert records["sat"]["error"].startswith("BrokenProcessPool: ")
        assert all(r["status"] == "ok" or r["error"].startswith("BrokenProcessPool: ")
                   for r in records.values())
        assert run(cfg, tmp_path / "out")["ok"]
        assert run(cfg, tmp_path / "clean")["ok"]
        assert tree_digest(tmp_path / "out") == tree_digest(tmp_path / "clean")

    def test_parallel_wide_private_sweep_after_a_threaded_run(self, tmp_path, monkeypatch):
        # A private [256, 256] model takes the noise worker in train(). After one such
        # run in this process no thread may remain, so the pool's fork copies none, and
        # the forked cells, which open workers of their own, must finish.
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 2)
        before = threading.active_count()
        wide = {"model": {"hidden_sizes": [256, 256], "dropout_rate": 0.1},
                "training": {"steps": 4, "checkpoint_interval": 2},
                "privacy": {"epsilons": [3], "sampling_rate": 0.2},
                "seeds": [0, 1], "methods": {"sr": {}}}
        cfg = small_config(**wide)
        workers, step = [], trainer.dpsgd_step

        def recording(*args, **kwargs):
            workers.append(kwargs["noise_worker"])
            return step(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(trainer, "dpsgd_step", recording)
            run(cfg, tmp_path / "first", seeds=[0])
        assert len(workers) == 4 and None not in workers
        assert threading.active_count() == before
        faulthandler.dump_traceback_later(120, exit=True)  # a deadlocked fork ends the session
        try:
            parallel = run(cfg, tmp_path / "parallel", jobs=2)
        finally:
            faulthandler.cancel_dump_traceback_later()
        serial = run(cfg, tmp_path / "serial", jobs=1)
        assert serial["ok"] and parallel["ok"] and len(parallel["records"]) == 2
        assert tree_digest(tmp_path / "parallel") == tree_digest(tmp_path / "serial")

    def test_native_scores_come_from_the_saved_run(self, tmp_path):
        # Every method's scores.csv is re-derived from the runs its cell saved, with
        # sat and sn scored natively and by class-portion SR.
        for native in (True, False):
            cfg = small_config(
                privacy={"epsilons": [3], "sampling_rate": 0.2},
                methods={"sr": {}, "mcdo": {}, "sctd": {}, "sat": {"native_score": native},
                         "de": {"members": 2},
                         "sn": {"native_score": native, "c_targets": [0.5, 1.0]}},
            )
            summary = run(cfg, tmp_path)
            assert summary["ok"]
            self.check_scores_against_saved_runs(
                Path(summary["run_dir"]) / "seed_0" / "eps_3",
                harness._build_dataset(cfg.source, 0)[1], native)

    @staticmethod
    def check_scores_against_saved_runs(cell: Path, test, native: bool):
        def written(subdir):
            return selection.read_scores_csv(cell / subdir / "scores.csv")[1:3]

        def log_of(subdir):
            return trainer.load_checkpoint_log(cell / subdir / "checkpoints" / "log")

        params, spec = models.load_params(cell / "base" / "checkpoints" / "params.json")
        base = log_of("base")
        expected = {
            "sr": (selection.score_sr(base.final_probs), base),
            "sctd": (selection.score_sctd(base, 3.0), base),
            "mcdo": (selection.score_mcdo(params, spec, test.features, passes=20,
                                          seed=harness.derive_seed(0, 10, 1)), base),
        }
        for subdir in ("sat", "sn/c_0.5", "sn/c_1"):
            log = log_of(subdir)
            if not native:
                scores = selection.score_sr_of(log.final_probs, test.num_classes)
            elif subdir == "sat":
                scores = selection.score_sat(log.final_probs)
            else:
                scores = selection.score_sn(log.final_selection)
            expected[subdir] = scores, log
        for subdir, (scores, log) in expected.items():
            written_scores, predicted = written(subdir)
            assert np.array_equal(written_scores, scores), subdir
            assert np.array_equal(predicted, log.predictions[-1]), subdir
        members = [cell / "de" / f"member_{m}" / "checkpoints" for m in range(2)]
        probs = np.stack([trainer.load_checkpoint_log(m / "log").final_probs for m in members])
        scores, predicted = written("de")
        assert np.array_equal(scores, selection.score_de(probs))
        assert np.array_equal(predicted, np.argmax(probs.mean(axis=0), axis=1))
        privacy = json.loads((cell / "de" / "privacy.json").read_text())
        assert privacy["member_reports"] == [json.loads((m / "privacy.json").read_text())
                                             for m in members]


@pytest.mark.parametrize("panel", [panel_outlier, panel_imbalance])
@pytest.mark.parametrize(
    "grid, clash",
    [({"seeds": (0, 0)}, "seeds 0 and 0"), ({"epsilons": (7, 7.0000001)}, "epsilons 7")],
    ids=["seeds", "epsilons"],
)
def test_panels_reject_repeated_cells(tmp_path, panel, grid, clash):
    # A repeated seed would be counted twice in the panel's summary.
    with pytest.raises(ValueError, match=clash):
        panel(**{"epsilons": (math.inf,), **grid}, out_dir=tmp_path, steps=2)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("panel", [panel_outlier, panel_imbalance])
def test_panels_reject_unknown_overrides(tmp_path, panel):
    # A typo would otherwise run the default and record the typo in params.
    with pytest.raises(ValueError, match=r"^unknown key 'stpes'; known: .*'steps'"):
        panel(seeds=(0,), epsilons=(math.inf,), out_dir=tmp_path, steps=2, stpes=5)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("panel", [panel_outlier, panel_imbalance])
def test_panels_reject_overrides_of_the_wrong_kind(tmp_path, monkeypatch, panel):
    # 2.7 steps used to train 2 and record 2.7 in params.
    trained = []
    monkeypatch.setattr(harness.trainer, "train", lambda *a, **k: trained.append(a))
    with pytest.raises(ValueError, match=r"^steps must be a JSON int, got 2\.7$"):
        panel(seeds=(0,), epsilons=(math.inf,), out_dir=tmp_path, steps=2.7)
    assert not trained and not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "p0_grid, clash",
    [((0.1, 0.1), "p0_grid 0.1 and 0.1"), ((0.01, 0.0100000001), "p0_grid 0.01 and"),
     ((), "at least one p0")],
    ids=["repeated", "shared_tag", "empty"],
)
def test_imbalance_panel_rejects_bad_p0_grid(tmp_path, p0_grid, clash):
    with pytest.raises(ValueError, match=clash):
        panel_imbalance(seeds=(0,), epsilons=(math.inf,), p0_grid=p0_grid, out_dir=tmp_path,
                        steps=2)
    assert not any(tmp_path.iterdir())


def test_imbalance_panel_reports_the_p0_grid_it_ran():
    summary = panel_imbalance(seeds=(0,), epsilons=(math.inf,), p0_grid=[0.1], steps=2)
    assert summary["params"]["p0_grid"] == [0.1]
    assert [cell["p0"] for cell in summary["cells"]] == [0.1]


class TestPanelBound:
    def test_oracle_traces_bound(self):
        summary = panel_bound(a_fulls=(0.5, 0.9), n=2000, seed=0)
        assert [row["a_full"] for row in summary["rows"]] == [0.5, 0.9]
        for row in summary["rows"]:
            assert row["max_deviation"] <= 1.0 / 2000 + 1e-12
            assert abs(row["normalized_score"]) <= 1.0 / 2000
        # closed-form area of the ideal curve: a * (1 - ln a)
        auc_half = summary["rows"][0]["auc"]
        assert auc_half == pytest.approx(0.5 * (1 - math.log(0.5)), abs=2e-3)

    def test_writes_summary_json(self, tmp_path):
        panel_bound(a_fulls=(0.5,), n=100, seed=0, out_dir=tmp_path)
        payload = json.loads((tmp_path / "panel_bound.json").read_text())
        assert payload["panel"] == "bound"


def write_config(tmp_path: Path, user: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(user))
    return path


def sweep(tmp_path, capsys, user, *flags) -> tuple[int, dict]:
    """``dpselect sweep`` of ``user`` with a ``--set`` per flag: exit code and summary."""
    argv = ["sweep", "--config", str(write_config(tmp_path, user)),
            "--out", str(tmp_path / "out")]
    for flag in flags:
        argv += ["--set", flag]
    return cli.main(argv), json.loads(capsys.readouterr().out)


class TestCli:
    def test_set_flag_nesting(self, tmp_path):
        cfg = ExperimentConfig.load(write_config(tmp_path, small_user()),
                                    ["training.steps=40", "privacy.epsilons=[1,3]", "name=alt"])
        raw = cfg.raw
        assert (raw["training"]["steps"], raw["privacy"]["epsilons"], raw["name"]) == (
            40, [1, 3], "alt")

    def test_set_flag_requires_equals(self, tmp_path):
        with pytest.raises(ValueError, match="--set expects KEY=VALUE"):
            ExperimentConfig.load(write_config(tmp_path, small_user()), ["training.steps"])

    @pytest.mark.parametrize(
        "flag, path, value",
        [("training.steps=8", ("training", "steps"), 8),
         ("privacy.epsilons=[3]", ("privacy", "epsilons"), [3]),
         ("name=alt", ("name",), "alt"),
         ('name="7"', ("name",), "7"),
         ("model.hidden_sizes=[4]", ("model", "hidden_sizes"), [4]),
         ("methods.sn.alpha=0.25", ("methods", "sn", "alpha"), 0.25)],
        ids=["training_steps", "epsilons", "bare_string", "json_string", "new_block",
             "new_method"],
    )
    def test_leaf_set_hashes_as_the_file_edited_by_hand(self, tmp_path, flag, path, value):
        user = small_user()
        config = ExperimentConfig.load(write_config(tmp_path, user), [flag])
        node = user
        for part in path[:-1]:
            node = node.setdefault(part, {})
        node[path[-1]] = value
        assert config.hash() == ExperimentConfig.from_dict(user).hash()

    def test_set_object_replaces_the_object(self, tmp_path, capsys):
        # The value used to be merged into the file's methods: sr and sn both trained.
        user = small_user(methods={"sr": {}, "sn": {"c_targets": [0.5, 1.0]}})
        rc, summary = sweep(tmp_path, capsys, user, 'methods={"sr": {}}')
        assert rc == 0 and summary["ok"]
        assert [r["method"] for r in summary["records"]] == ["sr"]
        assert summary["config_hash"] == small_config(methods={"sr": {}}).hash()
        cell = Path(summary["run_dir"]) / "seed_0" / "eps_inf"
        assert sorted(p.name for p in cell.iterdir()) == ["base", "sr"]

    def test_set_empty_object_leaves_no_method(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            sweep(tmp_path, capsys, small_user(), "methods={}")
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "dpselect: error: sweep: need at least one method")
        assert not (tmp_path / "out").exists()

    def test_set_dataset_block_replaces_the_mixture(self, tmp_path, capsys):
        # The mixture's keys used to stay: "unknown dataset key 'components'".
        labels = np.repeat([0, 1], 40)
        features = np.random.default_rng(0).normal(size=(80, 2)) + 3.0 * labels[:, None]
        csv_path = tmp_path / "d.csv"
        evaluation.write_table(csv_path, None, [features[:, 0], features[:, 1], labels])
        block = {"kind": "csv", "path": str(csv_path)}
        rc, summary = sweep(tmp_path, capsys, small_user(), f"dataset={json.dumps(block)}")
        assert rc == 0 and summary["ok"]
        assert {r["status"] for r in summary["records"]} == {"ok"}
        assert summary["config_hash"] == small_config(dataset=block).hash()

    def test_accountant_command(self, capsys):
        rc = cli.main(["accountant", "--eps-target", "3", "--q", "0.02",
                       "--steps", "100", "--delta", "1e-5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.999 * 3 <= payload["epsilon"] <= 3

    @pytest.mark.parametrize(
        "flags, expected, keys",
        [
            (["--sigma", "1.1"], lambda: accountant.account(1.1, 0.02, 100, 1e-5), REPORT_KEYS),
            (["--eps-target", "3", "--split", "5"],
             lambda: accountant.split_budget(3.0, 1e-5, 5, 0.02, 100),
             ["sigma", "n_runs", ("total", REPORT_KEYS), ("per_run", REPORT_KEYS),
              "heuristic_epsilon"]),
        ],
        ids=["sigma", "split"],
    )
    def test_accountant_command_prints_library_json(self, capsys, flags, expected, keys):
        rc = cli.main(["accountant", *flags, "--q", "0.02", "--steps", "100",
                       "--delta", "1e-5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == asdict(expected())
        assert key_tree(payload) == keys

    def test_accountant_command_rejects_nan_sigma(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["accountant", "--sigma", "nan", "--q", "0.02", "--steps", "100",
                      "--delta", "1e-5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith("error: accountant: sigma must be >= 0")

    def test_evaluate_command(self, capsys, tmp_path):
        summary = run(small_config(), tmp_path)
        sr_dir = next(r["dir"] for r in summary["records"] if r["method"] == "sr")
        rc = cli.main(["evaluate", "--dir", sr_dir])
        assert rc == 0
        expected = json.dumps(evaluate_run(sr_dir), indent=2, default=str) + "\n"
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("case, missing", [("no_dir", "scores.csv"), ("sn", "scores.csv"),
                                               ("no_metrics", "metrics.json")])
    def test_evaluate_command_rejects_an_incomplete_directory(self, capsys, tmp_path, case,
                                                              missing):
        if case == "no_dir":
            method_dir = tmp_path / "nonexistent"
        else:
            methods = {"sn": {"c_targets": [0.5]}, "sr": {}}
            summary = run(small_config(methods=methods), tmp_path)
            dirs = {r["method"]: Path(r["dir"]) for r in summary["records"]}
            assert evaluate_run(dirs["sn"] / "c_0.5")["matches_stored"]
            method_dir = dirs["sn" if case == "sn" else "sr"]
            if case == "no_metrics":
                (method_dir / "metrics.json").unlink()
        with pytest.raises(SystemExit) as exc:
            cli.main(["evaluate", "--dir", str(method_dir)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: evaluate: {method_dir} holds no {missing}" in err
        assert "Traceback" not in err

    def test_evaluate_command_rejects_a_truncated_table(self, capsys, tmp_path):
        # A scores.csv cut short used to end in an IndexError traceback.
        summary = run(small_config(), tmp_path)
        scores = Path(next(r["dir"] for r in summary["records"] if r["method"] == "sr"))
        scores /= "scores.csv"
        scores.write_bytes(scores.read_bytes()[:200])
        with pytest.raises(SystemExit) as exc:
            cli.main(["evaluate", "--dir", str(scores.parent)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert re.fullmatch(f"dpselect: error: evaluate: {re.escape(str(scores))} line \\d+ "
                            "holds \\d cells, not 5", err.splitlines()[-1])
        assert "Traceback" not in err

    def test_oracle_command(self, capsys, tmp_path):
        out = tmp_path / "curve.csv"
        rc = cli.main(["oracle", "--a-full", "0.5", "--n", "500", "--out", str(out)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_bound_deviation"] <= 1 / 500 + 1e-12
        assert out.exists()

    def test_sweep_command_roundtrip(self, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config().raw))
        rc = cli.main([
            "sweep", "--config", str(config_path), "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] and len(payload["records"]) == 2

    def test_train_command_single_cell(self, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config().raw))
        rc = cli.main([
            "train", "--config", str(config_path), "--out", str(tmp_path / "out"),
            "--seed", "0", "--eps", "inf",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert {r["epsilon"] for r in payload["records"]} == {"inf"}

    def test_failed_sweep_exits_nonzero(self, capsys, tmp_path):
        cfg = small_config(dataset={"kind": "csv", "path": str(tmp_path / "no.csv")})
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(cfg.raw))
        rc = cli.main([
            "sweep", "--config", str(config_path), "--out", str(tmp_path / "out"),
        ])
        assert rc == 1

    def test_panel_bound_command(self, capsys):
        rc = cli.main(["panel", "bound"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["panel"] == "bound"

    def test_panel_bound_command_passes_seed(self, capsys):
        rc = cli.main(["panel", "bound", "--seed", "3"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 3
        assert payload == json.loads(json.dumps(panel_bound(seed=3)))

    @pytest.mark.parametrize("which", ["outlier", "imbalance"])
    @pytest.mark.parametrize(
        "flags, clash",
        [(["--seed", "0", "--seed", "0"], "seeds 0 and 0"),
         (["--eps", "7", "--eps", "7.0000001"], "epsilons 7")],
        ids=["seeds", "epsilons"],
    )
    def test_panel_command_rejects_repeated_cells(self, capsys, which, flags, clash):
        with pytest.raises(SystemExit) as exc:
            cli.main(["panel", which, *flags])
        assert exc.value.code == 2
        assert f"panel {which}: {clash}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--seed", "1", "--seed", "2"], ["--eps", "1"]])
    def test_panel_bound_command_rejects_grid_flags(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            cli.main(["panel", "bound", *flags])
        assert exc.value.code == 2
        assert "panel bound takes at most one --seed and no --eps" in capsys.readouterr().err

# Settings fuzz: a tiny valid six-method config, each leaf set in turn to each value of
# FUZZ_VALUES. Every float setting is written as a float, so the type of each leaf's
# valid value (defaulted by the harness) is the JSON kind the leaf takes.
FUZZ_VALUES = {"string": "x", "list": [1], "object": {"a": 1}, "true": True, "minus_one": -1,
               "zero": 0, "null": None, "nan": math.nan, "inf": math.inf}
FUZZ_USER = {
    "name": "fuzz",
    "seeds": [0],
    "dataset": {
        "kind": "mixture",
        "components": [{"mean": [-1.5, 0.0], "count": 30, "label": 0, "covariance": 1.0},
                       {"mean": [1.5, 0.0], "count": 30, "label": 1}],
        "imbalance": {"class_id": 0, "p0": 1.0},
        "train_fraction": 0.5,
        "base_seed": 5,
    },
    "model": {"hidden_sizes": [4]},
    "training": {"learning_rate": 0.5, "steps": 2, "checkpoint_interval": 1},
    "privacy": {"epsilons": ["inf", 3], "sampling_rate": 0.5},
    "methods": {"sr": {}, "mcdo": {"passes": 2}, "sctd": {}, "sat": {}, "de": {"members": 1},
                "sn": {"c_targets": [0.5]}},
}
FUZZ_PANELS = {
    "outlier": (harness.panel_outlier, harness.OUTLIER_PANEL_DEFAULTS,
                {"steps": 2, "n_major": 30}),
    "imbalance": (harness.panel_imbalance, harness.IMBALANCE_PANEL_DEFAULTS,
                  {"steps": 2, "count_per_class": 30, "p0_grid": [0.5]}),
}


def fuzz_leaves(node, path=()):
    """(path, valid value) of every leaf below ``node``; a component list adds its first's."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from fuzz_leaves(value, path + (key,))
            continue
        if path + (key,) not in (("name",), ("dataset", "kind")):
            yield path + (key,), value
        if key == "components":
            yield from fuzz_leaves(value[0], path + (key, 0))


def fits(valid, value) -> bool:
    """``value`` has the JSON kind of ``valid``: a bool is no number, null takes numbers."""
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)
    if valid is None:
        return value is None or number(value)
    if isinstance(valid, float):
        return number(value)
    if isinstance(valid, int) and not isinstance(valid, bool):
        return number(value) and isinstance(value, int)
    return type(value) is type(valid)


FUZZ_CASES = [
    pytest.param("sweep", path, valid, value, id=f"{'.'.join(map(str, path))}={tag}")
    for path, valid in fuzz_leaves(harness.ExperimentConfig.from_dict(FUZZ_USER).raw)
    for tag, value in FUZZ_VALUES.items()
] + [
    pytest.param(panel, (key,), defaults[key], value, id=f"panel_{panel}.{key}={tag}")
    for panel, (_, defaults, _) in FUZZ_PANELS.items()
    for key in defaults
    for tag, value in FUZZ_VALUES.items()
]


@pytest.mark.parametrize("target, path, valid, value", FUZZ_CASES)
def test_every_setting_is_checked_at_load(capsys, monkeypatch, target, path, valid, value):
    # A value of the wrong JSON kind is rejected at load; any other value is either rejected
    # at load or trains every cell. A rejected sweep exits 2 with one line and writes no run
    # directory; a rejected panel raises before it trains.
    trained, train = [], trainer.train
    monkeypatch.setattr(harness.trainer, "train",
                        lambda *a, **k: trained.append(1) or train(*a, **k))
    if target == "sweep":
        user = json.loads(json.dumps(FUZZ_USER))
        node = user
        for key in path[:-1]:
            node = node[key] if isinstance(node, list) else node.setdefault(key, {})
        node[path[-1]] = value
        with tempfile.TemporaryDirectory() as work:  # cheaper than a tmp_path per case
            config_path, out = Path(work) / "config.json", Path(work) / "out"
            config_path.write_text(json.dumps(user))
            try:
                code = cli.main(["sweep", "--config", str(config_path), "--out", str(out)])
            except SystemExit as exc:
                code = exc.code
            written = out.exists()
        captured = capsys.readouterr()
        if code == 2:
            assert captured.err.splitlines()[-1].startswith("dpselect: error: sweep: ")
            assert "Traceback" not in captured.err
            assert not written and not trained
            return
        assert code == 0 and json.loads(captured.out)["ok"], captured.out
    else:
        panel, _, base = FUZZ_PANELS[target]
        try:
            panel(seeds=(0,), epsilons=(math.inf, 3.0), **{**base, path[0]: value})
        except ValueError:
            assert not trained
            return
    assert fits(valid, value), "accepted a value of the wrong JSON kind"
    assert not (isinstance(value, float) and not math.isfinite(value)), \
        "accepted a non-finite number"
