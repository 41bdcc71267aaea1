import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from dpselect import cli, trainer
from dpselect.harness import (
    ExperimentConfig,
    epsilon_tag,
    evaluate_run,
    panel_bound,
    parse_epsilon,
    run,
)


def small_config(**overrides):
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
    return ExperimentConfig.from_dict(user)


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
        assert epsilon_tag(math.inf) == "inf"
        assert epsilon_tag(7.0) == "7"
        assert epsilon_tag(0.5) == "0.5"


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

    def test_load_applies_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(small_config().raw))
        cfg = ExperimentConfig.load(path, {"training": {"steps": 40}})
        assert cfg.raw["training"]["steps"] == 40
        assert cfg.raw["training"]["checkpoint_interval"] == 5


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

    def test_rerun_skips_and_leaves_tree_untouched(self, tmp_path):
        cfg = small_config()
        run(cfg, tmp_path)
        before = tree_digest(tmp_path)
        again = run(cfg, tmp_path)
        assert {r["status"] for r in again["records"]} == {"skipped"}
        assert tree_digest(tmp_path) == before

    def test_failure_is_isolated(self, tmp_path):
        cfg = small_config(dataset={"kind": "csv", "path": str(tmp_path / "no.csv")})
        summary = run(cfg, tmp_path / "out")
        assert not summary["ok"]
        assert all(r["status"] == "failed" for r in summary["records"])
        assert all("error" in r for r in summary["records"])

    def test_evaluate_recomputes_stored_metrics(self, tmp_path):
        summary = run(small_config(), tmp_path)
        sr_dir = next(r["dir"] for r in summary["records"] if r["method"] == "sr")
        result = evaluate_run(sr_dir)
        assert result["matches_stored"]

    def test_grid_restriction(self, tmp_path):
        cfg = small_config(seeds=[0, 1], privacy={"epsilons": ["inf", 3]})
        summary = run(cfg, tmp_path, seeds=[1], epsilons=["inf"])
        assert {(r["seed"], r["epsilon"]) for r in summary["records"]} == {(1, "inf")}


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


class TestCli:
    def test_set_flag_nesting(self):
        overrides = cli._parse_set(["training.steps=40", "privacy.epsilons=[1,3]",
                                    "name=alt"])
        assert overrides == {
            "training": {"steps": 40},
            "privacy": {"epsilons": [1, 3]},
            "name": "alt",
        }

    def test_set_flag_requires_equals(self):
        with pytest.raises(SystemExit):
            cli._parse_set(["training.steps"])

    def test_accountant_command(self, capsys):
        rc = cli.main(["accountant", "--eps-target", "3", "--q", "0.02",
                       "--steps", "100", "--delta", "1e-5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.999 * 3 <= payload["epsilon"] <= 3

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
