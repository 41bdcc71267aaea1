"""Experiment harness: config-driven sweeps over seeds and privacy levels.

A sweep is a grid of cells (seed, epsilon); each cell trains the models its
requested methods need and evaluates every method into its own directory::

    <out>/<config-hash>/seed_<s>/eps_<tag>/<method>/
        scores.csv      per-point scores, predictions, labels
        curves.csv      coverage, accuracy, bound, gap
        metrics.json    a_full, auc, normalized_score, coverage_at
        privacy.json    realized accounting for everything trained here

Each training run saves its parameters and checkpoint log in a
``checkpoints/`` directory: ``base/`` holds the run shared by sr, mcdo and
sctd, and ``sat/``, ``de/member_<m>/`` and ``sn/c_<tag>/`` the others.
Selective nets emit the files above once per coverage target, in
``sn/c_<tag>/``, plus ``sn/metrics.json`` and ``sn/privacy.json``.

``metrics.json`` doubles as the cell's completion marker: re-running an
unchanged config skips every completed method, so a finished sweep performs
zero new training. Every file is moved into place whole, so a crash never
leaves a truncated marker. The config hash is taken over the canonical
JSON of the fully defaulted config, which makes it stable under key
reordering, and over ``trainer.ALGORITHM_VERSION``, so cells trained by
older arithmetic land in another run directory instead of being skipped.

Method cost model per cell: the ``_METHODS`` table gives each method its
default settings, the runs it trains and its scorer, and a cell trains each
run at most once. Softmax response, Monte Carlo dropout and checkpoint
disagreement score one shared base run; self-adaptive training owns one run;
a deep ensemble of M members and the per-target-coverage selective nets are
accounted jointly, one noise level calibrated so the composition of all
their runs meets the cell's budget.
"""

from __future__ import annotations

import concurrent.futures
import copy
import hashlib
import json
import math
from dataclasses import asdict
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import accountant, evaluation, models, selection, trainer
from .data import (
    LabeledDataset,
    MixtureComponent,
    MixtureSpec,
    check_subsample,
    check_train_fraction,
    gen_mixture,
    load_csv,
    outlier_spec,
    split,
    subsample_class,
)
from .losses import LossSpec, cross_entropy_loss, sat_loss, selectivenet_loss
from .models import ModelSpec
from .rng import derive_seed
from .trainer import PrivacyConfig, TrainConfig

CONFIG_VERSION = 1

_BLOCK_DEFAULTS: dict[str, dict] = {
    "model": {"hidden_sizes": [64], "dropout_rate": 0.1},
    "training": {
        "learning_rate": 0.5,
        "steps": 400,
        "checkpoint_interval": 50,
        "entropy_beta": 0.01,
    },
    "privacy": {
        "epsilons": ["inf", 7, 3, 1],
        "delta": None,
        "clip_norm": 1.0,
        "sampling_rate": 0.05,
    },
}


def parse_epsilon(value) -> float:
    if isinstance(value, str) and value.strip().lower() in ("inf", "infinity"):
        return math.inf
    eps = float(value)
    if not eps > 0:  # also rejects nan
        raise ValueError("epsilon must be positive")
    return eps


def epsilon_tag(eps: float) -> str:
    return "inf" if math.isinf(eps) else f"{eps:g}"


def _g_tag(value) -> str:
    """Directory and metrics-key tag of a coverage target or accuracy ref."""
    return f"{float(value):g}"


def _reject_shared_tags(what: str, values, tag) -> None:
    """Two values that share a tag would share one directory or metrics key."""
    seen = {}
    for value in values:
        key = tag(value)
        if key in seen:
            raise ValueError(f"{what} {seen[key]!r} and {value!r} share the tag {key!r}")
        seen[key] = value


def _check_grid(seeds, epsilons) -> None:
    """Every (seed, epsilon) cell of the grid gets a directory of its own."""
    if not seeds or not epsilons:
        raise ValueError("need at least one seed and one epsilon")
    _reject_shared_tags("seeds", seeds, int)
    _reject_shared_tags("epsilons", epsilons, lambda e: epsilon_tag(parse_epsilon(e)))


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


class ExperimentConfig:
    """Fully defaulted experiment description with a content-stable hash."""

    def __init__(self, raw: dict):
        self.raw = raw
        self._validate()

    @classmethod
    def from_dict(cls, user: dict) -> "ExperimentConfig":
        raw = {
            "version": CONFIG_VERSION,
            "name": "experiment",
            "seeds": [0, 1, 2, 3, 4],
            "accuracy_refs": [0.9, 0.95],
            "methods": {"sr": {}},
        }
        raw.update(copy.deepcopy(user))
        for block, defaults in _BLOCK_DEFAULTS.items():
            raw[block] = _deep_merge(defaults, raw.get(block, {}))
        methods = {}
        for name, settings in raw["methods"].items():
            if name not in _METHODS:
                raise ValueError(f"unknown method {name!r}; known: {tuple(_METHODS)}")
            methods[name] = _deep_merge(_METHODS[name].defaults, settings or {})
        raw["methods"] = methods
        return cls(raw)

    @classmethod
    def load(cls, path: str | Path, overrides: dict | None = None) -> "ExperimentConfig":
        if not Path(path).is_file():
            raise ValueError(f"no config file {path}")
        user = json.loads(Path(path).read_text())
        if overrides:
            user = _deep_merge(user, overrides)
        return cls.from_dict(user)

    def _validate(self):
        raw = self.raw
        if raw.get("version") != CONFIG_VERSION:
            raise ValueError(f"config version must be {CONFIG_VERSION}")
        if "dataset" not in raw or "kind" not in raw["dataset"]:
            raise ValueError("config needs a dataset block with a 'kind'")
        _dataset_source(raw["dataset"])
        _check_grid(raw["seeds"], raw["privacy"]["epsilons"])
        delta = raw["privacy"]["delta"]
        if delta is not None and not 0.0 < float(delta) < 1.0:
            raise ValueError(f"privacy.delta must be null or in (0, 1), got {delta!r}")
        _reject_shared_tags("accuracy_refs", raw.get("accuracy_refs", ()), _g_tag)
        # Settings that no cell could train fail here, before run() writes anything.
        for name, settings in raw["methods"].items():
            _METHODS[name].runs(settings)
        _train_cfg(raw, cross_entropy_loss(), 0)
        _privacy_cfg(raw, min(self.epsilons), 0.5)  # 0.5 stands in for delta, checked above

    def hash(self) -> str:
        """Digest of the config and of ``trainer.ALGORITHM_VERSION``.

        Mixing in the version keeps a re-run from skipping cells that older
        training code wrote; the version is not part of the config.
        """
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        stamped = f"{trainer.ALGORITHM_VERSION}\0{canonical}"
        return hashlib.sha256(stamped.encode()).hexdigest()[:12]

    @property
    def seeds(self) -> list[int]:
        return [int(s) for s in self.raw["seeds"]]

    @property
    def epsilons(self) -> list[float]:
        return [parse_epsilon(e) for e in self.raw["privacy"]["epsilons"]]


def _dataset_source(dcfg: dict) -> tuple[MixtureSpec | Path, float | None, tuple | None]:
    """The block's mixture or CSV path, train fraction and imbalance ``(class_id, p0)``.

    Each is checked without drawing or reading data. A ``gaussian_outlier``
    block has no train fraction: it draws its test set apart.
    """
    kind = dcfg["kind"]
    try:
        if kind == "gaussian_outlier":
            return outlier_spec(int(dcfg.get("n_major", 1000)),
                                dcfg.get("outlier_mean", [10.0, 0.0])), None, None
        if kind == "csv":
            source = Path(dcfg["path"])
        elif kind == "mixture":
            source = MixtureSpec(tuple(
                MixtureComponent(tuple(c["mean"]), c.get("covariance", 1.0), int(c["count"]),
                                 int(c["label"])) for c in dcfg["components"]))
        else:
            raise ValueError(f"unknown dataset kind {kind!r}")
        fraction = float(dcfg.get("train_fraction", 0.8 if kind == "csv" else 0.5))
        check_train_fraction(fraction)
        imbalance = dcfg.get("imbalance") if kind == "mixture" else None
        if imbalance:
            imbalance = int(imbalance["class_id"]), float(imbalance["p0"])
            check_subsample(source.num_classes, *imbalance)
    except KeyError as exc:
        raise ValueError(f"a {kind} dataset block needs {exc}") from None
    return source, fraction, imbalance or None


def _build_dataset(dcfg: dict, seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    base, (source, fraction, imbalance) = int(dcfg.get("base_seed", 0)), _dataset_source(dcfg)
    if fraction is None:
        return tuple(gen_mixture(source, derive_seed(base, seed, i)) for i in (0, 1))
    if isinstance(source, Path):
        data = load_csv(source, dcfg.get("label_column", -1))
        return split(data, fraction, derive_seed(base, seed, 0))
    data = gen_mixture(source, derive_seed(base, seed, 0))
    if imbalance:
        data = subsample_class(data, *imbalance, derive_seed(base, seed, 1))
    return split(data, fraction, derive_seed(base, seed, 2))


def _model_spec(raw: dict, data: LabeledDataset, loss_kind: str = "cross_entropy") -> ModelSpec:
    """The ``model`` block's network, with the output heads ``loss_kind`` trains."""
    mcfg = raw["model"]
    return ModelSpec(
        input_dim=data.input_dim,
        num_classes=data.num_classes,
        hidden_sizes=tuple(mcfg["hidden_sizes"]),
        dropout_rate=float(mcfg["dropout_rate"]),
        abstention_head=loss_kind == "sat",
        selectivenet_heads=loss_kind == "selectivenet",
    )


def _train_cfg(raw: dict, loss: LossSpec, run_seed: int) -> TrainConfig:
    tcfg = raw["training"]
    return TrainConfig(
        learning_rate=float(tcfg["learning_rate"]),
        steps=int(tcfg["steps"]),
        loss=loss,
        entropy_beta=float(tcfg["entropy_beta"]),
        checkpoint_interval=int(tcfg["checkpoint_interval"]),
        seed=run_seed,
    )


def _privacy_cfg(raw: dict, eps: float, delta: float, sigma=None) -> PrivacyConfig:
    pcfg = raw["privacy"]
    steps = int(raw["training"]["steps"])
    if math.isinf(eps):
        return PrivacyConfig.non_private(steps, float(pcfg["sampling_rate"]))
    return PrivacyConfig(
        epsilon=eps,
        delta=delta,
        clip_norm=float(pcfg["clip_norm"]),
        sampling_rate=float(pcfg["sampling_rate"]),
        steps=steps,
        noise_multiplier="auto" if sigma is None else sigma,
    )


def _train_run(raw, data, test, spec, loss, eps, delta, seed, sigma=None) -> trainer.TrainResult:
    """One training run under the ``training`` and ``privacy`` blocks of ``raw``."""
    train_cfg, privacy = _train_cfg(raw, loss, seed), _privacy_cfg(raw, eps, delta, sigma)
    return trainer.train(data, spec, train_cfg, privacy, eval_set=test)


def _save_run(directory: Path, result: trainer.TrainResult, spec: ModelSpec) -> None:
    models.save_params(result.params, spec, directory / "params.json")
    trainer.save_checkpoint_log(result.log, directory / "log")
    evaluation.write_json(asdict(result.report), directory / "privacy.json")


def _emit_method(method_dir: Path, method: str, scores: np.ndarray, predicted: np.ndarray,
                 true_labels: np.ndarray, accuracy_refs, privacy_payload: dict) -> dict:
    """Write the full artifact set; metrics.json lands last as the marker."""
    correctness = predicted == true_labels
    curve = evaluation.build_curve(scores, correctness)
    selection.write_scores_csv(
        method_dir / "scores.csv", method, scores, predicted, true_labels
    )
    evaluation.write_curve_csv(curve, method_dir / "curves.csv")
    evaluation.write_json(privacy_payload, method_dir / "privacy.json")
    metrics = evaluation.curve_metrics(curve, tuple(accuracy_refs))
    evaluation.write_metrics_json(metrics, method_dir / "metrics.json")
    return metrics


class _Run(NamedTuple):
    """A run of a cell, saved in ``<subdir>/checkpoints``; its loss picks its heads."""

    subdir: str
    loss: LossSpec
    stream: tuple[int, ...]  # run seed: derive_seed(cell seed, *stream)


class _Method(NamedTuple):
    """Defaults, ``runs(settings)``, ``score(cell, run, result, settings)`` and ``emit``.

    Without ``emit`` the one run trains at the cell budget and is emitted into
    ``<method>/``; with it, the runs share one split budget's noise level and
    ``emit`` writes the method's output shape (and decides how it scores).
    """

    defaults: dict
    runs: Callable[[dict], list[_Run]]
    score: Callable
    emit: Callable | None = None


class _Cell:
    """One (seed, epsilon) grid cell; trains each of its runs at most once."""

    def __init__(self, config: ExperimentConfig, seed: int, eps: float, cell_dir: Path):
        self.raw = config.raw
        self.seed = seed
        self.eps = eps
        self.cell_dir = cell_dir
        self.train_data, self.test_data = _build_dataset(self.raw["dataset"], seed)
        delta = self.raw["privacy"]["delta"]
        self.delta = 1.0 / len(self.train_data) if delta is None else float(delta)
        self.refs = self.raw.get("accuracy_refs", ())
        self._trained: dict[str, trainer.TrainResult] = {}

    def spec(self, run: _Run) -> ModelSpec:
        return _model_spec(self.raw, self.train_data, run.loss.kind)

    def train(self, run: _Run, sigma=None) -> trainer.TrainResult:
        """Train ``run`` (at noise ``sigma`` if given) and save it, once per cell."""
        if run.subdir not in self._trained:
            spec, seed = self.spec(run), derive_seed(self.seed, *run.stream)
            result = _train_run(self.raw, self.train_data, self.test_data, spec, run.loss,
                                self.eps, self.delta, seed, sigma)
            _save_run(self.cell_dir / run.subdir / "checkpoints", result, spec)
            self._trained[run.subdir] = result
        return self._trained[run.subdir]

    def _emit(self, subdir: str, method: str, scores, predicted, payload: dict) -> dict:
        labels, refs = self.test_data.labels, self.refs
        return _emit_method(self.cell_dir / subdir, method, scores, predicted, labels, refs, payload)

    def _ensemble_sigma(self, n_runs: int):
        """Shared noise level plus its accounting payload for n_runs runs."""
        if math.isinf(self.eps):
            return None, {"target_epsilon": "inf", "n_runs": n_runs}
        privacy = _privacy_cfg(self.raw, self.eps, self.delta)
        bs = accountant.split_budget(
            self.eps, self.delta, n_runs, privacy.sampling_rate, privacy.steps
        )
        return bs.sigma, {"target_epsilon": epsilon_tag(self.eps), "split": asdict(bs)}

    def run_method(self, method: str, settings: dict) -> dict:
        row = _METHODS[method]
        runs = row.runs(settings)
        if row.emit is None:
            (run,) = runs
            result = self.train(run)
            payload = {"target_epsilon": epsilon_tag(self.eps), "delta": self.delta,
                       "report": asdict(result.report)}
            scores = row.score(self, run, result, settings)
            return self._emit(method, method, scores, result.log.predictions[-1], payload)
        sigma, payload = self._ensemble_sigma(len(runs))
        trained = [(run, self.train(run, sigma)) for run in runs]
        return row.emit(self, method, row, settings, trained, payload)

    def _emit_ensemble(self, method, row, settings, trained, payload) -> dict:
        """One output for the members' mean; ``row.score`` takes their stacked probs."""
        payload["member_reports"] = [asdict(result.report) for _, result in trained]
        member_probs = np.stack([result.log.final_probs for _, result in trained])
        predicted = np.argmax(member_probs.mean(axis=0), axis=1)
        return self._emit(method, method, row.score(member_probs), predicted, payload)

    def _emit_per_target(self, method, row, settings, trained, payload) -> dict:
        """One output per coverage target, then the joint account and all targets' metrics."""
        payload["c_targets"] = [float(c) for c in settings["c_targets"]]
        payload["run_reports"], metrics = {}, {"c_targets": {}}
        for c_target, (run, result) in zip(payload["c_targets"], trained):
            tag = _g_tag(c_target)
            report = payload["run_reports"][tag] = asdict(result.report)
            scores = row.score(self, run, result, settings)
            metrics["c_targets"][tag] = self._emit(
                run.subdir, method, scores, result.log.predictions[-1],
                {"target_epsilon": epsilon_tag(self.eps), "report": report},
            )
        evaluation.write_json(payload, self.cell_dir / method / "privacy.json")
        evaluation.write_metrics_json(metrics, self.cell_dir / method / "metrics.json")
        return metrics


def _class_scores(native):
    """Scorer: ``native(log)`` when ``native_score`` is set, else class-portion SR."""
    return lambda cell, run, result, s: (
        native(result.log) if s["native_score"]
        else selection.score_sr_of(result.log.final_probs, cell.test_data.num_classes)
    )


def _de_runs(s: dict) -> list[_Run]:
    if int(s["members"]) < 1:
        raise ValueError("de needs at least one member")
    return [_Run(f"de/member_{m}", cross_entropy_loss(), (12, m)) for m in range(int(s["members"]))]


def _sn_runs(s: dict) -> list[_Run]:
    if not s["c_targets"]:
        raise ValueError("sn needs at least one c_target")
    _reject_shared_tags("sn c_targets", s["c_targets"], _g_tag)
    lam, alpha = float(s["lam"]), float(s["alpha"])
    return [_Run(f"sn/c_{_g_tag(c)}", selectivenet_loss(float(c), lam, alpha), (13, i))
            for i, c in enumerate(s["c_targets"])]


# The sweep's methods. Run-seed streams 10-13 keep one cell's runs apart, and
# the base run is one subdir, so sr, mcdo and sctd score a single training.
_BASE_RUN = _Run("base", cross_entropy_loss(), (10,))
_METHODS: dict[str, _Method] = {
    "sr": _Method(
        {}, lambda s: [_BASE_RUN],
        lambda cell, run, result, s: selection.score_sr(result.log.final_probs),
    ),
    "mcdo": _Method(
        {"passes": 20, "dropout_rate": None}, lambda s: [_BASE_RUN],
        lambda cell, run, result, s: selection.score_mcdo(
            result.params, cell.spec(run), cell.test_data.features, passes=int(s["passes"]),
            seed=derive_seed(cell.seed, *run.stream, 1), dropout_rate=s.get("dropout_rate"),
        ),
    ),
    "sctd": _Method(
        {"k": 3.0}, lambda s: [_BASE_RUN],
        lambda cell, run, result, s: selection.score_sctd(result.log, float(s["k"])),
    ),
    "sat": _Method(
        {"momentum": 0.9, "burn_in_epochs": 0, "native_score": False},
        lambda s: [_Run("sat", sat_loss(float(s["momentum"]), int(s["burn_in_epochs"])), (11,))],
        _class_scores(lambda log: selection.score_sat(log.final_probs)),
    ),
    "de": _Method({"members": 5}, _de_runs, lambda probs: selection.score_de(probs),
                  _Cell._emit_ensemble),
    "sn": _Method(
        {"c_targets": [0.1, 0.25, 0.5, 0.75, 1.0], "alpha": 0.5, "lam": 32.0,
         "native_score": False},
        _sn_runs, _class_scores(lambda log: selection.score_sn(log.final_selection)),
        _Cell._emit_per_target,
    ),
}


def run_cell(raw_config: dict, seed: int, eps: float, run_dir: str | Path) -> list[dict]:
    """Execute one (seed, epsilon) cell; one record per method.

    A method whose ``metrics.json`` already exists is skipped, and the cell's
    data is drawn only for the first method that is not. A method that raises
    (building the cell included) is recorded as failed and the remaining
    methods still run.
    """
    config = ExperimentConfig(raw_config)
    cell_dir = Path(run_dir) / f"seed_{seed}" / f"eps_{epsilon_tag(eps)}"
    records, cell = [], None
    for method, settings in sorted(config.raw["methods"].items()):
        record = {
            "seed": seed,
            "epsilon": epsilon_tag(eps),
            "method": method,
            "dir": str(cell_dir / method),
        }
        marker = cell_dir / method / "metrics.json"
        try:
            if marker.exists():
                record["status"] = "skipped"
                record["metrics"] = json.loads(marker.read_text())
            else:
                cell = cell or _Cell(config, seed, eps, cell_dir)
                record["status"] = "ok"
                record["metrics"] = cell.run_method(method, settings)
        except Exception as exc:  # a broken method must not kill the sweep
            record["status"] = "failed"
            record["error"] = f"{type(exc).__name__}: {exc}"
        records.append(record)
    return records


def run(
    config: ExperimentConfig,
    out_root: str | Path,
    jobs: int = 1,
    seeds=None,
    epsilons=None,
) -> dict:
    """Run the full sweep grid; returns a machine-readable summary.

    ``seeds`` and ``epsilons`` restrict the grid (command-line overrides).
    With ``jobs > 1`` cells run in a bounded process pool; each cell owns its
    output directory exclusively and the summary is assembled only after all
    cells have finished.
    """
    seeds = config.seeds if seeds is None else list(seeds)
    epsilons = config.epsilons if epsilons is None else [parse_epsilon(e) for e in epsilons]
    _check_grid(seeds, epsilons)
    run_dir = Path(out_root) / config.hash()
    evaluation.write_json(config.raw, run_dir / "config.json")
    cells = [(config.raw, seed, eps, run_dir) for seed in seeds for eps in epsilons]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            per_cell = list(pool.map(run_cell, *zip(*cells)))
    else:
        per_cell = [run_cell(*cell) for cell in cells]
    records = [record for cell_records in per_cell for record in cell_records]
    ok = all(r["status"] != "failed" for r in records)
    return {"config_hash": config.hash(), "run_dir": str(run_dir), "ok": ok, "records": records}


def evaluate_run(method_dir: str | Path) -> dict:
    """Recompute metrics from persisted scores and compare with the stored copy."""
    method_dir = Path(method_dir)
    if missing := [n for n in ("scores.csv", "metrics.json") if not (method_dir / n).is_file()]:
        raise ValueError(f"{method_dir} holds no {missing[0]}; pass one method's directory")
    _, scores, predicted, true_labels = selection.read_scores_csv(method_dir / "scores.csv")
    stored = json.loads((method_dir / "metrics.json").read_text())
    curve = evaluation.build_curve(scores, predicted == true_labels)
    refs = tuple(float(k) for k in stored.get("coverage_at", {}))
    metrics = evaluation.curve_metrics(curve, refs)
    return {"metrics": metrics, "matches_stored": metrics == stored}


# ---------------------------------------------------------------------------
# Panels: fixed small-scale studies with pinned defaults.
# ---------------------------------------------------------------------------

# Tuned so the 5-seed panel separates cleanly: the non-private model
# memorizes the outlier while every private level stays majority-locked with
# confidence falling as the budget shrinks. At larger outlier distances the
# noise-dominated weights at eps=1 drift back toward 0.5 confidence and
# break that ordering, so the panel runs closer-in than the motivating
# illustration.
OUTLIER_PANEL_DEFAULTS = {
    "n_major": 300,
    "outlier_mean": [6.0, 0.0],
    "learning_rate": 0.5,
    "steps": 600,
    "sampling_rate": 0.1,
    "clip_norm": 1.25,
    "entropy_beta": 0.01,
    "base_seed": 33,
}

IMBALANCE_PANEL_DEFAULTS = {
    "count_per_class": 1500,
    "class_separation": 1.25,
    "p0_grid": [0.5, 0.25, 0.1, 0.01],
    "hidden_sizes": [32],
    "learning_rate": 0.25,
    "steps": 600,
    "sampling_rate": 0.05,
    "clip_norm": 1.0,
    "entropy_beta": 0.01,
    "train_fraction": 0.5,
    "base_seed": 13,
}

_DEFAULT_EPSILONS = (math.inf, 7.0, 3.0, 1.0)


def _panel_raw(p: dict) -> dict:
    """The model, training and privacy blocks a panel's runs train under."""
    steps = int(p["steps"])
    return {
        "model": {"hidden_sizes": p.get("hidden_sizes", []), "dropout_rate": 0.0},
        "training": {
            "learning_rate": p["learning_rate"],
            "steps": steps,
            "checkpoint_interval": max(1, min(50, steps)),
            "entropy_beta": p["entropy_beta"],
        },
        "privacy": {"clip_norm": p["clip_norm"], "sampling_rate": p["sampling_rate"]},
    }


def _panel_cells(p: dict, seeds, epsilons, datasets, stream: int, stats) -> list[dict]:
    """One run per (seed, dataset, epsilon), seeded by ``derive_seed(base_seed, seed, stream)``.

    ``datasets`` pairs each dataset block with the keys its cells carry; a
    cell is those keys, the seed and the epsilon, then ``stats(result, test)``.
    """
    raw, cells = _panel_raw(p), []
    for seed in seeds:
        for keys, block in datasets:
            data, test = _build_dataset(block, seed)
            for eps in epsilons:
                result = _train_run(raw, data, test, _model_spec(raw, data), cross_entropy_loss(),
                                    eps, 1.0 / len(data), derive_seed(p["base_seed"], seed, stream))
                cells.append({"seed": seed, **keys, "epsilon": epsilon_tag(eps),
                              **stats(result, test)})
    return cells


def _write_panel(summary: dict, out_dir: str | Path | None) -> dict:
    if out_dir is not None:
        path = Path(out_dir) / f"panel_{summary['panel']}.json"
        evaluation.write_atomic(path, json.dumps(summary, indent=2) + "\n")
    return summary


def panel_outlier(
    seeds=(0, 1, 2, 3, 4),
    epsilons=_DEFAULT_EPSILONS,
    out_dir: str | Path | None = None,
    **overrides,
) -> dict:
    """Single-outlier logistic regression across the privacy grid.

    Trains on the majority cloud plus one outlier, evaluates on a fresh draw
    from the same process, and records how the privacy level flips the
    outlier's prediction and inflates wrong-class confidence.
    """
    _check_grid(seeds, epsilons)
    p = {**OUTLIER_PANEL_DEFAULTS, **overrides}

    def stats(result, test) -> dict:
        outlier_idx = int(np.flatnonzero(test.labels == 0)[0])
        predicted = int(result.log.predictions[-1][outlier_idx])
        return {
            "outlier_correct_prob": float(result.log.final_probs[outlier_idx, 0]),
            "outlier_predicted": predicted,
            "outlier_correct": predicted == 0,
            "realized_epsilon": result.report.epsilon,
            "sigma": result.report.sigma,
        }

    datasets = [({}, {"kind": "gaussian_outlier", **p})]
    cells = _panel_cells(p, seeds, epsilons, datasets, 2, stats)
    by_eps = {}
    for eps in epsilons:
        tag = epsilon_tag(eps)
        rows = [c for c in cells if c["epsilon"] == tag]
        by_eps[tag] = {
            "n_correct": sum(c["outlier_correct"] for c in rows),
            "n_seeds": len(rows),
            "mean_correct_prob": float(np.mean([c["outlier_correct_prob"] for c in rows])),
        }
    summary = {"panel": "outlier", "params": p, "cells": cells, "by_epsilon": by_eps}
    return _write_panel(summary, out_dir)


def panel_imbalance(
    seeds=(0, 1, 2, 3, 4),
    epsilons=_DEFAULT_EPSILONS,
    out_dir: str | Path | None = None,
    **overrides,
) -> dict:
    """Class-imbalanced mixture with MLPs across (p0, epsilon).

    Per cell: where the softmax-response order places minority points (mean
    normalized acceptance rank), minority-class accuracy, and the normalized
    selective score.
    """
    _check_grid(seeds, epsilons)
    p = {**IMBALANCE_PANEL_DEFAULTS, **overrides}
    if not p["p0_grid"]:
        raise ValueError("need at least one p0")
    _reject_shared_tags("p0_grid", p["p0_grid"], _g_tag)
    sep = p["class_separation"]
    dataset = {
        "kind": "mixture",
        "components": [
            {"mean": [-sep, 0.0], "count": p["count_per_class"], "label": 0},
            {"mean": [sep, 0.0], "count": p["count_per_class"], "label": 1},
        ],
        "train_fraction": p["train_fraction"],
        "base_seed": p["base_seed"],
    }

    def stats(result, test) -> dict:
        scores = selection.score_sr(result.log.final_probs)
        correctness = result.log.predictions[-1] == test.labels
        curve = evaluation.build_curve(scores, correctness)
        order = np.lexsort((np.arange(len(scores)), scores))
        ranks = np.empty(len(scores))
        ranks[order] = np.arange(len(scores)) / max(len(scores) - 1, 1)
        minority = test.labels == 0
        return {
            "minority_test_count": int(minority.sum()),
            "minority_mean_rank": float(ranks[minority].mean()) if minority.any() else None,
            "minority_accuracy": float(correctness[minority].mean()) if minority.any() else None,
            "sr_normalized_score": evaluation.normalized_score(curve),
            "a_full": curve.a_full,
            "realized_epsilon": result.report.epsilon,
        }

    datasets = [({"p0": p0}, {**dataset, "imbalance": {"class_id": 0, "p0": p0}})
                for p0 in p["p0_grid"]]
    cells = _panel_cells(p, seeds, epsilons, datasets, 3, stats)
    summary = {"panel": "imbalance", "params": p, "cells": cells}
    return _write_panel(summary, out_dir)


def panel_bound(
    a_fulls=(0.5, 0.7, 0.9),
    n: int = 10_000,
    seed: int = 0,
    out_dir: str | Path | None = None,
) -> dict:
    """Ideal-score oracle curves against the achievability bound."""
    rows = []
    for a_full in a_fulls:
        scores, correctness = evaluation.ideal_score_oracle(a_full, n, seed)
        curve = evaluation.build_curve(scores, correctness)
        deviation = float(
            np.max(np.abs(curve.accuracies - evaluation.bound_values(curve)))
        )
        rows.append(
            {
                "a_full": a_full,
                "max_deviation": deviation,
                "normalized_score": evaluation.normalized_score(curve),
                "auc": evaluation.auc(curve),
            }
        )
    summary = {"panel": "bound", "n": n, "seed": seed, "rows": rows}
    return _write_panel(summary, out_dir)
