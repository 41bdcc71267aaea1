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
from collections import Counter
from dataclasses import asdict, replace
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

# Every config setting's default; a user's ``methods`` replaces the default one whole.
_DEFAULTS = {
    "version": CONFIG_VERSION,
    "name": "experiment",
    "seeds": [0, 1, 2, 3, 4],
    "accuracy_refs": [0.9, 0.95],
    "methods": {"sr": {}},
    "model": {"hidden_sizes": [64], "dropout_rate": 0.1},
    "training": {"learning_rate": 0.5, "steps": 400, "checkpoint_interval": 50,
                 "entropy_beta": 0.01},
    "privacy": {"epsilons": ["inf", 7, 3, 1], "delta": None, "clip_norm": 1.0,
                "sampling_rate": 0.05},
}


def parse_epsilon(value) -> float:
    """A positive epsilon from a number, ``"inf"`` or a number's string; a bool is none."""
    if isinstance(value, str) and value.strip().lower() in ("inf", "infinity"):
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"an epsilon must be a number or 'inf', got {value!r}")
    eps = float(value)
    if not eps > 0:  # also rejects nan
        raise ValueError("epsilon must be positive")
    return eps


def _reject_shared_tags(what: str, values, tag) -> None:
    """Two values that share a tag would share one directory or metrics key."""
    seen = {}
    for value in values:
        key = tag(value)
        if key in seen:
            raise ValueError(f"{what} {seen[key]!r} and {value!r} share the tag {key!r}")
        seen[key] = value


# The integer settings held to a floor: (what a message calls one, the kind it names, floor).
_FLOORS = {"seeds": ("a seed", "a non-negative integer", 0),
           "hidden_sizes": ("a hidden size", "an integer >= 1", 1),
           "base_seed": (None, "a non-negative integer", 0)}


def _checked(what: str, default, value, floor: tuple | None = None):
    """``value`` if it has the JSON kind of ``default``, as that kind; else a ``ValueError``.

    An object's default keys are checked in turn, and a list's items against
    the default's first (epsilons where it holds ``"inf"``). A bool is no
    number, a float takes any number and returns a float, and null takes null
    or a number. A ``_FLOORS`` integer has a floor; a string (a name) takes
    anything. Ranges are checked by what the parse builds from the values.
    """
    if isinstance(default, dict):
        value = _json_object(what, value)
        return {key: _checked(f"{what}.{key}".lstrip("."), item, value[key], _FLOORS.get(key))
                for key, item in default.items()}
    if isinstance(default, str):
        return value
    if isinstance(default, list) and isinstance(value, (list, tuple)):  # tuple: a panel's
        if "inf" in default:
            return [parse_epsilon(item) for item in value]
        return [_checked(f"{what}[{i}]", default[0], item, floor) for i, item in enumerate(value)]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, bool):
        fits, kind = isinstance(value, bool), "a JSON bool"
    elif isinstance(default, int):
        name, kind, low = floor or (what, "a JSON int", None)
        fits = number and isinstance(value, int) and (low is None or value >= low)
        what = name or what
    elif isinstance(default, list):
        fits, kind = False, "a JSON list"
    else:
        fits = number or value is default is None
        kind = "a JSON number" if default is not None else "null or a JSON number"
    if not fits:
        raise ValueError(f"{what} must be {kind}, got {value!r}")
    return value if isinstance(default, int) or value is None else float(value)


def _check_grid(seeds, epsilons) -> None:
    """Every (seed, epsilon) cell of the grid gets a directory of its own."""
    if not seeds or not epsilons:
        raise ValueError("need at least one seed and one epsilon")
    _checked("seeds", _DEFAULTS["seeds"], list(seeds), _FLOORS["seeds"])
    _reject_shared_tags("seeds", seeds, lambda seed: seed)
    _reject_shared_tags("epsilons", epsilons, lambda e: evaluation.tag(parse_epsilon(e)))


def _json_object(what: str, value) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return value


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


class _Recipe(NamedTuple):
    """The model, training and privacy settings every run of a sweep or panel shares.

    ``model`` and ``template`` are the runs' ``ModelSpec`` (on a stand-in
    shape) and ``TrainConfig``; each run sets its data's shape, its loss and
    its seed. Building them checks the settings' ranges.
    """

    model: ModelSpec
    clip_norm: float
    sampling_rate: float
    template: TrainConfig

    @classmethod
    def build(cls, hidden_sizes, dropout_rate, clip_norm, sampling_rate, learning_rate, steps,
              checkpoint_interval, entropy_beta) -> "_Recipe":
        model = ModelSpec(input_dim=1, num_classes=2, hidden_sizes=tuple(hidden_sizes),
                          dropout_rate=dropout_rate)
        template = TrainConfig(learning_rate=learning_rate, steps=steps, loss=cross_entropy_loss(),
                               entropy_beta=entropy_beta, checkpoint_interval=checkpoint_interval)
        return cls(model, clip_norm, sampling_rate, template)

    def spec(self, data: LabeledDataset, loss_kind: str = "cross_entropy") -> ModelSpec:
        """The network for ``data``, with the output heads ``loss_kind`` trains."""
        return replace(self.model, input_dim=data.input_dim, num_classes=data.num_classes,
                       abstention_head=loss_kind == "sat",
                       selectivenet_heads=loss_kind == "selectivenet")

    def privacy(self, eps: float, delta: float, sigma=None) -> PrivacyConfig:
        if math.isinf(eps):
            return PrivacyConfig.non_private(self.template.steps, self.sampling_rate)
        return PrivacyConfig(epsilon=eps, delta=delta, clip_norm=self.clip_norm,
                             sampling_rate=self.sampling_rate, steps=self.template.steps,
                             noise_multiplier="auto" if sigma is None else sigma)

    def train(self, data, test, spec, loss, eps, delta, seed, sigma=None) -> trainer.TrainResult:
        """One run of ``loss`` on ``data`` at (eps, delta), its checkpoints predicting ``test``."""
        train_cfg = replace(self.template, loss=loss, seed=seed)
        return trainer.train(data, spec, train_cfg, self.privacy(eps, delta, sigma), eval_set=test)


class ExperimentConfig:
    """A fully defaulted experiment, parsed once, with a content-stable hash.

    ``raw`` is the defaulted JSON that ``hash()`` digests. Parsing it checks
    every setting and builds what the cells train from: the dataset
    ``source``, one run ``recipe`` and ``methods[name] = (settings, runs)``.
    The parsed config pickles, so cells can run in worker processes.
    """

    def __init__(self, raw: dict):
        self.raw = raw
        if raw.get("version") != CONFIG_VERSION:
            raise ValueError(f"config version must be {CONFIG_VERSION}")
        if "kind" not in _json_object("dataset", raw.get("dataset", {})):
            raise ValueError("config needs a dataset block with a 'kind'")
        self.source = _dataset_source(raw["dataset"])
        methods = {name: _METHODS[name].defaults for name in raw["methods"]}
        checked = _checked("", {**_DEFAULTS, "methods": methods}, raw)
        model, training, privacy = checked["model"], checked["training"], checked["privacy"]
        _check_grid(checked["seeds"], raw["privacy"]["epsilons"])  # messages quote raw values
        self.seeds, self.epsilons = checked["seeds"], privacy["epsilons"]
        self.delta = privacy["delta"]  # None: 1/n of each cell's training set
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ValueError(f"privacy.delta must be null or in (0, 1), got {self.delta!r}")
        self.refs = tuple(checked["accuracy_refs"])
        _reject_shared_tags("accuracy_refs", self.refs, evaluation.tag)
        if lossy := [r for r in self.refs if float(evaluation.tag(r)) != r]:  # see evaluate_run
            raise ValueError(
                f"accuracy_refs {lossy[0]!r} would be stored as {evaluation.tag(lossy[0])!r}")
        self.recipe = _Recipe.build(**model, **training, clip_norm=privacy["clip_norm"],
                                    sampling_rate=privacy["sampling_rate"])
        self.recipe.privacy(min(self.epsilons), 0.5)  # 0.5 stands in for delta, checked above
        self.methods = {name: (settings, _METHODS[name].runs(settings))
                        for name, settings in checked["methods"].items()}

    @classmethod
    def from_dict(cls, user: dict) -> "ExperimentConfig":
        raw = _deep_merge(_DEFAULTS, _json_object("a config", user))
        methods, raw["methods"] = user.get("methods", _DEFAULTS["methods"]), {}
        for name, settings in _json_object("methods", methods).items():
            if name not in _METHODS:
                raise ValueError(f"unknown method {name!r}; known: {tuple(_METHODS)}")
            settings = _json_object(f"methods.{name}", settings or {})
            raw["methods"][name] = _deep_merge(_METHODS[name].defaults, settings)
        return cls(raw)

    @classmethod
    def load(cls, path: str | Path, overrides: dict | None = None) -> "ExperimentConfig":
        if not Path(path).is_file():
            raise ValueError(f"no config file {path}")
        user = json.loads(Path(path).read_text())
        if overrides:
            user = _deep_merge(user, overrides)
        return cls.from_dict(user)

    def hash(self) -> str:
        """Digest of the config and of ``trainer.ALGORITHM_VERSION``.

        Mixing in the version keeps a re-run from skipping cells that older
        training code wrote; the version is not part of the config.
        """
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        stamped = f"{trainer.ALGORITHM_VERSION}\0{canonical}"
        return hashlib.sha256(stamped.encode()).hexdigest()[:12]


# Each dataset kind's optional settings and their defaults. A mixture's
# components, ``imbalance`` block and a csv's ``label_column`` type are
# checked below; ``MixtureSpec`` checks the means and covariances, and
# ``load_csv`` that the label column is in the file.
_DATASET_DEFAULTS = {
    "gaussian_outlier": {"base_seed": 0, "n_major": 1000, "outlier_mean": [10.0, 0.0]},
    "mixture": {"base_seed": 0, "train_fraction": 0.5},
    "csv": {"base_seed": 0, "train_fraction": 0.8},
}


def _dataset_source(dcfg: dict) -> tuple:
    """The block's base seed, data, train fraction, ``(class_id, p0)`` imbalance and label column.

    Each is checked without drawing or reading data; a value of the wrong
    JSON type is a ``ValueError`` too. A ``gaussian_outlier`` block has no
    train fraction: it draws its test set apart.
    """
    kind = dcfg["kind"]
    if not isinstance(kind, str) or kind not in _DATASET_DEFAULTS:
        raise ValueError(f"unknown dataset kind {kind!r}")
    defaults = _DATASET_DEFAULTS[kind]
    try:
        settings = _checked("dataset", defaults, {**defaults, **dcfg})
        if kind == "gaussian_outlier":
            source = outlier_spec(settings["n_major"], settings["outlier_mean"])
            return settings["base_seed"], source, None, None, None
        if kind == "csv":
            source, label = Path(dcfg["path"]), dcfg.get("label_column", -1)
            if isinstance(label, bool) or not isinstance(label, (int, str)):
                raise ValueError("dataset.label_column must be a JSON int or a column name, "
                                 f"got {label!r}")
        else:
            components = dcfg["components"]
            if not isinstance(components, list) or not all(isinstance(c, dict)
                                                           for c in components):
                raise ValueError("dataset.components must be a list of JSON objects, "
                                 f"got {components!r}")
            source = MixtureSpec(tuple(MixtureComponent(
                tuple(c["mean"]), c.get("covariance", 1.0),
                **_checked(f"dataset.components[{i}]", {"count": 1, "label": 0}, c),
            ) for i, c in enumerate(components)))
        check_train_fraction(settings["train_fraction"])
        imbalance = dcfg.get("imbalance") if kind == "mixture" else None
        if imbalance is not None and _json_object("dataset.imbalance", imbalance):
            imbalance = _checked("dataset.imbalance", {"class_id": 0, "p0": 1.0}, imbalance)
            imbalance = imbalance["class_id"], imbalance["p0"]
            check_subsample(source.num_classes, *imbalance)
    except KeyError as exc:
        raise ValueError(f"a {kind} dataset block needs {exc}") from None
    except TypeError as exc:
        raise ValueError(f"a {kind} dataset block has a value of the wrong type: {exc}") from None
    return (settings["base_seed"], source, settings["train_fraction"], imbalance or None,
            dcfg.get("label_column", -1))


def _build_dataset(source: tuple, seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """The (train, test) split of cell ``seed`` from a ``_dataset_source``."""
    base, data, fraction, imbalance, label_column = source
    if fraction is None:
        return tuple(gen_mixture(data, derive_seed(base, seed, i)) for i in (0, 1))
    if isinstance(data, Path):
        return split(load_csv(data, label_column), fraction, derive_seed(base, seed, 0))
    data = gen_mixture(data, derive_seed(base, seed, 0))
    if imbalance:
        data = subsample_class(data, *imbalance, derive_seed(base, seed, 1))
    return split(data, fraction, derive_seed(base, seed, 2))


def _save_run(directory: Path, result: trainer.TrainResult, spec: ModelSpec) -> None:
    models.save_params(result.params, spec, directory / "params.json")
    trainer.save_checkpoint_log(result.log, directory / "log")
    evaluation.write_json(asdict(result.report), directory / "privacy.json")


def _emit_method(method_dir: Path, method: str, scores: np.ndarray, predicted: np.ndarray,
                 true_labels: np.ndarray, accuracy_refs, privacy_payload: dict) -> dict:
    """Write the full artifact set; metrics.json lands last as the marker."""
    correctness = predicted == true_labels
    curve = evaluation.build_curve(scores, correctness)
    selection.write_scores_csv(method_dir / "scores.csv", method, scores, predicted, true_labels)
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
    """One (seed, epsilon) grid cell; trains each of its runs at most once.

    A cell holds at most one training run's result at a time, plus the
    results of runs that more than one of the config's methods read (today
    only ``base``, shared by sr, mcdo and sctd), which it keeps until it ends.
    """

    def __init__(self, config: ExperimentConfig, seed: int, eps: float, cell_dir: Path):
        self.recipe, self.refs = config.recipe, config.refs
        self.seed, self.eps, self.cell_dir = seed, eps, cell_dir
        self.train_data, self.test_data = _build_dataset(config.source, seed)
        self.delta = 1.0 / len(self.train_data) if config.delta is None else config.delta
        readers = Counter(run.subdir for _, runs in config.methods.values() for run in runs)
        self._shared = {subdir for subdir, n in readers.items() if n > 1}
        self._trained: dict[str, trainer.TrainResult | Exception] = {}

    def spec(self, run: _Run) -> ModelSpec:
        return self.recipe.spec(self.train_data, run.loss.kind)

    def train(self, run: _Run, sigma=None) -> trainer.TrainResult:
        """Train ``run`` (at noise ``sigma`` if given) and save it, once per cell.

        The result of a run that several methods read is kept for the cell's
        lifetime; any other run's result belongs to the caller alone. A shared
        run that raises is not retried: every method that reads it gets the
        same exception. It is kept and raised without its traceback and chained
        exceptions, whose frames would hold the failed run's arrays.
        """
        result = self._trained.get(run.subdir)
        if result is None:
            spec, seed = self.spec(run), derive_seed(self.seed, *run.stream)
            try:
                result = self.recipe.train(self.train_data, self.test_data, spec, run.loss,
                                           self.eps, self.delta, seed, sigma)
                _save_run(self.cell_dir / run.subdir / "checkpoints", result, spec)
            except Exception as exc:
                exc.__cause__ = exc.__context__ = None
                result = exc
            if run.subdir in self._shared:
                self._trained[run.subdir] = result
        if isinstance(result, Exception):
            raise result.with_traceback(None)
        return result

    def _emit(self, subdir: str, method: str, scores, predicted, payload: dict) -> dict:
        labels, refs = self.test_data.labels, self.refs
        return _emit_method(self.cell_dir / subdir, method, scores, predicted, labels, refs, payload)

    def _ensemble_sigma(self, n_runs: int):
        """Shared noise level plus its accounting payload for n_runs runs."""
        if math.isinf(self.eps):
            return None, {"target_epsilon": "inf", "n_runs": n_runs}
        bs = accountant.split_budget(self.eps, self.delta, n_runs, self.recipe.sampling_rate,
                                     self.recipe.template.steps)
        return bs.sigma, {"target_epsilon": evaluation.tag(self.eps), "split": asdict(bs)}

    def run_method(self, method: str, settings: dict, runs: list[_Run]) -> dict:
        """Train ``method``'s runs and write its outputs; returns its metrics.

        A method with an ``emit`` gets its runs as a lazy iterator of
        ``(run, result)`` pairs, each trained when the emitter asks for it, so
        the emitter can reduce one run to what it writes before the next trains.
        """
        row = _METHODS[method]
        if row.emit is None:
            (run,) = runs
            result = self.train(run)
            payload = {"target_epsilon": evaluation.tag(self.eps), "delta": self.delta,
                       "report": asdict(result.report)}
            scores = row.score(self, run, result, settings)
            return self._emit(method, method, scores, result.log.predictions[-1], payload)
        sigma, payload = self._ensemble_sigma(len(runs))
        trained = ((run, self.train(run, sigma)) for run in runs)
        return row.emit(self, method, row, settings, trained, payload)

    def _emit_ensemble(self, method, row, settings, trained, payload) -> dict:
        """One output for the members' mean; ``row.score`` takes their stacked probs.

        Each member is kept as its report and final probabilities only.
        """
        payload["member_reports"], member_probs = [], []
        for _, result in trained:
            payload["member_reports"].append(asdict(result.report))
            member_probs.append(result.log.final_probs)
            del result  # no finished member stays alive while the next one trains
        member_probs = np.stack(member_probs)
        predicted = np.argmax(member_probs.mean(axis=0), axis=1)
        return self._emit(method, method, row.score(member_probs), predicted, payload)

    def _emit_per_target(self, method, row, settings, trained, payload) -> dict:
        """One output per coverage target, then the joint account and all targets' metrics.

        Each target is kept as its report, scores and final prediction row;
        nothing is written until the last target has trained.
        """
        kept = []
        for run, result in trained:
            kept.append((run, asdict(result.report), row.score(self, run, result, settings),
                         result.log.predictions[-1].copy()))
            del result  # no finished target stays alive while the next one trains
        payload["c_targets"] = settings["c_targets"]
        payload["run_reports"], metrics = {}, {"c_targets": {}}
        for c_target, (run, report, scores, predicted) in zip(payload["c_targets"], kept):
            tag = evaluation.tag(c_target)
            payload["run_reports"][tag] = report
            metrics["c_targets"][tag] = self._emit(
                run.subdir, method, scores, predicted,
                {"target_epsilon": evaluation.tag(self.eps), "report": report},
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
    if s["members"] < 1:
        raise ValueError("de needs at least one member")
    return [_Run(f"de/member_{m}", cross_entropy_loss(), (12, m)) for m in range(s["members"])]


def _mcdo_runs(s: dict) -> list[_Run]:
    """The base run; ``score_mcdo`` first checks ``passes`` and ``dropout_rate`` on one row."""
    probe = ModelSpec(input_dim=1, num_classes=2)
    selection.score_mcdo(models.init_params(probe, 0), probe, np.zeros((1, 1)), s["passes"], 0,
                         s["dropout_rate"])
    return [_BASE_RUN]


def _sctd_runs(s: dict) -> list[_Run]:
    if not math.isfinite(s["k"]):
        raise ValueError(f"methods.sctd.k must be finite, got {s['k']!r}")
    return [_BASE_RUN]


def _sn_runs(s: dict) -> list[_Run]:
    if not s["c_targets"]:
        raise ValueError("sn needs at least one c_target")
    _reject_shared_tags("sn c_targets", s["c_targets"], evaluation.tag)
    return [_Run(f"sn/c_{evaluation.tag(c)}", selectivenet_loss(c, s["lam"], s["alpha"]), (13, i))
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
        {"passes": 20, "dropout_rate": None}, _mcdo_runs,
        lambda cell, run, result, s: selection.score_mcdo(
            result.params, cell.spec(run), cell.test_data.features, passes=s["passes"],
            seed=derive_seed(cell.seed, *run.stream, 1), dropout_rate=s["dropout_rate"],
        ),
    ),
    "sctd": _Method(
        {"k": 3.0}, _sctd_runs,
        lambda cell, run, result, s: selection.score_sctd(result.log, s["k"]),
    ),
    "sat": _Method(
        {"momentum": 0.9, "burn_in_epochs": 0, "native_score": False},
        lambda s: [_Run("sat", sat_loss(s["momentum"], s["burn_in_epochs"]), (11,))],
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


def run_cell(config: ExperimentConfig, seed: int, eps: float, run_dir: str | Path) -> list[dict]:
    """Execute one (seed, epsilon) cell; one record per method.

    A method whose ``metrics.json`` already exists is skipped, and the cell's
    data is drawn only for the first method that is not. A method that raises
    (building the cell included) is recorded as failed and the remaining
    methods still run.
    """
    cell_dir = Path(run_dir) / f"seed_{seed}" / f"eps_{evaluation.tag(eps)}"
    records, cell = [], None
    for method, (settings, runs) in sorted(config.methods.items()):
        record = {"seed": seed, "epsilon": evaluation.tag(eps), "method": method,
                  "dir": str(cell_dir / method)}
        marker = cell_dir / method / "metrics.json"
        try:
            if marker.exists():
                record["status"] = "skipped"
                record["metrics"] = json.loads(marker.read_text())
            else:
                cell = cell or _Cell(config, seed, eps, cell_dir)
                record["status"] = "ok"
                record["metrics"] = cell.run_method(method, settings, runs)
        except Exception as exc:  # a broken method must not kill the sweep
            record["status"] = "failed"
            record["error"] = f"{type(exc).__name__}: {exc}"
        records.append(record)
    return records


def run(config: ExperimentConfig, out_root: str | Path, jobs: int = 1, seeds=None,
        epsilons=None) -> dict:
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
    cells = [(config, seed, eps, run_dir) for seed in seeds for eps in epsilons]
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
    "n_major": 300, "outlier_mean": [6.0, 0.0], "learning_rate": 0.5, "steps": 600,
    "sampling_rate": 0.1, "clip_norm": 1.25, "entropy_beta": 0.01, "base_seed": 33,
}

IMBALANCE_PANEL_DEFAULTS = {
    "count_per_class": 1500, "class_separation": 1.25, "p0_grid": [0.5, 0.25, 0.1, 0.01],
    "hidden_sizes": [32], "learning_rate": 0.25, "steps": 600, "sampling_rate": 0.05,
    "clip_norm": 1.0, "entropy_beta": 0.01, "train_fraction": 0.5, "base_seed": 13,
}

_DEFAULT_EPSILONS = (math.inf, 7.0, 3.0, 1.0)


def _panel_params(defaults: dict, overrides: dict) -> dict:
    """The panel's defaults under ``overrides``, checked; a key outside the defaults is a typo."""
    if unknown := sorted(set(overrides) - set(defaults)):
        raise ValueError(f"unknown panel settings {unknown}; known: {sorted(defaults)}")
    return _checked("", defaults, {**defaults, **overrides})


def _panel_cells(p: dict, seeds, epsilons, datasets, stream: int, stats) -> list[dict]:
    """One run per (seed, dataset, epsilon), seeded by ``derive_seed(base_seed, seed, stream)``.

    ``datasets`` pairs each dataset block with the keys its cells carry; a
    cell is those keys, the seed and the epsilon, then ``stats(result, test)``.
    """
    steps = p["steps"]
    recipe = _Recipe.build(p.get("hidden_sizes", ()), 0.0, p["clip_norm"], p["sampling_rate"],
                           p["learning_rate"], steps, max(1, min(50, steps)), p["entropy_beta"])
    recipe.privacy(min(epsilons), 0.5)  # each run's delta is 1/n, in (0, 1)
    sources, cells = [(keys, _dataset_source(block)) for keys, block in datasets], []
    for seed in seeds:
        for keys, source in sources:
            data, test = _build_dataset(source, seed)
            spec, run_seed = recipe.spec(data), derive_seed(p["base_seed"], seed, stream)
            for eps in epsilons:
                result = recipe.train(data, test, spec, cross_entropy_loss(), eps, 1.0 / len(data),
                                      run_seed)
                cells.append({"seed": seed, **keys, "epsilon": evaluation.tag(eps),
                              **stats(result, test)})
    return cells


def _write_panel(summary: dict, out_dir: str | Path | None) -> dict:
    if out_dir is not None:
        path = Path(out_dir) / f"panel_{summary['panel']}.json"
        evaluation.write_atomic(path, json.dumps(summary, indent=2) + "\n")
    return summary


def panel_outlier(seeds=(0, 1, 2, 3, 4), epsilons=_DEFAULT_EPSILONS,
                  out_dir: str | Path | None = None, **overrides) -> dict:
    """Single-outlier logistic regression across the privacy grid.

    Trains on the majority cloud plus one outlier, evaluates on a fresh draw
    from the same process, and records how the privacy level flips the
    outlier's prediction and inflates wrong-class confidence.
    """
    _check_grid(seeds, epsilons)
    p = _panel_params(OUTLIER_PANEL_DEFAULTS, overrides)

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
        tag = evaluation.tag(eps)
        rows = [c for c in cells if c["epsilon"] == tag]
        by_eps[tag] = {
            "n_correct": sum(c["outlier_correct"] for c in rows),
            "n_seeds": len(rows),
            "mean_correct_prob": float(np.mean([c["outlier_correct_prob"] for c in rows])),
        }
    summary = {"panel": "outlier", "params": p, "cells": cells, "by_epsilon": by_eps}
    return _write_panel(summary, out_dir)


def panel_imbalance(seeds=(0, 1, 2, 3, 4), epsilons=_DEFAULT_EPSILONS,
                    out_dir: str | Path | None = None, **overrides) -> dict:
    """Class-imbalanced mixture with MLPs across (p0, epsilon).

    Per cell: where the softmax-response order places minority points (mean
    normalized acceptance rank), minority-class accuracy, and the normalized
    selective score.
    """
    _check_grid(seeds, epsilons)
    p = _panel_params(IMBALANCE_PANEL_DEFAULTS, overrides)
    if not p["p0_grid"]:
        raise ValueError("need at least one p0")
    _reject_shared_tags("p0_grid", p["p0_grid"], evaluation.tag)
    sep, count = p["class_separation"], p["count_per_class"]
    components = [{"mean": [-sep, 0.0], "count": count, "label": 0},
                  {"mean": [sep, 0.0], "count": count, "label": 1}]
    dataset = {"kind": "mixture", "components": components, **p}

    def stats(result, test) -> dict:
        scores = selection.score_sr(result.log.final_probs)
        correctness = result.log.predictions[-1] == test.labels
        curve = evaluation.build_curve(scores, correctness)
        order = evaluation.acceptance_order(scores)
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


def panel_bound(a_fulls=(0.5, 0.7, 0.9), n: int = 10_000, seed: int = 0,
                out_dir: str | Path | None = None) -> dict:
    """Ideal-score oracle curves against the achievability bound."""
    rows = []
    for a_full in a_fulls:
        scores, correctness = evaluation.ideal_score_oracle(a_full, n, seed)
        curve = evaluation.build_curve(scores, correctness)
        deviation = float(np.max(np.abs(curve.accuracies - evaluation.bound_values(curve))))
        rows.append({"a_full": a_full, "max_deviation": deviation,
                     "normalized_score": evaluation.normalized_score(curve),
                     "auc": evaluation.auc(curve)})
    summary = {"panel": "bound", "n": n, "seed": seed, "rows": rows}
    return _write_panel(summary, out_dir)
