"""Experiment harness: config-driven sweeps over seeds and privacy levels.

A sweep is a grid of cells (seed, epsilon). A cell trains the runs its
methods read and writes each method's ``scores.csv``, ``curves.csv``,
``privacy.json`` and, last, ``metrics.json`` into
``<out>/<config-hash>/seed_<s>/eps_<tag>/<method>/`` (README, "Output
layout"). Each run saves its parameters, checkpoint log and, last,
``privacy.json`` in a ``checkpoints/`` directory: ``base/`` holds the run
shared by sr, mcdo and sctd, and ``sat/``, ``de/member_<m>/`` and
``sn/c_<tag>/`` the others. Selective nets write the method files once per
coverage target, in ``sn/c_<tag>/``, plus ``sn/metrics.json`` and
``sn/privacy.json``.

A re-run skips a method whose directory, ``sn/`` included, passes
``evaluate_run``, and ``_train`` keeps a run of a redone method that reads
back whole; anything else is redone. Files are moved into place whole but not
synced: a file that a power loss cuts short redoes its method, or retrains its
run. Before it decides anything about a cell, a re-run deletes the temp files
that killed writes left anywhere in it, and those at the top of the run
directory. The config hash covers the canonical JSON of the fully defaulted
config and ``trainer.ALGORITHM_VERSION``, so cells trained by older arithmetic
land in another run directory.

Method cost model: the ``_METHODS`` table gives each method its default
settings, the runs it reads and its writer. A sweep first hands ``_train``
each run its pending methods read, once however many read it, with the
number of runs that split its method's budget, and trains the runs that do
not read back; then each pending method's writer reads its saved runs one at
a time and writes the method's output. Cells go one by one, or all at once
on the ``jobs`` pool. Softmax response, Monte Carlo dropout and checkpoint
disagreement score one shared base run; self-adaptive training owns one run;
a deep ensemble of M members and the per-target-coverage selective nets are
accounted jointly, one noise level calibrated so the composition of all
their runs meets the cell's budget (a budget split one way is the cell's own).
"""

from __future__ import annotations

import concurrent.futures
import copy
import functools
import hashlib
import json
import math
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

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

    An object takes only keys its default defines and checks each one it holds,
    and a list's items are checked against the default's first (epsilons where
    it holds ``"inf"``). A bool is no number, a float takes any number and
    returns a float, and null takes null or a number. A ``_FLOORS`` integer has
    a floor; a string (a name, or a value parsed by hand) takes anything.
    Ranges are checked by what the parse builds from the values.
    """
    if isinstance(default, dict):
        if unknown := sorted(set(_json_object(what, value)) - set(default)):
            raise ValueError(f"unknown {what + ' ' if what else ''}key {unknown[0]!r}; "
                             f"known: {sorted(default)}")
        return {key: _checked(f"{what}.{key}".lstrip("."), item, value[key], _FLOORS.get(key))
                for key, item in default.items() if key in value}
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
    The parsed config pickles, so runs and cells' scoring can go to worker processes.
    """

    def __init__(self, raw: dict):
        self.raw = raw
        if raw.get("version") != CONFIG_VERSION:
            raise ValueError(f"config version must be {CONFIG_VERSION}")
        if "kind" not in _json_object("dataset", raw.get("dataset", {})):
            raise ValueError("config needs a dataset block with a 'kind'")
        self.source = _dataset_source(raw["dataset"])
        methods = {name: row.defaults for name, row in _METHODS.items()}
        checked = _checked("", {**_DEFAULTS, "dataset": "", "methods": methods}, raw)
        if not checked["methods"]:
            raise ValueError("need at least one method")
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
            settings = _json_object(f"methods.{name}", settings or {})
            defaults = _METHODS[name].defaults if name in _METHODS else {}  # else rejected below
            raw["methods"][name] = _deep_merge(defaults, settings)
        return cls(raw)

    @classmethod
    def load(cls, path: str | Path, overrides: Iterable[str] = ()) -> "ExperimentConfig":
        """The config file at ``path``, edited by ``--set KEY=VALUE`` strings, then defaulted.

        Each override in turn replaces the value at its dotted path ``KEY``,
        as an edit by hand would, so an object replaces an object whole.
        ``VALUE`` is its JSON value, or the string itself if it does not parse.
        """
        if not Path(path).is_file():
            raise ValueError(f"no config file {path}")
        user = json.loads(Path(path).read_text())
        for pair in overrides:
            key, sep, raw = pair.partition("=")
            if not sep:
                raise ValueError(f"--set expects KEY=VALUE, got {pair!r}")
            *parents, leaf = key.split(".")
            node = _json_object("a config", user)
            for part in parents:
                if not isinstance(node := node.setdefault(part, {}), dict):
                    raise ValueError(f"--set {key}: {part} was set to {node!r}, not an object")
            try:
                node[leaf] = json.loads(raw)
            except json.JSONDecodeError:
                node[leaf] = raw
        return cls.from_dict(user)

    def hash(self) -> str:
        """Digest of the config and of ``trainer.ALGORITHM_VERSION``.

        Mixing in the version keeps a re-run from skipping cells that older
        training code wrote; the version is not part of the config.
        """
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        stamped = f"{trainer.ALGORITHM_VERSION}\0{canonical}"
        return hashlib.sha256(stamped.encode()).hexdigest()[:12]


# Each dataset kind's keys but ``kind``, with its optional settings' defaults; a
# string marks a key ``_dataset_source`` checks by hand (``MixtureSpec`` the means
# and covariances, and ``load_csv`` that the label column is in the file).
_DATASET_DEFAULTS = {
    "gaussian_outlier": {"base_seed": 0, "n_major": 1000, "outlier_mean": [10.0, 0.0]},
    "mixture": {"components": "", "imbalance": "", "base_seed": 0, "train_fraction": 0.5},
    "csv": {"path": "", "label_column": "", "base_seed": 0, "train_fraction": 0.8},
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
    defaults = {"kind": kind, **_DATASET_DEFAULTS[kind]}
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
            components = [_checked(f"dataset.components[{i}]",
                                   {"mean": "", "covariance": "", "count": 1, "label": 0}, c)
                          for i, c in enumerate(components)]
            source = MixtureSpec(tuple(MixtureComponent(
                tuple(c["mean"]), c.get("covariance", 1.0), c["count"], c["label"])
                for c in components))
            if source.num_classes < 2:
                raise ValueError("dataset.components must carry two labels or more, got only 0")
        check_train_fraction(settings["train_fraction"])
        imbalance = dcfg.get("imbalance")
        if imbalance is not None and _json_object("dataset.imbalance", imbalance):
            imbalance = _checked("dataset.imbalance", {"class_id": 0, "p0": 1.0}, imbalance)
            imbalance = imbalance["class_id"], imbalance["p0"]
            check_subsample(source.num_classes, *imbalance)
        if isinstance(source, Path) and not source.is_file():  # checked after the values' types
            raise ValueError(f"dataset.path {str(source)!r} is not a file")
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


def _load_run(directory: Path) -> trainer.TrainResult:
    """The run ``_save_run`` wrote to ``directory``, bit for bit; a table cut short raises."""
    report = accountant.PrivacyReport(**_read_json(directory / "privacy.json"))
    params, _ = models.load_params(directory / "params.json")
    return trainer.TrainResult(params, trainer.load_checkpoint_log(directory / "log"), report)


def _read_json(path: Path) -> dict:
    """The JSON object in ``path``; a file cut short, or holding another value, is a
    ``ValueError`` that names it."""
    try:
        value = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} does not parse: {exc}") from None
    return _json_object(str(path), value)


def _attempt(call: Callable, *args, failed: Callable[[str], object] = str):
    """``call(*args)``, or ``failed`` of the error text (``"Type: message"``) it raised."""
    try:
        return call(*args)
    except Exception as exc:  # the sweep records the failure and goes on
        return failed(f"{type(exc).__name__}: {exc}")


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
    """Defaults, ``runs(settings)`` and ``write(cell, method, settings, results)``.

    The runs split the cell budget between them. ``write`` gets their
    ``(run, result)`` pairs, each read from the run tree only when it asks
    for it, writes the method's output, ``privacy.json`` included, and
    returns the metrics. ``evaluate_run(<cell>/<method>)`` decides whether
    the output is finished; ``sn/`` is found by the ``c_targets`` its
    ``privacy.json`` names.
    """

    defaults: dict
    runs: Callable[[dict], list[_Run]]
    write: Callable


class _Cell:
    """One (seed, epsilon) grid cell: its directory and, drawn on first use, its data."""

    def __init__(self, config: ExperimentConfig, seed: int, eps: float, run_dir: Path):
        self.config, self.recipe, self.refs = config, config.recipe, config.refs
        self.seed, self.eps = seed, eps
        self.cell_dir = Path(run_dir) / f"seed_{seed}" / f"eps_{evaluation.tag(eps)}"

    @functools.cached_property
    def data(self) -> tuple[LabeledDataset, LabeledDataset]:
        return _build_dataset(self.config.source, self.seed)

    test_data = property(lambda self: self.data[1])

    @property
    def delta(self) -> float:
        return 1.0 / len(self.data[0]) if self.config.delta is None else self.config.delta

    def spec(self, run: _Run) -> ModelSpec:
        return self.recipe.spec(self.data[0], run.loss.kind)

    def split(self, n_runs: int) -> accountant.BudgetSplit:
        return accountant.split_budget(self.eps, self.delta, n_runs, self.recipe.sampling_rate,
                                       self.recipe.template.steps)

    def joint_account(self, n_runs: int) -> dict:
        """The head of the ``privacy.json`` of ``n_runs`` runs that share the cell budget."""
        if math.isinf(self.eps):
            return {"target_epsilon": evaluation.tag(self.eps), "n_runs": n_runs}
        return {"target_epsilon": evaluation.tag(self.eps), "split": asdict(self.split(n_runs))}

    def plan(self) -> tuple[list[dict], list[tuple[_Run, int | None]]]:
        """A record per method, and once each run that a pending method reads.

        First it deletes every temp file that killed writes left in the cell.
        A method whose directory passes ``evaluate_run`` is skipped with the
        metrics that call returns; any other is pending, and its record has no
        status yet. At a finite epsilon a run comes with its method's number
        of runs, which split the cell budget. Runs are not read here:
        ``_train`` keeps a run that reads back whole.
        """
        evaluation.remove_temps(self.cell_dir, recursive=True)
        records, pending = [], {}
        for method, (settings, runs) in sorted(self.config.methods.items()):
            record = {"seed": self.seed, "epsilon": evaluation.tag(self.eps), "method": method,
                      "dir": str(self.cell_dir / method)}
            records.append(record)
            try:
                result = evaluate_run(self.cell_dir / method)
                if result["matches_stored"]:
                    record["status"], record["metrics"] = "skipped", result["metrics"]
                    continue
            except Exception:  # a file missing, cut short or garbled
                pass
            if (self.cell_dir / method / "metrics.json").exists():
                record["note"] = "redone"
            split = len(runs) if math.isfinite(self.eps) else None
            for run in runs:
                pending.setdefault(run.subdir, (run, split))
        return records, list(pending.values())

    def score(self, records: list[dict], errors: dict[str, str | None]) -> list[dict]:
        """Score each pending method, or fail it with the error of a run it reads; the records."""
        for record in (r for r in records if "status" not in r):
            settings, runs = self.config.methods[record["method"]]
            error = next((errors[run.subdir] for run in runs if errors.get(run.subdir)), None)
            error = error or _attempt(lambda: record.update(
                status="ok", metrics=self.emit(record["method"], settings, runs)))
            if error:
                record.update(status="failed", error=error)
        return records

    def emit(self, method: str, settings: dict, runs: list[_Run]) -> dict:
        """Write ``method`` from its saved runs, each read back when its writer asks for it."""
        results = ((run, _load_run(self.cell_dir / run.subdir / "checkpoints")) for run in runs)
        return _METHODS[method].write(self, method, settings, results)


def _train(cell: _Cell, run: _Run, split: int | None) -> None:
    """Train and save ``run``, at the noise level of its budget split ``split`` ways if given.

    A run that reads back whole (``_load_run``) is finished and kept as it is,
    so a finished run is recognised where it would train: on a pool worker
    under ``jobs``. The cell's plan has deleted any temp file a killed write left.
    """
    directory = cell.cell_dir / run.subdir / "checkpoints"
    if _attempt(_load_run, directory, failed=lambda error: None):
        return
    sigma = cell.split(split).sigma if split else None
    spec, seed = cell.spec(run), derive_seed(cell.seed, *run.stream)
    result = cell.recipe.train(*cell.data, spec, run.loss, cell.eps, cell.delta, seed, sigma)
    _save_run(directory, result, spec)


def _one_run(score: Callable) -> Callable:
    """The writer that puts ``score(cell, run, result, settings)`` of a method's one run, with
    the run's report, into ``<method>/``."""
    def write(cell: _Cell, method, settings, results) -> dict:
        ((run, result),) = results
        payload = {"target_epsilon": evaluation.tag(cell.eps), "delta": cell.delta,
                   "report": asdict(result.report)}
        return _emit_method(cell.cell_dir / method, method, score(cell, run, result, settings),
                            result.log.predictions[-1], cell.test_data.labels, cell.refs, payload)
    return write


def _write_ensemble(cell: _Cell, method, settings, results) -> dict:
    """One output for the members' mean, scored by ``score_de`` of their stacked probs; of each
    member only its report and final probabilities are kept."""
    reports, member_probs = [], []
    for _, result in results:
        reports.append(asdict(result.report))
        member_probs.append(result.log.final_probs)
    member_probs = np.stack(member_probs)
    predicted = np.argmax(member_probs.mean(axis=0), axis=1)
    payload = {**cell.joint_account(len(reports)), "member_reports": reports}
    return _emit_method(cell.cell_dir / method, method, selection.score_de(member_probs),
                        predicted, cell.test_data.labels, cell.refs, payload)


def _write_per_target(cell: _Cell, method, settings, results) -> dict:
    """Each coverage target's output as its run is read, then the joint account and all
    targets' metrics."""
    score = _class_scores(lambda log: selection.score_sn(log.final_selection))
    payload = {**cell.joint_account(len(settings["c_targets"])),
               "c_targets": settings["c_targets"], "run_reports": {}}
    metrics = {"c_targets": {}}
    for c_target, (run, result) in zip(settings["c_targets"], results):
        tag = evaluation.tag(c_target)
        payload["run_reports"][tag] = report = asdict(result.report)
        metrics["c_targets"][tag] = _emit_method(
            cell.cell_dir / run.subdir, method, score(cell, run, result, settings),
            result.log.predictions[-1], cell.test_data.labels, cell.refs,
            {"target_epsilon": payload["target_epsilon"], "report": report},
        )
    evaluation.write_json(payload, cell.cell_dir / method / "privacy.json")
    evaluation.write_metrics_json(metrics, cell.cell_dir / method / "metrics.json")
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
    if not 0 <= s["k"] < math.inf:  # a negative k would weigh early checkpoints most
        raise ValueError(f"methods.sctd.k must be finite and >= 0, got {s['k']!r}")
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
        _one_run(lambda cell, run, result, s: selection.score_sr(result.log.final_probs)),
    ),
    "mcdo": _Method(
        {"passes": 20, "dropout_rate": None}, _mcdo_runs,
        _one_run(lambda cell, run, result, s: selection.score_mcdo(
            result.params, cell.spec(run), cell.test_data.features, passes=s["passes"],
            seed=derive_seed(cell.seed, *run.stream, 1), dropout_rate=s["dropout_rate"],
        )),
    ),
    "sctd": _Method(
        {"k": 3.0}, _sctd_runs,
        _one_run(lambda cell, run, result, s: selection.score_sctd(result.log, s["k"])),
    ),
    "sat": _Method(
        {"momentum": 0.9, "burn_in_epochs": 0, "native_score": False},
        lambda s: [_Run("sat", sat_loss(s["momentum"], s["burn_in_epochs"]), (11,))],
        _one_run(_class_scores(lambda log: selection.score_sat(log.final_probs))),
    ),
    "de": _Method({"members": 5}, _de_runs, _write_ensemble),
    "sn": _Method(
        {"c_targets": [0.1, 0.25, 0.5, 0.75, 1.0], "alpha": 0.5, "lam": 32.0,
         "native_score": False},
        _sn_runs, _write_per_target,
    ),
}


def _submit(pool, call: Callable, *args) -> concurrent.futures.Future:
    """``call(*args)`` on ``pool``; without a pool, or once a dead worker broke it, called here."""
    try:
        if pool is not None:
            return pool.submit(call, *args)
    except concurrent.futures.BrokenExecutor:
        pass
    future = concurrent.futures.Future()
    future.set_result(call(*args))  # each call given catches its own errors
    return future


def _run_cells(cells: list[_Cell], pool=None) -> list[dict]:
    """Plan the cells, train the runs that do not read back, then score each cell; the records.

    On a pool the cells' runs, and then their scorings, spread over its workers.
    A call that a dead worker left unfinished fails with its ``BrokenProcessPool``
    text: a run, the methods that read it; a cell's scoring, its pending methods.
    """
    plans = [cell.plan() for cell in cells]
    trained = [{run.subdir: _submit(pool, _attempt, _train, cell, run, split)
                for run, split in untrained} for cell, (_, untrained) in zip(cells, plans)]
    scored = [_submit(pool, cell.score, records, {subdir: _attempt(future.result)
                                                  for subdir, future in runs.items()})
              for cell, (records, _), runs in zip(cells, plans, trained)]
    return [record for (records, _), future in zip(plans, scored)
            for record in _attempt(future.result, failed=functools.partial(_fail, records))]


def _fail(records: list[dict], error: str) -> list[dict]:
    """``records``, each that is still pending failed with ``error``."""
    return [r if "status" in r else {**r, "status": "failed", "error": error} for r in records]


def run_cell(config: ExperimentConfig, seed: int, eps: float, run_dir: str | Path) -> list[dict]:
    """Execute one (seed, epsilon) cell; one record per method.

    Trains the runs the cell plans, then scores its pending methods from the
    run tree. The cell draws its data at most once, and only if it uses it.
    """
    return _run_cells([_Cell(config, seed, eps, run_dir)])


def run(config: ExperimentConfig, out_root: str | Path, jobs: int = 1, seeds=None,
        epsilons=None) -> dict:
    """Run the full sweep grid; returns a machine-readable summary.

    ``seeds`` and ``epsilons`` restrict the grid (command-line overrides).
    With ``jobs > 1`` a bounded process pool trains every run that the cells
    plan, each into its own directory, and then scores the cells.
    """
    seeds = config.seeds if seeds is None else list(seeds)
    epsilons = config.epsilons if epsilons is None else [parse_epsilon(e) for e in epsilons]
    _check_grid(seeds, epsilons)
    run_dir = Path(out_root) / config.hash()
    evaluation.remove_temps(run_dir)
    evaluation.write_json(config.raw, run_dir / "config.json")
    if jobs == 1:
        records = [r for seed in seeds for eps in epsilons
                   for r in run_cell(config, seed, eps, run_dir)]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            records = _run_cells([_Cell(config, seed, eps, run_dir)
                                  for seed in seeds for eps in epsilons], pool)
    ok = all(r["status"] != "failed" for r in records)
    return {"config_hash": config.hash(), "run_dir": str(run_dir), "ok": ok, "records": records}


def evaluate_run(method_dir: str | Path) -> dict:
    """Read back every file of a method's output; ``matches_stored`` if its stored curve and
    metrics are those of its scores. A file missing, cut short or garbled raises a ``ValueError``.

    A method directory holds the files ``_emit_method`` wrote. ``sn/`` holds
    none of the tables: its ``privacy.json`` names the ``c_targets``, each
    ``sn/c_<tag>/`` is checked as a method directory, and ``sn/metrics.json``
    must hold every target's metrics.
    """
    method_dir = Path(method_dir)
    account, marker = method_dir / "privacy.json", method_dir / "metrics.json"
    c_targets = []
    if not (method_dir / "scores.csv").is_file() and account.is_file():
        named = _read_json(account).get("c_targets", [])
        c_targets = _checked(f"{account} c_targets", [0.0], named)
    names = ["metrics.json"] if c_targets else ["scores.csv", "curves.csv", "privacy.json",
                                                 "metrics.json"]
    if missing := [n for n in names if not (method_dir / n).is_file()]:
        raise ValueError(f"{method_dir} holds no {missing[0]}; pass one method's directory")
    if c_targets:
        outputs = {evaluation.tag(c): evaluate_run(method_dir / f"c_{evaluation.tag(c)}")
                   for c in c_targets}
        metrics = {"c_targets": {tag: output["metrics"] for tag, output in outputs.items()}}
        same = all(output["matches_stored"] for output in outputs.values())
        return {"metrics": metrics, "matches_stored": same and metrics == _read_json(marker)}
    _, scores, predicted, true_labels = selection.read_scores_csv(method_dir / "scores.csv")
    curve = evaluation.build_curve(scores, predicted == true_labels)
    written = evaluation.read_curve_columns(method_dir / "curves.csv")
    _read_json(account)
    stored = _read_json(marker)
    refs = _json_object(f"{marker} coverage_at", stored.get("coverage_at", {}))
    metrics = evaluation.curve_metrics(curve, tuple(map(float, refs)))
    same = metrics == stored and all(map(np.array_equal, written, evaluation.curve_columns(curve)))
    return {"metrics": metrics, "matches_stored": same}


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
    p = _checked("", OUTLIER_PANEL_DEFAULTS, {**OUTLIER_PANEL_DEFAULTS, **overrides})

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

    datasets = [({}, {"kind": "gaussian_outlier", "n_major": p["n_major"],
                      "outlier_mean": p["outlier_mean"], "base_seed": p["base_seed"]})]
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
    p = _checked("", IMBALANCE_PANEL_DEFAULTS, {**IMBALANCE_PANEL_DEFAULTS, **overrides})
    if not p["p0_grid"]:
        raise ValueError("need at least one p0")
    _reject_shared_tags("p0_grid", p["p0_grid"], evaluation.tag)
    sep, count = p["class_separation"], p["count_per_class"]
    components = [{"mean": [-sep, 0.0], "count": count, "label": 0},
                  {"mean": [sep, 0.0], "count": count, "label": 1}]
    dataset = {"kind": "mixture", "components": components,
               "train_fraction": p["train_fraction"], "base_seed": p["base_seed"]}

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
