"""The benchmark's workloads: inputs made from a seed, one timed call, checks.

Every workload is closed loop with one client: an iteration starts when the
previous one has been checked. ``iterate`` is the timed region and calls
only public dpselect entry points, looked up as module attributes so the
tracer can wrap them. ``check`` runs untimed and untraced; it returns the
number of failed operations, a digest of everything the iteration produced,
and the bytes and files it wrote.

Seeds: the benchmark seed ``s`` shifts the dataset base seed of every input
(``13 + s`` for the mixture, ``33 + s`` for the outlier panel) and is the
sweep's run seed, so a claim can be rerun on seeds it was not tuned on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from dpselect import cli, harness, trainer
from dpselect.data import MixtureComponent, MixtureSpec, gen_mixture, split
from dpselect.losses import cross_entropy_loss
from dpselect.models import ModelSpec
from dpselect.rng import derive_seed

MIXTURE_BASE_SEED = 13
OUTLIER_BASE_SEED = 33
BOUND_TOLERANCE = 1e-12

# The README's two-class mixture without its imbalance block.
MIXTURE_COMPONENTS = [
    {"mean": [-1.25, 0.0], "count": 1500, "label": 0},
    {"mean": [1.25, 0.0], "count": 1500, "label": 1},
]
ALL_METHODS = {
    "sr": {},
    "mcdo": {"passes": 20},
    "sctd": {"k": 3.0},
    "sat": {"momentum": 0.9, "burn_in_epochs": 0},
    "de": {"members": 5},
    "sn": {"c_targets": [0.1, 0.25, 0.5, 0.75, 1.0]},
}
BASE_RUN_METHODS = ("sr", "mcdo", "sctd")


def tree_summary(root: Path) -> tuple[str, int, int]:
    """Digest over (relative path, bytes) of every file, plus bytes and file count."""
    digest = hashlib.sha256()
    total = files = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        content = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(content).digest())
        total += len(content)
        files += 1
    return digest.hexdigest(), total, files


def epsilons_within(node, target: float) -> bool:
    """Every ``epsilon`` in a privacy document is at or below ``target``.

    At least one must be present, so an empty or reshaped document fails.
    """
    found = []

    def walk(value):
        if isinstance(value, dict):
            for key, item in value.items():
                if key == "epsilon":
                    found.append(item)
                walk(item)
        elif isinstance(value, list):
            for item in value:
                walk(item)

    walk(node)
    return bool(found) and all(
        isinstance(e, (int, float)) and e <= target for e in found
    )


class Sweep:
    """``dpselect sweep`` in-process through ``cli.main``: one seed, eps in {inf, 3}.

    Six methods at harness defaults (hidden [64], 400 steps, q = 0.05) make
    12 training runs per cell and 24 per iteration. An operation is one
    method cell, 12 per iteration. Set-up only writes and defaults the
    config: ``cli.main`` makes the datasets, so that is timed in each
    iteration.
    """

    name = "sweep"

    def __init__(self, seed: int, workdir: Path):
        raw = {
            "name": "perfbench-sweep",
            "seeds": [seed],
            "dataset": {
                "kind": "mixture",
                "components": MIXTURE_COMPONENTS,
                "train_fraction": 0.5,
                "base_seed": MIXTURE_BASE_SEED + seed,
            },
            "privacy": {"epsilons": ["inf", 3]},
            "methods": ALL_METHODS,
        }
        self.config_path = workdir / "sweep_config.json"
        self.config_path.write_text(json.dumps(raw, indent=2) + "\n")
        config = harness.ExperimentConfig.load(self.config_path)
        methods = config.raw["methods"]
        runs_per_cell = 2 + methods["de"]["members"] + len(methods["sn"]["c_targets"])
        cells = len(config.seeds) * len(config.epsilons)
        self.operations = cells * len(methods)
        self.runs = cells * runs_per_cell
        self.steps = self.runs * int(config.raw["training"]["steps"])

    def iterate(self, out_dir: Path):
        argv = ["sweep", "--config", str(self.config_path), "--out", str(out_dir), "--jobs", "1"]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        return code, stdout.getvalue()

    def check(self, output, out_dir: Path) -> tuple[int, str, int, int]:
        code, text = output
        records = json.loads(text)["records"]
        failed = max(self.operations - len(records), 0)
        failed += sum(not self._record_ok(code, record) for record in records)
        digest, written, files = tree_summary(out_dir)
        return failed, digest, written, files

    @staticmethod
    def _record_ok(code: int, record: dict) -> bool:
        """Status ok, persisted metrics reproduce, every epsilon within target."""
        method_dir = Path(record["dir"])
        if code != 0 or record["status"] != "ok" or not method_dir.is_dir():
            return False
        target = harness.parse_epsilon(record["epsilon"])
        dirs = [method_dir]
        if record["method"] in BASE_RUN_METHODS:
            dirs.append(method_dir.parent / "base")
        for directory in dirs:
            for scores in directory.rglob("scores.csv"):
                if not harness.evaluate_run(scores.parent)["matches_stored"]:
                    return False
            privacy = list(directory.rglob("privacy.json"))
            if not privacy or not all(
                epsilons_within(json.loads(p.read_text()), target) for p in privacy
            ):
                return False
        return True


class Panels:
    """The acceptance-gate panels: outlier at its defaults, one imbalance level, bound.

    ``panel_outlier`` trains 5 seeds x 4 epsilons of a linear model and
    ``panel_imbalance(p0_grid=[0.1], epsilons=(inf, 1))`` 5 x 2 of a 32-wide
    MLP, 600 steps each: 30 runs, 18,000 steps. An operation is one panel
    cell (20 + 10) or one bound row (3), 33 per iteration.
    """

    name = "panels"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.operations = 33
        self.runs = 30
        self.steps = 30 * 600

    def iterate(self, out_dir: Path):
        outlier = harness.panel_outlier(base_seed=OUTLIER_BASE_SEED + self.seed)
        imbalance = harness.panel_imbalance(
            p0_grid=[0.1],
            epsilons=(math.inf, 1.0),
            base_seed=MIXTURE_BASE_SEED + self.seed,
        )
        bound = harness.panel_bound(seed=self.seed)
        return outlier, imbalance, bound

    def check(self, output, out_dir: Path) -> tuple[int, str, int, int]:
        outlier, imbalance, bound = output
        cells = outlier["cells"] + imbalance["cells"]
        failed = max(30 - len(cells), 0) + max(3 - len(bound["rows"]), 0)
        for cell in cells:
            failed += not (
                cell["realized_epsilon"] <= harness.parse_epsilon(cell["epsilon"])
            )
        n = bound["n"]
        grid = np.arange(1, n + 1) / n
        for row in bound["rows"]:
            a = math.floor(row["a_full"] * n) / n
            grid_mean = float(np.mean(np.where(grid <= a, 1.0, a / grid)))
            failed += not (
                abs(row["auc"] + row["normalized_score"] - grid_mean) <= BOUND_TOLERANCE
            )
        text = json.dumps([outlier, imbalance, bound], sort_keys=True)
        return failed, hashlib.sha256(text.encode()).hexdigest(), 0, 0


class WideDpsgd:
    """One private ``trainer.train`` of a [256, 256] MLP (67,074 parameters).

    Same mixture and training defaults as the sweep, q = 0.05 (about 75 rows
    a batch), 100 steps, at a fixed noise multiplier, so the accountant runs
    only the single ``account()`` that certifies the target. An operation is
    the training run.
    """

    name = "wide_dpsgd"
    EPSILON = 3.0
    SIGMA = 1.2  # certifies about 2.5 at delta = 1/1500 over 100 steps

    def __init__(self, seed: int, workdir: Path):
        components = tuple(
            MixtureComponent(tuple(c["mean"]), 1.0, c["count"], c["label"])
            for c in MIXTURE_COMPONENTS
        )
        base = MIXTURE_BASE_SEED + seed
        data = gen_mixture(MixtureSpec(components), derive_seed(base, seed, 0))
        self.train_data, self.test_data = split(data, 0.5, derive_seed(base, seed, 2))
        self.spec = ModelSpec(
            input_dim=2, num_classes=2, hidden_sizes=(256, 256), dropout_rate=0.1
        )
        steps = 100
        self.train_cfg = trainer.TrainConfig(
            learning_rate=0.5,
            steps=steps,
            loss=cross_entropy_loss(),
            entropy_beta=0.01,
            checkpoint_interval=50,
            seed=derive_seed(seed, 10),  # the harness's base-run seed stream
        )
        self.privacy = trainer.PrivacyConfig(
            epsilon=self.EPSILON,
            delta=1.0 / len(self.train_data),
            clip_norm=1.0,
            sampling_rate=0.05,
            steps=steps,
            noise_multiplier=self.SIGMA,
        )
        self.operations = 1
        self.runs = 1
        self.steps = steps

    def iterate(self, out_dir: Path):
        return trainer.train(
            self.train_data, self.spec, self.train_cfg, self.privacy, eval_set=self.test_data
        )

    def check(self, result, out_dir: Path) -> tuple[int, str, int, int]:
        log = result.log
        ok = (
            result.report.epsilon <= self.EPSILON
            and bool(np.all(np.isfinite(result.params.values)))
            and log.predictions.shape == (2, len(self.test_data))
        )
        digest = hashlib.sha256()
        for array in (result.params.values, log.predictions, log.final_probs):
            digest.update(np.ascontiguousarray(array).tobytes())
        return int(not ok), digest.hexdigest(), 0, 0


WORKLOADS = {w.name: w for w in (Sweep, Panels, WideDpsgd)}
