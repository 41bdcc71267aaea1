"""Fail when two source trees write different bytes under one config hash.

A sweep skips every method whose ``metrics.json`` exists, so a change that
alters what a cell writes but keeps ``ExperimentConfig.hash()`` would let a
re-run trust cells written by the old code. This script runs one small
six-method sweep (two seeds, epsilon in {inf, 3}, ``native_score`` off and
on; a [16, 16] MLP, so gradients backpropagate through a second hidden
layer; 300 test points, so every evaluation pass crosses a block boundary of
``models.EVAL_BLOCK_ROWS``) against each tree's ``src/`` and matches the two trees' run directories
by the config name in their ``config.json``. Where both trees write one
config hash, every file must hold the same bytes. Where the hash moved, the
cells land in a fresh directory, so the files that differ (with the hash
directory set aside) are printed but do not fail.

The acceptance panels write no run tree, but the same training arithmetic
decides their numbers. A small ``panel_outlier`` (linear model) and
``panel_imbalance`` (ReLU MLP), two seeds at epsilon in {inf, 1} and 60
steps each, run in both trees too. A panel's summary can hide a moved bit,
so the script also records two sha256 digests of every panel run: one of its
parameters and final probabilities, and one of its parameters alone.
Summaries and both run digests must be identical while
``trainer.ALGORITHM_VERSION`` is unchanged; across a version change they are
compared and printed only, which still shows whether a change meant to move
only evaluation bits left the summaries and trained parameters alone.

    python3 .github/scripts/stale_cells.py BASE_TREE HEAD_TREE
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

METHODS = ("sr", "mcdo", "sctd", "sat", "de", "sn")
PANELS = ("outlier", "imbalance")
PANEL_SCRIPT = """
import hashlib, json, math
from dpselect import harness, trainer
runs, params, train = [], [], trainer.train

def recording_train(*args, **kwargs):
    result = train(*args, **kwargs)
    digest = hashlib.sha256(result.params.values.tobytes())
    params.append(digest.hexdigest())
    digest.update(result.log.final_probs.tobytes())
    runs.append(digest.hexdigest())
    return result

def recorded(summary):
    part = {"summary": summary, "params": params[:], "runs": runs[:]}
    params.clear()
    runs.clear()
    return part

trainer.train = recording_train
grid = {"seeds": (0, 1), "epsilons": (math.inf, 1.0), "steps": 60}
outlier = recorded(harness.panel_outlier(**grid))
imbalance = recorded(harness.panel_imbalance(p0_grid=[0.1], **grid))
print(json.dumps({
    "algorithm_version": trainer.ALGORITHM_VERSION,
    "outlier": outlier,
    "imbalance": imbalance,
}))
"""


def sweep_config(native: bool) -> dict:
    return {
        "name": f"stale-cells-native-{str(native).lower()}",
        "seeds": [0, 1],
        "dataset": {
            "kind": "mixture",
            "components": [
                {"mean": [-1.25, 0.0], "count": 300, "label": 0},
                {"mean": [1.25, 0.0], "count": 300, "label": 1},
            ],
            "train_fraction": 0.5,
            "base_seed": 13,
        },
        "model": {"hidden_sizes": [16, 16]},
        "training": {"steps": 60, "checkpoint_interval": 20},
        "privacy": {"epsilons": ["inf", 3], "sampling_rate": 0.1},
        "methods": {
            m: {"native_score": native} if m in ("sat", "sn") else {} for m in METHODS
        },
    }


def tree_env(tree: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}


def run_sweeps(tree: Path, out: Path, work: Path) -> None:
    env = tree_env(tree)
    for native in (False, True):
        config = work / f"config_{native}.json"
        config.write_text(json.dumps(sweep_config(native), indent=2))
        argv = [sys.executable, "-m", "dpselect.cli", "sweep", "--config", str(config),
                "--out", str(out)]
        done = subprocess.run(argv, env=env, cwd=work, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"sweep failed in {tree}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")


def run_panels(tree: Path, work: Path) -> dict:
    argv = [sys.executable, "-c", PANEL_SCRIPT]
    done = subprocess.run(argv, env=tree_env(tree), cwd=work, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"panels failed in {tree}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return json.loads(done.stdout)


def stale_panels(panels: dict[str, dict]) -> list[str]:
    """Panel parts that differ between the trees at one ``ALGORITHM_VERSION``.

    Across a version change every part is still compared and printed, but
    none is returned.
    """
    versions = {label: result["algorithm_version"] for label, result in panels.items()}
    same_version = versions["base"] == versions["head"]
    if not same_version:
        print(f"panels: ALGORITHM_VERSION {versions['base']} -> {versions['head']}, "
              "compared for the record only")
    stale = []
    for name in PANELS:
        for part in ("summary", "params", "runs"):
            base, head = (json.dumps(panels[label][name][part], sort_keys=True).encode()
                          for label in ("base", "head"))
            count = f" ({len(panels['head'][name][part])})" if part != "summary" else ""
            print(f"panel_{name} {part}{count}: base {hashlib.sha256(base).hexdigest()[:16]} "
                  f"head {hashlib.sha256(head).hexdigest()[:16]}, "
                  f"{'same' if base == head else 'differs'}")
            if base != head and same_version:
                stale.append(f"panel_{name} {part}")
    return stale


def run_dirs(out: Path) -> dict[str, Path]:
    """Each ``<config-hash>/`` directory of a sweep output, by its config's name."""
    return {json.loads((d / "config.json").read_text())["name"]: d for d in out.iterdir()}


def files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def digest(tree: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name, content in tree.items():
        h.update(name.encode() + b"\0" + hashlib.sha256(content).digest())
    return h.hexdigest()[:16]


def main(base: str, head: str) -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        outs, panels = {}, {}
        for label, tree in (("base", base), ("head", head)):
            work = Path(tmp) / label
            work.mkdir()
            outs[label] = work / "out"
            run_sweeps(Path(tree).resolve(), outs[label], work)
            panels[label] = run_panels(Path(tree).resolve(), work)
        dirs = {label: run_dirs(out) for label, out in outs.items()}
        stale = []
        for name in sorted(dirs["base"].keys() | dirs["head"].keys()):
            if name not in dirs["base"] or name not in dirs["head"]:
                print(f"{name}: written by one tree only")
                continue
            base_dir, head_dir = dirs["base"][name], dirs["head"][name]
            base_files, head_files = files(base_dir), files(head_dir)
            differ = sorted(f for f in base_files.keys() | head_files.keys()
                            if base_files.get(f) != head_files.get(f))
            print(f"{name}: base {base_dir.name}/ {digest(base_files)} head {head_dir.name}/ "
                  f"{digest(head_files)}, {len(differ)} of {len(base_files | head_files)} "
                  "files differ")
            if base_dir.name == head_dir.name:
                stale += [f"{head_dir.name}/{f}" for f in differ]
            elif differ:
                print("  the config hash moved, so these are reported only:\n"
                      + "\n".join(f"    {f}" for f in differ[:20]))
        moved = stale_panels(panels)
    print(f"compared in {time.perf_counter() - start:.1f} s")
    if stale:
        print("same config hash, different bytes (a re-run would trust stale cells):")
        print("\n".join(f"  {f}" for f in stale[:20]))
    if moved:
        print("same ALGORITHM_VERSION, different panel numbers: " + ", ".join(moved))
    return 1 if stale or moved else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
