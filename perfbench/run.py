"""dpselect benchmark: end-to-end metrics per workload, or per-layer with --trace 1.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

With ``--trace 0`` the workload runs back to back, untraced, until one more
iteration would overrun ``--seconds`` (at least two iterations), and the
end-to-end metrics are reported: the fastest iteration's wall time,
optimizer steps per second, set-up time (the fastest of fresh processes that
import and build the workload's inputs, spawned before and between the
iterations) and the process's peak resident memory. With ``--trace 1`` an untraced iteration runs between two
traced ones, and the per-layer metrics of ``tracer.SPANS`` are reported.

Every iteration's outputs are checked (see ``workloads``) and must digest
the same as the first iteration's. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it record the environment, the digest and the error rate.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before anything imports numpy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_PROBES_PER_ROUND = 3
MIN_ITERATIONS = 2
SUBPROCESS_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "wall_s": "s",
    "train_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Metrics in these units are counts; a traced iteration must reproduce them exactly.
COUNT_UNITS = ("count", "B")


def layer_metrics(tracer, wall: float, written: int, files: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced iteration, as name -> (value, unit)."""
    t, calls, fn = tracer.self_time, tracer.boundary_calls, tracer.fn_calls
    return {
        "accountant.time_s": (t["accountant"], "s"),
        "accountant.calls": (calls["accountant"], "count"),
        "accountant.repeat_calls": (tracer.counts["accountant_repeat_calls"], "count"),
        "accountant.order_evals": (fn["rdp_subsampled_gaussian"], "count"),
        "accountant.share": (t["accountant"] / wall, "fraction"),
        "models.grad_time_s": (t["models.grad"], "s"),
        "models.grad_calls": (fn["per_sample_grad"], "count"),
        "models.grad_rows": (tracer.counts["grad_rows"], "count"),
        "models.grad_bytes_computed": (tracer.counts["grad_bytes"], "B"),
        "models.forward_time_s": (t["models.forward"], "s"),
        "models.forward_calls": (fn["forward"], "count"),
        "losses.time_s": (t["losses"], "s"),
        "losses.calls": (calls["losses"], "count"),
        "trainer.step_time_s": (t["trainer.step"], "s"),
        "trainer.clip_time_s": (t["trainer.clip"], "s"),
        "trainer.sample_time_s": (t["trainer.sample"], "s"),
        "trainer.loop_time_s": (t["trainer.loop"], "s"),
        "trainer.log_time_s": (t["trainer.log"], "s"),
        "trainer.steps": (fn["dpsgd_step"] + fn["sgd_step"], "count"),
        "trainer.runs": (fn["train"], "count"),
        "selection.time_s": (t["selection"], "s"),
        "selection.calls": (calls["selection"], "count"),
        "evaluation.time_s": (t["evaluation"], "s"),
        "evaluation.calls": (calls["evaluation"], "count"),
        "harness.persist_time_s": (t["harness.persist"] + t["trainer.log"], "s"),
        "harness.bytes_written": (written, "B"),
        "harness.files_written": (files, "count"),
        "harness.self_time_s": (t["harness"], "s"),
        "data.time_s": (t["data"], "s"),
        "data.calls": (calls["data"], "count"),
        "cli.time_s": (t["cli"], "s"),
        "trace.unattributed_s": (wall - tracer.root_time, "s"),
    }


def environment() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')}-{blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_build = "unknown"
    threads = ",".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (
        f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={np.__version__} blas={blas_build} {threads} jobs=1"
    )


def setup_probe(workload: str, seed: int) -> float:
    """Time from spawning a fresh process to its finished set-up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=SUBPROCESS_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe for {workload} failed with exit code {code}")
    return elapsed


class Runner:
    """Runs one workload's iterations in a private scratch directory."""

    def __init__(self, workload_cls, seed: int, workdir: Path):
        self.workdir = workdir
        self.workload = workload_cls(seed, workdir)
        self.digests: set[str] = set()
        self.attempted = self.failed = 0
        self.count = 0

    def iteration(self, tracer=None) -> tuple[float, int, int]:
        """Time one iteration, then check it; returns (wall, bytes, files)."""
        self.count += 1
        out_dir = self.workdir / f"iteration_{self.count}"
        out_dir.mkdir()
        installed = contextlib.nullcontext() if tracer is None else tracer.installed()
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        try:
            with installed:
                start = time.perf_counter()
                output = self.workload.iterate(out_dir)
                wall = time.perf_counter() - start
            failed, digest, written, files = self.workload.check(output, out_dir)
        except Exception:  # a broken iteration is reported, not fatal
            traceback.print_exc()
            wall = time.perf_counter() - start
            failed, digest, written, files = self.workload.operations, "error", 0, 0
        shutil.rmtree(out_dir)
        self.attempted += self.workload.operations
        self.failed += failed
        self.digests.add(digest)
        return wall, written, files


def run_end_to_end(runner: Runner, seed: int, seconds: float):
    setups, walls = [], []

    def probe_round():
        setups.extend(setup_probe(runner.workload.name, seed)
                      for _ in range(SETUP_PROBES_PER_ROUND))

    start = time.perf_counter()
    while True:
        probe_round()
        walls.append(runner.iteration()[0])
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_ITERATIONS and elapsed + statistics.median(walls) > seconds:
            break
    probe_round()
    # Contention from other tenants of the host only ever slows an iteration
    # down, and it comes in spells of seconds to hours. The fastest
    # iteration is the estimate least moved by it: over ten-run sets on a
    # shared 2-vCPU VM its spread between quartiles was 0.09-0.22 of the
    # median, against 0.11-0.27 for the per-run median. Set-up is taken the
    # same way, from probes spread over the run.
    wall = min(walls)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": wall,
        "train_steps_per_s": runner.workload.steps / wall,
        "setup_s": min(setups),
        "peak_rss_mb": rss_mb,
    }
    notes = [f"iterations={len(walls)} walls_s={','.join(f'{w:.4f}' for w in walls)}",
             f"setup_probes={len(setups)} setup_median_s={statistics.median(setups):.4f}"]
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes, True


def run_traced(runner: Runner):
    """Traced, untraced, traced: the untraced reference sits between the two."""
    import tracer as tracing

    problems = tracing.self_test()
    tracer = tracing.Tracer()
    walls, layers = [], []

    def traced_iteration():
        wall, written, files = runner.iteration(tracer)
        walls.append(wall)
        layers.append(layer_metrics(tracer, wall, written, files))

    traced_iteration()
    untraced = runner.iteration()[0]
    traced_iteration()
    first, second = layers
    metrics = {}
    for name, (value, unit) in first.items():
        if unit in COUNT_UNITS:
            if value != second[name][0]:
                problems.append(f"{name} differs between traced iterations")
            metrics[name] = (value, unit)
        else:
            metrics[name] = (statistics.median((value, second[name][0])), unit)
    for name, declared in (("trainer.steps", runner.workload.steps),
                           ("trainer.runs", runner.workload.runs)):
        if first[name][0] != declared:
            problems.append(f"{name} {first[name][0]} != declared {declared}")
    traced_wall = statistics.median(walls)
    metrics["trace.overhead_frac"] = (traced_wall / untraced, "fraction")
    notes = [f"untraced_wall_s={untraced:.4f} traced_wall_s={traced_wall:.4f}"]
    notes += [f"tracer problem: {p}" for p in problems]
    return metrics, notes, not problems


def run_workload(workload_cls, seed: int, seconds: float, trace: bool) -> int:
    name = workload_cls.name
    print(f"perfbench env: {environment()}", flush=True)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        runner = Runner(workload_cls, seed, workdir)
        if trace:
            metrics, notes, ok = run_traced(runner)
        else:
            metrics, notes, ok = run_end_to_end(runner, seed, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    deterministic = len(runner.digests) == 1
    error_rate = runner.failed / runner.attempted
    print(f"perfbench {name} seed={seed}: " + " ".join(notes))
    print(
        f"perfbench {name}: attempted={runner.attempted} failed={runner.failed} "
        f"error_rate={error_rate:g} deterministic={deterministic} "
        f"digest={sorted(runner.digests)[0][:16]}"
    )
    for key, (value, unit) in metrics.items():
        print(f"perfbench {name}: {key} = {value!r} {unit}")
    result = {
        "correct": ok and deterministic and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args, names) -> int:
    """Every workload in its own fresh process; one table of their metrics."""
    rows, status = [], 0
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S + args.seconds)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: failed with exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        rows.append((name, "error_rate", result["failed"] / result["attempted"], "fraction"))
        rows += [(name, k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    for name, key, value, unit in rows:
        print(f"{name:<11} {key:<28} {value:>16.6g} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "dpselect" / "__init__.py").is_file():
        print(f"perfbench: no dpselect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = list(workloads.WORKLOADS)
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
    workload_cls = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        WORK_ROOT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="probe-", dir=WORK_ROOT) as workdir:
            workload_cls(args.seed, Path(workdir))
            print("ready", flush=True)
        return 0
    return run_workload(workload_cls, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
