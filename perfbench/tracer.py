"""Outside-in tracer for the dpselect modules.

The tracer never edits the package. While installed it replaces the public
functions listed in ``SPANS`` with wrappers, in every ``dpselect`` module
namespace that holds them (so ``from .data import split`` bindings are
caught too), and restores the originals on exit.

Each wrapper opens a span tagged with a layer. A span's self time is its
duration minus the durations of its direct child spans, so the self times
of all layers add up to the time spent under the outermost spans, and time
outside every span is left unattributed. A call is a *boundary call* of a
layer when the span that caused it belongs to another layer (or to none);
``<layer>.calls`` counts those, which is what a caller of the layer sees.

Totals are aggregated as the spans close rather than kept as a span list:
the accountant alone opens tens of thousands of spans per iteration.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, functions, layer). Persistence is its own layer so that the
# writers' time is not charged to the module that happens to own them.
SPANS = (
    ("accountant", ("account", "calibrate_sigma", "split_budget",
                    "subsampled_gaussian_curve", "gaussian_curve", "compose",
                    "rdp_to_dp", "rdp_subsampled_gaussian", "rdp_gaussian"),
     "accountant"),
    ("models", ("per_sample_grad", "batch_grad"), "models.grad"),
    ("models", ("forward", "predict_probs", "predict"), "models.forward"),
    ("models", ("save_params",), "harness.persist"),
    ("losses", ("ce_entropy_head_grads", "sat_head_grads",
                "selectivenet_head_grads", "sat_update_targets"), "losses"),
    ("trainer", ("dpsgd_step", "sgd_step"), "trainer.step"),
    ("trainer", ("clip_rows",), "trainer.clip"),
    ("trainer", ("poisson_sample",), "trainer.sample"),
    ("trainer", ("train",), "trainer.loop"),
    ("trainer", ("save_checkpoint_log",), "trainer.log"),
    ("selection", ("score_sr", "score_sr_of", "score_mcdo", "score_de",
                   "score_sctd", "sctd_disagreement_score", "score_sat",
                   "score_sn"), "selection"),
    ("selection", ("write_scores_csv",), "harness.persist"),
    ("evaluation", ("build_curve", "auc", "bound", "bound_values",
                    "normalized_score", "accuracy_at_coverage",
                    "coverage_at_accuracy", "ideal_score_oracle",
                    "curve_metrics"), "evaluation"),
    ("evaluation", ("write_curve_csv", "write_metrics_json"), "harness.persist"),
    ("harness", ("run", "run_cell", "panel_outlier", "panel_imbalance",
                 "panel_bound"), "harness"),
    # The two private helpers are the harness's persistence boundary: every
    # run directory and method directory is written through them.
    ("harness", ("_save_run", "_emit_method"), "harness.persist"),
    ("data", ("gen_mixture", "gen_gaussian_outlier", "subsample_class",
              "split", "load_csv"), "data"),
    ("cli", ("main",), "cli"),
)


def _count_grad_rows(tracer: "Tracer", args, kwargs) -> None:
    params = args[0] if args else kwargs["params"]
    x = args[2] if len(args) > 2 else kwargs["x"]
    rows = 1 if getattr(x, "ndim", 2) == 1 else len(x)
    tracer.counts["grad_rows"] += rows
    tracer.counts["grad_bytes"] += rows * len(params) * 8


def _count_accountant_repeat(tracer: "Tracer", args, kwargs, name: str) -> None:
    key = (name, args, tuple(sorted(kwargs.items())))
    if key in tracer.seen_calls:
        tracer.counts["accountant_repeat_calls"] += 1
    else:
        tracer.seen_calls.add(key)


class Tracer:
    """Per-layer self time, boundary calls and per-function call counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self.self_time: Counter = Counter()
        self.boundary_calls: Counter = Counter()
        self.fn_calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.seen_calls: set = set()
        self.root_time = 0.0
        self._stack: list[list] = []

    def wrap(self, fn, layer: str):
        name = fn.__name__
        clock = self.clock
        stack = self._stack
        per_row = name == "per_sample_grad"
        accountant = layer == "accountant"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None or parent[0] != layer:
                self.boundary_calls[layer] += 1
                if accountant:
                    _count_accountant_repeat(self, args, kwargs, name)
            self.fn_calls[name] += 1
            if per_row:
                _count_grad_rows(self, args, kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self.self_time[layer] += duration - frame[1]
                if parent is None:
                    self.root_time += duration
                else:
                    parent[1] += duration

        return traced

    @contextmanager
    def installed(self):
        """Swap the functions in ``SPANS`` for traced wrappers while the block runs."""
        wrapped = {}
        for module_name, names, layer in SPANS:
            module = importlib.import_module(f"dpselect.{module_name}")
            for name in names:
                original = getattr(module, name)
                wrapped[id(original)] = (original, self.wrap(original, layer))
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dpselect" and not mod_name.startswith("dpselect."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)


def self_test() -> list[str]:
    """Check self-time arithmetic on a synthetic nested call with a fake clock.

    ``outer`` (layer A) runs 1 s, calls ``mid`` (B), runs 2 s, calls
    ``inner`` (A, nested in A), runs 4 s. ``mid`` runs 1 s, calls ``leaf``
    (C, 3 s), runs 1 s. ``inner`` runs 5 s. Each self time must equal the
    span's duration minus only its direct children. Returns the failures.
    """
    now = [0.0]

    def advance(seconds):
        now[0] += seconds

    tracer = Tracer(clock=lambda: now[0])

    def leaf():
        advance(3.0)

    def mid():
        advance(1.0)
        leaf_t()
        advance(1.0)

    def inner():
        advance(5.0)

    def outer():
        advance(1.0)
        mid_t()
        advance(2.0)
        inner_t()
        advance(4.0)

    leaf_t = tracer.wrap(leaf, "C")
    mid_t = tracer.wrap(mid, "B")
    inner_t = tracer.wrap(inner, "A")
    outer_t = tracer.wrap(outer, "A")
    outer_t()
    outer_t()

    # One outer span lasts 1 + 5 + 2 + 5 + 4 = 17 s.
    expected = {"A": 2 * (17.0 - 5.0 - 5.0) + 2 * 5.0, "B": 2 * (5.0 - 3.0), "C": 2 * 3.0}
    failures = [
        f"self time of {layer}: {tracer.self_time[layer]} != {want}"
        for layer, want in expected.items()
        if tracer.self_time[layer] != want
    ]
    if tracer.root_time != 34.0:
        failures.append(f"root time {tracer.root_time} != 34.0")
    if sum(tracer.self_time.values()) != tracer.root_time:
        failures.append("self times do not add up to the root spans")
    if dict(tracer.boundary_calls) != {"A": 2, "B": 2, "C": 2}:
        failures.append(f"boundary calls {dict(tracer.boundary_calls)}")
    return failures
