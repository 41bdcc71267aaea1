"""Small dense classifiers with exact per-example gradients.

Architectures are multinomial logistic regression (no hidden layers) and
ReLU multilayer perceptrons, in float64. A model optionally carries one of
two abstention-specific head layouts:

* ``abstention_head``: a single output layer of width ``C + 1`` whose last
  output is reserved for abstention mass;
* ``selectivenet_heads``: three output layers sharing the representation, a
  prediction head ``f`` (width ``C``), a scalar selection head ``g`` and an
  auxiliary head ``h`` (width ``C``).

Every array entry point takes a batch: features of shape (N, input_dim)
and labels of shape (N,).

Gradients come from hand-written reverse mode, vectorized over the batch.
The backward pass yields, for every dense layer ``l``, the per-example
upstream vectors ``U_l`` (B, out) and layer inputs ``A_l`` (B, in), with
dropout scales and ReLU gates folded into ``U_l``. Example ``i``'s gradient
of that layer is the outer product ``U_l,i A_l,i^T`` (weights) and
``U_l,i`` (bias), so its squared norm is ``sum_l |U_l,i|^2 (|A_l,i|^2 + 1)``
and the batch sum with per-example weights ``w`` is ``(w * U_l)^T A_l`` and
``(w * U_l)^T 1`` (Goodfellow 2015; "ghost clipping", Li et al. 2022).
:func:`batch_grad` clips and averages from these factors and never builds
the (B, P) gradient matrix. :func:`per_sample_grad` materializes the rows
from the same factors; it is the reference the tests check against central
finite differences and the closed form for logistic regression.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import losses
from .evaluation import write_atomic
from .losses import LossSpec, sigmoid
from .rng import STREAM_INIT, generator

PARAMS_FORMAT = "dpselect-params"
PARAMS_VERSION = 1
# Rows per block of a whole-set pass (see :func:`forward`).
EVAL_BLOCK_ROWS = 256


# Maps a hidden layer to its dropout mask generator; None turns dropout off.
DropoutSeed = Optional[Callable[[int], np.random.Generator]]


class SelectiveNetOutputs(NamedTuple):
    f_logits: np.ndarray
    g_raw: np.ndarray
    h_logits: np.ndarray


@dataclass(frozen=True)
class ModelSpec:
    input_dim: int
    num_classes: int
    hidden_sizes: tuple[int, ...] = ()
    abstention_head: bool = False
    selectivenet_heads: bool = False
    dropout_rate: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden sizes must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.abstention_head and self.selectivenet_heads:
            raise ValueError("abstention_head and selectivenet_heads are exclusive")

    @property
    def n_outputs(self) -> int:
        """Width of the main output layer (prediction head for selective nets)."""
        return self.num_classes + 1 if self.abstention_head else self.num_classes

    @property
    def heads(self) -> tuple[tuple[str, int], ...]:
        """(name, width) of each output layer, in layout order."""
        if self.selectivenet_heads:
            return (("f", self.num_classes), ("g", 1), ("h", self.num_classes))
        return (("out", self.n_outputs),)

    def layout(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """Ordered (name, shape) pairs defining the flat parameter vector."""
        entries: list[tuple[str, tuple[int, ...]]] = []
        prev = self.input_dim
        for i, width in enumerate(self.hidden_sizes):
            entries += [(f"h{i}.W", (width, prev)), (f"h{i}.b", (width,))]
            prev = width
        for name, width in self.heads:
            entries += [(f"{name}.W", (width, prev)), (f"{name}.b", (width,))]
        return tuple(entries)

    @property
    def param_count(self) -> int:
        return _layout_slices(self.layout())[1]


@functools.lru_cache(maxsize=64)
def _layout_slices(layout) -> tuple[MappingProxyType, int]:
    """Name -> (start, stop, shape) of each layout entry, and the total size.

    Every step builds a new :class:`ParamVector` over the same layout, so
    the offsets are computed once per layout. The mapping is read-only
    because every caller shares it.
    """
    slices, pos = {}, 0
    for name, shape in layout:
        stop = pos + math.prod(shape)
        slices[name] = (pos, stop, shape)
        pos = stop
    return MappingProxyType(slices), pos


@dataclass(frozen=True)
class ParamVector:
    """Flat float64 parameter vector plus the layout that interprets it."""

    values: np.ndarray
    layout: tuple[tuple[str, tuple[int, ...]], ...]
    _slices: MappingProxyType = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        slices, size = _layout_slices(self.layout)
        if values.shape != (size,):
            raise ValueError(f"expected {size} parameters, got shape {values.shape}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_slices", slices)

    def __len__(self) -> int:
        return self.values.shape[0]

    def view(self, name: str) -> np.ndarray:
        start, stop, shape = self._slices[name]
        return self.values[start:stop].reshape(shape)

    def replace(self, values: np.ndarray) -> "ParamVector":
        return ParamVector(values, self.layout)


def init_params(spec: ModelSpec, seed: int) -> ParamVector:
    """Fan-in-scaled Gaussian weights (variance 2 / fan_in), zero biases.

    Weight matrices are drawn in layout order from a single PCG64 stream, so
    the full vector is a pure function of (spec, seed).
    """
    rng = generator(seed, STREAM_INIT)
    layout = spec.layout()
    slices, size = _layout_slices(layout)
    values = np.zeros(size)
    for name, (start, stop, shape) in slices.items():
        if name.endswith(".W"):
            fan_in = shape[1]
            values[start:stop] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).ravel()
    return ParamVector(values, layout)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _dense(params: ParamVector, name: str, a: np.ndarray) -> np.ndarray:
    """``a @ W.T + b`` of layer ``name``, in one new array."""
    z = a @ params.view(f"{name}.W").T
    z += params.view(f"{name}.b")
    return z


def _hidden_forward(params: ParamVector, spec: ModelSpec, x: np.ndarray,
                    dropout_seed: DropoutSeed):
    """Run the hidden stack; returns layer inputs and dropout scales.

    ``acts[l]`` is the (post-dropout) input of hidden layer ``l``; the last
    entry is the representation feeding the heads. A dropout mask zeroes a
    unit with probability ``dropout_rate`` and rescales survivors by
    ``1 / (1 - rate)``. Layer ``l``'s mask is drawn from the generator
    ``dropout_seed(l)``, e.g. a step of :class:`rng.RunStreams`. ReLU is
    ``np.maximum(z, 0)``, so a NaN pre-activation stays NaN.
    """
    rate = spec.dropout_rate if dropout_seed is not None else 0.0
    acts, scales = [x], []
    for layer in range(len(spec.hidden_sizes)):
        a = _dense(params, f"h{layer}", acts[-1])
        np.maximum(a, 0.0, out=a)
        scale = None
        if rate > 0.0:
            mask = dropout_seed(layer).random(a.shape) >= rate
            scale = mask / (1.0 - rate)
            a *= scale
        scales.append(scale)
        acts.append(a)
    return acts, scales


def check_batch(spec: ModelSpec, x) -> np.ndarray:
    """``x`` as a float64 (N, input_dim) batch; any other shape is a ValueError."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ValueError(f"expected an (N, {spec.input_dim}) batch, got shape {x.shape}")
    return x


def forward(params: ParamVector, spec: ModelSpec, x: np.ndarray,
            dropout_seed: DropoutSeed = None):
    """Head pre-activations of a batch ``x`` of shape (N, input_dim).

    With ``dropout_seed=None`` the pass is deterministic; otherwise dropout
    is active and ``dropout_seed(layer)`` gives each hidden layer's mask
    generator. The pass runs ``EVAL_BLOCK_ROWS`` rows at a time: every
    block's layers are computed in fresh arrays, freed before the next
    block, and its head outputs copied into its rows of the results, so it
    holds O(EVAL_BLOCK_ROWS x width) activations however many rows it
    scores. Row ``i`` of a deterministic pass equals the pass over row
    ``i``'s own block bit for bit. Each hidden layer's mask generator is
    taken once per pass, on first use, and held across blocks: consecutive
    ``random((EVAL_BLOCK_ROWS, width))`` draws fill the same numbers as one
    ``random((N, width))``. Returns (N, ``n_outputs``) logits, or
    :class:`SelectiveNetOutputs` when the spec has selective heads.
    """
    x = check_batch(spec, x)
    if dropout_seed is not None:
        dropout_seed = functools.cache(dropout_seed)
    results = [np.empty((len(x), width)) for _, width in spec.heads]
    for start in range(0, len(x), EVAL_BLOCK_ROWS):
        rows = slice(start, start + EVAL_BLOCK_ROWS)
        rep = _hidden_forward(params, spec, x[rows], dropout_seed)[0][-1]
        for (name, _), result in zip(spec.heads, results):
            result[rows] = _dense(params, name, rep)
        del rep  # frees this block's layers before the next block computes its own
    if spec.selectivenet_heads:
        f, g, h = results
        return SelectiveNetOutputs(f, g[:, 0], h)
    return results[0]


def head_probs(out) -> np.ndarray:
    """Softmax of :func:`forward`'s logits; of the prediction head ``f`` for selective nets."""
    return softmax(out.f_logits if isinstance(out, SelectiveNetOutputs) else out)


def predict_probs(params: ParamVector, spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    """Deterministic softmax outputs; the prediction head for selective nets."""
    return head_probs(forward(params, spec, x))


def predict(params: ParamVector, spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    """Argmax over the first ``num_classes`` outputs; ties take the lower index."""
    probs = predict_probs(params, spec, x)
    return np.argmax(probs[:, : spec.num_classes], axis=1)


def check_grad_args(params: ParamVector, spec: ModelSpec, x, loss: LossSpec, *, sat_targets=None,
                    clip_norm: float = math.inf, out: np.ndarray | None = None) -> np.ndarray:
    """``x`` as a float64 (N, input_dim) batch, once a gradient call's arguments pass;
    a ValueError otherwise, before anything is computed or written."""
    if not clip_norm > 0:
        raise ValueError("clip_norm must be positive")
    if out is not None and (out.shape != (len(params),)
                            or np.may_share_memory(out, params.values)):
        raise ValueError("out must be a separate vector of one entry per parameter")
    x = check_batch(spec, x)
    if loss.kind == "sat" and not spec.abstention_head:
        raise ValueError("sat loss requires abstention_head=True")
    if loss.kind == "selectivenet" and not spec.selectivenet_heads:
        raise ValueError("selectivenet loss requires selectivenet_heads=True")
    if loss.kind == "cross_entropy" and spec.selectivenet_heads:
        raise ValueError("cross_entropy loss cannot train selective heads")
    if loss.kind == "sat" and sat_targets is None and len(x):
        raise ValueError("sat loss needs per-example targets")
    return x


def _head_factors(params, spec, rep, loss, y, entropy_beta, sat_targets):
    """Per-example upstream vectors of the heads, in ``spec.heads`` order."""
    logits = [_dense(params, name, rep) for name, _ in spec.heads]
    if spec.selectivenet_heads:
        f, g, h = logits
        s_f, s_raw, s_h = losses.selectivenet_head_grads(
            softmax(f), sigmoid(g[:, 0]), softmax(h), y, loss.c_target, loss.lam, loss.alpha,
            entropy_beta,
        )
        return [s_f, s_raw[:, None], s_h]
    probs = softmax(logits[0])
    if loss.kind == "cross_entropy":
        return [losses.ce_entropy_head_grads(probs, y, entropy_beta)]
    # sat, as check_grad_args allows no other loss on this head
    return [losses.sat_head_grads(probs, y, sat_targets, entropy_beta)]


def _factors(params, spec, x, y, loss, entropy_beta, sat_targets, dropout_seed):
    """``(name, U, A)`` for every dense layer: example ``i``'s gradient is ``U_i A_i^T``.

    ``U`` (B, out) is the loss gradient at the layer's pre-activation, with
    dropout scales and ReLU gates already applied; ``A`` (B, in) is the
    layer's input. For the coverage-coupled selective loss ``U_i`` is the
    chain-rule share ``B * dL/d(outputs_i)``, so the mean over examples is
    the batch-loss gradient in every case. The arguments are those
    :func:`check_grad_args` passed.
    """
    acts, scales = _hidden_forward(params, spec, x, dropout_seed)
    heads = _head_factors(params, spec, acts[-1], loss, y, entropy_beta, sat_targets)
    factors = [(name, u, acts[-1]) for (name, _), u in zip(spec.heads, heads)]
    if spec.hidden_sizes:
        upstream = functools.reduce(
            np.add, (u @ params.view(f"{name}.W") for name, u, _ in factors)
        )
    for layer in reversed(range(len(spec.hidden_sizes))):
        if scales[layer] is not None:
            upstream *= scales[layer]
        # The ReLU gate z > 0, read off the layer's output: the dropout scale
        # is at least 1 where it is not 0, and a dropped unit's upstream is
        # already a zero of the same sign either way.
        upstream *= acts[layer + 1] > 0
        factors.append((f"h{layer}", upstream, acts[layer]))
        if layer > 0:
            upstream = upstream @ params.view(f"h{layer}.W")
    return factors


def _sq_norms(factors) -> np.ndarray:
    """Squared L2 norm of each example's full gradient, from the layer factors.

    Heads that share one input (the selective heads) share its norm.
    """
    total, a_seen = 0.0, None
    for _, u, a in factors:
        if a is not a_seen:
            a_seen, a_term = a, np.einsum("bi,bi->b", a, a) + 1.0
        total = total + np.einsum("bo,bo->b", u, u) * a_term
    return total


def per_sample_grad(
    params: ParamVector,
    spec: ModelSpec,
    x: np.ndarray,
    y: np.ndarray,
    loss: LossSpec,
    *,
    entropy_beta: float = 0.0,
    sat_targets: np.ndarray | None = None,
    dropout_seed: DropoutSeed = None,
) -> np.ndarray:
    """Exact per-example loss gradients, one flat row per batch member.

    For the separable losses row ``i`` is the gradient of example ``i``'s own
    loss; for the coverage-coupled selective loss it is the chain-rule share
    ``B * dL/d(outputs_i)`` backpropagated through example ``i``'s pass. In
    both cases the row mean equals the batch-loss gradient exactly (up to
    float associativity). This is the materialized reference for
    :func:`batch_grad`, which computes the same clipped mean without the rows.
    """
    x = check_grad_args(params, spec, x, loss, sat_targets=sat_targets)
    factors = _factors(params, spec, x, y, loss, entropy_beta, sat_targets, dropout_seed)
    n = factors[0][1].shape[0]
    out = np.empty((n, len(params)), dtype=np.float64)
    for name, u, a in factors:
        w_start, w_stop, _ = params._slices[f"{name}.W"]
        b_start, b_stop, _ = params._slices[f"{name}.b"]
        out[:, w_start:w_stop] = np.einsum("bo,bi->boi", u, a).reshape(n, -1)
        out[:, b_start:b_stop] = u
    return out


def batch_grad(
    params: ParamVector,
    spec: ModelSpec,
    x: np.ndarray,
    y: np.ndarray,
    loss: LossSpec,
    *,
    entropy_beta: float = 0.0,
    sat_targets: np.ndarray | None = None,
    dropout_seed: DropoutSeed = None,
    clip_norm: float = math.inf,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Mean over the batch of the per-example gradients, each clipped to ``clip_norm``.

    Example ``i`` gets weight ``w_i = min(1, clip_norm / |g_i|)``, with the
    norm taken from the layer factors as ``sum_l |U_l,i|^2 (|A_l,i|^2 + 1)``;
    each layer's weighted sum is then ``(w * U_l)^T A_l`` and
    ``(w * U_l)^T 1``. Memory is O(B * width), never O(B * P). An infinite
    ``clip_norm`` skips the weights and gives the plain mean-loss gradient;
    an empty batch gives zeros. The result is written into ``out`` (a
    float64 vector of length P that does not overlap the parameters) when
    it is given, and into a new array otherwise. :func:`check_grad_args`
    checks the arguments first.
    """
    x = check_grad_args(params, spec, x, loss, sat_targets=sat_targets,
                        clip_norm=clip_norm, out=out)
    if out is None:
        out = np.empty(len(params), dtype=np.float64)
    if len(x) == 0:
        out.fill(0.0)
        return out
    factors = _factors(params, spec, x, y, loss, entropy_beta, sat_targets, dropout_seed)
    if math.isfinite(clip_norm):
        norms = np.sqrt(_sq_norms(factors))
        weights = np.minimum(1.0, clip_norm / np.maximum(norms, 1e-300))[:, None]
        for _, u, _ in factors:
            u *= weights
    for name, u, a in factors:
        w_start, w_stop, shape = params._slices[f"{name}.W"]
        b_start, b_stop, _ = params._slices[f"{name}.b"]
        np.matmul(u.T, a, out=out[w_start:w_stop].reshape(shape))
        u.sum(axis=0, out=out[b_start:b_stop])
    out /= len(x)
    return out


def save_params(params: ParamVector, spec: ModelSpec, path: str | Path) -> None:
    """Versioned compact JSON checkpoint: spec descriptor, layout, flat values."""
    payload = {
        "format": PARAMS_FORMAT,
        "version": PARAMS_VERSION,
        "spec": asdict(spec),
        "layout": [[name, list(shape)] for name, shape in params.layout],
        "values": params.values.tolist(),
    }
    write_atomic(path, json.dumps(payload))


def load_params(path: str | Path) -> tuple[ParamVector, ModelSpec]:
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != PARAMS_FORMAT:
        raise ValueError(f"{path} is not a parameter checkpoint")
    if payload.get("version") != PARAMS_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')}")
    spec = ModelSpec(**payload["spec"])
    layout = tuple((name, tuple(shape)) for name, shape in payload["layout"])
    if layout != spec.layout():
        raise ValueError("checkpoint layout does not match its model spec")
    values = np.asarray(payload["values"], dtype=np.float64)
    return ParamVector(values, layout), spec
