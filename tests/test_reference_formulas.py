"""The training hot path against its reference formulas, bit for bit.

``softmax``, ``sigmoid``, the head gradients and the hidden stack's ReLU
are written for speed (in-place arithmetic, one ``exp``, array reductions).
Each test below writes the plain formula inline and requires
``np.array_equal`` with it, so a rewrite that moves a single bit of a
trained parameter fails here before it reaches a run tree. No float digits
are pinned: ``exp`` and ``log`` bits may differ between hosts, and both
sides of every comparison run on the same one.
"""

import numpy as np
import pytest

from dpselect import losses, models, trainer
from dpselect.losses import LOG_CLAMP
from dpselect.models import ModelSpec, init_params

COVERAGE_FLOOR = losses.COVERAGE_FLOOR


def ref_softmax(logits):
    z = np.asarray(logits, dtype=np.float64)
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def ref_sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_log(p):
    return np.log(np.maximum(p, LOG_CLAMP))


def ref_penalty(p, beta):
    if beta == 0.0:
        return np.zeros_like(p)
    h = -np.sum(p * ref_log(p), axis=-1)
    return beta * p * (ref_log(p) + h[:, None])


def ref_ce_grads(p, y, beta):
    grad = p.copy()
    grad[np.arange(len(y)), y] -= 1.0
    return grad + ref_penalty(p, beta)


def ref_sat_grads(p, y, t, beta):
    idx = np.arange(len(y))
    w = np.zeros_like(p)
    w[idx, y] = t[idx, y]
    w[:, -1] += 1.0 - t[idx, y]
    return (p - w) + ref_penalty(p, beta)


def ref_sn_grads(fp, g, hp, y, c_target, lam, alpha, beta):
    idx = np.arange(len(y))
    ce_f = -ref_log(fp[idx, y])
    cov = float(np.mean(g))
    cov_f = max(cov, COVERAGE_FLOOR)
    sel_mean = float(np.mean(g * ce_f))
    onehot_grad_f = fp.copy()
    onehot_grad_f[idx, y] -= 1.0
    s_f = alpha * (g / cov_f)[:, None] * onehot_grad_f
    s_f += ref_penalty(fp, beta)
    dsel = ce_f / cov_f
    if cov > COVERAGE_FLOOR:
        dsel = dsel - sel_mean / cov_f**2
    dpen = -2.0 * lam * max(0.0, c_target - cov)
    s_raw = alpha * (dsel + dpen) * g * (1.0 - g)
    onehot_grad_h = hp.copy()
    onehot_grad_h[idx, y] -= 1.0
    s_h = (1.0 - alpha) * onehot_grad_h
    return s_f, s_raw, s_h


def ref_relu_stack(params, spec, x, dropout_seed):
    """Each hidden layer's output: ``where(z > 0, z, 0)``, then the dropout scale."""
    a, outs = x, []
    for layer, _ in enumerate(spec.hidden_sizes):
        z = a @ params.view(f"h{layer}.W").T + params.view(f"h{layer}.b")
        a = np.where(z > 0, z, 0.0)
        if dropout_seed is not None and spec.dropout_rate > 0.0:
            mask = dropout_seed(layer).random(a.shape) >= spec.dropout_rate
            a = a * (mask / (1.0 - spec.dropout_rate))
        outs.append(a)
    return outs


def same_bits(got, want):
    """Equal values, equal NaN positions and equal signs of zero."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def random_probs(rng, rows, width, spread=3.0):
    return ref_softmax(rng.normal(scale=spread, size=(rows, width)))


@pytest.mark.parametrize("shape", [(5,), (75, 2), (75, 3), (1500, 2), (4, 3, 5)])
def test_softmax_matches_formula(shape):
    rng = np.random.default_rng(1)
    logits = rng.normal(scale=20.0, size=shape)
    logits.flat[0] = 700.0  # one row dominated by a huge logit
    before = logits.copy()
    assert same_bits(models.softmax(logits), ref_softmax(logits))
    assert same_bits(logits, before)  # the caller's logits are left alone
    ints = rng.integers(-5, 5, size=shape)
    assert same_bits(models.softmax(ints), ref_softmax(ints))


def test_sigmoid_matches_formula():
    tiny = 5e-324
    special = np.array([0.0, -0.0, tiny, -tiny, 800.0, -800.0, 36.0, -36.0, 1e-17, -1e-17])
    rng = np.random.default_rng(2)
    values = np.concatenate([special, rng.normal(scale=8.0, size=997)])
    before = values.copy()
    assert same_bits(losses.sigmoid(values), ref_sigmoid(values))
    assert same_bits(values, before)
    column = rng.normal(size=(75, 1))[..., 0]  # the selection head's raw output
    assert same_bits(losses.sigmoid(column), ref_sigmoid(column))
    assert same_bits(losses.sigmoid(special[::3]), ref_sigmoid(special[::3]))


@pytest.mark.parametrize("beta", [0.0, 0.01])
def test_ce_head_grads_match_formula(beta):
    rng = np.random.default_rng(3)
    for rows, width in ((75, 2), (60, 4), (1, 3)):
        p = random_probs(rng, rows, width, spread=10.0)
        y = rng.integers(0, width, size=rows)
        before = p.copy()
        assert same_bits(losses.ce_entropy_head_grads(p, y, beta), ref_ce_grads(p, y, beta))
        assert same_bits(p, before)


@pytest.mark.parametrize("beta", [0.0, 0.01])
def test_sat_head_grads_match_formula(beta):
    rng = np.random.default_rng(4)
    for rows, classes in ((75, 2), (60, 4)):
        p = random_probs(rng, rows, classes + 1)
        t = rng.dirichlet(np.ones(classes), size=rows)
        y = rng.integers(0, classes, size=rows)
        before = p.copy()
        got = losses.sat_head_grads(p, y, t, beta)
        assert same_bits(got, ref_sat_grads(p, y, t, beta))
        assert same_bits(p, before)


@pytest.mark.parametrize("beta", [0.0, 0.01])
@pytest.mark.parametrize(
    "c_target, g_scale",
    [(0.5, 1.0), (1.0, 1.0), (0.1, 1.0), (0.75, 1e-9)],
    ids=["mid", "full", "low", "coverage_at_floor"],
)
def test_selectivenet_head_grads_match_formula(beta, c_target, g_scale):
    rng = np.random.default_rng(5)
    for rows, classes in ((75, 2), (40, 3)):
        fp = random_probs(rng, rows, classes)
        hp = random_probs(rng, rows, classes)
        g = ref_sigmoid(rng.normal(scale=3.0, size=rows)) * g_scale
        y = rng.integers(0, classes, size=rows)
        copies = [a.copy() for a in (fp, g, hp)]
        got = losses.selectivenet_head_grads(fp, g, hp, y, c_target, 32.0, 0.5, beta)
        want = ref_sn_grads(fp, g, hp, y, c_target, 32.0, 0.5, beta)
        assert all(same_bits(a, b) for a, b in zip(got, want))
        assert all(same_bits(a, b) for a, b in zip((fp, g, hp), copies))


def signed_zero_batch(spec, rng, rows):
    """Random rows plus all-zero and all-minus-zero rows, with some biases at -0.0."""
    x = rng.normal(size=(rows, spec.input_dim))
    x[0] = 0.0
    x[1] = -0.0
    params = init_params(spec, seed=6)
    values = params.values.copy()
    for layer in range(len(spec.hidden_sizes)):
        start, stop, _ = params._slices[f"h{layer}.b"]
        values[start:stop:2] = -0.0
    return params.replace(values), x


def mask_generators(seed):
    """Layer -> a fresh generator, so that a second call redraws the same mask."""
    return lambda layer: np.random.default_rng([seed, layer])


@pytest.mark.parametrize("dropout", [False, True])
def test_hidden_relu_matches_formula(dropout):
    spec = ModelSpec(input_dim=3, num_classes=2, hidden_sizes=(64, 16),
                     dropout_rate=0.3 if dropout else 0.0)
    rng = np.random.default_rng(7)
    params, x = signed_zero_batch(spec, rng, 75)
    for seed in (0, 1):
        masks = mask_generators(seed) if dropout else None
        acts = models._hidden_forward(params, spec, x, masks)[0]
        want = ref_relu_stack(params, spec, x, masks)
        assert len(acts) == len(want) + 1 and acts[0] is x
        assert all(same_bits(a, b) for a, b in zip(acts[1:], want))
        assert not any(np.signbit(a).any() for a in acts[1:])


def test_nan_pre_activation_propagates_through_relu():
    # np.maximum propagates NaN, where np.where(z > 0, z, 0.0) would map it to 0.
    spec = ModelSpec(input_dim=2, num_classes=2, hidden_sizes=(8,))
    params = init_params(spec, seed=0)
    x = np.array([[np.nan, 0.5], [0.25, -0.5]])
    hidden = models._hidden_forward(params, spec, x, None)[0][1]
    assert np.isnan(hidden[0]).all()
    assert not np.isnan(hidden[1]).any()


@pytest.mark.parametrize("scale", [5e-324, 0.8, 1.2, 3.7e5])
def test_step_noise_matches_normal(scale):
    # dpsgd_step draws standard_normal into a buffer and scales it; with an empty batch
    # the step is params - lr * normal(0, sigma c) / 1. At the smallest subnormal scale
    # a negative draw rounds to -0.0, which normal's added mean of 0.0 turns into 0.0.
    spec = ModelSpec(input_dim=3, num_classes=2, hidden_sizes=(16,))
    params = init_params(spec, seed=0)
    x, y, size = np.zeros((0, 3)), np.zeros(0, dtype=np.int64), len(params)
    for seed in range(20):
        noise = np.random.default_rng(seed).normal(0.0, scale, size)
        scaled = np.random.default_rng(seed).standard_normal(size, out=np.empty(size))
        scaled *= scale
        scaled += 0.0
        assert same_bits(scaled, noise)
        want = params.values - 0.5 * (np.zeros(size) + noise / 1)
        for out in (None, np.empty(size)):
            got = trainer.dpsgd_step(params, spec, x, y, losses.cross_entropy_loss(),
                                     clip_norm=scale, sigma=1.0, learning_rate=0.5,
                                     noise_seed=np.random.default_rng(seed), out=out,
                                     noise_out=None if out is None else np.empty(size))
            assert same_bits(got.values, want)
