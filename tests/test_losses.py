import math

import numpy as np
import pytest

from dpselect import losses
from dpselect.losses import (
    LossSpec,
    ce_entropy_head_grads,
    cross_entropy_loss,
    entropy,
    loss_ce_entropy,
    loss_sat,
    loss_selectivenet,
    sat_head_grads,
    sat_loss,
    sat_update_targets,
    selectivenet_head_grads,
    selectivenet_loss,
    sigmoid,
)


class TestSpecValidation:
    def test_kinds(self):
        assert cross_entropy_loss().kind == "cross_entropy"
        assert sat_loss().momentum == 0.9
        assert selectivenet_loss(0.5).lam == 32.0
        with pytest.raises(ValueError):
            LossSpec(kind="focal")
        with pytest.raises(ValueError):
            LossSpec(kind="sat", momentum=1.0)
        with pytest.raises(ValueError):
            LossSpec(kind="selectivenet", c_target=0.0)


class TestElementary:
    def test_sigmoid_stable_at_extremes(self):
        assert sigmoid(np.array([800.0]))[0] == 1.0
        assert sigmoid(np.array([-800.0]))[0] == pytest.approx(0.0, abs=1e-300)
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_entropy_uniform(self):
        assert entropy(np.full(4, 0.25)) == pytest.approx(math.log(4), abs=1e-12)
        assert entropy(np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-10)


class TestCrossEntropy:
    def test_onehot_zero_loss(self):
        assert loss_ce_entropy(np.array([[0.0, 1.0]]), [1]) == pytest.approx(0.0, abs=1e-10)

    def test_uniform_binary_is_ln2(self):
        assert loss_ce_entropy(np.array([[0.5, 0.5]]), [0]) == pytest.approx(math.log(2))

    def test_entropy_bonus_shifts_by_exact_amount(self):
        p = np.array([[0.7, 0.2, 0.1], [0.4, 0.5, 0.1]])
        y = [0, 1]
        base = loss_ce_entropy(p, y, beta=0.0)
        shifted = loss_ce_entropy(p, y, beta=0.03)
        # independent entropy computation
        h = -np.sum(p * np.log(p), axis=1).mean()
        assert shifted == pytest.approx(base - 0.03 * h, abs=1e-12)

    def test_head_grad_is_probs_minus_onehot(self):
        p = np.array([[0.6, 0.3, 0.1]])
        g = ce_entropy_head_grads(p, [1])
        np.testing.assert_allclose(g, [[0.6, -0.7, 0.1]], atol=1e-12)


class TestSat:
    def test_confident_target_is_plain_ce(self):
        p = np.array([[0.6, 0.3, 0.1]])  # C = 2 plus abstention column
        t = np.array([[1.0, 0.0]])
        assert loss_sat(p, [0], t) == pytest.approx(-math.log(0.6), abs=1e-12)

    def test_zero_target_penalizes_abstention_only(self):
        p = np.array([[0.6, 0.3, 0.1]])
        t = np.array([[0.0, 1.0]])
        assert loss_sat(p, [0], t) == pytest.approx(-math.log(0.1), abs=1e-12)

    def test_target_update_frozen_during_burn_in(self):
        t = np.array([[1.0, 0.0]])
        p = np.array([[0.5, 0.5]])
        out = sat_update_targets(t, p, momentum=0.9, epoch=0, burn_in_epochs=2)
        np.testing.assert_array_equal(out, t)

    def test_target_update_is_ema(self):
        t = np.array([[1.0, 0.0]])
        p = np.array([[0.5, 0.5]])
        out = sat_update_targets(t, p, momentum=0.9, epoch=5, burn_in_epochs=2)
        np.testing.assert_allclose(out, [[0.95, 0.05]], atol=1e-15)
        assert out.sum() == pytest.approx(1.0)

    def test_target_update_checks_shapes(self):
        with pytest.raises(ValueError, match=r"probs shape \(1, 3\) != targets shape \(1, 2\)"):
            sat_update_targets(np.array([[1.0, 0.0]]), np.full((1, 3), 1 / 3), momentum=0.9,
                               epoch=5, burn_in_epochs=2)

    def test_head_grad_rows_sum_to_entropy_term(self):
        # weights sum to one, so at beta = 0 each gradient row sums to zero
        p = np.array([[0.5, 0.2, 0.3], [0.1, 0.6, 0.3]])
        t = np.array([[0.8, 0.1], [0.3, 0.7]])
        g = sat_head_grads(p, [0, 1], t)
        np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-12)


class TestSelectiveNet:
    def test_full_selection_no_penalty(self):
        f = np.array([[0.8, 0.2], [0.6, 0.4]])
        h = np.array([[0.7, 0.3], [0.5, 0.5]])
        g = np.ones(2)
        got = loss_selectivenet(f, g, h, [0, 0], c_target=0.5, lam=32.0, alpha=0.5)
        ce_f = -np.log([0.8, 0.6]).mean()
        ce_h = -np.log([0.7, 0.5]).mean()
        assert got == pytest.approx(0.5 * ce_f + 0.5 * ce_h, abs=1e-12)

    def test_zero_selection_pays_full_penalty(self):
        f = np.array([[0.8, 0.2]])
        h = np.array([[0.7, 0.3]])
        g = np.zeros(1)
        got = loss_selectivenet(f, g, h, [0], c_target=0.5, lam=32.0, alpha=0.5)
        # selective term vanishes; the quadratic shortfall charge remains
        assert got == pytest.approx(0.5 * 32.0 * 0.25 + 0.5 * (-math.log(0.7)), abs=1e-9)

    def test_per_example_contributions_average_to_batch_grad(self):
        rng = np.random.default_rng(0)
        n, c = 6, 3
        f_logits = rng.normal(size=(n, c))
        g_raw = rng.normal(size=n)
        h_logits = rng.normal(size=(n, c))
        y = rng.integers(0, c, size=n)

        def batch_loss(fl, gr, hl):
            fp = np.exp(fl) / np.exp(fl).sum(axis=1, keepdims=True)
            hp = np.exp(hl) / np.exp(hl).sum(axis=1, keepdims=True)
            return loss_selectivenet(fp, sigmoid(gr), hp, y, 0.7, 32.0, 0.5)

        fp = np.exp(f_logits) / np.exp(f_logits).sum(axis=1, keepdims=True)
        hp = np.exp(h_logits) / np.exp(h_logits).sum(axis=1, keepdims=True)
        s_f, s_raw, s_h = selectivenet_head_grads(fp, sigmoid(g_raw), hp, y, 0.7)

        eps = 1e-6
        for arr, grad, name in ((f_logits, s_f, "f"), (h_logits, s_h, "h")):
            i, j = 2, 1
            up = arr.copy()
            up[i, j] += eps
            down = arr.copy()
            down[i, j] -= eps
            if name == "f":
                fd = (batch_loss(up, g_raw, h_logits) - batch_loss(down, g_raw, h_logits)) / (2 * eps)
            else:
                fd = (batch_loss(f_logits, g_raw, up) - batch_loss(f_logits, g_raw, down)) / (2 * eps)
            assert grad[i, j] / n == pytest.approx(fd, abs=1e-7)
        up = g_raw.copy()
        up[3] += eps
        down = g_raw.copy()
        down[3] -= eps
        fd = (batch_loss(f_logits, up, h_logits) - batch_loss(f_logits, down, h_logits)) / (2 * eps)
        assert s_raw[3] / n == pytest.approx(fd, abs=1e-7)
