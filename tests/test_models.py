import functools
import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpselect import losses, models, selection
from dpselect.losses import cross_entropy_loss, sat_loss, selectivenet_loss
from dpselect.models import (
    ModelSpec,
    batch_grad,
    forward,
    init_params,
    load_params,
    per_sample_grad,
    predict,
    predict_probs,
    save_params,
    softmax,
)
from dpselect.rng import STREAM_DROPOUT, generator
from dpselect.trainer import clip_rows


def masks(seed):
    """Layer -> ``generator(seed, STREAM_DROPOUT, layer)``, one dropout seed's masks."""
    return functools.partial(generator, seed, STREAM_DROPOUT)

LINEAR = ModelSpec(input_dim=2, num_classes=2)
MLP = ModelSpec(input_dim=4, num_classes=3, hidden_sizes=(8,))


class TestSpec:
    def test_linear_param_count(self):
        assert LINEAR.param_count == 6  # 2x2 weights + 2 biases

    def test_mlp_param_count(self):
        assert MLP.param_count == 4 * 8 + 8 + 8 * 3 + 3

    def test_abstention_widens_output(self):
        spec = ModelSpec(input_dim=2, num_classes=2, abstention_head=True)
        assert spec.n_outputs == 3

    def test_heads_are_exclusive(self):
        with pytest.raises(ValueError):
            ModelSpec(input_dim=2, num_classes=2, abstention_head=True,
                      selectivenet_heads=True)

    @pytest.mark.parametrize("kwargs, match", [
        ({"input_dim": 0}, "input_dim must be >= 1"),
        ({"num_classes": 1}, "num_classes must be >= 2"),
        ({"hidden_sizes": (8, 0)}, "hidden sizes must be >= 1"),
    ], ids=["input_dim", "num_classes", "hidden_sizes"])
    def test_sizes_are_checked(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ModelSpec(**{"input_dim": 2, "num_classes": 2, **kwargs})

    def test_heads_are_the_output_layers_in_layout_order(self):
        plain = ModelSpec(input_dim=2, num_classes=3, hidden_sizes=(4,))
        assert plain.heads == (("out", 3),)
        assert ModelSpec(input_dim=2, num_classes=3, abstention_head=True).heads == (("out", 4),)
        spec = ModelSpec(input_dim=2, num_classes=3, hidden_sizes=(4,),
                         selectivenet_heads=True)
        assert spec.heads == (("f", 3), ("g", 1), ("h", 3))
        assert spec.layout() == (("h0.W", (4, 2)), ("h0.b", (4,)),
                                 ("f.W", (3, 4)), ("f.b", (3,)), ("g.W", (1, 4)),
                                 ("g.b", (1,)), ("h.W", (3, 4)), ("h.b", (3,)))

    def test_dict_round_trip(self):
        spec = ModelSpec(input_dim=3, num_classes=4, hidden_sizes=(5, 6),
                         dropout_rate=0.1)
        assert ModelSpec(**asdict(spec)) == spec


class TestInit:
    def test_deterministic(self):
        a = init_params(MLP, seed=3)
        b = init_params(MLP, seed=3)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, init_params(MLP, seed=4).values)

    def test_biases_zero_and_weight_scale(self):
        spec = ModelSpec(input_dim=200, num_classes=2, hidden_sizes=(300,))
        params = init_params(spec, seed=0)
        assert np.all(params.view("h0.b") == 0.0)
        assert np.all(params.view("out.b") == 0.0)
        std = params.view("h0.W").std()
        assert std == pytest.approx(np.sqrt(2.0 / 200), rel=0.05)


class TestParamVector:
    def test_views_tile_the_vector_in_layout_order(self):
        params = init_params(MLP, seed=2)
        flat = np.concatenate([params.view(name).ravel() for name, _ in MLP.layout()])
        np.testing.assert_array_equal(flat, params.values)
        for name, shape in MLP.layout():
            assert params.view(name).shape == shape

    def test_replace_keeps_layout_and_checks_size(self):
        params = init_params(MLP, seed=2)
        moved = params.replace(params.values + 1.0)
        np.testing.assert_array_equal(moved.view("out.b"), params.view("out.b") + 1.0)
        with pytest.raises(ValueError):
            params.replace(params.values[:-1])


class TestForward:
    def test_single_matches_batch(self):
        params = init_params(MLP, seed=1)
        x = np.random.default_rng(0).normal(size=(5, 4))
        batch = forward(params, MLP, x)
        single = np.concatenate([forward(params, MLP, x[i:i + 1]) for i in range(len(x))])
        np.testing.assert_allclose(batch, single, atol=1e-15)

    def test_probs_are_simplex(self):
        params = init_params(MLP, seed=1)
        x = np.random.default_rng(0).normal(size=(5, 4))
        p = predict_probs(params, MLP, x)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p >= 0)

    def test_predict_breaks_ties_low(self):
        # zero weights give identical logits for every class
        spec = ModelSpec(input_dim=2, num_classes=3)
        params = init_params(spec, seed=0).replace(np.zeros(spec.param_count))
        assert predict(params, spec, np.array([[1.0, -1.0]])).tolist() == [0]

    def test_dropout_deterministic_given_seed(self):
        spec = ModelSpec(input_dim=4, num_classes=3, hidden_sizes=(16,),
                         dropout_rate=0.5)
        params = init_params(spec, seed=2)
        x = np.random.default_rng(1).normal(size=(6, 4))
        a = forward(params, spec, x, dropout_seed=masks(9))
        b = forward(params, spec, x, dropout_seed=masks(9))
        c = forward(params, spec, x, dropout_seed=masks(10))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        # no seed means the deterministic path, regardless of the rate
        d = forward(params, spec, x)
        e = forward(params, spec, x)
        np.testing.assert_array_equal(d, e)

    def test_integer_dropout_seed_rejected(self):
        # Masks come from generators; only rng turns a seed into a stream.
        spec = ModelSpec(input_dim=2, num_classes=2, hidden_sizes=(3,), dropout_rate=0.5)
        with pytest.raises(TypeError):
            forward(init_params(spec, seed=0), spec, np.ones((2, 2)), dropout_seed=9)

    def test_one_dimensional_input_is_rejected(self):
        # Entry points take (N, d) batches and (N, C) probabilities; a lone point is
        # a 1-row batch, never a 1-D array.
        params = init_params(MLP, seed=1)
        point = np.zeros(4)
        with pytest.raises(ValueError):
            forward(params, MLP, point)
        with pytest.raises(ValueError):
            batch_grad(params, MLP, point, np.array([0]), cross_entropy_loss())
        with pytest.raises(ValueError):
            losses.ce_entropy_head_grads(np.array([0.5, 0.5]), np.array([0]))
        with pytest.raises(ValueError):
            selection.score_sr(np.array([0.9, 0.1]))

    @pytest.mark.parametrize("n", [1, 75, 256])
    @pytest.mark.parametrize("heads", ["plain", "abstention", "selective"])
    def test_one_block_is_the_whole_array_pass(self, heads, n):
        # Up to EVAL_BLOCK_ROWS rows the block loop makes one block, which must be
        # the plain pass of the whole array bit for bit.
        spec = ModelSpec(input_dim=3, num_classes=3, hidden_sizes=(32, 64),
                         abstention_head=heads == "abstention",
                         selectivenet_heads=heads == "selective")
        params = init_params(spec, seed=4)
        x = np.random.default_rng(5).normal(size=(n, 3))
        rep = models._hidden_forward(params, spec, x, None)[0][-1]
        want = [models._dense(params, name, rep) for name, _ in spec.heads]
        got = forward(params, spec, x)
        if heads == "selective":
            got, want[1] = list(got), want[1][:, 0]
        else:
            got = [got]
        assert len(got) == len(want)
        for part, ref in zip(got, want):
            assert part.shape == ref.shape and part.tobytes() == ref.tobytes()

    def test_selectivenet_output_structure(self):
        spec = ModelSpec(input_dim=2, num_classes=2, hidden_sizes=(4,),
                         selectivenet_heads=True)
        params = init_params(spec, seed=0)
        out = forward(params, spec, np.zeros((3, 2)))
        assert out.f_logits.shape == (3, 2)
        assert out.g_raw.shape == (3,)
        assert out.h_logits.shape == (3, 2)

    @pytest.mark.parametrize("heads", ["plain", "abstention", "selective"])
    def test_rows_equal_their_own_block(self, heads):
        # 700 rows make two full blocks and a 188-row tail. OpenBLAS picks its kernel
        # for the narrow heads by the product's size, so with it one 700-row product
        # at these widths differs from the blocks' products in the last bits.
        spec = ModelSpec(input_dim=3, num_classes=3, hidden_sizes=(32, 64),
                         abstention_head=heads == "abstention",
                         selectivenet_heads=heads == "selective")
        params = init_params(spec, seed=4)
        x = np.random.default_rng(5).normal(size=(700, 3))
        whole = forward(params, spec, x)
        parts = whole if heads == "selective" else (whole,)
        assert all(part.shape[0] == 700 for part in parts)
        block = models.EVAL_BLOCK_ROWS
        for start in range(0, 700, block):
            alone = forward(params, spec, x[start:start + block])
            for part, want in zip(parts, alone if heads == "selective" else (alone,)):
                assert part[start:start + block].tobytes() == want.tobytes()

    def test_blocked_dropout_pass_draws_the_whole_pass_masks(self, monkeypatch):
        # 700 rows make two full blocks and a 188-row tail. Each layer's generator is
        # taken once and held across blocks, so the blocks' hidden activations are
        # those of one unblocked pass whose masks come from fresh generators.
        spec = ModelSpec(input_dim=3, num_classes=3, hidden_sizes=(32, 64), dropout_rate=0.3)
        params = init_params(spec, seed=4)
        x = np.random.default_rng(5).normal(size=(700, 3))
        blocks, hidden_forward = [], models._hidden_forward

        def recording(*args, **kwargs):
            acts, scales = hidden_forward(*args, **kwargs)
            blocks.append([a.copy() for a in acts[1:]])
            return acts, scales

        monkeypatch.setattr(models, "_hidden_forward", recording)
        forward(params, spec, x, dropout_seed=masks(9))
        assert [len(b[0]) for b in blocks] == [256, 256, 188]
        whole, _ = hidden_forward(params, spec, x, masks(9))
        for layer in range(2):
            blocked = np.concatenate([b[layer] for b in blocks])
            assert blocked.tobytes() == whole[layer + 1].tobytes()

    def test_predict_memory_is_bounded_by_the_block(self):
        # Whole, the two hidden layers of 20,000 rows alone would take 78 MB.
        spec = ModelSpec(input_dim=2, num_classes=2, hidden_sizes=(256, 256))
        params = init_params(spec, seed=0)
        x = np.random.default_rng(0).normal(size=(20_000, 2))
        tracemalloc.start()
        try:
            labels = predict(params, spec, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert labels.shape == (20_000,)
        assert peak < 4 * 2**20
        # A block's layers are freed before the next block's are computed, so the
        # pass peaks near one block of both layers plus the (N, 2) logits; a block
        # kept alive into the next one would add 1 MiB.
        assert peak < models.EVAL_BLOCK_ROWS * 512 * 8 + 20_000 * 2 * 8 + 2**18


class TestGradients:
    def test_linear_softmax_closed_form(self):
        # for a linear model the CE gradient is (p - onehot) outer x, exactly
        params = init_params(LINEAR, seed=5)
        x = np.array([[0.3, -1.2]])
        y = np.array([1])
        p = predict_probs(params, LINEAR, x)[0]
        rows = per_sample_grad(params, LINEAR, x, y, cross_entropy_loss())
        s = p - np.array([0.0, 1.0])
        expected = np.concatenate([np.outer(s, x[0]).ravel(), s])
        np.testing.assert_array_equal(rows[0], expected)

    def test_batch_grad_is_row_mean(self):
        params = init_params(MLP, seed=6)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(7, 4))
        y = rng.integers(0, 3, size=7)
        rows = per_sample_grad(params, MLP, x, y, cross_entropy_loss(),
                               entropy_beta=0.01)
        total = batch_grad(params, MLP, x, y, cross_entropy_loss(),
                           entropy_beta=0.01)
        np.testing.assert_allclose(rows.mean(axis=0), total, atol=1e-15)

    @pytest.mark.parametrize("case", ["ce", "sat", "sn"])
    def test_per_sample_grads_match_finite_differences(self, case):
        rng = np.random.default_rng(7)
        if case == "ce":
            spec = ModelSpec(input_dim=3, num_classes=3, hidden_sizes=(6,))
            loss = cross_entropy_loss()
        elif case == "sat":
            spec = ModelSpec(input_dim=3, num_classes=3, hidden_sizes=(6,),
                             abstention_head=True)
            loss = sat_loss()
        else:
            spec = ModelSpec(input_dim=3, num_classes=3, hidden_sizes=(6,),
                             selectivenet_heads=True)
            loss = selectivenet_loss(0.6)
        params = init_params(spec, seed=8)
        n = 5
        x = rng.normal(size=(n, 3))
        y = rng.integers(0, 3, size=n)
        targets = None
        if case == "sat":
            targets = rng.dirichlet(np.ones(3), size=n)

        def loss_at(vals):
            p = params.replace(vals)
            if case == "sn":
                out = forward(p, spec, x)
                return losses.training_loss_value(
                    loss,
                    y=y,
                    entropy_beta=0.01,
                    f_probs=softmax(out.f_logits),
                    g_sel=losses.sigmoid(out.g_raw),
                    h_probs=softmax(out.h_logits),
                )
            probs = softmax(forward(p, spec, x))
            return losses.training_loss_value(
                loss, probs=probs, y=y, entropy_beta=0.01, sat_targets=targets
            )

        rows = per_sample_grad(params, spec, x, y, loss,
                               entropy_beta=0.01, sat_targets=targets)
        mean_grad = rows.mean(axis=0)
        h = 1e-5
        for j in rng.choice(spec.param_count, size=12, replace=False):
            up = params.values.copy()
            up[j] += h
            down = params.values.copy()
            down[j] -= h
            fd = (loss_at(up) - loss_at(down)) / (2 * h)
            scale = max(abs(fd), 1e-3)
            assert abs(mean_grad[j] - fd) / scale < 1e-4

    def test_grad_shapes_under_dropout(self):
        spec = ModelSpec(input_dim=3, num_classes=2, hidden_sizes=(5,),
                         dropout_rate=0.4)
        params = init_params(spec, seed=9)
        rows = per_sample_grad(params, spec, np.zeros((4, 3)), np.zeros(4, dtype=int),
                               cross_entropy_loss(), dropout_seed=masks(3))
        assert rows.shape == (4, spec.param_count)


FACTOR_CASES = {
    "linear": (ModelSpec(input_dim=3, num_classes=3), cross_entropy_loss()),
    "dropout_mlp": (
        ModelSpec(input_dim=3, num_classes=3, hidden_sizes=(6, 5), dropout_rate=0.3),
        cross_entropy_loss(),
    ),
    "sat": (
        ModelSpec(input_dim=3, num_classes=3, hidden_sizes=(6,), abstention_head=True),
        sat_loss(),
    ),
    "selective": (
        ModelSpec(input_dim=3, num_classes=3, hidden_sizes=(6,), selectivenet_heads=True),
        selectivenet_loss(0.6),
    ),
}


class TestFactorizedClipping:
    """``batch_grad`` from layer factors against the materialized rows."""

    @staticmethod
    def batch(case):
        spec, loss = FACTOR_CASES[case]
        rng = np.random.default_rng(11)
        n = 9
        kwargs = dict(entropy_beta=0.01, dropout_seed=masks(4) if spec.dropout_rate else None)
        if case == "sat":
            kwargs["sat_targets"] = rng.dirichlet(np.ones(3), size=n)
        # a spread of input scales so that some examples clip and some do not
        x = rng.normal(size=(n, 3)) * np.geomspace(0.1, 10.0, n)[:, None]
        y = rng.integers(0, 3, size=n)
        return init_params(spec, seed=8), spec, x, y, loss, kwargs

    @pytest.mark.parametrize("clip", [1e-2, 1.0, np.inf])
    @pytest.mark.parametrize("case", list(FACTOR_CASES))
    def test_clipped_mean_matches_rows(self, case, clip):
        params, spec, x, y, loss, kwargs = self.batch(case)
        rows = per_sample_grad(params, spec, x, y, loss, **kwargs)
        want = clip_rows(rows, clip).mean(axis=0)
        got = batch_grad(params, spec, x, y, loss, clip_norm=clip, **kwargs)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("case", list(FACTOR_CASES))
    def test_norms_match_rows(self, case):
        params, spec, x, y, loss, kwargs = self.batch(case)
        rows = per_sample_grad(params, spec, x, y, loss, **kwargs)
        factors = models._factors(
            params, spec, x, y, loss, kwargs["entropy_beta"],
            kwargs.get("sat_targets"), kwargs["dropout_seed"],
        )
        np.testing.assert_allclose(
            np.sqrt(models._sq_norms(factors)), np.linalg.norm(rows, axis=1), rtol=1e-12
        )

    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(0, 40),
           kind=st.sampled_from(["cross_entropy", "sat"]),
           clip_norm=st.floats(1e-3, 10.0), scale=st.floats(0.1, 4.0))
    @settings(max_examples=150, deadline=None)
    def test_one_example_moves_the_clipped_sum_by_at_most_c(self, seed, batch, kind, clip_norm,
                                                              scale):
        # DP-SGD's sensitivity: S = B * batch_grad(clip_norm=c) over B examples moves by
        # at most c when one example z is added (as the last row), for every loss whose
        # clipped share of an example depends on that example alone.
        spec = ModelSpec(input_dim=3, num_classes=3, hidden_sizes=(8,),
                         abstention_head=kind == "sat")
        loss = sat_loss() if kind == "sat" else cross_entropy_loss()
        rng = np.random.default_rng(seed)
        params = init_params(spec, seed=0).replace(rng.normal(size=spec.param_count) * scale)
        x = rng.normal(size=(batch + 1, 3)) * rng.uniform(0.1, 30.0)
        y = rng.integers(0, 3, size=batch + 1)
        targets = rng.dirichlet(np.ones(3), size=batch + 1)

        def clipped_sum(n):
            kwargs = {"sat_targets": targets[:n]} if kind == "sat" else {}
            grad = batch_grad(params, spec, x[:n], y[:n], loss, entropy_beta=0.01,
                              clip_norm=clip_norm, **kwargs)
            return n * grad

        moved = np.linalg.norm(clipped_sum(batch + 1) - clipped_sum(batch))
        assert moved <= clip_norm * (1 + 1e-9)

    @pytest.mark.parametrize("heads, loss, match", [
        ("selective", cross_entropy_loss(), "cross_entropy loss cannot train selective heads"),
        ("abstention", sat_loss(), "sat loss needs per-example targets"),
    ], ids=["ce_on_selective_heads", "sat_without_targets"])
    def test_loss_must_fit_the_heads(self, heads, loss, match):
        spec = ModelSpec(input_dim=3, num_classes=2, hidden_sizes=(4,),
                         abstention_head=heads == "abstention",
                         selectivenet_heads=heads == "selective")
        with pytest.raises(ValueError, match=match):
            batch_grad(init_params(spec, seed=0), spec, np.zeros((2, 3)),
                       np.zeros(2, dtype=int), loss)

    def test_empty_batch_and_bad_clip(self):
        params, spec, _, _, loss, _ = self.batch("linear")
        empty = batch_grad(params, spec, np.zeros((0, 3)), np.zeros(0, dtype=int), loss,
                           clip_norm=1.0)
        np.testing.assert_array_equal(empty, np.zeros(spec.param_count))
        for clip_norm in (0.0, math.nan):
            with pytest.raises(ValueError, match="clip_norm must be positive"):
                batch_grad(params, spec, np.zeros((1, 3)), np.zeros(1, dtype=int), loss,
                           clip_norm=clip_norm)


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        params = init_params(MLP, seed=10)
        path = tmp_path / "params.json"
        save_params(params, MLP, path)
        loaded, spec = load_params(path)
        assert spec == MLP
        np.testing.assert_array_equal(loaded.values, params.values)

    def test_golden_bytes(self, tmp_path):
        spec = ModelSpec(input_dim=1, num_classes=2)
        save_params(init_params(spec, seed=0), spec, tmp_path / "params.json")
        assert (tmp_path / "params.json").read_bytes() == (
            b'{"format": "dpselect-params", "version": 1, "spec": {"input_dim": 1, '
            b'"num_classes": 2, "hidden_sizes": [], "abstention_head": false, '
            b'"selectivenet_heads": false, "dropout_rate": 0.0}, "layout": [["out.W", [2, 1]], '
            b'["out.b", [2]]], "values": [1.1385684507554432, -2.704060077435391, 0.0, 0.0]}'
        )

    @pytest.mark.parametrize("change, match", [
        ({"version": 2}, "unsupported checkpoint version 2"),
        ({"layout": [["out.W", [3, 4]], ["out.b", [3]]]},
         "checkpoint layout does not match its model spec"),
    ], ids=["version", "layout"])
    def test_rejects_a_changed_header(self, tmp_path, change, match):
        path = tmp_path / "params.json"
        save_params(init_params(MLP, seed=10), MLP, path)
        path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
        with pytest.raises(ValueError, match=match):
            load_params(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_params(path)
