import itertools

import numpy as np
import pytest

from dpselect.models import ModelSpec, forward, init_params, predict_probs, softmax
from dpselect.rng import STREAM_SCORE, derive_seed
from dpselect.selection import (
    read_scores_csv,
    score_de,
    score_mcdo,
    score_sat,
    score_sctd,
    score_sn,
    score_sr,
    score_sr_of,
    sctd_disagreement_score,
    write_scores_csv,
)
from dpselect.trainer import CheckpointLog


class TestSoftmaxResponse:
    def test_known_values(self):
        np.testing.assert_allclose(
            score_sr([[0.7, 0.3], [0.5, 0.5], [1.0, 0.0]]), [0.3, 0.5, 0.0]
        )

    def test_single_row(self):
        assert score_sr([0.9, 0.1]).shape == (1,)

    def test_renormalized_variant_drops_abstention_mass(self):
        # [0.2, 0.2, 0.6] over two classes renormalizes to [0.5, 0.5]
        np.testing.assert_allclose(
            score_sr_of([[0.2, 0.2, 0.6]], num_classes=2), [0.5]
        )

    def test_renormalized_variant_is_plain_sr_on_full_width(self):
        probs = np.random.default_rng(0).dirichlet(np.ones(3), size=20)
        np.testing.assert_allclose(score_sr_of(probs, 3), score_sr(probs))


class TestMonteCarloDropout:
    def test_zero_rate_degenerates_to_sr(self):
        spec = ModelSpec(input_dim=2, num_classes=3, hidden_sizes=(8,))
        params = init_params(spec, seed=0)
        x = np.random.default_rng(1).normal(size=(6, 2))
        expected = score_sr(predict_probs(params, spec, x))
        for passes in (1, 7):
            got = score_mcdo(params, spec, x, passes=passes, seed=9, dropout_rate=0.0)
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_deterministic_given_seed(self):
        spec = ModelSpec(input_dim=2, num_classes=2, hidden_sizes=(8,), dropout_rate=0.3)
        params = init_params(spec, seed=0)
        x = np.random.default_rng(1).normal(size=(5, 2))
        a = score_mcdo(params, spec, x, passes=10, seed=4)
        np.testing.assert_array_equal(a, score_mcdo(params, spec, x, passes=10, seed=4))
        assert not np.array_equal(a, score_mcdo(params, spec, x, passes=10, seed=5))

    def test_passes_equal_the_per_pass_seeds(self):
        spec = ModelSpec(input_dim=2, num_classes=3, hidden_sizes=(8, 4), dropout_rate=0.3)
        params = init_params(spec, seed=0)
        x = np.random.default_rng(1).normal(size=(5, 2))
        seed = derive_seed(3, 10, 1)
        mean = sum(
            softmax(forward(params, spec, x, dropout_seed=derive_seed(seed, STREAM_SCORE, i)))
            for i in range(6)
        )
        assert np.array_equal(score_mcdo(params, spec, x, passes=6, seed=seed), score_sr(mean / 6))

    def test_rate_override_applies(self):
        spec = ModelSpec(input_dim=2, num_classes=2, hidden_sizes=(8,))
        params = init_params(spec, seed=0)
        x = np.random.default_rng(1).normal(size=(5, 2))
        dry = score_mcdo(params, spec, x, passes=10, seed=4)
        wet = score_mcdo(params, spec, x, passes=10, seed=4, dropout_rate=0.4)
        assert not np.array_equal(dry, wet)

    def test_rejects_zero_passes(self):
        spec = ModelSpec(input_dim=2, num_classes=2)
        with pytest.raises(ValueError):
            score_mcdo(init_params(spec, 0), spec, np.zeros((1, 2)), passes=0, seed=0)


class TestDeepEnsemble:
    def test_averages_members(self):
        members = np.array(
            [
                [[1.0, 0.0], [0.5, 0.5]],
                [[0.0, 1.0], [0.9, 0.1]],
            ]
        )
        np.testing.assert_allclose(score_de(members), [0.5, 1 - 0.7])

    def test_rejects_flat_input(self):
        with pytest.raises(ValueError, match="members"):
            score_de(np.full((4, 2), 0.5))


class TestTrajectoryDisagreement:
    def test_golden_value(self):
        # four checkpoints, cubic late-weighting, flips at the first two
        a = np.array([[1.0], [1.0], [0.0], [0.0]])
        got = sctd_disagreement_score(a, k=3.0)
        np.testing.assert_allclose(got, [(1 / 4) ** 3 + (2 / 4) ** 3])
        assert got[0] == pytest.approx(0.140625)

    def test_weights_rise_toward_final(self):
        T = 6
        singles = [
            sctd_disagreement_score(np.eye(T)[:, [t]], k=3.0)[0] for t in range(T)
        ]
        assert all(b > a for a, b in zip(singles, singles[1:]))
        assert singles[-1] == pytest.approx(1.0)

    def test_every_extra_disagreement_raises_score(self):
        # exhaustive over all 2^4 disagreement patterns
        T = 4
        score = {
            bits: sctd_disagreement_score(np.array(bits, float)[:, None], k=3.0)[0]
            for bits in itertools.product((0, 1), repeat=T)
        }
        for bits, s in score.items():
            for t in range(T):
                if bits[t] == 0:
                    flipped = bits[:t] + (1,) + bits[t + 1 :]
                    assert score[flipped] > s

    def test_log_scoring_ignores_final_row(self):
        # columns: early flip only; never flips; flips at both of t = 1, 2
        preds = np.array(
            [
                [0, 1, 1],
                [1, 1, 1],
                [1, 1, 0],  # final row: self-agreement contributes zero
            ]
        )
        log = CheckpointLog(
            checkpoint_times=np.array([5, 10, 15]),
            predictions=preds,
            final_probs=np.full((3, 2), 0.5),
            eval_set_id="t",
        )
        got = score_sctd(log, k=3.0)
        np.testing.assert_allclose(
            got, [(1 / 3) ** 3, 0.0, (1 / 3) ** 3 + (2 / 3) ** 3]
        )

    def test_settled_trajectory_scores_zero(self):
        preds = np.tile(np.array([0, 1, 0, 1]), (5, 1))
        log = CheckpointLog(
            checkpoint_times=np.arange(1, 6),
            predictions=preds,
            final_probs=np.full((4, 2), 0.5),
            eval_set_id="t",
        )
        np.testing.assert_array_equal(score_sctd(log), np.zeros(4))


class TestHeadScores:
    def test_sat_reads_last_output(self):
        probs = [[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]]
        np.testing.assert_allclose(score_sat(probs), [0.2, 0.8])

    def test_sn_zero_raw_is_half(self):
        np.testing.assert_allclose(score_sn(np.zeros(3)), np.full(3, 0.5))

    def test_sn_confident_selection_scores_low(self):
        raw = np.array([-5.0, 0.0, 5.0])
        s = score_sn(raw)
        assert s[2] < s[1] < s[0]
        assert s[2] < 0.01 and s[0] > 0.99


class TestScoresCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        scores = rng.random(17)
        predicted = rng.integers(0, 3, 17)
        true_labels = rng.integers(0, 3, 17)
        path = tmp_path / "scores.csv"
        write_scores_csv(path, "sctd", scores, predicted, true_labels)
        method, s2, p2, t2 = read_scores_csv(path)
        assert method == "sctd"
        np.testing.assert_array_equal(s2, scores)
        np.testing.assert_array_equal(p2, predicted)
        np.testing.assert_array_equal(t2, true_labels)

    def test_header_written(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores_csv(path, "sr", np.array([0.5]), np.array([1]), np.array([0]))
        first = path.read_text().splitlines()[0]
        assert first == "point_index,method,score,predicted_label,true_label"
