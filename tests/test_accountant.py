import json
import math
import re
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, asdict

import mpmath
import numpy as np
import pytest

from dpselect import accountant
from dpselect.accountant import (
    INTEGER_ORDERS,
    CalibrationError,
    PrivacyReport,
    RdpCurve,
    account,
    calibrate_sigma,
    compose,
    gaussian_curve,
    rdp_gaussian,
    rdp_subsampled_gaussian,
    rdp_to_dp,
    split_budget,
    subsampled_gaussian_curve,
)


def mp_subsampled_rdp(q, sigma, alpha):
    """High-precision reference for the integer-order subsampled bound."""
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for k in range(alpha + 1):
            total += (
                mpmath.binomial(alpha, k)
                * mpmath.mpf(1 - q) ** (alpha - k)
                * mpmath.mpf(q) ** k
                * mpmath.e ** (mpmath.mpf(k * (k - 1)) / (2 * sigma**2))
            )
        return float(mpmath.log(total) / (alpha - 1))


class TestGaussianRdp:
    def test_closed_form(self):
        assert rdp_gaussian(2.0, 8.0) == pytest.approx(1.0, abs=1e-15)
        assert rdp_gaussian(0.0, 4.0) == math.inf

    def test_full_sampling_reduces_to_gaussian(self):
        for alpha in range(2, 65):
            got = rdp_subsampled_gaussian(1.0, 1.7, alpha)
            assert got == pytest.approx(rdp_gaussian(1.7, alpha), abs=1e-9)


class TestSubsampledRdp:
    def test_matches_high_precision_reference(self):
        for q, sigma, alpha in [(0.01, 1.0, 2), (0.05, 0.8, 2), (0.02, 2.0, 16),
                                (0.1, 1.5, 32), (0.001, 0.6, 64)]:
            got = rdp_subsampled_gaussian(q, sigma, alpha)
            assert got == pytest.approx(mp_subsampled_rdp(q, sigma, alpha), rel=1e-6)

    def test_order_two_closed_form(self):
        q, sigma = 0.01, 1.2
        expected = math.log(1 - q * q + q * q * math.exp(1.0 / sigma**2))
        assert rdp_subsampled_gaussian(q, sigma, 2) == pytest.approx(expected, abs=1e-12)

    def test_edge_cases(self):
        assert rdp_subsampled_gaussian(0.0, 1.0, 4) == 0.0
        assert rdp_subsampled_gaussian(0.3, 0.0, 4) == math.inf

    def test_monotone_in_arguments(self):
        base = rdp_subsampled_gaussian(0.02, 1.0, 8)
        assert rdp_subsampled_gaussian(0.04, 1.0, 8) > base
        assert rdp_subsampled_gaussian(0.02, 2.0, 8) < base
        assert rdp_subsampled_gaussian(0.02, 1.0, 16) > base


def outcome(compute):
    """The values ``compute()`` returns, or its exception's type and text, with
    warnings raised as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.asarray(compute()).tobytes()
        except Exception as exc:
            return type(exc), str(exc)


class TestVectorizedCurve:
    """The per-order loop must reproduce the scalar reference bit for bit."""

    # The last four rates and the sigmas 1e-3 and 1e6 are the extremes: log
    # terms up to 3e10 (sigma 1e-3), log q or log(1 - q) down to -35.
    @pytest.mark.parametrize("q", [1e-3, 0.01, 0.05, 0.1, 0.5, 0.9,
                                   1e-12, 1e-6, 1 - 1e-12, 1 - 1e-15])
    def test_equals_scalar_reference(self, q):
        for sigma in [1e-3, 0.3, 0.5, 1.0, 1.2, 5.0, 100.0, 1e6]:
            expected = outcome(lambda: [rdp_subsampled_gaussian(q, sigma, a)
                                        for a in INTEGER_ORDERS])
            got = outcome(lambda: subsampled_gaussian_curve(q, sigma).values)
            assert got == expected, (q, sigma)
            if isinstance(expected, bytes):  # no exception: each value has its order
                curve = subsampled_gaussian_curve(q, sigma)
                assert np.array_equal(curve.orders, INTEGER_ORDERS), (q, sigma)

    def test_edge_cases(self):
        assert np.array_equal(subsampled_gaussian_curve(0.0, 1.0).values,
                              np.zeros(len(INTEGER_ORDERS)))
        with pytest.raises(ValueError, match="no finite RDP value"):
            subsampled_gaussian_curve(0.3, 0.0)

    def test_memory_is_bounded_by_one_row(self):
        # The whole (255 x 257) term matrix and its temporaries took 2.57 MB,
        # and its blocks of 16 orders 0.27 MB; one curve now holds a few rows
        # of 257 floats.
        tracemalloc.start()
        try:
            curve = subsampled_gaussian_curve(0.05, 1.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert curve.values.shape == (len(INTEGER_ORDERS),)
        assert peak < 2**16


class TestConversion:
    def test_compose_scales_values(self):
        curve = subsampled_gaussian_curve(0.01, 1.0)
        tenfold = compose(curve, 10)
        np.testing.assert_allclose(tenfold.values, 10 * np.asarray(curve.values))

    def test_rdp_to_dp_minimizes_over_orders(self):
        curve = RdpCurve(orders=(2.0, 4.0, 8.0), values=(0.5, 0.3, 0.4))
        delta = 1e-5
        eps, order = rdp_to_dp(curve, delta)
        by_hand = min(v + math.log(1 / delta) / (a - 1)
                      for a, v in zip(curve.orders, curve.values))
        assert eps == pytest.approx(by_hand, abs=1e-12)
        assert order in curve.orders

    def test_account_degenerate(self):
        assert account(1.0, 0.01, 0, 1e-5).epsilon == 0.0
        assert account(0.0, 0.01, 10, 1e-5).epsilon == math.inf

    def test_gaussian_curve_has_fractional_orders(self):
        curve = gaussian_curve(1.0)
        assert 1.25 in curve.orders and 2 in curve.orders


class TestArgumentChecks:
    @pytest.mark.parametrize("fn, args, match", [
        (RdpCurve, ((2.0, 3.0), (0.1,)), "orders and values must be matching 1-D arrays"),
        (RdpCurve, ((1.0, 2.0), (0.1, 0.2)), "Renyi orders must exceed 1"),
        (rdp_gaussian, (1.0, 1.0), "order must exceed 1"),
        (rdp_gaussian, (-1.0, 2.0), "sigma must be >= 0"),
        (rdp_gaussian, (math.nan, 2.0), "sigma must be >= 0"),
        (rdp_subsampled_gaussian, (1.5, 1.0, 2), r"sampling rate must be in \[0, 1\]"),
        (rdp_subsampled_gaussian, (0.1, -1.0, 2), "sigma must be >= 0"),
        (rdp_subsampled_gaussian, (0.1, math.nan, 2), "sigma must be >= 0"),
        (rdp_subsampled_gaussian, (0.1, 1.0, 2.5), "integer order >= 2"),
        (subsampled_gaussian_curve, (-0.1, 1.0), r"sampling rate must be in \[0, 1\]"),
        (subsampled_gaussian_curve, (0.1, -1.0), "sigma must be >= 0"),
        (subsampled_gaussian_curve, (0.1, math.nan), "sigma must be >= 0"),
        (compose, (gaussian_curve(1.0), -1), "steps must be >= 0"),
        (rdp_to_dp, (gaussian_curve(1.0), 1.0), r"delta must be in \(0, 1\)"),
        (split_budget, (3.0, 1e-5, 0, 0.02, 400), "n_runs must be >= 1"),
    ], ids=["curve_shapes", "curve_orders", "gaussian_order", "gaussian_sigma",
            "gaussian_nan_sigma", "subsampled_q", "subsampled_sigma", "subsampled_nan_sigma",
            "subsampled_order", "vector_curve_q", "vector_curve_sigma",
            "vector_curve_nan_sigma", "compose_steps", "to_dp_delta", "split_runs"])
    def test_rejected(self, fn, args, match):
        with pytest.raises(ValueError, match=match):
            fn(*args)


class TestCalibration:
    @pytest.mark.parametrize("eps", [1.0, 3.0, 7.0])
    def test_round_trip_lands_in_band(self, eps):
        sigma = calibrate_sigma(eps, 1e-5, 0.01, 10_000)
        realized = account(sigma, 0.01, 10_000, 1e-5).epsilon
        assert 0.999 * eps <= realized <= eps

    def test_unreachable_target_raises(self):
        with pytest.raises(CalibrationError):
            calibrate_sigma(0.001, 1e-7, 0.5, 100_000)

    def test_overshoot_returns_lower_edge(self):
        # one cheap step: even the smallest allowed noise stays under target
        sigma = calibrate_sigma(50.0, 1e-5, 0.001, 1)
        assert sigma == 0.3

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            calibrate_sigma(math.inf, 1e-5, 0.01, 100)

    def test_bisection_that_never_lands_raises(self, monkeypatch):
        # Below sigma = 2 the stub spends twice the target, from 2 on half of it, so
        # no probe lands in [target * (1 - CALIBRATION_RTOL), target].
        def jumping(sigma, q, steps, delta):
            return PrivacyReport(6.0 if sigma < 2.0 else 1.5, delta, sigma, q, steps)

        monkeypatch.setattr(accountant, "account", jumping)
        with pytest.raises(CalibrationError, match=re.escape(
                "bisection failed to land in [2.997, 3] within bracket [0.3, 100.0]")):
            calibrate_sigma(3.0, 1e-5, 0.01, 100)


class TestCache:
    def test_typed_reports_keep_caller_types(self):
        args = (0.05, 400, 1e-5)
        as_float = account(1.0, *args)
        as_int = account(1, *args)
        for sigma, report in [(1.0, as_float), (1, as_int)]:
            fresh = account.__wrapped__(sigma, *args)
            assert json.dumps(asdict(report)) == json.dumps(asdict(fresh))
        assert '"sigma": 1,' in json.dumps(asdict(as_int))
        assert '"sigma": 1.0,' in json.dumps(asdict(as_float))

    def test_repeat_call_is_a_hit(self):
        first = account(1.3, 0.02, 700, 1e-5)
        hits = account.cache_info().hits
        assert account(1.3, 0.02, 700, 1e-5) is first
        assert account.cache_info().hits == hits + 1

    def test_repeat_calibration_adds_no_account_misses(self):
        first = calibrate_sigma(3.0, 1e-5, 0.05, 400)
        misses = account.cache_info().misses
        assert calibrate_sigma(3.0, 1e-5, 0.05, 400) == first
        assert account.cache_info().misses == misses

    def test_unreachable_target_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(CalibrationError):
                calibrate_sigma(0.001, 1e-7, 0.5, 100_000)

    def test_cached_report_is_immutable(self):
        report = account(0.9, 0.05, 400, 1e-5)
        with pytest.raises(FrozenInstanceError):
            report.epsilon = 0.0
        assert account(0.9, 0.05, 400, 1e-5).epsilon == report.epsilon


class TestBudgetSplit:
    def test_total_certifies_target(self):
        bs = split_budget(3.0, 1e-5, 5, 0.02, 400)
        assert bs.total.epsilon <= 3.0
        assert bs.total.epsilon >= 0.999 * 3.0
        assert bs.per_run.sigma == bs.sigma == bs.total.sigma

    def test_per_run_bounded_by_equal_share_and_total(self):
        # Composition is additive in the RDP domain but the dp conversion
        # charge is paid once per report, so the per-run figure sits strictly
        # between an equal share of the total and the total itself.
        for eps, m in [(7.0, 5), (1.0, 5), (3.0, 2), (7.0, 10)]:
            bs = split_budget(eps, 1e-5, m, 0.02, 400)
            assert bs.total.epsilon / m <= bs.per_run.epsilon <= bs.total.epsilon
            assert bs.heuristic_epsilon == pytest.approx(eps / math.sqrt(m))

    def test_single_run_split_is_plain_calibration(self):
        bs = split_budget(3.0, 1e-5, 1, 0.02, 400)
        assert bs.per_run.epsilon == bs.total.epsilon
