"""Renyi differential privacy accounting for subsampled Gaussian mechanisms.

The Gaussian mechanism with noise multiplier ``sigma`` satisfies
``rdp(alpha) = alpha / (2 sigma^2)``. Under Poisson subsampling at rate ``q``
the standard integer-order upper bound is

    rdp(alpha) = log( sum_{k=0}^{alpha} C(alpha, k) (1-q)^(alpha-k) q^k
                      * exp(k (k-1) / (2 sigma^2)) ) / (alpha - 1)

evaluated here entirely in log space (log-gamma binomials plus log-sum-exp),
so large orders and tiny rates neither overflow nor underflow. Composition
over steps is additive per order, and the conversion to (epsilon, delta)
takes the minimum of ``rdp(alpha) + log(1/delta) / (alpha - 1)`` over the
order grid.

Order grid: integers 2..256. The closed-form Gaussian curve (``q = 1``) also
carries the fractional orders 1.25, 1.5, 1.75, which sharpen the conversion
in low-noise regimes; the subsampled bound is only valid at integer orders,
so those are dropped whenever ``q < 1``.

:func:`subsampled_gaussian_curve` evaluates the orders one at a time, each
bit for bit as the scalar reference :func:`rdp_subsampled_gaussian` does.
Only :func:`account` is memoized, per process on its scalar arguments in a
bounded, typed LRU cache that holds frozen :class:`PrivacyReport`
instances. :func:`calibrate_sigma` is a
deterministic bisection over :func:`account`, so a repeated calibration
(``base`` and ``sat`` in a cell, every seed with the same dataset size)
walks the same noise levels and gets only cache hits, and the
re-accounting of each ensemble member costs one dictionary lookup.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

FRACTIONAL_ORDERS = (1.25, 1.5, 1.75)
INTEGER_ORDERS = tuple(range(2, 257))
SIGMA_BRACKET = (0.3, 100.0)
CALIBRATION_RTOL = 1e-3
# Entries kept by the per-process cache of ``account``. One calibration adds
# a few dozen entries (one per bisection step).
ACCOUNT_CACHE_SIZE = 4096


class CalibrationError(ValueError):
    """Noise calibration cannot meet the target within the sigma bracket."""


@dataclass(frozen=True)
class RdpCurve:
    """Renyi divergence bound per order, for one mechanism invocation or many."""

    orders: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        orders = np.asarray(self.orders, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if orders.shape != values.shape or orders.ndim != 1 or orders.size == 0:
            raise ValueError("orders and values must be matching 1-D arrays")
        if np.any(orders <= 1.0):
            raise ValueError("Renyi orders must exceed 1")
        keep = np.isfinite(values)
        if not keep.any():
            raise ValueError("no finite RDP value at any order")
        object.__setattr__(self, "orders", orders[keep])
        object.__setattr__(self, "values", values[keep])


@dataclass(frozen=True)
class PrivacyReport:
    epsilon: float
    delta: float
    sigma: float
    sampling_rate: float
    steps: int
    optimal_order: float | None = None


def rdp_gaussian(sigma: float, alpha: float) -> float:
    """Closed-form Gaussian RDP, valid at any order above 1."""
    if alpha <= 1.0:
        raise ValueError("order must exceed 1")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0.0:
        return math.inf
    return alpha / (2.0 * sigma**2)


def rdp_subsampled_gaussian(q: float, sigma: float, alpha: int) -> float:
    """Integer-order upper bound for the Poisson-subsampled Gaussian."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("sampling rate must be in [0, 1]")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if float(alpha) != int(alpha) or alpha < 2:
        raise ValueError("subsampled bound requires an integer order >= 2")
    alpha = int(alpha)
    if q == 0.0:
        return 0.0
    if sigma == 0.0:
        return math.inf
    if q == 1.0:
        return rdp_gaussian(sigma, alpha)
    # log of C(alpha, k) q^k (1-q)^(alpha-k) exp(k(k-1) / (2 sigma^2)),
    # accumulated with log-sum-exp over k = 0..alpha.
    k = np.arange(alpha + 1, dtype=np.float64)
    log_binom = (
        math.lgamma(alpha + 1)
        - np.array([math.lgamma(v + 1) + math.lgamma(alpha - v + 1) for v in k])
    )
    log_terms = (
        log_binom
        + k * math.log(q)
        + (alpha - k) * math.log1p(-q)
        + k * (k - 1.0) / (2.0 * sigma**2)
    )
    peak = np.max(log_terms)
    total = peak + math.log(np.sum(np.exp(log_terms - peak)))
    return float(total / (alpha - 1.0))


def gaussian_curve(sigma: float) -> RdpCurve:
    orders = np.asarray(FRACTIONAL_ORDERS + INTEGER_ORDERS, dtype=np.float64)
    return RdpCurve(orders, np.array([rdp_gaussian(sigma, a) for a in orders]))


# ``log(m!)`` for ``m = 0..256``, from ``math.lgamma`` like the scalar path.
_LOG_FACTORIAL = np.array([math.lgamma(m + 1) for m in range(max(INTEGER_ORDERS) + 1)])
_LOG_FACTORIAL.setflags(write=False)


def subsampled_gaussian_curve(q: float, sigma: float) -> RdpCurve:
    """Per-step RDP curve; falls back to the closed form when ``q = 1``.

    Each order ``alpha`` computes its own ``alpha + 1`` terms in place, in the
    scalar reference's operation order, so every value equals
    :func:`rdp_subsampled_gaussian` bit for bit. The rows over ``k = 0..256``
    that all orders read (``(alpha - k) log(1 - q)`` backwards) are built once.
    """
    if q == 1.0:
        return gaussian_curve(sigma)
    if not 0.0 <= q <= 1.0:
        raise ValueError("sampling rate must be in [0, 1]")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    orders = np.asarray(INTEGER_ORDERS, dtype=np.float64)
    if q == 0.0:
        return RdpCurve(orders, np.zeros_like(orders))
    if sigma == 0.0:
        return RdpCurve(orders, np.full_like(orders, math.inf))
    k = np.arange(_LOG_FACTORIAL.size, dtype=np.float64)
    k_log_q, k_log_1mq = k * math.log(q), k * math.log1p(-q)
    gauss = k * (k - 1.0) / (2.0 * sigma**2)
    values, log_terms = np.empty_like(orders), np.empty_like(k)
    for i, alpha in enumerate(INTEGER_ORDERS):
        terms, rest = slice(alpha + 1), slice(alpha, None, -1)  # k and alpha - k
        row = log_terms[terms]
        np.add(_LOG_FACTORIAL[terms], _LOG_FACTORIAL[rest], out=row)
        np.subtract(_LOG_FACTORIAL[alpha], row, out=row)
        row += k_log_q[terms]
        row += k_log_1mq[rest]
        row += gauss[terms]
        peak = row.max()
        row -= peak
        values[i] = (peak + math.log(np.exp(row, out=row).sum())) / (alpha - 1.0)
    return RdpCurve(orders, values)


def compose(curve: RdpCurve, steps: int) -> RdpCurve:
    """Adaptive composition of ``steps`` identical mechanisms (per-order sum)."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    return RdpCurve(curve.orders, curve.values * steps)


def rdp_to_dp(curve: RdpCurve, delta: float) -> tuple[float, float]:
    """Best (epsilon, order) over the curve at the given delta."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    eps = curve.values + math.log(1.0 / delta) / (curve.orders - 1.0)
    best = int(np.argmin(eps))
    return float(eps[best]), float(curve.orders[best])


@functools.lru_cache(maxsize=ACCOUNT_CACHE_SIZE, typed=True)
def account(
    sigma: float, q: float, steps: int, delta: float
) -> PrivacyReport:
    """Realized privacy of ``steps`` subsampled Gaussian steps at rate ``q``.

    Memoized per process; the cache is typed, so a report always carries the
    caller's own argument types (``1`` and ``1.0`` are cached apart).
    """
    if steps == 0 or q == 0.0:
        return PrivacyReport(0.0, delta, sigma, q, steps, None)
    if sigma == 0.0:
        return PrivacyReport(math.inf, delta, sigma, q, steps, None)
    curve = compose(subsampled_gaussian_curve(q, sigma), steps)
    epsilon, order = rdp_to_dp(curve, delta)
    return PrivacyReport(epsilon, delta, sigma, q, steps, order)


def calibrate_sigma(eps_target: float, delta: float, q: float, steps: int) -> float:
    """Smallest noise multiplier in ``SIGMA_BRACKET`` meeting ``eps_target``.

    Bisects on sigma (epsilon is decreasing in sigma) until the realized
    epsilon lands in ``[eps_target * (1 - CALIBRATION_RTOL), eps_target]``;
    the realized value never exceeds the target. If even the lower bracket
    edge spends less than the target, that edge is returned as-is, leaving
    budget on the table rather than extrapolating below the bound's
    validated range. Every probe goes through the memoized :func:`account`.
    """
    if not math.isfinite(eps_target) or eps_target <= 0:
        raise ValueError("eps_target must be finite and positive")
    lo, hi = SIGMA_BRACKET
    if account(lo, q, steps, delta).epsilon <= eps_target:
        return lo
    eps_hi = account(hi, q, steps, delta).epsilon
    if eps_hi > eps_target:
        raise CalibrationError(
            f"epsilon target {eps_target} unreachable: sigma={hi} (bracket top) "
            f"still spends {eps_hi:.6g}; bracket was [{lo}, {hi}]"
        )
    for _ in range(200):
        if eps_hi >= eps_target * (1.0 - CALIBRATION_RTOL):
            return hi
        mid = math.sqrt(lo * hi)
        if account(mid, q, steps, delta).epsilon > eps_target:
            lo = mid
        else:
            hi = mid
            eps_hi = account(hi, q, steps, delta).epsilon
    raise CalibrationError(
        f"bisection failed to land in [{eps_target * (1 - CALIBRATION_RTOL):.6g}, "
        f"{eps_target:.6g}] within bracket [{SIGMA_BRACKET[0]}, {SIGMA_BRACKET[1]}]"
    )


@dataclass(frozen=True)
class BudgetSplit:
    """One noise level shared by ``n_runs`` runs under a joint budget.

    ``total`` accounts all runs as one composition of ``n_runs * steps_each``
    mechanisms, which is what actually certifies the budget. ``per_run``
    reports a single run in isolation, evaluated at the same delta as the
    total (so ``per_run.epsilon >= total.epsilon / n_runs`` always holds).
    ``heuristic_epsilon`` is the commonly quoted ``eps_total / sqrt(n_runs)``
    per-run figure, kept for reference only; the joint account is tighter.
    """

    sigma: float
    n_runs: int
    total: PrivacyReport
    per_run: PrivacyReport
    heuristic_epsilon: float


def split_budget(
    eps_total: float,
    delta_total: float,
    n_runs: int,
    q: float,
    steps_each: int,
) -> BudgetSplit:
    """Calibrate one sigma so the joint account of all runs meets the budget."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    sigma = calibrate_sigma(eps_total, delta_total, q, n_runs * steps_each)
    total = account(sigma, q, n_runs * steps_each, delta_total)
    per_run = account(sigma, q, steps_each, delta_total)
    return BudgetSplit(
        sigma=sigma,
        n_runs=n_runs,
        total=total,
        per_run=per_run,
        heuristic_epsilon=eps_total / math.sqrt(n_runs),
    )
