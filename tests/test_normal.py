"""fr3sim.normal against scipy.special, and the truncated-normal quantile
of the stochastic SNS model against its scipy-based predecessor."""

import math
import warnings

import numpy as np
import pytest
from scipy import special

from fr3sim.normal import LOG_1M_EXP_M2, log_ndtr, ndtri, ndtri_exp
from fr3sim.sns import _truncnorm_ppf

N = 100_000


def _apply(f, x):
    return np.array([f(float(v)) for v in x])


def test_ndtri_bit_equal_to_scipy():
    rng = np.random.default_rng(1)
    p = np.concatenate([
        rng.uniform(size=N),
        10.0 ** rng.uniform(-300, 0, N),        # lower tail, past exp(-32)
        1.0 - 10.0 ** rng.uniform(-16, 0, N),   # upper tail
        *[(np.arange(1, m + 1) - 0.5) / m for m in range(1, 400)],
        [0.0, 1.0, 5e-324, 1e-310, 0.5, math.exp(-2), 1.0 - math.exp(-2),
         math.exp(-32), np.nextafter(1.0, 0.0), -1.0, 2.0, np.nan]])
    assert np.array_equal(_apply(ndtri, p), special.ndtri(p), equal_nan=True)


def test_ndtri_exp_bit_equal_to_scipy():
    rng = np.random.default_rng(2)
    y = np.concatenate([
        -(10.0 ** rng.uniform(-17, 5, N)),   # down to -1e5
        rng.uniform(-1e5, 0.0, N),
        rng.uniform(-3.0, 0.0, N),           # the three branches meet here
        rng.uniform(-40.0, -25.0, N),        # sqrt(-2 y) crosses 8 at -32
        [0.0, -2.0, np.nextafter(-2.0, 0.0), LOG_1M_EXP_M2,
         np.nextafter(LOG_1M_EXP_M2, 0.0), -32.0, -1e308, -np.inf, 1.0,
         np.nan]])
    assert np.array_equal(_apply(ndtri_exp, y), special.ndtri_exp(y),
                          equal_nan=True)


def test_log_ndtr_close_to_scipy():
    # scipy goes through erfcx, this through math.erfc and the asymptotic
    # series below x = -37: 5 ulp apart at most for x <= 0.  Above 0 both
    # carry the rounding of x / sqrt(2) into the tiny upper tail, hundreds
    # of ulp apart near x = 35 in a value below 1e-260; where that value
    # leaves the normal range, only an absolute bound holds.
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(-1e3, 40.0, N), rng.uniform(-45, 5, N),
                        np.linspace(-1e3, 40.0, 10_001), [-37.0, 0.0]])
    got, ref = _apply(log_ndtr, x), special.log_ndtr(x)
    err = np.abs(got - ref)
    neg = x <= 0.0
    assert np.all(err[neg] <= 2e-15 * np.abs(ref[neg]))
    assert np.all(err[~neg] <= 1e-12 * np.abs(ref[~neg]) + 1e-300)
    assert log_ndtr(-np.inf) == -np.inf and log_ndtr(np.inf) == 0.0


def _scipy_truncnorm_ppf(q, a, b):
    """sns._truncnorm_ppf as it stood on scipy.special and numpy."""
    log_a, log_b = special.log_ndtr(a), special.log_ndtr(b)
    log_ua, log_ub = special.log_ndtr(-a), special.log_ndtr(-b)
    if a + b < 0:
        log_mass = log_b + np.log1p(-np.exp(log_a - log_b))
    else:
        log_mass = log_ua + np.log1p(-np.exp(log_ub - log_ua))
    lower = np.logaddexp(log_a, np.log(q) + log_mass)
    upper = np.logaddexp(log_ub, np.log1p(-q) + log_mass)
    return special.ndtri_exp(lower) if lower < upper \
        else -special.ndtri_exp(upper)


# the default (mu, sigma) = (0.5, 0.2) interval, both deep tails, one
# interval across the series switch and one wider than any tail
INTERVALS = [(-2.5, 2.5), (-100.0, -99.0), (40.0, 41.0), (-40.0, -38.0),
             (-500.0, 500.0)]


@pytest.mark.parametrize("a, b", INTERVALS)
def test_truncnorm_ppf_matches_scipy_reference(a, b):
    q = np.random.default_rng(int(1000 * abs(a))).uniform(size=10_000)
    got = _apply(lambda v: _truncnorm_ppf(v, a, b), q)
    ref = np.array([_scipy_truncnorm_ppf(v, a, b) for v in q])
    assert np.all(np.abs(got - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))
    assert np.all((got >= a) & (got <= b))


@pytest.mark.parametrize("a, b", INTERVALS)
def test_truncnorm_ppf_ends(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _truncnorm_ppf(0.0, a, b) == a
        assert _truncnorm_ppf(float(np.nextafter(1.0, 0.0)), a, b) <= b
