"""The standard-normal kernels of the run path against scipy.special: the
log CDF and its Newton inverse in fr3sim.sns, the quantile offset basis of
fr3sim.smallscale, and the truncated-normal quantile of the stochastic SNS
model against its scipy-based predecessor."""

import math
import warnings

import numpy as np
import pytest
from scipy import special

from fr3sim.smallscale import ray_offset_basis
from fr3sim.sns import _ndtri_exp, _truncnorm_ppf, log_ndtr

N = 100_000
LOG_HALF = math.log(0.5)


def _apply(f, x):
    return np.array([f(float(v)) for v in x])


def _ndtri_exp_ref(y):
    """scipy's ndtri_exp polished by one Newton step on its log_ndtr.
    Unpolished it is itself up to 1.2e-15 * |x| off the exact root on
    the inputs of the (-100, -99) interval below.  The slope phi / Phi
    goes through erfcx, so it keeps its bits where x * x is large."""
    x = special.ndtri_exp(y)
    with np.errstate(invalid="ignore", divide="ignore"):
        slope = math.sqrt(2.0 / math.pi) / special.erfcx(-x / math.sqrt(2.0))
        return np.where(np.isfinite(x), x - (special.log_ndtr(x) - y) / slope, x)


def test_ndtri_exp_close_to_polished_scipy():
    # the lighter tail only: _truncnorm_ppf inverts log Phi(x) <= log 1/2
    rng = np.random.default_rng(2)
    y = np.concatenate([
        -(10.0 ** rng.uniform(-17, 5, N)),   # down to -1e5
        rng.uniform(-1e5, 0.0, N),
        rng.uniform(-3.0, 0.0, N),
        rng.uniform(-40.0, -25.0, N),
        rng.uniform(-710.0, -690.0, N),      # the two starting points meet
        [LOG_HALF, -2.0, np.nextafter(-2.0, 0.0), -32.0, -700.0,
         np.nextafter(-700.0, 0.0), np.nextafter(-700.0, -np.inf), -1e308,
         -np.inf, np.nan]])
    y = y[~(y > LOG_HALF)]
    got, ref = _apply(_ndtri_exp, y), _ndtri_exp_ref(y)
    fin = np.isfinite(ref)
    assert np.array_equal(got[~fin], ref[~fin], equal_nan=True)
    got, ref = got[fin], ref[fin]
    assert np.all(np.abs(got - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))


def test_ray_offset_basis_close_to_scipy_quantiles():
    for m in range(1, 400):
        if m == 20:
            continue
        q = special.ndtri((np.arange(1, m + 1) - 0.5) / m)
        rms = np.sqrt(np.mean(q ** 2))
        ref = q / rms if rms > 0 else q
        got = ray_offset_basis(m)
        assert np.all(np.abs(got - ref) <= 8 * np.spacing(np.abs(ref))), m


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
    """sns._truncnorm_ppf as it stood on scipy.special and numpy, with the
    polished inverse."""
    log_a, log_b = special.log_ndtr(a), special.log_ndtr(b)
    log_ua, log_ub = special.log_ndtr(-a), special.log_ndtr(-b)
    if a + b < 0:
        log_mass = log_b + np.log1p(-np.exp(log_a - log_b))
    else:
        log_mass = log_ua + np.log1p(-np.exp(log_ub - log_ua))
    lower = np.logaddexp(log_a, np.log(q) + log_mass)
    upper = np.logaddexp(log_ub, np.log1p(-q) + log_mass)
    return _ndtri_exp_ref(lower) if lower < upper else -_ndtri_exp_ref(upper)


# the default (mu, sigma) = (0.5, 0.2) interval, both deep tails, one
# interval across the series switch of log_ndtr, one across the switch of
# _ndtri_exp's starting point and one wider than any tail
INTERVALS = [(-2.5, 2.5), (-100.0, -99.0), (40.0, 41.0), (-40.0, -38.0),
             (-38.0, -36.0), (-500.0, 500.0)]


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
