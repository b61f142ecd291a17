"""Spatial non-stationarity: BS-side visibility regions, UE-side grip/head
masks."""

import math
import warnings
from dataclasses import dataclass

import numpy as np

USAGES = ("one-hand", "two-hand", "head-hand", "free")
MASK_BANDS = (("lt1", 0.0, 1.0), ("1to8p4", 1.0, 8.4), ("14p5to15p5", 14.5, 15.5))
HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
LOG_NDTR_SERIES_BELOW = -37.0    # Phi(x) stays a normal double above it


@dataclass
class SnsConfig:
    """Stochastic-model parameters.

    All numeric defaults are placeholders pending calibrated tables; the
    functional forms are fixed.
    """
    pr_mu: float = 0.5        # SNS probability: truncated normal on [0, 1]
    pr_sigma: float = 0.2
    vp_a: float = 0.7         # visibility probability V = A exp(.) + B + xi
    vp_r_db: float = 10.0
    vp_b: float = 0.3
    vp_sigma: float = 0.05
    rolloff: float = 4.0      # attenuation exponent C outside the VR
    usage_probs: tuple = (0.3, 0.2, 0.2, 0.3)  # order matches USAGES


@dataclass
class VisibilityRegion:
    center_y: float
    center_z: float
    width: float     # a, along the array's horizontal axis
    height: float    # b, along the vertical axis
    v: float         # visibility probability

    @property
    def diagonal(self):
        return float(np.hypot(self.width, self.height))


def log_ndtr(x):
    """log Phi(x)."""
    t = x / math.sqrt(2.0)
    if x > 0.0:
        return math.log1p(-math.erfc(t) / 2.0)
    if x > LOG_NDTR_SERIES_BELOW:
        return math.log(math.erfc(-t) / 2.0)
    # Phi(x) = phi(x)/(-x) (1 - 1/x^2 + 3/x^4 - 15/x^6 + ...)
    r, term, acc, k = 1.0 / (x * x), 1.0, 1.0, 1
    while abs(term) > 1e-17:
        term *= -(2 * k - 1) * r
        acc += term
        k += 1
    return -0.5 * x * x - math.log(-x) - HALF_LOG_2PI + math.log(acc)


def _ndtri_exp(y):
    """x with log Phi(x) = y, for y <= log(1/2).

    Newton steps on the concave log_ndtr, from the quantile of exp(y) while
    that is a normal double and from -sqrt(-2 y) below.  The slope
    phi / Phi comes from log_ndtr too, except where x * x leaves it no
    bits; there it is -x to within 1 / x^2.  The farthest start, 3e-3
    relative off near y = -700, converges in three steps.
    """
    from statistics import NormalDist    # not loaded by `import fr3sim`
    if y == -math.inf:
        return -math.inf
    x = NormalDist().inv_cdf(math.exp(y)) if y > -700.0 \
        else -math.sqrt(2.0) * math.sqrt(-y)
    for _ in range(4):
        log_p = log_ndtr(x)
        slope = math.exp(-log_p - 0.5 * x * x - HALF_LOG_2PI) \
            if x > -1e4 else -x
        x -= (log_p - y) / slope
    return x


def _truncnorm_ppf(q, a, b):
    """Inverse CDF at ``q`` of the standard normal truncated to [a, b].

    Works in log space and inverts through the lighter of the two tails at
    the result, so that deep-tail intervals keep full precision.  ``q = 0``
    gives ``a``.
    """
    if q == 0.0:
        return a
    log_a, log_b = log_ndtr(a), log_ndtr(b)        # log Phi at the ends
    log_ua, log_ub = log_ndtr(-a), log_ndtr(-b)    # log (1 - Phi) at the ends
    if a + b < 0:                                  # log(Phi(b) - Phi(a))
        log_mass = log_b + np.log1p(-np.exp(log_a - log_b))
    else:
        log_mass = log_ua + np.log1p(-np.exp(log_ub - log_ua))
    lower = np.logaddexp(log_a, np.log(q) + log_mass)       # log Phi(x)
    upper = np.logaddexp(log_ub, np.log1p(-q) + log_mass)   # log(1 - Phi(x))
    return _ndtri_exp(lower) if lower < upper else -_ndtri_exp(upper)


def draw_sns_status(n, cfg, rng):
    """Per-cluster SNS flags.

    Pr_sns is drawn once (per UE) from a normal truncated to [0, 1] via its
    inverse CDF; cluster n is non-stationary iff x_n < Pr_sns with
    x_n ~ Unif(0, 1).
    """
    a = (0.0 - cfg.pr_mu) / cfg.pr_sigma
    b = (1.0 - cfg.pr_mu) / cfg.pr_sigma
    pr = float(cfg.pr_mu + cfg.pr_sigma * _truncnorm_ppf(rng.uniform(), a, b))
    x = rng.uniform(size=n)
    return x < pr, pr


def visibility_region(p_db, max_p_db, cfg, width, height, rng):
    """Rectangular visibility region on the array plane.

    V_n = A exp(-(maxP - P)/R) + B + xi, clamped to [max(B, 0.05), 1].
    Width a ~ U(V W, W), height b = V H W / a (area identity a b = V W H
    exact); the center is drawn uniformly over positions keeping the
    rectangle inside the array.
    """
    if width <= 0 or height <= 0:
        raise ValueError("array dimensions must be positive")
    xi = rng.normal(0.0, cfg.vp_sigma)
    v = cfg.vp_a * np.exp(-(max_p_db - p_db) / cfg.vp_r_db) + cfg.vp_b + xi
    v = float(np.clip(v, max(cfg.vp_b, 0.05), 1.0))
    a = rng.uniform(v * width, width)
    b = v * height * width / a
    cy = rng.uniform(-(width - a) / 2.0, (width - a) / 2.0) if a < width else 0.0
    cz = rng.uniform(-(height - b) / 2.0, (height - b) / 2.0) if b < height else 0.0
    return VisibilityRegion(cy, cz, a, b, v)


def element_attenuation(vr, cfg, element_yz):
    """Linear power attenuation per element for one SNS cluster.

    Unity inside the rectangle; exp(-C d / D) outside, with d the Euclidean
    distance to the nearest rectangle boundary and D the VR diagonal.
    """
    if vr.diagonal == 0:
        raise ValueError("degenerate visibility region")
    yz = np.atleast_2d(np.asarray(element_yz, dtype=float))
    dy = np.maximum(np.abs(yz[:, 0] - vr.center_y) - vr.width / 2.0, 0.0)
    dz = np.maximum(np.abs(yz[:, 1] - vr.center_z) - vr.height / 2.0, 0.0)
    d = np.hypot(dy, dz)
    return np.exp(-cfg.rolloff * d / vr.diagonal)


def stochastic_attenuation(cluster_p_db, cfg, element_yz, rng):
    """alpha[p, n] for all clusters n of a link (stochastic model), with one
    row per BS element site p of ``element_yz``, as ``synthesize`` takes it.

    Stationary clusters contribute unity.  Draw order per link: SNS status,
    then per non-stationary cluster (VP noise, width, center).
    """
    flags, _pr = draw_sns_status(cluster_p_db.shape[0], cfg, rng)
    yz = np.atleast_2d(np.asarray(element_yz, dtype=float))
    width = yz[:, 0].max() - yz[:, 0].min()
    height = yz[:, 1].max() - yz[:, 1].min()
    width = max(width, 1e-6)
    height = max(height, 1e-6)
    max_p = cluster_p_db.max()
    alpha = np.ones((yz.shape[0], cluster_p_db.shape[0]))
    for n in np.flatnonzero(flags):
        vr = visibility_region(cluster_p_db[n], max_p, cfg, width, height, rng)
        alpha[:, n] = element_attenuation(vr, cfg, yz)
    return alpha


def draw_usage(cfg, rng):
    """Pick a UE usage scenario from the configured probabilities."""
    u = rng.uniform()
    acc = 0.0
    for usage, p in zip(USAGES, cfg.usage_probs):
        acc += p
        if u < acc:
            return usage
    return USAGES[-1]


def ue_sns_mask(masks, usage, fc_ghz, site_index):
    """Per-element linear attenuation from the mask tables.

    ``masks`` maps (usage, band) to 8 per-candidate dB values; ``site_index``
    maps elements to candidate locations, which are a UE's sites.  Frequencies
    outside the configured bands fall back to the nearest band with a
    warning.  Free-space usage is all-ones.
    """
    if usage == "free":
        return np.ones(np.asarray(site_index).shape[0])
    band = None
    for name, lo, hi in MASK_BANDS:
        if lo <= fc_ghz <= hi:
            band = name
            break
    if band is None:
        dist = [(min(abs(fc_ghz - lo), abs(fc_ghz - hi)), name)
                for name, lo, hi in MASK_BANDS]
        band = min(dist)[1]
        warnings.warn(f"fc={fc_ghz} GHz outside mask bands; using {band}")
    table_db = masks[(usage, band)]
    idx = np.asarray(site_index)
    bad = idx[(idx < 0) | (idx >= table_db.size)]
    if bad.size:
        raise ValueError(f"candidate index {bad[0]} outside the "
                         f"{table_db.size}-value {usage!r} mask")
    return 10.0 ** (-table_db[idx] / 10.0)
