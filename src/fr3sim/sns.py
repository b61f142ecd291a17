"""Spatial non-stationarity: BS-side visibility regions and knife-edge
blockers, UE-side grip/head masks."""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtri_exp

USAGES = ("one-hand", "two-hand", "head-hand", "free")
MASK_BANDS = (("lt1", 0.0, 1.0), ("1to8p4", 1.0, 8.4), ("14p5to15p5", 14.5, 15.5))


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
    l_max_db: float = 40.0    # knife-edge clamp when the log argument <= 0


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


def _truncnorm_ppf(q, a, b):
    """Inverse CDF at ``q`` of the standard normal truncated to [a, b].

    Works in log space and inverts through the lighter of the two tails at
    the result, so that deep-tail intervals keep full precision.
    """
    log_a, log_b = log_ndtr(a), log_ndtr(b)        # log Phi at the ends
    log_ua, log_ub = log_ndtr(-a), log_ndtr(-b)    # log (1 - Phi) at the ends
    if a + b < 0:                                  # log(Phi(b) - Phi(a))
        log_mass = log_b + np.log1p(-np.exp(log_a - log_b))
    else:
        log_mass = log_ua + np.log1p(-np.exp(log_ub - log_ua))
    lower = np.logaddexp(log_a, np.log(q) + log_mass)       # log Phi(x)
    upper = np.logaddexp(log_ub, np.log1p(-q) + log_mass)   # log(1 - Phi(x))
    return ndtri_exp(lower) if lower < upper else -ndtri_exp(upper)


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
    """alpha[s, n] for all clusters of a link (stochastic model).

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


@dataclass
class Blocker:
    """Vertical rectangular screen for the knife-edge model."""
    center: np.ndarray   # (3,)
    width: float         # horizontal extent [m]
    height: float        # vertical extent [m]


def _fresnel_term(d1, d2, r, lam0, blocked):
    """Knife-edge F term: atan(+/- pi/2 sqrt(pi (D1 + D2 - r) / lam)) / pi."""
    excess = max(d1 + d2 - r, 0.0)
    sign = 1.0 if blocked else -1.0
    return np.arctan(sign * 0.5 * np.pi * np.sqrt(np.pi * excess / lam0)) / np.pi


def blocker_attenuation(blocker, p_tx, p_rx, lam0, l_max_db=40.0):
    """Knife-edge diffraction loss in dB for one path past one blocker.

    L = -20 log10(1 - (F_h1 + F_h2)(F_w1 + F_w2)) with edge terms from the
    top/bottom and side screen edges.  Paths whose projection misses the
    screen plane segment return 0 dB; a non-positive log argument clamps at
    ``l_max_db``.
    """
    tx = np.asarray(p_tx, dtype=float)
    rx = np.asarray(p_rx, dtype=float)
    c = np.asarray(blocker.center, dtype=float)
    link = rx - tx
    r = np.linalg.norm(link)
    # parametric point of closest approach of the path to the screen center
    tpar = np.dot(c - tx, link) / np.dot(link, link)
    if not (0.0 < tpar < 1.0):
        return 0.0
    # screen axes: vertical and the horizontal direction orthogonal to the path
    up = np.array([0.0, 0.0, 1.0])
    horiz = np.cross(link / r, up)
    nh = np.linalg.norm(horiz)
    if nh < 1e-12:
        return 0.0
    horiz = horiz / nh

    def edge_f(edge_point, blocked_side):
        d1 = np.linalg.norm(edge_point - tx)
        d2 = np.linalg.norm(rx - edge_point)
        return _fresnel_term(d1, d2, r, lam0, blocked_side)

    # the direct ray is blocked in a dimension when its crossing point lies
    # within the screen extent in that dimension
    cross = tx + tpar * link
    in_h = abs(np.dot(cross - c, horiz)) <= blocker.width / 2.0
    in_v = abs(cross[2] - c[2]) <= blocker.height / 2.0
    top = c + up * blocker.height / 2.0
    bot = c - up * blocker.height / 2.0
    left = c - horiz * blocker.width / 2.0
    right = c + horiz * blocker.width / 2.0
    f_h1 = edge_f(top, in_v)
    f_h2 = edge_f(bot, in_v)
    f_w1 = edge_f(left, in_h)
    f_w2 = edge_f(right, in_h)
    return knife_edge_loss_db((f_h1 + f_h2) * (f_w1 + f_w2), l_max_db)


def knife_edge_loss_db(fresnel_product, l_max_db=40.0):
    """L = -20 log10(1 - product), clamped at l_max_db when the argument of
    the logarithm is non-positive."""
    arg = 1.0 - fresnel_product
    if arg <= 0.0:
        warnings.warn("knife-edge Fresnel product >= 1; loss clamped")
        return float(l_max_db)
    return float(min(-20.0 * np.log10(arg), l_max_db))


def draw_usage(cfg, rng):
    """Pick a UE usage scenario from the configured probabilities."""
    u = rng.uniform()
    acc = 0.0
    for usage, p in zip(USAGES, cfg.usage_probs):
        acc += p
        if u < acc:
            return usage
    return USAGES[-1]


def ue_sns_mask(masks, usage, fc_ghz, candidate_index):
    """Per-element linear attenuation from the mask tables.

    ``masks`` maps (usage, band) to 8 per-candidate dB values;
    ``candidate_index`` maps elements to candidate locations.  Frequencies
    outside the configured bands fall back to the nearest band with a
    warning.  Free-space usage is all-ones.
    """
    if usage == "free":
        return np.ones(np.asarray(candidate_index).shape[0])
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
    idx = np.asarray(candidate_index)
    if np.any(idx >= table_db.size):
        raise ValueError(f"candidate index {idx.max()} outside the "
                         f"{table_db.size}-value {usage!r} mask")
    att_db = np.where(idx >= 0, table_db[np.maximum(idx, 0)], 0.0)
    return 10.0 ** (-att_db / 10.0)
