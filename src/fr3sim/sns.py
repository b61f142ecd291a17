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


def blocker_attenuation(blocker, p_tx, p_rx, lam0, l_max_db=40.0):
    """Knife-edge diffraction loss in dB past one blocker, per path.

    ``p_tx`` and ``p_rx`` are (..., 3) end points that broadcast against
    each other, so (S, 1, 3) elements and (1, R, 3) sources give (S, R)
    losses.  L = -20 log10(1 - (F_h1 + F_h2)(F_w1 + F_w2)) with edge terms
    from the top/bottom and side screen edges, each signed by the side of
    its edge that the path crosses (TR 38.901 blockage model B), so that
    L >= 0 and a path beside the screen loses little.  A path has 0 dB
    when its closest approach to the screen center lies outside the segment
    between its end points, or when it is vertical; a non-positive log
    argument clamps at ``l_max_db``.
    """
    tx, rx = np.broadcast_arrays(np.asarray(p_tx, dtype=float),
                                 np.asarray(p_rx, dtype=float))
    c = np.asarray(blocker.center, dtype=float)
    link = rx - tx
    r2 = np.sum(link * link, axis=-1)
    r = np.sqrt(r2)
    # the screen's horizontal axis is orthogonal to the path (none when the
    # path is vertical); the path is blocked where its closest approach to
    # the screen center lies between the end points
    flat = np.hypot(link[..., 0], link[..., 1])
    ok = flat > 1e-12 * r
    flat, r2 = np.where(ok, flat, 1.0), np.where(ok, r2, 1.0)
    horiz = np.stack([link[..., 1], -link[..., 0], np.zeros_like(r)],
                     axis=-1) / flat[..., None]
    tpar = np.sum((c - tx) * link, axis=-1) / r2
    hit = ok & (tpar > 0.0) & (tpar < 1.0)
    # an edge term is positive when the crossing point lies on the screen's
    # side of that edge (shadowed by it) and negative beyond it, so a path
    # beside the screen gets F_near < F_far and a small positive sum
    cross = tx + tpar[..., None] * link
    x_h = np.sum((cross - c) * horiz, axis=-1)
    x_v = cross[..., 2] - c[2]
    hh, hw = blocker.height / 2.0, blocker.width / 2.0
    up = np.array([0.0, 0.0, hh])
    side = horiz * hw
    edges = np.stack(np.broadcast_arrays(c + up, c - up, c - side, c + side))
    excess = np.maximum(np.linalg.norm(edges - tx, axis=-1)
                        + np.linalg.norm(rx - edges, axis=-1) - r, 0.0)
    shadowed = np.stack([x_v <= hh, x_v >= -hh, x_h >= -hw, x_h <= hw])
    sign = np.where(shadowed, 1.0, -1.0)
    f = np.arctan(sign * 0.5 * np.pi * np.sqrt(np.pi * excess / lam0)) / np.pi
    product = np.where(hit, (f[0] + f[1]) * (f[2] + f[3]), 0.0)
    return np.where(hit, knife_edge_loss_db(product, l_max_db), 0.0)[()]


def knife_edge_loss_db(fresnel_product, l_max_db=40.0):
    """L = -20 log10(1 - product) per element, clamped at l_max_db where the
    argument of the logarithm is non-positive (one warning per call)."""
    arg = 1.0 - np.asarray(fresnel_product, dtype=float)
    clamped = arg <= 0.0
    if np.any(clamped):
        warnings.warn("knife-edge Fresnel product >= 1; loss clamped")
    loss = -20.0 * np.log10(np.where(clamped, 1.0, arg))
    return np.where(clamped, l_max_db, np.minimum(loss, l_max_db))[()]


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
