"""Spherical-wave source distances and element-wise phase/angle updates.

The spherical form is applied to every link unconditionally; it degenerates
to the plane-wave case as the source distance grows, so no near/far
switching boundary exists.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import unit_to_angles
from .largescale import C_LIGHT


@dataclass
class NearFieldGeometry:
    s_bs: np.ndarray      # (N,) BS-side scaling factors, 1 for specular
    d1: np.ndarray        # (N, M) BS to spherical-wave source [m]
    d2: np.ndarray        # (N, M) UE to spherical-wave source [m]


def source_distances(cs, d3d, delta_tau, n_spec, alpha, beta, rng):
    """Per-ray spherical-wave source distances.

    The total path length of ray m in cluster n is d3D + tau * c + dtau * c,
    with the sub-cluster delays used for the two strongest clusters.  The
    BS-side scaling factor s_BS is drawn once per cluster: unity for the
    n_spec earliest-delay (specular) clusters, Beta(alpha, beta) otherwise.
    Non-specular rays split the total as d1 = s * total, d2 = (1 - s) *
    total; specular rays use d1 = d2 = total (mirror-image source).
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("Beta distribution parameters must be positive")
    n, m = cs.n, cs.m
    s_bs = np.ones(n)
    if n > n_spec:
        s_bs[n_spec:] = rng.beta(alpha, beta, size=n - n_spec)
    tau_ray = np.empty((n, m))
    for delay, rays, _power in cs.taps():
        tau_ray.flat[rays] = delay
    total = d3d + tau_ray * C_LIGHT + delta_tau * C_LIGHT
    spec = np.arange(n) < n_spec
    d1 = np.where(spec[:, None], total, s_bs[:, None] * total)
    d2 = np.where(spec[:, None], total, (1.0 - s_bs[:, None]) * total)
    return NearFieldGeometry(s_bs=s_bs, d1=d1, d2=d2)


def los_element_phase(pair_distance, lam0):
    """Direct-path element phase exp(-j 2 pi |r| / lam) from exact
    element-pair distances |r|."""
    pair = np.asarray(pair_distance, dtype=float)
    return np.exp(-2j * np.pi * pair / lam0)


def nlos_element_phase(d, r_hat, d_bar, lam0):
    """Spherical-wave element phase exp(j 2 pi (d - ||d r_hat - d_bar||) / lam).

    d: (R,) source distances; r_hat: (R, 3) ray unit vectors; d_bar: (K, 3)
    element offsets.  Returns (K, R) complex factors of unit magnitude.

    The excess d - ||d r_hat - d_bar|| is evaluated in the cancellation-free
    form (2 d (r_hat . d_bar) - |d_bar|^2) / (d + dist), which is both exact
    and avoids (K, R, 3) temporaries.  The (K, R) steps run in place.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("source distance must be positive")
    d_bar = np.asarray(d_bar, dtype=float)
    proj = d_bar @ np.asarray(r_hat, dtype=float).T          # (K, R)
    sq = np.sum(d_bar ** 2, axis=1)[:, None]
    proj *= 2.0 * d[None, :]                                 # 2 d proj
    dist = d[None, :] ** 2 - proj
    dist += sq
    np.maximum(dist, 0.0, out=dist)
    np.sqrt(dist, out=dist)
    dist += d[None, :]                                       # d + dist
    proj -= sq
    proj /= dist                                             # the excess
    proj *= 2.0 * np.pi
    proj /= lam0
    return unit_phase(proj)


def unit_phase(phase_rad):
    """exp(j phase) assembled from cos/sin (faster than complex exp)."""
    phase_rad = np.asarray(phase_rad, dtype=float)
    out = np.empty(phase_rad.shape, dtype=complex)
    out.real = np.cos(phase_rad)
    out.imag = np.sin(phase_rad)
    return out


def element_wise_angles(sources, element_positions):
    """(azimuth, zenith) in degrees of each element-to-source direction.

    Broadcasts over (..., 3): (K, 3) elements against one (3,) source give
    (K,) angles; (K, 1, 3) elements against (R, 3) sources give (K, R).
    Raises ValueError for a source on an element (unit_to_angles' 0/0 NaN).
    """
    with np.errstate(invalid="ignore"):
        zen, az = unit_to_angles(np.subtract(sources, element_positions))
    if np.isnan(zen).any():
        raise ValueError("source point coincides with an element")
    return az, zen
