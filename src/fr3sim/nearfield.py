"""Spherical-wave source distances and element-wise phase/angle updates.

The spherical form is applied to every link unconditionally; it degenerates
to the plane-wave case as the source distance grows, so no near/far
switching boundary exists.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import unit_to_angles
from .largescale import C_LIGHT

TABLE_SIZE = 64   # exp(j 2 pi k / 64) rotates the reduced phase
BLOCK = 8192      # elements per block, so that the scratch stays in cache
_ANGLES = np.arange(TABLE_SIZE) * (2.0 * np.pi / TABLE_SIZE)
_TWIDDLE = np.cos(_ANGLES) + 1j * np.sin(_ANGLES)


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


def nlos_element_phase(d, r_hat, d_bar, lam0):
    """Spherical-wave element phase exp(j 2 pi (d - ||d r_hat - d_bar||) / lam).

    d: (R,) source distances; r_hat: (R, 3) ray unit vectors; d_bar: (K, 3)
    element offsets.  Returns (K, R) complex factors of unit magnitude.

    The excess d - ||d r_hat - d_bar|| is evaluated in the cancellation-free
    form (2 d (r_hat . d_bar) - |d_bar|^2) / (d + dist), which is both exact
    and avoids (K, R, 3) temporaries.  It is divided by lam into turns for
    ``unit_phase``'s kernel, over blocks of rows of about BLOCK elements,
    so that no float temporary is larger than one block.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("source distance must be positive")
    d_bar = np.asarray(d_bar, dtype=float)
    r_t = np.asarray(r_hat, dtype=float).T
    sq = np.sum(d_bar ** 2, axis=1)[:, None]
    n_k, n_r = d_bar.shape[0], d.shape[0]
    out = np.empty((n_k, n_r), dtype=complex)
    rows = max(1, BLOCK // max(n_r, 1))
    proj_ws, dist_ws = np.empty((2, min(rows, n_k), n_r))
    ws = _workspace(proj_ws.size)
    for lo in range(0, n_k, rows):
        hi = min(lo + rows, n_k)
        proj = np.matmul(d_bar[lo:hi], r_t, out=proj_ws[:hi - lo])
        proj *= 2.0 * d                                      # 2 d proj
        dist = np.subtract(d ** 2, proj, out=dist_ws[:hi - lo])
        dist += sq[lo:hi]
        np.maximum(dist, 0.0, out=dist)
        np.sqrt(dist, out=dist)
        dist += d                                            # d + dist
        proj -= sq[lo:hi]
        proj /= dist                                         # the excess
        proj /= lam0
        _phase_into(proj.reshape(-1), out[lo:hi].reshape(-1), ws)
    return out


def unit_phase(turns):
    """exp(j 2 pi t) of phases t given in turns, of any shape.

    With k = rint(64 t), the reduced turn u = t - k/64 is exact (Sterbenz)
    and |2 pi u| <= pi/64, so cos and sin take their fast path on it; the
    result is rotated by the table entry exp(j 2 pi (k mod 64) / 64).
    Integer turns give exactly 1.
    """
    t = np.asarray(turns, dtype=float)
    out = np.empty(t.shape, dtype=complex)
    _phase_into(t.reshape(-1), out.reshape(-1), _workspace(t.size))
    return out


def _workspace(n):
    """Scratch of ``_phase_into`` for inputs of up to n elements."""
    b = min(n, BLOCK)
    return (*np.empty((2, b), dtype=complex), np.empty(b, dtype=np.intp))


def _phase_into(t, out, ws):
    """out = exp(j 2 pi t) for flat turns t, BLOCK elements at a time; u
    and k live in the output block until the last product overwrites it."""
    for lo in range(0, t.size, BLOCK):
        x, o = t[lo:lo + BLOCK], out[lo:lo + BLOCK]
        z, w, i = (a[:x.size] for a in ws)
        u, k = o.view(float).reshape(2, -1)
        np.multiply(x, TABLE_SIZE, out=u)                    # exact
        np.rint(u, out=k)
        u -= k                                               # 64 t - k, exact
        u *= 2.0 * np.pi / TABLE_SIZE                        # 2 pi (t - k/64)
        np.cos(u, out=z.real)
        np.sin(u, out=z.imag)
        np.copyto(i, k, casting="unsafe")
        i &= TABLE_SIZE - 1
        _TWIDDLE.take(i, out=w, mode="clip")                 # i is in range
        np.multiply(z, w, out=o)


def element_wise_angles(sources, positions):
    """(azimuth, zenith) in degrees of each element-to-source direction.

    Broadcasts over (..., 3): (K, 3) elements against one (3,) source give
    (K,) angles; (K, 1, 3) elements against (R, 3) sources give (K, R).
    Raises ValueError for a source on an element (unit_to_angles' 0/0 NaN).
    """
    with np.errstate(invalid="ignore"):
        zen, az = unit_to_angles(np.subtract(sources, positions))
    if np.isnan(zen).any():
        raise ValueError("source point coincides with an element")
    return az, zen
