"""Channel coefficient synthesis: random phases, ray-count scaling,
sub-cluster expansion, Doppler, absolute delay, and large-scale application.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .antenna import field_pattern
from .geometry import sph_unit, unit_to_angles
from .largescale import C_LIGHT
from .nearfield import los_element_phase, nlos_element_phase, unit_phase


@dataclass
class RayCountConfig:
    bandwidth_hz: float
    d_h: float            # horizontal array size [m]
    d_v: float            # vertical array size [m]
    c_ds: float           # cluster delay spread [s]
    c_asd: float          # cluster departure azimuth spread [deg]
    c_zsd: float          # cluster departure zenith spread [deg]
    wavelength: float     # [m]
    k: float = 0.5
    m_min: int = 20
    m_max: int = 40


def ray_count(cfg):
    """Resolvable ray count for large bandwidth / large arrays.

    Returns (M, M_t, M_AOD, M_ZOD) with
    M = min(max(M_t * M_AOD * M_ZOD, M_min), M_max).
    """
    if cfg.bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    if cfg.m_min > cfg.m_max:
        raise ValueError("m_min must not exceed m_max")
    m_t = int(np.ceil(4.0 * cfg.k * cfg.c_ds * cfg.bandwidth_hz))
    m_aod = int(np.ceil(4.0 * cfg.k * cfg.c_asd * np.pi * cfg.d_h
                        / (180.0 * cfg.wavelength)))
    m_zod = int(np.ceil(4.0 * cfg.k * cfg.c_zsd * np.pi * cfg.d_v
                        / (180.0 * cfg.wavelength)))
    m = min(max(m_t * m_aod * m_zod, cfg.m_min), cfg.m_max)
    return m, m_t, m_aod, m_zod


def draw_phases(n, m, rng):
    """Initial random phases, i.i.d. uniform on (-pi, pi), per ray and
    polarization component (order tt, tp, pt, pp)."""
    return rng.uniform(-np.pi, np.pi, size=(n, m, 4))


def draw_absolute_excess(sc, rng, l_bound=None):
    """Log-normal NLOS excess delay; optionally clamped to 2 L / c (the
    clamp is monotone in the underlying normal)."""
    mu, sigma, _ = sc.abs_delay_params()
    dt = 10.0 ** rng.normal(mu, sigma)
    if l_bound is not None:
        dt = min(dt, 2.0 * l_bound / C_LIGHT)
    return float(dt)


@dataclass
class ChannelRealization:
    fc_ghz: float
    lam0: float
    delays: np.ndarray            # (n_taps,) seconds, non-decreasing
    gains: list                   # n_taps arrays of shape (U, S, T)
    ray_gains: list = None        # optional per-tap (U, S, R, T) diagnostics

    @property
    def n_taps(self):
        return self.delays.shape[0]

    def energy(self):
        """Sum over taps of |H|^2, per (u, s) element pair."""
        return sum((np.abs(g[:, :, 0]) ** 2 for g in self.gains))


def _site_phases(arr, first, r_hat, lam0, d=None, grid=None):
    """Array phases (P, R) at the sites ``arr.offsets[first]``: plane-wave
    exp(j 2 pi r_hat . d_bar / lam), or spherical-wave toward per-ray
    sources at distances ``d``.  Plane-wave phases on a PlanarGrid are the
    products of one row and one column factor per ray."""
    if d is not None:
        return nlos_element_phase(d, r_hat, arr.offsets[first], lam0)
    if grid is None:
        return unit_phase(2.0 * np.pi * (arr.offsets[first] @ r_hat.T) / lam0)
    proj = (2.0 * np.pi / lam0) * (r_hat @ grid.axes)        # (R, 2)
    cols = unit_phase(grid.y[:, None] * proj[None, :, 0])
    rows = unit_phase(grid.z[:, None] * proj[None, :, 1])
    return (rows[:, None, :] * cols[None, :, :]).reshape(-1, r_hat.shape[0])


def array_fields(mounted, zen, az, per_group=False):
    """GCS field patterns (F_theta, F_phi), each (K, R), of a mounted array
    from one ``field_pattern`` call, for (R,) angles in degrees shared by
    all elements or (K, R) angles with one row per element.  Shared angles
    are evaluated once per entry of ``mounted.field_groups``, and
    ``per_group`` returns those (G, R) rows.
    """
    zen = np.asarray(zen, dtype=float)
    az = np.asarray(az, dtype=float)
    if zen.ndim == 2:
        return field_pattern(mounted.pattern, mounted.orientations,
                             mounted.slants, zen, az)
    orientations, slants, _idx = zip(*mounted.field_groups)
    f_t, f_p = field_pattern(mounted.pattern, orientations, slants, zen, az)
    if per_group:
        return f_t, f_p
    return f_t[mounted.group_index], f_p[mounted.group_index]


def synthesize(geom, cs, phases, bs, ue, lam0, k_db=None, los=False,
               v_vec=None, t_samples=None, near_field=None, nf_angles=False,
               sns_alpha=None, sns_beta=None, base_delay=0.0,
               keep_rays=False):
    """Assemble the time-variant CIR tensor for one link (steps 10-12).

    bs / ue are MountedArray instances (tx and rx side).  ``near_field``
    carries per-ray spherical source distances; None selects plane-wave
    array phases.  ``sns_alpha`` is a (S, N) or (S, N, M) BS-side power
    attenuation, ``sns_beta`` a (U,) UE-side one.  ``base_delay`` shifts all
    taps (absolute time of arrival); the LOS specular term lands exactly at
    ``base_delay``.  The two strongest clusters expand into three delay
    taps; taps are emitted in non-decreasing delay order.

    A BS element's field depends only on its field group g (orientation,
    slant), so every tap is one product over the tap's rays r,
    H[u, s] = sum_r G_g(s)[u, r] A[site(s), r], with
    G_g = Ga_theta F_theta,g + Ga_phi F_phi,g per group and the array
    phases A per distinct element site.  The ray amplitude and sqrt(beta)
    live in G, sqrt(alpha) in A (elements that share a site but not their
    alpha get a site each), and the Doppler factor in G, or in A when there
    are several time samples.  With ``nf_angles`` in near-field mode the BS
    fields differ per element and do not factor: the product then runs
    over the two field components with per-element columns
    F_b[s, r] A[site(s), r].  ``keep_rays`` takes its per-ray gains from
    the same factors.
    """
    n, m = cs.n, cs.m
    t = np.asarray(t_samples if t_samples is not None else [0.0], dtype=float)
    n_t = t.shape[0]
    u_cnt, s_cnt = ue.size, bs.size

    # rays in tap order, so that every tap is one contiguous slice
    taps = sorted(cs.taps(base_delay), key=lambda tap: tap[0])
    order = np.concatenate([rays for _delay, rays, _power in taps])
    bounds = np.cumsum([0] + [rays.size for _delay, rays, _power in taps])
    n_r = order.size

    zoa, aoa, zod, aod = (x.reshape(-1)[order]
                          for x in (cs.zoa, cs.aoa, cs.zod, cs.aod))
    r_rx = sph_unit(zoa, aoa)              # (R, 3)
    r_tx = sph_unit(zod, aod)
    d1 = d2 = None
    if near_field is not None:
        d1, d2 = near_field.d1.reshape(-1)[order], near_field.d2.reshape(-1)[order]
    elementwise = nf_angles and d1 is not None
    if elementwise:
        # per-element departure angles toward each ray's spherical source
        src = bs.reference[None, :] + d1[:, None] * r_tx
        zod, aod = unit_to_angles(src[None, :, :] - bs.positions()[:, None, :])
    if los:
        # the LOS direction is one more angle column of the field evaluation
        zoa, aoa = np.append(zoa, geom.zoa), np.append(aoa, geom.aoa_az)
        if elementwise:
            z_e, a_e = unit_to_angles(ue.reference[None, :] - bs.positions())
            zod, aod = np.append(zod, z_e[:, None], 1), np.append(aod, a_e[:, None], 1)
        else:
            zod, aod = np.append(zod, geom.zod), np.append(aod, geom.aod_az)
    frx_t, frx_p = array_fields(ue, zoa, aoa)
    ftx_t, ftx_p = array_fields(bs, zod, aod, per_group=True)

    # BS sites, and sqrt(alpha) per site and alpha column (cluster or ray)
    first, site = bs.sites
    grid = bs.grid
    sqrt_al = None
    if sns_alpha is not None:
        al = np.asarray(sns_alpha, dtype=float).reshape(s_cnt, -1)
        if not np.array_equal(al[first][site], al):
            first, site, grid = np.arange(s_cnt), np.arange(s_cnt), None
        sqrt_al = np.sqrt(al[first] if not elementwise else al)
        al_col = order // m if al.shape[1] == n else order
    ue_first, ue_site = ue.sites
    a_rx = _site_phases(ue, ue_first, r_rx, lam0, d2)[ue_site]
    a_tx = _site_phases(bs, first, r_tx, lam0, d1, grid)

    # polarization matrix entries per ray
    ph = phases.reshape(-1, 4)[order]
    eta = cs.eta.reshape(-1, 4)[order]
    inv_k = 1.0 / cs.kappa.reshape(-1)[order]
    p11 = np.sqrt(eta[:, 0]) * np.exp(1j * ph[:, 0])
    p12 = np.sqrt(eta[:, 1] * inv_k) * np.exp(1j * ph[:, 1])
    p21 = np.sqrt(eta[:, 2] * inv_k) * np.exp(1j * ph[:, 2])
    p22 = np.sqrt(eta[:, 3]) * np.exp(1j * ph[:, 3])

    # Ga_b[u, r] = (F_rx^T Phi)_b a_rx, with the ray amplitude and sqrt(beta)
    rx = a_rx * np.sqrt(np.repeat(cs.p, m)[order] / m)
    if sns_beta is not None:
        rx *= np.sqrt(np.asarray(sns_beta))[:, None]
    ga_t = (frx_t[:, :n_r] * p11 + frx_p[:, :n_r] * p21) * rx
    ga_p = (frx_t[:, :n_r] * p12 + frx_p[:, :n_r] * p22) * rx

    # H = sum_i left_i right_i^T per tap, rows (u, group) and columns
    # (column, t), which is (U, S, T) order when the columns are elements
    if elementwise:
        fa = a_tx[site]
        left, right = [ga_t, ga_p], [ftx_t[:, :n_r] * fa, ftx_p[:, :n_r] * fa]
        n_cols, perm = s_cnt, None
    else:
        left = [(ga_t[:, None] * ftx_t[None, :, :n_r]
                 + ga_p[:, None] * ftx_p[None, :, :n_r]).reshape(-1, n_r)]
        right = [a_tx]
        n_cols = a_tx.shape[0]
        perm = bs.group_index * n_cols + site
        if np.array_equal(perm, np.arange(s_cnt)):
            perm = None

    # Doppler per (t, ray) on the left when there is one sample; otherwise
    # it and sqrt(alpha) scale the right factors tap by tap
    v = np.zeros(3) if v_vec is None else np.asarray(v_vec, dtype=float)
    dop = np.exp(2j * np.pi * ((r_rx @ v) / lam0)[None, :] * t[:, None])
    if n_t == 1:
        left = [x * dop for x in left]

    def right_factors(lo, hi):
        out = [x[:, lo:hi] for x in right]
        if sqrt_al is not None:
            w = np.take(sqrt_al, al_col[lo:hi], axis=1)
            out = [x * w for x in out]
        if n_t > 1:
            out = [(x[:, None, :] * dop[:, lo:hi]).reshape(-1, hi - lo)
                   for x in out]
        return out

    def to_elements(x):
        x = x.reshape(u_cnt, -1, n_t, *x.shape[2:])
        return x if perm is None else np.take(x, perm, axis=1)

    gains = []
    ray_gains = [] if keep_rays else None
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        tap_right = right_factors(lo, hi)
        h = left[0][:, lo:hi] @ tap_right[0].T
        for a, b in zip(left[1:], tap_right[1:]):
            h += a[:, lo:hi] @ b.T
        gains.append(to_elements(h))
        if keep_rays:
            rg = sum(a[:, None, lo:hi] * b[None, :, :]
                     for a, b in zip(left, tap_right))
            ray_gains.append(to_elements(rg).swapaxes(2, 3))
    delays = np.array([tp[0] for tp in taps])

    if los:
        if k_db is None:
            raise ValueError("LOS synthesis requires the Ricean K factor")
        f_tx = (ftx_t[:, -1], ftx_p[:, -1])
        if not elementwise:
            f_tx = tuple(f[bs.group_index] for f in f_tx)
        h_los = _los_component(geom, bs, ue, lam0, near_field is not None, v,
                               t, (frx_t[:, -1], frx_p[:, -1]), f_tx,
                               sns_alpha, sns_beta, cs.p_los)
        i0 = int(np.argmin(np.abs(delays - base_delay)))
        gains[i0] += h_los
        if keep_rays:
            ray_gains[i0] = np.concatenate(
                [ray_gains[i0], h_los[:, :, None, :]], axis=2)

    return ChannelRealization(fc_ghz=C_LIGHT / lam0 / 1e9, lam0=lam0,
                              delays=delays, gains=gains,
                              ray_gains=ray_gains)


def _los_component(geom, bs, ue, lam0, near_field, v, t, f_rx, f_tx,
                   sns_alpha, sns_beta, p_los):
    """Deterministic specular term with weight sqrt(K_R / (K_R + 1)) folded
    into p_los.  ``f_rx`` / ``f_tx`` are the (F_theta, F_phi) fields of
    each UE / BS element toward the LOS direction.  Near-field mode uses
    exact element-pair distances; the plane-wave mode uses first-order
    array phases."""
    r_rx = sph_unit(geom.zoa, geom.aoa_az)
    w_rx = np.full(ue.size, np.sqrt(p_los), dtype=complex)
    w_tx = np.ones(bs.size, dtype=complex)
    if sns_beta is not None:
        w_rx *= np.sqrt(np.asarray(sns_beta))
    if sns_alpha is not None:
        w_tx *= np.sqrt(np.asarray(sns_alpha, dtype=float).reshape(bs.size, -1)[:, 0])
    if not near_field:
        w_rx *= (np.exp(-2j * np.pi * geom.d3d / lam0)
                 * np.exp(2j * np.pi * (ue.offsets @ r_rx) / lam0))
        w_tx *= np.exp(2j * np.pi * (bs.offsets @ sph_unit(geom.zod, geom.aod_az))
                       / lam0)
    # polarization matrix [[1, 0], [0, -1]]
    h = (np.outer(f_rx[0] * w_rx, f_tx[0] * w_tx)
         - np.outer(f_rx[1] * w_rx, f_tx[1] * w_tx))
    if near_field:
        (ue_first, ue_site), (bs_first, bs_site) = ue.sites, bs.sites
        pair = np.linalg.norm(ue.positions()[ue_first][:, None, :]
                              - bs.positions()[bs_first][None, :, :], axis=-1)
        h *= los_element_phase(pair, lam0)[ue_site][:, bs_site]
    return h[:, :, None] * np.exp(2j * np.pi * ((r_rx @ v) / lam0) * t)


def apply_large_scale(h, ls):
    """Scale every tap gain by the total large-scale attenuation."""
    scale = 10.0 ** (-ls.total / 20.0)
    return ChannelRealization(
        fc_ghz=h.fc_ghz, lam0=h.lam0, delays=h.delays,
        gains=[g * scale for g in h.gains],
        ray_gains=None if h.ray_gains is None else [g * scale for g in h.ray_gains])


CIR_MAGIC = b"FR3CIR1\x00"


def write_cir(path, h):
    """Bit-exact CIR dump.

    Layout: magic "FR3CIR1\\0"; little-endian u32 U, S, T, n_taps;
    f64 fc_Hz; then per tap f64 delay_s followed by U*S*T (re, im) f32
    pairs in u-major, s-major, t-minor order.
    """
    u, s, t = h.gains[0].shape
    with open(path, "wb") as f:
        f.write(CIR_MAGIC)
        f.write(struct.pack("<4I", u, s, t, h.n_taps))
        f.write(struct.pack("<d", h.fc_ghz * 1e9))
        for delay, g in zip(h.delays, h.gains):
            f.write(struct.pack("<d", float(delay)))
            inter = np.empty((u, s, t, 2), dtype="<f4")
            inter[..., 0] = g.real
            inter[..., 1] = g.imag
            f.write(inter.tobytes())


def read_cir(path):
    """Inverse of write_cir; returns a ChannelRealization with f32-rounded
    gains."""
    with open(path, "rb") as f:
        if f.read(8) != CIR_MAGIC:
            raise ValueError("not a FR3CIR1 file")
        u, s, t, n_taps = struct.unpack("<4I", f.read(16))
        fc_hz, = struct.unpack("<d", f.read(8))
        delays = np.empty(n_taps)
        gains = []
        for i in range(n_taps):
            delays[i], = struct.unpack("<d", f.read(8))
            raw = np.frombuffer(f.read(u * s * t * 8), dtype="<f4")
            raw = raw.reshape(u, s, t, 2)
            gains.append(raw[..., 0] + 1j * raw[..., 1])
    lam0 = C_LIGHT / fc_hz
    return ChannelRealization(fc_ghz=fc_hz / 1e9, lam0=lam0, delays=delays,
                              gains=gains)
