"""Channel coefficient synthesis: random phases, ray-count scaling,
sub-cluster expansion, Doppler, absolute delay, and large-scale application.
"""

import struct
from dataclasses import dataclass, field

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
    meta: dict = field(default_factory=dict)
    ray_gains: list = None        # optional per-tap (U, S, R, T) diagnostics

    @property
    def n_taps(self):
        return self.delays.shape[0]

    def tensor(self, t_index=0):
        """(n_taps, U, S) gains at one time sample."""
        return np.stack([g[:, :, t_index] for g in self.gains])

    def energy(self):
        """Sum over taps of |H|^2, per (u, s) element pair."""
        return sum((np.abs(g[:, :, 0]) ** 2 for g in self.gains))


def _pol_halves(offsets):
    """Detect the co-located dual-polarization layout (second half of the
    element list repeats the first half's positions)."""
    k = offsets.shape[0]
    half = k // 2
    return k % 2 == 0 and half > 0 and np.array_equal(offsets[:half], offsets[half:])


def _array_phase(r_hat, offsets, lam0, d=None):
    """Array phases (K, R): plane-wave exp(j 2 pi r_hat . d_bar / lam), or
    spherical-wave toward per-ray sources at distances ``d``.  Co-located
    dual-polarized positions are evaluated once."""
    if _pol_halves(offsets):
        half = _array_phase(r_hat, offsets[: offsets.shape[0] // 2], lam0, d)
        return np.concatenate([half, half], axis=0)
    if d is None:
        return unit_phase(2.0 * np.pi * (offsets @ r_hat.T) / lam0)
    return nlos_element_phase(d, r_hat, offsets, lam0)


def array_fields(mounted, zen, az):
    """GCS field patterns (F_theta, F_phi), each (K, R), of a mounted array.

    ``zen`` / ``az`` are (R,) angles in degrees shared by all elements, or
    (K, R) angles with one row per element.  ``field_pattern`` is evaluated
    once per distinct (orientation, slant) of the array.
    """
    zen = np.asarray(zen, dtype=float)
    az = np.asarray(az, dtype=float)
    f_t = np.empty((mounted.size, zen.shape[-1]))
    f_p = np.empty_like(f_t)
    for pat, ori, idx in mounted.field_groups:
        z, a = (zen, az) if zen.ndim == 1 else (zen[idx], az[idx])
        f_t[idx], f_p[idx] = field_pattern(pat, ori, z, a)
    return f_t, f_p


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
    """
    n, m = cs.n, cs.m
    t = np.asarray(t_samples if t_samples is not None else [0.0], dtype=float)
    n_t = t.shape[0]
    u_cnt, s_cnt = ue.size, bs.size

    zoa = cs.zoa.reshape(-1)
    aoa = cs.aoa.reshape(-1)
    zod = cs.zod.reshape(-1)
    aod = cs.aod.reshape(-1)
    r_rx = sph_unit(zoa, aoa)              # (NM, 3)
    r_tx = sph_unit(zod, aod)

    d1 = d2 = None
    if near_field is not None:
        d1, d2 = near_field.d1.reshape(-1), near_field.d2.reshape(-1)
    frx_t, frx_p = array_fields(ue, zoa, aoa)
    a_rx = _array_phase(r_rx, ue.offsets, lam0, d2)
    a_tx = _array_phase(r_tx, bs.offsets, lam0, d1)
    if nf_angles and d1 is not None:
        # per-element departure angles toward each ray's spherical source
        src = bs.reference[None, :] + d1[:, None] * r_tx
        zod, aod = unit_to_angles(src[None, :, :] - bs.positions()[:, None, :])
    ftx_t, ftx_p = array_fields(bs, zod, aod)

    # polarization matrix entries per ray
    ph = phases.reshape(-1, 4)
    eta = cs.eta.reshape(-1, 4)
    inv_k = 1.0 / cs.kappa.reshape(-1)
    p11 = np.sqrt(eta[:, 0]) * np.exp(1j * ph[:, 0])
    p12 = np.sqrt(eta[:, 1] * inv_k) * np.exp(1j * ph[:, 1])
    p21 = np.sqrt(eta[:, 2] * inv_k) * np.exp(1j * ph[:, 2])
    p22 = np.sqrt(eta[:, 3]) * np.exp(1j * ph[:, 3])

    # Ga[u, b, r] = (F_rx^T Phi)_b * a_rx ; Fa[s, b, r] = F_tx_b * a_tx
    ga = np.empty((u_cnt, 2, n * m), dtype=complex)
    ga[:, 0, :] = (frx_t * p11[None, :] + frx_p * p21[None, :]) * a_rx
    ga[:, 1, :] = (frx_t * p12[None, :] + frx_p * p22[None, :]) * a_rx
    fa = np.empty((s_cnt, 2, n * m), dtype=complex)
    fa[:, 0, :] = ftx_t * a_tx
    fa[:, 1, :] = ftx_p * a_tx

    # per-ray power weights and SNS attenuation
    amp = np.sqrt(np.repeat(cs.p, m) / m)
    if sns_beta is not None:
        ga *= np.sqrt(np.asarray(sns_beta))[:, None, None]
    if sns_alpha is not None:
        al = np.asarray(sns_alpha, dtype=float)
        if al.ndim == 2:
            al = np.repeat(al, m, axis=1)
        else:
            al = al.reshape(s_cnt, n * m)
        fa *= np.sqrt(al)[:, None, :]

    # Doppler per ray
    v = np.zeros(3) if v_vec is None else np.asarray(v_vec, dtype=float)
    dop_freq = (r_rx @ v) / lam0          # (NM,)
    dop = np.exp(2j * np.pi * dop_freq[:, None] * t[None, :])  # (NM, T)

    # taps (delay, flat ray indices, power) in non-decreasing delay order
    taps = sorted(cs.taps(base_delay), key=lambda tap: tap[0])

    gains = []
    ray_gains = [] if keep_rays else None
    for _delay, rays, _power in taps:
        h = np.zeros((u_cnt, s_cnt, n_t), dtype=complex)
        rg = np.zeros((u_cnt, s_cnt, rays.size, n_t), dtype=complex) if keep_rays else None
        ga_r = ga[:, :, rays] * amp[rays][None, None, :]
        fa_r = fa[:, :, rays]
        for ti in range(n_t):
            ga_t = ga_r * dop[rays, ti][None, None, :]
            if keep_rays:
                rg[:, :, :, ti] = np.einsum("ubr,sbr->usr", ga_t, fa_r)
                h[:, :, ti] = rg[:, :, :, ti].sum(axis=2)
            else:
                h[:, :, ti] = ga_t.reshape(u_cnt, -1) @ \
                    fa_r.reshape(s_cnt, -1).T
        gains.append(h)
        if keep_rays:
            ray_gains.append(rg)
    delays = np.array([tp[0] for tp in taps])

    if los:
        if k_db is None:
            raise ValueError("LOS synthesis requires the Ricean K factor")
        h_los = _los_component(geom, bs, ue, lam0, near_field is not None,
                               nf_angles, v, t, sns_alpha, sns_beta,
                               cs.p_los)
        i0 = int(np.argmin(np.abs(delays - base_delay)))
        gains[i0] = gains[i0] + h_los
        if keep_rays:
            ray_gains[i0] = np.concatenate(
                [ray_gains[i0], h_los[:, :, None, :]], axis=2)

    return ChannelRealization(fc_ghz=C_LIGHT / lam0 / 1e9, lam0=lam0,
                              delays=delays, gains=gains,
                              meta={"n_clusters": n, "n_rays": m, "los": los},
                              ray_gains=ray_gains)


def _los_component(geom, bs, ue, lam0, near_field, nf_angles, v, t,
                   sns_alpha, sns_beta, p_los):
    """Deterministic specular term with weight sqrt(K_R / (K_R + 1)) folded
    into p_los.  Near-field mode uses exact element-pair distances; the
    plane-wave mode uses first-order array phases."""
    zoa, aoa = geom.zoa, geom.aoa_az
    zod, aod = geom.zod, geom.aod_az
    frx_t, frx_p = array_fields(ue, [zoa], [aoa])
    if nf_angles and near_field:
        zod_e, aod_e = unit_to_angles(ue.reference[None, :] - bs.positions())
        ftx_t, ftx_p = array_fields(bs, zod_e[:, None], aod_e[:, None])
    else:
        ftx_t, ftx_p = array_fields(bs, [zod], [aod])
    # polarization matrix [[1, 0], [0, -1]]
    coup = frx_t * ftx_t.T - frx_p * ftx_p.T
    if near_field:
        pair = np.linalg.norm(ue.positions()[:, None, :]
                              - bs.positions()[None, :, :], axis=-1)
        phase = los_element_phase(pair, lam0)
    else:
        r_tx = sph_unit(zod, aod)
        r_rx = sph_unit(zoa, aoa)
        phase = (np.exp(-2j * np.pi * geom.d3d / lam0)
                 * np.exp(2j * np.pi * (ue.offsets @ r_rx) / lam0)[:, None]
                 * np.exp(2j * np.pi * (bs.offsets @ r_tx) / lam0)[None, :])
    h = np.sqrt(p_los) * coup * phase
    if sns_beta is not None:
        h = h * np.sqrt(np.asarray(sns_beta))[:, None]
    if sns_alpha is not None:
        al = np.asarray(sns_alpha, dtype=float)
        al0 = al[:, 0] if al.ndim == 2 else al[:, 0, 0]
        h = h * np.sqrt(al0)[None, :]
    dop = np.exp(2j * np.pi * ((sph_unit(zoa, aoa) @ v) / lam0) * t)
    return h[:, :, None] * dop[None, None, :]


def apply_large_scale(h, ls):
    """Scale every tap gain by the total large-scale attenuation."""
    scale = 10.0 ** (-ls.total / 20.0)
    return ChannelRealization(
        fc_ghz=h.fc_ghz, lam0=h.lam0, delays=h.delays,
        gains=[g * scale for g in h.gains], meta=dict(h.meta),
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
