"""Channel coefficient synthesis: random phases, ray-count scaling,
sub-cluster expansion, Doppler, absolute delay, and large-scale application.
"""

import os
import pathlib
import struct
from dataclasses import dataclass

import numpy as np

from .antenna import field_pattern
from .geometry import sph_unit
from .largescale import C_LIGHT
from .nearfield import SCRATCH, element_wise_angles, nlos_element_phase, unit_phase
from .scenario import NLOS


def ray_count(bandwidth_hz, d_h, d_v, c_ds, c_asd, c_zsd, wavelength,
              m_min=20, m_max=40, k=0.5):
    """Resolvable ray count for large bandwidth / large arrays.

    bandwidth_hz [Hz]; d_h / d_v the horizontal / vertical array size [m];
    c_ds the cluster delay spread [s]; c_asd / c_zsd the cluster departure
    azimuth / zenith spreads [deg]; wavelength [m].  Returns
    (M, M_t, M_AOD, M_ZOD) with M = min(max(M_t * M_AOD * M_ZOD, M_min), M_max).
    """
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    if m_min > m_max:
        raise ValueError("m_min must not exceed m_max")
    m_t = int(np.ceil(4.0 * k * c_ds * bandwidth_hz))
    m_aod = int(np.ceil(4.0 * k * c_asd * np.pi * d_h / (180.0 * wavelength)))
    m_zod = int(np.ceil(4.0 * k * c_zsd * np.pi * d_v / (180.0 * wavelength)))
    m = min(max(m_t * m_aod * m_zod, m_min), m_max)
    return m, m_t, m_aod, m_zod


def draw_phases(n, m, rng):
    """Initial random phases, i.i.d. uniform on (-pi, pi), per ray and
    polarization component (order tt, tp, pt, pp)."""
    return rng.uniform(-np.pi, np.pi, size=(n, m, 4))


def draw_absolute_excess(sc, rng, l_bound=None):
    """Log-normal NLOS excess delay; optionally clamped to 2 L / c (the
    clamp is monotone in the underlying normal)."""
    dt = 10.0 ** rng.normal(sc.value("mu_lg_abs_delay", NLOS),
                            sc.value("sigma_lg_abs_delay", NLOS))
    if l_bound is not None:
        dt = min(dt, 2.0 * l_bound / C_LIGHT)
    return float(dt)


@dataclass
class ChannelRealization:
    """One link's channel: the tap delays, two (U, S) reductions over the
    taps at the first time sample, and the (n_taps, U, S, T) gains of a
    realization read from a CIR file.  The reductions are the tap sum (the
    narrowband matrix of ``capacity``) and the tap energy, the sum of |H|^2
    (for ``coupling_loss``).  A realization built from its gains alone
    reduces them on construction, as ``gains[:, :, :, 0].sum(axis=0)`` and
    ``np.sum(np.abs(gains[:, :, :, 0]) ** 2, axis=0)``; ``synthesize``
    holds no gains and hands each tap to its sink instead."""
    fc_ghz: float
    delays: np.ndarray                # (n_taps,) seconds, non-decreasing
    gains: np.ndarray = None          # (n_taps, U, S, T) complex, or None
    tap_sum: np.ndarray = None        # (U, S) complex
    tap_energy: np.ndarray = None     # (U, S) float

    def __post_init__(self):
        if self.tap_sum is None:
            g0 = self.gains[:, :, :, 0]
            self.tap_sum = g0.sum(axis=0)
            self.tap_energy = np.sum(np.abs(g0) ** 2, axis=0)

    @property
    def n_taps(self):
        return self.delays.shape[0]


def _site_phases(arr, r_hat, lam0, d, out):
    """Array phases (P, R) at the sites ``arr.site_offsets``, in ``out``:
    plane-wave exp(j 2 pi r_hat . d_bar / lam) when ``d`` is None, or
    spherical-wave toward per-ray sources at distances ``d``.  Plane-wave
    phases on the array's PlanarGrid are the products of one row and one
    column factor per ray.  The phases go to ``unit_phase`` in turns, path
    lengths over lam, in cache-sized blocks."""
    if d is not None:
        return nlos_element_phase(d, r_hat, arr.site_offsets, lam0, out=out)
    if arr.grid is None:
        return unit_phase((arr.site_offsets @ r_hat.T) / lam0, out=out)
    proj = (r_hat @ arr.grid.axes) / lam0                    # (R, 2) turns
    cols = unit_phase(arr.grid.y[:, None] * proj[None, :, 0])
    rows = unit_phase(arr.grid.z[:, None] * proj[None, :, 1])
    np.multiply(rows[:, None, :], cols[None, :, :],
                out=out.reshape(rows.shape[0], cols.shape[0], -1))
    return out


def synthesize(geom, cs, phases, bs, ue, lam0, v_vec=None, t_samples=None,
               near_field=None, nf_angles=False, sns_alpha=None,
               sns_beta=None, base_delay=0.0, sink=None):
    """Synthesize one link's taps (steps 10-12) and return a
    ChannelRealization of the tap delays and the tap sum and tap energy at
    t = 0, each (U, S).  One loop computes the taps one at a time into one
    scratch (U, S, T) buffer: each pass makes the tap's product, adds the
    LOS term if this is the LOS tap, adds the tap into the two sums in tap
    order (the first tap copies), and then hands the buffer to
    ``sink(delay, g)``, when given.  The sink may scale g in place, and
    must copy what it keeps, as the next tap overwrites it (``write_cir``
    streams the taps to a file this way).  So a link holds O(U S T) of
    channel, not O(n_taps U S T).

    bs / ue are MountedArray instances (tx and rx side).  ``near_field``
    carries per-ray spherical source distances; None selects plane-wave
    array phases.  ``sns_alpha`` is a (P, N) BS-side power attenuation with
    one row per site of ``bs.site_offsets`` and one column per cluster,
    ``sns_beta`` a (U,) UE-side one.  ``base_delay`` shifts all taps
    (absolute time of arrival).  The link has a LOS specular term, of
    power ``cs.p_los``, exactly when ``cs.p_los > 0``; it lands exactly at
    ``base_delay``.  The two strongest clusters expand into three delay
    taps; taps are emitted in non-decreasing delay order.

    A BS element's field depends only on its field group g (orientation,
    slant), so every tap is one product over the tap's rays r,
    H[u, s] = sum_r G_g(s)[u, r] A[site(s), r], with
    G_g = Ga_theta F_theta,g + Ga_phi F_phi,g per group and the array
    phases A per distinct element site.  The ray amplitude and sqrt(beta)
    live in G, sqrt(alpha) in A, and the Doppler factor in G, or in A when
    there are several time samples.  With ``nf_angles`` in near-field mode
    the BS fields differ per element and do not factor: the product then
    runs over the two field components with per-element columns
    F_b[s, r] A[site(s), r]; ``nf_angles`` without ``near_field`` raises
    ValueError.  Otherwise a tap has (group, site) columns, so element
    g P + p must be group g's at site p for every g and p, as
    mount_bs_array orders them, or ValueError is raised.
    """
    if nf_angles and near_field is None:
        raise ValueError("nf_angles needs near_field source distances")
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
    los = cs.p_los > 0
    if nf_angles:
        # per-element departure angles toward each ray's spherical source
        src = bs.reference[None, :] + d1[:, None] * r_tx
        aod, zod = element_wise_angles(src, bs.positions()[:, None, :])
    if los:
        # the LOS direction is one more angle column of the field evaluation
        zoa, aoa = np.append(zoa, geom.zoa), np.append(aoa, geom.aoa_az)
        if nf_angles:
            a_e, z_e = element_wise_angles(ue.reference, bs.positions())
            zod, aod = np.append(zod, z_e[:, None], 1), np.append(aod, a_e[:, None], 1)
        else:
            zod, aod = np.append(zod, geom.zod), np.append(aod, geom.aod_az)
    frx_t, frx_p = (f[ue.group_index] for f in field_pattern(ue, zoa, aoa))
    ftx_t, ftx_p = field_pattern(bs, zod, aod)

    # BS sites, and sqrt(alpha) per site (per element with nf_angles)
    n_site, site = bs.site_offsets.shape[0], bs.site_index
    sqrt_al = None
    if sns_alpha is not None:
        al = np.asarray(sns_alpha, dtype=float)
        if al.shape != (n_site, n):
            raise ValueError(f"sns_alpha must be (sites, clusters) = "
                             f"{(n_site, n)}, not {al.shape}")
        sqrt_al = np.sqrt(al[site] if nf_angles else al)
    a_rx = _site_phases(ue, r_rx, lam0, d2, SCRATCH.take(
        "ue_site_phases", (ue.site_offsets.shape[0], n_r)))[ue.site_index]
    a_tx = _site_phases(bs, r_tx, lam0, d1,
                        SCRATCH.take("site_phases", (n_site, n_r)))

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

    # H = sum_i left_i right_i^T per tap in (U, S, T) order: rows u and
    # columns (element, t), or rows (u, group) and columns (site, t)
    if nf_angles:
        fa = a_tx[site]
        left, right = [ga_t, ga_p], [ftx_t[:, :n_r] * fa, ftx_p[:, :n_r] * fa]
    else:
        if not np.array_equal(bs.group_index * n_site + site,
                              np.arange(len(bs.slants) * n_site)):
            raise ValueError("BS elements must be ordered field group by site")
        g_left = SCRATCH.take("left", (u_cnt, len(bs.slants), n_r))
        np.multiply(ga_t[:, None], ftx_t[None, :, :n_r], out=g_left)
        g_left += np.multiply(ga_p[:, None], ftx_p[None, :, :n_r],
                              out=SCRATCH.take("left_p", g_left.shape))
        left, right = [g_left.reshape(-1, n_r)], [a_tx]

    # Doppler per (t, ray) on the left when there is one sample; otherwise
    # it and sqrt(alpha) scale the right factors tap by tap, in scratch
    v = np.zeros(3) if v_vec is None else np.asarray(v_vec, dtype=float)
    dop = unit_phase(((r_rx @ v) / lam0)[None, :] * t[:, None])
    if n_t == 1:
        for x in left:
            x *= dop

    def right_factors(lo, hi):
        out, r = [x[:, lo:hi] for x in right], hi - lo
        if sqrt_al is not None:
            w = np.take(sqrt_al, order[lo:hi] // m, axis=1, mode="clip",
                        out=SCRATCH.take("alpha", (len(sqrt_al), r), float))
            out = [np.multiply(x, w, out=SCRATCH.take(("alpha", j), x.shape))
                   for j, x in enumerate(out)]
        if n_t > 1:
            out = [np.multiply(x[:, None], dop[:, lo:hi], out=SCRATCH.take(
                       ("doppler", j), (len(x), n_t, r))).reshape(-1, r)
                   for j, x in enumerate(out)]
        return out

    # every tap's product goes into one scratch buffer
    shape = (left[0].shape[0], right[0].shape[0] * n_t)
    buf = SCRATCH.take("tap", shape)
    term = SCRATCH.take("term", shape) if len(left) > 1 else None

    delays = np.array([tp[0] for tp in taps])
    h_los = i0 = None
    if los:
        f_tx = (ftx_t[:, -1], ftx_p[:, -1])
        if not nf_angles:
            f_tx = tuple(f[bs.group_index] for f in f_tx)
        h_los = _los_component(geom, bs, ue, lam0, near_field is not None, v,
                               t, (frx_t[:, -1], frx_p[:, -1]), f_tx,
                               sns_alpha, sns_beta, cs.p_los)
        i0 = int(np.argmin(np.abs(delays - base_delay)))

    power = SCRATCH.take("tap_power", (u_cnt, s_cnt), float)
    for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        tap_right = right_factors(lo, hi)
        np.matmul(left[0][:, lo:hi], tap_right[0].T, out=buf)
        for a, b in zip(left[1:], tap_right[1:]):
            np.add(buf, np.matmul(a[:, lo:hi], b.T, out=term), out=buf)
        g = buf.reshape(u_cnt, s_cnt, n_t)
        if i == i0:
            g += h_los
        g0 = g[:, :, 0]
        if i == 0:
            tap_sum, tap_energy = g0.copy(), np.square(np.abs(g0, out=power))
        else:
            tap_sum += g0
            tap_energy += np.square(np.abs(g0, out=power), out=power)
        if sink is not None:
            sink(delays[i], g)
    return ChannelRealization(fc_ghz=C_LIGHT / lam0 / 1e9, delays=delays,
                              tap_sum=tap_sum, tap_energy=tap_energy)


def _los_component(geom, bs, ue, lam0, near_field, v, t, f_rx, f_tx,
                   sns_alpha, sns_beta, p_los):
    """Deterministic specular term with weight sqrt(K_R / (K_R + 1)) folded
    into p_los.  ``f_rx`` / ``f_tx`` are the (F_theta, F_phi) fields of
    each UE / BS element toward the LOS direction; the LOS term takes the
    first cluster's column of the (P, N) per-site ``sns_alpha``.  Near-field
    mode uses exact element-pair distances; the plane-wave mode uses
    first-order array phases."""
    r_rx = sph_unit(geom.zoa, geom.aoa_az)
    w_rx = np.full(ue.size, np.sqrt(p_los), dtype=complex)
    w_tx = np.ones(bs.size, dtype=complex)
    if sns_beta is not None:
        w_rx *= np.sqrt(np.asarray(sns_beta))
    if sns_alpha is not None:
        w_tx *= np.sqrt(np.asarray(sns_alpha, dtype=float)[bs.site_index, 0])
    if not near_field:
        w_rx *= (unit_phase(-geom.d3d / lam0)
                 * unit_phase((ue.offsets @ r_rx) / lam0))
        w_tx *= unit_phase((bs.offsets @ sph_unit(geom.zod, geom.aod_az)) / lam0)
    # polarization matrix [[1, 0], [0, -1]]
    h = (np.outer(f_rx[0] * w_rx, f_tx[0] * w_tx)
         - np.outer(f_rx[1] * w_rx, f_tx[1] * w_tx))
    if near_field:
        pair = np.linalg.norm((ue.reference + ue.site_offsets)[:, None, :]
                              - (bs.reference + bs.site_offsets)[None, :, :],
                              axis=-1)
        h *= unit_phase(-pair / lam0)[ue.site_index][:, bs.site_index]
    return h[:, :, None] * unit_phase(((r_rx @ v) / lam0) * t)


def apply_large_scale(g, loss_db):
    """Scale the tap gains ``g`` in place by the large-scale loss
    ``loss_db`` (path loss, penetration and shadow fading); returns ``g``."""
    g *= 10.0 ** (-loss_db / 20.0)
    return g


CIR_MAGIC = b"FR3CIR1\x00"
_CIR_HEADER = struct.Struct("<8s4Id")      # magic, U, S, T, n_taps, fc_Hz


def write_cir(path, synth, loss_db=None):
    """Write one link's CIR file at ``path`` while ``synth(sink=...)``, a
    ``synthesize`` call with every other argument bound, computes its
    taps, and return the ChannelRealization that synth returns.  Each tap
    is written as soon as the tap loop has added it into the realization's
    sums: scaled in place by the large-scale loss ``loss_db`` when it is
    given (apply_large_scale), rounded to f32 in one scratch buffer,
    then appended.  The header goes in last, and the file is written
    under a ``.tmp-`` name and renamed to ``path`` once complete, so a
    link that fails leaves no file.

    Layout: magic "FR3CIR1\\0"; little-endian u32 U, S, T, n_taps;
    f64 fc_Hz; then per tap f64 delay_s followed by U*S*T (re, im) f32
    pairs in u-major, s-major, t-minor order.
    """
    path = pathlib.Path(path)
    tmp = path.with_name(f".tmp-{path.name}")
    shape = None

    def sink(delay, g):
        nonlocal shape
        shape = g.shape
        if loss_db is not None:
            apply_large_scale(g, loss_db)
        f32 = SCRATCH.take("cir_f32", g.shape + (2,), "<f4")
        np.copyto(f32, g.view(float).reshape(f32.shape), casting="same_kind")
        f.write(struct.pack("<d", delay))
        f.write(f32)

    try:
        with open(tmp, "wb") as f:
            f.write(bytes(_CIR_HEADER.size))
            h = synth(sink=sink)
            f.seek(0)
            f.write(_CIR_HEADER.pack(CIR_MAGIC, *shape, h.n_taps,
                                     h.fc_ghz * 1e9))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return h


def read_cir(path):
    """Inverse of write_cir; returns a ChannelRealization with f32-rounded
    complex128 gains.  Raises ValueError unless the file holds exactly the
    header and the n_taps tap records it declares, and unless U, S, T and
    n_taps are all positive."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:8] != CIR_MAGIC:
        raise ValueError("not a FR3CIR1 file")
    if len(raw) < _CIR_HEADER.size:
        raise ValueError(f"truncated CIR header: {len(raw)} bytes")
    _magic, u, s, t, n_taps, fc_hz = _CIR_HEADER.unpack_from(raw)
    if 0 in (u, s, t, n_taps):
        raise ValueError(f"CIR header declares an empty dimension: "
                         f"{n_taps} taps of {u}x{s}x{t} gains")
    body, tap_bytes = len(raw) - _CIR_HEADER.size, 8 + 8 * u * s * t
    if body != n_taps * tap_bytes:
        raise ValueError(f"CIR body has {body} bytes, but {n_taps} taps of "
                         f"{u}x{s}x{t} gains need {n_taps * tap_bytes}")
    taps = np.frombuffer(raw, [("delay", "<f8"), ("g", "<f4", (u, s, t, 2))],
                         count=n_taps, offset=_CIR_HEADER.size)
    return ChannelRealization(fc_ghz=fc_hz / 1e9,
                              delays=taps["delay"].astype(float),
                              gains=taps["g"].astype(float).view(complex)[..., 0])
