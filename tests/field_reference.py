"""Reference of a link's array-field evaluation and angular spreads as they
were computed before the mounted arrays carried their frames: every
``field_pattern`` call rebuilt its rotations from the group orientations,
``gcs_to_lcs`` took the radians, cosines and sines once per basis vector,
its dot products and ``unit_to_angles``' norm went through ``np.sum`` and
``np.linalg.norm``, cos psi and sin psi were taken per field group, and the
four spreads of a link were four calls.  `tests/test_field_reference.py`
checks that the library reproduces it bit for bit.
"""

import numpy as np

from fr3sim.antenna import element_power_pattern


def sph_unit(zenith_deg, azimuth_deg):
    th = np.radians(zenith_deg)
    ph = np.radians(azimuth_deg)
    return np.stack([np.sin(th) * np.cos(ph),
                     np.sin(th) * np.sin(ph),
                     np.cos(th)], axis=-1)


def unit_to_angles(v):
    v = np.asarray(v, dtype=float)
    zen = np.degrees(np.arccos(np.clip(v[..., 2] / np.linalg.norm(v, axis=-1),
                                       -1.0, 1.0)))
    az = np.degrees(np.arctan2(v[..., 1], v[..., 0]))
    return zen, az


def _theta_hat(zen, az):
    th = np.radians(zen)
    ph = np.radians(az)
    return np.stack([np.cos(th) * np.cos(ph),
                     np.cos(th) * np.sin(ph),
                     -np.sin(th)], axis=-1)


def _phi_hat(zen, az):
    ph = np.radians(az)
    z = np.zeros(np.shape(ph))
    return np.stack([-np.sin(ph), np.cos(ph), z], axis=-1)


def gcs_to_lcs(r, zenith_deg, azimuth_deg):
    """(zenith', azimuth', psi) for an (O, 3, 3) rotation stack ``r``."""
    v = sph_unit(zenith_deg, azimuth_deg)
    v_lcs = v @ r
    zen_l, az_l = unit_to_angles(v_lcs)
    th_l = _theta_hat(zen_l, az_l) @ np.swapaxes(r, -1, -2)
    cos_psi = np.sum(_theta_hat(zenith_deg, azimuth_deg) * th_l, axis=-1)
    sin_psi = np.sum(_phi_hat(zenith_deg, azimuth_deg) * th_l, axis=-1)
    psi = np.degrees(np.arctan2(sin_psi, cos_psi))
    return zen_l, az_l, psi


def field_pattern(p, orientations, slants_deg, zenith_deg, azimuth_deg):
    """(F_theta, F_phi) of elements given by a list of Orientations."""
    frames = {}
    row = np.array([frames.setdefault(o, len(frames)) for o in orientations])
    rot = np.array([o.rotation() for o in frames])
    zen = np.asarray(zenith_deg, dtype=float)
    az = np.asarray(azimuth_deg, dtype=float)
    if zen.ndim == 1:
        zen, az = zen[None], az[None]
    else:
        rot, row = rot[row], slice(None)
    zen_l, az_l, psi = gcs_to_lcs(rot, zen, az)
    a_db = element_power_pattern(p, zen_l, az_l) + p.max_gain_dbi
    amp = (10.0 ** (a_db / 20.0))[row]
    zeta = np.radians(np.asarray(slants_deg, dtype=float))[:, None]
    f_th_l, f_ph_l = amp * np.cos(zeta), amp * np.sin(zeta)
    psi = np.radians(psi[row])
    c, s = np.cos(psi), np.sin(psi)
    return c * f_th_l - s * f_ph_l, s * f_th_l + c * f_ph_l


def array_fields(mounted, orientations, zen, az):
    """(G, R) field-group rows of ``mounted`` for shared (R,) angles, or
    (K, R) element rows for (K, R) angles; ``orientations`` holds each
    field group's Orientation, whose rotation is rebuilt on every call."""
    zen = np.asarray(zen, dtype=float)
    az = np.asarray(az, dtype=float)
    slants = np.asarray(mounted.slants, dtype=float)
    if zen.ndim == 2:
        gi = mounted.group_index
        return field_pattern(mounted.pattern, [orientations[g] for g in gi],
                             slants[gi], zen, az)
    return field_pattern(mounted.pattern, orientations, slants, zen, az)


def angular_spread(angles_deg, weights):
    """Power-weighted circular RMS spread in degrees of one angle set."""
    a = np.radians(np.asarray(angles_deg, dtype=float).reshape(-1))
    w = np.asarray(weights, dtype=float).reshape(-1)
    w = w / w.sum()
    mean = np.angle(np.sum(w * np.exp(1j * a)))
    dev = np.angle(np.exp(1j * (a - mean)))
    return float(np.degrees(np.sqrt(np.sum(w * dev ** 2))))
