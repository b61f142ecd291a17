"""Element patterns, planar arrays, and UE device antenna placement."""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import Orientation, gcs_to_lcs, vec3


@dataclass(frozen=True)
class ElementPattern:
    """Parabolic-cut element power pattern.

    phi_3db / theta_3db are the 3 dB beamwidths in degrees, a_max the
    azimuth-cut floor and sla_v the elevation side-lobe floor (both in dB,
    >= 0), max_gain_dbi the boresight directive gain.  The polarization
    slant belongs to the mounted element (``MountedArray.slants``).
    """
    phi_3db: float = 65.0
    theta_3db: float = 65.0
    a_max: float = 30.0
    sla_v: float = 30.0
    max_gain_dbi: float = 8.0

    @staticmethod
    def directional():
        return ElementPattern()

    @staticmethod
    def isotropic():
        return ElementPattern(a_max=0.0, sla_v=0.0, max_gain_dbi=0.0)


def element_power_pattern(p, zenith_deg, azimuth_deg):
    """Relative element power pattern A''(theta'', phi'') in dB (<= 0).

    Vertical and horizontal parabolic cuts are combined and floored at
    -a_max.  Add ``p.max_gain_dbi`` for the directive gain.
    """
    zen = np.asarray(zenith_deg, dtype=float)
    az = np.asarray(azimuth_deg, dtype=float)
    a_v = -np.minimum(12.0 * ((zen - 90.0) / p.theta_3db) ** 2, p.sla_v)
    a_h = -np.minimum(12.0 * (az / p.phi_3db) ** 2, p.a_max)
    return -np.minimum(-(a_v + a_h), p.a_max)


def field_pattern(p, orientations, slants_deg, zenith_deg, azimuth_deg):
    """(F_theta, F_phi) in the GCS, each (G, R), of G elements of pattern
    ``p``: element g is mounted with ``orientations[g]`` and slanted by
    ``slants_deg[g]`` degrees, and sees the (R,) angles shared by all or
    its row of (G, R) angles.

    Each direction is rotated into the element frame, where the power
    pattern gives the amplitude and the slant zeta splits it into
    (cos zeta, sin zeta); the basis is rotated back through the angle psi.
    Power is preserved exactly.  Shared angles are transformed, and the
    power pattern evaluated, once per distinct orientation.
    """
    frames = {}
    row = np.array([frames.setdefault(o, len(frames)) for o in orientations])
    rot = np.array([o.rotation() for o in frames])
    zen = np.asarray(zenith_deg, dtype=float)
    az = np.asarray(azimuth_deg, dtype=float)
    if zen.ndim == 1:
        zen, az = zen[None], az[None]      # one output row per frame
    else:
        rot, row = rot[row], slice(None)   # one frame per angle row
    zen_l, az_l, psi = gcs_to_lcs(rot, zen, az)
    a_db = element_power_pattern(p, zen_l, az_l) + p.max_gain_dbi
    amp = (10.0 ** (a_db / 20.0))[row]
    zeta = np.radians(np.asarray(slants_deg, dtype=float))[:, None]
    f_th_l, f_ph_l = amp * np.cos(zeta), amp * np.sin(zeta)
    psi = np.radians(psi[row])
    c, s = np.cos(psi), np.sin(psi)
    return c * f_th_l - s * f_ph_l, s * f_th_l + c * f_ph_l


@dataclass(frozen=True)
class PanelArray:
    """Uniform planar array of Mg x Ng panels, each M x N elements.

    Spacings are in wavelengths; panel spacings default to M/2 and N/2
    (i.e. M lambda/2 and N lambda/2).  P=2 places co-located +/-45 deg
    slanted element pairs; a single-polarized panel has slant 0.
    """
    mg: int = 1
    ng: int = 1
    m: int = 1            # vertical elements per panel
    n: int = 1            # horizontal elements per panel
    p: int = 1            # polarizations (1 or 2)
    d_v: float = 0.5
    d_h: float = 0.5
    d_gv: float = 0.0     # 0 -> default M * d_v
    d_gh: float = 0.0     # 0 -> default N * d_h
    element: ElementPattern = field(default_factory=ElementPattern)
    pol_slants: tuple = (45.0, -45.0)

    def n_elements(self):
        return self.mg * self.ng * self.m * self.n * self.p

    def slants(self):
        return (0.0,) if self.p == 1 else self.pol_slants[: self.p]


def element_grid(a, wavelength):
    """The element sites of ``a`` as a rows x columns grid.

    Returns (y (n_cols,), z (n_rows,), row (K,), col (K,)): the array-frame
    column and row coordinates in meters, exactly as element_positions
    places its elements, and each element's row and column in that order.
    """
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    d_gv = a.d_gv if a.d_gv > 0 else a.m * a.d_v
    d_gh = a.d_gh if a.d_gh > 0 else a.n * a.d_h
    gv, gh, r, c = (g.ravel() for g in np.meshgrid(
        np.arange(a.mg), np.arange(a.ng), np.arange(a.m), np.arange(a.n),
        indexing="ij"))
    ys = (gh * d_gh + c * a.d_h) * wavelength
    zs = (gv * d_gv + r * a.d_v) * wavelength
    ys -= ys.mean()
    zs -= zs.mean()
    row, col = gv * a.m + r, gh * a.n + c
    y = np.empty(a.ng * a.n)
    z = np.empty(a.mg * a.m)
    y[col], z[row] = ys, zs
    return y, z, np.tile(row, a.p), np.tile(col, a.p)


def element_positions(a, wavelength):
    """Element offsets in the array frame (boresight +x, columns along +y,
    rows along +z), centered on the array's geometric center.

    Returns (positions (K, 3) in meters, pol_index (K,)).  Ordering is
    polarization-major, then panel row, panel column, element row, element
    column; co-located dual-polarized pairs share a position.
    """
    y, z, row, col = element_grid(a, wavelength)
    pos = np.stack([np.zeros(row.size), y[col], z[row]], axis=1)
    return pos, np.repeat(np.arange(a.p), row.size // a.p)


@dataclass(frozen=True)
class UEDevice:
    """Handheld or CPE device with candidate antenna locations.

    Dimensions follow the (X, Y, Z) cm convention: handheld (15, 7, 0) lies
    in the horizontal plane, CPE (0, 20, 20) is a vertical square.  Each
    candidate's boresight points along the outward radial from the device
    center (the center candidate uses the device normal).
    """
    kind: str = "handheld"  # "handheld" | "CPE"

    @property
    def dims_cm(self):
        return (15.0, 7.0, 0.0) if self.kind == "handheld" else (0.0, 20.0, 20.0)


def _outward_orientation(offset):
    n = np.linalg.norm(offset)
    if n == 0.0:
        return Orientation(0.0, 0.0, 0.0)
    u = offset / n
    alpha = np.degrees(np.arctan2(u[1], u[0]))
    beta = np.degrees(-np.arcsin(np.clip(u[2], -1.0, 1.0)))
    return Orientation(float(alpha), float(beta), 0.0)


def ue_candidate_locations(device):
    """Candidate (offset, orientation) pairs; offsets in meters.

    Handheld: 4 corners + 4 edge midpoints of the 15 x 7 cm rectangle (8).
    CPE: corners, edge midpoints, and center of the 20 x 20 cm vertical
    square (9).
    """
    if device.kind == "handheld":
        hx, hy = 0.075, 0.035
        offs = [(hx, hy, 0), (hx, -hy, 0), (-hx, hy, 0), (-hx, -hy, 0),
                (hx, 0, 0), (-hx, 0, 0), (0, hy, 0), (0, -hy, 0)]
    elif device.kind == "CPE":
        h = 0.10
        offs = [(0, h, h), (0, h, -h), (0, -h, h), (0, -h, -h),
                (0, h, 0), (0, -h, 0), (0, 0, h), (0, 0, -h), (0, 0, 0)]
    else:
        raise ValueError(f"unknown UE device kind: {device.kind!r}")
    out = []
    for o in offs:
        off = vec3(*o)
        out.append((off, _outward_orientation(off)))
    return out


@dataclass(frozen=True)
class PlanarGrid:
    """Rows x columns layout of a mounted planar array (see element_grid).

    ``y`` / ``z`` are the exact array-frame column / row coordinates,
    ``row`` / ``col`` each element's row and column, and ``axes`` (3, 2)
    the GCS directions of the array's y and z axes, so that an element's
    offset is y[col] axes[:, 0] + z[row] axes[:, 1].
    """
    y: np.ndarray
    z: np.ndarray
    row: np.ndarray
    col: np.ndarray
    axes: np.ndarray


@dataclass
class MountedArray:
    """An antenna aperture placed in the GCS.

    offsets: (K, 3) element position offsets from ``reference`` in meters.
    orientations: per-element mounting Orientation (pattern frame).
    slants: per-element polarization slant in degrees.
    candidate_index: maps elements to device candidate locations (UE masks);
    -1 when not applicable.
    grid: the PlanarGrid of a uniform planar array, None otherwise.
    """
    reference: np.ndarray
    offsets: np.ndarray
    orientations: list
    slants: np.ndarray
    pattern: ElementPattern
    candidate_index: np.ndarray
    grid: PlanarGrid = None

    @property
    def size(self):
        return self.offsets.shape[0]

    def positions(self):
        return self.reference[None, :] + self.offsets

    def aperture(self):
        """Largest pairwise element separation (meters)."""
        if self.size == 1:
            return 0.0
        span = self.offsets.max(axis=0) - self.offsets.min(axis=0)
        return float(np.linalg.norm(span))

    @cached_property
    def field_groups(self):
        """(orientation, slant, element indices) of each field group, one
        per distinct (orientation, slant) pair, in order of first appearance."""
        groups = {}
        for k, key in enumerate(zip(self.orientations, self.slants.tolist())):
            groups.setdefault(key, []).append(k)
        return [(ori, s, np.array(idx)) for (ori, s), idx in groups.items()]

    @cached_property
    def group_index(self):
        """(K,) index into ``field_groups`` of each element."""
        out = np.empty(self.size, dtype=int)
        for g, (_ori, _slant, idx) in enumerate(self.field_groups):
            out[idx] = g
        return out

    @cached_property
    def sites(self):
        """Distinct element positions: (first (P,), index (K,)).

        Site p sits at ``offsets[first[p]]`` and element k at site
        ``index[k]``; co-located elements (the slants of a dual-polarized
        pair) share a site.  A grid numbers its sites row-major.
        """
        if self.grid is None:
            _, first, index = np.unique(self.offsets, axis=0, return_index=True,
                                        return_inverse=True)
            return first, index.ravel()
        index = self.grid.row * self.grid.y.size + self.grid.col
        first = np.empty(index.max() + 1, dtype=int)
        first[index[::-1]] = np.arange(self.size)[::-1]
        return first, index


def mount_bs_array(array, site_position, sector_orientation, wavelength):
    """Place a PanelArray at a site, boresight along the sector bearing."""
    pos_lcs, pol = element_positions(array, wavelength)
    rot = sector_orientation.rotation()
    offsets = pos_lcs @ rot.T
    slants = np.array([array.slants()[i] for i in pol])
    orientations = [sector_orientation] * offsets.shape[0]
    y, z, row, col = element_grid(array, wavelength)
    return MountedArray(np.asarray(site_position, dtype=float), offsets,
                        orientations, slants, array.element,
                        np.full(offsets.shape[0], -1, dtype=int),
                        PlanarGrid(y, z, row, col, rot[:, 1:]))


def mount_ue_device(device, ue_position, dual_polarized=True, pattern=None,
                    device_orientation=Orientation(0, 0, 0)):
    """Place all candidate antennas of a UE device (dual-polarized pairs by
    default) around the UE position.  Device orientation defaults to the
    identity (GCS == device frame)."""
    pat = pattern if pattern is not None else ElementPattern.isotropic()
    rot = device_orientation.rotation()
    cands = ue_candidate_locations(device)
    slant_set = (0.0, 90.0) if dual_polarized else (0.0,)
    offsets, orientations, slants, cidx = [], [], [], []
    for slant in slant_set:
        for i, (off, ori) in enumerate(cands):
            offsets.append(rot @ off)
            orientations.append(Orientation(
                ori.alpha + device_orientation.alpha,
                ori.beta + device_orientation.beta,
                ori.gamma + device_orientation.gamma))
            slants.append(slant)
            cidx.append(i)
    return MountedArray(np.asarray(ue_position, dtype=float),
                        np.array(offsets), orientations, np.array(slants),
                        pat, np.array(cidx, dtype=int))
