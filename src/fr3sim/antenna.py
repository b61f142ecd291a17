"""Element patterns, planar arrays, and UE device antenna placement."""

from dataclasses import dataclass, field, replace

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


def mounting_frames(orientations):
    """The distinct ``orientations``, in first-seen order, as an (O, 3, 3)
    stack of GCS-from-LCS rotations, and each orientation's index into it."""
    frames = {}
    index = np.array([frames.setdefault(o, len(frames)) for o in orientations])
    return np.array([o.rotation() for o in frames]), index


def field_pattern(mounted, zenith_deg, azimuth_deg):
    """(F_theta, F_phi) in the GCS of the elements of a MountedArray: (G, R)
    field-group rows for (R,) angles shared by all elements, or (K, R)
    element rows for (K, R) angles with one row per element.  Field group g
    is mounted in the frame ``mounted.frames[mounted.frame_index[g]]`` and
    slanted by ``mounted.slants[g]`` degrees; element k is in group
    ``mounted.group_index[k]``.

    Each direction is rotated into the element frame, where the power
    pattern gives the amplitude and the slant zeta splits it into
    (cos zeta, sin zeta); the basis is rotated back through the angle psi.
    Power is preserved exactly.  Shared angles are transformed, and the
    power pattern and cos psi and sin psi evaluated, once per frame and
    then expanded to the groups by ``frame_index``.
    """
    p, frames, row = mounted.pattern, mounted.frames, mounted.frame_index
    slants = mounted.slants
    zen = np.asarray(zenith_deg, dtype=float)
    az = np.asarray(azimuth_deg, dtype=float)
    if zen.ndim == 1:
        zen, az = zen[None], az[None]      # one output row per frame
    else:
        gi = mounted.group_index           # one frame per angle row
        frames, row, slants = frames[row[gi]], slice(None), slants[gi]
    zen_l, az_l, psi = gcs_to_lcs(frames, zen, az)
    a_db = element_power_pattern(p, zen_l, az_l) + p.max_gain_dbi
    amp = (10.0 ** (a_db / 20.0))[row]
    zeta = np.radians(slants)[:, None]
    f_th_l, f_ph_l = amp * np.cos(zeta), amp * np.sin(zeta)
    psi = np.radians(psi)
    c, s = np.cos(psi)[row], np.sin(psi)[row]
    return c * f_th_l - s * f_ph_l, s * f_th_l + c * f_ph_l


@dataclass(frozen=True)
class PanelArray:
    """Uniform planar array of M x N element sites.

    Spacings are in wavelengths.  P=2 places co-located +/-45 deg slanted
    element pairs at each site; a single-polarized array has slant 0.
    """
    m: int = 1            # vertical elements (rows)
    n: int = 1            # horizontal elements (columns)
    p: int = 1            # polarizations (1 or 2)
    d_v: float = 0.5
    d_h: float = 0.5
    element: ElementPattern = field(default_factory=ElementPattern)

    def slants(self):
        return (0.0,) if self.p == 1 else (45.0, -45.0)


def element_grid(a, wavelength):
    """The element sites of ``a`` as an M x N grid.

    Returns (y (N,), z (M,)): the array-frame column and row coordinates in
    meters, exactly as mount_bs_array places its sites.
    """
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    r, c = np.divmod(np.arange(a.m * a.n), a.n)
    ys, zs = c * a.d_h * wavelength, r * a.d_v * wavelength
    # centred on the mean over all M*N sites: a per-axis mean rounds differently
    return ys[:a.n] - ys.mean(), zs[::a.n] - zs.mean()


@dataclass(frozen=True)
class UEDevice:
    """Handheld or CPE device with candidate antenna locations.

    Dimensions follow the (X, Y, Z) cm convention: handheld (15, 7, 0) lies
    in the horizontal plane, CPE (0, 20, 20) is a vertical square.  Each
    candidate's boresight points along the outward radial from the device
    center (the center candidate uses the device normal).
    """
    kind: str = "handheld"  # "handheld" | "CPE"


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
    """M x N layout of a mounted planar array (see element_grid).

    ``y`` (N,) / ``z`` (M,) are the exact array-frame column / row
    coordinates and ``axes`` (3, 2) the GCS directions of the array's y and
    z axes, so that the offset of site r N + c is y[c] axes[:, 0] +
    z[r] axes[:, 1].
    """
    y: np.ndarray
    z: np.ndarray
    axes: np.ndarray


@dataclass
class MountedArray:
    """An antenna aperture placed in the GCS, in the factored form that
    ``synthesize`` works on: each element is one (field group, site) pair.

    site_offsets: (P, 3) element site offsets from ``reference`` in meters;
    co-located elements (a dual-polarized pair) share a site, and a UE
    device's candidate location c is its site c (UE masks).
    site_index: (K,) each element's site.
    slants: (G,) polarization slant in degrees of each field group; a
    group's slant and frame fix its elements' field pattern.
    group_index: (K,) each element's field group.
    frames: (O, 3, 3) GCS-from-LCS rotations of the distinct group
    orientations, in first-seen order (mounting_frames), built once at
    mount; field_pattern and the SNS site projection read them.
    frame_index: (G,) each field group's frame.
    grid: the PlanarGrid of a uniform planar array, whose site r N + c sits
    at row r and column c, None otherwise.
    """
    reference: np.ndarray
    site_offsets: np.ndarray
    site_index: np.ndarray
    slants: np.ndarray
    group_index: np.ndarray
    frames: np.ndarray
    frame_index: np.ndarray
    pattern: ElementPattern
    grid: PlanarGrid = None

    @property
    def size(self):
        return self.site_index.shape[0]

    @property
    def offsets(self):
        """(K, 3) element offsets from ``reference`` in meters."""
        return self.site_offsets[self.site_index]

    def positions(self):
        return self.reference[None, :] + self.offsets

    def placed_at(self, reference):
        """This array with its reference point at ``reference``; the copy
        shares every other field."""
        return replace(self, reference=np.asarray(reference, dtype=float))


def mount_bs_array(array, site_position, sector_orientation, wavelength):
    """Place a PanelArray at a site, boresight along the sector bearing.

    The sites are the array's element_grid in the array frame (boresight
    +x, columns along +y, rows along +z), row-major and centred on the
    array's geometric centre.  Elements are ordered polarization-major,
    then row, then column: element k sits at site k mod (M N) in field
    group k // (M N), one group per slant, so a dual-polarized pair shares
    a site.
    """
    y, z = element_grid(array, wavelength)
    frames, index = mounting_frames([sector_orientation] * array.p)
    rot = frames[0]
    mn = array.m * array.n
    sites = np.stack([np.zeros(mn), np.tile(y, array.m),
                      np.repeat(z, array.n)], axis=1)
    k = np.arange(array.p * mn)
    return MountedArray(np.asarray(site_position, dtype=float), sites @ rot.T,
                        k % mn, np.array(array.slants()), k // mn, frames,
                        index, array.element, PlanarGrid(y, z, rot[:, 1:]))


def mount_ue_device(device, ue_position, dual_polarized=True):
    """Place all candidate antennas of a UE device (dual-polarized pairs by
    default, slant-major) around the UE position, with the device frame
    along the GCS.  The candidates are the sites, and each element is its
    own field group."""
    offs, oris = zip(*ue_candidate_locations(device))
    slants = (0.0, 90.0) if dual_polarized else (0.0,)
    k = np.arange(len(slants) * len(offs))
    return MountedArray(np.asarray(ue_position, dtype=float), np.array(offs),
                        k % len(offs), np.repeat(slants, len(offs)), k,
                        *mounting_frames(list(oris) * len(slants)),
                        ElementPattern.isotropic())
