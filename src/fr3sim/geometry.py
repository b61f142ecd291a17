"""Coordinate systems, network layouts, UE dropping, and per-link geometry.

Conventions (global coordinate system, GCS): z points up, azimuth is
measured counter-clockwise from the +x axis in [-180, 180] deg, zenith is
measured from the +z axis (0 = straight up, 90 = horizon) in [0, 180] deg.
"""

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np



def vec3(x, y, z):
    return np.array([float(x), float(y), float(z)])


def wrap_azimuth(a):
    """Wrap azimuth angle(s) in degrees to [-180, 180]."""
    return (np.asarray(a, dtype=float) + 180.0) % 360.0 - 180.0


def wrap_zenith(t):
    """Fold zenith angle(s) in degrees into [0, 180] (mirror rule)."""
    t = np.abs(np.asarray(t, dtype=float)) % 360.0
    return np.where(t > 180.0, 360.0 - t, t)


def _trig(zenith_deg, azimuth_deg):
    """(cos, sin) of the zenith and (cos, sin) of the azimuth, in degrees."""
    th = np.radians(zenith_deg)
    ph = np.radians(azimuth_deg)
    return np.cos(th), np.sin(th), np.cos(ph), np.sin(ph)


def sph_unit(zenith_deg, azimuth_deg):
    """Unit vector(s) for spherical angles; output shape (..., 3)."""
    ct, st, cp, sp = _trig(zenith_deg, azimuth_deg)
    return np.stack([st * cp, st * sp, ct], axis=-1)


def unit_to_angles(v):
    """Inverse of sph_unit: (zenith, azimuth) in degrees for unit vectors."""
    v = np.asarray(v, dtype=float)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    # |v| summed in the order np.linalg.norm takes it over the last axis
    norm = np.sqrt(((0.0 + x * x) + y * y) + z * z)
    zen = np.degrees(np.arccos(np.clip(z / norm, -1.0, 1.0)))
    az = np.degrees(np.arctan2(y, x))
    return zen, az


@dataclass(frozen=True)
class Orientation:
    """Bearing / downtilt / slant rotation in degrees (alpha, beta, gamma)."""
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0

    def rotation(self):
        """GCS-from-LCS rotation matrix R = Rz(alpha) Ry(beta) Rx(gamma)."""
        a, b, g = np.radians([self.alpha, self.beta, self.gamma])
        ca, sa = np.cos(a), np.sin(a)
        cb, sb = np.cos(b), np.sin(b)
        cg, sg = np.cos(g), np.sin(g)
        rz = np.array([[ca, -sa, 0], [sa, ca, 0], [0, 0, 1]])
        ry = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
        rx = np.array([[1, 0, 0], [0, cg, -sg], [0, sg, cg]])
        return rz @ ry @ rx


def gcs_to_lcs(rotation, zenith_deg, azimuth_deg):
    """Transform GCS direction(s) into the local frame of the GCS-from-LCS
    ``rotation`` (see Orientation.rotation).

    Returns (zenith', azimuth', psi) where psi is the polarization rotation
    angle in degrees: GCS field components are obtained from LCS components
    by a 2x2 rotation through psi.

    ``rotation`` may also be an (O, 3, 3) stack of rotation matrices,
    which broadcasts like a matmul stack against (1, R) or (O, R) angles.
    The radians, cosines and sines are taken once for the GCS angles and
    once for the LCS angles; the direction v and the theta and phi unit
    vectors are built from them.
    """
    r = np.asarray(rotation)
    ct, st, cp, sp = _trig(zenith_deg, azimuth_deg)
    v_lcs = np.stack([st * cp, st * sp, ct], axis=-1) @ r   # R.T per row
    zen_l, az_l = unit_to_angles(v_lcs)
    # psi from the projection of the rotated LCS theta-basis onto the GCS
    # theta and phi bases; the dot products are summed in numpy's reduction
    # order, whose leading 0.0 turns a -0.0 sum into +0.0 for arctan2
    ct_l, st_l, cp_l, sp_l = _trig(zen_l, az_l)
    th_l = np.stack([ct_l * cp_l, ct_l * sp_l, -st_l], axis=-1) \
        @ np.swapaxes(r, -1, -2)
    t0, t1, t2 = th_l[..., 0], th_l[..., 1], th_l[..., 2]
    cos_psi = ((0.0 + ct * cp * t0) + ct * sp * t1) + -st * t2
    sin_psi = ((0.0 + -sp * t0) + cp * t1) + 0.0 * t2
    psi = np.degrees(np.arctan2(sin_psi, cos_psi))
    return zen_l, az_l, psi


@dataclass
class SiteLayout:
    """BS sites as columns: ``positions`` (S, 3) in meters, one row per
    site, and the ``sectors`` (Orientation per sector) that every site
    shares."""
    positions: np.ndarray
    sectors: tuple
    isd: float
    wrap_vectors: list = field(default_factory=list)  # excludes the identity
    drop_region: tuple = ("rect", -1.0, 1.0, -1.0, 1.0)


def build_hex_layout(isd, n_rings=2, h_bs=35.0, sector_offset_deg=30.0,
                     downtilt_deg=0.0):
    """Hexagonal macro grid: central site plus ``n_rings`` rings.

    n_rings=2 gives the standard 19-site cluster.  Each site carries three
    sectors whose boresights default to 30/150/270 deg from east.  Wrap
    translation vectors map any point into the central cluster; the set is
    the six 60-deg rotations of the cluster lattice translation.
    """
    if isd <= 0:
        raise ValueError("isd must be positive")
    a1 = np.array([isd, 0.0])
    a2 = np.array([isd * 0.5, isd * np.sqrt(3.0) / 2.0])
    sectors = tuple(Orientation(wrap_azimuth(sector_offset_deg + 120.0 * k), downtilt_deg, 0.0)
                    for k in range(3))
    sites = []
    for i in range(-n_rings, n_rings + 1):
        for j in range(max(-n_rings, -i - n_rings), min(n_rings, -i + n_rings) + 1):
            p = i * a1 + j * a2
            sites.append(vec3(p[0], p[1], h_bs))
    sites.sort(key=lambda s: (np.hypot(s[0], s[1]).round(6),
                              np.degrees(np.arctan2(s[1], s[0])).round(6)))
    # cluster translation (i, j) = (n_rings + 1, n_rings): covers 1 + 3 n (n+1) sites
    t0 = (n_rings + 1) * a1 + n_rings * a2
    wraps = []
    c, s = np.cos(np.pi / 3.0), np.sin(np.pi / 3.0)
    rot = np.array([[c, -s], [s, c]])
    t = t0
    for _ in range(6):
        wraps.append(vec3(t[0], t[1], 0.0))
        t = rot @ t
    half = n_rings * isd + isd / np.sqrt(3.0)
    return SiteLayout(np.array(sites), sectors, isd, wraps,
                      ("rect", -half, half, -half, half))


def build_indoor_layout(width, depth, n_bs, h_bs):
    """Rectangular indoor hall with ceiling-mounted BSs on a regular grid.

    The BS count is factored into rows x cols matching the aspect ratio;
    when no exact factorization fits, two rows are used (first row takes the
    extra BS).  Ceiling BSs point straight down (downtilt 90 deg).
    """
    if width <= 0 or depth <= 0:
        raise ValueError("area dimensions must be positive")
    if n_bs < 1:
        raise ValueError("n_bs must be >= 1")
    best = None
    for rows in range(1, n_bs + 1):
        if n_bs % rows:
            continue
        cols = n_bs // rows
        mismatch = abs(np.log((cols / rows) / (width / depth)))
        if best is None or mismatch < best[0]:
            best = (mismatch, rows, cols)
    # a grid "fits" when its aspect ratio is within a factor of 3 of the
    # hall's; otherwise fall back to two rows (first row takes the extra BS)
    if best is not None and best[0] <= np.log(3.0):
        _, rows, cols = best
        row_counts = [cols] * rows
    else:
        rows = 2
        row_counts = [int(np.ceil(n_bs / 2)), n_bs // 2]
    sites = []
    dy = depth / rows
    for r, cnt in enumerate(row_counts):
        dx = width / cnt
        y = dy * (r + 0.5)
        for k in range(cnt):
            sites.append(vec3(dx * (k + 0.5), y, h_bs))
    return SiteLayout(np.array(sites), (Orientation(0.0, 90.0, 0.0),), 0.0,
                      [], ("rect", 0.0, width, 0.0, depth))


def build_disc_layout(radius, h_bs, sector_orientation=Orientation(0.0, 0.0, 0.0)):
    """Single site at the origin with a disc drop region (paper-style
    single-cell deployments)."""
    return SiteLayout(np.array([vec3(0.0, 0.0, h_bs)]), (sector_orientation,),
                      0.0, [], ("disc", 0.0, 0.0, float(radius)))


# lattice offsets of the 3 x 3 candidate images around the rounded
# lattice coordinates, searched in this order
_NEIGHBOURS = np.array([(di, dj) for di in (-1.0, 0.0, 1.0)
                        for dj in (-1.0, 0.0, 1.0)])


def effective_ue_position(site_pos, ue_pos, wrap_vectors):
    """Wrap image of the UE closest to the site (the UE itself if there is
    no wrap set).

    ``site_pos`` and ``ue_pos`` broadcast over (..., 3), so one call covers
    every (UE, site) pair.  The UE-site displacement is reduced modulo the
    cluster translation lattice (nearest-image convention), which makes the
    effective distance exactly invariant under any lattice translation of
    the UE.  Of two equally near images, the first candidate in
    ``_NEIGHBOURS`` order wins.
    """
    ue = np.asarray(ue_pos, dtype=float)
    site = np.asarray(site_pos, dtype=float)
    out = np.array(np.broadcast_to(ue, np.broadcast_shapes(ue.shape, site.shape)))
    if not wrap_vectors:
        return out
    basis = np.column_stack([wrap_vectors[0][:2], wrap_vectors[1][:2]])
    delta = out[..., :2] - site[..., :2]
    base = np.round(np.linalg.solve(basis, delta[..., None]))    # (..., 2, 1)
    shift = (basis @ (base[..., None, :, :] + _NEIGHBOURS[:, :, None]))[..., 0]
    cand = delta[..., None, :] - shift                           # (..., 9, 2)
    best = np.argmin(np.hypot(cand[..., 0], cand[..., 1]), axis=-1)
    out[..., :2] -= np.take_along_axis(shift, best[..., None, None], axis=-2)[..., 0, :]
    return out


# dropped UEs as columns, one row per UE: positions (U, 3) m, indoor (U,)
# bool, building (U,) "residential" | "commercial" | "" and floor (U,) int
Drop = namedtuple("Drop", "positions indoor building floor")


def drop_ues(layout, count, sc, rng):
    """Drop ``count`` UEs uniformly over the layout's drop region.

    Per-UE draws happen in a fixed order (x, y, indoor, building, floor) so
    seeds reproduce.  Heights follow the scenario rules: outdoor UEs at the
    scenario's outdoor height, indoor UEs uniformly over the floors of their
    building type.  Positions closer than the scenario minimum 2D distance
    to any site, measured to the nearest wrap image as in serving, are
    rejection-resampled.  The drop is the one place that decides whether a
    UE is indoors and in which building type.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    min_d = sc.value("min_bs_ue_d2d")
    indoor_ratio = sc.value("indoor_ratio")
    commercial = sc.value("commercial_fraction", default=0.0)
    region = layout.drop_region
    site_pos = layout.positions
    rows = []   # (x, y, indoor, building, floor) per UE
    attempts_budget = 1000 * count + 1000
    while len(rows) < count:
        if attempts_budget <= 0:
            raise RuntimeError("minimum-distance rule cannot be satisfied; drop area exhausted")
        attempts_budget -= 1
        if region[0] == "rect":
            _, x0, x1, y0, y1 = region
            x = rng.uniform(x0, x1)
            y = rng.uniform(y0, y1)
        else:
            _, cx, cy, r = region
            ang = rng.uniform(0.0, 2.0 * np.pi)
            rad = r * np.sqrt(rng.uniform())
            x, y = cx + rad * np.cos(ang), cy + rad * np.sin(ang)
        if min_d > 0:
            eff = effective_ue_position(site_pos, vec3(x, y, 0.0),
                                        layout.wrap_vectors)
            if np.linalg.norm(eff[:, :2] - site_pos[:, :2], axis=1).min() < min_d:
                continue
        indoor = bool(rng.uniform() < indoor_ratio)
        building, floor = "", 0
        if indoor:
            building = "commercial" if rng.uniform() < commercial else "residential"
            floor = int(rng.integers(0, int(sc.value(f"{building}_floors", default=1))))
        rows.append((x, y, indoor, building, floor))
    c = np.array(rows, dtype=[("x", float), ("y", float), ("indoor", bool),
                              ("building", "U11"), ("floor", int)])
    h = np.where(c["indoor"], sc.value("floor_base_m", default=1.5)
                 + sc.value("floor_step_m", default=3.0) * c["floor"],
                 sc.value("ue_height_outdoor"))
    return Drop(np.column_stack([c["x"], c["y"], h]), c["indoor"],
                c["building"], c["floor"])


@dataclass
class LinkGeometry:
    """LOS geometry of BS-UE links; each field holds one value per link."""
    d2d: np.ndarray
    d3d: np.ndarray
    h_bs: np.ndarray
    h_ue: np.ndarray
    aod_az: np.ndarray   # LOS azimuth of departure at the BS [deg]
    aoa_az: np.ndarray   # LOS azimuth of arrival at the UE [deg]
    zod: np.ndarray      # LOS zenith of departure [deg]
    zoa: np.ndarray      # LOS zenith of arrival [deg]


def link_geometry(bs_position, ue_position):
    """Geometric quantities of BS-UE pairs in the GCS.

    The positions broadcast over (..., 3), and every field has their
    broadcast shape without the last axis: one call covers all links, and a
    single pair gives 0-d fields.
    """
    bs, ue = np.broadcast_arrays(np.asarray(bs_position, dtype=float),
                                 np.asarray(ue_position, dtype=float))
    dv = ue - bs
    # |dv| from the dot product of dv with itself, as np.linalg.norm takes
    # it of one vector; a sum over the last axis rounds some links apart
    d3d = np.sqrt((dv[..., None, :] @ dv[..., :, None])[..., 0, 0])
    if np.any(d3d == 0.0):
        raise ValueError("BS and UE positions coincide")
    zod, aod = unit_to_angles(dv)
    zoa, aoa = unit_to_angles(-dv)
    return LinkGeometry(d2d=np.hypot(dv[..., 0], dv[..., 1]), d3d=d3d,
                        h_bs=bs[..., 2], h_ue=ue[..., 2],
                        aod_az=wrap_azimuth(aod), aoa_az=wrap_azimuth(aoa),
                        zod=zod, zoa=zoa)
