"""Coordinate systems, network layouts, UE dropping, and per-link geometry.

Conventions (global coordinate system, GCS): z points up, azimuth is
measured counter-clockwise from the +x axis in [-180, 180] deg, zenith is
measured from the +z axis (0 = straight up, 90 = horizon) in [0, 180] deg.
"""

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


def sph_unit(zenith_deg, azimuth_deg):
    """Unit vector(s) for spherical angles; output shape (..., 3)."""
    th = np.radians(zenith_deg)
    ph = np.radians(azimuth_deg)
    return np.stack([np.sin(th) * np.cos(ph),
                     np.sin(th) * np.sin(ph),
                     np.cos(th)], axis=-1)


def unit_to_angles(v):
    """Inverse of sph_unit: (zenith, azimuth) in degrees for unit vectors."""
    v = np.asarray(v, dtype=float)
    zen = np.degrees(np.arccos(np.clip(v[..., 2] / np.linalg.norm(v, axis=-1), -1.0, 1.0)))
    az = np.degrees(np.arctan2(v[..., 1], v[..., 0]))
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


def gcs_to_lcs(orientation, zenith_deg, azimuth_deg):
    """Transform GCS direction(s) into the local frame of ``orientation``.

    Returns (zenith', azimuth', psi) where psi is the polarization rotation
    angle in degrees: GCS field components are obtained from LCS components
    by a 2x2 rotation through psi.

    ``orientation`` may also be an (O, 3, 3) stack of rotation matrices,
    which broadcasts like a matmul stack against (1, R) or (O, R) angles.
    """
    r = orientation.rotation() if isinstance(orientation, Orientation) \
        else np.asarray(orientation)
    v = sph_unit(zenith_deg, azimuth_deg)
    v_lcs = v @ r  # == R.T applied to each row vector
    zen_l, az_l = unit_to_angles(v_lcs)
    # psi from the projection of the rotated LCS theta-basis onto the GCS basis
    th_l = _theta_hat(zen_l, az_l) @ np.swapaxes(r, -1, -2)
    cos_psi = np.sum(_theta_hat(zenith_deg, azimuth_deg) * th_l, axis=-1)
    sin_psi = np.sum(_phi_hat(zenith_deg, azimuth_deg) * th_l, axis=-1)
    psi = np.degrees(np.arctan2(sin_psi, cos_psi))
    return zen_l, az_l, psi


def lcs_to_gcs(orientation, zenith_deg, azimuth_deg):
    """Inverse transform of gcs_to_lcs (direction only)."""
    r = orientation.rotation()
    v = sph_unit(zenith_deg, azimuth_deg) @ r.T
    return unit_to_angles(v)


@dataclass
class Site:
    position: np.ndarray
    sectors: tuple  # tuple of Orientation, one per sector


@dataclass
class SiteLayout:
    sites: list
    isd: float
    wrap_vectors: list = field(default_factory=list)  # excludes the identity
    drop_region: tuple = ("rect", -1.0, 1.0, -1.0, 1.0)

    @property
    def n_sites(self):
        return len(self.sites)


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
            sites.append(Site(vec3(p[0], p[1], h_bs), sectors))
    sites.sort(key=lambda s: (np.hypot(s.position[0], s.position[1]).round(6),
                              np.degrees(np.arctan2(s.position[1], s.position[0])).round(6)))
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
    return SiteLayout(sites, isd, wraps, ("rect", -half, half, -half, half))


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
    sectors = (Orientation(0.0, 90.0, 0.0),)
    sites = []
    dy = depth / rows
    for r, cnt in enumerate(row_counts):
        dx = width / cnt
        y = dy * (r + 0.5)
        for k in range(cnt):
            sites.append(Site(vec3(dx * (k + 0.5), y, h_bs), sectors))
    return SiteLayout(sites, 0.0, [], ("rect", 0.0, width, 0.0, depth))


def build_disc_layout(radius, h_bs, sector_orientation=None):
    """Single site at the origin with a disc drop region (paper-style
    single-cell deployments)."""
    sec = sector_orientation if sector_orientation is not None else Orientation(0.0, 0.0, 0.0)
    site = Site(vec3(0.0, 0.0, h_bs), (sec,))
    return SiteLayout([site], 0.0, [], ("disc", 0.0, 0.0, float(radius)))


@dataclass
class UE:
    position: np.ndarray
    indoor: bool = False
    building: str = ""  # "residential" | "commercial" | "" (outdoor / n.a.)
    floor: int = 0

    @property
    def height(self):
        return float(self.position[2])


def wrap_images(point, wrap_vectors, reach=1):
    """The point plus its lattice-translated images.

    ``reach`` = 1 gives the classic 7-image set; larger values enumerate all
    integer combinations of the two lattice basis vectors within that reach
    (brute-force oracle).
    """
    point = np.asarray(point, dtype=float)
    if not wrap_vectors:
        return point[None, :]
    if reach == 1:
        imgs = [point]
        for w in wrap_vectors:
            imgs.append(point + w)
        return np.array(imgs)
    b1, b2 = wrap_vectors[0], wrap_vectors[1]
    imgs = []
    for i in range(-reach, reach + 1):
        for j in range(-reach, reach + 1):
            imgs.append(point + i * b1 + j * b2)
    return np.array(imgs)


def effective_ue_position(site_pos, ue_pos, wrap_vectors):
    """Wrap image of the UE closest to the site (identity if no wrap set).

    The UE-site displacement is reduced modulo the cluster translation
    lattice (nearest-image convention), which makes the effective distance
    exactly invariant under any lattice translation of the UE.
    """
    ue = np.asarray(ue_pos, dtype=float)
    if not wrap_vectors:
        return ue
    basis = np.column_stack([wrap_vectors[0][:2], wrap_vectors[1][:2]])
    delta = ue[:2] - np.asarray(site_pos, dtype=float)[:2]
    frac = np.linalg.solve(basis, delta)
    base = np.round(frac)
    best, best_d = None, np.inf
    for di in (-1.0, 0.0, 1.0):
        for dj in (-1.0, 0.0, 1.0):
            k = base + np.array([di, dj])
            cand = delta - basis @ k
            d = np.hypot(cand[0], cand[1])
            if d < best_d - 1e-12 or (abs(d - best_d) <= 1e-12 and best is None):
                best, best_d = k, d
    out = ue.copy()
    out[:2] = ue[:2] - basis @ best
    return out


def drop_ues(layout, count, sc, rng):
    """Drop ``count`` UEs uniformly over the layout's drop region.

    Per-UE draws happen in a fixed order (x, y, indoor, building, floor) so
    seeds reproduce.  Heights follow the scenario rules: outdoor UEs at the
    scenario's outdoor height, indoor UEs uniformly over the floors of their
    building type.  Positions closer than the scenario minimum 2D distance
    to any site are rejection-resampled.
    """
    if count == 0:
        return []
    if count < 0:
        raise ValueError("count must be >= 0")
    min_d = sc.min_bs_ue_distance()
    region = layout.drop_region
    site_xy = np.array([s.position[:2] for s in layout.sites])
    ues = []
    attempts_budget = 1000 * count + 1000
    while len(ues) < count:
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
            xy = np.array([x, y])
            if layout.wrap_vectors:
                imgs = wrap_images(vec3(x, y, 0.0), layout.wrap_vectors)[:, :2]
                d = np.min(np.linalg.norm(imgs[None, :, :] - site_xy[:, None, :], axis=2))
            else:
                d = np.min(np.linalg.norm(site_xy - xy, axis=1))
            if d < min_d:
                continue
        indoor = bool(rng.uniform() < sc.indoor_ratio())
        building = ""
        floor = 0
        h = sc.outdoor_ue_height()
        if indoor:
            building = "commercial" if rng.uniform() < sc.commercial_fraction() else "residential"
            n_floors = sc.building_floors(building)
            floor = int(rng.integers(0, n_floors))
            h = sc.floor_height(floor)
        ues.append(UE(vec3(x, y, h), indoor, building, floor))
    return ues


@dataclass
class LinkGeometry:
    d2d: float
    d3d: float
    h_bs: float
    h_ue: float
    aod_az: float   # LOS azimuth of departure at the BS [deg]
    aoa_az: float   # LOS azimuth of arrival at the UE [deg]
    zod: float      # LOS zenith of departure [deg]
    zoa: float      # LOS zenith of arrival [deg]
    d2d_in: float = 0.0


def link_geometry(bs_position, ue_position):
    """Geometric quantities of one BS-UE pair in the GCS."""
    bs = np.asarray(bs_position, dtype=float)
    ue = np.asarray(ue_position, dtype=float)
    dv = ue - bs
    d2d = float(np.hypot(dv[0], dv[1]))
    d3d = float(np.linalg.norm(dv))
    if d3d == 0.0:
        raise ValueError("BS and UE positions coincide")
    zod, aod = unit_to_angles(dv)
    zoa, aoa = unit_to_angles(-dv)
    return LinkGeometry(d2d=d2d, d3d=d3d, h_bs=float(bs[2]), h_ue=float(ue[2]),
                        aod_az=float(wrap_azimuth(aod)), aoa_az=float(wrap_azimuth(aoa)),
                        zod=float(zod), zoa=float(zoa))
