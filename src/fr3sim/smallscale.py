"""Per-link multipath parameter instantiation: delays, powers, angles,
coupling, XPR, and polarization power weights."""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .geometry import wrap_azimuth, wrap_zenith
from .scenario import LOS, ParameterError

# Ray offset angle basis for M = 20 (unit RMS, zero sum, +/- pairs).
RAY_OFFSETS_20 = np.array([
    0.0447, -0.0447, 0.1413, -0.1413, 0.2492, -0.2492, 0.3715, -0.3715,
    0.5129, -0.5129, 0.6797, -0.6797, 0.8844, -0.8844, 1.1481, -1.1481,
    1.5195, -1.5195, 2.1551, -2.1551])

# Sub-cluster ray groups for M = 20 (0-based ray indices).
SUBCLUSTER_RAYS_20 = (
    np.array([0, 1, 2, 3, 4, 5, 6, 7, 18, 19]),
    np.array([8, 9, 10, 11, 16, 17]),
    np.array([12, 13, 14, 15]),
)
SUBCLUSTER_DELAY_FACTORS = (0.0, 1.28, 2.56)  # times c_DS
SUBCLUSTER_FRACTIONS = (0.5, 0.3, 0.2)


def ray_offset_basis(m):
    """Offset-angle basis alpha_m for an arbitrary ray count.

    M = 20 returns the tabulated basis.  Other counts use standard-normal
    quantile midpoints rescaled to unit RMS, preserving the tabulated
    basis's symmetry, zero sum, and unit power.  M = 1 is one ray at the
    cluster centre, offset 0.
    """
    if m == 20:
        return RAY_OFFSETS_20.copy()
    q = ndtri((np.arange(1, m + 1) - 0.5) / m)
    rms = np.sqrt(np.mean(q ** 2))
    return q / rms if rms > 0 else q


def subcluster_groups(m):
    """Ray-index groups of the three intra-cluster delay taps.

    The M = 20 mapping is the standardized table; other ray counts regroup
    by the 50/30/20 percent fractions (largest-remainder rounding), and
    groups that round to zero rays are dropped.  Only trailing groups round
    to zero (M = 1, 2), so group i keeps SUBCLUSTER_DELAY_FACTORS[i].
    """
    if m == 20:
        return [g.copy() for g in SUBCLUSTER_RAYS_20]
    raw = np.array(SUBCLUSTER_FRACTIONS) * m
    sizes = np.floor(raw).astype(int)
    rem = raw - sizes
    for _ in range(m - sizes.sum()):
        i = int(np.argmax(rem))
        sizes[i] += 1
        rem[i] = -1
    groups, start = [], 0
    for s in sizes[sizes > 0]:
        groups.append(np.arange(start, start + s))
        start += s
    return groups


@dataclass
class ClusterSet:
    """All small-scale parameters of one link."""
    n: int
    m: int
    tau: np.ndarray                    # (n,) s, sorted, tau[0] = 0
    tau_scaled: np.ndarray             # (n,) s; equals tau outside LOS
    p: np.ndarray                      # (n,) linear scattered powers
    p_los: float                       # specular power (0 outside LOS)
    aoa: np.ndarray = None             # (n, m) deg
    aod: np.ndarray = None
    zoa: np.ndarray = None
    zod: np.ndarray = None
    kappa: np.ndarray = None           # (n, m) linear XPR
    eta: np.ndarray = None             # (n, m, 4) order: tt, tp, pt, pp
    strongest: tuple = ()              # indices of the two strongest clusters
    subclusters: list = field(default_factory=list)  # ray-index groups
    c_ds: float = 0.0                  # intra-cluster delay spread [s]

    @property
    def tap_delays(self):
        return self.tau_scaled

    def taps(self, base_delay=0.0):
        """Delay taps in cluster order as (delay, flat ray indices, power).

        The two strongest clusters split into sub-cluster taps delayed by
        SUBCLUSTER_DELAY_FACTORS times c_ds, each carrying its share of the
        rays' power.
        """
        out = []
        for ci in range(self.n):
            base = base_delay + self.tap_delays[ci]
            rays = np.arange(ci * self.m, (ci + 1) * self.m)
            if ci not in self.strongest:
                out.append((base, rays, self.p[ci]))
                continue
            for factor, grp in zip(SUBCLUSTER_DELAY_FACTORS, self.subclusters):
                out.append((base + factor * self.c_ds, rays[grp],
                            self.p[ci] * grp.size / self.m))
        return out


def draw_cluster_count(sc, state_key, rng, enabled=True):
    """Cluster count: discrete uniform on [D1, D2] when variability is on,
    otherwise the fixed table value."""
    if not enabled:
        return int(sc.value("n_clusters", state_key))
    d1, d2 = sc.cluster_range(state_key)
    return int(rng.integers(d1, d2 + 1))


def generate_delays(n, ds, r_tau, k_db, los, rng):
    """Exponential cluster delays, min-subtracted and sorted ascending.

    Under LOS the delays are additionally divided by the K-dependent cubic
    compensation constant; the scaled delays time the taps but are not used
    for power generation.
    """
    if ds <= 0:
        raise ValueError("DS must be positive")
    if r_tau < 1:
        raise ValueError("r_tau must be >= 1")
    x = rng.uniform(size=n)
    tau = -r_tau * ds * np.log(x)
    tau = np.sort(tau - tau.min())
    c_tau = 1.0
    if los:
        k = k_db
        c_tau = 0.7705 - 0.0433 * k + 0.0002 * k ** 2 + 0.000017 * k ** 3
    return tau, tau / c_tau, c_tau


def generate_powers(tau, ds, r_tau, zeta_db, k_db, los, rng):
    """Cluster powers with exponential delay decay and per-cluster
    shadowing; normalized so scattered + specular power equals one."""
    z = rng.normal(0.0, zeta_db, size=tau.shape[0])
    p = np.exp(-tau * (r_tau - 1.0) / (r_tau * ds)) * 10.0 ** (-z / 10.0)
    p = p / p.sum()
    if not los:
        return p, 0.0
    k_lin = 10.0 ** (k_db / 10.0)
    p_los = k_lin / (1.0 + k_lin)
    return p / (1.0 + k_lin), float(p_los)


def rank_strongest(p):
    order = np.argsort(p)[::-1]
    return tuple(int(i) for i in order[: min(2, p.shape[0])])


def prune_clusters(tau, tau_scaled, p, p_los, threshold_db=25.0):
    """Drop clusters more than threshold_db below the strongest one.

    Survivor powers are rescaled to preserve the total scattered power so
    the sum-to-one invariant stays exact.  The last value returned is the
    (ascending) original index of each survivor.
    """
    kept = np.flatnonzero(p >= p.max() * 10.0 ** (-threshold_db / 10.0))
    p2 = p[kept]
    p2 = p2 * (p.sum() / p2.sum())
    return tau[kept], tau_scaled[kept], p2, p_los, kept


def _scaling_factor(table, n, k_db=None, kind="phi"):
    """Interpolated C_phi / C_theta for cluster count n, with the LOS
    K-factor correction polynomial applied when k_db is given."""
    ns = np.array(sorted(table))
    if n < ns[0] or n > ns[-1]:
        raise ParameterError(f"no angle scaling factor tabulated for N={n}")
    vals = np.array([table[i] for i in ns])
    c = float(np.interp(n, ns, vals))
    if k_db is not None:
        k = k_db
        if kind == "phi":
            c *= 1.1035 - 0.028 * k - 0.002 * k ** 2 + 0.0001 * k ** 3
        else:
            c *= 1.3086 + 0.0339 * k - 0.0077 * k ** 2 + 0.0002 * k ** 3
    return c


def _cluster_azimuths(p, spread, c_phi, center, los, rng):
    ratio = np.clip(p / p.max(), 1e-300, 1.0)
    phi_p = 2.0 * (spread / 1.4) * np.sqrt(-np.log(ratio)) / c_phi
    x = rng.choice((1.0, -1.0), size=p.shape[0])
    y = rng.normal(0.0, spread / 7.0, size=p.shape[0])
    if los:
        return x * phi_p + y - (x[0] * phi_p[0] + y[0] - center)
    return x * phi_p + y + center


def _cluster_zeniths(p, spread, c_theta, center, los, rng):
    ratio = np.clip(p / p.max(), 1e-300, 1.0)
    th_p = -spread * np.log(ratio) / c_theta
    x = rng.choice((1.0, -1.0), size=p.shape[0])
    y = rng.normal(0.0, spread / 7.0, size=p.shape[0])
    if los:
        return x * th_p + y - (x[0] * th_p[0] + y[0] - center)
    return x * th_p + y + center


def generate_angles(p, lsp, los, los_angles, ssp, scaling, m, rng,
                    n_total=None):
    """Cluster and ray angles for the four angle types.

    Azimuths use the wrapped-Gaussian inverse form, zeniths the Laplacian
    inverse form.  Draw order is fixed: AOA, AOD, ZOA, ZOD (signs then
    jitter per type).  Ray angles add the cluster-spread-scaled offset
    basis; all outputs are wrapped into their canonical ranges.

    ``los_angles`` is (aoa, aod, zoa, zod) of the direct path in degrees.
    ``n_total`` keys the scaling-factor lookup (the generated cluster count,
    which may exceed len(p) after pruning).
    """
    n = n_total if n_total is not None else p.shape[0]
    k_db = lsp.k_db if los else None
    c_phi = _scaling_factor(scaling["c_phi"], n, k_db, "phi")
    c_theta = _scaling_factor(scaling["c_theta"], n, k_db, "theta")
    aoa_c = _cluster_azimuths(p, lsp.asa, c_phi, los_angles[0], los, rng)
    aod_c = _cluster_azimuths(p, lsp.asd, c_phi, los_angles[1], los, rng)
    zoa_c = _cluster_zeniths(p, lsp.zsa, c_theta, los_angles[2], los, rng)
    zod_c = _cluster_zeniths(p, lsp.zsd, c_theta, los_angles[3], los, rng)
    basis = ray_offset_basis(m)
    aoa = wrap_azimuth(aoa_c[:, None] + ssp["c_asa"] * basis[None, :])
    aod = wrap_azimuth(aod_c[:, None] + ssp["c_asd"] * basis[None, :])
    zoa = wrap_zenith(zoa_c[:, None] + ssp["c_zsa"] * basis[None, :])
    zod = wrap_zenith(zod_c[:, None] + ssp["c_zsd"] * basis[None, :])
    return aoa, aod, zoa, zod


def couple_angles(aoa, aod, zoa, zod, strongest, subclusters, rng):
    """Random intra-cluster coupling of the four ray-angle lists.

    Azimuth arrival angles are permuted against departure angles, zenith
    arrivals against departures, then the azimuth pairs are permuted
    against the zenith pairs.  For the two strongest clusters every
    permutation acts within each sub-cluster ray group.  Multisets per
    cluster are preserved exactly.
    """
    n, m = aoa.shape
    aoa = aoa.copy()
    zoa = zoa.copy()
    aod = aod.copy()
    for i in range(n):
        if i in strongest:
            blocks = subclusters
        else:
            blocks = [np.arange(m)]
        for g in blocks:
            aoa[i, g] = aoa[i, g][rng.permutation(g.size)]
        for g in blocks:
            zoa[i, g] = zoa[i, g][rng.permutation(g.size)]
        for g in blocks:
            perm = rng.permutation(g.size)
            aod[i, g] = aod[i, g][perm]
            aoa[i, g] = aoa[i, g][perm]
    return aoa, aod, zoa, zod


def generate_xpr(mu_db, sigma_db, n, m, rng):
    """Per-ray log-normal cross-polarization power ratios (linear)."""
    if sigma_db < 0:
        raise ValueError("sigma must be non-negative")
    x = rng.normal(mu_db, sigma_db, size=(n, m))
    return 10.0 ** (x / 10.0)


def polarization_weights(kappa, rng, enabled=True):
    """Polarization power variability weights eta (order tt, tp, pt, pp).

    Raw weights are log-normal with 3 dB-sigma Gaussian exponents and are
    normalized per ray so that
    eta_tt + eta_pp + kappa^-1 (eta_tp + eta_pt) = 2 + 2 kappa^-1.
    Disabled, all weights are one.
    """
    n, m = kappa.shape
    if not enabled:
        return np.ones((n, m, 4))
    q = rng.normal(0.0, 3.0, size=(n, m, 4))
    eta_p = 10.0 ** (q / 10.0)
    inv_k = 1.0 / kappa
    denom = (eta_p[..., 0] + eta_p[..., 3]
             + eta_p[..., 1] * inv_k + eta_p[..., 2] * inv_k)
    return eta_p * ((2.0 + 2.0 * inv_k) / denom)[..., None]


def build_cluster_set(sc, state, lsp, los_angles, fc_ghz, rngs, scaling,
                      cluster_variability=False, pol_variability=False,
                      ray_count=None, prune_db=25.0):
    """Run steps 5-9 for one link and assemble the ClusterSet.

    ``rngs`` maps stage names ('count', 'delays', 'powers', 'angles',
    'coupling', 'xpr', 'pol') to independent generators so feature toggles
    do not shift other stages' draws.  ``scaling`` is the registry's
    angle-scaling table dict.
    """
    key = state.state_key
    ssp = sc.ssp(key, fc_ghz)
    los = state.los == "LOS" and state.location != "indoor"
    n = draw_cluster_count(sc, key, rngs["count"], enabled=cluster_variability)
    m = int(ray_count) if ray_count is not None else ssp["n_rays"]
    k_db = lsp.k_db if los else 0.0
    tau, tau_scaled, _ = generate_delays(n, lsp.ds, ssp["r_tau"], k_db, los,
                                         rngs["delays"])
    p, p_los = generate_powers(tau, lsp.ds, ssp["r_tau"], ssp["zeta"], k_db,
                               los, rngs["powers"])
    strongest = rank_strongest(p)
    tau, tau_scaled, p, p_los, kept = prune_clusters(tau, tau_scaled, p, p_los,
                                                     prune_db)
    strongest = tuple(int(np.searchsorted(kept, s)) for s in strongest
                      if s in kept)
    n_gen, n = n, p.shape[0]
    aoa, aod, zoa, zod = generate_angles(p, lsp, los, los_angles, ssp,
                                         scaling, m, rngs["angles"],
                                         n_total=n_gen)
    groups = subcluster_groups(m)
    aoa, aod, zoa, zod = couple_angles(aoa, aod, zoa, zod, strongest, groups,
                                       rngs["coupling"])
    kappa = generate_xpr(ssp["mu_xpr"], ssp["sigma_xpr"], n, m, rngs["xpr"])
    eta = polarization_weights(kappa, rngs["pol"], enabled=pol_variability)
    if not los:
        tau_scaled = tau
    return ClusterSet(n=n, m=m, tau=tau, tau_scaled=tau_scaled, p=p,
                      p_los=p_los, aoa=aoa, aod=aod, zoa=zoa, zod=zod,
                      kappa=kappa, eta=eta, strongest=strongest,
                      subclusters=groups, c_ds=ssp["c_ds"])
