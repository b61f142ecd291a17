"""Path loss, penetration loss, and spatially correlated LSP generation."""

import warnings
from dataclasses import dataclass

import numpy as np

from .scenario import LOS, LSP_ORDER_LOS, LSP_ORDER_NLOS, spow

C_LIGHT = 3.0e8  # m/s, free-space propagation velocity used throughout

AS_CAP_AZIMUTH = 104.0  # deg
AS_CAP_ZENITH = 52.0    # deg


class ValidityWarning(UserWarning):
    pass


def __getattr__(name):
    """Resolve ``fftconvolve`` on first access only.  It is unused here, but
    perfbench/tracing.py counts LSP field cells through this name.  Here
    and only here fr3sim touches scipy: ``import fr3sim`` and a run make
    no scipy import of any kind."""
    if name == "fftconvolve":
        from scipy.signal import fftconvolve
        return fftconvolve
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def breakpoint_distance(family, h_bs, h_ue, fc_ghz, env_height=1.0):
    """Dual-slope breakpoint distance in meters; fc enters in Hz."""
    fc_hz = fc_ghz * 1e9
    if family == "rma_dual":
        return 2.0 * np.pi * h_bs * h_ue * fc_hz / C_LIGHT
    # uma/umi form with effective antenna heights
    return 4.0 * (h_bs - env_height) * (h_ue - env_height) * fc_hz / C_LIGHT


def _scenario_breakpoint(sc, h_bs, h_ue, fc_ghz):
    """breakpoint_distance of ``sc``'s path-loss family at its environment
    height (1 m unless the table sets pl_env_height)."""
    return breakpoint_distance(sc.text("pl_family"), h_bs, h_ue, fc_ghz,
                               sc.value("pl_env_height", default=1.0))


def _pl1_rma(d, fc_ghz, h):
    return (20.0 * np.log10(40.0 * np.pi * d * fc_ghz / 3.0)
            + min(0.03 * h ** 1.72, 10.0) * np.log10(d)
            - min(0.044 * h ** 1.72, 14.77)
            + 0.002 * np.log10(h) * d)


def path_loss(sc, g, state, fc_ghz, nlos_floor=True):
    """Outdoor path loss in dB of every link of ``g``, one evaluation of the
    scenario's family over all of them.

    ``nlos_floor`` applies the max(PL_LOS, PL_NLOS) convention for NLOS
    links.  Links outside the table's d2D validity range are extrapolated,
    with one ``ValidityWarning`` per call.
    """
    d2d, d3d, h_bs, h_ue = (np.asarray(v, dtype=float)
                            for v in (g.d2d, g.d3d, g.h_bs, g.h_ue))
    if np.any(d3d <= 0):
        raise ValueError("non-positive link distance")
    family = sc.text("pl_family")
    d_min = sc.value("pl_d2d_min", default=0.0)
    d_max = sc.value("pl_d2d_max", default=np.inf)
    n_out = np.count_nonzero((d2d < d_min) | (d2d > d_max))
    if n_out:
        warnings.warn(f"{sc.name}: {n_out} of {d2d.size} links have d2D "
                      f"outside [{d_min}, {d_max}] m; extrapolated",
                      ValidityWarning)

    dbp = _scenario_breakpoint(sc, h_bs, h_ue, fc_ghz)
    if family == "rma_dual":
        h = sc.value("avg_building_height")
        w = sc.value("street_width")
        pl_los = np.where(d2d <= dbp, _pl1_rma(d3d, fc_ghz, h),
                          _pl1_rma(dbp, fc_ghz, h) + 40.0 * np.log10(d3d / dbp))
        pl_n = (161.04 - 7.1 * np.log10(w) + 7.5 * np.log10(h)
                - (24.37 - 3.7 * spow(h / h_bs, 2)) * np.log10(h_bs)
                + (43.42 - 3.1 * np.log10(h_bs)) * (np.log10(d3d) - 3.0)
                + 20.0 * np.log10(fc_ghz)
                - (3.2 * spow(np.log10(11.75 * h_ue), 2) - 4.97))
    elif family in ("uma_dual", "umi_dual"):
        if family == "uma_dual":
            a, slope1, corr = 28.0, 22.0, 9.0
            pl_n = 13.54 + 39.08 * np.log10(d3d) + 20.0 * np.log10(fc_ghz) \
                - 0.6 * (h_ue - 1.5)
        else:
            a, slope1, corr = 32.4, 21.0, 9.5
            pl_n = 35.3 * np.log10(d3d) + 22.4 + 21.3 * np.log10(fc_ghz) \
                - 0.3 * (h_ue - 1.5)
        pl_los = np.where(
            d2d <= dbp,
            a + slope1 * np.log10(d3d) + 20.0 * np.log10(fc_ghz),
            a + 40.0 * np.log10(d3d) + 20.0 * np.log10(fc_ghz)
            - corr * np.log10(spow(dbp, 2) + spow(h_bs - h_ue, 2)))
    elif family == "inh":
        pl_los = 32.4 + 17.3 * np.log10(d3d) + 20.0 * np.log10(fc_ghz)
        pl_n = 17.3 + 38.3 * np.log10(d3d) + 24.9 * np.log10(fc_ghz)
    else:
        raise ValueError(f"unknown path-loss family {family!r}")
    # O2I links use the LOS/NLOS outdoor loss per their LOS draw; the state
    # key only switches the LSP/SSP tables.
    return np.where(np.equal(state.los, "LOS"), pl_los,
                    np.maximum(pl_los, pl_n) if nlos_floor else pl_n)


def sf_sigma(sc, state, d2d, fc_ghz, h_bs, h_ue):
    """Shadow-fading standard deviation per link, resolving dual-slope tables."""
    key = state.state_key
    sigma = sc.by_state("sf_sigma", key)
    if sc.has("sf_sigma_far", LOS):
        far = np.equal(key, LOS) & (
            d2d > _scenario_breakpoint(sc, h_bs, h_ue, fc_ghz))
        sigma = np.where(far, sc.value("sf_sigma_far", LOS), sigma)
    return sigma


def material_loss(materials, material, fc_ghz):
    """Material penetration loss in dB; linear in frequency."""
    if not (0.5 <= fc_ghz <= 100.0):
        raise ValueError("fc outside the 0.5-100 GHz material model range")
    try:
        intercept, slope = materials[material]
    except KeyError:
        raise ValueError(f"unknown material {material!r}") from None
    return intercept + slope * fc_ghz


_O2I_WEIGHTS = {
    # model -> [(weight, material), ...]; the high-loss weights follow the
    # published SMa outdoor-loss table verbatim.
    "low": [(0.3, "glass"), (0.7, "concrete")],
    "high": [(0.7, "IRR-glass"), (0.7, "concrete")],
    "low-A": [(0.3, "glass"), (0.7, "plywood")],
}
_O2I_SIGMA = {"low": 4.4, "high": 6.5, "low-A": 4.4}


def o2i_penetration(materials, model, fc_ghz, d2d_in, rng):
    """(pl_tw, pl_in, random) building penetration terms in dB.

    ``model`` and ``d2d_in`` may hold one row per link; ``rng`` is then a
    sequence of one generator per link, which draws that link's random term.
    """
    model, d2d_in = np.asarray(model), np.asarray(d2d_in, dtype=float)
    if np.any(d2d_in < 0):
        raise ValueError("d2d_in must be non-negative")
    uniq, inverse = np.unique(model, return_inverse=True)
    unknown = set(uniq.tolist()) - set(_O2I_WEIGHTS)
    if unknown:
        raise ValueError(f"unknown O2I model {unknown.pop()!r}")
    pl_tw = [5.0 - 10.0 * np.log10(sum(
        w * 10.0 ** (-material_loss(materials, mat, fc_ghz) / 10.0)
        for w, mat in _O2I_WEIGHTS[m])) for m in uniq.tolist()]
    rand = [r.normal(0.0, _O2I_SIGMA[m]) for r, m in
            zip([rng] if model.ndim == 0 else rng, model.ravel().tolist())]
    return (np.array(pl_tw)[inverse].reshape(model.shape), 0.5 * d2d_in,
            np.reshape(rand, model.shape))


@dataclass
class LargeScaleResult:
    """Large-scale terms in dB; each field holds one value per link."""
    pl_outdoor: np.ndarray
    pl_tw: np.ndarray = 0.0
    pl_in: np.ndarray = 0.0
    sf: np.ndarray = 0.0
    penetration_random: np.ndarray = 0.0

    @property
    def total(self):
        return self.pl_outdoor + self.pl_tw + self.pl_in + self.penetration_random + self.sf


@dataclass
class LspSet:
    """Large-scale parameters; each field holds one value per link."""
    ds: np.ndarray          # s
    asa: np.ndarray         # deg
    asd: np.ndarray         # deg
    zsa: np.ndarray         # deg
    zsd: np.ndarray         # deg
    sf_db: np.ndarray
    k_db: np.ndarray = None  # LOS links only; NaN for the others


def matrix_sqrt_psd(c):
    """Symmetric square root with negative eigenvalues clamped to zero."""
    w, v = np.linalg.eigh(0.5 * (c + c.T))
    clamped = np.clip(w, 0.0, None)
    if np.any(w < -1e-9):
        warnings.warn("cross-correlation matrix not PSD; negative eigenvalues clamped",
                      ValidityWarning)
    root = v @ np.diag(np.sqrt(clamped)) @ v.T
    # renormalize so the implied correlation matrix keeps a unit diagonal
    d = np.sqrt(np.sum(root ** 2, axis=1))
    d[d == 0] = 1.0
    return root / d[:, None]


def _ar1_rows(z, coords, d_cor):
    """Turn i.i.d. N(0,1) rows at sorted, distinct coordinates into
    exponentially correlated rows, in place: the step-dependent AR(1)
    recursion with rho_k = exp(-(c_k - c_{k-1}) / d_cor) gives unit variance
    and correlation exp(-|c_j - c_k| / d_cor) between any two rows, exactly."""
    rho = np.exp(-np.diff(coords) / d_cor)
    innov = np.sqrt(1.0 - rho ** 2)
    for k in range(1, z.shape[0]):
        z[k] *= innov[k - 1]
        z[k] += rho[k - 1] * z[k - 1]
    return z


def correlated_standard_normals(positions, sc, state_key, rng):
    """Cross-correlated standard-normal LSP vectors at the given positions.

    Each LSP is an exact sample of a field with the separable exponential
    autocorrelation exp(-|dx|/d_cor) exp(-|dy|/d_cor), drawn only on the
    product grid of the positions' distinct x and y coordinates (AR(1)
    along y, then along x); sqrt(C) then imposes the cross-correlation.
    Identical positions read the same node.  Returns (values
    (n_pos, n_lsp), lsp_names).
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    if positions.shape[0] < 1:
        raise ValueError("at least one position required")
    xs, ix = np.unique(positions[:, 0], return_inverse=True)
    ys, iy = np.unique(positions[:, 1], return_inverse=True)
    dcor = sc.correlation_distances(state_key)
    names = LSP_ORDER_LOS if state_key == LOS else LSP_ORDER_NLOS
    raw = np.empty((len(names), positions.shape[0]))
    for i, m in enumerate(names):
        grid = _ar1_rows(rng.standard_normal((ys.size, xs.size)), ys, dcor[m])
        grid = _ar1_rows(np.ascontiguousarray(grid.T), xs, dcor[m])
        raw[i] = grid[ix, iy]
    c, _ = sc.cross_correlation(state_key)
    return (matrix_sqrt_psd(c) @ raw).T, names


def lsps_from_standardized(s, lsp_names, g, sc, state, fc_ghz):
    """Transform cross-correlated standard-normal vectors into an LspSet.

    ``s`` holds one row per link of ``g`` and ``state``, in ``lsp_names``
    order.  Log-normal back-transform for DS and the angular spreads (with
    the 104/52 deg caps), plain normal for SF and K.  K exists for LOS links
    only and is NaN for the others.
    """
    key = state.state_key
    by_name = dict(zip(lsp_names, np.moveaxis(np.asarray(s, dtype=float), -1, 0)))

    def normal(lsp, keys=key, prefix="lg_"):
        """mu + sigma * s of one LSP from its mu_/sigma_ table rows."""
        return (sc.by_state(f"mu_{prefix}{lsp}", keys, fc_ghz)
                + sc.by_state(f"sigma_{prefix}{lsp}", keys, fc_ghz) * by_name[lsp])

    def spread(lsp, cap=np.inf):
        return np.minimum(spow(10.0, normal(lsp)), cap)

    los = np.equal(key, LOS)
    k_db = np.where(los, normal("k", LOS, "") if los.any() else np.nan, np.nan)
    sigma_sf = sf_sigma(sc, state, g.d2d, fc_ghz, g.h_bs, g.h_ue)
    return LspSet(ds=spread("ds"), asa=spread("asa", AS_CAP_AZIMUTH),
                  asd=spread("asd", AS_CAP_AZIMUTH),
                  zsa=spread("zsa", AS_CAP_ZENITH),
                  zsd=spread("zsd", AS_CAP_ZENITH),
                  sf_db=sigma_sf * by_name["sf"], k_db=k_db)
