"""Path loss, penetration loss, and spatially correlated LSP generation."""

import warnings
from dataclasses import dataclass

import numpy as np

from .scenario import LOS, NLOS, O2I, LSP_ORDER_LOS, LSP_ORDER_NLOS

C_LIGHT = 3.0e8  # m/s, free-space propagation velocity used throughout

AS_CAP_AZIMUTH = 104.0  # deg
AS_CAP_ZENITH = 52.0    # deg


class ValidityWarning(UserWarning):
    pass


def __getattr__(name):
    """Resolve ``fftconvolve`` on first access only.  It is unused here, but
    perfbench/tracing.py counts LSP field cells through this name, and an
    eager ``scipy.signal`` import would pull ``scipy.stats`` into every
    ``import fr3sim``."""
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


def _nlos_rma(d3d, fc_ghz, w, h, h_bs, h_ue):
    return (161.04 - 7.1 * np.log10(w) + 7.5 * np.log10(h)
            - (24.37 - 3.7 * (h / h_bs) ** 2) * np.log10(h_bs)
            + (43.42 - 3.1 * np.log10(h_bs)) * (np.log10(d3d) - 3.0)
            + 20.0 * np.log10(fc_ghz)
            - (3.2 * (np.log10(11.75 * h_ue)) ** 2 - 4.97))


def path_loss(sc, g, state, fc_ghz, nlos_floor=True, strict=False):
    """Outdoor path loss in dB for one link.

    ``nlos_floor`` applies the max(PL_LOS, PL_NLOS) convention for NLOS
    links.  Geometry outside the table validity range raises in strict mode
    and warns (extrapolating) otherwise.
    """
    if g.d3d <= 0:
        raise ValueError("non-positive link distance")
    family = sc.text("pl_family")
    d_min = sc.value("pl_d2d_min", default=0.0)
    d_max = sc.value("pl_d2d_max", default=np.inf)
    if not (d_min <= g.d2d <= d_max):
        msg = f"{sc.name}: d2D={g.d2d:.1f} m outside validity [{d_min}, {d_max}]"
        if strict:
            raise ValueError(msg)
        warnings.warn(msg, ValidityWarning)
    # O2I links use the LOS/NLOS outdoor loss per their LOS draw; the state
    # key only switches the LSP/SSP tables.
    los = state.los == "LOS"

    if family == "rma_dual":
        h = sc.value("avg_building_height")
        w = sc.value("street_width")
        dbp = breakpoint_distance(family, g.h_bs, g.h_ue, fc_ghz)
        if g.d2d <= dbp:
            pl_los = _pl1_rma(g.d3d, fc_ghz, h)
        else:
            pl_los = _pl1_rma(dbp, fc_ghz, h) + 40.0 * np.log10(g.d3d / dbp)
        if los:
            return float(pl_los)
        pl_n = _nlos_rma(g.d3d, fc_ghz, w, h, g.h_bs, g.h_ue)
        return float(max(pl_los, pl_n) if nlos_floor else pl_n)

    if family in ("uma_dual", "umi_dual"):
        dbp = _scenario_breakpoint(sc, g.h_bs, g.h_ue, fc_ghz)
        if family == "uma_dual":
            a, slope2, corr = 28.0, 40.0, 9.0
        else:
            a, slope2, corr = 32.4, 40.0, 9.5
        slope1 = 22.0 if family == "uma_dual" else 21.0
        if g.d2d <= dbp:
            pl_los = a + slope1 * np.log10(g.d3d) + 20.0 * np.log10(fc_ghz)
        else:
            pl_los = (a + slope2 * np.log10(g.d3d) + 20.0 * np.log10(fc_ghz)
                      - corr * np.log10(dbp ** 2 + (g.h_bs - g.h_ue) ** 2))
        if los:
            return float(pl_los)
        if family == "uma_dual":
            pl_n = 13.54 + 39.08 * np.log10(g.d3d) + 20.0 * np.log10(fc_ghz) \
                - 0.6 * (g.h_ue - 1.5)
        else:
            pl_n = 35.3 * np.log10(g.d3d) + 22.4 + 21.3 * np.log10(fc_ghz) \
                - 0.3 * (g.h_ue - 1.5)
        return float(max(pl_los, pl_n) if nlos_floor else pl_n)

    if family == "inh":
        pl_los = 32.4 + 17.3 * np.log10(g.d3d) + 20.0 * np.log10(fc_ghz)
        if los:
            return float(pl_los)
        pl_n = 17.3 + 38.3 * np.log10(g.d3d) + 24.9 * np.log10(fc_ghz)
        return float(max(pl_los, pl_n) if nlos_floor else pl_n)

    raise ValueError(f"unknown path-loss family {family!r}")


def sf_sigma(sc, state, d2d, fc_ghz, h_bs, h_ue):
    """Shadow-fading standard deviation, resolving dual-slope LOS tables."""
    key = state.state_key
    sigma = sc.value("sf_sigma", key)
    if key == LOS and sc.has("sf_sigma_far", key):
        dbp = _scenario_breakpoint(sc, h_bs, h_ue, fc_ghz)
        if d2d > dbp:
            sigma = sc.value("sf_sigma_far", key)
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
    """(pl_tw, pl_in, random) building penetration terms in dB."""
    if d2d_in < 0:
        raise ValueError("d2d_in must be non-negative")
    if model not in _O2I_WEIGHTS:
        raise ValueError(f"unknown O2I model {model!r}")
    acc = sum(w * 10.0 ** (-material_loss(materials, m, fc_ghz) / 10.0)
              for w, m in _O2I_WEIGHTS[model])
    pl_tw = 5.0 - 10.0 * np.log10(acc)
    pl_in = 0.5 * d2d_in
    rand = rng.normal(0.0, _O2I_SIGMA[model])
    return float(pl_tw), float(pl_in), float(rand)


@dataclass
class LargeScaleResult:
    pl_outdoor: float
    pl_tw: float = 0.0
    pl_in: float = 0.0
    sf: float = 0.0
    penetration_random: float = 0.0

    @property
    def total(self):
        return self.pl_outdoor + self.pl_tw + self.pl_in + self.penetration_random + self.sf


@dataclass
class LspSet:
    ds: float          # s
    asa: float         # deg
    asd: float         # deg
    zsa: float         # deg
    zsd: float         # deg
    sf_db: float
    k_db: float = None  # LOS only


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
    positions = np.asarray(positions, dtype=float)
    if positions.ndim == 1:
        positions = positions[None, :]
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
    """Transform a cross-correlated standard-normal vector into an LspSet.

    Log-normal back-transform for DS and the angular spreads (with the
    104/52 deg caps), plain normal for SF and K.
    """
    key = state.state_key
    stats = sc.lsp_stats(key, fc_ghz)
    by_name = dict(zip(lsp_names, s))
    sigma_sf = sf_sigma(sc, state, g.d2d, fc_ghz, g.h_bs, g.h_ue)
    ds = 10.0 ** (stats["mu_lg_ds"] + stats["sigma_lg_ds"] * by_name["ds"])
    asa = min(10.0 ** (stats["mu_lg_asa"] + stats["sigma_lg_asa"] * by_name["asa"]), AS_CAP_AZIMUTH)
    asd = min(10.0 ** (stats["mu_lg_asd"] + stats["sigma_lg_asd"] * by_name["asd"]), AS_CAP_AZIMUTH)
    zsa = min(10.0 ** (stats["mu_lg_zsa"] + stats["sigma_lg_zsa"] * by_name["zsa"]), AS_CAP_ZENITH)
    zsd = min(10.0 ** (stats["mu_lg_zsd"] + stats["sigma_lg_zsd"] * by_name["zsd"]), AS_CAP_ZENITH)
    k_db = None
    if key == LOS:
        k_db = stats["mu_k"] + stats["sigma_k"] * by_name["k"]
    return LspSet(ds=float(ds), asa=float(asa), asd=float(asd), zsa=float(zsa),
                  zsd=float(zsd), sf_db=float(sigma_sf * by_name["sf"]), k_db=k_db)

