"""Scalar per-link reference of a run's set-up (steps 1-4: serving, link
geometry, propagation states, path loss, shadow fading and LSPs).

This is the per-UE loop the harness ran before the set-up became array
operations over all links, kept here as an oracle: every function takes
and returns one link, in Python floats.  `tests/test_setup_reference.py`
checks that the columnar set-up reproduces it exactly.
"""

import warnings

import numpy as np

from fr3sim import rng as rngmod
from fr3sim.antenna import PanelArray
from fr3sim.coefficients import ray_count
from fr3sim.geometry import (LinkGeometry, effective_ue_position,
                             unit_to_angles, wrap_azimuth)
from fr3sim.largescale import (AS_CAP_AZIMUTH, AS_CAP_ZENITH, C_LIGHT,
                               LargeScaleResult, LspSet,
                               correlated_standard_normals, material_loss)
from fr3sim.rng import substream
from fr3sim.scenario import LOS, NLOS, O2I, PropagationState
from fr3sim.sns import draw_usage

_STATE_ORD = {LOS: 0, NLOS: 1, O2I: 2}


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
                        aod_az=float(wrap_azimuth(aod)),
                        aoa_az=float(wrap_azimuth(aoa)),
                        zod=float(zod), zoa=float(zoa))


def serve_one(layout, ue_pos):
    """The per-site serving loop: best site, its wrap image of the UE, the
    best-aligned sector and the link geometry."""
    best = None
    for si, site in enumerate(layout.positions):
        eff = effective_ue_position(site, ue_pos, layout.wrap_vectors)
        d = np.linalg.norm(eff - site)
        if best is None or d < best[0]:
            best = (d, si, eff)
    _, si, eff = best
    g = link_geometry(layout.positions[si], eff)
    sec = int(np.argmin([abs(wrap_azimuth(g.aod_az - s.alpha))
                         for s in layout.sectors]))
    return si, sec, eff, g


def los_probability(sc, d2d, h_ue=1.5):
    if d2d < 0:
        raise ValueError("d2d must be non-negative")
    family = sc.text("los_family")
    if family == "sma_exp":
        d_c = sc.value("los_critical_distance")
        kappa = sc.value("los_decay")
        return 1.0 if d2d <= d_c else float(np.exp(-(d2d - d_c) / kappa))
    if family == "umi":
        if d2d <= 18.0:
            return 1.0
        return 18.0 / d2d + np.exp(-d2d / 36.0) * (1.0 - 18.0 / d2d)
    if family == "uma":
        if d2d <= 18.0:
            return 1.0
        if h_ue <= 13.0:
            c = 0.0
        else:
            c = ((min(h_ue, 23.0) - 13.0) / 10.0) ** 1.5
        base = 18.0 / d2d + np.exp(-d2d / 63.0) * (1.0 - 18.0 / d2d)
        return min(1.0, base * (1.0 + c * 1.25 * (d2d / 100.0) ** 3
                                * np.exp(-d2d / 150.0)))
    if family == "rma":
        return 1.0 if d2d <= 10.0 else float(np.exp(-(d2d - 10.0) / 1000.0))
    if family == "inh":
        if d2d <= 1.2:
            return 1.0
        if d2d < 6.5:
            return float(np.exp(-(d2d - 1.2) / 4.7))
        return float(np.exp(-(d2d - 6.5) / 32.6) * 0.32)
    raise ValueError(f"unknown los_family {family!r}")


def _o2i_mix(sc, building):
    suffix = "com" if building == "commercial" else "res"
    probs = [sc.value(f"o2i_p_{m}_{suffix}", default=0.0)
             for m in ("low", "high", "lowa")]
    total = sum(probs)
    if total <= 0:
        return [1.0, 0.0, 0.0]
    return [p / total for p in probs]


def assign_states(links, indoor_flags, buildings, sc, rng, force_los=None,
                  force_location=None):
    """One PropagationState per link, five scalar draws per link."""
    states = []
    for idx, g in enumerate(links):
        xi = rng.uniform()
        rng.uniform()           # indoor: decided by the drop
        rng.uniform()           # building type: decided by the drop
        u_d2din = rng.uniform()
        u_o2i = rng.uniform()

        los = "LOS" if xi < los_probability(sc, g.d2d, g.h_ue) else "NLOS"
        if force_los is not None:
            los = force_los
        indoor = bool(indoor_flags[idx])
        building = buildings[idx] or "residential"
        location = "indoor" if indoor else "outdoor"
        if not indoor and sc.value("outdoor_in_car", default=0.0) > 0:
            location = "car"
        if force_location is not None:
            location = force_location
            indoor = location == "indoor"

        o2i_model = "none"
        d2d_in = 0.0
        if indoor:
            key = f"d2d_in_max_{building}"
            if not sc.has(key):
                key = "d2d_in_max"
            d2d_in = u_d2din * sc.value(key)
            p_low, p_high, _ = _o2i_mix(sc, building)
            if u_o2i < p_low:
                o2i_model = "low"
            elif u_o2i < p_low + p_high:
                o2i_model = "high"
            else:
                o2i_model = "low-A"
        states.append(PropagationState(los, location, o2i_model, d2d_in))
    return states


def breakpoint(sc, h_bs, h_ue, fc_ghz):
    fc_hz = fc_ghz * 1e9
    if sc.text("pl_family") == "rma_dual":
        return 2.0 * np.pi * h_bs * h_ue * fc_hz / C_LIGHT
    env = sc.value("pl_env_height", default=1.0)
    return 4.0 * (h_bs - env) * (h_ue - env) * fc_hz / C_LIGHT


def _pl1_rma(d, fc_ghz, h):
    return (20.0 * np.log10(40.0 * np.pi * d * fc_ghz / 3.0)
            + min(0.03 * h ** 1.72, 10.0) * np.log10(d)
            - min(0.044 * h ** 1.72, 14.77)
            + 0.002 * np.log10(h) * d)


def path_loss(sc, g, state, fc_ghz, nlos_floor=True):
    """Outdoor path loss of one link, extrapolated silently outside the
    validity range."""
    family = sc.text("pl_family")
    los = state.los == "LOS"
    if family == "rma_dual":
        h = sc.value("avg_building_height")
        w = sc.value("street_width")
        dbp = breakpoint(sc, g.h_bs, g.h_ue, fc_ghz)
        if g.d2d <= dbp:
            pl_los = _pl1_rma(g.d3d, fc_ghz, h)
        else:
            pl_los = _pl1_rma(dbp, fc_ghz, h) + 40.0 * np.log10(g.d3d / dbp)
        if los:
            return float(pl_los)
        pl_n = (161.04 - 7.1 * np.log10(w) + 7.5 * np.log10(h)
                - (24.37 - 3.7 * (h / g.h_bs) ** 2) * np.log10(g.h_bs)
                + (43.42 - 3.1 * np.log10(g.h_bs)) * (np.log10(g.d3d) - 3.0)
                + 20.0 * np.log10(fc_ghz)
                - (3.2 * (np.log10(11.75 * g.h_ue)) ** 2 - 4.97))
        return float(max(pl_los, pl_n) if nlos_floor else pl_n)
    if family in ("uma_dual", "umi_dual"):
        dbp = breakpoint(sc, g.h_bs, g.h_ue, fc_ghz)
        if family == "uma_dual":
            a, slope1, corr = 28.0, 22.0, 9.0
        else:
            a, slope1, corr = 32.4, 21.0, 9.5
        if g.d2d <= dbp:
            pl_los = a + slope1 * np.log10(g.d3d) + 20.0 * np.log10(fc_ghz)
        else:
            pl_los = (a + 40.0 * np.log10(g.d3d) + 20.0 * np.log10(fc_ghz)
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
    key = state.state_key
    sigma = sc.value("sf_sigma", key)
    if key == LOS and sc.has("sf_sigma_far", key):
        if d2d > breakpoint(sc, h_bs, h_ue, fc_ghz):
            sigma = sc.value("sf_sigma_far", key)
    return sigma


def lsps_from_standardized(s, lsp_names, g, sc, state, fc_ghz):
    key = state.state_key
    by_name = dict(zip(lsp_names, s))

    def normal(lsp, prefix="lg_"):
        return (sc.value(f"mu_{prefix}{lsp}", key, fc_ghz)
                + sc.value(f"sigma_{prefix}{lsp}", key, fc_ghz) * by_name[lsp])

    sigma_sf = sf_sigma(sc, state, g.d2d, fc_ghz, g.h_bs, g.h_ue)
    return LspSet(ds=float(10.0 ** normal("ds")),
                  asa=float(min(10.0 ** normal("asa"), AS_CAP_AZIMUTH)),
                  asd=float(min(10.0 ** normal("asd"), AS_CAP_AZIMUTH)),
                  zsa=float(min(10.0 ** normal("zsa"), AS_CAP_ZENITH)),
                  zsd=float(min(10.0 ** normal("zsd"), AS_CAP_ZENITH)),
                  sf_db=float(sigma_sf * by_name["sf"]),
                  k_db=normal("k", "") if key == LOS else None)


_O2I_WEIGHTS = {
    "low": [(0.3, "glass"), (0.7, "concrete")],
    "high": [(0.7, "IRR-glass"), (0.7, "concrete")],
    "low-A": [(0.3, "glass"), (0.7, "plywood")],
}
_O2I_SIGMA = {"low": 4.4, "high": 6.5, "low-A": 4.4}


def o2i_penetration(materials, model, fc_ghz, d2d_in, rng):
    acc = sum(w * 10.0 ** (-material_loss(materials, m, fc_ghz) / 10.0)
              for w, m in _O2I_WEIGHTS[model])
    return (float(5.0 - 10.0 * np.log10(acc)), float(0.5 * d2d_in),
            float(rng.normal(0.0, _O2I_SIGMA[model])))


def rays_per_cluster(cfg, sc, state):
    """The ray count of one link under ray_count_scaling, else None."""
    if not cfg.ray_count_scaling:
        return None
    lam0 = cfg.wavelength()
    ssp = sc.ssp(state.state_key, cfg.fc_ghz)
    bs_arr = PanelArray(m=cfg.bs_rows, n=cfg.bs_cols)
    return ray_count(bandwidth_hz=cfg.bandwidth_hz,
                     d_h=(bs_arr.n - 1) * bs_arr.d_h * lam0,
                     d_v=(bs_arr.m - 1) * bs_arr.d_v * lam0,
                     c_ds=ssp["c_ds"], c_asd=ssp["c_asd"],
                     c_zsd=ssp["c_zsd"], wavelength=lam0,
                     m_min=cfg.m_min, m_max=cfg.m_max)[0]


def link_setup(cfg, reg, sc, layout, drop):
    """Per link, the dict of what its task carries: indices, effective
    position, geometry, state, LSPs, large-scale terms, velocity, usage and
    ray count."""
    served = [serve_one(layout, p) for p in drop.positions]
    links = [g for _, _, _, g in served]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        states = assign_states(links, drop.indoor, drop.building, sc,
                               substream(cfg.seed, 0, rngmod.STAGE_STATE),
                               force_los=cfg.force_state or None,
                               force_location=cfg.force_location or None)
    groups = {}
    for i, ((si, *_), st) in enumerate(zip(served, states)):
        groups.setdefault((si, st.state_key, int(drop.floor[i])), []).append(i)
    std_vectors = {}
    for (si, skey, floor), idxs in sorted(groups.items()):
        pos = np.array([served[i][2][:2] for i in idxs])
        f_rng = substream(cfg.seed, 0, si, _STATE_ORD[skey], floor,
                          rngmod.STAGE_LSP_FIELD)
        vals, names = correlated_standard_normals(pos, sc, skey, f_rng)
        for row, i in enumerate(idxs):
            std_vectors[i] = (vals[row], names)

    out = []
    for i, ((si, sec, eff, g), st) in enumerate(zip(served, states)):
        s_vec, names = std_vectors[i]
        lsp = lsps_from_standardized(s_vec, names, g, sc, st, cfg.fc_ghz)
        pl = path_loss(sc, g, st, cfg.fc_ghz, nlos_floor=cfg.nlos_floor)
        pl_tw = pl_in = pen_rand = 0.0
        if st.location == "indoor":
            o_rng = substream(cfg.seed, 0, i, rngmod.STAGE_O2I_RANDOM)
            pl_tw, pl_in, pen_rand = o2i_penetration(
                reg.materials, st.o2i_model, cfg.fc_ghz, st.d2d_in, o_rng)
        elif st.location == "car":
            pl_tw = sc.value("car_loss", default=0.0)
        ls = LargeScaleResult(pl_outdoor=pl, pl_tw=pl_tw, pl_in=pl_in,
                              sf=lsp.sf_db, penetration_random=pen_rand)
        v_rng = substream(cfg.seed, 0, i, rngmod.STAGE_VELOCITY)
        speed_key = "ue_speed_indoor_kmh" if st.location == "indoor" \
            else "ue_speed_outdoor_kmh"
        speed = sc.value(speed_key) / 3.6
        ang = v_rng.uniform(0.0, 2.0 * np.pi)
        usage = "free"
        if cfg.ue_sns:
            usage = cfg.ue_usage or draw_usage(
                substream(cfg.seed, 0, i, rngmod.STAGE_UE_SNS))
        out.append(dict(link_id=i, ue_index=i, site_index=si, sector_index=sec,
                        ue_pos=eff, geom=g, state=st, lsp=lsp, ls=ls,
                        v_vec=speed * np.array([np.cos(ang), np.sin(ang), 0.0]),
                        usage=usage, ray_count=rays_per_cluster(cfg, sc, st)))
    return out
