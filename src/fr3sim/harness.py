"""Batch runner: configuration, drop orchestration, deterministic seeding,
metrics, and output emission."""

import configparser
import hashlib
import io
import math
import operator
import os
import pathlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, asdict, replace

import numpy as np

from . import rng as rngmod
from .rng import substream
from .antenna import (ElementPattern, PanelArray, UEDevice, mount_bs_array,
                      mount_ue_device)
from .coefficients import (RayCountConfig, apply_large_scale,
                           draw_absolute_excess, draw_phases, ray_count,
                           synthesize, write_cir)
from .geometry import (Orientation, build_disc_layout, build_hex_layout,
                       build_indoor_layout, drop_ues, effective_ue_position,
                       link_geometry, wrap_azimuth)
from .largescale import (C_LIGHT, LargeScaleResult,
                         correlated_standard_normals, lsps_from_standardized,
                         o2i_penetration, path_loss)
from .nearfield import source_distances
from .scenario import (LOS, NLOS, O2I, assign_states, data_root,
                       load_parameter_tables)
from .smallscale import build_cluster_set
from .sns import (USAGES, SnsConfig, draw_usage, stochastic_attenuation,
                  ue_sns_mask)

_STATE_ORD = {LOS: 0, NLOS: 1, O2I: 2}


def _key(default, **allowed):
    """A RunConfig field with its allowed values: ``choices`` and/or the
    bounds ``ge``, ``gt`` and ``le``.  `_validate` checks every field
    against them, and the CLI makes one flag per field."""
    return field(default=default, metadata=allowed)


@dataclass
class RunConfig:
    scenario: str = "SMa"
    fc_ghz: float = _key(7.0, ge=0.5, le=100.0)
    bandwidth_hz: float = _key(100e6, gt=0.0)
    seed: int = _key(1, ge=0)
    n_ues: int = _key(100, ge=1)
    layout: str = _key("hex", choices=("hex", "indoor", "disc"))
    deploy_radius: float = _key(100.0, gt=0.0)  # disc layout only
    isd: float = _key(0.0, ge=0.0)              # 0 -> scenario default
    snr_db: float = 10.0
    workers: int = _key(1, ge=1)
    out_dir: str = "out"
    # feature flags
    near_field: bool = False
    nf_angles: bool = False
    sns: str = _key("off", choices=("off", "stochastic"))
    ue_sns: bool = False
    cluster_variability: bool = False
    pol_variability: bool = False
    absolute_delay: bool = False
    ray_count_scaling: bool = False
    # model knobs
    force_state: str = _key("", choices=("", "LOS", "NLOS"))
    force_location: str = _key("", choices=("", "outdoor", "indoor"))
    prune_db: float = _key(25.0, ge=0.0)
    nlos_floor: bool = True
    n_spec: int = _key(0, ge=0)
    nf_alpha: float = _key(2.0, gt=0.0)
    nf_beta: float = _key(2.0, gt=0.0)
    m_min: int = _key(20, ge=1)
    m_max: int = 40
    abs_delay_bound_m: float = _key(0.0, ge=0.0)   # 0 -> unbounded
    # arrays
    bs_rows: int = _key(8, ge=1)  # vertical element count
    bs_cols: int = _key(8, ge=1)
    bs_pol: int = _key(2, choices=(1, 2))
    bs_pattern: str = _key("directional", choices=("directional", "isotropic"))
    bs_downtilt_deg: float = 0.0
    ue_device: str = _key("handheld", choices=("handheld", "CPE"))
    ue_dual_pol: bool = True
    ue_usage: str = _key("", choices=("",) + USAGES)  # "" = random draw
    # time sampling
    t_count: int = _key(1, ge=1)
    t_step_s: float = 1e-3
    # outputs
    emit_cir: bool = False
    # SNS numeric parameters (placeholders; see SnsConfig)
    sns_pr_mu: float = 0.5
    sns_pr_sigma: float = _key(0.2, gt=0.0)
    sns_vp_a: float = 0.7
    sns_vp_r_db: float = _key(10.0, gt=0.0)
    sns_vp_b: float = 0.3
    sns_vp_sigma: float = _key(0.05, ge=0.0)
    sns_rolloff: float = _key(4.0, ge=0.0)

    def sns_config(self):
        return SnsConfig(pr_mu=self.sns_pr_mu, pr_sigma=self.sns_pr_sigma,
                         vp_a=self.sns_vp_a, vp_r_db=self.sns_vp_r_db,
                         vp_b=self.sns_vp_b, vp_sigma=self.sns_vp_sigma,
                         rolloff=self.sns_rolloff)

    def wavelength(self):
        return C_LIGHT / (self.fc_ghz * 1e9)


# the config schema: every RunConfig field is a key of its field's type,
# whose allowed values are in the field's metadata (see _key)
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


class ConfigError(Exception):
    pass


def load_config(path=None, preset=None, overrides=None):
    """Build a RunConfig from an INI file and/or a named preset, then apply
    CLI-style overrides (highest precedence)."""
    cfg = RunConfig()
    sources = []
    if preset:
        sources.append(preset_path(preset))
    if path:
        sources.append(pathlib.Path(path))
    for src in sources:
        parser = configparser.ConfigParser()
        try:
            text = src.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {src}: {exc}") from None
        flat = {}
        try:
            parser.read_string(text)
            for section in parser.sections():
                for key, val in parser.items(section):
                    flat[key] = val
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {src}: {exc}") from None
        cfg = _apply(cfg, flat)
    if overrides:
        cfg = _apply(cfg, overrides)
    _validate(cfg)
    return cfg


def _apply(cfg, mapping):
    values = {}
    for key, val in mapping.items():
        if val is None:
            continue
        typ = _FIELD_TYPES.get(key)
        if typ is None:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            if typ is bool and isinstance(val, str):
                val = configparser.ConfigParser.BOOLEAN_STATES[
                    val.strip().lower()]
            elif not isinstance(val, str) and (
                    isinstance(val, bool) != (typ is bool)
                    or typ is int and int(val) != val):
                raise ValueError   # a library caller's mistyped value
            values[key] = typ(val)
        except (KeyError, ValueError, OverflowError):
            raise ConfigError(f"{key} = {val!r} is not "
                              f"a valid {typ.__name__}") from None
    return replace(cfg, **values)


_BOUNDS = (("ge", operator.ge, ">="), ("gt", operator.gt, ">"),
           ("le", operator.le, "<="))


def _validate(cfg):
    for f in fields(RunConfig):
        val, allowed = getattr(cfg, f.name), f.metadata
        if f.type is float and not math.isfinite(val):
            raise ConfigError(f"{f.name} = {val!r} is not finite")
        if "choices" in allowed and val not in allowed["choices"]:
            raise ConfigError(f"{f.name} = {val!r} is not one of "
                              f"{', '.join(map(repr, allowed['choices']))}")
        for name, op, sym in _BOUNDS:
            if name in allowed and not op(val, allowed[name]):
                raise ConfigError(f"{f.name} = {val!r} is not "
                                  f"{sym} {allowed[name]}")
    if cfg.ue_sns and cfg.ue_device == "CPE":
        raise ConfigError("ue_sns masks cover the 8 handheld candidates, "
                          "not the 9 CPE ones")
    if cfg.m_min > cfg.m_max:
        raise ConfigError("m_min must not exceed m_max")


def preset_path(name):
    p = data_root() / "presets" / f"{name}.cfg"
    if not p.is_file():
        raise ConfigError(f"unknown preset {name!r}")
    return p


# -- metrics ---------------------------------------------------------------

def capacity(h_matrix, snr_db):
    """log2 det(I + snr/S H H^H) at one time sample; H is U x S.

    H is the synthesized small-scale matrix (antenna gains included, large
    scale excluded), so a unit-gain single-ray SISO link gives
    log2(1 + snr).
    """
    h = np.asarray(h_matrix)
    if not np.all(np.isfinite(h)):
        raise ValueError("non-finite channel matrix")
    u, s = h.shape
    snr = 10.0 ** (snr_db / 10.0)
    gram = np.eye(u) + (snr / s) * (h @ h.conj().T)
    _sign, logdet = np.linalg.slogdet(gram)
    return float(logdet / np.log(2.0))


def coupling_loss(h, ls_total_db=0.0):
    """-10 log10 of the element-averaged received energy, in dB.

    ``h`` is a (pre large-scale) ChannelRealization; ``ls_total_db`` adds
    path loss, penetration, and shadow fading.  Antenna gains and SNS
    attenuation are already inside the tap gains.
    """
    energy = float(np.mean(h.energy()))
    if energy <= 0.0:
        raise ValueError("zero-energy channel")
    return ls_total_db - 10.0 * np.log10(energy)


def gini(powers):
    """Gini coefficient of a non-negative power vector."""
    p = np.sort(np.asarray(powers, dtype=float))
    if p.size == 0 or np.any(p < 0):
        raise ValueError("powers must be non-negative and non-empty")
    total = p.sum()
    if total <= 0:
        raise ValueError("all powers are zero")
    n = p.size
    idx = np.arange(1, n + 1)
    return float(np.sum((2 * idx - n - 1) * p) / (n * total))


def emit_cdf(values, path):
    """Write sorted (value, empirical CDF) rows; duplicate values collapse
    to their maximum CDF."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("no values")
    cdf = np.arange(1, v.size + 1) / v.size
    uniq, last = np.unique(v[::-1], return_index=True)
    keep_cdf = cdf[::-1][last]
    with open(path, "w") as f:
        f.write("value,cdf\n")
        for val, c in zip(uniq, keep_cdf):
            f.write(f"{val:.9g},{c:.9g}\n")


def _angular_spread(angles_deg, weights):
    """Power-weighted circular RMS spread in degrees."""
    a = np.radians(np.asarray(angles_deg, dtype=float).reshape(-1))
    w = np.asarray(weights, dtype=float).reshape(-1)
    w = w / w.sum()
    mean = np.angle(np.sum(w * np.exp(1j * a)))
    dev = np.angle(np.exp(1j * (a - mean)))
    return float(np.degrees(np.sqrt(np.sum(w * dev ** 2))))


def _rms_delay_spread(delays, powers):
    w = np.asarray(powers, dtype=float)
    w = w / w.sum()
    d = np.asarray(delays, dtype=float)
    mean = np.sum(w * d)
    return float(np.sqrt(max(np.sum(w * d ** 2) - mean ** 2, 0.0)))


# -- per-link pipeline -----------------------------------------------------

@dataclass
class LinkTask:
    link_id: int
    ue_index: int
    site_index: int
    sector_index: int
    site_pos: np.ndarray
    sector: Orientation
    ue_pos: np.ndarray
    geom: object
    state: object
    lsp: object
    ls: LargeScaleResult
    v_vec: np.ndarray
    usage: str


@dataclass
class LinkReport:
    link_id: int
    ue_index: int
    site_index: int
    sector_index: int
    d2d: float
    d3d: float
    state: str
    pl_db: float
    sf_db: float
    coupling_loss_db: float
    capacity_bps_hz: float
    ds_s: float
    asa_deg: float
    asd_deg: float
    zsa_deg: float
    zsd_deg: float
    n_clusters: int
    m_rays: int
    gini_index: float


CSV_HEADER = ("link_id,ue,site,sector,d2d_m,d3d_m,state,pl_db,sf_db,"
              "coupling_loss_db,capacity_bps_hz,ds_s,asa_deg,asd_deg,"
              "zsa_deg,zsd_deg,n_clusters,m_rays,gini\n")


def report_row(r):
    def g(x):
        return f"{x:.9g}"
    return ",".join([str(r.link_id), str(r.ue_index), str(r.site_index),
                     str(r.sector_index), g(r.d2d), g(r.d3d), r.state,
                     g(r.pl_db), g(r.sf_db), g(r.coupling_loss_db),
                     g(r.capacity_bps_hz), g(r.ds_s), g(r.asa_deg),
                     g(r.asd_deg), g(r.zsa_deg), g(r.zsd_deg),
                     str(r.n_clusters), str(r.m_rays), g(r.gini_index)]) + "\n"


@dataclass
class WorkerContext:
    cfg: RunConfig
    sc: object
    scaling: dict
    masks: dict
    cir_dir: str = ""
    bs_arrays: dict = field(default_factory=dict)  # (site, sector) -> mounted


def _build_bs_array(cfg):
    pat = ElementPattern.directional() if cfg.bs_pattern == "directional" \
        else ElementPattern.isotropic()
    return PanelArray(m=cfg.bs_rows, n=cfg.bs_cols, p=cfg.bs_pol, element=pat)


def _link_rng(cfg, link_id, stage):
    return substream(cfg.seed, 0, link_id, stage)


def process_link(ctx, task):
    """Full small-scale pipeline plus metrics for one link."""
    cfg, sc = ctx.cfg, ctx.sc
    lam0 = cfg.wavelength()
    geom, state, lsp = task.geom, task.state, task.lsp
    los = state.los == "LOS" and state.location != "indoor"
    lid = task.link_id

    m_override = None
    if cfg.ray_count_scaling:
        ssp = sc.ssp(state.state_key, cfg.fc_ghz)
        bs_arr = _build_bs_array(cfg)
        d_h = (bs_arr.n - 1) * bs_arr.d_h * lam0
        d_v = (bs_arr.m - 1) * bs_arr.d_v * lam0
        rc = RayCountConfig(bandwidth_hz=cfg.bandwidth_hz, d_h=d_h, d_v=d_v,
                            c_ds=ssp["c_ds"], c_asd=ssp["c_asd"],
                            c_zsd=ssp["c_zsd"], wavelength=lam0,
                            m_min=cfg.m_min, m_max=cfg.m_max)
        m_override, _, _, _ = ray_count(rc)

    rngs = {
        "count": _link_rng(cfg, lid, rngmod.STAGE_CLUSTER_COUNT),
        "delays": _link_rng(cfg, lid, rngmod.STAGE_DELAYS),
        "powers": _link_rng(cfg, lid, rngmod.STAGE_POWERS),
        "angles": _link_rng(cfg, lid, rngmod.STAGE_ANGLES),
        "coupling": _link_rng(cfg, lid, rngmod.STAGE_COUPLING),
        "xpr": _link_rng(cfg, lid, rngmod.STAGE_XPR),
        "pol": _link_rng(cfg, lid, rngmod.STAGE_POL_WEIGHTS),
    }
    los_angles = (geom.aoa_az, geom.aod_az, geom.zoa, geom.zod)
    cs = build_cluster_set(sc, state, lsp, los_angles, cfg.fc_ghz, rngs,
                           ctx.scaling,
                           cluster_variability=cfg.cluster_variability,
                           pol_variability=cfg.pol_variability,
                           ray_count=m_override, prune_db=cfg.prune_db)
    phases = draw_phases(cs.n, cs.m, _link_rng(cfg, lid, rngmod.STAGE_PHASES))

    base_delay = 0.0
    delta_tau = 0.0
    if cfg.absolute_delay:
        base_delay = geom.d3d / C_LIGHT
        if state.los != "LOS":
            rng_abs = substream(cfg.seed, 0, task.ue_index, task.site_index,
                                rngmod.STAGE_ABS_DELAY)
            bound = cfg.abs_delay_bound_m or None
            delta_tau = draw_absolute_excess(sc, rng_abs, l_bound=bound)
            base_delay += delta_tau

    nf = None
    if cfg.near_field:
        nf = source_distances(cs, geom.d3d, delta_tau, cfg.n_spec,
                              cfg.nf_alpha, cfg.nf_beta,
                              _link_rng(cfg, lid, rngmod.STAGE_NEARFIELD))

    bs_key = (task.site_index, task.sector_index)
    bs = ctx.bs_arrays.get(bs_key)
    if bs is None:
        bs = ctx.bs_arrays[bs_key] = mount_bs_array(
            _build_bs_array(cfg), task.site_pos, task.sector, lam0)
    ue = mount_ue_device(UEDevice(cfg.ue_device), task.ue_pos,
                         dual_polarized=cfg.ue_dual_pol)

    alpha = None
    if cfg.sns == "stochastic":
        rot = task.sector.rotation()
        yz = (bs.offsets @ rot)[:, 1:3]
        alpha = stochastic_attenuation(10.0 * np.log10(cs.p), cfg.sns_config(),
                                       yz, _link_rng(cfg, lid, rngmod.STAGE_SNS))
    beta = None
    if cfg.ue_sns:
        beta = ue_sns_mask(ctx.masks, task.usage, cfg.fc_ghz, ue.candidate_index)

    t = np.arange(cfg.t_count) * cfg.t_step_s
    h = synthesize(geom, cs, phases, bs, ue, lam0, k_db=lsp.k_db, los=los,
                   v_vec=task.v_vec, t_samples=t, near_field=nf,
                   nf_angles=cfg.nf_angles, sns_alpha=alpha, sns_beta=beta,
                   base_delay=base_delay)

    # one stacked sum, not a running one: freeing its large temporary raises
    # glibc's dynamic mmap threshold, so the next links' large temporaries
    # reuse heap pages instead of faulting in fresh ones (inh-nf: ~15 % faster)
    h_nb = np.stack([g[:, :, 0] for g in h.gains]).sum(axis=0)
    cap = capacity(h_nb, cfg.snr_db)
    cl = coupling_loss(h, task.ls.total)
    if ctx.cir_dir:
        write_cir(os.path.join(ctx.cir_dir, f"link_{lid:06d}.cir"),
                  apply_large_scale(h, task.ls))

    w_ray = np.repeat(cs.p / cs.m, cs.m)
    tap_d, tap_p = _tap_powers(cs, base_delay)
    report = LinkReport(
        link_id=lid, ue_index=task.ue_index, site_index=task.site_index,
        sector_index=task.sector_index, d2d=geom.d2d, d3d=geom.d3d,
        state=f"{state.los}/{state.location}",
        pl_db=task.ls.pl_outdoor + task.ls.pl_tw + task.ls.pl_in
        + task.ls.penetration_random,
        sf_db=task.ls.sf,
        coupling_loss_db=cl, capacity_bps_hz=cap,
        ds_s=_rms_delay_spread(tap_d, tap_p),
        asa_deg=_angular_spread(cs.aoa, w_ray),
        asd_deg=_angular_spread(cs.aod, w_ray),
        zsa_deg=_angular_spread(cs.zoa, w_ray),
        zsd_deg=_angular_spread(cs.zod, w_ray),
        n_clusters=cs.n, m_rays=cs.m, gini_index=gini(w_ray))
    return report


def _tap_powers(cs, base_delay):
    """Delays and powers of every tap, the LOS tap last."""
    taps = cs.taps(base_delay)
    delays = [delay for delay, _rays, _power in taps]
    powers = [power for _delay, _rays, power in taps]
    if cs.p_los > 0:
        delays.append(base_delay)
        powers.append(cs.p_los)
    return np.array(delays), np.array(powers)


def _worker_chunk(ctx, tasks):
    return [process_link(ctx, t) for t in tasks]


# -- drop orchestration ----------------------------------------------------

def _build_layout(cfg, sc):
    if cfg.layout == "hex":
        isd = cfg.isd or sc.value("isd_default")
        return build_hex_layout(isd, h_bs=sc.value("h_bs_default"),
                                downtilt_deg=cfg.bs_downtilt_deg)
    if cfg.layout == "indoor":
        return build_indoor_layout(sc.value("layout_width"),
                                   sc.value("layout_depth"),
                                   int(sc.value("layout_n_bs")),
                                   sc.value("h_bs_default"))
    return build_disc_layout(cfg.deploy_radius, sc.value("h_bs_default"),
                             Orientation(0.0, cfg.bs_downtilt_deg, 0.0))


def _serve(layout, ue_pos):
    """Serving (site, sector, effective UE position) by minimum 3D distance
    and boresight alignment."""
    best = None
    for si, site in enumerate(layout.sites):
        eff = effective_ue_position(site.position, ue_pos, layout.wrap_vectors)
        d = np.linalg.norm(eff - site.position)
        if best is None or d < best[0]:
            best = (d, si, eff)
    _, si, eff = best
    site = layout.sites[si]
    g = link_geometry(site.position, eff)
    sec = int(np.argmin([abs(wrap_azimuth(g.aod_az - s.alpha))
                         for s in site.sectors]))
    return si, sec, eff


def run(cfg, registry=None):
    """Execute the full pipeline for cfg.n_ues links and write artifacts.

    Returns the list of LinkReports.  Outputs: links.csv, cdf_*.csv,
    manifest.txt, and per-link .cir dumps when enabled.  Results are
    byte-identical for any worker count at a fixed seed.
    """
    reg = registry if registry is not None else load_parameter_tables()
    sc = reg.scenario(cfg.scenario)
    layout = _build_layout(cfg, sc)
    try:
        ues = drop_ues(layout, cfg.n_ues, sc,
                       substream(cfg.seed, 0, rngmod.STAGE_DROP))
    except RuntimeError as exc:   # the layout is too small for the scenario
        raise ConfigError(f"cannot drop {cfg.n_ues} UEs: {exc}") from None
    out = pathlib.Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cir_dir = ""
    if cfg.emit_cir:
        cir_dir = str(out / "cir")
        pathlib.Path(cir_dir).mkdir(exist_ok=True)

    links, serving = [], []
    for ue in ues:
        si, sec, eff = _serve(layout, ue.position)
        site = layout.sites[si]
        links.append(link_geometry(site.position, eff))
        serving.append((si, sec, eff))

    states = assign_states(links, sc, substream(cfg.seed, 0, rngmod.STAGE_STATE),
                           ues=ues,
                           force_los=cfg.force_state or None,
                           force_location=cfg.force_location or None)

    # correlated LSP draws per (site, state, floor) group, on the effective
    # (wrap-around) positions the links are served at
    groups = {}
    for i, (st, ue) in enumerate(zip(states, ues)):
        key = (serving[i][0], st.state_key, ues[i].floor)
        groups.setdefault(key, []).append(i)
    std_vectors = {}
    for (si, skey, floor), idxs in sorted(groups.items()):
        pos = np.array([serving[i][2][:2] for i in idxs])
        f_rng = substream(cfg.seed, 0, si, _STATE_ORD[skey], floor,
                          rngmod.STAGE_LSP_FIELD)
        vals, names = correlated_standard_normals(pos, sc, skey, f_rng)
        for row, i in enumerate(idxs):
            std_vectors[i] = (vals[row], names)

    tasks = []
    for i, ue in enumerate(ues):
        si, sec, eff = serving[i]
        st = states[i]
        g = links[i]
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
        v_vec = speed * np.array([np.cos(ang), np.sin(ang), 0.0])
        usage = "free"
        if cfg.ue_sns:
            usage = cfg.ue_usage or draw_usage(
                cfg.sns_config(), substream(cfg.seed, 0, i, rngmod.STAGE_UE_SNS))
        site = layout.sites[si]
        tasks.append(LinkTask(link_id=i, ue_index=i, site_index=si,
                              sector_index=sec, site_pos=site.position,
                              sector=site.sectors[sec], ue_pos=eff, geom=g,
                              state=st, lsp=lsp, ls=ls, v_vec=v_vec,
                              usage=usage))

    ctx = WorkerContext(cfg=cfg, sc=sc, scaling=reg.angle_scaling,
                        masks=reg.ue_masks, cir_dir=cir_dir)
    if cfg.workers <= 1 or len(tasks) < 2:
        reports = [process_link(ctx, t) for t in tasks]
    else:
        chunks = np.array_split(np.arange(len(tasks)), cfg.workers * 4)
        reports = []
        with ProcessPoolExecutor(max_workers=cfg.workers) as ex:
            futures = [ex.submit(_worker_chunk, ctx, [tasks[i] for i in ch])
                       for ch in chunks if ch.size]
            for fut in futures:
                reports.extend(fut.result())
    reports.sort(key=lambda r: r.link_id)

    _write_outputs(out, cfg, reg, reports)
    return reports


def _write_outputs(out, cfg, reg, reports):
    buf = io.StringIO()
    buf.write(CSV_HEADER)
    for r in reports:
        buf.write(report_row(r))
    (out / "links.csv").write_text(buf.getvalue())
    emit_cdf([r.coupling_loss_db for r in reports], out / "cdf_coupling_loss.csv")
    emit_cdf([r.capacity_bps_hz for r in reports], out / "cdf_capacity.csv")
    emit_cdf([r.ds_s for r in reports], out / "cdf_ds.csv")
    emit_cdf([r.gini_index for r in reports], out / "cdf_gini.csv")
    lines = ["# fr3sim run manifest"]
    for key, val in sorted(asdict(cfg).items()):
        lines.append(f"config {key} = {val}")
    for name, digest in sorted(reg.file_hashes.items()):
        lines.append(f"data {name} sha256 {digest}")
    links_hash = hashlib.sha256((out / "links.csv").read_bytes()).hexdigest()
    lines.append(f"output links.csv sha256 {links_hash}")
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")
