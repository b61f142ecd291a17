"""Batch runner: configuration, drop orchestration, deterministic seeding,
metrics, and output emission."""

import configparser
import ctypes
import functools
import hashlib
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
# apply_large_scale is bound here, though write_cir calls it, so that the
# benchmark's tracer finds every name of its CIR-write span in this module
from .coefficients import (apply_large_scale, draw_absolute_excess,  # noqa: F401
                           draw_phases, ray_count, synthesize, write_cir)
from .geometry import (Orientation, build_disc_layout, build_hex_layout,
                       build_indoor_layout, drop_ues, effective_ue_position,
                       link_geometry, wrap_azimuth)
from .largescale import (C_LIGHT, correlated_standard_normals,
                         lsps_from_standardized, o2i_penetration, path_loss)
from .nearfield import source_distances
from .scenario import (LSP_ORDER_LOS, STATES, assign_states, data_root,
                       load_parameter_tables)
from .smallscale import build_cluster_set
from .sns import USAGES, draw_usage, stochastic_attenuation, ue_sns_mask

def _key(default, **allowed):
    """A RunConfig field with its allowed values: ``choices`` and/or the
    bounds ``ge``, ``gt`` and ``le``, and ``needs = (key, values)``: a run
    reads the field only when ``key`` has one of ``values``, so it keeps
    its default otherwise.  `_validate` checks every field against them,
    and the CLI makes one flag per field."""
    return field(default=default, metadata=allowed)


# the settings that several keys need
_NF, _RAYS = ("near_field", (True,)), ("ray_count_scaling", (True,))
_SNS = ("sns", ("stochastic",))


@dataclass
class RunConfig:
    scenario: str = "SMa"
    fc_ghz: float = _key(7.0, ge=0.5, le=100.0)
    bandwidth_hz: float = _key(100e6, gt=0.0, needs=_RAYS)
    seed: int = _key(1, ge=0)
    n_ues: int = _key(100, ge=1)
    layout: str = _key("hex", choices=("hex", "indoor", "disc"))
    deploy_radius: float = _key(100.0, gt=0.0, needs=("layout", ("disc",)))
    isd: float = _key(0.0, ge=0.0,              # 0 -> scenario default
                      needs=("layout", ("hex",)))
    snr_db: float = 10.0
    workers: int = _key(1, ge=1, le=256)
    out_dir: str = "out"
    # feature flags
    near_field: bool = False
    nf_angles: bool = _key(False, needs=_NF)
    sns: str = _key("off", choices=("off", "stochastic"))
    ue_sns: bool = _key(False, needs=("ue_device", ("handheld",)))
    cluster_variability: bool = False
    pol_variability: bool = False
    absolute_delay: bool = False
    ray_count_scaling: bool = False
    # model knobs
    force_state: str = _key("", choices=("", "LOS", "NLOS"))
    force_location: str = _key("", choices=("", "outdoor", "indoor"))
    prune_db: float = _key(25.0, ge=0.0)
    nlos_floor: bool = True
    n_spec: int = _key(0, ge=0, needs=_NF)
    # nf_alpha, nf_beta >= 1 keep the Beta draw off 0 and 1
    nf_alpha: float = _key(2.0, ge=1.0, needs=_NF)
    nf_beta: float = _key(2.0, ge=1.0, needs=_NF)
    m_min: int = _key(20, ge=1, needs=_RAYS)
    m_max: int = _key(40, needs=_RAYS)
    abs_delay_bound_m: float = _key(0.0, ge=0.0,  # 0 -> unbounded
                                    needs=("absolute_delay", (True,)))
    # arrays
    bs_rows: int = _key(8, ge=1)  # vertical element count
    bs_cols: int = _key(8, ge=1)
    bs_pol: int = _key(2, choices=(1, 2))
    bs_pattern: str = _key("directional", choices=("directional", "isotropic"))
    bs_downtilt_deg: float = _key(0.0, needs=("layout", ("hex", "disc")))
    ue_device: str = _key("handheld", choices=("handheld", "CPE"))
    ue_dual_pol: bool = True
    ue_usage: str = _key("", choices=("",) + USAGES,  # "" = random draw
                         needs=("ue_sns", (True,)))
    # time sampling
    t_count: int = _key(1, ge=1)
    t_step_s: float = 1e-3
    # outputs
    emit_cir: bool = False
    # the stochastic SNS model's parameters: placeholders pending calibrated
    # tables; the functional forms in sns are fixed
    sns_pr_mu: float = _key(0.5, needs=_SNS)   # Pr_sns: normal cut to [0, 1]
    sns_pr_sigma: float = _key(0.2, gt=0.0, needs=_SNS)
    sns_vp_a: float = _key(0.7, needs=_SNS)    # V = A exp(.) + B + xi
    sns_vp_r_db: float = _key(10.0, gt=0.0, needs=_SNS)
    sns_vp_b: float = _key(0.3, needs=_SNS)
    sns_vp_sigma: float = _key(0.05, ge=0.0, needs=_SNS)
    sns_rolloff: float = _key(4.0, ge=0.0, needs=_SNS)   # C outside the VR

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
        # [DEFAULT] is read as a section of its own, not copied into every
        # section, so that each key is counted once where the file sets it
        parser = configparser.ConfigParser(default_section="\n")
        try:
            text = src.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {src}: {exc}") from None
        flat, where = {}, {}
        try:
            parser.read_string(text)
            for section in parser.sections():
                for key, val in parser.items(section):
                    if key in where:
                        raise ConfigError(
                            f"config key {key!r} is set in both "
                            f"[{where[key]}] and [{section}] of {src}")
                    flat[key], where[key] = val, section
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


def requirement(f):
    """The setting a run reads field ``f`` under, as ``key = v1 or v2``."""
    key, values = f.metadata["needs"]
    return f"{key} = {' or '.join(map(repr, values))}"


def _validate(cfg):
    for f in fields(RunConfig):
        val, allowed = getattr(cfg, f.name), f.metadata
        # a float field takes an int too; only a bool field takes a bool
        if (not isinstance(val, (int, float) if f.type is float else f.type)
                or isinstance(val, bool) != (f.type is bool)):
            raise ConfigError(f"{f.name} = {val!r} is not "
                              f"a valid {f.type.__name__}")
        if f.type is float and not math.isfinite(val):
            raise ConfigError(f"{f.name} = {val!r} is not finite")
        if "choices" in allowed and val not in allowed["choices"]:
            raise ConfigError(f"{f.name} = {val!r} is not one of "
                              f"{', '.join(map(repr, allowed['choices']))}")
        for name, op, sym in _BOUNDS:
            if name in allowed and not op(val, allowed[name]):
                raise ConfigError(f"{f.name} = {val!r} is not "
                                  f"{sym} {allowed[name]}")
        if "needs" in allowed and val != f.default:
            key, values = allowed["needs"]
            if getattr(cfg, key) not in values:
                raise ConfigError(f"{f.name} = {val!r} needs {requirement(f)}")
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


def coupling_loss(h, loss_db=0.0):
    """-10 log10 of the element-averaged received energy, in dB.

    ``h`` is a (pre large-scale) ChannelRealization; ``loss_db`` adds the
    large-scale loss: path loss, penetration, and shadow fading.  Antenna
    gains and SNS attenuation are already inside the tap gains.
    """
    energy = float(np.mean(h.tap_energy))
    if energy <= 0.0:
        raise ValueError("zero-energy channel")
    return loss_db - 10.0 * np.log10(energy)


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
    """Write sorted (value, empirical CDF) rows; values that print the same
    collapse to one row with their maximum CDF."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("no values")
    rows = {}   # printed value -> CDF; sorted input, so the last is largest
    for val, c in zip(v, np.arange(1, v.size + 1) / v.size):
        rows[f"{val + 0.0:.9g}"] = c     # + 0.0 prints -0.0 as 0
    with open(path, "w") as f:
        f.write("value,cdf\n")
        for text, c in rows.items():
            f.write(f"{text},{c:.9g}\n")


def _angular_spread(angles_deg, weights):
    """Power-weighted circular RMS spreads in degrees, one float per entry
    of ``angles_deg``, a stack of angle sets with one angle per weight."""
    a = np.asarray(angles_deg, dtype=float)
    a = np.radians(a.reshape(a.shape[0], -1))
    w = np.asarray(weights, dtype=float).reshape(-1)
    w = w / w.sum()
    mean = np.angle(np.sum(w * np.exp(1j * a), axis=-1))
    dev = np.angle(np.exp(1j * (a - mean[:, None])))
    return np.degrees(np.sqrt(np.sum(w * dev ** 2, axis=-1))).tolist()


def _rms_delay_spread(delays, powers):
    w = np.asarray(powers, dtype=float)
    w = w / w.sum()
    d = np.asarray(delays, dtype=float)
    mean = np.sum(w * d)
    return float(np.sqrt(max(np.sum(w * d ** 2) - mean ** 2, 0.0)))


# -- per-link pipeline -----------------------------------------------------

@dataclass
class LinkTask:
    """One link's indices and its rows of the set-up columns."""
    link_id: int
    ue_index: int
    site_index: int
    sector_index: int
    ue_pos: np.ndarray
    geom: object
    state: object
    lsp: object
    pl_db: float   # path loss plus penetration; links.csv's pl_db
    v_vec: np.ndarray
    usage: str
    ray_count: int = None   # rays per cluster under ray_count_scaling


@dataclass
class LinkReport:
    """One row of links.csv; the field names are its columns."""
    link_id: int
    ue: int
    site: int
    sector: int
    d2d_m: float
    d3d_m: float
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
    gini: float


# links.csv text of a LinkReport field, by the field's type
_CSV_FORMAT = {int: str, str: str, float: "{:.9g}".format}
CSV_HEADER = ",".join(f.name for f in fields(LinkReport)) + "\n"


def report_row(r):
    return ",".join(_CSV_FORMAT[f.type](getattr(r, f.name))
                    for f in fields(LinkReport)) + "\n"


@dataclass
class WorkerContext:
    """What every link of a run reads, built once in set-up."""
    cfg: RunConfig
    sc: object
    layout: object
    scaling: dict
    masks: dict
    bs_arrays: tuple     # one MountedArray per layout sector, at the origin
    ue_device: object    # the UE's MountedArray, at the origin
    t_samples: np.ndarray
    cir_dir: str = ""


def _link_rng(cfg, link_id, stage):
    return substream(cfg.seed, 0, link_id, stage)


def process_link(ctx, task):
    """Full small-scale pipeline plus metrics for one link."""
    cfg, sc = ctx.cfg, ctx.sc
    lam0 = cfg.wavelength()
    geom, state, lsp = task.geom, task.state, task.lsp
    lid = task.link_id

    rngs = {name: _link_rng(cfg, lid, stage) for name, stage in (
        ("count", rngmod.STAGE_CLUSTER_COUNT), ("delays", rngmod.STAGE_DELAYS),
        ("powers", rngmod.STAGE_POWERS), ("angles", rngmod.STAGE_ANGLES),
        ("coupling", rngmod.STAGE_COUPLING), ("xpr", rngmod.STAGE_XPR),
        ("pol", rngmod.STAGE_POL_WEIGHTS))}
    los_angles = (geom.aoa_az, geom.aod_az, geom.zoa, geom.zod)
    cs = build_cluster_set(sc, state, lsp, los_angles, cfg.fc_ghz, rngs,
                           ctx.scaling,
                           cluster_variability=cfg.cluster_variability,
                           pol_variability=cfg.pol_variability,
                           ray_count=task.ray_count, prune_db=cfg.prune_db)
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

    bs = ctx.bs_arrays[task.sector_index].placed_at(
        ctx.layout.positions[task.site_index])
    ue = ctx.ue_device.placed_at(task.ue_pos)

    alpha = None
    if cfg.sns == "stochastic":
        # one row per site, in the frame the BS array was mounted in
        yz = (bs.site_offsets @ bs.frames[0])[:, 1:3]
        alpha = stochastic_attenuation(10.0 * np.log10(cs.p), cfg, yz,
                                       _link_rng(cfg, lid, rngmod.STAGE_SNS))
    beta = None
    if cfg.ue_sns:
        beta = ue_sns_mask(ctx.masks, task.usage, cfg.fc_ghz, ue.site_index)

    synth = functools.partial(
        synthesize, geom, cs, phases, bs, ue, lam0, v_vec=task.v_vec,
        t_samples=ctx.t_samples, near_field=nf, nf_angles=cfg.nf_angles,
        sns_alpha=alpha, sns_beta=beta, base_delay=base_delay)
    # a CIR link streams its taps, scaled by the large-scale loss, to its file
    loss_db = task.pl_db + lsp.sf_db
    h = (write_cir(os.path.join(ctx.cir_dir, f"link_{lid:06d}.cir"), synth,
                   loss_db) if ctx.cir_dir else synth())

    cap = capacity(h.tap_sum, cfg.snr_db)
    cl = coupling_loss(h, loss_db)

    w_ray = np.repeat(cs.p / cs.m, cs.m)
    tap_d, tap_p = _tap_powers(cs, base_delay)
    asa, asd, zsa, zsd = _angular_spread((cs.aoa, cs.aod, cs.zoa, cs.zod),
                                         w_ray)
    report = LinkReport(
        link_id=lid, ue=task.ue_index, site=task.site_index,
        sector=task.sector_index, d2d_m=geom.d2d, d3d_m=geom.d3d,
        state=f"{state.los}/{state.location}",
        pl_db=task.pl_db, sf_db=lsp.sf_db,
        coupling_loss_db=cl, capacity_bps_hz=cap,
        ds_s=_rms_delay_spread(tap_d, tap_p),
        asa_deg=asa, asd_deg=asd, zsa_deg=zsa, zsd_deg=zsd,
        n_clusters=cs.n, m_rays=cs.m, gini=gini(w_ray))
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


# the WorkerContext of a pool worker process, set once by _init_worker, so
# that it and its scenario memo last for the worker's life
_worker_ctx = None


def _init_worker(ctx):
    global _worker_ctx
    _worker_ctx = ctx


def _worker_chunk(tasks):
    return [process_link(_worker_ctx, t) for t in tasks]


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


# UEs per broadcast call of _serve: it holds (block, S, 9, 2) candidate
# images at a time, not (U, S, 9, 2)
SERVE_BLOCK = 1024


def _serve(layout, positions):
    """Serve every UE of ``positions`` (U, 3), one broadcast call per block
    of SERVE_BLOCK UEs: the site whose nearest wrap image of the UE is
    closest in 3D (the first such site on a tie), that image, and the
    sector best aligned with the direction to it (the first on a tie).
    Returns (sites, sectors, effective positions (U, 3), LinkGeometry of
    the served links)."""
    site_pos = layout.positions
    sites, eff = np.empty(len(positions), dtype=int), np.empty(positions.shape)
    for lo in range(0, len(positions), SERVE_BLOCK):
        b = slice(lo, lo + SERVE_BLOCK)
        cand = effective_ue_position(site_pos, positions[b, None, :],
                                     layout.wrap_vectors)
        sites[b] = np.argmin(np.linalg.norm(cand - site_pos, axis=-1), axis=1)
        eff[b] = cand[np.arange(len(cand)), sites[b]]
    geom = link_geometry(site_pos[sites], eff)
    boresights = np.array([s.alpha for s in layout.sectors])
    sectors = np.argmin(np.abs(wrap_azimuth(geom.aod_az[:, None] - boresights)),
                        axis=1)
    return sites, sectors, eff, geom


def _rows(columns):
    """The per-link rows of a dataclass whose fields hold one value per
    link, as instances of the same dataclass."""
    cls = type(columns)
    return [cls(*row) for row in zip(*(np.asarray(getattr(columns, f.name)).tolist()
                                       for f in fields(cls)))]


def _standardized_lsps(cfg, sc, sites, keys, floor, eff):
    """Cross-correlated standard-normal LSP vectors, one row per link in
    LSP_ORDER_LOS order (K is NaN outside LOS).  Each (site, state, floor)
    group of links draws one correlated field, sampled at the effective
    (wrap-around) positions its links are served at."""
    std = np.full((len(keys), len(LSP_ORDER_LOS)), np.nan)
    state_ord = np.select([keys == k for k in STATES], [0, 1, 2])
    groups, inverse = np.unique(np.column_stack([sites, state_ord, floor]),
                                axis=0, return_inverse=True)
    for g, (si, so, fl) in enumerate(groups.tolist()):
        idxs = np.flatnonzero(inverse.ravel() == g)
        f_rng = substream(cfg.seed, 0, si, so, fl, rngmod.STAGE_LSP_FIELD)
        vals, names = correlated_standard_normals(eff[idxs, :2], sc,
                                                  STATES[so], f_rng)
        std[np.ix_(idxs, [LSP_ORDER_LOS.index(m) for m in names])] = vals
    return std


def _link_tasks(cfg, reg, sc, layout, drop, arr):
    """The LinkTask of every dropped UE, served by BS arrays of PanelArray
    ``arr``.  Serving, states, LSPs and the path loss with penetration are
    each computed once over all links, as columns with one row per UE, and a
    task holds its link's rows.  Only the per-UE substreams (O2I random
    term, velocity, usage) are drawn UE by UE."""
    n = len(drop.positions)
    sites, sectors, eff, geom = _serve(layout, drop.positions)
    states = assign_states(geom, drop.indoor, drop.building, sc,
                           substream(cfg.seed, 0, rngmod.STAGE_STATE),
                           force_los=cfg.force_state or None,
                           force_location=cfg.force_location or None)
    keys = states.state_key
    lsp = lsps_from_standardized(
        _standardized_lsps(cfg, sc, sites, keys, drop.floor, eff),
        LSP_ORDER_LOS, geom, sc, states, cfg.fc_ghz)

    pl_tw = np.where(states.location == "car",
                     sc.value("car_loss", default=0.0), 0.0)
    pl_in, pen_rand = np.zeros(n), np.zeros(n)
    indoor = np.flatnonzero(states.location == "indoor")
    pl_tw[indoor], pl_in[indoor], pen_rand[indoor] = o2i_penetration(
        reg.materials, states.o2i_model[indoor], cfg.fc_ghz,
        states.d2d_in[indoor],
        [substream(cfg.seed, 0, i, rngmod.STAGE_O2I_RANDOM) for i in indoor])
    pl_db = path_loss(sc, geom, states, cfg.fc_ghz,
                      nlos_floor=cfg.nlos_floor) + pl_tw + pl_in + pen_rand

    speed = np.where(states.location == "indoor",
                     sc.value("ue_speed_indoor_kmh"),
                     sc.value("ue_speed_outdoor_kmh")) / 3.6
    ang = np.array([substream(cfg.seed, 0, i, rngmod.STAGE_VELOCITY)
                    .uniform(0.0, 2.0 * np.pi) for i in range(n)])
    v_vec = speed[:, None] * np.column_stack([np.cos(ang), np.sin(ang),
                                              np.zeros(n)])
    usage = [(cfg.ue_usage or draw_usage(substream(
        cfg.seed, 0, i, rngmod.STAGE_UE_SNS))) if cfg.ue_sns else "free"
        for i in range(n)]

    # the ray count depends only on the config and the state
    m_rays = {}
    if cfg.ray_count_scaling:
        lam0 = cfg.wavelength()
        d_h, d_v = (arr.n - 1) * arr.d_h * lam0, (arr.m - 1) * arr.d_v * lam0
        for key in np.unique(keys).tolist():
            ssp = sc.ssp(key, cfg.fc_ghz)
            m_rays[key] = ray_count(
                cfg.bandwidth_hz, d_h, d_v, ssp["c_ds"], ssp["c_asd"],
                ssp["c_zsd"], lam0, m_min=cfg.m_min, m_max=cfg.m_max)[0]
    return [LinkTask(link_id=i, ue_index=i, site_index=si, sector_index=sec,
                     ue_pos=eff[i], geom=g, state=st, lsp=lp, pl_db=pl,
                     v_vec=v_vec[i], usage=usage[i], ray_count=m_rays.get(k))
            for i, (si, sec, g, st, lp, pl, k) in enumerate(zip(
                sites.tolist(), sectors.tolist(), _rows(geom), _rows(states),
                _rows(lsp), pl_db.tolist(), keys.tolist()))]


def run(cfg, registry=None):
    """Execute the full pipeline for cfg.n_ues links and write artifacts.

    Returns the list of LinkReports.  Outputs: links.csv, cdf_*.csv,
    manifest.txt, and per-link .cir dumps when enabled.  Results are
    byte-identical for any worker count at a fixed seed.  A config that
    `load_config` rejects raises its ConfigError before any output.
    """
    _validate(cfg)
    reg = registry if registry is not None else load_parameter_tables()
    sc = reg.scenario(cfg.scenario)
    if cfg.layout == "indoor" and not sc.has("layout_width"):
        raise ConfigError(f"layout = indoor: {cfg.scenario} has no indoor layout")
    if cfg.force_location == "indoor" and sc.value("indoor_ratio") == 0:
        raise ConfigError(f"force_location = indoor: {cfg.scenario} has no "
                          "indoor UEs")
    layout = _build_layout(cfg, sc)
    try:
        drop = drop_ues(layout, cfg.n_ues, sc,
                        substream(cfg.seed, 0, rngmod.STAGE_DROP))
    except RuntimeError as exc:   # the layout is too small for the scenario
        raise ConfigError(f"cannot drop {cfg.n_ues} UEs: {exc}") from None
    out = pathlib.Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # a previous run's outputs: its manifest first, then its CIR files and
    # any a killed run left half-written
    (out / "manifest.txt").unlink(missing_ok=True)
    for stale in [*out.glob("cir/link_*.cir"), *out.glob("cir/.tmp-link_*.cir")]:
        stale.unlink()
    cir_dir = ""
    if cfg.emit_cir:
        cir_dir = str(out / "cir")
        pathlib.Path(cir_dir).mkdir(exist_ok=True)

    panel = PanelArray(m=cfg.bs_rows, n=cfg.bs_cols, p=cfg.bs_pol, element=(
        ElementPattern.isotropic() if cfg.bs_pattern == "isotropic"
        else ElementPattern.directional()))
    tasks = _link_tasks(cfg, reg, sc, layout, drop, panel)
    # one BS array per sector and one UE device, mounted at the origin:
    # each link places them at its site and UE position
    origin = np.zeros(3)
    ctx = WorkerContext(
        cfg=cfg, sc=sc, layout=layout, scaling=reg.angle_scaling,
        masks=reg.ue_masks, cir_dir=cir_dir,
        bs_arrays=tuple(mount_bs_array(panel, origin, s, cfg.wavelength())
                        for s in layout.sectors),
        ue_device=mount_ue_device(UEDevice(cfg.ue_device), origin,
                                  dual_polarized=cfg.ue_dual_pol),
        t_samples=np.arange(cfg.t_count) * cfg.t_step_s)
    if cfg.workers <= 1 or len(tasks) < 2:
        reports = [process_link(ctx, t) for t in tasks]
    else:
        chunks = [ch for ch in np.array_split(np.arange(len(tasks)),
                                              cfg.workers * 4) if ch.size]
        reports = []
        # the pool starts all its workers at the first submit, so it gets
        # no more of them than there are chunks
        with ProcessPoolExecutor(max_workers=min(cfg.workers, len(chunks)),
                                 initializer=_init_worker,
                                 initargs=(ctx,)) as ex:
            futures = [ex.submit(_worker_chunk, [tasks[i] for i in ch])
                       for ch in chunks]
            for fut in futures:
                reports.extend(fut.result())
    reports.sort(key=lambda r: r.link_id)

    _write_outputs(out, cfg, reg, reports)
    return reports


def blas_record():
    """The manifest's ``blas`` line: numpy's version, the BLAS it was built
    with, and the kernel an OpenBLAS built for several CPUs chose on this
    one, which can move the last bits of the outputs (``unknown`` where the
    library does not say)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    try:
        # the symbol resolves through the numpy core's link to its BLAS
        from numpy._core import _multiarray_umath
        corename = ctypes.CDLL(_multiarray_umath.__file__) \
            .scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    except (ImportError, OSError, AttributeError):
        core = "unknown"
    return (f"blas numpy {np.__version__} {blas.get('name', 'unknown')} "
            f"{blas.get('version', 'unknown')} core {core}")


# cdf_<name>.csv -> the LinkReport field it is the CDF of
_CDFS = {"coupling_loss": "coupling_loss_db", "capacity": "capacity_bps_hz",
         "ds": "ds_s", "gini": "gini"}


def _write_outputs(out, cfg, reg, reports):
    """Write links.csv, the CDFs and the manifest under ``.tmp-`` names,
    then rename them into place, the manifest last.  ``run`` deleted any
    old manifest before its link pass, so a run that fails part-way never
    leaves a manifest beside outputs it does not describe."""
    def tmp(name):
        return out / f".tmp-{name}"

    tmp("links.csv").write_text(CSV_HEADER + "".join(map(report_row, reports)))
    for name, key in _CDFS.items():
        emit_cdf([getattr(r, key) for r in reports], tmp(f"cdf_{name}.csv"))
    lines = ["# fr3sim run manifest"]
    for key, val in sorted(asdict(cfg).items()):
        lines.append(f"config {key} = {val}")
    for name, digest in sorted(reg.file_hashes.items()):
        lines.append(f"data {name} sha256 {digest}")
    lines.append(blas_record())
    links_hash = hashlib.sha256(tmp("links.csv").read_bytes()).hexdigest()
    lines.append(f"output links.csv sha256 {links_hash}")
    tmp("manifest.txt").write_text("\n".join(lines) + "\n")
    for name in ["links.csv", *(f"cdf_{n}.csv" for n in _CDFS), "manifest.txt"]:
        os.replace(tmp(name), out / name)
