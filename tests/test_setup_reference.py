"""The columnar set-up against the scalar per-link reference in
`setup_reference.py`: every field of every task, and every value of the
set-up functions on both sides of each breakpoint, must match it exactly
(``==``, not approximately)."""

import warnings
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

import setup_reference as ref
from fr3sim import harness, rng as rngmod
from fr3sim.antenna import PanelArray
from fr3sim.geometry import LinkGeometry, drop_ues
from fr3sim.harness import load_config
from fr3sim.largescale import lsps_from_standardized, path_loss
from fr3sim.rng import substream
from fr3sim.scenario import (LSP_ORDER_LOS, LSP_ORDER_NLOS, PropagationState,
                             load_parameter_tables, los_probability)

REG = load_parameter_tables()

# random drops in all five scenarios, and the forced-state knobs
CASES = {
    "sma-hex": {"n_ues": 60, "seed": 5},
    "uma-hex": {"scenario": "UMa", "n_ues": 60, "seed": 6},
    "umi-hex": {"scenario": "UMi", "n_ues": 60, "seed": 7},
    "rma-hex-24ghz": {"scenario": "RMa", "n_ues": 60, "seed": 8,
                      "fc_ghz": 24.0},
    "inh-indoor": {"scenario": "InH", "layout": "indoor", "n_ues": 60,
                   "seed": 9},
    "umi-disc-los-indoor": {"scenario": "UMi", "layout": "disc", "n_ues": 40,
                            "force_state": "LOS", "force_location": "indoor"},
    "sma-nlos-outdoor": {"n_ues": 40, "seed": 2, "force_state": "NLOS",
                         "force_location": "outdoor", "nlos_floor": False},
    "uma-sns-ray-scaling": {"scenario": "UMa", "n_ues": 40, "seed": 3,
                            "ue_sns": True, "ray_count_scaling": True},
    "umi-fixed-usage": {"scenario": "UMi", "n_ues": 20, "ue_sns": True,
                        "ue_usage": "two-hand"},
}


def assert_same(got, want, where):
    """Exact equality of a task field and its reference value; a reference
    K factor of None (non-LOS) is NaN in the columns."""
    if is_dataclass(want):
        for f in fields(want):
            assert_same(getattr(got, f.name), getattr(want, f.name),
                        f"{where}.{f.name}")
    elif want is None and where.endswith("k_db"):
        assert np.isnan(got), where
    elif isinstance(want, np.ndarray):
        assert np.array_equal(got, want), where
    else:
        assert got == want, where


def check_run(overrides):
    cfg = load_config(overrides=overrides)
    sc = REG.scenario(cfg.scenario)
    layout = harness._build_layout(cfg, sc)
    drop = drop_ues(layout, cfg.n_ues, sc,
                    substream(cfg.seed, 0, rngmod.STAGE_DROP))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tasks = harness._link_tasks(cfg, REG, sc, layout, drop,
                                    PanelArray(m=cfg.bs_rows, n=cfg.bs_cols))
    want = ref.link_setup(cfg, REG, sc, layout, drop)
    assert len(tasks) == len(want) == cfg.n_ues
    for task, w in zip(tasks, want):
        for name, value in w.items():
            assert_same(getattr(task, name), value, f"link {w['link_id']} {name}")
    return tasks


@pytest.mark.parametrize("name", sorted(CASES))
def test_tasks_match_per_link_reference(name):
    tasks = check_run(CASES[name])
    states = {(t.state.los, t.state.location) for t in tasks}
    assert len(states) > 1 or "force_state" in CASES[name]


@pytest.mark.slow
def test_tasks_match_per_link_reference_20000_ues():
    check_run({"n_ues": 20000})


def _columns(d2d, h_bs, h_ue):
    d2d, h_bs, h_ue = np.broadcast_arrays(*map(np.asarray, (d2d, h_bs, h_ue)))
    zero = np.zeros(d2d.shape)
    return LinkGeometry(d2d=d2d, d3d=np.hypot(d2d, h_bs - h_ue), h_bs=h_bs,
                        h_ue=h_ue, aod_az=zero, aoa_az=zero, zod=zero, zoa=zero)


def _around(*points):
    """Each point, the floats next to it and points 1e-9 relative away."""
    return np.unique([q for p in points for q in (
        p, np.nextafter(p, -np.inf), np.nextafter(p, np.inf),
        p * (1 - 1e-9), p * (1 + 1e-9))])


@pytest.mark.parametrize("name", sorted(REG.scenarios))
def test_los_probability_at_every_breakpoint(name):
    sc = REG.scenarios[name]
    edges = [1.2, 6.5, 10.0, 18.0]
    if sc.has("los_critical_distance"):
        edges.append(sc.value("los_critical_distance"))
    d2d = np.concatenate([[0.0], _around(*edges),
                          np.random.default_rng(1).uniform(0, 3000, 200)])
    h_ue = _around(1.5, 13.0, 23.0)[:, None]
    got = los_probability(sc, d2d[None, :], h_ue)
    assert got.shape == (h_ue.size, d2d.size)
    for i, h in enumerate(h_ue[:, 0]):
        for j, d in enumerate(d2d):
            assert got[i, j] == ref.los_probability(sc, float(d), float(h)), (h, d)


@pytest.mark.parametrize("name", sorted(REG.scenarios))
def test_path_loss_and_lsps_at_every_breakpoint(name):
    sc = REG.scenarios[name]
    fc = 7.0
    h_bs = sc.value("h_bs_default")
    heights = (1.5, 4.5, 22.5)
    d2d, h_ue = [], []
    for h in heights:
        dbp = ref.breakpoint(sc, h_bs, h, fc)
        pts = _around(dbp, sc.value("pl_d2d_min", default=1.0),
                      sc.value("pl_d2d_max", default=5000.0))
        d2d += pts.tolist()
        h_ue += [h] * pts.size
    d2d = np.array(d2d)
    n = d2d.size
    geom = _columns(d2d, h_bs, np.array(h_ue))
    with_o2i = sc.value("indoor_ratio") > 0
    rng = np.random.default_rng(2)
    los = np.where(rng.uniform(size=n) < 0.5, "LOS", "NLOS")
    location = np.where(with_o2i & (rng.uniform(size=n) < 0.3), "indoor",
                        "outdoor")
    states = PropagationState(los, location, np.full(n, "none"), np.zeros(n))
    std = rng.standard_normal((n, len(LSP_ORDER_LOS)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pl = {floor: path_loss(sc, geom, states, fc, nlos_floor=floor)
              for floor in (True, False)}
    lsp = lsps_from_standardized(std, LSP_ORDER_LOS, geom, sc, states, fc)
    for u, (g, st, l) in enumerate(zip(harness._rows(geom), harness._rows(states),
                                             harness._rows(lsp))):
        for floor in (True, False):
            assert pl[floor][u] == ref.path_loss(sc, g, st, fc, floor), (u, floor)
        names = LSP_ORDER_LOS if st.state_key == "los" else LSP_ORDER_NLOS
        s = std[u, [LSP_ORDER_LOS.index(m) for m in names]]
        assert_same(l, ref.lsps_from_standardized(s, names, g, sc, st, fc),
                    f"link {u} lsp")
