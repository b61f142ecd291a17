"""`synthesize` against a naive per-ray reference.

The reference below evaluates every element's field pattern and array
phase on its own and sums the rays of each tap with one einsum per ray
term, with no grouping by field or site.  Every tap of the synthesized
channel must match it to 1e-12 relative to the tap's largest gain.  Its
per-ray gains are what the per-ray checks of the other test modules read;
each of them ties the reference to `synthesize` on its own input.
"""

from dataclasses import replace

import numpy as np
import pytest

from fr3sim import coefficients
from fr3sim.antenna import (ElementPattern, PanelArray, UEDevice,
                            field_pattern, mount_bs_array, mount_ue_device)
from fr3sim.coefficients import draw_phases, synthesize
from fr3sim.geometry import Orientation, link_geometry
from fr3sim.harness import RunConfig
from fr3sim.largescale import C_LIGHT
from fr3sim.nearfield import source_distances
from fr3sim.sns import stochastic_attenuation
from fr3sim.smallscale import ClusterSet, subcluster_groups

LAM = C_LIGHT / 7e9
REL = 1e-12


def unit(zen, az):
    th, ph = np.radians(zen), np.radians(az)
    return np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                     np.cos(th)], axis=-1)


def angles(v):
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    return (np.degrees(np.arccos(np.clip(v[..., 2], -1.0, 1.0))),
            np.degrees(np.arctan2(v[..., 1], v[..., 0])))


def element_fields(arr, zen, az):
    """(K, 2, R): one field_pattern call per element, on a one-element
    array of the element's frame and slant; zen / az are (R,) or (K, R)."""
    out = []
    for k in range(arr.size):
        z = zen if np.ndim(zen) == 1 else zen[k]
        a = az if np.ndim(az) == 1 else az[k]
        g = arr.group_index[[k]]
        one = replace(arr, slants=arr.slants[g], group_index=np.array([0]),
                      frames=arr.frames[arr.frame_index[g]],
                      frame_index=np.array([0]))
        f_t, f_p = field_pattern(one, z, a)
        out.append(np.stack([f_t[0], f_p[0]]))
    return np.array(out)


def element_phases(offsets, r_hat, d=None):
    """(K, R) plane-wave or spherical-wave phases, one per element and ray."""
    proj = np.einsum("kc,rc->kr", offsets, r_hat)
    if d is None:
        return np.exp(2j * np.pi * proj / LAM)
    sq = np.einsum("kc,kc->k", offsets, offsets)[:, None]
    dist = np.sqrt(d ** 2 - 2.0 * d * proj + sq)
    return np.exp(2j * np.pi * (2.0 * d * proj - sq) / (d + dist) / LAM)


def reference(geom, cs, ph, bs, ue, v=None, t=(0.0,), nf=None,
              nf_angles=False, alpha=None, beta=None, base_delay=0.0):
    """Delays, (U, S, T) tap gains and (U, S, R_tap, T) per-ray gains, the
    LOS term, present when cs.p_los > 0, appended to its tap as one more
    ray."""
    n, m = cs.n, cs.m
    t = np.asarray(t, dtype=float)
    v = np.zeros(3) if v is None else np.asarray(v, dtype=float)
    zoa, aoa, zod, aod = (x.reshape(-1) for x in (cs.zoa, cs.aoa, cs.zod, cs.aod))
    r_rx, r_tx = unit(zoa, aoa), unit(zod, aod)
    d1 = d2 = None
    if nf is not None:
        d1, d2 = nf.d1.reshape(-1), nf.d2.reshape(-1)
    f_rx = element_fields(ue, zoa, aoa)
    if nf_angles and nf is not None:
        src = bs.reference + d1[:, None] * r_tx
        f_tx = element_fields(bs, *angles(src[None] - bs.positions()[:, None]))
    else:
        f_tx = element_fields(bs, zod, aod)
    a_rx = element_phases(ue.offsets, r_rx, d2)
    a_tx = element_phases(bs.offsets, r_tx, d1)
    if beta is not None:
        a_rx = a_rx * np.sqrt(beta)[:, None]
    if alpha is not None:
        # alpha has one row per site of bs.site_offsets; each element takes
        # the row of the site at its own offset
        row = {o.tobytes(): p for p, o in enumerate(bs.site_offsets)}
        alpha = alpha[[row[o.tobytes()] for o in bs.offsets]]
        a_tx = a_tx * np.sqrt(np.repeat(alpha, m, axis=1))
    x = np.empty((n * m, 2, 2), dtype=complex)     # polarization matrices
    eta, kap = cs.eta.reshape(-1, 4), cs.kappa.reshape(-1)
    e = np.exp(1j * ph.reshape(-1, 4))
    x[:, 0, 0] = np.sqrt(eta[:, 0]) * e[:, 0]
    x[:, 0, 1] = np.sqrt(eta[:, 1] / kap) * e[:, 1]
    x[:, 1, 0] = np.sqrt(eta[:, 2] / kap) * e[:, 2]
    x[:, 1, 1] = np.sqrt(eta[:, 3]) * e[:, 3]
    amp = np.sqrt(np.repeat(cs.p, m) / m)
    dop = np.exp(2j * np.pi * np.outer(r_rx @ v / LAM, t))        # (R, T)

    taps = sorted(cs.taps(base_delay), key=lambda tap: tap[0])
    delays = np.array([d for d, _rays, _p in taps])
    gains, ray_gains = [], []
    for _d, rays, _p in taps:
        rg = np.einsum("uar,rab,sbr,ur,sr,r,rt->usrt", f_rx[:, :, rays],
                       x[rays], f_tx[:, :, rays], a_rx[:, rays],
                       a_tx[:, rays], amp[rays], dop[rays])
        ray_gains.append(rg)
        gains.append(rg.sum(axis=2))
    if cs.p_los > 0:
        f_rx = element_fields(ue, [geom.zoa], [geom.aoa_az])[:, :, 0]
        if nf_angles and nf is not None:
            zen, az = angles(ue.reference - bs.positions())
            f_tx = element_fields(bs, zen[:, None], az[:, None])
        else:
            f_tx = element_fields(bs, [geom.zod], [geom.aod_az])
        f_tx = f_tx[:, :, 0]
        coup = np.einsum("ua,ab,sb->us", f_rx, np.diag([1.0, -1.0]), f_tx)
        if nf is not None:
            pair = np.linalg.norm(ue.positions()[:, None] - bs.positions()[None],
                                  axis=-1)
            phase = np.exp(-2j * np.pi * pair / LAM)
        else:
            phase = (np.exp(-2j * np.pi * geom.d3d / LAM)
                     * element_phases(ue.offsets, unit(geom.zoa, geom.aoa_az)[None])
                     * element_phases(bs.offsets, unit(geom.zod, geom.aod_az)[None]).T)
        h = np.sqrt(cs.p_los) * coup * phase
        if beta is not None:
            h = h * np.sqrt(beta)[:, None]
        if alpha is not None:
            h = h * np.sqrt(alpha[:, 0])[None, :]
        h = h[:, :, None] * np.exp(2j * np.pi * (unit(geom.zoa, geom.aoa_az) @ v)
                                   / LAM * t)
        i0 = int(np.argmin(np.abs(delays - base_delay)))
        gains[i0] = gains[i0] + h
        ray_gains[i0] = np.concatenate([ray_gains[i0], h[:, :, None]], axis=2)
    return delays, gains, ray_gains


def random_cs(rng, n, m, p_los=0.0):
    p = rng.dirichlet(np.ones(n)) * (1.0 - p_los)
    tau = np.sort(rng.exponential(40e-9, n))
    tau -= tau[0]
    ang = {"aoa": rng.uniform(-180, 180, (n, m)),
           "aod": rng.uniform(-70, 70, (n, m)),
           "zoa": rng.uniform(40, 140, (n, m)),
           "zod": rng.uniform(60, 150, (n, m))}
    return ClusterSet(n=n, m=m, tau=tau, tau_scaled=tau.copy(), p=p,
                      p_los=p_los, kappa=10 ** (rng.normal(9, 3, (n, m)) / 10),
                      eta=rng.uniform(0.5, 1.5, (n, m, 4)),
                      strongest=tuple(np.argsort(p)[::-1][:2]),
                      subclusters=subcluster_groups(m), c_ds=5e-9, **ang)


DIRECTIONAL = ElementPattern.directional()


def link(case, rng):
    """synthesize's keyword arguments and the reference's for one case."""
    arr = case["array"]
    bs_pos = np.array(case.get("bs_pos", (0.0, 0.0, 10.0)))
    ue_pos = np.array(case.get("ue_pos", (35.0, 12.0, 1.5)))
    sector = case.get("sector", Orientation(20.0, 10.0, 0.0))
    bs = mount_bs_array(arr, bs_pos, sector, LAM)
    ue = mount_ue_device(UEDevice("handheld"), ue_pos)
    geom = link_geometry(bs_pos, ue_pos)
    cs = random_cs(rng, case.get("n", 5), case.get("m", 20),
                   p_los=case.get("p_los", 0.0))
    ph = draw_phases(cs.n, cs.m, rng)
    # the first sample is not at t = 0, so that every sample sees Doppler
    kw = dict(t=2.5e-3 + np.arange(case.get("t_count", 1)) * 1e-3,
              v=rng.normal(0.0, 3.0, 3), base_delay=geom.d3d / C_LIGHT)
    if case.get("near_field"):
        kw["nf"] = source_distances(cs, geom.d3d, 0.0, 1, 2.0, 2.0, rng)
    kw["nf_angles"] = case.get("nf_angles", False)
    if case.get("alpha"):
        # one row per element site, as process_link draws it
        yz = (bs.site_offsets @ sector.rotation())[:, 1:3]
        cfg = RunConfig(sns_pr_mu=0.9, sns_pr_sigma=0.05)   # most clusters SNS
        kw["alpha"] = stochastic_attenuation(10 * np.log10(cs.p), cfg, yz, rng)
    if case.get("beta"):
        kw["beta"] = rng.uniform(0.1, 1.0, ue.size)
    args = (geom, cs, ph, bs, ue)
    got = dict(v_vec=kw["v"], t_samples=kw["t"],
               near_field=kw.get("nf"), nf_angles=kw["nf_angles"],
               sns_alpha=kw.get("alpha"), sns_beta=kw.get("beta"),
               base_delay=kw["base_delay"])
    return args, got, kw


# inh-nf: the 2048-element near-field LOS workload; umi-sns: 2048-element
# plane-wave LOS with alpha per element site, UE beta and 3 time samples;
# sma-default: the default 8x8x2 array; nf-angles: per-element fields and
# alpha; near-alpha: per-site alpha and UE beta on near-field phases
CASES = {
    "inh-nf": dict(
        array=PanelArray(m=64, n=16, p=2, element=DIRECTIONAL),
        bs_pos=(0.0, 0.0, 3.0), ue_pos=(1.2, -0.8, 1.0),
        sector=Orientation(0.0, 90.0, 0.0), near_field=True, p_los=0.4),
    "umi-sns": dict(
        array=PanelArray(m=64, n=16, p=2, element=DIRECTIONAL),
        alpha=True, beta=True, t_count=3, p_los=0.4),
    "sma-default": dict(array=PanelArray(m=8, n=8, p=2, element=DIRECTIONAL)),
    "nf-angles": dict(array=PanelArray(m=8, n=4, p=2, element=DIRECTIONAL),
                      bs_pos=(0.0, 0.0, 3.0), ue_pos=(2.0, 1.0, 1.5),
                      near_field=True, nf_angles=True, p_los=0.4, t_count=2,
                      alpha=True),
    "single-pol": dict(array=PanelArray(m=8, n=4, p=1, element=DIRECTIONAL),
                       p_los=0.4, t_count=2),
    "near-alpha": dict(array=PanelArray(m=8, n=6, p=2, element=DIRECTIONAL),
                       near_field=True, ue_pos=(6.0, 2.0, 1.5), alpha=True,
                       beta=True),
}


def synthesize_taps(*args, **kw):
    """synthesize(*args, **kw) with a copy of every tap its sink gets,
    stacked into the realization's (n_taps, U, S, T) gains, after checking
    that the sink got the taps' delays in order."""
    delays, taps = [], []

    def keep(delay, g):
        delays.append(delay)
        taps.append(g.copy())

    h = synthesize(*args, sink=keep, **kw)
    assert np.array_equal(delays, h.delays)
    h.gains = np.array(taps)
    return h


def run_case(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    args, got_kw, ref_kw = link(CASES[name], rng)
    h = synthesize_taps(*args, LAM, **got_kw)
    want = reference(*args, **ref_kw)
    return h, want


def assert_taps_close(got, want):
    """Every tap of ``got`` (one (n_taps, U, S, T) tensor or a list of
    taps) is ``want``'s to REL of the tap's largest gain."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        err = np.max(np.abs(g - w)) / np.max(np.abs(w))
        assert err <= REL


def synthesize_with_rays(args, **kw):
    """synthesize(*args, LAM, **kw) and the reference's per-ray gains of the
    same link, after checking that the reference's taps are synthesize's."""
    h = synthesize_taps(*args, LAM, **kw)
    delays, gains, rays = reference(
        *args, v=kw.get("v_vec"),
        t=kw.get("t_samples", (0.0,)), nf=kw.get("near_field"),
        nf_angles=kw.get("nf_angles", False), alpha=kw.get("sns_alpha"),
        beta=kw.get("sns_beta"), base_delay=kw.get("base_delay", 0.0))
    assert np.array_equal(h.delays, delays)
    assert_taps_close(h.gains, gains)
    return h, rays


@pytest.mark.parametrize("name", CASES)
def test_taps_match_naive_reference(name):
    h, (delays, gains, _rays) = run_case(name)
    assert h.gains.shape == (len(delays),) + gains[0].shape
    assert np.array_equal(h.delays, delays)
    assert_taps_close(h.gains, gains)


@pytest.mark.parametrize("name", ["nf-angles", "near-alpha", "umi-sns"])
def test_reference_rays_sum_to_taps(name):
    # the per-ray gains, the LOS ray included, add up to synthesize's taps
    h, (_delays, _gains, ray_gains) = run_case(name)
    assert_taps_close(h.gains, [r.sum(axis=2) for r in ray_gains])


@pytest.mark.parametrize("name", CASES)
def test_one_field_pattern_call_per_array(name, monkeypatch):
    # the UE and the BS fields, the LOS column and nf_angles' per-element
    # angles included, come from one field_pattern call each
    calls = []

    def counted(mounted, zen, az):
        calls.append(mounted)
        return field_pattern(mounted, zen, az)

    monkeypatch.setattr(coefficients, "field_pattern", counted)
    args, got_kw, _ref_kw = link(CASES[name], np.random.default_rng(3))
    synthesize(*args, LAM, **got_kw)
    assert len(calls) == 2
    assert calls[0] is args[4] and calls[1] is args[3]    # the UE, the BS


@pytest.mark.parametrize("name, rejected", [
    ("sma-default", True), ("nf-angles", True), ("single-pol", False)])
def test_alpha_has_one_row_per_site(name, rejected):
    # an (S, N) alpha with one row per element is the site layout only when
    # no two elements share a site: a single-polarized array runs, and a
    # dual-polarized one is rejected on the plane-wave and nf_angles paths
    args, got_kw, ref_kw = link(CASES[name], np.random.default_rng(5))
    cs, bs = args[1], args[3]
    alpha = np.random.default_rng(6).uniform(0.05, 1.0, (bs.size, cs.n))
    got_kw["sns_alpha"] = ref_kw["alpha"] = alpha
    if rejected:
        with pytest.raises(ValueError, match="sns_alpha"):
            synthesize(*args, LAM, **got_kw)
    else:
        h = synthesize_taps(*args, LAM, **got_kw)
        assert_taps_close(h.gains, reference(*args, **ref_kw)[1])
