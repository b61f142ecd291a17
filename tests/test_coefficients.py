import functools
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fr3sim.antenna import (ElementPattern, MountedArray, PanelArray, UEDevice,
                            field_pattern, mount_bs_array, mount_ue_device,
                            mounting_frames)
from fr3sim.coefficients import (ChannelRealization, apply_large_scale,
                                 draw_absolute_excess, draw_phases, ray_count,
                                 read_cir, synthesize, write_cir)
from fr3sim.geometry import LinkGeometry, Orientation, vec3
from fr3sim import coefficients, nearfield
from fr3sim.largescale import C_LIGHT
from fr3sim.scenario import load_parameter_tables
from fr3sim.smallscale import ClusterSet, subcluster_groups
from test_synthesis_reference import (element_fields, link, synthesize_taps,
                                     synthesize_with_rays)

REG = load_parameter_tables()
SMA = REG.scenario("SMa")
LAM = C_LIGHT / 7e9


def iso_element(position=(0.0, 0.0, 0.0), slant=0.0):
    frames, frame_index = mounting_frames([Orientation(0, 0, 0)])
    return MountedArray(reference=np.asarray(position, dtype=float),
                        site_offsets=np.zeros((1, 3)),
                        site_index=np.array([0]),
                        slants=np.array([slant], dtype=float),
                        group_index=np.array([0]),
                        frames=frames, frame_index=frame_index,
                        pattern=ElementPattern.isotropic())


def simple_cs(n=1, m=1, p=None, p_los=0.0, angles=(30.0, -60.0, 85.0, 95.0),
              kappa=1e12, strongest=None):
    p = np.ones(n) / n * (1.0 - p_los) if p is None else np.asarray(p)
    tau = np.linspace(0, (n - 1) * 50e-9, n)
    ang = {k: np.full((n, m), v) for k, v in
           zip(("aoa", "aod", "zoa", "zod"), angles)}
    if strongest is None:
        strongest = tuple(np.argsort(p)[::-1][: min(2, n)])
    return ClusterSet(n=n, m=m, tau=tau, tau_scaled=tau.copy(), p=p,
                      p_los=p_los, kappa=np.full((n, m), kappa),
                      eta=np.ones((n, m, 4)), strongest=strongest,
                      subclusters=subcluster_groups(m), c_ds=3.68e-9, **ang)


def geom_for(d3d=50.0):
    return LinkGeometry(d2d=d3d, d3d=d3d, h_bs=10.0, h_ue=10.0,
                        aod_az=0.0, aoa_az=180.0, zod=90.0, zoa=90.0)


class TestPhases:
    def test_range_and_determinism(self):
        a = draw_phases(10, 20, np.random.default_rng(42))
        b = draw_phases(10, 20, np.random.default_rng(42))
        assert a.shape == (10, 20, 4)
        assert np.all((a > -np.pi) & (a < np.pi))
        assert np.array_equal(a, b)

    def test_circular_mean(self):
        ph = draw_phases(12500, 20, np.random.default_rng(1))
        assert abs(np.mean(np.exp(1j * ph))) < 0.01


class TestRayCount:
    def test_mt_reference(self):
        _m, m_t, _a, _z = ray_count(bandwidth_hz=400e6, d_h=0.0, d_v=0.0,
                                    c_ds=10e-9, c_asd=5, c_zsd=3,
                                    wavelength=LAM, m_min=1, m_max=1000)
        assert m_t == 8

    def test_clamping_low(self):
        # the default M_min is 20
        m, *_ = ray_count(bandwidth_hz=1e6, d_h=0.01, d_v=0.01, c_ds=1e-9,
                          c_asd=1, c_zsd=1, wavelength=LAM)
        assert m == 20

    def test_clamping_high(self):
        m, *_ = ray_count(bandwidth_hz=4e9, d_h=2.0, d_v=2.0, c_ds=30e-9,
                          c_asd=10, c_zsd=10, wavelength=LAM, m_min=3,
                          m_max=40)
        assert m == 40

    def test_invalid(self):
        with pytest.raises(ValueError):
            ray_count(bandwidth_hz=0, d_h=1, d_v=1, c_ds=1e-9, c_asd=1,
                      c_zsd=1, wavelength=LAM)


class TestSynthesize:
    def test_static_when_no_velocity(self):
        cs = simple_cs(n=3, m=4)
        ph = draw_phases(3, 4, np.random.default_rng(0))
        h = synthesize_taps(geom_for(), cs, ph, iso_element((0, 0, 10)),
                            iso_element((50, 0, 10)), LAM,
                            t_samples=np.array([0.0, 1e-3, 2e-3]))
        for g in h.gains:
            assert np.allclose(g[..., 0], g[..., 1])
            assert np.allclose(g[..., 0], g[..., 2])

    def test_bs_out_of_group_site_order_rejected(self):
        # two elements, each with its own slant and position: field groups
        # [0, 1] and sites [0, 1], so a tap's (group, site) columns are not
        # the elements, and no gather makes them so
        frames, frame_index = mounting_frames([Orientation(0, 0, 0)] * 2)
        bs = MountedArray(reference=np.array([0.0, 0.0, 10.0]),
                          site_offsets=np.array([[0.0, 0.0, 0.0],
                                                 [0.0, 0.02, 0.0]]),
                          site_index=np.array([0, 1]),
                          slants=np.array([45.0, -45.0]),
                          group_index=np.array([0, 1]),
                          frames=frames, frame_index=frame_index,
                          pattern=ElementPattern.directional())
        ue = mount_ue_device(UEDevice("handheld"), vec3(50, 0, 10))
        cs = simple_cs(n=2, m=1)
        ph = draw_phases(2, 1, np.random.default_rng(4))
        with pytest.raises(ValueError, match="field group by site"):
            synthesize(geom_for(), cs, ph, bs, ue, LAM)

    def test_single_ray_amplitude(self):
        cs = simple_cs(n=1, m=1)
        ph = draw_phases(1, 1, np.random.default_rng(1))
        h = synthesize_taps(geom_for(), cs, ph, iso_element((0, 0, 10)),
                            iso_element((50, 0, 10)), LAM)
        assert h.n_taps == 1
        assert abs(h.gains[0][0, 0, 0]) == pytest.approx(1.0, rel=1e-12)

    def test_tap_count_with_subclustering(self):
        cs = simple_cs(n=5, m=20, p=np.array([0.4, 0.3, 0.1, 0.1, 0.1]))
        ph = draw_phases(5, 20, np.random.default_rng(2))
        h = synthesize(geom_for(), cs, ph, iso_element((0, 0, 10)),
                       iso_element((50, 0, 10)), LAM)
        assert h.n_taps == (5 - 2) + 2 * 3
        assert np.all(np.diff(h.delays) >= 0)

    def test_subcluster_delay_offsets(self):
        cs = simple_cs(n=2, m=20, p=np.array([0.7, 0.3]))
        ph = draw_phases(2, 20, np.random.default_rng(3))
        h = synthesize(geom_for(), cs, ph, iso_element((0, 0, 10)),
                       iso_element((50, 0, 10)), LAM)
        d0 = cs.tau[0]
        assert {round(x, 15) for x in h.delays[:3]} == \
            {round(d0, 15), round(d0 + 1.28 * cs.c_ds, 15),
             round(d0 + 2.56 * cs.c_ds, 15)}

    def test_subcluster_power_split(self):
        # expected power per sub-cluster tap is exactly (0.5, 0.3, 0.2) of
        # the parent cluster power: check the ray grouping weights
        cs = simple_cs(n=2, m=20, p=np.array([0.6, 0.4]))
        ph = draw_phases(2, 20, np.random.default_rng(4))
        _h, ray_gains = synthesize_with_rays(
            (geom_for(), cs, ph, iso_element((0, 0, 10)),
             iso_element((50, 0, 10))))
        for tap_idx, frac in zip(range(3), (0.5, 0.3, 0.2)):
            rays = ray_gains[tap_idx]
            assert rays.shape[2] == int(20 * frac)
            energy = np.sum(np.abs(rays[0, 0, :, 0]) ** 2)
            assert energy == pytest.approx(0.6 * frac, rel=1e-9)

    def test_doppler_phase_increment(self):
        cs = simple_cs(n=1, m=1, angles=(37.0, -143.0, 75.0, 105.0))
        ph = draw_phases(1, 1, np.random.default_rng(5))
        v = np.array([3.0, 4.0, 0.0])
        dt = 1e-3
        h = synthesize_taps(geom_for(), cs, ph, iso_element((0, 0, 10)),
                            iso_element((50, 0, 10)), LAM, v_vec=v,
                            t_samples=np.array([0.0, dt, 2 * dt]))
        g = h.gains[0][0, 0]
        from fr3sim.geometry import sph_unit
        r_rx = sph_unit(75.0, 37.0)
        expect = 2 * np.pi * (r_rx @ v) * dt / LAM
        inc1 = np.angle(g[1] / g[0])
        inc2 = np.angle(g[2] / g[1])
        assert inc1 == pytest.approx(expect, rel=1e-12)
        assert inc2 == pytest.approx(expect, rel=1e-12)

    def test_los_tap_at_base_delay(self):
        cs = simple_cs(n=3, m=2, p=np.array([0.25, 0.15, 0.1]), p_los=0.5)
        ph = draw_phases(3, 2, np.random.default_rng(6))
        g = geom_for(100.0)
        base = g.d3d / C_LIGHT
        h = synthesize_taps(g, cs, ph, iso_element((0, 0, 10)),
                            iso_element((100, 0, 10)), LAM, base_delay=base)
        assert h.delays[0] == pytest.approx(base, rel=1e-15)
        h_off = synthesize_taps(g, replace(cs, p_los=0.0), ph,
                                iso_element((0, 0, 10)),
                                iso_element((100, 0, 10)), LAM,
                                base_delay=base)
        los_term = h.gains[0][0, 0, 0] - h_off.gains[0][0, 0, 0]
        assert abs(los_term) == pytest.approx(np.sqrt(0.5), rel=1e-9)
        expect_phase = np.exp(-2j * np.pi * g.d3d / LAM)
        assert np.angle(los_term / (np.sqrt(0.5) * -expect_phase)) == \
            pytest.approx(0.0, abs=1e-9) or \
            np.angle(los_term / (np.sqrt(0.5) * expect_phase)) == \
            pytest.approx(0.0, abs=1e-9)

    def test_los_term_exactly_when_p_los_positive(self, monkeypatch):
        # the cluster set decides: with p_los > 0 the LOS direction is one
        # more field column and its term is added to the tap at base_delay;
        # with p_los = 0 there is neither
        columns = []

        def counted(mounted, zen, az):
            columns.append(np.shape(zen)[-1])
            return field_pattern(mounted, zen, az)

        monkeypatch.setattr(coefficients, "field_pattern", counted)
        cs = simple_cs(n=3, m=4, p=np.array([0.3, 0.2, 0.1]), p_los=0.4)
        ph = draw_phases(3, 4, np.random.default_rng(7))
        g = geom_for(100.0)
        arrays = (iso_element((0, 0, 10)), iso_element((100, 0, 10)), LAM)
        base = g.d3d / C_LIGHT
        on = synthesize_taps(g, cs, ph, *arrays, base_delay=base)
        off = synthesize_taps(g, replace(cs, p_los=0.0), ph, *arrays,
                              base_delay=base)
        assert columns == [13, 13, 12, 12]
        assert on.delays[0] == off.delays[0] == base
        assert abs(on.gains[0] - off.gains[0]).max() == pytest.approx(
            np.sqrt(0.4), rel=1e-9)
        np.testing.assert_array_equal(on.gains[1:], off.gains[1:])

    def test_nf_angles_needs_near_field(self):
        cs = simple_cs(n=2, m=2, p=np.array([0.6, 0.4]))
        ph = draw_phases(2, 2, np.random.default_rng(8))
        with pytest.raises(ValueError, match="nf_angles"):
            synthesize(geom_for(), cs, ph, iso_element((0, 0, 10)),
                       iso_element((50, 0, 10)), LAM, nf_angles=True)

    def test_energy_conservation_ensemble(self):
        # isotropic single elements, eta = 1: expected total energy is one
        rng = np.random.default_rng(7)
        totals = []
        for seed in range(400):
            n = 10
            p = rng.dirichlet(np.ones(n))
            cs = simple_cs(n=n, m=20, p=p)
            cs.aoa = rng.uniform(-180, 180, (n, 20))
            cs.zoa = rng.uniform(30, 150, (n, 20))
            ph = draw_phases(n, 20, np.random.default_rng([8, seed]))
            h = synthesize(geom_for(), cs, ph, iso_element((0, 0, 10)),
                           iso_element((50, 0, 10)), LAM)
            totals.append(float(h.tap_energy[0, 0]))
        assert np.mean(totals) == pytest.approx(1.0, abs=0.02)


# links with 5-8 clusters, so 9-12 taps: more than numpy's 8-way pairwise
# blocks, which would show if a reduction over the taps summed pairwise
TAP_CASES = {
    "nlos-plane": dict(n=8),
    "los-plane-t2": dict(p_los=0.4, t_count=2),
    "nlos-near": dict(near_field=True, n=6),
    "los-nf-angles-t2": dict(near_field=True, nf_angles=True, p_los=0.4,
                             t_count=2, alpha=True, bs_pos=(0.0, 0.0, 3.0),
                             ue_pos=(2.0, 1.0, 1.5)),
    "los-alpha-beta": dict(p_los=0.4, alpha=True, beta=True, n=7),
    "near-alpha-beta-t2": dict(near_field=True, alpha=True, beta=True,
                               t_count=2, ue_pos=(6.0, 2.0, 1.5)),
}


class TestTapReductions:
    @pytest.mark.parametrize("name", TAP_CASES)
    def test_sums_equal_tensor_reductions(self, name):
        # the tap sum and tap energy accumulated in the tap loop, with and
        # without a sink that keeps the taps, against the taps' own
        # reductions
        case = dict(array=PanelArray(m=4, n=2, p=2,
                                     element=ElementPattern.directional()),
                    **TAP_CASES[name])
        args, kw, _ref = link(case, np.random.default_rng(sum(map(ord, name))))
        kept = synthesize_taps(*args, LAM, **kw)
        lean = synthesize(*args, LAM, **kw)
        assert lean.gains is None and kept.n_taps == lean.n_taps > 8
        g0 = kept.gains[:, :, :, 0]
        for h in (kept, lean):
            np.testing.assert_array_equal(h.tap_sum, g0.sum(axis=0))
            np.testing.assert_array_equal(
                h.tap_energy, np.sum(np.abs(g0) ** 2, axis=0))

    def test_built_from_gains(self):
        # a realization built from its gains alone reduces them
        rng = np.random.default_rng(2)
        g = rng.normal(size=(11, 2, 3, 2)) + 1j * rng.normal(size=(11, 2, 3, 2))
        h = ChannelRealization(fc_ghz=7.0, delays=np.zeros(11), gains=g)
        g0 = g[:, :, :, 0]
        np.testing.assert_array_equal(h.tap_sum, g0.sum(axis=0))
        np.testing.assert_array_equal(h.tap_energy,
                                      np.sum(np.abs(g0) ** 2, axis=0))

    def test_metrics_only_link_holds_no_tensor(self, tmp_path, monkeypatch):
        # one InH LOS link (15 clusters, 19 taps) on the 64 x 16 x 2 near-
        # field array with a handheld UE: the metrics-only call and the
        # call that streams the taps to a CIR file each peak below the size
        # of the (n_taps, U, S, T) tensor.  Each starts from empty scratch,
        # so its peak counts the scratch buffers it grows.
        case = dict(array=PanelArray(m=64, n=16, p=2,
                                     element=ElementPattern.directional()),
                    n=15, near_field=True, p_los=0.4, bs_pos=(0.0, 0.0, 3.0),
                    ue_pos=(1.2, -0.8, 1.0), sector=Orientation(0.0, 90.0, 0.0))
        args, kw, _ref = link(case, np.random.default_rng(1))
        synth = functools.partial(synthesize, *args, LAM, **kw)
        calls = {"metrics": synth,
                 "cir": lambda: write_cir(tmp_path / "x.cir", synth, 60.0)}
        peaks = {}
        for name, call in calls.items():
            monkeypatch.setattr(nearfield.SCRATCH, "buffers", {})
            tracemalloc.start()
            try:
                h = call()
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        u, s = h.tap_sum.shape
        tensor = h.n_taps * u * s * 1 * np.dtype(complex).itemsize
        assert (h.n_taps, u, s) == (19, 16, 2048)
        assert read_cir(tmp_path / "x.cir").gains.shape == (19, 16, 2048, 1)
        assert peaks["metrics"] < tensor and peaks["cir"] < tensor


def per_element_fields(arr, zen, az):
    """Reference: one field_pattern call per element (element_fields)."""
    f = element_fields(arr, np.asarray(zen), np.asarray(az))
    return f[:, 0], f[:, 1]


class TestArrayFields:
    RNG = np.random.default_rng(5)
    ZEN = RNG.uniform(0.0, 180.0, 37)
    AZ = RNG.uniform(-180.0, 180.0, 37)

    def check(self, arr, zen, az):
        # (G, R) group rows for shared angles, (K, R) element rows otherwise
        got = field_pattern(arr, zen, az)
        want = per_element_fields(arr, zen, az)
        shared = zen.ndim == 1
        rows = arr.group_index if shared else slice(None)
        assert got[0].shape == (len(arr.slants) if shared else arr.size,
                                zen.shape[-1])
        assert np.array_equal(got[0][rows], want[0])
        assert np.array_equal(got[1][rows], want[1])

    def test_downtilted_dual_pol_bs(self):
        bs = mount_bs_array(PanelArray(m=8, n=4, p=2), vec3(0, 0, 25),
                            Orientation(30.0, 12.0, 0.0), LAM)
        assert len(bs.slants) == 2
        self.check(bs, self.ZEN, self.AZ)

    @pytest.mark.parametrize("kind", ["handheld", "CPE"])
    def test_ue_devices(self, kind):
        ue = mount_ue_device(UEDevice(kind), vec3(40, 10, 1.5))
        self.check(ue, self.ZEN, self.AZ)

    def test_per_element_angles(self):
        bs = mount_bs_array(PanelArray(m=4, n=2, p=2), vec3(0, 0, 10),
                            Orientation(-60.0, 8.0, 0.0), LAM)
        zen = self.RNG.uniform(0.0, 180.0, (bs.size, 23))
        az = self.RNG.uniform(-180.0, 180.0, (bs.size, 23))
        self.check(bs, zen, az)

    def test_per_group_rows(self):
        ue = mount_ue_device(UEDevice("handheld"), vec3(40, 10, 1.5))
        f_t, f_p = field_pattern(ue, self.ZEN, self.AZ)
        assert f_t.shape == (len(ue.slants), self.ZEN.size) == (16, 37)
        want = per_element_fields(ue, self.ZEN, self.AZ)
        first = [np.flatnonzero(ue.group_index == g)[0]
                 for g in range(len(ue.slants))]
        assert np.array_equal(f_t, want[0][first])
        assert np.array_equal(f_p, want[1][first])
        assert np.array_equal(f_t[ue.group_index], want[0])

    def test_per_element_angles_dual_pol_bs(self):
        # per-element angles give one row per element, each in its own
        # group's frame (synthesize's nf_angles path, LOS column included)
        bs = mount_bs_array(PanelArray(m=4, n=4, p=2,
                                       element=ElementPattern.directional()),
                            vec3(0, 0, 3), Orientation(15.0, 90.0, 0.0), LAM)
        zen = self.RNG.uniform(0.0, 180.0, (bs.size, 11))
        az = self.RNG.uniform(-180.0, 180.0, (bs.size, 11))
        got = field_pattern(bs, zen, az)
        want = per_element_fields(bs, zen, az)
        assert got[0].shape == (32, 11)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        # the two slants of a co-located pair see the same angles but not
        # the same fields
        pair = bs.site_index == bs.site_index[0]
        assert pair.sum() == 2
        assert set(bs.slants[bs.group_index[pair]].tolist()) == {45.0, -45.0}
        assert not np.allclose(got[1][pair][0], got[1][pair][1])

    def test_single_pol_panel_keeps_slant_zero(self):
        arr = PanelArray(m=4, n=2, p=1, element=ElementPattern.directional())
        assert arr.slants() == (0.0,)
        bs = mount_bs_array(arr, vec3(0, 0, 10), Orientation(0.0, 0.0, 0.0),
                            LAM)
        assert bs.slants.tolist() == [0.0]
        assert np.array_equal(bs.frame_index, [0])
        assert np.array_equal(bs.frames,
                              [Orientation(0.0, 0.0, 0.0).rotation()])
        assert np.array_equal(bs.group_index, np.zeros(8))
        self.check(bs, self.ZEN, self.AZ)
        # unrotated and unslanted: the field is all F_theta at the horizon
        f_t, f_p = field_pattern(bs, [90.0], [0.0])
        assert np.allclose(f_p, 0.0, atol=1e-15)
        assert np.allclose(f_t, 10.0 ** (8.0 / 20.0), rtol=1e-12)


class TestAbsoluteDelay:
    def test_median(self):
        rng = np.random.default_rng(9)
        vals = np.array([draw_absolute_excess(SMA, rng) for _ in range(20000)])
        assert np.median(vals) == pytest.approx(10 ** (-7.702), rel=0.03)

    def test_bound_clamps(self):
        rng = np.random.default_rng(10)
        inh = REG.scenario("InH")
        bound = 2 * 50.0 / C_LIGHT
        vals = [draw_absolute_excess(inh, rng, l_bound=50.0) for _ in range(5000)]
        assert max(vals) <= bound + 1e-18


class TestApplyLargeScale:
    def test_identity(self):
        cs = simple_cs(n=2, m=2, p=np.array([0.6, 0.4]))
        ph = draw_phases(2, 2, np.random.default_rng(11))
        h = synthesize_taps(geom_for(), cs, ph, iso_element((0, 0, 10)),
                            iso_element((50, 0, 10)), LAM)
        before = h.gains.copy()
        g = apply_large_scale(h.gains, 0.0)
        assert np.array_equal(g, before)

    def test_20db(self):
        # the gains are scaled in place, and the array itself is returned
        cs = simple_cs(n=1, m=1)
        ph = draw_phases(1, 1, np.random.default_rng(12))
        h = synthesize_taps(geom_for(), cs, ph, iso_element((0, 0, 10)),
                            iso_element((50, 0, 10)), LAM)
        before = h.gains.copy()
        g = apply_large_scale(h.gains, 20.0)
        assert g is h.gains
        assert abs(g[0, 0, 0, 0]) == pytest.approx(
            0.1 * abs(before[0, 0, 0, 0]), rel=1e-12)
        assert np.allclose(g, 0.1 * before, rtol=1e-12, atol=0)

    def test_20db_without_gains(self, tmp_path):
        # write_cir scales each tap as it streams it to the file; the
        # realization it returns holds no gains and keeps the small-scale
        # tap sum and tap energy that the link metrics read
        cs = simple_cs(n=3, m=2, p=np.array([0.5, 0.3, 0.2]))
        ph = draw_phases(3, 2, np.random.default_rng(12))
        args = (geom_for(), cs, ph, iso_element((0, 0, 10)),
                iso_element((50, 0, 10)), LAM)
        want = synthesize_taps(*args)
        path = tmp_path / "x.cir"
        h = write_cir(path, functools.partial(synthesize, *args), 20.0)
        assert h.gains is None
        np.testing.assert_array_equal(h.tap_sum, want.tap_sum)
        np.testing.assert_array_equal(h.tap_energy, want.tap_energy)
        scaled = want.gains * 10.0 ** -1.0
        assert np.array_equal(read_cir(path).gains,
                              scaled.astype(np.complex64).astype(complex))


class TestCirFormat:
    def test_round_trip(self, tmp_path):
        cs = simple_cs(n=4, m=3, p=np.array([0.4, 0.3, 0.2, 0.1]))
        ph = draw_phases(4, 3, np.random.default_rng(13))
        args = (geom_for(), cs, ph, iso_element((0, 0, 10)),
                iso_element((50, 0, 10)), LAM)
        kw = dict(t_samples=np.array([0.0, 1e-3]))
        h = synthesize_taps(*args, **kw)
        path = tmp_path / "x.cir"
        write_cir(path, functools.partial(synthesize, *args, **kw))
        raw = path.read_bytes()
        assert raw[:8] == b"FR3CIR1\x00"
        h2 = read_cir(path)
        assert h2.n_taps == h.n_taps
        assert np.allclose(h2.delays, h.delays)
        for a, b in zip(h.gains, h2.gains):
            assert np.allclose(a, b, atol=1e-6)

    @staticmethod
    def _los_link():
        """A 16 x 8 element LOS link with two time samples: synthesize with
        every argument but the sink bound."""
        cs = simple_cs(n=3, m=4, p=np.array([0.3, 0.2, 0.1]), p_los=0.4)
        ph = draw_phases(3, 4, np.random.default_rng(14))
        bs = mount_bs_array(PanelArray(m=2, n=2, p=2), vec3(0, 0, 10),
                            Orientation(0, 0, 0), LAM)
        ue = mount_ue_device(UEDevice("handheld"), vec3(50, 0, 10))
        return functools.partial(synthesize, geom_for(), cs, ph, bs, ue, LAM,
                                 v_vec=np.array([3.0, 4.0, 0.0]),
                                 t_samples=np.array([0.0, 1e-3]))

    def _written_los_link(self, path):
        """Write _los_link's CIR file at ``path``; returns the link with a
        copy of its taps as gains."""
        synth = self._los_link()
        write_cir(path, synth)
        return synthesize_taps(*synth.args, **synth.keywords)

    def test_bytes_match_naive_writer(self, tmp_path):
        # the layout of write_cir's docstring, packed value by value
        path = tmp_path / "x.cir"
        h = self._written_los_link(path)
        n_taps, u, s, t = h.gains.shape
        assert (u, s, t) == (16, 8, 2) and h.n_taps == n_taps
        want = [b"FR3CIR1\x00", struct.pack("<4I", u, s, t, n_taps),
                struct.pack("<d", h.fc_ghz * 1e9)]
        for i in range(n_taps):
            want.append(struct.pack("<d", h.delays[i]))
            for iu in range(u):
                for js in range(s):
                    for k in range(t):
                        g = h.gains[i, iu, js, k]
                        want.append(struct.pack("<2f", g.real, g.imag))
        assert path.read_bytes() == b"".join(want)
        h2 = read_cir(path)
        assert np.array_equal(h2.delays, h.delays)
        assert np.array_equal(h2.gains, h.gains.astype(np.complex64))

    def test_read_gains_are_f32_rounded_complex128(self, tmp_path):
        path = tmp_path / "x.cir"
        h = self._written_los_link(path)
        g = read_cir(path).gains
        assert g.dtype == np.complex128 and g.shape == h.gains.shape
        assert np.array_equal(g, h.gains.astype(np.complex64).astype(complex))
        # (re, im) pairs along the last axis, as write_cir lays them out
        assert np.array_equal(g.view(float), h.gains.view(float).astype("f4"))

    @pytest.mark.parametrize("keep", [12, -1, -8, -2 * 16 * 8 * 8],
                             ids=["header", "byte", "pair", "rows"])
    def test_truncated_file_rejected(self, tmp_path, keep):
        path = tmp_path / "x.cir"
        write_cir(path, self._los_link())
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match="truncated|body"):
            read_cir(path)

    @pytest.mark.parametrize("extra", [b"\x00", b"\x00" * 8],
                             ids=["byte", "delay"])
    def test_trailing_bytes_rejected(self, tmp_path, extra):
        path = tmp_path / "x.cir"
        write_cir(path, self._los_link())
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(ValueError, match="body"):
            read_cir(path)

    @pytest.mark.parametrize("u, s, t, n_taps",
                             [(1, 1, 0, 2), (0, 1, 1, 2), (1, 1, 1, 0)],
                             ids=["no-samples", "no-ue-elements", "no-taps"])
    def test_empty_dimension_rejected(self, tmp_path, u, s, t, n_taps):
        # a header that write_cir never writes, with a body of the size it
        # declares
        path = tmp_path / "x.cir"
        header = struct.pack("<8s4Id", b"FR3CIR1\x00", u, s, t, n_taps, 7e9)
        path.write_bytes(header + bytes(n_taps * (8 + 8 * u * s * t)))
        with pytest.raises(ValueError, match="empty dimension"):
            read_cir(path)

    def test_failed_link_leaves_no_file(self, tmp_path):
        # a link that fails after its first tap is on disk leaves neither
        # its file nor the partial one it was writing
        synth = self._los_link()

        def fails_after_one_tap(sink):
            written = []

            def sink_once(delay, g):
                if written:
                    raise RuntimeError("link failed")
                written.append(delay)
                sink(delay, g)

            return synth(sink=sink_once)

        with pytest.raises(RuntimeError, match="link failed"):
            write_cir(tmp_path / "x.cir", fails_after_one_tap)
        assert list(tmp_path.iterdir()) == []
