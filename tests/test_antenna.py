import numpy as np
import pytest

from fr3sim.antenna import (ElementPattern, PanelArray, UEDevice,
                            element_positions, element_power_pattern,
                            field_pattern,
                            mount_ue_device, ue_candidate_locations)
from fr3sim.geometry import Orientation, gcs_to_lcs


class TestPowerPattern:
    def test_boresight(self):
        p = ElementPattern.directional()
        assert element_power_pattern(p, 90.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_half_beamwidth(self):
        p = ElementPattern(phi_3db=65, theta_3db=65, a_max=100, sla_v=100)
        assert element_power_pattern(p, 90.0, 32.5) == pytest.approx(-3.0, abs=1e-12)
        assert element_power_pattern(p, 90.0 + 32.5, 0.0) == pytest.approx(-3.0, abs=1e-12)

    def test_floor(self):
        # 12 (180/65)^2 = 92 dB exceeds the 30 dB floor
        p = ElementPattern(phi_3db=65, theta_3db=65, a_max=30, sla_v=30)
        assert element_power_pattern(p, 90.0, 180.0) == pytest.approx(-30.0)

    def test_bounds(self):
        p = ElementPattern.directional()
        rng = np.random.default_rng(0)
        zen = rng.uniform(0, 180, 500)
        az = rng.uniform(-180, 180, 500)
        a = element_power_pattern(p, zen, az)
        assert np.all(a <= 1e-12)
        assert np.all(a >= -p.a_max - 1e-12)

    def test_isotropic_constant(self):
        p = ElementPattern.isotropic()
        rng = np.random.default_rng(1)
        a = element_power_pattern(p, rng.uniform(0, 180, 200),
                                  rng.uniform(-180, 180, 200))
        assert np.allclose(a, 0.0)


class TestFieldPattern:
    # with the identity orientation the element frame is the GCS

    def test_zero_slant_no_phi_component(self):
        p = ElementPattern.directional()
        (_ft,), (fp,) = field_pattern(p, [Orientation()], [0.0], [77.0], [12.0])
        assert fp == pytest.approx(0.0, abs=1e-15)

    def test_slant_45_boresight(self):
        p = ElementPattern(a_max=0, sla_v=0, max_gain_dbi=0)
        (ft,), (fp,) = field_pattern(p, [Orientation()], [45.0], [90.0], [0.0])
        assert ft == pytest.approx(np.sqrt(0.5), rel=1e-12)
        assert fp == pytest.approx(np.sqrt(0.5), rel=1e-12)

    def test_stack_matches_one_element_calls(self):
        # repeated orientations with different slants, shared and per-row
        # angles: each row equals the element evaluated on its own
        rng = np.random.default_rng(3)
        p = ElementPattern()
        o1, o2 = Orientation(30.0, 10.0, 0.0), Orientation(-45.0, 0.0, 5.0)
        oris, slants = [o1, o2, o1, o2, o1], [0.0, 90.0, 90.0, 45.0, -45.0]
        zen, az = rng.uniform(5, 175, (5, 13)), rng.uniform(-179, 179, (5, 13))
        shared = field_pattern(p, oris, slants, zen[0], az[0])
        rows = field_pattern(p, oris, slants, zen, az)
        for g in range(5):
            one = field_pattern(p, [oris[g]], [slants[g]], zen[0], az[0])
            assert np.array_equal(shared[0][g], one[0][0])
            assert np.array_equal(shared[1][g], one[1][0])
            one = field_pattern(p, [oris[g]], [slants[g]], zen[g], az[g])
            assert np.array_equal(rows[0][g], one[0][0])
            assert np.array_equal(rows[1][g], one[1][0])

    def test_power_identity_in_gcs(self):
        # |F_theta|^2 + |F_phi|^2 equals the directive power gain for any
        # mounting orientation and slant
        rng = np.random.default_rng(2)
        p = ElementPattern()
        for _ in range(40):
            slant = rng.uniform(-90, 90)
            o = Orientation(*rng.uniform(-90, 90, 3))
            zen = rng.uniform(5, 175, 25)
            az = rng.uniform(-179, 179, 25)
            (ft,), (fp,) = field_pattern(p, [o], [slant], zen, az)
            zl, al, _ = gcs_to_lcs(o, zen, az)
            a_lin = 10 ** ((element_power_pattern(p, zl, al) + p.max_gain_dbi) / 10)
            assert np.allclose(ft ** 2 + fp ** 2, a_lin, atol=1e-12)


class TestElementPositions:
    def test_square_panel(self):
        a = PanelArray(m=2, n=2, p=1, d_v=0.5, d_h=0.5)
        pos, pol = element_positions(a, 0.04)
        assert pos.shape == (4, 3)
        ys = np.unique(np.round(pos[:, 1], 9))
        zs = np.unique(np.round(pos[:, 2], 9))
        assert np.allclose(ys, [-0.01, 0.01])
        assert np.allclose(zs, [-0.01, 0.01])

    def test_element_count(self):
        a = PanelArray(mg=2, ng=3, m=4, n=2, p=2)
        pos, pol = element_positions(a, 0.05)
        assert pos.shape[0] == 2 * 3 * 4 * 2 * 2 == a.n_elements()
        assert np.sum(pol == 0) == np.sum(pol == 1)

    def test_default_panel_spacing(self):
        # panel pitch defaults to M lambda/2 vertically, N lambda/2 horizontally
        lam = 0.04
        a = PanelArray(mg=2, ng=2, m=4, n=3, p=1)
        pos, _ = element_positions(a, lam)
        zs = np.unique(np.round(pos[:, 2], 12))
        ys = np.unique(np.round(pos[:, 1], 12))
        assert zs.max() - zs.min() == pytest.approx((4 * 0.5 + 3 * 0.5) * lam, rel=1e-9)
        assert ys.max() - ys.min() == pytest.approx((3 * 0.5 + 2 * 0.5) * lam, rel=1e-9)

    def test_dual_pol_colocated(self):
        a = PanelArray(m=2, n=2, p=2)
        pos, pol = element_positions(a, 0.04)
        assert np.allclose(pos[pol == 0], pos[pol == 1])

    def test_large_upa_aperture(self):
        lam = 3.0e8 / 7e9
        a = PanelArray(m=64, n=16, p=2)
        pos, _ = element_positions(a, lam)
        height = pos[:, 2].max() - pos[:, 2].min()
        width = pos[:, 1].max() - pos[:, 1].min()
        assert height == pytest.approx(63 * lam / 2, rel=1e-12)
        assert width == pytest.approx(15 * lam / 2, rel=1e-12)
        assert height == pytest.approx(1.35, abs=0.001)
        assert width == pytest.approx(0.32, abs=0.002)


class TestUeDevice:
    def test_handheld_candidates(self):
        cands = ue_candidate_locations(UEDevice("handheld"))
        assert len(cands) == 8
        offs = np.array([c[0] for c in cands])
        corners = offs[np.all(np.abs(offs[:, :2]) > 1e-9, axis=1)]
        assert corners.shape[0] == 4
        assert np.allclose(np.abs(corners[:, 0]), 0.075)
        assert np.allclose(np.abs(corners[:, 1]), 0.035)
        mids = offs[~np.all(np.abs(offs[:, :2]) > 1e-9, axis=1)]
        assert mids.shape[0] == 4

    def test_cpe_candidates(self):
        cands = ue_candidate_locations(UEDevice("CPE"))
        assert len(cands) == 9
        center = [c for c in cands if np.allclose(c[0], 0)]
        assert len(center) == 1
        ori = center[0][1]
        assert (ori.alpha, ori.beta, ori.gamma) == (0.0, 0.0, 0.0)

    def test_outward_orientations(self):
        for off, ori in ue_candidate_locations(UEDevice("handheld")):
            if np.linalg.norm(off) == 0:
                continue
            u = off / np.linalg.norm(off)
            bore = ori.rotation() @ np.array([1.0, 0.0, 0.0])
            assert np.allclose(bore, u, atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ue_candidate_locations(UEDevice("laptop"))

    def test_mounted_dual_pol(self):
        arr = mount_ue_device(UEDevice("handheld"), np.array([1.0, 2.0, 1.5]))
        assert arr.size == 16
        assert set(arr.slants.tolist()) == {0.0, 90.0}
        assert np.allclose(arr.positions()[0] - arr.offsets[0], [1, 2, 1.5])
        assert sorted(set(arr.candidate_index.tolist())) == list(range(8))
