import numpy as np
import pytest

from fr3sim import antenna
from fr3sim.antenna import (ElementPattern, MountedArray, PanelArray,
                            UEDevice, element_grid, element_power_pattern,
                            field_pattern, mount_bs_array, mount_ue_device,
                            mounting_frames, ue_candidate_locations)
from fr3sim.geometry import Orientation, gcs_to_lcs


def field_groups(p, orientations, slants):
    """A MountedArray of pattern ``p`` at the origin with one element per
    (orientation, slant) field group, all on one site."""
    frames, index = mounting_frames(orientations)
    k = np.arange(len(orientations))
    return MountedArray(np.zeros(3), np.zeros((1, 3)), np.zeros_like(k),
                        np.array(slants, dtype=float), k, frames, index, p)


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
    IDENTITY = [Orientation()]

    def test_zero_slant_no_phi_component(self):
        p = ElementPattern.directional()
        (_ft,), (fp,) = field_pattern(field_groups(p, self.IDENTITY, [0.0]),
                                      [77.0], [12.0])
        assert fp == pytest.approx(0.0, abs=1e-15)

    def test_slant_45_boresight(self):
        p = ElementPattern(a_max=0, sla_v=0, max_gain_dbi=0)
        (ft,), (fp,) = field_pattern(field_groups(p, self.IDENTITY, [45.0]),
                                     [90.0], [0.0])
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
        arr = field_groups(p, oris, slants)
        assert len(arr.frames) == 2
        assert list(arr.frame_index) == [0, 1, 0, 1, 0]
        shared = field_pattern(arr, zen[0], az[0])
        rows = field_pattern(arr, zen, az)
        for g in range(5):
            one = field_pattern(field_groups(p, [oris[g]], [slants[g]]),
                                zen[0], az[0])
            assert np.array_equal(shared[0][g], one[0][0])
            assert np.array_equal(shared[1][g], one[1][0])
            one = field_pattern(field_groups(p, [oris[g]], [slants[g]]),
                                zen[g], az[g])
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
            (ft,), (fp,) = field_pattern(field_groups(p, [o], [slant]),
                                          zen, az)
            zl, al, _ = gcs_to_lcs(o.rotation(), zen, az)
            a_lin = 10 ** ((element_power_pattern(p, zl, al) + p.max_gain_dbi) / 10)
            assert np.allclose(ft ** 2 + fp ** 2, a_lin, atol=1e-12)


def unrotated(a, wavelength):
    """``a`` mounted at the origin with the array frame as the GCS."""
    return mount_bs_array(a, np.zeros(3), Orientation(), wavelength)


class TestElementPositions:
    def test_square_panel(self):
        a = PanelArray(m=2, n=2, p=1, d_v=0.5, d_h=0.5)
        pos = unrotated(a, 0.04).offsets
        assert pos.shape == (4, 3)
        ys = np.unique(np.round(pos[:, 1], 9))
        zs = np.unique(np.round(pos[:, 2], 9))
        assert np.allclose(ys, [-0.01, 0.01])
        assert np.allclose(zs, [-0.01, 0.01])

    def test_element_count(self):
        # polarization-major, then row, then column: element k sits at site
        # k mod (M N), so the second polarization repeats the first's sites
        a = PanelArray(m=4, n=3, p=2)
        arr = unrotated(a, 0.05)
        pos = arr.offsets
        assert pos.shape[0] == 4 * 3 * 2
        assert arr.group_index.tolist() == [0] * 12 + [1] * 12
        assert arr.slants.tolist() == [45.0, -45.0]
        assert arr.frame_index.tolist() == [0, 0]
        assert arr.site_index.tolist() == list(range(12)) * 2
        assert np.array_equal(pos[12:], pos[:12])
        assert np.array_equal(pos[:3, 2], np.full(3, pos[0, 2]))
        assert np.all(np.diff(pos[:3, 1]) > 0)

    def test_dual_pol_colocated(self):
        arr = unrotated(PanelArray(m=2, n=2, p=2), 0.04)
        pol = arr.group_index
        assert np.allclose(arr.offsets[pol == 0], arr.offsets[pol == 1])

    def test_large_upa_aperture(self):
        lam = 3.0e8 / 7e9
        a = PanelArray(m=64, n=16, p=2)
        pos = unrotated(a, lam).offsets
        height = pos[:, 2].max() - pos[:, 2].min()
        width = pos[:, 1].max() - pos[:, 1].min()
        assert height == pytest.approx(63 * lam / 2, rel=1e-12)
        assert width == pytest.approx(15 * lam / 2, rel=1e-12)
        assert height == pytest.approx(1.35, abs=0.001)
        assert width == pytest.approx(0.32, abs=0.002)
        # the grid is centred on the mean over all M N sites, bit for bit
        r, c = np.divmod(np.arange(64 * 16), 16)
        ys, zs = c * 0.5 * lam, r * 0.5 * lam
        y, z = element_grid(a, lam)
        assert np.array_equal(y, ys[:16] - ys.mean())
        assert np.array_equal(z, zs[::16] - zs.mean())


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
        assert arr.slants.tolist() == [0.0] * 8 + [90.0] * 8
        assert np.allclose(arr.positions()[0] - arr.offsets[0], [1, 2, 1.5])
        assert arr.site_index.tolist() == list(range(8)) * 2

    @pytest.mark.parametrize("kind", ["handheld", "CPE"])
    @pytest.mark.parametrize("dual", [True, False])
    def test_element_order_slant_major(self, kind, dual):
        # oracle: one element per (slant, candidate), slant-major
        arr = mount_ue_device(UEDevice(kind), np.zeros(3), dual_polarized=dual)
        want = [(off, ori, slant, i)
                for slant in ((0.0, 90.0) if dual else (0.0,))
                for i, (off, ori) in enumerate(
                    ue_candidate_locations(UEDevice(kind)))]
        offs, oris, slants, cidx = zip(*want)
        assert np.array_equal(arr.offsets, np.array(offs))
        assert arr.slants[arr.group_index].tolist() == list(slants)
        frame = arr.frame_index[arr.group_index]
        assert np.array_equal(arr.frames[frame],
                              np.array([o.rotation() for o in oris]))
        assert arr.site_index.tolist() == list(cidx)
        # candidate c is site c, and every element is its own field group
        n_cand = len(ue_candidate_locations(UEDevice(kind)))
        assert np.array_equal(arr.site_offsets, np.array(offs[:n_cand]))
        assert arr.group_index.tolist() == list(range(arr.size))


class TestPlacement:
    LAM = 3e8 / 7e9

    def arrays(self):
        sector = Orientation(150.0, 10.0, 0.0)
        panel = PanelArray(m=4, n=2, p=2)
        return [(mount_bs_array(panel, np.zeros(3), sector, self.LAM),
                 lambda pos: mount_bs_array(panel, pos, sector, self.LAM)),
                (mount_ue_device(UEDevice("CPE"), np.zeros(3)),
                 lambda pos: mount_ue_device(UEDevice("CPE"), pos))]

    def test_placed_copy_shares_element_and_derived_data(self):
        pos = np.array([120.0, -35.0, 25.0])
        for arr, mount in self.arrays():
            placed = arr.placed_at(pos)
            assert np.array_equal(placed.reference, pos)
            assert np.array_equal(arr.reference, np.zeros(3))
            for name in ("site_offsets", "site_index", "slants",
                         "group_index", "frames", "frame_index", "pattern",
                         "grid"):
                assert getattr(placed, name) is getattr(arr, name), name
            fresh = mount(pos)
            assert np.array_equal(placed.positions(), fresh.positions())
            assert np.array_equal(placed.site_offsets, fresh.site_offsets)
            for name in ("site_index", "slants", "group_index", "frames",
                         "frame_index"):
                assert np.array_equal(getattr(placed, name),
                                      getattr(fresh, name)), name

    def test_one_element_grid_call_per_mount(self, monkeypatch):
        calls = []
        real = antenna.element_grid

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(antenna, "element_grid", counted)
        sector = Orientation(-90.0, 6.0, 0.0)
        panel = PanelArray(m=4, n=3, p=2)
        arr = mount_bs_array(panel, np.zeros(3), sector, self.LAM)
        assert len(calls) == 1
        y, z = element_grid(panel, self.LAM)
        assert np.array_equal(arr.grid.y, y) and np.array_equal(arr.grid.z, z)
        # site r N + c at row r, column c of the array frame, rotated
        sites = np.array([[0.0, y[c], z[r]] for r in range(4) for c in range(3)])
        assert np.array_equal(arr.site_offsets, sites @ sector.rotation().T)
        assert np.array_equal(arr.site_index, np.arange(24) % 12)
        assert np.array_equal(arr.group_index, np.arange(24) // 12)
