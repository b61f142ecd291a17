import numpy as np
import pytest

from fr3sim.geometry import (Orientation, build_hex_layout,
                             build_indoor_layout, drop_ues,
                             effective_ue_position, gcs_to_lcs, lcs_to_gcs,
                             link_geometry, vec3, wrap_images)
from fr3sim.scenario import load_parameter_tables

REG = load_parameter_tables()
SMA = REG.scenario("SMa")


def site_xy(layout):
    return np.array([s.position[:2] for s in layout.sites])


class TestHexLayout:
    def test_site_count_and_first_ring(self):
        lay = build_hex_layout(1299.0)
        assert lay.n_sites == 19
        d = np.linalg.norm(site_xy(lay), axis=1)
        assert d[0] == pytest.approx(0.0, abs=1e-9)
        assert np.sum(np.isclose(d, 1299.0)) == 6

    def test_adjacent_first_ring_distance(self):
        lay = build_hex_layout(500.0)
        xy = site_xy(lay)
        ring1 = xy[np.isclose(np.linalg.norm(xy, axis=1), 500.0)]
        # each first-ring site has two neighbors at exactly one ISD
        d01 = np.linalg.norm(ring1[:, None, :] - ring1[None, :, :], axis=2)
        for i in range(6):
            others = np.delete(d01[i], i)
            assert np.isclose(others.min(), 500.0)

    def test_sector_boresights(self):
        lay = build_hex_layout(1299.0)
        assert [s.alpha for s in lay.sites[0].sectors] == [30.0, 150.0, -90.0]

    def test_wrap_invariance(self):
        # displacing a UE by any full cluster translation leaves the
        # effective distance to every site unchanged (oracle: exhaustive
        # minimum over all wrap images)
        lay = build_hex_layout(1299.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = vec3(rng.uniform(-3000, 3000), rng.uniform(-3000, 3000), 1.5)
            t = lay.wrap_vectors[rng.integers(len(lay.wrap_vectors))]
            for site in lay.sites[:5]:
                d0 = np.linalg.norm(effective_ue_position(
                    site.position, p, lay.wrap_vectors)[:2] - site.position[:2])
                d1 = np.linalg.norm(effective_ue_position(
                    site.position, p + t, lay.wrap_vectors)[:2] - site.position[:2])
                assert d0 == pytest.approx(d1, rel=1e-9)

    def test_effective_position_matches_brute_force(self):
        lay = build_hex_layout(1000.0)
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = vec3(rng.uniform(-4000, 4000), rng.uniform(-4000, 4000), 1.5)
            site = lay.sites[rng.integers(19)]
            eff = effective_ue_position(site.position, p, lay.wrap_vectors)
            imgs = wrap_images(p, lay.wrap_vectors, reach=3)
            d_eff = np.linalg.norm(eff[:2] - site.position[:2])
            d_brute = np.min(np.linalg.norm(imgs[:, :2] - site.position[:2], axis=1))
            assert d_eff == pytest.approx(d_brute, rel=1e-12)

    def test_nonpositive_isd_rejected(self):
        with pytest.raises(ValueError):
            build_hex_layout(0.0)


class TestIndoorLayout:
    def test_reference_hall(self):
        lay = build_indoor_layout(120, 50, 12, 3)
        assert lay.n_sites == 12
        xy = site_xy(lay)
        assert sorted(set(np.round(xy[:, 0], 6))) == [10, 30, 50, 70, 90, 110]
        assert sorted(set(np.round(xy[:, 1], 6))) == [12.5, 37.5]
        assert all(s.position[2] == 3 for s in lay.sites)

    def test_single_bs_centered(self):
        lay = build_indoor_layout(120, 50, 1, 3)
        assert np.allclose(lay.sites[0].position, [60, 25, 3])

    def test_square_grid(self):
        lay = build_indoor_layout(40, 40, 4, 3)
        xy = {tuple(np.round(p, 6)) for p in site_xy(lay)}
        assert xy == {(10, 10), (10, 30), (30, 10), (30, 30)}

    def test_prime_count_falls_back_to_two_rows(self):
        # 1 x 7 does not fit a square hall, so the two-row fallback applies
        lay = build_indoor_layout(40, 40, 7, 3)
        assert lay.n_sites == 7
        ys = sorted(set(np.round(site_xy(lay)[:, 1], 6)))
        assert len(ys) == 2


class TestDropUes:
    def test_outdoor_height(self):
        rng = np.random.default_rng(0)
        lay = build_hex_layout(1299.0)
        ues = drop_ues(lay, 300, SMA, rng)
        for ue in ues:
            if not ue.indoor:
                assert ue.height == 1.5

    def test_commercial_floor_heights_uniform(self):
        rng = np.random.default_rng(1)
        lay = build_hex_layout(1299.0)
        heights = []
        ues = drop_ues(lay, 20000, SMA, rng)
        for ue in ues:
            if ue.building == "commercial":
                heights.append(ue.height)
        heights = np.array(heights)
        assert set(np.round(np.unique(heights), 6)) == {1.5, 4.5, 7.5, 10.5, 13.5}
        counts = np.array([(heights == h).sum() for h in (1.5, 4.5, 7.5, 10.5, 13.5)])
        freq = counts / counts.sum()
        assert np.all(np.abs(freq - 0.2) < 0.05)

    def test_count_zero(self):
        rng = np.random.default_rng(2)
        lay = build_hex_layout(1299.0)
        assert drop_ues(lay, 0, SMA, rng) == []

    def test_min_distance_respected(self):
        rng = np.random.default_rng(3)
        lay = build_hex_layout(1299.0)
        ues = drop_ues(lay, 200, SMA, rng)
        xy = site_xy(lay)
        for ue in ues:
            imgs = wrap_images(ue.position, lay.wrap_vectors)[:, :2]
            d = np.min(np.linalg.norm(imgs[None, :, :] - xy[:, None, :], axis=2))
            assert d >= 35.0

    def test_uniformity_chi_square(self):
        # 10 x 10 spatial bins over 1e5 UEs, 1% significance
        from scipy.stats import chi2
        rng = np.random.default_rng(4)
        lay = build_indoor_layout(120, 50, 1, 3)
        inh = REG.scenario("InH")
        ues = drop_ues(lay, 100_000, inh, rng)
        pos = np.array([u.position[:2] for u in ues])
        h, _, _ = np.histogram2d(pos[:, 0], pos[:, 1], bins=10,
                                 range=[[0, 120], [0, 50]])
        expected = len(ues) / 100.0
        stat = np.sum((h - expected) ** 2 / expected)
        assert stat < chi2.ppf(0.99, df=99)


class TestLinkGeometry:
    def test_reference_link(self):
        g = link_geometry(vec3(0, 0, 35), vec3(100, 0, 1.5))
        assert g.d2d == pytest.approx(100.0)
        assert g.d3d == pytest.approx(np.hypot(100, 33.5), rel=1e-12)
        assert g.d3d == pytest.approx(105.46, abs=0.005)
        assert g.aod_az == pytest.approx(0.0, abs=1e-12)
        assert g.zod == pytest.approx(90 + np.degrees(np.arctan(33.5 / 100)), abs=1e-9)
        assert g.zod == pytest.approx(108.52, abs=0.01)
        assert g.zoa == pytest.approx(180 - g.zod, abs=1e-9)

    def test_ue_below_bs(self):
        g = link_geometry(vec3(0, 0, 35), vec3(0, 0, 1.5))
        assert g.d2d == 0.0
        assert g.zod == pytest.approx(180.0)

    def test_equal_heights(self):
        g = link_geometry(vec3(0, 0, 10), vec3(30, 40, 10))
        assert g.d3d == pytest.approx(g.d2d)

    def test_triangle_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            bs = vec3(*rng.uniform(-100, 100, 2), rng.uniform(3, 40))
            ue = vec3(*rng.uniform(-100, 100, 2), rng.uniform(1, 20))
            g = link_geometry(bs, ue)
            assert g.d3d ** 2 == pytest.approx(
                g.d2d ** 2 + (g.h_bs - g.h_ue) ** 2, rel=1e-9)

    def test_coincident_rejected(self):
        with pytest.raises(ValueError):
            link_geometry(vec3(1, 2, 3), vec3(1, 2, 3))


class TestGcsLcs:
    def test_identity_orientation(self):
        zen, az, psi = gcs_to_lcs(Orientation(0, 0, 0), 47.0, 123.0)
        assert zen == pytest.approx(47.0, abs=1e-12)
        assert az == pytest.approx(123.0, abs=1e-12)
        assert psi == pytest.approx(0.0, abs=1e-12)

    def test_pure_bearing_rotation(self):
        _zen, az, _psi = gcs_to_lcs(Orientation(90, 0, 0), 90.0, 0.0)
        assert az == pytest.approx(-90.0, abs=1e-10)

    def test_rotation_stack_matches_single_frames(self):
        rng = np.random.default_rng(12)
        oris = [Orientation(*rng.uniform(-90, 90, 3)) for _ in range(4)]
        rot = np.array([o.rotation() for o in oris])
        zen, az = rng.uniform(1, 179, 9), rng.uniform(-179, 179, 9)
        shared = gcs_to_lcs(rot, zen[None], az[None])          # (4, 9)
        rows = gcs_to_lcs(rot, np.tile(zen, (4, 1)), np.tile(az, (4, 1)))
        for i, o in enumerate(oris):
            for got, want in zip(shared, gcs_to_lcs(o, zen, az)):
                assert np.array_equal(got[i], want)
            for got, want in zip(rows, gcs_to_lcs(o, zen, az)):
                assert np.array_equal(got[i], want)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            o = Orientation(*rng.uniform(-180, 180, 3))
            zen = rng.uniform(1, 179)
            az = rng.uniform(-179, 179)
            zl, al, _ = gcs_to_lcs(o, zen, az)
            zg, ag = lcs_to_gcs(o, zl, al)
            assert abs(zg - zen) < 1e-12 * 180
            assert abs((ag - az + 180) % 360 - 180) < 1e-10
