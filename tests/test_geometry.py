from dataclasses import fields

import numpy as np
import pytest

from fr3sim.geometry import (Orientation, build_hex_layout,
                             build_indoor_layout, drop_ues,
                             effective_ue_position, gcs_to_lcs,
                             link_geometry, sph_unit, unit_to_angles, vec3)
from fr3sim.scenario import load_parameter_tables

REG = load_parameter_tables()
SMA = REG.scenario("SMa")
# the hex ISDs of SMa, UMa, UMi and RMa
HEX_ISDS = (1299.0, 500.0, 200.0, 1732.0)


def site_xy(layout):
    return layout.positions[:, :2]


def wrap_images(point, wrap_vectors, reach=1):
    """Brute-force oracle: the point plus its lattice-translated images.

    ``reach`` = 1 gives the classic 7-image set; larger values enumerate all
    integer combinations of the two lattice basis vectors within that reach.
    """
    point = np.asarray(point, dtype=float)
    if not wrap_vectors:
        return point[None, :]
    if reach == 1:
        imgs = [point]
        for w in wrap_vectors:
            imgs.append(point + w)
        return np.array(imgs)
    b1, b2 = wrap_vectors[0], wrap_vectors[1]
    imgs = []
    for i in range(-reach, reach + 1):
        for j in range(-reach, reach + 1):
            imgs.append(point + i * b1 + j * b2)
    return np.array(imgs)


class TestHexLayout:
    def test_site_count_and_first_ring(self):
        lay = build_hex_layout(1299.0)
        assert len(lay.positions) == 19
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
        assert [s.alpha for s in lay.sectors] == [30.0, 150.0, -90.0]
        assert lay.positions.shape == (19, 3)

    def test_wrap_invariance(self):
        # displacing a UE by any full cluster translation leaves the
        # effective distance to every site unchanged (oracle: exhaustive
        # minimum over all wrap images)
        lay = build_hex_layout(1299.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = vec3(rng.uniform(-3000, 3000), rng.uniform(-3000, 3000), 1.5)
            t = lay.wrap_vectors[rng.integers(len(lay.wrap_vectors))]
            for site in lay.positions[:5]:
                d0 = np.linalg.norm(effective_ue_position(
                    site, p, lay.wrap_vectors)[:2] - site[:2])
                d1 = np.linalg.norm(effective_ue_position(
                    site, p + t, lay.wrap_vectors)[:2] - site[:2])
                assert d0 == pytest.approx(d1, rel=1e-9)

    def test_effective_position_matches_brute_force(self):
        lay = build_hex_layout(1000.0)
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = vec3(rng.uniform(-4000, 4000), rng.uniform(-4000, 4000), 1.5)
            site = lay.positions[rng.integers(19)]
            eff = effective_ue_position(site, p, lay.wrap_vectors)
            imgs = wrap_images(p, lay.wrap_vectors, reach=3)
            d_eff = np.linalg.norm(eff[:2] - site[:2])
            d_brute = np.min(np.linalg.norm(imgs[:, :2] - site[:2], axis=1))
            assert d_eff == pytest.approx(d_brute, rel=1e-12)

    @pytest.mark.parametrize("isd", HEX_ISDS)
    def test_broadcast_matches_scalar_calls(self, isd):
        lay = build_hex_layout(isd)
        sites = lay.positions
        rng = np.random.default_rng(int(isd))
        half = lay.drop_region[2]
        ues = np.column_stack([rng.uniform(-3 * half, 3 * half, (40, 2)),
                               rng.uniform(1.5, 20.0, 40)])
        got = effective_ue_position(sites[None], ues[:, None], lay.wrap_vectors)
        assert got.shape == (40, 19, 3)
        for u, ue in enumerate(ues):
            for s, site in enumerate(sites):
                want = effective_ue_position(site, ue, lay.wrap_vectors)
                assert np.array_equal(got[u, s], want)

    @pytest.mark.parametrize("wrap", [True, False])
    def test_shapes(self, wrap):
        lay = build_hex_layout(500.0)
        wraps = lay.wrap_vectors if wrap else []
        sites = lay.positions
        ues = np.array([vec3(900.0, -40.0, 1.5), vec3(-2000.0, 700.0, 7.5)])
        assert effective_ue_position(sites[3], ues[0], wraps).shape == (3,)
        per_site = effective_ue_position(sites, ues[1], wraps)
        assert per_site.shape == (19, 3)
        assert np.array_equal(per_site[3], effective_ue_position(
            sites[3], ues[1], wraps))
        pairs = effective_ue_position(sites[None], ues[:, None], wraps)
        assert pairs.shape == (2, 19, 3)
        assert np.array_equal(pairs[1], per_site)
        if not wrap:   # no wrap set: every UE is its own image
            assert np.array_equal(pairs, np.broadcast_to(ues[:, None], pairs.shape))

    def test_equidistant_images_first_candidate_wins(self):
        # halfway along a lattice vector, the UE and its image one lattice
        # vector back are equally near the site; the UE itself comes first
        lay = build_hex_layout(1299.0)
        site = lay.positions[0]
        ue = site + 0.5 * lay.wrap_vectors[0] + vec3(0.0, 0.0, -33.5)
        back = ue - lay.wrap_vectors[0]
        assert np.hypot(*(ue - site)[:2]) == np.hypot(*(back - site)[:2])
        assert np.array_equal(
            effective_ue_position(site, ue, lay.wrap_vectors), ue)

    def test_nonpositive_isd_rejected(self):
        with pytest.raises(ValueError):
            build_hex_layout(0.0)


class TestIndoorLayout:
    def test_reference_hall(self):
        lay = build_indoor_layout(120, 50, 12, 3)
        assert len(lay.positions) == 12
        xy = site_xy(lay)
        assert sorted(set(np.round(xy[:, 0], 6))) == [10, 30, 50, 70, 90, 110]
        assert sorted(set(np.round(xy[:, 1], 6))) == [12.5, 37.5]
        assert lay.positions.shape == (12, 3)
        assert np.all(lay.positions[:, 2] == 3)
        assert lay.sectors == (Orientation(0.0, 90.0, 0.0),)

    def test_single_bs_centered(self):
        lay = build_indoor_layout(120, 50, 1, 3)
        assert np.allclose(lay.positions, [[60, 25, 3]])

    def test_square_grid(self):
        lay = build_indoor_layout(40, 40, 4, 3)
        xy = {tuple(np.round(p, 6)) for p in site_xy(lay)}
        assert xy == {(10, 10), (10, 30), (30, 10), (30, 30)}

    def test_prime_count_falls_back_to_two_rows(self):
        # 1 x 7 does not fit a square hall, so the two-row fallback applies
        lay = build_indoor_layout(40, 40, 7, 3)
        assert len(lay.positions) == 7
        ys = sorted(set(np.round(site_xy(lay)[:, 1], 6)))
        assert len(ys) == 2


class TestDropUes:
    def test_outdoor_height(self):
        rng = np.random.default_rng(0)
        lay = build_hex_layout(1299.0)
        drop = drop_ues(lay, 300, SMA, rng)
        assert drop.positions.shape == (300, 3)
        assert 0 < np.count_nonzero(~drop.indoor) < 300
        assert np.all(drop.positions[~drop.indoor, 2] == 1.5)
        assert np.all(drop.building[~drop.indoor] == "")
        assert np.all(drop.floor[~drop.indoor] == 0)

    def test_commercial_floor_heights_uniform(self):
        rng = np.random.default_rng(1)
        lay = build_hex_layout(1299.0)
        drop = drop_ues(lay, 20000, SMA, rng)
        commercial = drop.building == "commercial"
        assert np.all(drop.indoor[commercial])
        heights = drop.positions[commercial, 2]
        assert np.array_equal(heights, 1.5 + 3.0 * drop.floor[commercial])
        assert set(np.round(np.unique(heights), 6)) == {1.5, 4.5, 7.5, 10.5, 13.5}
        counts = np.array([(heights == h).sum() for h in (1.5, 4.5, 7.5, 10.5, 13.5)])
        freq = counts / counts.sum()
        assert np.all(np.abs(freq - 0.2) < 0.05)

    def test_count_zero(self):
        rng = np.random.default_rng(2)
        lay = build_hex_layout(1299.0)
        drop = drop_ues(lay, 0, SMA, rng)
        assert drop.positions.shape == (0, 3)
        assert drop.indoor.size == drop.building.size == drop.floor.size == 0

    def test_min_distance_respected(self):
        rng = np.random.default_rng(3)
        lay = build_hex_layout(1299.0)
        drop = drop_ues(lay, 200, SMA, rng)
        xy = site_xy(lay)
        for pos in drop.positions:
            imgs = wrap_images(pos, lay.wrap_vectors)[:, :2]
            d = np.min(np.linalg.norm(imgs[None, :, :] - xy[:, None, :], axis=2))
            assert d >= 35.0

    def test_uniformity_chi_square(self):
        # 10 x 10 spatial bins over 1e5 UEs, 1% significance
        from scipy.stats import chi2
        rng = np.random.default_rng(4)
        lay = build_indoor_layout(120, 50, 1, 3)
        inh = REG.scenario("InH")
        pos = drop_ues(lay, 100_000, inh, rng).positions
        h, _, _ = np.histogram2d(pos[:, 0], pos[:, 1], bins=10,
                                 range=[[0, 120], [0, 50]])
        expected = len(pos) / 100.0
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
        with pytest.raises(ValueError):
            link_geometry(vec3(1, 2, 3), [vec3(4, 5, 6), vec3(1, 2, 3)])

    def test_array_rows_equal_single_links(self):
        rng = np.random.default_rng(10)
        bs = vec3(20.0, -10.0, 25.0)
        ue = np.column_stack([rng.uniform(-500, 500, (300, 2)),
                              rng.uniform(1.5, 23, 300)])
        g = link_geometry(bs, ue)
        assert g.d2d.shape == g.h_bs.shape == (300,)
        for u in range(300):
            one = link_geometry(bs, ue[u])
            for f in fields(g):
                assert getattr(one, f.name) == getattr(g, f.name)[u], f.name


class TestGcsLcs:
    def test_identity_orientation(self):
        zen, az, psi = gcs_to_lcs(Orientation(0, 0, 0).rotation(), 47.0,
                                  123.0)
        assert zen == pytest.approx(47.0, abs=1e-12)
        assert az == pytest.approx(123.0, abs=1e-12)
        assert psi == pytest.approx(0.0, abs=1e-12)

    def test_pure_bearing_rotation(self):
        rot = Orientation(90, 0, 0).rotation()
        _zen, az, _psi = gcs_to_lcs(rot, 90.0, 0.0)
        assert az == pytest.approx(-90.0, abs=1e-10)

    def test_rotation_stack_matches_single_frames(self):
        rng = np.random.default_rng(12)
        oris = [Orientation(*rng.uniform(-90, 90, 3)) for _ in range(4)]
        rot = np.array([o.rotation() for o in oris])
        zen, az = rng.uniform(1, 179, 9), rng.uniform(-179, 179, 9)
        shared = gcs_to_lcs(rot, zen[None], az[None])          # (4, 9)
        rows = gcs_to_lcs(rot, np.tile(zen, (4, 1)), np.tile(az, (4, 1)))
        for i, o in enumerate(oris):
            for got, want in zip(shared, gcs_to_lcs(o.rotation(), zen, az)):
                assert np.array_equal(got[i], want)
            for got, want in zip(rows, gcs_to_lcs(o.rotation(), zen, az)):
                assert np.array_equal(got[i], want)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            o = Orientation(*rng.uniform(-180, 180, 3))
            zen = rng.uniform(1, 179)
            az = rng.uniform(-179, 179)
            zl, al, _ = gcs_to_lcs(o.rotation(), zen, az)
            # the inverse rotation R^T takes the LCS direction back
            zg, ag = unit_to_angles(sph_unit(zl, al) @ o.rotation().T)
            assert abs(zg - zen) < 1e-12 * 180
            assert abs((ag - az + 180) % 360 - 180) < 1e-10
