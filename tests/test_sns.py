import numpy as np
import pytest
from scipy.stats import truncnorm

from fr3sim.harness import RunConfig
from fr3sim.sns import (USAGE_PROBS, VisibilityRegion, draw_sns_status,
                        draw_usage, element_attenuation,
                        stochastic_attenuation, ue_sns_mask, visibility_region)
from fr3sim.scenario import load_parameter_tables

REG = load_parameter_tables()


class StubRng:
    """Deterministic generator stub: normal() -> 0, uniform -> midpoint."""

    def normal(self, loc=0.0, scale=1.0, size=None):
        return np.zeros(size) if size else 0.0

    def uniform(self, low=0.0, high=1.0, size=None):
        mid = (low + high) / 2.0
        return np.full(size, mid) if size else mid


class TestSnsStatus:
    def test_extreme_probabilities(self):
        rng = np.random.default_rng(0)
        none_cfg = RunConfig(sns_pr_mu=-5.0, sns_pr_sigma=0.01)
        flags, pr = draw_sns_status(500, none_cfg, rng)
        assert pr < 2e-4 and not flags.any()
        all_cfg = RunConfig(sns_pr_mu=6.0, sns_pr_sigma=0.01)
        flags, pr = draw_sns_status(500, all_cfg, rng)
        assert pr > 1 - 2e-4 and flags.all()

    def test_empirical_fraction_matches_truncnorm_mean(self):
        cfg = RunConfig(sns_pr_mu=0.5, sns_pr_sigma=0.2)
        a = (0 - cfg.sns_pr_mu) / cfg.sns_pr_sigma
        b = (1 - cfg.sns_pr_mu) / cfg.sns_pr_sigma
        expect = truncnorm.mean(a, b, loc=cfg.sns_pr_mu,
                                scale=cfg.sns_pr_sigma)
        rng = np.random.default_rng(1)
        hits = total = 0
        for _ in range(2000):
            flags, _ = draw_sns_status(500, cfg, rng)
            hits += flags.sum()
            total += flags.size
        assert hits / total == pytest.approx(expect, abs=0.005)


class TestVisibilityRegion:
    def test_strongest_cluster_no_noise(self):
        cfg = RunConfig(sns_vp_a=0.4, sns_vp_b=0.3, sns_vp_sigma=0.0)
        vr = visibility_region(-5.0, -5.0, cfg, 2.0, 1.0, StubRng())
        assert vr.v == pytest.approx(0.7, rel=1e-12)

    def test_full_visibility_covers_array(self):
        cfg = RunConfig(sns_vp_a=0.9, sns_vp_b=0.5, sns_vp_sigma=0.0)
        vr = visibility_region(0.0, 0.0, cfg, 2.0, 1.0, np.random.default_rng(2))
        assert vr.v == 1.0
        assert vr.width == pytest.approx(2.0)
        assert vr.height == pytest.approx(1.0)

    def test_area_identity(self):
        cfg = RunConfig()
        rng = np.random.default_rng(3)
        w, h = 0.32, 1.35
        for _ in range(5000):
            p = rng.uniform(-30, 0)
            vr = visibility_region(p, 0.0, cfg, w, h, rng)
            assert vr.width * vr.height == pytest.approx(vr.v * w * h, rel=1e-12)
            assert 0 < vr.width <= w + 1e-12
            assert 0 < vr.height <= h + 1e-12
            assert abs(vr.center_y) + vr.width / 2 <= w / 2 + 1e-9
            assert abs(vr.center_z) + vr.height / 2 <= h / 2 + 1e-9


class TestElementAttenuation:
    VR = VisibilityRegion(0.0, 0.0, 1.0, 0.5, 0.5)

    def test_inside_unity(self):
        cfg = RunConfig(sns_rolloff=4.0)
        a = element_attenuation(self.VR, cfg, [[0.2, 0.1], [0.0, 0.0]])
        assert np.allclose(a, 1.0)

    def test_distance_one_diagonal(self):
        cfg = RunConfig(sns_rolloff=1.0)
        d = self.VR.diagonal
        a = element_attenuation(self.VR, cfg, [[0.5 + d, 0.0]])
        assert a[0] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_boundary_continuity(self):
        cfg = RunConfig(sns_rolloff=4.0)
        eps = 1e-9
        a = element_attenuation(self.VR, cfg, [[0.5 + eps, 0.0]])
        assert a[0] == pytest.approx(1.0, abs=1e-6)

    def test_monotone_outside(self):
        cfg = RunConfig(sns_rolloff=4.0)
        xs = np.linspace(0.5, 3.0, 50)
        a = element_attenuation(self.VR, cfg, np.stack([xs, np.zeros(50)], axis=1))
        assert np.all(np.diff(a) <= 1e-15)
        assert np.all((a > 0) & (a <= 1))

    def test_stochastic_attenuation_shape(self):
        rng = np.random.default_rng(4)
        yz = rng.uniform(-0.5, 0.5, (64, 2))
        p_db = np.array([-1.0, -4.0, -9.0, -20.0])
        a = stochastic_attenuation(p_db, RunConfig(), yz, rng)
        assert a.shape == (64, 4)
        assert np.all((a > 0) & (a <= 1))

    def test_site_rows_match_element_rows(self):
        # a dual-polarized array's element sites give exactly the rows that
        # the same draw over all its elements gives at each site's element
        from fr3sim.antenna import PanelArray, mount_bs_array
        from fr3sim.geometry import Orientation
        sector = Orientation(30.0, 10.0, 0.0)
        bs = mount_bs_array(PanelArray(m=16, n=8, p=2), np.zeros(3), sector,
                            0.04)
        site = bs.site_index
        first = [np.flatnonzero(site == p)[0]
                 for p in range(bs.site_offsets.shape[0])]
        assert len(first) == bs.size // 2
        p_db = np.array([-1.0, -4.0, -9.0, -20.0])
        cfg = RunConfig(sns_pr_mu=0.9, sns_pr_sigma=0.05)
        yz = (bs.offsets @ sector.rotation())[:, 1:3]
        per_element = stochastic_attenuation(p_db, cfg, yz,
                                             np.random.default_rng(8))
        # the (y, z) of the sites, as process_link takes them
        per_site = stochastic_attenuation(
            p_db, cfg, (bs.site_offsets @ sector.rotation())[:, 1:3],
            np.random.default_rng(8))
        assert (per_site < 1.0).any()
        assert np.array_equal(per_site, per_element[first])
        assert np.array_equal(per_site[site], per_element)


class TestUeMasks:
    def test_free_space_all_ones(self):
        beta = ue_sns_mask(REG.ue_masks, "free", 7.0, np.arange(8))
        assert np.allclose(beta, 1.0)

    def test_mid_band_span(self):
        table = REG.ue_masks[("one-hand", "1to8p4")]
        assert table.min() == pytest.approx(0.6)
        assert table.max() > 10.0

    @pytest.mark.parametrize("fc, band", [
        (np.nextafter(1.0, 0.0), "lt1"), (1.0, "1to8p4"), (8.4, "1to8p4")])
    def test_band_edges(self, fc, band):
        # lt1 is < 1 GHz: 1 GHz itself is in 1to8p4, which is closed
        beta = ue_sns_mask(REG.ue_masks, "one-hand", fc, np.arange(8))
        assert np.array_equal(
            beta, 10.0 ** (-REG.ue_masks[("one-hand", band)] / 10.0))

    def test_nearest_band_fallback(self):
        with pytest.warns(UserWarning, match="outside mask bands"):
            beta = ue_sns_mask(REG.ue_masks, "one-hand", 11.0, np.arange(8))
        assert np.all(beta <= 1.0)

    def test_cpe_center_candidate_rejected(self):
        # the 9th CPE candidate (index 8) has no entry in the 8-value masks
        with pytest.raises(ValueError, match="candidate index 8"):
            ue_sns_mask(REG.ue_masks, "one-hand", 7.0, np.arange(9))

    @pytest.mark.parametrize("index", [-1, -8])
    def test_negative_candidate_rejected(self, index):
        # a negative index is outside the mask like one above it, not a
        # candidate without attenuation or one counted from the end
        with pytest.raises(ValueError, match=f"candidate index {index}"):
            ue_sns_mask(REG.ue_masks, "one-hand", 7.0, np.array([0, index, 2]))

    def test_dual_pol_elements_share_candidate(self):
        idx = np.array([0, 1, 2, 0, 1, 2])
        beta = ue_sns_mask(REG.ue_masks, "two-hand", 7.0, idx)
        assert np.allclose(beta[:3], beta[3:])

    def test_sns_scaling_leaves_phases_unchanged(self):
        # SNS multiplies real non-negative factors: per-ray phases identical
        from fr3sim.coefficients import draw_phases
        from test_coefficients import geom_for, iso_element, simple_cs
        from test_synthesis_reference import synthesize_with_rays
        cs = simple_cs(n=3, m=4, p=np.array([0.5, 0.3, 0.2]))
        ph = draw_phases(3, 4, np.random.default_rng(6))
        bs = iso_element((0.0, 0.0, 10.0))
        ue = iso_element((20.0, 0.0, 1.5))
        alpha = np.random.default_rng(7).uniform(0.2, 1.0, (1, 3))
        args = (geom_for(20.0), cs, ph, bs, ue)
        _h0, rays0 = synthesize_with_rays(args)
        _h1, rays1 = synthesize_with_rays(args, sns_alpha=alpha)
        for a, b in zip(rays0, rays1):
            assert np.allclose(np.angle(a), np.angle(b))
            assert not np.allclose(np.abs(a), np.abs(b))

    def test_usage_draw_frequencies(self):
        rng = np.random.default_rng(5)
        counts = {}
        n = 100_000
        for _ in range(n):
            u = draw_usage(rng)
            counts[u] = counts.get(u, 0) + 1
        for usage, p in zip(("one-hand", "two-hand", "head-hand", "free"),
                            USAGE_PROBS):
            assert counts[usage] / n == pytest.approx(p, abs=0.01)
