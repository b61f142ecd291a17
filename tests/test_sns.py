import warnings

import numpy as np
import pytest
from scipy.stats import truncnorm

from fr3sim.sns import (Blocker, SnsConfig, VisibilityRegion,
                        blocker_attenuation, draw_sns_status, draw_usage,
                        element_attenuation, knife_edge_loss_db,
                        stochastic_attenuation, ue_sns_mask, visibility_region)
from fr3sim.scenario import load_parameter_tables

REG = load_parameter_tables()
LAM = 3e8 / 7e9


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
        none_cfg = SnsConfig(pr_mu=-5.0, pr_sigma=0.01)
        flags, pr = draw_sns_status(500, none_cfg, rng)
        assert pr < 2e-4 and not flags.any()
        all_cfg = SnsConfig(pr_mu=6.0, pr_sigma=0.01)
        flags, pr = draw_sns_status(500, all_cfg, rng)
        assert pr > 1 - 2e-4 and flags.all()

    def test_empirical_fraction_matches_truncnorm_mean(self):
        cfg = SnsConfig(pr_mu=0.5, pr_sigma=0.2)
        a = (0 - cfg.pr_mu) / cfg.pr_sigma
        b = (1 - cfg.pr_mu) / cfg.pr_sigma
        expect = truncnorm.mean(a, b, loc=cfg.pr_mu, scale=cfg.pr_sigma)
        rng = np.random.default_rng(1)
        hits = total = 0
        for _ in range(2000):
            flags, _ = draw_sns_status(500, cfg, rng)
            hits += flags.sum()
            total += flags.size
        assert hits / total == pytest.approx(expect, abs=0.005)


class TestVisibilityRegion:
    def test_strongest_cluster_no_noise(self):
        cfg = SnsConfig(vp_a=0.4, vp_b=0.3, vp_sigma=0.0)
        vr = visibility_region(-5.0, -5.0, cfg, 2.0, 1.0, StubRng())
        assert vr.v == pytest.approx(0.7, rel=1e-12)

    def test_full_visibility_covers_array(self):
        cfg = SnsConfig(vp_a=0.9, vp_b=0.5, vp_sigma=0.0)
        vr = visibility_region(0.0, 0.0, cfg, 2.0, 1.0, np.random.default_rng(2))
        assert vr.v == 1.0
        assert vr.width == pytest.approx(2.0)
        assert vr.height == pytest.approx(1.0)

    def test_area_identity(self):
        cfg = SnsConfig()
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
        cfg = SnsConfig(rolloff=4.0)
        a = element_attenuation(self.VR, cfg, [[0.2, 0.1], [0.0, 0.0]])
        assert np.allclose(a, 1.0)

    def test_distance_one_diagonal(self):
        cfg = SnsConfig(rolloff=1.0)
        d = self.VR.diagonal
        a = element_attenuation(self.VR, cfg, [[0.5 + d, 0.0]])
        assert a[0] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_boundary_continuity(self):
        cfg = SnsConfig(rolloff=4.0)
        eps = 1e-9
        a = element_attenuation(self.VR, cfg, [[0.5 + eps, 0.0]])
        assert a[0] == pytest.approx(1.0, abs=1e-6)

    def test_monotone_outside(self):
        cfg = SnsConfig(rolloff=4.0)
        xs = np.linspace(0.5, 3.0, 50)
        a = element_attenuation(self.VR, cfg, np.stack([xs, np.zeros(50)], axis=1))
        assert np.all(np.diff(a) <= 1e-15)
        assert np.all((a > 0) & (a <= 1))

    def test_stochastic_attenuation_shape(self):
        rng = np.random.default_rng(4)
        yz = rng.uniform(-0.5, 0.5, (64, 2))
        p_db = np.array([-1.0, -4.0, -9.0, -20.0])
        a = stochastic_attenuation(p_db, SnsConfig(), yz, rng)
        assert a.shape == (64, 4)
        assert np.all((a > 0) & (a <= 1))


class TestKnifeEdge:
    def test_zero_fresnel(self):
        assert knife_edge_loss_db(0.0) == 0.0

    def test_reference_20db(self):
        assert knife_edge_loss_db(0.9) == pytest.approx(20.0, rel=1e-12)

    def test_clamp(self):
        with pytest.warns(UserWarning):
            assert knife_edge_loss_db(1.0) == 40.0

    def test_blocked_path_attenuates(self):
        blk = Blocker(np.array([5.0, 0.0, 1.5]), 2.0, 2.0)
        l_blocked = blocker_attenuation(blk, np.array([0.0, 0.0, 1.5]),
                                        np.array([10.0, 0.0, 1.5]), LAM)
        assert np.ndim(l_blocked) == 0 and l_blocked > 3.0

    def test_outside_fresnel_zone_negligible(self):
        # blocker fully outside the first Fresnel zone: loss < 0.5 dB
        tx = np.array([0.0, 0.0, 1.5])
        rx = np.array([40.0, 0.0, 1.5])
        d1, d2 = 20.0, 20.0
        r1 = np.sqrt(LAM * d1 * d2 / (d1 + d2))  # first Fresnel radius
        offset = 6.0 * r1
        blk = Blocker(np.array([20.0, offset + 0.5, 1.5]), 1.0, 1.0)
        l_db = blocker_attenuation(blk, tx, rx, LAM)
        assert l_db < 0.5

    def test_centre_path_unchanged_by_edge_signs(self):
        # a path through the screen centre is shadowed by all four edges;
        # its loss is the value the single-sign form gave
        blk = Blocker(np.array([5.0, 0.0, 1.5]), 2.0, 2.0)
        got = blocker_attenuation(blk, np.array([0.0, 0.0, 1.5]),
                                  np.array([10.0, 0.0, 1.5]), LAM)
        assert got == pytest.approx(13.993074039093056, rel=1e-12)

    @pytest.mark.parametrize("axis", [1, 2])
    def test_path_beside_screen_loses_little(self, axis):
        # beside (axis 1) or above (axis 2) a 2 m screen: the loss is never
        # a gain, and it falls as the crossing point moves off the screen
        blk = Blocker(np.array([5.0, 0.0, 1.5]), 2.0, 2.0)
        offsets = np.linspace(1.2, 6.0, 9)
        tx = np.tile([0.0, 0.0, 1.5], (9, 1))
        tx[:, axis] += 2.0 * offsets
        got = blocker_attenuation(blk, tx, np.array([10.0, 0.0, 1.5]), LAM)
        assert np.all(got >= 0.0)
        assert np.all(np.diff(got) < 0.0)
        assert got[-1] < 0.2

    def test_behind_endpoints_ignored(self):
        blk = Blocker(np.array([-5.0, 0.0, 1.5]), 2.0, 2.0)
        assert blocker_attenuation(blk, np.array([0.0, 0.0, 1.5]),
                                   np.array([10.0, 0.0, 1.5]), LAM) == 0.0


def scalar_blocker_attenuation(blocker, p_tx, p_rx, lam0, l_max_db=40.0):
    """The one-path form of `blocker_attenuation`, kept as its reference."""
    tx = np.asarray(p_tx, dtype=float)
    rx = np.asarray(p_rx, dtype=float)
    c = np.asarray(blocker.center, dtype=float)
    link = rx - tx
    r = np.linalg.norm(link)
    tpar = np.dot(c - tx, link) / np.dot(link, link)
    if not (0.0 < tpar < 1.0):
        return 0.0
    up = np.array([0.0, 0.0, 1.0])
    horiz = np.cross(link / r, up)
    nh = np.linalg.norm(horiz)
    if nh < 1e-12:
        return 0.0
    horiz = horiz / nh

    def edge_f(edge_point, shadowed):
        d1 = np.linalg.norm(edge_point - tx)
        d2 = np.linalg.norm(rx - edge_point)
        excess = max(d1 + d2 - r, 0.0)
        sign = 1.0 if shadowed else -1.0
        return np.arctan(sign * 0.5 * np.pi
                         * np.sqrt(np.pi * excess / lam0)) / np.pi

    # each edge is signed by the side of it that the path crosses
    cross = tx + tpar * link
    x_h = np.dot(cross - c, horiz)
    x_v = cross[2] - c[2]
    hh, hw = blocker.height / 2.0, blocker.width / 2.0
    f_h = (edge_f(c + up * hh, x_v <= hh) + edge_f(c - up * hh, x_v >= -hh))
    f_w = (edge_f(c - horiz * hw, x_h >= -hw) + edge_f(c + horiz * hw, x_h <= hw))
    arg = 1.0 - f_h * f_w
    if arg <= 0.0:
        warnings.warn("knife-edge Fresnel product >= 1; loss clamped")
        return float(l_max_db)
    return float(min(-20.0 * np.log10(arg), l_max_db))


def reference_grid(blk, tx, rx, lam0, **kw):
    """The scalar reference over the broadcast shape of ``tx`` and ``rx``."""
    tx, rx = np.broadcast_arrays(tx, rx)
    out = np.empty(tx.shape[:-1])
    for idx in np.ndindex(out.shape):
        out[idx] = scalar_blocker_attenuation(blk, tx[idx], rx[idx], lam0, **kw)
    return out


class TestBroadcastBlocker:
    """`blocker_attenuation` over (..., 3) end points against the scalar
    reference, one path at a time."""

    def test_random_geometries(self):
        rng = np.random.default_rng(11)
        hits = misses = 0
        for _ in range(40):
            blk = Blocker(rng.uniform(-2.0, 2.0, 3), rng.uniform(0.2, 4.0),
                          rng.uniform(0.2, 4.0))
            # end points on both sides of the screen, and some behind it
            tx = rng.uniform([-30.0, -4.0, -3.0], [5.0, 4.0, 3.0], (8, 1, 3))
            rx = rng.uniform([-5.0, -4.0, -3.0], [30.0, 4.0, 3.0], (1, 12, 3))
            lam0 = rng.choice([LAM, 3e8 / 24e9, 0.3])
            got = blocker_attenuation(blk, tx, rx, lam0)
            ref = reference_grid(blk, tx, rx, lam0)
            assert got.shape == (8, 12)
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-9)
            hits += np.count_nonzero(ref)
            misses += np.count_nonzero(ref == 0.0)
        assert hits > 1000 and misses > 500

    def test_element_by_ray_grid(self):
        # 64 elements against 280 ray sources in one call
        rng = np.random.default_rng(12)
        blk = Blocker(np.array([10.0, 0.0, 25.0]), 2.0, 2.0)
        elems = np.array([0.0, 0.0, 25.0]) + rng.uniform(-0.5, 0.5, (64, 1, 3))
        sources = rng.uniform([-60.0, -40.0, 0.0], [120.0, 40.0, 30.0],
                              (1, 280, 3))
        got = blocker_attenuation(blk, elems, sources, LAM)
        assert got.shape == (64, 280)
        np.testing.assert_allclose(got, reference_grid(blk, elems, sources, LAM),
                                   rtol=0.0, atol=1e-9)
        assert 1000 < np.count_nonzero(got) < got.size - 1000

    def test_endpoints_behind_screen(self):
        blk = Blocker(np.array([-5.0, 0.0, 1.5]), 2.0, 2.0)
        tx = np.array([[0.0, y, 1.5] for y in (-1.0, 0.0, 1.0)])
        rx = np.array([10.0, 0.0, 1.5])
        assert np.array_equal(blocker_attenuation(blk, tx, rx, LAM), np.zeros(3))
        assert np.array_equal(blocker_attenuation(blk, rx, tx, LAM), np.zeros(3))

    def test_vertical_path(self):
        # no horizontal screen axis: 0 dB, and no division warning
        blk = Blocker(np.array([0.0, 0.0, 5.0]), 2.0, 2.0)
        tx = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 4.95], [1.0, 0.0, 0.0]])
        rx = np.array([[0.0, 0.0, 10.0], [0.5, 0.0, 5.05], [0.0, 0.0, 10.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = blocker_attenuation(blk, tx, rx, LAM)
        assert np.array_equal(got[:2], [0.0, 0.0])
        assert got[2] != 0.0
        np.testing.assert_allclose(got, reference_grid(blk, tx, rx, LAM),
                                   rtol=0.0, atol=1e-9)

    def test_clamp_warns_once(self):
        # a wavelength so short that every edge term saturates at 1/2: the
        # Fresnel product of a path through the screen is exactly 1
        blk = Blocker(np.array([5.0, 0.0, 1.5]), 2.0, 2.0)
        tx = np.array([[0.0, y, 1.5] for y in (-0.5, 0.0, 0.5, 9.0)])
        rx = np.array([10.0, 0.0, 1.5])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = blocker_attenuation(blk, tx, rx, 1e-40, l_max_db=35.0)
        assert [str(w.message) for w in caught] == [
            "knife-edge Fresnel product >= 1; loss clamped"]
        assert np.array_equal(got[:3], [35.0, 35.0, 35.0])
        with pytest.warns(UserWarning):
            ref = reference_grid(blk, tx, rx, 1e-40, l_max_db=35.0)
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-9)

    def test_missed_paths_do_not_warn(self):
        blk = Blocker(np.array([-5.0, 0.0, 1.5]), 2.0, 2.0)
        tx = np.array([[0.0, y, 1.5] for y in (-0.5, 0.0, 0.5)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = blocker_attenuation(blk, tx, np.array([10.0, 0.0, 1.5]), 1e-40)
        assert np.array_equal(got, np.zeros(3))

    def test_loss_elementwise(self):
        with pytest.warns(UserWarning) as caught:
            got = knife_edge_loss_db(np.array([0.0, 0.9, 1.0, 1.5]))
        assert len(caught) == 1
        np.testing.assert_allclose(got, [0.0, 20.0, 40.0, 40.0], rtol=1e-12)


class TestUeMasks:
    def test_free_space_all_ones(self):
        beta = ue_sns_mask(REG.ue_masks, "free", 7.0, np.arange(8))
        assert np.allclose(beta, 1.0)

    def test_mid_band_span(self):
        table = REG.ue_masks[("one-hand", "1to8p4")]
        assert table.min() == pytest.approx(0.6)
        assert table.max() > 10.0

    def test_nearest_band_fallback(self):
        with pytest.warns(UserWarning, match="outside mask bands"):
            beta = ue_sns_mask(REG.ue_masks, "one-hand", 11.0, np.arange(8))
        assert np.all(beta <= 1.0)

    def test_cpe_center_candidate_rejected(self):
        # the 9th CPE candidate (index 8) has no entry in the 8-value masks
        with pytest.raises(ValueError, match="candidate index 8"):
            ue_sns_mask(REG.ue_masks, "one-hand", 7.0, np.arange(9))

    def test_dual_pol_elements_share_candidate(self):
        idx = np.array([0, 1, 2, 0, 1, 2])
        beta = ue_sns_mask(REG.ue_masks, "two-hand", 7.0, idx)
        assert np.allclose(beta[:3], beta[3:])

    def test_sns_scaling_leaves_phases_unchanged(self):
        # SNS multiplies real non-negative factors: per-ray phases identical
        from fr3sim.coefficients import draw_phases, synthesize
        from test_coefficients import geom_for, iso_element, simple_cs
        cs = simple_cs(n=3, m=4, p=np.array([0.5, 0.3, 0.2]))
        ph = draw_phases(3, 4, np.random.default_rng(6))
        bs = iso_element((0.0, 0.0, 10.0))
        ue = iso_element((20.0, 0.0, 1.5))
        alpha = np.random.default_rng(7).uniform(0.2, 1.0, (1, 3))
        h0 = synthesize(geom_for(20.0), cs, ph, bs, ue, LAM * 21e9 / 3e8 * 3e8 / 21e9,
                        keep_rays=True)
        h1 = synthesize(geom_for(20.0), cs, ph, bs, ue, LAM,
                        sns_alpha=alpha, keep_rays=True)
        for a, b in zip(h0.ray_gains, h1.ray_gains):
            assert np.allclose(np.angle(a), np.angle(b))
            assert not np.allclose(np.abs(a), np.abs(b))

    def test_usage_draw_frequencies(self):
        cfg = SnsConfig(usage_probs=(0.3, 0.2, 0.2, 0.3))
        rng = np.random.default_rng(5)
        counts = {}
        n = 100_000
        for _ in range(n):
            u = draw_usage(cfg, rng)
            counts[u] = counts.get(u, 0) + 1
        for usage, p in zip(("one-hand", "two-hand", "head-hand", "free"),
                            cfg.usage_probs):
            assert counts[usage] / n == pytest.approx(p, abs=0.01)
