import numpy as np
import pytest

from fr3sim.largescale import LspSet
from fr3sim.scenario import ParameterError, PropagationState, load_parameter_tables
from fr3sim.smallscale import (RAY_OFFSETS_20, SUBCLUSTER_RAYS_20,
                               build_cluster_set, couple_angles,
                               draw_cluster_count, generate_angles,
                               generate_delays, generate_powers,
                               generate_xpr, polarization_weights,
                               prune_clusters, ray_offset_basis,
                               subcluster_groups)

REG = load_parameter_tables()
SMA = REG.scenario("SMa")
UMA = REG.scenario("UMa")


def make_lsp(ds=100e-9, asa=60, asd=20, zsa=10, zsd=5, k_db=9.0, sf=0.0):
    return LspSet(ds=ds, asa=asa, asd=asd, zsa=zsa, zsd=zsd, sf_db=sf, k_db=k_db)


def default_rngs(seed=0):
    names = ("count", "delays", "powers", "angles", "coupling", "xpr", "pol")
    return {n: np.random.default_rng([seed, i]) for i, n in enumerate(names)}


class TestClusterCount:
    def test_uma_nlos_range(self):
        rng = np.random.default_rng(0)
        draws = {draw_cluster_count(UMA, "nlos", rng) for _ in range(500)}
        assert draws <= set(range(15, 21))
        assert len(draws) == 6

    def test_degenerate_range(self):
        sc_vals = {draw_cluster_count(UMA, "los", np.random.default_rng(1))
                   for _ in range(50)}
        assert sc_vals <= {10, 11, 12}

    def test_disabled_fixed_value(self):
        rng = np.random.default_rng(2)
        assert draw_cluster_count(SMA, "los", rng, enabled=False) == 15


class TestDelays:
    def test_c_tau_values(self):
        _, _, c0 = generate_delays(5, 1e-7, 2.4, 0.0, True, np.random.default_rng(0))
        assert c0 == pytest.approx(0.7705, rel=1e-12)
        _, _, c10 = generate_delays(5, 1e-7, 2.4, 10.0, True, np.random.default_rng(0))
        assert c10 == pytest.approx(0.7705 - 0.433 + 0.02 + 0.017, rel=1e-12)
        assert c10 == pytest.approx(0.3745, rel=1e-12)

    def test_single_cluster(self):
        tau, _, _ = generate_delays(1, 1e-7, 2.4, 0.0, False, np.random.default_rng(1))
        assert tau.shape == (1,)
        assert tau[0] == 0.0

    def test_sorted_zero_first(self):
        tau, scaled, _ = generate_delays(20, 50e-9, 1.5, 0.0, False,
                                         np.random.default_rng(2))
        assert tau[0] == 0.0
        assert np.all(np.diff(tau) >= 0)
        assert np.allclose(scaled, tau)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            generate_delays(5, 0.0, 2.4, 0.0, False, np.random.default_rng(0))
        with pytest.raises(ValueError):
            generate_delays(5, 1e-7, 0.5, 0.0, False, np.random.default_rng(0))


class TestPowers:
    def test_nlos_normalization(self):
        tau, _, _ = generate_delays(14, 80e-9, 1.5, 0.0, False,
                                    np.random.default_rng(3))
        p, p_los = generate_powers(tau, 80e-9, 1.5, 3.0, 0.0, False,
                                   np.random.default_rng(4))
        assert p_los == 0.0
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_los_half_power_at_k0(self):
        tau, _, _ = generate_delays(15, 80e-9, 2.4, 0.0, True,
                                    np.random.default_rng(5))
        p, p_los = generate_powers(tau, 80e-9, 2.4, 3.0, 0.0, True,
                                   np.random.default_rng(6))
        assert p_los == pytest.approx(0.5, rel=1e-12)
        assert p.sum() + p_los == pytest.approx(1.0, abs=1e-12)

    def test_decay_slope_with_zero_shadowing(self):
        ds, r_tau = 120e-9, 2.4
        tau, _, _ = generate_delays(200, ds, r_tau, 0.0, False,
                                    np.random.default_rng(7))
        p, _ = generate_powers(tau, ds, r_tau, 0.0, 0.0, False,
                               np.random.default_rng(8))
        slope = np.polyfit(tau, np.log(p), 1)[0]
        assert slope == pytest.approx(-(r_tau - 1) / (r_tau * ds), rel=1e-9)

    def test_prune_keeps_sum(self):
        tau = np.linspace(0, 1e-6, 12)
        p = np.geomspace(1.0, 1e-5, 12)
        p = p / p.sum() * 0.8
        t2, s2, p2, p_los, _kept = prune_clusters(tau, tau, p, 0.2,
                                                  threshold_db=25.0)
        assert t2.shape[0] < 12
        assert p2.sum() + p_los == pytest.approx(1.0, abs=1e-12)

    def test_prune_reports_survivors(self):
        p = np.array([0.3, 1e-5, 0.5, 2e-5, 0.2])
        tau = np.arange(5) * 1e-8
        t2, _s2, p2, _p_los, kept = prune_clusters(tau, tau, p, 0.0,
                                                   threshold_db=25.0)
        assert kept.tolist() == [0, 2, 4]
        assert np.array_equal(t2, tau[kept])
        assert np.allclose(p2 / p2.sum(), p[kept] / p[kept].sum())
        *_, kept = prune_clusters(tau, tau, p, 0.0, threshold_db=60.0)
        assert kept.tolist() == [0, 1, 2, 3, 4]


class TestRayOffsets:
    def test_table_pairs_and_sum(self):
        assert RAY_OFFSETS_20[0] == 0.0447
        assert RAY_OFFSETS_20[-1] == -2.1551
        assert np.allclose(RAY_OFFSETS_20[::2], -RAY_OFFSETS_20[1::2])
        assert RAY_OFFSETS_20.sum() == pytest.approx(0.0, abs=1e-12)

    def test_generic_basis_properties(self):
        for m in (3, 7, 12, 26, 40):
            b = ray_offset_basis(m)
            assert b.shape == (m,)
            assert b.sum() == pytest.approx(0.0, abs=1e-9)
            assert np.sqrt(np.mean(b ** 2)) == pytest.approx(1.0, rel=1e-9)

    def test_m20_is_table(self):
        assert np.array_equal(ray_offset_basis(20), RAY_OFFSETS_20)

    def test_single_ray_at_cluster_centre(self):
        assert np.array_equal(ray_offset_basis(1), [0.0])

    def test_memoized_basis_is_returned_as_a_copy(self):
        b = ray_offset_basis(24)
        b[:] = 0.0
        assert np.all(ray_offset_basis(24) != 0.0)


class TestAngles:
    def _angles(self, los, seed=0, n=15, m=20):
        rng = np.random.default_rng(seed)
        tau, _, _ = generate_delays(n, 100e-9, 2.4, 7.0, los, rng)
        p, _ = generate_powers(tau, 100e-9, 2.4, 3.0, 7.0, los, rng)
        lsp = make_lsp(k_db=7.0)
        ssp = SMA.ssp("los" if los else "nlos", 7.0)
        return p, generate_angles(p, lsp, los, (10.0, -20.0, 80.0, 100.0),
                                  ssp, REG.angle_scaling, m, rng)

    def test_zenith_range(self):
        for seed in range(60):
            _, (aoa, aod, zoa, zod) = self._angles(False, seed)
            assert np.all((zoa >= 0) & (zoa <= 180))
            assert np.all((zod >= 0) & (zod <= 180))
            assert np.all((aoa >= -180) & (aoa <= 180))
            assert np.all((aod >= -180) & (aod <= 180))

    def test_los_recentering(self):
        _, (aoa, _aod, zoa, _zod) = self._angles(True, seed=3)
        # first cluster's ray-mean azimuth equals the direct-path azimuth
        assert np.mean(aoa[0]) == pytest.approx(10.0, abs=1e-9)
        assert np.mean(zoa[0]) == pytest.approx(80.0, abs=1e-9)

    def test_scaling_table_error(self):
        p = np.ones(5) / 5
        lsp = make_lsp()
        ssp = SMA.ssp("nlos", 7.0)
        with pytest.raises(ParameterError):
            generate_angles(p, lsp, False, (0, 0, 90, 90), ssp,
                            REG.angle_scaling, 20, np.random.default_rng(0),
                            n_total=3)


class TestCoupling:
    def test_multisets_preserved(self):
        rng = np.random.default_rng(9)
        n, m = 6, 20
        aoa = rng.uniform(-180, 180, (n, m))
        aod = rng.uniform(-180, 180, (n, m))
        zoa = rng.uniform(0, 180, (n, m))
        zod = rng.uniform(0, 180, (n, m))
        groups = subcluster_groups(m)
        a2, d2, z2, x2 = couple_angles(aoa, aod, zoa, zod, (0, 1), groups, rng)
        for i in range(n):
            assert sorted(a2[i]) == pytest.approx(sorted(aoa[i]))
            assert sorted(d2[i]) == pytest.approx(sorted(aod[i]))
            assert sorted(z2[i]) == pytest.approx(sorted(zoa[i]))
        assert np.array_equal(x2, zod)

    def test_subcluster_internal_permutation(self):
        rng = np.random.default_rng(10)
        n, m = 3, 20
        aoa = np.arange(n * m, dtype=float).reshape(n, m)
        aod = aoa + 1000
        zoa = aoa + 2000
        zod = aoa + 3000
        groups = subcluster_groups(m)
        a2, d2, z2, _ = couple_angles(aoa, aod, zoa, zod, (0, 1), groups, rng)
        for ci in (0, 1):
            for g in groups:
                assert set(a2[ci, g]) == set(aoa[ci, g])
                assert set(d2[ci, g]) == set(aod[ci, g])
                assert set(z2[ci, g]) == set(zoa[ci, g])

    def test_single_ray_identity(self):
        rng = np.random.default_rng(11)
        one = np.array([[12.0]])
        a2, d2, z2, x2 = couple_angles(one, one + 1, one + 2, one + 3, (),
                                       [np.array([0])], rng)
        assert a2[0, 0] == 12.0 and d2[0, 0] == 13.0


class TestSubclusters:
    def test_reference_mapping(self):
        groups = subcluster_groups(20)
        assert [g.size for g in groups] == [10, 6, 4]
        assert np.array_equal(np.sort(np.concatenate(groups)), np.arange(20))
        assert np.array_equal(groups[0], SUBCLUSTER_RAYS_20[0])
        assert np.array_equal(groups[1], np.array([8, 9, 10, 11, 16, 17]))
        assert np.array_equal(groups[2], np.array([12, 13, 14, 15]))

    def test_power_split_exact(self):
        groups = subcluster_groups(20)
        assert [g.size / 20 for g in groups] == [0.5, 0.3, 0.2]

    def test_regrouping_other_m(self):
        for m in (3, 10, 26, 40):
            groups = subcluster_groups(m)
            assert sum(g.size for g in groups) == m
            assert np.array_equal(np.sort(np.concatenate(groups)),
                                  np.arange(m))

    def test_zero_ray_groups_dropped(self):
        assert [g.tolist() for g in subcluster_groups(1)] == [[0]]
        assert [g.tolist() for g in subcluster_groups(2)] == [[0], [1]]


class TestTaps:
    @pytest.mark.parametrize("m", [20, 7, 1, 2, 3])
    def test_rays_covered_once_and_power_kept(self, m):
        cs = build_cluster_set(SMA, PropagationState("NLOS", "outdoor"),
                               make_lsp(), (10.0, -20.0, 80.0, 100.0), 7.0,
                               default_rngs(3), REG.angle_scaling, ray_count=m)
        taps = cs.taps(base_delay=1e-6)
        rays = np.concatenate([r for _, r, _ in taps])
        assert np.array_equal(np.sort(rays), np.arange(cs.n * m))
        assert sum(p for _, _, p in taps) == pytest.approx(cs.p.sum(), rel=1e-12)
        assert len(taps) == cs.n + len(cs.strongest) * (len(cs.subclusters) - 1)
        assert min(d for d, _, _ in taps) == 1e-6


class TestXpr:
    def test_deterministic_at_zero_sigma(self):
        k = generate_xpr(8.0, 0.0, 4, 20, np.random.default_rng(0))
        assert np.allclose(k, 10 ** 0.8)

    def test_sample_mean(self):
        k = generate_xpr(8.0, 4.0, 500, 2000, np.random.default_rng(1))
        x = 10 * np.log10(k)
        assert np.mean(x) == pytest.approx(8.0, abs=0.05)

    def test_sma_defaults(self):
        assert SMA.value("mu_xpr", "los") == 8.0
        assert SMA.value("sigma_xpr", "los") == 4.0


class StubRng:
    def normal(self, loc=0.0, scale=1.0, size=None):
        return np.zeros(size) if size else 0.0


class TestPolarizationWeights:
    def test_disabled(self):
        kappa = np.full((3, 20), 2.5)
        eta = polarization_weights(kappa, np.random.default_rng(0), enabled=False)
        assert np.allclose(eta, 1.0)

    def test_zero_exponent_all_ones(self):
        kappa = np.full((2, 5), 7.0)
        eta = polarization_weights(kappa, StubRng(), enabled=True)
        assert np.allclose(eta, 1.0)

    def test_normalization_identity(self):
        rng = np.random.default_rng(2)
        kappa = 10 ** (rng.normal(1.0, 0.8, (100, 1000)) / 1.0)
        eta = polarization_weights(kappa, rng, enabled=True)
        inv_k = 1.0 / kappa
        lhs = eta[..., 0] + eta[..., 3] + inv_k * (eta[..., 1] + eta[..., 2])
        assert np.allclose(lhs, 2.0 + 2.0 * inv_k, atol=1e-12)


class TestBuildClusterSet:
    def test_full_chain_invariants(self):
        st = PropagationState("LOS", "outdoor")
        lsp = make_lsp()
        cs = build_cluster_set(SMA, st, lsp, (10.0, -20.0, 80.0, 100.0), 7.0,
                               default_rngs(0), REG.angle_scaling)
        assert cs.p.sum() + cs.p_los == pytest.approx(1.0, abs=1e-12)
        assert cs.tau[0] == 0.0
        assert np.all(np.diff(cs.tau) >= 0)
        assert cs.m == 20
        assert len(cs.strongest) == 2
        assert cs.kappa.shape == (cs.n, 20)
        assert cs.eta.shape == (cs.n, 20, 4)
        assert np.allclose(cs.eta, 1.0)  # variability off by default

    def test_recomputed_ds_tracks_input(self):
        # with zero per-cluster shadowing and NLOS, the r_tau construction
        # targets the configured DS statistically
        st = PropagationState("NLOS", "outdoor")
        ratios = []
        ds_in = 200e-9
        for seed in range(800):
            rng = np.random.default_rng([21, seed])
            tau, _, _ = generate_delays(14, ds_in, 1.5, 0.0, False, rng)
            p, _ = generate_powers(tau, ds_in, 1.5, 0.0, 0.0, False, rng)
            mean = np.sum(p * tau)
            ds_out = np.sqrt(np.sum(p * tau ** 2) - mean ** 2)
            ratios.append(ds_out / ds_in)
        assert abs(np.median(ratios) - 1.0) < 0.15
