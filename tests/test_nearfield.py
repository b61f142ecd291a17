import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fr3sim.antenna import PanelArray, mount_bs_array
from fr3sim.coefficients import draw_phases
from fr3sim.geometry import Orientation, sph_unit
from fr3sim.largescale import C_LIGHT
from fr3sim import nearfield
from fr3sim.nearfield import (element_wise_angles, nlos_element_phase,
                              source_distances, unit_phase)

from test_coefficients import geom_for, iso_element, simple_cs
from test_synthesis_reference import synthesize_with_rays

LAM = C_LIGHT / 7e9


def element_offsets(arr):
    """The element offsets of ``arr`` mounted unrotated at the origin."""
    return mount_bs_array(arr, np.zeros(3), Orientation(), LAM).offsets


def exact_unit_phase(turns):
    """exp(j 2 pi t) from the turn reduced exactly: t - rint(t) has no
    rounding error in float64, so only cos and sin round."""
    u = 2.0 * np.pi * (turns - np.rint(turns))
    return np.cos(u) + 1j * np.sin(u)


def bits(z):
    return np.ascontiguousarray(z).view(np.uint64)


def nlos_case(k, r, seed=0):
    """(d, r_hat, d_bar) of k element offsets on a 7 GHz half-wavelength
    grid and r rays with sources 2-60 m away."""
    rng = np.random.default_rng(seed)
    r_hat = sph_unit(rng.uniform(10.0, 170.0, r), rng.uniform(-180.0, 180.0, r))
    d_bar = (LAM / 2) * np.column_stack([np.zeros(k), rng.integers(-16, 16, (k, 2))])
    return rng.uniform(2.0, 60.0, r), r_hat, d_bar


class TestSourceDistances:
    def test_specular_full_length(self):
        cs = simple_cs(n=4, m=2, p=np.array([0.4, 0.3, 0.2, 0.1]))
        nf = source_distances(cs, 100.0, 0.0, n_spec=2, alpha=2.0, beta=2.0,
                              rng=np.random.default_rng(0))
        total = 100.0 + np.repeat(cs.tau_scaled[:, None], 2, axis=1) * C_LIGHT
        # strongest clusters carry sub-cluster delay offsets
        assert np.all(nf.s_bs[:2] == 1.0)
        assert np.allclose(nf.d1[2:] + nf.d2[2:], total[2:], rtol=1e-12)
        assert np.allclose(nf.d1[:2], nf.d2[:2])

    def test_complement_identity(self):
        rng = np.random.default_rng(1)
        for seed in range(50):
            n = 12
            p = rng.dirichlet(np.ones(n))
            cs = simple_cs(n=n, m=20, p=p)
            dtau = 2e-8
            nf = source_distances(cs, 250.0, dtau, n_spec=0, alpha=2.0,
                                  beta=3.0, rng=np.random.default_rng([2, seed]))
            tau_ray = np.repeat(cs.tau_scaled[:, None], 20, axis=1)
            from fr3sim.smallscale import SUBCLUSTER_DELAY_FACTORS
            for ci in cs.strongest:
                for gi, grp in enumerate(cs.subclusters):
                    tau_ray[ci, grp] = cs.tau_scaled[ci] + \
                        SUBCLUSTER_DELAY_FACTORS[gi] * cs.c_ds
            total = 250.0 + tau_ray * C_LIGHT + dtau * C_LIGHT
            assert np.allclose(nf.d1 + nf.d2, total, rtol=1e-12)
            assert np.all(nf.d1 >= 0) and np.all(nf.d2 >= 0)

    def test_beta_mean(self):
        cs = simple_cs(n=1, m=1)
        rng = np.random.default_rng(3)
        samples = rng.beta(2.0, 2.0, size=1_000_000)
        assert np.mean(samples) == pytest.approx(0.5, abs=0.005)
        samples = rng.beta(2.0, 5.0, size=1_000_000)
        assert np.mean(samples) == pytest.approx(2.0 / 7.0, rel=0.01)

    def test_invalid_beta(self):
        cs = simple_cs(n=2, m=1, p=np.array([0.6, 0.4]))
        with pytest.raises(ValueError):
            source_distances(cs, 10.0, 0.0, 0, -1.0, 2.0,
                             np.random.default_rng(0))


class TestUnitPhase:
    def test_accuracy(self):
        rng = np.random.default_rng(20)
        grid = rng.integers(-128 * 10**4, 128 * 10**4, 20_000) / 128.0
        near_grid = grid + rng.integers(-4, 5, grid.size) * np.spacing(grid)
        cases = {"uniform": rng.uniform(-1e4, 1e4, 200_000),
                 "near k/64 and k/128": near_grid,
                 "tiny": np.append(rng.uniform(-1e-300, 1e-300, 1000),
                                   [0.0, -0.0, 5e-324, -5e-324])}
        for name, t in cases.items():
            err = np.abs(unit_phase(t) - exact_unit_phase(t)).max()
            assert err <= 2e-15, name

    def test_integers_give_exactly_one(self):
        n = np.concatenate([np.arange(-3000.0, 3000.0), [2.0**40, -2.0**52]])
        assert np.all(unit_phase(n) == 1.0)

    def test_whole_turns_do_not_change_bits(self):
        rng = np.random.default_rng(21)
        t = rng.integers(-2**20, 2**20, 10_000) * 2.0**-20
        n = rng.integers(-2**20, 2**20 + 1, t.size).astype(float)
        assert np.array_equal(bits(unit_phase(t + n)), bits(unit_phase(t)))

    def test_shapes(self):
        t = np.random.default_rng(22).uniform(-50.0, 50.0, (30, 700))
        flat = unit_phase(t.reshape(-1))
        assert flat.shape == (21_000,)
        assert np.array_equal(bits(unit_phase(t)), bits(flat.reshape(30, 700)))
        assert not t.T.flags.c_contiguous
        assert np.array_equal(bits(unit_phase(t.T)), bits(unit_phase(t).T))
        zero_d = unit_phase(t[3, 5])
        assert zero_d.shape == () and zero_d == flat[3 * 700 + 5]
        assert unit_phase(np.empty((0, 4))).shape == (0, 4)

    def test_block_invariance(self, monkeypatch):
        # 100 x 240 spans several blocks of 8,192 elements (34 rows of 240),
        # with a ragged last one; one-element blocks can take other numpy
        # inner loops
        d, r_hat, d_bar = nlos_case(100, 240)
        t = np.random.default_rng(23).uniform(-300.0, 300.0, 24_001)
        runs = []
        for block in (1, 240, nearfield.BLOCK, 100 * 240):
            monkeypatch.setattr(nearfield, "BLOCK", block)
            runs.append((bits(nlos_element_phase(d, r_hat, d_bar, LAM)),
                         bits(unit_phase(t))))
        for nlos, flat in runs[1:]:
            assert np.array_equal(nlos, runs[0][0])
            assert np.array_equal(flat, runs[0][1])

    def test_memory_bound(self):
        # only the output and block-sized scratch: no (K, R) temporary
        d, r_hat, d_bar = nlos_case(1024, 240)
        tracemalloc.start()
        try:
            out = nlos_element_phase(d, r_hat, d_bar, LAM)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2**20


class TestNlosPhase:
    def test_zero_offset(self):
        r_hat = sph_unit(np.array([90.0]), np.array([0.0]))
        ph = nlos_element_phase(np.array([50.0]), r_hat, np.zeros((1, 3)), LAM)
        assert ph[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_parallel_small_offset(self):
        # element shifted along the ray: plane-wave first-order limit
        delta = LAM / 16
        r_hat = sph_unit(np.array([90.0]), np.array([0.0]))
        d_bar = delta * r_hat
        ph = nlos_element_phase(np.array([1000.0]), r_hat, d_bar, LAM)
        assert np.angle(ph[0, 0]) == pytest.approx(2 * np.pi * delta / LAM, rel=1e-4)

    def test_far_field_limit(self):
        # at d = 1e6 x aperture the spherical phase matches the plane wave
        # within the Fresnel bound pi A^2 / (4 lam d)
        arr = PanelArray(m=64, n=16, p=1)
        pos = element_offsets(arr)
        aperture = np.linalg.norm(pos.max(axis=0) - pos.min(axis=0))
        d = 1e6 * aperture
        r_hat = sph_unit(np.array([75.0]), np.array([20.0]))
        nf = nlos_element_phase(np.array([d]), r_hat, pos, LAM)
        pw = np.exp(2j * np.pi * (pos @ r_hat[0]) / LAM)
        err = np.abs(np.angle(nf[:, 0] / pw))
        bound = np.pi * aperture ** 2 / (4.0 * LAM * d)
        assert err.max() < 1e-3
        assert err.max() <= bound * 1.1

    def test_degenerate_distance(self):
        r_hat = sph_unit(np.array([90.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            nlos_element_phase(np.array([0.0]), r_hat, np.zeros((1, 3)), LAM)


class TestElementWiseAngles:
    def test_reference_reproduces_nominal(self):
        zen, az = 63.0, -48.0
        d1 = 37.0
        src = d1 * sph_unit(zen, az)
        a, z = element_wise_angles(src, np.zeros((1, 3)))
        assert a[0] == pytest.approx(az, abs=1e-9)
        assert z[0] == pytest.approx(zen, abs=1e-9)

    def test_mirror_symmetry(self):
        src = np.array([10.0, 0.0, 0.0])
        pos = np.array([[0.0, 0.5, 0.0], [0.0, -0.5, 0.0]])
        a, _z = element_wise_angles(src, pos)
        assert a[0] == pytest.approx(-a[1], abs=1e-12)

    def test_spread_shrinks_with_distance(self):
        arr = PanelArray(m=16, n=8, p=1)
        pos = element_offsets(arr)
        r_hat = sph_unit(80.0, 30.0)
        spreads = []
        for d1 in 2.0 * 10 ** np.arange(10):
            a, _ = element_wise_angles(d1 * r_hat, pos)
            spreads.append(a.max() - a.min())
        assert np.all(np.diff(spreads) < 0)

    def test_broadcast_matches_single_sources(self):
        # one (K, 1, 3) x (R, 3) call is R single-source calls, bit for bit
        pos = element_offsets(PanelArray(m=4, n=4, p=2))
        src = np.random.default_rng(3).uniform(-20.0, 20.0, (7, 3))
        az, zen = element_wise_angles(src, pos[:, None, :])
        assert az.shape == zen.shape == (pos.shape[0], 7)
        for r, s in enumerate(src):
            a, z = element_wise_angles(s, pos)
            assert np.array_equal(az[:, r], a)
            assert np.array_equal(zen[:, r], z)

    def test_coincident_rejected(self):
        with pytest.raises(ValueError):
            element_wise_angles(np.zeros(3), np.zeros((1, 3)))

    def test_coincident_in_broadcast_rejected_without_warning(self):
        # one of (2, 2) element-source pairs coincides: ValueError, and no
        # RuntimeWarning from the 0/0 behind it
        src = np.array([[1.0, 2.0, 3.0], [0.0, 0.5, 0.0]])
        pos = np.array([[[0.0, -0.5, 0.0]], [[0.0, 0.5, 0.0]]])
        for s, e in ((np.zeros(3), np.zeros((1, 3))), (src, pos)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="coincides"):
                    element_wise_angles(s, e)


class TestFeatureIsolation:
    def _channels(self, near):
        cs = simple_cs(n=4, m=20, p=np.array([0.4, 0.3, 0.2, 0.1]))
        rng = np.random.default_rng(7)
        cs.aoa = rng.uniform(-180, 180, (4, 20))
        cs.zoa = rng.uniform(20, 160, (4, 20))
        cs.aod = rng.uniform(-180, 180, (4, 20))
        cs.zod = rng.uniform(20, 160, (4, 20))
        ph = draw_phases(4, 20, np.random.default_rng(8))
        one = iso_element((0.0, 0.0, 10.0))
        bs = replace(one, site_offsets=np.array([[0, 0, 0], [0, LAM / 2, 0],
                                                 [0, LAM, 0]]),
                     site_index=np.arange(3), group_index=np.zeros(3, int))
        ue = iso_element((30.0, 0.0, 1.5))
        nf = None
        if near:
            nf = source_distances(cs, 30.0, 0.0, 0, 2.0, 2.0,
                                  np.random.default_rng(9))
        return synthesize_with_rays((geom_for(30.0), cs, ph, bs, ue),
                                    near_field=nf)

    def test_amplitudes_and_delays_unchanged(self):
        h_ff, rays_ff = self._channels(False)
        h_nf, rays_nf = self._channels(True)
        assert np.array_equal(h_ff.delays, h_nf.delays)
        for a, b in zip(rays_ff, rays_nf):
            assert np.allclose(np.abs(a), np.abs(b), rtol=1e-12, atol=1e-15)
            assert not np.allclose(np.angle(a[0, 1:]), np.angle(b[0, 1:]))

    def test_nf_angles_reevaluates_patterns(self):
        # with element-wise angles on, directional patterns change ray
        # amplitudes (feature is optional and off by default)
        from fr3sim.antenna import ElementPattern, PanelArray, mount_bs_array
        from fr3sim.geometry import Orientation
        cs = simple_cs(n=3, m=4, p=np.array([0.5, 0.3, 0.2]))
        rng = np.random.default_rng(12)
        cs.aod = rng.uniform(-60, 60, (3, 4))
        cs.zod = rng.uniform(60, 120, (3, 4))
        ph = draw_phases(3, 4, np.random.default_rng(13))
        bs = mount_bs_array(PanelArray(m=4, n=2, p=1,
                                       element=ElementPattern.directional()),
                            np.array([0.0, 0.0, 10.0]),
                            Orientation(0, 0, 0), LAM)
        ue = iso_element((6.0, 0.0, 1.5))
        nf = source_distances(cs, 6.0, 0.0, 0, 2.0, 2.0,
                              np.random.default_rng(14))
        args = (geom_for(6.0), cs, ph, bs, ue)
        h_plain, rays_plain = synthesize_with_rays(args, near_field=nf,
                                                   nf_angles=False)
        h_ang, rays_ang = synthesize_with_rays(args, near_field=nf,
                                               nf_angles=True)
        assert np.array_equal(h_plain.delays, h_ang.delays)
        changed = any(not np.allclose(np.abs(a), np.abs(b))
                      for a, b in zip(rays_plain, rays_ang))
        assert changed
