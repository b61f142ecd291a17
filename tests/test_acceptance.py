"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -s` to see the
per-criterion report.  Tolerances are fixed here, not calibrated elsewhere.
"""

from dataclasses import fields

import numpy as np
import pytest

import fr3sim
from fr3sim.geometry import LinkGeometry
from fr3sim.harness import RunConfig, run
from fr3sim.largescale import C_LIGHT
from fr3sim.scenario import PropagationState, load_parameter_tables

REG = load_parameter_tables()
SMA = REG.scenario("SMa")
LAM7 = C_LIGHT / 7e9


def _report(name, ok, detail=""):
    print(f"[ACCEPT] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def geom(d2d, d3d=None, h_bs=35.0, h_ue=1.5):
    d3d = d3d if d3d is not None else float(np.hypot(d2d, h_bs - h_ue))
    return LinkGeometry(d2d=d2d, d3d=d3d, h_bs=h_bs, h_ue=h_ue,
                        aod_az=0.0, aoa_az=180.0, zod=95.0, zoa=85.0)


# --------------------------------------------------------------------------
# Criterion 1: formula unit tests (exact / 1e-9), < 1 s
# --------------------------------------------------------------------------

class TestFormulaUnits:
    def test_formulas(self):
        checks = []
        # breakpoint distance 2 pi h_BS h_UE fc / c, fc in Hz
        dbp = fr3sim.breakpoint_distance("rma_dual", 35.0, 1.5, 7.0)
        oracle = 2.0 * np.pi * 35.0 * 1.5 * 7e9 / 3.0e8
        checks.append(("d_BP", abs(dbp - oracle) < 1e-9 * oracle,
                       f"{dbp:.4f} m (stated 7696.9)"))
        assert abs(dbp - 7696.9) < 0.05

        # SMa LOS PL1 at d3D = 100 m, 7 GHz, h = 10
        pl = fr3sim.path_loss(SMA, geom(100.0, d3d=100.0),
                              PropagationState("LOS", "outdoor"), 7.0)
        oracle = (20 * np.log10(40 * np.pi * 100 * 7 / 3)
                  + min(0.03 * 10 ** 1.72, 10) * np.log10(100)
                  - min(0.044 * 10 ** 1.72, 14.77) + 0.002 * np.log10(10) * 100)
        checks.append(("PL1(100 m, 7 GHz)", abs(pl - oracle) < 1e-9,
                       f"{pl:.4f} dB (stated 90.39)"))
        assert abs(pl - 90.39) < 0.01

        # SMa NLOS at 1 km, 7 GHz, defaults W = h = 10
        pln = fr3sim.path_loss(SMA, geom(1000.0, d3d=1000.0),
                               PropagationState("NLOS", "outdoor"), 7.0)
        oracle = (161.04 - 7.1 * np.log10(10) + 7.5 * np.log10(10)
                  - (24.37 - 3.7 * (10 / 35) ** 2) * np.log10(35)
                  + (43.42 - 3.1 * np.log10(35)) * (np.log10(1000) - 3)
                  + 20 * np.log10(7)
                  - (3.2 * (np.log10(11.75 * 1.5)) ** 2 - 4.97))
        checks.append(("PL_NLOS(1 km, 7 GHz)", abs(pln - oracle) < 1e-9,
                       f"{pln:.4f} dB (stated 141.18)"))
        assert abs(pln - 141.18) < 0.01

        # plywood loss at 10 GHz
        ply = fr3sim.material_loss(REG.materials, "plywood", 10.0)
        checks.append(("plywood@10GHz", abs(ply - 2.73) < 1e-9, f"{ply} dB"))

        # delay compensation cubic
        _, _, c0 = fr3sim.generate_delays(5, 1e-7, 2.4, 0.0, True,
                                          np.random.default_rng(0))
        _, _, c10 = fr3sim.generate_delays(5, 1e-7, 2.4, 10.0, True,
                                           np.random.default_rng(0))
        checks.append(("C_tau(0)", abs(c0 - 0.7705) < 1e-9, f"{c0}"))
        checks.append(("C_tau(10)", abs(c10 - 0.3745) < 1e-9, f"{c10}"))

        # cluster delay spread expression at 7 GHz
        cds = SMA.value("c_ds", "los", fc=7.0)
        oracle = max(0.25, 6.5622 - 3.4084 * np.log10(7.0))
        checks.append(("c_DS(7 GHz)", abs(cds - oracle) < 1e-9,
                       f"{cds:.4f} ns (stated 3.68)"))
        assert abs(cds - 3.68) < 0.005

        for name, ok, detail in checks:
            _report(f"formula {name}", ok, detail)


# --------------------------------------------------------------------------
# Criterion 2: normalization suite (1e-12), < 10 s
# --------------------------------------------------------------------------

class TestNormalization:
    def test_power_normalization_10k_links(self):
        worst = 0.0
        for seed in range(10_000):
            rng = np.random.default_rng([1, seed])
            los = seed % 2 == 0
            k_db = rng.uniform(-5, 15) if los else 0.0
            n = 14 if not los else 15
            tau, _, _ = fr3sim.generate_delays(n, 100e-9, 2.4 if los else 1.5,
                                               k_db, los, rng)
            p, p_los = fr3sim.generate_powers(tau, 100e-9, 2.4 if los else 1.5,
                                              3.0, k_db, los, rng)
            worst = max(worst, abs(p.sum() + p_los - 1.0))
        _report("power normalization (1e4 links)", worst < 1e-12,
                f"max |sum-1| = {worst:.2e}")

    def test_polarization_identity_100k_rays(self):
        rng = np.random.default_rng(2)
        kappa = fr3sim.generate_xpr(6.0, 4.0, 100, 1000, rng)
        eta = fr3sim.polarization_weights(kappa, rng, enabled=True)
        inv_k = 1.0 / kappa
        lhs = eta[..., 0] + eta[..., 3] + inv_k * (eta[..., 1] + eta[..., 2])
        err = np.max(np.abs(lhs - (2.0 + 2.0 * inv_k)))
        _report("polarization identity (1e5 rays)", err < 1e-12,
                f"max err = {err:.2e}")

    def test_subcluster_split_exact(self):
        groups = fr3sim.subcluster_groups(20)
        fracs = [g.size / 20 for g in groups]
        _report("sub-cluster split", fracs == [0.5, 0.3, 0.2], f"{fracs}")


# --------------------------------------------------------------------------
# Criterion 3: Monte-Carlo statistics, < 2 min
# --------------------------------------------------------------------------

class TestMonteCarlo:
    def test_los_fraction_and_indoor_ratio(self):
        n = 100_000
        d2d = 400.0
        one = geom(d2d)
        links = fr3sim.LinkGeometry(*(np.full(n, getattr(one, f.name))
                                      for f in fields(one)))
        states = fr3sim.assign_states(links, np.zeros(n, bool),
                                      np.full(n, ""), SMA,
                                      np.random.default_rng(3))
        p = fr3sim.los_probability(SMA, d2d, 1.5)
        phat = np.mean(states.los == "LOS")
        half = 2.5758 * np.sqrt(p * (1 - p) / n)  # 99 percent binomial CI
        _report("LOS fraction vs probability", abs(phat - p) < half,
                f"phat={phat:.4f} p={p:.4f} ci=±{half:.4f}")
        # the drop decides indoor; one site keeps its rejection check cheap
        drop = fr3sim.drop_ues(fr3sim.build_disc_layout(1000.0, 35.0), n,
                               SMA, np.random.default_rng(3))
        indoor = np.mean(drop.indoor)
        _report("SMa indoor fraction 0.80±0.01", abs(indoor - 0.80) < 0.01,
                f"{indoor:.4f}")

    def test_absolute_delay_median(self):
        rng = np.random.default_rng(4)
        vals = np.array([fr3sim.draw_absolute_excess(SMA, rng)
                         for _ in range(100_000)])
        med = np.median(vals)
        target = 10.0 ** (-7.702)
        _report("abs-delay median ±3%", abs(med / target - 1) < 0.03,
                f"{med:.4e} s vs {target:.4e} s")

    def test_field_autocorrelation(self):
        # one realization of each raw LSP field on 1 m rows 1 km long; the
        # rows are 10 km apart, i.e. independent
        from test_largescale import Uncorrelated
        rng = np.random.default_rng(5)
        xs = np.arange(1000.0)
        ys = np.arange(300) * 1e4
        gx, gy = np.meshgrid(xs, ys)
        pos = np.column_stack([gx.ravel(), gy.ravel()])
        vals, names = fr3sim.correlated_standard_normals(
            pos, Uncorrelated(SMA), "los", rng)
        dcor = SMA.correlation_distances("los")
        worst = 0.0
        for j, name in enumerate(names):
            g = vals[:, j].reshape(ys.size, xs.size)
            lag = int(round(dcor[name]))
            ac = np.mean(g[:, :-lag] * g[:, lag:]) / g.var()
            worst = max(worst, abs(ac - np.exp(-1)))
        _report("field autocorrelation e^-1±0.05", worst < 0.05,
                f"max dev = {worst:.3f}")

    def test_imposed_cross_correlation(self):
        # 1e5 nodes 10 km apart on a lattice: independent cross-correlated
        # vectors
        rng = np.random.default_rng(6)
        inh = REG.scenario("InH")
        side = np.arange(317) * 1e4
        gx, gy = np.meshgrid(side, side)
        pos = np.column_stack([gx.ravel(), gy.ravel()])
        data, names = fr3sim.correlated_standard_normals(pos, inh, "los", rng)
        c_target, _ = inh.cross_correlation("los")
        c_hat = np.corrcoef(data.T)
        err = np.max(np.abs(c_hat - c_target))
        _report("imposed cross-correlation ±0.05", err < 0.05,
                f"{data.shape[0]} nodes, max entry dev = {err:.3f}")


# --------------------------------------------------------------------------
# Criterion 4: near-field properties, < 1 min
# --------------------------------------------------------------------------

class TestNearFieldProperties:
    def test_complement_identity_100k_rays(self):
        from test_coefficients import simple_cs
        count, worst = 0, 0.0
        rng = np.random.default_rng(7)
        seed = 0
        while count < 100_000:
            n, m = 14, 20
            p = rng.dirichlet(np.ones(n))
            cs = simple_cs(n=n, m=m, p=p)
            nf = fr3sim.source_distances(cs, 300.0, 1e-8, 0, 2.0, 2.0,
                                         np.random.default_rng([8, seed]))
            total = np.where(np.arange(n)[:, None] < 0, 0, nf.d1 + nf.d2)
            tau_ray = np.repeat(cs.tau_scaled[:, None], m, axis=1)
            from fr3sim.smallscale import SUBCLUSTER_DELAY_FACTORS
            for ci in cs.strongest:
                for gi, grp in enumerate(cs.subclusters):
                    tau_ray[ci, grp] = cs.tau_scaled[ci] + \
                        SUBCLUSTER_DELAY_FACTORS[gi] * cs.c_ds
            expect = 300.0 + tau_ray * C_LIGHT + 1e-8 * C_LIGHT
            worst = max(worst, np.max(np.abs(total / expect - 1.0)))
            count += n * m
            seed += 1
        _report("d1+d2 complement identity (1e-9 rel, 1e5 rays)",
                worst < 1e-9, f"max rel dev = {worst:.2e}")

    def test_far_field_convergence(self):
        from fr3sim.antenna import PanelArray, mount_bs_array
        from fr3sim.geometry import Orientation, sph_unit
        arr = PanelArray(m=64, n=16, p=1)
        pos = mount_bs_array(arr, np.zeros(3), Orientation(), LAM7).offsets
        aperture = np.linalg.norm(pos.max(axis=0) - pos.min(axis=0))
        d = 1e6 * aperture
        r_hat = sph_unit(np.array([70.0]), np.array([35.0]))
        nf = fr3sim.nlos_element_phase(np.array([d]), r_hat, pos, LAM7)
        pw = np.exp(2j * np.pi * (pos @ r_hat[0]) / LAM7)
        err = float(np.max(np.abs(np.angle(nf[:, 0] / pw))))
        _report("far-field convergence < 1e-3 rad at 1e6 x aperture",
                err < 1e-3, f"max phase dev = {err:.2e} rad")

    def test_toggle_exactness(self):
        from test_nearfield import TestFeatureIsolation
        t = TestFeatureIsolation()
        h_ff, rays_ff = t._channels(False)
        h_nf, rays_nf = t._channels(True)
        delays_eq = np.array_equal(h_ff.delays, h_nf.delays)
        amp_ok = all(np.allclose(np.abs(a), np.abs(b), rtol=1e-12, atol=0)
                     for a, b in zip(rays_ff, rays_nf))
        _report("near-field toggle leaves amplitudes/delays unchanged",
                delays_eq and amp_ok, "")


# --------------------------------------------------------------------------
# Criterion 5: near-field capacity trend, < 15 min
# --------------------------------------------------------------------------

def _mean_gain(preset, radius, n_ues, out, seed=101):
    base = dict(layout="disc", deploy_radius=radius, n_ues=n_ues, seed=seed,
                fc_ghz=7.0, snr_db=10.0, bs_rows=64, bs_cols=16, bs_pol=2,
                force_state="LOS", workers=2)
    if preset == "inh":
        base.update(scenario="InH", bs_downtilt_deg=90.0)
    else:
        base.update(scenario="UMi", bs_downtilt_deg=10.0,
                    force_location="outdoor")
    nf = run(RunConfig(near_field=True,
                       out_dir=str(out / f"nf_{preset}_{radius}"), **base))
    ff = run(RunConfig(near_field=False,
                       out_dir=str(out / f"ff_{preset}_{radius}"), **base))
    return float(np.mean([a.capacity_bps_hz - b.capacity_bps_hz
                          for a, b in zip(nf, ff)]))


@pytest.mark.filterwarnings("ignore::fr3sim.largescale.ValidityWarning")
class TestNearFieldTrend:
    @pytest.mark.slow
    def test_capacity_gain_ordering(self, tmp_path):
        inh = [_mean_gain("inh", r, 500, tmp_path) for r in (2.0, 5.0, 10.0)]
        umi = [_mean_gain("umi", r, 300, tmp_path) for r in (20.0, 50.0, 100.0)]
        ok_inh = inh[0] > inh[1] > inh[2] > 0
        _report("InH NF gain positive, decreasing over 2/5/10 m", ok_inh,
                f"gains = {[f'{g:.3f}' for g in inh]}")
        ok_umi = umi[0] > umi[1] > umi[2] > 0
        _report("UMi NF gain positive, decreasing over 20/50/100 m", ok_umi,
                f"gains = {[f'{g:.3f}' for g in umi]}")
        ok_rel = all(g < inh[0] for g in umi)
        _report("all UMi gains below the InH 2 m gain", ok_rel,
                f"InH(2m) = {inh[0]:.3f}")


# --------------------------------------------------------------------------
# Criterion 6: SNS properties, < 10 min
# --------------------------------------------------------------------------

class TestSnsProperties:
    def test_vr_area_identity_and_alpha(self):
        from fr3sim.sns import element_attenuation, visibility_region
        cfg = RunConfig()
        rng = np.random.default_rng(9)
        w, h = 0.32, 1.35
        worst = 0.0
        for _ in range(100_000):
            vr = visibility_region(rng.uniform(-30, 0), 0.0, cfg, w, h, rng)
            worst = max(worst, abs(vr.width * vr.height - vr.v * w * h))
        _report("VR area identity (1e5 draws)", worst < 1e-12,
                f"max |ab - VWH| = {worst:.2e}")
        vr = visibility_region(-10.0, 0.0, cfg, w, h,
                               np.random.default_rng(10))
        inside = element_attenuation(vr, cfg, [[vr.center_y, vr.center_z]])
        edge = element_attenuation(
            vr, cfg, [[vr.center_y + vr.width / 2 + 1e-12, vr.center_z]])
        outside = element_attenuation(vr, cfg, [[vr.center_y + w, vr.center_z + h]])
        ok = inside[0] == 1.0 and abs(edge[0] - 1.0) < 1e-9 and 0 < outside[0] < 1
        _report("alpha in (0,1], unity inside VR, boundary-continuous", ok, "")

    @pytest.mark.slow
    def test_coupling_loss_shift(self, tmp_path):
        shifts = {}
        per_link_ok = True
        for preset, radius, tilt, scen in (("umi", 100.0, 10.0, "UMi"),
                                           ("inh", 10.0, 90.0, "InH")):
            base = dict(scenario=scen, layout="disc", deploy_radius=radius,
                        n_ues=300, seed=202, fc_ghz=7.0, bs_rows=64,
                        bs_cols=16, bs_pol=2, bs_downtilt_deg=tilt,
                        force_state="LOS", workers=2)
            if scen == "UMi":
                base["force_location"] = "outdoor"
            off = run(RunConfig(sns="off", out_dir=str(tmp_path / f"sns0_{preset}"),
                                **base))
            on = run(RunConfig(sns="stochastic",
                               out_dir=str(tmp_path / f"sns1_{preset}"), **base))
            deltas = np.array([b.coupling_loss_db - a.coupling_loss_db
                               for a, b in zip(off, on)])
            per_link_ok &= bool(np.all(deltas >= -1e-9))
            shifts[preset] = float(np.mean(deltas))
        _report("SNS coupling loss non-decreasing per link", per_link_ok, "")
        ok = shifts["umi"] > 0 and shifts["inh"] > 0
        _report("mean coupling-loss shift positive (both presets)", ok,
                f"UMi {shifts['umi']:.3f} dB, InH {shifts['inh']:.3f} dB "
                f"(paper reports ≈0.91 / 0.67 dB with unpublished parameters)")


# --------------------------------------------------------------------------
# Criterion 7: ray-count rule, < 5 s
# --------------------------------------------------------------------------

class TestRayCountRule:
    def test_integer_formulas_20_case_grid(self):
        from fr3sim.coefficients import ray_count
        rng = np.random.default_rng(11)
        ok = True
        for _ in range(20):
            b = rng.uniform(1e7, 2e9)
            dh = rng.uniform(0.05, 2.0)
            dv = rng.uniform(0.05, 2.0)
            cds = rng.uniform(0.5e-9, 30e-9)
            casd = rng.uniform(1.0, 15.0)
            czsd = rng.uniform(0.5, 10.0)
            lam = rng.uniform(0.0125, 0.06)
            m, mt, maod, mzod = ray_count(
                bandwidth_hz=b, d_h=dh, d_v=dv, c_ds=cds, c_asd=casd,
                c_zsd=czsd, wavelength=lam, m_min=1, m_max=10_000)
            # independent oracle, transcribed from the ceiling formulas
            o_mt = int(np.ceil(4 * 0.5 * cds * b))
            o_aod = int(np.ceil(4 * 0.5 * casd * np.pi * dh / (180 * lam)))
            o_zod = int(np.ceil(4 * 0.5 * czsd * np.pi * dv / (180 * lam)))
            o_m = min(max(o_mt * o_aod * o_zod, 1), 10_000)
            ok &= (mt, maod, mzod, m) == (o_mt, o_aod, o_zod, o_m)
        _report("ray-count integer formulas (20-case grid)", ok, "")

    def test_clamping(self):
        from fr3sim.coefficients import ray_count
        tiny = dict(bandwidth_hz=1e6, d_h=0.01, d_v=0.01, c_ds=0.5e-9,
                    c_asd=1, c_zsd=1, wavelength=0.05)
        big = dict(bandwidth_hz=4e9, d_h=2, d_v=2, c_ds=50e-9, c_asd=15,
                   c_zsd=15, wavelength=0.0125, m_min=3, m_max=40)
        ok = ray_count(**tiny)[0] == 20 and ray_count(**big)[0] == 40
        _report("ray-count clamps at M_min / M_max (default M_min=20)", ok, "")

    def test_frequency_ordering_fixed_aperture(self):
        from fr3sim.coefficients import ray_count
        uma = REG.scenario("UMa")
        ms = []
        for fc in (6.0, 9.0, 24.0):
            ssp = uma.ssp("los", fc)
            lam = C_LIGHT / (fc * 1e9)
            ms.append(ray_count(bandwidth_hz=2e8, d_h=0.13, d_v=1.49,
                                c_ds=ssp["c_ds"], c_asd=ssp["c_asd"],
                                c_zsd=ssp["c_zsd"], wavelength=lam,
                                m_min=3, m_max=40)[0])
        ok = ms[0] <= ms[1] <= ms[2]
        _report("M non-decreasing 6 -> 24 GHz at fixed aperture", ok,
                f"M = {ms} (paper's 4/6/16 relies on unpublished spreads)")


# --------------------------------------------------------------------------
# Criterion 8: determinism across workers, < 5 min
# --------------------------------------------------------------------------

class TestDeterminism:
    def test_byte_identical_links_csv(self, tmp_path):
        scenarios = (
            dict(scenario="UMi", layout="disc", deploy_radius=80.0),
            dict(scenario="InH", layout="indoor"),
            dict(scenario="SMa", layout="disc", deploy_radius=300.0),
        )
        ok = True
        for si, base in enumerate(scenarios):
            blobs = []
            for workers in (1, 2, 8):
                out = tmp_path / f"det_{si}_{workers}"
                cfg = RunConfig(n_ues=40, seed=77, bs_rows=4, bs_cols=2,
                                workers=workers, absolute_delay=True,
                                out_dir=str(out), **base)
                run(cfg)
                blobs.append((out / "links.csv").read_bytes())
            ok &= blobs[0] == blobs[1] == blobs[2]
        _report("byte-identical links.csv across 1/2/8 workers, 3 scenarios",
                ok, "")
