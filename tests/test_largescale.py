import numpy as np
import pytest

from fr3sim.geometry import LinkGeometry
from fr3sim.largescale import (C_LIGHT, _pl1_rma, breakpoint_distance,
                               correlated_standard_normals,
                               lsps_from_standardized, material_loss,
                               ValidityWarning, matrix_sqrt_psd,
                               o2i_penetration, path_loss)
from fr3sim.scenario import PropagationState, load_parameter_tables

REG = load_parameter_tables()
SMA = REG.scenario("SMa")


def geom(d2d, h_bs=35.0, h_ue=1.5):
    return LinkGeometry(d2d=d2d, d3d=float(np.hypot(d2d, h_bs - h_ue)),
                        h_bs=h_bs, h_ue=h_ue, aod_az=0, aoa_az=180,
                        zod=100, zoa=80)


LOS_STATE = PropagationState("LOS", "outdoor")
NLOS_STATE = PropagationState("NLOS", "outdoor")


def oracle_pl1(d3d, fc, h):
    # independent transcription of the dual-slope near-branch closed form
    return (20 * np.log10(40 * np.pi * d3d * fc / 3)
            + min(0.03 * h ** 1.72, 10) * np.log10(d3d)
            - min(0.044 * h ** 1.72, 14.77) + 0.002 * np.log10(h) * d3d)


def oracle_nlos(d3d, fc, w, h, h_bs, h_ue):
    return (161.04 - 7.1 * np.log10(w) + 7.5 * np.log10(h)
            - (24.37 - 3.7 * (h / h_bs) ** 2) * np.log10(h_bs)
            + (43.42 - 3.1 * np.log10(h_bs)) * (np.log10(d3d) - 3)
            + 20 * np.log10(fc)
            - (3.2 * (np.log10(11.75 * h_ue)) ** 2 - 4.97))


class TestPathLoss:
    def test_breakpoint_reference(self):
        dbp = breakpoint_distance("rma_dual", 35.0, 1.5, 7.0)
        assert dbp == pytest.approx(2 * np.pi * 35 * 1.5 * 7e9 / 3e8, rel=1e-12)
        assert dbp == pytest.approx(7696.9, abs=0.05)

    def test_sma_los_reference(self):
        g = LinkGeometry(d2d=100.0, d3d=100.0, h_bs=35, h_ue=1.5,
                         aod_az=0, aoa_az=180, zod=100, zoa=80)
        pl = path_loss(SMA, g, LOS_STATE, 7.0)
        assert pl == pytest.approx(oracle_pl1(100, 7, 10), rel=1e-12)
        assert pl == pytest.approx(90.39, abs=0.01)

    def test_sma_nlos_reference(self):
        g = LinkGeometry(d2d=1000.0, d3d=1000.0, h_bs=35, h_ue=1.5,
                         aod_az=0, aoa_az=180, zod=100, zoa=80)
        pl = path_loss(SMA, g, NLOS_STATE, 7.0)
        assert pl == pytest.approx(oracle_nlos(1000, 7, 10, 10, 35, 1.5), rel=1e-12)
        assert pl == pytest.approx(141.18, abs=0.01)

    @pytest.mark.filterwarnings("ignore::fr3sim.largescale.ValidityWarning")
    def test_dual_slope_continuity(self):
        # the far branch evaluated at the breakpoint equals the near branch
        dbp = breakpoint_distance("rma_dual", 35.0, 1.5, 7.0)
        pl2_at_bp = _pl1_rma(dbp, 7.0, 10.0) + 40 * np.log10(dbp / dbp)
        assert abs(pl2_at_bp - _pl1_rma(dbp, 7.0, 10.0)) < 1e-9
        # and the piecewise function itself is continuous at the switch
        lo = path_loss(SMA, geom(dbp - 1e-3), LOS_STATE, 7.0)
        hi = path_loss(SMA, geom(dbp + 1e-3), LOS_STATE, 7.0)
        assert abs(hi - lo) < 1e-3

    def test_monotone_in_distance(self):
        for name, sc in REG.scenarios.items():
            d_min = sc.value("pl_d2d_min") + 1
            d_max = min(sc.value("pl_d2d_max"), 5000)
            h_bs = sc.value("h_bs_default")
            for state in (LOS_STATE, NLOS_STATE):
                ds = np.linspace(d_min, d_max, 400)
                pls = [path_loss(sc, geom(d, h_bs=h_bs), state, 7.0) for d in ds]
                assert np.all(np.diff(pls) > -1e-9), (name, state.los)

    def test_validity_warning(self):
        import warnings
        g = geom(6000.0)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            path_loss(SMA, g, LOS_STATE, 7.0)
        assert [str(w.message) for w in rec] == [
            "SMa: 1 of 1 links have d2D outside [10.0, 5000.0] m; extrapolated"]

    def test_one_validity_warning_per_call(self):
        import warnings
        inh = REG.scenario("InH")
        d2d = np.concatenate([np.linspace(0.1, 0.9, 16),
                              np.linspace(1.0, 150.0, 44)])
        g = LinkGeometry(d2d=d2d, d3d=np.hypot(d2d, 1.5), h_bs=np.full(60, 3.0),
                         h_ue=np.full(60, 1.5), aod_az=np.zeros(60),
                         aoa_az=np.zeros(60), zod=np.zeros(60),
                         zoa=np.zeros(60))
        state = PropagationState(np.full(60, "LOS"), np.full(60, "outdoor"))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            pl = path_loss(inh, g, state, 7.0)
        assert pl.shape == (60,)
        msg = "InH: 16 of 60 links have d2D outside [1.0, 150.0] m; extrapolated"
        assert [(w.category, str(w.message)) for w in rec] == \
            [(ValidityWarning, msg)]

    def test_nonpositive_distance(self):
        g = LinkGeometry(d2d=0, d3d=0, h_bs=35, h_ue=1.5, aod_az=0,
                         aoa_az=0, zod=90, zoa=90)
        with pytest.raises(ValueError):
            path_loss(SMA, g, LOS_STATE, 7.0)


class TestMaterialLoss:
    def test_plywood(self):
        assert material_loss(REG.materials, "plywood", 10.0) == pytest.approx(2.73, abs=1e-12)
        assert material_loss(REG.materials, "plywood", 24.0) == pytest.approx(5.11, abs=1e-12)

    def test_concrete_exceeds_wood(self):
        for fc in np.linspace(0.5, 100, 60):
            assert material_loss(REG.materials, "concrete", fc) > \
                material_loss(REG.materials, "wood", fc)

    def test_unknown_material(self):
        with pytest.raises(ValueError):
            material_loss(REG.materials, "cardboard", 7.0)


class TestO2I:
    def test_zero_depth(self):
        rng = np.random.default_rng(0)
        _tw, pl_in, _r = o2i_penetration(REG.materials, "low", 7.0, 0.0, rng)
        assert pl_in == 0.0

    def test_low_model_weights(self):
        rng = np.random.default_rng(1)
        tw, _, _ = o2i_penetration(REG.materials, "low", 10.0, 5.0, rng)
        l_glass = 2.0 + 0.2 * 10
        l_conc = 5.0 + 4.0 * 10
        expect = 5 - 10 * np.log10(0.3 * 10 ** (-l_glass / 10) + 0.7 * 10 ** (-l_conc / 10))
        assert tw == pytest.approx(expect, rel=1e-12)

    def test_low_a_uses_plywood(self):
        rng = np.random.default_rng(2)
        tw, _, _ = o2i_penetration(REG.materials, "low-A", 10.0, 5.0, rng)
        l_glass = 2.0 + 0.2 * 10
        l_ply = 1.03 + 0.17 * 10
        expect = 5 - 10 * np.log10(0.3 * 10 ** (-l_glass / 10) + 0.7 * 10 ** (-l_ply / 10))
        assert tw == pytest.approx(expect, rel=1e-12)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            o2i_penetration(REG.materials, "medium", 7.0, 1.0,
                            np.random.default_rng(0))


class Uncorrelated:
    """A scenario's correlation distances with the LSP cross-correlation
    switched off, so the sampler returns the raw per-LSP fields."""

    def __init__(self, sc):
        self.sc = sc

    def correlation_distances(self, state):
        return self.sc.correlation_distances(state)

    def cross_correlation(self, state):
        _c, names = self.sc.cross_correlation(state)
        return np.eye(len(names)), names


def isolated_clusters(offsets, n, spacing=1e5):
    """n copies of the (k, 2) offset pattern on a square lattice `spacing`
    apart, so each copy is an independent realization of the field at the
    pattern (a lattice keeps the sampler's product grid small)."""
    offsets = np.asarray(offsets, dtype=float)
    side = int(np.ceil(np.sqrt(n)))
    cell = np.arange(n)
    shift = spacing * np.column_stack([cell % side, cell // side])
    return (shift[:, None, :] + offsets[None, :, :]).reshape(-1, 2)


def pair_correlation(vals, k, a, b):
    """Ensemble correlation between pattern points a and b (k points per
    copy), per LSP column."""
    v = vals.reshape(-1, k, vals.shape[1])
    return np.array([np.corrcoef(v[:, a, j], v[:, b, j])[0, 1]
                     for j in range(vals.shape[1])])


class TestCorrelatedField:
    def test_identical_positions_identical_vectors(self):
        rng = np.random.default_rng(3)
        pos = np.array([[10.0, 20.0], [10.0, 20.0], [50.0, 60.0]])
        vals, _ = correlated_standard_normals(pos, SMA, "nlos", rng)
        assert np.array_equal(vals[0], vals[1])
        assert not np.allclose(vals[0], vals[2])

    def test_per_node_variance_over_ensembles(self):
        # fixed node, many independent realizations: variance within
        # [0.95, 1.05] after the cross-correlation transform
        rng = np.random.default_rng(4)
        pos = isolated_clusters([[0.0, 0.0], [5.0, 5.0]], 20000)
        vals, _ = correlated_standard_normals(pos, REG.scenario("InH"),
                                              "nlos", rng)
        v = np.var(vals.reshape(-1, 2, vals.shape[1]), axis=0)
        assert np.all((v > 0.95) & (v < 1.05))

    def test_autocorrelation_at_dcor(self):
        # correlation exp(-1) between points d_cor apart, along x and along
        # y, for every LSP of the state
        rng = np.random.default_rng(5)
        dcor = SMA.correlation_distances("los")
        for j, name in enumerate(dcor):
            d = dcor[name]
            pos = isolated_clusters([[0.0, 0.0], [d, 0.0], [0.0, d]], 20000)
            vals, names = correlated_standard_normals(pos, Uncorrelated(SMA),
                                                      "los", rng)
            assert names[j] == name
            for b in (1, 2):
                ac = pair_correlation(vals, 3, 0, b)[j]
                assert ac == pytest.approx(np.exp(-1), abs=0.05), (name, b)

    def test_diagonal_offset_is_separable(self):
        # exp(-(|dx| + |dy|) / d_cor) off the axes, not exp(-r / d_cor)
        rng = np.random.default_rng(8)
        inh = REG.scenario("InH")
        dcor = inh.correlation_distances("nlos")
        dx, dy = 4.0, 7.0
        pos = isolated_clusters([[0.0, 0.0], [dx, dy], [-dx, dy]], 40000)
        vals, names = correlated_standard_normals(pos, Uncorrelated(inh),
                                                  "nlos", rng)
        d = np.array([dcor[m] for m in names])
        expect = np.exp(-(dx + dy) / d)
        radial = np.exp(-np.hypot(dx, dy) / d)
        for b in (1, 2):
            ac = pair_correlation(vals, 3, 0, b)
            assert np.all(np.abs(ac - expect) < 0.05), (ac, expect)
            assert np.all(np.abs(ac - radial) > np.abs(ac - expect))

    def test_identity_cross_correlation(self):
        rng = np.random.default_rng(6)
        pos = isolated_clusters([[0.0, 0.0]], 2500)
        samples, _ = correlated_standard_normals(pos, Uncorrelated(SMA),
                                                 "nlos", rng)
        c = np.corrcoef(samples.T)
        off = c[~np.eye(6, dtype=bool)]
        assert np.max(np.abs(off)) < 0.08

    def test_matrix_sqrt_clamps(self):
        c = np.array([[1.0, 0.99, -0.99], [0.99, 1.0, 0.99], [-0.99, 0.99, 1.0]])
        import warnings
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            r = matrix_sqrt_psd(c)
        assert any("PSD" in str(w.message) for w in rec)
        assert np.allclose(np.sum(r ** 2, axis=1), 1.0)


LOS_NAMES = ("sf", "k", "ds", "asd", "asa", "zsd", "zsa")
NLOS_NAMES = ("sf", "ds", "asd", "asa", "zsd", "zsa")


class TestDrawLsps:
    def test_median_at_zero(self):
        st = PropagationState("LOS", "outdoor")
        lsp = lsps_from_standardized(np.zeros(7), LOS_NAMES, geom(100.0),
                                     SMA, st, 7.0)
        assert lsp.ds == pytest.approx(10 ** SMA.value("mu_lg_ds", "los", 7.0), rel=1e-12)
        assert lsp.k_db == pytest.approx(SMA.value("mu_k", "los"), rel=1e-12)
        assert lsp.sf_db == 0.0

    def test_angular_caps(self):
        st = PropagationState("NLOS", "outdoor")
        lsp = lsps_from_standardized(np.full(6, 8.0), NLOS_NAMES,
                                     geom(100.0), SMA, st, 7.0)
        assert lsp.asa <= 104.0 and lsp.asd <= 104.0
        assert lsp.zsa <= 52.0 and lsp.zsd <= 52.0

    def test_lgds_ensemble_mean(self):
        rng = np.random.default_rng(7)
        pos = rng.uniform(0, 300, size=(400, 2))
        vals, names = correlated_standard_normals(pos, SMA, "nlos", rng)
        st = PropagationState("NLOS", "outdoor")
        mu = SMA.value("mu_lg_ds", "nlos", 7.0)
        lg = [np.log10(lsps_from_standardized(v, names, geom(200.0), SMA, st,
                                              7.0).ds) for v in vals]
        # spatially correlated samples, so allow a generous ensemble margin
        assert np.mean(lg) == pytest.approx(mu, abs=0.15)

    def test_sf_sigma_dual_slope(self):
        st = PropagationState("LOS", "outdoor")
        near = lsps_from_standardized(np.ones(7), LOS_NAMES, geom(100.0),
                                      SMA, st, 7.0)
        far = lsps_from_standardized(np.ones(7), LOS_NAMES, geom(8000.0),
                                     SMA, st, 7.0)
        assert near.sf_db == pytest.approx(4.0)
        assert far.sf_db == pytest.approx(6.0)
