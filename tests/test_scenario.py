import numpy as np
import pathlib
import pytest

from fr3sim.geometry import LinkGeometry
from fr3sim.scenario import (Entry, ParameterError, ScenarioParams,
                             assign_states, eval_expression,
                             load_parameter_tables, los_probability,
                             save_parameter_tables)

REG = load_parameter_tables()
SMA = REG.scenario("SMa")


def make_link(d2d, h_bs=35.0, h_ue=1.5):
    d3d = float(np.hypot(d2d, h_bs - h_ue))
    return LinkGeometry(d2d=d2d, d3d=d3d, h_bs=h_bs, h_ue=h_ue,
                        aod_az=0, aoa_az=180, zod=100, zoa=80)


def with_overrides(sc, **raw_by_param):
    entries = []
    for (param, state), e in sc.entries.items():
        if param in raw_by_param:
            e = Entry(param, state, raw_by_param[param], e.units, e.provenance)
        entries.append(e)
    return ScenarioParams(sc.name, entries)


class TestExpressions:
    def test_constant(self):
        assert eval_expression("2.4") == 2.4

    def test_fc_dependent(self):
        v = eval_expression("max(0.25, 6.5622 - 3.4084*log10(fc))", fc=7.0)
        assert v == pytest.approx(6.5622 - 3.4084 * np.log10(7.0), rel=1e-12)

    def test_fc_missing(self):
        with pytest.raises(ParameterError):
            eval_expression("1 + fc")

    def test_disallowed(self):
        with pytest.raises(ParameterError):
            eval_expression("__import__('os')")
        with pytest.raises(ParameterError):
            eval_expression("exp(3)")


class TestRegistry:
    def test_paper_values(self):
        assert SMA.value("r_tau", "los") == 2.4
        assert SMA.value("mu_xpr", "nlos") == 4.0
        assert SMA.value("sigma_xpr", "nlos") == 3.0
        assert SMA.value("n_clusters", "los") == 15

    def test_value_default_only_for_missing(self):
        assert SMA.value("r_tau", "los", default=9.0) == 2.4
        assert SMA.value("no_such_param", default=1.5) == 1.5
        with pytest.raises(ParameterError, match="no_such_param"):
            SMA.value("no_such_param")

    def test_missing_key_named(self):
        with pytest.raises(ParameterError, match="r_tau"):
            broken = ScenarioParams("X", [e for (p, s), e in SMA.entries.items()
                                          if p != "r_tau"])
            broken.ssp("los", 7.0)

    def test_malformed_file(self, tmp_path):
        src = tmp_path / "data"
        src.mkdir()
        for name in ("materials.params", "ue_masks.params", "angle_scaling.params"):
            (src / name).write_text("")
        (src / "bad.params").write_text("only\tthree\tcolumns\n")
        with pytest.raises(ParameterError, match="bad.params:1"):
            load_parameter_tables(src)

    def test_cross_correlation_symmetric_unit_diag(self):
        for name, sc in REG.scenarios.items():
            for state in ("los", "nlos"):
                c, names = sc.cross_correlation(state)
                assert np.allclose(c, c.T)
                assert np.allclose(np.diag(c), 1.0)
                assert ("k" in names) == (state == "los")

    def test_cluster_ranges_ordered(self):
        for sc in REG.scenarios.values():
            for state in ("los", "nlos"):
                d1, d2 = sc.cluster_range(state)
                assert d1 <= d2

    def test_save_load_round_trip(self, tmp_path):
        save_parameter_tables(REG, tmp_path)
        for name in ("materials.params", "ue_masks.params", "angle_scaling.params"):
            (tmp_path / name).write_bytes(
                (pathlib.Path(__file__).parent.parent / "src/fr3sim/data" / name).read_bytes())
        reg2 = load_parameter_tables(tmp_path)
        for name, sc in REG.scenarios.items():
            assert reg2.scenarios[name].entries == sc.entries
        save_parameter_tables(reg2, tmp_path / "again")
        for p in sorted((tmp_path / "again").iterdir()):
            assert p.read_bytes() == (tmp_path / p.name).read_bytes()


class TestLosProbability:
    def test_sma_short_distance(self):
        assert los_probability(SMA, 5.0) == 1.0
        assert los_probability(SMA, 10.0) == 1.0

    def test_zero_distance_all_scenarios(self):
        for sc in REG.scenarios.values():
            assert los_probability(sc, 0.0) == 1.0

    def test_monotone_non_increasing(self):
        d = np.linspace(0.0, 5000.0, 2500)
        for sc in REG.scenarios.values():
            p = np.array([los_probability(sc, x, 1.5) for x in d])
            assert np.all(np.diff(p) <= 1e-12)
            assert np.all((p >= 0) & (p <= 1))

    def test_negative_distance(self):
        with pytest.raises(ValueError):
            los_probability(SMA, -1.0)


class TestAssignStates:
    def test_indoor_ratio_zero(self):
        sc = with_overrides(SMA, indoor_ratio="0")
        rng = np.random.default_rng(0)
        links = [make_link(d) for d in np.linspace(40, 2000, 400)]
        states = assign_states(links, sc, rng)
        assert all(s.location != "indoor" for s in states)
        assert all(s.d2d_in == 0.0 for s in states)

    def test_indoor_fraction(self):
        rng = np.random.default_rng(1)
        links = [make_link(500.0)] * 20000
        states = assign_states(links, SMA, rng)
        frac = np.mean([s.location == "indoor" for s in states])
        assert abs(frac - 0.80) < 0.02

    def test_residential_d2d_in_mean(self):
        rng = np.random.default_rng(2)
        links = [make_link(500.0)] * 30000
        states = assign_states(links, SMA, rng)
        vals = [s.d2d_in for s in states if s.location == "indoor"]
        # residential dominates at 90 percent; oracle mean of the mixture:
        # 0.9 * 5 + 0.1 * 12.5
        assert np.mean(vals) == pytest.approx(0.9 * 5.0 + 0.1 * 12.5, rel=0.05)

    def test_outdoor_sma_is_in_car(self):
        rng = np.random.default_rng(3)
        links = [make_link(100.0)] * 200
        states = assign_states(links, SMA, rng)
        assert all(s.location in ("indoor", "car") for s in states)

    def test_force_flags(self):
        rng = np.random.default_rng(4)
        links = [make_link(3000.0)] * 50
        states = assign_states(links, SMA, rng, force_los="LOS",
                               force_location="outdoor")
        assert all(s.los == "LOS" and s.location == "outdoor" for s in states)

    def test_o2i_model_membership(self):
        rng = np.random.default_rng(5)
        links = [make_link(500.0)] * 2000
        states = assign_states(links, SMA, rng)
        models = {s.o2i_model for s in states if s.location == "indoor"}
        assert models <= {"low", "high", "low-A"}
        assert "low-A" in models
