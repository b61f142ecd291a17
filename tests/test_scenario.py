from dataclasses import fields

import numpy as np
import pathlib
import pytest

from fr3sim import harness, scenario
from fr3sim.geometry import LinkGeometry, build_hex_layout, drop_ues
from fr3sim.scenario import (Entry, ParameterError, ScenarioParams,
                             assign_states, eval_expression,
                             load_parameter_tables, los_probability)

REG = load_parameter_tables()
SMA = REG.scenario("SMa")


def write_canonical_tables(registry, outdir):
    """Write the registry's scenario tables back out in canonical (sorted)
    form, raw value strings verbatim."""
    outdir.mkdir(parents=True, exist_ok=True)
    for name, sc in registry.scenarios.items():
        lines = ["# fr3sim scenario parameter table",
                 "# parameter\tstate\tvalue\tunits\tprovenance"]
        for (param, state) in sorted(sc.entries):
            e = sc.entries[(param, state)]
            lines.append("\t".join([e.param, e.state, e.raw, e.units, e.provenance]))
        (outdir / f"{name.lower()}.params").write_text("\n".join(lines) + "\n")


def make_links(d2d, n=None, h_bs=35.0, h_ue=1.5):
    """LinkGeometry columns of links at 2D distances ``d2d`` (``n`` copies
    of one distance when given)."""
    d2d = np.full(n, d2d) if n is not None else np.asarray(d2d, dtype=float)
    h_bs, h_ue = np.full(d2d.shape, h_bs), np.full(d2d.shape, h_ue)
    return LinkGeometry(d2d=d2d, d3d=np.hypot(d2d, h_bs - h_ue), h_bs=h_bs,
                        h_ue=h_ue, aod_az=np.zeros(d2d.shape),
                        aoa_az=np.full(d2d.shape, 180.0),
                        zod=np.full(d2d.shape, 100.0),
                        zoa=np.full(d2d.shape, 80.0))


def sma_indoor(n, rng):
    """Indoor flags and building types with SMa's drop fractions."""
    indoor = rng.uniform(size=n) < SMA.value("indoor_ratio")
    commercial = rng.uniform(size=n) < SMA.value("commercial_fraction")
    return indoor, np.where(~indoor, "", np.where(commercial, "commercial",
                                                   "residential"))


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
        write_canonical_tables(REG, tmp_path)
        for name in ("materials.params", "ue_masks.params", "angle_scaling.params"):
            (tmp_path / name).write_bytes(
                (pathlib.Path(__file__).parent.parent / "src/fr3sim/data" / name).read_bytes())
        reg2 = load_parameter_tables(tmp_path)
        for name, sc in REG.scenarios.items():
            assert reg2.scenarios[name].entries == sc.entries
        write_canonical_tables(reg2, tmp_path / "again")
        for p in sorted((tmp_path / "again").iterdir()):
            assert p.read_bytes() == (tmp_path / p.name).read_bytes()


    def test_every_row_evaluates_across_fr3_and_beyond(self):
        for name, sc in REG.scenarios.items():
            for (param, state), e in sc.entries.items():
                if param in ("pl_family", "los_family"):
                    continue
                for fc in (0.5, 7.0, 15.0, 24.0, 100.0):
                    v = eval_expression(e.raw, fc=fc)
                    if param.startswith("sigma_"):
                        assert v >= 0, (name, param, state, fc)


def counted_evaluations(monkeypatch):
    """Route scenario.eval_expression through a counter; returns the count."""
    calls = [0]
    real = scenario.eval_expression

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(scenario, "eval_expression", counting)
    return calls


class TestOneLookup:
    @pytest.mark.parametrize("n_ues", [8, 40])
    def test_run_evaluates_each_row_once(self, tmp_path, monkeypatch, n_ues):
        reg = load_parameter_tables()
        calls = counted_evaluations(monkeypatch)

        def evaluations(out):
            calls[0] = 0
            harness.run(harness.load_config(overrides={
                "n_ues": n_ues, "out_dir": str(tmp_path / out)}), registry=reg)
            return calls[0]

        assert 0 < evaluations("a") < 100
        assert evaluations("b") == 0       # a repeat run on the same tables
        assert (tmp_path / "a" / "links.csv").read_bytes() == \
            (tmp_path / "b" / "links.csv").read_bytes()

    def test_memoized_value_per_fc(self):
        sc = load_parameter_tables().scenario("SMa")
        raw = sc.text("c_ds", "los")
        assert "fc" in raw
        for fc in (7.0, 24.0, 7.0):
            assert sc.value("c_ds", "los", fc) == eval_expression(raw, fc=fc)
        assert sc.value("c_ds", "los", 7.0) != sc.value("c_ds", "los", 24.0)

    def test_missing_row_raises_every_call(self, monkeypatch):
        sc = load_parameter_tables().scenario("SMa")
        calls = counted_evaluations(monkeypatch)
        for _ in range(3):
            with pytest.raises(ParameterError, match="no_such_param"):
                sc.value("no_such_param", "los", 7.0)
            assert sc.value("no_such_param", "los", 7.0, default=2.5) == 2.5
        assert calls[0] == 0

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
        drop = drop_ues(build_hex_layout(1299.0), 400, sc, rng)
        assert not drop.indoor.any() and np.all(drop.building == "")
        states = assign_states(make_links(np.linspace(40, 2000, 400)),
                               drop.indoor, drop.building, sc, rng)
        assert np.all(states.location != "indoor")
        assert np.all(states.d2d_in == 0.0)
        assert np.all(states.o2i_model == "none")

    def test_indoor_fraction(self):
        # the drop decides indoor; the states take it over link by link
        rng = np.random.default_rng(1)
        drop = drop_ues(build_hex_layout(1299.0), 20000, SMA, rng)
        states = assign_states(make_links(500.0, 20000), drop.indoor,
                               drop.building, SMA, rng)
        assert np.array_equal(states.location == "indoor", drop.indoor)
        assert abs(np.mean(states.location == "indoor") - 0.80) < 0.02

    def test_residential_d2d_in_mean(self):
        rng = np.random.default_rng(2)
        indoor, building = sma_indoor(30000, rng)
        states = assign_states(make_links(500.0, 30000), indoor, building,
                               SMA, rng)
        vals = states.d2d_in[states.location == "indoor"]
        # residential dominates at 90 percent; oracle mean of the mixture:
        # 0.9 * 5 + 0.1 * 12.5
        assert np.mean(vals) == pytest.approx(0.9 * 5.0 + 0.1 * 12.5, rel=0.05)
        assert vals.max() <= 25.0
        com = building[states.location == "indoor"] == "commercial"
        assert vals[~com].max() <= 10.0 < vals[com].max()

    def test_outdoor_sma_is_in_car(self):
        rng = np.random.default_rng(3)
        states = assign_states(make_links(100.0, 200), *sma_indoor(200, rng),
                               SMA, rng)
        assert set(states.location.tolist()) == {"indoor", "car"}

    def test_force_flags(self):
        rng = np.random.default_rng(4)
        states = assign_states(make_links(3000.0, 50), *sma_indoor(50, rng),
                               SMA, rng, force_los="LOS",
                               force_location="outdoor")
        assert np.all((states.los == "LOS") & (states.location == "outdoor"))
        assert np.all(states.state_key == "los")
        states = assign_states(make_links(3000.0, 50), np.zeros(50, bool),
                               np.full(50, ""), SMA, rng,
                               force_location="indoor")
        assert np.all(states.state_key == "o2i") and np.all(states.d2d_in > 0)

    def test_o2i_model_membership(self):
        rng = np.random.default_rng(5)
        states = assign_states(make_links(500.0, 2000), *sma_indoor(2000, rng),
                               SMA, rng)
        models = set(states.o2i_model[states.location == "indoor"].tolist())
        assert models <= {"low", "high", "low-A"}
        assert "low-A" in models

    def test_one_link_is_the_one_row_case(self):
        indoor, building = sma_indoor(40, np.random.default_rng(6))
        links = make_links(np.linspace(20.0, 3000.0, 40))
        states = assign_states(links, indoor, building, SMA,
                               np.random.default_rng(7))
        rng = np.random.default_rng(7)
        for u in range(40):
            one = assign_states(
                LinkGeometry(*(getattr(links, f.name)[u] for f in fields(links))),
                indoor[u], building[u], SMA, rng)
            assert one.state_key == states.state_key[u]
            for f in fields(one):
                assert getattr(one, f.name) == getattr(states, f.name)[u]
