import argparse
import concurrent.futures
import configparser
import csv
import functools
import hashlib
import numpy as np
import os
import pathlib
import subprocess
import sys
from dataclasses import fields

import pytest

from fr3sim import cli, harness
from fr3sim.cli import _build_parser, main as cli_main
from fr3sim.coefficients import ChannelRealization, read_cir
from fr3sim.geometry import (Orientation, SiteLayout, build_disc_layout,
                             build_hex_layout, build_indoor_layout,
                             effective_ue_position, vec3)
from fr3sim.harness import (ConfigError, RunConfig, capacity, coupling_loss,
                            emit_cdf, gini, load_config, run)
from setup_reference import serve_one


def tiny_cfg(out_dir, **kw):
    base = dict(scenario="UMi", layout="disc", deploy_radius=60.0, n_ues=6,
                seed=11, bs_rows=4, bs_cols=2, bs_pol=2,
                out_dir=str(out_dir))
    base.update(kw)
    return RunConfig(**base)


def siso_channel(amp=1.0):
    g = np.full((1, 1, 1, 1), amp, dtype=complex)    # (n_taps, U, S, T)
    return ChannelRealization(fc_ghz=7.0,
                              delays=np.array([0.0]), gains=g)


class TestCapacity:
    def test_zero_channel(self):
        assert capacity(np.zeros((2, 4)), 10.0) == 0.0

    def test_siso_reference(self):
        c = capacity(np.array([[1.0 + 0j]]), 10.0)
        assert c == pytest.approx(np.log2(11.0), rel=1e-12)
        assert c == pytest.approx(3.459, abs=0.001)

    def test_rank_one_equals_siso_formula(self):
        rng = np.random.default_rng(0)
        u_vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        v_vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        h = np.outer(u_vec, v_vec)
        snr = 10.0
        gain = np.linalg.norm(h, "fro") ** 2 / h.shape[1]
        expect = np.log2(1 + 10 ** (snr / 10) * gain)
        assert capacity(h, snr) == pytest.approx(expect, rel=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            capacity(np.array([[np.inf]]), 10.0)


class TestCouplingLoss:
    def test_unit_siso_with_pathloss(self):
        assert coupling_loss(siso_channel(), 100.0) == pytest.approx(100.0, abs=1e-12)

    def test_zero_energy(self):
        with pytest.raises(ValueError):
            coupling_loss(siso_channel(0.0))


class TestGini:
    def test_equal_powers(self):
        assert gini(np.ones(30)) == pytest.approx(0.0, abs=1e-15)

    def test_single_nonzero(self):
        for n in (2, 5, 50):
            p = np.zeros(n)
            p[0] = 3.0
            assert gini(p) == pytest.approx((n - 1) / n, rel=1e-12)

    def test_sparsity_shift_when_rays_drop(self):
        # links measured on a fixed 20-ray-per-cluster resolution grid:
        # populating only 3 rays per cluster shifts the Gini CDF up
        rng = np.random.default_rng(1)
        medians = {}
        for m in (20, 3):
            vals = []
            for _ in range(300):
                p = rng.dirichlet(np.ones(10))
                grid = np.zeros((10, 20))
                grid[:, :m] = (p / m)[:, None]
                vals.append(gini(grid.reshape(-1)))
            medians[m] = np.median(vals)
        assert medians[3] > medians[20]

    def test_invalid(self):
        with pytest.raises(ValueError):
            gini(np.zeros(4))
        with pytest.raises(ValueError):
            gini([])


class TestEmitCdf:
    def test_basic_rows(self, tmp_path):
        path = tmp_path / "c.csv"
        emit_cdf([3.0, 1.0, 2.0], path)
        rows = path.read_text().strip().splitlines()[1:]
        assert rows == ["1,0.333333333", "2,0.666666667", "3,1"]

    def test_duplicates_collapse(self, tmp_path):
        path = tmp_path / "c.csv"
        emit_cdf([1.0, 1.0, 2.0], path)
        rows = path.read_text().strip().splitlines()[1:]
        assert rows == ["1,0.666666667", "2,1"]

    def test_values_that_print_the_same_collapse(self, tmp_path):
        # equal at 9 significant digits: one row, with the larger CDF, so
        # the printed values strictly increase
        path = tmp_path / "c.csv"
        emit_cdf([2.0000000001, 2.0000000002, 3.0], path)
        rows = path.read_text().strip().splitlines()[1:]
        assert rows == ["2,0.666666667", "3,1"]
        emit_cdf([0.0, -0.0, 1.0], path)
        rows = path.read_text().strip().splitlines()[1:]
        assert rows == ["0,0.666666667", "1,1"]

    def test_row_count_bounded(self, tmp_path):
        rng = np.random.default_rng(2)
        vals = rng.integers(0, 50, 200).astype(float)
        path = tmp_path / "c.csv"
        emit_cdf(vals, path)
        assert len(path.read_text().strip().splitlines()) - 1 <= 200

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_cdf([], tmp_path / "c.csv")


class TestRun:
    def test_artifacts_and_determinism(self, tmp_path):
        r1 = run(tiny_cfg(tmp_path / "a"))
        r2 = run(tiny_cfg(tmp_path / "b"))
        assert len(r1) == 6
        csv_a = (tmp_path / "a" / "links.csv").read_bytes()
        csv_b = (tmp_path / "b" / "links.csv").read_bytes()
        assert csv_a == csv_b
        for name in ("links.csv", "cdf_coupling_loss.csv", "cdf_capacity.csv",
                     "cdf_ds.csv", "cdf_gini.csv", "manifest.txt"):
            assert (tmp_path / "a" / name).exists()

    def test_manifest_records_all_data_files(self, tmp_path):
        run(tiny_cfg(tmp_path / "m"))
        text = (tmp_path / "m" / "manifest.txt").read_text()
        for name in ("sma.params", "uma.params", "umi.params", "inh.params",
                     "rma.params", "materials.params", "ue_masks.params",
                     "angle_scaling.params"):
            assert f"data {name} sha256" in text
        assert "config seed = 11" in text

    def test_manifest_records_the_blas(self, tmp_path, monkeypatch):
        # one blas line: numpy's version, its BLAS and the OpenBLAS kernel,
        # or unknown where the kernel cannot be read; links.csv is the same
        run(tiny_cfg(tmp_path / "a"))
        lines = (tmp_path / "a" / "manifest.txt").read_text().splitlines()
        blas = [line for line in lines if line.startswith("blas ")]
        assert blas == [harness.blas_record()]
        words = blas[0].split()
        assert words[:3] == ["blas", "numpy", np.__version__]
        assert words[-2] == "core" and words[-1]

        def no_library(_path):
            raise OSError("no such library")

        monkeypatch.setattr(harness.ctypes, "CDLL", no_library)
        assert harness.blas_record().endswith(" core unknown")
        run(tiny_cfg(tmp_path / "b"))
        assert (tmp_path / "b" / "links.csv").read_bytes() == (
            tmp_path / "a" / "links.csv").read_bytes()
        other = (tmp_path / "b" / "manifest.txt").read_text().splitlines()
        assert [line for line in other if line.startswith("blas ")] == [
            " ".join(words[:-1] + ["unknown"])]

    def test_near_field_changes_capacity_not_pl(self, tmp_path):
        base = run(tiny_cfg(tmp_path / "ff", near_field=False, force_state="LOS"))
        nf = run(tiny_cfg(tmp_path / "nf", near_field=True, force_state="LOS"))
        pl_a = [r.pl_db for r in base]
        pl_b = [r.pl_db for r in nf]
        assert pl_a == pl_b
        assert [r.ds_s for r in base] == [r.ds_s for r in nf]
        assert any(abs(a.capacity_bps_hz - b.capacity_bps_hz) > 1e-9
                   for a, b in zip(base, nf))

    def test_sns_non_decreasing_coupling_loss(self, tmp_path):
        base = run(tiny_cfg(tmp_path / "s0", sns="off"))
        sns = run(tiny_cfg(tmp_path / "s1", sns="stochastic"))
        for a, b in zip(base, sns):
            assert b.coupling_loss_db >= a.coupling_loss_db - 1e-9

    def test_pol_variability_keeps_delays_angles(self, tmp_path):
        a = run(tiny_cfg(tmp_path / "p0", pol_variability=False))
        b = run(tiny_cfg(tmp_path / "p1", pol_variability=True))
        assert [r.ds_s for r in a] == [r.ds_s for r in b]
        assert [r.asa_deg for r in a] == [r.asa_deg for r in b]
        assert any(abs(x.capacity_bps_hz - y.capacity_bps_hz) > 1e-12
                   for x, y in zip(a, b))

    def test_free_space_mask_matches_ue_sns_off(self, tmp_path):
        off = run(tiny_cfg(tmp_path / "u0", ue_sns=False))
        free = run(tiny_cfg(tmp_path / "u1", ue_sns=True, ue_usage="free"))
        assert [r.coupling_loss_db for r in off] == \
            [r.coupling_loss_db for r in free]
        grip = run(tiny_cfg(tmp_path / "u2", ue_sns=True, ue_usage="two-hand"))
        assert all(g.coupling_loss_db > o.coupling_loss_db
                   for g, o in zip(grip, off))

    def test_workers_byte_identical(self, tmp_path):
        run(tiny_cfg(tmp_path / "w1", workers=1, n_ues=8))
        run(tiny_cfg(tmp_path / "w2", workers=2, n_ues=8))
        assert (tmp_path / "w1" / "links.csv").read_bytes() == \
            (tmp_path / "w2" / "links.csv").read_bytes()

    def test_cir_files_same_for_any_worker_count(self, tmp_path):
        # an 8 x 4 x 2 near-field CIR run with SNS and two time samples:
        # every link reuses its process's scratch buffers, which one worker
        # and two workers fill in different link orders.  The drop has a
        # link with more rays before a smaller one, so stale contents left
        # by the larger link would show in the smaller link's file.
        kw = dict(bs_rows=8, bs_cols=4, emit_cir=True, near_field=True,
                  sns="stochastic", t_count=2)
        reports = run(tiny_cfg(tmp_path / "w1", workers=1, **kw))
        run(tiny_cfg(tmp_path / "w2", workers=2, **kw))
        rays = [r.n_clusters * r.m_rays for r in reports]
        assert any(a > b for a, b in zip(rays, rays[1:]))
        names = [f"link_{i:06d}.cir" for i in range(len(reports))]
        for name in names:
            assert ((tmp_path / "w1" / "cir" / name).read_bytes()
                    == (tmp_path / "w2" / "cir" / name).read_bytes()), name
        assert sorted(p.name for p in (tmp_path / "w2" / "cir").iterdir()) \
            == names

    def test_pool_no_larger_than_its_chunks(self, tmp_path, monkeypatch):
        # a process pool starts all its workers at the first submit; this
        # in-process stand-in records how many a 3-link run with 8 workers
        # asks for, and runs the chunks itself
        started = []

        class InProcessPool:
            def __init__(self, *, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, arg):
                fut = concurrent.futures.Future()
                fut.set_result(fn(arg))
                return fut

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(harness, "_worker_ctx", None)
        run(tiny_cfg(tmp_path / "w8", workers=8, n_ues=3))
        run(tiny_cfg(tmp_path / "w1", workers=1, n_ues=3))
        assert started == [3]
        assert (tmp_path / "w8" / "links.csv").read_bytes() == \
            (tmp_path / "w1" / "links.csv").read_bytes()

    def test_pool_workers_keep_their_context(self, tmp_path, monkeypatch):
        # each pool worker gets the run's WorkerContext once, through the
        # pool initializer, and keeps it for its life: no worker unpickles a
        # context twice, where a context sent with each of the 8 chunks
        # would be unpickled 8 times over the 2 workers
        log = tmp_path / "context.log"

        def logged(event):
            with open(log, "a") as f:
                f.write(f"{event} {os.getpid()}\n")

        def setstate(ctx, state):
            logged("unpickle")
            ctx.__dict__.update(state)

        def log_calls(name, event):
            # the pool pickles the submitted function by its module name
            real = getattr(harness, name)

            @functools.wraps(real)
            def wrapper(arg):
                logged(event)
                return real(arg)

            monkeypatch.setattr(harness, name, wrapper)

        monkeypatch.setattr(harness.WorkerContext, "__setstate__", setstate,
                            raising=False)
        log_calls("_init_worker", "init")
        log_calls("_worker_chunk", "chunk")
        run(tiny_cfg(tmp_path / "out", workers=2, n_ues=16))
        events = {}
        for line in log.read_text().splitlines():
            event, pid = line.split()
            events.setdefault(event, []).append(int(pid))
        assert len(events["chunk"]) == 8
        assert os.getpid() not in events["chunk"]
        assert sorted(events["init"]) == sorted(set(events["chunk"]))
        unpickled = events.get("unpickle", [])
        assert len(unpickled) == len(set(unpickled)) <= 2

    @pytest.mark.parametrize("workers, n_ues", [(1, 1), (1, 9), (2, 2), (2, 9)])
    def test_arrays_mounted_once_per_run(self, tmp_path, monkeypatch,
                                         workers, n_ues):
        # set-up mounts one BS array per layout sector and one UE device; a
        # link places copies, so no link, in any process, mounts again
        log = tmp_path / "mounts.log"

        def log_calls(owner, name):
            real = getattr(owner, name)

            def logged(*args, **kwargs):
                with open(log, "a") as f:
                    f.write(f"{name} {os.getpid()}\n")
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, logged)

        log_calls(harness, "mount_bs_array")
        log_calls(harness, "mount_ue_device")
        reports = run(RunConfig(n_ues=n_ues, seed=4, bs_rows=2, bs_cols=2,
                                workers=workers, out_dir=str(tmp_path / "out")))
        assert len(reports) == n_ues
        pid = os.getpid()
        assert sorted(log.read_text().splitlines()) == sorted(
            [f"mount_bs_array {pid}"] * 3 + [f"mount_ue_device {pid}"])

    def test_no_link_builds_a_rotation(self, tmp_path, monkeypatch):
        # the mounts build every rotation a run needs in set-up, in the
        # parent; a link's fields and its SNS site projection read the
        # mounted frames, so the count does not grow with the links
        log = tmp_path / "rotations.log"
        real = Orientation.rotation

        def logged(self):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            return real(self)

        monkeypatch.setattr(Orientation, "rotation", logged)
        counts = []
        for workers, n_ues in [(1, 2), (1, 6), (2, 2), (2, 6)]:
            log.write_text("")
            reports = run(RunConfig(n_ues=n_ues, seed=4, bs_rows=2, bs_cols=2,
                                    sns="stochastic", workers=workers,
                                    out_dir=str(tmp_path / "out")))
            assert len(reports) == n_ues
            pids = log.read_text().split()
            assert set(pids) == {str(os.getpid())}
            counts.append(len(pids))
        assert len(set(counts)) == 1

    def test_emit_cir(self, tmp_path):
        run(tiny_cfg(tmp_path / "c", emit_cir=True, n_ues=2))
        cirs = sorted((tmp_path / "c" / "cir").iterdir())
        assert len(cirs) == 2
        from fr3sim.coefficients import read_cir
        h = read_cir(cirs[0])
        assert h.n_taps >= 1

    @pytest.mark.parametrize("kw", [
        {}, dict(near_field=True, force_state="LOS", sns="stochastic",
                 t_count=2)], ids=["umi", "los-near-sns-t2"])
    def test_links_csv_same_with_and_without_cir(self, tmp_path, kw):
        # the metrics come from the tap loop's sums whether or not the run
        # also keeps the taps for its CIR files
        for emit in (True, False):
            run(tiny_cfg(tmp_path / f"cir-{emit}", emit_cir=emit, **kw))
        assert ((tmp_path / "cir-True" / "links.csv").read_bytes()
                == (tmp_path / "cir-False" / "links.csv").read_bytes())

    @pytest.mark.parametrize("kw, locations", [
        (dict(scenario="SMa", n_ues=8), {"indoor", "car"}),
        (dict(scenario="UMi", layout="disc", deploy_radius=60.0, n_ues=6),
         {"outdoor"})], ids=["sma-indoor-car", "umi-outdoor"])
    def test_cir_files_carry_the_links_csv_loss(self, tmp_path, monkeypatch,
                                                kw, locations):
        # each CIR file is scaled by the loss links.csv reports: its
        # element-averaged energy at t = 0 gives the link's coupling loss,
        # and that is pl_db + sf_db plus the small-scale loss, -10 log10 of
        # the energy of the synthesized channel
        small_db = []

        def recording(h, loss_db=0.0):
            small_db.append(-10.0 * np.log10(np.mean(h.tap_energy)))
            return coupling_loss(h, loss_db)

        monkeypatch.setattr(harness, "coupling_loss", recording)
        run(RunConfig(seed=3, bs_rows=4, bs_cols=2, emit_cir=True, t_count=2,
                      out_dir=str(tmp_path), **kw))
        with open(tmp_path / "links.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert locations <= {r["state"].split("/")[1] for r in rows}
        assert len(small_db) == len(rows)
        for r, ss_db in zip(rows, small_db):
            name = f"link_{int(r['link_id']):06d}.cir"
            g = read_cir(tmp_path / "cir" / name).gains
            cir_db = -10.0 * np.log10(np.mean(np.sum(np.abs(g[..., 0]) ** 2,
                                                     axis=0)))
            assert cir_db == pytest.approx(float(r["coupling_loss_db"]),
                                           abs=1e-5)
            assert cir_db == pytest.approx(
                float(r["pl_db"]) + float(r["sf_db"]) + ss_db, abs=1e-5)

    def test_no_stale_cir_files(self, tmp_path):
        # a 2-UE run after a 4-UE one, then a run without CIR output, in
        # one out_dir: no CIR file of an earlier run is left behind, nor
        # the half-written file of a link that a killed run was writing
        def cir_files():
            return sorted(p.name for p in (tmp_path / "cir").iterdir())

        run(tiny_cfg(tmp_path, emit_cir=True, n_ues=4))
        assert cir_files() == [f"link_{i:06d}.cir" for i in range(4)]
        (tmp_path / "cir" / ".tmp-link_000004.cir").write_bytes(b"FR3CIR1")
        run(tiny_cfg(tmp_path, emit_cir=True, n_ues=2))
        assert cir_files() == [f"link_{i:06d}.cir" for i in range(2)]
        run(tiny_cfg(tmp_path, n_ues=2))
        assert cir_files() == []
        assert "config emit_cir = False" in (
            tmp_path / "manifest.txt").read_text().splitlines()

    def test_failed_run_leaves_no_stale_manifest(self, tmp_path, monkeypatch):
        def manifest_matches():
            digest = hashlib.sha256(
                (tmp_path / "links.csv").read_bytes()).hexdigest()
            return (f"output links.csv sha256 {digest}"
                    in (tmp_path / "manifest.txt").read_text().splitlines())

        run(tiny_cfg(tmp_path))
        real_cdf, calls = harness.emit_cdf, []

        def failing_cdf(*args):
            calls.append(args)
            if len(calls) == 2:
                raise OSError("disk full")
            return real_cdf(*args)

        monkeypatch.setattr(harness, "emit_cdf", failing_cdf)
        with pytest.raises(OSError):
            run(tiny_cfg(tmp_path, seed=12))
        assert not (tmp_path / "manifest.txt").exists() or manifest_matches()
        monkeypatch.setattr(harness, "emit_cdf", real_cdf)
        run(tiny_cfg(tmp_path, seed=12))
        assert manifest_matches()
        assert not list(tmp_path.glob(".tmp-*"))

    def test_lsps_keyed_on_wrapped_position(self, tmp_path, monkeypatch):
        # moving a UE's drop position by a wrap-lattice vector leaves its
        # serving image, and so every standardized LSP vector, unchanged
        real_drop = harness.drop_ues
        real_field = harness.correlated_standard_normals

        def sampled(name, shift):
            vectors = []

            def drop(layout, count, sc, rng):
                ues = real_drop(layout, count, sc, rng)
                ues.positions[0] += shift(layout.wrap_vectors)
                return ues

            def field(*args):
                vals, names = real_field(*args)
                vectors.append(vals)
                return vals, names

            monkeypatch.setattr(harness, "drop_ues", drop)
            monkeypatch.setattr(harness, "correlated_standard_normals", field)
            run(RunConfig(n_ues=5, seed=4, bs_rows=2, bs_cols=2,
                          out_dir=str(tmp_path / name)))
            return vectors

        base = sampled("base", lambda w: 0.0)
        moved = sampled("moved", lambda w: w[0] - 2.0 * w[3])
        assert len(base) == len(moved)
        for a, b in zip(base, moved):
            assert np.allclose(a, b, rtol=0.0, atol=1e-9)


SERVE_LAYOUTS = {
    **{f"hex-{isd:g}": build_hex_layout(isd, h_bs=h)
       for isd, h in ((1299.0, 35.0), (500.0, 25.0), (200.0, 10.0),
                      (1732.0, 35.0))},
    "indoor": build_indoor_layout(120.0, 50.0, 12, 3.0),
    "disc": build_disc_layout(100.0, 10.0, Orientation(30.0, 10.0, 0.0)),
}


class TestServe:
    @pytest.mark.parametrize("name", sorted(SERVE_LAYOUTS))
    def test_matches_scalar_oracle(self, name):
        layout = SERVE_LAYOUTS[name]
        rng = np.random.default_rng(len(name))
        kind, *region = layout.drop_region
        if kind == "disc":
            cx, cy, r = region
            region = [cx - r, cx + r, cy - r, cy + r]
        x0, x1, y0, y1 = region
        # three times the drop region's extent, so that hex UEs need wrapping
        pos = np.column_stack([rng.uniform(2 * x0 - x1, 2 * x1 - x0, 60),
                               rng.uniform(2 * y0 - y1, 2 * y1 - y0, 60),
                               rng.choice([1.5, 4.5, 22.5], 60)])
        sites, sectors, eff, geom = harness._serve(layout, pos)
        assert eff.shape == (60, 3)
        for u, p in enumerate(pos):
            si, sec, e, g = serve_one(layout, p)
            assert (sites[u], sectors[u]) == (si, sec)
            assert np.array_equal(eff[u], e)
            for f in fields(g):
                assert getattr(geom, f.name)[u] == getattr(g, f.name), f.name

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0)])
    def test_equidistant_sites_first_wins(self, order):
        xs = [(-100.0, 0.0), (100.0, 0.0), (900.0, 0.0)]
        layout = SiteLayout(np.array([vec3(*xs[i], 10.0) for i in order]),
                            (Orientation(0.0, 0.0, 0.0),), 0.0)
        sites, *_ = harness._serve(layout, np.array([vec3(0.0, 50.0, 1.5)]))
        assert sites.tolist() == [min(order.index(0), order.index(1))]

    def test_blocks_match_one_call(self, monkeypatch):
        # serving in blocks of 7 UEs gives the bits of one broadcast call
        # over all 60, with one wrap call per block
        layout = SERVE_LAYOUTS["hex-500"]
        rng = np.random.default_rng(3)
        pos = np.column_stack([rng.uniform(-3000.0, 3000.0, (60, 2)),
                               rng.choice([1.5, 4.5, 22.5], 60)])
        whole = harness._serve(layout, pos)
        calls = []

        def counted(*args):
            calls.append(args)
            return effective_ue_position(*args)

        monkeypatch.setattr(harness, "SERVE_BLOCK", 7)
        monkeypatch.setattr(harness, "effective_ue_position", counted)
        blocks = harness._serve(layout, pos)
        assert len(calls) == 9
        for a, b in zip(whole[:3], blocks[:3]):
            assert np.array_equal(a, b)
        for f in fields(whole[3]):
            assert np.array_equal(getattr(whole[3], f.name),
                                  getattr(blocks[3], f.name)), f.name

    def test_one_wrap_call_per_run(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return effective_ue_position(*args)

        monkeypatch.setattr(harness, "effective_ue_position", counted)
        run(RunConfig(n_ues=5, seed=4, bs_rows=2, bs_cols=2,
                      out_dir=str(tmp_path)))
        assert len(calls) == 1
        assert np.shape(calls[0][1]) == (5, 1, 3)


BAD_VALUES = {
    "bs_pol": "[run]\nbs_pol = 3\n",
    "t_count": "[run]\nt_count = 0\n",
    "m_min": "[run]\nray_count_scaling = true\nm_min = 41\nm_max = 40\n",
    "deploy_radius": "[run]\nlayout = disc\ndeploy_radius = -1\n",
    "bs_pattern": "[run]\nbs_pattern = directonal\n",
    "ue_device": "[run]\nue_device = tablet\n",
    "ue_usage": "[run]\nue_usage = pocket\n",
    "ue_sns": "[run]\nue_device = CPE\nue_sns = true\n",
    # keys a run would ignore: a usage without UE masks, a delay bound
    # without absolute delays, a site distance on a layout without one
    "ue_usage_without_ue_sns": "[run]\nue_usage = two-hand\n",
    "abs_delay_bound_m_without_absolute_delay":
        "[run]\nabs_delay_bound_m = 300\n",
    "isd_without_hex": "[run]\nscenario = UMi\nlayout = disc\nisd = 500\n",
    # ... a disc radius off the disc layout, the near-field source keys
    # without near_field, the ray-count keys without ray_count_scaling, the
    # stochastic SNS parameters without it, and a downtilt on the indoor
    # layout, whose ceiling BSs always point straight down
    "deploy_radius_without_disc": "[run]\ndeploy_radius = 50\n",
    "nf_alpha_without_near_field": "[run]\nnf_alpha = 5\n",
    "nf_beta_without_near_field": "[run]\nnf_beta = 5\n",
    "n_spec_without_near_field": "[run]\nn_spec = 1\n",
    "bandwidth_hz_without_ray_count_scaling": "[run]\nbandwidth_hz = 2e8\n",
    "m_min_without_ray_count_scaling": "[run]\nm_min = 8\n",
    "m_max_without_ray_count_scaling": "[run]\nm_max = 30\n",
    "sns_pr_mu_without_stochastic_sns": "[run]\nsns_pr_mu = 0.4\n",
    "sns_pr_sigma_without_stochastic_sns": "[run]\nsns_pr_sigma = 0.3\n",
    "sns_vp_a_without_stochastic_sns": "[run]\nsns_vp_a = 0.6\n",
    "sns_vp_r_db_without_stochastic_sns": "[run]\nsns_vp_r_db = 5\n",
    "sns_vp_b_without_stochastic_sns": "[run]\nsns_vp_b = 0.2\n",
    "sns_vp_sigma_without_stochastic_sns": "[run]\nsns_vp_sigma = 0.1\n",
    "sns_rolloff_without_stochastic_sns": "[run]\nsns_rolloff = 2\n",
    "bs_downtilt_deg_on_indoor": "[run]\nscenario = InH\nlayout = indoor\n"
                                 "bs_downtilt_deg = 10\n",
    # element-wise angles exist only toward near-field sources
    "nf_angles": "[run]\nnf_angles = true\n",
    "field_cell_m": "[run]\nfield_cell_m = 1.0\n",
    "method_name_key": "[run]\nwavelength = 1\n",
    "non_numeric_int": "[run]\nn_ues = many\n",
    "no_section_header": "seed = 3\n",
    "layout": "[run]\nlayout = ring\n",
    "sns": "[run]\nsns = nope\n",
    "force_state": "[run]\nforce_state = maybe\n",
    "force_location": "[run]\nforce_location = attic\n",
    "isd": "[run]\nisd = -5\n",
    "bs_rows": "[run]\nbs_rows = 0\n",
    "bs_cols": "[run]\nbs_cols = 0\n",
    "nf_alpha": "[run]\nnear_field = true\nnf_alpha = 0\n",
    "nf_beta": "[run]\nnear_field = true\nnf_beta = 0\n",
    # below 1 the Beta draw can land on 0 or 1 exactly
    "nf_alpha_below_one": "[run]\nnear_field = true\nnf_alpha = 0.5\n",
    "nf_beta_below_one": "[run]\nnear_field = true\nnf_beta = 0.5\n",
    "bandwidth_hz": "[run]\nray_count_scaling = true\nbandwidth_hz = 0\n",
    "prune_db": "[run]\nprune_db = -3\n",
    "bool_spelling": "[run]\nnear_field = ture\n",
    "seed": "[run]\nseed = -1\n",
    "deploy_radius_zero": "[run]\nlayout = disc\ndeploy_radius = 0\n",
    "n_spec": "[run]\nn_spec = -1\n",
    "m_min_zero": "[run]\nm_min = 0\n",
    "abs_delay_bound_m": "[run]\nabs_delay_bound_m = -1\n",
    "sns_pr_sigma": "[run]\nsns_pr_sigma = 0\n",
    "sns_vp_r_db": "[run]\nsns_vp_r_db = 0\n",
    "sns_vp_sigma": "[run]\nsns_vp_sigma = -0.1\n",
    "sns_rolloff": "[run]\nsns_rolloff = -1\n",
    "non_finite_float": "[run]\nbs_downtilt_deg = nan\n",
    "sns_blocker": "[run]\nsns = blocker\n",
    # the layout is too small for the scenario's minimum BS-UE distance
    "drop_disc_radius": "[run]\nscenario = UMi\nlayout = disc\n"
                        "deploy_radius = 5\nn_ues = 2\n",
    "drop_hex_isd": "[run]\nisd = 1\nn_ues = 2\n",
}
# a missing section header is a property of a file, not of a value
CLI_BAD_VALUES = sorted(set(BAD_VALUES) - {"no_section_header"})


def cli_args(ini_text):
    """The command line that sets what ``ini_text`` sets."""
    parser = configparser.ConfigParser()
    parser.read_string(ini_text)
    states = configparser.ConfigParser.BOOLEAN_STATES
    args = []
    for key, val in parser.items("run"):
        flag = "--" + key.replace("_", "-")
        if harness._FIELD_TYPES.get(key) is bool and val in states:
            args.append(flag if states[val] else "--no-" + flag[2:])
        else:
            args += [flag, val]
    return args


def _other_value(f):
    """A value of field ``f`` other than its default that its choices and
    bounds accept."""
    choices = f.metadata.get("choices")
    if choices:
        return next(v for v in choices if v != f.default)
    if f.type is bool:
        return not f.default
    return f.type(f.default + 1)


class TestConfigAndCli:
    @pytest.mark.parametrize("key", sorted(BAD_VALUES))
    def test_cli_rejects_bad_value(self, tmp_path, key):
        bad = tmp_path / "bad.ini"
        bad.write_text(BAD_VALUES[key] + f"out_dir = {tmp_path / 'x'}\n")
        assert cli_main(["run", "--config", str(bad)]) == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key", CLI_BAD_VALUES)
    def test_cli_flags_reject_bad_value(self, tmp_path, key):
        argv = ["run", *cli_args(BAD_VALUES[key]),
                "--out-dir", str(tmp_path / "x")]
        assert cli_main(argv) == 2
        assert not (tmp_path / "x").exists()

    def test_one_flag_per_field(self):
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest: a.option_strings
                 for a in sub.choices["run"]._actions if a.dest != "help"}
        expected = {"config": ["--config"], "preset": ["--preset"]}
        for f in fields(RunConfig):
            flag = "--" + f.name.replace("_", "-")
            expected[f.name] = [flag, "--no-" + flag[2:]] \
                if f.type is bool else [flag]
        assert flags == expected

    def test_documented_spellings(self, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "run", lambda cfg: built.append(cfg) or [])
        assert cli_main(["run", "--fc", "9", "--out", "D", "--ray-count",
                         "--no-near-field", "--n-ues", "2", "--seed", "5",
                         "--sns", "stochastic"]) == 0
        assert built == [load_config(overrides=dict(
            fc_ghz=9.0, out_dir="D", ray_count_scaling=True, near_field=False,
            n_ues=2, seed=5, sns="stochastic"))]

    @pytest.mark.parametrize("value", [2.7, float("inf"), True])
    def test_int_override_must_be_integral(self, value):
        with pytest.raises(ConfigError, match="n_ues"):
            load_config(overrides={"n_ues": value})

    @pytest.mark.parametrize("key,value", [("fc_ghz", True),
                                           ("near_field", 2),
                                           ("near_field", 1.0)])
    def test_bool_and_float_overrides_keep_their_type(self, key, value):
        with pytest.raises(ConfigError, match=key):
            load_config(overrides={key: value})

    def test_string_bool_and_int_float_overrides_accepted(self):
        cfg = load_config(overrides={"near_field": "yes", "fc_ghz": 9})
        assert cfg.near_field is True
        assert cfg.fc_ghz == 9.0 and isinstance(cfg.fc_ghz, float)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config(overrides={"not_a_key": 1})

    def test_fc_range(self):
        with pytest.raises(ConfigError):
            load_config(overrides={"fc_ghz": 300.0})

    def test_preset_loads(self):
        cfg = load_config(preset="inh-nf-2")
        assert cfg.scenario == "InH"
        assert cfg.deploy_radius == 2.0
        assert cfg.near_field
        assert cfg.bs_rows == 64 and cfg.bs_cols == 16

    def test_cli_round_trip(self, tmp_path):
        rc = cli_main(["run", "--preset", "umi-nf-20", "--n-ues", "2",
                       "--seed", "5", "--out", str(tmp_path / "cli"),
                       "--no-near-field"])
        assert rc == 0
        assert (tmp_path / "cli" / "links.csv").exists()

    def test_cli_config_error(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[run]\nfc_ghz = 900\n")
        assert cli_main(["run", "--config", str(bad)]) == 2

    def test_cli_data_error(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\nscenario = Mars\nlayout = disc\nn_ues = 1\n"
                       f"out_dir = {tmp_path / 'x'}\n")
        assert cli_main(["run", "--config", str(cfg)]) == 3

    def test_workers_bounded(self, tmp_path):
        # checked before any run, so no test starts a pool this large
        with pytest.raises(ConfigError, match="workers"):
            load_config(overrides={"workers": 257})
        assert load_config(overrides={"workers": 256}).workers == 256
        out = tmp_path / "x"
        assert cli_main(["run", "--workers", "257", "--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_needs_name_fields_and_accepted_values(self):
        # each ``needs`` names another field and only values that field
        # accepts, and a key set to its default loads without its setting
        by_name = {f.name: f for f in fields(RunConfig)}
        for f in fields(RunConfig):
            if "needs" not in f.metadata:
                continue
            key, values = f.metadata["needs"]
            assert key in by_name and key != f.name, f.name
            other = by_name[key]
            for value in values:
                assert type(value) is other.type, (f.name, value)
                assert getattr(load_config(overrides={key: value}),
                               key) == value
            off = next(v for v in other.metadata.get("choices", (False, True))
                       if v not in values)
            load_config(overrides={key: off, f.name: f.default})
            with pytest.raises(ConfigError, match=f"{f.name} = .* needs"):
                load_config(overrides={key: off, f.name: _other_value(f)})

    def test_default_key_accepted_without_its_setting(self, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "run", lambda cfg: built.append(cfg) or [])
        assert cli_main(["run", "--layout", "disc", "--isd", "0",
                         "--nf-alpha", "2", "--m-max", "40"]) == 0
        assert built == [RunConfig(layout="disc")]

    def test_help_names_the_setting_a_key_needs(self):
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        helps = {a.dest: a.help for a in sub.choices["run"]._actions}
        assert helps["nf_angles"] == "needs near_field = True; default False"
        assert helps["ue_usage"].startswith("one of '', 'one-hand'")
        assert "; needs ue_sns = True; default ''" in helps["ue_usage"]
        assert helps["near_field"] == "default False"

    def test_run_validates_before_touching_out_dir(self, tmp_path):
        out = tmp_path / "o"
        cfg = RunConfig(nf_angles=True, n_ues=2, out_dir=str(out))
        with pytest.raises(ConfigError, match="nf_angles"):
            run(cfg)
        assert not out.exists()
        out.mkdir()
        (out / "manifest.txt").write_text("previous run\n")
        with pytest.raises(ConfigError, match="nf_angles"):
            run(cfg)
        assert (out / "manifest.txt").read_text() == "previous run\n"
        assert [p.name for p in out.iterdir()] == ["manifest.txt"]

    @pytest.mark.parametrize("key, val", [("n_ues", "3"), ("fc_ghz", None),
                                          ("workers", 2.0),
                                          ("near_field", "yes"),
                                          ("seed", True)])
    def test_run_checks_the_types_of_a_built_config(self, tmp_path, key,
                                                    val):
        # a RunConfig built in code gets the type checks load_config gives
        out = tmp_path / "o"
        cfg = RunConfig(**{"n_ues": 2, "out_dir": str(out), key: val})
        with pytest.raises(ConfigError, match=f"{key} = .* is not a valid"):
            run(cfg)
        assert not out.exists()

    def test_scenario_layout_combinations(self, tmp_path, capsys):
        # layout = indoor needs a table with the indoor hall's width, and
        # force_location = indoor one with indoor UEs; both are rejected
        # before the output directory is touched, so the previous run's
        # manifest stays.  Every other combination runs
        out = tmp_path / "out"
        for sc in ("UMa", "UMi", "RMa", "SMa", "InH"):
            for layout in ("hex", "indoor", "disc"):
                for loc in ("", "outdoor", "indoor"):
                    had_manifest = (out / "manifest.txt").exists()
                    code = cli_main([
                        "run", "--scenario", sc, "--layout", layout,
                        "--force-location", loc, "--n-ues", "2",
                        "--bs-rows", "2", "--bs-cols", "2",
                        "--out-dir", str(out)])
                    err = capsys.readouterr().err
                    case = (sc, layout, loc, err)
                    if layout == "indoor" and sc != "InH":
                        assert code == 2 and "layout = indoor" in err, case
                    elif sc == "InH" and loc == "indoor":
                        assert code == 2 and "force_location = indoor" in err, \
                            case
                    else:
                        assert code == 0, case
                    if code == 2:
                        assert (out / "manifest.txt").exists() == had_manifest

    def test_key_in_two_sections_rejected(self, tmp_path, capsys):
        # a key set in two sections of one file names both; [DEFAULT] is
        # one section, not a copy in each
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[run]\nseed = 1\nout_dir = {tmp_path / 'x'}\n"
                       "[model]\nseed = 7\n")
        assert cli_main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "'seed'" in err and "[run] and [model]" in err
        cfg.write_text("[DEFAULT]\nseed = 1\n[run]\nseed = 7\n")
        assert cli_main(["run", "--config", str(cfg)]) == 2
        assert "[DEFAULT] and [run]" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
        cfg.write_text("[DEFAULT]\nseed = 5\n[run]\nn_ues = 3\n"
                       "[model]\nfc_ghz = 10\n")
        got = load_config(cfg)
        assert (got.seed, got.n_ues, got.fc_ghz) == (5, 3, 10.0)

    def test_config_file_overridden_by_cli(self, tmp_path):
        f = tmp_path / "c.ini"
        f.write_text("[run]\nseed = 3\nn_ues = 4\n")
        cfg = load_config(f, overrides={"seed": 9})
        assert cfg.seed == 9 and cfg.n_ues == 4


def _run_python(code, *argv):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    res = subprocess.run([sys.executable, "-c", code, *argv],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


def test_import_leaves_scipy_stats_and_signal_unloaded():
    assert _run_python("import sys, fr3sim; print(sorted(m for m in "
                       "sys.modules if m.startswith(('scipy.stats', "
                       "'scipy.signal'))))") == "[]"


def test_import_loads_numpy_random():
    # numpy loads np.random lazily; fr3sim.rng imports it up front, so the
    # first substream of a run does not pay for that import
    assert _run_python("import sys, fr3sim; "
                       "print('numpy.random' in sys.modules)") == "True"


def test_run_loads_no_scipy(tmp_path):
    # neither `import fr3sim` nor a run loads any scipy module.  Stochastic
    # SNS draws Pr_sns through the truncated-normal quantile and M = 24 rays
    # take the quantile offset basis: the two users of statistics.NormalDist,
    # which `import fr3sim` leaves unloaded
    code = (
        "import sys, fr3sim\n"
        "from fr3sim.harness import RunConfig, run\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')),\n"
        "      'statistics' in sys.modules, end=' ')\n"
        "run(RunConfig(scenario='UMi', layout='disc', deploy_radius=60.0,\n"
        "              n_ues=3, seed=5, bs_rows=4, bs_cols=2,\n"
        "              sns='stochastic', ray_count_scaling=True, m_min=24,\n"
        "              m_max=24, out_dir=sys.argv[1]))\n"
        "print(fr3sim.smallscale._quantile_basis.cache_info().misses,\n"
        "      sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    assert _run_python(code, str(tmp_path / "out")) == "[] False 1 []"


# RunConfig fields the extreme-value sweep leaves alone: out_dir is where its
# runs write, and n_ues, bs_rows, bs_cols and t_count would allocate memory
# in proportion to their values.  workers is swept: none of its sweep values
# passes validation, so no pool starts
SWEEP_SKIP = {"out_dir", "n_ues", "bs_rows", "bs_cols", "t_count"}
ALL_FEATURES = ["--near-field", "--nf-angles", "--sns", "stochastic",
                "--ue-sns", "--absolute-delay", "--ray-count-scaling",
                "--pol-variability", "--t-count", "2", "--emit-cir"]


def test_extreme_values_exit_cleanly(tmp_path, capsys):
    # every other field at 0, -1, nan, inf and -inf (bool fields by their
    # two flags), with the optional features off and all on
    bad = []
    for f in fields(RunConfig):
        if f.name in SWEEP_SKIP:
            continue
        flag = "--" + f.name.replace("_", "-")
        values = [[flag], ["--no-" + flag[2:]]] if f.type is bool else \
            [[flag, v] for v in ("0", "-1", "nan", "inf", "-inf")]
        for features in ([], ALL_FEATURES):
            for value in values:
                argv = ["run", "--n-ues", "2", "--bs-rows", "2",
                        "--bs-cols", "2", *features, *value,
                        "--out-dir", str(tmp_path / "out")]
                try:
                    code = cli_main(argv)
                except Exception as exc:   # report every failing case at once
                    code = repr(exc)
                if code not in (0, 2, 3) or \
                        "Traceback" in capsys.readouterr().err:
                    bad.append((" ".join(argv[7:-2]), code))
    assert not bad
