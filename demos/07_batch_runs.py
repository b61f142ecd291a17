"""Batch runs: presets, deterministic seeding, and the emitted artifacts.
The same runs are available from the command line via

    fr3sim run --preset umi-nf-20 --n-ues 50 --seed 3 --out DIR

Run:  python3 demos/07_batch_runs.py
"""

import pathlib
import tempfile

from fr3sim.harness import load_config, run

with tempfile.TemporaryDirectory(prefix="fr3sim-demo-") as out_dir:
    cfg = load_config(preset="umi-nf-20",
                      overrides={"n_ues": 50, "seed": 3, "workers": 2,
                                 "out_dir": out_dir})
    print(f"preset umi-nf-20: scenario {cfg.scenario}, radius "
          f"{cfg.deploy_radius} m, near_field={cfg.near_field}, "
          f"{cfg.bs_rows}x{cfg.bs_cols} dual-pol BS")

    reports = run(cfg)
    caps = sorted(r.capacity_bps_hz for r in reports)
    print(f"\n{len(reports)} links -> median capacity "
          f"{caps[len(caps) // 2]:.2f} bps/Hz at {cfg.snr_db:.0f} dB SNR")

    out = pathlib.Path(cfg.out_dir)
    print("\nartifacts in the run's out_dir:")
    for p in sorted(out.iterdir()):
        if p.is_file():
            print(f"  {p.name:24s} {p.stat().st_size:8d} bytes")

    print("\nmanifest head:")
    for line in (out / "manifest.txt").read_text().splitlines()[:6]:
        print(" ", line)
print("  ...")
print("\nre-running with the same seed reproduces links.csv byte for byte, "
      "for any worker count")
