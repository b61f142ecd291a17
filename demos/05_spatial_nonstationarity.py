"""Spatial non-stationarity: visibility regions on the array plane, UE grip
masks, and the coupling-loss shift.

Run:  python3 demos/05_spatial_nonstationarity.py
"""

import os
import tempfile

import numpy as np

from fr3sim import (element_attenuation, load_parameter_tables, ue_sns_mask,
                    visibility_region)
from fr3sim.harness import RunConfig, run

reg = load_parameter_tables()
cfg = RunConfig()    # the default sns_* parameters of the stochastic model

# visibility region for a weak cluster on a 0.32 m x 1.35 m array
rng = np.random.default_rng(2)
vr = visibility_region(p_db=-12.0, max_p_db=0.0, cfg=cfg, width=0.32,
                       height=1.35, rng=rng)
print(f"cluster 12 dB below the strongest: V = {vr.v:.2f}, "
      f"VR {vr.width:.2f} x {vr.height:.2f} m (area = V * W * H exactly)")
zs = np.linspace(-0.675, 0.675, 9)
alpha = element_attenuation(vr, cfg, np.stack([np.zeros(9), zs], axis=1))
print("alpha along the central column:",
      " ".join(f"{a:.2f}" for a in alpha))

# UE-side masks: per-candidate attenuation by usage and band
print("\nUE self-blockage masks, 1-8.4 GHz band [dB]:")
for usage in ("free", "one-hand", "two-hand", "head-hand"):
    beta = ue_sns_mask(reg.ue_masks, usage, 7.0, np.arange(8))
    print(f"  {usage:9s} " + " ".join(f"{-10 * np.log10(b):5.1f}" for b in beta))

# system-level effect: enabling BS-side SNS can only remove power
print("\ncoupling-loss shift with the stochastic SNS model (60 UMi links):")
base = dict(scenario="UMi", layout="disc", deploy_radius=100.0, n_ues=60,
            seed=5, bs_rows=64, bs_cols=16, bs_pol=2, bs_downtilt_deg=10.0,
            force_state="LOS", force_location="outdoor")
with tempfile.TemporaryDirectory(prefix="fr3sim-demo-") as out:
    off = run(RunConfig(sns="off", out_dir=os.path.join(out, "sns_off"),
                        **base))
    on = run(RunConfig(sns="stochastic", out_dir=os.path.join(out, "sns_on"),
                       **base))
delta = np.array([b.coupling_loss_db - a.coupling_loss_db
                  for a, b in zip(off, on)])
print(f"per-link shift: min {delta.min():.3f} dB (never negative), "
      f"mean {delta.mean():.3f} dB")
