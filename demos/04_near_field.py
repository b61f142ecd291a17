"""Spherical wavefronts: element-wise phase curvature, the far-field limit,
and the capacity gain of near-field modeling at short range.

Run:  python3 demos/04_near_field.py
"""

import os
import tempfile

import numpy as np

from fr3sim import (Orientation, PanelArray, mount_bs_array,
                    nlos_element_phase, element_wise_angles)
from fr3sim.geometry import sph_unit
from fr3sim.harness import RunConfig, run
from fr3sim.largescale import C_LIGHT

lam = C_LIGHT / 7e9
arr = PanelArray(m=64, n=16, p=1)
pos = mount_bs_array(arr, np.zeros(3), Orientation(), lam).offsets
aperture = np.linalg.norm(pos.max(axis=0) - pos.min(axis=0))
print(f"64x16 aperture at 7 GHz: {aperture:.2f} m "
      f"(Rayleigh distance 2 D^2 / lambda = {2 * aperture**2 / lam:.0f} m)")

# phase across the array, spherical vs plane wave, source on boresight
r_hat = sph_unit(np.array([90.0]), np.array([0.0]))
y_mid = np.unique(pos[:, 1])[8]
col = pos[np.isclose(pos[:, 1], y_mid)]  # one near-central column
for d in (5.0, 50.0, 500.0):
    nf = nlos_element_phase(np.array([d]), r_hat, col, lam)
    pw = np.exp(2j * np.pi * (col @ r_hat[0]) / lam)
    dev = np.abs(np.angle(nf[:, 0] / pw))
    print(f"source at {d:6.0f} m: max spherical-vs-plane phase deviation "
          f"{dev.max():7.3f} rad over the column")

# element-wise departure angles shrink toward a single direction far out
for d in (5.0, 50.0, 500.0):
    az, _zen = element_wise_angles(d * r_hat[0], pos)
    print(f"source at {d:6.0f} m: inter-element AOD spread "
          f"{az.max() - az.min():6.3f} deg")

# paired capacity comparison (same seed, only the phase model differs)
print("\nindoor hotspot, 64x16 dual-pol BS, 40 UEs per radius, SNR 10 dB")
print("  radius [m]   mean capacity gain NF - FF [bps/Hz]")
for radius in (2.0, 5.0, 10.0):
    base = dict(scenario="InH", layout="disc", deploy_radius=radius,
                n_ues=40, seed=9, bs_rows=64, bs_cols=16, bs_pol=2,
                bs_downtilt_deg=90.0, force_state="LOS")
    with tempfile.TemporaryDirectory(prefix="fr3sim-demo-") as out:
        nf = run(RunConfig(near_field=True, out_dir=os.path.join(out, "nf"),
                           **base))
        ff = run(RunConfig(near_field=False, out_dir=os.path.join(out, "ff"),
                           **base))
    gain = np.mean([a.capacity_bps_hz - b.capacity_bps_hz
                    for a, b in zip(nf, ff)])
    print(f"  {radius:10.0f}   {gain:8.2f}")
print("the gain shrinks with distance; no hard near/far switching exists, "
      "the spherical form simply converges to the plane wave")
