"""Stochastic-realism features: the large-bandwidth/large-array ray-count
rule, cluster-number variability, and polarization power variability.

Run:  python3 demos/06_ray_count_and_variability.py
"""

import numpy as np

from fr3sim import (draw_cluster_count, generate_xpr, load_parameter_tables,
                    polarization_weights, ray_count)
from fr3sim.largescale import C_LIGHT

reg = load_parameter_tables()
uma = reg.scenario("UMa")

# ray count across carrier frequency at a fixed physical aperture
print("UMa, 0.13 m x 1.49 m aperture, B = 200 MHz, M_min = 3:")
print("  fc [GHz]   M_t  M_AOD  M_ZOD      M")
for fc in (6.0, 9.0, 24.0):
    ssp = uma.ssp("los", fc)
    m, mt, maod, mzod = ray_count(
        bandwidth_hz=2e8, d_h=0.13, d_v=1.49, c_ds=ssp["c_ds"],
        c_asd=ssp["c_asd"], c_zsd=ssp["c_zsd"],
        wavelength=C_LIGHT / (fc * 1e9), m_min=3, m_max=40)
    print(f"  {fc:8.0f}   {mt:3d}  {maod:5d}  {mzod:5d}   {m:4d}")
print("with the legacy fixed floor of 20 every row would read M = 20, "
      "hiding the sparsity difference between bands")

# cluster-number variability: each link draws N from [D1, D2]
rng = np.random.default_rng(1)
draws = [draw_cluster_count(uma, "nlos", rng) for _ in range(2000)]
d1, d2 = uma.cluster_range("nlos")
hist = {n: draws.count(n) for n in range(d1, d2 + 1)}
print(f"\nUMa NLOS cluster count, range [{d1}, {d2}]: {hist}")

# polarization power variability: random per-ray weights around the legacy
# equal-power split, normalized so the ray's total coupling is preserved
rng = np.random.default_rng(2)
kappa = generate_xpr(7.0, 3.0, 1, 5, rng)
eta = polarization_weights(kappa, rng, enabled=True)
print("\nper-ray polarization weights (tt, tp, pt, pp), kappa in dB:")
for m in range(5):
    k_db = 10 * np.log10(kappa[0, m])
    w = eta[0, m]
    print(f"  ray {m}: kappa {k_db:5.1f} dB, eta = "
          + " ".join(f"{x:5.2f}" for x in w))
check = eta[..., 0] + eta[..., 3] + (eta[..., 1] + eta[..., 2]) / kappa
print("normalization eta_tt + eta_pp + (eta_tp + eta_pt)/kappa "
      f"= 2 + 2/kappa holds to {np.max(np.abs(check - 2 - 2 / kappa)):.1e}")
