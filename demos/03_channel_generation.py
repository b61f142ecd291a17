"""One link end to end: correlated LSPs, the cluster parameter chain, and
CIR synthesis for a 64x16 dual-polarized array.

Run:  python3 demos/03_channel_generation.py
"""

import functools
import os
import tempfile

import numpy as np

from fr3sim import (ElementPattern, PanelArray, UEDevice, build_cluster_set,
                    correlated_standard_normals, draw_phases, link_geometry,
                    load_parameter_tables, lsps_from_standardized,
                    mount_bs_array, mount_ue_device, read_cir, synthesize,
                    write_cir)
from fr3sim.geometry import Orientation, vec3
from fr3sim.largescale import C_LIGHT
from fr3sim.scenario import PropagationState

reg = load_parameter_tables()
sma = reg.scenario("SMa")
fc = 7.0
lam = C_LIGHT / (fc * 1e9)

bs_pos = vec3(0, 0, 35)
ue_pos = vec3(180, 40, 1.5)
g = link_geometry(bs_pos, ue_pos)
state = PropagationState("LOS", "outdoor")
print(f"link: d2D = {g.d2d:.1f} m, d3D = {g.d3d:.1f} m, "
      f"AOD = {g.aod_az:.1f} deg, ZOD = {g.zod:.1f} deg")

# correlated large-scale parameters at the UE and three points further
# along its route: one call per step gives one row per position, and the
# UE's own link is row 0
route = ue_pos + np.outer(np.arange(4) * 10.0, [1.0, 0.0, 0.0])
std, names = correlated_standard_normals(route[:, :2], sma, "los",
                                         np.random.default_rng(3))
lsps = lsps_from_standardized(
    std, names, link_geometry(bs_pos, route), sma,
    PropagationState(np.full(4, "LOS"), np.full(4, "outdoor")), fc)
print("  x [m]   DS [ns]   ASA [deg]   ASD [deg]   K [dB]   SF [dB]")
for row in zip(route[:, 0], lsps.ds * 1e9, lsps.asa, lsps.asd, lsps.k_db,
               lsps.sf_db):
    print("  {:5.0f}   {:7.1f}   {:9.1f}   {:9.1f}   {:6.1f}   {:7.1f}".format(*row))
lsp = lsps_from_standardized(std[0], names, g, sma, state, fc)

# steps 5-9: delays, powers, coupled angles, XPR
rngs = {k: np.random.default_rng([5, i]) for i, k in enumerate(
    ("count", "delays", "powers", "angles", "coupling", "xpr", "pol"))}
cs = build_cluster_set(sma, state, lsp, (g.aoa_az, g.aod_az, g.zoa, g.zod),
                       fc, rngs, reg.angle_scaling)
print(f"\nclusters: {cs.n} surviving, {cs.m} rays each, "
      f"specular power {cs.p_los:.3f}")
print("  n   tau [ns]   power    AOD mean")
for i in range(min(cs.n, 6)):
    print(f"  {i}   {cs.tau_scaled[i] * 1e9:8.1f}   {cs.p[i]:.4f}   "
          f"{np.mean(cs.aod[i]):8.1f}")

# steps 10-11: phases and coefficients on real apertures
bs_array = mount_bs_array(PanelArray(m=64, n=16, p=2,
                                     element=ElementPattern.directional()),
                          bs_pos, Orientation(g.aod_az, 6.0, 0.0), lam)
ue_array = mount_ue_device(UEDevice("handheld"), ue_pos)
phases = draw_phases(cs.n, cs.m, np.random.default_rng(11))
synth = functools.partial(synthesize, g, cs, phases, bs_array, ue_array, lam,
                          los=True, base_delay=g.d3d / C_LIGHT)

# synthesize hands each tap, a (U, S, T) buffer it reuses, to a sink; a
# caller that wants the whole gain tensor keeps a copy of every tap
taps = []
h = synth(sink=lambda delay, gains: taps.append(gains.copy()))
print(f"\nCIR: gains tensor of shape {np.shape(taps)}: {h.n_taps} taps over "
      f"{ue_array.size} x {bs_array.size} element pairs and 1 time sample")
print(f"first tap at {h.delays[0] * 1e9:.2f} ns "
      f"(geometric delay {g.d3d / C_LIGHT * 1e9:.2f} ns)")
energy = h.tap_energy
print(f"mean element-pair energy: {np.mean(energy):.3f} "
      f"(unit-normalized cluster powers times element gains)")

# write_cir runs the synthesis itself and appends each tap to the file as
# it is made, so no tensor is held
cir_path = os.path.join(tempfile.mkdtemp(prefix="fr3sim-demo-"), "link.cir")
write_cir(cir_path, synth)
back = read_cir(cir_path)
err = np.max(np.abs(back.gains - np.array(taps)))
print(f"wrote binary CIR dump to {cir_path}: {back.n_taps} taps, "
      f"f32 rounding error {err:.1e}")
