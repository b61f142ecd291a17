"""Large-scale fading: dual-slope SMa path loss, material penetration, and
the three O2I building models.

Run:  python3 demos/02_path_loss_and_penetration.py
"""

import numpy as np

from fr3sim import (breakpoint_distance, link_geometry, load_parameter_tables,
                    material_loss, o2i_penetration, path_loss)
from fr3sim.scenario import PropagationState

reg = load_parameter_tables()
sma = reg.scenario("SMa")

fc = 7.0
dbp = breakpoint_distance("rma_dual", 35.0, 1.5, fc)
print(f"SMa breakpoint distance at {fc} GHz: {dbp:.1f} m")
# one path-loss call covers every link: the geometry and the states are
# columns with one row per link
d = np.array([50, 100, 300, 1000, 3000, 5000])
g = link_geometry([0.0, 0.0, 35.0], np.column_stack([d, 0 * d, 1.5 + 0 * d]))
n = d.size
pl_los = path_loss(sma, g, PropagationState(np.full(n, "LOS"),
                                            np.full(n, "outdoor")), fc)
pl_nlos = path_loss(sma, g, PropagationState(np.full(n, "NLOS"),
                                             np.full(n, "outdoor")), fc)
print("\n  d2D [m]    LOS [dB]   NLOS [dB]")
for row in zip(d, pl_los, pl_nlos):
    print("  {:7d}    {:8.2f}   {:8.2f}".format(*row))

print("\nmaterial penetration loss [dB]")
print("  fc [GHz]   glass  IRR-glass  concrete   wood  plywood")
for fc_i in (2, 7, 10, 15, 24):
    row = [material_loss(reg.materials, m, fc_i)
           for m in ("glass", "IRR-glass", "concrete", "wood", "plywood")]
    print(f"  {fc_i:8.0f}   " + "  ".join(f"{v:7.2f}" for v in row))

print("\nO2I building penetration at 7 GHz, d2D_in = 10 m "
      "(through-wall + indoor, random part excluded)")
models = ("low", "high", "low-A")
tw, pin, _ = o2i_penetration(reg.materials, models, 7.0, np.full(3, 10.0),
                             [np.random.default_rng(0)] * 3)
for model, tw_m, pin_m in zip(models, tw, pin):
    print(f"  {model:6s}  PL_tw = {tw_m:6.2f} dB   PL_in = {pin_m:4.1f} dB")
print("the low-A model substitutes plywood for concrete, matching the "
      "lighter external walls of suburban housing")
