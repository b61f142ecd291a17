"""Network layouts, wrap-around distances, UE dropping, and propagation
states for the suburban macro scenario.

Run:  python3 demos/01_layout_and_states.py
"""

import numpy as np

from fr3sim import (assign_states, build_hex_layout, drop_ues,
                    link_geometry, load_parameter_tables)
from fr3sim.geometry import effective_ue_position
from fr3sim.rng import STAGE_DROP, substream

reg = load_parameter_tables()
sma = reg.scenario("SMa")

# 19-site hexagonal grid at the geometrically derived ISD (750 m cell radius)
layout = build_hex_layout(isd=1299.0, h_bs=35.0)
print(f"sites: {len(layout.positions)}, ISD = {layout.isd} m")
# the layout is columns: site positions (S, 3) and the sectors all sites share
ring1 = np.abs(np.linalg.norm(layout.positions[:, :2], axis=1) - 1299.0) < 1e-6
print(f"first ring: {ring1.sum()} sites at exactly one ISD; sector "
      f"boresights {[float(s.alpha) for s in layout.sectors]} deg")
print(f"wrap translations: {len(layout.wrap_vectors)}, "
      f"|t| = {np.linalg.norm(layout.wrap_vectors[0][:2]):.1f} m "
      f"(= ISD * sqrt(19))")

# a UE far outside the central cluster maps back to a nearby image
far_ue = np.array([5000.0, 1000.0, 1.5])
eff = effective_ue_position(layout.positions[0], far_ue, layout.wrap_vectors)
print(f"\nUE at {far_ue[:2]} wraps to {np.round(eff[:2], 1)} "
      f"-> distance {np.linalg.norm(eff[:2]):.1f} m")

# drop UEs: 80 percent indoor, 90/10 residential/commercial building mix,
# heights uniform across the floors of the building type.  The drop is a set
# of columns with one row per UE: positions, indoor, building and floor.
rng = substream(1, 0, STAGE_DROP)  # master seed 1, drop 0
drop = drop_ues(layout, 2000, sma, rng)
print(f"\ndropped {len(drop.positions)} UEs, indoor fraction "
      f"{np.mean(drop.indoor):.2f}")
for btype in ("residential", "commercial"):
    rows = drop.building == btype
    hs = np.unique(drop.positions[rows, 2]).tolist()
    print(f"  {btype:12s} {np.sum(rows) / np.sum(drop.indoor):.2f} of indoor, "
          f"floor heights {hs}")

# propagation states: LOS draw, O2I model, and indoor depth per link; every
# UE sees its nearest wrap image of the central site.  Each call covers all
# links at once and returns columns again.
site = layout.positions[0]
eff = effective_ue_position(site, drop.positions, layout.wrap_vectors)
near = link_geometry(site, eff).d2d < 750.0
links = link_geometry(site, eff[near])
states = assign_states(links, drop.indoor[near], drop.building[near], sma,
                       np.random.default_rng(7))
print(f"\nstates for {near.sum()} links within one cell radius: "
      f"LOS fraction {np.mean(states.los == 'LOS'):.2f}")
indoor = states.location == "indoor"
models, counts = np.unique(states.o2i_model[indoor], return_counts=True)
print(f"O2I model mix among indoor links: "
      f"{dict(zip(models.tolist(), counts.tolist()))}")
d_in = states.d2d_in[indoor]
print(f"indoor depth d2D_in: mean {np.mean(d_in):.1f} m, max {np.max(d_in):.1f} m")
