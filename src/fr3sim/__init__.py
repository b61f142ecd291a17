"""fr3sim: geometry-based stochastic channel simulation for the 7-24 GHz
upper-mid band, with near-field spherical wavefronts, spatial
non-stationarity, SMa support, and the revised ray-count rule."""

from .geometry import (Orientation, SiteLayout, LinkGeometry, Drop, vec3,
                       build_hex_layout, build_indoor_layout,
                       build_disc_layout, drop_ues, link_geometry,
                       gcs_to_lcs)
from .antenna import (ElementPattern, PanelArray, UEDevice, MountedArray,
                      element_power_pattern, field_pattern,
                      ue_candidate_locations, mount_bs_array, mount_ue_device)
from .scenario import (ScenarioParams, Registry, PropagationState,
                       ParameterError, load_parameter_tables,
                       los_probability, assign_states)
from .largescale import (C_LIGHT, LargeScaleResult, LspSet, path_loss,
                         material_loss, o2i_penetration,
                         correlated_standard_normals, lsps_from_standardized,
                         breakpoint_distance)
from .smallscale import (ClusterSet, draw_cluster_count, generate_delays,
                         generate_powers, generate_angles, couple_angles,
                         generate_xpr, polarization_weights,
                         build_cluster_set, ray_offset_basis,
                         subcluster_groups)
from .coefficients import (ChannelRealization, ray_count, draw_phases,
                           synthesize, apply_large_scale,
                           draw_absolute_excess, write_cir, read_cir)
from .nearfield import (NearFieldGeometry, source_distances,
                        nlos_element_phase, element_wise_angles)
from .sns import (VisibilityRegion, draw_sns_status, visibility_region,
                  element_attenuation, ue_sns_mask)
from .harness import (RunConfig, LinkReport, load_config, run, capacity,
                      coupling_loss, gini, emit_cdf)

__version__ = "0.1.0"
