"""Numerical laboratory for vertical projections in the first Heisenberg group."""

from .core import (UNIT_BALL_VOLUME, ball_volume, dilate, gauge_norm,
                   group_mul, heis_dist, heis_dist_trunc)
from .projections import pi_e, projected_ball_profile
from .cinematic import (f_d1, f_d2, f_eval, graph_overlap_integral,
                        jet_jacobian_absdet, rotate_point)
from .duality import (HorizontalLine, LightRay, dual_ray,
                      incident_point_line, incident_point_ray, xray_transform)
from .plates import (ModifiedPlate, ball_to_modified_plate,
                     same_direction_separation)
from .delta_sets import (BallFamily, covering_number, generate, read_family,
                         verify_delta_t_set, write_family)
from .measures import (DiscreteMeasure, GridDensity, augment_to_dim3,
                       heis_convolve, layer_decomposition, rasterize,
                       riesz_energy)

__version__ = "0.1.0"
