"""facelat: exact face, normal-cone and touching-cone lattices.

Constructs and cross-validates the four lattices of a convex set (faces,
exposed faces, normal cones, touching cones) for rational polytopes and for
planar segment/arc bodies (including non-closed ones), plus numeric matrix
state-space experiments.
"""

from .errors import (BadAngle, DimensionMismatch, EigenFailure, GeometryError,
                     HypothesisFailed, InvariantViolation, NotAFace,
                     OriginNotInterior, ParseError, PointNotInBody,
                     UndefinedTouchingCone, UnsupportedArcCenter,
                     UnsupportedForBodyType, ZeroDirection)
from .exactgeom import (AffineSubspace, PolyCone, Vec, aff_hull, cone_faces,
                        dot, dual_cone, full_space, intersect_cones, pos_hull,
                        project_onto, vec)
from .lattice import (DuplicateElement, FiniteLattice, LatticeMap, NotALattice,
                      build_lattice, decompose_by_atoms, decompose_by_coatoms,
                      lattice_map, verify_isomorphism)
from .planar import (Arc, Cone2, FaceDescriptor, PlanarBody, Segment,
                     check_2d_nonexposed_rule, check_2d_smoothness,
                     coatom_check_planar, cone_inventory, exposed_face,
                     face_at, gauge_value, non_exposed_faces, normal_cone_at,
                     partition_check_planar, polar_planar, singular_points,
                     special_face_lattice, touching_cone)
from .polytope import (PolyFace, Polytope, atom_decomposition,
                       coatom_decomposition, conjugate_face,
                       exposed_face_lattice, exposed_meet, face_lattice,
                       is_sharp_exposed, is_sharp_normal, lifted_face_lattices,
                       minkowski_atom_check, normal_cone, normal_cone_lattice,
                       polar, pos_iso_check, projection, sup_exposed, support,
                       touching_cone_lattice)

__version__ = "0.1.0"
