"""Nonconforming virtual element solver for clamped plate bending."""

from .plate import MaterialParams, DEFAULT_MATERIAL
from .mesh import (
    PolygonMesh,
    MeshError,
    MeshIOError,
    derive_topology,
    validate_regularity,
    read_mesh,
    write_mesh,
)
from .generators import (
    FAMILIES,
    build_criss_cross,
    build_family,
    build_nonconvex_octagonal,
    build_randomized_quadrilateral,
    build_remapped_hexagonal,
)
from .assembly import BoundarySpec, PlateSolver, SolverError
from .convergence import convergence_study, error_2h

__all__ = [
    "MaterialParams",
    "DEFAULT_MATERIAL",
    "PolygonMesh",
    "MeshError",
    "MeshIOError",
    "derive_topology",
    "validate_regularity",
    "read_mesh",
    "write_mesh",
    "FAMILIES",
    "build_criss_cross",
    "build_family",
    "build_nonconvex_octagonal",
    "build_randomized_quadrilateral",
    "build_remapped_hexagonal",
    "BoundarySpec",
    "PlateSolver",
    "SolverError",
    "convergence_study",
    "error_2h",
]

__version__ = "0.1.0"
