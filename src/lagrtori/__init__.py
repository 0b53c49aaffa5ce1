"""Lagrangian torus geometry of the projective plane.

Fiber tori over the moment triangle, their bounding discs, periods and
indices; integral-level fiber enumeration; the bitangent conic pencil family;
and Hamiltonian displacement certificates, with a reporting CLI.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import errors
from .geometry import (
    AreaEstimate,
    HomogeneousPoint,
    ParamSurface,
    QuadSpec,
    TangentVector,
    apply_unitary,
    fs_form_value,
    loop_symplectic_area,
    moment_map,
    normalize_point,
    projective_line_surface,
    surface_symplectic_area,
)
from .clifford import (
    ActionCoords,
    BSFiberSet,
    CliffordFiber,
    D1,
    D2,
    D3,
    DeformationSpec,
    HomologyClass,
    clifford_fiber,
    deform_fiber,
    deformed_fiber_periods,
    diagonal_period,
    enumerate_bs_fibers,
    fiber_periods,
    hilbert_dimension,
    interior_rational_grid,
    ks_jacobian,
    lifted_period_map,
    standard_disc,
)
from .maslov import (
    DiscWithBoundary,
    MaslovResult,
    MonotoneWitness,
    canonical_bs_defect,
    disc_difference_check,
    is_monotone,
    maslov_index,
    universal_maslov_class,
)
from .chekanov import (
    Anchor,
    ChekanovParams,
    ConicCircle,
    ScanReport,
    TorusType,
    canonical_bs_scan,
    chekanov_torus,
    classify_type,
    cone_disc,
    conic_circle,
    conic_parametrize,
    conic_total_area,
    torus_periods_chekanov,
)
from .displacement import (
    DisplacementCertificate,
    Displaceable,
    HermitianSymbol,
    Inconclusive,
    Monotone,
    NotDisplacedByTheseFlows,
    RotationReport,
    build_diagonal_rotation,
    displace_chekanov,
    displace_clifford,
    enc_verdict,
    swap_symbol,
    symbol_flow,
)

__all__ = [name for name in dir() if not name.startswith("_")]
