"""Lagrangian torus geometry of the projective plane.

Fiber tori over the moment triangle, their bounding discs, periods and
indices; integral-level fiber enumeration and the displaceable-or-monotone
dichotomy; the bitangent conic pencil family and the displacement of its
Chekanov-type tori; exact Hamiltonian flows; and a reporting CLI.

The exact layer (:mod:`lagrtori.lattice`) is imported with the package; the
other modules, most of which need numpy, are imported on first access to
one of their names.
"""

from __future__ import annotations

import importlib

__version__ = "0.2.0"

from . import errors, lattice, serialize
from .lattice import (
    ActionCoords,
    BSFiberSet,
    MonotoneWitness,
    canonical_bs_defect,
    dichotomy,
    enumerate_bs_fibers,
    hilbert_dimension,
    interior_rational_grid,
    is_monotone,
    universal_maslov_class,
)

# lazily imported module -> the names the package exports from it
_NUMERIC = {
    "geometry": (
        "AreaEstimate", "moment_map",
    ),
    "clifford": (
        "CliffordFiber", "D1", "D2", "D3", "DeformationSpec", "HomologyClass",
        "clifford_fiber", "deformed_fiber_periods",
        "diagonal_period", "fiber_periods", "ks_jacobian", "standard_disc",
    ),
    "maslov": (
        "DiscWithBoundary", "MaslovResult", "disc_difference_check", "maslov_index",
    ),
    "chekanov": (
        "ChekanovParams", "ScanReport", "TorusType", "canonical_bs_scan",
        "chekanov_torus", "classify_type", "conic_total_area", "pencil_separation",
        "torus_periods_chekanov",
    ),
    "displacement": (
        "HermitianSymbol", "RotationReport", "build_diagonal_rotation", "swap_symbol",
    ),
}
_LAZY = {module: module for module in _NUMERIC}
_LAZY.update((name, module) for module, names in _NUMERIC.items() for name in names)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = sorted([
    "errors", "serialize", "ActionCoords", "BSFiberSet", "MonotoneWitness",
    "canonical_bs_defect", "dichotomy", "enumerate_bs_fibers", "hilbert_dimension",
    "interior_rational_grid", "is_monotone", "universal_maslov_class", *_LAZY,
])
