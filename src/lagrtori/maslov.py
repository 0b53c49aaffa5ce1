"""Maslov data for loops on lagrangian tori, via chart-frame windings.

Convention used throughout the package: the index of a disc is the winding
number of the complex determinant ``det[e1(t), e2(t)]`` of the (1,0)-parts of
a frame of the lagrangian tangent plane along the boundary, computed in the
coordinates of an affine chart containing the disc.  This is HALF the usual
Lagrangian-Grassmannian (squared-determinant) index: the basic coordinate
disc of a product torus has index 1 here, not 2.  All integrality and
monotonicity statements in this package use this halved convention, and the
anticanonical degree enters as 3 (not 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BoundaryMismatch, ChartEscape, DeterminantVanishes
from .geometry import _unit_rows, hermdot
from .lattice import (  # re-exported: the exact monotonicity test lives in lattice
    MonotoneWitness,
    canonical_bs_defect,
    is_monotone,
    universal_maslov_class,
)

_DET_FLOOR = 1e-10
_CHART_FLOOR = 1e-8
_PHASE_GUARD = np.pi / 2
# loop samples of the first winding pass, and how often the guard may double them
_WINDING_SAMPLES = 512
_MAX_DOUBLINGS = 7
# points on which two disc boundaries must agree projectively
_BOUNDARY_SAMPLES = 64


@dataclass(frozen=True)
class DiscWithBoundary:
    """A disc with boundary on a lagrangian torus, pinned to an affine chart.

    ``boundary_loop(t)`` returns coordinate lifts of the boundary (vectorized
    over ``t`` in [0, 1]), and ``frame(t)`` returns a pair of tangent
    coordinate lifts spanning the torus tangent plane there.  ``chart`` names
    the affine chart {z_chart != 0} containing the disc.
    """

    boundary_loop: Callable[[np.ndarray], np.ndarray]
    frame: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    chart: int


@dataclass(frozen=True)
class MaslovResult:
    mu: int
    raw_winding: float
    integrality_defect: float

    def to_json(self) -> dict:
        return {
            "mu": self.mu,
            "raw_winding": self.raw_winding,
            "integrality_defect": self.integrality_defect,
        }


def _chart_pushforward(z, vec, chart: int):
    """(1,0)-part of a tangent coordinate lift in the chart's affine coords."""
    a, b = [i for i in range(3) if i != chart]
    zj = z[..., chart]
    wa = (vec[..., a] * zj - z[..., a] * vec[..., chart]) / (zj * zj)
    wb = (vec[..., b] * zj - z[..., b] * vec[..., chart]) / (zj * zj)
    return wa, wb


def frame_determinant(d: DiscWithBoundary, t) -> np.ndarray:
    """Complex determinant of the pushed-forward frame along the boundary."""
    t = np.asarray(t, dtype=float)
    z = np.asarray(d.boundary_loop(t), dtype=complex)
    zn = _unit_rows(z)
    if np.min(np.abs(zn[..., d.chart])) < _CHART_FLOOR:
        raise ChartEscape(f"boundary loop leaves chart {d.chart}")
    e1, e2 = d.frame(t)
    e1 = np.asarray(e1, dtype=complex)
    e2 = np.asarray(e2, dtype=complex)
    ua, ub = _chart_pushforward(z, e1, d.chart)
    va, vb = _chart_pushforward(z, e2, d.chart)
    return ua * vb - ub * va


def maslov_index(d: DiscWithBoundary) -> MaslovResult:
    """Winding of the boundary frame determinant against the chart
    trivialization.

    The phase is accumulated stepwise with the guard |delta arg| < pi/2; if
    any step violates the guard the sampling is doubled.  The raw winding of a
    closed loop telescopes to an integer up to roundoff; the defect is
    reported and must stay below 1e-3.
    """
    n = _WINDING_SAMPLES
    for _ in range(_MAX_DOUBLINGS + 1):
        t = np.linspace(0.0, 1.0, n + 1)
        det = frame_determinant(d, t)
        mags = np.abs(det)
        if np.min(mags) < _DET_FLOOR:
            raise DeterminantVanishes(
                f"|det| = {np.min(mags):.3e} below {_DET_FLOOR:.1e} on the loop"
            )
        steps = np.angle(det[1:] / det[:-1])
        if np.max(np.abs(steps)) < _PHASE_GUARD:
            raw = float(np.sum(steps) / (2.0 * np.pi))
            mu = int(round(raw))
            defect = abs(raw - mu)
            if defect > 1e-3:
                raise DeterminantVanishes(
                    f"winding failed to settle on an integer (defect {defect:.3e})"
                )
            return MaslovResult(mu, raw, defect)
        n *= 2
    raise DeterminantVanishes("phase guard kept failing after sample doubling")


def disc_difference_check(d: DiscWithBoundary, d_prime: DiscWithBoundary,
                          sphere_degree: int) -> bool:
    """Verify mu(d') - mu(d) = 3 * sphere_degree for discs sharing a boundary.

    The two discs must have projectively equal boundary loops (checked on
    ``_BOUNDARY_SAMPLES`` points; BoundaryMismatch otherwise) and carry
    the same frame.  The factor 3 is the anticanonical degree of the plane
    in the halved convention.
    """
    t = np.linspace(0.0, 1.0, _BOUNDARY_SAMPLES, endpoint=False)
    za = _unit_rows(np.asarray(d.boundary_loop(t), dtype=complex))
    zb = _unit_rows(np.asarray(d_prime.boundary_loop(t), dtype=complex))
    agree = np.abs(np.abs(hermdot(za, zb)) - 1.0)
    if np.max(agree) > 1e-8:
        raise BoundaryMismatch(
            f"boundary loops differ (projective defect {np.max(agree):.3e})"
        )
    mu = maslov_index(d).mu
    mu_prime = maslov_index(d_prime).mu
    return mu_prime - mu == 3 * sphere_degree
