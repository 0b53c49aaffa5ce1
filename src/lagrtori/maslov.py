"""Maslov data for loops on lagrangian tori, via chart-frame windings.

Convention used throughout the package: the index of a disc is the winding
number of the complex determinant ``det[e1(t), e2(t)]`` of the (1,0)-parts of
a frame of the lagrangian tangent plane along the boundary, computed in the
coordinates of an affine chart containing the disc.  This is HALF the usual
Lagrangian-Grassmannian (squared-determinant) index: the basic coordinate
disc of a product torus has index 1 here, not 2.  All integrality and
monotonicity statements in this package use this halved convention, and the
anticanonical degree enters as 3 (not 6).

Indices are proven, not sampled heuristically.  Each disc carries a bound L
on |d det/dt| over t in [0, 1], per chart.  If |det| > L/n at n equispaced
samples, det stays on each sample interval in a disc about its left value
that excludes 0, so the sum of the principal phase steps is the winding
(the covering argument of Ying & Katz, Numer. Math. 53, 1988).
"""

from __future__ import annotations

import math
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

_CHART_FLOOR = 1e-8
# loop samples of the covering test: 16, doubling to 4096
_SAMPLE_COUNTS = tuple(16 << k for k in range(9))
# points on which two disc boundaries must agree projectively
_BOUNDARY_SAMPLES = 64


@dataclass(frozen=True)
class DiscWithBoundary:
    """A disc with boundary on a lagrangian torus, pinned to an affine chart.

    ``boundary_loop(t)`` returns coordinate lifts of the boundary (vectorized
    over ``t`` in [0, 1]), and ``frame(t)`` returns a pair of tangent
    coordinate lifts spanning the torus tangent plane there.  ``chart`` names
    the affine chart {z_chart != 0} containing the disc.
    ``det_lipschitz(c)`` bounds |d/dt det[e1, e2]| on [0, 1] in chart ``c``;
    keyed by chart, it stays valid under ``dataclasses.replace(d, chart=c)``.
    """

    boundary_loop: Callable[[np.ndarray], np.ndarray]
    frame: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    chart: int
    det_lipschitz: Callable[[int], float]


@dataclass(frozen=True)
class MaslovResult:
    mu: int
    raw_winding: float
    integrality_defect: float


def frame_determinant(d: DiscWithBoundary, t) -> np.ndarray:
    """Complex determinant of the frame's (1,0)-parts in the affine
    coordinates of the chart along the boundary.

    Row reduction by the lift z gives det[z, e1, e2] = (-1)^c z_c^3 times
    the chart determinant, so the 3x3 determinant of the lifts is divided out.
    """
    t = np.asarray(t, dtype=float)
    z = np.asarray(d.boundary_loop(t), dtype=complex)
    if np.min(np.abs(_unit_rows(z)[..., d.chart])) < _CHART_FLOOR:
        raise ChartEscape(f"boundary loop leaves chart {d.chart}")
    lifts = np.stack([z, *d.frame(t)], axis=-2)
    return (-1) ** d.chart * np.linalg.det(lifts) / z[..., d.chart] ** 3


def maslov_index(d: DiscWithBoundary) -> MaslovResult:
    """Certified winding of the boundary frame determinant against the chart
    trivialization, by the covering rule of the module docstring.

    With L = ``d.det_lipschitz(d.chart)``, n runs through 16, 32, ..., 4096
    until min |det| > L/n on n + 1 equispaced samples, else
    DeterminantVanishes names n, min |det| and L.  An L that is not finite
    and >= 0 certifies nothing and raises ValueError naming the chart and L.
    The raw winding's distance to an integer is reported and must stay
    below 1e-3.
    """
    lip = d.det_lipschitz(d.chart)
    if not 0.0 <= lip < math.inf:  # False for NaN
        raise ValueError(f"det_lipschitz({d.chart}) = {lip!r} is not a finite bound >= 0")
    for n in _SAMPLE_COUNTS:
        det = frame_determinant(d, np.linspace(0.0, 1.0, n + 1))
        low = float(np.min(np.abs(det)))
        if low > (1.0 + 1e-9) * lip / n:  # a relative margin for rounding
            break
    else:
        raise DeterminantVanishes(f"covering test fails at n = {n} samples:"
                                  f" min |det| = {low:.3e}, L = {lip:.3e}")
    raw = float(np.sum(np.angle(det[1:] / det[:-1])) / (2.0 * np.pi))
    mu = int(round(raw))
    defect = abs(raw - mu)
    if defect > 1e-3:
        raise DeterminantVanishes(f"winding failed to settle on an integer"
                                  f" (defect {defect:.3e})")
    return MaslovResult(mu, raw, defect)


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
