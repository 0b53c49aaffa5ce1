"""The torus fibration of the plane by moduli levels: fibers, discs, periods,
and the lifted period map.

Action coordinates are the squared moduli (r0, r1) = (|z0|^2, |z1|^2) of the
unit representative; the moment triangle is {r0 >= 0, r1 >= 0, r0 + r1 <= 1}.
The fiber over an interior point is the torus

    (theta0, theta1) |-> [sqrt(r0) e^{i theta0} : sqrt(r1) e^{i theta1} : sqrt(1 - r0 - r1)]

whose basis cycles d1, d2 (and their sum d3 = d1 + d2) bound standard discs
with symplectic areas r0, r1 and r0 + r1.  Periods are boundary integrals
(:func:`lagrtori.geometry.loop_symplectic_area`) around these cycles.

Action coordinates and the exact integral-level enumeration live in
:mod:`lagrtori.lattice` and are re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    BoundaryFiber,
    LeavesTriangle,
    StencilOutOfDomain,
    UnsupportedClass,
)
from .geometry import loop_symplectic_area
from .lattice import (  # re-exported: the exact layer lives in lattice
    ActionCoords,
    BSFiberSet,
    HilbertComparison,
    enumerate_bs_fibers,
    hilbert_dimension,
    interior_rational_grid,
)
from .maslov import DiscWithBoundary

_TWO_PI = 2.0 * math.pi
# angles per axis on which a deformation must keep the actions in the triangle
_CHECK_GRID = 64
# Step of the difference stencil for the exact part of a deformation.  A power
# of two makes the stencil angles theta +- k h exact for almost every sample
# angle; a step such as 1e-3 rounds them and leaves a bias of about 2e-15 in
# the periods.
_FD_STEP = 2.0 ** -10


@dataclass(frozen=True)
class HomologyClass:
    """First-homology class of the fiber torus in the (d1, d2) basis."""

    p: int
    q: int

    def __add__(self, other: "HomologyClass") -> "HomologyClass":
        return HomologyClass(self.p + other.p, self.q + other.q)


D1 = HomologyClass(1, 0)
D2 = HomologyClass(0, 1)
D3 = HomologyClass(1, 1)


@dataclass(frozen=True)
class CliffordFiber:
    """The lagrangian torus fiber over an interior point of the triangle."""

    base: ActionCoords

    def lift(self, theta0, theta1) -> np.ndarray:
        """Coordinate lift at angle parameters (radians), vectorized."""
        r0, r1 = self.base.as_floats()
        theta0 = np.asarray(theta0, dtype=float)
        theta1 = np.asarray(theta1, dtype=float)
        shape = np.broadcast(theta0, theta1).shape
        z0 = math.sqrt(r0) * np.exp(1j * theta0) * np.ones(shape)
        z1 = math.sqrt(r1) * np.exp(1j * theta1) * np.ones(shape)
        z2 = math.sqrt(1.0 - r0 - r1) * np.ones(shape, dtype=complex)
        return np.stack([z0, z1, z2], axis=-1)

    def tangent_frame(self, theta0, theta1) -> tuple[np.ndarray, np.ndarray]:
        """Lifts of the angle coordinate fields d/dtheta0, d/dtheta1."""
        z = self.lift(theta0, theta1)
        e1 = np.zeros_like(z)
        e2 = np.zeros_like(z)
        e1[..., 0] = 1j * z[..., 0]
        e2[..., 1] = 1j * z[..., 1]
        return e1, e2


def clifford_fiber(base: ActionCoords | tuple) -> CliffordFiber:
    """Fiber constructor; rejects boundary points of the triangle.

    Boundary fibers degenerate to circles or points and carry no torus
    parametrization, so they raise BoundaryFiber.
    """
    if not isinstance(base, ActionCoords):
        base = ActionCoords(*base)
    if not base.is_interior():
        raise BoundaryFiber(f"({base.r0}, {base.r1}) lies on the triangle boundary")
    return CliffordFiber(base)


# ---------------------------------------------------------------------------
# standard bounding discs
# ---------------------------------------------------------------------------


def standard_disc(fiber: CliffordFiber, cls: HomologyClass) -> DiscWithBoundary:
    """Standard bounding disc for a basis cycle d1, d2 or the diagonal d3.

    For d1 the disc is the family of d1-circles over the level segment from
    (r0, r1) down to (0, r1), radially smoothed; its area is r0.  The d2 disc
    mirrors it with area r1.  For d3 the disc lives in the affine chart around
    [0:0:1] with the diagonal boundary cycle theta0 = theta1; its area is
    r0 + r1 and its index is 2.  All three stay inside the chart {z2 != 0}.

    Each disc has a lift that is nonvanishing on the whole disc and whose
    boundary is the boundary loop (for d3 a positive multiple of it), so by
    Stokes the disc area is the boundary integral of ``boundary_loop``.
    """
    if cls == D1:
        loop = lambda t: fiber.lift(_TWO_PI * np.asarray(t), 0.0)
        frame = lambda t: fiber.tangent_frame(_TWO_PI * np.asarray(t), 0.0)
    elif cls == D2:
        loop = lambda t: fiber.lift(0.0, _TWO_PI * np.asarray(t))
        frame = lambda t: fiber.tangent_frame(0.0, _TWO_PI * np.asarray(t))
    elif cls == D3:
        loop = lambda t: fiber.lift(_TWO_PI * np.asarray(t), _TWO_PI * np.asarray(t))
        frame = lambda t: fiber.tangent_frame(_TWO_PI * np.asarray(t), _TWO_PI * np.asarray(t))
    else:
        raise UnsupportedClass(f"no standard disc for class ({cls.p}, {cls.q})")
    return DiscWithBoundary(boundary_loop=loop, frame=frame, chart=2)


class FiberPeriods(NamedTuple):
    p1: float
    p2: float
    p1_error: float
    p2_error: float


def _mod_unit(x: float) -> float:
    return x - math.floor(x)


def _loop_periods(loops, level: int) -> FiberPeriods:
    """``level`` times the boundary integrals around the d1 and d2 loops,
    mod 1, with ``level`` times their errors."""
    ests = [loop_symplectic_area(loop) for loop in loops]
    return FiberPeriods(*(_mod_unit(level * e.value) for e in ests),
                        *(level * e.error for e in ests))


def fiber_periods(base: ActionCoords | tuple, level: int = 1) -> FiberPeriods:
    """Periods of the fiber's basis cycles at integrality level ``level``.

    Each period is ``level`` times the standard-disc area, reduced mod 1 to
    [0, 1); at level 1 they recover the action coordinates of the base.  The
    areas are boundary integrals around the standard discs' boundary loops;
    the errors are ``level`` times the boundary rule's level disagreement.
    """
    fiber = clifford_fiber(base)
    return _loop_periods([standard_disc(fiber, cls).boundary_loop for cls in (D1, D2)],
                         level)


def diagonal_period(base: ActionCoords | tuple, level: int = 1) -> tuple[float, float]:
    """Period of the diagonal cycle d3 (sum of the basis periods mod 1)."""
    fiber = clifford_fiber(base)
    est = loop_symplectic_area(standard_disc(fiber, D3).boundary_loop)
    return (_mod_unit(level * est.value), level * est.error)


# ---------------------------------------------------------------------------
# Jacobian of the lifted period map
# ---------------------------------------------------------------------------


class KSResult(NamedTuple):
    jacobian: np.ndarray
    determinant: float


def ks_jacobian(base: ActionCoords | tuple, step: float = 1e-4) -> KSResult:
    """Central finite-difference Jacobian of the lifted period map.

    The lift is fixed by requiring both periods nonnegative and vanishing on
    the edges where their cycles collapse; inside the triangle it is the map
    to the level-1 periods (p1, p2) of :func:`fiber_periods`, which the
    stencil differences.  Raises StencilOutOfDomain when the stencil would
    leave the open triangle.
    """
    if not isinstance(base, ActionCoords):
        base = ActionCoords(*base)
    r0, r1 = base.as_floats()
    pts = [(r0 + step, r1), (r0 - step, r1), (r0, r1 + step), (r0, r1 - step)]
    for (a, b) in pts:
        if a <= 0 or b <= 0 or a + b >= 1:
            raise StencilOutOfDomain(
                f"stencil point ({a}, {b}) leaves the open triangle"
            )
    vals = [np.array(fiber_periods((a, b))[:2]) for (a, b) in pts]
    col0 = (vals[0] - vals[1]) / (2.0 * step)
    col1 = (vals[2] - vals[3]) / (2.0 * step)
    jac = np.stack([col0, col1], axis=-1)
    return KSResult(jac, float(np.linalg.det(jac)))


# ---------------------------------------------------------------------------
# graph deformations of a fiber
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeformationSpec:
    """A closed deformation one-form c1 dtheta0/2pi + c2 dtheta1/2pi + s df.

    ``c1``, ``c2`` are the closed-form class in area units: moving along the
    deformation shifts the d1/d2 periods by exactly (s*c1, s*c2).  ``f`` is a
    smooth real function of the two angle parameters (radians, 2pi-periodic);
    its differential is the exact part and moves no period.
    """

    c1: float
    c2: float
    f: Callable | None = None
    scale: float = 1.0


def _angle_gradient(f: Callable, theta0, theta1, h: float):
    def d(axis):
        if axis == 0:
            return (
                8.0 * (f(theta0 + h, theta1) - f(theta0 - h, theta1))
                - (f(theta0 + 2 * h, theta1) - f(theta0 - 2 * h, theta1))
            ) / (12.0 * h)
        return (
            8.0 * (f(theta0, theta1 + h) - f(theta0, theta1 - h))
            - (f(theta0, theta1 + 2 * h) - f(theta0, theta1 - 2 * h))
        ) / (12.0 * h)

    return d(0), d(1)


def _deformed_actions(fiber: CliffordFiber, spec: DeformationSpec, theta0, theta1):
    r0, r1 = fiber.base.as_floats()
    # one-form coefficients in area units per unit angle fraction
    if spec.f is None:
        g0 = np.zeros(np.broadcast(theta0, theta1).shape)
        g1 = np.zeros_like(g0)
    else:
        g0, g1 = _angle_gradient(spec.f, np.asarray(theta0, float),
                                 np.asarray(theta1, float), _FD_STEP)
    i0 = r0 + spec.scale * (spec.c1 + g0)
    i1 = r1 + spec.scale * (spec.c2 + g1)
    return i0, i1


def _check_stays_inside(fiber: CliffordFiber, spec: DeformationSpec) -> None:
    grid = np.linspace(0.0, _TWO_PI, _CHECK_GRID, endpoint=False)
    g0, g1 = np.meshgrid(grid, grid, indexing="ij")
    i0, i1 = _deformed_actions(fiber, spec, g0, g1)
    margin = 1e-9
    if np.min(i0) <= margin or np.min(i1) <= margin or np.max(i0 + i1) >= 1 - margin:
        raise LeavesTriangle("deformed action values exit the open moment triangle")


def _deformed_lift(fiber: CliffordFiber, spec: DeformationSpec, theta0, theta1):
    """Coordinate lift of the graph torus at angle parameters (radians)."""
    i0, i1 = _deformed_actions(fiber, spec, theta0, theta1)
    z0 = np.sqrt(i0) * np.exp(1j * theta0)
    z1 = np.sqrt(i1) * np.exp(1j * theta1)
    z2 = np.sqrt(1.0 - i0 - i1) * np.ones_like(z0)
    return np.stack([z0, z1, z2], axis=-1)


def _deformed_cycle(fiber: CliffordFiber, spec: DeformationSpec, cls: HomologyClass):
    """Lifted loop of the deformed d1 or d2 cycle (the other angle fixed at 0)."""

    def loop(t):
        theta = _TWO_PI * np.asarray(t, dtype=float)
        zero = np.zeros_like(theta)
        if cls == D1:
            return _deformed_lift(fiber, spec, theta, zero)
        return _deformed_lift(fiber, spec, zero, theta)

    return loop


def deformed_fiber_periods(fiber: CliffordFiber, spec: DeformationSpec,
                           level: int = 1) -> FiberPeriods:
    """Periods of the deformed torus: one boundary integral per deformed cycle.

    The deformed d_i cycle bounds the fiber's standard disc glued to the tube
    that interpolates the action values between the two cycles at fixed
    angle.  That chain has a nonvanishing lift (the interpolated actions stay
    in the open triangle), so by Stokes its area is the boundary integral
    around the deformed cycle alone.
    """
    if level < 1:
        raise ValueError("level must be positive")
    _check_stays_inside(fiber, spec)
    return _loop_periods([_deformed_cycle(fiber, spec, cls) for cls in (D1, D2)],
                         level)
