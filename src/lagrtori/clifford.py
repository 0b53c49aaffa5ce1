"""The torus fibration of the plane by moduli levels: fibers, discs, periods,
and the lifted period map.

Action coordinates are the squared moduli (r0, r1) = (|z0|^2, |z1|^2) of the
unit representative; the moment triangle is {r0 >= 0, r1 >= 0, r0 + r1 <= 1}.
The fiber over an interior point is the torus

    (theta0, theta1) |-> [sqrt(r0) e^{i theta0} : sqrt(r1) e^{i theta1} : sqrt(1 - r0 - r1)]

whose basis cycles d1, d2 (and their sum d3 = d1 + d2) bound standard discs
with symplectic areas r0, r1 and r0 + r1 (Cho-Oh, Asian J. Math. 10, 2006);
periods are these areas, exact and rounded once; deformed ones closed forms.

Action coordinates and the exact integral-level enumeration live in
:mod:`lagrtori.lattice` and are re-exported here.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import BoundaryFiber, LeavesTriangle, UnsupportedClass
from .geometry import _mod_unit
from .lattice import (  # re-exported: the exact layer lives in lattice
    ActionCoords,
    BSFiberSet,
    HilbertComparison,
    enumerate_bs_fibers,
    hilbert_dimension,
    interior_rational_grid,
)
from .lattice import rounding_floor
from .maslov import DiscWithBoundary

_TWO_PI = 2.0 * math.pi
# angles per axis on which a deformation must keep the actions in the triangle
_CHECK_GRID = 64
# Step of the difference stencil for the exact part of a deformation.  A power
# of two makes the stencil angles theta +- k h exact for almost every sample
# angle; a step such as 1e-3 rounds them and leaves a bias of about 2e-15 in
# the periods.
_FD_STEP = 2.0 ** -10
# a deformed period level (r + scale c) rounds this many times
_DEFORMED_ROUNDINGS = 4


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
    In chart c the frame determinant is sqrt(r0 r1 r2) / r_c^(3/2) times
    e^{2 pi i m_c t}, m_c = p + q - 3 (p, q, 0)[c]: the index there is m_c and
    ``det_lipschitz(c)`` is 2 pi |m_c| times that modulus.
    """
    if cls not in (D1, D2, D3):
        raise UnsupportedClass(f"no standard disc for class ({cls.p}, {cls.q})")
    # the boundary cycle of class (p, q) is t |-> (2 pi p t, 2 pi q t)
    w0, w1 = _TWO_PI * cls.p, _TWO_PI * cls.q
    loop = lambda t: fiber.lift(w0 * np.asarray(t), w1 * np.asarray(t))
    frame = lambda t: fiber.tangent_frame(w0 * np.asarray(t), w1 * np.asarray(t))
    r0, r1 = fiber.base.as_floats()
    r = (r0, r1, 1.0 - r0 - r1)
    m = [cls.p + cls.q - 3 * k for k in (cls.p, cls.q, 0)]
    lip = lambda c: _TWO_PI * abs(m[c]) * math.sqrt(math.prod(r)) / r[c] ** 1.5
    return DiscWithBoundary(boundary_loop=loop, frame=frame, chart=2, det_lipschitz=lip)


class FiberPeriods(NamedTuple):
    p1: float
    p2: float
    p1_error: float
    p2_error: float


def _period(base, cls: HomologyClass, level) -> tuple[float, float]:
    """``level`` (p r0 + q r1) mod 1 on the base's exact integers, rounded
    once, and its ulp as the error (a value rounded up to 1 reads 0)."""
    level = operator.index(level)
    if level < 1:
        raise ValueError("level must be positive")
    n0, d0, n1, d1 = clifford_fiber(base).base.exact
    value = level * (cls.p * n0 * d1 + cls.q * n1 * d0) % (d0 * d1) / (d0 * d1)
    return value % 1.0, math.ulp(value)


def fiber_periods(base: ActionCoords | tuple, level: int = 1) -> FiberPeriods:
    """Periods of the basis cycles at integrality level ``level``: ``level``
    r0 and ``level`` r1 mod 1 on the base's exact integers, rounded once to
    [0, 1), with the ulp as error.  TypeError for a non-integer ``level``,
    ValueError below 1."""
    (p1, e1), (p2, e2) = (_period(base, cls, level) for cls in (D1, D2))
    return FiberPeriods(p1, p2, e1, e2)


def diagonal_period(base: ActionCoords | tuple, level: int = 1) -> tuple[float, float]:
    """Period ``level`` (r0 + r1) mod 1 of d3 and its error, as in :func:`fiber_periods`."""
    return _period(base, D3, level)


# ---------------------------------------------------------------------------
# Jacobian of the lifted period map
# ---------------------------------------------------------------------------


class KSResult(NamedTuple):
    jacobian: np.ndarray
    determinant: float


def ks_jacobian(base: ActionCoords | tuple) -> KSResult:
    """Jacobian of the lifted period map at an interior base: the identity.

    The lift is fixed by requiring both periods nonnegative and vanishing on
    the edges where their cycles collapse.  Inside the triangle the level-1
    periods of :func:`fiber_periods` are r0 and r1 themselves, since
    0 < r0, r1 < 1 there, so the lifted period map is (r0, r1) -> (r0, r1),
    with the identity as Jacobian and determinant 1.  BoundaryFiber for a
    base on the boundary, as for :func:`clifford_fiber`.
    """
    clifford_fiber(base)
    return KSResult(np.eye(2), 1.0)


# ---------------------------------------------------------------------------
# graph deformations of a fiber
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeformationSpec:
    """A closed deformation one-form c1 dtheta0/2pi + c2 dtheta1/2pi + s df.

    ``c1``, ``c2`` are the closed-form class in area units: moving along the
    deformation shifts the d1/d2 periods by exactly (s*c1, s*c2).  ``f`` is a
    smooth real function of the two angle parameters (radians, 2pi-periodic);
    its differential is the exact part and moves no period.  ValueError for
    a ``c1``, ``c2`` or ``scale`` that is not finite.
    """

    c1: float
    c2: float
    f: Callable | None = None
    scale: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.c1, self.c2, self.scale)):
            raise ValueError("deformation c1, c2 and scale must be finite")


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
    # stated so that a NaN action fails it
    if not (np.min(i0) > margin and np.min(i1) > margin and np.max(i0 + i1) < 1 - margin):
        raise LeavesTriangle("deformed action values exit the open moment triangle")


def deformed_fiber_periods(fiber: CliffordFiber, spec: DeformationSpec,
                           level: int = 1) -> FiberPeriods:
    """Periods of the deformed torus: ``level`` (r_i + scale c_i) mod 1.

    The deformed d_i cycle bounds the fiber's standard disc glued to the tube
    that interpolates the action values between the two cycles at fixed
    angle, so its area is the mean of the action i_0 (or i_1) along the
    cycle.  The exact part df has mean 0 there, so that is the closed form
    :class:`DeformationSpec` promises; a sampled rule would alias a
    high-frequency f.  The errors are rounding floors.  LeavesTriangle if the
    actions leave the open triangle on the check grid, or are NaN there;
    TypeError for a non-integer ``level``, ValueError below 1.
    """
    level = operator.index(level)
    if level < 1:
        raise ValueError("level must be positive")
    _check_stays_inside(fiber, spec)
    areas = [level * (r + spec.scale * c)
             for r, c in zip(fiber.base.as_floats(), (spec.c1, spec.c2))]
    return FiberPeriods(*(_mod_unit(x) for x in areas),
                        *(rounding_floor(_DEFORMED_ROUNDINGS, x) for x in areas))
