"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own class;
anything else surfaces as a plain ValueError.  All classes derive from
:class:`LagrtoriError` so that library consumers can catch with one handler.
"""

from __future__ import annotations


class LagrtoriError(Exception):
    """Base class for all package-specific errors."""


class ZeroVector(LagrtoriError):
    """A homogeneous coordinate triple has no usable magnitude."""


class NonConvergent(LagrtoriError):
    """Successive quadrature levels disagree beyond tolerance."""


class BoundaryFiber(LagrtoriError):
    """Action coordinates lie on the boundary of the moment triangle."""


class UnsupportedClass(LagrtoriError):
    """A homology class has no standard bounding disc."""


class LeavesTriangle(LagrtoriError):
    """A deformation pushes action values outside the open moment triangle."""


class DeterminantVanishes(LagrtoriError):
    """The frame determinant is too small to certify a winding number."""


class ChartEscape(LagrtoriError):
    """A surface or loop exits the affine chart it was declared to live in."""


class BoundaryMismatch(LagrtoriError):
    """Two discs that must share a boundary loop do not."""


class NotCanonicalBS(LagrtoriError):
    """Periods fail the integrality test that the universal class requires."""


class SingularConic(LagrtoriError):
    """The requested pencil member is singular (parameter 0 or infinity)."""


class DegenerateFamily(LagrtoriError):
    """The pencil-parameter circle passes through the singular member."""


class NotHermitian(LagrtoriError):
    """A flow generator is not a symmetric 3x3 matrix of integers."""


class NotChekanovType(LagrtoriError):
    """An operation requires the a < |mu| regime."""


class InternalContradiction(LagrtoriError):
    """Displacement and monotonicity certificates disagree."""
