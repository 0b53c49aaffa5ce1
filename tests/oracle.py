"""Independent 2-D oracle for the areas the package computes by Stokes.

Every area in ``lagrtori`` is a 1-D boundary integral of the primitive of
the form.  This module integrates the form itself over a parametrized
surface: it pulls the form back through fourth-order central differences of
the lift and integrates with tensor Gauss-Legendre quadrature, refining once
to estimate the error.  It also holds the linear coning of a loop to a
basepoint, a random unitary and the consistency check of a disc with
boundary, which only the tests use.

The difference step ``step`` defaults to 1e-3.  The Chekanov torus needs
3e-5, because its orbit radius varies steeply in t when the parameter
circle passes near the singular member; the coned discs use 2.5e-4.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from lagrtori.errors import BoundaryMismatch, ChartEscape, LagrtoriError, NonConvergent
from lagrtori.geometry import (
    AreaEstimate,
    ParamSurface,
    _unit_rows,
    fs_pullback_raw,
    hermdot,
)
from lagrtori.maslov import _CHART_FLOOR, DiscWithBoundary

_CONE_FLOOR = 1e-2


class ConingDegenerate(LagrtoriError):
    """A coning chord passes too close to the origin of coordinate space."""


def _gl_nodes_01(n: int):
    x, w = leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def surface_lift_partial(surface: ParamSurface, s, t, axis: int,
                         step: float = 1e-3) -> np.ndarray:
    """Fourth-order central difference of the lift along one axis."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    x = s if axis == 0 else t
    if surface.periodic[axis]:
        h = np.full(x.shape, step)
    else:
        margin = np.minimum(x, 1.0 - x)
        h = np.minimum(step, margin * 0.4999)
        if np.any(h <= 1e-12):
            raise ValueError("finite-difference stencil pinched at the domain edge")

    def ev(off):
        if axis == 0:
            return surface._eval(s + off, t)
        return surface._eval(s, t + off)

    hh = h[..., None]
    return (8.0 * (ev(h) - ev(-h)) - (ev(2.0 * h) - ev(-2.0 * h))) / (12.0 * hh)


def surface_form_grid(surface: ParamSurface, s, t, step: float = 1e-3) -> np.ndarray:
    """Pullback of the form onto parameter space, sampled on arrays."""
    z = surface._eval(s, t)
    u = surface_lift_partial(surface, s, t, 0, step)
    v = surface_lift_partial(surface, s, t, 1, step)
    return fs_pullback_raw(z, u, v)


def _area_once(surface: ParamSurface, n: int, weight_fn=None,
               step: float = 1e-3) -> float:
    xs, ws = _gl_nodes_01(n)
    mesh_s, mesh_t = np.meshgrid(xs, xs, indexing="ij")
    k = surface_form_grid(surface, mesh_s, mesh_t, step)
    if weight_fn is not None:
        k = k * weight_fn(surface, mesh_s, mesh_t)
    return float(np.einsum("i,j,ij->", ws, ws, k))


def surface_symplectic_area(surface: ParamSurface, n: int = 32, tol: float = 1e-6,
                            weight_fn=None, step: float = 1e-3) -> AreaEstimate:
    """Symplectic area of a parametrized surface by the 2-D rule.

    ``weight_fn(surface, s, t)``, if given, multiplies the integrand (for
    weighted integrals of functions against the form).  The value is the
    level at ``2 * n`` nodes per axis and the error its disagreement with
    ``n``; NonConvergent is raised when that exceeds ``tol``.
    """
    coarse, fine = (_area_once(surface, m, weight_fn, step) for m in (n, 2 * n))
    err = abs(fine - coarse)
    if err > tol:
        raise NonConvergent(f"refinements disagree by {err:.3e} > {tol:.1e}")
    return AreaEstimate(fine, err, 2 * n)


def cone_disc(loop_lift: Callable[[np.ndarray], np.ndarray], basepoint: np.ndarray,
              check_grid: int = 201) -> ParamSurface:
    """Disc bounding a loop by linear coning of its unit lift to a basepoint.

    Raises ConingDegenerate when the chord between the basepoint and the
    loop passes too close to the origin of coordinate space, which would
    puncture the disc projectively.
    """
    base = _unit_rows(np.asarray(basepoint, dtype=complex))

    def lift(s, t):
        s = np.asarray(s, dtype=float)
        loop = _unit_rows(np.asarray(loop_lift(np.asarray(t, dtype=float)), dtype=complex))
        return (1.0 - s[..., None]) * base + s[..., None] * loop

    surf = ParamSurface(lift, periodic=(False, True))
    g = np.linspace(0.0, 1.0, check_grid)
    mesh_s, mesh_t = np.meshgrid(g, g, indexing="ij")
    low = float(np.min(np.linalg.norm(surf._eval(mesh_s, mesh_t), axis=-1)))
    if low < _CONE_FLOOR:
        raise ConingDegenerate(f"coning chord norm drops to {low:.3e}")
    return surf


def random_unitary(rng: np.random.RandomState) -> np.ndarray:
    """Haar-ish random unitary from a QR factorization."""
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def validate_disc(d: DiscWithBoundary, samples: int = 48) -> None:
    """Check that the disc edge is the boundary loop and the disc stays in
    its chart (BoundaryMismatch, ChartEscape)."""
    t = np.linspace(0.0, 1.0, samples, endpoint=False)
    edge = _unit_rows(d.disc._eval(np.ones_like(t), t))
    loop = _unit_rows(np.asarray(d.boundary_loop(t), dtype=complex))
    agree = np.abs(np.abs(hermdot(edge, loop)) - 1.0)
    if np.max(agree) > 1e-10:
        raise BoundaryMismatch(
            f"disc edge differs from boundary loop by {np.max(agree):.3e}"
        )
    grid = np.linspace(0.0, 1.0, samples)
    mesh_s, mesh_t = np.meshgrid(grid, grid, indexing="ij")
    z = _unit_rows(d.disc._eval(mesh_s, mesh_t))
    low = np.min(np.abs(z[..., d.chart]))
    if low < _CHART_FLOOR:
        raise ChartEscape(
            f"disc sample has |z_{d.chart}| = {low:.3e} < {_CHART_FLOOR:.1e}"
        )
