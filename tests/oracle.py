"""Independent 2-D oracle for the areas the package computes by Stokes.

Every area in ``lagrtori`` is a 1-D boundary integral of the primitive of
the form.  This module integrates the form itself over a parametrized
surface: it pulls the form back through fourth-order central differences of
the lift and integrates with tensor Gauss-Legendre quadrature, refining once
to estimate the error.  It also holds the linear coning of a loop to a
basepoint, a random unitary and the consistency check of a disc with
boundary, which only the tests use.

For the exact layer it holds the dichotomy in plain ``Fraction`` operators
and the ``bs-count`` and ``enc-report`` texts built as one payload of row
dicts and encoded by :func:`json.dumps`, the references for the integer
decisions and the streamed reports.

The difference step ``step`` defaults to 1e-3.  The Chekanov torus needs
3e-5, because its orbit radius varies steeply in t when the parameter
circle passes near the singular member; the coned discs use 2.5e-4.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from lagrtori import __version__
from lagrtori.errors import (
    BoundaryMismatch,
    ChartEscape,
    InternalContradiction,
    LagrtoriError,
    NonConvergent,
)
from lagrtori.geometry import (
    AreaEstimate,
    ParamSurface,
    _unit_rows,
    fs_pullback_raw,
    hermdot,
)
from lagrtori.lattice import ActionCoords, MonotoneWitness, SwapImage, is_monotone
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


# ---------------------------------------------------------------------------
# the exact layer in Fraction operators, and the reports as one payload
# ---------------------------------------------------------------------------


def reference_is_interior(base: ActionCoords) -> bool:
    return base.r0 > 0 and base.r1 > 0 and base.r0 + base.r1 < 1


def reference_swap_image(base: ActionCoords) -> SwapImage | None:
    r0, r1 = base.r0, base.r1
    if r0 != r1:
        jk, img = (0, 1), (r1, r0)
    else:
        r2 = base.r2
        if r2 == r0:
            return None
        jk, img = (1, 2), (r0, r2)
    return SwapImage(jk, img, math.hypot(float(img[0] - r0), float(img[1] - r1)))


def reference_dichotomy(base: ActionCoords, tol: float = 1e-9):
    if not reference_is_interior(base):
        raise ValueError("verdict expects an interior fiber")
    move = reference_swap_image(base)
    vals = (base.r0, base.r1)
    if all(isinstance(v, Fraction) for v in vals):
        canonical = all((3 * v).denominator == 1 for v in vals)
    else:
        canonical = all(abs(3 * float(v) - round(3 * float(v))) <= tol for v in vals)
    witness = None
    if canonical:
        r0, r1 = float(base.r0), float(base.r1)
        witness = is_monotone((r0, r1, r0 + r1), (1, 1, 2))
    monotone = witness is not None and witness.monotone
    if (move is not None) == monotone:
        raise InternalContradiction(f"fiber ({base.r0}, {base.r1})")
    return witness if monotone else move


def _pair(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def _envelope_text(command: str, params: dict, results: dict, diagnostics: dict) -> str:
    body = {"command": command, "version": __version__, "params": params,
            "results": results, "diagnostics": diagnostics}
    return json.dumps(body, sort_keys=True, indent=2, separators=(",", ": "),
                      allow_nan=False) + "\n"


def bs_count_text(level: int, closed: bool = False) -> str:
    """The JSON text of ``bs-count --level level [--closed]``."""
    lo, hi = (0, level) if closed else (1, level - 1)
    fibers = [[_pair(Fraction(i, level)), _pair(Fraction(j, level))]
              for i in range(lo, hi + 1) for j in range(lo, hi - i + 1)]
    deg = level if closed else level - 3
    dimension = (deg + 1) * (deg + 2) // 2 if deg >= 0 else 0
    results = {"count": len(fibers), "fibers": fibers,
               "hilbert_dimension": dimension, "match": len(fibers) == dimension}
    return _envelope_text("bs-count", {"level": level, "closed": closed, "format": "json"},
                          results, {"tolerances": {"arithmetic": "exact rational"}})


def enc_report_text(grid: int) -> str:
    """The JSON text of ``enc-report --grid grid``."""
    den = grid + 2
    rows, monotone_points = [], []
    for i in range(1, grid + 1):
        for j in range(1, grid + 2 - i):
            r0, r1 = Fraction(i, den), Fraction(j, den)
            base = [_pair(r0), _pair(r1)]
            outcome = reference_dichotomy(ActionCoords(r0, r1))
            if isinstance(outcome, MonotoneWitness):
                monotone_points.append(base)
                rows.append({"base": base, "verdict": "monotone",
                             "bs_defect": outcome.bs_defect,
                             "universal_class": list(outcome.universal_class)})
            else:
                rows.append({"base": base, "verdict": "displaceable",
                             "swap": list(outcome.swap), "separation": outcome.separation})
    results = {"grid": grid, "denominator": den, "points": len(rows),
               "monotone_points": monotone_points, "monotone_count": len(monotone_points),
               "displaceable_count": len(rows) - len(monotone_points), "rows": rows}
    return _envelope_text("enc-report", {"grid": grid}, results,
                          {"tolerances": {"arithmetic": "exact rational", "bs_tol": 1e-9}})
