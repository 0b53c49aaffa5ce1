"""Independent 2-D oracle for the areas the package computes by Stokes.

Every area in ``lagrtori`` is a 1-D boundary integral of the primitive of
the form, and the package keeps only loops and lift functions.  This module
holds the surfaces themselves: the line, the in-conic discs, the standard
discs of a fiber, the fiber and its deformed graphs.  It integrates the form
over them: it pulls the form back through fourth-order central differences
of the lift and integrates with tensor Gauss-Legendre quadrature, refining
once to estimate the error.  It also holds the linear coning of a loop to a
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
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from lagrtori import __version__
from lagrtori.clifford import (
    D1,
    D2,
    CliffordFiber,
    DeformationSpec,
    HomologyClass,
    _check_stays_inside,
    _deformed_lift,
)
from lagrtori.errors import (
    BoundaryMismatch,
    ChartEscape,
    InternalContradiction,
    LagrtoriError,
    NonConvergent,
)
from lagrtori.geometry import FS_SCALE, AreaEstimate, _unit_rows, hermdot
from lagrtori.lattice import ActionCoords, MonotoneWitness, SwapImage, is_monotone
from lagrtori.maslov import _CHART_FLOOR, DiscWithBoundary

_CONE_FLOOR = 1e-2
_TWO_PI = 2.0 * math.pi


class Surface(NamedTuple):
    """A surface given by a lift map on the unit square.

    ``lift(s, t)`` must accept broadcasting numpy arrays and return an array
    of homogeneous coordinate triples along the last axis.  The lift need not
    be unit-norm but must be smooth (no phase jumps between neighboring
    samples).  Axes flagged periodic may be evaluated outside [0, 1] by the
    same formula.
    """

    lift: Callable[..., np.ndarray]
    periodic: tuple[bool, bool] = (False, False)

    def __call__(self, s, t) -> np.ndarray:
        return np.asarray(self.lift(s, t), dtype=complex)

    def moved(self, mat) -> "Surface":
        """The surface with its lift composed with a 3x3 matrix."""
        mat = np.asarray(mat, dtype=complex)
        return Surface(lambda s, t: np.einsum("ij,...j->...i", mat, self(s, t)),
                       self.periodic)


def fs_pullback_raw(z, u, v):
    """Value of the form on raw (not necessarily unit or horizontal) lifts.

    ``z`` is a lift of the base point and ``u``, ``v`` are derivatives of a
    family of lifts; the expression is invariant under smooth rescaling and
    rephasing of the lift, so callers may differentiate any convenient
    parametrization.  Shapes broadcast; the coordinate axis is the last one.
    """
    n = hermdot(z, z).real
    huv = hermdot(u, v)
    huz = hermdot(u, z)
    hzv = hermdot(z, v)
    return FS_SCALE * np.imag((huv * n - huz * hzv) / (n * n))


def conic_equation_residual(eps: complex, z) -> np.ndarray:
    """|z0 z1 - eps z2^2| on unit representatives (vectorized)."""
    z = _unit_rows(z)
    return np.abs(z[..., 0] * z[..., 1] - eps * z[..., 2] ** 2)


# ---------------------------------------------------------------------------
# the surfaces
# ---------------------------------------------------------------------------


def _angles(s, t):
    return np.asarray(s, dtype=float), np.exp(2j * math.pi * np.asarray(t, dtype=float))


def line_surface() -> Surface:
    """The line {z2 = 0}, complex-oriented."""

    def lift(s, t):
        s, ph = _angles(s, t)
        ang = 0.5 * math.pi * s
        return np.stack([np.cos(ang) + 0j, np.sin(ang) * ph, np.zeros_like(ph)], axis=-1)

    return Surface(lift, periodic=(False, True))


def conic_disc_surface(eps: complex, rho: float, inverted: bool = False) -> Surface:
    """In-conic disc of {z0 z1 = eps z2^2} bounded by the radius-``rho``
    orbit: anchored at [1:0:0] (lambda = 0), or with ``inverted`` in the chart
    around the other pole [0:1:0], covering the complementary side."""

    def lift(s, t):
        s, ph = _angles(s, t)
        if not inverted:
            lam = rho * s * ph
            return np.stack([np.ones_like(lam), eps * lam * lam, lam], axis=-1)
        w = s * ph / rho
        return np.stack([w * w, eps * np.ones_like(w), w], axis=-1)

    return Surface(lift, periodic=(False, True))


def standard_disc_surface(fiber: CliffordFiber, cls: HomologyClass) -> Surface:
    """The disc that ``lagrtori.clifford.standard_disc`` bounds by its loop:
    for d1 and d2 the cycle's circles shrunk radially to the edge of the
    triangle, for d3 the diagonal disc in the chart around [0:0:1]."""
    r0, r1 = fiber.base.as_floats()
    a0, a1 = math.sqrt(r0), math.sqrt(r1)
    big0, big1 = a0 / math.sqrt(1.0 - r0 - r1), a1 / math.sqrt(1.0 - r0 - r1)

    def lift(s, t):
        s, ph = _angles(s, t)
        if cls == D1:
            z = (a0 * s * ph, a1 + 0j, np.sqrt(1.0 - r0 * s * s - r1) + 0j)
        elif cls == D2:
            z = (a0 + 0j, a1 * s * ph, np.sqrt(1.0 - r0 - r1 * s * s) + 0j)
        else:
            z = (big0 * (s * ph), big1 * (s * ph), 1.0 + 0j)
        return np.stack(np.broadcast_arrays(*z), axis=-1)

    return Surface(lift, periodic=(False, True))


def fiber_surface(fiber: CliffordFiber) -> Surface:
    """The fiber torus over the unit square of angle fractions."""
    return Surface(lambda s, t: fiber.lift(_TWO_PI * np.asarray(s), _TWO_PI * np.asarray(t)),
                   periodic=(True, True))


def deformed_surface(fiber: CliffordFiber, spec: DeformationSpec) -> Surface:
    """Graph torus of the deformation one-form over the fiber, in the fiber's
    angle parametrization; LeavesTriangle when it leaves the open triangle."""
    _check_stays_inside(fiber, spec)
    return Surface(
        lambda s, t: _deformed_lift(fiber, spec, _TWO_PI * np.asarray(s, dtype=float),
                                    _TWO_PI * np.asarray(t, dtype=float)),
        periodic=(True, True),
    )


# ---------------------------------------------------------------------------
# the 2-D rule
# ---------------------------------------------------------------------------


class ConingDegenerate(LagrtoriError):
    """A coning chord passes too close to the origin of coordinate space."""


def _gl_nodes_01(n: int):
    x, w = leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def surface_lift_partial(surface: Surface, s, t, axis: int,
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
            return surface(s + off, t)
        return surface(s, t + off)

    hh = h[..., None]
    return (8.0 * (ev(h) - ev(-h)) - (ev(2.0 * h) - ev(-2.0 * h))) / (12.0 * hh)


def surface_form_grid(surface: Surface, s, t, step: float = 1e-3) -> np.ndarray:
    """Pullback of the form onto parameter space, sampled on arrays."""
    z = surface(s, t)
    u = surface_lift_partial(surface, s, t, 0, step)
    v = surface_lift_partial(surface, s, t, 1, step)
    return fs_pullback_raw(z, u, v)


def _area_once(surface: Surface, n: int, weight_fn=None,
               step: float = 1e-3) -> float:
    xs, ws = _gl_nodes_01(n)
    mesh_s, mesh_t = np.meshgrid(xs, xs, indexing="ij")
    k = surface_form_grid(surface, mesh_s, mesh_t, step)
    if weight_fn is not None:
        k = k * weight_fn(surface, mesh_s, mesh_t)
    return float(np.einsum("i,j,ij->", ws, ws, k))


def surface_symplectic_area(surface: Surface, n: int = 32, tol: float = 1e-6,
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
              check_grid: int = 201) -> Surface:
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

    surf = Surface(lift, periodic=(False, True))
    g = np.linspace(0.0, 1.0, check_grid)
    mesh_s, mesh_t = np.meshgrid(g, g, indexing="ij")
    low = float(np.min(np.linalg.norm(surf(mesh_s, mesh_t), axis=-1)))
    if low < _CONE_FLOOR:
        raise ConingDegenerate(f"coning chord norm drops to {low:.3e}")
    return surf


def random_unitary(rng: np.random.RandomState) -> np.ndarray:
    """Haar-ish random unitary from a QR factorization."""
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def validate_disc(disc: Surface, d: DiscWithBoundary, samples: int = 48) -> None:
    """Check that the edge of the surface ``disc`` is the boundary loop of
    ``d`` and that it stays in the chart of ``d`` (BoundaryMismatch,
    ChartEscape)."""
    t = np.linspace(0.0, 1.0, samples, endpoint=False)
    edge = _unit_rows(disc(np.ones_like(t), t))
    loop = _unit_rows(np.asarray(d.boundary_loop(t), dtype=complex))
    agree = np.abs(np.abs(hermdot(edge, loop)) - 1.0)
    if np.max(agree) > 1e-10:
        raise BoundaryMismatch(
            f"disc edge differs from boundary loop by {np.max(agree):.3e}"
        )
    grid = np.linspace(0.0, 1.0, samples)
    mesh_s, mesh_t = np.meshgrid(grid, grid, indexing="ij")
    z = _unit_rows(disc(mesh_s, mesh_t))
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
