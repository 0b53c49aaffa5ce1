"""Tori fibered over circles in the bitangent conic pencil.

The pencil is {z0 z1 = eps * z2^2}; every smooth member (eps not 0 or
infinity) is a conic through the two poles [1:0:0] and [0:1:0], where all
members are mutually tangent.  The circle action

    (z0, z1, z2) |-> (e^{i s} z0, e^{-i s} z1, z2)

preserves each member, and its orbits are the level circles of the in-conic
disc area measured from the pole [1:0:0].  A torus is assembled by choosing,
on each conic over a parameter circle {a e^{i t} - mu}, the orbit whose
anchored disc has area 1 + delta; because that area level is a function of
the global circle-action moment, the assembled torus is lagrangian.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DegenerateFamily,
    NonConvergent,
    SingularConic,
)
from .geometry import LOOP_NODES, AreaEstimate, loop_symplectic_area

_EPS_FLOOR = 1e-12


def _require_smooth(eps: complex) -> complex:
    eps = complex(eps)
    if not (np.isfinite(eps.real) and np.isfinite(eps.imag)):
        raise SingularConic("pencil parameter must be finite")
    if abs(eps) <= _EPS_FLOOR:
        raise SingularConic("pencil parameter 0 names the singular member")
    return eps


def radial_area(eps_abs: float, rho) -> np.ndarray:
    """Area of the in-conic disc {|lambda| <= rho} anchored at [1:0:0].

    The lift (1, eps lambda^2, lambda) has radially symmetric norm, so the
    area is the boundary term of the potential: with x = rho^2 and
    e = |eps|,  A = (x + 2 e^2 x^2) / (1 + x + e^2 x^2), increasing from 0
    to the total conic area 2.
    """
    x = np.asarray(rho, dtype=float) ** 2
    e2 = eps_abs * eps_abs
    return (x + 2.0 * e2 * x * x) / (1.0 + x + e2 * x * x)


def level_radius(eps_abs, level) -> np.ndarray:
    """Inverse of :func:`radial_area`: radius of the level-area orbit.

    Solves the quadratic e^2 (2 - level) x^2 + (1 - level) x - level = 0 for
    x = rho^2, taking the branch of the quadratic formula that avoids
    cancellation on either sign of (1 - level).
    """
    ell = np.asarray(level, dtype=float)
    if np.any(ell <= 0.0) or np.any(ell >= 2.0):
        raise ValueError("area level must lie strictly between 0 and 2")
    e2 = np.asarray(eps_abs, dtype=float) ** 2
    b = 1.0 - ell
    root = np.sqrt(b * b + 4.0 * ell * (2.0 - ell) * e2)
    denom = 2.0 * np.maximum(e2, np.finfo(float).tiny) * (2.0 - ell)
    x = np.where(b > 0.0, 2.0 * ell / (b + root), (root - b) / denom)
    return np.sqrt(x)


def _orbit(eps: complex, rho: float, t) -> np.ndarray:
    """Lift (1, eps lam^2, lam) of the orbit lam = rho e^{2 pi i t}."""
    lam = rho * np.exp(2j * math.pi * np.asarray(t, dtype=float))
    one = np.ones_like(lam)
    return np.stack([one, eps * lam * lam, lam], axis=-1)


def conic_total_area(eps: complex) -> tuple[float, float]:
    """Total symplectic area of a smooth member and its error estimate.

    The member is the union of the two anchored discs bounded by the
    area-bisecting orbit of radius rho.  The disc around [1:0:0] has the
    nonvanishing lift (1, eps lam^2, lam) over |lam| <= rho, the one around
    [0:1:0] the lift (w^2, eps, w) over |w| <= 1/rho; so by Stokes each area
    is the boundary integral around the orbit in its own lift.
    """
    eps = _require_smooth(eps)
    mid = 1.0 / math.sqrt(abs(eps))  # the area-bisecting orbit
    inv = 1.0 / mid

    def far_loop(t):
        w = inv * np.exp(2j * math.pi * np.asarray(t, dtype=float))
        return np.stack([w * w, eps * np.ones_like(w), w], axis=-1)

    ests = [loop_symplectic_area(loop)
            for loop in (functools.partial(_orbit, eps, mid), far_loop)]
    return (ests[0].value + ests[1].value, ests[0].error + ests[1].error)


class Anchor(str, enum.Enum):
    NEAR_Z0 = "z0"
    NEAR_Z1 = "z1"


@dataclass(frozen=True)
class ConicCircle:
    """A circle orbit on a conic selected by its anchored disc area."""

    eps: complex
    delta: float
    anchor: Anchor
    rho: float
    level: float  # disc area from the [1:0:0] side, in (0, 2)

    def loop(self, t) -> np.ndarray:
        return _orbit(self.eps, self.rho, t)


def conic_circle(eps: complex, delta: float,
                 anchor: Anchor | str = Anchor.NEAR_Z0) -> ConicCircle:
    """Orbit whose anchored in-conic disc has area 1 + delta.

    The anchor names which pole's disc is measured; the default [1:0:0]
    choice is a convention recorded here and exposed as a flag.  The radius
    is the closed-form :func:`level_radius` of the area level.
    """
    eps = _require_smooth(eps)
    if not -1.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between -1 and 1")
    anchor = Anchor(anchor)
    target = 1.0 + delta if anchor is Anchor.NEAR_Z0 else 1.0 - delta
    rho = float(level_radius(abs(eps), target))
    return ConicCircle(eps, delta, anchor, rho, float(radial_area(abs(eps), rho)))


# ---------------------------------------------------------------------------
# torus families over pencil-parameter circles
# ---------------------------------------------------------------------------


class TorusType(enum.Enum):
    CLIFFORD = "clifford"
    CHEKANOV = "chekanov"
    BOUNDARY = "boundary"


_BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class ChekanovParams:
    """Parameters (a, mu, delta) of a torus over the circle {a e^{it} - mu}."""

    a: float
    mu: complex
    delta: float

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError("circle radius a must be positive")
        if abs(self.mu) <= _EPS_FLOOR:
            raise ValueError("circle center mu must be nonzero")
        if not -1.0 < self.delta < 1.0:
            raise ValueError("delta must lie strictly between -1 and 1")

    def eps_of(self, t) -> np.ndarray:
        return self.a * np.exp(2j * math.pi * np.asarray(t, dtype=float)) - self.mu


def classify_type(params: ChekanovParams) -> TorusType:
    """Circle inside (a < |mu|), outside (a > |mu|) or through the origin."""
    gap = params.a - abs(params.mu)
    if abs(gap) <= _BOUNDARY_TOL:
        return TorusType.BOUNDARY
    return TorusType.CLIFFORD if gap > 0 else TorusType.CHEKANOV


def chekanov_torus(params: ChekanovParams,
                   anchor: Anchor | str = Anchor.NEAR_Z0) -> Callable[..., np.ndarray]:
    """Lift function ``lift(t, s)`` of the lagrangian torus over the
    pencil-parameter circle, vectorized over both angle fractions.

    For each t the fiber circle is the conic_circle of the member at
    eps(t) = a e^{2 pi i t} - mu, with the orbit radius obtained from the
    closed-form level_radius inverse; s is the orbit angle.  Raises
    DegenerateFamily when the parameter circle passes through the singular
    member (a = |mu| within 1e-9).
    """
    if classify_type(params) is TorusType.BOUNDARY:
        raise DegenerateFamily("parameter circle passes through the singular member")
    anchor = Anchor(anchor)
    target = 1.0 + params.delta if anchor is Anchor.NEAR_Z0 else 1.0 - params.delta

    def lift(t, s):
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        eps = params.eps_of(t)
        lam = level_radius(np.abs(eps), target) * np.exp(2j * math.pi * s)
        eps, lam = np.broadcast_arrays(eps, lam)
        one = np.ones_like(lam)
        return np.stack([one, eps * lam * lam, lam], axis=-1)

    return lift


# ---------------------------------------------------------------------------
# periods of the two torus cycles
# ---------------------------------------------------------------------------


class ChekanovPeriods(NamedTuple):
    p_orbit: float
    p_section: float
    orbit_error: float
    section_error: float
    nodes: int  # finest boundary-rule node count of the two loops


def _mod_unit(x: float) -> float:
    return x - math.floor(x)


def _loop_period(loop, nodes: int, name: str, params: ChekanovParams) -> AreaEstimate:
    try:
        return loop_symplectic_area(loop, nodes)
    except NonConvergent as exc:
        raise NonConvergent(
            f"{name} of the torus at a={params.a!r}, mu={params.mu!r},"
            f" delta={params.delta!r}: {exc}"
        ) from exc


def torus_periods_chekanov(params: ChekanovParams, nodes: int = LOOP_NODES,
                           anchor: Anchor | str = Anchor.NEAR_Z0) -> ChekanovPeriods:
    """Periods of the orbit cycle and a fixed section cycle, mod 1.

    Both are boundary integrals (:func:`loop_symplectic_area`).  The orbit
    period is the area of the anchored in-conic disc bounded by the orbit at
    t = 0, which is 1 + delta by construction; the loop bounds the [1:0:0]
    disc, so the [0:1:0] anchor takes the complement 2 - area.  The section
    period is the integral around the s = 0 curve of the torus.  The section
    class is the s = 0 convention; combined classes (section plus or minus
    the orbit) are reported by the scan.  NonConvergent names the loop and
    the torus parameters.
    """
    anchor = Anchor(anchor)
    circle0 = conic_circle(complex(params.eps_of(0.0)), params.delta, anchor)
    orbit = _loop_period(circle0.loop, nodes, "orbit loop", params)
    p_orbit = orbit.value if anchor is Anchor.NEAR_Z0 else 2.0 - orbit.value

    torus = chekanov_torus(params, anchor)
    section = _loop_period(lambda t: torus(t, np.zeros_like(t)), nodes,
                           "section loop", params)
    return ChekanovPeriods(_mod_unit(p_orbit), _mod_unit(section.value),
                           orbit.error, section.error, max(orbit.nodes, section.nodes))


# ---------------------------------------------------------------------------
# integrality scan over the (a, delta) grid
# ---------------------------------------------------------------------------


# Reported periods and defects keep this many decimals: the boundary rule
# vouches for 1e-12, so the printed digits hold across platforms.
REPORT_DECIMALS = 10


def _lattice_distance(x: float) -> float:
    return abs(x - round(x))


def _reported(x: float) -> float:
    return round(x, REPORT_DECIMALS)


# Level disagreements below this are summation noise of a unit-scale FFT sum.
_ERROR_FLOOR = 1e-14


def _reported_error(x: float) -> float:
    """Error estimate rounded up to a power of ten, at least _ERROR_FLOOR.

    The reported value bounds the measured disagreement; its noise digits,
    which vary with the FFT and CPU, are not printed.
    """
    return 10.0 ** math.ceil(math.log10(max(x, _ERROR_FLOOR)))


@dataclass(frozen=True)
class ScanRow:
    """One grid torus.  Periods and defects are rounded to REPORT_DECIMALS,
    error estimates up to a power of ten."""

    a: float
    delta: float
    p_orbit: float
    p_section: float
    defect: float
    defect_orbit: float
    defect_section: tuple[float, float, float]  # section - orbit, section, section + orbit
    orbit_error: float
    section_error: float
    nodes: int  # finest boundary-rule node count behind the two periods


@dataclass(frozen=True)
class ScanReport:
    mu: complex
    rows: tuple[ScanRow, ...]
    min_defect: float
    argmin: tuple[float, float]

    def to_csv(self) -> str:
        lines = ["a,delta,p_orbit,p_section,defect"]
        for r in self.rows:
            lines.append(
                f"{r.a!r},{r.delta!r},{r.p_orbit!r},{r.p_section!r},{r.defect!r}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "mu": [self.mu.real, self.mu.imag],
            "rows": [
                {
                    "a": r.a,
                    "delta": r.delta,
                    "p_orbit": r.p_orbit,
                    "p_section": r.p_section,
                    "defect": r.defect,
                    "defect_orbit": r.defect_orbit,
                    "defect_section_combined": list(r.defect_section),
                    "orbit_error": r.orbit_error,
                    "section_error": r.section_error,
                    "nodes": r.nodes,
                }
                for r in self.rows
            ],
            "min_defect": self.min_defect,
            "argmin": list(self.argmin),
        }


def _scan_point(mu: complex, a: float, delta: float, nodes: int) -> ScanRow:
    periods = torus_periods_chekanov(ChekanovParams(a, mu, delta), nodes)
    # reduce after rounding, so a period within 5e-11 below 1 reads 0.0
    p_orb = _mod_unit(_reported(periods.p_orbit))
    p_sec = _mod_unit(_reported(periods.p_section))
    d_orb = _reported(_lattice_distance(3.0 * p_orb))
    combos = tuple(
        _reported(_lattice_distance(3.0 * (p_sec + m * p_orb))) for m in (-1, 0, 1)
    )
    defect = max(d_orb, min(combos))
    return ScanRow(a, delta, p_orb, p_sec, defect, d_orb, combos,
                   _reported_error(periods.orbit_error),
                   _reported_error(periods.section_error), periods.nodes)


def canonical_bs_scan(mu: complex, a_grid, delta_grid,
                      nodes: int = LOOP_NODES) -> ScanReport:
    """Tripled-period integrality defects over an (a, delta) grid.

    For each grid torus the defect is max(orbit defect, best combined section
    defect); the report carries the grid minimum and its location.  The grid
    must stay in the a < |mu| regime.  Rows are computed in grid order so
    reports are deterministic.
    """
    mu = complex(mu)
    a_grid = [float(a) for a in a_grid]
    delta_grid = [float(d) for d in delta_grid]
    if not a_grid or not delta_grid:
        raise ValueError("scan grids must be nonempty")
    if max(a_grid) >= abs(mu) - _BOUNDARY_TOL:
        raise ValueError("a_grid must stay strictly inside (0, |mu|)")
    if min(a_grid) <= 0:
        raise ValueError("a_grid must be positive")
    rows = [_scan_point(mu, a, d, nodes) for a in a_grid for d in delta_grid]
    best = min(range(len(rows)), key=lambda i: rows[i].defect)
    return ScanReport(
        mu, tuple(rows), rows[best].defect, (rows[best].a, rows[best].delta)
    )
