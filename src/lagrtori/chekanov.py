"""Tori fibered over circles in the bitangent conic pencil.

The pencil is {z0 z1 = eps * z2^2}; every smooth member (eps not 0 or
infinity) is a conic through the two poles [1:0:0] and [0:1:0], where all
members are mutually tangent.  The circle action

    (z0, z1, z2) |-> (e^{i s} z0, e^{-i s} z1, z2)

preserves each member, and its orbits are the level circles of the in-conic
disc area measured from the pole [1:0:0].  A torus is assembled by choosing,
on each conic over a parameter circle {a e^{i t} - mu}, the orbit whose disc
from [1:0:0] has area 1 + delta; because that area level is a function of
the global circle-action moment, the assembled torus is lagrangian.  Seen
from [0:1:0], it is the torus at -delta.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DegenerateFamily,
    NonConvergent,
    NotChekanovType,
    SingularConic,
    ZeroVector,
)
from .geometry import LOOP_MAX_NODES, LOOP_NODES, _mod_unit, doubled_trapezoid
from .lattice import rounding_floor

_EPS_FLOOR = 1e-12
# Past this bound on |eps|, |eps|^2 in radial_area and level_radius overflows.
_EPS_RANGE = 1e150
_TINY = np.finfo(float).tiny


def _require_smooth(eps: complex) -> complex:
    """``eps`` as a complex; SingularConic for 0 or a value that is not
    finite, ZeroVector past _EPS_RANGE."""
    eps = complex(eps)
    if not (np.isfinite(eps.real) and np.isfinite(eps.imag)):
        raise SingularConic("pencil parameter must be finite")
    if abs(eps) <= _EPS_FLOOR:
        raise SingularConic("pencil parameter 0 names the singular member")
    if abs(eps) > _EPS_RANGE:
        raise ZeroVector(f"no usable magnitude: |eps| = {abs(eps):.3e} > {_EPS_RANGE:.0e}")
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
    return np.sqrt(_level_x(np.asarray(eps_abs, dtype=float) ** 2, ell))


def _level_x(e2, ell) -> np.ndarray:
    """x = rho^2 of the level-``ell`` orbit on the member with |eps|^2 = e2."""
    b = 1.0 - ell
    root = np.sqrt(b * b + 4.0 * ell * (2.0 - ell) * e2)
    denom = 2.0 * np.maximum(e2, _TINY) * (2.0 - ell)
    # |b| leaves the b > 0 lanes as they are and keeps the others from dividing by 0
    return np.where(b > 0.0, 2.0 * ell / (np.abs(b) + root), (root - b) / denom)


def conic_total_area(eps: complex) -> tuple[float, float]:
    """Total symplectic area of a smooth member, 2, and its error estimate.

    The area-bisecting orbit has x = rho^2 = 1 / |eps|, where e^2 x^2 = 1
    and :func:`radial_area` is (x + 2) / (2 + x) = 1.  The z0 <-> z1 swap
    preserves the member and exchanges the disc anchored at [1:0:0] with the
    one anchored at [0:1:0], so the far disc has area 1 too, and the total
    is 2 radial_area(|eps|, 1 / sqrt|eps|).  The error is the rounding floor
    of that float evaluation, so it is never 0.  SingularConic for eps 0 or
    not finite; ZeroVector for |eps| > 1e150, where |eps|^2 overflows.
    """
    e = abs(_require_smooth(eps))
    total = 2.0 * float(radial_area(e, 1.0 / math.sqrt(e)))
    return total, rounding_floor(_BISECTOR_ROUNDINGS, total)


# ---------------------------------------------------------------------------
# torus families over pencil-parameter circles
# ---------------------------------------------------------------------------


class TorusType(enum.Enum):
    CLIFFORD = "clifford"
    CHEKANOV = "chekanov"
    BOUNDARY = "boundary"


# relative to |mu|: the circle counts as through the origin within 1e-9 |mu|
_BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class ChekanovParams:
    """Parameters (a, mu, delta) of a torus over the circle {a e^{it} - mu}."""

    a: float
    mu: complex
    delta: float

    def __post_init__(self):
        if not 0 < self.a < math.inf:
            raise ValueError("circle radius a must be positive and finite")
        if not _EPS_FLOOR < abs(self.mu) < math.inf:
            raise ValueError("circle center mu must be nonzero and finite")
        # 1 + delta is the orbit level; at delta = 1 - 2**-53 it rounds to 2
        if not (-1.0 < self.delta and 1.0 + self.delta < 2.0):
            raise ValueError(f"delta {self.delta!r} must lie strictly between -1 and 1,"
                             " with the orbit level 1 + delta below 2")

    def eps_of(self, t) -> np.ndarray:
        return self.a * np.exp(2j * math.pi * np.asarray(t, dtype=float)) - self.mu


def classify_type(params: ChekanovParams) -> TorusType:
    """Circle inside (a < |mu|), outside (a > |mu|) or through the origin."""
    gap = params.a - abs(params.mu)
    if abs(gap) <= _BOUNDARY_TOL * abs(params.mu):
        return TorusType.BOUNDARY
    return TorusType.CLIFFORD if gap > 0 else TorusType.CHEKANOV


def _named(params: ChekanovParams, what: str) -> str:
    return f"{what} at a={params.a!r}, mu={params.mu!r}, delta={params.delta!r}"


def _require_regular(params: ChekanovParams) -> None:
    """DegenerateFamily if the parameter circle passes through the singular
    member, within the boundary tolerance or within _EPS_FLOOR of eps = 0;
    ZeroVector if the lift would overflow; both name the torus."""
    if (classify_type(params) is TorusType.BOUNDARY
            or abs(params.a - abs(params.mu)) <= _EPS_FLOOR):
        raise DegenerateFamily(f"{_named(params, 'torus')}: parameter circle passes"
                               " through the singular member")
    reach = params.a + abs(params.mu)
    if not reach <= _EPS_RANGE:  # also catches a NaN
        raise ZeroVector(f"{_named(params, 'torus')}: no usable magnitude:"
                         f" |eps| reaches {reach:.3e} > {_EPS_RANGE:.0e}")


# how pencil_separation separates a torus from its image, as reports name it
CERTIFICATE_METHOD = "PencilImageDisjoint"


def pencil_separation(params: ChekanovParams) -> float:
    """Displacement of a Chekanov-type torus by the z2-phase rotation: the
    distance 2 (|mu| - a) between the parameter circle C and -C.

    The pencil map f = z0 z1 / z2^2 is exact on the torus: its lift
    (1, eps lam^2, lam) has z2 = lam, never 0, and f = eps there, so f maps
    the torus T onto the parameter circle C = {a e^{it} - mu}.  The
    Hamiltonian flow of the symbol diag(0, 0, 1) at time pi/2 is
    diag(e^0, e^0, e^{i pi/2}) = diag(1, 1, i), exactly, which sends f to
    f / i^2 = -f, so f maps the image torus onto -C.  C and -C are
    disjoint exactly when a < |mu|, and then so are T and its image: the
    certificate (CERTIFICATE_METHOD) is exact and does not depend on
    delta.  DegenerateFamily and ZeroVector name the torus as for
    :func:`chekanov_torus`; NotChekanovType marks a > |mu|, where C and -C
    meet."""
    _require_regular(params)
    if classify_type(params) is not TorusType.CHEKANOV:
        raise NotChekanovType(
            f"a = {params.a} vs |mu| = {abs(params.mu)}: not in the a < |mu| regime"
        )
    return 2.0 * (abs(params.mu) - params.a)


def chekanov_torus(params: ChekanovParams) -> Callable[..., np.ndarray]:
    """Lift function ``lift(t, s)`` of the lagrangian torus over the
    pencil-parameter circle, vectorized over both angle fractions.

    For each t the fiber circle is the level-(1 + delta) orbit of the member
    at eps(t) = a e^{2 pi i t} - mu, with the radius from the closed-form
    level_radius inverse; s is the orbit angle.  Raises DegenerateFamily
    when the parameter circle passes through the singular member (a = |mu|
    within 1e-9 |mu|, or within 1e-12 of eps = 0), and ZeroVector when |eps|
    can pass _EPS_RANGE, where 4 |eps|^2 overflows; both name the torus.
    """
    _require_regular(params)

    def lift(t, s):
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        eps = params.eps_of(t)
        lam = level_radius(np.abs(eps), 1.0 + params.delta) * np.exp(2j * math.pi * s)
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
    nodes: int  # finest trapezoid node count behind the section period


# radial_area rounds about this many times, each within 2^-53 relative, and
# the bisecting radius of conic_total_area and its square three more times
_ORBIT_ROUNDINGS = 8
_BISECTOR_ROUNDINGS = _ORBIT_ROUNDINGS + 3


def _section_key(params: ChekanovParams) -> tuple[float, float, float]:
    """(a, |mu|, 1 - |delta|): what the section integral of a torus depends
    on, shared by the tori at +-delta.  DegenerateFamily and ZeroVector
    name the torus as for :func:`chekanov_torus`."""
    _require_regular(params)
    return params.a, abs(params.mu), 1.0 - abs(params.delta)


def _section_integrand(keys):
    """The section integrands at the keys (a, |mu|, area level) in the form
    :func:`~lagrtori.geometry.doubled_trapezoid` takes, and their weights.

    Each integral runs in the Mobius variable tau of the pencil angle theta,
    measured from arg mu: tan(theta / 2) = s tan(pi tau), which is
    e^{i theta} = (w + r) / (1 + r w) with w = e^{2 pi i tau} and
    r = (1 - s) / (1 + s).  Its weight d theta / (2 pi d tau) is
    s / (s^2 sin^2(pi tau) + cos^2(pi tau)), and it packs nodes near theta = 0,
    where |eps| is least.  The sines of tau are shared by all rows.
    """
    consts = []
    for a, m, ell in keys:
        s = min(1.0, max(math.sqrt(abs(1.0 - a / m)), abs(1.0 - ell)))
        consts.append((s, (m - a) ** 2, 4.0 * a * m * s * s, (a - m) * (a + m), ell))
    table = np.array(consts)

    def integrand(tau):
        # sin and cos of pi tau, each to full relative precision near its zero
        u = np.minimum(tau, 1.0 - tau)
        sin2 = np.sin(math.pi * u) ** 2
        cos2 = np.sin(math.pi * (0.5 - u)) ** 2

        def rows(idx):
            s, gap2, cross, shift, ell = table[idx].T[:, :, None]
            den = s * s * sin2 + cos2
            e2 = gap2 + cross * sin2 / den  # |eps|^2, free of cancellation near theta = 0
            x = _level_x(e2, ell)
            p = e2 + shift
            return (s / den) * x * x * p / (2.0 + x)

        return rows

    return integrand, [0.5 * (2.0 - ell) for _, _, ell in keys]


def _periods(points, nodes: int) -> list[ChekanovPeriods | Exception]:
    """The :class:`ChekanovPeriods` of each torus in ``points``, or the row
    error (one of ROW_ERRORS) it raised, in one batched pass.

    Every orbit level comes from one array call, and each distinct section
    key (:func:`_section_key`) is integrated once, all of them as rows of
    one :func:`~lagrtori.geometry.doubled_trapezoid`.  NonConvergent names
    the section loop and each torus's own parameters.  ``nodes``, the start
    of the doubling rule, must be an int in [4, LOOP_MAX_NODES // 2], so
    the rule doubles at least once within the cap; ValueError otherwise.
    """
    try:
        start = operator.index(nodes)
    except TypeError:
        start = 0
    if not 4 <= start <= LOOP_MAX_NODES // 2:
        raise ValueError(f"start nodes {nodes!r} must be an int in [4, {LOOP_MAX_NODES // 2}]")
    results: list[ChekanovPeriods | Exception] = [None] * len(points)
    keys: dict[tuple[float, float, float], int] = {}
    live = []  # (point index, key)
    for i, params in enumerate(points):
        try:
            key = _section_key(params)
        except ROW_ERRORS as exc:
            results[i] = exc
        else:
            keys.setdefault(key, len(keys))
            live.append((i, key))
    if not live:
        return results

    targets = [1.0 + points[i].delta for i, _ in live]
    e0 = np.array([abs(points[i].a - points[i].mu) for i, _ in live])  # |eps(0)|
    levels = radial_area(e0, level_radius(e0, targets)).tolist()
    sections = doubled_trapezoid(*_section_integrand(list(keys)), start)

    for (i, key), target, level in zip(live, targets, levels):
        params, section = points[i], sections[keys[key]]
        if isinstance(section, NonConvergent):
            exc = NonConvergent(f"{_named(params, 'section loop of the torus')}: {section}")
            exc.__cause__ = section
            results[i] = exc
            continue
        a, m, low = key
        orbit_error = abs(level - target) + rounding_floor(_ORBIT_ROUNDINGS, level)
        offset = 0.5 * (target - low) if a > m else 0.0
        results[i] = ChekanovPeriods(_mod_unit(level), _mod_unit(section.value + offset),
                                     orbit_error, section.error, section.nodes)
    return results


def torus_periods_chekanov(params: ChekanovParams, nodes: int = LOOP_NODES) -> ChekanovPeriods:
    """Periods of the orbit cycle and a fixed section cycle, mod 1.

    Both are Stokes integrals of the primitive of the form on the lift
    (1, eps lam^2, lam), reduced to closed-form real integrands.  The orbit
    is in action-angle form, but the section loop (1, eps x, sqrt x) is not:
    its coordinate phases are those of eps(t), not e^{2 pi i m t}, so its
    period is the integral of the real integrand below.

    The orbit period is the area of the in-conic disc from [1:0:0] bounded
    by the orbit at t = 0: ``radial_area`` at the ``level_radius`` of the
    area level l = 1 + delta.  Its error is |area - l| plus a rounding
    floor, so it checks the inversion.

    The section period is the integral around the s = 0 curve
    (1, eps x, sqrt x) of the torus, with x = level_radius(|eps|, l)^2.
    There Im<z', z> = pi x^2 P with P = |eps|^2 + a^2 - |mu|^2, and the
    level equation gives |z|^2 = (2 + x) / (2 - l), so the period is

        p_section(l) = integral_0^1 f_l dt,   f_l = (2 - l) x^2 P / (2 (2 + x)).

    Pointwise f_{1+d} - f_{1-d} = (d / 2) P / |eps|^2, and by the Poisson
    kernel the mean of P / |eps|^2 is 0 for a < |mu| and 2 for a > |mu|.  So

        p_section(l) = p_section(1 - |delta|) + [a > |mu|] (l - (1 - |delta|)) / 2,

    and the integral runs on the branch l = 1 - |delta|, where x stays
    bounded, by the Mobius-mapped trapezoid rule of
    :func:`_section_integrand`, doubling from ``nodes`` through
    :func:`~lagrtori.geometry.doubled_trapezoid`.  This is the one-torus
    case of the batched pass :func:`_periods` that a scan makes over its
    whole grid, so the two give the same bits, and it takes the same
    ``nodes`` (ValueError outside its range).  The section class is the
    s = 0 convention; combined classes (section plus or minus the orbit)
    are reported by the scan.  NonConvergent names the section loop and
    the torus parameters; DegenerateFamily and ZeroVector name the torus
    as for :func:`chekanov_torus`.
    """
    periods = _periods([params], nodes)[0]
    if isinstance(periods, Exception):
        raise periods
    return periods


# ---------------------------------------------------------------------------
# integrality scan over the (a, delta) grid
# ---------------------------------------------------------------------------


# Reported periods and defects keep this many decimals: the trapezoid rules
# vouch for 1e-12, so the printed digits hold across platforms.
REPORT_DECIMALS = 10


def _lattice_distance(x: float) -> float:
    return abs(x - round(x))


def _reported(x: float) -> float:
    return round(x, REPORT_DECIMALS)


# Errors below this are rounding noise of a unit-scale sum.
_ERROR_FLOOR = 1e-14


def _reported_error(x: float) -> float:
    """Error estimate rounded up to a power of ten, at least _ERROR_FLOOR.

    The reported value bounds the estimate; its noise digits, which vary
    with the numeric library and CPU, are not printed.
    """
    return 10.0 ** math.ceil(math.log10(max(x, _ERROR_FLOOR)))


# The status of a scan or certificate row: "ok", or the kind of failure.
STATUSES = ("ok", "nonconvergent", "degenerate")
# What one grid point may raise without aborting a scan.
ROW_ERRORS = (NonConvergent, ZeroVector, DegenerateFamily, SingularConic)


def row_failure(exc: Exception) -> tuple[str, str]:
    """(status, error text) of a row whose computation raised ``exc``, one of
    ROW_ERRORS; the text is the error's, which names (a, mu, delta)."""
    status = "nonconvergent" if isinstance(exc, NonConvergent) else "degenerate"
    return status, f"{type(exc).__name__}: {exc}"


def _status_counts(rows) -> dict[str, int]:
    return {status: sum(r.status == status for r in rows) for status in STATUSES}


@dataclass(frozen=True)
class ScanRow:
    """One grid torus.  Periods and defects are rounded to REPORT_DECIMALS,
    error estimates up to a power of ten.  A row whose periods failed has
    ``status`` "nonconvergent" or "degenerate", the ``error`` text, and None
    in every other field."""

    a: float
    delta: float
    p_orbit: float | None
    p_section: float | None
    defect: float | None
    defect_orbit: float | None
    defect_section: tuple[float, float, float] | None  # section - orbit, section, section + orbit
    orbit_error: float | None
    section_error: float | None
    nodes: int | None  # finest trapezoid node count behind the section period
    status: str = "ok"
    error: str | None = None


@dataclass(frozen=True)
class CertificateRow:
    """The certificate of one grid torus: its :func:`pencil_separation`,
    rounded to REPORT_DECIMALS, or None with a failure ``status`` and
    ``error`` as in :class:`ScanRow`.  It does not depend on the periods."""

    a: float
    delta: float
    separation: float | None
    status: str = "ok"
    error: str | None = None


@dataclass(frozen=True)
class ScanReport:
    """The period and certificate rows of a scan, one each per grid point
    in grid order; ``min_defect`` and ``argmin`` cover the ok period rows
    only and are None when there is none."""

    mu: complex
    rows: tuple[ScanRow, ...]
    certificates: tuple[CertificateRow, ...]
    min_defect: float | None
    argmin: tuple[float, float] | None

    def status_counts(self) -> dict[str, int]:
        return _status_counts(self.rows)

    def to_csv(self) -> str:
        """The table of (a, delta, p_orbit, p_section, defect); a failed row
        leaves its last three fields empty."""
        lines = ["a,delta,p_orbit,p_section,defect"]
        for r in self.rows:
            tail = f"{r.p_orbit!r},{r.p_section!r},{r.defect!r}" if r.status == "ok" else ",,"
            lines.append(f"{r.a!r},{r.delta!r},{tail}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        """The ``results`` object of the scan report: the summary counts,
        the scan and the certificate rows."""
        rows = []
        for r in self.rows:
            row = {
                "a": r.a,
                "delta": r.delta,
                "p_orbit": r.p_orbit,
                "p_section": r.p_section,
                "defect": r.defect,
                "defect_orbit": r.defect_orbit,
                "defect_section_combined": (None if r.defect_section is None
                                            else list(r.defect_section)),
                "orbit_error": r.orbit_error,
                "section_error": r.section_error,
                "nodes": r.nodes,
                "status": r.status,
            }
            if r.error is not None:
                row["error"] = r.error
            rows.append(row)
        cert_rows = []
        for c in self.certificates:
            row = {"a": c.a, "delta": c.delta, "separation": c.separation, "status": c.status}
            if c.error is not None:
                row["error"] = c.error
            cert_rows.append(row)
        certs = _status_counts(self.certificates)
        argmin = None if self.argmin is None else list(self.argmin)
        return {
            "summary": {
                "min_defect": self.min_defect,
                "argmin": argmin,
                "rows": self.status_counts(),
                "certificates": {"issued": certs.pop("ok"), **certs,
                                 "total": len(self.certificates)},
            },
            "scan": {
                "mu": [self.mu.real, self.mu.imag],
                "rows": rows,
                "min_defect": self.min_defect,
                "argmin": argmin,
            },
            "certificate_rows": cert_rows,
        }


def _scan_row(params: ChekanovParams, periods: ChekanovPeriods | Exception) -> ScanRow:
    a, delta = params.a, params.delta
    if isinstance(periods, Exception):
        status, error = row_failure(periods)
        return ScanRow(a, delta, *[None] * 8, status=status, error=error)
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


def _certificate_row(params: ChekanovParams) -> CertificateRow:
    try:
        separation = pencil_separation(params)
    except ROW_ERRORS as exc:
        return CertificateRow(params.a, params.delta, None, *row_failure(exc))
    return CertificateRow(params.a, params.delta, _reported(separation))


def canonical_bs_scan(mu: complex, a_grid, delta_grid,
                      nodes: int = LOOP_NODES) -> ScanReport:
    """Tripled-period integrality defects and displacement certificates
    over an (a, delta) grid.

    For each grid torus the defect is max(orbit defect, best combined section
    defect); the report carries the minimum over the ok rows and its
    location.  A grid point whose periods or certificate raise one of
    ROW_ERRORS becomes a failed row (see :class:`ScanRow` and
    :class:`CertificateRow`) and the scan goes on; so does a point within
    the boundary tolerance of |mu|, as a "degenerate" row.  Every a must lie
    in (0, |mu|) and every delta in (-1, 1), with 1 + delta below 2 in
    floats, and ``nodes`` must be a start that :func:`_periods` takes;
    ValueError before any row otherwise (naming the delta or nodes).  The
    periods of the whole grid come from one batched pass, :func:`_periods`,
    which integrates each distinct section once; rows are in grid order,
    so reports are deterministic.
    """
    mu = complex(mu)
    if not abs(mu) < math.inf:  # also catches a NaN part
        raise ValueError("mu must be finite")
    a_grid = [float(a) for a in a_grid]
    delta_grid = [float(d) for d in delta_grid]
    if not a_grid or not delta_grid:
        raise ValueError("scan grids must be nonempty")
    # comparisons that a NaN fails
    if not all(0.0 < a < abs(mu) for a in a_grid):
        raise ValueError("a_grid must stay strictly inside (0, |mu|)")
    for d in delta_grid:
        if not (-1.0 < d and 1.0 + d < 2.0):  # as in ChekanovParams
            raise ValueError("delta_grid must stay strictly inside (-1, 1), with the"
                             f" orbit level 1 + delta below 2: {d!r}")
    points = [ChekanovParams(a, mu, d) for a in a_grid for d in delta_grid]
    rows = tuple(map(_scan_row, points, _periods(points, nodes)))
    certificates = tuple(_certificate_row(p) for p in points)
    ok = [r for r in rows if r.status == "ok"]
    if not ok:
        return ScanReport(mu, rows, certificates, None, None)
    best = min(ok, key=lambda r: r.defect)
    return ScanReport(mu, rows, certificates, best.defect, (best.a, best.delta))
