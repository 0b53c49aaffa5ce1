"""Independent oracles for the areas the package computes by Stokes.

Every area in ``lagrtori`` is a closed form or a 1-D boundary integral of
the primitive of the form, and the package keeps only loops and lift
functions.  This module holds the surfaces themselves: the line, the
in-conic discs, the standard discs of a fiber, the fiber and its deformed
graphs, and the section of a reduced sphere of the diagonal rotation.  It
integrates the form over them: it pulls the form back through fourth-order
central differences of the lift and integrates with tensor Gauss-Legendre
quadrature, refining once to estimate the error.  For loops it holds the
generic boundary rule, the trapezoid rule with a spectral derivative, which
needs no windings and so also integrates a loop whose coordinates a unitary
has mixed, and the action-angle trapezoid mean.  It holds the one-row doubling trapezoid and the
Chekanov periods computed one torus at a time, the bitwise references of
the package's row-batched pass.  It holds the sampled rules
the package replaced by closed forms, as references: that mean on the two
bisecting loops of a conic member, the gradient residual of a symbol, the
difference stencil of the period map, and the flows of symbols by
diagonalization, with the Rayleigh quotient, the phase-aligned residual
and the check points on which the rotation report once sampled its flows.  It also holds the linear coning
of a loop to a basepoint, a random unitary, the consistency check of a disc
with boundary and the one-matrix all-pairs chordal search, which only the
tests use.

For the exact layer it holds the dichotomy in plain ``Fraction`` operators
and the ``bs-count`` and ``enc-report`` texts built as one payload of row
dicts and encoded by :func:`json.dumps` (indented, with the row list one
compact item per line), the references for the integer decisions and the
streamed reports, with a text comparison that names the first difference.

The difference step ``step`` defaults to 1e-3.  The Chekanov torus needs
3e-5, because its orbit radius varies steeply in t when the parameter
circle passes near the singular member; the coned discs use 2.5e-4.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from lagrtori import __version__
from lagrtori.clifford import (
    D1,
    D2,
    CliffordFiber,
    DeformationSpec,
    HomologyClass,
    _check_stays_inside,
    _deformed_actions,
    fiber_periods,
)
from lagrtori.errors import (
    BoundaryMismatch,
    ChartEscape,
    InternalContradiction,
    LagrtoriError,
    NonConvergent,
)
from lagrtori.chekanov import (
    _ORBIT_ROUNDINGS,
    ChekanovPeriods,
    ChekanovParams,
    _level_x,
    _named,
    _require_regular,
    level_radius,
    radial_area,
)
from lagrtori.geometry import (
    LOOP_AGREEMENT,
    LOOP_FALLBACK,
    LOOP_MAX_NODES,
    LOOP_NODES,
    AreaEstimate,
    _mod_unit,
    _unit_rows,
    hermdot,
)
from lagrtori.lattice import (
    ActionCoords,
    MonotoneWitness,
    SwapImage,
    is_monotone,
    rounding_floor,
)
from lagrtori.maslov import _CHART_FLOOR, DiscWithBoundary

_CONE_FLOOR = 1e-2
_TWO_PI = 2.0 * math.pi
# The form is FS_SCALE Im<u, v> on unit lifts: its magnitude makes a line
# have unit area and its sign makes complex curves positively oriented.
FS_SCALE = -1.0 / math.pi


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


def deformed_lift(fiber: CliffordFiber, spec: DeformationSpec, theta0, theta1):
    """Coordinate lift of the graph torus at angle parameters (radians)."""
    i0, i1 = _deformed_actions(fiber, spec, theta0, theta1)
    z0 = np.sqrt(i0) * np.exp(1j * theta0)
    z1 = np.sqrt(i1) * np.exp(1j * theta1)
    z2 = np.sqrt(1.0 - i0 - i1) * np.ones_like(z0)
    return np.stack([z0, z1, z2], axis=-1)


def deformed_cycle(fiber: CliffordFiber, spec: DeformationSpec, cls: HomologyClass):
    """Lifted loop of the deformed d1 or d2 cycle (the other angle fixed at 0)."""

    def loop(t):
        theta = _TWO_PI * np.asarray(t, dtype=float)
        zero = np.zeros_like(theta)
        if cls == D1:
            return deformed_lift(fiber, spec, theta, zero)
        return deformed_lift(fiber, spec, zero, theta)

    return loop


def deformed_surface(fiber: CliffordFiber, spec: DeformationSpec) -> Surface:
    """Graph torus of the deformation one-form over the fiber, in the fiber's
    angle parametrization; LeavesTriangle when it leaves the open triangle."""
    _check_stays_inside(fiber, spec)
    return Surface(
        lambda s, t: deformed_lift(fiber, spec, _TWO_PI * np.asarray(s, dtype=float),
                                    _TWO_PI * np.asarray(t, dtype=float)),
        periodic=(True, True),
    )


# ---------------------------------------------------------------------------
# the per-row trapezoid driver and the per-torus section period
# ---------------------------------------------------------------------------


def doubled_until_agreed(levels: Iterator[tuple[int, float]]) -> AreaEstimate:
    """The last of the (nodes, value) levels of a rule that doubles its node
    count, once two successive values agree to LOOP_AGREEMENT: the one-row
    stopping rule of ``lagrtori.geometry.doubled_trapezoid``, with the same
    error, cap level (the last doubling within LOOP_MAX_NODES) and
    fallback."""
    _, prev = next(levels)
    for n, value in levels:
        gap = abs(value - prev)
        capped = 2 * n > LOOP_MAX_NODES
        if gap <= LOOP_AGREEMENT or (capped and gap <= LOOP_FALLBACK):
            return AreaEstimate(value, gap + rounding_floor(n, value), n)
        if capped:
            raise NonConvergent(f"trapezoid rule at n = {n} nodes: levels disagree"
                                f" by {gap:.3e} > {LOOP_FALLBACK:.1e}")
        prev = value
    raise ValueError("the levels ended before two of them agreed")


def trapezoid_sums(f: Callable[[np.ndarray], np.ndarray],
                   nodes: int) -> Iterator[tuple[int, float]]:
    """(n, sum of ``f`` over the nodes k / n) for n = ``nodes``, 2 ``nodes``,
    4 ``nodes``, ...: the sums of the trapezoid rule of a 1-periodic ``f`` on
    [0, 1).  Each doubling evaluates ``f`` only at the n new midpoints."""
    n = nodes
    acc = float(np.sum(f(np.arange(n) / n)))
    while True:
        yield n, acc
        acc += float(np.sum(f((np.arange(n) + 0.5) / n)))
        n *= 2


def _section_levels(params: ChekanovParams, ell: float, nodes: int):
    """(nodes, value) of the Mobius-mapped trapezoid rule for the section
    integral of one torus at area level ``ell``, one row at a time."""
    a, m = params.a, abs(params.mu)
    s = min(1.0, max(math.sqrt(abs(1.0 - a / m)), abs(1.0 - ell)))
    gap2, cross = (m - a) ** 2, 4.0 * a * m * s * s

    def total(tau):
        u = np.minimum(tau, 1.0 - tau)
        sin2 = np.sin(math.pi * u) ** 2
        den = s * s * sin2 + np.sin(math.pi * (0.5 - u)) ** 2
        e2 = gap2 + cross * sin2 / den
        x = _level_x(e2, ell)
        p = e2 + (a - m) * (a + m)
        return (s / den) * x * x * p / (2.0 + x)

    return ((n, 0.5 * (2.0 - ell) * acc / n) for n, acc in trapezoid_sums(total, nodes))


def torus_periods_per_row(params: ChekanovParams, nodes: int = LOOP_NODES) -> ChekanovPeriods:
    """``lagrtori.chekanov.torus_periods_chekanov`` one torus at a time, as
    it was computed before the scan batched its periods: the bitwise
    reference of the batched pass."""
    _require_regular(params)
    target = 1.0 + params.delta
    e0 = abs(params.a - params.mu)
    level = float(radial_area(e0, level_radius(e0, target)))
    orbit_error = abs(level - target) + rounding_floor(_ORBIT_ROUNDINGS, level)
    low = 1.0 - abs(params.delta)
    try:
        section = doubled_until_agreed(_section_levels(params, low, nodes))
    except NonConvergent as exc:
        raise NonConvergent(f"{_named(params, 'section loop of the torus')}: {exc}") from exc
    offset = 0.5 * (target - low) if params.a > abs(params.mu) else 0.0
    return ChekanovPeriods(_mod_unit(level), _mod_unit(section.value + offset),
                           orbit_error, section.error, section.nodes)


# ---------------------------------------------------------------------------
# the spectral boundary rule
# ---------------------------------------------------------------------------


def _spectral_area_once(loop: Callable[[np.ndarray], np.ndarray], n: int) -> float:
    z = _unit_rows(loop(np.arange(n) / n))
    k = np.fft.fftfreq(n, 1.0 / n)
    if n % 2 == 0:
        k[n // 2] = 0.0  # the unpaired Nyquist mode has no real derivative
    dz = np.fft.ifft((2j * math.pi * k)[:, None] * np.fft.fft(z, axis=0), axis=0)
    return -0.5 * FS_SCALE * float(np.mean(np.imag(hermdot(dz, z))))


def spectral_loop_area(loop: Callable[[np.ndarray], np.ndarray]) -> AreaEstimate:
    """Integral of the primitive -(FS_SCALE / 2) Im<z', z> / |z|^2 around any
    smooth closed lifted loop, 1-periodic in coordinate space.

    The trapezoid rule on equispaced samples, with the derivative taken
    spectrally, converges exponentially on smooth periodic loops; the node
    count doubles from LOOP_NODES through ``doubled_until_agreed``.
    """
    return doubled_until_agreed(
        (LOOP_NODES << k, _spectral_area_once(loop, LOOP_NODES << k)) for k in itertools.count())


# ---------------------------------------------------------------------------
# the action-angle rule and the sampled rules behind the package's closed forms
# ---------------------------------------------------------------------------


# |sum_t u^2| may fall short of sum_t |u|^2 by this much per node on a line
_LINE_TOL = 1e-12


def loop_symplectic_area(loop: Callable[[np.ndarray], np.ndarray],
                         windings) -> AreaEstimate:
    """Integral of the primitive of the form around a closed lifted loop in
    action-angle form.

    ``loop(t)`` maps an array of t in [0, 1) to lifts along the last axis;
    coordinate k must be e^{2 pi i m_k t} times a function of t on one line
    through 0, where m = ``windings``.  Then the primitive is
    sum_k m_k |z_k|^2 / |z|^2 dt, and the result is its trapezoid mean, with
    the node count doubled from LOOP_NODES through ``doubled_until_agreed``.
    ValueError if a coordinate, its windings taken off, leaves its line:
    |sum_t u_k^2| < sum_t |u_k|^2.
    """
    m = np.asarray(windings, dtype=float)

    def actions(t):
        w = _unit_rows(loop(t))
        moduli2 = np.abs(w) ** 2
        u = w * np.exp(-2j * math.pi * t[:, None] * m)
        if np.any(moduli2.sum(axis=0) - np.abs(np.sum(u * u, axis=0)) > _LINE_TOL * len(t)):
            raise ValueError(f"the loop is not in action-angle form with windings {windings}")
        return moduli2 @ m

    return doubled_until_agreed((n, acc / n) for n, acc in trapezoid_sums(actions, LOOP_NODES))


def conic_total_area_by_loops(eps: complex) -> tuple[float, float]:
    """Area and error of a conic member as its two anchored discs bounded by
    the area-bisecting orbit, each by :func:`loop_symplectic_area`, as
    ``lagrtori.chekanov.conic_total_area`` once computed it."""
    mid = 1.0 / math.sqrt(abs(eps))
    near_disc, far_disc = (conic_disc_surface(eps, mid, inverted) for inverted in (False, True))
    near = loop_symplectic_area(lambda t: near_disc(np.ones_like(t), t), (0, 2, 1))
    far = loop_symplectic_area(lambda t: far_disc(np.ones_like(t), t), (2, 0, 1))
    return near.value + far.value, near.error + far.error


def sphere_section(alpha: float) -> Surface:
    """A section ``(u, t)`` of the reduced sphere of the level set
    {|z0|^2 + |z1|^2 = alpha}: it fixes the z0 phase, so it meets each orbit
    of (z0, z1) -> e^{i s}(z0, z1) once and its area is the reduced volume."""
    ra, rc = math.sqrt(alpha), math.sqrt(1.0 - alpha)

    def lift(u, t):
        u, ph = _angles(u, t)
        z = (ra * np.cos(0.5 * math.pi * u) + 0j, ra * np.sin(0.5 * math.pi * u) * ph, rc + 0j)
        return np.stack(np.broadcast_arrays(*z), axis=-1)

    return Surface(lift, periodic=(False, True))


def gradient_residual(matrix, z) -> np.ndarray:
    """Norm of Az - f(z) z on unit lifts, f the Rayleigh quotient of the
    Hermitian ``matrix``; zero exactly at its critical points."""
    z = _unit_rows(z)
    az = np.einsum("ij,...j->...i", np.asarray(matrix, dtype=complex), z)
    f = hermdot(az, z).real
    return np.linalg.norm(az - f[..., None] * z, axis=-1)


def symbol_value(matrix, z) -> np.ndarray:
    """Rayleigh quotient <Az, z>/<z, z> of the Hermitian ``matrix`` on raw
    lifts (vectorized)."""
    z = np.asarray(z, dtype=complex)
    num = hermdot(np.einsum("ij,...j->...i", np.asarray(matrix, dtype=complex), z), z)
    return num.real / hermdot(z, z).real


def symbol_flow(matrix, t: float) -> np.ndarray:
    """The unitary exp(i t A) of the Hermitian ``matrix``, by diagonalization."""
    w, v = np.linalg.eigh(np.asarray(matrix, dtype=complex))
    return (v * np.exp(1j * t * w)) @ v.conj().T


def phase_aligned_residual(z, w) -> np.ndarray:
    """Norm of the gauge-optimal difference of unit lifts (vectorized).

    Rotates w's phase onto z before subtracting, so near-coincident points
    are resolved far below the sqrt-of-ulp floor of the chordal formula.
    """
    z = _unit_rows(z)
    w = _unit_rows(w)
    pairing = hermdot(w, z)
    mag = np.abs(pairing)
    phase = np.where(mag > 0, pairing / np.where(mag > 0, mag, 1.0), 1.0 + 0j)
    return np.linalg.norm(z - w * np.conj(phase)[..., None], axis=-1)


def rotation_check_points() -> tuple[np.ndarray, np.ndarray]:
    """The 640 lifts on which the rotation report sampled its flows, and the
    swapped moment values (r1, r0) of the fiber of each.

    The lifts lie on the interior lattice fibers (i/10, j/10), i <= j, at
    the 8 x 8 angles off the axes; none lies on a coordinate plane.
    """
    th = 2.0 * math.pi * (np.arange(8) + 0.5) / 8.0
    th0, th1 = np.meshgrid(th, th, indexing="ij")
    bases = [ActionCoords(Fraction(i, 10), Fraction(j, 10))
             for i in range(1, 5) for j in range(i, 5)]
    zs = np.concatenate([CliffordFiber(b).lift(th0, th1).reshape(-1, 3) for b in bases])
    swapped = np.repeat([b.as_floats()[::-1] for b in bases], th0.size, axis=0)
    return zs, swapped


def chordal_distance(z, w) -> np.ndarray:
    """Projective (Fubini-Study chordal) distance between unit-norm rows."""
    ip = np.abs(hermdot(z, w)) ** 2
    return np.sqrt(np.maximum(0.0, 1.0 - ip))


def canonical_gauge(z) -> np.ndarray:
    """Unit representative rephased so its first non-negligible coordinate is
    real and positive."""
    z = _unit_rows(z)
    idx = int(np.argmax(np.abs(z) > 1e-9))
    return z / (z[idx] / abs(z[idx]))


def stencil_jacobian(base, step: float = 1e-4) -> np.ndarray:
    """Central-difference Jacobian of the level-1 periods of ``fiber_periods``
    in (r0, r1), with step ``step``; a stencil point off the open triangle
    raises as ``fiber_periods`` does."""
    r0, r1 = (float(r) for r in base)
    pts = [(r0 + step, r1), (r0 - step, r1), (r0, r1 + step), (r0, r1 - step)]
    vals = [np.array(fiber_periods(p)[:2]) for p in pts]
    return np.stack([vals[0] - vals[1], vals[2] - vals[3]], axis=-1) / (2.0 * step)


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


def min_pairwise_chordal(a: np.ndarray, b: np.ndarray) -> float:
    """Minimum chordal distance between two unit-lift clouds, from the whole
    ``a @ conj(b).T`` pairing matrix at once: the brute-force reference that
    the pencil-image separation of
    :func:`lagrtori.chekanov.pencil_separation` is checked against."""
    inner = a @ np.conj(b.T)
    return math.sqrt(max(0.0, 1.0 - float(np.max(inner.real**2 + inner.imag**2))))


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


def reference_dumps(payload) -> str:
    """The indented report text, by :func:`json.dumps`."""
    return json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": "),
                      allow_nan=False)


def rows_dumps(payload, *path) -> str:
    """:func:`reference_dumps` of ``payload``, except that the list at the key
    path ``path`` holds one ``json.dumps(item, sort_keys=True)`` line per item."""
    mark = "\x01rows\x01"

    def marked(node, keys):
        return {**node, keys[0]: marked(node[keys[0]], keys[1:])} if keys else mark

    rows = payload
    for key in path:
        rows = rows[key]
    head, tail = reference_dumps(marked(payload, path)).split(json.dumps(mark))
    line = head.rpartition("\n")[2]
    pad = "\n" + " " * (len(line) - len(line.lstrip(" ")))
    lines = [json.dumps(row, sort_keys=True) for row in rows]
    body = "[" + pad + "  " + ("," + pad + "  ").join(lines) + pad + "]" if lines else "[]"
    return head + body + tail


def assert_same_text(got, want):
    """``got == want``; a failure names the first differing offset and line
    rather than diffing texts of megabytes."""
    if got == want:
        return
    at = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
              min(len(got), len(want)))
    start = want.rfind("\n", 0, at) + 1
    pytest.fail(f"texts differ at offset {at}, line {want.count(chr(10), 0, at) + 1} "
                f"(lengths {len(got)} and {len(want)}): got "
                f"{got[start:].partition(chr(10))[0]!r}, want "
                f"{want[start:].partition(chr(10))[0]!r}")


def _envelope_text(command: str, params: dict, results: dict, diagnostics: dict,
                   rows: str) -> str:
    body = {"command": command, "version": __version__, "params": params,
            "results": results, "diagnostics": diagnostics}
    return rows_dumps(body, "results", rows) + "\n"


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
                          results, {"tolerances": {"arithmetic": "exact rational"}}, "fibers")


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
                          {"tolerances": {"arithmetic": "exact rational"}}, "rows")
