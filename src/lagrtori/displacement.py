"""Hamiltonian flows of Hermitian symbols and displacement certificates.

Every flow used here is the projectivization of a one-parameter unitary
group exp(i t A) with A Hermitian; the induced projective isotopy is the
Hamiltonian flow of the symbol function <Az, z>/<z, z>.  Working with the
exact unitaries (instead of integrating an ODE) makes displacement
certificates exact wherever moment-image arithmetic decides them, and keeps
the sampled checks honest elsewhere.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .chekanov import Anchor, ChekanovParams, TorusType, chekanov_torus, classify_type
from .clifford import ActionCoords, CliffordFiber, clifford_fiber
from .errors import (
    CriticalPointMiscount,
    NormalizationFailure,
    NotChekanovType,
    NotHermitian,
)
from .geometry import (
    _unit_rows,
    canonical_gauge,
    chordal_distance,
    hermdot,
    loop_symplectic_area,
    moment_map,
    phase_aligned_residual,
)
from .lattice import MonotoneWitness, SwapImage, dichotomy, swap_image
from .serialize import complex_pair, number_or_rational

_HERM_TOL = 1e-12
# least sampled separation for which displace_chekanov issues a certificate
CERTIFICATE_THRESHOLD = 1e-3


@dataclass(frozen=True)
class HermitianSymbol:
    """A 3x3 Hermitian matrix viewed as a real function on the plane."""

    matrix: np.ndarray

    def __post_init__(self):
        # a private read-only copy: a later write by the caller, or to a
        # shared symbol, cannot undo the validation below
        a = np.array(self.matrix, dtype=complex)
        a.flags.writeable = False
        if a.shape != (3, 3):
            raise NotHermitian(f"expected a 3x3 matrix, got {a.shape}")
        if np.max(np.abs(a - a.conj().T)) > _HERM_TOL:
            raise NotHermitian("matrix is not self-adjoint within 1e-12")
        object.__setattr__(self, "matrix", a)

    def value(self, z) -> np.ndarray:
        """Rayleigh quotient <Az, z>/<z, z> on raw lifts (vectorized)."""
        z = np.asarray(z, dtype=complex)
        num = hermdot(np.einsum("ij,...j->...i", self.matrix, z), z)
        return num.real / hermdot(z, z).real

    def gradient_residual(self, z) -> np.ndarray:
        """Norm of Az - f(z) z on unit lifts; zero exactly at critical points."""
        z = _unit_rows(z)
        az = np.einsum("ij,...j->...i", self.matrix, z)
        f = hermdot(az, z).real
        return np.linalg.norm(az - f[..., None] * z, axis=-1)

    def to_json(self) -> dict:
        return {"matrix": [[complex_pair(v) for v in row] for row in self.matrix]}


def diagonal_symbol(d0: float, d1: float, d2: float) -> HermitianSymbol:
    return HermitianSymbol(np.diag([d0, d1, d2]).astype(complex))


def swap_symbol(j: int, k: int) -> HermitianSymbol:
    """Symbol of the (j, k) coordinate-exchange block."""
    if not (0 <= j < k <= 2):
        raise ValueError("need coordinate indices 0 <= j < k <= 2")
    a = np.zeros((3, 3), dtype=complex)
    a[j, k] = a[k, j] = 1.0
    return HermitianSymbol(a)


# the swaps that lattice.swap_image can choose
_SWAPS = {jk: swap_symbol(*jk) for jk in ((0, 1), (1, 2))}


def symbol_flow(symbol: HermitianSymbol, t: float) -> np.ndarray:
    """The unitary exp(i t A), computed by diagonalization."""
    w, v = np.linalg.eigh(symbol.matrix)
    return (v * np.exp(1j * t * w)) @ v.conj().T


class CertificateMethod(str, enum.Enum):
    MOMENT_IMAGE_DISJOINT = "MomentImageDisjoint"
    SAMPLED_DISTANCE = "SampledDistance"


@dataclass(frozen=True)
class DisplacementCertificate:
    """Witness that a specific flow moves a torus entirely off itself."""

    symbol: HermitianSymbol
    time: float
    separation: float
    method: CertificateMethod
    samples: int
    detail: dict

    def __post_init__(self):
        if not self.separation > 0:
            raise ValueError("a certificate requires strictly positive separation")

    def to_json(self) -> dict:
        return {
            "method": self.method.value,
            "separation": self.separation,
            "samples": self.samples,
            "flow": {"symbol": self.symbol.to_json()["matrix"], "time": self.time},
            "detail": self.detail,
        }


@dataclass(frozen=True)
class NotDisplacedByTheseFlows:
    """All coordinate-swap flows fix the moment value; no verdict implied."""

    base: tuple


@dataclass(frozen=True)
class Inconclusive:
    """Sampled tori came closer than the separation threshold."""

    separation: float
    samples: int


def displace_clifford(base: ActionCoords):
    """Displacement of a toric fiber by a coordinate-swap flow, if any.

    Each swap (j, k) at time pi/2 induces the exact exchange of the j-th and
    k-th coordinates, carrying the fiber over (r0, r1) to the fiber over the
    swapped action value; fibers over distinct base points are disjoint, so
    inequality of the two moment values is an exact certificate.  The swap
    is the choice of :func:`lagrtori.lattice.swap_image`; all three swaps fix
    the moment value only at the symmetric point (1/3, 1/3).
    """
    if not base.is_interior():
        raise ValueError("displacement test expects an interior fiber")
    move = swap_image(base)
    if move is None:
        return NotDisplacedByTheseFlows(base=(base.r0, base.r1))
    return _swap_certificate(base, move)


def _swap_certificate(base: ActionCoords, move: SwapImage) -> DisplacementCertificate:
    """The exact certificate of a swap that moves the fiber."""
    return DisplacementCertificate(
        symbol=_SWAPS[move.swap],
        time=math.pi / 2.0,
        separation=move.separation,
        method=CertificateMethod.MOMENT_IMAGE_DISJOINT,
        samples=0,
        detail={
            "source_moment": [number_or_rational(base.r0), number_or_rational(base.r1)],
            "image_moment": [number_or_rational(v) for v in move.image],
            "swap": list(move.swap),
        },
    )


def _min_pairwise_chordal(a: np.ndarray, b: np.ndarray, block: int = 2048) -> float:
    """Minimum chordal distance between two unit-lift sample clouds."""
    worst = 0.0  # largest squared pairing magnitude = closest pair
    bt = np.conj(b.T)
    for i in range(0, a.shape[0], block):
        inner = a[i:i + block] @ bt
        m = float(np.max(inner.real**2 + inner.imag**2))
        if m > worst:
            worst = m
    return math.sqrt(max(0.0, 1.0 - worst))


def displace_chekanov(params: ChekanovParams, samples: int = 128,
                      threshold: float = CERTIFICATE_THRESHOLD,
                      anchor: Anchor | str = Anchor.NEAR_Z0):
    """Displacement of a Chekanov-type torus by the z2-phase rotation.

    The flow of diag(0, 0, 1) at time pi/2 negates the pencil parameter, so
    the torus over the circle centered at -mu lands over the circle centered
    at +mu; the two parameter circles are disjoint exactly when a < |mu|.
    Because every member conic passes through the base points, circle
    disjointness alone is not a full certificate, so the minimum chordal
    distance between the sampled tori is reported and must clear the
    threshold; otherwise the result is Inconclusive.  The circle action
    (z0, z1, z2) -> (e^{ia} z0, e^{-ia} z1, z2) preserves both tori and
    commutes with the flow, so one orbit-angle slice of the torus against the
    whole image (samples^3 pairs) gives the all-pairs minimum.
    """
    if classify_type(params) is not TorusType.CHEKANOV:
        raise NotChekanovType(
            f"a = {params.a} vs |mu| = {abs(params.mu)}: not in the a < |mu| regime"
        )
    torus = chekanov_torus(params, anchor)
    g = (np.arange(samples) + 0.5) / samples
    uu, vv = np.meshgrid(g, g, indexing="ij")
    cloud = _unit_rows(torus(uu, vv))  # axis 0: pencil angle t, axis 1: orbit angle s
    flow_t = math.pi / 2.0
    img = cloud.reshape(-1, 3) @ symbol_flow(diagonal_symbol(0.0, 0.0, 1.0), flow_t).T
    # Shifting s by 1/samples permutes both clouds and commutes with the flow,
    # so the s = g[0] slice meets every pair distance of the full search.
    sep = _min_pairwise_chordal(cloud[:, 0], img)
    total = samples * samples
    if sep <= threshold:
        return Inconclusive(separation=sep, samples=total)
    return DisplacementCertificate(
        symbol=diagonal_symbol(0.0, 0.0, 1.0),
        time=flow_t,
        separation=sep,
        method=CertificateMethod.SAMPLED_DISTANCE,
        samples=total,
        detail={
            "grid": [samples, samples],
            "pairs_examined": samples * total,
            "pencil_circle_gap": 2.0 * (abs(params.mu) - params.a),
            "a": params.a,
            "mu": complex_pair(params.mu),
            "delta": params.delta,
        },
    )


# ---------------------------------------------------------------------------
# the diagonal rotation construction
# ---------------------------------------------------------------------------


def _rotation_symbol() -> HermitianSymbol:
    """Symbol whose flow rotates the diagonal family: 2*swap01 + diag(1,1,0).

    Eigenvalues (3, -1, 0) are distinct integers, so the function has
    exactly three projective critical points and its flow is 2 pi periodic.
    """
    m = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
                 dtype=complex)
    return HermitianSymbol(m)


def _sphere_section(alpha: float) -> Callable[..., np.ndarray]:
    """Lift function ``lift(u, t)`` of a section of the reduced sphere of the
    level set {p1 + p2 = alpha}.

    The circle action (z0, z1) -> e^{i s}(z0, z1) preserves the level set;
    the section fixes the z0 phase, covering the reduced sphere once, so its
    symplectic area equals the reduced volume.
    """
    ra = math.sqrt(alpha)
    rc = math.sqrt(1.0 - alpha)

    def lift(u, t):
        u = np.asarray(u, dtype=float)
        t = np.asarray(t, dtype=float)
        half = 0.5 * math.pi * u
        z0 = ra * np.cos(half) * np.ones_like(t)
        z1 = ra * np.sin(half) * np.exp(2j * math.pi * t)
        z2 = rc * np.ones_like(z1)
        return np.stack([z0 + 0j, z1, z2], axis=-1)

    return lift


# Duistermaat-Heckman node levels: (Gauss-Legendre nodes in p, orbit points)
_DH_LEVELS = ((8, 32), (16, 64))
_leggauss = functools.cache(leggauss)
_ULP = 2.0 ** -53


def _weighted_integral(symbol: HermitianSymbol, alpha: float) -> tuple[float, float]:
    """Integral of the symbol against the form on the reduced sphere, and its error.

    The phase rotation of z1 acts on the reduced sphere of {p1 + p2 = alpha}
    with moment p = |z1|^2, which pushes the form forward to Lebesgue measure
    on [0, alpha] (Duistermaat-Heckman); so the integral is that of the orbit
    mean over p.  The error is the gap between the two node levels plus a
    rounding floor of nodes * 2^-53 * max|H| * alpha, so it is never 0.
    """
    values = []
    for n_p, n_orbit in _DH_LEVELS:
        x, w = _leggauss(n_p)
        p = 0.5 * alpha * (x[:, None] + 1.0)
        phase = np.exp(2j * math.pi * np.arange(n_orbit) / n_orbit)
        h = symbol.value(np.stack(np.broadcast_arrays(
            np.sqrt(alpha - p), np.sqrt(p) * phase, math.sqrt(1.0 - alpha)), axis=-1))
        values.append(0.5 * alpha * float(w @ h.mean(axis=1)))
    floor = n_p * n_orbit * _ULP * float(np.max(np.abs(h))) * alpha
    return values[-1], abs(values[-1] - values[-2]) + floor


def _critical_points(symbol: HermitianSymbol) -> list[np.ndarray]:
    """The projective critical points of the symbol function, by eigh.

    For a Hermitian form with distinct eigenvalues the critical points of
    its Rayleigh quotient on the plane are exactly the three eigenlines.
    Raises CriticalPointMiscount when the least eigenvalue gap is at most
    1e-6 (a repeated eigenvalue makes a whole critical line) or when an
    eigenline misses gradient_residual < 1e-10.
    """
    w, v = np.linalg.eigh(symbol.matrix)
    points = [canonical_gauge(v[:, k]) for k in range(3)]
    gaps, residuals = np.diff(w), symbol.gradient_residual(np.array(points))
    if np.min(gaps) <= 1e-6 or np.max(residuals) >= 1e-10:
        raise CriticalPointMiscount(
            f"eigenvalue gaps {gaps.tolist()}, eigenline residuals"
            f" {residuals.tolist()}: not exactly 3 critical points")
    return points


class AlphaReport(NamedTuple):
    alpha: float
    reduced_area: float
    reduced_area_error: float
    normalization: float
    normalization_error: float
    marked_moment: tuple[float, float]
    extreme_values: tuple[float, float]
    extreme_location_gap: float


@dataclass(frozen=True)
class RotationReport:
    """Validated data for the rotation flow of the diagonal torus family."""

    symbol: HermitianSymbol
    alphas: tuple[AlphaReport, ...]
    critical_points: tuple[np.ndarray, ...]
    critical_values: tuple[float, ...]
    swap_moment_deviation: float
    periodicity_deviation: float

    def to_json(self) -> dict:
        return {
            "symbol": self.symbol.to_json()["matrix"],
            "alphas": [
                {
                    "alpha": a.alpha,
                    "reduced_area": a.reduced_area,
                    "reduced_area_error": a.reduced_area_error,
                    "normalization": a.normalization,
                    "normalization_error": a.normalization_error,
                    "marked_moment": list(a.marked_moment),
                    "extreme_values": list(a.extreme_values),
                    "extreme_location_gap": a.extreme_location_gap,
                }
                for a in self.alphas
            ],
            "critical_points": [
                [complex_pair(c) for c in p] for p in self.critical_points
            ],
            "critical_values": list(self.critical_values),
            "swap_moment_deviation": self.swap_moment_deviation,
            "periodicity_deviation": self.periodicity_deviation,
        }


def build_diagonal_rotation(alpha_samples, grid: int = 64, area_tol: float = 1e-6,
                            period_tol: float = 1e-8) -> RotationReport:
    """Assemble and validate the rotation flow on diagonal level sets.

    For each alpha in (0, 1): the level set {p1 + p2 = alpha} reduces to a
    sphere whose area must equal alpha; the rotation function restricted
    there must integrate to alpha^2 and attain its extremes on the marked
    diagonal circle (the image of the fiber with periods (alpha/2, alpha/2)).
    Globally the function must have exactly three critical points, and the
    exact swap flow realizing the same rotation must exchange fiber moment
    values and be 2 pi periodic.

    Three exact reductions do the work: the sphere area is, by Stokes, the
    boundary rule on the one edge of the section not collapsed to a point;
    the weighted integral is, by Duistermaat-Heckman, the integral over
    p in [0, alpha] of the symbol's z1-orbit mean; the critical points are
    the eigenlines of the symbol matrix.  Each reported error is a level gap
    plus a rounding floor, never 0, and each NormalizationFailure gate tests
    |value - target| + error against ``area_tol``.  The check points are
    fixed, so the report is deterministic.
    """
    if grid < 32:
        raise ValueError("grid resolution must be at least 32")
    symbol = _rotation_symbol()

    reports = []
    for alpha in alpha_samples:
        alpha = float(alpha)
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha values must lie strictly inside (0, 1)")
        section = _sphere_section(alpha)
        # the u = 0 edge of the section is a point, so the u = 1 edge bounds it
        area = loop_symplectic_area(lambda t: section(np.ones_like(t), t))
        area_err = area.error + area.nodes * _ULP * abs(area.value)
        if abs(area.value - alpha) + area_err > area_tol:
            raise NormalizationFailure(f"reduced area {area.value!r} (error {area_err:.1e})"
                                       f" differs from alpha = {alpha}")
        norm, norm_err = _weighted_integral(symbol, alpha)
        if abs(norm - alpha * alpha) + norm_err > area_tol:
            raise NormalizationFailure(f"rotation function integrates to {norm!r}"
                                       f" (error {norm_err:.1e}), want alpha^2")

        g = (np.arange(grid) + 0.5) / grid
        uu, tt = np.meshgrid(g, g, indexing="ij")
        pts = _unit_rows(section(uu, tt)).reshape(-1, 3)
        vals = symbol.value(pts)
        hi, lo = int(np.argmax(vals)), int(np.argmin(vals))
        half, rest = math.sqrt(alpha / 2), math.sqrt(1 - alpha)
        marked_hi, marked_lo = (_unit_rows(np.array([half, sign * half, rest], dtype=complex))
                                for sign in (1.0, -1.0))
        gap = max(float(chordal_distance(pts[hi], marked_hi)),
                  float(chordal_distance(pts[lo], marked_lo)))
        m_hi = moment_map(marked_hi)
        reports.append(AlphaReport(
            alpha, area.value, area_err, norm, norm_err,
            (float(m_hi[..., 0]), float(m_hi[..., 1])),
            (float(vals[hi]), float(vals[lo])), gap,
        ))

    crits = _critical_points(symbol)
    crit_vals = tuple(float(symbol.value(p)) for p in crits)

    # fixed check points: the interior lattice fibers (i/10, j/10), i <= j,
    # at angles off the axes; none lies on a coordinate plane
    th = 2.0 * math.pi * (np.arange(8) + 0.5) / 8.0
    th0, th1 = np.meshgrid(th, th, indexing="ij")
    bases = [ActionCoords(Fraction(i, 10), Fraction(j, 10))
             for i in range(1, 5) for j in range(i, 5)]
    zs = np.concatenate([CliffordFiber(b).lift(th0, th1).reshape(-1, 3) for b in bases])
    swapped = np.repeat([b.as_floats()[::-1] for b in bases], th0.size, axis=0)

    # the exact swap flow realizes the same rotation on fibers
    swap_u = symbol_flow(swap_symbol(0, 1), math.pi / 2.0)
    dev = float(np.max(np.abs(moment_map(zs @ swap_u.T) - swapped)))

    # integer eigenvalue gaps make the rotation flow 2 pi periodic
    full_turn = symbol_flow(symbol, 2.0 * math.pi)
    per_dev = float(np.max(phase_aligned_residual(zs, zs @ full_turn.T)))
    if per_dev > period_tol:
        raise NormalizationFailure(
            f"rotation flow misses 2 pi periodicity by {per_dev:.3e}"
        )

    return RotationReport(symbol, tuple(reports), tuple(crits), crit_vals, dev, per_dev)


# ---------------------------------------------------------------------------
# the combined displaceable-or-monotone verdict
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Displaceable:
    base: tuple
    certificate: DisplacementCertificate

    def to_json(self) -> dict:
        return {
            "verdict": "displaceable",
            "base": [number_or_rational(v) for v in self.base],
            "certificate": self.certificate.to_json(),
        }


@dataclass(frozen=True)
class Monotone:
    base: tuple
    witness: MonotoneWitness

    def to_json(self) -> dict:
        return {
            "verdict": "monotone",
            "base": [number_or_rational(v) for v in self.base],
            "witness": self.witness.to_json(),
        }


def enc_verdict(base: ActionCoords, tol: float = 1e-9):
    """Displaceable-or-monotone dichotomy for an interior toric fiber.

    The decision is :func:`lagrtori.lattice.dichotomy`; this wraps its swap
    in a :class:`DisplacementCertificate` or its witness in a
    :class:`Monotone` verdict.
    """
    outcome = dichotomy(base, tol)
    if isinstance(outcome, MonotoneWitness):
        return Monotone((base.r0, base.r1), outcome)
    return Displaceable((base.r0, base.r1), _swap_certificate(base, outcome))
