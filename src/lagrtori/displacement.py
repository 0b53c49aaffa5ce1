"""Hamiltonian flows of Hermitian symbols and displacement certificates.

Every flow used here is the projectivization of a one-parameter unitary
group exp(i t A) with A Hermitian; the induced projective isotopy is the
Hamiltonian flow of the symbol function <Az, z>/<z, z>.  Working with the
exact unitaries (instead of integrating an ODE) makes both displacement
certificates exact: the moment map separates a toric fiber from its image,
and the pencil map z0 z1 / z2^2 a Chekanov-type torus from its image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .chekanov import CertificateMethod, ChekanovParams, pencil_separation
from .clifford import ActionCoords, CliffordFiber
from .errors import NormalizationFailure, NotHermitian
from .geometry import hermdot, moment_map, phase_aligned_residual, rounding_floor
from .lattice import MonotoneWitness, SwapImage, dichotomy, swap_image
from .serialize import complex_pair, number_or_rational

_HERM_TOL = 1e-12
# build_diagonal_rotation: the gate on the flow's periodicity
_ROTATION_PERIOD_TOL = 1e-8


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


def displace_chekanov(params: ChekanovParams) -> DisplacementCertificate:
    """Displacement of a Chekanov-type torus by the z2-phase rotation.

    The pencil map f = z0 z1 / z2^2 is exact on the torus: its lift
    (1, eps lam^2, lam) has z2 = lam, never 0, and f = eps there, so f maps
    the torus T onto the parameter circle C = {a e^{it} - mu}.  The flow of
    diag(0, 0, 1) at time pi/2 is diag(1, 1, i), which sends f to -f, so f
    maps the image torus onto -C.  C and -C are disjoint exactly when
    a < |mu|, and then so are T and its image: the certificate is exact,
    like the moment-image one of :func:`displace_clifford`, and does not
    depend on delta.  Its separation is
    :func:`~lagrtori.chekanov.pencil_separation`, 2 (|mu| - a), the
    distance between the two image circles, which raises DegenerateFamily
    and ZeroVector naming the torus, and NotChekanovType for a > |mu|,
    where the circles meet.
    """
    separation = pencil_separation(params)
    a, mu = params.a, complex(params.mu)
    return DisplacementCertificate(
        symbol=diagonal_symbol(0.0, 0.0, 1.0),
        time=math.pi / 2.0,
        separation=separation,
        method=CertificateMethod.PENCIL_IMAGE_DISJOINT,
        samples=0,
        detail={
            "source_circle": {"center": complex_pair(-mu), "radius": a},
            "image_circle": {"center": complex_pair(mu), "radius": a},
            "a": a,
            "mu": complex_pair(mu),
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


# the eigenlines of _rotation_symbol and their eigenvalues, in ascending order:
# the matrix sends (1, -1, 0) to -(1, -1, 0), (0, 0, 1) to 0 and (1, 1, 0) to
# 3 (1, 1, 0)
_HALF = math.sqrt(0.5)
_ROTATION_CRITICAL = (
    (-1.0, (_HALF, -_HALF, 0.0)),
    (0.0, (0.0, 0.0, 1.0)),
    (3.0, (_HALF, _HALF, 0.0)),
)


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


def build_diagonal_rotation(alpha_samples) -> RotationReport:
    """Assemble and validate the rotation flow on diagonal level sets.

    For each alpha in (0, 1) the level set {|z0|^2 + |z1|^2 = alpha} reduces
    under the circle action (z0, z1) -> e^{i s}(z0, z1) to a sphere, and the
    section

        (sqrt(alpha) cos(pi u / 2), sqrt(alpha) sin(pi u / 2) e^{2 pi i t}, sqrt(1 - alpha))

    covers it once.  On unit lifts the symbol is
    |z0|^2 + |z1|^2 + 4 Re(z0 conj(z1)), which the action preserves, and on
    the section it reads h = alpha (1 + 2 sin(pi u) cos(2 pi t)).  So:

    - the reduced area is alpha: the u = 0 edge of the section is a point,
      and by Stokes the area is the action mean |z1|^2 = alpha of the u = 1
      edge (0, sqrt(alpha) e^{2 pi i t}, sqrt(1 - alpha));
    - the normalization is alpha^2: the phase rotation of z1 has moment
      p = |z1|^2 and pushes the form forward to Lebesgue measure on
      [0, alpha] (Duistermaat-Heckman, Invent. Math. 69, 1982), and the
      orbit mean of h is alpha at every p, as Re(z0 conj(z1)) has mean 0;
    - the extremes are 3 alpha and -alpha, at u = 1/2 and t = 0 or 1/2: the
      points (sqrt(alpha/2), +-sqrt(alpha/2), sqrt(1 - alpha)) of the marked
      diagonal circle, the image of the fiber over (alpha/2, alpha/2), so the
      gap between extreme and marked locations is 0;
    - the critical points are the eigenlines of the integer matrix, with its
      eigenvalues -1, 0 and 3 as values.

    Each reported error is :func:`~lagrtori.geometry.rounding_floor` of one
    rounding of its value, so it is never 0.  What is computed is the flow,
    on fixed check points: the report gives how far the exact swap flow
    realizing the same rotation misses exchanging the fiber moment values,
    and the rotation flow of :func:`symbol_flow` must be 2 pi periodic
    within 1e-8, else NormalizationFailure.  ValueError for an alpha outside
    (0, 1).
    """
    symbol = _rotation_symbol()

    reports = []
    for alpha in alpha_samples:
        alpha = float(alpha)
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha values must lie strictly inside (0, 1)")
        norm = alpha * alpha
        reports.append(AlphaReport(
            alpha, alpha, rounding_floor(1, alpha), norm, rounding_floor(1, norm),
            (alpha / 2.0, alpha / 2.0), (3.0 * alpha, -alpha), 0.0,
        ))

    crits = tuple(np.array(p, dtype=complex) for _, p in _ROTATION_CRITICAL)
    crit_vals = tuple(v for v, _ in _ROTATION_CRITICAL)

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
    if per_dev > _ROTATION_PERIOD_TOL:
        raise NormalizationFailure(
            f"rotation flow misses 2 pi periodicity by {per_dev:.3e}"
        )

    return RotationReport(symbol, tuple(reports), crits, crit_vals, dev, per_dev)


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


def enc_verdict(base: ActionCoords):
    """Displaceable-or-monotone dichotomy for an interior toric fiber.

    The decision is :func:`lagrtori.lattice.dichotomy`; this wraps its swap
    in a :class:`DisplacementCertificate` or its witness in a
    :class:`Monotone` verdict.
    """
    outcome = dichotomy(base)
    if isinstance(outcome, MonotoneWitness):
        return Monotone((base.r0, base.r1), outcome)
    return Displaceable((base.r0, base.r1), _swap_certificate(base, outcome))
