"""Hermitian symbols, their exact flows and the diagonal rotation report.

Every flow used here is the projectivization of a one-parameter unitary
group exp(i t A), A a symmetric integer matrix; the induced projective
isotopy is the Hamiltonian flow of the symbol function <Az, z>/<z, z>.
The package uses three flows, each at a quarter or a full turn, and each
is an exact monomial matrix, proved where it is used: the swap (j, k) at
pi/2 (:func:`swap_symbol`), diag(0, 0, 1) at pi/2
(:func:`lagrtori.chekanov.pencil_separation`) and the rotation symbol at
2 pi (:func:`build_diagonal_rotation`).  So no flow is computed, and each
displacement decision has one owner: :func:`lagrtori.lattice.dichotomy`
for a toric fiber, whose swap (j, k) names the Hamiltonian
``swap_symbol(j, k)`` and whose moment values separate the fiber from its
image, and ``pencil_separation`` for a Chekanov-type torus, whose pencil
map separates it from its image.  The module needs no numerics stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import NotHermitian
from .lattice import rounding_floor
from .serialize import complex_pair


@dataclass(frozen=True)
class HermitianSymbol:
    """A symmetric 3x3 integer matrix, viewed as the real function
    <Az, z>/<z, z> on the plane.

    ``matrix`` is stored as a tuple of three rows of three ``int`` entries,
    so a symbol is immutable and hashable.  Any other shape or entry type
    (float, complex, bool, NaN, an infinity), and any asymmetric matrix,
    raises NotHermitian.
    """

    matrix: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        try:
            rows = tuple(tuple(row) for row in self.matrix)
        except TypeError:
            raise NotHermitian("expected a 3x3 matrix of integer rows") from None
        lengths = [len(row) for row in rows]
        if lengths != [3, 3, 3]:
            raise NotHermitian(f"expected a 3x3 matrix, got rows of lengths {lengths}")
        if not all(type(v) is int for row in rows for v in row):
            raise NotHermitian("expected int entries")
        if any(rows[i][j] != rows[j][i] for i in range(3) for j in range(i)):
            raise NotHermitian("matrix is not symmetric")
        object.__setattr__(self, "matrix", rows)


def swap_symbol(j: int, k: int) -> HermitianSymbol:
    """Symbol of the (j, k) coordinate-exchange block.

    Its flow at time pi/2 is exact: the block S = [[0, 1], [1, 0]] has
    S^2 = I, so exp(i t S) = cos(t) I + i sin(t) S, which at t = pi/2 is
    i S; the third coordinate has eigenvalue 0 and keeps the factor 1.  The
    flow sends z to the point with z_j and z_k exchanged and each multiplied
    by i.  Multiplying by i is exact in floating point (it exchanges the
    real and imaginary parts and negates one), so the squared moduli of the
    image are exactly those of z with j and k exchanged: the image of the
    fiber over a moment value is the fiber over the swapped value.  Fibers
    over distinct moment values are disjoint, so the swap (j, k) that
    :func:`lagrtori.lattice.dichotomy` returns displaces the fiber exactly,
    at the distance between the two moment values.
    """
    if not (0 <= j < k <= 2):
        raise ValueError("need coordinate indices 0 <= j < k <= 2")
    return HermitianSymbol(tuple(tuple(int({a, b} == {j, k}) for b in range(3))
                                 for a in range(3)))


# ---------------------------------------------------------------------------
# the diagonal rotation construction
# ---------------------------------------------------------------------------


# the symbol whose flow rotates the diagonal family: 2 swap01 + diag(1, 1, 0)
_ROTATION = HermitianSymbol(((1, 2, 0), (2, 1, 0), (0, 0, 0)))

# the eigenlines of _ROTATION and their eigenvalues, in ascending order:
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
    """Closed-form data for the rotation flow of the diagonal torus family."""

    symbol: HermitianSymbol
    alphas: tuple[AlphaReport, ...]
    critical_points: tuple[tuple[float, float, float], ...]
    critical_values: tuple[float, ...]
    swap_moment_deviation: float
    periodicity_deviation: float

    def to_json(self) -> dict:
        return {
            "symbol": [[complex_pair(v) for v in row] for row in self.symbol.matrix],
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
    """The rotation flow on diagonal level sets, in closed form.

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

    Each reported error is :func:`~lagrtori.lattice.rounding_floor` of one
    rounding of its value, so it is never 0.  The two flow deviations are
    0.0 by proof:

    - ``swap_moment_deviation``: the swap flow of :func:`swap_symbol` (0, 1)
      at pi/2, which realizes the same rotation on fibers, exchanges the
      fiber moment values exactly (the proof is in its docstring);
    - ``periodicity_deviation``: the rotation symbol is real symmetric with
      the integer eigenvalues -1, 0 and 3, so on an orthonormal eigenbasis
      its flow at 2 pi is diag(e^{-2 pi i}, e^0, e^{6 pi i}), the identity.

    ValueError for an alpha outside (0, 1).
    """
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

    crits = tuple(p for _, p in _ROTATION_CRITICAL)
    crit_vals = tuple(v for v, _ in _ROTATION_CRITICAL)
    return RotationReport(_ROTATION, tuple(reports), crits, crit_vals, 0.0, 0.0)
