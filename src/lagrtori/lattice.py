"""Exact rational layer: action coordinates, integral-level fibers and the
displaceable-or-monotone dichotomy.

Everything here is exact arithmetic on the moment triangle
{r0 >= 0, r1 >= 0, r0 + r1 <= 1}, decided on the numerators and
denominators of ``Fraction`` coordinates, plus the few float tests that
the dichotomy reports.  The module needs no numerics stack, so the exact
reports (``bs-count``, ``enc-report``, ``plot``) run without importing
numpy.  :mod:`lagrtori.clifford`, :mod:`lagrtori.maslov` and
:mod:`lagrtori.displacement` re-export these names as the same objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .errors import InternalContradiction, NotCanonicalBS
from .serialize import rational_pair


@dataclass(frozen=True)
class ActionCoords:
    """A point of the closed moment triangle; floats or exact Fractions.

    ``exact`` is (n0, d0, n1, d1) when both coordinates are exact (Fraction
    or int), else None.  The exact tests decide on these integers;
    denominators are positive, so comparisons cross-multiply.
    """

    r0: float | Fraction
    r1: float | Fraction
    exact: tuple[int, int, int, int] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r0, r1 = self.r0, self.r1
        exact = None
        if isinstance(r0, (Fraction, int)) and isinstance(r1, (Fraction, int)):
            exact = (r0.numerator, r0.denominator, r1.numerator, r1.denominator)
        object.__setattr__(self, "exact", exact)
        # exact inputs first; the tolerant test below accepts a superset and
        # decides everything else
        if exact is not None:
            n0, d0, n1, d1 = exact
            if n0 >= 0 and n1 >= 0 and n0 * d1 + n1 * d0 <= d0 * d1:
                return
        eps = 1e-12
        if r0 < -eps or r1 < -eps or r0 + r1 > 1 + eps:
            raise ValueError(f"({r0}, {r1}) is outside the moment triangle")

    @property
    def r2(self):
        return 1 - self.r0 - self.r1

    def is_interior(self) -> bool:
        if self.exact is not None:
            n0, d0, n1, d1 = self.exact
            return n0 > 0 and n1 > 0 and n0 * d1 + n1 * d0 < d0 * d1
        return self.r0 > 0 and self.r1 > 0 and self.r0 + self.r1 < 1

    def as_floats(self) -> tuple[float, float]:
        return (float(self.r0), float(self.r1))


# ---------------------------------------------------------------------------
# integral-level fibers: exact enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BSFiberSet:
    """Exact rational enumeration of integral fibers at a given level."""

    level: int
    closed: bool
    fibers: tuple[ActionCoords, ...]

    @property
    def count(self) -> int:
        return len(self.fibers)

    @property
    def dimension(self) -> int:
        """Dimension of the matching space of plane sections, in closed form.

        Interior fibers at level k match degree-(k-3) homogeneous polynomials
        in three variables; closed fibers match degree k.  Dimensions below
        degree 0 are 0.
        """
        return section_dimension(self.level, self.closed)

    def comparison(self) -> "HilbertComparison":
        """The enumerated count against :attr:`dimension`."""
        return HilbertComparison(self.count, self.dimension, self.count == self.dimension)

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "closed": self.closed,
            "count": self.count,
            "fibers": [[rational_pair(f.r0), rational_pair(f.r1)] for f in self.fibers],
        }


def enumerate_bs_fibers(level: int, closed: bool = False) -> BSFiberSet:
    """All fibers whose level-scaled periods are integers, exactly.

    Interior ('open') fibers at level k are the lattice points (i/k, j/k)
    with i, j >= 1 and i + j <= k - 1; the closed count adds the boundary
    lattice (degenerate fibers), enumerated combinatorially without building
    torus parametrizations.  Everything is Fraction arithmetic -- no floats.
    """
    vals = lattice_values(level)
    fibers = tuple(ActionCoords(vals[i], vals[j]) for i, j in lattice_indices(level, closed))
    return BSFiberSet(level, closed, fibers)


def lattice_indices(level: int, closed: bool = False) -> list[tuple[int, int]]:
    """The index pairs (i, j) of the fibers (i/level, j/level), in report order.

    Interior: i, j >= 1 and i + j <= level - 1.  Closed: i, j >= 0 and
    i + j <= level.  Raises ValueError for a level below 1.
    """
    if level < 1:
        raise ValueError("level must be a positive integer")
    lo = 0 if closed else 1
    hi = level if closed else level - 1
    return [(i, j) for i in range(lo, hi + 1) for j in range(lo, hi - i + 1)]


def lattice_values(level: int) -> list[Fraction]:
    """The coordinates i/level for i = 0..level, one Fraction per index."""
    return [Fraction(i, level) for i in range(level + 1)]


def section_dimension(level: int, closed: bool = False) -> int:
    """Dimension of the space of plane sections that the level-``level``
    fibers match, in closed form (see :attr:`BSFiberSet.dimension`)."""
    deg = level if closed else level - 3
    return (deg + 1) * (deg + 2) // 2 if deg >= 0 else 0


class HilbertComparison(NamedTuple):
    count: int
    dimension: int
    match: bool


def hilbert_dimension(level: int, closed: bool = False) -> HilbertComparison:
    """Compare the enumerated fiber count with the matching space of plane
    sections (:attr:`BSFiberSet.dimension`)."""
    return enumerate_bs_fibers(level, closed).comparison()


def interior_rational_grid(n: int) -> list[tuple[Fraction, Fraction]]:
    """The n-by-n interior rational grid of the triangle: (i/(n+2), j/(n+2)).

    Each axis index runs over 1..n, constrained to the open triangle: the
    interior lattice of level n + 2.  When n + 2 is divisible by 3 the
    centroid (1/3, 1/3) is a grid point.
    """
    if n < 1:
        raise ValueError("grid size must be positive")
    vals = lattice_values(n + 2)
    return [(vals[i], vals[j]) for i, j in lattice_indices(n + 2)]


# ---------------------------------------------------------------------------
# tripled-period integrality and monotonicity
# ---------------------------------------------------------------------------


def canonical_bs_defect(periods, multiple: int = 3) -> float:
    """Distance of ``multiple * p_i`` from the integer lattice, worst case."""
    vals = [float(p) * multiple for p in periods]
    return max(abs(v - round(v)) for v in vals)


def universal_maslov_class(fiber_periods, mus, tol: float = 1e-5) -> tuple[int, ...]:
    """Integers mu_i - 3 * p_i for a torus whose tripled periods are integral.

    ``mus`` holds integers or objects with an integer ``mu`` attribute (a
    :class:`lagrtori.maslov.MaslovResult`).  Raises NotCanonicalBS when some
    3 * p_i is farther than ``tol`` from an integer -- the class is well
    defined exactly on that locus.
    """
    defect = canonical_bs_defect(fiber_periods)
    if defect > tol:
        raise NotCanonicalBS(
            f"3*periods miss the integer lattice by {defect:.3e} > {tol:.1e}"
        )
    out = []
    for p, m in zip(fiber_periods, mus):
        val = int(getattr(m, "mu", m)) - 3.0 * float(p)
        nearest = round(val)
        if abs(val - nearest) > 1e-4:
            raise ArithmeticError(
                f"universal class value {val} is not integral within 1e-4"
            )
        out.append(int(nearest))
    return tuple(out)


@dataclass(frozen=True)
class MonotoneWitness:
    monotone: bool
    canonical_bs: bool
    bs_defect: float
    universal_class: tuple[int, ...] | None

    def to_json(self) -> dict:
        return {
            "monotone": self.monotone,
            "canonical_bs": self.canonical_bs,
            "bs_defect": self.bs_defect,
            "universal_class": list(self.universal_class)
            if self.universal_class is not None
            else None,
        }


def is_monotone(fiber_periods, mus, tol: float = 1e-5) -> MonotoneWitness:
    """Monotonicity test: tripled periods integral and universal class zero."""
    defect = canonical_bs_defect(fiber_periods)
    try:
        cls = universal_maslov_class(fiber_periods, mus, tol)
    except NotCanonicalBS:
        return MonotoneWitness(False, False, defect, None)
    return MonotoneWitness(all(c == 0 for c in cls), True, defect, cls)


# ---------------------------------------------------------------------------
# the displaceable-or-monotone dichotomy
# ---------------------------------------------------------------------------


class SwapImage(NamedTuple):
    """The first coordinate swap (j, k) that moves a fiber off itself, the
    moment value it lands on and the distance between the two moment values."""

    swap: tuple[int, int]
    image: tuple
    separation: float


def swap_image(base: ActionCoords) -> SwapImage | None:
    """The swap choice for an interior fiber, or None if no swap moves it.

    The swaps are tried in the order (0, 1), (1, 2), (0, 2).  (0, 1) moves
    every point off the diagonal r0 = r1; on it, (1, 2) and (0, 2) both move
    exactly the points with r2 != r0, so (0, 2) is never the first to move.
    All three fix the moment value only at the symmetric point (1/3, 1/3).

    On exact coordinates the choice is made on numerators and denominators,
    and each separation component is one correctly rounded int division:
    the same float as ``float`` of the Fraction difference.
    """
    if base.exact is not None:
        n0, d0, n1, d1 = base.exact
        if n0 * d1 != n1 * d0:
            x = (n1 * d0 - n0 * d1) / (d0 * d1)  # r1 - r0
            return SwapImage((0, 1), (base.r1, base.r0), math.hypot(x, -x))
        if 3 * n0 == d0:
            return None
        # on the diagonal, r2 - r1 = 1 - 3 * r0
        return SwapImage((1, 2), (base.r0, base.r2), math.hypot(0.0, (d0 - 3 * n0) / d0))
    r0, r1 = base.r0, base.r1
    if r0 != r1:
        jk, img = (0, 1), (r1, r0)
    else:
        r2 = base.r2
        if r2 == r0:
            return None
        jk, img = (1, 2), (r0, r2)
    return SwapImage(jk, img, math.hypot(float(img[0] - r0), float(img[1] - r1)))


def _exact_canonical_bs(base: ActionCoords, tol: float) -> bool:
    if base.exact is not None:
        n0, d0, n1, d1 = base.exact
        return 3 * n0 % d0 == 0 and 3 * n1 % d1 == 0
    return all(abs(3 * float(v) - round(3 * float(v))) <= tol for v in (base.r0, base.r1))


def dichotomy(base: ActionCoords, tol: float = 1e-9) -> SwapImage | MonotoneWitness:
    """Displaceable-or-monotone decision for an interior toric fiber.

    Combines the exact swap-displacement test (:func:`swap_image`), the exact
    tripled-period integrality test and the universal-class witness.  Returns
    the swap that displaces the fiber, or the witness that it is monotone.
    Exactly one verdict must fire, else InternalContradiction; both
    diagonals of the dichotomy meet only at (1/3, 1/3).
    """
    if not base.is_interior():
        raise ValueError("verdict expects an interior fiber")
    move = swap_image(base)
    displaced = move is not None

    witness = None
    if _exact_canonical_bs(base, tol):
        r0, r1 = float(base.r0), float(base.r1)
        witness = is_monotone((r0, r1, r0 + r1), (1, 1, 2))
    monotone = witness is not None and witness.monotone

    if displaced and not monotone:
        return move
    if monotone and not displaced:
        return witness
    raise InternalContradiction(
        f"fiber ({base.r0}, {base.r1}): displaced={displaced}, monotone={monotone}"
    )
