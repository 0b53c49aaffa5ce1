import dataclasses
import math

import numpy as np
import pytest

from lagrtori.clifford import D1, D2, D3, clifford_fiber, standard_disc
from lagrtori.errors import (
    BoundaryMismatch,
    ChartEscape,
    NotCanonicalBS,
)
from lagrtori.maslov import (
    DiscWithBoundary,
    canonical_bs_defect,
    disc_difference_check,
    is_monotone,
    maslov_index,
    universal_maslov_class,
)
from oracle import Surface, standard_disc_surface, surface_symplectic_area, validate_disc

_TWO_PI = 2.0 * math.pi


def companion_disc_chart0(base):
    """Disc with the d1 boundary that closes up through the z0 != 0 chart,
    and its surface.

    In the affine chart around [1:0:0] the boundary circle also bounds the
    complementary holomorphic disc lam -> (1, sqrt(r1/r0) lam, sqrt(r2/r0) lam)
    run backwards; its class differs from the d1 disc by a degree-one line,
    so its index drops by 3 and its area by 1.
    """
    fiber = clifford_fiber(base)
    r0, r1 = fiber.base.as_floats()
    r2 = 1.0 - r0 - r1
    c1 = math.sqrt(r1 / r0)
    c2 = math.sqrt(r2 / r0)

    def lift(s, t):
        lam = np.asarray(s, dtype=float) * np.exp(
            -2j * math.pi * np.asarray(t, dtype=float)
        )
        one = np.ones_like(lam)
        return np.stack([one, c1 * lam, c2 * lam], axis=-1)

    d1 = standard_disc(fiber, D1)
    disc = DiscWithBoundary(boundary_loop=d1.boundary_loop, frame=d1.frame, chart=0)
    return disc, Surface(lift, periodic=(False, True))


# ---------------------------------------------------------------------------
# index values for the standard discs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "base", [(0.2, 0.3), (0.15, 0.45), (0.45, 0.15), (1 / 3, 1 / 3), (0.3, 0.3)]
)
def test_basis_disc_indices_are_one(base):
    fiber = clifford_fiber(base)
    for cls in (D1, D2):
        res = maslov_index(standard_disc(fiber, cls))
        assert res.mu == 1
        assert res.integrality_defect <= 1e-3


@pytest.mark.parametrize("base", [(0.2, 0.3), (1 / 3, 1 / 3)])
def test_diagonal_disc_index_is_two(base):
    res = maslov_index(standard_disc(clifford_fiber(base), D3))
    assert res.mu == 2
    assert res.integrality_defect <= 1e-3


def test_index_is_chart_independent():
    d1 = standard_disc(clifford_fiber((0.2, 0.3)), D1)
    in_other_chart = dataclasses.replace(d1, chart=1)
    assert maslov_index(in_other_chart).mu == maslov_index(d1).mu


def test_companion_disc_index_and_area():
    base = (0.2, 0.3)
    comp, surface = companion_disc_chart0(base)
    validate_disc(surface, comp)
    assert maslov_index(comp).mu == -2
    est = surface_symplectic_area(surface)
    assert est.value == pytest.approx(0.2 - 1.0, abs=1e-7)


@pytest.mark.parametrize("order_flip", [False, True])
def test_disc_difference_is_three_per_line(order_flip):
    base = (0.2, 0.3)
    d1 = standard_disc(clifford_fiber(base), D1)
    comp, _ = companion_disc_chart0(base)
    if order_flip:
        assert disc_difference_check(d1, comp, sphere_degree=-1)
    else:
        assert disc_difference_check(comp, d1, sphere_degree=1)


def test_disc_difference_requires_shared_boundary():
    d1 = standard_disc(clifford_fiber((0.2, 0.3)), D1)
    d2 = standard_disc(clifford_fiber((0.2, 0.3)), D2)
    with pytest.raises(BoundaryMismatch):
        disc_difference_check(d1, d2, sphere_degree=0)


def test_validate_rejects_wrong_boundary_and_chart():
    fiber = clifford_fiber((0.2, 0.3))
    d1, surface = standard_disc(fiber, D1), standard_disc_surface(fiber, D1)
    other_loop = standard_disc(fiber, D2).boundary_loop
    broken = dataclasses.replace(d1, boundary_loop=other_loop)
    with pytest.raises(BoundaryMismatch):
        validate_disc(surface, broken)
    # the d1 disc passes through z0 = 0 at its center, so chart 0 fails
    with pytest.raises(ChartEscape):
        validate_disc(surface, dataclasses.replace(d1, chart=0))


def test_result_serializes():
    res = maslov_index(standard_disc(clifford_fiber((0.2, 0.3)), D1))
    payload = res.to_json()
    assert payload["mu"] == 1
    assert payload["integrality_defect"] <= 1e-3


# ---------------------------------------------------------------------------
# integrality and monotonicity predicates
# ---------------------------------------------------------------------------


def test_canonical_bs_defect_values():
    assert canonical_bs_defect((1 / 3, 1 / 3)) == pytest.approx(0.0, abs=1e-12)
    assert canonical_bs_defect((0.2, 0.3)) == pytest.approx(0.4, abs=1e-12)


def test_universal_class_at_the_symmetric_fiber():
    cls = universal_maslov_class((1 / 3, 1 / 3, 2 / 3), (1, 1, 2))
    assert cls == (0, 0, 0)


def test_universal_class_requires_integrality():
    with pytest.raises(NotCanonicalBS):
        universal_maslov_class((0.2, 0.3), (1, 1))


def test_is_monotone_witness():
    w = is_monotone((1 / 3, 1 / 3, 2 / 3), (1, 1, 2))
    assert w.monotone and w.canonical_bs
    assert w.universal_class == (0, 0, 0)
    assert w.bs_defect <= 1e-9

    w2 = is_monotone((0.2, 0.3), (1, 1))
    assert not w2.monotone and not w2.canonical_bs
    assert w2.universal_class is None

    # integral periods with the wrong index pairing: canonical-BS, not monotone
    w3 = is_monotone((2 / 3, 1 / 3), (1, 1))
    assert w3.canonical_bs and not w3.monotone
    assert w3.universal_class == (-1, 0)
