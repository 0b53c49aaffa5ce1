import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lagrtori.clifford import (
    ActionCoords,
    D1,
    D2,
    D3,
    DeformationSpec,
    HomologyClass,
    _deformed_cycle,
    clifford_fiber,
    deformed_fiber_periods,
    diagonal_period,
    enumerate_bs_fibers,
    fiber_periods,
    hilbert_dimension,
    interior_rational_grid,
    ks_jacobian,
    standard_disc,
)
from lagrtori.errors import (
    BoundaryFiber,
    LeavesTriangle,
    StencilOutOfDomain,
    UnsupportedClass,
)
from lagrtori.geometry import loop_symplectic_area
from oracle import (
    Surface,
    deformed_surface,
    fiber_surface,
    standard_disc_surface,
    surface_form_grid,
    surface_symplectic_area,
    validate_disc,
)



# ---------------------------------------------------------------------------
# action coordinates and fibers
# ---------------------------------------------------------------------------


def test_action_coords_validation():
    assert ActionCoords(0.2, 0.3).r2 == pytest.approx(0.5)
    assert ActionCoords(Fraction(1, 3), Fraction(1, 3)).is_interior()
    assert not ActionCoords(0.0, 0.5).is_interior()
    with pytest.raises(ValueError):
        ActionCoords(0.7, 0.4)
    with pytest.raises(ValueError):
        ActionCoords(-0.1, 0.5)


def test_action_coords_exact_test_keeps_the_tolerance():
    # the exact fast path must not change which points are accepted
    ActionCoords(Fraction(-1, 10**13), Fraction(1, 2))
    ActionCoords(Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**13))
    with pytest.raises(ValueError):
        ActionCoords(Fraction(-1, 10**11), Fraction(1, 2))
    with pytest.raises(ValueError):
        ActionCoords(Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**11))
    ActionCoords(-1e-13, 0.5)
    ActionCoords(0.5, 0.5 + 1e-13)
    with pytest.raises(ValueError):
        ActionCoords(-1e-11, 0.5)
    with pytest.raises(ValueError):
        ActionCoords(0.5, 0.5 + 1e-11)


def test_boundary_fiber_rejected():
    with pytest.raises(BoundaryFiber):
        clifford_fiber(ActionCoords(0.0, 0.5))


@pytest.mark.parametrize("base", [(0.2, 0.3), (0.45, 0.45), (1 / 3, 1 / 3)])
def test_fiber_is_lagrangian(base):
    fiber = clifford_fiber(base)
    surf = fiber_surface(fiber)
    g = (np.arange(16) + 0.5) / 16
    ss, tt = np.meshgrid(g, g, indexing="ij")
    assert np.max(np.abs(surface_form_grid(surf, ss, tt))) < 1e-10


def test_fiber_points_have_expected_moduli():
    fiber = clifford_fiber((0.2, 0.3))
    z = fiber.lift(0.7, 1.9)
    np.testing.assert_allclose(np.abs(z) ** 2, [0.2, 0.3, 0.5], atol=1e-14)


# ---------------------------------------------------------------------------
# standard discs and periods
# ---------------------------------------------------------------------------


def test_standard_disc_areas_match_actions():
    fiber = clifford_fiber((0.2, 0.3))
    for cls, want in ((D1, 0.2), (D2, 0.3), (D3, 0.5)):
        est = surface_symplectic_area(standard_disc_surface(fiber, cls))
        assert est.value == pytest.approx(want, abs=1e-7)


def test_standard_disc_validates():
    fiber = clifford_fiber((0.2, 0.3))
    for cls in (D1, D2, D3):
        validate_disc(standard_disc_surface(fiber, cls), standard_disc(fiber, cls))


def test_unsupported_class_rejected():
    fiber = clifford_fiber((0.2, 0.3))
    with pytest.raises(UnsupportedClass):
        standard_disc(fiber, HomologyClass(2, 1))


@pytest.mark.parametrize("base", [(0.15, 0.15), (0.3, 0.45), (0.45, 0.3)])
def test_fiber_periods_recover_actions(base):
    got = fiber_periods(base)
    assert got.p1 == pytest.approx(base[0], abs=1e-6)
    assert got.p2 == pytest.approx(base[1], abs=1e-6)
    assert got.p1_error < 1e-6 and got.p2_error < 1e-6


def test_diagonal_period_is_sum_of_basis_periods():
    base = (0.25, 0.35)
    p = fiber_periods(base)
    d3, err = diagonal_period(base)
    assert d3 == pytest.approx((p.p1 + p.p2) % 1.0, abs=2e-6)
    assert err < 1e-6


def test_periods_scale_with_level():
    base = (0.2, 0.3)
    p3 = fiber_periods(base, level=3)
    assert p3.p1 == pytest.approx((3 * 0.2) % 1.0, abs=1e-6)
    assert p3.p2 == pytest.approx((3 * 0.3) % 1.0, abs=1e-6)


def _mod1_gap(x, y):
    gap = abs(x - y) % 1.0
    return min(gap, 1.0 - gap)


BASES = [(0.15, 0.15), (0.3, 0.45), (0.45, 0.3)]


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("cls", [D1, D2, D3])
def test_boundary_loop_matches_2d_disc_area(base, cls):
    fiber = clifford_fiber(base)
    loop = loop_symplectic_area(standard_disc(fiber, cls).boundary_loop)
    assert loop.value == pytest.approx(
        surface_symplectic_area(standard_disc_surface(fiber, cls)).value, abs=1e-7)


@pytest.mark.parametrize("base", BASES + [(1 / 3, 1 / 3)])
@pytest.mark.parametrize("level", [1, 3])
def test_periods_match_closed_forms_within_their_errors(base, level):
    r0, r1 = base
    p = fiber_periods(base, level=level)
    d3, d3_error = diagonal_period(base, level=level)
    for got, err, want in ((p.p1, p.p1_error, r0), (p.p2, p.p2_error, r1),
                           (d3, d3_error, r0 + r1)):
        gap = _mod1_gap(got, level * want)
        assert gap <= 1e-12
        assert gap <= err + 1e-15


# ---------------------------------------------------------------------------
# integral fiber enumeration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("level", range(1, 31))
def test_bs_counts_closed_form(level):
    open_count = enumerate_bs_fibers(level, closed=False).count
    closed_count = enumerate_bs_fibers(level, closed=True).count
    assert open_count == (level - 1) * (level - 2) // 2
    assert closed_count == (level + 1) * (level + 2) // 2


def test_level3_unique_interior_fiber():
    fibers = enumerate_bs_fibers(3, closed=False)
    assert fibers.count == 1
    f = fibers.fibers[0]
    assert (f.r0, f.r1) == (Fraction(1, 3), Fraction(1, 3))


@pytest.mark.parametrize("level,want", [(1, 3), (2, 6), (3, 10)])
def test_closed_counts_small_levels(level, want):
    assert enumerate_bs_fibers(level, closed=True).count == want


@pytest.mark.parametrize("closed", [False, True])
def test_fiber_set_dimension_is_closed_form(closed):
    for level in range(1, 31):
        fibers = enumerate_bs_fibers(level, closed)
        deg = level if closed else level - 3
        want = math.comb(deg + 2, 2) if deg >= 0 else 0
        assert fibers.dimension == want
        assert fibers.comparison() == (len(fibers.fibers), want, len(fibers.fibers) == want)
        assert hilbert_dimension(level, closed) == fibers.comparison()


@pytest.mark.parametrize("level", range(3, 31))
def test_hilbert_dimension_matches_open_count(level):
    cmp = hilbert_dimension(level, closed=False)
    assert cmp.match
    assert cmp.dimension == (level - 2) * (level - 1) // 2


def test_closed_count_matches_full_space_dimension():
    cmp = hilbert_dimension(6, closed=True)
    assert cmp.match and cmp.dimension == 28


def test_bs_fiber_set_json_round_trip():
    payload = enumerate_bs_fibers(3, closed=False).to_json()
    assert payload["count"] == 1
    assert payload["fibers"] == [[[1, 3], [1, 3]]]


@pytest.mark.parametrize("closed", [False, True])
def test_enumeration_matches_pointwise_construction(closed):
    for level in range(1, 31):
        lo, hi = (0, level) if closed else (1, level - 1)
        want = [ActionCoords(Fraction(i, level), Fraction(j, level))
                for i in range(lo, hi + 1) for j in range(lo, hi - i + 1)]
        assert list(enumerate_bs_fibers(level, closed).fibers) == want


def test_interior_grid_matches_pointwise_construction():
    for n in range(1, 31):
        want = [(Fraction(i, n + 2), Fraction(j, n + 2))
                for i in range(1, n + 1) for j in range(1, n + 2 - i)]
        assert interior_rational_grid(n) == want


def test_interior_grid_contains_centroid_when_divisible():
    grid19 = interior_rational_grid(19)
    assert len(grid19) == 190
    assert (Fraction(1, 3), Fraction(1, 3)) in grid19
    grid5 = interior_rational_grid(5)
    assert len(grid5) == 15
    assert (Fraction(1, 3), Fraction(1, 3)) not in grid5
    assert all(a > 0 and b > 0 and a + b < 1 for a, b in grid19)


# ---------------------------------------------------------------------------
# the period-map derivative
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("base", [(0.2, 0.3), (0.4, 0.25), (1 / 3, 1 / 3), (0.3, 0.3)])
def test_ks_jacobian_is_identity(base):
    res = ks_jacobian(base)
    assert res.determinant == pytest.approx(1.0, abs=1e-6)
    assert res.jacobian[0, 0] > 0 and res.jacobian[1, 1] > 0


def test_ks_jacobian_stencil_guard():
    with pytest.raises(StencilOutOfDomain):
        ks_jacobian((0.5, 0.49999), step=1e-3)


# ---------------------------------------------------------------------------
# graph deformations
# ---------------------------------------------------------------------------


def _bump(theta0, theta1):
    return 0.05 * np.sin(theta0) * np.cos(2.0 * theta1)


def test_deformed_torus_is_lagrangian_for_exact_forms():
    fiber = clifford_fiber((0.3, 0.3))
    surf = deformed_surface(fiber, DeformationSpec(0.0, 0.0, f=_bump))
    g = (np.arange(12) + 0.5) / 12
    ss, tt = np.meshgrid(g, g, indexing="ij")
    assert np.max(np.abs(surface_form_grid(surf, ss, tt))) < 1e-8


def test_exact_form_deformation_moves_no_period():
    fiber = clifford_fiber((0.2, 0.3))
    got = deformed_fiber_periods(fiber, DeformationSpec(0.0, 0.0, f=_bump))
    assert got.p1 == pytest.approx(0.2, abs=2e-6)
    assert got.p2 == pytest.approx(0.3, abs=2e-6)


@pytest.mark.parametrize("scale", [0.25, 0.5])
def test_closed_form_deformation_shifts_periods_linearly(scale):
    fiber = clifford_fiber((0.25, 0.35))
    spec = DeformationSpec(0.08, -0.06, f=_bump, scale=scale)
    got = deformed_fiber_periods(fiber, spec)
    assert got.p1 == pytest.approx((0.25 + scale * 0.08) % 1.0, abs=2e-6)
    assert got.p2 == pytest.approx((0.35 - scale * 0.06) % 1.0, abs=2e-6)


def test_level_multiplies_deformed_periods():
    fiber = clifford_fiber((0.25, 0.35))
    spec = DeformationSpec(0.04, 0.05, scale=0.25)
    got = deformed_fiber_periods(fiber, spec, level=3)
    assert got.p1 == pytest.approx((3 * (0.25 + 0.01)) % 1.0, abs=6e-6)
    assert got.p2 == pytest.approx((3 * (0.35 + 0.0125)) % 1.0, abs=6e-6)


def test_deformation_leaving_triangle_rejected():
    fiber = clifford_fiber((0.1, 0.1))
    with pytest.raises(LeavesTriangle):
        deformed_surface(fiber, DeformationSpec(-0.2, 0.0))
    with pytest.raises(LeavesTriangle):
        deformed_fiber_periods(fiber, DeformationSpec(-0.2, 0.0))


def _tube(inner, outer) -> Surface:
    """Surface from loop ``inner`` (s = 0) to loop ``outer`` (s = 1) that
    interpolates the squared moduli and keeps the phases of ``inner``."""

    def lift(s, t):
        s = np.asarray(s, dtype=float)[..., None]
        zi, zo = inner(t), outer(t)
        moduli = (1.0 - s) * np.abs(zi) ** 2 + s * np.abs(zo) ** 2
        return np.sqrt(moduli) * np.exp(1j * np.angle(zi))

    return Surface(lift, periodic=(False, True))


def _small_exact_part(theta0, theta1):
    return 0.01 * np.sin(theta0) * np.cos(theta1)


# bases and deformation classes of the toric benchmark (its seed 0)
TORIC_DEFORMATIONS = [((1 / 3, 1 / 3), (0.034, 0.026)),
                      ((0.2, 0.4), (-0.008, -0.024)),
                      ((0.4, 0.2), (0.001, -0.01))]


@pytest.mark.parametrize("base,cls_shift", TORIC_DEFORMATIONS)
def test_deformed_cycle_matches_disc_plus_tube(base, cls_shift):
    fiber = clifford_fiber(base)
    spec = DeformationSpec(*cls_shift, f=_small_exact_part)
    got = deformed_fiber_periods(fiber, spec)
    for cls, period in ((D1, got.p1), (D2, got.p2)):
        disc = standard_disc(fiber, cls)
        tube = _tube(disc.boundary_loop, _deformed_cycle(fiber, spec, cls))
        oracle = (surface_symplectic_area(standard_disc_surface(fiber, cls)).value
                  + surface_symplectic_area(tube).value)
        assert period == pytest.approx(oracle, abs=1e-7)


@pytest.mark.parametrize("base,cls_shift", TORIC_DEFORMATIONS)
@pytest.mark.parametrize("scale,level", [(1.0, 1), (0.5, 3)])
def test_deformed_periods_match_closed_forms_within_their_errors(base, cls_shift,
                                                                 scale, level):
    spec = DeformationSpec(*cls_shift, f=_bump, scale=scale)
    got = deformed_fiber_periods(clifford_fiber(base), spec, level=level)
    for period, err, r, c in ((got.p1, got.p1_error, base[0], cls_shift[0]),
                              (got.p2, got.p2_error, base[1], cls_shift[1])):
        gap = _mod1_gap(period, level * (r + scale * c))
        assert gap <= 1e-12
        assert gap <= err + 1e-15


@settings(max_examples=40, deadline=None)
@given(
    r0=st.floats(0.1, 0.75),
    r1=st.floats(0.1, 0.75),
    c1=st.floats(-0.05, 0.05),
    c2=st.floats(-0.05, 0.05),
)
def test_deformed_periods_shift_by_the_class(r0, r1, c1, c2):
    assume(r0 + r1 <= 0.85)
    spec = DeformationSpec(c1, c2, f=_small_exact_part)
    got = deformed_fiber_periods(clifford_fiber((r0, r1)), spec)
    assert _mod1_gap(got.p1, r0 + c1) <= 1e-12
    assert _mod1_gap(got.p2, r1 + c2) <= 1e-12
