import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrtori import maslov
from lagrtori.clifford import D1, D2, D3, clifford_fiber, standard_disc
from lagrtori.errors import (
    BoundaryMismatch,
    ChartEscape,
    DeterminantVanishes,
    NotCanonicalBS,
)
from lagrtori.maslov import (
    DiscWithBoundary,
    canonical_bs_defect,
    disc_difference_check,
    frame_determinant,
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
    disc = DiscWithBoundary(boundary_loop=d1.boundary_loop, frame=d1.frame, chart=0,
                            det_lipschitz=d1.det_lipschitz)
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


@st.composite
def interior_bases(draw):
    r0 = draw(st.floats(1e-3, 0.998))
    return r0, draw(st.floats(1e-3, 0.999 - r0))


def chart_determinant(z, e1, e2, c):
    """det of the frame's (1,0)-parts in chart c, by the quotient rule for
    the affine coordinates z_a / z_c: the reference for frame_determinant."""
    a, b = [i for i in range(3) if i != c]
    push = lambda v, k: (v[..., k] * z[..., c] - z[..., k] * v[..., c]) / z[..., c] ** 2
    return push(e1, a) * push(e2, b) - push(e1, b) * push(e2, a)


@given(interior_bases(), st.sampled_from([D1, D2, D3]), st.sampled_from([0, 1, 2]))
@settings(max_examples=150, deadline=None)
def test_standard_disc_bound_holds_and_certifies_in_one_pass(base, cls, chart):
    disc = dataclasses.replace(standard_disc(clifford_fiber(base), cls), chart=chart)
    bound = disc.det_lipschitz(chart)
    # central differences of the closed loop's determinant on 4096 points
    n = 4096
    t = np.arange(n) / n
    det = frame_determinant(disc, t)
    want = chart_determinant(disc.boundary_loop(t), *disc.frame(t), chart)
    assert np.allclose(det, want, rtol=1e-12, atol=0)
    slope = np.abs(np.roll(det, -1) - np.roll(det, 1)) * (n / 2)
    assert np.max(slope) <= bound * (1 + 1e-6)

    with mock.patch.object(maslov, "frame_determinant",
                           wraps=maslov.frame_determinant) as counted:
        res = maslov_index(disc)
    assert res.mu == cls.p + cls.q - 3 * (cls.p, cls.q, 0)[chart]
    assert counted.call_count == 1
    assert len(counted.call_args.args[1]) == 16 + 1


def test_covering_failure_names_samples_and_bound():
    d1 = standard_disc(clifford_fiber((0.2, 0.3)), D1)
    # |det| = sqrt(r0 r1) / r2 = 0.4899 in chart 2, below 1e6 / 4096
    rough = dataclasses.replace(d1, det_lipschitz=lambda chart: 1e6)
    with pytest.raises(DeterminantVanishes,
                       match=r"n = 4096 .*min \|det\| = 4\.899e-01, L = 1\.000e\+06"):
        maslov_index(rough)


def winding_disc(lip):
    """A chart-2 disc whose frame determinant is exp(40 pi i t): winding 20,
    |d det/dt| = 40 pi, claimed bound ``lip``."""

    def loop(t):
        one = np.ones_like(t, dtype=complex)
        return np.stack([0.5 * one, 0.5 * one, one], axis=-1)

    def frame(t):
        zero, one = np.zeros_like(t, dtype=complex), np.ones_like(t, dtype=complex)
        return (np.stack([np.exp(40j * math.pi * t), zero, zero], axis=-1),
                np.stack([zero, one, zero], axis=-1))

    return DiscWithBoundary(loop, frame, chart=2, det_lipschitz=lambda chart: lip)


def test_index_certifies_a_twenty_fold_winding():
    assert maslov_index(winding_disc(40 * math.pi)).mu == 20


@pytest.mark.parametrize("lip", [-1.0, math.nan, math.inf])
def test_index_rejects_a_bound_that_is_not_finite_and_nonnegative(lip):
    # L = -1 would pass the covering test at 16 samples and alias the
    # winding to 4; NaN would fail it at every sample count
    with pytest.raises(ValueError, match=rf"det_lipschitz\(2\) = {lip!r}"):
        maslov_index(winding_disc(lip))


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


# ---------------------------------------------------------------------------
# integrality and monotonicity predicates
# ---------------------------------------------------------------------------


def test_canonical_bs_defect_values():
    assert canonical_bs_defect((1 / 3, 1 / 3)) == pytest.approx(0.0, abs=1e-12)
    assert canonical_bs_defect((0.2, 0.3)) == pytest.approx(0.4, abs=1e-12)


def test_universal_class_at_the_symmetric_fiber():
    cls = universal_maslov_class((1 / 3, 1 / 3, 2 / 3), (1, 1, 2))
    assert cls == (0, 0, 0)


@pytest.mark.parametrize("mus", [(1.9, 1, 2), ("1", 1, 2), (1, 1, 2.0)])
def test_universal_class_rejects_indices_that_are_not_integers(mus):
    # int() would truncate 1.9 to 1 and call the fiber monotone
    with pytest.raises(TypeError):
        universal_maslov_class((1 / 3, 1 / 3, 2 / 3), mus)
    with pytest.raises(TypeError):
        is_monotone((1 / 3, 1 / 3, 2 / 3), mus)


def test_universal_class_takes_numpy_and_maslov_result_indices():
    mus = (np.int64(1), maslov.MaslovResult(1, 1.0, 0.0), np.uint8(2))
    assert universal_maslov_class((1 / 3, 1 / 3, 2 / 3), mus) == (0, 0, 0)


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


@pytest.mark.parametrize("periods, mus", [
    ((1 / 3, 1 / 3, 2 / 3), (1, 1)),
    ((1 / 3, 1 / 3), (1, 1, 2)),
], ids=["more-periods", "more-indices"])
def test_monotonicity_rejects_a_length_mismatch(periods, mus):
    # the unpaired cycle would go uncompared
    with pytest.raises(ValueError):
        universal_maslov_class(periods, mus)
    with pytest.raises(ValueError):
        is_monotone(periods, mus)
