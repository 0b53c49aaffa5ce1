"""The exact layer: the triangle test of ActionCoords and the dichotomy."""

import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagrtori import cli
from lagrtori.lattice import (
    ActionCoords,
    MonotoneWitness,
    SwapImage,
    dichotomy,
    interior_rational_grid,
    lattice_indices,
    lattice_values,
    swap_image,
    verdict_class,
)
from oracle import reference_dichotomy, reference_is_interior, reference_swap_image


def _comparison_check(r0, r1):
    """The triangle test as plain comparisons: exact first, then within 1e-12.
    Returns the ValueError text, or None when the point is accepted."""
    if r0 >= 0 and r1 >= 0 and r0 + r1 <= 1:
        return None
    eps = 1e-12
    if r0 < -eps or r1 < -eps or r0 + r1 > 1 + eps:
        return f"({r0}, {r1}) is outside the moment triangle"
    return None


_TINY = [Fraction(s, 10 ** k) for s in (-1, 1) for k in (11, 12, 13, 14)]
_EDGES = [Fraction(0), Fraction(1), 0, 1, -1, 2, 0.0, -0.0, 1.0, -1e-13, -1e-11,
          1 + 1e-13, 1 + 1e-11, True, False] + _TINY

coordinate = st.one_of(
    st.fractions(min_value=-2, max_value=2, max_denominator=10 ** 15),
    st.integers(-3, 3),
    st.floats(-2.0, 2.0),
    st.sampled_from(_EDGES),
)


@st.composite
def near_hypotenuse(draw):
    """Points whose coordinate sum is 1 plus a tiny exact or float offset."""
    r0 = draw(st.one_of(st.fractions(0, 1, max_denominator=10 ** 6), st.floats(0.0, 1.0)))
    offset = draw(st.one_of(st.sampled_from(_TINY + [0, Fraction(0)]),
                            st.floats(-1e-11, 1e-11)))
    r1 = 1 - r0 + offset
    return (r1, r0) if draw(st.booleans()) else (r0, r1)


@given(st.one_of(st.tuples(coordinate, coordinate), near_hypotenuse()))
@example((Fraction(-1, 10 ** 13), Fraction(1, 2)))  # accepted within 1e-12
@example((Fraction(-1, 10 ** 11), Fraction(1, 2)))  # rejected
@example((Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10 ** 13)))
@example((Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10 ** 11)))
@example((1, 0))
@example((1, 1))
@example((Fraction(2, 3), 0.5))
@settings(max_examples=600, deadline=None)
def test_triangle_test_matches_comparisons(pair):
    want = _comparison_check(*pair)
    if want is None:
        assert ActionCoords(*pair).r0 is pair[0]
    else:
        with pytest.raises(ValueError) as exc:
            ActionCoords(*pair)
        assert str(exc.value) == want


def test_dichotomy_is_the_verdict_behind_enc_verdict():
    # enc-report decides with dichotomy: the swap choice off the center
    for r0, r1 in interior_rational_grid(25):
        base = ActionCoords(r0, r1)
        outcome = dichotomy(base)
        if isinstance(outcome, MonotoneWitness):
            assert swap_image(base) is None
            assert (r0, r1) == (Fraction(1, 3), Fraction(1, 3))
        else:
            assert outcome == swap_image(base)


@st.composite
def fraction_bases(draw):
    """Points of the closed triangle with Fraction coordinates, built from
    numerator/denominator pairs scaled by a common factor (so not reduced),
    on the diagonal r0 = r1 one time in three."""
    d0 = draw(st.integers(1, 10 ** 12))
    n0 = draw(st.integers(0, d0))
    if draw(st.integers(0, 2)) == 0:
        n0 = min(n0, d0 // 2)
        n1, d1 = n0, d0
    else:
        d1 = draw(st.integers(1, 10 ** 12))
        n1 = draw(st.integers(0, d1 * (d0 - n0) // d0))
    k = draw(st.integers(1, 10 ** 6))
    return Fraction(n0 * k, d0 * k), Fraction(n1 * k, d1 * k)


@given(fraction_bases())
@example((Fraction(1, 3), Fraction(1, 3)))  # the centroid: no swap moves it
@example((Fraction(2, 6), Fraction(5, 15)))  # the centroid from non-reduced pairs
@example((Fraction(1, 4), Fraction(1, 4)))  # diagonal: the (1, 2) swap
@example((Fraction(2, 5), Fraction(2, 5)))  # diagonal, r2 < r0
@example((Fraction(1, 2), Fraction(1, 4)))
@example((Fraction(0), Fraction(1, 2)))  # boundary
@example((Fraction(1, 2), Fraction(1, 2)))  # hypotenuse
@example((Fraction(1, 10 ** 12), Fraction(1, 10 ** 12 - 1)))
# r1 - r0 as one int division differs from float(numerator) / denominator
@example((Fraction(37640125381, 723347347957), Fraction(9360003227, 140586856553)))
@settings(max_examples=500, deadline=None)
def test_integer_decisions_match_fraction_operators(pair):
    base = ActionCoords(*pair)
    assert base.is_interior() == reference_is_interior(base)
    got, want = swap_image(base), reference_swap_image(base)
    assert got == want
    if want is not None:
        assert got.separation.hex() == want.separation.hex()
    if not reference_is_interior(base):
        with pytest.raises(ValueError):
            dichotomy(base)
        return
    got, want = dichotomy(base), reference_dichotomy(base)
    assert type(got) is type(want) and got == want


@given(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
@example(0.06718212205620061)  # fl(1 - 2x) is one ulp above the rounded exact 1 - 2x
@settings(max_examples=400, deadline=None)
def test_diagonal_image_is_the_rounded_exact_r2(x):
    move = swap_image(ActionCoords(x, x))
    assert move.swap == (1, 2)
    assert move.image[1] == float(1 - 2 * Fraction(x))
    exact = swap_image(ActionCoords(Fraction(x), Fraction(x)))
    assert exact.image == (Fraction(x), 1 - 2 * Fraction(x))
    assert all(type(v) is Fraction for v in exact.image)


@pytest.mark.parametrize("pair", [(math.nan, 0.5), (0.2, math.nan), (math.inf, 0.1),
                                  (0.1, -math.inf)])
def test_nan_and_infinite_coordinates_are_outside_the_triangle(pair):
    with pytest.raises(ValueError, match="outside the moment triangle"):
        ActionCoords(*pair)


def test_numpy_scalars_are_their_exact_values():
    assert ActionCoords(np.float64(0.25), np.float32(0.5)).exact == (1, 4, 1, 2)
    assert ActionCoords(np.int64(0), 0.5).exact == (0, 1, 1, 2)


def test_float_third_is_displaced_by_its_rounding_gap():
    # fl(1/3) < 1/3, so r2 = 1 - 2 fl(1/3) exceeds r1 by 1 - 3 fl(1/3) = 2^-54
    base = ActionCoords(1 / 3, 1 / 3)
    move = dichotomy(base)
    assert move.swap == (1, 2)
    assert move.separation == 1 - 3 * Fraction(1 / 3) == 2.0 ** -54
    assert f"{move.separation:.3g}" == "5.55e-17"
    assert move == swap_image(base)


def test_float_point_with_float_sum_one_is_interior():
    # 0.7 + 0.3 rounds to 1.0, but the stored binary values sum to 1 - 2^-54
    assert 0.7 + 0.3 == 1.0 and 1 - Fraction(0.7) - Fraction(0.3) == 2.0 ** -54
    base = ActionCoords(0.7, 0.3)
    assert base.is_interior()
    assert dichotomy(base).swap == (0, 1)


@st.composite
def float_bases(draw):
    """Float points of the closed triangle, up to the rounding of 1 - x:
    anywhere, on the diagonal, or on the hypotenuse."""
    x = draw(st.floats(0.0, 1.0))
    kind = draw(st.sampled_from(["any", "diagonal", "hypotenuse"]))
    if kind == "diagonal":
        pair = (x / 2, x / 2)
    else:
        pair = (x, 1.0 - x if kind == "hypotenuse" else draw(st.floats(0.0, 1.0 - x)))
    return pair[::-1] if draw(st.booleans()) else pair


@given(float_bases())
@example((1 / 3, 1 / 3))
@example((0.7, 0.3))
@example((0.3, 0.3))
@example((0.5, 0.25))
@example((math.nextafter(1 / 3, 1), math.nextafter(1 / 3, 1)))
@example((5e-324, 5e-324))
@settings(max_examples=400, deadline=None)
def test_a_float_point_is_decided_as_its_binary_rational(pair):
    x, y = pair
    exact = ActionCoords(Fraction(x), Fraction(y))
    if not reference_is_interior(exact):
        with pytest.raises(ValueError):
            dichotomy(ActionCoords(x, y))
        return
    base = ActionCoords(x, y)
    got, want = dichotomy(base), reference_dichotomy(exact)
    assert type(got) is type(want) is SwapImage
    assert got.swap == want.swap
    assert got.separation.hex() == want.separation.hex()
    assert got == swap_image(base)


def _outcome_fields(outcome):
    """What a report prints of a dichotomy outcome, floats as their bits."""
    if isinstance(outcome, MonotoneWitness):
        return outcome
    return type(outcome), outcome.swap, outcome.separation.hex()


@pytest.mark.parametrize("level", [*range(3, 61), 162])
def test_points_of_a_verdict_class_share_the_outcome(level):
    vals = lattice_values(level)
    first = {}
    for i, j in lattice_indices(level):
        got = _outcome_fields(dichotomy(ActionCoords(vals[i], vals[j])))
        assert first.setdefault(verdict_class(level, i, j), got) == got, (i, j)
    # one class per distance off the diagonal, one per diagonal point
    assert len(first) == (level - 3) + (level - 1) // 2


def test_enc_report_decides_each_class_once(monkeypatch):
    calls = []

    def counted(base):
        calls.append(base)
        return dichotomy(base)

    monkeypatch.setattr(cli, "dichotomy", counted)
    assert cli.main(["enc-report", "--grid", "160"], out=io.StringIO()) == cli.EXIT_OK
    n = 162
    assert len(calls) == (n - 3) + (n - 1) // 2 == 239
