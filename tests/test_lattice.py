"""The exact layer: the triangle test of ActionCoords and the dichotomy."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagrtori.displacement import Monotone, displace_clifford, enc_verdict
from lagrtori.lattice import (
    ActionCoords,
    MonotoneWitness,
    dichotomy,
    interior_rational_grid,
    swap_image,
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
    for r0, r1 in interior_rational_grid(25):
        base = ActionCoords(r0, r1)
        outcome = dichotomy(base)
        verdict = enc_verdict(base)
        if isinstance(outcome, MonotoneWitness):
            assert isinstance(verdict, Monotone) and verdict.witness == outcome
            assert (r0, r1) == (Fraction(1, 3), Fraction(1, 3))
        else:
            cert = verdict.certificate
            assert outcome == swap_image(base)
            assert cert.detail["swap"] == list(outcome.swap)
            assert cert.separation == outcome.separation
            assert displace_clifford(base) == cert


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
