import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrtori.chekanov import ChekanovParams, conic_total_area, torus_periods_chekanov
from lagrtori.clifford import (
    D1,
    D2,
    D3,
    DeformationSpec,
    clifford_fiber,
    diagonal_period,
    enumerate_bs_fibers,
    fiber_periods,
    standard_disc,
)
from lagrtori.errors import NonConvergent, ZeroVector
from lagrtori.geometry import (
    LOOP_MAX_NODES,
    _unit_rows,
    doubled_trapezoid,
    hermdot,
    moment_map,
)
from oracle import (
    FS_SCALE,
    Surface,
    canonical_gauge,
    chordal_distance,
    conic_disc_surface,
    deformed_cycle,
    doubled_until_agreed,
    fs_pullback_raw,
    line_surface,
    loop_symplectic_area,
    phase_aligned_residual,
    random_unitary,
    sphere_section,
    spectral_loop_area,
    surface_form_grid,
    surface_symplectic_area,
    trapezoid_sums,
)


def test_hermdot_conjugate_linearity():
    rng = np.random.RandomState(0)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert hermdot(a, b) == pytest.approx(np.conj(hermdot(b, a)))
    assert hermdot(2j * a, b) == pytest.approx(2j * hermdot(a, b))
    assert hermdot(a, 2j * b) == pytest.approx(-2j * hermdot(a, b))


def test_normalize_point_gauges_and_zero():
    p = _unit_rows([3.0, 4.0j, 0.0])
    assert np.linalg.norm(p) == pytest.approx(1.0)
    # only a positive rescaling: the scaled triple has the same unit row
    q = _unit_rows([3.0e-4, 4.0e-4j, 0.0])
    np.testing.assert_allclose(p, q, atol=1e-15)
    with pytest.raises(ZeroVector):
        _unit_rows([0.0, 0.0, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_unit_rows_rejects_a_row_that_is_not_finite(bad):
    with pytest.raises(ZeroVector, match="no usable magnitude"):
        _unit_rows([bad, 1.0, 0.0])
    with pytest.raises(ZeroVector, match="no usable magnitude"):
        _unit_rows([[1.0, 0.0, 0.0], [bad, 1.0, 0.0]])


def test_projective_equality_ignores_phase():
    p = _unit_rows([1.0, 1.0j, 0.5])
    q = _unit_rows(np.exp(0.7j) * np.array([1.0, 1.0j, 0.5]))
    r = _unit_rows([1.0, -1.0j, 0.5])
    assert chordal_distance(p, q) <= 1e-7
    assert phase_aligned_residual(p, q) <= 1e-15
    assert chordal_distance(p, r) > 0.5
    assert phase_aligned_residual(p, r) > 0.5


def test_canonical_gauge_is_stable():
    rng = np.random.RandomState(3)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a = canonical_gauge(z)
    b = canonical_gauge(np.exp(1.9j) * z)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_form_value_antisymmetric_and_scaled():
    z = np.array([1.0, 0.0, 0.0], dtype=complex)
    u = np.array([0.0, 1.0, 0.0], dtype=complex)
    v = np.array([0.0, 1.0j, 0.0], dtype=complex)
    val = fs_pullback_raw(z, u, v)
    assert val == pytest.approx(-fs_pullback_raw(z, v, u))
    # on the unit pair (e1, i e1) the form evaluates to -FS_SCALE = 1/pi,
    # the positivity convention that gives lines area +1
    assert val == pytest.approx(-FS_SCALE)
    assert val > 0


def test_pullback_scale_invariance():
    rng = np.random.RandomState(1)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    lam = 2.3 - 1.1j
    a = fs_pullback_raw(z, u, v)
    b = fs_pullback_raw(lam * z, lam * u, lam * v)
    assert a == pytest.approx(b, rel=1e-12)


def test_moment_map_point_and_array():
    np.testing.assert_allclose(moment_map([1.0, 1.0, 0.0]), [0.5, 0.5], atol=1e-15)
    arr = moment_map(np.array([[2.0, 0.0, 0.0], [1.0, 1.0j, np.sqrt(2.0)]]))
    np.testing.assert_allclose(arr, [[1.0, 0.0], [0.25, 0.25]], atol=1e-14)


def test_line_area_is_one():
    est = surface_symplectic_area(line_surface())
    assert est.value == pytest.approx(1.0, abs=1e-9)
    assert est.error < 1e-6


def test_area_additivity_under_splitting():
    # the line split at s = 1/2 into two sub-surfaces
    line = line_surface()

    def sub(lo, hi):
        return Surface(lambda s, t: line.lift(lo + (hi - lo) * np.asarray(s), t),
                            periodic=(False, True))

    a = surface_symplectic_area(sub(0.0, 0.5)).value
    b = surface_symplectic_area(sub(0.5, 1.0)).value
    assert a + b == pytest.approx(1.0, abs=1e-8)


def test_nonconvergent_quadrature_raises():
    # at 4 vs 8 nodes the levels still disagree at the 1e-5 scale
    with pytest.raises(NonConvergent):
        surface_symplectic_area(line_surface(), n=4, tol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unitary_invariance_of_area(seed):
    rng = np.random.RandomState(seed)
    u = random_unitary(rng)
    line = line_surface()
    moved = line.moved(u)
    est = surface_symplectic_area(moved)
    assert est.value == pytest.approx(1.0, abs=1e-8)


def test_apply_unitary_moves_points():
    u = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                 dtype=complex)
    line = line_surface()
    moved = line.moved(u)
    assert moved.periodic == line.periodic
    g = np.linspace(0.0, 1.0, 5)
    ss, tt = np.meshgrid(g, g, indexing="ij")
    np.testing.assert_allclose(moved(ss, tt), line(ss, tt)[..., [1, 0, 2]],
                               atol=1e-15)


def test_chordal_distance_range_and_floor():
    a = np.array([1.0, 0.0, 0.0], dtype=complex)
    b = np.array([0.0, 1.0, 0.0], dtype=complex)
    assert chordal_distance(a, b) == pytest.approx(1.0)
    assert chordal_distance(a, np.exp(2.1j) * a) == pytest.approx(0.0, abs=1e-7)
    # the phase-aligned residual resolves what the chordal floor cannot
    c = a + np.array([0.0, 1e-12, 0.0])
    c = c / np.linalg.norm(c)
    assert phase_aligned_residual(a, c) == pytest.approx(1e-12, rel=1e-3)


def test_surface_form_grid_vanishes_on_lagrangian_plane():
    # the real locus {all coordinates real} is lagrangian
    def lift(s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        return np.stack([np.ones_like(s) + 0j, 0.2 + 0.6 * s + 0j, 0.1 + 0.7 * t + 0j],
                        axis=-1)

    surf = Surface(lift, periodic=(False, False))
    g = np.linspace(0.2, 0.8, 7)
    ss, tt = np.meshgrid(g, g, indexing="ij")
    assert np.max(np.abs(surface_form_grid(surf, ss, tt))) < 1e-10


def test_random_unitary_is_unitary():
    rng = np.random.RandomState(7)
    for _ in range(4):
        u = random_unitary(rng)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-12)


# ---------------------------------------------------------------------------
# the doubling driver and honest errors
# ---------------------------------------------------------------------------


def _rows_of(funcs, calls=None):
    """The integrand of doubled_trapezoid whose row i is funcs[i]."""
    def at_nodes(tau):
        def block(rows):
            if calls is not None:
                calls.append((len(rows), len(tau)))
            return np.array([funcs[i](tau) for i in rows])
        return block
    return at_nodes


def test_doubling_driver_adds_the_rounding_floor():
    [est] = doubled_trapezoid(_rows_of([lambda t: np.full_like(t, 0.75)]), [1.0], 16)
    assert est == (0.75, 32 * 2.0 ** -53 * 0.75, 32)


# rows that stop at different levels: band-limited, peaked, at the cap, past it
_ROWS = [
    lambda t: np.cos(2.0 * math.pi * t) ** 2,
    lambda t: 1.0 / (1.05 - np.cos(2.0 * math.pi * t)),
    lambda t: 1.0 / (1.0 + 1e-8 - np.cos(2.0 * math.pi * t)),
    lambda t: 1.0 / (1.0 + 1e-9 - np.cos(2.0 * math.pi * t)),
]


def test_batched_driver_equals_the_one_row_driver():
    weights = [1.0, 0.3, 1e-5, 1e-5]
    got = doubled_trapezoid(_rows_of(_ROWS), weights, 16)
    for f, w, est in zip(_ROWS, weights, got):
        levels = ((n, w * acc / n) for n, acc in trapezoid_sums(f, 16))
        try:
            want = doubled_until_agreed(levels)
        except NonConvergent as exc:
            assert isinstance(est, NonConvergent) and str(est) == str(exc)
        else:
            assert est == want  # bit for bit
    assert [getattr(e, "nodes", None) for e in got] == [32, 256, LOOP_MAX_NODES, None]


def test_no_reported_error_is_zero():
    errors = []
    for fiber in enumerate_bs_fibers(15).fibers:
        p = fiber_periods(fiber)
        errors += [p.p1_error, p.p2_error, diagonal_period(fiber)[1]]
    assert len(errors) == 3 * 91
    errors += [conic_total_area(eps)[1] for eps in (1.0, 0.3 + 0.4j, 5.0, 0.01j, 100.0)]
    for a in (0.3, 0.6, 0.9):
        for delta in (-0.4, 0.0, 0.4):
            p = torus_periods_chekanov(ChekanovParams(a, 1.0, delta))
            errors += [p.orbit_error, p.section_error]
    assert min(errors) > 0.0


def test_trapezoid_sums_evaluate_only_the_new_midpoints():
    # each level evaluates the n new midpoints of the rows still running
    calls = []
    got = doubled_trapezoid(_rows_of(_ROWS[:2], calls), [1.0, 1.0], 3)
    assert calls == [(2, 3), (2, 3), (1, 6), (1, 12), (1, 24), (1, 48), (1, 96)]
    assert (got[0].nodes, got[1].nodes) == (6, 192)
    assert got[0].value == pytest.approx(0.5, abs=1e-15)
    assert got[1].value == pytest.approx(1.0 / math.sqrt(1.05 ** 2 - 1.0), rel=1e-13)


# ---------------------------------------------------------------------------
# the action-angle mean against the spectral rule
# ---------------------------------------------------------------------------


@st.composite
def action_angle_loops(draw):
    """(loop, windings) from one of the four loop families the package
    integrates; only the deformed cycles have moduli that vary along the loop."""
    family = draw(st.sampled_from(["disc", "deformed", "conic", "sphere"]))
    if family in ("disc", "deformed"):
        r0 = draw(st.floats(0.1, 0.7))
        fiber = clifford_fiber((r0, draw(st.floats(0.1, 0.8 - r0))))
        if family == "disc":
            cls = draw(st.sampled_from([D1, D2, D3]))
            return standard_disc(fiber, cls).boundary_loop, (cls.p, cls.q, 0)
        # a band-limited exact part: |df| <= 3 amp keeps the actions inside
        j, k = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        amp, phase = draw(st.floats(0.0, 0.005)), draw(st.floats(0.0, 2.0 * math.pi))
        spec = DeformationSpec(draw(st.floats(-0.03, 0.03)), draw(st.floats(-0.03, 0.03)),
                               f=lambda a, b: amp * np.sin(j * a + k * b + phase))
        cls = draw(st.sampled_from([D1, D2]))
        return deformed_cycle(fiber, spec, cls), (cls.p, cls.q, 0)
    if family == "conic":
        eps = draw(st.floats(0.01, 10.0)) * np.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
        inverted = draw(st.booleans())
        disc = conic_disc_surface(eps, draw(st.floats(0.2, 5.0)), inverted)
        return (lambda t: disc(np.ones_like(t), t)), ((2, 0, 1) if inverted else (0, 2, 1))
    section = sphere_section(draw(st.floats(0.01, 0.99)))
    return (lambda t: section(np.ones_like(t), t)), (0, 1, 0)


@settings(max_examples=60, deadline=None)
@given(case=action_angle_loops())
def test_action_mean_matches_the_spectral_rule(case):
    loop, windings = case
    got, want = loop_symplectic_area(loop, windings), spectral_loop_area(loop)
    assert abs(got.value - want.value) <= got.error + want.error


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_area_rejects_a_moved_line(seed):
    # a unitary mixes the coordinates, so the line's windings no longer fit
    line = line_surface().moved(random_unitary(np.random.RandomState(seed)))
    with pytest.raises(ValueError, match="action-angle form"):
        loop_symplectic_area(lambda t: line(np.ones_like(t), t), (0, 1, 0))


def test_area_rejects_wrong_windings():
    fiber = clifford_fiber((0.2, 0.3))
    with pytest.raises(ValueError, match="action-angle form"):
        loop_symplectic_area(standard_disc(fiber, D1).boundary_loop, (0, 1, 0))
    with pytest.raises(ValueError, match="action-angle form"):
        loop_symplectic_area(standard_disc(fiber, D3).boundary_loop, (1, 0, 0))

    # a circle off center in the line {z2 = 0} fits no windings at all
    def off_center(t):
        return np.stack([np.ones_like(t) + 0j, 0.5 + np.exp(2j * math.pi * t),
                         np.zeros_like(t) + 0j], axis=-1)

    for m in (0, 1, -1):
        with pytest.raises(ValueError, match="action-angle form"):
            loop_symplectic_area(off_center, (0, m, 0))
