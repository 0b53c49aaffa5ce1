import math

import numpy as np
import pytest

from lagrtori.errors import NonConvergent, ZeroVector
from lagrtori.geometry import (
    FS_SCALE,
    _unit_rows,
    canonical_gauge,
    chordal_distance,
    hermdot,
    moment_map,
    phase_aligned_residual,
)
from oracle import (
    Surface,
    fs_pullback_raw,
    line_surface,
    random_unitary,
    surface_form_grid,
    surface_symplectic_area,
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
