import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrtori.clifford import ActionCoords, CliffordFiber, HomologyClass
from lagrtori.displacement import (
    _ROTATION,
    HermitianSymbol,
    build_diagonal_rotation,
    swap_symbol,
)
from lagrtori.chekanov import ChekanovParams, chekanov_torus, pencil_separation
from lagrtori.errors import (
    DegenerateFamily,
    LagrtoriError,
    NotChekanovType,
    NotHermitian,
)
from lagrtori.geometry import _unit_rows, moment_map
from lagrtori.lattice import MonotoneWitness, SwapImage, dichotomy, swap_image
from lagrtori.serialize import stable_dumps
from oracle import (
    gradient_residual,
    min_pairwise_chordal,
    phase_aligned_residual,
    rotation_check_points,
    standard_disc_surface,
    surface_symplectic_area,
    symbol_flow,
    symbol_value,
)


# ---------------------------------------------------------------------------
# hermitian symbols and their flows
# ---------------------------------------------------------------------------


def test_symbol_requires_hermitian_matrix():
    with pytest.raises(NotHermitian):
        HermitianSymbol(((0, 1, 0), (0, 0, 0), (0, 0, 0)))


def _with_entry(value):
    rows = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    rows[0][0] = value
    return rows


@pytest.mark.parametrize("matrix", [
    np.full((3, 3), np.nan),
    _with_entry(math.nan),
    [[0, math.inf, 0], [math.inf, 0, 0], [0, 0, 0]],
    _with_entry(0.5),
    _with_entry(1.0),
    _with_entry(1j),
    _with_entry(True),
    np.eye(3, dtype=int),
    [[0, 1, 0], [1, 0, 0]],
    [[0, 1], [1, 0], [0, 0]],
    [[0, 2, 0], [1, 0, 0], [0, 0, 0]],
    [[0, 1, 0], [1, 0, 0], [0, 0]],
    5,
], ids=["nan-array", "nan", "inf-pair", "half", "float-one", "complex", "bool",
        "numpy-int", "2x3", "3x2", "asymmetric", "ragged", "scalar"])
def test_symbol_rejects_all_but_a_symmetric_integer_matrix(matrix):
    with pytest.raises(NotHermitian):
        HermitianSymbol(matrix)


@pytest.mark.parametrize("value", [7j, 7.0], ids=["complex", "float"])
def test_symbol_keeps_a_private_read_only_matrix(value):
    src = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    sym = HermitianSymbol(src)
    with pytest.raises(TypeError):
        sym.matrix[0][0] = value
    src[0][1] = value  # a non-integer, asymmetric entry the symbol would reject
    assert sym.matrix == ((0, 1, 0), (1, 0, 0), (0, 0, 0))
    assert all(type(entry) is int for row in sym.matrix for entry in row)


def test_certificate_swap_symbols_are_read_only():
    # the swap of the dichotomy names the Hamiltonian swap_symbol(j, k)
    symbol = swap_symbol(*dichotomy(ActionCoords(Fraction(1, 5), Fraction(1, 2))).swap)
    with pytest.raises(TypeError):
        symbol.matrix[2][2] = 1
    assert symbol.matrix == ((0, 1, 0), (1, 0, 0), (0, 0, 0))


def test_symbols_hash_and_certificates_compare_by_value():
    assert hash(swap_symbol(0, 1)) == hash(swap_symbol(0, 1))
    assert swap_symbol(0, 1) == HermitianSymbol([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert len({swap_symbol(0, 1), swap_symbol(0, 1), swap_symbol(1, 2)}) == 2
    params = ChekanovParams(0.5, 1.0 + 0.5j, 0.3)
    assert pencil_separation(params) == pencil_separation(params)
    assert pencil_separation(params) != pencil_separation(ChekanovParams(0.4, 1.0, 0.3))
    base = ActionCoords(Fraction(1, 5), Fraction(1, 2))
    assert dichotomy(base) == dichotomy(ActionCoords(Fraction(2, 10), Fraction(5, 10)))


def test_symbol_value_is_rayleigh_quotient():
    m = np.diag([2.0, -1.0, 0.5])
    e0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    assert symbol_value(m, e0) == pytest.approx(2.0, abs=1e-14)
    # scale invariance of the quotient
    z = np.array([1.0 + 2.0j, -0.5j, 0.25], dtype=complex)
    assert symbol_value(m, 3.7 * z) == pytest.approx(float(symbol_value(m, z)), abs=1e-13)


def test_symbol_gradient_residual_vanishes_at_eigenvectors():
    sym = swap_symbol(0, 1)
    plus = np.array([1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    assert float(gradient_residual(sym.matrix, plus)) < 1e-14
    off = np.array([1.0, 0.3, 0.0], dtype=complex)
    assert float(gradient_residual(sym.matrix, off)) > 1e-3


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flow_is_unitary_and_obeys_group_law(seed):
    rng = np.random.RandomState(seed)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    herm = m + np.conj(m.T)
    u1 = symbol_flow(herm, 0.7)
    u2 = symbol_flow(herm, 1.1)
    u12 = symbol_flow(herm, 1.8)
    assert np.allclose(np.conj(u1.T) @ u1, np.eye(3), atol=1e-12)
    assert np.allclose(u1 @ u2, u12, atol=1e-12)


def test_swap_flow_exchanges_coordinates_projectively():
    u = symbol_flow(swap_symbol(0, 1).matrix, math.pi / 2.0)
    e0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    img = u @ e0
    # image is e1 up to a unit phase
    assert abs(abs(img[1]) - 1.0) < 1e-12
    assert np.all(np.abs(img[[0, 2]]) < 1e-12)


def test_flow_preserves_disc_areas():
    fiber = CliffordFiber(ActionCoords(0.2, 0.3))
    d = standard_disc_surface(fiber, HomologyClass(1, 0))
    before = surface_symplectic_area(d).value
    moved = d.moved(symbol_flow(swap_symbol(0, 2).matrix, 0.7))
    after = surface_symplectic_area(moved).value
    assert abs(before - after) < 1e-8


def _exact_swap_flow(j, k):
    """exp(i (pi/2) S_jk) by its proof: i on the swapped entries, 1 on the third."""
    u = np.zeros((3, 3), dtype=complex)
    u[j, k] = u[k, j] = 1j
    third = 3 - j - k
    u[third, third] = 1.0
    return u


# the z2-phase symbol behind pencil_separation
_Z2_PHASE = HermitianSymbol(((0, 0, 0), (0, 0, 0), (0, 0, 1)))

# the flows of the symbols the package uses: (symbol, time, the exact matrix of its proof)
_EXACT_FLOWS = {
    **{f"swap{j}{k}": (swap_symbol(j, k), math.pi / 2.0, _exact_swap_flow(j, k))
       for j, k in ((0, 1), (0, 2), (1, 2))},
    "z2-phase": (_Z2_PHASE, math.pi / 2.0, np.diag([1.0, 1.0, 1j])),
    "rotation": (_ROTATION, 2.0 * math.pi, np.eye(3, dtype=complex)),
}


@pytest.mark.parametrize("name", sorted(_EXACT_FLOWS))
def test_diagonalized_flow_is_the_exact_monomial_matrix(name):
    symbol, t, exact = _EXACT_FLOWS[name]
    assert np.max(np.abs(symbol_flow(symbol.matrix, t) - exact)) <= 1e-15


@pytest.mark.parametrize("jk", [(0, 1), (0, 2), (1, 2)], ids=["01", "02", "12"])
def test_exact_swap_flow_exchanges_the_squared_moduli_bit_for_bit(jk):
    zs, _ = rotation_check_points()
    rng = np.random.RandomState(7)
    zs = np.concatenate([zs, rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))])
    perm = list(range(3))
    perm[jk[0]], perm[jk[1]] = jk[1], jk[0]
    image = zs @ _exact_swap_flow(*jk).T
    assert np.array_equal(np.abs(image) ** 2, np.abs(zs[:, perm]) ** 2)


def test_rotation_deviations_on_the_former_check_points():
    # the sampled check the report replaced by proof, with the diagonalized flows
    zs, swapped = rotation_check_points()
    assert zs.shape == (640, 3)
    swap_u = symbol_flow(swap_symbol(0, 1).matrix, math.pi / 2.0)
    assert np.max(np.abs(moment_map(zs @ swap_u.T) - swapped)) <= 1e-15
    full_turn = symbol_flow(_ROTATION.matrix, 2.0 * math.pi)
    assert np.max(phase_aligned_residual(zs, zs @ full_turn.T)) <= 1e-15


# ---------------------------------------------------------------------------
# toric fibers under the swap flows
# ---------------------------------------------------------------------------


def test_displace_fiber_with_distinct_actions():
    move = swap_image(ActionCoords(Fraction(1, 5), Fraction(1, 2)))
    assert move.swap == (0, 1)
    assert move.image == (Fraction(1, 2), Fraction(1, 5))
    assert move.separation == pytest.approx(0.3 * math.sqrt(2.0), abs=1e-14)


def test_displace_fiber_on_the_symmetric_diagonal():
    move = swap_image(ActionCoords(Fraction(2, 5), Fraction(2, 5)))
    assert move.swap == (1, 2)
    assert move.image == (Fraction(2, 5), Fraction(1, 5))


def test_fixed_point_of_all_swaps():
    assert swap_image(ActionCoords(Fraction(1, 3), Fraction(1, 3))) is None


def test_displace_float_fiber():
    move = swap_image(ActionCoords(0.21, 0.37))
    assert move.image == (0.37, 0.21)
    assert all(type(v) is float for v in move.image)


def test_displace_rejects_boundary_fiber():
    with pytest.raises(ValueError):
        dichotomy(ActionCoords(0.0, 0.5))


# ---------------------------------------------------------------------------
# the pencil-negation flow on Chekanov-type tori
# ---------------------------------------------------------------------------


def test_displace_chekanov_certificate():
    params = ChekanovParams(0.5, 1.0 + 0.5j, 0.3)
    assert pencil_separation(params) == 2 * (abs(params.mu) - params.a)
    # the separation does not depend on delta
    assert pencil_separation(ChekanovParams(0.5, 1.0 + 0.5j, -0.7)) == pencil_separation(params)


def test_displace_chekanov_narrow_margin():
    assert 1e-3 < pencil_separation(ChekanovParams(0.9, 1.0, 0.3)) < 0.25


def _sampled_torus(params, samples):
    """The torus sampled on a grid, axis 0 pencil angle, axis 1 orbit angle,
    and its image under the z2-phase flow as rows."""
    g = (np.arange(samples) + 0.5) / samples
    uu, vv = np.meshgrid(g, g, indexing="ij")
    cloud = _unit_rows(chekanov_torus(params)(uu, vv))
    img = cloud.reshape(-1, 3) @ symbol_flow(_Z2_PHASE.matrix, math.pi / 2.0).T
    return cloud, img


def _pencil(z):
    return z[..., 0] * z[..., 1] / z[..., 2] ** 2


@settings(max_examples=40, deadline=None)
@given(
    ratio=st.floats(1e-3, 1.0 - 1e-6),
    arg=st.floats(-math.pi, math.pi),
    delta=st.floats(-0.9, 0.9),
)
def test_pencil_map_is_eps_on_the_torus_and_minus_eps_on_its_image(ratio, arg, delta):
    samples = 16
    params = ChekanovParams(ratio, cmath.rect(1.0, arg), delta)
    cloud, img = _sampled_torus(params, samples)
    cloud = cloud.reshape(-1, 3)
    eps = np.repeat(params.eps_of((np.arange(samples) + 0.5) / samples), samples)
    assert np.min(np.abs(cloud[:, 2])) > 0 and np.min(np.abs(img[:, 2])) > 0
    assert np.max(np.abs(_pencil(cloud) - eps) / np.abs(eps)) <= 1e-13
    assert np.max(np.abs(_pencil(img) + eps) / np.abs(eps)) <= 1e-13


@pytest.mark.parametrize("samples", [8, 24, 48])
@pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
def test_reduced_certificate_search_equals_brute_force(samples, a):
    """The pencil-image reduction agrees with the brute-force search: a
    certified torus misses its sampled image."""
    params = ChekanovParams(a, 1.0, 0.3)
    cloud, img = _sampled_torus(params, samples)
    assert pencil_separation(params) == 2 * (abs(params.mu) - a)
    assert min_pairwise_chordal(cloud.reshape(-1, 3), img) > 0


def test_overflowed_lift_raises_naming_the_torus():
    with pytest.raises(LagrtoriError, match=r"a=1e\+160, mu=2e\+160, delta=0\.3"):
        pencil_separation(ChekanovParams(1e160, 2e160, 0.3))


def test_displace_chekanov_rejects_wide_circles():
    for a in (1.5, 1.0 + 1e-6):
        with pytest.raises(NotChekanovType):
            pencil_separation(ChekanovParams(a, 1.0, 0.0))


def test_displace_chekanov_at_the_wall_is_degenerate():
    for a in (1.0, 0.9999999999):
        with pytest.raises(DegenerateFamily, match=f"a={a!r}"):
            pencil_separation(ChekanovParams(a, 1.0, 0.0))


# ---------------------------------------------------------------------------
# the rotation construction on diagonal level sets
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def rotation_report():
    return build_diagonal_rotation([0.25, 0.5, 0.75])


def test_rotation_reduced_areas(rotation_report):
    for rep in rotation_report.alphas:
        assert rep.reduced_area == rep.alpha
        assert rep.normalization == rep.alpha * rep.alpha
        assert rep.reduced_area_error > 0.0 and rep.normalization_error > 0.0


def test_rotation_marked_circle_carries_extremes(rotation_report):
    for rep in rotation_report.alphas:
        assert rep.marked_moment == (rep.alpha / 2.0, rep.alpha / 2.0)
        assert rep.extreme_values == (3.0 * rep.alpha, -rep.alpha)
        assert rep.extreme_location_gap == 0.0


def test_rotation_critical_points(rotation_report):
    assert len(rotation_report.critical_points) == 3
    assert list(rotation_report.critical_values) == [-1.0, 0.0, 3.0]
    matrix = rotation_report.symbol.matrix
    for point in rotation_report.critical_points:
        assert float(gradient_residual(matrix, point)) < 1e-15


def test_rotation_swap_and_periodicity(rotation_report):
    # 0.0 by proof; test_rotation_deviations_on_the_former_check_points
    # samples the diagonalized flows
    assert rotation_report.swap_moment_deviation == 0.0
    assert rotation_report.periodicity_deviation == 0.0


def test_rotation_report_serializes(rotation_report):
    text = stable_dumps(rotation_report.to_json())
    assert '"critical_values"' in text


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, math.nan, math.inf])
def test_rotation_rejects_alpha_outside_the_open_interval(alpha):
    with pytest.raises(ValueError, match="strictly inside"):
        build_diagonal_rotation([0.5, alpha])


def test_rotation_validates_inputs():
    with pytest.raises(ValueError):
        build_diagonal_rotation([1.0])


# ---------------------------------------------------------------------------
# the combined verdict
# ---------------------------------------------------------------------------


def test_verdict_monotone_only_at_the_center():
    v = dichotomy(ActionCoords(Fraction(1, 3), Fraction(1, 3)))
    assert isinstance(v, MonotoneWitness)
    assert v.monotone and v.canonical_bs
    assert v.bs_defect == 0.0
    assert v.universal_class == (0, 0, 0)


def test_verdict_displaceable_fiber():
    v = dichotomy(ActionCoords(Fraction(1, 5), Fraction(1, 2)))
    assert isinstance(v, SwapImage)
    assert v.swap == (0, 1)


def test_verdict_rejects_boundary():
    with pytest.raises(ValueError):
        dichotomy(ActionCoords(Fraction(0, 1), Fraction(1, 2)))


def test_verdict_dichotomy_on_a_small_grid():
    from lagrtori.clifford import interior_rational_grid

    grid = interior_rational_grid(7)
    assert len(grid) == 28
    verdicts = {b: dichotomy(ActionCoords(*b)) for b in grid}
    monotone = [b for b, v in verdicts.items() if isinstance(v, MonotoneWitness)]
    assert monotone == [(Fraction(1, 3), Fraction(1, 3))]
    assert sum(isinstance(v, SwapImage) for v in verdicts.values()) == 27
