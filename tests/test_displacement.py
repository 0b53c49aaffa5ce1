import math
from fractions import Fraction

import numpy as np
import pytest

from lagrtori.clifford import ActionCoords, CliffordFiber, HomologyClass
from lagrtori.displacement import (
    CertificateMethod,
    Displaceable,
    DisplacementCertificate,
    Inconclusive,
    Monotone,
    NotDisplacedByTheseFlows,
    RotationReport,
    build_diagonal_rotation,
    diagonal_symbol,
    displace_chekanov,
    displace_clifford,
    enc_verdict,
    swap_symbol,
    symbol_flow,
    HermitianSymbol,
)
from lagrtori.chekanov import ChekanovParams, chekanov_torus
from lagrtori.errors import (
    InternalContradiction,
    NormalizationFailure,
    NotChekanovType,
    NotHermitian,
)
from lagrtori.displacement import _min_pairwise_chordal
from lagrtori.geometry import _unit_rows
from lagrtori.serialize import stable_dumps
from oracle import standard_disc_surface, surface_symplectic_area


# ---------------------------------------------------------------------------
# hermitian symbols and their flows
# ---------------------------------------------------------------------------


def test_symbol_requires_hermitian_matrix():
    with pytest.raises(NotHermitian):
        HermitianSymbol(np.array([[0.0, 1.0, 0.0],
                                  [0.0, 0.0, 0.0],
                                  [0.0, 0.0, 0.0]], dtype=complex))


@pytest.mark.parametrize("dtype", [complex, float])
def test_symbol_keeps_a_private_read_only_matrix(dtype):
    src = np.zeros((3, 3), dtype=dtype)
    src[0, 1] = src[1, 0] = 1.0
    sym = HermitianSymbol(src)
    with pytest.raises(ValueError):
        sym.matrix[0, 0] = 5.0
    src[0, 1] = 7.0  # would make the validated symbol non-Hermitian if shared
    assert sym.matrix[0, 1] == 1.0
    assert np.array_equal(sym.matrix, sym.matrix.conj().T)


def test_certificate_swap_symbols_are_read_only():
    cert = enc_verdict(ActionCoords(Fraction(1, 5), Fraction(1, 2))).certificate
    with pytest.raises(ValueError):
        cert.symbol.matrix[2, 2] = 1.0
    assert np.array_equal(cert.symbol.matrix, swap_symbol(0, 1).matrix)


def test_symbol_value_is_rayleigh_quotient():
    sym = diagonal_symbol(2.0, -1.0, 0.5)
    e0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    assert sym.value(e0) == pytest.approx(2.0, abs=1e-14)
    # scale invariance of the quotient
    z = np.array([1.0 + 2.0j, -0.5j, 0.25], dtype=complex)
    assert sym.value(3.7 * z) == pytest.approx(float(sym.value(z)), abs=1e-13)


def test_symbol_gradient_residual_vanishes_at_eigenvectors():
    sym = swap_symbol(0, 1)
    plus = np.array([1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    assert float(sym.gradient_residual(plus)) < 1e-14
    off = np.array([1.0, 0.3, 0.0], dtype=complex)
    assert float(sym.gradient_residual(off)) > 1e-3


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flow_is_unitary_and_obeys_group_law(seed):
    rng = np.random.RandomState(seed)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    sym = HermitianSymbol(m + np.conj(m.T))
    u1 = symbol_flow(sym, 0.7)
    u2 = symbol_flow(sym, 1.1)
    u12 = symbol_flow(sym, 1.8)
    assert np.allclose(np.conj(u1.T) @ u1, np.eye(3), atol=1e-12)
    assert np.allclose(u1 @ u2, u12, atol=1e-12)


def test_swap_flow_exchanges_coordinates_projectively():
    u = symbol_flow(swap_symbol(0, 1), math.pi / 2.0)
    e0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    img = u @ e0
    # image is e1 up to a unit phase
    assert abs(abs(img[1]) - 1.0) < 1e-12
    assert np.all(np.abs(img[[0, 2]]) < 1e-12)


def test_flow_preserves_disc_areas():
    fiber = CliffordFiber(ActionCoords(0.2, 0.3))
    d = standard_disc_surface(fiber, HomologyClass(1, 0))
    before = surface_symplectic_area(d).value
    moved = d.moved(symbol_flow(swap_symbol(0, 2), 0.7))
    after = surface_symplectic_area(moved).value
    assert abs(before - after) < 1e-8


# ---------------------------------------------------------------------------
# toric fibers under the swap flows
# ---------------------------------------------------------------------------


def test_displace_fiber_with_distinct_actions():
    cert = displace_clifford(ActionCoords(Fraction(1, 5), Fraction(1, 2)))
    assert isinstance(cert, DisplacementCertificate)
    assert cert.method is CertificateMethod.MOMENT_IMAGE_DISJOINT
    assert cert.detail["swap"] == [0, 1]
    assert cert.detail["image_moment"] == [[1, 2], [1, 5]]
    assert cert.time == pytest.approx(math.pi / 2.0)
    assert cert.separation == pytest.approx(0.3 * math.sqrt(2.0), abs=1e-14)


def test_displace_fiber_on_the_symmetric_diagonal():
    cert = displace_clifford(ActionCoords(Fraction(2, 5), Fraction(2, 5)))
    assert isinstance(cert, DisplacementCertificate)
    assert cert.detail["swap"] == [1, 2]
    assert cert.detail["image_moment"] == [[2, 5], [1, 5]]


def test_fixed_point_of_all_swaps():
    out = displace_clifford(ActionCoords(Fraction(1, 3), Fraction(1, 3)))
    assert isinstance(out, NotDisplacedByTheseFlows)
    assert out.base == (Fraction(1, 3), Fraction(1, 3))


def test_displace_float_fiber():
    cert = displace_clifford(ActionCoords(0.21, 0.37))
    assert isinstance(cert, DisplacementCertificate)
    assert cert.detail["image_moment"] == [0.37, 0.21]


def test_displace_rejects_boundary_fiber():
    with pytest.raises(ValueError):
        displace_clifford(ActionCoords(0.0, 0.5))


# ---------------------------------------------------------------------------
# the pencil-negation flow on Chekanov-type tori
# ---------------------------------------------------------------------------


def test_displace_chekanov_certificate():
    cert = displace_chekanov(ChekanovParams(0.5, 1.0, 0.0), samples=64)
    assert isinstance(cert, DisplacementCertificate)
    assert cert.method is CertificateMethod.SAMPLED_DISTANCE
    assert cert.samples == 64 * 64
    assert cert.detail["pencil_circle_gap"] == pytest.approx(1.0)
    assert cert.separation == pytest.approx(0.47868498575653584, abs=1e-9)


def test_displace_chekanov_narrow_margin():
    cert = displace_chekanov(ChekanovParams(0.9, 1.0, 0.3), samples=64)
    assert 1e-3 < cert.separation < 0.25


def test_displace_chekanov_threshold_yields_inconclusive():
    out = displace_chekanov(ChekanovParams(0.5, 1.0, 0.0), samples=32, threshold=1.0)
    assert isinstance(out, Inconclusive)
    assert out.samples == 32 * 32
    assert 0.0 < out.separation < 1.0


@pytest.mark.parametrize("samples", [8, 24])
@pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
def test_reduced_certificate_search_equals_brute_force(samples, a):
    params = ChekanovParams(a, 1.0, 0.3)
    g = (np.arange(samples) + 0.5) / samples
    uu, vv = np.meshgrid(g, g, indexing="ij")
    src = _unit_rows(chekanov_torus(params)(uu, vv)).reshape(-1, 3)
    img = src @ symbol_flow(diagonal_symbol(0.0, 0.0, 1.0), math.pi / 2.0).T
    cert = displace_chekanov(params, samples=samples)
    assert cert.separation == pytest.approx(_min_pairwise_chordal(src, img), abs=1e-14)
    assert cert.detail["pairs_examined"] == samples ** 3


def test_displace_chekanov_rejects_wide_circles():
    with pytest.raises(NotChekanovType):
        displace_chekanov(ChekanovParams(1.5, 1.0, 0.0))


# ---------------------------------------------------------------------------
# the rotation construction on diagonal level sets
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def rotation_report():
    return build_diagonal_rotation([0.25, 0.5, 0.75])


def test_rotation_reduced_areas(rotation_report):
    for rep in rotation_report.alphas:
        assert rep.reduced_area == pytest.approx(rep.alpha, abs=1e-6)
        assert rep.normalization == pytest.approx(rep.alpha ** 2, abs=1e-6)


def test_rotation_marked_circle_carries_extremes(rotation_report):
    for rep in rotation_report.alphas:
        assert rep.marked_moment[0] == pytest.approx(rep.alpha / 2.0, abs=1e-12)
        assert rep.marked_moment[1] == pytest.approx(rep.alpha / 2.0, abs=1e-12)
        hi, lo = rep.extreme_values
        assert hi == pytest.approx(3.0 * rep.alpha, abs=0.01)
        assert lo == pytest.approx(-rep.alpha, abs=0.01)
        assert rep.extreme_location_gap < 0.05


def test_rotation_critical_points(rotation_report):
    assert len(rotation_report.critical_points) == 3
    vals = sorted(rotation_report.critical_values)
    assert vals[0] == pytest.approx(-1.0, abs=1e-9)
    assert vals[1] == pytest.approx(0.0, abs=1e-9)
    assert vals[2] == pytest.approx(3.0, abs=1e-9)


def test_rotation_swap_and_periodicity(rotation_report):
    assert rotation_report.swap_moment_deviation < 1e-12
    assert rotation_report.periodicity_deviation < 1e-8


def test_rotation_report_serializes(rotation_report):
    text = stable_dumps(rotation_report.to_json())
    assert '"critical_values"' in text


def test_rotation_validates_inputs():
    with pytest.raises(ValueError):
        build_diagonal_rotation([0.5], grid=16)
    with pytest.raises(ValueError):
        build_diagonal_rotation([1.0])
    with pytest.raises(NormalizationFailure):
        build_diagonal_rotation([0.5], area_tol=1e-16)


# ---------------------------------------------------------------------------
# the combined verdict
# ---------------------------------------------------------------------------


def test_verdict_monotone_only_at_the_center():
    v = enc_verdict(ActionCoords(Fraction(1, 3), Fraction(1, 3)))
    assert isinstance(v, Monotone)
    assert v.witness.monotone and v.witness.canonical_bs
    assert v.witness.bs_defect == 0.0
    assert v.witness.universal_class == (0, 0, 0)


def test_verdict_displaceable_fiber():
    v = enc_verdict(ActionCoords(Fraction(1, 5), Fraction(1, 2)))
    assert isinstance(v, Displaceable)
    assert v.certificate.detail["swap"] == [0, 1]


def test_verdict_rejects_boundary():
    with pytest.raises(ValueError):
        enc_verdict(ActionCoords(Fraction(0, 1), Fraction(1, 2)))


def test_verdict_dichotomy_on_a_small_grid():
    from lagrtori.clifford import interior_rational_grid

    grid = interior_rational_grid(7)
    assert len(grid) == 28
    verdicts = [enc_verdict(ActionCoords(*b)) for b in grid]
    monotone = [v for v in verdicts if isinstance(v, Monotone)]
    displaceable = [v for v in verdicts if isinstance(v, Displaceable)]
    assert len(monotone) == 1
    assert monotone[0].base == (Fraction(1, 3), Fraction(1, 3))
    assert len(displaceable) == 27


def test_verdict_serializes_with_rational_base():
    v = enc_verdict(ActionCoords(Fraction(1, 5), Fraction(1, 2)))
    payload = v.to_json()
    assert payload["verdict"] == "displaceable"
    assert payload["base"] == [[1, 5], [1, 2]]
    # round-trips through the stable serializer
    assert stable_dumps(payload) == stable_dumps(v.to_json())
