import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrtori.chekanov import (
    Anchor,
    ChekanovParams,
    TorusType,
    canonical_bs_scan,
    chekanov_torus,
    classify_type,
    conic_circle,
    conic_total_area,
    level_radius,
    radial_area,
    torus_periods_chekanov,
)
from lagrtori.errors import (
    DegenerateFamily,
    NonConvergent,
    SingularConic,
)
from lagrtori.geometry import LOOP_FALLBACK, LOOP_MAX_NODES, loop_symplectic_area
from oracle import (
    ConingDegenerate,
    Surface,
    cone_disc,
    conic_disc_surface,
    conic_equation_residual,
    line_surface,
    random_unitary,
    surface_form_grid,
    surface_symplectic_area,
)

CHEAP = 16


# ---------------------------------------------------------------------------
# conic members and their orbit circles
# ---------------------------------------------------------------------------


def test_singular_member_rejected():
    with pytest.raises(SingularConic):
        conic_total_area(0.0)
    with pytest.raises(SingularConic):
        conic_circle(1e-14, 0.2)


@pytest.mark.parametrize("rho", [0.4, 1.0, 2.3])
def test_disc_area_matches_closed_form(rho):
    eps = 0.7 - 0.4j
    est = surface_symplectic_area(conic_disc_surface(eps, rho))
    assert est.value == pytest.approx(float(radial_area(abs(eps), rho)), abs=1e-8)


def test_level_radius_inverts_radial_area():
    e = 0.81
    for rho in (0.3, 1.0, 1.7, 3.0):
        level = float(radial_area(e, rho))
        assert float(level_radius(e, level)) == pytest.approx(rho, rel=1e-12)
    with pytest.raises(ValueError):
        level_radius(e, 2.0)


def test_total_conic_area_is_two():
    rng = np.random.RandomState(11)
    for _ in range(10):
        eps = rng.uniform(0.2, 2.0) * np.exp(2j * math.pi * rng.uniform())
        total, err = conic_total_area(eps)
        assert total == pytest.approx(2.0, abs=1e-6)
        assert err < 1e-6


@pytest.mark.parametrize("eps", [1.0, 0.3 + 0.4j, 5.0, 0.01j, 100.0])
def test_total_conic_area_by_boundary_rule_is_exact(eps):
    total, err = conic_total_area(eps)
    assert total == pytest.approx(2.0, abs=1e-12)
    assert abs(total - 2.0) <= err + 1e-15


@pytest.mark.parametrize("delta", [-0.35, 0.0, 0.2, 0.8])
@pytest.mark.parametrize("anchor", [Anchor.NEAR_Z0, Anchor.NEAR_Z1])
def test_delta_label_round_trip(delta, anchor):
    eps = 0.7 - 0.4j
    circle = conic_circle(eps, delta, anchor)
    est = surface_symplectic_area(
        conic_disc_surface(circle.eps, circle.rho, circle.anchor is Anchor.NEAR_Z1))
    assert est.value == pytest.approx(1.0 + delta, abs=1e-7)


def test_conic_circle_validates_delta():
    with pytest.raises(ValueError):
        conic_circle(0.5, 1.0)


# ---------------------------------------------------------------------------
# the torus family over pencil circles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "a,mu,want",
    [
        (2.0, 1.0, TorusType.CLIFFORD),
        (0.5, 1.0, TorusType.CHEKANOV),
        (1.0, 1.0, TorusType.BOUNDARY),
        (1.0 + 5e-10, 1.0, TorusType.BOUNDARY),
    ],
)
def test_type_classification(a, mu, want):
    assert classify_type(ChekanovParams(a, mu, 0.0)) is want


def test_degenerate_family_rejected():
    with pytest.raises(DegenerateFamily):
        chekanov_torus(ChekanovParams(1.0, 1.0, 0.2))


def test_params_validate():
    with pytest.raises(ValueError):
        ChekanovParams(-0.1, 1.0, 0.0)
    with pytest.raises(ValueError):
        ChekanovParams(0.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        ChekanovParams(0.5, 1.0, 1.0)


@pytest.mark.parametrize(
    "a,mu,delta",
    [
        (0.5, 1.0, 0.0),
        (0.3, 1.0, 0.4),
        (0.7, np.exp(2j * math.pi / 3), -0.3),
        (1.5, 1.0, 0.2),
    ],
)
def test_torus_is_lagrangian_and_on_the_conics(a, mu, delta):
    params = ChekanovParams(a, mu, delta)
    torus = Surface(chekanov_torus(params), periodic=(True, True))
    g = (np.arange(16) + 0.37) / 16
    uu, vv = np.meshgrid(g, g, indexing="ij")
    assert np.max(np.abs(surface_form_grid(torus, uu, vv, step=3e-5))) <= 1e-8
    eps = params.eps_of(uu)
    assert np.max(conic_equation_residual(eps, torus(uu, vv))) <= 1e-10


# ---------------------------------------------------------------------------
# periods
# ---------------------------------------------------------------------------


def _mod1_distance(x, y):
    d = (x - y) % 1.0
    return min(d, 1.0 - d)


def _coned_section_area(params, seed, n=32):
    """2-D area of the s = 0 loop coned to the first usable seeded basepoint."""
    torus = chekanov_torus(params)
    rng = np.random.RandomState(seed)
    for _ in range(8):
        base = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        try:
            disc = cone_disc(lambda t: torus(t, np.zeros_like(t)), base)
        except ConingDegenerate:
            continue
        return surface_symplectic_area(disc, n, step=2.5e-4).value
    raise AssertionError("no usable coning basepoint")


def test_orbit_period_recovers_delta():
    p = torus_periods_chekanov(ChekanovParams(0.5, 1.0, 0.25))
    assert p.p_orbit == pytest.approx(0.25, abs=1e-12)
    assert p.orbit_error < 1e-12


@pytest.mark.parametrize("a", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("delta", [-0.5, 0.0, 0.5])
def test_boundary_periods_match_the_coned_disc_oracle(a, delta):
    params = ChekanovParams(a, 1.0, delta)
    p = torus_periods_chekanov(params)
    oracle = _coned_section_area(params, 0, 48)
    assert _mod1_distance(p.p_section, oracle) <= 1e-8
    assert _mod1_distance(p.p_orbit, delta) <= 1e-12
    assert p.section_error <= 1e-12


def test_orbit_period_near_z1_anchor():
    p = torus_periods_chekanov(ChekanovParams(0.5, 1.0, 0.3), anchor=Anchor.NEAR_Z1)
    assert _mod1_distance(p.p_orbit, 0.3) <= 1e-12


def test_section_period_independent_of_basepoint():
    params = ChekanovParams(0.5, 1.0, 0.2)
    p = torus_periods_chekanov(params)
    for seed in (0, 3):
        assert _mod1_distance(p.p_section, _coned_section_area(params, seed)) <= 2e-6


def test_section_period_continuous_in_a():
    vals = [
        torus_periods_chekanov(ChekanovParams(a, 1.0, 0.2)).p_section
        for a in np.arange(0.30, 0.901, 0.02)
    ]
    jumps = np.abs(np.diff(vals))
    assert np.max(jumps) < 0.01


@settings(max_examples=25, deadline=None)
@given(
    e=st.floats(0.2, 3.0),
    arg=st.floats(0.0, 2.0 * math.pi),
    rho=st.floats(0.2, 3.0),
    inverted=st.booleans(),
)
def test_boundary_area_matches_2d_area_on_conic_discs(e, arg, rho, inverted):
    disc = conic_disc_surface(e * np.exp(1j * arg), rho, inverted)
    # the s = 0 edge is a constant lift, so only the s = 1 loop contributes
    loop = loop_symplectic_area(lambda t: disc(np.ones_like(t), t))
    assert loop.value == pytest.approx(surface_symplectic_area(disc).value, abs=1e-7)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_boundary_area_matches_2d_area_on_moved_lines(seed):
    line = line_surface().moved(random_unitary(np.random.RandomState(seed)))
    loop = loop_symplectic_area(lambda t: line(np.ones_like(t), t))
    assert loop.value == pytest.approx(surface_symplectic_area(line).value, abs=1e-7)
    assert loop.value == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(0.05, 0.99),
    delta=st.floats(-0.95, 0.95),
    mu=st.sampled_from([1.0, 1j, 0.6 + 0.8j, 2.0]),
)
def test_periods_under_delta_reflection(a, delta, mu):
    # delta -> -delta keeps the section period and negates the orbit period
    p = torus_periods_chekanov(ChekanovParams(a, mu, delta))
    q = torus_periods_chekanov(ChekanovParams(a, mu, -delta))
    assert _mod1_distance(p.p_section, q.p_section) <= 1e-12
    assert _mod1_distance(p.p_orbit + q.p_orbit, 0.0) <= 1e-12


def test_edge_regime_converges_with_more_nodes():
    p = torus_periods_chekanov(ChekanovParams(0.99, 1.0, 0.2))
    assert p.nodes >= 8192
    assert p.section_error <= 1e-12


def test_node_cap_accepts_within_the_fallback():
    # at a = 0.9999 the section loop reaches the cap with levels ~1e-7 apart
    p = torus_periods_chekanov(ChekanovParams(0.9999, 1.0, 0.2))
    assert p.nodes == LOOP_MAX_NODES
    assert 1e-12 < p.section_error <= LOOP_FALLBACK


def test_past_the_node_cap_raises_naming_the_point():
    # delta > 0: the orbit radius blows up as the circle nears eps = 0
    params = ChekanovParams(0.99999, 1.0 + 0j, 0.25)
    with pytest.raises(NonConvergent) as exc:
        torus_periods_chekanov(params)
    msg = str(exc.value)
    assert "section loop" in msg
    for part in ("a=0.99999", f"mu={params.mu!r}", "delta=0.25"):
        assert part in msg


def test_coning_degenerates_on_antipodal_basepoint():
    def loop(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.cos(2 * np.pi * t) + 0j, np.sin(2 * np.pi * t) + 0j,
                         np.zeros_like(t) + 0j], axis=-1)

    with pytest.raises(ConingDegenerate):
        cone_disc(loop, -loop(0.25))


# ---------------------------------------------------------------------------
# the integrality scan
# ---------------------------------------------------------------------------


def test_scan_small_grid_values():
    report = canonical_bs_scan(1.0, [0.3, 0.5], [-0.2, 0.0, 0.2], 24)
    assert len(report.rows) == 6
    by_key = {(r.a, r.delta): r for r in report.rows}
    # nonzero delta rows are rejected by the orbit period alone
    assert by_key[(0.3, 0.2)].defect == pytest.approx(0.4, abs=1e-6)
    assert by_key[(0.5, -0.2)].defect == pytest.approx(0.4, abs=1e-6)
    # delta = 0 rows are decided by the section period
    assert by_key[(0.3, 0.0)].defect == pytest.approx(0.0158922, abs=1e-4)
    assert report.min_defect == pytest.approx(0.0158922, abs=1e-4)
    assert report.argmin == (0.3, 0.0)
    assert report.min_defect > 1e-4


def test_scan_csv_layout():
    report = canonical_bs_scan(1.0, [0.4], [0.0], CHEAP)
    lines = report.to_csv().splitlines()
    assert lines[0] == "a,delta,p_orbit,p_section,defect"
    assert len(lines) == 2
    assert lines[1].startswith("0.4,0.0,")


def test_scan_rows_carry_their_evidence():
    row = canonical_bs_scan(1.0, [0.4], [0.0], CHEAP).rows[0]
    # reduced after rounding: delta = 0 reads exactly 0, not 0.9999999999999996
    assert row.p_orbit == 0.0
    assert row.defect_orbit == 0.0
    assert row.p_section == round(row.p_section, 10)
    assert 0.0 <= row.orbit_error <= 1e-12
    assert 0.0 <= row.section_error <= 1e-12
    assert row.nodes >= 2 * CHEAP


def test_scan_validates_regime():
    with pytest.raises(ValueError):
        canonical_bs_scan(1.0, [0.5, 1.1], [0.0], CHEAP)
    with pytest.raises(ValueError):
        canonical_bs_scan(1.0, [], [0.0], CHEAP)
