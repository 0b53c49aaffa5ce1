import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lagrtori.chekanov as chekanov
from lagrtori import geometry
from lagrtori.chekanov import (
    ChekanovParams,
    TorusType,
    canonical_bs_scan,
    chekanov_torus,
    classify_type,
    conic_total_area,
    level_radius,
    pencil_separation,
    radial_area,
    torus_periods_chekanov,
)
from lagrtori.errors import (
    DegenerateFamily,
    NonConvergent,
    SingularConic,
    ZeroVector,
)
from lagrtori.geometry import LOOP_FALLBACK, LOOP_MAX_NODES
from oracle import (
    ConingDegenerate,
    Surface,
    cone_disc,
    conic_disc_surface,
    conic_equation_residual,
    conic_total_area_by_loops,
    line_surface,
    loop_symplectic_area,
    random_unitary,
    spectral_loop_area,
    surface_form_grid,
    surface_symplectic_area,
    torus_periods_per_row,
)

CHEAP = 16


# ---------------------------------------------------------------------------
# conic members and their orbit circles
# ---------------------------------------------------------------------------


def test_singular_member_rejected():
    with pytest.raises(SingularConic):
        conic_total_area(0.0)
    with pytest.raises(SingularConic):
        conic_total_area(1e-14)
    with pytest.raises(ValueError, match="must be nonzero"):
        ChekanovParams(0.5, 1e-14, 0.2)


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
    loops, loops_err = conic_total_area_by_loops(eps)
    assert abs(total - loops) <= err + loops_err


@settings(max_examples=200, deadline=None)
@given(log_e=st.floats(-11.9, 150.0), arg=st.floats(0.0, 2.0 * math.pi))
def test_total_conic_area_is_two_within_its_error(log_e, arg):
    eps = 10.0 ** log_e * cmath.exp(1j * arg)
    # at log_e = 150 the product can round above the range, where ZeroVector
    # is right (test_members_past_the_range_are_rejected)
    assume(abs(eps) <= 1e150)
    total, err = conic_total_area(eps)
    assert 0.0 < err < 1e-14
    assert abs(total - 2.0) <= err


# 1e150 e^{i theta} at this theta rounds to |eps| = 1.0000000000000002e150
_ROUNDS_PAST_THE_RANGE = 10.0 ** 150 * cmath.exp(1j * 1.3239255445563303)


@pytest.mark.parametrize("eps", [1e151, -3e200j, 1e300, _ROUNDS_PAST_THE_RANGE])
def test_members_past_the_range_are_rejected(eps):
    with pytest.raises(ZeroVector, match="no usable magnitude"):
        conic_total_area(eps)
    # a torus over the member: mu = eps, and the circle reaches past the range
    with pytest.raises(ZeroVector, match="no usable magnitude"):
        torus_periods_chekanov(ChekanovParams(0.5, eps, 0.2))


@pytest.mark.parametrize("delta", [-0.35, 0.0, 0.2, 0.8])
# the ids name the pole the disc is measured from: [1:0:0] or [0:1:0]
@pytest.mark.parametrize("far", [False, True], ids=["z0", "z1"])
def test_delta_label_round_trip(delta, far):
    # the near disc at level 1 + delta; the far disc, from [0:1:0], at the
    # complement 1 - delta, has the same area 1 + delta
    eps = 0.7 - 0.4j
    level = 1.0 - delta if far else 1.0 + delta
    disc = conic_disc_surface(eps, float(level_radius(abs(eps), level)), inverted=far)
    assert surface_symplectic_area(disc).value == pytest.approx(1.0 + delta, abs=1e-7)


def test_conic_circle_validates_delta():
    for delta in (1.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="delta"):
            ChekanovParams(0.5, 1.0, delta)


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
        # the tolerance is relative to |mu|
        (0.5e-10, 1e-10, TorusType.CHEKANOV),
        (1e6 + 1e-4, 1e6, TorusType.BOUNDARY),
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
    for a, mu in ((math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan),
                  (0.5, complex(1.0, math.inf)), (0.5, complex(math.nan, 0.0))):
        with pytest.raises(ValueError, match="finite"):
            ChekanovParams(a, mu, 0.0)


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
    windings = (2, 0, 1) if inverted else (0, 2, 1)
    loop = loop_symplectic_area(lambda t: disc(np.ones_like(t), t), windings)
    assert loop.value == pytest.approx(surface_symplectic_area(disc).value, abs=1e-7)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_boundary_area_matches_2d_area_on_moved_lines(seed):
    # the unitary mixes the coordinates, so the line's windings no longer fit;
    # the generic rule needs none
    line = line_surface().moved(random_unitary(np.random.RandomState(seed)))
    loop = spectral_loop_area(lambda t: line(np.ones_like(t), t))
    assert loop.value == pytest.approx(surface_symplectic_area(line).value, abs=1e-7)
    assert loop.value == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(0.05, 0.99),
    delta=st.floats(-0.95, 0.95),
    mu=st.sampled_from([1.0, 1j, 0.6 + 0.8j, 2.0]),
)
def test_periods_under_delta_reflection(a, delta, mu):
    # delta -> -delta negates the orbit period.  For a < |mu| both section
    # periods are the one integral on the branch 1 - |delta|, so they agree
    # as floats: the far-pole torus at delta is the near one at -delta.
    assert a < abs(mu)
    p = torus_periods_chekanov(ChekanovParams(a, mu, delta))
    q = torus_periods_chekanov(ChekanovParams(a, mu, -delta))
    assert (p.p_section, p.section_error, p.nodes) == (q.p_section, q.section_error, q.nodes)
    assert _mod1_distance(p.p_orbit + q.p_orbit, 0.0) <= 1e-12


def test_edge_regime_converges_with_more_nodes():
    p = torus_periods_chekanov(ChekanovParams(0.99, 1.0, 0.2))
    assert p.nodes <= 512
    assert p.section_error <= 1e-12


def test_node_cap_accepts_within_the_fallback():
    # delta = 0 a hair inside the edge: the section integrand has a peak of
    # width ~1e-8 at theta = 0, and the levels at the cap are ~1e-11 apart
    p = torus_periods_chekanov(ChekanovParams(1.0 - 1e-8, 1.0, 0.0))
    assert p.nodes == LOOP_MAX_NODES
    assert 1e-12 < p.section_error <= LOOP_FALLBACK


def test_past_the_node_cap_raises_naming_the_point():
    # nearer still, the levels at the cap disagree by ~4e-6
    params = ChekanovParams(0.999999998, 1.0 + 0j, 0.0)
    with pytest.raises(NonConvergent) as exc:
        torus_periods_chekanov(params)
    msg = str(exc.value)
    assert "section loop" in msg
    for part in ("a=0.999999998", f"mu={params.mu!r}", "delta=0.0"):
        assert part in msg


@pytest.mark.parametrize("nodes", [2.5, 0, -4, 3, LOOP_MAX_NODES // 2 + 1, 2 ** 19, True, "32"])
def test_start_nodes_outside_the_range_raise_naming_them(nodes):
    # unchecked, a float start would run the rule on non-integer node counts,
    # 0 would divide by zero and 2**19 would start past the cap
    with pytest.raises(ValueError, match=f"start nodes {nodes!r} must be an int in "
                                         rf"\[4, {LOOP_MAX_NODES // 2}\]"):
        torus_periods_chekanov(ChekanovParams(0.5, 1.0, 0.0), nodes)
    with pytest.raises(ValueError, match="start nodes"):
        canonical_bs_scan(1.0, [0.5], [0.0], nodes)


@pytest.mark.parametrize("nodes", [4, np.int64(32), LOOP_MAX_NODES // 2])
def test_start_nodes_at_the_ends_of_the_range_are_taken(nodes):
    p = torus_periods_chekanov(ChekanovParams(0.5, 1.0, 0.0), nodes)
    assert abs(p.p_section - 0.016446135583) <= 1e-12
    assert p.nodes <= LOOP_MAX_NODES


@pytest.mark.parametrize("nodes", [24, 48])
def test_a_start_that_is_no_power_of_two_stops_within_the_cap(nodes):
    # 3 * 2**16 is the last doubling of 24 and of 48 within LOOP_MAX_NODES
    p = torus_periods_chekanov(ChekanovParams(1.0 - 1e-8, 1.0, 0.0), nodes)
    assert p.nodes == 196608 == 3 * 2 ** 16
    assert p.section_error <= LOOP_FALLBACK


# ---------------------------------------------------------------------------
# the batched pass against the per-row reference
# ---------------------------------------------------------------------------

# a wall point that converges only at the node cap, and one that does not
WALL_POINT = ChekanovParams(1.0 - 1e-8, 1.0, 0.0)
NONCONVERGENT_POINT = ChekanovParams(0.999999998, 1.0, 0.0)


def _per_row(params, nodes):
    try:
        return torus_periods_per_row(params, nodes)
    except NonConvergent as exc:
        return exc


@st.composite
def chamber_points(draw):
    """A torus of either chamber, at least 1e-3 |mu| from the wall."""
    mu = draw(st.floats(0.01, 100.0)) * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    ratio = draw(st.one_of(st.floats(0.01, 0.999), st.floats(1.001, 5.0)))
    return ChekanovParams(ratio * abs(mu), mu, draw(st.floats(-0.99, 0.99)))


@settings(max_examples=25, deadline=None)
@given(points=st.lists(chamber_points(), min_size=1, max_size=8),
       nodes=st.sampled_from([16, 32, 48]))
def test_batched_periods_equal_the_per_row_reference(points, nodes):
    points = points + [WALL_POINT, NONCONVERGENT_POINT]
    for got, params in zip(chekanov._periods(points, nodes), points):
        want = _per_row(params, nodes)
        assert type(got) is type(want)
        if isinstance(want, NonConvergent):
            assert str(got) == str(want)
        else:
            assert tuple(got) == tuple(want)  # bit for bit, field for field


def _record_rows(monkeypatch):
    """Wrap the section integrand so each call records (rows, nodes) of its block."""
    blocks = []
    real = chekanov._section_integrand

    def recording(keys):
        integrand, weights = real(keys)

        def at_nodes(tau):
            rows = integrand(tau)

            def block(idx):
                out = rows(idx)
                blocks.append(out.shape)
                return out

            return block

        return at_nodes, weights

    monkeypatch.setattr(chekanov, "_section_integrand", recording)
    return blocks


def test_scan_integrates_each_distinct_section_once(monkeypatch):
    batches = []
    real = chekanov.doubled_trapezoid

    def counting(f, weights, nodes):
        batches.append(len(weights))
        return real(f, weights, nodes)

    monkeypatch.setattr(chekanov, "doubled_trapezoid", counting)
    blocks = _record_rows(monkeypatch)
    a_grid, delta_grid = [0.1, 0.5, 0.9], [-0.6, -0.3, 0.0, 0.3, 0.6, 0.8]
    report = canonical_bs_scan(1.0, a_grid, delta_grid, 48)
    assert report.status_counts()["ok"] == 18
    # one batch; per a, the branches 1 - |delta| are 0.4, 0.7, 1.0 and 0.2
    assert batches == [3 * 4]
    assert blocks[0] == (12, 48)


def test_no_block_passes_the_element_budget(monkeypatch):
    blocks = _record_rows(monkeypatch)
    report = canonical_bs_scan(1.0, [1 - k * 1e-8 for k in range(1, 9)], [-0.5, 0.0, 0.5], 32)
    assert report.status_counts()["ok"] == 24
    assert max(rows * n for rows, n in blocks) <= geometry._BLOCK_ELEMENTS
    # the last level of the rule evaluates a row at a time
    assert max(n for _, n in blocks) == LOOP_MAX_NODES // 2
    assert max(rows for rows, _ in blocks) == 16


def _section_integrand(a, mu, level, t):
    """f_l(t) = (2 - l) x^2 P / (2 (2 + x)) on the circle eps = a e^{2 pi i t} - mu."""
    params = ChekanovParams(a, mu, 0.0)
    eps2 = np.abs(params.eps_of(t)) ** 2
    x = level_radius(np.sqrt(eps2), level) ** 2
    p = eps2 + a * a - abs(mu) ** 2
    return (2.0 - level) * x * x * p / (2.0 * (2.0 + x)), p / eps2


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(0.05, 3.0),
    mu=st.sampled_from([1.0, 1j, 0.6 + 0.8j, 2.0]),
    delta=st.floats(-0.95, 0.95),
    t=st.floats(0.0, 1.0),
)
def test_section_integrand_branch_identity(a, mu, delta, t):
    # f_{1+delta} - f_{1-delta} = (delta / 2) P / |eps|^2, pointwise
    assume(abs(a - abs(mu)) >= 1e-3)
    up, ratio = _section_integrand(a, mu, 1.0 + delta, t)
    down, _ = _section_integrand(a, mu, 1.0 - delta, t)
    want = 0.5 * delta * ratio
    assert float(up - down) == pytest.approx(float(want), rel=1e-9, abs=1e-12)


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
    # every point is checked before the first row, NaN included
    with pytest.raises(ValueError, match="a_grid"):
        canonical_bs_scan(1.0, [0.5, math.nan], [0.0], CHEAP)
    for delta in (1.0, math.nan):
        with pytest.raises(ValueError, match="delta_grid"):
            canonical_bs_scan(1.0, [0.5], [0.0, delta], CHEAP)
    with pytest.raises(ValueError):
        canonical_bs_scan(1.0, [], [0.0], CHEAP)
    for mu in (complex(math.nan, 0.0), complex(1.0, math.nan), complex(math.inf, 0.0)):
        with pytest.raises(ValueError, match="mu must be finite"):
            canonical_bs_scan(mu, [0.5], [0.0], CHEAP)


def test_orbit_level_that_rounds_to_two_is_rejected_up_front():
    # 1 - 2**-53 is inside (-1, 1), but the orbit level 1 + delta rounds to 2
    edge = 1 - 2 ** -53
    with pytest.raises(ValueError, match="orbit level"):
        ChekanovParams(0.5, 1.0, edge)
    with pytest.raises(ValueError, match=f"delta_grid .*: {edge!r}$"):
        canonical_bs_scan(1.0, [0.5], [0.0, edge], CHEAP)
    ChekanovParams(0.5, 1.0, 1 - 2 ** -52)  # the next float down is accepted


def test_scan_point_at_the_wall_is_a_degenerate_row():
    report = canonical_bs_scan(1.0, [0.5, 0.9999999999], [0.0], CHEAP)
    assert [r.status for r in report.rows] == ["ok", "degenerate"]
    assert report.rows[1].error.startswith(
        "DegenerateFamily: torus at a=0.9999999999, mu=(1+0j), delta=0.0")


def test_scan_certificates_are_the_displacement_separations():
    report = canonical_bs_scan(1.0, [0.5, 0.9999999999], [-0.5, 0.0], CHEAP)
    assert [(c.a, c.delta) for c in report.certificates] == [
        (r.a, r.delta) for r in report.rows]
    for cert, row in zip(report.certificates, report.rows):
        params = ChekanovParams(cert.a, report.mu, cert.delta)
        try:
            separation = pencil_separation(params)
        except DegenerateFamily as exc:
            assert (cert.status, cert.separation) == ("degenerate", None)
            assert cert.error == f"DegenerateFamily: {exc}" == row.error
        else:
            assert (cert.status, cert.error) == ("ok", None)
            assert cert.separation == round(separation, 10)
    assert [c.status for c in report.certificates] == ["ok", "ok", "degenerate", "degenerate"]


def test_scan_point_that_overflows_is_a_degenerate_row():
    report = canonical_bs_scan(2e160, [1e160], [-0.5, 0.0])
    assert [r.status for r in report.rows] == ["degenerate", "degenerate"]
    row = report.rows[1]
    assert row.error.startswith("ZeroVector: torus at a=1e+160, mu=(2e+160+0j), delta=0.0")
    assert row.p_section is None and row.defect is None and row.nodes is None
    assert report.min_defect is None and report.argmin is None
    assert report.status_counts() == {"ok": 0, "nonconvergent": 0, "degenerate": 2}
    assert report.to_csv().splitlines()[1:] == ["1e+160,-0.5,,,", "1e+160,0.0,,,"]


def test_periods_reject_the_degenerate_family_naming_it():
    with pytest.raises(DegenerateFamily, match=r"a=1\.0, mu=1\.0, delta=0\.2"):
        torus_periods_chekanov(ChekanovParams(1.0, 1.0, 0.2))


def test_circle_within_the_floor_of_eps_zero_is_degenerate_everywhere():
    # the circle is of Chekanov type, far outside the 1e-9 |mu| boundary
    # tolerance, but comes within 5e-13 of eps = 0
    params = ChekanovParams(1e-11 - 5e-13, 1e-11, 0.2)
    for entry in (chekanov_torus, torus_periods_chekanov, pencil_separation):
        with pytest.raises(DegenerateFamily) as exc:
            entry(params)
        assert str(exc.value) == (f"torus at a={params.a!r}, mu=1e-11, delta=0.2: parameter"
                                  " circle passes through the singular member")
    row = canonical_bs_scan(params.mu, [params.a], [params.delta]).rows[0]
    assert row.status == "degenerate"
    assert row.error.endswith("delta=0.2: parameter circle passes through the singular member")
