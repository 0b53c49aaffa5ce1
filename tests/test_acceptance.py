"""Release-gate checks for the whole package.

One test per gate criterion; each prints a single "[criterion NN] ... PASS"
line (shown under pytest -rA / -s) and fails loudly otherwise.  Tolerances
are pinned here on purpose — loosening them is a release decision, not a
test fix.
"""

import io
import math
from fractions import Fraction

import numpy as np
import pytest

from lagrtori import cli
from lagrtori.chekanov import (
    ChekanovParams,
    canonical_bs_scan,
    chekanov_torus,
    conic_total_area,
    level_radius,
    pencil_separation,
    torus_periods_chekanov,
)
from lagrtori.clifford import (
    ActionCoords,
    D1,
    D2,
    D3,
    DeformationSpec,
    clifford_fiber,
    deformed_fiber_periods,
    enumerate_bs_fibers,
    fiber_periods,
    diagonal_period,
    hilbert_dimension,
    interior_rational_grid,
    ks_jacobian,
    standard_disc,
)
from lagrtori.displacement import build_diagonal_rotation
from lagrtori.errors import InternalContradiction, NonConvergent
from lagrtori.lattice import MonotoneWitness, SwapImage, dichotomy
from lagrtori.maslov import (
    DiscWithBoundary,
    disc_difference_check,
    is_monotone,
    maslov_index,
)
from oracle import (
    Surface,
    conic_disc_surface,
    line_surface,
    surface_form_grid,
    surface_symplectic_area,
)

NINE_GRID = [(a, b) for a in (0.15, 0.30, 0.45) for b in (0.15, 0.30, 0.45)]
FIVE_GRID = [(0.2, 0.3), (0.15, 0.45), (0.45, 0.15), (1 / 3, 1 / 3), (0.3, 0.3)]


def _gate(num: int, label: str, ok: bool, detail: str = ""):
    state = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {label}: {state}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num:02d} {label} {detail}"


def _bump(theta0, theta1):
    return 0.05 * np.sin(theta0) * np.cos(2.0 * theta1)


def test_criterion_01_exact_fiber_counts():
    ok = True
    for k in range(1, 31):
        ok = ok and len(enumerate_bs_fibers(k).fibers) == (k - 1) * (k - 2) // 2
        ok = ok and len(enumerate_bs_fibers(k, closed=True).fibers) == (k + 1) * (k + 2) // 2
    ok = ok and [len(enumerate_bs_fibers(k, closed=True).fibers) for k in (1, 2, 3)] == [3, 6, 10]
    level3 = enumerate_bs_fibers(3).fibers
    ok = ok and len(level3) == 1
    ok = ok and (level3[0].r0, level3[0].r1) == (Fraction(1, 3), Fraction(1, 3))
    _gate(1, "exact fiber counts for k = 1..30", ok)


def test_criterion_02_dimension_identity():
    ok = True
    for k in range(3, 31):
        cmp = hilbert_dimension(k)
        ok = ok and cmp.match and cmp.count == (k - 2) * (k - 1) // 2
    _gate(2, "open count equals section-space dimension for k = 3..30", ok)


def test_criterion_03_normalization_and_periods():
    area = surface_symplectic_area(line_surface())
    ok = abs(area.value - 1.0) <= 1e-9
    worst = 0.0
    for a, b in NINE_GRID:
        got = fiber_periods((a, b))
        worst = max(worst, abs(got.p1 - a), abs(got.p2 - b))
        diag, _ = diagonal_period((a, b))
        gap = abs(diag - ((a + b) % 1.0))
        ok = ok and min(gap, 1.0 - gap) <= 2e-6
    ok = ok and worst <= 1e-6
    _gate(3, "line area 1e-9, fiber periods 1e-6, diagonal period 2e-6", ok,
          f"period worst {worst:.2e}")


def test_criterion_04_deformation_shifts():
    ok = True
    fiber = clifford_fiber((0.25, 0.35))
    for c1, c2, scale in [(0.01, 0.0, 1.0), (0.08, -0.06, 0.5)]:
        got = deformed_fiber_periods(fiber, DeformationSpec(c1, c2, f=_bump, scale=scale))
        ok = ok and abs(got.p1 - (0.25 + scale * c1)) <= 2e-6
        ok = ok and abs(got.p2 - (0.35 + scale * c2)) <= 2e-6
    exact = deformed_fiber_periods(fiber, DeformationSpec(0.0, 0.0, f=_bump, scale=0.05))
    ok = ok and abs(exact.p1 - 0.25) <= 2e-6 and abs(exact.p2 - 0.35) <= 2e-6
    _gate(4, "graph deformations shift periods by (s c1, s c2) within 2e-6", ok)


def test_criterion_05_maslov_indices():
    ok = True
    for base in FIVE_GRID:
        fiber = clifford_fiber(base)
        for cls in (D1, D2):
            res = maslov_index(standard_disc(fiber, cls))
            ok = ok and res.mu == 1 and res.integrality_defect <= 1e-3
    res3 = maslov_index(standard_disc(clifford_fiber((0.2, 0.3)), D3))
    ok = ok and res3.mu == 2

    # gluing a line changes the index by three
    fiber = clifford_fiber((0.2, 0.3))
    d1 = standard_disc(fiber, D1)
    # the d1 boundary closes up through the z0 != 0 chart too, over the
    # complementary disc lam -> (1, sqrt(r1/r0) lam, sqrt(r2/r0) lam)
    companion = DiscWithBoundary(boundary_loop=d1.boundary_loop, frame=d1.frame, chart=0,
                                 det_lipschitz=d1.det_lipschitz)
    ok = ok and disc_difference_check(d1, companion, sphere_degree=-1)
    _gate(5, "basis disc indices 1, diagonal 2, gluing increment 3", ok)


def test_criterion_06_monotone_uniqueness():
    monotone_bases = []
    canonical = 0
    for b in interior_rational_grid(19):
        r0, r1 = float(b[0]), float(b[1])
        witness = is_monotone((r0, r1, r0 + r1), (1, 1, 2))
        if witness.canonical_bs:
            canonical += 1
        if witness.monotone:
            monotone_bases.append(b)
            center_class = witness.universal_class
    ok = monotone_bases == [(Fraction(1, 3), Fraction(1, 3))]
    ok = ok and canonical == 1
    ok = ok and all(c == 0 for c in center_class)
    _gate(6, "monotone fiber unique at (1/3, 1/3) with vanishing class", ok)


def test_criterion_07_ks_jacobian():
    ok = True
    for base in NINE_GRID:
        res = ks_jacobian(base)
        ok = ok and abs(res.determinant - 1.0) <= 1e-6
        ok = ok and res.jacobian[0, 0] > 0.0 and res.jacobian[1, 1] > 0.0
    _gate(7, "period-map jacobian determinant 1 with positive diagonal", ok)


def test_criterion_08_torus_family():
    grid = (np.arange(64) + 0.5) / 64.0
    uu, vv = np.meshgrid(grid, grid, indexing="ij")
    worst = 0.0
    for a in (0.3, 0.9, 1.5):
        for delta in (-0.3, 0.0, 0.3):
            for arg in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0):
                mu = complex(math.cos(arg), math.sin(arg))
                torus = Surface(chekanov_torus(ChekanovParams(a, mu, delta)), (True, True))
                worst = max(worst, float(np.max(np.abs(
                    surface_form_grid(torus, uu, vv, step=3e-5)))))
    ok = worst <= 1e-8

    rng = np.random.RandomState(0)
    for _ in range(10):
        eps = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(eps) < 0.05:
            continue
        ok = ok and abs(conic_total_area(eps)[0] - 2.0) <= 1e-6

    eps = 0.7 + 0.2j
    for delta in (-0.6, -0.2, 0.2, 0.6):
        # the near disc at level 1 + delta and the far disc at 1 - delta
        for level, far in ((1.0 + delta, False), (1.0 - delta, True)):
            disc_area = surface_symplectic_area(conic_disc_surface(
                eps, float(level_radius(abs(eps), level)), inverted=far)).value
            ok = ok and abs((disc_area - 1.0) - delta) <= 1e-7
    _gate(8, "family lagrangian to 1e-8, conic area 2, delta round-trip", ok,
          f"residual worst {worst:.2e}")


def test_criterion_09_integrality_scan():
    a_grid = [round(0.1 * i, 10) for i in range(1, 10)]
    delta_grid = [round(-0.9 + 0.1 * i, 10) for i in range(19)]
    report = canonical_bs_scan(1.0, a_grid, delta_grid, nodes=48)
    ok = report.min_defect > 1e-4 and len(report.rows) == 9 * 19
    _gate(9, "no canonical-level fiber over the whole parameter grid", ok,
          f"min defect {report.min_defect:.6f} at {report.argmin}")


def test_criterion_10_displacement():
    verdicts = {b: dichotomy(ActionCoords(*b)) for b in interior_rational_grid(19)}
    monotone = [b for b, v in verdicts.items() if isinstance(v, MonotoneWitness)]
    ok = len(verdicts) == 190 and monotone == [(Fraction(1, 3), Fraction(1, 3))]
    ok = ok and sum(isinstance(v, SwapImage) for v in verdicts.values()) == 189

    separations = [pencil_separation(ChekanovParams(round(0.1 * i, 10), 1.0, 0.0))
                   for i in range(1, 10)]
    worst_sep = min(separations)
    ok = ok and len(separations) == 9 and worst_sep > 1e-3

    report = build_diagonal_rotation([0.25, 0.5, 0.75])
    ok = ok and all(abs(r.reduced_area - r.alpha) <= 1e-6 for r in report.alphas)
    ok = ok and len(report.critical_points) == 3
    ok = ok and report.periodicity_deviation <= 1e-8
    ok = ok and report.swap_moment_deviation <= 1e-6
    _gate(10, "dichotomy, torus certificates, rotation construction", ok,
          f"worst separation {worst_sep:.4f}")


def test_criterion_11_cli_contract(tmp_path, monkeypatch):
    import json
    import os

    golden = os.path.join(os.path.dirname(__file__), "golden")
    cases = {
        "bs_count_level3.json": ["bs-count", "--level", "3"],
        "enc_report_grid7.json": ["enc-report", "--grid", "7"],
        "chekanov_scan_small.json": ["chekanov-scan", "--mu", "1,0", "--a-min", "0.3",
                                     "--a-max", "0.3", "--a-step", "0.1",
                                     "--delta-step", "0.5", "--quad-nodes", "24"],
        "plot_level6.svg": ["plot", "--level", "6"],
    }

    def run(args):
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(args, out=out, err=err)
        return code, out.getvalue()

    ok = True
    for name, args in cases.items():
        with open(os.path.join(golden, name)) as fh:
            want = fh.read()
        code1, out1 = run(args)
        code2, out2 = run(args)
        ok = ok and code1 == 0 and out1 == want and out2 == want

    with pytest.raises(SystemExit) as usage:
        run(["bs-count", "--level", "0"])
    ok = ok and usage.value.code == cli.EXIT_USAGE

    code, _ = run(["plot", "--level", "3", "--out", str(tmp_path / "no" / "x.svg")])
    ok = ok and code == cli.EXIT_IO

    monkeypatch.setattr(cli, "dichotomy",
                        lambda base: (_ for _ in ()).throw(InternalContradiction("x")))
    code, _ = run(["enc-report", "--grid", "7"])
    ok = ok and code == cli.EXIT_CONTRADICTION
    monkeypatch.undo()

    monkeypatch.setattr("lagrtori.chekanov.canonical_bs_scan",
                        lambda *a, **k: (_ for _ in ()).throw(NonConvergent("x")))
    code, _ = run(["chekanov-scan", "--mu", "1,0", "--a-min", "0.3", "--a-max", "0.3",
                   "--a-step", "0.1", "--delta-step", "0.5"])
    ok = ok and code == cli.EXIT_SCAN
    _gate(11, "golden outputs byte-identical and exit codes honored", ok)
