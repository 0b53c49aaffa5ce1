"""The benchmark workloads: inputs from a seed, the reports, output checks.

A workload is a list of reports.  A CLI report runs ``lagrtori.cli.main``
in-process with stdout captured in memory; a library report (``toric``) calls
the public functions and renders their results as JSON text.  Either way a
report yields (exit code, text), so traced and untraced runs compare as bytes.

Each report has a check that reads the parsed output, never the printed
digits beyond the stated tolerances.  A check counts items (grid points,
lattice points, disc periods), the items that failed (missing, not converged
or wrong), and the largest mod-1 distance between a reported period and its
closed form.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

import lagrtori.cli
import lagrtori.clifford
import lagrtori.displacement
import lagrtori.errors
import lagrtori.maslov

PERIOD_TOL = 1e-6  # closed-form agreement required of every reported period
CERT_SEPARATION = 1e-3  # a certificate must clear this chordal separation
SCAN_MIN_DEFECT = 1e-4  # no canonical-level torus on the scan grid


@dataclass
class Check:
    items: int = 0
    failed: int = 0
    period_err: float = 0.0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 8:
            self.problems.append(why)

    def add(self, other: "Check") -> None:
        self.items += other.items
        self.failed += other.failed
        self.period_err = max(self.period_err, other.period_err)
        self.problems.extend(other.problems[: max(0, 8 - len(self.problems))])


@dataclass
class Report:
    name: str
    argv: list[str]  # CLI argv, or a description of the library calls
    run: Callable[[], tuple[int, str]]
    check: Callable[[int, str], Check]
    items: int  # grid points, lattice points or disc periods it reports
    is_cli: bool = True


@dataclass
class Workload:
    name: str
    reports: list[Report]  # the timed pass
    small: list[Report]  # warm-up and trace-neutrality inputs
    probe: list[Report] = field(default_factory=list)  # once per run, untimed


def check_pass(reports: list[Report], outputs: list[tuple[int, str]]) -> Check:
    """Checks of one pass; an output of the wrong shape fails all its items."""
    total = Check()
    for report, (code, text) in zip(reports, outputs):
        try:
            chk = report.check(code, text)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            chk = Check(items=report.items)
            chk.fail(report.items, f"output shape: {type(exc).__name__}: {exc}")
        chk.problems = [f"{report.name}: {p}" for p in chk.problems]
        total.add(chk)
    return total


def mod1_distance(x: float, y: float) -> float:
    d = (float(x) - float(y)) % 1.0
    return min(d, 1.0 - d)


def _cli_report(name: str, argv: list[str], items: int, check) -> Report:
    def run():
        out, err = io.StringIO(), io.StringIO()
        code = lagrtori.cli.main(argv, out=out, err=err)
        return code, out.getvalue()

    return Report(name, argv, run, check, items)


def _parse(code: int, text: str, items: int) -> tuple[Check, dict | None]:
    check = Check(items=items)
    if code != 0:
        check.fail(items, f"exit code {code}")
        return check, None
    try:
        return check, json.loads(text)
    except ValueError as exc:
        check.fail(items, f"output is not JSON: {exc}")
        return check, None


# ---------------------------------------------------------------------------
# chekanov-scan: scan, certify and the edge probe
# ---------------------------------------------------------------------------


def _row_converged(row: dict) -> bool:
    return row.get("status", "ok") == "ok"


def _scan_report(name: str, a_grid: list[float], delta_step: float, quad_nodes: int,
                 cert_samples: int, require_defect: bool, require_certs: bool) -> Report:
    """chekanov-scan over a uniform a-grid (given by its first and last point)."""
    n_delta = round(2.0 / delta_step) - 1
    deltas = [-1.0 + (k + 1) * delta_step for k in range(n_delta)]
    points = [(a, d) for a in a_grid for d in deltas]
    a_step = (a_grid[-1] - a_grid[0]) / (len(a_grid) - 1) if len(a_grid) > 1 else 0.1
    argv = ["chekanov-scan", "--mu", "1,0", "--a-min", repr(a_grid[0]),
            "--a-max", repr(a_grid[-1]), "--a-step", repr(a_step),
            "--delta-step", repr(delta_step)]
    if quad_nodes:
        argv += ["--quad-nodes", str(quad_nodes)]
    if cert_samples:
        argv += ["--cert-samples", str(cert_samples)]

    def check(code: int, text: str) -> Check:
        chk, doc = _parse(code, text, len(points))
        if doc is None:
            return chk
        rows = doc["results"]["scan"]["rows"]
        certs = doc["results"].get("certificate_rows", [])
        if len(rows) != len(points):
            chk.fail(0, f"{len(rows)} scan rows for {len(points)} grid points")
        for i, (a, delta) in enumerate(points):
            row = rows[i] if i < len(rows) else None
            if row is None or abs(row["a"] - a) > 1e-9 or abs(row["delta"] - delta) > 1e-9:
                chk.fail(1, f"grid point a={a!r} delta={delta!r}: no row")
                continue
            if not _row_converged(row):
                chk.fail(1, f"a={a!r} delta={delta!r}: row status {row.get('status')}")
                continue
            err = mod1_distance(row["p_orbit"], delta)
            chk.period_err = max(chk.period_err, err)
            if err > PERIOD_TOL:
                chk.fail(1, f"a={a!r} delta={delta!r}: orbit period off by {err:.2e}")
            elif require_defect and not row["defect"] > SCAN_MIN_DEFECT:
                chk.fail(1, f"a={a!r} delta={delta!r}: defect {row['defect']:.2e}")
            elif require_certs and not _cert_issued(certs, i, a, delta):
                chk.fail(1, f"a={a!r} delta={delta!r}: no displacement certificate")
        return chk

    return _cli_report(name, argv, len(points), check)


def _cert_issued(certs: list[dict], i: int, a: float, delta: float) -> bool:
    if i >= len(certs):
        return False
    c = certs[i]
    return (abs(c["a"] - a) <= 1e-9 and abs(c["delta"] - delta) <= 1e-9
            and not c.get("inconclusive", False) and c["separation"] > CERT_SEPARATION)


def jittered_a_grid(seed: int, a_min: float, a_max: float, count: int,
                    step: float) -> list[float]:
    """Uniform a-grid from a_min to a_max - s, same point count.

    Seed 0 gives s = 0.  Other seeds draw s in [0, step / 8), well under half
    a step, so the top point stays in the near-singular regime below a_max
    and every a stays inside [a_min, a_max].
    """
    s = 0.0 if seed == 0 else round(random.Random(seed).uniform(0.0, step / 8.0), 4)
    top = a_max - s
    return [round(a_min + k * (top - a_min) / (count - 1), 12) for k in range(count)]


def scan(seed: int) -> Workload:
    a_grid = jittered_a_grid(seed, 0.1, 0.9, 3, 0.4)
    return Workload(
        "scan",
        [_scan_report("chekanov-scan", a_grid, 0.1, 48, 8, True, True)],
        _small_scan(),
        # the README example's a = 0.9 column at CLI defaults (32 nodes)
        [_scan_report("edge-probe", [0.9], 0.1, 0, 0, False, False)],
    )


def certify(seed: int) -> Workload:
    a_grid = jittered_a_grid(seed, 0.5, 0.9, 2, 0.4)
    return Workload(
        "certify",
        [_scan_report("chekanov-scan", a_grid, 0.5, 48, 80, False, True)],
        _small_scan(),
    )


def _small_scan() -> list[Report]:
    return [_scan_report("chekanov-scan-small", [0.5], 0.5, 16, 8, False, True)]


# ---------------------------------------------------------------------------
# exact: bs-count, enc-report, plot
# ---------------------------------------------------------------------------


def _bs_count_report(level: int) -> Report:
    expected = {(Fraction(i, level), Fraction(j, level))
                for i in range(1, level) for j in range(1, level - i)}

    def check(code: int, text: str) -> Check:
        chk, doc = _parse(code, text, len(expected))
        if doc is None:
            return chk
        res = doc["results"]
        found = {(Fraction(*r0), Fraction(*r1)) for r0, r1 in res["fibers"]}
        missing = len(expected - found) + len(found - expected)
        if missing:
            chk.fail(min(missing, chk.items), f"{missing} lattice points missing or extra")
        if res["count"] != len(expected) or res["hilbert_dimension"] != len(expected):
            chk.fail(0, f"count {res['count']} / dimension {res['hilbert_dimension']}"
                        f" != {len(expected)}")
        return chk

    return _cli_report("bs-count", ["bs-count", "--level", str(level)], len(expected), check)


def _enc_report(grid: int) -> Report:
    den = grid + 2
    points = [(Fraction(i, den), Fraction(j, den))
              for i in range(1, grid + 1) for j in range(1, grid + 2 - i)]
    centroid = (Fraction(1, 3), Fraction(1, 3))

    def check(code: int, text: str) -> Check:
        chk, doc = _parse(code, text, len(points))
        if doc is None:
            return chk
        res = doc["results"]
        verdicts = {(Fraction(*r["base"][0]), Fraction(*r["base"][1])): r["verdict"]
                    for r in res["rows"]}
        wrong = 0
        for p in points:
            want = "monotone" if p == centroid else "displaceable"
            if verdicts.get(p) != want:
                wrong += 1
        if wrong:
            chk.fail(wrong, f"{wrong} grid points missing or with the wrong verdict")
        want_monotone = 1 if centroid in points else 0
        if res["monotone_count"] != want_monotone:
            chk.fail(0, f"monotone_count {res['monotone_count']} != {want_monotone}")
        return chk

    return _cli_report("enc-report", ["enc-report", "--grid", str(grid)], len(points), check)


def _plot_report(level: int) -> Report:
    interior = (level - 1) * (level - 2) // 2
    boundary = 3 * level

    def check(code: int, text: str) -> Check:
        chk = Check(items=interior + boundary)
        if code != 0:
            chk.fail(chk.items, f"exit code {code}")
            return chk
        got_in = text.count('class="open-fiber"')
        got_bd = text.count('class="closed-fiber"')
        off = abs(got_in - interior) + abs(got_bd - boundary)
        if off:
            chk.fail(min(off, chk.items), f"{got_in} interior / {got_bd} boundary dots,"
                                          f" want {interior} / {boundary}")
        if text.count('class="monotone-point"') != 1:
            chk.fail(0, "monotone point not marked exactly once")
        return chk

    return _cli_report("plot", ["plot", "--level", str(level)], interior + boundary, check)


def exact(seed: int) -> Workload:
    # No quadrature, so the seed changes nothing here: every input is exact.
    # grid 160 has denominator 162, so the centroid is a grid point.
    return Workload(
        "exact",
        [_bs_count_report(240), _enc_report(160), _plot_report(60)],
        [_bs_count_report(12), _enc_report(10), _plot_report(6)],
    )


# ---------------------------------------------------------------------------
# toric: Clifford fibers, deformations, the diagonal rotation
# ---------------------------------------------------------------------------

# Maslov indices of the standard discs D1, D2, D3 (halved convention).
STANDARD_MASLOV = [1, 1, 2]


def _library_report(name: str, argv: list[str], items: int, compute, check) -> Report:
    def run():
        return 0, json.dumps(compute(), sort_keys=True) + "\n"

    return Report(name, argv, run, lambda code, text: check(json.loads(text)), items, False)


def _guarded(fn):
    """Library call result, or the name of the lagrtori error it raised."""
    try:
        return fn()
    except lagrtori.errors.LagrtoriError as exc:
        return {"error": type(exc).__name__}


def _fibers_report(level: int) -> Report:
    bases = [(Fraction(i, level), Fraction(j, level))
             for i in range(1, level) for j in range(1, level - i)]
    clifford = lagrtori.clifford

    def one(base):
        fiber = clifford.clifford_fiber(base)
        p = clifford.fiber_periods(base)
        d = clifford.diagonal_period(base)
        mus = [lagrtori.maslov.maslov_index(clifford.standard_disc(fiber, c)).mu
               for c in (clifford.D1, clifford.D2, clifford.D3)]
        return {"periods": [p.p1, p.p2, d[0]], "maslov": mus}

    def compute():
        return [{"base": [[b.numerator, b.denominator] for b in base],
                 **_guarded(lambda: one(base))} for base in bases]

    def check(doc) -> Check:
        chk = Check(items=3 * len(bases))
        if len(doc) != len(bases):
            chk.fail(chk.items, f"{len(doc)} fibers for {len(bases)}")
            return chk
        for base, entry in zip(bases, doc):
            r0, r1 = base
            if "error" in entry:
                chk.fail(3, f"fiber {r0}, {r1}: {entry['error']}")
                continue
            for k, (got, want) in enumerate(zip(entry["periods"], (r0, r1, r0 + r1))):
                err = mod1_distance(got, want)
                chk.period_err = max(chk.period_err, err)
                if err > PERIOD_TOL or entry["maslov"][k] != STANDARD_MASLOV[k]:
                    chk.fail(1, f"fiber {r0}, {r1} disc D{k + 1}: period {got!r},"
                                f" index {entry['maslov'][k]}")
        return chk

    argv = [f"fiber_periods, diagonal_period, maslov_index(D1, D2, D3)"
            f" for the {len(bases)} interior fibers of level {level}"]
    return _library_report("fibers", argv, 3 * len(bases), compute, check)


def _exact_part(theta0, theta1):
    return 0.01 * np.sin(theta0) * np.cos(theta1)


def _deformed_report(bases: list[tuple[Fraction, Fraction]],
                     classes: list[tuple[float, float]]) -> Report:
    clifford = lagrtori.clifford

    def compute():
        out = []
        for base, (c1, c2) in zip(bases, classes):
            spec = clifford.DeformationSpec(c1, c2, f=_exact_part)
            fiber = clifford.clifford_fiber(base)
            res = _guarded(lambda: {"periods": list(
                clifford.deformed_fiber_periods(fiber, spec)[:2])})
            out.append({"class": [c1, c2], **res})
        return out

    def check(doc) -> Check:
        chk = Check(items=2 * len(bases))
        for (r0, r1), (c1, c2), entry in zip(bases, classes, doc):
            if "error" in entry:
                chk.fail(2, f"deformed fiber {r0}, {r1}: {entry['error']}")
                continue
            for got, want in zip(entry["periods"], (float(r0) + c1, float(r1) + c2)):
                err = mod1_distance(got, want)
                chk.period_err = max(chk.period_err, err)
                if err > PERIOD_TOL:
                    chk.fail(1, f"deformed fiber {r0}, {r1}: period {got!r}, want {want!r}")
        return chk

    argv = [f"deformed_fiber_periods at {[(str(a), str(b)) for a, b in bases]}"
            f" with classes {classes} and exact part 0.01 sin(t0) cos(t1)"]
    return _library_report("deformed", argv, 2 * len(bases), compute, check)


def _rotation_report(alphas: list[float]) -> Report:
    def compute():
        return _guarded(
            lambda: lagrtori.displacement.build_diagonal_rotation(alphas).to_json())

    def check(doc) -> Check:
        chk = Check(items=len(alphas))
        if "error" in doc:
            chk.fail(chk.items, f"build_diagonal_rotation: {doc['error']}")
            return chk
        if len(doc["critical_points"]) != 3:
            chk.fail(chk.items, f"{len(doc['critical_points'])} critical points")
            return chk
        for alpha, rep in zip(alphas, doc["alphas"]):
            if (abs(rep["reduced_area"] - alpha) > PERIOD_TOL
                    or abs(rep["normalization"] - alpha * alpha) > PERIOD_TOL):
                chk.fail(1, f"alpha {alpha}: area {rep['reduced_area']!r}")
        return chk

    return _library_report("rotation", [f"build_diagonal_rotation({alphas})"],
                           len(alphas), compute, check)


def toric(seed: int) -> Workload:
    rng = random.Random(seed)
    bases = [(Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 5), Fraction(2, 5)),
             (Fraction(2, 5), Fraction(1, 5))]
    classes = [(round(rng.uniform(-0.05, 0.05), 3), round(rng.uniform(-0.05, 0.05), 3))
               for _ in bases]
    return Workload(
        "toric",
        [_fibers_report(15), _deformed_report(bases, classes),
         _rotation_report([0.25, 0.5, 0.75])],
        [_fibers_report(5), _deformed_report(bases[:1], classes[:1]),
         _rotation_report([0.5])],
    )


WORKLOADS = {"scan": scan, "certify": certify, "exact": exact, "toric": toric}
