"""Command-line reports for the torus-fibration computations.

Subcommands
-----------
bs-count       integral-level fiber enumeration and the dimension comparison
enc-report     displaceable-or-monotone dichotomy over an interior grid
chekanov-scan  tripled-period integrality scan of the conic-pencil family
plot           SVG of the moment triangle and fiber lattices

All reports are wrapped in a versioned JSON envelope with the parameters and
the diagnostics (tolerances, quadrature settings) actually used; identical
inputs produce byte-identical output.  Exit codes: 0 success,
2 usage, 3 dichotomy contradiction, 4 scan failure, 5 IO error.

``bs-count`` and ``enc-report`` work on the lattice indices (i, j) of their
points, with one Fraction per index.  ``enc-report`` decides every point
with :func:`~lagrtori.lattice.dichotomy` first and takes its counts from
those outcomes; ``bs-count`` takes ``count`` from the enumeration and
compares it with the closed-form dimension.  Each report is then written
row by row through :class:`~lagrtori.serialize.Template`: the envelope
and one row of each shape are rendered once, each distinct [n, d] pair
once per index, and the rows go to ``out`` in bounded pieces, as does
the ``bs-count`` CSV.  No per-row dict, and no string of the whole
report, is built.

``bs-count``, ``enc-report`` and ``plot`` use only the exact layer
(:mod:`lagrtori.lattice`, :mod:`lagrtori.serialize`, :mod:`lagrtori.svgplot`)
and run without importing numpy; ``chekanov-scan`` imports the numeric
modules when it runs.
"""

from __future__ import annotations

import argparse
import sys
from itertools import chain

from . import __version__
from .errors import InternalContradiction, LagrtoriError
from .lattice import (
    ActionCoords,
    MonotoneWitness,
    dichotomy,
    lattice_indices,
    lattice_values,
    section_dimension,
)
from .serialize import Gap, Template, rational_pair, stable_dump, write_pieces
from .svgplot import render_triangle_plot

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONTRADICTION = 3
EXIT_SCAN = 4
EXIT_IO = 5


def _body(command: str, params: dict, results: dict, diagnostics: dict) -> dict:
    return {
        "command": command,
        "version": __version__,
        "params": params,
        "results": results,
        "diagnostics": diagnostics,
    }


def _envelope(out, command: str, params: dict, results: dict, diagnostics: dict) -> None:
    stable_dump(_body(command, params, results, diagnostics), out.write)
    out.write("\n")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_bs_count(args, out) -> int:
    points = lattice_indices(args.level, args.closed)
    vals = lattice_values(args.level)
    if args.format == "csv":
        pair = [f"{v.numerator},{v.denominator}" for v in vals]
        write_pieces(chain(["r0_num,r0_den,r1_num,r1_den\n"],
                           (f"{pair[i]},{pair[j]}\n" for i, j in points)), out.write)
        return EXIT_OK
    dimension = section_dimension(args.level, args.closed)
    report = Template(_body(
        "bs-count",
        {"level": args.level, "closed": args.closed, "format": args.format},
        {"count": len(points), "fibers": Gap("fibers"), "hilbert_dimension": dimension,
         "match": len(points) == dimension},
        {"tolerances": {"arithmetic": "exact rational"}},
    ))
    fiber = report.item([Gap("r0"), Gap("r1")])
    pair = [fiber.text(rational_pair(v), "r0") for v in vals]
    report.dump((fiber.fill(r0=pair[i], r1=pair[j]) for i, j in points), out.write)
    out.write("\n")
    return EXIT_OK


def _cmd_enc_report(args, out) -> int:
    den = args.grid + 2
    points = lattice_indices(den)
    vals = lattice_values(den)
    outcomes = [dichotomy(ActionCoords(vals[i], vals[j])) for i, j in points]
    monotone_points = [[rational_pair(vals[i]), rational_pair(vals[j])]
                       for (i, j), o in zip(points, outcomes)
                       if isinstance(o, MonotoneWitness)]
    report = Template(_body(
        "enc-report",
        {"grid": args.grid},
        {"grid": args.grid, "denominator": den, "points": len(outcomes),
         "monotone_points": monotone_points, "monotone_count": len(monotone_points),
         "displaceable_count": len(outcomes) - len(monotone_points), "rows": Gap("rows")},
        {"tolerances": {"arithmetic": "exact rational", "bs_tol": 1e-9}},
    ))
    base = [Gap("r0"), Gap("r1")]
    displaced = report.item({"base": base, "separation": Gap("separation"),
                             "swap": Gap("swap"), "verdict": "displaceable"})
    monotone = report.item({"base": base, "bs_defect": Gap("bs_defect"),
                            "universal_class": Gap("universal_class"),
                            "verdict": "monotone"})
    pair = [displaced.text(rational_pair(v), "r0") for v in vals]
    swaps = {jk: displaced.text(list(jk), "swap") for jk in ((0, 1), (1, 2))}
    rows = (
        monotone.fill(
            r0=pair[i], r1=pair[j], bs_defect=monotone.text(o.bs_defect, "bs_defect"),
            universal_class=monotone.text(list(o.universal_class), "universal_class"))
        if isinstance(o, MonotoneWitness) else
        displaced.fill(
            r0=pair[i], r1=pair[j], separation=displaced.text(o.separation, "separation"),
            swap=swaps[o.swap])
        for (i, j), o in zip(points, outcomes)
    )
    report.dump(rows, out.write)
    out.write("\n")
    return EXIT_OK


def _float_range(lo: float, hi: float, step: float) -> list[float]:
    vals = []
    k = 0
    while True:
        v = round(lo + k * step, 12)
        if v > hi + 1e-12:
            break
        vals.append(v)
        k += 1
    return vals


def _cmd_chekanov_scan(args, out, err) -> int:
    from .chekanov import REPORT_DECIMALS, ChekanovParams, canonical_bs_scan
    from .displacement import (CERTIFICATE_THRESHOLD, DisplacementCertificate,
                               displace_chekanov)
    from .geometry import LOOP_AGREEMENT, LOOP_FALLBACK, LOOP_MAX_NODES

    mu = complex(args.mu[0], args.mu[1])
    a_grid = _float_range(args.a_min, args.a_max, args.a_step)
    delta_grid = _float_range(-1.0 + args.delta_step, 1.0 - args.delta_step,
                              args.delta_step)
    report = canonical_bs_scan(mu, a_grid, delta_grid, args.quad_nodes)

    issued = inconclusive = 0
    cert_rows = []
    for a in a_grid:
        for delta in delta_grid:
            res = displace_chekanov(
                ChekanovParams(a, mu, delta), samples=args.cert_samples)
            row = {"a": a, "delta": delta,
                   "separation": round(res.separation, REPORT_DECIMALS)}
            if isinstance(res, DisplacementCertificate):
                issued += 1
            else:
                inconclusive += 1
                row["inconclusive"] = True
            cert_rows.append(row)

    csv_text = report.to_csv()
    if args.csv_out:
        try:
            with open(args.csv_out, "w") as fh:
                fh.write(csv_text)
        except OSError as exc:
            print(f"error: cannot write CSV: {exc}", file=err)
            return EXIT_IO
    if args.format == "csv":
        out.write(csv_text)
        return EXIT_OK
    results = {
        "summary": {
            "min_defect": report.min_defect,
            "argmin": list(report.argmin),
            "certificates": {
                "issued": issued,
                "inconclusive": inconclusive,
                "total": issued + inconclusive,
            },
        },
        "scan": report.to_json(),
        "certificate_rows": cert_rows,
    }
    _envelope(
        out, "chekanov-scan",
        {
            "mu": [mu.real, mu.imag],
            "a_min": args.a_min, "a_max": args.a_max, "a_step": args.a_step,
            "delta_step": args.delta_step, "cert_samples": args.cert_samples,
            "format": args.format,
        },
        results,
        {"quadrature": {"method": "boundary-trapezoid",
                        "nodes_per_axis": args.quad_nodes,
                        "max_nodes": LOOP_MAX_NODES,
                        "agreement": LOOP_AGREEMENT,
                        "max_disagreement": LOOP_FALLBACK},
         "tolerances": {"certificate_threshold": CERTIFICATE_THRESHOLD,
                        "report_decimals": REPORT_DECIMALS}},
    )
    return EXIT_OK


def _cmd_plot(args, out, err) -> int:
    svg = render_triangle_plot(args.level)
    if args.out is None:
        out.write(svg)
        return EXIT_OK
    try:
        with open(args.out, "w") as fh:
            fh.write(svg)
    except OSError as exc:
        print(f"error: cannot write SVG: {exc}", file=err)
        return EXIT_IO
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _complex_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected RE,IM")
    return (float(parts[0]), float(parts[1]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagrtori",
        description="reports on lagrangian torus fibrations of the projective plane",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bs = sub.add_parser("bs-count", help="integral-level fiber counts")
    p_bs.add_argument("--level", type=_positive_int, required=True)
    p_bs.add_argument("--closed", action="store_true",
                      help="count the closed-triangle lattice instead of the interior")
    p_bs.add_argument("--format", choices=("json", "csv"), default="json")

    p_enc = sub.add_parser("enc-report", help="displaceable-or-monotone dichotomy")
    p_enc.add_argument("--grid", type=int, required=True,
                       help="interior grid size N (N >= 3)")

    p_scan = sub.add_parser("chekanov-scan",
                            help="integrality scan of the conic-pencil family")
    p_scan.add_argument("--mu", type=_complex_pair, required=True,
                        metavar="RE,IM")
    p_scan.add_argument("--a-min", type=float, required=True)
    p_scan.add_argument("--a-max", type=float, required=True)
    p_scan.add_argument("--a-step", type=float, required=True)
    p_scan.add_argument("--delta-step", type=float, required=True)
    p_scan.add_argument("--quad-nodes", type=int, default=32)
    p_scan.add_argument("--cert-samples", type=int, default=48,
                        help="per-axis sample count for displacement certificates")
    p_scan.add_argument("--csv-out", default=None)
    p_scan.add_argument("--format", choices=("json", "csv"), default="json")

    p_plot = sub.add_parser("plot", help="SVG of the triangle and fiber lattices")
    p_plot.add_argument("--level", type=_positive_int, required=True)
    p_plot.add_argument("--out", default=None, help="output path (default stdout)")

    return parser


def main(argv=None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "enc-report" and args.grid < 3:
        parser.error("--grid must be at least 3")
    if args.command == "chekanov-scan":
        mu_abs = abs(complex(args.mu[0], args.mu[1]))
        if not 0 < args.a_min <= args.a_max:
            parser.error("need 0 < --a-min <= --a-max")
        if args.a_max >= mu_abs:
            parser.error(f"--a-max must stay below |mu| = {mu_abs!r} "
                         "(the a < |mu| regime)")
        if not args.a_step > 0:
            parser.error("--a-step must be positive")
        if not 0 < args.delta_step < 1:
            parser.error("--delta-step must lie in (0, 1)")
        if args.quad_nodes < 4:
            parser.error("--quad-nodes must be at least 4")
        if args.cert_samples < 1:
            parser.error("--cert-samples must be positive")

    try:
        if args.command == "bs-count":
            return _cmd_bs_count(args, out)
        if args.command == "enc-report":
            return _cmd_enc_report(args, out)
        if args.command == "chekanov-scan":
            return _cmd_chekanov_scan(args, out, err)
        if args.command == "plot":
            return _cmd_plot(args, out, err)
    except InternalContradiction as exc:
        print(f"error: dichotomy contradiction: {exc}", file=err)
        return EXIT_CONTRADICTION
    except LagrtoriError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=err)
        return EXIT_SCAN
    parser.error(f"unknown command {args.command!r}")
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
