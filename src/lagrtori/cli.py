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
2 usage, 3 dichotomy contradiction, 4 scan failure, 5 IO error (writing
an output file or the report to ``out``, a closed pipe included).
``chekanov-scan`` renders the report of
:func:`~lagrtori.chekanov.canonical_bs_scan`, which computes a period row
and a certificate row per grid point and the whole ``results`` object; the
command adds the envelope, the CSV and the exit code.  A grid point whose
periods or certificate fail becomes a row with a failure ``status`` and its
``error`` text; the scan still writes its report and exits 4 exactly when
no scan row is ok, with the first failure's text on one stderr line.  (A
certificate fails only where the scan row of the same point has failed
with the same text.)

``bs-count`` and ``enc-report`` work on the lattice indices (i, j) of their
points by rows of equal i (:func:`~lagrtori.lattice.lattice_rows`), with
one Fraction per index.  ``enc-report`` keys each point by its
:func:`~lagrtori.lattice.verdict_class`, decides the first point of each
class with :func:`~lagrtori.lattice.dichotomy` and takes its counts from
those outcomes; ``bs-count`` takes ``count`` from the enumeration and
compares it with the closed-form dimension.  Each report is then written
from :func:`~lagrtori.serialize.pieces`: the envelope and one row of each
shape are rendered once, cut at their gaps, each [n, d] pair once per
index and each class's row tail (the pieces after the base pair, with the
class's value texts between them) once, so a row is the concatenation of
pre-rendered texts.  The rows go to ``out`` in blocks, one list per i
joined at once, one one-line row per line (the same parsed JSON as the
indented text), as does the ``bs-count`` CSV.  No per-row dict, and no
string of the whole report, is built.  The parser is built by the first
:func:`main` call of a process and reused.

``bs-count``, ``enc-report`` and ``plot`` use only the exact layer
(:mod:`lagrtori.lattice`, :mod:`lagrtori.serialize`, :mod:`lagrtori.svgplot`)
and run without importing numpy; ``chekanov-scan`` imports
:mod:`lagrtori.chekanov` and :mod:`lagrtori.geometry`, with numpy, when it
runs, and no other numeric module.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import chain

from . import __version__
from .errors import InternalContradiction, LagrtoriError
from .lattice import (
    ActionCoords,
    MonotoneWitness,
    dichotomy,
    lattice_rows,
    lattice_values,
    section_dimension,
    verdict_class,
)
from .serialize import (GAP, dump_rows, pieces, rational_pair, row_text, stable_dump,
                        write_pieces)
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
    rows = lattice_rows(args.level, args.closed)
    vals = lattice_values(args.level)
    if args.format == "csv":
        pair = [f"{v.numerator},{v.denominator}" for v in vals]
        lead = [p + "," for p in pair]
        blocks = ("".join([lead[i] + pair[j] + "\n" for j in js]) for i, js in rows)
        write_pieces(chain(["r0_num,r0_den,r1_num,r1_den\n"], blocks), out.write)
        return EXIT_OK
    count = sum(len(js) for _, js in rows)
    dimension = section_dimension(args.level, args.closed)
    envelope = pieces(_body(
        "bs-count",
        {"level": args.level, "closed": args.closed, "format": args.format},
        {"count": count, "fibers": GAP, "hilbert_dimension": dimension,
         "match": count == dimension},
        {"tolerances": {"arithmetic": "exact rational"}},
    ))
    head, mid, tail = pieces([GAP, GAP], None)
    pair = [row_text(rational_pair(v)) for v in vals]
    lead = [head + p + mid for p in pair]
    blocks = ([lead[i] + pair[j] + tail for j in js] for i, js in rows)
    dump_rows(envelope, blocks, out.write)
    out.write("\n")
    return EXIT_OK


def _cmd_enc_report(args, out) -> int:
    den = args.grid + 2
    rows = lattice_rows(den)
    vals = lattice_values(den)
    keys = [[verdict_class(den, i, j) for j in js] for i, js in rows]
    outcomes = {}
    for (i, js), ks in zip(rows, keys):
        for j, k in zip(js, ks):
            if k not in outcomes:  # the first grid point of its class
                outcomes[k] = dichotomy(ActionCoords(vals[i], vals[j]))
    monotone_keys = {k for k, o in outcomes.items() if isinstance(o, MonotoneWitness)}
    monotone_points = [[rational_pair(vals[i]), rational_pair(vals[j])]
                       for (i, js), ks in zip(rows, keys)
                       for j, k in zip(js, ks) if k in monotone_keys]
    points = sum(map(len, keys))
    envelope = pieces(_body(
        "enc-report",
        {"grid": args.grid},
        {"grid": args.grid, "denominator": den, "points": points,
         "monotone_points": monotone_points, "monotone_count": len(monotone_points),
         "displaceable_count": points - len(monotone_points), "rows": GAP},
        {"tolerances": {"arithmetic": "exact rational"}},
    ))
    # "base" sorts first in both row shapes, so a row is its base pair and
    # then its class's tail: the later pieces, with the values between them
    head, mid, *displaced = pieces({"base": [GAP, GAP], "separation": GAP, "swap": GAP,
                                    "verdict": "displaceable"}, None)
    monotone = pieces({"base": [GAP, GAP], "bs_defect": GAP, "universal_class": GAP,
                       "verdict": "monotone"}, None)[2:]
    swaps = {jk: row_text(list(jk)) for jk in ((0, 1), (1, 2))}
    tails = {
        k: monotone[0] + row_text(o.bs_defect) + monotone[1]
        + row_text(list(o.universal_class)) + monotone[2]
        if k in monotone_keys else
        displaced[0] + row_text(o.separation) + displaced[1] + swaps[o.swap]
        + displaced[2]
        for k, o in outcomes.items()
    }
    pair = [row_text(rational_pair(v)) for v in vals]
    lead = [head + p + mid for p in pair]
    dump_rows(envelope, ([lead[i] + pair[j] + tails[k] for j, k in zip(js, ks)]
                         for (i, js), ks in zip(rows, keys)), out.write)
    out.write("\n")
    return EXIT_OK


def _float_range(lo: float, hi: float, step: float, flag: str) -> list[float]:
    """The points lo + k step up to hi (within 1e-12), rounded to 12 decimals.

    The grid is built from its point count, so it always ends; lo == hi
    gives that one point, whatever the step.  ValueError, naming ``flag``,
    if the step is too small for the rounded points to advance.
    """
    count = 0.0 if hi == lo else (hi - lo + 1e-12) / step
    if not count < 2.0 ** 53:  # past 2**53 points, k * step itself repeats
        raise ValueError(f"{flag} {step!r} is too small: grid points repeat")
    vals = []
    for k in range(math.floor(count) + 1):
        v = round(lo + k * step, 12)
        if vals and v <= vals[-1]:
            raise ValueError(f"{flag} {step!r} is too small: grid points repeat at {v!r}")
        vals.append(v)
    return vals


def _write_file(path: str, text: str, what: str, err) -> int:
    """Write ``text`` to ``path``: EXIT_OK, or EXIT_IO after one stderr line."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {what}: {exc}", file=err)
        return EXIT_IO
    return EXIT_OK


def _cmd_chekanov_scan(args, out, err) -> int:
    from .chekanov import CERTIFICATE_METHOD, REPORT_DECIMALS, canonical_bs_scan
    from .geometry import LOOP_AGREEMENT, LOOP_FALLBACK, LOOP_MAX_NODES

    mu = complex(args.mu[0], args.mu[1])
    report = canonical_bs_scan(mu, args.a_grid, args.delta_grid, args.quad_nodes)

    csv_text = report.to_csv() if args.csv_out or args.format == "csv" else None
    if args.csv_out and _write_file(args.csv_out, csv_text, "CSV", err) != EXIT_OK:
        return EXIT_IO
    if args.format == "csv":
        out.write(csv_text)
    else:
        _envelope(
            out, "chekanov-scan",
            {
                "mu": [mu.real, mu.imag],
                "a_min": args.a_min, "a_max": args.a_max, "a_step": args.a_step,
                "delta_step": args.delta_step, "format": args.format,
            },
            report.to_json(),
            {"certificate_method": CERTIFICATE_METHOD,
             "quadrature": {"method": "mobius-trapezoid",
                            "start_nodes": args.quad_nodes,
                            "max_nodes": LOOP_MAX_NODES,
                            "agreement": LOOP_AGREEMENT,
                            "max_disagreement": LOOP_FALLBACK},
             "tolerances": {"report_decimals": REPORT_DECIMALS}},
        )
    # the scan fails only when no grid row is ok, and then min_defect is None
    if report.min_defect is not None:
        return EXIT_OK
    print(f"error: {report.rows[0].error}", file=err)
    return EXIT_SCAN


def _cmd_plot(args, out, err) -> int:
    svg = render_triangle_plot(args.level)
    if args.out is None:
        out.write(svg)
        return EXIT_OK
    return _write_file(args.out, svg, "SVG", err)


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
    pair = (float(parts[0]), float(parts[1]))
    if not all(math.isfinite(x) for x in pair):
        raise argparse.ArgumentTypeError("RE and IM must be finite")
    return pair


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
    # parsed and ignored: the certificate is exact, but the benchmark still passes it
    p_scan.add_argument("--cert-samples", type=int, help=argparse.SUPPRESS)
    p_scan.add_argument("--csv-out", default=None)
    p_scan.add_argument("--format", choices=("json", "csv"), default="json")

    p_plot = sub.add_parser("plot", help="SVG of the triangle and fiber lattices")
    p_plot.add_argument("--level", type=_positive_int, required=True)
    p_plot.add_argument("--out", default=None, help="output path (default stdout)")

    return parser


_parser = None  # built by the first main call


def main(argv=None, out=None, err=None) -> int:
    global _parser
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    if _parser is None:
        _parser = build_parser()
    parser = _parser
    args = parser.parse_args(argv)

    if args.command == "enc-report" and args.grid < 3:
        parser.error("--grid must be at least 3")
    if args.command == "chekanov-scan":
        from .geometry import LOOP_MAX_NODES

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
        if not 4 <= args.quad_nodes <= LOOP_MAX_NODES // 2:
            parser.error(f"--quad-nodes must lie in [4, {LOOP_MAX_NODES // 2}]")
        try:
            args.a_grid = _float_range(args.a_min, args.a_max, args.a_step, "--a-step")
            args.delta_grid = _float_range(-1.0 + args.delta_step, 1.0 - args.delta_step,
                                           args.delta_step, "--delta-step")
        except ValueError as exc:
            parser.error(str(exc))

    try:
        if args.command == "bs-count":
            code = _cmd_bs_count(args, out)
        elif args.command == "enc-report":
            code = _cmd_enc_report(args, out)
        elif args.command == "chekanov-scan":
            code = _cmd_chekanov_scan(args, out, err)
        elif args.command == "plot":
            code = _cmd_plot(args, out, err)
        else:
            parser.error(f"unknown command {args.command!r}")
            return EXIT_USAGE
        if out is sys.stdout:
            out.flush()  # so a buffered write fails here, not at interpreter exit
        return code
    except InternalContradiction as exc:
        print(f"error: dichotomy contradiction: {exc}", file=err)
        return EXIT_CONTRADICTION
    except LagrtoriError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=err)
        return EXIT_SCAN
    except OSError as exc:  # writing the report to out; the output files catch their own
        if out is sys.stdout:
            # the interpreter flushes stdout at exit: send what is left to
            # devnull, or that flush raises again (the SIGPIPE note in the
            # Python documentation)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write report: {exc}", file=err)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
