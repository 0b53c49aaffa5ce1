"""Spans around the public functions of each lagrtori module.

The tracer wraps functions from the outside: every binding of a wrapped
function in a ``lagrtori`` module namespace is replaced by a wrapper that
records a span (name, start, end, parent, root report) and, where the layer
has one, a work count taken from the call's arguments or result.  Wrappers
return exactly what the wrapped function returns, so traced reports print the
same bytes as untraced ones; :func:`uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time

import numpy as np

_MARK = "__bench_span__"


def _broadcast_points(args, kwargs, out):
    return {"points": int(np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size)}


def _lift_points(args, kwargs, out):
    return {"points": int(np.size(out) // 3)}


def _scan_rows(args, kwargs, out):
    return {"rows": len(out.rows)}


def _certificate(args, kwargs, out):
    return {"samples": int(out.samples),
            "inconclusive": int(type(out).__name__ == "Inconclusive")}


def _fibers(args, kwargs, out):
    return {"fibers": int(out.count)}


def _dumped_bytes(args, kwargs, out):
    return {"bytes": len(out.encode())}


# (module, attribute, span name, counter).  An attribute "Class.method" wraps
# the method on the class.  Layers are the package modules; the span name is
# "<module>.<role>".
LAYERS = (
    ("lagrtori.geometry", "surface_symplectic_area", "geometry.area", None),
    ("lagrtori.geometry", "surface_form_grid", "geometry.form", _broadcast_points),
    ("lagrtori.geometry", "surface_lift_partial", "geometry.stencil", _broadcast_points),
    ("lagrtori.geometry", "ParamSurface._eval", "geometry.lift", _lift_points),
    ("lagrtori.clifford", "enumerate_bs_fibers", "clifford.enumerate", _fibers),
    ("lagrtori.clifford", "interior_rational_grid", "clifford.grid", None),
    ("lagrtori.clifford", "fiber_periods", "clifford.periods", None),
    ("lagrtori.clifford", "diagonal_period", "clifford.periods", None),
    ("lagrtori.clifford", "deformed_fiber_periods", "clifford.periods", None),
    ("lagrtori.maslov", "maslov_index", "maslov.index", None),
    ("lagrtori.maslov", "is_monotone", "maslov.monotone", None),
    ("lagrtori.chekanov", "canonical_bs_scan", "chekanov.scan", _scan_rows),
    ("lagrtori.chekanov", "torus_periods_chekanov", "chekanov.period", None),
    ("lagrtori.chekanov", "cone_disc", "chekanov.coning", None),
    ("lagrtori.chekanov", "conic_circle", "chekanov.circle", None),
    ("lagrtori.displacement", "displace_chekanov", "displacement.certificate", _certificate),
    ("lagrtori.displacement", "enc_verdict", "displacement.verdict", None),
    ("lagrtori.serialize", "stable_dumps", "serialize.dumps", _dumped_bytes),
    ("lagrtori.svgplot", "render_triangle_plot", "svgplot.render", None),
    ("lagrtori.cli", "main", "cli", None),
)


class Tracer:
    """In-memory span store.  Span fields: name, start, end, parent, root,
    counts, error (exception class name or None)."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        idx = len(self.spans)
        root = idx if parent is None else self.spans[parent][4]
        self.spans.append([name, time.perf_counter(), None, parent, root, None, None])
        stack.append(idx)
        return idx

    def end(self, idx: int, counts: dict | None = None, error: str | None = None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = counts
        span[6] = error
        self._stack().pop()


def _wrap(tracer: Tracer, name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.start(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.end(idx, error=type(exc).__name__)
            raise
        tracer.end(idx, counter(args, kwargs, out) if counter else None)
        return out

    setattr(wrapper, _MARK, name)
    return wrapper


def _lagrtori_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "lagrtori" or n.startswith("lagrtori."))]


class Installed:
    """Record of the bindings one :func:`install` replaced."""

    def __init__(self):
        self.patched: list[tuple[object, str, object]] = []  # owner, attr, original
        self.absent: list[str] = []  # "module.attr" not found in this version


def install(tracer: Tracer) -> Installed:
    """Wrap every function in LAYERS wherever a lagrtori module binds it."""
    done = Installed()
    modules = _lagrtori_modules()
    for mod_name, attr, span, counter in LAYERS:
        owner = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            original = None if cls is None else cls.__dict__.get(meth)
            if original is None:
                done.absent.append(f"{mod_name}.{attr}")
                continue
            setattr(cls, meth, _wrap(tracer, span, original, counter))
            done.patched.append((cls, meth, original))
            continue
        original = getattr(owner, attr, None)
        if original is None:
            done.absent.append(f"{mod_name}.{attr}")
            continue
        wrapper = _wrap(tracer, span, original, counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    done.patched.append((mod, key, original))
    return done


def uninstall(done: Installed) -> None:
    for owner, attr, original in reversed(done.patched):
        setattr(owner, attr, original)


def leftover_wrappers() -> list[str]:
    """Names of span wrappers still bound anywhere in lagrtori."""
    left = []
    for mod in _lagrtori_modules():
        for key, value in vars(mod).items():
            if hasattr(value, _MARK) and not isinstance(value, type):
                left.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                left.extend(f"{mod.__name__}.{key}.{k}"
                            for k, v in vars(value).items() if hasattr(v, _MARK))
    return left


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


class _Agg:
    __slots__ = ("calls", "incl", "self_s", "durs", "counts", "errors")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.durs: list[float] = []
        self.counts: dict[str, int] = {}
        self.errors: dict[str, int] = {}


def _child_time(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for _name, t0, t1, parent, *_ in spans:
        if parent is not None:
            child[parent] += t1 - t0
    return child


def aggregate(spans: list[list]) -> dict[str, _Agg]:
    """Per span name: calls, inclusive and self time, durations, counts.

    Self time is a span's duration minus the durations of its direct
    children, which nest inside it.
    """
    child = _child_time(spans)
    out: dict[str, _Agg] = {}
    for i, (name, t0, t1, _parent, _root, counts, error) in enumerate(spans):
        agg = out.setdefault(name, _Agg())
        agg.calls += 1
        agg.incl += t1 - t0
        agg.self_s += t1 - t0 - child[i]
        agg.durs.append(t1 - t0)
        for key, value in (counts or {}).items():
            agg.counts[key] = agg.counts.get(key, 0) + value
        if error is not None:
            agg.errors[error] = agg.errors.get(error, 0) + 1
    return out


def write_jsonl(spans: list[list], path, origin: float) -> None:
    """One JSON object per span, in start order; ``parent`` and ``report``
    are line indices and times are seconds since ``origin``."""
    child = _child_time(spans)
    with open(path, "w") as fh:
        for i, (name, t0, t1, parent, root, counts, error) in enumerate(spans):
            fh.write(json.dumps({
                "name": name, "start_s": t0 - origin, "end_s": t1 - origin,
                "parent": parent, "report": root, "self_s": t1 - t0 - child[i],
                "counts": counts, "error": error}) + "\n")


def tail_percentile(n: int) -> int:
    """Highest of 99, 95, 90, 75, 50 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p
    return 50


def percentile(values: list[float], p: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def pass_metrics(agg: dict[str, _Agg]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  The base of the two ``share``
    ratios is the summed duration of the pass's ``report`` spans."""
    get = lambda name: agg.get(name, _Agg())
    report_s = get("report").incl
    area, form, stencil, lift = (get(n) for n in (
        "geometry.area", "geometry.form", "geometry.stencil", "geometry.lift"))
    period, scan, coning = get("chekanov.period"), get("chekanov.scan"), get("chekanov.coning")
    cert, verdict = get("displacement.certificate"), get("displacement.verdict")
    return {
        "geometry.area.calls": area.calls,
        "geometry.area.self_s": area.self_s,
        "geometry.area.nonconvergent": area.errors.get("NonConvergent", 0),
        "geometry.form.points": form.counts.get("points", 0),
        "geometry.form.self_s": form.self_s,
        "geometry.stencil.points": stencil.counts.get("points", 0),
        "geometry.stencil.self_s": stencil.self_s,
        "geometry.lift.points": lift.counts.get("points", 0),
        "geometry.lift.self_s": lift.self_s,
        "chekanov.period.calls": period.calls,
        "chekanov.period.share": period.incl / report_s if report_s else 0.0,
        "chekanov.scan.s": scan.incl,
        "chekanov.scan.rows": scan.counts.get("rows", 0),
        "chekanov.scan.rows_per_s": scan.counts.get("rows", 0) / scan.incl if scan.incl else 0.0,
        "chekanov.coning.s": coning.incl,
        "chekanov.coning.retries": coning.errors.get("ConingDegenerate", 0),
        "chekanov.circle.s": get("chekanov.circle").incl,
        "displacement.certificate.calls": cert.calls,
        "displacement.certificate.share": cert.incl / report_s if report_s else 0.0,
        "displacement.certificate.samples": cert.counts.get("samples", 0),
        "displacement.certificate.inconclusive": cert.counts.get("inconclusive", 0),
        "displacement.verdict.calls": verdict.calls,
        "displacement.verdict.self_s": verdict.self_s,
        "maslov.monotone.calls": get("maslov.monotone").calls,
        "maslov.monotone.s": get("maslov.monotone").incl,
        "maslov.index.calls": get("maslov.index").calls,
        "maslov.index.s": get("maslov.index").incl,
        "clifford.enumerate.s": get("clifford.enumerate").incl,
        "clifford.enumerate.fibers": get("clifford.enumerate").counts.get("fibers", 0),
        "clifford.grid.s": get("clifford.grid").incl,
        "clifford.periods.calls": get("clifford.periods").calls,
        "serialize.dumps.s": get("serialize.dumps").incl,
        "serialize.dumps.bytes": get("serialize.dumps").counts.get("bytes", 0),
        "svgplot.render.s": get("svgplot.render").incl,
        "cli.self_s": get("cli").self_s,
    }


def latency_metrics(durs: dict[str, list[float]]) -> dict[str, float]:
    """Per-call latencies in ms from span durations pooled over passes."""
    period = durs.get("chekanov.period", [])
    cert = durs.get("displacement.certificate", [])
    periods = durs.get("clifford.periods", [])
    return {
        "chekanov.period.ms_p50": 1e3 * percentile(period, 50),
        "chekanov.period.ms_tail": 1e3 * percentile(period, tail_percentile(len(period))),
        "displacement.certificate.ms_p50": 1e3 * percentile(cert, 50),
        "clifford.periods.ms_p50": 1e3 * percentile(periods, 50),
    }
