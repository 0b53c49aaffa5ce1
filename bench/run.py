"""Benchmark of the lagrtori reports: one workload per invocation.

    python3 bench/run.py --workload scan --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``; nothing is installed.  Load is one process, closed loop, one
client: each report starts only after the previous one returns, and the
benchmark starts no threads of its own.

``--trace 0`` measures the end-to-end metrics with tracing off:

- ``setup_s``: median wall time of fresh interpreters that import
  ``lagrtori.cli`` and build its parser;
- ``wall_s``: median wall time of one pass of the workload's reports, over
  as many passes as fit in ``--seconds``;
- ``peak_rss_mb``: peak resident memory of this process, read before the
  outputs are checked;
- ``ok_ratio``: 1 - failed_ratio, the share of items (grid points, lattice
  points, disc periods) that pass their checks, edge probe included;
- ``period_err_max``: largest mod-1 distance between a reported period and
  its closed form, floored at 2**-53 (the resolution of a period in [0, 1)).

``--trace 1`` first checks that traced and untraced reports print identical
bytes on small inputs and that every wrapper is removed afterwards, then
alternates untraced and traced passes and reports the per-layer metrics of
``spans.pass_metrics`` (medians over traced passes).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when an output check fails
and 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / "bench" / "spans"  # written by --trace 1, ignored by git
SETUP_SAMPLES = 5
SETUP_CODE = ("import lagrtori.cli as cli; cli.build_parser(); "
              "print(cli.__file__)")
PERIOD_FLOOR = 2.0 ** -53
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "LAGRTORI_THREADS")

UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
         "period_err_max": "area"}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def measure_setup() -> float:
    """Wall time of a fresh interpreter importing the CLI and building its parser."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    elapsed = time.perf_counter() - t0
    if not Path(proc.stdout.strip()).resolve().is_relative_to(SRC):
        raise RuntimeError(f"setup imported lagrtori from {proc.stdout.strip()}")
    return elapsed


def import_breakdown() -> dict[str, float]:
    """Self import time per package, from ``python -X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", SETUP_CODE],
                          cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    totals = {"numpy": 0.0, "scipy": 0.0, "lagrtori": 0.0}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            self_us = int(parts[0].split(":")[1])
        except ValueError:  # the header line
            continue
        top = parts[2].strip().split(".")[0]
        if top in totals:
            totals[top] += self_us * 1e-6
    return {"setup.numpy_s": totals["numpy"], "setup.scipy_s": totals["scipy"],
            "setup.lagrtori_self_s": totals["lagrtori"]}


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, when it can be queried."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not the root of a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(args, wl) -> dict:
    import numpy
    import scipy

    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": git_commit(),
        "reports": {r.name: r.argv for r in wl.reports},
        "probe": {r.name: r.argv for r in wl.probe},
    }


def run_pass(reports) -> list[tuple[int, str]]:
    return [r.run() for r in reports]


def timed_passes(wl, seconds: float):
    """Passes until ``seconds`` have elapsed; returns wall times and the
    first pass's outputs, and counts passes whose output differs from it."""
    walls, first, differing = [], None, 0
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        outputs = run_pass(wl.reports)
        walls.append(time.perf_counter() - t0)
        if first is None:
            first = outputs
        elif outputs != first:
            differing += 1
    return walls, first, differing


def untraced_run(args, wl):
    from workloads import check_pass

    setups = [measure_setup() for _ in range(SETUP_SAMPLES + 1)][1:]  # first warms .pyc
    run_pass(wl.small)  # warm-up: lazy imports, BLAS start-up
    probe_out = run_pass(wl.probe)
    walls, outputs, differing = timed_passes(wl, args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    main = check_pass(wl.reports, outputs)
    probe = check_pass(wl.probe, probe_out)
    failed_ratio = (main.failed + probe.failed) / (main.items + probe.items)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_mb,
        "ok_ratio": 1.0 - failed_ratio,
        "period_err_max": max(main.period_err, probe.period_err, PERIOD_FLOOR),
    }
    notes = [f"passes {len(walls)}: " + " ".join(f"{w:.4f}" for w in walls),
             f"failed_ratio {failed_ratio:.6g} ({main.failed + probe.failed}"
             f" of {main.items + probe.items} items; edge probe {probe.failed}"
             f" of {probe.items})"]
    notes += [f"edge probe: {p}" for p in probe.problems]
    problems = main.problems + [f"{differing} passes differ from the first"] * bool(differing)
    return metrics, main, len(walls), notes, problems


def traced_run(args, wl):
    from workloads import check_pass

    breakdown = import_breakdown()
    problems: list[str] = []

    plain = run_pass(wl.small)
    installed = spans.install(spans.Tracer())
    try:
        traced = run_pass(wl.small)
    finally:
        spans.uninstall(installed)
    if traced != plain:
        problems.append("traced reports print different bytes than untraced ones")
    left = spans.leftover_wrappers()
    if left:
        problems.append(f"wrappers left after uninstall: {left}")

    traced_walls, traced_cpu, per_pass, durs = [], [], [], {}
    plain_walls, first, differing = [], None, 0
    deadline = time.perf_counter() + args.seconds
    while not traced_walls or time.perf_counter() < deadline:
        # ABBA order, so drift over the run does not bias the overhead
        plain_first = len(traced_walls) % 2 == 0
        if plain_first:
            plain_out = _plain_pass(wl, plain_walls)

        tracer = spans.Tracer()
        installed = spans.install(tracer)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            outputs = []
            for report in wl.reports:
                idx = tracer.start("report")
                outputs.append(report.run())
                tracer.end(idx)
        finally:
            spans.uninstall(installed)
        traced_walls.append(time.perf_counter() - t0)
        traced_cpu.append(time.process_time() - c0)
        if not plain_first:
            plain_out = _plain_pass(wl, plain_walls)

        agg = spans.aggregate(tracer.spans)
        per_pass.append(spans.pass_metrics(agg))
        for name, a in agg.items():
            durs.setdefault(name, []).extend(a.durs)
        if first is None:
            first = outputs
            SPANS_DIR.mkdir(exist_ok=True)
            spans_file = SPANS_DIR / f"{wl.name}-{args.seed}.jsonl"
            spans.write_jsonl(tracer.spans, spans_file, t0)
        differing += (outputs != first) + (plain_out != first)

    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics.update(spans.latency_metrics(durs))
    metrics.update(breakdown)
    metrics["cli.output.bytes"] = sum(len(text.encode()) for r, (_, text)
                                      in zip(wl.reports, first) if r.is_cli)
    metrics["process.cpu_s"] = statistics.median(traced_cpu)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)

    main = check_pass(wl.reports, first)
    if differing:
        problems.append(f"{differing} passes differ from the first")
    n_periods = len(durs.get("chekanov.period", []))
    notes = [f"traced passes {len(traced_walls)}, untraced {len(plain_walls)};"
             f" spans of the first traced pass in {spans_file.relative_to(ROOT)}",
             f"chekanov.period.ms_tail is p{spans.tail_percentile(n_periods)}"
             f" of {n_periods} calls"]
    notes += [f"absent from this version (metrics read 0): {name}" for name in installed.absent]
    return metrics, main, len(traced_walls), notes, main.problems + problems


def _plain_pass(wl, walls: list[float]):
    t0 = time.perf_counter()
    outputs = run_pass(wl.reports)
    walls.append(time.perf_counter() - t0)
    return outputs


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if name in UNITS:
        return UNITS[name]
    if last.startswith("ms_"):
        return "ms"
    if last == "rows_per_s":
        return "1/s"
    if last == "s" or last.endswith("_s"):
        return "s"
    return {"share": "ratio", "bytes": "B"}.get(last, "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lagrtori" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'lagrtori'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lagrtori

    if not Path(lagrtori.__file__).resolve().is_relative_to(SRC):
        print(f"error: lagrtori imported from {lagrtori.__file__}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed)

    run = traced_run if args.trace else untraced_run
    metrics, main_check, passes, notes, problems = run(args, wl)

    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {unit_of(name)}")
    for line in notes:
        print(line)
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    print("provenance " + json.dumps(provenance(args, wl), sort_keys=True))
    correct = not problems and main_check.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": main_check.items * passes,
        "failed": main_check.failed * passes,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
