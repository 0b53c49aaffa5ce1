import gc
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from types import SimpleNamespace

import jsonschema
import pytest

import oracle
from lagrtori import cli, serialize
from lagrtori.errors import InternalContradiction, NonConvergent
from lagrtori.lattice import enumerate_bs_fibers

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

GOLDEN_CASES = {
    "bs_count_level3.json": ["bs-count", "--level", "3"],
    "bs_count_level2_closed.json": ["bs-count", "--level", "2", "--closed"],
    "enc_report_grid7.json": ["enc-report", "--grid", "7"],
    "chekanov_scan_small.json": ["chekanov-scan", "--mu", "1,0", "--a-min", "0.3",
                                 "--a-max", "0.3", "--a-step", "0.1",
                                 "--delta-step", "0.5", "--quad-nodes", "24"],
    "chekanov_scan_small.csv": ["chekanov-scan", "--mu", "1,0", "--a-min", "0.3",
                                "--a-max", "0.3", "--a-step", "0.1",
                                "--delta-step", "0.5", "--quad-nodes", "24",
                                "--format", "csv"],
    "plot_level6.svg": ["plot", "--level", "6"],
    "plot_level3.svg": ["plot", "--level", "3"],
}


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(args, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def read_golden(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# golden comparisons
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_output_matches_golden(name):
    code, out, err = run_cli(GOLDEN_CASES[name])
    assert code == cli.EXIT_OK
    assert err == ""
    assert out == read_golden(name)


def test_reruns_are_byte_identical():
    args = GOLDEN_CASES["enc_report_grid7.json"]
    _, first, _ = run_cli(args)
    _, second, _ = run_cli(args)
    assert first == second


@pytest.mark.parametrize("name", [n for n in sorted(GOLDEN_CASES) if n.endswith(".json")])
def test_envelopes_validate_against_schema(name):
    payload = json.loads(read_golden(name))
    jsonschema.validate(payload, _schema())


def test_scan_bytes_do_not_depend_on_blas_threads():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "lagrtori.cli"] + GOLDEN_CASES["chekanov_scan_small.json"],
            env=env, capture_output=True, timeout=120, check=True)
        outputs.append(proc.stdout)
    assert json.loads(outputs[0])["command"] == "chekanov-scan"
    assert outputs[0] == outputs[1]


def test_json_output_round_trips():
    _, out, _ = run_cli(["bs-count", "--level", "5"])
    payload = json.loads(out)
    assert payload["command"] == "bs-count"
    assert payload["results"]["count"] == 6
    assert payload["results"]["match"] is True


def _reference_enc_row(r0, r1):
    """The first coordinate swap that moves (r0, r1), in plain Fractions."""
    r = (r0, r1, 1 - r0 - r1)
    if r0 == r1 == r[2]:
        return {"verdict": "monotone"}
    for (j, k) in ((0, 1), (1, 2), (0, 2)):
        img = list(r)
        img[j], img[k] = img[k], img[j]
        if (img[0], img[1]) != (r0, r1):
            return {"verdict": "displaceable", "swap": [j, k],
                    "separation": math.hypot(float(img[0] - r0), float(img[1] - r1))}


def test_enc_report_rows_match_fraction_reference():
    _, out, _ = run_cli(["enc-report", "--grid", "40"])
    rows = json.loads(out)["results"]["rows"]
    points = [(Fraction(i, 42), Fraction(j, 42))
              for i in range(1, 41) for j in range(1, 42 - i)]
    assert [(Fraction(*row["base"][0]), Fraction(*row["base"][1])) for row in rows] == points
    for row, (r0, r1) in zip(rows, points):
        want = _reference_enc_row(r0, r1)
        got = {key: row[key] for key in want}
        assert got == want, (r0, r1)
        if "separation" in want:
            assert got["separation"].hex() == want["separation"].hex()


@pytest.mark.parametrize("closed", [False, True], ids=["interior", "closed"])
def test_bs_count_streams_the_reference_bytes(closed):
    for level in range(1, 41):
        argv = ["bs-count", "--level", str(level)] + (["--closed"] if closed else [])
        assert run_cli(argv) == (cli.EXIT_OK, oracle.bs_count_text(level, closed), ""), level


def test_enc_report_streams_the_reference_bytes():
    # grids 3..40 include the denominators not divisible by 3 (no centroid)
    for grid in range(3, 41):
        assert run_cli(["enc-report", "--grid", str(grid)]) == (
            cli.EXIT_OK, oracle.enc_report_text(grid), ""), grid


def test_large_enc_report_streams_the_reference_bytes():
    text = run_cli(["enc-report", "--grid", "160"])[1]
    oracle.assert_same_text(text, oracle.enc_report_text(160))


@pytest.mark.parametrize("got, offset, line", [("ab\ncd\nXf", 6, 3), ("ab\ncd", 5, 2),
                                               ("ab\ncd\nef\n", 8, 3)])
def test_assert_same_text_names_the_first_difference(got, offset, line):
    with pytest.raises(pytest.fail.Exception, match=f"offset {offset}, line {line} "):
        oracle.assert_same_text(got, "ab\ncd\nef")


@pytest.mark.parametrize("level, closed", [(1, False), (2, False), (3, False), (9, False),
                                           (1, True), (9, True), (200, False)])
def test_bs_count_csv_lists_the_enumerated_fibers(level, closed):
    pieces = []
    argv = ["bs-count", "--level", str(level), "--format", "csv"] + (["--closed"] if closed else [])
    assert cli.main(argv, out=SimpleNamespace(write=pieces.append)) == cli.EXIT_OK
    text = "".join(pieces)
    header, *rows = text.split("\n")
    assert header == "r0_num,r0_den,r1_num,r1_den"
    assert rows.pop() == ""  # the text ends with a newline
    want = [[f.r0.numerator, f.r0.denominator, f.r1.numerator, f.r1.denominator]
            for f in enumerate_bs_fibers(level, closed).fibers]
    assert [[int(x) for x in row.split(",")] for row in rows] == want
    assert bool(rows) == (closed or level >= 3)
    assert max(map(len, pieces)) <= 64 * serialize._PIECE


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("args", [
    ["no-such-command"],
    ["bs-count"],
    ["bs-count", "--level", "0"],
    ["bs-count", "--level", "-3"],
    ["enc-report", "--grid", "2"],
    ["chekanov-scan", "--mu", "bogus", "--a-min", "0.1", "--a-max", "0.3"],
    ["chekanov-scan", "--mu", "1,0", "--a-min", "0.5", "--a-max", "0.3"],
    ["chekanov-scan", "--mu", "1,0", "--a-min", "0.5", "--a-max", "1.5"],
    ["chekanov-scan", "--mu", "1,0", "--a-min", "0.1", "--a-max", "0.3",
     "--delta-step", "1.5"],
    ["chekanov-scan", "--mu", "1,0", "--a-min", "0.1", "--a-max", "0.3",
     "--a-step", "0", "--delta-step", "0.5"],
    ["chekanov-scan", "--mu", "1,0", "--a-min", "0.1", "--a-max", "0.3",
     "--a-step", "-0.1", "--delta-step", "0.5"],
    ["chekanov-scan", "--mu", "1,0", "--a-min", "0.3", "--a-max", "0.3",
     "--a-step", "0.1", "--delta-step", "0.5", "--quad-nodes", "3"],
    ["chekanov-scan", "--mu", "nan,0", "--a-min", "0.1", "--a-max", "0.3",
     "--a-step", "0.1", "--delta-step", "0.5"],
    ["chekanov-scan", "--mu", "1,nan", "--a-min", "0.1", "--a-max", "0.3",
     "--a-step", "0.1", "--delta-step", "0.5"],
    ["chekanov-scan", "--mu", "inf,0", "--a-min", "0.1", "--a-max", "0.3",
     "--a-step", "0.1", "--delta-step", "0.5"],
    # past the largest start whose first doubling stays within the node cap
    ["chekanov-scan", "--mu", "1,0", "--a-min", "0.3", "--a-max", "0.3",
     "--a-step", "0.1", "--delta-step", "0.5", "--quad-nodes", "131073"],
    ["chekanov-scan", "--mu", "1,0", "--a-min", "0.3", "--a-max", "0.3",
     "--a-step", "0.1", "--delta-step", "0.5", "--quad-nodes", str(2 ** 19)],
])
def test_usage_errors_exit_2(args, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == cli.EXIT_USAGE
    capsys.readouterr()


def test_quad_nodes_at_the_top_of_the_range_runs():
    code, out, err = run_cli(GOLDEN_CASES["chekanov_scan_small.json"][:-2]
                             + ["--quad-nodes", "131072"])
    assert (code, err) == (cli.EXIT_OK, "")
    assert {r["nodes"] for r in json.loads(out)["results"]["scan"]["rows"]} == {262144}


def test_quad_nodes_default_is_the_rule_start():
    # the parser keeps its own copy: importing geometry would load numpy
    from lagrtori.geometry import LOOP_NODES
    args = cli.build_parser().parse_args(GOLDEN_CASES["chekanov_scan_small.json"][:-2])
    assert args.quad_nodes == LOOP_NODES


def test_scan_renders_its_csv_only_when_asked(monkeypatch, tmp_path):
    import lagrtori.chekanov as chekanov
    calls = []
    real = chekanov.ScanReport.to_csv
    monkeypatch.setattr(chekanov.ScanReport, "to_csv",
                        lambda self: calls.append(1) or real(self))
    assert run_cli(GOLDEN_CASES["chekanov_scan_small.json"])[0] == cli.EXIT_OK
    assert calls == []
    path = tmp_path / "scan.csv"
    code, out, _ = run_cli(GOLDEN_CASES["chekanov_scan_small.json"] + ["--csv-out", str(path)])
    assert code == cli.EXIT_OK and calls == [1]
    assert path.read_text() == read_golden("chekanov_scan_small.csv")
    assert out == read_golden("chekanov_scan_small.json")


@pytest.mark.parametrize("name", ["bs_count_level3.json", "enc_report_grid7.json",
                                  "chekanov_scan_small.json", "plot_level3.svg"])
def test_seed_flag_is_rejected(name, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(GOLDEN_CASES[name] + ["--seed", "0"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "--seed" in capsys.readouterr().err


def test_version_flag_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0
    capsys.readouterr()


def test_unwritable_plot_path_exits_5(tmp_path):
    target = tmp_path / "missing" / "plot.svg"
    code, out, err = run_cli(["plot", "--level", "3", "--out", str(target)])
    assert code == cli.EXIT_IO
    assert "error" in err


class _FullDevice(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("name", ["bs_count_level3.json", "enc_report_grid7.json",
                                  "chekanov_scan_small.json", "plot_level3.svg"])
def test_unwritable_stdout_exits_5(name):
    err = io.StringIO()
    assert cli.main(GOLDEN_CASES[name], out=_FullDevice(), err=err) == cli.EXIT_IO
    assert err.getvalue() == "error: cannot write report: [Errno 28] No space left on device\n"


def test_reader_that_closes_early_gets_no_traceback():
    # bs-count 240 writes ~800 kB, far past the pipe buffer, into a reader
    # that closes after one byte
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "lagrtori.cli", "bs-count", "--level", "240"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == cli.EXIT_IO
    assert stderr == "error: cannot write report: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("argv", [
    ["bs-count", "--level", "12"],
    ["bs-count", "--level", "12", "--format", "csv"],
    ["enc-report", "--grid", "10"],
    ["plot", "--level", "6"],
    ["chekanov-scan", "--mu", "1,0", "--a-min", "0.3", "--a-max", "0.3",
     "--a-step", "0.1", "--delta-step", "0.9"],  # one grid point
])
def test_a_warm_call_leaves_no_cyclic_garbage(argv):
    # garbage piles up between the cyclic collector's runs, and a report
    # that allocates little per row rarely triggers one
    assert run_cli(argv)[0] == cli.EXIT_OK
    gc.collect()
    gc.disable()
    try:
        assert run_cli(argv)[0] == cli.EXIT_OK
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_contradiction_exits_3(monkeypatch):
    def boom(base):
        raise InternalContradiction("forced for the exit-code check")

    monkeypatch.setattr(cli, "dichotomy", boom)
    code, out, err = run_cli(["enc-report", "--grid", "7"])
    assert code == cli.EXIT_CONTRADICTION
    assert "contradiction" in err


def test_scan_failure_exits_4(monkeypatch):
    def boom(*args, **kwargs):
        raise NonConvergent("forced for the exit-code check")

    monkeypatch.setattr("lagrtori.chekanov.canonical_bs_scan", boom)
    code, out, err = run_cli(["chekanov-scan", "--mu", "1,0", "--a-min", "0.3",
                              "--a-max", "0.3", "--a-step", "0.1",
                              "--delta-step", "0.5"])
    assert code == cli.EXIT_SCAN
    assert "NonConvergent" in err


def _schema():
    return json.loads(
        resources.files("lagrtori").joinpath("schemas/envelope.schema.json").read_text())


_VALUE_FIELDS = ("p_orbit", "p_section", "defect", "defect_orbit", "defect_section_combined",
                 "orbit_error", "section_error", "nodes")


def _fail_at_delta_zero(monkeypatch, module, name, error):
    real = getattr(module, name)

    def flaky(params, *args, **kwargs):
        if params.delta == 0.0:
            raise error(f"forced at a={params.a!r}, mu={params.mu!r}, delta={params.delta!r}")
        return real(params, *args, **kwargs)

    monkeypatch.setattr(module, name, flaky)


def test_one_failed_scan_point_marks_its_row(monkeypatch):
    import lagrtori.chekanov as chekanov
    _fail_at_delta_zero(monkeypatch, chekanov, "_section_key", NonConvergent)
    code, out, err = run_cli(GOLDEN_CASES["chekanov_scan_small.json"])
    assert code == cli.EXIT_OK and err == ""
    doc = json.loads(out)
    jsonschema.validate(doc, _schema())
    rows = doc["results"]["scan"]["rows"]
    assert [r["status"] for r in rows] == ["ok", "nonconvergent", "ok"]
    failed = rows[1]
    assert (failed["a"], failed["delta"]) == (0.3, 0.0)
    assert all(failed[k] is None for k in _VALUE_FIELDS)
    assert failed["error"] == "NonConvergent: forced at a=0.3, mu=(1+0j), delta=0.0"
    assert all("error" not in r for r in (rows[0], rows[2]))
    summary = doc["results"]["summary"]
    assert summary["rows"] == {"ok": 2, "nonconvergent": 1, "degenerate": 0}
    # the minimum covers the ok rows only: the failed row held the old one
    assert summary["min_defect"] == doc["results"]["scan"]["min_defect"] == 0.5
    assert summary["argmin"] == [0.3, -0.5]
    # the certificates do not depend on the periods
    assert summary["certificates"]["issued"] == 3
    _, csv_text, _ = run_cli(GOLDEN_CASES["chekanov_scan_small.csv"])
    assert csv_text.splitlines()[2] == "0.3,0.0,,,"


def test_one_failed_certificate_marks_its_row(monkeypatch):
    import lagrtori.chekanov as chekanov
    from lagrtori.errors import ZeroVector
    _fail_at_delta_zero(monkeypatch, chekanov, "pencil_separation", ZeroVector)
    code, out, err = run_cli(GOLDEN_CASES["chekanov_scan_small.json"])
    assert code == cli.EXIT_OK and err == ""
    doc = json.loads(out)
    jsonschema.validate(doc, _schema())
    certs = doc["results"]["certificate_rows"]
    assert [c["status"] for c in certs] == ["ok", "degenerate", "ok"]
    assert certs[1]["separation"] is None and "delta=0.0" in certs[1]["error"]
    assert doc["results"]["summary"]["certificates"] == {
        "issued": 2, "nonconvergent": 0, "degenerate": 1, "total": 3}
    assert doc["results"]["summary"]["rows"]["ok"] == 3


def test_scan_with_no_ok_row_writes_its_report_and_exits_4(monkeypatch):
    import lagrtori.chekanov as chekanov

    def boom(params, *args, **kwargs):
        raise NonConvergent(f"forced at a={params.a!r}, delta={params.delta!r}")

    monkeypatch.setattr(chekanov, "_section_key", boom)
    code, out, err = run_cli(GOLDEN_CASES["chekanov_scan_small.json"])
    assert code == cli.EXIT_SCAN
    assert err == "error: NonConvergent: forced at a=0.3, delta=-0.5\n"
    doc = json.loads(out)
    jsonschema.validate(doc, _schema())
    summary = doc["results"]["summary"]
    assert summary["rows"] == {"ok": 0, "nonconvergent": 3, "degenerate": 0}
    assert summary["min_defect"] is None and summary["argmin"] is None


_WALL_SCAN = ["chekanov-scan", "--mu", "1,0", "--a-max", "0.9999999999",
              "--a-step", "0.4999999999"]


def test_scan_at_the_wall_writes_its_report_and_exits_4():
    code, out, err = run_cli(_WALL_SCAN + ["--a-min", "0.9999999999", "--delta-step", "0.5"])
    assert code == cli.EXIT_SCAN
    assert err == ("error: DegenerateFamily: torus at a=0.9999999999, mu=(1+0j),"
                   " delta=-0.5: parameter circle passes through the singular member\n")
    doc = json.loads(out)
    jsonschema.validate(doc, _schema())
    summary = doc["results"]["summary"]
    assert summary["rows"] == {"ok": 0, "nonconvergent": 0, "degenerate": 3}
    assert summary["certificates"] == {"issued": 0, "nonconvergent": 0, "degenerate": 3,
                                       "total": 3}


def test_scan_next_to_the_wall_keeps_its_ok_rows():
    code, out, err = run_cli(_WALL_SCAN + ["--a-min", "0.5", "--delta-step", "0.9"])
    assert (code, err) == (cli.EXIT_OK, "")
    doc = json.loads(out)
    jsonschema.validate(doc, _schema())
    results = doc["results"]
    for rows in (results["scan"]["rows"], results["certificate_rows"]):
        assert [(r["a"], r["status"]) for r in rows] == [(0.5, "ok"), (0.9999999999, "degenerate")]
    assert results["certificate_rows"][0]["separation"] == 1.0


def test_cert_samples_is_hidden_and_changes_nothing(capsys):
    args = GOLDEN_CASES["chekanov_scan_small.json"]
    assert run_cli(args + ["--cert-samples", "80"]) == (
        cli.EXIT_OK, read_golden("chekanov_scan_small.json"), "")
    with pytest.raises(SystemExit):
        run_cli(["chekanov-scan", "--help"])
    assert "--cert-samples" not in capsys.readouterr().out


def test_scan_grids_keep_the_stepped_points():
    assert cli._float_range(0.1, 0.9, 0.1, "--a-step") == [
        0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    assert cli._float_range(-0.9, 0.9, 0.1, "--delta-step") == [
        round(-0.9 + 0.1 * k, 12) for k in range(19)]
    assert cli._float_range(0.5, 0.9, 0.4, "--a-step") == [0.5, 0.9]
    assert cli._float_range(0.3, 0.3, 0.1, "--a-step") == [0.3]


def _guarded_cli(args):
    """Run the CLI in a child limited to 1 GiB of address space and 60 s, so
    a grid loop that never ends fails the test instead of eating memory."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from lagrtori.cli import main; sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-W", "ignore", "-c", code] + args, env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("flag, args", [
    ("--a-step", ["--mu", "2e160,0", "--a-min", "1e160", "--a-max", "1.5e160",
                  "--a-step", "1", "--delta-step", "0.5"]),
    ("--delta-step", ["--mu", "1,0", "--a-min", "0.3", "--a-max", "0.3",
                      "--a-step", "0.1", "--delta-step", "1e-13"]),
])
def test_steps_whose_grid_points_repeat_exit_2(flag, args):
    proc = _guarded_cli(["chekanov-scan"] + args)
    assert proc.returncode == cli.EXIT_USAGE
    assert f"{flag} " in proc.stderr and "grid points repeat" in proc.stderr


def test_equal_a_bounds_give_one_point_whatever_the_step():
    # the one grid point overflows the lift, so the scan fails naming it
    proc = _guarded_cli(["chekanov-scan", "--mu", "2e160,0", "--a-min", "1e160",
                         "--a-max", "1e160", "--a-step", "1", "--delta-step", "0.5"])
    assert proc.returncode == cli.EXIT_SCAN
    assert "ZeroVector" in proc.stderr and "a=1e+160" in proc.stderr


def test_overflowing_scan_point_fails_in_one_stderr_line():
    # the check runs before numpy can warn, so the error is the only line
    args = ["chekanov-scan", "--mu", "2e160,0", "--a-min", "1e160", "--a-max", "1e160",
            "--a-step", "1", "--delta-step", "0.5"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"),
        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "lagrtori.cli"] + args, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == cli.EXIT_SCAN
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ZeroVector: torus at a=1e+160")
    rows = json.loads(proc.stdout)["results"]["scan"]["rows"]
    assert {r["status"] for r in rows} == {"degenerate"}


# ---------------------------------------------------------------------------
# file outputs
# ---------------------------------------------------------------------------


def test_plot_writes_file(tmp_path):
    target = tmp_path / "triangle.svg"
    code, out, err = run_cli(["plot", "--level", "6", "--out", str(target)])
    assert code == cli.EXIT_OK
    assert target.read_text() == read_golden("plot_level6.svg")


def test_scan_csv_out_writes_file(tmp_path):
    target = tmp_path / "scan.csv"
    args = GOLDEN_CASES["chekanov_scan_small.json"] + ["--csv-out", str(target)]
    code, out, err = run_cli(args)
    assert code == cli.EXIT_OK
    assert json.loads(out)["command"] == "chekanov-scan"
    assert target.read_text() == read_golden("chekanov_scan_small.csv")
