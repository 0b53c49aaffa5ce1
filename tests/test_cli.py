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
    schema = json.loads(
        resources.files("lagrtori").joinpath("schemas/envelope.schema.json").read_text()
    )
    payload = json.loads(read_golden(name))
    jsonschema.validate(payload, schema)


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
    assert run_cli(["enc-report", "--grid", "160"])[1] == oracle.enc_report_text(160)


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
    ["chekanov-scan", "--mu", "1,0", "--a-min", "0.3", "--a-max", "0.3",
     "--a-step", "0.1", "--delta-step", "0.5", "--cert-samples", "0"],
])
def test_usage_errors_exit_2(args, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == cli.EXIT_USAGE
    capsys.readouterr()


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


def test_contradiction_exits_3(monkeypatch):
    def boom(base, tol=1e-9):
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
