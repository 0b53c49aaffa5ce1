"""Which modules each entry point loads, the package's public names, and
that every module-level name outside ``__all__`` is used.

The exact reports (``bs-count``, ``enc-report``, ``plot``) and the parser
must run without importing numpy; each case runs in a fresh interpreter
with the package imported from ``src/``.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import lagrtori

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# The last line a case prints says whether numpy was imported.
_CLI_CASE = """
import io, sys
from lagrtori import cli
code = cli.main({argv!r}, out=io.StringIO(), err=io.StringIO())
assert code == 0, code
print("numpy" in sys.modules)
"""

NUMPY_FREE = {
    "import": "import sys, lagrtori\nprint('numpy' in sys.modules)",
    "build_parser": ("import sys\nfrom lagrtori import cli\ncli.build_parser()\n"
                     "print('numpy' in sys.modules)"),
    "help": ("import sys\nfrom lagrtori import cli\n"
             "try:\n    cli.main(['--help'])\n"
             "except SystemExit as exc:\n    assert exc.code == 0, exc.code\n"
             "print('numpy' in sys.modules)"),
    "bs-count": _CLI_CASE.format(argv=["bs-count", "--level", "5"]),
    "bs-count-closed": _CLI_CASE.format(argv=["bs-count", "--level", "5", "--closed"]),
    "bs-count-csv": _CLI_CASE.format(argv=["bs-count", "--level", "5", "--format", "csv"]),
    "enc-report": _CLI_CASE.format(argv=["enc-report", "--grid", "7"]),
    "plot": _CLI_CASE.format(argv=["plot", "--level", "6", "--out", "lattice.svg"]),
}


def _run(code: str, cwd: Path) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("case", sorted(NUMPY_FREE))
def test_exact_paths_do_not_import_numpy(case, tmp_path):
    assert _run(NUMPY_FREE[case], tmp_path).splitlines()[-1] == "False"


def test_scan_imports_numpy_and_matches_golden(tmp_path):
    argv = ["chekanov-scan", "--mu", "1,0", "--a-min", "0.3", "--a-max", "0.3",
            "--a-step", "0.1", "--delta-step", "0.5", "--quad-nodes", "24"]
    code = ("import io, json, sys\nfrom lagrtori import cli\nout = io.StringIO()\n"
            f"assert cli.main({argv!r}, out=out, err=io.StringIO()) == 0\n"
            "print(json.dumps(['numpy' in sys.modules, out.getvalue()]))")
    numpy_loaded, text = json.loads(_run(code, tmp_path))
    assert numpy_loaded
    assert text == (GOLDEN / "chekanov_scan_small.json").read_text()


PUBLIC = [
    "ActionCoords", "Anchor", "AreaEstimate", "BSFiberSet", "ChekanovParams",
    "CliffordFiber", "ConicCircle", "D1", "D2", "D3", "DeformationSpec",
    "DiscWithBoundary", "Displaceable", "DisplacementCertificate", "HermitianSymbol",
    "HomologyClass", "Inconclusive", "MaslovResult", "Monotone",
    "MonotoneWitness", "NotDisplacedByTheseFlows",
    "RotationReport", "ScanReport", "TorusType",
    "build_diagonal_rotation", "canonical_bs_defect",
    "canonical_bs_scan", "chekanov", "chekanov_torus", "classify_type", "clifford",
    "clifford_fiber", "conic_circle",
    "conic_total_area", "deformed_fiber_periods", "diagonal_period",
    "disc_difference_check", "displace_chekanov", "displace_clifford",
    "displacement", "enc_verdict", "enumerate_bs_fibers", "errors", "fiber_periods",
    "geometry", "hilbert_dimension", "interior_rational_grid",
    "is_monotone", "ks_jacobian", "loop_symplectic_area",
    "maslov", "maslov_index", "moment_map",
    "serialize", "standard_disc",
    "swap_symbol", "symbol_flow",
    "torus_periods_chekanov", "universal_maslov_class",
]

# names that moved into the exact layer, by the module that re-exports them
MOVED = {
    "clifford": ["ActionCoords", "BSFiberSet", "HilbertComparison", "enumerate_bs_fibers",
                 "hilbert_dimension", "interior_rational_grid"],
    "maslov": ["MonotoneWitness", "canonical_bs_defect", "is_monotone",
               "universal_maslov_class"],
    "displacement": ["MonotoneWitness"],
}


def _defining_object(name: str, value):
    if isinstance(value, types.ModuleType):
        return sys.modules[f"lagrtori.{name}"]
    return getattr(importlib.import_module(value.__module__), name)


def test_public_names_are_pinned():
    assert lagrtori.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(lagrtori))


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_its_defining_object(name):
    value = getattr(lagrtori, name)
    assert _defining_object(name, value) is value


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from lagrtori import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(PUBLIC)
    assert all(namespace[name] is getattr(lagrtori, name) for name in PUBLIC)


@pytest.mark.parametrize("module", sorted(MOVED))
def test_moved_names_are_reexported_as_the_same_objects(module):
    mod = importlib.import_module(f"lagrtori.{module}")
    for name in MOVED[module]:
        assert getattr(mod, name) is getattr(lagrtori.lattice, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lagrtori.no_such_name


def _module_names(tree: ast.Module) -> set[str]:
    """Module-level names that a module binds, dunder names left out."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name for a in node.names)
    return {n for n in names if not n.startswith("__")}


def _names_read(trees) -> set[str]:
    """Names the trees import by name or read as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_private_module_name_is_used():
    # a private name may be read by the tests; a public one outside __all__
    # must be read by the package itself, or it is a helper only tests call
    src = {path: ast.parse(path.read_text()) for path in sorted((ROOT / "src").rglob("*.py"))}
    tests = [ast.parse(path.read_text()) for path in sorted((ROOT / "tests").rglob("*.py"))]
    read_in_src = _names_read(src.values())
    read_anywhere = read_in_src | _names_read(tests)
    unused = []
    for path in sorted((ROOT / "src" / "lagrtori").glob("*.py")):
        tree = src[path]
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        names = _module_names(tree) - read
        private = {n for n in names if n.startswith("_")} - read_anywhere
        public = {n for n in names if not n.startswith("_")} - read_in_src
        public -= set(lagrtori.__all__)
        unused += [f"{path.stem}.{name}" for name in sorted(private | public)]
    assert unused == []
