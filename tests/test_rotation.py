"""The diagonal rotation by its exact reductions, against the 2-D oracle."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrtori.displacement import _ROTATION, build_diagonal_rotation
from lagrtori.serialize import stable_dumps
from oracle import canonical_gauge, sphere_section, surface_symplectic_area, symbol_value

SRC = Path(__file__).resolve().parent.parent / "src" / "lagrtori"


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(0.02, 0.98))
def test_rotation_areas_match_the_2d_oracle_within_their_errors(alpha):
    rep, = build_diagonal_rotation([alpha]).alphas
    section = sphere_section(alpha)
    area = surface_symplectic_area(section)
    weighted = surface_symplectic_area(
        section, weight_fn=lambda surf, s, t: symbol_value(_ROTATION.matrix, surf(s, t)))
    assert rep.reduced_area == pytest.approx(area.value, abs=1e-7)
    assert rep.normalization == pytest.approx(weighted.value, abs=1e-7)
    assert abs(rep.reduced_area - alpha) <= rep.reduced_area_error
    assert abs(rep.normalization - alpha * alpha) <= rep.normalization_error
    assert rep.reduced_area_error > 0.0 and rep.normalization_error > 0.0


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(0.02, 0.98))
def test_symbol_on_the_section_is_the_closed_form(alpha):
    # h = alpha (1 + 2 sin(pi u) cos(2 pi t)): extremes 3 alpha and -alpha,
    # attained at u = 1/2, t = 0 and 1/2, the marked circle
    rep, = build_diagonal_rotation([alpha]).alphas
    g = np.linspace(0.0, 1.0, 129)
    uu, tt = np.meshgrid(g, g, indexing="ij")
    h = symbol_value(_ROTATION.matrix, sphere_section(alpha)(uu, tt))
    want = alpha * (1.0 + 2.0 * np.sin(math.pi * uu) * np.cos(2.0 * math.pi * tt))
    assert np.max(np.abs(h - want)) < 4e-15
    hi, lo = rep.extreme_values
    assert np.max(h) <= hi + 4e-15 and np.min(h) >= lo - 4e-15
    marked = symbol_value(_ROTATION.matrix, sphere_section(alpha)(0.5, np.array([0.0, 0.5])))
    assert marked == pytest.approx([hi, lo], abs=4e-15)


def test_critical_points_are_the_eigenlines():
    # the rule the report replaced: the eigenlines of eigh, rephased
    rep = build_diagonal_rotation([0.5])
    w, v = np.linalg.eigh(np.array(_ROTATION.matrix, dtype=complex))
    assert w == pytest.approx(rep.critical_values, abs=1e-15)
    for k, point in enumerate(rep.critical_points):
        np.testing.assert_allclose(point, canonical_gauge(v[:, k]), rtol=0, atol=1e-15)


def test_rotation_report_is_deterministic():
    first = stable_dumps(build_diagonal_rotation([0.25, 0.5, 0.75]).to_json())
    assert stable_dumps(build_diagonal_rotation([0.25, 0.5, 0.75]).to_json()) == first


_BANNED = ("random", "RandomState", "default_rng")


def _random_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if "random" in a.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            if "random" in (node.module or "").split("."):
                found.append(node.module)
            found += [a.name for a in node.names if a.name in _BANNED]
        elif isinstance(node, ast.Attribute) and node.attr in _BANNED:
            found.append(node.attr)
        elif isinstance(node, ast.Name) and node.id in _BANNED:
            found.append(node.id)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_draws_no_random_numbers(path):
    assert _random_uses(ast.parse(path.read_text())) == []


_HEAVY = ("mpmath", "scipy")


def _heavy_imports(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] in _HEAVY]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module.split(".")[0] in _HEAVY:
                found.append(node.module)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_neither_mpmath_nor_scipy(path):
    # both are installed where the tests run, so only the source can tell
    assert _heavy_imports(ast.parse(path.read_text())) == []
