"""The diagonal rotation by its exact reductions, against the 2-D oracle."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrtori.displacement import (
    _critical_points,
    _rotation_symbol,
    _sphere_section,
    build_diagonal_rotation,
    diagonal_symbol,
)
from lagrtori.errors import CriticalPointMiscount
from lagrtori.serialize import stable_dumps
from oracle import Surface, surface_symplectic_area

SRC = Path(__file__).resolve().parent.parent / "src" / "lagrtori"


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(0.02, 0.98))
def test_rotation_areas_match_the_2d_oracle_within_their_errors(alpha):
    rep, = build_diagonal_rotation([alpha]).alphas
    symbol, section = _rotation_symbol(), Surface(_sphere_section(alpha), (False, True))
    area = surface_symplectic_area(section)
    weighted = surface_symplectic_area(
        section, weight_fn=lambda surf, s, t: symbol.value(surf(s, t)))
    assert rep.reduced_area == pytest.approx(area.value, abs=1e-7)
    assert rep.normalization == pytest.approx(weighted.value, abs=1e-7)
    assert abs(rep.reduced_area - alpha) <= rep.reduced_area_error
    assert abs(rep.normalization - alpha * alpha) <= rep.normalization_error
    assert rep.reduced_area_error > 0.0 and rep.normalization_error > 0.0


def test_repeated_eigenvalue_is_a_miscount():
    with pytest.raises(CriticalPointMiscount, match="gaps"):
        _critical_points(diagonal_symbol(1.0, 1.0, 0.0))


def test_critical_points_are_the_eigenlines():
    symbol = _rotation_symbol()
    points = _critical_points(symbol)
    values = [float(symbol.value(p)) for p in points]
    assert values == pytest.approx([-1.0, 0.0, 3.0], abs=1e-12)
    assert all(float(symbol.gradient_residual(p)) < 1e-10 for p in points)


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
