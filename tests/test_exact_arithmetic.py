"""Arithmetic stays exact: no module of the package holds a float literal,
a true division or a ``float()`` call."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import srlaguerre

MODULES = sorted(Path(srlaguerre.__file__).parent.glob("*.py"))


def _floating_point(source: str) -> list[tuple[int, str]]:
    """(line, construct) for each float literal, ``/`` or ``/=`` and
    ``float(...)`` call in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, "float literal"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "division"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float call"))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_floating_point(path):
    assert _floating_point(path.read_text()) == []


def test_every_construct_is_found():
    source = "a = 0.5\nb = c / d\ne /= 2\nf = float(g)\nh = 1j\ni = c // d\n"
    assert _floating_point(source) == [
        (1, "float literal"), (2, "division"), (3, "division"),
        (4, "float call"), (5, "float literal")]
