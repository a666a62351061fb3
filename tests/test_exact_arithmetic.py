"""Arithmetic stays exact: no module of the package holds a float literal,
a true division or a ``float()`` call, and the sizes and parameters of the
sweeps must be exact integers."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import srlaguerre
from srlaguerre.genfun import jacobi_moments, joint_distribution, laguerre_moments
from srlaguerre.perm_stats import avoiders, iter_perms

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


# Each used to run or to raise TypeError: iter_perms(True) yielded S_1,
# iter_perms(-1) the empty permutation, and laguerre_moments(0.5, 3)
# returned floats.  The size is read once per call, before any sweep.
@pytest.mark.parametrize("call, match", [
    (lambda: list(iter_perms(True)), "permutation sizes must be integers"),
    (lambda: list(iter_perms(2.5)), "permutation sizes must be integers"),
    (lambda: list(iter_perms("3")), "permutation sizes must be integers"),
    (lambda: list(iter_perms(-1)), "permutation sizes must be nonnegative"),
    (lambda: list(avoiders(3.0, (3, 1, 2))), "permutation sizes must be integers"),
    (lambda: list(avoiders(2.0, (1, 3, 2))), "permutation sizes must be integers"),
    (lambda: list(avoiders(-1, (3, 1, 2))), "permutation sizes must be nonnegative"),
    (lambda: joint_distribution(2.5, ["inv"]), "distribution sizes must be integers"),
    (lambda: joint_distribution(True, ["inv"]), "distribution sizes must be integers"),
    (lambda: jacobi_moments(lambda k: 1, lambda k: 1, 3.0), "moment counts must be integers"),
    (lambda: laguerre_moments(0, 3.0), "moment counts must be integers"),
    (lambda: laguerre_moments(0.5, 3), "Laguerre alphas must be integers"),
    (lambda: laguerre_moments(False, 3), "Laguerre alphas must be integers"),
], ids=["iter_perms-bool", "iter_perms-float", "iter_perms-str", "iter_perms-negative",
        "avoiders-312-float", "avoiders-generic-float", "avoiders-negative",
        "joint_distribution-float", "joint_distribution-bool", "jacobi_moments-count",
        "laguerre_moments-count", "laguerre_moments-alpha", "laguerre_moments-bool-alpha"])
def test_sizes_and_parameters_must_be_integers(call, match):
    with pytest.raises(ValueError, match=match):
        call()
