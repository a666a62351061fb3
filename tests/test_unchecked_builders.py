"""The builders that skip validation against the checked constructors.

``IntMultiset._unchecked``, ``LaguerreHistory._unchecked`` and
``Permutation._unchecked`` take their data as it is, and so do the two
multiset builders that the statistic records share, ``_distinct`` and
``_with_counts``.  Each builder that uses them must produce what the
checked constructor makes of the same data: every permutation statistic
record is built a second time with ``_distinct`` and ``_with_counts``
swapped for ``IntMultiset(values)`` and ``IntMultiset.from_pairs``, every
multiset of a history's statistic record (filled as entry dicts) goes
back through ``IntMultiset.from_pairs``, and every history or permutation
goes back through ``LaguerreHistory(w, c)`` or ``Permutation(word)``; both
must come out equal, on all of S_n and all
histories for n <= 7 and on Hypothesis words and histories of size up to
200.  An ``ast`` scan pins the functions of ``src/`` allowed to skip
validation, so that no parser, reader or CLI path can drop its checks.
"""
from __future__ import annotations

import ast
import importlib
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_large_properties import large_histories, large_perms

import srlaguerre
from srlaguerre.bijections import kreweras, phi_fv, phi_fv_inv, phi_yzl, phi_yzl_inv, theta
from srlaguerre.histories import (
    LaguerreHistory,
    StepType,
    enumerate_histories,
    history_statistics,
)
from srlaguerre.involution import InternalInconsistency, xi
from srlaguerre.mfs_action import (
    mfs_full,
    pattern_multisets_zero_boundary,
    starred_classes,
)
from srlaguerre.multiset import IntMultiset, _distinct, kappa
from srlaguerre.perm_stats import (
    Permutation,
    avoiders,
    cyclic_family,
    iter_perms,
    linear_family,
    pattern_multisets,
    shifted_family,
)

SMALL = range(8)
MODULES = sorted(Path(srlaguerre.__file__).parent.glob("*.py"))

# The checked constructors that the shared unchecked builders stand for.
# Unlike the builders, IntMultiset(values) counts a repeated value twice
# and from_pairs rejects a negative count.
_CHECKED = {
    "_distinct": IntMultiset,
    "_with_counts": lambda values, counts: IntMultiset.from_pairs(
        (v, m) for v, m in zip(values, counts) if m != 0),
}
_BUILDER_MODULES = [
    module for module in (importlib.import_module(f"srlaguerre.{path.stem}") for path in MODULES)
    if module.__name__ != "srlaguerre.multiset" and any(hasattr(module, name) for name in _CHECKED)
]


@contextmanager
def _checked_builders():
    """``_distinct`` and ``_with_counts`` swapped for their checked
    constructors in every module that reads them."""
    saved = [(module, name, getattr(module, name))
             for module in _BUILDER_MODULES for name in _CHECKED if hasattr(module, name)]
    try:
        for module, name, _ in saved:
            setattr(module, name, _CHECKED[name])
        yield
    finally:
        for module, name, builder in saved:
            setattr(module, name, builder)


def _assert_matches_checked_build(builders, arg) -> None:
    shipped = [builder(arg) for builder in builders]
    with _checked_builders():
        checked = [builder(arg) for builder in builders]
    assert shipped == checked


def _assert_valid_history(hist: LaguerreHistory) -> None:
    checked = LaguerreHistory(hist.w, hist.c)
    assert checked == hist and checked.h == hist.h


def _assert_valid_perm(pi: Permutation) -> None:
    assert type(pi.word) is tuple
    assert Permutation(pi.word) == pi


def _assert_checked_entries(record) -> None:
    """Every multiset of the record passes the checked constructor, which
    rejects a value below 1 and a multiplicity below 1."""
    for field in fields(record):
        ms = getattr(record, field.name)
        if isinstance(ms, IntMultiset):
            assert IntMultiset.from_pairs(ms._entries.items()) == ms, field.name


def _check_history(w_hist: LaguerreHistory) -> None:
    _assert_valid_history(xi(w_hist))
    _assert_checked_entries(history_statistics(w_hist))
    _assert_valid_perm(phi_fv_inv(w_hist))
    _assert_valid_perm(phi_yzl_inv(w_hist))


_RECORDS = (linear_family, cyclic_family, shifted_family, starred_classes,
            pattern_multisets, pattern_multisets_zero_boundary)
_PERM_MAPS = (Permutation.inverse, kreweras, theta, mfs_full)


def _check_perm(pi: Permutation) -> None:
    _assert_matches_checked_build(_RECORDS, pi)
    for perm_map in _PERM_MAPS:
        _assert_valid_perm(perm_map(pi))


def test_history_builders_pass_the_checked_constructors_on_small_histories():
    for n in SMALL:
        for w_hist in enumerate_histories(n):
            _assert_valid_history(w_hist)
            _check_history(w_hist)


@settings(deadline=None, max_examples=40)
@given(large_histories())
def test_history_builders_pass_the_checked_constructors_on_large_histories(w_hist):
    _check_history(w_hist)


def test_permutation_builders_pass_the_checked_constructors_on_small_perms():
    for n in SMALL:
        for pi in iter_perms(n):
            _check_perm(pi)


@settings(deadline=None, max_examples=40)
@given(large_perms)
def test_permutation_builders_pass_the_checked_constructors_on_large_perms(pi):
    _check_perm(pi)
    _assert_valid_perm(phi_fv_inv(phi_fv(pi)))
    _assert_valid_perm(phi_yzl_inv(phi_yzl(pi)))


@pytest.mark.parametrize("pattern", [(3, 1, 2), (2, 1, 3), (1, 3, 2)])
def test_avoiders_pass_the_checked_constructor(pattern):
    for n in SMALL:
        for pi in avoiders(n, pattern):
            _assert_valid_perm(pi)


_small_multisets = st.lists(
    st.tuples(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=5)),
    max_size=20,
).map(IntMultiset.from_pairs)


@given(_small_multisets, _small_multisets)
def test_multiset_operators_pass_the_checked_constructor(a, b):
    assert a | b == IntMultiset(list(a) + list(b))
    assert (a | b) - b == a
    assert kappa(31, a) == IntMultiset(31 - v for v in a)


def test_the_checked_build_counts_what_the_unchecked_one_collapses():
    # A builder that fed _distinct a repeated value would differ from its
    # checked build, so the record comparisons above would catch it.
    assert _distinct([2, 2]) != IntMultiset([2, 2])
    assert {module.__name__ for module in _BUILDER_MODULES} == {
        "srlaguerre.mfs_action", "srlaguerre.perm_stats"}


@pytest.mark.parametrize("w, h, c", [
    ((StepType.N, StepType.S), (0, 1), (0, 2)),  # c_2 above its height
    ((StepType.E, StepType.E), (0, 1), (0, 0)),  # stored heights not the path's
])
def test_xi_rejects_what_it_cannot_build(w, h, c):
    # A history that skipped validation must not come back from xi as an
    # unvalidated, invalid image.
    with pytest.raises(InternalInconsistency):
        xi(LaguerreHistory._unchecked(w, h, c))


# ---------------------------------------------------------------------------
# Who may skip validation
# ---------------------------------------------------------------------------

# The names that build without validation.
UNCHECKED = {"_unchecked", "_distinct", "_with_counts"}

# Builders whose output is valid by construction, each checked above.
ALLOWED = {
    "bijections.kreweras",
    "bijections.phi_fv_inv",
    "bijections.phi_yzl_inv",
    "bijections.theta",
    "histories.enumerate_histories",
    "histories.history_statistics",
    "involution.xi",
    "mfs_action.mfs_full",
    "mfs_action.pattern_multisets_zero_boundary",
    "mfs_action.starred_classes",
    "multiset.IntMultiset.__or__",
    "multiset.IntMultiset.__sub__",
    "multiset._distinct",
    "multiset._with_counts",
    "multiset.kappa",
    "perm_stats.Permutation.inverse",
    "perm_stats._range_union",
    "perm_stats.avoiders",
    "perm_stats.cyclic_family",
    "perm_stats.linear_family",
    "perm_stats.pattern_multisets",
    "perm_stats.shifted_family",
}


def _unchecked_users(source: str, module: str) -> set[str]:
    """The qualified names of the functions that read one of the
    ``UNCHECKED`` names, as an attribute or a bare name; ``<module>`` for
    a read outside any function."""
    users = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
            else:
                if (isinstance(child, ast.Attribute) and child.attr in UNCHECKED
                        or isinstance(child, ast.Name) and child.id in UNCHECKED):
                    users.add(scope if scope != module else f"{module}.<module>")
                visit(child, scope)

    visit(ast.parse(source), module)
    return users


def test_only_listed_builders_skip_validation():
    found = set()
    for path in MODULES:
        found |= _unchecked_users(path.read_text(), path.stem)
    assert found == ALLOWED


def test_no_parser_or_cli_path_is_listed():
    for name in ALLOWED:
        module, *_, function = name.split(".")
        assert module != "cli", name
        assert not function.startswith(("from_", "parse", "_parse")), name


def test_every_use_is_found():
    source = (
        "x = A._unchecked\n"
        "def f():\n    return A._unchecked({})\n"
        "class C:\n    @classmethod\n    def from_text(cls, t):\n"
        "        make = cls._unchecked\n        return make(t)\n"
        "    def g(self):\n        def inner():\n            return B._unchecked(())\n"
        "        return inner()\n"
        "def h(v):\n    return _distinct(v)\n"
        "def k(v):\n    return m._with_counts(v, v)\n"
    )
    assert _unchecked_users(source, "m") == {
        "m.<module>", "m.f", "m.C.from_text", "m.C.g.inner", "m.h", "m.k"}
