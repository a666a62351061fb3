"""Tests for permutation statistics, patterns, and the Mahonian registry."""

import ast
import math
import random
from collections import Counter
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_large_properties import large_perms

import srlaguerre
from srlaguerre import perm_stats
from srlaguerre.multiset import IntMultiset
from srlaguerre.perm_stats import (
    MAHONIAN_NAMES,
    NotAPermutation,
    PatternSyntaxError,
    Permutation,
    UnknownStatistic,
    avoiders,
    classical_avoids,
    coordinate_counts,
    cyclic_family,
    iter_perms,
    linear_family,
    mahonian,
    parse_vincular,
    pattern_multisets,
    shifted_family,
    side_numbers,
    statistic,
    trivial_bijection,
    vincular_count,
)

perm_strategy = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(Permutation)


def test_permutation_basics():
    pi = Permutation([3, 1, 2])
    assert pi.n == 3
    assert pi.value(1) == 3 and pi.position(3) == 1
    assert pi.inverse() == Permutation([2, 3, 1])
    assert Permutation.from_text("3,1,2") == pi
    assert Permutation.from_text("312") == pi
    assert pi.to_text() == "3,1,2"


@pytest.mark.parametrize("accessor, i", [
    ("value", 0), ("value", -1), ("value", -3), ("value", 4),
    ("position", 0), ("position", -1), ("position", 4),
])
def test_one_based_accessors_reject_indices_outside_1_to_n(accessor, i):
    # word[i - 1] alone would read 0 and negative indices from the end.
    pi = Permutation.from_text("3,1,2")
    with pytest.raises(IndexError):
        getattr(pi, accessor)(i)


def test_invalid_permutations_rejected():
    with pytest.raises(NotAPermutation):
        Permutation([1, 1])
    with pytest.raises(NotAPermutation):
        Permutation([2, 3])


@pytest.mark.parametrize("word", [[2.7, 1.2], [1.0, 2.0], "21", ["2", "1"]])
def test_non_integer_entries_rejected(word):
    # int() would truncate the floats and parse the strings into 2,1.
    with pytest.raises(NotAPermutation):
        Permutation(word)


@pytest.mark.parametrize("build", [Permutation, Permutation.from_json],
                         ids=["Permutation", "from_json"])
def test_bool_entries_rejected(build):
    # operator.index accepts True as 1.
    with pytest.raises(NotAPermutation):
        build([True])


@pytest.mark.parametrize("data", [5, None])
def test_from_json_rejects_a_non_list(data):
    with pytest.raises(ValueError, match="permutation JSON must be a list, got"):
        Permutation.from_json(data)


@pytest.mark.parametrize("text", ["²", "١,2", "٢١", "+1,2", "2,1_0,1,3,4,5,6,7,8,9", "1,,2"])
def test_from_text_reads_ascii_digits_only(text):
    with pytest.raises(ValueError, match="cannot parse permutation"):
        Permutation.from_text(text)


def test_from_text_keeps_spaces_and_minus_signs():
    assert Permutation.from_text(" 2 , 1 ") == Permutation([2, 1])
    with pytest.raises(NotAPermutation):
        Permutation.from_text("-1,2")


def test_avoidance_patterns_take_exact_integers():
    with pytest.raises(NotAPermutation):
        classical_avoids(Permutation([1, 2, 3]), [2.7, 1.2])
    with pytest.raises(NotAPermutation):
        next(avoiders(3, [3.5, 1.0, 2.0]))


def test_iter_perms_counts():
    for n in range(0, 6):
        assert sum(1 for _ in iter_perms(n)) == math.factorial(n)


def test_trivial_bijections():
    pi = Permutation.from_text("618742593")
    assert trivial_bijection(pi, "r") == Permutation.from_text("395247816")
    assert trivial_bijection(pi, "c") == Permutation.from_text("492368517")
    assert trivial_bijection(pi, "i") == pi.inverse()
    assert trivial_bijection(Permutation.from_text("12"), "rci") == \
        Permutation.from_text("12")


def test_linear_family_worked_example():
    pi = Permutation.from_text("618742593")
    lin = linear_family(pi)
    assert lin.Des == IntMultiset([1, 3, 4, 5, 8])
    assert lin.Ides == IntMultiset([3, 5, 7])
    assert lin.Dt == IntMultiset([4, 6, 7, 8, 9])
    assert lin.Dtb == IntMultiset()
    assert lin.Dta == lin.Dt
    assert lin.Db == IntMultiset([1, 2, 3, 4, 7])
    assert lin.Dbb == IntMultiset([1, 2])
    assert lin.Dba == IntMultiset([4, 7])
    assert lin.Ab == IntMultiset([1, 2, 5])
    assert lin.Abb == IntMultiset([1, 2])
    assert lin.Aba == IntMultiset([5])
    assert lin.Ddif == IntMultiset.from_pairs(
        [(2, 1), (3, 2), (4, 3), (5, 3), (6, 3), (7, 2), (8, 2), (9, 1)])
    assert lin.Dbot == IntMultiset.from_pairs(
        [(1, 1), (2, 2), (3, 3), (4, 4), (7, 7)])


def test_pattern_multisets_worked_example():
    pi = Permutation.from_text("618742593")
    m13, m31, m312 = pattern_multisets(pi)
    assert m13 == IntMultiset([4, 6, 6, 7, 8])
    assert m31 == IntMultiset([4, 5, 6, 6, 7, 8])
    assert m312 == IntMultiset([2, 3, 3, 4, 5, 5])


def test_cyclic_family_worked_example():
    pi = Permutation.from_text("947612853")
    cyc = cyclic_family(pi)
    assert cyc.Exc == IntMultiset([4, 6, 7, 8, 9])
    assert cyc.Ep == IntMultiset([1, 2, 3, 4, 7])
    assert cyc.Nexc == IntMultiset([1, 2, 3, 5])
    assert cyc.Epb == IntMultiset([1, 2])
    assert cyc.Epa == IntMultiset([4, 7])
    assert cyc.Nexcb == IntMultiset([1, 2])
    assert cyc.Nexca == IntMultiset([5])
    assert cyc.Edif == IntMultiset.from_pairs(
        [(2, 1), (3, 2), (4, 3), (5, 3), (6, 3), (7, 2), (8, 2), (9, 1)])
    assert cyc.Ebot == IntMultiset.from_pairs(
        [(1, 1), (2, 2), (3, 3), (4, 4), (7, 7)])
    assert side_numbers(pi) == (0, 1, 1, 2, 0, 0, 1, 1, 0)
    assert cyc.Ine == IntMultiset([4, 5, 6, 6, 7, 8])


def test_shifted_family_worked_example():
    pi = Permutation.from_text("671395482")
    sh = shifted_family(pi)
    assert sh.pone == 3
    assert sh.Vnex == IntMultiset([1, 2, 3, 4, 7])
    assert sh.Vnepb == IntMultiset()
    assert sh.Vnepa == IntMultiset([4, 6, 7, 8, 9])
    assert sh.Vepb == IntMultiset([1, 2])
    assert sh.Vepa == IntMultiset([5])
    assert sh.Vnexb == IntMultiset([1, 2])
    assert sh.Vnexa == IntMultiset([4, 7])
    assert sh.Vedif == IntMultiset.from_pairs(
        [(2, 1), (3, 2), (4, 3), (5, 3), (6, 3), (7, 2), (8, 2), (9, 1)])
    assert sh.Vbot == IntMultiset.from_pairs(
        [(1, 1), (2, 2), (3, 3), (4, 4), (7, 7)])
    assert sh.Vnest == IntMultiset([4, 5, 6, 6, 7, 8])


def test_shifted_family_computes_nesting_numbers_once(monkeypatch):
    calls = []
    original = perm_stats.nesting_numbers

    def counting(pi):
        calls.append(pi)
        return original(pi)

    monkeypatch.setattr(perm_stats, "nesting_numbers", counting)
    pi = Permutation.from_text("671395482")
    sh = shifted_family(pi)
    assert len(calls) == 1
    assert sh.vnest == perm_stats.variant_nesting_numbers(pi)


def _q_factorial(n: int) -> list[int]:
    """The coefficients of [n]_q! = prod over k <= n of 1 + q + ... + q^(k-1)."""
    coeffs = [1]
    for k in range(1, n + 1):
        coeffs = [sum(coeffs[e - j] for j in range(k) if 0 <= e - j < len(coeffs))
                  for e in range(len(coeffs) + k - 1)]
    return coeffs


@pytest.mark.parametrize("n", range(7))
def test_left_ranks_are_the_inversion_table(n):
    # One to one onto [0, 1) x ... x [0, n), with C(n,2) less the sum
    # counting the inversions, so that count is Mahonian.
    codes = set()
    inversions = Counter()
    for word in permutations(range(1, n + 1)):
        ranks = perm_stats._left_ranks(word)
        codes.add(tuple(ranks))
        inv = n * (n - 1) // 2 - sum(ranks)
        assert inv == sum(1 for i in range(n) for j in range(i + 1, n)
                          if word[i] > word[j]), word
        inversions[inv] += 1
    assert codes == set(product(*(range(p) for p in range(1, n + 1))))
    assert [inversions[e] for e in range(n * (n - 1) // 2 + 1)] == _q_factorial(n)


@settings(deadline=None, max_examples=40)
@given(large_perms)
def test_left_ranks_match_their_definition(pi):
    word = pi.word
    assert perm_stats._left_ranks(word) == [
        sum(1 for u in word[:p] if u < v) for p, v in enumerate(word)]


def test_ingredients_sweep_left_ranks_once(monkeypatch):
    calls = []
    original = perm_stats._left_ranks

    def counting(letters):
        calls.append(letters)
        return original(letters)

    monkeypatch.setattr(perm_stats, "_left_ranks", counting)
    word = (6, 7, 1, 3, 9, 5, 4, 8, 2)
    g = perm_stats._ingredients.__wrapped__(word)
    assert len(calls) == 1
    assert g["inv"] == 19


# The package's only sorted-list sweeps.  Inversions, nesting numbers and
# the one-glue counts read the left ranks; a new sweep over the same letters
# must be a reader of ``_left_ranks`` too, or be listed here with its reason.
SORTED_LIST_SWEEPS = {
    "perm_stats._left_ranks",
    "perm_stats._side_numbers",
    "perm_stats.coordinate_counts",
}
_BISECT_CALLS = {"bisect", "bisect_left", "bisect_right", "insort", "insort_left", "insort_right"}


def _sorted_list_users(source: str, module: str) -> set[str]:
    """The qualified names of the functions that call a ``bisect`` function,
    by bare name or as an attribute; ``<module>`` for a call outside any
    function."""
    users = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in _BISECT_CALLS:
                    users.add(scope if scope != module else f"{module}.<module>")
            visit(child, scope)

    visit(ast.parse(source), module)
    return users


def test_only_listed_functions_sweep_sorted_lists():
    found = set()
    for path in Path(srlaguerre.__file__).parent.glob("*.py"):
        found |= _sorted_list_users(path.read_text(), path.stem)
    assert found == SORTED_LIST_SWEEPS


def test_every_sorted_list_call_is_found():
    source = ("import bisect\nbisect.insort(a, 1)\n"
              "def f(a):\n    return bisect_right(a, 2)\n"
              "class C:\n    def g(self, a):\n        insort_left(a, 3)\n")
    assert _sorted_list_users(source, "m") == {"m.<module>", "m.f", "m.C.g"}


def brute_vincular(word, values, glued):
    """Independent oracle for vincular pattern counting."""
    from itertools import combinations

    k = len(values)
    count = 0
    for positions in combinations(range(len(word)), k):
        if any(positions[p] + 1 != positions[p + 1] for p in glued):
            continue
        letters = [word[p] for p in positions]
        ranks = sorted(range(k), key=lambda t: letters[t])
        pattern = [0] * k
        for rank, t in enumerate(ranks, start=1):
            pattern[t] = rank
        if tuple(pattern) == values:
            count += 1
    return count


def test_vincular_anchor():
    # 41253 contains exactly one occurrence of the glued-31 pattern 3142.
    assert vincular_count(Permutation.from_text("41253"), "u31_42") == 1
    assert vincular_count(Permutation.from_text("618742593"), "2u31") == 6


def test_vincular_against_brute_force():
    # All twelve one-glue literals, and a second spelling of one of them,
    # then literals that only the generic counter reads: classical, fully
    # glued, two glued runs, and length 4.
    literals = ["2u31", "2u13", "u31_2", "1u32", "u32_1", "u13_2",
                "3u12", "u12_3", "u12", "u21", "u21_3", "3u21", "u23_1",
                "1u23", "2_u31", "12", "21",
                "123", "1_3_2", "u123", "u321", "1u32_4", "u31_42", "u1234",
                "2_4_1_3", "u12u34"]
    for pi in (pi for n in range(1, 7) for pi in iter_perms(n)):
        for literal in literals:
            pat = parse_vincular(literal)
            glued = {p - 1 for p in pat.glued}
            assert vincular_count(pi, literal) == brute_vincular(
                pi.word, pat.values, glued)


def test_vincular_syntax_errors():
    with pytest.raises(PatternSyntaxError):
        parse_vincular("")
    with pytest.raises(PatternSyntaxError):
        parse_vincular("u12345")
    with pytest.raises(PatternSyntaxError):
        parse_vincular("13")
    # Pattern letters are ASCII digits: int() would read these too.
    for literal in ("1²", "١u2"):
        with pytest.raises(PatternSyntaxError):
            parse_vincular(literal)


def _large_words():
    """Seeded random words and both monotone words at n = 1000 and 3000."""
    rng = random.Random(2024)
    for n in (1000, 3000):
        yield tuple(range(1, n + 1))
        yield tuple(range(n, 0, -1))
        for _ in range(3):
            word = list(range(1, n + 1))
            rng.shuffle(word)
            yield tuple(word)


def test_coordinate_stats_sum_to_pattern_count():
    # The per-letter sweep over pair lists and the per-pair sweep of the
    # one-glue counts share no code, so each checks the other at large n.
    perms = list(iter_perms(5)) + [Permutation(word) for word in _large_words()]
    for pi in perms:
        for which, literal in (("2-31", "2u31"), ("2-13", "2u13"), ("31-2", "u31_2")):
            assert sum(coordinate_counts(pi, which)) == vincular_count(pi, literal), (
                f"{which} on a word of size {pi.n}")


def test_avoiders_catalan_counts():
    assert sum(1 for _ in avoiders(0, (3, 1, 2))) == 1
    assert sum(1 for _ in avoiders(4, (2, 1, 3))) == 14
    assert sum(1 for _ in avoiders(6, (3, 1, 2))) == 132


def test_avoiders_against_filter():
    for pattern in ((3, 1, 2), (2, 1, 3)):
        fast = {p.word for p in avoiders(5, pattern)}
        slow = {p.word for p in iter_perms(5)
                if classical_avoids(p, pattern)}
        assert fast == slow


def test_all_registry_statistics_are_mahonian():
    for n in range(1, 6):
        expected = Counter()
        for pi in iter_perms(n):
            expected[statistic("inv")(pi)] += 1
        for name in MAHONIAN_NAMES:
            got = Counter(mahonian(pi, name) for pi in iter_perms(n))
            assert got == expected, name


def test_registry_statistics_vanish_on_the_empty_permutation():
    # [0]_q! = 1: the one permutation of S_0 has every Mahonian statistic 0.
    empty = Permutation(())
    for name in MAHONIAN_NAMES:
        assert mahonian(empty, name) == 0, name
    assert statistic("pone")(empty) == 0


def test_unknown_statistic():
    with pytest.raises(UnknownStatistic):
        statistic("nosuchstat")


def test_simple_statistics():
    pi = Permutation.from_text("231")
    assert statistic("des")(pi) == 1
    assert statistic("exc")(pi) == 2
    assert statistic("pone")(pi) == 3
    assert statistic("maj")(Permutation.from_text("123")) == 0


@given(perm_strategy)
def test_trivial_bijections_are_involutions_or_inverses(pi):
    assert trivial_bijection(trivial_bijection(pi, "r"), "r") == pi
    assert trivial_bijection(trivial_bijection(pi, "c"), "c") == pi
    assert trivial_bijection(trivial_bijection(pi, "i"), "i") == pi


@given(perm_strategy)
def test_des_plus_ascents(pi):
    lin = linear_family(pi)
    assert len(lin.Des) + len(lin.Ab) == pi.n - 1
