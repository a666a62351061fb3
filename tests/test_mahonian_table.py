"""The Mahonian formula table against its reference implementation.

``_reference_ingredients`` and ``_reference_value`` are the registry as it
was before the table: every ingredient read off the O(n^2) pattern counters
that ``vincular_count`` used then and the three statistic families, and one
branch per statistic.  The table, every ingredient it computes and
``vincular_count`` must agree with them on all of S_n for small n and on
seeded random permutations of size 50 and 300.  Two rows, yzl2_p and
yzl4_p, are pinned pointwise to inv and fz4.  The dict-based
``_sorting_index`` below is also the oracle of the position-list one in
``src/``, on Hypothesis permutations of size up to 1000.  The perturbation
test checks that the Mahonian claims notice any one-unit change to the
table.
"""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srlaguerre import perm_stats
from srlaguerre.claims import run_claim
from srlaguerre.perm_stats import (
    _ingredients,
    MAHONIAN_NAMES,
    MAHONIAN_TABLE,
    Permutation,
    UnknownStatistic,
    cyclic_family,
    iter_perms,
    linear_family,
    mahonian,
    parse_vincular,
    shifted_family,
    vincular_count,
)

_REGISTRY_PATTERNS = (
    "u21", "u12", "1u23", "1u32", "2u31", "2u13", "3u21", "3u12",
    "u23_1", "u31_2", "u32_1", "u13_2", "u21_3", "u12_3",
)


_TABLE_INGREDIENTS = {
    name for formula in MAHONIAN_TABLE.values() for name, _, _ in formula.terms}


def _stratum_count(letters, rank: int, lo: int, hi: int) -> int:
    """Count letters that could play pattern rank ``rank`` against {lo, hi}."""
    if rank == 1:
        return sum(1 for u in letters if u < lo)
    if rank == 2:
        return sum(1 for u in letters if lo < u < hi)
    return sum(1 for u in letters if u > hi)


def _slow_pattern_count(word: tuple[int, ...], literal: str) -> int:
    """A registry pattern (two glued letters, or three with one glued
    pair) counted letter by letter, in O(n^2)."""
    pattern = parse_vincular(literal)
    values = pattern.values
    n = len(word)
    if len(values) == 2:
        descending = values == (2, 1)
        return sum(1 for i in range(n - 1) if (word[i] > word[i + 1]) == descending)
    (glue,) = pattern.glued
    a, b, c = values
    total = 0
    if glue == 2:
        for j in range(1, n - 1):
            x, y = word[j], word[j + 1]
            if (x < y) != (b < c):
                continue
            lo, hi = min(x, y), max(x, y)
            total += _stratum_count(word[:j], a, lo, hi)
    else:
        for j in range(n - 1):
            x, y = word[j], word[j + 1]
            if (x < y) != (a < b):
                continue
            lo, hi = min(x, y), max(x, y)
            total += _stratum_count(word[j + 2:], c, lo, hi)
    return total


def _sorting_index(word: tuple[int, ...]) -> int:
    """Sum of swap lengths when selection-sorting the largest letter home."""
    w = list(word)
    pos = {v: i for i, v in enumerate(w)}
    total = 0
    for v in range(len(w), 0, -1):
        i = pos[v]
        if i != v - 1:
            other = w[v - 1]
            w[i], w[v - 1] = other, v
            pos[other], pos[v] = i, v - 1
            total += (v - 1) - i
    return total


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=1, max_value=1000).flatmap(
    lambda n: st.permutations(range(1, n + 1))).map(tuple))
def test_sorting_index_matches_dict_oracle(word):
    assert perm_stats._sorting_index(word) == _sorting_index(word)


def _reference_ingredients(word: tuple[int, ...]) -> dict[str, int]:
    """All numeric ingredients the Mahonian registry draws from."""
    pi = Permutation(word)
    n = len(word)
    g: dict[str, int] = {"n": n, "last": word[-1] if n else 0}
    for literal in _REGISTRY_PATTERNS:
        g[literal] = _slow_pattern_count(word, literal)
    lin = linear_family(pi)
    g["des"] = len(lin.Des)
    g["dbot"] = len(lin.Dbot)
    g["ddif"] = len(lin.Ddif)
    cyc = cyclic_family(pi)
    g["exc"] = len(cyc.Exc)
    g["ebot"] = len(cyc.Ebot)
    g["edif"] = len(cyc.Edif)
    g["ine"] = len(cyc.Ine)
    sh = shifted_family(pi)
    g["pone"] = sh.pone
    g["vbot"] = len(sh.Vbot)
    g["vedif"] = len(sh.Vedif)
    g["vnest"] = len(sh.Vnest)
    g["inv"] = sum(
        1 for i in range(n) for j in range(i + 1, n) if word[i] > word[j]
    )
    g["sor"] = _sorting_index(word)
    return g


def _reference_value(g: dict[str, int], name: str) -> int:
    n = g["n"]
    if name == "maj":
        return g["1u32"] + g["2u31"] + g["3u21"] + g["u21"]
    if name == "inv":
        return g["u23_1"] + g["u31_2"] + g["u32_1"] + g["u21"]
    if name == "mak":
        return g["dbot"] + g["2u31"]
    if name == "makl":
        return g["dbot"] + g["u31_2"]
    if name == "mad":
        return g["ddif"] + g["2u31"]
    if name == "madl":
        return g["ddif"] + g["u31_2"]
    if name == "bast":
        return g["u13_2"] + g["u21_3"] + g["u32_1"] + g["u21"]
    if name == "bast_p":
        return g["u13_2"] + g["u31_2"] + g["u32_1"] + g["u21"]
    if name == "bast_pp":
        return g["1u32"] + g["3u12"] + g["3u21"] + g["u21"]
    if name == "foze":
        return g["u21_3"] + g["3u21"] + g["u13_2"] + g["u21"]
    if name == "foze_p":
        return g["1u32"] + 2 * g["2u31"] + g["u21"]
    if name == "foze_pp":
        return g["u23_1"] + 2 * g["u31_2"] + g["u21"]
    if name == "sist":
        return 2 * g["u13_2"] + g["2u13"] + g["u21"]
    if name == "sist_p":
        return 2 * g["u13_2"] + g["2u31"] + g["u21"]
    if name == "sist_pp":
        return g["u13_2"] + 2 * g["2u31"] + g["u21"]
    if name == "den":
        return g["ebot"] + g["ine"]
    if name == "sor":
        return g["sor"]
    if name == "mak_p":
        return (_reference_value(g, "mak") + (1 - n) * g["des"]
                + g["last"] + n * (n - 3) // 2)
    if name == "mad_p":
        return _reference_value(g, "mad") + 2 * g["last"] - n - 1
    if name == "makl_p":
        return _reference_value(g, "makl") - n * g["des"] + n * (n - 1) // 2
    if name == "madl_p":
        return _reference_value(g, "madl") - g["des"] + g["last"] - 1
    if name == "fz3":
        return g["ebot"] + g["edif"] - g["exc"] - g["ine"]
    if name == "fz4":
        return 2 * g["edif"] - g["exc"] - g["ine"]
    if name == "inv_p":
        return g["inv"] + 2 * g["last"] - 1 - n
    if name == "den_p":
        return (_reference_value(g, "den") + (1 - n) * g["exc"]
                + g["last"] + n * (n - 3) // 2)
    if name == "fz3_p":
        return _reference_value(g, "fz3") - n * g["exc"] + n * (n - 1) // 2
    if name == "fz4_p":
        return _reference_value(g, "fz4") - g["exc"] + g["last"] - 1
    if name == "yzl1":
        return g["vbot"] + g["vnest"]
    if name == "yzl2":
        return g["vedif"] + g["vnest"]
    if name == "yzl3":
        return g["vbot"] + g["vedif"] - (n - 1 - g["exc"]) - g["vnest"]
    if name == "yzl4":
        return 2 * g["vedif"] - (n - 1 - g["exc"]) - g["vnest"]
    if name == "yzl1_p":
        return (_reference_value(g, "yzl1") + (n - 1) * g["exc"]
                + g["pone"] + (-n * n + n - 2) // 2)
    if name == "yzl2_p":
        return _reference_value(g, "yzl2") + 2 * g["pone"] - n - 1
    if name == "yzl3_p":
        return _reference_value(g, "yzl3") + n * g["exc"] - n * (n - 1) // 2
    if name == "yzl4_p":
        return _reference_value(g, "yzl4") + g["exc"] + g["pone"] - n
    raise UnknownStatistic(name)


def _random_words(n: int, count: int, seed: int) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        word = list(range(1, n + 1))
        rng.shuffle(word)
        words.append(tuple(word))
    return words


def _sample(n: int) -> list[tuple[int, ...]]:
    """All of S_n up to n = 7, seeded random words beyond, and at n = 300
    also the two monotone words."""
    if n <= 7:
        return [pi.word for pi in iter_perms(n)]
    words = _random_words(n, {50: 20, 300: 3}[n], seed=n)
    if n == 300:
        words += [tuple(range(1, n + 1)), tuple(range(n, 0, -1))]
    return words


SIZES = (1, 2, 3, 4, 5, 6, 7, 50, 300)


@pytest.mark.parametrize("n", SIZES)
def test_table_matches_reference(n: int) -> None:
    for word in _sample(n):
        g = _reference_ingredients(word)
        pi = Permutation(word)
        for name in MAHONIAN_NAMES:
            assert mahonian(pi, name) == _reference_value(g, name), (
                f"{name} disagrees on {pi.to_text()}")


@pytest.mark.parametrize("n", SIZES)
def test_kernels_match_family_cardinalities(n: int) -> None:
    for word in _sample(n):
        g = _reference_ingredients(word)
        got = _ingredients.__wrapped__(word)
        # The registry counts |Des| under its pattern name u21, and computes
        # every ingredient the table reads, plus n.
        assert _TABLE_INGREDIENTS | {"n"} <= set(got)
        assert got["u21"] == g["des"], f"|Des| disagrees on {word}"
        for name, value in got.items():
            assert value == g[name], f"{name} disagrees on {word}"
        pi = Permutation(word)
        for literal in _REGISTRY_PATTERNS:
            assert vincular_count(pi, literal) == g[literal], (
                f"vincular_count({literal}) disagrees on {word}")


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6, 7, 300))
def test_two_rows_equal_other_rows(n: int) -> None:
    # yzl2_p = inv and yzl4_p = fz4 pointwise, although the table writes
    # them as different formulas.
    words = _sample(n) if n <= 7 else _random_words(n, 10, seed=4111)
    for word in words:
        pi = Permutation(word)
        assert mahonian(pi, "yzl2_p") == mahonian(pi, "inv"), pi.to_text()
        assert mahonian(pi, "yzl4_p") == mahonian(pi, "fz4"), pi.to_text()


def test_registry_order_and_names() -> None:
    # Claims report the first failing name in this order.
    assert MAHONIAN_NAMES == (
        "maj", "inv", "mak", "makl", "mad", "madl",
        "bast", "bast_p", "bast_pp", "foze", "foze_p", "foze_pp",
        "sist", "sist_p", "sist_pp", "den", "sor",
        "mak_p", "mad_p", "makl_p", "madl_p", "fz3", "fz4",
        "inv_p", "den_p", "fz3_p", "fz4_p",
        "yzl1", "yzl2", "yzl3", "yzl4",
        "yzl1_p", "yzl2_p", "yzl3_p", "yzl4_p",
    )
    with pytest.raises(UnknownStatistic):
        mahonian(Permutation.from_text("21"), "mak_pp")


def _perturbations():
    """Every table entry moved by +1 and by -1, one at a time."""
    for name, formula in MAHONIAN_TABLE.items():
        for k in range(3):
            for delta in (1, -1):
                const = list(formula.const)
                const[k] += delta
                yield name, f"const[{k}]{delta:+d}", formula._replace(const=tuple(const))
        for t, (ingredient, c0, c1) in enumerate(formula.terms):
            for which, (d0, d1) in (("c0", (1, 0)), ("c1", (0, 1))):
                for delta in (1, -1):
                    terms = list(formula.terms)
                    terms[t] = (ingredient, c0 + delta * d0, c1 + delta * d1)
                    yield (name, f"{ingredient}.{which}{delta:+d}",
                           formula._replace(terms=tuple(terms)))


def test_every_table_perturbation_is_caught() -> None:
    # All 654 one-unit changes fail a table claim by n = 3 (176 at n = 1,
    # 278 at n = 2, 200 at n = 3), so every term and constant of every row
    # is pinned at sizes that run in well under a second.
    missed = []
    count = 0
    for name, label, corrupted in _perturbations():
        original = MAHONIAN_TABLE[name]
        MAHONIAN_TABLE[name] = corrupted
        try:
            detected = any(
                run_claim(claim, n).status == "fail"
                for n in range(1, 4)
                for claim in ("tab2-mahonian", "tab3-mahonian"))
        finally:
            MAHONIAN_TABLE[name] = original
        count += 1
        if not detected:
            missed.append(f"{name} {label}")
    assert not missed, f"undetected table corruptions: {missed}"
    assert count == 654
