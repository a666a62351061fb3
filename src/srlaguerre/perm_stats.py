"""Permutation statistics.

Covers the linear family (descents, descent tops/bottoms, ascent bottoms,
descent differences and bottom sums), the cyclic family (excedances, side
numbers, inversion-entry multisets), the shifted-cyclic family (nestings and
their variant around the position of 1), vincular pattern counters, and a
registry of 35 Mahonian statistics.

The registry is a formula table, ``MAHONIAN_TABLE``: each statistic is an
integer combination of ingredients (vincular pattern counts and family
cardinalities) plus a closed-form term in n, in the manner of
Babson and Steingrimsson's pattern-sum statistics.  The ingredients are
read off the one-line word and build no family record.  The family sums
come from two letter lists, built once per word: the descents, summed by
bottoms and drops, and the excedances, summed by positions and rises.
|Ine| and |Vnest| are the sums of the side numbers and of the variant
nesting numbers, from the same word-level sweeps the families read, so
each of these numbers has one definition.  All ingredients of a word are
computed together and cached per word.  The family records, several times
dearer than a whole ingredient miss, stay the tests' independent oracle
for every family sum.

Inversions, nesting numbers and the twelve one-glue counts are read off
one sweep, ``_left_ranks``: the smaller letters before each position, the
word's inversion table.  The coordinate counts compare a letter with
adjacent pairs and the side numbers only with its own excedance or
non-excedance subword, so each keeps its own sweep.  A sweep keeps a sorted
list (``bisect`` counts the entries below a value, ``insort`` adds one):
O(n log n) comparisons plus insertions whose moves are O(n^2) in the worst
case but done in C by memmove.  Measured on one 2-vCPU Xeon with Python
3.11, this is no slower than a Fenwick tree up to n = 3,000 on random and
monotone words, and slower on monotone words from about n = 10,000.

Costs for a permutation of size n: the linear family is O(n), and the
cyclic and shifted families cost one sweep each, for the side numbers and
the left ranks.  No family multiset is expanded: each is
built from at most n (value, multiplicity) pairs, and the range unions
(Ddif, Edif, Vedif) are counted by a difference array.  The generic
vincular counter, kept for patterns of other shapes and for classical
avoidance, is O(n^k) for a pattern of length k.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, permutations as _permutations
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .histories import StepType
from .multiset import IntMultiset, _distinct, _int_token, _one_based, _with_counts, as_ints

# Enum members bound once: reading them off the class costs an attribute
# lookup on every use in the per-letter loops.
_N, _E, _DE, _S = StepType.N, StepType.E, StepType.DE, StepType.S


class NotAPermutation(ValueError):
    """Raised when a word is not a permutation of 1..n."""

    def __init__(self, word: Sequence[int]):
        super().__init__(f"not a permutation of 1..n: {tuple(word)}")
        self.word = tuple(word)


class UnknownStatistic(KeyError):
    """Raised when a statistic name is not registered."""

    def __init__(self, stat_id: str):
        super().__init__(stat_id)
        self.stat_id = stat_id


class PatternSyntaxError(ValueError):
    """Raised when a vincular pattern literal cannot be parsed."""


class Permutation:
    """A permutation of [n], stored one-line as word = (pi(1), ..., pi(n)).

    The constructor and parsers validate the word.  ``_unchecked`` is only
    for builders whose output is a permutation by construction, each
    pinned by a differential test.
    """

    __slots__ = ("word", "_inverse")

    def __init__(self, word: Iterable[int]):
        word = tuple(word)
        try:
            w = as_ints(word, "permutation entries")
        except ValueError:
            raise NotAPermutation(word) from None
        if sorted(w) != list(range(1, len(w) + 1)):
            raise NotAPermutation(w)
        self.word = w
        self._inverse: tuple[int, ...] | None = None

    @classmethod
    def _unchecked(cls, word: tuple[int, ...]) -> "Permutation":
        pi = cls.__new__(cls)
        pi.word = word
        pi._inverse = None
        return pi

    @property
    def n(self) -> int:
        return len(self.word)

    def value(self, i: int) -> int:
        """pi(i), 1-based."""
        return _one_based(self.word, i)

    @property
    def inverse_word(self) -> tuple[int, ...]:
        if self._inverse is None:
            self._inverse = _invert(self.word)
        return self._inverse

    def position(self, v: int) -> int:
        """pi^{-1}(v), 1-based."""
        return _one_based(self.inverse_word, v)

    def inverse(self) -> "Permutation":
        return Permutation._unchecked(self.inverse_word)

    def __len__(self) -> int:
        return len(self.word)

    def __iter__(self) -> Iterator[int]:
        return iter(self.word)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.word == other.word

    def __hash__(self) -> int:
        return hash(self.word)

    def __repr__(self) -> str:
        return f"Permutation({self.to_text()!r})"

    def to_text(self) -> str:
        return ",".join(str(v) for v in self.word)

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        """Parse a comma-separated word; a bare digit string is accepted for n <= 9."""
        text = text.strip()
        if not text:
            raise ValueError("empty permutation text")
        tokens = text.split(",") if "," in text else text
        try:
            values = [_int_token(token) for token in tokens]
        except ValueError:
            raise ValueError(f"cannot parse permutation {text!r}") from None
        return cls(values)

    def to_json(self) -> list[int]:
        return list(self.word)

    @classmethod
    def from_json(cls, data: Iterable[int]) -> "Permutation":
        return cls(data)


def iter_perms(n: int) -> Iterator[Permutation]:
    """All permutations of [n] in lexicographic order."""
    for word in _permutations(range(1, n + 1)):
        yield Permutation(word)


# ---------------------------------------------------------------------------
# Trivial bijections
# ---------------------------------------------------------------------------

def _reverse(word: tuple[int, ...]) -> tuple[int, ...]:
    return word[::-1]


def _complement(word: tuple[int, ...]) -> tuple[int, ...]:
    n = len(word)
    return tuple(n + 1 - v for v in word)


def _invert(word: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(word)
    for i, v in enumerate(word, start=1):
        inv[v - 1] = i
    return tuple(inv)


_TRIVIAL = {"r": _reverse, "c": _complement, "i": _invert}


def trivial_bijection(pi: Permutation, which: str) -> Permutation:
    """Apply reverse / complement / inverse, or a composition of them.

    A multi-letter name is read as a composition: ``"rci"`` means apply the
    inverse first, then complement, then reverse.
    """
    if not which or any(ch not in _TRIVIAL for ch in which):
        raise ValueError(f"unknown trivial bijection: {which!r}")
    word = pi.word
    for ch in reversed(which):
        word = _TRIVIAL[ch](word)
    return Permutation(word)


# ---------------------------------------------------------------------------
# Counting helpers shared by the families
# ---------------------------------------------------------------------------

def _range_union(ranges: Iterable[tuple[int, int]], size: int) -> IntMultiset:
    """The multiset union of the integer ranges [lo, hi), lo <= hi, inside
    1..size.

    Counted by a difference array in O(size + number of ranges), so the
    union is never expanded into a list of its entries.
    """
    diff = [0] * (size + 2)
    for lo, hi in ranges:
        diff[lo] += 1
        diff[hi] -= 1
    return _with_counts(range(1, size + 1), accumulate(diff[1:size + 1]))


def _left_ranks(letters: Sequence[int]) -> list[int]:
    """r_p for each position p: the letters before p that are smaller.

    The inversion table: it maps S_n one to one onto [0, 1) x ... x [0, n),
    and C(n,2) less its sum counts the inversions.
    """
    seen: list[int] = []
    ranks = []
    for v in letters:
        ranks.append(bisect_left(seen, v))
        insort(seen, v)
    return ranks


# ---------------------------------------------------------------------------
# Linear statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearStatRecord:
    """Descent/ascent statistics of a permutation read as a word."""

    Des: IntMultiset
    Ides: IntMultiset
    Dt: IntMultiset
    Db: IntMultiset
    Ab: IntMultiset
    Dtb: IntMultiset
    Dta: IntMultiset
    Dbb: IntMultiset
    Dba: IntMultiset
    Abb: IntMultiset
    Aba: IntMultiset
    Ddif: IntMultiset
    Dbot: IntMultiset


def linear_family(pi: Permutation) -> LinearStatRecord:
    """The linear family in O(n): no multiset holds more than n entries."""
    word = pi.word
    n = len(word)
    last = _last(word)
    des_pos: list[int] = []
    asc_bottoms: list[int] = []
    for i in range(1, n):
        a, b = word[i - 1], word[i]
        if a > b:
            des_pos.append(i)
        else:
            asc_bottoms.append(a)
    dt = [word[i - 1] for i in des_pos]
    db = [word[i] for i in des_pos]
    ides = [i for i in range(1, n) if pi.inverse_word[i - 1] > pi.inverse_word[i]]
    return LinearStatRecord(
        Des=_distinct(des_pos),
        Ides=_distinct(ides),
        Dt=_distinct(dt),
        Db=_distinct(db),
        Ab=_distinct(asc_bottoms),
        Dtb=_distinct(v for v in dt if v < last),
        Dta=_distinct(v for v in dt if v > last),
        Dbb=_distinct(v for v in db if v < last),
        Dba=_distinct(v for v in db if v > last),
        Abb=_distinct(v for v in asc_bottoms if v < last),
        Aba=_distinct(v for v in asc_bottoms if v > last),
        Ddif=_range_union(((b + 1, a + 1) for a, b in zip(dt, db)), n),
        Dbot=_with_counts(db, db),
    )


# ---------------------------------------------------------------------------
# Cyclic statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CyclicStatRecord:
    """Excedance statistics of a permutation read as a bijection."""

    Exc: IntMultiset
    Nexc: IntMultiset
    Ep: IntMultiset
    Excb: IntMultiset
    Exca: IntMultiset
    Nexcb: IntMultiset
    Nexca: IntMultiset
    Epb: IntMultiset
    Epa: IntMultiset
    Edif: IntMultiset
    Ebot: IntMultiset
    Ine: IntMultiset
    side: tuple[int, ...]
    Cpk: IntMultiset
    Cval: IntMultiset
    Cda: IntMultiset
    Cdd: IntMultiset


def side_numbers(pi: Permutation) -> tuple[int, ...]:
    """Side number of each position; see ``_side_numbers``."""
    return _side_numbers(pi.word)


def _side_numbers(word: tuple[int, ...]) -> tuple[int, ...]:
    """Side number of each position, in one sorted-list sweep per subword.

    An excedance value gets the number of larger letters to its left inside
    the excedance subword; a non-excedance value gets the number of smaller
    letters to its right inside the non-excedance subword.  Each subword is
    swept once over a sorted list of the letters seen so far, the
    excedances left to right, the non-excedances right to left: O(n log n)
    comparisons plus insertions whose moves are O(n^2) in the worst case,
    done in C.
    """
    n = len(word)
    side = [0] * n
    seen: list[int] = []
    for p, v in enumerate(word):
        if v > p + 1:
            side[p] = len(seen) - bisect_left(seen, v)
            insort(seen, v)
    seen = []
    for p in range(n - 1, -1, -1):
        v = word[p]
        if v <= p + 1:
            side[p] = bisect_left(seen, v)
            insort(seen, v)
    return tuple(side)


def cyclic_classes(pi: Permutation) -> list[StepType]:
    """The cyclic class of each value v = 1..n, as a step.

    With p = pi^{-1}(v) and q = pi(v): a cyclic valley (p > v < q) is N, a
    cyclic peak (p < v > q) S, a cyclic double descent or fixed point
    (p >= v >= q) E, and a cyclic double ascent (p < v < q) dE.
    """
    classes = []
    for v, (q, p) in enumerate(zip(pi.word, pi.inverse_word), start=1):
        if p > v < q:
            classes.append(_N)
        elif p < v > q:
            classes.append(_S)
        elif p >= v >= q:
            classes.append(_E)
        else:
            classes.append(_DE)
    return classes


def cyclic_family(pi: Permutation) -> CyclicStatRecord:
    """The cyclic family, at the cost of the side numbers."""
    word = pi.word
    n = len(word)
    last = _last(word)
    ep = [i for i in range(1, n + 1) if word[i - 1] > i]
    exc = [word[i - 1] for i in ep]
    nexc = [word[i - 1] for i in range(1, n + 1) if word[i - 1] <= i]
    side = side_numbers(pi)
    values: tuple[list[int], ...] = ([], [], [], [])
    for v, step in enumerate(cyclic_classes(pi), start=1):
        values[step].append(v)
    return CyclicStatRecord(
        Exc=_distinct(exc),
        Nexc=_distinct(nexc),
        Ep=_distinct(ep),
        Excb=_distinct(v for v in exc if v < last),
        Exca=_distinct(v for v in exc if v > last),
        Nexcb=_distinct(v for v in nexc if v < last),
        Nexca=_distinct(v for v in nexc if v > last),
        Epb=_distinct(i for i in ep if i < last),
        Epa=_distinct(i for i in ep if i > last),
        Edif=_range_union(((i + 1, word[i - 1] + 1) for i in ep), n),
        Ebot=_with_counts(ep, ep),
        Ine=_with_counts(word, side),
        side=side,
        Cpk=_distinct(values[_S]),
        Cval=_distinct(values[_N]),
        Cda=_distinct(values[_DE]),
        Cdd=_distinct(values[_E]),
    )


# ---------------------------------------------------------------------------
# Shifted-cyclic statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShiftedStatRecord:
    """Nesting statistics shifted around pone, the position of the letter 1."""

    pone: int
    nest: tuple[int, ...]
    vnest: tuple[int, ...]
    Scval: IntMultiset
    Scpk: IntMultiset
    Scda: IntMultiset
    Scdd: IntMultiset
    Nep: IntMultiset
    Vnex: IntMultiset
    Vnepb: IntMultiset
    Vnepa: IntMultiset
    Vnexb: IntMultiset
    Vnexa: IntMultiset
    Vepb: IntMultiset
    Vepa: IntMultiset
    Vedif: IntMultiset
    Vbot: IntMultiset
    Vnest: IntMultiset


def nesting_numbers(pi: Permutation) -> tuple[int, ...]:
    """nest_i for each position; see ``_nesting_numbers``."""
    return _nesting_numbers(pi.word, _left_ranks(pi.word))


def _nesting_numbers(word: tuple[int, ...], ranks: Sequence[int]) -> tuple[int, ...]:
    """nest_i: nestings with i as the inner endpoint, from the left ranks.

    An excedance i counts the larger letters to its left, i - 1 - r_i.  A
    non-excedance i counts the smaller letters to its right, the v - 1
    letters below v = pi(i) less the r_i to its left.
    """
    return tuple([(i if v > i else v) - 1 - r
                  for i, (v, r) in enumerate(zip(word, ranks), start=1)])


def variant_nesting_numbers(pi: Permutation) -> tuple[int, ...]:
    """vnest_i: nest_i adjusted by the position of the letter 1."""
    return _variant_nesting(pi.word, nesting_numbers(pi), _pone(pi.word))


def _variant_nesting(
    word: tuple[int, ...], nest: tuple[int, ...], pone: int
) -> tuple[int, ...]:
    """nest_i less one for a non-excedance i before pone, and plus one for
    an excedance i after pone."""
    vnest = list(nest)
    for i in range(1, pone):
        if word[i - 1] <= i:
            vnest[i - 1] -= 1
    for i in range(pone + 1, len(word) + 1):
        if word[i - 1] > i:
            vnest[i - 1] += 1
    return tuple(vnest)


def shifted_classes(pi: Permutation) -> list[StepType]:
    """The shifted class of each i in [n-1], as a step.

    i rises on the left when pi(i) > i and on the right when
    i + 1 <= pi^{-1}(i+1): a shifted valley (both) is N, a shifted peak
    (neither) S, a left rise alone E and a right rise alone dE.
    """
    word = pi.word
    inverse = pi.inverse_word
    classes = []
    for i in range(1, len(word)):
        up_right = i + 1 <= inverse[i]
        if word[i - 1] > i:
            classes.append(_N if up_right else _E)
        else:
            classes.append(_DE if up_right else _S)
    return classes


def shifted_family(pi: Permutation) -> ShiftedStatRecord:
    """The shifted-cyclic family, at the cost of the nestings."""
    word = pi.word
    n = len(word)
    pone = _pone(word)
    nest = nesting_numbers(pi)
    vnest = _variant_nesting(word, nest, pone)
    ep = [i for i in range(1, n + 1) if word[i - 1] > i]
    nep = [i for i in range(1, n + 1) if word[i - 1] <= i]
    indices: tuple[list[int], ...] = ([], [], [], [])
    for i, step in enumerate(shifted_classes(pi), start=1):
        indices[step].append(i)
    # i + 1 is no excedance value exactly when i rises on the right.
    vnex = sorted(indices[_N] + indices[_DE])
    vedif = [(i + 1, word[i - 1]) for i in ep]
    vedif.append((pone + 1, n + 1))
    return ShiftedStatRecord(
        pone=pone,
        nest=nest,
        vnest=vnest,
        Scval=_distinct(indices[_N]),
        Scpk=_distinct(indices[_S]),
        Scda=_distinct(indices[_E]),
        Scdd=_distinct(indices[_DE]),
        Nep=_distinct(nep),
        Vnex=_distinct(vnex),
        Vnepb=_distinct(i for i in nep if i < pone),
        Vnepa=_distinct(i for i in nep if i > pone),
        Vnexb=_distinct(i for i in vnex if i < pone),
        Vnexa=_distinct(i for i in vnex if i > pone),
        Vepb=_distinct(i for i in ep if i < pone),
        Vepa=_distinct(i for i in ep if i > pone),
        Vedif=_range_union(vedif, n),
        Vbot=_with_counts(vnex, vnex),
        Vnest=_with_counts(range(1, n + 1), vnest),
    )


# ---------------------------------------------------------------------------
# Vincular patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VincularPattern:
    """A pattern whose glued positions must land on adjacent host letters.

    ``glued`` holds positions p (1-based) meaning pattern letters p and p+1
    must be adjacent in the host.
    """

    values: tuple[int, ...]
    glued: frozenset[int]

    def __post_init__(self):
        k = len(self.values)
        if sorted(self.values) != list(range(1, k + 1)) or k > 4:
            raise PatternSyntaxError(f"bad pattern values: {self.values}")
        if any(p < 1 or p > k - 1 for p in self.glued):
            raise PatternSyntaxError(f"glued positions out of range: {self.glued}")


@lru_cache(maxsize=128)
def parse_vincular(literal: str) -> VincularPattern:
    """Parse a pattern literal such as ``2u31`` or ``u31_2``.

    ASCII digits are pattern letters; ``u`` glues the digit run that follows it
    (terminated by ``_``, another ``u``, or end of string); ``_`` is a
    separator carrying no adjacency requirement.  Patterns are immutable,
    so a literal is parsed once and reused by ``vincular_count``.
    """
    values: list[int] = []
    glued: set[int] = set()
    in_run = False
    run_start = 0
    for ch in literal:
        if ch == "u":
            in_run = True
            run_start = len(values) + 1
        elif ch == "_":
            in_run = False
        elif "0" <= ch <= "9":
            values.append(int(ch))
            if in_run and len(values) > run_start:
                glued.add(len(values) - 1)
        else:
            raise PatternSyntaxError(f"bad character {ch!r} in pattern {literal!r}")
    if not values:
        raise PatternSyntaxError(f"empty pattern literal {literal!r}")
    return VincularPattern(tuple(values), frozenset(glued))


def _des(word: tuple[int, ...]) -> int:
    return sum(1 for a, b in zip(word, word[1:]) if a > b)


def _one_glue_counts(word: tuple[int, ...], ranks: Sequence[int]) -> dict[str, int]:
    """The twelve length-3 patterns with one glued pair, from the left ranks.

    For the pair x, y at host positions j, j+1, the letters before j below
    the pair's low letter and below its high letter are r_j and
    r_{j+1} - 1 for a rise, r_{j+1} and r_j for a fall; their differences
    count the letters before j below, between and above the pair.  The
    letters of a rank after the pair are all letters of that rank less
    those before it.  A pattern glued at 2 (``1u23``) takes its free letter
    before the pair, one glued at 1 (``u23_1``) after it.
    """
    n = len(word)
    # Over the rising pairs, then the falling ones: the letters before a
    # pair below, between and above it, the pairs, and their low and high
    # letters summed.
    r1 = r2 = r3 = rises = r_lo = r_hi = 0
    f1 = f2 = f3 = falls = f_lo = f_hi = 0
    for j in range(n - 1):
        x, y = word[j], word[j + 1]
        if x < y:
            below, upto = ranks[j], ranks[j + 1] - 1
            r1, r2, r3 = r1 + below, r2 + upto - below, r3 + j - upto
            rises, r_lo, r_hi = rises + 1, r_lo + x, r_hi + y
        else:
            below, upto = ranks[j + 1], ranks[j]
            f1, f2, f3 = f1 + below, f2 + upto - below, f3 + j - upto
            falls, f_lo, f_hi = falls + 1, f_lo + y, f_hi + x
    # A pair (lo, hi) has lo - 1, hi - lo - 1 and n - hi letters of the
    # three ranks in all.
    return {
        "1u23": r1, "2u13": r2, "3u12": r3, "1u32": f1, "2u31": f2, "3u21": f3,
        "u23_1": r_lo - rises - r1, "u32_1": f_lo - falls - f1,
        "u13_2": r_hi - r_lo - rises - r2, "u31_2": f_hi - f_lo - falls - f2,
        "u12_3": n * rises - r_hi - r3, "u21_3": n * falls - f_hi - f3,
    }


# Each one-glue length-3 pattern, whatever its spelling, by its literal
# among the counts of ``_one_glue_counts``.
_ONE_GLUE = {parse_vincular(literal): literal for literal in _one_glue_counts((), ())}


def _count_generic(word: tuple[int, ...], values: tuple[int, ...], glued: frozenset[int]) -> int:
    n = len(word)
    k = len(values)
    count = 0

    def rank_pattern(letters: list[int]) -> tuple[int, ...]:
        order = sorted(letters)
        return tuple(order.index(v) + 1 for v in letters)

    def extend(positions: list[int]) -> None:
        nonlocal count
        depth = len(positions)
        if depth == k:
            if rank_pattern([word[p] for p in positions]) == values:
                count += 1
            return
        if depth == 0:
            candidates = range(n - k + 1)
        elif depth in glued:
            candidates = [positions[-1] + 1]
        else:
            candidates = range(positions[-1] + 1, n)
        for p in candidates:
            if p < n:
                extend(positions + [p])

    extend([])
    return count


def vincular_count(pi: Permutation, pattern: VincularPattern | str) -> int:
    """Number of occurrences of a vincular pattern in pi.

    The classical ``12`` is the sum of the left ranks.  A length-3 pattern
    with one glued pair, whatever its spelling (``2u31`` or ``2_u31``), is
    read off ``_one_glue_counts``.
    """
    if isinstance(pattern, str):
        pattern = parse_vincular(pattern)
    word = pi.word
    n = len(word)
    values, glued = pattern.values, pattern.glued
    k = len(values)
    if k == 1:
        return n
    if k == 2:
        if 1 in glued:
            des = _des(word)
            return des if values == (2, 1) else max(n - 1, 0) - des
        rises = sum(_left_ranks(word))
        return rises if values == (1, 2) else n * (n - 1) // 2 - rises
    if pattern in _ONE_GLUE:
        return _one_glue_counts(word, _left_ranks(word))[_ONE_GLUE[pattern]]
    return _count_generic(word, values, glued)


# Coordinate statistics: (adjacent pair is an ascent, sweep from the right).
_COORDINATES = {
    "2-13": (True, True),
    "2-31": (False, True),
    "31-2": (False, False),
}


def coordinate_counts(pi: Permutation, which: str) -> tuple[int, ...]:
    """The coordinate statistic ``which`` at every position.

    ``2-13`` counts j with i < j < n and pi(j) < pi(i) < pi(j+1);
    ``2-31`` counts j with i < j < n and pi(j+1) < pi(i) < pi(j);
    ``31-2`` counts j with j < i-1 and pi(j+1) < pi(i) < pi(j).

    One sweep over the positions keeps the serving adjacent pairs seen so
    far (ascents for ``2-13``, descents otherwise) as two sorted lists, one
    of their low letters and one of their high letters.  A value v lies
    strictly between the letters of bisect_left(los, v) - bisect_right(his,
    v) of them, since every pair with its high letter below or at v also
    has its low letter below v.  ``2-13`` and ``2-31`` sweep right to left,
    ``31-2`` left to right, and the pair (p, p+1) is added right after
    position p is counted.  A pair counts 0 at its own letters, so the
    sweeps need no other exclusion.  O(n log n) comparisons plus insertions
    whose moves are O(n^2) in the worst case, done in C.
    """
    try:
        rising, from_right = _COORDINATES[which]
    except KeyError:
        raise ValueError(f"unknown coordinate statistic: {which!r}") from None
    word = pi.word
    n = len(word)
    los: list[int] = []
    his: list[int] = []
    counts = [0] * n
    for p in (range(n - 1, -1, -1) if from_right else range(n)):
        v = word[p]
        counts[p] = bisect_left(los, v) - bisect_right(his, v)
        if p < n - 1:
            b = word[p + 1]
            if (v < b) == rising:
                lo, hi = (v, b) if v < b else (b, v)
                insort(los, lo)
                insort(his, hi)
    return tuple(counts)


def pattern_multisets(pi: Permutation) -> tuple[IntMultiset, IntMultiset, IntMultiset]:
    """The multisets 2-13, 2-31, 31-2: value pi(i) with its coordinate count.

    Three sorted-list sweeps; each multiset is built from at most n
    (value, count) pairs.
    """
    m13, m31, m312 = (
        _with_counts(pi.word, coordinate_counts(pi, which)) for which in _COORDINATES
    )
    return m13, m31, m312


# ---------------------------------------------------------------------------
# Mahonian statistic registry
# ---------------------------------------------------------------------------

def _exc(word: tuple[int, ...]) -> int:
    return sum(1 for i, v in enumerate(word, start=1) if v > i)


def _pone(word: tuple[int, ...]) -> int:
    return word.index(1) + 1 if word else 0


def _last(word: tuple[int, ...]) -> int:
    return word[-1] if word else 0


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


@lru_cache(maxsize=4096)
def _ingredients(word: tuple[int, ...]) -> dict[str, int]:
    """Every ingredient value of a word.

    The twelve one-glue counts, inv and |Vnest| are read off one left-rank
    table, and the family sums off two letter lists: the descents as (top,
    bottom) pairs and the excedances as (position, value) pairs.  |Vedif|
    counts each excedance's range [i+1, v) and the n - pone letters after
    the position of 1; |Vbot| counts, i times, each i in [n-1] whose
    successor is no excedance value.

    Everything runs on a miss, so a miss costs the same whichever
    statistic asked for it.  The cache serves callers that evaluate several
    statistics of one permutation through separate calls, as
    joint_distribution does.
    """
    n = len(word)
    pone = _pone(word)
    ranks = _left_ranks(word)
    g = _one_glue_counts(word, ranks)
    g["inv"] = n * (n - 1) // 2 - sum(ranks)
    g["vnest"] = sum(_variant_nesting(word, _nesting_numbers(word, ranks), pone))
    drops = [(a, b) for a, b in zip(word, word[1:]) if a > b]
    excs = [(i, v) for i, v in enumerate(word, start=1) if v > i]
    dbot = sum(b for _, b in drops)
    ebot = sum(i for i, _ in excs)
    edif = sum(v for _, v in excs) - ebot
    position = _invert(word)
    g.update(
        n=n, last=_last(word), pone=pone,
        u21=len(drops), dbot=dbot, ddif=sum(a for a, _ in drops) - dbot,
        exc=len(excs), ebot=ebot, edif=edif,
        ine=sum(_side_numbers(word)),
        vbot=sum(i for i in range(1, n) if position[i] > i),
        vedif=edif - len(excs) + n - pone,
        sor=_sorting_index(word),
    )
    return g


class MahonianFormula(NamedTuple):
    """A statistic as integer data over the registry's ingredients.

    Its value is k0 + k1*n + k2*C(n,2) for ``const`` = (k0, k1, k2), plus
    (c0 + c1*n) * ingredient for each (ingredient, c0, c1) in ``terms``.
    """

    terms: tuple[tuple[str, int, int], ...]
    const: tuple[int, int, int] = (0, 0, 0)

    def evaluate(self, g: dict[str, int]) -> int:
        n = g["n"]
        k0, k1, k2 = self.const
        value = k0 + k1 * n + k2 * (n * (n - 1) // 2)
        for name, c0, c1 in self.terms:
            value += (c0 + c1 * n) * g[name]
        return value


# Registry order is the order claims report failures in.
MAHONIAN_TABLE: dict[str, MahonianFormula] = {
    "maj": MahonianFormula((
        ("1u32", 1, 0), ("2u31", 1, 0), ("3u21", 1, 0), ("u21", 1, 0))),
    "inv": MahonianFormula((
        ("u23_1", 1, 0), ("u31_2", 1, 0), ("u32_1", 1, 0), ("u21", 1, 0))),
    "mak": MahonianFormula((("dbot", 1, 0), ("2u31", 1, 0))),
    "makl": MahonianFormula((("dbot", 1, 0), ("u31_2", 1, 0))),
    "mad": MahonianFormula((("ddif", 1, 0), ("2u31", 1, 0))),
    "madl": MahonianFormula((("ddif", 1, 0), ("u31_2", 1, 0))),
    "bast": MahonianFormula((
        ("u13_2", 1, 0), ("u21_3", 1, 0), ("u32_1", 1, 0), ("u21", 1, 0))),
    "bast_p": MahonianFormula((
        ("u13_2", 1, 0), ("u31_2", 1, 0), ("u32_1", 1, 0), ("u21", 1, 0))),
    "bast_pp": MahonianFormula((
        ("1u32", 1, 0), ("3u12", 1, 0), ("3u21", 1, 0), ("u21", 1, 0))),
    "foze": MahonianFormula((
        ("u21_3", 1, 0), ("3u21", 1, 0), ("u13_2", 1, 0), ("u21", 1, 0))),
    "foze_p": MahonianFormula((("1u32", 1, 0), ("2u31", 2, 0), ("u21", 1, 0))),
    "foze_pp": MahonianFormula((
        ("u23_1", 1, 0), ("u31_2", 2, 0), ("u21", 1, 0))),
    "sist": MahonianFormula((("u13_2", 2, 0), ("2u13", 1, 0), ("u21", 1, 0))),
    "sist_p": MahonianFormula((
        ("u13_2", 2, 0), ("2u31", 1, 0), ("u21", 1, 0))),
    "sist_pp": MahonianFormula((
        ("u13_2", 1, 0), ("2u31", 2, 0), ("u21", 1, 0))),
    "den": MahonianFormula((("ebot", 1, 0), ("ine", 1, 0))),
    "sor": MahonianFormula((("sor", 1, 0),)),
    "mak_p": MahonianFormula((
        ("dbot", 1, 0), ("2u31", 1, 0), ("u21", 1, -1), ("last", 1, 0)),
        (0, -1, 1)),
    "mad_p": MahonianFormula((
        ("ddif", 1, 0), ("2u31", 1, 0), ("last", 2, 0)),
        (-1, -1, 0)),
    "makl_p": MahonianFormula((
        ("dbot", 1, 0), ("u31_2", 1, 0), ("u21", 0, -1)),
        (0, 0, 1)),
    "madl_p": MahonianFormula((
        ("ddif", 1, 0), ("u31_2", 1, 0), ("u21", -1, 0), ("last", 1, 0)),
        (-1, 0, 0)),
    "fz3": MahonianFormula((
        ("ebot", 1, 0), ("edif", 1, 0), ("exc", -1, 0), ("ine", -1, 0))),
    "fz4": MahonianFormula((("edif", 2, 0), ("exc", -1, 0), ("ine", -1, 0))),
    "inv_p": MahonianFormula((("inv", 1, 0), ("last", 2, 0)), (-1, -1, 0)),
    "den_p": MahonianFormula((
        ("ebot", 1, 0), ("ine", 1, 0), ("exc", 1, -1), ("last", 1, 0)),
        (0, -1, 1)),
    "fz3_p": MahonianFormula((
        ("ebot", 1, 0), ("edif", 1, 0), ("exc", -1, -1), ("ine", -1, 0)),
        (0, 0, 1)),
    "fz4_p": MahonianFormula((
        ("edif", 2, 0), ("exc", -2, 0), ("ine", -1, 0), ("last", 1, 0)),
        (-1, 0, 0)),
    "yzl1": MahonianFormula((("vbot", 1, 0), ("vnest", 1, 0))),
    "yzl2": MahonianFormula((("vedif", 1, 0), ("vnest", 1, 0))),
    "yzl3": MahonianFormula((
        ("vbot", 1, 0), ("vedif", 1, 0), ("exc", 1, 0), ("vnest", -1, 0)),
        (1, -1, 0)),
    "yzl4": MahonianFormula((
        ("vedif", 2, 0), ("exc", 1, 0), ("vnest", -1, 0)),
        (1, -1, 0)),
    "yzl1_p": MahonianFormula((
        ("vbot", 1, 0), ("vnest", 1, 0), ("exc", -1, 1), ("pone", 1, 0)),
        (-1, 0, -1)),
    "yzl2_p": MahonianFormula((
        ("vedif", 1, 0), ("vnest", 1, 0), ("pone", 2, 0)),
        (-1, -1, 0)),
    "yzl3_p": MahonianFormula((
        ("vbot", 1, 0), ("vedif", 1, 0), ("exc", 1, 1), ("vnest", -1, 0)),
        (1, -1, -1)),
    "yzl4_p": MahonianFormula((
        ("vedif", 2, 0), ("exc", 2, 0), ("vnest", -1, 0), ("pone", 1, 0)),
        (1, -2, 0)),
}

MAHONIAN_NAMES: tuple[str, ...] = tuple(MAHONIAN_TABLE)


def mahonian(pi: Permutation, stat_id: str) -> int:
    """Evaluate a registered Mahonian statistic.

    The table's constants are claimed for n >= 1 only.  On S_0 every
    statistic is 0, since [0]_q! = 1.
    """
    formula = MAHONIAN_TABLE.get(stat_id)
    if formula is None:
        raise UnknownStatistic(stat_id)
    if not pi.n:
        return 0
    return formula.evaluate(_ingredients(pi.word))


_SIMPLE_STATS: dict[str, Callable[[Permutation], int]] = {
    "des": lambda pi: _des(pi.word),
    "ides": lambda pi: _des(pi.inverse_word),
    "exc": lambda pi: _exc(pi.word),
    "nexc": lambda pi: pi.n - _exc(pi.word),
    "pone": lambda pi: _pone(pi.word),
    "last": lambda pi: _last(pi.word),
}


def statistic(name: str) -> Callable[[Permutation], int]:
    """Resolve a statistic name to a callable.

    Accepts the Mahonian registry names, the simple names des / ides / exc /
    nexc / pone / last, and vincular pattern literals.
    """
    if name in MAHONIAN_TABLE:
        return lambda pi: mahonian(pi, name)
    if name in _SIMPLE_STATS:
        return _SIMPLE_STATS[name]
    try:
        pattern = parse_vincular(name)
    except PatternSyntaxError:
        raise UnknownStatistic(name) from None
    return lambda pi: vincular_count(pi, pattern)


# ---------------------------------------------------------------------------
# Classical pattern avoidance
# ---------------------------------------------------------------------------

def classical_avoids(pi: Permutation, pattern: Sequence[int]) -> bool:
    """True iff pi has no classical occurrence of the pattern."""
    return _count_generic(pi.word, Permutation(pattern).word, frozenset()) == 0


def _gen_312_avoiding(values: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Words over an ascending value tuple avoiding the pattern 312.

    A word avoids 312 exactly when, splitting at its minimum, everything
    before the minimum is smaller than everything after it, and both parts
    avoid 312 recursively.
    """
    if not values:
        yield ()
        return
    m, rest = values[0], values[1:]
    for j in range(len(rest) + 1):
        for alpha in _gen_312_avoiding(rest[:j]):
            for beta in _gen_312_avoiding(rest[j:]):
                yield alpha + (m,) + beta


def avoiders(n: int, pattern: Sequence[int]) -> Iterator[Permutation]:
    """All permutations of [n] avoiding the classical pattern."""
    pat = Permutation(pattern).word
    values = tuple(range(1, n + 1))
    if pat == (3, 1, 2):
        for word in _gen_312_avoiding(values):
            yield Permutation._unchecked(word)
    elif pat == (2, 1, 3):
        for word in _gen_312_avoiding(values):
            yield Permutation._unchecked(word[::-1])
    else:
        for pi in iter_perms(n):
            if classical_avoids(pi, pat):
                yield pi


# ---------------------------------------------------------------------------
# Helpers shared with the encodings and valley hopping
# ---------------------------------------------------------------------------

def linear_class(word: Sequence[int], p: int, left: int, right: int) -> StepType:
    """The linear class of the letter at 1-based position p, as a step:
    valley N, peak S, double ascent E, double descent dE.

    ``left`` and ``right`` are the boundary values used beyond the ends of
    the word (e.g. 0 and n+1 for smaller-than-all / larger-than-all).
    """
    v = word[p - 1]
    a = word[p - 2] if p > 1 else left
    b = word[p] if p < len(word) else right
    if a < v > b:
        return _S
    if a > v < b:
        return _N
    if a < v < b:
        return _E
    return _DE


def in_order(left: Sequence[int], right: Sequence[int], root: int) -> tuple[int, ...]:
    """The values of a binary tree read in order, from ``root`` (0 for the
    empty tree); ``left[v]`` and ``right[v]`` are the children of v, 0 for
    none.  O(n) with an explicit stack.
    """
    out: list[int] = []
    stack: list[int] = []
    v = root
    while True:
        while v:
            stack.append(v)
            v = left[v]
        if not stack:
            return tuple(out)
        v = stack.pop()
        out.append(v)
        v = right[v]
