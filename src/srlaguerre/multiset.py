"""Exact multiset arithmetic over positive integers.

All statistics in this package are either integers or finite multisets of
positive integers.  ``IntMultiset`` is immutable and hashable; the two
combining operations are the disjoint union and a *strict* difference that
raises if the subtrahend is not contained in the minuend (silently clamping
would hide bookkeeping bugs in the identities this package verifies).

The public constructors (``IntMultiset(...)``, ``from_pairs``, ``from_text``,
``from_json``) validate every entry.  ``_unchecked`` is only for builders
whose output is valid by construction, each pinned by a differential test.
"""

from __future__ import annotations

import re
from operator import index
from typing import Iterable, Iterator


def as_ints(values: Iterable[object], what: str) -> tuple[int, ...]:
    """The values as exact integers: ``operator.index`` rejects the floats
    and strings that ``int()`` would truncate or parse.  A ``bool`` has an
    index too, so the two bools are rejected by identity first."""
    ints = []
    for v in values:
        try:
            if v is True or v is False:
                raise TypeError
            ints.append(index(v))
        except TypeError:
            raise ValueError(f"{what} must be integers, got {v!r}") from None
    return tuple(ints)


_INT_TOKEN = re.compile(r"\s*-?[0-9]+\s*")


def _int_token(token: str) -> int:
    """The integer a text token spells in ASCII digits, with an optional
    minus sign and surrounding spaces.  ``int()`` alone would also read a
    '+', an underscore and the digits of other scripts."""
    if _INT_TOKEN.fullmatch(token) is None:
        raise ValueError(f"invalid literal for int() with base 10: {token!r}")
    return int(token)


def _one_based(entries: tuple, i: int):
    """Entry i of ``entries``, counted from 1.  Index 0 and negative
    indices raise ``IndexError`` instead of reading from the end."""
    if not 1 <= i <= len(entries):
        raise IndexError(f"index {i} outside 1..{len(entries)}")
    return entries[i - 1]


class ContainmentViolation(ValueError):
    """Strict multiset difference applied to a non-contained subtrahend."""

    def __init__(self, value: int):
        super().__init__(f"difference would give value {value} a negative multiplicity")
        self.value = value


class OutOfRange(ValueError):
    """A value handed to the reflection kappa lies outside (0, n)."""

    def __init__(self, value: int, n: int):
        super().__init__(f"value {value} is outside the open interval (0, {n})")
        self.value = value
        self.n = n


class IntMultiset:
    """An immutable multiset of positive integers.

    The only state is ``_entries``, a value -> multiplicity dict that never
    holds a zero multiplicity.  Comparison and hashing read the dict as it
    is; iteration and the printed forms sort the values when called.
    """

    __slots__ = ("_entries",)

    def __init__(self, values: Iterable[int] = ()):
        entries: dict[int, int] = {}
        for v in values:
            entries[v] = entries.get(v, 0) + 1
        self._init_from(entries)

    def _init_from(self, entries: dict[int, int]) -> None:
        for v, m in entries.items():
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"multiset values must be positive integers, got {v!r}")
            if not isinstance(m, int) or m < 1:
                raise ValueError(f"multiplicities must be positive integers, got {m!r}")
        self._entries = entries

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "IntMultiset":
        """Build from (value, multiplicity) pairs; repeated values accumulate."""
        entries: dict[int, int] = {}
        for v, m in pairs:
            entries[v] = entries.get(v, 0) + m
        ms = cls.__new__(cls)
        ms._init_from(entries)
        return ms

    @classmethod
    def _unchecked(cls, entries: dict[int, int]) -> "IntMultiset":
        ms = cls.__new__(cls)
        ms._entries = entries
        return ms

    def multiplicity(self, value: int) -> int:
        return self._entries.get(value, 0)

    def __len__(self) -> int:
        return sum(self._entries.values())

    def __iter__(self) -> Iterator[int]:
        entries = self._entries
        for v in sorted(entries):
            for _ in range(entries[v]):
                yield v

    def __contains__(self, value: int) -> bool:
        return value in self._entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMultiset):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def __or__(self, other: "IntMultiset") -> "IntMultiset":
        """Multiset sum: multiplicities add."""
        entries = dict(self._entries)
        for v, m in other._entries.items():
            entries[v] = entries.get(v, 0) + m
        return IntMultiset._unchecked(entries)

    def __sub__(self, other: "IntMultiset") -> "IntMultiset":
        """Multiset difference, defined only when ``other`` is contained in ``self``.

        Raises ContainmentViolation on the smallest offending value.
        """
        entries = dict(self._entries)
        for v in sorted(other._entries):
            m = other._entries[v]
            have = entries.get(v, 0)
            if m > have:
                raise ContainmentViolation(v)
            if m == have:
                del entries[v]
            else:
                entries[v] = have - m
        return IntMultiset._unchecked(entries)

    def __repr__(self) -> str:
        return f"IntMultiset.from_text({self.to_text()!r})"

    def to_text(self) -> str:
        """Render as ``{4^2,5,6^3}`` (sorted values, ``^`` for multiplicity > 1)."""
        parts = []
        for v, m in sorted(self._entries.items()):
            parts.append(str(v) if m == 1 else f"{v}^{m}")
        return "{" + ",".join(parts) + "}"

    @classmethod
    def from_text(cls, text: str) -> "IntMultiset":
        text = text.strip()
        if not (text.startswith("{") and text.endswith("}")):
            raise ValueError(f"malformed multiset literal: {text!r}")
        body = text[1:-1].strip()
        pairs = []
        if body:
            for part in body.split(","):
                part = part.strip()
                if "^" in part:
                    v, m = part.split("^", 1)
                    pairs.append((_int_token(v), _int_token(m)))
                else:
                    pairs.append((_int_token(part), 1))
        return cls.from_pairs(pairs)

    def to_json(self) -> list[list[int]]:
        """Sorted ``[value, multiplicity]`` pairs."""
        return [[v, m] for v, m in sorted(self._entries.items())]

    @classmethod
    def from_json(cls, data: Iterable[Iterable[int]]) -> "IntMultiset":
        return cls.from_pairs(as_ints(pair, "multiset JSON entries") for pair in data)


def kappa(n: int, a: IntMultiset) -> IntMultiset:
    """Reflect every value v to n - v.

    Every value must lie strictly between 0 and n; kappa is an involution
    on such multisets.
    """
    entries: dict[int, int] = {}
    for v, m in a._entries.items():
        if not 0 < v < n:
            raise OutOfRange(v, n)
        entries[n - v] = m
    return IntMultiset._unchecked(entries)


def _distinct(values: Iterable[int]) -> IntMultiset:
    """Each value once, unchecked.  The values must be distinct positive
    integers: a repeated value is kept once, not counted twice."""
    return IntMultiset._unchecked(dict.fromkeys(values, 1))


def _with_counts(values: Iterable[int], counts: Iterable[int]) -> IntMultiset:
    """Each value taken as many times as its count, unchecked; zero counts
    drop out.  The values must be distinct positive integers and the
    counts nonnegative integers."""
    return IntMultiset._unchecked({v: m for v, m in zip(values, counts) if m > 0})
