"""Restricted Laguerre histories: weighted 2-Motzkin paths counted by n!.

A history of length n is a lattice path with steps N (up), S (down),
E (level) and dE (dotted level, written D in text form) that starts and
ends at height 0 and never dips below it, together with integer weights
c_1..c_n.  With h_i the height before step i, the weight bounds are

    0 <= c_i <= h_i   if step i is N or E      (the "NE" class)
    1 <= c_i <= h_i   if step i is S or dE     (the "SdE" class)

so an S or dE step can never occur at height 0.  There are exactly n!
histories of length n.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from itertools import product
from operator import index
from typing import Iterable, Iterator

from .multiset import IntMultiset, _int_token, _one_based, as_ints


class StepType(IntEnum):
    """Path steps, ordered N < E < dE < S for lexicographic enumeration."""

    N = 0
    E = 1
    DE = 2
    S = 3

    @property
    def rise(self) -> int:
        return _RISE[self]

    @property
    def letter(self) -> str:
        return _LETTER[self]


_RISE = (1, 0, 0, -1)  # indexed by step: N, E, dE, S
_LETTER = {StepType.N: "N", StepType.E: "E", StepType.DE: "D", StepType.S: "S"}
_BY_LETTER = {v: k for k, v in _LETTER.items()}
_BY_VALUE = {s.value: s for s in StepType}
# Members bound once: reading them off the class costs an attribute lookup
# on every step of the per-step loops.
_N, _E, _DE = StepType.N, StepType.E, StepType.DE

NE_STEPS = frozenset((StepType.N, StepType.E))
NDE_STEPS = frozenset((StepType.N, StepType.DE))


class PathBelowAxis(ValueError):
    """The step word dips below height 0."""

    def __init__(self, index: int):
        super().__init__(f"path drops below the axis at step {index}")
        self.index = index


class PathNotClosed(ValueError):
    """The step word does not return to height 0."""

    def __init__(self, height: int):
        super().__init__(f"path ends at height {height}, expected 0")
        self.height = height


class WeightOutOfBounds(ValueError):
    """A weight violates its class-dependent bounds."""

    def __init__(self, index: int, weight: int, lo: int, hi: int):
        super().__init__(f"weight c_{index} = {weight} outside [{lo}, {hi}]")
        self.index = index


class LaguerreHistory:
    """An immutable restricted Laguerre history (w, h, c), indices 1-based.

    The constructor and parsers validate the path and the weights.
    ``_unchecked`` is only for builders whose output is valid by
    construction, each pinned by a differential test.
    """

    __slots__ = ("w", "h", "c")

    def __init__(self, w: Iterable[StepType], c: Iterable[int]):
        w = _as_steps(w)
        c = as_ints(c, "history weights")
        self.w = w
        self.h = _heights(w)
        self.c = c
        if len(c) != len(w):
            raise ValueError("step word and weight sequence have different lengths")
        for i, (step, height, weight) in enumerate(zip(w, self.h, c), start=1):
            lo = 0 if step in NE_STEPS else 1
            if not lo <= weight <= height:
                raise WeightOutOfBounds(i, weight, lo, height)

    @classmethod
    def _unchecked(cls, w: tuple[StepType, ...], h: tuple[int, ...], c: tuple[int, ...]) -> "LaguerreHistory":
        obj = cls.__new__(cls)
        obj.w = w
        obj.h = h
        obj.c = c
        return obj

    @property
    def n(self) -> int:
        return len(self.w)

    def step(self, i: int) -> StepType:
        """Step i, 1-based."""
        return _one_based(self.w, i)

    def height(self, i: int) -> int:
        """Height before step i, 1-based."""
        return _one_based(self.h, i)

    def weight(self, i: int) -> int:
        """Weight c_i, 1-based."""
        return _one_based(self.c, i)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaguerreHistory):
            return NotImplemented
        return self.w == other.w and self.c == other.c

    def __hash__(self) -> int:
        return hash((self.w, self.c))

    def __repr__(self) -> str:
        return f"LaguerreHistory.from_text({self.to_text()!r})"

    def to_text(self) -> str:
        """Render as ``NNDS/0,1,2,1`` (D is the dotted east step)."""
        word = "".join(s.letter for s in self.w)
        return word + "/" + ",".join(str(x) for x in self.c)

    @classmethod
    def from_text(cls, text: str) -> "LaguerreHistory":
        text = text.strip()
        if "/" not in text:
            raise ValueError(f"malformed history literal (missing '/'): {text!r}")
        word_part, _, weight_part = text.partition("/")
        w = _parse_steps(word_part)
        c = [_int_token(x) for x in weight_part.split(",")] if weight_part else ()
        return cls(w, c)

    def to_json(self) -> dict:
        return {
            "w": [s.letter for s in self.w],
            "h": list(self.h),
            "c": list(self.c),
        }

    @classmethod
    def from_json(cls, data: dict) -> "LaguerreHistory":
        try:
            w, c = data["w"], data["c"]
        except KeyError as exc:
            raise ValueError(f"history JSON lacks key {exc.args[0]!r}") from None
        return cls(_parse_steps(w), c)


def _as_steps(values: Iterable[object]) -> tuple[StepType, ...]:
    """The values as steps, each an exact integer 0..3.  ``StepType(v)``
    alone looks v up by hash, so it would read 1.0 and ``True`` as E;
    ``operator.index`` rejects the float, and the two bools are rejected
    by identity first, as in ``as_ints``."""
    steps = []
    for v in values:
        try:
            if v is True or v is False:
                raise TypeError
            steps.append(_BY_VALUE[index(v)])
        except (TypeError, KeyError):
            raise ValueError(f"history steps must be integers 0..3, got {v!r}") from None
    return tuple(steps)


def _parse_steps(letters: Iterable[str]) -> tuple[StepType, ...]:
    """Step letters (N, E, D, S) as steps; any other letter is a ValueError."""
    try:
        return tuple(_BY_LETTER[ch] for ch in letters)
    except KeyError as exc:
        raise ValueError(f"unknown step letter {exc.args[0]!r}") from None


def _heights(w: tuple[StepType, ...]) -> tuple[int, ...]:
    """Heights before each step; raises if the path is invalid."""
    heights = []
    height = 0
    for i, step in enumerate(w, start=1):
        heights.append(height)
        height += step.rise
        if height < 0:
            raise PathBelowAxis(i)
    if height != 0:
        raise PathNotClosed(height)
    return tuple(heights)


def critical_step(history: LaguerreHistory) -> int:
    """The largest index i with c_i = 0, and 0 for the empty history.

    A nonempty history has c_1 = 0, as h_1 = 0 forces step 1 into the NE
    class.  The critical step itself is always an N or E step.
    """
    c = history.c
    return len(c) - c[::-1].index(0) if c else 0


@dataclass(frozen=True)
class HistoryStatRecord:
    """Statistics of a history, split around the critical step cs.

    Neb/Sdeb/Ndeb collect step indices of the given class strictly before
    cs, Nea/Sdea/Ndea strictly after.  Nde takes indices in [n-1] only.
    Asc holds the indices i in [n-1] where the weights "ascend":
    c_i < c_{i+1} for an NE step i, c_i <= c_{i+1} for an SdE step i.
    Ht has h_i copies of i, Wt has c_i copies of i.  A count is the
    size of its multiset, ``len(record.Neb)``.
    """

    cs: int
    Neb: IntMultiset
    Sdeb: IntMultiset
    Ndeb: IntMultiset
    Nea: IntMultiset
    Sdea: IntMultiset
    Ndea: IntMultiset
    Nde: IntMultiset
    Asc: IntMultiset
    Ht: IntMultiset
    Wt: IntMultiset


def history_statistics(history: LaguerreHistory) -> HistoryStatRecord:
    """The statistics of ``history``, filled in one pass over its steps.

    Each index lands in the entry dicts of its class and side of cs, and
    of Nde, Asc, Ht and Wt, and each dict becomes a multiset once.  The
    entries are distinct indices in [n], each with multiplicity 1 or a
    nonzero height or weight, so no multiset is validated again.
    """
    w, h, c = history.w, history.h, history.c
    cs = critical_step(history)
    neb, sdeb, ndeb, nea, sdea, ndea, nde, asc, ht, wt = {}, {}, {}, {}, {}, {}, {}, {}, {}, {}
    # c_i - 1 for an SdE step i, c_i for an NE step: i ascends when this
    # is below c_{i+1}.  It starts at c_1, so no index 0 ascends.
    low = c[0] if c else 0
    for i, (step, height, weight) in enumerate(zip(w, h, c), start=1):
        if i < cs:
            if step is _N:
                neb[i] = ndeb[i] = nde[i] = 1
            elif step is _E:
                neb[i] = 1
            elif step is _DE:
                sdeb[i] = ndeb[i] = nde[i] = 1
            else:
                sdeb[i] = 1
        elif i > cs:
            if step is _N:
                nea[i] = ndea[i] = nde[i] = 1
            elif step is _E:
                nea[i] = 1
            elif step is _DE:
                sdea[i] = ndea[i] = nde[i] = 1
            else:
                sdea[i] = 1
        elif step is _N:
            # cs is an N or E step.  Step n ends the path at height 0, so
            # it is E or S: Nde is N ∪ dE over all of [n].
            nde[i] = 1
        if low < weight:
            asc[i - 1] = 1
        low = weight - (step > _E)
        if height:
            ht[i] = height
        if weight:
            wt[i] = weight
    make = IntMultiset._unchecked
    return HistoryStatRecord(cs, make(neb), make(sdeb), make(ndeb), make(nea), make(sdea),
                             make(ndea), make(nde), make(asc), make(ht), make(wt))


def _words(n: int) -> Iterator[tuple[tuple[StepType, ...], tuple[int, ...]]]:
    """All 2-Motzkin words of length n with their height sequences, in
    lexicographic order under N < E < dE < S."""
    word: list[StepType] = []
    heights: list[int] = []

    def rec(i: int, height: int) -> Iterator[tuple[tuple[StepType, ...], tuple[int, ...]]]:
        if i == n:
            yield tuple(word), tuple(heights)
            return
        remaining = n - i - 1
        for step in (StepType.N, StepType.E, StepType.DE, StepType.S):
            nh = height + step.rise
            if nh < 0 or nh > remaining:
                continue
            word.append(step)
            heights.append(height)
            yield from rec(i + 1, nh)
            word.pop()
            heights.pop()

    return rec(0, 0)


def enumerate_histories(n: int) -> Iterator[LaguerreHistory]:
    """All n! histories of length n, in a fixed deterministic order:
    step words lexicographically (N < E < dE < S), then weight vectors
    lexicographically."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    make = LaguerreHistory._unchecked
    for w, h in _words(n):
        ranges = []
        for step, height in zip(w, h):
            if step in NE_STEPS:
                ranges.append(range(height + 1))
            else:
                ranges.append(range(1, height + 1))
        for c in product(*ranges):
            yield make(w, h, c)
