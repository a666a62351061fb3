"""Valley hopping: the x-factorization and the modified Foata-Strehl action.

All letter classifications here use the zero boundary pi(0) = pi(n+1) = 0.
The starred linear statistics (peaks, valleys, double ascents, double
descents under that boundary) live here next to the action that uses them.

Costs: ``mfs_phi_x`` is O(n); ``mfs_full`` hops all n letters at once on
the min-rooted Cartesian tree of the word, O(n) to build, flip and read in
order, and not validated, as a tree on [n] read in order is a permutation;
the zero-boundary coordinate counts are one ``coordinate_counts`` sweep
per statistic, and the three zero-boundary multisets are built from those
counts by ``_with_counts``, three sweeps in all, from which valley hopping
also reads the plain 2-13 and 31-2 multisets; fact4.8's independent
route, ``coordinate_counts_by_extrema``, builds the extrema sequence once
per permutation and scans the witness pairs of a statistic for each
position, O(n) per position and O(n^2) per permutation; it is fact4.8's
second route to those counts, not a fast path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .histories import StepType
from .multiset import IntMultiset, _distinct, _with_counts
from .perm_stats import (_COORDINATES, Permutation, coordinate_counts,
                         in_order, linear_class)

# Enum members bound once: reading them off the class costs an attribute
# lookup on every use in the per-letter loops.
_N, _E, _DE, _S = StepType.N, StepType.E, StepType.DE, StepType.S


@dataclass(frozen=True)
class StarredClasses:
    """Values of a permutation by their ``linear_class`` under the zero
    boundary: peaks S, valleys N, double ascents E, double descents dE."""

    Lpk: IntMultiset
    Lval: IntMultiset
    Lda: IntMultiset
    Ldd: IntMultiset


def starred_classes(pi: Permutation) -> StarredClasses:
    """Classify every value of pi as peak / valley / double ascent / descent."""
    word = pi.word
    values: tuple[list[int], ...] = ([], [], [], [])
    for p, v in enumerate(word, start=1):
        values[linear_class(word, p, 0, 0)].append(v)
    return StarredClasses(
        Lpk=_distinct(values[_S]),
        Lval=_distinct(values[_N]),
        Lda=_distinct(values[_E]),
        Ldd=_distinct(values[_DE]),
    )


def x_factorization(
    pi: Permutation, x: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Split pi = w1 w2 x w3 w4 around the letter x.

    w2 (resp. w3) is the maximal contiguous block immediately left (right)
    of x whose letters are all larger than x.
    """
    word = pi.word
    p = pi.position(x) - 1
    lo = p
    while lo > 0 and word[lo - 1] > x:
        lo -= 1
    hi = p + 1
    while hi < len(word) and word[hi] > x:
        hi += 1
    return word[:lo], word[lo:p], word[p + 1:hi], word[hi:]


def mfs_phi_x(pi: Permutation, x: int) -> Permutation:
    """One hop: swap the blocks around x unless x is a valley."""
    if linear_class(pi.word, pi.position(x), 0, 0) is _N:
        return pi
    w1, w2, w3, w4 = x_factorization(pi, x)
    return Permutation(w1 + w3 + (x,) + w2 + w4)


def mfs_full(pi: Permutation) -> Permutation:
    """The involution that hops every letter that can hop.

    The single-letter actions of ``mfs_phi_x`` commute.  A hop of x swaps
    the blocks w2 and w3 of its x-factorization, which are the subtrees of
    x in the min-rooted Cartesian tree of the word (one stack pass, O(n)).
    Valleys are the nodes with two children and stay put; every other node
    swaps its children, and the image is the tree read in order, O(n).
    """
    word = pi.word
    n = len(word)
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    stack: list[int] = []
    for v in word:
        below = 0
        while stack and stack[-1] > v:
            below = stack.pop()
        left[v] = below
        if stack:
            right[stack[-1]] = v
        stack.append(v)
    for v in range(1, n + 1):
        if not (left[v] and right[v]):
            left[v], right[v] = right[v], left[v]
    return Permutation._unchecked(in_order(left, right, stack[0] if stack else 0))


def coordinate_counts_zero_boundary(pi: Permutation, which: str) -> tuple[int, ...]:
    """Coordinate pattern statistic at every position, zero boundary in force.

    The virtual letters pi(0) = pi(n+1) = 0 take part in the adjacent pairs,
    so the final pair (pi(n), 0) is always a descent.  Only ``2-31`` is
    affected: position i < n gains one occurrence when pi(i) < pi(n).  The
    ``2-13`` and ``31-2`` counts coincide with the plain ones, since the
    virtual pairs can never serve them.  One ``coordinate_counts`` sweep.
    """
    counts = coordinate_counts(pi, which)
    if which != "2-31" or not counts:
        return counts
    word = pi.word
    last = word[-1]
    return tuple(c + (v < last) for v, c in zip(word, counts))


def pattern_multisets_zero_boundary(
    pi: Permutation,
) -> tuple[IntMultiset, IntMultiset, IntMultiset]:
    """The multisets 2-13, 2-31, 31-2 under the zero boundary: value pi(i)
    with its zero-boundary coordinate count.

    Three ``coordinate_counts`` sweeps; each multiset is built from at most n
    (value, count) pairs.  The 2-13 and 31-2 multisets equal those of
    ``pattern_multisets``.
    """
    m13, m31, m312 = (
        _with_counts(pi.word, coordinate_counts_zero_boundary(pi, which))
        for which in _COORDINATES
    )
    return m13, m31, m312


def _extrema_sequence(pi: Permutation) -> list[tuple[int, int, StepType]]:
    """Valleys (N) and peaks (S) left to right as (position, value, class).

    The zero boundary contributes virtual valleys of value 0 at positions 0
    and n+1.
    """
    out = [(0, 0, _N)]
    for p in range(1, pi.n + 1):
        kind = linear_class(pi.word, p, 0, 0)
        if kind is _N or kind is _S:
            out.append((p, pi.word[p - 1], kind))
    out.append((pi.n + 1, 0, _N))
    return out


# Per statistic: the classes of a consecutive extrema pair that witnesses
# an occurrence, and whether the pair lies right of the position (it
# counts when i < j for a pair at positions j < k) or left (when k < i).
_BRACKETS = {"2-13": (_N, _S, True), "2-31": (_S, _N, True), "31-2": (_S, _N, False)}


def coordinate_counts_by_extrema(pi: Permutation) -> dict[str, tuple[int, ...]]:
    """Each zero-boundary coordinate statistic at every position, counted
    from consecutive extrema, keyed by statistic.

    Each occurrence is witnessed by a consecutive valley/peak pair (no other
    extremum strictly between them) bracketing the value pi(i): ``2-13`` uses
    a (valley, peak) pair to the right of i, ``2-31`` a (peak, valley) pair
    to the right, and ``31-2`` a (peak, valley) pair to the left.  One
    ``_extrema_sequence`` serves all three; each count scans the witness
    pairs of its statistic, O(n) per position.  An independent route to the
    counts of ``coordinate_counts_zero_boundary``.
    """
    extrema = _extrema_sequence(pi)
    counts = {}
    for which, (first, second, right) in _BRACKETS.items():
        brackets = [(j if right else k, min(vj, vk), max(vj, vk))
                    for (j, vj, kind_j), (k, vk, kind_k) in zip(extrema, extrema[1:])
                    if kind_j is first and kind_k is second]
        counts[which] = tuple(
            sum(lo < v < hi and (i < at if right else at < i) for at, lo, hi in brackets)
            for i, v in enumerate(pi.word, start=1))
    return counts
