"""Bijections between permutations and weight-bounded bicolored Motzkin paths.

Three encodings are provided with their inverses: the linear one driven by
value classes and descent-based weights (phi_fv), the cyclic one driven by
excedance classes and side numbers (phi_fz), and the shifted-cyclic one
driven by nestings around the position of 1 (phi_yzl).  The shifted-cyclic
decoder is the cyclic one followed by the inverse Kreweras complement,
since phi_yzl = phi_fz o kreweras.  Derived maps: the composition phi_csz,
the mirror theta, the Kreweras complement, and the permutation maps
obtained by conjugating the path involution xi through each encoding.
"""

from __future__ import annotations

from typing import Sequence

from .histories import (
    LaguerreHistory,
    NDE_STEPS,
    NE_STEPS,
    StepType,
)
from .involution import xi
from .perm_stats import (
    Permutation,
    coordinate_counts,
    cyclic_classes,
    in_order,
    linear_class,
    shifted_classes,
    side_numbers,
    variant_nesting_numbers,
)

# Enum members bound once: reading them off the class costs an attribute
# lookup on every step of the decoder loop.
_N, _E, _S = StepType.N, StepType.E, StepType.S


class SlotIndexOutOfRange(ValueError):
    """Slot-insertion inversion addressed a nonexistent empty slot."""


class PlacementImpossible(ValueError):
    """Column placement inversion could not place a value."""


def _history(steps: list[StepType], counts: Sequence[int]) -> LaguerreHistory:
    """The history whose weight at step i is counts[i], plus one on S and dE
    steps; the rule shared by the three encodings."""
    return LaguerreHistory(
        steps, [c + (step not in NE_STEPS) for step, c in zip(steps, counts)]
    )


# ---------------------------------------------------------------------------
# Linear encoding
# ---------------------------------------------------------------------------

def phi_fv(pi: Permutation) -> LaguerreHistory:
    """Encode by the linear class of each value.

    Value i becomes N / S / E / dE according to whether it is a valley,
    peak, double ascent, or double descent of the word, with boundary
    values smaller than all (left) and larger than all (right).  The weight
    of i is its 2-31 coordinate count, plus one on S and dE steps.  One
    ``coordinate_counts`` sweep gives every count.
    """
    word = pi.word
    right = pi.n + 1
    counts = coordinate_counts(pi, "2-31")
    positions = pi.inverse_word
    return _history(
        [linear_class(word, p, 0, right) for p in positions],
        [counts[p - 1] for p in positions],
    )


def phi_fv_inv(history: LaguerreHistory) -> Permutation:
    """Invert the linear encoding by slot insertion into a binary tree.

    Starting from a single empty slot, letter i fills the c_i-th empty slot
    counted from the right starting at 0, as a child of the letter that
    owns the slot; an N step gives i two empty child slots, E a right one,
    dE a left one, S none.  The open slots stay in an ordered list of ids
    ``2 * owner + side`` (side 1 on the right; the first slot hangs off a
    virtual root 0), and each step replaces one entry by C-level list
    moves.  The word is the tree read in order, O(n), a permutation by
    construction; the one leftover slot must be the right child of its
    last letter.
    """
    child = [0] * (2 * history.n + 2)
    slots = [1]
    for i, (step, c) in enumerate(zip(history.w, history.c), start=1):
        if not 0 <= c < len(slots):
            raise SlotIndexOutOfRange(
                f"step {i} wants empty slot {c} of {len(slots)}"
            )
        k = len(slots) - 1 - c
        child[slots[k]] = i
        if step is _S:
            del slots[k]
        elif step is _N:
            slots[k:k + 1] = (2 * i, 2 * i + 1)
        elif step is _E:
            slots[k] = 2 * i + 1
        else:
            slots[k] = 2 * i
    word = in_order(child[::2], child[1::2], child[1])
    if slots != [2 * (word[-1] if word else 0) + 1]:
        raise SlotIndexOutOfRange("leftover slot is not the trailing one")
    return Permutation._unchecked(word)


# ---------------------------------------------------------------------------
# Cyclic encoding
# ---------------------------------------------------------------------------

def phi_fz(pi: Permutation) -> LaguerreHistory:
    """Encode by the cyclic class of each value.

    Value i becomes N / S / E / dE according to whether it is a cyclic
    valley, cyclic peak, cyclic double descent, or cyclic double ascent
    (``cyclic_classes``).  The weight of i is the side number at position
    pi^{-1}(i), plus one on S and dE steps.
    """
    side = side_numbers(pi)
    return _history(cyclic_classes(pi), [side[p - 1] for p in pi.inverse_word])


def _place(values: list[int], weights: dict[int, int], size: int,
           from_right: bool) -> list[int]:
    """Place values into a row of ``size`` empty slots and read the filled
    row left to right.

    From the left, values go smallest-first and x lands in the c_x-th
    empty slot counted from the left (1-based); from the right, values go
    largest-first and x keeps c_x empty slots to its right.  The empty
    slots stay in an ordered list, and each placement pops one.
    """
    empties = list(range(size))
    row: list[int | None] = [None] * size
    for x in sorted(values, reverse=from_right):
        k = weights[x]
        if from_right:
            if not 0 <= k < len(empties):
                raise PlacementImpossible(f"value {x} wants {k} empty slots right")
            k = len(empties) - 1 - k
        else:
            k -= 1
            if not 0 <= k < len(empties):
                raise PlacementImpossible(f"value {x} wants empty slot {k + 1}")
        row[empties.pop(k)] = x
    return [v for v in row if v is not None]


def phi_fz_inv(history: LaguerreHistory) -> Permutation:
    """Invert the cyclic encoding by building two placement words.

    The excedance word maps N/dE step indices (ascending) to S/dE step
    indices placed smallest-first with c_x - 1 empty slots to the left; the
    non-excedance word maps S/E step indices to N/E step indices placed
    largest-first with c_x empty slots to the right.
    """
    nde: list[int] = []
    sde: list[int] = []
    se: list[int] = []
    ne: list[int] = []
    for i, step in enumerate(history.w, start=1):
        (nde if step in NDE_STEPS else se).append(i)
        (ne if step in NE_STEPS else sde).append(i)
    if len(nde) != len(sde) or len(se) != len(ne):
        raise PlacementImpossible("column counts disagree")
    weights = dict(enumerate(history.c, start=1))
    exc_bottom = _place(sde, weights, len(nde), False)
    nexc_bottom = _place(ne, weights, len(se), True)
    word = [0] * history.n
    for pos, val in zip(nde + se, exc_bottom + nexc_bottom):
        word[pos - 1] = val
    return Permutation(word)


# ---------------------------------------------------------------------------
# Shifted-cyclic encoding
# ---------------------------------------------------------------------------

def phi_yzl(pi: Permutation) -> LaguerreHistory:
    """Encode by the shifted-cyclic class of each index.

    For i < n the step is the shifted class of i (``shifted_classes``),
    except at pone (the position of the letter 1), where pi(pone) = 1
    leaves only S or dE and these become E and N.  i = n takes S unless
    pone = n, in which case E.  The weight of i is the variant nesting
    number, plus one on S and dE steps.  The empty permutation encodes to
    the empty history.
    """
    n = pi.n
    if not n:
        return _history([], [])
    pone = pi.position(1)
    steps = shifted_classes(pi)
    if pone < n:
        steps[pone - 1] = StepType.E if steps[pone - 1] is StepType.S else StepType.N
    steps.append(StepType.E if pone == n else StepType.S)
    return _history(steps, variant_nesting_numbers(pi))


def phi_yzl_inv(history: LaguerreHistory) -> Permutation:
    """Invert the shifted-cyclic encoding through the Kreweras complement.

    phi_yzl = phi_fz o kreweras (claim ``thm4.23-eq36``), so the cyclic
    decoder returns sigma = kreweras(pi), and pi(i) = sigma^{-1}(i) mod n + 1.
    """
    sigma = phi_fz_inv(history)
    n = sigma.n
    return Permutation._unchecked(tuple(v % n + 1 for v in sigma.inverse_word))


# ---------------------------------------------------------------------------
# Derived maps
# ---------------------------------------------------------------------------

def phi_csz(pi: Permutation) -> Permutation:
    """Transport the linear encoding into the cyclic one."""
    return phi_fz_inv(phi_fv(pi))


def theta(pi: Permutation) -> Permutation:
    """The mirror map: theta_n = n+1-pi(n) and theta_i = n+1-pi(n-i)."""
    n = pi.n
    word = pi.word
    # pi(n-1), ..., pi(1), then pi(n).
    return Permutation._unchecked(tuple(n + 1 - v for v in word[-2::-1] + word[-1:]))


def kreweras(pi: Permutation) -> Permutation:
    """The Kreweras complement pi^{-1}(2) ... pi^{-1}(n) pi^{-1}(1)."""
    inverse = pi.inverse_word
    return Permutation._unchecked(inverse[1:] + inverse[:1])


_CONJUGATED = {
    "phi": (phi_fv, phi_fv_inv),
    "eta": (phi_fz, phi_fz_inv),
    "rho": (phi_yzl, phi_yzl_inv),
}


def conjugated_map(pi: Permutation, which: str) -> Permutation:
    """Conjugate the path involution through one of the three encodings.

    ``phi`` goes through the linear encoding, ``eta``
    through the cyclic one, ``rho`` through the shifted-cyclic one.  The
    composition is computed literally, never via a shortcut formula.
    """
    try:
        encode, decode = _CONJUGATED[which]
    except KeyError:
        raise ValueError(f"unknown conjugated map: {which!r}") from None
    return decode(xi(encode(pi)))
