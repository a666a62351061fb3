"""The height-reversing involution xi on restricted Laguerre histories.

Given W = (w, h, c) of length n with critical step m, the image
V = (v, g, b) = xi(W) is determined by four conditions:

  1. the critical step of V is n+1-m;
  2. for j != n+1-m, step j of V is NE-class iff step n+1-j of W is
     SdE-class (and step n+1-m of V is NE-class);
  3. g_j = h_{n+1-j} + 1  if j > n+1-m and step j of V is SdE-class,
     g_j = h_{n+1-j} - 1  if j < n+1-m and step j of V is NE-class,
     g_j = h_{n+1-j}      otherwise;
  4. b_j = g_j - h_{n+1-j} + c_{n+1-j}.

``verify_xi_contract`` is the single check of conditions 1-4: the
thm3.2 claim calls it on (W, xi(W)), and cor3.6 calls it before testing
its Nde and Asc identities.

``xi`` reads W once, left to right: step i of W fixes step n+1-i of V,
so V is written right to left, starting from g_{n+1} = 0.  Step j of V is
the step whose rise is g_{j+1} - g_j and whose class is the one from
condition 2 (+1 gives N, -1 gives S, 0 gives E or dE), read off the table
``_STEP_OF``; any other pair is an inconsistency.

``XI_TABLE`` records the fourteen local configurations that can occur at
a position j of the image, together with the constraints each must
satisfy.  It is an independent re-derivation of the case analysis and is
used by the verification claims as a second check on xi: each position's
row is found by the table's own key columns (the position class and the
step classes of steps j and j+1 of the image), every position of every
image must then meet all of its row's constraints, and all fourteen rows
occur once n reaches 4.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .histories import (
    LaguerreHistory,
    NE_STEPS,
    StepType,
    critical_step,
    enumerate_histories,
)


class InternalInconsistency(RuntimeError):
    """The xi construction produced data violating its own constraints."""


# The image step with a given rise and NE-class flag.
_STEP_OF = {(s.rise, s in NE_STEPS): s for s in StepType}


def xi(history: LaguerreHistory) -> LaguerreHistory:
    """Apply the involution in one reflected pass: step i of W fixes step
    n+1-i of the image, whose step is read off ``_STEP_OF``."""
    w, h, c = history.w, history.h, history.c
    n = len(w)
    if n == 0:
        return history
    crit = n + 1 - critical_step(history)

    # Filled right to left; after is g_{j+1}.
    v, g, b = [None] * n, [0] * n, [0] * n
    after = 0
    # In place of the constructor's checks: step j rises by g_{j+1} - g_j,
    # so g_1 = g_{n+1} = 0 makes g the heights of a closed path, and
    # 0 <= lo <= b_j <= g_j keeps them nonnegative.
    for j, src, hj, cj in zip(range(n, 0, -1), w, h, c):
        # Conditions 2 and 3.
        ne = j == crit or src not in NE_STEPS
        gj = hj + (j > crit and not ne) - (j < crit and ne)
        step = _STEP_OF.get((after - gj, ne))
        if step is None:
            raise InternalInconsistency(
                f"height difference {after - gj} incompatible with step class at j={j}"
            )
        bj = gj - hj + cj
        lo = 0 if ne else 1
        if not lo <= bj <= gj:
            raise InternalInconsistency(f"weight b_{j} = {bj} outside [{lo}, {gj}]")
        v[j - 1], g[j - 1], b[j - 1] = step, gj, bj
        after = gj
    if after != 0:
        raise InternalInconsistency(f"image starts at height {after}, not 0")

    image = LaguerreHistory._unchecked(tuple(v), tuple(g), tuple(b))
    if critical_step(image) != crit:
        raise InternalInconsistency("image critical step is not n+1-m")
    return image


def verify_xi_contract(w_hist: LaguerreHistory, v_hist: LaguerreHistory) -> bool:
    """Check the four defining conditions of xi directly."""
    n = w_hist.n
    if v_hist.n != n:
        return False
    if n == 0:
        return True
    m = critical_step(w_hist)
    crit = n + 1 - m
    if critical_step(v_hist) != crit:
        return False
    h, c = w_hist.h, w_hist.c
    v, g, b = v_hist.w, v_hist.h, v_hist.c
    for j in range(1, n + 1):
        ne = v[j - 1] in NE_STEPS
        if j == crit:
            if not ne:
                return False
        elif ne == (w_hist.w[n - j] in NE_STEPS):
            return False
        hj = h[n - j]
        if j > crit and not ne:
            expected = hj + 1
        elif j < crit and ne:
            expected = hj - 1
        else:
            expected = hj
        if g[j - 1] != expected:
            return False
        if b[j - 1] != g[j - 1] - hj + c[n - j]:
            return False
    return True


# Position classes relative to the critical step of the image.
AT_CRIT = "j = n+1-m"
BEFORE_CRIT = "j = n-m"
EARLY = "j < n-m"
LATE = "j > n+1-m"
LAST_M1 = "j = n (m = 1)"
LAST = "j = n (m > 1)"

# Step classes, as the sets of steps they admit.
NE = NE_STEPS
SDE = frozenset(StepType) - NE_STEPS
_E = frozenset((StepType.E,))
_S = frozenset((StepType.S,))


@dataclass(frozen=True)
class XiTableRow:
    """One local configuration of (W, xi(W)) at a position j.

    ``j_case``, ``vj`` and ``vj1`` are the key: the position class and the
    steps allowed at steps j and j+1 of V (``vj1`` is None at j = n); the
    other class columns are the steps allowed at steps n+1-j and n-j of W.
    ``g_off``/``g_next_off`` give g_j - h_{n+1-j} and g_{j+1} - h_{n-j}
    for rows 1-12; for the two j = n rows ``g_off`` is the absolute value
    of g_n and g_{n+1} = 0.  ``b_bounds`` is (lo, hi) with lo <= b_j <= hi,
    where hi None stands for g_j.
    """

    row: int
    j_case: str
    vj: frozenset[StepType]
    vj1: frozenset[StepType] | None
    w_rev: frozenset[StepType]
    w_rev_next: frozenset[StepType] | None
    g_off: int
    g_next_off: int | None
    diffs: tuple[int, ...]  # allowed values of g_{j+1} - g_j
    b_bounds: tuple[int, int | None]


XI_TABLE: list[XiTableRow] = [
    XiTableRow(1, AT_CRIT, NE, NE, NE, SDE, 0, 0, (0, 1), (0, 0)),
    XiTableRow(2, AT_CRIT, NE, SDE, NE, NE, 0, 1, (0, 1), (0, 0)),
    XiTableRow(3, BEFORE_CRIT, NE, NE, SDE, NE, -1, 0, (0, 1), (0, None)),
    XiTableRow(4, BEFORE_CRIT, SDE, NE, NE, NE, 0, 0, (0, -1), (1, None)),
    XiTableRow(5, EARLY, NE, NE, SDE, SDE, -1, -1, (0, 1), (0, None)),
    XiTableRow(6, EARLY, NE, SDE, SDE, NE, -1, 0, (0, 1), (0, None)),
    XiTableRow(7, EARLY, SDE, NE, NE, SDE, 0, -1, (0, -1), (1, None)),
    XiTableRow(8, EARLY, SDE, SDE, NE, NE, 0, 0, (0, -1), (1, None)),
    XiTableRow(9, LATE, NE, NE, SDE, SDE, 0, 0, (0, 1), (0, None)),
    XiTableRow(10, LATE, NE, SDE, SDE, NE, 0, 1, (0, 1), (0, None)),
    XiTableRow(11, LATE, SDE, NE, NE, SDE, 1, 0, (0, -1), (1, None)),
    XiTableRow(12, LATE, SDE, SDE, NE, NE, 1, 1, (0, -1), (1, None)),
    XiTableRow(13, LAST_M1, _E, None, NE, None, 0, None, (0,), (0, 0)),
    XiTableRow(14, LAST, _S, None, NE, None, 1, None, (-1,), (1, 1)),
]


def check_table_row(
    w_hist: LaguerreHistory, v_hist: LaguerreHistory, j: int, row: XiTableRow
) -> str | None:
    """Verify position j of (W, V) against a table row.

    Returns None on success, otherwise a short description of the
    violated constraint.
    """
    n = w_hist.n
    if j == n and row.vj1 is not None:
        return "rows 1-12 need step j+1; j = n"
    w, h = w_hist.w, w_hist.h
    v, g, b = v_hist.w, v_hist.h, v_hist.c
    gj = g[j - 1]
    gj1 = g[j] if j < n else 0
    bj = b[j - 1]

    for k, steps, allowed in ((j, v, row.vj), (j + 1, v, row.vj1),
                              (n + 1 - j, w, row.w_rev), (n - j, w, row.w_rev_next)):
        if allowed is not None and steps[k - 1] not in allowed:
            side = "image" if steps is v else "source"
            letters = "".join(step.letter for step in sorted(allowed))
            return f"step {k} of {side} is not one of {letters}"

    if row.g_next_off is None:
        if gj != row.g_off:
            return f"g_{j} = {gj}, expected {row.g_off}"
        if j < n:
            return "rows 13 and 14 apply only at j = n"
    else:
        if gj != h[n - j] + row.g_off:
            return f"g_{j} = {gj}, expected h_{n + 1 - j} {row.g_off:+d}"
        if gj1 != h[n - j - 1] + row.g_next_off:
            return f"g_{j + 1} = {gj1}, expected h_{n - j} {row.g_next_off:+d}"
    if gj1 - gj not in row.diffs:
        return f"height difference {gj1 - gj} not in {row.diffs}"

    lo, hi = row.b_bounds
    hi = gj if hi is None else hi
    if not lo <= bj <= hi:
        return f"b_{j} = {bj} outside [{lo}, {hi}] with g_{j} = {gj}"
    return None


def _position_case(n: int, crit: int, j: int) -> str:
    """The j_case of position j when the image's critical step is crit."""
    if j == n:
        return LAST_M1 if crit == n else LAST
    if j == crit:
        return AT_CRIT
    if j == crit - 1:
        return BEFORE_CRIT
    return EARLY if j < crit else LATE


# (j_case, step j of V, step j+1 of V or None at j = n) -> the index of the
# XI_TABLE row whose key columns admit it.  The row itself is read from
# XI_TABLE at each use and checked in full, its key columns included, so a
# row replaced in place is checked as it then stands.
_ROW_INDEX = {
    (row.j_case, vj, vj1): k
    for k, row in enumerate(XI_TABLE)
    for vj in row.vj
    for vj1 in row.vj1 or (None,)
}


def _table_rows(
    w_hist: LaguerreHistory, v_hist: LaguerreHistory
) -> Iterator[tuple[int, XiTableRow | None]]:
    """Each position j of the image with its XI_TABLE row, or None if no
    row's key columns admit it."""
    n = w_hist.n
    crit = n + 1 - critical_step(w_hist)
    v = v_hist.w + (None,)
    for j in range(1, n + 1):
        k = _ROW_INDEX.get((_position_case(n, crit, j), v[j - 1], v[j]))
        yield j, None if k is None else XI_TABLE[k]


def check_against_table(w_hist: LaguerreHistory, v_hist: LaguerreHistory) -> str | None:
    """Match every position of (W, xi(W)) to its XI_TABLE row."""
    for j, row in _table_rows(w_hist, v_hist):
        if row is None:
            return f"no row at j={j}"
        problem = check_table_row(w_hist, v_hist, j, row)
        if problem is not None:
            return f"row {row.row} at j={j}: {problem}"
    return None


def xi_table_coverage(n: int) -> Counter:
    """How often each XI_TABLE row fires across all histories of length n."""
    return Counter(row.row for w_hist in enumerate_histories(n)
                   for _, row in _table_rows(w_hist, xi(w_hist)) if row is not None)
