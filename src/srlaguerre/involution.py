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

The exact step tags follow from the height differences g_{j+1} - g_j
(with g_{n+1} = 0): +1 gives N, -1 gives S, 0 gives E or dE according to
the class from condition 2.

``XI_TABLE`` records the fourteen local configurations that can occur at
a position j of the image, together with the constraints each must
satisfy.  It is an independent re-derivation of the case analysis and is
used by the verification claims as a second check on xi: every position
of every image must match its table row exactly, and all fourteen rows
occur once n reaches 5.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .histories import (
    LaguerreHistory,
    NE_STEPS,
    StepType,
    critical_step,
    enumerate_histories,
)


class InternalInconsistency(RuntimeError):
    """The xi construction produced data violating its own constraints."""


def xi(history: LaguerreHistory) -> LaguerreHistory:
    """Apply the involution."""
    w, h, c = history.w, history.h, history.c
    n = len(w)
    if n == 0:
        return history
    m = critical_step(history)
    crit = n + 1 - m

    ne = [False] * (n + 1)  # 1-based: is step j of V in the NE class
    g = [0] * (n + 2)  # g[n+1] stays 0 by convention
    b = [0] * (n + 1)
    for j in range(1, n + 1):
        src = w[n - j]  # step n+1-j of W
        ne[j] = True if j == crit else src not in NE_STEPS
        hj = h[n - j]
        if j > crit and not ne[j]:
            g[j] = hj + 1
        elif j < crit and ne[j]:
            g[j] = hj - 1
        else:
            g[j] = hj
        b[j] = g[j] - hj + c[n - j]

    v = []
    for j in range(1, n + 1):
        d = g[j + 1] - g[j]
        if d == 1 and ne[j]:
            v.append(StepType.N)
        elif d == -1 and not ne[j]:
            v.append(StepType.S)
        elif d == 0:
            v.append(StepType.E if ne[j] else StepType.DE)
        else:
            raise InternalInconsistency(
                f"height difference {d} incompatible with step class at j={j}"
            )

    image = LaguerreHistory(v, b[1:])
    if image.h != tuple(g[1 : n + 1]):
        raise InternalInconsistency("reconstructed heights disagree with g")
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

NE = "NE"
SDE = "SdE"


@dataclass(frozen=True)
class XiTableRow:
    """One local configuration of (W, xi(W)) at a position j.

    ``g_off``/``g_next_off`` give g_j - h_{n+1-j} and g_{j+1} - h_{n-j}
    for rows 1-12; for the two j = n rows ``g_off`` is the absolute value
    of g_n and g_{n+1} = 0.  ``b_rule`` is one of "zero", "one", "lo0"
    (0 <= b_j <= g_j) and "lo1" (1 <= b_j <= g_j).
    """

    row: int
    j_case: str
    vj: str  # class of step j of V; exact tag "E"/"S" in rows 13-14
    vj1: str | None  # class of step j+1 of V (None at j = n)
    w_rev: str  # class of step n+1-j of W
    w_rev_next: str | None  # class of step n-j of W
    g_off: int
    g_next_off: int | None
    diffs: tuple[int, ...]  # allowed values of g_{j+1} - g_j
    b_rule: str


XI_TABLE: list[XiTableRow] = [
    XiTableRow(1, AT_CRIT, NE, NE, NE, SDE, 0, 0, (0, 1), "zero"),
    XiTableRow(2, AT_CRIT, NE, SDE, NE, NE, 0, 1, (0, 1), "zero"),
    XiTableRow(3, BEFORE_CRIT, NE, NE, SDE, NE, -1, 0, (0, 1), "lo0"),
    XiTableRow(4, BEFORE_CRIT, SDE, NE, NE, NE, 0, 0, (0, -1), "lo1"),
    XiTableRow(5, EARLY, NE, NE, SDE, SDE, -1, -1, (0, 1), "lo0"),
    XiTableRow(6, EARLY, NE, SDE, SDE, NE, -1, 0, (0, 1), "lo0"),
    XiTableRow(7, EARLY, SDE, NE, NE, SDE, 0, -1, (0, -1), "lo1"),
    XiTableRow(8, EARLY, SDE, SDE, NE, NE, 0, 0, (0, -1), "lo1"),
    XiTableRow(9, LATE, NE, NE, SDE, SDE, 0, 0, (0, 1), "lo0"),
    XiTableRow(10, LATE, NE, SDE, SDE, NE, 0, 1, (0, 1), "lo0"),
    XiTableRow(11, LATE, SDE, NE, NE, SDE, 1, 0, (0, -1), "lo1"),
    XiTableRow(12, LATE, SDE, SDE, NE, NE, 1, 1, (0, -1), "lo1"),
    XiTableRow(13, LAST_M1, "E", None, NE, None, 0, None, (0,), "zero"),
    XiTableRow(14, LAST, "S", None, NE, None, 1, None, (-1,), "one"),
]


def table_row_index(n: int, m: int, j: int, vj_ne: bool, vj1_ne: bool | None) -> int:
    """The 1-based XI_TABLE row governing position j of the image."""
    crit = n + 1 - m
    if j == n:
        return 13 if m == 1 else 14
    if j == crit:
        return 1 if vj1_ne else 2
    if j == crit - 1:
        return 3 if vj_ne else 4
    if j < crit - 1:
        if vj_ne:
            return 5 if vj1_ne else 6
        return 7 if vj1_ne else 8
    if vj_ne:
        return 9 if vj1_ne else 10
    return 11 if vj1_ne else 12


def _class_matches(step: StepType, expected: str) -> bool:
    if expected == NE:
        return step in NE_STEPS
    if expected == SDE:
        return step not in NE_STEPS
    return step.letter == expected  # exact tag in rows 13-14


def check_table_row(
    w_hist: LaguerreHistory, v_hist: LaguerreHistory, j: int, row: XiTableRow
) -> str | None:
    """Verify position j of (W, V) against a table row.

    Returns None on success, otherwise a short description of the
    violated constraint.
    """
    n = w_hist.n
    h, c = w_hist.h, w_hist.c
    v, g, b = v_hist.w, v_hist.h, v_hist.c
    gj = g[j - 1]
    gj1 = g[j] if j < n else 0
    bj = b[j - 1]

    if not _class_matches(v[j - 1], row.vj):
        return f"step {j} of image is not {row.vj}"
    if row.vj1 is not None and not _class_matches(v[j], row.vj1):
        return f"step {j + 1} of image is not {row.vj1}"
    if not _class_matches(w_hist.w[n - j], row.w_rev):
        return f"step {n + 1 - j} of source is not {row.w_rev}"
    if row.w_rev_next is not None and not _class_matches(w_hist.w[n - j - 1], row.w_rev_next):
        return f"step {n - j} of source is not {row.w_rev_next}"

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

    if row.b_rule == "zero":
        ok = bj == 0
    elif row.b_rule == "one":
        ok = bj == 1
    elif row.b_rule == "lo0":
        ok = 0 <= bj <= gj
    else:
        ok = 1 <= bj <= gj
    if not ok:
        return f"b_{j} = {bj} violates rule {row.b_rule} with g_{j} = {gj}"
    return None


def check_against_table(w_hist: LaguerreHistory, v_hist: LaguerreHistory) -> str | None:
    """Match every position of (W, xi(W)) to its XI_TABLE row."""
    n = w_hist.n
    if n == 0:
        return None
    m = critical_step(w_hist)
    v = v_hist.w
    for j in range(1, n + 1):
        vj_ne = v[j - 1] in NE_STEPS
        vj1_ne = v[j] in NE_STEPS if j < n else None
        row = XI_TABLE[table_row_index(n, m, j, vj_ne, vj1_ne) - 1]
        problem = check_table_row(w_hist, v_hist, j, row)
        if problem is not None:
            return f"row {row.row} at j={j}: {problem}"
    return None


def xi_table_coverage(n: int) -> Counter:
    """How often each XI_TABLE row fires across all histories of length n."""
    hits: Counter = Counter()
    for w_hist in enumerate_histories(n):
        m = critical_step(w_hist)
        v_hist = xi(w_hist)
        v = v_hist.w
        for j in range(1, n + 1):
            vj_ne = v[j - 1] in NE_STEPS
            vj1_ne = v[j] in NE_STEPS if j < n else None
            hits[table_row_index(n, m, j, vj_ne, vj1_ne)] += 1
    return hits
