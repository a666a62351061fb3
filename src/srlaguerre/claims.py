"""Registry of verifiable claims about the involution and the bijections.

A claim checks one statement per weighted path or permutation of a size,
or one per size for the moments, distributions and Mahonian tables, and
reports the first counterexample in canonical order.  The encoding claims
read multisets by name off records: ``_KEYS`` pairs each multiset of the
encoded history with its linear, cyclic and shifted counterparts (a family's
view is its column), and ``_FORMULAS`` writes each derived multiset once.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .genfun import _a_exponents, laguerre_moments
from .histories import (
    NDE_STEPS,
    NE_STEPS,
    LaguerreHistory,
    critical_step,
    enumerate_histories,
    history_statistics,
)
from .involution import check_against_table, verify_xi_contract, xi
from .mfs_action import (
    coordinate_counts_by_extrema,
    coordinate_counts_zero_boundary,
    mfs_full,
    pattern_multisets_zero_boundary,
    starred_classes,
)
from .multiset import ContainmentViolation, IntMultiset, as_ints, kappa
from .bijections import (
    conjugated_map,
    kreweras,
    phi_csz,
    phi_fv,
    phi_fz,
    phi_yzl,
    theta,
)
from .perm_stats import (
    Permutation,
    _left_ranks,
    _one_glue_counts,
    avoiders,
    cyclic_family,
    iter_perms,
    linear_family,
    mahonian,
    pattern_multisets,
    shifted_family,
    statistic,
    trivial_bijection,
    vincular_count,
)

__all__ = [
    "ClaimOutcome",
    "ClaimSpec",
    "CLAIM_REGISTRY",
    "claim_ids",
    "get_claim",
    "run_claim",
    "UnknownClaim",
]


class UnknownClaim(ValueError):
    """No claim registered under the given id."""


@dataclass(frozen=True)
class ClaimOutcome:
    claim: str
    n: int
    status: str  # "pass" or "fail"
    checked: int
    counterexample: str | None
    millis: int

    def to_json(self) -> dict:
        data = {
            "claim": self.claim,
            "n": self.n,
            "status": self.status,
            "checked": self.checked,
            "millis": self.millis,
        }
        if self.counterexample is not None:
            data["counterexample"] = self.counterexample
        return data


@dataclass(frozen=True)
class ClaimSpec:
    claim_id: str
    description: str
    items: str  # "histories", "perms" or "whole": a key of _ITEMS
    test: Callable[[int, object], "str | None"]


@lru_cache(maxsize=16)
def _full_range(n: int) -> IntMultiset:
    """[n-1] as a multiset, built once per n while a sweep runs (the value
    is immutable)."""
    return IntMultiset(range(1, n))


def _kap(n: int, m: IntMultiset) -> IntMultiset:
    return kappa(n + 1, m)


def _first_mismatch(item, checks: Sequence[tuple]) -> str | None:
    """Describe the first (label, lhs, rhs) check whose two sides differ;
    multisets are shown by ``to_text()``, integers by ``str()``."""
    for label, lhs, rhs in checks:
        if lhs != rhs:
            show = str if isinstance(lhs, int) else IntMultiset.to_text
            return f"{item.to_text()}: {label}: {show(lhs)} != {show(rhs)}"
    return None


# ---------------------------------------------------------------------------
# History-side claims
# ---------------------------------------------------------------------------

def _test_involution(n: int, w_hist: LaguerreHistory) -> str | None:
    v_hist = xi(w_hist)
    if xi(v_hist) != w_hist:
        return f"{w_hist.to_text()}: double application differs"
    if not verify_xi_contract(w_hist, v_hist):
        return f"{w_hist.to_text()}: defining conditions violated"
    problem = check_against_table(w_hist, v_hist)
    if problem is not None:
        return f"{w_hist.to_text()}: {problem}"
    return None


def _test_five_stat_symmetry(n: int, w_hist: LaguerreHistory) -> str | None:
    g = _a_exponents(w_hist)
    h = _a_exponents(xi(w_hist))
    # (|Ht| - |Wt|, Neb, Sdeb, Nea, Sdea) of W against (.., Sdea, Nea, Sdeb, Neb) of xi(W).
    lhs = (g[7] - g[8], g[2], g[0], g[3], g[1])
    rhs = (h[7] - h[8], h[1], h[3], h[0], h[2])
    if lhs != rhs:
        return f"{w_hist.to_text()}: {lhs} != {rhs}"
    return None


def _reflects(n: int, w_hist: LaguerreHistory, v_hist: LaguerreHistory) -> bool:
    """Whether W and V meet Cor 3.6's eight identities.

    The class, Ht and Wt identities are xi's conditions 1-4, checked by
    ``verify_xi_contract``.  The Nde and Asc identities are then read
    pointwise in one pass, step i of W against step j = n+1-i of V: i-1 is
    in Nde(W), or Asc(W), exactly when j is not in Nde(V), or Asc(V), with
    ``history_statistics``' ascent rule.
    """
    if not verify_xi_contract(w_hist, v_hist):
        return False
    # Step i-1 of W (its Nde flag and ascent threshold) and b_{j+1} of V.
    nde_before = low_before = weight_after = None
    for j, step, weight, image, b_j in zip(
            range(n, 0, -1), w_hist.w, w_hist.c, reversed(v_hist.w), reversed(v_hist.c)):
        nde = image in NDE_STEPS
        low = b_j if image in NE_STEPS else b_j - 1
        if j < n and (nde == nde_before or (low < weight_after) == (low_before < weight)):
            return False
        nde_before = step in NDE_STEPS
        low_before = weight if step in NE_STEPS else weight - 1
        weight_after = b_j
    return True


def _multiset_symmetry(n: int, w_hist: LaguerreHistory, v_hist: LaguerreHistory) -> str | None:
    """Cor 3.6 for W and V.  Only when ``_reflects`` finds a mismatch are
    the two records built, to name the first check that fails."""
    if _reflects(n, w_hist, v_hist):
        return None
    g = history_statistics(w_hist)
    h = history_statistics(v_hist)
    checks = [
        ("Neb", g.Neb, _kap(n, h.Sdea)),
        ("Sdeb", g.Sdeb, _kap(n, h.Nea)),
        ("Nea", g.Nea, _kap(n, h.Sdeb)),
        ("Sdea", g.Sdea, _kap(n, h.Neb)),
        ("Ht", g.Ht, _kap(n, (h.Ht | h.Neb) - h.Sdea)),
        ("Wt", g.Wt, _kap(n, (h.Wt | h.Neb) - h.Sdea)),
        ("Nde", _full_range(n) - g.Nde, kappa(n, h.Nde)),
        ("Asc", _full_range(n) - g.Asc, kappa(n, h.Asc)),
    ]
    return _first_mismatch(w_hist, checks)


def _test_multiset_symmetry(n: int, w_hist: LaguerreHistory) -> str | None:
    return _multiset_symmetry(n, w_hist, xi(w_hist))


def _a_image(n: int, exps: Sequence[int]) -> tuple[int, ...]:
    """Cor 1.1's monomial map of A_n on one exponent tuple (in the order of
    ``A_VARIABLES``); it carries the exponents of xi(W) to those of W."""
    t1, t2, t3, t4, r, s, x, v, w = exps
    return (t4, t3, t2, t1, n - 1 - r, n - 1 - s, n + 1 - x, v + t3 - t2, w + t3 - t2)


def _test_exponent_symmetry(n: int, w_hist: LaguerreHistory) -> str | None:
    image = _a_image(n, _a_exponents(xi(w_hist)))
    return (None if _a_exponents(w_hist) == image
            else f"{w_hist.to_text()}: exponent relations violated")


# ---------------------------------------------------------------------------
# Encoding claims
# ---------------------------------------------------------------------------

# Props 4.3, 4.10 and 4.17 in check order: a multiset of the encoded history
# and the ones standing for it in the linear, cyclic and shifted families
# (None: no counterpart).
_KEYS = {
    "Sdeb": ("Sdeb", "Dtb", "Excb", "Vnepb"),
    "Sdea": ("Sdea", "Dta", "Exca", "Vnepa"),
    "Ndeb": ("Ndeb", "Dbb", "Epb", "Vnexb"),
    "Ndea": ("Ndea", "Dba", "Epa", "Vnexa"),
    "Neb": ("Neb", "Abb", "Nexcb", "Vepb"),
    "Nea": ("Nea", "Aba", "Nexca", "Vepa"),
    "Asc": ("Asc", "Ides", None, None),
    "Nde": ("Nde", "Db", "Ep", "Vnex"),
    "Ht": ("Ht", "Ddif", "Edif", "Vedif"),
    "Wt": ("Wt", "Dt+2-31", "Exc+Ine", "Vnepb+Vnepa+Vnest"),
    "2-13": ("(Wt-Nea)-Sdea", "2-13", "Ine+Excb-Nexca", "Vnest+Vnepb-Vepa"),
    "2-31": ("(Wt-Sdeb)-Sdea", "2-31", "Ine", "Vnest"),
    "31-2": ("Ht-Wt", "31-2", "Edif-Exc-Ine", "Vedif-rest"),
}
_COLUMNS = [{key: names[i] for key, names in _KEYS.items() if names[i]} for i in range(4)]

# The multisets no record holds.  The last letter, always a non-excedance
# value but never an ascent bottom and outside the value reflection, is
# removed from Nexc.
_FORMULAS: dict[str, Callable[[dict], IntMultiset]] = {
    "(Wt-Nea)-Sdea": lambda r: (r["Wt"] - r["Nea"]) - r["Sdea"],
    "(Wt-Sdeb)-Sdea": lambda r: (r["Wt"] - r["Sdeb"]) - r["Sdea"],
    "Ht-Wt": lambda r: r["Ht"] - r["Wt"],
    "Dt+2-31": lambda r: r["Dt"] | r["2-31"],
    "Exc+Ine": lambda r: r["Exc"] | r["Ine"],
    "Ine+Excb-Nexca": lambda r: (r["Ine"] | r["Excb"]) - r["Nexca"],
    "Edif-Exc-Ine": lambda r: (r["Edif"] - r["Exc"]) - r["Ine"],
    "Nexc-last": lambda r: r["Nexc"] - IntMultiset([r["last"]]),
    "Vnepb+Vnepa+Vnest": lambda r: r["Vnepb"] | r["Vnepa"] | r["Vnest"],
    "Vnest+Vnepb-Vepa": lambda r: (r["Vnest"] | r["Vnepb"]) - r["Vepa"],
    "Vedif-rest": lambda r: ((r["Vedif"] - r["Vnepb"]) - r["Vnepa"]) - r["Vnest"],
}


def _rows(triples: Iterable[tuple[str, str, str]]) -> list[tuple]:
    """(label, name, name) rows, each name made a reader of a record of
    multisets by name: its formula, or the record's entry."""
    return [(label, *(_FORMULAS.get(name) or itemgetter(name) for name in names))
            for label, *names in triples]


# A view is a family's column with its record.  The records, like the
# claims' encoders, look functions up when they run, so a rebinding of a
# module global reaches them.
def _linear(pi: Permutation) -> dict:
    m13, m31, m312 = pattern_multisets(pi)
    return {**vars(linear_family(pi)), "2-13": m13, "2-31": m31, "31-2": m312}


_LINEAR = (_COLUMNS[1], _linear)
_CYCLIC = (_COLUMNS[2], lambda pi: {**vars(cyclic_family(pi)), "last": pi.value(pi.n)})
_SHIFTED = (_COLUMNS[3], lambda pi: vars(shifted_family(pi)))


def _correspondence(encoding: str, view, last_is_critical: bool = True):
    """Props 4.3, 4.10, 4.17: the view against the encoded history."""
    labels, record = view
    rows = _rows((labels[key], labels[key], name)
                 for key, name in _COLUMNS[0].items() if key in labels)

    def test(n: int, pi: Permutation) -> str | None:
        g = vars(history_statistics(globals()[encoding](pi)))
        r = record(pi)
        if last_is_critical and pi.value(n) != g["cs"]:
            return f"{pi.to_text()}: last letter != critical step"
        return _first_mismatch(pi, [(label, a(r), b(g)) for label, a, b in rows])

    return test


# Cor 3.6 through an encoding: a key on a permutation against a key on its
# conjugate, then the keys complemented in [n-1].
_KAPPA_PAIRS = (("Sdeb", "Nea"), ("Sdea", "Neb"), ("Neb", "Sdea"), ("Nea", "Sdeb"),
                ("2-13", "2-31"), ("2-31", "2-13"), ("31-2", "31-2"))

# The eta corollary's head rows: Exc and Nexc swap, the last letter aside.
_ETA_HEAD = (("Exc", "Exc", "Nexc-last"), ("Nexc", "Nexc-last", "Exc"))


def _conjugate(which: str, view, head: tuple = (), pairs=_KAPPA_PAIRS):
    """Cor 3.6 through the conjugated map (Cor 4.4, the eta and rho corollaries).
    The eta corollary's head rows, Exc and Nexc, replace the one-sided pairs."""
    labels, record = view
    rows = _rows(head + tuple((labels[a], labels[a], labels[b]) for a, b in pairs))
    complements = _rows((labels[key],) * 3 for key in ("Nde", "Asc") if key in labels)

    def test(n: int, pi: Permutation) -> str | None:
        p, s = record(pi), record(conjugated_map(pi, which))
        return _first_mismatch(pi, [(label, a(p), _kap(n, b(s))) for label, a, b in rows] + [
            (label, _full_range(n) - a(p), kappa(n, b(s))) for label, a, b in complements])

    return test


# The linear multisets of pi and the cyclic ones of phi_csz(pi) they equal.
_CSZ_ROWS = _rows((
    ("Dt/Exc", "Dt", "Exc"), ("Db/Ep", "Db", "Ep"), ("Ab/Nexc", "Ab", "Nexc-last"),
    *((key, _COLUMNS[1][key], _COLUMNS[2][key]) for key in ("2-13", "2-31", "31-2")),
    ("Dbot/Ebot", "Dbot", "Ebot"), ("Ddif/Edif", "Ddif", "Edif")))


def _test_csz_transport(n: int, pi: Permutation) -> str | None:
    sigma = phi_csz(pi)
    lin, cyc = _linear(pi), _CYCLIC[1](sigma)
    if pi.value(n) != sigma.value(n):
        return f"{pi.to_text()}: last letters differ"
    return _first_mismatch(pi, [(label, a(lin), b(cyc)) for label, a, b in _CSZ_ROWS])


def _test_critical_is_pone(n: int, pi: Permutation) -> str | None:
    if critical_step(phi_yzl(pi)) != pi.position(1):
        return f"{pi.to_text()}: critical step != position of 1"
    return None


# ---------------------------------------------------------------------------
# Valley-hopping claims
# ---------------------------------------------------------------------------

def _test_valley_hopping(n: int, pi: Permutation) -> str | None:
    sigma = mfs_full(pi)
    if mfs_full(sigma) != pi:
        return f"{pi.to_text()}: double application differs"
    des = statistic("des")
    if des(sigma) != n - 1 - des(pi):
        return f"{pi.to_text()}: descent counts not complementary"
    # 2-13 and 31-2 read under the zero boundary equal the plain multisets.
    mp = pattern_multisets_zero_boundary(pi)
    ms = pattern_multisets_zero_boundary(sigma)
    if mp[0] != ms[0] or mp[2] != ms[2]:
        return f"{pi.to_text()}: 2-13 or 31-2 multiset changed"
    star = starred_classes(pi)
    try:
        expected = (mp[1] | star.Ldd) - star.Lda
    except ContainmentViolation as exc:
        return f"{pi.to_text()}: {exc}"
    if ms[1] != expected:
        return f"{pi.to_text()}: boundary 2-31 multiset mismatch"
    return None


def _test_extrema_counting(n: int, pi: Permutation) -> str | None:
    by_extrema = coordinate_counts_by_extrema(pi)
    for which in ("2-13", "2-31", "31-2"):
        counts = coordinate_counts_zero_boundary(pi, which)
        for i, (direct, paired) in enumerate(zip(counts, by_extrema[which], strict=True), start=1):
            if direct != paired:
                return f"{pi.to_text()}: {which} at {i}: {direct} != {paired}"
    return None


# ---------------------------------------------------------------------------
# Distribution claims
# ---------------------------------------------------------------------------

def _stat_bundle(pi: Permutation) -> tuple[int, int, int, int, int]:
    g = _one_glue_counts(pi.word, _left_ranks(pi.word))
    return (g["u31_2"], g["2u13"], g["2u31"], statistic("des")(pi), statistic("ides")(pi))


def _counter_claim(
    lhs_key: Callable[[int, tuple], tuple],
    rhs_key: Callable[[int, tuple], tuple],
    restricted: bool = False,
) -> Callable[[int, object], "str | None"]:
    def test(n: int, _: object) -> str | None:
        perms = avoiders(n, (3, 1, 2)) if restricted else iter_perms(n)
        lhs: Counter = Counter()
        rhs: Counter = Counter()
        for pi in perms:
            bundle = _stat_bundle(pi)
            lhs[lhs_key(n, bundle)] += 1
            rhs[rhs_key(n, bundle)] += 1
        if lhs != rhs:
            diff = next(iter(set(lhs.items()) ^ set(rhs.items())))
            return f"distributions differ near {diff}"
        return None

    return test


def _q_factorial_counter(n: int) -> Counter:
    coeffs = [1]
    for k in range(2, n + 1):
        new = [0] * (len(coeffs) + k - 1)
        for e, c in enumerate(coeffs):
            for j in range(k):
                new[e + j] += c
        coeffs = new
    return Counter({e: c for e, c in enumerate(coeffs) if c})


def _mahonian_claim(names: Sequence[str]) -> Callable[[int, object], "str | None"]:
    def test(n: int, _: object) -> str | None:
        expected = _q_factorial_counter(n)
        # Permutations outside, so each one's ingredients are computed once
        # for all names; failures are still reported in registry order.
        got = {name: Counter() for name in names}
        for pi in iter_perms(n):
            for name in names:
                got[name][mahonian(pi, name)] += 1
        for name in names:
            if got[name] != expected:
                return f"{name} is not Mahonian at n={n}"
        return None

    return test


def _test_complement_transport(n: int, pi: Permutation) -> str | None:
    comp = trivial_bijection(pi, "c")
    checks = [
        ("mad_p/sist_pp", mahonian(pi, "mad_p"), mahonian(comp, "sist_pp")),
        ("madl_p/sist_p", mahonian(pi, "madl_p"), mahonian(comp, "sist_p")),
        ("makl_p/makl", mahonian(pi, "makl_p"), mahonian(comp, "makl")),
    ]
    return _first_mismatch(pi, checks)


def _test_pattern_sum_identity_a(n: int, pi: Permutation) -> str | None:
    g = _one_glue_counts(pi.word, _left_ranks(pi.word))
    lhs = g["2u13"] + vincular_count(pi, "u12")
    rhs = g["2u31"] + pi.value(n) - 1
    if lhs != rhs:
        return f"{pi.to_text()}: {lhs} != {rhs}"
    return None


def _test_pattern_sum_identity_b(n: int, pi: Permutation) -> str | None:
    g = _one_glue_counts(pi.word, _left_ranks(pi.word))
    des = statistic("des")(pi)
    lhs = (g["3u12"] + g["u12_3"] + g["2u13"] + g["u13_2"]
           + vincular_count(pi, "u12") + n * des)
    rhs = (g["1u32"] + g["u32_1"] + g["2u31"] + g["u31_2"]
           + 2 * vincular_count(pi, "u21"))
    if lhs - rhs != n * (n - 3) // 2 + pi.value(n):
        return f"{pi.to_text()}: {lhs - rhs} != {n * (n - 3) // 2 + pi.value(n)}"
    return None


_EQ34_LHS = ("yzl1", "yzl2", "yzl3", "yzl4", "yzl1_p", "yzl2_p", "yzl3_p", "yzl4_p")
_EQ34_RHS = ("den_p", "inv_p", "fz3_p", "fz4_p", "den", "inv", "fz3", "fz4")


def _test_shifted_mahonian_transport(n: int, pi: Permutation) -> str | None:
    image = trivial_bijection(pi, "rci")
    for left, right in zip(_EQ34_LHS, _EQ34_RHS):
        if mahonian(pi, left) != mahonian(image, right):
            return f"{pi.to_text()}: {left} != {right} of reverse-complement-inverse"
    return None


def _test_eta_is_theta(n: int, pi: Permutation) -> str | None:
    if conjugated_map(pi, "eta") != theta(pi):
        return f"{pi.to_text()}: conjugated map differs from mirror map"
    return None


def _test_yzl_factorization(n: int, pi: Permutation) -> str | None:
    target = phi_yzl(pi)
    if target != phi_fz(kreweras(pi)):
        return f"{pi.to_text()}: shifted encoding != cyclic of Kreweras complement"
    if target != xi(phi_fz(trivial_bijection(pi, "rci"))):
        return f"{pi.to_text()}: shifted encoding != involution of conjugated cyclic"
    return None


def _moment_claim(alpha: int) -> Callable[[int, object], "str | None"]:
    def test(n: int, _: object) -> str | None:
        moment = laguerre_moments(alpha, n + 1)[n]
        expected = math.factorial(n + alpha)
        if moment != expected:
            return f"moment {moment} != {expected}"
        return None

    return test


# ---------------------------------------------------------------------------
# Registry and runner
# ---------------------------------------------------------------------------

def _whole(n: int) -> Iterable:
    return (n,)


# Item sources, looked up by run_claim on every call, so a rebinding of an
# entry (as perfbench's tracer makes) reaches every sweep.
_ITEMS: dict[str, Callable[[int], Iterable]] = {
    "histories": enumerate_histories,
    "perms": iter_perms,
    "whole": _whole,
}


CLAIM_REGISTRY: tuple[ClaimSpec, ...] = (
    ClaimSpec("thm3.2-involution",
              "the path map is an involution obeying its defining conditions"
              " and local case table",
              "histories", _test_involution),
    ClaimSpec("cor3.3",
              "five-statistic numeric symmetry under the path involution",
              "histories", _test_five_stat_symmetry),
    ClaimSpec("cor3.6",
              "multiset-valued symmetry under the path involution",
              "histories", _test_multiset_symmetry),
    ClaimSpec("cor1.1",
              "monomial exponent symmetry of the nine-variable polynomial",
              "histories", _test_exponent_symmetry),
    ClaimSpec("prop4.3",
              "linear statistics transported by the value-class encoding",
              "perms", _correspondence("phi_fv", _LINEAR)),
    ClaimSpec("cor4.4",
              "linear statistics reflected by the conjugated involution",
              "perms", _conjugate("phi", _LINEAR)),
    ClaimSpec("eq14",
              "joint symmetry of (31-2, 2-13, 2-31, des, ides)",
              "whole", _counter_claim(
                  lambda n, b: b,
                  lambda n, b: (b[0], b[2], b[1], n - 1 - b[3], n - 1 - b[4]))),
    ClaimSpec("eq17",
              "(des, 2-31, 31-2) ~ (n-1-des, 2-13, 31-2)",
              "whole", _counter_claim(
                  lambda n, b: (b[3], b[2], b[0]),
                  lambda n, b: (n - 1 - b[3], b[1], b[0]))),
    ClaimSpec("eq18",
              "(des, 2-13, 31-2) ~ (n-1-des, 2-13, 31-2)",
              "whole", _counter_claim(
                  lambda n, b: (b[3], b[1], b[0]),
                  lambda n, b: (n - 1 - b[3], b[1], b[0]))),
    ClaimSpec("eq19",
              "(des, 2-13, 31-2) ~ (des, 2-31, 31-2)",
              "whole", _counter_claim(
                  lambda n, b: (b[3], b[1], b[0]),
                  lambda n, b: (b[3], b[2], b[0]))),
    ClaimSpec("eq19-restricted",
              "(des, 2-13) ~ (des, 2-31) over 312-avoiders",
              "whole", _counter_claim(
                  lambda n, b: (b[3], b[1]),
                  lambda n, b: (b[3], b[2]),
                  restricted=True)),
    ClaimSpec("thm4.6",
              "valley hopping complements descents and shifts the boundary"
              " 2-31 multiset by the starred double classes",
              "perms", _test_valley_hopping),
    ClaimSpec("fact4.8",
              "coordinate counts equal consecutive extrema-pair counts",
              "perms", _test_extrema_counting),
    ClaimSpec("prop4.10",
              "cyclic statistics transported by the excedance-class encoding",
              "perms", _correspondence("phi_fz", _CYCLIC)),
    ClaimSpec("csz-corollary",
              "linear-to-cyclic statistic transport along the composed"
              " encoding",
              "perms", _test_csz_transport),
    ClaimSpec("eta-corollary",
              "cyclic statistics reflected by the conjugated involution",
              "perms", _conjugate("eta", _CYCLIC, _ETA_HEAD, _KAPPA_PAIRS[4:])),
    ClaimSpec("prop4.17",
              "shifted statistics transported by the nesting encoding",
              "perms", _correspondence("phi_yzl", _SHIFTED, last_is_critical=False)),
    ClaimSpec("lem4.14",
              "the critical step equals the position of the letter 1",
              "perms", _test_critical_is_pone),
    ClaimSpec("rho-corollary",
              "shifted statistics reflected by the conjugated involution",
              "perms", _conjugate("rho", _SHIFTED)),
    ClaimSpec("tab2-mahonian",
              "the eighteen closed-form statistics are Mahonian",
              "whole", _mahonian_claim((
                  "mak_p", "mad_p", "makl_p", "madl_p", "fz3", "fz4",
                  "inv_p", "den_p", "fz3_p", "fz4_p",
                  "yzl1", "yzl2", "yzl3", "yzl4",
                  "yzl1_p", "yzl2_p", "yzl3_p", "yzl4_p"))),
    ClaimSpec("tab3-mahonian",
              "the seventeen pattern-sum statistics are Mahonian",
              "whole", _mahonian_claim((
                  "maj", "inv", "mak", "makl", "mad", "madl",
                  "bast", "bast_p", "bast_pp",
                  "foze", "foze_p", "foze_pp",
                  "sist", "sist_p", "sist_pp", "den", "sor"))),
    ClaimSpec("thm4.20",
              "primed statistics transported by complementation",
              "perms", _test_complement_transport),
    ClaimSpec("lem4.21",
              "2-13 plus adjacent ascents equals 2-31 plus last letter"
              " minus one",
              "perms", _test_pattern_sum_identity_a),
    ClaimSpec("lem4.22",
              "signed vincular pattern sum identity with descents",
              "perms", _test_pattern_sum_identity_b),
    ClaimSpec("eq34",
              "the eight shifted statistics match the cyclic ones after"
              " reverse-complement-inverse",
              "perms", _test_shifted_mahonian_transport),
    ClaimSpec("thm4.23-eq35",
              "the cyclic conjugated involution equals the mirror map",
              "perms", _test_eta_is_theta),
    ClaimSpec("thm4.23-eq36",
              "the shifted encoding factors through the Kreweras complement",
              "perms", _test_yzl_factorization),
    ClaimSpec("moments-alpha0",
              "continued-fraction moments with weights (2k+1, k^2) are n!",
              "whole", _moment_claim(0)),
    ClaimSpec("moments-alpha1",
              "continued-fraction moments with weights (2k+2, k(k+1)) are"
              " (n+1)!",
              "whole", _moment_claim(1)),
)

_BY_ID = {spec.claim_id: spec for spec in CLAIM_REGISTRY}


def claim_ids() -> tuple[str, ...]:
    return tuple(spec.claim_id for spec in CLAIM_REGISTRY)


def get_claim(claim_id: str) -> ClaimSpec:
    try:
        return _BY_ID[claim_id]
    except KeyError:
        raise UnknownClaim(claim_id) from None


def run_claim(claim_id: str, n: int, threads: int = 1) -> ClaimOutcome:
    """Run one claim exhaustively at size n >= 1, stopping at the first
    counterexample in canonical order.

    ``threads`` is accepted for compatibility and ignored: every sweep
    runs serially in the calling thread.
    """
    spec = get_claim(claim_id)
    (n,) = as_ints([n], "claim sizes")
    if n < 1:
        raise ValueError(f"claims are stated for n >= 1, got n = {n}")
    start = time.monotonic()
    checked = 0
    counterexample = None
    for item in _ITEMS[spec.items](n):
        counterexample = spec.test(n, item)
        if counterexample is not None:
            break
        checked += 1
    millis = int((time.monotonic() - start) * 1000)
    status = "pass" if counterexample is None else "fail"
    return ClaimOutcome(claim_id, n, status, checked, counterexample, millis)
