"""Exact sparse Laurent polynomials and the generating functions they carry.

The nine-variable polynomial A_n sums a monomial over every weighted path
of length n; its symmetry under the path involution, its classical
specializations (Eulerian, double Eulerian, (p,q)-Eulerian, (q,t)-Catalan),
generic joint-distribution polynomials over the symmetric group, and
continued-fraction moment sequences are all computed here with integer
arithmetic only.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from .histories import (
    LaguerreHistory,
    enumerate_histories,
    history_statistics,
)
from .perm_stats import avoiders, iter_perms, statistic


class NegativePDegree(ValueError):
    """A limit variable appeared with a negative exponent."""


class MultiPoly:
    """Sparse polynomial with integer Laurent exponents.

    ``variables`` is the ordered tuple of names; ``terms`` maps exponent
    tuples (one entry per variable, possibly negative) to nonzero integer
    coefficients.  A polynomial starts at zero and grows by ``add_term``.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str]):
        self.variables = tuple(variables)
        self.terms: dict[tuple[int, ...], int] = {}

    def add_term(self, exps: tuple[int, ...], coeff: int = 1) -> None:
        if len(exps) != len(self.variables):
            raise ValueError("exponent tuple length mismatch")
        new = self.terms.get(exps, 0) + coeff
        if new:
            self.terms[exps] = new
        else:
            self.terms.pop(exps, None)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __repr__(self) -> str:
        return f"MultiPoly({self.to_text()!r})"

    def _sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    def to_text(self) -> str:
        """Graded-lex listing, e.g. ``1 + 2 q + 2 q^2 + q^3``."""
        if not self.terms:
            return "0"
        chunks = []
        for exps, coeff in self._sorted_terms():
            factors = []
            for name, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append(f"{name}^{e}")
            if not factors:
                chunks.append(str(coeff))
            elif coeff == 1:
                chunks.append(" ".join(factors))
            else:
                chunks.append(f"{coeff} " + " ".join(factors))
        return " + ".join(chunks)

    def to_json(self) -> list[dict]:
        return [
            {
                "coeff": coeff,
                "exps": {
                    name: e for name, e in zip(self.variables, exps) if e
                },
            }
            for exps, coeff in self._sorted_terms()
        ]

    def evaluate(self, values: Mapping[str, int]) -> int:
        """Evaluate at integer points (negative exponents need value ±1)."""
        total = 0
        for exps, coeff in self.terms.items():
            prod = coeff
            for name, e in zip(self.variables, exps):
                base = values[name]
                if e < 0:
                    if base not in (1, -1):
                        raise ValueError("negative exponent at non-unit")
                    prod *= base ** (-e)
                else:
                    prod *= base**e
            total += prod
        return total


A_VARIABLES = ("t1", "t2", "t3", "t4", "r", "s", "x", "v", "w")


def _a_exponents(history: LaguerreHistory) -> tuple[int, ...]:
    g = history_statistics(history)
    return (len(g.Sdeb), len(g.Sdea), len(g.Neb), len(g.Nea), len(g.Nde),
            len(g.Asc), g.cs, len(g.Ht), len(g.Wt))


def a_polynomial(n: int) -> MultiPoly:
    """Sum over all length-n weighted paths of
    t1^sdeb t2^sdea t3^neb t4^nea r^nde s^asc x^cs v^ht w^wt."""
    if n < 1:
        raise ValueError("n must be positive")
    poly = MultiPoly(A_VARIABLES)
    for history in enumerate_histories(n):
        poly.add_term(_a_exponents(history))
    return poly


def specialize(
    poly: MultiPoly, subst: Mapping[str, Mapping[str, int]]
) -> MultiPoly:
    """Substitute a monomial (coefficient 1) for each variable.

    ``subst`` maps every variable of ``poly`` to a mapping new-variable ->
    exponent; an empty mapping substitutes the constant 1.  The result's
    variables appear in order of first appearance, scanning the old
    variables in order.
    """
    new_vars: list[str] = []
    for name in poly.variables:
        if name not in subst:
            raise ValueError(f"no substitution for variable {name!r}")
        for new in subst[name]:
            if new not in new_vars:
                new_vars.append(new)
    index = {name: k for k, name in enumerate(new_vars)}
    result = MultiPoly(new_vars)
    for exps, coeff in poly.terms.items():
        new_exps = [0] * len(new_vars)
        for name, e in zip(poly.variables, exps):
            for new, f in subst[name].items():
                new_exps[index[new]] += e * f
        result.add_term(tuple(new_exps), coeff)
    return result


def _distribution_variables(count: int) -> tuple[str, ...]:
    if count == 1:
        return ("q",)
    return tuple(f"q{k}" for k in range(1, count + 1))


def joint_distribution(
    n: int,
    stats: Sequence[str],
    filter: Sequence[int] | None = None,
) -> MultiPoly:
    """Joint distribution polynomial of the named statistics over S_n,
    optionally restricted to avoiders of a classical pattern."""
    if n < 1:
        raise ValueError("n must be positive")
    fns = [statistic(name) for name in stats]
    poly = MultiPoly(_distribution_variables(len(stats)))
    perms: Iterable = avoiders(n, filter) if filter else iter_perms(n)
    for pi in perms:
        poly.add_term(tuple(fn(pi) for fn in fns))
    return poly


PQ_EULERIAN_SUBST: dict[str, dict[str, int]] = {
    "t1": {"t": 1},
    "t2": {"t": 1, "p": -1},
    "t3": {},
    "t4": {"p": -1},
    "r": {},
    "s": {},
    "x": {},
    "v": {"q": 1},
    "w": {"p": 1, "q": -1},
}


def qt_catalan(n: int) -> MultiPoly:
    """(q,t)-Catalan polynomial in variables (t, q).

    Computed directly as the distribution of (des, 31-2) over 213-avoiders,
    and cross-checked against the p -> 0 limit of the (p,q)-Eulerian
    specialization of A_n; raises NegativePDegree if the limit does not
    exist, and ValueError if the two computations disagree.
    """
    direct = MultiPoly(("t", "q"))
    des = statistic("des")
    three_one_two = statistic("u31_2")
    for pi in avoiders(n, (2, 1, 3)):
        direct.add_term((des(pi), three_one_two(pi)))

    pq = specialize(a_polynomial(n), PQ_EULERIAN_SUBST)
    p_index = pq.variables.index("p")
    limit = MultiPoly(("t", "q"))
    t_index = pq.variables.index("t")
    q_index = pq.variables.index("q")
    for exps, coeff in pq.terms.items():
        if exps[p_index] < 0:
            raise NegativePDegree(f"term with p^{exps[p_index]} in A_{n}")
        if exps[p_index] == 0:
            limit.add_term((exps[t_index], exps[q_index]), coeff)
    if direct != limit:
        raise ValueError("the two (q,t)-Catalan computations disagree")
    return direct


def jacobi_moments(
    b: Callable[[int], int], lam: Callable[[int], int], count: int
) -> list[int]:
    """First ``count`` moments of the continued fraction with level weights
    b_k and down weights lam_k, by weighted Motzkin-path counting."""
    if count < 1:
        raise ValueError("count must be positive")
    moments = [1]
    state = {0: 1}
    for _ in range(count - 1):
        new: dict[int, int] = {}
        for k, ways in state.items():
            new[k] = new.get(k, 0) + ways * b(k)
            new[k + 1] = new.get(k + 1, 0) + ways
            if k:
                new[k - 1] = new.get(k - 1, 0) + ways * lam(k)
        state = {k: v for k, v in new.items() if v}
        moments.append(state.get(0, 0))
    return moments


def laguerre_moments(alpha: int, count: int) -> list[int]:
    """First ``count`` moments of the Laguerre continued fraction, level
    weights 2k + alpha + 1 and down weights k(k + alpha); the k-th is
    (k + alpha)! / alpha!."""
    return jacobi_moments(lambda k: 2 * k + alpha + 1, lambda k: k * (k + alpha), count)
