"""Exact sparse Laurent polynomials and the generating functions they carry.

The nine-variable polynomial A_n sums a monomial over the n! restricted
Laguerre histories of length n.  Each of its exponents is a sum over the
steps of a local rule, once each step knows the next weight and whether a
zero weight lies to its right, so ``_transfer`` builds A_n (or any monomial
specialization of it) by a right-to-left transfer matrix in the manner of
Flajolet's path theory of continued fractions, without visiting the
histories.  Also here, with integer arithmetic only: the classical
specializations of A_n (Eulerian, double Eulerian, (p,q)-Eulerian,
(q,t)-Catalan), generic joint-distribution polynomials over the symmetric
group, and continued-fraction moment sequences.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from .histories import (
    NDE_STEPS,
    NE_STEPS,
    LaguerreHistory,
    StepType,
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


def _step_exponents(n: int, i: int, step: StepType, height: int, weight: int,
                    next_weight: int | None, zero_right: bool) -> tuple[int, ...]:
    """What step i adds to each exponent of A_n, in the order of
    ``A_VARIABLES``.  ``zero_right`` says whether some weight c_j with
    j > i is 0: then step i lies before cs; otherwise it is cs when
    c_i = 0 and lies after cs when c_i > 0."""
    sde = step not in NE_STEPS
    after = not zero_right and weight > 0
    at_cs = not zero_right and weight == 0
    return (int(sde and zero_right), int(sde and after),
            int(not sde and zero_right), int(not sde and after),
            int(step in NDE_STEPS), int(i < n and weight < next_weight + sde),
            i if at_cs else 0, height, weight)


def _transfer(n: int, subst: Mapping[str, Mapping[str, int]] | None = None) -> MultiPoly:
    """A_n, or ``specialize(A_n, subst)``, by a transfer matrix over the
    steps from right to left, without visiting the n! histories.

    Every exponent of A_n is a sum over the steps of ``_step_exponents``,
    which reads only the step, its height and weight, the next weight and
    whether a zero weight lies to the right.  So the sweep keeps, per state
    (height before step i, c_i, some c_j with j >= i is 0), the exponent
    tuples of the suffixes from step i on with their counts.  Under
    ``subst`` each step's exponents are mapped before they are added, so
    only the new variables' tuples are kept.

    A tuple travels packed into one integer, exponent k times 2**(shift k),
    so a step adds one integer.  No exponent of A_n exceeds n*n, nor, under
    ``subst``, n*n times the sum of its |exponents|; ``shift`` leaves room
    for every signed digit.
    """
    if n < 1:
        raise ValueError("n must be positive")
    variables, project = (A_VARIABLES, None) if subst is None else _substitution(A_VARIABLES, subst)
    scale = 1 if subst is None else max(1, sum(abs(f) for row in subst.values() for f in row.values()))
    shift = (n * n * scale).bit_length() + 1
    states: dict[tuple, dict[int, int]] = {(0, None, False): {0: 1}}
    for i in range(n, 0, -1):
        swept: dict[tuple, dict[int, int]] = {}
        for (end, next_weight, zero_right), suffixes in states.items():
            for step in StepType:
                height = end - step.rise
                # A path from height 0 reaches at most height i - 1 before step i.
                if not 0 <= height < i:
                    continue
                for weight in range(0 if step in NE_STEPS else 1, height + 1):
                    inc = _step_exponents(n, i, step, height, weight, next_weight, zero_right)
                    if project:
                        inc = project(inc)
                    inc = sum(e << shift * k for k, e in enumerate(inc))
                    target = swept.setdefault((height, weight, zero_right or weight == 0), {})
                    for packed, count in suffixes.items():
                        packed += inc
                        target[packed] = target.get(packed, 0) + count
        states = swept
    # Only (0, 0, True) is left: step 1 starts at height 0 with weight 0.
    (packed_terms,) = states.values()
    half, mask = 1 << (shift - 1), (1 << shift) - 1
    poly = MultiPoly(variables)
    for packed, count in packed_terms.items():
        exps = []
        for _ in variables:
            exps.append(((packed + half) & mask) - half)
            packed = (packed - exps[-1]) >> shift
        poly.terms[tuple(exps)] = count
    return poly


def a_polynomial(n: int) -> MultiPoly:
    """Sum over all length-n weighted paths of
    t1^sdeb t2^sdea t3^neb t4^nea r^nde s^asc x^cs v^ht w^wt.

    Built by ``_transfer`` without enumerating the histories; the sum of
    ``_a_exponents`` over ``enumerate_histories(n)`` is its oracle in the
    tests."""
    return _transfer(n)


def _substitution(
    variables: Sequence[str], subst: Mapping[str, Mapping[str, int]]
) -> tuple[tuple[str, ...], Callable[[Sequence[int]], tuple[int, ...]]]:
    """The variables ``subst`` gives a polynomial in ``variables``, in order
    of first appearance, and the map of its exponent tuples onto them."""
    new_vars: list[str] = []
    for name in variables:
        if name not in subst:
            raise ValueError(f"no substitution for variable {name!r}")
        for new in subst[name]:
            if new not in new_vars:
                new_vars.append(new)
    index = {name: k for k, name in enumerate(new_vars)}
    moves = [(j, index[new], f)
             for j, name in enumerate(variables) for new, f in subst[name].items()]

    def project(exps: Sequence[int]) -> tuple[int, ...]:
        new_exps = [0] * len(new_vars)
        for j, k, f in moves:
            new_exps[k] += exps[j] * f
        return tuple(new_exps)

    return tuple(new_vars), project


def specialize(
    poly: MultiPoly, subst: Mapping[str, Mapping[str, int]]
) -> MultiPoly:
    """Substitute a monomial (coefficient 1) for each variable.

    ``subst`` maps every variable of ``poly`` to a mapping new-variable ->
    exponent; an empty mapping substitutes the constant 1.  The result's
    variables appear in order of first appearance, scanning the old
    variables in order.
    """
    new_vars, project = _substitution(poly.variables, subst)
    result = MultiPoly(new_vars)
    for exps, coeff in poly.terms.items():
        result.add_term(project(exps), coeff)
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
    specialization of A_n, which ``_transfer`` builds in the variables
    (t, p, q) alone; raises NegativePDegree if the limit does not exist,
    and ValueError if the two computations disagree or n < 1.
    """
    pq = _transfer(n, PQ_EULERIAN_SUBST)
    direct = MultiPoly(("t", "q"))
    des = statistic("des")
    three_one_two = statistic("u31_2")
    for pi in avoiders(n, (2, 1, 3)):
        direct.add_term((des(pi), three_one_two(pi)))

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
