"""Colon ideals of generator prefixes and the linear-quotients check.

For the prefix (m_1,...,m_{i-1}) : (m_i) the candidate generators are the
quotients m_j / gcd(m_j, m_i); the colon is generated by variables exactly
when every quotient is divisible by a quotient that is itself a variable.
That early exit keeps the check near-linear; full minimalization runs only
on the failure path and in colon_minimal_generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CheckFailure, InvariantError
from .monomials import Monomial, minimal_rows
from .powers import PowerIdeal


def colon_minimal_generators(prefix, m: Monomial) -> set[Monomial]:
    """Minimal monomial generators of (prefix) : (m)."""
    P = np.array([g.exponents for g in prefix], dtype=np.int64).reshape(len(prefix), m.ctx.n)
    quotients = np.clip(P - np.array(m.exponents), 0, None)
    return {Monomial(m.ctx, row) for row in minimal_rows(quotients).tolist()}


@dataclass
class QuotientStructure:
    """set(m_i) for every generator of a power ideal, plus a verdict.

    sets[i] is the sorted tuple of variable indices generating the i-th
    colon; a non-linear colon is recorded as data (index and offending
    minimal generator), never raised.
    """

    power: PowerIdeal
    sets: list[tuple[int, ...]] = field(default_factory=list)
    status: str = "linear"
    failure_index: int | None = None
    offending: Monomial | None = None
    # the decomposition function's tables (lexres.decomposition), by route
    g_tables: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def is_linear(self) -> bool:
        return self.status == "linear"


def linear_quotients_check(pi: PowerIdeal) -> QuotientStructure:
    """Walk the increasing-revlex generators, collecting set(m_i)."""
    G = pi.exponent_matrix
    r = len(pi.generators)
    sets: list[tuple[int, ...]] = [()]
    for i in range(1, r):
        D = G[:i] - G[i]
        np.clip(D, 0, None, out=D)
        degs = D.sum(axis=1)
        unit_rows = np.nonzero(degs == 1)[0]
        var_cols = sorted(set(int(D[j].argmax()) for j in unit_rows))
        covered = (
            np.any(D[:, var_cols] > 0, axis=1) if var_cols else np.zeros(i, dtype=bool)
        )
        if not covered.all():
            colon = colon_minimal_generators(pi.generators[:i], pi.generators[i])
            bad = sorted(
                (g for g in colon if g.degree != 1),
                key=lambda g: g.exponents,
                reverse=True,
            )
            return QuotientStructure(
                power=pi,
                sets=sets,
                status="failure",
                failure_index=i,
                offending=bad[0],
            )
        m_min = int(np.nonzero(G[i])[0][0]) + 1
        for s in var_cols:
            # increasing revlex forces every colon variable past min(m_i)
            if s + 1 <= m_min:
                raise InvariantError(
                    f"set({pi.generators[i]}) contains x{s + 1} <= x_min"
                )
        sets.append(tuple(s + 1 for s in var_cols))
    return QuotientStructure(power=pi, sets=sets)


@dataclass(frozen=True)
class SetBoundViolation:
    bound: str  # "min-bound" or "tilde-min-bound"
    generator: Monomial
    s: int


def pair_arrays(qs: QuotientStructure):
    """gen, s and the exponent rows of x_s * m_i for every pair (i, s) with
    s in set(m_i), generator first, then s."""
    gen = np.array([i for i, st in enumerate(qs.sets) for _ in st], dtype=np.int64)
    s = np.array([t for st in qs.sets for t in st], dtype=np.int64)
    X = qs.power.exponent_matrix[gen]
    X[np.arange(len(s)), s - 1] += 1
    return gen, s, X


def high_branch(pi: PowerIdeal, gen: np.ndarray, X: np.ndarray):
    """Per pair: the column of x_min(m_i), and whether x_s*m/x_min(m) is not
    below v^k in the bar-degree-then-lex order (needs a classified spec)."""
    l, rows = pi.spec.l, np.arange(len(gen))
    first = (pi.exponent_matrix[gen] > 0).argmax(axis=1)
    D = X - np.array((pi.spec.v**pi.k).exponents)
    D[rows, first] -= 1
    bar, lex = np.sign(D[:, :l].sum(axis=1)), np.sign(D[rows, (D != 0).argmax(axis=1)])
    return first, np.where(bar != 0, bar, lex) >= 0


def set_bound_report(qs: QuotientStructure) -> list[SetBoundViolation]:
    """Check s > min(m) for all s in set(m), and s > min(tilde m) whenever
    x_s*m/x_min(m) precedes v^k in the bar-degree-then-lex order.

    Returns the violations in pair order (empty = both facts hold).  Needs
    a classified spec for the second check; the first always runs.
    """
    pi, l = qs.power, qs.power.spec.l
    gen, s, X = pair_arrays(qs)
    M = pi.exponent_matrix[gen]
    bad_min = s <= (M > 0).argmax(axis=1) + 1
    bad_tilde = np.zeros_like(bad_min)
    if l is not None:
        low = ~bad_min & ~high_branch(pi, gen, X)[1]
        tilde = M[:, l:] > 0
        bare = np.flatnonzero(low & ~tilde.any(axis=1))
        if bare.size:
            raise CheckFailure(f"{pi.generators[gen[bare[0]]]} has no support beyond x{l}")
        bad_tilde = low & (s <= l + 1 + tilde.argmax(axis=1))
    return [
        SetBoundViolation(
            "min-bound" if bad_min[p] else "tilde-min-bound", pi.generators[gen[p]], int(s[p])
        )
        for p in np.flatnonzero(bad_min | bad_tilde).tolist()
    ]
