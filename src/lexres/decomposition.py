"""The decomposition function of a power ideal with linear quotients.

Two routes to g(x_s * m): the closed form, which divides out x_min(m) or
x_min(tilde m) depending on how x_s*m/x_min(m) compares with v^k in the
bar-degree-then-lex order, and the definitional oracle, the earliest
generator in increasing revlex that divides x_s * m.  The closed form is only
claimed for classified specs; the oracle is always available and is the
ground truth whenever the two are run side by side.  All generators share one
degree, so the generators dividing x_s * m are its exchange neighbours
x_s * m / x_t, and both routes read PowerIdeal.neighbours.  Each route is
evaluated on every pair at once, as a table cached on the quotient structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CheckFailure
from .monomials import Monomial
from .quotients import QuotientStructure, high_branch, pair_arrays


@dataclass(frozen=True)
class DecompositionTable:
    """g(x_s * m_i) on every pair (i, s) with s in set(m_i), i first, then s.

    g[p] is the position of g(x_s m_i) in G(I^k) and coeff[p] the 1-based
    variable x_s m_i / g(x_s m_i).  In the closed form's table, branch[p] is
    1 where it divided by x_min(m) and 0 where by x_min(tilde m).
    """

    gen: np.ndarray
    s: np.ndarray
    g: np.ndarray
    coeff: np.ndarray
    branch: np.ndarray | None = None


def _first_true(mask: np.ndarray) -> int:
    """Index of the first True entry of a 1-d mask, or its length."""
    return int(mask.argmax()) if mask.any() else len(mask)


def closed_form_table(qs: QuotientStructure) -> DecompositionTable:
    """The closed-form g on every pair, computed once per quotient structure;
    raises CheckFailure at the first pair where it breaks a guarantee."""
    if "closed" in qs.g_tables:
        return qs.g_tables["closed"]
    pi, l = qs.power, qs.power.spec.l
    if l is None:
        raise ValueError("spec is not classified: no split index l")
    gen, s, X = pair_arrays(qs)
    first, high = high_branch(pi, gen, X)
    tilde = pi.exponent_matrix[gen, l:] > 0
    no_tilde = ~high & ~tilde.any(axis=1)
    col = np.where(high, first, l + tilde.argmax(axis=1))
    g = pi.neighbours[gen, s - 1, col]
    p = _first_true(no_tilde | (g == len(pi)))
    if p < len(s):
        m, sp = pi.generators[gen[p]], int(s[p])
        if no_tilde[p]:
            message = f"{m} has no support beyond x{l}"
        else:
            row = X[p]
            row[col[p]] -= 1
            message = (
                f"closed form left G(I^k): g(x{sp}*{m}) = {Monomial(m.ctx, row)} is not "
                f"a generator (branch {'high' if high[p] else 'low'}); the instance violates "
                "the classified shape's guarantees"
            )
        raise CheckFailure(message)
    qs.g_tables["closed"] = DecompositionTable(gen, s, g, col + 1, high.astype(np.int64))
    return qs.g_tables["closed"]


def oracle_table(qs: QuotientStructure) -> DecompositionTable:
    """The definitional g on every pair, computed once per quotient structure."""
    if "oracle" in qs.g_tables:
        return qs.g_tables["oracle"]
    gen, s, _ = pair_arrays(qs)
    # the generators dividing x_s * m_i are its neighbours x_s * m_i / x_t
    candidates = qs.power.neighbours[gen, s - 1]
    t = candidates.argmin(axis=1)
    qs.g_tables["oracle"] = DecompositionTable(gen, s, candidates[np.arange(len(s)), t], t + 1)
    return qs.g_tables["oracle"]


def closed_form_matches_oracle(qs: QuotientStructure):
    """Compare both routes on every (m, s); returns (ok, first mismatch)."""
    closed, oracle = closed_form_table(qs), oracle_table(qs)
    p = _first_true(closed.g != oracle.g)
    if p == len(closed.g):
        return True, None
    gens = qs.power.generators
    return False, (gens[closed.gen[p]], int(closed.s[p]), gens[closed.g[p]], gens[oracle.g[p]])


@dataclass(frozen=True)
class RegularityReport:
    regular: bool
    counterexample: tuple[Monomial, int, int] | None = None  # (m, s, offending t)

    def describe(self) -> str:
        if self.regular:
            return "regular: set(g(x_s*m)) ⊆ set(m) for every generator m and s in set(m)"
        m, s, t = self.counterexample
        return f"not regular: t={t} in set(g(x{s}*{m})) but not in set({m})"


def regularity_check_oracle(qs: QuotientStructure) -> RegularityReport:
    """Verify set(g(x_s*m)) ⊆ set(m) for all (m, s), with the definitional g;
    works without a classified spec."""
    if not qs.is_linear:
        raise ValueError("quotient structure is not linear")
    table = oracle_table(qs)
    member = np.zeros((len(qs.sets), qs.power.spec.ctx.n + 1), dtype=bool)
    member[table.gen, table.s] = True
    outside = member[table.g] & ~member[table.gen]
    p = _first_true(outside.any(axis=1))
    if p == len(table.g):
        return RegularityReport(regular=True)
    m, t = qs.power.generators[table.gen[p]], int(outside[p].argmax())
    return RegularityReport(regular=False, counterexample=(m, int(table.s[p]), t))
