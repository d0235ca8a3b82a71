"""The decomposition function of a power ideal with linear quotients.

g(x_s * m) is the earliest generator in increasing revlex that divides
x_s * m.  All generators share one degree, so those are the exchange
neighbours x_s * m / x_t, and PowerIdeal.earliest holds the earliest one
with its cofactor, the reduction that also gives set(m) (lexres.quotients).
g is evaluated on every pair at once and cached in qs.g_tables as one table
(g, coeff), the layout assembly reads: two int64 arrays of the shape of
qs.member, (|G|, n), -1 everywhere but at the pairs (i, s) with s in
set(m_i), where g[i, s-1] is the position of g(x_s m_i) in G(I^k) and
coeff[i, s-1] the 1-based variable x_s m_i / g(x_s m_i).  Row-major order
is pair order: generator first, then s.  The regularity report of the
table is cached beside it.

The closed form, claimed for classified specs only, divides out x_min(m) or
x_min(tilde m) depending on how x_s*m/x_min(m) compares with v^k in the
bar-degree-then-lex order.  closed_form_matches_oracle builds it in the same
layout, uncached, to compare with the table assembly reads.  A Monomial is
built from a row of PowerIdeal.exponent_matrix only for the text of a
failure or a report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CheckFailure
from .monomials import Monomial
from .quotients import QuotientStructure, high_branch, pair_arrays


def _first_true(mask: np.ndarray) -> int:
    """Index of the first True entry of a 1-d mask, or its length."""
    return int(mask.argmax()) if mask.any() else len(mask)


def closed_form_table(qs: QuotientStructure) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form g on every pair; raises CheckFailure at the first
    pair where it breaks a guarantee."""
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
        m, sp = Monomial(pi.spec.ctx, pi.exponent_matrix[gen[p]]), int(s[p])
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
    dense = np.full((2, *qs.member.shape), -1, dtype=np.int64)
    dense[:, qs.member] = g, col + 1  # the pairs in row-major order
    return dense[0], dense[1]


def oracle_table(qs: QuotientStructure) -> tuple[np.ndarray, np.ndarray]:
    """The definitional g on every pair, computed once per quotient structure."""
    if "oracle" not in qs.g_tables:
        # the generators dividing x_s * m_i are its neighbours x_s * m_i / x_t:
        # g is the earliest, and t its cofactor
        qs.g_tables["oracle"] = tuple(np.where(qs.member, a[: len(qs.member)], -1) for a in qs.power.earliest)
    return qs.g_tables["oracle"]


def closed_form_matches_oracle(qs: QuotientStructure):
    """Compare the closed form with g on every (m, s); returns (ok, first mismatch)."""
    closed, oracle = closed_form_table(qs)[0], oracle_table(qs)[0]
    p = _first_true((closed != oracle).ravel())
    if p == closed.size:
        return True, None
    (i, col), ctx, G = divmod(p, closed.shape[1]), qs.power.spec.ctx, qs.power.exponent_matrix
    return False, (Monomial(ctx, G[i]), col + 1, Monomial(ctx, G[closed[i, col]]), Monomial(ctx, G[oracle[i, col]]))


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
    works without a classified spec.  The report is computed once per
    quotient structure and cached beside the oracle's table."""
    if not qs.is_linear:
        raise ValueError("quotient structure is not linear")
    if "regularity" in qs.g_tables:
        return qs.g_tables["regularity"]
    g, member = oracle_table(qs)[0], qs.member
    gen, col = np.nonzero(member)
    outside = member[g[gen, col]] & ~member[gen]
    p = _first_true(outside.any(axis=1))
    if p == len(gen):
        report = RegularityReport(regular=True)
    else:
        m, t = Monomial(qs.power.spec.ctx, qs.power.exponent_matrix[gen[p]]), int(outside[p].argmax()) + 1
        report = RegularityReport(regular=False, counterexample=(m, int(col[p]) + 1, t))
    qs.g_tables["regularity"] = report
    return report
