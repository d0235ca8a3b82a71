"""The decomposition function of a power ideal with linear quotients.

g(x_s * m) is the earliest generator in increasing revlex that divides
x_s * m.  All generators share one degree, so those are the exchange
neighbours x_s * m / x_t, read from PowerIdeal.neighbours.  g is evaluated on
every pair at once and cached in qs.g_tables as one table (g, coeff), the
layout assembly reads: two (|G|, n+1) int64 arrays, -1 everywhere but at the
pairs (i, s) with s in set(m_i), where g[i, s] is the position of g(x_s m_i)
in G(I^k) and coeff[i, s] the 1-based variable x_s m_i / g(x_s m_i).
Row-major order is pair order: generator first, then s.  The regularity
report of the table is cached beside it.

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


def _table(qs: QuotientStructure, gen, s, g, coeff) -> tuple[np.ndarray, np.ndarray]:
    """(g, coeff) of the pairs (gen, s), scattered into the dense layout."""
    dense = np.full((2, len(qs.sets), qs.power.spec.ctx.n + 1), -1, dtype=np.int64)
    dense[0][gen, s], dense[1][gen, s] = g, coeff
    return dense[0], dense[1]


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
    return _table(qs, gen, s, g, col + 1)


def oracle_table(qs: QuotientStructure) -> tuple[np.ndarray, np.ndarray]:
    """The definitional g on every pair, computed once per quotient structure."""
    if "oracle" in qs.g_tables:
        return qs.g_tables["oracle"]
    gen, s, _ = pair_arrays(qs)
    # the generators dividing x_s * m_i are its neighbours x_s * m_i / x_t
    candidates = qs.power.neighbours[gen, s - 1]
    t = candidates.argmin(axis=1)
    qs.g_tables["oracle"] = _table(qs, gen, s, candidates[np.arange(len(s)), t], t + 1)
    return qs.g_tables["oracle"]


def closed_form_matches_oracle(qs: QuotientStructure):
    """Compare the closed form with g on every (m, s); returns (ok, first mismatch)."""
    closed, oracle = closed_form_table(qs)[0], oracle_table(qs)[0]
    p = _first_true((closed != oracle).ravel())
    if p == closed.size:
        return True, None
    (i, s), ctx, G = divmod(p, closed.shape[1]), qs.power.spec.ctx, qs.power.exponent_matrix
    return False, (Monomial(ctx, G[i]), s, Monomial(ctx, G[closed[i, s]]), Monomial(ctx, G[oracle[i, s]]))


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
    g = oracle_table(qs)[0]
    member = g >= 0  # member[i, s]: s in set(m_i)
    gen, s = np.nonzero(member)
    outside = member[g[gen, s]] & ~member[gen]
    p = _first_true(outside.any(axis=1))
    if p == len(gen):
        report = RegularityReport(regular=True)
    else:
        m, t = Monomial(qs.power.spec.ctx, qs.power.exponent_matrix[gen[p]]), int(outside[p].argmax())
        report = RegularityReport(regular=False, counterexample=(m, int(s[p]), t))
    qs.g_tables["regularity"] = report
    return report
