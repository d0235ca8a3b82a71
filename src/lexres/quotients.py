"""Colon ideals of generator prefixes and the linear-quotients check.

All generators of I^k share one degree, so the quotient m_j / gcd(m_j, m_i)
is a variable x_s exactly when m_j = m_i * x_s / x_t for some t != s: set(m_i)
is read off the exchange-neighbour table's reduction to the earliest entry
per (i, s), PowerIdeal.earliest, which also gives the definitional g.  The
colon (m_1,...,m_{i-1}) : (m_i) is then generated by the x_s, s in set(m_i),
exactly when no earlier m_j is <= m_i on every column of set(m_i), which
one earliest-divisor scan of G, in doubling prefix blocks, decides for all
i.  Full minimalization runs only on the failure path and in
colon_minimal_generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CheckFailure, InvariantError
from .monomials import Monomial, first_divisors, minimal_rows
from .powers import PowerIdeal


def colon_minimal_generators(prefix: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Minimal monomial generators of (prefix) : (m), as exponent rows sorted
    by (degree, lex), from the rows of prefix and the row m."""
    return minimal_rows(np.clip(prefix - m, 0, None))


@dataclass(eq=False)
class QuotientStructure:
    """set(m_i) for every generator of a power ideal, plus a verdict.

    member is the (r, n) bool matrix with member[i, s-1] true when x_s is in
    set(m_i), one row per generator before the first non-linear colon (all
    of them when linear); that colon is recorded as data (index and
    offending minimal generator), never raised.
    """

    power: PowerIdeal
    member: np.ndarray
    status: str = "linear"
    failure_index: int | None = None
    offending: Monomial | None = None
    # the definitional decomposition function's table and its regularity
    # report (lexres.decomposition)
    g_tables: dict = field(default_factory=dict, repr=False)

    @property
    def is_linear(self) -> bool:
        return self.status == "linear"

    @property
    def sets(self) -> list[tuple[int, ...]]:
        """set(m_i) as sorted tuples of 1-based variable indices, read from
        member, for the text that prints them."""
        cols = (np.nonzero(self.member)[1] + 1).tolist()
        ends = np.cumsum(self.member.sum(axis=1)).tolist()
        return [tuple(cols[a:b]) for a, b in zip([0, *ends], ends)]


def _first_uncovered(G: np.ndarray, member: np.ndarray) -> int:
    """The first i with an earlier m_j <= m_i on every column of set(m_i),
    so that x_s, s in set(m_i), do not generate the colon; len(G) if none.

    m_i's exponents off set(m_i) are raised to their column's maximum, so
    that m_j divides the raised row exactly when m_j <= m_i on set(m_i); m_i
    divides it too, so its earliest divisor lies below i exactly when the
    colon fails.  Rows lo..2*lo are scanned against the generators up to
    2*lo, one prefix block at a time, up to the first block that fails: about
    two thirds of the comparisons of every row against all of G."""
    X = np.where(member, G, G.max(axis=0, initial=0))
    lo = 0
    while lo < len(G):
        hi = min(2 * lo + 1, len(G))
        below = np.flatnonzero(first_divisors(G[:hi], X[lo:hi]) < np.arange(lo, hi))
        if below.size:
            return lo + int(below[0])
        lo = hi
    return len(G)


def linear_quotients_check(pi: PowerIdeal) -> QuotientStructure:
    """set(m_i) for every increasing-revlex generator, or the first i whose
    colon is not generated by variables."""
    G = pi.exponent_matrix
    # x_s is in set(m_i) when the earliest generator m_i * x_s / x_t, which
    # is g(x_s * m_i), comes before m_i
    member = pi.earliest[0] < np.arange(len(G))[:, None]
    failure = _first_uncovered(G, member)
    # increasing revlex forces every colon variable past min(m_i); a failed
    # colon is reported before a violation at its own or a later index
    low = member.any(axis=1) & (member.argmax(axis=1) <= (G > 0).argmax(axis=1))
    bad = np.flatnonzero(low[:failure])
    if bad.size:
        i = int(bad[0])
        raise InvariantError(f"set({Monomial(pi.spec.ctx, G[i])}) contains x{member[i].argmax() + 1} <= x_min")
    if failure == len(G):
        return QuotientStructure(power=pi, member=member)
    colon = colon_minimal_generators(G[:failure], G[failure])
    offending = Monomial(pi.spec.ctx, max(map(tuple, colon[colon.sum(axis=1) != 1].tolist())))
    return QuotientStructure(power=pi, member=member[:failure], status="failure", failure_index=failure,
                             offending=offending)


@dataclass(frozen=True)
class SetBoundViolation:
    bound: str  # "min-bound" or "tilde-min-bound"
    generator: Monomial
    s: int


def pair_arrays(qs: QuotientStructure):
    """gen, s and the exponent rows of x_s * m_i for every pair (i, s) with
    s in set(m_i), generator first, then s: the entries of member in
    row-major order."""
    gen, col = np.nonzero(qs.member)
    X = qs.power.exponent_matrix[gen]
    X[np.arange(len(gen)), col] += 1
    return gen, col + 1, X


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
            raise CheckFailure(f"{Monomial(pi.spec.ctx, M[bare[0]])} has no support beyond x{l}")
        bad_tilde = low & (s <= l + 1 + tilde.argmax(axis=1))
    return [
        SetBoundViolation("min-bound" if bad_min[p] else "tilde-min-bound", Monomial(pi.spec.ctx, M[p]), int(s[p]))
        for p in np.flatnonzero(bad_min | bad_tilde).tolist()
    ]
