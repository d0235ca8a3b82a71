"""Minimal generators of I^k, ordered by increasing reverse-lex.

All products of k lexsegment generators share degree k*d, and distinct
monomials of one degree never divide each other, so the distinct products
are exactly the minimal generators; no divisibility pruning is needed.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

from .errors import BudgetError, InvariantError
from . import lexsegment
from .lexsegment import LexSegmentSpec, enumerate_lexsegment, lex_rank
from .monomials import Monomial

# cells of the largest arrays, each checked before it is built: here the
# candidate rows, candidates * n, and the exchange-neighbour table, |G| n^2;
# in resolution.py the matrix entries of a complex, bounded by
# sum_i 2 i beta_{i+1}, which keeps every index of a DifferentialMatrix below
# 2^31; in verify.py the rank check's points, trials * n, and each dense
# fallback matrix, nrows * ncols.  n=8, k=2
# (x1x4..x8 / x2x8^5) needs 1,164,240, 934,720 and 6,178,528 of the first three
ENTRY_BUDGET = 8 * 10**6


class PowerIdeal:
    """G(I^k) as an increasing-revlex sequence: exponent_matrix is the int64
    (|G|, n) array of the generators, one row each in generator order; the
    exchange-neighbour table and its earliest entries are built on first use."""

    def __init__(self, spec: LexSegmentSpec, k: int, exponent_matrix: np.ndarray):
        self.spec = spec
        self.k = k
        self.exponent_matrix = exponent_matrix

    def __len__(self):
        return len(self.exponent_matrix)

    @property
    def generators(self) -> np.ndarray:
        """exponent_matrix, under the name perfbench/tracer.py counts |G| by."""
        return self.exponent_matrix

    @cached_property
    def neighbours(self) -> np.ndarray:
        """neighbours[i, s-1, t-1] is the position of m_i * x_s / x_t in G, or
        len(G) where that is not a generator; its diagonal is i."""
        cells = len(self) * self.spec.ctx.n**2
        if cells > ENTRY_BUDGET:
            raise BudgetError(f"the exchange-neighbour table has {cells} cells, over the budget {ENTRY_BUDGET}")
        return _exchange_neighbours(self.exponent_matrix, self.k)

    @cached_property
    def earliest(self) -> tuple[np.ndarray, np.ndarray]:
        """(g, t): g[i, s-1] is the earliest neighbour m_i * x_s / x_t, at
        most i by the diagonal, and t[i, s-1] its 1-based t."""
        t = self.neighbours.argmin(axis=2)
        return np.take_along_axis(self.neighbours, t[:, :, None], axis=2)[:, :, 0], t + 1


def _exchange_neighbours(G: np.ndarray, k: int) -> np.ndarray:
    """The neighbours table of the generator rows G, which must share one degree.

    Two generators are exchange neighbours, m_j = m_i * x_s / x_t, exactly
    when they share a quotient m_i / x_t = m_j / x_s.  The quotients of all
    generators are grouped by a stable sort of their raw bytes, which is exact
    for any exponent size, and every two members of a group fill each
    other's entries.  With one degree kd these are all the generators that
    divide some x_s * m_i, so every reader of the table may rely on that."""
    r, n = G.shape
    degrees = G.sum(axis=1)
    if (degrees != degrees[:1]).any():
        raise InvariantError(f"generators of I^{k} have degrees {sorted(set(degrees.tolist()))}, not one")
    i, t = np.nonzero(G)  # x_t divides m_i
    down = G[i]
    down[np.arange(len(i)), t] -= 1
    down = down.view(np.dtype((np.void, G.itemsize * n))).ravel()
    order = np.argsort(down, kind="stable")
    down, i, t = down[order], i[order], t[order]
    table = np.full((r, n, n), r, dtype=np.int64)
    gap = 1
    while gap < len(down):
        same = down[gap:] == down[:-gap]
        if not same.any():  # no group has more than gap members
            break
        a = np.flatnonzero(same)
        b = a + gap
        table[i[a], t[b], t[a]] = i[b]
        table[i[b], t[a], t[b]] = i[a]
        gap += 1
    table[:, np.arange(n), np.arange(n)] = np.arange(r)[:, None]
    return table


def _multisets(size: int, k: int, cap: int) -> int | None:
    """C(size + k - 1, k), the k-multisets of size members, or None past cap:
    with r = min(k, size - 1), C(size + k - 1 - r + j, j) grows with j = 1..r
    up to it, so the product stops within a few dozen steps of passing 2^63."""
    count, r = 1, min(k, size - 1)
    for j in range(1, r + 1):
        if (count := count * (size + k - 1 - r + j) // j) > cap:
            return None
    return count


def power_generators(spec: LexSegmentSpec, k: int) -> PowerIdeal:
    """Sum the k-multisets of L(u, v) as exponent rows, sort increasing
    revlex, and keep one row of each run of equal rows.  The products are
    counted against lexsegment.DEFAULT_PRODUCT_BUDGET, read at call time; a
    degree kd past int64 is refused (ValueError) before any row is built."""
    if k < 1:
        raise ValueError("k must be >= 1")
    top = np.iinfo(np.int64).max
    size = lex_rank(spec.v) - lex_rank(spec.u) + 1  # |L(u, v)|, counted before it is walked
    candidates, budget = _multisets(size, k, top), lexsegment.DEFAULT_PRODUCT_BUDGET
    if candidates is None or candidates > budget:
        count = f"more than {top}" if candidates is None else candidates
        raise BudgetError(f"|L|={size}, k={k}: {count} candidate products exceed budget {budget}")
    if candidates * spec.ctx.n > ENTRY_BUDGET:
        raise BudgetError(f"the candidate rows have {candidates * spec.ctx.n} cells, over the budget {ENTRY_BUDGET}")
    if k * spec.d > top:
        raise ValueError(f"the generators of I^{k} have degree {k * spec.d}, over {top}, the int64 limit of their rows")
    segment = enumerate_lexsegment(spec.u, spec.v)
    E = np.array([m.exponents for m in segment], dtype=np.int64)
    multisets = itertools.combinations_with_replacement(range(len(segment)), k)
    # the walk, not the count, gives the rows: a walk that disagrees shows up below
    count = math.comb(len(segment) + k - 1, k) * k
    picks = np.fromiter(itertools.chain.from_iterable(multisets), dtype=np.int64, count=count).reshape(-1, k)
    P = E[picks[:, 0]]
    for c in range(1, k):
        P += E[picks[:, c]]
    P = P[np.lexsort(-P.T)]  # the exponent of x_n descending first: increasing revlex
    P = P[np.r_[True, (P[1:] != P[:-1]).any(axis=1)]]
    if spec.l is not None:
        # standing fact for the classified shape: deg(bar m) >= k for every generator
        low = np.flatnonzero(P[:, : spec.l].sum(axis=1) < k)
        if low.size:
            raise InvariantError(
                f"generator {Monomial(spec.ctx, P[low[0]])} has bar-degree < k={k}"
            )
    if P.shape[1] != spec.ctx.n or (P < 0).any():
        raise InvariantError(f"exponent rows of shape {P.shape} do not fit n={spec.ctx.n}")
    return PowerIdeal(spec, k, P)
