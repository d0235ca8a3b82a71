"""Minimal generators of I^k, ordered by increasing reverse-lex.

All products of k lexsegment generators share degree k*d, and distinct
monomials of one degree never divide each other, so the distinct products
are exactly the minimal generators; no divisibility pruning is needed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import BudgetError, InvariantError
from .lexsegment import LexSegmentSpec, enumerate_lexsegment
from .monomials import Monomial

DEFAULT_PRODUCT_BUDGET = 10**6


class PowerIdeal:
    """G(I^k) as an increasing-revlex sequence, with lookup helpers."""

    def __init__(self, spec: LexSegmentSpec, k: int, generators):
        self.spec = spec
        self.k = k
        self.generators = tuple(generators)
        self.position = {m.exponents: i for i, m in enumerate(self.generators)}
        self._matrix = None

    def __len__(self):
        return len(self.generators)

    @property
    def exponent_matrix(self) -> np.ndarray:
        """Generators as an int64 (r, n) array, row order = generator order."""
        if self._matrix is None:
            self._matrix = np.array([m.exponents for m in self.generators], dtype=np.int64)
        return self._matrix


def power_generators(spec: LexSegmentSpec, k: int, budget: int = DEFAULT_PRODUCT_BUDGET) -> PowerIdeal:
    """Sum the k-multisets of L(u, v) as exponent rows, sort increasing
    revlex, and keep one row of each run of equal rows."""
    if k < 1:
        raise ValueError("k must be >= 1")
    segment = enumerate_lexsegment(spec.u, spec.v)
    candidates = math.comb(len(segment) + k - 1, k)
    if candidates > budget:
        raise BudgetError(
            f"|L|={len(segment)}, k={k}: {candidates} candidate products exceed budget {budget}"
        )
    E = np.array([m.exponents for m in segment], dtype=np.int64)
    multisets = itertools.combinations_with_replacement(range(len(segment)), k)
    picks = np.fromiter(itertools.chain.from_iterable(multisets), dtype=np.int64, count=candidates * k)
    picks = picks.reshape(candidates, k)
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
    degrees = P.sum(axis=1).tolist()
    pi = PowerIdeal(spec, k, [Monomial.trusted(spec.ctx, tuple(e), d) for e, d in zip(P.tolist(), degrees)])
    pi._matrix = P
    return pi
