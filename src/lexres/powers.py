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
from .monomials import Monomial, bar_degree, revlex_key

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

    def index_of(self, m: Monomial) -> int:
        """Position of a generator in the increasing-revlex order."""
        try:
            return self.position[m.exponents]
        except KeyError:
            raise ValueError(f"{m} is not a generator of I^{self.k}") from None

    @property
    def exponent_matrix(self) -> np.ndarray:
        """Generators as an int64 (r, n) array, row order = generator order."""
        if self._matrix is None:
            self._matrix = np.array([m.exponents for m in self.generators], dtype=np.int64)
        return self._matrix


def power_generators(spec: LexSegmentSpec, k: int, budget: int = DEFAULT_PRODUCT_BUDGET) -> PowerIdeal:
    """Enumerate k-multiset products of L(u, v), dedupe, sort increasing revlex."""
    if k < 1:
        raise ValueError("k must be >= 1")
    segment = enumerate_lexsegment(spec.u, spec.v)
    candidates = math.comb(len(segment) + k - 1, k)
    if candidates > budget:
        raise BudgetError(
            f"|L|={len(segment)}, k={k}: {candidates} candidate products exceed budget {budget}"
        )
    n = spec.ctx.n
    seen: set[tuple[int, ...]] = set()
    for combo in itertools.combinations_with_replacement(segment, k):
        exps = [0] * n
        for m in combo:
            for i, e in enumerate(m.exponents):
                exps[i] += e
        seen.add(tuple(exps))
    gens = sorted((Monomial(spec.ctx, e) for e in seen), key=revlex_key)
    if spec.l is not None:
        # standing fact for the classified shape: deg(bar m) >= k for every generator
        for m in gens:
            if bar_degree(m, spec.l) < k:
                raise InvariantError(f"generator {m} has bar-degree < k={k}")
    return PowerIdeal(spec, k, gens)
